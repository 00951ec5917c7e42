//! Weighted fair queueing across tenants, per priority class — the
//! service's ready queue.
//!
//! Each priority class splits its ready entries into per-tenant FIFO
//! lanes and pops by a credit scheduler: every pop first grants each
//! *active* lane (one with queued entries) its weight in credit, then
//! serves the lane with the most credit (ties to the smallest tenant
//! id) and charges it the total active weight. This is the greedy
//! chairman-assignment rule — by Tijdeman's theorem the number of pops
//! any backlogged tenant receives stays within one of its exact
//! weighted share, which is the fairness bound the proptest below
//! pins.
//!
//! Two deliberate properties of the credit bookkeeping:
//!
//! * An *inactive* lane (drained queue) accrues nothing and, on
//!   reactivation, keeps only its **debt** (`credit.min(0)`): a tenant
//!   cannot bank credit while absent and then burst past everyone, but
//!   a tenant mid-pipeline (stage tasks re-enter the queue between
//!   stages) keeps its recent-service debt, so rapid
//!   deactivate/reactivate cycles do not forgive it.
//! * Entries within one lane pop in heap order — priority is constant
//!   inside a class, so the order is submission order. With a single
//!   tenant a class is one lane, and the whole queue pops by priority
//!   then submission order.
//!
//! Fairness is scheduling only: it decides *when* a tenant's job runs,
//! never its result (the remote-equivalence matrix pins bit-identical
//! schedules across tenants). A job answered at submit from a resident
//! schedule never enters the queue and costs its lane nothing; a stale
//! entry whose job was cancelled still charges its lane one pop (rare,
//! and self-correcting within the same bound).

use std::collections::{BinaryHeap, HashMap};

use crate::service::ReadyJob;

/// Per-tenant scheduling weights, resolved at service construction.
/// Tenants not explicitly configured get weight 1.
#[derive(Debug, Clone, Default)]
pub(crate) struct TenantWeights {
    map: HashMap<u32, u64>,
}

impl TenantWeights {
    /// Builds the table from `(tenant, weight)` pairs. Weights are
    /// validated non-zero by the service constructor before this runs.
    pub(crate) fn new(pairs: impl IntoIterator<Item = (u32, u64)>) -> Self {
        Self {
            map: pairs.into_iter().collect(),
        }
    }

    pub(crate) fn weight(&self, tenant: u32) -> u64 {
        self.map.get(&tenant).copied().unwrap_or(1)
    }
}

/// One tenant's FIFO lane inside a priority class.
#[derive(Debug)]
struct Lane {
    tenant: u32,
    weight: u64,
    credit: i64,
    queue: BinaryHeap<ReadyJob>,
}

/// One priority class's weighted-fair state.
#[derive(Debug, Default)]
pub(crate) struct FairClass {
    /// Lanes sorted by tenant id. A lane is created on a tenant's
    /// first push and kept after it drains, so it keeps its debt. Tenant
    /// ids come off the wire (any `u32`), so this holds one lane per
    /// distinct tenant id seen — the same growth as the
    /// [`ServiceStats::tenants`](crate::ServiceStats::tenants) rows.
    lanes: Vec<Lane>,
}

impl FairClass {
    /// Queues an entry in its tenant's lane.
    pub(crate) fn push(&mut self, entry: ReadyJob, weights: &TenantWeights) {
        let tenant = entry.tenant;
        let i = match self.lanes.binary_search_by_key(&tenant, |l| l.tenant) {
            Ok(i) => {
                if self.lanes[i].queue.is_empty() {
                    // Reactivation: keep debt, drop any banked credit.
                    self.lanes[i].credit = self.lanes[i].credit.min(0);
                }
                i
            }
            Err(i) => {
                self.lanes.insert(
                    i,
                    Lane {
                        tenant,
                        weight: weights.weight(tenant),
                        credit: 0,
                        queue: BinaryHeap::new(),
                    },
                );
                i
            }
        };
        self.lanes[i].queue.push(entry);
    }

    /// Pops the next entry by the credit rule, or `None` when every
    /// lane is empty.
    pub(crate) fn pop(&mut self) -> Option<ReadyJob> {
        let mut total_active_weight = 0i64;
        let mut best: Option<usize> = None;
        for i in 0..self.lanes.len() {
            if self.lanes[i].queue.is_empty() {
                continue;
            }
            let w = self.lanes[i].weight as i64;
            self.lanes[i].credit += w;
            total_active_weight += w;
            // Strict `>` keeps ties on the smallest tenant id (lanes
            // are id-sorted).
            match best {
                Some(b) if self.lanes[i].credit <= self.lanes[b].credit => {}
                _ => best = Some(i),
            }
        }
        let i = best?;
        self.lanes[i].credit -= total_active_weight;
        self.lanes[i].queue.pop()
    }

    /// `true` when no lane has queued entries.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Priority;
    use proptest::prelude::*;
    use std::time::Instant;

    fn entry(tenant: u32, seq: u64) -> ReadyJob {
        ReadyJob {
            priority: Priority::Normal,
            seq,
            tenant,
            enqueued: Instant::now(),
        }
    }

    fn drain_counts(weights: &[(u32, u64)], backlog: usize, pops: usize) -> HashMap<u32, usize> {
        let tw = TenantWeights::new(weights.iter().copied());
        let mut class = FairClass::default();
        let mut seq = 0;
        for &(tenant, _) in weights {
            for _ in 0..backlog {
                class.push(entry(tenant, seq), &tw);
                seq += 1;
            }
        }
        let mut served: HashMap<u32, usize> = HashMap::new();
        for _ in 0..pops {
            let e = class.pop().expect("backlog not exhausted");
            *served.entry(e.tenant).or_insert(0) += 1;
        }
        served
    }

    /// The headline bound: with every tenant backlogged, after any
    /// number of pops each tenant's served count is within one task of
    /// its exact weighted share (Tijdeman's chairman-assignment bound).
    fn assert_within_one_of_share(weights: &[(u32, u64)], pops: usize) {
        let backlog = pops; // every tenant stays backlogged throughout
        let served = drain_counts(weights, backlog, pops);
        let total_w: u64 = weights.iter().map(|&(_, w)| w).sum();
        for &(tenant, w) in weights {
            let got = served.get(&tenant).copied().unwrap_or(0) as f64;
            let share = pops as f64 * w as f64 / total_w as f64;
            assert!(
                (got - share).abs() <= 1.0 + 1e-9,
                "tenant {tenant} (weight {w}): served {got}, share {share:.3} after {pops} pops"
            );
        }
    }

    #[test]
    fn equal_weights_round_robin() {
        // 3 tenants, weight 1 each: every window of 3 pops serves each
        // tenant exactly once.
        let tw = TenantWeights::new([(0, 1), (1, 1), (2, 1)]);
        let mut class = FairClass::default();
        for seq in 0..9 {
            class.push(entry((seq % 3) as u32, seq), &tw);
        }
        let order: Vec<u32> = std::iter::from_fn(|| class.pop())
            .map(|e| e.tenant)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn skewed_weights_match_share() {
        assert_within_one_of_share(&[(0, 6), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)], 110);
        assert_within_one_of_share(&[(7, 3), (9, 1), (11, 1)], 100);
        assert_within_one_of_share(&[(0, 1), (1, 19)], 200);
    }

    #[test]
    fn single_tenant_degenerates_to_fifo() {
        let tw = TenantWeights::new([(5, 4)]);
        let mut class = FairClass::default();
        for seq in [3u64, 0, 2, 1] {
            class.push(entry(5, seq), &tw);
        }
        let order: Vec<u64> = std::iter::from_fn(|| class.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "submission order within a lane");
        assert!(class.is_empty());
    }

    #[test]
    fn inactive_lane_banks_no_credit() {
        let tw = TenantWeights::new([(0, 1), (1, 1)]);
        let mut class = FairClass::default();
        // Tenant 0 alone for a long stretch…
        for seq in 0..10 {
            class.push(entry(0, seq), &tw);
        }
        for _ in 0..10 {
            assert_eq!(class.pop().unwrap().tenant, 0);
        }
        // …then both become backlogged: tenant 1 must not burst ahead
        // on banked credit, the split stays within one of 50/50.
        for seq in 10..30 {
            class.push(entry(seq as u32 % 2, seq), &tw);
        }
        let mut served = [0usize; 2];
        for _ in 0..20 {
            served[class.pop().unwrap().tenant as usize] += 1;
        }
        assert!(
            served[0].abs_diff(served[1]) <= 2,
            "served {served:?} after reactivation"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random tenant mixes and weights: drained counts per tenant
        /// stay within one task of the weighted share at every prefix
        /// of the pop sequence (not just the end).
        #[test]
        fn served_counts_track_weighted_share(
            weights in prop::collection::vec(1u64..20, 2..6),
            pops in 10usize..120,
        ) {
            let pairs: Vec<(u32, u64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (i as u32 * 3 + 1, w))
                .collect();
            let tw = TenantWeights::new(pairs.iter().copied());
            let mut class = FairClass::default();
            let mut seq = 0;
            for &(tenant, _) in &pairs {
                for _ in 0..pops {
                    class.push(entry(tenant, seq), &tw);
                    seq += 1;
                }
            }
            let total_w: u64 = weights.iter().sum();
            let mut served: HashMap<u32, usize> = HashMap::new();
            for n in 1..=pops {
                let e = class.pop().expect("backlogged");
                *served.entry(e.tenant).or_insert(0) += 1;
                for &(tenant, w) in &pairs {
                    let got = served.get(&tenant).copied().unwrap_or(0) as f64;
                    let share = n as f64 * w as f64 / total_w as f64;
                    prop_assert!(
                        (got - share).abs() <= 1.0 + 1e-9,
                        "tenant {} weight {}: served {} share {:.3} at pop {}",
                        tenant, w, got, share, n
                    );
                }
            }
        }
    }
}
