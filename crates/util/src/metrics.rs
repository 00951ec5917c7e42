//! Hand-rolled, allocation-free metrics primitives: atomic counters and
//! fixed-size log-bucketed histograms.
//!
//! The build box is offline, so there is no `prometheus`/`hdrhistogram`;
//! this module provides the minimal production shapes the service layer
//! needs for latency attribution:
//!
//! * [`Counter`] — a relaxed atomic monotonic counter.
//! * [`Histogram`] — a fixed-size (496-bucket) logarithmic histogram of
//!   `u64` samples with **8 sub-buckets per octave**, so every recorded
//!   value lands in a bucket whose width is at most 1/8th of its lower
//!   bound. Quantile estimates are therefore within ~12.5% relative
//!   error for any value range, with no configuration and no allocation
//!   after construction. Recording is one relaxed `fetch_add` per
//!   sample (plus a sum add and a max CAS loop), so it is safe on hot
//!   paths and from any number of threads.
//! * [`Summary`] — a `Copy` snapshot (count / p50 / p95 / p99 / max /
//!   mean) taken from a histogram at a point in time.
//! * [`Registry`] — a named collection of histograms built once at
//!   startup and then accessed by cheap integer [`HistogramId`]s, so
//!   call sites never pay a name lookup.
//!
//! # Example
//!
//! ```
//! use mbqc_util::metrics::{Histogram, Registry};
//!
//! let mut reg = Registry::new();
//! let lat = reg.histogram("stage_latency_ns");
//! for v in [100u64, 200, 400, 800] {
//!     reg.get(lat).record(v);
//! }
//! let s = reg.get(lat).summary();
//! assert_eq!(s.count, 4);
//! assert!(s.p50 >= 100 && s.max >= 800);
//! // Log-bucketing keeps every quantile within ~12.5% of the true value.
//! assert!(s.p99 <= 900);
//! let _ = Histogram::new(); // histograms also work standalone
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing atomic counter.
///
/// All operations are `Ordering::Relaxed`: counters are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// log2 of the number of sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (8): bucket width ≤ 1/8 of the bucket's lower
/// bound, i.e. ≤ 12.5% relative quantile error.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: values `0..8` get
/// exact buckets, then 61 octaves (`msb = 3..=63`) × 8 sub-buckets each.
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Map a sample to its bucket index. Exact for `v < 8`; above that, the
/// top `SUB_BITS + 1` significant bits select the bucket.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = (v >> (msb - SUB_BITS)) - SUB; // 0..SUB
        ((msb as u64 - SUB_BITS as u64 + 1) * SUB + sub) as usize
    }
}

/// Inclusive lower bound of bucket `idx` (the smallest value that maps
/// to it).
#[inline]
fn bucket_lower(idx: usize) -> u64 {
    if idx < SUB as usize {
        idx as u64
    } else {
        let octave = idx as u64 / SUB - 1; // 0-based octave above the exact range
        let sub = idx as u64 % SUB;
        (SUB + sub) << octave
    }
}

/// Representative value reported for bucket `idx`: the midpoint of the
/// bucket's value range, which halves the worst-case quantile error
/// versus reporting either edge.
#[inline]
fn bucket_mid(idx: usize) -> u64 {
    let lo = bucket_lower(idx);
    if idx < SUB as usize {
        lo
    } else {
        let width = 1u64 << (idx as u64 / SUB - 1);
        lo + (width - 1) / 2
    }
}

/// A fixed-size log-bucketed histogram of `u64` samples.
///
/// Thread-safe: `record` is lock-free and callable concurrently;
/// `summary` takes a relaxed snapshot (counts recorded concurrently with
/// the snapshot may or may not be included — fine for statistics).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram (one 496-slot allocation).
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Snapshot the histogram into a [`Summary`].
    pub fn summary(&self) -> Summary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Summary::default();
        }
        // Rank r(q) = the ceil(q * total)-th sample (1-based); walk the
        // cumulative counts once for all three quantiles.
        let rank = |q: f64| -> u64 { ((q * total as f64).ceil() as u64).clamp(1, total) };
        let (r50, r95, r99) = (rank(0.50), rank(0.95), rank(0.99));
        let (mut p50, mut p95, mut p99) = (0u64, 0u64, 0u64);
        let mut cum = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum;
            cum += c;
            let mid = bucket_mid(idx);
            if prev < r50 && r50 <= cum {
                p50 = mid;
            }
            if prev < r95 && r95 <= cum {
                p95 = mid;
            }
            if prev < r99 && r99 <= cum {
                p99 = mid;
                break;
            }
        }
        let max = self.max.load(Ordering::Relaxed);
        Summary {
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            p50: p50.min(max),
            p95: p95.min(max),
            p99: p99.min(max),
            max,
        }
    }
}

/// A point-in-time quantile snapshot of a [`Histogram`].
///
/// Quantiles are bucket midpoints, accurate to ~12.5% relative error
/// (and clamped to the observed maximum, so `p99 <= max` always holds).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow; use for means).
    pub sum: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Exact maximum sample.
    pub max: u64,
}

impl Summary {
    /// Exact arithmetic mean of the recorded samples, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Integer handle into a [`Registry`], returned at registration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A named set of histograms: register by name once at startup, record
/// through [`HistogramId`]s with no lookup cost afterwards.
#[derive(Debug, Default)]
pub struct Registry {
    histograms: Vec<(&'static str, Histogram)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or create) the histogram `name` and return its handle.
    /// Registering the same name twice returns the existing histogram.
    pub fn histogram(&mut self, name: &'static str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| *n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name, Histogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// The histogram behind `id`.
    #[inline]
    pub fn get(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0].1
    }

    /// Snapshot every registered histogram as `(name, summary)` pairs,
    /// in registration order.
    pub fn summaries(&self) -> Vec<(&'static str, Summary)> {
        self.histograms
            .iter()
            .map(|(n, h)| (*n, h.summary()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_total() {
        // Exact buckets below SUB, then every boundary transition.
        let mut prev = 0usize;
        for shift in 0..64u32 {
            for off in [0u64, 1, 2] {
                let v = (1u64 << shift).saturating_add(off).saturating_sub(1);
                let idx = bucket_index(v);
                assert!(idx < BUCKETS, "v={v} idx={idx}");
                assert!(
                    idx >= prev || v < bucket_lower(prev),
                    "not monotonic at {v}"
                );
                prev = prev.max(idx);
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_lower_inverts_index() {
        for idx in 0..BUCKETS {
            let lo = bucket_lower(idx);
            assert_eq!(bucket_index(lo), idx, "idx={idx} lo={lo}");
            if lo > 0 {
                assert!(bucket_index(lo - 1) == idx - 1, "idx={idx} lo={lo}");
            }
            let mid = bucket_mid(idx);
            assert_eq!(bucket_index(mid), idx, "midpoint must stay in bucket");
        }
    }

    #[test]
    fn quantiles_within_relative_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.max, 10_000);
        for (q, est) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
            let truth = (q * 10_000f64) as u64;
            let err = (est as f64 - truth as f64).abs() / truth as f64;
            assert!(err < 0.125, "q={q} est={est} truth={truth} err={err}");
        }
        assert_eq!(s.mean(), s.sum / s.count);
    }

    #[test]
    fn empty_and_single_sample() {
        let h = Histogram::new();
        assert_eq!(h.summary(), Summary::default());
        h.record(7);
        let s = h.summary();
        assert_eq!((s.count, s.p50, s.p99, s.max), (1, 7, 7, 7));
        h.record(0);
        assert_eq!(h.summary().count, 2);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert!(s.p50 <= s.p99);
    }

    #[test]
    fn registry_dedupes_names() {
        let mut reg = Registry::new();
        let a = reg.histogram("x");
        let b = reg.histogram("x");
        let c = reg.histogram("y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        reg.get(a).record(3);
        let sums = reg.summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].0, "x");
        assert_eq!(sums[0].1.count, 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.summary().count, 4000);
    }
}
