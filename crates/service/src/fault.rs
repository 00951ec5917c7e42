//! Deterministic, seeded fault injection for the service.
//!
//! A [`FaultPlan`] is threaded through the
//! [`ArtifactStore`](crate::ArtifactStore) and the stage-task
//! executor and decides, at every injection site, whether
//! that operation fails:
//!
//! * **disk read / write IO errors** — the store's unlocked
//!   `std::fs::read` / atomic-write calls report an injected
//!   [`std::io::Error`] instead of running, exercising the miss
//!   degradation and the disk-tier circuit breaker;
//! * **artifact byte corruption** — a bit of the encoded artifact is
//!   flipped before it reaches the disk file, exercising the
//!   checksum-verified read path (a corrupt artifact must serve a
//!   miss, never decode);
//! * **task panics** — a stage task panics with an [`InjectedFault`]
//!   payload at its boundary, exercising retry classification, the
//!   worker's workspace replacement, and poison-free locking;
//! * **stage delays** — a task sleeps a few hundred microseconds
//!   before running, perturbing worker interleavings without touching
//!   results.
//!
//! Decisions are a pure function of `(seed, site, draw index)` — the
//! SplitMix64 finalizer over a per-site draw counter — so a plan is
//! reproducible: the k-th draw at a site always lands the same way for
//! a given seed. (Which *operation* receives the k-th draw depends on
//! worker interleaving; with one worker the whole run is
//! deterministic.) The injected failures themselves are exactly the
//! failures the recovery machinery is built for, which is why the
//! chaos determinism matrix can demand bit-identical results from
//! every surviving job regardless of the plan.
//!
//! Everything here is gated on the `fault-inject` cargo feature. With
//! the feature off (the default), [`FaultPlan`] is a unit stub whose
//! probes are constant `false`/`None` — the injection sites compile to
//! nothing and production builds carry zero overhead. The
//! [`FaultConfig`] type and the [`FaultPlan`] API exist in both modes
//! so callers never need `cfg` guards.

use std::time::Duration;

use dc_mbqc::StageKind;

/// Per-site fault probabilities plus the seed that makes them
/// deterministic. All probabilities default to 0 (no faults); a
/// default-constructed plan is equivalent to no plan at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the per-site decision streams.
    pub seed: u64,
    /// P(an eligible disk read reports an injected IO error).
    pub disk_read_error: f64,
    /// P(an eligible disk write reports an injected IO error).
    pub disk_write_error: f64,
    /// P(one bit of an artifact's encoded bytes is flipped before the
    /// bytes reach the disk file).
    pub disk_corrupt: f64,
    /// P(a stage task panics at its boundary with an
    /// [`InjectedFault`] payload).
    pub task_panic: f64,
    /// P(a stage task sleeps [`FaultConfig::delay`] before running).
    pub stage_delay: f64,
    /// Duration of an injected stage delay.
    pub delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            disk_read_error: 0.0,
            disk_write_error: 0.0,
            disk_corrupt: 0.0,
            task_panic: 0.0,
            stage_delay: 0.0,
            delay: Duration::from_micros(200),
        }
    }
}

/// The panic payload of an injected task panic. Public so
/// `panic_message` (and tests) can downcast it and render it with its
/// type name — exactly the `panic_any` rendering path the service's
/// error reporting must handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The stage task that was panicked.
    pub stage: StageKind,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault in {:?} task", self.stage)
    }
}

#[cfg(feature = "fault-inject")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use dc_mbqc::StageKind;

    use super::{FaultConfig, InjectedFault};

    /// One decision stream per injection site.
    #[derive(Debug, Clone, Copy)]
    enum Site {
        DiskRead,
        DiskWrite,
        Corrupt,
        CorruptPosition,
        Panic,
        Delay,
    }

    const SITES: usize = 6;

    #[derive(Debug)]
    struct Inner {
        config: FaultConfig,
        draws: [AtomicU64; SITES],
    }

    /// A seeded, deterministic fault plan (see the [module
    /// docs](super)). Clones share the plan's draw counters, so the
    /// store and the executors consume one decision stream per site no
    /// matter how the plan is threaded through.
    #[derive(Debug, Clone, Default)]
    pub struct FaultPlan {
        inner: Option<Arc<Inner>>,
    }

    /// The SplitMix64 output finalizer: a strong 64-bit bijective
    /// mixer (same construction as `mbqc_util::fingerprint`).
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl FaultPlan {
        /// A plan that injects faults per `config`. A config with all
        /// probabilities 0 still draws (deterministically) but never
        /// fires.
        #[must_use]
        pub fn new(config: FaultConfig) -> Self {
            Self {
                inner: Some(Arc::new(Inner {
                    config,
                    draws: Default::default(),
                })),
            }
        }

        /// The inert plan: injects nothing.
        #[must_use]
        pub fn none() -> Self {
            Self::default()
        }

        /// `true` when this plan can inject anything at all.
        #[must_use]
        pub fn is_active(&self) -> bool {
            self.inner.is_some()
        }

        /// Draws the site's next decision: a pure function of
        /// `(seed, site, draw index)`.
        fn draw(&self, site: Site) -> Option<u64> {
            let inner = self.inner.as_ref()?;
            let n = inner.draws[site as usize].fetch_add(1, Ordering::Relaxed);
            Some(mix(inner
                .config
                .seed
                .wrapping_add((site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(n.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))))
        }

        fn roll(&self, site: Site, p: f64) -> bool {
            if p <= 0.0 {
                return false;
            }
            match self.draw(site) {
                Some(h) => (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p,
                None => false,
            }
        }

        /// Should the next eligible disk read fail with an injected IO
        /// error?
        #[must_use]
        pub fn disk_read_error(&self) -> bool {
            let p = self
                .inner
                .as_ref()
                .map_or(0.0, |i| i.config.disk_read_error);
            self.roll(Site::DiskRead, p)
        }

        /// Should the next eligible disk write fail with an injected
        /// IO error?
        #[must_use]
        pub fn disk_write_error(&self) -> bool {
            let p = self
                .inner
                .as_ref()
                .map_or(0.0, |i| i.config.disk_write_error);
            self.roll(Site::DiskWrite, p)
        }

        /// Maybe flips one (deterministically chosen) bit of `bytes`.
        /// Returns `true` when a bit was flipped.
        pub fn corrupt(&self, bytes: &mut [u8]) -> bool {
            let p = self.inner.as_ref().map_or(0.0, |i| i.config.disk_corrupt);
            if bytes.is_empty() || !self.roll(Site::Corrupt, p) {
                return false;
            }
            let Some(h) = self.draw(Site::CorruptPosition) else {
                return false;
            };
            let bit = h as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            true
        }

        /// Panics with an [`InjectedFault`] payload when the plan says
        /// this task fails. Must be called inside the executor's
        /// `catch_unwind`.
        pub fn maybe_panic(&self, stage: StageKind) {
            let p = self.inner.as_ref().map_or(0.0, |i| i.config.task_panic);
            if self.roll(Site::Panic, p) {
                std::panic::panic_any(InjectedFault { stage });
            }
        }

        /// The injected delay for the next task, if any.
        #[must_use]
        pub fn injected_delay(&self) -> Option<Duration> {
            let inner = self.inner.as_ref()?;
            self.roll(Site::Delay, inner.config.stage_delay)
                .then_some(inner.config.delay)
        }
    }
}

#[cfg(not(feature = "fault-inject"))]
mod imp {
    use std::time::Duration;

    use dc_mbqc::StageKind;

    use super::FaultConfig;

    /// The no-op stub compiled without the `fault-inject` feature:
    /// every probe is a constant, so the injection sites in the store
    /// and the executors compile to nothing. See the [module
    /// docs](super). Deliberately `Clone` but not `Copy`, matching the
    /// real plan — callers `.clone()` identically in both builds.
    #[derive(Debug, Clone, Default)]
    pub struct FaultPlan;

    impl FaultPlan {
        /// Accepts (and ignores) a config — enable the `fault-inject`
        /// feature to make plans take effect.
        #[must_use]
        pub fn new(_config: FaultConfig) -> Self {
            Self
        }

        /// The inert plan (identical to every other stub plan).
        #[must_use]
        pub fn none() -> Self {
            Self
        }

        /// Always `false` without the `fault-inject` feature.
        #[must_use]
        pub fn is_active(&self) -> bool {
            false
        }

        /// Never fires.
        #[must_use]
        pub fn disk_read_error(&self) -> bool {
            false
        }

        /// Never fires.
        #[must_use]
        pub fn disk_write_error(&self) -> bool {
            false
        }

        /// Never flips anything.
        pub fn corrupt(&self, _bytes: &mut [u8]) -> bool {
            false
        }

        /// Never panics.
        pub fn maybe_panic(&self, _stage: StageKind) {}

        /// Never delays.
        #[must_use]
        pub fn injected_delay(&self) -> Option<Duration> {
            None
        }
    }
}

pub use imp::FaultPlan;

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_per_seed() {
        let take = |plan: &FaultPlan, n: usize| -> Vec<bool> {
            (0..n).map(|_| plan.disk_read_error()).collect()
        };
        let config = FaultConfig {
            seed: 7,
            disk_read_error: 0.5,
            ..FaultConfig::default()
        };
        let a = take(&FaultPlan::new(config), 64);
        let b = take(&FaultPlan::new(config), 64);
        assert_eq!(a, b, "same seed, same decision stream");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
        let c = take(&FaultPlan::new(FaultConfig { seed: 8, ..config }), 64);
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn clones_share_one_decision_stream() {
        let config = FaultConfig {
            seed: 3,
            task_panic: 1.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(config);
        let clone = plan.clone();
        // Both handles draw from the same counters: every draw fires
        // at p = 1 regardless of which clone draws it.
        for p in [&plan, &clone, &plan] {
            let caught = std::panic::catch_unwind(|| p.maybe_panic(dc_mbqc::StageKind::Map));
            assert!(caught.is_err());
        }
    }

    #[test]
    fn probabilities_zero_and_one_are_exact() {
        let never = FaultPlan::new(FaultConfig {
            seed: 1,
            ..FaultConfig::default()
        });
        let always = FaultPlan::new(FaultConfig {
            seed: 1,
            disk_read_error: 1.0,
            disk_write_error: 1.0,
            disk_corrupt: 1.0,
            stage_delay: 1.0,
            ..FaultConfig::default()
        });
        for _ in 0..32 {
            assert!(!never.disk_read_error());
            assert!(!never.disk_write_error());
            assert!(never.injected_delay().is_none());
            assert!(always.disk_read_error());
            assert!(always.disk_write_error());
            assert!(always.injected_delay().is_some());
        }
        let mut bytes = vec![0u8; 16];
        assert!(!never.corrupt(&mut bytes));
        assert_eq!(bytes, vec![0u8; 16]);
        assert!(always.corrupt(&mut bytes));
        assert_eq!(
            bytes.iter().map(|b| b.count_ones()).sum::<u32>(),
            1,
            "exactly one bit flipped"
        );
    }

    #[test]
    fn inert_plans_never_fire() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert!(!plan.disk_read_error());
        plan.maybe_panic(dc_mbqc::StageKind::Schedule);
    }
}
