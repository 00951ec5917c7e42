//! Framework configuration and errors.

use std::fmt;

use mbqc_compiler::{CompileError, CompilerConfig};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_partition::AdaptiveConfig;
use mbqc_schedule::BdirConfig;
use mbqc_util::codec::{CodecError, Decoder};
use mbqc_util::Encoder;

/// One stage task of a job, in pipeline order. `Transpile` also acts
/// as the job's planning step in executors: it probes the artifact
/// cache for the finished schedule and skips the rest of the pipeline
/// on a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageKind {
    /// Flow verification + placement-order derivation.
    Transpile,
    /// Adaptive graph partitioning (Algorithm 2).
    Partition,
    /// Per-QPU grid compilation.
    Map,
    /// Layer scheduling (list scheduling + BDIR).
    Schedule,
}

impl StageKind {
    /// All stages in pipeline order.
    pub const ALL: [StageKind; 4] = [
        StageKind::Transpile,
        StageKind::Partition,
        StageKind::Map,
        StageKind::Schedule,
    ];

    /// Human-readable stage name, used by telemetry events, trace
    /// export, and stats tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Transpile => "transpile",
            StageKind::Partition => "partition",
            StageKind::Map => "map",
            StageKind::Schedule => "schedule",
        }
    }

    /// Position of this stage in [`StageKind::ALL`] — the index used by
    /// per-stage stats arrays (e.g. `ServiceStats::stage_latency` in
    /// `mbqc-service`).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Configuration of the full DC-MBQC pipeline.
///
/// Defaults follow the paper's evaluation setup (Section V-A):
/// adaptive partitioning with `ε_Q = 0.01`, `γ = 1.02`, `α_max = 1.5`;
/// BDIR with `T₀ = 10`, cooling `0.95`, `I_max = 20`.
///
/// # Examples
///
/// ```
/// use dc_mbqc::DcMbqcConfig;
/// use mbqc_hardware::DistributedHardware;
///
/// let hw = DistributedHardware::builder().num_qpus(8).build();
/// let cfg = DcMbqcConfig::new(hw).without_bdir();
/// assert!(cfg.bdir.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct DcMbqcConfig {
    /// Target hardware.
    pub hardware: DistributedHardware,
    /// Adaptive partitioning parameters (Algorithm 2); `k` is always
    /// overridden with the hardware's QPU count.
    pub adaptive: AdaptiveConfig,
    /// BDIR parameters (Algorithm 3); `None` runs list scheduling only
    /// (the "DC-MBQC (Core)" configuration of Figure 10).
    pub bdir: Option<BdirConfig>,
    /// OneAdapt-style dynamic refresh bound for the per-QPU compiler.
    pub refresh_interval: Option<usize>,
    /// Reserve each QPU's grid perimeter as communication interface
    /// (Table V protocol).
    pub boundary_reservation: bool,
    /// Master seed: derives partitioning, mapping, and scheduling seeds.
    pub seed: u64,
}

impl DcMbqcConfig {
    /// Paper-default configuration for the given hardware.
    #[must_use]
    pub fn new(hardware: DistributedHardware) -> Self {
        Self {
            adaptive: AdaptiveConfig::new(hardware.num_qpus()),
            hardware,
            bdir: Some(BdirConfig::default()),
            refresh_interval: None,
            boundary_reservation: false,
            seed: 42,
        }
    }

    /// The per-QPU grid-mapper configuration this pipeline config
    /// implies, for the given mapping seed.
    #[must_use]
    pub fn mapper_config(&self, seed: u64) -> CompilerConfig {
        let mut cfg =
            CompilerConfig::new(self.hardware.grid_width(), self.hardware.resource_state())
                .with_seed(seed)
                .with_boundary_reservation(self.boundary_reservation);
        if let Some(d) = self.refresh_interval {
            cfg = cfg.with_refresh(d);
        }
        cfg
    }

    /// Disables the BDIR pass (list scheduling only).
    #[must_use]
    pub fn without_bdir(mut self) -> Self {
        self.bdir = None;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables OneAdapt-style dynamic refresh in the per-QPU compiler.
    #[must_use]
    pub fn with_refresh(mut self, interval: usize) -> Self {
        self.refresh_interval = Some(interval);
        self
    }

    /// Enables boundary reservation on every QPU grid.
    #[must_use]
    pub fn with_boundary_reservation(mut self, on: bool) -> Self {
        self.boundary_reservation = on;
        self
    }

    /// Sets the maximum imbalance factor `α_max` of the partitioner
    /// (the Figure 9 sweep).
    #[must_use]
    pub fn with_alpha_max(mut self, alpha_max: f64) -> Self {
        self.adaptive.alpha_max = alpha_max;
        self
    }

    /// No-op, kept for callers that still name it: the partitioner runs
    /// on its caller's thread, so there is no restart-probe worker count
    /// to set.
    #[must_use]
    pub fn with_probe_workers(self, _workers: usize) -> Self {
        self
    }

    /// No-op, kept for callers that still name it: batches compile on
    /// `mbqc-service`'s `CompileService`, so there is no batch worker
    /// count to set.
    #[must_use]
    pub fn with_batch_workers(self, _workers: usize) -> Self {
        self
    }

    /// A stable byte rendering of every configuration field that can
    /// influence the compiled schedule — the configuration half of the
    /// content-addressed artifact keys in `mbqc-service`.
    ///
    /// `adaptive.k` and `adaptive.seed` are excluded: the pipeline
    /// overrides them with the hardware's QPU count and the master
    /// seed. Everything else is included so a future stage change
    /// cannot silently serve stale artifacts. The leading tag byte (2)
    /// and the field order are frozen so cache keys never shift.
    #[must_use]
    pub fn fingerprint_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(2);
        // Partitioning.
        e.u64(self.seed);
        e.usize(self.hardware.num_qpus());
        e.f64(self.adaptive.epsilon_q);
        e.f64(self.adaptive.gamma);
        e.f64(self.adaptive.alpha_max);
        e.usize(self.adaptive.max_iters);
        // Mapping.
        e.usize(self.hardware.grid_width());
        let (tag, photons) = match self.hardware.resource_state() {
            ResourceStateKind::Ring(p) => (0u8, p),
            ResourceStateKind::Star(p) => (1u8, p),
        };
        e.u8(tag);
        e.usize(photons);
        e.bool(self.boundary_reservation);
        e.opt_usize(self.refresh_interval);
        // Scheduling.
        e.usize(self.hardware.kmax());
        // Reserved byte, always 0: still written so cache keys do not
        // shift.
        e.u8(0);
        match &self.bdir {
            Some(b) => {
                e.bool(true);
                e.f64(b.t0);
                e.f64(b.cooling);
                e.usize(b.max_iters);
                // b.seed is overridden with the master seed.
            }
            None => e.bool(false),
        }
        e.into_bytes()
    }

    /// Serializes the complete configuration for the wire (see
    /// `mbqc-net`), covering *every* field, because a remote client's
    /// request must reproduce the exact config an in-process caller
    /// would have passed. Two reserved `u64` slots, always written as
    /// `0`, held the old restart-probe and batch worker counts; they
    /// keep the wire layout unchanged.
    ///
    /// This is distinct from [`DcMbqcConfig::fingerprint_bytes`],
    /// which deliberately omits result-neutral fields and stays frozen
    /// so cache keys never shift.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        // Hardware: the four builder fields determine the value.
        e.usize(self.hardware.num_qpus());
        e.usize(self.hardware.grid_width());
        let (tag, photons) = match self.hardware.resource_state() {
            ResourceStateKind::Ring(p) => (0u8, p),
            ResourceStateKind::Star(p) => (1u8, p),
        };
        e.u8(tag);
        e.usize(photons);
        e.usize(self.hardware.kmax());
        // Reserved topology byte, always 0 (QPUs are fully connected).
        e.u8(0);
        // Adaptive partitioning.
        e.usize(self.adaptive.k);
        e.f64(self.adaptive.epsilon_q);
        e.f64(self.adaptive.gamma);
        e.f64(self.adaptive.alpha_max);
        e.u64(self.adaptive.seed);
        e.usize(self.adaptive.max_iters);
        // Reserved slot (the old restart-probe worker count), always 0.
        e.u64(0);
        // BDIR.
        match &self.bdir {
            Some(b) => {
                e.bool(true);
                e.f64(b.t0);
                e.f64(b.cooling);
                e.usize(b.max_iters);
                e.u64(b.seed);
            }
            None => e.bool(false),
        }
        // Pipeline scalars.
        e.opt_usize(self.refresh_interval);
        e.bool(self.boundary_reservation);
        e.u64(self.seed);
        // Reserved slot (the old batch worker count), always 0.
        e.u64(0);
        e.into_bytes()
    }

    /// Decodes a configuration written by [`DcMbqcConfig::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or an unknown enum tag.
    /// Decoded values round-trip exactly: f64 fields by bit pattern,
    /// so stage fingerprints — and therefore cache keys — agree with
    /// the sender's. The two reserved worker-count slots are read and
    /// ignored: worker counts never changed results, so a peer that
    /// still sends one decodes to the same configuration.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let num_qpus = d.usize()?;
        let grid_width = d.usize()?;
        let rs_tag = d.u8()?;
        let photons = d.usize()?;
        let resource_state = match rs_tag {
            0 => ResourceStateKind::Ring(photons),
            1 => ResourceStateKind::Star(photons),
            _ => return Err(CodecError::Invalid("resource state tag")),
        };
        let kmax = d.usize()?;
        // The reserved topology byte: a peer that still sends a line or
        // ring tag gets a typed error, not a silently different config.
        if d.u8()? != 0 {
            return Err(CodecError::Invalid("topology tag"));
        }
        // The builder panics on zero parameters; these bytes may come
        // from an untrusted peer, so pre-validate into a typed error.
        if num_qpus == 0 || grid_width == 0 || kmax == 0 || photons == 0 {
            return Err(CodecError::Invalid("hardware parameter must be positive"));
        }
        let hardware = DistributedHardware::builder()
            .num_qpus(num_qpus)
            .grid_width(grid_width)
            .resource_state(resource_state)
            .kmax(kmax)
            .build();
        let adaptive = AdaptiveConfig {
            k: d.usize()?,
            epsilon_q: d.f64()?,
            gamma: d.f64()?,
            alpha_max: d.f64()?,
            seed: d.u64()?,
            max_iters: d.usize()?,
        };
        let _reserved_probe_workers = d.u64()?;
        let bdir = if d.bool()? {
            Some(BdirConfig {
                t0: d.f64()?,
                cooling: d.f64()?,
                max_iters: d.usize()?,
                seed: d.u64()?,
            })
        } else {
            None
        };
        let refresh_interval = d.opt_usize()?;
        let boundary_reservation = d.bool()?;
        let seed = d.u64()?;
        let _reserved_batch_workers = d.u64()?;
        d.finish()?;
        Ok(Self {
            hardware,
            adaptive,
            bdir,
            refresh_interval,
            boundary_reservation,
            seed,
        })
    }
}

/// Errors of the DC-MBQC pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DcMbqcError {
    /// A per-QPU compilation failed.
    Compile {
        /// QPU whose subprogram failed (`None` for the baseline).
        qpu: Option<usize>,
        /// Underlying mapper error.
        source: CompileError,
    },
    /// The pattern has no causal flow (cannot order placements).
    NoFlow,
}

impl fmt::Display for DcMbqcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcMbqcError::Compile {
                qpu: Some(q),
                source,
            } => {
                write!(f, "compilation failed on QPU {q}: {source}")
            }
            DcMbqcError::Compile { qpu: None, source } => {
                write!(f, "baseline compilation failed: {source}")
            }
            DcMbqcError::NoFlow => write!(f, "pattern has no causal flow"),
        }
    }
}

impl std::error::Error for DcMbqcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DcMbqcError::Compile { source, .. } => Some(source),
            DcMbqcError::NoFlow => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let hw = DistributedHardware::builder().num_qpus(4).build();
        let cfg = DcMbqcConfig::new(hw);
        assert_eq!(cfg.adaptive.k, 4);
        assert!((cfg.adaptive.epsilon_q - 0.01).abs() < 1e-12);
        assert!((cfg.adaptive.gamma - 1.02).abs() < 1e-12);
        assert!((cfg.adaptive.alpha_max - 1.5).abs() < 1e-12);
        let b = cfg.bdir.unwrap();
        assert!((b.t0 - 10.0).abs() < 1e-12);
        assert!((b.cooling - 0.95).abs() < 1e-12);
        assert_eq!(b.max_iters, 20);
    }

    #[test]
    fn builder_methods() {
        let hw = DistributedHardware::builder().build();
        let cfg = DcMbqcConfig::new(hw)
            .with_seed(7)
            .with_refresh(20)
            .with_boundary_reservation(true)
            .with_alpha_max(2.0);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.refresh_interval, Some(20));
        assert!(cfg.boundary_reservation);
        assert!((cfg.adaptive.alpha_max - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stage_fingerprints_scope_config_fields() {
        let hw = DistributedHardware::builder().num_qpus(4).build();
        let base = DcMbqcConfig::new(hw);
        // A knob of any stage changes the one fingerprint: the seed
        // (partitioning), refresh (mapping) and BDIR (scheduling).
        for changed in [
            base.clone().with_seed(7),
            base.clone().with_refresh(4),
            base.clone().without_bdir(),
        ] {
            assert_ne!(base.fingerprint_bytes(), changed.fingerprint_bytes());
        }
        // The fields the pipeline overrides are out of scope.
        let mut overridden = base.clone();
        overridden.adaptive.k = 9;
        overridden.adaptive.seed = 9;
        assert_eq!(base.fingerprint_bytes(), overridden.fingerprint_bytes());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn stage_fingerprint_bytes_are_pinned() {
        // Every artifact cache key is built from these bytes, so they
        // must never shift (the reserved topology byte included).
        let paper = DcMbqcConfig::new(DistributedHardware::builder().num_qpus(8).build());
        let hw = DistributedHardware::builder()
            .num_qpus(3)
            .grid_width(9)
            .resource_state(ResourceStateKind::Ring(6))
            .kmax(2)
            .build();
        let tuned = DcMbqcConfig::new(hw)
            .with_seed(99)
            .with_refresh(5)
            .with_boundary_reservation(true)
            .with_alpha_max(2.5)
            .without_bdir();
        // The tag byte 2 is the one the schedule key always wrote.
        let pins = [
            (
                &paper,
                "022a0000000000000008000000000000007b14ae47e17a843f52b81e85eb51f03f000000000000f83f400000000000000007000000000000000105000000000000000000040000000000000000010000000000002440666666666666ee3f1400000000000000",
            ),
            (
                &tuned,
                "02630000000000000003000000000000007b14ae47e17a843f52b81e85eb51f03f0000000000000440400000000000000009000000000000000006000000000000000101050000000000000002000000000000000000",
            ),
        ];
        for (cfg, want) in pins {
            assert_eq!(hex(&cfg.fingerprint_bytes()), want);
        }
    }

    #[test]
    fn wire_codec_round_trips() {
        let hw = DistributedHardware::builder()
            .num_qpus(3)
            .grid_width(9)
            .resource_state(ResourceStateKind::Ring(6))
            .kmax(2)
            .build();
        let cfg = DcMbqcConfig::new(hw)
            .with_seed(99)
            .with_refresh(5)
            .with_boundary_reservation(true)
            .with_alpha_max(2.5);
        let back = DcMbqcConfig::from_bytes(&cfg.to_bytes()).unwrap();
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.refresh_interval, cfg.refresh_interval);
        assert_eq!(back.boundary_reservation, cfg.boundary_reservation);
        assert_eq!(back.adaptive, cfg.adaptive);
        assert_eq!(back.to_bytes(), cfg.to_bytes());
        assert_eq!(back.hardware.num_qpus(), 3);
        assert_eq!(back.hardware.grid_width(), 9);
        assert_eq!(back.hardware.resource_state(), ResourceStateKind::Ring(6));
        assert_eq!(back.hardware.kmax(), 2);
        // The decoded config keys into the same cache entries.
        assert_eq!(back.fingerprint_bytes(), cfg.fingerprint_bytes());
        // No-BDIR configurations round-trip too.
        let no_bdir = cfg.without_bdir();
        assert!(DcMbqcConfig::from_bytes(&no_bdir.to_bytes())
            .unwrap()
            .bdir
            .is_none());
    }

    /// The wire layout of a peer that still sends worker counts: the
    /// restart-probe count after `adaptive.max_iters`, the batch count
    /// last.
    fn bytes_with_worker_counts(cfg: &DcMbqcConfig, probe: u64, batch: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        e.usize(cfg.hardware.num_qpus());
        e.usize(cfg.hardware.grid_width());
        let ResourceStateKind::Ring(photons) = cfg.hardware.resource_state() else {
            panic!("test config uses a ring resource state");
        };
        e.u8(0);
        e.usize(photons);
        e.usize(cfg.hardware.kmax());
        e.u8(0);
        e.usize(cfg.adaptive.k);
        e.f64(cfg.adaptive.epsilon_q);
        e.f64(cfg.adaptive.gamma);
        e.f64(cfg.adaptive.alpha_max);
        e.u64(cfg.adaptive.seed);
        e.usize(cfg.adaptive.max_iters);
        e.u64(probe);
        let b = cfg.bdir.as_ref().expect("test config runs BDIR");
        e.bool(true);
        e.f64(b.t0);
        e.f64(b.cooling);
        e.usize(b.max_iters);
        e.u64(b.seed);
        e.opt_usize(cfg.refresh_interval);
        e.bool(cfg.boundary_reservation);
        e.u64(cfg.seed);
        e.u64(batch);
        e.into_bytes()
    }

    #[test]
    fn wire_codec_ignores_reserved_worker_count_slots() {
        let hw = DistributedHardware::builder()
            .num_qpus(3)
            .grid_width(9)
            .resource_state(ResourceStateKind::Ring(6))
            .kmax(2)
            .build();
        let cfg = DcMbqcConfig::new(hw).with_seed(99).with_refresh(5);
        // The reserved slots are written as 0 and the layout is unchanged.
        assert_eq!(cfg.to_bytes(), bytes_with_worker_counts(&cfg, 0, 0));
        let back = DcMbqcConfig::from_bytes(&bytes_with_worker_counts(&cfg, 3, 2)).unwrap();
        assert_eq!(back.fingerprint_bytes(), cfg.fingerprint_bytes());
        assert_eq!(back.to_bytes(), cfg.to_bytes());
    }

    #[test]
    fn wire_codec_rejects_line_and_ring_topology_tags() {
        let bytes = DcMbqcConfig::new(DistributedHardware::builder().build()).to_bytes();
        // num_qpus, grid_width, resource tag, photons, kmax: the topology
        // byte follows at offset 33.
        assert_eq!(bytes[33], 0);
        for tag in [1u8, 2] {
            let mut old_peer = bytes.clone();
            old_peer[33] = tag;
            assert_eq!(
                DcMbqcConfig::from_bytes(&old_peer).unwrap_err(),
                CodecError::Invalid("topology tag")
            );
        }
    }

    #[test]
    fn wire_codec_rejects_hostile_bytes() {
        let hw = DistributedHardware::builder().build();
        let bytes = DcMbqcConfig::new(hw).to_bytes();
        assert!(DcMbqcConfig::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(DcMbqcConfig::from_bytes(&[]).is_err());
        // Zeroed hardware parameters are a typed error, not a panic.
        let mut zeroed = bytes.clone();
        zeroed[..8].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            DcMbqcConfig::from_bytes(&zeroed).unwrap_err(),
            CodecError::Invalid("hardware parameter must be positive")
        );
        // An unknown enum tag is rejected.
        let mut bad_tag = bytes;
        bad_tag[16] = 9;
        assert!(DcMbqcConfig::from_bytes(&bad_tag).is_err());
    }

    #[test]
    fn error_display_and_source() {
        let e = DcMbqcError::Compile {
            qpu: Some(2),
            source: CompileError::EmptyGrid,
        };
        assert!(e.to_string().contains("QPU 2"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(DcMbqcError::NoFlow.to_string().contains("causal flow"));
    }
}
