//! The content-addressed stage-artifact store.
//!
//! Every pipeline stage output is stored under an [`ArtifactKey`]: the
//! canonical bytes of `(stage, stage-scoped config fingerprint, pattern
//! content)`. Lookups compare the *full key bytes*, never just a hash,
//! so a hit is guaranteed to be the artifact of exactly this input —
//! the 128-bit [`Fingerprint`] only names disk files and buckets the
//! in-memory map.
//!
//! Two tiers:
//!
//! * an in-memory LRU bounded by a byte budget (intrusive list over a
//!   slab; O(1) get/insert/evict), and
//! * an optional on-disk tier (hot artifacts as one loose file each,
//!   written via temp-file + rename; cold artifacts packed into
//!   append-once *segment files*) giving persistence and warm
//!   restarts. Disk reads verify the embedded key *and* a content
//!   checksum (a [`Fingerprint`] over the framed key + value);
//!   [`ArtifactStore::get`] promotes the artifact back into the memory
//!   tier, while [`ArtifactStore::get_ref`] serves a zero-copy
//!   [`ArtifactBytes`] straight off a read-only memory mapping. Every
//!   disk failure degrades to a cache miss, never an error, and a file
//!   that fails verification is deleted on detection (it can never
//!   verify again, so keeping it would cost a failed decode per
//!   lookup). The tier is bounded too: an optional byte budget evicts
//!   least-recently-accessed artifacts
//!   ([`StoreConfig::disk_capacity`]) and an optional TTL expires
//!   artifacts by age ([`StoreConfig::disk_ttl`]).
//!
//! **Segments and compaction.** Once
//! [`StoreConfig::segment_threshold`] loose files accumulate, the
//! coldest are packed into one `seg-N.seg` file — a sequence of
//! `[u64 length][frame]` records whose frames are byte-identical to
//! the loose files they replace, so every checksum carries over
//! verbatim. Millions of small files is an ops problem and a syscall
//! tax; a segment costs one file handle and one mapping for hundreds
//! of artifacts. As segment entries are evicted or invalidated the
//! segment's live fraction drops; below
//! [`StoreConfig::segment_gc_fraction`] the survivors are rewritten as
//! loose files and the segment is deleted (a segment with no live
//! entries is deleted outright). Compaction and GC perform their I/O
//! under the disk-tier lock — the one documented exception to the
//! lock–I/O–lock discipline below, accepted because both are rare,
//! batch-sized maintenance operations.
//!
//! **Crash-safe manifest.** Every index mutation is appended to a
//! checksummed `manifest.log` (the same framed-fingerprint machinery
//! the artifact files use), so a restart replays one sequential file
//! — entries, sizes, write times, segment layout, and the *recorded
//! access order* — instead of an O(files) directory rescan with a
//! per-file `stat` for modification times. A missing, torn, or
//! otherwise unparseable manifest self-heals: the store falls back to
//! the legacy directory scan (recency from file mtimes, whose
//! one-second granularity can reorder same-second entries — the
//! manifest's recorded order has no such quantization) and rewrites a
//! fresh manifest. The scan adopts *loose* files only and deletes
//! segment files outright: segments are append-only, so a
//! clean-checksumming frame may still be dead — superseded or
//! deleted after packing — and only the manifest records liveness;
//! adopting such a frame could serve a stale value. Dropping cold
//! packed artifacts on this rare path is an ordinary cache miss.
//! Appends are best-effort and never fsynced: a lost
//! record at worst resurrects a deleted entry (healed by the next
//! lookup's NotFound) or forgets a live one (re-adopted by the next
//! lookup), both safe because artifacts are recomputable. After a
//! clean replay only a names-only directory sweep runs (stale temp
//! files, orphan adoption) — no per-file stats.
//!
//! The disk tier sits behind a **circuit breaker**: after
//! [`StoreConfig::disk_error_threshold`] *consecutive* IO errors
//! (reads or writes — corrupt-but-readable files don't count, the
//! disk answered) the tier is quarantined and the store runs
//! memory-only, so a dead disk costs one error burst instead of an
//! error per artifact. Every [`StoreConfig::disk_probe_interval`] one
//! operation is let through as a probe; the first success closes the
//! breaker and the tier resumes. Quarantine state and counts are
//! surfaced in [`StoreStats`].
//!
//! A small **negative cache** ([`StoreConfig::negative_capacity`])
//! remembers keys the disk tier just answered *absent* for (NotFound,
//! corrupt-and-deleted, expired), so a burst of lookups for a key that
//! is being compiled right now costs one disk probe, not one per
//! lookup. IO errors and quarantine skips are never negative-cached —
//! the disk did not answer — and every [`ArtifactStore::put`]
//! invalidates the key's negative entry.
//!
//! Two integrity properties hold under job-lifecycle churn
//! (property-tested in `tests/proptest_service.rs` and
//! `tests/proptest_lifecycle.rs`): a key-verified read never observes
//! a torn write — atomic rename plus full-key comparison turn any
//! partial/abandoned write (a cancelled or killed writer's stale temp
//! file, a truncated artifact) into a miss, and restarts sweep the
//! leftovers — and the store only ever holds artifacts a non-cancelled
//! job's task published: the executor gates every [`ArtifactStore::put`]
//! on the job's cancellation flag at the task boundary (see
//! [`crate::executor`]), so a cancelled job contributes nothing.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

use dc_mbqc::PipelineStage;
use mbqc_util::codec::{Decoder, Encoder};
use mbqc_util::sync::lock;
use mbqc_util::{Fingerprint, MappedBytes};

use crate::fault::FaultPlan;
use crate::telemetry::{EventKind, TelemetryHub};

/// A content-addressed cache key: canonical bytes of
/// `(stage, config fingerprint, pattern content)`. The stage is the
/// pipeline's own [`PipelineStage`] — the artifact stored under
/// `Partition` is a `Partition`, under `Map` a partition plus per-QPU
/// programs, under `Schedule` a full `DistributedSchedule`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey(Vec<u8>);

impl ArtifactKey {
    /// Builds the key for `stage` from the stage-scoped configuration
    /// fingerprint bytes and the pattern's content bytes.
    #[must_use]
    pub fn new(stage: PipelineStage, config_bytes: &[u8], pattern_bytes: &[u8]) -> Self {
        let mut e = Encoder::new();
        e.u8(match stage {
            PipelineStage::Partition => 0,
            PipelineStage::Map => 1,
            PipelineStage::Schedule => 2,
        });
        e.bytes(config_bytes);
        e.bytes(pattern_bytes);
        Self(e.into_bytes())
    }

    /// The 128-bit fingerprint naming this key's disk file.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.0)
    }

    fn bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Byte budget of the in-memory LRU tier (keys + values).
    pub memory_capacity: usize,
    /// Directory of the on-disk tier; `None` disables it.
    pub disk_dir: Option<PathBuf>,
    /// Byte budget of the on-disk tier (file sizes, i.e. keys +
    /// values + framing); `None` leaves it unbounded. When the budget
    /// would be exceeded, least-recently-accessed artifacts are
    /// deleted first; an artifact larger than the whole budget is not
    /// written at all.
    pub disk_capacity: Option<usize>,
    /// Age bound for disk artifacts, measured from their last write;
    /// expired artifacts read as misses and are deleted lazily.
    /// `None` disables expiry.
    pub disk_ttl: Option<Duration>,
    /// Circuit breaker: consecutive disk IO errors (reads or writes)
    /// before the disk tier is quarantined into memory-only degraded
    /// mode. `u32::MAX` effectively disables the breaker.
    pub disk_error_threshold: u32,
    /// How often a quarantined disk tier lets one operation through as
    /// a recovery probe (the first success closes the breaker).
    /// `Duration::ZERO` probes on every operation.
    pub disk_probe_interval: Duration,
    /// Loose-file count at which the coldest loose artifacts are
    /// packed into a segment file (half the threshold stays loose).
    /// `None` disables segment compaction entirely.
    pub segment_threshold: Option<usize>,
    /// Live-byte fraction below which a segment is garbage-collected:
    /// its surviving artifacts are rewritten as loose files and the
    /// segment file is deleted. A segment with no live entries is
    /// always deleted regardless of this knob.
    pub segment_gc_fraction: f64,
    /// Entry bound of the negative cache (keys recently confirmed
    /// absent from the disk tier). `0` disables it.
    pub negative_capacity: usize,
    /// Deterministic fault injection (inert unless the crate is built
    /// with the `fault-inject` feature *and* an active plan is
    /// supplied). See [`crate::fault`].
    pub faults: FaultPlan,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            memory_capacity: 64 << 20,
            disk_dir: None,
            disk_capacity: Some(1 << 30),
            disk_ttl: None,
            disk_error_threshold: 8,
            disk_probe_interval: Duration::from_secs(2),
            segment_threshold: Some(256),
            segment_gc_fraction: 0.5,
            negative_capacity: 512,
            faults: FaultPlan::none(),
        }
    }
}

/// Counters describing store behaviour (monotonic except
/// `entries`/`bytes`, which snapshot the memory tier).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts currently resident in the memory tier.
    pub entries: usize,
    /// Bytes (keys + values) resident in the memory tier.
    pub bytes: usize,
    /// Memory-tier evictions since creation.
    pub evictions: u64,
    /// Lookups answered by the memory tier.
    pub memory_hits: u64,
    /// Lookups answered by the disk tier.
    pub disk_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Artifacts written to the disk tier.
    pub disk_writes: u64,
    /// Artifacts currently resident in the disk tier (a snapshot of
    /// the index; 0 when the tier is disabled).
    pub disk_entries: usize,
    /// Bytes (file sizes) currently resident in the disk tier.
    pub disk_bytes: usize,
    /// Disk-tier evictions (budget) since creation.
    pub disk_evictions: u64,
    /// Disk-tier TTL expirations since creation.
    pub disk_expirations: u64,
    /// Disk operations that failed and degraded to a miss / skipped
    /// write (never an error). Counts IO errors *and* verification
    /// failures.
    pub disk_errors: u64,
    /// Disk reads whose bytes failed checksum/key verification (a
    /// subset of `disk_errors`): the corrupt file was served as a miss
    /// and deleted, never decoded.
    pub disk_corrupt: u64,
    /// Lookups short-circuited by the negative cache (the key was
    /// recently confirmed absent from the disk tier). Each also counts
    /// as a miss.
    pub negative_hits: u64,
    /// Segment files currently live in the disk tier.
    pub segments: usize,
    /// Bytes (file sizes) held by segment files — a subset of
    /// `disk_bytes`.
    pub segment_bytes: usize,
    /// Segment compactions (loose files packed into a segment) since
    /// creation.
    pub compactions: u64,
    /// Segment garbage collections (survivors rewritten loose, segment
    /// deleted) since creation — empty-segment deletions included.
    pub segment_gcs: u64,
    /// Restarts that could not replay the manifest (missing, torn, or
    /// corrupt) and fell back to the O(files) directory scan.
    pub manifest_fallbacks: u64,
    /// `true` while the disk tier is quarantined by the circuit
    /// breaker (memory-only degraded mode, awaiting a re-probe).
    pub disk_quarantined: bool,
    /// Times the circuit breaker opened (consecutive-IO-error
    /// threshold reached) since creation.
    pub disk_quarantines: u64,
    /// Recovery probes let through while quarantined.
    pub disk_probes: u64,
}

const NONE: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    /// Shared with the map key, so the (pattern-sized) key bytes exist
    /// once and the byte accounting below stays honest.
    key: Arc<[u8]>,
    /// Shared with in-flight [`ArtifactBytes`] readers: a memory hit
    /// clones the `Arc`, never the bytes.
    value: Arc<Vec<u8>>,
    prev: usize,
    next: usize,
}

/// Intrusive-list LRU over a slab, bounded by a byte budget.
#[derive(Debug)]
struct Lru {
    map: HashMap<Arc<[u8]>, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
    capacity: usize,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            bytes: 0,
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NONE => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NONE => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NONE;
        self.slots[i].next = self.head;
        match self.head {
            NONE => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    #[cfg(test)]
    fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(&self.slots[i].value)
    }

    /// Like [`Lru::get`], but returns the shared value handle (an
    /// `Arc` clone, no byte copy).
    fn get_arc(&mut self, key: &[u8]) -> Option<Arc<Vec<u8>>> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(Arc::clone(&self.slots[i].value))
    }

    /// Inserts (or replaces) an entry, evicting from the tail until the
    /// budget holds. Oversized artifacts are not cached (a replace with
    /// an oversized value keeps the existing entry rather than flushing
    /// the whole tier). Returns the number of evictions.
    fn insert(&mut self, key: &[u8], value: Arc<Vec<u8>>) -> u64 {
        let cost = key.len() + value.len();
        if cost > self.capacity {
            return 0;
        }
        if let Some(&i) = self.map.get(key) {
            self.bytes = self.bytes - self.slots[i].value.len() + value.len();
            self.slots[i].value = value;
            self.unlink(i);
            self.push_front(i);
        } else {
            let key: Arc<[u8]> = key.into();
            let slot = Slot {
                key: Arc::clone(&key),
                value,
                prev: NONE,
                next: NONE,
            };
            let i = match self.free.pop() {
                Some(i) => {
                    self.slots[i] = slot;
                    i
                }
                None => {
                    self.slots.push(slot);
                    self.slots.len() - 1
                }
            };
            self.map.insert(key, i);
            self.bytes += cost;
            self.push_front(i);
        }
        let mut evictions = 0;
        while self.bytes > self.capacity {
            let t = self.tail;
            debug_assert_ne!(t, NONE, "over budget with no evictable entry");
            self.unlink(t);
            self.bytes -= self.slots[t].key.len() + self.slots[t].value.len();
            let key = std::mem::replace(&mut self.slots[t].key, Arc::from(&[][..]));
            self.map.remove(&key);
            self.slots[t].value = Arc::new(Vec::new());
            self.free.push(t);
            evictions += 1;
        }
        evictions
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A bounded FIFO of key fingerprints the disk tier recently answered
/// *absent* for. Fingerprint collisions are safe: a spurious negative
/// hit is just a miss, and the artifact is recomputed. Removal is lazy
/// (the ring may keep a stale copy whose later pop drops a re-inserted
/// fingerprint early — again the safe direction: an extra disk probe).
#[derive(Debug)]
struct NegCache {
    cap: usize,
    ring: VecDeque<u128>,
    set: HashSet<u128>,
}

impl NegCache {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            ring: VecDeque::new(),
            set: HashSet::new(),
        }
    }

    fn contains(&self, fp: u128) -> bool {
        self.set.contains(&fp)
    }

    fn insert(&mut self, fp: u128) {
        if self.cap == 0 || !self.set.insert(fp) {
            return;
        }
        self.ring.push_back(fp);
        while self.ring.len() > self.cap {
            if let Some(old) = self.ring.pop_front() {
                self.set.remove(&old);
            }
        }
    }

    fn remove(&mut self, fp: u128) {
        self.set.remove(&fp);
    }
}

#[derive(Debug)]
struct StoreInner {
    lru: Lru,
    neg: NegCache,
    stats: StoreStats,
}

/// The disk tier's circuit breaker: counts *consecutive* IO errors
/// and, at the threshold, quarantines the tier — every operation is
/// skipped (memory-only degraded mode) except one probe per
/// `probe_interval`, whose first success closes the breaker again.
/// Only genuine IO errors feed it; a corrupt-but-readable file means
/// the disk answered, so verification failures reset nothing and trip
/// nothing.
#[derive(Debug)]
struct Breaker {
    threshold: u32,
    probe_interval: Duration,
    /// Consecutive IO errors since the last success.
    consecutive: u32,
    /// `Some(t)` while quarantined: operations are skipped until `t`,
    /// then one probe is let through (and the gate re-arms).
    open_until: Option<Instant>,
    quarantines: u64,
    probes: u64,
}

impl Breaker {
    fn new(threshold: u32, probe_interval: Duration) -> Self {
        Self {
            threshold,
            probe_interval,
            consecutive: 0,
            open_until: None,
            quarantines: 0,
            probes: 0,
        }
    }

    /// Gate at the head of every disk operation: `false` skips the
    /// tier (quarantined, not yet probe time).
    fn allow(&mut self) -> bool {
        match self.open_until {
            None => true,
            Some(until) => {
                let now = Instant::now();
                if now >= until {
                    // Half-open: let this one operation probe the disk
                    // and re-arm the gate — a failed probe keeps the
                    // tier quarantined for another interval.
                    self.open_until = Some(now + self.probe_interval);
                    self.probes += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A disk operation completed (reads, writes, and NotFound alike:
    /// the disk answered). Closes the breaker if it was open; returns
    /// `true` exactly on that open→closed transition so the caller can
    /// surface a `QuarantineClosed` telemetry event.
    fn success(&mut self) -> bool {
        self.consecutive = 0;
        self.open_until.take().is_some()
    }

    /// A disk operation failed with an IO error. Returns `true`
    /// exactly when this error tripped the breaker (closed→open), so
    /// the caller can surface a `QuarantineOpened` telemetry event.
    fn failure(&mut self) -> bool {
        self.consecutive = self.consecutive.saturating_add(1);
        if self.open_until.is_none() && self.consecutive >= self.threshold {
            self.open_until = Some(Instant::now() + self.probe_interval);
            self.quarantines += 1;
            return true;
        }
        false
    }

    fn quarantined(&self) -> bool {
        self.open_until.is_some()
    }
}

/// Where an artifact's framed bytes live on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Its own `<fingerprint>.art` file.
    Loose,
    /// A frame inside segment `seg`, starting at byte `offset` (the
    /// frame's length is the entry's `size`).
    Seg { seg: u64, offset: u64 },
}

/// Per-artifact bookkeeping of the disk tier's in-memory index.
#[derive(Debug)]
struct DiskEntry {
    /// Framed byte length: the file size for loose artifacts, the
    /// frame length for segment-resident ones.
    size: u64,
    /// Recency stamp (key into `by_recency`).
    seq: u64,
    /// Last write time (TTL reference point).
    written: SystemTime,
    /// Loose file or segment frame.
    loc: Loc,
}

/// Per-segment bookkeeping: liveness for GC and a cached read-only
/// mapping shared by every reader of the segment.
#[derive(Debug)]
struct SegmentInfo {
    /// Size of the segment file on disk.
    file_bytes: u64,
    /// Live (index-referenced) entries.
    live: usize,
    /// Framed bytes of the live entries (excludes the 8-byte length
    /// prefixes — a conservative underestimate for the GC fraction).
    live_bytes: u64,
    /// Lazily opened mapping, installed by the first reader.
    map: Option<Arc<MappedBytes>>,
}

/// First 8 bytes of `manifest.log`.
const MANIFEST_MAGIC: &[u8; 8] = b"MBQCMAN1";
/// Manifest file name inside the disk directory.
const MANIFEST_NAME: &str = "manifest.log";

/// One replayed manifest record.
#[derive(Debug)]
enum ManifestOp {
    Put {
        fp: u128,
        loc: Loc,
        size: u64,
        written: SystemTime,
    },
    Touch(u128),
    Remove(u128),
    SegCreate {
        seg: u64,
        file_bytes: u64,
    },
    SegDelete(u64),
}

/// The append-only restart manifest: every index mutation becomes one
/// checksummed record (the framed-fingerprint scheme of the artifact
/// files), so a restart is a sequential replay instead of a directory
/// rescan. Appends are best-effort and unsynced — see the module docs
/// for why every loss mode is safe.
#[derive(Debug)]
struct Manifest {
    path: PathBuf,
    /// Append handle; `None` until opened (and after an open failure —
    /// appends then silently no-op and the next restart falls back).
    writer: Option<std::fs::File>,
    /// Records appended since the last snapshot (bounds file growth).
    appended: u64,
}

impl Manifest {
    fn new(path: PathBuf) -> Self {
        Self {
            path,
            writer: None,
            appended: 0,
        }
    }

    /// One encoded record: the length-framed payload plus a
    /// [`Fingerprint`] checksum over the framed bytes.
    fn encode_record(payload: &[u8]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.bytes(payload);
        append_checksum(e.into_bytes())
    }

    fn encode_put(fp: u128, loc: Loc, size: u64, written: SystemTime) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(0);
        e.u64((fp >> 64) as u64);
        e.u64(fp as u64);
        match loc {
            Loc::Loose => e.u8(0),
            Loc::Seg { seg, offset } => {
                e.u8(1);
                e.u64(seg);
                e.u64(offset);
            }
        }
        e.u64(size);
        e.u64(nanos_since_epoch(written));
        Self::encode_record(&e.into_bytes())
    }

    fn encode_touch(fp: u128) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(1);
        e.u64((fp >> 64) as u64);
        e.u64(fp as u64);
        Self::encode_record(&e.into_bytes())
    }

    fn encode_remove(fp: u128) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(2);
        e.u64((fp >> 64) as u64);
        e.u64(fp as u64);
        Self::encode_record(&e.into_bytes())
    }

    fn encode_seg_create(seg: u64, file_bytes: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(3);
        e.u64(seg);
        e.u64(file_bytes);
        Self::encode_record(&e.into_bytes())
    }

    fn encode_seg_delete(seg: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(4);
        e.u64(seg);
        Self::encode_record(&e.into_bytes())
    }

    /// Appends pre-encoded records in one write (best-effort: an error
    /// drops the record; restart reconciliation heals the drift).
    fn append(&mut self, records: &[u8]) {
        if records.is_empty() {
            return;
        }
        if let Some(w) = &mut self.writer {
            if w.write_all(records).is_ok() {
                self.appended += 1;
            } else {
                // A sick manifest stops receiving appends; the next
                // restart parses a torn tail and falls back to scan.
                self.writer = None;
            }
        }
    }

    /// Opens (or re-opens) the append handle.
    fn open_writer(&mut self) {
        self.writer = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .ok();
    }

    /// Parses the whole manifest. `None` means missing/torn/corrupt —
    /// the caller must fall back to the directory scan.
    fn load(path: &Path) -> Option<Vec<ManifestOp>> {
        let file = std::fs::read(path).ok()?;
        let body = file.strip_prefix(MANIFEST_MAGIC.as_slice())?;
        let mut d = Decoder::new(body);
        let mut ops = Vec::new();
        while d.remaining() > 0 {
            let start = body.len() - d.remaining();
            let payload = d.bytes().ok()?;
            let framed_end = body.len() - d.remaining();
            let check = (u128::from(d.u64().ok()?) << 64) | u128::from(d.u64().ok()?);
            if Fingerprint::of(&body[start..framed_end]).0 != check {
                return None;
            }
            ops.push(Self::parse_op(payload)?);
        }
        Some(ops)
    }

    fn parse_op(payload: &[u8]) -> Option<ManifestOp> {
        let mut d = Decoder::new(payload);
        let op = match d.u8().ok()? {
            0 => {
                let fp = (u128::from(d.u64().ok()?) << 64) | u128::from(d.u64().ok()?);
                let loc = match d.u8().ok()? {
                    0 => Loc::Loose,
                    1 => Loc::Seg {
                        seg: d.u64().ok()?,
                        offset: d.u64().ok()?,
                    },
                    _ => return None,
                };
                let size = d.u64().ok()?;
                let written = SystemTime::UNIX_EPOCH + Duration::from_nanos(d.u64().ok()?);
                ManifestOp::Put {
                    fp,
                    loc,
                    size,
                    written,
                }
            }
            1 => ManifestOp::Touch((u128::from(d.u64().ok()?) << 64) | u128::from(d.u64().ok()?)),
            2 => ManifestOp::Remove((u128::from(d.u64().ok()?) << 64) | u128::from(d.u64().ok()?)),
            3 => ManifestOp::SegCreate {
                seg: d.u64().ok()?,
                file_bytes: d.u64().ok()?,
            },
            4 => ManifestOp::SegDelete(d.u64().ok()?),
            _ => return None,
        };
        d.finish().ok()?;
        Some(op)
    }
}

fn nanos_since_epoch(t: SystemTime) -> u64 {
    t.duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// The hex artifact name for a fingerprint value.
fn name_of_fp(fp: u128) -> String {
    Fingerprint(fp).to_hex()
}

/// Parses an artifact name back into its fingerprint (names are always
/// 32 lowercase hex digits; anything else has no manifest identity).
fn fp_of_name(name: &str) -> Option<u128> {
    if name.len() == 32 {
        u128::from_str_radix(name, 16).ok()
    } else {
        None
    }
}

/// The bounded on-disk tier: one file per artifact plus an in-memory
/// index carrying sizes, recency, and write times. A restart rebuilds
/// the index by scanning the directory (recency from file modification
/// times), so the byte budget holds across restarts too.
///
/// File I/O is deliberately *not* performed under this tier's lock:
/// lookups and stores run as lock–IO–lock sequences (`pre_read` /
/// `note_read`, `pre_write` / `note_write`) so a worker's
/// millisecond-scale read or fsync never stalls the other workers'
/// disk traffic — only the index bookkeeping serializes. The transient
/// races this admits (a file landing while another worker evicts, two
/// workers storing the same deterministic artifact) at worst leave the
/// accounting briefly off by one in-flight file; the next bookkeeping
/// call reconverges it.
#[derive(Debug)]
struct DiskTier {
    dir: PathBuf,
    capacity: Option<u64>,
    ttl: Option<Duration>,
    index: HashMap<String, DiskEntry>,
    /// Recency order: lowest sequence number = least recently used.
    by_recency: BTreeMap<u64, String>,
    /// Loose file sizes plus segment file sizes (the manifest itself
    /// is metadata and not budget-counted).
    bytes: u64,
    next_seq: u64,
    /// Count of `Loc::Loose` entries (the compaction trigger).
    loose: usize,
    segments: HashMap<u64, SegmentInfo>,
    next_seg: u64,
    segment_threshold: Option<usize>,
    gc_fraction: f64,
    manifest: Manifest,
    evictions: u64,
    expirations: u64,
    compactions: u64,
    segment_gcs: u64,
    fallbacks: u64,
    breaker: Breaker,
}

/// The locked phase-1 verdict of a lookup: skip (quarantined), an
/// authoritative absence (expired), or a read plan the caller executes
/// outside the lock.
enum ReadGate {
    Skip,
    Expired,
    Loose(PathBuf),
    Seg {
        path: PathBuf,
        seg: u64,
        offset: u64,
        len: u64,
        map: Option<Arc<MappedBytes>>,
    },
}

impl DiskTier {
    /// Opens (and bounds) the tier: creates the directory, replays the
    /// manifest (falling back to a full directory scan when it is
    /// missing or torn), reconciles stray files, expires the over-age
    /// artifacts, and evicts down to the byte budget.
    fn open(
        dir: PathBuf,
        capacity: Option<u64>,
        ttl: Option<Duration>,
        breaker: Breaker,
        segment_threshold: Option<usize>,
        gc_fraction: f64,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        let manifest = Manifest::new(dir.join(MANIFEST_NAME));
        let mut tier = Self {
            dir,
            capacity,
            ttl,
            index: HashMap::new(),
            by_recency: BTreeMap::new(),
            bytes: 0,
            next_seq: 0,
            loose: 0,
            segments: HashMap::new(),
            next_seg: 0,
            segment_threshold,
            gc_fraction,
            manifest,
            evictions: 0,
            expirations: 0,
            compactions: 0,
            segment_gcs: 0,
            fallbacks: 0,
            breaker,
        };
        match Manifest::load(&tier.manifest.path) {
            Some(ops) => {
                let records = ops.len() as u64;
                tier.replay(ops);
                tier.reconcile_names()?;
                // Bound manifest growth across restarts: when history
                // dwarfs the live index, snapshot it down.
                if records > 4 * tier.index.len() as u64 + 64 {
                    tier.rewrite_manifest();
                } else {
                    tier.manifest.open_writer();
                }
            }
            None => {
                tier.fallback_scan()?;
                tier.fallbacks = 1;
                tier.rewrite_manifest();
            }
        }
        tier.sweep_expired();
        tier.evict_to_budget();
        Ok(tier)
    }

    /// Replays manifest records into the index. Record order *is* the
    /// recorded access order: each `Put`/`Touch` bumps the entry to
    /// most-recently-used, so restarts restore true recency instead of
    /// the mtime approximation the fallback scan is limited to.
    fn replay(&mut self, ops: Vec<ManifestOp>) {
        for op in ops {
            match op {
                ManifestOp::Put {
                    fp,
                    loc,
                    size,
                    written,
                } => {
                    let name = name_of_fp(fp);
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    if let Some(old) = self.index.remove(&name) {
                        self.by_recency.remove(&old.seq);
                    }
                    self.by_recency.insert(seq, name.clone());
                    self.index.insert(
                        name,
                        DiskEntry {
                            size,
                            seq,
                            written,
                            loc,
                        },
                    );
                }
                ManifestOp::Touch(fp) => {
                    let name = name_of_fp(fp);
                    if let Some(entry) = self.index.get_mut(&name) {
                        self.by_recency.remove(&entry.seq);
                        entry.seq = self.next_seq;
                        self.next_seq += 1;
                        self.by_recency.insert(entry.seq, name);
                    }
                }
                ManifestOp::Remove(fp) => {
                    let name = name_of_fp(fp);
                    if let Some(old) = self.index.remove(&name) {
                        self.by_recency.remove(&old.seq);
                    }
                }
                ManifestOp::SegCreate { seg, file_bytes } => {
                    self.segments.insert(
                        seg,
                        SegmentInfo {
                            file_bytes,
                            live: 0,
                            live_bytes: 0,
                            map: None,
                        },
                    );
                    self.next_seg = self.next_seg.max(seg + 1);
                }
                ManifestOp::SegDelete(seg) => {
                    self.segments.remove(&seg);
                }
            }
        }
        // Settle the derived state: liveness per segment, the loose
        // count, dropped entries whose segment no longer exists, and
        // the byte total.
        let mut dead: Vec<String> = Vec::new();
        for (name, entry) in &self.index {
            match entry.loc {
                Loc::Loose => self.loose += 1,
                Loc::Seg { seg, .. } => match self.segments.get_mut(&seg) {
                    Some(info) => {
                        info.live += 1;
                        info.live_bytes += entry.size;
                    }
                    None => dead.push(name.clone()),
                },
            }
        }
        for name in dead {
            if let Some(old) = self.index.remove(&name) {
                self.by_recency.remove(&old.seq);
            }
        }
        let empty: Vec<u64> = self
            .segments
            .iter()
            .filter(|(_, info)| info.live == 0)
            .map(|(&seg, _)| seg)
            .collect();
        for seg in empty {
            let _ = std::fs::remove_file(self.seg_path(seg));
            self.segments.remove(&seg);
        }
        self.bytes = self
            .index
            .values()
            .filter(|e| e.loc == Loc::Loose)
            .map(|e| e.size)
            .sum::<u64>()
            + self.segments.values().map(|s| s.file_bytes).sum::<u64>();
    }

    /// The names-only directory sweep after a clean replay: deletes
    /// stale temp files, drops index entries whose file is gone,
    /// adopts orphan loose artifacts (stat'ing only those — normally
    /// zero, so a clean restart does no per-file stats), and deletes
    /// orphan segment files the manifest never registered.
    fn reconcile_names(&mut self) -> std::io::Result<()> {
        let mut loose_names: HashSet<String> = HashSet::new();
        let mut seg_ids: HashSet<u64> = HashSet::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            let stem = path.file_stem().and_then(|s| s.to_str());
            if ext.starts_with("tmp") {
                let _ = std::fs::remove_file(&path);
            } else if ext == "art" {
                if let Some(stem) = stem {
                    loose_names.insert(stem.to_string());
                }
            } else if ext == "seg" {
                match stem
                    .and_then(|s| s.strip_prefix("seg-"))
                    .and_then(|s| s.parse().ok())
                {
                    Some(id) => {
                        seg_ids.insert(id);
                    }
                    None => {
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
        }
        // Index entries whose backing file vanished.
        let gone: Vec<String> = self
            .index
            .iter()
            .filter(|(name, e)| match e.loc {
                Loc::Loose => !loose_names.contains(*name),
                Loc::Seg { seg, .. } => !seg_ids.contains(&seg),
            })
            .map(|(name, _)| name.clone())
            .collect();
        for name in gone {
            self.drop_entry(&name, false);
        }
        let vanished: Vec<u64> = self
            .segments
            .keys()
            .copied()
            .filter(|seg| !seg_ids.contains(seg))
            .collect();
        for seg in vanished {
            if let Some(info) = self.segments.remove(&seg) {
                self.bytes = self.bytes.saturating_sub(info.file_bytes);
            }
        }
        // Orphan loose files: adopt them (budget must count them).
        let orphans: Vec<String> = loose_names
            .into_iter()
            .filter(|n| !self.index.contains_key(n))
            .collect();
        for name in orphans {
            let Ok(meta) = std::fs::metadata(self.path_of(&name)) else {
                continue;
            };
            let written = meta.modified().unwrap_or_else(|_| SystemTime::now());
            self.insert_entry(&name, meta.len(), written, Loc::Loose);
        }
        // Orphan segment files: the manifest never registered them, so
        // no entry can reference them — reclaim the space.
        let orphan_segs: Vec<u64> = seg_ids
            .into_iter()
            .filter(|seg| !self.segments.contains_key(seg))
            .collect();
        for seg in orphan_segs {
            let _ = std::fs::remove_file(self.seg_path(seg));
        }
        Ok(())
    }

    /// The legacy O(files) recovery path: stat every artifact file,
    /// order by modification time, and walk segment frames. This is
    /// the pre-manifest behaviour, kept as the self-healing fallback;
    /// note its mtime ordering has one-second granularity on many
    /// filesystems, so same-second entries can come back reordered —
    /// the manifest's recorded access order (the primary path) does
    /// not quantize.
    fn fallback_scan(&mut self) -> std::io::Result<()> {
        // (written, name, size, loc) — sorted for a stable recency
        // order before sequence numbers are assigned.
        let mut found: Vec<(SystemTime, String, u64, Loc)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            if ext.starts_with("tmp") {
                // A writer died mid-write in a previous life.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            if ext == "art" {
                let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                    continue;
                };
                let Ok(meta) = entry.metadata() else { continue };
                let written = meta.modified().unwrap_or_else(|_| SystemTime::now());
                found.push((written, name.to_string(), meta.len(), Loc::Loose));
            } else if ext == "seg" {
                // Segments are dropped wholesale on a fallback scan.
                // They are append-only: a frame that checksums clean
                // may still be *dead* — superseded by a later loose
                // write, or deleted (eviction, corruption detection)
                // after packing — and only the manifest records
                // liveness. Adopting frames here could shadow a newer
                // loose file (mtimes tie at one-second granularity) or
                // resurrect a deleted key, violating the
                // last-put-or-miss contract. Losing cold packed
                // artifacts on a torn-manifest restart is an ordinary
                // cache miss.
                let _ = std::fs::remove_file(&path);
            }
        }
        // Oldest first, name-tie-broken: restarts reproduce a stable
        // recency order.
        found.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (written, name, size, loc) in found {
            self.insert_entry_quiet(&name, size, written, loc);
        }
        self.bytes = self
            .index
            .values()
            .filter(|e| e.loc == Loc::Loose)
            .map(|e| e.size)
            .sum::<u64>()
            + self.segments.values().map(|s| s.file_bytes).sum::<u64>();
        Ok(())
    }

    /// Snapshots the live index into a fresh manifest (atomic write)
    /// and re-opens the append handle. Entries are written in recency
    /// order so the next replay restores it.
    fn rewrite_manifest(&mut self) {
        let mut buf = MANIFEST_MAGIC.to_vec();
        for (&seg, info) in &self.segments {
            buf.extend_from_slice(&Manifest::encode_seg_create(seg, info.file_bytes));
        }
        for name in self.by_recency.values() {
            let (Some(entry), Some(fp)) = (self.index.get(name), fp_of_name(name)) else {
                continue;
            };
            buf.extend_from_slice(&Manifest::encode_put(
                fp,
                entry.loc,
                entry.size,
                entry.written,
            ));
        }
        if write_atomically(&self.manifest.path, &buf).is_ok() {
            self.manifest.appended = 0;
            self.manifest.open_writer();
        } else {
            self.manifest.writer = None;
        }
    }

    /// Appends records and snapshot-compacts the manifest when its
    /// history dwarfs the live index.
    fn manifest_append(&mut self, records: Vec<u8>) {
        self.manifest.append(&records);
        if self.manifest.appended > 4 * self.index.len() as u64 + 64 {
            self.rewrite_manifest();
        }
    }

    /// Inserts a fresh entry at most-recently-used, recording it in
    /// the manifest.
    fn insert_entry(&mut self, name: &str, size: u64, written: SystemTime, loc: Loc) {
        self.insert_entry_quiet(name, size, written, loc);
        self.bytes += match loc {
            Loc::Loose => size,
            Loc::Seg { .. } => 0, // the segment's file size is counted once
        };
        if let Some(fp) = fp_of_name(name) {
            self.manifest_append(Manifest::encode_put(fp, loc, size, written));
        }
    }

    /// Index/recency/liveness bookkeeping of an insert, without byte
    /// accounting or manifest records (the scan paths total bytes once
    /// at the end).
    fn insert_entry_quiet(&mut self, name: &str, size: u64, written: SystemTime, loc: Loc) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(old) = self.index.remove(name) {
            self.by_recency.remove(&old.seq);
            self.unaccount_loc(&old);
            if old.loc == Loc::Loose {
                // Same name, same path: the new write replaced the old
                // file, so its bytes leave the budget.
                self.bytes = self.bytes.saturating_sub(old.size);
            }
        }
        self.by_recency.insert(seq, name.to_string());
        match loc {
            Loc::Loose => self.loose += 1,
            Loc::Seg { seg, .. } => {
                if let Some(info) = self.segments.get_mut(&seg) {
                    info.live += 1;
                    info.live_bytes += size;
                }
            }
        }
        self.index.insert(
            name.to_string(),
            DiskEntry {
                size,
                seq,
                written,
                loc,
            },
        );
    }

    /// Reverses the liveness/loose accounting of an entry that is
    /// leaving the index (not its bytes — callers decide).
    fn unaccount_loc(&mut self, entry: &DiskEntry) {
        match entry.loc {
            Loc::Loose => self.loose -= 1,
            Loc::Seg { seg, .. } => {
                if let Some(info) = self.segments.get_mut(&seg) {
                    info.live -= 1;
                    info.live_bytes = info.live_bytes.saturating_sub(entry.size);
                }
            }
        }
    }

    /// Drops an entry from the index (no artifact-file deletion),
    /// optionally recording the removal in the manifest.
    fn drop_entry(&mut self, name: &str, record: bool) {
        if let Some(entry) = self.index.remove(name) {
            self.by_recency.remove(&entry.seq);
            self.unaccount_loc(&entry);
            if entry.loc == Loc::Loose {
                self.bytes = self.bytes.saturating_sub(entry.size);
            }
            if record {
                if let Some(fp) = fp_of_name(name) {
                    self.manifest_append(Manifest::encode_remove(fp));
                }
            }
        }
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.art"))
    }

    fn seg_path(&self, seg: u64) -> PathBuf {
        self.dir.join(format!("seg-{seg}.seg"))
    }

    fn expired(&self, entry: &DiskEntry) -> bool {
        match self.ttl {
            Some(ttl) => entry.written.elapsed().is_ok_and(|age| age > ttl),
            None => false,
        }
    }

    /// Drops one artifact from the index and the filesystem. Loose
    /// artifacts delete their file; segment-resident ones just go dead
    /// (the segment is deleted when empty, GC'd when mostly dead).
    fn remove(&mut self, name: &str) {
        match self.index.get(name) {
            Some(entry) => {
                let loc = entry.loc;
                self.drop_entry(name, true);
                match loc {
                    Loc::Loose => {
                        let _ = std::fs::remove_file(self.path_of(name));
                    }
                    Loc::Seg { seg, .. } => self.reap_segment(seg),
                }
            }
            // Unindexed names can still shadow a real loose file
            // (external writers share the directory) — delete it so a
            // corrupt artifact cannot be served twice.
            None => {
                let _ = std::fs::remove_file(self.path_of(name));
            }
        }
    }

    /// Deletes a segment whose last entry just died, or garbage
    /// collects it when live bytes fall under the GC fraction.
    fn reap_segment(&mut self, seg: u64) {
        let Some(info) = self.segments.get(&seg) else {
            return;
        };
        if info.live == 0 {
            let file_bytes = info.file_bytes;
            self.segments.remove(&seg);
            let _ = std::fs::remove_file(self.seg_path(seg));
            self.bytes = self.bytes.saturating_sub(file_bytes);
            self.segment_gcs += 1;
            self.manifest_append(Manifest::encode_seg_delete(seg));
        } else if (info.live_bytes as f64) < self.gc_fraction * info.file_bytes as f64 {
            self.gc_segment(seg);
        }
    }

    /// Rewrites a mostly-dead segment's survivors back to loose files
    /// (frame bytes copied verbatim — checksums carry over, and every
    /// later lookup re-verifies anyway), then deletes the segment.
    /// Net bytes strictly decrease: live frames are a subset of the
    /// file. Runs under the disk lock (the documented exception to the
    /// lock–IO–lock discipline: compaction and GC are rare and must
    /// not race lookups against moving locations).
    fn gc_segment(&mut self, seg: u64) {
        let Some(info) = self.segments.get_mut(&seg) else {
            return;
        };
        let map = match &info.map {
            Some(m) => Arc::clone(m),
            None => match MappedBytes::open(&self.seg_path(seg)) {
                Ok(m) => Arc::new(m),
                Err(_) => {
                    self.breaker.failure();
                    return;
                }
            },
        };
        let survivors: Vec<String> = self
            .index
            .iter()
            .filter(|(_, e)| matches!(e.loc, Loc::Seg { seg: s, .. } if s == seg))
            .map(|(name, _)| name.clone())
            .collect();
        let mut records = Vec::new();
        for name in survivors {
            let entry = &self.index[&name];
            let Loc::Seg { offset, .. } = entry.loc else {
                continue;
            };
            let (start, len) = (offset as usize, entry.size as usize);
            let ok = start.checked_add(len).is_some_and(|end| end <= map.len())
                && write_atomically(&self.path_of(&name), &map[start..start + len]).is_ok();
            if ok {
                let entry = self.index.get_mut(&name).expect("survivor indexed");
                entry.loc = Loc::Loose;
                self.loose += 1;
                self.bytes += entry.size;
                if let Some(fp) = fp_of_name(&name) {
                    records.extend_from_slice(&Manifest::encode_put(
                        fp,
                        Loc::Loose,
                        entry.size,
                        entry.written,
                    ));
                }
            } else {
                // A cache entry is always recomputable — dropping it is
                // the safe failure mode.
                self.breaker.failure();
                self.drop_entry(&name, true);
            }
        }
        if let Some(info) = self.segments.remove(&seg) {
            self.bytes = self.bytes.saturating_sub(info.file_bytes);
        }
        let _ = std::fs::remove_file(self.seg_path(seg));
        self.segment_gcs += 1;
        records.extend_from_slice(&Manifest::encode_seg_delete(seg));
        self.manifest_append(records);
    }

    /// Packs the coldest loose artifacts into one append-only segment
    /// file, keeping at most `keep` loose. Loose files are deleted
    /// *before* the segment write so the byte budget never
    /// double-counts; a crash in the window loses only recomputable
    /// cache entries (and stale manifest `Put`s self-heal as NotFound
    /// on the next lookup). Runs under the disk lock — see
    /// [`Self::gc_segment`].
    fn compact_cold(&mut self, keep: usize) {
        if self.loose <= keep {
            return;
        }
        let take = self.loose - keep;
        let candidates: Vec<String> = self
            .by_recency
            .values()
            .filter(|name| self.index.get(*name).is_some_and(|e| e.loc == Loc::Loose))
            .take(take)
            .cloned()
            .collect();
        if candidates.len() < 2 {
            return;
        }
        let mut buf: Vec<u8> = Vec::new();
        let mut packed: Vec<(String, u64, u64)> = Vec::new(); // (name, offset, len)
        for name in candidates {
            let Ok(frame) = std::fs::read(self.path_of(&name)) else {
                continue; // unreadable: leave it loose, lookups will classify it
            };
            let _ = std::fs::remove_file(self.path_of(&name));
            {
                let entry = self.index.get_mut(&name).expect("candidate indexed");
                // The file may have shrunk behind our back (external
                // corruption): account with the indexed size, store
                // the real one.
                self.bytes = self.bytes.saturating_sub(entry.size);
                entry.size = frame.len() as u64;
            }
            buf.extend_from_slice(&(frame.len() as u64).to_le_bytes());
            let offset = buf.len() as u64;
            buf.extend_from_slice(&frame);
            packed.push((name, offset, frame.len() as u64));
        }
        if packed.is_empty() {
            return;
        }
        let seg = self.next_seg;
        self.next_seg += 1;
        if write_atomically(&self.seg_path(seg), &buf).is_err() {
            self.breaker.failure();
            for (name, _, _) in packed {
                self.drop_entry(&name, true);
            }
            return;
        }
        let mut live = 0;
        let mut live_bytes = 0;
        let mut records = Manifest::encode_seg_create(seg, buf.len() as u64);
        for (name, offset, len) in packed {
            let entry = self.index.get_mut(&name).expect("packed entry indexed");
            entry.loc = Loc::Seg { seg, offset };
            self.loose -= 1;
            live += 1;
            live_bytes += len;
            if let Some(fp) = fp_of_name(&name) {
                records.extend_from_slice(&Manifest::encode_put(
                    fp,
                    Loc::Seg { seg, offset },
                    len,
                    entry.written,
                ));
            }
        }
        self.bytes += buf.len() as u64;
        self.segments.insert(
            seg,
            SegmentInfo {
                file_bytes: buf.len() as u64,
                live,
                live_bytes,
                map: None,
            },
        );
        self.compactions += 1;
        self.manifest_append(records);
        self.evict_to_budget();
    }

    /// Deletes every over-age artifact (no-op without a TTL).
    fn sweep_expired(&mut self) {
        if self.ttl.is_none() {
            return;
        }
        let expired: Vec<String> = self
            .index
            .iter()
            .filter(|(_, e)| self.expired(e))
            .map(|(name, _)| name.clone())
            .collect();
        for name in expired {
            self.remove(&name);
            self.expirations += 1;
        }
    }

    /// Deletes least-recently-accessed artifacts until the byte budget
    /// holds (no-op without a budget). Segment-resident victims go
    /// dead in place; their segment is reclaimed when empty or
    /// mostly-dead, which is what makes progress certain: every
    /// iteration either frees loose bytes now or moves a segment
    /// toward reclamation, and an emptied recency queue means every
    /// segment is dead and deleted.
    fn evict_to_budget(&mut self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.bytes > capacity {
            let Some((_, name)) = self.by_recency.pop_first() else {
                break;
            };
            let Some(entry) = self.index.remove(&name) else {
                continue;
            };
            self.unaccount_loc(&entry);
            match entry.loc {
                Loc::Loose => {
                    self.bytes = self.bytes.saturating_sub(entry.size);
                    let _ = std::fs::remove_file(self.path_of(&name));
                }
                Loc::Seg { seg, .. } => self.reap_segment(seg),
            }
            if let Some(fp) = fp_of_name(&name) {
                self.manifest_append(Manifest::encode_remove(fp));
            }
            self.evictions += 1;
        }
    }

    /// Lookup phase 1 (locked): circuit-breaker gate, then TTL gate.
    /// A quarantined tier reports `Skip` (memory-only degraded mode);
    /// expired artifacts are deleted here and report `Expired` (an
    /// authoritative absence); otherwise the caller gets a read plan —
    /// a loose path to read *outside* the lock (even for unindexed
    /// names, which may be files written by a sibling process sharing
    /// the directory), or a segment frame location plus any cached
    /// mapping.
    fn pre_read(&mut self, name: &str) -> ReadGate {
        if !self.breaker.allow() {
            return ReadGate::Skip;
        }
        if let Some(entry) = self.index.get(name) {
            if self.expired(entry) {
                self.remove(name);
                self.expirations += 1;
                return ReadGate::Expired;
            }
            if let Loc::Seg { seg, offset } = entry.loc {
                return ReadGate::Seg {
                    path: self.seg_path(seg),
                    seg,
                    offset,
                    len: entry.size,
                    map: self.segments.get(&seg).and_then(|s| s.map.clone()),
                };
            }
        }
        ReadGate::Loose(self.path_of(name))
    }

    /// Lookup phase 2 (locked, after a successful unlocked read):
    /// refreshes the artifact's recency (recorded in the manifest so
    /// restarts restore true access order), adopting externally
    /// written files into the index so the budget keeps counting them.
    fn note_read(&mut self, name: &str, size: u64) -> bool {
        let reopened = self.breaker.success();
        match self.index.get_mut(name) {
            Some(entry) => {
                // Touch: most-recently-used now.
                self.by_recency.remove(&entry.seq);
                entry.seq = self.next_seq;
                self.next_seq += 1;
                self.by_recency.insert(entry.seq, name.to_string());
                if let Some(fp) = fp_of_name(name) {
                    self.manifest_append(Manifest::encode_touch(fp));
                }
            }
            None => {
                self.insert_entry(name, size, SystemTime::now(), Loc::Loose);
                self.evict_to_budget();
            }
        }
        reopened
    }

    /// Caches a fresh segment mapping so later hits skip the mmap
    /// syscall.
    fn note_seg_map(&mut self, seg: u64, map: Arc<MappedBytes>) {
        if let Some(info) = self.segments.get_mut(&seg) {
            info.map = Some(map);
        }
    }

    /// Lookup cleanup (locked): the file turned out not to exist —
    /// drop any stale index entry so the budget stops counting it
    /// (e.g. an eviction raced an in-flight write). NotFound means
    /// the disk *answered*, so it counts as a breaker success.
    fn note_missing(&mut self, name: &str) -> bool {
        let reopened = self.breaker.success();
        if self.index.contains_key(name) {
            let loc = self.index[name].loc;
            self.drop_entry(name, true);
            if let Loc::Seg { seg, .. } = loc {
                // The whole segment file vanished: every entry in it
                // is gone.
                let dead: Vec<String> = self
                    .index
                    .iter()
                    .filter(|(_, e)| matches!(e.loc, Loc::Seg { seg: s, .. } if s == seg))
                    .map(|(n, _)| n.clone())
                    .collect();
                for n in dead {
                    self.drop_entry(&n, true);
                }
                if let Some(info) = self.segments.remove(&seg) {
                    self.bytes = self.bytes.saturating_sub(info.file_bytes);
                    self.manifest_append(Manifest::encode_seg_delete(seg));
                }
            }
        }
        reopened
    }

    /// A disk read or write failed with a genuine IO error: feed the
    /// circuit breaker (enough consecutive errors quarantine the
    /// tier).
    fn note_io_error(&mut self) -> bool {
        self.breaker.failure()
    }

    /// Store phase 1 (locked): circuit-breaker gate, TTL sweep, and
    /// admission. A quarantined tier and artifacts larger than the
    /// whole budget are rejected (`None`); otherwise the caller
    /// performs the temp-file + rename write *outside* the lock
    /// (concurrent writers of the same deterministic artifact are safe
    /// — unique temp names, atomic rename).
    fn pre_write(&mut self, name: &str, size: u64) -> Option<PathBuf> {
        if !self.breaker.allow() {
            return None;
        }
        self.sweep_expired();
        if self.capacity.is_some_and(|c| size > c) {
            return None;
        }
        Some(self.path_of(name))
    }

    /// Store phase 2 (locked, after a successful unlocked write):
    /// replaces the artifact's index entry, evicts back down to the
    /// byte budget, and — when loose files pile past the segment
    /// threshold — packs the cold half into a segment file.
    fn note_write(&mut self, name: &str, size: u64) -> bool {
        let reopened = self.breaker.success();
        self.insert_entry(name, size, SystemTime::now(), Loc::Loose);
        self.evict_to_budget();
        if let Some(threshold) = self.segment_threshold {
            if self.loose >= threshold.max(2) {
                self.compact_cold(threshold.max(2) / 2);
            }
        }
        reopened
    }
}

/// The two-tier content-addressed artifact store. Internally
/// synchronized: workers share one store behind `&self`.
#[derive(Debug)]
pub struct ArtifactStore {
    inner: Mutex<StoreInner>,
    disk: Option<Mutex<DiskTier>>,
    faults: FaultPlan,
    /// Service telemetry hub, attached once at service construction so
    /// disk-quarantine transitions surface as events. Absent on stores
    /// used outside a service (unit tests): transitions stay silent.
    telemetry: OnceLock<Arc<TelemetryHub>>,
}

impl ArtifactStore {
    /// Creates a store; the disk directory (if any) is created and
    /// indexed eagerly so a misconfigured path fails loudly here
    /// rather than silently degrading every write — and so a restart
    /// immediately re-enforces the disk byte budget.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the disk directory cannot be created
    /// or scanned.
    pub fn new(config: StoreConfig) -> std::io::Result<Self> {
        let disk = match config.disk_dir {
            Some(dir) => Some(Mutex::new(DiskTier::open(
                dir,
                config.disk_capacity.map(|c| c as u64),
                config.disk_ttl,
                Breaker::new(config.disk_error_threshold, config.disk_probe_interval),
                config.segment_threshold,
                config.segment_gc_fraction,
            )?)),
            None => None,
        };
        Ok(Self {
            inner: Mutex::new(StoreInner {
                lru: Lru::new(config.memory_capacity),
                neg: NegCache::new(config.negative_capacity),
                stats: StoreStats::default(),
            }),
            disk,
            faults: config.faults,
            telemetry: OnceLock::new(),
        })
    }

    /// The manifest file path inside a disk-tier directory — exposed
    /// so tests and benchmarks can delete it to force the fallback
    /// directory scan.
    #[must_use]
    pub fn manifest_path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_NAME)
    }

    /// Forces segment compaction of every cold loose artifact now
    /// (normally it triggers automatically past
    /// [`StoreConfig::segment_threshold`]). No-op without a disk tier.
    pub fn compact(&self) {
        if let Some(disk) = &self.disk {
            lock(disk).compact_cold(0);
        }
    }

    /// Attaches the service's telemetry hub (first caller wins) so the
    /// store can emit `QuarantineOpened` / `QuarantineClosed` on
    /// circuit-breaker transitions.
    pub(crate) fn attach_telemetry(&self, hub: Arc<TelemetryHub>) {
        let _ = self.telemetry.set(hub);
    }

    /// Emits a quarantine-transition event (service-scoped: no job id).
    /// Called *outside* the disk-tier lock.
    fn emit_quarantine(&self, opened: bool) {
        if let Some(hub) = self.telemetry.get() {
            if hub.armed() {
                let kind = if opened {
                    EventKind::QuarantineOpened
                } else {
                    EventKind::QuarantineClosed
                };
                hub.emit(None, kind);
            }
        }
    }

    fn name_of(key: &ArtifactKey) -> String {
        key.fingerprint().to_hex()
    }

    /// Looks the artifact up: memory tier first, then disk (verifying
    /// the embedded key and the content checksum, then promoting the
    /// artifact into memory). The disk read happens *outside* the
    /// memory-tier lock so one worker's cold miss never stalls the
    /// others' memory-tier traffic.
    #[must_use]
    pub fn get(&self, key: &ArtifactKey) -> Option<Vec<u8>> {
        self.lookup(key, true).map(|b| b.to_vec())
    }

    /// Zero-copy lookup: like [`Self::get`], but a disk hit returns a
    /// validated borrowed view of the memory-mapped bytes instead of
    /// copying the value into the memory tier. The checksum and key
    /// verification still run on every hit; what is skipped is the
    /// `Vec` allocation and the memcpy; the caller decodes straight
    /// from the borrowed bytes. Because
    /// nothing is promoted, a hot artifact read only through `get_ref`
    /// stays on disk; use `get` when promotion is wanted.
    #[must_use]
    pub fn get_ref(&self, key: &ArtifactKey) -> Option<ArtifactBytes> {
        self.lookup(key, false)
    }

    /// The shared lookup path. `promote` selects the classic
    /// read-decode-promote behaviour (`get`) over the zero-copy mmap
    /// view (`get_ref`).
    fn lookup(&self, key: &ArtifactKey, promote: bool) -> Option<ArtifactBytes> {
        let fp = key.fingerprint().0;
        {
            let mut inner = lock(&self.inner);
            if let Some(v) = inner.lru.get_arc(key.bytes()) {
                inner.stats.memory_hits += 1;
                let end = v.len();
                return Some(ArtifactBytes {
                    source: ByteSource::Mem(v),
                    start: 0,
                    end,
                });
            }
            // The negative cache only ever holds keys the disk tier
            // *answered* absent, so consulting it cannot mask an IO
            // error or a quarantine skip.
            if self.disk.is_some() && inner.neg.contains(fp) {
                inner.stats.negative_hits += 1;
                inner.stats.misses += 1;
                return None;
            }
        }
        let mut disk_error = false;
        let mut corrupt = false;
        // An authoritative absence (NotFound, expired, corrupt-deleted)
        // is worth remembering; an IO error or quarantine skip is not.
        let mut remember_absent = false;
        let mut hit: Option<ArtifactBytes> = None;
        if let Some(disk) = &self.disk {
            let name = Self::name_of(key);
            // Bound to a `let` so the disk-lock temporary drops here —
            // a `match lock(disk).pre_read(..)` scrutinee would hold
            // the guard across the arms, and the arms re-lock.
            let gate = lock(disk).pre_read(&name);
            match gate {
                ReadGate::Skip => {}
                ReadGate::Expired => remember_absent = true,
                ReadGate::Loose(path) => {
                    // The file read runs outside the disk-tier lock
                    // too: only index bookkeeping serializes, never
                    // I/O. Injected read errors take the exact path a
                    // real one would.
                    let read = if self.faults.disk_read_error() {
                        Err(std::io::Error::other("injected disk read error"))
                    } else if promote {
                        std::fs::read(&path).map(ByteSource::from_vec)
                    } else {
                        MappedBytes::open(&path).map(|m| ByteSource::Map(Arc::new(m)))
                    };
                    match read {
                        Ok(source) => {
                            if lock(disk).note_read(&name, source.as_bytes().len() as u64) {
                                self.emit_quarantine(false);
                            }
                            match verify_disk_artifact(source.as_bytes(), key) {
                                Some(range) => {
                                    hit = Some(ArtifactBytes {
                                        source,
                                        start: range.start,
                                        end: range.end,
                                    });
                                }
                                None => {
                                    // Checksum or key verification
                                    // failed: the artifact is corrupt
                                    // (or a fingerprint collision named
                                    // a foreign key). Serve a miss and
                                    // delete the file — it can never
                                    // verify again. Not a breaker
                                    // event: the disk answered.
                                    lock(disk).remove(&name);
                                    disk_error = true;
                                    corrupt = true;
                                    remember_absent = true;
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                            if lock(disk).note_missing(&name) {
                                self.emit_quarantine(false);
                            }
                            remember_absent = true;
                        }
                        Err(_) => {
                            // A genuine IO error feeds the circuit
                            // breaker: enough consecutive ones
                            // quarantine the tier instead of re-probing
                            // a sick path on every future get.
                            if lock(disk).note_io_error() {
                                self.emit_quarantine(true);
                            }
                            disk_error = true;
                        }
                    }
                }
                ReadGate::Seg {
                    path,
                    seg,
                    offset,
                    len,
                    map,
                } => {
                    let map = if self.faults.disk_read_error() {
                        Err(std::io::Error::other("injected disk read error"))
                    } else {
                        match map {
                            Some(m) => Ok(m),
                            None => MappedBytes::open(&path).map(|m| {
                                let m = Arc::new(m);
                                lock(disk).note_seg_map(seg, Arc::clone(&m));
                                m
                            }),
                        }
                    };
                    match map {
                        Ok(m) => {
                            let start = offset as usize;
                            let frame = start
                                .checked_add(len as usize)
                                .filter(|&end| end <= m.len())
                                .map(|end| &m[start..end]);
                            match frame.and_then(|f| verify_disk_artifact(f, key)) {
                                Some(range) => {
                                    if lock(disk).note_read(&name, len) {
                                        self.emit_quarantine(false);
                                    }
                                    hit = Some(ArtifactBytes {
                                        source: ByteSource::Map(m),
                                        start: start + range.start,
                                        end: start + range.end,
                                    });
                                }
                                None => {
                                    // Out-of-bounds frame or failed
                                    // verification: corrupt. The entry
                                    // goes dead; the segment is
                                    // reclaimed by liveness GC.
                                    lock(disk).remove(&name);
                                    disk_error = true;
                                    corrupt = true;
                                    remember_absent = true;
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                            if lock(disk).note_missing(&name) {
                                self.emit_quarantine(false);
                            }
                            remember_absent = true;
                        }
                        Err(_) => {
                            if lock(disk).note_io_error() {
                                self.emit_quarantine(true);
                            }
                            disk_error = true;
                        }
                    }
                }
            }
        }
        let mut inner = lock(&self.inner);
        if disk_error {
            inner.stats.disk_errors += 1;
        }
        if corrupt {
            inner.stats.disk_corrupt += 1;
        }
        if let Some(bytes) = hit {
            inner.stats.disk_hits += 1;
            if promote {
                inner.stats.evictions += inner.lru.insert(key.bytes(), Arc::new(bytes.to_vec()));
            }
            return Some(bytes);
        }
        if remember_absent {
            inner.neg.insert(fp);
        }
        inner.stats.misses += 1;
        None
    }

    /// Stores an artifact in both tiers. Disk failures are counted,
    /// fed to the circuit breaker, and otherwise ignored — the cache
    /// stays best-effort.
    pub fn put(&self, key: &ArtifactKey, value: Vec<u8>) {
        let value = Arc::new(value);
        let mut disk_error = false;
        if let Some(disk) = &self.disk {
            let name = Self::name_of(key);
            let mut contents = encode_disk_artifact(key, &value);
            // Injected corruption lands between encoding and the
            // write: the bytes reach the file torn exactly like a
            // storage-layer bit flip would tear them, checksum
            // included.
            self.faults.corrupt(&mut contents);
            let path = lock(disk).pre_write(&name, contents.len() as u64);
            if let Some(path) = path {
                // The temp-file write + fsync + rename runs outside the
                // disk-tier lock: a worker's fsync must never stall the
                // other workers' disk traffic.
                let write = if self.faults.disk_write_error() {
                    Err(std::io::Error::other("injected disk write error"))
                } else {
                    write_atomically(&path, &contents)
                };
                match write {
                    Ok(()) => {
                        if lock(disk).note_write(&name, contents.len() as u64) {
                            self.emit_quarantine(false);
                        }
                        lock(&self.inner).stats.disk_writes += 1;
                    }
                    Err(_) => {
                        if lock(disk).note_io_error() {
                            self.emit_quarantine(true);
                        }
                        disk_error = true;
                    }
                }
            }
        }
        let mut inner = lock(&self.inner);
        if disk_error {
            inner.stats.disk_errors += 1;
        }
        // The key exists now: a lingering negative entry would serve a
        // false miss.
        inner.neg.remove(key.fingerprint().0);
        inner.stats.evictions += inner.lru.insert(key.bytes(), value);
    }

    /// A snapshot of the store counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut s = {
            let inner = lock(&self.inner);
            let mut s = inner.stats;
            s.entries = inner.lru.len();
            s.bytes = inner.lru.bytes;
            s
        };
        if let Some(disk) = &self.disk {
            let disk = lock(disk);
            s.disk_entries = disk.index.len();
            s.disk_bytes = disk.bytes as usize;
            s.disk_evictions = disk.evictions;
            s.disk_expirations = disk.expirations;
            s.segments = disk.segments.len();
            s.segment_bytes = disk.segments.values().map(|i| i.file_bytes as usize).sum();
            s.compactions = disk.compactions;
            s.segment_gcs = disk.segment_gcs;
            s.manifest_fallbacks = disk.fallbacks;
            s.disk_quarantined = disk.breaker.quarantined();
            s.disk_quarantines = disk.breaker.quarantines;
            s.disk_probes = disk.breaker.probes;
        }
        s
    }
}

/// Borrowed artifact bytes from [`ArtifactStore::get_ref`]: either a
/// shared reference into the memory tier or a validated window into a
/// memory-mapped disk file (loose or segment). Dereferences to the
/// artifact value. Holding one keeps the underlying mapping alive —
/// file deletion (eviction, compaction) unlinks the name but the pages
/// stay valid until the last clone drops.
#[derive(Debug, Clone)]
pub struct ArtifactBytes {
    source: ByteSource,
    start: usize,
    end: usize,
}

#[derive(Debug, Clone)]
enum ByteSource {
    Mem(Arc<Vec<u8>>),
    Map(Arc<MappedBytes>),
}

impl ByteSource {
    fn from_vec(v: Vec<u8>) -> Self {
        Self::Mem(Arc::new(v))
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Self::Mem(v) => v,
            Self::Map(m) => m,
        }
    }
}

impl ArtifactBytes {
    /// True when the bytes are served from a memory-mapped file rather
    /// than the in-memory tier.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        matches!(self.source, ByteSource::Map(_))
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copies the value out (what [`ArtifactStore::get`] returns).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl std::ops::Deref for ArtifactBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.source.as_bytes()[self.start..self.end]
    }
}

/// Encodes a disk artifact: the length-framed key and value, followed
/// by a [`Fingerprint`] checksum over those framed bytes. The key
/// comparison makes a hit exact; the checksum makes *any* bit flip in
/// the file detectable (key framing, value bytes, or the checksum
/// itself), so a corrupted resident artifact always reads as a miss
/// and is never decoded into a stage re-entry.
fn encode_disk_artifact(key: &ArtifactKey, value: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.bytes(key.bytes());
    e.bytes(value);
    append_checksum(e.into_bytes())
}

/// Appends a [`Fingerprint`] checksum (two raw little-endian `u64`s,
/// high lane first) over the buffer. Shared by the artifact frame
/// format and the manifest record format.
fn append_checksum(mut contents: Vec<u8>) -> Vec<u8> {
    let check = Fingerprint::of(&contents).0;
    let mut tail = Encoder::new();
    tail.u64((check >> 64) as u64);
    tail.u64(check as u64);
    contents.extend_from_slice(&tail.into_bytes());
    contents
}

/// Verifies a disk artifact frame and returns the byte range of its
/// value: the trailing checksum must verify over the framed bytes *and*
/// the embedded key must match `key` exactly. The zero-copy read path
/// serves `file[range]` straight out of the mapping; the eager path
/// copies it.
fn verify_disk_artifact(file: &[u8], key: &ArtifactKey) -> Option<Range<usize>> {
    let mut d = Decoder::new(file);
    let stored_key = d.bytes().ok()?;
    let value_len = d.bytes().ok()?.len();
    let framed_len = file.len() - d.remaining();
    let check = (u128::from(d.u64().ok()?) << 64) | u128::from(d.u64().ok()?);
    d.finish().ok()?;
    if Fingerprint::of(&file[..framed_len]).0 != check || stored_key != key.bytes() {
        return None;
    }
    Some(framed_len - value_len..framed_len)
}

/// Writes via a sibling temp file + rename so concurrent writers of the
/// same (deterministic) artifact can never expose a torn file. The temp
/// name is unique per process *and* per call: two shards racing on the
/// same key must not share a temp file either.
fn write_atomically(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp{}-{seq}", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(contents)?;
    f.sync_all()?;
    drop(f);
    let renamed = std::fs::rename(&tmp, path);
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> ArtifactKey {
        ArtifactKey::new(PipelineStage::Partition, &[n], &[n, n])
    }

    #[test]
    fn memory_tier_round_trip_and_stats() {
        let store = ArtifactStore::new(StoreConfig::default()).unwrap();
        assert!(store.get(&key(1)).is_none());
        store.put(&key(1), vec![7, 8, 9]);
        assert_eq!(store.get(&key(1)), Some(vec![7, 8, 9]));
        let s = store.stats();
        assert_eq!(s.memory_hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.entries, 1);
        assert!(s.bytes > 3);
    }

    #[test]
    fn keys_distinguish_stage_config_and_pattern() {
        let k = ArtifactKey::new(PipelineStage::Map, b"cfg", b"pat");
        for other in [
            ArtifactKey::new(PipelineStage::Schedule, b"cfg", b"pat"),
            ArtifactKey::new(PipelineStage::Map, b"cfg2", b"pat"),
            ArtifactKey::new(PipelineStage::Map, b"cfg", b"pat2"),
            // Length-prefixing keeps the boundary unambiguous.
            ArtifactKey::new(PipelineStage::Map, b"cfgp", b"at"),
        ] {
            assert_ne!(k, other);
            assert_ne!(k.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut lru = Lru::new(3 * (key(0).bytes().len() + 8));
        for n in 0..3 {
            assert_eq!(lru.insert(key(n).bytes(), Arc::new(vec![n; 8])), 0);
        }
        // Touch 0 so 1 becomes the eviction victim.
        assert!(lru.get(key(0).bytes()).is_some());
        assert_eq!(lru.insert(key(3).bytes(), Arc::new(vec![3; 8])), 1);
        assert!(lru.get(key(1).bytes()).is_none());
        assert!(lru.get(key(0).bytes()).is_some());
        assert!(lru.get(key(2).bytes()).is_some());
        assert!(lru.get(key(3).bytes()).is_some());
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn lru_replaces_in_place_and_skips_oversized() {
        let budget = key(0).bytes().len() + 16;
        let mut lru = Lru::new(budget);
        lru.insert(key(0).bytes(), Arc::new(vec![1; 8]));
        lru.insert(key(0).bytes(), Arc::new(vec![2; 16]));
        assert_eq!(lru.get(key(0).bytes()), Some(&vec![2u8; 16][..]));
        assert_eq!(lru.len(), 1);
        // An artifact larger than the whole budget is not cached (and
        // does not flush everything else out).
        assert_eq!(lru.insert(key(1).bytes(), Arc::new(vec![0; budget + 1])), 0);
        assert!(lru.get(key(1).bytes()).is_none());
        assert!(lru.get(key(0).bytes()).is_some());
        // Same for an oversized *replacement*: the existing entry
        // survives untouched instead of the tier being flushed.
        assert_eq!(lru.insert(key(0).bytes(), Arc::new(vec![9; budget + 1])), 0);
        assert_eq!(lru.get(key(0).bytes()), Some(&vec![2u8; 16][..]));
    }

    /// A unique scratch directory per call (tests run concurrently).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mbqc-store-test-{tag}-{}", std::process::id()))
    }

    fn art_path(dir: &Path, k: &ArtifactKey) -> std::path::PathBuf {
        dir.join(format!("{}.art", k.fingerprint().to_hex()))
    }

    /// Total size of the `.art` files in a directory — the ground
    /// truth the disk budget is asserted against.
    fn dir_art_bytes(dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "art"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    #[test]
    fn disk_tier_survives_restart_and_verifies_keys() {
        let dir = scratch_dir("restart");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            memory_capacity: 1 << 20,
            disk_dir: Some(dir.clone()),
            ..StoreConfig::default()
        };
        {
            let store = ArtifactStore::new(cfg.clone()).unwrap();
            store.put(&key(5), vec![42; 100]);
        }
        // A fresh store (cold memory) restores from disk.
        let store = ArtifactStore::new(cfg.clone()).unwrap();
        assert_eq!(store.get(&key(5)), Some(vec![42; 100]));
        let s = store.stats();
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.entries, 1, "disk hit promotes into memory");
        assert_eq!(s.disk_entries, 1, "restart re-indexed the artifact");
        assert!(s.disk_bytes > 100);
        assert_eq!(store.get(&key(5)), Some(vec![42; 100]));
        assert_eq!(store.stats().memory_hits, 1);

        // Corrupt the file: the store degrades to a miss.
        std::fs::write(art_path(&dir, &key(5)), b"garbage").unwrap();
        let store = ArtifactStore::new(cfg).unwrap();
        assert_eq!(store.get(&key(5)), None);
        assert_eq!(store.stats().disk_errors, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_budget_evicts_least_recently_accessed() {
        let dir = scratch_dir("budget");
        let _ = std::fs::remove_dir_all(&dir);
        // Room for roughly two artifacts (file = key framing + 200-byte
        // value), and a tiny memory tier so reads actually hit disk.
        let file_size = {
            let probe = ArtifactStore::new(StoreConfig {
                memory_capacity: 1,
                disk_dir: Some(dir.clone()),
                disk_capacity: None,
                ..StoreConfig::default()
            })
            .unwrap();
            probe.put(&key(0), vec![0; 200]);
            probe.stats().disk_bytes as u64
        };
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            memory_capacity: 1,
            disk_dir: Some(dir.clone()),
            disk_capacity: Some((2 * file_size + file_size / 2) as usize),
            ..StoreConfig::default()
        };
        let store = ArtifactStore::new(cfg.clone()).unwrap();
        store.put(&key(1), vec![1; 200]);
        store.put(&key(2), vec![2; 200]);
        // Touch 1 so 2 becomes the eviction victim.
        assert!(store.get(&key(1)).is_some());
        store.put(&key(3), vec![3; 200]);
        let s = store.stats();
        assert_eq!(s.disk_evictions, 1);
        assert_eq!(s.disk_entries, 2);
        assert!(s.disk_bytes as u64 <= 2 * file_size + file_size / 2);
        assert!(dir_art_bytes(&dir) <= 2 * file_size + file_size / 2);
        assert!(store.get(&key(2)).is_none(), "LRU victim evicted");
        assert!(store.get(&key(1)).is_some());
        assert!(store.get(&key(3)).is_some());

        // An artifact larger than the whole budget is never written.
        store.put(&key(4), vec![4; 3 * file_size as usize]);
        assert!(dir_art_bytes(&dir) <= 2 * file_size + file_size / 2);

        // A restart over an over-budget directory evicts on open.
        drop(store);
        let unbounded = ArtifactStore::new(StoreConfig {
            disk_capacity: None,
            ..cfg.clone()
        })
        .unwrap();
        unbounded.put(&key(5), vec![5; 200]);
        unbounded.put(&key(6), vec![6; 200]);
        drop(unbounded);
        let store = ArtifactStore::new(cfg).unwrap();
        let s = store.stats();
        assert!(
            s.disk_bytes as u64 <= 2 * file_size + file_size / 2,
            "{s:?}"
        );
        assert!(dir_art_bytes(&dir) <= 2 * file_size + file_size / 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_ttl_expires_artifacts() {
        let dir = scratch_dir("ttl");
        let _ = std::fs::remove_dir_all(&dir);
        let mk = |ttl| {
            ArtifactStore::new(StoreConfig {
                memory_capacity: 1, // force disk reads
                disk_dir: Some(dir.clone()),
                disk_capacity: None,
                disk_ttl: ttl,
                ..StoreConfig::default()
            })
            .unwrap()
        };
        // A generous TTL keeps the artifact readable…
        let store = mk(Some(Duration::from_secs(3600)));
        store.put(&key(7), vec![7; 50]);
        assert!(store.get(&key(7)).is_some());
        drop(store);
        // …a zero TTL expires it on the next lookup (and deletes it).
        let store = mk(Some(Duration::ZERO));
        store.put(&key(8), vec![8; 50]);
        assert!(store.get(&key(8)).is_none());
        let s = store.stats();
        assert!(s.disk_expirations >= 1, "{s:?}");
        assert!(!art_path(&dir, &key(8)).exists());
        // The long-TTL artifact also ages out across the zero-TTL
        // restart (its mtime is in the past).
        assert!(store.get(&key(7)).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_bit_flips_are_always_detected_and_self_healed() {
        let dir = scratch_dir("bitflip");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            memory_capacity: 1, // force disk reads
            disk_dir: Some(dir.clone()),
            ..StoreConfig::default()
        };
        let store = ArtifactStore::new(cfg.clone()).unwrap();
        store.put(&key(3), vec![0xAB; 64]);
        let path = art_path(&dir, &key(3));
        let clean = std::fs::read(&path).unwrap();
        // Every single-bit flip anywhere in the file — key framing,
        // value bytes, or the checksum itself — must read as a miss.
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut torn = clean.clone();
                torn[byte] ^= 1 << bit;
                std::fs::write(&path, &torn).unwrap();
                let store = ArtifactStore::new(cfg.clone()).unwrap();
                assert_eq!(store.get(&key(3)), None, "byte {byte} bit {bit}");
                let s = store.stats();
                assert_eq!((s.disk_errors, s.disk_corrupt), (1, 1));
                assert!(!path.exists(), "corrupt file is deleted");
                // Re-seed for the next flip.
                write_atomically(&path, &clean).unwrap();
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_and_oversized_files_read_as_corrupt_misses() {
        let dir = scratch_dir("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            memory_capacity: 1,
            disk_dir: Some(dir.clone()),
            ..StoreConfig::default()
        };
        let store = ArtifactStore::new(cfg.clone()).unwrap();
        store.put(&key(9), vec![9; 40]);
        let path = art_path(&dir, &key(9));
        let clean = std::fs::read(&path).unwrap();
        for torn in [&clean[..clean.len() / 2], &[&clean[..], b"x"].concat()[..]] {
            std::fs::write(&path, torn).unwrap();
            let store = ArtifactStore::new(cfg.clone()).unwrap();
            assert_eq!(store.get(&key(9)), None);
            assert_eq!(store.stats().disk_corrupt, 1);
            write_atomically(&path, &clean).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn breaker_opens_after_threshold_and_reprobes() {
        let mut b = Breaker::new(3, Duration::from_secs(3600));
        assert!(b.allow() && !b.quarantined());
        b.failure();
        b.failure();
        assert!(b.allow(), "below threshold stays closed");
        b.failure();
        assert!(b.quarantined());
        // Quarantined: the first allow() within the probe interval is
        // denied; the gate has already been armed far in the future.
        assert!(!b.allow());
        assert_eq!(b.quarantines, 1);
        // A success (e.g. from a half-open probe) closes it again.
        b.success();
        assert!(!b.quarantined() && b.allow());
        // Successes also reset the consecutive-failure run.
        b.failure();
        b.failure();
        b.success();
        b.failure();
        b.failure();
        assert!(!b.quarantined(), "non-consecutive failures do not open");
    }

    #[test]
    fn breaker_half_open_probe_fires_after_interval() {
        let mut b = Breaker::new(1, Duration::ZERO);
        b.failure();
        assert!(b.quarantined());
        // Zero probe interval: the deadline is always in the past, so
        // every allow() is a half-open probe.
        assert!(b.allow());
        assert!(b.probes >= 1);
        b.failure(); // probe failed: stays quarantined
        assert!(b.quarantined());
        assert!(b.allow());
        b.success(); // probe succeeded: closes
        assert!(!b.quarantined());
    }

    #[cfg(feature = "fault-inject")]
    mod injected {
        use super::*;
        use crate::fault::{FaultConfig, FaultPlan};

        fn faulty(dir: &Path, faults: FaultPlan) -> ArtifactStore {
            ArtifactStore::new(StoreConfig {
                memory_capacity: 1, // force disk traffic
                disk_dir: Some(dir.to_path_buf()),
                disk_error_threshold: 2,
                faults,
                ..StoreConfig::default()
            })
            .unwrap()
        }

        #[test]
        fn injected_read_errors_quarantine_the_disk_tier() {
            let dir = scratch_dir("inj-read");
            let _ = std::fs::remove_dir_all(&dir);
            let plan = FaultPlan::new(FaultConfig {
                seed: 7,
                disk_read_error: 1.0,
                ..FaultConfig::default()
            });
            let store = faulty(&dir, plan);
            store.put(&key(1), vec![1; 32]);
            assert_eq!(store.get(&key(1)), None);
            assert_eq!(store.get(&key(1)), None);
            let s = store.stats();
            assert!(s.disk_quarantined, "{s:?}");
            assert_eq!(s.disk_quarantines, 1);
            assert_eq!(s.disk_errors, 2);
            // Quarantined tier: later operations skip the disk
            // entirely, so the p=1.0 fault site is never even reached
            // — no new IO errors accrue (this store's memory tier is
            // deliberately too small to hold anything, so the get is
            // just a quiet miss).
            store.put(&key(2), vec![2; 32]);
            assert_eq!(store.get(&key(2)), None);
            assert_eq!(store.stats().disk_errors, 2, "fault site skipped");
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn injected_corruption_is_caught_by_the_checksum() {
            let dir = scratch_dir("inj-corrupt");
            let _ = std::fs::remove_dir_all(&dir);
            let plan = FaultPlan::new(FaultConfig {
                seed: 11,
                disk_corrupt: 1.0,
                ..FaultConfig::default()
            });
            let store = faulty(&dir, plan);
            store.put(&key(4), vec![4; 32]);
            assert_eq!(store.get(&key(4)), None, "torn bytes never served");
            let s = store.stats();
            assert_eq!((s.disk_corrupt, s.disk_errors), (1, 1));
            assert!(!s.disk_quarantined, "corruption is not a breaker event");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
