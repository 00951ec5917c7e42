//! The content-addressed stage-artifact store.
//!
//! Every pipeline stage output is stored under an [`ArtifactKey`]: the
//! canonical bytes of `(stage, stage-scoped config fingerprint, pattern
//! content)`. Lookups compare the *full key bytes*, never just a hash,
//! so a hit is guaranteed to be the artifact of exactly this input —
//! the 128-bit [`Fingerprint`] only names disk files, and a 64-bit
//! hash computed once when the key is built buckets the in-memory map
//! (which never rehashes the key bytes). A job's three stage keys share
//! one buffer of the pattern's content bytes.
//!
//! Two tiers:
//!
//! * an in-memory LRU bounded by a byte budget (intrusive list over a
//!   slab; O(1) get/insert/evict). The budget charges each entry its
//!   value plus its full key length, as if no key shared its pattern
//!   buffer, so resident memory stays below the budget. The tier holds
//!   each distinct pattern's content bytes once: a pattern index maps
//!   the pattern hash to the one buffer every resident key of that
//!   pattern is built on (equal bytes, every byte compared), and drops
//!   the buffer with the last such key. Values are stored at their
//!   exact length; and
//! * an optional on-disk tier — one `<fingerprint>.art` file per
//!   artifact, written via temp-file + fsync + rename — giving
//!   persistence and warm restarts. Disk reads verify the embedded key
//!   *and* a content checksum (a [`Fingerprint`] over the framed key +
//!   value), then promote the artifact into the memory tier, so the
//!   next read of it is a memory hit. Every disk failure degrades to a
//!   cache miss, never an error, and a file that fails verification is
//!   deleted on detection (it can never verify again, so keeping it
//!   would cost a failed decode per lookup). An optional byte budget
//!   ([`StoreConfig::disk_capacity`]) evicts least-recently-accessed
//!   artifacts.
//!
//! Each memory-tier entry also carries a **trust bit**, read only by the
//! service's `Schedule`-stage lookups. An entry is trusted when its
//! bytes are known to decode to a valid schedule: the schedule task
//! encoded them from a schedule it computed itself
//! (`ArtifactStore::put_trusted`), or they passed
//! `DistributedSchedule::from_bytes` since they were stored
//! (`ArtifactStore::mark_trusted`, which trusts only the exact `Arc` it
//! was shown, so a concurrent replace is never trusted). Everything else
//! is untrusted: bytes written through the public [`ArtifactStore::put`],
//! a disk-tier promotion, and any slot whose value was replaced by
//! either. A trusted hit is served without a decode; an untrusted one is
//! validated first.
//!
//! Next to the trust bit, each entry holds a **checksum cell** for its
//! value: empty until a reader of the bytes fills it once (the
//! `mbqc-net` server caches its reply's frame checksum there, through
//! `ScheduleBytes::reply_checksum`), then shared by every later reader
//! of the same buffer. A cell belongs to one buffer: `put`,
//! `put_trusted` and a disk-tier promotion each store a new value with
//! a new cell (`put_trusted` takes the one its caller's result holds),
//! and `mark_trusted` keeps the cell, since it keeps the buffer.
//!
//! **The directory is the index.** Compilation is a pure function of
//! `(pattern, config)`, so every artifact is recomputable and the disk
//! tier is only a cache. Each `.art` file is the latest atomic rename
//! for its key and every removal unlinks the file, so reading the file
//! answers last-put-or-miss by itself; the in-memory index only tracks
//! sizes and recency for the byte budget. Opening a store rebuilds that
//! index with one directory scan: stale temp files are deleted, every
//! `.art` file is adopted, and recency comes from file modification
//! times (one-second granularity on many filesystems, so same-second
//! entries can come back reordered — harmless for a cache).
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
//! Two integrity properties hold under job-lifecycle churn
//! (property-tested in `tests/proptest_service.rs` and
//! `tests/proptest_lifecycle.rs`): a key-verified read never observes
//! a torn write — atomic rename plus full-key comparison turn any
//! partial/abandoned write (a cancelled or killed writer's stale temp
//! file, a truncated artifact) into a miss, and restarts sweep the
//! leftovers — and the store only ever holds artifacts a non-cancelled
//! job's task published: the executor gates every store write on the
//! job's cancellation flag at the task boundary (see
//! [`crate::executor`]), so a cancelled job contributes nothing.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

use dc_mbqc::PipelineStage;
use mbqc_util::codec::{Decoder, Encoder};
use mbqc_util::sync::lock;
use mbqc_util::Fingerprint;

use crate::fault::FaultPlan;
use crate::memo::Content;
use crate::telemetry::{EventKind, TelemetryHub};

/// A content-addressed cache key: canonical bytes of
/// `(stage, config fingerprint, pattern content)`. The stage is the
/// pipeline's own [`PipelineStage`] — the artifact stored under
/// `Partition` is a `Partition`, under `Map` a partition plus per-QPU
/// programs, under `Schedule` a full `DistributedSchedule`.
///
/// The canonical bytes are `head ++ pattern`: a small head (the stage
/// tag, the length-framed configuration bytes and the pattern's length
/// prefix) and the pattern's content bytes. Both parts sit behind an
/// [`Arc`], so clones (and the memory tier's copy) share them, and the
/// three stage keys of one job share a single pattern buffer. The
/// in-memory hash is computed at construction: [`Hash`] writes only
/// that hash, while equality compares every byte.
#[derive(Debug, Clone)]
pub struct ArtifactKey {
    head: Arc<[u8]>,
    pattern: Arc<Vec<u8>>,
    /// [`ArtifactKey::pattern_hash`] of the pattern bytes: the memory
    /// tier's pattern index is keyed by it.
    pattern_hash: u64,
    /// SipHash, under per-process random keys (see
    /// [`key_hash_state`]), of the stage, the configuration bytes and
    /// the pattern bytes' own hash.
    hash: u64,
}

/// The SipHash keys of every [`ArtifactKey`] hash, drawn once per
/// process: patterns arrive over the network, and fixed keys would let
/// a client craft keys that collide in the memory tier's map.
fn key_hash_state() -> &'static RandomState {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new)
}

impl PartialEq for ArtifactKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.head == other.head
            && (Arc::ptr_eq(&self.pattern, &other.pattern) || self.pattern == other.pattern)
    }
}

impl Eq for ArtifactKey {}

impl Hash for ArtifactKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl ArtifactKey {
    /// Builds the key for `stage` from the stage-scoped configuration
    /// fingerprint bytes and the pattern's content bytes.
    #[must_use]
    pub fn new(stage: PipelineStage, config_bytes: &[u8], pattern_bytes: &[u8]) -> Self {
        let pattern_hash = Self::pattern_hash(pattern_bytes);
        Self::with_pattern(
            stage,
            config_bytes,
            Arc::new(pattern_bytes.to_vec()),
            pattern_hash,
        )
    }

    /// The hash of a pattern's content bytes that
    /// [`ArtifactKey::with_pattern`] takes.
    pub(crate) fn pattern_hash(pattern_bytes: &[u8]) -> u64 {
        key_hash_state().hash_one(pattern_bytes)
    }

    /// [`ArtifactKey::new`] over a shared pattern buffer and its hash,
    /// so the keys of one pattern's stages share its bytes and pass
    /// over them once. Equal keys have equal `(stage, config, pattern)`
    /// and so equal hashes.
    pub(crate) fn with_pattern(
        stage: PipelineStage,
        config_bytes: &[u8],
        pattern: Arc<Vec<u8>>,
        pattern_hash: u64,
    ) -> Self {
        let tag = match stage {
            PipelineStage::Partition => 0,
            PipelineStage::Map => 1,
            PipelineStage::Schedule => 2,
        };
        let mut e = Encoder::with_capacity(17 + config_bytes.len());
        e.u8(tag);
        e.bytes(config_bytes);
        e.usize(pattern.len());
        Self {
            head: e.into_bytes().into(),
            pattern,
            pattern_hash,
            hash: key_hash_state().hash_one((tag, config_bytes, pattern_hash)),
        }
    }

    /// The 128-bit fingerprint naming this key's disk file: the
    /// fingerprint of the canonical bytes, hashed from the two parts.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of_parts(&[&self.head, &self.pattern])
    }

    /// Length of the canonical bytes: what the memory tier charges for
    /// the key, although the pattern part may be shared.
    fn len(&self) -> usize {
        self.head.len() + self.pattern.len()
    }

    /// The pattern buffer, to check that a job's keys share it.
    #[cfg(test)]
    pub(crate) fn pattern_buffer(&self) -> &Arc<Vec<u8>> {
        &self.pattern
    }

    /// `true` when `bytes` are exactly this key's canonical bytes.
    fn matches(&self, bytes: &[u8]) -> bool {
        bytes
            .split_at_checked(self.head.len())
            .is_some_and(|(head, pattern)| head == &self.head[..] && pattern == &self.pattern[..])
    }
}

/// The memory tier's hasher: passes an [`ArtifactKey`]'s precomputed
/// hash through, so a lookup costs no pass over the key bytes.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("artifact keys hash through write_u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Byte budget of the in-memory LRU tier (keys + values).
    ///
    /// What is charged: each entry's value length plus its full key
    /// length, the pattern's content bytes included, as if no key
    /// shared them. What is resident: one content buffer per distinct
    /// pattern among the resident keys, however many stages and
    /// configurations key it, and each value at its exact length. So
    /// resident memory stays below this budget, far below it when many
    /// keys share a pattern; the charge decides which entries stay and
    /// the eviction order, never the sharing.
    pub memory_capacity: usize,
    /// Directory of the on-disk tier; `None` disables it.
    pub disk_dir: Option<PathBuf>,
    /// Byte budget of the on-disk tier (file sizes, i.e. keys +
    /// values + framing); `None` leaves it unbounded. When the budget
    /// would be exceeded, least-recently-accessed artifacts are
    /// deleted first; an artifact larger than the whole budget is not
    /// written at all.
    pub disk_capacity: Option<usize>,
    /// Circuit breaker: consecutive disk IO errors (reads or writes)
    /// before the disk tier is quarantined into memory-only degraded
    /// mode. `u32::MAX` effectively disables the breaker.
    pub disk_error_threshold: u32,
    /// How often a quarantined disk tier lets one operation through as
    /// a recovery probe (the first success closes the breaker).
    /// `Duration::ZERO` probes on every operation.
    pub disk_probe_interval: Duration,
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
            disk_error_threshold: 8,
            disk_probe_interval: Duration::from_secs(2),
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
    /// Bytes (keys + values) the memory tier's budget charges its
    /// entries: shared pattern bytes count once per key (see
    /// [`StoreConfig::memory_capacity`]).
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
    /// Disk operations that failed and degraded to a miss / skipped
    /// write (never an error). Counts IO errors *and* verification
    /// failures.
    pub disk_errors: u64,
    /// Disk reads whose bytes failed checksum/key verification (a
    /// subset of `disk_errors`): the corrupt file was served as a miss
    /// and deleted, never decoded.
    pub disk_corrupt: u64,
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

/// A checksum cell tied to one stored buffer: filled at most once, by
/// the first reader that needs a checksum over those bytes (the
/// network front door's `Outcome` reply, see
/// [`ScheduleBytes::reply_checksum`](crate::ScheduleBytes::reply_checksum)),
/// and shared by everyone served that buffer. Each new value a slot
/// takes — a put, an overwrite, a recompile, a disk-tier promotion —
/// comes with a new, empty cell, so a checksum never outlives its
/// bytes.
pub(crate) type ChecksumCell = Arc<OnceLock<u64>>;

/// A memory-tier entry as a lookup hands it out: the shared value, its
/// trust bit and its checksum cell.
pub(crate) type Entry = (Arc<Vec<u8>>, bool, ChecksumCell);

#[derive(Debug)]
struct Slot {
    /// Shares its bytes with the map key, and its pattern buffer with
    /// every resident key of the same pattern (see [`PatternIndex`]);
    /// the byte accounting below charges the pattern to every entry
    /// that holds it. `None` once evicted.
    key: Option<ArtifactKey>,
    /// Shared with in-flight readers: a memory hit clones the `Arc`,
    /// never the bytes.
    value: Arc<Vec<u8>>,
    /// The trust bit (see the module docs): set by `put_trusted` and
    /// `mark_trusted`, cleared by every other write of the slot.
    trusted: bool,
    /// `value`'s checksum cell, replaced with every new value.
    checksum: ChecksumCell,
    prev: usize,
    next: usize,
}

/// One interned pattern: the content buffer and the number of
/// resident keys built on it.
#[derive(Debug)]
struct Interned {
    bytes: Arc<Vec<u8>>,
    keys: usize,
}

/// The memory tier's pattern index: pattern hash → the one content
/// buffer that every resident key of that pattern shares. Buckets hold
/// more than one buffer only when distinct patterns collide on the
/// hash; a match always compares every byte. An entry leaves with its
/// last resident key, so the index never outgrows the tier.
#[derive(Debug, Default)]
struct PatternIndex {
    by_hash: HashMap<u64, Vec<Interned>, BuildHasherDefault<KeyHasher>>,
}

impl PatternIndex {
    /// Counts a new resident key of `key`'s pattern and returns the
    /// buffer it is to share: the indexed one for these bytes, or
    /// `key`'s own, which is indexed from now on.
    fn acquire(&mut self, key: &ArtifactKey) -> Arc<Vec<u8>> {
        let bucket = self.by_hash.entry(key.pattern_hash).or_default();
        let found = bucket
            .iter_mut()
            .find(|i| Arc::ptr_eq(&i.bytes, &key.pattern) || i.bytes == key.pattern);
        match found {
            Some(interned) => {
                interned.keys += 1;
                Arc::clone(&interned.bytes)
            }
            None => {
                bucket.push(Interned {
                    bytes: Arc::clone(&key.pattern),
                    keys: 1,
                });
                Arc::clone(&key.pattern)
            }
        }
    }

    /// Uncounts an evicted key, built on an indexed buffer by
    /// [`acquire`](Self::acquire); the buffer leaves with its last key.
    fn release(&mut self, key: &ArtifactKey) {
        let bucket = self
            .by_hash
            .get_mut(&key.pattern_hash)
            .expect("resident keys are indexed");
        let at = bucket
            .iter()
            .position(|i| Arc::ptr_eq(&i.bytes, &key.pattern))
            .expect("resident keys share their indexed buffer");
        bucket[at].keys -= 1;
        if bucket[at].keys == 0 {
            bucket.swap_remove(at);
            if bucket.is_empty() {
                self.by_hash.remove(&key.pattern_hash);
            }
        }
    }
}

/// Intrusive-list LRU over a slab, bounded by a byte budget.
#[derive(Debug)]
struct Lru {
    map: HashMap<ArtifactKey, usize, BuildHasherDefault<KeyHasher>>,
    /// The pattern buffers of the keys in `map`.
    patterns: PatternIndex,
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
            map: HashMap::default(),
            patterns: PatternIndex::default(),
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
    fn get(&mut self, key: &ArtifactKey) -> Option<&[u8]> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(&self.slots[i].value)
    }

    /// Looks up `key`, marks it most recently used, and returns the
    /// shared value handle (an `Arc` clone, no byte copy), the entry's
    /// trust bit and the value's checksum cell.
    fn get_arc(&mut self, key: &ArtifactKey) -> Option<Entry> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        let slot = &self.slots[i];
        Some((
            Arc::clone(&slot.value),
            slot.trusted,
            Arc::clone(&slot.checksum),
        ))
    }

    /// Inserts (or replaces) an entry with the given trust bit and the
    /// value's checksum cell, evicting from the tail until the budget
    /// holds. A new entry's key is stored on the pattern index's buffer
    /// for its bytes. Oversized artifacts are not cached (a replace
    /// with an oversized value keeps the existing entry, trust bit and
    /// cell included, rather than flushing the whole tier). Returns the
    /// number of evictions.
    fn insert(
        &mut self,
        key: &ArtifactKey,
        value: Arc<Vec<u8>>,
        trusted: bool,
        checksum: ChecksumCell,
    ) -> u64 {
        debug_assert_eq!(value.capacity(), value.len(), "stored values are exact");
        let cost = key.len() + value.len();
        if cost > self.capacity {
            return 0;
        }
        if let Some(&i) = self.map.get(key) {
            self.bytes = self.bytes - self.slots[i].value.len() + value.len();
            self.slots[i].value = value;
            self.slots[i].trusted = trusted;
            self.slots[i].checksum = checksum;
            self.unlink(i);
            self.push_front(i);
        } else {
            let key = ArtifactKey {
                pattern: self.patterns.acquire(key),
                ..key.clone()
            };
            let slot = Slot {
                key: Some(key.clone()),
                value,
                trusted,
                checksum,
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
            let key = self.slots[t].key.take().expect("listed slots are live");
            self.bytes -= key.len() + self.slots[t].value.len();
            self.map.remove(&key);
            self.patterns.release(&key);
            self.slots[t].value = Arc::new(Vec::new());
            self.slots[t].trusted = false;
            self.free.push(t);
            evictions += 1;
        }
        evictions
    }

    /// Sets `key`'s trust bit if its slot still holds `value` (the
    /// same allocation, not equal bytes). Leaves recency alone.
    fn mark_trusted(&mut self, key: &ArtifactKey, value: &Arc<Vec<u8>>) {
        if let Some(&i) = self.map.get(key) {
            let slot = &mut self.slots[i];
            if Arc::ptr_eq(&slot.value, value) {
                slot.trusted = true;
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

#[derive(Debug)]
struct StoreInner {
    lru: Lru,
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

/// Per-artifact bookkeeping of the disk tier's in-memory index.
#[derive(Debug)]
struct DiskEntry {
    /// File size in bytes.
    size: u64,
    /// Recency stamp (key into `by_recency`).
    seq: u64,
}

/// The bounded on-disk tier: one `.art` file per artifact plus an
/// in-memory index of sizes and recency. Opening the tier rebuilds the
/// index by scanning the directory (recency from file modification
/// times), so the byte budget holds across restarts too.
///
/// Artifact reads and writes are *not* performed under this tier's
/// lock: lookups and stores run as lock–IO–lock sequences (`pre_read` /
/// `note_read`, `pre_write` / `note_write`) so a worker's
/// millisecond-scale read or fsync never stalls the other workers'
/// disk traffic. Deletions are the exception: [`Self::remove`] and
/// [`Self::evict_to_budget`] unlink files under the lock, so the index
/// and the directory change together. The transient races the unlocked
/// phases admit (a file landing while another worker evicts, two
/// workers storing the same deterministic artifact) at worst leave the
/// accounting briefly off by one in-flight file; the next bookkeeping
/// call reconverges it.
#[derive(Debug)]
struct DiskTier {
    dir: PathBuf,
    capacity: Option<u64>,
    index: HashMap<String, DiskEntry>,
    /// Recency order: lowest sequence number = least recently used.
    by_recency: BTreeMap<u64, String>,
    /// Sum of the indexed file sizes.
    bytes: u64,
    next_seq: u64,
    evictions: u64,
    breaker: Breaker,
}

impl DiskTier {
    /// Opens (and bounds) the tier: creates the directory, indexes it
    /// with one scan, and evicts down to the byte budget.
    fn open(dir: PathBuf, capacity: Option<u64>, breaker: Breaker) -> std::io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        let mut tier = Self {
            dir,
            capacity,
            index: HashMap::new(),
            by_recency: BTreeMap::new(),
            bytes: 0,
            next_seq: 0,
            evictions: 0,
            breaker,
        };
        tier.scan()?;
        tier.evict_to_budget();
        Ok(tier)
    }

    /// Indexes every `.art` file, oldest modification time first, and
    /// deletes the leftovers of earlier processes.
    fn scan(&mut self) -> std::io::Result<()> {
        // (modified, name, size) — sorted for a stable recency order
        // before sequence numbers are assigned.
        let mut found: Vec<(SystemTime, String, u64)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            if ext.starts_with("tmp") {
                // A writer died mid-write in a previous life.
                let _ = std::fs::remove_file(&path);
            } else if ext == "seg" || entry.file_name() == "manifest.log" {
                // An earlier build's segment files and restart log; nothing reads them now.
                let _ = std::fs::remove_file(&path);
            } else if ext == "art" {
                let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                    continue;
                };
                let Ok(meta) = entry.metadata() else { continue };
                let modified = meta.modified().unwrap_or_else(|_| SystemTime::now());
                found.push((modified, name.to_string(), meta.len()));
            }
        }
        // Oldest first, name-tie-broken: restarts reproduce a stable
        // recency order.
        found.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (_, name, size) in found {
            self.insert_entry(&name, size);
        }
        Ok(())
    }

    /// Indexes an artifact at most-recently-used. An existing entry of
    /// the same name is replaced: the new file took its path.
    fn insert_entry(&mut self, name: &str, size: u64) {
        self.drop_entry(name);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_recency.insert(seq, name.to_string());
        self.index.insert(name.to_string(), DiskEntry { size, seq });
        self.bytes += size;
    }

    /// Drops an entry from the index (no file deletion).
    fn drop_entry(&mut self, name: &str) {
        if let Some(entry) = self.index.remove(name) {
            self.by_recency.remove(&entry.seq);
            self.bytes = self.bytes.saturating_sub(entry.size);
        }
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.art"))
    }

    /// Drops one artifact from the index and deletes its file. The file
    /// is deleted for unindexed names too: they can still name a real
    /// file (external writers share the directory), and a corrupt
    /// artifact must not be served twice.
    fn remove(&mut self, name: &str) {
        self.drop_entry(name);
        let _ = std::fs::remove_file(self.path_of(name));
    }

    /// Deletes least-recently-accessed artifacts until the byte budget
    /// holds (no-op without a budget).
    fn evict_to_budget(&mut self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.bytes > capacity {
            let Some((_, name)) = self.by_recency.first_key_value() else {
                break;
            };
            let name = name.clone();
            self.remove(&name);
            self.evictions += 1;
        }
    }

    /// Lookup phase 1 (locked): the circuit-breaker gate. A quarantined
    /// tier answers `None` (memory-only degraded mode); otherwise the
    /// caller reads the returned path *outside* the lock — even for
    /// unindexed names, which may be files written by a sibling process
    /// sharing the directory.
    fn pre_read(&mut self, name: &str) -> Option<PathBuf> {
        self.breaker.allow().then(|| self.path_of(name))
    }

    /// Lookup phase 2 (locked, after a successful unlocked read):
    /// refreshes the artifact's recency, adopting externally written
    /// files into the index so the budget keeps counting them.
    fn note_read(&mut self, name: &str, size: u64) -> bool {
        let reopened = self.breaker.success();
        match self.index.get_mut(name) {
            Some(entry) => {
                // Touch: most-recently-used now.
                self.by_recency.remove(&entry.seq);
                entry.seq = self.next_seq;
                self.next_seq += 1;
                self.by_recency.insert(entry.seq, name.to_string());
            }
            None => {
                self.insert_entry(name, size);
                self.evict_to_budget();
            }
        }
        reopened
    }

    /// Lookup cleanup (locked): the file turned out not to exist —
    /// drop any stale index entry so the budget stops counting it
    /// (e.g. an eviction raced an in-flight write). NotFound means
    /// the disk *answered*, so it counts as a breaker success.
    fn note_missing(&mut self, name: &str) -> bool {
        let reopened = self.breaker.success();
        self.drop_entry(name);
        reopened
    }

    /// A disk read or write failed with a genuine IO error: feed the
    /// circuit breaker (enough consecutive errors quarantine the
    /// tier).
    fn note_io_error(&mut self) -> bool {
        self.breaker.failure()
    }

    /// Store phase 1 (locked): circuit-breaker gate and admission. A
    /// quarantined tier and artifacts larger than the whole budget are
    /// rejected (`None`); otherwise the caller performs the temp-file +
    /// rename write *outside* the lock (concurrent writers of the same
    /// deterministic artifact are safe — unique temp names, atomic
    /// rename).
    fn pre_write(&mut self, name: &str, size: u64) -> Option<PathBuf> {
        if !self.breaker.allow() || self.capacity.is_some_and(|c| size > c) {
            return None;
        }
        Some(self.path_of(name))
    }

    /// Store phase 2 (locked, after a successful unlocked write):
    /// replaces the artifact's index entry and evicts back down to the
    /// byte budget.
    fn note_write(&mut self, name: &str, size: u64) -> bool {
        let reopened = self.breaker.success();
        self.insert_entry(name, size);
        self.evict_to_budget();
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
                Breaker::new(config.disk_error_threshold, config.disk_probe_interval),
            )?)),
            None => None,
        };
        Ok(Self {
            inner: Mutex::new(StoreInner {
                lru: Lru::new(config.memory_capacity),
                stats: StoreStats::default(),
            }),
            disk,
            faults: config.faults,
            telemetry: OnceLock::new(),
        })
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
    /// artifact into memory). A hit hands out the memory tier's shared
    /// bytes: an `Arc` clone, never a copy. The disk read happens
    /// *outside* the memory-tier lock so one worker's cold miss never
    /// stalls the others' memory-tier traffic.
    #[must_use]
    pub fn get(&self, key: &ArtifactKey) -> Option<Arc<Vec<u8>>> {
        self.get_entry(key).map(|(value, ..)| value)
    }

    /// [`get`](Self::get) plus the entry's trust bit (see the module
    /// docs) and checksum cell. A disk-tier hit is promoted untrusted,
    /// with a new cell.
    pub(crate) fn get_entry(&self, key: &ArtifactKey) -> Option<Entry> {
        if let Some(entry) = self.get_resident(key) {
            return Some(entry);
        }
        let mut disk_error = false;
        let mut corrupt = false;
        let mut hit: Option<Arc<Vec<u8>>> = None;
        if let Some(disk) = &self.disk {
            let name = Self::name_of(key);
            // Bound to a `let` so the disk-lock temporary drops here —
            // an `if let` scrutinee would hold the guard across the
            // body, and the body re-locks.
            let path = lock(disk).pre_read(&name);
            if let Some(path) = path {
                // The file read runs outside the disk-tier lock too:
                // only index bookkeeping serializes, never reads.
                // Injected read errors take the exact path a real one
                // would.
                let read = if self.faults.disk_read_error() {
                    Err(std::io::Error::other("injected disk read error"))
                } else {
                    std::fs::read(&path)
                };
                match read {
                    Ok(file) => {
                        if lock(disk).note_read(&name, file.len() as u64) {
                            self.emit_quarantine(false);
                        }
                        match verify_disk_artifact(&file, key) {
                            Some(value) => hit = Some(Arc::new(value.to_vec())),
                            None => {
                                // Checksum or key verification failed:
                                // the artifact is corrupt (or a
                                // fingerprint collision named a foreign
                                // key). Serve a miss and delete the
                                // file — it can never verify again. Not
                                // a breaker event: the disk answered.
                                lock(disk).remove(&name);
                                disk_error = true;
                                corrupt = true;
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        if lock(disk).note_missing(&name) {
                            self.emit_quarantine(false);
                        }
                    }
                    Err(_) => {
                        // A genuine IO error feeds the circuit breaker:
                        // enough consecutive ones quarantine the tier
                        // instead of re-probing a sick path on every
                        // future get.
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
        if corrupt {
            inner.stats.disk_corrupt += 1;
        }
        if let Some(value) = hit {
            inner.stats.disk_hits += 1;
            let checksum = ChecksumCell::default();
            inner.stats.evictions +=
                inner
                    .lru
                    .insert(key, Arc::clone(&value), false, Arc::clone(&checksum));
            return Some((value, false, checksum));
        }
        inner.stats.misses += 1;
        None
    }

    /// The memory tier's half of [`get_entry`](Self::get_entry): a hit
    /// counts in [`StoreStats::memory_hits`] and refreshes the entry's
    /// recency; an absent key counts nothing and never touches the disk
    /// tier. The service's submit-time probe reads through this, so
    /// disk reads stay on workers.
    pub(crate) fn get_resident(&self, key: &ArtifactKey) -> Option<Entry> {
        let mut inner = lock(&self.inner);
        let entry = inner.lru.get_arc(key)?;
        inner.stats.memory_hits += 1;
        Some(entry)
    }

    /// A pattern's content bytes and hash, on the memory tier's buffer
    /// for them when a resident key holds equal bytes (every byte
    /// compared, outside the store lock): keys built on the result
    /// share that buffer and compare with resident keys by pointer.
    /// Counts nothing and refreshes nothing.
    pub(crate) fn intern(&self, (bytes, hash): Content) -> Content {
        let resident = lock(&self.inner)
            .lru
            .patterns
            .by_hash
            .get(&hash)
            .map(|bucket| {
                bucket
                    .iter()
                    .map(|i| Arc::clone(&i.bytes))
                    .collect::<Vec<_>>()
            });
        let shared = resident
            .into_iter()
            .flatten()
            .find(|b| Arc::ptr_eq(b, &bytes) || *b == bytes);
        (shared.unwrap_or(bytes), hash)
    }

    /// Stores an artifact in both tiers, untrusted in memory. Disk
    /// failures are counted, fed to the circuit breaker, and otherwise
    /// ignored — the cache stays best-effort. The memory tier keeps
    /// the bytes at their exact length.
    pub fn put(&self, key: &ArtifactKey, mut value: Vec<u8>) {
        value.shrink_to_fit();
        self.put_shared(key, Arc::new(value), false, ChecksumCell::default());
    }

    /// [`put`](Self::put) for bytes the caller encoded from a schedule
    /// it computed itself: the memory-tier entry is trusted, and shares
    /// `value` and its fresh checksum cell with the caller.
    pub(crate) fn put_trusted(
        &self,
        key: &ArtifactKey,
        value: Arc<Vec<u8>>,
        checksum: ChecksumCell,
    ) {
        self.put_shared(key, value, true, checksum);
    }

    /// Trusts `key`'s memory-tier entry once its bytes passed the
    /// validating decode — but only if the slot still holds `value`, the
    /// allocation that was decoded. A slot replaced in the meantime (or
    /// evicted) stays as it is.
    pub(crate) fn mark_trusted(&self, key: &ArtifactKey, value: &Arc<Vec<u8>>) {
        lock(&self.inner).lru.mark_trusted(key, value);
    }

    fn put_shared(
        &self,
        key: &ArtifactKey,
        value: Arc<Vec<u8>>,
        trusted: bool,
        checksum: ChecksumCell,
    ) {
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
        inner.stats.evictions += inner.lru.insert(key, value, trusted, checksum);
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
            s.disk_quarantined = disk.breaker.quarantined();
            s.disk_quarantines = disk.breaker.quarantines;
            s.disk_probes = disk.breaker.probes;
        }
        s
    }
}

/// Encodes a disk artifact: the length-framed key and value, followed
/// by a [`Fingerprint`] checksum (two raw little-endian `u64`s, high
/// lane first) over those framed bytes. The key comparison makes a hit
/// exact; the checksum makes *any* bit flip in the file detectable (key
/// framing, value bytes, or the checksum itself), so a corrupted
/// resident artifact always reads as a miss and is never decoded into
/// a stage re-entry.
fn encode_disk_artifact(key: &ArtifactKey, value: &[u8]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(8 + key.len() + 8 + value.len() + 16);
    e.usize(key.len());
    e.raw(&key.head);
    e.raw(&key.pattern);
    e.bytes(value);
    let mut contents = e.into_bytes();
    let check = Fingerprint::of(&contents).0;
    contents.extend_from_slice(&((check >> 64) as u64).to_le_bytes());
    contents.extend_from_slice(&(check as u64).to_le_bytes());
    contents
}

/// Verifies a disk artifact frame and returns its value bytes: the
/// trailing checksum must verify over the framed bytes *and* the
/// embedded key must match `key` exactly.
fn verify_disk_artifact<'a>(file: &'a [u8], key: &ArtifactKey) -> Option<&'a [u8]> {
    let mut d = Decoder::new(file);
    let stored_key = d.bytes().ok()?;
    let value = d.bytes().ok()?;
    let framed_len = file.len() - d.remaining();
    let check = (u128::from(d.u64().ok()?) << 64) | u128::from(d.u64().ok()?);
    d.finish().ok()?;
    if Fingerprint::of(&file[..framed_len]).0 != check || !key.matches(stored_key) {
        return None;
    }
    Some(value)
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

    impl ArtifactStore {
        /// The memory tier's own copy of `key`, when resident.
        pub(crate) fn resident_key(&self, key: &ArtifactKey) -> Option<ArtifactKey> {
            let inner = lock(&self.inner);
            inner.lru.map.get_key_value(key).map(|(k, _)| k.clone())
        }

        /// Distinct patterns in the memory tier's pattern index.
        pub(crate) fn interned_patterns(&self) -> usize {
            lock(&self.inner).lru.patterns.len()
        }
    }

    impl PatternIndex {
        /// Distinct patterns indexed.
        fn len(&self) -> usize {
            self.by_hash.values().map(Vec::len).sum()
        }
    }

    impl Lru {
        /// The index counts every resident key exactly once.
        fn assert_index_counts_keys(&self) {
            let counted: usize = self
                .patterns
                .by_hash
                .values()
                .flatten()
                .map(|i| i.keys)
                .sum();
            assert_eq!(counted, self.len());
        }
    }

    fn key(n: u8) -> ArtifactKey {
        ArtifactKey::new(PipelineStage::Partition, &[n], &[n, n])
    }

    /// Keys of one pattern under different configurations, each built
    /// on its own copy of the bytes, share one buffer once resident;
    /// `intern` hands that buffer to the next key built. Each key is
    /// still charged its full length.
    #[test]
    fn keys_of_one_pattern_share_one_resident_buffer() {
        let store = ArtifactStore::new(StoreConfig::default()).unwrap();
        let pattern = vec![5u8; 64];
        let keys: Vec<ArtifactKey> = (0..3)
            .map(|c| ArtifactKey::new(PipelineStage::Schedule, &[c], &pattern))
            .collect();
        for k in &keys {
            store.put(k, vec![1; 4]);
        }
        let resident: Vec<ArtifactKey> = keys
            .iter()
            .map(|k| store.resident_key(k).expect("resident"))
            .collect();
        let shared = resident[0].pattern_buffer();
        for k in &resident {
            assert!(Arc::ptr_eq(k.pattern_buffer(), shared));
        }
        assert_eq!(store.interned_patterns(), 1);
        let copy = (
            Arc::new(pattern.clone()),
            ArtifactKey::pattern_hash(&pattern),
        );
        assert!(Arc::ptr_eq(&store.intern(copy).0, shared));
        assert_eq!(store.stats().bytes, 3 * (keys[0].len() + 4));
    }

    /// Patterns of equal length one angle bit apart keep their own
    /// buffers, even forced onto one pattern hash: the index matches by
    /// comparing every byte.
    #[test]
    fn patterns_one_angle_bit_apart_never_share_a_buffer() {
        let a = [&[3u8; 16][..], &0.25f64.to_le_bytes()].concat();
        for bit in 0..64 {
            let mut b = a.clone();
            b[16 + bit / 8] ^= 1 << (bit % 8);
            let store = ArtifactStore::new(StoreConfig::default()).unwrap();
            let ka = ArtifactKey::new(PipelineStage::Map, b"cfg", &a);
            let kb = ArtifactKey {
                pattern_hash: ka.pattern_hash,
                ..ArtifactKey::new(PipelineStage::Map, b"cfg", &b)
            };
            store.put(&ka, vec![1]);
            store.put(&kb, vec![2]);
            let (ra, rb) = (
                store.resident_key(&ka).unwrap(),
                store.resident_key(&kb).unwrap(),
            );
            assert!(
                !Arc::ptr_eq(ra.pattern_buffer(), rb.pattern_buffer()),
                "bit {bit}"
            );
            assert_eq!(**rb.pattern_buffer(), b);
            assert_eq!(store.interned_patterns(), 2);
            let (interned, _) = store.intern((Arc::new(b.clone()), ka.pattern_hash));
            assert!(Arc::ptr_eq(&interned, rb.pattern_buffer()), "bit {bit}");
            assert_eq!(store.get(&ka).as_deref(), Some(&vec![1]));
            assert_eq!(store.get(&kb).as_deref(), Some(&vec![2]));
        }
    }

    /// A pattern leaves the index with its last resident key, and a
    /// replace does not count its key twice.
    #[test]
    fn pattern_index_empties_with_the_last_key() {
        let cost = key(0).len() + 1;
        let mut lru = Lru::new(3 * cost);
        let keys: Vec<ArtifactKey> = (0..3)
            .map(|c| ArtifactKey::new(PipelineStage::Partition, &[c], &[1, 1]))
            .collect();
        for k in &keys {
            lru.insert(k, Arc::new(vec![0]), false, ChecksumCell::default());
        }
        lru.insert(&keys[0], Arc::new(vec![1]), false, ChecksumCell::default());
        lru.assert_index_counts_keys();
        assert_eq!(lru.patterns.len(), 1);
        // Each key of another pattern evicts one of the three, oldest
        // first; the third eviction takes the pattern out.
        for (n, patterns) in [(2, 2), (3, 3), (4, 3)] {
            assert_eq!(
                lru.insert(&key(n), Arc::new(vec![0]), false, ChecksumCell::default()),
                1
            );
            lru.assert_index_counts_keys();
            assert_eq!(lru.patterns.len(), patterns);
        }
        assert!(!lru.patterns.by_hash.contains_key(&keys[0].pattern_hash));
        // One entry the size of the whole budget evicts everything else.
        let big = key(9);
        lru.insert(
            &big,
            Arc::new(vec![0; 3 * cost - big.len()]),
            false,
            ChecksumCell::default(),
        );
        lru.assert_index_counts_keys();
        assert_eq!((lru.len(), lru.patterns.len()), (1, 1));
    }

    #[test]
    fn memory_tier_round_trip_and_stats() {
        let store = ArtifactStore::new(StoreConfig::default()).unwrap();
        assert!(store.get(&key(1)).is_none());
        store.put(&key(1), vec![7, 8, 9]);
        assert_eq!(store.get(&key(1)).as_deref(), Some(&vec![7, 8, 9]));
        let s = store.stats();
        assert_eq!(s.memory_hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.entries, 1);
        assert!(s.bytes > 3);
    }

    #[test]
    fn memory_hits_share_the_resident_bytes() {
        let store = ArtifactStore::new(StoreConfig::default()).unwrap();
        let value = vec![3; 1024];
        store.put(&key(2), value.clone());
        let a = store.get(&key(2)).unwrap();
        let b = store.get(&key(2)).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "a memory hit is an Arc clone, not a copy"
        );
        assert_eq!(*a, value);
    }

    /// The trust bit: `put` writes untrusted entries and `put_trusted`
    /// trusted ones; `mark_trusted` trusts only the allocation it was
    /// shown, still in its slot; a replace through `put` drops trust.
    #[test]
    fn only_put_trusted_and_marked_allocations_are_trusted() {
        let budget = 1 << 12;
        let store = ArtifactStore::new(StoreConfig {
            memory_capacity: budget,
            ..StoreConfig::default()
        })
        .unwrap();
        let trust = |n| store.get_resident(&key(n)).map(|(_, trusted, _)| trusted);
        store.put(&key(1), vec![1; 8]);
        assert_eq!(trust(1), Some(false), "put is untrusted");
        let computed = Arc::new(vec![2; 8]);
        store.put_trusted(&key(2), Arc::clone(&computed), ChecksumCell::default());
        let (resident, trusted, _) = store.get_resident(&key(2)).unwrap();
        assert!(trusted, "put_trusted is trusted");
        assert!(Arc::ptr_eq(&resident, &computed), "and shares the bytes");

        // Stale `Arc`s are no-ops: equal bytes in another allocation,
        // and a decoded value that a concurrent `put` replaced.
        let (decoded, ..) = store.get_resident(&key(1)).unwrap();
        store.mark_trusted(&key(1), &Arc::new(vec![1; 8]));
        assert_eq!(trust(1), Some(false), "equal bytes, other allocation");
        store.put(&key(1), vec![1; 8]);
        store.mark_trusted(&key(1), &decoded);
        assert_eq!(trust(1), Some(false), "the decoded value was replaced");
        let (decoded, ..) = store.get_resident(&key(1)).unwrap();
        store.mark_trusted(&key(1), &decoded);
        assert_eq!(trust(1), Some(true), "the resident value passed");
        store.mark_trusted(&key(3), &decoded);
        assert_eq!(trust(3), None, "marking an absent key stores nothing");

        // A replace drops trust, whichever way the entry earned it.
        store.put(&key(1), vec![1; 8]);
        store.put(&key(2), vec![2; 8]);
        assert_eq!((trust(1), trust(2)), (Some(false), Some(false)));
        // An oversized replace leaves the entry, and its bit, alone.
        let (decoded, ..) = store.get_resident(&key(1)).unwrap();
        store.mark_trusted(&key(1), &decoded);
        store.put(&key(1), vec![0; budget]);
        assert_eq!(trust(1), Some(true));
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

    /// Equality compares every byte of both parts: a one-byte change
    /// anywhere in the head or the pattern makes keys unequal even when
    /// their hashes are forced equal. A key also matches only its own
    /// disk-frame bytes.
    #[test]
    fn equality_compares_every_byte() {
        let k = ArtifactKey::new(PipelineStage::Map, b"config", b"pattern bytes");
        let canonical = [&k.head[..], &k.pattern[..]].concat();
        assert!(k.matches(&canonical));
        assert!(!k.matches(&canonical[..canonical.len() - 1]));
        assert!(!k.matches(&[&canonical[..], b"x"].concat()));
        for i in 0..canonical.len() {
            let mut bytes = canonical.clone();
            bytes[i] ^= 1;
            assert!(!k.matches(&bytes), "byte {i}");
            let (head, pattern) = bytes.split_at(k.head.len());
            let other = ArtifactKey {
                head: head.into(),
                pattern: Arc::new(pattern.to_vec()),
                pattern_hash: k.pattern_hash,
                hash: k.hash,
            };
            assert_ne!(k, other, "byte {i}");
        }
        // The same bytes in separate buffers, and a shared buffer.
        let copy = ArtifactKey::new(PipelineStage::Map, b"config", b"pattern bytes");
        assert!(!Arc::ptr_eq(&k.pattern, &copy.pattern));
        assert_eq!(k, copy);
        assert_eq!(k, k.clone());
    }

    /// Keys sharing one pattern buffer are each charged their full
    /// canonical length: sharing never changes an eviction decision.
    #[test]
    fn memory_budget_charges_the_full_key_length() {
        let pattern = Arc::new(vec![7u8; 100]);
        let hash = ArtifactKey::pattern_hash(&pattern);
        let keys = [
            PipelineStage::Partition,
            PipelineStage::Map,
            PipelineStage::Schedule,
        ]
        .map(|stage| ArtifactKey::with_pattern(stage, b"cfg", Arc::clone(&pattern), hash));
        // Head: tag (1), framed config (8 + 3), pattern length (8).
        let key_len = 20 + 100;
        let store = ArtifactStore::new(StoreConfig::default()).unwrap();
        for key in &keys {
            assert_eq!(key.len(), key_len);
            store.put(key, vec![0; 10]);
        }
        assert_eq!(store.stats().bytes, 3 * (key_len + 10));
        // A budget one byte short of three entries evicts the oldest.
        let mut lru = Lru::new(3 * (key_len + 10) - 1);
        for key in &keys {
            lru.insert(key, Arc::new(vec![0; 10]), false, ChecksumCell::default());
        }
        assert_eq!((lru.len(), lru.bytes), (2, 2 * (key_len + 10)));
        assert!(lru.get(&keys[0]).is_none());
    }

    /// Distinct keys forced onto one in-memory hash: the full-byte
    /// comparison keeps them apart through puts, gets, replacement and
    /// eviction.
    #[test]
    fn colliding_hashes_never_cross_values() {
        let collide = |n: u8| ArtifactKey { hash: 7, ..key(n) };
        let (a, b, c) = (collide(1), collide(2), collide(3));
        assert_ne!(a, b);

        let store = ArtifactStore::new(StoreConfig::default()).unwrap();
        store.put(&a, vec![1]);
        assert!(store.get(&b).is_none());
        store.put(&b, vec![2]);
        store.put(&a, vec![3]);
        assert_eq!(store.get(&a).as_deref(), Some(&vec![3]));
        assert_eq!(store.get(&b).as_deref(), Some(&vec![2]));
        assert_eq!(store.stats().entries, 2);

        // Room for two entries: the third evicts the least recently
        // used one, and only that one.
        let mut lru = Lru::new(2 * (a.len() + 1));
        lru.insert(&a, Arc::new(vec![1]), false, ChecksumCell::default());
        lru.insert(&b, Arc::new(vec![2]), false, ChecksumCell::default());
        assert_eq!(
            lru.insert(&c, Arc::new(vec![3]), false, ChecksumCell::default()),
            1
        );
        assert!(lru.get(&a).is_none());
        assert_eq!(lru.get(&b), Some(&[2][..]));
        assert_eq!(lru.get(&c), Some(&[3][..]));
        assert_eq!(
            lru.insert(&a, Arc::new(vec![4]), false, ChecksumCell::default()),
            1
        );
        assert!(lru.get(&b).is_none());
        assert_eq!(lru.get(&a), Some(&[4][..]));
        assert_eq!(lru.get(&c), Some(&[3][..]));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut lru = Lru::new(3 * (key(0).len() + 8));
        for n in 0..3 {
            assert_eq!(
                lru.insert(
                    &key(n),
                    Arc::new(vec![n; 8]),
                    false,
                    ChecksumCell::default()
                ),
                0
            );
        }
        // Touch 0 so 1 becomes the eviction victim.
        assert!(lru.get(&key(0)).is_some());
        assert_eq!(
            lru.insert(
                &key(3),
                Arc::new(vec![3; 8]),
                false,
                ChecksumCell::default()
            ),
            1
        );
        assert!(lru.get(&key(1)).is_none());
        assert!(lru.get(&key(0)).is_some());
        assert!(lru.get(&key(2)).is_some());
        assert!(lru.get(&key(3)).is_some());
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn lru_replaces_in_place_and_skips_oversized() {
        let budget = key(0).len() + 16;
        let mut lru = Lru::new(budget);
        lru.insert(
            &key(0),
            Arc::new(vec![1; 8]),
            false,
            ChecksumCell::default(),
        );
        lru.insert(
            &key(0),
            Arc::new(vec![2; 16]),
            false,
            ChecksumCell::default(),
        );
        assert_eq!(lru.get(&key(0)), Some(&vec![2u8; 16][..]));
        assert_eq!(lru.len(), 1);
        // An artifact larger than the whole budget is not cached (and
        // does not flush everything else out).
        assert_eq!(
            lru.insert(
                &key(1),
                Arc::new(vec![0; budget + 1]),
                false,
                ChecksumCell::default()
            ),
            0
        );
        assert!(lru.get(&key(1)).is_none());
        assert!(lru.get(&key(0)).is_some());
        // Same for an oversized *replacement*: the existing entry
        // survives untouched instead of the tier being flushed.
        assert_eq!(
            lru.insert(
                &key(0),
                Arc::new(vec![9; budget + 1]),
                false,
                ChecksumCell::default()
            ),
            0
        );
        assert_eq!(lru.get(&key(0)), Some(&vec![2u8; 16][..]));
    }

    /// The disk tier's file names and frames must never shift, or
    /// existing artifact directories stop hitting. The config length
    /// (3) and pattern length (14) keep the key's parts off the 8-byte
    /// chunk edges of the fingerprint.
    #[test]
    fn disk_format_is_pinned() {
        let key = ArtifactKey::new(PipelineStage::Map, b"cfg", b"pattern bytes!");
        assert_eq!(
            key.fingerprint().to_hex(),
            "3317b454f716e2c750bbd8975ac4c17e"
        );
        let frame: String = encode_disk_artifact(&key, &[1, 2, 3, 4, 5])
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            frame,
            concat!(
                "2200000000000000", // key length 34
                "01",               // stage tag: map
                "0300000000000000",
                "636667", // config
                "0e00000000000000",
                "7061747465726e20627974657321", // pattern
                "0500000000000000",
                "0102030405",                       // value
                "734d71f7a667fa84656e0b724d72a8e5", // checksum
            )
        );
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
        assert_eq!(store.get(&key(5)).as_deref(), Some(&vec![42; 100]));
        let s = store.stats();
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.entries, 1, "disk hit promotes into memory");
        assert_eq!(s.disk_entries, 1, "restart re-indexed the artifact");
        assert!(s.disk_bytes > 100);
        assert_eq!(store.get(&key(5)).as_deref(), Some(&vec![42; 100]));
        assert_eq!(store.stats().memory_hits, 1);

        // Corrupt the file: the store degrades to a miss.
        std::fs::write(art_path(&dir, &key(5)), b"garbage").unwrap();
        let store = ArtifactStore::new(cfg).unwrap();
        assert_eq!(store.get(&key(5)), None);
        assert_eq!(store.stats().disk_errors, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checksum cell belongs to one stored buffer: every lookup of
    /// that buffer shares it, and every new buffer under the key — an
    /// overwrite, a re-put after eviction, a disk-tier promotion —
    /// starts with a new, empty cell.
    #[test]
    fn checksum_cells_are_tied_to_buffers() {
        let cell = |store: &ArtifactStore, n| store.get_resident(&key(n)).map(|(.., c)| c);
        let store = ArtifactStore::new(StoreConfig {
            memory_capacity: 1 << 12,
            ..StoreConfig::default()
        })
        .unwrap();
        let computed = ChecksumCell::default();
        store.put_trusted(&key(1), Arc::new(vec![1; 8]), Arc::clone(&computed));
        let resident = cell(&store, 1).unwrap();
        assert!(
            Arc::ptr_eq(&resident, &computed),
            "the caller's cell is stored"
        );
        resident.set(7).unwrap();
        assert_eq!(
            cell(&store, 1).unwrap().get(),
            Some(&7),
            "shared by lookups"
        );
        store.mark_trusted(&key(1), &store.get_resident(&key(1)).unwrap().0);
        assert_eq!(cell(&store, 1).unwrap().get(), Some(&7), "trust keeps it");
        store.put(&key(1), vec![1; 8]);
        assert_eq!(cell(&store, 1).unwrap().get(), None, "an overwrite is new");
        // Evict key 1 by filling the budget, then store it again.
        for n in 2..100 {
            store.put(&key(n), vec![0; 64]);
        }
        assert!(cell(&store, 1).is_none(), "evicted");
        store.put_trusted(&key(1), Arc::new(vec![1; 8]), ChecksumCell::default());
        assert_eq!(cell(&store, 1).unwrap().get(), None, "a recompile is new");

        let dir = scratch_dir("checksum-cells");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            disk_dir: Some(dir.clone()),
            ..StoreConfig::default()
        };
        {
            let store = ArtifactStore::new(cfg.clone()).unwrap();
            store.put_trusted(&key(1), Arc::new(vec![1; 8]), ChecksumCell::default());
            cell(&store, 1).unwrap().set(7).unwrap();
        }
        let store = ArtifactStore::new(cfg).unwrap();
        let (_, _, promoted) = store.get_entry(&key(1)).unwrap();
        assert_eq!(promoted.get(), None, "a promotion is new");
        assert!(Arc::ptr_eq(&cell(&store, 1).unwrap(), &promoted));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A disk-tier read promotes its value untrusted, whatever the
    /// entry's trust was before the restart; the memory hit after it
    /// reports the same bit.
    #[test]
    fn disk_promotions_are_untrusted() {
        let dir = scratch_dir("promote-trust");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            disk_dir: Some(dir.clone()),
            ..StoreConfig::default()
        };
        {
            let store = ArtifactStore::new(cfg.clone()).unwrap();
            store.put_trusted(&key(4), Arc::new(vec![4; 50]), ChecksumCell::default());
            assert_eq!(store.get_entry(&key(4)).map(|(_, t, _)| t), Some(true));
        }
        let store = ArtifactStore::new(cfg).unwrap();
        assert!(store.get_resident(&key(4)).is_none(), "cold memory tier");
        let (value, trusted, _) = store.get_entry(&key(4)).unwrap();
        assert_eq!((value.as_slice(), trusted), (&[4; 50][..], false));
        assert_eq!(store.stats().disk_hits, 1);
        let (resident, trusted, _) = store.get_resident(&key(4)).unwrap();
        assert!(Arc::ptr_eq(&resident, &value) && !trusted);
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
    fn open_reclaims_an_earlier_builds_leftovers() {
        let dir = scratch_dir("leftovers");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let art = encode_disk_artifact(&key(6), &[6; 80]);
        std::fs::write(art_path(&dir, &key(6)), &art).unwrap();
        // What a build with segments and a restart manifest leaves
        // behind, plus a writer's abandoned temp file.
        let leftovers = [
            dir.join("seg-0.seg"),
            dir.join("manifest.log"),
            art_path(&dir, &key(7)).with_extension("tmp4242-0"),
        ];
        for path in &leftovers {
            std::fs::write(path, [0xCD; 300]).unwrap();
        }
        let store = ArtifactStore::new(StoreConfig {
            memory_capacity: 1, // force disk reads
            disk_dir: Some(dir.clone()),
            ..StoreConfig::default()
        })
        .unwrap();
        for path in &leftovers {
            assert!(!path.exists(), "{} survived the open", path.display());
        }
        let s = store.stats();
        assert_eq!(s.disk_entries, 1, "{s:?}");
        assert_eq!(s.disk_bytes, art.len(), "only .art bytes are counted");
        assert_eq!(store.get(&key(6)).as_deref(), Some(&vec![6; 80]));
        assert_eq!(store.stats().disk_hits, 1);
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
