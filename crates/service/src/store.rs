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
//! job's task published: the executor gates every [`ArtifactStore::put`]
//! on the job's cancellation flag at the task boundary (see
//! [`crate::executor`]), so a cancelled job contributes nothing.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

use dc_mbqc::PipelineStage;
use mbqc_util::codec::{Decoder, Encoder};
use mbqc_util::sync::lock;
use mbqc_util::Fingerprint;

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

#[derive(Debug)]
struct Slot {
    /// Shared with the map key, so the (pattern-sized) key bytes exist
    /// once and the byte accounting below stays honest.
    key: Arc<[u8]>,
    /// Shared with in-flight readers: a memory hit clones the `Arc`,
    /// never the bytes.
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

    /// Looks up `key`, marks it most recently used, and returns the
    /// shared value handle (an `Arc` clone, no byte copy).
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
        {
            let mut inner = lock(&self.inner);
            if let Some(v) = inner.lru.get_arc(key.bytes()) {
                inner.stats.memory_hits += 1;
                return Some(v);
            }
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
            inner.stats.evictions += inner.lru.insert(key.bytes(), Arc::clone(&value));
            return Some(value);
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
    let mut e = Encoder::new();
    e.bytes(key.bytes());
    e.bytes(value);
    let mut contents = e.into_bytes();
    let check = Fingerprint::of(&contents).0;
    let mut tail = Encoder::new();
    tail.u64((check >> 64) as u64);
    tail.u64(check as u64);
    contents.extend_from_slice(&tail.into_bytes());
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
    if Fingerprint::of(&file[..framed_len]).0 != check || stored_key != key.bytes() {
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

    fn key(n: u8) -> ArtifactKey {
        ArtifactKey::new(PipelineStage::Partition, &[n], &[n, n])
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
