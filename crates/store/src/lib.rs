//! # chipletqc-store
//!
//! A persistent, content-addressed result store: repeated engine
//! invocations reuse expensive fabrication and characterization
//! products instead of recomputing them.
//!
//! Every figure in the paper reconsumes the same intermediates —
//! collision-free KGD chiplet bins and monolithic survivor
//! populations. Within one process the `chipletqc` `CacheHub`
//! deduplicates them; this crate extends that guarantee
//! *across processes*: products are keyed by
//! `LabConfig::cache_key()`-style strings that pin everything
//! determining their bytes, so any run that agrees on the key is
//! guaranteed to agree on the product, and a warm store serves results
//! that are bit-identical to a cold computation.
//!
//! ## Key layout
//!
//! An [`EntryKey`] is `(cache_key, kind, detail)`:
//!
//! * `kgd-bin` — a whole characterized chiplet bin; detail is the
//!   chiplet size, cache key is the lab's (batch, seed, fabrication,
//!   collision) key.
//! * `mono-pop` — a whole noise-assigned monolithic population; detail
//!   is the system size (payload encoded by `chipletqc`, which owns
//!   the type).
//!
//! Every product payload is binary ([`Encoding::Binary`]).
//!
//! Entries are addressed on disk by a hash of the logical key
//! (`objects/<2-hex>/<32-hex>.cqs`); the envelope stores the full key,
//! so a hash collision reads as a miss, never as the wrong product.
//!
//! ## Backends and tiers
//!
//! Entry bytes live in [`Backend`]s ([`backend`]): the directory
//! backend above is the local tier of every [`Store`], and
//! [`Store::with_peer`] attaches a second, read-through tier — usually
//! a [`RemoteBackend`](remote::RemoteBackend) speaking the
//! `store-get`/`store-put`/`store-list` frames ([`remote`]) to a peer
//! `chipletqc-engine` daemon. A local miss falls through to the peer,
//! and what the peer serves is persisted locally behind the read, so a
//! cold host's first run against a warm peer performs zero fabrication
//! campaigns and warms its own store in the process.
//!
//! ## Durability and corruption
//!
//! Writes go to a temp file in the same directory and are published
//! with an atomic rename; readers see an old entry or a new entry,
//! never a partial one. Opening validates magic, version, checksum,
//! and the full key, and decoding re-validates product invariants; any
//! failure counts as a miss (plus an `invalid` counter) and the value
//! is recomputed. The store is a cache, not a database: deleting any
//! or all of it is always safe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod envelope;
pub mod products;
pub mod remote;
pub mod wire;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use backend::{Backend, DirBackend, Lookup};
use envelope::{fnv1a64, Encoding, FNV_OFFSET_BASIS};

/// File extension of store entries.
pub(crate) const ENTRY_EXT: &str = "cqs";

/// Prefix of in-flight temp files (never opened by readers; orphans
/// are reaped by [`Store::gc`]).
pub(crate) const TMP_PREFIX: &str = ".tmp-";

/// Cap on simultaneously in-flight background writes (and on the
/// writer-handle registry): a burst of puts beyond this blocks on the
/// oldest write instead of spawning without bound.
const MAX_INFLIGHT_WRITES: usize = 32;

/// Temp files younger than this are presumed to belong to a live
/// writer in some process and are left alone by [`Store::gc`]; older
/// ones are orphans from a crashed writer.
const TMP_ORPHAN_AGE: std::time::Duration = std::time::Duration::from_secs(3600);

/// How the store participates in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Serve hits and persist misses (the default).
    #[default]
    ReadWrite,
    /// Serve hits; never write (e.g. a read-only shared cache).
    Read,
    /// Never serve hits; persist everything computed (cache warming
    /// that must not trust existing entries).
    Write,
}

impl CacheMode {
    /// Parses the engine's `--cache` spelling. `off` is not a mode —
    /// it means "no store at all" and is handled by the caller.
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s {
            "readwrite" => Some(CacheMode::ReadWrite),
            "read" => Some(CacheMode::Read),
            "write" => Some(CacheMode::Write),
            _ => None,
        }
    }

    /// Whether reads may be served from the store.
    pub fn reads(self) -> bool {
        matches!(self, CacheMode::ReadWrite | CacheMode::Read)
    }

    /// Whether computed products are persisted.
    pub fn writes(self) -> bool {
        matches!(self, CacheMode::ReadWrite | CacheMode::Write)
    }

    /// The canonical lowercase spelling.
    pub fn name(self) -> &'static str {
        match self {
            CacheMode::ReadWrite => "readwrite",
            CacheMode::Read => "read",
            CacheMode::Write => "write",
        }
    }
}

/// The logical key of one store entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EntryKey {
    /// The configuration key pinning everything that determines the
    /// product's bytes (a `LabConfig::cache_key()`-style string).
    pub cache_key: String,
    /// The product kind (`kgd-bin` or `mono-pop`).
    pub kind: String,
    /// The product coordinate within the configuration (a size).
    pub detail: String,
}

impl EntryKey {
    /// Creates a key.
    pub fn new(
        cache_key: impl Into<String>,
        kind: impl Into<String>,
        detail: impl Into<String>,
    ) -> EntryKey {
        EntryKey { cache_key: cache_key.into(), kind: kind.into(), detail: detail.into() }
    }

    /// The full logical key string stored in (and verified against)
    /// the envelope. The separator cannot appear in sane keys, so
    /// distinct components never alias.
    pub fn logical(&self) -> String {
        format!("{}\u{1f}{}\u{1f}{}", self.kind, self.cache_key, self.detail)
    }

    /// Parses a [`EntryKey::logical`] string back into a key — the
    /// wire spelling the store peer protocol addresses entries by.
    /// `None` unless the string has exactly the three separated,
    /// newline-free components.
    pub fn parse_logical(logical: &str) -> Option<EntryKey> {
        let mut parts = logical.split('\u{1f}');
        let (kind, cache_key, detail) = (parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some()
            || kind.is_empty()
            || [kind, cache_key, detail].iter().any(|p| p.contains('\n'))
        {
            return None;
        }
        Some(EntryKey::new(cache_key, kind, detail))
    }

    /// The content hash addressing this key on disk: 128 bits from two
    /// independently-seeded FNV-1a passes, hex-encoded. Collisions are
    /// astronomically unlikely and harmless anyway — the envelope
    /// carries the full key and a mismatch reads as a miss.
    pub fn hash(&self) -> String {
        let logical = self.logical();
        let a = fnv1a64(logical.as_bytes(), FNV_OFFSET_BASIS);
        // Second pass from a different basis (the first hash), giving
        // an independent 64 bits over the same bytes.
        let b = fnv1a64(logical.as_bytes(), a ^ 0x9E37_79B9_7F4A_7C15);
        format!("{a:016x}{b:016x}")
    }
}

impl std::fmt::Display for EntryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}] @ {}", self.kind, self.detail, self.cache_key)
    }
}

/// Session counters: what this process asked of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Reads served from disk.
    pub hits: u64,
    /// Reads that found nothing usable (includes `invalid`).
    pub misses: u64,
    /// Entries persisted.
    pub writes: u64,
    /// Entries found but rejected (corrupt, stale version, key
    /// mismatch, failed product validation).
    pub invalid: u64,
}

impl StoreStats {
    /// The traffic since `earlier` was snapshotted — the
    /// per-submission view a long-lived service reports against one
    /// shared store, whose session counters only ever grow.
    #[must_use]
    pub fn since(&self, earlier: StoreStats) -> StoreStats {
        StoreStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            writes: self.writes.saturating_sub(earlier.writes),
            invalid: self.invalid.saturating_sub(earlier.invalid),
        }
    }
}

/// On-disk totals from a directory scan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Readable entries.
    pub entries: u64,
    /// Total bytes of readable entries.
    pub bytes: u64,
    /// Entry and byte counts per product kind, sorted by kind.
    pub kinds: Vec<(String, u64, u64)>,
    /// Files that failed to open as entries.
    pub corrupt: u64,
}

/// What one [`Store::prefetch_from_peer`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchReport {
    /// Keys the peer listed.
    pub listed: u64,
    /// Entries pulled and persisted locally.
    pub fetched: u64,
    /// Entries already present locally (not transferred).
    pub present: u64,
    /// Listed entries the peer then failed to serve (deleted since the
    /// list, corrupt, transport error) or that failed to persist.
    pub failed: u64,
}

/// What a [`Store::gc`] sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Entries found before the sweep.
    pub scanned_entries: u64,
    /// Bytes found before the sweep.
    pub scanned_bytes: u64,
    /// Entries deleted (oldest first).
    pub removed_entries: u64,
    /// Bytes reclaimed.
    pub removed_bytes: u64,
}

/// A persistent, content-addressed result store: cache policy layered
/// over one or two [`Backend`]s.
///
/// The *local* tier is always a [`DirBackend`]; an optional *peer*
/// tier ([`Store::with_peer`], usually a
/// [`RemoteBackend`](remote::RemoteBackend)) is consulted read-through
/// on local misses, and what it serves is persisted locally
/// write-behind — so a cold host's first run against a warm peer
/// performs zero fabrication campaigns and leaves its own store warm.
///
/// Thread-safe: reads are lock-free file opens, writes are published
/// by background threads with atomic renames. Share it with `Arc`.
#[derive(Debug)]
pub struct Store {
    local: Arc<DirBackend>,
    peer: Option<Arc<dyn Backend>>,
    /// Replicate locally-computed entries to the peer write-behind
    /// ([`Store::with_push`]).
    push: bool,
    mode: CacheMode,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    invalid: AtomicU64,
    writers: Mutex<Vec<JoinHandle<()>>>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>, mode: CacheMode) -> io::Result<Store> {
        Ok(Store {
            local: Arc::new(DirBackend::open(dir)?),
            peer: None,
            push: false,
            mode,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            writers: Mutex::new(Vec::new()),
        })
    }

    /// Attaches a read-through peer tier: local misses fall through to
    /// `peer`, and what the peer serves is persisted locally behind
    /// the read (when the mode writes), so each product crosses the
    /// network at most once per host.
    #[must_use]
    pub fn with_peer(mut self, peer: Arc<dyn Backend>) -> Store {
        self.peer = Some(peer);
        self
    }

    /// Enables push replication: entries this host *computes* are also
    /// sent to the peer write-behind (best-effort, on the same writer
    /// thread as the local put), so a coordinator's store converges on
    /// its workers' products without re-fabricating them. Entries that
    /// arrived *from* the peer (read-through populates) are never
    /// echoed back. No effect without a peer.
    #[must_use]
    pub fn with_push(mut self, push: bool) -> Store {
        self.push = push;
        self
    }

    /// Whether push replication is enabled ([`Store::with_push`]).
    pub fn pushes(&self) -> bool {
        self.push && self.peer.is_some()
    }

    /// Transport-level counters of the peer tier, when the attached
    /// backend keeps them
    /// ([`RemoteBackend::stats`](remote::RemoteBackend::stats));
    /// `None` without a peer.
    pub fn peer_stats(&self) -> Option<remote::PeerStats> {
        self.peer.as_ref().and_then(|peer| peer.peer_stats())
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        self.local.root()
    }

    /// The configured mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Whether a peer tier is attached. Peer-level traffic counters
    /// live on the backend itself
    /// ([`RemoteBackend::stats`](remote::RemoteBackend::stats)) — the
    /// store's [`StoreStats`] deliberately keep one shape whether a
    /// peer is configured or not.
    pub fn has_peer(&self) -> bool {
        self.peer.is_some()
    }

    #[cfg(test)]
    fn entry_path(&self, key: &EntryKey) -> PathBuf {
        self.local.entry_path(key)
    }

    /// Reads and fully validates the entry under `key`, returning its
    /// payload. The local tier is consulted first; on a local miss the
    /// peer tier (if any) is tried, its product counted as a hit and
    /// persisted locally behind the read. `None` — a miss — covers:
    /// mode forbids reads, no entry in any tier, or nothing usable
    /// (corrupt/stale local file, unreachable peer).
    pub fn get(&self, key: &EntryKey) -> Option<Vec<u8>> {
        if !self.mode.reads() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            chipletqc_obs::counter("store.misses").inc();
            return None;
        }
        match chipletqc_obs::histogram("store.get.local").time(|| self.local.get(key)) {
            Lookup::Hit { payload, .. } => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                chipletqc_obs::counter("store.hits").inc();
                return Some(payload);
            }
            Lookup::Miss => {}
            Lookup::Invalid => {
                self.invalid.fetch_add(1, Ordering::Relaxed);
                chipletqc_obs::counter("store.corrupt").inc();
            }
        }
        if let Some(peer) = &self.peer {
            // A peer miss or failure needs no counting here — the
            // backend tracks its own traffic — and falls through to
            // the ordinary miss below.
            if let Lookup::Hit { encoding, payload } =
                chipletqc_obs::histogram("store.get.peer").time(|| peer.get(key))
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                chipletqc_obs::counter("store.hits").inc();
                chipletqc_obs::counter("store.peer_hits").inc();
                // Read-through populate: the product lands in the
                // local tier behind the read, so it crosses the
                // network at most once per host.
                if self.mode.writes() {
                    // Never push a populate: the entry came *from* the
                    // peer; echoing it back would be pure churn.
                    let populate = payload.clone();
                    self.spawn_write(key, encoding, move || populate, false);
                }
                return Some(payload);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        chipletqc_obs::counter("store.misses").inc();
        None
    }

    /// Persists `payload` under `key` (no-op unless the mode writes).
    ///
    /// The write happens *behind* the caller: encoding into the
    /// envelope and all file I/O run on a background thread, so the
    /// computed product is available to the pipeline immediately.
    /// [`Store::flush`] (or drop) joins outstanding writes.
    pub fn put(&self, key: &EntryKey, encoding: Encoding, payload: Vec<u8>) {
        self.put_with(key, encoding, move || payload);
    }

    /// [`Store::put`] with the payload produced lazily on the writer
    /// thread — use this to move product *encoding* off the compute
    /// path too.
    pub fn put_with<F>(&self, key: &EntryKey, encoding: Encoding, payload: F)
    where
        F: FnOnce() -> Vec<u8> + Send + 'static,
    {
        self.spawn_write(key, encoding, payload, self.push);
    }

    /// The write-behind engine under [`Store::put`]/[`Store::put_with`]
    /// and the read-through populate — the latter passes `push =
    /// false` so peer-served entries are never replicated back to
    /// their source.
    fn spawn_write<F>(&self, key: &EntryKey, encoding: Encoding, payload: F, push: bool)
    where
        F: FnOnce() -> Vec<u8> + Send + 'static,
    {
        if !self.mode.writes() {
            return;
        }
        let local = Arc::clone(&self.local);
        let peer = if push { self.peer.clone() } else { None };
        let key = key.clone();
        let work = move || -> io::Result<()> {
            let payload = payload();
            let written = chipletqc_obs::histogram("store.put.local")
                .time(|| local.put(&key, encoding, &payload));
            if let Some(peer) = peer {
                // Push replication is as best-effort as the local
                // write: a rejected or unreachable peer costs the
                // peer a recomputation, never this run anything.
                let _ = chipletqc_obs::histogram("store.put.peer")
                    .time(|| peer.put(&key, encoding, &payload));
            }
            written
        };
        // Best-effort cache write: an I/O failure (or a failure to
        // spawn the writer) loses only future reuse, never
        // correctness.
        if let Ok(handle) =
            std::thread::Builder::new().name("store-writer".into()).spawn(move || {
                let _ = work();
            })
        {
            self.writes.fetch_add(1, Ordering::Relaxed);
            let mut writers = self.writers.lock().expect("writer registry poisoned");
            // Keep the registry (and the live thread count) bounded:
            // reap finished writers opportunistically, and if a burst
            // of puts outruns the disk, block on the oldest in-flight
            // write before queuing another.
            writers.retain(|h| !h.is_finished());
            while writers.len() >= MAX_INFLIGHT_WRITES {
                let _ = writers.remove(0).join();
            }
            writers.push(handle);
        }
    }

    /// Joins every outstanding background write. Call before reading
    /// another process's view of the directory (or before exiting, if
    /// the drop order is not obvious).
    pub fn flush(&self) {
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.writers.lock().expect("writer registry poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// This process's session counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
        }
    }

    /// Serves a peer daemon's `store-get`: the *local* tier only (a
    /// request must never cascade through this host's own peer — in a
    /// mesh where daemons point at each other, that would loop), with
    /// outstanding writes joined first so the peer sees everything
    /// this host has computed. Session counters are untouched: peer
    /// traffic is the peer's workload, not this host's.
    pub fn serve_peer_get(&self, key: &EntryKey) -> Lookup {
        chipletqc_obs::histogram("store.serve.get").time(|| {
            self.flush();
            self.local.get(key)
        })
    }

    /// Serves a peer daemon's `store-put` into the local tier
    /// (rejected unless the mode writes — a read-only store must stay
    /// read-only for remote writers too).
    pub fn serve_peer_put(
        &self,
        key: &EntryKey,
        encoding: Encoding,
        payload: &[u8],
    ) -> io::Result<()> {
        if !self.mode.writes() {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("store mode {} does not accept writes", self.mode.name()),
            ));
        }
        chipletqc_obs::histogram("store.serve.put")
            .time(|| self.local.put(key, encoding, payload))
    }

    /// Serves a peer daemon's `store-list` from the local tier.
    pub fn serve_peer_list(&self) -> io::Result<Vec<EntryKey>> {
        chipletqc_obs::histogram("store.serve.list").time(|| {
            self.flush();
            self.local.list()
        })
    }

    /// Pulls every peer-listed entry this host is missing into the
    /// local tier — `store-list`-driven cache warming, so a cold
    /// worker pays its transfers up front instead of as read-through
    /// misses mid-sweep.
    ///
    /// Keys are fetched in sorted-logical order (deterministic
    /// progress under a deterministic peer). Entries are written
    /// synchronously — when this returns, the local tier holds
    /// everything fetched. Errors only for "no peer attached", a
    /// failed `store-list`, or a mode that cannot persist the
    /// transfers; per-entry failures are counted, not fatal (a peer
    /// gc'ing mid-prefetch costs re-fetches, never a wrong store).
    /// Session counters are untouched: prefetch is maintenance, not
    /// run workload.
    pub fn prefetch_from_peer(&self) -> io::Result<PrefetchReport> {
        let peer = self.peer.as_ref().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no store peer attached")
        })?;
        if !self.mode.writes() {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("store mode {} cannot persist prefetched entries", self.mode.name()),
            ));
        }
        self.flush();
        let mut keys = peer.list()?;
        keys.sort_by_key(EntryKey::logical);
        let mut report = PrefetchReport { listed: keys.len() as u64, ..Default::default() };
        for key in keys {
            if matches!(self.local.get(&key), Lookup::Hit { .. }) {
                report.present += 1;
                continue;
            }
            match peer.get(&key) {
                Lookup::Hit { encoding, payload } => {
                    match self.local.put(&key, encoding, &payload) {
                        Ok(()) => report.fetched += 1,
                        Err(_) => report.failed += 1,
                    }
                }
                Lookup::Miss | Lookup::Invalid => report.failed += 1,
            }
        }
        Ok(report)
    }

    fn scan(&self) -> io::Result<Vec<ScannedFile>> {
        let mut files = Vec::new();
        let objects = self.local.root().join("objects");
        for shard in std::fs::read_dir(&objects)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(shard.path())? {
                let entry = entry?;
                let meta = entry.metadata()?;
                if meta.is_file() {
                    // An unreadable mtime is recorded as unknown, NOT
                    // as UNIX_EPOCH: mapping it to "infinitely old"
                    // made gc reap a temp file right out from under a
                    // live writer in another process.
                    files.push(ScannedFile {
                        path: entry.path(),
                        len: meta.len(),
                        modified: meta.modified().ok(),
                    });
                }
            }
        }
        Ok(files)
    }

    /// Scans the directory and summarizes its contents by kind.
    pub fn disk_stats(&self) -> io::Result<DiskStats> {
        let mut stats = DiskStats::default();
        let mut kinds: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for file in self.scan()? {
            if is_tmp(&file.path) {
                continue;
            }
            match std::fs::read(&file.path).ok().and_then(|b| envelope::open(&b).ok()) {
                Some(env) => {
                    stats.entries += 1;
                    stats.bytes += file.len;
                    let slot = kinds.entry(env.kind).or_default();
                    slot.0 += 1;
                    slot.1 += file.len;
                }
                None => stats.corrupt += 1,
            }
        }
        stats.kinds =
            kinds.into_iter().map(|(kind, (entries, bytes))| (kind, entries, bytes)).collect();
        stats.kinds.sort();
        Ok(stats)
    }

    /// Deletes oldest entries (by modification time, ties broken by
    /// file name for determinism) until the directory holds at most
    /// `max_bytes` of entries. Temp files older than an hour are
    /// orphans from crashed writers and are reaped; younger ones — and
    /// any whose age cannot be read — may belong to another process's
    /// in-flight write and are left alone. The store is a cache, so
    /// any entry is safe to delete at any time.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        self.flush();
        #[expect(
            clippy::disallowed_methods,
            reason = "gc recency cutoff against file mtimes; never reaches entry bytes"
        )]
        let plan = plan_gc(self.scan()?, max_bytes, std::time::SystemTime::now());
        for path in &plan.reap_tmp {
            let _ = std::fs::remove_file(path);
        }
        let mut report = plan.report;
        for (path, size) in &plan.delete {
            std::fs::remove_file(path)?;
            report.removed_entries += 1;
            report.removed_bytes += size;
        }
        Ok(report)
    }
}

/// One file found by a directory scan. `modified` is `None` when the
/// filesystem cannot report an mtime — distinct from "very old", which
/// is what gc safety hinges on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScannedFile {
    path: PathBuf,
    len: u64,
    modified: Option<std::time::SystemTime>,
}

/// What one gc sweep will do. Split from the I/O so the deletion
/// policy — orphan detection, oldest-first order, the deterministic
/// path tie-break — is testable on fabricated scans.
#[derive(Debug, Default)]
struct GcPlan {
    /// Orphaned temp files to reap (best-effort).
    reap_tmp: Vec<PathBuf>,
    /// Entries to delete, in deletion order.
    delete: Vec<(PathBuf, u64)>,
    /// Scan totals (removal counts are filled in as deletions land).
    report: GcReport,
}

/// Decides a gc sweep over a scan snapshot.
///
/// * A temp file is an orphan only when its mtime is *known* to be at
///   least [`TMP_ORPHAN_AGE`] old. An unreadable mtime is treated as
///   young — the file may belong to a live writer in another process,
///   and reaping it would yank the file out from under that writer.
/// * Entries are deleted oldest-first until the budget is met, with
///   equal mtimes (common after a batch write) broken by path so the
///   order is deterministic; unknown-mtime entries are treated as
///   youngest and deleted last.
fn plan_gc(files: Vec<ScannedFile>, max_bytes: u64, now: std::time::SystemTime) -> GcPlan {
    let mut plan = GcPlan::default();
    let mut entries = Vec::new();
    for file in files {
        if is_tmp(&file.path) {
            let orphaned = file
                .modified
                .and_then(|m| now.duration_since(m).ok())
                .is_some_and(|age| age >= TMP_ORPHAN_AGE);
            if orphaned {
                plan.reap_tmp.push(file.path);
            }
            continue;
        }
        plan.report.scanned_entries += 1;
        plan.report.scanned_bytes += file.len;
        entries.push(file);
    }
    // Oldest first; `None` (unknown mtime) sorts after every known
    // mtime; the path tie-break keeps equal-mtime order deterministic.
    entries.sort_by(|a, b| {
        (a.modified.is_none(), a.modified, a.path.as_os_str()).cmp(&(
            b.modified.is_none(),
            b.modified,
            b.path.as_os_str(),
        ))
    });
    let mut total = plan.report.scanned_bytes;
    for file in entries {
        if total <= max_bytes {
            break;
        }
        total -= file.len;
        plan.delete.push((file.path, file.len));
    }
    plan
}

impl Drop for Store {
    fn drop(&mut self) {
        self.flush();
    }
}

pub(crate) fn is_tmp(path: &Path) -> bool {
    path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(TMP_PREFIX))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("chipletqc-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(qubits: usize) -> EntryKey {
        EntryKey::new("b400|s2022", products::KIND_KGD_BIN, format!("{qubits}q"))
    }

    #[test]
    fn put_flush_get_round_trips() {
        let root = temp_root("roundtrip");
        let store = Store::open(&root, CacheMode::ReadWrite).unwrap();
        assert_eq!(store.get(&key(10)), None);
        store.put(&key(10), Encoding::Binary, b"hello".to_vec());
        store.flush();
        assert_eq!(store.get(&key(10)).as_deref(), Some(&b"hello"[..]));
        assert_eq!(store.stats(), StoreStats { hits: 1, misses: 1, writes: 1, invalid: 0 });
        // A second store over the same directory sees the entry.
        let other = Store::open(&root, CacheMode::ReadWrite).unwrap();
        assert_eq!(other.get(&key(10)).as_deref(), Some(&b"hello"[..]));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn modes_gate_reads_and_writes() {
        let root = temp_root("modes");
        let rw = Store::open(&root, CacheMode::ReadWrite).unwrap();
        rw.put(&key(10), Encoding::Binary, b"v".to_vec());
        rw.flush();

        let read_only = Store::open(&root, CacheMode::Read).unwrap();
        assert!(read_only.get(&key(10)).is_some());
        read_only.put(&key(20), Encoding::Binary, b"w".to_vec());
        read_only.flush();
        assert_eq!(read_only.stats().writes, 0);
        assert!(rw.get(&key(20)).is_none(), "read mode must not have written");

        let write_only = Store::open(&root, CacheMode::Write).unwrap();
        assert!(write_only.get(&key(10)).is_none(), "write mode never serves hits");
        assert_eq!(write_only.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_stale_and_mismatched_entries_are_misses() {
        let root = temp_root("corrupt");
        let store = Store::open(&root, CacheMode::ReadWrite).unwrap();
        store.put(&key(10), Encoding::Binary, b"payload".to_vec());
        store.flush();
        let path = store.entry_path(&key(10));

        // Truncation.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(store.get(&key(10)), None);
        assert_eq!(store.stats().invalid, 1);

        // Bit flip.
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(store.get(&key(10)), None);

        // A valid envelope written under a different logical key
        // (simulated hash collision / stale rename): also a miss.
        let foreign =
            envelope::seal("mono-pop", "some-other-key", Encoding::Binary, b"payload");
        std::fs::write(&path, foreign).unwrap();
        assert_eq!(store.get(&key(10)), None);
        assert_eq!(store.stats().invalid, 3);

        // Restoring the original bytes restores the hit.
        std::fs::write(&path, &full).unwrap();
        assert!(store.get(&key(10)).is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let a = EntryKey::new("ck", "kgd-bin", "10q");
        let b = EntryKey::new("ck", "mono-pop", "10q");
        let c = EntryKey::new("ck2", "kgd-bin", "10q");
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
        assert_ne!(a.logical(), b.logical());
        assert!(a.to_string().contains("kgd-bin"));
    }

    #[test]
    fn disk_stats_and_gc_enforce_budget() {
        let root = temp_root("gc");
        let store = Store::open(&root, CacheMode::ReadWrite).unwrap();
        for i in 0..6 {
            store.put(&key(10 * (i + 1)), Encoding::Binary, vec![0u8; 100]);
        }
        store.flush();
        let stats = store.disk_stats().unwrap();
        assert_eq!(stats.entries, 6);
        assert_eq!(stats.corrupt, 0);
        assert_eq!(stats.kinds.len(), 1);
        assert_eq!(stats.kinds[0].0, "kgd-bin");
        assert_eq!(stats.kinds[0].1, 6);
        assert!(stats.bytes > 600);

        let per_entry = stats.bytes / 6;
        let report = store.gc(per_entry * 3).unwrap();
        assert_eq!(report.scanned_entries, 6);
        assert!(report.removed_entries >= 3, "{report:?}");
        let after = store.disk_stats().unwrap();
        assert!(after.bytes <= per_entry * 3);
        // gc(0) empties the store; everything is recomputable.
        let report = store.gc(0).unwrap();
        assert_eq!(report.scanned_entries, report.removed_entries);
        assert_eq!(store.disk_stats().unwrap().entries, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_leaves_young_temp_files_alone() {
        // A live writer's in-flight temp file (young mtime) must
        // survive a concurrent gc in another process.
        let root = temp_root("tmp-live");
        let store = Store::open(&root, CacheMode::ReadWrite).unwrap();
        let tmp = root.join("objects").join("ab");
        std::fs::create_dir_all(&tmp).unwrap();
        let tmp = tmp.join(format!("{TMP_PREFIX}123-0-deadbeef"));
        std::fs::write(&tmp, b"half-written").unwrap();
        let report = store.gc(0).unwrap();
        assert_eq!(report.scanned_entries, 0, "temp files are not entries");
        assert!(tmp.exists(), "young temp file reaped out from under a live writer");
        let _ = std::fs::remove_dir_all(&root);
    }

    fn scanned(name: &str, len: u64, mtime_secs: Option<u64>) -> ScannedFile {
        ScannedFile {
            path: PathBuf::from(format!("objects/ab/{name}")),
            len,
            modified: mtime_secs
                .map(|s| std::time::UNIX_EPOCH + std::time::Duration::from_secs(s)),
        }
    }

    #[test]
    fn gc_plan_treats_unreadable_temp_mtime_as_young() {
        // Regression: an mtime-error temp file used to map to
        // UNIX_EPOCH — infinitely old — and get reaped while its
        // writer was still alive. Unknown age must mean "presumed
        // live", alongside genuinely young files; only a *known* old
        // mtime marks an orphan.
        let now = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        let plan = plan_gc(
            vec![
                scanned(&format!("{TMP_PREFIX}no-mtime"), 10, None),
                scanned(&format!("{TMP_PREFIX}young"), 10, Some(999_990)),
                scanned(&format!("{TMP_PREFIX}orphan"), 10, Some(1_000_000 - 3601)),
            ],
            0,
            now,
        );
        let reaped: Vec<&str> =
            plan.reap_tmp.iter().map(|p| p.file_name().unwrap().to_str().unwrap()).collect();
        assert_eq!(reaped, [format!("{TMP_PREFIX}orphan")]);
        assert!(plan.delete.is_empty(), "temp files never count as entries");
    }

    #[test]
    fn gc_plan_breaks_mtime_ties_by_path_and_defers_unknown_mtimes() {
        // Equal mtimes are the common case after a batch write; the
        // documented deterministic order is oldest first, ties by
        // file name, unknown mtimes last.
        let now = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        let plan = plan_gc(
            vec![
                scanned("b-tied", 10, Some(500)),
                scanned("unknown-age", 10, None),
                scanned("a-tied", 10, Some(500)),
                scanned("newer", 10, Some(900)),
                scanned("oldest", 10, Some(100)),
            ],
            0,
            now,
        );
        let order: Vec<&str> =
            plan.delete.iter().map(|(p, _)| p.file_name().unwrap().to_str().unwrap()).collect();
        assert_eq!(order, ["oldest", "a-tied", "b-tied", "newer", "unknown-age"]);
        assert_eq!(plan.report.scanned_entries, 5);
        assert_eq!(plan.report.scanned_bytes, 50);

        // A budget stops deletion as soon as the total fits: only the
        // two oldest go, and the tie-break decides which "tied" file
        // survives.
        let plan = plan_gc(
            vec![scanned("b-tied", 10, Some(500)), scanned("a-tied", 10, Some(500))],
            10,
            now,
        );
        assert_eq!(plan.delete.len(), 1);
        assert!(plan.delete[0].0.ends_with("a-tied"));
    }

    /// An in-memory peer: enough [`Backend`] to exercise the
    /// read-through tier without sockets.
    #[derive(Debug, Default)]
    struct MemBackend {
        entries: Mutex<BTreeMap<String, (Encoding, Vec<u8>)>>,
        puts: AtomicU64,
    }

    impl Backend for MemBackend {
        fn get(&self, key: &EntryKey) -> Lookup {
            match self.entries.lock().unwrap().get(&key.logical()) {
                Some((encoding, payload)) => {
                    Lookup::Hit { encoding: *encoding, payload: payload.clone() }
                }
                None => Lookup::Miss,
            }
        }

        fn put(&self, key: &EntryKey, encoding: Encoding, payload: &[u8]) -> io::Result<()> {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.entries.lock().unwrap().insert(key.logical(), (encoding, payload.to_vec()));
            Ok(())
        }

        fn list(&self) -> io::Result<Vec<EntryKey>> {
            Ok(self
                .entries
                .lock()
                .unwrap()
                .keys()
                .filter_map(|k| EntryKey::parse_logical(k))
                .collect())
        }
    }

    #[test]
    fn peer_tier_serves_local_misses_and_populates_read_through() {
        let root = temp_root("peer-tier");
        let peer = Arc::new(MemBackend::default());
        peer.put(&key(10), Encoding::Binary, b"from-peer").unwrap();

        let store =
            Store::open(&root, CacheMode::ReadWrite).unwrap().with_peer(Arc::clone(&peer) as _);
        assert!(store.has_peer());
        // A local miss falls through to the peer and counts as a hit.
        assert_eq!(store.get(&key(10)).as_deref(), Some(&b"from-peer"[..]));
        assert_eq!(store.stats(), StoreStats { hits: 1, misses: 0, writes: 1, invalid: 0 });
        // The read-through populate landed locally: drop the peer and
        // the entry still serves, encoding preserved.
        store.flush();
        let local_only = Store::open(&root, CacheMode::ReadWrite).unwrap();
        assert_eq!(local_only.get(&key(10)).as_deref(), Some(&b"from-peer"[..]));
        assert_eq!(
            local_only.local.get(&key(10)),
            Lookup::Hit { encoding: Encoding::Binary, payload: b"from-peer".to_vec() }
        );
        // A double miss (local and peer) is one store-level miss.
        assert_eq!(store.get(&key(20)), None);
        assert_eq!(store.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn read_mode_uses_the_peer_but_never_populates() {
        let root = temp_root("peer-readonly");
        let peer = Arc::new(MemBackend::default());
        peer.put(&key(10), Encoding::Json, b"{}").unwrap();
        let store = Store::open(&root, CacheMode::Read).unwrap().with_peer(peer as _);
        assert_eq!(store.get(&key(10)).as_deref(), Some(&b"{}"[..]));
        store.flush();
        assert_eq!(store.stats().writes, 0);
        let local_only = Store::open(&root, CacheMode::Read).unwrap();
        assert_eq!(local_only.get(&key(10)), None, "read mode must not have populated");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn serve_peer_side_respects_mode_and_skips_own_peer() {
        let root = temp_root("peer-serve");
        let upstream = Arc::new(MemBackend::default());
        upstream.put(&key(10), Encoding::Binary, b"upstream-only").unwrap();
        let store = Store::open(&root, CacheMode::ReadWrite).unwrap().with_peer(upstream as _);
        // Serving never cascades through this host's own peer: a mesh
        // of daemons pointing at each other must not loop.
        assert_eq!(store.serve_peer_get(&key(10)), Lookup::Miss);
        // A served put lands locally and is then served back.
        store.serve_peer_put(&key(20), Encoding::Json, b"{}").unwrap();
        assert_eq!(
            store.serve_peer_get(&key(20)),
            Lookup::Hit { encoding: Encoding::Json, payload: b"{}".to_vec() }
        );
        assert_eq!(store.serve_peer_list().unwrap(), vec![key(20)]);
        // Peer serving is not this host's workload: session counters
        // untouched.
        assert_eq!(store.stats(), StoreStats::default());

        let read_only = Store::open(&root, CacheMode::Read).unwrap();
        let err = read_only.serve_peer_put(&key(30), Encoding::Json, b"{}").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn push_replication_sends_computed_entries_but_never_echoes_populates() {
        let root = temp_root("push");
        let (peer_made, computed, silent) = (key(10), key(20), key(30));
        let peer = Arc::new(MemBackend::default());
        peer.put(&peer_made, Encoding::Binary, b"upstream").unwrap();
        assert_eq!(peer.puts.load(Ordering::Relaxed), 1);
        let store = Store::open(&root, CacheMode::ReadWrite)
            .unwrap()
            .with_peer(Arc::clone(&peer) as _)
            .with_push(true);
        assert!(store.pushes());
        // A locally-computed entry replicates to the peer behind the
        // write.
        store.put(&computed, Encoding::Json, b"{}".to_vec());
        store.flush();
        assert_eq!(
            peer.get(&computed),
            Lookup::Hit { encoding: Encoding::Json, payload: b"{}".to_vec() }
        );
        assert_eq!(peer.puts.load(Ordering::Relaxed), 2);
        // A read-through populate lands locally but is NOT pushed
        // back to the peer it came from.
        assert_eq!(store.get(&peer_made).as_deref(), Some(&b"upstream"[..]));
        store.flush();
        let local_only = Store::open(&root, CacheMode::Read).unwrap();
        assert!(local_only.get(&peer_made).is_some(), "populate landed locally");
        assert_eq!(peer.puts.load(Ordering::Relaxed), 2, "populate echoed back to its source");
        // Without with_push, nothing replicates.
        let quiet = Store::open(temp_root("push-off"), CacheMode::ReadWrite)
            .unwrap()
            .with_peer(Arc::clone(&peer) as _);
        assert!(!quiet.pushes());
        quiet.put(&silent, Encoding::Binary, b"v".to_vec());
        quiet.flush();
        assert_eq!(peer.get(&silent), Lookup::Miss);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn prefetch_pulls_only_missing_entries_and_is_synchronous() {
        let root = temp_root("prefetch");
        let (warm, cold_1, cold_2) = (key(10), key(20), key(30));
        let peer = Arc::new(MemBackend::default());
        peer.put(&warm, Encoding::Binary, b"already-local").unwrap();
        peer.put(&cold_1, Encoding::Json, b"{\"a\":1}").unwrap();
        peer.put(&cold_2, Encoding::Binary, b"bytes").unwrap();
        let store =
            Store::open(&root, CacheMode::ReadWrite).unwrap().with_peer(Arc::clone(&peer) as _);
        store.put(&warm, Encoding::Binary, b"already-local".to_vec());
        store.flush();
        let before = store.stats();
        let report = store.prefetch_from_peer().unwrap();
        assert_eq!(report, PrefetchReport { listed: 3, fetched: 2, present: 1, failed: 0 });
        assert_eq!(store.stats().since(before), StoreStats::default(), "maintenance traffic");
        // Synchronous: a peer-less store over the same directory
        // serves the transfers immediately, encodings preserved.
        let local_only = Store::open(&root, CacheMode::Read).unwrap();
        assert_eq!(local_only.get(&cold_1).as_deref(), Some(&b"{\"a\":1}"[..]));
        assert_eq!(local_only.get(&cold_2).as_deref(), Some(&b"bytes"[..]));
        // A second pass finds everything present.
        let again = store.prefetch_from_peer().unwrap();
        assert_eq!(again, PrefetchReport { listed: 3, fetched: 0, present: 3, failed: 0 });
        // No peer, or a mode that cannot persist: loud errors.
        let no_peer = Store::open(temp_root("prefetch-nopeer"), CacheMode::ReadWrite).unwrap();
        assert!(no_peer.prefetch_from_peer().is_err());
        let read_only = Store::open(&root, CacheMode::Read).unwrap().with_peer(peer as _);
        let err = read_only.prefetch_from_peer().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stats_since_supports_long_lived_services() {
        let root = temp_root("service");
        let store = Store::open(&root, CacheMode::ReadWrite).unwrap();
        store.put(&key(10), Encoding::Binary, b"v".to_vec());
        store.flush();
        let snapshot = store.stats();
        assert!(store.get(&key(10)).is_some());
        assert_eq!(
            store.stats().since(snapshot),
            StoreStats { hits: 1, misses: 0, writes: 0, invalid: 0 }
        );
        assert_eq!(StoreStats::default().since(store.stats()), StoreStats::default());
        let _ = std::fs::remove_dir_all(&root);
    }
}
