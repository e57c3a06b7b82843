//! The [`DurableStore`]: crash-safe persistence under the MVCC store.
//!
//! A durable store owns one **data directory** with a simple layout:
//!
//! ```text
//! <data-dir>/
//!   manifest-<epoch>.uomf   incremental checkpoint manifests (small)
//!   runs/run-<id>.uorun     immutable sorted-run files (paged v3, lazy)
//!   snapshot-<epoch>.uost   legacy whole-store checkpoints (still readable)
//!   wal/wal-<epoch>.log     the segmented write-ahead log (uo_wal)
//! ```
//!
//! and enforces the log-before-visibility discipline: an update is applied
//! to the in-memory [`StoreWriter`] (which has no externally visible
//! effect), **journaled + fsynced** per the configured [`FsyncPolicy`], and
//! only then published to readers / acknowledged to the client. A crash at
//! any point therefore loses only updates that were never acknowledged;
//! under `fsync=always` an acknowledged update is *never* lost.
//!
//! [`DurableStore::open`] recovers: it loads the **newest valid
//! checkpoint** (tolerating a corrupt or missing newest by falling back to
//! the previous one, and to the empty store when the directory is fresh),
//! then **replays the log tail** — every record with an epoch above the
//! checkpoint's — through a caller-supplied replay function, verifying
//! after each record that the writer landed on exactly the epoch the
//! record was stamped with. Replay goes through the ordinary
//! `StoreWriter::commit` machinery, so it takes the O(K)-per-commit
//! level-append path, never a base rewrite; [`RecoveryReport`] carries the
//! accumulated [`CommitStats`](crate::CommitStats) totals as proof.
//!
//! The replay function is injected (rather than baked in) because payloads
//! are canonical SPARQL Update serializations: parsing and re-running them
//! needs the query engine, which lives *above* this crate. `uo_core`
//! provides the standard replayer and the `run_update`-shaped entry points.
//!
//! # Incremental checkpoints
//!
//! A checkpoint persists the tiered run stack **incrementally**: each
//! level of the snapshot becomes one immutable run file
//! (`runs/run-<id>.uorun`, a single-level paged v3 container) that is
//! written only if it does not exist yet — levels already persisted by a
//! previous checkpoint are reused by reference. A small **manifest**
//! (`manifest-<epoch>.uomf`) then records the dictionary, statistics, and
//! the level table, and is written atomically. A checkpoint after K new
//! commits therefore writes O(K) rows plus a manifest, not the whole
//! store. Loading a manifest opens the run files **lazily** (pages fetched
//! on demand, budget [`DurableOptions::page_cache_bytes`]), so recovery of
//! a beyond-RAM store is cheap and cold queries work immediately.
//!
//! Run ids are allocated monotonically within a lineage, and
//! [`DurableStore::open`] raises the writer's next-run-id above every run
//! file on disk — so a run file name is written at most once, which is
//! what makes the write-if-absent reuse sound even across crash/fallback
//! lineages. Orphaned run files (from pruned manifests or abandoned
//! lineages) are garbage-collected by
//! [`note_checkpoint`](DurableStore::note_checkpoint) once no retained
//! manifest references them — skipped conservatively if any manifest is
//! unreadable.
//!
//! **Retention** is unchanged from the legacy whole-file scheme: two
//! checkpoints are kept (the newest and the one before it); log segments
//! are retired against the **older** of the two, so even if the newest
//! checkpoint were lost, the previous checkpoint plus the surviving log
//! still reconstructs every acknowledged commit.

use crate::paged::{
    decode_dict, decode_stats, encode_dict, encode_stats, open_container, write_container, Backing,
    ContainerMeta, Cursor, PageCacheStats, PagedOptions, KIND_RUN,
};
use crate::runs::Level;
use crate::stats::DatasetStats;
use crate::writer::StoreWriter;
use crate::{Snapshot, SnapshotError};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uo_obs::Tracer;
pub use uo_wal::{FsyncPolicy, WalOptions, WalStats};

/// Configuration of a [`DurableStore`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// When journal appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Log segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// How many checkpoint snapshots to retain (minimum 1). With 2 (the
    /// default), log segments are retired against the *older* retained
    /// checkpoint, keeping a full fallback lineage on disk.
    pub retain_checkpoints: usize,
    /// Page-cache byte budget per paged file opened during recovery (run
    /// files and v3 snapshot checkpoints are loaded lazily).
    pub page_cache_bytes: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            retain_checkpoints: 2,
            page_cache_bytes: 64 << 20,
        }
    }
}

/// An error while opening or operating a durable store.
#[derive(Debug)]
pub enum DurableError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid data that recovery cannot repair.
    Corrupt(String),
    /// A journaled record failed to replay (unparsable payload, or the
    /// replay landed on a different epoch than the record was stamped
    /// with — both mean the log and the store disagree).
    Replay(String),
    /// Another process holds the data directory's advisory lock.
    Locked(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable store I/O error: {e}"),
            DurableError::Corrupt(m) => write!(f, "corrupt durable store: {m}"),
            DurableError::Replay(m) => write!(f, "wal replay failed: {m}"),
            DurableError::Locked(m) => write!(f, "durable store locked: {m}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<uo_wal::WalError> for DurableError {
    fn from(e: uo_wal::WalError) -> Self {
        match e {
            uo_wal::WalError::Io(e) => DurableError::Io(e),
            uo_wal::WalError::Corrupt(m) => DurableError::Corrupt(m),
        }
    }
}

/// What [`DurableStore::open`] reconstructed.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint the recovery started from (0 = none).
    pub checkpoint_epoch: u64,
    /// Checkpoint files that failed to load and were skipped.
    pub checkpoints_skipped: usize,
    /// Log records replayed on top of the checkpoint.
    pub replayed_ops: usize,
    /// Bytes cut from the log's torn tail (0 = clean shutdown).
    pub truncated_bytes: u64,
    /// Delta rows sorted across every replayed commit — bounded by the
    /// replayed deltas, proof that replay merged instead of re-sorting.
    pub replay_rows_sorted: usize,
    /// Base rows merged across every replayed commit.
    pub replay_rows_merged: usize,
}

/// Live gauges a serving layer can read without locking the store: every
/// mutating operation on the [`DurableStore`] refreshes them.
#[derive(Debug, Default)]
pub struct DurableMetrics {
    /// Log segment files.
    pub wal_segments: AtomicUsize,
    /// Total log bytes on disk.
    pub wal_bytes: AtomicU64,
    /// Records currently in the log.
    pub wal_records: AtomicU64,
    /// Highest epoch guaranteed fsynced.
    pub synced_epoch: AtomicU64,
    /// Epoch of the newest checkpoint.
    pub last_checkpoint_epoch: AtomicU64,
    /// Records replayed by the most recent open.
    pub recovered_ops: AtomicUsize,
    /// Wall nanoseconds per WAL fsync (every fsync the log issues on its
    /// active segment, whatever the policy).
    pub fsync_hist: uo_obs::Histogram,
    /// Wall nanoseconds per journaled commit: the full
    /// [`DurableStore::journal`] call, i.e. append + policy fsync.
    pub commit_hist: uo_obs::Histogram,
}

/// What one checkpoint did.
#[derive(Debug, Clone, Default)]
pub struct CheckpointReport {
    /// Epoch the checkpoint persisted.
    pub epoch: u64,
    /// Log segments retired.
    pub segments_removed: usize,
    /// Log bytes freed.
    pub bytes_removed: u64,
    /// Run files this checkpoint wrote (levels not yet on disk).
    pub runs_written: usize,
    /// Levels reused by reference — their run files already existed.
    pub runs_reused: usize,
}

/// Crash-safe wrapper around a [`StoreWriter`]. See the module docs.
pub struct DurableStore {
    dir: PathBuf,
    opts: DurableOptions,
    wal: uo_wal::Wal,
    writer: StoreWriter,
    recovery: RecoveryReport,
    metrics: Arc<DurableMetrics>,
    /// Checkpoint epochs proven loadable (validated by this open, or
    /// written by this store), newest first. Retention — pruning old
    /// checkpoint files and retiring log segments — only ever counts
    /// these: an on-disk checkpoint that was never validated must not
    /// cost the log segments the real fallback needs.
    trusted_checkpoints: Vec<u64>,
    /// Span recorder for the commit pipeline — WAL appends, policy
    /// fsyncs, delta merges (via the inner writer) and recovery. Off by
    /// default; installed at open ([`DurableStore::open_traced`]) or via
    /// [`set_tracer`](DurableStore::set_tracer).
    tracer: Tracer,
    /// Parent span id for the next journaled commit's spans (0 = root).
    trace_parent: u64,
    /// Advisory `flock` on `<dir>/LOCK`, held for the store's lifetime so
    /// a second process (another server, an offline `compact`) cannot
    /// interleave writes into the same log. The OS releases it on any
    /// exit, including `kill -9` — no stale-lock recovery needed.
    _lock: fs::File,
}

impl fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("epoch", &self.writer.snapshot().epoch())
            .field("wal", &self.wal.stats())
            .finish()
    }
}

/// The file name of a legacy whole-store checkpoint at `epoch`.
pub fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch:020}.uost"))
}

/// The file name of an incremental checkpoint manifest at `epoch`.
pub fn manifest_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("manifest-{epoch:020}.uomf"))
}

/// The file of the immutable run with the given id.
fn run_path(dir: &Path, id: u64) -> PathBuf {
    dir.join("runs").join(format!("run-{id:020}.uorun"))
}

fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?.strip_suffix(".uost")?.parse().ok()
}

fn parse_manifest_name(name: &str) -> Option<u64> {
    name.strip_prefix("manifest-")?.strip_suffix(".uomf")?.parse().ok()
}

fn parse_run_name(name: &str) -> Option<u64> {
    name.strip_prefix("run-")?.strip_suffix(".uorun")?.parse().ok()
}

fn list_by(dir: &Path, parse: impl Fn(&str) -> Option<u64>) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(e) = entry.file_name().to_str().and_then(&parse) {
            out.push(e);
        }
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    Ok(out)
}

/// Epochs of all legacy checkpoint files in `dir`, newest first.
fn list_checkpoints(dir: &Path) -> io::Result<Vec<u64>> {
    list_by(dir, parse_checkpoint_name)
}

/// Epochs of all checkpoint manifests in `dir`, newest first.
fn list_manifests(dir: &Path) -> io::Result<Vec<u64>> {
    list_by(dir, parse_manifest_name)
}

/// Ids of all run files in `dir/runs`, newest first; `[]` when the
/// subdirectory does not exist yet.
fn list_runs(dir: &Path) -> io::Result<Vec<u64>> {
    match list_by(&dir.join("runs"), parse_run_name) {
        Ok(ids) => Ok(ids),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// Checkpoint epochs present in `dir` in either representation (manifest
/// or legacy whole-store file), newest first, deduplicated.
fn list_checkpoint_epochs(dir: &Path) -> io::Result<Vec<u64>> {
    let mut epochs = list_manifests(dir)?;
    epochs.extend(list_checkpoints(dir)?);
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    epochs.dedup();
    Ok(epochs)
}

/// Writes `bytes` to `path` atomically: temp file, fsync, rename, fsync of
/// the containing directory.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    {
        let mut f = fs::File::create(&tmp)?;
        use io::Write;
        if let Err(e) = f.write_all(bytes).and_then(|()| f.sync_all()) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(d) = fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// -- manifest encoding ------------------------------------------------------

const MANIFEST_MAGIC: &[u8; 4] = b"UOMF";
const MANIFEST_VERSION: u32 = 1;

/// A decoded checkpoint manifest: everything a snapshot holds except the
/// rows themselves, which live in the referenced run files.
struct Manifest {
    epoch: u64,
    len: u64,
    next_run_id: u64,
    dict: uo_rdf::Dictionary,
    stats: DatasetStats,
    /// Per level: run id + the six section row counts
    /// (adds SPO/POS/OSP, dels SPO/POS/OSP), bottom level first.
    levels: Vec<(u64, [u64; 6])>,
}

fn encode_manifest(snap: &Snapshot) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(MANIFEST_MAGIC);
    b.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    b.extend_from_slice(&snap.epoch().to_le_bytes());
    b.extend_from_slice(&(snap.len() as u64).to_le_bytes());
    b.extend_from_slice(&snap.next_run_id.to_le_bytes());
    let dict = encode_dict(snap.dictionary());
    b.extend_from_slice(&(dict.len() as u64).to_le_bytes());
    b.extend_from_slice(&dict);
    encode_stats(snap.stats(), &mut b);
    b.extend_from_slice(&(snap.levels.len() as u32).to_le_bytes());
    for level in &snap.levels {
        b.extend_from_slice(&level.id.to_le_bytes());
        for run in level.adds.iter().chain(level.dels.iter()) {
            b.extend_from_slice(&(run.len() as u64).to_le_bytes());
        }
    }
    let crc = uo_wal::crc32(&b);
    b.extend_from_slice(&crc.to_le_bytes());
    b
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, SnapshotError> {
    let corrupt = |m: &str| SnapshotError::Corrupt(format!("manifest: {m}"));
    if bytes.len() < 8 + 4 {
        return Err(corrupt("too small"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let want = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if uo_wal::crc32(body) != want {
        return Err(corrupt("crc mismatch"));
    }
    let mut cur = Cursor::new(body);
    if cur.take(4)? != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = cur.u32()?;
    if version != MANIFEST_VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let epoch = cur.u64()?;
    let len = cur.u64()?;
    let next_run_id = cur.u64()?;
    let dict_len = cur.u64()? as usize;
    let dict = decode_dict(cur.take(dict_len)?)?;
    let stats = decode_stats(&mut cur)?;
    let level_count = cur.u32()? as usize;
    if level_count > 1 << 20 {
        return Err(corrupt("level count out of range"));
    }
    let mut levels = Vec::with_capacity(level_count);
    for _ in 0..level_count {
        let id = cur.u64()?;
        let mut counts = [0u64; 6];
        for c in &mut counts {
            *c = cur.u64()?;
        }
        levels.push((id, counts));
    }
    if !cur.is_done() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(Manifest { epoch, len, next_run_id, dict, stats, levels })
}

/// Writes one level as an immutable single-level run container.
fn write_run_file(path: &Path, level: &Arc<Level>) -> io::Result<()> {
    let mut bytes = Vec::new();
    let meta = ContainerMeta {
        kind: KIND_RUN,
        epoch: 0,
        len: 0,
        next_run_id: 0,
        dict: None,
        stats: None,
        levels: std::slice::from_ref(level),
    };
    write_container(&mut bytes, &meta).map_err(|e| match e {
        SnapshotError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    })?;
    write_atomic(path, &bytes)
}

/// Opens the run file for `id` lazily and returns its level, validating
/// the container kind, level id and section row counts against the
/// manifest's expectations.
fn open_run_file(
    dir: &Path,
    id: u64,
    counts: &[u64; 6],
    cache_bytes: usize,
    cache_stats: &Arc<PageCacheStats>,
) -> Result<Arc<Level>, SnapshotError> {
    let corrupt = |m: String| SnapshotError::Corrupt(m);
    let file = fs::File::open(run_path(dir, id))?;
    let c =
        open_container(Backing::File(file), PagedOptions { cache_bytes }, Arc::clone(cache_stats))?;
    if c.kind != KIND_RUN {
        return Err(corrupt(format!("run {id}: not a run container")));
    }
    let [level] = <[Arc<Level>; 1]>::try_from(c.levels)
        .map_err(|_| corrupt(format!("run {id}: expected exactly one level")))?;
    if level.id != id {
        return Err(corrupt(format!("run {id}: file holds level {}", level.id)));
    }
    let got: Vec<u64> =
        level.adds.iter().chain(level.dels.iter()).map(|r| r.len() as u64).collect();
    if got != counts {
        return Err(corrupt(format!("run {id}: row counts disagree with the manifest")));
    }
    Ok(level)
}

/// Loads the checkpoint described by `manifest-<epoch>.uomf`, opening its
/// run files lazily (shared page-cache counters, per-file `cache_bytes`
/// budget).
fn load_manifest_snapshot(
    dir: &Path,
    epoch: u64,
    cache_bytes: usize,
) -> Result<Snapshot, SnapshotError> {
    let m = decode_manifest(&fs::read(manifest_path(dir, epoch))?)?;
    if m.epoch != epoch {
        return Err(SnapshotError::Corrupt("manifest: file name lies about its epoch".into()));
    }
    let cache_stats = Arc::new(PageCacheStats::default());
    let mut levels = Vec::with_capacity(m.levels.len());
    let mut live: i64 = 0;
    for (id, counts) in &m.levels {
        live += counts[0] as i64 - counts[3] as i64;
        levels.push(open_run_file(dir, *id, counts, cache_bytes, &cache_stats)?);
    }
    if live != m.len as i64 {
        return Err(SnapshotError::Corrupt(
            "manifest: live row count inconsistent with level table".into(),
        ));
    }
    Ok(Snapshot {
        dict: Arc::new(m.dict),
        epoch: m.epoch,
        levels,
        len: m.len as usize,
        next_run_id: m.next_run_id,
        stats: m.stats,
    })
}

/// What [`write_checkpoint_file`] persisted.
#[derive(Debug, Clone)]
pub struct CheckpointWrite {
    /// Path of the manifest file.
    pub path: PathBuf,
    /// Run files written (levels that were not on disk yet).
    pub runs_written: usize,
    /// Levels whose run file already existed and was reused.
    pub runs_reused: usize,
}

/// Persists `snap` as an incremental checkpoint in `dir`: one immutable
/// run file per level **that is not on disk yet** (run ids are allocated
/// monotonically per lineage, so an existing `runs/run-<id>.uorun` already
/// holds exactly this level), then the manifest, written atomically last —
/// a crash at any point leaves either the previous checkpoint or the new
/// one, never a half state. Safe to call without any store lock — a
/// snapshot is immutable — which is how the server's background
/// checkpointer avoids stalling writers during the file writes.
pub fn write_checkpoint_file(dir: &Path, snap: &Snapshot) -> io::Result<CheckpointWrite> {
    fs::create_dir_all(dir.join("runs"))?;
    let mut runs_written = 0;
    let mut runs_reused = 0;
    for level in &snap.levels {
        let path = run_path(dir, level.id);
        if path.exists() {
            runs_reused += 1;
        } else {
            write_run_file(&path, level)?;
            runs_written += 1;
        }
    }
    let path = manifest_path(dir, snap.epoch());
    write_atomic(&path, &encode_manifest(snap))?;
    Ok(CheckpointWrite { path, runs_written, runs_reused })
}

impl DurableStore {
    /// Opens (or creates) the durable store in `dir`, recovering to the
    /// last durable state: newest loadable checkpoint + full log-tail
    /// replay. `replay` applies one journaled payload to the writer **and
    /// commits it** (typically: parse the canonical update serialization,
    /// run it); after each record the writer must sit at exactly the
    /// record's stamped epoch, or the open fails with
    /// [`DurableError::Replay`].
    pub fn open(
        dir: &Path,
        opts: DurableOptions,
        replay: impl FnMut(&mut StoreWriter, &[u8]) -> Result<(), String>,
    ) -> Result<DurableStore, DurableError> {
        DurableStore::open_traced(dir, opts, Tracer::off(), replay)
    }

    /// [`open`](DurableStore::open) with a span recorder: recovery emits
    /// an `open` root span (category `recovery`) with `load_checkpoint`
    /// and `wal_replay` children, and the tracer stays installed on the
    /// store (and its writer) for the commit pipeline's spans.
    pub fn open_traced(
        dir: &Path,
        opts: DurableOptions,
        tracer: Tracer,
        mut replay: impl FnMut(&mut StoreWriter, &[u8]) -> Result<(), String>,
    ) -> Result<DurableStore, DurableError> {
        let open_span = tracer.start(0, "recovery", "open");
        fs::create_dir_all(dir)?;
        // One process per data dir: two writers interleaving appends into
        // the same active segment would corrupt the log even though each
        // follows the protocol. Advisory flock, auto-released on death.
        let lock = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join("LOCK"))?;
        if let Err(e) = lock.try_lock() {
            return Err(DurableError::Locked(format!(
                "{} is in use by another process ({e})",
                dir.display()
            )));
        }
        // Sweep temp files orphaned by a crash mid-write (the atomic rename
        // never promoted them); run-file temps can be large, and a crash
        // loop would otherwise accumulate them indefinitely.
        let sweep_tmp = |d: &Path| -> io::Result<()> {
            for entry in fs::read_dir(d)? {
                let entry = entry?;
                if entry.file_name().to_str().is_some_and(|n| n.ends_with(".tmp")) {
                    let _ = fs::remove_file(entry.path());
                }
            }
            Ok(())
        };
        sweep_tmp(dir)?;
        match sweep_tmp(&dir.join("runs")) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            r => r?,
        }
        let mut recovery = RecoveryReport::default();

        // Newest valid checkpoint wins — incremental manifests and legacy
        // whole-store files compete in one epoch order, manifest preferred
        // at a tie. Unloadable ones are skipped (the atomic writer makes
        // them near-impossible, but a half-copied backup or a bad disk
        // should degrade, not brick the store) and structurally-corrupt
        // ones deleted — they must never be counted as retention
        // fallbacks, or a later checkpoint would retire the log segments
        // the *real* fallback still needs. Deleting a manifest never
        // touches its run files: other manifests may share them.
        let cp_span = tracer.start(open_span.id, "recovery", "load_checkpoint");
        let mut base: Option<Arc<Snapshot>> = None;
        'epochs: for epoch in list_checkpoint_epochs(dir)? {
            if manifest_path(dir, epoch).exists() {
                match load_manifest_snapshot(dir, epoch, opts.page_cache_bytes) {
                    Ok(snap) => {
                        recovery.checkpoint_epoch = epoch;
                        base = Some(Arc::new(snap));
                        break 'epochs;
                    }
                    Err(SnapshotError::Corrupt(_)) => {
                        recovery.checkpoints_skipped += 1;
                        let _ = fs::remove_file(manifest_path(dir, epoch));
                    }
                    // A referenced run file is gone: the manifest can never
                    // load again — treat it like structural corruption.
                    Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                        recovery.checkpoints_skipped += 1;
                        let _ = fs::remove_file(manifest_path(dir, epoch));
                    }
                    // A transient read error: skip but keep the manifest.
                    Err(_) => recovery.checkpoints_skipped += 1,
                }
            }
            match crate::load_from_file_with(
                &checkpoint_path(dir, epoch),
                crate::PagedOptions { cache_bytes: opts.page_cache_bytes },
            ) {
                Ok(store) => {
                    let snap = store.snapshot();
                    if snap.epoch() != epoch {
                        recovery.checkpoints_skipped += 1;
                        let _ = fs::remove_file(checkpoint_path(dir, epoch));
                        continue; // file name lies about its content
                    }
                    recovery.checkpoint_epoch = epoch;
                    base = Some(snap);
                    break;
                }
                Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {}
                Err(SnapshotError::Corrupt(_)) => {
                    recovery.checkpoints_skipped += 1;
                    let _ = fs::remove_file(checkpoint_path(dir, epoch));
                }
                // A transient read error: skip but keep the file — it may
                // be fine on a healthier day, we just cannot vouch for it.
                Err(_) => recovery.checkpoints_skipped += 1,
            }
        }
        tracer.end_with(cp_span, || {
            vec![
                ("epoch", recovery.checkpoint_epoch.to_string()),
                ("skipped", recovery.checkpoints_skipped.to_string()),
            ]
        });
        let mut base = base.unwrap_or_else(|| Arc::new(Snapshot::empty()));
        // Raise the run-id floor above every run file on disk, so ids
        // allocated by this lineage never collide with a file written by an
        // abandoned or newer one — which is what makes the write-if-absent
        // reuse in `write_checkpoint_file` sound.
        let floor = list_runs(dir)?.first().map_or(0, |max| max + 1);
        if floor > base.next_run_id {
            let mut raised = (*base).clone();
            raised.next_run_id = floor;
            base = Arc::new(raised);
        }
        // Checkpoints proven loadable: the one recovery validated now, plus
        // every one this store writes itself. Only these count for
        // retention decisions (pruning and segment retirement).
        let trusted_checkpoints: Vec<u64> = if recovery.checkpoint_epoch > 0 {
            vec![recovery.checkpoint_epoch]
        } else {
            Vec::new()
        };

        let wal_opts = WalOptions { fsync: opts.fsync, segment_bytes: opts.segment_bytes };
        let (mut wal, log) = uo_wal::Wal::open(&dir.join("wal"), wal_opts)?;
        recovery.truncated_bytes = log.truncated_bytes;

        let mut writer = StoreWriter::from_snapshot(base);
        writer.set_tracer(tracer.clone());
        let replay_span = tracer.start(open_span.id, "recovery", "wal_replay");
        writer.set_trace_parent(replay_span.id);
        let before = writer.merge_totals();
        for record in &log.records {
            if record.epoch <= writer.snapshot().epoch() {
                continue; // already covered by the checkpoint
            }
            replay(&mut writer, &record.payload).map_err(DurableError::Replay)?;
            let landed = writer.snapshot().epoch();
            if landed != record.epoch {
                return Err(DurableError::Replay(format!(
                    "record stamped epoch {} replayed to epoch {landed} — the log does not \
                     describe this store",
                    record.epoch
                )));
            }
            recovery.replayed_ops += 1;
        }
        let after = writer.merge_totals();
        recovery.replay_rows_sorted = after.0 - before.0;
        recovery.replay_rows_merged = after.1 - before.1;
        writer.set_trace_parent(0);
        tracer.end_with(replay_span, || {
            vec![
                ("records", log.records.len().to_string()),
                ("replayed_ops", recovery.replayed_ops.to_string()),
                ("truncated_bytes", recovery.truncated_bytes.to_string()),
            ]
        });

        let metrics = Arc::new(DurableMetrics::default());
        metrics.recovered_ops.store(recovery.replayed_ops, Ordering::Relaxed);
        wal.set_fsync_observer({
            let m = Arc::clone(&metrics);
            Arc::new(move |nanos| m.fsync_hist.record(nanos))
        });
        metrics.last_checkpoint_epoch.store(recovery.checkpoint_epoch, Ordering::Relaxed);
        let ds = DurableStore {
            dir: dir.to_path_buf(),
            opts,
            wal,
            writer,
            recovery,
            metrics,
            trusted_checkpoints,
            tracer: tracer.clone(),
            trace_parent: 0,
            _lock: lock,
        };
        ds.publish_wal_metrics();
        let epoch = ds.writer.snapshot().epoch();
        tracer.end_with(open_span, || vec![("epoch", epoch.to_string())]);
        Ok(ds)
    }

    /// The latest committed snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.writer.snapshot()
    }

    /// Mutable access to the writer, for applying updates. The caller owns
    /// the protocol: apply + commit, then [`journal`](Self::journal) the
    /// canonical serialization before publishing or acknowledging.
    pub fn writer_mut(&mut self) -> &mut StoreWriter {
        &mut self.writer
    }

    /// Journals one applied request, stamped with its post-commit epoch,
    /// and fsyncs per policy. Must be called in epoch order — exactly the
    /// order requests commit in.
    pub fn journal(&mut self, epoch: u64, payload: &[u8]) -> io::Result<()> {
        let span = self.tracer.start(self.trace_parent, "wal", "wal_append");
        let _ = self.wal.take_last_fsync_nanos();
        let t = Instant::now();
        self.wal.append(epoch, payload)?;
        self.metrics.commit_hist.record(t.elapsed().as_nanos() as u64);
        // The fsync (if the policy issued one) happened at the tail of the
        // append: reconstruct its window as a child span ending now.
        if let Some(nanos) = self.wal.take_last_fsync_nanos() {
            if let Some(start) = Instant::now().checked_sub(Duration::from_nanos(nanos)) {
                self.tracer.record(span.id, "wal", "wal_fsync", start, nanos, || {
                    vec![("epoch", epoch.to_string())]
                });
            }
        }
        let bytes = payload.len();
        self.tracer
            .end_with(span, || vec![("epoch", epoch.to_string()), ("bytes", bytes.to_string())]);
        self.publish_wal_metrics();
        Ok(())
    }

    /// Installs a span recorder on the store and its writer (see
    /// [`StoreWriter::set_tracer`]); recovery-time installation happens in
    /// [`open_traced`](DurableStore::open_traced).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.clone();
        self.writer.set_tracer(tracer);
    }

    /// Sets the parent span id for the next commit's spans — the delta
    /// merge recorded by the writer and the `wal_append`/`wal_fsync` pair
    /// recorded by [`journal`](DurableStore::journal). Callers serialize
    /// writers, so setting this while holding the writer lock is race-free.
    pub fn set_trace_parent(&mut self, parent: u64) {
        self.trace_parent = parent;
        self.writer.set_trace_parent(parent);
    }

    /// Forces the log to stable storage regardless of the fsync policy
    /// (called on graceful shutdown so `every-N` / `never` lose nothing).
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()?;
        self.publish_wal_metrics();
        Ok(())
    }

    /// Abandons everything since `base`: pending delta *and* any
    /// intermediate commits a cancelled or failed request performed. The
    /// next request continues from `base` as if the abandoned one never
    /// happened — which is true durably, because nothing was journaled.
    pub fn reset_to(&mut self, base: Arc<Snapshot>) {
        self.writer = StoreWriter::from_snapshot(base);
        self.writer.set_tracer(self.tracer.clone());
        self.writer.set_trace_parent(self.trace_parent);
    }

    /// Persists the current snapshot as an incremental checkpoint (new run
    /// files + manifest) and retires fully-covered log segments.
    /// Convenience for single-threaded callers (CLI `compact`); the server
    /// splits the two phases so the file writes happen outside the writer
    /// lock (see [`write_checkpoint_file`]).
    pub fn checkpoint(&mut self) -> io::Result<CheckpointReport> {
        let snap = self.writer.snapshot();
        let written = write_checkpoint_file(&self.dir, &snap)?;
        let mut report = self.note_checkpoint(snap.epoch())?;
        report.runs_written = written.runs_written;
        report.runs_reused = written.runs_reused;
        Ok(report)
    }

    /// Folds the tiered run stack into a single level — same epoch, same
    /// content — bounding read fan-in and letting the next checkpoint's
    /// run-file GC reclaim the superseded levels.
    pub fn compact(&mut self, par: uo_par::Parallelism) -> Result<(), SnapshotError> {
        let compacted = self.writer.snapshot().compact_with(par)?;
        let installed = self.writer.install_compacted(Arc::new(compacted));
        debug_assert!(installed, "no concurrent commit can interleave under &mut self");
        Ok(())
    }

    /// Records that a checkpoint at `epoch` exists on disk (written via
    /// [`write_checkpoint_file`]): prunes checkpoints beyond the retention
    /// count, garbage-collects run files no retained manifest references,
    /// and retires every log segment fully covered by the **oldest
    /// retained** checkpoint.
    pub fn note_checkpoint(&mut self, epoch: u64) -> io::Result<CheckpointReport> {
        let mut report = CheckpointReport { epoch, ..CheckpointReport::default() };
        let retain = self.opts.retain_checkpoints.max(1);
        // Retention reasons over *trusted* checkpoints only (ones this
        // store validated at open or wrote itself): an unvalidated file
        // sitting in the directory must neither count toward the retain
        // quota nor become the epoch segments are retired against — if it
        // turned out corrupt, the double-fault fallback (previous good
        // checkpoint + log) would be missing exactly the retired records.
        if !self.trusted_checkpoints.contains(&epoch) {
            self.trusted_checkpoints.push(epoch);
            self.trusted_checkpoints.sort_unstable_by(|a, b| b.cmp(a));
        }
        self.trusted_checkpoints.truncate(retain);
        let oldest_retained = *self.trusted_checkpoints.last().expect("just pushed");
        // Prune checkpoint files — manifests and legacy whole-store files —
        // strictly older than the oldest retained trusted one. (Unvalidated
        // files newer than it stay; open sweeps them if they are corrupt.)
        for old in list_checkpoints(&self.dir)? {
            if old < oldest_retained {
                let _ = fs::remove_file(checkpoint_path(&self.dir, old));
            }
        }
        for old in list_manifests(&self.dir)? {
            if old < oldest_retained {
                let _ = fs::remove_file(manifest_path(&self.dir, old));
            }
        }
        // Run-file GC: a run file is garbage once no surviving manifest
        // references it (superseded by compaction, or its manifest was
        // pruned). Skipped entirely if any manifest is unreadable — we
        // cannot prove anything unreferenced then, and open() will settle
        // the unreadable manifest's fate on the next recovery.
        let mut referenced = std::collections::HashSet::new();
        let mut every_manifest_readable = true;
        for e in list_manifests(&self.dir)? {
            match fs::read(manifest_path(&self.dir, e))
                .map_err(SnapshotError::Io)
                .and_then(|b| decode_manifest(&b))
            {
                Ok(m) => referenced.extend(m.levels.iter().map(|(id, _)| *id)),
                Err(_) => every_manifest_readable = false,
            }
        }
        if every_manifest_readable {
            for id in list_runs(&self.dir)? {
                if !referenced.contains(&id) {
                    let _ = fs::remove_file(run_path(&self.dir, id));
                }
            }
        }
        // Publish the checkpoint gauge *before* attempting retirement: the
        // checkpoint file exists and is trusted regardless of whether a
        // segment deletion below fails, and the server's checkpointer
        // gates on this gauge — a stale value would make it re-serialize
        // the whole store every interval for as long as the error lasts.
        self.metrics
            .last_checkpoint_epoch
            .store(self.trusted_checkpoints.first().copied().unwrap_or(0), Ordering::Relaxed);
        // Retire only once `retain` trusted checkpoints exist, and against
        // the oldest retained one — the fallback lineage (previous good
        // checkpoint + surviving log) always reconstructs every commit.
        let retired = if self.trusted_checkpoints.len() >= retain {
            self.wal.retire_through(oldest_retained)
        } else {
            Ok(uo_wal::RetireReport::default())
        };
        self.publish_wal_metrics();
        let retired = retired?;
        report.segments_removed = retired.segments_removed;
        report.bytes_removed = retired.bytes_removed;
        Ok(report)
    }

    /// Adopts `snap` as the initial content of a **fresh** store (empty
    /// checkpointless directory) and checkpoints it immediately, so the
    /// seed itself is durable before any update is accepted.
    ///
    /// # Panics
    /// Panics if the store is not fresh — seeding would silently shadow
    /// recovered data.
    pub fn seed(&mut self, snap: Arc<Snapshot>) -> io::Result<CheckpointReport> {
        assert!(self.is_fresh(), "DurableStore::seed on a directory that already has state");
        self.writer = StoreWriter::from_snapshot(snap);
        self.writer.set_tracer(self.tracer.clone());
        self.checkpoint()
    }

    /// True when the directory held no durable state at open: no
    /// checkpoint, no journaled record, nothing replayed.
    pub fn is_fresh(&self) -> bool {
        self.recovery.checkpoint_epoch == 0
            && self.recovery.replayed_ops == 0
            && self.wal.stats().records == 0
            && self.writer.snapshot().is_empty()
    }

    /// What the open recovered.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Current log statistics.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Lock-free gauges for a serving layer (shared `Arc`).
    pub fn metrics(&self) -> Arc<DurableMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured options.
    pub fn options(&self) -> DurableOptions {
        self.opts
    }

    fn publish_wal_metrics(&self) {
        let s = self.wal.stats();
        self.metrics.wal_segments.store(s.segments, Ordering::Relaxed);
        self.metrics.wal_bytes.store(s.bytes, Ordering::Relaxed);
        self.metrics.wal_records.store(s.records, Ordering::Relaxed);
        self.metrics.synced_epoch.store(s.synced_epoch, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "uo_durable_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Test replayer: payloads are N-Triples documents; replay = load +
    /// commit. (The real replayer — canonical SPARQL Update — lives in
    /// uo_core, above this crate.)
    fn nt_replay(w: &mut StoreWriter, payload: &[u8]) -> Result<(), String> {
        let doc = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        w.load_ntriples(doc).map_err(|e| e.to_string())?;
        w.commit_with(uo_par::Parallelism::sequential());
        Ok(())
    }

    fn apply_nt(ds: &mut DurableStore, doc: &str) {
        nt_replay(ds.writer_mut(), doc.as_bytes()).unwrap();
        let epoch = ds.snapshot().epoch();
        ds.journal(epoch, doc.as_bytes()).unwrap();
    }

    fn open(dir: &Path, opts: DurableOptions) -> DurableStore {
        DurableStore::open(dir, opts, nt_replay).expect("durable open")
    }

    #[test]
    fn fresh_open_journal_recover() {
        let dir = temp_dir("basic");
        {
            let mut ds = open(&dir, DurableOptions::default());
            assert!(ds.is_fresh());
            apply_nt(&mut ds, "<http://a> <http://p> <http://b> .\n");
            apply_nt(&mut ds, "<http://a> <http://p> <http://c> .\n");
            assert_eq!(ds.snapshot().len(), 2);
            assert_eq!(ds.wal_stats().records, 2);
            assert_eq!(ds.wal_stats().synced_epoch, ds.snapshot().epoch());
        } // no checkpoint: everything must come back from the log alone
        let ds = open(&dir, DurableOptions::default());
        assert!(!ds.is_fresh());
        assert_eq!(ds.recovery().replayed_ops, 2);
        assert_eq!(ds.recovery().checkpoint_epoch, 0);
        assert_eq!(ds.snapshot().len(), 2);
        assert_eq!(ds.snapshot().epoch(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_bounds_replay_and_retires_segments() {
        let dir = temp_dir("checkpoint");
        // Tiny segments so every record rotates; retention 2.
        let opts = DurableOptions { segment_bytes: 1, ..DurableOptions::default() };
        {
            let mut ds = open(&dir, opts);
            for i in 0..6 {
                apply_nt(&mut ds, &format!("<http://s{i}> <http://p> <http://o{i}> .\n"));
            }
            assert!(ds.wal_stats().segments >= 6);
            let cp = ds.checkpoint().unwrap();
            assert_eq!(cp.epoch, 6);
            // First checkpoint: retirement is held back until an *older*
            // retained checkpoint exists (retain_checkpoints = 2).
            apply_nt(&mut ds, "<http://s6> <http://p> <http://o6> .\n");
            let cp2 = ds.checkpoint().unwrap();
            assert_eq!(cp2.epoch, 7);
            assert!(cp2.segments_removed > 0, "segments covered by checkpoint 6 retired");
        }
        let ds = open(&dir, opts);
        assert_eq!(ds.recovery().checkpoint_epoch, 7);
        assert_eq!(ds.recovery().replayed_ops, 0, "checkpoint covers the whole log");
        assert_eq!(ds.snapshot().len(), 7);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_falls_back_to_previous_checkpoint_when_newest_is_corrupt() {
        let dir = temp_dir("fallback");
        {
            let mut ds = open(&dir, DurableOptions::default());
            apply_nt(&mut ds, "<http://a> <http://p> <http://b> .\n");
            ds.checkpoint().unwrap(); // snapshot-…1
            apply_nt(&mut ds, "<http://a> <http://p> <http://c> .\n");
            ds.checkpoint().unwrap(); // snapshot-…2
        }
        // Vandalize the newest checkpoint manifest.
        let newest = manifest_path(&dir, 2);
        fs::write(&newest, b"UOMFgarbage").unwrap();
        let ds = open(&dir, DurableOptions::default());
        assert_eq!(ds.recovery().checkpoints_skipped, 1);
        assert_eq!(ds.recovery().checkpoint_epoch, 1, "fell back to the previous checkpoint");
        // Segments were retired against checkpoint 1 (the older retained
        // one), so the record for epoch 2 is still in the log and replays.
        assert_eq!(ds.recovery().replayed_ops, 1);
        assert_eq!(ds.snapshot().len(), 2);
        assert_eq!(ds.snapshot().epoch(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_log_tail_recovers_longest_prefix() {
        let dir = temp_dir("torn");
        {
            let mut ds = open(&dir, DurableOptions::default());
            apply_nt(&mut ds, "<http://a> <http://p> <http://b> .\n");
            apply_nt(&mut ds, "<http://a> <http://p> <http://c> .\n");
        }
        // Cut the single log segment mid-way through the final record.
        let wal_dir = dir.join("wal");
        let seg = fs::read_dir(&wal_dir).unwrap().next().unwrap().unwrap().path();
        let len = fs::metadata(&seg).unwrap().len();
        fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 3).unwrap();
        let ds = open(&dir, DurableOptions::default());
        assert_eq!(ds.recovery().replayed_ops, 1, "only the intact record replays");
        assert!(ds.recovery().truncated_bytes > 0);
        assert_eq!(ds.snapshot().len(), 1);
        assert_eq!(ds.snapshot().epoch(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_epoch_mismatch_is_detected() {
        let dir = temp_dir("mismatch");
        {
            let mut ds = open(&dir, DurableOptions::default());
            // Journal a record stamped with the wrong epoch on purpose by
            // bypassing apply_nt: the replayer will land on epoch 1.
            let doc = "<http://a> <http://p> <http://b> .\n";
            nt_replay(ds.writer_mut(), doc.as_bytes()).unwrap();
            ds.journal(99, doc.as_bytes()).unwrap();
        }
        match DurableStore::open(&dir, DurableOptions::default(), nt_replay) {
            Err(DurableError::Replay(m)) => assert!(m.contains("stamped epoch 99"), "{m}"),
            other => panic!("expected replay mismatch, got {:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seed_checkpoints_immediately() {
        let dir = temp_dir("seed");
        {
            let mut w = StoreWriter::new();
            w.load_ntriples("<http://x> <http://p> <http://y> .\n").unwrap();
            let mut ds = open(&dir, DurableOptions::default());
            ds.seed(w.commit_with(uo_par::Parallelism::sequential())).unwrap();
            assert!(!ds.is_fresh());
        } // crash right after seeding: the checkpoint alone must restore it
        let ds = open(&dir, DurableOptions::default());
        assert_eq!(ds.snapshot().len(), 1);
        assert_eq!(ds.recovery().replayed_ops, 0);
        assert!(ds.recovery().checkpoint_epoch >= 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_to_discards_unjournaled_commits() {
        let dir = temp_dir("reset");
        let mut ds = open(&dir, DurableOptions::default());
        apply_nt(&mut ds, "<http://a> <http://p> <http://b> .\n");
        let base = ds.snapshot();
        // A request applies + commits but is then cancelled before its
        // journal write: reset must take the writer back to base.
        nt_replay(ds.writer_mut(), "<http://z> <http://p> <http://w> .\n".as_bytes()).unwrap();
        assert_eq!(ds.snapshot().epoch(), base.epoch() + 1);
        ds.reset_to(Arc::clone(&base));
        assert!(Arc::ptr_eq(&ds.snapshot(), &base));
        // And recovery agrees: only the journaled request survives.
        drop(ds);
        let ds = open(&dir, DurableOptions::default());
        assert_eq!(ds.snapshot().len(), 1);
        assert_eq!(ds.snapshot().epoch(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_track_log_and_checkpoints() {
        let dir = temp_dir("metrics");
        let mut ds = open(&dir, DurableOptions::default());
        let m = ds.metrics();
        apply_nt(&mut ds, "<http://a> <http://p> <http://b> .\n");
        assert_eq!(m.wal_records.load(Ordering::Relaxed), 1);
        assert!(m.wal_bytes.load(Ordering::Relaxed) > 0);
        assert_eq!(m.synced_epoch.load(Ordering::Relaxed), 1);
        assert_eq!(m.last_checkpoint_epoch.load(Ordering::Relaxed), 0);
        ds.checkpoint().unwrap();
        assert_eq!(m.last_checkpoint_epoch.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_never_counts_unvalidated_checkpoints() {
        // The double-fault drill: a corrupt checkpoint planted between two
        // good ones must not soak up a retention slot or become the epoch
        // segments are retired against — else losing the newest good
        // checkpoint would strand commits with neither checkpoint nor log.
        let dir = temp_dir("untrusted");
        let opts = DurableOptions { segment_bytes: 1, ..DurableOptions::default() };
        {
            let mut ds = open(&dir, opts);
            for i in 0..3 {
                apply_nt(&mut ds, &format!("<http://s{i}> <http://p> <http://o{i}> .\n"));
            }
            ds.checkpoint().unwrap(); // good checkpoint at 3
            apply_nt(&mut ds, "<http://s3> <http://p> <http://o3> .\n");
            apply_nt(&mut ds, "<http://s4> <http://p> <http://o4> .\n");
        }
        // A corrupt checkpoint appears at epoch 4 (bad disk, half copy).
        fs::write(manifest_path(&dir, 4), b"UOMFgarbage").unwrap();
        {
            let mut ds = open(&dir, opts);
            assert_eq!(ds.recovery().checkpoint_epoch, 3, "good checkpoint wins");
            assert_eq!(ds.recovery().replayed_ops, 2);
            // New checkpoint at 5: retirement must reason over [5, 3] —
            // the trusted pair — not the corrupt 4, so records 4 and 5
            // stay in the log as checkpoint 3's fallback lineage.
            ds.checkpoint().unwrap();
            assert_eq!(ds.wal_stats().records, 2, "records above the trusted fallback stay");
        }
        // Double fault: the newest good checkpoint dies too.
        fs::write(manifest_path(&dir, 5), b"UOMFgarbage").unwrap();
        let ds = open(&dir, opts);
        assert_eq!(ds.recovery().checkpoint_epoch, 3);
        assert_eq!(ds.recovery().replayed_ops, 2, "fallback + log reconstructs everything");
        assert_eq!(ds.snapshot().len(), 5);
        assert_eq!(ds.snapshot().epoch(), 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn data_dir_is_single_process() {
        let dir = temp_dir("lock");
        let ds = open(&dir, DurableOptions::default());
        // A second open (same process, distinct file description — flock
        // semantics match a second process) must be refused.
        match DurableStore::open(&dir, DurableOptions::default(), nt_replay) {
            Err(DurableError::Locked(m)) => assert!(m.contains("in use"), "{m}"),
            other => panic!("expected Locked, got {:?}", other.map(|_| ())),
        }
        // Dropping the store releases the lock.
        drop(ds);
        let _ds = open(&dir, DurableOptions::default());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_checkpoint_temp_files_are_swept() {
        let dir = temp_dir("tmpsweep");
        {
            let mut ds = open(&dir, DurableOptions::default());
            apply_nt(&mut ds, "<http://a> <http://p> <http://b> .\n");
            ds.checkpoint().unwrap();
        }
        // A crash mid-checkpoint leaves temp files behind: a manifest temp,
        // a run-file temp, and a legacy snapshot temp.
        let orphans = [
            dir.join("manifest-00000000000000000009.uomf.tmp"),
            dir.join("runs").join("run-00000000000000000009.uorun.tmp"),
            dir.join("snapshot-00000000000000000009.uost.tmp"),
        ];
        for o in &orphans {
            fs::write(o, b"half-written checkpoint").unwrap();
        }
        let ds = open(&dir, DurableOptions::default());
        for o in &orphans {
            assert!(!o.exists(), "open must sweep temp files: {}", o.display());
        }
        assert_eq!(ds.snapshot().len(), 1, "real state untouched");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incremental_checkpoint_reuses_existing_run_files() {
        let dir = temp_dir("incremental");
        let mut ds = open(&dir, DurableOptions::default());
        apply_nt(&mut ds, "<http://a> <http://p> <http://b> .\n");
        let cp1 = ds.checkpoint().unwrap();
        assert_eq!(cp1.runs_written, 1, "first checkpoint persists the only level");
        assert_eq!(cp1.runs_reused, 0);
        apply_nt(&mut ds, "<http://a> <http://p> <http://c> .\n");
        apply_nt(&mut ds, "<http://a> <http://p> <http://d> .\n");
        let cp2 = ds.checkpoint().unwrap();
        assert_eq!(cp2.runs_written, 2, "only the two new levels are written");
        assert_eq!(cp2.runs_reused, 1, "the first level's run file is reused by reference");
        // And the incremental lineage recovers to the same content.
        drop(ds);
        let ds = open(&dir, DurableOptions::default());
        assert_eq!(ds.recovery().checkpoint_epoch, 3);
        assert_eq!(ds.recovery().replayed_ops, 0);
        assert_eq!(ds.snapshot().len(), 3);
        assert_eq!(ds.snapshot().level_count(), 3);
        assert!(ds.snapshot().tier_stats().disk_rows > 0, "recovered levels are disk-backed");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_plus_checkpoints_garbage_collect_run_files() {
        let dir = temp_dir("rungc");
        let mut ds = open(&dir, DurableOptions::default());
        for i in 0..4 {
            apply_nt(&mut ds, &format!("<http://s{i}> <http://p> <http://o{i}> .\n"));
        }
        ds.checkpoint().unwrap();
        assert_eq!(list_runs(&dir).unwrap().len(), 4);
        // Fold the stack; the compacted level replaces all four runs.
        ds.compact(uo_par::Parallelism::sequential()).unwrap();
        assert_eq!(ds.snapshot().level_count(), 1);
        apply_nt(&mut ds, "<http://s4> <http://p> <http://o4> .\n");
        ds.checkpoint().unwrap();
        // Retention still holds the pre-compaction manifest, so its four
        // runs survive this checkpoint...
        assert_eq!(list_runs(&dir).unwrap().len(), 6);
        apply_nt(&mut ds, "<http://s5> <http://p> <http://o5> .\n");
        ds.checkpoint().unwrap();
        // ... but once it is pruned, only the runs of the two surviving
        // manifests remain: {compacted, s4-level} and {compacted, s4, s5}.
        let left = list_runs(&dir).unwrap();
        assert_eq!(left.len(), 3, "superseded run files reclaimed, got {left:?}");
        drop(ds);
        let ds = open(&dir, DurableOptions::default());
        assert_eq!(ds.snapshot().len(), 6);
        assert_eq!(ds.recovery().replayed_ops, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_whole_store_checkpoint_still_recovers() {
        let dir = temp_dir("legacy");
        fs::create_dir_all(&dir).unwrap();
        // An old store directory: a whole-store checkpoint file, no
        // manifests, no log.
        let mut w = StoreWriter::new();
        w.load_ntriples("<http://x> <http://p> <http://y> .\n").unwrap();
        let snap = w.commit_with(uo_par::Parallelism::sequential());
        crate::save_to_file(&snap, &checkpoint_path(&dir, snap.epoch())).unwrap();
        let mut ds = open(&dir, DurableOptions::default());
        assert_eq!(ds.recovery().checkpoint_epoch, snap.epoch());
        assert_eq!(ds.snapshot().len(), 1);
        // The next checkpoint moves the directory to the incremental
        // format; the legacy file persists as the retention fallback.
        apply_nt(&mut ds, "<http://x> <http://p> <http://z> .\n");
        let cp = ds.checkpoint().unwrap();
        assert!(cp.runs_written >= 1);
        assert!(manifest_path(&dir, cp.epoch).exists());
        drop(ds);
        let ds = open(&dir, DurableOptions::default());
        assert_eq!(ds.snapshot().len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_degrades_to_empty_store() {
        let dir = temp_dir("empty");
        let ds = open(&dir, DurableOptions::default());
        assert!(ds.is_fresh());
        assert!(ds.snapshot().is_empty());
        assert_eq!(ds.snapshot().epoch(), 0);
        fs::remove_dir_all(&dir).ok();
    }
}
