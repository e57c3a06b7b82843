//! # uo-server — a concurrent SPARQL-over-HTTP endpoint with live updates.
//!
//! Implements the query + update halves of the W3C SPARQL 1.1 Protocol over
//! a hand-rolled HTTP/1.1 server on [`std::net::TcpListener`] (the build
//! environment has no registry access, so no hyper/tokio — a thread-pool
//! accept loop in the spirit of `uo_par`'s scoped workers). Many concurrent
//! clients multiplex over one MVCC store:
//!
//! - **snapshot isolation**: each query request clones the current
//!   `Arc<Snapshot>` exactly once at admission and answers from it
//!   end-to-end, so a query in flight during a commit returns answers
//!   consistent with its admission-time version; writers are serialized
//!   behind a mutex and publish by swapping the shared snapshot handle;
//! - `GET /sparql?query=…` and `POST /sparql` (`application/sparql-query`
//!   or form-encoded bodies) with content negotiation between SPARQL JSON
//!   results, TSV, and a debug text table;
//! - `POST /update` (`application/sparql-update` or form-encoded,
//!   [`ServerConfig::writable`] only): `INSERT DATA`, `DELETE DATA` and
//!   single-BGP `DELETE WHERE`, executed via [`uo_core::run_update`];
//! - a bounded LRU **plan cache** keyed on canonicalized query text and
//!   tagged with the snapshot **epoch** it was planned at
//!   ([`cache::PlanCache`]) — repeat queries skip BE-tree construction and
//!   optimization, and a commit invalidates stale plans without flushing
//!   the cache structure;
//! - **admission control**: at most `max_inflight` requests execute at once
//!   (503 + `Retry-After` beyond that) and every query carries a wall-clock
//!   deadline enforced cooperatively at BGP-evaluation boundaries and every
//!   few thousand rows while its result is sized and streamed
//!   ([`uo_core::Cancellation`]): a 408 while the head is unsent, a dropped
//!   connection after it;
//! - `GET /metrics` (JSON counters incl. `triples`, `snapshot_epoch`,
//!   `updates`, the tiered-`store` block, the durable-mode `wal` block, the
//!   `latency` block of log₂-bucketed histograms, and the v6 `resources` +
//!   `health` blocks) — the same counters are served as **Prometheus text
//!   exposition 0.0.4** when the `Accept` header prefers `text/plain` or
//!   `application/openmetrics-text`; `GET /healthz` reports checkpoint age
//!   and WAL backlog and degrades to 503 when the maintenance thread is
//!   stalled or erroring;
//! - **structured tracing** ([`ServerConfig::tracer`]): when enabled, the
//!   connection lifecycle (accept → read head → admission → body →
//!   parse/plan/execute/serialize → write), the commit pipeline (delta
//!   merge, WAL append + fsync, publish) and the background maintenance
//!   jobs record spans into bounded lock-free ring buffers, exported as
//!   Chrome trace-event JSON at `GET /stats/trace` (Perfetto-loadable);
//! - **observability** (see `docs/OBSERVABILITY.md`): every query/update
//!   response carries a unique `X-UO-Request-Id`; `?profile=1` (or
//!   `X-UO-Profile: 1`) attaches an EXPLAIN ANALYZE `"profile"` block —
//!   per-phase wall times plus the operator span tree with actual vs
//!   estimated cardinalities — to the JSON results; `GET /stats/plans`
//!   reports per-cached-plan observed stats (hits, cumulative exec time,
//!   actual-over-estimated root cardinality); with
//!   [`ServerConfig::slow_query_ms`] set, queries over the threshold land
//!   in a bounded ring at `GET /stats/slow` and as single-line stderr
//!   records;
//! - a background **maintenance thread**: once the tiered run stack of the
//!   published snapshot reaches `compact_fan_in` levels it is folded into
//!   one — off the update path, installed only if no commit raced — keeping
//!   read amplification bounded on long-running writable endpoints;
//! - optional **durability** ([`start_durable`]): updates are applied,
//!   journaled to a segmented CRC-checksummed write-ahead log and fsynced
//!   per policy *before* the new snapshot is published or the response
//!   written, so an acknowledged `POST /update` survives `kill -9`; the
//!   maintenance thread additionally persists incremental checkpoints
//!   (immutable run files plus a small manifest) and retires covered log
//!   segments.
//!
//! Responses are deterministic and **streamed**: a query's answer stays id
//! rows ([`uo_core::try_execute_ids`]) until `uo_sparql::ResultWriter` has
//! formatted each distinct term once and counted the body, the head goes out
//! with that exact `Content-Length` (never `Transfer-Encoding`), and the body
//! is copied to the socket through a fixed-size buffer — neither a decoded
//! row matrix nor a body string is ever built. The bytes are exactly
//! `uo_sparql::results_json`/`results_tsv` of the rows a direct
//! [`uo_core::run_query`] returns against the same snapshot.

pub mod cache;
pub mod http;
mod prom;

pub use cache::{PlanCache, PlanStatsSnapshot};

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use uo_core::{
    optimize_prepared, prepare_parsed, query_type, try_execute_ids, try_run_update,
    try_run_update_durable, Cancellation, DurableUpdateError, IdRun, QueryCounters, QueryType,
    Strategy,
};
use uo_engine::{BgpEngine, BinaryJoinEngine, WcoEngine};
use uo_obs::{
    CacheOutcome, Histogram, Profiler, QueryProfile, RequestIds, SlowEntry, SlowLog, Tracer,
};
use uo_sparql::{ResultFormat, ResultWriter};
use uo_store::{durable, DurableMetrics, DurableStore, Snapshot, StoreWriter};

/// Which BGP engine backs the endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// gStore-style worst-case-optimal joins.
    Wco,
    /// Jena-style binary hash joins.
    Binary,
}

impl EngineChoice {
    fn build(self, threads: usize) -> Box<dyn BgpEngine> {
        match self {
            EngineChoice::Wco => Box::new(WcoEngine::with_threads(threads)),
            EngineChoice::Binary => Box::new(BinaryJoinEngine::with_threads(threads)),
        }
    }
}

/// Endpoint configuration; [`Default`] gives sensible interactive values.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Interface to bind ("127.0.0.1" by default).
    pub host: String,
    /// Connection-handling worker threads (each serves one request at a
    /// time; also the upper bound on concurrently *executing* queries).
    pub threads: usize,
    /// Worker count inside each query evaluation (`1` = sequential BGP
    /// evaluation, the right default when `threads` already saturates the
    /// host's cores with independent queries).
    pub engine_threads: usize,
    /// Which BGP engine evaluates queries.
    pub engine: EngineChoice,
    /// Optimization strategy applied to every query.
    pub strategy: Strategy,
    /// Plan-cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Admission-control limit on in-flight queries (requests beyond it get
    /// 503 + `Retry-After`).
    pub max_inflight: usize,
    /// Default per-query wall-clock deadline in ms (requests may lower or
    /// raise it via the `timeout` parameter, up to `max_timeout_ms`).
    pub default_timeout_ms: u64,
    /// Upper bound on the per-request `timeout` parameter.
    pub max_timeout_ms: u64,
    /// Socket read *and* write timeout: a client that stalls mid-request,
    /// or stops reading a reply without closing, is dropped after this.
    pub read_timeout_ms: u64,
    /// Maximum accepted request-body size.
    pub max_body_bytes: usize,
    /// Accept SPARQL Update requests on `POST /update`. Off by default: a
    /// read-only endpoint cannot be mutated by any client.
    pub writable: bool,
    /// Durable mode only ([`start_durable`]): background-checkpoint once
    /// the published epoch is this far past the last checkpoint.
    pub checkpoint_every: u64,
    /// Durable mode only: how often the maintenance thread wakes to look.
    pub checkpoint_interval_ms: u64,
    /// Writable endpoints: background-compact the tiered run stack once it
    /// is this many levels deep (0 disables compaction). Compaction runs
    /// outside the writer lock and installs with an epoch check, so it
    /// never blocks or races updates.
    pub compact_fan_in: usize,
    /// Slow-query threshold in milliseconds. `None` (the default) disables
    /// the slow-query log; `Some(ms)` captures every query whose
    /// end-to-end wall time reaches `ms` into the bounded ring served at
    /// `GET /stats/slow` and emits a single-line stderr record.
    pub slow_query_ms: Option<u64>,
    /// Span recorder threaded through the request, commit, and maintenance
    /// paths (see `uo_obs::Tracer`). The default [`Tracer::off`] records
    /// nothing and costs one branch per span site; an enabled tracer is
    /// exported at `GET /stats/trace` as Chrome trace-event JSON.
    pub tracer: Tracer,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            threads: 4,
            engine_threads: 1,
            engine: EngineChoice::Wco,
            strategy: Strategy::Full,
            cache_capacity: 256,
            max_inflight: 32,
            default_timeout_ms: 10_000,
            max_timeout_ms: 60_000,
            read_timeout_ms: 10_000,
            max_body_bytes: 1 << 20,
            writable: false,
            checkpoint_every: 64,
            checkpoint_interval_ms: 500,
            compact_fan_in: 8,
            slow_query_ms: None,
            tracer: Tracer::off(),
        }
    }
}

/// Negotiated response format for query results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// SPARQL 1.1 Query Results JSON (`application/sparql-results+json`).
    Json,
    /// SPARQL 1.1 Query Results TSV (`text/tab-separated-values`).
    Tsv,
    /// Human-readable debug table (`text/plain`).
    Debug,
}

impl Format {
    fn content_type(self) -> &'static str {
        match self {
            Format::Json => "application/sparql-results+json",
            Format::Tsv => "text/tab-separated-values; charset=utf-8",
            Format::Debug => "text/plain; charset=utf-8",
        }
    }
}

/// Picks a result format from an `Accept` header (first supported media
/// range in client order wins; absent header or `*/*` means JSON).
fn negotiate(accept: Option<&str>) -> Option<Format> {
    let Some(accept) = accept else { return Some(Format::Json) };
    for range in accept.split(',') {
        let media = range.split(';').next().unwrap_or("").trim().to_ascii_lowercase();
        match media.as_str() {
            "application/sparql-results+json"
            | "application/json"
            | "application/*"
            | "*/*"
            | "" => return Some(Format::Json),
            "text/tab-separated-values" => return Some(Format::Tsv),
            "text/plain" | "text/*" => return Some(Format::Debug),
            _ => {}
        }
    }
    None
}

/// The mutation endpoint behind the writer mutex: a plain in-memory
/// writer, or a crash-safe [`DurableStore`] whose commits are journaled
/// before they are published or acknowledged.
enum WriteBackend {
    Memory(StoreWriter),
    Durable(Box<DurableStore>),
}

/// Durable-mode bookkeeping the request path and maintenance thread share.
struct DurableInfo {
    /// Lock-free gauges mirrored out of the [`DurableStore`].
    metrics: Arc<DurableMetrics>,
    /// Fsync policy label for `/metrics`.
    fsync: String,
    /// The data directory (checkpoint files are written here, outside the
    /// writer lock).
    dir: PathBuf,
}

/// Shared endpoint state. Everything is immutable after start except the
/// current snapshot handle (swapped by commits) and the writer delta.
struct ServerState {
    /// The latest committed snapshot. Readers clone the `Arc` once per
    /// request (a momentary read lock around a pointer clone); the update
    /// path swaps it after each commit. Queries never hold the lock during
    /// evaluation, so writers cannot block readers and vice versa.
    snapshot: RwLock<Arc<Snapshot>>,
    /// The single mutation endpoint, present when the config is writable.
    /// The mutex serializes updates; its base always equals the latest
    /// committed snapshot because only this writer commits.
    writer: Option<Mutex<WriteBackend>>,
    /// Present in durable mode.
    durable: Option<DurableInfo>,
    engine: Box<dyn BgpEngine>,
    cfg: ServerConfig,
    cache: PlanCache,
    counters: QueryCounters,
    updates_total: AtomicU64,
    update_errors: AtomicU64,
    updates_cancelled: AtomicU64,
    journal_errors: AtomicU64,
    /// Background compactions installed, and the rows they rewrote.
    compactions: AtomicU64,
    compaction_rows: AtomicU64,
    inflight: AtomicUsize,
    shutting_down: AtomicBool,
    query_cancel: Arc<AtomicBool>,
    /// Wakes the maintenance thread early (on shutdown).
    checkpoint_signal: (Mutex<()>, Condvar),
    started: Instant,
    /// Mints the `X-UO-Request-Id` values (prefix seeded from the start
    /// time so ids from different server incarnations don't collide).
    request_ids: RequestIds,
    /// Ring of recent slow queries (pushed only when
    /// [`ServerConfig::slow_query_ms`] is set; served at `/stats/slow`).
    slow_log: SlowLog,
    /// End-to-end latency of executed queries, in nanoseconds: up to the
    /// last body byte written (or the write that failed).
    query_hist: Histogram,
    /// End-to-end latency of successful updates, in nanoseconds.
    update_hist: Histogram,
    /// Query latency split by [`QueryType`] (indexed by [`type_index`]).
    type_hists: [Histogram; 4],
    /// Span recorder shared with the write backend (off unless the config
    /// enabled it).
    tracer: Tracer,
    /// Background-task health, feeding `/healthz` and `/metrics`.
    health: HealthState,
}

/// Liveness and error gauges of the background maintenance thread. All
/// timestamps are Unix milliseconds (via [`unix_ms`]), initialized to the
/// server's start so a freshly started endpoint is healthy.
#[derive(Debug)]
struct HealthState {
    /// Total maintenance errors (compaction, checkpoint write, checkpoint
    /// bookkeeping) since start.
    maintenance_errors: AtomicU64,
    /// Errors accumulated since the last clean maintenance pass; any
    /// non-zero value degrades `/healthz`.
    consecutive_errors: AtomicU64,
    /// When the maintenance loop last woke (its heartbeat).
    last_maintenance_unix_ms: AtomicU64,
    /// When the last successful checkpoint was written (start time until
    /// the first one).
    last_checkpoint_unix_ms: AtomicU64,
}

impl HealthState {
    fn new() -> HealthState {
        let now = unix_ms();
        HealthState {
            maintenance_errors: AtomicU64::new(0),
            consecutive_errors: AtomicU64::new(0),
            last_maintenance_unix_ms: AtomicU64::new(now),
            last_checkpoint_unix_ms: AtomicU64::new(now),
        }
    }
}

/// Whether the endpoint should report itself degraded: the maintenance
/// thread is expected but its heartbeat is far overdue (20 intervals, at
/// least 5 s — tolerant of long compactions), or its last pass errored.
/// Pure so the policy is unit-testable.
fn health_degraded(
    maintenance_expected: bool,
    consecutive_errors: u64,
    heartbeat_age_ms: u64,
    interval_ms: u64,
) -> bool {
    let stall_after = interval_ms.saturating_mul(20).max(5_000);
    (maintenance_expected && heartbeat_age_ms > stall_after) || consecutive_errors > 0
}

/// Entries the slow-query ring retains (oldest evicted beyond this).
const SLOW_LOG_CAPACITY: usize = 128;

/// Index of a [`QueryType`] in [`ServerState::type_hists`].
fn type_index(qt: QueryType) -> usize {
    match qt {
        QueryType::Bgp => 0,
        QueryType::U => 1,
        QueryType::O => 2,
        QueryType::UO => 3,
    }
}

/// All query types, in `type_index` order (for `/metrics` rendering).
const ALL_QUERY_TYPES: [QueryType; 4] = [QueryType::Bgp, QueryType::U, QueryType::O, QueryType::UO];

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn unix_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

impl ServerState {
    /// The current snapshot — one `Arc` clone per request, no lock held
    /// afterwards.
    fn current_snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Decrements the in-flight gauge when a query finishes (however it ends).
struct AdmissionGuard<'a>(&'a ServerState);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Ends a span when dropped, so early-return error paths still record it:
/// a recorded child span must never point at a parent that was abandoned
/// unrecorded, or the exported trace would have dangling parent links.
struct SpanGuard<'a> {
    tracer: &'a Tracer,
    span: Option<uo_obs::trace::Span>,
}

impl<'a> SpanGuard<'a> {
    fn new(tracer: &'a Tracer, span: uo_obs::trace::Span) -> SpanGuard<'a> {
        SpanGuard { tracer, span: Some(span) }
    }

    /// The span id child spans parent at (0 when tracing is off).
    fn id(&self) -> u64 {
        self.span.map_or(0, |s| s.id)
    }

    /// Takes the span out for an explicit [`Tracer::end_with`] with args.
    fn take(mut self) -> uo_obs::trace::Span {
        self.span.take().expect("span already taken")
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(span) = self.span.take() {
            self.tracer.end(span);
        }
    }
}

/// A running endpoint. Dropping the handle shuts the server down
/// gracefully (stops accepting, drains queued connections, joins workers).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    maintenance: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (use port 0 at start for an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let queued and in-flight requests
    /// finish (long-running evaluations are cancelled at their next BGP
    /// boundary), join all threads. Idempotent.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.state.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.state.query_cancel.store(true, Ordering::Relaxed);
        // Wake the acceptor if it is parked in accept(), and the
        // maintenance thread if it is parked in its interval wait. The
        // notify happens while holding the signal mutex: the maintenance
        // loop checks the shutdown flag under the same mutex before
        // waiting, so the wake can never land in the gap between its check
        // and its wait (a lost wakeup would stall this join a full
        // interval).
        let _ = TcpStream::connect(self.addr);
        {
            let _g = self.state.checkpoint_signal.0.lock().unwrap_or_else(PoisonError::into_inner);
            self.state.checkpoint_signal.1.notify_all();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers have drained: no more journal appends can happen. Force
        // the log to disk so `every-N` / `never` fsync policies lose
        // nothing across a graceful shutdown.
        if let Some(writer) = &self.state.writer {
            let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
            if let WriteBackend::Durable(ds) = &mut *w {
                if let Err(e) = ds.sync() {
                    eprintln!(
                        "wal sync on shutdown failed: {e} — updates journaled since the last \
                         fsync may not be on stable storage"
                    );
                }
            }
        }
        if let Some(maintenance) = self.maintenance.take() {
            let _ = maintenance.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Binds `host:port` (port 0 = ephemeral) and starts the accept loop plus
/// `cfg.threads` connection workers, serving `snapshot` (obtain one from
/// [`Snapshot::build_from`] or a `StoreWriter` commit).
/// When `cfg.writable` is set the endpoint also accepts `POST /update`,
/// committing new snapshots on top of this one.
pub fn start(snapshot: Arc<Snapshot>, cfg: ServerConfig, port: u16) -> io::Result<ServerHandle> {
    let writer = cfg
        .writable
        .then(|| WriteBackend::Memory(StoreWriter::from_snapshot(Arc::clone(&snapshot))));
    start_inner(snapshot, writer, None, cfg, port)
}

/// [`start`] in **durable** mode: serves the store recovered into `ds`
/// (obtain one from [`uo_core::open_durable`]) and accepts `POST /update`
/// with the log-before-acknowledge discipline — a 200 means the update is
/// journaled at the store's fsync policy and survives `kill -9`. The
/// background maintenance thread persists an incremental checkpoint every
/// [`ServerConfig::checkpoint_every`] epochs and retires covered log
/// segments. Implies `writable`.
pub fn start_durable(ds: DurableStore, cfg: ServerConfig, port: u16) -> io::Result<ServerHandle> {
    let cfg = ServerConfig { writable: true, ..cfg };
    let snapshot = ds.snapshot();
    let info = DurableInfo {
        metrics: ds.metrics(),
        fsync: ds.options().fsync.label(),
        dir: ds.dir().to_path_buf(),
    };
    start_inner(snapshot, Some(WriteBackend::Durable(Box::new(ds))), Some(info), cfg, port)
}

fn start_inner(
    snapshot: Arc<Snapshot>,
    mut writer: Option<WriteBackend>,
    durable: Option<DurableInfo>,
    cfg: ServerConfig,
    port: u16,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind((cfg.host.as_str(), port))?;
    let addr = listener.local_addr()?;
    let threads = cfg.threads.max(1);
    // Thread the tracer into the write backend so commit-pipeline spans
    // (delta merge, WAL append/fsync) land in the same collector as the
    // request spans that parent them.
    if let Some(w) = &mut writer {
        match w {
            WriteBackend::Memory(mw) => mw.set_tracer(cfg.tracer.clone()),
            WriteBackend::Durable(ds) => ds.set_tracer(cfg.tracer.clone()),
        }
    }
    let state = Arc::new(ServerState {
        engine: cfg.engine.build(cfg.engine_threads.max(1)),
        cache: PlanCache::new(cfg.cache_capacity),
        counters: QueryCounters::default(),
        updates_total: AtomicU64::new(0),
        update_errors: AtomicU64::new(0),
        updates_cancelled: AtomicU64::new(0),
        journal_errors: AtomicU64::new(0),
        compactions: AtomicU64::new(0),
        compaction_rows: AtomicU64::new(0),
        inflight: AtomicUsize::new(0),
        shutting_down: AtomicBool::new(false),
        query_cancel: Arc::new(AtomicBool::new(false)),
        checkpoint_signal: (Mutex::new(()), Condvar::new()),
        started: Instant::now(),
        request_ids: RequestIds::new(
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
                ^ u64::from(std::process::id()),
        ),
        slow_log: SlowLog::new(SLOW_LOG_CAPACITY),
        query_hist: Histogram::new(),
        update_hist: Histogram::new(),
        type_hists: std::array::from_fn(|_| Histogram::new()),
        tracer: cfg.tracer.clone(),
        health: HealthState::new(),
        snapshot: RwLock::new(snapshot),
        writer: writer.map(Mutex::new),
        durable,
        cfg,
    });

    let needs_maintenance =
        state.durable.is_some() || (state.writer.is_some() && state.cfg.compact_fan_in > 0);
    let maintenance = needs_maintenance.then(|| {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("uo-server-maintenance".to_string())
            .spawn(move || run_maintenance(&state))
            .expect("failed to spawn maintenance thread")
    });

    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..threads)
        .map(|i| {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("uo-server-worker-{i}"))
                .spawn(move || loop {
                    // Take the next connection, releasing the lock before
                    // handling it so workers run concurrently.
                    let next = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner).recv();
                    match next {
                        Ok(stream) => {
                            // A panicking request (engine bug, adversarial
                            // query) must cost one connection, not a worker
                            // thread for the server's lifetime.
                            let caught =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    handle_connection(&state, stream)
                                }));
                            if caught.is_err() {
                                QueryCounters::bump(&state.counters.panics);
                            }
                        }
                        Err(_) => break, // acceptor gone: drained and done
                    }
                })
                .expect("failed to spawn server worker")
        })
        .collect();

    let acceptor = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("uo-server-acceptor".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if state.shutting_down.load(Ordering::SeqCst) {
                        break; // wake-up connection (or racing client) dropped
                    }
                    match stream {
                        Ok(s) => {
                            if tx.send(s).is_err() {
                                break;
                            }
                        }
                        Err(_) => {
                            // Transient accept errors (EMFILE, aborted
                            // handshakes) should not kill the endpoint.
                            continue;
                        }
                    }
                }
                // tx drops here; workers drain the queue and exit.
            })
            .expect("failed to spawn server acceptor")
    };

    Ok(ServerHandle { addr, state, acceptor: Some(acceptor), maintenance, workers })
}

/// The background maintenance loop. Every interval it performs two
/// independent jobs, both designed to stay off the update path's critical
/// section:
///
/// - **compaction** (writable endpoints, `compact_fan_in > 0`): when the
///   published snapshot's run stack reaches `compact_fan_in` levels, fold
///   it into one level *outside* the writer lock (snapshots are
///   immutable), then briefly take the lock and install the result with an
///   epoch check — if an update committed meanwhile, the install is
///   refused and compaction simply retries next tick;
/// - **checkpointing** (durable mode): if the published epoch has advanced
///   `checkpoint_every` past the last checkpoint, write the new run files
///   and the manifest — again outside the writer lock — then briefly take
///   the lock to retire fully-covered log segments and garbage-collect
///   superseded run files. (The final graceful-shutdown log sync lives in
///   `ServerHandle::shutdown_inner`, *after* the workers have drained —
///   updates acknowledged during the drain must be covered too.)
fn run_maintenance(state: &ServerState) {
    let interval = Duration::from_millis(state.cfg.checkpoint_interval_ms.max(10));
    let every = state.cfg.checkpoint_every.max(1);
    let par = uo_par::Parallelism::new(state.cfg.engine_threads.max(1));
    loop {
        {
            let (lock, cv) = &state.checkpoint_signal;
            let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
            // Re-check the flag under the mutex: shutdown notifies while
            // holding it, so a wake cannot slip in before this wait.
            if !state.shutting_down.load(Ordering::SeqCst) {
                let _ = cv.wait_timeout(guard, interval);
            }
        }
        let shutting_down = state.shutting_down.load(Ordering::SeqCst);
        // Heartbeat first: /healthz reasons about how long ago the loop
        // last woke, whatever it then decided to do.
        state.health.last_maintenance_unix_ms.store(unix_ms(), Ordering::Relaxed);
        let mut pass_errors = 0u64;

        // Compaction: fold the stack once it is compact_fan_in deep.
        let fan_in = state.cfg.compact_fan_in;
        if fan_in > 0 {
            let snap = state.current_snapshot();
            if snap.level_count() >= fan_in {
                let span = state.tracer.start(0, "maintenance", "compact");
                let levels_before = snap.level_count();
                match snap.compact_with(par) {
                    Ok(compacted) => {
                        let rows = 3 * compacted.len();
                        let compacted = Arc::new(compacted);
                        if let Some(writer) = &state.writer {
                            let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
                            let installed = match &mut *w {
                                WriteBackend::Memory(mw) => {
                                    mw.install_compacted(Arc::clone(&compacted))
                                }
                                WriteBackend::Durable(ds) => {
                                    ds.writer_mut().install_compacted(Arc::clone(&compacted))
                                }
                            };
                            if installed {
                                // Publish under the writer lock — the same
                                // discipline as commits — so the swap cannot
                                // race a concurrent update's publish.
                                *state.snapshot.write().unwrap_or_else(PoisonError::into_inner) =
                                    compacted;
                                state.compactions.fetch_add(1, Ordering::Relaxed);
                                state.compaction_rows.fetch_add(rows as u64, Ordering::Relaxed);
                            }
                            state.tracer.end_with(span, || {
                                vec![
                                    ("levels", levels_before.to_string()),
                                    ("rows", rows.to_string()),
                                    ("installed", installed.to_string()),
                                ]
                            });
                        }
                    }
                    Err(e) => {
                        pass_errors += 1;
                        eprintln!("background compaction failed: {e}");
                    }
                }
            }
        }

        // Checkpointing (durable mode only).
        if let Some(info) = &state.durable {
            let snap = state.current_snapshot();
            let last_cp = info.metrics.last_checkpoint_epoch.load(Ordering::Relaxed);
            if snap.epoch() > last_cp && snap.epoch() - last_cp >= every {
                let span = state.tracer.start(0, "maintenance", "checkpoint");
                match durable::write_checkpoint_file(&info.dir, &snap) {
                    Ok(written) => {
                        if let Some(writer) = &state.writer {
                            let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
                            if let WriteBackend::Durable(ds) = &mut *w {
                                if let Err(e) = ds.note_checkpoint(snap.epoch()) {
                                    pass_errors += 1;
                                    eprintln!("checkpoint bookkeeping failed: {e}");
                                }
                            }
                        }
                        state.health.last_checkpoint_unix_ms.store(unix_ms(), Ordering::Relaxed);
                        state.tracer.end_with(span, || {
                            vec![
                                ("epoch", snap.epoch().to_string()),
                                ("runs_written", written.runs_written.to_string()),
                                ("runs_reused", written.runs_reused.to_string()),
                            ]
                        });
                    }
                    Err(e) => {
                        pass_errors += 1;
                        eprintln!("checkpoint write failed: {e}");
                    }
                }
            }
        }
        // A clean pass clears the degraded latch; errors accumulate into
        // it (and into the lifetime total) until one pass succeeds.
        if pass_errors > 0 {
            state.health.maintenance_errors.fetch_add(pass_errors, Ordering::Relaxed);
            state.health.consecutive_errors.fetch_add(pass_errors, Ordering::Relaxed);
        } else {
            state.health.consecutive_errors.store(0, Ordering::Relaxed);
        }
        // Re-load the flag: a shutdown signalled *during* the (possibly
        // long) maintenance work above had no waiter to wake, and waiting
        // out another full interval would stall ServerHandle::shutdown.
        if shutting_down || state.shutting_down.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    // One bound for both directions: a client that stops sending, or stops
    // reading a reply without closing, releases its worker after this long.
    let io_timeout = Some(Duration::from_millis(state.cfg.read_timeout_ms.max(1)));
    let _ = stream.set_read_timeout(io_timeout);
    let _ = stream.set_write_timeout(io_timeout);
    let _ = stream.set_nodelay(true);
    // The connection root span. Early exits (clients that connect and
    // leave, malformed heads) abandon it unrecorded, keeping traces to
    // well-formed requests.
    let conn_span = state.tracer.start(0, "server", "connection");
    let read_span = state.tracer.start(conn_span.id, "server", "read_head");
    let head = match http::read_head(&mut stream) {
        Ok(Some(head)) => head,
        Ok(None) => return, // client connected and left (shutdown wake-up)
        Err(_) => {
            let _ = respond_text(&mut stream, 400, "Bad Request", "malformed request head\n");
            return;
        }
    };
    state.tracer.end(read_span);
    let _ = route(state, &mut stream, &head, conn_span.id);
    let method = head.method.clone();
    let path = head.path.clone();
    state.tracer.end_with(conn_span, || vec![("method", method), ("path", path)]);
}

fn respond_text(stream: &mut TcpStream, status: u16, reason: &str, body: &str) -> io::Result<()> {
    http::write_response(stream, status, reason, "text/plain; charset=utf-8", &[], body.as_bytes())
}

fn route(
    state: &ServerState,
    stream: &mut TcpStream,
    head: &http::Head,
    conn: u64,
) -> io::Result<()> {
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/healthz") => {
            let (status, reason, body) = healthz_json(state);
            http::write_response(stream, status, reason, "application/json", &[], body.as_bytes())
        }
        ("GET", "/metrics") => {
            // Content negotiation: JSON by default, Prometheus text
            // exposition 0.0.4 when the client prefers text/plain or
            // openmetrics — both views render the same counters.
            if wants_prometheus(head.header("accept")) {
                http::write_response(
                    stream,
                    200,
                    "OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    &[],
                    prom::render(state).as_bytes(),
                )
            } else {
                http::write_response(
                    stream,
                    200,
                    "OK",
                    "application/json",
                    &[],
                    metrics_json(state).as_bytes(),
                )
            }
        }
        ("GET", "/stats/plans") => http::write_response(
            stream,
            200,
            "OK",
            "application/json",
            &[],
            plan_stats_json(state).as_bytes(),
        ),
        ("GET", "/stats/slow") => http::write_response(
            stream,
            200,
            "OK",
            "application/json",
            &[],
            state.slow_log.to_json().as_bytes(),
        ),
        ("GET", "/stats/trace") => {
            if state.tracer.is_on() {
                http::write_response(
                    stream,
                    200,
                    "OK",
                    "application/json",
                    &[],
                    state.tracer.to_chrome_json().as_bytes(),
                )
            } else {
                respond_text(
                    stream,
                    404,
                    "Not Found",
                    "tracing disabled: start the endpoint with tracing enabled (serve --trace)\n",
                )
            }
        }
        ("GET", "/sparql") | ("POST", "/sparql") => handle_sparql(state, stream, head, conn),
        ("POST", "/update") => handle_update(state, stream, head, conn),
        ("GET", "/") => respond_text(
            stream,
            200,
            "OK",
            "sparql-uo endpoint: GET/POST /sparql, POST /update, GET /metrics, \
             GET /stats/plans, GET /stats/slow, GET /stats/trace, GET /healthz\n",
        ),
        (_, "/sparql")
        | (_, "/update")
        | (_, "/healthz")
        | (_, "/metrics")
        | (_, "/")
        | (_, "/stats/plans")
        | (_, "/stats/slow")
        | (_, "/stats/trace") => {
            respond_text(stream, 405, "Method Not Allowed", "method not allowed\n")
        }
        _ => respond_text(stream, 404, "Not Found", "unknown path\n"),
    }
}

/// True when the `Accept` header prefers the Prometheus text exposition
/// over JSON for `/metrics` (first supported media range in client order
/// wins; absent header, `*/*` and JSON ranges stay JSON).
fn wants_prometheus(accept: Option<&str>) -> bool {
    let Some(accept) = accept else { return false };
    for range in accept.split(',') {
        let media = range.split(';').next().unwrap_or("").trim().to_ascii_lowercase();
        match media.as_str() {
            "text/plain" | "text/*" | "application/openmetrics-text" => return true,
            "application/json" | "application/*" | "*/*" | "" => return false,
            _ => {}
        }
    }
    false
}

/// Renders `/healthz`: `(status, reason, body)`. Healthy endpoints return
/// 200 with `"status": "ok"`; a stalled or erroring maintenance thread
/// degrades the endpoint to 503 (see [`health_degraded`]) while queries
/// keep being served — the signal is for orchestrators and dashboards.
fn healthz_json(state: &ServerState) -> (u16, &'static str, String) {
    let now = unix_ms();
    let maintenance_expected =
        state.durable.is_some() || (state.writer.is_some() && state.cfg.compact_fan_in > 0);
    let heartbeat_age_ms =
        now.saturating_sub(state.health.last_maintenance_unix_ms.load(Ordering::Relaxed));
    let consecutive = state.health.consecutive_errors.load(Ordering::Relaxed);
    let degraded = health_degraded(
        maintenance_expected && !state.shutting_down.load(Ordering::SeqCst),
        consecutive,
        heartbeat_age_ms,
        state.cfg.checkpoint_interval_ms,
    );
    let (checkpoint_age_ms, wal_segments) = match &state.durable {
        Some(info) => (
            now.saturating_sub(state.health.last_checkpoint_unix_ms.load(Ordering::Relaxed))
                .to_string(),
            info.metrics.wal_segments.load(Ordering::Relaxed).to_string(),
        ),
        None => ("null".to_string(), "null".to_string()),
    };
    let snap = state.current_snapshot();
    let compaction_backlog = if state.cfg.compact_fan_in > 0 {
        snap.level_count().saturating_sub(state.cfg.compact_fan_in)
    } else {
        0
    };
    let body = format!(
        "{{\"status\": \"{}\", \"uptime_s\": {}, \"checkpoint_age_ms\": {checkpoint_age_ms}, \
         \"wal_segments\": {wal_segments}, \"compaction_backlog\": {compaction_backlog}, \
         \"maintenance\": {{\"expected\": {maintenance_expected}, \
         \"heartbeat_age_ms\": {heartbeat_age_ms}, \"errors\": {}, \
         \"consecutive_errors\": {consecutive}}}}}\n",
        if degraded { "degraded" } else { "ok" },
        uo_json::num(state.started.elapsed().as_secs_f64()),
        state.health.maintenance_errors.load(Ordering::Relaxed),
    );
    if degraded {
        (503, "Service Unavailable", body)
    } else {
        (200, "OK", body)
    }
}

/// Admission control + request-body read, shared by the query and update
/// handlers. Takes an in-flight slot (503 + `Retry-After` when the endpoint
/// is full — the slot covers body read + execution, so a client trickling
/// its body in holds, and exhausts, exactly the capacity the limit
/// protects), enforces `max_body_bytes` (413), honours
/// `Expect: 100-continue` (curl sends it for bodies over ~1 KiB; everyone
/// else may already be mid-body, so early error responses drain what was
/// sent — closing with unread data RSTs the response away), and reads the
/// POST body (400 on truncation; empty for GET). Returns `None` when a
/// response has already been written.
fn admit_and_read_body<'a>(
    state: &'a ServerState,
    stream: &mut TcpStream,
    head: &http::Head,
    parent: u64,
) -> io::Result<Option<(AdmissionGuard<'a>, Vec<u8>)>> {
    let expects_continue =
        head.header("expect").is_some_and(|v| v.to_ascii_lowercase().contains("100-continue"));
    let pending_body = if head.method == "POST" && !expects_continue {
        head.content_length().unwrap_or(0)
    } else {
        0
    };

    let admit_span = state.tracer.start(parent, "server", "admission");
    if state.inflight.fetch_add(1, Ordering::SeqCst) >= state.cfg.max_inflight {
        state.inflight.fetch_sub(1, Ordering::SeqCst);
        QueryCounters::bump(&state.counters.rejected);
        http::drain(stream, pending_body);
        http::write_response(
            stream,
            503,
            "Service Unavailable",
            "text/plain; charset=utf-8",
            &[("Retry-After", "1")],
            b"overloaded: too many requests in flight\n",
        )?;
        return Ok(None);
    }
    let inflight = state.inflight.load(Ordering::SeqCst);
    state.tracer.end_with(admit_span, || vec![("inflight", inflight.to_string())]);
    let guard = AdmissionGuard(state);

    if head.method != "POST" {
        return Ok(Some((guard, Vec::new())));
    }
    let len = head.content_length().unwrap_or(0);
    if len > state.cfg.max_body_bytes {
        http::drain(stream, pending_body);
        respond_text(stream, 413, "Payload Too Large", "request body too large\n")?;
        return Ok(None);
    }
    if expects_continue {
        http::write_continue(stream)?;
    }
    let body_span = state.tracer.start(parent, "server", "read_body");
    match http::read_body(stream, len) {
        Ok(body) => {
            state.tracer.end_with(body_span, || vec![("bytes", len.to_string())]);
            Ok(Some((guard, body)))
        }
        Err(_) => {
            respond_text(stream, 400, "Bad Request", "truncated request body\n")?;
            Ok(None)
        }
    }
}

/// [`respond_text`] carrying the request id header.
fn respond_text_id(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    rid: &str,
) -> io::Result<()> {
    http::write_response(
        stream,
        status,
        reason,
        "text/plain; charset=utf-8",
        &[("X-UO-Request-Id", rid)],
        body.as_bytes(),
    )
}

/// The 408 of a query whose deadline passed before its head was written
/// (during evaluation, or while its body was being formatted and sized).
fn respond_deadline_exceeded(
    state: &ServerState,
    stream: &mut TcpStream,
    rid: &str,
) -> io::Result<()> {
    QueryCounters::bump(&state.counters.cancelled);
    respond_text_id(
        stream,
        408,
        "Request Timeout",
        "query deadline exceeded (raise the 'timeout' parameter)\n",
        rid,
    )
}

fn handle_sparql(
    state: &ServerState,
    stream: &mut TcpStream,
    head: &http::Head,
    conn: u64,
) -> io::Result<()> {
    let t_req = Instant::now();
    let rid = state.request_ids.next_id();
    let req_span = SpanGuard::new(&state.tracer, state.tracer.start(conn, "server", "request"));

    // Content negotiation first: a 406 should not consume an admission slot.
    let Some(mut format) = negotiate(head.header("accept")) else {
        return respond_text_id(
            stream,
            406,
            "Not Acceptable",
            "supported: application/sparql-results+json, text/tab-separated-values, text/plain\n",
            &rid,
        );
    };

    let Some((_guard, body)) = admit_and_read_body(state, stream, head, req_span.id())? else {
        return Ok(());
    };

    // Extract the query text, optional per-request timeout, and whether an
    // EXPLAIN ANALYZE profile was requested.
    let mut query_text: Option<String> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut profile_requested =
        head.header("x-uo-profile").is_some_and(|v| matches!(v.trim(), "1" | "true"));
    let mut read_params = |params: Vec<(String, String)>| {
        for (k, v) in params {
            match k.as_str() {
                "query" => query_text = Some(v),
                "timeout" => timeout_ms = v.parse().ok(),
                "profile" => profile_requested |= matches!(v.as_str(), "1" | "true"),
                _ => {}
            }
        }
    };
    // Per-request parameters may ride on the request target's query string
    // for GET and (the SPARQL protocol allows it for sparql-query bodies)
    // for POST alike.
    read_params(http::parse_form(&head.query));
    if head.method == "POST" {
        let content_type =
            head.header("content-type").unwrap_or("").split(';').next().unwrap_or("").trim();
        match content_type {
            "application/sparql-query" => {
                query_text = Some(String::from_utf8_lossy(&body).into_owned());
            }
            "application/x-www-form-urlencoded" | "" => {
                read_params(http::parse_form(&String::from_utf8_lossy(&body)));
            }
            other => {
                let msg = format!("unsupported content type {other:?}\n");
                return respond_text_id(stream, 415, "Unsupported Media Type", &msg, &rid);
            }
        }
    }
    let Some(text) = query_text else {
        return respond_text_id(stream, 400, "Bad Request", "missing 'query' parameter\n", &rid);
    };
    if profile_requested {
        // The profile rides inside the JSON results document; the other
        // formats have nowhere to put it.
        format = Format::Json;
    }

    QueryCounters::bump(&state.counters.queries);

    // Parse (needed for the canonical cache key either way).
    let t_parse = Instant::now();
    let parsed = match uo_sparql::parse(&text) {
        Ok(q) => q,
        Err(e) => {
            QueryCounters::bump(&state.counters.parse_errors);
            let msg = format!("parse error: {e}\n");
            return respond_text_id(stream, 400, "Bad Request", &msg, &rid);
        }
    };
    let parse_nanos = t_parse.elapsed().as_nanos() as u64;
    state.tracer.record(req_span.id(), "query", "parse", t_parse, parse_nanos, Vec::new);
    let qtype = query_type(&parsed.body);
    let canonical = uo_sparql::serialize(&parsed);

    // MVCC admission point: grab the current snapshot exactly once. Plan
    // lookup, planning, execution and decoding all use this version, so the
    // response is consistent with it even if commits land mid-query.
    let snapshot = state.current_snapshot();
    let epoch = snapshot.epoch();

    // Plan cache: an epoch-matched hit skips plan construction +
    // optimization; plans from older epochs are stale misses.
    let plan_span = state.tracer.start(req_span.id(), "query", "plan");
    let (prepared, cache_outcome, optimize_nanos, plan_stats) =
        match state.cache.lookup(&canonical, epoch) {
            cache::Lookup::Hit(prepared, _, stats) => {
                QueryCounters::bump(&state.counters.cache_hits);
                (prepared, CacheOutcome::Hit, 0u64, stats)
            }
            outcome @ (cache::Lookup::Stale | cache::Lookup::Miss) => {
                QueryCounters::bump(&state.counters.cache_misses);
                let mut prepared = prepare_parsed(&snapshot, parsed);
                let (transforms, opt_time) = optimize_prepared(
                    &snapshot,
                    state.engine.as_ref(),
                    &mut prepared,
                    state.cfg.strategy,
                );
                let prepared = Arc::new(prepared);
                let stats = state.cache.insert(
                    canonical,
                    epoch,
                    Arc::clone(&prepared),
                    transforms,
                    prepared.est_root_rows,
                );
                let co = match outcome {
                    cache::Lookup::Stale => CacheOutcome::Stale,
                    _ => CacheOutcome::Miss,
                };
                (prepared, co, opt_time.as_nanos() as u64, stats)
            }
        };
    state.tracer.end_with(plan_span, || {
        vec![("cache", cache_outcome.label().to_string()), ("epoch", epoch.to_string())]
    });

    // Per-query deadline (cooperative, checked at BGP boundaries), plus the
    // endpoint-wide cancel flag raised on shutdown.
    let timeout = Duration::from_millis(
        timeout_ms.unwrap_or(state.cfg.default_timeout_ms).min(state.cfg.max_timeout_ms),
    );
    let cancel = Cancellation::after(timeout).with_flag(Arc::clone(&state.query_cancel));

    let profiler = if profile_requested { Profiler::on() } else { Profiler::off() };
    let projection = prepared.query.projection();
    let exec_span = state.tracer.start(req_span.id(), "query", "execute");
    let Ok(run) = try_execute_ids(
        &snapshot,
        state.engine.as_ref(),
        &prepared,
        state.cfg.strategy,
        uo_par::Parallelism::new(state.cfg.engine_threads.max(1)),
        &cancel,
        profiler,
    ) else {
        return respond_deadline_exceeded(state, stream, &rid);
    };
    // Only the projected id rows outlive execution; the bag goes now.
    let IdRun { bag, rows: answer, ask, wall_nanos, threads, exec_stats, op_profile, .. } = run;
    drop(bag);
    let rows = answer.len();
    state.tracer.end_with(exec_span, || vec![("rows", rows.to_string())]);
    // Cardinality feedback for /stats/plans: what the plan actually
    // produced, against the estimate captured when it was cached.
    plan_stats.record_exec(wall_nanos, rows as u64);

    // Serialize: format each distinct term once and count the body. The
    // deadline still yields a clean 408 here — the head is not out yet.
    let ser_span = state.tracer.start(req_span.id(), "query", "serialize");
    let stop = || cancel.is_cancelled();
    let wire = if format == Format::Json { ResultFormat::Json } else { ResultFormat::Tsv };
    let writer = match (ask, format) {
        // ASK gets the boolean result document of the negotiated format.
        (Some(verdict), _) => Ok(ResultWriter::ask(wire, verdict)),
        // The one human format: small, and the only one decoded to terms.
        (None, Format::Debug) => Ok(ResultWriter::text(debug_table(&projection, &answer.decode()))),
        (None, Format::Json | Format::Tsv) => {
            ResultWriter::select(wire, &projection, answer, &stop)
        }
    };
    let Ok(mut writer) = writer else {
        return respond_deadline_exceeded(state, stream, &rid);
    };
    state.counters.record_ok(qtype, rows);
    if profile_requested {
        writer.set_profile(
            QueryProfile {
                engine: state.engine.name().to_string(),
                strategy: state.cfg.strategy.label().to_string(),
                threads,
                query_type: qtype.to_string(),
                parse_nanos,
                cache: cache_outcome,
                optimize_nanos,
                execute_nanos: wall_nanos,
                // Up to here: the profile is part of the body it is sized
                // with, so it cannot include that body's transfer.
                total_nanos: t_req.elapsed().as_nanos() as u64,
                rows: rows as u64,
                rows_enumerated: exec_stats.rows_enumerated,
                short_circuit: exec_stats.short_circuit,
                root: op_profile,
            }
            .to_json(),
        );
    }
    let body_bytes = writer.body_len();
    state.tracer.end_with(ser_span, || {
        vec![
            ("bytes", body_bytes.to_string()),
            ("distinct_terms", writer.distinct_terms().to_string()),
        ]
    });

    // Write: the head with the exact length, then the body streamed through
    // the writer's buffer. Past the head a deadline or a write error can
    // only drop the connection, which the announced length makes detectable.
    let write_span = state.tracer.start(req_span.id(), "server", "write");
    let result = http::write_head(
        stream,
        200,
        "OK",
        format.content_type(),
        &[("X-UO-Request-Id", &rid)],
        body_bytes,
    )
    .and_then(|()| writer.write_to(stream, &stop));
    state.tracer.end(write_span);

    // Endpoint latency: end-to-end wall for this request up to its last
    // body byte (or the failed write), recorded into the lock-free
    // /metrics histograms (overall and per query type).
    let total_nanos = t_req.elapsed().as_nanos() as u64;
    state.query_hist.record(total_nanos);
    state.type_hists[type_index(qtype)].record(total_nanos);

    if let Some(threshold_ms) = state.cfg.slow_query_ms {
        if total_nanos >= threshold_ms.saturating_mul(1_000_000) {
            let entry = SlowEntry {
                id: rid.clone(),
                unix_ms: unix_ms(),
                wall_nanos: total_nanos,
                rows: rows as u64,
                query_type: qtype.to_string(),
                engine: state.engine.name().to_string(),
                epoch,
                cache: cache_outcome,
                query: text,
            };
            eprintln!("{}", entry.stderr_line());
            state.slow_log.push(entry);
        }
    }

    state.tracer.end_with(req_span.take(), || {
        vec![
            ("request_id", rid),
            ("type", qtype.to_string()),
            ("rows", rows.to_string()),
            ("epoch", epoch.to_string()),
        ]
    });
    result
}

/// `POST /update`: applies a SPARQL Update request (writable endpoints
/// only). Writers are serialized on the writer mutex; the commit swaps the
/// shared snapshot, so subsequent queries observe the new epoch while
/// queries already in flight keep answering from their admission-time
/// snapshot.
fn handle_update(
    state: &ServerState,
    stream: &mut TcpStream,
    head: &http::Head,
    conn: u64,
) -> io::Result<()> {
    let t_req = Instant::now();
    let rid = state.request_ids.next_id();
    let req_span = SpanGuard::new(&state.tracer, state.tracer.start(conn, "server", "request"));
    let Some(writer) = state.writer.as_ref() else {
        let expects_continue =
            head.header("expect").is_some_and(|v| v.to_ascii_lowercase().contains("100-continue"));
        let pending_body = if expects_continue { 0 } else { head.content_length().unwrap_or(0) };
        http::drain(stream, pending_body);
        return respond_text(
            stream,
            403,
            "Forbidden",
            "read-only endpoint: restart with --writable to accept updates\n",
        );
    };

    // Updates share the admission-control slots with queries: an update
    // holds capacity for its body read + execution + commit.
    let Some((_guard, body)) = admit_and_read_body(state, stream, head, req_span.id())? else {
        return Ok(());
    };
    let content_type =
        head.header("content-type").unwrap_or("").split(';').next().unwrap_or("").trim();
    let text = match content_type {
        "application/sparql-update" => String::from_utf8_lossy(&body).into_owned(),
        "application/x-www-form-urlencoded" | "" => {
            let mut update_text = None;
            for (k, v) in http::parse_form(&String::from_utf8_lossy(&body)) {
                if k == "update" {
                    update_text = Some(v);
                }
            }
            match update_text {
                Some(t) => t,
                None => {
                    return respond_text(stream, 400, "Bad Request", "missing 'update' parameter\n")
                }
            }
        }
        other => {
            let msg = format!("unsupported content type {other:?}\n");
            return respond_text(stream, 415, "Unsupported Media Type", &msg);
        }
    };

    let t_parse = Instant::now();
    let request = match uo_sparql::parse_update(&text) {
        Ok(u) => u,
        Err(e) => {
            state.update_errors.fetch_add(1, Ordering::Relaxed);
            let msg = format!("parse error: {e}\n");
            return respond_text(stream, 400, "Bad Request", &msg);
        }
    };
    state.tracer.record(
        req_span.id(),
        "query",
        "parse",
        t_parse,
        t_parse.elapsed().as_nanos() as u64,
        Vec::new,
    );

    // Serialize writers; queries keep flowing off the previous snapshot
    // until the swap below. The update runs under the endpoint's default
    // deadline (checked at operation boundaries) plus the shutdown flag, so
    // a runaway request cannot hold the writer mutex forever.
    let cancel = Cancellation::after(Duration::from_millis(state.cfg.default_timeout_ms))
        .with_flag(Arc::clone(&state.query_cancel));
    let par = uo_par::Parallelism::new(state.cfg.engine_threads.max(1));
    // The commit-pipeline span: the writer-lock critical section. The
    // write backend parents its own spans (delta merge, WAL append +
    // fsync) at it, and the publish closure records the snapshot swap and
    // the point after which cached plans of older epochs are stale.
    let commit_span =
        SpanGuard::new(&state.tracer, state.tracer.start(req_span.id(), "commit", "commit"));
    let publish = |snap: &Arc<Snapshot>| {
        let span = state.tracer.start(commit_span.id(), "commit", "publish");
        *state.snapshot.write().unwrap_or_else(PoisonError::into_inner) = Arc::clone(snap);
        let epoch = snap.epoch();
        state.tracer.end_with(span, || vec![("epoch", epoch.to_string())]);
        state.tracer.instant(commit_span.id(), "commit", "plan_cache_invalidate", || {
            vec![("epoch", epoch.to_string())]
        });
    };
    let report = {
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        match &mut *w {
            WriteBackend::Memory(mw) => mw.set_trace_parent(commit_span.id()),
            WriteBackend::Durable(ds) => ds.set_trace_parent(commit_span.id()),
        }
        match &mut *w {
            WriteBackend::Memory(mw) => {
                match try_run_update(mw, state.engine.as_ref(), &request, par, &cancel) {
                    Ok(report) => {
                        publish(&report.snapshot);
                        report
                    }
                    Err(_) => {
                        // Abandon the half-applied request: drop the
                        // pending delta (commits that already landed keep
                        // their epochs) and make sure queries see the
                        // writer's last committed snapshot.
                        mw.rollback();
                        publish(&mw.snapshot());
                        state.updates_cancelled.fetch_add(1, Ordering::Relaxed);
                        return respond_text(
                            stream,
                            408,
                            "Request Timeout",
                            "update deadline exceeded; operations before the deadline may have \
                             committed\n",
                        );
                    }
                }
            }
            WriteBackend::Durable(ds) => {
                // Journal-before-acknowledge: on success the record is on
                // disk (per the fsync policy) before the snapshot is
                // published or the 200 is written. Both failure modes roll
                // the store back to its pre-request state — in durable
                // mode a request is atomic, never half-committed.
                match try_run_update_durable(ds, state.engine.as_ref(), &request, par, &cancel) {
                    Ok(report) => {
                        publish(&report.snapshot);
                        report
                    }
                    Err(DurableUpdateError::Cancelled) => {
                        state.updates_cancelled.fetch_add(1, Ordering::Relaxed);
                        return respond_text(
                            stream,
                            408,
                            "Request Timeout",
                            "update deadline exceeded; request rolled back (nothing was \
                             journaled)\n",
                        );
                    }
                    Err(DurableUpdateError::Journal(e)) => {
                        state.journal_errors.fetch_add(1, Ordering::Relaxed);
                        let msg = format!("journal write failed ({e}); update rolled back\n");
                        return respond_text(stream, 500, "Internal Server Error", &msg);
                    }
                }
            }
        }
    };
    state.tracer.end_with(commit_span.take(), || {
        vec![
            ("epoch", report.epoch.to_string()),
            ("inserted", report.inserted.to_string()),
            ("deleted", report.deleted.to_string()),
        ]
    });
    state.updates_total.fetch_add(1, Ordering::Relaxed);
    state.update_hist.record(t_req.elapsed().as_nanos() as u64);

    let body = format!(
        "{{\"ops\": {}, \"inserted\": {}, \"deleted\": {}, \"triples\": {}, \"epoch\": {}}}\n",
        report.ops, report.inserted, report.deleted, report.triples, report.epoch
    );
    let write_span = state.tracer.start(req_span.id(), "server", "write");
    let result = http::write_response(
        stream,
        200,
        "OK",
        "application/json",
        &[("X-UO-Request-Id", &rid)],
        body.as_bytes(),
    );
    state.tracer.end(write_span);
    state.tracer.end_with(req_span.take(), || {
        vec![("request_id", rid), ("epoch", report.epoch.to_string())]
    });
    result
}

/// The CLI-style human-readable table (debug format).
fn debug_table(vars: &[String], rows: &[Vec<Option<uo_rdf::Term>>]) -> String {
    let mut out = String::new();
    out.push_str(&vars.iter().map(|v| format!("?{v}")).collect::<Vec<_>>().join("\t"));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .map(|t| t.as_ref().map(|t| t.to_string()).unwrap_or_else(|| "—".into()))
            .collect();
        out.push_str(&cells.join("\t"));
        out.push('\n');
    }
    out
}

/// Renders the `/stats/plans` JSON document: per-cached-plan observed
/// stats, sorted by canonical query text. `actual_over_est` is the
/// cardinality-feedback ratio — the last actual root cardinality over the
/// optimizer's estimate captured at plan time (`null` until the plan has
/// executed); a commit re-plans the entry, so the ratio always describes
/// the current epoch's plan.
fn plan_stats_json(state: &ServerState) -> String {
    let entries: Vec<String> = state
        .cache
        .plans_snapshot()
        .iter()
        .map(|e| {
            let est_root = e.est_root.map_or_else(|| "null".to_string(), uo_json::num);
            let ratio = e.actual_over_est().map_or_else(|| "null".to_string(), uo_json::num);
            format!(
                "{{\"query\": \"{}\", \"epoch\": {}, \"hits\": {}, \"executions\": {}, \
                 \"exec_nanos\": {}, \"last_rows\": {}, \"est_root\": {est_root}, \
                 \"actual_over_est\": {ratio}}}",
                uo_json::escape(&e.query),
                e.epoch,
                e.hits,
                e.executions,
                e.exec_nanos,
                e.last_rows,
            )
        })
        .collect();
    format!(
        "{{\"schema\": \"uo-plan-stats/1\", \"entries\": [{}]}}\n",
        entries.join(",\n             ")
    )
}

/// Renders the `/metrics` JSON document (schema v6: adds the `resources`
/// block — approximate store/plan-cache byte gauges and the trace-buffer
/// occupancy — and the `health` block mirroring `/healthz`, on top of v5's
/// `latency` block of log₂-bucketed histograms).
fn metrics_json(state: &ServerState) -> String {
    let snap = state.counters.snapshot();
    let (cache_hits, cache_misses, cache_stale) = state.cache.stats();
    let store = state.current_snapshot();
    let tiers = store.tier_stats();
    let page_cache = match store.page_cache_stats() {
        Some(pc) => format!(
            "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
            pc.hits, pc.misses, pc.evictions
        ),
        None => "null".to_string(),
    };
    let store_block = format!(
        "{{\"levels\": {}, \"runs\": {}, \"mem_rows\": {}, \"disk_rows\": {}, \
         \"tombstones\": {}, \"compactions\": {}, \"compaction_rows\": {}, \
         \"page_cache\": {page_cache}}}",
        tiers.levels,
        tiers.runs,
        tiers.mem_rows,
        tiers.disk_rows,
        tiers.tombstones,
        state.compactions.load(Ordering::Relaxed),
        state.compaction_rows.load(Ordering::Relaxed),
    );
    let by_type: Vec<String> = snap
        .by_type
        .iter()
        .map(|(qt, n)| format!("\"{}\": {n}", uo_json::escape(&qt.to_string())))
        .collect();
    let wal = match &state.durable {
        Some(info) => {
            let m = &info.metrics;
            format!(
                "{{\"fsync\": \"{}\", \"segments\": {}, \"bytes\": {}, \"records\": {}, \
                 \"synced_epoch\": {}, \"last_checkpoint_epoch\": {}, \"recovered_ops\": {}}}",
                uo_json::escape(&info.fsync),
                m.wal_segments.load(Ordering::Relaxed),
                m.wal_bytes.load(Ordering::Relaxed),
                m.wal_records.load(Ordering::Relaxed),
                m.synced_epoch.load(Ordering::Relaxed),
                m.last_checkpoint_epoch.load(Ordering::Relaxed),
                m.recovered_ops.load(Ordering::Relaxed),
            )
        }
        None => "null".to_string(),
    };
    let by_type_latency: Vec<String> = ALL_QUERY_TYPES
        .iter()
        .map(|&qt| format!("\"{qt}\": {}", state.type_hists[type_index(qt)].snapshot().to_json()))
        .collect();
    let (wal_fsync, commit) = match &state.durable {
        Some(info) => (
            info.metrics.fsync_hist.snapshot().to_json(),
            info.metrics.commit_hist.snapshot().to_json(),
        ),
        None => ("null".to_string(), "null".to_string()),
    };
    let latency = format!(
        "{{\"query\": {}, \"update\": {}, \"by_type\": {{{}}}, \"wal_fsync\": {wal_fsync}, \
         \"commit\": {commit}}}",
        state.query_hist.snapshot().to_json(),
        state.update_hist.snapshot().to_json(),
        by_type_latency.join(", "),
    );
    let resources = format!(
        "{{\"store_mem_bytes\": {}, \"store_disk_bytes\": {}, \"plan_cache_bytes\": {}, \
         \"trace\": {{\"enabled\": {}, \"events\": {}, \"dropped\": {}}}}}",
        tiers.mem_bytes(),
        tiers.disk_bytes(),
        state.cache.approx_bytes(),
        state.tracer.is_on(),
        state.tracer.event_count(),
        state.tracer.dropped(),
    );
    let now = unix_ms();
    let maintenance_expected =
        state.durable.is_some() || (state.writer.is_some() && state.cfg.compact_fan_in > 0);
    let heartbeat_age_ms =
        now.saturating_sub(state.health.last_maintenance_unix_ms.load(Ordering::Relaxed));
    let consecutive = state.health.consecutive_errors.load(Ordering::Relaxed);
    let checkpoint_age_ms = match &state.durable {
        Some(_) => now
            .saturating_sub(state.health.last_checkpoint_unix_ms.load(Ordering::Relaxed))
            .to_string(),
        None => "null".to_string(),
    };
    let health = format!(
        "{{\"degraded\": {}, \"maintenance_expected\": {maintenance_expected}, \
         \"heartbeat_age_ms\": {heartbeat_age_ms}, \"maintenance_errors\": {}, \
         \"consecutive_errors\": {consecutive}, \"checkpoint_age_ms\": {checkpoint_age_ms}, \
         \"compaction_backlog\": {}}}",
        health_degraded(
            maintenance_expected && !state.shutting_down.load(Ordering::SeqCst),
            consecutive,
            heartbeat_age_ms,
            state.cfg.checkpoint_interval_ms,
        ),
        state.health.maintenance_errors.load(Ordering::Relaxed),
        if state.cfg.compact_fan_in > 0 {
            store.level_count().saturating_sub(state.cfg.compact_fan_in)
        } else {
            0
        },
    );
    format!(
        "{{\n  \"schema\": \"uo-server-metrics/6\",\n  \"uptime_s\": {},\n  \
         \"engine\": \"{}\",\n  \"strategy\": \"{}\",\n  \"threads\": {},\n  \
         \"engine_threads\": {},\n  \"triples\": {},\n  \"snapshot_epoch\": {},\n  \
         \"writable\": {},\n  \"inflight\": {},\n  \
         \"max_inflight\": {},\n  \"plan_cache\": {{\"capacity\": {}, \"entries\": {}, \
         \"hits\": {cache_hits}, \"misses\": {cache_misses}, \"stale\": {cache_stale}}},\n  \
         \"updates\": {{\"updates_total\": {}, \"errors\": {}, \"cancelled\": {}, \
         \"journal_errors\": {}}},\n  \"wal\": {wal},\n  \"store\": {store_block},\n  \
         \"latency\": {latency},\n  \"resources\": {resources},\n  \"health\": {health},\n  \
         \"queries\": {{\"admitted\": {}, \"ok\": {}, \"parse_errors\": {}, \
         \"cancelled\": {}, \"rejected\": {}, \"rows\": {}, \"panics\": {}}},\n  \
         \"by_type\": {{{}}}\n}}\n",
        uo_json::num(state.started.elapsed().as_secs_f64()),
        uo_json::escape(state.engine.name()),
        uo_json::escape(state.cfg.strategy.label()),
        state.cfg.threads,
        state.cfg.engine_threads,
        store.len(),
        store.epoch(),
        state.cfg.writable,
        state.inflight.load(Ordering::SeqCst),
        state.cfg.max_inflight,
        state.cfg.cache_capacity,
        state.cache.len(),
        state.updates_total.load(Ordering::Relaxed),
        state.update_errors.load(Ordering::Relaxed),
        state.updates_cancelled.load(Ordering::Relaxed),
        state.journal_errors.load(Ordering::Relaxed),
        snap.queries,
        snap.ok,
        snap.parse_errors,
        snap.cancelled,
        snap.rejected,
        snap.rows,
        snap.panics,
        by_type.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_prefers_first_supported_range() {
        assert_eq!(negotiate(None), Some(Format::Json));
        assert_eq!(negotiate(Some("*/*")), Some(Format::Json));
        assert_eq!(negotiate(Some("application/sparql-results+json")), Some(Format::Json));
        assert_eq!(negotiate(Some("application/json; q=0.9")), Some(Format::Json));
        assert_eq!(negotiate(Some("text/tab-separated-values")), Some(Format::Tsv));
        assert_eq!(negotiate(Some("text/plain, application/json")), Some(Format::Debug));
        assert_eq!(negotiate(Some("text/csv, text/tab-separated-values")), Some(Format::Tsv));
        assert_eq!(negotiate(Some("application/xml")), None);
    }

    #[test]
    fn prometheus_negotiation_first_supported_range_wins() {
        assert!(!wants_prometheus(None), "absent Accept means JSON");
        assert!(!wants_prometheus(Some("*/*")));
        assert!(!wants_prometheus(Some("application/json")));
        assert!(!wants_prometheus(Some("application/*")));
        assert!(wants_prometheus(Some("text/plain")));
        assert!(wants_prometheus(Some("text/plain; version=0.0.4")));
        assert!(wants_prometheus(Some("text/*")));
        assert!(wants_prometheus(Some("application/openmetrics-text; version=1.0.0")));
        // First supported range in client order decides.
        assert!(wants_prometheus(Some("text/plain, application/json")));
        assert!(!wants_prometheus(Some("application/json, text/plain")));
        // Unknown ranges are skipped, not treated as JSON.
        assert!(wants_prometheus(Some("text/html, text/plain")));
    }

    #[test]
    fn health_degradation_policy() {
        // Fresh heartbeat, no errors: healthy regardless of expectation.
        assert!(!health_degraded(true, 0, 0, 200));
        assert!(!health_degraded(false, 0, 0, 200));
        // Any consecutive error degrades, even with a live heartbeat.
        assert!(health_degraded(true, 1, 0, 200));
        assert!(health_degraded(false, 1, 0, 200));
        // A stalled heartbeat only matters when maintenance is expected,
        // and the threshold is max(20 intervals, 5 s).
        assert!(!health_degraded(true, 0, 4_999, 200));
        assert!(health_degraded(true, 0, 5_001, 200));
        assert!(!health_degraded(false, 0, u64::MAX, 200));
        assert!(!health_degraded(true, 0, 19_000, 1_000), "20 × 1 s not yet exceeded");
        assert!(health_degraded(true, 0, 20_001, 1_000));
        // Interval overflow saturates instead of wrapping.
        assert!(!health_degraded(true, 0, u64::MAX - 1, u64::MAX));
    }

    #[test]
    fn debug_table_renders_unbound() {
        let rows = vec![vec![Some(uo_rdf::Term::iri("http://a")), None]];
        let got = debug_table(&["x".to_string(), "y".to_string()], &rows);
        assert_eq!(got, "?x\t?y\n<http://a>\t—\n");
    }
}
