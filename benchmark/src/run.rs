//! One workload, end to end: set up a served store, drive it over HTTP from
//! closed-loop clients, verify every reply, and turn the logs into metrics.

use crate::client::{self, BodyHash};
use crate::layers;
use crate::spans::{self, Recorder, Span};
use crate::stats;
use crate::workloads::{self, ClientPlan, Plan, QuerySpec, Scale, UpdateStream, Workload, CLIENTS};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uo_core::{open_durable, run_query_with, Parallelism, Strategy};
use uo_engine::WcoEngine;
use uo_server::{EngineChoice, ServerConfig, ServerHandle};
use uo_store::{DurableOptions, FsyncPolicy, Snapshot};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `GET /healthz` round trips behind `server.null_request_ns`.
const NULL_REQUESTS: usize = 200;
/// Updates behind `update_*` on the in-memory workloads: 12 beyond p95.
const UPDATE_PROBE: usize = 240;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `--check` scale (the server process is told the same).
    pub tiny: bool,
    pub scale: Scale,
    /// Where the durable data directory and the trace file go.
    pub out_dir: PathBuf,
}

/// A metric value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub n: u64,
}

pub type Metrics = BTreeMap<&'static str, Value>;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Counts that repeat exactly from run to run (single-threaded replay).
    pub exact: Vec<(&'static str, f64)>,
    /// Facts about the inputs, for the output header.
    pub facts: Vec<(&'static str, String)>,
}

/// One distinct query request, ready to send, with what must come back.
pub struct Request {
    pub spec: QuerySpec,
    pub bytes: Vec<u8>,
    pub body_hash: u64,
    pub body_len: u64,
    pub rows: u64,
}

/// How long the parts of a set-up took.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub build_s: f64,
    pub reference_s: f64,
    pub open_s: f64,
    pub total_s: f64,
}

/// A served store with everything needed to drive and check it.
pub struct Fixture {
    pub snapshot: Arc<Snapshot>,
    pub plan: Plan,
    pub requests: Vec<Request>,
    pub server: ServerProcess,
    pub durable: Option<DurableDir>,
    pub times: SetupTimes,
    /// Each client's schedule position after the warm-up.
    pub next: Vec<usize>,
}

/// The data directory of `durable_rw`.
pub struct DurableDir {
    pub path: PathBuf,
    /// Bytes of the seeded checkpoint, and the page-cache budget set from it.
    pub checkpoint_bytes: u64,
    pub page_cache_bytes: usize,
}

/// The server as a user would configure it for this box: WCO engine, full
/// strategy, one worker per core, sequential evaluation inside a query,
/// default plan cache, tracing and profiling off; read-only unless it is
/// there to take updates.
fn server_config(writable: bool) -> ServerConfig {
    ServerConfig {
        threads: CLIENTS,
        engine_threads: 1,
        engine: EngineChoice::Wco,
        strategy: Strategy::Full,
        writable,
        ..ServerConfig::default()
    }
}

pub fn reference_engine() -> WcoEngine {
    WcoEngine::with_threads(1)
}

/// Runs `spec` in process, the way the server does, and keeps only what a
/// client needs to verify the reply: length, hash and row count.
fn reference(snapshot: &Snapshot, spec: QuerySpec) -> Request {
    let engine = reference_engine();
    let report =
        run_query_with(snapshot, &engine, &spec.text, Strategy::Full, Parallelism::sequential())
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", spec.label));
    let projection = uo_sparql::parse(&spec.text).expect("parsed above").projection();
    let (body, accept) = if spec.tsv {
        (uo_sparql::results_tsv(&projection, &report.results), "text/tab-separated-values")
    } else {
        (uo_sparql::results_json(&projection, &report.results), "application/sparql-results+json")
    };
    Request {
        bytes: client::post("/sparql", "application/sparql-query", accept, &spec.text),
        body_hash: BodyHash::of(body.as_bytes()),
        body_len: body.len() as u64,
        rows: report.results.len() as u64,
        spec,
    }
}

/// References for all of `specs`, computed on [`CLIENTS`] threads.
fn references(snapshot: &Snapshot, specs: Vec<QuerySpec>) -> Vec<Request> {
    let mut slots: Vec<Option<Request>> = specs.iter().map(|_| None).collect();
    let per_thread = specs.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|s| {
        for (specs, slots) in specs.chunks(per_thread).zip(slots.chunks_mut(per_thread)) {
            s.spawn(move || {
                for (spec, slot) in specs.iter().zip(slots) {
                    *slot = Some(reference(snapshot, spec.clone()));
                }
            });
        }
    });
    slots.into_iter().map(|r| r.expect("every chunk was computed")).collect()
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn durable_options(fsync: FsyncPolicy, page_cache_bytes: usize) -> DurableOptions {
    DurableOptions { fsync, page_cache_bytes, ..DurableOptions::default() }
}

/// Seeds a data directory from `snapshot`, reopens it so the checkpoint's
/// run files are served lazily through a page cache an eighth of their size
/// (the one workload whose data is larger than the program's cache), and
/// serves it with `fsync = always`. Returns the server, the checkpoint's
/// bytes, the page-cache budget and the seconds the reopen took.
fn start_durable(
    snapshot: Arc<Snapshot>,
    path: &Path,
) -> Result<(ServerHandle, u64, usize, f64), String> {
    let _ = std::fs::remove_dir_all(path);
    let engine = reference_engine();
    let par = Parallelism::sequential();
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what} {}: {e}", path.display());
    let mut ds = open_durable(path, durable_options(FsyncPolicy::Always, 0), &engine, par)
        .map_err(|e| fail("create", &e))?;
    ds.seed(snapshot).map_err(|e| fail("seed", &e))?;
    drop(ds);
    let checkpoint_bytes = dir_bytes(path);
    let page_cache_bytes = (checkpoint_bytes / 8) as usize;
    let t_open = Instant::now();
    let ds =
        open_durable(path, durable_options(FsyncPolicy::Always, page_cache_bytes), &engine, par)
            .map_err(|e| fail("reopen", &e))?;
    let open_s = t_open.elapsed().as_secs_f64();
    let server =
        uo_server::start_durable(ds, server_config(true), 0).map_err(|e| fail("serve", &e))?;
    Ok((server, checkpoint_bytes, page_cache_bytes, open_s))
}

/// The `serve` subcommand: the endpoint under test, in a process of its
/// own so that `peak_rss_mb` is the server's — its store and what serving
/// takes — and not the load generator's reference results, repeated
/// set-ups and update probe, which in one process left more garbage than
/// the server ever used, and a different amount every run. Builds the
/// store, starts the server exactly as `uo_server` is started in process,
/// gives set-up memory back and restarts the peak-RSS watermark, prints
/// `ready <port> <checkpoint bytes> <page-cache bytes> <open seconds>`,
/// serves until a line (or end of input) arrives on standard input, then
/// prints `peak <MB>`.
pub fn serve(opts: &Options, durable_dir: Option<&Path>) -> Result<(), String> {
    let snapshot = workloads::build_store(&opts.scale);
    let (server, checkpoint_bytes, page_cache_bytes, open_s) = match durable_dir {
        // The in-memory copy is dropped: the durable server reads its store
        // from the checkpoint it just reopened.
        Some(path) => start_durable(snapshot, path)?,
        None => {
            let server = uo_server::start(snapshot, server_config(false), 0)
                .map_err(|e| format!("start server: {e}"))?;
            (server, 0, 0, 0.0)
        }
    };
    forget_setup_memory();
    println!("ready {} {checkpoint_bytes} {page_cache_bytes} {open_s}", server.addr().port());
    let mut line = String::new();
    std::io::stdin().read_line(&mut line).map_err(|e| format!("read standard input: {e}"))?;
    server.shutdown();
    println!("peak {}", peak_rss_mb());
    Ok(())
}

/// The parent's end of a [`serve`] process.
pub struct ServerProcess {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Starts `serve` in a child of this binary; it builds its store while
    /// the caller builds its own. [`ready`](ServerProcess::ready) waits.
    fn spawn(opts: &Options, durable_dir: Option<&Path>) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut command = Command::new(exe);
        command.args([
            "serve",
            "--workload",
            opts.workload.name(),
            "--seed",
            &opts.seed.to_string(),
        ]);
        if opts.tiny {
            command.arg("--tiny");
        }
        if let Some(dir) = durable_dir {
            command.arg("--dir").arg(dir);
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn the server process: {e}"))?;
        let stdin = child.stdin.take().expect("piped above");
        let stdout = BufReader::new(child.stdout.take().expect("piped above"));
        Ok(ServerProcess { child, stdin, stdout, addr: SocketAddr::from(([127, 0, 0, 1], 0)) })
    }

    fn line(&mut self, keyword: &str) -> Result<Vec<String>, String> {
        let mut line = String::new();
        self.stdout.read_line(&mut line).map_err(|e| format!("server process: {e}"))?;
        let mut words = line.split_whitespace().map(str::to_string);
        if words.next().as_deref() != Some(keyword) {
            return Err(format!("server process said {line:?}, not {keyword:?}"));
        }
        Ok(words.collect())
    }

    /// Waits until the server listens; returns the checkpoint's bytes, the
    /// page-cache budget and the seconds the durable reopen took.
    fn ready(&mut self) -> Result<(u64, usize, f64), String> {
        let words = self.line("ready")?;
        let field = |i: usize| words.get(i).ok_or_else(|| "short ready line".to_string());
        let bad = |e: &dyn std::fmt::Display| format!("ready line: {e}");
        self.addr.set_port(field(0)?.parse().map_err(|e| bad(&e))?);
        Ok((
            field(1)?.parse().map_err(|e| bad(&e))?,
            field(2)?.parse().map_err(|e| bad(&e))?,
            field(3)?.parse().map_err(|e| bad(&e))?,
        ))
    }

    /// Stops the server and waits for its process; returns its peak
    /// resident memory since it was ready, in MB.
    pub fn stop(mut self) -> Result<f64, String> {
        writeln!(self.stdin, "stop").map_err(|e| format!("stop the server process: {e}"))?;
        let peak = self.line("peak")?;
        let status = self.child.wait().map_err(|e| format!("wait for the server process: {e}"))?;
        if !status.success() {
            return Err(format!("server process exited with {status}"));
        }
        peak.first()
            .and_then(|mb| mb.parse().ok())
            .ok_or_else(|| "peak line without a number".to_string())
    }
}

impl Drop for ServerProcess {
    /// Error paths must not leave the process behind; after [`stop`] it has
    /// already exited and both calls are no-ops.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Everything before the first timed request: generate and build the store,
/// compute references, seed and reopen the data directory (`durable_rw`),
/// start the server, and warm up.
pub fn setup(opts: &Options, attempt: usize) -> Result<Fixture, String> {
    let t0 = Instant::now();
    let durable_dir = (opts.workload == Workload::DurableRw)
        .then(|| opts.out_dir.join(format!("durable-{}-{attempt}", std::process::id())));
    let mut server = ServerProcess::spawn(opts, durable_dir.as_deref())?;
    let snapshot = workloads::build_store(&opts.scale);
    let build_s = t0.elapsed().as_secs_f64();

    let t_ref = Instant::now();
    let mut rng = rand::SeedableRng::seed_from_u64(opts.seed);
    let requests = match opts.workload {
        Workload::UoWarm | Workload::DurableRw => {
            let mut kept = references(&snapshot, workloads::paper_candidates(opts.workload));
            kept.retain(|r| workloads::keeps_rows(r.rows as usize));
            kept
        }
        Workload::BigResult => references(&snapshot, workloads::big_result_queries()),
        Workload::AdhocLookup => {
            references(&snapshot, workloads::adhoc_pool(&opts.scale, &mut rng))
        }
    };
    if requests.is_empty() {
        return Err("no query qualifies at this scale".to_string());
    }
    let reference_s = t_ref.elapsed().as_secs_f64();
    let specs = requests.iter().map(|r| r.spec.clone()).collect();
    let plan = Plan::new(opts.workload, &opts.scale, opts.seed, specs);

    let (checkpoint_bytes, page_cache_bytes, open_s) = server.ready()?;
    let durable = durable_dir.map(|path| DurableDir { path, checkpoint_bytes, page_cache_bytes });
    let mut fx = Fixture {
        snapshot,
        plan,
        requests,
        server,
        durable,
        times: SetupTimes { build_s, reference_s, open_s, total_s: 0.0 },
        next: Vec::new(),
    };

    // Warm-up: every client sends the first distinct requests of its
    // schedule once (not timed, not counted, but verified). The window
    // carries on from where the warm-up stopped, so `adhoc_lookup` never
    // repeats a text that is still in the plan cache.
    let warm = drive(&fx, Until::WarmUp(opts.scale.warmup_cap), None);
    if let Some(bad) = warm.iter().flat_map(|log| &log.ops).find(|op| !op.ok) {
        return Err(format!("warm-up request {} failed verification", bad.query));
    }
    fx.next = warm.iter().map(|log| log.next).collect();
    fx.times.total_s = t0.elapsed().as_secs_f64();
    Ok(fx)
}

impl Fixture {
    /// Stops the server and removes the data directory.
    pub fn teardown(self) {
        let _ = self.server.stop();
        if let Some(d) = self.durable {
            let _ = std::fs::remove_dir_all(d.path);
        }
    }
}

/// The outcome of one operation, as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Index into [`Fixture::requests`], or `UPDATE` for an update.
    pub query: u32,
    pub ns: u64,
    pub rows: u64,
    pub body_bytes: u64,
    pub ok: bool,
    /// Whether spans were recorded around this operation.
    pub traced: bool,
}

pub const UPDATE: u32 = u32::MAX;

/// Everything one client recorded.
#[derive(Default)]
pub struct ClientLog {
    pub ops: Vec<Op>,
    pub spans: Vec<Span>,
    /// Acknowledged updates: subject and the triples it must have after.
    pub acked: Vec<(String, usize)>,
    pub hash_ns: u64,
    /// The schedule position after the last operation.
    pub next: usize,
}

/// When a client stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// At this instant (an operation in flight completes).
    Deadline(Instant),
    /// After this many operations.
    Ops(usize),
    /// After the first distinct requests of the schedule, at most this many.
    WarmUp(usize),
}

/// Runs every client of the fixture's plan on its own thread, each from its
/// position after the warm-up. With a trace origin, every other pass over
/// the schedule records `request ⊃ connect, send, wait_first_byte,
/// read_body, verify` spans; the passes between stay untraced, so the two
/// can be compared inside one window.
pub fn drive(fx: &Fixture, until: Until, trace_origin: Option<Instant>) -> Vec<ClientLog> {
    let addr = fx.server.addr;
    let arrivals = AtomicUsize::new(0);
    let together = fx.plan.together.map(|query| (query, &arrivals));
    std::thread::scope(|s| {
        let handles: Vec<_> = fx
            .plan
            .clients
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let rec = trace_origin.map(|origin| Recorder::new(origin, c as u32 + 1));
                let start = fx.next.get(c).copied().unwrap_or(0);
                let pass = fx.plan.pass;
                let client =
                    Client { addr, index: c, plan, requests: &fx.requests, start, pass, together };
                s.spawn(move || client.run(until, rec))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// Updates per traced or untraced block of a writer's stream.
const WRITER_BLOCK: usize = 50;

/// One closed-loop client.
struct Client<'a> {
    addr: SocketAddr,
    index: usize,
    plan: &'a ClientPlan,
    requests: &'a [Request],
    /// The position in its schedule it starts at.
    start: usize,
    /// Requests in one traced or untraced stretch of its schedule.
    pass: usize,
    /// The request sent together with the other clients (see
    /// [`Plan::together`]) and the shared count of arrivals at it.
    together: Option<(usize, &'a AtomicUsize)>,
}

impl Client<'_> {
    /// Send, wait for the whole reply, verify, repeat.
    fn run(&self, until: Until, mut rec: Option<Recorder>) -> ClientLog {
        let Client { addr, plan, requests, start, pass, together, .. } = *self;
        let mut log = ClientLog { next: start, ..ClientLog::default() };
        let mut meetings = 0;
        let mut scratch = Vec::new();
        let (order, mut updates): (&[usize], _) = match plan {
            ClientPlan::Cycle(order) => (order, None),
            ClientPlan::Writer(seed) => {
                let mut stream = UpdateStream::new(*seed);
                (0..start).for_each(|_| drop(stream.next_update()));
                (&[], Some(stream))
            }
        };
        let block = if updates.is_some() { WRITER_BLOCK } else { pass };
        let mut warmed = BTreeSet::new();
        let distinct = order.iter().collect::<BTreeSet<_>>().len();
        loop {
            let position = log.next;
            let stop = match until {
                Until::Deadline(t) => Instant::now() >= t,
                Until::Ops(n) => log.ops.len() >= n,
                // The writer does not warm up: its requests change the store.
                Until::WarmUp(cap) => updates.is_some() || warmed.len() >= cap.min(distinct),
            };
            if stop {
                break;
            }
            log.next += 1;
            let update = updates.as_mut().map(UpdateStream::next_update);
            let (query, bytes) = match &update {
                Some(u) => (
                    UPDATE,
                    client::post(
                        "/update",
                        "application/sparql-update",
                        "application/json",
                        &u.text,
                    ),
                ),
                None => (order[position % order.len()] as u32, Vec::new()),
            };
            if matches!(until, Until::WarmUp(_)) && !warmed.insert(query) {
                continue;
            }
            // A request sent together: wait until every client has reached its
            // copy, or the window closes. The wait is think time, not latency.
            if let (Some((q, arrivals)), Until::Deadline(deadline)) = (together, until) {
                if q == query as usize {
                    meetings += 1;
                    // SeqCst: the counter orders nothing else, so the default is fine.
                    arrivals.fetch_add(1, Ordering::SeqCst);
                    while arrivals.load(Ordering::SeqCst) < meetings * CLIENTS
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            }
            let bytes = if update.is_some() { &bytes } else { &requests[query as usize].bytes };
            let reply = client::exchange(addr, bytes, &mut scratch);
            let verify_start = Instant::now();
            let (ok, rows) = match (&reply, &update) {
                (Ok(r), Some(u)) => {
                    let acked = r.status == 200
                        && std::str::from_utf8(&r.body).is_ok_and(|b| b.contains(&u.ack_fragment));
                    if acked {
                        log.acked.push((u.subject.clone(), u.triples_after));
                    }
                    (acked, 0)
                }
                (Ok(r), None) => {
                    let want = &requests[query as usize];
                    let same = r.status == 200
                        && r.body_len == want.body_len
                        && r.body_hash == want.body_hash;
                    (same, want.rows)
                }
                (Err(_), _) => (false, 0),
            };
            let end = Instant::now();
            if !ok && log.ops.iter().filter(|op| !op.ok).count() < 3 {
                let what = match &update {
                    Some(u) => u.text.clone(),
                    None => requests[query as usize].spec.label.clone(),
                };
                match &reply {
                    Ok(r) => {
                        eprintln!("FAILED {what}: status {}, {} body bytes", r.status, r.body_len)
                    }
                    Err(e) => eprintln!("FAILED {what}: {e}"),
                }
            }
            let started = reply.as_ref().map_or(verify_start, |r| r.started);
            let traced = rec.is_some() && (position / block) % 2 == 1;
            if let Ok(r) = &reply {
                log.hash_ns += r.hash_ns;
                if let (Some(rec), true) = (&mut rec, traced) {
                    let request = (position * CLIENTS + self.index) as u64;
                    let root = rec.push("request", 0, request, r.started, end);
                    rec.push("connect", root, request, r.started, r.connected);
                    rec.push("send", root, request, r.connected, r.sent);
                    rec.push("wait_first_byte", root, request, r.sent, r.first_byte);
                    rec.push("read_body", root, request, r.first_byte, r.done);
                    rec.push("verify", root, request, r.done, end);
                }
            }
            log.ops.push(Op {
                query,
                ns: (end - started).as_nanos() as u64,
                rows,
                body_bytes: reply.as_ref().map_or(0, |r| r.body_len),
                ok,
                traced,
            });
        }
        log.spans = rec.map(|r| r.spans).unwrap_or_default();
        log
    }
}

/// `update_*` on the in-memory workloads: before the query window, one
/// client posts `UPDATE_PROBE` requests of the seeded stream to a second,
/// writable endpoint over the same snapshot, which is then shut down. The
/// read-only endpoint under test never sees them, so its plans stay cached
/// and its store one level deep; and the updates always meet the heap as
/// the set-up left it, not as 146 MB responses did. Returns the log and the
/// seconds it took.
fn update_probe(fx: &Fixture, opts: &Options) -> Result<(ClientLog, f64), String> {
    let server = uo_server::start(Arc::clone(&fx.snapshot), server_config(true), 0)
        .map_err(|e| format!("start update endpoint: {e}"))?;
    let plan = ClientPlan::Writer(opts.seed);
    let t = Instant::now();
    let client = Client {
        addr: server.addr(),
        index: 0,
        plan: &plan,
        requests: &[],
        start: 0,
        pass: WRITER_BLOCK,
        together: None,
    };
    let log = client.run(Until::Ops(UPDATE_PROBE), None);
    let elapsed_s = t.elapsed().as_secs_f64();
    server.shutdown();
    Ok((log, elapsed_s))
}

/// The share of the window `durable_rw` runs for before it, untimed.
const SETTLE_SHARE: f64 = 0.2;

/// `durable_rw` only: before the window, both clients run for a fifth of its
/// length (3 s of 15), verified but not timed. The directory starts as one
/// checkpoint behind a cold page cache; 32 commits later the first fold has
/// made the store memory-resident and the level stack saw-tooths the way it
/// does for the rest of the run. The window then measures that steady state
/// instead of a mix of it and a transient whose share varies.
fn settle(fx: &mut Fixture, seconds: f64) -> Vec<ClientLog> {
    if fx.durable.is_none() {
        return Vec::new();
    }
    let until = Instant::now() + Duration::from_secs_f64(seconds * SETTLE_SHARE);
    let logs = drive(fx, Until::Deadline(until), None);
    fx.next = logs.iter().map(|log| log.next).collect();
    logs
}

/// A timed window over the fixture's plan.
struct Window {
    logs: Vec<ClientLog>,
    elapsed_s: f64,
}

fn window(fx: &Fixture, seconds: f64, trace_origin: Option<Instant>) -> Window {
    let t = Instant::now();
    let logs = drive(fx, Until::Deadline(t + Duration::from_secs_f64(seconds)), trace_origin);
    Window { logs, elapsed_s: t.elapsed().as_secs_f64() }
}

impl Window {
    fn ops(&self) -> impl Iterator<Item = &Op> {
        self.logs.iter().flat_map(|l| &l.ops)
    }

    fn verified(&self, update: bool) -> impl Iterator<Item = &Op> {
        self.ops().filter(move |op| op.ok && (op.query == UPDATE) == update)
    }

    /// Mean latency in nanoseconds of the verified operations of one kind,
    /// over all of them or only the traced or untraced ones.
    fn mean_ns(&self, update: bool, traced: Option<bool>) -> f64 {
        let ns: Vec<f64> = self
            .verified(update)
            .filter(|op| traced.is_none_or(|t| op.traced == t))
            .map(|op| op.ns as f64)
            .collect();
        stats::mean(&ns)
    }
}

/// Gives freed set-up memory back to the system and restarts the kernel's
/// peak-RSS watermark, so that the server process's peak is its store plus
/// what serving takes, not the generator temporaries it was built from.
fn forget_setup_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
        // at any time from any thread; it only releases free heap pages.
        unsafe { malloc_trim(0) };
    }
    // "5" resets VmHWM to the current resident set (proc(5)).
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("peak_rss_mb includes the set-up: cannot reset VmHWM ({e})");
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

/// Latency percentiles and throughput of the verified operations of one
/// kind, under the names `{kind}_p50_ms`, `{kind}_p95_ms` and `rate_name`.
fn latency_metrics(
    metrics: &mut Metrics,
    names: [&'static str; 3],
    ops: &[&Op],
    elapsed_s: f64,
) -> Result<(), String> {
    let mut ms: Vec<f64> = ops.iter().map(|op| op.ns as f64 / 1e6).collect();
    let n = ms.len() as u64;
    let [p50, p95, rate] = names;
    metrics.insert(p50, Value { value: stats::percentile(&mut ms, 50.0)?, n });
    metrics.insert(p95, Value { value: stats::percentile(&mut ms, 95.0)?, n });
    metrics.insert(rate, Value { value: ms.len() as f64 / elapsed_s, n });
    Ok(())
}

/// After `durable_rw`'s window: the server is stopped without a final
/// checkpoint, the directory reopened, and every acknowledged update must
/// be there. Returns the lost acknowledgements and the reopened store's
/// recovery facts.
fn lost_acks(
    dir: &DurableDir,
    acked: &[(String, usize)],
) -> Result<(u64, layers::Recovery), String> {
    let engine = reference_engine();
    let t = Instant::now();
    let ds = open_durable(
        &dir.path,
        durable_options(FsyncPolicy::Always, dir.page_cache_bytes),
        &engine,
        Parallelism::sequential(),
    )
    .map_err(|e| format!("reopen after the window: {e}"))?;
    let recovery = layers::Recovery {
        seconds: t.elapsed().as_secs_f64(),
        wal_records_replayed: ds.recovery().replayed_ops as f64,
    };
    let snap = ds.snapshot();
    // The last acknowledged request about a subject decides its state.
    let last: BTreeMap<&str, usize> = acked.iter().map(|(s, n)| (s.as_str(), *n)).collect();
    let lost = last
        .iter()
        .filter(|(subject, &want)| {
            let id = snap.dictionary().lookup(&uo_rdf::Term::iri(**subject));
            let have = id.map_or(0, |id| snap.count_pattern(Some(id), None, None));
            if have != want {
                eprintln!("LOST <{subject}>: {have} triples after recovery, {want} acknowledged");
            }
            have != want
        })
        .count();
    Ok((lost as u64, recovery))
}

/// Attempts and failures among `ops`.
fn tally<'a>(ops: impl Iterator<Item = &'a Op>) -> (u64, u64) {
    ops.fold((0, 0), |(attempted, failed), op| (attempted + 1, failed + u64::from(!op.ok)))
}

/// Ends a run: stops the server process and, on `durable_rw`, checks every
/// acknowledgement in `logs` (in the order they were given) against the
/// reopened directory and removes it. Returns the server's peak MB, the lost
/// acknowledgements and what the recovery found.
fn stop_and_verify<'a>(
    server: ServerProcess,
    durable: Option<&DurableDir>,
    logs: impl Iterator<Item = &'a ClientLog>,
) -> Result<(f64, u64, layers::Recovery), String> {
    let peak_mb = server.stop()?;
    let Some(dir) = durable else { return Ok((peak_mb, 0, layers::Recovery::default())) };
    let acked: Vec<(String, usize)> = logs.flat_map(|l| l.acked.iter().cloned()).collect();
    let (lost, recovery) = lost_acks(dir, &acked)?;
    let _ = std::fs::remove_dir_all(&dir.path);
    Ok((peak_mb, lost, recovery))
}

/// Parsed numbers out of the server's `/metrics` JSON document.
pub struct Scrape(uo_json::Json);

impl Scrape {
    fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let reply = client::exchange(addr, &client::get("/metrics"), &mut Vec::new())
            .map_err(|e| format!("GET /metrics: {e}"))?;
        let text = String::from_utf8(reply.body).map_err(|e| format!("/metrics: {e}"))?;
        uo_json::parse(&text).map(Scrape).map_err(|e| format!("/metrics: {e:?}"))
    }

    /// The number at `path` (0 when absent or `null`, e.g. the WAL block of
    /// an in-memory server).
    pub fn num(&self, path: &[&str]) -> f64 {
        path.iter()
            .try_fold(&self.0, |j, key| j.get(key))
            .and_then(uo_json::Json::as_f64)
            .unwrap_or(0.0)
    }
}

/// Runs the workload and returns its metrics: the end-to-end set, or with
/// `opts.trace` the per-layer set.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    if opts.trace {
        return run_traced(opts);
    }
    let mut fx = setup(opts, 0)?;
    let mut setups = vec![fx.times.total_s];
    for attempt in 1..SETUPS {
        fx.teardown();
        fx = setup(opts, attempt)?;
        setups.push(fx.times.total_s);
    }
    let mut metrics = Metrics::new();
    metrics.insert(
        "setup_s",
        Value {
            value: stats::median(&mut setups).expect("SETUPS is at least one"),
            n: SETUPS as u64,
        },
    );

    // Updates: a probe before the window on the in-memory workloads, the
    // writer client inside the window on durable_rw.
    let names = ["update_p50_ms", "update_p95_ms", "update_tps"];
    let (mut attempted, mut failed) = (0, 0);
    if fx.durable.is_none() {
        let (probe, elapsed_s) = update_probe(&fx, opts)?;
        (attempted, failed) = tally(probe.ops.iter());
        let updates: Vec<&Op> = probe.ops.iter().filter(|op| op.ok).collect();
        latency_metrics(&mut metrics, names, &updates, elapsed_s)?;
    }

    let settled = settle(&mut fx, opts.seconds);
    let w = window(&fx, opts.seconds, None);
    let (sent, wrong) = tally(settled.iter().flat_map(|l| &l.ops).chain(w.ops()));
    let queries: Vec<&Op> = w.verified(false).collect();
    latency_metrics(
        &mut metrics,
        ["query_p50_ms", "query_p95_ms", "query_qps"],
        &queries,
        w.elapsed_s,
    )?;
    let rows: u64 = queries.iter().map(|op| op.rows).sum();
    metrics.insert(
        "result_rows_per_s",
        Value { value: rows as f64 / w.elapsed_s, n: queries.len() as u64 },
    );
    if fx.durable.is_some() {
        let updates: Vec<&Op> = w.verified(true).collect();
        latency_metrics(&mut metrics, names, &updates, w.elapsed_s)?;
    }

    let facts = facts(&fx, opts);
    let (peak_mb, lost, _) =
        stop_and_verify(fx.server, fx.durable.as_ref(), settled.iter().chain(&w.logs))?;
    (attempted, failed) = (attempted + sent, failed + wrong + lost);
    metrics.insert("peak_rss_mb", Value { value: peak_mb, n: 1 });
    let verified = attempted - failed.min(attempted);
    metrics.insert(
        "success_pct",
        Value { value: 100.0 * verified as f64 / attempted.max(1) as f64, n: attempted },
    );
    Ok(Outcome { attempted, failed, metrics, exact: Vec::new(), facts })
}

fn facts(fx: &Fixture, opts: &Options) -> Vec<(&'static str, String)> {
    let mut out = vec![
        ("workload", opts.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("clients", CLIENTS.to_string()),
        ("store_triples", fx.snapshot.len().to_string()),
        ("distinct_requests", fx.requests.len().to_string()),
        ("schedule_hash", format!("{:016x}", fx.plan.schedule_hash(256))),
    ];
    if let Some(d) = &fx.durable {
        out.push(("checkpoint_bytes", d.checkpoint_bytes.to_string()));
        out.push(("page_cache_bytes", d.page_cache_bytes.to_string()));
    }
    out
}

/// Polls the durable data directory while the window runs: which manifests,
/// run files and log segments appeared and disappeared. Counts background
/// checkpoints and retired segments from outside the server.
struct DirWatch {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<DirSeen>,
}

#[derive(Default)]
struct DirSeen {
    /// File name → size, for every file seen that was not there at start.
    new_files: BTreeMap<String, u64>,
    wal_segments: BTreeSet<String>,
}

fn list(dir: &Path, into: &mut BTreeMap<String, u64>) {
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let (Ok(m), Some(name)) = (e.metadata(), e.file_name().to_str()) {
            if m.is_file() && !name.ends_with(".tmp") {
                into.insert(name.to_string(), m.len());
            }
        }
    }
}

impl DirWatch {
    fn start(dir: &Path) -> DirWatch {
        let stop = Arc::new(AtomicBool::new(false));
        let (flag, dir) = (Arc::clone(&stop), dir.to_path_buf());
        let thread = std::thread::spawn(move || {
            let scan = || {
                let mut files = BTreeMap::new();
                for sub in ["", "runs", "wal"] {
                    list(&dir.join(sub), &mut files);
                }
                files
            };
            let at_start = scan();
            let mut seen = DirSeen::default();
            // SeqCst: the flag orders nothing else, so the default is fine.
            while !flag.load(Ordering::SeqCst) {
                for (name, len) in scan() {
                    if name.starts_with("wal-") {
                        seen.wal_segments.insert(name.clone());
                    }
                    if !at_start.contains_key(&name) {
                        seen.new_files.insert(name, len);
                    }
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            let at_end = scan();
            seen.wal_segments.retain(|name| !at_end.contains_key(name));
            seen
        });
        DirWatch { stop, thread }
    }

    fn finish(self) -> DirSeen {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("directory watcher panicked")
    }
}

/// The traced run. Phase A is the same HTTP window with client-side spans
/// on every other pass over the schedule, and `/metrics` scraped before and
/// after. Phase B replays the distinct requests single-threaded through the
/// functions the server itself calls.
fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut fx = setup(opts, 0)?;
    let addr = fx.server.addr;
    let settled = settle(&mut fx, opts.seconds);
    let before = Scrape::take(addr)?;
    let watch = fx.durable.as_ref().map(|d| DirWatch::start(&d.path));
    let w = window(&fx, opts.seconds, Some(origin));
    let seen = watch.map(DirWatch::finish).unwrap_or_default();
    let after = Scrape::take(addr)?;

    let mut null_ns: Vec<f64> = (0..NULL_REQUESTS)
        .filter_map(|_| client::exchange(addr, &client::get("/healthz"), &mut Vec::new()).ok())
        .map(|r| (r.done - r.started).as_nanos() as f64)
        .collect();
    let probe =
        if fx.durable.is_none() { update_probe(&fx, opts)?.0 } else { ClientLog::default() };

    let (attempted, wrong) =
        tally(settled.iter().flat_map(|l| &l.ops).chain(w.ops()).chain(&probe.ops));
    let facts = facts(&fx, opts);
    let disk_bytes = fx.durable.as_ref().map_or(0, |d| dir_bytes(&d.path));
    let (_, lost, recovery) =
        stop_and_verify(fx.server, fx.durable.as_ref(), settled.iter().chain(&w.logs))?;
    let failed = wrong + lost;

    // Phase B, after the server is gone so nothing else runs.
    let mut rec = Recorder::new(origin, 99);
    let mut b = layers::replay(&fx.snapshot, &fx.plan, &fx.requests, opts, &mut rec)?;

    let mut m = std::mem::take(&mut b.metrics);
    let mut put = |name: &'static str, value: f64, n: f64| {
        m.insert(name, Value { value, n: n as u64 });
    };
    let delta = |path: &[&str]| after.num(path) - before.num(path);

    // Client-side spans of the traced window, query clients only.
    let query_spans: Vec<Span> = (w.logs.iter().zip(&fx.plan.clients))
        .filter(|(_, plan)| matches!(plan, ClientPlan::Cycle(_)))
        .flat_map(|(log, _)| log.spans.iter().cloned())
        .collect();
    let totals = spans::totals(&query_spans);
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let requests = of("request").count as f64;
    let body_mb: f64 =
        w.verified(false).filter(|op| op.traced).map(|op| op.body_bytes as f64 / 1e6).sum();
    put(
        "server.read_body_mb_per_s",
        stats::ratio(body_mb, of("read_body").total_ns as f64 / 1e9),
        requests,
    );
    let hash_ns: u64 = w.logs.iter().map(|l| l.hash_ns).sum();
    let all_requests = w.ops().count();
    put(
        "loadgen.verify_ns_per_request",
        stats::ratio(hash_ns as f64, all_requests as f64),
        all_requests as f64,
    );
    // Traced against untraced passes of the same window: what recording
    // spans adds to a request, as a share of its latency.
    let slowdown = stats::ratio(w.mean_ns(false, Some(true)), w.mean_ns(false, Some(false)));
    put("trace.overhead_pct", 100.0 * (slowdown - 1.0), w.verified(false).count() as f64);
    put("server.null_request_ns", stats::median(&mut null_ns).unwrap_or(0.0), null_ns.len() as f64);

    // Layer sum against the wall time of a query request. Means, not
    // medians: means of parts add up to the mean of the whole.
    let wall_ns = w.mean_ns(false, None);
    let lookups = delta(&["plan_cache", "hits"]) + delta(&["plan_cache", "misses"]);
    let query_layers = b.query_layers(stats::ratio(delta(&["plan_cache", "misses"]), lookups));
    let layer_ns: f64 = query_layers.iter().map(|(_, ns)| ns).sum();
    let (share, rest) = stats::reconcile(wall_ns, layer_ns);
    put("server.layer_sum_share", share, requests);
    put("server.unaccounted_share", rest, requests);
    put("server.overhead_ns_per_request", wall_ns - layer_ns, requests);

    // The server's own counters over the window.
    put(
        "server.plan_cache.hit_ratio",
        stats::ratio(delta(&["plan_cache", "hits"]), lookups),
        lookups,
    );
    put(
        "server.plan_cache.stale_ratio",
        stats::ratio(delta(&["plan_cache", "stale"]), lookups),
        lookups,
    );
    put("server.rejected_503", delta(&["queries", "rejected"]), lookups);
    put("server.timeouts_408", delta(&["queries", "cancelled"]), lookups);
    put("store.levels_at_end", after.num(&["store", "levels"]), 1.0);
    let compactions = delta(&["store", "compactions"]);
    put("store.compact.runs", compactions, 1.0);
    let updates = delta(&["updates", "updates_total"]);
    put(
        "wal.fsyncs_per_update",
        stats::ratio(delta(&["latency", "wal_fsync", "count"]), updates),
        updates,
    );

    // What the directory watcher saw (durable_rw only; zeros elsewhere).
    let checkpoints = seen.new_files.keys().filter(|n| n.starts_with("manifest-")).count() as f64;
    put("store.checkpoint.runs", checkpoints, 1.0);
    let written: u64 =
        seen.new_files.iter().filter(|(n, _)| !n.starts_with("wal-")).map(|(_, len)| len).sum();
    put("store.checkpoint.bytes_written", written as f64, checkpoints);
    put("wal.segments_retired", seen.wal_segments.len() as f64, 1.0);
    put(
        "store.disk_bytes_per_triple",
        stats::ratio(disk_bytes as f64, after.num(&["triples"])),
        1.0,
    );
    let busy_ns = checkpoints * b.checkpoint_ns_per_run + compactions * b.compact_ns_per_run;
    put("store.maintenance.busy_share", stats::ratio(busy_ns / 1e9, w.elapsed_s), 1.0);

    // Set-up, as this run paid it once.
    put("store.build.triples_per_s", stats::ratio(fx.snapshot.len() as f64, fx.times.build_s), 1.0);
    put("loadgen.reference_s", fx.times.reference_s, fx.requests.len() as f64);
    put("store.open.s", fx.times.open_s, 1.0);
    put("store.recovery.s", recovery.seconds, 1.0);
    put("store.recovery.wal_records_replayed", recovery.wal_records_replayed, 1.0);

    let mut all_spans: Vec<Span> = w.logs.iter().flat_map(|l| l.spans.iter().cloned()).collect();
    all_spans.append(&mut rec.spans);
    let trace_path = opts.out_dir.join(format!("{}.trace.json", opts.workload.name()));
    std::fs::write(&trace_path, spans::chrome_trace(&all_spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!("trace: {} spans in {}", all_spans.len(), trace_path.display());
    let update =
        (!b.update_layers.is_empty()).then(|| (b.update_layers.as_slice(), w.mean_ns(true, None)));
    layers::print_shares(&totals, &query_layers, wall_ns, update);
    Ok(Outcome { attempted, failed, metrics: m, exact: b.exact, facts })
}
