//! `sparql-uo` — command-line front end for the SPARQL-UO engine.
//!
//! ```text
//! sparql-uo load   <data.{nt,ttl}> --out <store.uost>
//! sparql-uo stats  <data.{nt,ttl,uost}>
//! sparql-uo query  <data.{nt,ttl,uost}> (--query <file> | --text <sparql>)
//!                  [--strategy base|tt|cp|full] [--engine wco|binary|lbr]
//!                  [--threads N] [--explain] [--profile] [--check-wd]
//!                  [--limit-print N]
//! sparql-uo explain <data.{nt,ttl,uost}> (--query <file> | --text <sparql>)
//!                  [--analyze] [--json] [--strategy …] [--engine wco|binary]
//!                  [--threads N]
//! sparql-uo trace  <data.{nt,ttl,uost}> (--query <file> | --text <sparql>)
//!                  [--out <trace.json>] [--strategy …] [--engine wco|binary]
//!                  [--threads N]
//! sparql-uo serve  <data.{nt,ttl,uost}> [--port N] [--threads K]
//!                  [--engine wco|binary] [--strategy base|tt|cp|full]
//!                  [--engine-threads N] [--cache N] [--max-inflight N]
//!                  [--timeout-ms N] [--host ADDR] [--writable] [--fan-in N]
//!                  [--data-dir DIR] [--fsync always|never|N]
//!                  [--page-cache-mb N] [--trace] [--trace-buffer N]
//! sparql-uo recover <data-dir> [--out <store.uost>] [--page-cache-mb N]
//! sparql-uo compact <data-dir> [--page-cache-mb N]
//! sparql-uo gen    lubm|dbpedia [--scale N] --out <file.nt>
//! ```
//!
//! `query --profile` and `explain --analyze` run the query with the
//! operator profiler on (EXPLAIN ANALYZE): each operator reports its wall
//! time and *actual* output cardinality next to the optimizer's estimate
//! (annotated by the `full` strategy). `explain --analyze --json` emits
//! the same machine-readable profile document the server attaches under
//! `?profile=1` (see `docs/OBSERVABILITY.md`); a bare `explain` prints the
//! optimized plan without executing it.
//!
//! `trace` runs one query with the structured span recorder on and emits
//! the resulting **Chrome trace-event JSON** (loadable in Perfetto or
//! `chrome://tracing`): one span per phase — parse, optimize, execute,
//! serialize — under a root `query` span, each annotated with its key
//! numbers. `serve --trace` arms the same recorder server-wide (connection
//! lifecycle, commit pipeline, WAL appends/fsyncs, background maintenance,
//! recovery); the live buffer is exported at `GET /stats/trace` and capped
//! at `--trace-buffer` events (see `docs/OBSERVABILITY.md`).
//!
//! `serve --writable --data-dir DIR` turns on **durability**: every
//! acknowledged update is journaled (write-ahead log, fsynced per
//! `--fsync`) before its snapshot is published, and a restart recovers
//! newest-checkpoint + log-tail. Checkpoints are **incremental**: only run
//! files new since the previous checkpoint are written, and recovery pages
//! them in lazily through a cache capped at `--page-cache-mb`. `recover`
//! and `compact` operate on such a directory offline; `compact` also folds
//! the tiered run stack into a single level.
//!
//! `--threads N` sets the worker count for store building and query
//! evaluation (`1` forces sequential execution); for `serve` it sets the
//! connection-worker pool size. When the flag is absent, the `UO_THREADS`
//! environment variable is consulted once at startup as a fallback. The
//! explicit count is plumbed through `Parallelism`/engine constructors —
//! the CLI never mutates process-global environment state, which would be
//! racy once the multi-threaded server is running. Parallel runs return
//! results bit-identical to sequential ones.
//!
//! Argument parsing is hand-rolled to keep the dependency set minimal.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use uo_core::{prepare, IdRun, Parallelism, Profiler, ResultSet, Strategy};
use uo_engine::{BgpEngine, BinaryJoinEngine, WcoEngine};
use uo_rdf::{Dictionary, Id, Term};
use uo_sparql::{ResultFormat, ResultWriter};
use uo_store::Snapshot;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  sparql-uo load   <data.{nt,ttl}> --out <store.uost>
  sparql-uo stats  <data.{nt,ttl,uost}>
  sparql-uo query  <data.{nt,ttl,uost}> (--query <file> | --text <sparql>)
                   [--strategy base|tt|cp|full] [--engine wco|binary|lbr]
                   [--threads N] [--explain] [--profile] [--check-wd]
                   [--limit-print N]
  sparql-uo explain <data.{nt,ttl,uost}> (--query <file> | --text <sparql>)
                   [--analyze] [--json] [--strategy base|tt|cp|full]
                   [--engine wco|binary] [--threads N]
  sparql-uo update <data.{nt,ttl,uost}> (--query <file> | --text <update>)
                   [--out <store.uost>] [--threads N]
  sparql-uo trace  <data.{nt,ttl,uost}> (--query <file> | --text <sparql>)
                   [--out <trace.json>] [--strategy base|tt|cp|full]
                   [--engine wco|binary] [--threads N]
  sparql-uo serve  <data.{nt,ttl,uost}> [--port N] [--threads K] [--writable]
                   [--engine wco|binary] [--strategy base|tt|cp|full]
                   [--engine-threads N] [--cache N] [--max-inflight N]
                   [--timeout-ms N] [--host ADDR] [--fan-in N]
                   [--slow-query-ms N] [--data-dir DIR]
                   [--fsync always|never|N] [--checkpoint-every N]
                   [--checkpoint-interval-ms N] [--page-cache-mb N]
                   [--trace] [--trace-buffer N]
  sparql-uo recover <data-dir> [--out <store.uost>] [--threads N]
                   [--page-cache-mb N]
  sparql-uo compact <data-dir> [--fsync always|never|N] [--threads N]
                   [--page-cache-mb N]
  sparql-uo gen    lubm|dbpedia [--scale N] --out <file.nt>

  --threads N: worker count (1 = sequential; default: env UO_THREADS, else all cores)
  query --profile / explain --analyze execute with the operator profiler on
  and print per-operator wall time plus actual vs estimated cardinality;
  explain --analyze --json emits the profile JSON document, and a bare
  explain prints the optimized plan without executing.
  serve --slow-query-ms N logs queries at or over N ms to stderr and to the
  ring served at GET /stats/slow (off by default).
  trace runs one query with the span recorder on and writes Chrome
  trace-event JSON (--out FILE, else stdout) for chrome://tracing/Perfetto;
  serve --trace records spans server-wide (connections, commits, WAL
  fsyncs, maintenance, recovery), served at GET /stats/trace and bounded
  by --trace-buffer events (default 65536, oldest dropped).
  update applies INSERT DATA / DELETE DATA / DELETE WHERE and prints the
  commit report; --out persists the resulting snapshot (format v2, epoch).
  serve --writable additionally accepts POST /update on the endpoint;
  --fan-in N folds the tiered run stack in the background once it is N
  levels deep (default 8, 0 disables).
  serve --writable --data-dir journals every update to a write-ahead log
  before acknowledging it (crash-safe by default: --fsync always); on
  restart the directory's newest checkpoint + log tail are recovered,
  checkpoint run files are paged in lazily through a cache capped at
  --page-cache-mb (default 64), and the positional data file only seeds a
  fresh, empty directory.
  recover replays a data-dir and reports (or exports) the durable state;
  compact additionally folds the run stack into one level, writes a fresh
  incremental checkpoint and retires covered log segments.";

/// The worker-count policy for this invocation: the explicit `--threads`
/// flag wins; the `UO_THREADS` environment knob is read once as a fallback.
fn parallelism(args: &[String]) -> Result<Parallelism, String> {
    match flag_value(args, "--threads") {
        Some(n) => {
            let n: usize = n.parse().map_err(|_| format!("--threads: invalid count '{n}'"))?;
            if n == 0 {
                return Err("--threads: count must be at least 1".into());
            }
            Ok(Parallelism::new(n))
        }
        None => Ok(Parallelism::from_env()),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let par = parallelism(args)?;
    match args.first().map(String::as_str) {
        Some("load") => cmd_load(&args[1..], par),
        Some("stats") => cmd_stats(&args[1..], par),
        Some("query") => cmd_query(&args[1..], par),
        Some("explain") => cmd_explain(&args[1..], par),
        Some("update") => cmd_update(&args[1..], par),
        Some("trace") => cmd_trace(&args[1..], par),
        Some("serve") => cmd_serve(&args[1..], par),
        Some("recover") => cmd_recover(&args[1..], par),
        Some("compact") => cmd_compact(&args[1..], par),
        Some("gen") => cmd_gen(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("no command given".into()),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Loads a `.uost` snapshot, or bulk-builds one at epoch 1 from an
/// N-Triples or Turtle document.
fn load_store(path_str: &str, par: Parallelism) -> Result<Arc<Snapshot>, String> {
    let path = Path::new(path_str);
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let t0 = Instant::now();
    let store = if ext == "uost" {
        uo_store::load_from_file(path).map_err(|e| e.to_string())?.snapshot()
    } else {
        let doc = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let mut dict = Dictionary::new();
        let mut rows: Vec<[Id; 3]> = Vec::new();
        let mut emit = |s: Term, p: Term, o: Term| {
            rows.push([dict.encode(&s), dict.encode(&p), dict.encode(&o)]);
        };
        match ext {
            "ttl" | "turtle" => {
                uo_rdf::turtle::parse_turtle_each(&doc, &mut emit).map_err(|e| e.to_string())?
            }
            _ => uo_rdf::ntriples::parse_document_each(&doc, emit).map_err(|e| e.to_string())?,
        };
        Arc::new(Snapshot::build_from(Arc::new(dict), rows, 1, par))
    };
    eprintln!("loaded {} triples from {path_str} in {:.2?}", store.len(), t0.elapsed());
    Ok(store)
}

fn cmd_load(args: &[String], par: Parallelism) -> Result<(), String> {
    let input = args.first().ok_or("load: missing input file")?;
    let out = flag_value(args, "--out").ok_or("load: missing --out <store.uost>")?;
    let store = load_store(input, par)?;
    let t0 = Instant::now();
    uo_store::save_to_file(&store, Path::new(out)).map_err(|e| e.to_string())?;
    eprintln!("snapshot written to {out} in {:.2?}", t0.elapsed());
    Ok(())
}

fn cmd_stats(args: &[String], par: Parallelism) -> Result<(), String> {
    let input = args.first().ok_or("stats: missing input file")?;
    let store = load_store(input, par)?;
    let s = store.stats();
    println!("triples:    {}", s.triples);
    println!("entities:   {}", s.entities);
    println!("predicates: {}", s.predicates);
    println!("literals:   {}", s.literals);
    Ok(())
}

fn parse_strategy(args: &[String]) -> Result<Strategy, String> {
    match flag_value(args, "--strategy").unwrap_or("full") {
        "base" => Ok(Strategy::Base),
        "tt" | "TT" => Ok(Strategy::TreeTransform),
        "cp" | "CP" => Ok(Strategy::CandidatePruning),
        "full" => Ok(Strategy::Full),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

/// One CLI query run: the optimized plan, the answer as id rows, and the
/// EXPLAIN ANALYZE document the server attaches under `?profile=1` (cache
/// outcome `bypass` — the CLI has no plan cache).
struct Analyzed<'a> {
    prepared: uo_core::Prepared,
    transforms: uo_core::TransformOutcome,
    run: IdRun<'a>,
    profile: uo_core::QueryProfile,
}

/// Parses, optimizes and executes `text`; with `profiler` on the profile
/// carries the operator span tree.
fn run_analyzed<'a>(
    store: &'a Snapshot,
    engine: &dyn BgpEngine,
    text: &str,
    strategy: Strategy,
    par: Parallelism,
    profiler: Profiler,
) -> Result<Analyzed<'a>, String> {
    let t_total = Instant::now();
    let t_parse = Instant::now();
    let parsed = uo_sparql::parse(text).map_err(|e| e.to_string())?;
    let parse_nanos = t_parse.elapsed().as_nanos() as u64;
    let qtype = uo_core::query_type(&parsed.body);
    let mut prepared = uo_core::prepare_parsed(store, parsed);
    let (transforms, optimize_time) =
        uo_core::optimize_prepared(store, engine, &mut prepared, strategy);
    let run = uo_core::try_execute_ids(
        store,
        engine,
        &prepared,
        strategy,
        par,
        &uo_core::Cancellation::none(),
        profiler,
    )
    .expect("execution without a cancellation token cannot be cancelled");
    let profile = uo_core::QueryProfile {
        engine: engine.name().to_string(),
        strategy: strategy.label().to_string(),
        threads: run.threads,
        query_type: qtype.to_string(),
        parse_nanos,
        cache: uo_core::CacheOutcome::Bypass,
        optimize_nanos: optimize_time.as_nanos() as u64,
        execute_nanos: run.wall_nanos,
        total_nanos: t_total.elapsed().as_nanos() as u64,
        rows: run.rows.len() as u64,
        rows_enumerated: run.exec_stats.rows_enumerated,
        short_circuit: run.exec_stats.short_circuit,
        root: run.op_profile.clone(),
    };
    Ok(Analyzed { prepared, transforms, run, profile })
}

/// Renders an operator span tree as indented text: one line per operator
/// with wall time, actual rows, and the optimizer's estimate when present.
fn render_op_tree(op: &uo_core::OpProfile, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let detail = if op.detail.is_empty() { String::new() } else { format!(" [{}]", op.detail) };
    let est = match op.est_rows {
        Some(e) => format!("  est={e:.1}"),
        None => String::new(),
    };
    out.push_str(&format!(
        "{pad}{}{detail}  rows={}{est}  wall={:.3}ms\n",
        op.op,
        op.rows,
        op.wall_nanos as f64 / 1e6,
    ));
    for child in &op.children {
        render_op_tree(child, indent + 1, out);
    }
}

/// Prints the human-readable EXPLAIN ANALYZE report: phase summary line
/// plus the operator tree.
fn print_analyze(profile: &uo_core::QueryProfile) {
    eprintln!(
        "--- explain analyze ({}/{}, {} thread(s)) ---",
        profile.engine, profile.strategy, profile.threads
    );
    eprintln!(
        "{} query, {} rows ({} enumerated{}) | parse {:.3}ms | optimize {:.3}ms | execute {:.3}ms | total {:.3}ms",
        profile.query_type,
        profile.rows,
        profile.rows_enumerated,
        if profile.short_circuit { ", short-circuit" } else { "" },
        profile.parse_nanos as f64 / 1e6,
        profile.optimize_nanos as f64 / 1e6,
        profile.execute_nanos as f64 / 1e6,
        profile.total_nanos as f64 / 1e6,
    );
    if let Some(root) = &profile.root {
        let mut out = String::new();
        render_op_tree(root, 0, &mut out);
        eprint!("{out}");
    }
}

/// `sparql-uo explain`: print the optimized plan; with `--analyze`,
/// execute the query under the profiler and report per-operator wall time
/// and actual vs estimated cardinality (`--json` for the machine-readable
/// profile document).
fn cmd_explain(args: &[String], par: Parallelism) -> Result<(), String> {
    let input = args.first().ok_or("explain: missing data file")?;
    let text = match (flag_value(args, "--query"), flag_value(args, "--text")) {
        (Some(f), _) => std::fs::read_to_string(f).map_err(|e| e.to_string())?,
        (None, Some(t)) => t.to_string(),
        (None, None) => return Err("explain: need --query <file> or --text <sparql>".into()),
    };
    let strategy = parse_strategy(args)?;
    let engine: Box<dyn BgpEngine> = match flag_value(args, "--engine").unwrap_or("wco") {
        "wco" => Box::new(WcoEngine::with_threads(par.threads())),
        "binary" => Box::new(BinaryJoinEngine::with_threads(par.threads())),
        other => return Err(format!("unknown engine '{other}' (explain supports wco|binary)")),
    };
    let store = load_store(input, par)?;
    if has_flag(args, "--analyze") {
        let Analyzed { profile, .. } =
            run_analyzed(&store, engine.as_ref(), &text, strategy, par, Profiler::on())?;
        if has_flag(args, "--json") {
            println!("{}", profile.to_json());
        } else {
            print_analyze(&profile);
        }
        return Ok(());
    }
    // Static explain: optimize only, never execute.
    let mut prepared = prepare(&store, &text).map_err(|e| e.to_string())?;
    let (transforms, optimize_time) =
        uo_core::optimize_prepared(&store, engine.as_ref(), &mut prepared, strategy);
    eprintln!(
        "--- plan ({} merges, {} injects, optimized in {:.2?}) ---",
        transforms.merges, transforms.injects, optimize_time
    );
    print!("{}", uo_core::betree::explain(&prepared.tree, &prepared.vars, store.dictionary()));
    Ok(())
}

fn cmd_query(args: &[String], par: Parallelism) -> Result<(), String> {
    let input = args.first().ok_or("query: missing data file")?;
    let text = match (flag_value(args, "--query"), flag_value(args, "--text")) {
        (Some(f), _) => std::fs::read_to_string(f).map_err(|e| e.to_string())?,
        (None, Some(t)) => t.to_string(),
        (None, None) => return Err("query: need --query <file> or --text <sparql>".into()),
    };
    let strategy = parse_strategy(args)?;
    let engine_name = flag_value(args, "--engine").unwrap_or("wco");
    let store = load_store(input, par)?;

    if has_flag(args, "--check-wd") {
        let parsed = uo_sparql::parse(&text).map_err(|e| e.to_string())?;
        let violations = uo_core::check_well_designed(&parsed.body);
        if violations.is_empty() {
            eprintln!("query is well-designed");
        } else {
            for v in &violations {
                eprintln!("warning: {v}");
            }
        }
    }

    if engine_name == "lbr" {
        let prepared = prepare(&store, &text).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let (bag, stats) = uo_lbr::evaluate_lbr(&prepared.tree, &store, prepared.vars.len());
        eprintln!(
            "LBR: {} results in {:.2?} ({} relations, {} semijoins, {} pruned)",
            bag.len(),
            t0.elapsed(),
            stats.relations,
            stats.semijoins,
            stats.semijoin_pruned
        );
        let results =
            ResultSet::project(&bag, &prepared.projection, store.dictionary(), Vec::new());
        print_results(&results, &prepared.query.projection(), args);
        return Ok(());
    }

    let engine: Box<dyn BgpEngine> = match engine_name {
        "wco" => Box::new(WcoEngine::with_threads(par.threads())),
        "binary" => Box::new(BinaryJoinEngine::with_threads(par.threads())),
        other => return Err(format!("unknown engine '{other}'")),
    };
    // One execution either way; `--profile` turns the operator profiler on
    // and prints EXPLAIN ANALYZE instead of the summary line.
    let profiled = has_flag(args, "--profile");
    let profiler = if profiled { Profiler::on() } else { Profiler::off() };
    let Analyzed { prepared, transforms, run, profile } =
        run_analyzed(&store, engine.as_ref(), &text, strategy, par, profiler)?;
    if profiled {
        print_analyze(&profile);
    } else {
        if has_flag(args, "--explain") {
            eprintln!(
                "--- plan ({} merges, {} injects) ---",
                transforms.merges, transforms.injects
            );
            eprintln!(
                "{}",
                uo_core::betree::explain(&prepared.tree, &prepared.vars, store.dictionary())
            );
        }
        eprintln!(
            "{}/{}: {} results | transform {:.2?} | exec {:.2?} | join space {:.3e} | {} thread(s)",
            engine.name(),
            strategy.label(),
            run.rows.len(),
            std::time::Duration::from_nanos(profile.optimize_nanos),
            run.exec_time,
            run.exec_stats.join_space,
            run.threads
        );
    }
    match run.ask {
        Some(verdict) => println!("{verdict}"),
        None => print_results(&run.rows, &prepared.query.projection(), args),
    }
    Ok(())
}

/// Prints the first `--limit-print` rows (default 20); only those are ever
/// turned from ids into terms.
fn print_results(results: &ResultSet<'_>, projection: &[String], args: &[String]) {
    let cap: usize = flag_value(args, "--limit-print").and_then(|v| v.parse().ok()).unwrap_or(20);
    println!("{}", projection.iter().map(|v| format!("?{v}")).collect::<Vec<_>>().join("\t"));
    for row in results.rows().take(cap) {
        let cells: Vec<String> = row
            .iter()
            .map(|&id| results.term(id).map_or_else(|| "—".into(), |t| t.to_string()))
            .collect();
        println!("{}", cells.join("\t"));
    }
    if results.len() > cap {
        println!("... ({} more rows; raise with --limit-print)", results.len() - cap);
    }
}

/// `sparql-uo update`: apply a SPARQL Update request to a dataset and
/// report the commit (optionally persisting the new snapshot).
fn cmd_update(args: &[String], par: Parallelism) -> Result<(), String> {
    let input = args.first().ok_or("update: missing data file")?;
    let text = match (flag_value(args, "--query"), flag_value(args, "--text")) {
        (Some(f), _) => std::fs::read_to_string(f).map_err(|e| e.to_string())?,
        (None, Some(t)) => t.to_string(),
        (None, None) => return Err("update: need --query <file> or --text <update>".into()),
    };
    let request = uo_sparql::parse_update(&text).map_err(|e| e.to_string())?;
    let store = load_store(input, par)?;
    let mut writer = uo_store::StoreWriter::from_snapshot(store);
    let engine = WcoEngine::with_threads(par.threads());
    let report = uo_core::run_update(&mut writer, &engine, &request, par);
    eprintln!(
        "applied {} op(s) in {:.2?}: +{} / -{} statements, {} triples at epoch {}",
        report.ops, report.exec_time, report.inserted, report.deleted, report.triples, report.epoch
    );
    if let Some(out) = flag_value(args, "--out") {
        let t0 = Instant::now();
        uo_store::save_to_file(&report.snapshot, Path::new(out)).map_err(|e| e.to_string())?;
        eprintln!("snapshot written to {out} in {:.2?}", t0.elapsed());
    }
    Ok(())
}

/// `sparql-uo trace`: execute one query with the structured span recorder
/// on and emit the Chrome trace-event JSON document (`--out FILE`, else
/// stdout). The trace carries one span per phase — parse, optimize,
/// execute, serialize — under a root `query` span, each annotated with
/// its headline numbers; load it in Perfetto or `chrome://tracing`.
fn cmd_trace(args: &[String], par: Parallelism) -> Result<(), String> {
    let input = args.first().ok_or("trace: missing data file")?;
    let text = match (flag_value(args, "--query"), flag_value(args, "--text")) {
        (Some(f), _) => std::fs::read_to_string(f).map_err(|e| e.to_string())?,
        (None, Some(t)) => t.to_string(),
        (None, None) => return Err("trace: need --query <file> or --text <sparql>".into()),
    };
    let strategy = parse_strategy(args)?;
    let engine: Box<dyn BgpEngine> = match flag_value(args, "--engine").unwrap_or("wco") {
        "wco" => Box::new(WcoEngine::with_threads(par.threads())),
        "binary" => Box::new(BinaryJoinEngine::with_threads(par.threads())),
        other => return Err(format!("unknown engine '{other}' (trace supports wco|binary)")),
    };
    let store = load_store(input, par)?;
    let tracer = uo_obs::Tracer::enabled(65_536);

    let root = tracer.start(0, "query", "query");
    let t_parse = Instant::now();
    let parsed = uo_sparql::parse(&text).map_err(|e| e.to_string())?;
    tracer.record(
        root.id,
        "query",
        "parse",
        t_parse,
        t_parse.elapsed().as_nanos() as u64,
        Vec::new,
    );
    let qtype = uo_core::query_type(&parsed.body);
    let mut prepared = uo_core::prepare_parsed(&store, parsed);
    let opt_span = tracer.start(root.id, "query", "optimize");
    let (transforms, _) =
        uo_core::optimize_prepared(&store, engine.as_ref(), &mut prepared, strategy);
    tracer.end_with(opt_span, || {
        vec![("merges", transforms.merges.to_string()), ("injects", transforms.injects.to_string())]
    });
    let exec_span = tracer.start(root.id, "query", "execute");
    let run = uo_core::try_execute_ids(
        &store,
        engine.as_ref(),
        &prepared,
        strategy,
        par,
        &uo_core::Cancellation::none(),
        Profiler::off(),
    )
    .expect("execution without a cancellation token cannot be cancelled");
    let rows = run.rows.len();
    tracer.end_with(exec_span, || {
        vec![
            ("rows", rows.to_string()),
            ("rows_enumerated", run.exec_stats.rows_enumerated.to_string()),
        ]
    });
    // The server's serialize phase: each distinct term formatted once and
    // the body counted, none of it kept.
    let ser_span = tracer.start(root.id, "query", "serialize");
    let writer = match run.ask {
        Some(verdict) => ResultWriter::ask(ResultFormat::Json, verdict),
        None => ResultWriter::select(
            ResultFormat::Json,
            &prepared.query.projection(),
            run.rows,
            &|| false,
        )
        .expect("a predicate that never fires stops nothing"),
    };
    tracer.end_with(ser_span, || {
        vec![
            ("bytes", writer.body_len().to_string()),
            ("distinct_terms", writer.distinct_terms().to_string()),
        ]
    });
    tracer.end_with(root, || vec![("type", qtype.to_string()), ("rows", rows.to_string())]);

    eprintln!(
        "{qtype} query: {rows} row(s); trace holds {} event(s) ({} dropped)",
        tracer.event_count(),
        tracer.dropped(),
    );
    let doc = tracer.to_chrome_json();
    match flag_value(args, "--out") {
        Some(out) => {
            std::fs::write(out, doc).map_err(|e| e.to_string())?;
            eprintln!("trace written to {out}");
        }
        None => println!("{doc}"),
    }
    Ok(())
}

/// Parses the durable-store knobs shared by `serve`, `recover`, `compact`.
fn parse_durable_options(args: &[String]) -> Result<uo_store::DurableOptions, String> {
    let mut opts = uo_store::DurableOptions::default();
    if let Some(v) = flag_value(args, "--fsync") {
        opts.fsync = uo_store::FsyncPolicy::parse(v).map_err(|e| format!("--fsync: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--page-cache-mb") {
        let mb: usize = v.parse().map_err(|_| format!("--page-cache-mb: invalid size '{v}'"))?;
        opts.page_cache_bytes = mb << 20;
    }
    Ok(opts)
}

/// Guards `recover`/`compact` against typo'd paths: opening a durable
/// store *creates* scaffolding (LOCK, an empty log), which would mask the
/// mistake and report a successful empty recovery.
fn require_durable_dir(dir: &str) -> Result<(), String> {
    let path = Path::new(dir);
    if !path.is_dir() {
        return Err(format!("{dir}: no such directory"));
    }
    let has_wal = path.join("wal").is_dir();
    let has_checkpoint =
        std::fs::read_dir(path).map_err(|e| e.to_string())?.filter_map(|e| e.ok()).any(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.ends_with(".uost") || name.ends_with(".uomf")
        });
    if !has_wal && !has_checkpoint {
        return Err(format!(
            "{dir}: not a durable data dir (no wal/, no manifest-*.uomf and no \
             snapshot-*.uost); a fresh dir is created by serve --writable --data-dir"
        ));
    }
    Ok(())
}

/// Opens a durable data dir (recovering checkpoint + log tail) and prints
/// the recovery report.
fn open_data_dir(
    dir: &str,
    opts: uo_store::DurableOptions,
    tracer: uo_obs::Tracer,
    par: Parallelism,
) -> Result<uo_store::DurableStore, String> {
    let t0 = Instant::now();
    let engine = WcoEngine::with_threads(par.threads());
    let ds = uo_core::open_durable_traced(Path::new(dir), opts, tracer, &engine, par)
        .map_err(|e| e.to_string())?;
    let r = ds.recovery();
    let snap = ds.snapshot();
    eprintln!(
        "recovered {dir} in {:.2?}: checkpoint epoch {}, {} journaled op(s) replayed \
         ({} row(s) sorted / {} merged), {} torn byte(s) truncated — {} triples at epoch {}",
        t0.elapsed(),
        r.checkpoint_epoch,
        r.replayed_ops,
        r.replay_rows_sorted,
        r.replay_rows_merged,
        r.truncated_bytes,
        snap.len(),
        snap.epoch(),
    );
    Ok(ds)
}

/// `sparql-uo serve`: load a dataset and expose it over the SPARQL HTTP
/// protocol until the process is killed. With `--data-dir` the endpoint is
/// durable: the directory is recovered first (the positional data file
/// only seeds a fresh directory) and, when writable, every acknowledged
/// update is journaled before it becomes visible.
fn cmd_serve(args: &[String], par: Parallelism) -> Result<(), String> {
    let input = args.first().ok_or("serve: missing data file")?;
    let port: u16 = match flag_value(args, "--port") {
        Some(p) => p.parse().map_err(|_| format!("--port: invalid port '{p}'"))?,
        None => 7878,
    };
    let num = |name: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, name) {
            Some(v) => v.parse().map_err(|_| format!("{name}: invalid count '{v}'")),
            None => Ok(default),
        }
    };
    let defaults = uo_server::ServerConfig::default();
    let engine = match flag_value(args, "--engine").unwrap_or("wco") {
        "wco" => uo_server::EngineChoice::Wco,
        "binary" => uo_server::EngineChoice::Binary,
        other => return Err(format!("unknown engine '{other}' (serve supports wco|binary)")),
    };
    let tracer = if has_flag(args, "--trace") {
        let buffer = num("--trace-buffer", 65_536)?;
        uo_obs::Tracer::enabled(buffer.max(16))
    } else {
        if flag_value(args, "--trace-buffer").is_some() {
            return Err("--trace-buffer requires --trace (nothing is recorded)".into());
        }
        uo_obs::Tracer::off()
    };
    let cfg = uo_server::ServerConfig {
        host: flag_value(args, "--host").unwrap_or("127.0.0.1").to_string(),
        threads: par.threads(),
        engine_threads: num("--engine-threads", defaults.engine_threads)?,
        engine,
        strategy: parse_strategy(args)?,
        cache_capacity: num("--cache", defaults.cache_capacity)?,
        max_inflight: num("--max-inflight", defaults.max_inflight)?,
        default_timeout_ms: num("--timeout-ms", defaults.default_timeout_ms as usize)? as u64,
        writable: has_flag(args, "--writable"),
        slow_query_ms: match flag_value(args, "--slow-query-ms") {
            Some(v) => {
                Some(v.parse().map_err(|_| format!("--slow-query-ms: invalid value '{v}'"))?)
            }
            None => defaults.slow_query_ms,
        },
        compact_fan_in: num("--fan-in", defaults.compact_fan_in)?,
        checkpoint_every: num("--checkpoint-every", defaults.checkpoint_every as usize)? as u64,
        checkpoint_interval_ms: num(
            "--checkpoint-interval-ms",
            defaults.checkpoint_interval_ms as usize,
        )? as u64,
        tracer: tracer.clone(),
        ..defaults
    };

    let handle = match flag_value(args, "--data-dir") {
        Some(dir) => {
            let mut ds = open_data_dir(dir, parse_durable_options(args)?, tracer, par)?;
            if ds.is_fresh() {
                let store = load_store(input, par)?;
                if !store.is_empty() {
                    ds.seed(store).map_err(|e| e.to_string())?;
                    eprintln!("seeded {dir} from {input} (checkpoint written)");
                }
            } else {
                eprintln!("{dir} already has durable state; ignoring the seed file {input}");
            }
            if cfg.writable {
                eprintln!(
                    "durability: fsync={}, checkpoint every {} epoch(s)",
                    ds.options().fsync,
                    cfg.checkpoint_every.max(1),
                );
                uo_server::start_durable(ds, cfg.clone(), port).map_err(|e| e.to_string())?
            } else {
                // Read-only over a recovered directory: serve the snapshot,
                // journal nothing.
                uo_server::start(ds.snapshot(), cfg.clone(), port).map_err(|e| e.to_string())?
            }
        }
        None => {
            // Durable-only flags without --data-dir would be silently
            // dead — and the operator would believe updates are journaled.
            for flag in
                ["--fsync", "--checkpoint-every", "--checkpoint-interval-ms", "--page-cache-mb"]
            {
                if flag_value(args, flag).is_some() {
                    return Err(format!("{flag} requires --data-dir (nothing is journaled)"));
                }
            }
            let store = load_store(input, par)?;
            uo_server::start(store, cfg.clone(), port).map_err(|e| e.to_string())?
        }
    };
    eprintln!(
        "serving SPARQL on http://{} ({} workers, plan cache {}, max in-flight {}, \
         timeout {} ms{}{})\nendpoints: GET/POST /sparql{}, GET /metrics (JSON or \
         Prometheus), GET /stats/plans, GET /stats/slow{}, GET /healthz — ctrl-c to stop",
        handle.addr(),
        cfg.threads,
        cfg.cache_capacity,
        cfg.max_inflight,
        cfg.default_timeout_ms,
        if cfg.writable { ", writable" } else { "" },
        if cfg.tracer.is_on() { ", tracing" } else { "" },
        if cfg.writable { ", POST /update" } else { "" },
        if cfg.tracer.is_on() { ", GET /stats/trace" } else { "" },
    );
    // Serve until the process is killed; the handle joins worker threads on
    // drop, which never happens here — parking keeps the main thread alive.
    loop {
        std::thread::park();
    }
}

/// `sparql-uo recover`: open a durable data dir, replay its log tail, and
/// report (optionally exporting the recovered snapshot).
fn cmd_recover(args: &[String], par: Parallelism) -> Result<(), String> {
    let dir = args.first().ok_or("recover: missing <data-dir>")?;
    require_durable_dir(dir)?;
    let ds = open_data_dir(dir, parse_durable_options(args)?, uo_obs::Tracer::off(), par)?;
    let w = ds.wal_stats();
    eprintln!(
        "wal: {} segment(s), {} byte(s), {} record(s), synced epoch {}",
        w.segments, w.bytes, w.records, w.synced_epoch
    );
    if let Some(out) = flag_value(args, "--out") {
        let t0 = Instant::now();
        uo_store::save_to_file(&ds.snapshot(), Path::new(out)).map_err(|e| e.to_string())?;
        eprintln!("recovered snapshot written to {out} in {:.2?}", t0.elapsed());
    }
    Ok(())
}

/// `sparql-uo compact`: recover a durable data dir, fold its tiered run
/// stack into a single level, write a fresh incremental checkpoint at the
/// current epoch, and retire fully-covered log segments.
fn cmd_compact(args: &[String], par: Parallelism) -> Result<(), String> {
    let dir = args.first().ok_or("compact: missing <data-dir>")?;
    require_durable_dir(dir)?;
    let mut ds = open_data_dir(dir, parse_durable_options(args)?, uo_obs::Tracer::off(), par)?;
    let levels_before = ds.snapshot().level_count();
    ds.compact(par).map_err(|e| e.to_string())?;
    let before = ds.wal_stats();
    let report = ds.checkpoint().map_err(|e| e.to_string())?;
    let after = ds.wal_stats();
    eprintln!(
        "compacted {} level(s) into {}; checkpoint at epoch {} ({} run file(s) written, \
         {} reused): retired {} segment(s) / {} byte(s); wal {} -> {} byte(s) in {} segment(s)",
        levels_before,
        ds.snapshot().level_count(),
        report.epoch,
        report.runs_written,
        report.runs_reused,
        report.segments_removed,
        report.bytes_removed,
        before.bytes,
        after.bytes,
        after.segments,
    );
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let which = args.first().ok_or("gen: expected 'lubm' or 'dbpedia'")?;
    let scale: f64 = flag_value(args, "--scale").and_then(|v| v.parse().ok()).unwrap_or(1.0);
    let out = flag_value(args, "--out").ok_or("gen: missing --out <file.nt>")?;
    let store = match which.as_str() {
        "lubm" => uo_datagen::generate_lubm(&uo_datagen::LubmConfig {
            universities: (scale.max(0.1) as usize).max(1),
            ..uo_datagen::LubmConfig::default()
        }),
        "dbpedia" => uo_datagen::generate_dbpedia(&uo_datagen::DbpediaConfig {
            articles: ((20_000.0 * scale) as usize).max(100),
            ..uo_datagen::DbpediaConfig::default()
        }),
        other => return Err(format!("unknown generator '{other}'")),
    };
    let t0 = Instant::now();
    let mut doc = String::new();
    for t in store.iter() {
        let d = store.dictionary();
        let (s, p, o) = (
            d.decode(t.subject).unwrap(),
            d.decode(t.predicate).unwrap(),
            d.decode(t.object).unwrap(),
        );
        doc.push_str(&format!("{s} {p} {o} .\n"));
    }
    std::fs::write(out, doc).map_err(|e| e.to_string())?;
    eprintln!("wrote {} triples to {out} in {:.2?}", store.len(), t0.elapsed());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["data.nt", "--strategy", "tt", "--explain"]);
        assert_eq!(flag_value(&args, "--strategy"), Some("tt"));
        assert!(has_flag(&args, "--explain"));
        assert!(!has_flag(&args, "--check-wd"));
        assert_eq!(flag_value(&args, "--missing"), None);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn invalid_thread_counts_rejected() {
        assert!(run(&s(&["stats", "x.nt", "--threads", "0"])).is_err());
        assert!(run(&s(&["stats", "x.nt", "--threads", "lots"])).is_err());
    }

    #[test]
    fn end_to_end_update_roundtrip() {
        let dir = std::env::temp_dir().join("uo_cli_update_test");
        std::fs::create_dir_all(&dir).unwrap();
        let nt = dir.join("mini.nt");
        std::fs::write(
            &nt,
            "<http://e/a> <http://p/link> <http://e/b> .\n<http://e/a> <http://p/name> \"A\" .\n",
        )
        .unwrap();
        let snap = dir.join("mini.uost");
        // Apply an update and persist the new snapshot.
        run(&s(&[
            "update",
            nt.to_str().unwrap(),
            "--text",
            "INSERT DATA { <http://e/b> <http://p/link> <http://e/c> } ;
             DELETE WHERE { ?x <http://p/name> ?n }",
            "--out",
            snap.to_str().unwrap(),
            "--threads",
            "1",
        ]))
        .unwrap();
        // The persisted snapshot reflects the update (2 link triples, no
        // name) and carries the bumped epoch.
        let loaded = uo_store::load_from_file(&snap).unwrap().snapshot();
        assert_eq!(loaded.len(), 2);
        assert!(loaded.epoch() >= 2);
        let name = loaded.dictionary().lookup(&uo_rdf::Term::iri("http://p/name"));
        assert!(name.is_none() || loaded.count_pattern(None, name, None) == 0);
        run(&s(&[
            "query",
            snap.to_str().unwrap(),
            "--text",
            "SELECT ?x WHERE { ?x <http://p/link> ?y }",
        ]))
        .unwrap();
        // Missing update text errors.
        assert!(run(&s(&["update", nt.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_and_compact_roundtrip() {
        let dir = std::env::temp_dir().join(format!("uo_cli_durable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data_dir = dir.join("data");
        // Build a durable store the way the server would, then drive it
        // through the CLI verbs. One-byte segments: every record rotates
        // into its own segment, so compaction has something to retire.
        let tiny_segments =
            uo_store::DurableOptions { segment_bytes: 1, ..uo_store::DurableOptions::default() };
        let apply = |range: std::ops::Range<usize>| {
            let engine = WcoEngine::sequential();
            let mut ds =
                uo_core::open_durable(&data_dir, tiny_segments, &engine, Parallelism::sequential())
                    .unwrap();
            for i in range {
                let req = uo_sparql::parse_update(&format!(
                    "INSERT DATA {{ <http://e/n{i}> <http://p/link> <http://e/hub> }}"
                ))
                .unwrap();
                uo_core::run_update_durable(&mut ds, &engine, &req, Parallelism::sequential())
                    .unwrap();
            }
        };
        apply(0..3);
        // recover --out exports exactly the journaled state.
        let out = dir.join("recovered.uost");
        run(&s(&[
            "recover",
            data_dir.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--threads",
            "1",
        ]))
        .unwrap();
        let loaded = uo_store::load_from_file(&out).unwrap().snapshot();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.epoch(), 3);
        // First compact checkpoints at epoch 3 (nothing retired yet —
        // retention wants two checkpoints). Two more updates advance the
        // epoch, then a second compact checkpoints at 5 and retires every
        // segment covered by the older checkpoint (epochs 1..=3).
        run(&s(&["compact", data_dir.to_str().unwrap(), "--threads", "1"])).unwrap();
        apply(3..5);
        run(&s(&["compact", data_dir.to_str().unwrap(), "--threads", "1"])).unwrap();
        {
            let engine = WcoEngine::sequential();
            let ds =
                uo_core::open_durable(&data_dir, tiny_segments, &engine, Parallelism::sequential())
                    .unwrap();
            assert_eq!(
                ds.wal_stats().records,
                2,
                "segments for epochs 1..=3 must be retired (4 and 5 stay as the fallback \
                 lineage over checkpoint 3), got {:?}",
                ds.wal_stats()
            );
            assert_eq!(ds.snapshot().len(), 5);
            assert_eq!(ds.snapshot().epoch(), 5);
            assert_eq!(ds.recovery().replayed_ops, 0, "newest checkpoint covers the whole log");
        }
        // After compaction the state still recovers byte-identically.
        run(&s(&["recover", data_dir.to_str().unwrap(), "--threads", "1"])).unwrap();
        // Invalid durable flags / paths error without creating scaffolding.
        assert!(run(&s(&["recover"])).is_err());
        assert!(run(&s(&["compact", data_dir.to_str().unwrap(), "--fsync", "bogus"])).is_err());
        let typo = dir.join("no-such-dir");
        assert!(run(&s(&["recover", typo.to_str().unwrap()])).is_err());
        assert!(!typo.exists(), "a typo'd recover must not create a fresh data dir");
        let not_durable = dir.join("plain");
        std::fs::create_dir_all(&not_durable).unwrap();
        assert!(run(&s(&["compact", not_durable.to_str().unwrap()])).is_err());
        // Durable-only flags without --data-dir are a hard error.
        assert!(run(&s(&["serve", "x.nt", "--writable", "--fsync", "always"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_and_profile_verbs() {
        let dir = std::env::temp_dir().join(format!("uo_cli_explain_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let nt = dir.join("mini.nt");
        std::fs::write(
            &nt,
            "<http://e/a> <http://p/link> <http://e/b> .\n<http://e/a> <http://p/name> \"A\" .\n",
        )
        .unwrap();
        let q = "SELECT ?x WHERE { { ?x <http://p/link> ?y } UNION { ?x <http://p/name> ?y } }";
        let nt = nt.to_str().unwrap();
        // Static plan, EXPLAIN ANALYZE (human + JSON), and query --profile.
        run(&s(&["explain", nt, "--text", q, "--threads", "1"])).unwrap();
        run(&s(&["explain", nt, "--text", q, "--analyze", "--threads", "1"])).unwrap();
        run(&s(&["explain", nt, "--text", q, "--analyze", "--json", "--threads", "1"])).unwrap();
        run(&s(&["query", nt, "--text", q, "--profile", "--threads", "1"])).unwrap();
        // Missing query text and unsupported engines error out.
        assert!(run(&s(&["explain", nt])).is_err());
        assert!(run(&s(&["explain", nt, "--text", q, "--engine", "lbr"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_verb_emits_chrome_trace_json() {
        let dir = std::env::temp_dir().join(format!("uo_cli_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let nt = dir.join("mini.nt");
        std::fs::write(
            &nt,
            "<http://e/a> <http://p/link> <http://e/b> .\n<http://e/a> <http://p/name> \"A\" .\n",
        )
        .unwrap();
        let out = dir.join("trace.json");
        run(&s(&[
            "trace",
            nt.to_str().unwrap(),
            "--text",
            "SELECT ?x WHERE { ?x <http://p/link> ?y }",
            "--out",
            out.to_str().unwrap(),
            "--threads",
            "1",
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&out).unwrap();
        assert!(doc.contains("\"uo-trace/1\""), "schema marker present");
        for phase in ["\"parse\"", "\"optimize\"", "\"execute\"", "\"serialize\"", "\"query\""] {
            assert!(doc.contains(phase), "trace must contain a {phase} span");
        }
        // Missing query text and the dead --trace-buffer flag error out.
        assert!(run(&s(&["trace", nt.to_str().unwrap()])).is_err());
        assert!(run(&s(&["serve", "x.nt", "--trace-buffer", "64"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_load_query_roundtrip() {
        let dir = std::env::temp_dir().join("uo_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let nt = dir.join("mini.nt");
        std::fs::write(
            &nt,
            "<http://e/a> <http://p/link> <http://e/b> .\n<http://e/a> <http://p/name> \"A\" .\n",
        )
        .unwrap();
        let snap = dir.join("mini.uost");
        run(&s(&["load", nt.to_str().unwrap(), "--out", snap.to_str().unwrap()])).unwrap();
        run(&s(&["stats", snap.to_str().unwrap()])).unwrap();
        run(&s(&[
            "query",
            snap.to_str().unwrap(),
            "--text",
            "SELECT ?x WHERE { ?x <http://p/link> ?y OPTIONAL { ?x <http://p/name> ?n } }",
            "--strategy",
            "full",
            "--explain",
            "--check-wd",
        ]))
        .unwrap();
        run(&s(&[
            "query",
            snap.to_str().unwrap(),
            "--text",
            "SELECT ?x WHERE { ?x <http://p/link> ?y }",
            "--engine",
            "lbr",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
