//! The measured perf suite and its CI regression gate.
//!
//! [`run_suite`] executes a fixed LUBM + synthetic-DBpedia workload (the
//! group-1 queries) across all four strategies and both engines, once
//! sequentially and once with the configured worker count, and records
//! wall times plus the deterministic join-space metrics. The result
//! serializes to the `BENCH_PR2.json` artifact — the schema every future
//! PR's bench trajectory builds on (see README, "Benchmarking & perf CI").
//!
//! [`check_regressions`] compares a current artifact against a checked-in
//! baseline. Sequential wall times are compared *after normalizing by the
//! median current/baseline ratio* — CI runners and developer machines
//! differ in absolute speed, but a single query regressing relative to the
//! rest of the suite shows up in its ratio. (Parallel times are recorded
//! but not gated: they scale with the host's core count per-query, which a
//! single calibration factor cannot absorb.) Deterministic metrics (result
//! counts, BGP evaluations, join space) must match exactly; they catch
//! semantic regressions that timing noise would hide.

use crate::{dbpedia_store, group1, scale};
use std::sync::Arc;
use std::time::Instant;
use uo_core::{run_query_with, Parallelism, Strategy};
use uo_datagen::Dataset;
use uo_engine::{BgpEngine, BinaryJoinEngine, WcoEngine};
use uo_json::{self as json, Json};
use uo_store::Snapshot;

/// Artifact schema identifier; bump when the layout changes.
pub const SCHEMA: &str = "uo-perf/1";

/// One (dataset, query, engine, strategy) measurement.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Dataset label ("lubm" / "dbpedia").
    pub dataset: String,
    /// The paper's query id, e.g. "q1.3".
    pub query: String,
    /// Engine name ("wco" / "binary").
    pub engine: String,
    /// Strategy label ("base" / "TT" / "CP" / "full").
    pub strategy: String,
    /// Best-of-`repeats` wall time, sequential (1 worker), in ms.
    pub wall_ms_seq: f64,
    /// Best-of-`repeats` wall time at the configured worker count, in ms.
    pub wall_ms_par: f64,
    /// Number of results (deterministic).
    pub results: usize,
    /// The run's join space `JS(Q)` (deterministic).
    pub join_space: f64,
    /// Number of BGP evaluations performed (deterministic).
    pub bgp_evals: usize,
}

/// A full suite run ready for serialization.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Worker count of the parallel measurements.
    pub threads: usize,
    /// The host's available parallelism when the suite ran.
    pub host_threads: usize,
    /// The `UO_SCALE` dataset multiplier the suite ran at.
    pub uo_scale: f64,
    /// Repeats per measurement (wall times are the minimum).
    pub repeats: usize,
    /// All measurements.
    pub entries: Vec<PerfEntry>,
}

impl PerfReport {
    /// Total sequential wall time across all entries, ms.
    pub fn total_seq_ms(&self) -> f64 {
        self.entries.iter().map(|e| e.wall_ms_seq).sum()
    }

    /// Total parallel wall time across all entries, ms.
    pub fn total_par_ms(&self) -> f64 {
        self.entries.iter().map(|e| e.wall_ms_par).sum()
    }

    /// Serializes to the `BENCH_PR2.json` layout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", SCHEMA));
        out.push_str("  \"bench\": \"perf_suite\",\n");
        out.push_str("  \"pr\": 2,\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        out.push_str(&format!("  \"uo_scale\": {},\n", json::num(self.uo_scale)));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!("  \"total_seq_ms\": {},\n", json::num(self.total_seq_ms())));
        out.push_str(&format!("  \"total_par_ms\": {},\n", json::num(self.total_par_ms())));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"query\": \"{}\", \"engine\": \"{}\", \
                 \"strategy\": \"{}\", \"wall_ms_seq\": {}, \"wall_ms_par\": {}, \
                 \"results\": {}, \"join_space\": {}, \"bgp_evals\": {}}}{}\n",
                json::escape(&e.dataset),
                json::escape(&e.query),
                json::escape(&e.engine),
                json::escape(&e.strategy),
                json::num(e.wall_ms_seq),
                json::num(e.wall_ms_par),
                e.results,
                json::num(e.join_space),
                e.bgp_evals,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn engine_pair(name: &str, threads: usize) -> (Box<dyn BgpEngine>, Box<dyn BgpEngine>) {
    match name {
        "wco" => (Box::new(WcoEngine::sequential()), Box::new(WcoEngine::with_threads(threads))),
        _ => (
            Box::new(BinaryJoinEngine::sequential()),
            Box::new(BinaryJoinEngine::with_threads(threads)),
        ),
    }
}

/// Runs the fixed workload. `threads` is the parallel worker count
/// (measurements at 1 worker are always taken as the sequential baseline);
/// wall times are best-of-`repeats`.
///
/// # Panics
/// Panics if any parallel run returns a bag that is not bit-identical to
/// the sequential run — determinism is part of the suite's contract.
pub fn run_suite(threads: usize, repeats: usize) -> PerfReport {
    let repeats = repeats.max(1);
    let datasets: Vec<(&str, Dataset, Arc<Snapshot>)> = vec![
        ("lubm", Dataset::Lubm, crate::lubm_group1()),
        ("dbpedia", Dataset::Dbpedia, dbpedia_store()),
    ];
    let mut entries = Vec::new();
    for (ds_name, dataset, store) in &datasets {
        for q in group1(*dataset) {
            for strategy in Strategy::ALL {
                for eng_name in ["wco", "binary"] {
                    let (seq_engine, par_engine) = engine_pair(eng_name, threads);
                    let mut wall_ms_seq = f64::INFINITY;
                    let mut wall_ms_par = f64::INFINITY;
                    let mut reference = None;
                    for rep in 0..repeats {
                        // `RunReport::wall_nanos` is measured by the run
                        // itself (optimize + execute) — no external timer
                        // that would also count parse and bag teardown.
                        let seq = run_query_with(
                            store,
                            seq_engine.as_ref(),
                            q.text,
                            strategy,
                            Parallelism::sequential(),
                        )
                        .unwrap_or_else(|e| panic!("{} failed to parse: {e}", q.id));
                        wall_ms_seq = wall_ms_seq.min(seq.wall_nanos as f64 / 1e6);
                        let par = run_query_with(
                            store,
                            par_engine.as_ref(),
                            q.text,
                            strategy,
                            Parallelism::new(threads),
                        )
                        .unwrap();
                        wall_ms_par = wall_ms_par.min(par.wall_nanos as f64 / 1e6);
                        if rep == 0 {
                            assert_eq!(
                                par.bag.rows, seq.bag.rows,
                                "parallel evaluation diverged on {}/{}/{}/{}",
                                ds_name, q.id, eng_name, strategy
                            );
                            reference = Some(seq);
                        }
                    }
                    let reference = reference.expect("at least one repeat ran");
                    entries.push(PerfEntry {
                        dataset: ds_name.to_string(),
                        query: q.id.to_string(),
                        engine: eng_name.to_string(),
                        strategy: strategy.label().to_string(),
                        wall_ms_seq,
                        wall_ms_par,
                        results: reference.results.len(),
                        join_space: reference.join_space,
                        bgp_evals: reference.exec_stats.bgp_evals,
                    });
                }
            }
        }
    }
    PerfReport {
        threads,
        host_threads: uo_par::default_threads(),
        uo_scale: scale(),
        repeats,
        entries,
    }
}

/// One top-k measurement: a LIMIT-bearing query executed with the row
/// budget / bounded top-k sort, against the naive
/// full-materialize-then-slice oracle.
#[derive(Debug, Clone)]
pub struct TopkEntry {
    /// Dataset label ("lubm").
    pub dataset: String,
    /// Workload query id, e.g. "tk1".
    pub query: String,
    /// Engine name ("wco" / "binary").
    pub engine: String,
    /// Strategy label ("base" / "full").
    pub strategy: String,
    /// Whether the query carries ORDER BY (bounded top-k sort path) or a
    /// plain LIMIT (row-budget early-termination path).
    pub ordered: bool,
    /// Best-of-`repeats` sequential wall time of the budgeted query, ms.
    pub wall_ms_budgeted: f64,
    /// Best-of-`repeats` sequential wall time of the naive oracle (LIMIT
    /// and OFFSET stripped, full materialization, slice applied by the
    /// harness), ms.
    pub wall_ms_naive: f64,
    /// Rows in the sliced result (deterministic).
    pub results: usize,
    /// BGP rows the budgeted run enumerated (deterministic; strictly below
    /// `rows_enumerated_full` for plain-LIMIT entries — the gate that
    /// proves work was skipped, not just timed).
    pub rows_enumerated: u64,
    /// BGP rows the naive run enumerated (deterministic).
    pub rows_enumerated_full: u64,
    /// Whether the budgeted run reported an early exit (always true here:
    /// every workload query's budget is below the full result count).
    pub short_circuit: bool,
}

/// The `BENCH_TOPK.json` artifact: LIMIT/OFFSET pushdown measured against
/// naive full materialization. Wall times are trajectory data; the
/// deterministic gates run inside [`run_topk_suite`] itself — budgeted
/// results byte-identical to the naive slice on both engines at 1/2/4
/// workers, `rows_enumerated` strictly below the naive run's for
/// plain-LIMIT entries, `short_circuit` reported everywhere.
#[derive(Debug, Clone)]
pub struct TopkReport {
    /// Worker counts the budgeted runs were verified at ({1, 2, 4}).
    pub threads: usize,
    /// Host parallelism when the suite ran.
    pub host_threads: usize,
    /// The `UO_SCALE` multiplier.
    pub uo_scale: f64,
    /// Repeats per measurement (wall times are the minimum).
    pub repeats: usize,
    /// All measurements.
    pub entries: Vec<TopkEntry>,
}

impl TopkReport {
    /// Total sequential budgeted wall time, ms.
    pub fn total_budgeted_ms(&self) -> f64 {
        self.entries.iter().map(|e| e.wall_ms_budgeted).sum()
    }

    /// Total sequential naive wall time, ms.
    pub fn total_naive_ms(&self) -> f64 {
        self.entries.iter().map(|e| e.wall_ms_naive).sum()
    }

    /// Serializes to the `BENCH_TOPK.json` layout (schema `uo-perf/1`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", SCHEMA));
        out.push_str("  \"bench\": \"perf_topk\",\n");
        out.push_str("  \"pr\": 9,\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        out.push_str(&format!("  \"uo_scale\": {},\n", json::num(self.uo_scale)));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!(
            "  \"total_budgeted_ms\": {},\n",
            json::num(self.total_budgeted_ms())
        ));
        out.push_str(&format!("  \"total_naive_ms\": {},\n", json::num(self.total_naive_ms())));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"query\": \"{}\", \"engine\": \"{}\", \
                 \"strategy\": \"{}\", \"ordered\": {}, \"wall_ms_budgeted\": {}, \
                 \"wall_ms_naive\": {}, \"results\": {}, \"rows_enumerated\": {}, \
                 \"rows_enumerated_full\": {}, \"short_circuit\": {}}}{}\n",
                json::escape(&e.dataset),
                json::escape(&e.query),
                json::escape(&e.engine),
                json::escape(&e.strategy),
                e.ordered,
                json::num(e.wall_ms_budgeted),
                json::num(e.wall_ms_naive),
                e.results,
                e.rows_enumerated,
                e.rows_enumerated_full,
                e.short_circuit,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One query of the top-k workload: the naive oracle text is
/// `base + order`, the budgeted text adds `LIMIT limit OFFSET offset`.
struct TopkQuery {
    id: &'static str,
    base: &'static str,
    order: &'static str,
    limit: usize,
    offset: usize,
}

const LUBM_PREFIX: &str = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

/// The top-k workload over the LUBM group-1 store: wide scans, an
/// expanding join and UNION fan-outs, with budgets far below the full
/// result counts — plain LIMIT exercises the row budget, ORDER BY + LIMIT
/// the bounded top-k sort (including an OFFSET past the heap's front).
fn topk_workload() -> Vec<TopkQuery> {
    vec![
        TopkQuery {
            id: "tk1-scan",
            base: "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c }",
            order: "",
            limit: 10,
            offset: 0,
        },
        TopkQuery {
            id: "tk2-join",
            base: "SELECT ?x ?c ?d WHERE { ?x ub:takesCourse ?c . ?x ub:memberOf ?d }",
            order: "",
            limit: 10,
            offset: 5,
        },
        TopkQuery {
            id: "tk3-union",
            base: "SELECT ?x ?d WHERE { { ?x ub:worksFor ?d } UNION { ?x ub:headOf ?d } }",
            order: "",
            limit: 5,
            offset: 0,
        },
        TopkQuery {
            id: "tk4-order-scan",
            base: "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c }",
            order: "ORDER BY DESC(?c) ?x",
            limit: 10,
            offset: 0,
        },
        TopkQuery {
            id: "tk5-order-union",
            base: "SELECT ?x ?d WHERE { { ?x ub:worksFor ?d } UNION { ?x ub:headOf ?d } }",
            order: "ORDER BY ?x ?d",
            limit: 5,
            offset: 5,
        },
    ]
}

/// Runs the top-k workload over the LUBM group-1 store and checks the
/// early-termination acceptance contract in-line.
///
/// # Panics
/// Panics if a budgeted run's results differ from the naive
/// full-materialize-then-slice oracle (any engine, base/full strategy,
/// 1/2/4 workers), if a plain-LIMIT entry fails to enumerate strictly
/// fewer rows than the naive run, if an ORDER BY entry's bounded sort
/// fails to report its eviction, or if `rows_enumerated`/`short_circuit`
/// vary with the worker count.
pub fn run_topk_suite(repeats: usize) -> TopkReport {
    let repeats = repeats.max(1);
    let store = crate::lubm_group1();
    let worker_counts = [1usize, 2, 4];
    let mut entries = Vec::new();
    for q in topk_workload() {
        let ordered = !q.order.is_empty();
        let naive_q = format!("{LUBM_PREFIX}{} {}", q.base, q.order);
        let budgeted_q = format!("{naive_q} LIMIT {} OFFSET {}", q.limit, q.offset);
        for strategy in [Strategy::Base, Strategy::Full] {
            for eng_name in ["wco", "binary"] {
                let mut wall_ms_naive = f64::INFINITY;
                let mut wall_ms_budgeted = f64::INFINITY;
                let mut reference: Option<(u64, bool)> = None;
                let (seq_engine, _) = engine_pair(eng_name, 1);
                let naive = run_query_with(
                    &store,
                    seq_engine.as_ref(),
                    &naive_q,
                    strategy,
                    Parallelism::sequential(),
                )
                .unwrap_or_else(|e| panic!("{} failed to parse: {e}", q.id));
                let want: Vec<_> =
                    naive.results.iter().skip(q.offset).take(q.limit).cloned().collect();
                assert!(
                    q.offset + q.limit < naive.results.len(),
                    "{}: workload budget must stay below the full result count ({})",
                    q.id,
                    naive.results.len()
                );
                for rep in 0..repeats {
                    for &workers in &worker_counts {
                        let (_, engine) = engine_pair(eng_name, workers);
                        let budgeted = run_query_with(
                            &store,
                            engine.as_ref(),
                            &budgeted_q,
                            strategy,
                            Parallelism::new(workers),
                        )
                        .unwrap();
                        assert_eq!(
                            budgeted.results, want,
                            "{}/{}/{} at {} workers: budgeted run diverged from the naive slice",
                            q.id, eng_name, strategy, workers
                        );
                        assert!(
                            budgeted.exec_stats.short_circuit,
                            "{}/{}/{}: early exit not reported",
                            q.id, eng_name, strategy
                        );
                        if ordered {
                            assert_eq!(
                                budgeted.exec_stats.rows_enumerated,
                                naive.exec_stats.rows_enumerated,
                                "{}: ORDER BY still materializes the full bag",
                                q.id
                            );
                        } else {
                            assert!(
                                budgeted.exec_stats.rows_enumerated
                                    < naive.exec_stats.rows_enumerated,
                                "{}/{}/{}: budgeted run enumerated {} rows, naive {} — \
                                 no work was skipped",
                                q.id,
                                eng_name,
                                strategy,
                                budgeted.exec_stats.rows_enumerated,
                                naive.exec_stats.rows_enumerated
                            );
                        }
                        let stats = (
                            budgeted.exec_stats.rows_enumerated,
                            budgeted.exec_stats.short_circuit,
                        );
                        match reference {
                            Some(seen) => assert_eq!(
                                seen, stats,
                                "{}: budget stats vary with the worker count",
                                q.id
                            ),
                            None => reference = Some(stats),
                        }
                        if workers == 1 {
                            wall_ms_budgeted =
                                wall_ms_budgeted.min(budgeted.wall_nanos as f64 / 1e6);
                        }
                    }
                    // Re-time the naive oracle alongside the budgeted runs
                    // so both walls see the same cache state.
                    let naive_wall = if rep == 0 {
                        naive.wall_nanos
                    } else {
                        run_query_with(
                            &store,
                            seq_engine.as_ref(),
                            &naive_q,
                            strategy,
                            Parallelism::sequential(),
                        )
                        .unwrap()
                        .wall_nanos
                    };
                    wall_ms_naive = wall_ms_naive.min(naive_wall as f64 / 1e6);
                }
                let (rows_enumerated, short_circuit) = reference.expect("at least one repeat ran");
                entries.push(TopkEntry {
                    dataset: "lubm".to_string(),
                    query: q.id.to_string(),
                    engine: eng_name.to_string(),
                    strategy: strategy.label().to_string(),
                    ordered,
                    wall_ms_budgeted,
                    wall_ms_naive,
                    results: want.len(),
                    rows_enumerated,
                    rows_enumerated_full: naive.exec_stats.rows_enumerated,
                    short_circuit,
                });
            }
        }
    }
    TopkReport {
        threads: *worker_counts.last().expect("non-empty"),
        host_threads: uo_par::default_threads(),
        uo_scale: scale(),
        repeats,
        entries,
    }
}

/// One query's profiling-on vs profiling-off measurement (sequential,
/// `full` strategy).
#[derive(Debug, Clone)]
pub struct ProfileOverheadEntry {
    /// Dataset label ("lubm" / "dbpedia").
    pub dataset: String,
    /// The paper's query id, e.g. "q1.3".
    pub query: String,
    /// Engine name ("wco" / "binary").
    pub engine: String,
    /// Best-of-`repeats` wall time with the profiler disabled, ms.
    pub wall_ms_off: f64,
    /// Best-of-`repeats` wall time with the profiler enabled, ms.
    pub wall_ms_on: f64,
    /// Result count (identical across both modes — gated).
    pub results: usize,
    /// Operator spans in the profiled run's tree.
    pub ops: usize,
}

/// The `BENCH_PR8.json` artifact: the observability layer's overhead
/// contract, measured. Every suite query executes from the same prepared
/// plan with the profiler off and on; the artifact records both wall times
/// so the trajectory shows what EXPLAIN ANALYZE costs. Timing is not gated
/// (CI noise) — the determinism gate is that both modes return identical
/// result counts and that profiling actually produced an operator tree.
#[derive(Debug, Clone)]
pub struct ProfileOverheadReport {
    /// Host parallelism when the suite ran.
    pub host_threads: usize,
    /// The `UO_SCALE` multiplier.
    pub uo_scale: f64,
    /// Repeats per measurement (wall times are the minimum).
    pub repeats: usize,
    /// All measurements.
    pub entries: Vec<ProfileOverheadEntry>,
}

impl ProfileOverheadReport {
    /// Total profiler-off wall time, ms.
    pub fn total_off_ms(&self) -> f64 {
        self.entries.iter().map(|e| e.wall_ms_off).sum()
    }

    /// Total profiler-on wall time, ms.
    pub fn total_on_ms(&self) -> f64 {
        self.entries.iter().map(|e| e.wall_ms_on).sum()
    }

    /// Suite-wide overhead of enabling the profiler, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let off = self.total_off_ms();
        if off <= 0.0 {
            return 0.0;
        }
        (self.total_on_ms() / off - 1.0) * 100.0
    }

    /// Serializes to the `BENCH_PR8.json` layout (schema `uo-perf/1`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", SCHEMA));
        out.push_str("  \"bench\": \"profile_overhead\",\n");
        out.push_str("  \"pr\": 8,\n");
        out.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        out.push_str(&format!("  \"uo_scale\": {},\n", json::num(self.uo_scale)));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!("  \"total_off_ms\": {},\n", json::num(self.total_off_ms())));
        out.push_str(&format!("  \"total_on_ms\": {},\n", json::num(self.total_on_ms())));
        out.push_str(&format!("  \"overhead_pct\": {},\n", json::num(self.overhead_pct())));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"query\": \"{}\", \"engine\": \"{}\", \
                 \"wall_ms_off\": {}, \"wall_ms_on\": {}, \"results\": {}, \"ops\": {}}}{}\n",
                json::escape(&e.dataset),
                json::escape(&e.query),
                json::escape(&e.engine),
                json::num(e.wall_ms_off),
                json::num(e.wall_ms_on),
                e.results,
                e.ops,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn count_ops(p: &uo_core::OpProfile) -> usize {
    1 + p.children.iter().map(count_ops).sum::<usize>()
}

fn execute_with_profiler(
    store: &Arc<Snapshot>,
    engine: &dyn BgpEngine,
    prepared: &uo_core::Prepared,
    profiler: uo_core::Profiler,
) -> uo_core::RunReport {
    uo_core::try_execute_prepared_profiled(
        store,
        engine,
        prepared,
        Strategy::Full,
        Parallelism::sequential(),
        &uo_core::Cancellation::none(),
        profiler,
    )
    .expect("execution without a cancellation token cannot be cancelled")
}

/// Measures the profiler's overhead: each suite query is prepared and
/// optimized once (`full` strategy), then executed sequentially with the
/// profiler off and on, best-of-`repeats` each.
///
/// # Panics
/// Panics if the two modes disagree on the result count, or if a profiled
/// run fails to produce an operator span tree — the overhead numbers would
/// be meaningless.
pub fn run_profile_overhead(repeats: usize) -> ProfileOverheadReport {
    use uo_core::Profiler;
    let repeats = repeats.max(1);
    let datasets: Vec<(&str, Dataset, Arc<Snapshot>)> = vec![
        ("lubm", Dataset::Lubm, crate::lubm_group1()),
        ("dbpedia", Dataset::Dbpedia, dbpedia_store()),
    ];
    let mut entries = Vec::new();
    for (ds_name, dataset, store) in &datasets {
        for q in group1(*dataset) {
            for eng_name in ["wco", "binary"] {
                let (engine, _) = engine_pair(eng_name, 1);
                let mut prepared = uo_core::prepare(store, q.text)
                    .unwrap_or_else(|e| panic!("{} failed to parse: {e}", q.id));
                uo_core::optimize_prepared(store, engine.as_ref(), &mut prepared, Strategy::Full);
                let mut wall_ms_off = f64::INFINITY;
                let mut wall_ms_on = f64::INFINITY;
                let mut results = None;
                let mut ops = 0;
                for _ in 0..repeats {
                    for profiler in [Profiler::off(), Profiler::on()] {
                        let report =
                            execute_with_profiler(store, engine.as_ref(), &prepared, profiler);
                        let ms = report.wall_nanos as f64 / 1e6;
                        if profiler.is_on() {
                            wall_ms_on = wall_ms_on.min(ms);
                            let root = report.op_profile.as_ref().unwrap_or_else(|| {
                                panic!("{}/{}: profiled run has no span tree", q.id, eng_name)
                            });
                            ops = count_ops(root);
                        } else {
                            wall_ms_off = wall_ms_off.min(ms);
                            assert!(report.op_profile.is_none(), "off-path must not profile");
                        }
                        match results {
                            Some(n) => assert_eq!(
                                n,
                                report.results.len(),
                                "{}/{}: profiling changed the result count",
                                q.id,
                                eng_name
                            ),
                            None => results = Some(report.results.len()),
                        }
                    }
                }
                entries.push(ProfileOverheadEntry {
                    dataset: ds_name.to_string(),
                    query: q.id.to_string(),
                    engine: eng_name.to_string(),
                    wall_ms_off,
                    wall_ms_on,
                    results: results.expect("at least one repeat ran"),
                    ops,
                });
            }
        }
    }
    ProfileOverheadReport {
        host_threads: uo_par::default_threads(),
        uo_scale: scale(),
        repeats,
        entries,
    }
}

/// One query's tracing-on vs tracing-off measurement (sequential, `full`
/// strategy).
#[derive(Debug, Clone)]
pub struct TraceOverheadEntry {
    /// Dataset label ("lubm" / "dbpedia").
    pub dataset: String,
    /// The paper's query id, e.g. "q1.3".
    pub query: String,
    /// Engine name ("wco" / "binary").
    pub engine: String,
    /// Best-of-`repeats` wall time with the span recorder disabled, ms.
    pub wall_ms_off: f64,
    /// Best-of-`repeats` wall time with the span recorder enabled, ms.
    pub wall_ms_on: f64,
    /// Result count (identical across both modes — gated).
    pub results: usize,
    /// Trace events recorded by the final traced run.
    pub events: usize,
}

/// The `BENCH_OBS_TRACE.json` artifact: the structured-tracing overhead
/// contract, measured. Every suite query executes through the same span
/// sites the server's request path uses (a root request span plus phase
/// children with annotations) with the recorder off and on; the artifact
/// records both wall times so the trajectory shows what `--trace` costs.
/// Timing is not gated (CI noise) — the determinism gate is that both
/// modes return identical result counts and that the traced runs actually
/// recorded events. The perf gate keeps gating the tracing-**off** times
/// via `BENCH.json`, so the disabled path stays the contract.
#[derive(Debug, Clone)]
pub struct TraceOverheadReport {
    /// Host parallelism when the suite ran.
    pub host_threads: usize,
    /// The `UO_SCALE` multiplier.
    pub uo_scale: f64,
    /// Repeats per measurement (wall times are the minimum).
    pub repeats: usize,
    /// All measurements.
    pub entries: Vec<TraceOverheadEntry>,
}

impl TraceOverheadReport {
    /// Total tracing-off wall time, ms.
    pub fn total_off_ms(&self) -> f64 {
        self.entries.iter().map(|e| e.wall_ms_off).sum()
    }

    /// Total tracing-on wall time, ms.
    pub fn total_on_ms(&self) -> f64 {
        self.entries.iter().map(|e| e.wall_ms_on).sum()
    }

    /// Suite-wide overhead of enabling the span recorder, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let off = self.total_off_ms();
        if off <= 0.0 {
            return 0.0;
        }
        (self.total_on_ms() / off - 1.0) * 100.0
    }

    /// Serializes to the `BENCH_OBS_TRACE.json` layout (schema `uo-perf/1`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", SCHEMA));
        out.push_str("  \"bench\": \"trace_overhead\",\n");
        out.push_str("  \"pr\": 10,\n");
        out.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        out.push_str(&format!("  \"uo_scale\": {},\n", json::num(self.uo_scale)));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!("  \"total_off_ms\": {},\n", json::num(self.total_off_ms())));
        out.push_str(&format!("  \"total_on_ms\": {},\n", json::num(self.total_on_ms())));
        out.push_str(&format!("  \"overhead_pct\": {},\n", json::num(self.overhead_pct())));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"query\": \"{}\", \"engine\": \"{}\", \
                 \"wall_ms_off\": {}, \"wall_ms_on\": {}, \"results\": {}, \"events\": {}}}{}\n",
                json::escape(&e.dataset),
                json::escape(&e.query),
                json::escape(&e.engine),
                json::num(e.wall_ms_off),
                json::num(e.wall_ms_on),
                e.results,
                e.events,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One execution through the request-path span sites: a root `request`
/// span, an `execute` child, and an annotated end — the same shape (and
/// therefore the same per-request recorder cost) as the server's
/// `handle_sparql`. Returns the result count.
fn execute_traced(
    store: &Arc<Snapshot>,
    engine: &dyn BgpEngine,
    prepared: &uo_core::Prepared,
    tracer: &uo_obs::Tracer,
) -> usize {
    let root = tracer.start(0, "server", "request");
    let exec = tracer.start(root.id, "query", "execute");
    let report = execute_with_profiler(store, engine, prepared, uo_core::Profiler::off());
    let rows = report.results.len();
    tracer.end_with(exec, || vec![("rows", rows.to_string())]);
    tracer.end_with(root, || vec![("rows", rows.to_string())]);
    rows
}

/// Measures the span recorder's overhead: each suite query is prepared and
/// optimized once (`full` strategy), then executed sequentially through
/// the request-path span sites with the recorder off and on,
/// best-of-`repeats` each.
///
/// # Panics
/// Panics if the two modes disagree on the result count, or if a traced
/// run recorded no events — the overhead numbers would be meaningless.
pub fn run_trace_overhead(repeats: usize) -> TraceOverheadReport {
    let repeats = repeats.max(1);
    let datasets: Vec<(&str, Dataset, Arc<Snapshot>)> = vec![
        ("lubm", Dataset::Lubm, crate::lubm_group1()),
        ("dbpedia", Dataset::Dbpedia, dbpedia_store()),
    ];
    let mut entries = Vec::new();
    for (ds_name, dataset, store) in &datasets {
        for q in group1(*dataset) {
            for eng_name in ["wco", "binary"] {
                let (engine, _) = engine_pair(eng_name, 1);
                let mut prepared = uo_core::prepare(store, q.text)
                    .unwrap_or_else(|e| panic!("{} failed to parse: {e}", q.id));
                uo_core::optimize_prepared(store, engine.as_ref(), &mut prepared, Strategy::Full);
                let mut wall_ms_off = f64::INFINITY;
                let mut wall_ms_on = f64::INFINITY;
                let mut results = None;
                let mut events = 0;
                for _ in 0..repeats {
                    for on in [false, true] {
                        let tracer = if on {
                            uo_obs::Tracer::enabled(65_536)
                        } else {
                            uo_obs::Tracer::off()
                        };
                        let t0 = Instant::now();
                        let rows = execute_traced(store, engine.as_ref(), &prepared, &tracer);
                        let ms = t0.elapsed().as_nanos() as f64 / 1e6;
                        if on {
                            wall_ms_on = wall_ms_on.min(ms);
                            events = tracer.event_count();
                            assert!(
                                events > 0,
                                "{}/{}: traced run recorded no events",
                                q.id,
                                eng_name
                            );
                        } else {
                            wall_ms_off = wall_ms_off.min(ms);
                            assert_eq!(tracer.event_count(), 0, "off-path must not record");
                        }
                        match results {
                            Some(n) => assert_eq!(
                                n, rows,
                                "{}/{}: tracing changed the result count",
                                q.id, eng_name
                            ),
                            None => results = Some(rows),
                        }
                    }
                }
                entries.push(TraceOverheadEntry {
                    dataset: ds_name.to_string(),
                    query: q.id.to_string(),
                    engine: eng_name.to_string(),
                    wall_ms_off,
                    wall_ms_on,
                    results: results.expect("at least one repeat ran"),
                    events,
                });
            }
        }
    }
    TraceOverheadReport {
        host_threads: uo_par::default_threads(),
        uo_scale: scale(),
        repeats,
        entries,
    }
}

/// Deterministic outcome of the durable re-run + recovery of the mixed
/// scenario (gated: recovery must be replay-exact and take the merge
/// path).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Requests journaled by the durable run.
    pub journaled_ops: usize,
    /// Records replayed when the directory was reopened.
    pub recovered_ops: usize,
    /// Delta rows sorted across every replayed commit.
    pub replay_rows_sorted: usize,
    /// Base rows merged across every replayed commit.
    pub replay_rows_merged: usize,
}

/// One deterministic outcome of the mixed read/write scenario; two runs of
/// the scenario must agree on all of it regardless of worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedOutcome {
    /// Result count of every query execution, in order.
    pub query_results: Vec<usize>,
    /// Triple count after the final commit.
    pub triples_final: usize,
    /// Epoch after the final commit.
    pub epoch_final: u64,
    /// Delta rows sorted across all commits (merge contract: stays
    /// proportional to the deltas, not the store).
    pub rows_sorted: usize,
    /// Base rows merged across all commits.
    pub rows_merged: usize,
}

/// Timings of one mixed scenario run.
#[derive(Debug, Clone)]
pub struct MixedTiming {
    /// Total wall time in queries, ms.
    pub query_ms: f64,
    /// Total wall time in updates (apply + commit), ms.
    pub update_ms: f64,
}

/// The `BENCH_UPDATE.json` artifact: a 95/5 read/write mix over the LUBM
/// store, run once sequentially and once at the configured worker count.
/// Only the deterministic fields are gated (single-core CI containers make
/// wall times pure noise); the run itself aborts if the two worker counts
/// ever disagree on a deterministic outcome.
#[derive(Debug, Clone)]
pub struct UpdatePerfReport {
    /// Worker count of the parallel measurements.
    pub threads: usize,
    /// Host parallelism when the suite ran.
    pub host_threads: usize,
    /// The `UO_SCALE` multiplier.
    pub uo_scale: f64,
    /// Best-of-`repeats` timings.
    pub repeats: usize,
    /// Scenario shape: queries per update.
    pub queries_per_update: usize,
    /// Number of update rounds.
    pub rounds: usize,
    /// The deterministic outcome (identical at every worker count).
    pub outcome: MixedOutcome,
    /// The durable re-run's recovery outcome (replay-exact, merge path).
    pub recovery: RecoveryOutcome,
    /// Sequential timings (best of repeats).
    pub seq: MixedTiming,
    /// Parallel timings at `threads` workers (best of repeats).
    pub par: MixedTiming,
}

impl UpdatePerfReport {
    /// Serializes to the `BENCH_UPDATE.json` layout (schema `uo-perf/1`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"bench\": \"perf_update\",\n  \"pr\": 4,\n  \
             \"threads\": {},\n  \"host_threads\": {},\n  \"uo_scale\": {},\n  \
             \"repeats\": {},\n  \"queries_per_update\": {},\n  \"rounds\": {},\n  \
             \"queries_total\": {},\n  \"results_total\": {},\n  \"triples_final\": {},\n  \
             \"epoch_final\": {},\n  \"rows_sorted\": {},\n  \"rows_merged\": {},\n  \
             \"recovery\": {{\"journaled_ops\": {}, \"recovered_ops\": {}, \
             \"replay_rows_sorted\": {}, \"replay_rows_merged\": {}}},\n  \
             \"wall_ms\": {{\"query_seq\": {}, \"update_seq\": {}, \"query_par\": {}, \
             \"update_par\": {}}}\n}}\n",
            SCHEMA,
            self.threads,
            self.host_threads,
            json::num(self.uo_scale),
            self.repeats,
            self.queries_per_update,
            self.rounds,
            self.outcome.query_results.len(),
            self.outcome.query_results.iter().sum::<usize>(),
            self.outcome.triples_final,
            self.outcome.epoch_final,
            self.outcome.rows_sorted,
            self.outcome.rows_merged,
            self.recovery.journaled_ops,
            self.recovery.recovered_ops,
            self.recovery.replay_rows_sorted,
            self.recovery.replay_rows_merged,
            json::num(self.seq.query_ms),
            json::num(self.seq.update_ms),
            json::num(self.par.query_ms),
            json::num(self.par.update_ms),
        )
    }
}

/// Queries per update in the mixed scenario (a 95/5 read/write mix).
const MIXED_QUERIES_PER_UPDATE: usize = 19;
/// Update rounds in the mixed scenario.
const MIXED_ROUNDS: usize = 8;
/// Triples inserted per update round.
const MIXED_BATCH: usize = 25;

/// The write slice of round `round`: every third round cleans up via
/// DELETE WHERE, otherwise a batch insert of tagged triples.
fn mixed_update_request(round: usize) -> uo_sparql::UpdateRequest {
    if round % 3 == 2 {
        uo_sparql::parse_update("DELETE WHERE { ?s <http://upd/tag> ?o }").unwrap()
    } else {
        let mut text = String::from("INSERT DATA {\n");
        for i in 0..MIXED_BATCH {
            text.push_str(&format!(
                "<http://upd/e{round}_{i}> <http://upd/tag> <http://upd/v{i}> .\n"
            ));
        }
        text.push('}');
        uo_sparql::parse_update(&text).unwrap()
    }
}

fn run_mixed_once(store: &Arc<Snapshot>, workers: usize) -> (MixedOutcome, MixedTiming) {
    let par = Parallelism::new(workers);
    let engine = WcoEngine::with_threads(workers);
    let queries = group1(Dataset::Lubm);
    let mut writer = uo_store::StoreWriter::from_snapshot(Arc::clone(store));
    let mut outcome = MixedOutcome {
        query_results: Vec::new(),
        triples_final: 0,
        epoch_final: 0,
        rows_sorted: 0,
        rows_merged: 0,
    };
    let (mut query_ms, mut update_ms) = (0.0f64, 0.0f64);
    let mut qi = 0usize;
    for round in 0..MIXED_ROUNDS {
        let snapshot = writer.snapshot();
        for _ in 0..MIXED_QUERIES_PER_UPDATE {
            let q = &queries[qi % queries.len()];
            qi += 1;
            let t = Instant::now();
            let report = run_query_with(&snapshot, &engine, q.text, Strategy::Full, par)
                .unwrap_or_else(|e| panic!("{} failed to parse: {e}", q.id));
            query_ms += t.elapsed().as_secs_f64() * 1e3;
            outcome.query_results.push(report.results.len());
        }
        let t = Instant::now();
        let request = mixed_update_request(round);
        uo_core::run_update(&mut writer, &engine, &request, par);
        update_ms += t.elapsed().as_secs_f64() * 1e3;
        let cs = writer.last_commit();
        outcome.rows_sorted += cs.rows_sorted;
        outcome.rows_merged += cs.rows_merged;
    }
    let final_snap = writer.snapshot();
    outcome.triples_final = final_snap.len();
    outcome.epoch_final = final_snap.epoch();
    (outcome, MixedTiming { query_ms, update_ms })
}

/// Re-runs the mixed scenario's update stream through a [`DurableStore`]
/// in a throwaway directory, reopens it, and asserts the acceptance
/// contract: recovery is **replay-exact** (same triples, same epoch as the
/// in-memory reference) and the replay reuses the O(K) level-append path —
/// the per-commit [`CommitStats`](uo_store::CommitStats), plumbed through
/// replay, bound both the sorted and the merged rows by the deltas, never
/// the base.
fn run_mixed_durable_recovery(store: &Arc<Snapshot>, reference: &MixedOutcome) -> RecoveryOutcome {
    use uo_store::DurableOptions;
    let engine = WcoEngine::sequential();
    let par = Parallelism::sequential();
    let dir = std::env::temp_dir().join(format!("uo_perf_update_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = RecoveryOutcome::default();
    {
        let mut ds = uo_core::open_durable(&dir, DurableOptions::default(), &engine, par)
            .expect("open durable store");
        ds.seed(Arc::clone(store)).expect("seed durable store");
        for round in 0..MIXED_ROUNDS {
            let request = mixed_update_request(round);
            uo_core::run_update_durable(&mut ds, &engine, &request, par).expect("durable update");
        }
        outcome.journaled_ops = ds.wal_stats().records as usize;
        let live = ds.snapshot();
        assert_eq!(
            (live.len(), live.epoch()),
            (reference.triples_final, reference.epoch_final),
            "durable run diverged from the in-memory reference"
        );
    }
    let ds = uo_core::open_durable(&dir, DurableOptions::default(), &engine, par)
        .expect("reopen durable store");
    let recovered = ds.snapshot();
    assert_eq!(
        (recovered.len(), recovered.epoch()),
        (reference.triples_final, reference.epoch_final),
        "recovery is not replay-exact"
    );
    let r = ds.recovery();
    outcome.recovered_ops = r.replayed_ops;
    outcome.replay_rows_sorted = r.replay_rows_sorted;
    outcome.replay_rows_merged = r.replay_rows_merged;
    assert_eq!(outcome.recovered_ops, outcome.journaled_ops);
    // The tiered-commit contract, across recovery: replay sorts and merges
    // only delta rows (3 permutations, at most 2 commits per DELETE WHERE
    // round) — a commit appends one level and never rewrites the base.
    assert!(
        outcome.replay_rows_sorted <= MIXED_ROUNDS * 6 * MIXED_BATCH,
        "recovery replay sorted {} rows — level-append path not taken",
        outcome.replay_rows_sorted
    );
    assert!(
        outcome.replay_rows_merged <= MIXED_ROUNDS * 6 * MIXED_BATCH,
        "recovery replay merged {} rows — the base was rewritten",
        outcome.replay_rows_merged
    );
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Runs the mixed read/write scenario sequentially and at `threads`
/// workers, best-of-`repeats` timings, then once more durably (journal +
/// recover, via the private `run_mixed_durable_recovery` helper).
///
/// # Panics
/// Panics if the parallel run's deterministic outcome (every query's result
/// count, the final triple count/epoch, the commit accounting) differs from
/// the sequential run, if any commit re-sorted more rows than the deltas
/// account for, or if durable recovery is not replay-exact.
pub fn run_update_suite(threads: usize, repeats: usize) -> UpdatePerfReport {
    let repeats = repeats.max(1);
    let store = crate::lubm_group1();
    let mut reference: Option<MixedOutcome> = None;
    let best = |timings: &mut MixedTiming, t: MixedTiming| {
        timings.query_ms = timings.query_ms.min(t.query_ms);
        timings.update_ms = timings.update_ms.min(t.update_ms);
    };
    let mut seq = MixedTiming { query_ms: f64::INFINITY, update_ms: f64::INFINITY };
    let mut par = MixedTiming { query_ms: f64::INFINITY, update_ms: f64::INFINITY };
    for _ in 0..repeats {
        for (workers, slot) in [(1usize, &mut seq), (threads, &mut par)] {
            let (outcome, timing) = run_mixed_once(&store, workers);
            match &reference {
                Some(r) => assert_eq!(
                    *r, outcome,
                    "mixed scenario diverged at {workers} worker(s) — updates must be \
                     bit-deterministic"
                ),
                None => {
                    // Tiered-commit contract: commits sort and merge only
                    // delta rows. Every round touches at most MIXED_BATCH
                    // triples per index (x3 indexes, x2 commits for the
                    // flush in DELETE WHERE rounds), while the base store —
                    // orders of magnitude larger — is never rewritten.
                    assert!(
                        outcome.rows_sorted <= MIXED_ROUNDS * 6 * MIXED_BATCH,
                        "commits re-sorted {} rows — level-append path not taken",
                        outcome.rows_sorted
                    );
                    assert!(
                        outcome.rows_merged <= MIXED_ROUNDS * 6 * MIXED_BATCH,
                        "commits merged {} rows — the base was rewritten",
                        outcome.rows_merged
                    );
                    reference = Some(outcome);
                }
            }
            best(slot, timing);
        }
    }
    let outcome = reference.expect("at least one repeat ran");
    let recovery = run_mixed_durable_recovery(&store, &outcome);
    UpdatePerfReport {
        threads,
        host_threads: uo_par::default_threads(),
        uo_scale: scale(),
        repeats,
        queries_per_update: MIXED_QUERIES_PER_UPDATE,
        rounds: MIXED_ROUNDS,
        outcome,
        recovery,
        seq,
        par,
    }
}

/// One fsync policy's measurements in the WAL commit-latency scenario.
#[derive(Debug, Clone)]
pub struct WalPolicyEntry {
    /// Policy label ("always" / "every-8" / "never").
    pub fsync: String,
    /// Updates applied (= journal appends).
    pub updates: usize,
    /// Total wall time across all updates (apply + journal + fsync), ms.
    pub wall_ms_total: f64,
    /// Median per-update latency, µs.
    pub p50_us: f64,
    /// 99th-percentile per-update latency, µs.
    pub p99_us: f64,
    /// Triples after the final commit (deterministic, equal across
    /// policies).
    pub triples_final: usize,
    /// Epoch after the final commit (deterministic, equal across policies).
    pub epoch_final: u64,
    /// Records replayed when the directory was reopened (= `updates`).
    pub recovered_ops: usize,
}

/// The `BENCH_WAL.json` artifact: commit latency per fsync policy over the
/// LUBM store. Wall times are trajectory data only (single-core CI
/// containers, shared disks); the gates are determinism — every policy
/// must land on the identical final state, and reopening each directory
/// must recover it replay-exactly.
#[derive(Debug, Clone)]
pub struct WalPerfReport {
    /// Host parallelism when the suite ran.
    pub host_threads: usize,
    /// The `UO_SCALE` multiplier.
    pub uo_scale: f64,
    /// Update rounds per policy.
    pub rounds: usize,
    /// Triples inserted per update.
    pub batch: usize,
    /// One entry per fsync policy.
    pub entries: Vec<WalPolicyEntry>,
}

impl WalPerfReport {
    /// Serializes to the `BENCH_WAL.json` layout (schema `uo-perf/1`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", SCHEMA));
        out.push_str("  \"bench\": \"perf_wal\",\n");
        out.push_str("  \"pr\": 5,\n");
        out.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        out.push_str(&format!("  \"uo_scale\": {},\n", json::num(self.uo_scale)));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!("  \"batch\": {},\n", self.batch));
        out.push_str("  \"policies\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"fsync\": \"{}\", \"updates\": {}, \"wall_ms_total\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}, \"triples_final\": {}, \"epoch_final\": {}, \
                 \"recovered_ops\": {}}}{}\n",
                json::escape(&e.fsync),
                e.updates,
                json::num(e.wall_ms_total),
                json::num(e.p50_us),
                json::num(e.p99_us),
                e.triples_final,
                e.epoch_final,
                e.recovered_ops,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Measures per-update commit latency (apply + journal + fsync) under each
/// fsync policy, over a fresh durable store seeded with the LUBM fixture.
///
/// # Panics
/// Panics on any determinism violation: the policies disagreeing on the
/// final state, or a reopened directory not recovering it replay-exactly.
pub fn run_wal_suite(rounds: usize, batch: usize) -> WalPerfReport {
    use uo_store::{DurableOptions, FsyncPolicy};
    let store = crate::lubm_group1();
    let engine = WcoEngine::sequential();
    let par = Parallelism::sequential();
    let policies = [FsyncPolicy::Always, FsyncPolicy::EveryN(8), FsyncPolicy::Never];
    let mut entries = Vec::new();
    for policy in policies {
        let dir = std::env::temp_dir().join(format!(
            "uo_perf_wal_{}_{}",
            std::process::id(),
            policy.label()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurableOptions { fsync: policy, ..DurableOptions::default() };
        let mut latencies_us = Vec::with_capacity(rounds);
        let (triples_final, epoch_final) = {
            let mut ds =
                uo_core::open_durable(&dir, opts, &engine, par).expect("open durable store");
            ds.seed(Arc::clone(&store)).expect("seed durable store");
            for round in 0..rounds {
                let mut text = String::from("INSERT DATA {\n");
                for i in 0..batch {
                    text.push_str(&format!(
                        "<http://wal/e{round}_{i}> <http://wal/tag> <http://wal/v{i}> .\n"
                    ));
                }
                text.push('}');
                let request = uo_sparql::parse_update(&text).unwrap();
                let t = Instant::now();
                uo_core::run_update_durable(&mut ds, &engine, &request, par)
                    .expect("durable update");
                latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            ds.sync().expect("final sync");
            let snap = ds.snapshot();
            (snap.len(), snap.epoch())
        };
        // Determinism gate 1: reopen must recover the exact final state.
        let ds = uo_core::open_durable(&dir, opts, &engine, par).expect("reopen durable store");
        let recovered = ds.snapshot();
        assert_eq!(
            (recovered.len(), recovered.epoch()),
            (triples_final, epoch_final),
            "policy {} did not recover replay-exactly",
            policy.label()
        );
        let recovered_ops = ds.recovery().replayed_ops;
        assert_eq!(recovered_ops, rounds, "policy {}: one record per update", policy.label());
        let _ = std::fs::remove_dir_all(&dir);

        let wall_ms_total = latencies_us.iter().sum::<f64>() / 1e3;
        latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        entries.push(WalPolicyEntry {
            fsync: policy.label(),
            updates: rounds,
            wall_ms_total,
            p50_us: crate::percentile(&latencies_us, 50.0),
            p99_us: crate::percentile(&latencies_us, 99.0),
            triples_final,
            epoch_final,
            recovered_ops,
        });
    }
    // Determinism gate 2: the fsync policy must not change a single bit of
    // the committed state, only when it reaches stable storage.
    for pair in entries.windows(2) {
        assert_eq!(
            (pair[0].triples_final, pair[0].epoch_final),
            (pair[1].triples_final, pair[1].epoch_final),
            "policies {} and {} disagree on the final state",
            pair[0].fsync,
            pair[1].fsync
        );
    }
    WalPerfReport {
        host_threads: uo_par::default_threads(),
        uo_scale: scale(),
        rounds,
        batch,
        entries,
    }
}

/// Gate configuration. An entry fails the timing check only when it exceeds
/// **both** the relative tolerance and the absolute slack: short queries
/// wobble by large factors but tiny absolute amounts (scheduler noise),
/// while a real regression on a query that matters moves both.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Maximum tolerated per-query slowdown beyond the suite-wide
    /// calibration ratio (0.25 = 25%).
    pub tolerance: f64,
    /// Entries faster than this (in either artifact) are exempt from the
    /// timing check — sub-millisecond measurements are noise-dominated.
    pub min_ms: f64,
    /// Minimum absolute excess (ms) over the calibrated expectation before
    /// a relative regression counts.
    pub abs_slack_ms: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig { tolerance: 0.25, min_ms: 1.0, abs_slack_ms: 5.0 }
    }
}

fn entry_key(e: &Json) -> Option<String> {
    Some(format!(
        "{}/{}/{}/{}",
        e.get("dataset")?.as_str()?,
        e.get("query")?.as_str()?,
        e.get("engine")?.as_str()?,
        e.get("strategy")?.as_str()?
    ))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if v.is_empty() {
        1.0
    } else {
        v[v.len() / 2]
    }
}

/// Compares a current perf artifact against a baseline. Returns the list of
/// failures (empty = gate passes), or an error when the artifacts are not
/// comparable at all (schema/scale mismatch, malformed JSON values).
pub fn check_regressions(
    current: &Json,
    baseline: &Json,
    cfg: GateConfig,
) -> Result<Vec<String>, String> {
    for (label, doc) in [("current", current), ("baseline", baseline)] {
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("{label}: unsupported schema {other:?}")),
        }
    }
    let cur_scale = current.get("uo_scale").and_then(Json::as_f64).unwrap_or(1.0);
    let base_scale = baseline.get("uo_scale").and_then(Json::as_f64).unwrap_or(1.0);
    if (cur_scale - base_scale).abs() > 1e-9 {
        return Err(format!(
            "scale mismatch: current ran at UO_SCALE={cur_scale}, baseline at \
             UO_SCALE={base_scale}; re-run the suite at the baseline's scale"
        ));
    }
    let empty: Vec<Json> = Vec::new();
    let cur_entries = current.get("entries").and_then(Json::as_arr).unwrap_or(&empty);
    let base_entries = baseline.get("entries").and_then(Json::as_arr).unwrap_or(&empty);
    if base_entries.is_empty() {
        return Err("baseline has no entries".to_string());
    }

    let mut cur_by_key = std::collections::BTreeMap::new();
    for e in cur_entries {
        if let Some(k) = entry_key(e) {
            cur_by_key.insert(k, e);
        }
    }

    let mut failures = Vec::new();
    let mut ratios = Vec::new();
    let mut timed: Vec<(String, f64, f64, f64)> = Vec::new();
    for base in base_entries {
        let Some(key) = entry_key(base) else {
            return Err("baseline entry missing key fields".to_string());
        };
        let Some(cur) = cur_by_key.get(&key) else {
            failures.push(format!("{key}: present in baseline but missing from current run"));
            continue;
        };
        // Deterministic metrics must match exactly.
        for field in ["results", "bgp_evals"] {
            let b = base.get(field).and_then(Json::as_f64);
            let c = cur.get(field).and_then(Json::as_f64);
            if b != c {
                failures.push(format!("{key}: {field} changed from {b:?} to {c:?}"));
            }
        }
        let b_js = base.get("join_space").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let c_js = cur.get("join_space").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if (b_js - c_js).abs() > 1e-6 * b_js.abs().max(1.0) {
            failures.push(format!("{key}: join_space changed from {b_js} to {c_js}"));
        }
        // Timing ratio, exempting noise-dominated entries. The gate reads
        // the *sequential* wall times: machine-speed differences between
        // the baseline host and the CI runner scale them uniformly (the
        // median calibrates that away), whereas parallel times scale by
        // each query's parallelizability — comparing those across hosts
        // with different core counts would flag phantom regressions. The
        // engines share one scan/join implementation between the
        // sequential and parallel paths, so code regressions show up in
        // sequential times too; `wall_ms_par` stays in the artifact for
        // trajectory tracking.
        let b_ms = base.get("wall_ms_seq").and_then(Json::as_f64).unwrap_or(0.0);
        let c_ms = cur.get("wall_ms_seq").and_then(Json::as_f64).unwrap_or(0.0);
        if b_ms >= cfg.min_ms && c_ms >= cfg.min_ms {
            let ratio = c_ms / b_ms;
            ratios.push(ratio);
            timed.push((key, ratio, b_ms, c_ms));
        }
    }
    // Normalize by the suite-wide median ratio: machines differ in absolute
    // speed, but a genuine single-query regression sticks out of the
    // distribution.
    let calibration = median(ratios);
    for (key, ratio, b_ms, c_ms) in timed {
        let excess_ms = c_ms - b_ms * calibration;
        if ratio > calibration * (1.0 + cfg.tolerance) && excess_ms > cfg.abs_slack_ms {
            failures.push(format!(
                "{key}: wall time regressed {:.0}% / {excess_ms:.1} ms beyond the suite median \
                 (ratio {ratio:.2} vs calibration {calibration:.2}, tolerance {:.0}% and \
                 {:.1} ms)",
                (ratio / calibration - 1.0) * 100.0,
                cfg.tolerance * 100.0,
                cfg.abs_slack_ms
            ));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(entries: &[(&str, f64, f64, usize)]) -> Json {
        // (query, wall_ms_par, join_space, results)
        let body: Vec<String> = entries
            .iter()
            .map(|(q, ms, js, n)| {
                format!(
                    "{{\"dataset\": \"lubm\", \"query\": \"{q}\", \"engine\": \"wco\", \
                     \"strategy\": \"full\", \"wall_ms_seq\": {ms}, \"wall_ms_par\": {ms}, \
                     \"results\": {n}, \"join_space\": {js}, \"bgp_evals\": 3}}"
                )
            })
            .collect();
        json::parse(&format!(
            "{{\"schema\": \"{SCHEMA}\", \"uo_scale\": 1, \"entries\": [{}]}}",
            body.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact(&[("q1.1", 10.0, 100.0, 5), ("q1.2", 20.0, 200.0, 7)]);
        let failures = check_regressions(&a, &a, GateConfig::default()).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn uniform_slowdown_is_calibrated_away() {
        let base = artifact(&[("q1.1", 10.0, 100.0, 5), ("q1.2", 20.0, 200.0, 7)]);
        // A 3x-slower machine: every entry scales equally.
        let cur = artifact(&[("q1.1", 30.0, 100.0, 5), ("q1.2", 60.0, 200.0, 7)]);
        let failures = check_regressions(&cur, &base, GateConfig::default()).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn single_query_regression_fails() {
        let base =
            artifact(&[("q1.1", 10.0, 100.0, 5), ("q1.2", 20.0, 200.0, 7), ("q1.3", 5.0, 1.0, 1)]);
        let cur =
            artifact(&[("q1.1", 10.0, 100.0, 5), ("q1.2", 80.0, 200.0, 7), ("q1.3", 5.0, 1.0, 1)]);
        let failures = check_regressions(&cur, &base, GateConfig::default()).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("q1.2"));
    }

    #[test]
    fn semantic_changes_fail_regardless_of_timing() {
        let base = artifact(&[("q1.1", 10.0, 100.0, 5)]);
        let cur = artifact(&[("q1.1", 10.0, 400.0, 6)]);
        let failures = check_regressions(&cur, &base, GateConfig::default()).unwrap();
        assert_eq!(failures.len(), 2, "join_space and results both flagged: {failures:?}");
    }

    #[test]
    fn missing_entry_fails() {
        let base = artifact(&[("q1.1", 10.0, 100.0, 5), ("q1.2", 20.0, 200.0, 7)]);
        let cur = artifact(&[("q1.1", 10.0, 100.0, 5)]);
        let failures = check_regressions(&cur, &base, GateConfig::default()).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"));
    }

    #[test]
    fn scale_mismatch_is_an_error() {
        let base = artifact(&[("q1.1", 10.0, 100.0, 5)]);
        let mut doc = base.clone();
        if let Json::Obj(m) = &mut doc {
            m.insert("uo_scale".to_string(), Json::Num(2.0));
        }
        assert!(check_regressions(&doc, &base, GateConfig::default()).is_err());
    }

    #[test]
    fn small_absolute_wobble_is_within_slack() {
        // 3 ms → 4.6 ms is a 53% relative jump but only 1.6 ms of excess:
        // scheduler noise, not a regression.
        let base = artifact(&[
            ("q1.1", 3.0, 100.0, 5),
            ("q1.2", 50.0, 200.0, 7),
            ("q1.3", 30.0, 300.0, 9),
        ]);
        let cur = artifact(&[
            ("q1.1", 4.6, 100.0, 5),
            ("q1.2", 50.0, 200.0, 7),
            ("q1.3", 30.0, 300.0, 9),
        ]);
        let failures = check_regressions(&cur, &base, GateConfig::default()).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
        // The same 53% on a 50 ms query is 26 ms of excess: a real failure.
        let cur2 = artifact(&[
            ("q1.1", 3.0, 100.0, 5),
            ("q1.2", 77.0, 200.0, 7),
            ("q1.3", 30.0, 300.0, 9),
        ]);
        let failures2 = check_regressions(&cur2, &base, GateConfig::default()).unwrap();
        assert_eq!(failures2.len(), 1, "{failures2:?}");
        assert!(failures2[0].contains("q1.2"));
    }

    #[test]
    fn sub_millisecond_noise_is_exempt() {
        let base = artifact(&[("q1.1", 0.01, 100.0, 5), ("q1.2", 20.0, 200.0, 7)]);
        // q1.1 "regressed" 50x but is below the noise floor.
        let cur = artifact(&[("q1.1", 0.5, 100.0, 5), ("q1.2", 20.0, 200.0, 7)]);
        let failures = check_regressions(&cur, &base, GateConfig::default()).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn report_serializes_and_reparses() {
        let report = PerfReport {
            threads: 4,
            host_threads: 8,
            uo_scale: 0.25,
            repeats: 3,
            entries: vec![PerfEntry {
                dataset: "lubm".to_string(),
                query: "q1.1".to_string(),
                engine: "wco".to_string(),
                strategy: "full".to_string(),
                wall_ms_seq: 12.5,
                wall_ms_par: 4.5,
                results: 42,
                join_space: 1234.0,
                bgp_evals: 3,
            }],
        };
        let doc = json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(doc.get("threads").unwrap().as_f64(), Some(4.0));
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("wall_ms_par").unwrap().as_f64(), Some(4.5));
        // The artifact is self-comparable through the gate.
        let failures = check_regressions(&doc, &doc, GateConfig::default()).unwrap();
        assert!(failures.is_empty());
    }

    #[test]
    fn topk_suite_skips_work_and_serializes() {
        // The suite self-gates: any budgeted/naive divergence, missing
        // short-circuit, or worker-count-dependent stat panics inside.
        let report = run_topk_suite(1);
        // 5 workload queries x {base, full} x {wco, binary}.
        assert_eq!(report.entries.len(), 20);
        for e in &report.entries {
            assert!(e.short_circuit, "{}: no early exit recorded", e.query);
            if e.ordered {
                assert_eq!(e.rows_enumerated, e.rows_enumerated_full, "{}", e.query);
            } else {
                assert!(
                    e.rows_enumerated < e.rows_enumerated_full,
                    "{}: enumerated {} of {}",
                    e.query,
                    e.rows_enumerated,
                    e.rows_enumerated_full
                );
            }
        }
        let doc = json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("perf_topk"));
        let entries = doc.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 20);
        assert_eq!(entries[0].get("short_circuit").unwrap().as_bool(), Some(true));
    }
}
