//! Phase B of a traced run: the distinct requests of the workload replayed
//! single-threaded through the public functions the server itself calls,
//! one span per call, so every count repeats exactly. Layers are this
//! repo's crates: `uo_sparql` (parse, canonicalize, serialize), `uo_core`
//! (prepare, optimize, execute, decode, update), `uo_engine` (BGP joins,
//! estimates), `uo_store` (lookups, scans, commit, checkpoint, compaction),
//! `uo_wal` (append, fsync) and `uo_rdf` (N-Triples).

use crate::client::BodyHash;
use crate::run::{durable_options, reference_engine, Metrics, Options, Request, Value};
use crate::spans::{NameTotals, Recorder};
use crate::stats::{mean, ratio};
use crate::workloads::{ClientPlan, Plan, UpdateStream, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uo_core::{
    estimate_root_rows, open_durable, optimize_prepared, prepare_parsed, try_execute_prepared,
    try_run_update, try_run_update_durable, BeNode, BgpNode, Cancellation, GroupNode, Parallelism,
    Prepared, RunReport, Strategy,
};
use uo_engine::{BgpEngine, BinaryJoinEngine, CandidateSet, WcoEngine};
use uo_rdf::Id;
use uo_sparql::{UpdateOp, UpdateRequest};
use uo_store::{FsyncPolicy, PagedOptions, Snapshot, StoreWriter};

/// Replays of the sampled requests. The first pass warms caches and gives
/// the exact counts; layer times are means over the others.
const PASSES: usize = 3;
const TIMED_PASSES: f64 = (PASSES - 1) as f64;
/// At most this many distinct requests are replayed (evenly spaced over
/// the pool when there are more).
const MAX_REPLAYED: usize = 64;
/// At most this many of them are also run under all four strategies.
const MAX_PLANNED: usize = 24;
/// Update requests in each write-side probe: the stream's first 48 are
/// `INSERT DATA` and `DELETE DATA` only, which a bare writer can replay.
const PROBE_UPDATES: usize = 48;
/// A BGP leaf is evaluated on its own only below this estimate: a leaf the
/// plan restricts by candidate pruning can be a cross product without it.
const MAX_LEAF_ESTIMATE: f64 = 2e6;
const MAX_SCAN_ROWS: usize = 100_000;
const LOOKUPS_PER_PATTERN: usize = 16;
const PROBE_REPEATS: usize = 10;

/// What reopening the data directory after the window found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Recovery {
    pub seconds: f64,
    pub wal_records_replayed: f64,
}

/// Mean nanoseconds one sampled request spends in each query layer.
#[derive(Debug, Default, Clone)]
struct QueryLayers {
    weight: f64,
    tsv: bool,
    rows: f64,
    body_bytes: f64,
    parse: f64,
    canonicalize: f64,
    prepare: f64,
    optimize: f64,
    estimate_root: f64,
    exec: f64,
    decode: f64,
    serialize: f64,
    transforms: f64,
    bgp_evals: f64,
    rows_enumerated: f64,
    join_space: f64,
}

pub struct Replay {
    pub metrics: Metrics,
    pub exact: Vec<(&'static str, f64)>,
    pub checkpoint_ns_per_run: f64,
    pub compact_ns_per_run: f64,
    queries: Vec<QueryLayers>,
    /// Mean nanoseconds of one update request by layer (empty when the
    /// workload has no durable writer).
    pub update_layers: Vec<(&'static str, f64)>,
}

impl Replay {
    /// Schedule-weighted mean nanoseconds per query request by layer.
    /// Prepare and optimize run only on a plan-cache miss.
    pub fn query_layers(&self, miss_ratio: f64) -> Vec<(&'static str, f64)> {
        let sum =
            |f: &dyn Fn(&QueryLayers) -> f64| self.queries.iter().map(|q| q.weight * f(q)).sum();
        vec![
            ("sparql.parse", sum(&|q| q.parse)),
            ("sparql.canonicalize", sum(&|q| q.canonicalize)),
            ("core.prepare", miss_ratio * sum(&|q| q.prepare)),
            ("core.optimize", miss_ratio * sum(&|q| q.optimize)),
            ("core.estimate_root", miss_ratio * sum(&|q| q.estimate_root)),
            ("core.exec", sum(&|q| q.exec)),
            ("core.decode", sum(&|q| q.decode)),
            ("sparql.serialize", sum(&|q| q.serialize)),
        ]
    }
}

/// The requests to replay and the share of the schedule each stands for.
fn sample(plan: &Plan) -> Vec<(usize, f64)> {
    let mut counts = vec![0usize; plan.queries.len()];
    for client in &plan.clients {
        if let ClientPlan::Cycle(order) = client {
            order.iter().for_each(|&q| counts[q] += 1);
        }
    }
    let step = plan.queries.len().div_ceil(MAX_REPLAYED).max(1);
    let picked: Vec<usize> = (0..plan.queries.len()).step_by(step).collect();
    let total: usize = picked.iter().map(|&q| counts[q]).sum();
    picked.into_iter().map(|q| (q, counts[q] as f64 / total.max(1) as f64)).collect()
}

fn leaves(group: &GroupNode, out: &mut Vec<BgpNode>) {
    for child in &group.children {
        match child {
            BeNode::Bgp(b) => out.push(b.clone()),
            BeNode::Group(g) | BeNode::Optional(g) | BeNode::Minus(g) => leaves(g, out),
            BeNode::Union(branches) => branches.iter().for_each(|g| leaves(g, out)),
            BeNode::Filter(_) | BeNode::Bind(..) | BeNode::Values(_) => {}
        }
    }
}

fn prepared_full(snapshot: &Snapshot, engine: &dyn BgpEngine, text: &str) -> Prepared {
    let mut prepared = prepare_parsed(snapshot, uo_sparql::parse(text).expect("a reference query"));
    optimize_prepared(snapshot, engine, &mut prepared, Strategy::Full);
    prepared
}

type Pattern = (Option<Id>, Option<Id>, Option<Id>);

/// The store accesses behind a set of BGP leaves: the constant-only
/// patterns as scans, and for each, bound lookups of the shape a join
/// extension issues (`s p ?` for subjects the scan returned).
fn store_probes(snapshot: &Snapshot, bgps: &[BgpNode]) -> (Vec<Pattern>, Vec<Pattern>) {
    let mut scans = BTreeSet::new();
    for p in bgps.iter().flat_map(|b| &b.bgp.patterns) {
        let pat: Pattern = (p.s.as_const(), p.p.as_const(), p.o.as_const());
        let dead = [pat.0, pat.1, pat.2].contains(&Some(uo_rdf::NO_ID));
        if !dead
            && pat != (None, None, None)
            && snapshot.count_pattern(pat.0, pat.1, pat.2) <= MAX_SCAN_ROWS
        {
            scans.insert(pat);
        }
    }
    let mut lookups = BTreeSet::new();
    for &(s, p, o) in &scans {
        if s.is_none() && p.is_some() {
            let rows = snapshot.match_pattern(s, p, o).into_rows();
            let step = rows.len().div_ceil(LOOKUPS_PER_PATTERN).max(1);
            lookups.extend(rows.iter().step_by(step).map(|r| (Some(r[0]), p, None)));
        }
    }
    (scans.into_iter().collect(), lookups.into_iter().collect())
}

/// Times the probes against one snapshot; returns nanoseconds per lookup
/// call, per scanned row and per count call.
fn probe_store(
    rec: &mut Recorder,
    names: [&'static str; 3],
    snapshot: &Snapshot,
    scans: &[Pattern],
    lookups: &[Pattern],
) -> [f64; 3] {
    let mut rows = 0usize;
    let run = |rec: &mut Recorder, name, f: &mut dyn FnMut()| {
        rec.scope(name, 0, 0, |_, _| (0..PROBE_REPEATS).for_each(|_| f())).1 as f64
            / PROBE_REPEATS as f64
    };
    let lookup_ns = run(rec, names[0], &mut || {
        for &(s, p, o) in lookups {
            black_box(snapshot.match_pattern(s, p, o).len());
        }
    });
    let scan_ns = run(rec, names[1], &mut || {
        // Every row is read, so a zero-copy slice still costs its memory.
        rows = 0;
        for &(s, p, o) in scans {
            let matched = snapshot.match_pattern(s, p, o);
            black_box(matched.rows().iter().fold(0u64, |acc, r| acc ^ u64::from(r[2])));
            rows += matched.len();
        }
    });
    let count_ns = run(rec, names[2], &mut || {
        for &(s, p, o) in scans.iter().chain(lookups) {
            black_box(snapshot.count_pattern(s, p, o));
        }
    });
    [
        ratio(lookup_ns, lookups.len() as f64),
        ratio(scan_ns, rows as f64),
        ratio(count_ns, (scans.len() + lookups.len()) as f64),
    ]
}

/// The state the probes of one replay share.
struct Replayer<'a> {
    store: &'a Arc<Snapshot>,
    requests: &'a [Request],
    /// The requests to replay and the share of the schedule each stands for.
    picked: Vec<(usize, f64)>,
    engine: WcoEngine,
    rec: &'a mut Recorder,
    metrics: Metrics,
    exact: Vec<(&'static str, f64)>,
}

/// What the in-memory write probe hands to the later ones.
struct UpdateProbe {
    requests: Vec<UpdateRequest>,
    triples: f64,
    parse_ns: f64,
    /// Whole `try_run_update` calls, and the share of them inside
    /// `StoreWriter` (buffering the delta and `commit`).
    update_ns: f64,
    commit_ns: f64,
    /// The store after 7 of the commits: 8 levels deep.
    l8: Arc<Snapshot>,
}

pub fn replay(
    store: &Arc<Snapshot>,
    plan: &Plan,
    requests: &[Request],
    opts: &Options,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    let mut r = Replayer {
        store,
        requests,
        picked: sample(plan),
        engine: reference_engine(),
        rec,
        metrics: Metrics::new(),
        exact: Vec::new(),
    };
    let scratch = opts.out_dir.join(format!("phase-b-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let (queries, bgps) = r.queries()?;
    r.engines(&bgps);
    r.strategies();
    let updates = r.updates(opts.seed)?;
    r.store_depths(&bgps, &updates.l8, &scratch)?;
    r.ntriples()?;
    let mut out = Replay {
        metrics: Metrics::new(),
        exact: Vec::new(),
        checkpoint_ns_per_run: 0.0,
        compact_ns_per_run: 0.0,
        queries,
        update_layers: Vec::new(),
    };
    if opts.workload == Workload::DurableRw {
        r.durable(&updates, &scratch, &mut out)?;
    } else {
        // No log, no checkpoint: these layers are bypassed.
        for name in [
            "wal.append.ns_per_record",
            "wal.fsync.ns_per_call",
            "wal.bytes_per_triple",
            "store.checkpoint.ns_per_run",
            "store.compact.ns_per_run",
        ] {
            r.put(name, 0.0, 0);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    out.metrics = r.metrics;
    out.exact = r.exact;
    Ok(out)
}

impl Replayer<'_> {
    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.insert(name, Value { value, n: n as u64 });
    }

    fn execute(&self, snapshot: &Snapshot, prepared: &Prepared, strategy: Strategy) -> RunReport {
        try_execute_prepared(
            snapshot,
            &self.engine,
            prepared,
            strategy,
            Parallelism::sequential(),
            &Cancellation::none(),
        )
        .expect("no cancellation token was given")
    }

    /// The query pipeline, call by call: one span per public function the
    /// server calls for a request. Returns the per-request layer times and
    /// the BGP leaves of the optimized plans.
    fn queries(&mut self) -> Result<(Vec<QueryLayers>, Vec<BgpNode>), String> {
        let snapshot: &Snapshot = self.store;
        let mut queries: Vec<QueryLayers> = Vec::with_capacity(self.picked.len());
        let mut bgps: Vec<BgpNode> = Vec::new();
        for &(qi, weight) in &self.picked.clone() {
            let want = &self.requests[qi];
            let mut q = QueryLayers { weight, tsv: want.spec.tsv, ..QueryLayers::default() };
            for pass in 0..PASSES {
                let id = qi as u64;
                let timed = if pass == 0 { 0.0 } else { 1.0 };
                let engine = &self.engine;
                let same = self.rec.scope("query", 0, id, |rec, root| {
                    let (parsed, ns) = rec
                        .scope("sparql.parse", root, id, |_, _| uo_sparql::parse(&want.spec.text));
                    let parsed = parsed.expect("a reference query");
                    q.parse += ns as f64 * timed;
                    let (key, ns) = rec.scope("sparql.canonicalize", root, id, |_, _| {
                        uo_sparql::serialize(&parsed)
                    });
                    black_box(key);
                    q.canonicalize += ns as f64 * timed;
                    let (mut prepared, ns) = rec
                        .scope("core.prepare", root, id, |_, _| prepare_parsed(snapshot, parsed));
                    q.prepare += ns as f64 * timed;
                    let ((transforms, _), ns) = rec.scope("core.optimize", root, id, |_, _| {
                        optimize_prepared(snapshot, engine, &mut prepared, Strategy::Full)
                    });
                    q.optimize += ns as f64 * timed;
                    // On a miss the server also asks the cost model for the
                    // plan's root cardinality, for `/stats/plans`.
                    let (estimate, ns) = rec.scope("core.estimate_root", root, id, |_, _| {
                        estimate_root_rows(snapshot, engine, &prepared)
                    });
                    black_box(estimate);
                    q.estimate_root += ns as f64 * timed;
                    // Execution and projection decode happen inside one
                    // call; the report says where the boundary was.
                    let (report, _) = rec.scope("core.execute", root, id, |rec, parent| {
                        let t = Instant::now();
                        let report = try_execute_prepared(
                            snapshot,
                            engine,
                            &prepared,
                            Strategy::Full,
                            Parallelism::sequential(),
                            &Cancellation::none(),
                        )
                        .expect("no cancellation token was given");
                        let split = t + report.exec_time;
                        let end = t + Duration::from_nanos(report.wall_nanos);
                        rec.push("core.exec", parent, id, t, split);
                        rec.push("core.decode", parent, id, split, end.max(split));
                        report
                    });
                    let exec_ns = report.exec_time.as_nanos() as u64;
                    q.exec += exec_ns as f64 * timed;
                    q.decode += report.wall_nanos.saturating_sub(exec_ns) as f64 * timed;
                    let projection = prepared.query.projection();
                    let name = if want.spec.tsv {
                        "sparql.serialize_tsv"
                    } else {
                        "sparql.serialize_json"
                    };
                    let (body, ns) = rec.scope(name, root, id, |_, _| {
                        if want.spec.tsv {
                            uo_sparql::results_tsv(&projection, &report.results)
                        } else {
                            uo_sparql::results_json(&projection, &report.results)
                        }
                    });
                    q.serialize += ns as f64 * timed;
                    if pass == 0 {
                        q.rows = report.results.len() as f64;
                        q.body_bytes = body.len() as f64;
                        q.transforms = (transforms.merges + transforms.injects) as f64;
                        q.bgp_evals = report.exec_stats.bgp_evals as f64;
                        q.rows_enumerated = report.exec_stats.rows_enumerated as f64;
                        q.join_space = report.join_space;
                        leaves(&prepared.tree.root, &mut bgps);
                    }
                    BodyHash::of(body.as_bytes()) == want.body_hash
                });
                if !same.0 {
                    return Err(format!(
                        "replay of {} differs from its reference",
                        want.spec.label
                    ));
                }
            }
            for field in [
                &mut q.parse,
                &mut q.canonicalize,
                &mut q.prepare,
                &mut q.optimize,
                &mut q.estimate_root,
                &mut q.exec,
                &mut q.decode,
                &mut q.serialize,
            ] {
                *field /= TIMED_PASSES;
            }
            queries.push(q);
        }

        let n = queries.len() * (PASSES - 1);
        let weighted = |f: &dyn Fn(&QueryLayers) -> f64| -> f64 {
            queries.iter().map(|q| q.weight * f(q)).sum()
        };
        let of = |tsv: bool, f: &dyn Fn(&QueryLayers) -> f64| -> f64 {
            queries.iter().filter(|q| q.tsv == tsv).map(|q| q.weight * f(q)).sum()
        };
        let rows = weighted(&|q| q.rows);
        let per_layer = [
            ("sparql.parse.ns_per_query", weighted(&|q| q.parse)),
            ("sparql.canonicalize.ns_per_query", weighted(&|q| q.canonicalize)),
            ("core.prepare.ns_per_query", weighted(&|q| q.prepare)),
            ("core.optimize.ns_per_query", weighted(&|q| q.optimize)),
            ("core.estimate_root.ns_per_query", weighted(&|q| q.estimate_root)),
            ("core.optimize.transforms_per_query", weighted(&|q| q.transforms)),
            ("core.exec.ns_per_query", weighted(&|q| q.exec)),
            ("core.exec.bgp_evals_per_query", weighted(&|q| q.bgp_evals)),
            ("core.exec.rows_enumerated_per_result", ratio(weighted(&|q| q.rows_enumerated), rows)),
            ("core.decode.ns_per_row", ratio(weighted(&|q| q.decode), rows)),
            (
                "sparql.serialize_json.ns_per_row",
                ratio(of(false, &|q| q.serialize), of(false, &|q| q.rows)),
            ),
            (
                "sparql.serialize_json.bytes_per_row",
                ratio(of(false, &|q| q.body_bytes), of(false, &|q| q.rows)),
            ),
            (
                "sparql.serialize_tsv.ns_per_row",
                ratio(of(true, &|q| q.serialize), of(true, &|q| q.rows)),
            ),
        ];
        let total = |f: &dyn Fn(&QueryLayers) -> f64| -> f64 { queries.iter().map(f).sum() };
        let exact = [
            ("exact.rows_enumerated", total(&|q| q.rows_enumerated)),
            ("exact.bgp_evals", total(&|q| q.bgp_evals)),
            (
                "exact.join_space_log10_sum",
                total(&|q| if q.join_space > 0.0 { q.join_space.log10() } else { 0.0 }),
            ),
            ("exact.result_rows", total(&|q| q.rows)),
            ("exact.body_bytes", total(&|q| q.body_bytes)),
        ];
        for (name, value) in per_layer {
            self.put(name, value, n);
        }
        self.exact.extend(exact);
        Ok((queries, bgps))
    }

    /// The BGP engines and the cost model's estimates, leaf by leaf.
    fn engines(&mut self, bgps: &[BgpNode]) {
        let snapshot: &Snapshot = self.store;
        let binary = BinaryJoinEngine::with_threads(1);
        let width = |b: &BgpNode| b.bgp.variables().last().map_or(0, |&v| v as usize + 1);
        let mut estimate_ns = Vec::new();
        let mut joins: [(f64, f64, usize); 2] = [(0.0, 0.0, 0); 2];
        for b in bgps {
            let engine = &self.engine;
            let (estimate, ns) = self.rec.scope("engine.estimate", 0, 0, |_, _| {
                black_box(engine.estimate_cost(snapshot, &b.bgp));
                engine.estimate_cardinality(snapshot, &b.bgp)
            });
            estimate_ns.push(ns as f64);
            if estimate > MAX_LEAF_ESTIMATE {
                continue;
            }
            let engines: [(&'static str, &dyn BgpEngine); 2] =
                [("engine.wco.evaluate", engine), ("engine.binary.evaluate", &binary)];
            for (slot, (name, e)) in joins.iter_mut().zip(engines) {
                let (rows, ns) = self.rec.scope(name, 0, 0, |_, _| {
                    e.evaluate(snapshot, &b.bgp, width(b), &CandidateSet::none()).len()
                });
                *slot = (slot.0 + ns as f64, slot.1 + rows as f64, slot.2 + 1);
            }
        }
        self.put("engine.estimate.ns_per_bgp", mean(&estimate_ns), estimate_ns.len());
        for ((ns, rows, n), names) in joins.into_iter().zip([
            ["engine.wco.ns_per_bgp", "engine.wco.rows_per_s"],
            ["engine.binary.ns_per_bgp", "engine.binary.rows_per_s"],
        ]) {
            self.put(names[0], ratio(ns, n as f64), n);
            self.put(names[1], ratio(rows, ns / 1e9), n);
        }
    }

    /// The paper's claim as numbers: each query once under every strategy.
    fn strategies(&mut self) {
        let snapshot: &Snapshot = self.store;
        let mut speedups = Vec::new();
        let mut reductions = Vec::new();
        let mut full_fastest = 0usize;
        let planned: Vec<usize> = self.picked.iter().map(|&(qi, _)| qi).take(MAX_PLANNED).collect();
        for &qi in &planned {
            let text = &self.requests[qi].spec.text;
            let mut result = |strategy: Strategy| -> (f64, f64) {
                let mut once = || {
                    let engine = &self.engine;
                    let (report, ns) = self.rec.scope("core.plan", 0, qi as u64, |_, _| {
                        let parsed = uo_sparql::parse(text).expect("a reference query");
                        let mut p = prepare_parsed(snapshot, parsed);
                        optimize_prepared(snapshot, engine, &mut p, strategy);
                        try_execute_prepared(
                            snapshot,
                            engine,
                            &p,
                            strategy,
                            Parallelism::sequential(),
                            &Cancellation::none(),
                        )
                        .expect("no cancellation token was given")
                    });
                    (ns as f64 / 1e9, report.join_space)
                };
                let (seconds, join_space) = once();
                // A quick query runs twice, so one stall does not pick a winner.
                (if seconds < 0.1 { seconds.min(once().0) } else { seconds }, join_space)
            };
            let [base, tt, cp, full] = Strategy::ALL.map(&mut result);
            speedups.push((base.0 / full.0).ln());
            if base.1 > 1.0 && full.1 > 1.0 {
                reductions.push((base.1 / full.1).log10());
            }
            full_fastest += usize::from(full.0 <= base.0.min(tt.0).min(cp.0));
        }
        self.put("core.plan.speedup_full_vs_base", mean(&speedups).exp(), planned.len());
        self.put("core.plan.join_space_reduction_log10", mean(&reductions), reductions.len());
        self.put(
            "core.plan.full_is_fastest_share",
            ratio(full_fastest as f64, planned.len() as f64),
            planned.len(),
        );
    }

    /// The write path in memory: parse, apply, commit.
    fn updates(&mut self, seed: u64) -> Result<UpdateProbe, String> {
        let mut stream = UpdateStream::new(seed);
        let updates: Vec<_> = (0..PROBE_UPDATES).map(|_| stream.next_update()).collect();
        let triples: f64 = updates.iter().map(|u| u.triples_changed as f64).sum();
        let mut whole = StoreWriter::from_snapshot(Arc::clone(self.store));
        let mut direct = StoreWriter::from_snapshot(Arc::clone(self.store));
        let (mut parse_ns, mut update_ns, mut commit_ns, mut rows_sorted) = (0.0, 0.0, 0.0, 0.0);
        let mut l8 = None;
        let mut requests = Vec::with_capacity(updates.len());
        for (i, u) in updates.iter().enumerate() {
            let (request, ns) = self
                .rec
                .scope("sparql.parse_update", 0, i as u64, |_, _| uo_sparql::parse_update(&u.text));
            let request = request.map_err(|e| format!("generated update does not parse: {e}"))?;
            parse_ns += ns as f64;
            let engine = &self.engine;
            update_ns += self
                .rec
                .scope("core.update", 0, i as u64, |_, _| {
                    try_run_update(
                        &mut whole,
                        engine,
                        &request,
                        Parallelism::sequential(),
                        &Cancellation::none(),
                    )
                    .expect("no cancellation token was given")
                })
                .1 as f64;
            // The same triples straight into a writer: what `uo_store` does
            // for the request (buffer the delta, commit it), without `uo_core`.
            let (unsupported, ns) = self.rec.scope("store.commit", 0, i as u64, |_, _| {
                for op in &request.ops {
                    match op {
                        UpdateOp::InsertData(ts) => ts
                            .iter()
                            .for_each(|t| direct.insert_terms(&t.subject, &t.predicate, &t.object)),
                        UpdateOp::DeleteData(ts) => ts.iter().for_each(|t| {
                            direct.delete_terms(&t.subject, &t.predicate, &t.object);
                        }),
                        UpdateOp::DeleteWhere(_) => return true,
                    }
                }
                direct.commit();
                false
            });
            if unsupported {
                return Err("the probe stream has no DELETE WHERE".to_string());
            }
            commit_ns += ns as f64;
            rows_sorted += direct.last_commit().rows_sorted as f64;
            if direct.snapshot().level_count() == 8 && l8.is_none() {
                l8 = Some(direct.snapshot());
            }
            requests.push(request);
        }
        let n = updates.len();
        self.put("sparql.parse_update.ns_per_op", parse_ns / n as f64, n);
        self.put("store.commit.ns_per_triple", commit_ns / triples, n);
        self.put("core.update.apply_ns_per_triple", (update_ns - commit_ns).max(0.0) / triples, n);
        self.put("store.commit.rows_sorted_per_triple", rows_sorted / triples, n);
        self.exact.push(("exact.rows_sorted", rows_sorted));
        let l8 = l8.ok_or("seven commits did not give eight levels")?;
        Ok(UpdateProbe { requests, triples, parse_ns, update_ns, commit_ns, l8 })
    }

    /// The store: the workload's own lookups, scans and counts on one level,
    /// after 7 small commits (every read merges 8 levels), and against a
    /// paged file behind a page cache an eighth of its size — where the
    /// sampled queries then run once each for the cache counters.
    fn store_depths(
        &mut self,
        bgps: &[BgpNode],
        l8: &Snapshot,
        scratch: &Path,
    ) -> Result<(), String> {
        let snapshot: &Snapshot = self.store;
        let (scans, lookups) = store_probes(snapshot, bgps);
        let file = scratch.join("cold.uost");
        uo_store::save_to_file(snapshot, &file).map_err(|e| format!("{}: {e}", file.display()))?;
        let cache_bytes = (std::fs::metadata(&file).map_or(0, |m| m.len()) / 8) as usize;
        let cold = uo_store::load_from_file_with(&file, PagedOptions { cache_bytes })
            .map_err(|e| format!("{}: {e}", file.display()))?
            .snapshot();
        // Span names, then the lookup, scan and count metrics they feed.
        let depths = [
            (
                ["store.lookup.l1", "store.scan.l1", "store.count.l1"],
                [
                    Some("store.lookup.l1.ns_per_call"),
                    Some("store.scan.l1.ns_per_row"),
                    Some("store.count.ns_per_call"),
                ],
                snapshot,
            ),
            (
                ["store.lookup.l8", "store.scan.l8", "store.count.l8"],
                [Some("store.lookup.l8.ns_per_call"), Some("store.scan.l8.ns_per_row"), None],
                l8,
            ),
            (
                ["store.lookup.cold", "store.scan.cold", "store.count.cold"],
                [Some("store.lookup.cold.ns_per_call"), Some("store.scan.cold.ns_per_row"), None],
                &*cold,
            ),
        ];
        let samples = [lookups.len(), scans.len(), scans.len() + lookups.len()];
        for (spans, metrics, target) in depths {
            let values = probe_store(self.rec, spans, target, &scans, &lookups);
            for ((metric, value), n) in metrics.into_iter().zip(values).zip(samples) {
                if let Some(metric) = metric {
                    self.put(metric, value, n);
                }
            }
        }

        let before = cold.page_cache_stats().unwrap_or_default();
        for &(qi, _) in &self.picked {
            let want = &self.requests[qi];
            let p = prepared_full(&cold, &self.engine, &want.spec.text);
            if self.execute(&cold, &p, Strategy::Full).results.len() as u64 != want.rows {
                return Err(format!("{} differs on the paged store", want.spec.label));
            }
        }
        let after = cold.page_cache_stats().unwrap_or_default();
        let (hits, misses) =
            ((after.hits - before.hits) as f64, (after.misses - before.misses) as f64);
        let n = self.picked.len();
        self.put("store.page_cache.hit_ratio", ratio(hits, hits + misses), n);
        self.put("store.page_cache.misses_per_query", ratio(misses, n as f64), n);
        self.put("store.page_cache.evictions", (after.evictions - before.evictions) as f64, n);
        self.exact.push(("exact.page_cache_misses", misses));
        Ok(())
    }

    /// N-Triples parsing, on a slice of the store's own triples.
    fn ntriples(&mut self) -> Result<(), String> {
        let dict = self.store.dictionary();
        let term = |id| dict.decode(id).expect("a stored id");
        let doc: String = self
            .store
            .iter()
            .take(50_000)
            .map(|t| format!("{} {} {} .\n", term(t.subject), term(t.predicate), term(t.object)))
            .collect();
        let (parsed, ns) = self.rec.scope("rdf.ntriples.parse", 0, 0, |_, _| {
            uo_rdf::ntriples::parse_document_each(&doc, |s, p, o| {
                black_box((s, p, o));
            })
        });
        let parsed = parsed.map_err(|e| format!("own N-Triples do not parse: {e}"))?;
        self.put("rdf.ntriples.parse_triples_per_s", ratio(parsed as f64, ns as f64 / 1e9), parsed);
        Ok(())
    }

    /// The durable write path: the log on its own (append without a policy
    /// fsync, then sync), then the same requests journaled by a durable
    /// store with fsync=always, then one checkpoint and one compaction of
    /// what they left behind.
    fn durable(
        &mut self,
        probe: &UpdateProbe,
        scratch: &Path,
        out: &mut Replay,
    ) -> Result<(), String> {
        let fail = |what: &str, e: &dyn std::fmt::Display| format!("phase B {what}: {e}");
        let n = probe.requests.len();
        let (mut wal, _) = uo_wal::Wal::open(
            &scratch.join("wal"),
            uo_wal::WalOptions { fsync: FsyncPolicy::Never, ..Default::default() },
        )
        .map_err(|e| fail("wal open", &e))?;
        let (mut append_ns, mut fsync_ns) = (0.0, 0.0);
        for (i, request) in probe.requests.iter().enumerate() {
            let payload = uo_sparql::serialize_update(request);
            let epoch = i as u64 + 1;
            let (r, ns) = self
                .rec
                .scope("wal.append", 0, epoch, |_, _| wal.append(epoch, payload.as_bytes()));
            r.map_err(|e| fail("wal append", &e))?;
            append_ns += ns as f64;
            let (r, ns) = self.rec.scope("wal.fsync", 0, epoch, |_, _| wal.sync());
            r.map_err(|e| fail("wal sync", &e))?;
            fsync_ns += ns as f64;
        }
        let wal_bytes = wal.stats().bytes as f64;
        self.put("wal.append.ns_per_record", append_ns / n as f64, n);
        self.put("wal.fsync.ns_per_call", fsync_ns / n as f64, n);
        self.put("wal.bytes_per_triple", wal_bytes / probe.triples, n);
        self.exact.push(("exact.wal_bytes", wal_bytes));

        let options = durable_options(FsyncPolicy::Always, 0);
        let mut ds = open_durable(
            &scratch.join("durable"),
            options,
            &self.engine,
            Parallelism::sequential(),
        )
        .map_err(|e| fail("open", &e))?;
        ds.seed(Arc::clone(self.store)).map_err(|e| fail("seed", &e))?;
        let mut durable_ns = 0.0;
        for (i, request) in probe.requests.iter().enumerate() {
            let engine = &self.engine;
            let (r, ns) = self.rec.scope("core.update_durable", 0, i as u64, |_, _| {
                try_run_update_durable(
                    &mut ds,
                    engine,
                    request,
                    Parallelism::sequential(),
                    &Cancellation::none(),
                )
            });
            r.map_err(|e| fail("durable update", &e))?;
            durable_ns += ns as f64;
        }
        let (r, ns) = self.rec.scope("store.checkpoint", 0, 0, |_, _| ds.checkpoint());
        r.map_err(|e| fail("checkpoint", &e))?;
        out.checkpoint_ns_per_run = ns as f64;
        let (r, ns) =
            self.rec.scope("store.compact", 0, 0, |_, _| ds.compact(Parallelism::sequential()));
        r.map_err(|e| fail("compact", &e))?;
        out.compact_ns_per_run = ns as f64;
        self.put("store.checkpoint.ns_per_run", out.checkpoint_ns_per_run, 1);
        self.put("store.compact.ns_per_run", out.compact_ns_per_run, 1);
        let per_update = |ns: f64| ns / n as f64;
        out.update_layers = vec![
            ("sparql.parse_update", per_update(probe.parse_ns)),
            ("core.update.apply", per_update((probe.update_ns - probe.commit_ns).max(0.0))),
            ("store.commit", per_update(probe.commit_ns)),
            ("wal.append", per_update(append_ns)),
            ("wal.fsync", per_update(fsync_ns)),
            ("core.update_durable (whole call)", per_update(durable_ns)),
        ];
        Ok(())
    }
}

/// Prints, for the traced window, what share of a request's wall time each
/// layer's self time is — the dominance the workload was designed for.
pub fn print_shares(
    client: &BTreeMap<&'static str, NameTotals>,
    query_layers: &[(&'static str, f64)],
    query_wall_ns: f64,
    update: Option<(&[(&'static str, f64)], f64)>,
) {
    let share = |ns: f64, wall: f64| 100.0 * ratio(ns, wall);
    eprintln!(
        "query request, mean wall {:.3} ms; share by layer (phase B self time):",
        query_wall_ns / 1e6
    );
    let mut accounted = 0.0;
    for (name, ns) in query_layers {
        eprintln!("  {name:<28} {:>6.1} %", share(*ns, query_wall_ns));
        accounted += ns;
    }
    eprintln!(
        "  {:<28} {:>6.1} %",
        "server.overhead (remainder)",
        share(query_wall_ns - accounted, query_wall_ns)
    );
    let requests = client.get("request").copied().unwrap_or_default();
    eprintln!("the same wall time, as the client saw it (phase A spans):");
    for name in ["connect", "send", "wait_first_byte", "read_body", "verify"] {
        let t = client.get(name).copied().unwrap_or_default();
        eprintln!("  {name:<28} {:>6.1} %", share(t.self_ns as f64, requests.total_ns as f64));
    }
    if let Some((layers, wall_ns)) = update {
        eprintln!("update request, mean wall {:.3} ms; share by layer:", wall_ns / 1e6);
        for (name, ns) in layers {
            eprintln!("  {name:<28} {:>6.1} %", share(*ns, wall_ns));
        }
    }
}
