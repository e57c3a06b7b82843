//! Compile-time pins of everything `benchmark/` takes from the workspace.
//!
//! `benchmark/` is a package of its own, outside the root workspace, and a
//! PR that claims a gain may not edit it — so a changed signature here shows
//! up only when the pipeline's benchmark run fails to build. This file uses
//! each item `benchmark/src/{layers,run}.rs` imports with the signature (or
//! the fields, or the exhaustive match) the benchmark uses, so the
//! workspace's own `cargo test` stops compiling first. When one of these
//! lines has to change, `benchmark/` has to change with it, in a PR of its
//! own.

// The spelled-out function types are the pins.
#![allow(clippy::type_complexity)]

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use uo_core::{
    estimate_root_rows, open_durable, optimize_prepared, prepare_parsed, run_query_with,
    try_execute_prepared, try_run_update, try_run_update_durable, BeNode, BgpNode, Cancellation,
    Cancelled, DurableUpdateError, GroupNode, Parallelism, Prepared, RunReport, Strategy,
    TransformOutcome, UpdateReport,
};
use uo_datagen::{
    generate_dbpedia, generate_lubm, queries_for, BenchQuery, Dataset, DbpediaConfig, LubmConfig,
};
use uo_engine::{BgpEngine, BinaryJoinEngine, CandidateSet, EncodedBgp, WcoEngine};
use uo_rdf::{Id, Term, NO_ID};
use uo_server::{EngineChoice, ServerConfig, ServerHandle};
use uo_sparql::algebra::Bag;
use uo_sparql::ast::Query;
use uo_sparql::{ParseError, UpdateOp, UpdateRequest};
use uo_store::{
    CheckpointReport, CommitStats, DurableError, DurableOptions, DurableStore, FsyncPolicy,
    PagedOptions, RecoveryReport, Snapshot, SnapshotError, StoreWriter,
};
use uo_wal::{Wal, WalError, WalOptions, WalRecovery};

/// `benchmark/src/layers.rs::leaves`: an exhaustive match, no wildcard arm.
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

/// The three trait methods the benchmark calls, through `&dyn BgpEngine`.
fn engine_surface(e: &dyn BgpEngine, snapshot: &Snapshot, b: &BgpNode) -> (usize, f64, f64) {
    let width = b.bgp.variables().last().map_or(0, |&v| v as usize + 1);
    (
        e.evaluate(snapshot, &b.bgp, width, &CandidateSet::none()).len(),
        e.estimate_cardinality(snapshot, &b.bgp),
        e.estimate_cost(snapshot, &b.bgp),
    )
}

/// `benchmark/src/layers.rs::updates`: an exhaustive match, no wildcard arm.
fn apply_data(writer: &mut StoreWriter, op: &UpdateOp) -> bool {
    match op {
        UpdateOp::InsertData(ts) => {
            ts.iter().for_each(|t| writer.insert_terms(&t.subject, &t.predicate, &t.object))
        }
        UpdateOp::DeleteData(ts) => ts.iter().for_each(|t| {
            writer.delete_terms(&t.subject, &t.predicate, &t.object);
        }),
        UpdateOp::DeleteWhere(_) => return false,
    }
    true
}

/// `benchmark/src/workloads.rs::build_store`: generated stores are read
/// through their dictionary and re-inserted into one writer.
fn build_store(sources: [Arc<Snapshot>; 2]) -> Arc<Snapshot> {
    let mut writer = StoreWriter::new();
    for src in sources {
        let dict = src.dictionary();
        let term = |id: Id| dict.decode(id).expect("generated triples are dictionary-encoded");
        for t in src.iter() {
            writer.insert_terms(term(t.subject), term(t.predicate), term(t.object));
        }
    }
    writer.commit()
}

/// `benchmark/src/run.rs::server_config`.
fn server_config(writable: bool) -> ServerConfig {
    ServerConfig {
        threads: 2,
        engine_threads: 1,
        engine: EngineChoice::Wco,
        strategy: Strategy::Full,
        writable,
        ..ServerConfig::default()
    }
}

type Rows = [Vec<Option<Term>>];

#[test]
fn the_items_benchmark_imports_keep_the_signatures_it_uses() {
    // uo_core: the query pipeline, call by call, and the update entries.
    let _: fn(&Snapshot, Query) -> Prepared = prepare_parsed;
    let _: fn(&Snapshot, &dyn BgpEngine, &mut Prepared, Strategy) -> (TransformOutcome, Duration) =
        optimize_prepared;
    let _: fn(&Snapshot, &dyn BgpEngine, &Prepared) -> f64 = estimate_root_rows;
    let _: fn(
        &Snapshot,
        &dyn BgpEngine,
        &Prepared,
        Strategy,
        Parallelism,
        &Cancellation,
    ) -> Result<RunReport, Cancelled> = try_execute_prepared;
    let _: fn(
        &Snapshot,
        &dyn BgpEngine,
        &str,
        Strategy,
        Parallelism,
    ) -> Result<RunReport, ParseError> = run_query_with;
    let _: fn(
        &Path,
        DurableOptions,
        &dyn BgpEngine,
        Parallelism,
    ) -> Result<DurableStore, DurableError> = open_durable;
    let _: fn(
        &mut StoreWriter,
        &dyn BgpEngine,
        &UpdateRequest,
        Parallelism,
        &Cancellation,
    ) -> Result<UpdateReport, Cancelled> = try_run_update;
    let _: fn(
        &mut DurableStore,
        &dyn BgpEngine,
        &UpdateRequest,
        Parallelism,
        &Cancellation,
    ) -> Result<UpdateReport, DurableUpdateError> = try_run_update_durable;
    let _: fn() -> Parallelism = Parallelism::sequential;
    let _: fn() -> Cancellation = Cancellation::none;

    // uo_engine.
    let _: fn(usize) -> WcoEngine = WcoEngine::with_threads;
    let _: fn(usize) -> BinaryJoinEngine = BinaryJoinEngine::with_threads;
    let _: fn() -> CandidateSet = CandidateSet::none;
    let _: fn(&WcoEngine, &Snapshot, &EncodedBgp, usize, &CandidateSet) -> Bag =
        <WcoEngine as BgpEngine>::evaluate;
    let _: fn(&BinaryJoinEngine, &Snapshot, &EncodedBgp) -> f64 =
        <BinaryJoinEngine as BgpEngine>::estimate_cardinality;
    let _: fn(&BinaryJoinEngine, &Snapshot, &EncodedBgp) -> f64 =
        <BinaryJoinEngine as BgpEngine>::estimate_cost;

    // uo_sparql.
    let _: fn(&str) -> Result<Query, ParseError> = uo_sparql::parse;
    let _: fn(&Query) -> String = uo_sparql::serialize;
    let _: fn(&[String], &Rows) -> String = uo_sparql::results_json;
    let _: fn(&[String], &Rows) -> String = uo_sparql::results_tsv;

    // uo_store: the writer, the persisted snapshot and the durable store.
    let _: fn() -> StoreWriter = StoreWriter::new;
    let _: fn(Arc<Snapshot>) -> StoreWriter = StoreWriter::from_snapshot;
    let _: fn(&mut StoreWriter, &Term, &Term, &Term) = StoreWriter::insert_terms;
    let _: fn(&mut StoreWriter, &Term, &Term, &Term) -> bool = StoreWriter::delete_terms;
    let _: fn(&mut StoreWriter) -> Arc<Snapshot> = StoreWriter::commit;
    let _: fn(&StoreWriter) -> Arc<Snapshot> = StoreWriter::snapshot;
    let _: fn(&StoreWriter) -> CommitStats = StoreWriter::last_commit;
    let _: fn(&Snapshot) -> usize = Snapshot::level_count;
    let _: fn(&Snapshot, &Path) -> io::Result<()> = uo_store::save_to_file;
    let _: fn(&Path, PagedOptions) -> Result<StoreWriter, SnapshotError> =
        uo_store::load_from_file_with;
    let _: fn(&mut DurableStore, Arc<Snapshot>) -> io::Result<CheckpointReport> =
        DurableStore::seed;
    let _: fn(&mut DurableStore) -> io::Result<CheckpointReport> = DurableStore::checkpoint;
    let _: fn(&mut DurableStore, Parallelism) -> Result<(), SnapshotError> = DurableStore::compact;
    let _: fn(&DurableStore) -> &RecoveryReport = DurableStore::recovery;
    let _: fn(&DurableStore) -> Arc<Snapshot> = DurableStore::snapshot;
    let _: usize = RecoveryReport::default().replayed_ops;
    let _ =
        DurableOptions { fsync: FsyncPolicy::Always, page_cache_bytes: 0, ..Default::default() };

    // uo_wal: the log on its own, with the store's fsync policy type.
    let _: fn(&Path, WalOptions) -> Result<(Wal, WalRecovery), WalError> = Wal::open;
    let _: fn(&mut Wal, u64, &[u8]) -> io::Result<()> = Wal::append;
    let _: fn(&mut Wal) -> io::Result<()> = Wal::sync;
    let _ = WalOptions { fsync: FsyncPolicy::Never, ..Default::default() };

    // uo_datagen: the served store and the paper's queries.
    let _: fn(&LubmConfig) -> Arc<Snapshot> = generate_lubm;
    let _: fn(&DbpediaConfig) -> Arc<Snapshot> = generate_dbpedia;
    let _: fn(Dataset) -> Vec<BenchQuery> = queries_for;
    let _ = LubmConfig { universities: 2, ..LubmConfig::default() };
    let _ = DbpediaConfig { articles: 15_000, seed: 7, ..DbpediaConfig::default() };
    let _: (fn() -> LubmConfig, fn() -> DbpediaConfig) = (LubmConfig::tiny, DbpediaConfig::tiny);

    // uo_sparql's update text, both ways, and the reserved id.
    let _: fn(&str) -> Result<UpdateRequest, ParseError> = uo_sparql::parse_update;
    let _: fn(&UpdateRequest) -> String = uo_sparql::serialize_update;
    let _: Id = NO_ID;

    // uo_server.
    let _: fn(Arc<Snapshot>, ServerConfig, u16) -> io::Result<ServerHandle> = uo_server::start;
    let _: fn(DurableStore, ServerConfig, u16) -> io::Result<ServerHandle> =
        uo_server::start_durable;
    assert!(server_config(true).writable);
}

/// The fields the benchmark reads, on a real run of its per-request call
/// sequence (`Layers::queries`).
#[test]
fn the_fields_benchmark_reads_are_there() {
    let mut writer = StoreWriter::new();
    writer
        .load_ntriples("<http://a> <http://p> <http://b> .\n<http://b> <http://q> \"x\" .\n")
        .unwrap();
    let st = writer.commit();
    let snapshot: &Snapshot = &st;
    let engine = WcoEngine::with_threads(1);
    let text = "SELECT ?x ?l WHERE { ?x <http://p> ?y . OPTIONAL { ?y <http://q> ?l } }";

    let parsed = uo_sparql::parse(text).unwrap();
    let key: String = uo_sparql::serialize(&parsed);
    assert!(!key.is_empty());
    let mut prepared = prepare_parsed(snapshot, parsed);
    let (transforms, _) = optimize_prepared(snapshot, &engine, &mut prepared, Strategy::Full);
    let _: usize = transforms.merges + transforms.injects;
    let estimate = estimate_root_rows(snapshot, &engine, &prepared);
    assert!(estimate >= 1.0);
    let report: RunReport = try_execute_prepared(
        snapshot,
        &engine,
        &prepared,
        Strategy::Full,
        Parallelism::sequential(),
        &Cancellation::none(),
    )
    .unwrap();
    let _: (Duration, u64, f64) = (report.exec_time, report.wall_nanos, report.join_space);
    let _: (f64, f64) =
        (report.exec_stats.bgp_evals as f64, report.exec_stats.rows_enumerated as f64);
    let projection: Vec<String> = prepared.query.projection();
    assert_eq!(report.results.len(), 1);
    assert!(uo_sparql::results_json(&projection, &report.results).contains("\"x\""));
    assert!(uo_sparql::results_tsv(&projection, &report.results).starts_with("?x\t?l\n"));

    let mut bgps = Vec::new();
    leaves(&prepared.tree.root, &mut bgps);
    assert!(!bgps.is_empty());
    for e in [&engine as &dyn BgpEngine, &BinaryJoinEngine::with_threads(1)] {
        for b in &bgps {
            let (rows, card, cost) = engine_surface(e, snapshot, b);
            assert!(rows > 0 && card > 0.0 && cost > 0.0, "{}", e.name());
        }
    }
}

/// The store paths the benchmark drives, on small inputs: the served store
/// built from both generators, its cold reopen, the update stream through a
/// writer and the log.
#[test]
fn the_store_paths_benchmark_drives_work() {
    let lubm = generate_lubm(&LubmConfig::tiny());
    let dbpedia = generate_dbpedia(&DbpediaConfig { seed: 3, ..DbpediaConfig::tiny() });
    let (lubm_len, dbpedia_len) = (lubm.len(), dbpedia.len());
    let store = build_store([lubm, dbpedia]);
    assert!(store.len() > lubm_len.max(dbpedia_len));
    let q: BenchQuery = queries_for(Dataset::Lubm).remove(0);
    assert!(!format!("{} {} {}", q.dataset, q.id, q.text).is_empty());

    let dir = std::env::temp_dir().join(format!("uo_benchmark_api_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("cold.uost");
    uo_store::save_to_file(&store, &file).unwrap();
    let cold = uo_store::load_from_file_with(&file, PagedOptions { cache_bytes: 1 << 16 })
        .unwrap()
        .snapshot();
    assert!(cold.iter().eq(store.iter()));

    let request = uo_sparql::parse_update(
        "INSERT DATA { <http://n/a> <http://n/p> <http://n/b> } ; \
         DELETE DATA { <http://n/a> <http://n/p> <http://n/b> }",
    )
    .unwrap();
    let mut direct = StoreWriter::from_snapshot(Arc::clone(&store));
    assert!(request.ops.iter().all(|op| apply_data(&mut direct, op)));
    direct.commit();
    assert_eq!(direct.snapshot().len(), store.len());
    let _: usize = direct.last_commit().rows_sorted;

    let (mut wal, _) =
        Wal::open(&dir.join("wal"), WalOptions { fsync: FsyncPolicy::Never, ..Default::default() })
            .unwrap();
    wal.append(1, uo_sparql::serialize_update(&request).as_bytes()).unwrap();
    wal.sync().unwrap();
    assert!(wal.stats().bytes > 0);

    let dict = store.dictionary();
    let term = |id: Id| dict.decode(id).expect("a stored id");
    let doc: String = store
        .iter()
        .take(100)
        .map(|t| format!("{} {} {} .\n", term(t.subject), term(t.predicate), term(t.object)))
        .collect();
    let parsed = uo_rdf::ntriples::parse_document_each(&doc, |_, _, _| {}).unwrap();
    assert_eq!(parsed, 100);
    std::fs::remove_dir_all(&dir).ok();
}
