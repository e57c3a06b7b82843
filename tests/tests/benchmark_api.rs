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
use uo_engine::{BgpEngine, BinaryJoinEngine, CandidateSet, EncodedBgp, WcoEngine};
use uo_rdf::Term;
use uo_server::{EngineChoice, ServerConfig, ServerHandle};
use uo_sparql::algebra::Bag;
use uo_sparql::ast::Query;
use uo_sparql::{ParseError, UpdateRequest};
use uo_store::{DurableError, DurableOptions, DurableStore, Snapshot, StoreWriter};

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
    let mut st = uo_store::TripleStore::new();
    st.load_ntriples("<http://a> <http://p> <http://b> .\n<http://b> <http://q> \"x\" .\n")
        .unwrap();
    st.build();
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
