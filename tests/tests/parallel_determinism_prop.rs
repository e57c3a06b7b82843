//! Parallel evaluation must be *bit-identical* to sequential: same rows in
//! the same order, not merely the same multiset. This is the contract that
//! makes `UO_THREADS` safe to flip on anywhere — baselines, diffing, and
//! the perf gate's deterministic metrics all rely on it.
//!
//! Property-tested on random BGPs over random stores at 2, 4 and 8 workers
//! (the satellite requirement), for both engines, plus full SPARQL-UO
//! queries (UNION/OPTIONAL) through the evaluator's parallel union fan-out.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use uo_core::{run_query_with, Parallelism, Strategy};
use uo_engine::{encode_bgp, BgpEngine, BinaryJoinEngine, CandidateSet, WcoEngine};
use uo_sparql::algebra::VarTable;
use uo_sparql::ast::{PatternTerm, TriplePattern};
use uo_store::{Snapshot, StoreWriter};

const N_ENTITIES: u32 = 20;
const N_PREDICATES: u32 = 4;
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn random_store(seed: u64, n_triples: usize) -> Arc<Snapshot> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut st = StoreWriter::new();
    for _ in 0..n_triples {
        let s = rng.gen_range(0..N_ENTITIES);
        let p = rng.gen_range(0..N_PREDICATES);
        let o = rng.gen_range(0..N_ENTITIES);
        st.insert_terms(
            &uo_rdf::Term::iri(format!("http://e{s}")),
            &uo_rdf::Term::iri(format!("http://p{p}")),
            &uo_rdf::Term::iri(format!("http://e{o}")),
        );
    }
    st.commit()
}

/// Like [`random_store`] but with integer-valued `<http://val>` triples so
/// arithmetic BINDs and aggregates operate on live numeric data.
fn random_typed_store(seed: u64, n_triples: usize) -> Arc<Snapshot> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut st = StoreWriter::new();
    for _ in 0..n_triples {
        let s = rng.gen_range(0..N_ENTITIES);
        let p = rng.gen_range(0..N_PREDICATES);
        let o = rng.gen_range(0..N_ENTITIES);
        st.insert_terms(
            &uo_rdf::Term::iri(format!("http://e{s}")),
            &uo_rdf::Term::iri(format!("http://p{p}")),
            &uo_rdf::Term::iri(format!("http://e{o}")),
        );
    }
    for _ in 0..N_ENTITIES {
        st.insert_terms(
            &uo_rdf::Term::iri(format!("http://e{}", rng.gen_range(0..N_ENTITIES))),
            &uo_rdf::Term::iri("http://val"),
            &uo_rdf::Term::typed_literal(
                format!("{}", rng.gen_range(0..50)),
                "http://www.w3.org/2001/XMLSchema#integer",
            ),
        );
    }
    st.commit()
}

/// Queries covering every construct added on top of the BGP core: BIND
/// (including term interning inside parallel UNION branches), inline
/// VALUES, expression FILTERs, grouping/aggregation with HAVING and
/// ORDER BY. Each must be bit-identical across worker counts.
const CONSTRUCT_QUERIES: [&str; 5] = [
    // BIND interning fresh terms inside both UNION branches.
    "SELECT WHERE {
        ?x <http://p0> ?y
        { ?y <http://p1> ?z BIND(STR(?z) AS ?s) } UNION { ?y <http://p2> ?z BIND(STR(?y) AS ?s) }
    }",
    // Arithmetic BIND feeding a later FILTER.
    "SELECT WHERE {
        ?x <http://p0> ?y . ?x <http://val> ?n
        BIND(?n * 2 AS ?d) FILTER(?d >= 20)
    }",
    // Inline VALUES joined against the store.
    "SELECT WHERE {
        VALUES ?x { <http://e0> <http://e1> <http://e2> <http://e3> }
        ?x <http://p0> ?y . ?x <http://val> ?n FILTER(?n + 1 > 5)
    }",
    // Grouped aggregation with HAVING over a parallel-evaluated body.
    "SELECT ?y (COUNT(*) AS ?c) (SUM(?n) AS ?s) WHERE {
        ?x <http://p0> ?y . ?x <http://val> ?n
    } GROUP BY ?y HAVING(?c >= 1) ORDER BY ?y",
    // Ungrouped aggregates collapsing a UNION fan-out.
    "SELECT (MIN(?n) AS ?lo) (MAX(?n) AS ?hi) (AVG(?n) AS ?mean) WHERE {
        { ?x <http://p0> ?y } UNION { ?x <http://p1> ?y }
        ?x <http://val> ?n
    }",
];

/// A random BGP of 1–4 triple patterns over a small variable pool, with a
/// mix of variables and constants in every position.
fn random_bgp(seed: u64) -> Vec<TriplePattern> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb67f_37a1);
    let n_patterns = rng.gen_range(1..=4);
    let n_vars = rng.gen_range(1..=4u32);
    let mut patterns = Vec::new();
    let slot = |rng: &mut StdRng, var_bias: f64, consts: u32| {
        if rng.gen_bool(var_bias) {
            PatternTerm::Var(format!("v{}", rng.gen_range(0..n_vars)))
        } else {
            PatternTerm::Const(uo_rdf::Term::iri(format!("http://e{}", rng.gen_range(0..consts))))
        }
    };
    for _ in 0..n_patterns {
        let s = slot(&mut rng, 0.8, N_ENTITIES);
        let p = if rng.gen_bool(0.85) {
            PatternTerm::Const(uo_rdf::Term::iri(format!(
                "http://p{}",
                rng.gen_range(0..N_PREDICATES)
            )))
        } else {
            PatternTerm::Var(format!("v{}", rng.gen_range(0..n_vars)))
        };
        let o = slot(&mut rng, 0.7, N_ENTITIES);
        patterns.push(TriplePattern::new(s, p, o));
    }
    patterns
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The satellite property: for random BGPs, parallel evaluation at 2, 4
    /// and 8 threads returns bags identical to sequential evaluation.
    #[test]
    fn parallel_bgp_evaluation_is_bit_identical(bgp_seed in 0u64..5000, data_seed in 0u64..500) {
        let store = random_store(data_seed, 200);
        let patterns = random_bgp(bgp_seed);
        let mut vars = VarTable::new();
        let bgp = encode_bgp(&patterns, &mut vars, store.dictionary());
        let width = vars.len();
        for engine_name in ["wco", "binary"] {
            let seq: Box<dyn BgpEngine> = match engine_name {
                "wco" => Box::new(WcoEngine::sequential()),
                _ => Box::new(BinaryJoinEngine::sequential()),
            };
            let reference = seq.evaluate(&store, &bgp, width, &CandidateSet::none());
            for &threads in &THREAD_COUNTS {
                let par: Box<dyn BgpEngine> = match engine_name {
                    "wco" => Box::new(WcoEngine::with_threads(threads)),
                    _ => Box::new(BinaryJoinEngine::with_threads(threads)),
                };
                let got = par.evaluate(&store, &bgp, width, &CandidateSet::none());
                prop_assert_eq!(
                    &got.rows, &reference.rows,
                    "{} at {} threads: row order diverged", engine_name, threads
                );
                prop_assert_eq!(got.maybe, reference.maybe);
                prop_assert_eq!(got.certain, reference.certain);
            }
        }
    }

    /// End-to-end: full SPARQL-UO queries (UNION + OPTIONAL) through
    /// `run_query_with` are bit-identical at every worker count, under every
    /// strategy.
    #[test]
    fn parallel_queries_are_bit_identical(data_seed in 0u64..300) {
        let store = random_store(data_seed, 150);
        let q = "SELECT WHERE {
            ?x <http://p0> ?y .
            { ?y <http://p1> ?z } UNION { ?y <http://p2> ?z } UNION { ?y <http://p3> ?z }
            OPTIONAL { ?z <http://p0> ?w }
        }";
        for strategy in Strategy::ALL {
            let reference = run_query_with(
                &store,
                &WcoEngine::sequential(),
                q,
                strategy,
                Parallelism::sequential(),
            )
            .unwrap();
            for &threads in &THREAD_COUNTS {
                let got = run_query_with(
                    &store,
                    &WcoEngine::with_threads(threads),
                    q,
                    strategy,
                    Parallelism::new(threads),
                )
                .unwrap();
                prop_assert_eq!(
                    &got.bag.rows, &reference.bag.rows,
                    "strategy {} at {} threads diverged", strategy, threads
                );
                prop_assert_eq!(got.join_space, reference.join_space);
                prop_assert_eq!(
                    &got.exec_stats.bgp_result_sizes,
                    &reference.exec_stats.bgp_result_sizes
                );
            }
        }
    }

    /// Budgeted execution (LIMIT/OFFSET row budget, and ORDER BY + LIMIT's
    /// bounded top-k sort) is bit-identical at 2, 4 and 8 workers, on both
    /// engines, under every strategy — early termination must not perturb
    /// the deterministic merge order, and `rows_enumerated` /
    /// `short_circuit` must themselves be worker-count-invariant.
    #[test]
    fn parallel_budgeted_queries_are_bit_identical(
        data_seed in 0u64..150,
        lim in 0usize..10,
        off in 0usize..4,
        ordered in any::<bool>(),
    ) {
        let store = random_store(data_seed, 150);
        let order = if ordered { "ORDER BY DESC(?z) ?x" } else { "" };
        let q = format!(
            "SELECT ?x ?z WHERE {{
                ?x <http://p0> ?y .
                {{ ?y <http://p1> ?z }} UNION {{ ?y <http://p2> ?z }}
            }} {order} LIMIT {lim} OFFSET {off}"
        );
        for engine_name in ["wco", "binary"] {
            for strategy in Strategy::ALL {
                let seq: Box<dyn BgpEngine> = match engine_name {
                    "wco" => Box::new(WcoEngine::sequential()),
                    _ => Box::new(BinaryJoinEngine::sequential()),
                };
                let reference =
                    run_query_with(&store, seq.as_ref(), &q, strategy, Parallelism::sequential())
                        .unwrap();
                for &threads in &THREAD_COUNTS {
                    let par: Box<dyn BgpEngine> = match engine_name {
                        "wco" => Box::new(WcoEngine::with_threads(threads)),
                        _ => Box::new(BinaryJoinEngine::with_threads(threads)),
                    };
                    let got =
                        run_query_with(&store, par.as_ref(), &q, strategy, Parallelism::new(threads))
                            .unwrap();
                    prop_assert_eq!(
                        &got.results, &reference.results,
                        "{} strategy {} at {} threads: budgeted results diverged\nquery:\n{}",
                        engine_name, strategy, threads, &q
                    );
                    prop_assert_eq!(
                        got.exec_stats.rows_enumerated, reference.exec_stats.rows_enumerated,
                        "{} strategy {} at {} threads: rows_enumerated not deterministic",
                        engine_name, strategy, threads
                    );
                    prop_assert_eq!(
                        got.exec_stats.short_circuit, reference.exec_stats.short_circuit,
                        "{} strategy {} at {} threads: short_circuit not deterministic",
                        engine_name, strategy, threads
                    );
                }
            }
        }
    }

    /// BIND, VALUES, expression FILTERs and aggregates are bit-identical —
    /// same bag rows *and* same decoded result rows — at 2, 4 and 8
    /// workers, on both engines, under every strategy. This pins the
    /// synthetic-term interning order, which parallel fan-out must not
    /// perturb.
    #[test]
    fn parallel_constructs_are_bit_identical(
        data_seed in 0u64..200,
        q_idx in 0usize..CONSTRUCT_QUERIES.len(),
    ) {
        let store = random_typed_store(data_seed, 120);
        let q = CONSTRUCT_QUERIES[q_idx];
        for engine_name in ["wco", "binary"] {
            for strategy in Strategy::ALL {
                let seq: Box<dyn BgpEngine> = match engine_name {
                    "wco" => Box::new(WcoEngine::sequential()),
                    _ => Box::new(BinaryJoinEngine::sequential()),
                };
                let reference =
                    run_query_with(&store, seq.as_ref(), q, strategy, Parallelism::sequential())
                        .unwrap();
                for &threads in &THREAD_COUNTS {
                    let par: Box<dyn BgpEngine> = match engine_name {
                        "wco" => Box::new(WcoEngine::with_threads(threads)),
                        _ => Box::new(BinaryJoinEngine::with_threads(threads)),
                    };
                    let got =
                        run_query_with(&store, par.as_ref(), q, strategy, Parallelism::new(threads))
                            .unwrap();
                    prop_assert_eq!(
                        &got.bag.rows, &reference.bag.rows,
                        "{} strategy {} at {} threads: bag rows diverged on query {}",
                        engine_name, strategy, threads, q_idx
                    );
                    prop_assert_eq!(
                        &got.results, &reference.results,
                        "{} strategy {} at {} threads: decoded rows diverged on query {}",
                        engine_name, strategy, threads, q_idx
                    );
                }
            }
        }
    }
}
