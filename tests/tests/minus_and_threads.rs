//! MINUS semantics end-to-end, and thread-safety of the shared store:
//! concurrent queries over one `TripleStore` must behave identically to
//! sequential execution.

use std::sync::Arc;
use uo_core::{run_query, Strategy};
use uo_engine::{BinaryJoinEngine, WcoEngine};
use uo_store::{Snapshot, StoreWriter};

fn store() -> Arc<Snapshot> {
    let mut st = StoreWriter::new();
    st.load_ntriples(
        r#"
<http://e/a> <http://p/knows> <http://e/b> .
<http://e/b> <http://p/knows> <http://e/c> .
<http://e/c> <http://p/knows> <http://e/a> .
<http://e/a> <http://p/blocked> <http://e/b> .
"#,
    )
    .unwrap();
    st.commit()
}

#[test]
fn minus_removes_matching_rows() {
    let st = store();
    let wco = WcoEngine::new();
    let r = run_query(
        &st,
        &wco,
        "SELECT ?x ?y WHERE { ?x <http://p/knows> ?y MINUS { ?x <http://p/blocked> ?y } }",
        Strategy::Base,
    )
    .unwrap();
    assert_eq!(r.results.len(), 2, "a→b removed by MINUS");
}

#[test]
fn minus_with_disjoint_domain_removes_nothing() {
    let st = store();
    let wco = WcoEngine::new();
    let r = run_query(
        &st,
        &wco,
        "SELECT ?x ?y WHERE { ?x <http://p/knows> ?y MINUS { ?u <http://p/blocked> ?v } }",
        Strategy::Base,
    )
    .unwrap();
    assert_eq!(r.results.len(), 3, "dom-disjoint MINUS is a no-op");
}

#[test]
fn minus_agrees_across_strategies_and_engines() {
    let st = store();
    let q = "SELECT WHERE {
        ?x <http://p/knows> ?y .
        OPTIONAL { ?y <http://p/knows> ?z }
        MINUS { ?x <http://p/blocked> ?y }
    }";
    let wco = WcoEngine::new();
    let bin = BinaryJoinEngine::new();
    let reference = run_query(&st, &wco, q, Strategy::Base).unwrap();
    for strategy in Strategy::ALL {
        for engine in [&wco as &dyn uo_engine::BgpEngine, &bin] {
            let r = run_query(&st, engine, q, strategy).unwrap();
            assert_eq!(r.bag.canonicalized(), reference.bag.canonicalized());
        }
    }
    // The binary-tree baseline agrees too.
    let prepared = uo_core::prepare(&st, q).unwrap();
    let (bt, _) = uo_core::evaluate_binary_tree(&prepared.tree, &st, prepared.vars.len());
    assert_eq!(bt.canonicalized(), reference.bag.canonicalized());
}

#[test]
fn concurrent_queries_on_shared_store() {
    let st = Arc::new(uo_datagen::generate_lubm(&uo_datagen::LubmConfig::tiny()));
    let queries: Vec<&'static str> =
        uo_datagen::lubm_queries().into_iter().filter(|q| q.group == 1).map(|q| q.text).collect();
    // Sequential reference.
    let wco = WcoEngine::new();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| run_query(&st, &wco, q, Strategy::Full).unwrap().bag.canonicalized())
        .collect();
    // 6 queries × 3 threads each, all sharing the store.
    let mut handles = Vec::new();
    for round in 0..3 {
        for (i, q) in queries.iter().enumerate() {
            let st = Arc::clone(&st);
            let q = *q;
            handles.push(std::thread::spawn(move || {
                let engine = WcoEngine::new();
                let strategy = match round {
                    0 => Strategy::Base,
                    1 => Strategy::CandidatePruning,
                    _ => Strategy::Full,
                };
                (i, run_query(&st, &engine, q, strategy).unwrap().bag.canonicalized())
            }));
        }
    }
    for h in handles {
        let (i, got) = h.join().expect("thread panicked");
        assert_eq!(got, expected[i], "concurrent result diverged on query {i}");
    }
}
