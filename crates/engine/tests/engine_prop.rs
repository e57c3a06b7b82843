//! Property-based tests at the BGP-engine level: on random BGPs over random
//! stores, both engines must agree with a brute-force reference evaluator
//! (nested compatibility scan over all triples), and candidate restriction
//! must equal post-filtering.

use proptest::prelude::*;
use std::sync::Arc;
use uo_engine::{encode_bgp, BgpEngine, BinaryJoinEngine, CandidateSet, WcoEngine};
use uo_rdf::{Id, Term, NO_ID};
use uo_sparql::algebra::{Bag, VarTable};
use uo_sparql::ast::{PatternTerm, TriplePattern};
use uo_store::{Snapshot, StoreWriter};

const N_ENT: u32 = 12;
const N_PRED: u32 = 3;

fn arb_store() -> impl Strategy<Value = Arc<Snapshot>> {
    prop::collection::vec(((0u32..N_ENT), (0u32..N_PRED), (0u32..N_ENT)), 0..80).prop_map(
        |triples| {
            let mut st = StoreWriter::new();
            for (s, p, o) in triples {
                st.insert_terms(
                    &Term::iri(format!("http://e{s}")),
                    &Term::iri(format!("http://p{p}")),
                    &Term::iri(format!("http://e{o}")),
                );
            }
            st.commit()
        },
    )
}

/// A random BGP of 1–3 patterns over ≤ 4 variables; patterns after the first
/// reuse an existing variable so the BGP stays connected.
#[derive(Debug, Clone)]
struct RawBgp(Vec<(u8, u32, u8)>); // (s-slot, predicate, o-slot); slot < 4 = var id, ≥ 4 = entity const

fn arb_bgp() -> impl Strategy<Value = RawBgp> {
    prop::collection::vec(((0u8..8), (0u32..N_PRED), (0u8..8)), 1..4).prop_map(|mut pats| {
        // Force connectivity: pattern i > 0 reuses pattern 0's subject slot
        // when both of its slots would be constants or fresh vars.
        if let Some(first) = pats.first().copied() {
            for p in pats.iter_mut().skip(1) {
                if p.0 >= 4 && p.2 >= 4 {
                    p.0 = first.0;
                }
            }
        }
        RawBgp(pats)
    })
}

fn to_ast(raw: &RawBgp) -> Vec<TriplePattern> {
    let slot = |x: u8| {
        if x < 4 {
            PatternTerm::Var(format!("v{x}"))
        } else {
            PatternTerm::Const(Term::iri(format!("http://e{}", x - 4)))
        }
    };
    raw.0
        .iter()
        .map(|&(s, p, o)| {
            TriplePattern::new(
                slot(s),
                PatternTerm::Const(Term::iri(format!("http://p{p}"))),
                slot(o),
            )
        })
        .collect()
}

/// Brute force: nested scan with compatibility.
fn naive_eval(store: &Snapshot, patterns: &[TriplePattern], vars: &mut VarTable) -> Bag {
    let enc = encode_bgp(patterns, vars, store.dictionary());
    let width = vars.len().max(1);
    let mut rows: Vec<Box<[Id]>> = vec![vec![NO_ID; width].into_boxed_slice()];
    for pat in &enc.patterns {
        let mut next = Vec::new();
        for row in &rows {
            for spo in store.match_pattern(None, None, None).iter_spo() {
                if let Some(ext) = pat.bind(spo, row) {
                    next.push(ext);
                }
            }
        }
        rows = next;
    }
    Bag::from_rows(width, rows)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn engines_agree_with_naive(store in arb_store(), raw in arb_bgp()) {
        let patterns = to_ast(&raw);
        let mut vars = VarTable::new();
        let expected = naive_eval(&store, &patterns, &mut vars);
        let mut vt2 = VarTable::new();
        let enc = encode_bgp(&patterns, &mut vt2, store.dictionary());
        let width = vt2.len().max(1);
        let wco = WcoEngine::new().evaluate(&store, &enc, width, &CandidateSet::none());
        let bin = BinaryJoinEngine::new().evaluate(&store, &enc, width, &CandidateSet::none());
        prop_assert_eq!(wco.canonicalized(), expected.canonicalized());
        prop_assert_eq!(bin.canonicalized(), expected.canonicalized());
    }

    #[test]
    fn candidates_equal_post_filter(store in arb_store(), raw in arb_bgp(), cand_ent in prop::collection::vec(0u32..N_ENT, 1..5)) {
        let patterns = to_ast(&raw);
        let mut vars = VarTable::new();
        let enc = encode_bgp(&patterns, &mut vars, store.dictionary());
        let width = vars.len().max(1);
        let Some(v0) = vars.get("v0") else { return Ok(()) };
        let ids: Vec<Id> = cand_ent
            .iter()
            .filter_map(|e| store.dictionary().lookup(&Term::iri(format!("http://e{e}"))))
            .collect();
        let mut cs = CandidateSet::none();
        cs.restrict(v0, ids.clone());
        let mut sorted = ids;
        sorted.sort_unstable();
        sorted.dedup();
        for engine in [&WcoEngine::new() as &dyn BgpEngine, &BinaryJoinEngine::new()] {
            let unrestricted = engine.evaluate(&store, &enc, width, &CandidateSet::none());
            let restricted = engine.evaluate(&store, &enc, width, &cs);
            let filtered: Vec<Box<[Id]>> = {
                let mut rows: Vec<Box<[Id]>> = unrestricted
                    .rows
                    .iter()
                    .filter(|r| {
                        let x = r[v0 as usize];
                        x == NO_ID || sorted.binary_search(&x).is_ok()
                    })
                    .cloned()
                    .collect();
                rows.sort_unstable();
                rows
            };
            prop_assert_eq!(restricted.canonicalized(), filtered, "engine {}", engine.name());
        }
    }

    #[test]
    fn cardinality_estimate_positive_iff_results(store in arb_store(), raw in arb_bgp()) {
        let patterns = to_ast(&raw);
        let mut vars = VarTable::new();
        let enc = encode_bgp(&patterns, &mut vars, store.dictionary());
        let width = vars.len().max(1);
        let wco = WcoEngine::new();
        let actual = wco.evaluate(&store, &enc, width, &CandidateSet::none()).len();
        let est = wco.estimate_cardinality(&store, &enc);
        prop_assert!(est >= 0.0);
        if actual > 0 {
            prop_assert!(est > 0.0, "estimate 0 but {actual} results");
        }
        // The cost is finite and non-negative.
        let cost = wco.estimate_cost(&store, &enc);
        prop_assert!(cost.is_finite() && cost >= 0.0);
    }
}
