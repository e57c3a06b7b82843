//! Property-based tests for the triple store: every pattern shape must agree
//! with a naive scan over the inserted triples.

use proptest::prelude::*;
use std::sync::Arc;
use uo_par::Parallelism;
use uo_rdf::{Dictionary, Id, Triple};
use uo_store::Snapshot;

fn arb_triples() -> impl Strategy<Value = Vec<[Id; 3]>> {
    prop::collection::vec(((1u32..8), (1u32..5), (1u32..8)).prop_map(|(s, p, o)| [s, p, o]), 0..60)
}

fn naive_count(triples: &[[Id; 3]], s: Option<Id>, p: Option<Id>, o: Option<Id>) -> usize {
    let mut uniq: Vec<[Id; 3]> = triples.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    uniq.iter()
        .filter(|t| {
            s.is_none_or(|s| t[0] == s)
                && p.is_none_or(|p| t[1] == p)
                && o.is_none_or(|o| t[2] == o)
        })
        .count()
}

fn build(triples: &[[Id; 3]]) -> Snapshot {
    // Ids must exist in the dictionary for decode-based stats; encode dummy
    // terms so ids 1..8 are valid.
    let mut dict = Dictionary::new();
    for i in 0..8 {
        dict.encode(&uo_rdf::Term::iri(format!("http://t{i}")));
    }
    Snapshot::build_from(Arc::new(dict), triples.to_vec(), 1, Parallelism::from_env())
}

proptest! {
    #[test]
    fn counts_match_naive_scan(
        triples in arb_triples(),
        s in prop::option::of(1u32..8),
        p in prop::option::of(1u32..5),
        o in prop::option::of(1u32..8),
    ) {
        let st = build(&triples);
        prop_assert_eq!(st.count_pattern(s, p, o), naive_count(&triples, s, p, o));
    }

    #[test]
    fn matches_have_correct_components(
        triples in arb_triples(),
        s in prop::option::of(1u32..8),
        p in prop::option::of(1u32..5),
        o in prop::option::of(1u32..8),
    ) {
        let st = build(&triples);
        for [ms, mp, mo] in st.match_pattern(s, p, o).iter_spo() {
            if let Some(s) = s { prop_assert_eq!(ms, s); }
            if let Some(p) = p { prop_assert_eq!(mp, p); }
            if let Some(o) = o { prop_assert_eq!(mo, o); }
            prop_assert!(st.contains(Triple::new(ms, mp, mo)));
        }
    }

    #[test]
    fn full_scan_is_sorted_and_deduped(triples in arb_triples()) {
        let st = build(&triples);
        let all: Vec<[Id; 3]> = st.match_pattern(None, None, None).iter_spo().collect();
        let mut expected: Vec<[Id; 3]> = triples.clone();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(all, expected);
    }

    #[test]
    fn stats_triples_equals_len(triples in arb_triples()) {
        let st = build(&triples);
        prop_assert_eq!(st.stats().triples, st.len());
    }

    #[test]
    fn predicate_stats_sum_to_total(triples in arb_triples()) {
        let st = build(&triples);
        let total: usize = (1u32..5)
            .filter_map(|p| st.stats().predicate(p).map(|ps| ps.count))
            .sum();
        prop_assert_eq!(total, st.len());
    }
}
