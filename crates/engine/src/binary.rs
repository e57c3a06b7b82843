//! Jena-style BGP evaluation: scan each triple pattern into a relation and
//! combine relations with cost-ordered hash joins.

use crate::estimate::{join_order, scan_counts, Estimator};
use crate::pattern::{CandidateSet, EncodedBgp, EncodedTriplePattern};
use crate::{BgpEngine, BgpEstimate};
use uo_par::Parallelism;
use uo_rdf::{Id, NO_ID};
use uo_sparql::algebra::Bag;
use uo_store::Snapshot;

/// The binary hash-join engine (the paper's Jena stand-in).
///
/// Each triple pattern is materialized by an index scan; relations are then
/// combined left-deep in the greedy order of [`join_order`] using the
/// bag-semantics hash join of `uo_sparql::algebra`. Its cost model is
/// Equation 9: `2·min(card(V1), card(V2)) + max(card(V1), card(V2))`
/// (hash-build twice-weighted plus probe).
///
/// With more than one worker, pattern scans partition their index range and
/// joins partition their probe side ([`Bag::join_par`]); both merge
/// per-worker results in chunk order, so parallel evaluation is
/// bit-identical to sequential.
#[derive(Debug, Clone, Copy)]
pub struct BinaryJoinEngine {
    threads: usize,
}

impl BinaryJoinEngine {
    /// Creates the engine with the worker count of the `UO_THREADS`
    /// environment knob (falling back to the host's parallelism; `1` =
    /// sequential).
    pub fn new() -> Self {
        Self::with_threads(Parallelism::from_env().threads())
    }

    /// Creates the engine with an explicit worker count (`1` = sequential).
    pub fn with_threads(threads: usize) -> Self {
        BinaryJoinEngine { threads: threads.max(1) }
    }

    /// A strictly sequential engine.
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }
}

impl Default for BinaryJoinEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Scans one triple pattern into a bag of rows over a `width`-variable frame,
/// applying candidate restrictions during the scan.
pub fn scan_pattern(
    store: &Snapshot,
    pat: &EncodedTriplePattern,
    width: usize,
    candidates: &CandidateSet,
) -> Bag {
    scan_pattern_par(store, pat, width, candidates, Parallelism::sequential())
}

/// Minimum index-range rows before [`scan_pattern_par`] fans out to
/// workers; per-row bind/filter work is cheap, so small ranges run inline.
const SCAN_PAR_THRESHOLD: usize = 4096;

/// [`scan_pattern`] with the index range partitioned across workers.
/// Per-chunk rows concatenate in range order, identical to the sequential
/// scan.
pub fn scan_pattern_par(
    store: &Snapshot,
    pat: &EncodedTriplePattern,
    width: usize,
    candidates: &CandidateSet,
    par: Parallelism,
) -> Bag {
    scan_pattern_limited(store, pat, width, candidates, par, usize::MAX)
}

/// [`scan_pattern_par`] under a row budget: exactly the first `cap` rows
/// (in index-range order) of the uncapped scan, at any worker count. Each
/// chunk stops binding once it holds `cap` rows and the in-order
/// concatenation is truncated ([`uo_par::concat_capped`]).
pub fn scan_pattern_limited(
    store: &Snapshot,
    pat: &EncodedTriplePattern,
    width: usize,
    candidates: &CandidateSet,
    par: Parallelism,
    cap: usize,
) -> Bag {
    let mask = pat.var_mask();
    if cap == 0 {
        return Bag { width, maybe: mask, certain: 0, rows: Vec::new() };
    }
    let empty: Box<[Id]> = vec![NO_ID; width].into_boxed_slice();
    let matches = store.match_pattern(pat.s.as_const(), pat.p.as_const(), pat.o.as_const());
    let par = if matches.len() < SCAN_PAR_THRESHOLD { Parallelism::sequential() } else { par };
    let kind = matches.kind;
    let pieces = uo_par::map_chunks(par, matches.rows(), |chunk| {
        let mut out: Vec<Box<[Id]>> = Vec::new();
        for &permuted in chunk {
            if let Some(row) = pat.bind(kind.to_spo(permuted), &empty) {
                if candidates.admits_row(&row) {
                    out.push(row);
                    if out.len() >= cap {
                        break;
                    }
                }
            }
        }
        out
    });
    let rows = uo_par::concat_capped(pieces, cap);
    Bag { width, maybe: mask, certain: if rows.is_empty() { 0 } else { mask }, rows }
}

impl BgpEngine for BinaryJoinEngine {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn evaluate(
        &self,
        store: &Snapshot,
        bgp: &EncodedBgp,
        width: usize,
        candidates: &CandidateSet,
    ) -> Bag {
        self.evaluate_limited(store, bgp, width, candidates, usize::MAX)
    }

    /// Early-terminating evaluation: the budget caps only the *final*
    /// output-producing stage — the last join of a multi-pattern BGP, or
    /// the scan itself for a single pattern. Intermediate relations are
    /// materialized in full so the join order, build-side choices, and
    /// therefore row order match the uncapped run exactly; the result is
    /// the uncapped bag's first `limit` rows.
    fn evaluate_limited(
        &self,
        store: &Snapshot,
        bgp: &EncodedBgp,
        width: usize,
        candidates: &CandidateSet,
        limit: usize,
    ) -> Bag {
        if bgp.patterns.is_empty() {
            let mut unit = Bag::unit(width);
            unit.truncate(limit);
            return unit;
        }
        let par = Parallelism::new(self.threads);
        let order = join_order(bgp, &scan_counts(store, bgp));
        let last = order.len() - 1;
        let mut acc: Option<Bag> = None;
        for (step, idx) in order.into_iter().enumerate() {
            let cap = if step == last { limit } else { usize::MAX };
            let rel = if step == 0 {
                // The seed doubles as the output for single-pattern BGPs.
                scan_pattern_limited(store, &bgp.patterns[idx], width, candidates, par, cap)
            } else {
                scan_pattern_par(store, &bgp.patterns[idx], width, candidates, par)
            };
            acc = Some(match acc {
                None => rel,
                Some(prev) => {
                    if prev.is_empty() {
                        // Join with anything stays empty; skip the scan work
                        // of later patterns' joins (the scan above was still
                        // needed to keep this branch simple and correct).
                        prev
                    } else {
                        prev.join_par_capped(&rel, par, cap)
                    }
                }
            });
        }
        acc.unwrap_or_else(|| Bag::unit(width))
    }

    fn estimate(&self, store: &Snapshot, bgp: &EncodedBgp) -> BgpEstimate {
        let sketch = Estimator::sketch(store, bgp);
        let mut cost = 0.0;
        for (i, step) in sketch.steps.iter().enumerate() {
            let scan = step.scan_count as f64;
            cost += scan; // materializing the relation
            if i > 0 {
                let a = step.card_before;
                let b = scan;
                cost += 2.0 * a.min(b) + a.max(b); // Equation 9
            }
        }
        BgpEstimate { cardinality: sketch.cardinality, cost, order: sketch.order() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::encode_bgp;
    use std::sync::Arc;
    use uo_rdf::Term;
    use uo_sparql::algebra::VarTable;
    use uo_sparql::ast::{PatternTerm, TriplePattern};
    use uo_store::{Snapshot, StoreWriter};

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        let conv = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                PatternTerm::Var(v.to_string())
            } else {
                PatternTerm::Const(Term::iri(x))
            }
        };
        TriplePattern::new(conv(s), conv(p), conv(o))
    }

    fn store() -> Arc<Snapshot> {
        let mut st = StoreWriter::new();
        // Star: alice knows bob, carol; bob knows carol; names for all.
        let knows = Term::iri("http://knows");
        let name = Term::iri("http://name");
        for (s, o) in [("alice", "bob"), ("alice", "carol"), ("bob", "carol")] {
            st.insert_terms(
                &Term::iri(format!("http://{s}")),
                &knows,
                &Term::iri(format!("http://{o}")),
            );
        }
        for n in ["alice", "bob", "carol"] {
            st.insert_terms(&Term::iri(format!("http://{n}")), &name, &Term::literal(n));
        }
        st.commit()
    }

    #[test]
    fn evaluates_single_pattern() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(&[tp("?x", "http://knows", "?y")], &mut vt, st.dictionary());
        let bag = BinaryJoinEngine::new().evaluate(&st, &bgp, vt.len(), &CandidateSet::none());
        assert_eq!(bag.len(), 3);
        assert_eq!(bag.certain, 0b11);
    }

    #[test]
    fn evaluates_join() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(
            &[tp("?x", "http://knows", "?y"), tp("?y", "http://name", "?n")],
            &mut vt,
            st.dictionary(),
        );
        let bag = BinaryJoinEngine::new().evaluate(&st, &bgp, vt.len(), &CandidateSet::none());
        assert_eq!(bag.len(), 3);
    }

    #[test]
    fn candidates_prune_scan() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(&[tp("?x", "http://knows", "?y")], &mut vt, st.dictionary());
        let alice = st.dictionary().lookup(&Term::iri("http://alice")).unwrap();
        let mut cs = CandidateSet::none();
        cs.restrict(vt.get("x").unwrap(), vec![alice]);
        let bag = BinaryJoinEngine::new().evaluate(&st, &bgp, vt.len(), &cs);
        assert_eq!(bag.len(), 2);
    }

    #[test]
    fn empty_bgp_yields_unit() {
        let st = store();
        let bag =
            BinaryJoinEngine::new().evaluate(&st, &EncodedBgp::default(), 3, &CandidateSet::none());
        assert!(bag.is_unit());
    }

    #[test]
    fn dead_constant_yields_empty() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(&[tp("?x", "http://nope", "?y")], &mut vt, st.dictionary());
        let bag = BinaryJoinEngine::new().evaluate(&st, &bgp, vt.len(), &CandidateSet::none());
        assert!(bag.is_empty());
    }

    #[test]
    fn repeated_var_pattern() {
        let mut st = StoreWriter::new();
        st.insert_terms(&Term::iri("http://a"), &Term::iri("http://p"), &Term::iri("http://a"));
        st.insert_terms(&Term::iri("http://a"), &Term::iri("http://p"), &Term::iri("http://b"));
        let st = st.commit();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(&[tp("?x", "http://p", "?x")], &mut vt, st.dictionary());
        let bag = BinaryJoinEngine::new().evaluate(&st, &bgp, vt.len(), &CandidateSet::none());
        assert_eq!(bag.len(), 1, "only the self-loop matches ?x p ?x");
    }

    #[test]
    fn cost_positive_and_orders_sanely() {
        let st = store();
        let mut vt = VarTable::new();
        let small =
            encode_bgp(&[tp("http://alice", "http://name", "?n")], &mut vt, st.dictionary());
        let big = encode_bgp(
            &[tp("?x", "http://knows", "?y"), tp("?y", "http://name", "?n")],
            &mut vt,
            st.dictionary(),
        );
        let e = BinaryJoinEngine::new();
        assert!(e.estimate_cost(&st, &small) < e.estimate_cost(&st, &big));
    }
}
