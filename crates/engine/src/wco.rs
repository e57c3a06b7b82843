//! gStore-style BGP evaluation: worst-case-optimal vertex-at-a-time
//! extension joins.
//!
//! Partial matches are extended one triple pattern at a time in the greedy
//! order of [`join_order`]. Because every pattern after the seed has
//! at least one endpoint already bound, each extension is an index range
//! scan keyed by the bound endpoint — the "scan all edges labelled `p`
//! incident to the existing vertices" step of the paper's WCO description —
//! and patterns whose variables are all bound by earlier steps degenerate to
//! existence filters (intersection). The cost of extending prefix
//! `{v1..vk-1}` by `vk` is `card({v1..vk-1}) × min_i average_size(v_i, p)`
//! (Section 5.1.2).

use crate::estimate::{join_order, scan_counts, Estimator};
use crate::pattern::{CandidateSet, EncodedBgp};
use crate::{BgpEngine, BgpEstimate};
use uo_par::Parallelism;
use uo_rdf::Id;
use uo_sparql::algebra::Bag;
use uo_store::Snapshot;

/// Minimum partial matches at an extension level before the WCO engine fans
/// out to workers; below this, thread spawns outweigh the per-row scans.
const WCO_PAR_THRESHOLD: usize = 64;

/// The worst-case-optimal join engine (the paper's gStore stand-in).
///
/// With more than one worker, each extension level partitions the current
/// partial matches into contiguous chunks evaluated concurrently; per-chunk
/// results are concatenated in chunk order, so parallel evaluation is
/// bit-identical to sequential.
#[derive(Debug, Clone, Copy)]
pub struct WcoEngine {
    threads: usize,
}

impl WcoEngine {
    /// Creates the engine with the worker count of the `UO_THREADS`
    /// environment knob (falling back to the host's parallelism; `1` =
    /// sequential).
    pub fn new() -> Self {
        Self::with_threads(Parallelism::from_env().threads())
    }

    /// Creates the engine with an explicit worker count (`1` = sequential).
    pub fn with_threads(threads: usize) -> Self {
        WcoEngine { threads: threads.max(1) }
    }

    /// A strictly sequential engine.
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }
}

impl Default for WcoEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl BgpEngine for WcoEngine {
    fn name(&self) -> &'static str {
        "wco"
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

    /// Early-terminating evaluation: the budget caps only the *last*
    /// extension level (or the seed scan of a single-pattern BGP); earlier
    /// levels enumerate in full so the extension order is unchanged and the
    /// result is the uncapped bag's first `limit` rows — bit-identical at
    /// any worker count (per-chunk caps + in-order truncating concat).
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
        let mask = bgp.var_mask();
        if limit == 0 {
            return Bag { width, maybe: mask, certain: 0, rows: Vec::new() };
        }
        let par = Parallelism::new(self.threads);
        let order = join_order(bgp, &scan_counts(store, bgp));
        let last = order.len() - 1;
        // Seed: partition the first pattern's candidate range across workers
        // (the shared scan primitive; later levels partition the
        // partial-match vector instead).
        let seed = &bgp.patterns[order[0]];
        let seed_cap = if last == 0 { limit } else { usize::MAX };
        let mut rows: Vec<Box<[Id]>> =
            crate::binary::scan_pattern_limited(store, seed, width, candidates, par, seed_cap).rows;
        for (level, idx) in order.into_iter().enumerate().skip(1) {
            if rows.is_empty() {
                break;
            }
            let cap = if level == last { limit } else { usize::MAX };
            // Each extension does a full index scan per row, so fan out even
            // for modest row counts — but not for trivial ones, where thread
            // spawns cost more than the scans.
            let level_par =
                if rows.len() < WCO_PAR_THRESHOLD { Parallelism::sequential() } else { par };
            let pat = &bgp.patterns[idx];
            let pieces = uo_par::map_chunks(level_par, &rows, |chunk| {
                let mut next: Vec<Box<[Id]>> = Vec::new();
                'rows: for row in chunk {
                    let s = pat.s.resolve(row);
                    let p = pat.p.resolve(row);
                    let o = pat.o.resolve(row);
                    for spo in store.match_pattern(s, p, o).iter_spo() {
                        if let Some(ext) = pat.bind(spo, row) {
                            if candidates.admits_row(&ext) {
                                next.push(ext);
                                if next.len() >= cap {
                                    break 'rows;
                                }
                            }
                        }
                    }
                }
                next
            });
            rows = uo_par::concat_capped(pieces, cap);
        }
        Bag { width, maybe: mask, certain: if rows.is_empty() { 0 } else { mask }, rows }
    }

    fn estimate(&self, store: &Snapshot, bgp: &EncodedBgp) -> BgpEstimate {
        let sketch = Estimator::sketch(store, bgp);
        let mut cost = 0.0;
        for step in &sketch.steps {
            if step.is_seed {
                cost += step.scan_count as f64; // seeding scans the range
            } else {
                cost += step.card_before * step.min_avg_size; // WCO extension
            }
        }
        BgpEstimate { cardinality: sketch.cardinality, cost, order: sketch.order() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::encode_bgp;
    use crate::BinaryJoinEngine;
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

    /// A two-level tree: root -> 10 children -> 10 grandchildren each, plus
    /// labels on leaves.
    fn store() -> Arc<Snapshot> {
        let mut st = StoreWriter::new();
        let child = Term::iri("http://child");
        let label = Term::iri("http://label");
        for i in 0..10 {
            st.insert_terms(&Term::iri("http://root"), &child, &Term::iri(format!("http://c{i}")));
            for j in 0..10 {
                st.insert_terms(
                    &Term::iri(format!("http://c{i}")),
                    &child,
                    &Term::iri(format!("http://g{i}_{j}")),
                );
                st.insert_terms(
                    &Term::iri(format!("http://g{i}_{j}")),
                    &label,
                    &Term::literal(format!("leaf {i} {j}")),
                );
            }
        }
        st.commit()
    }

    #[test]
    fn two_hop_traversal() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(
            &[
                tp("http://root", "http://child", "?c"),
                tp("?c", "http://child", "?g"),
                tp("?g", "http://label", "?l"),
            ],
            &mut vt,
            st.dictionary(),
        );
        let bag = WcoEngine::new().evaluate(&st, &bgp, vt.len(), &CandidateSet::none());
        assert_eq!(bag.len(), 100);
    }

    #[test]
    fn agrees_with_binary_join_engine() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(
            &[tp("?a", "http://child", "?b"), tp("?b", "http://child", "?c")],
            &mut vt,
            st.dictionary(),
        );
        let w = WcoEngine::new().evaluate(&st, &bgp, vt.len(), &CandidateSet::none());
        let b = BinaryJoinEngine::new().evaluate(&st, &bgp, vt.len(), &CandidateSet::none());
        assert_eq!(w.canonicalized(), b.canonicalized());
    }

    #[test]
    fn candidate_pruning_restricts_results() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(&[tp("?c", "http://child", "?g")], &mut vt, st.dictionary());
        let c3 = st.dictionary().lookup(&Term::iri("http://c3")).unwrap();
        let mut cs = CandidateSet::none();
        cs.restrict(vt.get("c").unwrap(), vec![c3]);
        let bag = WcoEngine::new().evaluate(&st, &bgp, vt.len(), &cs);
        assert_eq!(bag.len(), 10);
    }

    #[test]
    fn cartesian_components() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(
            &[tp("http://root", "http://child", "?a"), tp("http://c0", "http://child", "?b")],
            &mut vt,
            st.dictionary(),
        );
        let bag = WcoEngine::new().evaluate(&st, &bgp, vt.len(), &CandidateSet::none());
        assert_eq!(bag.len(), 100, "10 × 10 cartesian");
    }

    #[test]
    fn fully_bound_pattern_is_filter() {
        let st = store();
        let mut vt = VarTable::new();
        // ?c must be a child of root AND have c3 as itself (via existence of
        // the root->c3 edge expressed with consts).
        let bgp = encode_bgp(
            &[tp("http://root", "http://child", "?c"), tp("?c", "http://child", "http://g3_7")],
            &mut vt,
            st.dictionary(),
        );
        let bag = WcoEngine::new().evaluate(&st, &bgp, vt.len(), &CandidateSet::none());
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn evaluate_limited_is_exact_prefix_both_engines() {
        let st = store();
        let mut vt = VarTable::new();
        // Multi-pattern (final level capped) and single-pattern (seed scan
        // capped) shapes.
        let multi = encode_bgp(
            &[tp("?a", "http://child", "?b"), tp("?b", "http://child", "?c")],
            &mut vt,
            st.dictionary(),
        );
        let single = encode_bgp(&[tp("?c", "http://child", "?g")], &mut vt, st.dictionary());
        for threads in [1usize, 2, 4] {
            let engines: [Box<dyn BgpEngine>; 2] = [
                Box::new(WcoEngine::with_threads(threads)),
                Box::new(BinaryJoinEngine::with_threads(threads)),
            ];
            for engine in &engines {
                for bgp in [&multi, &single] {
                    let full = engine.evaluate(&st, bgp, vt.len(), &CandidateSet::none());
                    assert!(full.len() > 10);
                    for limit in [0usize, 1, 7, full.len(), full.len() + 5] {
                        let capped = engine.evaluate_limited(
                            &st,
                            bgp,
                            vt.len(),
                            &CandidateSet::none(),
                            limit,
                        );
                        assert_eq!(
                            capped.rows.as_slice(),
                            &full.rows[..limit.min(full.len())],
                            "{} threads={threads} limit={limit}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wco_cost_grows_with_fanout() {
        let st = store();
        let mut vt = VarTable::new();
        let narrow =
            encode_bgp(&[tp("http://root", "http://child", "?c")], &mut vt, st.dictionary());
        let wide = encode_bgp(
            &[tp("?a", "http://child", "?b"), tp("?b", "http://child", "?c")],
            &mut vt,
            st.dictionary(),
        );
        let e = WcoEngine::new();
        assert!(e.estimate_cost(&st, &narrow) < e.estimate_cost(&st, &wide));
    }
}
