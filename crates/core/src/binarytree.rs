//! The binary-tree-expression baseline of Section 4 (Figure 3).
//!
//! The paper motivates BGP-based evaluation by contrasting it with the
//! "most straightforward approach": evaluate the query bottom-up on its
//! *binary tree expression*, where every leaf is a single triple pattern
//! materialized independently and every internal node is an `AND` / `UNION`
//! / `OPTIONAL` operator over full intermediate results. No join ordering,
//! no BGP grouping — each triple pattern (like Figure 3's unselective
//! `?x dbp:birthDate ?birth`) is scanned in full before any join.
//!
//! This evaluator exists to *reproduce that inefficiency* as a measurable
//! baseline (`bench`'s ablations use it); it shares the algebra with the
//! real evaluator, so it also serves as a semantics oracle in tests.

use crate::betree::{BeNode, BeTree, EvalCtx, GroupNode};
use uo_engine::binary::scan_pattern;
use uo_engine::CandidateSet;
use uo_rdf::{Id, NO_ID};
use uo_sparql::algebra::Bag;
use uo_store::Snapshot;

/// Statistics from a binary-tree evaluation.
#[derive(Debug, Default, Clone)]
pub struct BinaryTreeStats {
    /// Triple patterns materialized.
    pub pattern_scans: usize,
    /// Total rows materialized across all scans.
    pub scanned_rows: usize,
    /// The largest intermediate bag observed.
    pub peak_intermediate: usize,
}

/// Evaluates a BE-tree with the naive binary-tree strategy: every triple
/// pattern becomes its own relation, combined strictly left to right.
pub fn evaluate_binary_tree(
    tree: &BeTree,
    store: &Snapshot,
    width: usize,
) -> (Bag, BinaryTreeStats) {
    let ctx = EvalCtx::new(store.dictionary());
    let mut stats = BinaryTreeStats::default();
    let bag = eval_group(&tree.root, store, width, &mut stats, &ctx);
    (bag, stats)
}

fn track(stats: &mut BinaryTreeStats, bag: &Bag) {
    stats.peak_intermediate = stats.peak_intermediate.max(bag.len());
}

fn eval_group(
    g: &GroupNode,
    store: &Snapshot,
    width: usize,
    stats: &mut BinaryTreeStats,
    ctx: &EvalCtx,
) -> Bag {
    let mut r = Bag::unit(width);
    for child in &g.children {
        match child {
            BeNode::Bgp(b) => {
                // No BGP-level optimization: one scan + one pairwise join
                // per triple pattern, in source order.
                for pat in &b.bgp.patterns {
                    let rel = scan_pattern(store, pat, width, &CandidateSet::none());
                    stats.pattern_scans += 1;
                    stats.scanned_rows += rel.len();
                    track(stats, &rel);
                    r = r.join(&rel);
                    track(stats, &r);
                }
            }
            BeNode::Group(gg) => {
                let inner = eval_group(gg, store, width, stats, ctx);
                r = r.join(&inner);
                track(stats, &r);
            }
            BeNode::Union(branches) => {
                let mut u = Bag::empty(width);
                for b in branches {
                    u = u.union_bag(eval_group(b, store, width, stats, ctx));
                }
                track(stats, &u);
                r = r.join(&u);
                track(stats, &r);
            }
            BeNode::Optional(gg) => {
                let inner = eval_group(gg, store, width, stats, ctx);
                r = r.left_join(&inner);
                track(stats, &r);
            }
            BeNode::Minus(gg) => {
                let inner = eval_group(gg, store, width, stats, ctx);
                r = r.minus(&inner);
                track(stats, &r);
            }
            BeNode::Bind(expr, v) => {
                let vi = *v as usize;
                for row in &mut r.rows {
                    if row[vi] != NO_ID {
                        continue;
                    }
                    if let Ok(t) = expr.eval_term(row, ctx) {
                        row[vi] = ctx.intern(&t);
                    }
                }
                r.maybe |= 1u64 << *v;
                if !r.rows.is_empty() && r.rows.iter().all(|row| row[vi] != NO_ID) {
                    r.certain |= 1u64 << *v;
                }
            }
            BeNode::Values(vals) => {
                let rows: Vec<Box<[Id]>> = vals
                    .rows
                    .iter()
                    .map(|vrow| {
                        let mut row = vec![NO_ID; width].into_boxed_slice();
                        for (i, cell) in vrow.iter().enumerate() {
                            if let Some(t) = cell {
                                row[vals.vars[i] as usize] = ctx.intern(t);
                            }
                        }
                        row
                    })
                    .collect();
                let rel = Bag::from_rows(width, rows);
                track(stats, &rel);
                r = r.join(&rel);
                track(stats, &r);
            }
            BeNode::Filter(_) => {}
        }
    }
    for child in &g.children {
        if let BeNode::Filter(expr) = child {
            r.rows.retain(|row| expr.eval_ebv(row, ctx).unwrap_or(false));
            if r.rows.is_empty() {
                r.certain = 0;
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_query, Strategy};
    use std::sync::Arc;
    use uo_engine::WcoEngine;
    use uo_rdf::Term;
    use uo_store::{Snapshot, StoreWriter};

    fn store() -> Arc<Snapshot> {
        let mut st = StoreWriter::new();
        for i in 0..50 {
            let p = Term::iri(format!("http://person{i}"));
            st.insert_terms(
                &p,
                &Term::iri("http://birthDate"),
                &Term::literal(format!("19{i:02}-01-01")),
            );
            if i < 3 {
                st.insert_terms(&p, &Term::iri("http://link"), &Term::iri("http://POTUS"));
            }
        }
        st.commit()
    }

    const Q: &str = "SELECT WHERE {
        ?x <http://link> <http://POTUS> .
        ?x <http://birthDate> ?b .
        OPTIONAL { ?x <http://missing> ?m }
    }";

    #[test]
    fn agrees_with_bgp_based_evaluation() {
        let st = store();
        let prepared = crate::prepare(&st, Q).unwrap();
        let (bag, _) = evaluate_binary_tree(&prepared.tree, &st, prepared.vars.len());
        let reference = run_query(&st, &WcoEngine::new(), Q, Strategy::Base).unwrap();
        assert_eq!(bag.canonicalized(), reference.bag.canonicalized());
    }

    #[test]
    fn materializes_every_pattern_in_full() {
        // Figure 3's point: the unselective birthDate pattern is scanned
        // whole (50 rows) even though only 3 rows survive the join.
        let st = store();
        let prepared = crate::prepare(&st, Q).unwrap();
        let (bag, stats) = evaluate_binary_tree(&prepared.tree, &st, prepared.vars.len());
        assert_eq!(bag.len(), 3);
        assert_eq!(stats.pattern_scans, 3);
        assert!(stats.scanned_rows >= 53, "unselective scan materialized");
        assert!(stats.peak_intermediate >= 50);
    }

    #[test]
    fn union_and_nested_groups() {
        let st = store();
        let q = "SELECT WHERE {
            { ?x <http://link> <http://POTUS> } UNION { ?x <http://birthDate> ?b }
        }";
        let prepared = crate::prepare(&st, q).unwrap();
        let (bag, _) = evaluate_binary_tree(&prepared.tree, &st, prepared.vars.len());
        assert_eq!(bag.len(), 53);
    }
}
