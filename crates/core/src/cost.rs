//! The SPARQL-UO cost model (Section 5.1, Equations 1–8).
//!
//! The cost of (the affected level of) a BE-tree is split into two parts:
//!
//! - **BGP cost** — `cost(P)` per affected BGP node, delegated to the
//!   underlying engine's estimator (Equations 2 and 6);
//! - **algebra cost** — the cost of combining partial results, a function of
//!   estimated result sizes: `f_AND` = product of its arguments, `f_UNION` =
//!   sum, `f_OPTIONAL` = product (the paper's Section 5.1.1 choices).
//!
//! Result sizes are estimated per node: BGPs by the engine's sampling
//! estimator; `AND`/`OPTIONAL` as products; `UNION` as sums.
//!
//! The Δ-cost of a candidate transformation is computed by *performing the
//! transformation on a cloned level and re-evaluating the same local-cost
//! formula* (the "perform / cost / undo" loop of Algorithm 3, with undo =
//! dropping the clone). A merged-away BGP is retained as an *empty* BGP node
//! (result size 1, cost 0) during costing, matching the paper's node-
//! preserving convention; the real transformation then removes it.
//!
//! One deliberate refinement over the paper's Equation 3: our local cost sums
//! the `f_AND` interaction terms of **all** BGP children at the level (not
//! only the directly affected ones), so the Δ-cost also captures how a
//! transformation changes the sibling products `res(l(·))`/`res(r(·))` of
//! unaffected siblings. On the paper's examples both formulations pick the
//! same transformations.

use crate::betree::{BeNode, BgpNode, GroupNode};
use std::cell::RefCell;
use uo_engine::{BgpEngine, EncodedBgp};
use uo_rdf::FxHashMap;
use uo_store::Snapshot;

/// Cost/cardinality oracle over a BGP engine, with memoization.
pub struct CostModel<'a> {
    store: &'a Snapshot,
    engine: &'a dyn BgpEngine,
    memo: RefCell<FxHashMap<EncodedBgp, (f64, f64)>>,
}

impl<'a> CostModel<'a> {
    /// Creates a cost model bound to a store and BGP engine.
    pub fn new(store: &'a Snapshot, engine: &'a dyn BgpEngine) -> Self {
        CostModel { store, engine, memo: RefCell::new(FxHashMap::default()) }
    }

    /// The underlying store.
    pub fn store(&self) -> &Snapshot {
        self.store
    }

    /// Estimated result cardinality of a BGP (`|res(B)|`).
    pub fn bgp_cardinality(&self, bgp: &EncodedBgp) -> f64 {
        self.memoized(bgp).0
    }

    /// Estimated evaluation cost of a BGP (`cost(B)`).
    pub fn bgp_cost(&self, bgp: &EncodedBgp) -> f64 {
        self.memoized(bgp).1
    }

    /// `(cardinality, cost)` of `bgp`: the engine is asked once per distinct
    /// BGP, and one estimate answers both.
    fn memoized(&self, bgp: &EncodedBgp) -> (f64, f64) {
        if bgp.patterns.is_empty() {
            return (1.0, 0.0);
        }
        if let Some(&v) = self.memo.borrow().get(bgp) {
            return v;
        }
        let estimate = self.engine.estimate(self.store, bgp);
        let v = (estimate.cardinality, estimate.cost);
        self.memo.borrow_mut().insert(bgp.clone(), v);
        v
    }

    /// Estimated result size `|res(node)|` of a BE-tree node.
    ///
    /// `UNION` nodes contribute the sum of their branches; `OPTIONAL` nodes
    /// contribute their right pattern's size (the multiplication with the
    /// left side happens at the enclosing group, per `f_AND` = product);
    /// filters contribute 1.
    pub fn res_of_node(&self, node: &BeNode) -> f64 {
        match node {
            BeNode::Bgp(b) => self.bgp_cardinality(&b.bgp),
            BeNode::Group(g) => self.res_of_group(g),
            BeNode::Union(branches) => branches.iter().map(|b| self.res_of_group(b)).sum(),
            BeNode::Optional(g) => self.res_of_group(g),
            // MINUS can only shrink the left side; as a sibling factor we
            // bound it by 1 (no growth).
            BeNode::Minus(_) => 1.0,
            BeNode::Filter(_) => 1.0,
            // BIND extends rows without multiplying them.
            BeNode::Bind(..) => 1.0,
            BeNode::Values(vals) => vals.rows.len().max(1) as f64,
        }
    }

    /// Estimated result size of a group graph pattern: the product of its
    /// children (joins estimated as products, Section 5.1.1).
    pub fn res_of_group(&self, g: &GroupNode) -> f64 {
        g.children.iter().map(|c| self.res_of_node(c)).product()
    }

    /// The *local cost* of one level of the BE-tree (the children of `g`):
    /// BGP evaluation costs plus the algebra interaction terms, including one
    /// level into UNION branches and OPTIONAL children — the full footprint a
    /// merge/inject transformation at this level can affect (Figure 8).
    pub fn level_cost(&self, g: &GroupNode) -> f64 {
        let res: Vec<f64> = g.children.iter().map(|c| self.res_of_node(c)).collect();
        let mut total = 0.0;
        for (i, child) in g.children.iter().enumerate() {
            match child {
                BeNode::Bgp(b) => {
                    total += self.bgp_cost(&b.bgp);
                    total += f_and(res[i], left_prod(&res, i), right_prod(&res, i));
                }
                BeNode::Union(branches) => {
                    // f_UNION over branch sizes.
                    total += branches.iter().map(|b| self.res_of_group(b)).sum::<f64>();
                    for b in branches {
                        total += self.inner_bgp_terms(b);
                    }
                }
                BeNode::Optional(og) => {
                    // f_OPTIONAL(left side, right pattern) = product.
                    total += left_prod(&res, i) * self.res_of_group(og);
                    total += self.inner_bgp_terms(og);
                }
                BeNode::Group(_)
                | BeNode::Minus(_)
                | BeNode::Filter(_)
                | BeNode::Bind(..)
                | BeNode::Values(_) => {}
            }
        }
        total
    }

    /// The BGP cost + `f_AND` terms of the BGP children of an inner group
    /// (a UNION branch or an OPTIONAL-right pattern).
    fn inner_bgp_terms(&self, g: &GroupNode) -> f64 {
        let res: Vec<f64> = g.children.iter().map(|c| self.res_of_node(c)).collect();
        let mut total = 0.0;
        for (i, child) in g.children.iter().enumerate() {
            if let BeNode::Bgp(b) = child {
                total += self.bgp_cost(&b.bgp);
                total += f_and(res[i], left_prod(&res, i), right_prod(&res, i));
            }
        }
        total
    }

    /// Fills the `est_cardinality` cache of every BGP node in the subtree,
    /// so query-time candidate pruning can use the adaptive threshold
    /// (Section 6) without re-estimating.
    pub fn annotate_cardinalities(&self, g: &mut GroupNode) {
        for child in &mut g.children {
            match child {
                BeNode::Bgp(b) => {
                    b.est_cardinality = Some(self.bgp_cardinality(&b.bgp));
                }
                BeNode::Group(gg) | BeNode::Optional(gg) | BeNode::Minus(gg) => {
                    self.annotate_cardinalities(gg)
                }
                BeNode::Union(branches) => {
                    for b in branches {
                        self.annotate_cardinalities(b);
                    }
                }
                BeNode::Filter(_) | BeNode::Bind(..) | BeNode::Values(_) => {}
            }
        }
    }
}

/// `f_AND`: product of the operand result sizes.
#[inline]
pub fn f_and(res: f64, left: f64, right: f64) -> f64 {
    res * left * right
}

/// Product of estimated result sizes of the siblings left of `i`.
#[inline]
pub fn left_prod(res: &[f64], i: usize) -> f64 {
    res[..i].iter().product()
}

/// Product of estimated result sizes of the siblings right of `i`.
#[inline]
pub fn right_prod(res: &[f64], i: usize) -> f64 {
    res[i + 1..].iter().product()
}

/// An empty BGP node placeholder (result size 1, cost 0), used to preserve
/// node occurrence while costing a merge that removes `P1`.
pub fn empty_bgp_node() -> BgpNode {
    BgpNode::new(EncodedBgp::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::betree::BeTree;
    use std::sync::Arc;
    use uo_engine::WcoEngine;
    use uo_rdf::Term;
    use uo_sparql::algebra::VarTable;
    use uo_store::{Snapshot, StoreWriter};

    /// hub has 5 q-edges; 100 p-edges chain.
    fn store() -> Arc<Snapshot> {
        let mut st = StoreWriter::new();
        for i in 0..100 {
            st.insert_terms(
                &Term::iri(format!("http://n{i}")),
                &Term::iri("http://p"),
                &Term::iri(format!("http://n{}", i + 1)),
            );
        }
        for i in 0..5 {
            st.insert_terms(
                &Term::iri("http://hub"),
                &Term::iri("http://q"),
                &Term::iri(format!("http://n{i}")),
            );
        }
        st.commit()
    }

    fn tree(q: &str, st: &Snapshot) -> (BeTree, VarTable) {
        let query = uo_sparql::parse(q).unwrap();
        let mut vars = VarTable::new();
        let t = BeTree::build(&query, &mut vars, st.dictionary());
        (t, vars)
    }

    #[test]
    fn bgp_cardinality_exact_for_single_pattern() {
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let (t, _) = tree("SELECT WHERE { ?x <http://p> ?y . }", &st);
        let BeNode::Bgp(b) = &t.root.children[0] else { panic!() };
        assert_eq!(cm.bgp_cardinality(&b.bgp), 100.0);
    }

    #[test]
    fn empty_bgp_is_unit_cost_free() {
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let e = empty_bgp_node();
        assert_eq!(cm.bgp_cardinality(&e.bgp), 1.0);
        assert_eq!(cm.bgp_cost(&e.bgp), 0.0);
    }

    #[test]
    fn union_res_is_sum_of_branches() {
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let (t, _) = tree(
            "SELECT WHERE { { ?x <http://p> ?y } UNION { http://hub <http://q> ?y } }"
                .replace("http://hub", "<http://hub>")
                .as_str(),
            &st,
        );
        let BeNode::Union(_) = &t.root.children[0] else { panic!() };
        let r = cm.res_of_node(&t.root.children[0]);
        assert_eq!(r, 105.0);
    }

    #[test]
    fn group_res_is_product() {
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let (t, _) = tree("SELECT WHERE { ?x <http://p> ?y . ?a <http://q> ?b . }", &st);
        // Two non-coalescable BGPs: product 100 × 5.
        assert_eq!(cm.res_of_group(&t.root), 500.0);
    }

    #[test]
    fn level_cost_increases_with_result_sizes() {
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let (cheap, _) = tree(
            "SELECT WHERE { <http://hub> <http://q> ?y . OPTIONAL { ?y <http://p> ?z } }",
            &st,
        );
        let (dear, _) =
            tree("SELECT WHERE { ?x <http://p> ?y . OPTIONAL { ?y <http://p> ?z } }", &st);
        assert!(cm.level_cost(&cheap.root) < cm.level_cost(&dear.root));
    }

    #[test]
    fn memo_returns_stable_values() {
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let (t, _) = tree("SELECT WHERE { ?x <http://p> ?y . ?y <http://p> ?z . }", &st);
        let BeNode::Bgp(b) = &t.root.children[0] else { panic!() };
        let a = cm.bgp_cardinality(&b.bgp);
        let b2 = cm.bgp_cardinality(&b.bgp);
        assert_eq!(a, b2);
    }

    #[test]
    fn annotate_fills_every_bgp() {
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let (mut t, _) = tree(
            "SELECT WHERE { ?x <http://p> ?y . OPTIONAL { ?y <http://p> ?z } { ?a <http://q> ?b } UNION { ?a <http://p> ?b } }",
            &st,
        );
        cm.annotate_cardinalities(&mut t.root);
        fn check(g: &GroupNode) {
            for c in &g.children {
                match c {
                    BeNode::Bgp(b) => assert!(b.est_cardinality.is_some()),
                    BeNode::Group(g) | BeNode::Optional(g) | BeNode::Minus(g) => check(g),
                    BeNode::Union(bs) => bs.iter().for_each(check),
                    BeNode::Filter(_) | BeNode::Bind(..) | BeNode::Values(_) => {}
                }
            }
        }
        check(&t.root);
    }
}
