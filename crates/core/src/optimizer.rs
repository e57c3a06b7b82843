//! Cost-driven BE-tree transformation (Section 5.2, Algorithms 2–4).
//!
//! The plan space of all transformation combinations is exponential in the
//! tree depth (the paper conjectures the optimal choice is NP-hard), so the
//! optimizer is greedy: a post-order depth-first traversal transforms every
//! lower level before the level above it (Algorithm 4), and within one level
//! (Algorithm 2):
//!
//! - a BGP child may **merge** with at most one sibling UNION node — all
//!   candidate UNIONs are compared and the one with the most negative Δ-cost
//!   wins (merging removes the BGP from its original position, so the choice
//!   is exclusive);
//! - a BGP child may **inject** into *each* OPTIONAL sibling to its right
//!   independently (injection keeps the original occurrence), each decided
//!   by its own Δ-cost.
//!
//! When candidate pruning will run at query time (the `full` strategy), the
//! special case of Section 6 is skipped: if the only node to the left of the
//! UNION/OPTIONAL is a single BGP, the transformation is equivalent to
//! pruning and is omitted to avoid double work.

use crate::betree::{BeNode, BeTree, GroupNode};
use crate::cost::CostModel;
use crate::transform::{
    can_inject, can_merge, perform_inject, perform_merge, simulate_inject, simulate_merge,
};

/// Counters describing what the optimizer did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransformOutcome {
    /// Number of merge transformations performed.
    pub merges: usize,
    /// Number of inject transformations performed.
    pub injects: usize,
    /// Number of candidate transformations evaluated (Δ-cost computations).
    pub evaluated: usize,
}

/// Options controlling the optimizer.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Skip transformations that are equivalent to candidate pruning
    /// (set for the `full` strategy, Section 6's special case).
    pub skip_pruning_equivalent: bool,
    /// Consider merge transformations (ablation knob; default true).
    pub enable_merge: bool,
    /// Consider inject transformations (ablation knob; default true).
    pub enable_inject: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig { skip_pruning_equivalent: false, enable_merge: true, enable_inject: true }
    }
}

impl OptimizerConfig {
    /// Merge-only configuration (isolates Theorem 1).
    pub fn merge_only() -> Self {
        OptimizerConfig { enable_inject: false, ..Default::default() }
    }

    /// Inject-only configuration (isolates Theorem 2).
    pub fn inject_only() -> Self {
        OptimizerConfig { enable_merge: false, ..Default::default() }
    }
}

/// Algorithm 4: multi-level cost-driven transformation of the whole tree.
pub fn multi_level_transform(
    tree: &mut BeTree,
    cm: &CostModel<'_>,
    cfg: OptimizerConfig,
) -> TransformOutcome {
    let mut out = TransformOutcome::default();
    post_order(&mut tree.root, cm, cfg, &mut out);
    out
}

fn post_order(
    g: &mut GroupNode,
    cm: &CostModel<'_>,
    cfg: OptimizerConfig,
    out: &mut TransformOutcome,
) {
    for child in g.children.iter_mut() {
        match child {
            BeNode::Group(gg) | BeNode::Optional(gg) | BeNode::Minus(gg) => {
                post_order(gg, cm, cfg, out)
            }
            BeNode::Union(branches) => {
                for b in branches {
                    post_order(b, cm, cfg, out);
                }
            }
            BeNode::Bgp(_) | BeNode::Filter(_) | BeNode::Bind(..) | BeNode::Values(_) => {}
        }
    }
    single_level_transform(g, cm, cfg, out);
}

/// Algorithm 2: transformation decisions among the children of one group
/// graph pattern node.
pub fn single_level_transform(
    g: &mut GroupNode,
    cm: &CostModel<'_>,
    cfg: OptimizerConfig,
    out: &mut TransformOutcome,
) {
    let mut i = 0;
    while i < g.children.len() {
        if !matches!(g.children[i], BeNode::Bgp(_)) {
            i += 1;
            continue;
        }
        // --- merge: best UNION target, or none (Algorithm 2 lines 4-12) ---
        let mut best: Option<(usize, f64)> = None;
        for u in 0..g.children.len() {
            if !cfg.enable_merge {
                break;
            }
            if !matches!(g.children[u], BeNode::Union(_)) || !can_merge(g, i, u) {
                continue;
            }
            if cfg.skip_pruning_equivalent && pruning_equivalent(g, i, u) {
                continue;
            }
            let delta = cm.level_cost(&simulate_merge(g, i, u)) - cm.level_cost(g);
            out.evaluated += 1;
            if delta < best.map_or(0.0, |(_, d)| d) {
                best = Some((u, delta));
            }
        }
        if let Some((u, _)) = best {
            perform_merge(g, i, u);
            out.merges += 1;
            // The merge removed child i; the next child shifted into its
            // position, so do not advance.
            continue;
        }
        // --- inject: each OPTIONAL to the right, independently (lines 13-14) ---
        for o in i + 1..g.children.len() {
            if !cfg.enable_inject {
                break;
            }
            if !matches!(g.children[o], BeNode::Optional(_)) || !can_inject(g, i, o) {
                continue;
            }
            if cfg.skip_pruning_equivalent && pruning_equivalent(g, i, o) {
                continue;
            }
            let delta = cm.level_cost(&simulate_inject(g, i, o)) - cm.level_cost(g);
            out.evaluated += 1;
            if delta < 0.0 {
                perform_inject(g, i, o);
                out.injects += 1;
            }
        }
        i += 1;
    }
}

/// Section 6's special case: the only node left of the target operator is
/// the single BGP `p1` itself (ignoring filters), so a transformation would
/// be exactly what candidate pruning achieves at query time.
fn pruning_equivalent(g: &GroupNode, p1_idx: usize, target_idx: usize) -> bool {
    p1_idx < target_idx
        && g.children[..target_idx]
            .iter()
            .enumerate()
            .all(|(k, c)| k == p1_idx || matches!(c, BeNode::Filter(_)))
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

    /// DBpedia-like shape from Figures 6 and 7:
    /// - 1000 persons, each with a `sameAs` edge (low selectivity);
    /// - 10 presidents with a `wikiLink` to a landmark (high selectivity);
    /// - every person has `name` and `label` (low selectivity).
    fn store() -> Arc<Snapshot> {
        let mut st = StoreWriter::new();
        let same = Term::iri("http://sameAs");
        let link = Term::iri("http://wikiLink");
        let name = Term::iri("http://name");
        let label = Term::iri("http://label");
        let potus = Term::iri("http://POTUS");
        for i in 0..1000 {
            let p = Term::iri(format!("http://person{i}"));
            st.insert_terms(&p, &same, &Term::iri(format!("http://ext{i}")));
            st.insert_terms(&p, &name, &Term::literal(format!("name {i}")));
            st.insert_terms(&p, &label, &Term::literal(format!("label {i}")));
            if i < 10 {
                st.insert_terms(&p, &link, &potus);
            }
        }
        st.commit()
    }

    fn build(q: &str, st: &Snapshot) -> BeTree {
        let query = uo_sparql::parse(q).unwrap();
        let mut vars = VarTable::new();
        BeTree::build(&query, &mut vars, st.dictionary())
    }

    #[test]
    fn favorable_inject_is_taken() {
        // Figure 6: selective b1 injected into the sameAs OPTIONAL.
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let mut t = build(
            "SELECT WHERE {
               ?x <http://wikiLink> <http://POTUS> .
               ?x <http://name> ?n .
               OPTIONAL { ?x <http://sameAs> ?same }
             }",
            &st,
        );
        let out = multi_level_transform(&mut t, &cm, OptimizerConfig::default());
        assert_eq!(out.injects, 1, "selective BGP should be injected");
        t.validate().unwrap();
        let BeNode::Optional(right) = &t.root.children[1] else { panic!() };
        let BeNode::Bgp(b) = &right.children[0] else { panic!() };
        assert_eq!(b.bgp.patterns.len(), 3);
    }

    #[test]
    fn unfavorable_merge_is_rejected() {
        // Figure 7's failure mode: the merged BGP is unselective and one
        // UNION branch cannot coalesce with it, so the copy is evaluated
        // twice without reducing intermediate results — Δ-cost ≥ 0.
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let mut t = build(
            "SELECT WHERE {
               ?x <http://sameAs> ?same .
               { ?x <http://wikiLink> ?c } UNION { ?y <http://wikiLink> ?c }
             }",
            &st,
        );
        assert!(crate::transform::can_merge(&t.root, 0, 1), "eligible but unfavorable");
        let out = multi_level_transform(&mut t, &cm, OptimizerConfig::default());
        assert_eq!(out.merges, 0, "unfavorable merge must be rejected");
        assert_eq!(t.root.children.len(), 2);
    }

    #[test]
    fn favorable_merge_is_taken() {
        // A selective BGP before two low-selectivity UNION branches.
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let mut t = build(
            "SELECT WHERE {
               ?x <http://wikiLink> <http://POTUS> .
               ?y <http://sameAs> ?z .
               { ?x <http://name> ?n } UNION { ?x <http://label> ?n }
             }",
            &st,
        );
        let out = multi_level_transform(&mut t, &cm, OptimizerConfig::default());
        assert_eq!(out.merges, 1);
        t.validate().unwrap();
    }

    #[test]
    fn pruning_equivalent_case_skipped_when_configured() {
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let q = "SELECT WHERE {
               ?x <http://wikiLink> <http://POTUS> .
               OPTIONAL { ?x <http://sameAs> ?same }
             }";
        let mut with_cp = build(q, &st);
        let out = multi_level_transform(
            &mut with_cp,
            &cm,
            OptimizerConfig { skip_pruning_equivalent: true, ..Default::default() },
        );
        assert_eq!(out.injects, 0, "special case: CP will handle it");
        let mut without_cp = build(q, &st);
        let out2 = multi_level_transform(&mut without_cp, &cm, OptimizerConfig::default());
        assert_eq!(out2.injects, 1, "without CP the inject is taken");
    }

    #[test]
    fn transforms_nested_levels_bottom_up() {
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let mut t = build(
            "SELECT WHERE {
               ?y <http://sameAs> ?w .
               OPTIONAL {
                 ?x <http://wikiLink> <http://POTUS> .
                 ?x <http://name> ?n .
                 OPTIONAL { ?x <http://sameAs> ?same }
               }
             }",
            &st,
        );
        let out = multi_level_transform(&mut t, &cm, OptimizerConfig::default());
        // The inner level (selective BGP + OPTIONAL) gets its inject even
        // though the outer level offers nothing.
        assert!(out.injects >= 1);
        t.validate().unwrap();
    }

    #[test]
    fn merge_prefers_most_negative_delta() {
        // Two UNION siblings are eligible; the optimizer must pick one (the
        // cheaper plan) and leave the tree valid.
        let st = store();
        let engine = WcoEngine::new();
        let cm = CostModel::new(&st, &engine);
        let mut t = build(
            "SELECT WHERE {
               ?x <http://wikiLink> <http://POTUS> .
               ?a <http://sameAs> ?b .
               { ?x <http://name> ?n } UNION { ?x <http://label> ?n }
               { ?x <http://sameAs> ?m } UNION { ?x <http://label> ?m }
             }",
            &st,
        );
        let out = multi_level_transform(&mut t, &cm, OptimizerConfig::default());
        assert!(out.merges <= 1, "a BGP merges into at most one UNION");
        t.validate().unwrap();
    }
}
