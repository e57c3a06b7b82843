//! A reimplementation of **LBR** ("Left Bit Right", Atre, SIGMOD 2015) — the
//! state-of-the-art baseline the paper compares against on OPTIONAL queries
//! (Section 7.2).
//!
//! LBR's execution strategy, reproduced here at the level the comparison
//! depends on:
//!
//! 1. **Separate treatment of triple patterns** — every triple pattern is
//!    materialized as its own relation (no BGP-level join optimization);
//! 2. a **GoSN-like nesting structure** over required and optional pattern
//!    groups (our [`LbrQuery`] mirrors the supernode nesting: each group has
//!    required patterns and optional subgroups);
//! 3. **two-pass semijoin pruning** over the graph of join variables: a
//!    forward DFS-order pass and a backward pass, where a pattern may prune
//!    another if its group is an ancestor of (or the same as) the other's —
//!    the direction left-outer-join semantics allows (the nullification /
//!    best-match machinery of LBR exists to repair over-pruning in the
//!    general case; on well-designed patterns the ancestor rule is sound);
//! 4. bottom-up joins within groups and left-outer joins across groups.
//!
//! The two semijoin scans over *per-triple-pattern* relations are exactly the
//! overhead the paper's Section 7.2 attributes LBR's loss to — this
//! reimplementation preserves that execution profile.
//!
//! UNION is not part of LBR; [`evaluate_lbr`] extends it naturally
//! (branch-wise evaluation + bag union) so the engine is total over
//! SPARQL-UO, but the paper's comparison (Figure 13) only exercises
//! OPTIONAL queries.

use uo_core::betree::{BeNode, BeTree, GroupNode};
use uo_engine::binary::scan_pattern;
use uo_engine::{CandidateSet, EncodedTriplePattern};
use uo_rdf::Id;
use uo_sparql::algebra::Bag;
use uo_store::Snapshot;

/// Statistics from one LBR evaluation.
#[derive(Debug, Default, Clone)]
pub struct LbrStats {
    /// Triple-pattern relations materialized.
    pub relations: usize,
    /// Total rows scanned while materializing relations.
    pub scanned_rows: usize,
    /// Rows pruned by the two semijoin passes.
    pub semijoin_pruned: usize,
    /// Number of semijoin operations performed across both passes.
    pub semijoins: usize,
}

/// One node of the GoSN-like structure: an ordered sequence of required
/// pattern runs, optional subgroups and union alternatives. Sibling order is
/// preserved because a leading OPTIONAL binds against the *prefix* of the
/// group (`(unit ⟕ O) ⋈ R ≠ R ⟕ O`); only adjacent required patterns are
/// reordered (joins commute).
#[derive(Debug, Clone)]
struct LbrGroup {
    seq: Vec<LbrItem>,
}

#[derive(Debug, Clone)]
enum LbrItem {
    /// A run of consecutive required triple patterns (relation indexes).
    Patterns(Vec<usize>),
    Optional(LbrGroup),
    Union(Vec<LbrGroup>),
}

/// A compiled LBR query: the flat triple-pattern table plus nesting.
#[derive(Debug, Clone)]
pub struct LbrQuery {
    patterns: Vec<EncodedTriplePattern>,
    /// Group index owning each pattern.
    owner: Vec<usize>,
    /// Parent group of each group (`usize::MAX` for the root).
    parent: Vec<usize>,
    /// For a group attached as an OPTIONAL body: the variables certainly
    /// bound by the required patterns *preceding* it in its parent group
    /// (its left operand). For UNION branches: all bits (a plain join is
    /// not a pruning boundary). Root: all bits.
    boundary_mask: Vec<u64>,
    root: LbrGroup,
    n_groups: usize,
}

impl LbrQuery {
    /// Compiles a BE-tree into LBR's structure, flattening every BGP into
    /// individual triple patterns.
    pub fn compile(tree: &BeTree) -> LbrQuery {
        let mut q = LbrQuery {
            patterns: Vec::new(),
            owner: Vec::new(),
            parent: Vec::new(),
            boundary_mask: Vec::new(),
            root: LbrGroup { seq: Vec::new() },
            n_groups: 0,
        };
        let root = q.new_group(usize::MAX, !0);
        q.root = q.build_group(&tree.root, root);
        q
    }

    /// Number of triple patterns in the compiled query.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    fn new_group(&mut self, parent: usize, boundary: u64) -> usize {
        let id = self.n_groups;
        self.n_groups += 1;
        self.parent.push(parent);
        self.boundary_mask.push(boundary);
        id
    }

    fn build_group(&mut self, g: &GroupNode, gid: usize) -> LbrGroup {
        let mut out = LbrGroup { seq: Vec::new() };
        // Variables certainly bound by required patterns seen so far in this
        // group — the left operand of any OPTIONAL attached next.
        let mut prefix_mask: u64 = 0;
        for child in &g.children {
            match child {
                BeNode::Bgp(b) => {
                    for p in &b.bgp.patterns {
                        let idx = self.patterns.len();
                        self.patterns.push(*p);
                        self.owner.push(gid);
                        prefix_mask |= p.var_mask();
                        out.push_pattern(idx);
                    }
                }
                BeNode::Group(gg) => {
                    // An inner group joins like required content: flatten it
                    // into this group (LBR has no separate construct for it).
                    let inner = self.build_group(gg, gid);
                    for item in inner.seq {
                        match item {
                            LbrItem::Patterns(ps) => {
                                for p in ps {
                                    prefix_mask |= self.patterns[p].var_mask();
                                    out.push_pattern(p);
                                }
                            }
                            other => out.seq.push(other),
                        }
                    }
                }
                BeNode::Optional(gg) => {
                    let sub = self.new_group(gid, prefix_mask);
                    let built = self.build_group(gg, sub);
                    out.seq.push(LbrItem::Optional(built));
                }
                BeNode::Union(branches) => {
                    let mut alts = Vec::new();
                    for b in branches {
                        // Crossing into a UNION branch is a plain join, not
                        // a pruning boundary.
                        let sub = self.new_group(gid, !0);
                        alts.push(self.build_group(b, sub));
                    }
                    out.seq.push(LbrItem::Union(alts));
                }
                BeNode::Minus(_) => {
                    // MINUS is outside LBR's fragment (and the paper's);
                    // compile() callers must not pass it. Evaluation would
                    // silently ignore it, so fail loudly in debug builds.
                    debug_assert!(false, "MINUS is not supported by the LBR baseline");
                }
                BeNode::Filter(_) | BeNode::Bind(..) | BeNode::Values(_) => {
                    // LBR predates our FILTER/BIND/VALUES fragment; the
                    // paper's comparison queries contain none.
                }
            }
        }
        out
    }

    /// True if pattern `a` may semijoin-prune pattern `b`: `a`'s group must
    /// be an ancestor of (or equal to) `b`'s group, and at every OPTIONAL
    /// boundary crossed on the way down, the boundary's left operand (the
    /// required patterns preceding the OPTIONAL in its parent) must bind all
    /// variables `a` and `b` share. Otherwise the prune could turn a
    /// "matched with an incompatible binding" row into an "unmatched" one
    /// and resurrect bare rows — the nullification problem LBR's best-match
    /// machinery repairs dynamically; we avoid it statically.
    fn may_prune(&self, a: usize, b: usize) -> bool {
        let shared = self.patterns[a].var_mask() & self.patterns[b].var_mask();
        let ga = self.owner[a];
        let mut g = self.owner[b];
        loop {
            if g == ga {
                return true;
            }
            if g == usize::MAX {
                return false;
            }
            if shared & !self.boundary_mask[g] != 0 {
                return false;
            }
            g = self.parent.get(g).copied().unwrap_or(usize::MAX);
        }
    }
}

/// Evaluates a BE-tree with the LBR strategy.
pub fn evaluate_lbr(tree: &BeTree, store: &Snapshot, width: usize) -> (Bag, LbrStats) {
    let q = LbrQuery::compile(tree);
    let mut stats = LbrStats::default();

    // Phase 1: materialize every triple pattern separately.
    let mut rels: Vec<Bag> = q
        .patterns
        .iter()
        .map(|p| {
            let bag = scan_pattern(store, p, width, &CandidateSet::none());
            stats.relations += 1;
            stats.scanned_rows += bag.len();
            bag
        })
        .collect();

    // Phase 2: two-pass semijoin pruning over the join-variable graph.
    let n = rels.len();
    let masks: Vec<u64> = q.patterns.iter().map(|p| p.var_mask()).collect();
    let run_pass = |rels: &mut Vec<Bag>, stats: &mut LbrStats, forward: bool| {
        let order: Vec<usize> = if forward { (0..n).collect() } else { (0..n).rev().collect() };
        for &i in &order {
            for j in 0..n {
                if i == j || masks[i] & masks[j] == 0 || !q.may_prune(i, j) {
                    continue;
                }
                let before = rels[j].len();
                let pruned = semijoin(&rels[j], &rels[i]);
                stats.semijoins += 1;
                stats.semijoin_pruned += before - pruned.len();
                rels[j] = pruned;
            }
        }
    };
    run_pass(&mut rels, &mut stats, true);
    run_pass(&mut rels, &mut stats, false);

    // Phase 3: bottom-up joins and left-outer joins.
    let bag = eval_group(&q.root, &rels, width);
    (bag, stats)
}

/// `left ⋉ right`: rows of `left` compatible with some row of `right` on
/// their shared variables.
fn semijoin(left: &Bag, right: &Bag) -> Bag {
    let common = left.maybe & right.maybe;
    if common == 0 {
        return left.clone();
    }
    let keys: Vec<usize> = (0..left.width).filter(|&i| common & (1 << i) != 0).collect();
    let mut table: uo_rdf::FxHashSet<Vec<Id>> = uo_rdf::FxHashSet::default();
    for r in &right.rows {
        table.insert(keys.iter().map(|&k| r[k]).collect());
    }
    let rows: Vec<Box<[Id]>> = left
        .rows
        .iter()
        .filter(|r| table.contains(&keys.iter().map(|&k| r[k]).collect::<Vec<Id>>()))
        .cloned()
        .collect();
    Bag {
        width: left.width,
        maybe: left.maybe,
        certain: if rows.is_empty() { 0 } else { left.certain },
        rows,
    }
}

impl LbrGroup {
    fn push_pattern(&mut self, idx: usize) {
        if let Some(LbrItem::Patterns(ps)) = self.seq.last_mut() {
            ps.push(idx);
        } else {
            self.seq.push(LbrItem::Patterns(vec![idx]));
        }
    }
}

fn eval_group(g: &LbrGroup, rels: &[Bag], width: usize) -> Bag {
    let mut r = Bag::unit(width);
    for item in &g.seq {
        match item {
            LbrItem::Patterns(run) => {
                // Within a run of adjacent required patterns, join
                // smallest-first (LBR's join over pruned candidate sets).
                let mut order = run.clone();
                order.sort_by_key(|&i| rels[i].len());
                for i in order {
                    r = r.join(&rels[i]);
                }
            }
            LbrItem::Optional(sub) => {
                let o = eval_group(sub, rels, width);
                r = r.left_join(&o);
            }
            LbrItem::Union(alts) => {
                let mut u = Bag::empty(width);
                for a in alts {
                    u = u.union_bag(eval_group(a, rels, width));
                }
                r = r.join(&u);
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uo_core::{prepare, run_query, Strategy};
    use uo_engine::WcoEngine;
    use uo_rdf::Term;
    use uo_store::{Snapshot, StoreWriter};

    fn store() -> Arc<Snapshot> {
        let mut st = StoreWriter::new();
        let advisor = Term::iri("http://advisor");
        let teaches = Term::iri("http://teacherOf");
        let takes = Term::iri("http://takesCourse");
        let email = Term::iri("http://email");
        for prof in 0..10 {
            let p = Term::iri(format!("http://prof{prof}"));
            st.insert_terms(&p, &teaches, &Term::iri(format!("http://course{prof}")));
            if prof % 2 == 0 {
                st.insert_terms(&p, &email, &Term::literal(format!("p{prof}@u.edu")));
            }
            for s in 0..5 {
                let stu = Term::iri(format!("http://stu{prof}_{s}"));
                st.insert_terms(&stu, &advisor, &p);
                if s % 2 == 0 {
                    st.insert_terms(&stu, &takes, &Term::iri(format!("http://course{prof}")));
                }
            }
        }
        st.commit()
    }

    fn lbr_run(q: &str, st: &Snapshot) -> (Bag, LbrStats) {
        let prepared = prepare(st, q).unwrap();
        evaluate_lbr(&prepared.tree, st, prepared.vars.len())
    }

    const OPT_Q: &str = "SELECT WHERE {
        ?s <http://advisor> ?p .
        ?p <http://teacherOf> ?c .
        OPTIONAL { ?s <http://takesCourse> ?c . }
        OPTIONAL { ?p <http://email> ?e . }
    }";

    #[test]
    fn lbr_matches_reference_on_optional_query() {
        let st = store();
        let (lbr_bag, _) = lbr_run(OPT_Q, &st);
        let reference = run_query(&st, &WcoEngine::new(), OPT_Q, Strategy::Base).unwrap();
        assert_eq!(lbr_bag.canonicalized(), reference.bag.canonicalized());
    }

    #[test]
    fn lbr_matches_reference_on_nested_optionals() {
        let st = store();
        let q = "SELECT WHERE {
            ?s <http://advisor> ?p .
            OPTIONAL { ?p <http://teacherOf> ?c .
                       OPTIONAL { ?s <http://takesCourse> ?c } }
        }";
        let (lbr_bag, _) = lbr_run(q, &st);
        let reference = run_query(&st, &WcoEngine::new(), q, Strategy::Full).unwrap();
        assert_eq!(lbr_bag.canonicalized(), reference.bag.canonicalized());
    }

    #[test]
    fn semijoin_passes_prune() {
        let st = store();
        let q = "SELECT WHERE {
            <http://stu3_1> <http://advisor> ?p .
            ?p <http://teacherOf> ?c .
            OPTIONAL { ?p <http://email> ?e . }
        }";
        let (_, stats) = lbr_run(q, &st);
        assert!(stats.semijoins > 0);
        assert!(stats.semijoin_pruned > 0, "selective pattern prunes the others");
    }

    #[test]
    fn relations_count_individual_patterns() {
        let st = store();
        let (_, stats) = lbr_run(OPT_Q, &st);
        assert_eq!(stats.relations, 4, "one relation per triple pattern");
    }

    #[test]
    fn union_extension_matches_reference() {
        let st = store();
        let q = "SELECT WHERE {
            ?s <http://advisor> ?p .
            { ?p <http://email> ?x } UNION { ?p <http://teacherOf> ?x }
        }";
        let (lbr_bag, _) = lbr_run(q, &st);
        let reference = run_query(&st, &WcoEngine::new(), q, Strategy::Base).unwrap();
        assert_eq!(lbr_bag.canonicalized(), reference.bag.canonicalized());
    }

    #[test]
    fn optional_only_pruned_downward() {
        // A value occurring only in the OPTIONAL must not remove required
        // rows: a student without takesCourse still appears.
        let st = store();
        let q = "SELECT WHERE {
            <http://stu0_1> <http://advisor> ?p .
            OPTIONAL { <http://stu0_1> <http://takesCourse> ?c }
        }";
        let (bag, _) = lbr_run(q, &st);
        assert_eq!(bag.len(), 1, "stu0_1 has no takesCourse but must survive");
    }
}
