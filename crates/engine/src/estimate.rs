//! Sampling-based cardinality estimation (Section 5.1.2).
//!
//! Estimation starts from the exact match count of a single triple pattern
//! (a binary-searched index range) and, for every further pattern added to
//! the join prefix, extends a bounded *sample* of partial results and scales
//! the running estimate by the observed extension ratio:
//!
//! ```text
//! card(V_k) = max(#extend / #sample × card(V_{k-1}), 1)
//! ```
//!
//! `#extend` is a sum of index range lengths, one per sample row, so a
//! sketch costs `O(patterns × SAMPLE_SIZE)` range lookups whatever the data
//! size; rows are bound only to fill the next step's sample.
//!
//! The estimator also records, per join step, the quantities the two engine
//! cost formulas need (prefix cardinality, pattern scan count, and the
//! minimum `average_size(v, p)` over bound endpoints), so both
//! [`crate::WcoEngine`] and [`crate::BinaryJoinEngine`] derive their costs
//! from one shared plan sketch. The join order itself ([`join_order`]) needs
//! no sample — the engines execute it without sketching.

use crate::pattern::{EncodedBgp, EncodedTriplePattern, Slot};
use uo_rdf::{Id, NO_ID};
use uo_sparql::algebra::VarMask;
use uo_store::Snapshot;

/// Number of partial results sampled per join step.
const SAMPLE_SIZE: usize = 64;

/// One join step in the estimated plan sketch.
#[derive(Debug, Clone)]
pub struct Step {
    /// Index into the BGP's pattern list.
    pub pattern: usize,
    /// Exact scan count of the pattern in isolation.
    pub scan_count: usize,
    /// Estimated cardinality of the join prefix *before* this step.
    pub card_before: f64,
    /// Estimated cardinality *after* this step.
    pub card_after: f64,
    /// `min average_size(v_i, p)` over the pattern's endpoints already bound
    /// before this step (the WCO per-tuple extension cost). `1.0` for seeds.
    pub min_avg_size: f64,
    /// True if this step started a new connected component (cartesian seed).
    pub is_seed: bool,
    /// Index rows this step ran through `bind` to build its sample: the
    /// planning work that depends on the data. At most the sample size,
    /// except where the pattern repeats a still-unbound variable
    /// (`?x :p ?x`) and every match has to be checked.
    pub rows_bound: usize,
}

/// A cardinality/cost sketch of one BGP under a greedy join order.
#[derive(Debug, Clone)]
pub struct Estimator {
    /// The join steps, in execution order.
    pub steps: Vec<Step>,
    /// Final estimated result cardinality.
    pub cardinality: f64,
}

/// Exact scan count of every pattern of `bgp`, in source order.
pub fn scan_counts(store: &Snapshot, bgp: &EncodedBgp) -> Vec<usize> {
    bgp.patterns.iter().map(|p| p.scan_count(store)).collect()
}

/// The greedy join order both engines execute and the sketch costs, from
/// the patterns' exact scan counts and connectivity alone: start from the
/// pattern with the smallest count, then repeatedly take the *connected*
/// pattern (sharing a variable with the bound prefix) with the smallest
/// count; re-seed with the smallest remaining pattern on disconnection.
/// Ties go to the earlier pattern.
pub fn join_order(bgp: &EncodedBgp, counts: &[usize]) -> Vec<usize> {
    let masks: Vec<VarMask> = bgp.patterns.iter().map(|p| p.var_mask()).collect();
    let mut remaining: Vec<usize> = (0..masks.len()).collect();
    let mut order = Vec::with_capacity(remaining.len());
    let mut bound: VarMask = 0;
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .copied()
            .filter(|&i| bound == 0 || masks[i] & bound != 0)
            .min_by_key(|&i| counts[i])
            .or_else(|| remaining.iter().copied().min_by_key(|&i| counts[i]))
            .expect("remaining is non-empty");
        remaining.retain(|&i| i != pick);
        bound |= masks[pick];
        order.push(pick);
    }
    order
}

/// The evolving sample of partial rows: at most [`SAMPLE_SIZE`] rows over
/// the BGP's own variables, row-major in one buffer.
struct Sample {
    width: usize,
    rows: usize,
    ids: Vec<Id>,
}

impl Sample {
    fn row(&self, i: usize) -> &[Id] {
        &self.ids[i * self.width..(i + 1) * self.width]
    }

    fn clear(&mut self) {
        self.rows = 0;
        self.ids.clear();
    }

    /// Binds `spo` under `base` and, if it matches and the sample has room,
    /// keeps the extended row. Returns whether it matched.
    fn push_bound(&mut self, pat: &EncodedTriplePattern, spo: [Id; 3], base: &[Id]) -> bool {
        let start = self.ids.len();
        self.ids.extend_from_slice(base);
        let matched = pat.bind_into(spo, &mut self.ids[start..]);
        if matched && self.rows < SAMPLE_SIZE {
            self.rows += 1;
        } else {
            self.ids.truncate(start);
        }
        matched
    }
}

impl Estimator {
    /// Builds the sketch for `bgp` on `store`, in [`join_order`].
    ///
    /// The work is bounded by the sample, not by the data: cardinalities
    /// come from index range lengths, and only the rows the next step's
    /// sample needs are bound (see [`Step::rows_bound`]).
    pub fn sketch(store: &Snapshot, bgp: &EncodedBgp) -> Estimator {
        let counts = scan_counts(store, bgp);
        let order = join_order(bgp, &counts);
        let mut bound: VarMask = 0;
        let mut steps: Vec<Step> = Vec::with_capacity(order.len());
        let mut card = 1.0f64;
        // The row width only needs to cover the largest VarId present.
        let width = (VarMask::BITS - bgp.var_mask().leading_zeros()) as usize;
        let mut sample = Sample { width, rows: 1, ids: vec![NO_ID; width] };
        let mut extended = Sample { width, rows: 0, ids: Vec::new() };

        for (k, &pick) in order.iter().enumerate() {
            let pat = &bgp.patterns[pick];
            let is_seed = pat.var_mask() & bound == 0;
            let min_avg_size = min_avg_size(store, pat, bound);
            let card_before = card;
            let mut rows_bound = 0;
            extended.clear();
            if is_seed {
                // A seed multiplies the prefix by the component's own size
                // (cartesian product between components); its sample is the
                // head of the pattern's range joined with one representative
                // of the previous sample.
                let floor = if counts[pick] == 0 { 0.0 } else { 1.0 };
                card = (card_before * counts[pick] as f64).max(floor);
                if sample.rows > 0 {
                    for spo in store
                        .match_pattern(pat.s.as_const(), pat.p.as_const(), pat.o.as_const())
                        .iter_spo()
                        .take(SAMPLE_SIZE)
                    {
                        rows_bound += 1;
                        extended.push_bound(pat, spo, sample.row(0));
                    }
                }
            } else {
                // Extend the sample through this pattern and scale by the
                // observed ratio. A row's fan-out is its index range length
                // unless `bind` can reject a match of that range.
                let must_walk = pat.repeats_var_outside(bound);
                let mut total_ext = 0usize;
                for row in (0..sample.rows).map(|i| sample.row(i)) {
                    let (s, p, o) = (pat.s.resolve(row), pat.p.resolve(row), pat.o.resolve(row));
                    if !must_walk && extended.rows == SAMPLE_SIZE {
                        total_ext += store.count_pattern(s, p, o);
                        continue;
                    }
                    let matches = store.match_pattern(s, p, o);
                    let need = if must_walk { matches.len() } else { SAMPLE_SIZE - extended.rows };
                    let mut matched = 0usize;
                    for spo in matches.iter_spo().take(need) {
                        rows_bound += 1;
                        matched += extended.push_bound(pat, spo, row) as usize;
                    }
                    total_ext += if must_walk { matched } else { matches.len() };
                }
                card = if total_ext == 0 {
                    // The paper clamps to 1; an exact zero sample over the
                    // whole prefix is possible only when the prefix sample
                    // was complete.
                    if sample.rows < SAMPLE_SIZE {
                        0.0
                    } else {
                        1.0
                    }
                } else {
                    (total_ext as f64 / sample.rows as f64 * card_before).max(1.0)
                };
            }
            std::mem::swap(&mut sample, &mut extended);

            bound |= pat.var_mask();
            steps.push(Step {
                pattern: pick,
                scan_count: counts[pick],
                card_before,
                card_after: card,
                min_avg_size,
                is_seed,
                rows_bound,
            });
            if card == 0.0 {
                // Dead prefix: remaining steps cannot resurrect it. They are
                // recorded in source order.
                let mut rest = order[k + 1..].to_vec();
                rest.sort_unstable();
                steps.extend(rest.into_iter().map(|i| Step {
                    pattern: i,
                    scan_count: counts[i],
                    card_before: 0.0,
                    card_after: 0.0,
                    min_avg_size: 1.0,
                    is_seed: false,
                    rows_bound: 0,
                }));
                break;
            }
        }
        Estimator { steps, cardinality: card }
    }

    /// The execution order of pattern indexes this sketch assumed:
    /// [`join_order`], except that the patterns behind a dead prefix
    /// (estimated cardinality 0) follow in source order.
    pub fn order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.pattern).collect()
    }
}

/// `min_i average_size(v_i, p)` over the pattern's endpoints bound before
/// this step — the per-tuple cost of a WCO extension (Section 5.1.2).
fn min_avg_size(store: &Snapshot, pat: &EncodedTriplePattern, bound: VarMask) -> f64 {
    let p_const = pat.p.as_const();
    let s_bound = match pat.s {
        Slot::Const(_) => true,
        Slot::Var(v) => bound & (1 << v) != 0,
    };
    let o_bound = match pat.o {
        Slot::Const(_) => true,
        Slot::Var(v) => bound & (1 << v) != 0,
    };
    let stats = store.stats();
    let mut best = f64::INFINITY;
    if s_bound {
        best = best.min(stats.average_size(p_const, true));
    }
    if o_bound {
        best = best.min(stats.average_size(p_const, false));
    }
    if best.is_finite() {
        best
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{encode_bgp, CandidateSet};
    use crate::{BgpEngine, BinaryJoinEngine, WcoEngine};
    use proptest::prelude::*;
    use std::sync::Arc;
    use uo_rdf::Term;
    use uo_sparql::algebra::{Bag, VarTable};
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

    /// A chain graph: x0 -p-> x1 -p-> ... with 100 nodes, plus one hub with
    /// 50 q-edges.
    fn store() -> Arc<Snapshot> {
        let mut st = StoreWriter::new();
        for i in 0..100 {
            st.insert_terms(
                &Term::iri(format!("http://n{i}")),
                &Term::iri("http://p"),
                &Term::iri(format!("http://n{}", i + 1)),
            );
        }
        for i in 0..50 {
            st.insert_terms(
                &Term::iri("http://hub"),
                &Term::iri("http://q"),
                &Term::iri(format!("http://m{i}")),
            );
        }
        st.commit()
    }

    #[test]
    fn single_pattern_exact() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(&[tp("?x", "http://p", "?y")], &mut vt, st.dictionary());
        let e = Estimator::sketch(&st, &bgp);
        assert_eq!(e.cardinality, 100.0);
        assert_eq!(e.steps.len(), 1);
        assert!(e.steps[0].is_seed);
    }

    #[test]
    fn chain_estimate_close_to_exact() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(
            &[tp("?x", "http://p", "?y"), tp("?y", "http://p", "?z")],
            &mut vt,
            st.dictionary(),
        );
        let e = Estimator::sketch(&st, &bgp);
        // Exact: 99 two-hop paths. The sampled estimate should be within 2x.
        assert!(e.cardinality > 45.0 && e.cardinality < 200.0, "{}", e.cardinality);
    }

    #[test]
    fn selective_constant_first() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(
            &[tp("?x", "http://p", "?y"), tp("http://hub", "http://q", "?z")],
            &mut vt,
            st.dictionary(),
        );
        let e = Estimator::sketch(&st, &bgp);
        // The hub pattern (50 matches) is chosen as seed over the p-chain
        // (100 matches); the other pattern is disconnected → cartesian.
        assert_eq!(e.steps[0].pattern, 1);
        assert!(e.steps[1].is_seed, "disconnected component re-seeds");
        assert!((e.cardinality - 5000.0).abs() < 2500.0, "{}", e.cardinality);
    }

    #[test]
    fn dead_constant_estimates_zero() {
        let st = store();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(&[tp("?x", "http://nope", "?y")], &mut vt, st.dictionary());
        let e = Estimator::sketch(&st, &bgp);
        assert_eq!(e.cardinality, 0.0);
    }

    #[test]
    fn empty_bgp_is_unit() {
        let st = store();
        let bgp = EncodedBgp::default();
        let e = Estimator::sketch(&st, &bgp);
        assert_eq!(e.cardinality, 1.0);
        assert!(e.steps.is_empty());
    }

    #[test]
    fn connected_pattern_preferred_over_smaller_disconnected() {
        let st = store();
        let mut vt = VarTable::new();
        // Seed will be the hub (50); then ?z chain patterns are disconnected
        // from hub's ?z... construct: hub pattern binds ?z; p-pattern over
        // (?z, ?w) is connected; (?a, ?b) is not.
        let bgp = encode_bgp(
            &[
                tp("http://hub", "http://q", "?z"),
                tp("?z", "http://p", "?w"),
                tp("?a", "http://p", "?b"),
            ],
            &mut vt,
            st.dictionary(),
        );
        let e = Estimator::sketch(&st, &bgp);
        assert_eq!(e.order()[0], 0);
        assert_eq!(e.order()[1], 1, "connected pattern must come before disconnected");
    }

    /// The sketch as it was before estimation was bounded — every match of
    /// every sample row walked and bound, one boxed row per match — kept
    /// verbatim as the reference the bounded sketch must reproduce bit for
    /// bit (`rows_bound` is the one field it does not know).
    fn walking_sketch(store: &Snapshot, bgp: &EncodedBgp) -> Estimator {
        let n = bgp.patterns.len();
        if n == 0 {
            return Estimator { steps: Vec::new(), cardinality: 1.0 };
        }
        let counts: Vec<usize> = bgp.patterns.iter().map(|p| p.scan_count(store)).collect();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut bound: VarMask = 0;
        let mut steps: Vec<Step> = Vec::with_capacity(n);
        let mut card = 1.0f64;
        let width = bgp
            .patterns
            .iter()
            .flat_map(|p| p.slots())
            .filter_map(|s| s.as_var())
            .map(|v| v as usize + 1)
            .max()
            .unwrap_or(0);
        let mut sample: Vec<Box<[Id]>> = vec![vec![NO_ID; width].into_boxed_slice()];

        while !remaining.is_empty() {
            let pick = remaining
                .iter()
                .copied()
                .filter(|&i| bound == 0 || bgp.patterns[i].var_mask() & bound != 0)
                .min_by_key(|&i| counts[i])
                .unwrap_or_else(|| remaining.iter().copied().min_by_key(|&i| counts[i]).unwrap());
            remaining.retain(|&i| i != pick);
            let pat = &bgp.patterns[pick];
            let is_seed = bound == 0 || pat.var_mask() & bound == 0;

            let min_avg_size = min_avg_size(store, pat, bound);
            let card_before = card;

            let mut extended: Vec<Box<[Id]>> = Vec::new();
            let mut total_ext = 0usize;
            for row in &sample {
                let s = pat.s.resolve(row);
                let p = pat.p.resolve(row);
                let o = pat.o.resolve(row);
                for spo in store.match_pattern(s, p, o).iter_spo() {
                    if let Some(next) = pat.bind(spo, row) {
                        total_ext += 1;
                        if extended.len() < SAMPLE_SIZE {
                            extended.push(next);
                        }
                    }
                }
            }
            let ratio =
                if sample.is_empty() { 0.0 } else { total_ext as f64 / sample.len() as f64 };
            card = if is_seed {
                (card_before * counts[pick] as f64).max(if counts[pick] == 0 { 0.0 } else { 1.0 })
            } else if total_ext == 0 {
                if sample.len() < SAMPLE_SIZE {
                    0.0
                } else {
                    1.0
                }
            } else {
                (ratio * card_before).max(1.0)
            };
            if !extended.is_empty() || is_seed {
                if is_seed {
                    let base = sample.first().cloned();
                    extended.clear();
                    if let Some(base) = base {
                        for spo in store
                            .match_pattern(pat.s.as_const(), pat.p.as_const(), pat.o.as_const())
                            .iter_spo()
                            .take(SAMPLE_SIZE)
                        {
                            if let Some(next) = pat.bind(spo, &base) {
                                extended.push(next);
                            }
                        }
                    }
                }
                sample = extended;
            } else {
                sample.clear();
            }

            bound |= pat.var_mask();
            steps.push(Step {
                pattern: pick,
                scan_count: counts[pick],
                card_before,
                card_after: card,
                min_avg_size,
                is_seed,
                rows_bound: 0,
            });
            if card == 0.0 {
                for &i in &remaining {
                    steps.push(Step {
                        pattern: i,
                        scan_count: counts[i],
                        card_before: 0.0,
                        card_after: 0.0,
                        min_avg_size: 1.0,
                        is_seed: false,
                        rows_bound: 0,
                    });
                }
                remaining.clear();
            }
        }
        Estimator { steps, cardinality: card }
    }

    /// The two engines' cost formulas as they read the walking sketch.
    fn walking_costs(sketch: &Estimator) -> (f64, f64) {
        let (mut wco, mut binary) = (0.0, 0.0);
        for (i, step) in sketch.steps.iter().enumerate() {
            let scan = step.scan_count as f64;
            wco += if step.is_seed { scan } else { step.card_before * step.min_avg_size };
            binary += scan;
            if i > 0 {
                binary += 2.0 * step.card_before.min(scan) + step.card_before.max(scan);
            }
        }
        (wco, binary)
    }

    /// Everything of a sketch but `rows_bound`, floats by bit pattern: one
    /// entry per step, then the final cardinality.
    fn fingerprint(e: &Estimator) -> Vec<[u64; 6]> {
        let step = |s: &Step| {
            [
                s.pattern as u64,
                s.scan_count as u64,
                s.card_before.to_bits(),
                s.card_after.to_bits(),
                s.min_avg_size.to_bits(),
                s.is_seed as u64,
            ]
        };
        e.steps.iter().map(step).chain([[e.cardinality.to_bits(), 0, 0, 0, 0, 0]]).collect()
    }

    /// Row-at-a-time extension joins in a given pattern order.
    fn eval_in_order(store: &Snapshot, bgp: &EncodedBgp, width: usize, order: &[usize]) -> Bag {
        let mut rows: Vec<Box<[Id]>> = vec![vec![NO_ID; width].into_boxed_slice()];
        for &i in order {
            let pat = &bgp.patterns[i];
            let mut next = Vec::new();
            for row in &rows {
                let (s, p, o) = (pat.s.resolve(row), pat.p.resolve(row), pat.o.resolve(row));
                next.extend(
                    store.match_pattern(s, p, o).iter_spo().filter_map(|spo| pat.bind(spo, row)),
                );
            }
            rows = next;
        }
        Bag::from_rows(width, rows)
    }

    /// Asserts the per-step bound on data-dependent planning work.
    fn assert_rows_bound(bgp: &EncodedBgp, sketch: &Estimator) {
        let mut bound: VarMask = 0;
        for step in &sketch.steps {
            let pat = &bgp.patterns[step.pattern];
            if !pat.repeats_var_outside(bound) {
                assert!(step.rows_bound <= SAMPLE_SIZE, "{step:?} bound more than the sample");
            }
            bound |= pat.var_mask();
        }
    }

    const N_ENT: u32 = 90;
    const N_PRED: u32 = 3;

    fn ent(i: u32) -> Term {
        Term::iri(format!("http://e{i}"))
    }

    fn pred(i: u32) -> Term {
        Term::iri(format!("http://p{i}"))
    }

    /// A snapshot built by up to four commits: the first inserts (with an
    /// optional hub whose fan-out exceeds the sample), later ones insert
    /// more and delete triples that are live, so ranges span several levels
    /// and carry tombstones.
    fn arb_snapshot() -> impl Strategy<Value = Arc<Snapshot>> {
        let triple = || ((0..N_ENT), (0..N_PRED), (0..N_ENT));
        let commit =
            (prop::collection::vec(triple(), 0..120), prop::collection::vec(0usize..1000, 0..40));
        (
            any::<bool>(),
            prop::collection::vec(triple(), 0..400),
            prop::collection::vec(commit, 0..4),
        )
            .prop_map(|(hub, base, commits)| {
                let mut w = StoreWriter::new();
                let mut live: Vec<(u32, u32, u32)> = base;
                if hub {
                    live.extend((0..N_ENT).map(|o| (0, 0, o)));
                    live.extend((0..N_ENT).step_by(3).map(|x| (x, 1, x)));
                }
                for &(s, p, o) in &live {
                    w.insert_terms(&ent(s), &pred(p), &ent(o));
                }
                if hub {
                    // Predicates as objects, for `?s ?p ?p`.
                    for x in (0..N_ENT).step_by(2) {
                        w.insert_terms(&ent(x), &pred(2), &pred(2));
                    }
                }
                w.commit();
                for (inserts, deletes) in commits {
                    for pick in deletes {
                        if !live.is_empty() {
                            let (s, p, o) = live.swap_remove(pick % live.len());
                            w.delete_terms(&ent(s), &pred(p), &ent(o));
                        }
                    }
                    for &(s, p, o) in &inserts {
                        w.insert_terms(&ent(s), &pred(p), &ent(o));
                    }
                    live.extend(inserts);
                    w.commit();
                }
                w.snapshot()
            })
    }

    /// 1–4 patterns over four variables, so repeats within a pattern,
    /// shared variables and disconnected components all occur. A node is a
    /// variable (3 in 5) or one of eight entities, the last absent from the
    /// data (a dead constant); a predicate is live, dead (1 in 12) or the
    /// variable `?v3` (1 in 6).
    fn arb_patterns() -> impl Strategy<Value = Vec<TriplePattern>> {
        let node = |x: u32| {
            if x < 12 {
                PatternTerm::Var(format!("v{}", x % 4))
            } else {
                PatternTerm::Const(ent((x - 12) * N_ENT / 7))
            }
        };
        prop::collection::vec(((0u32..20), (0u32..12), (0u32..20)), 1..5).prop_map(move |raw| {
            raw.into_iter()
                .map(|(s, p, o)| {
                    let p = match p {
                        0 | 1 => PatternTerm::Var("v3".to_string()),
                        p => PatternTerm::Const(pred((p - 2) % (N_PRED + 1))),
                    };
                    TriplePattern::new(node(s), p, node(o))
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn bounded_sketch_is_the_walking_sketch(snap in arb_snapshot(), patterns in arb_patterns()) {
            let mut vars = VarTable::new();
            let bgp = encode_bgp(&patterns, &mut vars, snap.dictionary());
            let reference = walking_sketch(&snap, &bgp);
            let sketch = Estimator::sketch(&snap, &bgp);
            prop_assert_eq!(fingerprint(&sketch), fingerprint(&reference));
            prop_assert_eq!(sketch.order(), reference.order());
            assert_rows_bound(&bgp, &sketch);

            // Both engines' estimates are what they read off the walking one.
            let (wco_cost, binary_cost) = walking_costs(&reference);
            let engines: [(&dyn BgpEngine, f64); 2] =
                [(&WcoEngine::sequential(), wco_cost), (&BinaryJoinEngine::sequential(), binary_cost)];
            let counts = scan_counts(&snap, &bgp);
            let order = join_order(&bgp, &counts);
            let width = vars.len().max(1);
            let expected = eval_in_order(&snap, &bgp, width, &reference.order()).canonicalized();
            for (engine, cost) in engines {
                let estimate = engine.estimate(&snap, &bgp);
                prop_assert_eq!(estimate.cardinality.to_bits(), reference.cardinality.to_bits());
                prop_assert_eq!(estimate.cost.to_bits(), cost.to_bits());
                prop_assert_eq!(&estimate.order, &reference.order());
                prop_assert_eq!(
                    engine.estimate_cardinality(&snap, &bgp).to_bits(),
                    reference.cardinality.to_bits()
                );
                prop_assert_eq!(engine.estimate_cost(&snap, &bgp).to_bits(), cost.to_bits());
                // The engines execute `join_order`, which is the sketch's
                // order unless a prefix was estimated dead; either way the
                // answer is the one the sketch's order gives.
                let bag = engine.evaluate(&snap, &bgp, width, &CandidateSet::none());
                prop_assert_eq!(bag.canonicalized(), expected.clone(), "engine {}", engine.name());
            }
            if reference.cardinality != 0.0 {
                prop_assert_eq!(order, reference.order());
            }
        }
    }

    #[test]
    fn work_is_bounded_by_the_sample_not_the_data() {
        // 5000 p0-edges out of 50 sources, each source also a p1-target; 50
        // p2 self-loops apart from them.
        let mut st = StoreWriter::new();
        for i in 0..5000 {
            st.insert_terms(&ent(i % 50), &pred(0), &ent(100 + i));
        }
        for i in 0..50 {
            st.insert_terms(&ent(1000 + i), &pred(1), &ent(i));
            st.insert_terms(&ent(2000 + i), &pred(2), &ent(2000 + i));
        }
        let st = st.commit();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(
            &[
                tp("?a", "http://p1", "?x"),
                tp("?x", "http://p0", "?y"),
                tp("?c", "http://p0", "?d"),
                tp("?e", "http://p2", "?e"),
            ],
            &mut vt,
            st.dictionary(),
        );
        let e = Estimator::sketch(&st, &bgp);
        assert_eq!(fingerprint(&e), fingerprint(&walking_sketch(&st, &bgp)));
        assert_eq!(e.order(), [0, 1, 3, 2]);
        assert_eq!(e.cardinality, 5000.0 * 50.0 * 5000.0);
        assert_rows_bound(&bgp, &e);
        assert_eq!(
            e.steps.iter().map(|s| s.rows_bound).collect::<Vec<_>>(),
            [50, SAMPLE_SIZE, 50, SAMPLE_SIZE]
        );

        // The one shape that still walks: a repeated variable that is still
        // unbound lets `bind` reject matches of the range. Ten ?z, each with
        // 101 outgoing edges of which one has its predicate as its object.
        let mut st = StoreWriter::new();
        for z in 0..10 {
            st.insert_terms(&ent(0), &pred(0), &ent(10 + z));
            st.insert_terms(&ent(10 + z), &pred(1), &pred(1));
            for o in 0..100 {
                st.insert_terms(&ent(10 + z), &pred(1), &ent(100 + o));
            }
        }
        let st = st.commit();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(
            &[tp("http://e0", "http://p0", "?z"), tp("?z", "?w", "?w")],
            &mut vt,
            st.dictionary(),
        );
        let e = Estimator::sketch(&st, &bgp);
        assert_eq!(fingerprint(&e), fingerprint(&walking_sketch(&st, &bgp)));
        assert_eq!(e.cardinality, 10.0);
        assert_eq!(e.steps.iter().map(|s| s.rows_bound).collect::<Vec<_>>(), [10, 10 * 101]);
    }

    #[test]
    fn falsely_dead_prefix_changes_the_order_not_the_answer() {
        // ?x p0 ?y has 100 rows and seeds; of the 64 sampled ?y only y0 has
        // a p1 edge, and its ?z has no p2 edge — the sketch calls the prefix
        // dead although y64.. reach all the way through p2, p3 and p4.
        let mut st = StoreWriter::new();
        for i in 0..100 {
            st.insert_terms(&ent(i), &pred(0), &ent(100 + i));
        }
        st.insert_terms(&ent(100), &pred(1), &ent(200));
        for i in 64..100 {
            for j in 0..5 {
                st.insert_terms(&ent(100 + i), &pred(1), &ent(300 + j));
            }
        }
        for j in 0..5 {
            for k in 0..60 {
                st.insert_terms(&ent(300 + j), &pred(2), &ent(400 + k));
            }
        }
        for k in 0..60 {
            for m in 0..3 {
                st.insert_terms(&ent(400 + k), &pred(3), &ent(500 + m));
            }
            for m in 0..2 {
                st.insert_terms(&ent(400 + k), &pred(4), &ent(600 + m));
            }
        }
        let st = st.commit();
        let mut vt = VarTable::new();
        let bgp = encode_bgp(
            &[
                tp("?x", "http://p0", "?y"),
                tp("?y", "http://p1", "?z"),
                tp("?z", "http://p2", "?w"),
                tp("?w", "http://p3", "?u"),
                tp("?w", "http://p4", "?t"),
            ],
            &mut vt,
            st.dictionary(),
        );
        let e = Estimator::sketch(&st, &bgp);
        assert_eq!(fingerprint(&e), fingerprint(&walking_sketch(&st, &bgp)));
        assert_eq!(e.cardinality, 0.0);
        assert_eq!(e.order(), [0, 1, 2, 3, 4], "behind the dead prefix: source order");
        let order = join_order(&bgp, &scan_counts(&st, &bgp));
        assert_eq!(order, [0, 1, 2, 4, 3], "the engines keep to the greedy rule");

        let expected = eval_in_order(&st, &bgp, vt.len(), &e.order()).canonicalized();
        assert_eq!(expected.len(), 36 * 5 * 60 * 3 * 2);
        for engine in [&WcoEngine::sequential() as &dyn BgpEngine, &BinaryJoinEngine::sequential()]
        {
            let bag = engine.evaluate(&st, &bgp, vt.len(), &CandidateSet::none());
            assert_eq!(bag.canonicalized(), expected, "engine {}", engine.name());
        }
    }
}
