//! BGP-based query evaluation (Algorithm 1) with query-time candidate
//! pruning (Section 6).
//!
//! The evaluator walks a BE-tree's group node children left to right,
//! maintaining an accumulator bag `r` (initialized to the unit bag):
//!
//! - BGP child → `r ← r ⋈ EvaluateBGP(D, bgp)`;
//! - group child → recursive evaluation, then `⋈`;
//! - UNION child → each branch evaluated recursively, merged with `∪bag`,
//!   then `⋈`;
//! - OPTIONAL child → recursive evaluation of the right side, then `⟕`;
//! - FILTER children apply to the group's rows at the end (SPARQL group
//!   scoping).
//!
//! **Candidate pruning**: when enabled, the evaluator derives per-variable
//! candidate value lists from the accumulated `r` (only for variables bound
//! in *every* row — pruning on a sometimes-unbound variable would be
//! unsound) and passes them into recursive calls and BGP evaluations. A list
//! is only applied if it is smaller than the pruning threshold: a fixed
//! fraction of the dataset (the `CP` strategy) or the engine's estimate of
//! the target BGP's result size (the adaptive `full` strategy), falling back
//! to the fixed bound when no estimate is cached.

use crate::betree::{bgp_detail, BeNode, BeTree, EvalCtx, GroupNode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uo_engine::{BgpEngine, CandidateSet};
use uo_obs::{OpProfile, Profiler};
use uo_par::Parallelism;
use uo_rdf::{FxHashMap, Id, NO_ID};
use uo_sparql::algebra::{Bag, VarId, VarTable};
use uo_store::Snapshot;

/// Cooperative cancellation for long-running evaluations.
///
/// Evaluation checks the token at every **BGP-evaluation boundary** (before
/// each BGP is handed to the engine) — the granularity the serving layer's
/// per-query deadlines rely on: a BGP evaluation itself is never interrupted,
/// but no further BGP work starts once the token trips. A token combines an
/// optional wall-clock deadline with an optional shared flag (used for
/// server shutdown); either firing cancels the evaluation.
#[derive(Debug, Clone, Default)]
pub struct Cancellation {
    deadline: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
}

impl Cancellation {
    /// A token that never fires (the default for library callers).
    pub fn none() -> Self {
        Cancellation::default()
    }

    /// Cancels once the wall clock reaches `deadline`.
    pub fn at(deadline: Instant) -> Self {
        Cancellation { deadline: Some(deadline), flag: None }
    }

    /// Cancels `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Cancellation::at(Instant::now() + timeout)
    }

    /// Adds a shared cancel flag (set it to `true` to cancel from outside).
    pub fn with_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.flag = Some(flag);
        self
    }

    /// True once the deadline has passed or the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        if let Some(f) = &self.flag {
            if f.load(Ordering::Relaxed) {
                return true;
            }
        }
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// True if this token can never fire (lets hot paths skip the clock).
    pub fn is_none(&self) -> bool {
        self.deadline.is_none() && self.flag.is_none()
    }
}

/// Error returned when an evaluation is cancelled (deadline exceeded or
/// cancel flag raised) before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query evaluation cancelled (deadline exceeded or shutdown)")
    }
}

impl std::error::Error for Cancelled {}

/// Candidate-pruning configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pruning {
    /// No pruning (the `base` and `TT` strategies).
    Off,
    /// Fixed threshold on candidate list size (the `CP` strategy uses
    /// 1% of the number of triples, Section 7.1).
    Fixed(usize),
    /// Adaptive: per-BGP estimated result size when available (cached by the
    /// optimizer), else the given fixed fallback (the `full` strategy).
    Adaptive(usize),
}

impl Pruning {
    /// The paper's fixed setting: 1% of the dataset's triple count.
    pub fn fixed_for(store: &Snapshot) -> Pruning {
        Pruning::Fixed((store.len() / 100).max(1))
    }

    /// The paper's adaptive setting with the 1% fallback.
    pub fn adaptive_for(store: &Snapshot) -> Pruning {
        Pruning::Adaptive((store.len() / 100).max(1))
    }

    fn enabled(&self) -> bool {
        !matches!(self, Pruning::Off)
    }

    /// An upper bound on how many distinct values are ever worth collecting
    /// for one variable: lists at or above this bound can never pass any
    /// admission threshold of this mode, so derivation aborts early there
    /// (this keeps candidate-derivation overhead proportional to the pruning
    /// benefit, as Section 6 requires).
    fn collection_cap(&self) -> usize {
        match self {
            Pruning::Off => 0,
            Pruning::Fixed(t) => *t,
            // Adaptive thresholds are per-BGP estimates; collecting a few
            // times the fixed fallback covers the useful range.
            Pruning::Adaptive(fallback) => fallback.saturating_mul(4).max(1),
        }
    }

    /// The admission threshold for one BGP node.
    fn threshold(&self, node_estimate: Option<f64>) -> usize {
        match self {
            Pruning::Off => 0,
            Pruning::Fixed(t) => *t,
            Pruning::Adaptive(fallback) => match node_estimate {
                Some(est) if est.is_finite() => (est.ceil() as usize).max(1),
                _ => *fallback,
            },
        }
    }
}

/// Statistics gathered during one evaluation.
#[derive(Debug, Default, Clone)]
pub struct ExecStats {
    /// Number of BGP evaluations performed.
    pub bgp_evals: usize,
    /// Result sizes of each BGP evaluation, in evaluation order.
    pub bgp_result_sizes: Vec<usize>,
    /// The join space `JS(Q)` of this execution (Section 7.1): BGP result
    /// sizes combined by products over joins/optionals and sums over unions.
    pub join_space: f64,
    /// Number of variables that were actually restricted by pruning.
    pub pruned_vars: usize,
    /// Total rows produced by BGP evaluations (the sum of
    /// `bgp_result_sizes`, as a counter). Under a row budget this is the
    /// enumeration work actually performed — strictly below the unbudgeted
    /// total whenever early termination kicked in. Deterministic across
    /// worker counts.
    pub rows_enumerated: u64,
    /// True if any budget-capped operator filled its cap — i.e. evaluation
    /// stopped enumerating before exhausting the result space. Deterministic
    /// across worker counts.
    pub short_circuit: bool,
}

/// Per-variable candidate values flowing down the tree. Lists are sorted
/// and deduplicated; `None` entries mean "seen but too large to be useful"
/// is *not* tracked — vars simply stay absent.
#[derive(Debug, Default, Clone)]
struct CandSource {
    per_var: FxHashMap<VarId, Vec<Id>>,
}

impl CandSource {
    /// Derives candidates from the accumulator: only variables bound in
    /// every row of `r` are sound pruning keys. Derivation is scoped to
    /// `wanted` (the variables of BGPs in the target subtree) and aborts a
    /// variable once its distinct count reaches `cap` — oversized lists can
    /// never pass an admission threshold, so collecting them would be pure
    /// overhead.
    fn derive(r: &Bag, inherited: &CandSource, wanted: u64, cap: usize) -> CandSource {
        let mut out = CandSource::default();
        for (&v, vals) in &inherited.per_var {
            if wanted & (1u64 << v) != 0 {
                out.per_var.insert(v, vals.clone());
            }
        }
        if r.is_unit() || r.is_empty() || cap == 0 {
            return out;
        }
        for v in 0..r.width as u16 {
            if r.certain & (1u64 << v) == 0 || wanted & (1u64 << v) == 0 {
                continue;
            }
            let Some(vals) = distinct_values_capped(r, v, cap) else {
                continue;
            };
            match out.per_var.get_mut(&v) {
                // Both restrictions hold: intersect.
                Some(prev) => *prev = intersect_sorted(prev, &vals),
                None => {
                    out.per_var.insert(v, vals);
                }
            }
        }
        out
    }

    /// Drops candidate variables not certainly bound in `r` (every row).
    /// Required when crossing an OPTIONAL boundary; see the caller.
    fn retain_certain(&mut self, r: &Bag) {
        if r.is_unit() {
            self.per_var.clear();
            return;
        }
        self.per_var.retain(|&v, _| r.certain & (1u64 << v) != 0);
    }

    /// Builds the [`CandidateSet`] for one BGP: only variables of the BGP,
    /// only lists below the threshold.
    fn for_bgp(&self, bgp_vars: u64, threshold: usize, stats: &mut ExecStats) -> CandidateSet {
        let mut cs = CandidateSet::none();
        for (&v, vals) in &self.per_var {
            if bgp_vars & (1u64 << v) != 0 && vals.len() < threshold {
                cs.restrict(v, vals.clone());
                stats.pruned_vars += 1;
            }
        }
        cs
    }
}

/// Distinct values of `v` across `r`'s rows, or `None` once the count
/// reaches `cap`.
fn distinct_values_capped(r: &Bag, v: VarId, cap: usize) -> Option<Vec<Id>> {
    let mut set: uo_rdf::FxHashSet<Id> = uo_rdf::FxHashSet::default();
    for row in &r.rows {
        let x = row[v as usize];
        if x != uo_rdf::NO_ID {
            set.insert(x);
            if set.len() >= cap {
                return None;
            }
        }
    }
    let mut vals: Vec<Id> = set.into_iter().collect();
    vals.sort_unstable();
    Some(vals)
}

fn intersect_sorted(a: &[Id], b: &[Id]) -> Vec<Id> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Evaluates a BE-tree over `width` query variables (Algorithm 1, optionally
/// augmented with candidate pruning) against `ctx`, under a
/// [`Cancellation`] token checked before every BGP evaluation: once it
/// fires the partial bag is discarded and `Err(Cancelled)` returned. Above
/// one worker the branches of every UNION node are evaluated concurrently
/// and merged in branch order, so the result (and the recorded statistics)
/// are identical to a sequential evaluation. The caller must decode the
/// bag with `ctx`: BIND, VALUES and aggregate outputs may mint synthetic ids
/// that only this context can resolve back to terms.
///
/// With the [`Profiler`] on, every plan operator records a span — wall
/// nanoseconds (inclusive of joining its output into the accumulator),
/// actual output cardinality, and (for BGP nodes) the optimizer's
/// cardinality estimate — returned as a tree rooted at the plan's top group. `vars` supplies variable names for
/// span details; positional placeholders are used when absent.
///
/// Span *structure* and cardinalities are deterministic: parallel UNION
/// branches record into branch-local span lists merged in branch order, so
/// the profile is bit-identical across worker counts except for the
/// `wall_nanos` timing values. With the profiler off this path performs one
/// extra branch per operator and allocates nothing.
///
/// `budget` is the row budget (`offset + limit`) for top-k pushdown: when
/// `Some(n)`, evaluation may stop enumerating once `n` rows exist, and the
/// returned bag is guaranteed to be the exact first `n` rows (in the
/// deterministic result order) of the bag an unbudgeted run would produce.
/// Callers are responsible for passing `None` whenever a budget would be
/// unsound (ORDER BY, DISTINCT, aggregation — see `row_budget`).
#[allow(clippy::too_many_arguments)]
pub fn try_evaluate_profiled(
    tree: &BeTree,
    store: &Snapshot,
    engine: &dyn BgpEngine,
    width: usize,
    pruning: Pruning,
    par: Parallelism,
    cancel: &Cancellation,
    ctx: &EvalCtx,
    profiler: Profiler,
    vars: Option<&VarTable>,
    budget: Option<usize>,
) -> Result<(Bag, ExecStats, Option<OpProfile>), Cancelled> {
    let mut stats = ExecStats::default();
    let prof = ProfCtx { on: profiler.is_on(), vars };
    let t0 = prof.on.then(Instant::now);
    let (bag, js, ops) = eval_group(
        &tree.root,
        store,
        engine,
        width,
        pruning,
        &CandSource::default(),
        &mut stats,
        par,
        cancel,
        ctx,
        prof,
        budget,
    )?;
    stats.join_space = js;
    let root = t0.map(|t| OpProfile {
        op: "group",
        detail: String::new(),
        wall_nanos: t.elapsed().as_nanos() as u64,
        rows: bag.len() as u64,
        est_rows: None,
        children: ops,
    });
    Ok((bag, stats, root))
}

/// Per-evaluation profiling context threaded through [`eval_group`]: a
/// single boolean plus the variable table used for span details. `Copy`, so
/// the disabled path costs one branch per operator.
#[derive(Clone, Copy)]
struct ProfCtx<'a> {
    on: bool,
    vars: Option<&'a VarTable>,
}

/// True if the subtree contains a BIND or VALUES node, i.e. evaluation may
/// intern synthetic terms. Such subtrees are evaluated sequentially inside
/// UNION fan-outs so synthetic id assignment stays in branch order and the
/// result bag is bit-identical at any worker count.
fn group_interns_terms(g: &GroupNode) -> bool {
    g.children.iter().any(|c| match c {
        BeNode::Bind(..) | BeNode::Values(_) => true,
        BeNode::Group(gg) | BeNode::Optional(gg) | BeNode::Minus(gg) => group_interns_terms(gg),
        BeNode::Union(bs) => bs.iter().any(group_interns_terms),
        BeNode::Bgp(_) | BeNode::Filter(_) => false,
    })
}

/// Computes the per-child row budget for one group: `budget_at[i]` is
/// `Some(cap)` iff capping child `i`'s *output* at `cap` rows still yields
/// the exact first `cap` rows of the group's unbudgeted result.
///
/// Child `i` may be capped only when (a) the group has no FILTER children —
/// filters drop rows after the fact, so a capped accumulator could starve
/// them — and (b) every child after `i` is **count-preserving**: it never
/// removes or reorders accumulator rows. BIND always preserves (in-place row
/// extension); OPTIONAL preserves (`⟕` emits ≥ 1 row per left row, in left
/// order) but only while candidate pruning is off — with pruning on, the
/// OPTIONAL's right side derives candidate sets from the accumulator, and a
/// capped accumulator can shrink those sets enough to flip the right-side
/// engine's internal join choices and reorder its bag. Every other operator
/// (join, union, minus, values) can filter, so nothing before it is capped.
/// Joins `bag` into the accumulator, capping the output when a budget
/// applies and recording a short-circuit whenever the cap filled up.
fn join_capped_into(r: Bag, bag: &Bag, cap: Option<usize>, stats: &mut ExecStats) -> Bag {
    match cap {
        Some(c) => {
            let joined = r.join_capped(bag, c);
            if joined.len() >= c {
                stats.short_circuit = true;
            }
            joined
        }
        None => r.join(bag),
    }
}

fn child_budgets(g: &GroupNode, budget: Option<usize>, pruning: Pruning) -> Vec<Option<usize>> {
    let mut budget_at: Vec<Option<usize>> = vec![None; g.children.len()];
    let Some(cap) = budget else { return budget_at };
    if g.children.iter().any(|c| matches!(c, BeNode::Filter(_))) {
        return budget_at;
    }
    let mut ok = true;
    for i in (0..g.children.len()).rev() {
        budget_at[i] = ok.then_some(cap);
        ok = ok
            && match &g.children[i] {
                BeNode::Bind(..) => true,
                BeNode::Optional(_) => !pruning.enabled(),
                _ => false,
            };
    }
    budget_at
}

#[allow(clippy::too_many_arguments)]
fn eval_group(
    g: &GroupNode,
    store: &Snapshot,
    engine: &dyn BgpEngine,
    width: usize,
    pruning: Pruning,
    inherited: &CandSource,
    stats: &mut ExecStats,
    par: Parallelism,
    cancel: &Cancellation,
    ctx: &EvalCtx,
    prof: ProfCtx<'_>,
    budget: Option<usize>,
) -> Result<(Bag, f64, Vec<OpProfile>), Cancelled> {
    let mut r = Bag::unit(width);
    let mut js = 1.0f64;
    let mut spans: Vec<OpProfile> = Vec::new();
    let budget_at = child_budgets(g, budget, pruning);
    for (child_idx, child) in g.children.iter().enumerate() {
        // The budget for this child's output; when the accumulator is still
        // the unit bag the join below is the identity, so the budget may
        // also flow *into* the child's own evaluation (engine early
        // termination, recursive groups, union branches). Otherwise the
        // child is enumerated in full — the accumulator join can filter —
        // and only the join output is capped.
        let cap = budget_at[child_idx];
        let inner_cap = if r.is_unit() { cap } else { None };
        // One branch per operator: `t_child` is `None` whenever profiling
        // is off, and every span-recording site is guarded on it.
        let t_child = prof.on.then(Instant::now);
        match child {
            BeNode::Bgp(b) => {
                // The BGP-evaluation boundary: the one place a running query
                // yields to cancellation (a single BGP evaluation is never
                // interrupted).
                if cancel.is_cancelled() {
                    return Err(Cancelled);
                }
                let cs = if pruning.enabled() {
                    let source =
                        CandSource::derive(&r, inherited, b.var_mask(), pruning.collection_cap());
                    let threshold = pruning.threshold(b.est_cardinality);
                    source.for_bgp(b.var_mask(), threshold, stats)
                } else {
                    CandidateSet::none()
                };
                let bag = match inner_cap {
                    Some(c) => engine.evaluate_limited(store, &b.bgp, width, &cs, c),
                    None => engine.evaluate(store, &b.bgp, width, &cs),
                };
                stats.bgp_evals += 1;
                stats.bgp_result_sizes.push(bag.len());
                stats.rows_enumerated += bag.len() as u64;
                js *= bag.len() as f64;
                let rows = bag.len();
                r = join_capped_into(r, &bag, cap, stats);
                if let Some(t) = t_child {
                    spans.push(OpProfile {
                        op: "bgp",
                        detail: bgp_detail(&b.bgp, prof.vars, store.dictionary()),
                        wall_nanos: t.elapsed().as_nanos() as u64,
                        rows: rows as u64,
                        est_rows: b.est_cardinality,
                        children: Vec::new(),
                    });
                }
            }
            BeNode::Group(gg) => {
                let down = if pruning.enabled() {
                    CandSource::derive(&r, inherited, gg.bgp_var_mask(), pruning.collection_cap())
                } else {
                    CandSource::default()
                };
                let (bag, j, ops) = eval_group(
                    gg, store, engine, width, pruning, &down, stats, par, cancel, ctx, prof,
                    inner_cap,
                )?;
                js *= j;
                let rows = bag.len();
                r = join_capped_into(r, &bag, cap, stats);
                if let Some(t) = t_child {
                    spans.push(OpProfile {
                        op: "group",
                        detail: String::new(),
                        wall_nanos: t.elapsed().as_nanos() as u64,
                        rows: rows as u64,
                        est_rows: None,
                        children: ops,
                    });
                }
            }
            BeNode::Union(branches) => {
                let wanted = branches.iter().fold(0u64, |m, b| m | b.bgp_var_mask());
                let down = if pruning.enabled() {
                    CandSource::derive(&r, inherited, wanted, pruning.collection_cap())
                } else {
                    CandSource::default()
                };
                // Branches are independent: evaluate them concurrently, each
                // into a local statistics block, then merge in branch order —
                // bag rows and statistics come out identical to a sequential
                // left-to-right pass. The thread budget is divided among the
                // branches so nested UNIONs don't multiply the worker count
                // (the result never depends on worker counts, only the
                // oversubscription does). A cancelled branch surfaces after
                // the fan-in: sibling branches finish their current BGP and
                // stop at their own next boundary.
                // Branches that intern synthetic terms (BIND/VALUES inside)
                // are evaluated sequentially so the shared context assigns
                // ids in branch order — keeping the result bag bit-identical
                // at any worker count.
                let fan_out = if branches.iter().any(group_interns_terms) {
                    Parallelism::sequential()
                } else {
                    par
                };
                let inner = Parallelism::new(fan_out.threads().div_ceil(branches.len().max(1)));
                type BranchEval = (Bag, f64, ExecStats, Vec<OpProfile>, u64);
                let evals: Vec<Result<BranchEval, Cancelled>> =
                    uo_par::map_chunks(fan_out, branches, |chunk| {
                        chunk
                            .iter()
                            .map(|b| {
                                // Branch spans are timed inside the branch
                                // (wall time is per-branch even when branches
                                // overlap) and merged in branch order below,
                                // so profile structure and cardinalities stay
                                // bit-identical across worker counts.
                                let t_branch = prof.on.then(Instant::now);
                                let mut local = ExecStats::default();
                                // Each branch gets the *full* budget (the
                                // first `cap` union rows could all come from
                                // one branch); the in-order merge below
                                // truncates to the budget.
                                let (bag, j, ops) = eval_group(
                                    b, store, engine, width, pruning, &down, &mut local, inner,
                                    cancel, ctx, prof, inner_cap,
                                )?;
                                let nanos = t_branch.map_or(0, |t| t.elapsed().as_nanos() as u64);
                                Ok((bag, j, local, ops, nanos))
                            })
                            .collect::<Vec<_>>()
                    })
                    .into_iter()
                    .flatten()
                    .collect();
                let mut u = Bag::empty(width);
                let mut js_u = 0.0f64;
                let mut branch_spans: Vec<OpProfile> = Vec::new();
                for eval in evals {
                    let (bag, j, local, ops, nanos) = eval?;
                    js_u += j;
                    if prof.on {
                        branch_spans.push(OpProfile {
                            op: "branch",
                            detail: format!("branch {}", branch_spans.len()),
                            wall_nanos: nanos,
                            rows: bag.len() as u64,
                            est_rows: None,
                            children: ops,
                        });
                    }
                    u = u.union_bag(bag);
                    stats.bgp_evals += local.bgp_evals;
                    stats.bgp_result_sizes.extend(local.bgp_result_sizes);
                    stats.pruned_vars += local.pruned_vars;
                    stats.rows_enumerated += local.rows_enumerated;
                    stats.short_circuit |= local.short_circuit;
                }
                if let Some(c) = inner_cap {
                    u.truncate(c);
                }
                js *= js_u;
                let rows = u.len();
                r = join_capped_into(r, &u, cap, stats);
                if let Some(t) = t_child {
                    spans.push(OpProfile {
                        op: "union",
                        detail: format!("{} branches", branches.len()),
                        wall_nanos: t.elapsed().as_nanos() as u64,
                        rows: rows as u64,
                        est_rows: None,
                        children: branch_spans,
                    });
                }
            }
            BeNode::Optional(gg) => {
                // Candidates may cross an OPTIONAL boundary only for
                // variables *certainly bound by the OPTIONAL's left side*
                // (the current r). For such a variable v, any optional row
                // removed by pruning could only have matched left rows whose
                // v value is likewise outside the candidate set — rows that
                // die upstream anyway. For a variable the left side may
                // leave unbound, pruning could turn "matched with an
                // incompatible binding" into "unmatched", resurrecting bare
                // rows: unsound (Figure 9's pruning is the certainly-bound
                // case).
                let down = if pruning.enabled() {
                    let mut d = CandSource::derive(
                        &r,
                        inherited,
                        gg.bgp_var_mask(),
                        pruning.collection_cap(),
                    );
                    d.retain_certain(&r);
                    d
                } else {
                    CandSource::default()
                };
                // The right side is never budgeted: a left row's matches can
                // sit anywhere in the right bag, so the full right side is
                // needed even when the ⟕ output is capped below.
                let (bag, j, ops) = eval_group(
                    gg, store, engine, width, pruning, &down, stats, par, cancel, ctx, prof, None,
                )?;
                js *= j;
                let rows = bag.len();
                r = match cap {
                    Some(c) => {
                        let joined = r.left_join_capped(&bag, c);
                        if joined.len() >= c {
                            stats.short_circuit = true;
                        }
                        joined
                    }
                    None => r.left_join(&bag),
                };
                if let Some(t) = t_child {
                    spans.push(OpProfile {
                        op: "optional",
                        detail: String::new(),
                        wall_nanos: t.elapsed().as_nanos() as u64,
                        rows: rows as u64,
                        est_rows: None,
                        children: ops,
                    });
                }
            }
            BeNode::Minus(gg) => {
                // MINUS is not a pruning boundary we exploit: the right side
                // is evaluated without candidates (pruning there could only
                // be done for certain vars, like OPTIONAL; we keep it simple
                // and sound by not pruning at all).
                let (bag, j, ops) = eval_group(
                    gg,
                    store,
                    engine,
                    width,
                    pruning,
                    &CandSource::default(),
                    stats,
                    par,
                    cancel,
                    ctx,
                    prof,
                    None,
                )?;
                js *= j.max(1.0);
                let rows = bag.len();
                r = match cap {
                    Some(c) => {
                        let out = r.minus_capped(&bag, c);
                        if out.len() >= c {
                            stats.short_circuit = true;
                        }
                        out
                    }
                    None => r.minus(&bag),
                };
                if let Some(t) = t_child {
                    spans.push(OpProfile {
                        op: "minus",
                        detail: String::new(),
                        wall_nanos: t.elapsed().as_nanos() as u64,
                        rows: rows as u64,
                        est_rows: None,
                        children: ops,
                    });
                }
            }
            BeNode::Bind(expr, v) => {
                // BIND extends each solution of the preceding siblings with
                // the expression value; an expression error leaves the
                // target unbound (SPARQL 1.1 §10.1).
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
                if let Some(t) = t_child {
                    let name = match prof.vars {
                        Some(vt) => format!("?{}", vt.name(*v)),
                        None => format!("?_{v}"),
                    };
                    spans.push(OpProfile::leaf(
                        "bind",
                        name,
                        t.elapsed().as_nanos() as u64,
                        r.rows.len() as u64,
                    ));
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
                let bag = Bag::from_rows(width, rows);
                js *= (bag.len() as f64).max(1.0);
                let n = bag.len();
                r = join_capped_into(r, &bag, cap, stats);
                if let Some(t) = t_child {
                    spans.push(OpProfile::leaf(
                        "values",
                        format!("{n} rows"),
                        t.elapsed().as_nanos() as u64,
                        n as u64,
                    ));
                }
            }
            BeNode::Filter(_) => {}
        }
    }
    // FILTERs scope over the whole group (applied once at the end). An
    // expression error drops the row, per SPARQL.
    for child in &g.children {
        if let BeNode::Filter(expr) = child {
            let t_f = prof.on.then(Instant::now);
            r.rows.retain(|row| expr.eval_ebv(row, ctx).unwrap_or(false));
            if r.rows.is_empty() {
                r.certain = 0;
            }
            if let Some(t) = t_f {
                spans.push(OpProfile::leaf(
                    "filter",
                    String::new(),
                    t.elapsed().as_nanos() as u64,
                    r.rows.len() as u64,
                ));
            }
        }
    }
    Ok((r, js, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::betree::BeTree;
    use uo_engine::{BinaryJoinEngine, WcoEngine};
    use uo_rdf::Term;
    use uo_sparql::algebra::VarTable;
    use uo_store::{Snapshot, StoreWriter};

    fn store() -> Arc<Snapshot> {
        let mut st = StoreWriter::new();
        let name = Term::iri("http://name");
        let label = Term::iri("http://label");
        let same = Term::iri("http://sameAs");
        let link = Term::iri("http://link");
        let potus = Term::iri("http://POTUS");
        for i in 0..100 {
            let p = Term::iri(format!("http://person{i}"));
            if i % 2 == 0 {
                st.insert_terms(&p, &name, &Term::literal(format!("name{i}")));
            } else {
                st.insert_terms(&p, &label, &Term::literal(format!("label{i}")));
            }
            if i % 10 == 0 {
                st.insert_terms(&p, &same, &Term::iri(format!("http://ext{i}")));
            }
            if i < 4 {
                st.insert_terms(&p, &link, &potus);
            }
        }
        st.commit()
    }

    /// [`try_evaluate_profiled`] with a fresh context, no profiler and no
    /// row budget.
    fn eval(
        tree: &BeTree,
        st: &Snapshot,
        engine: &dyn BgpEngine,
        width: usize,
        pruning: Pruning,
        par: Parallelism,
        cancel: &Cancellation,
    ) -> Result<(Bag, ExecStats), Cancelled> {
        let ctx = EvalCtx::new(st.dictionary());
        let (bag, stats, _) = try_evaluate_profiled(
            tree,
            st,
            engine,
            width,
            pruning,
            par,
            cancel,
            &ctx,
            Profiler::off(),
            None,
            None,
        )?;
        Ok((bag, stats))
    }

    fn run(q: &str, st: &Snapshot, pruning: Pruning) -> (Bag, ExecStats, VarTable) {
        let query = uo_sparql::parse(q).unwrap();
        let mut vars = VarTable::new();
        let tree = BeTree::build(&query, &mut vars, st.dictionary());
        let engine = WcoEngine::new();
        let none = Cancellation::none();
        let (bag, stats) =
            eval(&tree, st, &engine, vars.len(), pruning, Parallelism::from_env(), &none).unwrap();
        (bag, stats, vars)
    }

    const UNION_Q: &str = "SELECT WHERE {
        ?x <http://link> <http://POTUS> .
        { ?x <http://name> ?n } UNION { ?x <http://label> ?n }
    }";

    const OPT_Q: &str = "SELECT WHERE {
        ?x <http://link> <http://POTUS> .
        OPTIONAL { ?x <http://sameAs> ?s }
    }";

    #[test]
    fn budgeted_evaluation_is_exact_prefix() {
        let st = store();
        let ctx = EvalCtx::new(st.dictionary());
        let queries = [
            "SELECT WHERE { ?x <http://name> ?n }",
            "SELECT WHERE { { ?x <http://name> ?n } UNION { ?x <http://label> ?n } }",
            UNION_Q,
            OPT_Q,
        ];
        for q in queries {
            let query = uo_sparql::parse(q).unwrap();
            let mut vars = VarTable::new();
            let tree = BeTree::build(&query, &mut vars, st.dictionary());
            for pruning in [Pruning::Off, Pruning::fixed_for(&st)] {
                for threads in [1usize, 2, 4] {
                    let engine = WcoEngine::with_threads(threads);
                    let eval = |budget: Option<usize>| {
                        let (bag, stats, _) = try_evaluate_profiled(
                            &tree,
                            &st,
                            &engine,
                            vars.len(),
                            pruning,
                            Parallelism::new(threads),
                            &Cancellation::none(),
                            &ctx,
                            Profiler::off(),
                            Some(&vars),
                            budget,
                        )
                        .unwrap();
                        (bag, stats)
                    };
                    let (full, full_stats) = eval(None);
                    assert!(!full_stats.short_circuit, "uncapped run never short-circuits");
                    for budget in [0usize, 1, 2, full.len(), full.len() + 3] {
                        let (capped, stats) = eval(Some(budget));
                        assert_eq!(
                            capped.rows.as_slice(),
                            &full.rows[..budget.min(full.len())],
                            "{q} pruning={pruning:?} threads={threads} budget={budget}"
                        );
                        assert!(
                            stats.rows_enumerated <= full_stats.rows_enumerated,
                            "budget never enumerates more: {q} budget={budget}"
                        );
                        if budget < full.len() {
                            assert!(
                                stats.short_circuit,
                                "a binding budget must be observed: {q} budget={budget}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn union_semantics() {
        let st = store();
        let (bag, _, _) = run(UNION_Q, &st, Pruning::Off);
        // persons 0..4 linked; names for even, labels for odd → 4 results.
        assert_eq!(bag.len(), 4);
    }

    #[test]
    fn optional_keeps_unmatched() {
        let st = store();
        let (bag, _, vars) = run(OPT_Q, &st, Pruning::Off);
        assert_eq!(bag.len(), 4);
        let s = vars.get("s").unwrap();
        let bound = bag.rows.iter().filter(|r| r[s as usize] != 0).count();
        assert_eq!(bound, 1, "only person0 has sameAs among the 4 linked");
    }

    #[test]
    fn pruning_preserves_results() {
        let st = store();
        for q in [UNION_Q, OPT_Q] {
            let (base, _, _) = run(q, &st, Pruning::Off);
            let (cp, _, _) = run(q, &st, Pruning::fixed_for(&st));
            let (ad, _, _) = run(q, &st, Pruning::adaptive_for(&st));
            assert_eq!(base.canonicalized(), cp.canonicalized());
            assert_eq!(base.canonicalized(), ad.canonicalized());
        }
    }

    #[test]
    fn pruning_reduces_bgp_result_sizes() {
        let st = store();
        let (_, off, _) = run(OPT_Q, &st, Pruning::Off);
        let (_, on, _) = run(OPT_Q, &st, Pruning::Fixed(1000));
        let total_off: usize = off.bgp_result_sizes.iter().sum();
        let total_on: usize = on.bgp_result_sizes.iter().sum();
        assert!(total_on < total_off, "{total_on} !< {total_off}");
        assert!(on.pruned_vars > 0);
    }

    #[test]
    fn join_space_union_is_sum() {
        let st = store();
        let (_, stats, _) = run(UNION_Q, &st, Pruning::Off);
        // JS = |b1| × (|name| + |label|) = 4 × (50 + 50).
        assert_eq!(stats.join_space, 400.0);
    }

    #[test]
    fn join_space_shrinks_with_pruning() {
        let st = store();
        let (_, off, _) = run(UNION_Q, &st, Pruning::Off);
        let (_, on, _) = run(UNION_Q, &st, Pruning::Fixed(1000));
        assert!(on.join_space < off.join_space);
    }

    #[test]
    fn nested_optional_pruning_transmits_across_levels() {
        let st = store();
        let q = "SELECT WHERE {
            ?x <http://link> <http://POTUS> .
            OPTIONAL { ?x <http://name> ?n . OPTIONAL { ?x <http://sameAs> ?s } }
        }";
        let (base, _, _) = run(q, &st, Pruning::Off);
        let (cp, stats, _) = run(q, &st, Pruning::Fixed(1000));
        assert_eq!(base.canonicalized(), cp.canonicalized());
        // The inner sameAs BGP must see candidates from the outermost level.
        assert!(stats.pruned_vars >= 2);
    }

    #[test]
    fn filter_applies_to_group() {
        let st = store();
        let q = "SELECT WHERE {
            ?x <http://link> <http://POTUS> .
            OPTIONAL { ?x <http://sameAs> ?s }
            FILTER(BOUND(?s))
        }";
        let (bag, _, _) = run(q, &st, Pruning::Off);
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn engines_agree_on_uo_query() {
        let st = store();
        let query = uo_sparql::parse(UNION_Q).unwrap();
        let mut vars = VarTable::new();
        let tree = BeTree::build(&query, &mut vars, st.dictionary());
        let wco = WcoEngine::new();
        let bin = BinaryJoinEngine::new();
        let (par, none) = (Parallelism::from_env(), Cancellation::none());
        let (a, _) = eval(&tree, &st, &wco, vars.len(), Pruning::Off, par, &none).unwrap();
        let (b, _) = eval(&tree, &st, &bin, vars.len(), Pruning::Off, par, &none).unwrap();
        assert_eq!(a.canonicalized(), b.canonicalized());
    }

    #[test]
    fn parallel_union_evaluation_is_identical() {
        let st = store();
        let query = uo_sparql::parse(UNION_Q).unwrap();
        let mut vars = VarTable::new();
        let tree = BeTree::build(&query, &mut vars, st.dictionary());
        let width = vars.len();
        let none = Cancellation::none();
        for pruning in [Pruning::Off, Pruning::fixed_for(&st)] {
            let engine = WcoEngine::sequential();
            let (seq, seq_stats) =
                eval(&tree, &st, &engine, width, pruning, Parallelism::sequential(), &none)
                    .unwrap();
            for threads in [2, 4, 8] {
                let engine = WcoEngine::with_threads(threads);
                let (par, par_stats) =
                    eval(&tree, &st, &engine, width, pruning, Parallelism::new(threads), &none)
                        .unwrap();
                assert_eq!(par.rows, seq.rows, "rows must be bit-identical at {threads} threads");
                assert_eq!(par_stats.bgp_evals, seq_stats.bgp_evals);
                assert_eq!(par_stats.bgp_result_sizes, seq_stats.bgp_result_sizes);
                assert_eq!(par_stats.join_space, seq_stats.join_space);
                assert_eq!(par_stats.pruned_vars, seq_stats.pruned_vars);
            }
        }
    }

    #[test]
    fn empty_group_evaluates_to_unit() {
        let st = store();
        let tree = BeTree { root: GroupNode::default() };
        let engine = WcoEngine::new();
        let none = Cancellation::none();
        let (bag, _) =
            eval(&tree, &st, &engine, 2, Pruning::Off, Parallelism::from_env(), &none).unwrap();
        assert!(bag.is_unit());
    }

    #[test]
    fn expired_deadline_cancels_before_first_bgp() {
        let st = store();
        let query = uo_sparql::parse(UNION_Q).unwrap();
        let mut vars = VarTable::new();
        let tree = BeTree::build(&query, &mut vars, st.dictionary());
        let engine = WcoEngine::new();
        let cancel = Cancellation::at(Instant::now() - Duration::from_millis(1));
        assert!(cancel.is_cancelled());
        for par in [Parallelism::sequential(), Parallelism::new(4)] {
            let got = eval(&tree, &st, &engine, vars.len(), Pruning::Off, par, &cancel);
            assert_eq!(got.err(), Some(Cancelled));
        }
    }

    #[test]
    fn raised_flag_cancels_and_cleared_flag_does_not() {
        let st = store();
        let query = uo_sparql::parse(OPT_Q).unwrap();
        let mut vars = VarTable::new();
        let tree = BeTree::build(&query, &mut vars, st.dictionary());
        let engine = WcoEngine::new();
        let flag = Arc::new(AtomicBool::new(false));
        let cancel = Cancellation::none().with_flag(flag.clone());
        assert!(!cancel.is_none());
        let ok =
            eval(&tree, &st, &engine, vars.len(), Pruning::Off, Parallelism::sequential(), &cancel);
        assert_eq!(ok.unwrap().0.len(), 4);
        flag.store(true, Ordering::Relaxed);
        let cancelled =
            eval(&tree, &st, &engine, vars.len(), Pruning::Off, Parallelism::sequential(), &cancel);
        assert_eq!(cancelled.err(), Some(Cancelled));
    }

    /// One span's timing-free fields: (op, detail, rows, est_rows).
    type SpanRow = (String, String, u64, Option<f64>);

    /// Recursively flattens a span tree to its timing-free fields.
    fn skeleton(p: &OpProfile, out: &mut Vec<SpanRow>) {
        out.push((p.op.to_string(), p.detail.clone(), p.rows, p.est_rows));
        for c in &p.children {
            skeleton(c, out);
        }
    }

    #[test]
    fn profiled_evaluation_is_identical_and_actuals_deterministic() {
        let st = store();
        let query = uo_sparql::parse(UNION_Q).unwrap();
        let mut vars = VarTable::new();
        let tree = BeTree::build(&query, &mut vars, st.dictionary());
        let ctx = EvalCtx::new(st.dictionary());
        let engine = WcoEngine::sequential();
        // Off: no spans, same bag as the plain path.
        let (seq, none) = (Parallelism::sequential(), Cancellation::none());
        let (plain, _) = eval(&tree, &st, &engine, vars.len(), Pruning::Off, seq, &none).unwrap();
        let (off_bag, _, off_prof) = try_evaluate_profiled(
            &tree,
            &st,
            &engine,
            vars.len(),
            Pruning::Off,
            Parallelism::sequential(),
            &Cancellation::none(),
            &ctx,
            Profiler::off(),
            Some(&vars),
            None,
        )
        .unwrap();
        assert!(off_prof.is_none());
        assert_eq!(off_bag.rows, plain.rows);
        // On: span skeleton (ops, details, actual cardinalities, estimates)
        // is bit-identical at 1, 2 and 4 workers; bags stay identical too.
        let mut reference: Option<Vec<SpanRow>> = None;
        for threads in [1usize, 2, 4] {
            let engine = WcoEngine::with_threads(threads);
            let (bag, _, prof) = try_evaluate_profiled(
                &tree,
                &st,
                &engine,
                vars.len(),
                Pruning::Off,
                Parallelism::new(threads),
                &Cancellation::none(),
                &ctx,
                Profiler::on(),
                Some(&vars),
                None,
            )
            .unwrap();
            assert_eq!(bag.rows, plain.rows, "bag identical at {threads} workers");
            let prof = prof.expect("profiler on must produce spans");
            assert_eq!(prof.rows, plain.len() as u64, "root actual = final rows");
            let mut flat = Vec::new();
            skeleton(&prof, &mut flat);
            assert!(flat.iter().any(|(op, ..)| op == "bgp"), "has BGP spans");
            assert!(flat.iter().any(|(op, ..)| op == "union"), "has the union span");
            match &reference {
                None => reference = Some(flat),
                Some(r) => assert_eq!(r, &flat, "actuals bit-identical at {threads} workers"),
            }
        }
    }

    #[test]
    fn no_cancellation_matches_plain_evaluate() {
        let st = store();
        let query = uo_sparql::parse(UNION_Q).unwrap();
        let mut vars = VarTable::new();
        let tree = BeTree::build(&query, &mut vars, st.dictionary());
        let engine = WcoEngine::new();
        let (width, par) = (vars.len(), Parallelism::from_env());
        let never = Cancellation::after(Duration::from_secs(3600));
        let none = Cancellation::none();
        let (plain, plain_stats) =
            eval(&tree, &st, &engine, width, Pruning::Off, par, &none).unwrap();
        let (tried, tried_stats) =
            eval(&tree, &st, &engine, width, Pruning::Off, par, &never).unwrap();
        assert_eq!(plain.rows, tried.rows);
        assert_eq!(plain_stats.bgp_evals, tried_stats.bgp_evals);
    }
}
