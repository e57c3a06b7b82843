//! # uo-core — SPARQL-UO query optimization via BE-trees
//!
//! This crate implements the primary contribution of *"Efficient Execution
//! of SPARQL Queries with OPTIONAL and UNION Expressions"* (Zou, Pang, Özsu,
//! Chen): a plan representation and cost-driven optimizer for SPARQL queries
//! with `UNION` and `OPTIONAL` that uses BGP evaluation as its building
//! block.
//!
//! - [`betree`] — the BGP-based Evaluation tree (Definition 8) and its
//!   construction with maximal BGP coalescing;
//! - [`transform`] — the *merge* and *inject* transformation primitives
//!   (Definitions 9–10, Theorems 1–2);
//! - [`cost`] — the SPARQL-UO cost model (Equations 1–8);
//! - [`optimizer`] — greedy single-level and post-order multi-level plan
//!   selection (Algorithms 2–4);
//! - [`exec`] — BGP-based evaluation (Algorithm 1) with query-time candidate
//!   pruning (Section 6);
//! - [`metrics`] — the query statistics and join-space metrics of the
//!   evaluation section.
//!
//! The top-level entry point is [`run_query`], which executes a query string
//! under one of the paper's four strategies ([`Strategy`]):
//!
//! ```
//! use uo_core::{run_query, Strategy};
//! use uo_engine::WcoEngine;
//! use uo_store::StoreWriter;
//!
//! let mut writer = StoreWriter::new();
//! writer.load_ntriples(r#"
//! <http://ex/bill> <http://ex/link> <http://ex/POTUS> .
//! <http://ex/bill> <http://ex/sameAs> <http://fb/bill> .
//! <http://ex/jane> <http://ex/sameAs> <http://fb/jane> .
//! "#).unwrap();
//! let store = writer.commit();
//!
//! let report = run_query(
//!     &store,
//!     &WcoEngine::new(),
//!     "SELECT ?x ?s WHERE {
//!        ?x <http://ex/link> <http://ex/POTUS> .
//!        OPTIONAL { ?x <http://ex/sameAs> ?s }
//!      }",
//!     Strategy::Full,
//! ).unwrap();
//! assert_eq!(report.results.len(), 1);
//! ```
//!
//! Every way to run a query wraps one execution entry, [`try_execute_ids`],
//! which leaves the answer as projected id rows ([`ResultSet`]) for
//! `uo_sparql::ResultWriter` to stream; [`RunReport::results`] is those rows
//! decoded to owned terms, for callers that want values rather than bytes.

pub mod betree;
pub mod binarytree;
pub mod cost;
pub mod durable;
pub mod exec;
pub mod metrics;
pub mod optimizer;
pub mod transform;
pub mod update;
pub mod wdpt;

pub use betree::{explain, BeNode, BeTree, BgpNode, EvalCtx, ExprError, GroupNode};
pub use binarytree::{evaluate_binary_tree, BinaryTreeStats};
pub use cost::CostModel;
pub use durable::{
    open_durable, open_durable_traced, replay_update, run_update_durable, try_run_update_durable,
    DurableUpdateError,
};
pub use exec::{try_evaluate_profiled, Cancellation, Cancelled, ExecStats, Pruning};
pub use metrics::{count_bgp, query_type, QueryCounters, QueryCountersSnapshot, QueryType};
pub use optimizer::{multi_level_transform, OptimizerConfig, TransformOutcome};
pub use uo_obs::{CacheOutcome, OpProfile, Profiler, QueryProfile};
pub use uo_par::Parallelism;
pub use uo_sparql::ResultSet;
pub use update::{run_update, try_run_update, UpdateReport};
pub use wdpt::{check_well_designed, is_well_designed};

use crate::betree::EncodedExpr;
use std::time::{Duration, Instant};
use uo_engine::BgpEngine;
use uo_rdf::{Id, Term, NO_ID};
use uo_sparql::algebra::{Bag, VarId, VarTable};
use uo_sparql::ast::{AggFunc, Query};
use uo_store::Snapshot;

const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";

/// The four evaluation strategies compared in Section 7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Algorithm 1 on the unmodified BE-tree (the original engines'
    /// behaviour).
    Base,
    /// Tree transformation only (Algorithm 4 + Algorithm 1).
    TreeTransform,
    /// Candidate pruning only (Algorithm 1 + Section 6, fixed threshold of
    /// 1% of the triple count).
    CandidatePruning,
    /// Both, with the adaptive pruning threshold and the Section 6 special
    /// case skip.
    Full,
}

impl Strategy {
    /// All four, in the paper's presentation order.
    pub const ALL: [Strategy; 4] =
        [Strategy::Base, Strategy::TreeTransform, Strategy::CandidatePruning, Strategy::Full];

    /// The paper's abbreviation (base / TT / CP / full).
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Base => "base",
            Strategy::TreeTransform => "TT",
            Strategy::CandidatePruning => "CP",
            Strategy::Full => "full",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A prepared query: parsed, variable-interned, BE-tree built.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The parsed query.
    pub query: Query,
    /// The query's variable frame.
    pub vars: VarTable,
    /// The BE-tree (possibly transformed).
    pub tree: BeTree,
    /// Projected variables (resolved from the SELECT clause).
    pub projection: Vec<VarId>,
    /// Grouped-query plan (`GROUP BY` / aggregates / `HAVING`), if any.
    pub aggregation: Option<EncodedAggregation>,
    /// The cost model's estimate of the plan's result scale — the product
    /// of per-BGP cardinality estimates over the tree, the quantity the
    /// optimizer minimizes. `None` until [`optimize_prepared`] fills it from
    /// the cost model it planned with.
    pub est_root_rows: Option<f64>,
}

/// A grouped-query plan: `GROUP BY` keys, aggregate computations and the
/// `HAVING` constraint, resolved against the query's variable frame. Runs
/// as a post-pass over the solution bag of either join engine, so grouped
/// results inherit the evaluator's bit-identical parallel determinism.
#[derive(Debug, Clone)]
pub struct EncodedAggregation {
    /// Grouping variables, in clause order.
    pub group_by: Vec<VarId>,
    /// Aggregate computations, in SELECT-clause order.
    pub aggs: Vec<EncodedAggregate>,
    /// The `HAVING` constraint, evaluated over each grouped row (group
    /// variables plus aggregate aliases are in scope).
    pub having: Option<EncodedExpr>,
}

/// One aggregate computation: `(FUNC([DISTINCT] expr|*) AS ?alias)`.
#[derive(Debug, Clone)]
pub struct EncodedAggregate {
    /// The aggregate function.
    pub func: AggFunc,
    /// Whether `DISTINCT` was specified inside the call.
    pub distinct: bool,
    /// The argument expression; `None` encodes `COUNT(*)`.
    pub arg: Option<EncodedExpr>,
    /// The output (alias) variable slot.
    pub out: VarId,
}

/// Parses a query and constructs its BE-tree against `store`'s dictionary.
pub fn prepare(store: &Snapshot, text: &str) -> Result<Prepared, uo_sparql::ParseError> {
    let query = uo_sparql::parse(text)?;
    Ok(prepare_parsed(store, query))
}

/// Builds a [`Prepared`] from an already-parsed query.
pub fn prepare_parsed(store: &Snapshot, query: Query) -> Prepared {
    let mut vars = VarTable::new();
    let tree = BeTree::build(&query, &mut vars, store.dictionary());
    let aggregation = if query.is_aggregated() || query.having.is_some() {
        let group_by = query.group_by.iter().map(|name| vars.intern(name)).collect();
        let aggs = query
            .aggregates
            .iter()
            .map(|a| EncodedAggregate {
                func: a.func,
                distinct: a.distinct,
                arg: a.arg.as_ref().map(|e| betree::encode_expr(e, &mut vars)),
                out: vars.intern(&a.alias),
            })
            .collect();
        let having = query.having.as_ref().map(|e| betree::encode_expr(e, &mut vars));
        Some(EncodedAggregation { group_by, aggs, having })
    } else {
        None
    };
    let projection = query.projection().iter().map(|name| vars.intern(name)).collect();
    Prepared { query, vars, tree, projection, aggregation, est_root_rows: None }
}

/// The outcome of running one query under one strategy.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The solution bag over the full variable frame.
    pub bag: Bag,
    /// Rows projected to the SELECT variables and decoded to terms
    /// (`None` = unbound).
    pub results: Vec<Vec<Option<Term>>>,
    /// The variable frame (for interpreting `bag`).
    pub vars: VarTable,
    /// Time spent in plan transformation (zero for base/CP).
    pub transform_time: Duration,
    /// Time spent in evaluation.
    pub exec_time: Duration,
    /// The runtime join space (Section 7.1).
    pub join_space: f64,
    /// Transformation counters.
    pub transforms: TransformOutcome,
    /// Evaluation statistics.
    pub exec_stats: ExecStats,
    /// A rendering of the executed plan.
    pub plan: String,
    /// Effective worker count: the larger of the evaluator policy and the
    /// engine's own configured workers (`1` = fully sequential).
    pub threads: usize,
    /// The `ASK` verdict: `Some(_)` for ASK queries, `None` for SELECT.
    pub ask: Option<bool>,
    /// End-to-end wall nanoseconds for this run: evaluation, aggregation,
    /// ordering and projection decode, plus optimization when a one-shot
    /// wrapper ran it. Always measured, profiling or not — callers (the
    /// perf suite, the server's latency histograms) should prefer this to
    /// re-timing around the call.
    pub wall_nanos: u64,
    /// The operator span tree, present only when executed with an enabled
    /// [`Profiler`] (see [`try_execute_ids`]).
    pub op_profile: Option<OpProfile>,
}

/// Parses, optimizes (per `strategy`) and executes a query.
///
/// Worker count comes from the `UO_THREADS` environment knob (see
/// [`Parallelism::from_env`]); parallel evaluation returns bags
/// bit-identical to sequential. Use [`run_query_with`] for an explicit
/// count.
pub fn run_query(
    store: &Snapshot,
    engine: &dyn BgpEngine,
    text: &str,
    strategy: Strategy,
) -> Result<RunReport, uo_sparql::ParseError> {
    run_query_with(store, engine, text, strategy, Parallelism::from_env())
}

/// [`run_query`] with an explicit parallelism policy for the evaluator's
/// UNION fan-out (the engine's own scan/join parallelism is configured on
/// the engine itself).
pub fn run_query_with(
    store: &Snapshot,
    engine: &dyn BgpEngine,
    text: &str,
    strategy: Strategy,
    par: Parallelism,
) -> Result<RunReport, uo_sparql::ParseError> {
    let prepared = prepare(store, text)?;
    Ok(run_prepared_with(store, engine, prepared, strategy, par))
}

/// Optimizes and executes a prepared query under the given strategy, with
/// the worker count of the `UO_THREADS` environment knob.
pub fn run_prepared(
    store: &Snapshot,
    engine: &dyn BgpEngine,
    prepared: Prepared,
    strategy: Strategy,
) -> RunReport {
    run_prepared_with(store, engine, prepared, strategy, Parallelism::from_env())
}

/// [`run_prepared`] with an explicit parallelism policy.
pub fn run_prepared_with(
    store: &Snapshot,
    engine: &dyn BgpEngine,
    mut prepared: Prepared,
    strategy: Strategy,
    par: Parallelism,
) -> RunReport {
    let (transforms, transform_time) = optimize_prepared(store, engine, &mut prepared, strategy);
    let mut report =
        try_execute_prepared(store, engine, &prepared, strategy, par, &Cancellation::none())
            .expect("execution without a cancellation token cannot be cancelled");
    report.transforms = transforms;
    report.transform_time = transform_time;
    report.wall_nanos += transform_time.as_nanos() as u64;
    report
}

/// Applies the plan-level work of `strategy` to `prepared` in place: tree
/// transformation for `TT`/`full` plus cardinality annotation (the adaptive
/// pruning thresholds) for `full`, and — under every strategy — the root
/// estimate ([`Prepared::est_root_rows`]), read from the same cost model so
/// no BGP is sketched twice. Returns the transformation counters and the
/// time the transformation took.
///
/// Splitting this from [`try_execute_ids`] lets a serving layer
/// optimize a query once, cache the optimized [`Prepared`], and then
/// execute it many times — repeat queries skip parse *and* optimize.
pub fn optimize_prepared(
    store: &Snapshot,
    engine: &dyn BgpEngine,
    prepared: &mut Prepared,
    strategy: Strategy,
) -> (TransformOutcome, Duration) {
    let cm = CostModel::new(store, engine);
    let t0 = Instant::now();
    let transforms = match strategy {
        Strategy::TreeTransform => {
            multi_level_transform(&mut prepared.tree, &cm, OptimizerConfig::default())
        }
        Strategy::Full => {
            let out = multi_level_transform(
                &mut prepared.tree,
                &cm,
                OptimizerConfig { skip_pruning_equivalent: true, ..Default::default() },
            );
            // The optimizer's estimates double as adaptive pruning thresholds.
            cm.annotate_cardinalities(&mut prepared.tree.root);
            out
        }
        Strategy::Base | Strategy::CandidatePruning => TransformOutcome::default(),
    };
    let transform_time = t0.elapsed();
    prepared.est_root_rows = Some(metrics::estimated_join_space(&prepared.tree, &cm));
    (transforms, transform_time)
}

/// The cost model's estimate of the plan's result scale
/// ([`Prepared::est_root_rows`]). Serving layers record it per cached plan
/// so actual-vs-estimated feedback (`/stats/plans`) can expose queries whose
/// plans were built on bad estimates. Estimates afresh only for a
/// `prepared` that [`optimize_prepared`] has not seen.
pub fn estimate_root_rows(store: &Snapshot, engine: &dyn BgpEngine, prepared: &Prepared) -> f64 {
    prepared.est_root_rows.unwrap_or_else(|| {
        metrics::estimated_join_space(&prepared.tree, &CostModel::new(store, engine))
    })
}

/// The execution row budget implied by a query's solution modifiers:
/// `Some(offset + limit)` when early termination is sound — evaluation may
/// stop enumerating once that many rows exist, because the final answer is
/// exactly the first `offset + limit` rows of the deterministic result
/// order — and `None` when the full result set is required.
///
/// Guards, in order: aggregation (including a bare `HAVING`) consumes every
/// input row, so no budget; `ASK` needs exactly one row; `DISTINCT` dedupes
/// *before* the slice, so any cap on pre-dedup rows is unsound; `ORDER BY`
/// must see the full bag (the bounded top-k sort covers that case after
/// materialization instead); `OFFSET` without `LIMIT` is unbounded.
pub fn row_budget(prepared: &Prepared) -> Option<usize> {
    if prepared.aggregation.is_some() {
        return None;
    }
    if prepared.query.ask {
        return Some(1);
    }
    if prepared.query.distinct || !prepared.query.order_by.is_empty() {
        return None;
    }
    prepared.query.limit.map(|l| l.saturating_add(prepared.query.offset.unwrap_or(0)))
}

/// What one execution produced, with the answer still as ids: the outcome
/// of [`try_execute_ids`], the one execution entry every other one wraps.
#[derive(Debug)]
pub struct IdRun<'a> {
    /// The solution bag over the full variable frame (after aggregation and
    /// ordering, before projection).
    pub bag: Bag,
    /// The answer: rows projected to the SELECT variables with DISTINCT,
    /// OFFSET and LIMIT applied, lending `&Term`s out of the store's
    /// dictionary and the run's own computed terms.
    pub rows: ResultSet<'a>,
    /// Time spent in evaluation (and aggregation).
    pub exec_time: Duration,
    /// Evaluation statistics.
    pub exec_stats: ExecStats,
    /// Effective worker count (see [`RunReport::threads`]).
    pub threads: usize,
    /// The `ASK` verdict: `Some(_)` for ASK queries, `None` for SELECT.
    pub ask: Option<bool>,
    /// Wall nanoseconds of this run: evaluation, aggregation, ordering,
    /// projection and the solution modifiers. Always measured.
    pub wall_nanos: u64,
    /// The operator span tree, present only when executed with an enabled
    /// [`Profiler`].
    pub op_profile: Option<OpProfile>,
}

/// Executes an already-optimized [`Prepared`] under `strategy`'s pruning
/// mode and a [`Cancellation`] token (checked at BGP-evaluation
/// boundaries), leaving the answer as id rows: no term is cloned out of
/// the dictionary. Does **not** re-run the optimizer — pair with
/// [`optimize_prepared`].
///
/// With `profiler` on, `op_profile` holds the operator span tree: per
/// operator, wall nanoseconds plus actual output cardinality next to the
/// optimizer's estimate (`est_rows`, annotated on BGP nodes by the `full`
/// strategy). The span structure and every cardinality are bit-identical
/// across worker counts; only the timing values vary. With it off the cost
/// is one branch per operator, no allocation.
pub fn try_execute_ids<'a>(
    store: &'a Snapshot,
    engine: &dyn BgpEngine,
    prepared: &Prepared,
    strategy: Strategy,
    par: Parallelism,
    cancel: &Cancellation,
    profiler: Profiler,
) -> Result<IdRun<'a>, Cancelled> {
    let pruning = match strategy {
        Strategy::Base | Strategy::TreeTransform => Pruning::Off,
        Strategy::CandidatePruning => Pruning::fixed_for(store),
        Strategy::Full => Pruning::adaptive_for(store),
    };

    let t1 = Instant::now();
    let ctx = EvalCtx::new(store.dictionary());
    let (mut bag, mut exec_stats, op_profile) = exec::try_evaluate_profiled(
        &prepared.tree,
        store,
        engine,
        prepared.vars.len(),
        pruning,
        par,
        cancel,
        &ctx,
        profiler,
        Some(&prepared.vars),
        row_budget(prepared),
    )?;
    if let Some(agg) = &prepared.aggregation {
        bag = apply_aggregation(&bag, agg, &ctx, prepared.vars.len());
    }
    let exec_time = t1.elapsed();

    // ASK is true iff the pattern has at least one solution; modifiers
    // below don't apply (the grammar forbids them on ASK).
    let ask = prepared.query.ask.then(|| !bag.is_empty());

    if !prepared.query.order_by.is_empty() {
        // `ORDER BY ... LIMIT k` avoids the full sort via a bounded heap —
        // but only under bag semantics: DISTINCT dedupes after ordering, so
        // it must see every row.
        let top_k = if prepared.query.distinct {
            None
        } else {
            prepared.query.limit.map(|l| l.saturating_add(prepared.query.offset.unwrap_or(0)))
        };
        match top_k {
            Some(k) => {
                if top_k_solutions(&mut bag, &prepared.query.order_by, &prepared.vars, &ctx, k) {
                    exec_stats.short_circuit = true;
                }
            }
            None => sort_solutions(&mut bag, &prepared.query.order_by, &prepared.vars, &ctx),
        }
    }

    // The run's BIND / VALUES / aggregate terms leave the context with the
    // rows that refer to them. SELECT DISTINCT is set semantics over the
    // projected rows; the slice is then taken in that order (without ORDER
    // BY, engine order, as SPARQL allows).
    let mut rows =
        ResultSet::project(&bag, &prepared.projection, store.dictionary(), ctx.into_extra_terms());
    rows.apply_modifiers(prepared.query.distinct, prepared.query.offset, prepared.query.limit);
    Ok(IdRun {
        bag,
        rows,
        exec_time,
        exec_stats,
        threads: par.threads().max(engine.threads()),
        ask,
        wall_nanos: t1.elapsed().as_nanos() as u64,
        op_profile,
    })
}

/// [`try_execute_ids`] with the profiler off and the answer decoded to
/// owned terms. The returned report's `transforms`/`transform_time` are
/// zeroed; the one-shot wrappers ([`run_prepared_with`]) fill them in.
pub fn try_execute_prepared(
    store: &Snapshot,
    engine: &dyn BgpEngine,
    prepared: &Prepared,
    strategy: Strategy,
    par: Parallelism,
    cancel: &Cancellation,
) -> Result<RunReport, Cancelled> {
    try_execute_prepared_profiled(store, engine, prepared, strategy, par, cancel, Profiler::off())
}

/// [`try_execute_ids`] followed by [`ResultSet::decode`] and a rendering of
/// the plan: the decoded row matrix tests and the benchmark use as the
/// reference. A serving path should stay on ids.
pub fn try_execute_prepared_profiled(
    store: &Snapshot,
    engine: &dyn BgpEngine,
    prepared: &Prepared,
    strategy: Strategy,
    par: Parallelism,
    cancel: &Cancellation,
    profiler: Profiler,
) -> Result<RunReport, Cancelled> {
    let run = try_execute_ids(store, engine, prepared, strategy, par, cancel, profiler)?;
    let t_decode = Instant::now();
    let results = run.rows.decode();
    let plan = explain(&prepared.tree, &prepared.vars, store.dictionary());
    Ok(RunReport {
        join_space: run.exec_stats.join_space,
        results,
        vars: prepared.vars.clone(),
        transform_time: Duration::ZERO,
        exec_time: run.exec_time,
        transforms: TransformOutcome::default(),
        exec_stats: run.exec_stats,
        plan,
        bag: run.bag,
        threads: run.threads,
        ask: run.ask,
        wall_nanos: run.wall_nanos + t_decode.elapsed().as_nanos() as u64,
        op_profile: run.op_profile,
    })
}

/// Applies grouped-query semantics as a post-pass over the solution bag:
/// hash-group on the `GROUP BY` key, compute each aggregate per group, then
/// filter the grouped rows through `HAVING`. Group output order is the
/// first-occurrence order of each key, which is deterministic because the
/// evaluator's bags are bit-identical at any worker count.
fn apply_aggregation(bag: &Bag, agg: &EncodedAggregation, ctx: &EvalCtx, width: usize) -> Bag {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;
    let mut order: Vec<Vec<Id>> = Vec::new();
    let mut groups: HashMap<Vec<Id>, Vec<usize>> = HashMap::new();
    for (ri, row) in bag.rows.iter().enumerate() {
        let key: Vec<Id> = agg.group_by.iter().map(|&v| row[v as usize]).collect();
        match groups.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().push(ri),
            Entry::Vacant(e) => {
                order.push(e.key().clone());
                e.insert(vec![ri]);
            }
        }
    }
    if order.is_empty() && agg.group_by.is_empty() {
        // Aggregation without GROUP BY always has exactly one group, even
        // over an empty input: COUNT(*) = 0, SUM = 0, MIN/MAX unbound.
        order.push(Vec::new());
        groups.insert(Vec::new(), Vec::new());
    }
    let mut rows = Vec::with_capacity(order.len());
    for key in &order {
        let members = &groups[key];
        let mut out = vec![NO_ID; width].into_boxed_slice();
        for (i, &v) in agg.group_by.iter().enumerate() {
            out[v as usize] = key[i];
        }
        for a in &agg.aggs {
            if let Some(t) = eval_aggregate(a, members, bag, ctx) {
                out[a.out as usize] = ctx.intern(&t);
            }
        }
        rows.push(out);
    }
    let mut grouped = Bag::from_rows(width, rows);
    if let Some(h) = &agg.having {
        grouped.rows.retain(|row| h.eval_ebv(row, ctx).unwrap_or(false));
        if grouped.rows.is_empty() {
            grouped.certain = 0;
        }
    }
    grouped
}

/// Computes one aggregate over a group. `None` means the aggregate errored
/// (e.g. SUM over a non-numeric element, MIN of an empty group) and its
/// alias stays unbound in the grouped row.
fn eval_aggregate(
    a: &EncodedAggregate,
    members: &[usize],
    bag: &Bag,
    ctx: &EvalCtx,
) -> Option<Term> {
    let int_term = |n: i64| Term::typed_literal(n.to_string(), XSD_INTEGER);
    let Some(arg) = &a.arg else {
        // COUNT(*): the cardinality of the group; DISTINCT dedupes whole
        // solution rows.
        let n = if a.distinct {
            let mut seen: std::collections::HashSet<&[Id]> = std::collections::HashSet::new();
            members.iter().filter(|&&ri| seen.insert(&bag.rows[ri])).count()
        } else {
            members.len()
        };
        return Some(int_term(n as i64));
    };
    // Rows where the argument errors (e.g. an unbound variable) contribute
    // nothing, per the spec's error handling inside aggregates.
    let mut terms: Vec<Term> = Vec::with_capacity(members.len());
    for &ri in members {
        if let Ok(t) = arg.eval_term(&bag.rows[ri], ctx) {
            terms.push(t);
        }
    }
    if a.distinct {
        let mut seen = std::collections::HashSet::new();
        terms.retain(|t| seen.insert(t.clone()));
    }
    match a.func {
        AggFunc::Count => Some(int_term(terms.len() as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            let mut sum = 0.0;
            let mut all_int = true;
            for t in &terms {
                sum += t.numeric_value()?; // non-numeric element → error → unbound
                all_int &= betree::is_integer_term(t);
            }
            if a.func == AggFunc::Sum {
                Some(betree::numeric_term(sum, all_int))
            } else if terms.is_empty() {
                Some(Term::typed_literal("0", XSD_DECIMAL))
            } else {
                Some(betree::numeric_term(sum / terms.len() as f64, false))
            }
        }
        AggFunc::Min => terms.into_iter().min_by(cmp_terms),
        AggFunc::Max => terms.into_iter().max_by(cmp_terms),
    }
}

/// One term's decoded ORDER BY key: (type rank, numeric value, tie-break
/// string) — see [`term_order_key`].
type TermKey = (u8, f64, String);

/// The ORDER BY / MIN / MAX sort key of a bound term, following the SPARQL
/// operator-mapping order: blank nodes < IRIs < literals, with numeric
/// literals compared by value (and ordered before non-numeric ones), and
/// non-numeric literals compared by (lexical form, language tag, datatype).
/// Equal-valued numerics of different lexical forms tie-break on the full
/// term rendering so the order is total and deterministic.
fn term_order_key(t: &Term) -> TermKey {
    match t {
        Term::Blank(_) => (1, 0.0, t.to_string()),
        Term::Iri(_) => (2, 0.0, t.to_string()),
        Term::Literal { lexical, lang, datatype } => match t.numeric_value() {
            Some(n) => (3, n, t.to_string()),
            None => {
                let lang = lang.as_deref().unwrap_or("");
                let datatype = datatype.as_deref().unwrap_or("");
                (4, 0.0, format!("{lexical}\u{0}{lang}\u{0}{datatype}"))
            }
        },
    }
}

fn cmp_keys(ka: &TermKey, kb: &TermKey) -> std::cmp::Ordering {
    ka.0.cmp(&kb.0)
        .then_with(|| ka.1.partial_cmp(&kb.1).unwrap_or(std::cmp::Ordering::Equal))
        .then_with(|| ka.2.cmp(&kb.2))
}

fn cmp_terms(a: &Term, b: &Term) -> std::cmp::Ordering {
    cmp_keys(&term_order_key(a), &term_order_key(b))
}

/// The ORDER BY key of one binding: unbound sorts first (SPARQL's
/// ordering), bound terms per [`term_order_key`]. Decoding goes through the
/// [`EvalCtx`] so BIND/VALUES/aggregate outputs (synthetic ids) sort by
/// their term value like everything else.
fn decoded_order_key(id: Id, ctx: &EvalCtx) -> TermKey {
    match ctx.decode(id) {
        None => (0, 0.0, String::new()),
        Some(t) => term_order_key(&t),
    }
}

/// Compares two rows' precomputed ORDER BY key vectors, honoring each key's
/// DESC flag, returning Equal for full ties.
fn cmp_key_vecs(a: &[TermKey], b: &[TermKey], keys: &[(VarId, bool)]) -> std::cmp::Ordering {
    for (i, &(_, desc)) in keys.iter().enumerate() {
        let ord = cmp_keys(&a[i], &b[i]);
        let ord = if desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Sorts a solution bag by ORDER BY keys (see [`decoded_order_key`] for the
/// key order). Each row's keys are decoded **once** up front (Schwartzian
/// transform) — O(n) term decodes instead of O(n log n) — and the sort is
/// stable, so ties keep engine order.
fn sort_solutions(bag: &mut Bag, order_by: &[(String, bool)], vars: &VarTable, ctx: &EvalCtx) {
    let keys: Vec<(VarId, bool)> =
        order_by.iter().filter_map(|(name, desc)| vars.get(name).map(|v| (v, *desc))).collect();
    if keys.is_empty() {
        return;
    }
    let mut decorated: Vec<(Vec<TermKey>, Box<[Id]>)> = std::mem::take(&mut bag.rows)
        .into_iter()
        .map(|row| {
            let kv: Vec<_> =
                keys.iter().map(|&(v, _)| decoded_order_key(row[v as usize], ctx)).collect();
            (kv, row)
        })
        .collect();
    decorated.sort_by(|a, b| cmp_key_vecs(&a.0, &b.0, &keys));
    bag.rows = decorated.into_iter().map(|(_, row)| row).collect();
}

/// `ORDER BY ... LIMIT`: keeps only the `k` first rows of the sorted order
/// using a bounded binary max-heap, instead of sorting the whole bag. The
/// heap holds the best `k` rows seen so far keyed by (ORDER BY key vector,
/// original row position) — the position tie-break reproduces exactly what
/// the stable [`sort_solutions`] + truncate would keep, so the output rows
/// are identical to sort-then-slice; an n-row bag costs O(n log k)
/// comparisons and O(k) of the decoded keys stay live. Keys are decoded
/// once per row, like [`sort_solutions`]. Returns `true` when rows beyond
/// the budget were discarded (the full sort was actually avoided).
fn top_k_solutions(
    bag: &mut Bag,
    order_by: &[(String, bool)],
    vars: &VarTable,
    ctx: &EvalCtx,
    k: usize,
) -> bool {
    let keys: Vec<(VarId, bool)> =
        order_by.iter().filter_map(|(name, desc)| vars.get(name).map(|v| (v, *desc))).collect();
    if keys.is_empty() {
        return false;
    }
    if bag.rows.len() <= k {
        sort_solutions(bag, order_by, vars, ctx);
        return false;
    }
    if k == 0 {
        bag.rows.clear();
        bag.certain = 0;
        return true;
    }
    type Entry = (Vec<TermKey>, usize);
    let less = |a: &Entry, b: &Entry, keys: &[(VarId, bool)]| -> bool {
        match cmp_key_vecs(&a.0, &b.0, keys) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a.1 < b.1,
        }
    };
    // Max-heap of the k best rows so far: the root is the *worst* kept row,
    // and a new row enters iff it orders strictly before the root.
    let mut heap: Vec<Entry> = Vec::with_capacity(k);
    for (i, row) in bag.rows.iter().enumerate() {
        let entry: Entry =
            (keys.iter().map(|&(v, _)| decoded_order_key(row[v as usize], ctx)).collect(), i);
        if heap.len() < k {
            heap.push(entry);
            let mut c = heap.len() - 1;
            while c > 0 {
                let p = (c - 1) / 2;
                if less(&heap[p], &heap[c], &keys) {
                    heap.swap(p, c);
                    c = p;
                } else {
                    break;
                }
            }
        } else if less(&entry, &heap[0], &keys) {
            heap[0] = entry;
            let mut p = 0;
            loop {
                let (l, r) = (2 * p + 1, 2 * p + 2);
                let mut m = p;
                if l < heap.len() && less(&heap[m], &heap[l], &keys) {
                    m = l;
                }
                if r < heap.len() && less(&heap[m], &heap[r], &keys) {
                    m = r;
                }
                if m == p {
                    break;
                }
                heap.swap(p, m);
                p = m;
            }
        }
    }
    let mut winners = heap;
    winners.sort_by(|a, b| cmp_key_vecs(&a.0, &b.0, &keys).then_with(|| a.1.cmp(&b.1)));
    let mut old: Vec<Option<Box<[Id]>>> =
        std::mem::take(&mut bag.rows).into_iter().map(Some).collect();
    bag.rows = winners
        .into_iter()
        .map(|(_, i)| old[i].take().expect("heap keeps distinct rows"))
        .collect();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uo_engine::{BinaryJoinEngine, WcoEngine};
    use uo_store::{Snapshot, StoreWriter};

    fn store() -> Arc<Snapshot> {
        let mut st = StoreWriter::new();
        let mut doc = String::new();
        for i in 0..200 {
            doc.push_str(&format!("<http://p{i}> <http://sameAs> <http://ext{i}> .\n"));
            if i % 2 == 0 {
                doc.push_str(&format!("<http://p{i}> <http://name> \"n{i}\" .\n"));
            } else {
                doc.push_str(&format!("<http://p{i}> <http://label> \"l{i}\" .\n"));
            }
            if i < 5 {
                doc.push_str(&format!("<http://p{i}> <http://link> <http://POTUS> .\n"));
            }
        }
        st.load_ntriples(&doc).unwrap();
        st.commit()
    }

    const Q: &str = "SELECT ?x ?n ?s WHERE {
        ?x <http://link> <http://POTUS> .
        { ?x <http://name> ?n } UNION { ?x <http://label> ?n }
        OPTIONAL { ?x <http://sameAs> ?s }
    }";

    #[test]
    fn all_strategies_agree() {
        let st = store();
        let wco = WcoEngine::new();
        let bin = BinaryJoinEngine::new();
        let reference = run_query(&st, &wco, Q, Strategy::Base).unwrap();
        assert_eq!(reference.results.len(), 5);
        for strategy in Strategy::ALL {
            for engine in [&wco as &dyn BgpEngine, &bin as &dyn BgpEngine] {
                let r = run_query(&st, engine, Q, strategy).unwrap();
                assert_eq!(
                    r.bag.canonicalized(),
                    reference.bag.canonicalized(),
                    "strategy {strategy} on {} diverged",
                    engine.name()
                );
            }
        }
    }

    /// A [`WcoEngine`] that records every BGP it is asked to estimate.
    struct CountingEngine {
        inner: WcoEngine,
        estimated: std::sync::Mutex<Vec<uo_engine::EncodedBgp>>,
    }

    impl BgpEngine for CountingEngine {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn evaluate(
            &self,
            store: &Snapshot,
            bgp: &uo_engine::EncodedBgp,
            width: usize,
            candidates: &uo_engine::CandidateSet,
        ) -> Bag {
            self.inner.evaluate(store, bgp, width, candidates)
        }

        fn estimate(
            &self,
            store: &Snapshot,
            bgp: &uo_engine::EncodedBgp,
        ) -> uo_engine::BgpEstimate {
            self.estimated.lock().unwrap().push(bgp.clone());
            self.inner.estimate(store, bgp)
        }
    }

    /// The server's plan-cache miss, call by call: each distinct BGP is
    /// estimated at most once on the way to a plan *and* its root estimate,
    /// execution estimates nothing, and the carried root estimate is what a
    /// second pass over the plan with a fresh cost model would compute.
    #[test]
    fn a_miss_estimates_each_bgp_once_and_execution_never() {
        let st = store();
        for strategy in Strategy::ALL {
            let engine = CountingEngine {
                inner: WcoEngine::sequential(),
                estimated: std::sync::Mutex::new(Vec::new()),
            };
            let mut prepared = prepare_parsed(&st, uo_sparql::parse(Q).unwrap());
            assert_eq!(prepared.est_root_rows, None);
            optimize_prepared(&st, &engine, &mut prepared, strategy);
            let est_root = estimate_root_rows(&st, &engine, &prepared);
            assert_eq!(prepared.est_root_rows, Some(est_root));

            let estimated = std::mem::take(&mut *engine.estimated.lock().unwrap());
            let distinct: std::collections::HashSet<_> = estimated.iter().collect();
            assert!(!estimated.is_empty(), "{strategy}: the root estimate reads every BGP");
            assert_eq!(estimated.len(), distinct.len(), "{strategy}: a BGP was estimated twice");

            let second_pass = metrics::estimated_join_space(
                &prepared.tree,
                &CostModel::new(&st, &WcoEngine::sequential()),
            );
            assert_eq!(est_root.to_bits(), second_pass.to_bits(), "{strategy}");

            let run = try_execute_ids(
                &st,
                &engine,
                &prepared,
                strategy,
                Parallelism::sequential(),
                &Cancellation::none(),
                Profiler::off(),
            )
            .unwrap();
            assert_eq!(run.rows.len(), 5);
            assert!(engine.estimated.lock().unwrap().is_empty(), "{strategy}: execution estimated");
        }
    }

    #[test]
    fn full_shrinks_join_space() {
        let st = store();
        let wco = WcoEngine::new();
        let base = run_query(&st, &wco, Q, Strategy::Base).unwrap();
        let full = run_query(&st, &wco, Q, Strategy::Full).unwrap();
        assert!(
            full.join_space < base.join_space,
            "full {} !< base {}",
            full.join_space,
            base.join_space
        );
    }

    #[test]
    fn projection_decodes_unbound_as_none() {
        let st = store();
        let wco = WcoEngine::new();
        let r = run_query(
            &st,
            &wco,
            "SELECT ?x ?s WHERE {
               ?x <http://link> <http://POTUS> .
               OPTIONAL { ?x <http://missing> ?s }
             }",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(r.results.len(), 5);
        assert!(r.results.iter().all(|row| row[1].is_none()));
    }

    #[test]
    fn transform_time_reported_for_tt() {
        let st = store();
        let wco = WcoEngine::new();
        let tt = run_query(&st, &wco, Q, Strategy::TreeTransform).unwrap();
        let base = run_query(&st, &wco, Q, Strategy::Base).unwrap();
        assert_eq!(base.transforms, TransformOutcome::default());
        // TT at least evaluated some candidate transformations on this query.
        assert!(tt.transforms.evaluated > 0);
    }

    #[test]
    fn select_distinct_dedupes_projection() {
        let st = store();
        let wco = WcoEngine::new();
        // Every person row projects to the same ?c constant-ish pattern:
        // without DISTINCT we get one row per link edge, with DISTINCT one.
        let q_all = "SELECT ?c WHERE { ?x <http://link> ?c . }";
        let q_distinct = "SELECT DISTINCT ?c WHERE { ?x <http://link> ?c . }";
        let all = run_query(&st, &wco, q_all, Strategy::Base).unwrap();
        let distinct = run_query(&st, &wco, q_distinct, Strategy::Base).unwrap();
        assert_eq!(all.results.len(), 5);
        assert_eq!(distinct.results.len(), 1);
    }

    #[test]
    fn three_way_union_merge_preserves_semantics() {
        // Theorem 1 extends to UNION nodes with more than two children.
        let st = store();
        let wco = WcoEngine::new();
        let q = "SELECT WHERE {
            ?x <http://link> <http://POTUS> .
            { ?x <http://name> ?n } UNION { ?x <http://label> ?n } UNION { ?x <http://sameAs> ?n }
        }";
        let base = run_query(&st, &wco, q, Strategy::Base).unwrap();
        let tt = run_query(&st, &wco, q, Strategy::TreeTransform).unwrap();
        assert_eq!(base.bag.canonicalized(), tt.bag.canonicalized());
    }

    #[test]
    fn limit_offset_applied_to_results() {
        let st = store();
        let wco = WcoEngine::new();
        let all = run_query(
            &st,
            &wco,
            "SELECT ?x WHERE { ?x <http://link> <http://POTUS> . }",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(all.results.len(), 5);
        let limited = run_query(
            &st,
            &wco,
            "SELECT ?x WHERE { ?x <http://link> <http://POTUS> . } LIMIT 2",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(limited.results.len(), 2);
        let paged = run_query(
            &st,
            &wco,
            "SELECT ?x WHERE { ?x <http://link> <http://POTUS> . } LIMIT 3 OFFSET 4",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(paged.results.len(), 1, "only one row after offset 4 of 5");
        let past = run_query(
            &st,
            &wco,
            "SELECT ?x WHERE { ?x <http://link> <http://POTUS> . } OFFSET 99",
            Strategy::Base,
        )
        .unwrap();
        assert!(past.results.is_empty());
    }

    #[test]
    fn order_by_sorts_results() {
        let mut st = StoreWriter::new();
        for (name, age) in [("carol", 35), ("alice", 42), ("bob", 7)] {
            st.insert_terms(
                &Term::iri(format!("http://{name}")),
                &Term::iri("http://age"),
                &Term::typed_literal(age.to_string(), "http://www.w3.org/2001/XMLSchema#integer"),
            );
        }
        let st = st.commit();
        let wco = WcoEngine::new();
        let asc = run_query(
            &st,
            &wco,
            "SELECT ?x ?a WHERE { ?x <http://age> ?a } ORDER BY ?a",
            Strategy::Base,
        )
        .unwrap();
        let ages: Vec<String> = asc
            .results
            .iter()
            .map(|r| r[1].as_ref().unwrap().as_literal().unwrap().to_string())
            .collect();
        assert_eq!(ages, vec!["7", "35", "42"], "numeric order, not lexicographic");
        let desc = run_query(
            &st,
            &wco,
            "SELECT ?x WHERE { ?x <http://age> ?a } ORDER BY DESC(?a) LIMIT 1",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(desc.results[0][0].as_ref().unwrap(), &Term::iri("http://alice"));
    }

    #[test]
    fn numeric_filter_comparison() {
        let mut st = StoreWriter::new();
        for (name, age) in [("carol", 35), ("alice", 42), ("bob", 7)] {
            st.insert_terms(
                &Term::iri(format!("http://{name}")),
                &Term::iri("http://age"),
                &Term::typed_literal(age.to_string(), "http://www.w3.org/2001/XMLSchema#integer"),
            );
        }
        let st = st.commit();
        let wco = WcoEngine::new();
        let r = run_query(
            &st,
            &wco,
            "SELECT ?x WHERE { ?x <http://age> ?a FILTER(?a >= 35) }",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(r.results.len(), 2);
        let r2 = run_query(
            &st,
            &wco,
            "SELECT ?x WHERE { ?x <http://age> ?a FILTER(?a < 10) }",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(r2.results.len(), 1);
    }

    #[test]
    fn type_test_filters() {
        let st = store();
        let wco = WcoEngine::new();
        // Objects of <http://name> are literals; of <http://sameAs> IRIs.
        let r = run_query(
            &st,
            &wco,
            "SELECT ?o WHERE { ?x <http://name> ?o FILTER(isLiteral(?o)) }",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(r.results.len(), 100);
        let r2 = run_query(
            &st,
            &wco,
            "SELECT ?o WHERE { ?x <http://name> ?o FILTER(isIRI(?o)) }",
            Strategy::Base,
        )
        .unwrap();
        assert!(r2.results.is_empty());
    }

    #[test]
    fn parse_error_propagates() {
        let st = store();
        let wco = WcoEngine::new();
        assert!(run_query(&st, &wco, "SELECT WHERE {", Strategy::Base).is_err());
    }

    #[test]
    fn group_by_count_and_having() {
        let mut st = StoreWriter::new();
        for (person, city) in [
            ("a", "rome"),
            ("b", "rome"),
            ("c", "rome"),
            ("d", "oslo"),
            ("e", "oslo"),
            ("f", "lima"),
        ] {
            st.insert_terms(
                &Term::iri(format!("http://{person}")),
                &Term::iri("http://in"),
                &Term::iri(format!("http://{city}")),
            );
        }
        let st = st.commit();
        let wco = WcoEngine::new();
        let r = run_query(
            &st,
            &wco,
            "SELECT ?c (COUNT(?x) AS ?n) WHERE { ?x <http://in> ?c }
             GROUP BY ?c HAVING(?n >= 2) ORDER BY DESC(?n)",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(r.results.len(), 2, "lima's group of 1 fails HAVING");
        assert_eq!(r.results[0][0].as_ref().unwrap(), &Term::iri("http://rome"));
        assert_eq!(
            r.results[0][1].as_ref().unwrap(),
            &Term::typed_literal("3", "http://www.w3.org/2001/XMLSchema#integer")
        );
    }

    #[test]
    fn aggregates_without_group_by_collapse_to_one_row() {
        let mut st = StoreWriter::new();
        for (name, age) in [("carol", 35), ("alice", 42), ("bob", 7)] {
            st.insert_terms(
                &Term::iri(format!("http://{name}")),
                &Term::iri("http://age"),
                &Term::typed_literal(age.to_string(), "http://www.w3.org/2001/XMLSchema#integer"),
            );
        }
        let st = st.commit();
        let wco = WcoEngine::new();
        let r = run_query(
            &st,
            &wco,
            "SELECT (SUM(?a) AS ?s) (AVG(?a) AS ?m) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi)
             WHERE { ?x <http://age> ?a }",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(r.results.len(), 1);
        let lex = |i: usize| r.results[0][i].as_ref().unwrap().as_literal().unwrap().to_string();
        assert_eq!(lex(0), "84");
        assert_eq!(lex(1), "28");
        assert_eq!(lex(2), "7");
        assert_eq!(lex(3), "42");
        // COUNT over an empty pattern still yields one row with 0.
        let empty = run_query(
            &st,
            &wco,
            "SELECT (COUNT(*) AS ?n) WHERE { ?x <http://missing> ?a }",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(empty.results.len(), 1);
        assert_eq!(empty.results[0][0].as_ref().unwrap().as_literal().unwrap().to_string(), "0");
    }

    #[test]
    fn bind_and_values_flow_through_projection() {
        let mut st = StoreWriter::new();
        for (name, age) in [("carol", 35), ("alice", 42)] {
            st.insert_terms(
                &Term::iri(format!("http://{name}")),
                &Term::iri("http://age"),
                &Term::typed_literal(age.to_string(), "http://www.w3.org/2001/XMLSchema#integer"),
            );
        }
        let st = st.commit();
        let wco = WcoEngine::new();
        let r = run_query(
            &st,
            &wco,
            "SELECT ?x ?next WHERE { ?x <http://age> ?a BIND(?a + 1 AS ?next) } ORDER BY ?next",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(r.results.len(), 2);
        assert_eq!(
            r.results[0][1].as_ref().unwrap().as_literal().unwrap().to_string(),
            "36",
            "synthetic BIND output decodes through the context"
        );
        let v = run_query(
            &st,
            &wco,
            "SELECT ?x WHERE { VALUES ?x { <http://carol> <http://nobody> } ?x <http://age> ?a }",
            Strategy::Base,
        )
        .unwrap();
        assert_eq!(v.results.len(), 1);
        assert_eq!(v.results[0][0].as_ref().unwrap(), &Term::iri("http://carol"));
    }

    #[test]
    fn ask_reports_verdict() {
        let st = store();
        let wco = WcoEngine::new();
        let yes = run_query(&st, &wco, "ASK { ?x <http://link> <http://POTUS> }", Strategy::Base)
            .unwrap();
        assert_eq!(yes.ask, Some(true));
        let no = run_query(&st, &wco, "ASK { ?x <http://absent> ?y }", Strategy::Full).unwrap();
        assert_eq!(no.ask, Some(false));
        let select = run_query(&st, &wco, Q, Strategy::Base).unwrap();
        assert_eq!(select.ask, None);
    }

    #[test]
    fn plan_rendering_mentions_operators() {
        let st = store();
        let wco = WcoEngine::new();
        let r = run_query(&st, &wco, Q, Strategy::Base).unwrap();
        assert!(r.plan.contains("Union"));
        assert!(r.plan.contains("Optional"));
    }

    #[test]
    fn row_budget_guards() {
        let st = store();
        let p = |q: &str| prepare(&st, q).unwrap();
        let bgp = "{ ?x <http://name> ?n }";
        assert_eq!(row_budget(&p(&format!("SELECT ?x WHERE {bgp} LIMIT 5"))), Some(5));
        assert_eq!(row_budget(&p(&format!("SELECT ?x WHERE {bgp} LIMIT 5 OFFSET 3"))), Some(8));
        assert_eq!(row_budget(&p(&format!("SELECT ?x WHERE {bgp}"))), None, "no LIMIT");
        assert_eq!(row_budget(&p(&format!("SELECT ?x WHERE {bgp} OFFSET 3"))), None, "unbounded");
        assert_eq!(row_budget(&p(&format!("SELECT DISTINCT ?n WHERE {bgp} LIMIT 5"))), None);
        assert_eq!(row_budget(&p(&format!("SELECT ?x WHERE {bgp} ORDER BY ?n LIMIT 5"))), None);
        assert_eq!(
            row_budget(&p(&format!("SELECT (COUNT(*) AS ?c) WHERE {bgp} LIMIT 5"))),
            None,
            "aggregation consumes every row"
        );
        assert_eq!(row_budget(&p(&format!("ASK {bgp}"))), Some(1));
    }

    /// LIMIT/OFFSET without ORDER BY: the budgeted run must return exactly
    /// the slice a full-materialize-then-slice run would, on both engines,
    /// every strategy, several worker counts — while enumerating fewer
    /// rows and reporting the short-circuit.
    #[test]
    fn limit_pushdown_matches_full_run() {
        let st = store();
        let base = "SELECT ?x ?n WHERE {
            { ?x <http://name> ?n } UNION { ?x <http://label> ?n }
        }";
        for strategy in Strategy::ALL {
            for threads in [1usize, 2, 4] {
                let engines: [Box<dyn BgpEngine>; 2] = [
                    Box::new(WcoEngine::with_threads(threads)),
                    Box::new(BinaryJoinEngine::with_threads(threads)),
                ];
                for engine in &engines {
                    let par = Parallelism::new(threads);
                    let full = run_query_with(&st, engine.as_ref(), base, strategy, par).unwrap();
                    assert_eq!(full.results.len(), 200);
                    assert!(!full.exec_stats.short_circuit);
                    for (lim, off) in [(0usize, 0usize), (1, 0), (7, 3), (500, 0)] {
                        let q = format!("{base} LIMIT {lim} OFFSET {off}");
                        let r = run_query_with(&st, engine.as_ref(), &q, strategy, par).unwrap();
                        let want: Vec<_> =
                            full.results.iter().skip(off).take(lim).cloned().collect();
                        assert_eq!(
                            r.results,
                            want,
                            "{} {strategy} threads={threads} LIMIT {lim} OFFSET {off}",
                            engine.name()
                        );
                        if lim + off < full.results.len() {
                            assert!(r.exec_stats.short_circuit, "budget hit must be reported");
                            assert!(
                                r.exec_stats.rows_enumerated < full.exec_stats.rows_enumerated,
                                "{} {strategy} LIMIT {lim}: enumerated {} !< full {}",
                                engine.name(),
                                r.exec_stats.rows_enumerated,
                                full.exec_stats.rows_enumerated
                            );
                        }
                    }
                }
            }
        }
    }

    /// ORDER BY + LIMIT/OFFSET: the bounded top-k heap must reproduce
    /// full-sort-then-slice exactly, including the stable tie-break on
    /// equal keys.
    #[test]
    fn top_k_matches_sort_then_slice() {
        let st = store();
        let sorted = "SELECT ?x ?n WHERE {
            { ?x <http://name> ?n } UNION { ?x <http://label> ?n }
        } ORDER BY DESC(?n) ?x";
        let tied = "SELECT ?x ?c WHERE { ?x <http://link> ?c } ORDER BY ?c";
        for (base, rows) in [(sorted, 200usize), (tied, 5)] {
            for threads in [1usize, 2] {
                let engines: [Box<dyn BgpEngine>; 2] = [
                    Box::new(WcoEngine::with_threads(threads)),
                    Box::new(BinaryJoinEngine::with_threads(threads)),
                ];
                for engine in &engines {
                    let par = Parallelism::new(threads);
                    let full =
                        run_query_with(&st, engine.as_ref(), base, Strategy::Full, par).unwrap();
                    assert_eq!(full.results.len(), rows);
                    for (lim, off) in [(0usize, 0usize), (1, 0), (2, 0), (3, 2), (7, 0), (500, 9)] {
                        let q = format!("{base} LIMIT {lim} OFFSET {off}");
                        let r =
                            run_query_with(&st, engine.as_ref(), &q, Strategy::Full, par).unwrap();
                        let want: Vec<_> =
                            full.results.iter().skip(off).take(lim).cloned().collect();
                        assert_eq!(
                            r.results,
                            want,
                            "{} threads={threads} LIMIT {lim} OFFSET {off} over {base}",
                            engine.name()
                        );
                        if lim + off < rows {
                            assert!(
                                r.exec_stats.short_circuit,
                                "heap eviction must be reported: LIMIT {lim} OFFSET {off}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// DISTINCT + ORDER BY + LIMIT must keep the full sort-dedup-slice
    /// semantics (the top-k heap is bag-only).
    #[test]
    fn distinct_order_by_limit_unaffected() {
        let st = store();
        let wco = WcoEngine::new();
        let q = "SELECT DISTINCT ?c WHERE { ?x <http://link> ?c } ORDER BY ?c LIMIT 3";
        let r = run_query(&st, &wco, q, Strategy::Base).unwrap();
        assert_eq!(r.results.len(), 1, "all 5 link edges point at the same IRI");
        assert!(!r.exec_stats.short_circuit, "DISTINCT disables the budget");
    }
}
