//! BGP evaluation engines.
//!
//! The paper deliberately builds SPARQL-UO optimization *on top of* existing
//! BGP engines (Section 4): its experiments implement the approach over both
//! gStore (worst-case-optimal joins) and Apache Jena (binary hash joins).
//! This crate provides faithful stand-ins for both:
//!
//! - [`WcoEngine`]: gStore-style *vertex-at-a-time* evaluation — each step
//!   extends every partial match by one query vertex, intersecting the
//!   adjacency lists of all incident edges, with the WCO cost formula of
//!   Section 5.1.2;
//! - [`BinaryJoinEngine`]: Jena-style evaluation — each triple pattern is
//!   scanned into a relation and relations are combined by cost-ordered hash
//!   joins, with cost `2·min + max` (Equation 9).
//!
//! Both implement the [`BgpEngine`] trait, which also exposes the
//! cardinality/cost estimation the paper's SPARQL-UO cost model consumes
//! (Equations 2 and 6), and both accept [`CandidateSet`]s — the hook that
//! the paper's query-time *candidate pruning* (Section 6) uses to restrict
//! the search space of BGP evaluation on the fly.
//!
//! Both engines carry a worker count (the `UO_THREADS` knob, or
//! `with_threads`): above one worker, scans and extension levels partition
//! their input across scoped threads (`uo_par`) and merge per-worker
//! results in input order, so parallel evaluation returns bags
//! **bit-identical** to sequential evaluation.

pub mod binary;
pub mod estimate;
pub mod pattern;
pub mod wco;

pub use binary::{scan_pattern, scan_pattern_limited, scan_pattern_par, BinaryJoinEngine};
pub use estimate::{join_order, scan_counts, Estimator};
pub use pattern::{encode_bgp, CandidateSet, EncodedBgp, EncodedTriplePattern, Slot};
pub use wco::WcoEngine;

use uo_sparql::algebra::Bag;
use uo_store::Snapshot;

/// A BGP evaluation engine: the pluggable building block of Algorithm 1.
pub trait BgpEngine: Send + Sync {
    /// A short name for reports ("wco" / "binary").
    fn name(&self) -> &'static str;

    /// The engine's configured worker count (`1` = sequential). Purely
    /// informational — results never depend on it.
    fn threads(&self) -> usize {
        1
    }

    /// Evaluates a BGP, returning all matches as a [`Bag`] over a row frame
    /// of `width` variables. `candidates` restricts the admissible values of
    /// specific variables (empty set = unrestricted).
    fn evaluate(
        &self,
        store: &Snapshot,
        bgp: &EncodedBgp,
        width: usize,
        candidates: &CandidateSet,
    ) -> Bag;

    /// [`evaluate`](Self::evaluate) under a row budget: returns exactly the
    /// first `limit` rows (in enumeration order) of the bag `evaluate` would
    /// produce. Engines override this to stop enumerating once the budget is
    /// met; the default materializes everything and truncates.
    fn evaluate_limited(
        &self,
        store: &Snapshot,
        bgp: &EncodedBgp,
        width: usize,
        candidates: &CandidateSet,
        limit: usize,
    ) -> Bag {
        let mut bag = self.evaluate(store, bgp, width, candidates);
        bag.truncate(limit);
        bag
    }

    /// Everything planning needs to know about a BGP, from **one** bounded
    /// [`Estimator::sketch`]: the cost model calls this once per distinct BGP
    /// and evaluation never does — the engines order their joins from
    /// [`join_order`] alone.
    fn estimate(&self, store: &Snapshot, bgp: &EncodedBgp) -> BgpEstimate;

    /// Estimated number of results of the BGP (Section 5.1.2's sampling
    /// scheme). Used both by the SPARQL-UO cost model and as the adaptive
    /// candidate-pruning threshold.
    fn estimate_cardinality(&self, store: &Snapshot, bgp: &EncodedBgp) -> f64 {
        self.estimate(store, bgp).cardinality
    }

    /// Estimated evaluation cost of the BGP under this engine's join
    /// paradigm (`cost(P)` in Equations 2 and 6).
    fn estimate_cost(&self, store: &Snapshot, bgp: &EncodedBgp) -> f64 {
        self.estimate(store, bgp).cost
    }
}

/// The outcome of [`BgpEngine::estimate`].
#[derive(Debug, Clone, PartialEq)]
pub struct BgpEstimate {
    /// Estimated number of results (`|res(P)|`).
    pub cardinality: f64,
    /// Estimated evaluation cost under the engine's join paradigm
    /// (`cost(P)`).
    pub cost: f64,
    /// The pattern order the estimate assumed ([`Estimator::order`]).
    pub order: Vec<usize>,
}
