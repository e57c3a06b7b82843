//! A bounded LRU cache of optimized query plans, tagged with the store
//! epoch they were planned against.
//!
//! Keys are *canonicalized* query text — the re-serialization of the parsed
//! query (`uo_sparql::serialize`), so whitespace, prefix, and comment
//! variants of the same query share one entry. Values are the optimized
//! [`Prepared`] (BE-tree already transformed and, for `full`, annotated
//! with pruning thresholds) plus the transformation counters; a hit skips
//! BE-tree construction *and* optimization and goes straight to execution
//! (the raw text is still parsed once per request to compute the canonical
//! key). Plans are shared as [`Arc`]s so the mutex critical section is a
//! pointer clone, not a deep copy of the plan tree.
//!
//! Every entry records the **epoch** of the snapshot it was planned
//! against. A plan holds dictionary-encoded constants and cardinality
//! annotations of its snapshot, so after a commit it may be wrong for the
//! new data; [`get`](PlanCache::get) therefore only returns entries whose
//! epoch matches the caller's snapshot. Stale entries are *not* flushed —
//! they count as misses and are overwritten in place by the re-plan, so a
//! commit invalidates the whole cache logically at zero cost while the
//! cache structure (capacity, recency) survives.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use uo_core::{Prepared, TransformOutcome};

/// Observed execution statistics for one cached plan, shared between the
/// cache entry and the request path as an [`Arc`] so recording an
/// execution never takes the cache mutex. A re-plan (stale overwrite)
/// installs a *fresh* stats object carrying the new epoch and estimate, so
/// the actual-vs-estimated ratio always describes the currently cached
/// plan, not an accumulation across invalidated generations.
#[derive(Debug)]
pub struct PlanEntryStats {
    /// Epoch of the snapshot the plan was optimized against.
    pub epoch: u64,
    /// The optimizer's estimate of the plan's root-result scale
    /// ([`uo_core::Prepared::est_root_rows`]), captured at plan time;
    /// `None` when the caller did not estimate.
    pub est_root: Option<f64>,
    /// Epoch-matched cache hits served from this entry.
    hits: AtomicU64,
    /// Completed executions recorded against this plan.
    executions: AtomicU64,
    /// Cumulative execution wall nanoseconds across those executions.
    exec_nanos: AtomicU64,
    /// Actual root cardinality (result rows) of the most recent execution.
    last_rows: AtomicU64,
}

impl PlanEntryStats {
    fn new(epoch: u64, est_root: Option<f64>) -> Arc<PlanEntryStats> {
        Arc::new(PlanEntryStats {
            epoch,
            est_root,
            hits: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            exec_nanos: AtomicU64::new(0),
            last_rows: AtomicU64::new(0),
        })
    }

    /// Records one completed execution of the plan (lock-free).
    pub fn record_exec(&self, wall_nanos: u64, rows: u64) {
        self.executions.fetch_add(1, Ordering::Relaxed);
        self.exec_nanos.fetch_add(wall_nanos, Ordering::Relaxed);
        self.last_rows.store(rows, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one plan's observed stats, for `/stats/plans`.
#[derive(Debug, Clone)]
pub struct PlanStatsSnapshot {
    /// Canonicalized query text keying the entry.
    pub query: String,
    /// Epoch the plan was optimized at.
    pub epoch: u64,
    /// The optimizer's root-scale estimate at plan time.
    pub est_root: Option<f64>,
    /// Epoch-matched hits served.
    pub hits: u64,
    /// Executions recorded.
    pub executions: u64,
    /// Cumulative execution wall nanoseconds.
    pub exec_nanos: u64,
    /// Actual result rows of the most recent execution.
    pub last_rows: u64,
}

impl PlanStatsSnapshot {
    /// Last actual root cardinality over the optimizer's estimate — the
    /// cardinality-feedback signal (`> 1` = underestimate). `None` until
    /// the plan has executed or when there is no (positive) estimate.
    pub fn actual_over_est(&self) -> Option<f64> {
        match self.est_root {
            Some(est) if est > 0.0 && self.executions > 0 => Some(self.last_rows as f64 / est),
            _ => None,
        }
    }
}

/// The outcome of a [`PlanCache::lookup`].
pub enum Lookup {
    /// An epoch-matched plan: skip parse-tree construction + optimization.
    Hit(Arc<Prepared>, TransformOutcome, Arc<PlanEntryStats>),
    /// The key is cached but was planned at another epoch (invalidated by
    /// a commit); counted as a miss.
    Stale,
    /// The key is not cached.
    Miss,
}

struct Entry {
    prepared: Arc<Prepared>,
    transforms: TransformOutcome,
    epoch: u64,
    last_used: u64,
    stats: Arc<PlanEntryStats>,
}

/// A thread-safe, epoch-aware LRU plan cache. Capacity 0 disables caching
/// entirely (every lookup misses, inserts are dropped).
pub struct PlanCache {
    capacity: usize,
    tick: AtomicU64,
    entries: Mutex<HashMap<String, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            tick: AtomicU64::new(0),
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        }
    }

    /// Looks up a plan by canonical query text, refreshing its recency. Only
    /// entries planned at `epoch` hit; an entry from another epoch counts as
    /// a stale miss (and stays until the re-plan overwrites it).
    pub fn get(&self, key: &str, epoch: u64) -> Option<(Arc<Prepared>, TransformOutcome)> {
        match self.lookup(key, epoch) {
            Lookup::Hit(prepared, transforms, _) => Some((prepared, transforms)),
            Lookup::Stale | Lookup::Miss => None,
        }
    }

    /// [`get`](PlanCache::get) distinguishing *why* a lookup missed (cold
    /// vs. invalidated-by-commit), and handing out the entry's observed
    /// stats on a hit so the caller can record the execution.
    pub fn lookup(&self, key: &str, epoch: u64) -> Lookup {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        match entries.get_mut(key) {
            Some(e) if e.epoch == epoch => {
                e.last_used = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                e.stats.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(Arc::clone(&e.prepared), e.transforms, Arc::clone(&e.stats))
            }
            Some(_) => {
                self.stale.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Stale
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
        }
    }

    /// Inserts a plan optimized at `epoch`, evicting the least-recently-used
    /// entry when full. Concurrent inserts of the same key keep the newer
    /// value — both are equivalent plans of the same canonical text (a
    /// racing insert from an older epoch is corrected by the next lookup's
    /// stale miss). `est_root` is the optimizer's root-scale estimate for
    /// the plan; the returned stats handle is the one future hits share (a
    /// fresh, detached one when the cache is disabled), so the caller can
    /// record this first execution against it.
    pub fn insert(
        &self,
        key: String,
        epoch: u64,
        prepared: Arc<Prepared>,
        transforms: TransformOutcome,
        est_root: Option<f64>,
    ) -> Arc<PlanEntryStats> {
        let stats = PlanEntryStats::new(epoch, est_root);
        if self.capacity == 0 {
            return stats;
        }
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if entries.len() >= self.capacity && !entries.contains_key(&key) {
            // O(n) scan for the LRU victim: capacities are small (hundreds)
            // and eviction only happens on misses of a full cache.
            if let Some(victim) =
                entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                entries.remove(&victim);
            }
        }
        entries.insert(
            key,
            Entry { prepared, transforms, epoch, last_used: now, stats: Arc::clone(&stats) },
        );
        stats
    }

    /// Observed stats of every cached plan, sorted by query text for a
    /// deterministic `/stats/plans` rendering.
    pub fn plans_snapshot(&self) -> Vec<PlanStatsSnapshot> {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<PlanStatsSnapshot> = entries
            .iter()
            .map(|(key, e)| PlanStatsSnapshot {
                query: key.clone(),
                epoch: e.stats.epoch,
                est_root: e.stats.est_root,
                hits: e.stats.hits.load(Ordering::Relaxed),
                executions: e.stats.executions.load(Ordering::Relaxed),
                exec_nanos: e.stats.exec_nanos.load(Ordering::Relaxed),
                last_rows: e.stats.last_rows.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by(|a, b| a.query.cmp(&b.query));
        out
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint of the cache in bytes: the sum of key
    /// lengths plus a fixed per-entry estimate covering the `Entry` struct,
    /// the shared stats block, and the hash-map slot. Plan trees are shared
    /// `Arc`s whose deep size is not tracked, so this is a *lower bound*
    /// meant for capacity trending (the `/metrics` `resources` block), not
    /// exact accounting.
    pub fn approx_bytes(&self) -> u64 {
        const PER_ENTRY: u64 = (std::mem::size_of::<Entry>()
            + std::mem::size_of::<PlanEntryStats>()
            + std::mem::size_of::<String>()
            + 16) as u64;
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.keys().map(|k| k.len() as u64 + PER_ENTRY).sum()
    }

    /// `(hits, misses, stale)` so far; `stale` counts the misses caused by
    /// an epoch mismatch (plan invalidated by a commit) and is included in
    /// `misses`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.stale.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uo_core::prepare;
    use uo_rdf::Term;
    use uo_store::{Snapshot, StoreWriter};

    fn store() -> Arc<Snapshot> {
        let mut st = StoreWriter::new();
        st.insert_terms(&Term::iri("http://a"), &Term::iri("http://p"), &Term::iri("http://b"));
        st.commit()
    }

    fn plan(st: &Snapshot, q: &str) -> Arc<Prepared> {
        Arc::new(prepare(st, q).unwrap())
    }

    #[test]
    fn hit_after_insert_and_lru_eviction() {
        let st = store();
        let cache = PlanCache::new(2);
        let q = |n: usize| format!("SELECT ?x WHERE {{ ?x <http://p{n}> ?y }}");
        assert!(cache.get(&q(1), 1).is_none());
        cache.insert(q(1), 1, plan(&st, &q(1)), TransformOutcome::default(), None);
        cache.insert(q(2), 1, plan(&st, &q(2)), TransformOutcome::default(), None);
        assert!(cache.get(&q(1), 1).is_some());
        // Inserting a third evicts the LRU entry — q2, since q1 was just
        // touched.
        cache.insert(q(3), 1, plan(&st, &q(3)), TransformOutcome::default(), None);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&q(2), 1).is_none());
        assert!(cache.get(&q(1), 1).is_some());
        assert!(cache.get(&q(3), 1).is_some());
        let (hits, misses, stale) = cache.stats();
        assert_eq!((hits, misses, stale), (3, 2, 0));
    }

    #[test]
    fn epoch_mismatch_is_a_stale_miss_and_replan_overwrites() {
        let st = store();
        let cache = PlanCache::new(4);
        let q = "SELECT ?x WHERE { ?x <http://p> ?y }".to_string();
        cache.insert(q.clone(), 1, plan(&st, &q), TransformOutcome::default(), None);
        assert!(cache.get(&q, 1).is_some(), "same epoch hits");
        assert!(cache.get(&q, 2).is_none(), "a commit invalidates the plan");
        let (_, _, stale) = cache.stats();
        assert_eq!(stale, 1);
        assert_eq!(cache.len(), 1, "structure survives invalidation");
        // The re-plan replaces the entry in place; the old epoch now misses.
        cache.insert(q.clone(), 2, plan(&st, &q), TransformOutcome::default(), None);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&q, 2).is_some());
        assert!(cache.get(&q, 1).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let st = store();
        let cache = PlanCache::new(0);
        let q = "SELECT ?x WHERE { ?x <http://p> ?y }";
        cache.insert(q.to_string(), 1, plan(&st, q), TransformOutcome::default(), None);
        assert!(cache.is_empty());
        assert!(cache.get(q, 1).is_none());
    }
}
