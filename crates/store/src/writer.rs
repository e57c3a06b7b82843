//! The [`StoreWriter`]: mutation endpoint of the MVCC store.
//!
//! A writer buffers inserts and deletes in a small delta and publishes them
//! with [`commit`](StoreWriter::commit), which produces a **new**
//! [`Snapshot`] by appending one small sorted **level** to the base's
//! tiered run stack. A commit of K triples sorts and writes only the K
//! delta rows (per permutation) — O(K log K) total, independent of the
//! N base rows, which stay untouched behind shared `Arc`s. The
//! [`CommitStats`] of every commit record exactly that contract, which the
//! test suite asserts on. The level stack is kept bounded by background
//! compaction (the server's maintenance thread) plus a deterministic
//! inline compaction once the stack reaches a hard cap.
//!
//! Readers are completely undisturbed: anyone holding an `Arc<Snapshot>`
//! keeps answering from it; a commit only swaps which snapshot *future*
//! readers pick up. One writer at a time per lineage is the caller's
//! contract (the HTTP server serializes writers behind a mutex).
//!
//! The dictionary is shared with the base snapshot via `Arc` and cloned
//! lazily (copy-on-write) the first time a commit cycle encounters a term
//! the base does not know; delta-only commits and commits over known terms
//! reuse the base dictionary allocation outright.

use crate::index::IndexKind;
use crate::runs::Level;
use crate::snapshot::{Snapshot, INLINE_COMPACT_LEVELS};
use std::sync::Arc;
use uo_obs::Tracer;
use uo_par::Parallelism;
use uo_rdf::{ntriples, Dictionary, FxHashSet, Id, Term, Triple};

/// What one [`StoreWriter::commit`] did — the observability hook for the
/// "append a level, don't rewrite the base" contract.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommitStats {
    /// Epoch of the snapshot the commit produced.
    pub epoch: u64,
    /// Distinct delta insertions folded in.
    pub delta_inserts: usize,
    /// Distinct delta deletions folded in.
    pub delta_deletes: usize,
    /// Rows that went through a sort: delta rows only, once per permutation
    /// index. A commit of K triples sorts at most `3 * (inserts + deletes)`
    /// rows regardless of the base size.
    pub rows_sorted: usize,
    /// Rows written into the new level across the three permutation
    /// indexes — proportional to the **delta**, never to the base. (Before
    /// the tiered refactor this counted the N base rows every commit
    /// re-merged; it is now O(K) by construction.)
    pub rows_merged: usize,
    /// Rows rewritten by an inline full compaction this commit triggered
    /// (0 for ordinary commits; fires only when the level stack hits its
    /// deterministic depth cap).
    pub compaction_rows: usize,
    /// Depth of the level stack after the commit.
    pub levels: usize,
    /// True when the commit reused the base snapshot's dictionary
    /// allocation (no unknown term was encoded this cycle).
    pub dict_reused: bool,
}

/// A mutation buffer over a base [`Snapshot`]. See the module docs.
///
/// The pending delta is a pair of hash sets (row → present exactly once),
/// so buffering an operation is O(1) — including the cancellation of an
/// opposing pending op — and mixed insert/delete batches stay linear.
#[derive(Debug, Clone)]
pub struct StoreWriter {
    base: Arc<Snapshot>,
    dict: Arc<Dictionary>,
    inserts: FxHashSet<[Id; 3]>,
    deletes: FxHashSet<[Id; 3]>,
    last_commit: CommitStats,
    total_rows_sorted: usize,
    total_rows_merged: usize,
    /// Span recorder for the commit pipeline (off by default — see
    /// [`set_tracer`](StoreWriter::set_tracer)).
    tracer: Tracer,
    /// Parent span id for the next commit's `delta_merge` span (0 = root;
    /// the server's update handler points this at its request span while
    /// it holds the writer lock).
    trace_parent: u64,
}

impl StoreWriter {
    /// A writer over the empty dataset (epoch 0).
    pub fn new() -> StoreWriter {
        StoreWriter::from_snapshot(Arc::new(Snapshot::empty()))
    }

    /// A writer whose first commit will extend `base`. Cheap: the dictionary
    /// and indexes stay shared until a commit actually changes them.
    pub fn from_snapshot(base: Arc<Snapshot>) -> StoreWriter {
        let dict = Arc::clone(base.dict_arc());
        StoreWriter {
            base,
            dict,
            inserts: FxHashSet::default(),
            deletes: FxHashSet::default(),
            last_commit: CommitStats::default(),
            total_rows_sorted: 0,
            total_rows_merged: 0,
            tracer: Tracer::off(),
            trace_parent: 0,
        }
    }

    /// Installs a span recorder: every subsequent commit records a
    /// `delta_merge` span (category `commit`) carrying the new epoch and
    /// the delta-merge accounting. With the default [`Tracer::off`] the
    /// commit path pays a single branch.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Sets the parent span id of the next commits' `delta_merge` spans
    /// (0 for a root). Callers serialize writers, so pointing this at the
    /// in-flight request's span just before running the update is
    /// race-free.
    pub fn set_trace_parent(&mut self, parent: u64) {
        self.trace_parent = parent;
    }

    /// The latest committed snapshot (the base of the pending delta).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.base)
    }

    /// The working dictionary: the base snapshot's terms plus any terms
    /// encoded by pending (uncommitted) insertions.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Number of pending (uncommitted) insertions.
    pub fn pending_inserts(&self) -> usize {
        self.inserts.len()
    }

    /// Number of pending (uncommitted) deletions.
    pub fn pending_deletes(&self) -> usize {
        self.deletes.len()
    }

    /// Statistics of the most recent commit.
    pub fn last_commit(&self) -> CommitStats {
        self.last_commit
    }

    /// Cumulative `(rows_sorted, rows_merged)` across every commit this
    /// writer has performed — the observability hook for proving that a
    /// whole *sequence* of commits (e.g. a WAL recovery replay) stayed on
    /// the O(K)-per-commit level-append path instead of rewriting the base.
    pub fn merge_totals(&self) -> (usize, usize) {
        (self.total_rows_sorted, self.total_rows_merged)
    }

    /// Encodes a term against the shared dictionary, cloning it
    /// copy-on-write only when the term is genuinely new.
    fn encode(&mut self, term: &Term) -> Id {
        if let Some(id) = self.dict.lookup(term) {
            return id;
        }
        Arc::make_mut(&mut self.dict).encode(term)
    }

    /// Buffers an insertion of an already-encoded triple. A pending deletion
    /// of the same triple is cancelled (last operation wins).
    pub fn insert(&mut self, t: Triple) {
        let row = t.as_array();
        self.deletes.remove(&row);
        self.inserts.insert(row);
    }

    /// Encodes the three terms and buffers the insertion.
    pub fn insert_terms(&mut self, s: &Term, p: &Term, o: &Term) {
        let t = Triple::new(self.encode(s), self.encode(p), self.encode(o));
        self.insert(t);
    }

    /// Buffers a deletion of an already-encoded triple. A pending insertion
    /// of the same triple is cancelled (last operation wins). Deleting a
    /// triple that is not in the store is a no-op at commit.
    pub fn delete(&mut self, t: Triple) {
        let row = t.as_array();
        self.inserts.remove(&row);
        self.deletes.insert(row);
    }

    /// Looks the three terms up and buffers the deletion. Returns `false`
    /// (doing nothing) when any term is unknown — the triple cannot exist.
    pub fn delete_terms(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let (Some(s), Some(p), Some(o)) =
            (self.dict.lookup(s), self.dict.lookup(p), self.dict.lookup(o))
        else {
            return false;
        };
        self.delete(Triple::new(s, p, o));
        true
    }

    /// Parses an N-Triples document and buffers every statement, one at a
    /// time — no intermediate `Vec` of decoded terms is materialized, so
    /// peak memory during ingest is the document plus the encoded delta.
    /// Atomic on error: a malformed document leaves the pending delta and
    /// dictionary exactly as they were (the pre-load delta is snapshotted,
    /// which is cheap in the common bulk-load-into-empty-delta case).
    pub fn load_ntriples(&mut self, doc: &str) -> Result<usize, ntriples::ParseError> {
        let undo = (Arc::clone(&self.dict), self.inserts.clone(), self.deletes.clone());
        ntriples::parse_document_each(doc, |s, p, o| self.insert_terms(&s, &p, &o))
            .inspect_err(|_| self.unwind_load(undo))
    }

    /// Parses a Turtle document and buffers every statement, streaming and
    /// atomic-on-error like [`load_ntriples`](Self::load_ntriples).
    pub fn load_turtle(&mut self, doc: &str) -> Result<usize, uo_rdf::turtle::TurtleError> {
        let undo = (Arc::clone(&self.dict), self.inserts.clone(), self.deletes.clone());
        uo_rdf::turtle::parse_turtle_each(doc, &mut |s, p, o| self.insert_terms(&s, &p, &o))
            .inspect_err(|_| self.unwind_load(undo))
    }

    /// Restores the pre-load state after a failed streaming load.
    #[allow(clippy::type_complexity)]
    fn unwind_load(&mut self, undo: (Arc<Dictionary>, FxHashSet<[Id; 3]>, FxHashSet<[Id; 3]>)) {
        (self.dict, self.inserts, self.deletes) = undo;
    }

    /// Publishes the pending delta as a new snapshot with `UO_THREADS`
    /// parallelism. See [`commit_with`](Self::commit_with).
    pub fn commit(&mut self) -> Arc<Snapshot> {
        self.commit_with(Parallelism::from_env())
    }

    /// Publishes the pending delta: sorts the delta (K log K), normalizes
    /// it against the base, appends it as one new level in all three
    /// permutation orders, updates statistics incrementally, and bumps the
    /// epoch — O(K log N) total, independent of the base size. The
    /// writer's base advances to the new snapshot; the old snapshot is
    /// untouched, so concurrent readers holding it are unaffected.
    ///
    /// A commit with an empty delta and an unchanged dictionary returns the
    /// current base unchanged (same epoch).
    pub fn commit_with(&mut self, par: Parallelism) -> Arc<Snapshot> {
        let dict_reused = Arc::ptr_eq(&self.dict, self.base.dict_arc());
        if self.inserts.is_empty() && self.deletes.is_empty() && dict_reused {
            return Arc::clone(&self.base);
        }
        let span = self.tracer.start(self.trace_parent, "commit", "delta_merge");
        let inserts: Vec<[Id; 3]> = std::mem::take(&mut self.inserts).into_iter().collect();
        let deletes: Vec<[Id; 3]> = std::mem::take(&mut self.deletes).into_iter().collect();
        let (snap, mut stats) =
            commit_delta(&self.base, Arc::clone(&self.dict), inserts, deletes, par);
        stats.dict_reused = dict_reused;
        self.total_rows_sorted += stats.rows_sorted;
        self.total_rows_merged += stats.rows_merged;
        self.last_commit = stats;
        self.tracer.end_with(span, || {
            vec![
                ("epoch", stats.epoch.to_string()),
                ("rows_sorted", stats.rows_sorted.to_string()),
                ("rows_merged", stats.rows_merged.to_string()),
                ("levels", stats.levels.to_string()),
            ]
        });
        let arc = Arc::new(snap);
        self.base = Arc::clone(&arc);
        arc
    }

    /// Swaps the writer's base for a compacted rearrangement of the **same
    /// version**: `compacted` must carry the current base's epoch (it came
    /// from [`Snapshot::compact_with`] on that exact snapshot). Content,
    /// epoch, and statistics are identical — only the level layout
    /// changes — so nothing is journaled and readers of either arrangement
    /// agree bit-for-bit. The install is refused (returns `false`) when
    /// the epochs differ, i.e. a commit raced the background compaction.
    pub fn install_compacted(&mut self, compacted: Arc<Snapshot>) -> bool {
        if compacted.epoch() != self.base.epoch() {
            return false;
        }
        debug_assert_eq!(compacted.len(), self.base.len());
        self.base = compacted;
        true
    }

    /// Discards the pending (uncommitted) delta and any terms it encoded,
    /// restoring the writer to its last committed state. Used to abandon a
    /// cancelled or failed update request without leaking half its
    /// operations into the next one.
    pub fn rollback(&mut self) {
        self.inserts.clear();
        self.deletes.clear();
        self.dict = Arc::clone(self.base.dict_arc());
    }
}

impl Default for StoreWriter {
    fn default() -> Self {
        StoreWriter::new()
    }
}

/// Folds a delta into `base` by appending one level to the tiered run
/// stack, producing the next snapshot and the commit accounting of
/// [`StoreWriter::commit_with`].
///
/// The delta is **normalized** against the base first: inserts of rows
/// already live and deletes of rows not live are dropped. Normalization is
/// what gives the level stack its algebra — every surviving add lands on a
/// dead row and every tombstone on a live one, so per-row occurrences
/// alternate add/delete from the bottom up and range counts subtract
/// exactly. It also keeps the statistics update exact
/// ([`DatasetStats::apply_delta`]).
fn commit_delta(
    base: &Snapshot,
    dict: Arc<Dictionary>,
    mut inserts: Vec<[Id; 3]>,
    mut deletes: Vec<[Id; 3]>,
    par: Parallelism,
) -> (Snapshot, CommitStats) {
    let epoch = base.epoch + 1;
    let mut stats = CommitStats { epoch, ..CommitStats::default() };

    stats.rows_sorted += inserts.len() + deletes.len();
    uo_par::sort_unstable(par, &mut inserts);
    inserts.dedup();
    deletes.sort_unstable();
    deletes.dedup();
    stats.delta_inserts = inserts.len();
    stats.delta_deletes = deletes.len();

    // A level-less base (a first load, or a store emptied and compacted)
    // takes the bulk builder. Its first run id is the base's next one: a
    // compacted-empty base may have written runs already.
    if base.levels.is_empty() && deletes.is_empty() {
        stats.rows_sorted += 2 * inserts.len();
        stats.rows_merged += 3 * inserts.len();
        let snap = Snapshot::from_sorted_spo(dict, inserts, epoch, base.next_run_id, par);
        stats.levels = snap.levels.len();
        return (snap, stats);
    }

    // Normalize: drop inserts of live rows and deletes of dead rows.
    inserts.retain(|&[s, p, o]| base.count_pattern(Some(s), Some(p), Some(o)) == 0);
    deletes.retain(|&[s, p, o]| base.count_pattern(Some(s), Some(p), Some(o)) > 0);

    if inserts.is_empty() && deletes.is_empty() {
        // Nothing survived normalization: same content at the next epoch,
        // reusing every level by reference.
        stats.levels = base.levels.len();
        let snap = Snapshot {
            dict,
            epoch,
            levels: base.levels.clone(),
            len: base.len,
            next_run_id: base.next_run_id,
            stats: base.stats.clone(),
        };
        return (snap, stats);
    }

    let permute = |kind: IndexKind, rows: &[[Id; 3]]| -> Vec<[Id; 3]> {
        let mut v: Vec<[Id; 3]> = rows.iter().map(|&t| kind.from_spo(t)).collect();
        v.sort_unstable();
        v
    };

    let mut ds = base.stats.clone();
    let ((pos_i, pos_d), (osp_i, osp_d), ()) = uo_par::join3(
        par,
        || (permute(IndexKind::Pos, &inserts), permute(IndexKind::Pos, &deletes)),
        || (permute(IndexKind::Osp, &inserts), permute(IndexKind::Osp, &deletes)),
        || ds.apply_delta(base, &dict, &inserts, &deletes),
    );
    stats.rows_sorted += 2 * (inserts.len() + deletes.len());
    stats.rows_merged += 3 * (inserts.len() + deletes.len());

    let len = base.len + inserts.len() - deletes.len();
    let level = Arc::new(Level::from_sorted(
        base.next_run_id,
        [inserts, pos_i, osp_i],
        [deletes, pos_d, osp_d],
    ));
    let mut levels = Vec::with_capacity(base.levels.len() + 1);
    levels.extend(base.levels.iter().cloned());
    levels.push(level);
    let mut snap =
        Snapshot { dict, epoch, levels, len, next_run_id: base.next_run_id + 1, stats: ds };

    // Deterministic inline compaction: depends only on the commit
    // sequence, never on timing or worker count.
    if snap.levels.len() >= INLINE_COMPACT_LEVELS {
        snap =
            snap.compact_with(par).expect("storage error while compacting the level stack inline");
        stats.compaction_rows += 3 * snap.len();
    }
    stats.levels = snap.levels.len();
    (snap, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(s: &str) -> Term {
        Term::iri(format!("http://{s}"))
    }

    fn bulk(n: usize) -> Arc<Snapshot> {
        let mut w = StoreWriter::new();
        for i in 0..n {
            w.insert_terms(&term(&format!("s{}", i % 97)), &term("p"), &term(&format!("o{i}")));
        }
        w.commit_with(Parallelism::sequential())
    }

    #[test]
    fn commit_appends_level_without_touching_base() {
        let base = bulk(5_000);
        let n = base.len();
        let mut w = StoreWriter::from_snapshot(Arc::clone(&base));
        for i in 0..5 {
            w.insert_terms(&term("new"), &term("p"), &term(&format!("fresh{i}")));
        }
        let snap = w.commit_with(Parallelism::sequential());
        assert_eq!(snap.len(), n + 5);
        assert_eq!(snap.epoch(), base.epoch() + 1);
        let st = w.last_commit();
        assert_eq!(st.delta_inserts, 5);
        // The tiering contract: a K-row commit sorts and writes only delta
        // rows (once per permutation); the N base rows stay untouched.
        assert_eq!(st.rows_sorted, 3 * 5);
        assert_eq!(st.rows_merged, 3 * 5);
        assert_eq!(st.compaction_rows, 0);
        assert_eq!(st.levels, 2, "base level + the freshly appended one");
        assert!(st.rows_sorted + st.rows_merged < n, "commit cost must be O(K), not O(N)");
    }

    #[test]
    fn commit_cost_is_proportional_to_delta() {
        // The ISSUE acceptance shape: a large base, a tiny delta — the
        // commit's row accounting must scale with the delta alone.
        let base = bulk(100_000);
        let n = base.len();
        let mut w = StoreWriter::from_snapshot(Arc::clone(&base));
        for i in 0..100 {
            w.insert_terms(&term("delta"), &term("p"), &term(&format!("d{i}")));
        }
        let snap = w.commit_with(Parallelism::sequential());
        assert_eq!(snap.len(), n + 100);
        let st = w.last_commit();
        assert_eq!(st.delta_inserts, 100);
        assert_eq!(st.rows_sorted, 3 * 100);
        assert_eq!(st.rows_merged, 3 * 100);
        assert!(
            st.rows_sorted + st.rows_merged + st.compaction_rows <= 10 * 100,
            "O(K) commit: touched {} rows for a 100-row delta over a {n}-row base",
            st.rows_sorted + st.rows_merged + st.compaction_rows,
        );
    }

    #[test]
    fn inline_compaction_caps_level_stack() {
        let mut w = StoreWriter::new();
        w.insert_terms(&term("seed"), &term("p"), &term("o"));
        w.commit_with(Parallelism::sequential());
        let mut compacted_once = false;
        for i in 0..2 * INLINE_COMPACT_LEVELS {
            w.insert_terms(&term(&format!("s{i}")), &term("p"), &term(&format!("o{i}")));
            w.commit_with(Parallelism::sequential());
            let st = w.last_commit();
            assert!(st.levels <= INLINE_COMPACT_LEVELS, "stack depth stays capped");
            if st.compaction_rows > 0 {
                compacted_once = true;
                assert_eq!(st.levels, 1, "inline compaction collapses to one level");
            }
        }
        assert!(compacted_once, "enough commits must trigger the inline cap");
        let snap = w.snapshot();
        assert_eq!(snap.len(), 1 + 2 * INLINE_COMPACT_LEVELS);
        assert_eq!(snap.count_pattern(None, None, None), snap.len());
    }

    #[test]
    fn commit_equals_bulk_rebuild() {
        let base = bulk(500);
        let mut w = StoreWriter::from_snapshot(Arc::clone(&base));
        w.insert_terms(&term("x"), &term("p"), &term("y"));
        w.insert_terms(&term("s0"), &term("q"), &term("o1"));
        assert!(w.delete_terms(&term("s1"), &term("p"), &term("o1")));
        assert!(!w.delete_terms(&term("never-seen"), &term("p"), &term("o1")));
        let snap = w.commit_with(Parallelism::sequential());

        // Rebuild the surviving set from scratch and compare everything.
        let mut rebuilt = StoreWriter::new();
        for t in snap.iter() {
            let d = snap.dictionary();
            rebuilt.insert_terms(
                d.decode(t.subject).unwrap(),
                d.decode(t.predicate).unwrap(),
                d.decode(t.object).unwrap(),
            );
        }
        let fresh = rebuilt.commit_with(Parallelism::sequential());
        assert_eq!(fresh.len(), snap.len());
        let decode_all = |s: &Snapshot| {
            s.iter()
                .map(|t| {
                    let d = s.dictionary();
                    (
                        d.decode(t.subject).unwrap().clone(),
                        d.decode(t.predicate).unwrap().clone(),
                        d.decode(t.object).unwrap().clone(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let mut a = decode_all(&snap);
        let mut b = decode_all(&fresh);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(snap.stats().triples, fresh.stats().triples);
        assert_eq!(snap.stats().entities, fresh.stats().entities);
        assert_eq!(snap.stats().predicates, fresh.stats().predicates);
    }

    #[test]
    fn readers_keep_their_snapshot_across_commits() {
        let base = bulk(100);
        let reader = Arc::clone(&base);
        let before: Vec<Triple> = reader.iter().collect();
        let mut w = StoreWriter::from_snapshot(base);
        w.insert_terms(&term("brand"), &term("new"), &term("triple"));
        let after = w.commit_with(Parallelism::sequential());
        assert_eq!(reader.iter().collect::<Vec<_>>(), before, "reader view unchanged");
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(after.epoch(), reader.epoch() + 1);
    }

    #[test]
    fn empty_commit_keeps_epoch_and_identity() {
        let base = bulk(10);
        let mut w = StoreWriter::from_snapshot(Arc::clone(&base));
        let same = w.commit_with(Parallelism::sequential());
        assert!(Arc::ptr_eq(&base, &same));
        assert_eq!(same.epoch(), base.epoch());
    }

    #[test]
    fn insert_then_delete_cancels_and_vice_versa() {
        let base = bulk(10);
        let mut w = StoreWriter::from_snapshot(Arc::clone(&base));
        // Insert then delete in the same delta: absent.
        w.insert_terms(&term("t"), &term("p"), &term("u"));
        assert!(w.delete_terms(&term("t"), &term("p"), &term("u")));
        // Delete then re-insert an existing triple: present.
        assert!(w.delete_terms(&term("s0"), &term("p"), &term("o0")));
        w.insert_terms(&term("s0"), &term("p"), &term("o0"));
        let snap = w.commit_with(Parallelism::sequential());
        let d = snap.dictionary();
        let id = |t: &Term| d.lookup(t);
        assert_eq!(
            snap.count_pattern(id(&term("t")), id(&term("p")), id(&term("u"))),
            0,
            "insert+delete cancelled"
        );
        assert_eq!(snap.count_pattern(id(&term("s0")), id(&term("p")), id(&term("o0"))), 1);
        assert_eq!(snap.len(), base.len());
    }

    #[test]
    fn dictionary_reuse_is_reported() {
        let base = bulk(10);
        let mut w = StoreWriter::from_snapshot(Arc::clone(&base));
        // Only known terms: the dictionary allocation is shared.
        assert!(w.delete_terms(&term("s0"), &term("p"), &term("o0")));
        let snap = w.commit_with(Parallelism::sequential());
        assert!(w.last_commit().dict_reused);
        assert!(Arc::ptr_eq(snap.dict_arc(), base.dict_arc()));
        // A new term forces a copy-on-write clone.
        w.insert_terms(&term("unseen"), &term("p"), &term("o0"));
        let snap2 = w.commit_with(Parallelism::sequential());
        assert!(!w.last_commit().dict_reused);
        assert!(snap2.dictionary().lookup(&term("unseen")).is_some());
        assert!(base.dictionary().lookup(&term("unseen")).is_none(), "base dict untouched");
    }

    #[test]
    fn parallel_commit_matches_sequential() {
        let base = bulk(3_000);
        let apply = |par: Parallelism| {
            let mut w = StoreWriter::from_snapshot(Arc::clone(&base));
            for i in 0..40 {
                w.insert_terms(&term(&format!("n{i}")), &term("p2"), &term(&format!("m{i}")));
            }
            for i in 0..20 {
                w.delete_terms(&term(&format!("s{}", i % 97)), &term("p"), &term(&format!("o{i}")));
            }
            w.commit_with(par)
        };
        let seq = apply(Parallelism::sequential());
        for threads in [2, 4, 8] {
            let par = apply(Parallelism::new(threads));
            assert_eq!(par.len(), seq.len(), "threads={threads}");
            assert!(seq.iter().eq(par.iter()), "threads={threads}");
            assert_eq!(par.epoch(), seq.epoch());
            assert_eq!(par.stats().triples, seq.stats().triples);
            assert_eq!(par.stats().entities, seq.stats().entities);
        }
    }

    #[test]
    fn commit_onto_compacted_empty_base_takes_a_fresh_run_id() {
        let mut w = StoreWriter::new();
        w.insert_terms(&term("a"), &term("p"), &term("b"));
        w.commit_with(Parallelism::sequential());
        assert!(w.delete_terms(&term("a"), &term("p"), &term("b")));
        let emptied = w.commit_with(Parallelism::sequential());
        let compacted = Arc::new(emptied.compact_with(Parallelism::sequential()).unwrap());
        assert_eq!((compacted.level_count(), compacted.next_run_id), (0, 2));
        assert!(w.install_compacted(compacted));
        w.insert_terms(&term("c"), &term("p"), &term("d"));
        let snap = w.commit_with(Parallelism::sequential());
        // Runs 0 and 1 may already name files on disk: the level-less base
        // must not hand their ids out again.
        assert_eq!(snap.levels.iter().map(|l| l.id).collect::<Vec<_>>(), [2]);
        assert_eq!((snap.next_run_id, snap.len(), snap.epoch()), (3, 1, 3));
    }

    #[test]
    fn streaming_loaders_buffer_statements() {
        let mut w = StoreWriter::new();
        let n = w
            .load_ntriples("<http://a> <http://p> <http://b> .\n<http://a> <http://p> \"x\" .\n")
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(w.pending_inserts(), 2);
        let snap = w.commit_with(Parallelism::sequential());
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn rebuild_after_more_inserts() {
        let mut w = StoreWriter::new();
        w.load_ntriples("<http://a> <http://knows> <http://b> .\n").unwrap();
        let before = w.commit();
        w.insert_terms(&term("c"), &term("knows"), &term("a"));
        let after = w.commit();
        let knows = after.dictionary().lookup(&term("knows"));
        assert_eq!(after.count_pattern(None, knows, None), 2);
        assert_eq!(after.epoch(), before.epoch() + 1, "a commit bumps the epoch");
    }

    #[test]
    fn failed_load_is_atomic() {
        let mut w = StoreWriter::new();
        w.load_ntriples("<http://a> <http://p> <http://b> .\n").unwrap();
        let dict_len = w.dictionary().len();
        let bad = "<http://ex/new1> <http://ex/p> <http://ex/new2> .\nbroken line\n";
        assert!(w.load_ntriples(bad).is_err());
        assert_eq!(w.pending_inserts(), 1, "no partial statements buffered");
        assert_eq!(w.dictionary().len(), dict_len, "no partial terms encoded");
        assert!(w.load_turtle("@prefix ex: <http://ex/> .\nex:a ex:p [ broken").is_err());
        assert_eq!(w.dictionary().len(), dict_len);
        assert_eq!(w.commit().len(), 1);
    }
}
