//! The immutable, shareable [`Snapshot`]: one MVCC version of the dataset.
//!
//! A snapshot is a bounded stack of **tiered sorted runs**
//! (levels): each commit appends one small level holding only its own
//! adds and tombstones (O(K) for a K-row delta), and reads resolve a
//! pattern by k-way merging the per-level ranges
//! ([`uo_par::merge_tiers`]). Levels are immutable and `Arc`-shared, so a
//! new snapshot reuses every existing level by reference — readers that
//! clone the `Arc<Snapshot>` keep answering from their version no matter
//! how many commits land afterwards; no locks on the read path.
//!
//! Runs live in memory (sorted `Vec`s) or in paged v3 files
//! (lazily-paged disk sections), loaded page by page — a store larger than
//! RAM serves queries cold. [`Snapshot::compact_with`] folds the whole
//! stack into a single level; the server's maintenance thread runs it in
//! the background when the stack exceeds a fan-in threshold, and the
//! writer compacts inline at a hard cap so the stack stays bounded.
//!
//! New snapshots come from three places:
//!
//! - [`Snapshot::build_from`] — a bulk build (sort + dedup + derive), used
//!   for initial loads;
//! - [`StoreWriter::commit`](crate::StoreWriter::commit) — appends one
//!   level per commit;
//! - [`Snapshot::compact_with`] — same content, same epoch, one level.

use crate::index::{IndexKind, MatchSet};
use crate::paged::{PageCacheSnapshot, PageCacheStats};
use crate::runs::{Level, RowsRef, RunData};
use crate::stats::DatasetStats;
use crate::SnapshotError;
use std::sync::Arc;
use uo_par::Parallelism;
use uo_rdf::{Dictionary, Id, Triple};

/// Commits compact inline once the level stack reaches this depth, keeping
/// read amplification bounded even without a background compactor. The
/// threshold is deterministic in the commit sequence (never load- or
/// thread-dependent), preserving bit-identical outcomes across worker
/// counts.
pub(crate) const INLINE_COMPACT_LEVELS: usize = 32;

/// Occupancy of the tiered run stack, for `/metrics` and the CLI.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// Levels in the stack (1 after a bulk build or compaction).
    pub levels: usize,
    /// Non-empty sorted runs across all levels and permutations.
    pub runs: usize,
    /// Rows resident in memory, summed over runs (adds + tombstones).
    pub mem_rows: usize,
    /// Rows resident in paged files, summed over runs.
    pub disk_rows: usize,
    /// Tombstone rows awaiting compaction (per permutation).
    pub tombstones: usize,
}

impl TierStats {
    /// Approximate bytes of memory-resident index rows (each row is one
    /// `[Id; 3]`; dictionary and per-run bookkeeping not included).
    pub fn mem_bytes(&self) -> u64 {
        (self.mem_rows as u64) * (std::mem::size_of::<[uo_rdf::Id; 3]>() as u64)
    }

    /// Approximate bytes of disk-resident index rows (row payload only;
    /// paged-file headers and page tables not included).
    pub fn disk_bytes(&self) -> u64 {
        (self.disk_rows as u64) * (std::mem::size_of::<[uo_rdf::Id; 3]>() as u64)
    }
}

/// An immutable, fully-indexed version of the dataset. See the module docs.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) dict: Arc<Dictionary>,
    pub(crate) epoch: u64,
    pub(crate) levels: Vec<Arc<Level>>,
    pub(crate) len: usize,
    pub(crate) next_run_id: u64,
    pub(crate) stats: DatasetStats,
}

impl Snapshot {
    /// The empty snapshot at epoch 0.
    pub fn empty() -> Snapshot {
        Snapshot {
            dict: Arc::new(Dictionary::new()),
            epoch: 0,
            levels: Vec::new(),
            len: 0,
            next_run_id: 0,
            stats: DatasetStats::default(),
        }
    }

    /// Bulk-builds a snapshot from unsorted SPO rows: parallel sort + dedup,
    /// then the POS index, the OSP index and the statistics are derived
    /// concurrently. The result is a single level with no tombstones. Every
    /// id in `spo` must be valid in `dict`.
    pub fn build_from(
        dict: Arc<Dictionary>,
        mut spo: Vec<[Id; 3]>,
        epoch: u64,
        par: Parallelism,
    ) -> Snapshot {
        uo_par::sort_unstable(par, &mut spo);
        spo.dedup();
        Snapshot::from_sorted_spo(dict, spo, epoch, 0, par)
    }

    /// The single-level builder behind [`build_from`](Self::build_from) and
    /// a commit onto a level-less base: derives the POS index, the OSP index
    /// and the statistics from a sorted, deduplicated SPO run (the three
    /// jobs run concurrently) and stores them as one level with run id
    /// `run_id`. An empty run yields no level, and `run_id` stays the next
    /// id to assign.
    pub(crate) fn from_sorted_spo(
        dict: Arc<Dictionary>,
        spo: Vec<[Id; 3]>,
        epoch: u64,
        run_id: u64,
        par: Parallelism,
    ) -> Snapshot {
        let permute = |kind: IndexKind| {
            let mut v: Vec<[Id; 3]> = spo.iter().map(|&t| kind.from_spo(t)).collect();
            v.sort_unstable();
            v
        };
        let (pos, osp, stats) = uo_par::join3(
            par,
            || permute(IndexKind::Pos),
            || permute(IndexKind::Osp),
            || DatasetStats::compute(&dict, &spo),
        );
        let len = spo.len();
        let (levels, next_run_id) = if len == 0 {
            (Vec::new(), run_id)
        } else {
            (
                vec![Arc::new(Level::from_sorted(run_id, [spo, pos, osp], Default::default()))],
                run_id + 1,
            )
        };
        Snapshot { dict, epoch, levels, len, next_run_id, stats }
    }

    /// The term dictionary of this version.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// The shared dictionary handle (cheap to clone).
    pub fn dict_arc(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// This version's epoch. Epochs increase by one per commit; two
    /// snapshots of the same store with equal epochs hold identical data,
    /// which is what the serving layer's plan-cache invalidation keys on.
    /// Compaction rearranges levels without changing the epoch — the
    /// content is identical.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of triples in this version.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if this version holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dataset-wide statistics of this version.
    pub fn stats(&self) -> &DatasetStats {
        &self.stats
    }

    /// Depth of the tiered run stack.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Occupancy of the tiered run stack.
    pub fn tier_stats(&self) -> TierStats {
        let mut t = TierStats { levels: self.levels.len(), ..TierStats::default() };
        for lvl in &self.levels {
            t.tombstones += lvl.del_rows();
            for run in lvl.adds.iter().chain(lvl.dels.iter()) {
                if run.is_empty() {
                    continue;
                }
                t.runs += 1;
                match run {
                    RunData::Mem(v) => t.mem_rows += v.len(),
                    RunData::Disk(d) => t.disk_rows += d.len(),
                }
            }
        }
        t
    }

    /// Aggregated page-cache counters across every paged file this
    /// snapshot references, or `None` for a fully memory-resident
    /// snapshot.
    pub fn page_cache_stats(&self) -> Option<PageCacheSnapshot> {
        let mut seen: Vec<*const PageCacheStats> = Vec::new();
        let mut total = PageCacheSnapshot::default();
        for lvl in &self.levels {
            for run in lvl.adds.iter().chain(lvl.dels.iter()) {
                if let RunData::Disk(d) = run {
                    let ptr = Arc::as_ptr(d.cache_stats());
                    if !seen.contains(&ptr) {
                        seen.push(ptr);
                        total = total + d.cache_stats().snapshot();
                    }
                }
            }
        }
        if seen.is_empty() {
            None
        } else {
            Some(total)
        }
    }

    /// The pattern-to-index plan: which permutation serves a pattern and
    /// with what prefix.
    fn plan(s: Option<Id>, p: Option<Id>, o: Option<Id>) -> (IndexKind, [Id; 3], usize) {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => (IndexKind::Spo, [s, p, o], 3),
            (Some(s), Some(p), None) => (IndexKind::Spo, [s, p, 0], 2),
            (Some(s), None, Some(o)) => (IndexKind::Osp, [o, s, 0], 2),
            (Some(s), None, None) => (IndexKind::Spo, [s, 0, 0], 1),
            (None, Some(p), Some(o)) => (IndexKind::Pos, [p, o, 0], 2),
            (None, Some(p), None) => (IndexKind::Pos, [p, 0, 0], 1),
            (None, None, Some(o)) => (IndexKind::Osp, [o, 0, 0], 1),
            (None, None, None) => (IndexKind::Spo, [0, 0, 0], 0),
        }
    }

    /// Per-level half-open ranges matching `prefix` in permutation `kind`,
    /// keeping only levels whose add or tombstone range is non-empty.
    #[allow(clippy::type_complexity)]
    fn level_ranges(
        &self,
        kind: IndexKind,
        prefix: &[Id],
    ) -> Result<Vec<(&Level, (usize, usize), (usize, usize))>, SnapshotError> {
        let slot = kind.slot();
        let mut hits = Vec::new();
        for lvl in &self.levels {
            let ab = lvl.adds[slot].bounds(prefix)?;
            let db = lvl.dels[slot].bounds(prefix)?;
            if ab.0 < ab.1 || db.0 < db.1 {
                hits.push((lvl.as_ref(), ab, db));
            }
        }
        Ok(hits)
    }

    /// Looks up all triples matching the pattern, where `None` components
    /// are wildcards. Returns a sorted run of one permutation index —
    /// zero-copy when a single in-memory level covers the range, an owned
    /// k-way merge otherwise.
    ///
    /// Panics on storage-layer corruption (an unreadable or CRC-failing
    /// page of a disk-backed snapshot); use
    /// [`try_match_pattern`](Self::try_match_pattern) to handle that case.
    pub fn match_pattern(&self, s: Option<Id>, p: Option<Id>, o: Option<Id>) -> MatchSet<'_> {
        self.try_match_pattern(s, p, o).expect("storage error while reading pattern")
    }

    /// Fallible form of [`match_pattern`](Self::match_pattern): surfaces
    /// page CRC mismatches and I/O failures of disk-backed runs as a clean
    /// [`SnapshotError`] instead of panicking.
    pub fn try_match_pattern(
        &self,
        s: Option<Id>,
        p: Option<Id>,
        o: Option<Id>,
    ) -> Result<MatchSet<'_>, SnapshotError> {
        let (kind, prefix, plen) = Self::plan(s, p, o);
        let prefix = &prefix[..plen];
        // Single-level snapshots (bulk builds, freshly compacted stores) are
        // the common case on the hot BGP-scan path: answer without the
        // per-level range collection, which heap-allocates.
        if let [lvl] = self.levels.as_slice() {
            let slot = kind.slot();
            let (dlo, dhi) = lvl.dels[slot].bounds(prefix)?;
            if dlo == dhi {
                let (lo, hi) = lvl.adds[slot].bounds(prefix)?;
                return match &lvl.adds[slot] {
                    _ if lo == hi => Ok(MatchSet::borrowed(&[], kind)),
                    RunData::Mem(v) => Ok(MatchSet::borrowed(&v[lo..hi], kind)),
                    RunData::Disk(d) => Ok(MatchSet::owned(d.read_range(lo, hi)?, kind)),
                };
            }
        }
        let hits = self.level_ranges(kind, prefix)?;
        match hits.len() {
            0 => Ok(MatchSet::borrowed(&[], kind)),
            1 => {
                // A single level intersects the range. Commit normalization
                // means its tombstones can only shadow rows added by lower
                // levels — which would intersect too — so the range has no
                // tombstones and the add run answers verbatim.
                let (lvl, (lo, hi), (dlo, dhi)) = hits[0];
                debug_assert_eq!(dlo, dhi, "single-level range cannot carry tombstones");
                match &lvl.adds[kind.slot()] {
                    RunData::Mem(v) => Ok(MatchSet::borrowed(&v[lo..hi], kind)),
                    RunData::Disk(d) => Ok(MatchSet::owned(d.read_range(lo, hi)?, kind)),
                }
            }
            _ => {
                let slot = kind.slot();
                let mut adds: Vec<RowsRef<'_>> = Vec::with_capacity(hits.len());
                let mut dels: Vec<RowsRef<'_>> = Vec::new();
                for (lvl, (alo, ahi), (dlo, dhi)) in &hits {
                    if alo < ahi {
                        adds.push(lvl.adds[slot].range(*alo, *ahi)?);
                    }
                    if dlo < dhi {
                        dels.push(lvl.dels[slot].range(*dlo, *dhi)?);
                    }
                }
                let add_refs: Vec<&[[Id; 3]]> = adds.iter().map(|r| r.as_slice()).collect();
                let del_refs: Vec<&[[Id; 3]]> = dels.iter().map(|r| r.as_slice()).collect();
                Ok(MatchSet::owned(uo_par::merge_tiers(&add_refs, &del_refs), kind))
            }
        }
    }

    /// Exact number of triples matching the pattern: per level, the add
    /// range minus the tombstone range, summed — O(levels · log n) binary
    /// searches, no row materialization. Panics on storage corruption;
    /// see [`try_count_pattern`](Self::try_count_pattern).
    pub fn count_pattern(&self, s: Option<Id>, p: Option<Id>, o: Option<Id>) -> usize {
        self.try_count_pattern(s, p, o).expect("storage error while counting pattern")
    }

    /// Fallible form of [`count_pattern`](Self::count_pattern).
    pub fn try_count_pattern(
        &self,
        s: Option<Id>,
        p: Option<Id>,
        o: Option<Id>,
    ) -> Result<usize, SnapshotError> {
        let (kind, prefix, plen) = Self::plan(s, p, o);
        let prefix = &prefix[..plen];
        if let [lvl] = self.levels.as_slice() {
            let slot = kind.slot();
            let (alo, ahi) = lvl.adds[slot].bounds(prefix)?;
            let (dlo, dhi) = lvl.dels[slot].bounds(prefix)?;
            return Ok((ahi - alo).saturating_sub(dhi - dlo));
        }
        let hits = self.level_ranges(kind, prefix)?;
        let mut n = 0i64;
        for (_, (alo, ahi), (dlo, dhi)) in hits {
            n += (ahi - alo) as i64 - (dhi - dlo) as i64;
        }
        debug_assert!(n >= 0, "tombstones cannot outnumber adds in a range");
        Ok(n.max(0) as usize)
    }

    /// Returns `true` if the fully-bound triple is in this version.
    pub fn contains(&self, t: Triple) -> bool {
        self.count_pattern(Some(t.subject), Some(t.predicate), Some(t.object)) > 0
    }

    /// The objects of all triples `(s, p, ·)`, in sorted order.
    pub fn objects(&self, s: Id, p: Id) -> impl Iterator<Item = Id> + '_ {
        self.match_pattern(Some(s), Some(p), None).into_rows().into_iter().map(|r| r[2])
    }

    /// The subjects of all triples `(·, p, o)`, in sorted order.
    pub fn subjects(&self, p: Id, o: Id) -> impl Iterator<Item = Id> + '_ {
        self.match_pattern(None, Some(p), Some(o)).into_rows().into_iter().map(|r| r[2])
    }

    /// Iterates over every triple in SPO order (materializes the merged
    /// view once).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.match_pattern(None, None, None).into_rows().into_iter().map(Triple::from)
    }

    /// Folds the whole level stack into a single memory-resident level:
    /// same content, same epoch, zero tombstones. The merge resolves adds
    /// against tombstones by occurrence counting, so the result depends
    /// only on the content — not on worker count or level enumeration
    /// order — preserving the determinism contract. Disk-backed runs are
    /// materialized; fails cleanly if one is unreadable.
    pub fn compact_with(&self, par: Parallelism) -> Result<Snapshot, SnapshotError> {
        if self.levels.len() <= 1 && self.levels.iter().all(|l| l.del_rows() == 0 && !l.is_disk()) {
            return Ok(self.clone());
        }
        let gather = |slot: usize| -> Result<Vec<[Id; 3]>, SnapshotError> {
            let mut adds: Vec<RowsRef<'_>> = Vec::with_capacity(self.levels.len());
            let mut dels: Vec<RowsRef<'_>> = Vec::new();
            for lvl in &self.levels {
                if !lvl.adds[slot].is_empty() {
                    adds.push(lvl.adds[slot].rows()?);
                }
                if !lvl.dels[slot].is_empty() {
                    dels.push(lvl.dels[slot].rows()?);
                }
            }
            let add_refs: Vec<&[[Id; 3]]> = adds.iter().map(|r| r.as_slice()).collect();
            let del_refs: Vec<&[[Id; 3]]> = dels.iter().map(|r| r.as_slice()).collect();
            Ok(uo_par::merge_tiers(&add_refs, &del_refs))
        };
        let (spo, pos, osp) = uo_par::join3(par, || gather(0), || gather(1), || gather(2));
        let (spo, pos, osp) = (spo?, pos?, osp?);
        debug_assert_eq!(spo.len(), self.len, "compaction must preserve the live row count");
        let (levels, next_run_id) = if spo.is_empty() {
            (Vec::new(), self.next_run_id)
        } else {
            (
                vec![Arc::new(Level::from_sorted(
                    self.next_run_id,
                    [spo, pos, osp],
                    Default::default(),
                ))],
                self.next_run_id + 1,
            )
        };
        Ok(Snapshot {
            dict: Arc::clone(&self.dict),
            epoch: self.epoch,
            levels,
            len: self.len,
            next_run_id,
            stats: self.stats.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreWriter;
    use uo_rdf::Term;

    /// Six statements, one of them a duplicate, loaded through a writer.
    fn small_store() -> Arc<Snapshot> {
        let mut w = StoreWriter::new();
        let doc = r#"
<http://ex/a> <http://ex/knows> <http://ex/b> .
<http://ex/a> <http://ex/knows> <http://ex/c> .
<http://ex/b> <http://ex/knows> <http://ex/c> .
<http://ex/a> <http://ex/name> "Alice" .
<http://ex/b> <http://ex/name> "Bob"@en .
<http://ex/a> <http://ex/knows> <http://ex/b> .
"#;
        w.load_ntriples(doc).unwrap();
        w.commit()
    }

    fn id(st: &Snapshot, t: &Term) -> Id {
        st.dictionary().lookup(t).unwrap()
    }

    fn sample() -> Snapshot {
        let mut dict = Dictionary::new();
        let a = dict.encode(&Term::iri("http://a"));
        let b = dict.encode(&Term::iri("http://b"));
        let p = dict.encode(&Term::iri("http://p"));
        let q = dict.encode(&Term::iri("http://q"));
        let spo = vec![[a, p, b], [b, p, a], [a, q, a], [a, p, b]];
        Snapshot::build_from(Arc::new(dict), spo, 7, Parallelism::sequential())
    }

    #[test]
    fn build_from_sorts_and_dedups() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.epoch(), 7);
        assert_eq!(s.level_count(), 1);
        let rows: Vec<[Id; 3]> = s.iter().map(|t| t.as_array()).collect();
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
    }

    #[test]
    fn empty_snapshot_is_epoch_zero() {
        let s = Snapshot::empty();
        assert_eq!(s.epoch(), 0);
        assert!(s.is_empty());
        assert_eq!(s.level_count(), 0);
        assert_eq!(s.count_pattern(None, None, None), 0);
        assert!(s.page_cache_stats().is_none());
    }

    #[test]
    fn pattern_shapes_answer_from_permutations() {
        let s = sample();
        let a = s.dictionary().lookup(&Term::iri("http://a")).unwrap();
        let p = s.dictionary().lookup(&Term::iri("http://p")).unwrap();
        assert_eq!(s.count_pattern(Some(a), None, None), 2);
        assert_eq!(s.count_pattern(None, Some(p), None), 2);
        assert_eq!(s.count_pattern(None, None, Some(a)), 2);
        assert_eq!(s.objects(a, p).count(), 1);
        assert_eq!(s.subjects(p, a).count(), 1);
    }

    #[test]
    fn compaction_preserves_content_and_epoch() {
        let s = sample();
        let c = s.compact_with(Parallelism::sequential()).unwrap();
        assert_eq!(c.epoch(), s.epoch());
        assert_eq!(c.len(), s.len());
        assert_eq!(c.level_count(), 1);
        assert!(s.iter().eq(c.iter()));
        assert_eq!(c.tier_stats().tombstones, 0);
    }

    #[test]
    fn tier_stats_reflect_single_level() {
        let s = sample();
        let t = s.tier_stats();
        assert_eq!(t.levels, 1);
        assert_eq!(t.runs, 3, "three add permutations, no tombstones");
        assert_eq!(t.mem_rows, 3 * s.len());
        assert_eq!(t.disk_rows, 0);
    }

    #[test]
    fn duplicates_removed_at_build() {
        let st = small_store();
        assert_eq!(st.len(), 5); // 6 statements, one duplicate
    }

    #[test]
    fn all_eight_pattern_shapes() {
        let st = small_store();
        let a = id(&st, &Term::iri("http://ex/a"));
        let b = id(&st, &Term::iri("http://ex/b"));
        let knows = id(&st, &Term::iri("http://ex/knows"));
        assert_eq!(st.count_pattern(Some(a), Some(knows), Some(b)), 1); // spo
        assert_eq!(st.count_pattern(Some(a), Some(knows), None), 2); // sp-
        assert_eq!(st.count_pattern(Some(a), None, Some(b)), 1); // s-o
        assert_eq!(st.count_pattern(Some(a), None, None), 3); // s--
        assert_eq!(st.count_pattern(None, Some(knows), Some(b)), 1); // -po
        assert_eq!(st.count_pattern(None, Some(knows), None), 3); // -p-
        assert_eq!(st.count_pattern(None, None, Some(b)), 1); // --o
        assert_eq!(st.count_pattern(None, None, None), 5); // ---
    }

    #[test]
    fn match_sets_restore_spo_component_order() {
        let st = small_store();
        let knows = id(&st, &Term::iri("http://ex/knows"));
        for spo in st.match_pattern(None, Some(knows), None).iter_spo() {
            assert_eq!(spo[1], knows);
        }
    }

    #[test]
    fn objects_and_subjects_helpers() {
        let st = small_store();
        let a = id(&st, &Term::iri("http://ex/a"));
        let c = id(&st, &Term::iri("http://ex/c"));
        let knows = id(&st, &Term::iri("http://ex/knows"));
        assert_eq!(st.objects(a, knows).count(), 2);
        let subs: Vec<Id> = st.subjects(knows, c).collect();
        assert_eq!(subs.len(), 2);
        assert!(subs.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn contains_checks_membership() {
        let st = small_store();
        let a = id(&st, &Term::iri("http://ex/a"));
        let b = id(&st, &Term::iri("http://ex/b"));
        let knows = id(&st, &Term::iri("http://ex/knows"));
        assert!(st.contains(Triple::new(a, knows, b)));
        assert!(!st.contains(Triple::new(b, knows, a)));
    }

    #[test]
    fn empty_store_answers_zero() {
        let st = StoreWriter::new().commit();
        assert_eq!(st.count_pattern(None, None, None), 0);
        assert!(st.is_empty());
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let mut dict = Dictionary::new();
        let mut spo = Vec::new();
        for i in 0..500 {
            let mut enc = |t: String| dict.encode(&Term::iri(t));
            spo.push([
                enc(format!("http://e/{}", i % 89)),
                enc(format!("http://p/{}", i % 7)),
                enc(format!("http://e/{}", (i * 31) % 97)),
            ]);
        }
        let dict = Arc::new(dict);
        let build = |par| Snapshot::build_from(Arc::clone(&dict), spo.clone(), 1, par);
        let seq = build(Parallelism::sequential());
        for threads in [2, 4, 8] {
            let par = build(Parallelism::new(threads));
            assert_eq!(par.len(), seq.len(), "threads={threads}");
            assert!(seq.iter().eq(par.iter()), "threads={threads}");
            assert_eq!(par.stats().triples, seq.stats().triples);
            assert_eq!(par.stats().entities, seq.stats().entities);
            assert_eq!(par.stats().predicates, seq.stats().predicates);
            // Spot-check a non-SPO permutation range.
            let p0 = par.dictionary().lookup(&Term::iri("http://p/0")).unwrap();
            assert_eq!(
                par.match_pattern(None, Some(p0), None).rows(),
                seq.match_pattern(None, Some(p0), None).rows()
            );
        }
    }
}
