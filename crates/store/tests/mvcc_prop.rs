//! Property-based tests of the MVCC writer: any interleaving of inserts,
//! deletes, commits and compactions must land on a snapshot identical —
//! row-for-row, in every permutation index, with identical statistics — to
//! a from-scratch bulk build of the surviving triple set, at 1, 2 and 4
//! workers.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use uo_par::Parallelism;
use uo_rdf::{Dictionary, Id, Term, Triple};
use uo_store::{Snapshot, StoreWriter};

const MAX_ID: u32 = 9;

#[derive(Debug, Clone)]
enum Op {
    Insert([Id; 3]),
    Delete([Id; 3]),
    Commit,
    Compact,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Weighted op choice without prop_oneof (vendored subset): 0..4 insert,
    // 4..6 delete, 6 commit, 7 compact.
    let op =
        (0u8..8, (1u32..MAX_ID, 1u32..5, 1u32..MAX_ID)).prop_map(|(kind, (s, p, o))| match kind {
            0..=3 => Op::Insert([s, p, o]),
            4..=5 => Op::Delete([s, p, o]),
            6 => Op::Commit,
            _ => Op::Compact,
        });
    prop::collection::vec(op, 0..80)
}

/// An empty built store whose dictionary knows ids `1..MAX_ID` (IRIs), so
/// raw-id triples are valid in both the writer and the bulk rebuild.
fn seeded() -> Arc<Snapshot> {
    let mut dict = Dictionary::new();
    for i in 0..MAX_ID {
        dict.encode(&Term::iri(format!("http://t{i}")));
    }
    Arc::new(Snapshot::build_from(Arc::new(dict), Vec::new(), 1, Parallelism::from_env()))
}

/// Applies the interleaving through the writer (committing whenever the ops
/// say so, plus once at the end) and in a model set, then compares the
/// final snapshot against a bulk build of the model.
fn check(ops: &[Op], workers: usize) -> Result<(), TestCaseError> {
    let par = Parallelism::new(workers);
    let base = seeded();
    let mut writer = StoreWriter::from_snapshot(Arc::clone(&base));
    let mut model: BTreeSet<[Id; 3]> = BTreeSet::new();
    for op in ops {
        match op {
            Op::Insert(t) => {
                writer.insert(Triple::from(*t));
                model.insert(*t);
            }
            Op::Delete(t) => {
                writer.delete(Triple::from(*t));
                model.remove(t);
            }
            Op::Commit => {
                writer.commit_with(par);
            }
            Op::Compact => {
                // Fold the level stack like the server's maintenance thread:
                // same epoch, same content, one level.
                let compacted = writer.snapshot().compact_with(par).expect("in-memory compaction");
                prop_assert!(writer.install_compacted(Arc::new(compacted)));
            }
        }
    }
    let snap = writer.commit_with(par);

    let bulk = Snapshot::build_from(
        Arc::clone(base.dict_arc()),
        model.iter().copied().collect(),
        0,
        Parallelism::sequential(),
    );

    // Byte-identical iteration order (the SPO index)...
    let got: Vec<[Id; 3]> = snap.iter().map(|t| t.as_array()).collect();
    let want: Vec<[Id; 3]> = bulk.iter().map(|t| t.as_array()).collect();
    prop_assert_eq!(&got, &want, "workers={}", workers);

    // ... all 8 pattern shapes answer identically (rows, not just counts:
    // POS and OSP are exercised by the bound-component shapes) ...
    for s in [None, Some(1u32), Some(3)] {
        for p in [None, Some(1u32), Some(4)] {
            for o in [None, Some(2u32), Some(7)] {
                let a = snap.match_pattern(s, p, o);
                let b = bulk.match_pattern(s, p, o);
                prop_assert_eq!(a.kind, b.kind);
                prop_assert_eq!(a.rows(), b.rows(), "pattern ({:?},{:?},{:?})", s, p, o);
            }
        }
    }

    // ... and identical statistics.
    prop_assert_eq!(snap.stats().triples, bulk.stats().triples);
    prop_assert_eq!(snap.stats().entities, bulk.stats().entities);
    prop_assert_eq!(snap.stats().predicates, bulk.stats().predicates);
    prop_assert_eq!(snap.stats().literals, bulk.stats().literals);
    for p in 1..5u32 {
        let a =
            snap.stats().predicate(p).map(|x| (x.count, x.distinct_subjects, x.distinct_objects));
        let b =
            bulk.stats().predicate(p).map(|x| (x.count, x.distinct_subjects, x.distinct_objects));
        prop_assert_eq!(a, b, "predicate {}", p);
    }
    Ok(())
}

proptest! {
    #[test]
    fn interleavings_match_bulk_build(ops in arb_ops()) {
        for workers in [1usize, 2, 4] {
            check(&ops, workers)?;
        }
    }

    /// Epochs advance by exactly the number of non-empty commits, and the
    /// writer's base always equals its last published snapshot.
    #[test]
    fn epochs_are_monotonic(ops in arb_ops()) {
        let base = seeded();
        let mut writer = StoreWriter::from_snapshot(Arc::clone(&base));
        let mut last = writer.snapshot().epoch();
        for op in &ops {
            match op {
                Op::Insert(t) => writer.insert(Triple::from(*t)),
                Op::Delete(t) => writer.delete(Triple::from(*t)),
                Op::Commit => {
                    let snap = writer.commit_with(Parallelism::sequential());
                    prop_assert!(snap.epoch() >= last);
                    prop_assert!(snap.epoch() <= last + 1, "one commit, at most one epoch");
                    last = snap.epoch();
                }
                Op::Compact => {
                    let compacted = writer
                        .snapshot()
                        .compact_with(Parallelism::sequential())
                        .expect("in-memory compaction");
                    let epoch = compacted.epoch();
                    prop_assert!(writer.install_compacted(Arc::new(compacted)));
                    prop_assert_eq!(epoch, last, "compaction never changes the epoch");
                }
            }
        }
    }
}
