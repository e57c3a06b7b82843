//! Crash-recovery property test (ISSUE 5 acceptance): for **any** random
//! history of SPARQL updates journaled under `fsync=always`, cutting the
//! write-ahead log at an **arbitrary byte offset** (the literal effect of
//! `kill -9` or a power cut mid-write) and reopening must recover exactly
//! the state after the **longest durable prefix** of requests — the ones
//! whose records fully fit below the cut. Verified row-for-row, dictionary
//! term count and epoch included, at 1, 2 and 4 replay workers.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use uo_core::{open_durable, run_update, run_update_durable, Parallelism};
use uo_engine::WcoEngine;
use uo_sparql::parse_update;
use uo_store::{DurableOptions, Snapshot, StoreWriter};

const MAX_ID: u32 = 8;

/// One random update request over a tiny term universe.
#[derive(Debug, Clone)]
enum Req {
    /// INSERT DATA of (s, p, o) id triples.
    Insert(Vec<(u32, u32, u32)>),
    /// DELETE DATA of (s, p, o) id triples.
    Delete(Vec<(u32, u32, u32)>),
    /// DELETE WHERE { ?s <pN> ?o }.
    DeleteWherePredicate(u32),
}

fn iri(kind: &str, i: u32) -> String {
    format!("<http://{kind}{i}>")
}

impl Req {
    fn to_sparql(&self) -> String {
        match self {
            Req::Insert(ts) => {
                let body: Vec<String> = ts
                    .iter()
                    .map(|(s, p, o)| {
                        format!("{} {} {} .", iri("s", *s), iri("p", *p), iri("o", *o))
                    })
                    .collect();
                format!("INSERT DATA {{ {} }}", body.join("\n"))
            }
            Req::Delete(ts) => {
                let body: Vec<String> = ts
                    .iter()
                    .map(|(s, p, o)| {
                        format!("{} {} {} .", iri("s", *s), iri("p", *p), iri("o", *o))
                    })
                    .collect();
                format!("DELETE DATA {{ {} }}", body.join("\n"))
            }
            Req::DeleteWherePredicate(p) => {
                format!("DELETE WHERE {{ ?s {} ?o }}", iri("p", *p))
            }
        }
    }
}

fn arb_triple() -> impl Strategy<Value = (u32, u32, u32)> {
    (1u32..MAX_ID, 1u32..4, 1u32..MAX_ID)
}

fn arb_req() -> impl Strategy<Value = Req> {
    // Weighted without prop_oneof (vendored proptest subset): 0..5 insert,
    // 5..7 delete-data, 7 delete-where.
    (0u8..8, prop::collection::vec(arb_triple(), 1..6), 1u32..4).prop_map(
        |(kind, ts, p)| match kind {
            0..=4 => Req::Insert(ts),
            5..=6 => Req::Delete(ts),
            _ => Req::DeleteWherePredicate(p),
        },
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "uo_durable_prop_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// All rows + dictionary size + epoch of a snapshot, for exact comparison.
fn fingerprint(snap: &Snapshot) -> (Vec<[u32; 3]>, usize, u64) {
    (snap.iter().map(|t| t.as_array()).collect(), snap.dictionary().len(), snap.epoch())
}

/// Applies the first `k` requests in memory — the oracle for "state after
/// the longest durable prefix".
fn oracle(reqs: &[Req], k: usize, workers: usize) -> (Vec<[u32; 3]>, usize, u64) {
    let engine = WcoEngine::with_threads(workers);
    let par = Parallelism::new(workers);
    let mut writer = StoreWriter::new();
    for req in &reqs[..k] {
        let request = parse_update(&req.to_sparql()).unwrap();
        run_update(&mut writer, &engine, &request, par);
    }
    let snap = writer.snapshot();
    fingerprint(&snap)
}

/// The heart of the test: journal `reqs` with fsync=always, cut the log at
/// `cut_frac` of its bytes, reopen, and compare against the oracle for the
/// longest fully-journaled prefix.
fn check(reqs: &[Req], cut_frac: f64, workers: usize) -> Result<(), TestCaseError> {
    let engine = WcoEngine::with_threads(workers);
    let par = Parallelism::new(workers);
    let dir = temp_dir("cut");
    let opts = DurableOptions::default(); // fsync=always, one big segment

    // Apply every request durably, tracking the wal size after each — the
    // record boundaries that decide which prefix survives a cut.
    let mut bytes_after: Vec<u64> = Vec::new();
    {
        let mut ds = open_durable(&dir, opts, &engine, par).unwrap();
        for req in reqs {
            let request = parse_update(&req.to_sparql()).unwrap();
            run_update_durable(&mut ds, &engine, &request, par).unwrap();
            bytes_after.push(ds.wal_stats().bytes);
        }
    }

    // Cut the single segment file at an arbitrary byte offset.
    let wal_dir = dir.join("wal");
    let seg = std::fs::read_dir(&wal_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".log"))
        .expect("one wal segment")
        .path();
    let total = std::fs::metadata(&seg).unwrap().len();
    let cut = (total as f64 * cut_frac) as u64;
    std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(cut).unwrap();

    // The longest durable prefix: requests whose record end is <= cut.
    let k = bytes_after.iter().filter(|&&b| b <= cut).count();

    let ds = open_durable(&dir, opts, &engine, par).unwrap();
    let got = fingerprint(&ds.snapshot());
    let want = oracle(reqs, k, workers);
    prop_assert_eq!(
        got,
        want,
        "recovery after cutting {}/{} bytes must equal the first {} of {} requests (workers={})",
        cut,
        total,
        k,
        reqs.len(),
        workers
    );
    // Replay-exactness is also epoch-exactness: the recovered writer can
    // keep journaling (epochs strictly extend the recovered lineage).
    drop(ds);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn recovery_equals_longest_durable_prefix(
        reqs in prop::collection::vec(arb_req(), 1..12),
        cut_permille in 0u32..1000,
    ) {
        for workers in [1usize, 2, 4] {
            check(&reqs, cut_permille as f64 / 1000.0, workers)?;
        }
    }

    #[test]
    fn clean_shutdown_recovers_everything(
        reqs in prop::collection::vec(arb_req(), 1..10),
    ) {
        // cut_frac 1.0 = no cut: every request is durable.
        check(&reqs, 1.0, 1)?;
    }
}

/// A non-random pin of the acceptance wording: acknowledged commits under
/// fsync=always survive, the torn suffix does not, and an empty directory
/// degrades to the in-memory behavior.
#[test]
fn acknowledged_commits_survive_exact_cut() {
    let engine = WcoEngine::sequential();
    let par = Parallelism::sequential();
    let dir = temp_dir("pin");
    let reqs = [
        Req::Insert(vec![(1, 1, 2), (2, 1, 3)]),
        Req::Insert(vec![(3, 2, 4)]),
        Req::DeleteWherePredicate(1),
    ];
    let mut boundaries = Vec::new();
    {
        let mut ds = open_durable(&dir, DurableOptions::default(), &engine, par).unwrap();
        for req in &reqs {
            let request = parse_update(&req.to_sparql()).unwrap();
            run_update_durable(&mut ds, &engine, &request, par).unwrap();
            boundaries.push(ds.wal_stats().bytes);
        }
    }
    // Cut one byte into the final record: exactly two requests survive.
    let seg = std::fs::read_dir(dir.join("wal")).unwrap().next().unwrap().unwrap().path();
    std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(boundaries[1] + 1).unwrap();
    let ds = open_durable(&dir, DurableOptions::default(), &engine, par).unwrap();
    assert_eq!(ds.recovery().replayed_ops, 2);
    assert_eq!(fingerprint(&ds.snapshot()), oracle(&reqs, 2, 1));
    assert!(ds.recovery().truncated_bytes > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Replay goes through the writer's level-append path: recovery of K
/// journaled rows on top of an N-triple checkpoint sorts and merges O(K)
/// delta rows and never rewrites the N base rows — the tiered CommitStats
/// contract, holding across recovery.
#[test]
fn recovery_replay_takes_the_merge_path() {
    let engine = WcoEngine::sequential();
    let par = Parallelism::sequential();
    let dir = temp_dir("merge");
    let n = 4_000usize;
    {
        let mut st = uo_store::StoreWriter::new();
        let mut doc = String::new();
        for i in 0..n {
            doc.push_str(&format!(
                "<http://base/s{}> <http://base/p> <http://base/o{i}> .\n",
                i % 131
            ));
        }
        st.load_ntriples(&doc).unwrap();
        let mut ds = open_durable(&dir, DurableOptions::default(), &engine, par).unwrap();
        ds.seed(st.commit_with(par)).unwrap();
        for i in 0..5 {
            let request = parse_update(&format!(
                "INSERT DATA {{ <http://new/s{i}> <http://new/p> <http://new/o{i}> }}"
            ))
            .unwrap();
            run_update_durable(&mut ds, &engine, &request, par).unwrap();
        }
    }
    let ds = open_durable(&dir, DurableOptions::default(), &engine, par).unwrap();
    let r = ds.recovery();
    assert_eq!(r.replayed_ops, 5);
    // 5 single-triple commits: at most 3 permutations x 1 row each, per
    // commit — nothing anywhere near the base size.
    assert!(
        r.replay_rows_sorted <= 5 * 3,
        "replay sorted {} rows — it re-sorted the base instead of appending a level",
        r.replay_rows_sorted
    );
    assert!(
        r.replay_rows_merged <= 5 * 3,
        "replay merged {} rows — a commit appends one level, it must not rewrite the {} base rows",
        r.replay_rows_merged,
        n
    );
    assert_eq!(ds.snapshot().len(), n + 5);
    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrency knobs must not change what is recovered: the same mutilated
/// directory replays to the same snapshot at every worker count.
#[test]
fn recovery_is_deterministic_across_worker_counts() {
    let engine = WcoEngine::sequential();
    let par = Parallelism::sequential();
    let dir = temp_dir("workers");
    let reqs = [
        Req::Insert(vec![(1, 1, 2), (4, 2, 5), (3, 3, 1)]),
        Req::Delete(vec![(1, 1, 2)]),
        Req::Insert(vec![(6, 1, 7)]),
        Req::DeleteWherePredicate(2),
    ];
    {
        let mut ds = open_durable(&dir, DurableOptions::default(), &engine, par).unwrap();
        for req in &reqs {
            let request = parse_update(&req.to_sparql()).unwrap();
            run_update_durable(&mut ds, &engine, &request, par).unwrap();
        }
    }
    let mut prints = Vec::new();
    for workers in [1usize, 2, 4] {
        let w_engine = WcoEngine::with_threads(workers);
        let ds =
            open_durable(&dir, DurableOptions::default(), &w_engine, Parallelism::new(workers))
                .unwrap();
        prints.push(fingerprint(&ds.snapshot()));
    }
    assert_eq!(prints[0], prints[1]);
    assert_eq!(prints[1], prints[2]);
    std::fs::remove_dir_all(&dir).ok();
}
