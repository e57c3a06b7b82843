//! Cold-read correctness of the paged v3 store format.
//!
//! These tests exercise the disk-backed read path the way a restarted
//! process would see it: a snapshot is saved to a `.uost` file, dropped
//! from memory, and reopened **lazily** — triple pages are fetched on
//! demand through a bounded LRU cache. Three properties are pinned:
//!
//! - a page-cache budget far smaller than the dataset still serves every
//!   pattern correctly (the cache evicts, it never lies);
//! - a flipped byte in any data page surfaces as a clean per-page CRC
//!   error (`SnapshotError::Corrupt`), never as wrong rows or a panic;
//! - a cold store answers the whole conformance suite **byte-identically**
//!   to the warm in-memory store it was saved from, on both engines, at 1
//!   and 2 workers.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use uo_core::{run_query_with, Parallelism, RunReport, Strategy};
use uo_engine::{BgpEngine, BinaryJoinEngine, WcoEngine};
use uo_store::{PagedOptions, Snapshot, SnapshotError, StoreWriter};

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "uo_cold_store_{tag}_{}_{}.uost",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A store big enough to span many pages in every permutation index.
fn sample_store(triples: usize) -> Arc<Snapshot> {
    let mut doc = String::new();
    for i in 0..triples {
        doc.push_str(&format!(
            "<http://e/s{}> <http://p/p{}> <http://e/o{}> .\n",
            i % 97,
            i % 7,
            i
        ));
    }
    let mut st = StoreWriter::new();
    st.load_ntriples(&doc).unwrap();
    st.commit()
}

/// Every pattern family, answered by all three permutation indexes.
fn fingerprint(snap: &Snapshot) -> Vec<(usize, Vec<[u32; 3]>)> {
    let ids = snap.dictionary().len() as u32;
    let mut out = Vec::new();
    // Full scan (SPO), per-predicate scans (POS), per-object scans (OSP) —
    // probing every dictionary id touches every page of every permutation.
    out.push((
        snap.count_pattern(None, None, None),
        snap.match_pattern(None, None, None).into_rows(),
    ));
    for id in 1..=ids {
        let rows = snap.match_pattern(None, Some(id), None).into_rows();
        if !rows.is_empty() {
            out.push((snap.count_pattern(None, Some(id), None), rows));
        }
        let rows = snap.match_pattern(None, None, Some(id)).into_rows();
        if !rows.is_empty() {
            out.push((snap.count_pattern(None, None, Some(id)), rows));
        }
    }
    out
}

/// A few-page cache budget must evict constantly and still answer every
/// pattern exactly as the warm store does.
#[test]
fn tiny_page_cache_budget_stays_correct_and_evicts() {
    let warm = sample_store(6_000);
    let path = temp_path("tiny");
    uo_store::save_to_file(&warm, &path).unwrap();

    // Two pages' worth of budget for a ~200 KB dataset.
    let cold = uo_store::load_from_file_with(&path, PagedOptions { cache_bytes: 8 << 10 })
        .unwrap()
        .snapshot();
    let tiers = cold.tier_stats();
    assert!(tiers.disk_rows > 0, "reopened store must be disk-backed, got {tiers:?}");
    assert_eq!(tiers.mem_rows, 0, "nothing should be materialized eagerly");

    assert_eq!(fingerprint(&cold), fingerprint(&warm));

    let pc = cold.page_cache_stats().expect("disk-backed store has cache stats");
    assert!(pc.misses > 0, "cold reads must fetch pages, got {pc:?}");
    assert!(pc.evictions > 0, "an 8 KiB budget over a multi-page store must evict, got {pc:?}");
}

/// Scans that together touch every data page of the file, as results.
fn scan_all(snap: &Snapshot) -> Vec<Result<usize, SnapshotError>> {
    let ids = snap.dictionary().len() as u32;
    let mut out = Vec::new();
    out.push(snap.try_match_pattern(None, None, None).map(|m| m.into_rows().len()));
    for id in 1..=ids {
        out.push(snap.try_match_pattern(None, Some(id), None).map(|m| m.into_rows().len()));
        out.push(snap.try_match_pattern(None, None, Some(id)).map(|m| m.into_rows().len()));
    }
    out
}

/// Flipping one byte in **any** data page must surface as a clean
/// `Corrupt("page N: crc mismatch")` — at open time if the page holds the
/// eagerly-read dictionary, at first touch otherwise — never as silently
/// wrong rows and never as a panic.
#[test]
fn corrupt_page_is_a_clean_per_page_crc_error() {
    let warm = sample_store(2_000);
    let path = temp_path("corrupt");
    uo_store::save_to_file(&warm, &path).unwrap();
    let bytes = fs::read(&path).unwrap();

    // The 24-byte trailer locates the footer; every 4 KiB page before it
    // (except header page 0) is a data page.
    let trailer = &bytes[bytes.len() - 24..];
    let footer_off = u64::from_le_bytes(trailer[0..8].try_into().unwrap()) as usize;
    let n_pages = footer_off / 4096 - 1;
    assert!(n_pages >= 6, "expected a multi-page file, got {n_pages} data pages");

    let mut lazy_errors = 0usize;
    for page in 1..=n_pages {
        let mut mutated = bytes.clone();
        mutated[page * 4096] ^= 0x40;
        let mutated_path = temp_path("corrupt_mut");
        fs::write(&mutated_path, &mutated).unwrap();

        let msg = format!("page {page}: crc mismatch");
        match uo_store::load_from_file_with(&mutated_path, PagedOptions::default()) {
            // Dictionary pages are read (and so verified) eagerly at open.
            Err(SnapshotError::Corrupt(m)) => {
                assert!(m.contains(&msg), "open error '{m}' should name {msg}")
            }
            Err(other) => panic!("expected a Corrupt error, got {other}"),
            Ok(cold) => {
                let cold = cold.snapshot();
                // Row pages are only verified when first touched: some scan
                // must fail with the per-page error, and no scan may
                // return rows the warm store would not.
                let results = scan_all(&cold);
                let hit = results
                    .iter()
                    .any(|r| matches!(r, Err(SnapshotError::Corrupt(m)) if m.contains(&msg)));
                assert!(hit, "no scan reported '{msg}' for a corrupted row page");
                lazy_errors += 1;
            }
        }
        fs::remove_file(&mutated_path).ok();
    }
    assert!(lazy_errors > 0, "at least one corrupted page must be caught lazily");
    fs::remove_file(&path).ok();
}

/// The SPARQL Results JSON document for one run (boolean form for ASK).
fn render(projection: &[String], report: &RunReport) -> String {
    match report.ask {
        Some(b) => uo_sparql::ask_json(b),
        None => uo_sparql::results_json(projection, &report.results),
    }
}

/// A store written to the paged v3 format and reopened **cold** (4-page
/// cache) serves the entire conformance suite byte-identically to the warm
/// store it was saved from — both engines, all strategies, 1 and 2
/// workers.
#[test]
fn cold_reopen_serves_conformance_suite_byte_identically() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("conformance").join("cases");
    let mut cases = 0usize;
    for entry in fs::read_dir(&root).expect("conformance cases present") {
        let dir = entry.unwrap().path();
        if !dir.is_dir() {
            continue;
        }
        let query_text = fs::read_to_string(dir.join("query.rq")).unwrap();
        let data = fs::read_to_string(dir.join("data.nt")).unwrap();
        let mut warm = StoreWriter::new();
        warm.load_ntriples(&data).unwrap();
        let warm = warm.commit();
        let projection = uo_sparql::parse(&query_text).unwrap().projection();

        let path = temp_path("conf");
        uo_store::save_to_file(&warm, &path).unwrap();
        let cold = uo_store::load_from_file_with(&path, PagedOptions { cache_bytes: 16 << 10 })
            .unwrap()
            .snapshot();

        for threads in [1usize, 2] {
            let par = Parallelism::new(threads);
            let engines: [(&str, Box<dyn BgpEngine>); 2] = [
                ("wco", Box::new(WcoEngine::with_threads(threads))),
                ("binary", Box::new(BinaryJoinEngine::with_threads(threads))),
            ];
            for (engine_name, engine) in &engines {
                for strategy in Strategy::ALL {
                    let warm_doc = render(
                        &projection,
                        &run_query_with(&warm, engine.as_ref(), &query_text, strategy, par)
                            .unwrap(),
                    );
                    let cold_doc = render(
                        &projection,
                        &run_query_with(&cold, engine.as_ref(), &query_text, strategy, par)
                            .unwrap(),
                    );
                    assert_eq!(
                        cold_doc,
                        warm_doc,
                        "case {:?}: cold result diverged (engine {engine_name}, \
                         strategy {strategy}, {threads} worker(s))",
                        dir.file_name().unwrap()
                    );
                }
            }
        }
        fs::remove_file(&path).ok();
        cases += 1;
    }
    assert!(cases >= 5, "conformance suite unexpectedly small: {cases} case(s)");
}
