//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one experiment:
//!
//! | binary | experiment |
//! |---|---|
//! | `table2_datasets`   | Table 2 — dataset statistics |
//! | `table34_queries`   | Tables 3 & 4 — query statistics and result sizes |
//! | `fig10_verification`| Figure 10 — base/TT/CP/full on q1.1–q1.6, both engines, both datasets |
//! | `fig11_joinspace`   | Figure 11 — execution time and join space |
//! | `fig12_scalability` | Figure 12 — `full` on LUBM at four scales |
//! | `fig13_lbr`         | Figure 13 — `full` vs LBR on q2.1–q2.6 |
//! | `ablation_transforms` | merge-only vs inject-only vs both (beyond the paper) |
//! | `ablation_threshold`  | candidate-pruning threshold sweep (beyond the paper) |
//!
//! Scales are reduced from the paper's 0.5–2 B triples to laptop scale; set
//! `UO_SCALE` (a small positive float, default 1.0) to grow or shrink every
//! dataset proportionally.

pub use uo_json as json;

pub mod perf;

use std::sync::Arc;
use std::time::{Duration, Instant};
use uo_core::{run_query, RunReport, Strategy};
use uo_datagen::{
    generate_dbpedia, generate_lubm, queries::queries_for, BenchQuery, Dataset, DbpediaConfig,
    LubmConfig,
};
use uo_engine::{BgpEngine, BinaryJoinEngine, WcoEngine};
use uo_store::Snapshot;

/// The global scale multiplier from `UO_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("UO_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

fn scaled(base: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(1)
}

/// The LUBM store used by the group-1 experiments (Figures 10–11): two
/// universities (~70k triples at scale 1).
pub fn lubm_group1() -> Arc<Snapshot> {
    generate_lubm(&LubmConfig { universities: scaled(2), ..LubmConfig::default() })
}

/// The LUBM store used by the LBR comparison: thirteen universities so the
/// `University12` constants of q2.5/q2.6 resolve.
pub fn lubm_group2() -> Arc<Snapshot> {
    generate_lubm(&LubmConfig { universities: scaled(13), ..LubmConfig::default() })
}

/// A LUBM store at an explicit university count (Figure 12's sweep).
pub fn lubm_at(universities: usize) -> Arc<Snapshot> {
    generate_lubm(&LubmConfig { universities, ..LubmConfig::default() })
}

/// The DBpedia-style store (~250k triples at scale 1).
pub fn dbpedia_store() -> Arc<Snapshot> {
    generate_dbpedia(&DbpediaConfig { articles: scaled(15_000), ..DbpediaConfig::default() })
}

/// Both engines, with the labels the paper uses for them.
pub fn engines() -> Vec<(&'static str, Box<dyn BgpEngine>)> {
    vec![
        ("gStore(wco)", Box::new(WcoEngine::new())),
        ("Jena(binary)", Box::new(BinaryJoinEngine::new())),
    ]
}

/// Runs one query under one strategy and returns the report with wall time.
pub fn run(
    store: &Snapshot,
    engine: &dyn BgpEngine,
    q: &BenchQuery,
    strategy: Strategy,
) -> (RunReport, Duration) {
    let t = Instant::now();
    let report = run_query(store, engine, q.text, strategy)
        .unwrap_or_else(|e| panic!("{} failed to parse: {e}", q.id));
    (report, t.elapsed())
}

/// The group-1 queries of a dataset (q1.1–q1.6).
pub fn group1(dataset: Dataset) -> Vec<BenchQuery> {
    queries_for(dataset).into_iter().filter(|q| q.group == 1).collect()
}

/// The group-2 queries of a dataset (q2.1–q2.6).
pub fn group2(dataset: Dataset) -> Vec<BenchQuery> {
    queries_for(dataset).into_iter().filter(|q| q.group == 2).collect()
}

/// Formats a duration in ms with three decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// The `p`-th percentile (0..=100) of an ascending-sorted slice
/// (nearest-rank; 0.0 when empty). Shared by the latency harnesses.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Prints a markdown table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown table header and separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_one_query() {
        let st = generate_lubm(&LubmConfig::tiny());
        let qs = group1(Dataset::Lubm);
        let engine = WcoEngine::new();
        let (report, _) = run(&st, &engine, &qs[1], Strategy::Full);
        // q1.2 on the tiny store still finds the email-anchored student.
        assert!(!report.results.is_empty());
    }

    #[test]
    fn group_partition() {
        assert_eq!(group1(Dataset::Lubm).len(), 6);
        assert_eq!(group2(Dataset::Dbpedia).len(), 6);
    }
}
