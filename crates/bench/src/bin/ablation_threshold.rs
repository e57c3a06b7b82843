//! Ablation (beyond the paper): candidate-pruning threshold sweep — off,
//! 0.1%, 1% (the paper's CP setting), 10% of the triple count, and the
//! adaptive per-BGP threshold (the paper's full setting).

use std::time::Instant;
use uo_bench::{dbpedia_store, group1, header, lubm_group1, ms, row};
use uo_core::{
    prepare, try_evaluate_profiled, Cancellation, EvalCtx, Parallelism, Profiler, Pruning,
};
use uo_datagen::Dataset;
use uo_engine::WcoEngine;

fn main() {
    let engine = WcoEngine::new();
    for (ds_name, dataset, store) in
        [("LUBM", Dataset::Lubm, lubm_group1()), ("DBpedia", Dataset::Dbpedia, dbpedia_store())]
    {
        println!("\n# Ablation: pruning threshold sweep on {ds_name}\n");
        header(&["Query", "off (ms)", "0.1% (ms)", "1% (ms)", "10% (ms)", "adaptive (ms)"]);
        let n = store.len();
        for q in group1(dataset) {
            let mut cells = vec![q.id.to_string()];
            for pruning in [
                Pruning::Off,
                Pruning::Fixed((n / 1000).max(1)),
                Pruning::Fixed((n / 100).max(1)),
                Pruning::Fixed((n / 10).max(1)),
                Pruning::adaptive_for(&store),
            ] {
                let prepared = prepare(&store, q.text).unwrap();
                let t = Instant::now();
                let _ = try_evaluate_profiled(
                    &prepared.tree,
                    &store,
                    &engine,
                    prepared.vars.len(),
                    pruning,
                    Parallelism::from_env(),
                    &Cancellation::none(),
                    &EvalCtx::new(store.dictionary()),
                    Profiler::off(),
                    None,
                    None,
                );
                cells.push(ms(t.elapsed()));
            }
            row(&cells);
        }
    }
}
