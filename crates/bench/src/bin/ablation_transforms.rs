//! Ablation (beyond the paper): merge-only vs inject-only vs both, isolating
//! the contribution of Theorem 1 (merge) and Theorem 2 (inject).

use std::time::Instant;
use uo_bench::{dbpedia_store, group1, header, lubm_group1, ms, row};
use uo_core::{
    multi_level_transform, prepare, try_execute_ids, Cancellation, CostModel, OptimizerConfig,
    Parallelism, Profiler, Strategy,
};
use uo_datagen::Dataset;
use uo_engine::WcoEngine;

fn main() {
    let engine = WcoEngine::new();
    for (ds_name, dataset, store) in
        [("LUBM", Dataset::Lubm, lubm_group1()), ("DBpedia", Dataset::Dbpedia, dbpedia_store())]
    {
        println!("\n# Ablation: transformation variants on {ds_name}\n");
        header(&[
            "Query",
            "none (ms)",
            "merge-only (ms)",
            "inject-only (ms)",
            "both (ms)",
            "merges",
            "injects",
        ]);
        for q in group1(dataset) {
            let mut cells = vec![q.id.to_string()];
            let mut merges = 0;
            let mut injects = 0;
            for cfg in [
                None,
                Some(OptimizerConfig::merge_only()),
                Some(OptimizerConfig::inject_only()),
                Some(OptimizerConfig::default()),
            ] {
                let mut prepared = prepare(&store, q.text).unwrap();
                let cm = CostModel::new(&store, &engine);
                let t = Instant::now();
                if let Some(cfg) = cfg {
                    let out = multi_level_transform(&mut prepared.tree, &cm, cfg);
                    if cfg.enable_merge && cfg.enable_inject {
                        merges = out.merges;
                        injects = out.injects;
                    }
                }
                // `TreeTransform` executes without candidate pruning.
                let _ = try_execute_ids(
                    &store,
                    &engine,
                    &prepared,
                    Strategy::TreeTransform,
                    Parallelism::from_env(),
                    &Cancellation::none(),
                    Profiler::off(),
                );
                cells.push(ms(t.elapsed()));
            }
            cells.push(merges.to_string());
            cells.push(injects.to_string());
            row(&cells);
        }
    }
}
