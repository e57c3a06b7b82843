//! Ablation bench: merge-only vs inject-only vs both transformations on the
//! mixed UO query q1.5 (isolating Theorems 1 and 2), and pruning thresholds.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use uo_core::{
    multi_level_transform, prepare, try_execute_ids, Cancellation, CostModel, OptimizerConfig,
    Parallelism, Profiler, Strategy,
};
use uo_datagen::{generate_lubm, lubm_queries, LubmConfig};
use uo_engine::WcoEngine;

fn bench_ablation(c: &mut Criterion) {
    let store = generate_lubm(&LubmConfig::tiny());
    let engine = WcoEngine::new();
    let q = lubm_queries().into_iter().find(|q| q.id == "q1.5").unwrap();
    // The strategy picks the pruning mode: off for `TreeTransform`, a fixed
    // 1% threshold for `CandidatePruning`, adaptive for `Full`.
    let execute = |prepared: &uo_core::Prepared, strategy: Strategy| {
        try_execute_ids(
            &store,
            &engine,
            prepared,
            strategy,
            Parallelism::from_env(),
            &Cancellation::none(),
            Profiler::off(),
        )
        .map(|run| run.rows.len())
    };
    let mut group = c.benchmark_group("ablation");
    group.sample_size(20);
    for (label, cfg) in [
        ("merge_only", Some(OptimizerConfig::merge_only())),
        ("inject_only", Some(OptimizerConfig::inject_only())),
        ("both", Some(OptimizerConfig::default())),
        ("none", None),
    ] {
        group.bench_function(format!("transforms/{label}"), |b| {
            b.iter(|| {
                let mut prepared = prepare(&store, q.text).unwrap();
                let cm = CostModel::new(&store, &engine);
                if let Some(cfg) = cfg {
                    multi_level_transform(&mut prepared.tree, &cm, cfg);
                }
                black_box(execute(&prepared, Strategy::TreeTransform))
            })
        });
    }
    for (label, strategy) in [
        ("off", Strategy::TreeTransform),
        ("fixed_1pct", Strategy::CandidatePruning),
        ("adaptive", Strategy::Full),
    ] {
        let prepared = prepare(&store, q.text).unwrap();
        group.bench_function(format!("pruning/{label}"), |b| {
            b.iter(|| black_box(execute(&prepared, strategy)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
