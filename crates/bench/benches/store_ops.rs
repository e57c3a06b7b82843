//! Microbenchmarks of the storage substrate: index construction, pattern
//! lookups of every shape, and snapshot (de)serialization.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use uo_datagen::{generate_lubm, LubmConfig};
use uo_par::Parallelism;
use uo_rdf::Term;
use uo_store::Snapshot;

fn bench_store(c: &mut Criterion) {
    let store = generate_lubm(&LubmConfig::tiny());
    let d = store.dictionary();
    let ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
    let takes = d.lookup(&Term::iri(format!("{ub}takesCourse"))).unwrap();
    let dept = d.lookup(&Term::iri("http://www.Department0.University0.edu")).unwrap();
    let student = d
        .lookup(&Term::iri("http://www.Department0.University0.edu/UndergraduateStudent7"))
        .unwrap();

    let mut group = c.benchmark_group("store");
    group.bench_function("lookup_s", |b| {
        b.iter(|| black_box(store.match_pattern(Some(student), None, None).len()))
    });
    group.bench_function("lookup_p", |b| {
        b.iter(|| black_box(store.match_pattern(None, Some(takes), None).len()))
    });
    group.bench_function("lookup_po", |b| {
        b.iter(|| black_box(store.match_pattern(None, Some(takes), Some(dept)).len()))
    });
    group.bench_function("lookup_spo", |b| {
        b.iter(|| black_box(store.match_pattern(Some(student), Some(takes), Some(dept)).len()))
    });
    let rows: Vec<[u32; 3]> = store.iter().map(|t| t.as_array()).collect();
    group.bench_function("rebuild_indexes", |b| {
        b.iter_batched(
            || rows.clone(),
            |rows| {
                let dict = Arc::clone(store.dict_arc());
                black_box(Snapshot::build_from(dict, rows, 1, Parallelism::from_env()).len())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("snapshot_write", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            uo_store::write_snapshot(&store, &mut buf).unwrap();
            black_box(buf.len())
        })
    });
    let mut buf = Vec::new();
    uo_store::write_snapshot(&store, &mut buf).unwrap();
    group.bench_function("snapshot_read", |b| {
        b.iter(|| black_box(uo_store::read_snapshot(&mut buf.as_slice()).unwrap().snapshot().len()))
    });
    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
