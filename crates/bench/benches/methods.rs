//! Criterion benchmark comparing the end-to-end runtime of every evaluated
//! method on the same dataset — the micro-benchmark counterpart of the
//! Figure 9 wall-clock tables.

use criterion::{criterion_group, criterion_main, Criterion};
use s2g_bench::roster::{fast_roster, paper_input, paper_roster};
use s2g_datasets::mba::{generate_mba_with_length, MbaRecord};
use s2g_datasets::srw::{generate_srw, SrwConfig};

fn methods_on_mba(c: &mut Criterion) {
    let mut group = c.benchmark_group("methods/mba_5k");
    group.sample_size(10);
    let data = generate_mba_with_length(MbaRecord::R803, 5_000, 21);
    let input = paper_input(&data, 75);
    for method in paper_roster() {
        group.bench_function(method.name(), |b| b.iter(|| method.run(&input).unwrap()));
    }
    group.finish();
}

fn methods_on_srw(c: &mut Criterion) {
    let mut group = c.benchmark_group("methods/srw_5k");
    group.sample_size(10);
    let data = generate_srw(SrwConfig {
        length: 5_000,
        num_anomalies: 4,
        noise_ratio: 0.0,
        anomaly_length: 200,
        seed: 21,
    });
    let input = paper_input(&data, 200);
    for method in fast_roster() {
        group.bench_function(method.name(), |b| b.iter(|| method.run(&input).unwrap()));
    }
    group.finish();
}

criterion_group!(benches, methods_on_mba, methods_on_srw);
criterion_main!(benches);
