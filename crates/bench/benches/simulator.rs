//! Microbenchmarks of the simulator substrate: per-step conflict
//! accounting and the full instrumented sort on both input classes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wcms_core::WorstCaseBuilder;
use wcms_dmm::{BankModel, ConflictCounter, WarpStep};
use wcms_mergesort::{sort_on, SimBackend, SortParams, SortSpec};
use wcms_workloads::random::random_permutation;

fn bench_conflict_counter(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_counter_step");
    let mut counter = ConflictCounter::new(BankModel::gpu32());
    let coalesced = WarpStep::all_read(&(0..32).collect::<Vec<_>>());
    let conflicted = WarpStep::all_read(&(0..32).map(|i| (i % 15) * 32).collect::<Vec<_>>());
    group.throughput(Throughput::Elements(32));
    group.bench_function("conflict_free", |b| {
        b.iter(|| counter.analyze(black_box(&coalesced)));
    });
    group.bench_function("15_way_conflict", |b| {
        b.iter(|| counter.analyze(black_box(&conflicted)));
    });
    group.finish();
}

fn bench_simulated_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulated_sort");
    group.sample_size(10);
    let params = SortParams::new(32, 15, 128).unwrap();
    let n = params.block_elems() * 8;
    group.throughput(Throughput::Elements(n as u64));
    let random = random_permutation(n, 5);
    let worst = WorstCaseBuilder::new(params.w, params.e, params.b).unwrap().build(n).unwrap();
    for (label, input) in [("random", &random), ("worst", &worst)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), input, |bencher, input| {
            bencher.iter(|| sort_on(black_box(input), &params, &SimBackend, &SortSpec::default()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conflict_counter, bench_simulated_sort);
criterion_main!(benches);
