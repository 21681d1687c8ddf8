//! Criterion wrapper around the Fig. 5 experiment (RTX 2080 Ti, both
//! Thrust parameter sets, random vs. worst-case). Run the `fig5` binary
//! for the full sweep with slowdown statistics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wcms_bench::experiment::measure_on;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{sort_on, BackendKind, SimBackend, SortParams, SortSpec};
use wcms_workloads::WorkloadSpec;

fn bench_fig5(c: &mut Criterion) {
    let device = DeviceSpec::rtx_2080_ti();
    let mut group = c.benchmark_group("fig5_rtx2080ti");
    group.sample_size(10);
    for (label, params) in [
        ("e15_b512", SortParams::thrust_e15_b512(&device).unwrap()),
        ("e17_b256", SortParams::thrust(&device).unwrap()),
    ] {
        let n = params.block_elems() * 4;
        for (wl, spec) in [
            ("random", WorkloadSpec::RandomPermutation { seed: 1 }),
            ("worst", WorkloadSpec::WorstCase),
        ] {
            let input = spec.generate(n, params.w, params.e, params.b).unwrap();
            group.bench_with_input(BenchmarkId::new(label, wl), &input, |bencher, input| {
                bencher
                    .iter(|| sort_on(black_box(input), &params, &SimBackend, &SortSpec::default()));
            });
            let m = measure_on(&device, &params, spec, n, 1, BackendKind::Sim).unwrap();
            eprintln!(
                "fig5 {label}/{wl}: modelled {:.1} ME/s, beta2 {:.2}",
                m.throughput / 1e6,
                m.beta2
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
