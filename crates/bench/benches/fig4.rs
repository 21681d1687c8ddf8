//! Criterion wrapper around the Fig. 4 experiment (Quadro M4000,
//! Thrust vs. Modern GPU, random vs. worst-case): measures the simulated
//! sort at a fixed size per (config, workload) cell and prints the
//! modelled slowdown. Run the `fig4` binary for the full sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wcms_bench::experiment::measure_on;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{sort_on, BackendKind, SimBackend, SortParams, SortSpec};
use wcms_workloads::WorkloadSpec;

fn bench_fig4(c: &mut Criterion) {
    let device = DeviceSpec::quadro_m4000();
    let mut group = c.benchmark_group("fig4_m4000");
    group.sample_size(10);
    for (label, params) in [
        ("thrust_e15_b512", SortParams::thrust(&device).unwrap()),
        ("mgpu_e15_b128", SortParams::mgpu(&device).unwrap()),
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
            // Print the modelled figure value alongside the wall-clock.
            let m = measure_on(&device, &params, spec, n, 1, BackendKind::Sim).unwrap();
            eprintln!(
                "fig4 {label}/{wl}: modelled {:.1} ME/s, beta2 {:.2}",
                m.throughput / 1e6,
                m.beta2
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
