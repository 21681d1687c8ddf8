//! Criterion wrapper around the Fig. 6 experiment: conflict accounting
//! cost across sizes on worst-case inputs (RTX 2080 Ti, Thrust E=17
//! b=256), printing the conflicts-per-element series the figure plots.
//! Run the `fig6` binary for the full two-parameter sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wcms_core::WorstCaseBuilder;
use wcms_mergesort::{sort_on, SimBackend, SortParams, SortSpec};

fn bench_fig6(c: &mut Criterion) {
    let params = SortParams::new(32, 17, 256).unwrap();
    let builder = WorstCaseBuilder::new(params.w, params.e, params.b).unwrap();
    let mut group = c.benchmark_group("fig6_conflicts_per_element");
    group.sample_size(10);
    for doublings in [1u32, 3] {
        let n = params.block_elems() << doublings;
        let input = builder.build(n).unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &input, |bencher, input| {
            bencher.iter(|| sort_on(black_box(input), &params, &SimBackend, &SortSpec::default()));
        });
        let (_, report) = sort_on(&input, &params, &SimBackend, &SortSpec::default()).unwrap();
        eprintln!(
            "fig6 n={n}: conflicts/element {:.3} (global rounds: {})",
            report.conflicts_per_element(),
            report.rounds.len()
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
