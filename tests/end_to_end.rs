//! Workspace-level integration: the full pipeline from construction to
//! simulated sort to cost model, across crates.

use wcms::adversary::{construct, evaluate, theorem_aligned_count, WorstCaseBuilder};
use wcms::gpu::{CostModel, DeviceSpec, Occupancy};
use wcms::mergesort::{sort_on, SimBackend, SortParams, SortSpec};
use wcms::workloads::random::random_permutation;
use wcms::workloads::WorkloadSpec;

/// The paper's headline pipeline: for Thrust's two published tunings,
/// the constructed input must model strictly slower than random at every
/// size with at least one global round, and the slowdown must grow with
/// the number of rounds.
#[test]
fn slowdown_grows_with_rounds() {
    let device = DeviceSpec::rtx_2080_ti();
    for params in [SortParams::new(32, 15, 128).unwrap(), SortParams::new(32, 17, 64).unwrap()] {
        let occ = Occupancy::compute(&device, params.b, params.shared_bytes()).unwrap();
        let model = CostModel::default();
        let builder = WorstCaseBuilder::new(params.w, params.e, params.b).unwrap();
        let mut last_slowdown = 0.0f64;
        for doublings in [2u32, 4, 6] {
            let n = params.block_elems() << doublings;
            let time = |input: &[u32]| {
                let (_, r) = sort_on(input, &params, &SimBackend, &SortSpec::default()).unwrap();
                model.estimate(&device, &occ, &r.kernel_counters(), r.blocks_launched()).total_s
            };
            let worst = time(&builder.build(n).unwrap());
            let random = time(&random_permutation(n, 99));
            let slowdown = worst / random - 1.0;
            assert!(slowdown > 0.0, "E={} n={n}: no slowdown", params.e);
            assert!(
                slowdown > last_slowdown,
                "E={} n={n}: slowdown {slowdown} did not grow from {last_slowdown}",
                params.e
            );
            last_slowdown = slowdown;
        }
    }
}

/// The analytic single-warp evaluation and the full simulation agree:
/// the merge phase of a global round costs exactly the per-warp cycles
/// the evaluator predicts, times the number of warp-merges.
#[test]
fn analytic_and_simulated_conflicts_agree() {
    let (w, e, b) = (32usize, 7usize, 64usize);
    let params = SortParams::new(w, e, b).unwrap();
    let n = params.block_elems() * 4; // 2 global rounds
    let input = WorstCaseBuilder::new(w, e, b).unwrap().build(n).unwrap();
    let (_, report) = sort_on(&input, &params, &SimBackend, &SortSpec::default()).unwrap();

    let asg = construct(w, e).unwrap();
    let per_warp = evaluate(&asg).unwrap().cycles();
    // Per global round: blocks × warps-per-block warp-merges.
    let warp_merges = params.blocks_for(n) * params.warps_per_block();
    for (i, round) in report.rounds.iter().enumerate() {
        assert_eq!(
            round.shared.merge.cycles,
            per_warp * warp_merges,
            "round {i}: simulation diverges from the analytic evaluator"
        );
    }
}

/// Theorem bounds hold through the whole stack for both regimes.
#[test]
fn theorem_counts_survive_the_full_stack() {
    for (w, e, b) in [(32usize, 15usize, 64usize), (32, 17, 64)] {
        let params = SortParams::new(w, e, b).unwrap();
        let n = params.block_elems() * 2;
        let input = WorstCaseBuilder::new(w, e, b).unwrap().build(n).unwrap();
        let (_, report) = sort_on(&input, &params, &SimBackend, &SortSpec::default()).unwrap();
        let round = &report.rounds[0];
        let warp_merges = params.blocks_for(n) * params.warps_per_block();
        // Aligned elements imply at least `theorem` conflict cycles per
        // warp-merge.
        let floor = theorem_aligned_count(w, e).unwrap() * warp_merges;
        assert!(
            round.shared.merge.cycles >= floor,
            "w={w} E={e}: {} < {floor}",
            round.shared.merge.cycles
        );
    }
}

/// Sorting correctness across every workload class the harness sweeps.
#[test]
fn all_workloads_sort_correctly() {
    let params = SortParams::new(32, 5, 64).unwrap();
    let n = params.block_elems() * 4;
    let specs = [
        WorkloadSpec::Random { seed: 1 },
        WorkloadSpec::RandomPermutation { seed: 2 },
        WorkloadSpec::Sorted,
        WorkloadSpec::Reverse,
        WorkloadSpec::KSwaps { swaps: 50, seed: 3 },
        WorkloadSpec::FewDistinct { distinct: 5, seed: 4 },
        WorkloadSpec::Sawtooth { teeth: 7 },
        WorkloadSpec::WorstCase,
        WorkloadSpec::WorstCaseFamily { seed: 5 },
        WorkloadSpec::ConflictHeavy { stride: 2 },
    ];
    for spec in specs {
        let input = spec.generate(n, params.w, params.e, params.b).unwrap();
        assert_eq!(input.len(), n, "{}", spec.label());
        let (out, _) = sort_on(&input, &params, &SimBackend, &SortSpec::default()).unwrap();
        let mut want = input.clone();
        want.sort_unstable();
        assert_eq!(out, want, "workload {}", spec.label());
    }
}

/// The facade re-exports compose: a user can go from device to verdict
/// using only `wcms::…` paths.
#[test]
fn facade_paths_compose() {
    let device = DeviceSpec::quadro_m4000();
    let params = SortParams::thrust(&device).unwrap();
    assert_eq!((params.e, params.b), (15, 512));
    let occ = Occupancy::compute(&device, params.b, params.shared_bytes()).unwrap();
    assert_eq!(occ.blocks_per_sm, 3);
    let asg = wcms::adversary::construct(params.w, params.e).unwrap();
    assert_eq!(wcms::adversary::evaluate(&asg).unwrap().aligned, 225);
}
