//! Golden-number regression tests: exact conflict counters for pinned
//! configurations. The simulator is fully deterministic, so any change
//! to these numbers means the modelled machine changed — intentional
//! changes must update the constants *and* EXPERIMENTS.md.

use wcms::adversary::{construct, evaluate, WorstCaseBuilder};
use wcms::mergesort::{sort_on, SimBackend, SortParams, SortSpec};

/// Per-warp merge-stage cycles of the constructions (Σ step degrees).
#[test]
fn construction_cycle_counts_are_pinned() {
    // (w, E) → cycles. Small E: exactly E². Large E: the measured value
    // (≥ the Theorem 9 aligned count, ≤ E² + filler contributions).
    let pinned = [
        ((16usize, 7usize), 49usize),
        ((32, 15), 225),
        ((16, 9), 80),
        ((32, 17), 288),
        ((32, 31), 723),
        ((64, 33), 1088),
    ];
    for ((w, e), cycles) in pinned {
        assert_eq!(evaluate(&construct(w, e).unwrap()).unwrap().cycles(), cycles, "w={w} E={e}");
    }
}

/// End-to-end counters of one pinned sort: worst-case input, w=32, E=7,
/// b=64, N=8·bE. Every number is bit-reproducible.
#[test]
fn pinned_sort_counters() {
    let p = SortParams::new(32, 7, 64).unwrap();
    let n = p.block_elems() * 8;
    let input = WorstCaseBuilder::new(32, 7, 64).unwrap().build(n).unwrap();
    let (out, report) = sort_on(&input, &p, &SimBackend, &SortSpec::default()).unwrap();
    assert!(out.windows(2).all(|w| w[0] <= w[1]));

    // Global rounds: 3; every merge step is a 7-way conflict:
    // 8 blocks × 2 warps × 7 steps × 7 degree = 784 cycles per round.
    assert_eq!(report.rounds.len(), 3);
    for round in &report.rounds {
        assert_eq!(round.shared.merge.steps, 8 * 2 * 7);
        assert_eq!(round.shared.merge.cycles, 8 * 2 * 7 * 7);
        assert_eq!(round.shared.merge.max_degree, 7);
    }
    // The base case is input-dependent but deterministic (seeded base
    // shuffle).
    assert_eq!(report.base.blocks, 8);
    assert_eq!(report.base.comparators, 8 * 64 * 21); // blocks × b × odd-even(7) comparators
}

/// The structural counters that must never drift: step counts of the
/// merge phase are data-independent.
#[test]
fn merge_phase_steps_are_data_independent() {
    let p = SortParams::new(16, 5, 32).unwrap();
    let n = p.block_elems() * 4;
    let a: Vec<u32> = (0..n as u32).collect();
    let b: Vec<u32> = (0..n as u32).rev().collect();
    let (_, ra) = sort_on(&a, &p, &SimBackend, &SortSpec::default()).unwrap();
    let (_, rb) = sort_on(&b, &p, &SimBackend, &SortSpec::default()).unwrap();
    for (x, y) in ra.rounds.iter().zip(&rb.rounds) {
        assert_eq!(x.shared.merge.steps, y.shared.merge.steps);
        assert_eq!(x.shared.merge.accesses, y.shared.merge.accesses);
    }
}
