//! End-to-end check of the paper's central claim: the constructed input,
//! run through the *full simulated sort*, drives the merging stage of
//! every global round to `E`-way bank conflicts (`β₂ = E`), while random
//! inputs stay near the small empirical averages Karsin et al. report.

use wcms_core::WorstCaseBuilder;
use wcms_mergesort::{sort_on, SimBackend, SortParams, SortSpec};
use wcms_workloads::random::random_permutation;

fn beta2_of(input: &[u32], p: &SortParams) -> f64 {
    let (out, report) = sort_on(input, p, &SimBackend, &SortSpec::default()).unwrap();
    assert!(out.windows(2).all(|w| w[0] <= w[1]), "sort must still sort");
    report.global_beta2().expect("has global rounds")
}

/// Small-E: the constructed input reaches β₂ = E exactly — every merge
/// step of every warp of every global round is an E-way conflict.
#[test]
fn worst_case_reaches_beta2_e_small() {
    for (w, e, b) in [(32usize, 7usize, 64usize), (16, 5, 32), (8, 3, 16)] {
        let p = SortParams::new(w, e, b).unwrap();
        let n = p.block_elems() * 8;
        let input = WorstCaseBuilder::new(w, e, b).unwrap().build(n).unwrap();
        let beta2 = beta2_of(&input, &p);
        assert!((beta2 - e as f64).abs() < 1e-9, "w={w} E={e}: expected beta2 = E, got {beta2}");
    }
}

/// Large-E: β₂ lands within the Theorem 9 fraction of E (the partially
/// misaligned columns cost slightly less than E per step).
#[test]
fn worst_case_reaches_theorem9_beta2_large() {
    for (w, e, b) in [(32usize, 17usize, 64usize), (16, 9, 32)] {
        let p = SortParams::new(w, e, b).unwrap();
        let n = p.block_elems() * 8;
        let input = WorstCaseBuilder::new(w, e, b).unwrap().build(n).unwrap();
        let beta2 = beta2_of(&input, &p);
        let floor = wcms_core::theorem_aligned_count(w, e).unwrap() as f64 / e as f64;
        assert!(
            beta2 >= floor && beta2 <= e as f64 + 1e-9,
            "w={w} E={e}: beta2 = {beta2}, theorem floor {floor}"
        );
    }
}

/// Random inputs stay far below the constructed worst case — the gap the
/// paper's Figures 4–5 measure as runtime slowdown.
#[test]
fn random_beta2_is_small() {
    let (w, e, b) = (32usize, 15usize, 64usize);
    let p = SortParams::new(w, e, b).unwrap();
    let n = p.block_elems() * 8;
    let worst = beta2_of(&WorstCaseBuilder::new(w, e, b).unwrap().build(n).unwrap(), &p);
    let random = beta2_of(&random_permutation(n, 42), &p);
    assert!(random < 6.0, "random beta2 unexpectedly high: {random}");
    assert!(worst > 2.0 * random, "worst {worst} not well above random {random}");
}

/// Every member of the worst-case family (Conclusion point 2) attacks the
/// global rounds identically: base-block shuffling must not change β₂.
#[test]
fn family_members_share_global_beta2() {
    let (w, e, b) = (16usize, 5usize, 32usize);
    let p = SortParams::new(w, e, b).unwrap();
    let builder = WorstCaseBuilder::new(w, e, b).unwrap();
    let n = p.block_elems() * 4;
    let reference = beta2_of(&builder.build(n).unwrap(), &p);
    for seed in [1u64, 7, 99] {
        let member = beta2_of(&builder.build_family_member(n, seed).unwrap(), &p);
        assert!((member - reference).abs() < 1e-9, "seed {seed}: {member} vs {reference}");
    }
}

/// The near-worst-case dial (Conclusion point 3): more adversarial rounds
/// → monotonically more merge-phase conflict cycles.
#[test]
fn partial_adversarial_rounds_scale_conflicts() {
    let (w, e, b) = (16usize, 5usize, 32usize);
    let p = SortParams::new(w, e, b).unwrap();
    let builder = WorstCaseBuilder::new(w, e, b).unwrap();
    let n = p.block_elems() * 8; // 3 global rounds
    let mut last = 0usize;
    for k in 0..=3usize {
        let input = builder.build_partial(n, k).unwrap();
        let (_, report) = sort_on(&input, &p, &SimBackend, &SortSpec::default()).unwrap();
        let cycles: usize = report.rounds.iter().map(|r| r.shared.merge.cycles).sum();
        assert!(cycles >= last, "k={k}: cycles {cycles} < previous {last}");
        last = cycles;
    }
}

/// The conflict-heavy heuristic baseline sits strictly between random
/// and the constructed worst case in merge-phase conflicts.
#[test]
fn conflict_heavy_is_intermediate() {
    let (w, e, b) = (32usize, 15usize, 64usize);
    let p = SortParams::new(w, e, b).unwrap();
    let n = p.block_elems() * 8;
    let worst = beta2_of(&WorstCaseBuilder::new(w, e, b).unwrap().build(n).unwrap(), &p);
    let heavy =
        beta2_of(&WorstCaseBuilder::conflict_heavy(w, e, b, 8).unwrap().build(n).unwrap(), &p);
    assert!(heavy < worst, "heuristic {heavy} must stay below the construction {worst}");
}

/// Sorted input with co-prime E is conflict-light in the merging stage.
#[test]
fn sorted_input_is_conflict_light() {
    let (w, e, b) = (32usize, 15usize, 64usize);
    let p = SortParams::new(w, e, b).unwrap();
    let n = p.block_elems() * 8;
    let sorted: Vec<u32> = (0..n as u32).collect();
    let beta2 = beta2_of(&sorted, &p);
    assert!(beta2 < 1.5, "sorted co-prime beta2 should be ~1, got {beta2}");
}

/// Power-of-two `E` (§III "Considered values of E"): sorted order is
/// *already* the worst case — through the full simulator, the merging
/// stage of every global round hits gcd(w, E) = E-way conflicts on a
/// plain ascending input.
#[test]
fn power_of_two_e_sorted_input_is_worst_case() {
    let (w, e, b) = (32usize, 16usize, 64usize);
    let p = SortParams::new(w, e, b).unwrap();
    let n = p.block_elems() * 8;
    let sorted: Vec<u32> = (0..n as u32).collect();
    let beta2 = beta2_of(&sorted, &p);
    assert!(
        (beta2 - e as f64).abs() < 1e-9,
        "sorted input with E = {e} should give beta2 = E, got {beta2}"
    );
    // And the general gcd case: E = 12 → gcd(32, 12) = 4-way conflicts.
    let p = SortParams::new(w, 12, 64).unwrap();
    let n = p.block_elems() * 8;
    let sorted: Vec<u32> = (0..n as u32).collect();
    let beta2 = beta2_of(&sorted, &p);
    assert!((beta2 - 4.0).abs() < 1e-9, "E = 12 should give beta2 = gcd = 4, got {beta2}");
}

/// The construction is key-type-agnostic: mapped into u64 or i32 keys
/// (order preserved), the same permutation forces the same β₂ = E.
#[test]
fn worst_case_carries_to_wide_and_signed_keys() {
    let (w, e, b) = (32usize, 7usize, 64usize);
    let p = SortParams::new(w, e, b).unwrap();
    let n = p.block_elems() * 4;
    let ranks = WorstCaseBuilder::new(w, e, b).unwrap().build(n).unwrap();

    let as_u64: Vec<u64> = ranks.iter().map(|&r| wcms_gpu_sim::GpuKey::from_rank(r)).collect();
    let (out64, rep64) = sort_on(&as_u64, &p, &SimBackend, &SortSpec::default()).unwrap();
    assert!(out64.windows(2).all(|x| x[0] <= x[1]));
    assert!((rep64.global_beta2().unwrap() - e as f64).abs() < 1e-9);

    let as_i32: Vec<i32> = ranks.iter().map(|&r| wcms_gpu_sim::GpuKey::from_rank(r)).collect();
    let (out32, rep32) = sort_on(&as_i32, &p, &SimBackend, &SortSpec::default()).unwrap();
    assert!(out32.windows(2).all(|x| x[0] <= x[1]));
    assert!((rep32.global_beta2().unwrap() - e as f64).abs() < 1e-9);

    // Wider keys cost proportionally more global sectors.
    let (_, rep_u32) = sort_on(&ranks, &p, &SimBackend, &SortSpec::default()).unwrap();
    assert!(rep64.total().global.sectors > rep_u32.total().global.sectors);
}

/// The mitigation the paper's intro attributes to Dotsenko et al.:
/// padded shared-memory tiles defeat the constructed worst case — the
/// same permutation that forces β₂ = E on the flat layout becomes
/// near-conflict-free, at the price of 1/w extra shared memory.
#[test]
fn smem_padding_defeats_the_construction() {
    let (w, e, b) = (32usize, 15usize, 64usize);
    let flat = SortParams::new(w, e, b).unwrap();
    let padded = SortParams::new(w, e, b).unwrap().with_padding();
    let n = flat.block_elems() * 8;
    let input = WorstCaseBuilder::new(w, e, b).unwrap().build(n).unwrap();

    let attacked = beta2_of(&input, &flat);
    let mitigated = beta2_of(&input, &padded);
    assert!((attacked - e as f64).abs() < 1e-9, "flat layout must be attacked");
    // Padding collapses the 15-way conflicts to a small residual degree
    // (measured: 3.0 — a 5× reduction; the residue comes from the
    // misaligned B-segment start after the padded A segment).
    assert!(mitigated < 4.0, "padding should defeat the construction, got beta2 = {mitigated}");
    // The price: a slightly larger tile.
    assert!(padded.shared_bytes() > flat.shared_bytes());
    assert_eq!(padded.shared_bytes(), wcms_dmm::padded_len(flat.block_elems(), w) * 4);
}
