//! The analytic access-count model of Karsin et al. (§II-A of the
//! paper): the number of parallel coalesced global accesses `A_g` and
//! parallel shared accesses `A_s` of the pairwise merge sort,
//!
//! ```text
//! A_g = Θ( Nw/(PbE) · log²(N/bE) + N/P · log(N/bE) )
//! A_s = Θ( N/(PE) · log(N/bE) · (β₁ log bE + β₂ E) )
//! ```
//!
//! with `P` physical cores and β₁/β₂ the per-access conflict averages.
//! These are the quantities our simulator *measures*; the functions here
//! provide the closed forms (up to the hidden constants) so tests can
//! check the measured counters scale like the theory predicts.

use crate::instrument::SortReport;
use crate::params::SortParams;

/// The `A_g` shape: parallel coalesced global accesses (per the Θ-form,
/// constants dropped). `p` is the device's physical core count.
#[must_use]
pub fn karsin_global_accesses(n: usize, params: &SortParams, p: usize) -> f64 {
    let (nf, w, be) = (n as f64, params.w as f64, params.block_elems() as f64);
    let rounds = (nf / be).log2().max(0.0);
    nf * w / (p as f64 * be) * rounds * rounds + nf / p as f64 * rounds
}

/// The `A_s` shape: parallel shared accesses with conflict parameters
/// `beta1`/`beta2` (per the Θ-form, constants dropped).
#[must_use]
pub fn karsin_shared_accesses(
    n: usize,
    params: &SortParams,
    p: usize,
    beta1: f64,
    beta2: f64,
) -> f64 {
    let (nf, e, be) = (n as f64, params.e as f64, params.block_elems() as f64);
    let rounds = (nf / be).log2().max(0.0);
    nf / (p as f64 * e) * rounds * (beta1 * be.log2() + beta2 * e)
}

/// Measured global-round shared *cycles* of a report, the quantity
/// `A_s · P` is proportional to (total serialized work rather than
/// parallel time).
#[must_use]
pub fn measured_global_shared_cycles(report: &SortReport) -> usize {
    report.rounds.iter().map(|r| r.shared.combined().cycles).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use crate::driver::{sort_on, SortSpec};
    use wcms_core::WorstCaseBuilder;

    /// The measured per-round shared work matches the A_s shape: linear
    /// in N at fixed round count, and the per-element work grows linearly
    /// with the round count log(N/bE).
    #[test]
    fn shared_work_scales_like_karsin_as() {
        let p = SortParams::new(32, 7, 64).unwrap();
        let builder = WorstCaseBuilder::new(32, 7, 64).unwrap();
        let mut per_round_per_elem = Vec::new();
        for doublings in [2u32, 3, 4, 5] {
            let n = p.block_elems() << doublings;
            let input = builder.build(n).unwrap();
            let (_, report) = sort_on(&input, &p, &SimBackend, &SortSpec::default()).unwrap();
            let cycles = measured_global_shared_cycles(&report);
            per_round_per_elem.push(cycles as f64 / (n as f64 * report.rounds.len() as f64));
        }
        // Worst case: per-round per-element shared work is a constant
        // (dominated by β₂ = E merging) — the A_s shape with fixed betas.
        let first = per_round_per_elem[0];
        for x in &per_round_per_elem {
            assert!((x / first - 1.0).abs() < 0.05, "{per_round_per_elem:?}");
        }
    }

    /// The closed forms are monotone in every argument the theory says
    /// they grow with.
    #[test]
    fn closed_forms_are_monotone() {
        let p = SortParams::new(32, 15, 512).unwrap();
        let cores = 1664;
        let n0 = p.block_elems() * 16;
        assert!(karsin_global_accesses(n0 * 2, &p, cores) > karsin_global_accesses(n0, &p, cores));
        assert!(karsin_global_accesses(n0, &p, cores / 2) > karsin_global_accesses(n0, &p, cores));
        assert!(
            karsin_shared_accesses(n0, &p, cores, 3.1, 15.0)
                > karsin_shared_accesses(n0, &p, cores, 3.1, 2.2)
        );
        assert!(
            karsin_shared_accesses(n0, &p, cores, 5.0, 2.2)
                > karsin_shared_accesses(n0, &p, cores, 3.1, 2.2)
        );
    }

    /// Sanity: at the base-case-only size, both round-dependent terms
    /// vanish.
    #[test]
    fn single_block_has_no_round_terms() {
        let p = SortParams::new(32, 15, 512).unwrap();
        assert_eq!(karsin_global_accesses(p.block_elems(), &p, 1664), 0.0);
        assert_eq!(karsin_shared_accesses(p.block_elems(), &p, 1664, 3.1, 2.2), 0.0);
    }

    /// The paper's observation behind the merging-stage focus: the
    /// merging term dominates the partitioning term whenever E ≥ log bE
    /// — true for every library tuning.
    #[test]
    fn merging_dominates_partitioning_for_library_tunings() {
        for (e, b) in [(15usize, 512usize), (17, 256), (15, 128)] {
            let p = SortParams::new(32, e, b).unwrap();
            let log_be = (p.block_elems() as f64).log2();
            assert!(
                e as f64 >= log_be,
                "E = {e} vs log2(bE) = {log_be} (§III requires E >= log bE)"
            );
        }
    }
}
