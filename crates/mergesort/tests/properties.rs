//! Property-based tests of the simulated sorts: correctness against
//! `std` sorting for arbitrary inputs, counter invariants, and the
//! bitonic network's data-obliviousness.

use proptest::prelude::*;
use wcms_mergesort::bitonic::bitonic_sort_with_report;
use wcms_mergesort::params::SortVariant;
use wcms_mergesort::{sort_on, SimBackend, SortParams, SortSpec};

fn tiny_params() -> SortParams {
    SortParams::new(8, 3, 16).unwrap() // bE = 48
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The simulated sort agrees with std sort on arbitrary inputs
    /// (duplicates included), for both kernel structures.
    #[test]
    fn sort_matches_std(
        seed_keys in proptest::collection::vec(0u32..1000, 1..8),
        doublings in 0u32..4,
        mgpu in proptest::bool::ANY,
    ) {
        let p = if mgpu {
            tiny_params().with_variant(SortVariant::ModernGpu)
        } else {
            tiny_params()
        };
        let n = p.block_elems() << doublings;
        // Stretch the seed keys over the whole input deterministically.
        let input: Vec<u32> = (0..n)
            .map(|i| seed_keys[i % seed_keys.len()].wrapping_mul(i as u32 % 97 + 1))
            .collect();
        let mut want = input.clone();
        want.sort_unstable();
        let (out, report) = sort_on(&input, &p, &SimBackend, &SortSpec::default()).unwrap();
        prop_assert_eq!(out, want);
        prop_assert_eq!(report.total().shared.combined().crew_violations, 0);
        prop_assert_eq!(report.rounds.len(), doublings as usize);
    }

    /// Counter invariants on arbitrary inputs: β ≥ 1 per phase, cycles ≥
    /// steps, accesses ≥ steps (each non-idle step has ≥ 1 lane).
    #[test]
    fn counter_invariants(seed in 0u64..500) {
        let p = tiny_params();
        let n = p.block_elems() * 4;
        let input: Vec<u32> = (0..n).map(|i| {
            let x = (i as u64).wrapping_mul(seed.wrapping_mul(2) + 1) % 9973;
            x as u32
        }).collect();
        let (_, report) = sort_on(&input, &p, &SimBackend, &SortSpec::default()).unwrap();
        let total = report.total().shared.combined();
        prop_assert!(total.cycles >= total.steps);
        prop_assert!(total.accesses >= total.steps);
        prop_assert!(total.max_degree >= 1);
        for r in &report.rounds {
            prop_assert!(r.shared.merge.beta().unwrap_or(1.0) >= 1.0);
            prop_assert!(r.shared.partition.beta().unwrap_or(1.0) >= 1.0);
        }
    }

    /// Bitonic: sorts arbitrary inputs and its conflicts never depend on
    /// the data.
    #[test]
    fn bitonic_sorts_and_is_oblivious(seed in 0u64..200, log_n in 7u32..10) {
        let p = SortParams::new(8, 4, 16).unwrap(); // tile 64 (power of two)
        let n = 1usize << log_n;
        let a: Vec<u32> = (0..n).map(|i| ((i as u64 * (2 * seed + 1)) % 4096) as u32).collect();
        let b: Vec<u32> = (0..n as u32).rev().collect();
        let mut want = a.clone();
        want.sort_unstable();
        let (out_a, rep_a) = bitonic_sort_with_report(&a, &p).unwrap();
        let (_, rep_b) = bitonic_sort_with_report(&b, &p).unwrap();
        prop_assert_eq!(out_a, want);
        prop_assert_eq!(rep_a.total().shared, rep_b.total().shared);
    }

    /// Generic keys: u64 sorting agrees with u32 sorting under the
    /// monotone embedding.
    #[test]
    fn u64_sorting_mirrors_u32(seed in 0u64..200) {
        let p = tiny_params();
        let n = p.block_elems() * 2;
        let narrow: Vec<u32> = (0..n).map(|i| {
            (((i as u64).wrapping_mul(seed | 1).wrapping_add(7)) % 5000) as u32
        }).collect();
        let wide: Vec<u64> = narrow
            .iter()
            .map(|&k| <u64 as wcms_gpu_sim::GpuKey>::from_rank(k))
            .collect();
        let (out32, r32) = sort_on(&narrow, &p, &SimBackend, &SortSpec::default()).unwrap();
        let (out64, r64) = sort_on(&wide, &p, &SimBackend, &SortSpec::default()).unwrap();
        let mapped: Vec<u64> = out32
            .iter()
            .map(|&k| <u64 as wcms_gpu_sim::GpuKey>::from_rank(k))
            .collect();
        prop_assert_eq!(out64, mapped);
        // Same order ⇒ same shared-memory behaviour.
        prop_assert_eq!(r32.total().shared, r64.total().shared);
        // Wider keys ⇒ more global sectors.
        prop_assert!(r64.total().global.sectors > r32.total().global.sectors);
    }
}

mod fault_resilience {
    use super::*;
    use wcms_gpu_sim::fault::{FaultConfig, FaultInjector};
    use wcms_mergesort::{sort_resilient_on, RecoveryPolicy, SimBackend, SortSpec};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Zero silent corruption: under arbitrary seeds and fault rates
        /// (including hard faults at rate 1.0), on both kernel
        /// structures, the resilient sort returns the exact sorted
        /// permutation — faults land in the report, never in the data.
        #[test]
        fn resilient_sort_never_corrupts(
            seed in 0u64..1000,
            tile_pct in 0u32..=100,
            corank_pct in 0u32..=100,
            doublings in 0u32..4,
            mgpu in proptest::bool::ANY,
        ) {
            let p = if mgpu {
                tiny_params().with_variant(SortVariant::ModernGpu)
            } else {
                tiny_params()
            };
            let n = p.block_elems() << doublings;
            let input: Vec<u32> = (0..n)
                .map(|i| (i as u32).wrapping_mul(2_654_435_761).rotate_left(seed as u32 % 32))
                .collect();
            let mut want = input.clone();
            want.sort_unstable();
            let inj = FaultInjector::new(FaultConfig {
                seed,
                tile_bitflip_rate: f64::from(tile_pct) / 100.0,
                corank_rate: f64::from(corank_pct) / 100.0,
                ..FaultConfig::default()
            });
            let (out, report, faults) =
                sort_resilient_on(&input, &p, &SimBackend, &SortSpec::default(), &inj, &RecoveryPolicy::default()).unwrap();
            prop_assert_eq!(out, want);
            prop_assert_eq!(report.n, n);
            // Recovery bookkeeping is internally consistent.
            prop_assert!(faults.counters.cpu_fallbacks == faults.degraded.len());
            if !inj.is_enabled() {
                prop_assert!(faults.clean());
            }
        }

        /// The injector-disabled determinism property over arbitrary
        /// inputs: resilient and plain drivers agree bit-for-bit on
        /// output and counters.
        #[test]
        fn disabled_injector_matches_plain_driver(
            seed in 0u64..500,
            doublings in 0u32..3,
        ) {
            let p = tiny_params();
            let n = p.block_elems() << doublings;
            let input: Vec<u32> =
                (0..n).map(|i| ((i as u64 * (2 * seed + 1)) % 8191) as u32).collect();
            let (plain_out, plain_rep) = sort_on(&input, &p, &SimBackend, &SortSpec::default()).unwrap();
            let (out, rep, faults) = sort_resilient_on(&input, &p, &SimBackend, &SortSpec::default(), &FaultInjector::disabled(), &RecoveryPolicy::default())
            .unwrap();
            prop_assert_eq!(out, plain_out);
            prop_assert_eq!(rep, plain_rep);
            prop_assert!(faults.clean());
        }
    }
}
