//! End-to-end fault-tolerance suite through the public facade, at fixed
//! seeds: the worst-case adversarial input sorted under injected faults
//! must come out exactly sorted (zero silent corruption), datasets must
//! fail loudly when torn, and a disabled injector must cost nothing.

use std::collections::HashSet;
use std::sync::Arc;
use wcms::adversary::WorstCaseBuilder;
use wcms::gpu::fault::{FaultConfig, FaultInjector};

use wcms::mergesort::{
    sort_on, sort_resilient_on, AlgorithmKind, RecoveryPolicy, SimBackend, SortParams, SortSpec,
};
use wcms::workloads::dataset::{read_keys, write_keys};
use wcms::WcmsError;
use wcms_obs::{Clock, FieldValue, Obs, Phase, Record, RingCollector};

fn thrust_like() -> SortParams {
    SortParams::new(8, 3, 16).unwrap() // scaled-down tile, same structure
}

/// The headline scenario: the paper's adversarial permutation sorted on
/// a faulty machine. The adversary attacks the bank layout, the faults
/// attack the data — the output must survive both.
#[test]
fn worst_case_input_survives_fault_storm() {
    let p = thrust_like();
    let n = p.block_elems() * 16;
    let input = WorstCaseBuilder::new(p.w, p.e, p.b).unwrap().build(n).unwrap();
    let mut want = input.clone();
    want.sort_unstable();

    for seed in [1u64, 42, 9999] {
        let inj = FaultInjector::new(FaultConfig {
            seed,
            tile_bitflip_rate: 0.25,
            corank_rate: 0.25,
            ..FaultConfig::default()
        });
        let (out, report, faults) = sort_resilient_on(
            &input,
            &p,
            &SimBackend,
            &SortSpec::default(),
            &inj,
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert_eq!(out, want, "seed {seed}: silent corruption");
        assert_eq!(report.n, n);
        assert!(faults.counters.any_injected(), "seed {seed}: storm fired nothing");
    }
}

/// Degraded units still leave the conflict counters usable: a hard
/// tile fault wipes out the base case's GPU counters but the global
/// rounds (whose flips can land outside a block's window) keep theirs,
/// and the output is still exact.
#[test]
fn degradation_is_per_unit_not_global() {
    let p = thrust_like();
    let n = p.block_elems() * 8;
    let input: Vec<u32> = (0..n as u32).rev().collect();
    let inj = FaultInjector::new(FaultConfig {
        seed: 5,
        tile_bitflip_rate: 1.0,
        ..FaultConfig::default()
    });
    let (out, _, faults) = sort_resilient_on(
        &input,
        &p,
        &SimBackend,
        &SortSpec::default(),
        &inj,
        &RecoveryPolicy::default(),
    )
    .unwrap();
    assert!(out.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(faults.counters.cpu_fallbacks, faults.degraded.len());
    // All 8 base blocks read their whole (always-corrupted) chunk.
    assert!(faults.degraded.iter().filter(|(round, _)| *round == 0).count() == 8);
}

/// Recovery disabled: the same storm is a typed error, not bad data.
#[test]
fn fault_storm_without_fallback_fails_loudly() {
    let p = thrust_like();
    let input: Vec<u32> = (0..p.block_elems() as u32 * 2).rev().collect();
    let inj = FaultInjector::new(FaultConfig {
        seed: 5,
        tile_bitflip_rate: 1.0,
        ..FaultConfig::default()
    });
    let err = sort_resilient_on(
        &input,
        &p,
        &SimBackend,
        &SortSpec::default(),
        &inj,
        &RecoveryPolicy { max_retries: 0, cpu_fallback: false },
    )
    .unwrap_err();
    assert!(matches!(err, WcmsError::FaultUnrecoverable { .. }), "{err}");
}

/// Resilience is free when off: output and every counter bit-identical
/// to the plain driver on the adversarial input.
#[test]
fn disabled_injector_costs_nothing_on_worst_case() {
    let p = thrust_like();
    let n = p.block_elems() * 8;
    let input = WorstCaseBuilder::new(p.w, p.e, p.b).unwrap().build(n).unwrap();
    let (plain_out, plain_rep) = sort_on(&input, &p, &SimBackend, &SortSpec::default()).unwrap();
    let (out, rep, faults) = sort_resilient_on(
        &input,
        &p,
        &SimBackend,
        &SortSpec::default(),
        &FaultInjector::disabled(),
        &RecoveryPolicy::default(),
    )
    .unwrap();
    assert_eq!(out, plain_out);
    assert_eq!(rep, plain_rep);
    assert!(faults.clean());
}

fn field(record: &Record, key: &str) -> FieldValue {
    let found = record.fields.iter().find(|f| f.key == key);
    found.unwrap_or_else(|| panic!("{} lacks `{key}`", record.name)).value.clone()
}

fn count(record: &Record, key: &str) -> usize {
    match field(record, key) {
        FieldValue::U64(v) => v as usize,
        other => panic!("{} field `{key}` is {other:?}", record.name),
    }
}

/// Observing a resilient sort changes nothing and misses nothing: under
/// a recording `Obs`, the run opens one `sort-resilient` span, every
/// injected fault is exactly one `fault-injected` event whose
/// coordinates replay it on the injector, the `fault_*` counters equal
/// the returned fault report, and output and both reports are identical
/// to the unobserved run.
#[test]
fn traced_resilient_sort_reports_every_fault_once() {
    let p = thrust_like();
    let n = p.block_elems() * 16;
    let input = WorstCaseBuilder::new(p.w, p.e, p.b).unwrap().build(n).unwrap();
    let seed = 42;
    let inj = FaultInjector::new(FaultConfig {
        seed,
        tile_bitflip_rate: 0.25,
        corank_rate: 0.25,
        ..FaultConfig::default()
    });
    let policy = RecoveryPolicy::default();

    for algorithm in AlgorithmKind::ALL {
        let plain = SortSpec { algorithm, ..SortSpec::default() };
        let untraced = sort_resilient_on(&input, &p, &SimBackend, &plain, &inj, &policy).unwrap();

        let ring = Arc::new(RingCollector::new());
        let obs = Obs::with_recorder(ring.clone(), Clock::virtual_us(1));
        let traced_spec = SortSpec { algorithm, obs: &obs };
        let traced =
            sort_resilient_on(&input, &p, &SimBackend, &traced_spec, &inj, &policy).unwrap();
        assert_eq!(traced, untraced, "{algorithm}: observation must not perturb the sort");

        let (records, dropped) = ring.snapshot();
        assert_eq!(dropped, 0);
        let opened = records.iter().filter(|r| r.phase == Phase::Begin);
        assert_eq!(opened.filter(|r| r.name == "sort-resilient").count(), 1, "{algorithm}");

        let c = &traced.2.counters;
        assert!(c.tile_faults > 0 && c.corank_faults > 0, "{algorithm}: storm fired too little");
        let events: Vec<&Record> = records.iter().filter(|r| r.name == "fault-injected").collect();
        assert_eq!(events.len(), c.tile_faults + c.corank_faults, "{algorithm}");
        let mut seen = HashSet::new();
        for ev in &events {
            assert_eq!(field(ev, "seed"), FieldValue::U64(seed));
            let FieldValue::Str(kind) = field(ev, "kind") else { panic!("{ev:?}") };
            let (round, unit, attempt) =
                (count(ev, "round"), count(ev, "unit"), count(ev, "attempt"));
            let replays = match kind.as_str() {
                "tile-bitflip" => inj.tile_fault_at(round, unit, attempt),
                "corank" => inj.corank_fault_at(round, unit, attempt),
                other => panic!("unknown fault kind {other}"),
            };
            assert!(replays, "{algorithm}: {ev:?} does not replay on the injector");
            assert!(seen.insert((kind, round, unit, attempt)), "{algorithm}: {ev:?} twice");
        }

        let metric = |name: &str| obs.metrics.counter(name).get() as usize;
        assert_eq!(metric("faults_injected_total"), c.tile_faults + c.corank_faults);
        assert_eq!(metric("faults_detected_total"), c.detected);
        assert_eq!(metric("fault_retries_total"), c.retries);
        assert_eq!(metric("fault_cpu_fallbacks_total"), c.cpu_fallbacks);
    }
}

/// A dataset written for an external GPU harness, torn by the injector
/// at any point: the reader reports a typed corruption error, never a
/// short key vector.
#[test]
fn torn_dataset_reads_fail_loudly() {
    let keys = WorstCaseBuilder::new(8, 3, 16).unwrap().build(96).unwrap();
    let mut bytes = Vec::new();
    write_keys(&mut bytes, &keys).unwrap();
    assert_eq!(read_keys(&bytes[..]).unwrap(), keys, "intact file must round-trip");

    let inj =
        FaultInjector::new(FaultConfig { seed: 17, truncate_rate: 1.0, ..FaultConfig::default() });
    for tag in 0..16 {
        let cut = inj.truncate_dataset(bytes.len(), tag).unwrap();
        let err = read_keys(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, WcmsError::DatasetCorrupt { .. } | WcmsError::Io(_)),
            "cut {cut}: {err}"
        );
    }
}
