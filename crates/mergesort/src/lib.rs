//! # `wcms-mergesort` — the GPU pairwise merge sort, simulated
//!
//! A faithful re-implementation of the Thrust / Modern GPU pairwise merge
//! sort (§II-A of the paper) executing on the simulated GPU of
//! [`wcms_gpu_sim`], with every shared-memory access charged its DMM
//! serialization cost and every global access its coalescing cost.
//!
//! Structure (all parameters per [`params::SortParams`]):
//!
//! 1. **Base case** ([`blocksort`]) — each thread block sorts `bE`
//!    elements in shared memory: per-thread odd–even register sort
//!    ([`network`]), then `log₂ b` in-block Merge Path rounds.
//! 2. **Global rounds** ([`globalmerge`]) — `⌈log₂ N/(bE)⌉` pairwise
//!    rounds; in round `i`, `2ⁱ` blocks cooperate per pair, each finding
//!    its `bE` quantile by mutual binary search in global memory and
//!    merging it in shared memory.
//!
//! [`driver::sort_on`] runs the whole pipeline (Rayon-parallel across
//! blocks, deterministically reduced) and returns a
//! [`instrument::SortReport`] with per-round, per-phase conflict counts —
//! the quantities behind every figure in the paper's evaluation. A
//! [`driver::SortSpec`] says which merge algorithm the global rounds use
//! and which [`wcms_obs::Obs`] bundle observes them; its `Default` is the
//! paper's pairwise sort, unobserved. [`assess::assess_input`] turns a
//! report into a one-call verdict on how adversarial an arbitrary
//! workload is for a tuning.
//!
//! [`driver::sort_resilient_on`] runs the same pipeline — one round
//! loop — with a fault layer over its work units: a seeded
//! [`wcms_gpu_sim::fault::FaultInjector`] strikes them, per-unit
//! corruption checks ([`verify::check_round_output`]) catch the
//! strikes, and bounded retry from each unit's immutable input then
//! CPU-reference degradation recover — transient faults are detected
//! and recovered, never silently propagated.
//!
//! Both drivers are generic over a pluggable [`backend::ExecBackend`]
//! that executes one work unit at a time: the cycle-accurate
//! [`backend::SimBackend`] (the default), the order-of-magnitude-faster
//! [`backend::AnalyticBackend`] with integer-identical counters, and the
//! counter-free CPU [`backend::ReferenceBackend`] that also serves as
//! the resilient degrade ladder's bottom rung. All three share the
//! per-thread address schedules of [`schedule`].
//! [`backend::BackendKind::sort`] picks the backend at run time and
//! makes the sort cancellable through [`backend::Cancellable`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod analysis;
pub mod assess;
pub mod backend;
pub mod bitonic;
pub mod blocksort;
pub mod driver;
pub mod globalmerge;
pub mod instrument;
pub mod network;
pub mod params;
pub mod schedule;
pub mod verify;
pub mod warp_exec;

pub use algorithm::{AlgorithmKind, MultiwayMerge, PairwiseMerge, SortAlgorithm};
pub use assess::{assess_input, ConflictSeverity, InputAssessment};
pub use backend::{
    AnalyticBackend, BackendKind, Cancellable, ExecBackend, ReferenceBackend, SimBackend,
};
pub use bitonic::bitonic_sort_with_report;
pub use driver::{
    sort_on, sort_padded, sort_resilient_on, sort_with_report_on, FaultReport, RecoveryPolicy,
    SortSpec,
};
pub use instrument::{PhaseTotals, RoundCounters, SortReport};
pub use params::SortParams;
