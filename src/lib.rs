//! # `wcms` — Worst-Case inputs for pairwise Merge Sort on GPUs
//!
//! Facade crate re-exporting the full reproduction of Berney & Sitchinava,
//! *"Engineering Worst-Case Inputs for Pairwise Merge Sort on GPUs"*
//! (IPDPS 2020). See the README for the architecture overview and
//! DESIGN.md for the per-experiment index.
//!
//! * [`dmm`] — the Distributed Memory Machine model (banks + conflicts);
//! * [`gpu`] — the warp-lockstep GPU simulator (shared/global memory,
//!   occupancy, cost model, device presets);
//! * [`mergepath`] — GPU Merge Path partitioning and merging;
//! * [`mergesort`] — the Thrust/Modern-GPU-style pairwise merge sort
//!   running on the simulator;
//! * [`adversary`] — the paper's constructive worst-case input generator
//!   (the core contribution);
//! * [`workloads`] — seeded input distributions;
//! * [`error`] — the shared [`WcmsError`] taxonomy every crate reports
//!   through.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use wcms_core as adversary;
pub use wcms_dmm as dmm;
pub use wcms_error as error;
pub use wcms_error::{Result, WcmsError};
pub use wcms_gpu_sim as gpu;
pub use wcms_mergepath as mergepath;
pub use wcms_mergesort as mergesort;
pub use wcms_workloads as workloads;

/// Compiles and runs the README's code blocks as doctests, so the
/// library tour cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
