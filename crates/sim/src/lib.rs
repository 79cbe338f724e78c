//! Deterministic simulation substrate for `faultline` experiments.
//!
//! The paper's evaluation (Section 6) is an application-level simulation: build an
//! overlay, damage it, route many messages, repeat over many freshly built networks, and
//! average. This crate provides the machinery that makes those experiments reproducible
//! and fast:
//!
//! * [`seed_for_trial`] and [`trial_rng`] — deterministic per-trial RNG derivation so that
//!   trial `i` of an experiment is identical no matter how many threads run it.
//! * [`ExperimentRunner`] — a thread-parallel multi-trial runner with ordered, reproducible
//!   result collection.
//! * [`Summary`] / [`Accumulator`] — summary statistics (mean, standard deviation,
//!   quantiles, standard error) for hop counts and failure fractions.
//!
//! The substrate is deliberately independent of the overlay types: it runs closures. That
//! keeps it reusable for the baseline overlays (Chord, Kleinberg grid) as well.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod rng;
mod runner;
mod stats;
mod workload;

pub use rng::{seed_for_trial, trial_rng};
pub use runner::{ExperimentRunner, TrialOutput};
pub use stats::{Accumulator, Summary};
pub use workload::Workload;
