//! Verified-lookup benchmark for the faultline engine.
//!
//! Three closed-loop workloads drive the program through its public calls only;
//! every lookup is recomputed by [`check`] outside the timed region, so a wrong
//! answer counts as a failure, never as throughput. [`metrics`] turns the round
//! records into the end-to-end metrics (untraced pass) and the per-layer metrics
//! (traced pass, [`trace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod metrics;
pub mod report;
pub mod trace;
pub mod workload;

use check::Fault;
use metrics::Metric;
use workload::{run_pass, Between, PassOutput, PassSpec, Rounds};

/// What one benchmark invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// The checked, untraced pass.
    pub checked: PassOutput,
    /// Metrics to report: end-to-end, or per-layer on a traced invocation.
    pub metrics: Vec<Metric>,
    /// The traced pass, on a traced invocation.
    pub traced: Option<PassOutput>,
}

/// Runs the checked pass of `spec`. With `trace`, also three passes over the same
/// number of rounds that replay the kernel after each batch instead of checking
/// it: a plain one, a traced one and a `telemetry(false)` one. They do the same
/// untimed work between rounds, so their rates compare the tracer and the
/// telemetry alone, and their outcomes must repeat the checked pass's round for
/// round.
///
/// # Errors
///
/// Returns the first structural [`Fault`]: a missing outcome, a count mismatch or
/// a digest mismatch between passes.
pub fn run(spec: &PassSpec, trace: bool) -> Result<Outcome, Fault> {
    let checked = run_pass(&PassSpec {
        between: Between::Check,
        trace: false,
        telemetry: true,
        ..*spec
    })?;
    if !trace {
        let metrics = metrics::end_to_end(&checked);
        return Ok(Outcome {
            checked,
            metrics,
            traced: None,
        });
    }
    let repeat = |trace: bool, telemetry: bool, pass: &'static str| {
        let output = run_pass(&PassSpec {
            between: Between::Replay,
            trace,
            telemetry,
            setups: 1,
            rounds: Rounds::Exact(checked.rounds.len()),
            ..*spec
        })?;
        same_outcomes(&checked, &output, pass)?;
        Ok::<_, Fault>(output)
    };
    let plain = repeat(false, true, "plain")?;
    let traced = repeat(true, true, "traced")?;
    let bare = repeat(false, false, "telemetry-off")?;
    let metrics = metrics::per_layer(&checked, &plain, &traced, &bare);
    Ok(Outcome {
        checked,
        metrics,
        traced: Some(traced),
    })
}

fn same_outcomes(
    checked: &PassOutput,
    other: &PassOutput,
    pass: &'static str,
) -> Result<(), Fault> {
    let rounds = checked.rounds.len().max(other.rounds.len());
    match (0..rounds)
        .find(|&i| checked.rounds.get(i).map(|r| r.digest) != other.rounds.get(i).map(|r| r.digest))
    {
        Some(round) => Err(Fault::DigestMismatch {
            pass,
            round: round as u32,
        }),
        None => Ok(()),
    }
}

/// Digest of a whole pass: its round digests folded in order.
#[must_use]
pub fn run_digest(pass: &PassOutput) -> u64 {
    pass.rounds.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, r| {
        (acc ^ r.digest)
            .wrapping_mul(0x0100_0000_01b3)
            .rotate_left(17)
    })
}
