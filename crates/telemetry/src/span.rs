//! Named engine phases, RAII span timers, and per-phase nanosecond totals.

use crate::histogram::Histogram;
use std::time::Instant;

/// Number of named phases (the length of [`Phase::ALL`]).
pub const NUM_PHASES: usize = 5;

/// The engine's timed phases. Each owns one wall-time histogram in the
/// [`crate::Telemetry`] handle; a [`Span`] records into it on drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Compiling the overlay into a `FrozenRoutes` CSR snapshot.
    Freeze,
    /// Applying a typed `ChurnDelta` to the snapshot.
    ApplyDelta,
    /// Evicting stale route-cache entries after churn.
    Invalidate,
    /// One shard worker routing its slice of a batch.
    BatchShard,
    /// Compacting the snapshot's overflow/tombstones back to dense CSR.
    Compact,
}

impl Phase {
    /// Every phase, in stable reporting order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Freeze,
        Phase::ApplyDelta,
        Phase::Invalidate,
        Phase::BatchShard,
        Phase::Compact,
    ];

    /// Stable snake_case name (used as the JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Freeze => "freeze",
            Phase::ApplyDelta => "apply_delta",
            Phase::Invalidate => "invalidate",
            Phase::BatchShard => "batch_shard",
            Phase::Compact => "compact",
        }
    }

    /// Index into per-phase arrays (matches [`Phase::ALL`] order).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An RAII phase timer: records the elapsed wall nanoseconds into its phase's
/// histogram when dropped. A span from a disabled [`crate::Telemetry`] handle is
/// inert — it never reads the clock.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; binding it to _ drops it immediately"]
pub struct Span<'a> {
    target: Option<(&'a Histogram, Instant)>,
}

impl<'a> Span<'a> {
    /// Starts a live span against `histogram`.
    pub(crate) fn active(histogram: &'a Histogram) -> Self {
        Self {
            target: Some((histogram, Instant::now())),
        }
    }

    /// An inert span (disabled telemetry).
    pub(crate) fn noop() -> Self {
        Self { target: None }
    }

    /// Returns `true` if this span will record on drop.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.target.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((histogram, start)) = self.target.take() {
            histogram.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Total nanoseconds per phase — the cheap scalar view of the phase histograms,
/// used for per-epoch breakdowns ([`PhaseNanos::saturating_sub`] diffs two
/// cumulative readings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    nanos: [u64; NUM_PHASES],
}

impl PhaseNanos {
    /// Builds a reading by sampling each phase.
    #[must_use]
    pub fn from_fn(mut total_for: impl FnMut(Phase) -> u64) -> Self {
        let mut nanos = [0u64; NUM_PHASES];
        for phase in Phase::ALL {
            nanos[phase.index()] = total_for(phase);
        }
        Self { nanos }
    }

    /// Nanoseconds attributed to `phase`.
    #[must_use]
    pub fn get(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Sum across all phases.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Per-phase difference against an earlier cumulative reading, clamped at
    /// zero.
    #[must_use]
    pub fn saturating_sub(&self, earlier: &PhaseNanos) -> PhaseNanos {
        let mut nanos = [0u64; NUM_PHASES];
        for (i, slot) in nanos.iter_mut().enumerate() {
            *slot = self.nanos[i].saturating_sub(earlier.nanos[i]);
        }
        Self { nanos }
    }

    /// Iterates `(phase, nanoseconds)` in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.into_iter().map(move |p| (p, self.get(p)))
    }

    /// Hand-rolled JSON object: `{"freeze_ns":…,…,"total_ns":…}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (phase, nanos) in self.iter() {
            out.push_str(&format!("\"{}_ns\":{},", phase.name(), nanos));
        }
        out.push_str(&format!("\"total_ns\":{}}}", self.total()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_all_order_matches_indices() {
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        assert_eq!(Phase::ALL.len(), NUM_PHASES);
    }

    #[test]
    fn active_span_records_one_observation_on_drop() {
        let h = Histogram::new();
        {
            let span = Span::active(&h);
            assert!(span.is_active());
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn noop_span_records_nothing() {
        let span = Span::noop();
        assert!(!span.is_active());
        drop(span);
    }

    #[test]
    fn phase_nanos_diff_and_total() {
        let a = PhaseNanos::from_fn(|p| p.index() as u64 * 10);
        let b = PhaseNanos::from_fn(|p| p.index() as u64 * 25);
        let delta = b.saturating_sub(&a);
        assert_eq!(delta.get(Phase::Freeze), 0);
        assert_eq!(delta.get(Phase::Compact), 60);
        assert_eq!(a.saturating_sub(&b), PhaseNanos::default());
        assert_eq!(b.total(), (1 + 2 + 3 + 4) * 25);
    }

    #[test]
    fn phase_nanos_json_is_balanced_and_keyed_by_phase_names() {
        let json = PhaseNanos::from_fn(|p| p.index() as u64).to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for phase in Phase::ALL {
            assert!(json.contains(&format!("\"{}_ns\":", phase.name())));
        }
        assert!(json.contains("\"total_ns\":10"));
    }
}
