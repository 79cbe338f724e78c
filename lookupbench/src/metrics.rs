//! End-to-end and per-layer metrics, computed from the passes' round records.
//!
//! Timings use every timed round. Counts use only the first [`COUNT_ROUNDS`]
//! rounds, which every pass runs whatever the machine's speed, so a count metric
//! repeats exactly for a seed.

use crate::check::Verdict;
use crate::workload::{PassOutput, RoundRecord};

/// Rounds the count metrics cover; also the fewest rounds a timed pass runs, so
/// that the reported round p90 has at least ten rounds beyond it.
pub const COUNT_ROUNDS: usize = 110;

/// End-to-end metrics: name and unit, in reporting order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("lookups_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("hops_mean", "hops"),
    ("hops_p99", "hops"),
    ("messages_per_lookup", "hops"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit, in reporting order.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("core.build_s", "s"),
    ("overlay.freeze_ms", "ms"),
    ("overlay.snapshot_bytes_per_node", "B"),
    ("overlay.apply_delta_us", "us"),
    ("overlay.rows_patched", "rows"),
    ("overlay.compactions", "count"),
    ("overlay.rebuild_fallbacks", "count"),
    ("routing.kernel_ns_per_lookup", "ns"),
    ("routing.kernel_ns_per_hop", "ns"),
    ("engine.batch_ns_per_lookup", "ns"),
    ("engine.unexplained_share", "share"),
    ("engine.shard_imbalance", "ratio"),
    ("engine.cache_hit_share", "share"),
    ("engine.cache_correct_hit_share", "share"),
    ("engine.invalidate_us", "us"),
    ("engine.routes_evicted", "count"),
    ("engine.retry_share", "share"),
    ("engine.retry_delivered_share", "share"),
    ("construction.join_us", "us"),
    ("construction.leave_us", "us"),
    ("construction.rows_per_event", "rows"),
    ("failure.event_us", "us"),
    ("failure.nodes_downed", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value; never NaN or infinite.
    pub value: f64,
    /// Observations the value summarises (rounds, lookups or calls).
    pub samples: u64,
}

/// `numerator / denominator`, or 0 when there is nothing to divide.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Linear-interpolated quantile of a sorted slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Quantile `q` of an integer hop histogram, interpolated inside the hop count
/// that holds it (hop count `h` spans `(h - 1, h]`), so that it moves smoothly
/// with the distribution instead of jumping by whole hops.
#[must_use]
pub fn hop_quantile(hop_counts: &[u64], q: f64) -> f64 {
    let total: u64 = hop_counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut below = 0u64;
    for (hops, &count) in hop_counts.iter().enumerate() {
        if count > 0 && (below + count) as f64 >= rank {
            let inside = (rank - below as f64) / count as f64;
            return (hops as f64 - 1.0 + inside).max(0.0);
        }
        below += count;
    }
    (hop_counts.len() - 1) as f64
}

/// The first [`COUNT_ROUNDS`] rounds.
#[must_use]
pub fn count_window(rounds: &[RoundRecord]) -> &[RoundRecord] {
    &rounds[..rounds.len().min(COUNT_ROUNDS)]
}

/// The checker's verdicts summed over `rounds`.
#[must_use]
pub fn total_verdict(rounds: &[RoundRecord]) -> Verdict {
    let mut total = Verdict::default();
    for verdict in rounds.iter().filter_map(|r| r.verdict.as_ref()) {
        total.absorb(verdict);
    }
    total
}

/// Verified lookups per second: the share of the pass's lookups the checker
/// accepted times [`answered_per_s`], so a wrong answer counts as a failure,
/// never as throughput. 0 on a pass that was not checked. The share is taken
/// over the whole pass, not per round: on `zipf-cache` it steps with each fill
/// of the hot cache entry, and a median of per-round rates would jump between
/// those steps.
#[must_use]
pub fn lookups_per_s(rounds: &[RoundRecord]) -> f64 {
    let verdict = total_verdict(rounds);
    ratio(verdict.verified() as f64, verdict.attempted as f64) * answered_per_s(rounds)
}

/// Answered lookups per second, wrong answers included: the median over rounds of
/// the round's lookups ÷ its timed wall time, so one round stalled by the machine
/// does not move it. The passes that are not checked are compared by this rate.
#[must_use]
pub fn answered_per_s(rounds: &[RoundRecord]) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| ratio(r.lookups as f64, r.wall_ns as f64 * 1e-9))
        .collect();
    median(&rates)
}

/// Quantile `q` of the rounds' timed wall time, in ms. The p90 is printed in the
/// report but is not a gated metric: on a 2-core VM whose host steals CPU in
/// bursts, its spread over ten seeds reached 0.34 of its median.
#[must_use]
pub fn round_ms(rounds: &[RoundRecord], q: f64) -> f64 {
    let mut round_ms: Vec<f64> = rounds.iter().map(|r| r.wall_ns as f64 * 1e-6).collect();
    round_ms.sort_by(f64::total_cmp);
    quantile(&round_ms, q)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is absent.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64, samples: u64) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .expect("every reported metric is declared");
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        samples,
    }
}

/// End-to-end metrics of a checked, untraced pass.
#[must_use]
pub fn end_to_end(checked: &PassOutput) -> Vec<Metric> {
    let e = |name, value, samples| metric(&END_TO_END, name, value, samples);
    let rounds = &checked.rounds;
    let window = total_verdict(count_window(rounds));
    let delivered: u64 = window.hop_counts.iter().sum();
    let hop_sum: u64 = window
        .hop_counts
        .iter()
        .enumerate()
        .map(|(hops, &count)| hops as u64 * count)
        .sum();
    let verified: u64 = total_verdict(rounds).verified();
    let n_rounds = rounds.len() as u64;
    vec![
        e(
            "setup_s",
            median(&checked.setup_s),
            checked.setup_s.len() as u64,
        ),
        e("lookups_per_s", lookups_per_s(rounds), verified),
        e("round_ms_p50", round_ms(rounds, 0.5), n_rounds),
        e(
            "hops_mean",
            ratio(hop_sum as f64, delivered as f64),
            delivered,
        ),
        e(
            "hops_p99",
            hop_quantile(&window.hop_counts, 0.99),
            delivered,
        ),
        e(
            "messages_per_lookup",
            ratio(window.messages as f64, window.attempted as f64),
            window.attempted,
        ),
        e("peak_rss_mb", peak_rss_mb(), 1),
    ]
}

/// Mean of the durations (ns), with their count.
fn mean_ns(durations: impl Iterator<Item = u64>) -> (f64, u64) {
    let (sum, count) = durations.fold((0u64, 0u64), |(s, c), d| (s + d, c + 1));
    (ratio(sum as f64, count as f64), count)
}

/// Per-layer metrics from the checked pass and the three replaying passes over
/// the same rounds: plain, traced (spans on) and bare (`telemetry(false)`).
#[must_use]
pub fn per_layer(
    checked: &PassOutput,
    plain: &PassOutput,
    traced: &PassOutput,
    bare: &PassOutput,
) -> Vec<Metric> {
    let l = |name, value, samples| metric(&PER_LAYER, name, value, samples);
    let spans = &traced.tracer;
    let window = count_window(&traced.rounds);
    let counts = |f: fn(&crate::workload::RoundCounts) -> u64| -> u64 {
        window.iter().map(|r| f(&r.counts)).sum()
    };
    let rounds_in_window = window.len() as u64;
    let checked_window = total_verdict(count_window(&checked.rounds));

    let (build_ns, builds) = mean_ns(spans.all_durations("core.build"));
    let (freeze_ns, freezes) = mean_ns(spans.round_durations("overlay.freeze"));
    let (apply_ns, applies) = mean_ns(spans.round_durations("overlay.apply_delta"));
    let (invalidate_ns, invalidates) = mean_ns(spans.round_durations("engine.invalidate_delta"));
    let (join_ns, joins) = mean_ns(spans.round_durations("construction.join"));
    let (leave_ns, leaves) = mean_ns(spans.round_durations("construction.leave"));
    let failure_ns: u64 = spans
        .round_durations("failure.apply_failure_delta")
        .chain(spans.round_durations("failure.heal_nodes"))
        .sum();
    let failure_events: u64 = traced.rounds.iter().map(|r| r.counts.failure_events).sum();
    let partitions = window.iter().filter(|r| r.counts.nodes_downed > 0).count() as u64;

    let lookups: u64 = traced.rounds.iter().map(|r| r.lookups).sum();
    let (replay_ns, replay_hops) = traced
        .rounds
        .iter()
        .filter_map(|r| r.replay)
        .fold((0u64, 0u64), |(t, h), (rt, rh)| (t + rt, h + rh));
    let batch_ns: u64 = spans
        .round_durations("engine.run_batch_with_snapshot")
        .sum();
    let kernel_share = ratio(
        replay_ns as f64 / traced.engine_threads.max(1) as f64,
        batch_ns as f64,
    );

    let plain_lps = answered_per_s(&plain.rounds);
    let traced_lps = answered_per_s(&traced.rounds);
    let bare_lps = answered_per_s(&bare.rounds);
    let imbalance: f64 = window.iter().map(|r| r.counts.shard_imbalance).sum();
    let churn_events = counts(|c| c.joins + c.leaves);

    vec![
        l("core.build_s", build_ns * 1e-9, builds),
        l("overlay.freeze_ms", freeze_ns * 1e-6, freezes),
        l(
            "overlay.snapshot_bytes_per_node",
            traced.snapshot_bytes_per_node,
            1,
        ),
        l("overlay.apply_delta_us", apply_ns * 1e-3, applies),
        l(
            "overlay.rows_patched",
            ratio(counts(|c| c.rows_patched) as f64, rounds_in_window as f64),
            rounds_in_window,
        ),
        l(
            "overlay.compactions",
            counts(|c| c.compactions) as f64,
            rounds_in_window,
        ),
        l(
            "overlay.rebuild_fallbacks",
            counts(|c| c.rebuild_fallbacks) as f64,
            rounds_in_window,
        ),
        l(
            "routing.kernel_ns_per_lookup",
            ratio(replay_ns as f64, lookups as f64),
            lookups,
        ),
        l(
            "routing.kernel_ns_per_hop",
            ratio(replay_ns as f64, replay_hops as f64),
            replay_hops,
        ),
        l(
            "engine.batch_ns_per_lookup",
            ratio(batch_ns as f64, lookups as f64),
            lookups,
        ),
        l(
            "engine.unexplained_share",
            if batch_ns > 0 {
                1.0 - kernel_share
            } else {
                0.0
            },
            traced.rounds.len() as u64,
        ),
        l(
            "engine.shard_imbalance",
            ratio(imbalance, rounds_in_window as f64),
            rounds_in_window,
        ),
        l(
            "engine.cache_hit_share",
            ratio(
                checked_window.cached as f64,
                checked_window.attempted as f64,
            ),
            checked_window.attempted,
        ),
        l(
            "engine.cache_correct_hit_share",
            ratio(
                checked_window.cached_correct as f64,
                checked_window.cached as f64,
            ),
            checked_window.cached,
        ),
        l("engine.invalidate_us", invalidate_ns * 1e-3, invalidates),
        l(
            "engine.routes_evicted",
            ratio(counts(|c| c.routes_evicted) as f64, rounds_in_window as f64),
            rounds_in_window,
        ),
        l(
            "engine.retry_share",
            ratio(
                checked_window.retried as f64,
                checked_window.attempted as f64,
            ),
            checked_window.attempted,
        ),
        l(
            "engine.retry_delivered_share",
            ratio(
                checked_window.retried_delivered as f64,
                checked_window.retried as f64,
            ),
            checked_window.retried,
        ),
        l("construction.join_us", join_ns * 1e-3, joins),
        l("construction.leave_us", leave_ns * 1e-3, leaves),
        l(
            "construction.rows_per_event",
            ratio(counts(|c| c.churn_rows) as f64, churn_events as f64),
            churn_events,
        ),
        l(
            "failure.event_us",
            ratio(failure_ns as f64 * 1e-3, failure_events as f64),
            failure_events,
        ),
        l(
            "failure.nodes_downed",
            ratio(counts(|c| c.nodes_downed) as f64, partitions as f64),
            partitions,
        ),
        l(
            "telemetry.overhead_ratio",
            ratio(plain_lps, bare_lps),
            plain.rounds.len() as u64,
        ),
        l(
            "trace.overhead_ratio",
            ratio(traced_lps, plain_lps),
            traced.rounds.len() as u64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_quantile_interpolates_inside_a_hop_count() {
        // 50 lookups of 1 hop, 50 of 2 hops.
        let counts = [0, 50, 50];
        assert!((hop_quantile(&counts, 0.5) - 1.0).abs() < 1e-12);
        assert!((hop_quantile(&counts, 0.99) - 1.98).abs() < 1e-12);
        assert!((hop_quantile(&counts, 1.0) - 2.0).abs() < 1e-12);
        assert_eq!(hop_quantile(&[], 0.99), 0.0);
    }

    #[test]
    fn quantile_interpolates_linearly() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&sorted, 0.5), 3.0);
        assert!((quantile(&sorted, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
