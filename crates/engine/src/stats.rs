//! Batch-level results and statistics.

use faultline_overlay::NodeId;
use faultline_sim::Summary;
use std::time::Duration;

/// The outcome of one query in a batch.
///
/// A lookup is priced in messages, not wall time: every field is fixed by the
/// batch, its seed, the topology and the shard's cache state, so two runs of the
/// same batch compare equal with `==` at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Source node of the lookup.
    pub source: NodeId,
    /// Target node of the lookup.
    pub target: NodeId,
    /// Whether the lookup reached its target (possibly as reported by a cached route).
    pub delivered: bool,
    /// Hop count (delivery time in messages).
    pub hops: u64,
    /// Fault-strategy interventions.
    pub recoveries: u64,
    /// Whether the result came from the route cache.
    pub cached: bool,
    /// Walks issued for this lookup: `1` on the honest path, `1..=redundancy` on the
    /// byzantine lane (retries stop at the first delivered walk), and `0` for
    /// pre-failed lookups whose endpoints lie outside the space — no walk was ever
    /// issued, and they weigh [`BatchReport::mean_attempts`] accordingly.
    pub attempts: u32,
    /// Walks swallowed by a Byzantine node (`0` on the honest path).
    pub adversary_drops: u32,
    /// Hops summed over **every** walk — the bandwidth cost of the lookup. Equals
    /// [`QueryOutcome::hops`] on the honest path; on the byzantine lane `hops` is the
    /// winning walk's latency cost while `total_hops` is what the network paid.
    pub total_hops: u64,
}

/// Success/hop digest of one side of a batch's honest-vs-contested split
/// (see [`BatchReport::adversary_split`]).
#[derive(Debug, Clone)]
pub struct AdversarySplit {
    /// Lookups on this side of the split.
    pub queries: usize,
    /// Delivered lookups on this side.
    pub delivered: usize,
    /// Delivered fraction (1.0 when the side is empty).
    pub success_rate: f64,
    /// Hop percentiles over delivered lookups on this side (winning-walk hops).
    pub hops: Option<Summary>,
}

/// Aggregate report for one executed batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    outcomes: Vec<QueryOutcome>,
    wall: Duration,
    threads: usize,
    byzantine: bool,
}

impl BatchReport {
    pub(crate) fn with_mode(
        outcomes: Vec<QueryOutcome>,
        wall: Duration,
        threads: usize,
        byzantine: bool,
    ) -> Self {
        Self {
            outcomes,
            wall,
            threads,
            byzantine,
        }
    }

    /// Per-query outcomes, in batch order.
    #[must_use]
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    /// Number of queries executed.
    #[must_use]
    pub fn queries(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of delivered lookups.
    #[must_use]
    pub fn delivered(&self) -> usize {
        self.outcomes.iter().filter(|o| o.delivered).count()
    }

    /// Fraction of lookups that delivered (1.0 for an empty batch).
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.delivered() as f64 / self.outcomes.len() as f64
        }
    }

    /// Number of results served from the route cache.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cached).count()
    }

    /// Wall-clock time the whole batch took.
    #[must_use]
    pub fn wall_time(&self) -> Duration {
        self.wall
    }

    /// Worker threads the batch ran on.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queries per second of wall-clock time. Returns `0.0` when no measurable time
    /// elapsed (empty batch, or a clock too coarse to observe it), so the JSON export
    /// never contains a non-finite number.
    #[must_use]
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// Hop-count summary over **delivered** lookups (the paper's delivery-time metric).
    /// `None` if nothing delivered.
    #[must_use]
    pub fn hop_summary(&self) -> Option<Summary> {
        Summary::of(
            self.outcomes
                .iter()
                .filter(|o| o.delivered)
                .map(|o| o.hops as f64),
        )
    }

    /// Whether this batch ran on the byzantine lane (redundant walks over an
    /// adversary set). Honest batches — including byzantine-configured engines whose
    /// resolved set was empty — report `false`.
    #[must_use]
    pub fn is_byzantine(&self) -> bool {
        self.byzantine
    }

    /// Lookups that lost at least one walk to an adversary (`0` on honest batches).
    #[must_use]
    pub fn contested_queries(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.adversary_drops > 0)
            .count()
    }

    /// Walks swallowed by adversaries across the whole batch.
    #[must_use]
    pub fn dropped_walks(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| u64::from(o.adversary_drops))
            .sum()
    }

    /// Mean walks issued per lookup (1.0 on honest batches, 0.0 when empty).
    #[must_use]
    pub fn mean_attempts(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let walks: u64 = self.outcomes.iter().map(|o| u64::from(o.attempts)).sum();
        walks as f64 / self.outcomes.len() as f64
    }

    /// Hops summed over every walk of every lookup — the batch's total bandwidth
    /// cost. On honest batches this equals the plain hop total; the ratio against an
    /// honest baseline is the redundancy overhead the byzantine lane pays.
    #[must_use]
    pub fn total_route_hops(&self) -> u64 {
        self.outcomes.iter().map(|o| o.total_hops).sum()
    }

    /// Splits the batch into lookups untouched by adversaries (`contested == false`:
    /// honest success/hop percentiles) and lookups that lost at least one
    /// walk (`contested == true`: the adversarial tail). On honest batches the
    /// contested side is empty.
    #[must_use]
    pub fn adversary_split(&self, contested: bool) -> AdversarySplit {
        let side: Vec<&QueryOutcome> = self
            .outcomes
            .iter()
            .filter(|o| (o.adversary_drops > 0) == contested)
            .collect();
        let delivered = side.iter().filter(|o| o.delivered).count();
        AdversarySplit {
            queries: side.len(),
            delivered,
            success_rate: if side.is_empty() {
                1.0
            } else {
                delivered as f64 / side.len() as f64
            },
            hops: Summary::of(side.iter().filter(|o| o.delivered).map(|o| o.hops as f64)),
        }
    }

    /// Renders the report as a JSON object (hand-rolled: the workspace builds offline
    /// and carries no JSON dependency). Byzantine-lane batches gain an `"adversary"`
    /// section with the honest-vs-contested split.
    #[must_use]
    pub fn to_json(&self) -> String {
        let hops = self.hop_summary();
        let quantiles =
            |s: &Option<Summary>, f: fn(&Summary) -> f64| -> f64 { s.as_ref().map_or(0.0, f) };
        let adversary = if self.byzantine {
            let split_json = |split: &AdversarySplit| -> String {
                format!(
                    concat!(
                        "{{\"queries\":{},\"success_rate\":{:.6},",
                        "\"hops_p50\":{:.1},\"hops_p99\":{:.1}}}"
                    ),
                    split.queries,
                    split.success_rate,
                    quantiles(&split.hops, |s| s.median),
                    quantiles(&split.hops, |s| s.p99),
                )
            };
            format!(
                concat!(
                    ",\"adversary\":{{\"contested_queries\":{},\"dropped_walks\":{},",
                    "\"mean_attempts\":{:.3},\"total_route_hops\":{},",
                    "\"clean\":{},\"contested\":{}}}"
                ),
                self.contested_queries(),
                self.dropped_walks(),
                self.mean_attempts(),
                self.total_route_hops(),
                split_json(&self.adversary_split(false)),
                split_json(&self.adversary_split(true)),
            )
        } else {
            String::new()
        };
        format!(
            concat!(
                "{{\"queries\":{},\"delivered\":{},\"success_rate\":{:.6},",
                "\"cache_hits\":{},\"threads\":{},\"wall_ms\":{:.3},",
                "\"queries_per_sec\":{:.1},",
                "\"hops\":{{\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1},\"mean\":{:.3}}}{}}}"
            ),
            self.queries(),
            self.delivered(),
            self.success_rate(),
            self.cache_hits(),
            self.threads,
            self.wall.as_secs_f64() * 1e3,
            self.queries_per_sec(),
            quantiles(&hops, |s| s.median),
            quantiles(&hops, |s| s.p95),
            quantiles(&hops, |s| s.p99),
            quantiles(&hops, |s| s.mean),
            adversary,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(delivered: bool, hops: u64, cached: bool) -> QueryOutcome {
        QueryOutcome {
            source: 0,
            target: 1,
            delivered,
            hops,
            recoveries: 0,
            cached,
            attempts: 1,
            adversary_drops: 0,
            total_hops: hops,
        }
    }

    #[test]
    fn aggregates_count_correctly() {
        let report = BatchReport::with_mode(
            vec![
                outcome(true, 4, false),
                outcome(true, 8, true),
                outcome(false, 2, false),
            ],
            Duration::from_millis(10),
            4,
            false,
        );
        assert_eq!(report.queries(), 3);
        assert_eq!(report.delivered(), 2);
        assert!((report.success_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.cache_hits(), 1);
        assert_eq!(report.threads(), 4);
        let hops = report.hop_summary().unwrap();
        assert_eq!(hops.count, 2);
        assert_eq!(hops.mean, 6.0);
        assert!(report.queries_per_sec() > 0.0);
    }

    #[test]
    fn empty_batch_is_vacuously_successful() {
        let report = BatchReport::with_mode(vec![], Duration::from_millis(1), 1, false);
        assert_eq!(report.success_rate(), 1.0);
        assert!(report.hop_summary().is_none());
    }

    #[test]
    fn json_has_the_headline_fields() {
        let report = BatchReport::with_mode(
            vec![outcome(true, 4, false)],
            Duration::from_millis(2),
            2,
            false,
        );
        let json = report.to_json();
        for field in [
            "\"queries\":1",
            "\"success_rate\":1.000000",
            "\"queries_per_sec\"",
            "\"p95\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(
            !json.contains("\"adversary\""),
            "honest batches carry no adversary section"
        );
    }

    #[test]
    fn adversary_split_separates_clean_and_contested_lookups() {
        let mut contested_delivered = outcome(true, 9, false);
        contested_delivered.attempts = 3;
        contested_delivered.adversary_drops = 2;
        contested_delivered.total_hops = 21;
        let mut contested_lost = outcome(false, 30, false);
        contested_lost.attempts = 4;
        contested_lost.adversary_drops = 4;
        contested_lost.total_hops = 30;
        let report = BatchReport::with_mode(
            vec![outcome(true, 5, false), contested_delivered, contested_lost],
            Duration::from_millis(1),
            1,
            true,
        );
        assert!(report.is_byzantine());
        assert_eq!(report.contested_queries(), 2);
        assert_eq!(report.dropped_walks(), 6);
        assert!((report.mean_attempts() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.total_route_hops(), 5 + 21 + 30);
        let clean = report.adversary_split(false);
        assert_eq!(clean.queries, 1);
        assert_eq!(clean.delivered, 1);
        assert_eq!(clean.success_rate, 1.0);
        assert_eq!(clean.hops.unwrap().mean, 5.0);
        let contested = report.adversary_split(true);
        assert_eq!(contested.queries, 2);
        assert_eq!(contested.delivered, 1);
        assert!((contested.success_rate - 0.5).abs() < 1e-12);
        assert_eq!(
            contested.hops.unwrap().mean,
            9.0,
            "only delivered hops count"
        );
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for field in [
            "\"adversary\"",
            "\"contested_queries\":2",
            "\"dropped_walks\":6",
            "\"mean_attempts\":2.667",
            "\"total_route_hops\":56",
            "\"clean\"",
            "\"contested\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn empty_splits_are_vacuously_successful() {
        let report = BatchReport::with_mode(
            vec![outcome(true, 4, false)],
            Duration::from_millis(1),
            1,
            false,
        );
        assert!(!report.is_byzantine());
        let contested = report.adversary_split(true);
        assert_eq!(contested.queries, 0);
        assert_eq!(contested.success_rate, 1.0);
        assert!(contested.hops.is_none());
        assert_eq!(report.mean_attempts(), 1.0);
    }
}
