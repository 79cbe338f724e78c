//! Engine configuration.

use crate::failures::FailureSchedule;
use faultline_routing::{ByzantineSet, FaultStrategy};
use std::fmt;

/// How the engine decides which nodes are Byzantine.
#[derive(Debug, Clone, PartialEq)]
pub enum ByzantineMembership {
    /// Sample this fraction of the alive nodes when the engine first sees the
    /// network, using an RNG seeded with `seed` (deterministic per `(network, seed)`).
    Fraction {
        /// Fraction of the alive population to corrupt, in `[0, 1]`.
        fraction: f64,
        /// Seed for the membership sample.
        seed: u64,
    },
    /// An explicit, caller-chosen adversary set.
    Explicit(ByzantineSet),
}

/// Adversary specification for a [`QueryEngine`](crate::QueryEngine): who is
/// Byzantine, how many redundant walks each lookup issues, and (optionally) which
/// fault strategy those walks recover with.
///
/// When present on an [`EngineConfig`], every batch routes through
/// [`RedundantRouter::route_frozen`](faultline_routing::RedundantRouter::route_frozen)
/// over the shared CSR snapshot — the byzantine workload lane. An *empty* resolved
/// set short-circuits to the honest batch path bit-for-bit (no redundancy overhead),
/// so a fraction of `0.0` is an exact honest baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ByzantineConfig {
    membership: ByzantineMembership,
    redundancy: u32,
    strategy: Option<FaultStrategy>,
}

impl ByzantineConfig {
    /// Default redundant walks per lookup. Four diversified walks recover the large
    /// majority of lookups at ≤15% corruption (see `BENCH_engine.json`'s `byzantine`
    /// section) while keeping bandwidth overhead bounded.
    pub const DEFAULT_REDUNDANCY: u32 = 4;

    /// Corrupts a uniformly random `fraction` of the alive nodes (sampled once, when
    /// the engine first routes over a network, from `seed`).
    ///
    /// A fraction outside `[0, 1]` is reported as
    /// [`ConfigError::ByzantineFractionOutOfRange`] by [`EngineConfig::validate`],
    /// not rejected here.
    #[must_use]
    pub fn fraction(fraction: f64, seed: u64) -> Self {
        Self {
            membership: ByzantineMembership::Fraction { fraction, seed },
            redundancy: Self::DEFAULT_REDUNDANCY,
            strategy: None,
        }
    }

    /// Marks an explicit set of nodes as Byzantine.
    #[must_use]
    pub fn explicit(set: ByzantineSet) -> Self {
        Self {
            membership: ByzantineMembership::Explicit(set),
            redundancy: Self::DEFAULT_REDUNDANCY,
            strategy: None,
        }
    }

    /// Sets the number of diversified walks per lookup. Zero walks would make every
    /// lookup fail by construction, so `0` is reported as
    /// [`ConfigError::ByzantineZeroRedundancy`] by [`EngineConfig::validate`].
    #[must_use]
    pub fn redundancy(mut self, redundancy: u32) -> Self {
        self.redundancy = redundancy;
        self
    }

    /// Overrides the fault strategy the redundant walks recover with (default: the
    /// network's own router strategy).
    #[must_use]
    pub fn strategy(mut self, strategy: FaultStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// The configured membership rule.
    #[must_use]
    pub fn membership(&self) -> &ByzantineMembership {
        &self.membership
    }

    /// Walks per lookup.
    #[must_use]
    pub fn redundancy_factor(&self) -> u32 {
        self.redundancy
    }

    /// The fault-strategy override, if any.
    #[must_use]
    pub fn strategy_override(&self) -> Option<FaultStrategy> {
        self.strategy
    }
}

/// A typed rejection from [`EngineConfig::validate`].
///
/// Every variant names a configuration that would otherwise panic deep in a
/// builder (byzantine knobs) or silently do less than it says (a schedule tail
/// that never fires).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A Byzantine corruption fraction outside `[0, 1]`.
    ByzantineFractionOutOfRange {
        /// The offending fraction.
        fraction: f64,
    },
    /// Zero redundant walks per Byzantine lookup: every lookup would fail by
    /// construction.
    ByzantineZeroRedundancy,
    /// The failure schedule scripts more events than the run has epochs, so the
    /// tail events would silently never fire. Only
    /// [`run_interleaved`](crate::QueryEngine::run_interleaved) can check this — it
    /// knows the epoch count — so it is raised per run, never by
    /// [`EngineConfig::validate`] itself.
    ScheduleOutlivesRun {
        /// Scripted events in the schedule.
        events: usize,
        /// Epochs the run will actually execute.
        epochs: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ByzantineFractionOutOfRange { fraction } => {
                write!(f, "Byzantine fraction {fraction} outside [0, 1]")
            }
            ConfigError::ByzantineZeroRedundancy => {
                write!(f, "at least one redundant walk per Byzantine lookup is required")
            }
            ConfigError::ScheduleOutlivesRun { events, epochs } => write!(
                f,
                "failure schedule scripts {events} events but the run has only {epochs} epochs; the tail would never fire"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Shards per engine: each owns a private route cache and is one unit of
/// parallel work. Queries shard by source bucket, so a shard beyond
/// [`NUM_BUCKETS`](crate::NUM_BUCKETS) could never receive work.
const SHARDS: usize = 16;
const _: () = assert!(SHARDS <= crate::cache::NUM_BUCKETS as usize);

/// Configuration of a [`QueryEngine`](crate::QueryEngine).
///
/// Built in the same builder style as `NetworkConfig`: start from
/// [`EngineConfig::default`], override what you need.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    threads: usize,
    cache_capacity: usize,
    byzantine: Option<ByzantineConfig>,
    failures: Option<FailureSchedule>,
    telemetry: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 0, // resolved to available parallelism by the pool
            cache_capacity: 1024,
            byzantine: None,
            failures: None,
            telemetry: true,
        }
    }
}

impl EngineConfig {
    /// Sets the number of worker threads (0 = available parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the per-shard route-cache capacity in entries. `0` disables caching, which
    /// makes every query an exact fresh measurement.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Configured worker threads (0 = available parallelism).
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Shards the engine splits a batch into (a fixed 16: each owns a private
    /// route cache and is one unit of parallel work).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        SHARDS
    }

    /// Configured per-shard cache capacity (0 = caching disabled).
    #[must_use]
    pub fn cache_capacity_entries(&self) -> usize {
        self.cache_capacity
    }

    /// Enables or disables the engine's telemetry subsystem (default: enabled).
    ///
    /// When enabled, the engine records per-phase wall-time histograms, per-shard
    /// cache counters, and a bounded event ring, all exposed through
    /// [`QueryEngine::telemetry`](crate::QueryEngine::telemetry). Recording is
    /// lock-free (relaxed atomics off the query path) and never touches routing
    /// randomness, so results are bit-identical either way; disabling it turns every
    /// instrumentation point into a single branch for overhead-critical runs.
    #[must_use]
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Whether the telemetry subsystem records (see [`EngineConfig::telemetry`]).
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry
    }

    /// Opens the byzantine workload lane: every batch routes through redundant
    /// diversified walks that survive the configured adversary set. See
    /// [`ByzantineConfig`].
    ///
    /// Adversarial lookups are never served from (or inserted into) the route cache —
    /// a cached digest cannot tell which walks an adversary swallowed, and the
    /// redundancy-overhead measurements need every lookup exact.
    #[must_use]
    pub fn byzantine(mut self, byzantine: ByzantineConfig) -> Self {
        self.byzantine = Some(byzantine);
        self
    }

    /// The adversary specification, if the byzantine lane is configured.
    #[must_use]
    pub fn byzantine_config(&self) -> Option<&ByzantineConfig> {
        self.byzantine.as_ref()
    }

    /// Opens failure epochs in
    /// [`run_interleaved`](crate::QueryEngine::run_interleaved): the schedule's
    /// events (correlated region crashes, partition-and-heal cycles) are applied at
    /// epoch boundaries through the typed-delta pipeline, each epoch's queries are
    /// classified against a connectivity oracle built over the damaged overlay, and
    /// failed lookups get the schedule's diversified retry budget. See
    /// [`FailureSchedule`].
    #[must_use]
    pub fn failures(mut self, schedule: FailureSchedule) -> Self {
        self.failures = Some(schedule);
        self
    }

    /// The failure schedule, if failure epochs are configured.
    #[must_use]
    pub fn failures_config(&self) -> Option<&FailureSchedule> {
        self.failures.as_ref()
    }

    /// Checks the configuration for contradictions and returns the first as a typed
    /// [`ConfigError`].
    ///
    /// This is the single validation path: [`QueryEngine::new`](crate::QueryEngine::new)
    /// calls it at construction (and panics with the error's message, since a bad
    /// config there is a programming error; the engine exposes no setter, so the
    /// config cannot change afterwards), and `ScenarioSpec::into_engine_config` in the scenario DSL surfaces it as a
    /// diagnosable `Result`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(byzantine) = &self.byzantine {
            if byzantine.redundancy == 0 {
                return Err(ConfigError::ByzantineZeroRedundancy);
            }
            if let ByzantineMembership::Fraction { fraction, .. } = byzantine.membership {
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(ConfigError::ByzantineFractionOutOfRange { fraction });
                }
            }
        }
        Ok(())
    }

    /// [`validate`](EngineConfig::validate) plus the per-run check only an
    /// interleaved run can make: a failure schedule scripting more events than the
    /// run has epochs would silently drop its tail
    /// ([`ConfigError::ScheduleOutlivesRun`]).
    pub fn validate_for_epochs(&self, epochs: usize) -> Result<(), ConfigError> {
        self.validate()?;
        if let Some(schedule) = &self.failures {
            let events = schedule.events().len();
            if events > epochs {
                return Err(ConfigError::ScheduleOutlivesRun { events, epochs });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_defaults() {
        let config = EngineConfig::default().threads(8).cache_capacity(64);
        assert_eq!(config.thread_count(), 8);
        assert_eq!(config.shard_count(), 16);
        assert_eq!(config.cache_capacity_entries(), 64);
        assert!(
            EngineConfig::default().telemetry_enabled(),
            "telemetry is on by default"
        );
        assert!(!EngineConfig::default().telemetry(false).telemetry_enabled());
    }

    #[test]
    fn cacheless_config_validates() {
        // Capacity 0 is the exact-measurement configuration; it contradicts
        // nothing on its own.
        assert_eq!(EngineConfig::default().cache_capacity(0).validate(), Ok(()));
    }

    #[test]
    fn byzantine_spec_builder() {
        assert!(EngineConfig::default().byzantine_config().is_none());
        let spec = ByzantineConfig::fraction(0.15, 99)
            .redundancy(6)
            .strategy(FaultStrategy::paper_backtrack());
        let config = EngineConfig::default().byzantine(spec.clone());
        let stored = config.byzantine_config().expect("spec stored");
        assert_eq!(stored, &spec);
        assert_eq!(stored.redundancy_factor(), 6);
        assert_eq!(
            stored.strategy_override(),
            Some(FaultStrategy::paper_backtrack())
        );
        assert_eq!(
            stored.membership(),
            &ByzantineMembership::Fraction {
                fraction: 0.15,
                seed: 99
            }
        );
        let mut set = ByzantineSet::new();
        set.insert(7);
        let explicit = ByzantineConfig::explicit(set.clone());
        assert_eq!(explicit.membership(), &ByzantineMembership::Explicit(set));
        assert_eq!(
            explicit.redundancy_factor(),
            ByzantineConfig::DEFAULT_REDUNDANCY
        );
        assert_eq!(explicit.strategy_override(), None);
    }

    #[test]
    fn failure_schedule_builder() {
        use crate::failures::FailureEvent;
        assert!(EngineConfig::default().failures_config().is_none());
        let schedule = FailureSchedule::partition_and_heal(16).retries(3);
        let config = EngineConfig::default().failures(schedule.clone());
        let stored = config.failures_config().expect("schedule stored");
        assert_eq!(stored, &schedule);
        assert_eq!(stored.retry_budget(), 3);
        assert_eq!(stored.event_for(0), FailureEvent::Partition { width: 16 });
        assert_eq!(stored.event_for(1), FailureEvent::Heal);
    }

    #[test]
    fn byzantine_fraction_is_range_checked() {
        assert_eq!(
            EngineConfig::default()
                .byzantine(ByzantineConfig::fraction(1.01, 0))
                .validate(),
            Err(ConfigError::ByzantineFractionOutOfRange { fraction: 1.01 })
        );
    }

    #[test]
    fn byzantine_zero_redundancy_is_rejected() {
        assert_eq!(
            EngineConfig::default()
                .byzantine(ByzantineConfig::fraction(0.1, 0).redundancy(0))
                .validate(),
            Err(ConfigError::ByzantineZeroRedundancy)
        );
    }

    #[test]
    fn schedule_tail_past_the_run_is_rejected() {
        use crate::failures::FailureEvent;
        let schedule = FailureSchedule::from_events(vec![
            FailureEvent::Region { width: 8 },
            FailureEvent::Heal,
            FailureEvent::Quiet,
        ]);
        let config = EngineConfig::default().failures(schedule);
        assert_eq!(
            config.validate(),
            Ok(()),
            "static validation cannot know the epoch count"
        );
        assert_eq!(
            config.validate_for_epochs(2),
            Err(ConfigError::ScheduleOutlivesRun {
                events: 3,
                epochs: 2
            })
        );
        assert_eq!(config.validate_for_epochs(3), Ok(()));
        assert_eq!(
            EngineConfig::default().validate_for_epochs(0),
            Ok(()),
            "no schedule, nothing to outlive"
        );
    }

    #[test]
    fn config_errors_display_their_diagnosis() {
        let text = ConfigError::ScheduleOutlivesRun {
            events: 5,
            epochs: 3,
        }
        .to_string();
        assert!(text.contains("5 events"), "{text}");
        assert!(text.contains("3 epochs"), "{text}");
        assert!(ConfigError::ByzantineFractionOutOfRange { fraction: 1.5 }
            .to_string()
            .contains("1.5"));
    }
}
