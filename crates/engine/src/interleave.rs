//! Live-churn interleaving: routing epochs alternated with topology change and repair.
//!
//! The paper's Section 5 heuristic exists so the overlay stays routable *while* nodes
//! arrive and depart. The interleaved runner reproduces that claim at traffic scale:
//! each epoch routes a full query batch in parallel, then applies a burst of churn
//! events through the maintenance heuristic (`Network::join` / `Network::leave`, which
//! regenerate links per Section 5), then patches the routing snapshot and evicts
//! exactly the cached routes whose walks read a row the churn changed. Success rate
//! and throughput are reported per epoch, so degradation and recovery are visible in
//! the trajectory.

use crate::batch::QueryBatch;
use crate::failures::{DownedSet, FailureEvent, FailureSchedule, FailureWork, SurvivabilitySplit};
use crate::run::{saturate_u32, QueryEngine};
use crate::stats::{BatchReport, QueryOutcome};
use faultline_core::{FrozenView, Network};
use faultline_failure::{ChurnEvent, ChurnSchedule, RegionFailure};
use faultline_overlay::{ChurnDelta, NodeId};
use faultline_routing::ByzantineSet;
use faultline_sim::{seed_for_trial, trial_rng};
use faultline_telemetry::{EventKind, PhaseNanos};
use faultline_theory::ConnectivityOracle;
use rand::Rng;
use std::time::Instant;

/// Context handed to a [`run_interleaved_with`](QueryEngine::run_interleaved_with)
/// workload callback when it draws one epoch's batch.
#[derive(Debug, Clone, Copy)]
pub struct EpochWorkload<'a> {
    /// The epoch about to route (0-based).
    pub epoch: usize,
    /// Total epochs in the run (for workloads that ramp over the trajectory).
    pub epochs: usize,
    /// The nominal per-epoch query count the run was started with; workloads may
    /// draw more or fewer (e.g. a diurnal curve) and the reports follow the batch.
    pub queries: usize,
    /// The epoch's batch seed, already derived from the run's master seed — the
    /// only entropy a deterministic workload may consume.
    pub seed: u64,
    /// The resolved adversary set when the byzantine lane is open: workloads
    /// should draw honest endpoints over the current membership.
    pub adversaries: Option<&'a ByzantineSet>,
}

/// Churn intensity applied between routing epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnMix {
    /// Churn events (joins + leaves) applied after each epoch's batch (for
    /// fraction-based mixes this is the *initial* count; see [`ChurnMix::events_for`]).
    pub events_per_epoch: usize,
    /// Probability that an event is a join (the rest are leaves).
    pub join_probability: f64,
    /// For mixes built with [`ChurnMix::fraction_of`], the fraction of the *current*
    /// alive population to churn each epoch; `None` pins the absolute event count.
    fraction: Option<f64>,
    /// Probability that a joining node is conscripted into the adversary set (only
    /// meaningful when the engine's byzantine lane is active).
    adversarial_joins: f64,
}

impl ChurnMix {
    /// A balanced mix: as many arrivals as departures on average.
    #[must_use]
    pub fn balanced(events_per_epoch: usize) -> Self {
        Self {
            events_per_epoch,
            join_probability: 0.5,
            fraction: None,
            adversarial_joins: 0.0,
        }
    }

    /// Churn touching roughly `fraction` of the alive population per epoch, balanced.
    ///
    /// `n` sizes the initial [`ChurnMix::events_per_epoch`] estimate; at every epoch
    /// boundary the actual event count is re-derived from the *current* alive count
    /// ([`ChurnMix::events_for`]), so a sustained leave-heavy run churns the shrinking
    /// population proportionally instead of hammering it with events sized for the
    /// original space.
    #[must_use]
    pub fn fraction_of(n: u64, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "churn fraction outside [0, 1]"
        );
        Self {
            events_per_epoch: (n as f64 * fraction).round() as usize,
            join_probability: 0.5,
            fraction: Some(fraction),
            adversarial_joins: 0.0,
        }
    }

    /// Sets the probability that each joining node is conscripted into the adversary
    /// set — the churn-side of the byzantine lane: the adversary keeps injecting
    /// corrupted identities while honest nodes arrive and depart. Ignored (no draws
    /// are made) when the engine routes honestly.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not in `[0, 1]`.
    #[must_use]
    pub fn adversarial_joins(mut self, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "adversarial-join probability outside [0, 1]"
        );
        self.adversarial_joins = probability;
        self
    }

    /// The configured adversarial-join probability (0.0 by default).
    #[must_use]
    pub fn adversarial_join_probability(&self) -> f64 {
        self.adversarial_joins
    }

    /// Events to apply for an epoch that starts with `alive_now` alive nodes: the
    /// fixed `events_per_epoch` for absolute mixes, `fraction × alive_now` (rounded)
    /// for fraction mixes.
    #[must_use]
    pub fn events_for(&self, alive_now: u64) -> usize {
        match self.fraction {
            Some(fraction) => (alive_now as f64 * fraction).round() as usize,
            None => self.events_per_epoch,
        }
    }
}

/// Snapshot maintenance performed during one epoch of an interleaved run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotWork {
    /// Nanoseconds spent compiling the snapshot from scratch (the first epoch only).
    pub rebuild_nanos: u64,
    /// Nanoseconds spent patching the snapshot from the epoch's typed churn delta.
    pub patch_nanos: u64,
    /// Adjacency rows the patch rewrote.
    pub rows_patched: usize,
    /// Rows rewritten in place (no tombstone, no overflow growth) — the slot-reuse
    /// win of the delta layer; subset of `rows_patched`.
    pub rows_in_place: usize,
    /// Whether patching triggered a compaction back to a dense CSR.
    pub compacted: bool,
    /// Whether the patch abandoned itself mid-way because the epoch's structural
    /// blast radius crossed the rebuild threshold (graceful degradation, not the
    /// scheduled `rebuild_nanos` recompile).
    pub fallback_rebuild: bool,
}

impl SnapshotWork {
    /// Total snapshot maintenance time this epoch (rebuild + patch).
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.rebuild_nanos + self.patch_nanos
    }
}

/// What one epoch of the interleaved run did.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// The routing batch executed at the start of the epoch.
    pub batch: BatchReport,
    /// Join events applied after the batch.
    pub joins: usize,
    /// Leave events applied after the batch.
    pub leaves: usize,
    /// Cached routes evicted by this epoch's churn (row-level eviction).
    pub flushed_routes: usize,
    /// Distinct rows the epoch's churn delta changed (the row-level dirty set).
    pub rows_changed: usize,
    /// Alive nodes once the epoch's churn settled.
    pub alive_after: u64,
    /// Byzantine nodes once the epoch's churn settled (0 on honest runs): leaves of
    /// adversarial nodes shrink the set, adversarial joins grow it.
    pub byzantine_after: usize,
    /// Snapshot maintenance (rebuild or patch) performed this epoch.
    pub snapshot: SnapshotWork,
    /// What the epoch's failure event did (damage or heal, delta size, patch and
    /// invalidation cost); `None` when the run has no failure schedule.
    pub failure: Option<FailureWork>,
    /// The epoch's queries classified against the connectivity oracle's ground
    /// truth on the (possibly damaged) overlay the batch routed; `None` when the
    /// run has no failure schedule.
    pub survivability: Option<SurvivabilitySplit>,
    /// Telemetry wall-time attributed to each engine phase *during this epoch* (the
    /// difference of two cumulative [`Telemetry::phase_totals`] readings; all zeros
    /// when telemetry is disabled). `BatchShard` sums per-worker shard time, so it
    /// can exceed the epoch's wall clock on multi-threaded runs.
    ///
    /// [`Telemetry::phase_totals`]: faultline_telemetry::Telemetry::phase_totals
    pub phases: PhaseNanos,
}

/// The full interleaved trajectory.
#[derive(Debug, Clone)]
pub struct InterleavedReport {
    epochs: Vec<EpochReport>,
}

impl InterleavedReport {
    /// Per-epoch reports, in order.
    #[must_use]
    pub fn epochs(&self) -> &[EpochReport] {
        &self.epochs
    }

    /// Total queries routed across all epochs.
    #[must_use]
    pub fn total_queries(&self) -> usize {
        self.epochs.iter().map(|e| e.batch.queries()).sum()
    }

    /// Delivered fraction across all epochs (1.0 when no queries ran).
    #[must_use]
    pub fn overall_success_rate(&self) -> f64 {
        let total = self.total_queries();
        if total == 0 {
            return 1.0;
        }
        let delivered: usize = self.epochs.iter().map(|e| e.batch.delivered()).sum();
        delivered as f64 / total as f64
    }

    /// Aggregate queries/sec over the routing phases (churn time excluded). Returns
    /// `0.0` when no measurable routing time elapsed, keeping the JSON export finite.
    #[must_use]
    pub fn routing_queries_per_sec(&self) -> f64 {
        let secs: f64 = self
            .epochs
            .iter()
            .map(|e| e.batch.wall_time().as_secs_f64())
            .sum();
        if secs > 0.0 {
            self.total_queries() as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean nanoseconds per epoch spent patching the snapshot (0.0 when no epoch
    /// patched).
    #[must_use]
    pub fn mean_patch_nanos(&self) -> f64 {
        Self::mean_nonzero(self.epochs.iter().map(|e| e.snapshot.patch_nanos))
    }

    /// Number of epochs whose patch ended in a compaction.
    #[must_use]
    pub fn compactions(&self) -> usize {
        self.epochs.iter().filter(|e| e.snapshot.compacted).count()
    }

    /// Number of epochs in which a patch fell back to an in-place rebuild
    /// (structural blast radius crossed the threshold), counting both churn
    /// patches and failure/heal patches — the cadence the CI gate table prints,
    /// and the number the resilience gate requires to be zero.
    #[must_use]
    pub fn rebuild_fallbacks(&self) -> usize {
        self.epochs
            .iter()
            .filter(|e| {
                e.snapshot.fallback_rebuild || e.failure.is_some_and(|f| f.fallback_rebuild)
            })
            .count()
    }

    /// Aggregate survivability accounting over the whole run (`None` when the run
    /// had no failure schedule, so no oracle classified anything).
    #[must_use]
    pub fn survivability(&self) -> Option<SurvivabilitySplit> {
        let mut total = SurvivabilitySplit::default();
        let mut any = false;
        for split in self.epochs.iter().filter_map(|e| e.survivability.as_ref()) {
            total.absorb(split);
            any = true;
        }
        any.then_some(total)
    }

    /// Delivered fraction of the oracle-survivable queries across the run — the
    /// resilience gate's headline. `1.0` when no failure schedule ran (nothing was
    /// predicted, nothing was betrayed).
    #[must_use]
    pub fn survival_rate(&self) -> f64 {
        self.survivability()
            .map_or(1.0, |split| split.survival_rate())
    }

    /// Extra routing attempts spent on diversified retries across the run (0
    /// without a failure schedule).
    #[must_use]
    pub fn total_retries_spent(&self) -> u64 {
        self.survivability().map_or(0, |split| split.retries_spent)
    }

    /// Mean wall-clock nanoseconds a heal epoch spent on recovery work — node
    /// revival, snapshot patch, and cache invalidation (0.0 when no epoch healed
    /// anything).
    #[must_use]
    pub fn mean_heal_recovery_nanos(&self) -> f64 {
        Self::mean_nonzero(
            self.epochs
                .iter()
                .filter_map(|e| e.failure)
                .filter(|f| f.heal && f.healed_nodes > 0)
                .map(|f| f.recovery_nanos),
        )
    }

    /// Cache hit fraction over the *warm* epochs (epoch 0 always starts cold, so it
    /// is excluded; `0.0` when fewer than two epochs ran). The number row-level
    /// invalidation is designed to raise: finer eviction keeps more of each epoch's
    /// cache warm through churn.
    #[must_use]
    pub fn warm_hit_rate(&self) -> f64 {
        let (hits, queries) = self
            .epochs
            .iter()
            .skip(1)
            .fold((0usize, 0usize), |(h, q), e| {
                (h + e.batch.cache_hits(), q + e.batch.queries())
            });
        if queries > 0 {
            hits as f64 / queries as f64
        } else {
            0.0
        }
    }

    /// Cached routes flushed by churn, summed over all epochs.
    #[must_use]
    pub fn total_flushed_routes(&self) -> usize {
        self.epochs.iter().map(|e| e.flushed_routes).sum()
    }

    fn mean_nonzero<I: Iterator<Item = u64>>(values: I) -> f64 {
        let (mut sum, mut count) = (0u64, 0u64);
        for v in values.filter(|&v| v > 0) {
            sum += v;
            count += 1;
        }
        if count > 0 {
            sum as f64 / count as f64
        } else {
            0.0
        }
    }

    /// Renders the whole trajectory as a JSON object with one entry per epoch.
    #[must_use]
    pub fn to_json(&self) -> String {
        let epochs: Vec<String> = self
            .epochs
            .iter()
            .map(|e| {
                let failure = match &e.failure {
                    Some(f) => format!(
                        concat!(
                            "{{\"heal\":{},\"failed_nodes\":{},\"healed_nodes\":{},",
                            "\"delta_rows\":{},\"patch_ns\":{},\"flushed_routes\":{},",
                            "\"fallback_rebuild\":{},\"recovery_ns\":{}}}"
                        ),
                        f.heal,
                        f.failed_nodes,
                        f.healed_nodes,
                        f.delta_rows,
                        f.patch_nanos,
                        f.flushed_routes,
                        f.fallback_rebuild,
                        f.recovery_nanos
                    ),
                    None => "null".to_owned(),
                };
                let survivability = match &e.survivability {
                    Some(s) => format!(
                        concat!(
                            "{{\"predicted_survivable\":{},\"survivable_delivered\":{},",
                            "\"survivable_dropped\":{},\"unsurvivable\":{},",
                            "\"retries_spent\":{},\"survival_rate\":{:.6}}}"
                        ),
                        s.predicted_survivable,
                        s.survivable_delivered,
                        s.survivable_dropped,
                        s.unsurvivable,
                        s.retries_spent,
                        s.survival_rate()
                    ),
                    None => "null".to_owned(),
                };
                format!(
                    concat!(
                        "{{\"epoch\":{},\"joins\":{},\"leaves\":{},",
                        "\"flushed_routes\":{},",
                        "\"rows_changed\":{},\"alive_after\":{},\"byzantine_after\":{},",
                        "\"snapshot\":{{\"rebuild_ns\":{},\"patch_ns\":{},",
                        "\"rows_patched\":{},\"rows_in_place\":{},\"compacted\":{},",
                        "\"fallback_rebuild\":{}}},",
                        "\"failure\":{},\"survivability\":{},",
                        "\"phases\":{},\"batch\":{}}}"
                    ),
                    e.epoch,
                    e.joins,
                    e.leaves,
                    e.flushed_routes,
                    e.rows_changed,
                    e.alive_after,
                    e.byzantine_after,
                    e.snapshot.rebuild_nanos,
                    e.snapshot.patch_nanos,
                    e.snapshot.rows_patched,
                    e.snapshot.rows_in_place,
                    e.snapshot.compacted,
                    e.snapshot.fallback_rebuild,
                    failure,
                    survivability,
                    e.phases.to_json(),
                    e.batch.to_json()
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"total_queries\":{},\"overall_success_rate\":{:.6},",
                "\"survival_rate\":{:.6},",
                "\"routing_queries_per_sec\":{:.1},\"epochs\":[{}]}}"
            ),
            self.total_queries(),
            self.overall_success_rate(),
            self.survival_rate(),
            self.routing_queries_per_sec(),
            epochs.join(",")
        )
    }
}

impl QueryEngine {
    /// Alternates routing epochs with churn + Section 5 repair on `network`.
    ///
    /// Per epoch: route `queries_per_epoch` fresh uniform queries in parallel, then
    /// apply `churn.events_for(alive)` join/leave events through the maintenance
    /// heuristic, then evict the cached routes whose walks read a row the churn
    /// changed. All randomness derives from `master_seed`, so the whole trajectory is
    /// reproducible at any thread count.
    ///
    /// One compiled snapshot is kept alive across epochs and **incrementally patched**
    /// instead of recompiled per batch — O(changed rows) per epoch instead of
    /// O(nodes + links). Each epoch's maintainer report deltas are merged into one
    /// typed [`ChurnDelta`] and applied via
    /// [`FrozenView::apply_delta`](faultline_core::FrozenView::apply_delta) (diffed
    /// rows written directly, no recompute). The same delta drives row-level cache
    /// invalidation
    /// ([`QueryEngine::invalidate_delta`](crate::QueryEngine::invalidate_delta)). The
    /// snapshot [`QueryEngine::run_batch`] keeps is dropped when the run starts, so
    /// the engine never holds two. Per-epoch maintenance work is reported in
    /// [`EpochReport::snapshot`].
    ///
    /// Queries are drawn uniformly (honest-endpoint uniform when the byzantine
    /// lane is open). To drive the same epoch pipeline with a skewed workload —
    /// Zipf targets, flash crowds, the scenario DSL's generators — use
    /// [`QueryEngine::run_interleaved_with`].
    pub fn run_interleaved(
        &mut self,
        network: &mut Network,
        epochs: usize,
        queries_per_epoch: usize,
        churn: ChurnMix,
        master_seed: u64,
    ) -> InterleavedReport {
        self.run_interleaved_with(
            network,
            epochs,
            queries_per_epoch,
            churn,
            master_seed,
            // Byzantine epochs draw honest endpoints over the *current* membership
            // (the literature's lookup-resilience convention); with no — or an
            // empty — adversary set this is the plain uniform draw.
            &mut |network, context| match context.adversaries {
                Some(set) => {
                    QueryBatch::uniform_honest(network, context.queries, context.seed, set)
                }
                None => QueryBatch::uniform(network, context.queries, context.seed),
            },
        )
    }

    /// [`run_interleaved`](QueryEngine::run_interleaved) with a caller-supplied
    /// workload: `workload` draws each epoch's [`QueryBatch`] from the live network
    /// and an [`EpochWorkload`] context (epoch index, nominal count, derived batch
    /// seed, resolved adversaries). Everything else — churn, failure epochs,
    /// snapshot maintenance, oracle classification — is identical, so a workload
    /// that reproduces the uniform draw reproduces `run_interleaved` bit for bit.
    ///
    /// The callback must derive any randomness from `context.seed` (never ambient
    /// entropy) to keep the trajectory reproducible at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if [`EngineConfig::validate_for_epochs`](crate::EngineConfig::validate_for_epochs)
    /// rejects the configuration for this run — e.g. a failure schedule scripting
    /// more events than the run has epochs.
    pub fn run_interleaved_with(
        &mut self,
        network: &mut Network,
        epochs: usize,
        queries_per_epoch: usize,
        churn: ChurnMix,
        master_seed: u64,
        workload: &mut dyn FnMut(&Network, &EpochWorkload<'_>) -> QueryBatch,
    ) -> InterleavedReport {
        let validation = self.config().validate_for_epochs(epochs);
        assert!(validation.is_ok(), "invalid EngineConfig: {validation:?}");
        let n = network.len();
        self.resolve_adversaries(network);
        let failure_schedule = self.config().failures_config().cloned();
        let mut downed = DownedSet::default();
        let mut reports = Vec::with_capacity(epochs);
        // The runner mutates the network, so the batch snapshot would go stale;
        // release it before compiling the runner's own.
        self.drop_snapshot();
        let mut snapshot: Option<FrozenView> = None;
        for epoch in 0..epochs {
            // Stamp ring events with the epoch, and bracket the epoch's phase
            // totals so the report carries a per-epoch breakdown.
            self.telemetry().set_epoch(epoch as u64);
            let phases_before = self.telemetry().phase_totals();

            // Failure phase first: the epoch's batch routes the overlay the event
            // left behind, and a surviving snapshot is patched (never rebuilt)
            // from the event's typed delta before any freeze decision is made.
            let failure = failure_schedule.as_ref().map(|schedule| {
                self.failure_phase(
                    network,
                    &mut snapshot,
                    &mut downed,
                    schedule,
                    epoch,
                    master_seed,
                )
            });
            // Ground truth for the epoch's traffic: directed reachability over the
            // post-event usable-neighbour graph. Built per epoch because both
            // failures and last epoch's churn moved the graph.
            let oracle = failure_schedule.as_ref().map(|_| {
                let graph = network.graph();
                ConnectivityOracle::build(
                    n as u32,
                    |p| graph.is_alive(u64::from(p)),
                    |p| graph.usable_neighbors(u64::from(p)).map(|q| q as u32),
                )
            });

            let mut work = SnapshotWork::default();
            let live = match snapshot.as_mut() {
                Some(live) => live,
                None => {
                    let (view, nanos) = self.freeze(network);
                    work.rebuild_nanos = nanos;
                    snapshot.insert(view)
                }
            };

            let batch_seed = seed_for_trial(master_seed, epoch as u64);
            let context = EpochWorkload {
                epoch,
                epochs,
                queries: queries_per_epoch,
                seed: batch_seed,
                adversaries: self.adversaries(),
            };
            let batch = workload(network, &context);
            let batch_report = self.run_batch_with_snapshot(network, &batch, Some(live));
            let survivability = oracle.as_ref().map(|oracle| {
                classify_survivability(batch.pairs(), batch_report.outcomes(), oracle, n)
            });

            // Churn phase: one consistent schedule over the current population, applied
            // through the maintainer so links are regenerated as the paper prescribes.
            // Event volume tracks the *current* alive population for fraction mixes.
            let events = churn.events_for(network.alive_count());
            let mut churn_rng = trial_rng(master_seed ^ 0xC48A_0C48_A0C4_8A0C, epoch as u64);
            // Membership draws come from a *dedicated* stream so a byzantine run walks
            // the exact same topology trajectory as its honest twin (same schedules,
            // same join/leave link regeneration).
            let mut membership_rng = trial_rng(master_seed ^ 0xAD5E_11A6_0B52_AD5E, epoch as u64);
            let conscripting = self.adversaries().is_some();
            let present = network.graph().present_nodes().to_vec();
            let schedule = ChurnSchedule::generate(
                n,
                &present,
                events,
                churn.join_probability,
                &mut churn_rng,
            );
            let mut epoch_delta = ChurnDelta::new();
            let (mut joins, mut leaves) = (0usize, 0usize);
            for event in schedule.events() {
                // Joins and leaves mutate link tables beyond the churned position (ring
                // splicing, link redirection, dangling-link repair); the reports' typed
                // row diffs cover that full blast radius, so invalidation and snapshot
                // patching work at row precision.
                match *event {
                    ChurnEvent::Join(p) => {
                        if let Ok(report) = network.join(p, &mut churn_rng) {
                            joins += 1;
                            epoch_delta.absorb(report.delta);
                            if conscripting {
                                // A join either conscripts the newcomer or clears any
                                // stale membership at its (reused) label — a fresh
                                // honest node must never inherit an old conviction.
                                let conscript = churn.adversarial_join_probability() > 0.0
                                    && membership_rng
                                        .gen_bool(churn.adversarial_join_probability());
                                self.adversary_churn(p, true, conscript);
                            }
                        }
                    }
                    ChurnEvent::Leave(p) => {
                        if let Ok(report) = network.leave(p, &mut churn_rng) {
                            leaves += 1;
                            epoch_delta.absorb(report.delta);
                            // A departing adversary loses its position.
                            self.adversary_churn(p, false, false);
                        }
                    }
                }
            }
            let flushed_routes = self.invalidate_delta(&epoch_delta, n);

            // Publish the next epoch's routes: patch the changed rows in place.
            // xlint: allow(determinism) -- patch cost is reported in SnapshotWork only, never read by routing
            let started = Instant::now();
            let stats = live.apply_delta_with(network.graph(), &epoch_delta, self.telemetry());
            work.patch_nanos = started.elapsed().as_nanos() as u64;
            work.rows_patched = stats.rows_patched;
            work.rows_in_place = stats.rows_in_place;
            work.compacted = stats.compacted;
            work.fallback_rebuild = stats.rebuilt;

            reports.push(EpochReport {
                epoch,
                batch: batch_report,
                joins,
                leaves,
                flushed_routes,
                rows_changed: epoch_delta.len(),
                alive_after: network.alive_count(),
                byzantine_after: self
                    .adversaries()
                    .map_or(0, faultline_routing::ByzantineSet::len),
                snapshot: work,
                failure,
                survivability,
                phases: self
                    .telemetry()
                    .phase_totals()
                    .saturating_sub(&phases_before),
            });
        }
        InterleavedReport { epochs: reports }
    }

    /// Applies one epoch's failure event through the typed-delta pipeline: mutate
    /// the overlay (crash regions or revive the downed set), patch the surviving
    /// snapshot from the event's delta, and evict exactly the cache entries whose
    /// walks depended on a changed row. All randomness comes from a dedicated
    /// failure stream, so failure trajectories never perturb churn or routing
    /// draws.
    fn failure_phase(
        &mut self,
        network: &mut Network,
        snapshot: &mut Option<FrozenView>,
        downed: &mut DownedSet,
        schedule: &FailureSchedule,
        epoch: usize,
        master_seed: u64,
    ) -> FailureWork {
        // xlint: allow(determinism) -- failure-phase wall time is reported in FailureWork only, never read by routing
        let started = Instant::now();
        let n = network.len();
        let mut work = FailureWork::default();
        let mut delta = ChurnDelta::new();
        let mut fail_rng = trial_rng(master_seed ^ 0xFA17_0FA1_70FA_170F, epoch as u64);
        match schedule.event_for(epoch) {
            FailureEvent::Quiet => {}
            FailureEvent::Region { width } => {
                let plan = RegionFailure::random(width);
                let (report, d) = network.apply_failure_delta(&plan, &mut fail_rng);
                work.failed_nodes = report.failed_nodes.len();
                downed.extend(&report.failed_nodes);
                delta.absorb(d);
            }
            FailureEvent::Partition { width } => {
                // Two diametrically opposite regions: the worst correlated cut a
                // ring admits, since every long link spanning either gap loses an
                // endpoint.
                let start = fail_rng.gen_range(0..n.max(1));
                for s in [start, (start + n / 2) % n.max(1)] {
                    let plan = RegionFailure::at(s, width);
                    let (report, d) = network.apply_failure_delta(&plan, &mut fail_rng);
                    work.failed_nodes += report.failed_nodes.len();
                    downed.extend(&report.failed_nodes);
                    delta.absorb(d);
                }
            }
            FailureEvent::Heal => {
                work.heal = true;
                let revive = downed.take();
                if !revive.is_empty() {
                    delta.absorb(network.heal_nodes(&revive));
                    work.healed_nodes = revive.len();
                }
            }
        }
        if work.failed_nodes > 0 {
            self.telemetry().event(
                EventKind::FailureApplied,
                saturate_u32(work.failed_nodes as u64),
            );
        }
        if work.healed_nodes > 0 {
            self.telemetry().event(
                EventKind::HealApplied,
                saturate_u32(work.healed_nodes as u64),
            );
        }
        work.delta_rows = delta.len();
        if !delta.is_empty() {
            if let Some(live) = snapshot.as_mut() {
                // xlint: allow(determinism) -- delta-patch cost is reported in FailureWork only, never read by routing
                let patch_started = Instant::now();
                let stats = live.apply_delta_with(network.graph(), &delta, self.telemetry());
                work.patch_nanos = patch_started.elapsed().as_nanos() as u64;
                work.fallback_rebuild = stats.rebuilt;
            }
            work.flushed_routes = self.invalidate_delta(&delta, n);
        }
        work.recovery_nanos = started.elapsed().as_nanos() as u64;
        work
    }
}

/// Buckets each query of a batch against the oracle's verdict on its endpoints:
/// survivable-delivered, survivable-dropped, or unsurvivable (out-of-range
/// endpoints are unsurvivable by definition — no walk was even possible).
fn classify_survivability(
    pairs: &[(NodeId, NodeId)],
    outcomes: &[QueryOutcome],
    oracle: &ConnectivityOracle,
    n: u64,
) -> SurvivabilitySplit {
    let mut split = SurvivabilitySplit::default();
    for (&(source, target), outcome) in pairs.iter().zip(outcomes) {
        split.retries_spent += u64::from(outcome.attempts.saturating_sub(1));
        if source < n && target < n && oracle.survivable(source as u32, target as u32) {
            split.predicted_survivable += 1;
            if outcome.delivered {
                split.survivable_delivered += 1;
            } else {
                split.survivable_dropped += 1;
            }
        } else {
            split.unsurvivable += 1;
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use faultline_core::NetworkConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn incremental_network(n: u64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = NetworkConfig::paper_default(n)
            .construction(faultline_core::ConstructionMode::incremental_default());
        Network::build(&config, &mut rng)
    }

    #[test]
    fn interleaved_run_keeps_routing_under_churn() {
        let mut net = incremental_network(512, 1);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(2));
        let report = engine.run_interleaved(&mut net, 4, 1_000, ChurnMix::balanced(25), 42);
        assert_eq!(report.epochs().len(), 4);
        assert_eq!(report.total_queries(), 4_000);
        for epoch in report.epochs() {
            assert_eq!(epoch.joins + epoch.leaves, 25, "all events must apply");
            assert!(epoch.alive_after > 0);
        }
        // The maintainer repairs as churn happens; the overwhelming majority of queries
        // must still deliver (each batch is drawn over currently-alive nodes).
        assert!(
            report.overall_success_rate() > 0.9,
            "success rate {} too low under mild churn",
            report.overall_success_rate()
        );
    }

    #[test]
    fn churn_flushes_cached_routes() {
        let mut net = incremental_network(512, 2);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(1024));
        let report = engine.run_interleaved(&mut net, 3, 2_000, ChurnMix::balanced(60), 7);
        let flushed: usize = report.epochs().iter().map(|e| e.flushed_routes).sum();
        assert!(
            flushed > 0,
            "60 churn events per epoch must hit cached buckets"
        );
    }

    #[test]
    fn json_trajectory_is_well_formed_at_the_surface() {
        let mut net = incremental_network(256, 3);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(1));
        let report = engine.run_interleaved(&mut net, 2, 200, ChurnMix::balanced(10), 1);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"epoch\":").count(), 2);
        assert!(json.contains("\"overall_success_rate\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn churn_mix_constructors() {
        let mix = ChurnMix::fraction_of(1000, 0.1);
        assert_eq!(mix.events_per_epoch, 100);
        assert_eq!(mix.join_probability, 0.5);
        assert_eq!(mix.adversarial_join_probability(), 0.0);
        assert_eq!(
            mix.adversarial_joins(0.25).adversarial_join_probability(),
            0.25
        );
        // Fraction mixes re-derive the event count from the current population...
        assert_eq!(mix.events_for(1000), 100);
        assert_eq!(mix.events_for(500), 50);
        assert_eq!(mix.events_for(0), 0);
        // ...absolute mixes never do.
        let fixed = ChurnMix::balanced(25);
        assert_eq!(fixed.events_for(1000), 25);
        assert_eq!(fixed.events_for(10), 25);
    }
}
