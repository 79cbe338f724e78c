//! # faultline-engine
//!
//! A sharded, parallel query engine over `faultline` overlays — the traffic layer the
//! paper's "millions of users" framing implies but a one-query-at-a-time reproduction
//! cannot express.
//!
//! The engine executes **batches** of greedy lookups across a pool of worker threads
//! (rayon-style fork–join), over a read-mostly [`NetworkView`](faultline_core::NetworkView)
//! of the overlay:
//!
//! * **Sharding** — the metric space is divided into [`NUM_BUCKETS`] buckets; each query
//!   is assigned to one of 16 shards by its source bucket, and each shard owns a private route
//!   cache and admits its queries in a fixed order. With the cache off a shard routes
//!   its lookups as interleaved walks with row prefetch
//!   ([`WalkPipeline`](faultline_routing::WalkPipeline)); with it on, one at a time.
//!   No locks are taken on the hot path, and results are bit-for-bit identical at any
//!   thread count.
//! * **Compiled snapshots** — every lookup routes over a CSR
//!   [`FrozenView`](faultline_core::FrozenView). The engine freezes the overlay once
//!   per topology stamp
//!   ([`Network::topology_stamp`](faultline_core::Network::topology_stamp)), keeps
//!   it across batches until the stamp changes, and routes every cache miss through
//!   the zero-allocation frozen kernel (contiguous `u32` neighbour scans, inlined
//!   distance, per-worker scratch buffers, counter-based per-query RNG).
//! * **Route caching** — a per-shard LRU keyed by `(source bucket, target bucket)`
//!   ([`RouteCache`]). Entries remember the exact nodes their walk visited (row
//!   dependencies). Churn expressed as a typed [`ChurnDelta`] evicts precisely the
//!   entries whose cached walk depends on a changed row
//!   ([`QueryEngine::invalidate_delta`] — survivors replay bit-identically on the
//!   patched topology).
//! * **Live-churn interleaving** — [`QueryEngine::run_interleaved`] alternates routing
//!   epochs with `faultline_failure` churn events and the Section 5 maintenance
//!   heuristic (`Network::join`/`leave`), measuring throughput and success rate *while*
//!   the network repairs itself — the paper's fault-tolerance claim at traffic scale.
//!   Like [`QueryEngine::run_batch`], the runner freezes once per topology stamp:
//!   it compiles one snapshot at its first epoch and, as each epoch's churn moves
//!   the stamp, **incrementally patches** it from the epoch's merged
//!   [`ChurnDelta`] instead of refreezing — maintainer-captured row diffs written
//!   straight into the snapshot, O(changed rows) with no usable-neighbour recompute.
//!   [`QueryEngine::run_interleaved_with`] accepts a caller-supplied workload
//!   callback ([`EpochWorkload`]) so skewed traffic — the scenario DSL's Zipf,
//!   hotspot, flash-crowd, and diurnal generators — drives the same pipeline.
//! * **Byzantine workload lane** — [`EngineConfig::byzantine`] opens an adversarial
//!   traffic class: a [`ByzantineConfig`] names the corrupted nodes (a sampled
//!   fraction or an explicit [`ByzantineSet`]) and every lookup issues up to
//!   `redundancy` diversified walks through
//!   [`RedundantRouter::route_frozen`](faultline_routing::RedundantRouter::route_frozen)
//!   over the shared CSR snapshot — zero-alloc, cache-bypassing, and thread-count
//!   deterministic like the honest path. Under churn, adversary membership stays
//!   consistent: departing Byzantine nodes shrink the set and
//!   [`ChurnMix::adversarial_joins`] conscripts arrivals (a join at a stale label
//!   *clears* it — labels are reused, so newcomers never inherit old convictions).
//!   [`BatchReport`] splits honest-vs-contested success and hop percentiles.
//! * **Failure epochs** — [`EngineConfig::failures`] interleaves *correlated*
//!   damage with the traffic: a [`FailureSchedule`] cycles region crashes,
//!   two-sided partitions, and heal events through the same typed-delta pipeline
//!   churn uses (snapshot rows patched in place, caches evicted at row
//!   granularity — no rebuild). Each failure-configured
//!   epoch builds a [`ConnectivityOracle`](faultline_theory::ConnectivityOracle)
//!   over the damaged overlay and classifies every query against ground truth
//!   ([`SurvivabilitySplit`]): lookups the oracle proves disconnected leave the
//!   success denominator, and dropped-but-survivable lookups are the routing
//!   failures the resilience gate counts. Failed lookups get a bounded
//!   diversified-retry budget while the overlay is damaged.
//! * **Percentile stats** — every batch reports p50/p95/p99 hop ladders (the
//!   paper's cost: messages per lookup) plus its wall time and queries/sec,
//!   exportable as JSON for the benchmark trajectory. Lookups do not time
//!   themselves: a [`QueryOutcome`] holds no clock reading, so every field is
//!   deterministic and outcomes compare with `==`. Time is measured per batch and,
//!   through telemetry, per shard.
//! * **Telemetry** — the engine records per-phase wall-time histograms (`freeze`,
//!   `apply_delta`, `invalidate`, per-shard `batch_shard`, `compact`),
//!   per-shard cache counters (hits/misses/evictions/occupancy), and a bounded ring
//!   of epoch-stamped structural events (compactions, rebuild fallbacks, cache
//!   evictions/invalidations, adversary convictions). Recording is lock-free relaxed
//!   atomics off the deterministic path — instrumented and uninstrumented runs
//!   produce bit-identical results. Snapshot via
//!   [`QueryEngine::telemetry`]`().snapshot()`; disable with
//!   [`EngineConfig::telemetry`]`(false)`, which turns every instrumentation point
//!   into a single branch.
//!
//! # Example
//!
//! ```
//! use faultline_core::{Network, NetworkConfig};
//! use faultline_engine::{EngineConfig, QueryBatch, QueryEngine};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let network = Network::build(&NetworkConfig::paper_default(1 << 10), &mut rng);
//! let mut engine = QueryEngine::new(EngineConfig::default().threads(4));
//! let batch = QueryBatch::uniform(&network, 10_000, 42);
//! let report = engine.run_batch(&network, &batch);
//! assert_eq!(report.queries(), 10_000);
//! assert!(report.success_rate() > 0.999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod cache;
mod config;
mod failures;
mod interleave;
mod run;
mod stats;

pub use batch::QueryBatch;
pub use cache::{bucket_of, CachedRoute, RouteCache, RowSet, NUM_BUCKETS};
pub use config::{ByzantineConfig, ByzantineMembership, ConfigError, EngineConfig};
pub use failures::{FailureEvent, FailureSchedule, FailureWork, SurvivabilitySplit};
pub use interleave::{ChurnMix, EpochReport, EpochWorkload, InterleavedReport, SnapshotWork};
pub use run::QueryEngine;
pub use stats::{AdversarySplit, BatchReport, QueryOutcome};

// Re-exported so byzantine-lane callers need no direct `faultline_routing` dependency.
pub use faultline_routing::ByzantineSet;
// Re-exported so churn-delta callers (`QueryEngine::invalidate_delta`) need no
// direct `faultline_overlay` dependency.
pub use faultline_overlay::{ChurnDelta, RowChangeKind, RowDelta};
// Re-exported so telemetry consumers (`QueryEngine::telemetry`, per-epoch phase
// breakdowns) need no direct `faultline_telemetry` dependency.
pub use faultline_telemetry::{
    Event, EventKind, MetricsSnapshot, Phase, PhaseNanos, ShardCounters, Telemetry,
};
