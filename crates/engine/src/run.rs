//! The [`QueryEngine`]: sharded, parallel batch execution.

use crate::batch::QueryBatch;
use crate::cache::{bucket_of, CachedRoute, RouteCache, RowSet};
use crate::config::{ByzantineMembership, EngineConfig};
use crate::stats::{BatchReport, QueryOutcome};
use faultline_core::{FrozenView, Network, NetworkView};
use faultline_overlay::{ChurnDelta, NodeId};
use faultline_routing::{
    ByzantineSet, FaultStrategy, KernelIsa, RedundantRouter, RouteResult, RouteScratch, Router,
    Walk, WalkFeed, WalkPipeline, PIPELINE_WIDTH,
};
use faultline_sim::seed_for_trial;
use faultline_telemetry::{EventKind, Phase, Telemetry};
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;
use std::time::Instant;

/// A reusable parallel query engine.
///
/// The engine owns a worker pool and one [`RouteCache`] per shard. Queries are assigned
/// to shards by the bucket of their *source* node; each shard's queries are admitted
/// in batch order by whichever worker picks the shard up, which routes them as
/// [`PIPELINE_WIDTH`] interleaved walks ([`WalkPipeline`]) — or one at a time when
/// the route cache is on, since cache probes and inserts must happen in a fixed
/// order. Because shards share nothing, the hot path takes no locks, and per-query
/// results are bit-for-bit reproducible at any thread count and pipeline width:
/// every walk's randomness comes from `(batch seed, query index, attempt)` and
/// cache state evolves per shard in a fixed order.
///
/// Caches persist across batches so steady-state traffic sees realistic hit rates;
/// churn evicts exactly the entries whose walks read a changed row, via
/// [`QueryEngine::invalidate_delta`] (done automatically by
/// [`QueryEngine::run_interleaved`](crate::QueryEngine::run_interleaved)). Every
/// lookup routes over a compiled [`FrozenView`]: the engine's own snapshot, kept
/// across batches and keyed by the network's topology stamp so
/// [`QueryEngine::run_batch`] freezes once per topology rather than once per batch,
/// or a snapshot the caller maintains.
#[derive(Debug)]
pub struct QueryEngine {
    config: EngineConfig,
    pool: rayon::ThreadPool,
    caches: Vec<RouteCache>,
    /// Per-shard buffers reused across batches (one per cache).
    shards: Vec<ShardBuffers>,
    /// The snapshot `run_batch` last compiled, with the
    /// [`Network::topology_stamp`] of the topology it froze.
    snapshot: Option<(u64, FrozenView)>,
    snapshots_built: u64,
    /// Resolved adversary membership (None until the byzantine lane first routes over
    /// a network, or forever on honest engines). Churn epochs mutate it: departing
    /// Byzantine nodes shrink it, joining nodes are marked (or cleared) by the mix.
    adversaries: Option<ByzantineSet>,
    /// The engine's telemetry handle: per-phase histograms, per-shard cache cells,
    /// and the event ring. Disabled (inert) when `EngineConfig::telemetry(false)`.
    telemetry: Telemetry,
    /// The distance-scan kernel every worker scratch dispatches to — resolved once
    /// at construction (cpuid + `FAULTLINE_FORCE_SCALAR`, or pinned scalar by
    /// `EngineConfig::simd(false)`), never re-detected on the query path.
    kernel: KernelIsa,
}

/// Clamps a count into an event-ring payload.
pub(crate) fn saturate_u32(value: u64) -> u32 {
    u32::try_from(value).unwrap_or(u32::MAX)
}

/// One shard's reusable buffers: cleared per batch, never dropped, so a batch's
/// shard partition, outcome staging and row dependencies allocate only while they
/// grow.
#[derive(Debug, Default)]
struct ShardBuffers {
    /// Batch indices of this shard's queries, in batch order.
    queries: Vec<usize>,
    /// `(batch index, outcome)` for every query the shard routed, in finishing order.
    outcomes: Vec<(usize, QueryOutcome)>,
    /// Row dependencies of the lookup in flight (cache-enabled shards only).
    deps: Vec<u32>,
}

/// Per-batch byzantine apparatus shared (read-only) by every shard worker.
#[derive(Clone, Copy)]
struct ByzantineLane<'a> {
    router: RedundantRouter,
    adversaries: &'a ByzantineSet,
}

impl QueryEngine {
    /// Builds an engine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`EngineConfig::validate`] rejects the configuration — a bad
    /// config at construction is a programming error. Callers that want the typed
    /// [`ConfigError`](crate::ConfigError) instead (the scenario DSL does) validate
    /// before constructing.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        let validation = config.validate();
        assert!(validation.is_ok(), "invalid EngineConfig: {validation:?}");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(config.thread_count())
            .build()
            // xlint: allow(panic_policy) -- startup-time invariant: the builder only errors on a zero thread count and EngineConfig clamps it to at least one
            .expect("thread pool construction cannot fail");
        let telemetry = if config.telemetry_enabled() {
            Telemetry::new(config.shard_count())
        } else {
            Telemetry::disabled()
        };
        let caches = (0..config.shard_count())
            .map(|index| {
                let mut cache = RouteCache::new(config.cache_capacity_entries());
                cache.attach(telemetry.shard(index));
                cache
            })
            .collect();
        let kernel = if config.simd_enabled() {
            KernelIsa::detect()
        } else {
            KernelIsa::scalar()
        };
        let shards = (0..config.shard_count())
            .map(|_| ShardBuffers::default())
            .collect();
        Self {
            config,
            pool,
            caches,
            shards,
            snapshot: None,
            snapshots_built: 0,
            adversaries: None,
            telemetry,
            kernel,
        }
    }

    /// The distance-scan kernel this engine's workers dispatch to: the detected
    /// best ISA by default, pinned scalar when `EngineConfig::simd(false)` (or
    /// `FAULTLINE_FORCE_SCALAR=1`). Benchmarks read it to label their `simd`
    /// section with the dispatched ISA and lane width.
    #[must_use]
    pub fn kernel(&self) -> KernelIsa {
        self.kernel
    }

    /// The engine's telemetry handle: snapshot it for per-phase time histograms,
    /// per-shard cache counters, and the structural event ring. Inert (empty
    /// snapshots) when the config disabled telemetry.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The number of worker threads the pool resolved to.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.current_num_threads()
    }

    /// Lifetime `(hits, misses)` summed over every shard cache.
    #[must_use]
    pub fn cache_hit_miss(&self) -> (u64, u64) {
        self.caches.iter().fold((0, 0), |(h, m), cache| {
            let (ch, cm) = cache.hit_miss();
            (h + ch, m + cm)
        })
    }

    /// Total live cache entries across shards.
    #[must_use]
    pub fn cached_routes(&self) -> usize {
        self.caches.iter().map(RouteCache::len).sum()
    }

    /// Flushes exactly the cache entries whose cached walk visited a row the delta
    /// changed (endpoints included) — row-level invalidation. Returns the number of
    /// entries dropped.
    ///
    /// Surviving entries are guaranteed fresh, under every fault strategy: their
    /// walks read only unchanged rows (walks that read global membership state — a
    /// random-reroute recovery — are marked volatile at insert time and always
    /// evicted here), so replaying them on the patched topology reproduces the
    /// cached digest bit-for-bit. The delta must cover every changed row, which the
    /// maintainer's report deltas do by construction.
    pub fn invalidate_delta(&mut self, delta: &ChurnDelta, n: u64) -> usize {
        if delta.rows().is_empty() {
            return 0;
        }
        let telemetry = self.telemetry.clone();
        let _span = telemetry.span(Phase::Invalidate);
        let mut dirty = RowSet::with_space(n);
        for node in delta.changed_nodes() {
            dirty.insert(node as u32);
        }
        let flushed: usize = self
            .caches
            .iter_mut()
            .map(|cache| cache.invalidate_rows(&dirty))
            .sum();
        telemetry.event(EventKind::CacheInvalidation, saturate_u32(flushed as u64));
        flushed
    }

    /// Drops every cached route.
    pub fn flush_caches(&mut self) {
        for cache in &mut self.caches {
            cache.clear();
        }
    }

    /// Snapshots the engine has compiled so far (freezes, not patches or reuses):
    /// one per distinct topology [`QueryEngine::run_batch`] routed, plus the
    /// interleaved runner's own freezes.
    #[must_use]
    pub fn snapshots_built(&self) -> u64 {
        self.snapshots_built
    }

    /// Compiles a snapshot of `network` for this engine's routing view and kernel,
    /// counting it and recording its cost in the `freeze` phase. Returns the view
    /// and the nanoseconds the compile took.
    pub(crate) fn freeze(&mut self, network: &Network) -> (FrozenView, u64) {
        self.snapshots_built += 1;
        // xlint: allow(determinism) -- freeze cost feeds telemetry and epoch reports only; query results never depend on it
        let started = Instant::now();
        let view = self.routing_view(network).freeze().with_kernel(self.kernel);
        let nanos = started.elapsed().as_nanos() as u64;
        self.telemetry.record_phase(Phase::Freeze, nanos);
        (view, nanos)
    }

    /// Drops the engine's own snapshot (used by the interleaved runner, which
    /// maintains its own, so the engine never holds two).
    pub(crate) fn drop_snapshot(&mut self) {
        self.snapshot = None;
    }

    /// The routing view the engine's batches run over (hop-budget override applied).
    pub(crate) fn routing_view<'a>(&self, network: &'a Network) -> NetworkView<'a> {
        let mut view = network.view();
        if let Some(max_hops) = self.config.max_hops_override() {
            view = view.with_max_hops(max_hops);
        }
        view
    }

    /// Resolves the configured adversary membership against `network` (once; later
    /// calls return the already-resolved set) and returns it. Honest engines return
    /// `None`. Fraction memberships sample the *currently alive* nodes with an RNG
    /// seeded from the spec, so resolution is deterministic per `(network, config)`
    /// and independent of thread count.
    ///
    /// Callers that need the membership before running a batch — e.g. to draw an
    /// honest query batch via [`QueryBatch::uniform_honest`] — call this first;
    /// [`QueryEngine::run_batch`] and
    /// [`QueryEngine::run_interleaved`](crate::QueryEngine::run_interleaved) call it
    /// implicitly.
    ///
    /// The membership sticks to the engine for its lifetime (churn mutates it in
    /// place): pointing a byzantine engine at a *different* network keeps the first
    /// network's labels. Call [`QueryEngine::clear_adversaries`] first — or build a
    /// fresh engine — when switching networks.
    pub fn resolve_adversaries(&mut self, network: &Network) -> Option<&ByzantineSet> {
        if self.adversaries.is_none() {
            let spec = self.config.byzantine_config()?;
            self.adversaries = Some(match spec.membership() {
                ByzantineMembership::Fraction { fraction, seed } => {
                    let mut rng = StdRng::seed_from_u64(*seed);
                    ByzantineSet::sample_fraction(network.graph(), *fraction, &mut rng)
                }
                ByzantineMembership::Explicit(set) => set.clone(),
            });
        }
        self.adversaries.as_ref()
    }

    /// The resolved adversary set, if the byzantine lane has been resolved (see
    /// [`QueryEngine::resolve_adversaries`]).
    #[must_use]
    pub fn adversaries(&self) -> Option<&ByzantineSet> {
        self.adversaries.as_ref()
    }

    /// Drops the resolved adversary membership so the next batch re-resolves it from
    /// the network it routes over. Required when re-pointing a byzantine engine at a
    /// different network: the cached set holds the *first* network's labels.
    pub fn clear_adversaries(&mut self) {
        self.adversaries = None;
    }

    /// Byzantine-lane membership updates driven by churn (see
    /// [`QueryEngine::run_interleaved`](crate::QueryEngine::run_interleaved)): a
    /// departing node loses its membership, and a joining node is either conscripted
    /// (`conscript == true`) or — crucially — *cleared*: grid labels are reused, so a
    /// join at a label the set still lists is a fresh honest node, not the returning
    /// adversary.
    pub(crate) fn adversary_churn(&mut self, node: NodeId, joined: bool, conscript: bool) {
        if let Some(set) = self.adversaries.as_mut() {
            if joined && conscript {
                set.insert(node);
                self.telemetry
                    .event(EventKind::AdversaryConviction, saturate_u32(node));
            } else {
                set.remove(node);
            }
        }
    }

    /// Executes a batch of lookups in parallel and reports per-query outcomes plus
    /// aggregate statistics, routing over the engine's own snapshot. See the crate
    /// docs for the execution model.
    ///
    /// Freezes once per topology: the compiled snapshot (O(nodes + links)) is kept
    /// between calls, keyed by [`Network::topology_stamp`], and reused for as long as
    /// the stamp matches. A changed stamp drops the old snapshot before the new one
    /// is compiled, so the engine never holds two.
    pub fn run_batch(&mut self, network: &Network, batch: &QueryBatch) -> BatchReport {
        self.run_batch_with_snapshot(network, batch, None)
    }

    /// Executes a batch over a caller-owned snapshot, or over the engine's own when
    /// `frozen` is `None` (exactly [`QueryEngine::run_batch`]).
    ///
    /// A caller-owned snapshot is for callers that maintain one across batches —
    /// the interleaved runner patches one `FrozenView` through churn epochs instead
    /// of recompiling per batch. It must describe `network`'s current topology; a
    /// stale snapshot routes the epoch it was patched to, not the live graph.
    pub fn run_batch_with_snapshot(
        &mut self,
        network: &Network,
        batch: &QueryBatch,
        frozen: Option<&FrozenView>,
    ) -> BatchReport {
        if let Some(snapshot) = frozen {
            return self.route_batch(network, batch, snapshot);
        }
        let stamp = network.topology_stamp();
        let held = match self.snapshot.take() {
            Some((held_stamp, view)) if held_stamp == stamp => view,
            stale => {
                // Release the stale snapshot before compiling its successor, so the
                // engine never holds two.
                drop(stale);
                self.freeze(network).0
            }
        };
        let report = self.route_batch(network, batch, &held);
        self.snapshot = Some((stamp, held));
        report
    }

    /// Routes a batch over `frozen`, which must describe `network`'s topology.
    fn route_batch(
        &mut self,
        network: &Network,
        batch: &QueryBatch,
        frozen: &FrozenView,
    ) -> BatchReport {
        let n = network.len();
        // Failure-epoch runs grant failed lookups a bounded diversified-retry
        // budget; without a schedule the honest path is single-attempt, exactly
        // the pre-resilience behaviour.
        let retry_budget = self
            .config
            .failures_config()
            .map_or(0, crate::failures::FailureSchedule::retry_budget);
        self.resolve_adversaries(network);
        let router = self.routing_view(network).router();
        // Byzantine lane: a non-empty resolved adversary set routes every query
        // through redundant diversified walks, bypassing the route cache (a cached
        // digest cannot tell which walks an adversary swallowed). An empty set is the
        // honest path bit for bit.
        let byzantine = match (self.config.byzantine_config(), self.adversaries.as_ref()) {
            (Some(spec), Some(set)) if !set.is_empty() => {
                let inner = match spec.strategy_override() {
                    Some(strategy) => router.with_strategy(strategy),
                    None => router,
                };
                Some(ByzantineLane {
                    router: RedundantRouter::new(inner, spec.redundancy_factor()),
                    adversaries: set,
                })
            }
            _ => None,
        };

        // Assign queries to shards by source bucket; shard order is part of the
        // deterministic contract (same batch ⇒ same per-shard sequences). Queries whose
        // endpoints are not even grid points fail up front — the router would report
        // them as dead endpoints anyway, and bucketing must not panic on them.
        // Kernel dispatch is resolved exactly once per batch: every snapshot
        // carries its own kernel (the engine stamps its own at freeze time).
        let kernel = frozen.kernel();
        let shard_count = self.shards.len();
        for shard in &mut self.shards {
            shard.queries.clear();
            shard.outcomes.clear();
        }
        // Every slot starts as the pre-failed outcome; routed queries overwrite theirs.
        let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(batch.len());
        let mut routed = 0usize;
        for (index, &(source, target)) in batch.pairs().iter().enumerate() {
            outcomes.push(QueryOutcome {
                source,
                target,
                delivered: false,
                hops: 0,
                recoveries: 0,
                cached: false,
                attempts: 0,
                adversary_drops: 0,
                total_hops: 0,
                nanos: 0,
            });
            if source < n && target < n {
                let shard = (bucket_of(source, n) as usize) % shard_count;
                self.shards[shard].queries.push(index);
                routed += 1;
            }
        }

        let telemetry_handle = self.telemetry.clone();
        let telemetry = &telemetry_handle;
        // xlint: allow(determinism) -- batch wall-time is reported in stats only, never read by routing
        let started = Instant::now();
        self.pool.scope(|scope| {
            for (cache, shard) in self.caches.iter_mut().zip(self.shards.iter_mut()) {
                if shard.queries.is_empty() {
                    continue;
                }
                scope.spawn(move |_| {
                    // Wall time this shard's worker spent on its slice of the batch
                    // (recording only bumps atomics, never the routing RNG stream).
                    let _shard_span = telemetry.span(Phase::BatchShard);
                    // Path recording feeds the cache entry's row-dependency list
                    // (the byzantine lane forces it on per call and restores it);
                    // without a cache the kernel skips the per-hop stores entirely.
                    let mut scratch = RouteScratch::new()
                        .with_path_recording(cache.enabled() && byzantine.is_none())
                        .with_kernel(kernel);
                    match byzantine {
                        Some(lane) => {
                            for &index in &shard.queries {
                                let (source, target) = batch.pairs()[index];
                                let outcome = route_one_byzantine(
                                    frozen,
                                    lane,
                                    &mut scratch,
                                    batch.seed(),
                                    index,
                                    source,
                                    target,
                                );
                                shard.outcomes.push((index, outcome));
                            }
                        }
                        None => {
                            // Cache probes, inserts and LRU order must follow batch
                            // order, so a caching shard routes one walk at a time.
                            let width = if cache.enabled() { 1 } else { PIPELINE_WIDTH };
                            let mut feed = ShardFeed {
                                pairs: batch.pairs(),
                                queue: shard.queries.iter(),
                                router: frozen.router(),
                                retry_router: diversified(frozen.router()),
                                batch_seed: batch.seed(),
                                retry_budget,
                                n,
                                cache: &mut *cache,
                                deps: &mut shard.deps,
                                outcomes: &mut shard.outcomes,
                            };
                            WalkPipeline::new(width, &scratch).run(frozen.routes(), &mut feed);
                        }
                    }
                    // One batched telemetry publication per shard per batch: the
                    // per-query cache paths bump plain counters only.
                    cache.publish_telemetry();
                });
            }
        });
        let wall = started.elapsed();

        // Scatter shard outputs straight into batch order.
        let mut written = 0usize;
        for shard in &self.shards {
            for &(index, outcome) in &shard.outcomes {
                outcomes[index] = outcome;
            }
            written += shard.outcomes.len();
        }
        // Shard partitioning is exhaustive by construction (every routed index lands
        // in exactly one shard slice and yields one outcome); a gap is a bug worth
        // crashing on, not a recoverable state.
        assert_eq!(
            written, routed,
            "every routed query yields exactly one outcome"
        );
        BatchReport::with_mode(outcomes, wall, self.threads(), byzantine.is_some())
    }
}

/// The router a diversified retry attempt uses: an already-randomized strategy is
/// kept (a fresh seed changes its re-route draws), while the deterministic
/// strategies — whose walk a fresh seed cannot change — escalate to random
/// re-route, so no retry ever replays the exact walk that just failed.
fn diversified(router: Router) -> Router {
    match router.strategy() {
        FaultStrategy::RandomReroute { .. } => router,
        _ => router.with_strategy(FaultStrategy::RandomReroute { max_attempts: 2 }),
    }
}

/// A lookup in flight on an honest shard: the [`Walk`] tag of each of its attempts.
#[derive(Clone, Copy)]
struct Lookup {
    index: usize,
    /// Admission time: `QueryOutcome::nanos` is measured from here.
    started: Instant,
    /// `seed_for_trial(batch seed, index)`: the first attempt's seed, and the root
    /// every retry's seed derives from.
    base_seed: u64,
    attempts: u32,
    total_hops: u64,
}

/// One honest shard's lookups as a [`WalkFeed`]: it admits the shard's queries in
/// batch order (serving cache hits without a walk), turns a failed attempt into a
/// follow-on walk while the retry budget lasts, and records each lookup's outcome
/// and cache entry.
///
/// When `retry_budget > 0` (failure epochs), an undelivered lookup re-routes up to
/// that many more times, each attempt with a seed derived from `(batch seed, query
/// index, attempt)` and a diversified strategy ([`diversified`]) — deterministic at
/// any thread count and pipeline width, like the first attempt.
struct ShardFeed<'a> {
    pairs: &'a [(NodeId, NodeId)],
    queue: std::slice::Iter<'a, usize>,
    router: Router,
    retry_router: Router,
    batch_seed: u64,
    retry_budget: u32,
    n: u64,
    cache: &'a mut RouteCache,
    /// Row dependencies of the lookup in flight. Only a caching shard fills it,
    /// and a caching shard has one walk in flight at a time.
    deps: &'a mut Vec<u32>,
    outcomes: &'a mut Vec<(usize, QueryOutcome)>,
}

impl WalkFeed for ShardFeed<'_> {
    type Tag = Lookup;

    fn admit(&mut self) -> Option<Walk<Lookup>> {
        for &index in self.queue.by_ref() {
            let (source, target) = self.pairs[index];
            // xlint: allow(determinism) -- per-query latency stamp: reported in percentiles only, never read by routing
            let started = Instant::now();
            let buckets = (bucket_of(source, self.n), bucket_of(target, self.n));
            if let Some(hit) = self.cache.get(buckets.0, buckets.1) {
                self.outcomes.push((
                    index,
                    QueryOutcome {
                        source,
                        target,
                        delivered: hit.delivered,
                        hops: hit.hops,
                        recoveries: hit.recoveries,
                        cached: true,
                        attempts: 1,
                        adversary_drops: 0,
                        total_hops: hit.hops,
                        nanos: started.elapsed().as_nanos() as u64,
                    },
                ));
                continue;
            }
            self.deps.clear();
            let base_seed = seed_for_trial(self.batch_seed, index as u64);
            return Some(Walk {
                router: self.router,
                source,
                target,
                seed: base_seed,
                tag: Lookup {
                    index,
                    started,
                    base_seed,
                    attempts: 0,
                    total_hops: 0,
                },
            });
        }
        None
    }

    fn finish(
        &mut self,
        mut lookup: Lookup,
        result: &RouteResult,
        scratch: &RouteScratch,
        _rng: &SmallRng,
    ) -> Option<Walk<Lookup>> {
        // Retries accumulate into the same dependency set: every attempt's walk is
        // a row dependency of the final cached digest.
        if self.cache.enabled() {
            self.deps.extend_from_slice(scratch.path());
        }
        lookup.attempts += 1;
        lookup.total_hops += result.hops;
        let (source, target) = self.pairs[lookup.index];
        if !result.is_delivered() && lookup.attempts <= self.retry_budget {
            return Some(Walk {
                router: self.retry_router,
                source,
                target,
                seed: seed_for_trial(lookup.base_seed, u64::from(lookup.attempts)),
                tag: lookup,
            });
        }
        if self.cache.enabled() {
            // The endpoints are dependencies even when the walk never reached them
            // (a failed lookup's digest goes stale the moment its target's liveness
            // flips); duplicates are harmless to the linear invalidation scan.
            self.deps.push(source as u32);
            self.deps.push(target as u32);
        }
        // A random-reroute recovery samples the global alive set: the digest depends
        // on membership state no row-dependency list can capture, so row-level
        // invalidation must always evict it. Terminate never recovers; backtrack
        // recovers along visited rows only. A retried lookup is volatile for the
        // same reason — its diversified attempts re-route randomly.
        let volatile = lookup.attempts > 1
            || (result.recoveries > 0
                && matches!(self.router.strategy(), FaultStrategy::RandomReroute { .. }));
        let (delivered, hops, recoveries) = (result.is_delivered(), result.hops, result.recoveries);
        self.cache.insert(
            bucket_of(source, self.n),
            bucket_of(target, self.n),
            CachedRoute {
                delivered,
                hops,
                recoveries,
            },
            self.deps.as_slice(),
            volatile,
        );
        self.outcomes.push((
            lookup.index,
            QueryOutcome {
                source,
                target,
                delivered,
                hops,
                recoveries,
                cached: false,
                attempts: lookup.attempts,
                adversary_drops: 0,
                total_hops: lookup.total_hops,
                nanos: lookup.started.elapsed().as_nanos() as u64,
            },
        ));
        None
    }
}

/// Routes one query on the byzantine lane: up to `redundancy` diversified walks over
/// the CSR snapshot, each truncated at the first adversary it steps onto. Never
/// consults the route cache.
///
/// Determinism matches the honest path's contract: randomness derives from
/// `(batch seed, query index)` through a `SmallRng`, like the honest kernel, so
/// results are identical at any thread count, and identical to a sequential loop of
/// per-query [`RedundantRouter::route_frozen`] calls with the same seeds.
fn route_one_byzantine(
    frozen: &FrozenView,
    lane: ByzantineLane<'_>,
    scratch: &mut RouteScratch,
    batch_seed: u64,
    index: usize,
    source: NodeId,
    target: NodeId,
) -> QueryOutcome {
    // xlint: allow(determinism) -- per-query latency stamp: reported in percentiles only, never read by routing
    let started = Instant::now();
    let mut rng = SmallRng::seed_from_u64(seed_for_trial(batch_seed, index as u64));
    let result = lane.router.route_frozen(
        frozen.routes(),
        lane.adversaries,
        source,
        target,
        &mut rng,
        scratch,
    );
    QueryOutcome {
        source,
        target,
        delivered: result.delivered,
        // Latency cost when delivered (the winning walk), bandwidth cost when not.
        hops: result.winning_hops.unwrap_or(result.total_hops),
        recoveries: result.recoveries,
        cached: false,
        attempts: result.attempts,
        adversary_drops: result.dropped_by_adversary,
        total_hops: result.total_hops,
        nanos: started.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::NetworkConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network(n: u64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::build(&NetworkConfig::paper_default(n), &mut rng)
    }

    #[test]
    fn healthy_network_delivers_everything() {
        let net = network(1 << 9, 1);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(0));
        let batch = QueryBatch::uniform(&net, 2_000, 7);
        let report = engine.run_batch(&net, &batch);
        assert_eq!(report.queries(), 2_000);
        assert_eq!(report.delivered(), 2_000);
        assert_eq!(report.cache_hits(), 0, "caching disabled");
        assert!(report.hop_summary().unwrap().mean > 0.0);
    }

    #[test]
    fn cache_hits_accumulate_and_match_fresh_routes() {
        let net = network(1 << 9, 2);
        let mut cached = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(512));
        let mut fresh = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(0));
        let batch = QueryBatch::uniform(&net, 5_000, 3);
        let cached_report = cached.run_batch(&net, &batch);
        let fresh_report = fresh.run_batch(&net, &batch);
        assert!(
            cached_report.cache_hits() > 0,
            "5k uniform queries must repeat bucket pairs"
        );
        // On an undamaged overlay a cached digest is as deliverable as a fresh route.
        assert_eq!(cached_report.delivered(), fresh_report.delivered());
        let (hits, misses) = cached.cache_hit_miss();
        assert_eq!(hits as usize, cached_report.cache_hits());
        assert!(misses > 0);
        assert!(cached.cached_routes() > 0);
        cached.flush_caches();
        assert_eq!(cached.cached_routes(), 0);
    }

    /// Routes query `i` of `batch` over the live graph with the engine's per-query
    /// seed — the oracle every engine outcome must equal under a deterministic
    /// strategy.
    fn live_oracle(net: &Network, batch: &QueryBatch) -> Vec<(bool, u64, u64)> {
        let view = net.view();
        batch
            .pairs()
            .iter()
            .enumerate()
            .map(|(i, &(s, t))| {
                let r = view.route_seeded(s, t, seed_for_trial(batch.seed(), i as u64));
                (r.is_delivered(), r.hops, r.recoveries)
            })
            .collect()
    }

    fn uncached_outcomes(net: &Network, batch: &QueryBatch) -> Vec<(bool, u64, u64)> {
        let mut engine = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(0));
        engine
            .run_batch(net, batch)
            .outcomes()
            .iter()
            .map(|o| (o.delivered, o.hops, o.recoveries))
            .collect()
    }

    #[test]
    fn uncached_engine_matches_the_live_oracle_on_a_healthy_overlay() {
        let net = network(1 << 9, 8);
        let batch = QueryBatch::uniform(&net, 3_000, 21);
        assert_eq!(uncached_outcomes(&net, &batch), live_oracle(&net, &batch));
    }

    #[test]
    fn simd_and_scalar_engines_agree_bit_for_bit() {
        let net = network(1 << 9, 8);
        let batch = QueryBatch::uniform(&net, 3_000, 21);
        let mut auto = QueryEngine::new(EngineConfig::default().threads(2));
        let mut scalar = QueryEngine::new(EngineConfig::default().threads(2).simd(false));
        assert_eq!(scalar.kernel().label(), "scalar");
        assert_eq!(scalar.kernel().lanes(), 1);
        let a = auto.run_batch(&net, &batch);
        let b = scalar.run_batch(&net, &batch);
        let digest = |r: &BatchReport| {
            r.outcomes()
                .iter()
                .map(|o| {
                    (
                        o.source,
                        o.target,
                        o.delivered,
                        o.hops,
                        o.recoveries,
                        o.cached,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            digest(&a),
            digest(&b),
            "the {} kernel diverged from the scalar fold",
            auto.kernel().label()
        );
        assert_eq!(auto.cached_routes(), scalar.cached_routes());
    }

    #[test]
    fn uncached_engine_matches_the_live_oracle_on_a_damaged_overlay() {
        use faultline_failure::NodeFailure;
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = Network::build(&NetworkConfig::paper_default(1 << 9), &mut rng);
        let mut failure_rng = StdRng::seed_from_u64(14);
        net.apply_failure(&NodeFailure::fraction(0.35), &mut failure_rng);
        let batch = QueryBatch::uniform(&net, 5_000, 31);
        let engine = uncached_outcomes(&net, &batch);
        assert_eq!(engine, live_oracle(&net, &batch));
        assert!(
            engine.iter().any(|&(delivered, _, _)| !delivered),
            "35% damage should break some searches"
        );
    }

    #[test]
    fn out_of_range_endpoints_fail_cleanly_instead_of_panicking() {
        let net = network(256, 6);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(2));
        let batch = QueryBatch::from_pairs(0, vec![(1 << 20, 5), (5, 1 << 20), (3, 200)]);
        let report = engine.run_batch(&net, &batch);
        assert_eq!(report.queries(), 3);
        assert!(!report.outcomes()[0].delivered);
        assert!(!report.outcomes()[1].delivered);
        assert!(report.outcomes()[2].delivered);
    }

    #[test]
    fn delta_invalidation_flushes_only_dependent_entries() {
        use faultline_overlay::{ChurnDelta, RowChangeKind};
        let net = network(1 << 9, 23);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(1));
        let batch = QueryBatch::uniform(&net, 3_000, 11);
        engine.run_batch(&net, &batch);
        let populated = engine.cached_routes();
        assert!(populated > 0);
        // An empty delta flushes nothing.
        assert_eq!(engine.invalidate_delta(&ChurnDelta::new(), net.len()), 0);
        assert_eq!(engine.cached_routes(), populated);
        // A delta naming one changed row flushes exactly the entries whose walks
        // visited it.
        let mut delta = ChurnDelta::new();
        delta.record(0, RowChangeKind::Structural, true, vec![1]);
        let flushed = engine.invalidate_delta(&delta, net.len());
        assert!(flushed > 0, "node 0 is on some cached walk");
        assert!(flushed < populated, "walks that dodged node 0 stay cached");
        assert_eq!(engine.cached_routes(), populated - flushed);
    }

    #[test]
    fn reports_resolved_thread_count() {
        let engine = QueryEngine::new(EngineConfig::default().threads(3));
        assert_eq!(engine.threads(), 3);
        assert!(QueryEngine::new(EngineConfig::default()).threads() >= 1);
    }
}
