//! The three closed-loop workloads and the pass that runs one of them.
//!
//! A pass sets the workload up, then runs rounds. One client thread submits each
//! round only after the previous one returned; the engine's own pool is the only
//! other source of threads while a round is timed. Each round's pairs are drawn
//! before its clock starts, and the untimed work after the batch (the checker, or
//! a kernel replay) runs with the clock stopped, before the round's topology
//! moves.

use crate::check::{check_batch, Fault, Verdict};
use crate::trace::Tracer;
use faultline_core::failure::{ChurnEvent, ChurnSchedule, RegionFailure};
use faultline_core::overlay::NodeId;
use faultline_core::routing::RouteScratch;
use faultline_core::sim::seed_for_trial;
use faultline_core::{ConstructionMode, FrozenView, Network, NetworkConfig};
use faultline_engine::{
    bucket_of, ChurnDelta, ChurnMix, EngineConfig, EpochWorkload, FailureEvent, FailureSchedule,
    QueryBatch, QueryEngine, QueryOutcome,
};
use faultline_scenario::QuerySkew;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seed of every workload's overlay and of the traffic that warms `zipf-cache`'s
/// route cache. They are a fixed fixture and `--seed` drives the timed traffic,
/// churn and failures on it: at `zipf-cache`'s skew a handful of hot pairs carry
/// most lookups, so drawing a new overlay per seed would move the hop counts of
/// those pairs, and with them every count metric, by far more than any change to
/// the program.
pub const NETWORK_SEED: u64 = 2002;

// Salts that give each input stream its own seed, so that changing one stream
// never shifts another.
const BATCH_SALT: u64 = 0x4241_5443_4845_5321;
const CHURN_SALT: u64 = 0x4348_5552_4E52_4E47;
const FAILURE_SALT: u64 = 0x4641_494C_5552_4521;
const WARM_SALT: u64 = 0x5741_524D_5550_2121;

/// Set-ups per checked pass; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
/// Untimed rounds that warm the `zipf-cache` route cache before timing and after
/// each flush.
pub const WARM_ROUNDS: usize = 2;
/// Timed `zipf-cache` rounds between two flushes of the route cache. At its skew
/// one bucket-pair entry serves about half the lookups, and whether they are
/// answered right is decided by the lookup that filled it; unflushed, an entry
/// lives for hundreds of rounds, so a run would see a handful of fills and its
/// rate of right answers would swing by seed. Flushing and re-warming (untimed)
/// every few rounds averages dozens of fills in one run.
pub const CACHE_EPOCH_ROUNDS: usize = 5;
/// Zipf exponent of `zipf-cache` sources and targets.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Balanced joins/leaves applied in each `zipf-cache` round.
pub const ZIPF_TRICKLE_EVENTS: usize = 4;
/// Width of each of the two regions a `churn-failures` partition crashes.
pub const PARTITION_WIDTH: u64 = 64;
/// Share of alive nodes a `churn-failures` round churns.
pub const CHURN_FRACTION: f64 = 0.01;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ideal overlay at the paper's shape, uniform pairs, cache off.
    UniformPaper,
    /// Ideal overlay, Zipf pairs, default engine with its route cache, churn trickle.
    ZipfCache,
    /// Section 5 overlay, uniform pairs, partition-and-heal failures, 1% churn.
    ChurnFailures,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::UniformPaper,
        Workload::ZipfCache,
        Workload::ChurnFailures,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformPaper => "uniform-paper",
            Workload::ZipfCache => "zipf-cache",
            Workload::ChurnFailures => "churn-failures",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's shape for the workload: `(lg n, pairs per round)`; the
    /// overlay has `n = 2^lg n` nodes and `ℓ = lg n` links each.
    #[must_use]
    pub fn shape(self) -> Shape {
        match self {
            Workload::UniformPaper => Shape {
                lg_n: 17,
                pairs: 32_768,
            },
            Workload::ZipfCache => Shape {
                lg_n: 14,
                pairs: 65_536,
            },
            Workload::ChurnFailures => Shape {
                lg_n: 14,
                pairs: 16_384,
            },
        }
    }

    fn network_config(self, shape: Shape) -> NetworkConfig {
        let config =
            NetworkConfig::paper_default(shape.nodes()).links_per_node(shape.lg_n as usize);
        match self {
            Workload::ChurnFailures => config.construction(ConstructionMode::incremental_default()),
            Workload::UniformPaper | Workload::ZipfCache => config,
        }
    }

    fn engine_config(self, threads: usize, telemetry: bool) -> EngineConfig {
        let config = EngineConfig::default()
            .threads(threads)
            .telemetry(telemetry);
        match self {
            Workload::UniformPaper => config.cache_capacity(0),
            Workload::ZipfCache => config,
            Workload::ChurnFailures => config
                .cache_capacity(0)
                .failures(FailureSchedule::partition_and_heal(PARTITION_WIDTH)),
        }
    }
}

/// Overlay size and round size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// `lg n`; also the number of long links per node.
    pub lg_n: u32,
    /// Lookups per round.
    pub pairs: usize,
}

impl Shape {
    /// Nodes in the overlay.
    #[must_use]
    pub fn nodes(self) -> u64 {
        1 << self.lg_n
    }
}

/// How many rounds a pass runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rounds {
    /// Exactly this many.
    Exact(usize),
    /// At least `min`, and until `seconds` of wall time have passed since the
    /// first round started.
    Timed {
        /// Fewest rounds.
        min: usize,
        /// Wall-time budget.
        seconds: f64,
    },
}

/// Untimed work a pass does after each round's batch, before the topology moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Between {
    /// Recompute and judge every lookup ([`check_batch`]).
    Check,
    /// Route the round's pairs again on one thread over the round's snapshot
    /// (`FrozenView::route_seeded`), timing the kernel alone.
    Replay,
}

/// One pass: a workload, its inputs and how it is observed.
#[derive(Debug, Clone, Copy)]
pub struct PassSpec {
    /// Which workload.
    pub workload: Workload,
    /// Overlay and round size.
    pub shape: Shape,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Engine worker threads (and checker threads).
    pub threads: usize,
    /// `EngineConfig::telemetry`.
    pub telemetry: bool,
    /// Record spans.
    pub trace: bool,
    /// Untimed work after each batch.
    pub between: Between,
    /// Set-ups to time; the last one is kept.
    pub setups: usize,
    /// Round budget.
    pub rounds: Rounds,
}

/// Work counts of one round, read from the program's reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundCounts {
    /// `PatchStats::rows_patched`, summed.
    pub rows_patched: u64,
    /// Patches that ended in a compaction.
    pub compactions: u64,
    /// Patches that fell back to a rebuild.
    pub rebuild_fallbacks: u64,
    /// Joins applied.
    pub joins: u64,
    /// Leaves applied.
    pub leaves: u64,
    /// Churn events the maintainer rejected.
    pub churn_rejected: u64,
    /// Delta rows the churn events produced.
    pub churn_rows: u64,
    /// Failure events applied (a partition or a heal).
    pub failure_events: u64,
    /// Nodes a partition downed.
    pub nodes_downed: u64,
    /// Cache entries `invalidate_delta` evicted.
    pub routes_evicted: u64,
    /// Max ÷ mean lookups per shard, shards from `bucket_of`.
    pub shard_imbalance: f64,
}

/// One round as a pass saw it.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Timed wall time: the round without its checker and kernel replay.
    pub wall_ns: u64,
    /// Digest of the round's outcomes.
    pub digest: u64,
    /// Lookups submitted.
    pub lookups: u64,
    /// The checker's verdict, on [`Between::Check`] passes.
    pub verdict: Option<Verdict>,
    /// Work counts.
    pub counts: RoundCounts,
    /// Single-thread kernel replay of the round's pairs: `(ns, hops)`, on
    /// [`Between::Replay`] passes.
    pub replay: Option<(u64, u64)>,
}

/// Everything a pass produced.
#[derive(Debug)]
pub struct PassOutput {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Timed rounds in order.
    pub rounds: Vec<RoundRecord>,
    /// Spans (empty unless traced).
    pub tracer: Tracer,
    /// Engine worker threads the pool resolved to.
    pub engine_threads: usize,
    /// Dispatched distance-scan kernel.
    pub kernel: &'static str,
    /// Retry budget of the engine's failure schedule.
    pub retry_budget: u32,
    /// Estimated snapshot bytes per node, from `edge_count` of a fresh freeze of
    /// the final topology.
    pub snapshot_bytes_per_node: f64,
}

/// FNV-1a over the outcome fields that describe a lookup's answer.
fn digest(outcomes: &[QueryOutcome]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for o in outcomes {
        feed(o.source);
        feed(o.target);
        feed(u64::from(o.delivered) | u64::from(o.cached) << 1);
        feed(o.hops);
        feed(o.recoveries);
        feed(u64::from(o.attempts));
        feed(o.total_hops);
    }
    hash
}

/// The program state a pass drives.
struct World {
    net: Network,
    engine: QueryEngine,
    /// The persistent snapshot of `zipf-cache` and `churn-failures`.
    snapshot: Option<FrozenView>,
    /// Nodes the current partition downed, revived by the next heal.
    downed: Vec<NodeId>,
}

fn setup(spec: &PassSpec, tracer: &mut Tracer) -> World {
    let workload = spec.workload;
    let config = workload.network_config(spec.shape);
    let mut rng = StdRng::seed_from_u64(NETWORK_SEED);
    let net = tracer.call("core.build", || Network::build(&config, &mut rng));
    let engine = tracer.call("engine.new", || {
        QueryEngine::new(workload.engine_config(spec.threads, spec.telemetry))
    });
    let snapshot = match workload {
        Workload::UniformPaper => None,
        Workload::ZipfCache | Workload::ChurnFailures => {
            Some(tracer.call("overlay.freeze", || {
                net.view().freeze().with_kernel(engine.kernel())
            }))
        }
    };
    let mut world = World {
        net,
        engine,
        snapshot,
        downed: Vec::new(),
    };
    if workload == Workload::ZipfCache {
        warm(&mut world, spec.shape.pairs, NETWORK_SEED, 0, tracer);
    }
    world
}

/// Runs [`WARM_ROUNDS`] untimed `zipf-cache` batches of the stream seeded
/// `master`, starting at its round `first`, to fill the route cache.
fn warm(world: &mut World, pairs: usize, master: u64, first: u32, tracer: &mut Tracer) {
    let World {
        net,
        engine,
        snapshot,
        ..
    } = world;
    for round in first..first + WARM_ROUNDS as u32 {
        let batch = draw(Workload::ZipfCache, net, pairs, master, round);
        tracer.call("engine.run_batch_with_snapshot", || {
            engine.run_batch_with_snapshot(net, &batch, snapshot.as_ref())
        });
    }
}

/// Draws the pairs of round `round` of the stream seeded `master` from the live
/// network.
fn draw(workload: Workload, net: &Network, pairs: usize, master: u64, round: u32) -> QueryBatch {
    let seed = seed_for_trial(master ^ BATCH_SALT, u64::from(round));
    match workload {
        Workload::UniformPaper | Workload::ChurnFailures => QueryBatch::uniform(net, pairs, seed),
        Workload::ZipfCache => QuerySkew::Zipf {
            exponent: ZIPF_EXPONENT,
        }
        .batch(
            net,
            &EpochWorkload {
                epoch: round as usize,
                epochs: round as usize + 1,
                queries: pairs,
                seed,
                adversaries: None,
            },
        ),
    }
}

/// Runs one pass.
///
/// # Errors
///
/// Returns the first structural [`Fault`] the checker found.
pub fn run_pass(spec: &PassSpec) -> Result<PassOutput, Fault> {
    let mut tracer = if spec.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut world = None;
    for _ in 0..spec.setups.max(1) {
        drop(world.take());
        let started = Instant::now();
        world = Some(setup(spec, &mut tracer));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up ran");
    let retry_budget = world
        .engine
        .config()
        .failures_config()
        .map_or(0, FailureSchedule::retry_budget);
    let mut rounds = Vec::new();
    let started = Instant::now();
    loop {
        let done = match spec.rounds {
            Rounds::Exact(count) => rounds.len() >= count,
            Rounds::Timed { min, seconds } => {
                rounds.len() >= min && started.elapsed().as_secs_f64() >= seconds
            }
        };
        if done {
            break;
        }
        let id = rounds.len() as u32;
        rounds.push(run_round(&mut world, spec, id, retry_budget, &mut tracer)?);
    }
    let fresh = world.net.view().freeze();
    let routes = fresh.routes();
    let n = routes.len() as f64;
    // Offsets, adjacency and the sorted alive list are u32s, the alive set one
    // bit per node; lane padding and patch overflow are not counted.
    let bytes = 4.0 * (n + 1.0)
        + 4.0 * routes.edge_count() as f64
        + 4.0 * routes.alive_count() as f64
        + n / 8.0;
    Ok(PassOutput {
        setup_s,
        rounds,
        tracer,
        engine_threads: world.engine.threads(),
        kernel: world.engine.kernel().label(),
        retry_budget,
        snapshot_bytes_per_node: bytes / n,
    })
}

fn shard_imbalance(batch: &QueryBatch, n: u64, shards: usize) -> f64 {
    let mut per_shard = vec![0u64; shards];
    for &(source, _) in batch.pairs() {
        per_shard[bucket_of(source, n) as usize % shards] += 1;
    }
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    let mean = batch.len() as f64 / shards as f64;
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// Routes the round's pairs again on one thread over `snapshot`, first attempts
/// only, and returns `(ns, hops)`. A traced pass records the whole replay as one
/// span, not one per `route_seeded` call, so a trace stays a few spans per round.
fn replay_kernel(snapshot: &FrozenView, batch: &QueryBatch) -> (u64, u64) {
    let mut scratch = RouteScratch::new()
        .with_path_recording(false)
        .with_kernel(snapshot.kernel());
    let started = Instant::now();
    let mut hops = 0u64;
    for (index, &(source, target)) in batch.pairs().iter().enumerate() {
        let seed = seed_for_trial(batch.seed(), index as u64);
        hops += black_box(snapshot.route_seeded(source, target, seed, &mut scratch)).hops;
    }
    (started.elapsed().as_nanos() as u64, hops)
}

/// The round's timed steps run under `clock`; everything else is untimed.
struct Clock(Duration);

impl Clock {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.0 += started.elapsed();
        out
    }
}

fn run_round(
    world: &mut World,
    spec: &PassSpec,
    round: u32,
    retry_budget: u32,
    tracer: &mut Tracer,
) -> Result<RoundRecord, Fault> {
    let workload = spec.workload;
    let n = world.net.len();
    let index = round as usize;
    if workload == Workload::ZipfCache && index > 0 && index.is_multiple_of(CACHE_EPOCH_ROUNDS) {
        tracer.call("engine.flush_caches", || world.engine.flush_caches());
        let first = (index / CACHE_EPOCH_ROUNDS * WARM_ROUNDS) as u32;
        warm(
            world,
            spec.shape.pairs,
            spec.seed ^ WARM_SALT,
            first,
            tracer,
        );
    }
    let batch = draw(workload, &world.net, spec.shape.pairs, spec.seed, round);
    let mut counts = RoundCounts {
        shard_imbalance: shard_imbalance(&batch, n, world.engine.config().shard_count()),
        ..RoundCounts::default()
    };
    let mut clock = Clock(Duration::ZERO);
    tracer.begin_round(round);

    if workload == Workload::ChurnFailures {
        clock.time(|| failure_step(world, spec, round, &mut counts, tracer));
    }

    let replaying = spec.between == Between::Replay;
    let (report, round_snapshot) = clock.time(|| {
        let World {
            net,
            engine,
            snapshot,
            ..
        } = &mut *world;
        match workload {
            // The checked pass calls `run_batch`, which freezes inside; a replaying
            // pass makes the same two steps as two calls, so each is a span and the
            // replay routes the snapshot the batch routed.
            Workload::UniformPaper if !replaying => (engine.run_batch(net, &batch), None),
            Workload::UniformPaper => {
                let frozen = tracer.call("overlay.freeze", || {
                    net.view().freeze().with_kernel(engine.kernel())
                });
                let report = tracer.call("engine.run_batch_with_snapshot", || {
                    engine.run_batch_with_snapshot(net, &batch, Some(&frozen))
                });
                (report, Some(frozen))
            }
            Workload::ZipfCache | Workload::ChurnFailures => {
                let report = tracer.call("engine.run_batch_with_snapshot", || {
                    engine.run_batch_with_snapshot(net, &batch, snapshot.as_ref())
                });
                (report, None)
            }
        }
    });
    let outcomes = report.outcomes();

    let verdict = match spec.between {
        Between::Check => {
            let view = world.net.view();
            Some(tracer.call("bench.check", || {
                check_batch(view, &batch, outcomes, retry_budget, spec.threads, round)
            })?)
        }
        Between::Replay => None,
    };
    let replay = replaying.then(|| {
        let snapshot = round_snapshot
            .as_ref()
            .or(world.snapshot.as_ref())
            .expect("every replaying round routes a snapshot");
        tracer.call("routing.route_seeded", || replay_kernel(snapshot, &batch))
    });

    if workload != Workload::UniformPaper {
        churn_step(world, spec, round, &mut counts, &mut clock, tracer);
    }
    tracer.end_round();

    Ok(RoundRecord {
        wall_ns: clock.0.as_nanos() as u64,
        digest: digest(outcomes),
        lookups: batch.len() as u64,
        verdict,
        counts,
        replay,
    })
}

/// Patches the persistent snapshot from `delta` and evicts the cache entries it
/// invalidates.
fn publish(world: &mut World, delta: &ChurnDelta, counts: &mut RoundCounts, tracer: &mut Tracer) {
    if delta.is_empty() {
        return;
    }
    let n = world.net.len();
    let World {
        net,
        engine,
        snapshot,
        ..
    } = world;
    let snapshot = snapshot
        .as_mut()
        .expect("churned workloads keep a persistent snapshot");
    let stats = tracer.call("overlay.apply_delta", || {
        snapshot.apply_delta(net.graph(), delta)
    });
    counts.rows_patched += stats.rows_patched as u64;
    counts.compactions += u64::from(stats.compacted);
    counts.rebuild_fallbacks += u64::from(stats.rebuilt);
    let evicted = tracer.call("engine.invalidate_delta", || {
        engine.invalidate_delta(delta, n)
    });
    counts.routes_evicted += evicted as u64;
}

/// `churn-failures` step 1: the schedule's event for this round, applied through
/// `apply_failure_delta` / `heal_nodes` and published before the batch routes.
fn failure_step(
    world: &mut World,
    spec: &PassSpec,
    round: u32,
    counts: &mut RoundCounts,
    tracer: &mut Tracer,
) {
    let n = world.net.len();
    let event = world
        .engine
        .config()
        .failures_config()
        .expect("churn-failures configures a failure schedule")
        .event_for(round as usize);
    let mut rng = StdRng::seed_from_u64(seed_for_trial(spec.seed ^ FAILURE_SALT, u64::from(round)));
    let mut delta = ChurnDelta::new();
    match event {
        FailureEvent::Partition { width } => {
            let start = rng.gen_range(0..n);
            for region in [start, (start + n / 2) % n] {
                let plan = RegionFailure::at(region, width);
                let (report, d) = tracer.call("failure.apply_failure_delta", || {
                    world.net.apply_failure_delta(&plan, &mut rng)
                });
                counts.nodes_downed += report.failed_nodes.len() as u64;
                world.downed.extend_from_slice(&report.failed_nodes);
                delta.absorb(d);
            }
        }
        FailureEvent::Heal => {
            let mut revive = std::mem::take(&mut world.downed);
            revive.sort_unstable();
            revive.dedup();
            delta.absorb(tracer.call("failure.heal_nodes", || world.net.heal_nodes(&revive)));
        }
        FailureEvent::Region { .. } | FailureEvent::Quiet => {
            unreachable!("partition_and_heal schedules only partitions and heals")
        }
    }
    counts.failure_events += 1;
    publish(world, &delta, counts, tracer);
}

/// Churn after the batch: `zipf-cache`'s balanced trickle or `churn-failures`'
/// 1% of alive nodes, through `Network::join` / `leave`, then published. The
/// schedule is drawn untimed from the live network.
fn churn_step(
    world: &mut World,
    spec: &PassSpec,
    round: u32,
    counts: &mut RoundCounts,
    clock: &mut Clock,
    tracer: &mut Tracer,
) {
    let n = world.net.len();
    let mix = match spec.workload {
        Workload::ZipfCache => ChurnMix::balanced(ZIPF_TRICKLE_EVENTS),
        _ => ChurnMix::fraction_of(n, CHURN_FRACTION),
    };
    let mut rng = StdRng::seed_from_u64(seed_for_trial(spec.seed ^ CHURN_SALT, u64::from(round)));
    let events = mix.events_for(world.net.alive_count());
    let schedule = ChurnSchedule::generate(
        n,
        world.net.graph().present_nodes(),
        events,
        mix.join_probability,
        &mut rng,
    );
    clock.time(|| {
        let mut delta = ChurnDelta::new();
        for event in schedule.events() {
            let report = match *event {
                ChurnEvent::Join(p) => tracer
                    .call("construction.join", || world.net.join(p, &mut rng))
                    .map(|r| {
                        counts.joins += 1;
                        r.delta
                    }),
                ChurnEvent::Leave(p) => tracer
                    .call("construction.leave", || world.net.leave(p, &mut rng))
                    .map(|r| {
                        counts.leaves += 1;
                        r.delta
                    }),
            };
            match report {
                Ok(d) => {
                    counts.churn_rows += d.len() as u64;
                    delta.absorb(d);
                }
                Err(_) => counts.churn_rejected += 1,
            }
        }
        publish(world, &delta, counts, tracer);
    });
}
