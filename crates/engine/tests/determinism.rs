//! Engine determinism: same seed + same batch ⇒ identical per-query results at any
//! thread count. This is the contract that makes the parallel engine usable for
//! science — parallelism changes wall time, never answers.

mod common;

use common::{live_oracle, verdicts};
use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{ChurnMix, EngineConfig, FailureSchedule, QueryBatch, QueryEngine};
use faultline_failure::NodeFailure;
use faultline_routing::{FaultStrategy, RouteScratch};
use faultline_sim::seed_for_trial;
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;

fn network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::build(&NetworkConfig::paper_default(n), &mut rng)
}

#[test]
fn hundred_thousand_queries_identical_across_thread_counts() {
    let net = network(1 << 10, 1);
    let batch = QueryBatch::uniform(&net, 100_000, 2002);
    let mut baseline = None;
    for threads in [1usize, 4, 8] {
        let mut engine = QueryEngine::new(EngineConfig::default().threads(threads));
        assert!(engine.threads() >= threads.min(4) || threads == 1);
        let report = engine.run_batch(&net, &batch);
        assert_eq!(report.queries(), 100_000);
        assert_eq!(
            report.delivered(),
            100_000,
            "healthy overlay delivers everything"
        );
        match &baseline {
            None => baseline = Some(report),
            Some(expected) => assert_eq!(
                expected.outcomes(),
                report.outcomes(),
                "results diverged between 1 and {threads} threads"
            ),
        }
    }
}

#[test]
fn determinism_holds_with_caching_disabled_too() {
    let net = network(1 << 9, 3);
    let batch = QueryBatch::uniform(&net, 20_000, 77);
    let run = |threads: usize| {
        let mut engine =
            QueryEngine::new(EngineConfig::default().threads(threads).cache_capacity(0));
        engine.run_batch(&net, &batch)
    };
    let serial = run(1);
    assert_eq!(serial.outcomes(), run(6).outcomes());
    // With the default deterministic strategy every query also answers exactly
    // what a live-graph walk with the same per-query seed answers.
    assert_eq!(verdicts(&serial), live_oracle(&net, &batch));
}

#[test]
fn pipelined_retries_are_identical_across_thread_counts_and_to_a_sequential_loop() {
    // Cache off, so every shard routes its lookups as interleaved walks, and a
    // failure schedule, so failed lookups chain diversified retries onto their
    // lane while other walks are in flight.
    let mut rng = StdRng::seed_from_u64(21);
    let mut net = Network::build(&NetworkConfig::paper_default(1 << 10), &mut rng);
    let mut failure_rng = StdRng::seed_from_u64(22);
    net.apply_failure(&NodeFailure::fraction(0.35), &mut failure_rng);
    let batch = QueryBatch::uniform(&net, 20_000, 23);
    let schedule = FailureSchedule::partition_and_heal(64);
    let budget = schedule.retry_budget();
    assert!(budget > 0);
    let run = |threads: usize| {
        let config = EngineConfig::default()
            .threads(threads)
            .cache_capacity(0)
            .failures(schedule.clone());
        QueryEngine::new(config).run_batch(&net, &batch)
    };
    let serial = run(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            serial.outcomes(),
            run(threads).outcomes(),
            "1 vs {threads} threads"
        );
    }
    let serial: Vec<_> = serial
        .outcomes()
        .iter()
        .map(|o| (o.delivered, o.hops, o.recoveries, o.attempts, o.total_hops))
        .collect();
    // The same lookups one at a time: the first attempt with the batch seed, then
    // up to `budget` random re-route retries with seeds derived per attempt.
    let frozen = net.view().freeze();
    let retry_router = frozen
        .router()
        .with_strategy(FaultStrategy::RandomReroute { max_attempts: 2 });
    let mut scratch = RouteScratch::new();
    let sequential: Vec<_> = batch
        .pairs()
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| {
            let base = seed_for_trial(batch.seed(), i as u64);
            let mut result = frozen.route_seeded(s, t, base, &mut scratch);
            let (mut attempts, mut total_hops) = (1u32, result.hops);
            while !result.is_delivered() && attempts <= budget {
                let mut rng = SmallRng::seed_from_u64(seed_for_trial(base, u64::from(attempts)));
                result = retry_router.route_frozen(frozen.routes(), s, t, &mut rng, &mut scratch);
                attempts += 1;
                total_hops += result.hops;
            }
            (
                result.is_delivered(),
                result.hops,
                result.recoveries,
                attempts,
                total_hops,
            )
        })
        .collect();
    assert_eq!(serial, sequential);
    assert!(
        serial.iter().any(|&(_, _, _, attempts, _)| attempts > 1),
        "35% damage must make some lookups retry"
    );
}

#[test]
fn determinism_survives_damage_and_random_reroute_strategies() {
    // Random re-route consumes per-query randomness at dead ends: exactly the case
    // where sloppy RNG threading would make results scheduler-dependent.
    let run = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(4);
        let config = NetworkConfig::paper_default(1 << 10)
            .fault_strategy(faultline_routing::FaultStrategy::RandomReroute { max_attempts: 3 });
        let mut net = Network::build(&config, &mut rng);
        let mut failure_rng = StdRng::seed_from_u64(5);
        net.apply_failure(&NodeFailure::fraction(0.4), &mut failure_rng);
        let batch = QueryBatch::uniform(&net, 30_000, 11);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(threads));
        engine.run_batch(&net, &batch)
    };
    let serial = run(1);
    assert_eq!(serial.outcomes(), run(8).outcomes());
    assert!(
        serial.outcomes().iter().any(|o| !o.delivered),
        "40% failures should break some searches"
    );
}

#[test]
fn interleaved_trajectories_identical_across_thread_counts() {
    let run = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(6);
        let config =
            NetworkConfig::paper_default(512).construction(ConstructionMode::incremental_default());
        let mut net = Network::build(&config, &mut rng);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(threads));
        let report = engine.run_interleaved(&mut net, 3, 2_000, ChurnMix::balanced(30), 13);
        report
            .epochs()
            .iter()
            .map(|e| {
                (
                    e.batch.outcomes().to_vec(),
                    e.joins,
                    e.leaves,
                    e.alive_after,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(1),
        run(4),
        "churn interleaving must not depend on thread count"
    );
}
