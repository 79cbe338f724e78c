//! Engine determinism: same seed + same batch ⇒ identical per-query results at any
//! thread count. This is the contract that makes the parallel engine usable for
//! science — parallelism changes wall time, never answers.

mod common;

use common::{live_oracle, verdicts};
use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{ChurnMix, EngineConfig, QueryBatch, QueryEngine};
use faultline_failure::NodeFailure;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::build(&NetworkConfig::paper_default(n), &mut rng)
}

/// The per-query facts that must be thread-count invariant (wall-clock nanos are not).
fn fingerprint(report: &faultline_engine::BatchReport) -> Vec<(u64, u64, bool, u64, bool)> {
    report
        .outcomes()
        .iter()
        .map(|o| (o.source, o.target, o.delivered, o.hops, o.cached))
        .collect()
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
        let fp = fingerprint(&report);
        match &baseline {
            None => baseline = Some(fp),
            Some(expected) => assert_eq!(
                expected, &fp,
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
    assert_eq!(fingerprint(&serial), fingerprint(&run(6)));
    // With the default deterministic strategy every query also answers exactly
    // what a live-graph walk with the same per-query seed answers.
    assert_eq!(verdicts(&serial), live_oracle(&net, &batch));
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
        fingerprint(&engine.run_batch(&net, &batch))
    };
    let serial = run(1);
    assert_eq!(serial, run(8));
    assert!(
        serial.iter().any(|&(_, _, delivered, _, _)| !delivered),
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
            .map(|e| (fingerprint(&e.batch), e.joins, e.leaves, e.alive_after))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(1),
        run(4),
        "churn interleaving must not depend on thread count"
    );
}
