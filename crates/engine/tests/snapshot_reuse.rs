//! Snapshot reuse: `run_batch` freezes once per topology stamp.
//!
//! A long-lived engine keeps the snapshot it compiled, keyed by
//! `Network::topology_stamp`, and reuses it for as long as the stamp matches. Reuse
//! must be invisible in the outcomes: every batch answers exactly what a fresh
//! engine, freezing for that one batch, would answer. It must also be real: the
//! engine compiles one snapshot per distinct stamp it routes, and no more.

mod common;

use common::{live_oracle, verdicts};
use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{EngineConfig, Phase, QueryBatch, QueryEngine};
use faultline_failure::{NodeFailure, RegionFailure};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;

fn incremental_network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let config =
        NetworkConfig::paper_default(n).construction(ConstructionMode::incremental_default());
    Network::build(&config, &mut rng)
}

/// The cache is off: with it on, a long-lived engine's warm entries would
/// (rightly) answer differently from a fresh engine's cold cache.
fn config() -> EngineConfig {
    EngineConfig::default().threads(2).cache_capacity(0)
}

#[test]
fn a_static_network_is_frozen_once_and_each_mutation_adds_one_freeze() {
    let mut net = incremental_network(512, 41);
    let mut engine = QueryEngine::new(config());
    for k in 0..5 {
        engine.run_batch(&net, &QueryBatch::uniform(&net, 500, k));
    }
    assert_eq!(engine.snapshots_built(), 1, "five batches, one topology");

    let mut rng = StdRng::seed_from_u64(42);
    let mut expected = 1;
    for step in 0..4u64 {
        match step {
            0 => {
                net.leave(10, &mut rng).unwrap();
            }
            1 => {
                net.join(10, &mut rng).unwrap();
            }
            2 => {
                net.apply_failure_delta(&RegionFailure::at(200, 6), &mut rng);
            }
            _ => {
                net.heal_nodes(&(200..206).collect::<Vec<_>>());
            }
        }
        expected += 1;
        for k in 0..3 {
            engine.run_batch(&net, &QueryBatch::uniform(&net, 500, 100 + k));
        }
        assert_eq!(
            engine.snapshots_built(),
            expected,
            "mutation {step} must add exactly one freeze"
        );
    }
    // Only real freezes reach the freeze phase.
    let freezes = engine.telemetry().snapshot().phase(Phase::Freeze).count();
    assert_eq!(freezes, engine.snapshots_built());
}

#[test]
fn switching_networks_refreezes_even_for_an_identical_topology() {
    // Two networks built from one seed share a topology but not a stamp, so the
    // engine cannot tell them apart and must refreeze on every switch. The
    // answers are the same either way.
    let a = incremental_network(256, 7);
    let b = incremental_network(256, 7);
    let batch = QueryBatch::uniform(&a, 1_000, 3);
    let mut engine = QueryEngine::new(config());
    let first = engine.run_batch(&a, &batch);
    let second = engine.run_batch(&b, &batch);
    let third = engine.run_batch(&a, &batch);
    assert_eq!(engine.snapshots_built(), 3);
    assert_eq!(first.outcomes(), second.outcomes());
    assert_eq!(first.outcomes(), third.outcomes());
}

#[test]
fn a_reused_snapshot_answers_like_the_live_oracle() {
    let net = incremental_network(256, 9);
    let mut engine = QueryEngine::new(config());
    for k in 0..3 {
        let batch = QueryBatch::uniform(&net, 300, k);
        // `None` routes the engine's own snapshot, exactly like `run_batch`.
        let report = engine.run_batch_with_snapshot(&net, &batch, None);
        assert_eq!(verdicts(&report), live_oracle(&net, &batch), "batch {k}");
    }
    assert_eq!(engine.snapshots_built(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reuse_matches_a_fresh_engine_per_batch_under_arbitrary_mutations(
        seed in any::<u64>(),
        steps in 1usize..14,
    ) {
        let n = 256u64;
        let mut net = incremental_network(n, seed ^ 0x5EED);
        let mut engine = QueryEngine::new(config());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut routed = BTreeSet::new();

        for step in 0..steps {
            match rng.gen_range(0..8u32) {
                // Batches are the most common step, so runs of them exercise reuse.
                0..=2 => {
                    let batch = QueryBatch::uniform(&net, 300, rng.gen());
                    let report = engine.run_batch(&net, &batch);
                    let fresh = QueryEngine::new(config()).run_batch(&net, &batch);
                    prop_assert_eq!(
                        report.outcomes(),
                        fresh.outcomes(),
                        "step {} diverged from a fresh engine", step
                    );
                    routed.insert(net.topology_stamp());
                }
                // Joins and leaves at random positions: occupied or empty ones make
                // them fail, which must still move the stamp.
                3 => {
                    let _ = net.join(rng.gen_range(0..n), &mut rng);
                }
                4 => {
                    let _ = net.leave(rng.gen_range(0..n), &mut rng);
                }
                5 => {
                    let start = rng.gen_range(0..n);
                    let width = rng.gen_range(1..12u64);
                    net.apply_failure_delta(&RegionFailure::at(start, width), &mut rng);
                }
                6 => {
                    let count = rng.gen_range(1..8u64);
                    net.apply_failure_delta(&NodeFailure::count(count), &mut rng);
                }
                _ => {
                    let dead: Vec<u64> = (0..n).filter(|&p| !net.graph().is_alive(p)).collect();
                    let keep = rng.gen_range(0..=dead.len());
                    net.heal_nodes(&dead[..keep]);
                }
            }
        }
        prop_assert_eq!(engine.snapshots_built(), routed.len() as u64);
    }
}
