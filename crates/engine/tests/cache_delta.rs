//! Row-level cache invalidation: surviving entries must be *exactly* as good as a
//! full flush.
//!
//! [`QueryEngine::invalidate_delta`] keeps a cache entry only when none of the rows
//! its cached walk visited changed — no false negatives — so a surviving digest
//! replays bit-identically on the patched topology. The observable consequence, and
//! the property pinned here: after churn, an engine that delta-invalidates and an
//! engine that flushes *everything* must produce **identical query results** for the
//! same batch (the survivor serves exactly what the flushed engine recomputes), at
//! any thread count. The survivors are pure savings: same answers, fewer routes.

use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{ChurnDelta, ChurnMix, EngineConfig, QueryBatch, QueryEngine};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn incremental_network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let config =
        NetworkConfig::paper_default(n).construction(ConstructionMode::incremental_default());
    Network::build(&config, &mut rng)
}

/// Applies `events` random join/leave events through the maintainer, merging the
/// typed report deltas.
fn churn(network: &mut Network, events: usize, seed: u64) -> ChurnDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delta = ChurnDelta::new();
    let n = network.len();
    for _ in 0..events {
        if rng.gen_bool(0.5) {
            if let Ok(report) = network.join(rng.gen_range(0..n), &mut rng) {
                delta.absorb(report.delta);
            }
        } else {
            let p = rng.gen_range(0..n);
            if let Ok(report) = network.leave(p, &mut rng) {
                delta.absorb(report.delta);
            }
        }
    }
    delta
}

/// The outcome digest results must agree on (everything except cache provenance and
/// wall time).
fn digest(report: &faultline_engine::BatchReport) -> Vec<(u64, u64, bool, u64, u64)> {
    report
        .outcomes()
        .iter()
        .map(|o| (o.source, o.target, o.delivered, o.hops, o.recoveries))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delta_invalidation_equals_full_flush_for_every_query_result(
        seed in any::<u64>(),
        events in 1usize..24,
    ) {
        for threads in [1usize, 4, 8] {
            // Per-shard capacity far above the reachable bucket-pair count, so LRU
            // eviction never perturbs which entries exist (recency ticks differ
            // between the two engines by construction).
            let config = || {
                EngineConfig::default()
                    .threads(threads)
                    .cache_capacity(4096)
            };
            let mut network = incremental_network(256, seed ^ 0xF00D);
            let mut fine = QueryEngine::new(config());
            let mut flushed = QueryEngine::new(config());

            // Warm both caches with the identical batch.
            let batch = QueryBatch::uniform(&network, 2_000, seed ^ 0xB00);
            let warm_a = fine.run_batch(&network, &batch);
            let warm_b = flushed.run_batch(&network, &batch);
            prop_assert_eq!(digest(&warm_a), digest(&warm_b));

            // Churn, then invalidate: row-precise vs scorched-earth.
            let delta = churn(&mut network, events, seed ^ 0xC0C0);
            fine.invalidate_delta(&delta, network.len());
            flushed.flush_caches();
            prop_assert!(
                fine.cached_routes() >= flushed.cached_routes(),
                "row-level eviction keeps at least as much as a full flush"
            );

            // Replaying the same batch on the churned topology must answer every
            // query identically: survivors serve exactly what a fresh route computes.
            let replay_a = fine.run_batch(&network, &batch);
            let replay_b = flushed.run_batch(&network, &batch);
            prop_assert_eq!(
                digest(&replay_a),
                digest(&replay_b),
                "a surviving cache entry answered differently from a fresh route \
                 (threads {}, events {})",
                threads,
                events
            );
            // The survivors can only *add* cache hits over the flushed baseline.
            prop_assert!(replay_a.cache_hits() >= replay_b.cache_hits());
        }
    }
}

#[test]
fn delta_invalidation_stays_exact_under_the_randomised_fault_strategy() {
    // RandomReroute recoveries sample the *global* alive set, so a recovered walk's
    // digest depends on more than its visited rows. Such entries are marked volatile
    // and evicted by any delta invalidation — which must make delta-invalidation ==
    // full-flush hold even here. A third of the overlay is failed so dead ends (and
    // hence recoveries) actually occur.
    use faultline_failure::NodeFailure;
    use faultline_routing::FaultStrategy;
    let build = || {
        let mut rng = StdRng::seed_from_u64(404);
        let config = NetworkConfig::paper_default(256)
            .construction(ConstructionMode::incremental_default())
            .fault_strategy(FaultStrategy::RandomReroute { max_attempts: 3 });
        let mut net = Network::build(&config, &mut rng);
        let mut failure_rng = StdRng::seed_from_u64(405);
        net.apply_failure(&NodeFailure::fraction(0.3), &mut failure_rng);
        net
    };
    let digest_of = |r: &faultline_engine::BatchReport| digest(r);
    for churn_seed in 400..410u64 {
        for threads in [1usize, 4] {
            let config = || {
                EngineConfig::default()
                    .threads(threads)
                    .cache_capacity(4096)
            };
            let mut network = build();
            let mut fine = QueryEngine::new(config());
            let mut flushed = QueryEngine::new(config());
            let batch = QueryBatch::uniform(&network, 3_000, 9);
            let warm = fine.run_batch(&network, &batch);
            flushed.run_batch(&network, &batch);
            assert!(
                warm.outcomes().iter().any(|o| o.recoveries > 0),
                "30% damage must force some random-reroute recoveries"
            );
            let delta = churn(&mut network, 2, churn_seed);
            fine.invalidate_delta(&delta, network.len());
            flushed.flush_caches();
            let replay_a = fine.run_batch(&network, &batch);
            let replay_b = flushed.run_batch(&network, &batch);
            assert_eq!(
                digest_of(&replay_a),
                digest_of(&replay_b),
                "volatile (recovered) survivors diverged (threads {threads}, churn seed {churn_seed})"
            );
        }
    }
}

#[test]
fn interleaved_row_level_eviction_keeps_survivors_warm() {
    // Trickle churn between epochs: each epoch's delta evicts only the cached walks
    // that read a changed row, so every warm epoch starts with the survivors and
    // serves more hits than a cache flushed at the epoch boundary (a cold start,
    // which is what epoch 0 measures for the same batch size).
    let mut net = incremental_network(1 << 10, 77);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(4096));
    let report = engine.run_interleaved(&mut net, 6, 3_000, ChurnMix::balanced(4), 21);
    let cold_hits = report.epochs()[0].batch.cache_hits();
    assert!(
        report.total_flushed_routes() > 0,
        "churn must evict the walks it touched"
    );
    for epoch in &report.epochs()[1..] {
        assert!(
            epoch.batch.cache_hits() > cold_hits,
            "epoch {}: {} hits, no more than a cold cache's {}",
            epoch.epoch,
            epoch.batch.cache_hits(),
            cold_hits
        );
    }
}
