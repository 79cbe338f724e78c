//! Telemetry contracts at engine scale: zero observer effect, thread-count
//! invariant counters, and phase/event sanity under the interleaved workload.
//!
//! The subsystem's core promise is that instrumentation only reads clocks and bumps
//! relaxed atomics — it must never touch the deterministic path. The properties
//! pinned here: an instrumented engine and a telemetry-disabled engine produce
//! bit-identical per-query results at any thread count; the *merged* counters of a
//! snapshot are thread-count invariant (per-shard work depends only on the query
//! stream, never on the worker that ran it); and the interleaved run stamps every
//! phase the epoch loop claims to time.

use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{
    ChurnMix, EngineConfig, EventKind, MetricsSnapshot, Phase, QueryBatch, QueryEngine,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn incremental_network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let config =
        NetworkConfig::paper_default(n).construction(ConstructionMode::incremental_default());
    Network::build(&config, &mut rng)
}

/// Event counts per kind: the ring's *order* varies with worker interleaving, the
/// per-kind totals must not.
fn event_counts(snapshot: &MetricsSnapshot) -> Vec<(EventKind, usize)> {
    EventKind::ALL
        .into_iter()
        .map(|kind| (kind, snapshot.event_count(kind)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn instrumented_runs_are_bit_identical_to_uninstrumented(
        seed in any::<u64>(),
    ) {
        for threads in [1usize, 4, 8] {
            let network = incremental_network(256, seed ^ 0x7E1E);
            let batch = QueryBatch::uniform(&network, 3_000, seed ^ 0x0B5);
            let run = |telemetry: bool| {
                let mut engine = QueryEngine::new(
                    EngineConfig::default().threads(threads).telemetry(telemetry),
                );
                let cold = engine.run_batch(&network, &batch);
                let warm = engine.run_batch(&network, &batch);
                (cold, warm)
            };
            let (cold_on, warm_on) = run(true);
            let (cold_off, warm_off) = run(false);
            prop_assert_eq!(
                cold_on.outcomes(),
                cold_off.outcomes(),
                "telemetry changed cold-cache results at {} threads",
                threads
            );
            prop_assert_eq!(
                warm_on.outcomes(),
                warm_off.outcomes(),
                "telemetry changed warm-cache results at {} threads",
                threads
            );
        }
    }
}

#[test]
fn merged_snapshot_counters_are_thread_count_invariant() {
    let network = incremental_network(512, 21);
    let batch = QueryBatch::uniform(&network, 20_000, 22);
    let warm = QueryBatch::uniform(&network, 20_000, 23);
    let observe = |threads: usize| {
        let mut engine = QueryEngine::new(EngineConfig::default().threads(threads));
        engine.run_batch(&network, &batch);
        engine.run_batch(&network, &warm);
        engine.telemetry().snapshot()
    };
    let baseline = observe(1);
    let merged = baseline.merged_shards();
    assert!(merged.requests() > 0, "cache counters must see traffic");
    for threads in [4usize, 8] {
        let other = observe(threads);
        assert_eq!(
            baseline.merged_shards(),
            other.merged_shards(),
            "merged shard counters diverged between 1 and {threads} threads"
        );
        // Per-shard too: shard assignment depends only on the query source bucket.
        assert_eq!(baseline.shards(), other.shards());
        assert_eq!(
            event_counts(&baseline),
            event_counts(&other),
            "per-kind event totals diverged at {threads} threads"
        );
        // Phase *timings* differ run to run; phase *counts* that are driven by the
        // workload (one freeze per topology) must not.
        assert_eq!(
            baseline.phase(Phase::Freeze).count(),
            other.phase(Phase::Freeze).count()
        );
    }
}

#[test]
fn snapshot_merge_adds_counters_across_engines() {
    let network = incremental_network(256, 31);
    let batch = QueryBatch::uniform(&network, 5_000, 32);
    let snap = |threads: usize| {
        let mut engine = QueryEngine::new(EngineConfig::default().threads(threads));
        engine.run_batch(&network, &batch);
        engine.telemetry().snapshot()
    };
    let a = snap(1);
    let b = snap(4);
    let mut merged = a.clone();
    merged.merge(&b);
    assert_eq!(
        merged.merged_shards().requests(),
        a.merged_shards().requests() + b.merged_shards().requests()
    );
    assert_eq!(
        merged.phase(Phase::BatchShard).count(),
        a.phase(Phase::BatchShard).count() + b.phase(Phase::BatchShard).count()
    );
    assert_eq!(merged.events().len(), a.events().len() + b.events().len());
}

#[test]
fn interleaved_run_stamps_phases_and_events() {
    let mut network = incremental_network(512, 41);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(4));
    let report = engine.run_interleaved(&mut network, 3, 4_000, ChurnMix::balanced(40), 43);
    let snapshot = engine.telemetry().snapshot();
    // The epoch counter follows the loop.
    assert_eq!(snapshot.epoch(), 2, "last epoch stamp");
    // Every epoch carries a phase delta, and churned epochs do shard + invalidation
    // work.
    assert_eq!(report.epochs().len(), 3);
    for epoch in report.epochs() {
        assert!(
            epoch.phases.get(Phase::BatchShard) > 0,
            "epoch {} recorded no shard work",
            epoch.epoch
        );
    }
    assert!(snapshot.phase(Phase::Invalidate).count() > 0);
    // The initial freeze (and any rebuild fallbacks) land in the freeze histogram.
    assert!(snapshot.phase(Phase::Freeze).count() > 0);
    // Churn that flushes routes must leave a cache-invalidation event behind.
    if report.total_flushed_routes() > 0 {
        assert!(snapshot.event_count(EventKind::CacheInvalidation) > 0);
    }
    // A disabled engine walks the identical trajectory with an empty snapshot.
    let mut bare_network = incremental_network(512, 41);
    let mut bare = QueryEngine::new(EngineConfig::default().threads(4).telemetry(false));
    let bare_report = bare.run_interleaved(&mut bare_network, 3, 4_000, ChurnMix::balanced(40), 43);
    let digest = |r: &faultline_engine::InterleavedReport| {
        r.epochs()
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
    assert_eq!(digest(&report), digest(&bare_report));
    let empty = bare.telemetry().snapshot();
    assert_eq!(empty.merged_shards().requests(), 0);
    assert_eq!(empty.events().len(), 0);
    assert!(bare_report.epochs().iter().all(|e| e.phases.total() == 0));
}
