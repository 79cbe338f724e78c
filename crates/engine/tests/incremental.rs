//! Incremental snapshot maintenance: patching a persistent snapshot through churn
//! epochs must be an *optimisation*, never a behaviour change.
//!
//! The interleaved runner keeps one `FrozenView` alive and patches it with each
//! epoch's typed churn delta. Every epoch must answer exactly what a snapshot frozen
//! afresh from that epoch's topology answers; only the snapshot-maintenance timings
//! may differ.

mod common;

use common::{live_oracle, verdicts, Verdicts};
use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{ChurnMix, EngineConfig, InterleavedReport, QueryBatch, QueryEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn incremental_network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let config =
        NetworkConfig::paper_default(n).construction(ConstructionMode::incremental_default());
    Network::build(&config, &mut rng)
}

/// An uncached interleaved run of uniform traffic that hands each epoch's network
/// and batch to `reference` just before the engine routes that batch on its
/// patched snapshot. Returns the run and, per epoch, `(engine, reference)`
/// verdicts.
fn run_against(
    net: &mut Network,
    epochs: usize,
    queries: usize,
    churn: ChurnMix,
    mut reference: impl FnMut(&Network, &QueryBatch) -> Verdicts,
) -> (InterleavedReport, Vec<(Verdicts, Verdicts)>) {
    let mut engine = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(0));
    let mut expected = Vec::new();
    let report = engine.run_interleaved_with(net, epochs, queries, churn, 77, &mut |net, ctx| {
        let batch = QueryBatch::uniform(net, ctx.queries, ctx.seed);
        expected.push(reference(net, &batch));
        batch
    });
    assert_eq!(engine.snapshots_built(), 1, "one freeze, then patches");
    let pairs = report
        .epochs()
        .iter()
        .map(|e| verdicts(&e.batch))
        .zip(expected)
        .collect();
    (report, pairs)
}

/// Routes the batch through an engine that freezes the epoch's topology afresh
/// (every epoch's churn moves the topology stamp, so `run_batch` refreezes).
fn fresh_freeze(engine: &mut QueryEngine) -> impl FnMut(&Network, &QueryBatch) -> Verdicts + '_ {
    move |net, batch| verdicts(&engine.run_batch(net, batch))
}

#[test]
fn patched_epochs_match_a_fresh_freeze_every_epoch() {
    // Light churn relative to n, so most epochs take the genuine patch path rather
    // than the heavy-blast rebuild fallback.
    let mut net = incremental_network(1 << 10, 9);
    let mut fresh = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(0));
    let (report, pairs) = run_against(
        &mut net,
        5,
        1_500,
        ChurnMix::balanced(4),
        fresh_freeze(&mut fresh),
    );
    assert_eq!(
        fresh.snapshots_built(),
        5,
        "the reference froze every epoch"
    );
    for (epoch, (patched, frozen)) in pairs.iter().enumerate() {
        assert_eq!(
            patched, frozen,
            "epoch {epoch}: patching changed an outcome"
        );
    }
    // The maintenance shape: rebuild once, patch every epoch, and write the
    // length-preserving rows in place.
    let epochs = report.epochs();
    assert!(epochs[0].snapshot.rebuild_nanos > 0);
    assert!(epochs.iter().skip(1).all(|e| e.snapshot.rebuild_nanos == 0));
    assert!(epochs.iter().all(|e| e.snapshot.patch_nanos > 0));
    assert!(epochs.iter().any(|e| e.snapshot.rows_patched > 0));
    assert!(epochs.iter().any(|e| e.snapshot.rows_in_place > 0));
}

/// A freshly compiled snapshot of `net` for `engine`: routing through it is the
/// freeze-every-batch behaviour that snapshot reuse must reproduce.
fn fresh_snapshot(engine: &QueryEngine, net: &Network) -> faultline_core::FrozenView {
    net.view().freeze().with_kernel(engine.kernel())
}

#[test]
fn reused_snapshot_never_changes_outcomes() {
    // A long-lived engine freezes its first batch and reuses that snapshot for
    // every later batch on the unchanged network. Its twin routes each batch
    // through a snapshot compiled just for it; the two caches evolve in step, so
    // every batch must agree outcome for outcome.
    let net = incremental_network(512, 15);
    let config = EngineConfig::default().threads(2).cache_capacity(2048);
    let mut reused = QueryEngine::new(config.clone());
    let mut eager = QueryEngine::new(config);
    let batch = QueryBatch::uniform(&net, 3_000, 33);
    for _ in 0..4 {
        let r = reused.run_batch(&net, &batch);
        let fresh = fresh_snapshot(&eager, &net);
        let e = eager.run_batch_with_snapshot(&net, &batch, Some(&fresh));
        assert_eq!(r.outcomes(), e.outcomes(), "reuse changed outcomes");
    }
    assert_eq!(reused.snapshots_built(), 1, "one topology, one freeze");
}

#[test]
fn heavy_churn_interleaves_still_match_while_degrading_gracefully() {
    // 60 events/epoch over 512 nodes: the structural share of each blast radius
    // (joins/leaves empty or fill whole rows) accumulates tombstones fast, so the
    // sustained run must fold back to a dense CSR (compaction) or abandon a patch for
    // an in-place rebuild — and every epoch must still answer like a fresh freeze.
    // Most changed rows are length-preserving (redirects, ring splices) and do not
    // tombstone at all, which is why per-epoch compaction is not the steady state.
    let mut net = incremental_network(512, 9);
    let mut fresh = QueryEngine::new(EngineConfig::default().threads(2).cache_capacity(0));
    let (report, pairs) = run_against(
        &mut net,
        10,
        1_000,
        ChurnMix::balanced(60),
        fresh_freeze(&mut fresh),
    );
    for (epoch, (patched, frozen)) in pairs.iter().enumerate() {
        assert_eq!(patched, frozen, "epoch {epoch}");
    }
    let patched_epochs = report.epochs();
    assert!(
        patched_epochs
            .iter()
            .any(|e| e.snapshot.compacted || e.snapshot.fallback_rebuild),
        "sustained heavy churn must compact or fall back at least once: {:?}",
        patched_epochs
            .iter()
            .map(|e| e.snapshot)
            .collect::<Vec<_>>()
    );
    assert!(
        patched_epochs.iter().any(|e| e.snapshot.rows_in_place > 0),
        "length-preserving rows must be patched in place"
    );
}

#[test]
fn fraction_churn_tracks_the_shrinking_population() {
    // Leave-heavy churn: with events derived from the *current* alive count, each
    // epoch's event volume must shrink along with the population.
    let mut net = incremental_network(1 << 10, 3);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(2));
    let mut churn = ChurnMix::fraction_of(net.len(), 0.20);
    churn.join_probability = 0.05;
    let report = engine.run_interleaved(&mut net, 6, 300, churn, 5);
    let events: Vec<usize> = report.epochs().iter().map(|e| e.joins + e.leaves).collect();
    let alive: Vec<u64> = report.epochs().iter().map(|e| e.alive_after).collect();
    assert!(
        alive.first().unwrap() > alive.last().unwrap(),
        "95% leaves must shrink the population: {alive:?}"
    );
    assert!(
        events.first().unwrap() > events.last().unwrap(),
        "event volume must track the shrinking alive set: {events:?}"
    );
    // Sanity: the last epoch churns ~20% of the *remaining* population, not of the
    // original space.
    let last_alive_before = report.epochs()[report.epochs().len() - 2].alive_after;
    let expected = (last_alive_before as f64 * 0.20).round() as usize;
    let actual = *events.last().unwrap();
    assert!(
        actual <= expected && actual + 2 >= expected,
        "last epoch applied {actual} events for {last_alive_before} alive (expected ≈{expected})"
    );
}

#[test]
fn warm_cache_batches_reuse_one_snapshot() {
    let net = incremental_network(512, 11);
    let batch = QueryBatch::uniform(&net, 4_000, 21);
    let config = EngineConfig::default().threads(2).cache_capacity(4096);
    let mut reused = QueryEngine::new(config.clone());
    let cold = reused.run_batch(&net, &batch);
    assert_eq!(
        reused.snapshots_built(),
        1,
        "cold batch compiles a snapshot"
    );
    assert!(
        cold.cache_hits() as f64 / cold.queries() as f64 > 0.05,
        "4k uniform queries over 512 nodes must repeat bucket pairs"
    );
    let warm = reused.run_batch(&net, &batch);
    assert!(
        warm.cache_hits() > warm.queries() / 2,
        "replaying the batch must hit the cache"
    );
    assert_eq!(
        reused.snapshots_built(),
        1,
        "an unchanged topology must reuse the snapshot"
    );
    // Reuse must not change results: the same batches, each routed through a
    // snapshot compiled for it.
    let mut eager = QueryEngine::new(config);
    let fresh = fresh_snapshot(&eager, &net);
    let cold_e = eager.run_batch_with_snapshot(&net, &batch, Some(&fresh));
    let fresh = fresh_snapshot(&eager, &net);
    let warm_e = eager.run_batch_with_snapshot(&net, &batch, Some(&fresh));
    assert_eq!(
        eager.snapshots_built(),
        0,
        "caller-owned snapshots are not counted"
    );
    assert_eq!(cold.outcomes(), cold_e.outcomes());
    assert_eq!(warm.outcomes(), warm_e.outcomes());
}

#[test]
fn interleaved_epochs_answer_like_the_live_oracle() {
    let mut net = incremental_network(512, 13);
    let (report, pairs) = run_against(&mut net, 5, 3_000, ChurnMix::balanced(2), live_oracle);
    for (epoch, (patched, oracle)) in pairs.iter().enumerate() {
        assert_eq!(patched, oracle, "epoch {epoch}");
    }
    assert!(report.overall_success_rate() > 0.9);
}
