//! Incremental snapshot maintenance: patching a persistent snapshot through churn
//! epochs must be an *optimisation*, never a behaviour change.
//!
//! The interleaved runner keeps one `FrozenView` alive and patches it with each
//! epoch's maintainer blast radius. Disabling that
//! (`SnapshotMaintenance::Rebuild`) recompiles the snapshot every epoch — the
//! pre-patching behaviour. Both modes must produce identical epoch reports (batch
//! outcomes, join/leave counts, cache flushes, population trajectory); only the
//! snapshot-maintenance timings may differ.

use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{
    BatchReport, ChurnMix, EngineConfig, EpochReport, QueryBatch, QueryEngine, SnapshotMaintenance,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn incremental_network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let config =
        NetworkConfig::paper_default(n).construction(ConstructionMode::incremental_default());
    Network::build(&config, &mut rng)
}

/// Everything about an epoch that must not depend on how the snapshot is maintained.
#[allow(clippy::type_complexity)]
fn digest(
    epochs: &[EpochReport],
) -> Vec<(Vec<(u64, u64, bool, u64, bool)>, usize, usize, usize, u64)> {
    epochs
        .iter()
        .map(|e| {
            (
                e.batch
                    .outcomes()
                    .iter()
                    .map(|o| (o.source, o.target, o.delivered, o.hops, o.cached))
                    .collect(),
                e.joins,
                e.leaves,
                e.flushed_routes,
                e.alive_after,
            )
        })
        .collect()
}

#[test]
fn all_three_maintenance_modes_report_identical_epochs() {
    // Light churn relative to n, so most epochs take the genuine patch path rather
    // than the heavy-blast rebuild fallback. Delta patching (the default),
    // touched-list recompute patching and the rebuild-per-epoch baseline must be
    // pure optimisations: identical epoch reports, different maintenance costs.
    let run = |mode: SnapshotMaintenance| {
        let mut net = incremental_network(1 << 10, 9);
        let mut engine = QueryEngine::new(EngineConfig::default().threads(2).maintenance(mode));
        let report = engine.run_interleaved(&mut net, 5, 1_500, ChurnMix::balanced(4), 77);
        (digest(report.epochs()), report.epochs().to_vec())
    };
    let (delta_digest, delta_epochs) = run(SnapshotMaintenance::Delta);
    let (touched_digest, touched_epochs) = run(SnapshotMaintenance::TouchedList);
    let (rebuilt_digest, rebuilt_epochs) = run(SnapshotMaintenance::Rebuild);
    assert_eq!(
        delta_digest, touched_digest,
        "delta patching changed an epoch report vs touched-list patching"
    );
    assert_eq!(
        delta_digest, rebuilt_digest,
        "incremental patching changed an epoch report vs the rebuild baseline"
    );
    // The maintenance shape differs exactly as documented: the incremental runs
    // rebuild once and patch every epoch; the baseline rebuilds every epoch and
    // never patches.
    for epochs in [&delta_epochs, &touched_epochs] {
        assert!(epochs[0].snapshot.rebuild_nanos > 0);
        assert!(epochs.iter().skip(1).all(|e| e.snapshot.rebuild_nanos == 0));
        assert!(epochs.iter().all(|e| e.snapshot.patch_nanos > 0));
        assert!(epochs.iter().any(|e| e.snapshot.rows_patched > 0));
    }
    assert!(rebuilt_epochs.iter().all(|e| e.snapshot.rebuild_nanos > 0));
    assert!(rebuilt_epochs.iter().all(|e| e.snapshot.patch_nanos == 0));
    // Both patching modes see the same rows change and write the same subset in
    // place (they share the slot-reuse machinery).
    let shape = |epochs: &[EpochReport]| {
        epochs
            .iter()
            .map(|e| {
                (
                    e.snapshot.rows_patched,
                    e.snapshot.rows_in_place,
                    e.rows_changed,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&delta_epochs), shape(&touched_epochs));
    assert!(delta_epochs.iter().any(|e| e.snapshot.rows_in_place > 0));
}

/// A freshly compiled snapshot of `net` for `engine`: routing through it is the
/// freeze-every-batch behaviour that snapshot reuse must reproduce.
fn fresh_snapshot(engine: &QueryEngine, net: &Network) -> faultline_core::FrozenView {
    net.view().freeze().with_kernel(engine.kernel())
}

fn fingerprint(report: &BatchReport) -> Vec<(u64, u64, bool, u64, bool)> {
    report
        .outcomes()
        .iter()
        .map(|o| (o.source, o.target, o.delivered, o.hops, o.cached))
        .collect()
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
        assert_eq!(fingerprint(&r), fingerprint(&e), "reuse changed outcomes");
    }
    assert_eq!(reused.snapshots_built(), 1, "one topology, one freeze");
}

#[test]
fn heavy_churn_interleaves_still_match_while_degrading_gracefully() {
    // 60 events/epoch over 512 nodes: the structural share of each blast radius
    // (joins/leaves empty or fill whole rows) accumulates tombstones fast, so the
    // sustained run must fold back to a dense CSR (compaction) or abandon a patch for
    // an in-place rebuild — and the trajectory must stay identical to the
    // rebuild-per-epoch baseline regardless. Most touched rows are length-preserving
    // (redirects, ring splices) and no longer tombstone at all, which is exactly why
    // per-epoch compaction is no longer the expected steady state.
    let run = |maintenance: SnapshotMaintenance| {
        let mut net = incremental_network(512, 9);
        let mut engine =
            QueryEngine::new(EngineConfig::default().threads(2).maintenance(maintenance));
        let report = engine.run_interleaved(&mut net, 10, 1_000, ChurnMix::balanced(60), 77);
        (digest(report.epochs()), report.epochs().to_vec())
    };
    let (patched_digest, patched_epochs) = run(SnapshotMaintenance::Delta);
    let (rebuilt_digest, _) = run(SnapshotMaintenance::Rebuild);
    assert_eq!(patched_digest, rebuilt_digest);
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
    assert_eq!(fingerprint(&cold), fingerprint(&cold_e));
    assert_eq!(fingerprint(&warm), fingerprint(&warm_e));
}

#[test]
fn live_graph_interleave_marks_every_epoch_skipped() {
    let run = |frozen: bool| {
        let mut net = incremental_network(512, 13);
        let mut engine = QueryEngine::new(
            EngineConfig::default()
                .threads(2)
                .cache_capacity(8192)
                .frozen(frozen),
        );
        let report = engine.run_interleaved(&mut net, 5, 3_000, ChurnMix::balanced(2), 3);
        (engine.snapshots_built(), report)
    };
    let (live_built, live) = run(false);
    let (frozen_built, frozen) = run(true);
    assert!(
        live.epochs().iter().all(|e| e.snapshot.skipped),
        "with the frozen path off no epoch has a snapshot"
    );
    assert!(frozen.epochs().iter().all(|e| !e.snapshot.skipped));
    assert_eq!((live_built, frozen_built), (0, 1));
    assert_eq!(
        digest(live.epochs()),
        digest(frozen.epochs()),
        "routing the live graph must not change any epoch"
    );
    assert!(
        live.overall_success_rate() > 0.9,
        "skipping the snapshot must not hurt delivery"
    );
}
