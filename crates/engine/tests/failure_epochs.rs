//! Failure epochs end to end: correlated damage and heals flow through the
//! typed-delta pipeline, the connectivity oracle grounds the success accounting,
//! and the whole trajectory stays deterministic at any thread count.

use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{
    ChurnMix, EngineConfig, EventKind, FailureEvent, FailureSchedule, InterleavedReport,
    QueryEngine,
};
use faultline_routing::FaultStrategy;
use rand::{rngs::StdRng, SeedableRng};

fn backtrack_network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = NetworkConfig::paper_default(n)
        .construction(ConstructionMode::incremental_default())
        .fault_strategy(FaultStrategy::paper_backtrack());
    Network::build(&config, &mut rng)
}

fn run(threads: usize, schedule: FailureSchedule, epochs: usize) -> InterleavedReport {
    let mut net = backtrack_network(512, 11);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(threads).failures(schedule));
    engine.run_interleaved(&mut net, epochs, 1_500, ChurnMix::balanced(10), 99)
}

#[test]
fn regional_failure_epochs_survive_and_heal() {
    let report = run(2, FailureSchedule::regional(8), 4);
    assert_eq!(report.epochs().len(), 4);

    // Epoch 0 crashes a region, epoch 1 heals it, and so on.
    let e0 = report.epochs()[0].failure.expect("failure work recorded");
    assert!(!e0.heal);
    assert_eq!(e0.failed_nodes, 8, "the whole region was alive at epoch 0");
    assert!(
        e0.delta_rows >= e0.failed_nodes,
        "victims plus in-neighbours"
    );
    let e1 = report.epochs()[1].failure.expect("failure work recorded");
    assert!(e1.heal);
    assert!(
        e1.healed_nodes >= 6,
        "most of the region revives (churn may have re-admitted a few): {}",
        e1.healed_nodes
    );
    assert!(e1.recovery_nanos > 0);

    // Damage shows in the population trajectory and heals back out.
    let alive: Vec<u64> = report.epochs().iter().map(|e| e.alive_after).collect();
    assert!(
        alive[1] > alive[0],
        "heal must revive the downed region: {alive:?}"
    );

    // The oracle classified every query, and routing delivered what it predicted.
    for epoch in report.epochs() {
        let split = epoch.survivability.expect("oracle ran every epoch");
        assert_eq!(split.queries(), epoch.batch.queries());
        assert!(
            split.survival_rate() >= 0.99,
            "epoch {} survival {}",
            epoch.epoch,
            split.survival_rate()
        );
    }
    assert!(report.survivability().is_some());
    assert!(report.survival_rate() >= 0.99);

    // Failures patch the persistent snapshot — never rebuild it.
    assert_eq!(
        report.rebuild_fallbacks(),
        0,
        "deltas must stay under the rebuild threshold"
    );
    assert!(
        report
            .epochs()
            .iter()
            .skip(1)
            .all(|e| e.snapshot.rebuild_nanos == 0),
        "the snapshot persists through every epoch"
    );
}

#[test]
fn partition_and_heal_emits_telemetry_events() {
    let mut net = backtrack_network(512, 12);
    let mut engine = QueryEngine::new(
        EngineConfig::default()
            .threads(2)
            .failures(FailureSchedule::partition_and_heal(6)),
    );
    let report = engine.run_interleaved(&mut net, 4, 1_000, ChurnMix::balanced(0), 7);
    let snapshot = engine.telemetry().snapshot();
    let failures = snapshot
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::FailureApplied)
        .count();
    let heals = snapshot
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::HealApplied)
        .count();
    assert!(failures >= 2, "two partition epochs fired: {failures}");
    assert!(heals >= 2, "two heal epochs fired: {heals}");
    // Partition epochs crash two regions.
    let e0 = report.epochs()[0].failure.expect("work recorded");
    assert_eq!(e0.failed_nodes, 12);
    // Caches and snapshot react to the damage through the delta, at row precision.
    assert!(e0.delta_rows >= 12);
    assert!(report.survival_rate() >= 0.99, "{}", report.survival_rate());
}

#[test]
fn failure_trajectories_are_thread_count_deterministic() {
    let digest = |report: &InterleavedReport| {
        report
            .epochs()
            .iter()
            .map(|e| {
                let s = e.survivability.expect("classified");
                (
                    e.batch.outcomes().to_vec(),
                    e.alive_after,
                    s.predicted_survivable,
                    s.survivable_delivered,
                    s.retries_spent,
                    e.failure
                        .map(|f| (f.failed_nodes, f.healed_nodes, f.delta_rows)),
                )
            })
            .collect::<Vec<_>>()
    };
    let a = run(1, FailureSchedule::regional(8).retries(2), 4);
    let b = run(4, FailureSchedule::regional(8).retries(2), 4);
    assert_eq!(digest(&a), digest(&b), "retries must not break determinism");
}

#[test]
fn quiet_schedules_classify_without_damaging() {
    let report = run(
        2,
        FailureSchedule::from_events(vec![FailureEvent::Quiet]),
        2,
    );
    for epoch in report.epochs() {
        let work = epoch.failure.expect("work recorded even when quiet");
        assert_eq!(work.failed_nodes + work.healed_nodes, 0);
        assert_eq!(work.delta_rows, 0);
        let split = epoch.survivability.expect("oracle still classifies");
        // An undamaged (mildly churned) overlay keeps everything survivable and
        // delivered.
        assert!(split.survival_rate() >= 0.99);
    }
    // Without damage the retry budget is never spent.
    assert_eq!(report.total_retries_spent(), 0);
}

#[test]
fn json_carries_the_resilience_split() {
    let report = run(1, FailureSchedule::regional(8), 2);
    let json = report.to_json();
    assert!(json.contains("\"survival_rate\":"));
    assert!(json.contains("\"survivability\":{"));
    assert!(json.contains("\"failure\":{"));
    assert!(json.contains("\"predicted_survivable\":"));
    assert!(json.contains("\"recovery_ns\":"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}
