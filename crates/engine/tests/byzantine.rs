//! The byzantine batch lane's contracts.
//!
//! 1. **Batched == per-query.** The engine's byzantine path is pure plumbing around
//!    [`RedundantRouter::route_frozen`]: for every query, the batched result must be
//!    identical to a sequential per-query call with the same `(batch seed, index)`
//!    randomness, at any thread count (1 vs 4 vs 8).
//! 2. **Empty set == honest path.** A byzantine-configured engine whose resolved
//!    adversary set is empty must report outcomes bit-identical to a plain honest
//!    engine — no redundancy overhead, cache behaviour included.
//! 3. **Churn-consistent membership.** Under `run_interleaved`, departing Byzantine
//!    nodes shrink the set, `ChurnMix::adversarial_joins` conscripts arrivals, and a
//!    join at a label the set still lists *clears* the stale conviction instead of
//!    resurrecting it onto the fresh honest node.

mod common;

use common::{live_oracle, verdicts};
use faultline_core::{ConstructionMode, Network, NetworkConfig};
use faultline_engine::{
    ByzantineConfig, ByzantineSet, ChurnMix, EngineConfig, QueryBatch, QueryEngine, QueryOutcome,
};
use faultline_routing::{RedundantRouter, RouteScratch};
use faultline_sim::seed_for_trial;
use proptest::prelude::*;
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;

fn network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::build(&NetworkConfig::paper_default(n), &mut rng)
}

fn incremental_network(n: u64, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let config =
        NetworkConfig::paper_default(n).construction(ConstructionMode::incremental_default());
    Network::build(&config, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 1: the batched byzantine path reports exactly what a sequential loop
    /// of per-query `RedundantRouter::route_frozen` calls reports, at 1/4/8 threads.
    #[test]
    fn batched_byzantine_path_equals_per_query_route_frozen(
        net_seed in any::<u64>(),
        batch_seed in any::<u64>(),
        corruption in 0.02f64..0.35,
        redundancy in 1u32..6,
    ) {
        let net = network(512, net_seed);
        let batch_size = 400usize;
        let spec = ByzantineConfig::fraction(corruption, net_seed ^ 0xB52).redundancy(redundancy);

        // The reference: resolve the same membership, then route each query alone.
        let mut resolver = QueryEngine::new(
            EngineConfig::default().threads(1).byzantine(spec.clone()),
        );
        let adversaries = resolver
            .resolve_adversaries(&net)
            .expect("byzantine engine resolves a set")
            .clone();
        prop_assume!(!adversaries.is_empty());
        let batch = QueryBatch::uniform_honest(&net, batch_size, batch_seed, &adversaries);
        let frozen = net.view().freeze();
        let router = RedundantRouter::new(net.view().router(), redundancy);
        let mut scratch = RouteScratch::new();
        let expected: Vec<QueryOutcome> = batch
            .pairs()
            .iter()
            .enumerate()
            .map(|(index, &(s, t))| {
                let mut rng = SmallRng::seed_from_u64(seed_for_trial(batch.seed(), index as u64));
                let r = router.route_frozen(
                    frozen.routes(),
                    &adversaries,
                    s,
                    t,
                    &mut rng,
                    &mut scratch,
                );
                QueryOutcome {
                    source: s,
                    target: t,
                    delivered: r.delivered,
                    hops: r.winning_hops.unwrap_or(r.total_hops),
                    recoveries: r.recoveries,
                    cached: false,
                    attempts: r.attempts,
                    adversary_drops: r.dropped_by_adversary,
                    total_hops: r.total_hops,
                }
            })
            .collect();

        for threads in [1usize, 4, 8] {
            let mut engine = QueryEngine::new(
                EngineConfig::default().threads(threads).byzantine(spec.clone()),
            );
            let report = engine.run_batch(&net, &batch);
            prop_assert!(report.is_byzantine());
            prop_assert_eq!(report.cache_hits(), 0, "byzantine lane bypasses the cache");
            prop_assert_eq!(
                report.outcomes(),
                &expected[..],
                "batched path diverged from per-query route_frozen at {} threads",
                threads
            );
        }
    }

    /// Contract 2: an empty adversary set is the honest batch path bit for bit —
    /// for explicit-empty and fraction-zero membership, cached and uncached
    /// configurations. Uncached, both also answer like the live-graph oracle.
    #[test]
    fn empty_byzantine_set_is_bit_identical_to_the_honest_path(
        net_seed in any::<u64>(),
        batch_seed in any::<u64>(),
        cached in any::<bool>(),
    ) {
        let cache_capacity = if cached { 512usize } else { 0 };
        let net = network(512, net_seed);
        let batch = QueryBatch::uniform(&net, 600, batch_seed);
        let base = EngineConfig::default()
            .threads(2)
            .cache_capacity(cache_capacity);
        let mut honest = QueryEngine::new(base.clone());
        let honest_report = honest.run_batch(&net, &batch);
        prop_assert!(!honest_report.is_byzantine());
        if !cached {
            prop_assert_eq!(verdicts(&honest_report), live_oracle(&net, &batch));
        }
        for spec in [
            ByzantineConfig::explicit(ByzantineSet::new()),
            ByzantineConfig::fraction(0.0, 7),
        ] {
            let mut byz = QueryEngine::new(base.clone().byzantine(spec));
            let byz_report = byz.run_batch(&net, &batch);
            prop_assert!(
                !byz_report.is_byzantine(),
                "an empty set routes the honest lane"
            );
            prop_assert_eq!(byz_report.outcomes(), honest_report.outcomes());
        }
    }
}

#[test]
fn byzantine_batches_are_deterministic_across_thread_counts_at_scale() {
    let net = network(1 << 10, 21);
    let spec = ByzantineConfig::fraction(0.15, 22).redundancy(4);
    let mut resolver = QueryEngine::new(EngineConfig::default().threads(1).byzantine(spec.clone()));
    let adversaries = resolver.resolve_adversaries(&net).unwrap().clone();
    let batch = QueryBatch::uniform_honest(&net, 50_000, 23, &adversaries);
    let mut baseline = None;
    for threads in [1usize, 4, 8] {
        let mut engine = QueryEngine::new(
            EngineConfig::default()
                .threads(threads)
                .byzantine(spec.clone()),
        );
        let report = engine.run_batch(&net, &batch);
        assert!(
            report.contested_queries() > 0,
            "15% corruption must contest lookups"
        );
        assert!(
            report.success_rate() > 0.5,
            "redundancy 4 must recover most lookups"
        );
        assert!(
            report.mean_attempts() > 1.0,
            "contested lookups must have retried"
        );
        match &baseline {
            None => baseline = Some(report),
            Some(expected) => assert_eq!(
                expected.outcomes(),
                report.outcomes(),
                "diverged at {threads} threads"
            ),
        }
    }
}

#[test]
fn leaving_byzantine_nodes_shrink_the_set_and_membership_stays_alive() {
    let mut net = incremental_network(512, 31);
    let mut engine = QueryEngine::new(
        EngineConfig::default()
            .threads(2)
            .byzantine(ByzantineConfig::fraction(0.3, 32).redundancy(3)),
    );
    let initial = engine.resolve_adversaries(&net).unwrap().len();
    assert!(initial > 100);
    // Leave-heavy churn: departures must evict membership as positions empty out.
    let mut mix = ChurnMix::balanced(60);
    mix.join_probability = 0.2;
    let report = engine.run_interleaved(&mut net, 4, 500, mix, 33);
    let final_set = engine.adversaries().unwrap().clone();
    assert!(
        final_set.len() < initial,
        "leave-heavy churn must shrink the adversary set ({} -> {})",
        initial,
        final_set.len()
    );
    assert_eq!(
        report.epochs().last().unwrap().byzantine_after,
        final_set.len()
    );
    for node in final_set.iter() {
        assert!(
            net.graph().is_alive(node),
            "byzantine member {node} is not alive — membership went stale"
        );
    }
}

#[test]
fn joins_clear_stale_byzantine_labels_instead_of_resurrecting_them() {
    let mut net = incremental_network(64, 41);
    // Empty one position, then convict its (now dead) label.
    let victim = 10u64;
    let mut churn_rng = StdRng::seed_from_u64(42);
    net.leave(victim, &mut churn_rng).expect("leave succeeds");
    assert!(!net.graph().is_alive(victim));
    let mut set = ByzantineSet::new();
    set.insert(victim);
    let mut engine = QueryEngine::new(
        EngineConfig::default()
            .threads(1)
            .byzantine(ByzantineConfig::explicit(set).redundancy(2)),
    );
    // Join-only churn with enough events to refill the single empty position: the
    // schedule's joins can only target absent points, so `victim` rejoins.
    let mut mix = ChurnMix::balanced(4);
    mix.join_probability = 1.0;
    engine.run_interleaved(&mut net, 2, 200, mix, 43);
    assert!(
        net.graph().is_alive(victim),
        "join-only churn over one empty slot must refill it"
    );
    assert!(
        !engine.adversaries().unwrap().contains(victim),
        "a fresh honest join must clear the stale byzantine label, not inherit it"
    );
}

#[test]
fn adversarial_joins_conscript_arrivals_into_the_set() {
    let mut net = incremental_network(256, 51);
    let mut engine = QueryEngine::new(
        EngineConfig::default()
            .threads(2)
            .byzantine(ByzantineConfig::explicit(ByzantineSet::new()).redundancy(3)),
    );
    let mix = ChurnMix::balanced(40).adversarial_joins(1.0);
    let report = engine.run_interleaved(&mut net, 3, 500, mix, 52);
    let joins: usize = report.epochs().iter().map(|e| e.joins).sum();
    assert!(joins > 0, "balanced churn must produce joins");
    let final_set = engine.adversaries().unwrap();
    assert!(
        !final_set.is_empty(),
        "every join is conscripted, so the set must have grown"
    );
    for node in final_set.iter() {
        assert!(net.graph().is_alive(node));
    }
    // Epoch batches keep excluding the growing membership from their endpoints.
    for epoch in report.epochs() {
        assert!(epoch.batch.queries() == 500);
    }
}

#[test]
fn byzantine_interleaved_walks_the_same_topology_as_its_honest_twin() {
    // The membership draws come from a dedicated RNG stream, so a byzantine run and
    // an honest run with the same seeds must see identical join/leave trajectories.
    let run = |byzantine: bool| {
        let mut net = incremental_network(512, 61);
        let mut config = EngineConfig::default().threads(2);
        if byzantine {
            config = config.byzantine(ByzantineConfig::fraction(0.1, 62).redundancy(3));
        }
        let mut engine = QueryEngine::new(config);
        let mix = ChurnMix::balanced(50).adversarial_joins(0.5);
        let report = engine.run_interleaved(&mut net, 4, 300, mix, 63);
        report
            .epochs()
            .iter()
            .map(|e| (e.joins, e.leaves, e.alive_after))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(false),
        run(true),
        "adversary membership must not perturb the topology trajectory"
    );
}

#[test]
fn byzantine_interleaved_is_deterministic_across_thread_counts() {
    let run = |threads: usize| {
        let mut net = incremental_network(512, 71);
        let mut engine = QueryEngine::new(
            EngineConfig::default()
                .threads(threads)
                .byzantine(ByzantineConfig::fraction(0.12, 72).redundancy(3)),
        );
        let mix = ChurnMix::balanced(30).adversarial_joins(0.3);
        let report = engine.run_interleaved(&mut net, 3, 2_000, mix, 73);
        report
            .epochs()
            .iter()
            .map(|e| {
                (
                    e.batch.outcomes().to_vec(),
                    e.joins,
                    e.leaves,
                    e.byzantine_after,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(1),
        run(4),
        "byzantine interleave must be thread-count invariant"
    );
}

#[test]
fn clear_adversaries_forces_re_resolution_against_the_new_network() {
    let net_a = network(512, 91);
    let net_b = network(512, 92);
    let mut engine = QueryEngine::new(
        EngineConfig::default()
            .threads(1)
            .byzantine(ByzantineConfig::fraction(0.1, 93)),
    );
    let set_a = engine.resolve_adversaries(&net_a).unwrap().clone();
    // Without clearing, the membership sticks to the engine (net_a's labels).
    assert_eq!(engine.resolve_adversaries(&net_b).unwrap(), &set_a);
    engine.clear_adversaries();
    assert!(engine.adversaries().is_none());
    // Same sampling seed over the same alive population: re-resolution is
    // deterministic, and it now reads the network actually passed in.
    let set_b = engine.resolve_adversaries(&net_b).unwrap().clone();
    assert_eq!(set_b.len(), set_a.len());
}

#[test]
fn contested_lookups_surface_in_the_split_and_json() {
    let net = network(1 << 10, 81);
    let spec = ByzantineConfig::fraction(0.2, 82).redundancy(4);
    let mut engine = QueryEngine::new(EngineConfig::default().threads(2).byzantine(spec));
    let adversaries = engine.resolve_adversaries(&net).unwrap().clone();
    let batch = QueryBatch::uniform_honest(&net, 10_000, 83, &adversaries);
    let report = engine.run_batch(&net, &batch);
    let clean = report.adversary_split(false);
    let contested = report.adversary_split(true);
    assert_eq!(clean.queries + contested.queries, 10_000);
    assert!(contested.queries > 0, "20% corruption must contest lookups");
    assert_eq!(clean.success_rate, 1.0, "untouched lookups always deliver");
    assert!(contested.success_rate < 1.0 || contested.delivered == contested.queries);
    assert!(
        report.total_route_hops() > report.outcomes().iter().map(|o| o.hops).sum::<u64>()
            || report.contested_queries() == 0,
        "redundant walks must cost bandwidth beyond the winning walks"
    );
    let json = report.to_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"adversary\""));
}
