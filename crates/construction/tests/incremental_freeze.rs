//! Property: incremental snapshot patching equals a from-scratch recompile.
//!
//! The Section 5 maintainer reports the exact blast radius of every join and leave
//! as a typed [`ChurnDelta`] of per-node row diffs. Feeding it to the snapshot
//! ([`FrozenRoutes::apply_delta`]) must keep it *logically* identical to
//! `OverlayGraph::freeze()` of the mutated graph after **any** interleaving of joins
//! and leaves — same adjacency row for every node, same alive bitset, same sorted
//! alive list — and a forced [`FrozenRoutes::compact`] must make it
//! **bit**-identical (same dense `offsets` / `neighbors` arrays), no matter how many
//! patch/compaction cycles happened in between.

use faultline_construction::{NetworkMaintainer, ReplacementStrategy};
use faultline_metric::Geometry;
use faultline_overlay::{ChurnDelta, FrozenRoutes, OverlayGraph};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Asserts the patched snapshot reads identically to a fresh freeze, row by row.
fn assert_logically_equal(graph: &OverlayGraph, patched: &FrozenRoutes) {
    let fresh = graph.freeze();
    for p in 0..graph.len() {
        assert_eq!(patched.neighbors(p), fresh.neighbors(p), "row {p} diverged");
        assert_eq!(patched.is_alive(p), fresh.is_alive(p), "alive bit {p}");
    }
    assert_eq!(patched.alive_sorted(), fresh.alive_sorted());
    assert_eq!(patched.edge_count(), fresh.edge_count());
}

/// One epoch of random maintainer churn; returns the merged (latest-row-wins)
/// typed delta of its events.
fn churn_epoch(
    maintainer: &mut NetworkMaintainer,
    events: usize,
    join_bias: f64,
    rng: &mut StdRng,
) -> ChurnDelta {
    let n = maintainer.graph().len();
    let mut delta = ChurnDelta::new();
    for _ in 0..events {
        let want_join = rng.gen_bool(join_bias);
        if want_join {
            let p = rng.gen_range(0..n);
            if let Ok(report) = maintainer.join(p, rng) {
                delta.absorb(report.delta);
            }
        } else if maintainer.graph().present_count() > 2 {
            let p = rng.gen_range(0..n);
            if let Some(&victim) = maintainer
                .graph()
                .present_nodes()
                .get(p as usize % maintainer.graph().present_nodes().len())
            {
                if let Ok(report) = maintainer.leave(victim, rng) {
                    delta.absorb(report.delta);
                }
            }
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn patched_snapshots_equal_fresh_freezes_under_arbitrary_churn(
        n in 32u64..512,
        ell in 1usize..6,
        seed in any::<u64>(),
        ring in any::<bool>(),
        epochs in 1usize..6,
        events in 1usize..40,
        join_bias in 0.1f64..0.9,
    ) {
        let geometry = if ring { Geometry::ring(n) } else { Geometry::line(n) };
        let mut maintainer =
            NetworkMaintainer::new(geometry, ell, ReplacementStrategy::InverseDistance);
        let mut rng = StdRng::seed_from_u64(seed);
        // Seed the population through the maintainer itself.
        for _ in 0..(n / 2) {
            let _ = maintainer.join(rng.gen_range(0..n), &mut rng);
        }

        // The snapshot, patched from the typed delta (rows written as captured), must
        // stay logically identical to a fresh freeze at every epoch boundary.
        let mut diffed = maintainer.graph().freeze();
        for _ in 0..epochs {
            let delta = churn_epoch(&mut maintainer, events, join_bias, &mut rng);
            prop_assert_eq!(
                delta.changed_nodes().collect::<Vec<_>>().len(),
                delta.len(),
                "delta rows must be unique"
            );
            diffed.apply_delta(maintainer.graph(), &delta);
            assert_logically_equal(maintainer.graph(), &diffed);
        }

        // Bit-identity after folding the overflow region back into the dense CSR.
        diffed.compact();
        prop_assert_eq!(
            diffed,
            maintainer.graph().freeze(),
            "delta-patched snapshots must compact to the same dense CSR"
        );
    }

    #[test]
    fn per_event_patching_matches_batched_epoch_patching(
        n in 32u64..256,
        seed in any::<u64>(),
        events in 2usize..30,
    ) {
        let geometry = Geometry::line(n);
        let mut a = NetworkMaintainer::new(geometry, 3, ReplacementStrategy::Oldest);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..(n / 2) {
            let _ = a.join(rng.gen_range(0..n), &mut rng);
        }
        let mut per_event = a.graph().freeze();
        let mut batched = per_event.clone();

        let mut epoch_delta = ChurnDelta::new();
        for _ in 0..events {
            let delta = churn_epoch(&mut a, 1, 0.5, &mut rng);
            per_event.apply_delta(a.graph(), &delta);
            epoch_delta.absorb(delta);
        }
        // The merged delta carries each twice-touched row once, with its final
        // content: applying it in one shot must land on the same topology.
        batched.apply_delta(a.graph(), &epoch_delta);

        per_event.compact();
        batched.compact();
        prop_assert_eq!(&per_event, &batched);
        prop_assert_eq!(per_event, a.graph().freeze());
    }
}
