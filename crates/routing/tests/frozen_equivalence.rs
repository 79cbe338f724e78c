//! Property: the frozen CSR kernel is bit-identical to the live-graph walk.
//!
//! `Router::route_frozen` is an *optimisation*, not a second implementation of the
//! semantics: over random graphs, random churn patterns (node failures, revivals, link
//! failures, permanent departures), both greedy modes and every fault strategy, its
//! [`RouteResult`]s — outcome, hops, recoveries and recorded path — must equal
//! `Router::route`'s exactly, and both must consume the same amount of randomness.
//!
//! The same contract covers the vectorized distance scan: every case routes the
//! frozen snapshot twice — once with the auto-detected kernel (AVX2 where the CPU
//! has it) and once with the kernel pinned to the portable scalar fold
//! (`RouteScratch::with_simd(false)`) — and all three walks must agree bit for bit.

use faultline_linkdist::InversePowerLaw;
use faultline_metric::Geometry;
use faultline_overlay::{
    ChurnDelta, FrozenRoutes, GraphBuilder, OverlayGraph, RowChangeKind, PAD_SENTINEL, SIMD_LANES,
};
use faultline_routing::{FaultStrategy, GreedyMode, RouteScratch, Router};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

fn build(n: u64, ell: usize, seed: u64, ring: bool) -> OverlayGraph {
    let geometry = if ring {
        Geometry::ring(n)
    } else {
        Geometry::line(n)
    };
    let spec = InversePowerLaw::exponent_one(&geometry);
    let mut rng = StdRng::seed_from_u64(seed);
    GraphBuilder::new(geometry)
        .links_per_node(ell)
        .build(&spec, &mut rng)
}

/// Applies a random damage/churn pattern: crash a fraction of nodes, revive a few of
/// them, kill a fraction of long links, and permanently remove a handful of nodes
/// (leaving dangling links behind, as departures do).
fn churn(graph: &mut OverlayGraph, seed: u64, node_f: f64, link_f: f64) {
    let n = graph.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A2);
    for p in 0..n {
        if rng.gen_bool(node_f) {
            graph.fail_node(p);
        }
    }
    for p in 0..n {
        if graph.is_present(p) && !graph.is_alive(p) && rng.gen_bool(0.2) {
            graph.revive_node(p);
        }
    }
    graph.fail_long_links_where(|_, _| rng.gen_bool(link_f));
    for _ in 0..(n / 64).min(8) {
        let p = rng.gen_range(0..n);
        if graph.present_count() > 2 {
            graph.remove_node(p);
        }
    }
}

/// Asserts the lane-padding contract on every row of `snapshot`: the padded slot
/// is the trimmed row plus an all-sentinel tail, no sentinel leaks into the
/// trimmed view, and dense slots (the only padded ones — overflow records are
/// served unpadded) are a [`SIMD_LANES`] multiple.
fn check_row_shapes(snapshot: &FrozenRoutes) -> Result<(), String> {
    for p in 0..snapshot.len() {
        let trimmed = snapshot.neighbors(p);
        let padded = snapshot.neighbors_padded(p);
        prop_assert!(padded.len() >= trimmed.len(), "node {}: slot shrank", p);
        prop_assert_eq!(&padded[..trimmed.len()], trimmed, "node {}: prefix", p);
        prop_assert!(
            padded[trimmed.len()..].iter().all(|&l| l == PAD_SENTINEL),
            "node {}: non-sentinel padding",
            p
        );
        prop_assert!(
            trimmed.iter().all(|&l| l != PAD_SENTINEL),
            "node {}: sentinel leaked into the trimmed row",
            p
        );
        if padded.len() != trimmed.len() {
            prop_assert_eq!(padded.len() % SIMD_LANES, 0, "node {}: unaligned slot", p);
        }
    }
    Ok(())
}

/// Routes a few pairs over `snapshot` with the auto-detected kernel and the
/// pinned-scalar kernel and asserts bit-identical results and RNG consumption.
fn check_kernel_parity(snapshot: &FrozenRoutes, seed: u64) -> Result<(), String> {
    let n = snapshot.len();
    let router = Router::new()
        .with_strategy(FaultStrategy::paper_backtrack())
        .with_path_recording(true);
    let mut scratch_auto = RouteScratch::new();
    let mut scratch_scalar = RouteScratch::new().with_simd(false);
    let mut pair_rng = StdRng::seed_from_u64(seed ^ 0x7A0D);
    for trial in 0..4u64 {
        let s = pair_rng.gen_range(0..n);
        let t = pair_rng.gen_range(0..n);
        let mut rng_auto = StdRng::seed_from_u64(seed ^ trial);
        let mut rng_scalar = StdRng::seed_from_u64(seed ^ trial);
        let auto = router.route_frozen(snapshot, s, t, &mut rng_auto, &mut scratch_auto);
        let scalar = router.route_frozen(snapshot, s, t, &mut rng_scalar, &mut scratch_scalar);
        prop_assert_eq!(&auto, &scalar, "{} -> {} kernels diverged", s, t);
        prop_assert_eq!(rng_auto.next_u64(), rng_scalar.next_u64());
    }
    Ok(())
}

fn strategy_from(pick: u8) -> FaultStrategy {
    match pick % 3 {
        0 => FaultStrategy::Terminate,
        1 => FaultStrategy::paper_backtrack(),
        _ => FaultStrategy::RandomReroute { max_attempts: 2 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn route_frozen_matches_route_bit_for_bit(
        n in 8u64..1_200,
        // Wide enough that many cases cross the vector-dispatch threshold
        // (rows of `MIN_SCAN_LEN` labels after padding) and many stay under it.
        ell in 1usize..24,
        seed in any::<u64>(),
        ring in any::<bool>(),
        one_sided in any::<bool>(),
        strategy_pick in 0u8..3,
        node_failure in 0.0f64..0.5,
        link_failure in 0.0f64..0.3,
    ) {
        let mut graph = build(n, ell, seed, ring);
        churn(&mut graph, seed, node_failure, link_failure);
        let frozen = graph.freeze();

        let mode = if one_sided { GreedyMode::OneSided } else { GreedyMode::TwoSided };
        let router = Router::new()
            .with_mode(mode)
            .with_strategy(strategy_from(strategy_pick))
            .with_path_recording(true);

        let mut pair_rng = StdRng::seed_from_u64(seed ^ 0x9A17);
        let mut scratch = RouteScratch::new();
        let mut scratch_scalar = RouteScratch::new().with_simd(false);
        for trial in 0..8u64 {
            // Endpoints deliberately include dead and absent grid points: the immediate
            // failure paths must agree too.
            let s = pair_rng.gen_range(0..n);
            let t = pair_rng.gen_range(0..n);
            let mut rng_live = StdRng::seed_from_u64(seed ^ trial);
            let mut rng_frozen = StdRng::seed_from_u64(seed ^ trial);
            let mut rng_scalar = StdRng::seed_from_u64(seed ^ trial);
            let live = router.route(&graph, s, t, &mut rng_live);
            let fast = router.route_frozen(&frozen, s, t, &mut rng_frozen, &mut scratch);
            let slow = router.route_frozen(&frozen, s, t, &mut rng_scalar, &mut scratch_scalar);
            prop_assert_eq!(&live, &fast, "{} -> {} diverged (live vs frozen)", s, t);
            prop_assert_eq!(
                &fast, &slow,
                "{} -> {} diverged (auto kernel vs forced scalar)", s, t
            );
            let (a, b, c) = (rng_live.next_u64(), rng_frozen.next_u64(), rng_scalar.next_u64());
            prop_assert_eq!(a, b, "{} -> {} consumed different randomness", s, t);
            prop_assert_eq!(b, c, "{} -> {} scalar kernel consumed different randomness", s, t);
            // The scratch path always mirrors the recorded path (as u32s).
            let scratch_path: Vec<u64> =
                fast.path.clone().unwrap_or_default();
            let recorded: Vec<u64> = scratch.path().iter().map(|&p| u64::from(p)).collect();
            prop_assert_eq!(scratch_path, recorded);
        }
    }

    /// Lane padding round-trips through the whole patch pipeline: freeze, then
    /// `apply_delta` with rows read back from the graph, then `apply_delta` with
    /// rows from a fresh freeze, then `compact` — after every step each row keeps the padding
    /// contract, the delta-patched snapshot matches a from-scratch freeze row for
    /// row, and the SIMD kernel stays bit-identical to the scalar fold on every
    /// row shape the pipeline produces (padded dense slots, unpadded overflow
    /// records, tombstoned and emptied rows).
    #[test]
    fn padding_round_trips_through_patching_and_kernels_agree(
        n in 8u64..400,
        // Past the vector-dispatch threshold on the long end (see above).
        ell in 1usize..24,
        seed in any::<u64>(),
        ring in any::<bool>(),
        node_failure in 0.0f64..0.4,
        link_failure in 0.0f64..0.3,
    ) {
        let mut graph = build(n, ell, seed, ring);
        let mut snapshot = graph.freeze();
        check_row_shapes(&snapshot)?;

        // Epoch 1: churn patched in as a delta over every node, rows read back
        // from the graph (a superset delta is allowed — unchanged rows are
        // detected and skipped).
        churn(&mut graph, seed, node_failure, link_failure);
        let mut everyone = ChurnDelta::new();
        for p in 0..n {
            let row = graph.usable_neighbors(p).map(|q| q as u32).collect();
            everyone.record(p, RowChangeKind::Structural, graph.is_alive(p), row);
        }
        snapshot.apply_delta(&graph, &everyone);
        check_row_shapes(&snapshot)?;
        check_kernel_parity(&snapshot, seed)?;

        // Epoch 2: more churn, patched in as a typed delta whose rows come from a
        // from-scratch freeze of the churned graph (the ground truth).
        churn(&mut graph, seed ^ 0xD317A, node_failure * 0.5, link_failure * 0.5);
        let fresh = graph.freeze();
        let mut delta = ChurnDelta::new();
        for p in 0..n {
            if snapshot.neighbors(p) != fresh.neighbors(p)
                || snapshot.is_alive(p) != fresh.is_alive(p)
            {
                delta.record(
                    p,
                    RowChangeKind::Structural,
                    fresh.is_alive(p),
                    fresh.neighbors(p).to_vec(),
                );
            }
        }
        snapshot.apply_delta(&graph, &delta);
        check_row_shapes(&snapshot)?;
        check_kernel_parity(&snapshot, seed ^ 0xDE17)?;
        for p in 0..n {
            prop_assert_eq!(snapshot.neighbors(p), fresh.neighbors(p), "node {} row", p);
            prop_assert_eq!(snapshot.is_alive(p), fresh.is_alive(p), "node {} alive", p);
        }

        // Compaction folds the overflow region back into dense lane-padded rows.
        snapshot.compact();
        prop_assert_eq!(snapshot.overflow_len(), 0);
        check_row_shapes(&snapshot)?;
        check_kernel_parity(&snapshot, seed ^ 0xC0)?;
        for p in 0..n {
            prop_assert_eq!(snapshot.neighbors(p), fresh.neighbors(p), "node {} row", p);
        }
    }
}
