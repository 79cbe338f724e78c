//! The frozen batch kernel's zero-allocation contract, verified with a counting
//! global allocator.
//!
//! The engine's uncached hot path is `SmallRng::seed_from_u64` + `route_frozen` with a
//! per-worker [`RouteScratch`]. After one warm-up pass (which sizes the scratch
//! buffers), routing the same workload again must perform **zero** heap allocations.
//! The contract is proven for both distance-scan kernels — auto-detected (the SIMD
//! scan over lane-padded rows, where the CPU has it) and pinned scalar — on rows
//! long enough to dispatch the vector path, including unpadded overflow rows
//! patched in by `apply_delta`.
//!
//! This file intentionally holds a single test: the allocation counter is global to
//! the test binary, and a concurrently running test would pollute the delta.

use faultline_linkdist::InversePowerLaw;
use faultline_metric::Geometry;
use faultline_overlay::{ChurnDelta, GraphBuilder, OverlayGraph, RowChangeKind};
use faultline_routing::{ByzantineSet, FaultStrategy, RedundantRouter, RouteScratch, Router};
use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter increment has no safety impact.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: same contract as `System.realloc`; the caller guarantees `ptr`/`layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same contract as `System.dealloc`; the caller guarantees `ptr`/`layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn damaged_graph(n: u64, ell: usize, seed: u64) -> OverlayGraph {
    let geometry = Geometry::line(n);
    let spec = InversePowerLaw::exponent_one(&geometry);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = GraphBuilder::new(geometry)
        .links_per_node(ell)
        .build(&spec, &mut rng);
    // Some damage so the backtracking strategy actually exercises its buffers.
    for _ in 0..(n / 5) {
        graph.fail_node(rng.gen_range(0..n));
    }
    graph
}

#[test]
fn frozen_kernel_allocates_nothing_per_query_after_warmup() {
    let n = 1u64 << 11;
    // 12 long links + 2 line neighbours per row: two full vector steps after lane
    // padding, so the SIMD kernel (not just its scalar fallback) is on the path.
    let mut graph = damaged_graph(n, 12, 2002);
    // Patch (rather than rebuild) the snapshot through a small churn step, so the
    // zero-alloc proof also covers rows served from the overflow region.
    let frozen = {
        let mut snapshot = graph.freeze();
        let mut rng = StdRng::seed_from_u64(404);
        let mut delta = ChurnDelta::new();
        for _ in 0..16 {
            let p = rng.gen_range(0..n);
            if graph.is_alive(p) {
                graph.fail_link(p, p + 1);
                let row = graph.usable_neighbors(p).map(|q| q as u32).collect();
                delta.record(p, RowChangeKind::Structural, true, row);
            }
        }
        snapshot.apply_delta(&graph, &delta);
        snapshot
    };
    let graph = graph;
    let alive = graph.alive_nodes();

    let mut pairs = Vec::with_capacity(512);
    let mut pick = StdRng::seed_from_u64(7);
    for _ in 0..512 {
        pairs.push((
            alive[pick.gen_range(0..alive.len())],
            alive[pick.gen_range(0..alive.len())],
        ));
    }

    for strategy in [FaultStrategy::Terminate, FaultStrategy::paper_backtrack()] {
        let router = Router::new().with_strategy(strategy);
        let mut delivered_by_kernel = Vec::new();
        for simd in [true, false] {
            let mut scratch = RouteScratch::new().with_simd(simd);
            let kernel = scratch.kernel().label();
            let run = |scratch: &mut RouteScratch| {
                let mut delivered = 0usize;
                for (index, &(s, t)) in pairs.iter().enumerate() {
                    // The engine's exact per-query recipe: a counter-based RNG built
                    // from the derived seed, then the frozen walk.
                    let mut rng = SmallRng::seed_from_u64(index as u64);
                    if router
                        .route_frozen(&frozen, s, t, &mut rng, scratch)
                        .is_delivered()
                    {
                        delivered += 1;
                    }
                }
                delivered
            };

            let warm = run(&mut scratch); // sizes the scratch buffers
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let again = run(&mut scratch);
            let after = ALLOCATIONS.load(Ordering::Relaxed);

            assert_eq!(
                warm, again,
                "identical workload must give identical results"
            );
            assert!(warm > 0, "some queries must deliver");
            assert_eq!(
                after - before,
                0,
                "frozen kernel allocated {} times in {} queries ({}, {} kernel)",
                after - before,
                pairs.len(),
                strategy.label(),
                kernel,
            );
            delivered_by_kernel.push(warm);
        }
        assert_eq!(
            delivered_by_kernel[0],
            delivered_by_kernel[1],
            "SIMD and scalar kernels disagree ({})",
            strategy.label(),
        );
    }

    // The byzantine-redundant frozen path inherits the contract: retry walks reuse the
    // same scratch and the adversary scan reads it, so no walk allocates either.
    let adversaries = ByzantineSet::from_nodes((0..n).step_by(17));
    let redundant = RedundantRouter::new(
        Router::new().with_strategy(FaultStrategy::paper_backtrack()),
        4,
    );
    let mut scratch = RouteScratch::new();
    let run_redundant = |scratch: &mut RouteScratch| {
        let mut delivered = 0usize;
        for (index, &(s, t)) in pairs.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(index as u64);
            if redundant
                .route_frozen(&frozen, &adversaries, s, t, &mut rng, scratch)
                .delivered
            {
                delivered += 1;
            }
        }
        delivered
    };
    let warm = run_redundant(&mut scratch);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let again = run_redundant(&mut scratch);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(warm, again);
    assert!(warm > 0, "some redundant lookups must deliver");
    assert_eq!(
        after - before,
        0,
        "redundant frozen path allocated {} times in {} lookups",
        after - before,
        pairs.len(),
    );
}
