//! Distance-scan kernel microbench: ns/hop through the frozen CSR kernel, scalar
//! fold vs the runtime-dispatched SIMD scan, per geometry and row length.
//!
//! The engine-level `simd_speedup` headline in `BENCH_engine.json` measures the
//! vectorised kernel diluted by everything else a batch does (seeding, scratch
//! bookkeeping, shard scheduling). This lane isolates the kernel itself: one
//! overlay per `(geometry, links-per-node)` cell, the identical seeded query
//! stream routed once with the kernel pinned scalar and once with the dispatched
//! ISA, alternating best-of rounds per side, and the wall time divided by the
//! hops actually taken. Row length is the lever that decides how much lane-level
//! parallelism a scan can extract, so the table sweeps it explicitly.
//!
//! Both sides must agree bit-for-bit on every route (delivery, hops, recoveries)
//! — the run aborts on the first divergence, making this a determinism check as
//! well as a clock.
//!
//! A second table sweeps the width of the interleaved [`WalkPipeline`] — the
//! walks one worker keeps in flight, prefetching each one's next row — at 2^14
//! and at the paper's shape 2^17 (ℓ = lg n, line geometry as in
//! `NetworkConfig::paper_default`), for both kernels. Every width's route digest
//! must equal width 1's, and width 1's must equal the sequential
//! `Router::route_frozen` loop's; the run aborts on the first divergence.
//! `--quick` shrinks both tables (2^12 and 2^14, 2,000 queries) so CI can run it
//! as a determinism check.
//!
//! Writes `BENCH_route_kernel.json` (or the path in `ROUTE_KERNEL_JSON`).

use faultline_bench::BenchArgs;
use faultline_core::routing::{
    KernelIsa, RouteResult, RouteScratch, Router, Walk, WalkFeed, WalkPipeline,
};
use faultline_linkdist::InversePowerLaw;
use faultline_metric::Geometry;
use faultline_overlay::GraphBuilder;
use faultline_sim::seed_for_trial;
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;
use std::time::Instant;

/// Long links per node swept by the table: the row length decides how many full
/// lanes the vector scan gets per hop (2 barely fills half a lane group; 16 runs
/// four full iterations).
const LINK_SWEEP: [usize; 4] = [2, 4, 8, 16];

/// Pipeline widths swept by the second table.
const WIDTH_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// Alternating scalar/SIMD measurement rounds per cell; each side keeps its best
/// (fastest) round, cancelling scheduler noise the same way the engine bench's
/// `simd_speedup` reading does.
const ROUNDS: usize = 3;

/// One measured side of a cell: total wall nanos over total hops, best round.
struct Side {
    ns_per_hop: f64,
    hops: u64,
    delivered: u64,
}

/// Folds one route into a stream digest (order-sensitive: callers fold in query
/// order).
fn fold_digest(digest: u64, result: &RouteResult) -> u64 {
    digest
        .wrapping_mul(0x100_0000_01B3)
        .wrapping_add(result.hops ^ (u64::from(result.is_delivered()) << 63) ^ result.recoveries)
}

/// Routes the whole query stream once and returns (nanos, hops, delivered,
/// digest). The digest folds every route's outcome so scalar/SIMD divergence is
/// detected without storing per-query results.
fn run_stream(
    router: Router,
    frozen: &faultline_overlay::FrozenRoutes,
    pairs: &[(u64, u64)],
    seed: u64,
    scratch: &mut RouteScratch,
) -> (u64, u64, u64, u64) {
    let started = Instant::now();
    let mut hops = 0u64;
    let mut delivered = 0u64;
    let mut digest = 0u64;
    for (index, &(source, target)) in pairs.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(seed_for_trial(seed, index as u64));
        let result = router.route_frozen(frozen, source, target, &mut rng, scratch);
        hops += result.hops;
        delivered += u64::from(result.is_delivered());
        digest = fold_digest(digest, &result);
    }
    (started.elapsed().as_nanos() as u64, hops, delivered, digest)
}

/// The query stream as a [`WalkFeed`]: walk `i` routes pair `i` with the same
/// per-query seed [`run_stream`] uses, and its result lands in slot `i`.
struct StreamFeed<'a> {
    router: Router,
    pairs: &'a [(u64, u64)],
    seed: u64,
    next: usize,
    results: &'a mut [RouteResult],
}

impl WalkFeed for StreamFeed<'_> {
    type Tag = usize;

    fn admit(&mut self) -> Option<Walk<usize>> {
        let index = self.next;
        let &(source, target) = self.pairs.get(index)?;
        self.next += 1;
        Some(Walk {
            router: self.router,
            source,
            target,
            seed: seed_for_trial(self.seed, index as u64),
            tag: index,
        })
    }

    fn finish(
        &mut self,
        index: usize,
        result: &RouteResult,
        _scratch: &RouteScratch,
        _rng: &SmallRng,
    ) -> Option<Walk<usize>> {
        self.results[index].clone_from(result);
        None
    }
}

/// Routes the whole query stream through a pipeline once and returns (nanos,
/// hops, delivered, digest) like [`run_stream`]; the digest folds results in
/// query order, whatever order the walks finished in.
fn run_pipeline(
    router: Router,
    frozen: &faultline_overlay::FrozenRoutes,
    pairs: &[(u64, u64)],
    seed: u64,
    pipeline: &mut WalkPipeline<usize>,
    results: &mut [RouteResult],
) -> (u64, u64, u64, u64) {
    let started = Instant::now();
    let mut feed = StreamFeed {
        router,
        pairs,
        seed,
        next: 0,
        results,
    };
    pipeline.run(frozen, &mut feed);
    let nanos = started.elapsed().as_nanos() as u64;
    let (mut hops, mut delivered, mut digest) = (0, 0, 0);
    for result in feed.results.iter() {
        hops += result.hops;
        delivered += u64::from(result.is_delivered());
        digest = fold_digest(digest, result);
    }
    (nanos, hops, delivered, digest)
}

/// Measures one side (one kernel) of a cell: best ns/hop over [`ROUNDS`] rounds.
fn measure(
    router: Router,
    frozen: &faultline_overlay::FrozenRoutes,
    pairs: &[(u64, u64)],
    seed: u64,
    scratch: &mut RouteScratch,
) -> (Side, u64) {
    let mut best_nanos = u64::MAX;
    let mut hops = 0;
    let mut delivered = 0;
    let mut digest = 0;
    for _ in 0..ROUNDS {
        let (nanos, h, d, g) = run_stream(router, frozen, pairs, seed, scratch);
        best_nanos = best_nanos.min(nanos);
        hops = h;
        delivered = d;
        digest = g;
    }
    let side = Side {
        ns_per_hop: if hops > 0 {
            best_nanos as f64 / hops as f64
        } else {
            0.0
        },
        hops,
        delivered,
    };
    (side, digest)
}

fn main() {
    let args = BenchArgs::from_env();
    let nodes = args.nodes_or(if args.quick { 1 << 12 } else { 1 << 14 }, 1 << 16);
    let queries = args.messages_or(if args.quick { 2_000 } else { 20_000 }, 1 << 17) as usize;
    let seed = args.seed;
    let detected = KernelIsa::detect();
    println!(
        "# route_kernel: n = {nodes}, {queries} queries/cell, dispatched isa {} ({} lanes), best of {ROUNDS} rounds/side",
        detected.label(),
        detected.lanes(),
    );
    println!(
        "{:<10} {:>6}   {:>14} {:>14} {:>9}   {:>10}",
        "geometry", "links", "scalar ns/hop", "simd ns/hop", "speedup", "hops"
    );

    let mut cells = Vec::new();
    for (geometry_label, geometry_of) in [
        ("ring", Geometry::ring as fn(u64) -> Geometry),
        ("line", Geometry::line as fn(u64) -> Geometry),
    ] {
        for &links in &LINK_SWEEP {
            let geometry = geometry_of(nodes);
            let spec = InversePowerLaw::exponent_one(&geometry);
            let mut rng = StdRng::seed_from_u64(seed ^ (links as u64) << 8);
            let graph = GraphBuilder::new(geometry)
                .links_per_node(links)
                .build(&spec, &mut rng);
            let frozen = graph.freeze();
            let router = Router::new();
            let mut pair_rng = StdRng::seed_from_u64(seed ^ 0x9A12);
            let pairs: Vec<(u64, u64)> = (0..queries)
                .map(|_| {
                    use rand::Rng;
                    (pair_rng.gen_range(0..nodes), pair_rng.gen_range(0..nodes))
                })
                .collect();
            // Path recording off, matching the engine's per-worker hot-path
            // scratch: the reading is about the distance scan, not `Vec` pushes.
            let mut scalar_scratch = RouteScratch::new()
                .with_path_recording(false)
                .with_simd(false);
            let mut simd_scratch = RouteScratch::new().with_path_recording(false);
            let (scalar, scalar_digest) =
                measure(router, &frozen, &pairs, seed, &mut scalar_scratch);
            let (simd, simd_digest) = measure(router, &frozen, &pairs, seed, &mut simd_scratch);
            assert_eq!(
                scalar_digest, simd_digest,
                "kernel divergence at {geometry_label}/{links}: SIMD must be bit-identical"
            );
            assert_eq!(scalar.delivered, simd.delivered);
            let speedup = if simd.ns_per_hop > 0.0 {
                scalar.ns_per_hop / simd.ns_per_hop
            } else {
                0.0
            };
            println!(
                "{:<10} {:>6}   {:>14.2} {:>14.2} {:>8.2}x   {:>10}",
                geometry_label, links, scalar.ns_per_hop, simd.ns_per_hop, speedup, simd.hops
            );
            cells.push(format!(
                concat!(
                    "{{\"geometry\":\"{}\",\"links\":{},\"scalar_ns_per_hop\":{:.3},",
                    "\"simd_ns_per_hop\":{:.3},\"speedup\":{:.3},\"hops\":{},\"delivered\":{}}}"
                ),
                geometry_label,
                links,
                scalar.ns_per_hop,
                simd.ns_per_hop,
                speedup,
                simd.hops,
                simd.delivered,
            ));
        }
    }

    let sweep_sizes: [u32; 2] = if args.quick { [12, 14] } else { [14, 17] };
    let sweep = width_sweep(&sweep_sizes, queries, seed, detected);

    let json = format!(
        concat!(
            "{{\"nodes\":{},\"queries\":{},\"seed\":{},\"isa\":\"{}\",\"lanes\":{},",
            "\"rounds\":{},\"cells\":[{}],\"pipeline\":[{}]}}"
        ),
        nodes,
        queries,
        seed,
        detected.label(),
        detected.lanes(),
        ROUNDS,
        cells.join(","),
        sweep.join(","),
    );
    let path =
        std::env::var("ROUTE_KERNEL_JSON").unwrap_or_else(|_| "BENCH_route_kernel.json".into());
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(error) => {
            eprintln!("failed to write {path}: {error}");
            std::process::exit(1);
        }
    }
}

/// The pipeline-width table: per size (`2^lg` nodes, ℓ = lg, line geometry), the
/// sequential `route_frozen` loop and then every width in [`WIDTH_SWEEP`], on the
/// scalar fold and (where dispatched) the SIMD scan. Rounds alternate over every
/// width so drift hits all of them alike; each keeps its fastest round. Panics on
/// the first digest that differs from the sequential loop's. Returns the JSON cells.
fn width_sweep(sizes: &[u32], queries: usize, seed: u64, detected: KernelIsa) -> Vec<String> {
    let kernels: Vec<bool> = if detected.is_simd() {
        vec![false, true]
    } else {
        vec![false]
    };
    println!(
        "\n# pipeline width sweep: {queries} queries/cell, line geometry, l = lg n, best of {ROUNDS} rounds"
    );
    println!(
        "{:<8} {:>6} {:>7}   {:>14} {:>14} {:>14} {:>9}",
        "nodes", "links", "width", "scalar ns/hop", "simd ns/hop", "ns/lookup", "vs w=1"
    );
    let mut cells = Vec::new();
    for &lg in sizes {
        let nodes = 1u64 << lg;
        let links = lg as usize;
        let geometry = Geometry::line(nodes);
        let spec = InversePowerLaw::exponent_one(&geometry);
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(lg));
        let graph = GraphBuilder::new(geometry)
            .links_per_node(links)
            .build(&spec, &mut rng);
        let frozen = graph.freeze();
        let router = Router::new();
        let mut pair_rng = StdRng::seed_from_u64(seed ^ 0x51DE);
        let pairs: Vec<(u64, u64)> = (0..queries)
            .map(|_| {
                use rand::Rng;
                (pair_rng.gen_range(0..nodes), pair_rng.gen_range(0..nodes))
            })
            .collect();
        let placeholder =
            RouteResult::immediate_failure(faultline_core::routing::FailureReason::Stuck, false);
        let mut results = vec![placeholder.clone(); queries];

        // best[kernel][width] in nanos, plus the sequential loop as row "seq".
        let mut best = vec![vec![u64::MAX; WIDTH_SWEEP.len() + 1]; kernels.len()];
        let mut hops = 0;
        let mut reference = None;
        for _ in 0..ROUNDS {
            for (k, &simd) in kernels.iter().enumerate() {
                let scratch = RouteScratch::new()
                    .with_path_recording(false)
                    .with_simd(simd);
                let (nanos, h, _, digest) =
                    run_stream(router, &frozen, &pairs, seed, &mut scratch.clone());
                let reference = *reference.get_or_insert(digest);
                assert_eq!(digest, reference, "sequential kernels diverged at 2^{lg}");
                best[k][0] = best[k][0].min(nanos);
                hops = h;
                for (w, &width) in WIDTH_SWEEP.iter().enumerate() {
                    let mut pipeline = WalkPipeline::new(width, &scratch);
                    results.fill(placeholder.clone());
                    let (nanos, h, _, digest) =
                        run_pipeline(router, &frozen, &pairs, seed, &mut pipeline, &mut results);
                    assert_eq!(
                        (digest, h),
                        (reference, hops),
                        "pipeline width {width} diverged from the sequential loop at 2^{lg} (simd {simd})"
                    );
                    best[k][w + 1] = best[k][w + 1].min(nanos);
                }
            }
        }
        let per_hop = |nanos: u64| nanos as f64 / hops.max(1) as f64;
        let last = kernels.len() - 1;
        for row in 0..=WIDTH_SWEEP.len() {
            let width = if row == 0 {
                "seq".to_string()
            } else {
                WIDTH_SWEEP[row - 1].to_string()
            };
            let simd_ns = if detected.is_simd() {
                format!("{:.2}", per_hop(best[1][row]))
            } else {
                "-".to_string()
            };
            let versus = best[last][1] as f64 / best[last][row] as f64;
            println!(
                "{:<8} {:>6} {:>7}   {:>14.2} {:>14} {:>14.1} {:>8.2}x",
                nodes,
                links,
                width,
                per_hop(best[0][row]),
                simd_ns,
                best[last][row] as f64 / queries as f64,
                versus,
            );
            cells.push(format!(
                concat!(
                    "{{\"nodes\":{},\"links\":{},\"width\":\"{}\",\"scalar_ns_per_hop\":{:.3},",
                    "\"ns_per_hop\":{:.3},\"ns_per_lookup\":{:.1},\"speedup_vs_width1\":{:.3},",
                    "\"hops\":{}}}"
                ),
                nodes,
                links,
                width,
                per_hop(best[0][row]),
                per_hop(best[last][row]),
                best[last][row] as f64 / queries as f64,
                versus,
                hops,
            ));
        }
    }
    cells
}
