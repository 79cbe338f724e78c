//! [`NetworkView`]: a cheap, thread-shareable read view of a [`Network`].
//!
//! The query engine routes tens of thousands of lookups per tick from many worker
//! threads. [`Network`] itself exposes `&self` routing, but dragging the full type
//! (directory, maintainer, config) across a thread boundary couples readers to
//! mutator-only state. A `NetworkView` borrows exactly what routing needs — the overlay
//! graph and the router configuration — and is `Copy`, so every worker can hold its own.

use crate::network::Network;
use faultline_overlay::{ChurnDelta, FrozenRoutes, NodeId, OverlayGraph, PatchStats};
use faultline_routing::{KernelIsa, RouteResult, RouteScratch, Router};
use faultline_telemetry::Telemetry;
use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};

/// A read-only routing view over a network: the overlay graph plus the router.
///
/// Views are `Copy` and borrow the network immutably, so any number of threads can
/// route over the same overlay concurrently; topology mutation (failures, churn) is
/// excluded by the borrow checker for as long as any view is alive.
#[derive(Debug, Clone, Copy)]
pub struct NetworkView<'a> {
    graph: &'a OverlayGraph,
    router: Router,
}

impl<'a> NetworkView<'a> {
    /// The overlay graph under this view.
    #[must_use]
    pub fn graph(&self) -> &'a OverlayGraph {
        self.graph
    }

    /// The router configuration (greedy mode, fault strategy) this view routes with.
    #[must_use]
    pub fn router(&self) -> Router {
        self.router
    }

    /// Number of grid points in the metric space.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.graph.len()
    }

    /// Returns `true` if the metric space has no points (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Positions of all currently alive nodes, in ascending order.
    #[must_use]
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.graph.alive_nodes()
    }

    /// Routes one message, drawing randomness from the caller's generator.
    pub fn route<R: Rng + ?Sized>(
        &self,
        source: NodeId,
        target: NodeId,
        rng: &mut R,
    ) -> RouteResult {
        self.router.route(self.graph, source, target, rng)
    }

    /// Routes one message with an explicit per-query seed.
    ///
    /// This is the entry point parallel query engines use: deriving the seed from
    /// `(batch_seed, query_index)` makes every query's randomness independent of thread
    /// scheduling, so results are identical at any worker count.
    #[must_use]
    pub fn route_seeded(&self, source: NodeId, target: NodeId, seed: u64) -> RouteResult {
        let mut rng = StdRng::seed_from_u64(seed);
        self.router.route(self.graph, source, target, &mut rng)
    }

    /// Compiles the view into an owned [`FrozenView`] routing snapshot.
    ///
    /// Freezing is `O(nodes + links)` and amortises over a whole batch of queries;
    /// rebuild after each churn epoch to publish the new topology.
    #[must_use]
    pub fn freeze(&self) -> FrozenView {
        FrozenView {
            routes: self.graph.freeze(),
            router: self.router,
            kernel: KernelIsa::detect(),
        }
    }
}

/// An owned, compiled routing snapshot: [`FrozenRoutes`] CSR adjacency plus the router
/// configuration it was frozen with.
///
/// Unlike [`NetworkView`], a `FrozenView` does not borrow the network — it is plain
/// owned data (`Send + Sync`), so the topology can keep mutating while workers route
/// over the snapshot of the previous epoch. Routing through it is the engine's
/// zero-allocation hot path: per-query randomness comes from a counter-based
/// [`SmallRng`] (one 64-bit store to construct, versus the four-word mixed
/// initialisation of `StdRng`), and all working memory lives in the caller's
/// [`RouteScratch`].
#[derive(Debug, Clone)]
pub struct FrozenView {
    routes: FrozenRoutes,
    router: Router,
    /// The distance-scan kernel this snapshot's workers should dispatch to —
    /// resolved once at freeze time (auto-detected, overridable via
    /// [`FrozenView::with_kernel`]) and threaded into each worker's
    /// [`RouteScratch`], never re-detected per hop.
    kernel: KernelIsa,
}

impl FrozenView {
    /// The compiled CSR snapshot.
    #[must_use]
    pub fn routes(&self) -> &FrozenRoutes {
        &self.routes
    }

    /// The router configuration the snapshot routes with.
    #[must_use]
    pub fn router(&self) -> Router {
        self.router
    }

    /// The resolved distance-scan kernel ([`KernelIsa`]) — the engine reads it
    /// to build per-worker scratches and to report the dispatched ISA and lane
    /// width in its benchmark trajectory.
    #[must_use]
    pub fn kernel(&self) -> KernelIsa {
        self.kernel
    }

    /// Same snapshot, dispatching to an explicit kernel ([`KernelIsa::scalar`]
    /// pins the portable fold, the baseline of the scalar A/B arms).
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelIsa) -> Self {
        self.kernel = kernel;
        self
    }

    /// Number of grid points in the frozen space.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.routes.len()
    }

    /// Returns `true` if the frozen space has no points (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Patches the snapshot in place from a typed [`ChurnDelta`] (the merged
    /// maintainer report deltas of a churn epoch): diffed rows are written directly,
    /// with **no** usable-neighbour recompute; see [`FrozenRoutes::apply_delta`] for
    /// the slot-reuse and fallback semantics. `graph` is only read if the structural
    /// blast radius forces the rebuild fallback.
    pub fn apply_delta(&mut self, graph: &OverlayGraph, delta: &ChurnDelta) -> PatchStats {
        self.routes.apply_delta(graph, delta)
    }

    /// [`FrozenView::apply_delta`] with telemetry: times the patch (and any
    /// triggered compaction) and records fallback/compaction events; see
    /// [`FrozenRoutes::apply_delta_with`].
    pub fn apply_delta_with(
        &mut self,
        graph: &OverlayGraph,
        delta: &ChurnDelta,
        telemetry: &Telemetry,
    ) -> PatchStats {
        self.routes.apply_delta_with(graph, delta, telemetry)
    }

    /// Routes one message over the snapshot with an explicit per-query seed.
    ///
    /// The frozen counterpart of [`NetworkView::route_seeded`]: deterministic per
    /// `(seed)` independent of thread scheduling, zero heap allocations per call (the
    /// visited path is available from `scratch` afterwards).
    #[must_use]
    pub fn route_seeded(
        &self,
        source: NodeId,
        target: NodeId,
        seed: u64,
        scratch: &mut RouteScratch,
    ) -> RouteResult {
        let mut rng = SmallRng::seed_from_u64(seed);
        self.router
            .route_frozen(&self.routes, source, target, &mut rng, scratch)
    }
}

impl Network {
    /// A cheap read-only routing view of this network; see [`NetworkView`].
    #[must_use]
    pub fn view(&self) -> NetworkView<'_> {
        NetworkView {
            graph: self.graph(),
            router: self.router(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;

    fn network(n: u64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::build(&NetworkConfig::paper_default(n), &mut rng)
    }

    #[test]
    fn view_routes_like_the_network() {
        let net = network(512, 1);
        let view = net.view();
        let mut a = StdRng::seed_from_u64(2);
        let mut b = StdRng::seed_from_u64(2);
        assert_eq!(view.route(3, 400, &mut a), net.route(3, 400, &mut b));
        assert_eq!(view.len(), 512);
        assert!(!view.is_empty());
        assert_eq!(view.alive_nodes().len(), 512);
    }

    #[test]
    fn seeded_routes_are_reproducible() {
        let net = network(512, 3);
        let view = net.view();
        let a = view.route_seeded(0, 300, 99);
        let b = view.route_seeded(0, 300, 99);
        assert_eq!(a, b);
        assert!(a.is_delivered());
    }

    #[test]
    fn views_are_copy_and_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let net = network(256, 4);
        let view = net.view();
        assert_send_sync(&view);
        let results: Vec<bool> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|i| scope.spawn(move || view.route_seeded(0, 200, i).is_delivered()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(results.into_iter().all(|d| d));
    }

    #[test]
    fn frozen_view_routes_like_the_live_view_on_the_default_strategy() {
        let net = network(512, 6);
        let view = net.view();
        let frozen = view.freeze();
        assert_eq!(frozen.len(), 512);
        assert!(!frozen.is_empty());
        let mut scratch = faultline_routing::RouteScratch::new();
        // Terminate (the default) draws no randomness, so the RNG flavour is irrelevant
        // and frozen results must equal live results query for query.
        for (s, t, seed) in [(3u64, 400u64, 1u64), (400, 3, 2), (0, 511, 3), (7, 7, 4)] {
            let live = view.route_seeded(s, t, seed);
            let fast = frozen.route_seeded(s, t, seed, &mut scratch);
            assert_eq!(live, fast, "{s}->{t}");
        }
    }

    #[test]
    fn frozen_view_is_owned_send_sync_and_outlives_mutation() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let mut net = network(256, 7);
        let frozen = net.view().freeze();
        assert_send_sync(&frozen);
        // Snapshot semantics: the live network can mutate while the frozen epoch routes.
        let mut failure_rng = StdRng::seed_from_u64(8);
        net.apply_failure(
            &faultline_failure::NodeFailure::fraction(1.0),
            &mut failure_rng,
        );
        assert_eq!(net.alive_count(), 0);
        let mut scratch = faultline_routing::RouteScratch::new();
        let r = frozen.route_seeded(0, 200, 9, &mut scratch);
        assert!(r.is_delivered(), "snapshot still routes the frozen epoch");
        assert!(!net.view().freeze().routes().is_alive(200));
    }

    #[test]
    fn path_recording_router_records_over_the_view() {
        let net = network(128, 5);
        let view = net.view();
        let router = view.router().with_path_recording(true);
        let r = router.route(view.graph(), 0, 100, &mut StdRng::seed_from_u64(1));
        let path = r.path.as_ref().expect("path must be recorded");
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&100));
    }
}
