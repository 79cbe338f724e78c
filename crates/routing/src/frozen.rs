//! The frozen fast path: greedy routing over a compiled [`FrozenRoutes`] snapshot.
//!
//! [`Router::route`] walks the mutable overlay: every hop scans `Vec<Link>` records and
//! dereferences each target's node record to check liveness — a cache miss per link.
//! [`Router::route_frozen`] runs the *same algorithm* over the CSR snapshot instead:
//! the inner loop is a contiguous `u32` scan with the metric distance inlined per
//! geometry (monomorphised, no `Geometry` dispatch) and liveness pre-filtered at freeze
//! time. All per-route state lives in a caller-owned [`RouteScratch`], so a worker that
//! routes millions of queries performs **zero heap allocations per query** — buffers
//! are cleared, never dropped.
//!
//! The two paths are contractually bit-identical: same greedy modes, same fault
//! strategies (terminate / random re-route / backtrack), same RNG consumption, same
//! [`RouteResult`] — property-tested in `tests/frozen_equivalence.rs`. The only
//! difference is that the frozen path reads the topology as of the snapshot, which is
//! exactly the "routing epoch" semantics the query engine wants: maintenance mutates
//! the graph, then the epoch's typed delta is patched into the snapshot
//! (`FrozenRoutes::apply_delta`) before the next epoch routes.
//!
//! The walk itself is one resumable state and a one-hop `step`. [`Router::route_frozen`]
//! steps one walk to the end; [`WalkPipeline`] keeps several walks in flight and
//! steps them round-robin, prefetching each walk's next row after its hop, so a
//! worker overlaps the row fetches that a single walk would wait on one after
//! another. Both run the same `step`, so they cannot drift apart.

use crate::greedy::GreedyMode;
use crate::result::{FailureReason, RouteOutcome, RouteResult};
use crate::simd::{prefetch_row, KernelIsa};
use crate::strategy::FaultStrategy;
use crate::Router;
use faultline_overlay::{FrozenRoutes, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;

/// Reusable per-worker buffers for [`Router::route_frozen`].
///
/// One scratch per worker thread is enough; routing clears the buffers but keeps their
/// capacity, so after warm-up no query allocates. By default the visited-node sequence
/// of the most recent route is recorded (as cheap `u32` pushes) and available through
/// [`RouteScratch::path`]; callers that never read it — the engine when its route
/// cache is disabled — can switch recording off with
/// [`RouteScratch::with_path_recording`] and save the per-hop store.
///
/// The scratch also carries the resolved distance-scan kernel ([`KernelIsa`]):
/// runtime SIMD dispatch is decided once at construction (cpuid + the
/// `FAULTLINE_FORCE_SCALAR` override), never per hop, so routing stays
/// bit-identical and RNG-exact whichever kernel runs.
#[derive(Debug, Clone)]
pub struct RouteScratch {
    /// Visited nodes of the last route, in order (starts at the source).
    path: Vec<u32>,
    /// Backtracking history window (bounded by the strategy's `history` depth).
    history: Vec<u32>,
    /// Known dead ends, excluded from neighbour selection while backtracking.
    /// Kept **sorted** so membership tests are a binary search instead of a
    /// linear scan.
    dead_ends: Vec<u32>,
    /// Whether to record the visited sequence into `path`.
    record_path: bool,
    /// The distance-scan kernel every route through this scratch dispatches to.
    kernel: KernelIsa,
}

impl Default for RouteScratch {
    fn default() -> Self {
        Self {
            path: Vec::new(),
            history: Vec::new(),
            dead_ends: Vec::new(),
            record_path: true,
            kernel: KernelIsa::detect(),
        }
    }
}

impl RouteScratch {
    /// Creates an empty scratch (path recording enabled, kernel auto-detected).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the distance-scan kernel: `false` pins the portable scalar fold,
    /// `true` restores auto-detection ([`KernelIsa::detect`]). The two kernels
    /// are contractually bit-identical — this is an A/B and determinism knob
    /// (`EngineConfig::simd(false)`, the forced-scalar CI lane), not a
    /// behavioural one.
    #[must_use]
    pub fn with_simd(mut self, simd: bool) -> Self {
        self.kernel = if simd {
            KernelIsa::detect()
        } else {
            KernelIsa::scalar()
        };
        self
    }

    /// Pins an explicit, already-resolved kernel (e.g. the one a
    /// `FrozenView`/engine resolved once for all of its workers).
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelIsa) -> Self {
        self.kernel = kernel;
        self
    }

    /// The distance-scan kernel this scratch dispatches to.
    #[must_use]
    pub fn kernel(&self) -> KernelIsa {
        self.kernel
    }

    /// Enables or disables recording of visited nodes into the scratch path buffer
    /// (default: enabled). A router built `with_path_recording(true)` still records —
    /// it needs the sequence to populate the result.
    #[must_use]
    pub fn with_path_recording(mut self, record: bool) -> Self {
        self.record_path = record;
        self
    }

    /// Whether this scratch records the visited sequence into its path buffer.
    #[must_use]
    pub fn records_path(&self) -> bool {
        self.record_path
    }

    /// In-place counterpart of [`RouteScratch::with_path_recording`], for hot paths
    /// that toggle recording per call (the redundant router forces it on for the
    /// adversary scan and restores the caller's setting) without moving the buffers.
    pub fn set_path_recording(&mut self, record: bool) {
        self.record_path = record;
    }

    /// The nodes the most recent route visited, in order (starts at the source).
    /// Empty if the route failed before leaving the source (a dead endpoint) or if
    /// recording is disabled.
    #[must_use]
    pub fn path(&self) -> &[u32] {
        &self.path
    }
}

/// Walks a [`WalkPipeline`] keeps in flight per worker when nothing orders them.
///
/// Each hop's row fetch depends on the previous hop, so one walk at a time waits on
/// memory once the snapshot outgrows the cache. Interleaving independent walks
/// overlaps those waits. Picked from the `route_kernel` width sweep (widths 1, 2,
/// 4, 8 and 16 at 2^14 and at the paper's 2^17 with ℓ = lg n): at 2^17 width 2
/// is clearly slower, widths 4 to 16 sit on one plateau within run-to-run noise,
/// and 8 was the fastest or tied in two of three sweeps.
pub const PIPELINE_WIDTH: usize = 8;

/// One walk for a [`WalkPipeline`] to route: endpoints, the router whose mode and
/// fault strategy it walks with, the seed of its own [`SmallRng`], and a caller tag
/// handed back with its result.
#[derive(Debug, Clone, Copy)]
pub struct Walk<T> {
    /// Routing configuration of this walk.
    pub router: Router,
    /// Where the walk starts.
    pub source: NodeId,
    /// Where it is headed.
    pub target: NodeId,
    /// Seed of the walk's `SmallRng` — the stream [`Router::route_frozen`] would
    /// consume given `SmallRng::seed_from_u64(seed)`.
    pub seed: u64,
    /// Caller state carried through the pipeline untouched.
    pub tag: T,
}

/// The source and sink of a [`WalkPipeline`] run.
pub trait WalkFeed {
    /// What the caller attaches to each walk.
    type Tag: Copy;

    /// The next walk to start, or `None` once the feed has no more. Called
    /// whenever a lane is free and [`WalkFeed::finish`] named no follow-on walk.
    fn admit(&mut self) -> Option<Walk<Self::Tag>>;

    /// Receives a finished walk: its tag, its result, the scratch it ran in
    /// (whose [`RouteScratch::path`] is that walk's visited sequence when
    /// recording) and its RNG as the walk left it. A returned walk starts at once
    /// in the same lane, ahead of any newly admitted one — the way a caller
    /// chains retries of one lookup.
    fn finish(
        &mut self,
        tag: Self::Tag,
        result: &RouteResult,
        scratch: &RouteScratch,
        rng: &SmallRng,
    ) -> Option<Walk<Self::Tag>>;
}

/// Routes many independent walks over one snapshot, several at a time.
///
/// The pipeline has a fixed number of lanes, each with its own [`RouteScratch`]
/// and, while busy, one walk with its own RNG. [`WalkPipeline::run`] advances the
/// live walks round-robin, one hop each, and after every hop prefetches the row
/// that walk reads next, so its fetch overlaps the other lanes' work. Every walk
/// takes the same hops through the same `step` as [`Router::route_frozen`] with
/// `SmallRng::seed_from_u64(seed)`: results, scratch paths and RNG consumption
/// are identical at any width; only the order in which walks finish differs.
/// Width 1 is the sequential loop, feed calls included, in the same order.
#[derive(Debug)]
pub struct WalkPipeline<T> {
    lanes: Vec<Lane<T>>,
}

#[derive(Debug)]
struct Lane<T> {
    scratch: RouteScratch,
    walk: Option<InFlight<T>>,
}

#[derive(Debug)]
struct InFlight<T> {
    state: WalkState,
    rng: SmallRng,
    tag: T,
}

impl<T> WalkPipeline<T> {
    /// A pipeline of `width` lanes (at least one), each with a copy of `scratch`
    /// — its kernel and path-recording setting included.
    #[must_use]
    pub fn new(width: usize, scratch: &RouteScratch) -> Self {
        Self {
            lanes: (0..width.max(1))
                .map(|_| Lane {
                    scratch: scratch.clone(),
                    walk: None,
                })
                .collect(),
        }
    }
}

// The frozen kernel's zero-allocation contract, enforced two ways: dynamically by the
// counting allocator in tests/zero_alloc.rs, and statically by xlint over this fenced
// region — everything from the metric specialisations to the end of the routing loop
// must not allocate (all per-route state lives in the caller's RouteScratch).
// xlint: begin(no_alloc)

/// A one-dimensional metric specialised at compile time; the frozen kernel is
/// monomorphised per implementation so distance and sidedness are branch-free inlined
/// integer arithmetic.
trait CsrMetric: Copy {
    fn distance(&self, a: u64, b: u64) -> u64;
    fn same_side(&self, current: u64, neighbor: u64, target: u64) -> bool;
}

/// The open line: distance is absolute difference, direction is label order.
#[derive(Clone, Copy)]
struct LineMetric;

impl CsrMetric for LineMetric {
    #[inline(always)]
    fn distance(&self, a: u64, b: u64) -> u64 {
        a.abs_diff(b)
    }

    #[inline(always)]
    fn same_side(&self, current: u64, neighbor: u64, target: u64) -> bool {
        if neighbor == target {
            return true;
        }
        // `offset_between` on the line reports Down iff `from >= to`.
        let down_to_target = current >= target;
        (current >= neighbor) == down_to_target && (neighbor >= target) == down_to_target
    }
}

/// The ring: distance is the shorter arc, direction is the shorter-arc direction with
/// ties broken Down — exactly `RingSpace::offset_between`.
#[derive(Clone, Copy)]
struct RingMetric {
    n: u64,
}

impl RingMetric {
    /// Clockwise (increasing-label, wrapping) distance from `a` to `b`.
    #[inline(always)]
    fn clockwise(&self, a: u64, b: u64) -> u64 {
        if b >= a {
            b - a
        } else {
            self.n - (a - b)
        }
    }

    /// Whether `offset_between(from, to)` reports Down.
    #[inline(always)]
    fn dir_is_down(&self, from: u64, to: u64) -> bool {
        self.clockwise(to, from) <= self.clockwise(from, to)
    }
}

impl CsrMetric for RingMetric {
    #[inline(always)]
    fn distance(&self, a: u64, b: u64) -> u64 {
        let cw = self.clockwise(a, b);
        cw.min(self.n - cw)
    }

    #[inline(always)]
    fn same_side(&self, current: u64, neighbor: u64, target: u64) -> bool {
        if neighbor == target {
            return true;
        }
        let down_to_target = self.dir_is_down(current, target);
        self.dir_is_down(current, neighbor) == down_to_target
            && self.dir_is_down(neighbor, target) == down_to_target
    }
}

/// The best usable next hop out of `current` in the CSR snapshot: strictly closer to
/// the target than `current_distance`, not excluded, one-sided if requested; ties
/// broken towards the smaller label. Mirrors `greedy::best_neighbor` over the frozen
/// adjacency and returns `(new_distance, node)` so the caller can carry the distance
/// forward instead of recomputing it every hop.
///
/// Candidates are packed as `(distance << 32) | label`: the lexicographic minimum of
/// `(distance, label)` — the classic tie-break — is the numeric minimum of the packed
/// key (labels are `u32` and distances fit 32 bits because the space is `u32`-indexed).
/// Seeding the running minimum with `current_distance << 32` folds the strict-progress
/// test into the same comparison: any neighbour at distance ≥ `current_distance` packs
/// to a key ≥ the seed and is ignored. The hot loop is therefore one distance, one
/// compare and one conditional move per contiguous `u32` neighbour — no branches to
/// mispredict — and, because an unsigned minimum is order-independent, the same fold
/// runs eight labels at a time on a SIMD [`KernelIsa`] over the lane-padded physical
/// row ([`FrozenRoutes::neighbors_padded`]), bit-identical to the scalar scan.
///
/// The SIMD fast path covers exactly the unfiltered branch (two-sided, nothing
/// excluded) — the overwhelmingly common case — on rows at least two vector
/// steps long; shorter rows, one-sided and exclusion-filtered scans stay scalar
/// over the trimmed logical row. `excluded` must be sorted
/// ascending (the scratch keeps `dead_ends` that way): membership is a binary
/// search.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn best_neighbor_csr<M: CsrMetric>(
    metric: M,
    kernel: KernelIsa,
    frozen: &FrozenRoutes,
    current: u64,
    current_distance: u64,
    target: u64,
    one_sided: bool,
    excluded: &[u32],
) -> Option<(u64, u64)> {
    let limit = current_distance << 32;
    let mut best = limit;
    if !one_sided && excluded.is_empty() {
        let padded = frozen.neighbors_padded(current);
        if kernel.is_simd() && padded.len() >= crate::simd::MIN_SCAN_LEN {
            best = kernel.scan(padded, frozen.is_ring(), frozen.len(), target, limit);
        } else {
            for &neighbor in frozen.neighbors(current) {
                let key =
                    (metric.distance(u64::from(neighbor), target) << 32) | u64::from(neighbor);
                best = best.min(key);
            }
        }
    } else {
        for &neighbor in frozen.neighbors(current) {
            if excluded.binary_search(&neighbor).is_ok() {
                continue;
            }
            if one_sided && !metric.same_side(current, u64::from(neighbor), target) {
                continue;
            }
            let key = (metric.distance(u64::from(neighbor), target) << 32) | u64::from(neighbor);
            best = best.min(key);
        }
    }
    (best < limit).then_some((best >> 32, best & u64::from(u32::MAX)))
}

/// Picks a uniformly random alive node different from `other`, consuming randomness
/// exactly as `router::random_alive_node` does (64 rejection draws over the full space,
/// then one indexed draw over the alive list) — but with no per-query allocation: the
/// exact fallback indexes the snapshot's pre-sorted alive list directly.
fn random_alive_frozen<R: Rng + ?Sized>(
    frozen: &FrozenRoutes,
    other: NodeId,
    rng: &mut R,
) -> Option<NodeId> {
    let n = frozen.len();
    for _ in 0..64 {
        let candidate = rng.gen_range(0..n);
        if candidate != other && frozen.is_alive(candidate) {
            return Some(candidate);
        }
    }
    let alive = frozen.alive_sorted();
    let other_index = u32::try_from(other)
        .ok()
        .and_then(|o| alive.binary_search(&o).ok());
    let candidates = alive.len() - usize::from(other_index.is_some());
    if candidates == 0 {
        return None;
    }
    let drawn = rng.gen_range(0..candidates);
    let index = match other_index {
        Some(skip) if drawn >= skip => drawn + 1,
        _ => drawn,
    };
    Some(u64::from(alive[index]))
}

/// Resumable state of one greedy walk over a frozen snapshot: everything the hop
/// loop carries from one hop to the next. [`WalkState::start`] checks the
/// endpoints and resets the scratch, [`WalkState::step`] advances one hop (or
/// applies the fault strategy once), and [`WalkState::finish`] turns the final
/// outcome into a [`RouteResult`]. [`Router::route_frozen`] runs one walk start to
/// finish; [`WalkPipeline`] round-robins several over the same `step`.
#[derive(Debug, Clone, Copy)]
struct WalkState {
    router: Router,
    target: u64,
    current: u64,
    /// Metric distance from `current` to `target`, carried instead of recomputed.
    distance: u64,
    hops: u64,
    recoveries: u64,
    max_hops: u64,
    reroutes_used: u32,
    /// The backtracking history window (0 unless the strategy backtracks).
    backtrack_depth: usize,
    one_sided: bool,
    /// Whether visited nodes are pushed into the scratch path.
    record: bool,
}

impl WalkState {
    /// Starts a walk from `source`: resets the scratch buffers and records the
    /// source. Breaks with the final result when the walk is over before its
    /// first hop (a dead endpoint, or `source == target`).
    #[inline(always)]
    fn start<M: CsrMetric>(
        router: Router,
        metric: M,
        frozen: &FrozenRoutes,
        source: NodeId,
        target: NodeId,
        scratch: &mut RouteScratch,
    ) -> ControlFlow<RouteResult, Self> {
        let record_path = router.records_path();
        scratch.path.clear();
        if !frozen.is_alive(source) {
            return ControlFlow::Break(RouteResult::immediate_failure(
                FailureReason::DeadSource,
                record_path,
            ));
        }
        if !frozen.is_alive(target) {
            return ControlFlow::Break(RouteResult::immediate_failure(
                FailureReason::DeadTarget,
                record_path,
            ));
        }
        scratch.history.clear();
        scratch.dead_ends.clear();
        let walk = Self {
            router,
            target,
            current: source,
            distance: metric.distance(source, target),
            hops: 0,
            recoveries: 0,
            max_hops: router.max_hops().unwrap_or(4 * frozen.len() + 16),
            reroutes_used: 0,
            backtrack_depth: match router.strategy() {
                FaultStrategy::Backtrack { history } => history,
                _ => 0,
            },
            one_sided: router.mode() == GreedyMode::OneSided,
            // The router-level flag needs the visited sequence to build the result path.
            record: scratch.record_path || record_path,
        };
        if walk.record {
            scratch.path.push(source as u32);
        }
        if source == target {
            return ControlFlow::Break(walk.finish(RouteOutcome::Delivered, scratch));
        }
        ControlFlow::Continue(walk)
    }

    /// Advances the walk by one hop: to the best usable neighbour, or — at a dead
    /// end — wherever the fault strategy sends it. Returns the final outcome once
    /// the walk is over (delivered, stuck, or out of hop budget), `None` while it
    /// goes on. Only the random re-route strategy draws from `rng`.
    #[inline(always)]
    fn step<M: CsrMetric, R: Rng + ?Sized>(
        &mut self,
        metric: M,
        frozen: &FrozenRoutes,
        rng: &mut R,
        scratch: &mut RouteScratch,
    ) -> Option<RouteOutcome> {
        if self.hops >= self.max_hops {
            return Some(RouteOutcome::Failed(FailureReason::HopLimit));
        }
        let excluded: &[u32] = if self.backtrack_depth > 0 {
            &scratch.dead_ends
        } else {
            &[]
        };
        if let Some((next_distance, next)) = best_neighbor_csr(
            metric,
            scratch.kernel,
            frozen,
            self.current,
            self.distance,
            self.target,
            self.one_sided,
            excluded,
        ) {
            if self.backtrack_depth > 0 {
                if scratch.history.len() == self.backtrack_depth {
                    scratch.history.remove(0);
                }
                scratch.history.push(self.current as u32);
            }
            self.current = next;
            self.distance = next_distance;
        } else {
            // Dead end: no usable neighbour is closer to the target.
            let stuck = Some(RouteOutcome::Failed(FailureReason::Stuck));
            match self.router.strategy() {
                FaultStrategy::Terminate => return stuck,
                FaultStrategy::RandomReroute { max_attempts } => {
                    if self.reroutes_used >= max_attempts {
                        return stuck;
                    }
                    self.reroutes_used += 1;
                    self.recoveries += 1;
                    match random_alive_frozen(frozen, self.current, rng) {
                        Some(node) => self.current = node,
                        None => return stuck,
                    }
                }
                FaultStrategy::Backtrack { .. } => {
                    self.recoveries += 1;
                    // Sorted insert keeps the exclusion check in
                    // `best_neighbor_csr` a binary search; membership is all
                    // that matters, so ordering changes no result.
                    let dead = self.current as u32;
                    if let Err(position) = scratch.dead_ends.binary_search(&dead) {
                        scratch.dead_ends.insert(position, dead);
                    }
                    match scratch.history.pop() {
                        Some(prev) => self.current = u64::from(prev),
                        None => return stuck,
                    }
                }
            }
            self.distance = metric.distance(self.current, self.target);
        }
        self.hops += 1;
        if self.record {
            scratch.path.push(self.current as u32);
        }
        (self.current == self.target).then_some(RouteOutcome::Delivered)
    }

    /// The walk's [`RouteResult`] under `outcome`.
    fn finish(&self, outcome: RouteOutcome, scratch: &RouteScratch) -> RouteResult {
        let record_path = self.router.records_path();
        RouteResult {
            outcome,
            hops: self.hops,
            recoveries: self.recoveries,
            // xlint: allow(no_alloc) -- the result path is opt-in: only a router built with_path_recording(true) reaches this collect, and the counting-allocator test pins the recording-off hot path at zero allocations
            path: record_path.then(|| scratch.path.iter().map(|&p| u64::from(p)).collect()),
        }
    }
}

impl Router {
    /// Routes one message over a compiled snapshot — the zero-allocation fast path.
    ///
    /// Produces a bit-identical [`RouteResult`] to [`Router::route`] on the graph the
    /// snapshot was frozen from, for every greedy mode and fault strategy, provided the
    /// same RNG state is supplied (randomness is consumed identically; only the random
    /// re-route strategy draws any). All working memory comes from `scratch`, which is
    /// reused across calls; the result's `path` field is only populated (and only then
    /// allocates) when the router was built `with_path_recording(true)` — callers on
    /// the hot path read [`RouteScratch::path`] instead.
    pub fn route_frozen<R: Rng + ?Sized>(
        &self,
        frozen: &FrozenRoutes,
        source: NodeId,
        target: NodeId,
        rng: &mut R,
        scratch: &mut RouteScratch,
    ) -> RouteResult {
        if frozen.is_ring() {
            let metric = RingMetric { n: frozen.len() };
            self.route_frozen_impl(metric, frozen, source, target, rng, scratch)
        } else {
            self.route_frozen_impl(LineMetric, frozen, source, target, rng, scratch)
        }
    }

    fn route_frozen_impl<M: CsrMetric, R: Rng + ?Sized>(
        &self,
        metric: M,
        frozen: &FrozenRoutes,
        source: NodeId,
        target: NodeId,
        rng: &mut R,
        scratch: &mut RouteScratch,
    ) -> RouteResult {
        let mut walk = match WalkState::start(*self, metric, frozen, source, target, scratch) {
            ControlFlow::Continue(walk) => walk,
            ControlFlow::Break(result) => return result,
        };
        loop {
            if let Some(outcome) = walk.step(metric, frozen, rng, scratch) {
                return walk.finish(outcome, scratch);
            }
        }
    }
}

impl<T: Copy> WalkPipeline<T> {
    /// Routes every walk `feed` admits over `frozen`, keeping up to one per lane
    /// in flight. Round-robin, each live walk
    /// advances one hop and then prefetches the row its next hop reads; a lane
    /// whose walk finishes takes the feed's follow-on walk, else the next
    /// admitted one. Returns once the feed is exhausted and every walk is done.
    pub fn run<F: WalkFeed<Tag = T>>(&mut self, frozen: &FrozenRoutes, feed: &mut F) {
        if frozen.is_ring() {
            let metric = RingMetric { n: frozen.len() };
            self.run_impl(metric, frozen, feed);
        } else {
            self.run_impl(LineMetric, frozen, feed);
        }
    }

    fn run_impl<M: CsrMetric, F: WalkFeed<Tag = T>>(
        &mut self,
        metric: M,
        frozen: &FrozenRoutes,
        feed: &mut F,
    ) {
        let mut live = 0usize;
        for lane in &mut self.lanes {
            live += usize::from(lane.launch(None, metric, frozen, feed));
        }
        while live > 0 {
            for lane in &mut self.lanes {
                let Some(walk) = lane.walk.as_mut() else {
                    continue;
                };
                let Some(outcome) =
                    walk.state
                        .step(metric, frozen, &mut walk.rng, &mut lane.scratch)
                else {
                    prefetch_row(frozen.neighbors_padded(walk.state.current));
                    continue;
                };
                let result = walk.state.finish(outcome, &lane.scratch);
                let follow_on = feed.finish(walk.tag, &result, &lane.scratch, &walk.rng);
                lane.walk = None;
                if !lane.launch(follow_on, metric, frozen, feed) {
                    live -= 1;
                }
            }
        }
    }
}

impl<T: Copy> Lane<T> {
    /// Starts `pending` (or, without one, the feed's next admitted walk) in this
    /// lane and prefetches its source row. Walks that finish before their first hop
    /// are reported straight back to the feed, so this keeps going until a walk is
    /// in flight (`true`) or the feed has nothing left (`false`).
    #[inline(always)]
    fn launch<M: CsrMetric, F: WalkFeed<Tag = T>>(
        &mut self,
        mut pending: Option<Walk<T>>,
        metric: M,
        frozen: &FrozenRoutes,
        feed: &mut F,
    ) -> bool {
        loop {
            let Some(walk) = pending.take().or_else(|| feed.admit()) else {
                return false;
            };
            let rng = SmallRng::seed_from_u64(walk.seed);
            match WalkState::start(
                walk.router,
                metric,
                frozen,
                walk.source,
                walk.target,
                &mut self.scratch,
            ) {
                ControlFlow::Continue(state) => {
                    prefetch_row(frozen.neighbors_padded(state.current));
                    self.walk = Some(InFlight {
                        state,
                        rng,
                        tag: walk.tag,
                    });
                    return true;
                }
                ControlFlow::Break(result) => {
                    pending = feed.finish(walk.tag, &result, &self.scratch, &rng);
                }
            }
        }
    }
}

// xlint: end(no_alloc)

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_linkdist::InversePowerLaw;
    use faultline_metric::Geometry;
    use faultline_overlay::{GraphBuilder, LinkKind, OverlayGraph};
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

    fn paper_graph(n: u64, ell: usize, seed: u64, ring: bool) -> OverlayGraph {
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

    fn assert_parity(router: Router, graph: &OverlayGraph, pairs: &[(u64, u64)], seed: u64) {
        let frozen = graph.freeze();
        let mut scratch = RouteScratch::new();
        for &(s, t) in pairs {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let classic = router.route(graph, s, t, &mut rng_a);
            let fast = router.route_frozen(&frozen, s, t, &mut rng_b, &mut scratch);
            assert_eq!(classic, fast, "{s}->{t} diverged");
            assert_eq!(
                rng_a.clone().next_u64(),
                rng_b.clone().next_u64(),
                "{s}->{t} consumed different amounts of randomness"
            );
        }
    }

    #[test]
    fn healthy_graph_parity_both_modes_and_geometries() {
        for ring in [false, true] {
            let graph = paper_graph(1 << 10, 6, 3, ring);
            let pairs = [(0u64, 1023u64), (512, 3), (17, 18), (9, 9), (1000, 999)];
            for mode in [GreedyMode::TwoSided, GreedyMode::OneSided] {
                let router = Router::new().with_mode(mode).with_path_recording(true);
                assert_parity(router, &graph, &pairs, 11);
            }
        }
    }

    #[test]
    fn damaged_graph_parity_for_all_strategies() {
        let mut graph = paper_graph(1 << 9, 4, 5, false);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..180 {
            graph.fail_node(rng.gen_range(0..graph.len()));
        }
        let alive = graph.alive_nodes();
        let pairs: Vec<(u64, u64)> = (0..40)
            .map(|_| {
                (
                    alive[rng.gen_range(0..alive.len())],
                    alive[rng.gen_range(0..alive.len())],
                )
            })
            .collect();
        for strategy in [
            FaultStrategy::Terminate,
            FaultStrategy::paper_backtrack(),
            FaultStrategy::RandomReroute { max_attempts: 3 },
        ] {
            let router = Router::new()
                .with_strategy(strategy)
                .with_path_recording(true);
            assert_parity(router, &graph, &pairs, 77);
        }
    }

    #[test]
    fn dead_endpoints_fail_identically() {
        let mut graph = paper_graph(64, 3, 7, false);
        graph.fail_node(5);
        let frozen = graph.freeze();
        let router = Router::new();
        let mut scratch = RouteScratch::new();
        let mut rng = StdRng::seed_from_u64(8);
        let r = router.route_frozen(&frozen, 5, 20, &mut rng, &mut scratch);
        assert_eq!(r.outcome, RouteOutcome::Failed(FailureReason::DeadSource));
        assert!(scratch.path().is_empty());
        let r = router.route_frozen(&frozen, 20, 5, &mut rng, &mut scratch);
        assert_eq!(r.outcome, RouteOutcome::Failed(FailureReason::DeadTarget));
    }

    #[test]
    fn scratch_path_tracks_the_latest_route_without_record_path() {
        let graph = paper_graph(256, 6, 13, false);
        let frozen = graph.freeze();
        let router = Router::new();
        let mut scratch = RouteScratch::new();
        let mut rng = StdRng::seed_from_u64(14);
        let r = router.route_frozen(&frozen, 7, 200, &mut rng, &mut scratch);
        assert!(r.is_delivered());
        assert!(r.path.is_none(), "hot path never allocates a result path");
        assert_eq!(scratch.path().first(), Some(&7));
        assert_eq!(scratch.path().last(), Some(&200));
        assert_eq!(scratch.path().len() as u64, r.hops + 1);
        let r2 = router.route_frozen(&frozen, 250, 1, &mut rng, &mut scratch);
        assert_eq!(scratch.path().len() as u64, r2.hops + 1);
        assert_eq!(scratch.path().first(), Some(&250));
    }

    #[test]
    fn disabling_scratch_recording_changes_the_path_buffer_but_not_the_result() {
        let graph = paper_graph(512, 6, 19, false);
        let frozen = graph.freeze();
        let router = Router::new();
        let mut recording = RouteScratch::new();
        let mut silent = RouteScratch::new().with_path_recording(false);
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        let a = router.route_frozen(&frozen, 3, 400, &mut rng_a, &mut recording);
        let b = router.route_frozen(&frozen, 3, 400, &mut rng_b, &mut silent);
        assert_eq!(a, b);
        assert!(!recording.path().is_empty());
        assert!(silent.path().is_empty());
        // A path-recording router overrides the scratch flag: it needs the sequence.
        let recorder = Router::new().with_path_recording(true);
        let r = recorder.route_frozen(&frozen, 3, 400, &mut rng_a, &mut silent);
        assert_eq!(
            r.path.as_deref().map(<[u64]>::len),
            Some(silent.path().len())
        );
    }

    #[test]
    fn backtracking_recovers_from_the_handbuilt_trap_identically() {
        // Same trap as the classic router's test: 10 routes towards 0, node 3 dead.
        let mut graph = OverlayGraph::fully_populated(Geometry::line(20));
        for p in 0..20u64 {
            if p > 0 {
                graph.add_link(p, p - 1, LinkKind::Ring);
            }
            if p < 19 {
                graph.add_link(p, p + 1, LinkKind::Ring);
            }
        }
        graph.add_link(10, 4, LinkKind::Long);
        graph.add_link(9, 1, LinkKind::Long);
        graph.fail_node(3);
        let pairs = [(10u64, 0u64)];
        for strategy in [FaultStrategy::Terminate, FaultStrategy::paper_backtrack()] {
            let router = Router::new()
                .with_strategy(strategy)
                .with_path_recording(true);
            assert_parity(router, &graph, &pairs, 9);
        }
    }

    #[test]
    fn hop_limit_parity() {
        let graph = paper_graph(1 << 10, 1, 11, false);
        let router = Router::new().with_max_hops(1).with_path_recording(true);
        assert_parity(router, &graph, &[(0, 1023)], 12);
    }
}
