//! Event-by-event maintenance of a constructed overlay (joins and departures).

use crate::poisson::sample_poisson;
use crate::replacement::{ReplacementDecision, ReplacementStrategy};
use faultline_linkdist::{InversePowerLaw, LinkSpec};
use faultline_metric::{Geometry, MetricSpace};
use faultline_overlay::{ChurnDelta, LinkKind, NodeId, OverlayGraph, RowChangeKind};
use rand::Rng;

/// Errors returned by the maintenance operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructionError {
    /// A join was requested for a grid point that already hosts a node.
    AlreadyPresent(NodeId),
    /// A leave was requested for a grid point that hosts no node.
    NotPresent(NodeId),
    /// The requested grid point lies outside the metric space.
    OutOfRange(NodeId),
}

impl std::fmt::Display for ConstructionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstructionError::AlreadyPresent(p) => {
                write!(f, "a node is already present at position {p}")
            }
            ConstructionError::NotPresent(p) => write!(f, "no node is present at position {p}"),
            ConstructionError::OutOfRange(p) => {
                write!(f, "position {p} lies outside the metric space")
            }
        }
    }
}

impl std::error::Error for ConstructionError {}

/// What happened during one node arrival.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct JoinReport {
    /// Position of the new node.
    pub position: NodeId,
    /// Number of outgoing long-distance links the new node created.
    pub outgoing_links: usize,
    /// Number of earlier nodes the new node asked for an incoming link (the Poisson draw).
    pub incoming_requests: u64,
    /// How many of those requests resulted in a link being redirected (or newly created)
    /// towards the new node.
    pub incoming_granted: u64,
    /// Every node whose link table this join mutated: the newcomer itself, the ring
    /// neighbours spliced around it, and each earlier node that redirected a link to it.
    /// Route caches key invalidation off this set.
    pub touched_nodes: Vec<NodeId>,
    /// Typed row-level diffs of the same blast radius: per touched node, its new
    /// usable-neighbour row, liveness, and a change classification, plus the join
    /// event itself. Empty when delta capture is disabled
    /// ([`NetworkMaintainer::delta_capture`]) — `touched_nodes` is always filled.
    pub delta: ChurnDelta,
}

/// What happened during one node departure.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LeaveReport {
    /// Position of the departed node.
    pub position: NodeId,
    /// Number of dangling long-distance links that were re-pointed at fresh targets.
    pub repaired_links: usize,
    /// Number of dangling long-distance links that were dropped (no valid target).
    pub dropped_links: usize,
    /// Every node whose link table this departure mutated: the departed position, the
    /// ring neighbours re-closed around the hole, and each source whose dangling long
    /// link was repaired or dropped. Route caches key invalidation off this set.
    pub touched_nodes: Vec<NodeId>,
    /// Typed row-level diffs of the same blast radius (see [`JoinReport::delta`]):
    /// repaired sources are link-replaced rows, everything else is structural. Empty
    /// when delta capture is disabled.
    pub delta: ChurnDelta,
}

/// Maintains a constructed overlay under joins and departures using the Section 5
/// heuristic.
#[derive(Debug)]
pub struct NetworkMaintainer {
    graph: OverlayGraph,
    sampler: InversePowerLaw,
    ell: usize,
    strategy: ReplacementStrategy,
    capture_deltas: bool,
}

impl NetworkMaintainer {
    /// Creates a maintainer over an initially empty overlay.
    #[must_use]
    pub fn new(geometry: Geometry, ell: usize, strategy: ReplacementStrategy) -> Self {
        Self {
            graph: OverlayGraph::empty(geometry),
            sampler: InversePowerLaw::exponent_one(&geometry),
            ell,
            strategy,
            capture_deltas: true,
        }
    }

    /// Wraps an existing overlay (e.g. one built by the ideal builder) so it can be
    /// maintained incrementally from here on.
    #[must_use]
    pub fn from_graph(graph: OverlayGraph, ell: usize, strategy: ReplacementStrategy) -> Self {
        let geometry = graph.geometry();
        Self {
            graph,
            sampler: InversePowerLaw::exponent_one(&geometry),
            ell,
            strategy,
            capture_deltas: true,
        }
    }

    /// Enables or disables typed row-diff capture in the join/leave reports
    /// (default: enabled).
    ///
    /// Capture walks each touched node's link table once per event to snapshot its
    /// new usable-neighbour row; bulk construction replaying thousands of arrivals
    /// through the maintainer ([`crate::IncrementalBuilder`]) disables it, because
    /// nobody consumes deltas mid-build. With capture off, reports carry an empty
    /// [`ChurnDelta`]; `touched_nodes` is always populated either way.
    #[must_use]
    pub fn delta_capture(mut self, capture: bool) -> Self {
        self.capture_deltas = capture;
        self
    }

    /// Whether join/leave reports carry typed row diffs.
    #[must_use]
    pub fn captures_deltas(&self) -> bool {
        self.capture_deltas
    }

    /// The maintained overlay.
    #[must_use]
    pub fn graph(&self) -> &OverlayGraph {
        &self.graph
    }

    /// Consumes the maintainer and returns the overlay.
    #[must_use]
    pub fn into_graph(self) -> OverlayGraph {
        self.graph
    }

    /// Number of long-distance links each node aims to hold.
    #[must_use]
    pub fn links_per_node(&self) -> usize {
        self.ell
    }

    /// The configured replacement strategy.
    #[must_use]
    pub fn strategy(&self) -> ReplacementStrategy {
        self.strategy
    }

    /// Handles the arrival of a node at `position`.
    ///
    /// # Errors
    ///
    /// Returns [`ConstructionError::AlreadyPresent`] if a node already occupies the
    /// position, or [`ConstructionError::OutOfRange`] if the position is not a grid point.
    pub fn join<R: Rng>(
        &mut self,
        position: NodeId,
        rng: &mut R,
    ) -> Result<JoinReport, ConstructionError> {
        let n = self.graph.geometry().len();
        if position >= n {
            return Err(ConstructionError::OutOfRange(position));
        }
        if self.graph.is_present(position) {
            return Err(ConstructionError::AlreadyPresent(position));
        }
        self.graph.insert_node(position);
        // Per-node change classification, accumulated as the event unfolds; the
        // most severe kind wins when a node plays several roles.
        let mut kinds: Vec<(NodeId, RowChangeKind)> = vec![(position, RowChangeKind::Structural)];
        let (ring_pred, ring_succ) = self.neighbors_around(position);
        // Ring splices rewire the neighbours' rows (length-preserving in the common
        // two-sided case, but membership changes: classified structural).
        kinds.extend(
            [ring_pred, ring_succ]
                .into_iter()
                .flatten()
                .map(|p| (p, RowChangeKind::Structural)),
        );
        self.splice_ring_links(position, ring_pred, ring_succ);

        // (1) Outgoing links: sample ideal sinks, land on the nearest present node.
        let mut outgoing = 0usize;
        if self.graph.present_count() > 1 {
            let sinks = self.sampler.targets(position, self.ell, rng);
            for sink in sinks {
                if let Some(target) = self.graph.nearest_present(sink) {
                    if target != position {
                        self.graph.add_link(position, target, LinkKind::Long);
                        outgoing += 1;
                    }
                }
            }
        }

        // (2) Incoming links: estimate how many links should end here and invite earlier
        // nodes to redirect one of theirs.
        let mut granted = 0u64;
        let incoming_requests = if self.graph.present_count() > 1 {
            sample_poisson(self.ell as f64, rng)
        } else {
            0
        };
        for _ in 0..incoming_requests {
            let candidate = self.sampler.targets(position, 1, rng)[0];
            let Some(source) = self.graph.nearest_present(candidate) else {
                continue;
            };
            if source == position {
                continue;
            }
            if let Some(kind) = self.invite_redirect(source, position, rng) {
                granted += 1;
                kinds.push((source, kind));
            }
        }
        let mut touched_nodes: Vec<NodeId> = kinds.iter().map(|&(p, _)| p).collect();
        touched_nodes.sort_unstable();
        touched_nodes.dedup();
        let mut delta = self.capture_delta(&kinds);
        if self.capture_deltas {
            delta.push_join(position);
        }

        Ok(JoinReport {
            position,
            outgoing_links: outgoing,
            incoming_requests,
            incoming_granted: granted,
            touched_nodes,
            delta,
        })
    }

    /// Handles the departure (crash or graceful leave) of the node at `position`,
    /// repairing ring links and regenerating dangling long-distance links.
    ///
    /// # Errors
    ///
    /// Returns [`ConstructionError::NotPresent`] if no node occupies the position.
    pub fn leave<R: Rng>(
        &mut self,
        position: NodeId,
        rng: &mut R,
    ) -> Result<LeaveReport, ConstructionError> {
        if !self.graph.is_present(position) {
            return Err(ConstructionError::NotPresent(position));
        }
        let (pred, succ) = self.neighbors_around(position);
        // Collect sources whose long links dangle at the departing node before mutating.
        let dangling: Vec<NodeId> = self
            .graph
            .long_links()
            .filter(|(_, link)| link.target == position)
            .map(|(src, _)| src)
            .collect();
        let ring_sources: Vec<NodeId> = [pred, succ].into_iter().flatten().collect();

        self.graph.remove_node(position);
        for src in ring_sources {
            self.graph.remove_link(src, position, LinkKind::Ring);
        }
        // Re-close the ring around the hole.
        if let (Some(a), Some(b)) = (pred, succ) {
            if a != b {
                self.graph.add_link(a, b, LinkKind::Ring);
                self.graph.add_link(b, a, LinkKind::Ring);
            }
        }

        // (3) Regenerate dangling long links using the same distribution.
        let mut kinds: Vec<(NodeId, RowChangeKind)> = vec![(position, RowChangeKind::Structural)];
        kinds.extend(
            [pred, succ]
                .into_iter()
                .flatten()
                .map(|p| (p, RowChangeKind::Structural)),
        );
        let mut repaired = 0usize;
        let mut dropped = 0usize;
        for src in dangling {
            if !self.graph.is_present(src) {
                continue;
            }
            let fresh = self.sampler.targets(src, 1, rng)[0];
            let new_target = self.graph.nearest_present(fresh).filter(|&t| t != src);
            let kind = match new_target {
                Some(target) => {
                    if self.graph.redirect_long_link(src, position, target) {
                        repaired += 1;
                        // The row keeps its length: one target swapped for another.
                        RowChangeKind::LinkReplaced
                    } else {
                        dropped += 1;
                        RowChangeKind::Structural
                    }
                }
                None => {
                    self.graph.remove_link(src, position, LinkKind::Long);
                    dropped += 1;
                    RowChangeKind::Structural
                }
            };
            kinds.push((src, kind));
        }

        let mut touched_nodes: Vec<NodeId> = kinds.iter().map(|&(p, _)| p).collect();
        touched_nodes.sort_unstable();
        touched_nodes.dedup();
        let mut delta = self.capture_delta(&kinds);
        if self.capture_deltas {
            delta.push_leave(position);
        }

        Ok(LeaveReport {
            position,
            repaired_links: repaired,
            dropped_links: dropped,
            touched_nodes,
            delta,
        })
    }

    /// Snapshots the post-event state of every `(node, kind)` pair into a
    /// [`ChurnDelta`] (merging duplicate roles with most-severe-kind-wins). Rows are
    /// captured *after* the event settles, so a node touched several times within
    /// one event carries its final row. Returns an empty delta when capture is off.
    fn capture_delta(&self, kinds: &[(NodeId, RowChangeKind)]) -> ChurnDelta {
        let mut delta = ChurnDelta::new();
        if !self.capture_deltas {
            return delta;
        }
        for &(p, kind) in kinds {
            delta.record(
                p,
                kind,
                self.graph.is_alive(p),
                self.graph.usable_neighbors(p).map(|q| q as u32).collect(),
            );
        }
        delta
    }

    /// Asks `source` to redirect one of its long links towards `newcomer`. Returns how
    /// the source's row changed when a link now points at the newcomer (`None` when
    /// the source kept its links): [`RowChangeKind::LinkReplaced`] for a
    /// length-preserving redirect, [`RowChangeKind::Structural`] when a fresh link was
    /// added instead.
    fn invite_redirect<R: Rng>(
        &mut self,
        source: NodeId,
        newcomer: NodeId,
        rng: &mut R,
    ) -> Option<RowChangeKind> {
        let geometry = self.graph.geometry();
        let new_distance = geometry.distance(source, newcomer);
        if new_distance == 0 {
            return None;
        }
        let existing: Vec<(NodeId, u64, u64)> = self
            .graph
            .links(source)
            .iter()
            .filter(|l| l.alive && l.is_long())
            .map(|l| {
                (
                    l.target,
                    geometry.distance(source, l.target).max(1),
                    l.birth,
                )
            })
            .collect();
        match self.strategy.decide(&existing, new_distance, rng) {
            ReplacementDecision::Keep => None,
            ReplacementDecision::Redirect { victim } => {
                if victim == NodeId::MAX || !existing.iter().any(|&(t, _, _)| t == victim) {
                    self.graph.add_link(source, newcomer, LinkKind::Long);
                    Some(RowChangeKind::Structural)
                } else if self.graph.redirect_long_link(source, victim, newcomer) {
                    Some(RowChangeKind::LinkReplaced)
                } else {
                    None
                }
            }
        }
    }

    /// Inserts ring links around a freshly added node, replacing the link that previously
    /// spanned the gap. `pred`/`succ` are the node's present neighbours (as returned by
    /// `neighbors_around`), passed in so the caller's population scan is not repeated.
    fn splice_ring_links(&mut self, position: NodeId, pred: Option<NodeId>, succ: Option<NodeId>) {
        match (pred, succ) {
            (Some(a), Some(b)) => {
                if a != b {
                    self.graph.remove_link(a, b, LinkKind::Ring);
                    self.graph.remove_link(b, a, LinkKind::Ring);
                }
                self.graph.add_link(position, a, LinkKind::Ring);
                self.graph.add_link(a, position, LinkKind::Ring);
                if b != a {
                    self.graph.add_link(position, b, LinkKind::Ring);
                    self.graph.add_link(b, position, LinkKind::Ring);
                }
            }
            (Some(a), None) | (None, Some(a)) => {
                self.graph.add_link(position, a, LinkKind::Ring);
                self.graph.add_link(a, position, LinkKind::Ring);
            }
            (None, None) => {}
        }
    }

    /// The present neighbours immediately below and above `position` (excluding the
    /// position itself), wrapping around on a ring.
    fn neighbors_around(&self, position: NodeId) -> (Option<NodeId>, Option<NodeId>) {
        // Two binary searches over the sorted presence list: every join and leave
        // asks, so no per-event copy of the O(n) list.
        let present = self.graph.present_nodes();
        let below = &present[..present.partition_point(|&p| p < position)];
        let above = &present[present.partition_point(|&p| p <= position)..];
        let is_ring = self.graph.geometry().is_ring();
        let pred = below.last().or(above.last().filter(|_| is_ring));
        let succ = above.first().or(below.first().filter(|_| is_ring));
        (pred.copied(), succ.copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn maintainer(n: u64, ell: usize) -> NetworkMaintainer {
        NetworkMaintainer::new(Geometry::line(n), ell, ReplacementStrategy::InverseDistance)
    }

    #[test]
    fn first_join_creates_a_lonely_node() {
        let mut m = maintainer(100, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let report = m.join(50, &mut rng).unwrap();
        assert_eq!(report.outgoing_links, 0);
        assert_eq!(report.incoming_requests, 0);
        assert_eq!(m.graph().present_count(), 1);
    }

    #[test]
    fn duplicate_join_and_bogus_leave_are_errors() {
        let mut m = maintainer(100, 4);
        let mut rng = StdRng::seed_from_u64(1);
        m.join(10, &mut rng).unwrap();
        assert_eq!(
            m.join(10, &mut rng),
            Err(ConstructionError::AlreadyPresent(10))
        );
        assert_eq!(
            m.leave(11, &mut rng),
            Err(ConstructionError::NotPresent(11))
        );
        assert_eq!(
            m.join(1000, &mut rng),
            Err(ConstructionError::OutOfRange(1000))
        );
        assert!(!ConstructionError::AlreadyPresent(10).to_string().is_empty());
    }

    #[test]
    fn ring_links_are_spliced_on_join() {
        let mut m = maintainer(100, 2);
        let mut rng = StdRng::seed_from_u64(2);
        for p in [10u64, 30, 20] {
            m.join(p, &mut rng).unwrap();
        }
        let g = m.graph();
        // After inserting 20 between 10 and 30, ring neighbours must be 10<->20<->30.
        assert!(g.links(10).iter().any(|l| !l.is_long() && l.target == 20));
        assert!(g.links(20).iter().any(|l| !l.is_long() && l.target == 10));
        assert!(g.links(20).iter().any(|l| !l.is_long() && l.target == 30));
        assert!(g.links(30).iter().any(|l| !l.is_long() && l.target == 20));
        // The old 10<->30 ring link has been removed.
        assert!(!g.links(10).iter().any(|l| !l.is_long() && l.target == 30));
        assert!(!g.links(30).iter().any(|l| !l.is_long() && l.target == 10));
    }

    #[test]
    fn joins_create_roughly_ell_outgoing_links() {
        // Random arrival order, as the heuristic assumes ("the hash function populates
        // the metric space evenly"); a strictly sequential order would leave early nodes
        // with no right-hand candidates and systematically depress the degree.
        let mut m = maintainer(1 << 10, 6);
        let mut rng = StdRng::seed_from_u64(3);
        let mut order: Vec<u64> = (0..(1u64 << 10)).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);
        for p in order {
            m.join(p, &mut rng).unwrap();
        }
        let g = m.graph();
        let mean_long: f64 =
            (0..g.len()).map(|p| g.long_degree(p) as f64).sum::<f64>() / g.len() as f64;
        // Outgoing ~ ell (minus dedup) plus redirected incoming links; must be in a sane band.
        assert!(mean_long > 4.0, "mean long degree {mean_long} too low");
        assert!(mean_long < 14.0, "mean long degree {mean_long} too high");
    }

    #[test]
    fn leave_repairs_ring_and_dangling_links() {
        let mut m = maintainer(200, 4);
        let mut rng = StdRng::seed_from_u64(4);
        for p in (0..200).step_by(2) {
            m.join(p, &mut rng).unwrap();
        }
        // Make sure someone links to node 100, then remove it.
        m.graph().long_links().count();
        let report = m.leave(100, &mut rng).unwrap();
        let g = m.graph();
        assert!(!g.is_present(100));
        // Ring re-closed around the hole.
        assert!(g.links(98).iter().any(|l| !l.is_long() && l.target == 102));
        assert!(g.links(102).iter().any(|l| !l.is_long() && l.target == 98));
        // No live link points at the departed node any more.
        assert!(g.long_links().all(|(_, l)| l.target != 100));
        let _ = report.repaired_links + report.dropped_links;
    }

    #[test]
    fn ring_geometry_wraps_ring_links() {
        let mut m = NetworkMaintainer::new(Geometry::ring(64), 2, ReplacementStrategy::Oldest);
        let mut rng = StdRng::seed_from_u64(5);
        for p in [0u64, 20, 40, 60] {
            m.join(p, &mut rng).unwrap();
        }
        let g = m.graph();
        assert!(g.links(0).iter().any(|l| !l.is_long() && l.target == 60));
        assert!(g.links(60).iter().any(|l| !l.is_long() && l.target == 0));
    }

    #[test]
    fn reports_carry_row_diffs_matching_the_mutated_graph() {
        let mut m = maintainer(200, 4);
        let mut rng = StdRng::seed_from_u64(7);
        for p in (0..200).step_by(2) {
            m.join(p, &mut rng).unwrap();
        }
        assert!(m.captures_deltas(), "capture is on by default");
        let report = m.leave(100, &mut rng).unwrap();
        // The delta covers exactly the touched set, logs the event, and every row
        // matches the post-event graph.
        let diffed: Vec<NodeId> = report.delta.changed_nodes().collect();
        assert_eq!(diffed, report.touched_nodes);
        assert_eq!(report.delta.leaves(), &[100]);
        assert!(report.delta.joins().is_empty());
        for rd in report.delta.rows() {
            assert_eq!(rd.alive, m.graph().is_alive(rd.node), "alive {}", rd.node);
            let expected: Vec<u32> = m
                .graph()
                .usable_neighbors(rd.node)
                .map(|q| q as u32)
                .collect();
            assert_eq!(rd.row, expected, "row {}", rd.node);
        }
        // The departed node is a structural change with an empty row.
        let hole = report
            .delta
            .rows()
            .iter()
            .find(|rd| rd.node == 100)
            .expect("the departed node is diffed");
        assert_eq!(hole.kind, RowChangeKind::Structural);
        assert!(!hole.alive);
        assert!(hole.row.is_empty());
        // Repaired sources are link-replaced rows (one target swapped, same length).
        if report.repaired_links > 0 {
            assert!(
                report
                    .delta
                    .rows()
                    .iter()
                    .any(|rd| rd.kind == RowChangeKind::LinkReplaced),
                "repairs must classify as link-replaced: {:?}",
                report.delta.rows()
            );
        }

        let join = m.join(100, &mut rng).unwrap();
        assert_eq!(join.delta.joins(), &[100]);
        let newcomer = join
            .delta
            .rows()
            .iter()
            .find(|rd| rd.node == 100)
            .expect("the newcomer is diffed");
        assert_eq!(newcomer.kind, RowChangeKind::Structural);
        assert!(newcomer.alive);
        assert!(!newcomer.row.is_empty(), "the newcomer links up on arrival");
    }

    #[test]
    fn disabled_capture_leaves_deltas_empty_but_touched_nodes_full() {
        let mut m = maintainer(100, 3).delta_capture(false);
        assert!(!m.captures_deltas());
        let mut rng = StdRng::seed_from_u64(8);
        for p in [10u64, 30, 20, 40] {
            let report = m.join(p, &mut rng).unwrap();
            assert!(report.delta.is_empty(), "capture off ⇒ empty delta");
            assert!(!report.touched_nodes.is_empty());
        }
        let report = m.leave(20, &mut rng).unwrap();
        assert!(report.delta.is_empty());
        assert!(report.touched_nodes.contains(&20));
    }

    #[test]
    fn from_graph_preserves_existing_structure() {
        let mut m = maintainer(100, 3);
        let mut rng = StdRng::seed_from_u64(6);
        for p in (0..100).step_by(5) {
            m.join(p, &mut rng).unwrap();
        }
        let graph = m.into_graph();
        let count_before = graph.present_count();
        let mut m2 = NetworkMaintainer::from_graph(graph, 3, ReplacementStrategy::Oldest);
        m2.join(1, &mut rng).unwrap();
        assert_eq!(m2.graph().present_count(), count_before + 1);
        assert_eq!(m2.strategy(), ReplacementStrategy::Oldest);
        assert_eq!(m2.links_per_node(), 3);
    }
}
