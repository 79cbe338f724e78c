//! Overlay-graph substrate for `faultline`.
//!
//! An overlay graph is the "virtual overlay network of information" of Section 2: a
//! directed random graph whose vertices are metric-space points and whose edges are the
//! links each node knows about. This crate provides:
//!
//! * [`OverlayGraph`] — the graph itself: per-vertex presence/alive state and outgoing
//!   links (ring links to immediate neighbours plus long-distance links), with `O(1)`
//!   failure injection and link mutation.
//! * [`GraphBuilder`] — the *ideal* static construction: every node draws its `ℓ`
//!   long-distance links directly from a [`LinkSpec`](faultline_linkdist::LinkSpec)
//!   (the dynamic, heuristic construction of Section 5 lives in `faultline-construction`).
//! * [`FrozenRoutes`] — a compiled CSR routing snapshot (usable-neighbour adjacency,
//!   alive bitset, inlined distance); the traversal structure the query engine's
//!   uncached hot path runs on. Snapshots are built once per routing epoch and then
//!   *patched* through churn from a typed [`ChurnDelta`] of row-level diffs
//!   ([`FrozenRoutes::apply_delta`] writes diffed rows directly, reusing slots in
//!   place when the new row fits); length-changing rows go to an overflow region,
//!   and tombstoned dense slots are periodically compacted away.
//! * [`ChurnDelta`] — the typed churn diff itself: per-node `old row → new row`
//!   changes classified as liveness-only / link-replaced / structural, plus the
//!   join/leave event log, produced by `faultline-construction`'s maintainer.
//! * [`stats`] — link-length histograms and degree statistics used by the Figure 5
//!   reproduction and by the construction-quality tests.
//!
//! # Example
//!
//! ```
//! use faultline_metric::Geometry;
//! use faultline_linkdist::InversePowerLaw;
//! use faultline_overlay::GraphBuilder;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let geometry = Geometry::line(1 << 10);
//! let spec = InversePowerLaw::exponent_one(&geometry);
//! let mut rng = StdRng::seed_from_u64(42);
//! let graph = GraphBuilder::new(geometry).links_per_node(8).build(&spec, &mut rng);
//! assert_eq!(graph.len(), 1 << 10);
//! assert!(graph.out_degree(512) >= 2); // ring links always present
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod delta;
mod frozen;
mod graph;
mod link;
pub mod stats;

pub use builder::{build_paper_overlay, GraphBuilder};
pub use delta::{ChurnDelta, RowChangeKind, RowDelta};
pub use frozen::{FrozenRoutes, PatchStats, PAD_SENTINEL, SIMD_LANES};
pub use graph::{NodeRecord, OverlayGraph};
pub use link::{Link, LinkKind};

/// Node identifiers are metric-space positions (the paper identifies nodes with their
/// integer labels).
pub type NodeId = faultline_metric::Position;
