//! Helpers shared by the engine's integration tests.

use faultline_core::Network;
use faultline_engine::{BatchReport, QueryBatch};
use faultline_sim::seed_for_trial;

/// `(delivered, hops, recoveries)` per query.
pub type Verdicts = Vec<(bool, u64, u64)>;

/// The oracle for query `i` of `batch`: a walk over the live graph with the seed the
/// engine derives for that query. Under a deterministic fault strategy the engine's
/// uncached outcome must equal it query for query.
pub fn live_oracle(network: &Network, batch: &QueryBatch) -> Verdicts {
    let view = network.view();
    batch
        .pairs()
        .iter()
        .enumerate()
        .map(|(i, &(source, target))| {
            let r = view.route_seeded(source, target, seed_for_trial(batch.seed(), i as u64));
            (r.is_delivered(), r.hops, r.recoveries)
        })
        .collect()
}

/// The engine's verdicts, in batch order.
pub fn verdicts(report: &BatchReport) -> Verdicts {
    report
        .outcomes()
        .iter()
        .map(|o| (o.delivered, o.hops, o.recoveries))
        .collect()
}
