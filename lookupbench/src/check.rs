//! The checker: recomputes every lookup of a round on the topology the round
//! routed, before that topology moves, and judges each answer.
//!
//! - A first attempt is recomputed as the live-graph walk
//!   `NetworkView::route_seeded(s, t, seed_for_trial(batch_seed, i))`.
//! - Retries are recomputed as the engine documents them: attempt `k` routes with
//!   seed `seed_for_trial(first_seed, k)`, and a deterministic fault strategy is
//!   escalated to random re-route so the retry explores another path. The frozen
//!   kernel draws from a `SmallRng`, and frozen and live walks consume randomness
//!   identically, so the live `Router` with a `SmallRng` reproduces them.
//! - A lookup that was not delivered although [`ConnectivityOracle`] proves its
//!   pair connected is a failure, like a wrong answer.
//!
//! The checker never runs inside a timed region.

use faultline_core::overlay::NodeId;
use faultline_core::routing::{FaultStrategy, Router};
use faultline_core::sim::seed_for_trial;
use faultline_core::NetworkView;
use faultline_engine::{QueryBatch, QueryOutcome};
use faultline_theory::ConnectivityOracle;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A fault in the engine's report itself, as opposed to a wrong answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The report holds a different number of outcomes than the batch has pairs.
    CountMismatch {
        /// Round of the batch.
        round: u32,
        /// Pairs submitted.
        expected: usize,
        /// Outcomes returned.
        got: usize,
    },
    /// Outcome `index` answers a different pair than the batch submitted.
    MissingOutcome {
        /// Round of the batch.
        round: u32,
        /// Query index in the batch.
        index: usize,
    },
    /// A pass that must repeat the checked pass's rounds produced other outcomes.
    DigestMismatch {
        /// Which pass diverged.
        pass: &'static str,
        /// First round whose digest differs.
        round: u32,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::CountMismatch {
                round,
                expected,
                got,
            } => write!(
                f,
                "round {round}: {got} outcomes returned for {expected} lookups"
            ),
            Fault::MissingOutcome { round, index } => {
                write!(f, "round {round}: no outcome for lookup {index}")
            }
            Fault::DigestMismatch { pass, round } => write!(
                f,
                "round {round}: the {pass} pass's outcomes differ from the checked pass"
            ),
        }
    }
}

/// What the checker found in one batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Lookups checked.
    pub attempted: u64,
    /// Answers that differ from the recomputed lookup.
    pub wrong: u64,
    /// Correct but undelivered answers whose pair the oracle proves connected.
    pub undelivered_survivable: u64,
    /// `hop_counts[h]`: lookups whose recomputed walk was delivered in `h` hops.
    /// For a verified answer this is the engine's hop count; a wrong answer adds
    /// the hops its lookup really takes, so the hop statistics describe the
    /// traffic, and wrong answers show in [`Verdict::wrong`] instead.
    pub hop_counts: Vec<u64>,
    /// Recomputed hops summed over every attempt, retries included.
    pub messages: u64,
    /// Answers served from the route cache.
    pub cached: u64,
    /// Cached answers equal to the recomputed lookup.
    pub cached_correct: u64,
    /// Lookups that needed more than one attempt.
    pub retried: u64,
    /// Retried lookups that were delivered.
    pub retried_delivered: u64,
}

impl Verdict {
    /// Failed lookups: wrong answers plus survivable undelivered ones.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.wrong + self.undelivered_survivable
    }

    /// Lookups whose answer the checker accepted.
    #[must_use]
    pub fn verified(&self) -> u64 {
        self.attempted - self.failed()
    }

    /// Adds `other`'s counts to this verdict.
    pub fn absorb(&mut self, other: &Verdict) {
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.undelivered_survivable += other.undelivered_survivable;
        if self.hop_counts.len() < other.hop_counts.len() {
            self.hop_counts.resize(other.hop_counts.len(), 0);
        }
        for (mine, theirs) in self.hop_counts.iter_mut().zip(&other.hop_counts) {
            *mine += theirs;
        }
        self.messages += other.messages;
        self.cached += other.cached;
        self.cached_correct += other.cached_correct;
        self.retried += other.retried;
        self.retried_delivered += other.retried_delivered;
    }
}

/// The lookup facts the checker compares: everything an outcome reports except
/// its wall time and whether it came from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Answer {
    delivered: bool,
    hops: u64,
    recoveries: u64,
    attempts: u32,
    total_hops: u64,
}

impl From<&QueryOutcome> for Answer {
    fn from(o: &QueryOutcome) -> Self {
        Self {
            delivered: o.delivered,
            hops: o.hops,
            recoveries: o.recoveries,
            attempts: o.attempts,
            total_hops: o.total_hops,
        }
    }
}

/// The router a retry uses, as `FailureSchedule::retries` documents it.
fn diversified(router: Router) -> Router {
    match router.strategy() {
        FaultStrategy::RandomReroute { .. } => router,
        _ => router.with_strategy(FaultStrategy::RandomReroute { max_attempts: 2 }),
    }
}

/// Recomputes lookup `index` of a batch seeded `batch_seed`, with `retry_budget`
/// retries after an undelivered first attempt.
fn reference(
    view: NetworkView<'_>,
    batch_seed: u64,
    index: usize,
    retry_budget: u32,
    (source, target): (NodeId, NodeId),
) -> Answer {
    let first_seed = seed_for_trial(batch_seed, index as u64);
    let first = view.route_seeded(source, target, first_seed);
    let mut answer = Answer {
        delivered: first.is_delivered(),
        hops: first.hops,
        recoveries: first.recoveries,
        attempts: 1,
        total_hops: first.hops,
    };
    let retry_router = diversified(view.router());
    while !answer.delivered && answer.attempts <= retry_budget {
        let seed = seed_for_trial(first_seed, u64::from(answer.attempts));
        let mut rng = SmallRng::seed_from_u64(seed);
        let retry = retry_router.route(view.graph(), source, target, &mut rng);
        answer.delivered = retry.is_delivered();
        answer.hops = retry.hops;
        answer.recoveries = retry.recoveries;
        answer.attempts += 1;
        answer.total_hops += retry.hops;
    }
    answer
}

/// Checks every outcome of `batch` (round `round`) against the live topology
/// `view`, on `threads` scoped threads.
///
/// # Errors
///
/// Returns a [`Fault`] when the report is structurally broken: the outcome count
/// differs from the batch size, or an outcome answers another pair.
pub fn check_batch(
    view: NetworkView<'_>,
    batch: &QueryBatch,
    outcomes: &[QueryOutcome],
    retry_budget: u32,
    threads: usize,
    round: u32,
) -> Result<Verdict, Fault> {
    if outcomes.len() != batch.len() {
        return Err(Fault::CountMismatch {
            round,
            expected: batch.len(),
            got: outcomes.len(),
        });
    }
    if let Some(index) = batch
        .pairs()
        .iter()
        .zip(outcomes)
        .position(|(&(s, t), o)| o.source != s || o.target != t)
    {
        return Err(Fault::MissingOutcome { round, index });
    }
    let chunk = batch.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<(Verdict, Vec<usize>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..batch.len())
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(batch.len());
                scope.spawn(move || check_range(view, batch, outcomes, retry_budget, start..end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a checker thread panicked"))
            .collect()
    });
    let mut verdict = Verdict::default();
    let mut undelivered = Vec::new();
    for (part, pending) in &parts {
        verdict.absorb(part);
        undelivered.extend_from_slice(pending);
    }
    if !undelivered.is_empty() {
        let graph = view.graph();
        let oracle = ConnectivityOracle::build(
            u32::try_from(graph.len()).expect("the overlay fits u32 labels"),
            |p| graph.is_alive(u64::from(p)),
            |p| graph.usable_neighbors(u64::from(p)).map(|q| q as u32),
        );
        for index in undelivered {
            let (s, t) = batch.pairs()[index];
            if oracle.survivable(s as u32, t as u32) {
                verdict.undelivered_survivable += 1;
            }
        }
    }
    Ok(verdict)
}

/// Checks `range` of the batch; returns the counts and the indices of correct but
/// undelivered answers, which still need the oracle.
fn check_range(
    view: NetworkView<'_>,
    batch: &QueryBatch,
    outcomes: &[QueryOutcome],
    retry_budget: u32,
    range: std::ops::Range<usize>,
) -> (Verdict, Vec<usize>) {
    let mut verdict = Verdict::default();
    let mut undelivered = Vec::new();
    for index in range {
        let outcome = &outcomes[index];
        let expected = reference(
            view,
            batch.seed(),
            index,
            retry_budget,
            batch.pairs()[index],
        );
        let correct = Answer::from(outcome) == expected;
        verdict.attempted += 1;
        verdict.messages += expected.total_hops;
        if expected.delivered {
            let hops = expected.hops as usize;
            if verdict.hop_counts.len() <= hops {
                verdict.hop_counts.resize(hops + 1, 0);
            }
            verdict.hop_counts[hops] += 1;
        }
        if outcome.cached {
            verdict.cached += 1;
            verdict.cached_correct += u64::from(correct);
        }
        if outcome.attempts > 1 {
            verdict.retried += 1;
            verdict.retried_delivered += u64::from(outcome.delivered);
        }
        if !correct {
            verdict.wrong += 1;
        } else if !outcome.delivered {
            undelivered.push(index);
        }
    }
    (verdict, undelivered)
}
