//! Capacity admission: the serve timeline with finite link budgets.
//!
//! This is the capacity-admission *reference*: a direct, per-step
//! Bellman–Ford rendering of the admission rules that production never
//! calls. [`crate::overload::serve_overload`] serves capacity-coupled
//! traffic, and with every overload mechanism disabled it is tested
//! bit-for-bit against this function.
//!
//! Without capacity, arrival groups are independent and serve in
//! parallel. With a [`CapacityModel`], requests attempting the same step
//! contend for the same per-link pair budgets, so the timeline runs
//! *sequentially* in step order — determinism over parallelism here, by
//! design. Within a step, admission order is (priority descending, queue
//! index ascending): strictly deterministic, never a hash-map iteration.
//!
//! Budgets are per step (the model's window is the step length) and keyed
//! by a sorted edge-endpoint table with binary-search lookups — the same
//! discipline the determinism lint enforces on the serve hot path.
//!
//! Routing stays congestion-blind (the paper's metric has no load term)
//! and amortized per distinct source, exactly as in the uncapacitated
//! path; admission only decides whether the routed path may *consume*
//! budget this step. A budget-blocked attempt re-enters the request's own
//! backoff schedule like any routing failure.

use crate::request::RequestQueue;
use qntn_net::capacity::CapacityModel;
use qntn_net::entanglement::realize;
use qntn_net::requests::{RetryOutcome, RetryPolicy};
use qntn_net::{SweepEngine, SweepScratch};
use qntn_routing::{bellman_ford_all_into, route_from_table, RouteMetric};

/// Outcome of a capacity-admitted serve run.
#[derive(Debug, Clone)]
pub struct AdmissionOutcome {
    /// Per accepted request, in queue order.
    pub outcomes: Vec<RetryOutcome>,
    /// Number of attempts deferred because a link budget was exhausted
    /// (each deferral re-enters the backoff schedule).
    pub congestion_deferrals: u64,
    /// Served count, cached at construction (the outcomes are immutable
    /// once assembled, so one scan at build time replaces a scan per
    /// call).
    served: usize,
}

impl AdmissionOutcome {
    /// Assemble an outcome, caching the served count.
    pub fn new(outcomes: Vec<RetryOutcome>, congestion_deferrals: u64) -> AdmissionOutcome {
        let served = outcomes
            .iter()
            .filter(|o| o.distribution().is_some())
            .count();
        AdmissionOutcome {
            outcomes,
            congestion_deferrals,
            served,
        }
    }

    /// Requests served by any attempt (cached; equals the scan over
    /// `outcomes`, pinned by a regression test).
    pub fn served_count(&self) -> usize {
        self.served
    }
}

/// Serve `queue` against per-step link budgets. Sequential over steps;
/// deterministic for a given queue/policy/model.
pub fn serve_with_admission(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
    model: CapacityModel,
) -> AdmissionOutcome {
    let n_steps = engine.sim().steps();
    let n = queue.len();
    let mut outcomes: Vec<Option<RetryOutcome>> = vec![None; n];
    let mut attempts_made = vec![0usize; n];
    // Current backoff offset per request: 0 before the first attempt,
    // then b, 3b, 7b, … (next = 2·offset + b).
    let mut offsets = vec![0usize; n];
    let mut deferrals = 0u64;

    // Agenda: queue indices attempting at each step.
    let mut agenda: Vec<Vec<usize>> = vec![Vec::new(); n_steps];
    for (arrival, range) in queue.groups().iter().cloned() {
        agenda[arrival].extend(range);
    }

    let mut scratch = SweepScratch::default();
    let mut edge_keys: Vec<(usize, usize)> = Vec::new();
    let mut budgets: Vec<f64> = Vec::new();
    let mut bucket: Vec<usize> = Vec::new();
    let max_attempts = policy.max_attempts.max(1);

    for t in 0..n_steps {
        if agenda[t].is_empty() {
            continue;
        }
        bucket.clear();
        bucket.append(&mut agenda[t]);
        engine.active_graph_into(t, &mut scratch);
        let graph = &scratch.active;

        // Fresh per-step budgets over the live edges, binary-searchable.
        edge_keys.clear();
        budgets.clear();
        for (u, v, eta) in graph.edges() {
            edge_keys.push((u.min(v), u.max(v)));
            budgets.push(model.link_budget(eta));
        }
        // `Graph::edges()` yields ascending (u, v); keep the invariant
        // explicit for the binary searches below.
        debug_assert!(edge_keys.windows(2).all(|w| w[0] < w[1]));

        // Route everything first (admission cannot change routes), one
        // SSSP per distinct source.
        bucket.sort_unstable();
        let mut routed: Vec<Option<qntn_routing::Route>> = vec![None; bucket.len()];
        let mut order: Vec<usize> = (0..bucket.len()).collect();
        order.sort_by_key(|&bi| queue.src(bucket[bi]));
        let mut i = 0;
        while i < order.len() {
            let src = queue.src(bucket[order[i]]);
            bellman_ford_all_into(graph, src, metric, &mut scratch.sssp);
            while i < order.len() && queue.src(bucket[order[i]]) == src {
                let bi = order[i];
                routed[bi] =
                    route_from_table(graph, &scratch.sssp, src, queue.dst(bucket[bi]), metric);
                i += 1;
            }
        }

        // Admit in (priority desc, queue index asc) order.
        let mut admit: Vec<usize> = (0..bucket.len()).collect();
        admit.sort_by_key(|&bi| (u8::MAX - queue.priority(bucket[bi]), bucket[bi]));
        for bi in admit {
            let qi = bucket[bi];
            attempts_made[qi] += 1;
            let k = attempts_made[qi];
            let served = routed[bi].take().and_then(|route| {
                let keys: Vec<(usize, usize)> = route
                    .nodes
                    .windows(2)
                    .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
                    .collect();
                let slots: Vec<usize> = keys
                    .iter()
                    .filter_map(|k| edge_keys.binary_search(k).ok())
                    .collect();
                // Every routed hop is a live edge; a lookup miss would
                // mean a corrupt table — treat as unroutable.
                if slots.len() != keys.len() {
                    return None;
                }
                if slots.iter().any(|&s| budgets[s] < 1.0) {
                    deferrals += 1;
                    return None;
                }
                let mut link_etas = Vec::with_capacity(route.nodes.len().saturating_sub(1));
                for w in route.nodes.windows(2) {
                    link_etas.push(graph.eta(w[0], w[1])?);
                }
                for &s in &slots {
                    budgets[s] -= 1.0;
                }
                Some(realize(&route, &link_etas))
            });
            match served {
                Some(d) => {
                    outcomes[qi] = Some(if k == 1 {
                        RetryOutcome::ServedFirstTry(d)
                    } else {
                        RetryOutcome::ServedAfterRetry {
                            distribution: d,
                            attempts: k,
                            waited_steps: t - queue.arrival(qi),
                        }
                    });
                }
                None => {
                    // Reschedule under the backoff policy, or expire.
                    let next = offsets[qi]
                        .saturating_mul(2)
                        .saturating_add(policy.backoff_steps);
                    let deadline = queue.deadline(qi).min(policy.deadline_steps);
                    let next_t = queue.arrival(qi).saturating_add(next);
                    if policy.backoff_steps == 0
                        || k >= max_attempts
                        || next > deadline
                        || next_t >= n_steps
                    {
                        outcomes[qi] = Some(RetryOutcome::Expired { attempts: k });
                    } else {
                        offsets[qi] = next;
                        agenda[next_t].push(qi);
                    }
                }
            }
        }
    }

    AdmissionOutcome::new(
        outcomes
            .into_iter()
            .enumerate()
            .map(|(qi, o)| {
                o.unwrap_or(RetryOutcome::Expired {
                    attempts: attempts_made[qi],
                })
            })
            .collect(),
        deferrals,
    )
}
