//! The serving core: amortized routing over arrival groups.
//!
//! The naive reference path (`RequestWorkload::evaluate_with_retries` in
//! `qntn-net`) runs one full Bellman–Ford per request per attempt. This
//! module serves a whole arrival group per attempt round with one SSSP
//! table per *distinct source* — `bellman_ford_all_into` once, then
//! [`route_from_table`] per destination — which is bit-identical by
//! construction: `bellman_ford ≡ bellman_ford_all + extract_route`, and
//! realizing a route from the same graph yields the same `Distribution`
//! bits. The differential suite holds the whole stack to that claim,
//! clean and faulted, sequential and parallel.
//!
//! Retry semantics reuse [`RetryPolicy`] unchanged. A request's
//! per-request deadline caps the policy's: because backoff offsets are
//! monotone (`b, 3b, 7b, …`), every request's attempt schedule is a
//! *prefix* of its group's, so per-request deadlines cost one comparison
//! per round, not a schedule recomputation.
//!
//! ## One group core, two routers
//!
//! Each attempt round routes its bucket through a private `Router`: the
//! per-step arm (the attempt step's thresholded graph, Bellman–Ford) or
//! the held arm (a time-expanded graph over a memory horizon, see
//! [`crate::hold`]). Both arms hand back a [`TimeRoute`] and realize it
//! through `realize_with_hold`; the per-step arm's routes carry
//! `hold_eta = 1.0` and deliver on layer 0, where that call *is*
//! `realize`. The entry point picks the arm — [`serve_full`] and
//! [`serve_report`] route per step, the `*_with_holds` entry points
//! always route held, even at horizon 0 — so the zero-horizon
//! differential tests keep comparing two different routers.
//!
//! The bucket router is shared with [`crate::overload::serve_overload`]'s
//! sequential agenda, the only other serving loop.
//!
//! Three entry points share the group core:
//! - [`serve_full`] materializes every [`RetryOutcome`] (differential
//!   tests, small batches);
//! - [`serve_report`] folds each group straight into a compact
//!   [`GroupAgg`] so million-request runs never hold per-request state;
//! - [`serve_resilient`] runs the same fold under the PR 4 runtime
//!   contract (checkpoint/cancel/panic isolation) via
//!   [`qntn_net::run_steps`].

use crate::request::{RequestQueue, PRIORITY_CLASSES};
use qntn_common::codec::{ByteReader, DecodeError, FrameCodec};
use qntn_common::QntnError;
use qntn_net::entanglement::realize_with_hold;
use qntn_net::requests::{RetryOutcome, RetryPolicy};
use qntn_net::runtime::{run_steps, RunPolicy, RunReport};
use qntn_net::{SweepEngine, SweepScratch};
use qntn_routing::{
    bellman_ford_all_into, extract_time_route, route_from_table, time_sssp_into, RouteMetric,
    TimeRoute,
};
use std::ops::Range;

/// How an attempt round routes its bucket.
#[derive(Clone, Copy)]
pub(crate) enum Router<'a> {
    /// The attempt step's own thresholded graph.
    PerStep,
    /// A time-expanded graph spanning `horizon` further steps, with
    /// per-host memory decay factors and the η-space fidelity floor.
    Held {
        horizon: usize,
        hold_factors: &'a [f64],
        eta_floor: f64,
    },
}

impl Router<'_> {
    /// Route one bucket at step `t`: build this arm's graph, sort
    /// `by_src` — `(source, key)` pairs — stably by source, run one SSSP
    /// per distinct source and extract one route per entry, handing each
    /// found route to `sink` with its key. Keys of one source keep their
    /// input order; entries without a route never reach `sink`.
    #[allow(clippy::too_many_arguments)] // the router's full context: engine, step, metric, bucket, dst lookup, scratch, sink
    pub(crate) fn route_bucket(
        &self,
        engine: &SweepEngine<'_>,
        t: usize,
        metric: RouteMetric,
        by_src: &mut [(usize, usize)],
        dst: impl Fn(usize) -> usize,
        scratch: &mut SweepScratch,
        mut sink: impl FnMut(usize, TimeRoute),
    ) {
        match *self {
            Router::PerStep => engine.active_graph_into(t, scratch),
            Router::Held {
                horizon,
                hold_factors,
                ..
            } => engine.time_expanded_into(t, horizon, hold_factors, scratch),
        }
        by_src.sort_by_key(|&(src, _)| src);
        for run in by_src.chunk_by(|a, b| a.0 == b.0) {
            let src = run[0].0;
            match *self {
                Router::PerStep => {
                    bellman_ford_all_into(&scratch.active, src, metric, &mut scratch.sssp)
                }
                Router::Held { .. } => {
                    time_sssp_into(&scratch.texp, src, metric, &mut scratch.ttable)
                }
            }
            for &(_, key) in run {
                if let Some(tr) = self.extract(scratch, src, dst(key), metric) {
                    sink(key, tr);
                }
            }
        }
    }

    /// One route out of the current SSSP table.
    fn extract(
        &self,
        scratch: &SweepScratch,
        src: usize,
        dst: usize,
        metric: RouteMetric,
    ) -> Option<TimeRoute> {
        match *self {
            Router::PerStep => {
                let graph = &scratch.active;
                let route = route_from_table(graph, &scratch.sssp, src, dst, metric)?;
                // Same link-η collection as `distribute_with`: a lookup
                // miss means a corrupt table, treated as unroutable.
                let mut link_etas = Vec::with_capacity(route.nodes.len().saturating_sub(1));
                for w in route.nodes.windows(2) {
                    link_etas.push(graph.eta(w[0], w[1])?);
                }
                let swaps = route.nodes.len().saturating_sub(2);
                Some(TimeRoute {
                    route,
                    link_etas,
                    hold_eta: 1.0,
                    hold_steps: 0,
                    swaps,
                    delivered_layer: 0,
                })
            }
            Router::Held { eta_floor, .. } => {
                extract_time_route(&scratch.texp, &scratch.ttable, src, dst, metric, eta_floor)
            }
        }
    }
}

/// Everything an arrival group's service depends on besides the group
/// itself: the per-group core and the drivers that fan it out.
pub(crate) struct GroupServer<'e, 'a> {
    pub(crate) engine: &'e SweepEngine<'e>,
    pub(crate) queue: &'e RequestQueue,
    pub(crate) policy: RetryPolicy,
    pub(crate) metric: RouteMetric,
    pub(crate) router: Router<'a>,
}

impl GroupServer<'_, '_> {
    /// The queue range of the arrival group at step `arrival`.
    fn group(&self, arrival: usize) -> Range<usize> {
        self.queue
            .group_range(arrival)
            .expect("arrival steps come from the queue's own groups")
    }

    /// Serve one arrival group, returning its outcomes in queue order.
    ///
    /// Per attempt round: collect the still-pending eligible requests,
    /// route them as one bucket, realize every found route. A delivery
    /// that waited (retry offset plus delivery layer) is a
    /// `ServedAfterRetry`. Offsets grow monotonically, so when every
    /// pending request has fallen past its deadline the remaining rounds
    /// are skipped wholesale.
    fn outcomes(&self, arrival: usize, scratch: &mut SweepScratch) -> Vec<RetryOutcome> {
        let queue = self.queue;
        let group = self.group(arrival);
        let schedule = self
            .policy
            .attempt_steps(arrival, self.engine.sim().steps());
        let len = group.len();
        let mut outcome: Vec<Option<RetryOutcome>> = vec![None; len];
        let mut eligible_attempts = vec![0usize; len];
        let mut pending = len;
        let mut by_src: Vec<(usize, usize)> = Vec::with_capacity(len);

        for (k, &t) in schedule.iter().enumerate() {
            if pending == 0 {
                break;
            }
            let offset = t - arrival;
            by_src.clear();
            for li in 0..len {
                if outcome[li].is_some() {
                    continue;
                }
                let qi = group.start + li;
                // The effective deadline is the tighter of the request's
                // and the policy's; the group schedule already enforced
                // the policy's, so only the per-request cap needs checking.
                if k > 0 && offset > queue.deadline(qi) {
                    continue;
                }
                eligible_attempts[li] += 1;
                by_src.push((queue.src(qi), li));
            }
            if by_src.is_empty() {
                // Offsets only grow: nobody left will ever be eligible again.
                break;
            }
            self.router.route_bucket(
                self.engine,
                t,
                self.metric,
                &mut by_src,
                |li| queue.dst(group.start + li),
                scratch,
                |li, tr| {
                    let d = realize_with_hold(&tr.route, &tr.link_etas, tr.hold_eta);
                    let waited = offset + tr.delivered_layer;
                    outcome[li] = Some(if k == 0 && waited == 0 {
                        RetryOutcome::ServedFirstTry(d)
                    } else {
                        RetryOutcome::ServedAfterRetry {
                            distribution: d,
                            attempts: k + 1,
                            waited_steps: waited,
                        }
                    });
                    pending -= 1;
                },
            );
        }
        outcome
            .into_iter()
            .zip(eligible_attempts)
            .map(|(slot, attempts)| slot.unwrap_or(RetryOutcome::Expired { attempts }))
            .collect()
    }

    /// Serve the arrival group at step `arrival` straight into a
    /// [`GroupAgg`] — the per-group evaluation of [`serve_report`], the
    /// `*_with_holds` report and [`serve_resilient`].
    fn agg(&self, arrival: usize, scratch: &mut SweepScratch) -> GroupAgg {
        let outcomes = self.outcomes(arrival, scratch);
        let classes: Vec<usize> = self.group(arrival).map(|qi| self.queue.class(qi)).collect();
        GroupAgg::from_outcomes(&outcomes, &classes)
    }

    /// Every accepted request's outcome, in queue order. Parallel over
    /// arrival groups (honoring the engine's parallelism toggle); results
    /// are bit-identical either way.
    pub(crate) fn full(&self) -> Vec<RetryOutcome> {
        let arrivals = self.queue.arrival_steps();
        self.engine
            .map_steps(&arrivals, |scratch, step| self.outcomes(step, scratch))
            .concat()
    }

    /// The SLO report, holding only one [`GroupAgg`] per arrival group.
    pub(crate) fn report(&self, rejected: u64) -> ServeReport {
        let arrivals = self.queue.arrival_steps();
        let aggs = self
            .engine
            .map_steps(&arrivals, |scratch, step| self.agg(step, scratch));
        report_from_aggs(&aggs, rejected)
    }
}

/// Serve the whole queue, materializing one [`RetryOutcome`] per accepted
/// request in queue order — the differential-comparable entry point.
/// Parallel over arrival groups (honoring the engine's parallelism
/// toggle); results are bit-identical either way.
pub fn serve_full(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
) -> Vec<RetryOutcome> {
    GroupServer {
        engine,
        queue,
        policy,
        metric,
        router: Router::PerStep,
    }
    .full()
}

/// Per-arrival-group aggregate — the compact fold that lets a
/// million-request serve run in O(groups) memory, and the checkpoint
/// payload of [`serve_resilient`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAgg {
    pub attempted: u64,
    pub served_first_try: u64,
    pub served_after_retry: u64,
    pub expired: u64,
    pub fidelity_sum: f64,
    pub link_fidelity_sum: f64,
    pub eta_sum: f64,
    pub hops_sum: f64,
    pub attempts_sum: f64,
    /// Histogram of waited steps over served requests (first-try = 0).
    pub wait_hist: Vec<u64>,
    /// Per priority class: attempted / served / fidelity sum over served.
    pub class_attempted: Vec<u64>,
    pub class_served: Vec<u64>,
    pub class_fidelity_sum: Vec<f64>,
}

impl Default for GroupAgg {
    fn default() -> GroupAgg {
        GroupAgg {
            attempted: 0,
            served_first_try: 0,
            served_after_retry: 0,
            expired: 0,
            fidelity_sum: 0.0,
            link_fidelity_sum: 0.0,
            eta_sum: 0.0,
            hops_sum: 0.0,
            attempts_sum: 0.0,
            wait_hist: Vec::new(),
            class_attempted: vec![0; PRIORITY_CLASSES],
            class_served: vec![0; PRIORITY_CLASSES],
            class_fidelity_sum: vec![0.0; PRIORITY_CLASSES],
        }
    }
}

impl GroupAgg {
    /// Fold one request's outcome in; `class` is its reporting class.
    fn absorb(&mut self, outcome: &RetryOutcome, class: usize) {
        self.attempted += 1;
        self.class_attempted[class] += 1;
        let waited = match outcome {
            RetryOutcome::ServedFirstTry(_) => {
                self.served_first_try += 1;
                self.attempts_sum += 1.0;
                Some(0)
            }
            RetryOutcome::ServedAfterRetry {
                attempts,
                waited_steps,
                ..
            } => {
                self.served_after_retry += 1;
                self.attempts_sum += *attempts as f64;
                Some(*waited_steps)
            }
            RetryOutcome::Expired { attempts } => {
                self.expired += 1;
                self.attempts_sum += *attempts as f64;
                None
            }
        };
        if let Some(w) = waited {
            if self.wait_hist.len() <= w {
                self.wait_hist.resize(w + 1, 0);
            }
            self.wait_hist[w] += 1;
        }
        if let Some(d) = outcome.distribution() {
            self.fidelity_sum += d.fidelity;
            self.link_fidelity_sum += d.mean_link_fidelity;
            self.eta_sum += d.eta;
            self.hops_sum += (d.path.len() - 1) as f64;
            self.class_served[class] += 1;
            self.class_fidelity_sum[class] += d.fidelity;
        }
    }

    /// Fold `other` into `self` (order-independent for the count fields;
    /// float sums are folded in group order everywhere for determinism).
    pub fn merge(&mut self, other: &GroupAgg) {
        self.attempted += other.attempted;
        self.served_first_try += other.served_first_try;
        self.served_after_retry += other.served_after_retry;
        self.expired += other.expired;
        self.fidelity_sum += other.fidelity_sum;
        self.link_fidelity_sum += other.link_fidelity_sum;
        self.eta_sum += other.eta_sum;
        self.hops_sum += other.hops_sum;
        self.attempts_sum += other.attempts_sum;
        if self.wait_hist.len() < other.wait_hist.len() {
            self.wait_hist.resize(other.wait_hist.len(), 0);
        }
        for (slot, v) in self.wait_hist.iter_mut().zip(&other.wait_hist) {
            *slot += v;
        }
        for c in 0..PRIORITY_CLASSES {
            self.class_attempted[c] += other.class_attempted[c];
            self.class_served[c] += other.class_served[c];
            self.class_fidelity_sum[c] += other.class_fidelity_sum[c];
        }
    }

    /// Fold a slice of materialized outcomes (with their classes).
    pub fn from_outcomes(outcomes: &[RetryOutcome], classes: &[usize]) -> GroupAgg {
        let mut agg = GroupAgg::default();
        for (o, &c) in outcomes.iter().zip(classes) {
            agg.absorb(o, c);
        }
        agg
    }
}

impl FrameCodec for GroupAgg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.attempted.encode(out);
        self.served_first_try.encode(out);
        self.served_after_retry.encode(out);
        self.expired.encode(out);
        self.fidelity_sum.encode(out);
        self.link_fidelity_sum.encode(out);
        self.eta_sum.encode(out);
        self.hops_sum.encode(out);
        self.attempts_sum.encode(out);
        self.wait_hist.encode(out);
        self.class_attempted.encode(out);
        self.class_served.encode(out);
        self.class_fidelity_sum.encode(out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let agg = GroupAgg {
            attempted: u64::decode(r)?,
            served_first_try: u64::decode(r)?,
            served_after_retry: u64::decode(r)?,
            expired: u64::decode(r)?,
            fidelity_sum: f64::decode(r)?,
            link_fidelity_sum: f64::decode(r)?,
            eta_sum: f64::decode(r)?,
            hops_sum: f64::decode(r)?,
            attempts_sum: f64::decode(r)?,
            wait_hist: Vec::<u64>::decode(r)?,
            class_attempted: Vec::<u64>::decode(r)?,
            class_served: Vec::<u64>::decode(r)?,
            class_fidelity_sum: Vec::<f64>::decode(r)?,
        };
        if agg.class_attempted.len() != PRIORITY_CLASSES
            || agg.class_served.len() != PRIORITY_CLASSES
            || agg.class_fidelity_sum.len() != PRIORITY_CLASSES
        {
            return Err(DecodeError("group agg class arity".into()));
        }
        Ok(agg)
    }
}

/// Per-priority-class service-level numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSlo {
    pub attempted: u64,
    pub served: u64,
    pub served_percent: f64,
    pub mean_fidelity: f64,
}

/// The SLO report of one serve run — everything the artifact publishes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Accepted requests attempted.
    pub attempted: u64,
    pub served_first_try: u64,
    pub served_after_retry: u64,
    pub expired: u64,
    /// Requests rejected at the ingest boundary (never attempted).
    pub rejected: u64,
    /// Median wait (steps from arrival to service) over served requests;
    /// `None` when nothing was served (a run with zero served requests
    /// has no waits to rank — it used to report a misleading `0`, which
    /// is indistinguishable from "everything served instantly").
    pub p50_wait_steps: Option<u64>,
    /// 95th-percentile wait over served requests (nearest-rank); `None`
    /// when nothing was served.
    pub p95_wait_steps: Option<u64>,
    pub mean_fidelity: f64,
    pub mean_link_fidelity: f64,
    pub mean_eta: f64,
    pub mean_hops: f64,
    pub mean_attempts: f64,
    /// Requests shed by the overload layer (a subset of `expired`; zero
    /// on the baseline serve paths). See [`crate::overload`].
    pub shed: u64,
    /// Retries deferred to a later backoff slot by the retry budget
    /// (zero on the baseline serve paths).
    pub deferred_by_budget: u64,
    /// Steps spent on each degradation rung over the whole timeline,
    /// indexed by [`crate::overload::DegradeMode`]; all-zero on the
    /// baseline serve paths (which never evaluate the ladder).
    pub degrade_mode_steps: [u64; crate::overload::DEGRADE_MODES],
    /// Per priority class, index = class.
    pub classes: Vec<ClassSlo>,
}

impl ServeReport {
    /// Requests served by any attempt.
    pub fn served(&self) -> u64 {
        self.served_first_try + self.served_after_retry
    }

    /// Served percentage over attempted.
    pub fn served_percent(&self) -> f64 {
        percent(self.served(), self.attempted)
    }

    /// Percentage served without a retry.
    pub fn first_try_percent(&self) -> f64 {
        percent(self.served_first_try, self.attempted)
    }

    /// Percentage rescued by the retry layer.
    pub fn rescued_percent(&self) -> f64 {
        percent(self.served_after_retry, self.attempted)
    }

    /// Percentage that expired unserved.
    pub fn expired_percent(&self) -> f64 {
        percent(self.expired, self.attempted)
    }

    /// Render as a JSON object (hand-rolled: the artifact writers in this
    /// workspace avoid a serializer dependency).
    pub fn to_json(&self) -> String {
        let classes: Vec<String> = self
            .classes
            .iter()
            .enumerate()
            .map(|(c, s)| {
                format!(
                    "{{\"class\":{c},\"attempted\":{},\"served\":{},\"served_percent\":{:.4},\"mean_fidelity\":{:.6}}}",
                    s.attempted, s.served, s.served_percent, s.mean_fidelity
                )
            })
            .collect();
        let modes: Vec<String> = self
            .degrade_mode_steps
            .iter()
            .map(|m| m.to_string())
            .collect();
        format!(
            "{{\n  \"attempted\": {},\n  \"rejected\": {},\n  \"served_percent\": {:.4},\n  \"first_try_percent\": {:.4},\n  \"rescued_percent\": {:.4},\n  \"expired_percent\": {:.4},\n  \"p50_wait_steps\": {},\n  \"p95_wait_steps\": {},\n  \"mean_fidelity\": {:.6},\n  \"mean_link_fidelity\": {:.6},\n  \"mean_eta\": {:.6},\n  \"mean_hops\": {:.4},\n  \"mean_attempts\": {:.4},\n  \"shed\": {},\n  \"deferred_by_budget\": {},\n  \"degrade_mode_steps\": [{}],\n  \"classes\": [{}]\n}}\n",
            self.attempted,
            self.rejected,
            self.served_percent(),
            self.first_try_percent(),
            self.rescued_percent(),
            self.expired_percent(),
            json_opt_u64(self.p50_wait_steps),
            json_opt_u64(self.p95_wait_steps),
            self.mean_fidelity,
            self.mean_link_fidelity,
            self.mean_eta,
            self.mean_hops,
            self.mean_attempts,
            self.shed,
            self.deferred_by_budget,
            modes.join(","),
            classes.join(",")
        )
    }
}

/// JSON rendering of an optional count: the number, or `null`.
fn json_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Nearest-rank percentile over a wait histogram; `None` on an empty
/// served set (there is no rank to take — reporting `0` would conflate
/// "nothing served" with "everything served with zero wait").
fn percentile(hist: &[u64], total: u64, q: f64) -> Option<u64> {
    if total == 0 {
        return None;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (w, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return Some(w as u64);
        }
    }
    Some(hist.len().saturating_sub(1) as u64)
}

/// Fold per-group aggregates (in group order) into the final report.
pub fn report_from_aggs(aggs: &[GroupAgg], rejected: u64) -> ServeReport {
    let mut total = GroupAgg::default();
    for agg in aggs {
        total.merge(agg);
    }
    let served = total.served_first_try + total.served_after_retry;
    let classes = (0..PRIORITY_CLASSES)
        .map(|c| ClassSlo {
            attempted: total.class_attempted[c],
            served: total.class_served[c],
            served_percent: percent(total.class_served[c], total.class_attempted[c]),
            mean_fidelity: if total.class_served[c] == 0 {
                0.0
            } else {
                total.class_fidelity_sum[c] / total.class_served[c] as f64
            },
        })
        .collect();
    ServeReport {
        attempted: total.attempted,
        served_first_try: total.served_first_try,
        served_after_retry: total.served_after_retry,
        expired: total.expired,
        rejected,
        p50_wait_steps: percentile(&total.wait_hist, served, 0.50),
        p95_wait_steps: percentile(&total.wait_hist, served, 0.95),
        mean_fidelity: mean(total.fidelity_sum, served),
        mean_link_fidelity: mean(total.link_fidelity_sum, served),
        mean_eta: mean(total.eta_sum, served),
        mean_hops: mean(total.hops_sum, served),
        mean_attempts: mean(total.attempts_sum, total.attempted),
        shed: 0,
        deferred_by_budget: 0,
        degrade_mode_steps: [0; crate::overload::DEGRADE_MODES],
        classes,
    }
}

fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Serve the whole queue into an SLO report, holding only one
/// [`GroupAgg`] per arrival group. Parallel over groups (engine toggle);
/// bit-identical to folding [`serve_full`]'s outcomes.
pub fn serve_report(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
    rejected: u64,
) -> ServeReport {
    GroupServer {
        engine,
        queue,
        policy,
        metric,
        router: Router::PerStep,
    }
    .report(rejected)
}

/// [`serve_report`] under the resilient runtime contract: checkpointed,
/// cancellable, panic-isolated per chunk of arrival groups. The
/// fingerprint must cover every parameter the outcomes depend on
/// (workload seed/kind/size, policy, metric, constellation) — see
/// [`qntn_common::frame::fingerprint`].
pub fn serve_resilient(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
    caller_fingerprint: u64,
    run_policy: &RunPolicy,
) -> Result<RunReport<GroupAgg>, QntnError> {
    let server = GroupServer {
        engine,
        queue,
        policy,
        metric,
        router: Router::PerStep,
    };
    run_steps(
        engine,
        &queue.arrival_steps(),
        caller_fingerprint,
        run_policy,
        |scratch, step| server.agg(step, scratch),
    )
}

/// Fold a (possibly partial) resilient run into a report: completed
/// groups only. A clean complete run's report equals [`serve_report`]'s
/// bit for bit.
pub fn report_from_run(run: &RunReport<GroupAgg>, rejected: u64) -> ServeReport {
    let mut total = GroupAgg::default();
    for agg in run.outputs.iter().flatten() {
        total.merge(agg);
    }
    report_from_aggs(&[total], rejected)
}
