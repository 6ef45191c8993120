//! Hold-aware serving: store-and-forward entanglement over the sweep
//! timeline.
//!
//! [`crate::serve::serve_full`] routes every attempt on its own step. This
//! module serves each attempt over a *time-expanded* graph instead
//! (`qntn_routing::timexp`, built by the pipeline's
//! `build_time_expanded_into`): within a bounded horizon of future steps,
//! an intermediate node may hold its half of a pair in a decohering
//! quantum memory and swap when a later pass brings the next link up. A
//! request then counts as served when the pair is *delivered* — possibly
//! some steps after the attempt started — with the memory decay folded
//! into the end-to-end η and a fidelity-floor cutoff rejecting
//! too-decohered deliveries.
//!
//! ## The zero-horizon differential contract
//!
//! With [`HoldPolicy::disabled`] (horizon 0, no memories, floor 0) this
//! module must reproduce the per-step serve **bit-identically**, clean
//! and faulted. There is one attempt loop — the group core in
//! [`crate::serve`] — and these entry points only hand it the held
//! router instead of the per-step one; they never switch routers by
//! inspecting the policy. The equivalence therefore rests on the router
//! arms alone: a horizon-0 time-expanded graph carries exactly the
//! per-step active edge list (same floats, same order);
//! `time_sssp_into` runs the same relaxation loop as
//! `bellman_ford_all_into`; and `extract_time_route` with a zero η floor
//! yields the route, link η's and `hold_eta = 1.0` that
//! `route_from_table` and the per-step η lookup yield. The differential
//! proptests in `tests/timexp.rs` and this crate's test suite pin it.
//!
//! ## Outcome semantics
//!
//! [`RetryOutcome`] is reused unchanged. A delivery that waited for a
//! later pass reports `waited_steps = attempt offset + delivery offset`;
//! a first-attempt request delivered via a hold is therefore a
//! `ServedAfterRetry { attempts: 1, .. }` — "rescued by memory" rather
//! than by the retry layer, which is exactly the quantity the
//! `reproduce timeexp` artifact compares. With holds disabled the
//! delivery offset is always 0 and the semantics collapse to the
//! per-step ones.

use crate::request::RequestQueue;
use crate::serve::{GroupServer, Router, ServeReport};
use qntn_net::pipeline::host_hold_factors;
use qntn_net::requests::{RetryOutcome, RetryPolicy};
use qntn_net::SweepEngine;
use qntn_quantum::memory::ClassMemory;
use qntn_routing::RouteMetric;

/// How far ahead the server may look, and what it costs to wait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoldPolicy {
    /// Steps beyond the attempt step a delivery may land on (0 = route
    /// each attempt on its own step, today's behaviour).
    pub horizon_steps: usize,
    /// Per-node-class memory parameters.
    pub memory: ClassMemory,
    /// Minimum end-to-end square-root fidelity a delivery must retain,
    /// memory decay included; below it the route is rejected. `0.0`
    /// disables the cutoff (every fidelity is ≥ 0.5 ≥ 0).
    pub fidelity_floor: f64,
}

impl HoldPolicy {
    /// The configuration under which hold-aware serving must equal the
    /// per-step path bit for bit: zero horizon, zero memory, no floor.
    pub fn disabled() -> HoldPolicy {
        HoldPolicy {
            horizon_steps: 0,
            memory: ClassMemory::none(),
            fidelity_floor: 0.0,
        }
    }

    /// A horizon with the standard memory classes and no fidelity floor.
    pub fn with_horizon(horizon_steps: usize) -> HoldPolicy {
        HoldPolicy {
            horizon_steps,
            memory: ClassMemory::standard(),
            fidelity_floor: 0.0,
        }
    }

    /// The η-space floor equivalent to the fidelity floor under the
    /// workspace convention `F = (1 + √η)/2` (monotone, so cutting on η
    /// is cutting on fidelity): `η_floor = (2F − 1)²`, clamped at 0 for
    /// floors at or below the classical 1/2.
    pub fn eta_floor(&self) -> f64 {
        let s = (2.0 * self.fidelity_floor - 1.0).max(0.0);
        s * s
    }
}

/// The held router for `hold` over `hold_factors` (from
/// [`host_hold_factors`]).
fn held_router<'a>(hold: &HoldPolicy, hold_factors: &'a [f64]) -> Router<'a> {
    Router::Held {
        horizon: hold.horizon_steps,
        hold_factors,
        eta_floor: hold.eta_floor(),
    }
}

/// Serve the whole queue hold-aware, materializing one [`RetryOutcome`]
/// per accepted request in queue order — the differential-comparable
/// entry point. With [`HoldPolicy::disabled`] this equals
/// [`crate::serve::serve_full`] bit for bit.
pub fn serve_full_with_holds(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
    hold: &HoldPolicy,
) -> Vec<RetryOutcome> {
    let factors = host_hold_factors(engine.sim().hosts(), &hold.memory);
    GroupServer {
        engine,
        queue,
        policy,
        metric,
        router: held_router(hold, &factors),
    }
    .full()
}

/// Serve the whole queue hold-aware into an SLO report, one
/// [`crate::serve::GroupAgg`] per arrival group. With [`HoldPolicy::disabled`] this equals
/// [`crate::serve::serve_report`] bit for bit.
pub fn serve_report_with_holds(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
    hold: &HoldPolicy,
    rejected: u64,
) -> ServeReport {
    let factors = host_hold_factors(engine.sim().hosts(), &hold.memory);
    GroupServer {
        engine,
        queue,
        policy,
        metric,
        router: held_router(hold, &factors),
    }
    .report(rejected)
}
