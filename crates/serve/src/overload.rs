//! Overload control: retry budgets, deterministic load shedding and
//! graceful degradation under fault storms.
//!
//! The serve layer below this module fails *open*: a flash crowd or a
//! fault storm just inflates retry rounds and deadline expiries. This
//! module bounds that behaviour with three deterministic mechanisms,
//! each independently configurable and each a provable no-op when
//! disabled:
//!
//! 1. **Retry budgets** ([`RetryBudget`]) — a global and a per-priority-
//!    class token bucket over *retry* attempts (first attempts ride
//!    free). A retry beyond the budget is deferred to its next backoff
//!    slot without consuming an attempt, or shed
//!    ([`ShedReason::RetryBudget`]) when no later slot exists — so a
//!    retry storm cannot amplify offered load.
//! 2. **Load shedding** ([`ShedPolicy`]) — when a step's offered
//!    attempts exceed a utilization threshold of the step's total live
//!    link budget, the excess is shed lowest-priority-first
//!    ([`ShedReason::Overload`]) with a seeded, bit-deterministic
//!    tie-break among equal priorities.
//! 3. **Graceful degradation** ([`DegradePolicy`]) — a ladder driven by
//!    the per-step health signal [`CompiledFaults::step_health`]
//!    (up-host fraction × weather η factor): as health drops, first
//!    memory holds are disabled, then backoff slots stretch, then whole
//!    priority classes are shed ([`ShedReason::Degraded`]) — progressive
//!    cheapening instead of cliff-edge collapse.
//!
//! ## The zero-config differential contract
//!
//! [`OverloadPolicy::disabled`] must reproduce the existing serve paths
//! **bit for bit**, clean and faulted. The timeline below is one of the
//! crate's two serving loops: the sequential agenda, used whenever
//! capacity or budgets couple requests. It routes each step's bucket
//! through the same bucket router as the parallel group core in
//! [`crate::serve`] (held arm; at horizon 0 bitwise the per-step arm),
//! and it keeps the admission reference's agenda, per-step budget
//! table, admit order and reschedule/expiry arithmetic. With every
//! mechanism disabled the extra gates never fire, so:
//!
//! - with a [`CapacityModel`] and [`HoldPolicy::disabled`], the run
//!   equals [`crate::admission::serve_with_admission`], the
//!   capacity-admission reference;
//! - without a capacity model, the run equals
//!   [`crate::hold::serve_full_with_holds`] (requests no longer contend,
//!   so the sequential agenda visits exactly the per-group schedule).
//!
//! Both contracts are pinned at the unit, integration and root-proptest
//! layers (`crates/serve/tests/serve.rs`, `tests/overload.rs`).
//!
//! ## Monotonicity
//!
//! On the single-attempt path (`backoff_steps == 0`, where no retry
//! dynamics feed back into the agenda) shed counts are monotone
//! non-decreasing in offered load and in fault intensity *by
//! construction*: prefix workloads only grow each step's bucket, fault
//! schedules nest ([`qntn_net::faults::FaultModel`]), health is monotone
//! in intensity and live budgets only shrink — and
//! `shed(step) = degraded + max(0, offered − degraded − capacity)` is
//! monotone in each argument. Property-tested in `tests/overload.rs`.

use crate::hold::HoldPolicy;
use crate::request::{RequestQueue, PRIORITY_CLASSES};
use crate::serve::{report_from_aggs, GroupAgg, Router, ServeReport};
use qntn_net::capacity::CapacityModel;
use qntn_net::entanglement::realize_with_hold;
use qntn_net::faults::CompiledFaults;
use qntn_net::pipeline::host_hold_factors;
use qntn_net::requests::{RetryOutcome, RetryPolicy};
use qntn_net::{SweepEngine, SweepScratch};
use qntn_routing::{RouteMetric, TimeRoute};

/// Token buckets over retry attempts. First attempts are never charged;
/// every retry consumes one token from the global bucket *and* one from
/// its priority class's bucket. Buckets start full and refill once per
/// step, capped at their burst size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    /// Tokens added to the global bucket each step.
    pub global_per_step: f64,
    /// Global bucket capacity (burst).
    pub global_burst: f64,
    /// Per-class per-step refill.
    pub class_per_step: [f64; PRIORITY_CLASSES],
    /// Per-class bucket capacity.
    pub class_burst: [f64; PRIORITY_CLASSES],
}

impl RetryBudget {
    /// The budget under which no retry is ever deferred — the
    /// differential-contract configuration.
    pub fn unlimited() -> RetryBudget {
        RetryBudget {
            global_per_step: f64::INFINITY,
            global_burst: f64::INFINITY,
            class_per_step: [f64::INFINITY; PRIORITY_CLASSES],
            class_burst: [f64::INFINITY; PRIORITY_CLASSES],
        }
    }

    /// A finite budget sized for the standard workloads: 64 retries per
    /// step globally (burst 256), 24 per class (burst 96).
    pub fn standard() -> RetryBudget {
        RetryBudget {
            global_per_step: 64.0,
            global_burst: 256.0,
            class_per_step: [24.0; PRIORITY_CLASSES],
            class_burst: [96.0; PRIORITY_CLASSES],
        }
    }

    /// Is every bucket infinite (the gate provably never fires)?
    pub fn is_unlimited(&self) -> bool {
        self.global_per_step.is_infinite()
            && self.global_burst.is_infinite()
            && self.class_per_step.iter().all(|r| r.is_infinite())
            && self.class_burst.iter().all(|r| r.is_infinite())
    }
}

/// Utilization-threshold load shedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedPolicy {
    /// Shed when a step's offered attempts exceed `utilization ×` the
    /// step's total live link budget (the sum of
    /// [`CapacityModel::link_budget`] over live edges; one unit per live
    /// edge when serving uncapacitated). `f64::INFINITY` disables.
    pub utilization: f64,
    /// Seed for the bit-deterministic tie-break among equal-priority
    /// victims (same role as [`qntn_net::faults::FaultModel`]'s seed).
    pub seed: u64,
}

impl ShedPolicy {
    /// Never shed — the differential-contract configuration.
    pub fn disabled() -> ShedPolicy {
        ShedPolicy {
            utilization: f64::INFINITY,
            seed: 0,
        }
    }

    /// Shed offered attempts beyond the step's full live budget.
    pub fn standard(seed: u64) -> ShedPolicy {
        ShedPolicy {
            utilization: 1.0,
            seed,
        }
    }
}

/// Why a request was shed, reported positionally per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The step's offered attempts exceeded the utilization threshold of
    /// its live link budgets and this request lost the priority order.
    Overload,
    /// The retry budget was exhausted and the backoff schedule had no
    /// later slot to defer into.
    RetryBudget,
    /// The degradation ladder dropped this request's priority class at
    /// its attempt step.
    Degraded,
}

/// The degradation ladder's rungs, shallow to deep. Deeper rungs imply
/// the shallower behaviours (a [`DegradeMode::ShedClasses`] step also
/// serves without holds and with stretched backoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeMode {
    /// Full service.
    Normal,
    /// Memory holds disabled (attempts route on their own step only).
    NoHolds,
    /// Holds disabled and backoff slots doubled — retries spread out.
    StretchedBackoff,
    /// All of the above, plus whole priority classes shed.
    ShedClasses,
}

/// Number of [`DegradeMode`] rungs (the length of the per-mode step
/// counters in [`OverloadOutcome`] and [`ServeReport`]).
pub const DEGRADE_MODES: usize = 4;

/// Health thresholds driving the [`DegradeMode`] ladder. A rung engages
/// when the step's health falls strictly below its threshold; health is
/// in `[0, 1]`, so a threshold of `0.0` can never engage (the disabled
/// configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradePolicy {
    /// Below this health, memory holds are disabled.
    pub no_holds_below: f64,
    /// Below this health, backoff slots double as well.
    pub stretch_backoff_below: f64,
    /// Below `shed_class_below[c]`, priority class `c` is shed at that
    /// step. Class 0 is the lowest priority, so sensible ladders are
    /// non-increasing in `c` — lower classes go first.
    pub shed_class_below: [f64; PRIORITY_CLASSES],
}

impl DegradePolicy {
    /// Never degrade — the differential-contract configuration.
    pub fn disabled() -> DegradePolicy {
        DegradePolicy {
            no_holds_below: 0.0,
            stretch_backoff_below: 0.0,
            shed_class_below: [0.0; PRIORITY_CLASSES],
        }
    }

    /// A ladder tuned to the standard fault model: holds off below 0.9,
    /// backoff stretched below 0.75, classes shed at 0.6/0.45/0.3/0.15.
    pub fn standard() -> DegradePolicy {
        DegradePolicy {
            no_holds_below: 0.9,
            stretch_backoff_below: 0.75,
            shed_class_below: [0.6, 0.45, 0.3, 0.15],
        }
    }

    /// Which classes the ladder sheds at `health`.
    pub fn shed_classes(&self, health: f64) -> [bool; PRIORITY_CLASSES] {
        std::array::from_fn(|c| health < self.shed_class_below[c])
    }

    /// The deepest rung engaged at `health`.
    pub fn mode(&self, health: f64) -> DegradeMode {
        if self.shed_classes(health).iter().any(|&s| s) {
            DegradeMode::ShedClasses
        } else if health < self.stretch_backoff_below {
            DegradeMode::StretchedBackoff
        } else if health < self.no_holds_below {
            DegradeMode::NoHolds
        } else {
            DegradeMode::Normal
        }
    }
}

/// The full overload-control configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    pub budget: RetryBudget,
    pub shed: ShedPolicy,
    pub degrade: DegradePolicy,
}

impl OverloadPolicy {
    /// Unlimited budget, no shedding, no degradation — under this
    /// configuration [`serve_overload`] reproduces the baseline serve
    /// paths bit for bit (see the module docs).
    pub fn disabled() -> OverloadPolicy {
        OverloadPolicy {
            budget: RetryBudget::unlimited(),
            shed: ShedPolicy::disabled(),
            degrade: DegradePolicy::disabled(),
        }
    }

    /// Every mechanism on at its standard setting.
    pub fn standard(seed: u64) -> OverloadPolicy {
        OverloadPolicy {
            budget: RetryBudget::standard(),
            shed: ShedPolicy::standard(seed),
            degrade: DegradePolicy::standard(),
        }
    }
}

/// Outcome of an overload-controlled serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadOutcome {
    /// Per accepted request, in queue order. Shed requests report
    /// [`RetryOutcome::Expired`] with the attempts made before the shed;
    /// `shed` distinguishes them.
    pub outcomes: Vec<RetryOutcome>,
    /// Positional shed reasons, queue order; `None` = not shed.
    pub shed: Vec<Option<ShedReason>>,
    /// Attempts deferred because a link budget was exhausted (the
    /// admission layer's counter, unchanged).
    pub congestion_deferrals: u64,
    /// Retries deferred to a later slot by the retry budget.
    pub budget_deferrals: u64,
    /// Steps spent on each [`DegradeMode`] rung over the whole timeline.
    pub degrade_mode_steps: [u64; DEGRADE_MODES],
    /// Requests served by any attempt, cached at construction.
    served: usize,
}

impl OverloadOutcome {
    /// Requests served by any attempt.
    pub fn served_count(&self) -> usize {
        self.served
    }

    /// Requests shed for any reason.
    pub fn shed_count(&self) -> usize {
        self.shed.iter().filter(|s| s.is_some()).count()
    }

    /// Requests shed for `reason`.
    pub fn shed_count_for(&self, reason: ShedReason) -> usize {
        self.shed.iter().filter(|s| **s == Some(reason)).count()
    }
}

/// The seeded, bit-deterministic tie-break among equal-priority shed
/// victims (splitmix-style finalizer over the queue index).
fn tie_hash(seed: u64, qi: usize) -> u64 {
    let mut x = seed ^ (qi as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// The per-step health signal: [`CompiledFaults::step_health`] when a
/// mask is attached, `1.0` (fully healthy) otherwise.
fn step_health(faults: Option<&CompiledFaults>, step: usize) -> f64 {
    faults.map_or(1.0, |f| f.step_health(step))
}

/// Serve `queue` under overload control. Sequential over steps (the
/// budgets and buckets couple them); deterministic for a given
/// queue/policy/model/mask. With `Some(model)` the run is
/// capacity-admitted exactly as [`crate::admission::serve_with_admission`];
/// with `None` it is uncapacitated. See the module docs for the
/// zero-config differential contracts.
#[allow(clippy::too_many_arguments)] // the serving core's full context, plus the overload policy
pub fn serve_overload(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    policy: RetryPolicy,
    metric: RouteMetric,
    admission: Option<CapacityModel>,
    hold: &HoldPolicy,
    overload: &OverloadPolicy,
) -> OverloadOutcome {
    let n_steps = engine.sim().steps();
    let n = queue.len();
    let mut outcomes: Vec<Option<RetryOutcome>> = vec![None; n];
    let mut shed: Vec<Option<ShedReason>> = vec![None; n];
    let mut attempts_made = vec![0usize; n];
    // Current backoff offset per request: 0 before the first attempt,
    // then b, 3b, 7b, … (next = 2·offset + b), with b doubled on
    // stretched steps.
    let mut offsets = vec![0usize; n];
    let mut congestion_deferrals = 0u64;
    let mut budget_deferrals = 0u64;
    let mut degrade_mode_steps = [0u64; DEGRADE_MODES];

    let hold_factors = host_hold_factors(engine.sim().hosts(), &hold.memory);
    let eta_floor = hold.eta_floor();
    let faults = engine.faults();

    // Agenda: queue indices attempting at each step.
    let mut agenda: Vec<Vec<usize>> = vec![Vec::new(); n_steps];
    for (arrival, range) in queue.groups().iter().cloned() {
        agenda[arrival].extend(range);
    }

    let mut scratch = SweepScratch::default();
    let mut edge_keys: Vec<(usize, usize)> = Vec::new();
    let mut budgets: Vec<f64> = Vec::new();
    let mut bucket: Vec<usize> = Vec::new();
    let mut by_src: Vec<(usize, usize)> = Vec::new();
    let max_attempts = policy.max_attempts.max(1);

    // Token buckets start full.
    let mut global_tokens = overload.budget.global_burst;
    let mut class_tokens = overload.budget.class_burst;

    for t in 0..n_steps {
        // The degrade rung and the bucket refills advance every step —
        // they model time, not work.
        let health = step_health(faults, t);
        let mode = overload.degrade.mode(health);
        degrade_mode_steps[mode as usize] += 1;
        global_tokens =
            (global_tokens + overload.budget.global_per_step).min(overload.budget.global_burst);
        for (c, tokens) in class_tokens.iter_mut().enumerate() {
            *tokens =
                (*tokens + overload.budget.class_per_step[c]).min(overload.budget.class_burst[c]);
        }

        if agenda[t].is_empty() {
            continue;
        }
        bucket.clear();
        bucket.append(&mut agenda[t]);
        bucket.sort_unstable();

        let horizon = if mode >= DegradeMode::NoHolds {
            0
        } else {
            hold.horizon_steps
        };
        let backoff_mult: usize = if mode >= DegradeMode::StretchedBackoff {
            2
        } else {
            1
        };

        // Rung 3: shed whole classes before any routing work.
        if mode == DegradeMode::ShedClasses {
            let class_shed = overload.degrade.shed_classes(health);
            bucket.retain(|&qi| {
                if class_shed[queue.class(qi)] {
                    shed[qi] = Some(ShedReason::Degraded);
                    outcomes[qi] = Some(RetryOutcome::Expired {
                        attempts: attempts_made[qi],
                    });
                    false
                } else {
                    true
                }
            });
        }

        // Retry budget: retries (never first attempts) each consume one
        // global and one class token, granted in admission order
        // (priority descending, queue index ascending). A denied retry
        // defers to its next backoff slot without consuming an attempt,
        // or is shed when no later slot exists.
        if !overload.budget.is_unlimited() {
            let mut grant: Vec<usize> = (0..bucket.len()).collect();
            grant.sort_by_key(|&bi| (u8::MAX - queue.priority(bucket[bi]), bucket[bi]));
            let mut denied = vec![false; bucket.len()];
            for bi in grant {
                let qi = bucket[bi];
                if attempts_made[qi] == 0 {
                    continue;
                }
                let c = queue.class(qi);
                if global_tokens >= 1.0 && class_tokens[c] >= 1.0 {
                    global_tokens -= 1.0;
                    class_tokens[c] -= 1.0;
                } else {
                    denied[bi] = true;
                }
            }
            let mut keep = 0;
            for bi in 0..bucket.len() {
                let qi = bucket[bi];
                if !denied[bi] {
                    bucket[keep] = qi;
                    keep += 1;
                    continue;
                }
                let next = offsets[qi]
                    .saturating_mul(2)
                    .saturating_add(policy.backoff_steps.saturating_mul(backoff_mult));
                let deadline = queue.deadline(qi).min(policy.deadline_steps);
                let next_t = queue.arrival(qi).saturating_add(next);
                if policy.backoff_steps == 0 || next > deadline || next_t >= n_steps {
                    shed[qi] = Some(ShedReason::RetryBudget);
                    outcomes[qi] = Some(RetryOutcome::Expired {
                        attempts: attempts_made[qi],
                    });
                } else {
                    offsets[qi] = next;
                    agenda[next_t].push(qi);
                    budget_deferrals += 1;
                }
            }
            bucket.truncate(keep);
        }

        // Fresh per-step budgets over the live edges, binary-searchable —
        // the admission table, also the shed layer's capacity measure.
        edge_keys.clear();
        budgets.clear();
        if admission.is_some() || overload.shed.utilization.is_finite() {
            engine.active_graph_into(t, &mut scratch);
            for (u, v, eta) in scratch.active.edges() {
                edge_keys.push((u.min(v), u.max(v)));
                budgets.push(match admission {
                    Some(model) => model.link_budget(eta),
                    None => 1.0,
                });
            }
            debug_assert!(edge_keys.windows(2).all(|w| w[0] < w[1]));
        }

        // Utilization shed: offered attempts beyond the threshold share
        // of the step's total live budget go, lowest priority first,
        // seeded tie-break among equals.
        if overload.shed.utilization.is_finite() {
            let total: f64 = budgets.iter().sum();
            let cap = overload.shed.utilization * total;
            let allowed = if cap >= bucket.len() as f64 {
                bucket.len()
            } else {
                cap.max(0.0).floor() as usize
            };
            if bucket.len() > allowed {
                let mut victims: Vec<usize> = (0..bucket.len()).collect();
                victims.sort_by_key(|&bi| {
                    let qi = bucket[bi];
                    (queue.priority(qi), tie_hash(overload.shed.seed, qi), qi)
                });
                let mut dead = vec![false; bucket.len()];
                for &bi in victims.iter().take(bucket.len() - allowed) {
                    let qi = bucket[bi];
                    shed[qi] = Some(ShedReason::Overload);
                    outcomes[qi] = Some(RetryOutcome::Expired {
                        attempts: attempts_made[qi],
                    });
                    dead[bi] = true;
                }
                let mut keep = 0;
                for bi in 0..bucket.len() {
                    if !dead[bi] {
                        bucket[keep] = bucket[bi];
                        keep += 1;
                    }
                }
                bucket.truncate(keep);
            }
        }

        if bucket.is_empty() {
            continue;
        }

        // Route everything first (admission cannot change routes), one
        // time-expanded SSSP per distinct source through the group core's
        // bucket router. At horizon 0 this is bitwise the per-step router.
        let mut routed: Vec<Option<TimeRoute>> = vec![None; bucket.len()];
        by_src.clear();
        by_src.extend(
            bucket
                .iter()
                .enumerate()
                .map(|(bi, &qi)| (queue.src(qi), bi)),
        );
        let router = Router::Held {
            horizon,
            hold_factors: &hold_factors,
            eta_floor,
        };
        router.route_bucket(
            engine,
            t,
            metric,
            &mut by_src,
            |bi| queue.dst(bucket[bi]),
            &mut scratch,
            |bi, tr| routed[bi] = Some(tr),
        );

        // Admit in (priority desc, queue index asc) order.
        let mut admit: Vec<usize> = (0..bucket.len()).collect();
        admit.sort_by_key(|&bi| (u8::MAX - queue.priority(bucket[bi]), bucket[bi]));
        for bi in admit {
            let qi = bucket[bi];
            attempts_made[qi] += 1;
            let k = attempts_made[qi];
            let served = routed[bi].take().and_then(|tr| {
                if admission.is_some() {
                    let keys: Vec<(usize, usize)> = tr
                        .route
                        .nodes
                        .windows(2)
                        .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
                        .collect();
                    let slots: Vec<usize> = keys
                        .iter()
                        .filter_map(|k| edge_keys.binary_search(k).ok())
                        .collect();
                    // At horizon 0 every routed hop is a live edge of this
                    // step's graph; a miss would mean a corrupt table —
                    // treat as unroutable. With a horizon, hops on later
                    // layers legitimately miss the attempt step's table
                    // and ride uncharged (the budget window *is* the
                    // attempt step).
                    if horizon == 0 && slots.len() != keys.len() {
                        return None;
                    }
                    if slots.iter().any(|&s| budgets[s] < 1.0) {
                        congestion_deferrals += 1;
                        return None;
                    }
                    for &s in &slots {
                        budgets[s] -= 1.0;
                    }
                }
                Some((
                    realize_with_hold(&tr.route, &tr.link_etas, tr.hold_eta),
                    tr.delivered_layer,
                ))
            });
            match served {
                Some((d, layer)) => {
                    let waited = (t - queue.arrival(qi)) + layer;
                    outcomes[qi] = Some(if k == 1 && waited == 0 {
                        RetryOutcome::ServedFirstTry(d)
                    } else {
                        RetryOutcome::ServedAfterRetry {
                            distribution: d,
                            attempts: k,
                            waited_steps: waited,
                        }
                    });
                }
                None => {
                    // Reschedule under the backoff policy, or expire.
                    let next = offsets[qi]
                        .saturating_mul(2)
                        .saturating_add(policy.backoff_steps.saturating_mul(backoff_mult));
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

    let outcomes: Vec<RetryOutcome> = outcomes
        .into_iter()
        .enumerate()
        .map(|(qi, o)| {
            o.unwrap_or(RetryOutcome::Expired {
                attempts: attempts_made[qi],
            })
        })
        .collect();
    let served = outcomes
        .iter()
        .filter(|o| o.distribution().is_some())
        .count();
    OverloadOutcome {
        outcomes,
        shed,
        congestion_deferrals,
        budget_deferrals,
        degrade_mode_steps,
        served,
    }
}

/// Fold an overload run into an SLO report. Shed requests count inside
/// `expired` (they made no delivery) with the `shed` counter recording
/// the subset; the budget-deferral and degrade-mode counters carry over
/// verbatim.
pub fn overload_report(
    outcome: &OverloadOutcome,
    queue: &RequestQueue,
    rejected: u64,
) -> ServeReport {
    let classes: Vec<usize> = (0..queue.len()).map(|qi| queue.class(qi)).collect();
    let agg = GroupAgg::from_outcomes(&outcome.outcomes, &classes);
    let mut report = report_from_aggs(&[agg], rejected);
    report.shed = outcome.shed_count() as u64;
    report.deferred_by_budget = outcome.budget_deferrals;
    report.degrade_mode_steps = outcome.degrade_mode_steps;
    report
}
