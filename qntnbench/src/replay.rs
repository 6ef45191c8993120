//! Layer replays for the traced run.
//!
//! Each replay re-runs one workload's pass through the layers' public
//! entry points, with a span (or a per-call sum) around every call, on
//! the workload's own inputs. Every replay's output is fingerprinted the
//! same way as the untraced pass and must match it, so the trace provably
//! describes the work the timed pass does.
//!
//! `replay_serve` follows `qntn_serve::serve_report` and
//! `replay_overload` follows `qntn_serve::serve_overload` statement for
//! statement; when either library loop changes, its replay must follow,
//! and the fingerprint check fails the run until it does.

use crate::trace::{Sum, Trace};
use crate::workloads::{
    flags_fingerprint, report_fingerprint, OverloadParts, World, CAPACITY, HOLD_HORIZON, METRIC,
};
use qntn_net::entanglement::realize;
use qntn_net::requests::{RetryOutcome, RetryPolicy};
use qntn_net::{host_hold_factors, realize_with_hold, SweepEngine, SweepScratch};
use qntn_routing::{
    bellman_ford_all_into, extract_time_route, route_from_table, time_sssp_into, TimeRoute,
};
use qntn_serve::{
    report_from_aggs, DegradeMode, GroupAgg, HoldPolicy, OverloadPolicy, RawRequest, RequestQueue,
    ShedReason, DEGRADE_MODES,
};
use std::collections::BTreeMap;
use std::ops::Range;

/// Deterministic work counts of one replay, by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// What a replay did: its pass id in the trace, its output fingerprint
/// and its counts.
pub struct Replay {
    pub trace: u32,
    pub fingerprint: u64,
    pub counts: Counts,
}

fn bump(c: &mut Counts, k: &'static str, v: u64) {
    *c.entry(k).or_insert(0) += v;
}

fn merge(into: &mut Counts, from: &Counts) {
    for (k, v) in from {
        bump(into, k, *v);
    }
}

/// One engine topology call, timed and counted.
fn topology(
    engine: &SweepEngine<'_>,
    step: usize,
    scratch: &mut SweepScratch,
    tr: &mut Trace,
    parent: u32,
    c: &mut Counts,
) {
    tr.span("net.topology", parent, || {
        engine.active_graph_into(step, scratch)
    });
    bump(c, "net.topology.calls", 1);
    bump(
        c,
        "net.topology.active_edges",
        scratch.active.edge_count() as u64,
    );
    bump(
        c,
        "net.topology.full_edges",
        scratch.full.edge_count() as u64,
    );
}

/// The sweep pass: `connectivity_flags` — per step, the engine topology
/// and the LAN-connectivity check — under `SweepEngine::map_steps`.
pub fn replay_sweep(engine: &SweepEngine<'_>, tr: &mut Trace) -> Replay {
    let id = tr.begin_pass();
    let root = tr.open("pass", 0);
    let stage = tr.open("net.map_steps", root.id());
    let stage_id = stage.id();
    let steps: Vec<usize> = (0..engine.sim().steps()).collect();
    let shared = tr.fork();
    let per_step = engine.map_steps(&steps, |scratch, step| {
        let mut t = shared.fork();
        let mut c = Counts::new();
        let item = t.open("map_steps.item", stage_id);
        topology(engine, step, scratch, &mut t, item.id(), &mut c);
        let flag = t.span("net.connectivity", item.id(), || {
            engine.sim().lans_interconnected(&scratch.active)
        });
        t.close(item);
        (flag, t, c)
    });
    tr.close(stage);
    let mut counts = Counts::new();
    let mut flags = Vec::with_capacity(per_step.len());
    for (flag, t, c) in per_step {
        flags.push(flag);
        tr.absorb(t);
        merge(&mut counts, &c);
    }
    tr.close(root);
    Replay {
        trace: id,
        fingerprint: flags_fingerprint(&flags),
        counts,
    }
}

/// The serve pass: `ingest`, then `serve_report` — per arrival group the
/// retry rounds of `serve_group_into`, then the `GroupAgg` fold.
pub fn replay_serve(
    world: &World,
    engine: &SweepEngine<'_>,
    stream: &[RawRequest],
    tr: &mut Trace,
) -> Replay {
    let id = tr.begin_pass();
    let root = tr.open("pass", 0);
    let (queue, rejected) = tr.span("serve.ingest", root.id(), || world.ingest(stream));
    let mut counts = Counts::new();
    bump(&mut counts, "serve.ingest.accepted", queue.len() as u64);
    bump(&mut counts, "serve.ingest.rejected", rejected);

    let policy = RetryPolicy::standard();
    let stage = tr.open("net.map_steps", root.id());
    let stage_id = stage.id();
    let arrivals = queue.arrival_steps();
    let shared = tr.fork();
    let per_group = engine.map_steps(&arrivals, |scratch, step| {
        let mut t = shared.fork();
        let mut c = Counts::new();
        let item = t.open("serve.group", stage_id);
        let range = queue
            .group_range(step)
            .expect("arrival steps come from the queue's own groups");
        let outcomes = serve_group(
            engine,
            &queue,
            range.clone(),
            step,
            policy,
            scratch,
            &mut t,
            item.id(),
            &mut c,
        );
        let agg = t.span("serve.fold", item.id(), || {
            let classes: Vec<usize> = range.map(|qi| queue.class(qi)).collect();
            GroupAgg::from_outcomes(&outcomes, &classes)
        });
        t.close(item);
        (agg, t, c)
    });
    tr.close(stage);
    let mut aggs = Vec::with_capacity(per_group.len());
    for (agg, t, c) in per_group {
        aggs.push(agg);
        tr.absorb(t);
        merge(&mut counts, &c);
    }
    let report = tr.span("serve.fold", root.id(), || {
        report_from_aggs(&aggs, rejected)
    });
    tr.close(root);

    Replay {
        trace: id,
        fingerprint: report_fingerprint(&queue, rejected, &report),
        counts,
    }
}

/// `qntn_serve::serve::serve_group_into` with its layer calls timed:
/// per retry round one topology build, one SSSP per distinct source, one
/// route extraction per request and one `realize` per route found.
#[allow(clippy::too_many_arguments)]
fn serve_group(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    group: Range<usize>,
    arrival: usize,
    policy: RetryPolicy,
    scratch: &mut SweepScratch,
    tr: &mut Trace,
    parent: u32,
    c: &mut Counts,
) -> Vec<RetryOutcome> {
    let (mut sssp, mut extract, mut real) = (Sum::default(), Sum::default(), Sum::default());
    let n_steps = engine.sim().steps();
    let schedule = policy.attempt_steps(arrival, n_steps);
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
            if k > 0 && offset > queue.deadline(qi) {
                continue;
            }
            eligible_attempts[li] += 1;
            by_src.push((queue.src(qi), li));
        }
        if by_src.is_empty() {
            break;
        }
        topology(engine, t, scratch, tr, parent, c);
        by_src.sort_by_key(|&(src, _)| src);
        let mut i = 0;
        while i < by_src.len() {
            let src = by_src[i].0;
            sssp.time(|| bellman_ford_all_into(&scratch.active, src, METRIC, &mut scratch.sssp));
            while i < by_src.len() && by_src[i].0 == src {
                let li = by_src[i].1;
                let qi = group.start + li;
                i += 1;
                let graph = &scratch.active;
                let table = &scratch.sssp;
                let Some(route) =
                    extract.time(|| route_from_table(graph, table, src, queue.dst(qi), METRIC))
                else {
                    continue;
                };
                bump(c, "routing.extract.found", 1);
                let mut link_etas = Vec::with_capacity(route.nodes.len().saturating_sub(1));
                let mut intact = true;
                for w in route.nodes.windows(2) {
                    match graph.eta(w[0], w[1]) {
                        Some(eta) => link_etas.push(eta),
                        None => {
                            intact = false;
                            break;
                        }
                    }
                }
                if !intact {
                    continue;
                }
                let d = real.time(|| realize(&route, &link_etas));
                outcome[li] = Some(if k == 0 {
                    RetryOutcome::ServedFirstTry(d)
                } else {
                    RetryOutcome::ServedAfterRetry {
                        distribution: d,
                        attempts: k + 1,
                        waited_steps: offset,
                    }
                });
                pending -= 1;
            }
        }
    }
    tr.push_sum("routing.sssp", parent, &sssp);
    tr.push_sum("routing.extract", parent, &extract);
    tr.push_sum("net.realize", parent, &real);
    bump(c, "routing.sssp.calls", sssp.calls);
    bump(c, "routing.extract.calls", extract.calls);
    bump(c, "net.realize.calls", real.calls);
    outcome
        .into_iter()
        .enumerate()
        .map(|(li, slot)| {
            slot.unwrap_or(RetryOutcome::Expired {
                attempts: eligible_attempts[li],
            })
        })
        .collect()
}

/// `qntn_serve::overload`'s shed tie-break (private there).
fn tie_hash(seed: u64, qi: usize) -> u64 {
    let mut x = seed ^ (qi as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// The overload pass: `ingest`, then `serve_overload` with capacity
/// admission, memory holds and the workload's overload policy, then the
/// report fold.
pub fn replay_overload(
    world: &World,
    engine: &SweepEngine<'_>,
    stream: &[RawRequest],
    tr: &mut Trace,
) -> Replay {
    let id = tr.begin_pass();
    let root = tr.open("pass", 0);
    let (queue, rejected) = tr.span("serve.ingest", root.id(), || world.ingest(stream));
    let mut counts = Counts::new();
    bump(&mut counts, "serve.ingest.accepted", queue.len() as u64);
    bump(&mut counts, "serve.ingest.rejected", rejected);
    let span = tr.open("serve.overload", root.id());
    let overload = OverloadPolicy::standard(world.seed);
    let run = overload_loop(engine, &queue, &overload, tr, span.id(), &mut counts);
    tr.close(span);
    let parts = OverloadParts {
        outcomes: &run.outcomes,
        shed: &run.shed,
        congestion_deferrals: run.congestion_deferrals,
        budget_deferrals: run.budget_deferrals,
        degrade_mode_steps: run.degrade_mode_steps,
    };
    let report = tr.span("serve.fold", root.id(), || parts.report(&queue, rejected));
    tr.close(root);
    bump(&mut counts, "serve.overload.served", parts.served());
    bump(&mut counts, "serve.overload.shed", parts.shed_count());
    bump(
        &mut counts,
        "serve.overload.budget_deferrals",
        parts.budget_deferrals,
    );
    bump(
        &mut counts,
        "serve.overload.congestion_deferrals",
        parts.congestion_deferrals,
    );
    bump(
        &mut counts,
        "serve.overload.degraded_steps",
        parts.degrade_mode_steps.iter().skip(1).sum(),
    );
    Replay {
        trace: id,
        fingerprint: parts.fingerprint(&queue, rejected, &report),
        counts,
    }
}

/// The state `overload_loop` ends with (what `OverloadOutcome` holds).
struct LoopRun {
    outcomes: Vec<RetryOutcome>,
    shed: Vec<Option<ShedReason>>,
    congestion_deferrals: u64,
    budget_deferrals: u64,
    degrade_mode_steps: [u64; DEGRADE_MODES],
}

/// `qntn_serve::overload::serve_overload` with its layer calls timed.
fn overload_loop(
    engine: &SweepEngine<'_>,
    queue: &RequestQueue,
    overload: &OverloadPolicy,
    tr: &mut Trace,
    parent: u32,
    c: &mut Counts,
) -> LoopRun {
    let policy = RetryPolicy::standard();
    let hold = HoldPolicy::with_horizon(HOLD_HORIZON);
    let admission = Some(CAPACITY);
    let n_steps = engine.sim().steps();
    let n = queue.len();
    let mut outcomes: Vec<Option<RetryOutcome>> = vec![None; n];
    let mut shed: Vec<Option<ShedReason>> = vec![None; n];
    let mut attempts_made = vec![0usize; n];
    let mut offsets = vec![0usize; n];
    let mut congestion_deferrals = 0u64;
    let mut budget_deferrals = 0u64;
    let mut degrade_mode_steps = [0u64; DEGRADE_MODES];

    let hold_factors = host_hold_factors(engine.sim().hosts(), &hold.memory);
    let eta_floor = hold.eta_floor();
    let faults = engine.faults();

    let mut agenda: Vec<Vec<usize>> = vec![Vec::new(); n_steps];
    for (arrival, range) in queue.groups().iter().cloned() {
        agenda[arrival].extend(range);
    }

    let mut scratch = SweepScratch::default();
    let mut edge_keys: Vec<(usize, usize)> = Vec::new();
    let mut budgets: Vec<f64> = Vec::new();
    let mut bucket: Vec<usize> = Vec::new();
    let max_attempts = policy.max_attempts.max(1);

    let mut global_tokens = overload.budget.global_burst;
    let mut class_tokens = overload.budget.class_burst;
    let (mut tsssp, mut textract, mut real) = (Sum::default(), Sum::default(), Sum::default());

    for t in 0..n_steps {
        let health = faults.map_or(1.0, |f| f.step_health(t));
        let mode = overload.degrade.mode(health);
        degrade_mode_steps[mode as usize] += 1;
        global_tokens =
            (global_tokens + overload.budget.global_per_step).min(overload.budget.global_burst);
        for (cl, tokens) in class_tokens.iter_mut().enumerate() {
            *tokens =
                (*tokens + overload.budget.class_per_step[cl]).min(overload.budget.class_burst[cl]);
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

        if !overload.budget.is_unlimited() {
            let mut grant: Vec<usize> = (0..bucket.len()).collect();
            grant.sort_by_key(|&bi| (u8::MAX - queue.priority(bucket[bi]), bucket[bi]));
            let mut denied = vec![false; bucket.len()];
            for bi in grant {
                let qi = bucket[bi];
                if attempts_made[qi] == 0 {
                    continue;
                }
                let cl = queue.class(qi);
                if global_tokens >= 1.0 && class_tokens[cl] >= 1.0 {
                    global_tokens -= 1.0;
                    class_tokens[cl] -= 1.0;
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

        edge_keys.clear();
        budgets.clear();
        if admission.is_some() || overload.shed.utilization.is_finite() {
            topology(engine, t, &mut scratch, tr, parent, c);
            for (u, v, eta) in scratch.active.edges() {
                edge_keys.push((u.min(v), u.max(v)));
                budgets.push(match admission {
                    Some(model) => model.link_budget(eta),
                    None => 1.0,
                });
            }
        }

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

        tr.span("net.texp", parent, || {
            engine.time_expanded_into(t, horizon, &hold_factors, &mut scratch)
        });
        bump(c, "net.texp.calls", 1);
        bump(c, "net.texp.edges", scratch.texp.edges().len() as u64);
        let mut routed: Vec<Option<TimeRoute>> = vec![None; bucket.len()];
        let mut order: Vec<usize> = (0..bucket.len()).collect();
        order.sort_by_key(|&bi| queue.src(bucket[bi]));
        let mut i = 0;
        while i < order.len() {
            let src = queue.src(bucket[order[i]]);
            tsssp.time(|| time_sssp_into(&scratch.texp, src, METRIC, &mut scratch.ttable));
            while i < order.len() && queue.src(bucket[order[i]]) == src {
                let bi = order[i];
                routed[bi] = textract.time(|| {
                    extract_time_route(
                        &scratch.texp,
                        &scratch.ttable,
                        src,
                        queue.dst(bucket[bi]),
                        METRIC,
                        eta_floor,
                    )
                });
                i += 1;
            }
        }

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
                    real.time(|| realize_with_hold(&tr.route, &tr.link_etas, tr.hold_eta)),
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
    tr.push_sum("routing.time_sssp", parent, &tsssp);
    tr.push_sum("routing.time_extract", parent, &textract);
    tr.push_sum("net.realize", parent, &real);
    bump(c, "routing.time_sssp.calls", tsssp.calls);
    bump(c, "routing.time_extract.calls", textract.calls);
    bump(c, "net.realize.calls", real.calls);

    let outcomes: Vec<RetryOutcome> = outcomes
        .into_iter()
        .enumerate()
        .map(|(qi, o)| {
            o.unwrap_or(RetryOutcome::Expired {
                attempts: attempts_made[qi],
            })
        })
        .collect();
    LoopRun {
        outcomes,
        shed,
        congestion_deferrals,
        budget_deferrals,
        degrade_mode_steps,
    }
}
