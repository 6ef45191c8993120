//! One module per artifact of the paper's evaluation section.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig5`] | Fig. 5 — transmissivity vs entanglement fidelity |
//! | [`visibility`] + [`fig6`] | Fig. 6 — coverage % vs number of satellites |
//! | [`sweep`] + [`fig7`]/[`fig8`] | Fig. 7/8 — served % and fidelity vs N |
//! | [`fidelity`] | the per-architecture fidelity/served experiment (Table III inputs) |
//! | [`hybrid`] | the paper's future-work hybrid (HAP + constellation) |
//! | [`faults`] | degradation vs. fault intensity (extension; intensity 0 = the paper) |
//! | [`timeexp`] | store-and-forward serving vs. the memoryless baseline (extension) |
//! | [`overload`] | overload-control surface: offered load × fault intensity (extension) |
//!
//! All experiments are deterministic for a fixed seed and parallel over
//! their dominant axis (satellites or time steps). The paper's request
//! experiment — seeded inter-LAN requests at sampled steps, behind Fig. 7/8,
//! Table III, the fault ladder and the QKD extension — runs through one
//! function, [`serve_sampled`], on `qntn-serve`'s group core.

pub mod congestion;
pub mod demand;
pub mod faults;
pub mod fidelity;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fleet;
pub mod hybrid;
pub mod night;
pub mod overload;
pub mod purified_qkd;
pub mod qkd;
pub mod sensitivity;
pub mod stability;
pub mod survivability;
pub mod sweep;
pub mod timeexp;
pub mod visibility;

use qntn_net::requests::{RequestWorkload, RetryOutcome, RetryPolicy};
use qntn_net::SweepEngine;
use qntn_routing::RouteMetric;
use qntn_serve::{ingest, serve_full, RawRequest};

/// The constellation sizes the paper sweeps: 6, 12, …, 108.
pub fn paper_constellation_sizes() -> Vec<usize> {
    (1..=18).map(|k| k * 6).collect()
}

/// The paper's request experiment: at each of `steps` a fresh batch of
/// `requests_per_step` inter-LAN requests arrives, drawn from
/// `seed ^ step·0x9e37_79b9_7f4a_7c15`, and the whole stream is served by
/// [`serve_full`] under `policy` ([`RetryPolicy::none`] is the paper's
/// single attempt). `steps` must be strictly ascending — every caller
/// passes `sample_steps` or `step_by` output — so the queue keeps stream
/// order and the outcomes come back step by step, request by request,
/// ready for [`qntn_net::requests::aggregate_retry_outcomes`].
///
/// # Panics
/// Panics when a step lies outside the simulated day, or when the
/// simulator has fewer than two populated LANs.
pub fn serve_sampled(
    engine: &SweepEngine<'_>,
    steps: &[usize],
    requests_per_step: usize,
    seed: u64,
    metric: RouteMetric,
    policy: RetryPolicy,
) -> Vec<RetryOutcome> {
    debug_assert!(
        steps.windows(2).all(|w| w[0] < w[1]),
        "sampled steps must be strictly ascending"
    );
    let sim = engine.sim();
    let mut stream = Vec::with_capacity(steps.len() * requests_per_step);
    for &step in steps {
        let workload = RequestWorkload::generate(
            sim,
            requests_per_step,
            seed ^ (step as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        stream.extend(workload.requests.iter().map(|r| RawRequest {
            src: r.src,
            dst: r.dst,
            arrival_step: step,
            deadline_steps: policy.deadline_steps,
            priority: 0,
        }));
    }
    let (queue, rejected) = ingest(sim.hosts().len(), sim.steps(), &stream);
    assert!(
        rejected.is_empty(),
        "sampled request rejected: {:?}",
        rejected[0]
    );
    serve_full(engine, &queue, policy, metric)
}

#[cfg(test)]
mod tests {
    #[test]
    fn sizes_are_6_to_108() {
        let s = super::paper_constellation_sizes();
        assert_eq!(s.first(), Some(&6));
        assert_eq!(s.last(), Some(&108));
        assert_eq!(s.len(), 18);
        assert!(s.windows(2).all(|w| w[1] - w[0] == 6));
    }
}
