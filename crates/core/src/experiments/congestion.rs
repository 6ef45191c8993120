//! Congestion extension: finite pair-generation rates.
//!
//! Drops the paper's "infinite queue capacity" assumption: each link
//! produces `R·η` pairs per second, and a served request consumes one pair
//! on every link of its path. The air-ground star funnels all inter-city
//! traffic through the HAP's links, so it saturates first — quantifying how
//! load-bearing the ideal-capacity assumption is for the paper's 100 %
//! air-ground headline.

use crate::architecture::AirGround;
use crate::scenario::Qntn;
use qntn_net::capacity::CapacityModel;
use qntn_net::requests::{RequestWorkload, RetryPolicy};
use qntn_net::{SimConfig, SweepEngine};
use qntn_routing::RouteMetric;
use qntn_serve::{ingest, serve_overload, HoldPolicy, OverloadPolicy, RawRequest};
use serde::{Deserialize, Serialize};

/// One point of the rate sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CongestionPoint {
    /// Pair attempt rate, Hz.
    pub attempt_rate_hz: f64,
    /// Requests served, percent.
    pub served_percent: f64,
    /// Requests blocked by congestion, percent.
    pub congestion_percent: f64,
}

/// The attempt-rate sweep over the air-ground architecture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CongestionSweep {
    /// Requests per evaluation window.
    pub load: usize,
    pub points: Vec<CongestionPoint>,
}

impl CongestionSweep {
    /// Run: `load` simultaneous requests against the air-ground network at
    /// each attempt rate, one 30 s window, seeded.
    ///
    /// Each point is one capacity-admitted [`serve_overload`] pass over
    /// step 0: every request arrives there with equal priority, so
    /// admission order is request order; a single attempt per request, no
    /// holds and no overload mechanism. A request whose route hits an
    /// exhausted link budget is a congestion deferral; `src == dst`
    /// requests are rejected at ingest and count as neither served nor
    /// congested.
    pub fn run(scenario: &Qntn, rates_hz: &[f64], load: usize, seed: u64) -> CongestionSweep {
        let arch = AirGround::new(scenario, SimConfig::default());
        let sim = arch.sim();
        let engine = SweepEngine::for_steps(sim, &[0]);
        let workload = RequestWorkload::generate(sim, load, seed);
        let stream: Vec<RawRequest> = workload
            .requests
            .iter()
            .map(|r| RawRequest {
                src: r.src,
                dst: r.dst,
                arrival_step: 0,
                deadline_steps: 0,
                priority: 0,
            })
            .collect();
        let (queue, _rejected) = ingest(sim.hosts().len(), sim.steps(), &stream);
        let points = rates_hz
            .iter()
            .map(|&rate| {
                let model = CapacityModel {
                    attempt_rate_hz: rate,
                    window_s: 30.0,
                };
                let out = serve_overload(
                    &engine,
                    &queue,
                    RetryPolicy::none(),
                    RouteMetric::PaperInverseEta,
                    Some(model),
                    &HoldPolicy::disabled(),
                    &OverloadPolicy::disabled(),
                );
                CongestionPoint {
                    attempt_rate_hz: rate,
                    served_percent: 100.0 * out.served_count() as f64 / load as f64,
                    congestion_percent: 100.0 * out.congestion_deferrals as f64 / load as f64,
                }
            })
            .collect();
        CongestionSweep { load, points }
    }

    /// Lowest rate that serves everything, if any point does.
    pub fn saturation_rate_hz(&self) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.served_percent >= 100.0 - 1e-9)
            .map(|p| p.attempt_rate_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_is_monotone_in_rate() {
        let q = Qntn::standard();
        let sweep = CongestionSweep::run(&q, &[0.01, 0.1, 1.0, 10.0], 60, 7);
        for w in sweep.points.windows(2) {
            assert!(w[1].served_percent >= w[0].served_percent - 1e-9);
        }
        // Served + congested = 100 (air-ground always has routes).
        for p in &sweep.points {
            assert!((p.served_percent + p.congestion_percent - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn high_rate_recovers_the_ideal_assumption() {
        let q = Qntn::standard();
        let sweep = CongestionSweep::run(&q, &[100.0], 60, 7);
        assert!((sweep.points[0].served_percent - 100.0).abs() < 1e-9);
        assert_eq!(sweep.saturation_rate_hz(), Some(100.0));
    }

    #[test]
    fn starved_network_serves_little() {
        let q = Qntn::standard();
        let sweep = CongestionSweep::run(&q, &[0.001], 60, 7);
        assert!(
            sweep.points[0].served_percent < 20.0,
            "{}",
            sweep.points[0].served_percent
        );
        assert_eq!(sweep.saturation_rate_hz(), None);
    }

    /// Every point of two seeded sweeps, pinned by `to_bits` across the
    /// saturation knee: any change to admission order, budget
    /// accounting or routing in the admitted serve path shows up here.
    #[test]
    fn sweep_matches_its_recorded_goldens() {
        const RATES: [f64; 10] = [0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 10.0, 100.0];
        // (seed, per rate: served_percent bits, congestion_percent bits)
        let goldens: [(u64, [(u64, u64); 10]); 2] = [
            (
                7,
                [
                    (0x0000000000000000, 0x4059000000000000),
                    (0x0000000000000000, 0x4059000000000000),
                    (0x4030aaaaaaaaaaab, 0x4054d55555555555),
                    (0x403e000000000000, 0x4051800000000000),
                    (0x404ed55555555555, 0x40432aaaaaaaaaab),
                    (0x4054d55555555555, 0x4030aaaaaaaaaaab),
                    (0x40582aaaaaaaaaab, 0x400aaaaaaaaaaaab),
                    (0x4059000000000000, 0x0000000000000000),
                    (0x4059000000000000, 0x0000000000000000),
                    (0x4059000000000000, 0x0000000000000000),
                ],
            ),
            (
                2024,
                [
                    (0x0000000000000000, 0x4059000000000000),
                    (0x0000000000000000, 0x4059000000000000),
                    (0x4032555555555555, 0x40546aaaaaaaaaab),
                    (0x4040aaaaaaaaaaab, 0x4050aaaaaaaaaaab),
                    (0x4051800000000000, 0x403e000000000000),
                    (0x4056155555555555, 0x4027555555555555),
                    (0x4059000000000000, 0x0000000000000000),
                    (0x4059000000000000, 0x0000000000000000),
                    (0x4059000000000000, 0x0000000000000000),
                    (0x4059000000000000, 0x0000000000000000),
                ],
            ),
        ];
        let q = Qntn::standard();
        for (seed, expect) in goldens {
            let sweep = CongestionSweep::run(&q, &RATES, 60, seed);
            let got: Vec<(u64, u64)> = sweep
                .points
                .iter()
                .map(|p| (p.served_percent.to_bits(), p.congestion_percent.to_bits()))
                .collect();
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let q = Qntn::standard();
        let a = CongestionSweep::run(&q, &[0.5], 40, 11);
        let b = CongestionSweep::run(&q, &[0.5], 40, 11);
        assert!((a.points[0].served_percent - b.points[0].served_percent).abs() < 1e-12);
    }
}
