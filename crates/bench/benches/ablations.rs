//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! - **A1 routing metric**: the paper's additive 1/(η+ε) vs the
//!   fidelity-optimal max-product metric vs hop count.
//! - **A2 elevation mode**: geometric per-pass elevation vs the paper's
//!   fixed π/9 parameter.
//! - **A3 propagation**: two-body vs J2-secular force models.
//! - **weather**: ideal vs degraded conditions (the paper's future work).
//!
//! Besides timing, each ablation prints its *quality* deltas once (via
//! eprintln) so `cargo bench` output doubles as the ablation record.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Once;

use qntn_channel::params::FsoParams;
use qntn_core::architecture::SpaceGround;
use qntn_core::experiments::fidelity::FidelityExperiment;
use qntn_core::experiments::fig6::CoverageSweep;
use qntn_core::experiments::serve_sampled;
use qntn_core::scenario::Qntn;
use qntn_net::requests::{aggregate_retry_outcomes, sample_steps, RetryPolicy, RetryStats};
use qntn_net::{QuantumNetworkSim, SimConfig, SweepEngine};
use qntn_orbit::PerturbationModel;
use qntn_routing::RouteMetric;

/// The paper's single-attempt request experiment at `steps`, 40 requests
/// per step, seed 2024.
fn sweep(sim: &QuantumNetworkSim, steps: &[usize], metric: RouteMetric) -> RetryStats {
    let engine = SweepEngine::for_steps(sim, steps);
    let outcomes = serve_sampled(&engine, steps, 40, 2024, metric, RetryPolicy::none());
    aggregate_retry_outcomes(&outcomes)
}

fn ablation_routing_metric(c: &mut Criterion) {
    let scenario = Qntn::standard();
    let arch = SpaceGround::new(
        &scenario,
        36,
        SimConfig::default(),
        PerturbationModel::TwoBody,
    );
    let steps = sample_steps(arch.sim().steps(), 12);

    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        eprintln!("\n[A1 routing metric @ 36 sats, 12 steps x 40 req]");
        for metric in [
            RouteMetric::PaperInverseEta,
            RouteMetric::NegLogEta,
            RouteMetric::HopCount,
        ] {
            let s = sweep(arch.sim(), &steps, metric);
            eprintln!(
                "  {:<24} served {:>5.1}%  F_end2end {:.4}  eta {:.4}  hops {:.2}",
                metric.label(),
                s.served_percent(),
                s.mean_fidelity,
                s.mean_eta,
                s.mean_hops
            );
        }
    });

    let mut g = c.benchmark_group("ablation_routing_metric");
    g.sample_size(10);
    for metric in [
        RouteMetric::PaperInverseEta,
        RouteMetric::NegLogEta,
        RouteMetric::HopCount,
    ] {
        g.bench_function(metric.label(), |b| {
            b.iter(|| black_box(sweep(arch.sim(), &steps, metric).served()))
        });
    }
    g.finish();
}

fn ablation_elevation_mode(c: &mut Criterion) {
    let scenario = Qntn::standard();
    let geometric = SimConfig::default();
    let fixed = SimConfig {
        fso: FsoParams::ideal_fixed_elevation(),
        ..SimConfig::default()
    };

    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        eprintln!("\n[A2 elevation mode @ 12 sats, full-day coverage]");
        for (name, cfg) in [
            ("geometric", geometric),
            ("fixed pi/9 (paper's parameter)", fixed),
        ] {
            let sweep = CoverageSweep::run(&scenario, cfg, &[12], PerturbationModel::TwoBody);
            eprintln!(
                "  {:<32} coverage {:>5.2}%",
                name,
                sweep.final_point().coverage_percent
            );
        }
    });

    let mut g = c.benchmark_group("ablation_elevation_mode");
    g.sample_size(10);
    g.bench_function("geometric", |b| {
        b.iter(|| {
            black_box(
                CoverageSweep::run(&scenario, geometric, &[6], PerturbationModel::TwoBody)
                    .final_point()
                    .coverage_percent,
            )
        })
    });
    g.bench_function("fixed_pi_9", |b| {
        b.iter(|| {
            black_box(
                CoverageSweep::run(&scenario, fixed, &[6], PerturbationModel::TwoBody)
                    .final_point()
                    .coverage_percent,
            )
        })
    });
    g.finish();
}

fn ablation_propagation(c: &mut Criterion) {
    let scenario = Qntn::standard();

    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        eprintln!("\n[A3 propagation model @ 12 sats, full-day coverage]");
        for (name, model) in [
            ("two-body", PerturbationModel::TwoBody),
            ("J2 secular", PerturbationModel::J2Secular),
        ] {
            let sweep = CoverageSweep::run(&scenario, SimConfig::default(), &[12], model);
            eprintln!(
                "  {:<12} coverage {:>5.2}%",
                name,
                sweep.final_point().coverage_percent
            );
        }
    });

    let mut g = c.benchmark_group("ablation_propagation");
    g.sample_size(10);
    for (name, model) in [
        ("two_body", PerturbationModel::TwoBody),
        ("j2_secular", PerturbationModel::J2Secular),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(SpaceGround::ephemerides(6, model).len()))
        });
    }
    g.finish();
}

fn ablation_weather(c: &mut Criterion) {
    let scenario = Qntn::standard();
    let experiment = FidelityExperiment {
        sampled_steps: 6,
        requests_per_step: 25,
        ..FidelityExperiment::quick()
    };

    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        eprintln!("\n[weather sensitivity @ air-ground]");
        for w in [1.0, 4.0, 16.0] {
            let cfg = SimConfig {
                fso: FsoParams::ideal().with_weather(w),
                ..SimConfig::default()
            };
            let air = qntn_core::architecture::AirGround::new(&scenario, cfg);
            let r = experiment.run_air_ground(&air);
            eprintln!(
                "  weather x{:<4} served {:>5.1}%  F {:.4}",
                w, r.served_percent, r.mean_fidelity
            );
        }
    });

    let mut g = c.benchmark_group("ablation_weather");
    g.sample_size(10);
    for w in [1.0_f64, 16.0] {
        let cfg = SimConfig {
            fso: FsoParams::ideal().with_weather(w),
            ..SimConfig::default()
        };
        g.bench_function(format!("weather_x{w}"), |b| {
            let air = qntn_core::architecture::AirGround::new(&scenario, cfg);
            b.iter(|| black_box(experiment.run_air_ground(&air).served_percent))
        });
    }
    g.finish();
}

fn ablation_night_ops(c: &mut Criterion) {
    use qntn_core::experiments::night::NightOps;
    use qntn_orbit::Twilight;
    let scenario = Qntn::standard();

    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        eprintln!("\n[night ops @ 24 sats]");
        let r = NightOps {
            twilight: Twilight::Astronomical,
            satellites: 24,
        }
        .run(&scenario, SimConfig::default());
        eprintln!(
            "  dark {:.1}%  space nominal {:.2}% -> gated {:.2}%  air gated {:.2}%",
            r.dark_percent, r.space_nominal_percent, r.space_night_percent, r.air_night_percent
        );
    });

    let mut g = c.benchmark_group("ablation_night_ops");
    g.sample_size(10);
    g.bench_function("astro_12sats", |b| {
        b.iter(|| {
            black_box(
                NightOps {
                    twilight: Twilight::Astronomical,
                    satellites: 12,
                }
                .run(&scenario, SimConfig::default())
                .space_night_percent,
            )
        })
    });
    g.finish();
}

criterion_group!(
    ablations,
    ablation_routing_metric,
    ablation_elevation_mode,
    ablation_propagation,
    ablation_weather,
    ablation_night_ops
);
criterion_main!(ablations);
