//! One bench per figure of the paper's evaluation section. Each bench runs
//! the same code path as the `reproduce` binary on a reduced workload (the
//! full paper workload is a multi-second batch job, not a microbenchmark;
//! `reproduce` regenerates the actual numbers).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use qntn_core::experiments::fig5::FidelityCurve;
use qntn_core::experiments::fig6::CoverageSweep;
use qntn_core::experiments::sweep::{ConstellationSweep, SweepSettings};
use qntn_core::scenario::Qntn;
use qntn_net::SimConfig;
use qntn_orbit::PerturbationModel;

fn fig5_fidelity_curve(c: &mut Criterion) {
    c.bench_function("fig5_fidelity_curve_101pts", |b| {
        b.iter(|| {
            let curve = FidelityCurve::paper();
            black_box(curve.points.len())
        })
    });
}

fn fig6_coverage_sweep(c: &mut Criterion) {
    let scenario = Qntn::standard();
    let mut g = c.benchmark_group("fig6_coverage_sweep");
    g.sample_size(10);
    g.bench_function("n6_full_day", |b| {
        b.iter(|| {
            let sweep = CoverageSweep::run(
                &scenario,
                SimConfig::default(),
                black_box(&[6]),
                PerturbationModel::TwoBody,
            );
            black_box(sweep.final_point().coverage_percent)
        })
    });
    g.finish();
}

fn fig7_served_requests(c: &mut Criterion) {
    let scenario = Qntn::standard();
    let mut g = c.benchmark_group("fig7_served_requests");
    g.sample_size(10);
    g.bench_function("n12_quick_workload", |b| {
        b.iter(|| {
            let sweep = ConstellationSweep::run(
                &scenario,
                SimConfig::default(),
                black_box(&[12]),
                SweepSettings::quick(),
                PerturbationModel::TwoBody,
            );
            black_box(sweep.final_point().stats.served())
        })
    });
    g.finish();
}

fn fig8_fidelity_sweep(c: &mut Criterion) {
    let scenario = Qntn::standard();
    // The fidelity series shares the sweep with fig7; bench the projection
    // plus the sweep's routing-heavy inner loop on a denser step sample.
    let mut g = c.benchmark_group("fig8_fidelity_sweep");
    g.sample_size(10);
    let settings = SweepSettings {
        sampled_steps: 16,
        requests_per_step: 25,
        ..SweepSettings::quick()
    };
    g.bench_function("n18_16steps_25req", |b| {
        b.iter(|| {
            let sweep = ConstellationSweep::run(
                &scenario,
                SimConfig::default(),
                black_box(&[18]),
                settings,
                PerturbationModel::TwoBody,
            );
            black_box(sweep.final_point().stats.mean_fidelity)
        })
    });
    g.finish();
}

criterion_group!(
    figures,
    fig5_fidelity_curve,
    fig6_coverage_sweep,
    fig7_served_requests,
    fig8_fidelity_sweep
);
criterion_main!(figures);
