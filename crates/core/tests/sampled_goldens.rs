//! Bit-level goldens for the paper's sampled-step request experiment.
//!
//! Fig. 7/8, Table III, the fault ladder and the QKD extension all serve
//! seeded inter-LAN requests at sampled steps. These tests pin the raw
//! bit pattern (`f64::to_bits`) of every float and every count those
//! experiments report, on small workloads, so any change to how requests
//! are generated, routed, realized or folded must reproduce them exactly.
//! The constants were recorded from the repository's own output.

use qntn_core::architecture::{AirGround, SpaceGround};
use qntn_core::experiments::faults::{FaultArchPoint, FaultExperiment};
use qntn_core::experiments::fidelity::{ArchReport, FidelityExperiment};
use qntn_core::experiments::qkd::{QkdExperiment, QkdReport};
use qntn_core::experiments::sweep::{ConstellationSweep, SweepSettings};
use qntn_core::scenario::Qntn;
use qntn_net::SimConfig;
use qntn_orbit::PerturbationModel;

/// Labelled bit patterns, in recording order.
#[derive(Default)]
struct Bits(Vec<(String, u64)>);

impl Bits {
    fn f(&mut self, label: String, x: f64) {
        self.0.push((label, x.to_bits()));
    }

    fn n(&mut self, label: String, x: usize) {
        self.0.push((label, x as u64));
    }

    fn arch(&mut self, tag: &str, r: &ArchReport) {
        self.f(format!("{tag}.coverage_percent"), r.coverage_percent);
        self.f(format!("{tag}.served_percent"), r.served_percent);
        self.f(format!("{tag}.mean_fidelity"), r.mean_fidelity);
        self.f(format!("{tag}.mean_link_fidelity"), r.mean_link_fidelity);
        self.f(format!("{tag}.mean_eta"), r.mean_eta);
        self.f(format!("{tag}.mean_hops"), r.mean_hops);
        self.n(format!("{tag}.attempted"), r.stats.attempted);
        self.n(format!("{tag}.served"), r.stats.served());
    }

    fn fault(&mut self, tag: &str, p: &FaultArchPoint) {
        self.f(format!("{tag}.coverage_percent"), p.coverage_percent);
        self.f(format!("{tag}.served_percent"), p.served_percent);
        self.f(format!("{tag}.first_try_percent"), p.first_try_percent);
        self.f(format!("{tag}.rescued_percent"), p.rescued_percent);
        self.f(format!("{tag}.expired_percent"), p.expired_percent);
        let s = &p.stats;
        self.n(format!("{tag}.attempted"), s.attempted);
        self.n(format!("{tag}.served_first_try"), s.served_first_try);
        self.n(format!("{tag}.served_after_retry"), s.served_after_retry);
        self.n(format!("{tag}.expired"), s.expired);
        self.f(format!("{tag}.mean_fidelity"), s.mean_fidelity);
        self.f(format!("{tag}.mean_link_fidelity"), s.mean_link_fidelity);
        self.f(format!("{tag}.mean_eta"), s.mean_eta);
        self.f(format!("{tag}.mean_hops"), s.mean_hops);
        self.f(format!("{tag}.mean_attempts"), s.mean_attempts);
        self.f(format!("{tag}.mean_wait_steps"), s.mean_wait_steps);
    }

    fn qkd(&mut self, tag: &str, r: &QkdReport) {
        self.n(format!("{tag}.attempted"), r.attempted);
        self.n(format!("{tag}.served"), r.served);
        self.n(format!("{tag}.key_capable"), r.key_capable);
        self.f(format!("{tag}.mean_key_fraction"), r.mean_key_fraction);
    }

    /// Compare against `pinned`; on mismatch, print the recorded table in
    /// source form so a deliberate change can be re-pinned.
    fn check(&self, pinned: &[(&str, u64)]) {
        let got: Vec<(&str, u64)> = self.0.iter().map(|(l, b)| (l.as_str(), *b)).collect();
        if got != pinned {
            let table: String = got
                .iter()
                .map(|(l, b)| format!("        (\"{l}\", {b:#018x}),\n"))
                .collect();
            panic!("sampled goldens moved; recorded:\n{table}");
        }
    }
}

#[test]
fn constellation_sweep_bits_are_pinned() {
    let sweep = ConstellationSweep::run(
        &Qntn::standard(),
        SimConfig::default(),
        &[6, 24],
        SweepSettings::quick(),
        PerturbationModel::TwoBody,
    );
    let mut bits = Bits::default();
    for p in &sweep.points {
        let tag = format!("sweep[{}]", p.satellites);
        let s = &p.stats;
        bits.n(format!("{tag}.attempted"), s.attempted);
        bits.n(format!("{tag}.served"), s.served());
        bits.f(format!("{tag}.served_percent"), s.served_percent());
        bits.f(format!("{tag}.mean_fidelity"), s.mean_fidelity);
        bits.f(format!("{tag}.mean_link_fidelity"), s.mean_link_fidelity);
        bits.f(format!("{tag}.mean_eta"), s.mean_eta);
        bits.f(format!("{tag}.mean_hops"), s.mean_hops);
    }
    bits.check(&[
        ("sweep[6].attempted", 0x00000000000000a0),
        ("sweep[6].served", 0x0000000000000000),
        ("sweep[6].served_percent", 0x0000000000000000),
        ("sweep[6].mean_fidelity", 0x0000000000000000),
        ("sweep[6].mean_link_fidelity", 0x0000000000000000),
        ("sweep[6].mean_eta", 0x0000000000000000),
        ("sweep[6].mean_hops", 0x0000000000000000),
        ("sweep[24].attempted", 0x00000000000000a0),
        ("sweep[24].served", 0x0000000000000014),
        ("sweep[24].served_percent", 0x4029000000000000),
        ("sweep[24].mean_fidelity", 0x3fec001c58ca2122),
        ("sweep[24].mean_link_fidelity", 0x3feddb675d787415),
        ("sweep[24].mean_eta", 0x3fe200c69797d6a4),
        ("sweep[24].mean_hops", 0x4000000000000000),
    ]);
}

#[test]
fn fidelity_experiment_bits_are_pinned() {
    let q = Qntn::standard();
    let e = FidelityExperiment::quick();
    let mut bits = Bits::default();
    bits.arch("air", &e.run_air_ground(&AirGround::standard(&q)));
    let space = SpaceGround::new(&q, 12, SimConfig::default(), PerturbationModel::TwoBody);
    bits.arch("space12", &e.run_space_ground(&space));
    // Twelve satellites serve nothing in four sampled steps; the paper's
    // 108 gives the fidelity fold something to sum.
    let space = SpaceGround::new(&q, 108, SimConfig::default(), PerturbationModel::TwoBody);
    bits.arch("space108", &e.run_space_ground(&space));
    bits.check(&[
        ("air.coverage_percent", 0x4059000000000000),
        ("air.served_percent", 0x4059000000000000),
        ("air.mean_fidelity", 0x3fef8c46bc9a66ed),
        ("air.mean_link_fidelity", 0x3fefc5b948d006fb),
        ("air.mean_eta", 0x3fee37a53f16ccb3),
        ("air.mean_hops", 0x4000000000000000),
        ("air.attempted", 0x0000000000000050),
        ("air.served", 0x0000000000000050),
        ("space12.coverage_percent", 0x0000000000000000),
        ("space12.served_percent", 0x0000000000000000),
        ("space12.mean_fidelity", 0x0000000000000000),
        ("space12.mean_link_fidelity", 0x0000000000000000),
        ("space12.mean_eta", 0x0000000000000000),
        ("space12.mean_hops", 0x0000000000000000),
        ("space12.attempted", 0x0000000000000050),
        ("space12.served", 0x0000000000000000),
        ("space108.coverage_percent", 0x4049000000000000),
        ("space108.served_percent", 0x4049000000000000),
        ("space108.mean_fidelity", 0x3fec885d1191e706),
        ("space108.mean_link_fidelity", 0x3fee285ead03b022),
        ("space108.mean_eta", 0x3fe3ab9cb8268458),
        ("space108.mean_hops", 0x4000000000000000),
        ("space108.attempted", 0x0000000000000050),
        ("space108.served", 0x0000000000000028),
    ]);
}

#[test]
fn fault_ladder_bits_are_pinned() {
    let sweep = FaultExperiment::quick().run(&Qntn::standard(), SimConfig::default());
    let mut bits = Bits::default();
    for (i, p) in sweep.points.iter().enumerate() {
        bits.f(format!("faults[{i}].intensity"), p.intensity);
        bits.fault(&format!("faults[{i}].space"), &p.space);
        bits.fault(&format!("faults[{i}].air"), &p.air);
    }
    bits.check(&[
        ("faults[0].intensity", 0x0000000000000000),
        ("faults[0].space.coverage_percent", 0x4010ce38e38e38e4),
        ("faults[0].space.served_percent", 0x4029000000000000),
        ("faults[0].space.first_try_percent", 0x0000000000000000),
        ("faults[0].space.rescued_percent", 0x4029000000000000),
        ("faults[0].space.expired_percent", 0x4055e00000000000),
        ("faults[0].space.attempted", 0x0000000000000078),
        ("faults[0].space.served_first_try", 0x0000000000000000),
        ("faults[0].space.served_after_retry", 0x000000000000000f),
        ("faults[0].space.expired", 0x0000000000000069),
        ("faults[0].space.mean_fidelity", 0x3fed92607da907c3),
        ("faults[0].space.mean_link_fidelity", 0x3feebc6b45f16bbe),
        ("faults[0].space.mean_eta", 0x3fe706560cc8d653),
        ("faults[0].space.mean_hops", 0x4000000000000000),
        ("faults[0].space.mean_attempts", 0x400f000000000000),
        ("faults[0].space.mean_wait_steps", 0x4018000000000000),
        ("faults[0].air.coverage_percent", 0x4059000000000000),
        ("faults[0].air.served_percent", 0x4059000000000000),
        ("faults[0].air.first_try_percent", 0x4059000000000000),
        ("faults[0].air.rescued_percent", 0x0000000000000000),
        ("faults[0].air.expired_percent", 0x0000000000000000),
        ("faults[0].air.attempted", 0x0000000000000078),
        ("faults[0].air.served_first_try", 0x0000000000000078),
        ("faults[0].air.served_after_retry", 0x0000000000000000),
        ("faults[0].air.expired", 0x0000000000000000),
        ("faults[0].air.mean_fidelity", 0x3fef8c17b2ecbc80),
        ("faults[0].air.mean_link_fidelity", 0x3fefc5a16b55e1d7),
        ("faults[0].air.mean_eta", 0x3fee36ee753fb5ad),
        ("faults[0].air.mean_hops", 0x4000000000000000),
        ("faults[0].air.mean_attempts", 0x3ff0000000000000),
        ("faults[0].air.mean_wait_steps", 0x0000000000000000),
        ("faults[1].intensity", 0x3ff0000000000000),
        ("faults[1].space.coverage_percent", 0x400ff1c71c71c71c),
        ("faults[1].space.served_percent", 0x4029000000000000),
        ("faults[1].space.first_try_percent", 0x0000000000000000),
        ("faults[1].space.rescued_percent", 0x4029000000000000),
        ("faults[1].space.expired_percent", 0x4055e00000000000),
        ("faults[1].space.attempted", 0x0000000000000078),
        ("faults[1].space.served_first_try", 0x0000000000000000),
        ("faults[1].space.served_after_retry", 0x000000000000000f),
        ("faults[1].space.expired", 0x0000000000000069),
        ("faults[1].space.mean_fidelity", 0x3fed92607da907c3),
        ("faults[1].space.mean_link_fidelity", 0x3feebc6b45f16bbe),
        ("faults[1].space.mean_eta", 0x3fe706560cc8d653),
        ("faults[1].space.mean_hops", 0x4000000000000000),
        ("faults[1].space.mean_attempts", 0x400f000000000000),
        ("faults[1].space.mean_wait_steps", 0x4018000000000000),
        ("faults[1].air.coverage_percent", 0x4059000000000000),
        ("faults[1].air.served_percent", 0x4059000000000000),
        ("faults[1].air.first_try_percent", 0x4058caaaaaaaaaab),
        ("faults[1].air.rescued_percent", 0x3feaaaaaaaaaaaab),
        ("faults[1].air.expired_percent", 0x0000000000000000),
        ("faults[1].air.attempted", 0x0000000000000078),
        ("faults[1].air.served_first_try", 0x0000000000000077),
        ("faults[1].air.served_after_retry", 0x0000000000000001),
        ("faults[1].air.expired", 0x0000000000000000),
        ("faults[1].air.mean_fidelity", 0x3fef8c17b2ecbc80),
        ("faults[1].air.mean_link_fidelity", 0x3fefc5a16b55e1d7),
        ("faults[1].air.mean_eta", 0x3fee36ee753fb5ad),
        ("faults[1].air.mean_hops", 0x4000000000000000),
        ("faults[1].air.mean_attempts", 0x3ff0666666666666),
        ("faults[1].air.mean_wait_steps", 0x3fbdddddddddddde),
        ("faults[2].intensity", 0x4010000000000000),
        ("faults[2].space.coverage_percent", 0x4006800000000000),
        ("faults[2].space.served_percent", 0x4029000000000000),
        ("faults[2].space.first_try_percent", 0x0000000000000000),
        ("faults[2].space.rescued_percent", 0x4029000000000000),
        ("faults[2].space.expired_percent", 0x4055e00000000000),
        ("faults[2].space.attempted", 0x0000000000000078),
        ("faults[2].space.served_first_try", 0x0000000000000000),
        ("faults[2].space.served_after_retry", 0x000000000000000f),
        ("faults[2].space.expired", 0x0000000000000069),
        ("faults[2].space.mean_fidelity", 0x3fed92607da907c3),
        ("faults[2].space.mean_link_fidelity", 0x3feebc6b45f16bbe),
        ("faults[2].space.mean_eta", 0x3fe706560cc8d653),
        ("faults[2].space.mean_hops", 0x4000000000000000),
        ("faults[2].space.mean_attempts", 0x400f000000000000),
        ("faults[2].space.mean_wait_steps", 0x4018000000000000),
        ("faults[2].air.coverage_percent", 0x4051d238e38e38e4),
        ("faults[2].air.served_percent", 0x40528aaaaaaaaaab),
        ("faults[2].air.first_try_percent", 0x4052555555555555),
        ("faults[2].air.rescued_percent", 0x3feaaaaaaaaaaaab),
        ("faults[2].air.expired_percent", 0x4039d55555555555),
        ("faults[2].air.attempted", 0x0000000000000078),
        ("faults[2].air.served_first_try", 0x0000000000000058),
        ("faults[2].air.served_after_retry", 0x0000000000000001),
        ("faults[2].air.expired", 0x000000000000001f),
        ("faults[2].air.mean_fidelity", 0x3fef31f68e4a23db),
        ("faults[2].air.mean_link_fidelity", 0x3fef9644eefcb944),
        ("faults[2].air.mean_eta", 0x3fecf01ab9a69d2e),
        ("faults[2].air.mean_hops", 0x4000000000000000),
        ("faults[2].air.mean_attempts", 0x3ffccccccccccccd),
        ("faults[2].air.mean_wait_steps", 0x3fc42284508a1142),
    ]);
}

#[test]
fn qkd_experiment_bits_are_pinned() {
    let q = Qntn::standard();
    let e = QkdExperiment {
        sampled_steps: 6,
        requests_per_step: 20,
        seed: 7,
    };
    let mut bits = Bits::default();
    bits.qkd("air", &e.run_air_ground(&AirGround::standard(&q)));
    let space = SpaceGround::new(&q, 108, SimConfig::default(), PerturbationModel::TwoBody);
    bits.qkd("space108", &e.run_space_ground(&space));
    bits.check(&[
        ("air.attempted", 0x0000000000000078),
        ("air.served", 0x0000000000000078),
        ("air.key_capable", 0x0000000000000078),
        ("air.mean_key_fraction", 0x3fe6b27c2000d445),
        ("space108.attempted", 0x0000000000000078),
        ("space108.served", 0x000000000000003c),
        ("space108.key_capable", 0x0000000000000000),
        ("space108.mean_key_fraction", 0x0000000000000000),
    ]);
}
