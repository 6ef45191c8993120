//! The three workloads: how each builds its network, what one timed pass
//! does, and how its output is fingerprinted and verified.

use qntn_core::architecture::{default_epoch, SpaceGround};
use qntn_core::scenario::Qntn;
use qntn_geo::Epoch;
use qntn_net::capacity::CapacityModel;
use qntn_net::faults::{CompiledFaults, FaultModel};
use qntn_net::requests::{Request, RequestWorkload, RetryOutcome, RetryPolicy};
use qntn_net::{ContactWindows, HostKind, SimConfig, SweepEngine};
use qntn_orbit::ephemeris::{PAPER_DURATION_S, PAPER_STEP_S};
use qntn_orbit::{paper_constellation, scaled_shell, Ephemeris, PerturbationModel, Propagator};
use qntn_routing::RouteMetric;
use qntn_serve::{
    flash_crowd, generate, ingest, overload_report, report_from_aggs, serve_full, serve_overload,
    serve_report, FlashCrowdConfig, GroupAgg, HoldPolicy, OverloadOutcome, OverloadPolicy,
    RawRequest, RequestQueue, ServeReport, ShedReason, WorkloadKind, DEGRADE_MODES,
};
use std::sync::Arc;

use crate::trace::Trace;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1080-satellite Walker shell, ISLs off, full-day connectivity sweep.
    Shell1080Sweep,
    /// The paper's 108-satellite day serving 1M uniform requests.
    Paper108Serve1m,
    /// 108 satellites, 150k flash crowd under admission, overload control,
    /// memory holds and an intensity-2.0 fault mask.
    Flash150kOverloadHold,
}

pub const ALL: [Workload; 3] = [
    Workload::Shell1080Sweep,
    Workload::Paper108Serve1m,
    Workload::Flash150kOverloadHold,
];

/// Fault intensity of the overload workload's mask.
pub const FAULT_INTENSITY: f64 = 2.0;
/// Fault-schedule seed of the overload workload: the overload
/// experiment's fixed schedule. It is part of the network, like the
/// constellation; the run seed varies the traffic.
pub const FAULT_SEED: u64 = 42;
/// Memory-hold horizon of the overload workload, steps.
pub const HOLD_HORIZON: usize = 6;
/// Capacity admission of the overload workload.
pub const CAPACITY: CapacityModel = CapacityModel {
    attempt_rate_hz: 5.0,
    window_s: 30.0,
};
pub const METRIC: RouteMetric = RouteMetric::PaperInverseEta;

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Shell1080Sweep => "shell1080_sweep",
            Workload::Paper108Serve1m => "paper108_serve1m",
            Workload::Flash150kOverloadHold => "flash150k_overload_hold",
        }
    }

    pub fn satellites(self) -> usize {
        match self {
            Workload::Shell1080Sweep => 1080,
            _ => 108,
        }
    }

    /// Requests generated per pass (0 for the sweep).
    pub fn requests(self) -> usize {
        match self {
            Workload::Shell1080Sweep => 0,
            Workload::Paper108Serve1m => 1_000_000,
            Workload::Flash150kOverloadHold => 150_000,
        }
    }

    /// Worker threads of the timed passes (capped at `nproc`).
    pub fn threads(self) -> usize {
        match self {
            Workload::Flash150kOverloadHold => 1,
            _ => 2,
        }
    }

    /// Fresh builds per run; `setup_s` is their median.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::Shell1080Sweep => 5,
            _ => 11,
        }
    }

    fn config(self) -> SimConfig {
        match self {
            // The O(N²) ISL pair loop would swamp the ground-visibility
            // machinery this workload measures.
            Workload::Shell1080Sweep => SimConfig {
                enable_isl: false,
                ..SimConfig::default()
            },
            _ => SimConfig::default(),
        }
    }

    fn faulted(self) -> bool {
        self == Workload::Flash150kOverloadHold
    }

    /// Satellites' Keplerian elements and the epoch the day starts at.
    /// The shell's start time moves with the seed (whole minutes within
    /// one day), so each seed sweeps different ground tracks; the paper
    /// workloads keep the paper's epoch and draw their requests from the
    /// seed instead.
    fn propagators(self, seed: u64) -> (Vec<Propagator>, Epoch) {
        let mut epoch = default_epoch();
        let elements = match self {
            Workload::Shell1080Sweep => {
                epoch.offset_s += (seed % 1440) as f64 * 60.0;
                scaled_shell(self.satellites()).elements()
            }
            _ => paper_constellation(self.satellites()),
        };
        let props = elements
            .into_iter()
            .map(|k| Propagator::new(k, epoch, PerturbationModel::TwoBody))
            .collect();
        (props, epoch)
    }
}

/// Everything a pass needs that set-up builds: the network and, for the
/// overload workload, its fault mask.
pub struct World {
    pub workload: Workload,
    pub seed: u64,
    pub arch: SpaceGround,
    pub faults: Option<Arc<CompiledFaults>>,
}

/// Named set-up stages, in order; the traced run wraps each in a span.
pub trait Stages {
    fn stage<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// Untraced set-up: stages just run.
pub struct Plain;

impl Stages for Plain {
    fn stage<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Traced set-up: one span per stage under `parent`.
pub struct Traced<'t> {
    pub trace: &'t mut Trace,
    pub parent: u32,
}

impl Stages for Traced<'_> {
    fn stage<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.trace.span(name, self.parent, f)
    }
}

impl World {
    /// Build the constellation's ephemerides, the simulator and (overload
    /// workload) the fault mask. The engine is built separately by
    /// [`World::engine`] because it borrows the simulator.
    pub fn build(workload: Workload, seed: u64, stages: &mut impl Stages) -> World {
        let (props, epoch) = workload.propagators(seed);
        let ephemerides = stages.stage("orbit.ephemeris", || {
            Ephemeris::generate_many(&props, epoch, PAPER_STEP_S, PAPER_DURATION_S)
        });
        let arch = stages.stage("net.sim", || {
            SpaceGround::from_ephemerides(&Qntn::standard(), ephemerides, workload.config())
        });
        let faults = workload
            .faulted()
            .then(|| stages.stage("net.faults", || Arc::new(fault_mask(arch.sim()))));
        World {
            workload,
            seed,
            arch,
            faults,
        }
    }

    /// Contact windows, then the window-pruned Scene (`Scene::new`) inside
    /// the engine.
    pub fn engine(&self, stages: &mut impl Stages) -> SweepEngine<'_> {
        let sim = self.arch.sim();
        let windows = stages.stage("net.windows", || ContactWindows::for_sim(sim));
        let engine = stages.stage("net.scene", || SweepEngine::with_windows(sim, windows));
        match &self.faults {
            Some(f) => engine.with_faults(Arc::clone(f)),
            None => engine,
        }
    }

    /// The workload's request stream (generation is not timed).
    pub fn stream(&self) -> Vec<RawRequest> {
        let sim = self.arch.sim();
        match self.workload {
            Workload::Shell1080Sweep => Vec::new(),
            Workload::Paper108Serve1m => generate(
                sim,
                WorkloadKind::Uniform,
                self.workload.requests(),
                self.seed,
            ),
            Workload::Flash150kOverloadHold => flash_crowd(
                sim,
                self.workload.requests(),
                self.seed,
                FlashCrowdConfig::default(),
            ),
        }
    }

    pub fn ingest(&self, stream: &[RawRequest]) -> (RequestQueue, u64) {
        let sim = self.arch.sim();
        let (queue, rejected) = ingest(sim.hosts().len(), sim.steps(), stream);
        (queue, rejected.len() as u64)
    }
}

/// The overload workload's fault mask.
pub fn fault_mask(sim: &qntn_net::QuantumNetworkSim) -> CompiledFaults {
    FaultModel::standard(FAULT_SEED)
        .with_intensity(FAULT_INTENSITY)
        .compile(sim)
}

/// One timed pass. Returns the output fingerprint.
pub fn pass(world: &World, engine: &SweepEngine<'_>, stream: &[RawRequest]) -> u64 {
    match world.workload {
        Workload::Shell1080Sweep => flags_fingerprint(&engine.connectivity_flags()),
        Workload::Paper108Serve1m => serve_fingerprint(world, engine, stream),
        Workload::Flash150kOverloadHold => overload_fingerprint(world, engine, stream),
    }
}

/// `ingest` + `serve_report`, fingerprinted.
pub fn serve_fingerprint(world: &World, engine: &SweepEngine<'_>, stream: &[RawRequest]) -> u64 {
    let (queue, rejected) = world.ingest(stream);
    let report = serve_report(engine, &queue, RetryPolicy::standard(), METRIC, rejected);
    report_fingerprint(&queue, rejected, &report)
}

/// The serve pass's output: queue size, rejections and the report bytes.
pub fn report_fingerprint(queue: &RequestQueue, rejected: u64, report: &ServeReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(queue.len() as u64);
    h.u64(rejected);
    h.bytes(report.to_json().as_bytes());
    h.finish()
}

/// `ingest` + `serve_overload`, fingerprinted.
pub fn overload_fingerprint(world: &World, engine: &SweepEngine<'_>, stream: &[RawRequest]) -> u64 {
    let (queue, rejected) = world.ingest(stream);
    let out = serve_overload(
        engine,
        &queue,
        RetryPolicy::standard(),
        METRIC,
        Some(CAPACITY),
        &HoldPolicy::with_horizon(HOLD_HORIZON),
        &OverloadPolicy::standard(world.seed),
    );
    let report = overload_report(&out, &queue, rejected);
    OverloadParts::from(&out).fingerprint(&queue, rejected, &report)
}

pub fn flags_fingerprint(flags: &[bool]) -> u64 {
    let mut h = Fnv::new();
    for &f in flags {
        h.u64(f as u64);
    }
    h.finish()
}

/// Everything an overload run reports: outcomes, shed reasons and the
/// overload layer's counters. Built from an [`OverloadOutcome`] for the
/// timed pass and from the loop's own state by the replay.
pub struct OverloadParts<'a> {
    pub outcomes: &'a [RetryOutcome],
    pub shed: &'a [Option<ShedReason>],
    pub congestion_deferrals: u64,
    pub budget_deferrals: u64,
    pub degrade_mode_steps: [u64; DEGRADE_MODES],
}

impl<'a> From<&'a OverloadOutcome> for OverloadParts<'a> {
    fn from(out: &'a OverloadOutcome) -> OverloadParts<'a> {
        OverloadParts {
            outcomes: &out.outcomes,
            shed: &out.shed,
            congestion_deferrals: out.congestion_deferrals,
            budget_deferrals: out.budget_deferrals,
            degrade_mode_steps: out.degrade_mode_steps,
        }
    }
}

impl OverloadParts<'_> {
    pub fn served(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.distribution().is_some())
            .count() as u64
    }

    pub fn shed_count(&self) -> u64 {
        self.shed.iter().filter(|s| s.is_some()).count() as u64
    }

    /// The SLO report, folded as `qntn_serve::overload_report` folds it.
    pub fn report(&self, queue: &RequestQueue, rejected: u64) -> ServeReport {
        let classes: Vec<usize> = (0..queue.len()).map(|qi| queue.class(qi)).collect();
        let agg = GroupAgg::from_outcomes(self.outcomes, &classes);
        let mut report = report_from_aggs(&[agg], rejected);
        report.shed = self.shed_count();
        report.deferred_by_budget = self.budget_deferrals;
        report.degrade_mode_steps = self.degrade_mode_steps;
        report
    }

    /// Every count of the run, each request's outcome and the report.
    pub fn fingerprint(&self, queue: &RequestQueue, rejected: u64, report: &ServeReport) -> u64 {
        let mut h = Fnv::new();
        h.u64(queue.len() as u64);
        h.u64(rejected);
        h.u64(self.served());
        h.u64(self.shed_count());
        h.u64(self.budget_deferrals);
        h.u64(self.congestion_deferrals);
        for m in self.degrade_mode_steps {
            h.u64(m);
        }
        for (o, s) in self.outcomes.iter().zip(self.shed) {
            outcome_into(&mut h, o);
            h.u64(s.map_or(0, |r| r as u64 + 1));
        }
        h.bytes(report.to_json().as_bytes());
        h.finish()
    }
}

fn outcome_into(h: &mut Fnv, o: &RetryOutcome) {
    match o {
        RetryOutcome::ServedFirstTry(d) => {
            h.u64(1);
            h.u64(d.fidelity.to_bits());
        }
        RetryOutcome::ServedAfterRetry {
            distribution,
            attempts,
            waited_steps,
        } => {
            h.u64(2);
            h.u64(distribution.fidelity.to_bits());
            h.u64(*attempts as u64);
            h.u64(*waited_steps as u64);
        }
        RetryOutcome::Expired { attempts } => {
            h.u64(3);
            h.u64(*attempts as u64);
        }
    }
}

/// FNV-1a, 64-bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Deterministic sample of `k` distinct indices below `n`, from `seed`.
pub fn sample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut x = seed ^ 0x2545_f491_4f6c_dd1d;
    let mut picked: Vec<usize> = Vec::with_capacity(k.min(n));
    while picked.len() < k.min(n) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % n as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}

/// Untimed oracle checks establishing that the engine's answers are right
/// before any pass is timed. Returns a description of the first mismatch.
pub fn verify_oracles(
    world: &World,
    engine: &SweepEngine<'_>,
    stream: &[RawRequest],
) -> Result<(), String> {
    match world.workload {
        Workload::Shell1080Sweep => verify_sweep(world, engine),
        Workload::Paper108Serve1m => verify_serve_sample(world, engine, stream),
        // The overload loop has no naive twin; its gate is exact equality
        // of every count and outcome across passes and thread counts.
        Workload::Flash150kOverloadHold => Ok(()),
    }
}

/// Sampled satellites' windows against `ContactWindows::compute_exhaustive`,
/// and sampled steps' active graphs and connectivity flags against the
/// naive simulator.
fn verify_sweep(world: &World, engine: &SweepEngine<'_>) -> Result<(), String> {
    let sim = world.arch.sim();
    let lows: Vec<_> = sim
        .hosts()
        .iter()
        .filter(|h| h.is_ground())
        .map(|h| h.geodetic_at(0))
        .collect();
    let ephs: Vec<&Ephemeris> = sim
        .hosts()
        .iter()
        .filter_map(|h| match &h.kind {
            HostKind::Satellite { ephemeris } => Some(ephemeris),
            _ => None,
        })
        .collect();
    let sats = sample(ephs.len(), 24, world.seed);
    let picked: Vec<&Ephemeris> = sats.iter().map(|&s| ephs[s]).collect();
    let exhaustive = ContactWindows::compute_exhaustive(&lows, &picked, sim.steps());
    let windows = engine.windows();
    for (k, &sat) in sats.iter().enumerate() {
        for step in 0..sim.steps() {
            for low in 0..lows.len() {
                if windows.visible(sat, step, low) != exhaustive.visible(k, step, low) {
                    return Err(format!(
                        "window mismatch: satellite {sat}, step {step}, site {low}"
                    ));
                }
            }
        }
    }
    let flags = engine.connectivity_flags();
    for step in sample(sim.steps(), 8, world.seed.rotate_left(17)) {
        let naive = sim.active_graph_at(step);
        let fast = engine.active_graph_at(step);
        let same = naive.node_count() == fast.node_count()
            && naive
                .edges()
                .map(|(u, v, e)| (u, v, e.to_bits()))
                .eq(fast.edges().map(|(u, v, e)| (u, v, e.to_bits())));
        if !same {
            return Err(format!(
                "active graph differs from the naive path at step {step}"
            ));
        }
        if flags[step] != sim.lans_interconnected(&naive) {
            return Err(format!("connectivity flag differs at step {step}"));
        }
    }
    Ok(())
}

/// Requests of sampled arrival groups served by the engine path
/// (`serve_full`) and by the naive per-request reference
/// (`RequestWorkload::evaluate_with_retries`), outcome for outcome.
fn verify_serve_sample(
    world: &World,
    engine: &SweepEngine<'_>,
    stream: &[RawRequest],
) -> Result<(), String> {
    let sim = world.arch.sim();
    let steps = sample(sim.steps(), 6, world.seed.rotate_left(29));
    let sub: Vec<RawRequest> = stream
        .iter()
        .filter(|r| steps.binary_search(&(r.arrival_step)).is_ok())
        .cloned()
        .collect();
    let (queue, _) = world.ingest(&sub);
    if queue.is_empty() {
        return Err("sampled arrival groups are empty".into());
    }
    let policy = RetryPolicy::standard();
    let fast = serve_full(engine, &queue, policy, METRIC);
    let clean = CompiledFaults::identity(sim.hosts().len(), sim.steps());
    for (arrival, range) in queue.groups().iter().cloned() {
        let mut deadlines: Vec<usize> = range
            .clone()
            .map(|qi| queue.deadline(qi).min(policy.deadline_steps))
            .collect();
        deadlines.sort_unstable();
        deadlines.dedup();
        for dl in deadlines {
            let members: Vec<usize> = range
                .clone()
                .filter(|&qi| queue.deadline(qi).min(policy.deadline_steps) == dl)
                .collect();
            let workload = RequestWorkload {
                requests: members
                    .iter()
                    .map(|&qi| Request {
                        src: queue.src(qi),
                        dst: queue.dst(qi),
                    })
                    .collect(),
            };
            let sub_policy = RetryPolicy {
                deadline_steps: dl,
                ..policy
            };
            let naive = workload.evaluate_with_retries(sim, arrival, METRIC, sub_policy, &clean);
            for (qi, o) in members.into_iter().zip(naive) {
                if fast[qi] != o {
                    return Err(format!(
                        "request {qi} (arrival {arrival}) differs from the naive reference"
                    ));
                }
            }
        }
    }
    Ok(())
}
