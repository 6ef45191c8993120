//! `qntnbench` — the QNTN benchmark harness.
//!
//! ```text
//! qntnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is a timed run: repeated fresh builds (`setup_s`), an
//! untimed verify phase that fixes the reference output fingerprint, then
//! warm passes until `--seconds` have elapsed, each checked against the
//! reference. It prints the end-to-end metrics.
//!
//! `--trace 1` is a traced run: the pass is replayed through each layer's
//! public entry points with spans around every call, and the per-layer
//! metrics are printed. Spans are written to
//! `qntnbench/out/trace-<workload>-seed<n>.json`.
//!
//! The last line of standard output is always the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exit code 0 on a
//! correct run, 1 when any output check fails, 2 on bad arguments.

mod host;
mod replay;
mod trace;
mod workloads;

use replay::{replay_overload, replay_serve, replay_sweep, Counts, Replay};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::{self_times, Record, Trace};
use workloads::{pass, verify_oracles, Plain, Traced, Workload, World};

/// Timed passes per run, at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Request count of the serve probe that measures, in a traced run, the
/// serving layers a workload's own pass does not reach.
const SERVE_PROBE_REQUESTS: usize = 5_000;

/// Request count of the overload probe. On the paper's 108-satellite
/// network it is the whole `flash150k_overload_hold` workload, so the
/// overload layers are measured at full scale there; on the 1080-satellite
/// shell a small crowd keeps the traced run short.
fn overload_probe_requests(wl: Workload) -> usize {
    match wl {
        Workload::Shell1080Sweep => 500,
        _ => Workload::Flash150kOverloadHold.requests(),
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qntnbench: {e}");
            eprintln!("usage: qntnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let threads = args.workload.threads().min(host::nproc());
    host::set_threads(threads);
    let outcome = if args.trace {
        traced(&args, threads)
    } else {
        timed(&args, threads)
    };
    println!("{}", outcome.result_json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The run record: everything needed to tell a slow host from a slow
/// program, printed as one JSON line ahead of the result.
fn run_record(args: &Args, threads: usize, extra: &[(&str, String)]) -> String {
    let mut s = format!(
        "{{\"record\": \"run\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"threads\": {threads}, \"git_describe\": \"{}\", \"rustc\": \"{}\"",
        args.workload.name(),
        args.seed,
        num(args.seconds),
        args.trace as u8,
        host::nproc(),
        host::git_describe(),
        host::rustc_version()
    );
    for (k, v) in extra {
        let _ = write!(s, ", \"{k}\": {v}");
    }
    s.push('}');
    s
}

/// Compare a pass fingerprint with the reference the verify phase fixed.
struct Gate {
    reference: u64,
}

impl Gate {
    fn check(&self, fingerprint: u64) -> bool {
        fingerprint == self.reference
    }

    /// Share of `fingerprints` the gate passes.
    fn ok_frac(&self, fingerprints: &[u64]) -> f64 {
        if fingerprints.is_empty() {
            return 0.0;
        }
        fingerprints.iter().filter(|&&f| self.check(f)).count() as f64 / fingerprints.len() as f64
    }
}

/// Build the workload `repeats` times from scratch and time each build;
/// the last build is kept. Nothing is shared between builds.
fn timed_builds(workload: Workload, seed: u64, repeats: usize) -> (World, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    for _ in 1..repeats {
        let t = Instant::now();
        let world = World::build(workload, seed, &mut Plain);
        let engine = world.engine(&mut Plain);
        times.push(t.elapsed().as_secs_f64());
        std::hint::black_box(&engine);
    }
    let t = Instant::now();
    let world = World::build(workload, seed, &mut Plain);
    // The kept engine is rebuilt by the caller (it borrows `world`); its
    // windows and Scene cost is timed here and the rebuild is not.
    let engine = world.engine(&mut Plain);
    times.push(t.elapsed().as_secs_f64());
    std::hint::black_box(&engine);
    drop(engine);
    (world, times)
}

fn timed(args: &Args, threads: usize) -> Outcome {
    let wl = args.workload;
    let steal0 = host::steal_s();
    let (world, setup) = timed_builds(wl, args.seed, wl.setup_repeats());
    let engine = world.engine(&mut Plain);
    let stream = world.stream();
    let mut errors = Vec::new();

    // Verify phase (untimed): oracle checks, then the reference
    // fingerprint. The serve workloads fix it at the *other* thread
    // count, so every timed pass also checks thread-count independence;
    // this pass doubles as warm-up.
    if let Err(e) = verify_oracles(&world, &engine, &stream) {
        errors.push(e);
    }
    let other = if threads > 1 { 1 } else { 2.min(host::nproc()) };
    let reference = if wl == Workload::Shell1080Sweep {
        pass(&world, &engine, &stream)
    } else {
        host::set_threads(other);
        let fp = pass(&world, &engine, &stream);
        host::set_threads(threads);
        fp
    };
    let gate = Gate { reference };
    // The gate must be able to fail: a corrupted reference rejects the
    // reference output itself.
    let corrupted = Gate {
        reference: reference ^ 1,
    };
    let selftest = corrupted.ok_frac(&[reference]);
    if selftest >= 1.0 {
        errors.push("fingerprint gate accepted a corrupted reference".into());
    }

    let (mut walls, mut cpus, mut calib, mut fps) = (vec![], vec![], vec![], vec![]);
    let t_run = Instant::now();
    loop {
        calib.push(host::calib_s());
        let c0 = host::process_cpu_s();
        let t = Instant::now();
        let fp = pass(&world, &engine, &stream);
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(host::process_cpu_s() - c0);
        fps.push(fp);
        if fps.len() >= MIN_PASSES && t_run.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let ok_frac = gate.ok_frac(&fps);
    let failed = fps.iter().filter(|&&f| !gate.check(f)).count();
    let steal = host::steal_s() - steal0;
    let peak = host::peak_rss_mb();

    println!(
        "{}",
        run_record(
            args,
            threads,
            &[
                ("passes", fps.len().to_string()),
                ("setup_repeats", setup.len().to_string()),
                ("setup_s_all", json_list(&setup)),
                ("wall_s_all", json_list(&walls)),
                ("cpu_s_all", json_list(&cpus)),
                ("host.calib_s", num(median(&calib))),
                ("host.steal_s", num(steal)),
                ("reference_fingerprint", format!("\"{reference:016x}\"")),
                ("gate_selftest_ok_frac", num(selftest)),
                ("errors", json_strings(&errors)),
            ],
        )
    );
    for e in &errors {
        eprintln!("qntnbench: {e}");
    }
    Outcome {
        attempted: fps.len(),
        failed,
        errors,
        metrics: vec![
            ("setup_s", median(&setup), "s"),
            ("wall_s", median(&walls), "s"),
            ("cpu_s", median(&cpus), "s"),
            ("peak_rss_mb", peak, "MiB"),
            ("ok_frac", ok_frac, "frac"),
        ],
    }
}

fn json_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| num(*x)).collect();
    format!("[{}]", items.join(", "))
}

fn json_strings(v: &[String]) -> String {
    let items: Vec<String> = v
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", items.join(", "))
}

/// Library entry-point layers: time inside these is "explained".
const LEAF_LAYERS: &[&str] = &[
    "net.topology",
    "net.connectivity",
    "net.texp",
    "routing.sssp",
    "routing.extract",
    "routing.time_sssp",
    "routing.time_extract",
    "net.realize",
    "serve.ingest",
    "serve.fold",
];

/// One replay of the traced run: whose pass it is, and what it did.
struct Scoped {
    own: bool,
    replay: Replay,
}

fn traced(args: &Args, threads: usize) -> Outcome {
    let wl = args.workload;
    let seed = args.seed;
    let steal0 = host::steal_s();
    let mut tr = Trace::new(Instant::now());
    let mut errors: Vec<String> = Vec::new();
    let mut calib = vec![host::calib_s()];

    // Set-up, one traced fresh build.
    let setup_id = tr.begin_pass();
    let root = tr.open("setup", 0);
    let world = World::build(
        wl,
        seed,
        &mut Traced {
            trace: &mut tr,
            parent: root.id(),
        },
    );
    let engine = world.engine(&mut Traced {
        trace: &mut tr,
        parent: root.id(),
    });
    tr.close(root);
    let sim = world.arch.sim();
    let stream = world.stream();

    // Untraced reference passes: warm-up, then the wall time the traced
    // replay is compared against.
    let reference = pass(&world, &engine, &stream);
    let mut untraced = Vec::new();
    for _ in 0..2 {
        calib.push(host::calib_s());
        let t = Instant::now();
        let fp = pass(&world, &engine, &stream);
        untraced.push(t.elapsed().as_secs_f64());
        if fp != reference {
            errors.push("untraced passes disagree".into());
        }
    }
    let wall = median(&untraced);
    // The single-thread baseline (the overload workload already runs on
    // one thread).
    let serial = if threads > 1 {
        host::set_threads(1);
        let t = Instant::now();
        let fp = pass(&world, &engine, &stream);
        let s = t.elapsed().as_secs_f64();
        host::set_threads(threads);
        if fp != reference {
            errors.push("single-thread pass differs".into());
        }
        s
    } else {
        wall
    };

    // The workload's own pass, replayed with spans, at its thread count
    // and again at the other thread count; both must reproduce the
    // reference output and the same counts.
    let other = if threads > 1 { 1 } else { 2.min(host::nproc()) };
    let own = |tr: &mut Trace| -> Replay {
        match wl {
            Workload::Shell1080Sweep => replay_sweep(&engine, tr),
            Workload::Paper108Serve1m => replay_serve(&world, &engine, &stream, tr),
            Workload::Flash150kOverloadHold => replay_overload(&world, &engine, &stream, tr),
        }
    };
    calib.push(host::calib_s());
    let first = own(&mut tr);
    host::set_threads(other);
    let mut scratch_trace = tr.fork();
    let second = own(&mut scratch_trace);
    host::set_threads(threads);
    for (r, t) in [(&first, threads), (&second, other)] {
        if r.fingerprint != reference {
            errors.push(format!(
                "traced replay at {t} thread(s) does not reproduce the pass output"
            ));
        }
    }
    if first.counts != second.counts {
        errors.push(format!(
            "layer counts differ between {threads} and {other} thread(s)"
        ));
    }
    let mut scoped = vec![Scoped {
        own: true,
        replay: first,
    }];

    // Probes: the layers this workload's pass does not reach, measured on
    // this workload's network at a small fixed load.
    let faults_probe = if world.faults.is_none() {
        let id = tr.begin_pass();
        let probe = tr.open("probe", 0);
        let mask = tr.span("net.faults", probe.id(), || workloads::fault_mask(sim));
        tr.close(probe);
        Some((id, std::sync::Arc::new(mask)))
    } else {
        None
    };
    if wl != Workload::Shell1080Sweep {
        scoped.push(Scoped {
            own: false,
            replay: replay_sweep(&engine, &mut tr),
        });
    }
    if wl != Workload::Paper108Serve1m {
        let probe = qntn_serve::generate(
            sim,
            qntn_serve::WorkloadKind::Uniform,
            SERVE_PROBE_REQUESTS,
            seed,
        );
        let r = replay_serve(&world, &engine, &probe, &mut tr);
        if workloads::serve_fingerprint(&world, &engine, &probe) != r.fingerprint {
            errors.push("serve probe replay differs from serve_report".into());
        }
        scoped.push(Scoped {
            own: false,
            replay: r,
        });
    }
    if wl != Workload::Flash150kOverloadHold {
        let probe = qntn_serve::flash_crowd(
            sim,
            overload_probe_requests(wl),
            seed,
            qntn_serve::FlashCrowdConfig::default(),
        );
        let mask = faults_probe
            .as_ref()
            .map(|(_, m)| std::sync::Arc::clone(m))
            .expect("unfaulted workloads compile a probe mask");
        let faulted = engine.clone().with_faults(mask);
        let r = replay_overload(&world, &faulted, &probe, &mut tr);
        if workloads::overload_fingerprint(&world, &faulted, &probe) != r.fingerprint {
            errors.push("overload probe replay differs from serve_overload".into());
        }
        scoped.push(Scoped {
            own: false,
            replay: r,
        });
    }

    // map_steps with a no-op closure: the stage's own spawn/join cost.
    let steps: Vec<usize> = (0..sim.steps()).collect();
    let mut noop = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(engine.map_steps(&steps, |_, s| s));
        noop.push(t.elapsed().as_secs_f64());
    }
    calib.push(host::calib_s());

    // Counts must also repeat across runs: the first traced run of a
    // (workload, seed) records them, later ones compare.
    let own_counts = &scoped[0].replay.counts;
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let counts_path = out_dir.join(format!("counts-{}-seed{seed}.json", wl.name()));
    let counts_json = counts_to_json(own_counts);
    match std::fs::read_to_string(&counts_path) {
        Ok(prev) if prev != counts_json => errors.push(format!(
            "layer counts differ from {}",
            counts_path.display()
        )),
        Ok(_) => {}
        Err(_) => {
            let written = std::fs::create_dir_all(&out_dir)
                .map_err(|e| qntn_common::QntnError::io("create_dir", &out_dir, &e))
                .and_then(|_| qntn_common::atomic_write(&counts_path, counts_json.as_bytes()));
            if let Err(e) = written {
                eprintln!("qntnbench: cannot write {}: {e}", counts_path.display());
            }
        }
    }

    let setup_records: Vec<&Record> = tr.pass(setup_id);
    let layer_self = |records: &[&Record], name: &str| -> f64 {
        let selfs = self_times(records);
        records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| selfs[&r.id] as f64 * 1e-9)
            .sum()
    };
    // The replay that measures `layer`: the workload's own pass if it
    // reaches the layer, else the first probe that does.
    let pick = |layer: &str| -> Option<&Scoped> {
        scoped
            .iter()
            .find(|s| tr.pass(s.replay.trace).iter().any(|r| r.name == layer))
    };
    let layer_s = |layer: &str| -> f64 {
        pick(layer).map_or(0.0, |s| layer_self(&tr.pass(s.replay.trace), layer))
    };
    let count = |layer: &str, key: &str| -> u64 {
        pick(layer).map_or(0, |s| s.replay.counts.get(key).copied().unwrap_or(0))
    };

    let mut metrics: Vec<Metric> = Vec::new();

    // Set-up layers.
    let setup_s = |name: &str| -> f64 { layer_self(&setup_records, name) };
    let sats = world.workload.satellites();
    let eph_samples: u64 = sim
        .hosts()
        .iter()
        .filter_map(|h| match &h.kind {
            qntn_net::HostKind::Satellite { ephemeris } => Some(ephemeris.len() as u64),
            _ => None,
        })
        .sum();
    metrics.push(("orbit.ephemeris.s", setup_s("orbit.ephemeris"), "s"));
    metrics.push(("orbit.ephemeris.samples", eph_samples as f64, "count"));
    metrics.push(("net.windows.s", setup_s("net.windows"), "s"));
    let windows = engine.windows();
    let mut visible = 0u64;
    for sat in 0..windows.satellites() {
        for step in 0..windows.steps() {
            for low in 0..windows.lows() {
                visible += windows.visible(sat, step, low) as u64;
            }
        }
    }
    let slots = (windows.satellites() * windows.steps() * windows.lows()).max(1) as f64;
    metrics.push(("net.windows.visible_frac", visible as f64 / slots, "frac"));
    metrics.push(("net.scene.s", setup_s("net.scene"), "s"));
    metrics.push((
        "net.scene.candidates",
        engine.scene().candidates().len() as f64,
        "count",
    ));
    let faults_s = match &faults_probe {
        Some((id, _)) => {
            let recs = tr.pass(*id);
            layer_self(&recs, "net.faults")
        }
        None => setup_s("net.faults"),
    };
    metrics.push(("net.faults.s", faults_s, "s"));

    // Topology.
    let topo = pick("net.topology").map(|s| s.replay.trace).unwrap_or(0);
    let topo_us: Vec<f64> = tr
        .pass(topo)
        .iter()
        .filter(|r| r.name == "net.topology")
        .map(|r| r.dur_ns as f64 * 1e-3)
        .collect();
    let active = count("net.topology", "net.topology.active_edges");
    let full = count("net.topology", "net.topology.full_edges");
    metrics.push(("net.topology.s", layer_s("net.topology"), "s"));
    metrics.push(("net.topology.step_p50_us", percentile(&topo_us, 0.50), "us"));
    metrics.push(("net.topology.step_p99_us", percentile(&topo_us, 0.99), "us"));
    metrics.push(("net.topology.active_edges", active as f64, "count"));
    metrics.push(("net.topology.full_edges", full as f64, "count"));
    metrics.push((
        "net.topology.keep_frac",
        active as f64 / (full.max(1)) as f64,
        "frac",
    ));

    // map_steps: no-op cost and how busy its workers were.
    metrics.push(("net.map_steps.noop_s", median(&noop), "s"));
    let busy = pick("net.map_steps").map_or(0.0, |s| {
        let recs = tr.pass(s.replay.trace);
        let stage: Vec<&&Record> = recs.iter().filter(|r| r.name == "net.map_steps").collect();
        let stage_ns: f64 = stage.iter().map(|r| r.dur_ns as f64).sum();
        let ids: Vec<u32> = stage.iter().map(|r| r.id).collect();
        let items_ns: f64 = recs
            .iter()
            .filter(|r| ids.contains(&r.parent))
            .map(|r| r.dur_ns as f64)
            .sum();
        items_ns / (threads as f64 * stage_ns).max(1.0)
    });
    metrics.push(("net.map_steps.busy_frac", busy, "frac"));

    // Routing and serving.
    let sssp_calls = count("routing.sssp", "routing.sssp.calls");
    let sssp_s = layer_s("routing.sssp");
    metrics.push(("routing.sssp.calls", sssp_calls as f64, "count"));
    metrics.push(("routing.sssp.s", sssp_s, "s"));
    metrics.push((
        "routing.sssp.per_call_us",
        sssp_s * 1e6 / sssp_calls.max(1) as f64,
        "us",
    ));
    let ext_calls = count("routing.extract", "routing.extract.calls");
    metrics.push(("routing.extract.calls", ext_calls as f64, "count"));
    metrics.push(("routing.extract.s", layer_s("routing.extract"), "s"));
    metrics.push((
        "routing.extract.found_frac",
        count("routing.extract", "routing.extract.found") as f64 / ext_calls.max(1) as f64,
        "frac",
    ));
    metrics.push((
        "net.realize.calls",
        count("net.realize", "net.realize.calls") as f64,
        "count",
    ));
    metrics.push(("net.realize.s", layer_s("net.realize"), "s"));
    metrics.push(("serve.ingest.s", layer_s("serve.ingest"), "s"));
    metrics.push((
        "serve.ingest.accepted",
        count("serve.ingest", "serve.ingest.accepted") as f64,
        "count",
    ));
    metrics.push((
        "serve.ingest.rejected",
        count("serve.ingest", "serve.ingest.rejected") as f64,
        "count",
    ));
    metrics.push(("serve.fold.s", layer_s("serve.fold"), "s"));
    metrics.push((
        "net.texp.calls",
        count("net.texp", "net.texp.calls") as f64,
        "count",
    ));
    metrics.push((
        "net.texp.edges",
        count("net.texp", "net.texp.edges") as f64,
        "count",
    ));
    metrics.push(("net.texp.s", layer_s("net.texp"), "s"));
    metrics.push((
        "routing.time_sssp.calls",
        count("routing.time_sssp", "routing.time_sssp.calls") as f64,
        "count",
    ));
    metrics.push(("routing.time_sssp.s", layer_s("routing.time_sssp"), "s"));
    metrics.push(("serve.overload.s", layer_s("serve.overload"), "s"));
    for key in [
        "serve.overload.served",
        "serve.overload.shed",
        "serve.overload.budget_deferrals",
        "serve.overload.congestion_deferrals",
        "serve.overload.degraded_steps",
    ] {
        metrics.push((key, count("serve.overload", key) as f64, "count"));
    }

    // Run level.
    let own_id = scoped[0].replay.trace;
    let own_records = tr.pass(own_id);
    let own_self = self_times(&own_records);
    let total_ns: u64 = own_self.values().sum();
    let leaf_ns: u64 = own_records
        .iter()
        .filter(|r| LEAF_LAYERS.contains(&r.name))
        .map(|r| own_self[&r.id])
        .sum();
    let traced_wall = own_records
        .iter()
        .find(|r| r.name == "pass" && r.parent == 0)
        .map_or(0.0, |r| r.dur_ns as f64 * 1e-9);
    let explained = leaf_ns as f64 / total_ns.max(1) as f64;
    let steal = host::steal_s() - steal0;
    metrics.push(("serial.wall_s", serial, "s"));
    metrics.push(("trace.overhead_s", traced_wall - wall, "s"));
    metrics.push(("trace.explained_share", explained, "frac"));
    metrics.push(("host.calib_s", median(&calib), "s"));
    metrics.push(("host.steal_s", steal, "s"));

    let trace_path = out_dir.join(format!("trace-{}-seed{seed}.json", wl.name()));
    if let Err(e) = tr.write_json(&trace_path) {
        eprintln!("qntnbench: cannot write {}: {e}", trace_path.display());
    }
    let probes: Vec<String> = LAYER_NAMES
        .iter()
        .filter(|l| pick(l).is_some_and(|s| !s.own))
        .map(|l| format!("\"{l}\""))
        .collect();
    println!(
        "{}",
        run_record(
            args,
            threads,
            &[
                ("satellites", sats.to_string()),
                ("untraced_wall_s", num(wall)),
                ("traced_wall_s", num(traced_wall)),
                ("probed_layers", format!("[{}]", probes.join(", "))),
                ("counts", counts_json.trim_end().to_string()),
                ("trace_file", format!("\"{}\"", trace_path.display())),
                ("errors", json_strings(&errors)),
            ],
        )
    );
    for e in &errors {
        eprintln!("qntnbench: {e}");
    }
    Outcome {
        attempted: 1,
        failed: usize::from(!errors.is_empty()),
        errors,
        metrics,
    }
}

/// Layers picked per replay (everything `pick` may be asked for).
const LAYER_NAMES: &[&str] = &[
    "net.topology",
    "net.map_steps",
    "routing.sssp",
    "routing.extract",
    "net.realize",
    "serve.ingest",
    "serve.fold",
    "net.texp",
    "routing.time_sssp",
    "serve.overload",
];

fn counts_to_json(c: &Counts) -> String {
    let items: Vec<String> = c.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}\n", items.join(", "))
}
