//! CLI contract tests for the `reproduce` binary: argument validation
//! (unknown artifacts and flags are rejected with the usage text and exit
//! code 2), the `--no-parallel` escape hatch, the `faults` artifact, and
//! the resilient `sweep`/`serve` artifacts' exit-code contract —
//! interrupt (5), resume to a bit-identical CSV (0), corrupt checkpoint
//! (4), chunk panic under fail-fast (6) and under `--quarantine` (0 with
//! `NA` rows) — plus the `serve` artifact's flag validation and artifact
//! outputs.
//!
//! Also covered: the `bench --scale` contract (flag validation, the
//! per-scale entries of `BENCH_sweep.json`, the serve cell of
//! `BENCH_serve.json`) and the `perf_gate` binary's exit-code contract
//! (0 within tolerance, 1 regression, 2 usage, 3 unreadable input or a
//! fresh size without a baseline).
//!
//! Cargo builds the binaries and exposes their paths via
//! `CARGO_BIN_EXE_reproduce` / `CARGO_BIN_EXE_perf_gate`, so these run on
//! the exact bits `cargo run` would use.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU32, Ordering};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("failed to spawn reproduce")
}

/// Run with `dir` as the working directory (the `bench` artifact writes
/// its `BENCH_*.json` files relative to it; tests keep those out of the
/// repo).
fn reproduce_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("failed to spawn reproduce")
}

fn temp_path(tag: &str, ext: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "qntn_cli_{}_{}_{tag}.{ext}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn unknown_artifact_is_rejected_with_usage() {
    let out = reproduce(&["no-such-artifact"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown artifact"), "{stderr}");
    assert!(stderr.contains("`no-such-artifact`"), "{stderr}");
    assert!(
        stderr.contains("reproduce [artifact]"),
        "usage follows the error"
    );
    assert!(stderr.contains("faults"), "usage lists the faults artifact");
}

#[test]
fn unknown_flag_is_rejected_with_usage() {
    let out = reproduce(&["table1", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
    assert!(stderr.contains("`--frobnicate`"), "{stderr}");
    assert!(stderr.contains("--no-parallel"), "usage lists the flags");
}

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = reproduce(&[flag]);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("reproduce [artifact]"), "{stdout}");
        assert!(stdout.contains("--quick"));
        assert!(stdout.contains("faults"));
    }
}

#[test]
fn no_parallel_flag_is_accepted() {
    let out = reproduce(&["table1", "--no-parallel"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table I"), "{stdout}");
}

#[test]
fn faults_artifact_renders_the_degradation_ladder() {
    let out = reproduce(&["faults", "--quick"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Fault injection"), "{stdout}");
    assert!(stdout.contains("intensity"), "{stdout}");
    assert!(stdout.contains("Space-Ground"), "{stdout}");
    assert!(stdout.contains("Air-Ground"), "{stdout}");
    assert!(
        stdout.contains("ideal-conditions assumption"),
        "the intensity-0 anchor line is part of the contract: {stdout}"
    );
}

/// The `timeexp` artifact through the process boundary: a quick run exits
/// 0, prints the baseline and one row per horizon, and writes the JSON
/// comparison atomically at `--out`.
#[test]
fn timeexp_writes_the_comparison_artifact() {
    let out_path = temp_path("timeexp", "json");
    let out = reproduce(&["timeexp", "--quick", "--out", out_path.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Store-and-forward serving"), "{stdout}");
    assert!(stdout.contains("per-step"), "{stdout}");
    let body = std::fs::read_to_string(&out_path).unwrap();
    assert!(body.contains("\"experiment\": \"timeexp\""), "{body}");
    assert!(body.contains("\"baseline\""), "{body}");
    assert!(body.contains("\"horizon_steps\": 6"), "{body}");
    std::fs::remove_file(&out_path).ok();
}

/// The `overload` artifact through the process boundary: a quick run
/// exits 0, prints one row per (load, intensity) cell, and writes the
/// JSON surface atomically at `--out`.
#[test]
fn overload_writes_the_surface_artifact() {
    let out_path = temp_path("overload", "json");
    let out = reproduce(&["overload", "--quick", "--out", out_path.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Overload control"), "{stdout}");
    assert!(stdout.contains("shed_%"), "{stdout}");
    let body = std::fs::read_to_string(&out_path).unwrap();
    assert!(body.contains("\"experiment\": \"overload\""), "{body}");
    assert!(body.contains("\"shed_percent\""), "{body}");
    assert!(body.contains("\"degrade_mode_steps\""), "{body}");
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn sweep_flag_without_value_is_rejected() {
    let out = reproduce(&["sweep", "--sats"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("needs a value"), "{stderr}");
}

#[test]
fn sweep_flag_with_garbage_value_is_rejected() {
    let out = reproduce(&["sweep", "--sats", "many"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid value"), "{stderr}");
    assert!(stderr.contains("`many`"), "{stderr}");
}

#[test]
fn help_documents_the_resilience_surface() {
    let out = reproduce(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "sweep",
        "serve",
        "--checkpoint",
        "--deadline-s",
        "--requests",
        "--workload",
        "exit codes:",
    ] {
        assert!(stdout.contains(needle), "help lacks `{needle}`: {stdout}");
    }
}

/// The `serve` artifact end to end through the process boundary: a small
/// run exits 0, prints the SLO summary and leaves the SLO JSON at
/// `--out` with the accounting fields present — and does *not* write
/// `BENCH_serve.json`: only `bench` writes the perf baselines, so a smoke
/// run can never clobber the committed one.
#[test]
fn serve_writes_the_slo_artifact_and_no_bench_file() {
    let dir = temp_path("serve_cwd", "d");
    std::fs::create_dir_all(&dir).unwrap();
    let slo = temp_path("serve_slo", "json");
    let out = reproduce_in(
        &dir,
        &[
            "serve",
            "--sats",
            "2",
            "--requests",
            "400",
            "--out",
            slo.to_str().unwrap(),
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== SERVE:"), "{stdout}");
    assert!(stdout.contains("ingest: 400 accepted"), "{stdout}");
    assert!(stdout.contains("served "), "{stdout}");

    let slo_body = std::fs::read_to_string(&slo).unwrap();
    assert!(slo_body.contains("\"attempted\": 400"), "{slo_body}");
    assert!(slo_body.contains("\"classes\""), "{slo_body}");
    assert!(
        !dir.join("BENCH_serve.json").exists(),
        "serve must leave the perf baseline to `bench`"
    );
    std::fs::remove_file(&slo).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_an_unknown_workload_with_exit_2() {
    let out = reproduce(&["serve", "--workload", "bursty"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown kind"), "{stderr}");
    assert!(stderr.contains("`bursty`"), "{stderr}");
}

#[test]
fn serve_rejects_a_corrupt_checkpoint_with_exit_4() {
    let dir = temp_path("serve_corrupt_cwd", "d");
    std::fs::create_dir_all(&dir).unwrap();
    let slo = temp_path("serve_corrupt", "json");
    let ckpt = temp_path("serve_corrupt", "ckpt");
    // qntn-lint: allow(atomic-writes-only) -- plants a garbage checkpoint to prove the exit-4 rejection path
    std::fs::write(&ckpt, b"not a checkpoint frame at all").unwrap();
    let out = reproduce_in(
        &dir,
        &[
            "serve",
            "--sats",
            "2",
            "--requests",
            "400",
            "--out",
            slo.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ],
    );
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&slo).ok();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The headline resilience contract, end to end through the process
/// boundary: a run interrupted mid-sweep exits 5 with a checkpoint on
/// disk, rerunning the same command resumes and exits 0, and the final
/// CSV is byte-identical to an uninterrupted run's.
#[test]
fn sweep_interrupt_then_resume_matches_uninterrupted_run() {
    let baseline_csv = temp_path("baseline", "csv");
    let resumed_csv = temp_path("resumed", "csv");
    let ckpt = temp_path("resume", "ckpt");
    let baseline_s = baseline_csv.to_str().unwrap();
    let resumed_s = resumed_csv.to_str().unwrap();
    let ckpt_s = ckpt.to_str().unwrap();

    let out = reproduce(&["sweep", "--sats", "2", "--out", baseline_s]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "uninterrupted run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let interrupted = reproduce(&[
        "sweep",
        "--sats",
        "2",
        "--out",
        resumed_s,
        "--checkpoint",
        ckpt_s,
        "--cancel-after-steps",
        "200",
    ]);
    assert_eq!(
        interrupted.status.code(),
        Some(5),
        "stderr: {}",
        String::from_utf8_lossy(&interrupted.stderr)
    );
    assert!(ckpt.exists(), "interrupted run left no checkpoint");
    assert!(!resumed_csv.exists(), "partial run must not write the CSV");

    let resumed = reproduce(&[
        "sweep",
        "--sats",
        "2",
        "--out",
        resumed_s,
        "--checkpoint",
        ckpt_s,
    ]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("resumed from checkpoint"), "{stdout}");
    assert!(!ckpt.exists(), "checkpoint survives a completed run");

    let a = std::fs::read(&baseline_csv).unwrap();
    let b = std::fs::read(&resumed_csv).unwrap();
    assert_eq!(a, b, "resumed CSV differs from uninterrupted CSV");
    std::fs::remove_file(&baseline_csv).ok();
    std::fs::remove_file(&resumed_csv).ok();
}

#[test]
fn sweep_rejects_a_corrupt_checkpoint_with_exit_4() {
    let csv = temp_path("corrupt", "csv");
    let ckpt = temp_path("corrupt", "ckpt");
    // qntn-lint: allow(atomic-writes-only) -- plants a garbage checkpoint to prove the exit-4 rejection path
    std::fs::write(&ckpt, b"not a checkpoint frame at all").unwrap();
    let out = reproduce(&[
        "sweep",
        "--sats",
        "2",
        "--out",
        csv.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&csv).ok();
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn sweep_panicking_chunk_fails_fast_with_exit_6() {
    let csv = temp_path("failfast", "csv");
    let out = reproduce(&[
        "sweep",
        "--sats",
        "2",
        "--out",
        csv.to_str().unwrap(),
        "--inject-panic-step",
        "100",
    ]);
    std::fs::remove_file(&csv).ok();
    assert_eq!(
        out.status.code(),
        Some(6),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("panicked"), "{stderr}");
}

fn perf_gate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .args(args)
        .output()
        .expect("failed to spawn perf_gate")
}

#[test]
fn bench_rejects_scale_zero_with_exit_2() {
    let out = reproduce(&["bench", "--quick", "--scale", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--scale"), "{stderr}");
    assert!(stderr.contains("at least 1"), "{stderr}");
}

#[test]
fn bench_rejects_a_garbage_scale_with_exit_2() {
    let out = reproduce(&["bench", "--quick", "--scale", "mega"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid value"), "{stderr}");
    assert!(stderr.contains("`mega`"), "{stderr}");
}

/// `bench --scale` end to end: the run succeeds, BENCH_sweep.json
/// carries both the default ladder entry and a per-scale entry with the
/// schema `perf_gate` consumes (`satellites` before `engine_clean`), and
/// BENCH_serve.json carries the serve cell (`satellites`, `requests`,
/// then `serve`).
#[test]
fn bench_scale_writes_per_scale_entries() {
    let dir = temp_path("bench_scale_cwd", "d");
    std::fs::create_dir_all(&dir).unwrap();
    let out = reproduce_in(&dir, &["bench", "--quick", "--scale", "16"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scale    16"), "{stdout}");
    let body = std::fs::read_to_string(dir.join("BENCH_sweep.json")).unwrap();
    let serve_body = std::fs::read_to_string(dir.join("BENCH_serve.json")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    for needle in [
        "\"benchmark\": \"serve_day\"",
        "\"satellites\": 12",
        "\"requests\": 5000",
        "\"serve\":",
    ] {
        assert!(
            serve_body.contains(needle),
            "missing `{needle}` in: {serve_body}"
        );
    }
    for needle in [
        "\"benchmark\": \"sweep_day\"",
        "\"satellites\": 12",
        "\"scales\": [",
        "\"satellites\": 16",
        "\"isl\": false",
        "\"setup\":",
        "\"engine_clean\":",
    ] {
        assert!(body.contains(needle), "missing `{needle}` in: {body}");
    }
    assert!(
        body.rfind("\"satellites\": 16") < body.rfind("\"engine_clean\":"),
        "scale entry must put satellites before engine_clean: {body}"
    );
}

/// A minimal bench-file fixture in `perf_gate`'s input schema.
fn bench_fixture(tag: &str, ms_108: f64, ms_1080: f64) -> PathBuf {
    let path = temp_path(tag, "json");
    let body = format!(
        "{{\n  \"benchmark\": \"sweep_day\",\n  \"satellites\": 108,\n  \"steps\": 2880,\n  \"parallel\": true,\n  \"wall_ms\": {{\n    \"engine_clean\": {ms_108:.1},\n    \"naive_clean\": 9000.0,\n    \"engine_faulted\": 2000.0\n  }},\n  \"scales\": [\n    {{\n      \"satellites\": 1080,\n      \"isl\": false,\n      \"wall_ms\": {{\n        \"setup\": 5000.0,\n        \"engine_clean\": {ms_1080:.1}\n      }}\n    }}\n  ]\n}}\n"
    );
    // qntn-lint: allow(atomic-writes-only) -- throwaway test fixture, not a build artifact
    std::fs::write(&path, body).unwrap();
    path
}

#[test]
fn perf_gate_passes_within_tolerance_and_fails_beyond_it() {
    let baseline = bench_fixture("gate_base", 1000.0, 3000.0);
    let within = bench_fixture("gate_within", 1900.0, 5500.0);
    let beyond = bench_fixture("gate_beyond", 1000.0, 6100.0);

    let ok = perf_gate(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--fresh",
        within.to_str().unwrap(),
    ]);
    assert_eq!(
        ok.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(
        stdout.contains("perf gate: ok (2 size(s) compared)"),
        "{stdout}"
    );

    let fail = perf_gate(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--fresh",
        beyond.to_str().unwrap(),
    ]);
    assert_eq!(fail.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&fail.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(
        stdout.contains("1080 sats"),
        "the regressed size is named: {stdout}"
    );

    // A looser tolerance turns the same comparison green.
    let loose = perf_gate(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--fresh",
        beyond.to_str().unwrap(),
        "--tolerance",
        "3.0",
    ]);
    assert_eq!(loose.status.code(), Some(0));

    std::fs::remove_file(&baseline).ok();
    std::fs::remove_file(&within).ok();
    std::fs::remove_file(&beyond).ok();
}

/// A minimal `BENCH_serve.json`-shaped fixture (the serve kind keys on
/// satellites x requests and gates the `serve` wall time).
fn serve_bench_fixture(tag: &str, serve_ms: f64) -> PathBuf {
    let path = temp_path(tag, "json");
    let body = format!(
        "{{\n  \"benchmark\": \"serve_day\",\n  \"satellites\": 108,\n  \"steps\": 2880,\n  \"requests\": 1000000,\n  \"workload\": \"uniform\",\n  \"seed\": 2024,\n  \"parallel\": true,\n  \"served_percent\": 97.6373,\n  \"wall_ms\": {{\n    \"engine_setup\": 31.6,\n    \"generate_ingest\": 363.9,\n    \"serve\": {serve_ms:.1}\n  }}\n}}\n"
    );
    // qntn-lint: allow(atomic-writes-only) -- throwaway test fixture, not a build artifact
    std::fs::write(&path, body).unwrap();
    path
}

#[test]
fn perf_gate_gates_serve_baselines_and_rejects_kind_mixes() {
    let baseline = serve_bench_fixture("gate_serve_base", 2600.0);
    let within = serve_bench_fixture("gate_serve_within", 4900.0);
    let beyond = serve_bench_fixture("gate_serve_beyond", 5300.0);

    let ok = perf_gate(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--fresh",
        within.to_str().unwrap(),
    ]);
    assert_eq!(
        ok.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(
        stdout.contains("108 sats x 1000000 req"),
        "serve entries are keyed on satellites x requests: {stdout}"
    );

    let fail = perf_gate(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--fresh",
        beyond.to_str().unwrap(),
    ]);
    assert_eq!(fail.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&fail.stdout).contains("REGRESSED"));

    // A sweep baseline against a serve fresh run is a hard error, not a
    // silent "no common size" skip.
    let sweep = bench_fixture("gate_serve_mix", 1000.0, 3000.0);
    let mixed = perf_gate(&[
        "--baseline",
        sweep.to_str().unwrap(),
        "--fresh",
        within.to_str().unwrap(),
    ]);
    assert_eq!(mixed.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&mixed.stderr);
    assert!(stderr.contains("sweep_day"), "{stderr}");
    assert!(stderr.contains("serve_day"), "{stderr}");

    std::fs::remove_file(&baseline).ok();
    std::fs::remove_file(&within).ok();
    std::fs::remove_file(&beyond).ok();
    std::fs::remove_file(&sweep).ok();
}

/// A fresh size the baseline lacks fails the gate (exit 3) instead of
/// being skipped: a gate that compares nothing must not pass.
#[test]
fn perf_gate_fails_on_a_fresh_size_without_baseline() {
    let baseline = temp_path("gate_only_108", "json");
    // qntn-lint: allow(atomic-writes-only) -- throwaway test fixture, not a build artifact
    std::fs::write(
        &baseline,
        "{\n  \"benchmark\": \"sweep_day\",\n  \"satellites\": 108,\n  \"wall_ms\": {\n    \"engine_clean\": 1000.0\n  },\n  \"scales\": []\n}\n",
    )
    .unwrap();
    let fresh = bench_fixture("gate_with_1080", 1000.0, 3000.0);
    let out = perf_gate(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--fresh",
        fresh.to_str().unwrap(),
    ]);
    std::fs::remove_file(&baseline).ok();
    std::fs::remove_file(&fresh).ok();
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("108 sats"),
        "common size still compared: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1080 sats"), "{stderr}");
    assert!(stderr.contains("no entry"), "{stderr}");
}

#[test]
fn perf_gate_usage_errors_exit_2() {
    let out = perf_gate(&["--fresh", "only.json"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--baseline"), "{stderr}");

    let out = perf_gate(&[
        "--baseline",
        "a.json",
        "--fresh",
        "b.json",
        "--tolerance",
        "0.5",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("factor >= 1"), "{stderr}");
}

#[test]
fn perf_gate_unreadable_input_exits_3() {
    let baseline = bench_fixture("gate_io", 1000.0, 3000.0);
    let missing = temp_path("gate_missing", "json");
    let out = perf_gate(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--fresh",
        missing.to_str().unwrap(),
    ]);
    std::fs::remove_file(&baseline).ok();
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn sweep_quarantine_completes_and_marks_the_poisoned_step() {
    let csv = temp_path("quarantine", "csv");
    let out = reproduce(&[
        "sweep",
        "--sats",
        "2",
        "--out",
        csv.to_str().unwrap(),
        "--inject-panic-step",
        "100",
        "--quarantine",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("quarantined:"), "{stderr}");
    let body = std::fs::read_to_string(&csv).unwrap();
    std::fs::remove_file(&csv).ok();
    assert!(body.contains("100,NA"), "poisoned step not marked NA");
    assert_eq!(
        body.lines().count(),
        2881,
        "header plus one row per step, even with a quarantined chunk"
    );
}
