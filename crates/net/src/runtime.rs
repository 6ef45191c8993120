//! The resilient sweep runtime: checkpoint/resume, cooperative
//! cancellation, and panic isolation for long-running sweeps.
//!
//! The [`crate::SweepEngine`] makes a full-day sweep *fast*; this module
//! makes it *survivable*. A run executes its steps in order, in chunks,
//! and after each chunk boundary:
//!
//! - **checkpoints** — progress (the completed step prefix plus every
//!   per-step output, floats as raw bit patterns) is serialized through
//!   [`qntn_common::codec`] into a versioned, CRC32-checksummed frame
//!   written atomically ([`qntn_common::frame`]). A resumed run loads the
//!   frame, verifies its fingerprint binds it to the same run parameters,
//!   and replays only the remaining steps. Because every step's output is
//!   a pure function of `(engine, step)`, *interrupted-then-resumed ≡
//!   uninterrupted, bit-identical* — proptested by the crash-injection
//!   harness in `tests/resilience.rs`.
//! - **cancellation / deadlines** — a [`RunControl`] is polled at every
//!   chunk boundary; a tripped [`qntn_common::CancelToken`] or expired
//!   [`qntn_common::Deadline`] stops the run with a final checkpoint and a
//!   well-formed partial [`RunReport`] instead of tearing it down.
//! - **panic isolation** — each step evaluation runs under
//!   `catch_unwind`, so a panicking chunk poisons only itself. Under
//!   [`PanicPolicy::FailFast`] the run checkpoints its progress and
//!   returns the structured
//!   [`QntnError::ChunkPanic`]; under [`PanicPolicy::Quarantine`] the
//!   poisoned step range is recorded in the report, its outputs stay
//!   `None`, and every healthy chunk completes.
//!
//! The runtime is generic over the per-step output type `T:`
//! [`FrameCodec`], so the same machinery drives connectivity-flag sweeps
//! (`T = bool`), `qntn-serve`'s resilient serve (`T = GroupAgg`, one
//! fold per arrival group), and any future long-running workload.

// The resilience layer must never itself be a panic source: unwrap/expect
// are denied outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::sweep_engine::{SweepEngine, SweepScratch};
use qntn_common::codec::{ByteReader, DecodeError, FrameCodec};
use qntn_common::{frame, QntnError, RunControl, StopCause};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Schema version of checkpoint frames written by this module.
pub const CHECKPOINT_VERSION: u32 = 1;

/// What to do when a sweep chunk panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PanicPolicy {
    /// Checkpoint progress, then surface the first
    /// [`QntnError::ChunkPanic`] as an error. The default: a panic is a
    /// bug, and silent degradation would hide it.
    #[default]
    FailFast,
    /// Quarantine the poisoned step range (outputs stay `None`), keep a
    /// structured report of every panic, and complete the healthy chunks.
    /// The degrade-and-report mode for operational runs where partial
    /// results beat no results.
    Quarantine,
}

/// How a resilient run executes: chunking, checkpointing, cancellation and
/// panic policy.
#[derive(Debug, Clone)]
pub struct RunPolicy {
    /// Steps evaluated per chunk. Chunk boundaries are where the run
    /// checkpoints and polls its [`RunControl`]; `1` gives exact
    /// step-granularity stops at the cost of a checkpoint write per step.
    pub chunk_steps: usize,
    /// Checkpoint file. `None` disables checkpointing (the run still honours
    /// cancellation and panic policy).
    pub checkpoint: Option<PathBuf>,
    /// Write the checkpoint every this many completed chunks (the final
    /// state — completion or interruption — is always written).
    pub checkpoint_every_chunks: usize,
    /// Cancellation / deadline budget, polled at chunk boundaries.
    pub control: RunControl,
    /// What a panicking chunk does to the run.
    pub panic_policy: PanicPolicy,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            chunk_steps: 64,
            checkpoint: None,
            checkpoint_every_chunks: 1,
            control: RunControl::unlimited(),
            panic_policy: PanicPolicy::FailFast,
        }
    }
}

impl RunPolicy {
    /// Checkpoint to `path` (written atomically; validated on load).
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> RunPolicy {
        self.checkpoint = Some(path.into());
        self
    }

    /// Set the chunk size (clamped to at least 1).
    pub fn with_chunk_steps(mut self, steps: usize) -> RunPolicy {
        self.chunk_steps = steps.max(1);
        self
    }

    /// Set the cancellation/deadline budget.
    pub fn with_control(mut self, control: RunControl) -> RunPolicy {
        self.control = control;
        self
    }

    /// Set the panic policy.
    pub fn with_panic_policy(mut self, policy: PanicPolicy) -> RunPolicy {
        self.panic_policy = policy;
        self
    }

    /// Set the checkpoint cadence in chunks (clamped to at least 1).
    pub fn with_checkpoint_every(mut self, chunks: usize) -> RunPolicy {
        self.checkpoint_every_chunks = chunks.max(1);
        self
    }
}

/// One quarantined panic: the poisoned step range and the rendered payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPanicReport {
    /// First and last panicked simulation step of the range, inclusive.
    pub step_range: (usize, usize),
    /// The panic payload rendered to a string (`&str`/`String` payloads
    /// verbatim, anything else a placeholder).
    pub payload: String,
}

impl ChunkPanicReport {
    /// The same information as a [`QntnError::ChunkPanic`].
    pub fn to_error(&self) -> QntnError {
        QntnError::ChunkPanic {
            step_range: self.step_range,
            payload: self.payload.clone(),
        }
    }
}

/// The outcome of a resilient run: per-step outputs aligned with the
/// `steps` slice, plus how far the run got and why it stopped (if it did).
#[derive(Debug, Clone)]
pub struct RunReport<T> {
    /// One slot per entry of `steps`. `Some` for evaluated steps, `None`
    /// for steps beyond [`completed`](RunReport::completed) and for steps
    /// quarantined by a panic.
    pub outputs: Vec<Option<T>>,
    /// Leading entries of `steps` processed so far (evaluated or
    /// quarantined). Resume picks up exactly here.
    pub completed: usize,
    /// Index this run started from: `0` for a fresh run, the loaded
    /// checkpoint's `completed` for a resumed one.
    pub resumed_from: usize,
    /// `Some` when the run stopped early (cancellation / deadline); the
    /// checkpoint, if configured, holds the progress.
    pub stopped: Option<StopCause>,
    /// Quarantined panics ([`PanicPolicy::Quarantine`] only).
    pub panics: Vec<ChunkPanicReport>,
}

impl<T> RunReport<T> {
    /// Did the run process every step (even if some were quarantined)?
    pub fn is_complete(&self) -> bool {
        self.stopped.is_none() && self.completed == self.outputs.len()
    }

    /// Did the run process every step and produce an output for each?
    pub fn is_clean(&self) -> bool {
        self.is_complete() && self.panics.is_empty()
    }

    /// The outputs, if the run is complete and panic-free.
    pub fn into_clean_outputs(self) -> Option<Vec<T>> {
        if !self.is_clean() {
            return None;
        }
        self.outputs.into_iter().collect()
    }
}

// ---- checkpoint frame payload ----

struct CheckpointState<T> {
    fingerprint: u64,
    total: usize,
    completed: usize,
    panics: Vec<ChunkPanicReport>,
    /// Outputs of the completed prefix only (length == completed).
    prefix: Vec<Option<T>>,
}

impl<T: FrameCodec> CheckpointState<T> {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.fingerprint.encode(&mut out);
        self.total.encode(&mut out);
        self.completed.encode(&mut out);
        let panics: Vec<(usize, usize, String)> = self
            .panics
            .iter()
            .map(|p| (p.step_range.0, p.step_range.1, p.payload.clone()))
            .collect();
        panics.encode(&mut out);
        debug_assert_eq!(self.prefix.len(), self.completed);
        for slot in &self.prefix {
            slot.encode(&mut out);
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<CheckpointState<T>, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let fingerprint = u64::decode(&mut r)?;
        let total = usize::decode(&mut r)?;
        let completed = usize::decode(&mut r)?;
        if completed > total {
            return Err(DecodeError(format!(
                "completed {completed} exceeds total {total}"
            )));
        }
        let raw_panics = Vec::<(usize, usize, String)>::decode(&mut r)?;
        let mut prefix = Vec::with_capacity(completed);
        for _ in 0..completed {
            prefix.push(Option::<T>::decode(&mut r)?);
        }
        r.finish()?;
        Ok(CheckpointState {
            fingerprint,
            total,
            completed,
            panics: raw_panics
                .into_iter()
                .map(|(lo, hi, payload)| ChunkPanicReport {
                    step_range: (lo, hi),
                    payload,
                })
                .collect(),
            prefix,
        })
    }
}

/// Combine a caller fingerprint with the step list, so a checkpoint also
/// refuses to resume onto a different step selection.
fn bind_fingerprint(caller: u64, steps: &[usize]) -> u64 {
    let mut words = Vec::with_capacity(steps.len() + 2);
    words.push(caller);
    words.push(steps.len() as u64);
    words.extend(steps.iter().map(|&s| s as u64));
    frame::fingerprint(&words)
}

fn write_checkpoint<T: FrameCodec + Clone>(
    path: &std::path::Path,
    fingerprint: u64,
    total: usize,
    completed: usize,
    outputs: &[Option<T>],
    panics: &[ChunkPanicReport],
) -> Result<(), QntnError> {
    let state = CheckpointState {
        fingerprint,
        total,
        completed,
        panics: panics.to_vec(),
        prefix: outputs[..completed].to_vec(),
    };
    frame::write_frame_atomic(path, CHECKPOINT_VERSION, &state.encode())
}

fn load_checkpoint<T: FrameCodec>(
    path: &std::path::Path,
    fingerprint: u64,
    total: usize,
) -> Result<Option<CheckpointState<T>>, QntnError> {
    if !path.exists() {
        return Ok(None);
    }
    let payload = frame::read_frame(path, CHECKPOINT_VERSION)?;
    let state = CheckpointState::<T>::decode(&payload).map_err(|e| QntnError::CorruptFrame {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    if state.fingerprint != fingerprint {
        return Err(QntnError::CheckpointMismatch {
            what: "run fingerprint",
            expected: fingerprint,
            got: state.fingerprint,
        });
    }
    if state.total != total {
        return Err(QntnError::CheckpointMismatch {
            what: "step count",
            expected: total as u64,
            got: state.total as u64,
        });
    }
    Ok(Some(state))
}

fn panic_payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Group a chunk's per-step panic payloads into contiguous
/// [`ChunkPanicReport`] ranges (one report per maximal run of consecutive
/// panicked steps, carrying the first payload of the run).
fn group_panics(chunk_steps: &[usize], failures: &[Option<String>]) -> Vec<ChunkPanicReport> {
    let mut reports: Vec<ChunkPanicReport> = Vec::new();
    let mut open: Option<(usize, usize, String)> = None;
    for (i, failure) in failures.iter().enumerate() {
        match failure {
            Some(payload) => match open.as_mut() {
                Some((_, hi, _)) if i > 0 && failures[i - 1].is_some() => *hi = chunk_steps[i],
                _ => {
                    if let Some((lo, hi, p)) = open.take() {
                        reports.push(ChunkPanicReport {
                            step_range: (lo, hi),
                            payload: p,
                        });
                    }
                    open = Some((chunk_steps[i], chunk_steps[i], payload.clone()));
                }
            },
            None => {
                if let Some((lo, hi, p)) = open.take() {
                    reports.push(ChunkPanicReport {
                        step_range: (lo, hi),
                        payload: p,
                    });
                }
            }
        }
    }
    if let Some((lo, hi, p)) = open.take() {
        reports.push(ChunkPanicReport {
            step_range: (lo, hi),
            payload: p,
        });
    }
    reports
}

/// Run `eval` over `steps` on `engine` resiliently. See the module docs
/// for the guarantees; `caller_fingerprint` must encode every parameter
/// the outputs depend on (constellation size, seeds, thresholds — use
/// [`qntn_common::frame::fingerprint`]), because it is what stops a stale
/// checkpoint from silently seeding a different run.
pub fn run_steps<T, F>(
    engine: &SweepEngine<'_>,
    steps: &[usize],
    caller_fingerprint: u64,
    policy: &RunPolicy,
    eval: F,
) -> Result<RunReport<T>, QntnError>
where
    T: FrameCodec + Clone + Send,
    F: Fn(&mut SweepScratch, usize) -> T + Sync,
{
    let fingerprint = bind_fingerprint(caller_fingerprint, steps);
    let total = steps.len();
    let mut outputs: Vec<Option<T>> = vec![None; total];
    let mut panics: Vec<ChunkPanicReport> = Vec::new();
    let mut completed = 0usize;

    if let Some(path) = &policy.checkpoint {
        if let Some(state) = load_checkpoint::<T>(path, fingerprint, total)? {
            completed = state.completed;
            panics = state.panics;
            for (slot, loaded) in outputs.iter_mut().zip(state.prefix) {
                *slot = loaded;
            }
        }
    }
    let resumed_from = completed;

    let chunk_steps = policy.chunk_steps.max(1);
    let cadence = policy.checkpoint_every_chunks.max(1);
    let mut chunks_since_checkpoint = 0usize;

    while completed < total {
        if let Some(cause) = policy.control.should_stop() {
            if let Some(path) = &policy.checkpoint {
                write_checkpoint(path, fingerprint, total, completed, &outputs, &panics)?;
            }
            return Ok(RunReport {
                outputs,
                completed,
                resumed_from,
                stopped: Some(cause),
                panics,
            });
        }

        let end = (completed + chunk_steps).min(total);
        let chunk = &steps[completed..end];
        // Per-step panic isolation: a panicking evaluation is caught in
        // the worker itself, so healthy steps of the same chunk still
        // produce outputs and the payload survives verbatim (a panic that
        // escaped to the thread scope would be reduced to "a scoped
        // thread panicked"). The scratch is safe to reuse afterwards:
        // every evaluation resets it before reading it.
        let results: Vec<Result<T, String>> = engine.map_steps(chunk, |scratch, step| {
            catch_unwind(AssertUnwindSafe(|| eval(scratch, step))).map_err(panic_payload_to_string)
        });

        let mut failures: Vec<Option<String>> = Vec::with_capacity(results.len());
        for (offset, result) in results.into_iter().enumerate() {
            match result {
                Ok(value) => {
                    outputs[completed + offset] = Some(value);
                    failures.push(None);
                }
                Err(payload) => failures.push(Some(payload)),
            }
        }
        let chunk_panics = group_panics(chunk, &failures);
        if !chunk_panics.is_empty() {
            match policy.panic_policy {
                PanicPolicy::FailFast => {
                    // Checkpoint the progress before this chunk so the
                    // (healthy) prefix survives, then surface the panic.
                    if let Some(path) = &policy.checkpoint {
                        write_checkpoint(path, fingerprint, total, completed, &outputs, &panics)?;
                    }
                    return Err(chunk_panics[0].to_error());
                }
                PanicPolicy::Quarantine => panics.extend(chunk_panics),
            }
        }
        completed = end;

        chunks_since_checkpoint += 1;
        if let Some(path) = &policy.checkpoint {
            if chunks_since_checkpoint >= cadence || completed == total {
                write_checkpoint(path, fingerprint, total, completed, &outputs, &panics)?;
                chunks_since_checkpoint = 0;
            }
        }
    }

    Ok(RunReport {
        outputs,
        completed,
        resumed_from,
        stopped: None,
        panics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::linkeval::SimConfig;
    use crate::simulator::QuantumNetworkSim;
    use qntn_common::CancelToken;
    use qntn_geo::Geodetic;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    fn temp_ckpt(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "qntn_runtime_test_{}_{}_{tag}.ckpt",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn hap_sim(steps: usize) -> QuantumNetworkSim {
        let hosts = vec![
            Host::ground("A-0", 0, Geodetic::from_deg(36.1757, -85.5066, 300.0), 1.2),
            Host::ground("B-0", 1, Geodetic::from_deg(35.91, -84.3, 250.0), 1.2),
            Host::ground("C-0", 2, Geodetic::from_deg(35.04159, -85.2799, 200.0), 1.2),
            Host::hap("HAP", Geodetic::from_deg(35.6692, -85.0662, 30_000.0), 0.3),
        ];
        QuantumNetworkSim::new(hosts, SimConfig::default(), steps, 30.0)
    }

    #[test]
    fn clean_resilient_flags_match_the_plain_sweep() {
        let sim = hap_sim(40);
        let engine = SweepEngine::new(&sim);
        let steps: Vec<usize> = (0..sim.steps()).collect();
        let report = run_steps(
            &engine,
            &steps,
            7,
            &RunPolicy::default(),
            |scratch, step| {
                engine.active_graph_into(step, scratch);
                sim.lans_interconnected(&scratch.active)
            },
        )
        .unwrap();
        assert!(report.is_clean());
        assert_eq!(report.resumed_from, 0);
        assert_eq!(
            report.into_clean_outputs().unwrap(),
            engine.connectivity_flags()
        );
    }

    #[test]
    fn cancelled_run_checkpoints_and_resume_is_bit_identical() {
        let sim = hap_sim(60);
        let engine = SweepEngine::new(&sim);
        let ckpt = temp_ckpt("resume");

        // Cancel after ~20 evaluations; the run stops at a chunk boundary
        // with a frame on disk.
        let evals = AtomicUsize::new(0);
        let token = CancelToken::new();
        let steps: Vec<usize> = (0..60).collect();
        let policy = RunPolicy::default()
            .with_chunk_steps(8)
            .with_checkpoint(&ckpt)
            .with_control(RunControl::unlimited().with_cancel(token.clone()));
        let partial: RunReport<bool> = run_steps(&engine, &steps, 7, &policy, |scratch, step| {
            if evals.fetch_add(1, Ordering::SeqCst) + 1 >= 20 {
                token.cancel();
            }
            engine.active_graph_into(step, scratch);
            engine.sim().lans_interconnected(&scratch.active)
        })
        .unwrap();
        assert_eq!(partial.stopped, Some(StopCause::Cancelled));
        assert!(partial.completed < 60 && partial.completed >= 20);
        assert!(ckpt.exists());

        // Resume with no cancellation: completes, and the combined outputs
        // equal an uninterrupted run's exactly.
        let resume_policy = RunPolicy::default()
            .with_chunk_steps(8)
            .with_checkpoint(&ckpt);
        let full: RunReport<bool> =
            run_steps(&engine, &steps, 7, &resume_policy, |scratch, step| {
                engine.active_graph_into(step, scratch);
                engine.sim().lans_interconnected(&scratch.active)
            })
            .unwrap();
        assert_eq!(full.resumed_from, partial.completed);
        assert!(full.is_clean());
        assert_eq!(
            full.into_clean_outputs().unwrap(),
            engine.connectivity_flags()
        );
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn checkpoint_refuses_a_different_run() {
        let sim = hap_sim(20);
        let engine = SweepEngine::new(&sim);
        let ckpt = temp_ckpt("mismatch");
        let steps: Vec<usize> = (0..20).collect();
        let policy = RunPolicy::default().with_checkpoint(&ckpt);
        let _report: RunReport<bool> = run_steps(&engine, &steps, 1, &policy, |_, _| true).unwrap();
        // Same file, different caller fingerprint: refused, not resumed.
        let err = run_steps::<bool, _>(&engine, &steps, 2, &policy, |_, _| true).unwrap_err();
        assert!(matches!(err, QntnError::CheckpointMismatch { .. }), "{err}");
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn quarantine_completes_around_a_panicking_chunk() {
        let sim = hap_sim(30);
        let engine = SweepEngine::new(&sim);
        let steps: Vec<usize> = (0..30).collect();
        let policy = RunPolicy::default()
            .with_chunk_steps(5)
            .with_panic_policy(PanicPolicy::Quarantine);
        let report: RunReport<bool> = run_steps(&engine, &steps, 3, &policy, |scratch, step| {
            assert!(step != 12, "injected panic at step 12");
            engine.active_graph_into(step, scratch);
            engine.sim().lans_interconnected(&scratch.active)
        })
        .unwrap();
        assert!(report.is_complete());
        assert!(!report.is_clean());
        assert_eq!(report.panics.len(), 1);
        assert_eq!(report.panics[0].step_range, (12, 12));
        assert!(report.panics[0].payload.contains("injected panic"));
        assert!(report.outputs[12].is_none());
        let healthy = report.outputs.iter().filter(|o| o.is_some()).count();
        assert_eq!(healthy, 29);
    }

    #[test]
    fn fail_fast_surfaces_a_structured_chunk_panic() {
        let sim = hap_sim(30);
        let engine = SweepEngine::new(&sim);
        let steps: Vec<usize> = (0..30).collect();
        let policy = RunPolicy::default().with_chunk_steps(10);
        let err = run_steps::<bool, _>(&engine, &steps, 3, &policy, |_, step| {
            assert!(step != 15, "boom at 15");
            true
        })
        .unwrap_err();
        match err {
            QntnError::ChunkPanic {
                step_range,
                payload,
            } => {
                assert_eq!(step_range, (15, 15));
                assert!(payload.contains("boom at 15"), "{payload}");
            }
            other => panic!("expected ChunkPanic, got {other:?}"),
        }
    }

    #[test]
    fn consecutive_panicked_steps_group_into_one_range() {
        let reports = group_panics(
            &[10, 11, 12, 13, 14],
            &[
                None,
                Some("a".into()),
                Some("b".into()),
                None,
                Some("c".into()),
            ],
        );
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].step_range, (11, 12));
        assert_eq!(reports[0].payload, "a");
        assert_eq!(reports[1].step_range, (14, 14));
    }

    #[test]
    fn completed_checkpoint_resumes_to_an_instant_noop() {
        let sim = hap_sim(15);
        let engine = SweepEngine::new(&sim);
        let ckpt = temp_ckpt("noop");
        let steps: Vec<usize> = (0..15).collect();
        let policy = RunPolicy::default().with_checkpoint(&ckpt);
        let evals = AtomicUsize::new(0);
        let first: RunReport<bool> = run_steps(&engine, &steps, 9, &policy, |_, _| {
            evals.fetch_add(1, Ordering::SeqCst);
            true
        })
        .unwrap();
        assert!(first.is_clean());
        assert_eq!(evals.load(Ordering::SeqCst), 15);
        let second: RunReport<bool> = run_steps(&engine, &steps, 9, &policy, |_, _| {
            evals.fetch_add(1, Ordering::SeqCst);
            true
        })
        .unwrap();
        assert!(second.is_clean());
        assert_eq!(second.resumed_from, 15);
        assert_eq!(evals.load(Ordering::SeqCst), 15, "no re-evaluation");
        let _ = std::fs::remove_file(&ckpt);
    }
}
