//! `determinism` — sweep/pipeline hot paths are bit-deterministic.
//!
//! The workspace's headline contract is that sweep results are
//! bit-identical across naive/engine, clean/identity-faulted,
//! sequential/parallel and interrupted/resumed executions
//! (`tests/pipeline_goldens.rs`, `tests/resilience.rs`). That only holds
//! while the hot paths stay free of three classic nondeterminism sources:
//!
//! - wall-clock reads (`Instant::now`, `SystemTime::now`) feeding results;
//! - `HashMap`/`HashSet`, whose iteration order is unspecified — folding
//!   one into a float accumulation reorders additions and changes bits;
//! - entropy-seeded RNGs (`thread_rng`, `from_entropy`) instead of the
//!   workspace's explicit-seed models.
//!
//! The rule scans the per-step pipeline, the sweep engine, the resilient
//! runtime, the fault compiler, the link evaluator and the experiment
//! drivers. Analysis-side modules (snapshots) may keep hash maps;
//! wall-clock use stays legal in `qntn_common::control` (deadlines are
//! *about* wall time) and in the bench harness (measuring wall time is
//! its job) — none of which are in scope.

use crate::diag::Diagnostic;
use crate::engine::FileCtx;

pub const ID: &str = "determinism";

const MESSAGE: &str = "sweep/pipeline hot paths must be bit-deterministic: \
     no wall-clock reads, no HashMap/HashSet (unspecified iteration order), \
     no entropy-seeded RNGs; use explicit seeds and ordered/indexed storage";

/// The files whose outputs the bit-identity contracts cover.
const HOT_PATHS: &[&str] = &[
    "crates/net/src/pipeline.rs",
    "crates/net/src/sweep_engine.rs",
    "crates/net/src/runtime.rs",
    "crates/net/src/faults.rs",
    "crates/net/src/linkeval.rs",
    "crates/orbit/src/spatial.rs",
    "crates/channel/src/fso.rs",
    "crates/serve/src/serve.rs",
    "crates/serve/src/admission.rs",
    "crates/serve/src/request.rs",
    "crates/serve/src/hold.rs",
    "crates/serve/src/overload.rs",
    "crates/serve/src/workload.rs",
    "crates/routing/src/timexp.rs",
    "crates/quantum/src/memory.rs",
];

/// Hot-path scope shared with the `float-reduction` rule.
pub(crate) fn in_scope(rel: &str) -> bool {
    HOT_PATHS.contains(&rel) || rel.starts_with("crates/core/src/experiments/")
}

pub fn check(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !in_scope(ctx.rel) || ctx.is_test_file() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for pattern in [
        &["Instant", ":", ":", "now"][..],
        &["SystemTime", ":", ":", "now"],
        &["HashMap"],
        &["HashSet"],
        &["thread_rng"],
        &["from_entropy"],
    ] {
        out.extend(ctx.hits(pattern, ID, MESSAGE));
    }
    out.retain(|d| !ctx.is_test_line(d.line));
    out
}

#[cfg(test)]
mod tests {
    use super::HOT_PATHS;
    use std::path::Path;

    /// `in_scope` matches entries exactly, so an entry naming a deleted or
    /// renamed file would silently drop that file out of the rule.
    #[test]
    fn every_hot_path_names_an_existing_workspace_file() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let stale: Vec<&str> = HOT_PATHS
            .iter()
            .copied()
            .filter(|rel| !root.join(rel).is_file())
            .collect();
        assert!(stale.is_empty(), "stale HOT_PATHS entries: {stale:?}");
    }
}
