//! # qntn-serve — batch entanglement-request service
//!
//! Everything below this crate computes topology; this crate serves
//! traffic against it. The shape of the problem (after *Dynamic Routing
//! in Space-Ground Integrated Quantum Networks* and *QuESat*): a stream
//! of hundreds of thousands to millions of entanglement requests
//! `(src, dst, arrival_step, deadline_steps, priority)` arriving over a
//! simulated day, served against the time-varying Scene → LinkMap →
//! Topology pipeline with retry/deadline semantics.
//!
//! The layers:
//!
//! - [`request`] — the validation boundary. Raw streams are untrusted;
//!   [`ingest`] rejects each malformed request with a [`ServeError`]
//!   (never a panic) and compacts the rest into a SoA [`RequestQueue`]
//!   grouped by arrival step.
//! - [`workload`] — seeded stream generators (uniform, Poisson, diurnal,
//!   hotspot) as scenario axes.
//! - [`serve`] — the amortized serving core: per attempt round, one SSSP
//!   table per *distinct source* instead of one Bellman–Ford per request,
//!   rayon-parallel over arrival groups, bit-identical to the naive
//!   per-request [`qntn_net::requests::RequestWorkload::evaluate_with_retries`]
//!   path (the differential contract, enforced by tests). Entry points
//!   for materialized outcomes ([`serve_full`]), streaming SLO aggregation
//!   ([`serve_report`]) and checkpointed/cancellable resilient runs
//!   ([`serve_resilient`]).
//! - [`hold`] — the store-and-forward serving mode: attempts route over a
//!   *time-expanded* graph within a bounded horizon, so nodes with
//!   decohering quantum memories ([`qntn_quantum::memory`]) can hold a
//!   Bell half for a better pass and swap across non-simultaneous links.
//!   Its entry points run the same group core as [`serve`] with the held
//!   router in place of the per-step one; a [`HoldPolicy::disabled`] run
//!   reproduces [`serve`] bit-identically (the zero-horizon differential
//!   contract).
//! - [`admission`] — the capacity-admission reference
//!   ([`qntn_net::capacity::CapacityModel`]): a sequential, deterministic
//!   timeline where same-step requests contend for per-link pair budgets
//!   in (priority, queue order). Tests compare the overload layer
//!   against it.
//! - [`overload`] — the sequential serving agenda for coupled requests:
//!   capacity admission plus retry budgets (token buckets over retry
//!   attempts), deterministic utilization-threshold load shedding with
//!   per-request [`ShedReason`]s, and a health-driven degradation ladder
//!   ([`DegradePolicy`]). An [`OverloadPolicy::disabled`] run reproduces
//!   the admission reference and the hold path bit-identically (the
//!   zero-config differential contract).
//!
//! Two loops serve every request: the parallel per-arrival-group core
//! in [`serve`], used when nothing couples requests, and the sequential
//! agenda in [`overload`], used when capacity or budgets couple them.
//! Both route a step's requests through one bucket router.

pub mod admission;
pub mod hold;
pub mod overload;
pub mod request;
pub mod serve;
pub mod workload;

pub use admission::{serve_with_admission, AdmissionOutcome};
pub use hold::{serve_full_with_holds, serve_report_with_holds, HoldPolicy};
pub use overload::{
    overload_report, serve_overload, DegradeMode, DegradePolicy, OverloadOutcome, OverloadPolicy,
    RetryBudget, ShedPolicy, ShedReason, DEGRADE_MODES,
};
pub use request::{ingest, RawRequest, RequestQueue, ServeError, PRIORITY_CLASSES};
pub use serve::{
    report_from_aggs, report_from_run, serve_full, serve_report, serve_resilient, ClassSlo,
    GroupAgg, ServeReport,
};
pub use workload::{flash_crowd, generate, FlashCrowdConfig, WorkloadKind};
