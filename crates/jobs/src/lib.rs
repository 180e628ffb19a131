//! # wbsim-jobs — the unified job layer
//!
//! Every way of asking wbsim for results — `wbsim table`, `wbsim figure`,
//! `wbsim check`, `wbsim bench`, and the `wbsim serve` daemon — lowers to
//! the same pieces:
//!
//! - [`manifest`]: a schema-validated [`Manifest`] (wire format
//!   `wbsim-job/1`) describing a sweep grid, check request, bench run, or
//!   trace capture, plus the shared scale/seed/pool [`Options`]. Malformed
//!   manifests yield structured [`wbsim_types::diagnostics::Diagnostic`]s.
//! - [`store`]: a content-addressed result [`Store`] keyed by
//!   [`Manifest::cache_key`] — FNV-1a over kind, spec, workload, seed, and
//!   engine variant/version. Identical manifests hash identically;
//!   flipping any semantic field changes the key; pool width does not.
//! - [`exec`]: the [`Executor`] that lowers a manifest onto the existing
//!   crates and composes [`Artifact`]s holding the *exact bytes* the
//!   one-shot CLI prints, so routing through this layer is invisible in
//!   the output and a cache hit re-runs zero cells.
//! - [`passes`]: the table of `wbsim check` passes. The check job and the
//!   `wbsim check` command (both output modes) run [`passes::run`], so
//!   `check --json` prints the check job's `check.json` byte for byte.
//!
//! [`mod@serve`] wraps the three in a dependency-free HTTP/1.1 daemon.
//!
//! The layer's host-level concurrency (store memoization, the serve
//! queue, the worker pool) is written against the [`wbsim_types::sync`]
//! shim and model-checked by the [`sched`] harnesses under
//! `wbsim check --sched`.

pub mod exec;
pub mod manifest;
pub mod passes;
pub mod sched;
pub mod serve;
pub mod store;

pub use exec::{execute, merged_check_json, Executor, JobResult};
pub use manifest::{
    CheckConfig, CheckSpec, FigureFormat, JobKind, MachineSel, Manifest, Options, SCHEMA,
};
pub use sched::{replay_sched, run_sched, SchedFault, SchedReport};
pub use serve::{serve, DEFAULT_ADDR, DEFAULT_WORKERS, TEST_PANIC_ENV};
pub use store::{Artifact, JobOutcome, Store, StoreStats};
