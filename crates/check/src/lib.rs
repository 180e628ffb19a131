//! Static analysis for the `wbsim` design space: a configuration linter
//! and a bounded exhaustive model checker.
//!
//! The differential oracle (`wbsim-oracle`) samples the design space with
//! random traces; the nastiest behaviors, though, live at exact boundary
//! configurations — retire-at == depth, depth 1, read-from-WB under
//! partial-line hits — that random sampling rarely pins. This crate closes
//! that gap with two complementary static gates:
//!
//! * [`lint`] — a rule engine over [`MachineConfig`]s and sweep grids
//!   producing structured [`Diagnostic`]s (stable codes, severities, field
//!   paths, suggestions; human and JSON renders). Hard validity stays in
//!   [`MachineConfig::validate`]; the linter maps its errors to `CFG…`
//!   diagnostics and layers advisory `LNT…` rules on top.
//! * [`bounded`] — exhaustive enumeration of *all* op sequences up to a
//!   small length over 2 cache lines × 2 words, across every hazard policy
//!   × depth 1–4 × retire-at mark, asserting the paper's invariants from
//!   the event stream on every run. Violations come back as minimized,
//!   replayable JSONL counterexamples.
//! * [`reach`] — *unbounded* reachability: a visited-set BFS over the
//!   canonical [`abstract_state`] quotient of the machine (value-blind,
//!   time-shifted, line-renamed), proving the same invariants for op
//!   sequences of arbitrary length, plus a drain-graph liveness analysis
//!   that catches livelocks no bounded enumeration can see.
//! * [`prop`] / [`prop_parse`] / [`prop_automaton`] / [`prop_product`] —
//!   a declarative *temporal property language* (`.wbp` files) over the
//!   event alphabet: user-defined safety and liveness specs compiled to
//!   monitor automata and checked three ways — unboundedly via the
//!   product with the abstract state graph, boundedly through the
//!   sequence drivers, and at runtime over recorded JSONL traces. The
//!   built-in library ([`builtin_library`]) encodes the paper's claims.
//! * [`refine`] — *cross-engine refinement*: a lockstep product BFS of
//!   (event-driven, reference) machine pairs over the same abstract
//!   quotient, proving the fast engine's claimed skip spans and event
//!   stream cycle-exact for op sequences of arbitrary length, with
//!   span-classified divergences (`REF100`–`REF102`) minimized into
//!   replayable counterexamples.
//!
//! The CLI front end is `wbsim check`; the experiments harness lints every
//! sweep grid before running it.
//!
//! # Example
//!
//! ```
//! use wbsim_check::{lint_config, Severity};
//! use wbsim_types::config::MachineConfig;
//! use wbsim_types::policy::RetirementPolicy;
//!
//! let mut cfg = MachineConfig::baseline();
//! cfg.write_buffer.retirement = RetirementPolicy::RetireAt(4);
//! let diags = lint_config(&cfg);
//! assert_eq!(diags[0].code, "LNT001"); // zero headroom
//! assert_eq!(diags[0].severity, Severity::Warning);
//! ```
//!
//! [`MachineConfig`]: wbsim_types::config::MachineConfig
//! [`MachineConfig::validate`]: wbsim_types::config::MachineConfig::validate
//! [`Diagnostic`]: wbsim_types::diagnostics::Diagnostic

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstract_state;
pub mod bounded;
mod explore;
pub mod lint;
pub mod prop;
pub mod prop_automaton;
pub mod prop_parse;
pub mod prop_product;
pub mod reach;
pub mod refine;
pub mod sched;

pub use abstract_state::{ShadowTracker, StateKey, WordAbs};
pub use bounded::{
    bounded_configs, check_exhaustive, check_exhaustive_jobs, check_exhaustive_nonblocking_jobs,
    check_sequence, default_jobs, nonblocking_configs, run_indexed_earliest, CheckReport,
    Counterexample,
};
pub use lint::{
    config_error_diagnostic, lint_config, lint_grid, lint_nonblocking, parse_error_diagnostic,
    Rule, RULES,
};
pub use prop::{
    builtin_library, builtin_library_text, check_props_sequence, compile as compile_props,
    first_prop_violation, PropEnv, PropRunner, PropViolation, SkippedProp, PROP_LIBRARY_VERSION,
};
pub use prop_automaton::Monitors;
pub use prop_parse::{parse_props, PropSet};
pub use prop_product::{
    check_props_reach_config, check_props_reach_jobs, check_props_reach_nonblocking_jobs,
    PropConfigStats, PropReport,
};
pub use reach::{
    check_liveness_sequence, check_reach_config, check_reach_config_nonblocking, check_reach_jobs,
    check_reach_nonblocking_jobs, ReachConfigStats, ReachViolation,
};
pub use refine::{
    check_refine_config, check_refine_config_nonblocking, check_refine_jobs,
    check_refine_nonblocking_jobs, first_divergence, read_event_stream, refine_universe,
    RefineConfigStats, RefineViolation,
};
pub use sched::{
    classify as classify_execution, explore, replay as replay_schedule, FnHarness, HarnessResult,
    HarnessStats, ReplayOutcome, SchedChoice, SchedCounterexample, SchedHarness, SchedOptions,
};
pub use wbsim_types::diagnostics::{any_errors, Diagnostic, Severity};
