//! The `wbsim check` pass table: one entry per model-checking pass, in
//! the order of the `check.json` sections.
//!
//! Every front end runs passes through [`run`]: the executor's check job
//! renders the result into the `check.json` artifact plus counterexample
//! artifacts, and `wbsim check` prints either the same document
//! (`--json`) or each pass's human summary. A pass is wired exactly once,
//! here; `docs/architecture.md` lists the steps to add one.

use wbsim_check::sched::SchedCounterexample;
use wbsim_check::{
    builtin_library, check_exhaustive_jobs, check_exhaustive_nonblocking_jobs,
    check_props_reach_jobs, check_props_reach_nonblocking_jobs, check_reach_jobs,
    check_reach_nonblocking_jobs, check_refine_jobs, check_refine_nonblocking_jobs, default_jobs,
    lint_config, lint_nonblocking, parse_error_diagnostic, parse_props, Counterexample, PropSet,
    ReachViolation, SchedOptions,
};
use wbsim_types::config::MachineConfig;
use wbsim_types::diagnostics::{any_errors, Diagnostic};
use wbsim_types::file_config::parse_machine_config;
use wbsim_types::json::escape;
use wbsim_types::policy::RetirementPolicy;

use crate::exec::merged_check_json;
use crate::manifest::{CheckSpec, MachineSel};
use crate::sched::run_sched;

/// One model-checking pass.
pub struct Pass {
    /// The `wbsim check` flag that selects the pass (without dashes).
    pub flag: &'static str,
    /// The pass's section key in the `check.json` document.
    pub section: &'static str,
    /// Stem of its counterexample artifacts: `<stem>.jsonl`, plus
    /// `<stem>.meta.json` for a machine trace.
    pub artifact: &'static str,
    /// Where `wbsim check` writes its counterexample without `--out`.
    pub default_out: &'static str,
    /// Whether a spec selects the pass.
    pub selected: fn(&CheckSpec) -> bool,
    /// Runs the pass on a pool of the given width.
    pub run: fn(&CheckSpec, usize) -> PassRun,
}

const TRACE_OUT: &str = "wbsim-counterexample.jsonl";

/// Every pass, in `check.json` section order.
pub static PASSES: [Pass; 5] = [
    Pass {
        flag: "exhaustive",
        section: "exhaustive",
        artifact: "counterexample-exhaustive",
        default_out: TRACE_OUT,
        selected: |s| s.exhaustive,
        run: exhaustive,
    },
    Pass {
        flag: "reach",
        section: "reach",
        artifact: "counterexample-reach",
        default_out: TRACE_OUT,
        selected: |s| s.reach,
        run: reach,
    },
    Pass {
        flag: "prop",
        section: "properties",
        artifact: "counterexample-properties",
        default_out: TRACE_OUT,
        selected: |s| s.props,
        run: properties,
    },
    Pass {
        flag: "refine",
        section: "refine",
        artifact: "counterexample-refine",
        default_out: TRACE_OUT,
        selected: |s| s.refine,
        run: refine,
    },
    Pass {
        flag: "sched",
        section: "sched",
        artifact: "counterexample-sched",
        default_out: "wbsim-sched-counterexample.jsonl",
        selected: |s| s.sched,
        run: sched,
    },
];

/// What one pass came back with.
#[derive(Debug)]
pub struct PassRun {
    /// The pass's `check.json` section (a JSON value).
    pub section: String,
    /// Human summary lines: a clean pass's report, plus `sched`'s
    /// per-harness verdicts whatever the outcome.
    pub summary: Vec<String>,
    /// Why the pass failed, if it did.
    pub violation: Option<Violation>,
    /// Cells executed: runs for `exhaustive`, configurations for the
    /// unbounded passes, none for `sched` or a failed pass.
    pub cells: u64,
}

/// A failed pass.
#[derive(Debug)]
pub struct Violation {
    /// Structured findings (human mode prints them to stderr).
    pub diagnostics: Vec<Diagnostic>,
    /// The command's error message.
    pub error: String,
    /// The replayable counterexample, when the pass produced one.
    pub counterexample: Option<Evidence>,
}

/// A replayable counterexample.
#[derive(Debug)]
pub enum Evidence {
    /// A minimized op sequence and its event trace, replayed by
    /// `wbsim trace validate`.
    Trace(Box<Counterexample>),
    /// A minimized host schedule, replayed by `wbsim check --sched
    /// --replay`.
    Schedule(SchedCounterexample),
}

impl Evidence {
    /// The JSONL bytes `--out` and the counterexample artifact receive.
    #[must_use]
    pub fn jsonl(&self) -> String {
        match self {
            Evidence::Trace(ce) => ce.trace.iter().map(|line| format!("{line}\n")).collect(),
            Evidence::Schedule(cex) => cex.to_jsonl(),
        }
    }
}

/// A whole check: the linter's findings and every selected pass's
/// result, in table order.
#[derive(Debug)]
pub struct CheckRun {
    /// The linter section.
    pub lint: Vec<Diagnostic>,
    /// One slot per [`PASSES`] entry; `None` when the pass was not
    /// selected.
    pub passes: [Option<PassRun>; PASSES.len()],
}

impl CheckRun {
    /// The selected passes with their results, in table order.
    pub fn ran(&self) -> impl Iterator<Item = (&'static Pass, &PassRun)> {
        PASSES
            .iter()
            .zip(&self.passes)
            .filter_map(|(pass, r)| Some((pass, r.as_ref()?)))
    }

    /// The `check.json` document, newline-terminated as the CLI prints it.
    #[must_use]
    pub fn document(&self) -> String {
        let sections = self
            .passes
            .each_ref()
            .map(|r| r.as_ref().map(|r| r.section.as_str()));
        merged_check_json(&self.lint, sections) + "\n"
    }

    /// Whether the linter found an error or any pass failed.
    #[must_use]
    pub fn failed(&self) -> bool {
        any_errors(&self.lint) || self.ran().any(|(_, r)| r.violation.is_some())
    }
}

/// Lints the spec's configuration and runs every selected pass in table
/// order on `jobs` workers (`0` sizes the pool to the machine).
#[must_use]
pub fn run(spec: &CheckSpec, jobs: usize) -> CheckRun {
    let jobs = if jobs == 0 { default_jobs() } else { jobs };
    CheckRun {
        lint: lint_section(spec),
        passes: std::array::from_fn(|i| {
            let pass = &PASSES[i];
            (pass.selected)(spec).then(|| (pass.run)(spec, jobs))
        }),
    }
}

/// The linter section: hard validation plus the advisory rules, with the
/// MSHR-sizing rule layered on when the non-blocking machine is selected.
/// Overrides apply to the baseline *unvalidated*: rejecting a bad
/// configuration is the linter's job, with a structured diagnostic.
fn lint_section(spec: &CheckSpec) -> Vec<Diagnostic> {
    let cfg = match &spec.config.file {
        Some(text) => match parse_machine_config(text) {
            Ok(cfg) => cfg,
            Err(errs) => return errs.0.iter().map(parse_error_diagnostic).collect(),
        },
        None => {
            let mut cfg = MachineConfig::baseline();
            let wb = &mut cfg.write_buffer;
            wb.depth = spec.config.depth.unwrap_or(wb.depth);
            if let Some(r) = spec.config.retire_at {
                wb.retirement = RetirementPolicy::RetireAt(r);
            }
            wb.hazard = spec.config.hazard.unwrap_or(wb.hazard);
            cfg
        }
    };
    match spec.machine {
        MachineSel::Blocking => lint_config(&cfg),
        MachineSel::NonBlocking => lint_nonblocking(&cfg, spec.mshrs.unwrap_or(1)),
    }
}

/// How a clean pass's summary names the machine under check.
fn machine_label(spec: &CheckSpec) -> String {
    match (spec.machine, spec.mshrs) {
        (MachineSel::Blocking, _) => "blocking machine".to_string(),
        (MachineSel::NonBlocking, Some(m)) => format!("non-blocking machine, {m} MSHRs"),
        (MachineSel::NonBlocking, None) => "non-blocking machine, 1-4 MSHRs".to_string(),
    }
}

/// A clean grid pass: its report as the section, one summary line.
fn clean(report: String, cells: u64, summary: String) -> PassRun {
    PassRun {
        section: format!("{{\"status\":\"clean\",\"report\":{report}}}"),
        summary: vec![summary],
        violation: None,
        cells,
    }
}

/// A failed pass with no summary and no cells.
fn failed(section: String, violation: Violation) -> PassRun {
    PassRun {
        section,
        summary: Vec::new(),
        violation: Some(violation),
        cells: 0,
    }
}

/// A failed unbounded pass: its diagnostic as the section and on stderr.
fn violated(v: ReachViolation, what: &str) -> PassRun {
    let d = v.diagnostic;
    failed(
        format!(
            "{{\"status\":\"violation\",\"diagnostic\":{}}}",
            d.to_json()
        ),
        Violation {
            error: format!("{what} check failed ({})", d.code),
            diagnostics: vec![d],
            counterexample: v.counterexample.map(Evidence::Trace),
        },
    )
}

fn exhaustive(spec: &CheckSpec, jobs: usize) -> PassRun {
    let result = match spec.machine {
        MachineSel::Blocking => check_exhaustive_jobs(spec.max_ops, spec.fault, jobs),
        MachineSel::NonBlocking => {
            check_exhaustive_nonblocking_jobs(spec.max_ops, spec.fault, spec.mshrs, jobs)
        }
    };
    match result {
        Ok(r) => clean(
            r.to_json(),
            r.runs,
            format!(
                "bounded exhaustive check clean ({}): {} runs ({} configurations x {} op \
                 sequences of length 1..={}) in {} ms, no invariant violations",
                machine_label(spec),
                r.runs,
                r.configs,
                r.sequences,
                spec.max_ops,
                r.wall_ms
            ),
        ),
        Err(ce) => failed(
            format!(
                "{{\"status\":\"violation\",\"violation\":{}}}",
                escape(&ce.violation)
            ),
            Violation {
                diagnostics: Vec::new(),
                error: "bounded exhaustive check found an invariant violation".to_string(),
                counterexample: Some(Evidence::Trace(ce)),
            },
        ),
    }
}

fn reach(spec: &CheckSpec, jobs: usize) -> PassRun {
    let result = match spec.machine {
        MachineSel::Blocking => check_reach_jobs(spec.fault, jobs),
        MachineSel::NonBlocking => check_reach_nonblocking_jobs(spec.fault, spec.mshrs, jobs),
    };
    match result {
        Ok(r) => clean(
            r.to_json(),
            r.configs,
            format!(
                "reachability check clean ({}): {} configurations, {} abstract states, \
                 {} transitions, {} drain-graph SCCs (all progressing) in {} ms; \
                 every safety invariant holds at every reachable state and no \
                 livelock exists",
                machine_label(spec),
                r.configs,
                r.states_explored,
                r.edges,
                r.sccs,
                r.wall_ms
            ),
        ),
        Err(v) => violated(*v, "reachability"),
    }
}

/// The property set a `.wbp` text describes; `None` is the built-in
/// library.
///
/// # Errors
///
/// The parser's diagnostics for a text that does not parse.
pub fn prop_set(text: Option<&str>) -> Result<PropSet, Vec<Diagnostic>> {
    text.map_or_else(|| Ok(builtin_library()), parse_props)
}

/// Resolves the property set (a supplied `.wbp` text or the built-in
/// library) and runs the unbounded product over the grid. A set that
/// fails to parse renders as `"invalid"` with the parser's diagnostics.
fn properties(spec: &CheckSpec, jobs: usize) -> PassRun {
    let set = match prop_set(spec.props_file.as_deref()) {
        Ok(set) => set,
        Err(diags) => {
            let rendered: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
            return failed(
                format!(
                    "{{\"status\":\"invalid\",\"diagnostics\":[{}]}}",
                    rendered.join(",")
                ),
                Violation {
                    error: format!("property set has {} parse diagnostic(s)", diags.len()),
                    diagnostics: diags,
                    counterexample: None,
                },
            );
        }
    };
    let result = match spec.machine {
        MachineSel::Blocking => check_props_reach_jobs(&set, spec.fault, jobs),
        MachineSel::NonBlocking => {
            check_props_reach_nonblocking_jobs(&set, spec.fault, spec.mshrs, jobs)
        }
    };
    match result {
        Ok(r) => clean(
            r.to_json(),
            r.configs,
            format!(
                "property check clean ({}): {} properties over {} configurations, \
                 {} product states, {} transitions in {} ms; every safety property \
                 holds at every reachable state and every liveness obligation is \
                 discharged",
                machine_label(spec),
                r.properties,
                r.configs,
                r.states_explored,
                r.edges,
                r.wall_ms
            ),
        ),
        Err(v) => violated(*v, "property"),
    }
}

fn refine(spec: &CheckSpec, jobs: usize) -> PassRun {
    let result = match spec.machine {
        MachineSel::Blocking => check_refine_jobs(spec.fault, jobs),
        MachineSel::NonBlocking => check_refine_nonblocking_jobs(spec.fault, spec.mshrs, jobs),
    };
    match result {
        Ok(r) => clean(
            r.to_json(),
            r.configs,
            format!(
                "refinement check clean ({}): {} configurations, {} abstract pair-states, \
                 {} product transitions in {} ms; the event-driven and reference engines \
                 produce identical event streams and clock advances at every reachable \
                 state, for op sequences of any length",
                machine_label(spec),
                r.configs,
                r.states_explored,
                r.edges,
                r.wall_ms
            ),
        ),
        Err(v) => violated(*v, "refinement"),
    }
}

/// Explores the host-concurrency harnesses. A violating schedule fails
/// the pass; so does a fault run that did not catch its injected fault
/// (the checker itself is broken).
fn sched(spec: &CheckSpec, _jobs: usize) -> PassRun {
    let mut opts = SchedOptions::default();
    opts.preemption_bound = spec.sched_preemptions.unwrap_or(opts.preemption_bound);
    let report = run_sched(spec.sched_fault, &opts);
    let mut summary: Vec<String> = report
        .results
        .iter()
        .map(|r| {
            let s = &r.stats;
            format!(
                "sched {}: {} ({} schedules, max depth {})",
                s.harness, s.verdict, s.schedules, s.max_depth
            )
        })
        .collect();
    let cex = report.counterexample().cloned();
    let error = match (&cex, report.fault) {
        (Some(cex), _) => Some(format!("{}: {}", cex.code, cex.detail)),
        (None, _) if report.ok() => None,
        (None, Some(f)) => Some(format!(
            "injected fault {} was not caught (expected {})",
            f.name(),
            f.expected_code()
        )),
        (None, None) => Some(
            "sched exploration exhausted its budget before covering the state space".to_string(),
        ),
    };
    if error.is_none() {
        let bound = opts.preemption_bound;
        summary.push(format!(
            "ok: all interleavings clean (preemption bound {bound})"
        ));
    }
    PassRun {
        section: report.to_json(),
        summary,
        violation: error.map(|error| Violation {
            diagnostics: Vec::new(),
            error,
            counterexample: cex.map(Evidence::Schedule),
        }),
        cells: 0,
    }
}
