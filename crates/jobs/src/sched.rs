//! The concrete `wbsim check --sched` harnesses: small fixed-thread
//! scenarios over the *real* serve/jobs/pool kernels, explored by the
//! controlled scheduler in [`wbsim_check::sched`].
//!
//! Three harnesses cover the workspace's host-level concurrency:
//!
//! * `store-race` — two submissions of the same cache key race through
//!   [`Store::execute_memoized`]. Safety: the job executes exactly once,
//!   the store books stay conserved. Liveness: both submissions return.
//! * `serve-drain` — two daemon workers against one submitter that
//!   enqueues a job and immediately begins shutdown, over the serve
//!   queue kernel. Safety: the job is popped exactly once. Liveness:
//!   every worker wakes and joins (no lost condvar wakeup).
//! * `pool-steal` — the shared cell scheduler
//!   [`wbsim_check::run_indexed_earliest`] with a failing cell: the
//!   earliest-abort protocol must report the lowest failing index on
//!   every schedule.
//!
//! All three run clean on the shipped code. To prove the checker has
//! teeth, two faults can be injected ([`SchedFault`]): `lost-wakeup`
//! (shutdown signals `notify_one`, stranding a parked worker — `SCH102`)
//! and `dup-execute` (the store's check-or-claim widened back to an
//! unlocked check-then-insert — `SCH100`). Each produces a minimized
//! schedule that replays deterministically via `--replay`.

use wbsim_check::run_indexed_earliest;
use wbsim_check::sched::{
    explore, replay, FnHarness, HarnessResult, ReplayOutcome, SchedCounterexample, SchedHarness,
    SchedOptions, Violation,
};
use wbsim_types::diagnostics::{Diagnostic, Severity};
use wbsim_types::sync::atomic::AtomicU64;
use wbsim_types::sync::{scope, Mutex, Ordering};
use wbsim_types::KeyHasher;

use crate::serve::QueueCore;
use crate::store::{JobOutcome, Store};

/// A deliberately injected concurrency fault, for proving the checker
/// catches real bug classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedFault {
    /// `QueueCore::begin_shutdown` signals `notify_one` instead of
    /// `notify_all`: with two parked workers one is stranded (`SCH102`).
    LostWakeup,
    /// `Store::execute_memoized` falls back to an unlocked
    /// check-then-insert: racing submissions both execute (`SCH100`).
    DupExecute,
}

wbsim_types::wire_names!(SchedFault { LostWakeup => "lost-wakeup", DupExecute => "dup-execute" });

impl SchedFault {
    /// The harness that exposes this fault.
    #[must_use]
    pub fn harness_name(self) -> &'static str {
        match self {
            SchedFault::LostWakeup => "serve-drain",
            SchedFault::DupExecute => "store-race",
        }
    }

    /// The verdict the fault must produce (the checker's teeth are proven
    /// only when exploration reports exactly this code).
    #[must_use]
    pub fn expected_code(self) -> &'static str {
        match self {
            SchedFault::LostWakeup => "SCH102",
            SchedFault::DupExecute => "SCH100",
        }
    }
}

fn violation(message: String) -> Violation {
    Violation {
        liveness: false,
        message,
    }
}

/// Two submissions of one cache key race through `execute_memoized`.
fn store_race(fault: bool) -> impl SchedHarness {
    FnHarness::new("store-race", move || {
        let store = if fault {
            Store::with_dup_execute_fault()
        } else {
            Store::new()
        };
        let key = KeyHasher::new().field("k", "sched").finish();
        let executions = AtomicU64::new(0);
        scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let (outcome, _cached) = store.execute_memoized(key, || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        JobOutcome {
                            cells: 1,
                            ..JobOutcome::default()
                        }
                    });
                    drop(outcome);
                });
            }
        });
        let mut v = Vec::new();
        let runs = executions.load(Ordering::SeqCst);
        if runs != 1 {
            v.push(violation(format!(
                "job executed {runs} times (want exactly once)"
            )));
        }
        let s = store.stats();
        if s.cells_executed != 1 || s.entries != 1 {
            v.push(violation(format!(
                "store books off: {} cells executed, {} entries (want 1/1)",
                s.cells_executed, s.entries
            )));
        }
        if s.hits + s.misses != 2 {
            v.push(violation(format!(
                "counters not conserved: {} hits + {} misses != 2 submissions",
                s.hits, s.misses
            )));
        }
        v
    })
}

/// Two workers drain the serve queue kernel while a submitter enqueues one
/// job and immediately begins shutdown.
fn serve_drain(fault: bool) -> impl SchedHarness {
    FnHarness::new("serve-drain", move || {
        let core = if fault {
            QueueCore::with_lost_wakeup_fault()
        } else {
            QueueCore::new()
        };
        let popped = Mutex::new(Vec::new());
        scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while let Some(id) = core.pop_or_park() {
                        popped.lock().push(id);
                    }
                });
            }
            s.spawn(|| {
                core.push(1);
                core.begin_shutdown();
            });
        });
        let got = popped.into_inner();
        if got != [1] {
            vec![violation(format!(
                "submitted job popped {} times (want exactly once)",
                got.len()
            ))]
        } else {
            vec![]
        }
    })
}

/// The shared cell scheduler under a mid-grid failure: the earliest-abort
/// protocol must report the lowest failing index on every schedule.
fn pool_steal() -> impl SchedHarness {
    FnHarness::new("pool-steal", || {
        let result: Result<Vec<u32>, (usize, u32)> =
            run_indexed_earliest(3, 2, |i, _abort| match i {
                0 => Ok(10),
                _ => Err(i as u32),
            });
        if result == Err((1, 1)) {
            vec![]
        } else {
            vec![violation(format!(
                "earliest failure not schedule-independent: got {result:?}, want Err((1, 1))"
            ))]
        }
    })
}

fn make_harness(name: &str, fault: Option<SchedFault>) -> Option<Box<dyn SchedHarness>> {
    match (name, fault) {
        ("store-race", None) => Some(Box::new(store_race(false))),
        ("store-race", Some(SchedFault::DupExecute)) => Some(Box::new(store_race(true))),
        ("serve-drain", None) => Some(Box::new(serve_drain(false))),
        ("serve-drain", Some(SchedFault::LostWakeup)) => Some(Box::new(serve_drain(true))),
        ("pool-steal", None) => Some(Box::new(pool_steal())),
        _ => None,
    }
}

/// Names of the harnesses a healthy (no-fault) run explores.
pub const HARNESSES: [&str; 3] = ["store-race", "serve-drain", "pool-steal"];

/// The outcome of a `wbsim check --sched` pass.
pub struct SchedReport {
    /// The injected fault, if any.
    pub fault: Option<SchedFault>,
    /// One result per explored harness.
    pub results: Vec<HarnessResult>,
}

impl SchedReport {
    /// `true` when the pass succeeded: every harness clean with no fault
    /// injected, or the injected fault caught with its expected verdict.
    #[must_use]
    pub fn ok(&self) -> bool {
        match self.fault {
            None => self.results.iter().all(|r| r.stats.verdict == "clean"),
            Some(f) => self
                .results
                .iter()
                .all(|r| r.stats.verdict == f.expected_code() && r.counterexample.is_some()),
        }
    }

    /// The first counterexample found, if any.
    #[must_use]
    pub fn counterexample(&self) -> Option<&SchedCounterexample> {
        self.results.iter().find_map(|r| r.counterexample.as_ref())
    }

    /// The `sched` section of the merged `--json` report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let harnesses: Vec<String> = self.results.iter().map(|r| r.stats.to_json()).collect();
        format!(
            "{{\"harnesses\":[{}],\"clean\":{}}}",
            harnesses.join(","),
            self.counterexample().is_none()
        )
    }
}

/// Explores the harnesses: all three when `fault` is `None`, or exactly
/// the faulty one, tagging its counterexample with the fault's wire name.
#[must_use]
pub fn run_sched(fault: Option<SchedFault>, opts: &SchedOptions) -> SchedReport {
    let mut results = Vec::new();
    match fault {
        None => {
            for name in HARNESSES {
                let h = make_harness(name, None).expect("built-in harness");
                results.push(explore(h.as_ref(), opts));
            }
        }
        Some(f) => {
            let h = make_harness(f.harness_name(), Some(f)).expect("built-in harness");
            let mut r = explore(h.as_ref(), opts);
            if let Some(cex) = &mut r.counterexample {
                cex.fault = Some(f.name().to_string());
            }
            results.push(r);
        }
    }
    SchedReport { fault, results }
}

/// Parses a serialized schedule and replays it against its harness.
///
/// # Errors
///
/// `SCH001` for malformed input, `SCH002` when the header names an
/// unknown harness or fault (or a fault that does not belong to the
/// harness).
pub fn replay_sched(
    text: &str,
    opts: &SchedOptions,
) -> Result<(SchedCounterexample, ReplayOutcome), Box<Diagnostic>> {
    let cex = SchedCounterexample::parse(text)?;
    let fault = match cex.fault.as_deref() {
        None => None,
        Some(name) => Some(SchedFault::from_name(name).ok_or_else(|| {
            Diagnostic::new("SCH002", Severity::Error, "schedule.fault".to_string()).with_message(
                format!("unknown fault {name:?} ({})", SchedFault::NAMES.join(" | ")),
            )
        })?),
    };
    let h = make_harness(&cex.harness, fault).ok_or_else(|| {
        Diagnostic::new("SCH002", Severity::Error, "schedule.harness".to_string()).with_message(
            format!(
                "no harness {:?} with fault {:?} ({})",
                cex.harness,
                fault.map(SchedFault::name),
                HARNESSES.join(" | ")
            ),
        )
    })?;
    let outcome = replay(h.as_ref(), &cex, opts);
    Ok((cex, outcome))
}

/// The `SCH003` diagnostic for a replay that did not reproduce its
/// recorded verdict.
#[must_use]
pub fn replay_mismatch(cex: &SchedCounterexample, outcome: &ReplayOutcome) -> Diagnostic {
    let saw = outcome
        .verdict
        .as_ref()
        .map_or("clean".to_string(), |(c, _)| c.clone());
    let mut d =
        Diagnostic::new("SCH003", Severity::Error, "schedule".to_string()).with_message(format!(
            "recorded verdict {} did not reproduce (saw {saw})",
            cex.code
        ));
    if let Some(at) = outcome.diverged_at {
        d = d.with_message(format!(
            "recorded verdict {} did not reproduce (execution diverged at step {at})",
            cex.code
        ));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_opts() -> SchedOptions {
        SchedOptions::default()
    }

    #[test]
    fn all_harnesses_run_clean_on_shipped_code() {
        let report = run_sched(None, &fast_opts());
        assert!(report.ok(), "verdicts: {:?}", verdicts(&report));
        assert_eq!(report.results.len(), HARNESSES.len());
        for r in &report.results {
            assert!(
                r.stats.schedules > 1,
                "{} explored only {} schedules — the explorer never branched",
                r.stats.harness,
                r.stats.schedules
            );
            assert!(!r.budget_exceeded, "{} hit the budget", r.stats.harness);
        }
        let json = report.to_json();
        assert!(json.contains("\"clean\":true"), "{json}");
        assert!(json.contains("\"harness\":\"store-race\""), "{json}");
    }

    fn verdicts(report: &SchedReport) -> Vec<(String, String)> {
        report
            .results
            .iter()
            .map(|r| (r.stats.harness.clone(), r.stats.verdict.clone()))
            .collect()
    }

    #[test]
    fn lost_wakeup_fault_is_caught_minimized_and_replays() {
        let report = run_sched(Some(SchedFault::LostWakeup), &fast_opts());
        assert!(report.ok(), "verdicts: {:?}", verdicts(&report));
        let cex = report.counterexample().expect("counterexample");
        assert_eq!(cex.code, "SCH102");
        assert_eq!(cex.fault.as_deref(), Some("lost-wakeup"));
        assert!(cex.prefix <= cex.schedule.len());
        // Round-trip through JSONL and replay: the verdict must reproduce.
        let (parsed, outcome) = replay_sched(&cex.to_jsonl(), &fast_opts()).expect("replay");
        assert!(outcome.matches(&parsed), "{:?}", outcome.verdict);
    }

    #[test]
    fn dup_execute_fault_is_caught_minimized_and_replays() {
        let report = run_sched(Some(SchedFault::DupExecute), &fast_opts());
        assert!(report.ok(), "verdicts: {:?}", verdicts(&report));
        let cex = report.counterexample().expect("counterexample");
        assert_eq!(cex.code, "SCH100");
        assert!(cex.detail.contains("executed 2 times"), "{}", cex.detail);
        let (parsed, outcome) = replay_sched(&cex.to_jsonl(), &fast_opts()).expect("replay");
        assert!(outcome.matches(&parsed), "{:?}", outcome.verdict);
    }

    #[test]
    fn replaying_a_faulty_schedule_against_clean_code_reports_mismatch() {
        let report = run_sched(Some(SchedFault::DupExecute), &fast_opts());
        let mut cex = report.counterexample().expect("counterexample").clone();
        // Strip the fault: the same schedule against the healthy store
        // must NOT reproduce the violation.
        cex.fault = None;
        let (parsed, outcome) = replay_sched(&cex.to_jsonl(), &fast_opts()).expect("replay");
        assert!(!outcome.matches(&parsed));
        let d = replay_mismatch(&parsed, &outcome);
        assert_eq!(d.code, "SCH003");
    }

    #[test]
    fn unknown_harness_or_fault_is_sch002() {
        let good = run_sched(Some(SchedFault::LostWakeup), &fast_opts());
        let cex = good.counterexample().unwrap();
        let text = cex.to_jsonl();
        let bad_fault = text.replacen("lost-wakeup", "clock-skew", 1);
        let d = replay_sched(&bad_fault, &fast_opts()).expect_err("unknown fault");
        assert_eq!(d.code, "SCH002");
        let bad_harness = text.replacen("serve-drain", "disk-flush", 1);
        let d = replay_sched(&bad_harness, &fast_opts()).expect_err("unknown harness");
        assert_eq!(d.code, "SCH002");
        // A real fault on the wrong harness is rejected too.
        let wrong_pairing = text.replacen("lost-wakeup", "dup-execute", 1);
        let d = replay_sched(&wrong_pairing, &fast_opts()).expect_err("wrong pairing");
        assert_eq!(d.code, "SCH002");
    }
}
