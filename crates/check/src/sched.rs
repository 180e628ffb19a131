//! `wbsim-sched`: a loom-style controlled-scheduler model checker for the
//! workspace's host-level concurrency (the serve daemon, the job store, the
//! worker pool).
//!
//! The runtime half lives in [`wbsim_types::sync::model`]: kernels ported to
//! the [`wbsim_types::sync`] shim run on real OS threads under a single-token
//! protocol that turns every lock/atomic/condvar operation into a decision
//! point. This module is the exploration half:
//!
//! * [`explore`] — stateless DFS over thread schedules. Each execution is
//!   replayed from a choice prefix; backtracking enumerates enabled
//!   alternatives at every decision point, pruned by *sleep sets* (the
//!   dynamic half of partial-order reduction: an alternative independent of
//!   every choice already explored at a state is provably redundant) and a
//!   *preemption bound* (schedules with more than `preemption_bound`
//!   involuntary context switches are skipped — the standard
//!   context-bounding under-approximation, catching the overwhelming
//!   majority of real concurrency bugs at a fraction of the cost).
//! * [`classify`] — maps a recorded [`Execution`] to an `SCH` verdict:
//!   `SCH100` safety (invariant violation or panic), `SCH101` deadlock,
//!   `SCH102` liveness (lost wakeup, job never terminal), `SCH004` budget.
//! * [`SchedCounterexample`] — a violating schedule minimized to its
//!   shortest forcing prefix, serialized as JSONL and replayable
//!   deterministically via [`replay`]; mismatches surface as `SCH003`.
//!
//! The concrete harnesses (store races, serve drain, pool steal) live in
//! `wbsim-jobs`, next to the kernels they exercise; the CLI front end is
//! `wbsim check --sched`.

use std::collections::BTreeSet;

use wbsim_types::diagnostics::{Diagnostic, Severity};
use wbsim_types::json::{self, Json};
pub use wbsim_types::sync::model::{
    run_one, ExecOutcome, ExecStep, Execution, OpDesc, OpKind, Violation,
};

/// A fixed-thread scenario the explorer can enumerate. Implementations
/// construct every shared object *inside* [`SchedHarness::body`] so each
/// schedule starts from identical state.
pub trait SchedHarness: Sync {
    /// Stable harness name (used in reports, schedules, and the CLI).
    fn name(&self) -> &str;
    /// A fresh run of the scenario: returns the end-state invariant
    /// violations (empty = this interleaving is correct).
    fn body(&self) -> Box<dyn FnOnce() -> Vec<Violation> + Send + '_>;
}

/// A [`SchedHarness`] built from a closure; handy for small scenarios.
pub struct FnHarness<F> {
    name: &'static str,
    make: F,
}

impl<F> FnHarness<F>
where
    F: Fn() -> Vec<Violation> + Send + Sync,
{
    /// Wraps `f` as a harness named `name`.
    pub fn new(name: &'static str, f: F) -> FnHarness<F> {
        FnHarness { name, make: f }
    }
}

impl<F> SchedHarness for FnHarness<F>
where
    F: Fn() -> Vec<Violation> + Send + Sync,
{
    fn name(&self) -> &str {
        self.name
    }

    fn body(&self) -> Box<dyn FnOnce() -> Vec<Violation> + Send + '_> {
        Box::new(move || (self.make)())
    }
}

/// Exploration knobs.
#[derive(Clone, Debug)]
pub struct SchedOptions {
    /// Maximum involuntary context switches per schedule (default 2).
    pub preemption_bound: usize,
    /// Maximum schedules explored per harness before giving up (`SCH004`).
    pub max_schedules: u64,
    /// Per-execution decision-point budget (guards runaway schedules).
    pub max_steps: usize,
}

impl Default for SchedOptions {
    fn default() -> Self {
        SchedOptions {
            preemption_bound: 2,
            max_schedules: 20_000,
            max_steps: 2_000,
        }
    }
}

/// Per-harness exploration statistics.
#[derive(Clone, Debug)]
pub struct HarnessStats {
    /// Harness name.
    pub harness: String,
    /// Schedules executed (including minimization replays).
    pub schedules: u64,
    /// Longest schedule seen, in decision points.
    pub max_depth: usize,
    /// `"clean"` or the `SCH` verdict code.
    pub verdict: String,
}

impl HarnessStats {
    /// Stable JSON object for the merged `--json` report.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"harness\":{},\"schedules\":{},\"max_depth\":{},\"verdict\":{}}}",
            json::escape(&self.harness),
            self.schedules,
            self.max_depth,
            json::escape(&self.verdict)
        )
    }
}

/// The outcome of exploring one harness.
pub struct HarnessResult {
    /// Exploration statistics (schedules, depth, verdict).
    pub stats: HarnessStats,
    /// The minimized violating schedule, if one was found.
    pub counterexample: Option<SchedCounterexample>,
    /// `true` if the schedule or step budget was exhausted before the state
    /// space was covered.
    pub budget_exceeded: bool,
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// Maps a recorded execution to its `SCH` verdict (`None` = clean).
#[must_use]
pub fn classify(exec: &Execution) -> Option<(&'static str, String)> {
    match &exec.outcome {
        ExecOutcome::Completed { violations } => {
            if let Some(v) = violations.iter().find(|v| !v.liveness) {
                Some(("SCH100", v.message.clone()))
            } else {
                violations.first().map(|v| ("SCH102", v.message.clone()))
            }
        }
        ExecOutcome::Deadlock {
            blocked,
            any_condvar,
        } => {
            let who: Vec<String> = blocked
                .iter()
                .map(|(t, op)| format!("thread {} on {}", t, op.kind.name()))
                .collect();
            if *any_condvar {
                Some((
                    "SCH102",
                    format!("lost wakeup: {} parked forever", who.join(", ")),
                ))
            } else {
                Some(("SCH101", format!("deadlock: {}", who.join(", "))))
            }
        }
        ExecOutcome::Panicked { thread, message } => {
            Some(("SCH100", format!("thread {thread} panicked: {message}")))
        }
        ExecOutcome::StepLimit => Some((
            "SCH004",
            "execution exceeded the per-schedule step budget".to_string(),
        )),
    }
}

// ---------------------------------------------------------------------------
// Exploration
// ---------------------------------------------------------------------------

/// `true` if the two operations commute (swapping adjacent occurrences
/// cannot change any future state). Conservative: unknown pairs are
/// dependent.
fn independent(a: &OpDesc, b: &OpDesc) -> bool {
    use OpKind::{AtomicLoad, JoinChildren, Spawn, Start, Yield};
    match (a.kind, b.kind) {
        (Start | Yield, _) | (_, Start | Yield) => true,
        (Spawn | JoinChildren, _) | (_, Spawn | JoinChildren) => false,
        _ => {
            let touches = |d: &OpDesc, x: u64| x != 0 && (d.obj == x || d.obj2 == x);
            let overlap = touches(b, a.obj) || touches(b, a.obj2);
            if !overlap {
                return true;
            }
            a.kind == AtomicLoad && b.kind == AtomicLoad
        }
    }
}

struct Frame {
    enabled: Vec<(usize, OpDesc)>,
    chosen: usize,
    tried: BTreeSet<usize>,
    sleep: BTreeSet<usize>,
    /// Preemptions consumed by choices before this frame.
    preempt_before: usize,
    /// Thread granted at the previous frame.
    last: Option<usize>,
}

impl Frame {
    fn chosen_op(&self) -> OpDesc {
        self.enabled
            .iter()
            .find(|(t, _)| *t == self.chosen)
            .map(|(_, op)| *op)
            .expect("chosen thread was enabled")
    }

    fn preempt_cost_of(&self, t: usize) -> usize {
        match self.last {
            Some(l) if t != l && self.enabled.iter().any(|(x, _)| *x == l) => 1,
            _ => 0,
        }
    }

    /// Makes the next alternative DFS would try here the frame's choice,
    /// or returns `false` if none is left.
    fn advance(&mut self, bound: usize) -> bool {
        let Some(alt) = pick_alternative(self, bound) else {
            return false;
        };
        self.tried.insert(alt);
        self.chosen = alt;
        true
    }
}

/// Appends a frame for every step of `exec` past the prefix `frames`
/// already holds.
fn extend(frames: &mut Vec<Frame>, exec: &Execution) {
    for step in &exec.steps[frames.len()..] {
        let (sleep, preempt_before, last) = match frames.last() {
            None => (BTreeSet::new(), 0, None),
            Some(prev) => {
                let prev_op = prev.chosen_op();
                let mut sleep = BTreeSet::new();
                for &u in prev.sleep.iter().chain(prev.tried.iter()) {
                    if u == prev.chosen {
                        continue;
                    }
                    if let Some((_, uop)) = prev.enabled.iter().find(|(t, _)| *t == u) {
                        if independent(uop, &prev_op) {
                            sleep.insert(u);
                        }
                    }
                }
                (
                    sleep,
                    prev.preempt_before + prev.preempt_cost_of(prev.chosen),
                    Some(prev.chosen),
                )
            }
        };
        frames.push(Frame {
            enabled: step.enabled.clone(),
            chosen: step.thread,
            tried: BTreeSet::from([step.thread]),
            sleep,
            preempt_before,
            last,
        });
    }
}

fn pick_alternative(f: &Frame, bound: usize) -> Option<usize> {
    for (t, _) in &f.enabled {
        if f.tried.contains(t) || f.sleep.contains(t) {
            continue;
        }
        if f.preempt_before + f.preempt_cost_of(*t) > bound {
            continue;
        }
        return Some(*t);
    }
    None
}

/// How an exploration ended.
enum End {
    /// Every schedule within the preemption bound ran clean.
    Clean,
    /// A schedule exceeded the per-execution step budget, or the
    /// exploration its schedule budget with schedules left to run.
    OutOfBudget,
    /// A schedule violated `code`; that schedule's full choices.
    Violation(&'static str, Vec<usize>),
}

/// Exhaustively (up to the preemption bound) explores `h`'s interleavings:
/// a depth-first walk that runs each schedule from its choice prefix and
/// then backtracks to the deepest frame with an alternative left. The
/// schedule budget is checked before every schedule but the first, so an
/// exploration runs at most `opts.max_schedules` schedules (plus the
/// minimization replays of a counterexample).
#[must_use]
pub fn explore(h: &dyn SchedHarness, opts: &SchedOptions) -> HarnessResult {
    let mut stats = HarnessStats {
        harness: h.name().to_string(),
        schedules: 0,
        max_depth: 0,
        verdict: "clean".to_string(),
    };
    let mut frames: Vec<Frame> = Vec::new();
    let end = loop {
        let prefix: Vec<usize> = frames.iter().map(|f| f.chosen).collect();
        let exec = run_one(h.body(), &prefix, opts.max_steps);
        stats.schedules += 1;
        stats.max_depth = stats.max_depth.max(exec.steps.len());
        match classify(&exec) {
            None => {}
            Some(("SCH004", _)) => break End::OutOfBudget,
            Some((code, _)) => {
                break End::Violation(code, exec.steps.iter().map(|s| s.thread).collect())
            }
        }
        extend(&mut frames, &exec);
        while frames
            .last_mut()
            .is_some_and(|f| !f.advance(opts.preemption_bound))
        {
            frames.pop();
        }
        if frames.is_empty() {
            break End::Clean;
        }
        if stats.schedules >= opts.max_schedules {
            break End::OutOfBudget;
        }
    };
    let (counterexample, budget_exceeded) = match end {
        End::Clean => (None, false),
        End::OutOfBudget => {
            stats.verdict = "SCH004".to_string();
            (None, true)
        }
        End::Violation(code, full) => {
            let (cex, extra_runs) = minimize(h, opts, &full, code);
            stats.schedules += extra_runs;
            stats.max_depth = stats.max_depth.max(cex.schedule.len());
            stats.verdict = code.to_string();
            (Some(cex), false)
        }
    };
    HarnessResult {
        stats,
        counterexample,
        budget_exceeded,
    }
}

/// Shortest forcing prefix: the smallest `p` such that replaying the first
/// `p` choices and finishing under the default policy still reproduces
/// `code`. Returns the reproducing run's *full* schedule (so replays verify
/// every step) plus the number of extra runs spent.
fn minimize(
    h: &dyn SchedHarness,
    opts: &SchedOptions,
    full: &[usize],
    code: &'static str,
) -> (SchedCounterexample, u64) {
    let mut runs = 0;
    for p in 0..=full.len() {
        let exec = run_one(h.body(), &full[..p], opts.max_steps);
        runs += 1;
        if let Some((c, detail)) = classify(&exec) {
            if c == code {
                return (counterexample_from(h.name(), code, detail, p, &exec), runs);
            }
        }
    }
    // Determinism guarantees p == full.len() reproduces; this is unreachable
    // in practice but degrade gracefully rather than panic.
    let exec = run_one(h.body(), full, opts.max_steps);
    runs += 1;
    let detail = classify(&exec).map_or_else(String::new, |(_, d)| d);
    (
        counterexample_from(h.name(), code, detail, full.len(), &exec),
        runs,
    )
}

fn counterexample_from(
    harness: &str,
    code: &'static str,
    detail: String,
    prefix: usize,
    exec: &Execution,
) -> SchedCounterexample {
    SchedCounterexample {
        harness: harness.to_string(),
        fault: None,
        code: code.to_string(),
        detail,
        threads: exec.threads,
        prefix,
        schedule: exec
            .steps
            .iter()
            .map(|s| SchedChoice {
                thread: s.thread,
                kind: s.op.kind,
                obj: s.op.obj,
                obj2: s.op.obj2,
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Counterexample schedules: JSONL serialization, parsing, replay
// ---------------------------------------------------------------------------

/// Schema tag on the header line of a serialized schedule.
pub const SCHED_SCHEMA: &str = "wbsim-sched/1";

/// One granted decision point in a serialized schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedChoice {
    /// Thread granted the token.
    pub thread: usize,
    /// Operation it performed.
    pub kind: OpKind,
    /// Primary object id (0 = none).
    pub obj: u64,
    /// Secondary object id (0 = none).
    pub obj2: u64,
}

/// A minimized violating schedule: replays deterministically via [`replay`].
#[derive(Clone, Debug)]
pub struct SchedCounterexample {
    /// Harness the schedule belongs to.
    pub harness: String,
    /// Injected fault active when it was recorded, if any.
    pub fault: Option<String>,
    /// The `SCH1xx` verdict the schedule reproduces.
    pub code: String,
    /// Human-readable description of the violation.
    pub detail: String,
    /// Threads that participated.
    pub threads: usize,
    /// Length of the minimized forcing prefix (the remaining steps follow
    /// the default scheduling policy).
    pub prefix: usize,
    /// The full schedule, one choice per decision point.
    pub schedule: Vec<SchedChoice>,
}

impl SchedCounterexample {
    /// Serializes to JSONL: a header object, then one object per step.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let fault = self
            .fault
            .as_ref()
            .map_or_else(|| "null".to_string(), |f| json::escape(f));
        let mut out = format!(
            "{{\"schema\":\"{}\",\"harness\":{},\"fault\":{},\"code\":{},\
             \"threads\":{},\"prefix\":{},\"detail\":{}}}\n",
            SCHED_SCHEMA,
            json::escape(&self.harness),
            fault,
            json::escape(&self.code),
            self.threads,
            self.prefix,
            json::escape(&self.detail)
        );
        for (i, c) in self.schedule.iter().enumerate() {
            out.push_str(&format!(
                "{{\"step\":{},\"thread\":{},\"op\":\"{}\",\"obj\":{},\"obj2\":{}}}\n",
                i,
                c.thread,
                c.kind.name(),
                c.obj,
                c.obj2
            ));
        }
        out
    }

    /// Parses a serialized schedule. Malformed input yields a structured
    /// `SCH001` diagnostic; the caller validates harness/fault names
    /// (`SCH002`).
    pub fn parse(text: &str) -> Result<SchedCounterexample, Diagnostic> {
        let bad = |line: usize, msg: String| {
            Diagnostic::new(
                "SCH001",
                Severity::Error,
                format!("schedule.line{}", line + 1),
            )
            .with_message(msg)
            .with_suggestion(
                "regenerate the schedule with `wbsim check --sched --fault ... --out FILE`",
            )
        };
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (hline_no, hline) = lines
            .next()
            .ok_or_else(|| bad(0, "empty schedule file".to_string()))?;
        let header = json::parse(hline).map_err(|e| bad(hline_no, format!("bad header: {e}")))?;
        let field = |k: &str| -> Result<Json, Diagnostic> {
            header
                .get(k)
                .cloned()
                .ok_or_else(|| bad(hline_no, format!("header missing \"{k}\"")))
        };
        let schema = field("schema")?;
        if schema.as_str() != Some(SCHED_SCHEMA) {
            return Err(bad(
                hline_no,
                format!("unsupported schema (want \"{SCHED_SCHEMA}\")"),
            ));
        }
        let harness = field("harness")?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| bad(hline_no, "\"harness\" must be a string".to_string()))?;
        let fault =
            match field("fault")? {
                f if f.is_null() => None,
                f => Some(f.as_str().map(str::to_string).ok_or_else(|| {
                    bad(hline_no, "\"fault\" must be a string or null".to_string())
                })?),
            };
        let code = field("code")?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| bad(hline_no, "\"code\" must be a string".to_string()))?;
        if wbsim_types::diagnostics::registry_entry(&code).is_none() {
            return Err(bad(hline_no, format!("unknown verdict code \"{code}\"")));
        }
        let threads = field("threads")?
            .as_u64()
            .ok_or_else(|| bad(hline_no, "\"threads\" must be a number".to_string()))?;
        let prefix = field("prefix")?
            .as_u64()
            .ok_or_else(|| bad(hline_no, "\"prefix\" must be a number".to_string()))?;
        let detail = field("detail")?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| bad(hline_no, "\"detail\" must be a string".to_string()))?;

        let mut schedule = Vec::new();
        for (no, line) in lines {
            let step = json::parse(line).map_err(|e| bad(no, format!("bad step: {e}")))?;
            let num = |k: &str| -> Result<u64, Diagnostic> {
                step.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(no, format!("step missing numeric \"{k}\"")))
            };
            let idx = num("step")?;
            if idx as usize != schedule.len() {
                return Err(bad(
                    no,
                    format!(
                        "step index {idx} out of order (expected {})",
                        schedule.len()
                    ),
                ));
            }
            let tag = step
                .get("op")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(no, "step missing string \"op\"".to_string()))?;
            let kind = OpKind::from_name(tag)
                .ok_or_else(|| bad(no, format!("unknown op tag \"{tag}\"")))?;
            schedule.push(SchedChoice {
                thread: num("thread")? as usize,
                kind,
                obj: num("obj")?,
                obj2: num("obj2")?,
            });
        }
        if schedule.is_empty() {
            return Err(bad(hline_no, "schedule has no steps".to_string()));
        }
        Ok(SchedCounterexample {
            harness,
            fault,
            code,
            detail,
            threads: threads as usize,
            prefix: prefix as usize,
            schedule,
        })
    }
}

/// What replaying a recorded schedule actually did.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Verdict of the replayed execution (`None` = it ran clean).
    pub verdict: Option<(String, String)>,
    /// First step where the execution diverged from the recorded
    /// `(thread, op)` sequence, if any.
    pub diverged_at: Option<usize>,
}

impl ReplayOutcome {
    /// `true` iff the replay reproduced `cex`'s recorded verdict exactly.
    #[must_use]
    pub fn matches(&self, cex: &SchedCounterexample) -> bool {
        self.diverged_at.is_none()
            && self
                .verdict
                .as_ref()
                .is_some_and(|(code, _)| *code == cex.code)
    }
}

/// Replays `cex`'s schedule against `h` and reports whether the execution
/// followed the recording and which verdict it reached.
#[must_use]
pub fn replay(
    h: &dyn SchedHarness,
    cex: &SchedCounterexample,
    opts: &SchedOptions,
) -> ReplayOutcome {
    let prefix: Vec<usize> = cex.schedule.iter().map(|c| c.thread).collect();
    let exec = run_one(h.body(), &prefix, opts.max_steps);
    let mut diverged_at = None;
    for (i, c) in cex.schedule.iter().enumerate() {
        let ok = exec.steps.get(i).is_some_and(|s| {
            s.thread == c.thread && s.op.kind == c.kind && s.op.obj == c.obj && s.op.obj2 == c.obj2
        });
        if !ok {
            diverged_at = Some(i);
            break;
        }
    }
    ReplayOutcome {
        verdict: classify(&exec).map(|(c, d)| (c.to_string(), d)),
        diverged_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_types::sync::atomic::AtomicU64;
    use wbsim_types::sync::{scope, yield_point, Condvar, Mutex, Ordering};

    fn violation(liveness: bool, msg: &str) -> Violation {
        Violation {
            liveness,
            message: msg.to_string(),
        }
    }

    /// Two threads each lock-increment a counter: correct under every
    /// interleaving, and the explorer must actually branch.
    fn counter_harness() -> impl SchedHarness {
        FnHarness::new("toy-counter", || {
            let n = Mutex::new(0u64);
            scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let mut g = n.lock();
                        *g += 1;
                    });
                }
            });
            let total = *n.lock();
            if total == 2 {
                vec![]
            } else {
                vec![violation(
                    false,
                    &format!("expected 2 increments, saw {total}"),
                )]
            }
        })
    }

    /// Classic AB-BA lock-order inversion.
    fn abba_harness() -> impl SchedHarness {
        FnHarness::new("toy-abba", || {
            let a = Mutex::new(());
            let b = Mutex::new(());
            scope(|s| {
                s.spawn(|| {
                    let _ga = a.lock();
                    let _gb = b.lock();
                });
                s.spawn(|| {
                    let _gb = b.lock();
                    let _ga = a.lock();
                });
            });
            vec![]
        })
    }

    /// Two waiters, one `notify_one`: whichever schedule runs, one waiter is
    /// never woken — the shape of the injected serve-shutdown fault.
    fn lost_wakeup_harness() -> impl SchedHarness {
        FnHarness::new("toy-lost-wakeup", || {
            let flag = Mutex::new(false);
            let cv = Condvar::new();
            scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let mut g = flag.lock();
                        while !*g {
                            g = cv.wait(g);
                        }
                    });
                }
                s.spawn(|| {
                    *flag.lock() = true;
                    cv.notify_one(); // should be notify_all
                });
            });
            vec![]
        })
    }

    /// Unlocked check-then-act: both threads can observe `claimed == 0` and
    /// both execute — the shape of the injected store fault.
    fn check_then_act_harness() -> impl SchedHarness {
        FnHarness::new("toy-check-then-act", || {
            let claimed = AtomicU64::new(0);
            let execs = AtomicU64::new(0);
            scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        if claimed.load(Ordering::SeqCst) == 0 {
                            yield_point();
                            claimed.store(1, Ordering::SeqCst);
                            execs.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
            });
            let e = execs.load(Ordering::SeqCst);
            if e > 1 {
                vec![violation(false, &format!("duplicate execution: {e} runs"))]
            } else {
                vec![]
            }
        })
    }

    #[test]
    fn clean_harness_explores_multiple_schedules_and_stays_clean() {
        let r = explore(&counter_harness(), &SchedOptions::default());
        assert!(r.counterexample.is_none(), "verdict {}", r.stats.verdict);
        assert!(!r.budget_exceeded);
        assert_eq!(r.stats.verdict, "clean");
        assert!(r.stats.schedules > 1, "explorer never branched");
        assert!(r.stats.max_depth > 5);
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = explore(&counter_harness(), &SchedOptions::default());
        let b = explore(&counter_harness(), &SchedOptions::default());
        assert_eq!(a.stats.schedules, b.stats.schedules);
        assert_eq!(a.stats.max_depth, b.stats.max_depth);
    }

    #[test]
    fn abba_deadlock_is_found_and_classified_sch101() {
        let r = explore(&abba_harness(), &SchedOptions::default());
        let cex = r.counterexample.expect("deadlock must be found");
        assert_eq!(cex.code, "SCH101");
        assert!(cex.detail.contains("deadlock"), "{}", cex.detail);
        assert_eq!(r.stats.verdict, "SCH101");
    }

    #[test]
    fn lost_wakeup_is_found_and_classified_sch102() {
        let r = explore(&lost_wakeup_harness(), &SchedOptions::default());
        let cex = r.counterexample.expect("lost wakeup must be found");
        assert_eq!(cex.code, "SCH102");
        assert!(cex.detail.contains("lost wakeup"), "{}", cex.detail);
    }

    #[test]
    fn duplicate_execution_race_is_found_minimized_and_replayable() {
        let h = check_then_act_harness();
        let opts = SchedOptions::default();
        let r = explore(&h, &opts);
        let cex = r.counterexample.expect("race must be found");
        assert_eq!(cex.code, "SCH100");
        assert!(cex.detail.contains("duplicate execution"), "{}", cex.detail);
        assert!(
            cex.prefix <= cex.schedule.len(),
            "forcing prefix must not exceed the schedule"
        );
        // Deterministic replay reproduces the exact verdict, step for step.
        let out = replay(&h, &cex, &opts);
        assert!(out.matches(&cex), "replay diverged: {out:?}");
        // And the serialized form roundtrips.
        let text = cex.to_jsonl();
        let parsed = SchedCounterexample::parse(&text).expect("roundtrip");
        assert_eq!(parsed.code, cex.code);
        assert_eq!(parsed.schedule, cex.schedule);
        assert_eq!(parsed.prefix, cex.prefix);
        let out = replay(&h, &parsed, &opts);
        assert!(out.matches(&parsed));
    }

    #[test]
    fn replaying_a_violating_schedule_against_fixed_code_reports_divergence() {
        // Record against the racy harness, replay against the clean one:
        // the verdict cannot be reproduced.
        let racy = check_then_act_harness();
        let opts = SchedOptions::default();
        let cex = explore(&racy, &opts).counterexample.expect("race found");
        let clean = counter_harness();
        let out = replay(&clean, &cex, &opts);
        assert!(!out.matches(&cex));
    }

    #[test]
    fn schedule_budget_exhaustion_reports_sch004_not_a_counterexample() {
        let opts = SchedOptions {
            max_schedules: 1,
            ..SchedOptions::default()
        };
        let r = explore(&counter_harness(), &opts);
        assert!(r.budget_exceeded);
        assert_eq!(r.stats.verdict, "SCH004");
        assert!(r.counterexample.is_none());
    }

    /// Wraps a harness and counts the executions it starts.
    struct Counted {
        inner: Box<dyn SchedHarness>,
        runs: std::sync::atomic::AtomicU64,
    }

    impl SchedHarness for Counted {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn body(&self) -> Box<dyn FnOnce() -> Vec<Violation> + Send + '_> {
            self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.body()
        }
    }

    /// The toy harnesses' schedules, depth and verdict, and the `SCH004`
    /// cut under every small schedule budget. The budget caps the work,
    /// not just the report: every exploration starts exactly the
    /// executions it counts, so a cut one runs `max_schedules` of them.
    #[test]
    fn results_and_budget_cuts_are_pinned() {
        // (harness, schedules, max depth, verdict, largest budget that
        // still ends in SCH004), at the default preemption bound.
        type Pin = (Box<dyn SchedHarness>, u64, usize, &'static str, Option<u64>);
        let pins: [Pin; 4] = [
            (Box::new(counter_harness()), 7, 12, "clean", Some(6)),
            (Box::new(abba_harness()), 12, 14, "SCH101", Some(4)),
            (Box::new(lost_wakeup_harness()), 2, 16, "SCH102", None),
            (
                Box::new(check_then_act_harness()),
                11,
                15,
                "SCH100",
                Some(2),
            ),
        ];
        for (inner, schedules, depth, verdict, cut) in pins {
            let h = Counted {
                inner,
                runs: std::sync::atomic::AtomicU64::new(0),
            };
            for max_schedules in (1..=12).chain([SchedOptions::default().max_schedules]) {
                let opts = SchedOptions {
                    max_schedules,
                    ..SchedOptions::default()
                };
                h.runs.store(0, std::sync::atomic::Ordering::Relaxed);
                let r = explore(&h, &opts);
                let what = format!("{} under a budget of {max_schedules}", h.name());
                let runs = h.runs.load(std::sync::atomic::Ordering::Relaxed);
                assert_eq!(runs, r.stats.schedules, "{what}: executions started");
                if cut.is_some_and(|c| max_schedules <= c) {
                    assert!(r.budget_exceeded, "{what}");
                    assert_eq!(r.stats.verdict, "SCH004", "{what}");
                    assert_eq!(r.stats.schedules, max_schedules, "{what}");
                    assert!(r.counterexample.is_none(), "{what}");
                } else {
                    let got = (
                        r.stats.schedules,
                        r.stats.max_depth,
                        r.stats.verdict.as_str(),
                    );
                    assert_eq!(got, (schedules, depth, verdict), "{what}");
                    assert!(!r.budget_exceeded, "{what}");
                    assert_eq!(r.counterexample.is_some(), verdict != "clean", "{what}");
                }
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_schedules_with_structured_sch001() {
        let cases: &[&str] = &[
            "",
            "not json\n",
            "{\"schema\":\"wrong/9\"}\n",
            "{\"schema\":\"wbsim-sched/1\",\"harness\":\"x\",\"fault\":null,\
             \"code\":\"SCH100\",\"threads\":2,\"prefix\":0,\"detail\":\"d\"}\n",
            "{\"schema\":\"wbsim-sched/1\",\"harness\":\"x\",\"fault\":null,\
             \"code\":\"NOPE99\",\"threads\":2,\"prefix\":0,\"detail\":\"d\"}\n\
             {\"step\":0,\"thread\":0,\"op\":\"start\",\"obj\":0,\"obj2\":0}\n",
            "{\"schema\":\"wbsim-sched/1\",\"harness\":\"x\",\"fault\":null,\
             \"code\":\"SCH100\",\"threads\":2,\"prefix\":0,\"detail\":\"d\"}\n\
             {\"step\":0,\"thread\":0,\"op\":\"warp\",\"obj\":0,\"obj2\":0}\n",
            "{\"schema\":\"wbsim-sched/1\",\"harness\":\"x\",\"fault\":null,\
             \"code\":\"SCH100\",\"threads\":2,\"prefix\":0,\"detail\":\"d\"}\n\
             {\"step\":5,\"thread\":0,\"op\":\"start\",\"obj\":0,\"obj2\":0}\n",
        ];
        for case in cases {
            let d = SchedCounterexample::parse(case).expect_err("must be rejected");
            assert_eq!(d.code, "SCH001", "case {case:?}");
            assert_eq!(d.severity, Severity::Error);
            assert!(!d.message.is_empty());
            assert!(d.field_path.starts_with("schedule.line"));
        }
    }

    /// Satellite: `docs/static-analysis.md` must document exactly the `SCH`
    /// codes in the unified registry, with matching summaries (the same
    /// bidirectional pin the LNT/PRP families have).
    #[test]
    fn sched_docs_table_agrees_with_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/static-analysis.md");
        let doc = std::fs::read_to_string(path).expect("docs/static-analysis.md exists");
        let mut documented = std::collections::BTreeMap::new();
        for line in doc.lines() {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() >= 4 && cells[1].starts_with("SCH") && cells[1].len() == 6 {
                documented.insert(cells[1].to_string(), cells[3].to_string());
            }
        }
        for entry in wbsim_types::diagnostics::REGISTRY {
            if !entry.code.starts_with("SCH") {
                continue;
            }
            let summary = documented
                .remove(entry.code)
                .unwrap_or_else(|| panic!("{} missing from docs/static-analysis.md", entry.code));
            assert_eq!(
                summary, entry.summary,
                "{} summary drifted in docs/static-analysis.md",
                entry.code
            );
        }
        assert!(
            documented.is_empty(),
            "docs document unknown SCH codes: {documented:?}"
        );
    }
}
