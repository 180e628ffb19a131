//! Unbounded reachability checking: abstract state-graph exploration with
//! liveness analysis.
//!
//! The bounded checker (`bounded.rs`) enumerates op *sequences* up to a
//! small length, so its guarantees stop at short traces. This module
//! explores the canonical abstract *state graph* instead: a visited-set
//! BFS over `state × op-universe` ([`crate::explore`]), where a state is
//! the value-blind, time-shifted, line-renamed quotient of
//! [`crate::abstract_state`] — finite, so the closure proves every
//! per-state invariant for op sequences of **arbitrary length** over the
//! same universe. Safety violations are reconstructed from BFS parent
//! pointers, minimized by greedy deletion, and rendered as
//! `wbsim trace validate`-replayable JSONL, exactly like the bounded
//! checker's counterexamples.
//!
//! On top of the explored graph the checker runs a liveness analysis the
//! bounded checker cannot express at all: from every reachable state it
//! walks the *drain graph* — the deterministic fair schedule in which
//! retirement runs at the maximum rate and no new ops issue
//! ([`SimMachine::drain_step`]). The drain graph is functional
//! (at most one successor per state), so its strongly connected components
//! are its simple cycles plus singletons; any cycle is, by construction, a
//! set of states with buffered entries that never retire under even the
//! fairest schedule — a livelock. A second livelock shape is caught during
//! expansion itself: an op that exceeds its cycle budget while the machine
//! makes no retirement progress (a wedged stall, e.g. a store spinning on
//! a full buffer that will never drain).
//!
//! Diagnostics use the same [`Diagnostic`] type as the linter, under three
//! new codes: `RCH001` (safety invariant violated at a reachable state),
//! `RCH002` (livelock), `RCH003` (configuration outside the abstractable
//! class — the time-shift quotient is only sound when no policy consults
//! absolute time).
//!
//! The module also holds the replay helpers the property and refinement
//! checkers share: op-by-op replay, the wedged-op probe, and the drain walk.

use wbsim_sim::{
    Event, Machine, MachineSnapshot, NonBlockingMachine, NullObserver, Observer, SimMachine,
};
use wbsim_types::addr::{Addr, Geometry, LineAddr};
use wbsim_types::config::{IcacheConfig, L2Config, MachineConfig};
use wbsim_types::diagnostics::{Diagnostic, Severity};
use wbsim_types::divergence::FaultInjection;
use wbsim_types::op::Op;
use wbsim_types::policy::{L1WritePolicy, RetirementOrder, RetirementPolicy};

use crate::abstract_state::ShadowTracker;
use crate::bounded::{
    blocking_grid, build, check_grid, counterexample, minimize, mshr_grid, mshr_invariants,
    op_universe, sequence, trace_run, unchecked, CheckReport, Counterexample, InvariantObserver,
    TraceObserver,
};
use crate::explore::{explore, fork, DrainMemo, Edge, Explored};

/// Cycle budget for one op during expansion. Every legitimate op in the
/// gated configuration class completes in well under 100 cycles (worst
/// case: a flush-full hazard over four half-line entries); an op still
/// running after this many cycles is wedged. Deliberately small so that
/// stalled-op livelock counterexample traces stay short.
pub const OP_CYCLE_BUDGET: u64 = 256;

/// After an op exceeds [`OP_CYCLE_BUDGET`], the machine is stepped this
/// many further cycles watching for retirement progress; a window with no
/// progress and a non-empty buffer is a livelock, not a slow op. Long
/// enough to span any in-flight write transaction in the gated class.
pub(crate) const STALL_PROBE_WINDOW: u64 = 32;

/// Defensive bound on a single drain walk; the drain graph of any gated
/// configuration is orders of magnitude smaller.
pub(crate) const DRAIN_WALK_BOUND: usize = 100_000;

/// Per-configuration exploration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReachConfigStats {
    /// Distinct canonical abstract states visited.
    pub states: u64,
    /// Completed `state × op` transitions.
    pub edges: u64,
    /// Strongly connected components of the drain graph (all singletons in
    /// a clean run).
    pub sccs: u64,
}

/// A violation found by an unbounded grid checker (`reach`, the property
/// product, `refine`): a structured diagnostic, plus — for every finding
/// but an `RCH003` configuration rejection — a minimized replayable
/// counterexample.
#[derive(Debug, Clone)]
pub struct ReachViolation {
    /// The rendered finding (`RCH00x`, `PRP10x` or `REF10x`).
    pub diagnostic: Diagnostic,
    /// The minimized op sequence and its JSONL event trace.
    pub counterexample: Option<Box<Counterexample>>,
}

impl ReachViolation {
    /// A finding with no counterexample.
    pub(crate) fn bare(diagnostic: Diagnostic) -> Box<Self> {
        Box::new(ReachViolation {
            diagnostic,
            counterexample: None,
        })
    }

    /// A finding with its minimized counterexample.
    pub(crate) fn with(diagnostic: Diagnostic, ce: Box<Counterexample>) -> Box<Self> {
        Box::new(ReachViolation {
            diagnostic,
            counterexample: Some(ce),
        })
    }
}

/// The two cache lines the bounded op universe touches.
pub(crate) fn universe_lines(cfg: &MachineConfig) -> [LineAddr; 2] {
    let g = &cfg.geometry;
    [
        g.line_of(Addr::new(0)),
        g.line_of(Addr::new(u64::from(g.line_bytes()))),
    ]
}

pub(crate) fn error_diagnostic(code: &'static str, field_path: &str, msg: String) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, field_path.to_string()).with_message(msg)
}

/// Checks whether `cfg` is inside the abstractable class; outside it, the
/// `RCH003` diagnostic names the offending field, why the abstraction is
/// unsound for it, and the nearest admissible value.
///
/// The state quotient stores countdowns instead of absolute cycles and
/// renames lines; both are only sound when no policy consults absolute
/// time, entry age, or write recency. Buffer entries may be full lines
/// *or* aligned sub-line blocks: the word-validity bitmap is value-blind,
/// so block-tagged entries fit the shadow-map abstraction unchanged. The
/// bounded grid satisfies all of this by construction; arbitrary
/// configurations may not.
pub(crate) fn gate(cfg: &MachineConfig) -> Result<(), Diagnostic> {
    let reject = |field: &str, why: &str, suggestion: &str| {
        Err(error_diagnostic(
            "RCH003",
            field,
            format!("configuration is outside the abstractable class: {why}"),
        )
        .with_suggestion(suggestion))
    };
    let wb = &cfg.write_buffer;
    if wb.order != RetirementOrder::Fifo {
        return reject(
            "write_buffer.order",
            "LRU retirement order consults write recency, which the time-shifted \
             abstraction erases",
            "set write_buffer.order to fifo, the nearest abstractable order",
        );
    }
    if wb.max_age.is_some() {
        return reject(
            "write_buffer.max_age",
            "age-based retirement consults absolute entry age, which the time-shifted \
             abstraction erases",
            "remove write_buffer.max_age (no age bound is the nearest abstractable \
             setting)",
        );
    }
    if !matches!(wb.retirement, RetirementPolicy::RetireAt(_)) {
        return reject(
            "write_buffer.retirement",
            "fixed-rate retirement consults cycles-since-last-retirement, which the \
             time-shifted abstraction erases",
            "set write_buffer.retirement to retire-at(N), the nearest abstractable \
             policy",
        );
    }
    if !matches!(cfg.l2, L2Config::Perfect { .. }) {
        return reject(
            "l2",
            "a real L2 has eviction state outside the two-line snapshot",
            "set l2 to perfect (keep its latency), the nearest abstractable model",
        );
    }
    if cfg.icache != IcacheConfig::Perfect {
        return reject(
            "icache",
            "the statistical I-cache model draws from a seeded stream, which is not \
             part of the abstract state",
            "set icache to perfect, the nearest abstractable model",
        );
    }
    if cfg.l1.write_policy != L1WritePolicy::WriteThrough {
        return reject(
            "l1.write_policy",
            "write-back L1 victim state depends on LRU stamps, which the time-shifted \
             abstraction erases",
            "set l1.write_policy to write-through, the nearest abstractable policy",
        );
    }
    Ok(())
}

/// Watches for retirement progress only.
#[derive(Default)]
struct ProgressProbe {
    progress: bool,
}

impl Observer for ProgressProbe {
    fn event(&mut self, ev: &Event) {
        if matches!(ev, Event::RetireComplete { .. }) {
            self.progress = true;
        }
    }
}

/// Runs `ops` from an op boundary, one [`SimMachine::run_op_bounded`] at
/// a time under `obs`. `false` when an op exceeds [`OP_CYCLE_BUDGET`]: it
/// wedged, and the machine is left mid-op.
pub(crate) fn replay<M: SimMachine>(m: &mut M, ops: &[Op], obs: &mut impl Observer) -> bool {
    ops.iter()
        .all(|&op| m.run_op_bounded(op, OP_CYCLE_BUDGET, obs).is_some())
}

/// Steps a wedged machine on through the [`STALL_PROBE_WINDOW`] under
/// `obs`, to tell a livelock from a slow op.
pub(crate) fn probe<M: SimMachine>(m: &mut M, obs: &mut impl Observer) {
    for _ in 0..STALL_PROBE_WINDOW {
        if !m.step(&mut std::iter::empty(), obs) {
            break;
        }
    }
}

/// Walks the fair drain schedule from `m` under `obs`: `false` once it
/// terminates, `true` when it closes a cycle (or outruns
/// [`DRAIN_WALK_BOUND`]). Snapshots are time-shift invariant and frozen
/// during a drain, so a repeat is exactly an abstract cycle.
pub(crate) fn drain_cycles<M: SimMachine>(
    m: &mut M,
    lines: &[LineAddr],
    obs: &mut impl Observer,
) -> bool {
    let mut seen: Vec<MachineSnapshot> = Vec::new();
    loop {
        let s = m.snapshot(lines);
        if seen.contains(&s) || seen.len() > DRAIN_WALK_BOUND {
            return true;
        }
        seen.push(s);
        if !m.drain_step(obs) {
            return false;
        }
    }
}

/// Replays `ops` under a trace collector: the ops, the probe window if
/// one wedges, and otherwise the terminal drain up to one full period —
/// so a livelock's trace visibly never retires, and a safety
/// counterexample's trace contains its bad event.
pub(crate) fn replay_trace<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
) -> Vec<String> {
    let mut m: M = build(cfg, mshrs);
    let mut trace = TraceObserver::default();
    if replay(&mut m, ops, &mut trace) {
        drain_cycles(&mut m, &universe_lines(cfg), &mut trace);
    } else {
        probe(&mut m, &mut trace);
    }
    trace.lines
}

/// Invariants checked at every op boundary, against the state's concrete
/// representative: the structural MSHR invariants, architectural reads
/// against the shadow map, entry conservation and store accounting.
fn boundary_checks(
    g: &Geometry,
    m: &impl SimMachine,
    mshrs: Option<usize>,
    shadow: &ShadowTracker,
    universe: &[Op],
) -> Result<(), String> {
    mshr_invariants(m, mshrs)?;
    for op in universe {
        if let Op::Load(addr) | Op::Store(addr) = *op {
            let got = m.read_word_architectural(addr);
            let want = shadow.expected(g.word_addr(addr));
            if got != want {
                return Err(format!(
                    "architectural read of {addr:?} is {got:#x}, freshest store is \
                     {want:#x} (lost or stale store)"
                ));
            }
        }
    }
    let stats = m.stats();
    let victim_allocs = m.wb_victim_allocs();
    let occupancy = m.wb_occupancy() as u64;
    let created = stats.wb_allocations + victim_allocs;
    let destroyed = stats.wb_retirements + stats.wb_flushes + occupancy;
    if created != destroyed {
        return Err(format!(
            "entry conservation broken: {} allocations + {victim_allocs} victim \
             inserts != {} retirements + {} flushes + {occupancy} residual",
            stats.wb_allocations, stats.wb_retirements, stats.wb_flushes
        ));
    }
    if stats.stores != stats.wb_allocations + stats.wb_store_merges {
        return Err(format!(
            "store accounting broken: {} stores != {} allocations + {} merges",
            stats.stores, stats.wb_allocations, stats.wb_store_merges
        ));
    }
    Ok(())
}

/// Walks the drain graph from `m` until it terminates (buffer empty),
/// revisits a memoized state, or closes a cycle. Returns `true` for
/// livelock. Every state on the walk is memoized with the verdict: a state
/// that reaches a livelock is itself livelocked, and the drain graph is
/// functional so the verdict is path-independent. The non-blocking drain
/// also completes outstanding misses (a queued MSHR blocks retirement
/// through read-bypassing, so a drain that never issued it would wedge
/// spuriously).
fn drain_livelocked<M: SimMachine>(
    m: &M,
    g: &Geometry,
    lines: &[LineAddr; 2],
    shadow: &ShadowTracker,
    memo: &mut DrainMemo<bool, M>,
) -> bool {
    let DrainMemo {
        verdicts,
        walker,
        key,
    } = memo;
    let m = fork(walker, m);
    let mut path: Vec<Box<[u8]>> = Vec::new();
    let verdict = loop {
        let s = key.of(g, &m.snapshot(lines.as_slice()), shadow);
        if let Some(&v) = verdicts.get(s) {
            break v;
        }
        if path.iter().any(|p| **p == *s) {
            // A cycle under the fair drain schedule. No progress is
            // possible along it: occupancy is non-increasing during a
            // drain, so a cycle retires nothing — livelock.
            break true;
        }
        path.push(s.into());
        if !m.drain_step(&mut NullObserver) {
            break false;
        }
        if path.len() > DRAIN_WALK_BOUND {
            break true;
        }
    };
    for s in path {
        verdicts.insert(s, verdict);
    }
    verdict
}

/// The livelock predicate for counterexample minimization: replays `ops`
/// op by op — on the non-blocking machine with `mshrs` registers, or on
/// the blocking machine for `None` — and reports whether the run wedges:
/// either an op exceeds its cycle budget with no retirement progress in a
/// further probe window, or the final state's drain walk closes a cycle.
/// Deterministic, so greedy deletion against it is sound.
///
/// # Panics
///
/// Panics if the machine rejects `cfg`/`mshrs` — callers validate first.
#[must_use]
pub fn check_liveness_sequence(cfg: &MachineConfig, mshrs: Option<usize>, ops: &[Op]) -> bool {
    match mshrs {
        None => livelocked::<Machine>(cfg, mshrs, ops),
        Some(_) => livelocked::<NonBlockingMachine>(cfg, mshrs, ops),
    }
}

fn livelocked<M: SimMachine>(cfg: &MachineConfig, mshrs: Option<usize>, ops: &[Op]) -> bool {
    let mut m: M = build(cfg, mshrs);
    if !replay(&mut m, ops, &mut NullObserver) {
        let mut progress = ProgressProbe::default();
        probe(&mut m, &mut progress);
        return !progress.progress && m.wb_occupancy() > 0;
    }
    drain_cycles(&mut m, &universe_lines(cfg), &mut NullObserver)
}

/// Builds the `RCH001` violation for a safety failure on `ops`. When the
/// bounded sequence checker can see the same violation, its minimizer and
/// trace collector are reused wholesale; a reach-only violation keeps the
/// unminimized path with a fresh trace.
fn safety_violation<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: Vec<Op>,
    msg: String,
) -> Box<ReachViolation> {
    let ce = match sequence::<M>(cfg, mshrs, &ops) {
        Err(violation) => counterexample::<M>(cfg, mshrs, ops, violation),
        Ok(()) => {
            let trace = trace_run::<M>(cfg, mshrs, &ops);
            Counterexample::new(cfg, mshrs, ops, msg.clone(), trace)
        }
    };
    let msg = format!("safety invariant violated at a reachable state: {msg}");
    ReachViolation::with(error_diagnostic("RCH001", "machine", msg), ce)
}

/// Builds the `RCH002` violation for a livelock witnessed by `ops`.
fn liveness_violation<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: Vec<Op>,
    detail: &str,
) -> Box<ReachViolation> {
    debug_assert!(livelocked::<M>(cfg, mshrs, &ops));
    let (ops, ()) = minimize(ops, (), |c| livelocked::<M>(cfg, mshrs, c).then_some(()));
    let violation = format!("livelock: {detail}");
    let trace = replay_trace::<M>(cfg, mshrs, &ops);
    let msg = format!("{violation} ({} ops reach it)", ops.len());
    let ce = Counterexample::new(cfg, mshrs, ops, violation, trace);
    ReachViolation::with(error_diagnostic("RCH002", "write_buffer", msg), ce)
}

/// What cut an exploration short, before its op path is known.
enum Finding {
    /// A safety invariant failed.
    Safety(String),
    /// An op wedged with no retirement progress in the probe window.
    Wedged,
    /// A state cycles under the fair drain schedule.
    DrainCycle,
    /// An op outran its budget while retirement still progressed.
    Budget,
}

/// A reach state: the concrete representative and the invariant observer
/// that carries its shadow map and FIFO cursor across transitions.
struct ReachState<M> {
    machine: M,
    obs: InvariantObserver,
}

wbsim_types::clone_fields!(impl<M> ReachState<M> { machine, obs });

/// Explores one configuration on machine `M` to closure: every safety
/// invariant at every reachable state, and liveness on the drain graph.
/// On the non-blocking machine the abstract state carries the MSHR
/// component, the stall taxonomy uses the overlapped rule, and every
/// boundary also asserts the structural MSHR invariants. Returns
/// `Ok(None)` only when `abort` fired.
fn explore_reach<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    abort: &dyn Fn() -> bool,
) -> Result<Option<Explored>, Box<ReachViolation>> {
    gate(cfg).map_err(ReachViolation::bare)?;
    let cfg = &unchecked(cfg);
    let g = cfg.geometry;
    let lines = universe_lines(cfg);
    let universe = op_universe(cfg);
    let root = ReachState::<M> {
        machine: build(cfg, mshrs),
        obs: InvariantObserver::new(cfg, mshrs).tracking(),
    };
    let mut drain_memo = DrainMemo::default();
    let explored = explore(
        root,
        &universe,
        abort,
        |s, k| k.push(&g, &s.machine.snapshot(&lines), s.obs.shadow()),
        |s, op| {
            s.obs.begin_transition();
            let completed = s.machine.run_op_bounded(op, OP_CYCLE_BUDGET, &mut s.obs);
            if let Some(msg) = s.obs.violation.take() {
                return Err(Finding::Safety(msg));
            }
            if completed.is_none() {
                // The op wedged. Probe for progress to tell a livelock
                // from an undersized budget.
                let mut progress = ProgressProbe::default();
                probe(&mut s.machine, &mut progress);
                let wedged = !progress.progress && s.machine.wb_occupancy() > 0;
                return Err(if wedged {
                    Finding::Wedged
                } else {
                    Finding::Budget
                });
            }
            boundary_checks(&g, &s.machine, mshrs, s.obs.shadow(), &universe)
                .map_err(Finding::Safety)?;
            Ok(Edge::To)
        },
        |s| {
            if drain_livelocked(&s.machine, &g, &lines, s.obs.shadow(), &mut drain_memo) {
                Err(Finding::DrainCycle)
            } else {
                Ok(())
            }
        },
    );
    let explored = explored.map_err(|(ops, finding)| match finding {
        Finding::Safety(msg) => safety_violation::<M>(cfg, mshrs, ops, msg),
        Finding::Wedged => liveness_violation::<M>(
            cfg,
            mshrs,
            ops,
            "an op exceeds its cycle budget while the buffer makes no retirement progress",
        ),
        Finding::DrainCycle if ops.is_empty() => liveness_violation::<M>(
            cfg,
            mshrs,
            ops,
            "the initial state cycles under the fair drain schedule",
        ),
        Finding::DrainCycle => liveness_violation::<M>(
            cfg,
            mshrs,
            ops,
            "a reachable state cycles under the fair drain schedule without retiring anything",
        ),
        Finding::Budget => ReachViolation::bare(error_diagnostic(
            "RCH001",
            "machine",
            format!(
                "op {:?} after {} ops exceeded the {OP_CYCLE_BUDGET}-cycle budget while \
                 retirement still progresses; the budget is undersized for this configuration",
                ops[ops.len() - 1],
                ops.len() - 1
            ),
        )),
    })?;
    // Every memoized drain state proved acyclic, so each is its own SCC; a
    // cycle would have returned RCH002 above.
    Ok(explored.map(|e| Explored {
        sccs: drain_memo.verdicts.len() as u64,
        ..e
    }))
}

/// Explores a single configuration's abstract state graph to closure,
/// checking every safety invariant at every reachable state and the
/// liveness property on the drain graph.
///
/// # Errors
///
/// [`ReachViolation`] with `RCH001` (safety), `RCH002` (livelock), or
/// `RCH003` (the configuration is outside the abstractable class).
///
/// # Panics
///
/// Panics if `cfg` fails [`MachineConfig::validate`] — like the bounded
/// checker, this explores behavior of valid configurations only.
pub fn check_reach_config(cfg: &MachineConfig) -> Result<ReachConfigStats, Box<ReachViolation>> {
    reach_config::<Machine>(cfg, None)
}

/// [`check_reach_config`] for the non-blocking machine with `mshrs` miss
/// registers: explores the abstract quotient of the MSHR machine (the
/// abstract state carries per-line miss countdowns, canonicalized
/// alongside line renaming) and proves the blocking invariants plus the
/// MSHR-specific ones — register-count bound, no duplicate outstanding
/// miss per line, merge-on-fill correctness, and the overlapped stall
/// taxonomy — for op sequences of any length.
///
/// # Errors
///
/// [`ReachViolation`] with `RCH001` (safety), `RCH002` (livelock), or
/// `RCH003` (the configuration is outside the abstractable class).
///
/// # Panics
///
/// Panics if `cfg` fails [`MachineConfig::validate`] or rejects the
/// non-blocking machine (its hazard policy must be `read-from-wb`).
pub fn check_reach_config_nonblocking(
    cfg: &MachineConfig,
    mshrs: usize,
) -> Result<ReachConfigStats, Box<ReachViolation>> {
    reach_config::<NonBlockingMachine>(cfg, Some(mshrs))
}

fn reach_config<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
) -> Result<ReachConfigStats, Box<ReachViolation>> {
    let e = explore_reach::<M>(cfg, mshrs, &|| false)?.expect("no abort requested");
    Ok(ReachConfigStats {
        states: e.states,
        edges: e.edges,
        sccs: e.sccs,
    })
}

/// Runs the reachability check over the whole bounded configuration grid
/// (the same 40 configurations as [`crate::check_exhaustive`]) with `jobs`
/// worker threads. Like [`crate::check_exhaustive_jobs`], the result is
/// identical for every `jobs` value (only `wall_ms` varies): a violation
/// is always reported for the first violating configuration in
/// configuration order, and the clean-run statistics are order-independent
/// sums.
///
/// # Errors
///
/// The first violating configuration's [`ReachViolation`], in
/// configuration order.
pub fn check_reach_jobs(
    fault: Option<FaultInjection>,
    jobs: usize,
) -> Result<CheckReport, Box<ReachViolation>> {
    check_grid(&blocking_grid(fault), jobs, explore_reach::<Machine>)
}

/// [`check_reach_jobs`] over the non-blocking grid
/// ([`crate::nonblocking_configs`]).
///
/// # Errors
///
/// The first violating configuration's [`ReachViolation`], in
/// configuration order.
pub fn check_reach_nonblocking_jobs(
    fault: Option<FaultInjection>,
    mshrs: Option<usize>,
    jobs: usize,
) -> Result<CheckReport, Box<ReachViolation>> {
    check_grid(
        &mshr_grid(fault, mshrs),
        jobs,
        explore_reach::<NonBlockingMachine>,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::first_violation;
    use crate::{bounded_configs, check_sequence, default_jobs, nonblocking_configs};
    use wbsim_sim::EventParseError;
    use wbsim_types::policy::LoadHazardPolicy;
    use wbsim_types::testutil::a;

    /// Whether the sequence checker finds a violation within `max_ops`.
    fn bounded_dirty(cfg: &MachineConfig, mshrs: Option<usize>, max_ops: u32) -> bool {
        first_violation(&op_universe(cfg), max_ops, &|| false, |ops| {
            check_sequence(cfg, mshrs, ops).err()
        })
        .is_some()
    }

    fn starve_config(depth: usize, hw: usize) -> MachineConfig {
        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.depth = depth;
        cfg.write_buffer.retirement = RetirementPolicy::RetireAt(hw);
        cfg.check_data = false;
        cfg.fault = Some(FaultInjection::StarveRetirement);
        cfg
    }

    #[test]
    fn baseline_grid_reach_is_clean() {
        let report =
            check_reach_jobs(None, default_jobs()).expect("the paper's design space is clean");
        assert_eq!(report.configs, 40);
        assert_eq!(report.sequences, 0, "reach does not enumerate sequences");
        // The closure proves the invariants for arbitrarily long op
        // sequences; the explored graph is substantial even though the
        // quotient is small.
        assert!(
            report.states_explored >= 400,
            "suspiciously small exploration: {} states",
            report.states_explored
        );
        assert!(report.edges >= report.states_explored);
        assert!(report.sccs > 0, "drain graphs were explored");
    }

    #[test]
    fn parallel_and_serial_reach_runs_agree() {
        let mut one = check_reach_jobs(None, 1).expect("clean grid");
        let mut four = check_reach_jobs(None, 4).expect("clean grid");
        one.wall_ms = 0;
        four.wall_ms = 0;
        assert_eq!(one, four);
    }

    #[test]
    fn reach_agrees_with_bounded_on_every_configuration() {
        // Cross-validation: on every shared configuration, the bounded
        // checker (N=3) and the reachability checker must agree on whether
        // a *safety* fault is present. skip-wb-forwarding is a pure safety
        // bug, so the verdicts must match exactly.
        for fault in [None, Some(FaultInjection::SkipWbForwarding)] {
            for cfg in bounded_configs(fault) {
                let bounded_dirty = bounded_dirty(&cfg, None, 3);
                let reach = check_reach_config(&cfg);
                assert_eq!(
                    bounded_dirty,
                    reach.is_err(),
                    "bounded and reach disagree on {:?} depth {} hw {:?} fault {:?}",
                    cfg.write_buffer.hazard,
                    cfg.write_buffer.depth,
                    cfg.write_buffer.retirement,
                    fault
                );
            }
        }
    }

    #[test]
    fn skip_wb_forwarding_yields_minimized_replayable_safety_counterexample() {
        let v = check_reach_jobs(Some(FaultInjection::SkipWbForwarding), default_jobs())
            .expect_err("skipping WB forwarding must violate freshness");
        assert_eq!(v.diagnostic.code, "RCH001");
        let ce = v.counterexample.expect("safety violations carry one");
        assert_eq!(
            ce.config.write_buffer.hazard,
            LoadHazardPolicy::ReadFromWb,
            "the fault only bites under read-from-WB"
        );
        assert!(!ce.ops.is_empty());
        // 1-minimal under the bounded sequence checker.
        for i in 0..ce.ops.len() {
            let mut fewer = ce.ops.clone();
            fewer.remove(i);
            assert!(
                check_sequence(&ce.config, None, &fewer).is_ok(),
                "counterexample is not minimal: op {i} is removable"
            );
        }
        assert!(!ce.trace.is_empty());
        for line in &ce.trace {
            let ev: Result<Event, EventParseError> = Event::from_json(line);
            ev.expect("counterexample trace must be valid JSONL");
        }
    }

    #[test]
    fn starved_retirement_yields_minimized_replayable_livelock_counterexample() {
        // With autonomous retirement starved, any non-empty buffer already
        // cycles under the fair drain schedule: one store is the minimal
        // witness, and the BFS finds it at the first non-initial state.
        let v = check_reach_jobs(Some(FaultInjection::StarveRetirement), default_jobs())
            .expect_err("starved retirement is a livelock");
        assert_eq!(v.diagnostic.code, "RCH002");
        let ce = v.counterexample.expect("livelocks carry a counterexample");
        assert_eq!(ce.ops.len(), 1, "one store suffices: {:?}", ce.ops);
        assert!(ce.ops.iter().all(|op| matches!(op, Op::Store(_))));
        assert!(check_liveness_sequence(&ce.config, None, &ce.ops));
        for i in 0..ce.ops.len() {
            let mut fewer = ce.ops.clone();
            fewer.remove(i);
            assert!(
                !check_liveness_sequence(&ce.config, None, &fewer),
                "livelock counterexample is not minimal: op {i} is removable"
            );
        }
        assert!(!ce.trace.is_empty());
        for line in &ce.trace {
            let ev: Result<Event, EventParseError> = Event::from_json(line);
            ev.expect("livelock trace must be valid JSONL");
        }
    }

    #[test]
    fn deep_buffer_starvation_is_a_drain_cycle_livelock() {
        // At depth 2 over a two-line universe the buffer never fills (the
        // second store to a line merges), so no op ever wedges and the
        // bounded checker at any N sees nothing wrong. Only the drain-graph
        // cycle analysis exposes the livelock — and a single store suffices.
        let cfg = starve_config(2, 2);
        let v = check_reach_config(&cfg).expect_err("buffered entries never retire");
        assert_eq!(v.diagnostic.code, "RCH002");
        let ce = v.counterexample.expect("livelocks carry a counterexample");
        assert_eq!(ce.ops.len(), 1, "one store suffices: {:?}", ce.ops);
        assert!(matches!(ce.ops[0], Op::Store(_)));
        // The bounded checker is blind to it: every short sequence is clean.
        assert!(!bounded_dirty(&cfg, None, 3));
    }

    #[test]
    fn liveness_predicate_is_clean_on_healthy_configs() {
        let mut cfg = MachineConfig::baseline();
        cfg.check_data = false;
        assert!(!check_liveness_sequence(&cfg, None, &[Op::Store(a(0, 0))]));
        assert!(!check_liveness_sequence(
            &cfg,
            None,
            &[Op::Store(a(0, 0)), Op::Store(a(1, 0)), Op::Load(a(0, 1))]
        ));
        assert!(check_liveness_sequence(
            &starve_config(2, 2),
            None,
            &[Op::Store(a(0, 0))]
        ));
    }

    #[test]
    fn unabstractable_configs_are_rejected_with_rch003() {
        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.order = RetirementOrder::Lru;
        let v = check_reach_config(&cfg).expect_err("LRU order is time-dependent");
        assert_eq!(v.diagnostic.code, "RCH003");
        assert!(v.counterexample.is_none());
        assert_eq!(v.diagnostic.field_path, "write_buffer.order");

        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.max_age = Some(64);
        assert_eq!(
            check_reach_config(&cfg)
                .expect_err("max-age")
                .diagnostic
                .code,
            "RCH003"
        );

        // The whole bounded grid is abstractable by construction.
        for cfg in bounded_configs(None) {
            assert!(gate(&cfg).is_ok());
        }
    }

    /// One case per gated field: the `RCH003` diagnostic names the field
    /// and suggests the nearest admissible value.
    #[test]
    fn rch003_suggests_the_nearest_abstractable_configuration_per_field() {
        let cases: Vec<(MachineConfig, &str, &str)> = vec![
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.write_buffer.order = RetirementOrder::Lru;
                    cfg
                },
                "write_buffer.order",
                "fifo",
            ),
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.write_buffer.max_age = Some(64);
                    cfg
                },
                "write_buffer.max_age",
                "remove write_buffer.max_age",
            ),
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.write_buffer.retirement = RetirementPolicy::FixedRate(4);
                    cfg
                },
                "write_buffer.retirement",
                "retire-at(N)",
            ),
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.l2 = L2Config::real_with_size(128 * 1024);
                    cfg
                },
                "l2",
                "perfect",
            ),
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.icache = IcacheConfig::MissEvery { interval: 100 };
                    cfg
                },
                "icache",
                "perfect",
            ),
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.l1.write_policy = L1WritePolicy::WriteBack;
                    cfg
                },
                "l1.write_policy",
                "write-through",
            ),
        ];
        for (cfg, field, needle) in cases {
            cfg.validate().expect("each case is a valid configuration");
            let v = check_reach_config(&cfg).expect_err(field);
            assert_eq!(v.diagnostic.code, "RCH003", "{field}");
            assert_eq!(v.diagnostic.field_path, field);
            let suggestion = v
                .diagnostic
                .suggestion
                .as_deref()
                .unwrap_or_else(|| panic!("{field}: RCH003 must carry a suggestion"));
            assert!(
                suggestion.contains(needle),
                "{field}: suggestion {suggestion:?} does not name the nearest \
                 admissible value {needle:?}"
            );
        }
    }

    /// Sub-line entry widths are inside the abstractable class: the word
    /// bitmap is value-blind, so block-tagged entries fit the shadow map.
    /// Verified end-to-end on both machines.
    #[test]
    fn sub_line_widths_are_abstractable_end_to_end() {
        for width in [1usize, 2] {
            let mut cfg = MachineConfig::baseline();
            cfg.write_buffer.width_words = width;
            cfg.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
            cfg.check_data = false;
            cfg.validate().expect("sub-line widths are valid");
            let stats = check_reach_config(&cfg)
                .unwrap_or_else(|v| panic!("width {width} blocking: {:?}", v.diagnostic));
            assert!(stats.states > 1, "width {width}: exploration is degenerate");
            let nb = check_reach_config_nonblocking(&cfg, 2)
                .unwrap_or_else(|v| panic!("width {width} non-blocking: {:?}", v.diagnostic));
            assert!(nb.states > 1, "width {width}: NB exploration is degenerate");
            // Narrower blocks split lines into more distinct entries, so
            // the quotient grows as the width shrinks.
            assert!(
                nb.states >= stats.states.min(nb.states),
                "sanity: both explorations are populated"
            );
        }
    }

    #[test]
    fn nonblocking_grid_reach_is_clean() {
        let report = check_reach_nonblocking_jobs(None, None, default_jobs())
            .expect("the non-blocking design space is clean");
        // 10 depth/high-water shapes (hazard pinned to read-from-WB) x
        // MSHR counts 1-4.
        assert_eq!(report.configs, 40);
        assert_eq!(report.sequences, 0, "reach does not enumerate sequences");
        assert!(
            report.states_explored >= 400,
            "suspiciously small exploration: {} states",
            report.states_explored
        );
        assert!(report.edges >= report.states_explored);
        assert!(report.sccs > 0, "drain graphs were explored");
    }

    #[test]
    fn nonblocking_parallel_and_serial_reach_runs_agree() {
        let mut one = check_reach_nonblocking_jobs(None, Some(2), 1).expect("clean grid");
        let mut four = check_reach_nonblocking_jobs(None, Some(2), 4).expect("clean grid");
        one.wall_ms = 0;
        four.wall_ms = 0;
        assert_eq!(one, four);
    }

    #[test]
    fn nonblocking_reach_agrees_with_bounded_on_every_configuration() {
        // Cross-validation, as for the blocking pair: on every shared
        // (configuration, MSHR count), the bounded NB checker (N=3) and the
        // NB reachability checker must agree on whether the design is dirty.
        for fault in [None, Some(FaultInjection::SkipWbForwarding)] {
            for (cfg, m) in nonblocking_configs(fault, None) {
                let bounded_dirty = bounded_dirty(&cfg, Some(m), 3);
                let reach = check_reach_config_nonblocking(&cfg, m);
                assert_eq!(
                    bounded_dirty,
                    reach.is_err(),
                    "NB bounded and reach disagree on depth {} hw {:?} mshrs {m} fault {:?}",
                    cfg.write_buffer.depth,
                    cfg.write_buffer.retirement,
                    fault
                );
            }
        }
    }

    #[test]
    fn nonblocking_skip_wb_fault_yields_minimized_replayable_counterexample() {
        let v = check_reach_nonblocking_jobs(
            Some(FaultInjection::SkipWbForwarding),
            None,
            default_jobs(),
        )
        .expect_err("skipping WB forwarding must violate freshness on the NB machine");
        assert_eq!(v.diagnostic.code, "RCH001");
        let ce = v.counterexample.expect("safety violations carry one");
        let mshrs = ce.mshrs.expect("NB counterexamples record the MSHR count");
        assert!(!ce.ops.is_empty());
        // 1-minimal under the bounded NB sequence checker.
        for i in 0..ce.ops.len() {
            let mut fewer = ce.ops.clone();
            fewer.remove(i);
            assert!(
                check_sequence(&ce.config, Some(mshrs), &fewer).is_ok(),
                "counterexample is not minimal: op {i} is removable"
            );
        }
        assert!(!ce.trace.is_empty());
        for line in &ce.trace {
            let ev: Result<Event, EventParseError> = Event::from_json(line);
            ev.expect("counterexample trace must be valid JSONL");
        }
    }

    #[test]
    fn nonblocking_starved_retirement_yields_livelock_counterexample() {
        let v = check_reach_nonblocking_jobs(
            Some(FaultInjection::StarveRetirement),
            None,
            default_jobs(),
        )
        .expect_err("starved retirement is a livelock on the NB machine too");
        assert_eq!(v.diagnostic.code, "RCH002");
        let ce = v.counterexample.expect("livelocks carry a counterexample");
        let mshrs = ce.mshrs.expect("NB counterexamples record the MSHR count");
        assert_eq!(ce.ops.len(), 1, "one store suffices: {:?}", ce.ops);
        assert!(matches!(ce.ops[0], Op::Store(_)));
        assert!(check_liveness_sequence(&ce.config, Some(mshrs), &ce.ops));
        for i in 0..ce.ops.len() {
            let mut fewer = ce.ops.clone();
            fewer.remove(i);
            assert!(
                !check_liveness_sequence(&ce.config, Some(mshrs), &fewer),
                "livelock counterexample is not minimal: op {i} is removable"
            );
        }
        assert!(!ce.trace.is_empty());
        for line in &ce.trace {
            let ev: Result<Event, EventParseError> = Event::from_json(line);
            ev.expect("livelock trace must be valid JSONL");
        }
    }
}
