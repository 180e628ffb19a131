//! Cross-engine refinement checking: `wbsim check --refine`.
//!
//! The event-driven engine (PR 7) earns its speed by *claiming* spans of
//! cycles in which nothing observable happens — wait-state skips from
//! `try_skip` and op-grained compute batches from the fast lane — and
//! replaying their per-cycle events wholesale. Every existing checker
//! single-steps both engines, so a bug in the claim machinery itself
//! (a horizon computed one cycle too far, a batch that swallows a
//! retirement completion) is invisible to all of them: under
//! single-stepping the claims are never exercised.
//!
//! This module closes that hole with a *product* exploration. Each node
//! of the BFS carries a **pair** of machines built from the same
//! configuration — one `Engine::EventDriven` (with skip recording
//! enabled, so the engine's claimed spans are captured), one
//! `Engine::Reference` — and every edge runs one op on both sides
//! through [`SimMachine::run_op_bounded`]. Like every run-to-boundary
//! entry point it runs under the machine's engine: the machine's one run
//! loop jumps spans and takes the fast lane on the event-driven side,
//! exactly as a production `run` would, and single-steps on the
//! reference side. The two [`Event`] streams must be **identical, event
//! for event**, and both sides must land on the same cycle. The streams
//! are recorded and compared as typed events: events are `Copy + Eq` and
//! the JSON codec round-trips, so this is the comparison of their
//! rendered lines, and JSON is rendered only for a divergence message and
//! the counterexample trace. Because the reference engine emits the full
//! per-cycle record, stream equality *is* the cross-validation of the
//! claimed horizon: any event the fast engine skipped past shows up as a
//! reference event inside a recorded [`SkipSpan`], and the divergence is
//! classified by where its cycle falls:
//!
//! * `REF100` — the divergent cycle lies inside a claimed *wait-span*
//!   skip: the horizon overshot a pending event.
//! * `REF101` — the divergent cycle lies inside a claimed *fast-lane*
//!   compute batch: the lane batched across a retirement boundary.
//! * `REF102` — the engines diverge outside any claimed span: a plain
//!   semantic disagreement between the two step functions.
//!
//! States are canonicalized **jointly**: the packed abstract keys of the
//! reference and the event-driven snapshot are joined under the *same*
//! line permutation, and the lexicographically smaller join is the
//! visited key — so a pair-state reached via
//! swapped lines is recognized, and the closure argument of `reach`
//! lifts to the product: once the BFS closes, the engines agree on op
//! sequences of **any** length over the config's op universe. The
//! universe here is `reach`'s eight loads/stores plus `Compute(16)` and
//! `Barrier`, which are what make the fast lane's compute batching and
//! the barrier-drain skips reachable at all. At every newly discovered
//! pair-state the checker also drains both machines to quiescence
//! ([`SimMachine::run_to_end_bounded`]) and compares those streams too —
//! the non-blocking machine's end-of-stream skip arm is reachable only
//! there.
//!
//! On divergence, the op path is recovered through parent pointers,
//! greedily 1-minimized (a candidate survives only if a *fresh* pair
//! still diverges on it), and packaged as a [`Counterexample`] whose
//! trace is the **reference** engine's full event stream — replayable
//! through `wbsim trace validate` and diffable against the fast
//! engine's stream with `wbsim trace diff`.
//!
//! Out-of-class configurations are rejected by the same gate as
//! `reach` (diagnostic `RCH003`); [`read_event_stream`] is the
//! hardened counterexample reader behind `trace diff`, mapping junk
//! lines to `REF001` (not a JSON object) or `REF002` (not a decodable
//! event) instead of panicking.

use wbsim_sim::{Engine, Event, Machine, NonBlockingMachine, Observer, SimMachine, SkipSpan};
use wbsim_types::addr::LineAddr;
use wbsim_types::config::MachineConfig;
use wbsim_types::diagnostics::Diagnostic;
use wbsim_types::divergence::FaultInjection;
use wbsim_types::op::Op;

use crate::abstract_state::{ShadowTracker, StateKey};
use crate::bounded::{
    blocking_grid, build, check_grid, minimize, mshr_grid, op_universe, unchecked, CheckReport,
    Counterexample, TraceObserver,
};
use crate::explore::{explore, fork, Edge, Explored};
use crate::reach::{
    error_diagnostic, gate, replay, universe_lines, ReachViolation, OP_CYCLE_BUDGET,
};

/// Per-configuration product-exploration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineConfigStats {
    /// Canonical pair-states discovered (including the initial state).
    pub states: u64,
    /// Product transitions executed (each runs one op on both engines).
    pub edges: u64,
}

/// A refinement failure: the two engines disagreed (`REF1xx`, with the
/// reference engine's replayable trace), or the configuration fell
/// outside the decidable class (`RCH003`, no trace).
pub type RefineViolation = ReachViolation;

/// The refinement op universe: `reach`'s eight loads/stores plus a
/// compute burst and a barrier. The burst is what makes the fast
/// lane's op-grained batching (and thus `REF101`) reachable; the
/// barrier exercises the `BarrierDrain` wait-span skip.
#[must_use]
pub fn refine_universe(cfg: &MachineConfig) -> Vec<Op> {
    let mut universe = op_universe(cfg);
    universe.push(Op::Compute(16));
    universe.push(Op::Barrier);
    universe
}

/// Decode a recorded event stream (one JSON event per line, as written
/// by `wbsim check --out`), tolerating blank lines and mapping every
/// malformed line to a structured diagnostic instead of panicking:
/// `REF001` if the line is not a JSON object at all, `REF002` if it is
/// an object but not a decodable [`Event`]. `display` names the source
/// in the diagnostic's field path (`{display}:{lineno}`).
///
/// # Errors
///
/// Returns the diagnostic for the first undecodable line.
pub fn read_event_stream(display: &str, text: &str) -> Result<Vec<Event>, Diagnostic> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let at = format!("{display}:{lineno}");
        match wbsim_types::json::parse(line) {
            Ok(json) if json.entries().is_some() => {}
            Ok(_) => {
                return Err(error_diagnostic(
                    "REF001",
                    &at,
                    "line is valid JSON but not an object; every trace line must be \
                     a single event object"
                        .to_string(),
                ));
            }
            Err(e) => {
                return Err(error_diagnostic(
                    "REF001",
                    &at,
                    format!("line is not a JSON object: {e}"),
                ));
            }
        }
        match Event::from_json(line) {
            Ok(ev) => events.push(ev),
            Err(e) => {
                return Err(error_diagnostic(
                    "REF002",
                    &at,
                    format!("line is a JSON object but not a decodable event: {e}"),
                ));
            }
        }
    }
    Ok(events)
}

/// First index at which two event streams disagree, with the event each
/// side has there (`None` past the end of the shorter stream). Returns
/// `None` when the streams are identical.
#[must_use]
pub fn first_divergence(a: &[Event], b: &[Event]) -> Option<(usize, Option<Event>, Option<Event>)> {
    let n = a.len().min(b.len());
    let i = (0..n).find(|&i| a[i] != b[i]).unwrap_or(n);
    (i < a.len().max(b.len())).then(|| (i, a.get(i).copied(), b.get(i).copied()))
}

/// Records an engine's event stream as typed events.
#[derive(Default)]
struct StreamObserver(Vec<Event>);

impl Observer for StreamObserver {
    fn event(&mut self, ev: &Event) {
        self.0.push(*ev);
    }
}

/// Both engines' streams of one product step. The buffers are reused
/// from step to step.
#[derive(Default)]
struct Streams {
    ed: StreamObserver,
    rf: StreamObserver,
}

impl Streams {
    /// Runs `run` on each side, each under its emptied stream, and
    /// compares the streams and the landing cycles.
    fn compare<M: SimMachine>(
        &mut self,
        ed: &mut M,
        rf: &mut M,
        run: impl Fn(&mut M, &mut StreamObserver) -> Option<u64>,
    ) -> OpVerdict {
        self.ed.0.clear();
        self.rf.0.clear();
        let ed_end = run(ed, &mut self.ed);
        let rf_end = run(rf, &mut self.rf);
        let spans = ed.take_skips();
        verdict(ed_end, rf_end, &self.ed.0, &self.rf.0, &spans)
    }
}

/// A classified divergence between the two engines.
#[derive(Debug, Clone)]
struct Div {
    code: &'static str,
    message: String,
}

fn classify(spans: &[SkipSpan], cycle: u64) -> (&'static str, &'static str) {
    for s in spans {
        if cycle >= s.from && cycle < s.to {
            return if s.lane {
                ("REF101", "inside a claimed fast-lane compute batch")
            } else {
                ("REF100", "inside a claimed wait-span skip")
            };
        }
    }
    ("REF102", "outside any claimed skip span")
}

/// The divergence at event `i`, where the event-driven engine emitted
/// `ed` and the reference engine `rf` (`None` past the end of a stream).
fn div_at(i: usize, ed: Option<Event>, rf: Option<Event>, spans: &[SkipSpan]) -> Div {
    let cycle = rf.or(ed).map_or(0, |e| e.now());
    let (code, place) = classify(spans, cycle);
    let show = |e: Option<Event>| e.map_or_else(|| "end of stream".to_string(), |e| e.to_json());
    Div {
        code,
        message: format!(
            "event streams diverge at event #{i} (cycle {cycle}, {place}): \
             event-driven emitted {}, reference emitted {}",
            show(ed),
            show(rf)
        ),
    }
}

/// Outcome of running one op (or the final drain) on the product pair.
enum OpVerdict {
    /// Both engines completed on the same cycle with identical streams.
    Agree,
    /// Both engines exceeded the cycle budget with a consistent common
    /// prefix — the edge is counted but the pair-state not expanded.
    Wedged,
    /// The streams or landing cycles disagree.
    Diverged(Div),
}

fn verdict(
    ed_end: Option<u64>,
    rf_end: Option<u64>,
    ed: &[Event],
    rf: &[Event],
    spans: &[SkipSpan],
) -> OpVerdict {
    let out_of_budget = ed_end.is_none() && rf_end.is_none();
    match first_divergence(ed, rf) {
        Some((i, ed @ Some(_), rf @ Some(_))) => OpVerdict::Diverged(div_at(i, ed, rf, spans)),
        // Both ran out of budget. One skip can legitimately carry the
        // fast engine past the deadline mid-claim, so the streams may
        // differ in *length*; an equal common prefix is a consistent
        // wedge.
        Some(_) | None if out_of_budget => OpVerdict::Wedged,
        Some((i, e, r)) => OpVerdict::Diverged(div_at(i, e, r, spans)),
        None => match (ed_end, rf_end) {
            (Some(e), Some(r)) if e == r => OpVerdict::Agree,
            _ => {
                // Identical streams but different landing cycles (or one
                // side timed out). Defensive: every cycle emits CycleEnd,
                // so equal streams with unequal ends should be impossible.
                let cycle = rf.last().map_or(0, |e| e.now());
                let (code, place) = classify(spans, cycle);
                let show = |e: Option<u64>| {
                    e.map_or_else(|| "budget exhausted".to_string(), |c| format!("cycle {c}"))
                };
                OpVerdict::Diverged(Div {
                    code,
                    message: format!(
                        "identical event streams but mismatched landing cycles ({place}): \
                         event-driven at {}, reference at {}",
                        show(ed_end),
                        show(rf_end)
                    ),
                })
            }
        },
    }
}

/// The event-driven side, recording its claims, and the reference side
/// ([`build`]'s engine).
fn build_pair<M: SimMachine>(cfg: &MachineConfig, mshrs: Option<usize>) -> (M, M) {
    let mut ed: M = build(cfg, mshrs);
    ed.set_engine(Engine::EventDriven);
    ed.set_record_skips(true);
    (ed, build(cfg, mshrs))
}

/// Run one op on both sides, each under its own engine, and compare. The
/// streams stay in `streams`; the reference side's accepted stores feed
/// the shadow.
fn product_op<M: SimMachine>(ed: &mut M, rf: &mut M, op: Op, streams: &mut Streams) -> OpVerdict {
    streams.compare(ed, rf, |m, s| m.run_op_bounded(op, OP_CYCLE_BUDGET, s))
}

/// Drain both sides to quiescence and compare those streams — the only
/// place the end-of-stream skip arms are reachable. The caller passes
/// forks when the pair lives on.
fn product_tail<M: SimMachine>(ed: &mut M, rf: &mut M, streams: &mut Streams) -> Option<Div> {
    match streams.compare(ed, rf, |m, s| m.run_to_end_bounded(OP_CYCLE_BUDGET, s)) {
        OpVerdict::Agree | OpVerdict::Wedged => None,
        OpVerdict::Diverged(d) => Some(Div {
            code: d.code,
            message: format!("end-of-stream drain: {}", d.message),
        }),
    }
}

/// Does a fresh pair diverge on exactly this op sequence (including the
/// final drain)? The minimization predicate.
fn sequence_diverges<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
) -> Option<Div> {
    let (mut ed, mut rf) = build_pair::<M>(cfg, mshrs);
    let mut streams = Streams::default();
    for &op in ops {
        match product_op(&mut ed, &mut rf, op, &mut streams) {
            OpVerdict::Diverged(d) => return Some(d),
            OpVerdict::Wedged => return None,
            OpVerdict::Agree => {}
        }
    }
    product_tail(&mut ed, &mut rf, &mut streams)
}

/// The reference engine's full replayable trace for an op sequence:
/// every op run to its boundary, then the drain.
fn reference_trace<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
) -> Vec<String> {
    let mut rf: M = build(cfg, mshrs);
    let mut obs = TraceObserver::default();
    replay(&mut rf, ops, &mut obs);
    let _ = rf.run_to_end_bounded(OP_CYCLE_BUDGET, &mut obs);
    obs.lines
}

fn divergence_violation<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: Vec<Op>,
    div: Div,
) -> Box<RefineViolation> {
    let (ops, div) = minimize(ops, div, |c| sequence_diverges::<M>(cfg, mshrs, c));
    let trace = reference_trace::<M>(cfg, mshrs, &ops);
    let diagnostic = error_diagnostic(div.code, "engine", div.message.clone());
    RefineViolation::with(
        diagnostic,
        Counterexample::new(cfg, mshrs, ops, div.message, trace),
    )
}

/// A product state: the event-driven and the reference machine, and the
/// shadow map of the (shared) store stream.
struct Pair<M> {
    ed: M,
    rf: M,
    shadow: ShadowTracker,
}

wbsim_types::clone_fields!(impl<M> Pair<M> { ed, rf, shadow });

/// Writes the joint visited key of a pair into `k`: the reference half,
/// then the event-driven half, each under the same line permutation.
fn joint_key<M: SimMachine>(lines: &[LineAddr], p: &Pair<M>, k: &mut StateKey) {
    k.push(&p.rf.view(), lines, &p.shadow);
    k.push(&p.ed.view(), lines, &p.shadow);
}

fn explore_refine<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    abort: &dyn Fn() -> bool,
) -> Result<Option<Explored>, Box<RefineViolation>> {
    gate(cfg).map_err(RefineViolation::bare)?;
    let cfg = &unchecked(cfg);
    let g = cfg.geometry;
    let lines = universe_lines(cfg);
    let (ed, rf) = build_pair::<M>(cfg, mshrs);
    let root = Pair {
        ed,
        rf,
        shadow: ShadowTracker::default(),
    };
    let mut streams = Streams::default();
    let (mut tail, mut tail_streams) = (None, Streams::default());
    explore(
        root,
        &refine_universe(cfg),
        abort,
        |p, k| joint_key(&lines, p, k),
        |p, op| match product_op(&mut p.ed, &mut p.rf, op, &mut streams) {
            OpVerdict::Diverged(d) => Err(d),
            OpVerdict::Wedged => Ok(Edge::Wedged),
            OpVerdict::Agree => {
                for ev in &streams.rf.0 {
                    if let Event::StoreAccepted { addr, .. } = *ev {
                        p.shadow.record_store(g.word_addr(addr));
                    }
                }
                Ok(Edge::To)
            }
        },
        |p| {
            let t = fork(&mut tail, p);
            product_tail(&mut t.ed, &mut t.rf, &mut tail_streams).map_or(Ok(()), Err)
        },
    )
    .map_err(|(ops, div)| divergence_violation::<M>(cfg, mshrs, ops, div))
}

/// Prove (or refute) refinement for one blocking-machine configuration.
///
/// # Errors
///
/// Returns the violation on gate rejection or engine divergence.
///
/// # Panics
///
/// Panics if `cfg` fails [`MachineConfig::validate`].
pub fn check_refine_config(cfg: &MachineConfig) -> Result<RefineConfigStats, Box<RefineViolation>> {
    refine_config::<Machine>(cfg, None)
}

/// Prove (or refute) refinement for one non-blocking configuration.
///
/// # Errors
///
/// Returns the violation on gate rejection or engine divergence.
///
/// # Panics
///
/// Panics if `cfg` (with `mshrs`) fails validation.
pub fn check_refine_config_nonblocking(
    cfg: &MachineConfig,
    mshrs: usize,
) -> Result<RefineConfigStats, Box<RefineViolation>> {
    refine_config::<NonBlockingMachine>(cfg, Some(mshrs))
}

fn refine_config<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
) -> Result<RefineConfigStats, Box<RefineViolation>> {
    let e = explore_refine::<M>(cfg, mshrs, &|| false)?.expect("no abort in single-config mode");
    Ok(RefineConfigStats {
        states: e.states,
        edges: e.edges,
    })
}

/// Refinement-check the full 40-point blocking grid with `jobs` workers.
///
/// # Errors
///
/// Returns the earliest-config violation.
pub fn check_refine_jobs(
    fault: Option<FaultInjection>,
    jobs: usize,
) -> Result<CheckReport, Box<RefineViolation>> {
    check_grid(&blocking_grid(fault), jobs, explore_refine::<Machine>)
}

/// Refinement-check the 40-point non-blocking grid (or one MSHR count)
/// with `jobs` workers.
///
/// # Errors
///
/// Returns the earliest-config violation.
pub fn check_refine_nonblocking_jobs(
    fault: Option<FaultInjection>,
    mshrs: Option<usize>,
    jobs: usize,
) -> Result<CheckReport, Box<RefineViolation>> {
    check_grid(
        &mshr_grid(fault, mshrs),
        jobs,
        explore_refine::<NonBlockingMachine>,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_types::addr::Addr;
    use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};

    fn grid_cfg(hazard: LoadHazardPolicy, depth: usize, hw: usize) -> MachineConfig {
        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.hazard = hazard;
        cfg.write_buffer.depth = depth;
        cfg.write_buffer.retirement = RetirementPolicy::RetireAt(hw);
        cfg.check_data = false;
        cfg
    }

    #[test]
    fn refine_universe_extends_reach_universe() {
        let cfg = MachineConfig::baseline();
        let universe = refine_universe(&cfg);
        assert_eq!(universe.len(), op_universe(&cfg).len() + 2);
        assert!(universe.contains(&Op::Compute(16)));
        assert!(universe.contains(&Op::Barrier));
    }

    #[test]
    fn single_blocking_config_refines_cleanly() {
        let cfg = grid_cfg(LoadHazardPolicy::FlushFull, 2, 1);
        let stats = check_refine_config(&cfg).expect("engines are equivalent");
        assert!(stats.states > 1);
        // Every expanded pair-state contributes exactly one edge per op.
        assert_eq!(
            stats.edges,
            stats.states * refine_universe(&cfg).len() as u64
        );
    }

    #[test]
    fn single_nonblocking_point_refines_cleanly() {
        let cfg = grid_cfg(LoadHazardPolicy::ReadFromWb, 2, 1);
        let stats = check_refine_config_nonblocking(&cfg, 2).expect("engines are equivalent");
        assert!(stats.states > 1);
    }

    #[test]
    fn blocking_grid_refines_cleanly_and_jobs_agree() {
        let mut one = check_refine_jobs(None, 1).expect("clean grid");
        let mut four = check_refine_jobs(None, 4).expect("clean grid");
        one.wall_ms = 0;
        four.wall_ms = 0;
        assert_eq!(one, four);
        assert_eq!(one.configs, 40);
        assert!(one.states_explored >= 400);
        assert_eq!(one.sequences, 0, "refine does not enumerate sequences");
    }

    #[test]
    fn gate_rejection_reports_rch003_without_counterexample() {
        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.retirement = RetirementPolicy::FixedRate(4);
        let v = check_refine_config(&cfg).expect_err("outside the decidable class");
        assert_eq!(v.diagnostic.code, "RCH003");
        assert!(v.counterexample.is_none());
    }

    /// The overshoot-skip counterexample of each machine, byte for byte:
    /// the diagnostic, its message with both engines' rendered events,
    /// the minimized ops and the reference trace. Comparing typed events
    /// must find the same divergence the rendered lines did.
    fn assert_overshoot_pinned(v: &RefineViolation, message: &str, ops: &[Op], trace: &[&str]) {
        assert_eq!(v.diagnostic.code, "REF100");
        assert_eq!(v.diagnostic.field_path, "engine");
        assert_eq!(v.diagnostic.message, message);
        let ce = v.counterexample.as_ref().expect("divergences carry one");
        assert_eq!(ce.violation, message);
        assert_eq!(ce.ops, ops);
        assert_eq!(ce.trace, trace);
    }

    #[test]
    fn overshoot_skip_is_caught_minimized_and_replayable_blocking() {
        let mut cfg = grid_cfg(LoadHazardPolicy::FlushFull, 1, 1);
        cfg.fault = Some(FaultInjection::OvershootSkip);
        let v = check_refine_config(&cfg).expect_err("overshot horizon must diverge");
        assert_overshoot_pinned(
            &v,
            "event streams diverge at event #8 (cycle 7, inside a claimed wait-span skip): \
             event-driven emitted {\"event\":\"cycle-end\",\"now\":7,\"occupancy\":0}, \
             reference emitted {\"event\":\"fill-installed\",\"now\":7,\"line\":0,\
             \"for_store\":false,\"merged_wb\":false}",
            &[Op::Load(Addr::new(0))],
            &[
                r#"{"event":"cycle-end","now":0,"occupancy":0}"#,
                r#"{"event":"port-granted","now":1,"owner":"cpu-read","until":7}"#,
                r#"{"event":"cycle-end","now":1,"occupancy":0}"#,
                r#"{"event":"cycle-end","now":2,"occupancy":0}"#,
                r#"{"event":"cycle-end","now":3,"occupancy":0}"#,
                r#"{"event":"cycle-end","now":4,"occupancy":0}"#,
                r#"{"event":"cycle-end","now":5,"occupancy":0}"#,
                r#"{"event":"cycle-end","now":6,"occupancy":0}"#,
                r#"{"event":"fill-installed","now":7,"line":0,"for_store":false,"merged_wb":false}"#,
                r#"{"event":"load-resolved","now":7,"addr":0,"value":0,"source":"l2-fill"}"#,
            ],
        );
        let ce = v
            .counterexample
            .expect("divergence carries a counterexample");
        // The trace replays: every line decodes as an event.
        let events = read_event_stream("ce", &ce.trace.join("\n")).expect("trace replays");
        assert_eq!(events.len(), ce.trace.len());
        // The trace IS the reference engine's stream for the minimized ops.
        assert_eq!(
            ce.trace,
            reference_trace::<Machine>(&ce.config, None, &ce.ops)
        );
        // 1-minimality: removing any single op loses the divergence.
        for i in 0..ce.ops.len() {
            let mut shorter = ce.ops.clone();
            shorter.remove(i);
            assert!(
                sequence_diverges::<Machine>(&ce.config, None, &shorter).is_none(),
                "counterexample not 1-minimal at index {i}"
            );
        }
        // And the full sequence still diverges from a fresh pair.
        assert!(sequence_diverges::<Machine>(&ce.config, None, &ce.ops).is_some());
    }

    #[test]
    fn overshoot_skip_is_caught_nonblocking() {
        let mut cfg = grid_cfg(LoadHazardPolicy::ReadFromWb, 1, 1);
        cfg.fault = Some(FaultInjection::OvershootSkip);
        let v = check_refine_config_nonblocking(&cfg, 1).expect_err("must diverge");
        assert_overshoot_pinned(
            &v,
            "end-of-stream drain: event streams diverge at event #5 (cycle 6, inside a \
             claimed wait-span skip): event-driven emitted {\"event\":\"cycle-end\",\
             \"now\":6,\"occupancy\":1}, reference emitted {\"event\":\"retire-complete\",\
             \"now\":6,\"id\":0,\"line\":0,\"lifetime\":6,\"valid_words\":1,\"flush\":false}",
            &[Op::Store(Addr::new(0))],
            &[
                r#"{"event":"store-accepted","now":0,"addr":0,"merged":false}"#,
                r#"{"event":"retire-start","now":0,"id":0,"flush":false}"#,
                r#"{"event":"port-granted","now":0,"owner":"wb-write","until":6}"#,
                r#"{"event":"cycle-end","now":0,"occupancy":1}"#,
                r#"{"event":"cycle-end","now":1,"occupancy":1}"#,
                r#"{"event":"cycle-end","now":2,"occupancy":1}"#,
                r#"{"event":"cycle-end","now":3,"occupancy":1}"#,
                r#"{"event":"cycle-end","now":4,"occupancy":1}"#,
                r#"{"event":"cycle-end","now":5,"occupancy":1}"#,
                r#"{"event":"retire-complete","now":6,"id":0,"line":0,"lifetime":6,"valid_words":1,"flush":false}"#,
            ],
        );
        let ce = v
            .counterexample
            .expect("divergence carries a counterexample");
        assert!(read_event_stream("ce", &ce.trace.join("\n")).is_ok());
        assert!(sequence_diverges::<NonBlockingMachine>(&ce.config, Some(1), &ce.ops).is_some());
    }

    #[test]
    fn other_faults_do_not_break_refinement() {
        // skip-wb-forwarding and starve-retirement corrupt *both*
        // engines identically — refinement still holds; only the
        // single-engine checkers catch them. overshoot-skip is the
        // mirror image: invisible to single-stepping, caught only here.
        let mut cfg = grid_cfg(LoadHazardPolicy::ReadFromWb, 2, 1);
        cfg.fault = Some(FaultInjection::SkipWbForwarding);
        check_refine_config(&cfg).expect("fault affects both engines equally");
    }

    #[test]
    fn read_event_stream_classifies_junk() {
        let err = read_event_stream("in", "not json at all").expect_err("REF001");
        assert_eq!(err.code, "REF001");
        assert_eq!(err.field_path, "in:1");

        let err = read_event_stream("in", "[1,2,3]").expect_err("non-object");
        assert_eq!(err.code, "REF001");

        let err = read_event_stream("in", "{\"event\":\"no_such_event\"}").expect_err("REF002");
        assert_eq!(err.code, "REF002");
        assert_eq!(err.field_path, "in:1");

        // Line numbers point at the offending line, blank lines skipped.
        let good = Event::CycleEnd {
            now: 3,
            occupancy: 1,
        }
        .to_json();
        let text = format!("{good}\n\n{{\"event\":\"bogus\"}}");
        let err = read_event_stream("f.jsonl", &text).expect_err("line 3");
        assert_eq!(err.field_path, "f.jsonl:3");
    }

    #[test]
    fn read_event_stream_roundtrips_real_traces() {
        let cfg = grid_cfg(LoadHazardPolicy::FlushFull, 1, 1);
        let trace = reference_trace::<Machine>(&cfg, None, &refine_universe(&cfg));
        let events = read_event_stream("t", &trace.join("\n")).expect("own traces decode");
        assert_eq!(events.len(), trace.len());
    }

    /// Satellite: `docs/static-analysis.md` must document exactly the `REF`
    /// codes in the unified registry, with matching summaries (the same
    /// bidirectional pin the LNT/PRP/SCH families have).
    #[test]
    fn refine_docs_table_agrees_with_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/static-analysis.md");
        let doc = std::fs::read_to_string(path).expect("docs/static-analysis.md exists");
        let mut documented = std::collections::BTreeMap::new();
        for line in doc.lines() {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() >= 4 && cells[1].starts_with("REF") && cells[1].len() == 6 {
                documented.insert(cells[1].to_string(), cells[3].to_string());
            }
        }
        for entry in wbsim_types::diagnostics::REGISTRY {
            if !entry.code.starts_with("REF") {
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
            "docs document unknown REF codes: {documented:?}"
        );
    }

    #[test]
    fn first_divergence_reports_index_and_both_events() {
        let a = [
            Event::CycleEnd {
                now: 0,
                occupancy: 0,
            },
            Event::CycleEnd {
                now: 1,
                occupancy: 0,
            },
        ];
        let b = [
            Event::CycleEnd {
                now: 0,
                occupancy: 0,
            },
            Event::CycleEnd {
                now: 1,
                occupancy: 1,
            },
        ];
        assert!(first_divergence(&a, &a).is_none());
        let (i, x, y) = first_divergence(&a, &b).expect("differ at 1");
        assert_eq!(i, 1);
        assert_eq!(x, Some(a[1]));
        assert_eq!(y, Some(b[1]));
        let (i, x, y) = first_divergence(&a, &a[..1]).expect("length mismatch");
        assert_eq!(i, 1);
        assert_eq!(x, Some(a[1]));
        assert_eq!(y, None);
    }
}
