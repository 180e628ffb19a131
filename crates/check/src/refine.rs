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
//! `Engine::Reference` — and every edge runs one op on both sides:
//! the fast side through [`SimMachine::run_op_skipping`] (which exercises
//! `try_skip` and the fast lane exactly as a production `run` would),
//! the reference side through the same entry point (which, under
//! `Engine::Reference`, degenerates to plain single-stepping). The two
//! [`Event`] streams must be **identical, line for line**, and both
//! sides must land on the same cycle. Because the reference engine
//! emits the full per-cycle record, stream equality *is* the
//! cross-validation of the claimed horizon: any event the fast engine
//! skipped past shows up as a reference event inside a recorded
//! [`SkipSpan`], and the divergence is classified by where its cycle
//! falls:
//!
//! * `REF100` — the divergent cycle lies inside a claimed *wait-span*
//!   skip: the horizon overshot a pending event.
//! * `REF101` — the divergent cycle lies inside a claimed *fast-lane*
//!   compute batch: the lane batched across a retirement boundary.
//! * `REF102` — the engines diverge outside any claimed span: a plain
//!   semantic disagreement between the two step functions.
//!
//! States are canonicalized **jointly**: the line-symmetry machinery of
//! `abstract_both` is applied to both snapshots under the *same*
//! permutation, and the lexicographically smaller `(reference,
//! event-driven)` pair is the visited key — so a pair-state reached via
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
use wbsim_types::addr::{Addr, Geometry, LineAddr};
use wbsim_types::config::MachineConfig;
use wbsim_types::diagnostics::{Diagnostic, Severity};
use wbsim_types::divergence::FaultInjection;
use wbsim_types::op::Op;

use crate::abstract_state::{abstract_both, AbsState, ShadowTracker};
use crate::bounded::{
    blocking_grid, build, check_grid, minimize, mshr_grid, op_universe, unchecked, CheckReport,
    Counterexample,
};
use crate::explore::{explore, Edge, Explored};
use crate::reach::{gate, replay, universe_lines, OP_CYCLE_BUDGET};

/// Per-configuration product-exploration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineConfigStats {
    /// Canonical pair-states discovered (including the initial state).
    pub states: u64,
    /// Product transitions executed (each runs one op on both engines).
    pub edges: u64,
}

/// A refinement failure: the two engines disagreed, or the
/// configuration fell outside the decidable class.
#[derive(Debug, Clone)]
pub struct RefineViolation {
    /// What went wrong (`REF1xx`, or `RCH003` for gate rejections).
    pub diagnostic: Diagnostic,
    /// The minimized diverging op sequence with the reference engine's
    /// replayable trace. `None` only for gate rejections.
    pub counterexample: Option<Box<Counterexample>>,
}

fn ref_diagnostic(code: &'static str, field_path: &str, msg: String) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, field_path.to_string()).with_message(msg)
}

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
                return Err(ref_diagnostic(
                    "REF001",
                    &at,
                    "line is valid JSON but not an object; every trace line must be \
                     a single event object"
                        .to_string(),
                ));
            }
            Err(e) => {
                return Err(ref_diagnostic(
                    "REF001",
                    &at,
                    format!("line is not a JSON object: {e}"),
                ));
            }
        }
        match Event::from_json(line) {
            Ok(ev) => events.push(ev),
            Err(e) => {
                return Err(ref_diagnostic(
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

/// Records the serialized event stream and, separately, the accepted
/// store addresses in order — the latter feed the shadow tracker
/// without a re-parse.
#[derive(Default)]
struct StreamObserver {
    lines: Vec<String>,
    stores: Vec<Addr>,
}

impl Observer for StreamObserver {
    fn event(&mut self, ev: &Event) {
        if let Event::StoreAccepted { addr, .. } = *ev {
            self.stores.push(addr);
        }
        self.lines.push(ev.to_json());
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

fn line_cycle(line: &str) -> u64 {
    Event::from_json(line).map_or(0, |ev| ev.now())
}

fn div_at(i: usize, ed_lines: &[String], rf_lines: &[String], spans: &[SkipSpan]) -> Div {
    let ed = ed_lines.get(i).map(String::as_str);
    let rf = rf_lines.get(i).map(String::as_str);
    let cycle = rf.or(ed).map_or(0, line_cycle);
    let (code, place) = classify(spans, cycle);
    let show = |l: Option<&str>| l.map_or_else(|| "end of stream".to_string(), str::to_string);
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
    ed_lines: &[String],
    rf_lines: &[String],
    spans: &[SkipSpan],
) -> OpVerdict {
    let n = ed_lines.len().min(rf_lines.len());
    let first_diff = (0..n).find(|&i| ed_lines[i] != rf_lines[i]);
    if ed_end.is_none() && rf_end.is_none() {
        // Both ran out of budget. One skip can legitimately carry the
        // fast engine past the deadline mid-claim, so the streams may
        // differ in *length*; an equal common prefix is a consistent
        // wedge, anything else is a divergence.
        return match first_diff {
            None => OpVerdict::Wedged,
            Some(i) => OpVerdict::Diverged(div_at(i, ed_lines, rf_lines, spans)),
        };
    }
    if let Some(i) = first_diff {
        return OpVerdict::Diverged(div_at(i, ed_lines, rf_lines, spans));
    }
    if ed_lines.len() != rf_lines.len() {
        return OpVerdict::Diverged(div_at(n, ed_lines, rf_lines, spans));
    }
    match (ed_end, rf_end) {
        (Some(e), Some(r)) if e == r => OpVerdict::Agree,
        _ => {
            // Identical streams but different landing cycles (or one
            // side timed out). Defensive: every cycle emits CycleEnd,
            // so equal streams with unequal ends should be impossible.
            let cycle = rf_lines.last().map_or(0, |l| line_cycle(l));
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
    }
}

fn build_pair<M: SimMachine>(cfg: &MachineConfig, mshrs: Option<usize>) -> (M, M) {
    let mut ed: M = build(cfg, mshrs);
    ed.set_engine(Engine::EventDriven);
    ed.set_record_skips(true);
    let mut rf: M = build(cfg, mshrs);
    rf.set_engine(Engine::Reference);
    (ed, rf)
}

/// Run one op on both sides and compare. Both sides go through
/// [`SimMachine::run_op_skipping`]: under `Engine::Reference` it
/// degenerates to plain single-stepping, under `Engine::EventDriven` it
/// exercises the skip machinery exactly as a production run would.
/// Returns the verdict plus the reference side's accepted-store addresses
/// (to feed the shadow).
fn product_op<M: SimMachine>(ed: &mut M, rf: &mut M, op: Op) -> (OpVerdict, Vec<Addr>) {
    let mut ed_obs = StreamObserver::default();
    let mut rf_obs = StreamObserver::default();
    let ed_end = ed.run_op_skipping(op, OP_CYCLE_BUDGET, &mut ed_obs);
    let rf_end = rf.run_op_skipping(op, OP_CYCLE_BUDGET, &mut rf_obs);
    let spans = ed.take_skips();
    (
        verdict(ed_end, rf_end, &ed_obs.lines, &rf_obs.lines, &spans),
        rf_obs.stores,
    )
}

/// Drain clones of both sides to quiescence and compare those streams —
/// the only place the end-of-stream skip arms are reachable.
fn product_tail<M: SimMachine>(ed: &M, rf: &M) -> Option<Div> {
    let mut ed = ed.clone();
    let mut rf = rf.clone();
    let mut ed_obs = StreamObserver::default();
    let mut rf_obs = StreamObserver::default();
    let ed_end = ed.run_to_end_bounded(OP_CYCLE_BUDGET, &mut ed_obs);
    let rf_end = rf.run_to_end_bounded(OP_CYCLE_BUDGET, &mut rf_obs);
    let spans = ed.take_skips();
    match verdict(ed_end, rf_end, &ed_obs.lines, &rf_obs.lines, &spans) {
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
    for &op in ops {
        match product_op(&mut ed, &mut rf, op).0 {
            OpVerdict::Diverged(d) => return Some(d),
            OpVerdict::Wedged => return None,
            OpVerdict::Agree => {}
        }
    }
    product_tail(&ed, &rf)
}

/// The reference engine's full replayable trace for an op sequence:
/// every op run to its boundary, then the drain.
fn reference_trace<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
) -> Vec<String> {
    let mut rf: M = build(cfg, mshrs);
    rf.set_engine(Engine::Reference);
    let mut obs = StreamObserver::default();
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
    Box::new(RefineViolation {
        diagnostic: ref_diagnostic(div.code, "engine", div.message.clone()),
        counterexample: Some(Box::new(Counterexample {
            config: cfg.clone(),
            mshrs,
            ops,
            violation: div.message,
            trace,
        })),
    })
}

/// A product state: the event-driven and the reference machine, and the
/// shadow map of the (shared) store stream.
type Pair<M> = (M, M, ShadowTracker);

fn joint_key<M: SimMachine>(
    g: Geometry,
    (ed, rf, shadow): &Pair<M>,
    lines: &[LineAddr],
) -> (AbsState, AbsState) {
    let (a_e, b_e) = abstract_both(&g, &ed.snapshot(lines), shadow);
    let (a_r, b_r) = abstract_both(&g, &rf.snapshot(lines), shadow);
    // The same line permutation is applied to both halves, so the pair
    // under identity and the pair under the swap are the only two
    // representatives; take the smaller, reference half first.
    std::cmp::min((a_r, a_e), (b_r, b_e))
}

fn explore_refine<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    abort: &dyn Fn() -> bool,
) -> Result<Option<Explored>, Box<RefineViolation>> {
    gate(cfg).map_err(|diagnostic| {
        Box::new(RefineViolation {
            diagnostic,
            counterexample: None,
        })
    })?;
    let cfg = &unchecked(cfg);
    let g = cfg.geometry;
    let lines = universe_lines(cfg);
    let (ed0, rf0) = build_pair::<M>(cfg, mshrs);
    explore(
        (ed0, rf0, ShadowTracker::default()),
        &refine_universe(cfg),
        abort,
        |pair| joint_key(g, pair, &lines),
        |(ed, rf, shadow), op| {
            let (mut ed, mut rf) = (ed.clone(), rf.clone());
            match product_op(&mut ed, &mut rf, op) {
                (OpVerdict::Diverged(d), _) => Err(d),
                (OpVerdict::Wedged, _) => Ok(Edge::Wedged),
                (OpVerdict::Agree, stores) => {
                    let mut shadow = shadow.clone();
                    for addr in stores {
                        shadow.record_store(g.word_addr(addr));
                    }
                    Ok(Edge::To((ed, rf, shadow)))
                }
            }
        },
        |(ed, rf, _)| product_tail(ed, rf).map_or(Ok(()), Err),
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

    #[test]
    fn overshoot_skip_is_caught_minimized_and_replayable_blocking() {
        let mut cfg = grid_cfg(LoadHazardPolicy::FlushFull, 1, 1);
        cfg.fault = Some(FaultInjection::OvershootSkip);
        let v = check_refine_config(&cfg).expect_err("overshot horizon must diverge");
        assert_eq!(v.diagnostic.code, "REF100", "{}", v.diagnostic.message);
        let ce = v
            .counterexample
            .expect("divergence carries a counterexample");
        assert!(!ce.trace.is_empty());
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
        assert!(
            v.diagnostic.code.starts_with("REF1"),
            "unexpected code {}: {}",
            v.diagnostic.code,
            v.diagnostic.message
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
