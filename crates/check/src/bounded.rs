//! Bounded exhaustive model checking of the write-buffer transition system.
//!
//! The differential fuzzer samples the design space randomly; this module
//! instead enumerates **all** op sequences up to a small length over a tiny
//! address universe (2 cache lines × 2 words, so every hazard, coalesce,
//! and aliasing case is reachable) across every boundary configuration the
//! paper's invariants could plausibly break on: all 4 load-hazard policies
//! × depths 1–4 × every retire-at mark 1..=depth on the blocking machine,
//! and the same depths × MSHR counts 1–4 on the non-blocking one.
//!
//! Each run drives the cycle machine one cycle at a time
//! ([`SimMachine::step_op`], then [`SimMachine::step`] for the end of the
//! stream) under an observer that asserts the paper's invariants from the
//! event stream:
//!
//! * occupancy never exceeds depth, and the recorded high-water mark (hence
//!   headroom = depth − high-water) matches the maximum observed occupancy;
//! * at most one Table-3 stall cause per cycle (the taxonomy partitions);
//! * autonomous retirement is FIFO: entry ids leave in allocation order;
//! * no store is lost or staled: every load value, the load count, and the
//!   final memory image match the untimed [`ArchModel`];
//! * the conservation identities shared with `wbsim-oracle`
//!   ([`check_conservation`]).
//!
//! Sequences that share a prefix share its run: the checker walks the
//! prefix tree depth first, forking each prefix's run for each next op
//! (`least_violation`), and keeps the violation the odometer
//! (`first_violation`) would have met first.
//!
//! On a violation the failing sequence is minimized by greedy op deletion
//! and re-run under a trace-collecting observer; the resulting
//! [`Counterexample`] carries a JSONL event trace replayable with
//! `wbsim trace validate`.
//!
//! The module also holds what every checker shares: the grids, the
//! parallel grid driver, the odometer and the greedy minimizer.

use std::time::Instant;
use wbsim_types::sync::atomic::AtomicUsize;
use wbsim_types::sync::{Mutex, Ordering};

use wbsim_oracle::{check_conservation, ArchModel};
use wbsim_sim::{Event, Machine, NonBlockingMachine, Observer, SimMachine};
use wbsim_types::addr::Geometry;
use wbsim_types::config::MachineConfig;
use wbsim_types::divergence::FaultInjection;
use wbsim_types::op::Op;
use wbsim_types::policy::{LoadHazardPolicy, RetirementOrder, RetirementPolicy};
use wbsim_types::stall::StallKind;
use wbsim_types::Addr;

use crate::abstract_state::ShadowTracker;
use crate::explore::{fork, Explored};

/// Cycle budget per run: a liveness bound. The longest bounded sequence
/// finishes in well under a hundred cycles; a run that is still going after
/// this many has livelocked, which is itself a violation.
const CYCLE_BUDGET: u64 = 10_000;

/// What a clean check covered. Produced by both the bounded exhaustive
/// checker (which fills the sequence-enumeration fields) and the
/// reachability checker (which fills the state-graph fields); the unused
/// family is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckReport {
    /// Boundary configurations enumerated.
    pub configs: u64,
    /// Op sequences per configuration (bounded checker only).
    pub sequences: u64,
    /// Total machine runs, `configs × sequences` (bounded checker only).
    pub runs: u64,
    /// Distinct canonical abstract states visited across all
    /// configurations (reachability checker only).
    pub states_explored: u64,
    /// State-graph transitions executed across all configurations
    /// (reachability checker only).
    pub edges: u64,
    /// Strongly connected components of the drain graph across all
    /// configurations — every one a singleton in a clean run, because any
    /// larger SCC would be a no-progress cycle, i.e. a livelock
    /// (reachability checker only).
    pub sccs: u64,
    /// Wall-clock time of the whole check in milliseconds. The only field
    /// that varies between byte-identical runs.
    pub wall_ms: u64,
}

impl CheckReport {
    /// Renders the report as a single JSON object (hand-rolled, like the
    /// event codec — the workspace takes no serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"configs\":{},\"sequences\":{},\"runs\":{},\"states_explored\":{},\
             \"edges\":{},\"sccs\":{},\"wall_ms\":{}}}",
            self.configs,
            self.sequences,
            self.runs,
            self.states_explored,
            self.edges,
            self.sccs,
            self.wall_ms
        )
    }
}

/// A minimized invariant violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The configuration the violation occurred under.
    pub config: MachineConfig,
    /// The MSHR count when the violating machine was non-blocking
    /// (`None`: the blocking machine).
    pub mshrs: Option<usize>,
    /// The minimized op sequence (no single op can be removed and still
    /// violate).
    pub ops: Vec<Op>,
    /// What went wrong on the minimized sequence.
    pub violation: String,
    /// The minimized run's full event stream, one JSON object per line —
    /// feed to `wbsim trace validate` to replay.
    pub trace: Vec<String>,
}

impl Counterexample {
    /// A boxed counterexample for `ops` on `cfg` (`mshrs`: the
    /// non-blocking machine's MSHR count).
    pub(crate) fn new(
        cfg: &MachineConfig,
        mshrs: Option<usize>,
        ops: Vec<Op>,
        violation: String,
        trace: Vec<String>,
    ) -> Box<Self> {
        Box::new(Counterexample {
            config: cfg.clone(),
            mshrs,
            ops,
            violation,
            trace,
        })
    }
}

/// The bounded address universe: stores and loads over 2 lines × 2 words
/// (the paper's 32-byte lines, 8-byte words), 8 ops total. Two lines
/// exercise inter-line FIFO order and eviction; two words per line
/// exercise coalescing and partial-line hazards.
#[must_use]
pub fn op_universe(cfg: &MachineConfig) -> Vec<Op> {
    let line = u64::from(cfg.geometry.line_bytes());
    let word = u64::from(cfg.geometry.word_bytes());
    let mut ops = Vec::with_capacity(8);
    for base in [0, line] {
        for offset in [0, word] {
            ops.push(Op::Store(Addr::new(base + offset)));
            ops.push(Op::Load(Addr::new(base + offset)));
        }
    }
    ops
}

/// The boundary configurations: every hazard policy × depth 1..=4 × every
/// retire-at mark 1..=depth, on the paper's baseline machine, optionally
/// with an injected fault. 40 configurations.
#[must_use]
pub fn bounded_configs(fault: Option<FaultInjection>) -> Vec<MachineConfig> {
    let mut out = Vec::new();
    for hazard in LoadHazardPolicy::ALL {
        for depth in 1..=4usize {
            for hw in 1..=depth {
                let mut cfg = MachineConfig::baseline();
                cfg.write_buffer.depth = depth;
                cfg.write_buffer.retirement = RetirementPolicy::RetireAt(hw);
                cfg.write_buffer.hazard = hazard;
                cfg.check_data = false;
                cfg.fault = fault;
                debug_assert!(cfg.validate().is_ok());
                out.push(cfg);
            }
        }
    }
    out
}

/// The non-blocking boundary configurations: depth 1..=4 × every retire-at
/// mark × MSHR counts 1..=4 (or just `mshrs` when given), hazard forced to
/// read-from-WB (the only policy the machine accepts), optionally with an
/// injected fault. 40 `(config, mshrs)` pairs on the full grid, 10 at one
/// MSHR count.
#[must_use]
pub fn nonblocking_configs(
    fault: Option<FaultInjection>,
    mshrs: Option<usize>,
) -> Vec<(MachineConfig, usize)> {
    let counts = mshrs.map_or(1..=4, |m| m..=m);
    let mut out = Vec::new();
    for depth in 1..=4usize {
        for hw in 1..=depth {
            for m in counts.clone() {
                let mut cfg = MachineConfig::baseline();
                cfg.write_buffer.depth = depth;
                cfg.write_buffer.retirement = RetirementPolicy::RetireAt(hw);
                cfg.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
                cfg.check_data = false;
                cfg.fault = fault;
                debug_assert!(cfg.validate().is_ok());
                out.push((cfg, m));
            }
        }
    }
    out
}

/// A grid point: a configuration and, on the non-blocking machine, its
/// MSHR count (`None`: the blocking machine).
pub(crate) type Point = (MachineConfig, Option<usize>);

/// [`bounded_configs`] as grid points.
pub(crate) fn blocking_grid(fault: Option<FaultInjection>) -> Vec<Point> {
    bounded_configs(fault)
        .into_iter()
        .map(|c| (c, None))
        .collect()
}

/// [`nonblocking_configs`] as grid points.
pub(crate) fn mshr_grid(fault: Option<FaultInjection>, mshrs: Option<usize>) -> Vec<Point> {
    nonblocking_configs(fault, mshrs)
        .into_iter()
        .map(|(c, m)| (c, Some(m)))
        .collect()
}

/// `cfg` with the machine's inline freshness check off: the checkers
/// compare against models of their own.
pub(crate) fn unchecked(cfg: &MachineConfig) -> MachineConfig {
    let mut cfg = cfg.clone();
    cfg.check_data = false;
    cfg
}

/// Builds the machine a grid point selects, unchecked.
///
/// # Panics
///
/// Panics if the machine rejects the point — the checkers explore the
/// behavior of valid configurations; the linter owns validation.
pub(crate) fn build<M: SimMachine>(cfg: &MachineConfig, mshrs: Option<usize>) -> M {
    M::build(unchecked(cfg), mshrs).expect("checked configurations are valid")
}

/// The paper's per-event invariants, asserted on either machine's event
/// stream: occupancy never exceeds depth; Table-3 stall causes are
/// exclusive; and autonomous retirement is FIFO (under FIFO order). With
/// `overlap` (the non-blocking machine) the taxonomy is exclusive per
/// *cause*, not per cycle: a store can find the buffer full in the same
/// cycle a queued read sits behind an underway write, so a cycle may carry
/// one `BufferFull` plus one `L2ReadAccess` — and nothing else (hazards
/// never stall that machine; they merge into the fill).
///
/// Loads are checked one of two ways. With a shadow map ([`Self::tracking`],
/// the reachability checker, which carries the map and the FIFO cursor
/// across op transitions) every resolved load is compared with the
/// freshest store as it happens. Without one (the sequence checker) each
/// load's terminal event is recorded in program order — `None` for a miss
/// to an MSHR, whose fill the final-memory comparison covers instead.
#[derive(Debug)]
pub(crate) struct InvariantObserver {
    depth: u64,
    fifo: bool,
    overlap: bool,
    geometry: Geometry,
    shadow: Option<ShadowTracker>,
    last_retire_id: Option<u64>,
    /// The cycle of the last stall, and the causes charged in it (one bit
    /// per [`StallKind`]).
    stall_now: Option<u64>,
    stalls: u8,
    loads: Vec<Option<(Addr, u64)>>,
    cycles_seen: u64,
    max_occupancy: u64,
    pub(crate) violation: Option<String>,
}

wbsim_types::clone_fields!(InvariantObserver {
    depth,
    fifo,
    overlap,
    geometry,
    shadow,
    last_retire_id,
    stall_now,
    stalls,
    loads,
    cycles_seen,
    max_occupancy,
    violation,
});

impl InvariantObserver {
    /// The observer for `cfg` on the machine `mshrs` selects.
    pub(crate) fn new(cfg: &MachineConfig, mshrs: Option<usize>) -> Self {
        InvariantObserver {
            depth: cfg.write_buffer.depth as u64,
            fifo: cfg.write_buffer.order == RetirementOrder::Fifo,
            overlap: mshrs.is_some(),
            geometry: cfg.geometry,
            shadow: None,
            last_retire_id: None,
            stall_now: None,
            stalls: 0,
            loads: Vec::new(),
            cycles_seen: 0,
            max_occupancy: 0,
            violation: None,
        }
    }

    /// Checks loads against a shadow map fed by the stream's stores.
    pub(crate) fn tracking(mut self) -> Self {
        self.shadow = Some(ShadowTracker::default());
        self
    }

    /// The shadow map of a [`Self::tracking`] observer.
    pub(crate) fn shadow(&self) -> &ShadowTracker {
        self.shadow.as_ref().expect("a tracking observer")
    }

    /// Readies the observer for the next op transition from this state:
    /// the shadow map and FIFO cursor carry over, the per-cycle state
    /// starts afresh.
    pub(crate) fn begin_transition(&mut self) {
        self.stall_now = None;
        self.stalls = 0;
        self.violation = None;
    }

    fn fail(&mut self, msg: String) {
        self.violation.get_or_insert(msg);
    }
}

impl Observer for InvariantObserver {
    fn event(&mut self, ev: &Event) {
        match *ev {
            Event::CycleEnd { now, occupancy } => {
                self.cycles_seen += 1;
                self.max_occupancy = self.max_occupancy.max(occupancy);
                if occupancy > self.depth {
                    self.fail(format!(
                        "cycle {now}: occupancy {occupancy} exceeds depth {}",
                        self.depth
                    ));
                }
            }
            Event::StallCycle { now, kind } => {
                if self.stall_now != Some(now) {
                    self.stall_now = Some(now);
                    self.stalls = 0;
                }
                let bit = 1 << kind as u8;
                if !self.overlap {
                    if self.stalls != 0 {
                        self.fail(format!(
                            "cycle {now}: second stall cause ({kind:?}) in one cycle; \
                             Table-3 causes must be mutually exclusive"
                        ));
                    }
                } else {
                    if !matches!(kind, StallKind::BufferFull | StallKind::L2ReadAccess) {
                        self.fail(format!(
                            "cycle {now}: stall cause {kind:?} cannot occur on the \
                             non-blocking machine (hazards merge into fills)"
                        ));
                    }
                    if self.stalls & bit != 0 {
                        self.fail(format!(
                            "cycle {now}: stall cause {kind:?} charged twice in one \
                             cycle; under overlap each cause is exclusive per cycle"
                        ));
                    }
                }
                self.stalls |= bit;
            }
            Event::RetireStart { now, id, flush } if self.fifo && !flush => {
                if let Some(prev) = self.last_retire_id {
                    if id <= prev {
                        self.fail(format!(
                            "cycle {now}: autonomous retirement of entry {id} \
                             after entry {prev}; FIFO order requires strictly \
                             increasing ids"
                        ));
                    }
                }
                self.last_retire_id = Some(id);
            }
            Event::StoreAccepted { addr, .. } => {
                if let Some(shadow) = &mut self.shadow {
                    shadow.record_store(self.geometry.word_addr(addr));
                }
            }
            Event::LoadResolved {
                now,
                addr,
                value,
                source,
            } => match &self.shadow {
                None => self.loads.push(Some((addr, value))),
                Some(shadow) => {
                    let want = shadow.expected(self.geometry.word_addr(addr));
                    if value != want {
                        self.fail(format!(
                            "cycle {now}: load of {addr:?} via {source} observed \
                             {value:#x}, freshest store is {want:#x} (stale or lost store)"
                        ));
                    }
                }
            },
            Event::LoadMiss { .. } if self.shadow.is_none() => self.loads.push(None),
            _ => {}
        }
    }
}

/// The structural MSHR invariants, which live in machine state invisible
/// to the event stream: at most `mshrs` outstanding misses, never two to
/// the same line. Vacuous on the blocking machine.
pub(crate) fn mshr_invariants(m: &impl SimMachine, mshrs: Option<usize>) -> Result<(), String> {
    let lines = m.mshr_lines();
    let cap = mshrs.unwrap_or(0);
    let outstanding = lines.clone().count();
    if outstanding > cap {
        return Err(format!(
            "{outstanding} outstanding misses exceed the {cap} MSHRs"
        ));
    }
    for (i, line) in lines.clone().enumerate() {
        if lines.clone().take(i).any(|l| l == line) {
            return Err(format!(
                "two MSHRs outstanding for line {line:?}; secondary misses must merge"
            ));
        }
    }
    Ok(())
}

/// Runs one sequence under one configuration — on the non-blocking
/// machine with `mshrs` registers, or on the blocking machine for `None` —
/// and checks every invariant: the per-event ones of the invariant
/// observer, the structural MSHR invariants on every cycle, the
/// architectural comparison (resolved-load values at their program-order
/// ordinal, one terminal event per load, and final memory — which also
/// proves the non-blocking machine's merge-on-fill: an unmerged fill
/// installs a stale line that the final architectural read exposes), the
/// high-water identity, and the conservation identities (cycle accounting
/// only on the blocking machine: the other overlaps misses with execution
/// by design).
///
/// # Errors
///
/// Returns a human-readable description of the first violated invariant.
///
/// # Panics
///
/// Panics if the machine rejects `cfg`/`mshrs` — the checker explores
/// behavior, not configuration validation (the linter owns that).
pub fn check_sequence(cfg: &MachineConfig, mshrs: Option<usize>, ops: &[Op]) -> Result<(), String> {
    match mshrs {
        None => sequence::<Machine>(cfg, mshrs, ops),
        Some(_) => sequence::<NonBlockingMachine>(cfg, mshrs, ops),
    }
}

/// [`check_sequence`] on machine `M`.
pub(crate) fn sequence<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
) -> Result<(), String> {
    let cfg = &unchecked(cfg);
    let mut run = Run::<M>::new(cfg, mshrs);
    for &op in ops {
        run.op(op, mshrs)?;
    }
    run.finish(cfg, mshrs, ops)
}

/// The invariants asserted after every cycle of a sequence run: the
/// structural MSHR invariants and the liveness budget.
fn cycle_checks(m: &impl SimMachine, mshrs: Option<usize>) -> Result<(), String> {
    mshr_invariants(m, mshrs).map_err(|e| format!("cycle {}: {e}", m.now()))?;
    if m.now() >= CYCLE_BUDGET {
        return Err(format!(
            "run exceeded the {CYCLE_BUDGET}-cycle liveness budget"
        ));
    }
    Ok(())
}

/// A sequence run stopped at an op boundary: the machine, the invariant
/// observer that has watched it, and the untimed [`ArchModel`] fed the
/// same ops. [`sequence`] runs one op by op from a fresh build; the
/// prefix walk of [`exhaustive`] forks one per prefix and extends each
/// fork by one op, so every distinct prefix runs once.
struct Run<M> {
    machine: M,
    obs: InvariantObserver,
    arch: ArchModel,
    /// The architectural value of every load so far, in program order.
    expected: Vec<u64>,
}

wbsim_types::clone_fields!(impl<M> Run<M> { machine, obs, arch, expected });

impl<M: SimMachine> Run<M> {
    /// A run of no ops on `cfg`'s machine (`mshrs` selects it).
    fn new(cfg: &MachineConfig, mshrs: Option<usize>) -> Self {
        Run {
            machine: build(cfg, mshrs),
            obs: InvariantObserver::new(cfg, mshrs),
            arch: ArchModel::new(cfg.geometry),
            expected: Vec::new(),
        }
    }

    /// Runs `op` one cycle at a time to the next op boundary, asserting
    /// the per-cycle invariants ([`cycle_checks`]) after every cycle. An
    /// error ends the run: every sequence that extends this one fails the
    /// same way.
    fn op(&mut self, op: Op, mshrs: Option<usize>) -> Result<(), String> {
        self.expected.extend(self.arch.step(op));
        let mut next = std::iter::once(op);
        while self.machine.step_op(&mut next, &mut self.obs) {
            cycle_checks(&self.machine, mshrs)?;
        }
        Ok(())
    }

    /// Ends the stream and checks the run as the finished sequence `ops`:
    /// the end-of-stream tail under the per-cycle invariants, then the
    /// invariant observer's verdict, the architectural comparison
    /// (resolved-load values at their program-order ordinal, one terminal
    /// event per load, and final memory — which also proves the
    /// non-blocking machine's merge-on-fill: an unmerged fill installs a
    /// stale line that the final architectural read exposes), the
    /// high-water identity, and the conservation identities (cycle
    /// accounting only on the blocking machine: the other overlaps misses
    /// with execution by design).
    fn finish(
        &mut self,
        cfg: &MachineConfig,
        mshrs: Option<usize>,
        ops: &[Op],
    ) -> Result<(), String> {
        let Run {
            machine,
            obs,
            arch,
            expected,
        } = self;
        while machine.step(&mut std::iter::empty(), obs) {
            cycle_checks(machine, mshrs)?;
        }
        if let Some(v) = obs.violation.take() {
            return Err(v);
        }
        let mut stats = *machine.stats();
        stats.cycles = machine.now();

        // No store lost or staled: loads and final memory vs the untimed model.
        for (i, (terminal, &want)) in obs.loads.iter().zip(expected.iter()).enumerate() {
            if let Some((addr, got)) = *terminal {
                if got != want {
                    return Err(format!(
                        "load #{i} at {addr:?} observed {got:#x}, architectural model \
                         says {want:#x} (stale or lost store)"
                    ));
                }
            }
        }
        if obs.loads.len() != expected.len() {
            let terminated = if mshrs.is_some() {
                "terminated"
            } else {
                "resolved"
            };
            return Err(format!(
                "machine {terminated} {} loads, stream has {}",
                obs.loads.len(),
                expected.len()
            ));
        }
        for (i, op) in ops.iter().enumerate() {
            if let Op::Load(addr) | Op::Store(addr) = *op {
                // An address the loop has compared already compares the
                // same again.
                if ops[..i]
                    .iter()
                    .any(|o| matches!(*o, Op::Load(a) | Op::Store(a) if a == addr))
                {
                    continue;
                }
                let got = machine.read_word_architectural(addr);
                let want = arch.read_word(addr);
                if got != want {
                    return Err(format!(
                        "final memory at {addr:?}: machine reads {got:#x}, \
                         architectural model says {want:#x}"
                    ));
                }
            }
        }

        // Headroom identity: the recorded high-water mark is exactly the
        // maximum occupancy the event stream saw, so headroom(depth) is
        // depth − max occupancy.
        let depth = cfg.write_buffer.depth as u64;
        let hw = stats.wb_detail.high_water;
        if hw != obs.max_occupancy || hw > depth {
            return Err(format!(
                "high-water mark {hw} disagrees with the event stream's maximum \
                 occupancy {} (depth {depth})",
                obs.max_occupancy
            ));
        }

        // The conservation identities shared with the differential oracle.
        check_conservation(
            cfg,
            &stats,
            machine.wb_victim_allocs(),
            machine.wb_occupancy() as u64,
            obs.cycles_seen,
            mshrs.is_none(),
        )
        .map_err(|d| format!("conservation identity violated: {d}"))
    }
}

/// Collects the event stream as JSONL for counterexample replay.
#[derive(Debug, Default)]
pub(crate) struct TraceObserver {
    pub(crate) lines: Vec<String>,
}

impl Observer for TraceObserver {
    fn event(&mut self, ev: &Event) {
        self.lines.push(ev.to_json());
    }
}

/// The full event stream of one run of `ops`, under the sequence
/// checker's cycle budget.
pub(crate) fn trace_run<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
) -> Vec<String> {
    let mut machine: M = build(cfg, mshrs);
    let mut trace = TraceObserver::default();
    let mut iter = ops.iter().copied();
    while machine.step(&mut iter, &mut trace) && machine.now() < CYCLE_BUDGET {}
    trace.lines
}

/// Greedily deletes single ops while `witness` still finds a violation,
/// to a fixed point: the result is 1-minimal (removing any one op loses
/// the violation). Returns it with the witness of the last accepted
/// deletion — `w` when none was.
pub(crate) fn minimize<W>(
    mut ops: Vec<Op>,
    mut w: W,
    mut witness: impl FnMut(&[Op]) -> Option<W>,
) -> (Vec<Op>, W) {
    'outer: loop {
        for i in 0..ops.len() {
            let mut candidate = ops.clone();
            candidate.remove(i);
            if let Some(next) = witness(&candidate) {
                ops = candidate;
                w = next;
                continue 'outer;
            }
        }
        return (ops, w);
    }
}

/// Minimizes a sequence `violation` was seen on under the sequence
/// checker and packages it, with its full event trace, as a replayable
/// [`Counterexample`].
pub(crate) fn counterexample<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: Vec<Op>,
    violation: String,
) -> Box<Counterexample> {
    let (ops, violation) = minimize(ops, violation, |c| sequence::<M>(cfg, mshrs, c).err());
    let trace = trace_run::<M>(cfg, mshrs, &ops);
    Counterexample::new(cfg, mshrs, ops, violation, trace)
}

/// Sequences of length 1..=`max_ops` over a `universe`-sized alphabet.
fn sequence_count(universe: u64, max_ops: u32) -> u64 {
    (1..=max_ops).map(|k| universe.pow(k)).sum()
}

/// Enumerates every sequence of length 1..=`max_ops` over `universe` in
/// a fixed odometer order and returns the first that `check` flags, with
/// its witness. `abort` is polled once per sequence; a `true` poll
/// abandons the search (`None`).
pub(crate) fn first_violation<W>(
    universe: &[Op],
    max_ops: u32,
    abort: &dyn Fn() -> bool,
    mut check: impl FnMut(&[Op]) -> Option<W>,
) -> Option<(Vec<Op>, W)> {
    let mut ops = Vec::with_capacity(max_ops as usize);
    for len in 1..=max_ops as usize {
        let mut odometer = vec![0usize; len];
        loop {
            if abort() {
                return None;
            }
            ops.clear();
            ops.extend(odometer.iter().map(|&i| universe[i]));
            if let Some(w) = check(&ops) {
                return Some((ops, w));
            }
            // Advance the odometer; a carry out of the last digit means done.
            let Some(pos) = odometer.iter().position(|&d| d + 1 < universe.len()) else {
                break;
            };
            odometer[pos] += 1;
            odometer[..pos].fill(0);
        }
    }
    None
}

/// Default `--jobs` value: available parallelism, or 1 when unknown.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `work(i, abort)` for every index `0..n` on `jobs` worker threads
/// and returns either every success, or the *lowest-index* failure —
/// exactly what a serial in-order scan would return, regardless of thread
/// scheduling.
///
/// Determinism: indices are claimed from an atomic dispenser; the lowest
/// failing index so far lives in an atomic min-register. A worker aborts
/// work on index `i` only when some index `j < i` has already failed — so
/// the first-failing index (and its payload, for deterministic `work`) is
/// schedule-independent, and indices below it are never abandoned.
///
/// This is the workspace's one shared cell scheduler: every checker
/// dispatches its grid points through it (see `check_grid`), and the
/// experiments harness flattens its (benchmark × config × seed) sweep
/// grids onto it (with an uninhabited error type when cells never abort
/// each other).
///
/// # Errors
///
/// Returns the lowest-index failure as `(index, error)` — the same pair a
/// serial in-order scan would produce.
pub fn run_indexed_earliest<T, E>(
    n: usize,
    jobs: usize,
    work: impl Fn(usize, &dyn Fn() -> bool) -> Result<T, E> + Sync,
) -> Result<Vec<T>, (usize, E)>
where
    T: Send,
    E: Send,
{
    let jobs = jobs.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let earliest = AtomicUsize::new(usize::MAX);
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    wbsim_types::sync::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || earliest.load(Ordering::Relaxed) < i {
                    // Done, or an earlier index already failed (every index
                    // still in the dispenser is larger than this one).
                    return;
                }
                let earliest = &earliest;
                let abort = move || earliest.load(Ordering::Relaxed) < i;
                let result = work(i, &abort);
                if result.is_err() {
                    earliest.fetch_min(i, Ordering::Relaxed);
                }
                *slots[i].lock() = Some(result);
            });
        }
    });
    // First non-Ok slot in index order. A `None` (abandoned) slot can only
    // follow a failed lower index, so the scan hits the failure first.
    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner() {
            Some(Ok(t)) => out.push(t),
            Some(Err(e)) => return Err((i, e)),
            None => unreachable!("index {i} abandoned without an earlier failure"),
        }
    }
    Ok(out)
}

/// Runs `check` on every grid point on `jobs` worker threads
/// ([`run_indexed_earliest`]) and sums what the clean points explored. A
/// failure is the first failing point's in grid order, whatever the thread
/// schedule, so the result is identical for every `jobs` value (only
/// `wall_ms` varies). `check` returns `None` only when its abort poll
/// fired.
pub(crate) fn check_grid<E: Send>(
    points: &[Point],
    jobs: usize,
    check: impl Fn(&MachineConfig, Option<usize>, &dyn Fn() -> bool) -> Result<Option<Explored>, E>
        + Sync,
) -> Result<CheckReport, E> {
    let start = Instant::now();
    let explored = run_indexed_earliest(points.len(), jobs, |i, abort| {
        check(&points[i].0, points[i].1, abort)
    })
    .map_err(|(_, e)| e)?;
    let mut report = CheckReport {
        configs: points.len() as u64,
        ..CheckReport::default()
    };
    for e in explored.into_iter().flatten() {
        report.runs += e.runs;
        report.states_explored += e.states;
        report.edges += e.edges;
        report.sccs += e.sccs;
    }
    report.wall_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
    Ok(report)
}

/// Enumerates every op sequence of length 1..=`max_ops` over the bounded
/// universe, across all boundary configurations, checking every invariant
/// on every run, with [`default_jobs`] worker threads. See
/// [`check_exhaustive_jobs`].
///
/// # Errors
///
/// Returns the minimized, replayable [`Counterexample`] for the violation.
pub fn check_exhaustive(
    max_ops: u32,
    fault: Option<FaultInjection>,
) -> Result<CheckReport, Box<Counterexample>> {
    exhaustive::<Machine>(&blocking_grid(fault), max_ops, default_jobs())
}

/// [`check_exhaustive`] with an explicit worker-thread count. The result
/// is byte-identical for every `jobs` value (only `wall_ms` varies): the
/// search always reports the first violating configuration in
/// configuration order, and within it the first violating sequence in
/// odometer order.
///
/// # Errors
///
/// Returns the minimized, replayable [`Counterexample`] for the violation.
pub fn check_exhaustive_jobs(
    max_ops: u32,
    fault: Option<FaultInjection>,
    jobs: usize,
) -> Result<CheckReport, Box<Counterexample>> {
    exhaustive::<Machine>(&blocking_grid(fault), max_ops, jobs)
}

/// [`check_exhaustive_jobs`] for the non-blocking machine: every op
/// sequence of length 1..=`max_ops` across the non-blocking grid (× MSHR
/// counts 1–4, or just `mshrs` when given).
///
/// # Errors
///
/// Returns the minimized, replayable [`Counterexample`] for the violation.
pub fn check_exhaustive_nonblocking_jobs(
    max_ops: u32,
    fault: Option<FaultInjection>,
    mshrs: Option<usize>,
    jobs: usize,
) -> Result<CheckReport, Box<Counterexample>> {
    exhaustive::<NonBlockingMachine>(&mshr_grid(fault, mshrs), max_ops, jobs)
}

fn exhaustive<M: SimMachine>(
    points: &[Point],
    max_ops: u32,
    jobs: usize,
) -> Result<CheckReport, Box<Counterexample>> {
    let universe = points.first().map_or(0, |(cfg, _)| op_universe(cfg).len());
    let sequences = sequence_count(universe as u64, max_ops);
    let mut report = check_grid(points, jobs, |cfg, mshrs, abort| {
        let machine_cfg = &unchecked(cfg);
        let universe = op_universe(cfg);
        let walked = least_violation(
            Run::<M>::new(machine_cfg, mshrs),
            &universe,
            max_ops,
            abort,
            |run, op| run.op(op, mshrs),
            |run, ops| run.finish(machine_cfg, mshrs, ops),
        );
        match walked {
            None => Ok(None),
            Some(Ok(runs)) => {
                assert_eq!(
                    runs,
                    sequences,
                    "the exhaustive check of {} ran {runs} sequences, not every one of \
                     length 1..={max_ops}",
                    point_label(cfg, mshrs)
                );
                Ok(Some(Explored {
                    runs,
                    ..Explored::default()
                }))
            }
            Some(Err((ops, violation))) => Err(counterexample::<M>(cfg, mshrs, ops, violation)),
        }
    })?;
    report.sequences = sequences;
    Ok(report)
}

/// A grid point for a message: its hazard policy, depth and retirement
/// mark, and on the non-blocking machine its MSHR count.
fn point_label(cfg: &MachineConfig, mshrs: Option<usize>) -> String {
    let wb = &cfg.write_buffer;
    let machine = mshrs.map_or(String::new(), |m| format!(", {m} MSHRs"));
    format!(
        "hazard {}, depth {}, {}{machine}",
        wb.hazard, wb.depth, wb.retirement
    )
}

/// The node slots of a [`least_violation`] walk.
struct Walk<'a, N, W> {
    universe: &'a [Op],
    abort: &'a dyn Fn() -> bool,
    /// Slot `d` holds the node of the current path's length-`d` prefix
    /// (slot 0 the root); a child forks into the slot after its parent's.
    slots: Vec<Option<N>>,
    /// Where a node that still has children checks itself as a finished
    /// sequence (the check may advance it).
    scratch: Option<N>,
    /// The current path, as ops and as universe indices.
    ops: Vec<Op>,
    digits: Vec<usize>,
    /// The longest sequence still worth running: `max_ops`, then the
    /// length of the least violation so far.
    bound: usize,
    /// The least violation so far, as universe indices, with its witness.
    best: Option<(Vec<usize>, W)>,
    /// Sequences checked.
    checked: u64,
}

impl<N: Clone, W> Walk<'_, N, W> {
    /// Whether a sequence of the current path plus `digit`, as long as
    /// the least violation so far, would precede it in odometer order:
    /// the last position is the most significant digit.
    fn could_precede(&self, digit: usize) -> bool {
        let Some((best, _)) = &self.best else {
            return true;
        };
        let (best_last, best_rest) = best.split_last().expect("violations are non-empty");
        digit
            .cmp(best_last)
            .then_with(|| self.digits.iter().rev().cmp(best_rest.iter().rev()))
            .is_lt()
    }

    /// Keeps `w`, the violation of the current path, if the path precedes
    /// the least violation so far in odometer order: shorter first, then
    /// by the last position, then the one before, and so on.
    fn found(&mut self, w: W) {
        let precedes = self.best.as_ref().is_none_or(|(best, _)| {
            let len = self.digits.len();
            len.cmp(&best.len())
                .then_with(|| self.digits.iter().rev().cmp(best.iter().rev()))
                .is_lt()
        });
        if precedes {
            self.bound = self.digits.len();
            self.best = Some((self.digits.clone(), w));
        }
    }

    /// Runs every child of the node in slot `depth`, then their subtrees,
    /// depth first. `false` once `abort` fired.
    fn descend(
        &mut self,
        depth: usize,
        step: &mut impl FnMut(&mut N, Op) -> Result<(), W>,
        finish: &mut impl FnMut(&mut N, &[Op]) -> Result<(), W>,
    ) -> bool {
        let len = depth + 1;
        let universe = self.universe;
        for (digit, &op) in universe.iter().enumerate() {
            if len > self.bound {
                break;
            }
            if len == self.bound && !self.could_precede(digit) {
                continue;
            }
            if (self.abort)() {
                return false;
            }
            if self.slots.len() <= len {
                self.slots.push(None);
            }
            if digit + 1 == universe.len() {
                // The last child needs its parent no more: take it.
                self.slots.swap(depth, len);
            } else {
                let (parents, children) = self.slots.split_at_mut(len);
                let parent = parents[depth].as_ref().expect("the parent is in its slot");
                fork(&mut children[0], parent);
            }
            self.ops.push(op);
            self.digits.push(digit);
            let node = self.slots[len].as_mut().expect("the child is in its slot");
            let leaf = len == self.bound;
            let verdict = step(node, op).and_then(|()| {
                if leaf {
                    finish(node, &self.ops)
                } else {
                    finish(fork(&mut self.scratch, node), &self.ops)
                }
            });
            self.checked += 1;
            let go_on = match verdict {
                Err(w) => {
                    self.found(w);
                    true
                }
                Ok(()) => leaf || self.descend(len, step, finish),
            };
            self.ops.pop();
            self.digits.pop();
            if !go_on {
                return false;
            }
        }
        true
    }
}

/// Checks every sequence of length 1..=`max_ops` over `universe` once,
/// sharing prefixes, and returns what [`first_violation`] returns for the
/// same per-sequence verdict: the least violating sequence in odometer
/// order — length first, then the first position changing fastest — with
/// its witness; or, when nothing violates, the number of sequences
/// checked. `None` when `abort` fired (polled once per sequence).
///
/// The walk is depth first over the prefix tree. A child forks its
/// parent's node and `step`s it by its last op; a step failure is that
/// sequence's verdict. Otherwise `finish` checks the child as a finished
/// sequence — on a fork when the child has children of its own, since
/// `finish` may advance it. A violating sequence's extensions, and every
/// sequence longer than the least violation so far, follow it in
/// odometer order, so the walk skips them.
pub(crate) fn least_violation<N: Clone, W>(
    root: N,
    universe: &[Op],
    max_ops: u32,
    abort: &dyn Fn() -> bool,
    mut step: impl FnMut(&mut N, Op) -> Result<(), W>,
    mut finish: impl FnMut(&mut N, &[Op]) -> Result<(), W>,
) -> Option<Result<u64, (Vec<Op>, W)>> {
    let bound = max_ops as usize;
    let mut walk = Walk {
        universe,
        abort,
        slots: Vec::with_capacity(bound + 1),
        scratch: None,
        ops: Vec::with_capacity(bound),
        digits: Vec::with_capacity(bound),
        bound,
        best: None,
        checked: 0,
    };
    walk.slots.push(Some(root));
    if !walk.descend(0, &mut step, &mut finish) {
        return None;
    }
    Some(match walk.best {
        None => Ok(walk.checked),
        Some((digits, w)) => Err((digits.into_iter().map(|d| universe[d]).collect(), w)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_sim::EventParseError;

    #[test]
    fn universe_is_two_lines_by_two_words() {
        let ops = op_universe(&MachineConfig::baseline());
        assert_eq!(ops.len(), 8);
        let lines: std::collections::BTreeSet<u64> = ops
            .iter()
            .map(|op| match op {
                Op::Load(a) | Op::Store(a) => a.as_u64() / 32,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn boundary_configs_cover_the_grid() {
        let cfgs = bounded_configs(None);
        assert_eq!(cfgs.len(), 40);
        assert!(cfgs.iter().all(|c| c.validate().is_ok()));
        // Every hazard policy appears, and depth 1 with retire-at-1 exists.
        for h in LoadHazardPolicy::ALL {
            assert!(cfgs.iter().any(|c| c.write_buffer.hazard == h));
        }
        assert!(cfgs.iter().any(|c| c.write_buffer.depth == 1));
    }

    #[test]
    fn sequence_count_is_a_geometric_sum() {
        assert_eq!(sequence_count(8, 1), 8);
        assert_eq!(sequence_count(8, 3), 8 + 64 + 512);
    }

    #[test]
    fn short_exhaustive_check_is_clean() {
        let report = check_exhaustive(3, None).expect("no violations at depth 3");
        assert_eq!(report.configs, 40);
        assert_eq!(report.sequences, 8 + 64 + 512);
        assert_eq!(report.runs, 40 * (8 + 64 + 512));
    }

    #[test]
    fn injected_fault_yields_minimized_replayable_counterexample() {
        let ce = check_exhaustive(3, Some(FaultInjection::SkipWbForwarding))
            .expect_err("skipping WB forwarding must violate data freshness");
        assert!(
            ce.config.write_buffer.hazard == LoadHazardPolicy::ReadFromWb,
            "the fault only bites under read-from-WB"
        );
        assert!(!ce.ops.is_empty());
        assert!(!ce.violation.is_empty());
        // 1-minimal: removing any op makes the violation disappear.
        for i in 0..ce.ops.len() {
            let mut fewer = ce.ops.clone();
            fewer.remove(i);
            assert!(
                check_sequence(&ce.config, None, &fewer).is_ok(),
                "counterexample is not minimal: op {i} is removable"
            );
        }
        // Replayable: every trace line round-trips through the event codec.
        assert!(!ce.trace.is_empty());
        for line in &ce.trace {
            let ev: Result<Event, EventParseError> = Event::from_json(line);
            ev.expect("counterexample trace must be valid JSONL");
        }
    }

    #[test]
    fn parallel_and_serial_exhaustive_runs_agree() {
        // Satellite: parallelized check must be byte-identical to serial
        // (wall time excepted) — both on a clean grid and, with a fault
        // injected, down to the exact counterexample.
        let mut one = check_exhaustive_jobs(2, None, 1).expect("clean grid");
        let mut four = check_exhaustive_jobs(2, None, 4).expect("clean grid");
        one.wall_ms = 0;
        four.wall_ms = 0;
        assert_eq!(one, four);

        let a = check_exhaustive_jobs(3, Some(FaultInjection::SkipWbForwarding), 1)
            .expect_err("fault must be caught");
        let b = check_exhaustive_jobs(3, Some(FaultInjection::SkipWbForwarding), 4)
            .expect_err("fault must be caught");
        assert_eq!(a.config, b.config);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn nonblocking_configs_cover_the_grid() {
        let cfgs = nonblocking_configs(None, None);
        assert_eq!(cfgs.len(), 40); // 10 (depth, retire-at) shapes × 4 MSHR counts
        assert!(cfgs.iter().all(|(c, _)| c.validate().is_ok()));
        assert!(cfgs
            .iter()
            .all(|(c, _)| c.write_buffer.hazard == LoadHazardPolicy::ReadFromWb));
        for m in 1..=4usize {
            assert!(cfgs.iter().any(|&(_, got)| got == m));
            assert_eq!(nonblocking_configs(None, Some(m)).len(), 10);
        }
    }

    /// `--mshrs N` past the grid's 1-4 sweep still selects the 10
    /// depth × retire-at shapes, at N registers — and the exhaustive check
    /// over them is the 2-MSHR check again: two lines miss concurrently at
    /// most, so capacity saturates at 2 on this universe.
    #[test]
    fn mshrs_above_the_sweep_select_ten_shapes_and_check_clean() {
        let points = nonblocking_configs(None, Some(5));
        assert_eq!(points.len(), 10);
        assert!(points.iter().all(|&(_, m)| m == 5));
        let mut five = check_exhaustive_nonblocking_jobs(2, None, Some(5), 1).expect("clean");
        let mut two = check_exhaustive_nonblocking_jobs(2, None, Some(2), 1).expect("clean");
        five.wall_ms = 0;
        two.wall_ms = 0;
        assert_eq!(five, two);
        assert_eq!(five.configs, 10);
    }

    #[test]
    fn short_nonblocking_exhaustive_check_is_clean() {
        let report = check_exhaustive_nonblocking_jobs(3, None, None, default_jobs())
            .expect("no violations");
        assert_eq!(report.configs, 40);
        assert_eq!(report.sequences, 8 + 64 + 512);
        assert_eq!(report.runs, 40 * (8 + 64 + 512));
    }

    #[test]
    fn nonblocking_injected_fault_yields_minimized_replayable_counterexample() {
        let ce = check_exhaustive_nonblocking_jobs(
            3,
            Some(FaultInjection::SkipWbForwarding),
            None,
            default_jobs(),
        )
        .expect_err("an unmerged fill must corrupt final memory");
        let m = ce
            .mshrs
            .expect("non-blocking counterexamples carry the MSHR count");
        assert!(!ce.ops.is_empty());
        assert!(!ce.violation.is_empty());
        for i in 0..ce.ops.len() {
            let mut fewer = ce.ops.clone();
            fewer.remove(i);
            assert!(
                check_sequence(&ce.config, Some(m), &fewer).is_ok(),
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
    fn nonblocking_parallel_and_serial_exhaustive_runs_agree() {
        let mut one = check_exhaustive_nonblocking_jobs(2, None, None, 1).expect("clean grid");
        let mut four = check_exhaustive_nonblocking_jobs(2, None, None, 4).expect("clean grid");
        one.wall_ms = 0;
        four.wall_ms = 0;
        assert_eq!(one, four);

        let a =
            check_exhaustive_nonblocking_jobs(3, Some(FaultInjection::SkipWbForwarding), None, 1)
                .expect_err("fault must be caught");
        let b =
            check_exhaustive_nonblocking_jobs(3, Some(FaultInjection::SkipWbForwarding), None, 4)
                .expect_err("fault must be caught");
        assert_eq!(a.config, b.config);
        assert_eq!(a.mshrs, b.mshrs);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn nonblocking_check_accepts_overlap_heavy_pairs() {
        for (cfg, m) in nonblocking_configs(None, None) {
            let u = op_universe(&cfg);
            // Store then load of the same word (hazard → MSHR merge path).
            check_sequence(&cfg, Some(m), &[u[0], u[1]]).expect("hazard pair is clean");
        }
    }

    #[test]
    fn report_json_names_every_field() {
        let r = CheckReport {
            configs: 1,
            sequences: 2,
            runs: 3,
            states_explored: 4,
            edges: 5,
            sccs: 6,
            wall_ms: 7,
        };
        let j = r.to_json();
        for key in [
            "configs",
            "sequences",
            "runs",
            "states_explored",
            "edges",
            "sccs",
            "wall_ms",
        ] {
            assert!(j.contains(&format!("\"{key}\":")), "missing {key} in {j}");
        }
    }

    /// A violating sequence and its witness, if any.
    type Found = Option<(Vec<Op>, String)>;

    /// Planted digit strings.
    type Digits = &'static [&'static [usize]];

    /// A synthetic per-sequence verdict with planted violations, as digit
    /// strings over the universe: `mid_op` fail while their last op runs
    /// (so every extension fails the same way), `finished` fail only as
    /// finished sequences.
    struct Planted {
        mid_op: Vec<Vec<usize>>,
        finished: Vec<Vec<usize>>,
    }

    impl Planted {
        fn digits(universe: &[Op], ops: &[Op]) -> Vec<usize> {
            ops.iter()
                .map(|op| {
                    universe
                        .iter()
                        .position(|u| u == op)
                        .expect("in the universe")
                })
                .collect()
        }

        /// What a run of `ops` from scratch reports: the first prefix
        /// that fails mid-op, else the finished sequence's verdict.
        fn verdict(&self, universe: &[Op], ops: &[Op]) -> Option<String> {
            let d = Self::digits(universe, ops);
            (1..=d.len())
                .find(|&n| self.mid_op.contains(&d[..n].to_vec()))
                .map(|n| format!("mid-op {:?}", &d[..n]))
                .or_else(|| {
                    self.finished
                        .contains(&d)
                        .then(|| format!("finished {d:?}"))
                })
        }

        /// `least_violation` and `first_violation` on this verdict.
        fn both(&self, max_ops: u32) -> (Found, Found) {
            let universe = op_universe(&MachineConfig::baseline());
            let walked = least_violation(
                Vec::new(),
                &universe,
                max_ops,
                &|| false,
                |path: &mut Vec<Op>, op| {
                    path.push(op);
                    let d = Self::digits(&universe, path);
                    if self.mid_op.contains(&d) {
                        return Err(format!("mid-op {d:?}"));
                    }
                    Ok(())
                },
                |path, ops| {
                    assert_eq!(path.as_slice(), ops, "a node is its sequence");
                    let d = Self::digits(&universe, ops);
                    match self.finished.contains(&d) {
                        true => Err(format!("finished {d:?}")),
                        false => Ok(()),
                    }
                },
            )
            .expect("never aborted");
            let oracle = first_violation(&universe, max_ops, &|| false, |ops| {
                self.verdict(&universe, ops)
            });
            if walked.is_ok() {
                assert_eq!(
                    walked,
                    Ok(sequence_count(8, max_ops)),
                    "a clean walk runs all"
                );
            }
            (walked.err(), oracle)
        }
    }

    #[test]
    fn the_prefix_walk_returns_the_odometers_first_violation() {
        let cases: &[(Digits, Digits, &[usize])] = &[
            // Nothing planted: clean, every sequence checked.
            (&[], &[], &[]),
            // Several lengths: the shortest wins.
            (&[], &[&[3, 5, 1], &[2, 2], &[7, 0, 0, 1]], &[2, 2]),
            // One length, several positions: the last position is the most
            // significant digit, then the one before it.
            (&[], &[&[1, 3, 1], &[0, 0, 2], &[5, 2, 1]], &[5, 2, 1]),
            (&[], &[&[4, 1, 2], &[0, 3, 2], &[7, 0, 2]], &[7, 0, 2]),
            (
                &[],
                &[&[6, 6, 6, 6], &[7, 6, 6, 6], &[5, 7, 6, 6]],
                &[6, 6, 6, 6],
            ),
            // Mid-op failures cut their subtrees and compete like the rest.
            (&[&[3]], &[&[5]], &[3]),
            (&[&[6]], &[&[5]], &[5]),
            (&[&[1, 4]], &[&[0, 0, 0]], &[1, 4]),
            (&[&[0, 0]], &[&[0, 0, 1]], &[0, 0]),
            (&[&[2, 0, 0]], &[&[1, 0, 0, 0], &[3, 0, 0]], &[2, 0, 0]),
            // A violation at the deepest level only.
            (&[], &[&[7, 7, 7, 7]], &[7, 7, 7, 7]),
        ];
        let universe = op_universe(&MachineConfig::baseline());
        for &(mid_op, finished, want) in cases {
            let planted = Planted {
                mid_op: mid_op.iter().map(|d| d.to_vec()).collect(),
                finished: finished.iter().map(|d| d.to_vec()).collect(),
            };
            let (walked, oracle) = planted.both(4);
            assert_eq!(walked, oracle, "planted {mid_op:?} / {finished:?}");
            let want = (!want.is_empty()).then(|| want.iter().map(|&d| universe[d]).collect());
            assert_eq!(walked.map(|(ops, _)| ops), want);
        }
    }

    #[test]
    fn the_prefix_walk_agrees_with_the_odometer_on_random_plantings() {
        // xorshift64*: a fixed, dependency-free stream of plantings.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: usize| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        };
        let mut plant = |count: usize| -> Vec<Vec<usize>> {
            let mut out = Vec::new();
            for _ in 0..count {
                let len = 1 + next(4);
                out.push((0..len).map(|_| next(8)).collect());
            }
            out
        };
        for round in 0..300 {
            let planted = Planted {
                mid_op: plant(round % 3),
                finished: plant(round % 7),
            };
            let (walked, oracle) = planted.both(4);
            assert_eq!(
                walked, oracle,
                "{:?} / {:?}",
                planted.mid_op, planted.finished
            );
        }
    }

    #[test]
    fn an_aborted_walk_reports_nothing() {
        let universe = op_universe(&MachineConfig::baseline());
        let none = least_violation(
            (),
            &universe,
            3,
            &|| true,
            |(), _| Ok::<(), ()>(()),
            |(), _| Ok(()),
        );
        assert_eq!(none, None);
    }

    /// The walk over real runs finds exactly the sequence and violation
    /// the odometer finds by replaying each sequence from scratch, on
    /// every point of both grids under each machine fault.
    #[test]
    fn the_prefix_walk_matches_replayed_sequences_under_every_fault() {
        fn agree<M: SimMachine>(points: &[Point], max_ops: u32) {
            for (cfg, mshrs) in points {
                let universe = op_universe(cfg);
                let machine_cfg = &unchecked(cfg);
                let walked = least_violation(
                    Run::<M>::new(machine_cfg, *mshrs),
                    &universe,
                    max_ops,
                    &|| false,
                    |run, op| run.op(op, *mshrs),
                    |run, ops| run.finish(machine_cfg, *mshrs, ops),
                )
                .expect("never aborted");
                let replayed = first_violation(&universe, max_ops, &|| false, |ops| {
                    sequence::<M>(cfg, *mshrs, ops).err()
                });
                assert_eq!(walked.err(), replayed, "{}", point_label(cfg, *mshrs));
            }
        }
        for fault in [
            FaultInjection::SkipWbForwarding,
            FaultInjection::StarveRetirement,
        ] {
            agree::<Machine>(&blocking_grid(Some(fault)), 3);
            agree::<NonBlockingMachine>(&mshr_grid(Some(fault), Some(2)), 3);
        }
    }

    #[test]
    fn check_sequence_accepts_a_hazardous_store_load_pair() {
        let cfgs = bounded_configs(None);
        let a = Addr::new(0);
        for cfg in &cfgs {
            check_sequence(cfg, None, &[Op::Store(a), Op::Load(a)]).expect("hazard pair is clean");
        }
    }
}
