//! The cycle-stepped machine: CPU state machine, L2 arbitration, and
//! write-buffer stall attribution.
//!
//! # Timing rules (paper Table 1, §2.1–2.3)
//!
//! * Every instruction executes in 1 cycle; the memory system adds stalls.
//! * L1 hits take 1 cycle. A clean L1 load miss takes 1 + L2-latency
//!   cycles (7 in the baseline).
//! * Writing a write-buffer entry to L2 (retirement or flush) takes the
//!   full L2 write latency "regardless of whether the entry being written
//!   is full or not".
//! * Read-bypassing: a load miss beats a *pending* retirement for the L2
//!   port, but a write already underway always completes first.
//! * On a real L2, a read miss holds the port only for the L2-latency
//!   portion; during the main-memory fetch the port is free, so the write
//!   buffer may retire entries "then" (§4.2).
//!
//! # Stall attribution (Table 3)
//!
//! * Cycles a store waits for a free entry → **buffer-full**.
//! * Cycles a load miss waits for the port while a write is underway →
//!   **L2-read-access**.
//! * Cycles spent handling a load hazard (waiting out an underway
//!   retirement, plus the flush transactions themselves) → **load-hazard**.
//! * The load's own L2/memory read is charged to the miss
//!   (`miss_wait_cycles`), never to the write buffer.
//!
//! The datapath below the CPU (caches, buffer, port, shadow model) is the
//! shared `Hierarchy` (`hierarchy.rs`, crate-private — see
//! `docs/architecture.md`); this module owns only the blocking CPU state
//! machine and the I-cache front end. Observability is structured: the
//! run loop is generic over an [`Observer`] receiving [`Event`]s, and
//! the plain entry points run under the zero-cost
//! [`crate::NullObserver`].

use wbsim_core::entry::EntryId;
use wbsim_mem::Icache;
use wbsim_types::addr::{Addr, LineAddr};
use wbsim_types::config::{ConfigError, MachineConfig};
use wbsim_types::op::Op;
use wbsim_types::policy::{L1WritePolicy, L2Priority, LoadHazardPolicy};
use wbsim_types::stats::SimStats;
use wbsim_types::Cycle;

use crate::event::{Event, PortUse};
use crate::fold::{foldable, L1Fold};
use crate::hierarchy::{Engine, Hierarchy, Pending, SkipSpan, SkipTick};
use crate::observer::{NullObserver, Observer};
use crate::port::PortOwner;
use crate::sim_machine::SimMachine;
use crate::view::StateView;

/// A one-slot pushback wrapper over the op stream: the fast lane pops an
/// op to inspect it and, when the op needs the reference path, returns it
/// to the slot for the next [`SimMachine::step`] to consume.
struct PushBack<'a, I> {
    slot: Option<Op>,
    inner: &'a mut I,
}

impl<I: Iterator<Item = Op>> Iterator for PushBack<'_, I> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.slot.take().or_else(|| self.inner.next())
    }
}

/// The warmup reset: statistics restart, and `cycles` counts from, the
/// first op-issue cycle at which `instructions` reaches the threshold.
/// Only an op-issue cycle can cross it, so the fast lane checks once per
/// issued op and the run loop once per step.
struct Warmup {
    threshold: u64,
    done: bool,
    base: Cycle,
}

impl Warmup {
    fn new(threshold: u64) -> Self {
        Warmup {
            threshold,
            done: threshold == 0,
            base: 0,
        }
    }

    fn check(&mut self, hier: &mut Hierarchy) {
        if !self.done && hier.stats.instructions >= self.threshold {
            self.done = true;
            hier.stats = SimStats::default();
            self.base = hier.now;
        }
    }
}

/// What the CPU resumes with after an I-fetch fill.
#[derive(Debug, Clone, Copy)]
enum PendingExec {
    Compute { left: u32 },
    Load(Addr),
    Store(Addr),
}

/// The CPU's blocking state machine.
#[derive(Debug, Clone, Copy)]
enum CpuState {
    /// Fetch the next trace event.
    NeedOp,
    /// Executing a run of non-memory instructions.
    Computing { left: u32, fetched: bool },
    /// Executing a load's L1-probe cycle.
    LoadExec { addr: Addr, fetched: bool },
    /// A store is (re)trying to enter the write buffer.
    StoreTry { addr: Addr },
    /// Handling a load hazard: waiting out an underway retirement, then
    /// issuing the machine's flush plan entry by entry, `next` first.
    HazardWait {
        addr: Addr,
        next: usize,
        flushing: Option<Pending>,
    },
    /// A load (or a write-back store allocate) miss wants the L2 port.
    LoadPortWait {
        addr: Addr,
        merge_wb: bool,
        for_store: bool,
    },
    /// The L2 (and possibly main-memory) read is in flight.
    LoadReading {
        addr: Addr,
        merge_wb: bool,
        for_store: bool,
        done_at: Cycle,
        miss: bool,
    },
    /// A write-back fill is blocked: its dirty victim needs a free victim-
    /// buffer entry. The already-fetched line waits in the hierarchy's
    /// line buffer.
    VictimWait {
        addr: Addr,
        merge_wb: bool,
        for_store: bool,
    },
    /// A barrier's own 1-cycle execution slot.
    BarrierExec,
    /// A barrier draining the write buffer (retirement forced to the
    /// maximum rate until the buffer empties).
    BarrierDrain,
    /// An I-cache miss wants the L2 port.
    IFetchWait { next: PendingExec },
    /// An I-cache fill is in flight.
    IFetchRead { done_at: Cycle, next: PendingExec },
    /// The trace is exhausted.
    Finished,
}

/// The simulated machine. Build one with [`Machine::new`], then drive it
/// with [`Machine::run`] (or [`SimMachine::run_observed`] to receive the
/// structured event stream). `Clone` forks the complete machine state —
/// the model checkers fork a machine at every explored state and step
/// each copy independently. `clone_from` reuses the target's buffers and
/// maps, so a fork at an op boundary over a perfect L2 into a machine of
/// the same configuration allocates nothing.
#[derive(Debug)]
pub struct Machine {
    hier: Hierarchy,
    icache: Icache,
    cpu: CpuState,
    /// The flush plan of the load hazard `CpuState::HazardWait` handles:
    /// one buffer, refilled by every hazard.
    plan: Vec<EntryId>,
}

wbsim_types::clone_fields!(Machine {
    hier,
    icache,
    cpu,
    plan
});

/// One outstanding miss-status-holding register as [`crate::StateView`]
/// reads it, relative to `now`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MshrSnapshot {
    /// The outstanding line address.
    pub line: u64,
    /// Cycles until the fill completes (`None` while still queued for the
    /// L2 port).
    pub countdown: Option<u64>,
    /// Whether the issued read missed L2 (meaningless while queued).
    pub miss: bool,
}

impl Machine {
    /// Builds a machine from its configuration (I-cache seed 0).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any component configuration is invalid.
    pub fn new(cfg: MachineConfig) -> Result<Self, ConfigError> {
        Self::with_seed(cfg, 0)
    }

    /// Builds a machine, seeding the statistical I-cache model.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any component configuration is invalid.
    pub fn with_seed(cfg: MachineConfig, seed: u64) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let icache = Icache::new(&cfg.icache, seed)?;
        let hier = Hierarchy::new(cfg)?;
        Ok(Self {
            hier,
            icache,
            cpu: CpuState::NeedOp,
            plan: Vec::new(),
        })
    }

    /// Selects the run-loop [`Engine`] for subsequent run-to-boundary
    /// calls.
    pub fn set_engine(&mut self, engine: Engine) {
        self.hier.engine = engine;
    }

    /// Switches recording of the event-driven engine's claimed time jumps
    /// ([`SkipSpan`]s) on or off. Off by default; the refinement checker
    /// enables it to audit every claimed horizon.
    pub fn set_record_skips(&mut self, record: bool) {
        self.hier.record_skips = record;
    }

    /// Drains and returns the [`SkipSpan`]s recorded since the last call
    /// (empty unless [`Machine::set_record_skips`] enabled recording).
    pub fn take_skips(&mut self) -> Vec<SkipSpan> {
        std::mem::take(&mut self.hier.skip_log)
    }

    /// Runs the reference stream to completion and returns the statistics.
    /// The machine stays alive for post-run architectural queries
    /// ([`SimMachine::read_word_architectural`],
    /// [`SimMachine::wb_occupancy`]).
    ///
    /// # Panics
    ///
    /// Panics if `check_data` is enabled and a load observes a value other
    /// than the freshest store — which would be a simulator bug, never a
    /// property of a configuration.
    pub fn run<I>(&mut self, ops: I) -> SimStats
    where
        I: IntoIterator<Item = Op>,
    {
        self.run_with_warmup(ops, 0)
    }

    /// Like [`Machine::run`], but discards all statistics accumulated over
    /// the first `warmup_instructions` instructions. Warmup fills the
    /// caches so that short runs are not dominated by compulsory misses —
    /// standard trace-driven-simulation methodology (the paper's SPEC92
    /// runs are long enough not to need it).
    ///
    /// # Panics
    ///
    /// Panics on a data-freshness violation when `check_data` is enabled,
    /// as in [`Machine::run`].
    pub fn run_with_warmup<I>(&mut self, ops: I, warmup_instructions: u64) -> SimStats
    where
        I: IntoIterator<Item = Op>,
    {
        self.run_observed_with_warmup(ops, warmup_instructions, &mut NullObserver)
    }

    /// Runs the reference stream to completion under an [`Observer`]
    /// receiving the structured [`Event`] stream, with the warmup
    /// semantics of [`Machine::run_with_warmup`]. The observer sees the
    /// *entire* run, warmup included — only the returned statistics are
    /// reset. [`SimMachine::run_observed`] is this with no warmup (the
    /// differential oracle needs every cycle accounted).
    ///
    /// # Panics
    ///
    /// Panics on a data-freshness violation when `check_data` is enabled,
    /// as in [`Machine::run`]. Differential harnesses should disable
    /// `check_data` and compare against their own model instead.
    pub fn run_observed_with_warmup<I, O>(
        &mut self,
        ops: I,
        warmup_instructions: u64,
        obs: &mut O,
    ) -> SimStats
    where
        I: IntoIterator<Item = Op>,
        O: Observer,
    {
        self.run_loop(&mut ops.into_iter(), warmup_instructions, u64::MAX, obs);
        self.hier.stats
    }

    /// Runs an [`L1Fold`]'s shorter stream with the fold's warmup and
    /// returns the statistics the unfolded stream gives, bit for bit: the
    /// folded hits are restored into `loads` and `l1_load_hits`. The
    /// machine must be fresh, and its configuration [`foldable`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not foldable under a no-op
    /// observer, the fold was made for another L1 shape, or the machine
    /// has already run.
    pub fn run_fold(&mut self, fold: &L1Fold) -> SimStats {
        assert!(
            foldable::<NullObserver>(&self.hier.cfg),
            "this configuration is not foldable"
        );
        assert!(
            fold.fits(&self.hier.cfg),
            "the fold was made for another L1"
        );
        self.run_fold_unchecked(fold)
    }

    /// [`Machine::run_fold`] without the eligibility checks, for tests
    /// that show what a fold does to an ineligible configuration.
    pub(crate) fn run_fold_unchecked(&mut self, fold: &L1Fold) -> SimStats {
        assert_eq!(
            self.hier.now, 0,
            "a fold replays a run from a fresh machine"
        );
        self.run_loop(
            &mut fold.ops().iter().copied(),
            fold.warmup(),
            u64::MAX,
            &mut NullObserver,
        );
        self.hier.stats.loads += fold.carried_hits();
        self.hier.stats.l1_load_hits += fold.carried_hits();
        self.hier.stats
    }

    /// The one run loop, behind every run-to-boundary entry point: steps
    /// the machine under the selected [`Engine`] — with span jumps and the
    /// op fast lane under [`Engine::EventDriven`] — until the CPU is ready
    /// for an op `iter` no longer has, and finalizes `cycles` (counted
    /// from the warmup reset). Returns the landing timestamp, or `None`
    /// once `deadline` is reached first, with the machine left mid-op.
    fn run_loop<I, O>(
        &mut self,
        iter: &mut I,
        warmup_instructions: u64,
        deadline: Cycle,
        obs: &mut O,
    ) -> Option<u64>
    where
        I: Iterator<Item = Op>,
        O: Observer,
    {
        let fast = self.hier.engine == Engine::EventDriven;
        let lane = fast && self.icache.is_perfect();
        let mut it = PushBack {
            slot: None,
            inner: iter,
        };
        let mut warm = Warmup::new(warmup_instructions);
        loop {
            if fast {
                self.try_skip(obs);
                if lane && matches!(self.cpu, CpuState::NeedOp) {
                    self.fast_ops(&mut it, &mut warm, obs);
                    if !matches!(self.cpu, CpuState::NeedOp) {
                        // The lane parked the CPU in a wait state (e.g. a
                        // store spinning on a full buffer): let `try_skip`
                        // jump the span before the next reference step.
                        if self.hier.now >= deadline {
                            return None;
                        }
                        continue;
                    }
                }
            }
            if !SimMachine::step(self, &mut it, obs) {
                break;
            }
            warm.check(&mut self.hier);
            if self.hier.now >= deadline {
                return None;
            }
        }
        self.hier.stats.cycles = self.hier.now - warm.base;
        Some(self.hier.now)
    }

    /// The cycle-opening retirement work, before the CPU acts: completing
    /// a due retirement transaction and, under write-priority, starting
    /// one ahead of the CPU.
    fn open_cycle<O: Observer>(&mut self, obs: &mut O) {
        self.hier.complete_retirement(obs);
        if self.write_priority_active() {
            self.wb_try_retire(obs);
        }
    }

    /// The cycle-closing work, after the CPU acts: the autonomous
    /// retirement attempt (none runs during a hazard), then the datapath's
    /// [`Hierarchy::close_cycle`].
    fn close_cycle<O: Observer>(&mut self, obs: &mut O) {
        if !matches!(self.cpu, CpuState::HazardWait { .. }) {
            self.wb_try_retire(obs);
        }
        self.hier.close_cycle(false, obs);
    }

    /// The event-driven engine's op-grained fast lane. From an op
    /// boundary, executes the ops whose entire per-cycle behavior it can
    /// reproduce exactly — hit loads, accepted (or newly stalled) stores,
    /// and compute runs, each executed cycle opened and closed as
    /// [`SimMachine::step`] opens and closes it — and returns as soon as
    /// an op needs the reference path (pushing it back for `step` to
    /// consume), the CPU enters a wait state, or the stream ends.
    ///
    /// Compute runs additionally batch the cycles *between* retirement
    /// events: within such a span the buffer occupancy is constant and
    /// both per-cycle retirement calls are no-ops, so the span is one
    /// [`Hierarchy::jump`]. Requires a perfect I-cache — a statistical
    /// front end draws from its RNG every issue cycle — which the caller
    /// guarantees.
    fn fast_ops<I, O>(&mut self, it: &mut PushBack<'_, I>, warm: &mut Warmup, obs: &mut O)
    where
        I: Iterator<Item = Op>,
        O: Observer,
    {
        let w = u64::from(self.hier.cfg.issue_width);
        // Under write-priority a retirement can start at a cycle's *open*
        // whenever occupancy sits at the threshold, which
        // `retire_start_candidate` does not model; compute runs then fall
        // back to strict single-cycle execution inside the lane.
        let batch = self.hier.cfg.write_buffer.priority == L2Priority::ReadBypass;
        loop {
            debug_assert!(matches!(self.cpu, CpuState::NeedOp), "fast lane mid-op");
            let Some(op) = it.next() else {
                return;
            };
            match op {
                Op::Compute(0) => {
                    // Zero-width op: consumes no cycle and counts nothing
                    // (`cpu_step` folds it away inside the issuing cycle).
                }
                Op::Compute(n) => {
                    self.hier.stats.instructions += u64::from(n);
                    // The issue cycle is the run's first execute cycle; it
                    // is the only cycle of the op that can cross the
                    // warmup threshold.
                    self.open_cycle(obs);
                    let mut left = u64::from(n).saturating_sub(w);
                    self.close_cycle(obs);
                    warm.check(&mut self.hier);
                    while left > 0 {
                        let now = self.hier.now;
                        let event = if let Some(p) = self.hier.wb_retire {
                            Some(p.done_at)
                        } else if batch {
                            self.hier.retire_start_candidate(false)
                        } else {
                            Some(now)
                        };
                        let k = match event {
                            // A retirement completes or may start this
                            // cycle: run it exactly.
                            Some(t) if t <= now => {
                                self.open_cycle(obs);
                                self.close_cycle(obs);
                                1
                            }
                            // Nothing can happen before `event`: batch the
                            // span in one jump.
                            event => {
                                let k = left.div_ceil(w).min(event.map_or(u64::MAX, |t| t - now));
                                self.hier.jump(now + k, SkipTick::Nothing, false, true, obs)
                            }
                        };
                        left = left.saturating_sub(k * w);
                    }
                }
                Op::Load(addr) => {
                    self.open_cycle(obs);
                    if self.hier.probe_load_fast(addr, obs).is_none() {
                        // Miss or hazard: replay the whole cycle through
                        // the reference path. The failed probe mutated
                        // nothing, and the cycle-opening retirement work
                        // already done is idempotent within the cycle.
                        it.slot = Some(op);
                        return;
                    }
                    self.hier.stats.loads += 1;
                    self.hier.stats.instructions += 1;
                    self.close_cycle(obs);
                    warm.check(&mut self.hier);
                }
                Op::Store(addr) => {
                    self.open_cycle(obs);
                    if self.hier.cfg.l1.write_policy == L1WritePolicy::WriteBack {
                        if !self.hier.l1_store_hit(addr) {
                            // Write-allocate miss: replay through the
                            // reference path (the failed probe mutated
                            // nothing).
                            it.slot = Some(op);
                            return;
                        }
                    } else if !self.hier.try_store(addr, obs) {
                        // `try_store` charged this cycle's buffer-full
                        // stall; park the CPU retrying the store and let
                        // `try_skip` jump the rest of the span.
                        self.cpu = CpuState::StoreTry { addr };
                    }
                    self.hier.stats.stores += 1;
                    self.hier.stats.instructions += 1;
                    self.close_cycle(obs);
                    warm.check(&mut self.hier);
                    if !matches!(self.cpu, CpuState::NeedOp) {
                        return;
                    }
                }
                Op::Barrier => {
                    it.slot = Some(op);
                    return;
                }
            }
        }
    }
    /// Classifies the CPU's current state as a pure wait, returning the
    /// per-cycle statistics tick, the cycle at which the wait itself ends
    /// (`u64::MAX` when only external events can end it), whether the
    /// cycle-closing retirement attempts run in this state, and whether
    /// they run with barrier-drain semantics. Returns `None` for any state
    /// in which the next cycle does real work.
    ///
    /// A *pure wait* cycle repeats the CPU state exactly: the reference
    /// engine's `step` would only record one statistics tick, emit the
    /// tick's event (if any) plus [`Event::CycleEnd`], and advance `now`.
    /// The returned deadline, together with the span bounds `try_skip`
    /// adds (retirement completion, predicted retirement start), is the
    /// first cycle at which anything else can happen.
    fn classify_wait(&self) -> Option<(SkipTick, Cycle, bool, bool)> {
        use wbsim_types::stall::StallKind;
        const INF: Cycle = u64::MAX;
        let now = self.hier.now;
        match &self.cpu {
            // Batched compute: each cycle consumes `issue_width`
            // instructions and nothing else varies. Only with a perfect
            // I-cache — a statistical front end draws from its RNG every
            // executed cycle.
            CpuState::Computing { left, .. } if *left > 0 && self.icache.is_perfect() => {
                let w = u64::from(self.hier.cfg.issue_width);
                Some((
                    SkipTick::Nothing,
                    now + u64::from(*left).div_ceil(w),
                    true,
                    false,
                ))
            }
            // A write-through store spinning on a full buffer. (Under a
            // write-back L1 the StoreTry cycle does real work.)
            CpuState::StoreTry { addr }
                if self.hier.cfg.l1.write_policy != L1WritePolicy::WriteBack
                    && !self.hier.wb.can_accept(*addr) =>
            {
                Some((SkipTick::Stall(StallKind::BufferFull), INF, true, false))
            }
            // Waiting out a flush transaction we issued ourselves. No
            // retirement activity of any kind runs during a hazard.
            CpuState::HazardWait {
                flushing: Some(p), ..
            } if now < p.done_at => Some((
                SkipTick::Stall(StallKind::LoadHazard),
                p.done_at,
                false,
                false,
            )),
            // Waiting for the underway autonomous retirement before the
            // flush plan may start.
            CpuState::HazardWait { flushing: None, .. } => self.hier.wb_retire.map(|p| {
                (
                    SkipTick::Stall(StallKind::LoadHazard),
                    p.done_at,
                    false,
                    false,
                )
            }),
            // A load miss waiting for an underway write to release the
            // port (the port's free time and the write's completion
            // coincide).
            CpuState::LoadPortWait { .. } if !self.hier.port.is_free(now) => Some((
                SkipTick::Stall(StallKind::L2ReadAccess),
                self.hier.port.free_at(),
                true,
                false,
            )),
            // The load's own L2/memory read in flight. The port frees
            // after the L2-latency portion, so retirements may start
            // mid-span (§4.2) — the retirement-start bound handles it.
            CpuState::LoadReading { done_at, .. } if now < *done_at => {
                Some((SkipTick::MissWait, *done_at, true, false))
            }
            // A write-back fill blocked on victim-buffer space; only a
            // retirement completing (freeing an entry) or starting
            // (consuming the reusable match) changes the answer.
            CpuState::VictimWait { addr, .. }
                if self.hier.victim_blocked(self.hier.g.line_of(*addr)) =>
            {
                Some((SkipTick::Stall(StallKind::BufferFull), INF, true, false))
            }
            // A barrier draining the buffer at the maximum rate.
            CpuState::BarrierDrain
                if self.hier.wb.occupancy() > 0 || self.hier.wb_retire.is_some() =>
            {
                Some((SkipTick::BarrierStall, INF, true, true))
            }
            // An I-fetch waiting for the port.
            CpuState::IFetchWait { .. } if !self.hier.port.is_free(now) => {
                Some((SkipTick::IFetchStall, self.hier.port.free_at(), true, false))
            }
            // An I-cache fill in flight.
            CpuState::IFetchRead { done_at, .. } if now < *done_at => {
                Some((SkipTick::Nothing, *done_at, true, false))
            }
            _ => None,
        }
    }

    /// The event-driven jump: if the machine sits in a pure-wait state,
    /// [`Hierarchy::jump`]s to the next cycle at which anything can
    /// happen. A no-op (leaving the next `step` to run normally) whenever
    /// the current cycle does real work.
    fn try_skip<O: Observer>(&mut self, obs: &mut O) {
        let Some((tick, deadline, retire_allowed, barrier)) = self.classify_wait() else {
            return;
        };
        let mut bound = deadline;
        if let Some(p) = self.hier.wb_retire {
            bound = bound.min(p.done_at);
        }
        if retire_allowed {
            if let Some(t) = self.hier.retire_start_candidate(barrier) {
                bound = bound.min(t);
            }
        }
        let k = self.hier.jump(bound, tick, false, false, obs);
        if let CpuState::Computing { left, .. } = &mut self.cpu {
            // The batch consumed `issue_width` instructions per cycle;
            // the final (possibly partial) chunk saturates to zero. A
            // batched run sits behind a perfect I-cache, so it has no
            // fetch to redo.
            let w = u64::from(self.hier.cfg.issue_width);
            *left = u64::from(*left).saturating_sub(k * w) as u32;
        }
    }

    /// The current simulation timestamp: how many cycles have elapsed since
    /// the machine was constructed.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.hier.now
    }

    /// Whether the CPU sits at an op boundary: the previous op (if any)
    /// has fully completed and no instruction is mid-flight. Autonomous
    /// write-buffer retirements may still be underway.
    fn at_op_boundary(&self) -> bool {
        matches!(self.cpu, CpuState::NeedOp | CpuState::Finished)
    }

    /// Resumes a machine whose stream ran dry at its op boundary: the
    /// next `step` fetches an op instead of reporting the end.
    fn resume(&mut self) {
        if matches!(self.cpu, CpuState::Finished) {
            self.cpu = CpuState::NeedOp;
        }
    }

    /// Simulates the paper's implicit lower bound: "a perfect buffer that
    /// never overflows and never delays loads" (§2.3). Stores complete in
    /// one cycle and reach L2 instantly; loads never contend for the port
    /// and never hazard. Cache *contents* evolve exactly as in a real run,
    /// so `cycles(real) - cycles(ideal)` equals the total write-buffer
    /// stall cycles for flush-based hazard policies over a perfect L2.
    pub fn run_ideal<I>(&mut self, ops: I) -> SimStats
    where
        I: IntoIterator<Item = Op>,
    {
        self.run_ideal_with_warmup(ops, 0)
    }

    /// [`Machine::run_ideal`] with the warmup semantics of
    /// [`Machine::run_with_warmup`].
    pub fn run_ideal_with_warmup<I>(&mut self, ops: I, warmup_instructions: u64) -> SimStats
    where
        I: IntoIterator<Item = Op>,
    {
        use wbsim_types::addr::WordMask;
        let check = self.hier.cfg.check_data;
        let mut warm = warmup_instructions == 0;
        let mut cycle_base: u64 = 0;
        let mut cycles: u64 = 0;
        for op in ops {
            if !warm && self.hier.stats.instructions >= warmup_instructions {
                warm = true;
                self.hier.stats = SimStats::default();
                cycle_base = cycles;
            }
            self.hier.stats.instructions += op.instructions();
            match op {
                Op::Compute(n) => {
                    let w = self.hier.cfg.issue_width;
                    cycles += u64::from(n.div_ceil(w));
                    if !self.icache.is_perfect() {
                        for _ in 0..n {
                            if self.icache.fetch() {
                                self.hier.stats.icache_misses += 1;
                                self.hier.stats.l2_reads += 1;
                                cycles += self.hier.read_time;
                            }
                        }
                    }
                }
                Op::Barrier => {
                    // The ideal buffer is always empty: a barrier costs its
                    // own cycle and never stalls.
                    self.hier.stats.barriers += 1;
                    cycles += 1;
                }
                Op::Store(addr) => {
                    self.hier.stats.stores += 1;
                    cycles += self.ifetch_cost();
                    cycles += 1;
                    let line = self.hier.g.line_of(addr);
                    let word = self.hier.g.word_index(addr);
                    if self.hier.cfg.l1.write_policy == L1WritePolicy::WriteBack {
                        self.hier.store_seq += 1;
                        let v = self.hier.store_seq;
                        if self.hier.l1.store_word_dirty(line, word, v) {
                            self.hier.stats.l1_store_hits += 1;
                        } else {
                            // Write-allocate fetch, charged to the miss.
                            let miss = !self.hier.l2.contains(line);
                            cycles +=
                                self.hier.read_time + if miss { self.hier.mm_latency } else { 0 };
                            self.hier.stats.l2_reads += 1;
                            self.ideal_fill(line, word, miss);
                            self.hier.l1.store_word_dirty(line, word, v);
                        }
                        if check {
                            self.hier.shadow.insert(self.hier.g.word_addr(addr), v);
                        }
                        continue;
                    }
                    self.hier.store_seq += 1;
                    let v = self.hier.store_seq;
                    if self.hier.l1.store_word(line, word, v) {
                        self.hier.stats.l1_store_hits += 1;
                    }
                    let mut mask = WordMask::empty();
                    mask.set(word);
                    self.hier.line_buf[word] = v;
                    let out = self.hier.l2.write_line_masked(
                        &self.hier.g,
                        line,
                        mask,
                        &self.hier.line_buf,
                        &mut self.hier.mem,
                    );
                    if let Some(ev) = out.evicted {
                        if self.hier.l1.invalidate(ev) {
                            self.hier.stats.inclusion_invalidations += 1;
                        }
                    }
                    if check {
                        self.hier.shadow.insert(self.hier.g.word_addr(addr), v);
                    }
                }
                Op::Load(addr) => {
                    self.hier.stats.loads += 1;
                    cycles += self.ifetch_cost();
                    cycles += 1;
                    let line = self.hier.g.line_of(addr);
                    let word = self.hier.g.word_index(addr);
                    let value = if let Some(v) = self.hier.l1.load_word(line, word) {
                        self.hier.stats.l1_load_hits += 1;
                        v
                    } else {
                        let miss = !self.hier.l2.contains(line);
                        cycles += self.hier.read_time + if miss { self.hier.mm_latency } else { 0 };
                        self.hier.stats.l2_reads += 1;
                        self.ideal_fill(line, word, miss)
                    };
                    if check {
                        let expect = self
                            .hier
                            .shadow
                            .get(&self.hier.g.word_addr(addr))
                            .copied()
                            .unwrap_or(0);
                        assert_eq!(
                            value, expect,
                            "ideal-mode load of {addr:#x} observed stale data"
                        );
                    }
                }
            }
        }
        self.hier.stats.cycles = cycles - cycle_base;
        self.hier.stats
    }

    /// Ideal-mode structural fill: read L2, apply inclusion, install into
    /// L1 (writing a dirty victim straight to L2 under write-back), and
    /// return word `word` of the line.
    fn ideal_fill(&mut self, line: LineAddr, word: usize, timed_miss: bool) -> u64 {
        use wbsim_types::addr::WordMask;
        let out = self
            .hier
            .l2
            .read_line(&self.hier.g, line, &mut self.hier.mem);
        self.hier.line_buf.copy_from_slice(out.data);
        if out.miss {
            self.hier.stats.l2_read_misses += 1;
        }
        if timed_miss {
            self.hier.stats.mm_accesses += 1;
        }
        if out.wrote_back {
            self.hier.stats.mm_accesses += 1;
        }
        if let Some(ev) = out.evicted {
            if self.hier.l1.invalidate(ev) {
                self.hier.stats.inclusion_invalidations += 1;
            }
        }
        let value = self.hier.line_buf[word];
        if self.hier.cfg.l1.write_policy == L1WritePolicy::WriteBack {
            // A dirty victim's words come back in `line_buf`.
            if let Some(vline) = self.hier.l1.fill_with_victim(line, &mut self.hier.line_buf) {
                let w = self.hier.l2.write_line_masked(
                    &self.hier.g,
                    vline,
                    WordMask::full(self.hier.g.words_per_line()),
                    &self.hier.line_buf,
                    &mut self.hier.mem,
                );
                if w.wrote_back {
                    self.hier.stats.mm_accesses += 1;
                }
                if let Some(ev) = w.evicted {
                    if self.hier.l1.invalidate(ev) {
                        self.hier.stats.inclusion_invalidations += 1;
                    }
                }
            }
        } else {
            self.hier.l1.fill(line, &self.hier.line_buf);
        }
        value
    }

    fn ifetch_cost(&mut self) -> u64 {
        if self.icache.is_perfect() {
            0
        } else if self.icache.fetch() {
            self.hier.stats.icache_misses += 1;
            self.hier.stats.l2_reads += 1;
            self.hier.read_time
        } else {
            0
        }
    }

    fn write_priority_active(&self) -> bool {
        match self.hier.cfg.write_buffer.priority {
            L2Priority::ReadBypass => false,
            L2Priority::WritePriorityAbove(th) => {
                self.hier.wb.occupancy() >= th && !matches!(self.cpu, CpuState::HazardWait { .. })
            }
        }
    }

    fn wb_try_retire<O: Observer>(&mut self, obs: &mut O) {
        // A barrier drains the buffer at the maximum possible rate,
        // regardless of the configured policy.
        let barrier_drain = matches!(self.cpu, CpuState::BarrierDrain);
        self.hier.wb_try_retire(barrier_drain, obs);
    }

    /// Advances the CPU by one cycle. Returns `false` when the trace is
    /// exhausted (that cycle is not consumed).
    fn cpu_step<I, O>(&mut self, iter: &mut I, obs: &mut O) -> bool
    where
        I: Iterator<Item = Op>,
        O: Observer,
    {
        loop {
            match std::mem::replace(&mut self.cpu, CpuState::NeedOp) {
                CpuState::NeedOp => match iter.next() {
                    None => {
                        self.cpu = CpuState::Finished;
                        return false;
                    }
                    Some(op) => {
                        self.hier.stats.instructions += op.instructions();
                        match op {
                            Op::Compute(n) => {
                                self.cpu = CpuState::Computing {
                                    left: n,
                                    fetched: false,
                                };
                            }
                            Op::Load(addr) => {
                                self.hier.stats.loads += 1;
                                self.cpu = CpuState::LoadExec {
                                    addr,
                                    fetched: false,
                                };
                            }
                            Op::Store(addr) => {
                                self.hier.stats.stores += 1;
                                if self.fetch_misses() {
                                    self.cpu = CpuState::IFetchWait {
                                        next: PendingExec::Store(addr),
                                    };
                                } else {
                                    self.cpu = CpuState::StoreTry { addr };
                                }
                            }
                            Op::Barrier => {
                                self.hier.stats.barriers += 1;
                                self.cpu = CpuState::BarrierExec;
                            }
                        }
                    }
                },
                CpuState::Computing { left, fetched } => {
                    if left == 0 {
                        self.cpu = CpuState::NeedOp;
                        continue;
                    }
                    if !fetched && self.fetch_misses() {
                        self.cpu = CpuState::IFetchWait {
                            next: PendingExec::Compute { left },
                        };
                        continue;
                    }
                    // A superscalar front end completes up to `issue_width`
                    // non-memory instructions per cycle (§4.3).
                    let step = self.hier.cfg.issue_width.min(left);
                    self.cpu = CpuState::Computing {
                        left: left - step,
                        fetched: false,
                    };
                    return true;
                }
                CpuState::LoadExec { addr, fetched } => {
                    if !fetched && self.fetch_misses() {
                        self.cpu = CpuState::IFetchWait {
                            next: PendingExec::Load(addr),
                        };
                        continue;
                    }
                    self.exec_load_probe(addr, obs);
                    return true;
                }
                CpuState::StoreTry { addr } => {
                    if self.hier.cfg.l1.write_policy == L1WritePolicy::WriteBack {
                        if !self.hier.l1_store_hit(addr) {
                            // Write-allocate: fetch the line like a load
                            // miss (the fetch is charged to the miss), then
                            // perform the store at fill time. The line may
                            // be sitting in the victim buffer awaiting
                            // write-back — the fill must merge those words
                            // or it would install stale L2 data.
                            let merge_wb = self.hier.wb.has_line(self.hier.g.line_of(addr));
                            self.cpu = CpuState::LoadPortWait {
                                addr,
                                merge_wb,
                                for_store: true,
                            };
                        }
                    } else if !self.hier.try_store(addr, obs) {
                        self.cpu = CpuState::StoreTry { addr };
                    }
                    return true;
                }
                CpuState::HazardWait {
                    addr,
                    next,
                    flushing,
                } => {
                    if let Some(p) = flushing {
                        if self.hier.now >= p.done_at {
                            self.hier.write_entry_to_l2(p.id, true, obs);
                            self.cpu = CpuState::HazardWait {
                                addr,
                                next,
                                flushing: None,
                            };
                            continue;
                        }
                        self.hier
                            .stall(wbsim_types::stall::StallKind::LoadHazard, obs);
                        self.cpu = CpuState::HazardWait {
                            addr,
                            next,
                            flushing: Some(p),
                        };
                        return true;
                    }
                    if self.hier.wb_retire.is_some() {
                        // An underway retirement completes first (§2.2).
                        self.hier
                            .stall(wbsim_types::stall::StallKind::LoadHazard, obs);
                        self.cpu = CpuState::HazardWait {
                            addr,
                            next,
                            flushing: None,
                        };
                        return true;
                    }
                    if let Some(&id) = self.plan.get(next) {
                        let began = self.hier.wb.begin_retire(id);
                        debug_assert!(began, "flush plan entry vanished");
                        let done_at = self.hier.port.acquire(
                            PortOwner::WbWrite(id),
                            self.hier.now,
                            self.hier.write_time,
                        );
                        obs.event(&Event::RetireStart {
                            now: self.hier.now,
                            id,
                            flush: true,
                        });
                        obs.event(&Event::PortGranted {
                            now: self.hier.now,
                            owner: PortUse::WbWrite,
                            until: done_at,
                        });
                        self.hier
                            .stall(wbsim_types::stall::StallKind::LoadHazard, obs);
                        self.cpu = CpuState::HazardWait {
                            addr,
                            next: next + 1,
                            flushing: Some(Pending { id, done_at }),
                        };
                        return true;
                    }
                    // Hazard fully handled; the load's own read follows and
                    // is charged to the miss.
                    self.cpu = CpuState::LoadPortWait {
                        addr,
                        merge_wb: false,
                        for_store: false,
                    };
                    continue;
                }
                CpuState::LoadPortWait {
                    addr,
                    merge_wb,
                    for_store,
                } => {
                    if self.hier.port.is_free(self.hier.now) {
                        let line = self.hier.g.line_of(addr);
                        let miss = !self.hier.l2.contains(line);
                        let until = self.hier.port.acquire(
                            PortOwner::CpuRead,
                            self.hier.now,
                            self.hier.read_time,
                        );
                        obs.event(&Event::PortGranted {
                            now: self.hier.now,
                            owner: PortUse::CpuRead,
                            until,
                        });
                        self.hier.stats.l2_reads += 1;
                        if miss {
                            self.hier.stats.l2_read_misses += 1;
                        }
                        let done_at = self.hier.now
                            + self.hier.read_time
                            + if miss { self.hier.mm_latency } else { 0 };
                        self.hier.stats.miss_wait_cycles += 1;
                        self.cpu = CpuState::LoadReading {
                            addr,
                            merge_wb,
                            for_store,
                            done_at,
                            miss,
                        };
                        return true;
                    }
                    debug_assert!(self.hier.port.busy_with_write(self.hier.now));
                    self.hier
                        .stall(wbsim_types::stall::StallKind::L2ReadAccess, obs);
                    self.cpu = CpuState::LoadPortWait {
                        addr,
                        merge_wb,
                        for_store,
                    };
                    return true;
                }
                CpuState::LoadReading {
                    addr,
                    merge_wb,
                    for_store,
                    done_at,
                    miss,
                } => {
                    if self.hier.now < done_at {
                        self.hier.stats.miss_wait_cycles += 1;
                        self.cpu = CpuState::LoadReading {
                            addr,
                            merge_wb,
                            for_store,
                            done_at,
                            miss,
                        };
                        return true;
                    }
                    let line = self.hier.g.line_of(addr);
                    self.hier.read_line_structural(line, merge_wb, miss);
                    if self.hier.victim_blocked(line) {
                        self.cpu = CpuState::VictimWait {
                            addr,
                            merge_wb,
                            for_store,
                        };
                        continue;
                    }
                    self.hier.install_fill(addr, for_store, merge_wb, obs);
                    self.cpu = CpuState::NeedOp;
                    continue;
                }
                CpuState::VictimWait {
                    addr,
                    merge_wb,
                    for_store,
                } => {
                    if self.hier.victim_blocked(self.hier.g.line_of(addr)) {
                        self.hier
                            .stall(wbsim_types::stall::StallKind::BufferFull, obs);
                        self.cpu = CpuState::VictimWait {
                            addr,
                            merge_wb,
                            for_store,
                        };
                        return true;
                    }
                    self.hier.install_fill(addr, for_store, merge_wb, obs);
                    self.cpu = CpuState::NeedOp;
                    continue;
                }
                CpuState::BarrierExec => {
                    // The barrier instruction itself takes one cycle.
                    self.cpu = CpuState::BarrierDrain;
                    return true;
                }
                CpuState::BarrierDrain => {
                    if self.hier.wb.occupancy() == 0 && self.hier.wb_retire.is_none() {
                        self.cpu = CpuState::NeedOp;
                        continue;
                    }
                    // Drain cycles: `wb_try_retire` forces retirement at
                    // the maximum rate while we sit here.
                    self.hier.stats.barrier_stall_cycles += 1;
                    self.cpu = CpuState::BarrierDrain;
                    return true;
                }
                CpuState::IFetchWait { next } => {
                    if self.hier.port.is_free(self.hier.now) {
                        let until = self.hier.port.acquire(
                            PortOwner::IFetch,
                            self.hier.now,
                            self.hier.read_time,
                        );
                        obs.event(&Event::PortGranted {
                            now: self.hier.now,
                            owner: PortUse::IFetch,
                            until,
                        });
                        self.hier.stats.l2_reads += 1;
                        self.cpu = CpuState::IFetchRead {
                            done_at: self.hier.now + self.hier.read_time,
                            next,
                        };
                        return true;
                    }
                    self.hier.stats.ifetch_stall_cycles += 1;
                    self.cpu = CpuState::IFetchWait { next };
                    return true;
                }
                CpuState::IFetchRead { done_at, next } => {
                    if self.hier.now < done_at {
                        self.cpu = CpuState::IFetchRead { done_at, next };
                        return true;
                    }
                    self.cpu = match next {
                        PendingExec::Compute { left } => CpuState::Computing {
                            left,
                            fetched: true,
                        },
                        PendingExec::Load(addr) => CpuState::LoadExec {
                            addr,
                            fetched: true,
                        },
                        PendingExec::Store(addr) => CpuState::StoreTry { addr },
                    };
                    continue;
                }
                CpuState::Finished => {
                    self.cpu = CpuState::Finished;
                    return false;
                }
            }
        }
    }

    fn fetch_misses(&mut self) -> bool {
        if self.icache.is_perfect() {
            false
        } else if self.icache.fetch() {
            self.hier.stats.icache_misses += 1;
            true
        } else {
            false
        }
    }

    /// The load's L1-probe cycle: classify as hit, write-buffer hit,
    /// hazard, or clean miss, and transition accordingly.
    fn exec_load_probe<O: Observer>(&mut self, addr: Addr, obs: &mut O) {
        if self.hier.probe_load_fast(addr, obs).is_some() {
            self.cpu = CpuState::NeedOp;
            return;
        }
        let line = self.hier.g.line_of(addr);
        let hazard = self.hier.cfg.write_buffer.hazard;
        if hazard == LoadHazardPolicy::ReadFromWb {
            let merge_wb = !self.hier.forwarding_fault() && self.hier.wb.has_line(line);
            if merge_wb {
                self.hier.stats.load_hazards += 1;
                self.hier.stats.hazard_word_misses += 1;
                obs.event(&Event::HazardTriggered {
                    now: self.hier.now,
                    addr,
                    policy: hazard,
                    flush_entries: 0,
                });
            }
            self.cpu = CpuState::LoadPortWait {
                addr,
                merge_wb,
                for_store: false,
            };
            return;
        }
        // Flush-based policies: a hazard fires whenever any portion of the
        // line is active in the buffer (§2.2).
        if self.hier.wb.has_line(line) {
            self.hier.stats.load_hazards += 1;
            self.hier.wb.flush_plan(hazard, line, &mut self.plan);
            obs.event(&Event::HazardTriggered {
                now: self.hier.now,
                addr,
                policy: hazard,
                flush_entries: self.plan.len() as u64,
            });
            self.cpu = CpuState::HazardWait {
                addr,
                next: 0,
                flushing: None,
            };
            return;
        }
        self.cpu = CpuState::LoadPortWait {
            addr,
            merge_wb: false,
            for_store: false,
        };
    }
}

impl SimMachine for Machine {
    fn build(cfg: MachineConfig, mshrs: Option<usize>) -> Result<Self, ConfigError> {
        match mshrs {
            None => Machine::new(cfg),
            Some(_) => Err(ConfigError::OutOfRange {
                what: "MSHR count",
                constraint: "the blocking machine has no MSHRs",
            }),
        }
    }

    fn run_observed<I, O>(&mut self, ops: I, obs: &mut O) -> SimStats
    where
        I: IntoIterator<Item = Op>,
        O: Observer,
    {
        self.run_observed_with_warmup(ops, 0, obs)
    }

    /// Retirement completion, optional write-priority retirement, one CPU
    /// step, autonomous retirement, and the closing [`Event::CycleEnd`].
    fn step<I, O>(&mut self, iter: &mut I, obs: &mut O) -> bool
    where
        I: Iterator<Item = Op>,
        O: Observer,
    {
        self.open_cycle(obs);
        if !self.cpu_step(iter, obs) {
            return false;
        }
        self.close_cycle(obs);
        true
    }

    /// [`SimMachine::step`] after resuming at the op boundary: the
    /// blocking machine's `step` already stops there once `iter` is dry.
    fn step_op<I, O>(&mut self, iter: &mut I, obs: &mut O) -> bool
    where
        I: Iterator<Item = Op>,
        O: Observer,
    {
        self.resume();
        SimMachine::step(self, iter, obs)
    }

    fn run_op_bounded<O: Observer>(&mut self, op: Op, max_cycles: u64, obs: &mut O) -> Option<u64> {
        debug_assert!(self.at_op_boundary(), "run_op_bounded mid-op");
        self.resume();
        let deadline = self.hier.now.saturating_add(max_cycles);
        self.run_loop(&mut std::iter::once(op), 0, deadline, obs)
    }

    fn run_to_end_bounded<O: Observer>(&mut self, max_cycles: u64, obs: &mut O) -> Option<u64> {
        let deadline = self.hier.now.saturating_add(max_cycles);
        self.run_loop(&mut std::iter::empty(), 0, deadline, obs)
    }

    /// Retirement runs at the maximum rate, as under a barrier.
    fn drain_step<O: Observer>(&mut self, obs: &mut O) -> bool {
        debug_assert!(
            matches!(
                self.cpu,
                CpuState::NeedOp | CpuState::Finished | CpuState::BarrierDrain
            ),
            "drain_step mid-op"
        );
        if self.hier.wb.occupancy() == 0 && self.hier.wb_retire.is_none() {
            return false;
        }
        self.cpu = CpuState::BarrierDrain;
        SimMachine::step(self, &mut std::iter::empty(), obs)
    }

    fn view(&self) -> StateView<'_> {
        StateView::new(&self.hier, &[], self.at_op_boundary())
    }

    fn mshr_lines(&self) -> impl Iterator<Item = LineAddr> + Clone + '_ {
        std::iter::empty()
    }

    fn now(&self) -> u64 {
        Machine::now(self)
    }

    fn stats(&self) -> &SimStats {
        &self.hier.stats
    }

    fn wb_occupancy(&self) -> usize {
        self.hier.wb.occupancy()
    }

    fn wb_victim_allocs(&self) -> u64 {
        self.hier.victim_inserts
    }

    fn read_word_architectural(&self, addr: Addr) -> u64 {
        self.hier.read_word_architectural(addr)
    }

    fn set_engine(&mut self, engine: Engine) {
        Machine::set_engine(self, engine);
    }

    fn set_record_skips(&mut self, record: bool) {
        Machine::set_record_skips(self, record);
    }

    fn skips(&self) -> &[SkipSpan] {
        &self.hier.skip_log
    }

    fn clear_skips(&mut self) {
        self.hier.skip_log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{a, run_baseline};
    use wbsim_types::config::{L2Config, WriteBufferConfig};
    use wbsim_types::policy::RetirementPolicy;
    use wbsim_types::stall::StallKind;

    #[test]
    fn empty_trace() {
        let s = run_baseline(vec![]);
        assert_eq!(s.cycles, 0);
        assert_eq!(s.instructions, 0);
    }

    #[test]
    fn compute_only_is_one_cycle_per_instruction() {
        let s = run_baseline(vec![Op::Compute(100)]);
        assert_eq!(s.cycles, 100);
        assert_eq!(s.instructions, 100);
        assert_eq!(s.stalls.total(), 0);
    }

    #[test]
    fn load_hit_takes_one_cycle() {
        // First load misses (7 cycles), second hits (1 cycle).
        let s = run_baseline(vec![Op::Load(a(1, 0)), Op::Load(a(1, 0))]);
        assert_eq!(s.cycles, 8);
        assert_eq!(s.l1_load_hits, 1);
        assert_eq!(s.loads, 2);
    }

    #[test]
    fn clean_load_miss_takes_seven_cycles() {
        let s = run_baseline(vec![Op::Load(a(1, 0))]);
        assert_eq!(s.cycles, 7, "1 + 6 (paper §2.1)");
        assert_eq!(s.miss_wait_cycles, 6);
        assert_eq!(s.stalls.total(), 0);
    }

    #[test]
    fn store_takes_one_cycle_when_buffer_has_room() {
        let s = run_baseline(vec![Op::Store(a(1, 0))]);
        assert_eq!(s.cycles, 1);
        assert_eq!(s.wb_allocations, 1);
        assert_eq!(s.stalls.total(), 0);
    }

    #[test]
    fn sequential_stores_coalesce_and_retire_lazily() {
        // 4 stores to one line: 1 allocation + 3 merges, occupancy never
        // reaches the retire-at-2 high-water mark, so no retirement starts.
        let s = run_baseline(vec![
            Op::Store(a(1, 0)),
            Op::Store(a(1, 1)),
            Op::Store(a(1, 2)),
            Op::Store(a(1, 3)),
        ]);
        assert_eq!(s.wb_allocations, 1);
        assert_eq!(s.wb_store_merges, 3);
        assert_eq!(s.wb_retirements, 0);
        assert_eq!(s.cycles, 4);
    }

    #[test]
    fn second_allocation_triggers_retire_at_2() {
        let s = run_baseline(vec![
            Op::Store(a(1, 0)),
            Op::Store(a(2, 0)),
            Op::Compute(20), // give the retirement time to finish
        ]);
        assert!(s.wb_retirements >= 1);
    }

    #[test]
    fn buffer_full_stalls_are_counted() {
        // Depth 4: five stores to distinct lines back-to-back must overflow.
        let ops: Vec<Op> = (0..6).map(|l| Op::Store(a(l, 0))).collect();
        let s = run_baseline(ops);
        assert!(
            s.stalls.get(StallKind::BufferFull) > 0,
            "expected buffer-full stalls, got {:?}",
            s.stalls
        );
    }

    #[test]
    fn load_hazard_flush_full_cost() {
        // Store to line 1, then immediately load it back: the line is not
        // in L1 (write-around), so the load misses L1 and hits the buffer.
        // flush-full flushes the single entry (6 cycles of load-hazard
        // stall), then the load reads L2 (6 cycles charged to the miss).
        let s = run_baseline(vec![Op::Store(a(1, 0)), Op::Load(a(1, 0))]);
        assert_eq!(s.load_hazards, 1);
        assert_eq!(s.stalls.get(StallKind::LoadHazard), 6);
        assert_eq!(s.wb_flushes, 1);
        // store 1 + probe 1 + flush 6 + read 6 = 14
        assert_eq!(s.cycles, 14);
    }

    #[test]
    fn read_from_wb_hit_costs_one_cycle() {
        let cfg = MachineConfig {
            write_buffer: WriteBufferConfig {
                hazard: LoadHazardPolicy::ReadFromWb,
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        };
        let s = Machine::new(cfg)
            .unwrap()
            .run(vec![Op::Store(a(1, 0)), Op::Load(a(1, 0))]);
        assert_eq!(s.wb_read_hits, 1);
        assert_eq!(s.stalls.get(StallKind::LoadHazard), 0);
        assert_eq!(s.cycles, 2, "store 1 + buffer-hit load 1");
    }

    #[test]
    fn read_from_wb_word_miss_merges_fill() {
        let cfg = MachineConfig {
            write_buffer: WriteBufferConfig {
                hazard: LoadHazardPolicy::ReadFromWb,
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        };
        // Store word 0 of line 1; load word 1 (line active, word invalid):
        // a normal L2 access merged with the buffer's valid words, then a
        // load of word 0 must hit L1 with the *buffered* value.
        let s = Machine::new(cfg).unwrap().run(vec![
            Op::Store(a(1, 0)),
            Op::Load(a(1, 1)),
            Op::Load(a(1, 0)), // L1 hit; stale unless the fill merged
        ]);
        assert_eq!(s.hazard_word_misses, 1);
        assert_eq!(s.l1_load_hits, 1);
        assert_eq!(s.stalls.get(StallKind::LoadHazard), 0);
    }

    #[test]
    fn l2_read_access_stall_when_retirement_underway() {
        // Two stores to distinct lines trigger a retirement (retire-at-2);
        // a load to a third line then contends with the underway write.
        let s = run_baseline(vec![
            Op::Store(a(1, 0)),
            Op::Store(a(2, 0)),
            Op::Load(a(3, 0)),
        ]);
        assert!(
            s.stalls.get(StallKind::L2ReadAccess) > 0,
            "expected L2-read-access stalls, got {:?}",
            s.stalls
        );
        assert_eq!(s.stalls.get(StallKind::LoadHazard), 0);
    }

    #[test]
    fn loads_never_observe_stale_data_basic() {
        // check_data is on by default: run a store/load interleaving that
        // exercises merge, flush and fill paths. A stale read panics.
        let mut ops = Vec::new();
        for i in 0..50u64 {
            ops.push(Op::Store(a(i % 6, i % 4)));
            if i % 3 == 0 {
                ops.push(Op::Load(a(i % 6, (i + 1) % 4)));
            }
        }
        let s = run_baseline(ops);
        assert!(s.loads > 0);
    }

    #[test]
    fn ideal_run_has_no_stalls() {
        let ops: Vec<Op> = (0..20).map(|l| Op::Store(a(l, 0))).collect();
        let s = Machine::new(MachineConfig::baseline())
            .unwrap()
            .run_ideal(ops);
        assert_eq!(s.stalls.total(), 0);
        assert_eq!(s.cycles, 20, "one cycle per store");
    }

    #[test]
    fn real_equals_ideal_plus_stalls_perfect_l2() {
        // The §2.3 identity, on a mixed workload with a flush policy.
        let mut ops = Vec::new();
        for i in 0..400u64 {
            ops.push(Op::Store(a(i * 7 % 300, i % 4)));
            ops.push(Op::Compute((i % 3) as u32));
            if i % 2 == 0 {
                ops.push(Op::Load(a(i * 13 % 300, i % 4)));
            }
        }
        let cfg = MachineConfig::baseline();
        let real = Machine::new(cfg.clone()).unwrap().run(ops.clone());
        let ideal = Machine::new(cfg).unwrap().run_ideal(ops);
        assert_eq!(real.cycles, ideal.cycles + real.stalls.total());
    }

    #[test]
    fn max_age_retires_lone_entry() {
        let cfg = MachineConfig {
            write_buffer: WriteBufferConfig {
                max_age: Some(64),
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        };
        let s = Machine::new(cfg).unwrap().run(vec![
            Op::Store(a(1, 0)),
            Op::Compute(200), // far beyond the 64-cycle age limit
        ]);
        assert_eq!(s.wb_retirements, 1, "age-based retirement of a lone entry");
    }

    #[test]
    fn no_max_age_keeps_lone_entry() {
        let s = run_baseline(vec![Op::Store(a(1, 0)), Op::Compute(200)]);
        assert_eq!(s.wb_retirements, 0);
    }

    #[test]
    fn fixed_rate_retirement_fires_periodically() {
        let cfg = MachineConfig {
            write_buffer: WriteBufferConfig {
                retirement: RetirementPolicy::FixedRate(10),
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        };
        let s = Machine::new(cfg).unwrap().run(vec![
            Op::Store(a(1, 0)),
            Op::Store(a(2, 0)),
            Op::Compute(100),
        ]);
        assert_eq!(s.wb_retirements, 2, "both entries drain at the fixed rate");
    }

    #[test]
    fn real_l2_miss_adds_memory_latency() {
        let cfg = MachineConfig {
            l2: L2Config::real_with_size(128 * 1024),
            ..MachineConfig::baseline()
        };
        let s = Machine::new(cfg).unwrap().run(vec![Op::Load(a(1, 0))]);
        // 1 + 6 + 25
        assert_eq!(s.cycles, 32);
        assert_eq!(s.l2_read_misses, 1);
        assert_eq!(s.mm_accesses, 1);
    }

    #[test]
    fn inclusion_invalidates_l1() {
        let sets = 4096u64; // 128K direct-mapped L2
        let cfg = MachineConfig {
            l2: L2Config::real_with_size(128 * 1024),
            ..MachineConfig::baseline()
        };
        // Load line X (fills L1+L2), then load enough conflicting lines to
        // evict X from L2; L1 must invalidate it, so a reload misses.
        let ops = vec![
            Op::Load(a(1, 0)),
            Op::Load(a(1 + sets, 0)), // evicts line 1 from L2 (direct-mapped)
            Op::Load(a(1, 0)),        // must miss L1 (inclusion) and L2
        ];
        let s = Machine::new(cfg).unwrap().run(ops);
        assert!(s.inclusion_invalidations >= 1);
        assert_eq!(s.l1_load_hits, 0, "every load misses due to inclusion");
    }

    #[test]
    fn ifetch_misses_contend_for_l2() {
        let cfg = MachineConfig {
            icache: wbsim_types::config::IcacheConfig::MissEvery { interval: 5 },
            ..MachineConfig::baseline()
        };
        let mut ops = Vec::new();
        for l in 0..200u64 {
            ops.push(Op::Store(a(l, 0)));
            ops.push(Op::Compute(2));
        }
        let s = Machine::with_seed(cfg, 42).unwrap().run(ops);
        assert!(s.icache_misses > 0);
        assert!(
            s.ifetch_stall_cycles > 0,
            "I-fetches should sometimes wait out WB writes"
        );
    }

    #[test]
    fn half_line_datapath_doubles_write_time() {
        use wbsim_types::policy::DatapathWidth;
        let mk = |dp| MachineConfig {
            write_buffer: WriteBufferConfig {
                datapath: dp,
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        };
        // Store then hazard-load: flush takes 6 vs 12 cycles.
        let ops = vec![Op::Store(a(1, 0)), Op::Load(a(1, 0))];
        let full = Machine::new(mk(DatapathWidth::FullLine))
            .unwrap()
            .run(ops.clone());
        let half = Machine::new(mk(DatapathWidth::HalfLine)).unwrap().run(ops);
        assert_eq!(full.stalls.get(StallKind::LoadHazard), 6);
        assert_eq!(half.stalls.get(StallKind::LoadHazard), 12);
    }

    #[test]
    fn store_to_retiring_line_allocates_duplicate_and_stays_correct() {
        // Force a retirement of line 1, then store to line 1 again while
        // the transaction is underway, then load it back.
        let s = run_baseline(vec![
            Op::Store(a(1, 0)),
            Op::Store(a(2, 0)), // occupancy 2 → retirement of line 1 begins
            Op::Store(a(1, 0)), // must allocate a duplicate (can't merge)
            Op::Load(a(1, 0)),  // must see the *second* store's value
        ]);
        assert!(s.loads == 1);
    }

    #[test]
    fn four_byte_word_geometry_works_end_to_end() {
        // The Alphas write 4- or 8-byte words (§2.2); with 4-byte words a
        // 32B line has 8 words and the buffer needs 8-word-wide entries.
        use wbsim_types::addr::Geometry;
        let g = Geometry::new(32, 4).unwrap();
        let cfg = MachineConfig {
            geometry: g,
            write_buffer: WriteBufferConfig {
                width_words: 8,
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        };
        let mut ops = Vec::new();
        // Fill a line word by word (8 merges), read each word back.
        for w in 0..8u64 {
            ops.push(Op::Store(Addr::new(0x400 + w * 4)));
        }
        for w in 0..8u64 {
            ops.push(Op::Load(Addr::new(0x400 + w * 4)));
        }
        let s = Machine::new(cfg).unwrap().run(ops);
        assert_eq!(s.wb_allocations, 1);
        assert_eq!(s.wb_store_merges, 7, "8 words of one line coalesce");
        assert_eq!(s.load_hazards, 1, "first load hazards on the line");
        assert_eq!(s.l1_load_hits, 7, "remaining loads hit the fill");
    }

    #[test]
    fn stores_merge_into_other_entries_during_retirement() {
        // §2.2: "Stores can, however, update other buffer entries while a
        // retirement takes place." Line 1's entry begins retiring when
        // line 2 allocates; while that write is in flight, a store to
        // line 2 must merge (not allocate or stall).
        let s = run_baseline(vec![
            Op::Store(a(1, 0)), // entry A
            Op::Store(a(2, 0)), // entry B → retirement of A begins
            Op::Store(a(2, 1)), // must merge into B mid-retirement
            Op::Store(a(2, 2)),
            Op::Compute(20),
        ]);
        assert_eq!(s.wb_allocations, 2);
        assert_eq!(s.wb_store_merges, 2);
        assert_eq!(s.stalls.total(), 0);
    }

    #[test]
    fn barrier_drains_the_buffer() {
        // Two stores (retirement of the first begins), then a barrier: the
        // barrier must wait for both entries to reach L2.
        let s = run_baseline(vec![
            Op::Store(a(1, 0)),
            Op::Store(a(2, 0)),
            Op::Barrier,
            Op::Compute(5),
        ]);
        assert_eq!(s.barriers, 1);
        assert_eq!(s.wb_retirements, 2, "barrier forces a full drain");
        assert!(
            s.barrier_stall_cycles > 0,
            "draining two entries takes time"
        );
        assert_eq!(s.stalls.total(), 0, "barrier stalls are their own bucket");
    }

    #[test]
    fn barrier_on_empty_buffer_costs_one_cycle() {
        let s = run_baseline(vec![Op::Compute(10), Op::Barrier, Op::Compute(10)]);
        assert_eq!(s.cycles, 21);
        assert_eq!(s.barrier_stall_cycles, 0);
    }

    #[test]
    fn barrier_forces_retirement_below_high_water() {
        // One lone entry sits below retire-at-2's high-water mark forever;
        // a barrier must still flush it out.
        let s = run_baseline(vec![Op::Store(a(1, 0)), Op::Barrier]);
        assert_eq!(s.wb_retirements, 1);
    }

    #[test]
    fn barrier_ordering_is_observable() {
        // After a barrier, the stored line is in L2, so a load misses the
        // buffer entirely (no hazard) and reads L2 normally.
        let s = run_baseline(vec![Op::Store(a(1, 0)), Op::Barrier, Op::Load(a(1, 0))]);
        assert_eq!(s.load_hazards, 0, "the barrier already drained the line");
        assert_eq!(s.wb_flushes, 0);
    }

    #[test]
    fn issue_width_speeds_compute_only() {
        let mk = |w| MachineConfig {
            issue_width: w,
            ..MachineConfig::baseline()
        };
        let ops = vec![Op::Compute(100), Op::Store(a(1, 0)), Op::Compute(101)];
        let w1 = Machine::new(mk(1)).unwrap().run(ops.clone());
        let w4 = Machine::new(mk(4)).unwrap().run(ops);
        assert_eq!(w1.cycles, 202);
        // ceil(100/4) + 1 + ceil(101/4) = 25 + 1 + 26
        assert_eq!(w4.cycles, 52);
    }

    #[test]
    fn wider_issue_raises_stall_percentages() {
        // §4.3: "as issue width increases, store density increases.
        // Write-buffer-induced stalls rise as a result."
        let mut ops = Vec::new();
        for i in 0..300u64 {
            ops.push(Op::Compute(6));
            ops.push(Op::Store(a(i % 64, i % 4)));
            if i % 3 == 0 {
                ops.push(Op::Load(a((i * 7) % 64, i % 4)));
            }
        }
        let mk = |w| MachineConfig {
            issue_width: w,
            ..MachineConfig::baseline()
        };
        let w1 = Machine::new(mk(1)).unwrap().run(ops.clone());
        let w4 = Machine::new(mk(4)).unwrap().run(ops);
        assert!(
            w4.total_stall_pct() > w1.total_stall_pct(),
            "width 4 ({:.2}%) must stall more than width 1 ({:.2}%)",
            w4.total_stall_pct(),
            w1.total_stall_pct()
        );
    }

    #[test]
    fn ideal_mode_matches_blocking_for_barrier_and_width() {
        let ops = vec![
            Op::Compute(10),
            Op::Barrier,
            Op::Compute(7),
            Op::Store(a(1, 0)),
            Op::Barrier,
        ];
        let cfg = MachineConfig {
            issue_width: 2,
            ..MachineConfig::baseline()
        };
        let real = Machine::new(cfg.clone()).unwrap().run(ops.clone());
        let ideal = Machine::new(cfg).unwrap().run_ideal(ops);
        // ceil(10/2) + 1 + ceil(7/2) + 1 + 1 = 5+1+4+1+1 = 12 for ideal.
        assert_eq!(ideal.cycles, 12);
        assert_eq!(
            real.cycles,
            ideal.cycles + real.stalls.total() + real.barrier_stall_cycles
        );
    }

    #[test]
    fn write_back_l1_store_hit_dirties_without_buffer_traffic() {
        use wbsim_types::config::L1Config;
        use wbsim_types::policy::L1WritePolicy;
        let cfg = MachineConfig {
            l1: L1Config {
                write_policy: L1WritePolicy::WriteBack,
                ..L1Config::baseline()
            },
            ..MachineConfig::baseline()
        };
        // Load brings the line in; the store then hits and dirties it.
        let s = Machine::new(cfg).unwrap().run(vec![
            Op::Load(a(1, 0)),
            Op::Store(a(1, 1)),
            Op::Load(a(1, 1)),
        ]);
        assert_eq!(s.l1_store_hits, 1);
        assert_eq!(s.wb_allocations, 0, "stores bypass the buffer");
        assert_eq!(s.wb_retirements, 0);
        assert_eq!(s.l1_load_hits, 1, "read-back hits the dirty line");
        // 7 (load miss) + 1 (store) + 1 (load hit)
        assert_eq!(s.cycles, 9);
    }

    #[test]
    fn write_back_store_miss_write_allocates() {
        use wbsim_types::config::L1Config;
        use wbsim_types::policy::L1WritePolicy;
        let cfg = MachineConfig {
            l1: L1Config {
                write_policy: L1WritePolicy::WriteBack,
                ..L1Config::baseline()
            },
            ..MachineConfig::baseline()
        };
        let s = Machine::new(cfg)
            .unwrap()
            .run(vec![Op::Store(a(1, 0)), Op::Load(a(1, 0))]);
        // Store miss fetches the line (1+6), then the load hits (1).
        assert_eq!(s.cycles, 8);
        assert_eq!(s.l2_reads, 1);
        assert_eq!(s.l1_load_hits, 1);
    }

    #[test]
    fn write_back_dirty_victim_goes_through_buffer() {
        use wbsim_types::config::L1Config;
        use wbsim_types::policy::L1WritePolicy;
        let cfg = MachineConfig {
            l1: L1Config {
                write_policy: L1WritePolicy::WriteBack,
                ..L1Config::baseline()
            },
            ..MachineConfig::baseline()
        };
        // Dirty line 1, then load a conflicting line (same set, 256 apart):
        // the victim enters the buffer. Under retire-at-2 a lone victim
        // waits there, so the final load of line 1 is a classic load
        // hazard; flush-full pushes it to L2 and the load returns the
        // stored value (verified by check_data).
        let s = Machine::new(cfg).unwrap().run(vec![
            Op::Store(a(1, 0)),      // write-allocate, dirty
            Op::Load(a(1 + 256, 0)), // evicts dirty line 1
            Op::Compute(40),
            Op::Load(a(1, 0)), // hazard on the buffered victim
        ]);
        assert_eq!(s.load_hazards, 1, "the victim line is hazardous");
        assert_eq!(
            s.wb_retirements + s.wb_flushes,
            1,
            "the victim reached L2 exactly once"
        );
        assert_eq!(s.loads, 2);
    }

    #[test]
    fn write_back_identity_against_ideal() {
        use wbsim_types::config::L1Config;
        use wbsim_types::policy::L1WritePolicy;
        let cfg = MachineConfig {
            l1: L1Config {
                write_policy: L1WritePolicy::WriteBack,
                ..L1Config::baseline()
            },
            ..MachineConfig::baseline()
        };
        let mut ops = Vec::new();
        for i in 0..600u64 {
            ops.push(Op::Store(a((i * 7) % 400, i % 4)));
            ops.push(Op::Compute((i % 4) as u32));
            ops.push(Op::Load(a((i * 13) % 400, (i + 1) % 4)));
        }
        let real = Machine::new(cfg.clone()).unwrap().run(ops.clone());
        let ideal = Machine::new(cfg).unwrap().run_ideal(ops);
        assert_eq!(real.cycles, ideal.cycles + real.stalls.total());
    }

    #[test]
    fn write_back_store_allocate_merges_pending_victim() {
        use wbsim_types::config::L1Config;
        use wbsim_types::policy::L1WritePolicy;
        // Regression: a store miss to a line whose dirty victim is waiting
        // in the buffer must merge the buffered words, not install stale
        // L2 data.
        let cfg = MachineConfig {
            l1: L1Config {
                write_policy: L1WritePolicy::WriteBack,
                ..L1Config::baseline()
            },
            ..MachineConfig::baseline()
        };
        let s = Machine::new(cfg).unwrap().run(vec![
            Op::Store(a(1, 0)),      // dirty line 1 (word 0 = v1)
            Op::Load(a(1 + 256, 0)), // evict dirty line 1 into the buffer
            Op::Store(a(1, 1)),      // store-miss line 1: must merge word 0
            Op::Load(a(1, 0)),       // L1 hit; stale unless the merge happened
        ]);
        assert_eq!(s.l1_load_hits, 1);
    }

    #[test]
    fn write_back_rejects_narrow_victim_entries() {
        use wbsim_types::config::{L1Config, WriteBufferConfig};
        use wbsim_types::policy::L1WritePolicy;
        let cfg = MachineConfig {
            l1: L1Config {
                write_policy: L1WritePolicy::WriteBack,
                ..L1Config::baseline()
            },
            write_buffer: WriteBufferConfig {
                width_words: 1,
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        };
        assert!(Machine::new(cfg).is_err());
    }

    #[test]
    fn write_priority_above_lets_buffer_drain_first() {
        use wbsim_types::policy::L2Priority;
        let cfg = MachineConfig {
            write_buffer: WriteBufferConfig {
                priority: L2Priority::WritePriorityAbove(2),
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        };
        // With occupancy >= 2 a pending write beats the load.
        let ops = vec![
            Op::Store(a(1, 0)),
            Op::Store(a(2, 0)),
            Op::Store(a(3, 0)),
            Op::Load(a(9, 0)),
        ];
        let s = Machine::new(cfg).unwrap().run(ops.clone());
        let base = run_baseline(ops);
        assert!(
            s.stalls.get(StallKind::L2ReadAccess) >= base.stalls.get(StallKind::L2ReadAccess),
            "write priority should delay the read at least as much"
        );
    }

    #[test]
    fn op_by_op_stepping_matches_continuous_run() {
        // run_op_bounded feeds one op at a time; the observer must see the
        // exact event stream of a continuous run over the same ops, and the
        // machines must land on the same timestamp and statistics.
        use crate::event::Event;
        struct Collect(Vec<String>);
        impl Observer for Collect {
            fn event(&mut self, ev: &Event) {
                self.0.push(ev.to_json());
            }
        }
        let ops = vec![
            Op::Store(a(1, 0)),
            Op::Store(a(2, 0)), // retire-at-2 fires mid-stream
            Op::Load(a(1, 0)),  // hazard flush
            Op::Store(a(2, 1)),
            Op::Compute(3),
            Op::Load(a(2, 1)),
        ];
        let mut cont = Collect(Vec::new());
        let mut m1 = Machine::new(MachineConfig::baseline()).unwrap();
        let s1 = m1.run_observed(ops.clone(), &mut cont);

        let mut step = Collect(Vec::new());
        let mut m2 = Machine::new(MachineConfig::baseline()).unwrap();
        for op in ops {
            let t = m2.run_op_bounded(op, 10_000, &mut step);
            assert!(t.is_some(), "no op livelocks in the baseline");
            assert!(m2.at_op_boundary());
        }
        assert_eq!(cont.0, step.0, "event streams must be identical");
        assert_eq!(m1.now(), m2.now());
        assert_eq!(s1.cycles, m2.now());
        assert_eq!(m1.stats().stores, m2.stats().stores);
        assert_eq!(m1.stats().stalls, m2.stats().stalls);
        assert_eq!(m1.stats().wb_retirements, m2.stats().wb_retirements);
        assert_eq!(m1.stats().wb_flushes, m2.stats().wb_flushes);
    }

    #[test]
    fn drain_step_empties_the_buffer_then_reports_done() {
        let mut obs = NullObserver;
        let mut m = Machine::new(MachineConfig::baseline()).unwrap();
        m.run_op_bounded(Op::Store(a(1, 0)), 100, &mut obs).unwrap();
        assert_eq!(m.wb_occupancy(), 1);
        let mut steps = 0;
        while m.drain_step(&mut obs) {
            steps += 1;
            assert!(steps < 100, "drain must terminate");
        }
        assert_eq!(m.wb_occupancy(), 0);
        assert!(steps >= 6, "one retirement takes the full write time");
        assert!(!m.drain_step(&mut obs), "empty drain consumes nothing");
        assert!(m.at_op_boundary());
    }

    #[test]
    fn snapshot_captures_buffer_and_is_time_shift_invariant() {
        // What the view shows of the buffer, its countdowns and line 1.
        let read = |m: &Machine| {
            let v = m.view();
            let wb: Vec<_> = v
                .wb_entries()
                .map(|e| (e.block, e.retiring, e.mask, e.data.clone()))
                .collect();
            let line = LineAddr::new(1);
            let l1 = v.l1_line(line).map(<[u64]>::to_vec);
            let times = (v.retire_countdown(), v.port_countdown());
            (wb, times, l1, v.mem_line(line).to_vec(), v.at_op_boundary())
        };
        let mut obs = NullObserver;
        let mut m = Machine::new(MachineConfig::baseline()).unwrap();
        m.run_op_bounded(Op::Store(a(1, 0)), 100, &mut obs).unwrap();
        let s = read(&m);
        let [(block, retiring, mask, data)] = &s.0[..] else {
            panic!("one entry: {:?}", s.0)
        };
        assert_eq!((*block, *retiring), (1, false));
        assert_eq!(
            (0..4).map(|w| mask.get(w)).collect::<Vec<_>>(),
            [true, false, false, false]
        );
        assert_eq!(data[0], 1);
        assert_eq!(s.1, (None, 0), "lone entry sits below retire-at-2");
        assert_eq!(s.2, None, "write-around store does not fill L1");
        assert_eq!(s.3, vec![0; 4]);
        assert!(s.4);
        // Idle cycles move `now` but nothing else: the view — read as
        // countdowns, not absolute timestamps — must not change.
        m.run_op_bounded(Op::Compute(10), 100, &mut obs).unwrap();
        assert_eq!(read(&m), s);
    }

    #[test]
    fn starve_retirement_fault_wedges_a_full_buffer() {
        use wbsim_types::divergence::FaultInjection;
        let cfg = MachineConfig {
            write_buffer: WriteBufferConfig {
                depth: 1,
                retirement: RetirementPolicy::RetireAt(1),
                ..WriteBufferConfig::baseline()
            },
            fault: Some(FaultInjection::StarveRetirement),
            check_data: false,
            ..MachineConfig::baseline()
        };
        let mut obs = NullObserver;
        let mut m = Machine::new(cfg).unwrap();
        m.run_op_bounded(Op::Store(a(1, 0)), 100, &mut obs).unwrap();
        assert!(
            m.run_op_bounded(Op::Store(a(2, 0)), 200, &mut obs)
                .is_none(),
            "with retirement starved, a second line can never allocate"
        );
    }

    #[test]
    fn observer_sees_every_cycle_and_load() {
        use crate::event::Event;
        use crate::observer::Observer;
        #[derive(Default)]
        struct Counter {
            cycles: u64,
            loads: u64,
            stores: u64,
        }
        impl Observer for Counter {
            fn event(&mut self, ev: &Event) {
                match ev {
                    Event::CycleEnd { .. } => self.cycles += 1,
                    Event::LoadResolved { .. } => self.loads += 1,
                    Event::StoreAccepted { .. } => self.stores += 1,
                    _ => {}
                }
            }
        }
        let mut obs = Counter::default();
        let mut m = Machine::new(MachineConfig::baseline()).unwrap();
        let s = m.run_observed(
            vec![Op::Store(a(1, 0)), Op::Load(a(1, 0)), Op::Load(a(1, 1))],
            &mut obs,
        );
        assert_eq!(obs.cycles, s.cycles);
        assert_eq!(obs.loads, s.loads);
        assert_eq!(obs.stores, s.stores);
    }
}
