//! A non-blocking-load variant of the machine (paper §4.3).
//!
//! The paper's machine blocks on every L1 miss; §4.3 argues that with
//! non-blocking caches "L2 read-access and load-hazard stalls can be
//! overlapped with other computation … but the ability to continue
//! executing during cache misses means stores arrive more quickly",
//! raising overflow pressure. [`NonBlockingMachine`] quantifies that
//! tradeoff:
//!
//! * an L1 load miss allocates an **MSHR** and execution continues;
//!   secondary misses to an outstanding line merge into its MSHR;
//! * the CPU stalls only when the MSHRs are exhausted
//!   (`mshr_stall_cycles`), when a store finds the buffer full
//!   (buffer-full, as ever), or at barriers;
//! * outstanding reads queue for the L2 port ahead of pending retirements
//!   (read-bypassing), and a cycle in which some read is blocked by an
//!   underway write is counted as an L2-read-access cycle — the same
//!   contention the blocking machine charges, now overlapped;
//! * the load-hazard policy must be read-from-WB (out-of-order machines
//!   read their store queues; flush semantics under concurrent misses are
//!   ill-defined), enforced at construction.
//!
//! Since loads have no consumers in a trace-driven model, dependence
//! stalls are not modeled: this machine is the paper's *upper bound* on
//! overlap. Data checking still verifies every L1 and write-buffer hit
//! against the golden model (fills are installed from L2 at completion
//! time, so later hits re-verify filled data); the returned value of an
//! in-flight load itself is the one thing not checked.
//!
//! The datapath (store acceptance, retirement, fills, verification) is
//! the shared `Hierarchy` (`hierarchy.rs`, crate-private — see
//! `docs/architecture.md`); this module owns only the MSHR file and the
//! small non-blocking CPU state machine.

use wbsim_types::addr::{Addr, LineAddr};
use wbsim_types::config::{ConfigError, MachineConfig};
use wbsim_types::divergence::FaultInjection;
use wbsim_types::op::Op;
use wbsim_types::policy::LoadHazardPolicy;
use wbsim_types::stall::StallKind;
use wbsim_types::stats::SimStats;
use wbsim_types::Cycle;

use crate::event::{Event, PortUse};
use crate::hierarchy::Hierarchy;
use crate::machine::{hier_snapshot, Engine, MachineSnapshot, MshrSnapshot, SkipSpan, SkipTick};
use crate::observer::{NullObserver, Observer};
use crate::port::PortOwner;
use crate::sim_machine::SimMachine;

/// One miss-status-holding register.
#[derive(Debug, Clone, Copy)]
struct Mshr {
    line: LineAddr,
    /// `None` while queued for the port; completion cycle once issued.
    done_at: Option<Cycle>,
    /// Whether the read missed L2 (decided at issue).
    miss: bool,
    /// Queue order (FIFO among waiting MSHRs).
    seq: u64,
}

/// The CPU's (much smaller) blocking reasons.
#[derive(Debug, Clone, Copy)]
enum CpuState {
    NeedOp,
    Computing {
        left: u32,
    },
    StoreTry {
        addr: Addr,
    },
    /// Waiting for a free MSHR to issue a load miss.
    MshrWait {
        addr: Addr,
    },
    /// The barrier's 1-cycle execution slot.
    BarrierExec,
    /// Draining the write buffer *and* all MSHRs.
    BarrierDrain,
    Finished,
}

/// The non-blocking machine; see the module docs. `clone_from` reuses
/// the target's buffers and maps, as [`crate::Machine`]'s does.
#[derive(Debug)]
pub struct NonBlockingMachine {
    hier: Hierarchy,
    mshrs: Vec<Mshr>,
    max_mshrs: usize,
    mshr_seq: u64,
    cpu: CpuState,
    engine: Engine,
    record_skips: bool,
    skip_log: Vec<SkipSpan>,
}

wbsim_types::clone_fields!(NonBlockingMachine {
    hier,
    mshrs,
    max_mshrs,
    mshr_seq,
    cpu,
    engine,
    record_skips,
    skip_log
});

impl NonBlockingMachine {
    /// Builds the machine with `mshrs` miss-status registers.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid, when
    /// `mshrs` is zero, or when the hazard policy is not read-from-WB.
    pub fn new(cfg: MachineConfig, mshrs: usize) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if mshrs == 0 {
            return Err(ConfigError::OutOfRange {
                what: "MSHR count",
                constraint: "must be at least 1",
            });
        }
        if cfg.write_buffer.hazard != LoadHazardPolicy::ReadFromWb {
            return Err(ConfigError::OutOfRange {
                what: "load-hazard policy",
                constraint: "the non-blocking machine requires read-from-WB",
            });
        }
        let hier = Hierarchy::new(cfg)?;
        Ok(Self {
            hier,
            mshrs: Vec::with_capacity(mshrs),
            max_mshrs: mshrs,
            mshr_seq: 0,
            cpu: CpuState::NeedOp,
            engine: Engine::default(),
            record_skips: false,
            skip_log: Vec::new(),
        })
    }

    /// Selects the run-loop [`Engine`] for subsequent `run_*` calls; see
    /// [`crate::Machine::set_engine`].
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The currently selected run-loop [`Engine`].
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Switches recording of claimed [`SkipSpan`]s on or off; see
    /// [`crate::Machine::set_record_skips`].
    pub fn set_record_skips(&mut self, record: bool) {
        self.record_skips = record;
    }

    /// Drains and returns the [`SkipSpan`]s recorded since the last call.
    pub fn take_skips(&mut self) -> Vec<SkipSpan> {
        std::mem::take(&mut self.skip_log)
    }

    /// Runs the stream to completion (including draining outstanding
    /// misses and retirements at the end) and returns statistics. Cycles
    /// the CPU spent blocked on MSHR exhaustion are reported in
    /// `SimStats::mshr_stall_cycles`. The machine stays alive for
    /// post-run architectural queries.
    pub fn run<I>(&mut self, ops: I) -> SimStats
    where
        I: IntoIterator<Item = Op>,
    {
        self.run_observed(ops, &mut NullObserver)
    }

    /// [`NonBlockingMachine::run`] under an [`Observer`] receiving the
    /// structured [`Event`] stream. A load that goes to an MSHR (newly
    /// allocated or merged into an outstanding one) is reported as
    /// [`Event::LoadMiss`]; its fill arrives later as
    /// [`Event::FillInstalled`].
    pub fn run_observed<I, O>(&mut self, ops: I, obs: &mut O) -> SimStats
    where
        I: IntoIterator<Item = Op>,
        O: Observer,
    {
        let skip = self.engine == Engine::EventDriven;
        let mut iter = ops.into_iter();
        loop {
            if skip {
                self.try_skip(obs);
            }
            if !self.step(&mut iter, obs) {
                break;
            }
        }
        self.hier.stats.cycles = self.hier.now;
        self.hier.stats
    }

    /// Classifies the CPU's current state as a pure wait; the non-blocking
    /// analogue of `Machine::classify_wait`. Returns the per-cycle
    /// statistics tick, the cycle at which the wait itself ends
    /// (`u64::MAX` when only external events can end it), and whether
    /// retirement runs with barrier-drain semantics.
    fn classify_wait(&self) -> Option<(SkipTick, Cycle, bool)> {
        const INF: Cycle = u64::MAX;
        let now = self.hier.now;
        match self.cpu {
            CpuState::Computing { left } if left > 0 => {
                let w = u64::from(self.hier.cfg.issue_width);
                Some((SkipTick::Nothing, now + u64::from(left).div_ceil(w), false))
            }
            CpuState::StoreTry { addr } if !self.hier.wb.can_accept(addr) => {
                Some((SkipTick::Stall(StallKind::BufferFull), INF, false))
            }
            CpuState::MshrWait { .. } if self.mshrs.len() >= self.max_mshrs => {
                Some((SkipTick::MshrStall, INF, false))
            }
            CpuState::BarrierDrain
                if self.hier.wb.occupancy() > 0
                    || self.hier.wb_retire.is_some()
                    || !self.mshrs.is_empty() =>
            {
                Some((SkipTick::BarrierStall, INF, true))
            }
            // End-of-stream drain: outstanding fills or a retirement still
            // land, but the front end has nothing left to do.
            CpuState::Finished if !self.mshrs.is_empty() || self.hier.wb_retire.is_some() => {
                Some((SkipTick::Nothing, INF, false))
            }
            _ => None,
        }
    }

    /// The event-driven jump; see `Machine::try_skip`. Span bounds beyond
    /// the wait's own deadline: every issued MSHR's completion, the
    /// underway retirement's completion, the port freeing while reads are
    /// queued (a read issues that cycle), and the predicted retirement
    /// start (suppressed while reads are queued — read-bypassing).
    fn try_skip<O: Observer>(&mut self, obs: &mut O) {
        let Some((tick, deadline, barrier)) = self.classify_wait() else {
            return;
        };
        let now = self.hier.now;
        let mut bound = deadline;
        for m in &self.mshrs {
            if let Some(d) = m.done_at {
                bound = bound.min(d);
            }
        }
        if let Some(p) = self.hier.wb_retire {
            bound = bound.min(p.done_at);
        }
        let any_queued = self.mshrs.iter().any(|m| m.done_at.is_none());
        if any_queued {
            if self.hier.port.is_free(now) {
                // A queued read issues this very cycle: real work.
                return;
            }
            bound = bound.min(self.hier.port.free_at());
        } else if let Some(t) = self.hier.retire_start_candidate(barrier) {
            bound = bound.min(t);
        }
        if bound == u64::MAX || bound <= now {
            return;
        }
        // Injected off-by-one in the skip horizon (see the blocking
        // machine's `try_skip`): the jump lands one cycle past the
        // earliest pending event.
        let bound = if self.hier.cfg.fault == Some(FaultInjection::OvershootSkip) {
            bound + 1
        } else {
            bound
        };
        if self.record_skips {
            self.skip_log.push(SkipSpan {
                from: now,
                to: bound,
                lane: false,
            });
        }
        let k = bound - now;
        // The overlapped contention charge is constant across the span:
        // the port's owner cannot change before `free_at`, and the span is
        // bounded by `free_at` whenever a read is queued.
        let overlapped = self.hier.port.busy_with_write(now) && any_queued;
        match tick {
            SkipTick::Nothing => {}
            SkipTick::Stall(kind) => self.hier.stats.stalls.record(kind, k),
            SkipTick::MshrStall => self.hier.stats.mshr_stall_cycles += k,
            SkipTick::BarrierStall => self.hier.stats.barrier_stall_cycles += k,
            SkipTick::MissWait | SkipTick::IFetchStall => unreachable!(),
        }
        if overlapped {
            self.hier.stats.stalls.record(StallKind::L2ReadAccess, k);
        }
        let occupancy = self.hier.wb.occupancy();
        self.hier
            .stats
            .wb_detail
            .record_occupancy_span(occupancy, k);
        if !O::IS_NOOP {
            for t in now..bound {
                if let SkipTick::Stall(kind) = tick {
                    obs.event(&Event::StallCycle { now: t, kind });
                }
                if overlapped {
                    obs.event(&Event::StallCycle {
                        now: t,
                        kind: StallKind::L2ReadAccess,
                    });
                }
                obs.event(&Event::CycleEnd {
                    now: t,
                    occupancy: occupancy as u64,
                });
            }
        }
        self.hier.now = bound;
        if let CpuState::Computing { left } = &mut self.cpu {
            let w = u64::from(self.hier.cfg.issue_width);
            *left = u64::from(*left).saturating_sub(k * w) as u32;
        }
    }

    /// Whether the CPU sits at an op boundary: the previous op (if any)
    /// has fully issued and no instruction occupies the front end.
    /// Outstanding misses and retirements may still be in flight — that is
    /// the whole point of this machine.
    fn at_op_boundary(&self) -> bool {
        matches!(self.cpu, CpuState::NeedOp | CpuState::Finished)
    }

    /// Runs one op from an op boundary until the front end is ready for
    /// the next op, skipping wait spans when `skip` is set; see
    /// [`SimMachine::run_op_bounded`]. Outstanding misses and retirements
    /// deliberately stay in flight across the boundary.
    fn run_op<O: Observer>(
        &mut self,
        op: Op,
        max_cycles: u64,
        skip: bool,
        obs: &mut O,
    ) -> Option<u64> {
        debug_assert!(self.at_op_boundary(), "run_op mid-op");
        if matches!(self.cpu, CpuState::Finished) {
            self.cpu = CpuState::NeedOp;
        }
        let deadline = self.hier.now + max_cycles;
        let mut iter = std::iter::once(op);
        loop {
            if skip {
                self.try_skip(obs);
            }
            self.complete_mshrs(obs);
            self.hier.complete_retirement(obs);
            if !self.cpu_step(&mut iter, obs) {
                // Front end idle again: stop *before* this timestamp's
                // issue/retire phase, which belongs to the next op's first
                // cycle (or the end-of-stream drain).
                return Some(self.hier.now);
            }
            self.issue_reads(obs);
            self.wb_try_retire(obs);
            self.close_cycle(obs);
            if self.hier.now >= deadline {
                return None;
            }
        }
    }

    /// The end of every cycle: the overlapped L2-read-access charge (a
    /// cycle in which some queued read sits behind an underway write is
    /// L2-read-access contention, overlapped or not), the occupancy record
    /// and the closing [`Event::CycleEnd`].
    fn close_cycle<O: Observer>(&mut self, obs: &mut O) {
        if self.hier.port.busy_with_write(self.hier.now)
            && self.mshrs.iter().any(|m| m.done_at.is_none())
        {
            self.hier.stall(StallKind::L2ReadAccess, obs);
        }
        let occupancy = self.hier.wb.occupancy();
        self.hier.stats.wb_detail.record_occupancy(occupancy);
        obs.event(&Event::CycleEnd {
            now: self.hier.now,
            occupancy: occupancy as u64,
        });
        self.hier.now += 1;
    }

    /// Advances one cycle of a forced drain: retirement runs at the
    /// maximum rate and outstanding misses complete, but no new ops issue
    /// (barrier semantics). Returns `false` — consuming no cycle — once
    /// the buffer is empty, no retirement is in flight, and every MSHR has
    /// filled. The reachability checker's liveness analysis walks this
    /// deterministic drain schedule from every reachable state.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no instruction is mid-flight (op boundary or an
    /// earlier `drain_step`).
    pub fn drain_step<O: Observer>(&mut self, obs: &mut O) -> bool {
        debug_assert!(
            matches!(
                self.cpu,
                CpuState::NeedOp | CpuState::Finished | CpuState::BarrierDrain
            ),
            "drain_step mid-op"
        );
        if self.hier.wb.occupancy() == 0 && self.hier.wb_retire.is_none() && self.mshrs.is_empty() {
            return false;
        }
        self.cpu = CpuState::BarrierDrain;
        self.step(&mut std::iter::empty(), obs)
    }

    fn complete_mshrs<O: Observer>(&mut self, obs: &mut O) {
        let mut i = 0;
        while i < self.mshrs.len() {
            if self.mshrs[i].done_at == Some(self.hier.now) {
                let m = self.mshrs.swap_remove(i);
                self.hier.complete_mshr_fill(m.line, m.miss, obs);
            } else {
                i += 1;
            }
        }
    }

    /// Issues the oldest queued MSHR if the port is free (reads bypass
    /// pending retirements by running before `wb_try_retire`).
    fn issue_reads<O: Observer>(&mut self, obs: &mut O) {
        if !self.hier.port.is_free(self.hier.now) {
            return;
        }
        let Some(idx) = self
            .mshrs
            .iter()
            .enumerate()
            .filter(|(_, m)| m.done_at.is_none())
            .min_by_key(|(_, m)| m.seq)
            .map(|(i, _)| i)
        else {
            return;
        };
        let line = self.mshrs[idx].line;
        let miss = !self.hier.l2.contains(line);
        self.hier.stats.l2_reads += 1;
        if miss {
            self.hier.stats.l2_read_misses += 1;
        }
        let until = self
            .hier
            .port
            .acquire(PortOwner::CpuRead, self.hier.now, self.hier.read_time);
        obs.event(&Event::PortGranted {
            now: self.hier.now,
            owner: PortUse::CpuRead,
            until,
        });
        self.mshrs[idx].miss = miss;
        self.mshrs[idx].done_at =
            Some(self.hier.now + self.hier.read_time + if miss { self.hier.mm_latency } else { 0 });
    }

    fn wb_try_retire<O: Observer>(&mut self, obs: &mut O) {
        // Reads first (read-bypassing): if any MSHR is queued, it will take
        // the port next cycle.
        if self.mshrs.iter().any(|m| m.done_at.is_none()) {
            return;
        }
        let barrier = matches!(self.cpu, CpuState::BarrierDrain);
        self.hier.wb_try_retire(barrier, obs);
    }

    /// Advances the CPU by one cycle; returns `false` when the trace is
    /// exhausted *and* the CPU has nothing left to do.
    fn cpu_step<I, O>(&mut self, iter: &mut I, obs: &mut O) -> bool
    where
        I: Iterator<Item = Op>,
        O: Observer,
    {
        loop {
            match self.cpu {
                CpuState::NeedOp => match iter.next() {
                    None => {
                        self.cpu = CpuState::Finished;
                        return false;
                    }
                    Some(op) => {
                        self.hier.stats.instructions += op.instructions();
                        match op {
                            Op::Compute(0) => continue,
                            Op::Compute(n) => self.cpu = CpuState::Computing { left: n },
                            Op::Load(addr) => {
                                self.hier.stats.loads += 1;
                                return self.exec_load(addr, obs);
                            }
                            Op::Store(addr) => {
                                self.hier.stats.stores += 1;
                                self.cpu = CpuState::StoreTry { addr };
                            }
                            Op::Barrier => {
                                self.hier.stats.barriers += 1;
                                self.cpu = CpuState::BarrierExec;
                            }
                        }
                    }
                },
                CpuState::Computing { left } => {
                    if left == 0 {
                        self.cpu = CpuState::NeedOp;
                        continue;
                    }
                    let step = self.hier.cfg.issue_width.min(left);
                    self.cpu = CpuState::Computing { left: left - step };
                    return true;
                }
                CpuState::StoreTry { addr } => {
                    if self.hier.try_store(addr, obs) {
                        self.cpu = CpuState::NeedOp;
                    }
                    return true;
                }
                CpuState::MshrWait { addr } => {
                    if self.mshrs.len() < self.max_mshrs {
                        self.cpu = CpuState::NeedOp;
                        return self.exec_load(addr, obs);
                    }
                    self.hier.stats.mshr_stall_cycles += 1;
                    return true;
                }
                CpuState::BarrierExec => {
                    self.cpu = CpuState::BarrierDrain;
                    return true;
                }
                CpuState::BarrierDrain => {
                    if self.hier.wb.occupancy() == 0
                        && self.hier.wb_retire.is_none()
                        && self.mshrs.is_empty()
                    {
                        self.cpu = CpuState::NeedOp;
                        continue;
                    }
                    self.hier.stats.barrier_stall_cycles += 1;
                    return true;
                }
                CpuState::Finished => return false,
            }
        }
    }

    /// The load's 1-cycle issue slot: hit, buffer hit, MSHR merge, MSHR
    /// allocate, or stall for an MSHR.
    fn exec_load<O: Observer>(&mut self, addr: Addr, obs: &mut O) -> bool {
        if self.hier.probe_load_fast(addr, obs).is_some() {
            self.cpu = CpuState::NeedOp;
            return true;
        }
        let line = self.hier.g.line_of(addr);
        // Secondary miss: merge into the outstanding MSHR for this line.
        if self.mshrs.iter().any(|m| m.line == line) {
            obs.event(&Event::LoadMiss {
                now: self.hier.now,
                addr,
            });
            self.cpu = CpuState::NeedOp;
            return true;
        }
        if self.mshrs.len() >= self.max_mshrs {
            self.cpu = CpuState::MshrWait { addr };
            self.hier.stats.mshr_stall_cycles += 1;
            return true;
        }
        let merge_wb = !self.hier.forwarding_fault() && self.hier.wb.has_line(line);
        if merge_wb {
            self.hier.stats.load_hazards += 1;
            self.hier.stats.hazard_word_misses += 1;
            obs.event(&Event::HazardTriggered {
                now: self.hier.now,
                addr,
                policy: LoadHazardPolicy::ReadFromWb,
                flush_entries: 0,
            });
        }
        self.mshr_seq += 1;
        self.mshrs.push(Mshr {
            line,
            done_at: None,
            miss: false,
            seq: self.mshr_seq,
        });
        obs.event(&Event::LoadMiss {
            now: self.hier.now,
            addr,
        });
        self.cpu = CpuState::NeedOp;
        true
    }

    /// Read-only view of the accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.hier.stats
    }

    /// The current simulation timestamp: how many cycles have elapsed
    /// since the machine was constructed.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.hier.now
    }

    /// Dirty L1 victims that allocated a write-buffer entry; always zero
    /// under a write-through L1 (the only L1 this machine's required
    /// read-from-WB policy is verified with).
    #[must_use]
    pub fn wb_victim_allocs(&self) -> u64 {
        self.hier.victim_inserts
    }

    /// Current write-buffer occupancy in entries (zero after a completed
    /// run: the end-of-trace drain empties the buffer).
    #[must_use]
    pub fn wb_occupancy(&self) -> usize {
        self.hier.wb.occupancy()
    }

    /// The architecturally visible value of the word at `addr`; see
    /// [`crate::Machine::read_word_architectural`].
    #[must_use]
    pub fn read_word_architectural(&self, addr: Addr) -> u64 {
        self.hier.read_word_architectural(addr)
    }
}

impl SimMachine for NonBlockingMachine {
    /// `None` MSHRs is rejected like zero: this machine needs at least one.
    fn build(cfg: MachineConfig, mshrs: Option<usize>) -> Result<Self, ConfigError> {
        NonBlockingMachine::new(cfg, mshrs.unwrap_or(0))
    }

    /// Fill completion, retirement completion, one CPU step, read issue,
    /// autonomous retirement, then the cycle close (`close_cycle`).
    fn run_observed<I, O>(&mut self, ops: I, obs: &mut O) -> SimStats
    where
        I: IntoIterator<Item = Op>,
        O: Observer,
    {
        NonBlockingMachine::run_observed(self, ops, obs)
    }

    fn step<I, O>(&mut self, iter: &mut I, obs: &mut O) -> bool
    where
        I: Iterator<Item = Op>,
        O: Observer,
    {
        self.complete_mshrs(obs);
        self.hier.complete_retirement(obs);
        let advanced = self.cpu_step(iter, obs);
        self.issue_reads(obs);
        self.wb_try_retire(obs);
        if !advanced && self.mshrs.is_empty() && self.hier.wb_retire.is_none() {
            return false;
        }
        self.close_cycle(obs);
        true
    }

    fn run_op_bounded<O: Observer>(&mut self, op: Op, max_cycles: u64, obs: &mut O) -> Option<u64> {
        self.run_op(op, max_cycles, false, obs)
    }

    fn run_op_skipping<O: Observer>(
        &mut self,
        op: Op,
        max_cycles: u64,
        obs: &mut O,
    ) -> Option<u64> {
        let skip = self.engine == Engine::EventDriven;
        self.run_op(op, max_cycles, skip, obs)
    }

    fn run_to_end_bounded<O: Observer>(&mut self, max_cycles: u64, obs: &mut O) -> Option<u64> {
        let deadline = self.hier.now + max_cycles;
        let skip = self.engine == Engine::EventDriven;
        let mut iter = std::iter::empty();
        loop {
            if skip {
                self.try_skip(obs);
            }
            if !self.step(&mut iter, obs) {
                return Some(self.hier.now);
            }
            if self.hier.now >= deadline {
                return None;
            }
        }
    }

    fn drain_step<O: Observer>(&mut self, obs: &mut O) -> bool {
        NonBlockingMachine::drain_step(self, obs)
    }

    /// The hierarchy's components plus one [`MshrSnapshot`] per
    /// outstanding miss, in allocation order.
    fn snapshot(&self, lines: &[LineAddr]) -> MachineSnapshot {
        let mut snap = hier_snapshot(&self.hier, lines, self.at_op_boundary());
        let mut ms: Vec<_> = self.mshrs.iter().collect();
        ms.sort_by_key(|m| m.seq);
        snap.mshrs = ms
            .into_iter()
            .map(|m| MshrSnapshot {
                line: m.line.as_u64(),
                countdown: m.done_at.map(|d| d.saturating_sub(self.hier.now)),
                miss: m.miss,
            })
            .collect();
        snap
    }

    fn mshr_lines(&self) -> impl Iterator<Item = LineAddr> + Clone + '_ {
        self.mshrs.iter().map(|m| m.line)
    }

    fn now(&self) -> u64 {
        NonBlockingMachine::now(self)
    }

    fn stats(&self) -> &SimStats {
        NonBlockingMachine::stats(self)
    }

    fn wb_occupancy(&self) -> usize {
        NonBlockingMachine::wb_occupancy(self)
    }

    fn wb_victim_allocs(&self) -> u64 {
        NonBlockingMachine::wb_victim_allocs(self)
    }

    fn read_word_architectural(&self, addr: Addr) -> u64 {
        NonBlockingMachine::read_word_architectural(self, addr)
    }

    fn set_engine(&mut self, engine: Engine) {
        NonBlockingMachine::set_engine(self, engine);
    }

    fn set_record_skips(&mut self, record: bool) {
        NonBlockingMachine::set_record_skips(self, record);
    }

    fn take_skips(&mut self) -> Vec<SkipSpan> {
        NonBlockingMachine::take_skips(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{a, nb_cfg};
    use wbsim_types::config::WriteBufferConfig;

    #[test]
    fn requires_read_from_wb() {
        assert!(NonBlockingMachine::new(MachineConfig::baseline(), 4).is_err());
        assert!(NonBlockingMachine::new(nb_cfg(), 0).is_err());
        assert!(NonBlockingMachine::new(nb_cfg(), 4).is_ok());
    }

    #[test]
    fn independent_misses_overlap() {
        // Two misses to distinct lines: blocking costs 7+7; non-blocking
        // pipelines the L2 reads (port serializes them, but issue overlaps).
        let ops = vec![Op::Load(a(1, 0)), Op::Load(a(2, 0)), Op::Compute(20)];
        let nb = NonBlockingMachine::new(nb_cfg(), 4)
            .unwrap()
            .run(ops.clone());
        let blocking = crate::Machine::new(nb_cfg()).unwrap().run(ops);
        assert!(
            nb.cycles < blocking.cycles,
            "non-blocking {} should beat blocking {}",
            nb.cycles,
            blocking.cycles
        );
        assert_eq!(nb.l2_reads, 2);
    }

    #[test]
    fn secondary_miss_shares_an_mshr() {
        let ops = vec![Op::Load(a(1, 0)), Op::Load(a(1, 1)), Op::Compute(30)];
        let nb = NonBlockingMachine::new(nb_cfg(), 4).unwrap().run(ops);
        assert_eq!(nb.l2_reads, 1, "one fill serves both misses");
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        // 1 MSHR: the second independent miss must wait for the first fill.
        let ops = vec![Op::Load(a(1, 0)), Op::Load(a(2, 0))];
        let stats = NonBlockingMachine::new(nb_cfg(), 1).unwrap().run(ops);
        assert!(stats.mshr_stall_cycles > 0, "expected MSHR-full stalls");
        assert_eq!(stats.l2_reads, 2);
    }

    #[test]
    fn fills_install_into_l1() {
        let ops = vec![
            Op::Load(a(1, 0)),
            Op::Compute(30), // let the fill land
            Op::Load(a(1, 0)),
        ];
        let nb = NonBlockingMachine::new(nb_cfg(), 4).unwrap().run(ops);
        assert_eq!(nb.l1_load_hits, 1, "second load hits the filled line");
    }

    #[test]
    fn store_data_remains_fresh_under_overlap() {
        // Store, miss-load another line (fill in flight), store again,
        // then read back through L1/WB paths — check_data verifies all.
        let mut ops = Vec::new();
        for i in 0..200u64 {
            ops.push(Op::Store(a(i % 8, i % 4)));
            ops.push(Op::Load(a((i + 3) % 16, i % 4)));
            if i % 7 == 0 {
                ops.push(Op::Compute(3));
            }
        }
        let stats = NonBlockingMachine::new(nb_cfg(), 4).unwrap().run(ops);
        assert!(stats.loads > 0);
    }

    #[test]
    fn barrier_drains_mshrs_too() {
        let ops = vec![Op::Load(a(1, 0)), Op::Store(a(2, 0)), Op::Barrier];
        let nb = NonBlockingMachine::new(nb_cfg(), 4).unwrap().run(ops);
        assert_eq!(nb.barriers, 1);
        assert!(nb.barrier_stall_cycles > 0);
        assert_eq!(nb.wb_retirements, 1);
    }

    #[test]
    fn stores_arrive_more_quickly_raising_overflow_pressure() {
        use wbsim_types::stall::StallKind;
        // §4.3: the freed-up load time makes stores denser in time. With a
        // shallow buffer, buffer-full stalls grow vs the blocking machine.
        let mut ops = Vec::new();
        for i in 0..400u64 {
            ops.push(Op::Load(a(200 + (i * 13) % 150, i % 4))); // misses
            ops.push(Op::Store(a(i % 64, 0)));
        }
        let cfg = MachineConfig {
            write_buffer: WriteBufferConfig {
                depth: 2,
                hazard: LoadHazardPolicy::ReadFromWb,
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        };
        let nb = NonBlockingMachine::new(cfg.clone(), 8)
            .unwrap()
            .run(ops.clone());
        let blocking = crate::Machine::new(cfg).unwrap().run(ops);
        let nb_f = nb.stall_pct(StallKind::BufferFull);
        let b_f = blocking.stall_pct(StallKind::BufferFull);
        assert!(
            nb_f > b_f,
            "non-blocking buffer-full {nb_f:.2}% should exceed blocking {b_f:.2}%"
        );
        // This workload saturates the L2 port, so overlap cannot buy much;
        // the machine must at least not fall meaningfully behind.
        assert!(nb.cycles <= blocking.cycles + blocking.cycles / 10);
    }

    #[test]
    fn drains_outstanding_state_at_end() {
        let ops = vec![Op::Store(a(1, 0)), Op::Store(a(2, 0)), Op::Load(a(3, 0))];
        let nb = NonBlockingMachine::new(nb_cfg(), 4).unwrap().run(ops);
        // The final load's fill and the triggered retirement both complete.
        assert!(nb.cycles >= 7);
        assert!(nb.wb_retirements >= 1);
    }

    #[test]
    fn op_by_op_stepping_matches_a_continuous_run() {
        use crate::observer::Observer;
        #[derive(Default)]
        struct Tape(Vec<String>);
        impl Observer for Tape {
            fn event(&mut self, ev: &Event) {
                self.0.push(format!("{ev:?}"));
            }
        }
        let mut ops = Vec::new();
        for i in 0..40u64 {
            ops.push(Op::Store(a(i % 4, i % 2)));
            ops.push(Op::Load(a((i + 3) % 8, i % 2)));
            if i % 5 == 0 {
                ops.push(Op::Compute(2));
            }
        }
        let mut cont = Tape::default();
        let mut m1 = NonBlockingMachine::new(nb_cfg(), 2).unwrap();
        let s1 = m1.run_observed(ops.clone(), &mut cont);

        let mut stepped = Tape::default();
        let mut m2 = NonBlockingMachine::new(nb_cfg(), 2).unwrap();
        for &op in &ops {
            assert!(m2.run_op_bounded(op, 100_000, &mut stepped).is_some());
            assert!(m2.at_op_boundary());
        }
        // The continuous run's end-of-stream tail: plain steps, no forced
        // barrier semantics.
        while m2.step(&mut std::iter::empty(), &mut stepped) {}
        let mut s2 = *m2.stats();
        s2.cycles = m2.now();

        assert_eq!(s1, s2);
        assert_eq!(cont.0, stepped.0);
    }

    #[test]
    fn snapshot_reports_outstanding_mshrs() {
        let mut m = NonBlockingMachine::new(nb_cfg(), 4).unwrap();
        let mut obs = crate::observer::NullObserver;
        assert!(m
            .run_op_bounded(Op::Load(a(1, 0)), 1_000, &mut obs)
            .is_some());
        let s = m.snapshot(&[wbsim_types::addr::LineAddr::new(1)]);
        assert_eq!(s.mshrs.len(), 1);
        assert_eq!(s.mshrs[0].line, 1);
        assert!(m.mshr_lines().eq([wbsim_types::addr::LineAddr::new(1)]));
        // Draining completes the fill; the snapshot empties.
        while m.drain_step(&mut obs) {}
        assert!(m
            .snapshot(&[wbsim_types::addr::LineAddr::new(1)])
            .mshrs
            .is_empty());
    }

    #[test]
    fn every_load_gets_exactly_one_terminal_event() {
        use crate::event::Event;
        use crate::observer::Observer;
        #[derive(Default)]
        struct Terminals {
            resolved: u64,
            missed: u64,
        }
        impl Observer for Terminals {
            fn event(&mut self, ev: &Event) {
                match ev {
                    Event::LoadResolved { .. } => self.resolved += 1,
                    Event::LoadMiss { .. } => self.missed += 1,
                    _ => {}
                }
            }
        }
        let mut ops = Vec::new();
        for i in 0..60u64 {
            ops.push(Op::Store(a(i % 8, i % 4)));
            ops.push(Op::Load(a((i + 3) % 16, i % 4)));
        }
        let mut obs = Terminals::default();
        let mut m = NonBlockingMachine::new(nb_cfg(), 2).unwrap();
        let s = m.run_observed(ops, &mut obs);
        assert_eq!(obs.resolved + obs.missed, s.loads);
    }
}
