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
//!   ill-defined), enforced at construction;
//! * the machine models a write-through L1, a perfect I-cache and
//!   read-bypassing port arbitration only, and refuses a configuration
//!   asking for a write-back L1, an I-cache front end or write priority.
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
use wbsim_types::config::{ConfigError, IcacheConfig, MachineConfig};
use wbsim_types::op::Op;
use wbsim_types::policy::{L1WritePolicy, L2Priority, LoadHazardPolicy};
use wbsim_types::stall::StallKind;
use wbsim_types::stats::SimStats;
use wbsim_types::Cycle;

use crate::event::{Event, PortUse};
use crate::hierarchy::{Engine, Hierarchy, SkipSpan, SkipTick};
use crate::observer::{NullObserver, Observer};
use crate::port::PortOwner;
use crate::sim_machine::SimMachine;
use crate::view::StateView;

/// One miss-status-holding register.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mshr {
    pub(crate) line: LineAddr,
    /// `None` while queued for the port; completion cycle once issued.
    pub(crate) done_at: Option<Cycle>,
    /// Whether the read missed L2 (decided at issue).
    pub(crate) miss: bool,
    /// Queue order (FIFO among waiting MSHRs).
    pub(crate) seq: u64,
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
}

wbsim_types::clone_fields!(NonBlockingMachine {
    hier,
    mshrs,
    max_mshrs,
    mshr_seq,
    cpu
});

impl NonBlockingMachine {
    /// Builds the machine with `mshrs` miss-status registers.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid, when
    /// `mshrs` is zero, or when the configuration asks for what this
    /// machine does not model: a hazard policy other than read-from-WB, a
    /// write-back L1, an I-cache front end or write-priority arbitration.
    pub fn new(cfg: MachineConfig, mshrs: usize) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let wb = &cfg.write_buffer;
        for (refused, what, constraint) in [
            (mshrs == 0, "MSHR count", "must be at least 1"),
            (
                wb.hazard != LoadHazardPolicy::ReadFromWb,
                "load-hazard policy",
                "the non-blocking machine requires read-from-WB",
            ),
            (
                cfg.l1.write_policy != L1WritePolicy::WriteThrough,
                "l1.write_policy",
                "the non-blocking machine models a write-through L1 only",
            ),
            (
                cfg.icache != IcacheConfig::Perfect,
                "icache",
                "the non-blocking machine has no I-cache front end (perfect only)",
            ),
            (
                wb.priority != L2Priority::ReadBypass,
                "wb.priority",
                "the non-blocking machine arbitrates the L2 port read-bypass only",
            ),
        ] {
            if refused {
                return Err(ConfigError::OutOfRange { what, constraint });
            }
        }
        let hier = Hierarchy::new(cfg)?;
        Ok(Self {
            hier,
            mshrs: Vec::with_capacity(mshrs),
            max_mshrs: mshrs,
            mshr_seq: 0,
            cpu: CpuState::NeedOp,
        })
    }

    /// Selects the run-loop [`Engine`] for subsequent run-to-boundary
    /// calls; see [`crate::Machine::set_engine`].
    pub fn set_engine(&mut self, engine: Engine) {
        self.hier.engine = engine;
    }

    /// Switches recording of claimed [`SkipSpan`]s on or off; see
    /// [`crate::Machine::set_record_skips`].
    pub fn set_record_skips(&mut self, record: bool) {
        self.hier.record_skips = record;
    }

    /// Drains and returns the [`SkipSpan`]s recorded since the last call.
    pub fn take_skips(&mut self) -> Vec<SkipSpan> {
        std::mem::take(&mut self.hier.skip_log)
    }

    /// Runs the stream to completion (including draining outstanding
    /// misses and retirements at the end) and returns statistics. Cycles
    /// the CPU spent blocked on MSHR exhaustion are reported in
    /// `SimStats::mshr_stall_cycles`. The machine stays alive for
    /// post-run architectural queries. Under an observer
    /// ([`SimMachine::run_observed`]), a load that goes to an MSHR (newly
    /// allocated or merged into an outstanding one) is reported as
    /// [`Event::LoadMiss`]; its fill arrives later as
    /// [`Event::FillInstalled`].
    pub fn run<I>(&mut self, ops: I) -> SimStats
    where
        I: IntoIterator<Item = Op>,
    {
        SimMachine::run_observed(self, ops, &mut NullObserver)
    }

    /// The one run loop, behind every run-to-boundary entry point: one
    /// [`NonBlockingMachine::cycle`] after another under the selected
    /// [`Engine`] — with span jumps under [`Engine::EventDriven`] — until
    /// `cycle` reports the end, finalizing `cycles`. Returns the landing
    /// timestamp, or `None` once `deadline` is reached first.
    fn run_loop<I, O>(
        &mut self,
        iter: &mut I,
        to_boundary: bool,
        deadline: Cycle,
        obs: &mut O,
    ) -> Option<u64>
    where
        I: Iterator<Item = Op>,
        O: Observer,
    {
        let skip = self.hier.engine == Engine::EventDriven;
        loop {
            if skip {
                self.try_skip(obs);
            }
            if !self.cycle(iter, to_boundary, obs) {
                self.hier.stats.cycles = self.hier.now;
                return Some(self.hier.now);
            }
            if self.hier.now >= deadline {
                return None;
            }
        }
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
        let queued = self.reads_queued();
        if queued {
            if self.hier.port.is_free(now) {
                // A queued read issues this very cycle: real work.
                return;
            }
            bound = bound.min(self.hier.port.free_at());
        } else if let Some(t) = self.hier.retire_start_candidate(barrier) {
            bound = bound.min(t);
        }
        // The overlapped contention charge is constant across the span:
        // the port's owner cannot change before `free_at`, and the span is
        // bounded by `free_at` whenever a read is queued.
        let overlapped = self.hier.port.busy_with_write(now) && queued;
        let k = self.hier.jump(bound, tick, overlapped, false, obs);
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

    /// Resumes a machine whose stream ran dry at its op boundary: the
    /// next step fetches an op instead of draining for the end.
    fn resume(&mut self) {
        if matches!(self.cpu, CpuState::Finished) {
            self.cpu = CpuState::NeedOp;
        }
    }

    /// Whether some MSHR is queued for the L2 port.
    fn reads_queued(&self) -> bool {
        self.mshrs.iter().any(|m| m.done_at.is_none())
    }

    /// One cycle: fill and retirement completion, one CPU step, read
    /// issue, autonomous retirement, and the datapath's
    /// [`Hierarchy::close_cycle`], overlapped when a queued read sits
    /// behind an underway write (L2-read-access contention, overlapped or
    /// not). Once the front end is idle and `iter` is dry, returns `false`
    /// — consuming no cycle — either at once when `to_boundary` (this
    /// timestamp's issue/retire phase belongs to the next op's first cycle
    /// or the end-of-stream drain), or once no miss or retirement is left
    /// in flight.
    fn cycle<I, O>(&mut self, iter: &mut I, to_boundary: bool, obs: &mut O) -> bool
    where
        I: Iterator<Item = Op>,
        O: Observer,
    {
        self.complete_mshrs(obs);
        self.hier.complete_retirement(obs);
        let advanced = self.cpu_step(iter, obs);
        if !advanced && to_boundary {
            return false;
        }
        self.issue_reads(obs);
        self.wb_try_retire(obs);
        if !advanced && self.mshrs.is_empty() && self.hier.wb_retire.is_none() {
            return false;
        }
        let overlapped = self.hier.port.busy_with_write(self.hier.now) && self.reads_queued();
        self.hier.close_cycle(overlapped, obs);
        true
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
        if self.reads_queued() {
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

    /// The current simulation timestamp: how many cycles have elapsed
    /// since the machine was constructed.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.hier.now
    }
}

impl SimMachine for NonBlockingMachine {
    /// `None` MSHRs is rejected like zero: this machine needs at least one.
    fn build(cfg: MachineConfig, mshrs: Option<usize>) -> Result<Self, ConfigError> {
        NonBlockingMachine::new(cfg, mshrs.unwrap_or(0))
    }

    fn run_observed<I, O>(&mut self, ops: I, obs: &mut O) -> SimStats
    where
        I: IntoIterator<Item = Op>,
        O: Observer,
    {
        self.run_loop(&mut ops.into_iter(), false, u64::MAX, obs);
        self.hier.stats
    }

    fn step<I, O>(&mut self, iter: &mut I, obs: &mut O) -> bool
    where
        I: Iterator<Item = Op>,
        O: Observer,
    {
        self.cycle(iter, false, obs)
    }

    fn step_op<I, O>(&mut self, iter: &mut I, obs: &mut O) -> bool
    where
        I: Iterator<Item = Op>,
        O: Observer,
    {
        self.resume();
        self.cycle(iter, true, obs)
    }

    /// Outstanding misses and retirements deliberately stay in flight
    /// across the boundary.
    fn run_op_bounded<O: Observer>(&mut self, op: Op, max_cycles: u64, obs: &mut O) -> Option<u64> {
        debug_assert!(self.at_op_boundary(), "run_op_bounded mid-op");
        self.resume();
        let deadline = self.hier.now.saturating_add(max_cycles);
        self.run_loop(&mut std::iter::once(op), true, deadline, obs)
    }

    fn run_to_end_bounded<O: Observer>(&mut self, max_cycles: u64, obs: &mut O) -> Option<u64> {
        let deadline = self.hier.now.saturating_add(max_cycles);
        self.run_loop(&mut std::iter::empty(), false, deadline, obs)
    }

    /// Barrier semantics: every MSHR fills too.
    fn drain_step<O: Observer>(&mut self, obs: &mut O) -> bool {
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
        self.cycle(&mut std::iter::empty(), false, obs)
    }

    /// The hierarchy's components plus the outstanding misses.
    fn view(&self) -> StateView<'_> {
        StateView::new(&self.hier, &self.mshrs, self.at_op_boundary())
    }

    fn mshr_lines(&self) -> impl Iterator<Item = LineAddr> + Clone + '_ {
        self.mshrs.iter().map(|m| m.line)
    }

    fn now(&self) -> u64 {
        NonBlockingMachine::now(self)
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
        NonBlockingMachine::set_engine(self, engine);
    }

    fn set_record_skips(&mut self, record: bool) {
        NonBlockingMachine::set_record_skips(self, record);
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
    use crate::testutil::{a, nb_cfg};
    use wbsim_types::config::WriteBufferConfig;

    #[test]
    fn requires_read_from_wb() {
        assert!(NonBlockingMachine::new(MachineConfig::baseline(), 4).is_err());
        assert!(NonBlockingMachine::new(nb_cfg(), 0).is_err());
        assert!(NonBlockingMachine::new(nb_cfg(), 4).is_ok());
    }

    /// The error a read-from-WB configuration edited by `edit` is refused
    /// with.
    fn refused(edit: impl FnOnce(&mut MachineConfig)) -> String {
        let mut cfg = nb_cfg();
        edit(&mut cfg);
        cfg.validate().expect("a valid configuration");
        NonBlockingMachine::new(cfg, 4).unwrap_err().to_string()
    }

    #[test]
    fn refuses_a_write_back_l1() {
        let e = refused(|c| {
            c.l1.write_policy = L1WritePolicy::WriteBack;
            c.write_buffer.width_words = c.geometry.words_per_line();
        });
        assert!(e.starts_with("l1.write_policy out of range"), "{e}");
    }

    #[test]
    fn refuses_an_icache_front_end() {
        let e = refused(|c| c.icache = IcacheConfig::MissEvery { interval: 50 });
        assert!(e.starts_with("icache out of range"), "{e}");
    }

    #[test]
    fn refuses_write_priority() {
        let e = refused(|c| c.write_buffer.priority = L2Priority::WritePriorityAbove(2));
        assert!(e.starts_with("wb.priority out of range"), "{e}");
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
        let mshrs: Vec<_> = m.view().mshrs().collect();
        assert_eq!(mshrs.len(), 1);
        assert_eq!(mshrs[0].line, 1);
        assert!(m.mshr_lines().eq([wbsim_types::addr::LineAddr::new(1)]));
        // Draining completes the fill; the view shows no miss.
        while m.drain_step(&mut obs) {}
        assert_eq!(m.view().mshrs().count(), 0);
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
