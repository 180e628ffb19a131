//! The shared memory-hierarchy datapath.
//!
//! [`Hierarchy`] owns everything below the CPU: L1, L2, the write buffer,
//! the L2 port, main memory, the golden shadow model, and the statistics.
//! The structural operations both machines need — accepting stores,
//! issuing and completing retirements, reading lines with buffered-word
//! merging, installing fills with inclusion and victim handling, and
//! verifying load freshness — live here exactly once; the blocking
//! [`crate::Machine`] and the non-blocking [`crate::NonBlockingMachine`]
//! are thin CPU state machines over this datapath.
//!
//! Every mutating step is generic over an [`Observer`] and reports what
//! it did as [`Event`]s; under [`crate::NullObserver`] the emission
//! compiles away.
//!
//! The clock lives here too, and with it the two ways time advances: the
//! close of a stepped cycle ([`Hierarchy::close_cycle`]) and the
//! event-driven engine's jump across a span of cycles
//! ([`Hierarchy::jump`]), which charges the span exactly as the stepped
//! cycles would have. Each machine decides only *when* a span is a pure
//! wait and where it ends.
//!
//! Line data moves between the levels without touching the heap: L2 and
//! memory lend a fetched line as a borrowed slice, a fill is assembled in
//! the one line buffer the hierarchy owns, and a retiring entry leaves the
//! buffer as a [`wbsim_core::RetiredBlock`] borrowed from it.

use std::collections::HashMap;

use wbsim_core::buffer::{StoreOutcome, WriteBuffer};
use wbsim_core::entry::EntryId;
use wbsim_mem::{L1Cache, L2Cache, MainMemory};
use wbsim_types::addr::{Addr, Geometry, LineAddr};
use wbsim_types::config::{ConfigError, L2Config, MachineConfig};
use wbsim_types::divergence::{FaultInjection, LoadSource};
use wbsim_types::policy::{L1WritePolicy, LoadHazardPolicy, RetirementPolicy};
use wbsim_types::stall::StallKind;
use wbsim_types::stats::SimStats;
use wbsim_types::Cycle;

use crate::event::Event;
use crate::observer::Observer;
use crate::port::{L2Port, PortOwner};

/// Which run loop a machine's run-to-boundary entry points use: every
/// `run*` method, [`crate::SimMachine::run_op_bounded`] and
/// [`crate::SimMachine::run_to_end_bounded`]. The one-cycle entry points
/// ([`crate::SimMachine::step`], `step_op`, `drain_step`) are the same
/// under both.
///
/// Both engines drive the same single-cycle transition
/// ([`crate::SimMachine::step`]) for every cycle in which something
/// happens; the event-driven engine additionally recognizes *pure-wait
/// spans* — maximal runs of cycles in which the CPU repeats one blocked
/// state and nothing else in the machine can act — and jumps `now` across
/// them in one step, charging the span's stall cycles in bulk and
/// replaying the per-cycle events so statistics and the [`Observer`]
/// stream stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Time-skipping run loop (the default).
    #[default]
    EventDriven,
    /// The original strictly cycle-stepped loop, kept as the oracle the
    /// equivalence suite compares against.
    Reference,
}

wbsim_types::wire_names!(Engine { EventDriven => "event-driven", Reference => "reference" });

/// The per-cycle statistics charge of one skipped wait cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SkipTick {
    /// No counter advances (in-flight reads, batched compute).
    Nothing,
    /// A Table-3 stall cycle, with its [`Event::StallCycle`] emission.
    Stall(StallKind),
    /// `miss_wait_cycles` (the load's own L2/memory read).
    MissWait,
    /// `barrier_stall_cycles` (a barrier drain).
    BarrierStall,
    /// `ifetch_stall_cycles` (an I-fetch waiting for the port).
    IFetchStall,
    /// `mshr_stall_cycles` (the non-blocking machine out of MSHRs).
    MshrStall,
}

/// One claimed time jump of the event-driven engine: the half-open cycle
/// range `[from, to)` the engine asserted nothing observable could happen
/// in, either as a pure-wait span skip (`lane == false`) or as a fast-lane
/// compute batch between retirement events (`lane == true`).
///
/// Recording is off by default; the cross-engine refinement checker
/// (`wbsim check --refine`) switches it on
/// ([`crate::SimMachine::set_record_skips`]) to cross-validate every
/// claimed horizon against the reference engine's event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipSpan {
    /// First skipped cycle.
    pub from: Cycle,
    /// First cycle *not* covered by the claim (the landing timestamp).
    pub to: Cycle,
    /// `true` for a fast-lane compute batch, `false` for a wait-span skip.
    pub lane: bool,
}

/// An L2 write transaction in flight (autonomous retirement or flush).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    pub(crate) id: EntryId,
    pub(crate) done_at: Cycle,
}

/// The shared datapath: caches, buffer, port, memory, shadow, and stats.
/// See the module docs. `Clone` supports the model checkers, which fork
/// the machine at every explored state; `clone_from` reuses the caches',
/// the write buffer's, memory's and the shadow's buffers and maps.
#[derive(Debug)]
pub(crate) struct Hierarchy {
    pub(crate) cfg: MachineConfig,
    pub(crate) g: Geometry,
    pub(crate) mem: MainMemory,
    pub(crate) l1: L1Cache,
    pub(crate) l2: L2Cache,
    pub(crate) wb: WriteBuffer,
    pub(crate) port: L2Port,
    pub(crate) stats: SimStats,
    pub(crate) now: Cycle,
    /// Autonomous retirement in flight (flushes are tracked by the CPU).
    pub(crate) wb_retire: Option<Pending>,
    pub(crate) last_retire_start: Cycle,
    pub(crate) store_seq: u64,
    /// Dirty L1 victims that allocated a fresh write-buffer entry (as
    /// opposed to merging into one) — the write-back side of entry
    /// conservation.
    pub(crate) victim_inserts: u64,
    /// Golden functional model: freshest value of every written word.
    pub(crate) shadow: HashMap<u64, u64>,
    /// The hierarchy's one line buffer. It holds the line an L1 fill
    /// installs, fetched from L2 and merged with buffered words by
    /// [`Hierarchy::read_line_structural`] and consumed by
    /// [`Hierarchy::install_fill`]; a write-back fill blocked on
    /// victim-buffer space keeps it here until it installs.
    pub(crate) line_buf: Vec<u64>,
    pub(crate) read_time: u64,
    pub(crate) write_time: u64,
    pub(crate) mm_latency: u64,
    /// The run loop the machine's run-to-boundary entry points use.
    pub(crate) engine: Engine,
    /// Whether [`Hierarchy::jump`] logs its spans into `skip_log`.
    pub(crate) record_skips: bool,
    pub(crate) skip_log: Vec<SkipSpan>,
}

wbsim_types::clone_fields!(Hierarchy {
    cfg,
    g,
    mem,
    l1,
    l2,
    wb,
    port,
    stats,
    now,
    wb_retire,
    last_retire_start,
    store_seq,
    victim_inserts,
    shadow,
    line_buf,
    read_time,
    write_time,
    mm_latency,
    engine,
    record_skips,
    skip_log
});

impl Hierarchy {
    /// Builds the datapath from a validated configuration.
    pub(crate) fn new(cfg: MachineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let g = cfg.geometry;
        let l1 = L1Cache::new(&cfg.l1, &g)?;
        let l2 = L2Cache::new(&cfg.l2, &g)?;
        let wb = WriteBuffer::new(&cfg.write_buffer, &g)?;
        let latency = cfg.l2.latency();
        let txns = cfg.write_buffer.datapath.transactions_per_line();
        let mm_latency = match cfg.l2 {
            L2Config::Perfect { .. } => 0,
            L2Config::Real { mm_latency, .. } => mm_latency,
        };
        Ok(Self {
            cfg,
            g,
            mem: MainMemory::new(),
            l1,
            l2,
            wb,
            port: L2Port::new(),
            stats: SimStats::default(),
            now: 0,
            wb_retire: None,
            last_retire_start: 0,
            store_seq: 0,
            victim_inserts: 0,
            shadow: HashMap::new(),
            line_buf: vec![0; g.words_per_line()],
            read_time: latency,
            write_time: latency * txns,
            mm_latency,
            engine: Engine::default(),
            record_skips: false,
            skip_log: Vec::new(),
        })
    }

    /// Whether the injected [`FaultInjection::SkipWbForwarding`] bug is
    /// active: the read-from-WB forwarding probe *and* the fill merge are
    /// skipped, reproducing the exact stale-data failure §2.2's datapath
    /// exists to prevent (used to prove the differential oracle fires).
    pub(crate) fn forwarding_fault(&self) -> bool {
        self.cfg.fault == Some(FaultInjection::SkipWbForwarding)
    }

    /// Records one stall cycle in the Table-3 taxonomy and reports it.
    pub(crate) fn stall<O: Observer>(&mut self, kind: StallKind, obs: &mut O) {
        self.stats.stalls.record(kind, 1);
        obs.event(&Event::StallCycle {
            now: self.now,
            kind,
        });
    }

    /// The close of every stepped cycle, after the CPU and the retirement
    /// engine acted: the non-blocking machine's overlapped L2-read-access
    /// stall when `overlapped` (a queued read sits behind an underway
    /// write), the occupancy record, [`Event::CycleEnd`] and the clock
    /// advance.
    // Forced inline, as is `jump`: both sit on every run loop's per-cycle
    // or per-op path, where an out-of-line call measurably slowed the
    // fast lane.
    #[inline(always)]
    pub(crate) fn close_cycle<O: Observer>(&mut self, overlapped: bool, obs: &mut O) {
        if overlapped {
            self.stall(StallKind::L2ReadAccess, obs);
        }
        let occupancy = self.wb.occupancy();
        self.stats.wb_detail.record_occupancy(occupancy);
        obs.event(&Event::CycleEnd {
            now: self.now,
            occupancy: occupancy as u64,
        });
        self.now += 1;
    }

    /// The event-driven engine's jump from `now` to `to`: the cycles in
    /// between are charged exactly as that many stepped cycles that each
    /// record `tick` (plus the overlapped stall when `overlapped`) and
    /// close with nothing else happening — the counters in bulk, the
    /// occupancy as one span, and the per-cycle [`Event::StallCycle`]s and
    /// [`Event::CycleEnd`]s replayed unless the observer is a no-op. The
    /// claim is logged as a [`SkipSpan`] when recording is on; `lane`
    /// marks a fast-lane compute batch. Returns the cycles jumped: none
    /// when `to` is not past `now` or is `u64::MAX` (only an external
    /// event could end the wait, which is the reference engine's livelock
    /// and must stay one).
    #[inline(always)]
    pub(crate) fn jump<O: Observer>(
        &mut self,
        to: Cycle,
        tick: SkipTick,
        overlapped: bool,
        lane: bool,
        obs: &mut O,
    ) -> u64 {
        let from = self.now;
        if to == u64::MAX || to <= from {
            return 0;
        }
        // Injected off-by-one in the skip horizon: a wait-span skip lands
        // one cycle past the earliest pending event. Invisible to every
        // single-stepping checker; exists to prove `check --refine` fires.
        let to = if !lane && self.cfg.fault == Some(FaultInjection::OvershootSkip) {
            to + 1
        } else {
            to
        };
        if self.record_skips {
            self.skip_log.push(SkipSpan { from, to, lane });
        }
        let k = to - from;
        match tick {
            SkipTick::Nothing => {}
            SkipTick::Stall(kind) => self.stats.stalls.record(kind, k),
            SkipTick::MissWait => self.stats.miss_wait_cycles += k,
            SkipTick::BarrierStall => self.stats.barrier_stall_cycles += k,
            SkipTick::IFetchStall => self.stats.ifetch_stall_cycles += k,
            SkipTick::MshrStall => self.stats.mshr_stall_cycles += k,
        }
        if overlapped {
            self.stats.stalls.record(StallKind::L2ReadAccess, k);
        }
        let occupancy = self.wb.occupancy();
        self.stats.wb_detail.record_occupancy_span(occupancy, k);
        if !O::IS_NOOP {
            for now in from..to {
                if let SkipTick::Stall(kind) = tick {
                    obs.event(&Event::StallCycle { now, kind });
                }
                if overlapped {
                    obs.event(&Event::StallCycle {
                        now,
                        kind: StallKind::L2ReadAccess,
                    });
                }
                obs.event(&Event::CycleEnd {
                    now,
                    occupancy: occupancy as u64,
                });
            }
        }
        self.now = to;
        k
    }

    /// Completes an autonomous retirement whose transaction ends now.
    pub(crate) fn complete_retirement<O: Observer>(&mut self, obs: &mut O) {
        if let Some(p) = self.wb_retire {
            if self.now >= p.done_at {
                self.write_entry_to_l2(p.id, false, obs);
                self.wb_retire = None;
            }
        }
    }

    /// Structurally writes entry `id` to L2, applies inclusion, and
    /// counts the completion (as a flush when `flush`, a retirement
    /// otherwise).
    pub(crate) fn write_entry_to_l2<O: Observer>(&mut self, id: EntryId, flush: bool, obs: &mut O) {
        let r = self
            .wb
            .take_retired(id)
            .expect("completed transaction for a vanished entry");
        let lifetime = self.now.saturating_sub(r.alloc_cycle);
        self.stats
            .wb_detail
            .record_writeback(lifetime, r.mask.count());
        let out = self
            .l2
            .write_line_masked(&self.g, r.line, r.mask, r.data, &mut self.mem);
        self.stats.l2_writes += self.cfg.write_buffer.datapath.transactions_per_line();
        if out.fetched {
            self.stats.mm_accesses += 1;
        }
        if out.wrote_back {
            self.stats.mm_accesses += 1;
        }
        if let Some(ev) = out.evicted {
            if self.l1.invalidate(ev) {
                self.stats.inclusion_invalidations += 1;
            }
        }
        if flush {
            self.stats.wb_flushes += 1;
        } else {
            self.stats.wb_retirements += 1;
        }
        obs.event(&Event::RetireComplete {
            now: self.now,
            id,
            line: r.line.as_u64(),
            lifetime,
            valid_words: r.mask.count(),
            flush,
        });
    }

    /// Starts an autonomous retirement if the policy (or `barrier_drain`,
    /// which forces the maximum rate, or the age limit) calls for one and
    /// the port is free.
    pub(crate) fn wb_try_retire<O: Observer>(&mut self, barrier_drain: bool, obs: &mut O) {
        if self.cfg.fault == Some(FaultInjection::StarveRetirement) {
            // Injected liveness bug: the autonomous retirement engine is
            // dead. Hazard flushes (CPU-driven) still work, so every safety
            // invariant holds — only progress is lost.
            return;
        }
        if self.wb_retire.is_some() || !self.port.is_free(self.now) {
            return;
        }
        let occupancy = self.wb.occupancy();
        if occupancy == 0 {
            return;
        }
        let since = self.now.saturating_sub(self.last_retire_start);
        let policy_fires = barrier_drain
            || self
                .cfg
                .write_buffer
                .retirement
                .should_retire(occupancy, since);
        let age_fires = match self.cfg.write_buffer.max_age {
            Some(limit) => self.wb.oldest_age(self.now).is_some_and(|a| a >= limit),
            None => false,
        };
        if !(policy_fires || age_fires) {
            return;
        }
        let Some(id) = self.wb.next_retirement() else {
            return;
        };
        let began = self.wb.begin_retire(id);
        debug_assert!(began);
        let done_at = self
            .port
            .acquire(PortOwner::WbWrite(id), self.now, self.write_time);
        obs.event(&Event::RetireStart {
            now: self.now,
            id,
            flush: false,
        });
        obs.event(&Event::PortGranted {
            now: self.now,
            owner: crate::event::PortUse::WbWrite,
            until: done_at,
        });
        self.wb_retire = Some(Pending { id, done_at });
        self.last_retire_start = self.now;
    }

    /// The earliest cycle `>= now` at which [`Hierarchy::wb_try_retire`]
    /// would start a retirement, assuming nothing else changes first (no
    /// store, no flush, no retirement completion — the event-driven engine
    /// only consults this across pure-wait spans, and bounds the span by
    /// every event that could change the answer). `None` when no
    /// retirement would ever start from the current state.
    pub(crate) fn retire_start_candidate(&self, barrier_drain: bool) -> Option<Cycle> {
        if self.cfg.fault == Some(FaultInjection::StarveRetirement) {
            return None;
        }
        if self.wb_retire.is_some() {
            return None;
        }
        let occupancy = self.wb.occupancy();
        if occupancy == 0 || self.wb.next_retirement().is_none() {
            return None;
        }
        let t_policy = if barrier_drain {
            Some(self.now)
        } else {
            match self.cfg.write_buffer.retirement {
                RetirementPolicy::RetireAt(n) => (occupancy >= n).then_some(self.now),
                RetirementPolicy::FixedRate(interval) => {
                    Some(self.last_retire_start.saturating_add(interval))
                }
            }
        };
        let t_age = self.cfg.write_buffer.max_age.and_then(|limit| {
            self.wb
                .oldest_alloc_cycle()
                .map(|alloc| alloc.saturating_add(limit))
        });
        let t = match (t_policy, t_age) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        Some(t.max(self.now).max(self.port.free_at()))
    }

    /// A write-through store's attempt to enter the buffer. Returns
    /// `true` on acceptance (allocation or merge, with L1 updated in
    /// place on a hit); records a buffer-full stall and returns `false`
    /// when the buffer is full.
    pub(crate) fn try_store<O: Observer>(&mut self, addr: Addr, obs: &mut O) -> bool {
        let value = self.store_seq + 1;
        match self.wb.store(addr, value, self.now) {
            StoreOutcome::Full => {
                self.stall(StallKind::BufferFull, obs);
                false
            }
            outcome => {
                self.store_seq = value;
                let merged = outcome == StoreOutcome::Merged;
                if merged {
                    self.stats.wb_store_merges += 1;
                } else {
                    self.stats.wb_allocations += 1;
                }
                let line = self.g.line_of(addr);
                let word = self.g.word_index(addr);
                if self.l1.store_word(line, word, value) {
                    self.stats.l1_store_hits += 1;
                }
                if self.cfg.check_data {
                    self.shadow.insert(self.g.word_addr(addr), value);
                }
                obs.event(&Event::StoreAccepted {
                    now: self.now,
                    addr,
                    merged,
                });
                true
            }
        }
    }

    /// A store's write-back L1 hit: the word is dirtied in place, with no
    /// buffer traffic. Returns `false`, changing nothing, when the line is
    /// absent (the store must write-allocate).
    pub(crate) fn l1_store_hit(&mut self, addr: Addr) -> bool {
        let value = self.store_seq + 1;
        let (line, word) = (self.g.line_of(addr), self.g.word_index(addr));
        if !self.l1.store_word_dirty(line, word, value) {
            return false;
        }
        self.store_seq = value;
        self.stats.l1_store_hits += 1;
        if self.cfg.check_data {
            self.shadow.insert(self.g.word_addr(addr), value);
        }
        true
    }

    /// The 1-cycle load probes both machines share: L1 first, then (under
    /// read-from-WB, unless the forwarding fault is injected) the write
    /// buffer. Returns the resolved value, or `None` when the load must
    /// go to L2.
    pub(crate) fn probe_load_fast<O: Observer>(&mut self, addr: Addr, obs: &mut O) -> Option<u64> {
        let line = self.g.line_of(addr);
        let word = self.g.word_index(addr);
        if let Some(v) = self.l1.load_word(line, word) {
            self.stats.l1_load_hits += 1;
            self.verify_load(addr, v, "L1 hit");
            obs.event(&Event::LoadResolved {
                now: self.now,
                addr,
                value: v,
                source: LoadSource::L1,
            });
            return Some(v);
        }
        // The buffer and L1 are probed simultaneously (§2.2): a
        // word-valid buffer hit costs the same as an L1 hit.
        if self.cfg.write_buffer.hazard == LoadHazardPolicy::ReadFromWb && !self.forwarding_fault()
        {
            if let Some(v) = self.wb.read_word(addr) {
                self.stats.wb_read_hits += 1;
                self.verify_load(addr, v, "write-buffer hit");
                obs.event(&Event::LoadResolved {
                    now: self.now,
                    addr,
                    value: v,
                    source: LoadSource::WriteBuffer,
                });
                return Some(v);
            }
        }
        None
    }

    /// The structural half of an L2 read completion: fetch the line into
    /// [`Hierarchy::line_buf`], apply inclusion, and merge buffered words
    /// when `merge_wb`. `timed_miss` is the miss decision made at issue
    /// time (it charges the main-memory access).
    pub(crate) fn read_line_structural(
        &mut self,
        line: LineAddr,
        merge_wb: bool,
        timed_miss: bool,
    ) {
        let out = self.l2.read_line(&self.g, line, &mut self.mem);
        self.line_buf.copy_from_slice(out.data);
        if timed_miss {
            self.stats.mm_accesses += 1;
        }
        if out.wrote_back {
            self.stats.mm_accesses += 1;
        }
        if let Some(ev) = out.evicted {
            if self.l1.invalidate(ev) {
                self.stats.inclusion_invalidations += 1;
            }
        }
        if merge_wb {
            // "filling L1 must somehow retrieve those active words from the
            // write buffer; otherwise, the fill into L1 would obtain stale
            // data" (§2.2). No extra cycles are charged for the merge.
            self.wb.merge_into_line(line, &mut self.line_buf);
        }
    }

    /// Whether a write-back fill of `line` is blocked on victim-buffer
    /// space (its displaced line is dirty and the buffer is full).
    pub(crate) fn victim_blocked(&self, line: LineAddr) -> bool {
        if self.cfg.l1.write_policy != L1WritePolicy::WriteBack {
            return false;
        }
        match self.l1.peek_victim(line) {
            Some((vline, true)) => {
                // A pending insert can reuse an existing entry for the same
                // line even when full — but only a *non-retiring* one
                // (`insert_line` cannot touch an entry mid-transaction).
                self.wb.is_full() && !self.wb.has_nonretiring_block(vline.as_u64())
            }
            _ => false,
        }
    }

    /// Installs the completed fill in [`Hierarchy::line_buf`] into L1
    /// (writing back a dirty victim under the write-back policy) and
    /// finishes the load or the write-allocate store.
    pub(crate) fn install_fill<O: Observer>(
        &mut self,
        addr: Addr,
        for_store: bool,
        merged_wb: bool,
        obs: &mut O,
    ) {
        let line = self.g.line_of(addr);
        let word = self.g.word_index(addr);
        let value = self.line_buf[word];
        if self.cfg.l1.write_policy == L1WritePolicy::WriteBack {
            // A dirty victim's words come back in `line_buf`.
            if let Some(vline) = self.l1.fill_with_victim(line, &mut self.line_buf) {
                // `insert_line` merges into an existing non-retiring entry
                // for the same block when one exists; only a genuine
                // allocation advances the conservation counter.
                let merges = self.wb.has_nonretiring_block(vline.as_u64());
                let ok = self.wb.insert_line(vline, &self.line_buf, self.now);
                assert!(ok, "victim dropped: victim_blocked() was not consulted");
                if !merges {
                    self.victim_inserts += 1;
                }
                obs.event(&Event::VictimWriteback {
                    now: self.now,
                    line: vline.as_u64(),
                    merged: merges,
                });
            }
        } else {
            self.l1.fill(line, &self.line_buf);
        }
        obs.event(&Event::FillInstalled {
            now: self.now,
            line: line.as_u64(),
            for_store,
            merged_wb,
        });
        if for_store {
            let stored = self.store_seq + 1;
            self.store_seq = stored;
            let hit = self.l1.store_word_dirty(line, word, stored);
            debug_assert!(hit, "the line was just filled");
            if self.cfg.check_data {
                self.shadow.insert(self.g.word_addr(addr), stored);
            }
        } else {
            self.verify_load(addr, value, "L2 fill");
            obs.event(&Event::LoadResolved {
                now: self.now,
                addr,
                value,
                source: LoadSource::L2Fill,
            });
        }
    }

    /// The non-blocking machine's fill completion: re-read the line
    /// structurally (merging the *current* buffer contents — a store may
    /// have entered after the MSHR was allocated, and the fill must not
    /// bury it under L2 data) and install it into L1 unless the line was
    /// filled meanwhile by another path.
    pub(crate) fn complete_mshr_fill<O: Observer>(
        &mut self,
        line: LineAddr,
        timed_miss: bool,
        obs: &mut O,
    ) {
        let merge_wb = !self.forwarding_fault();
        self.read_line_structural(line, merge_wb, timed_miss);
        if !self.l1.contains(line) {
            self.l1.fill(line, &self.line_buf);
            obs.event(&Event::FillInstalled {
                now: self.now,
                line: line.as_u64(),
                for_store: false,
                merged_wb: merge_wb,
            });
        }
    }

    /// Asserts that `value` is the freshest store to `addr` when
    /// `check_data` is enabled.
    ///
    /// # Panics
    ///
    /// Panics on a stale observation — a simulator bug, never a property
    /// of a configuration.
    pub(crate) fn verify_load(&self, addr: Addr, value: u64, path: &str) {
        if !self.cfg.check_data {
            return;
        }
        let expect = self
            .shadow
            .get(&self.g.word_addr(addr))
            .copied()
            .unwrap_or(0);
        assert_eq!(
            value, expect,
            "load of {addr:#x} via {path} observed stale data at cycle {}",
            self.now
        );
    }

    /// The architecturally visible value of the word at `addr`: the value
    /// a magically instantaneous load would observe, probing L1, then the
    /// write buffer, then L2, then main memory. Touches no LRU or timing
    /// state.
    ///
    /// The probe order mirrors the machine's own freshness rules: L1 is
    /// never stale (stores update a present line in place under either
    /// write policy), the buffer holds words newer than L2, and a perfect
    /// L2 defers to the backing memory it writes through to.
    pub(crate) fn read_word_architectural(&self, addr: Addr) -> u64 {
        let line = self.g.line_of(addr);
        let word = self.g.word_index(addr);
        if let Some(v) = self.l1.peek_word(line, word) {
            return v;
        }
        if let Some(v) = self.wb.read_word(addr) {
            return v;
        }
        if let Some(v) = self.l2.peek_word(line, word) {
            return v;
        }
        self.mem.read_word(self.g.word_addr(addr))
    }
}
