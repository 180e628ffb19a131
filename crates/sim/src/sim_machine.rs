//! The interface the model checkers drive both machines through.

use std::io;

use wbsim_types::addr::{Addr, LineAddr};
use wbsim_types::config::{ConfigError, MachineConfig};
use wbsim_types::op::Op;
use wbsim_types::stats::SimStats;

use crate::machine::{Engine, Machine, MachineSnapshot, SkipSpan};
use crate::nonblocking::NonBlockingMachine;
use crate::observer::{JsonlObserver, Observer};

/// The blocking [`crate::Machine`] and the [`crate::NonBlockingMachine`]
/// seen through one interface: everything the model checkers
/// (`wbsim-check`) call, so each checker is written once and
/// monomorphized per machine.
///
/// Every entry point single-steps the machine except
/// [`SimMachine::run_observed`], [`SimMachine::run_op_skipping`] and
/// [`SimMachine::run_to_end_bounded`], which run under the selected
/// [`Engine`].
pub trait SimMachine: Clone + Send {
    /// Builds the machine from its configuration: `mshrs` is the
    /// non-blocking machine's miss-register count, and `None` for the
    /// blocking machine.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] when the configuration is invalid for this
    /// machine, or `mshrs` does not fit it.
    fn build(cfg: MachineConfig, mshrs: Option<usize>) -> Result<Self, ConfigError>;

    /// The continuous run users run: every op of `ops` under the selected
    /// [`Engine`], with the cycle count finalized (each machine's inherent
    /// `run_observed`).
    fn run_observed<I, O>(&mut self, ops: I, obs: &mut O) -> SimStats
    where
        I: IntoIterator<Item = Op>,
        O: Observer;

    /// Advances the machine by exactly one cycle, closing it with an
    /// [`crate::Event::CycleEnd`]. Returns `false` once the stream is
    /// exhausted and all buffered work has drained — that final call
    /// consumes no cycle. Statistics accumulate as in a full run, except
    /// `cycles`, which only the `run_*` wrappers finalize.
    fn step<I, O>(&mut self, iter: &mut I, obs: &mut O) -> bool
    where
        I: Iterator<Item = Op>,
        O: Observer;

    /// Runs exactly one op from an op boundary until the CPU is ready for
    /// the next op, giving up after `max_cycles` more cycles (`None`, with
    /// the machine left mid-op — a livelock probe). On completion returns
    /// the new timestamp.
    ///
    /// Feeding ops one at a time this way is equivalent to one continuous
    /// run over the concatenated stream: the same cycles elapse and the
    /// observer sees the same events (the boundary-detecting iteration
    /// consumes no cycle and only performs completion work the next op's
    /// first cycle repeats at the same timestamp).
    ///
    /// # Panics
    ///
    /// Debug-asserts that the machine is at an op boundary.
    fn run_op_bounded<O: Observer>(&mut self, op: Op, max_cycles: u64, obs: &mut O) -> Option<u64>;

    /// [`SimMachine::run_op_bounded`] through the engine-selected run
    /// loop: under [`Engine::EventDriven`] the op runs with the span skips
    /// (and, on the blocking machine, the op fast lane) of a full run;
    /// under [`Engine::Reference`] this is `run_op_bounded`. The
    /// refinement checker drives one machine of each engine through it and
    /// compares the event streams.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the machine is at an op boundary.
    fn run_op_skipping<O: Observer>(&mut self, op: Op, max_cycles: u64, obs: &mut O)
        -> Option<u64>;

    /// Runs the end-of-stream tail under the engine-selected loop with no
    /// further ops, giving up after `max_cycles` more cycles. The blocking
    /// machine stops at the op boundary (buffered entries stay resident,
    /// as in a full run), so it returns at once; the non-blocking machine
    /// lands its outstanding fills and retirements.
    fn run_to_end_bounded<O: Observer>(&mut self, max_cycles: u64, obs: &mut O) -> Option<u64>;

    /// One cycle of a forced drain: retirement runs at the maximum rate
    /// and outstanding misses complete, but no op issues. Returns `false`
    /// — consuming no cycle — once nothing is left to drain.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no instruction is mid-flight.
    fn drain_step<O: Observer>(&mut self, obs: &mut O) -> bool;

    /// A value-level structural snapshot with every countdown relative to
    /// `now`, so time-shifted machines snapshot identically; see
    /// [`MachineSnapshot`].
    fn snapshot(&self, lines: &[LineAddr]) -> MachineSnapshot;

    /// The lines with an outstanding miss, in no particular order — always
    /// empty on the blocking machine. Borrowed, so a per-cycle structural
    /// check costs no allocation.
    fn mshr_lines(&self) -> impl Iterator<Item = LineAddr> + Clone + '_;

    /// The current timestamp.
    fn now(&self) -> u64;

    /// The accumulated statistics.
    fn stats(&self) -> &SimStats;

    /// The write-buffer occupancy in entries.
    fn wb_occupancy(&self) -> usize;

    /// Dirty L1 victims that allocated a write-buffer entry.
    fn wb_victim_allocs(&self) -> u64;

    /// The architecturally visible value of the word at `addr`.
    fn read_word_architectural(&self, addr: Addr) -> u64;

    /// Selects the run-loop [`Engine`].
    fn set_engine(&mut self, engine: Engine);

    /// Switches recording of the event-driven engine's [`SkipSpan`]s.
    fn set_record_skips(&mut self, record: bool);

    /// Drains the [`SkipSpan`]s recorded since the last call.
    fn take_skips(&mut self) -> Vec<SkipSpan>;
}

/// Records one complete execution as JSON lines into `out`: `ops` on the
/// blocking machine when `mshrs` is 0, else on the non-blocking machine
/// with `mshrs` miss registers, under `engine`; then the write buffer
/// drains ([`SimMachine::drain_step`]), so every accepted store's
/// retirement is on the record, as the liveness monitors of
/// `wbsim trace validate --prop` require at the end of a stream.
/// `wbsim trace events` and trace jobs both capture through here, so they
/// write the same bytes. Call [`JsonlObserver::finish`] on the result.
///
/// # Errors
///
/// A [`ConfigError`] when `cfg` (with `mshrs`) is invalid for the machine.
pub fn capture_events<W: io::Write>(
    cfg: MachineConfig,
    mshrs: usize,
    engine: Engine,
    ops: impl IntoIterator<Item = Op>,
    out: W,
) -> Result<JsonlObserver<W>, ConfigError> {
    fn capture<M: SimMachine, W: io::Write>(
        mut m: M,
        engine: Engine,
        ops: impl IntoIterator<Item = Op>,
        out: W,
    ) -> JsonlObserver<W> {
        m.set_engine(engine);
        let mut w = JsonlObserver::new(out);
        m.run_observed(ops, &mut w);
        while m.drain_step(&mut w) {}
        w
    }
    Ok(if mshrs > 0 {
        capture(NonBlockingMachine::new(cfg, mshrs)?, engine, ops, out)
    } else {
        capture(Machine::new(cfg)?, engine, ops, out)
    })
}
