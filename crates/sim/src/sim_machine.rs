//! The interface the model checkers drive both machines through.

use std::io;

use wbsim_types::addr::{Addr, LineAddr};
use wbsim_types::config::{ConfigError, MachineConfig};
use wbsim_types::op::Op;
use wbsim_types::stats::SimStats;

use crate::hierarchy::{Engine, SkipSpan};
use crate::machine::Machine;
use crate::nonblocking::NonBlockingMachine;
use crate::observer::{JsonlObserver, Observer};
use crate::view::StateView;

/// The blocking [`crate::Machine`] and the [`crate::NonBlockingMachine`]
/// seen through one interface: everything the model checkers
/// (`wbsim-check`) and the other crates call, so each checker is written
/// once and monomorphized per machine. A machine's inherent methods are
/// only its constructors, the runs this trait has no form of (plain,
/// warmup, ideal and folded runs) and what the benchmark package
/// (`perfbench/`) calls.
///
/// One engine rule: every entry point that runs to a boundary
/// ([`SimMachine::run_observed`], [`SimMachine::run_op_bounded`],
/// [`SimMachine::run_to_end_bounded`]) runs under the machine's
/// [`Engine`], and the one-cycle entry points ([`SimMachine::step`],
/// [`SimMachine::step_op`], [`SimMachine::drain_step`]) step under
/// either. A checker that must single-step builds its machines with
/// [`Engine::Reference`].
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

    /// The continuous run users run: every op of `ops`, with the cycle
    /// count finalized. The blocking machine stops at the last op's
    /// boundary; the non-blocking machine also lands its outstanding
    /// misses and retirements.
    ///
    /// # Panics
    ///
    /// Panics if `check_data` is enabled and a load observes a value other
    /// than the freshest store — a simulator bug, never a property of a
    /// configuration.
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

    /// One cycle toward the next op boundary: [`SimMachine::step`], except
    /// that a machine whose stream ran dry first resumes at its op
    /// boundary, and that once the CPU is ready for an op `iter` no
    /// longer has, the call returns `false` — consuming no cycle — with
    /// outstanding misses and retirements left in flight, where
    /// [`SimMachine::run_op_bounded`] leaves them. Stepping `once(op)` to
    /// `false` therefore runs `op` one cycle at a time, and ops fed this
    /// way, followed by `step` with no ops, replay one continuous run
    /// cycle for cycle and event for event.
    fn step_op<I, O>(&mut self, iter: &mut I, obs: &mut O) -> bool
    where
        I: Iterator<Item = Op>,
        O: Observer;

    /// Runs exactly one op from an op boundary until the CPU is ready for
    /// the next op, giving up after `max_cycles` more cycles (`None`, with
    /// the machine left mid-op — a livelock probe; a span jump may carry
    /// the event-driven engine past the limit). On completion returns the
    /// new timestamp.
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

    /// Runs the end-of-stream tail with no further ops, giving up after
    /// `max_cycles` more cycles. The blocking machine stops at the op
    /// boundary (buffered entries stay resident, as in a full run), so it
    /// returns at once; the non-blocking machine lands its outstanding
    /// fills and retirements.
    fn run_to_end_bounded<O: Observer>(&mut self, max_cycles: u64, obs: &mut O) -> Option<u64>;

    /// One cycle of a forced drain: retirement runs at the maximum rate
    /// and outstanding misses complete, but no op issues. Returns `false`
    /// — consuming no cycle — once nothing is left to drain. The
    /// reachability checker's liveness analysis walks this deterministic
    /// drain schedule from every reachable state: a state cycle without
    /// retirement progress under it is a livelock.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no instruction is mid-flight.
    fn drain_step<O: Observer>(&mut self, obs: &mut O) -> bool;

    /// The borrowed view of the state the checkers abstract, every
    /// countdown relative to `now`; see [`StateView`].
    fn view(&self) -> StateView<'_>;

    /// The lines with an outstanding miss, in no particular order — always
    /// empty on the blocking machine. Borrowed, so a per-cycle structural
    /// check costs no allocation.
    fn mshr_lines(&self) -> impl Iterator<Item = LineAddr> + Clone + '_;

    /// The current timestamp.
    fn now(&self) -> u64;

    /// The accumulated statistics.
    fn stats(&self) -> &SimStats;

    /// The write-buffer occupancy in entries, one mid-retirement included.
    /// After a run this is the residual occupancy term of the
    /// entry-conservation identity.
    fn wb_occupancy(&self) -> usize;

    /// Dirty L1 victims that *allocated* a write-buffer entry (victims
    /// merging into an existing entry for the same block are not
    /// counted). Always zero under a write-through L1.
    fn wb_victim_allocs(&self) -> u64;

    /// The architecturally visible value of the word at `addr`: the value
    /// a magically instantaneous load would observe, probing L1, then the
    /// write buffer, then L2, then main memory. Touches no LRU or timing
    /// state.
    fn read_word_architectural(&self, addr: Addr) -> u64;

    /// Selects the [`Engine`] of the run-to-boundary entry points.
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
