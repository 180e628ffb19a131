//! Observers: structured-event sinks for the simulated machines.
//!
//! The machines' run loops are generic over an [`Observer`], which
//! receives every [`Event`] the hierarchy emits. [`NullObserver`] is the
//! plain-run path: its handler is an inlineable no-op, so event
//! construction folds away entirely and `run` costs the same as before
//! the observability layer existed. [`HistogramObserver`] aggregates the
//! stream into the paper's design-guidance distributions (occupancy,
//! high-water mark and headroom, retirement latency, stall-burst
//! lengths); [`JsonlObserver`] writes the stream as JSON lines, and the
//! differential oracle brings its own implementation.

use std::io;

use crate::event::Event;

/// A sink for the machine's structured event stream.
///
/// Implementations are pure observers: the machine's behavior and
/// statistics are identical under any observer. Events arrive in
/// emission order; [`Event::CycleEnd`] arrives exactly once per
/// simulated cycle, after that cycle's other events.
pub trait Observer {
    /// Whether `event` is statically known to ignore everything.
    ///
    /// The event-driven engine replays per-cycle events ([`Event::StallCycle`],
    /// [`Event::CycleEnd`]) across a skipped span so observers see a stream
    /// identical to the cycle-stepped engine's; when this is `true` the
    /// replay loop is skipped entirely. Leave the default unless the
    /// implementation genuinely discards every event.
    const IS_NOOP: bool = false;

    /// Receives one event.
    fn event(&mut self, ev: &Event);
}

/// Writes every event as one JSON line ([`Event::to_json`]) to a sink:
/// a file or stdout for `wbsim trace events`, memory for trace jobs. An
/// I/O error is latched rather than panicking mid-simulation; later
/// events are dropped and [`JsonlObserver::finish`] returns the error.
#[derive(Debug)]
pub struct JsonlObserver<W: io::Write> {
    out: W,
    line: String,
    /// Events written so far, or the first write error.
    written: io::Result<u64>,
}

impl<W: io::Write> JsonlObserver<W> {
    /// An observer writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlObserver {
            out,
            line: String::new(),
            written: Ok(0),
        }
    }

    /// Flushes the sink and returns it with the number of events written.
    ///
    /// # Errors
    ///
    /// The first write error, or the flush's.
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        let count = self.written?;
        self.out.flush()?;
        Ok((self.out, count))
    }
}

impl<W: io::Write> Observer for JsonlObserver<W> {
    fn event(&mut self, ev: &Event) {
        let Ok(count) = &mut self.written else {
            return;
        };
        self.line.clear();
        ev.write_json(&mut self.line);
        self.line.push('\n');
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => *count += 1,
            Err(e) => self.written = Err(e),
        }
    }
}

/// The zero-cost observer: ignores everything. [`crate::Machine::run`]
/// and [`crate::NonBlockingMachine::run`] run under this.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    const IS_NOOP: bool = true;

    #[inline(always)]
    fn event(&mut self, _ev: &Event) {}
}

/// Fans one event stream out to two observers, first `a` then `b` per
/// event. Lets a single run drive independent sinks — e.g. a trace
/// recorder alongside a property monitor — without either knowing about
/// the other. `IS_NOOP` propagates only when both halves are no-ops, so
/// the event-driven engine's span replay stays exact for the pair.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tee<A, B>(
    /// The first sink (sees each event before the second).
    pub A,
    /// The second sink.
    pub B,
);

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    const IS_NOOP: bool = A::IS_NOOP && B::IS_NOOP;

    #[inline]
    fn event(&mut self, ev: &Event) {
        self.0.event(ev);
        self.1.event(ev);
    }
}

/// Aggregates the event stream into occupancy, latency, and stall-burst
/// distributions — the "how close to full does the buffer run" numbers
/// the paper's depth-vs-headroom guidance turns on.
///
/// Feed it to a machine's `run_observed`, then read the accessors.
/// Occupancy is sampled at every [`Event::CycleEnd`]; a *stall burst* is
/// a maximal run of consecutive cycles each containing at least one
/// [`Event::StallCycle`]; retirement latency is the allocation-to-
/// completion lifetime carried by [`Event::RetireComplete`].
#[derive(Debug, Clone)]
pub struct HistogramObserver {
    depth: usize,
    occupancy_hist: [u64; 17],
    cycles: u64,
    high_water: u64,
    retire_latency_sum: u64,
    retire_latency_max: u64,
    retirements: u64,
    stalled_this_cycle: bool,
    current_burst: u64,
    closed_bursts: u64,
    burst_len_sum: u64,
    burst_len_max: u64,
}

impl HistogramObserver {
    /// Creates an observer for a buffer of `depth` entries (used only to
    /// report headroom; the histogram clamps at 16 like `WbDetail`).
    #[must_use]
    pub fn new(depth: usize) -> Self {
        Self {
            depth,
            occupancy_hist: [0; 17],
            cycles: 0,
            high_water: 0,
            retire_latency_sum: 0,
            retire_latency_max: 0,
            retirements: 0,
            stalled_this_cycle: false,
            current_burst: 0,
            closed_bursts: 0,
            burst_len_sum: 0,
            burst_len_max: 0,
        }
    }

    /// Cycles observed (CycleEnd events).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Occupancy distribution: `hist()[k]` counts cycles ending with `k`
    /// entries occupied (the last bin aggregates `>= 16`).
    #[must_use]
    pub fn hist(&self) -> &[u64; 17] {
        &self.occupancy_hist
    }

    /// Mean end-of-cycle occupancy in entries.
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .occupancy_hist
            .iter()
            .enumerate()
            .map(|(occ, &n)| occ as u64 * n)
            .sum();
        weighted as f64 / self.cycles as f64
    }

    /// The highest occupancy any cycle ended with.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Entries of configured depth that were never simultaneously in use:
    /// `depth - high_water` (saturating).
    #[must_use]
    pub fn headroom(&self) -> u64 {
        (self.depth as u64).saturating_sub(self.high_water)
    }

    /// Completed retirement/flush transactions observed.
    #[must_use]
    pub fn retirements(&self) -> u64 {
        self.retirements
    }

    /// Mean allocation-to-completion lifetime of retired entries, in
    /// cycles.
    #[must_use]
    pub fn mean_retirement_latency(&self) -> f64 {
        if self.retirements == 0 {
            0.0
        } else {
            self.retire_latency_sum as f64 / self.retirements as f64
        }
    }

    /// Longest allocation-to-completion lifetime observed.
    #[must_use]
    pub fn max_retirement_latency(&self) -> u64 {
        self.retire_latency_max
    }

    /// Stall bursts observed (a trailing burst still open at the end of
    /// the run counts).
    #[must_use]
    pub fn burst_count(&self) -> u64 {
        self.closed_bursts + u64::from(self.current_burst > 0)
    }

    /// Mean stall-burst length in cycles.
    #[must_use]
    pub fn mean_burst_len(&self) -> f64 {
        let n = self.burst_count();
        if n == 0 {
            0.0
        } else {
            (self.burst_len_sum + self.current_burst) as f64 / n as f64
        }
    }

    /// Longest stall burst in cycles.
    #[must_use]
    pub fn max_burst_len(&self) -> u64 {
        self.burst_len_max.max(self.current_burst)
    }
}

impl Observer for HistogramObserver {
    fn event(&mut self, ev: &Event) {
        match *ev {
            Event::StallCycle { .. } => {
                self.stalled_this_cycle = true;
            }
            Event::RetireComplete { lifetime, .. } => {
                self.retirements += 1;
                self.retire_latency_sum += lifetime;
                self.retire_latency_max = self.retire_latency_max.max(lifetime);
            }
            Event::CycleEnd { occupancy, .. } => {
                self.cycles += 1;
                self.occupancy_hist[occupancy.min(16) as usize] += 1;
                self.high_water = self.high_water.max(occupancy);
                if self.stalled_this_cycle {
                    self.current_burst += 1;
                } else if self.current_burst > 0 {
                    self.closed_bursts += 1;
                    self.burst_len_sum += self.current_burst;
                    self.burst_len_max = self.burst_len_max.max(self.current_burst);
                    self.current_burst = 0;
                }
                self.stalled_this_cycle = false;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_types::stall::StallKind;

    fn cycle(obs: &mut HistogramObserver, occupancy: u64, stalled: bool) {
        if stalled {
            obs.event(&Event::StallCycle {
                now: 0,
                kind: StallKind::BufferFull,
            });
        }
        obs.event(&Event::CycleEnd { now: 0, occupancy });
    }

    #[test]
    fn occupancy_and_high_water() {
        let mut obs = HistogramObserver::new(8);
        for occ in [0, 1, 3, 3, 2] {
            cycle(&mut obs, occ, false);
        }
        assert_eq!(obs.cycles(), 5);
        assert_eq!(obs.high_water(), 3);
        assert_eq!(obs.headroom(), 5);
        assert_eq!(obs.hist()[3], 2);
        let mean = obs.mean_occupancy();
        assert!((mean - 1.8).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn bursts_split_on_clean_cycles() {
        let mut obs = HistogramObserver::new(4);
        // Burst of 2, clean, burst of 3 (left open at the end).
        for stalled in [true, true, false, true, true, true] {
            cycle(&mut obs, 1, stalled);
        }
        assert_eq!(obs.burst_count(), 2);
        assert_eq!(obs.max_burst_len(), 3);
        let mean = obs.mean_burst_len();
        assert!((mean - 2.5).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn retirement_latency_tracks_lifetimes() {
        let mut obs = HistogramObserver::new(4);
        for lifetime in [6, 10] {
            obs.event(&Event::RetireComplete {
                now: 0,
                id: 0,
                line: 0,
                lifetime,
                valid_words: 4,
                flush: false,
            });
        }
        assert_eq!(obs.retirements(), 2);
        assert_eq!(obs.max_retirement_latency(), 10);
        assert!((obs.mean_retirement_latency() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn tee_feeds_both_sinks_in_order_and_propagates_noop() {
        let mut tee = Tee(HistogramObserver::new(4), HistogramObserver::new(4));
        tee.event(&Event::CycleEnd {
            now: 0,
            occupancy: 2,
        });
        assert_eq!(tee.0.cycles(), 1);
        assert_eq!(tee.1.cycles(), 1);
        const { assert!(<Tee<NullObserver, NullObserver> as Observer>::IS_NOOP) };
        const { assert!(!<Tee<NullObserver, HistogramObserver> as Observer>::IS_NOOP) };
    }

    #[test]
    fn empty_observer_is_all_zeroes() {
        let obs = HistogramObserver::new(4);
        assert_eq!(obs.burst_count(), 0);
        assert_eq!(obs.mean_burst_len(), 0.0);
        assert_eq!(obs.mean_occupancy(), 0.0);
        assert_eq!(obs.headroom(), 4);
    }
}
