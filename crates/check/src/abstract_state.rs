//! Canonical abstract states for the reachability checker.
//!
//! The concrete machine is infinite-state: store values strictly increase,
//! `now` grows without bound, and entry ids are monotonic. None of that
//! matters to the control dynamics — the machine never branches on data —
//! so the checker quotients it away:
//!
//! * **Value blindness.** Every concrete word is classified relative to a
//!   [`ShadowTracker`] (the architectural "freshest value" map fed by
//!   `StoreAccepted` events): [`WordAbs::Fresh`] if it equals the freshest
//!   value for its address, [`WordAbs::Stale`] otherwise,
//!   [`WordAbs::Invalid`] for an absent word. This is sound because store
//!   values strictly increase: a stale word can never *become* fresh again,
//!   so two states with the same classification have the same future
//!   classifications (and the same violations) under every op sequence.
//! * **Time-shift invariance.** The snapshot carries countdowns
//!   (`done_at − now`), never absolute cycles — valid exactly for the
//!   configuration class the reachability checker gates on (`RCH003`),
//!   where no policy consults absolute time.
//! * **Line symmetry.** The two universe lines are interchangeable (the op
//!   universe is closed under swapping them and the datapath treats them
//!   identically), so the canonical state is the lexicographic minimum of
//!   the abstraction under the identity and under the swap.
//!
//! * **Completion commutation.** The non-blocking machine's MSHR file is
//!   abstracted as queued misses (in issue order — the port serves them in
//!   that order) followed by in-flight misses sorted by countdown: once
//!   issued, an MSHR's allocation order is never consulted again, and
//!   fills to distinct lines commute, so the sorted form is a sound
//!   partial-order reduction.
//!
//! The quotient is finite: at most `depth` entries × 2 lines × 3 word
//! classes per word × bounded countdowns × at most `mshrs` outstanding
//! misses.

use std::collections::HashMap;

use wbsim_sim::MachineSnapshot;
use wbsim_types::addr::{Geometry, LineAddr};

/// The value-blind classification of one word in one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WordAbs {
    /// The word is absent (valid-bit clear, line not resident, …).
    Invalid,
    /// The word holds the architecturally freshest value for its address.
    Fresh,
    /// The word holds a superseded value — reading it is a freshness bug.
    Stale,
}

/// One write-buffer entry, abstracted.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbsEntry {
    /// Index of the entry's line in the universe (0 or 1), under the
    /// current renaming.
    pub line: usize,
    /// Which aligned `width_words` block of the line the entry covers
    /// (always 0 for full-line entries). Retirement writes land at
    /// `sub × width_words`, so entries differing only here diverge.
    pub sub: usize,
    /// Whether a retirement or flush transaction for the entry is underway.
    pub retiring: bool,
    /// Per-word classification.
    pub words: Vec<WordAbs>,
}

/// One outstanding miss, abstracted. Ordered by countdown first so that
/// the issued suffix of [`AbsState::mshrs`] sorts into completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbsMshr {
    /// Cycles until the fill completes (`None` while queued for the port).
    pub countdown: Option<u64>,
    /// Index of the outstanding line in the universe (0 or 1), under the
    /// current renaming.
    pub line: usize,
}

/// The memory-side state of one universe line, abstracted.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbsLine {
    /// L1 contents (`None` when not resident).
    pub l1: Option<Vec<WordAbs>>,
    /// The L2-or-main-memory value of each word.
    pub mem: Vec<WordAbs>,
}

/// A canonical abstract machine state: the BFS node of the reachability
/// checker. Two concrete machines with the same `AbsState` are
/// behaviorally indistinguishable to every checked invariant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbsState {
    /// Write-buffer entries in FIFO (allocation) order.
    pub wb: Vec<AbsEntry>,
    /// Cycles until the in-flight autonomous retirement completes.
    pub retire_countdown: Option<u64>,
    /// Cycles until the L2 port frees.
    pub port_countdown: u64,
    /// Outstanding misses (non-blocking machine only): queued MSHRs first
    /// in issue order (the port serves them in that order), then issued
    /// MSHRs sorted by `(countdown, line)` — a partial-order reduction:
    /// once issued, an MSHR's allocation order is never consulted again,
    /// and in-flight completions to distinct lines commute, so states
    /// differing only in the issued suffix's order are behaviorally
    /// identical.
    pub mshrs: Vec<AbsMshr>,
    /// The universe lines, under the current renaming.
    pub lines: Vec<AbsLine>,
}

/// The architectural "freshest value" map the word classification is
/// relative to. Fed one `StoreAccepted` event at a time: the machine
/// assigns the k-th accepted store the value k, so the tracker's counter
/// mirrors the machine's value sequence exactly.
#[derive(Debug, Clone, Default)]
pub struct ShadowTracker {
    map: HashMap<u64, u64>,
    count: u64,
}

impl ShadowTracker {
    /// Records one accepted store to `word_addr` (in geometry word-address
    /// units). Must be called for every `StoreAccepted` event, in order.
    pub fn record_store(&mut self, word_addr: u64) {
        self.count += 1;
        self.map.insert(word_addr, self.count);
    }

    /// The architecturally freshest value for `word_addr` (0 for a
    /// never-written word — main memory's reset value).
    #[must_use]
    pub fn expected(&self, word_addr: u64) -> u64 {
        self.map.get(&word_addr).copied().unwrap_or(0)
    }

    /// Classifies a present concrete `value` at `word_addr`.
    #[must_use]
    pub fn classify(&self, word_addr: u64, value: u64) -> WordAbs {
        if value == self.expected(word_addr) {
            WordAbs::Fresh
        } else {
            WordAbs::Stale
        }
    }
}

/// Abstracts a snapshot without renaming: entry lines are indices into
/// `snap.lines` in snapshot order.
fn abstract_snapshot(g: &Geometry, snap: &MachineSnapshot, shadow: &ShadowTracker) -> AbsState {
    let classify_line = |line: u64, words: &[u64]| -> Vec<WordAbs> {
        let la = LineAddr::new(line);
        words
            .iter()
            .enumerate()
            .map(|(w, &v)| shadow.classify(g.word_addr_in_line(la, w), v))
            .collect()
    };
    let wb = snap
        .wb
        .iter()
        .map(|e| {
            // Blocks are aligned `width`-word groups: block b covers word
            // addresses b·width .. (b+1)·width, so with sub-line entries
            // the owning line is b / blocks_per_line.
            let width = e.words.len();
            let bpl = (g.words_per_line() / width) as u64;
            let line_no = e.block / bpl;
            let line = snap
                .lines
                .iter()
                .position(|l| l.line == line_no)
                .expect("write-buffer entry outside the bounded universe");
            AbsEntry {
                line,
                sub: (e.block % bpl) as usize,
                retiring: e.retiring,
                words: e
                    .words
                    .iter()
                    .enumerate()
                    .map(|(w, v)| match v {
                        None => WordAbs::Invalid,
                        Some(v) => shadow.classify(e.block * width as u64 + w as u64, *v),
                    })
                    .collect(),
            }
        })
        .collect();
    let mut queued = Vec::new();
    let mut issued = Vec::new();
    for m in &snap.mshrs {
        let line = snap
            .lines
            .iter()
            .position(|l| l.line == m.line)
            .expect("outstanding miss outside the bounded universe");
        let am = AbsMshr {
            countdown: m.countdown,
            line,
        };
        if m.countdown.is_some() {
            issued.push(am);
        } else {
            queued.push(am);
        }
    }
    issued.sort_unstable();
    queued.extend(issued);
    let lines = snap
        .lines
        .iter()
        .map(|ls| AbsLine {
            l1: ls.l1.as_deref().map(|ws| classify_line(ls.line, ws)),
            mem: classify_line(ls.line, &ls.mem),
        })
        .collect();
    AbsState {
        wb,
        retire_countdown: snap.retire_countdown,
        port_countdown: snap.port_countdown,
        mshrs: queued,
        lines,
    }
}

/// The abstraction of a snapshot under both line permutations: the
/// identity, and the line swap. The product checker needs both halves so
/// its joint (machine, monitor) visited key can take the minimum over the
/// *paired* permutations — independently minimizing each half could glue
/// mismatched renamings together and unsoundly merge distinct product
/// states.
///
/// # Panics
///
/// Panics if the snapshot does not cover exactly two lines, or if a
/// write-buffer entry's block lies outside them.
#[must_use]
pub(crate) fn abstract_both(
    g: &Geometry,
    snap: &MachineSnapshot,
    shadow: &ShadowTracker,
) -> (AbsState, AbsState) {
    assert_eq!(snap.lines.len(), 2, "the bounded universe has two lines");
    let a = abstract_snapshot(g, snap, shadow);
    let mut b = a.clone();
    b.lines.swap(0, 1);
    for e in &mut b.wb {
        e.line = 1 - e.line;
    }
    for m in &mut b.mshrs {
        m.line = 1 - m.line;
    }
    // Renaming perturbs the issued suffix's sort key; restore its
    // canonical (countdown, line) order. The queued prefix keeps issue
    // order, which renaming does not touch.
    let first_issued = b
        .mshrs
        .iter()
        .position(|m| m.countdown.is_some())
        .unwrap_or(b.mshrs.len());
    b.mshrs[first_issued..].sort_unstable();
    (a, b)
}

/// The canonical abstract state of a snapshot over the two universe lines:
/// the lexicographically smaller of the abstraction under the identity and
/// under the line swap.
///
/// # Panics
///
/// Panics if the snapshot does not cover exactly two lines, or if a
/// write-buffer entry's block lies outside them.
#[must_use]
pub fn canonical_state(g: &Geometry, snap: &MachineSnapshot, shadow: &ShadowTracker) -> AbsState {
    let (a, b) = abstract_both(g, snap, shadow);
    a.min(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_sim::{Machine, NullObserver, SimMachine};
    use wbsim_types::config::MachineConfig;
    use wbsim_types::op::Op;
    use wbsim_types::testutil::a;

    fn lines() -> [LineAddr; 2] {
        [LineAddr::new(0), LineAddr::new(1)]
    }

    fn state_after(ops: &[Op]) -> AbsState {
        let mut cfg = MachineConfig::baseline();
        cfg.check_data = false;
        let g = cfg.geometry;
        let mut m = Machine::new(cfg).unwrap();
        let mut shadow = ShadowTracker::default();
        for &op in ops {
            m.run_op_bounded(op, 10_000, &mut NullObserver).unwrap();
            if let Op::Store(addr) = op {
                shadow.record_store(g.word_addr(addr));
            }
        }
        canonical_state(&g, &m.snapshot(&lines()), &shadow)
    }

    #[test]
    fn classification_tracks_the_freshest_value() {
        let mut s = ShadowTracker::default();
        assert_eq!(s.classify(0x40, 0), WordAbs::Fresh, "unwritten words are 0");
        s.record_store(0x40);
        assert_eq!(s.expected(0x40), 1);
        assert_eq!(s.classify(0x40, 1), WordAbs::Fresh);
        assert_eq!(s.classify(0x40, 0), WordAbs::Stale);
        s.record_store(0x41);
        s.record_store(0x40);
        assert_eq!(s.expected(0x40), 3, "values strictly increase");
        assert_eq!(s.classify(0x40, 1), WordAbs::Stale, "stale never recovers");
    }

    #[test]
    fn line_swap_canonicalizes_symmetric_states() {
        // A store to line 0 and a store to line 1 reach line-swapped
        // concrete states; the canonical abstraction must coincide.
        assert_eq!(
            state_after(&[Op::Store(a(0, 0))]),
            state_after(&[Op::Store(a(1, 0))])
        );
        // Sanity: storing a different *word* is not symmetric.
        assert_ne!(
            state_after(&[Op::Store(a(0, 0))]),
            state_after(&[Op::Store(a(0, 1))])
        );
    }

    #[test]
    fn idle_time_does_not_change_the_state() {
        assert_eq!(
            state_after(&[Op::Store(a(0, 0))]),
            state_after(&[Op::Store(a(0, 0)), Op::Compute(17)]),
        );
    }

    #[test]
    fn fresh_and_stale_words_are_distinguished() {
        // Store word 0 twice: the write buffer's entry coalesces to the
        // newer value, staying Fresh; the state differs from a single
        // store only through the shadow — and must still canonicalize
        // identically, since both leave one Fresh buffered word.
        assert_eq!(
            state_after(&[Op::Store(a(0, 0))]),
            state_after(&[Op::Store(a(0, 0)), Op::Store(a(0, 0))]),
        );
    }
}
