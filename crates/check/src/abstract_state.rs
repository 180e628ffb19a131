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
//!
//! # The packed key
//!
//! A state is keyed by a byte string written straight from the machine's
//! [`StateView`] — no snapshot is built — once per line permutation; the
//! canonical key is the smaller string. Lines are named by their index in
//! the universe (0 or 1) under the permutation, and a word by its class
//! byte: 0 Invalid, 1 Fresh, 2 Stale. Counts and line indices take one
//! byte, countdowns an unsigned LEB128 varint. In order:
//!
//! 1. **Write buffer.** The entry count, then per entry in FIFO order:
//!    its line; which aligned `width_words` block of the line it covers
//!    (0 for full-line entries); 1 if a retirement or flush transaction
//!    for it is underway, else 0; its word count; one class per word.
//! 2. **Retirement.** 0 when no autonomous retirement is in flight, else
//!    1 and its countdown.
//! 3. **Port.** The countdown until the L2 port frees.
//! 4. **Misses.** The outstanding-miss count, then per miss a countdown
//!    (0 while queued for the port, else 1 and the cycles until its fill)
//!    and its line: queued misses first, in issue order, then issued
//!    misses sorted by (countdown, line).
//! 5. **Lines.** Per line in permuted order: 0 when it is not in L1, else
//!    1, its word count and one class per L1 word; then its word count
//!    and one class per word of its L2-or-memory value.
//!
//! Every field either has a fixed width or is preceded by its count, so
//! the encoding is prefix-free: concatenated keys (both machines of a
//! refinement pair, or a machine and its monitors) stay injective. Two
//! states share a key exactly when their abstractions coincide under one
//! of the permutations.

use wbsim_sim::StateView;
use wbsim_types::addr::LineAddr;

/// The value-blind classification of one word in one component; the
/// discriminant is its byte in the packed key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordAbs {
    /// The word is absent (valid-bit clear, line not resident, …).
    Invalid,
    /// The word holds the architecturally freshest value for its address.
    Fresh,
    /// The word holds a superseded value — reading it is a freshness bug.
    Stale,
}

/// The architectural "freshest value" map the word classification is
/// relative to. Fed one `StoreAccepted` event at a time: the machine
/// assigns the k-th accepted store the value k, so the tracker's counter
/// mirrors the machine's value sequence exactly.
///
/// The checkers' universe touches a handful of words, so the map is a
/// short list searched in order: a lookup hashes nothing, and a fork
/// into a tracker that held as many words allocates nothing.
#[derive(Debug, Default)]
pub struct ShadowTracker {
    /// `(word address, freshest value)`, one pair per written word.
    words: Vec<(u64, u64)>,
    count: u64,
}

wbsim_types::clone_fields!(ShadowTracker { words, count });

impl ShadowTracker {
    /// Records one accepted store to `word_addr` (in geometry word-address
    /// units). Must be called for every `StoreAccepted` event, in order.
    pub fn record_store(&mut self, word_addr: u64) {
        self.count += 1;
        match self.words.iter_mut().find(|(a, _)| *a == word_addr) {
            Some((_, v)) => *v = self.count,
            None => self.words.push((word_addr, self.count)),
        }
    }

    /// The architecturally freshest value for `word_addr` (0 for a
    /// never-written word — main memory's reset value).
    #[must_use]
    pub fn expected(&self, word_addr: u64) -> u64 {
        self.words
            .iter()
            .find(|(a, _)| *a == word_addr)
            .map_or(0, |&(_, v)| v)
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

/// Appends `n` as an unsigned LEB128 varint: seven bits a byte, low
/// first, the high bit set on every byte but the last.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push((n & 0x7f) as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Appends a count or index that the bounded universe keeps far below 256.
fn put_small(out: &mut Vec<u8>, n: usize) {
    out.push(u8::try_from(n).expect("counts in the bounded universe fit a byte"));
}

fn put_countdown(out: &mut Vec<u8>, countdown: Option<u64>) {
    match countdown {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            put_varint(out, c);
        }
    }
}

/// The packed canonical key of a state (see the module docs), built
/// under both line permutations side by side. The buffers are reused
/// from key to key: once they have grown to a key's length, writing a key
/// allocates nothing.
#[derive(Debug, Default)]
pub struct StateKey {
    /// The encoding under the identity.
    id: Vec<u8>,
    /// The encoding under the line swap.
    swap: Vec<u8>,
    /// Scratch: where `id` holds the line index of a write-buffer entry.
    renamed: Vec<usize>,
    /// Scratch: the outstanding misses in issue order, as (countdown,
    /// line index), and the issued ones to sort.
    misses: Vec<(Option<u64>, u8)>,
    issued: Vec<(u64, u8)>,
    /// Scratch: the two lines' components, one after the other.
    lines: Vec<u8>,
    /// Scratch: the freshest value of every word of the two lines.
    fresh: Vec<u64>,
}

impl StateKey {
    /// Empties both encodings for the next key.
    pub fn clear(&mut self) {
        self.id.clear();
        self.swap.clear();
    }

    /// Appends the abstraction of the machine `view` shows, over the two
    /// universe `lines`, under each permutation. The refinement checker
    /// pushes both machines of a pair, so the one permutation renames both
    /// halves. The view is read once: the swap renames and reorders what
    /// the identity wrote.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not two lines, or if a write-buffer entry or an
    /// outstanding miss lies outside them.
    pub fn push(&mut self, view: &StateView<'_>, lines: &[LineAddr], shadow: &ShadowTracker) {
        assert_eq!(lines.len(), 2, "the bounded universe has two lines");
        let Self {
            id,
            swap,
            renamed,
            misses,
            issued,
            lines: components,
            fresh,
        } = self;
        let g = view.geometry();
        let wpl = g.words_per_line();
        fresh.clear();
        for &line in lines {
            fresh.extend((0..wpl).map(|w| shadow.expected(g.word_addr_in_line(line, w))));
        }
        // The class of `value` as word `w` of universe line `i`.
        let class = |i: u8, w: usize, value: u64| {
            let abs = if value == fresh[usize::from(i) * wpl + w] {
                WordAbs::Fresh
            } else {
                WordAbs::Stale
            };
            abs as u8
        };
        let line_index = |line: u64, what: &str| {
            let i = lines
                .iter()
                .position(|l| l.as_u64() == line)
                .unwrap_or_else(|| panic!("{what} outside the bounded universe"));
            i as u8
        };

        // The write buffer, the retirement and the port, written once; the
        // swap copies them with every entry's line renamed.
        let start = id.len();
        renamed.clear();
        put_small(id, view.wb_len());
        for e in view.wb_entries() {
            // Blocks are aligned `width`-word groups: block b covers word
            // addresses b·width .. (b+1)·width, so with sub-line entries the
            // owning line is b / blocks_per_line.
            let width = e.data.len();
            let bpl = (wpl / width) as u64;
            let line = line_index(e.block / bpl, "write-buffer entry");
            let first = (e.block % bpl) as usize;
            renamed.push(id.len() - start);
            id.push(line);
            put_small(id, first);
            id.push(u8::from(e.retiring));
            put_small(id, width);
            for (w, &v) in e.data.iter().enumerate() {
                id.push(if e.mask.get(w) {
                    class(line, first * width + w, v)
                } else {
                    WordAbs::Invalid as u8
                });
            }
        }
        put_countdown(id, view.retire_countdown());
        put_varint(id, view.port_countdown());
        let at = swap.len();
        swap.extend_from_slice(&id[start..]);
        for &i in renamed.iter() {
            swap[at + i] ^= 1;
        }

        // The misses. Renaming perturbs the issued misses' sort key, so
        // each permutation sorts its own.
        misses.clear();
        misses.extend(
            view.mshrs()
                .map(|m| (m.countdown, line_index(m.line, "outstanding miss"))),
        );
        for (out, rename) in [(&mut *id, 0), (&mut *swap, 1)] {
            put_small(out, misses.len());
            issued.clear();
            for &(countdown, line) in misses.iter() {
                match countdown {
                    None => {
                        put_countdown(out, None);
                        out.push(line ^ rename);
                    }
                    Some(c) => issued.push((c, line ^ rename)),
                }
            }
            issued.sort_unstable();
            for &(c, line) in issued.iter() {
                put_countdown(out, Some(c));
                out.push(line);
            }
        }

        // The lines, each written once, in permuted order.
        components.clear();
        let mut second = 0;
        for (i, &line) in (0..).zip(lines) {
            if i == 1 {
                second = components.len();
            }
            let put_words = |out: &mut Vec<u8>, words: &[u64]| {
                put_small(out, words.len());
                for (w, &v) in words.iter().enumerate() {
                    out.push(class(i, w, v));
                }
            };
            match view.l1_line(line) {
                None => components.push(0),
                Some(words) => {
                    components.push(1);
                    put_words(components, words);
                }
            }
            put_words(components, view.mem_line(line));
        }
        let (first, last) = components.split_at(second);
        id.extend_from_slice(first);
        id.extend_from_slice(last);
        swap.extend_from_slice(last);
        swap.extend_from_slice(first);
    }

    /// Appends `write(out, swapped)` to each encoding: a key component
    /// that the line swap renames too (the monitors' bound addresses).
    pub fn push_with(&mut self, mut write: impl FnMut(&mut Vec<u8>, bool)) {
        write(&mut self.id, false);
        write(&mut self.swap, true);
    }

    /// The canonical key: the lexicographically smaller encoding.
    #[must_use]
    pub fn canonical(&self) -> &[u8] {
        std::cmp::min(&self.id, &self.swap)
    }

    /// Clears, pushes `view` and returns the canonical key.
    pub fn of(
        &mut self,
        view: &StateView<'_>,
        lines: &[LineAddr],
        shadow: &ShadowTracker,
    ) -> &[u8] {
        self.clear();
        self.push(view, lines, shadow);
        self.canonical()
    }
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

    fn state_after(ops: &[Op]) -> Vec<u8> {
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
        StateKey::default()
            .of(&m.view(), &lines(), &shadow)
            .to_vec()
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
    fn varints_are_leb128() {
        let enc = |n| {
            let mut out = Vec::new();
            put_varint(&mut out, n);
            out
        };
        assert_eq!(enc(0), [0]);
        assert_eq!(enc(0x7f), [0x7f]);
        assert_eq!(enc(0x80), [0x80, 0x01]);
        assert_eq!(enc(300), [0xac, 0x02]);
        assert_eq!(enc(u64::MAX).len(), 10);
    }

    #[test]
    fn the_key_spells_out_a_store_field_by_field() {
        // One store to word 0 of line 0 on the baseline machine: the entry
        // stays buffered below the retire-at mark, so memory's copy of the
        // word is stale; neither line is in L1.
        let (invalid, fresh, stale) = (0, 1, 2);
        #[rustfmt::skip]
        let want = [
            1, 0, 0, 0, 4, fresh, invalid, invalid, invalid, // one entry
            0,                                               // no retirement
            0,                                               // port free
            0,                                               // no misses
            0, 4, stale, fresh, fresh, fresh,                // line 0
            0, 4, fresh, fresh, fresh, fresh,                // line 1
        ];
        assert_eq!(state_after(&[Op::Store(a(0, 0))]), want);
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
