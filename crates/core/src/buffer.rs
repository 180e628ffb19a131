//! The coalescing write buffer itself.
//!
//! [`WriteBuffer`] models the structure of paper §2.2: a small array of
//! entries, probed in parallel by each incoming store; stores merge on a tag
//! match (unless that entry is mid-retirement), allocate on a miss, and
//! block when no entry is free. Retirement *order* (FIFO, or LRU for the
//! write-cache ablation) and flush *planning* for each load-hazard policy
//! are computed here; the simulator supplies the clock and the L2 port.
//!
//! # Representation
//!
//! The buffer is a fixed slab of `depth` slots (≤ 64, enforced by
//! configuration validation) whose valid and mid-retirement bookkeeping is
//! packed into single `u64` bitset words (`occupied`, `retiring`). Tag
//! probes walk set bits with `trailing_zeros`, so the hot operations —
//! store merge/allocate, hazard probe, forwarding read — touch no heap and
//! scan only occupied slots. FIFO (allocation) order is kept separately in
//! `order_fifo`, since slot indices are reused.
//!
//! # Invariant
//!
//! At most one **non-retiring** entry exists per block. A duplicate can
//! only arise when a store finds its matching entry mid-retirement and must
//! allocate afresh; because underway transactions are never preempted, the
//! older duplicate always reaches L2 before the newer one can, so L2 never
//! sees stale data. [`WriteBuffer`] asserts this invariant in debug builds.

use wbsim_types::addr::{Addr, Geometry, LineAddr, WordMask};
use wbsim_types::config::{ConfigError, WriteBufferConfig};
use wbsim_types::policy::{LoadHazardPolicy, RetirementOrder};
use wbsim_types::Cycle;

use crate::entry::{Entry, EntryId, RetiredBlock};

/// What happened to a store presented to the buffer (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The store merged into an existing entry (a write-buffer "hit").
    Merged,
    /// The store allocated a new entry.
    Allocated,
    /// No entry was available; the store must stall (a buffer-full stall).
    Full,
}

/// The coalescing write buffer. See the module docs.
#[derive(Debug)]
pub struct WriteBuffer {
    /// Fixed slab of `depth` slots; `occupied` says which hold an entry.
    /// Slot data (including each entry's word `Vec`) is allocated once and
    /// reused across tenants, so stores never hit the allocator.
    slots: Vec<Entry>,
    /// Bit `i` set ⇔ `slots[i]` holds a live entry.
    occupied: u64,
    /// Bit `i` set ⇔ `slots[i]` is mid-retirement (subset of `occupied`).
    retiring: u64,
    /// Occupied slot indices in FIFO (allocation) order; front = oldest.
    order_fifo: Vec<u8>,
    /// A line-sized buffer holding the last retired entry's words at their
    /// line offsets, which [`WriteBuffer::take_retired`] lends out.
    retired: Vec<u64>,
    next_id: EntryId,
    depth: usize,
    width_words: usize,
    blocks_per_line: usize,
    /// `log2(width_words)` and `log2(blocks_per_line)`: both are powers
    /// of two (configuration validation), so tag math is shifts and masks.
    width_shift: u32,
    blocks_shift: u32,
    order: RetirementOrder,
    geometry: Geometry,
}

wbsim_types::clone_fields!(WriteBuffer {
    slots,
    occupied,
    retiring,
    order_fifo,
    retired,
    next_id,
    depth,
    width_words,
    blocks_per_line,
    width_shift,
    blocks_shift,
    order,
    geometry
});

impl WriteBuffer {
    /// Builds an empty buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `cfg` is invalid for `geometry`.
    pub fn new(cfg: &WriteBufferConfig, geometry: &Geometry) -> Result<Self, ConfigError> {
        cfg.validate(geometry)?;
        let slots = (0..cfg.depth)
            .map(|_| Entry {
                id: EntryId::MAX,
                block: u64::MAX,
                mask: WordMask::empty(),
                data: vec![0; cfg.width_words],
                alloc_cycle: 0,
                last_touch: 0,
                retiring: false,
            })
            .collect();
        Ok(Self {
            slots,
            occupied: 0,
            retiring: 0,
            order_fifo: Vec::with_capacity(cfg.depth),
            retired: vec![0; geometry.words_per_line()],
            next_id: 0,
            depth: cfg.depth,
            width_words: cfg.width_words,
            blocks_per_line: geometry.words_per_line() / cfg.width_words,
            width_shift: cfg.width_words.trailing_zeros(),
            blocks_shift: (geometry.words_per_line() / cfg.width_words).trailing_zeros(),
            order: cfg.order,
            geometry: *geometry,
        })
    }

    /// Number of occupied entries (including one mid-retirement).
    #[inline]
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// Whether every entry is occupied.
    #[inline]
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.occupancy() >= self.depth
    }

    /// Number of free entries.
    #[must_use]
    pub fn free_entries(&self) -> usize {
        self.depth - self.occupancy()
    }

    /// Entry width in words.
    #[must_use]
    pub fn width_words(&self) -> usize {
        self.width_words
    }

    /// Iterates over occupied entries in FIFO (oldest-first) order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.order_fifo.iter().map(|&s| &self.slots[s as usize])
    }

    /// The block tag covering byte address `a`.
    #[inline]
    #[must_use]
    pub fn block_of(&self, a: Addr) -> u64 {
        self.geometry.word_addr(a) >> self.width_shift
    }

    #[inline]
    fn word_in_block(&self, a: Addr) -> usize {
        (self.geometry.word_addr(a) as usize) & (self.width_words - 1)
    }

    /// Slot index of the non-retiring entry for `block`, if one exists
    /// (the invariant guarantees at most one).
    #[inline]
    fn nonretiring_slot(&self, block: u64) -> Option<usize> {
        let mut m = self.occupied & !self.retiring;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            if self.slots[i].block == block {
                return Some(i);
            }
            m &= m - 1;
        }
        None
    }

    /// Presents a store to the buffer (paper §2.2): merge on a tag match
    /// with a non-retiring entry, allocate on a miss, report
    /// [`StoreOutcome::Full`] when neither is possible.
    pub fn store(&mut self, a: Addr, value: u64, now: Cycle) -> StoreOutcome {
        let block = self.block_of(a);
        let word = self.word_in_block(a);
        // Parallel tag compare; only non-retiring entries can accept the
        // merge ("Stores cannot normally merge into an entry that is being
        // retired", §2.2).
        if let Some(i) = self.nonretiring_slot(block) {
            let e = &mut self.slots[i];
            e.mask.set(word);
            e.data[word] = value;
            e.last_touch = now;
            return StoreOutcome::Merged;
        }
        if self.is_full() {
            return StoreOutcome::Full;
        }
        let i = self.alloc_slot(block, now);
        let e = &mut self.slots[i];
        e.mask.set(word);
        e.data[word] = value;
        debug_assert!(self.check_invariant());
        StoreOutcome::Allocated
    }

    /// Whether a store to `a` would be accepted right now (merge or
    /// allocate) — the buffer-full stall predicate, inverted. Equivalent
    /// to `store(a, ..) != Full` without mutating anything.
    #[inline]
    #[must_use]
    pub fn can_accept(&self, a: Addr) -> bool {
        !self.is_full() || self.nonretiring_slot(self.block_of(a)).is_some()
    }

    /// Whether a non-retiring entry exists for `block` — the merge-target
    /// probe victim insertion and the conservation counters use.
    #[inline]
    #[must_use]
    pub fn has_nonretiring_block(&self, block: u64) -> bool {
        self.nonretiring_slot(block).is_some()
    }

    /// Claims a free slot, resets it for a fresh entry covering `block`,
    /// appends it to the FIFO order, and returns its index.
    fn alloc_slot(&mut self, block: u64, now: Cycle) -> usize {
        debug_assert!(!self.is_full());
        let i = (!self.occupied).trailing_zeros() as usize;
        debug_assert!(i < self.depth);
        self.occupied |= 1 << i;
        self.order_fifo.push(i as u8);
        let id = self.next_id;
        self.next_id += 1;
        let e = &mut self.slots[i];
        e.id = id;
        e.block = block;
        e.mask = WordMask::empty();
        e.data.fill(0);
        e.alloc_cycle = now;
        e.last_touch = now;
        e.retiring = false;
        i
    }

    /// Inserts a whole dirty line (a write-back L1's victim). Merges into
    /// an existing non-retiring entry for the block if one exists,
    /// otherwise allocates. Returns `false` (and does nothing) when the
    /// buffer is full.
    ///
    /// # Panics
    ///
    /// Panics if the buffer's entries are not line-wide (a victim buffer
    /// needs `width_words == words_per_line`) or `data` is shorter than a
    /// line.
    pub fn insert_line(&mut self, line: LineAddr, data: &[u64], now: Cycle) -> bool {
        assert_eq!(
            self.blocks_per_line, 1,
            "victim insertion requires line-wide entries"
        );
        assert!(data.len() >= self.width_words);
        let block = line.as_u64();
        if let Some(i) = self.nonretiring_slot(block) {
            let e = &mut self.slots[i];
            e.mask = WordMask::full(self.width_words);
            e.data.copy_from_slice(&data[..self.width_words]);
            e.last_touch = now;
            return true;
        }
        if self.is_full() {
            return false;
        }
        let i = self.alloc_slot(block, now);
        let e = &mut self.slots[i];
        e.mask = WordMask::full(self.width_words);
        e.data.copy_from_slice(&data[..self.width_words]);
        debug_assert!(self.check_invariant());
        true
    }

    fn check_invariant(&self) -> bool {
        // At most one non-retiring entry per block: no later non-retiring
        // slot repeats an earlier one's block.
        let mut m = self.occupied & !self.retiring;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let mut later = m;
            while later != 0 {
                if self.slots[later.trailing_zeros() as usize].block == self.slots[i].block {
                    return false;
                }
                later &= later - 1;
            }
        }
        true
    }

    #[inline]
    fn block_range_of_line(&self, line: LineAddr) -> (u64, u64) {
        let first = line.as_u64() << self.blocks_shift;
        (first, first + self.blocks_per_line as u64)
    }

    /// Whether any occupied entry's block overlaps cache line `line` — the
    /// allocation-free form of the load-hazard probe.
    #[inline]
    #[must_use]
    pub fn has_line(&self, line: LineAddr) -> bool {
        let (first, last) = self.block_range_of_line(line);
        let mut m = self.occupied;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            let b = self.slots[i].block;
            if b >= first && b < last {
                return true;
            }
            m &= m - 1;
        }
        false
    }

    /// Ids of entries (FIFO order) whose block overlaps cache line `line` —
    /// the load-hazard probe ("an L1 load miss can check the write buffer",
    /// §2.2). A hazard occurs "even if the word needed by the read miss
    /// does not reside in the buffer, but some other portion of that cache
    /// line is active".
    #[must_use]
    pub fn probe_line(&self, line: LineAddr) -> Vec<EntryId> {
        let (first, last) = self.block_range_of_line(line);
        self.iter()
            .filter(|e| e.block >= first && e.block < last)
            .map(|e| e.id)
            .collect()
    }

    /// Reads the freshest buffered value of the word at `a`, if any entry
    /// holds it valid (the read-from-WB datapath). Prefers the non-retiring
    /// entry, which is always the newer of a duplicate pair.
    #[must_use]
    pub fn read_word(&self, a: Addr) -> Option<u64> {
        let block = self.block_of(a);
        let word = self.word_in_block(a);
        // Oldest-first scan taking the first non-retiring hit (under the
        // invariant there is at most one), falling back to the first
        // retiring hit — exactly the newest-first
        // `max_by_key(|e| !e.retiring)` of the unpacked representation.
        let mut fallback = None;
        for e in self.iter() {
            if e.block == block && e.mask.get(word) {
                if !e.retiring {
                    return Some(e.data[word]);
                }
                if fallback.is_none() {
                    fallback = Some(e.data[word]);
                }
            }
        }
        fallback
    }

    /// Overlays every buffered valid word of `line` onto `data` (oldest
    /// entry first, so newer values win) — the merge a read-from-WB fill
    /// performs when "the correct block resides in the write buffer but the
    /// needed word does not" (§2.2).
    pub fn merge_into_line(&self, line: LineAddr, data: &mut [u64]) {
        let (first, last) = self.block_range_of_line(line);
        for &s in &self.order_fifo {
            let e = &self.slots[s as usize];
            if e.block >= first && e.block < last {
                let base = ((e.block - first) as usize) * self.width_words;
                for w in e.mask.iter() {
                    data[base + w] = e.data[w];
                }
            }
        }
    }

    /// The entry the next autonomous retirement should take, per the
    /// configured order, skipping any entry already retiring. `None` when
    /// the buffer is empty or everything is already mid-flight.
    #[must_use]
    pub fn next_retirement(&self) -> Option<EntryId> {
        match self.order {
            RetirementOrder::Fifo => self
                .order_fifo
                .iter()
                .map(|&s| &self.slots[s as usize])
                .find(|e| !e.retiring)
                .map(|e| e.id),
            RetirementOrder::Lru => {
                let mut best: Option<&Entry> = None;
                let mut m = self.occupied & !self.retiring;
                while m != 0 {
                    let e = &self.slots[m.trailing_zeros() as usize];
                    if best.is_none_or(|b| {
                        (e.last_touch, e.alloc_cycle) < (b.last_touch, b.alloc_cycle)
                    }) {
                        best = Some(e);
                    }
                    m &= m - 1;
                }
                best.map(|e| e.id)
            }
        }
    }

    /// Age in cycles of the oldest non-retiring entry (drives max-age
    /// retirement).
    #[must_use]
    pub fn oldest_age(&self, now: Cycle) -> Option<Cycle> {
        self.oldest_alloc_cycle().map(|c| now.saturating_sub(c))
    }

    /// Allocation cycle of the oldest non-retiring entry — the earliest
    /// cycle `oldest_age` is anchored to. The event-driven engine uses it
    /// to compute when a max-age retirement will fire without stepping
    /// cycle by cycle.
    #[must_use]
    pub fn oldest_alloc_cycle(&self) -> Option<Cycle> {
        let mut best = None;
        let mut m = self.occupied & !self.retiring;
        while m != 0 {
            let c = self.slots[m.trailing_zeros() as usize].alloc_cycle;
            if best.is_none_or(|b| c < b) {
                best = Some(c);
            }
            m &= m - 1;
        }
        best
    }

    /// Id of the entry currently being retired or flushed, if any.
    #[must_use]
    pub fn retiring_id(&self) -> Option<EntryId> {
        self.order_fifo
            .iter()
            .map(|&s| &self.slots[s as usize])
            .find(|e| e.retiring)
            .map(|e| e.id)
    }

    /// Slot index of the live entry with id `id`, if present.
    #[inline]
    fn slot_of_id(&self, id: EntryId) -> Option<usize> {
        let mut m = self.occupied;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            if self.slots[i].id == id {
                return Some(i);
            }
            m &= m - 1;
        }
        None
    }

    /// Marks `id` as mid-retirement. Returns `false` if the entry does not
    /// exist or is already retiring.
    pub fn begin_retire(&mut self, id: EntryId) -> bool {
        match self.slot_of_id(id) {
            Some(i) if !self.slots[i].retiring => {
                self.slots[i].retiring = true;
                self.retiring |= 1 << i;
                true
            }
            _ => false,
        }
    }

    /// Removes entry `id` (its transaction to L2 having completed) and
    /// returns its contents in line coordinates, borrowed from the buffer
    /// until the next call.
    pub fn take_retired(&mut self, id: EntryId) -> Option<RetiredBlock<'_>> {
        let i = self.slot_of_id(id)?;
        self.occupied &= !(1 << i);
        self.retiring &= !(1 << i);
        let pos = self
            .order_fifo
            .iter()
            .position(|&s| s as usize == i)
            .expect("occupied slot missing from FIFO order");
        self.order_fifo.remove(pos);
        let e = &self.slots[i];
        let line = LineAddr::new(e.block >> self.blocks_shift);
        let base = ((e.block as usize) & (self.blocks_per_line - 1)) << self.width_shift;
        self.retired[base..base + self.width_words].copy_from_slice(&e.data);
        Some(RetiredBlock {
            line,
            mask: e.mask.shifted(base),
            data: &self.retired,
            alloc_cycle: e.alloc_cycle,
        })
    }

    /// The FIFO-ordered list of entries a load hazard on `line` must flush
    /// under `policy`, excluding any entry already mid-retirement (the
    /// simulator waits for that transaction separately). Empty for
    /// read-from-WB and for policies whose plan is already satisfied.
    #[must_use]
    pub fn flush_plan(&self, policy: LoadHazardPolicy, line: LineAddr) -> Vec<EntryId> {
        let (first, last) = self.block_range_of_line(line);
        let in_line = |e: &Entry| e.block >= first && e.block < last;
        if !self.has_line(line) {
            return Vec::new();
        }
        match policy {
            LoadHazardPolicy::ReadFromWb => Vec::new(),
            LoadHazardPolicy::FlushItemOnly => {
                // All entries of the hazard line (usually one), FIFO order,
                // so a duplicate pair drains oldest-first.
                self.iter()
                    .filter(|e| in_line(e) && !e.retiring)
                    .map(|e| e.id)
                    .collect()
            }
            LoadHazardPolicy::FlushPartial => {
                // Front of the FIFO through the newest matching entry.
                let last_match = self
                    .iter()
                    .filter(|e| in_line(e))
                    .last()
                    .expect("has_line")
                    .id;
                let mut plan = Vec::new();
                for e in self.iter() {
                    if !e.retiring {
                        plan.push(e.id);
                    }
                    if e.id == last_match {
                        break;
                    }
                }
                plan
            }
            LoadHazardPolicy::FlushFull => {
                self.iter().filter(|e| !e.retiring).map(|e| e.id).collect()
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_types::config::WriteBufferConfig;
    use wbsim_types::policy::RetirementPolicy;

    fn g() -> Geometry {
        Geometry::alpha_baseline()
    }

    fn wb() -> WriteBuffer {
        WriteBuffer::new(&WriteBufferConfig::baseline(), &g()).unwrap()
    }

    fn wb_deep(depth: usize) -> WriteBuffer {
        let cfg = WriteBufferConfig::builder()
            .depth(depth)
            .retirement(RetirementPolicy::RetireAt(2))
            .build()
            .unwrap();
        WriteBuffer::new(&cfg, &g()).unwrap()
    }

    use wbsim_types::testutil::a;

    #[test]
    fn sequential_stores_coalesce() {
        let mut b = wb();
        assert_eq!(b.store(a(1, 0), 10, 0), StoreOutcome::Allocated);
        for w in 1..4 {
            assert_eq!(b.store(a(1, w), 10 + w, w), StoreOutcome::Merged);
        }
        assert_eq!(b.occupancy(), 1);
        let e = b.iter().next().unwrap();
        assert!(e.mask.is_full(4));
        assert_eq!(e.data, vec![10, 11, 12, 13]);
    }

    #[test]
    fn scattered_stores_allocate_until_full() {
        let mut b = wb();
        for l in 0..4 {
            assert_eq!(b.store(a(l, 0), l, l), StoreOutcome::Allocated);
        }
        assert!(b.is_full());
        assert_eq!(b.store(a(9, 0), 9, 9), StoreOutcome::Full);
        // But a merge into an existing entry still succeeds when full.
        assert_eq!(b.store(a(2, 3), 23, 10), StoreOutcome::Merged);
    }

    #[test]
    fn store_cannot_merge_into_retiring_entry() {
        let mut b = wb();
        b.store(a(5, 0), 1, 0);
        let id = b.next_retirement().unwrap();
        assert!(b.begin_retire(id));
        // Same line: must allocate a duplicate, not merge.
        assert_eq!(b.store(a(5, 1), 2, 1), StoreOutcome::Allocated);
        assert_eq!(b.occupancy(), 2);
        // And the duplicate, being non-retiring, absorbs further stores.
        assert_eq!(b.store(a(5, 2), 3, 2), StoreOutcome::Merged);
    }

    #[test]
    fn begin_retire_twice_fails() {
        let mut b = wb();
        b.store(a(1, 0), 1, 0);
        let id = b.next_retirement().unwrap();
        assert!(b.begin_retire(id));
        assert!(!b.begin_retire(id));
        assert!(!b.begin_retire(999), "unknown id");
    }

    #[test]
    fn fifo_retirement_order() {
        let mut b = wb();
        b.store(a(3, 0), 3, 5);
        b.store(a(1, 0), 1, 6);
        b.store(a(2, 0), 2, 7);
        assert_eq!(b.next_retirement(), Some(0), "oldest allocation first");
        b.begin_retire(0);
        assert_eq!(b.next_retirement(), Some(1), "skips the retiring entry");
    }

    #[test]
    fn lru_retirement_order() {
        let cfg = WriteBufferConfig {
            order: RetirementOrder::Lru,
            ..WriteBufferConfig::baseline()
        };
        let mut b = WriteBuffer::new(&cfg, &g()).unwrap();
        b.store(a(1, 0), 1, 0);
        b.store(a(2, 0), 2, 1);
        b.store(a(1, 1), 1, 2); // refresh line 1
        assert_eq!(
            b.next_retirement(),
            Some(1),
            "line 2 is least recently written"
        );
    }

    #[test]
    fn take_retired_converts_to_line_coordinates() {
        let mut b = wb();
        b.store(a(7, 1), 71, 0);
        b.store(a(7, 3), 73, 1);
        let id = b.next_retirement().unwrap();
        b.begin_retire(id);
        let r = b.take_retired(id).unwrap();
        assert_eq!(r.line, LineAddr::new(7));
        assert_eq!(r.mask.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(r.data[1], 71);
        assert_eq!(r.data[3], 73);
        assert_eq!(b.occupancy(), 0);
        assert!(b.take_retired(id).is_none(), "already taken");

        // Every entry width of 4- and 8-word lines, every block of the
        // line: the retired mask and words land at the block's offset.
        for line_bytes in [32u32, 64] {
            let g = Geometry::new(line_bytes, 8).unwrap();
            let wpl = g.words_per_line();
            for width in [1, 2, 4, 8].into_iter().filter(|&w| w <= wpl) {
                let cfg = WriteBufferConfig {
                    width_words: width,
                    retirement: RetirementPolicy::RetireAt(1),
                    ..WriteBufferConfig::baseline()
                };
                for block in 0..wpl / width {
                    let mut b = WriteBuffer::new(&cfg, &g).unwrap();
                    // The block's first and last words (one when width is 1).
                    let mut words = vec![block * width, block * width + width - 1];
                    words.dedup();
                    for (t, &w) in words.iter().enumerate() {
                        let addr = Addr::new(7 * u64::from(line_bytes) + w as u64 * 8);
                        b.store(addr, 100 + w as u64, t as u64);
                    }
                    let id = b.next_retirement().unwrap();
                    b.begin_retire(id);
                    let r = b.take_retired(id).unwrap();
                    assert_eq!(r.line, LineAddr::new(7), "width {width} block {block}");
                    assert_eq!(r.mask.iter().collect::<Vec<_>>(), words);
                    for &w in &words {
                        assert_eq!(r.data[w], 100 + w as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn probe_line_finds_matches_in_fifo_order() {
        let mut b = wb_deep(8);
        b.store(a(4, 0), 1, 0);
        b.store(a(9, 0), 2, 1);
        b.store(a(4, 2), 3, 2); // merges into first entry
        assert_eq!(b.probe_line(LineAddr::new(4)).len(), 1);
        assert_eq!(b.probe_line(LineAddr::new(9)).len(), 1);
        assert!(b.probe_line(LineAddr::new(5)).is_empty());
    }

    #[test]
    fn read_word_returns_freshest_value() {
        let mut b = wb();
        b.store(a(6, 2), 100, 0);
        assert_eq!(b.read_word(a(6, 2)), Some(100));
        assert_eq!(b.read_word(a(6, 1)), None, "word not valid");
        b.store(a(6, 2), 200, 1);
        assert_eq!(b.read_word(a(6, 2)), Some(200));
    }

    #[test]
    fn read_word_prefers_nonretiring_duplicate() {
        let mut b = wb();
        b.store(a(8, 0), 1, 0);
        let id = b.next_retirement().unwrap();
        b.begin_retire(id);
        b.store(a(8, 0), 2, 1); // duplicate entry, newer value
        assert_eq!(b.read_word(a(8, 0)), Some(2));
        // Word valid only in the retiring entry: still readable.
        let mut b2 = wb();
        b2.store(a(8, 1), 7, 0);
        let id2 = b2.next_retirement().unwrap();
        b2.begin_retire(id2);
        assert_eq!(b2.read_word(a(8, 1)), Some(7));
    }

    #[test]
    fn merge_into_line_overlays_valid_words() {
        let mut b = wb();
        b.store(a(3, 1), 31, 0);
        b.store(a(3, 3), 33, 1);
        let mut line = vec![900, 901, 902, 903];
        b.merge_into_line(LineAddr::new(3), &mut line);
        assert_eq!(line, vec![900, 31, 902, 33]);
    }

    #[test]
    fn merge_into_line_newer_duplicate_wins() {
        let mut b = wb();
        b.store(a(2, 0), 1, 0);
        let id = b.next_retirement().unwrap();
        b.begin_retire(id);
        b.store(a(2, 0), 2, 1); // newer duplicate
        let mut line = vec![0; 4];
        b.merge_into_line(LineAddr::new(2), &mut line);
        assert_eq!(line[0], 2, "newest value must win the overlay");
    }

    #[test]
    fn flush_plans_match_figure_2() {
        // Reproduce the paper's Figure 2: a 4-deep buffer where a load miss
        // hits the third (FIFO) entry.
        let mut b = wb();
        for (i, l) in [10u64, 11, 12, 13].iter().enumerate() {
            b.store(a(*l, 0), i as u64, i as u64);
        }
        let hit_line = LineAddr::new(12); // third entry
        let full = b.flush_plan(LoadHazardPolicy::FlushFull, hit_line);
        assert_eq!(full.len(), 4, "flush-full: 1,2,3,4");
        let partial = b.flush_plan(LoadHazardPolicy::FlushPartial, hit_line);
        assert_eq!(partial.len(), 3, "flush-partial: 1,2,3");
        let item = b.flush_plan(LoadHazardPolicy::FlushItemOnly, hit_line);
        assert_eq!(item.len(), 1, "flush-item-only: 3 only");
        assert_eq!(item[0], full[2]);
        let rd = b.flush_plan(LoadHazardPolicy::ReadFromWb, hit_line);
        assert!(rd.is_empty(), "read-from-WB: (none)");
    }

    #[test]
    fn flush_plan_excludes_retiring_entry() {
        let mut b = wb();
        b.store(a(1, 0), 1, 0);
        b.store(a(2, 0), 2, 1);
        let id = b.next_retirement().unwrap();
        b.begin_retire(id); // entry for line 1 is mid-flight
        let plan = b.flush_plan(LoadHazardPolicy::FlushFull, LineAddr::new(2));
        assert_eq!(plan.len(), 1);
        assert_ne!(plan[0], id);
    }

    #[test]
    fn flush_plan_empty_when_no_hazard() {
        let mut b = wb();
        b.store(a(1, 0), 1, 0);
        assert!(b
            .flush_plan(LoadHazardPolicy::FlushFull, LineAddr::new(99))
            .is_empty());
    }

    #[test]
    fn non_coalescing_buffer_never_merges_different_words() {
        let cfg = WriteBufferConfig::builder()
            .depth(8)
            .width_words(1)
            .build()
            .unwrap();
        let mut b = WriteBuffer::new(&cfg, &g()).unwrap();
        assert_eq!(b.store(a(1, 0), 1, 0), StoreOutcome::Allocated);
        assert_eq!(
            b.store(a(1, 1), 2, 1),
            StoreOutcome::Allocated,
            "same line, different word: separate 1-word entries"
        );
        assert_eq!(b.store(a(1, 0), 3, 2), StoreOutcome::Merged, "same word");
        assert_eq!(b.occupancy(), 2);
        // A load hazard on line 1 matches both entries.
        assert_eq!(b.probe_line(LineAddr::new(1)).len(), 2);
        // Retired blocks convert to proper line offsets.
        let id = b.next_retirement().unwrap();
        b.begin_retire(id);
        let r = b.take_retired(id).unwrap();
        assert_eq!(r.line, LineAddr::new(1));
        assert_eq!(r.mask.iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(r.data[0], 3);
    }

    #[test]
    fn insert_line_allocates_and_merges() {
        let mut b = wb();
        assert!(b.insert_line(LineAddr::new(5), &[1, 2, 3, 4], 0));
        assert_eq!(b.occupancy(), 1);
        let e = b.iter().next().unwrap();
        assert!(e.mask.is_full(4));
        // A second insert of the same line overwrites in place.
        assert!(b.insert_line(LineAddr::new(5), &[9, 9, 9, 9], 1));
        assert_eq!(b.occupancy(), 1);
        assert_eq!(b.read_word(a(5, 0)), Some(9));
        // Fill the buffer; inserts then fail.
        for l in 6..9 {
            assert!(b.insert_line(LineAddr::new(l), &[0, 0, 0, 1], 2));
        }
        assert!(!b.insert_line(LineAddr::new(99), &[1, 1, 1, 1], 3));
        assert_eq!(b.occupancy(), 4);
    }

    #[test]
    #[should_panic(expected = "line-wide entries")]
    fn insert_line_rejects_narrow_entries() {
        let cfg = WriteBufferConfig::builder()
            .depth(8)
            .width_words(1)
            .build()
            .unwrap();
        let mut b = WriteBuffer::new(&cfg, &g()).unwrap();
        b.insert_line(LineAddr::new(1), &[1], 0);
    }

    #[test]
    fn half_line_blocks_probe_and_retire_correctly() {
        // width 2: each 32B line holds two 2-word blocks.
        let cfg = WriteBufferConfig::builder()
            .depth(8)
            .width_words(2)
            .build()
            .unwrap();
        let mut b = WriteBuffer::new(&cfg, &g()).unwrap();
        assert_eq!(b.store(a(3, 0), 30, 0), StoreOutcome::Allocated);
        assert_eq!(b.store(a(3, 1), 31, 1), StoreOutcome::Merged, "same block");
        assert_eq!(
            b.store(a(3, 2), 32, 2),
            StoreOutcome::Allocated,
            "words 2..4 are the line's second block"
        );
        assert_eq!(b.occupancy(), 2);
        // A hazard probe on the line sees both blocks.
        assert_eq!(b.probe_line(LineAddr::new(3)).len(), 2);
        // Retiring the first block converts to line coordinates 0..2.
        let id = b.next_retirement().unwrap();
        b.begin_retire(id);
        let r = b.take_retired(id).unwrap();
        assert_eq!(r.line, LineAddr::new(3));
        assert_eq!(r.mask.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(&r.data[0..2], &[30, 31]);
        // The second block maps to words 2..4 of the same line.
        let id2 = b.next_retirement().unwrap();
        b.begin_retire(id2);
        let r2 = b.take_retired(id2).unwrap();
        assert_eq!(r2.line, LineAddr::new(3));
        assert_eq!(r2.mask.iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(r2.data[2], 32);
    }

    #[test]
    fn merge_into_line_spans_half_line_blocks() {
        let cfg = WriteBufferConfig::builder()
            .depth(8)
            .width_words(2)
            .build()
            .unwrap();
        let mut b = WriteBuffer::new(&cfg, &g()).unwrap();
        b.store(a(5, 1), 51, 0);
        b.store(a(5, 3), 53, 1);
        let mut line = vec![900, 901, 902, 903];
        b.merge_into_line(LineAddr::new(5), &mut line);
        assert_eq!(line, vec![900, 51, 902, 53]);
        assert_eq!(b.read_word(a(5, 3)), Some(53));
        assert_eq!(b.read_word(a(5, 0)), None);
    }

    #[test]
    fn occupancy_and_free_entries_track() {
        let mut b = wb();
        assert_eq!(b.free_entries(), 4);
        b.store(a(1, 0), 1, 0);
        b.store(a(2, 0), 2, 1);
        assert_eq!(b.occupancy(), 2);
        assert_eq!(b.free_entries(), 2);
        let id = b.next_retirement().unwrap();
        b.begin_retire(id);
        assert_eq!(b.occupancy(), 2, "retiring entry still occupies a slot");
        b.take_retired(id);
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn oldest_age_ignores_retiring() {
        let mut b = wb();
        b.store(a(1, 0), 1, 0);
        b.store(a(2, 0), 2, 10);
        assert_eq!(b.oldest_age(30), Some(30));
        b.begin_retire(b.next_retirement().unwrap());
        assert_eq!(b.oldest_age(30), Some(20), "oldest non-retiring");
    }
}
