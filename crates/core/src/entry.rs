//! One write-buffer entry.
//!
//! "Each entry holds one or more address-aligned words — typically one
//! cache block. Each entry needs an address tag ... plus valid bits at the
//! granularity of the smallest writable datum" (paper §2.2).
//!
//! Entries are tagged by **block** — an aligned group of
//! `width_words` words. With the baseline width (one full line) a block
//! *is* a cache line; with width 1 (the non-coalescing buffer of Table 2)
//! each entry covers a single word.

use wbsim_types::addr::{LineAddr, WordMask};
use wbsim_types::Cycle;

/// Stable identity of a buffer entry, unique within one `WriteBuffer`'s
/// lifetime. Flush plans and retirement handles refer to entries by id so
/// they survive the removal of other entries.
pub type EntryId = u64;

/// One occupied write-buffer entry.
#[derive(Debug, PartialEq, Eq)]
pub struct Entry {
    /// Stable identity.
    pub id: EntryId,
    /// Block tag: global word address divided by the entry width.
    pub block: u64,
    /// Valid bits, one per word of the block (bits `0..width_words`).
    pub mask: WordMask,
    /// Data words (length `width_words`); only `mask`-valid slots are
    /// meaningful.
    pub data: Vec<u64>,
    /// Cycle at which this entry was allocated (drives max-age retirement
    /// and FIFO order tie-breaking).
    pub alloc_cycle: Cycle,
    /// Cycle of the most recent merge into this entry (drives LRU order).
    pub last_touch: Cycle,
    /// Whether a retirement or flush transaction for this entry is
    /// underway. Stores cannot merge into a retiring entry (paper §2.2).
    pub retiring: bool,
}

/// A block leaving the buffer, re-expressed in *line* coordinates so it can
/// be handed to [`L2Cache::write_line_masked`] directly. The data is
/// borrowed from a line-sized buffer the write buffer owns, so retiring an
/// entry never touches the heap.
///
/// [`L2Cache::write_line_masked`]: https://docs.rs/wbsim-mem
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredBlock<'a> {
    /// The cache line this block belongs to.
    pub line: LineAddr,
    /// Valid bits in line coordinates.
    pub mask: WordMask,
    /// Data in line coordinates (length = words per line); only
    /// `mask`-valid slots are meaningful.
    pub data: &'a [u64],
    /// Cycle at which the entry was allocated (for lifetime statistics).
    pub alloc_cycle: Cycle,
}

wbsim_types::clone_fields!(Entry {
    id,
    block,
    mask,
    data,
    alloc_cycle,
    last_touch,
    retiring
});

impl Entry {
    /// Number of valid words.
    #[must_use]
    pub fn valid_words(&self) -> u32 {
        self.mask.count()
    }

    /// Age of the entry at `now`, in cycles.
    #[must_use]
    pub fn age(&self, now: Cycle) -> Cycle {
        now.saturating_sub(self.alloc_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Entry {
        let mut mask = WordMask::empty();
        mask.set(1);
        Entry {
            id: 1,
            block: 100,
            mask,
            data: vec![0, 42, 0, 0],
            alloc_cycle: 10,
            last_touch: 10,
            retiring: false,
        }
    }

    #[test]
    fn valid_words_counts_mask() {
        let mut e = entry();
        assert_eq!(e.valid_words(), 1);
        e.mask.set(3);
        assert_eq!(e.valid_words(), 2);
    }

    #[test]
    fn age_saturates() {
        let e = entry();
        assert_eq!(e.age(25), 15);
        assert_eq!(e.age(5), 0, "clock before allocation saturates to zero");
    }
}
