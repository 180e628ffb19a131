//! The functional backing store: a sparse main memory kept in pages.
//!
//! Unwritten words read as zero, so the simulator never needs to
//! pre-initialize the address space. All addresses here are *global word
//! addresses* (byte address divided by the word size — see
//! [`Geometry::word_addr`](wbsim_types::addr::Geometry::word_addr)).
//!
//! # Representation
//!
//! Memory is a slab of 64-word pages, allocated the first time a nonzero
//! value is written into them, and an index from page number to slab slot
//! under a fixed multiplicative hash. A page is as wide as the widest
//! legal line, and lines are aligned, so every line lies inside one page:
//! a line read or masked line write is one index lookup, and a read hands
//! out a borrowed slice of the page (or of a static zero page) instead of
//! a copy. Cloning copies only the pages that were written.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use wbsim_types::addr::{Geometry, LineAddr, WordMask, MAX_LINE_WORDS};

/// Words per page: the widest line, so no line straddles two pages.
const PAGE_WORDS: usize = MAX_LINE_WORDS;

/// What every never-written page reads as.
static ZERO_PAGE: [u64; PAGE_WORDS] = [0; PAGE_WORDS];

/// Fibonacci hashing of a page number: one multiply, then a rotate so the
/// well-mixed high bits of the product pick the bucket. Addresses come
/// from the built-in benchmark models or from a trace file run locally
/// (`wbsim serve` accepts no traces), so the index needs no defence
/// against keys crafted to collide.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Sparse word-addressed main memory.
///
/// # Example
///
/// ```
/// use wbsim_mem::MainMemory;
///
/// let mut m = MainMemory::new();
/// assert_eq!(m.read_word(7), 0, "unwritten words read as zero");
/// m.write_word(7, 42);
/// assert_eq!(m.read_word(7), 42);
/// ```
#[derive(Debug, Default)]
pub struct MainMemory {
    /// Page number → slot in `pages`.
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    pages: Vec<[u64; PAGE_WORDS]>,
}

wbsim_types::clone_fields!(MainMemory { index, pages });

/// Splits a global word address into its page number and offset.
#[inline]
fn split(word_addr: u64) -> (u64, usize) {
    (
        word_addr / PAGE_WORDS as u64,
        (word_addr % PAGE_WORDS as u64) as usize,
    )
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn page(&self, page_no: u64) -> &[u64; PAGE_WORDS] {
        match self.index.get(&page_no) {
            Some(&slot) => &self.pages[slot as usize],
            None => &ZERO_PAGE,
        }
    }

    /// Allocates page `page_no`, zeroed; the caller has checked it is new.
    fn alloc_page(&mut self, page_no: u64) -> &mut [u64; PAGE_WORDS] {
        let slot = u32::try_from(self.pages.len()).expect("fewer than 2^32 pages");
        self.index.insert(page_no, slot);
        self.pages.push([0; PAGE_WORDS]);
        self.pages.last_mut().expect("just pushed")
    }

    /// Reads the word at global word address `word_addr`.
    #[must_use]
    pub fn read_word(&self, word_addr: u64) -> u64 {
        let (page_no, off) = split(word_addr);
        self.page(page_no)[off]
    }

    /// Writes the word at global word address `word_addr`. Writing zero
    /// into a never-written page leaves it unallocated.
    pub fn write_word(&mut self, word_addr: u64, value: u64) {
        let (page_no, off) = split(word_addr);
        match self.index.get(&page_no) {
            Some(&slot) => self.pages[slot as usize][off] = value,
            None if value == 0 => {}
            None => self.alloc_page(page_no)[off] = value,
        }
    }

    /// The words of line `line`, borrowed from the backing page.
    #[must_use]
    pub fn read_line(&self, geometry: &Geometry, line: LineAddr) -> &[u64] {
        let (page_no, off) = split(geometry.word_addr_in_line(line, 0));
        &self.page(page_no)[off..off + geometry.words_per_line()]
    }

    /// Writes the words of `data` selected by `mask` into line `line`
    /// (`data` is in line coordinates). Writing only zeros into a
    /// never-written page leaves it unallocated.
    pub fn write_line_masked(
        &mut self,
        geometry: &Geometry,
        line: LineAddr,
        mask: WordMask,
        data: &[u64],
    ) {
        let (page_no, off) = split(geometry.word_addr_in_line(line, 0));
        let page = match self.index.get(&page_no) {
            Some(&slot) => &mut self.pages[slot as usize],
            None if mask.iter().all(|i| data[i] == 0) => return,
            None => self.alloc_page(page_no),
        };
        for i in mask.iter() {
            page[off + i] = data[i];
        }
    }

    /// Number of nonzero words currently stored (for tests and
    /// memory-footprint reporting).
    #[must_use]
    pub fn resident_words(&self) -> usize {
        self.pages.iter().flatten().filter(|&&w| w != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_types::addr::Addr;

    #[test]
    fn zero_default_and_roundtrip() {
        let mut m = MainMemory::new();
        assert_eq!(m.read_word(123), 0);
        m.write_word(123, 7);
        assert_eq!(m.read_word(123), 7);
        m.write_word(123, 0);
        assert_eq!(m.read_word(123), 0);
        assert_eq!(m.resident_words(), 0, "zero writes do not leak storage");
    }

    #[test]
    fn line_read_matches_word_reads() {
        let g = Geometry::alpha_baseline();
        let mut m = MainMemory::new();
        let line = g.line_of(Addr::new(0x2000));
        for i in 0..4 {
            m.write_word(g.word_addr_in_line(line, i), 100 + i as u64);
        }
        assert_eq!(m.read_line(&g, line), [100, 101, 102, 103]);
        assert_eq!(m.read_line(&g, LineAddr::new(1 << 40)), [0; 4]);
    }

    #[test]
    fn masked_write_only_touches_selected_words() {
        let g = Geometry::alpha_baseline();
        let mut m = MainMemory::new();
        let line = LineAddr::new(9);
        for i in 0..4 {
            m.write_word(g.word_addr_in_line(line, i), 1);
        }
        let mut mask = WordMask::empty();
        mask.set(1);
        mask.set(3);
        m.write_line_masked(&g, line, mask, &[50, 51, 52, 53]);
        assert_eq!(m.read_line(&g, line), [1, 51, 1, 53]);
    }

    #[test]
    fn lines_do_not_alias() {
        let g = Geometry::alpha_baseline();
        let mut m = MainMemory::new();
        m.write_word(g.word_addr_in_line(LineAddr::new(1), 0), 11);
        m.write_word(g.word_addr_in_line(LineAddr::new(2), 0), 22);
        assert_eq!(m.read_line(&g, LineAddr::new(1))[0], 11);
        assert_eq!(m.read_line(&g, LineAddr::new(2))[0], 22);
    }

    #[test]
    fn zero_writes_to_unwritten_pages_allocate_nothing() {
        let g = Geometry::alpha_baseline();
        let mut m = MainMemory::new();
        m.write_word(5, 0);
        m.write_line_masked(&g, LineAddr::new(3), WordMask::full(4), &[0; 4]);
        assert!(m.pages.is_empty() && m.index.is_empty());
    }
}
