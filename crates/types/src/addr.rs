//! Byte addresses, line addresses, and address geometry.
//!
//! The simulator works at two granularities: **words** (the smallest datum a
//! store writes — 8 bytes on the Alphas the paper models) and **cache lines**
//! (32 bytes in the paper's machine). [`Geometry`] captures those two sizes
//! and performs all address arithmetic, so the rest of the workspace never
//! does raw shifting or masking.

use std::fmt;

/// A byte address in the simulated machine's physical address space.
///
/// `Addr` is a transparent newtype over `u64`; it exists so that byte
/// addresses, line addresses, and plain counters cannot be confused.
///
/// # Example
///
/// ```
/// use wbsim_types::addr::{Addr, Geometry};
///
/// let g = Geometry::alpha_baseline(); // 32-byte lines, 8-byte words
/// let a = Addr::new(0x1004_0038);
/// assert_eq!(g.line_of(a).as_u64(), 0x1004_0038 >> 5);
/// assert_eq!(g.word_index(a), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates a byte address.
    #[must_use]
    pub const fn new(a: u64) -> Self {
        Self(a)
    }

    /// Returns the raw byte address.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the address offset by `bytes`, wrapping on overflow.
    #[must_use]
    pub const fn wrapping_add(self, bytes: u64) -> Self {
        Self(self.0.wrapping_add(bytes))
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(a: u64) -> Self {
        Self(a)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

/// A cache-line address: a byte address with the intra-line offset removed
/// (i.e. the byte address shifted right by `log2(line_bytes)`).
///
/// Line addresses are only meaningful relative to the [`Geometry`] that
/// produced them; the simulator uses a single geometry per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from its raw (already shifted) value.
    #[must_use]
    pub const fn new(l: u64) -> Self {
        Self(l)
    }

    /// Returns the raw shifted value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::LowerHex for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Per-word valid bits for one cache line, as kept by each write-buffer
/// entry ("Each entry needs valid bits at the granularity of the smallest
/// writable datum", paper §2.2).
///
/// Supports lines of up to 64 words.
///
/// # Example
///
/// ```
/// use wbsim_types::addr::WordMask;
///
/// let mut m = WordMask::empty();
/// m.set(0);
/// m.set(3);
/// assert!(m.get(0) && m.get(3) && !m.get(1));
/// assert_eq!(m.count(), 2);
/// assert!(!m.is_full(4)); // words 1 and 2 missing
/// m.set(1);
/// m.set(2);
/// assert!(m.is_full(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WordMask(u64);

impl WordMask {
    /// A mask with no valid words.
    #[must_use]
    pub const fn empty() -> Self {
        Self(0)
    }

    /// A mask with words `0..n` valid.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        assert!(n <= 64, "WordMask supports at most 64 words");
        if n == 64 {
            Self(u64::MAX)
        } else {
            Self((1u64 << n) - 1)
        }
    }

    /// Marks word `i` valid.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    pub fn set(&mut self, i: usize) {
        assert!(i < 64, "word index out of range");
        self.0 |= 1 << i;
    }

    /// Returns whether word `i` is valid.
    #[must_use]
    pub const fn get(&self, i: usize) -> bool {
        i < 64 && (self.0 >> i) & 1 == 1
    }

    /// Number of valid words.
    #[must_use]
    pub const fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Returns whether no words are valid.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Returns whether all of the first `words_per_line` words are valid.
    #[must_use]
    pub fn is_full(&self, words_per_line: usize) -> bool {
        *self == Self::full(words_per_line)
    }

    /// Iterates over the indices of valid words, in increasing order. The
    /// walk visits set bits only (`trailing_zeros`, then clear the lowest
    /// bit), so a sparse mask costs its word count, not 64 tests.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(i)
        })
    }

    /// The mask with every valid word moved up by `offset` positions: an
    /// entry's block-relative bits at their offset within the line.
    ///
    /// Words shifted past position 63 are dropped; callers keep
    /// `offset + width <= 64`.
    #[must_use]
    pub const fn shifted(self, offset: usize) -> Self {
        Self(self.0 << offset)
    }

    /// Returns the raw bit pattern.
    #[must_use]
    pub const fn bits(&self) -> u64 {
        self.0
    }
}

/// The most words a line can hold: a line's valid bits fit one
/// [`WordMask`], and [`Geometry::new`] rejects anything wider.
pub const MAX_LINE_WORDS: usize = 64;

/// Address geometry: line size and word size, both powers of two.
///
/// All address arithmetic in the workspace goes through a `Geometry`, which
/// is fixed for the duration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    line_bytes: u32,
    word_bytes: u32,
    line_shift: u32,
    word_shift: u32,
}

impl Geometry {
    /// Creates a geometry with the given line and word sizes in bytes.
    ///
    /// Returns `None` unless both are powers of two, `word_bytes` divides
    /// `line_bytes`, and the line holds at most [`MAX_LINE_WORDS`] words.
    #[must_use]
    pub fn new(line_bytes: u32, word_bytes: u32) -> Option<Self> {
        if !line_bytes.is_power_of_two()
            || !word_bytes.is_power_of_two()
            || word_bytes > line_bytes
            || (line_bytes / word_bytes) as usize > MAX_LINE_WORDS
        {
            return None;
        }
        Some(Self {
            line_bytes,
            word_bytes,
            line_shift: line_bytes.trailing_zeros(),
            word_shift: word_bytes.trailing_zeros(),
        })
    }

    /// The paper's geometry: 32-byte cache lines of four 8-byte words
    /// (Table 2: "always 4 words (32B)").
    #[must_use]
    pub fn alpha_baseline() -> Self {
        Self::new(32, 8).expect("32/8 is a valid geometry")
    }

    /// Line size in bytes.
    #[must_use]
    pub const fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Word size in bytes.
    #[must_use]
    pub const fn word_bytes(&self) -> u32 {
        self.word_bytes
    }

    /// Number of words in one line.
    #[must_use]
    pub const fn words_per_line(&self) -> usize {
        (self.line_bytes / self.word_bytes) as usize
    }

    /// The line containing byte address `a`.
    #[must_use]
    pub const fn line_of(&self, a: Addr) -> LineAddr {
        LineAddr::new(a.as_u64() >> self.line_shift)
    }

    /// The index of the word containing byte address `a` within its line.
    #[must_use]
    pub const fn word_index(&self, a: Addr) -> usize {
        ((a.as_u64() >> self.word_shift) & ((self.line_bytes >> self.word_shift) as u64 - 1))
            as usize
    }

    /// The byte address of the first byte of line `l`.
    #[must_use]
    pub const fn line_base(&self, l: LineAddr) -> Addr {
        Addr::new(l.as_u64() << self.line_shift)
    }

    /// The global word address (byte address / word size) of `a`, used as a
    /// key into the functional memory.
    #[must_use]
    pub const fn word_addr(&self, a: Addr) -> u64 {
        a.as_u64() >> self.word_shift
    }

    /// The global word address of word `i` of line `l`.
    #[must_use]
    pub const fn word_addr_in_line(&self, l: LineAddr, i: usize) -> u64 {
        (l.as_u64() << (self.line_shift - self.word_shift)) + i as u64
    }

    /// The byte address of word `i` of line `l`.
    #[must_use]
    pub const fn addr_of_word(&self, l: LineAddr, i: usize) -> Addr {
        Addr::new((l.as_u64() << self.line_shift) + (i as u64) * self.word_bytes as u64)
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::alpha_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_rejects_bad_shapes() {
        assert!(Geometry::new(33, 8).is_none(), "line not a power of two");
        assert!(Geometry::new(32, 3).is_none(), "word not a power of two");
        assert!(Geometry::new(8, 32).is_none(), "word bigger than line");
        assert!(Geometry::new(1024, 1).is_none(), "more than 64 words");
        assert!(Geometry::new(512, 8).is_some());
    }

    #[test]
    fn line_and_word_mapping() {
        let g = Geometry::alpha_baseline();
        assert_eq!(g.words_per_line(), 4);
        let a = Addr::new(0x1000 + 17); // byte 17 of the line at 0x1000
        assert_eq!(g.line_of(a), LineAddr::new(0x1000 >> 5));
        assert_eq!(g.word_index(a), 2); // bytes 16..24 are word 2
        assert_eq!(g.line_base(g.line_of(a)), Addr::new(0x1000));
    }

    #[test]
    fn word_addr_roundtrip() {
        let g = Geometry::alpha_baseline();
        let l = LineAddr::new(123);
        for i in 0..g.words_per_line() {
            let byte = g.addr_of_word(l, i);
            assert_eq!(g.line_of(byte), l);
            assert_eq!(g.word_index(byte), i);
            assert_eq!(g.word_addr(byte), g.word_addr_in_line(l, i));
        }
    }

    #[test]
    fn word_mask_basics() {
        let mut m = WordMask::empty();
        assert!(m.is_empty());
        m.set(0);
        m.set(2);
        assert_eq!(m.count(), 2);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!m.is_full(4));
        m.set(1);
        m.set(3);
        assert!(m.is_full(4));
    }

    proptest::proptest! {
        /// The bit walk yields exactly the set bits, ascending, for dense
        /// and sparse masks alike.
        #[test]
        fn word_mask_iter_yields_exactly_the_set_bits_in_order(
            a in proptest::prelude::any::<u64>(),
            b in proptest::prelude::any::<u64>(),
            sparse in proptest::prelude::any::<bool>(),
        ) {
            let bits = if sparse { a & b & b.rotate_left(17) } else { a };
            let want: Vec<usize> = (0..64).filter(|&i| (bits >> i) & 1 == 1).collect();
            let got: Vec<usize> = WordMask(bits).iter().collect();
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn word_mask_shifted_moves_every_bit() {
        let mut m = WordMask::empty();
        m.set(0);
        m.set(2);
        assert_eq!(m.shifted(4).iter().collect::<Vec<_>>(), vec![4, 6]);
        assert_eq!(m.shifted(0), m);
        assert_eq!(WordMask::full(4).shifted(60), WordMask(0xf << 60));
    }

    #[test]
    fn word_mask_full_of_64() {
        let m = WordMask::full(64);
        assert_eq!(m.count(), 64);
        assert!(m.is_full(64));
    }

    #[test]
    fn addr_ordering_and_conversion() {
        let a = Addr::new(10);
        let b = Addr::from(20u64);
        assert!(a < b);
        assert_eq!(u64::from(b), 20);
        assert_eq!(a.wrapping_add(10), b);
    }

    #[test]
    #[should_panic(expected = "word index out of range")]
    fn word_mask_set_out_of_range_panics() {
        let mut m = WordMask::empty();
        m.set(64);
    }

    #[test]
    fn non_coalescing_geometry() {
        // A 1-word-wide buffer entry (Table 2, non-coalescing) uses an
        // 8-byte "line".
        let g = Geometry::new(8, 8).expect("valid");
        assert_eq!(g.words_per_line(), 1);
        let a = Addr::new(0x38);
        assert_eq!(g.word_index(a), 0);
        assert_eq!(g.line_of(a), LineAddr::new(7));
    }
}
