//! The L1 data cache: write-through, write-around, configurable
//! size/associativity (paper Table 1; Figure 10 sweeps the size).
//!
//! Write-through means stores never create dirty state here; write-around
//! means store misses do not allocate. Consequently the only mutations are
//! load fills, store updates of already-present lines, and inclusion
//! invalidations driven by L2 evictions.

use wbsim_types::addr::{Geometry, LineAddr};
use wbsim_types::config::{ConfigError, L1Config};

/// A set-associative, data-carrying L1 data cache.
///
/// All methods take pre-decomposed `(line, word)` coordinates; the
/// simulator performs the address decomposition once per reference through
/// [`Geometry`].
#[derive(Debug)]
pub struct L1Cache {
    sets: usize,
    assoc: usize,
    /// `log2(sets)` and `log2(assoc)`: both are powers of two
    /// (configuration validation), so set/tag math is shifts and masks.
    set_shift: u32,
    assoc_shift: u32,
    words_per_line: usize,
    /// Tag per way, `u64::MAX` = invalid. Indexed `set * assoc + way`.
    tags: Vec<u64>,
    /// LRU stamp per way; larger = more recently used.
    stamps: Vec<u64>,
    /// Flat data store, `(set * assoc + way) * words_per_line + word`.
    data: Vec<u64>,
    /// Two bitmaps of `bitmap_words` words, one bit per way: first the
    /// live bits, set exactly while the way's tag is valid (the ways a
    /// fork copies, see `clone_from`), then the dirty bits (used only
    /// under a write-back policy).
    bits: Vec<u64>,
    bitmap_words: usize,
    next_stamp: u64,
}

const INVALID: u64 = u64::MAX;

impl Clone for L1Cache {
    fn clone(&self) -> Self {
        Self {
            sets: self.sets,
            assoc: self.assoc,
            set_shift: self.set_shift,
            assoc_shift: self.assoc_shift,
            words_per_line: self.words_per_line,
            tags: self.tags.clone(),
            stamps: self.stamps.clone(),
            data: self.data.clone(),
            bits: self.bits.clone(),
            bitmap_words: self.bitmap_words,
            next_stamp: self.next_stamp,
        }
    }

    /// Forks `src` into `self`, reusing its buffers. Between caches of one
    /// shape only the live ways move: those valid in `src` or in `self`.
    /// An invalid way is never read — `claim_way` takes it without looking
    /// at its stamp, and a fill overwrites its tag, stamp, dirty bit and
    /// data — so what it held before does not matter. The live bits name
    /// those ways, so a fork of a cache holding a few lines copies a few
    /// lines and the bitmaps, not the whole array.
    fn clone_from(&mut self, src: &Self) {
        if (self.sets, self.assoc, self.words_per_line) != (src.sets, src.assoc, src.words_per_line)
        {
            self.sets = src.sets;
            self.assoc = src.assoc;
            self.set_shift = src.set_shift;
            self.assoc_shift = src.assoc_shift;
            self.words_per_line = src.words_per_line;
            self.tags.clone_from(&src.tags);
            self.stamps.clone_from(&src.stamps);
            self.data.clone_from(&src.data);
            self.bits.clone_from(&src.bits);
            self.bitmap_words = src.bitmap_words;
            self.next_stamp = src.next_stamp;
            return;
        }
        let n = self.words_per_line;
        let live = src.bits[..src.bitmap_words].iter().zip(&self.bits);
        for (w, (&from, &to)) in live.enumerate() {
            let mut ways = from | to;
            while ways != 0 {
                let i = (w << 6) | ways.trailing_zeros() as usize;
                ways &= ways - 1;
                self.tags[i] = src.tags[i];
                self.stamps[i] = src.stamps[i];
                self.data[i * n..(i + 1) * n].copy_from_slice(&src.data[i * n..(i + 1) * n]);
            }
        }
        self.bits.copy_from_slice(&src.bits);
        self.next_stamp = src.next_stamp;
    }
}

impl L1Cache {
    /// Builds an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid for this
    /// geometry.
    pub fn new(cfg: &L1Config, geometry: &Geometry) -> Result<Self, ConfigError> {
        cfg.validate(geometry)?;
        let lines = cfg.lines(geometry);
        let assoc = cfg.assoc as usize;
        let sets = lines / assoc;
        let words_per_line = geometry.words_per_line();
        Ok(Self {
            sets,
            assoc,
            set_shift: sets.trailing_zeros(),
            assoc_shift: assoc.trailing_zeros(),
            words_per_line,
            tags: vec![INVALID; lines],
            stamps: vec![0; lines],
            data: vec![0; lines * words_per_line],
            bits: vec![0; 2 * lines.div_ceil(64)],
            bitmap_words: lines.div_ceil(64),
            next_stamp: 1,
        })
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    #[must_use]
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    #[inline]
    fn set_and_tag(&self, line: LineAddr) -> (usize, u64) {
        let l = line.as_u64();
        ((l as usize) & (self.sets - 1), l >> self.set_shift)
    }

    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set << self.assoc_shift;
        (0..self.assoc).find(|&w| self.tags[base + w] == tag)
    }

    /// Sets or clears way `idx`'s bit in the bitmap starting at word
    /// `first` (0: live, `bitmap_words`: dirty).
    #[inline]
    fn set_bit(&mut self, first: usize, idx: usize, on: bool) {
        let (word, bit) = (first + (idx >> 6), 1 << (idx & 63));
        if on {
            self.bits[word] |= bit;
        } else {
            self.bits[word] &= !bit;
        }
    }

    /// Whether way `idx` is dirty.
    #[inline]
    fn dirty(&self, idx: usize) -> bool {
        self.bits[self.bitmap_words + (idx >> 6)] & (1 << (idx & 63)) != 0
    }

    /// Returns whether `line` is present, without touching LRU state.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        let (set, tag) = self.set_and_tag(line);
        self.find_way(set, tag).is_some()
    }

    /// Returns word `word` of `line` if present, without touching LRU
    /// state — an architectural observation, not a modelled access.
    #[must_use]
    pub fn peek_word(&self, line: LineAddr, word: usize) -> Option<u64> {
        debug_assert!(word < self.words_per_line);
        self.peek_line(line).map(|data| data[word])
    }

    /// Returns the words of `line` if present, without touching LRU state.
    #[must_use]
    pub fn peek_line(&self, line: LineAddr) -> Option<&[u64]> {
        let (set, tag) = self.set_and_tag(line);
        let way = self.find_way(set, tag)?;
        Some(self.line((set << self.assoc_shift) + way))
    }

    /// The data words of way slot `idx`.
    #[inline]
    fn line(&self, idx: usize) -> &[u64] {
        &self.data[idx * self.words_per_line..(idx + 1) * self.words_per_line]
    }

    #[inline]
    fn line_mut(&mut self, idx: usize) -> &mut [u64] {
        &mut self.data[idx * self.words_per_line..(idx + 1) * self.words_per_line]
    }

    /// Services a load of word `word` of `line`. On a hit, returns the word
    /// and refreshes LRU state; on a miss, returns `None`.
    pub fn load_word(&mut self, line: LineAddr, word: usize) -> Option<u64> {
        debug_assert!(word < self.words_per_line);
        let (set, tag) = self.set_and_tag(line);
        let way = self.find_way(set, tag)?;
        let idx = (set << self.assoc_shift) + way;
        self.stamps[idx] = self.next_stamp;
        self.next_stamp += 1;
        Some(self.data[idx * self.words_per_line + word])
    }

    /// Applies a store (write-through with write-around): if the line is
    /// present the word is updated in place and `true` is returned;
    /// otherwise nothing is allocated and `false` is returned.
    pub fn store_word(&mut self, line: LineAddr, word: usize, value: u64) -> bool {
        debug_assert!(word < self.words_per_line);
        let (set, tag) = self.set_and_tag(line);
        match self.find_way(set, tag) {
            Some(way) => {
                let idx = (set << self.assoc_shift) + way;
                self.stamps[idx] = self.next_stamp;
                self.next_stamp += 1;
                self.data[idx * self.words_per_line + word] = value;
                true
            }
            None => false,
        }
    }

    /// Fills `line` with `data`, evicting the LRU way of its set if needed.
    /// The filled line starts clean.
    ///
    /// Returns the line that was displaced, if any. (The L1 is
    /// write-through, so the victim's data never needs writing back; the
    /// return value exists for statistics.)
    ///
    /// # Panics
    ///
    /// Panics if `data` is shorter than a line, and in debug builds if the
    /// line is already present (fills must be preceded by a miss).
    pub fn fill(&mut self, line: LineAddr, data: &[u64]) -> Option<LineAddr> {
        let (idx, victim) = self.claim_way(line);
        let n = self.words_per_line;
        self.line_mut(idx).copy_from_slice(&data[..n]);
        victim.map(|(vline, _)| vline)
    }

    /// Claims the way a fill of `line` installs into (a free way, else the
    /// LRU one), tags it as `line`, clean and most recently used, and
    /// returns its slot with the line it displaced and that line's dirty
    /// bit.
    fn claim_way(&mut self, line: LineAddr) -> (usize, Option<(LineAddr, bool)>) {
        let (set, tag) = self.set_and_tag(line);
        debug_assert!(
            self.find_way(set, tag).is_none(),
            "fill of a line that is already present"
        );
        let base = set << self.assoc_shift;
        // Choose an invalid way if one exists, else the LRU way.
        let way = (0..self.assoc)
            .find(|&w| self.tags[base + w] == INVALID)
            .unwrap_or_else(|| {
                (0..self.assoc)
                    .min_by_key(|&w| self.stamps[base + w])
                    .expect("assoc >= 1")
            });
        let idx = base + way;
        let victim = (self.tags[idx] != INVALID).then(|| {
            (
                LineAddr::new((self.tags[idx] << self.set_shift) | set as u64),
                self.dirty(idx),
            )
        });
        self.tags[idx] = tag;
        self.set_bit(0, idx, true);
        self.set_bit(self.bitmap_words, idx, false);
        self.stamps[idx] = self.next_stamp;
        self.next_stamp += 1;
        (idx, victim)
    }

    /// Like [`L1Cache::store_word`], but also sets the line's dirty bit —
    /// the write-back policy's store hit.
    pub fn store_word_dirty(&mut self, line: LineAddr, word: usize, value: u64) -> bool {
        if self.store_word(line, word, value) {
            let (set, tag) = self.set_and_tag(line);
            let way = self.find_way(set, tag).expect("store_word just hit");
            self.set_bit(self.bitmap_words, (set << self.assoc_shift) + way, true);
            true
        } else {
            false
        }
    }

    /// The line a [`L1Cache::fill_with_victim`] of `line` would displace,
    /// with its dirty bit, or `None` when a way is free.
    #[must_use]
    pub fn peek_victim(&self, line: LineAddr) -> Option<(LineAddr, bool)> {
        let (set, _) = self.set_and_tag(line);
        let base = set << self.assoc_shift;
        if (0..self.assoc).any(|w| self.tags[base + w] == INVALID) {
            return None;
        }
        let way = (0..self.assoc)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("assoc >= 1");
        let idx = base + way;
        Some((
            LineAddr::new((self.tags[idx] << self.set_shift) | set as u64),
            self.dirty(idx),
        ))
    }

    /// Fills `line` from `data` and, when the displaced victim was dirty
    /// (the write-back policy's eviction path), swaps the victim's words
    /// into `data` and returns its line. Clean victims and free-way fills
    /// return `None` and leave `data` as it was, as under write-through.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`L1Cache::fill`].
    pub fn fill_with_victim(&mut self, line: LineAddr, data: &mut [u64]) -> Option<LineAddr> {
        let (idx, victim) = self.claim_way(line);
        let n = self.words_per_line;
        match victim {
            Some((vline, true)) => {
                self.line_mut(idx).swap_with_slice(&mut data[..n]);
                Some(vline)
            }
            _ => {
                self.line_mut(idx).copy_from_slice(&data[..n]);
                None
            }
        }
    }

    /// Invalidates `line` if present (inclusion enforcement from L2).
    /// Returns whether it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let (set, tag) = self.set_and_tag(line);
        if let Some(way) = self.find_way(set, tag) {
            let idx = (set << self.assoc_shift) + way;
            self.tags[idx] = INVALID;
            self.set_bit(0, idx, false);
            self.set_bit(self.bitmap_words, idx, false);
            true
        } else {
            false
        }
    }

    /// Number of valid lines (for tests).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        let valid = self.tags.iter().filter(|&&t| t != INVALID).count();
        debug_assert_eq!(
            valid,
            self.bits[..self.bitmap_words]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
        );
        valid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Geometry {
        Geometry::alpha_baseline()
    }

    fn cache() -> L1Cache {
        L1Cache::new(&L1Config::baseline(), &g()).unwrap()
    }

    #[test]
    fn baseline_shape() {
        let c = cache();
        assert_eq!(c.sets(), 256);
        assert_eq!(c.assoc(), 1);
    }

    #[test]
    fn miss_fill_hit_roundtrip() {
        let mut c = cache();
        let line = LineAddr::new(42);
        assert_eq!(c.load_word(line, 2), None);
        assert_eq!(c.fill(line, &[10, 11, 12, 13]), None);
        assert_eq!(c.load_word(line, 2), Some(12));
        assert!(c.contains(line));
    }

    #[test]
    fn peek_word_does_not_touch_lru() {
        let cfg = L1Config {
            assoc: 2,
            ..L1Config::baseline()
        };
        let mut c = L1Cache::new(&cfg, &g()).unwrap();
        let s = 3u64;
        let a = LineAddr::new(s);
        let b = LineAddr::new(s + 128);
        let d = LineAddr::new(s + 256);
        c.fill(a, &[1; 4]);
        c.fill(b, &[2; 4]);
        assert_eq!(c.peek_word(a, 0), Some(1), "peek sees the data");
        assert_eq!(c.peek_word(d, 0), None, "absent line peeks as None");
        // `a` was only peeked, so it is still LRU and gets evicted.
        assert_eq!(c.fill(d, &[3; 4]), Some(a));
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = cache();
        let a = LineAddr::new(5);
        let b = LineAddr::new(5 + 256); // same set, different tag
        c.fill(a, &[1, 1, 1, 1]);
        let victim = c.fill(b, &[2, 2, 2, 2]);
        assert_eq!(victim, Some(a));
        assert!(!c.contains(a));
        assert_eq!(c.load_word(b, 0), Some(2));
    }

    #[test]
    fn store_updates_present_line_only() {
        let mut c = cache();
        let line = LineAddr::new(7);
        assert!(!c.store_word(line, 0, 5), "write-around: miss, no allocate");
        assert!(!c.contains(line), "store miss must not allocate");
        c.fill(line, &[0, 0, 0, 0]);
        assert!(c.store_word(line, 3, 9));
        assert_eq!(c.load_word(line, 3), Some(9));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = cache();
        let line = LineAddr::new(300);
        c.fill(line, &[4, 4, 4, 4]);
        assert!(c.invalidate(line));
        assert!(!c.contains(line));
        assert!(!c.invalidate(line), "second invalidate is a no-op");
        assert_eq!(c.load_word(line, 0), None);
    }

    #[test]
    fn two_way_lru_eviction() {
        let cfg = L1Config {
            assoc: 2,
            ..L1Config::baseline()
        };
        let mut c = L1Cache::new(&cfg, &g()).unwrap();
        assert_eq!(c.sets(), 128);
        let s = 3u64;
        let a = LineAddr::new(s);
        let b = LineAddr::new(s + 128);
        let d = LineAddr::new(s + 256);
        c.fill(a, &[1; 4]);
        c.fill(b, &[2; 4]);
        // Touch `a` so `b` becomes LRU.
        assert!(c.load_word(a, 0).is_some());
        let victim = c.fill(d, &[3; 4]);
        assert_eq!(victim, Some(b));
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = cache();
        for i in 0..256u64 {
            c.fill(LineAddr::new(i), &[i, i, i, i]);
        }
        assert_eq!(c.valid_lines(), 256);
        for i in 0..256u64 {
            assert_eq!(c.load_word(LineAddr::new(i), 1), Some(i));
        }
    }

    #[test]
    fn dirty_bits_and_victim_extraction() {
        let mut c = cache();
        let a = LineAddr::new(5);
        let b = LineAddr::new(5 + 256); // same set
        c.fill(a, &[1, 2, 3, 4]);
        assert_eq!(c.peek_victim(b), Some((a, false)), "clean victim");
        assert!(c.store_word_dirty(a, 1, 20));
        assert_eq!(c.peek_victim(b), Some((a, true)), "dirtied");
        let mut data = [9; 4];
        assert_eq!(c.fill_with_victim(b, &mut data), Some(a));
        assert_eq!(data, [1, 20, 3, 4], "dirty data handed back");
        assert_eq!(c.peek_line(b), Some(&[9; 4][..]), "new line installed");
        // The new line starts clean.
        let d = LineAddr::new(5 + 512);
        assert_eq!(c.peek_victim(d), Some((b, false)));
    }

    #[test]
    fn clean_victims_are_not_returned() {
        let mut c = cache();
        let a = LineAddr::new(7);
        let b = LineAddr::new(7 + 256);
        c.fill(a, &[1; 4]);
        let mut data = [2; 4];
        assert_eq!(c.fill_with_victim(b, &mut data), None);
        assert_eq!(data, [2; 4], "nothing swapped out");
    }

    #[test]
    fn invalidate_clears_dirty() {
        let mut c = cache();
        let a = LineAddr::new(9);
        c.fill(a, &[0; 4]);
        c.store_word_dirty(a, 0, 5);
        c.invalidate(a);
        c.fill(a, &[0; 4]);
        let b = LineAddr::new(9 + 256);
        assert_eq!(c.peek_victim(b), Some((a, false)), "dirty bit was cleared");
    }

    #[test]
    fn store_word_dirty_misses_like_store_word() {
        let mut c = cache();
        assert!(!c.store_word_dirty(LineAddr::new(3), 0, 1));
    }

    /// A fork into a cache that held other lines — valid, dirty, in the
    /// sets the source uses and in others — reads exactly like the source.
    #[test]
    fn a_fork_holds_the_sources_lines_and_no_others() {
        let cfg = L1Config {
            assoc: 2,
            ..L1Config::baseline()
        };
        let mut src = L1Cache::new(&cfg, &g()).unwrap();
        src.fill(LineAddr::new(3), &[1; 4]);
        let mut dst = L1Cache::new(&cfg, &g()).unwrap();
        for l in [3 + 128, 3 + 256, 9, 200] {
            dst.fill(LineAddr::new(l), &[2; 4]);
            dst.store_word_dirty(LineAddr::new(l), 0, 5);
        }
        dst.clone_from(&src);
        assert_eq!(dst.valid_lines(), 1);
        for l in [3, 3 + 128, 3 + 256, 9, 200] {
            assert_eq!(
                dst.peek_line(LineAddr::new(l)),
                src.peek_line(LineAddr::new(l))
            );
        }
        // The set the fork shares with its old lines fills like the source's.
        for c in [&mut src, &mut dst] {
            assert_eq!(c.peek_victim(LineAddr::new(3 + 384)), None, "a way is free");
            c.fill(LineAddr::new(3 + 384), &[4; 4]);
            assert_eq!(
                c.peek_victim(LineAddr::new(3 + 512)),
                Some((LineAddr::new(3), false))
            );
        }
    }

    #[test]
    fn larger_caches_have_more_sets() {
        let c16 = L1Cache::new(&L1Config::with_size(16 * 1024), &g()).unwrap();
        let c32 = L1Cache::new(&L1Config::with_size(32 * 1024), &g()).unwrap();
        assert_eq!(c16.sets(), 512);
        assert_eq!(c32.sets(), 1024);
    }
}
