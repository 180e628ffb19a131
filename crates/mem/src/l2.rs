//! The L2 cache: perfect (the paper's baseline) or finite write-back with
//! strict inclusion over L1 (paper §4.2).
//!
//! The real model's policies, chosen to match the paper's (mostly implicit)
//! assumptions:
//!
//! * **write-back, write-allocate**: write-buffer retirements merge into the
//!   L2 line and mark it dirty; if the line is absent it is allocated, and
//!   when the retirement carried only part of a line the remainder is
//!   fetched from memory so the L2 line is never partially valid. The paper
//!   charges a fixed L2 write latency "regardless of whether the entry being
//!   written is full or not" (§2.1), so this background fetch costs no extra
//!   cycles — only an `mm_fetches` count.
//! * **strict inclusion**: every L2 eviction reports the victim line so the
//!   simulator can invalidate L1 ("invalidations required to maintain strict
//!   inclusion", Table 7 caption).
//! * dirty victims are written back to memory (counted, but off the timing
//!   path: the paper never charges L2 eviction time).

use wbsim_types::addr::{Geometry, LineAddr, WordMask};
use wbsim_types::config::{ConfigError, L2Config};

use crate::memory::MainMemory;

/// Result of an L2 read access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2ReadOutcome<'a> {
    /// The full line, borrowed from the cache (or, for a perfect L2, from
    /// the backing memory).
    pub data: &'a [u64],
    /// Whether the read missed in L2 (always `false` for a perfect L2).
    pub miss: bool,
    /// A line evicted to make room, which L1 must invalidate for inclusion.
    pub evicted: Option<LineAddr>,
    /// Whether the eviction wrote a dirty line back to memory.
    pub wrote_back: bool,
}

/// Result of an L2 write access (a write-buffer retirement or flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2WriteOutcome {
    /// A line evicted to make room, which L1 must invalidate for inclusion.
    pub evicted: Option<LineAddr>,
    /// Whether the eviction wrote a dirty line back to memory.
    pub wrote_back: bool,
    /// Whether a partial-line allocate had to fetch the rest of the line
    /// from memory.
    pub fetched: bool,
}

/// The second-level cache: perfect or finite.
#[derive(Debug, Clone)]
pub enum L2Cache {
    /// Never misses; reads and writes go straight to the backing memory.
    Perfect,
    /// A finite, set-associative, write-back cache.
    Real(RealL2),
}

impl L2Cache {
    /// Builds an L2 from its configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid.
    pub fn new(cfg: &L2Config, geometry: &Geometry) -> Result<Self, ConfigError> {
        cfg.validate(geometry)?;
        match cfg {
            L2Config::Perfect { .. } => Ok(Self::Perfect),
            L2Config::Real {
                size_bytes, assoc, ..
            } => Ok(Self::Real(RealL2::new(
                *size_bytes as usize,
                *assoc as usize,
                geometry,
            ))),
        }
    }

    /// Reads a full line (an L1 fill or an I-cache fill).
    pub fn read_line<'a>(
        &'a mut self,
        geometry: &Geometry,
        line: LineAddr,
        mem: &'a mut MainMemory,
    ) -> L2ReadOutcome<'a> {
        match self {
            Self::Perfect => L2ReadOutcome {
                data: mem.read_line(geometry, line),
                miss: false,
                evicted: None,
                wrote_back: false,
            },
            Self::Real(r) => r.read_line(geometry, line, mem),
        }
    }

    /// Writes the `mask`-selected words of `data` to `line` (a write-buffer
    /// retirement or flush).
    pub fn write_line_masked(
        &mut self,
        geometry: &Geometry,
        line: LineAddr,
        mask: WordMask,
        data: &[u64],
        mem: &mut MainMemory,
    ) -> L2WriteOutcome {
        match self {
            Self::Perfect => {
                mem.write_line_masked(geometry, line, mask, data);
                L2WriteOutcome {
                    evicted: None,
                    wrote_back: false,
                    fetched: false,
                }
            }
            Self::Real(r) => r.write_line_masked(geometry, line, mask, data, mem),
        }
    }

    /// Whether `line` currently resides in L2 (always `true` for perfect).
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        match self {
            Self::Perfect => true,
            Self::Real(r) => r.contains(line),
        }
    }

    /// Returns word `word` of `line` if this cache holds it, without
    /// touching LRU state. A perfect L2 returns `None`: it caches nothing
    /// itself, so the backing memory is authoritative.
    #[must_use]
    pub fn peek_word(&self, line: LineAddr, word: usize) -> Option<u64> {
        match self {
            Self::Perfect => None,
            Self::Real(r) => r.peek_word(line, word),
        }
    }

    /// [`L2Cache::peek_word`] for every word of `line` at once.
    #[must_use]
    pub fn peek_line(&self, line: LineAddr) -> Option<&[u64]> {
        match self {
            Self::Perfect => None,
            Self::Real(r) => r.peek_line(line),
        }
    }
}

/// The finite write-back L2 (see the module docs for its policies).
#[derive(Debug, Clone)]
pub struct RealL2 {
    sets: usize,
    assoc: usize,
    /// `log2(sets)` and `log2(assoc)`: both are powers of two
    /// (configuration validation), so set/tag math is shifts and masks.
    set_shift: u32,
    assoc_shift: u32,
    words_per_line: usize,
    tags: Vec<u64>,
    dirty: Vec<bool>,
    stamps: Vec<u64>,
    data: Vec<u64>,
    next_stamp: u64,
}

const INVALID: u64 = u64::MAX;

impl RealL2 {
    fn new(size_bytes: usize, assoc: usize, geometry: &Geometry) -> Self {
        let lines = size_bytes / geometry.line_bytes() as usize;
        let sets = lines / assoc;
        let words_per_line = geometry.words_per_line();
        Self {
            sets,
            assoc,
            set_shift: sets.trailing_zeros(),
            assoc_shift: assoc.trailing_zeros(),
            words_per_line,
            tags: vec![INVALID; lines],
            dirty: vec![false; lines],
            stamps: vec![0; lines],
            data: vec![0; lines * words_per_line],
            next_stamp: 1,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
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

    /// Whether `line` is present.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        let (set, tag) = self.set_and_tag(line);
        self.find_way(set, tag).is_some()
    }

    /// Returns word `word` of `line` if present, without touching LRU
    /// state.
    #[must_use]
    pub fn peek_word(&self, line: LineAddr, word: usize) -> Option<u64> {
        debug_assert!(word < self.words_per_line);
        let (set, tag) = self.set_and_tag(line);
        let way = self.find_way(set, tag)?;
        Some(self.data[((set << self.assoc_shift) + way) * self.words_per_line + word])
    }

    /// Returns the words of `line` if present, without touching LRU state.
    #[must_use]
    pub fn peek_line(&self, line: LineAddr) -> Option<&[u64]> {
        let (set, tag) = self.set_and_tag(line);
        let way = self.find_way(set, tag)?;
        let at = ((set << self.assoc_shift) + way) * self.words_per_line;
        Some(&self.data[at..at + self.words_per_line])
    }

    /// Allocates a way in `set`, evicting if necessary.
    /// Returns `(way_index, evicted_line, wrote_back)`.
    fn allocate(
        &mut self,
        geometry: &Geometry,
        set: usize,
        mem: &mut MainMemory,
    ) -> (usize, Option<LineAddr>, bool) {
        let base = set << self.assoc_shift;
        if let Some(way) = (0..self.assoc).find(|&w| self.tags[base + w] == INVALID) {
            return (way, None, false);
        }
        let way = (0..self.assoc)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("assoc >= 1");
        let idx = base + way;
        let victim = LineAddr::new((self.tags[idx] << self.set_shift) | set as u64);
        let mut wrote_back = false;
        if self.dirty[idx] {
            let full = WordMask::full(self.words_per_line);
            mem.write_line_masked(geometry, victim, full, self.line(idx));
            wrote_back = true;
        }
        self.tags[idx] = INVALID;
        self.dirty[idx] = false;
        (way, Some(victim), wrote_back)
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

    fn read_line(
        &mut self,
        geometry: &Geometry,
        line: LineAddr,
        mem: &mut MainMemory,
    ) -> L2ReadOutcome<'_> {
        let (set, tag) = self.set_and_tag(line);
        if let Some(way) = self.find_way(set, tag) {
            let idx = (set << self.assoc_shift) + way;
            self.stamps[idx] = self.next_stamp;
            self.next_stamp += 1;
            return L2ReadOutcome {
                data: self.line(idx),
                miss: false,
                evicted: None,
                wrote_back: false,
            };
        }
        let (way, evicted, wrote_back) = self.allocate(geometry, set, mem);
        let idx = (set << self.assoc_shift) + way;
        self.tags[idx] = tag;
        self.dirty[idx] = false;
        self.stamps[idx] = self.next_stamp;
        self.next_stamp += 1;
        self.line_mut(idx)
            .copy_from_slice(mem.read_line(geometry, line));
        L2ReadOutcome {
            data: self.line(idx),
            miss: true,
            evicted,
            wrote_back,
        }
    }

    fn write_line_masked(
        &mut self,
        geometry: &Geometry,
        line: LineAddr,
        mask: WordMask,
        data: &[u64],
        mem: &mut MainMemory,
    ) -> L2WriteOutcome {
        let (set, tag) = self.set_and_tag(line);
        if let Some(way) = self.find_way(set, tag) {
            let idx = (set << self.assoc_shift) + way;
            self.stamps[idx] = self.next_stamp;
            self.next_stamp += 1;
            self.dirty[idx] = true;
            let dst = self.line_mut(idx);
            for i in mask.iter() {
                dst[i] = data[i];
            }
            return L2WriteOutcome {
                evicted: None,
                wrote_back: false,
                fetched: false,
            };
        }
        // Write-allocate: fetch the rest of the line if the write is
        // partial, so L2 lines are never partially valid.
        let (way, evicted, wrote_back) = self.allocate(geometry, set, mem);
        let idx = (set << self.assoc_shift) + way;
        let fetched = !mask.is_full(self.words_per_line);
        self.tags[idx] = tag;
        self.dirty[idx] = true;
        self.stamps[idx] = self.next_stamp;
        self.next_stamp += 1;
        let dst = self.line_mut(idx);
        if fetched {
            dst.copy_from_slice(mem.read_line(geometry, line));
        }
        for i in mask.iter() {
            dst[i] = data[i];
        }
        L2WriteOutcome {
            evicted,
            wrote_back,
            fetched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_types::addr::Addr;

    fn g() -> Geometry {
        Geometry::alpha_baseline()
    }

    fn real_l2(size_kb: u32) -> L2Cache {
        L2Cache::new(&L2Config::real_with_size(size_kb * 1024), &g()).unwrap()
    }

    #[test]
    fn perfect_l2_reads_memory_directly() {
        let geo = g();
        let mut mem = MainMemory::new();
        let mut l2 = L2Cache::new(&L2Config::baseline(), &geo).unwrap();
        let line = geo.line_of(Addr::new(0x4000));
        mem.write_word(geo.word_addr_in_line(line, 1), 77);
        let out = l2.read_line(&geo, line, &mut mem);
        assert!(!out.miss);
        assert_eq!(out.data[1], 77);
        assert!(l2.contains(line));
    }

    #[test]
    fn perfect_l2_writes_pass_through() {
        let geo = g();
        let mut mem = MainMemory::new();
        let mut l2 = L2Cache::new(&L2Config::baseline(), &geo).unwrap();
        let line = LineAddr::new(88);
        let mut mask = WordMask::empty();
        mask.set(2);
        l2.write_line_masked(&geo, line, mask, &[0, 0, 55, 0], &mut mem);
        assert_eq!(mem.read_word(geo.word_addr_in_line(line, 2)), 55);
    }

    #[test]
    fn real_l2_cold_miss_then_hit() {
        let geo = g();
        let mut mem = MainMemory::new();
        let mut l2 = real_l2(128);
        let line = LineAddr::new(10);
        mem.write_word(geo.word_addr_in_line(line, 0), 5);
        let first = l2.read_line(&geo, line, &mut mem);
        assert!(first.miss);
        assert_eq!(first.data[0], 5);
        let second = l2.read_line(&geo, line, &mut mem);
        assert!(!second.miss);
    }

    #[test]
    fn peek_word_sees_cached_data_without_lru_effects() {
        let geo = g();
        let mut mem = MainMemory::new();
        let perfect = L2Cache::new(&L2Config::baseline(), &geo).unwrap();
        assert_eq!(
            perfect.peek_word(LineAddr::new(1), 0),
            None,
            "perfect L2 defers to memory"
        );

        let mut l2 = real_l2(128);
        let line = LineAddr::new(10);
        mem.write_word(geo.word_addr_in_line(line, 2), 44);
        assert_eq!(l2.peek_word(line, 2), None, "not yet cached");
        l2.read_line(&geo, line, &mut mem);
        assert_eq!(l2.peek_word(line, 2), Some(44));
    }

    #[test]
    fn real_l2_write_allocate_partial_fetches() {
        let geo = g();
        let mut mem = MainMemory::new();
        let mut l2 = real_l2(128);
        let line = LineAddr::new(3);
        mem.write_word(geo.word_addr_in_line(line, 0), 111);
        let mut mask = WordMask::empty();
        mask.set(1);
        let out = l2.write_line_masked(&geo, line, mask, &[0, 222, 0, 0], &mut mem);
        assert!(out.fetched, "partial allocate must fetch the line");
        // The L2 line must now hold both the fetched and the written words.
        let read = l2.read_line(&geo, line, &mut mem);
        assert!(!read.miss);
        assert_eq!(read.data[0], 111);
        assert_eq!(read.data[1], 222);
    }

    #[test]
    fn real_l2_full_line_write_does_not_fetch() {
        let geo = g();
        let mut mem = MainMemory::new();
        let mut l2 = real_l2(128);
        let out = l2.write_line_masked(
            &geo,
            LineAddr::new(4),
            WordMask::full(4),
            &[9, 9, 9, 9],
            &mut mem,
        );
        assert!(!out.fetched);
    }

    #[test]
    fn dirty_eviction_writes_back_and_reports_victim() {
        let geo = g();
        let mut mem = MainMemory::new();
        let mut l2 = real_l2(128);
        let sets = 128 * 1024 / 32; // 4096 sets, direct-mapped
        let a = LineAddr::new(7);
        let b = LineAddr::new(7 + sets as u64);
        l2.write_line_masked(&geo, a, WordMask::full(4), &[1, 2, 3, 4], &mut mem);
        assert_eq!(
            mem.read_word(geo.word_addr_in_line(a, 0)),
            0,
            "write-back: memory stale"
        );
        let out = l2.write_line_masked(&geo, b, WordMask::full(4), &[5, 6, 7, 8], &mut mem);
        assert_eq!(out.evicted, Some(a), "inclusion victim reported");
        assert!(out.wrote_back);
        assert_eq!(
            mem.read_word(geo.word_addr_in_line(a, 0)),
            1,
            "dirty data reached memory"
        );
        assert_eq!(mem.read_word(geo.word_addr_in_line(a, 3)), 4);
    }

    #[test]
    fn clean_eviction_does_not_write_back() {
        let geo = g();
        let mut mem = MainMemory::new();
        let mut l2 = real_l2(128);
        let sets = 4096u64;
        let a = LineAddr::new(9);
        let b = LineAddr::new(9 + sets);
        l2.read_line(&geo, a, &mut mem); // clean fill
        let out = l2.read_line(&geo, b, &mut mem);
        assert_eq!(out.evicted, Some(a));
        assert!(!out.wrote_back);
    }

    #[test]
    fn read_after_masked_write_returns_merged_data() {
        let geo = g();
        let mut mem = MainMemory::new();
        let mut l2 = real_l2(128);
        let line = LineAddr::new(20);
        l2.read_line(&geo, line, &mut mem); // bring in zeros, clean
        let mut mask = WordMask::empty();
        mask.set(3);
        l2.write_line_masked(&geo, line, mask, &[0, 0, 0, 333], &mut mem);
        let out = l2.read_line(&geo, line, &mut mem);
        assert!(!out.miss);
        assert_eq!(out.data, vec![0, 0, 0, 333]);
    }

    #[test]
    fn capacity_eviction_respects_lru_in_associative_l2() {
        let geo = g();
        let mut mem = MainMemory::new();
        let cfg = L2Config::Real {
            size_bytes: 128 * 1024,
            assoc: 2,
            latency: 6,
            mm_latency: 25,
        };
        let mut l2 = L2Cache::new(&cfg, &geo).unwrap();
        let sets = 2048u64;
        let a = LineAddr::new(1);
        let b = LineAddr::new(1 + sets);
        let c = LineAddr::new(1 + 2 * sets);
        l2.read_line(&geo, a, &mut mem);
        l2.read_line(&geo, b, &mut mem);
        l2.read_line(&geo, a, &mut mem); // refresh a; b becomes LRU
        let out = l2.read_line(&geo, c, &mut mem);
        assert_eq!(out.evicted, Some(b));
        assert!(l2.contains(a) && l2.contains(c) && !l2.contains(b));
    }
}
