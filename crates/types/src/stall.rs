//! The paper's three-way taxonomy of write-buffer-induced stalls (Table 3).
//!
//! "Three types of stalls can be blamed on the write buffer" (§2.3):
//!
//! * **buffer-full** — a store finds the buffer full and cannot merge;
//! * **L2-read-access** — an L1 load miss must wait for an underway
//!   write-buffer transaction to release the L2 port;
//! * **load-hazard** — an L1 load miss finds its line active in the buffer
//!   and must wait for the hazard to be handled.
//!
//! The simulator attributes *every* write-buffer-induced stall cycle to
//! exactly one of these categories; the L2 read that follows a hazard or an
//! access wait is charged to the miss itself, exactly as the paper does.

use std::fmt;
use std::ops::{Add, AddAssign, Index};

/// One of the three categories of write-buffer-induced stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// The write buffer is full and the store cannot merge; cycles the store
    /// waits for a free entry.
    BufferFull,
    /// The write buffer occupies L2; cycles a load miss waits to access L2.
    L2ReadAccess,
    /// The line needed by an L1 load miss is active in the write buffer;
    /// cycles spent handling the hazard before the miss can be serviced.
    LoadHazard,
}

impl StallKind {
    /// All three kinds, in the paper's presentation order
    /// (R, F, L in Figure 3 is L2-read-access, buffer-full, load-hazard;
    /// this constant uses the Table 3 order).
    pub const ALL: [Self; 3] = [Self::BufferFull, Self::L2ReadAccess, Self::LoadHazard];

    /// The one-letter code used in the paper's Figure 3 bar labels.
    #[must_use]
    pub const fn code(&self) -> char {
        match self {
            Self::BufferFull => 'F',
            Self::L2ReadAccess => 'R',
            Self::LoadHazard => 'L',
        }
    }
}

crate::wire_names!(StallKind {
    BufferFull => "buffer-full",
    L2ReadAccess => "l2-read-access",
    LoadHazard => "load-hazard",
});

impl fmt::Display for StallKind {
    /// The wire name, except the paper's `L2-read-access`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::L2ReadAccess => f.write_str("L2-read-access"),
            _ => f.write_str(self.name()),
        }
    }
}

/// Stall cycles accumulated per [`StallKind`].
///
/// # Example
///
/// ```
/// use wbsim_types::stall::{StallBreakdown, StallKind};
///
/// let mut b = StallBreakdown::default();
/// b.record(StallKind::BufferFull, 10);
/// b.record(StallKind::LoadHazard, 5);
/// assert_eq!(b.total(), 15);
/// assert_eq!(b[StallKind::BufferFull], 10);
/// assert_eq!(b.pct_of(StallKind::LoadHazard, 100), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    buffer_full: u64,
    l2_read_access: u64,
    load_hazard: u64,
}

impl StallBreakdown {
    /// A breakdown with all counters zero.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buffer_full: 0,
            l2_read_access: 0,
            load_hazard: 0,
        }
    }

    /// Adds `cycles` to the given category.
    pub fn record(&mut self, kind: StallKind, cycles: u64) {
        match kind {
            StallKind::BufferFull => self.buffer_full += cycles,
            StallKind::L2ReadAccess => self.l2_read_access += cycles,
            StallKind::LoadHazard => self.load_hazard += cycles,
        }
    }

    /// Cycles in the given category.
    #[must_use]
    pub const fn get(&self, kind: StallKind) -> u64 {
        match kind {
            StallKind::BufferFull => self.buffer_full,
            StallKind::L2ReadAccess => self.l2_read_access,
            StallKind::LoadHazard => self.load_hazard,
        }
    }

    /// Total write-buffer-induced stall cycles (the paper's "T" bar).
    #[must_use]
    pub const fn total(&self) -> u64 {
        self.buffer_full + self.l2_read_access + self.load_hazard
    }

    /// The given category as a percentage of `total_cycles` (the unit of
    /// every figure in the paper). Returns 0 when `total_cycles` is 0.
    #[must_use]
    pub fn pct_of(&self, kind: StallKind, total_cycles: u64) -> f64 {
        pct(self.get(kind), total_cycles)
    }

    /// Total stalls as a percentage of `total_cycles`.
    #[must_use]
    pub fn total_pct_of(&self, total_cycles: u64) -> f64 {
        pct(self.total(), total_cycles)
    }
}

impl Index<StallKind> for StallBreakdown {
    type Output = u64;

    fn index(&self, kind: StallKind) -> &u64 {
        match kind {
            StallKind::BufferFull => &self.buffer_full,
            StallKind::L2ReadAccess => &self.l2_read_access,
            StallKind::LoadHazard => &self.load_hazard,
        }
    }
}

impl Add for StallBreakdown {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            buffer_full: self.buffer_full + rhs.buffer_full,
            l2_read_access: self.l2_read_access + rhs.l2_read_access,
            load_hazard: self.load_hazard + rhs.load_hazard,
        }
    }
}

impl AddAssign for StallBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

pub(crate) fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_per_kind() {
        let mut b = StallBreakdown::new();
        for (i, k) in StallKind::ALL.iter().enumerate() {
            b.record(*k, (i as u64 + 1) * 10);
        }
        assert_eq!(b.get(StallKind::BufferFull), 10);
        assert_eq!(b.get(StallKind::L2ReadAccess), 20);
        assert_eq!(b.get(StallKind::LoadHazard), 30);
        assert_eq!(b.total(), 60);
    }

    #[test]
    fn percentage_handles_zero_total() {
        let mut b = StallBreakdown::new();
        b.record(StallKind::BufferFull, 5);
        assert_eq!(b.pct_of(StallKind::BufferFull, 0), 0.0);
        assert_eq!(b.total_pct_of(0), 0.0);
        assert!((b.pct_of(StallKind::BufferFull, 50) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn add_and_index() {
        let mut a = StallBreakdown::new();
        a.record(StallKind::LoadHazard, 7);
        let mut b = StallBreakdown::new();
        b.record(StallKind::LoadHazard, 3);
        b.record(StallKind::BufferFull, 1);
        let c = a + b;
        assert_eq!(c[StallKind::LoadHazard], 10);
        assert_eq!(c[StallKind::BufferFull], 1);
        let mut d = StallBreakdown::new();
        d += c;
        assert_eq!(d.total(), 11);
    }

    #[test]
    fn display_and_codes() {
        assert_eq!(StallKind::BufferFull.to_string(), "buffer-full");
        assert_eq!(StallKind::L2ReadAccess.to_string(), "L2-read-access");
        assert_eq!(StallKind::LoadHazard.to_string(), "load-hazard");
        assert_eq!(StallKind::BufferFull.code(), 'F');
        assert_eq!(StallKind::L2ReadAccess.code(), 'R');
        assert_eq!(StallKind::LoadHazard.code(), 'L');
    }
}
