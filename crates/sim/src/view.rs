//! The one reader of machine state for the model checkers.
//!
//! [`StateView`] borrows the fields of either machine that its abstract
//! state is made of — the write buffer, the retirement and port
//! countdowns, the outstanding misses and the cache contents of a line —
//! and reads them relative to `now`, so two machines that differ only by
//! a time shift read identically. The checkers' packed state keys
//! (`wbsim-check`'s `abstract_state`) are written straight from a view,
//! without building anything.

use wbsim_core::entry::Entry;
use wbsim_types::addr::{Geometry, LineAddr};

use crate::hierarchy::Hierarchy;
use crate::machine::MshrSnapshot;
use crate::nonblocking::Mshr;

/// A borrowed, read-only view of a machine's abstractable state; see the
/// module docs. [`crate::SimMachine::view`] lends one.
#[derive(Debug, Clone, Copy)]
pub struct StateView<'a> {
    hier: &'a Hierarchy,
    mshrs: &'a [Mshr],
    at_op_boundary: bool,
}

impl<'a> StateView<'a> {
    pub(crate) fn new(hier: &'a Hierarchy, mshrs: &'a [Mshr], at_op_boundary: bool) -> Self {
        StateView {
            hier,
            mshrs,
            at_op_boundary,
        }
    }

    /// Whether the CPU sits at an op boundary (no instruction mid-flight).
    #[must_use]
    pub fn at_op_boundary(&self) -> bool {
        self.at_op_boundary
    }

    /// The machine's address geometry.
    #[must_use]
    pub fn geometry(&self) -> &'a Geometry {
        &self.hier.g
    }

    /// The write-buffer entries in FIFO order, which is allocation order
    /// and therefore ascending entry id.
    pub fn wb_entries(&self) -> impl Iterator<Item = &'a Entry> + 'a {
        self.hier.wb.iter()
    }

    /// The number of write-buffer entries, one mid-retirement included.
    #[must_use]
    pub fn wb_len(&self) -> usize {
        self.hier.wb.occupancy()
    }

    /// Cycles until the in-flight autonomous retirement completes
    /// (`None` when no retirement is underway).
    #[must_use]
    pub fn retire_countdown(&self) -> Option<u64> {
        let now = self.hier.now;
        self.hier.wb_retire.map(|p| p.done_at.saturating_sub(now))
    }

    /// Cycles until the L2 port frees (0 = free now).
    #[must_use]
    pub fn port_countdown(&self) -> u64 {
        self.hier.port.free_at().saturating_sub(self.hier.now)
    }

    /// The outstanding miss-status registers in issue order, each relative
    /// to `now`. The register file is a handful of entries kept in no
    /// particular order, so each step picks the next-issued one.
    pub fn mshrs(&self) -> impl Iterator<Item = MshrSnapshot> + 'a {
        let (mshrs, now) = (self.mshrs, self.hier.now);
        let mut after = None;
        std::iter::from_fn(move || {
            let m = mshrs
                .iter()
                .filter(|m| after.is_none_or(|seq| m.seq > seq))
                .min_by_key(|m| m.seq)?;
            after = Some(m.seq);
            Some(MshrSnapshot {
                line: m.line.as_u64(),
                countdown: m.done_at.map(|d| d.saturating_sub(now)),
                miss: m.miss,
            })
        })
    }

    /// The L1 words of `line`, or `None` when it is not resident.
    #[must_use]
    pub fn l1_line(&self, line: LineAddr) -> Option<&'a [u64]> {
        self.hier.l1.peek_line(line)
    }

    /// The memory-side words of `line`: L2's copy when the line is
    /// resident there, else main memory's (0 for a word never written).
    #[must_use]
    pub fn mem_line(&self, line: LineAddr) -> &'a [u64] {
        let h = self.hier;
        h.l2.peek_line(line)
            .unwrap_or_else(|| h.mem.read_line(&h.g, line))
    }
}
