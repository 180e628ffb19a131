//! Write-buffer policy enums — the design dimensions the paper studies.
//!
//! The paper varies three write-buffer dimensions (depth is a plain number
//! and lives in [`WriteBufferConfig`](crate::config::WriteBufferConfig)):
//!
//! * **retirement policy** — *when* the buffer autonomously writes its
//!   oldest entry to L2 ([`RetirementPolicy`]);
//! * **load-hazard policy** — what happens when an L1 load miss finds its
//!   line active in the buffer ([`LoadHazardPolicy`]);
//! * **L2 priority** — who wins when a load miss and a pending retirement
//!   both want the L2 port ([`L2Priority`]).
//!
//! [`RetirementOrder`] and [`DatapathWidth`] cover the remaining knobs the
//! paper mentions (Table 2 and §4.3).

use std::fmt;

/// When the write buffer autonomously retires its next entry to L2.
///
/// "Retirement policy determines when to retire that entry" (paper §2.2).
/// The paper's experiments use occupancy-based policies exclusively;
/// [`FixedRate`](RetirementPolicy::FixedRate) implements the alternative due
/// to Jouppi that §2.2 argues against, for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetirementPolicy {
    /// Retire the oldest entry whenever `high_water` or more entries are
    /// valid. The Alpha 21064 and 21164 use `RetireAt(2)`.
    RetireAt(usize),
    /// Attempt one retirement every `interval` cycles whenever the buffer is
    /// non-empty, regardless of occupancy (Jouppi's fixed-rate policy).
    FixedRate(u64),
}

impl RetirementPolicy {
    /// The occupancy high-water mark, if this is an occupancy-based policy.
    #[must_use]
    pub const fn high_water(&self) -> Option<usize> {
        match self {
            Self::RetireAt(n) => Some(*n),
            Self::FixedRate(_) => None,
        }
    }

    /// Returns whether a retirement should begin, given the current
    /// occupancy and the number of cycles since the last retirement began.
    #[must_use]
    pub fn should_retire(&self, occupancy: usize, cycles_since_last: u64) -> bool {
        if occupancy == 0 {
            return false;
        }
        match self {
            Self::RetireAt(n) => occupancy >= *n,
            Self::FixedRate(interval) => cycles_since_last >= *interval,
        }
    }
}

impl fmt::Display for RetirementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RetireAt(n) => write!(f, "retire-at-{n}"),
            Self::FixedRate(i) => write!(f, "fixed-rate-{i}"),
        }
    }
}

/// Which entry is retired when a retirement occurs (paper Table 2).
///
/// The paper's experiments use FIFO only. LRU turns the buffer into
/// Jouppi's *write cache* ("a write buffer organized as a small, fully
/// associative cache with LRU replacement", paper §1), which this workspace
/// implements as an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RetirementOrder {
    /// Retire the oldest-allocated entry first (the paper's only order).
    #[default]
    Fifo,
    /// Retire the least-recently-written entry first (write-cache style).
    Lru,
}

crate::wire_names!(RetirementOrder { Fifo => "fifo", Lru => "lru" });

impl fmt::Display for RetirementOrder {
    /// The acronym, upper-case (`FIFO`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name().to_ascii_uppercase())
    }
}

/// What happens when an L1 load miss hits a line that is active in the
/// write buffer — a *load hazard* (paper §2.2, Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadHazardPolicy {
    /// Flush every occupied entry (Alpha 21064).
    FlushFull,
    /// Flush entries in FIFO order up to and including the hit entry
    /// (Alpha 21164).
    FlushPartial,
    /// Flush only the hit entry (suggested by Chu and Gottipati).
    FlushItemOnly,
    /// Read the data directly out of the write buffer without flushing.
    /// If the line is active but the needed word is invalid, a normal L2
    /// access occurs and the incoming line is merged with the buffer's
    /// valid words.
    ReadFromWb,
}

impl LoadHazardPolicy {
    /// All four policies, in the paper's order of increasing precision.
    pub const ALL: [Self; 4] = [
        Self::FlushFull,
        Self::FlushPartial,
        Self::FlushItemOnly,
        Self::ReadFromWb,
    ];

    /// Returns whether this policy ever flushes buffer entries on a hazard.
    #[must_use]
    pub const fn flushes(&self) -> bool {
        !matches!(self, Self::ReadFromWb)
    }
}

crate::wire_names!(LoadHazardPolicy {
    FlushFull => "flush-full",
    FlushPartial => "flush-partial",
    FlushItemOnly => "flush-item-only",
    ReadFromWb => "read-from-wb",
});

impl fmt::Display for LoadHazardPolicy {
    /// The wire name, except the paper's `read-from-WB`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ReadFromWb => f.write_str("read-from-WB"),
            _ => f.write_str(self.name()),
        }
    }
}

/// Arbitration between L1 load misses and write-buffer retirements for the
/// L2 port (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L2Priority {
    /// Loads always beat pending retirements, but a write transaction
    /// already underway is never preempted. This is the Alphas' policy and
    /// the paper's baseline.
    ReadBypass,
    /// Read-bypassing until buffer occupancy reaches the threshold, at which
    /// point pending writes beat new reads (the UltraSPARC-I policy,
    /// mentioned in §2.2 and implemented here for ablation).
    WritePriorityAbove(usize),
}

impl fmt::Display for L2Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ReadBypass => f.write_str("read-bypass"),
            Self::WritePriorityAbove(n) => write!(f, "write-priority-above-{n}"),
        }
    }
}

/// L1 data-cache write policy.
///
/// The paper's premise is a write-through L1 ("L1s often use
/// write-through", §1, citing Jouppi's study of cache write policies).
/// The write-back alternative is implemented as an ablation: stores dirty
/// the L1 instead of entering the write buffer, store misses
/// write-allocate (fetching the line), and dirty victims drain to L2
/// through the (re-purposed) buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum L1WritePolicy {
    /// Every store is forwarded to the write buffer; store misses do not
    /// allocate (write-around). The paper's machine.
    #[default]
    WriteThrough,
    /// Stores dirty L1 lines; misses fetch-and-allocate; dirty victims are
    /// written back through a victim buffer.
    WriteBack,
}

crate::wire_names!(L1WritePolicy: Display {
    WriteThrough => "write-through",
    WriteBack => "write-back",
});

/// Width of the datapath between the write buffer and L2 (paper §4.3).
///
/// The paper's experiments assume a full-line datapath; §4.3 notes that
/// contemporary machines had half-line datapaths, doubling transfer time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DatapathWidth {
    /// One transaction moves a whole line (the paper's assumption).
    #[default]
    FullLine,
    /// One transaction moves half a line, so retirements and flushes take
    /// two back-to-back transactions.
    HalfLine,
}

impl DatapathWidth {
    /// Number of L2 bus transactions needed to move one line.
    #[must_use]
    pub const fn transactions_per_line(&self) -> u64 {
        match self {
            Self::FullLine => 1,
            Self::HalfLine => 2,
        }
    }
}

crate::wire_names!(DatapathWidth: Display { FullLine => "full-line", HalfLine => "half-line" });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_at_triggers_on_occupancy() {
        let p = RetirementPolicy::RetireAt(2);
        assert!(!p.should_retire(0, 1000));
        assert!(!p.should_retire(1, 1000));
        assert!(p.should_retire(2, 0));
        assert!(p.should_retire(5, 0));
        assert_eq!(p.high_water(), Some(2));
    }

    #[test]
    fn fixed_rate_triggers_on_time() {
        let p = RetirementPolicy::FixedRate(10);
        assert!(!p.should_retire(0, 100), "empty buffer never retires");
        assert!(!p.should_retire(3, 9));
        assert!(p.should_retire(1, 10));
        assert_eq!(p.high_water(), None);
    }

    #[test]
    fn display_names_match_paper_vocabulary() {
        assert_eq!(RetirementPolicy::RetireAt(8).to_string(), "retire-at-8");
        assert_eq!(LoadHazardPolicy::FlushFull.to_string(), "flush-full");
        assert_eq!(LoadHazardPolicy::ReadFromWb.to_string(), "read-from-WB");
        assert_eq!(L2Priority::ReadBypass.to_string(), "read-bypass");
        assert_eq!(RetirementOrder::Fifo.to_string(), "FIFO");
        assert_eq!(DatapathWidth::HalfLine.to_string(), "half-line");
    }

    #[test]
    fn hazard_policy_properties() {
        assert!(LoadHazardPolicy::FlushFull.flushes());
        assert!(LoadHazardPolicy::FlushPartial.flushes());
        assert!(LoadHazardPolicy::FlushItemOnly.flushes());
        assert!(!LoadHazardPolicy::ReadFromWb.flushes());
        assert_eq!(LoadHazardPolicy::ALL.len(), 4);
    }

    #[test]
    fn datapath_transactions() {
        assert_eq!(DatapathWidth::FullLine.transactions_per_line(), 1);
        assert_eq!(DatapathWidth::HalfLine.transactions_per_line(), 2);
    }
}
