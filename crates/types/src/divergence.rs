//! Vocabulary for the differential oracle: divergence reports and fault
//! injection.
//!
//! The `wbsim-oracle` crate replays a reference stream through an untimed
//! architectural model and cross-checks the cycle-level machine against it.
//! Every way the two can disagree — a load observing the wrong value, the
//! final memory image differing, a conservation invariant breaking — is one
//! variant of [`Divergence`]. The report carries enough context to
//! reproduce the failure without re-running the comparison.
//!
//! [`FaultInjection`] deliberately breaks the machine so the oracle's
//! detection power can itself be tested: a differential harness that never
//! fires on a known bug is vacuous.

use std::fmt;

use crate::addr::Addr;

/// Deliberate, machine-level bugs that can be switched on through
/// [`MachineConfig::fault`](crate::config::MachineConfig::fault) to verify
/// that the differential oracle catches them. Never enabled in experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultInjection {
    /// Under the read-from-WB hazard policy, loads skip the write-buffer
    /// probe and L1 fills skip the buffered-word merge — the classic
    /// stale-data bug the paper's §2.2 forwarding datapath exists to
    /// prevent ("the fill into L1 would obtain stale data").
    SkipWbForwarding,
    /// Autonomous retirement never fires: buffered entries sit in the
    /// write buffer forever unless a hazard flush or barrier pushes them
    /// out. A liveness bug — the safety invariants all still hold — used
    /// to prove the reachability checker's livelock detection fires.
    StarveRetirement,
    /// The event-driven engine's span-skip horizon is computed one cycle
    /// too far: the skip lands *past* the earliest pending event instead
    /// of on it. Only the fast engine is affected — the reference engine
    /// never skips — so the bug is invisible to every single-stepping
    /// checker and exists to prove the cross-engine refinement checker
    /// (`wbsim check --refine`) fires.
    OvershootSkip,
}

crate::wire_names!(FaultInjection: Display {
    SkipWbForwarding => "skip-wb-forwarding",
    StarveRetirement => "starve-retirement",
    OvershootSkip => "overshoot-skip",
});

/// Where the machine architecturally resolved a load's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadSource {
    /// An L1 hit.
    L1,
    /// A write-buffer forward (read-from-WB policy).
    WriteBuffer,
    /// An L2 (or main-memory) fill.
    L2Fill,
}

crate::wire_names!(LoadSource {
    L1 => "l1",
    WriteBuffer => "write-buffer",
    L2Fill => "l2-fill",
});

impl fmt::Display for LoadSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::L1 => "L1 hit",
            Self::WriteBuffer => "write-buffer forward",
            Self::L2Fill => "L2 fill",
        };
        f.write_str(s)
    }
}

/// One disagreement between the cycle-level machine and the architectural
/// reference model (or a broken machine-internal conservation invariant).
///
/// The differential harness reports the *first* divergence it finds, in
/// checking order: load values in program order, then the final memory
/// image, then the conservation identities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// A load observed a different value than the reference model.
    LoadValue {
        /// Index of the load among the stream's loads (0-based, program
        /// order).
        index: usize,
        /// The byte address loaded.
        addr: Addr,
        /// What the machine returned.
        machine: u64,
        /// What the architectural model expected.
        oracle: u64,
        /// Which datapath the machine resolved the load through.
        source: LoadSource,
    },
    /// The machine performed a different number of loads than the stream
    /// contains.
    LoadCount {
        /// Loads the machine observed.
        machine: usize,
        /// Loads in the reference stream.
        oracle: usize,
    },
    /// After the run, a touched word differs between the machine's
    /// architectural memory state and the reference model.
    FinalMemory {
        /// The byte address of the word.
        addr: Addr,
        /// The machine's architecturally visible value.
        machine: u64,
        /// The reference model's value.
        oracle: u64,
    },
    /// The three stall categories do not sum to the reported total: a
    /// stall cycle escaped the paper's Table 3 taxonomy.
    StallPartition {
        /// Reported total stall cycles.
        total: u64,
        /// Buffer-full stall cycles.
        buffer_full: u64,
        /// L2-read-access stall cycles.
        l2_read_access: u64,
        /// Load-hazard stall cycles.
        load_hazard: u64,
    },
    /// Cycles do not decompose into instructions + stalls + miss waits +
    /// barrier drains + I-fetch waits.
    CycleAccounting {
        /// Reported cycle count.
        cycles: u64,
        /// Sum of the accounted components.
        accounted: u64,
    },
    /// Write-buffer entries were created and destroyed at different rates:
    /// allocations must equal retirements + flushes + residual occupancy.
    StoreConservation {
        /// Entries allocated by stores.
        allocations: u64,
        /// Whole dirty lines inserted as write-back victims.
        victim_allocs: u64,
        /// Autonomous retirements.
        retirements: u64,
        /// Hazard-driven flushes.
        flushes: u64,
        /// Entries still resident when the run ended.
        residual: u64,
    },
    /// Stores issued do not equal write-buffer allocations + merges
    /// (write-through L1 only, where every store enters the buffer).
    StoreAccounting {
        /// Stores in the stream.
        stores: u64,
        /// Entries allocated.
        allocations: u64,
        /// Stores merged into existing entries.
        merges: u64,
    },
    /// The per-cycle occupancy histogram does not cover every cycle
    /// exactly once.
    OccupancyAccounting {
        /// Sum of the occupancy histogram buckets.
        hist_sum: u64,
        /// Reported cycle count.
        cycles: u64,
    },
    /// The real run finished faster than the ideal-buffer lower bound.
    IdealBound {
        /// Real run cycles.
        real: u64,
        /// Ideal run cycles.
        ideal: u64,
    },
    /// For a flush-based hazard policy over a perfect L2, the exact
    /// identity `real = ideal + stalls + barrier drains` was violated.
    StallIdentity {
        /// Real run cycles.
        real: u64,
        /// Ideal run cycles.
        ideal: u64,
        /// Categorized stall cycles.
        stalls: u64,
        /// Barrier drain cycles.
        barrier_stalls: u64,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LoadValue {
                index,
                addr,
                machine,
                oracle,
                source,
            } => write!(
                f,
                "load #{index} of {addr:#x} via {source}: machine returned {machine}, \
                 architectural model expected {oracle}"
            ),
            Self::LoadCount { machine, oracle } => write!(
                f,
                "machine performed {machine} loads but the stream contains {oracle}"
            ),
            Self::FinalMemory {
                addr,
                machine,
                oracle,
            } => write!(
                f,
                "final memory at {addr:#x}: machine holds {machine}, \
                 architectural model expected {oracle}"
            ),
            Self::StallPartition {
                total,
                buffer_full,
                l2_read_access,
                load_hazard,
            } => write!(
                f,
                "stall partition broken: total {total} != buffer-full {buffer_full} + \
                 L2-read-access {l2_read_access} + load-hazard {load_hazard}"
            ),
            Self::CycleAccounting { cycles, accounted } => write!(
                f,
                "cycle accounting broken: {cycles} cycles vs {accounted} accounted"
            ),
            Self::StoreConservation {
                allocations,
                victim_allocs,
                retirements,
                flushes,
                residual,
            } => write!(
                f,
                "entry conservation broken: {allocations} allocations + {victim_allocs} \
                 victim inserts != {retirements} retirements + {flushes} flushes + \
                 {residual} residual"
            ),
            Self::StoreAccounting {
                stores,
                allocations,
                merges,
            } => write!(
                f,
                "store accounting broken: {stores} stores != {allocations} allocations \
                 + {merges} merges"
            ),
            Self::OccupancyAccounting { hist_sum, cycles } => write!(
                f,
                "occupancy histogram covers {hist_sum} cycles of {cycles}"
            ),
            Self::IdealBound { real, ideal } => write!(
                f,
                "real run ({real} cycles) beat the ideal-buffer lower bound ({ideal})"
            ),
            Self::StallIdentity {
                real,
                ideal,
                stalls,
                barrier_stalls,
            } => write!(
                f,
                "stall identity broken: real {real} != ideal {ideal} + stalls {stalls} \
                 + barrier drains {barrier_stalls}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_quantities() {
        let d = Divergence::LoadValue {
            index: 3,
            addr: Addr::new(0x40),
            machine: 0,
            oracle: 7,
            source: LoadSource::L2Fill,
        };
        let s = d.to_string();
        assert!(s.contains("load #3"));
        assert!(s.contains("0x40"));
        assert!(s.contains("expected 7"));
        assert!(s.contains("L2 fill"));

        let i = Divergence::StallIdentity {
            real: 10,
            ideal: 8,
            stalls: 1,
            barrier_stalls: 0,
        };
        assert!(i.to_string().contains("real 10 != ideal 8"));
    }

    #[test]
    fn fault_and_source_display() {
        assert_eq!(
            FaultInjection::SkipWbForwarding.to_string(),
            "skip-wb-forwarding"
        );
        assert_eq!(
            FaultInjection::StarveRetirement.to_string(),
            "starve-retirement"
        );
        assert_eq!(FaultInjection::OvershootSkip.to_string(), "overshoot-skip");
        assert_eq!(LoadSource::WriteBuffer.to_string(), "write-buffer forward");
    }
}
