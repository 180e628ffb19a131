//! The differential harness: one op stream, two executions, first
//! divergence reported.

use std::collections::BTreeMap;

use wbsim_sim::{Event, Machine, NonBlockingMachine, Observer, SimMachine};
use wbsim_types::addr::Addr;
use wbsim_types::config::{ConfigError, IcacheConfig, L2Config, MachineConfig};
use wbsim_types::divergence::{Divergence, LoadSource};
use wbsim_types::op::Op;
use wbsim_types::policy::LoadHazardPolicy;
use wbsim_types::stall::StallKind;
use wbsim_types::stats::SimStats;

use crate::arch::ArchModel;

/// What a successful differential run verified.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The real run's statistics.
    pub stats: SimStats,
    /// The ideal-buffer run's statistics, when the configuration admits an
    /// ideal-bound check (perfect L2 + perfect I-cache + a flush-based
    /// hazard policy); `None` otherwise.
    pub ideal: Option<SimStats>,
    /// Load values compared against the reference model.
    pub loads_checked: u64,
    /// Distinct words whose final value was compared.
    pub words_checked: u64,
}

/// Records each load's terminal event in program order, plus per-cycle
/// coverage, from the structured event stream. A load ends in
/// [`Event::LoadResolved`] (value known at issue) or, on the non-blocking
/// machine only, [`Event::LoadMiss`] (it went to an MSHR: there is no
/// architecturally returned value to compare, and the fill is verified
/// when later hits re-read it).
#[derive(Debug, Default)]
struct Recorder {
    /// `(program-order ordinal, addr, value, source)` of resolved loads.
    resolved: Vec<(usize, Addr, u64, LoadSource)>,
    /// Terminal events seen (resolved + missed) = loads issued.
    loads: usize,
    cycles_seen: u64,
}

impl Observer for Recorder {
    fn event(&mut self, ev: &Event) {
        match *ev {
            Event::CycleEnd { .. } => self.cycles_seen += 1,
            Event::LoadResolved {
                addr,
                value,
                source,
                ..
            } => {
                self.resolved.push((self.loads, addr, value, source));
                self.loads += 1;
            }
            Event::LoadMiss { .. } => self.loads += 1,
            _ => {}
        }
    }
}

impl Recorder {
    /// Checks 1 and 2 of [`diff_run`]: each resolved load against the
    /// model's value at its program-order ordinal, then the number of
    /// terminal events (an extra one is a count divergence).
    fn check_loads(&self, expected: &[u64]) -> Result<(), Divergence> {
        for &(index, addr, machine, source) in &self.resolved {
            if let Some(&oracle) = expected.get(index).filter(|&&v| v != machine) {
                return Err(Divergence::LoadValue {
                    index,
                    addr,
                    machine,
                    oracle,
                    source,
                });
            }
        }
        if self.loads != expected.len() {
            return Err(Divergence::LoadCount {
                machine: self.loads,
                oracle: expected.len(),
            });
        }
        Ok(())
    }
}

/// Runs `ops` through the cycle-level machine and the architectural
/// reference model and returns the first divergence, if any.
///
/// Checks, in order:
///
/// 1. **Load values** — every load, in program order, against the model.
/// 2. **Load count** — the machine performed exactly the stream's loads.
/// 3. **Final memory** — every word the stream touched reads back
///    (architecturally: L1 → write buffer → L2 → memory) as the model's
///    final value.
/// 4. **Conservation identities** — the three-way stall partition, cycle
///    accounting, write-through store accounting, write-buffer entry
///    conservation, and occupancy-histogram coverage.
/// 5. **Ideal bounds** (perfect L2 + perfect I-cache + flush-based hazard
///    policy only) — the real run is no faster than the ideal buffer, and
///    exactly `ideal + stalls + barrier drains` (the identity documented
///    in `wbsim-sim`). Skipped under read-from-WB (buffer hits legitimately
///    beat the ideal buffer and let L1 contents drift from the ideal run's)
///    and over a real L2 (cache contents evolve differently).
///
/// The machine runs with `check_data` forced off: the oracle replaces the
/// machine's inline shadow check, and must outlive injected faults
/// ([`MachineConfig::fault`]) in order to report them.
///
/// # Panics
///
/// Panics if `cfg` fails [`MachineConfig::validate`] — the harness checks
/// behavior, not configuration validation.
pub fn diff_run(cfg: &MachineConfig, ops: &[Op]) -> Result<DiffReport, Divergence> {
    let cfg = unchecked(cfg);
    let machine = Machine::new(cfg.clone()).expect("diff_run requires a valid configuration");
    compare(machine, &cfg, true, ops)
}

/// [`diff_run`] for the non-blocking machine (paper §4.3).
///
/// Loads that resolve at issue (L1 or write-buffer hits) are checked
/// against the model at their program-order position; loads that go to an
/// MSHR have no architecturally returned value in a trace-driven model,
/// so they are checked through **final memory** and through every later
/// hit to the filled line instead. The load *count* (resolved + missed)
/// must still match the stream exactly, and the conservation identities
/// hold minus cycle accounting (overlap is the whole point) and the ideal
/// bound (read-from-WB only).
///
/// # Errors
///
/// Returns the configuration error when `cfg`/`mshrs` are rejected by
/// [`NonBlockingMachine::new`] (notably: the hazard policy must be
/// read-from-WB), so property harnesses can skip invalid combinations;
/// behavioral divergences are reported in the inner `Result`.
pub fn diff_run_nonblocking(
    cfg: &MachineConfig,
    mshrs: usize,
    ops: &[Op],
) -> Result<Result<DiffReport, Divergence>, ConfigError> {
    let cfg = unchecked(cfg);
    let machine = NonBlockingMachine::new(cfg.clone(), mshrs)?;
    Ok(compare(machine, &cfg, false, ops))
}

/// `cfg` with the machine's inline shadow check off: the oracle replaces
/// it, and must outlive injected faults in order to report them.
fn unchecked(cfg: &MachineConfig) -> MachineConfig {
    MachineConfig {
        check_data: false,
        ..cfg.clone()
    }
}

/// The one differential body of [`diff_run`] and
/// [`diff_run_nonblocking`] (`blocking` tells which): `machine` runs
/// `ops` continuously, as users run it, and the checks follow in
/// [`diff_run`]'s order.
fn compare<M: SimMachine>(
    mut machine: M,
    cfg: &MachineConfig,
    blocking: bool,
    ops: &[Op],
) -> Result<DiffReport, Divergence> {
    let g = cfg.geometry;
    let mut rec = Recorder::default();
    let stats = machine.run_observed(ops.iter().copied(), &mut rec);
    let mut oracle = ArchModel::new(g);
    let expected = oracle.run(ops);

    rec.check_loads(&expected)?;

    // 3: final memory over every word the stream touched.
    let words = final_words(&g, ops, &oracle);
    for (&addr, &oracle_v) in &words {
        let machine_v = machine.read_word_architectural(addr);
        if machine_v != oracle_v {
            return Err(Divergence::FinalMemory {
                addr,
                machine: machine_v,
                oracle: oracle_v,
            });
        }
    }

    // 4: conservation identities; cycle accounting on the blocking
    // machine only (non-blocking misses overlap execution, so a cycle
    // may be an instruction *and* a miss wait).
    check_conservation(
        cfg,
        &stats,
        machine.wb_victim_allocs(),
        machine.wb_occupancy() as u64,
        rec.cycles_seen,
        blocking,
    )?;

    // 5: ideal bounds, where the configuration admits them.
    let flush_policy = cfg.write_buffer.hazard != LoadHazardPolicy::ReadFromWb;
    let perfect_substrate =
        matches!(cfg.l2, L2Config::Perfect { .. }) && matches!(cfg.icache, IcacheConfig::Perfect);
    let ideal = if blocking && flush_policy && perfect_substrate {
        let ideal = Machine::new(cfg.clone())
            .expect("validated above")
            .run_ideal(ops.iter().copied());
        if stats.cycles < ideal.cycles {
            return Err(Divergence::IdealBound {
                real: stats.cycles,
                ideal: ideal.cycles,
            });
        }
        if stats.cycles != ideal.cycles + stats.stalls.total() + stats.barrier_stall_cycles {
            return Err(Divergence::StallIdentity {
                real: stats.cycles,
                ideal: ideal.cycles,
                stalls: stats.stalls.total(),
                barrier_stalls: stats.barrier_stall_cycles,
            });
        }
        Some(ideal)
    } else {
        None
    };

    Ok(DiffReport {
        stats,
        ideal,
        loads_checked: rec.resolved.len() as u64,
        words_checked: words.len() as u64,
    })
}

/// Every word the stream touched, with the model's final value. Keyed by
/// a representative byte address.
fn final_words(
    g: &wbsim_types::addr::Geometry,
    ops: &[Op],
    oracle: &ArchModel,
) -> BTreeMap<Addr, u64> {
    let mut touched: BTreeMap<u64, Addr> = BTreeMap::new();
    for op in ops {
        if let Op::Load(addr) | Op::Store(addr) = *op {
            touched.entry(g.word_addr(addr)).or_insert(addr);
        }
    }
    touched
        .values()
        .map(|&addr| (addr, oracle.read_word(addr)))
        .collect()
}

/// Checks the paper's conservation identities over one finished run: the
/// three-way stall partition (Table 3), cycle accounting (when
/// `cycle_accounting` — single-issue blocking machines only),
/// occupancy-histogram coverage, store accounting for write-through L1s,
/// and entry accounting (allocations + victim allocations = retirements +
/// flushes + `residual` entries still buffered).
///
/// Shared between [`diff_run`] and the `wbsim-check` bounded model checker
/// so both gates test the same identities.
///
/// # Errors
///
/// Returns the first violated identity as a [`Divergence`].
pub fn check_conservation(
    cfg: &MachineConfig,
    stats: &SimStats,
    victim_allocs: u64,
    residual: u64,
    cycles_seen: u64,
    cycle_accounting: bool,
) -> Result<(), Divergence> {
    // Every stall cycle lands in exactly one of the paper's three
    // categories.
    let by_kind: u64 = StallKind::ALL.iter().map(|&k| stats.stalls.get(k)).sum();
    if stats.stalls.total() != by_kind {
        return Err(Divergence::StallPartition {
            total: stats.stalls.total(),
            buffer_full: stats.stalls.get(StallKind::BufferFull),
            l2_read_access: stats.stalls.get(StallKind::L2ReadAccess),
            load_hazard: stats.stalls.get(StallKind::LoadHazard),
        });
    }

    // Every cycle is an instruction, a categorized stall, a miss wait, a
    // barrier drain, or an I-fetch wait. Exact only when the front end is
    // single-issue (wider issue retires several compute instructions per
    // cycle) and blocking (the non-blocking machine overlaps misses with
    // execution by design).
    if cycle_accounting && cfg.issue_width == 1 {
        let accounted = stats.instructions
            + stats.stalls.total()
            + stats.miss_wait_cycles
            + stats.barrier_stall_cycles
            + stats.ifetch_stall_cycles;
        if stats.cycles != accounted {
            return Err(Divergence::CycleAccounting {
                cycles: stats.cycles,
                accounted,
            });
        }
    }

    // The occupancy histogram (and the observer's CycleEnd coverage)
    // covers every cycle exactly once.
    let hist_sum: u64 = stats.wb_detail.occupancy_hist.iter().sum();
    if hist_sum != stats.cycles || cycles_seen != stats.cycles {
        return Err(Divergence::OccupancyAccounting {
            hist_sum: hist_sum.min(cycles_seen),
            cycles: stats.cycles,
        });
    }

    // Write-through: every store enters the buffer, either allocating or
    // merging. (Write-back stores hit L1 instead; the buffer only sees
    // victims.)
    if cfg.l1.write_policy == wbsim_types::policy::L1WritePolicy::WriteThrough
        && stats.stores != stats.wb_allocations + stats.wb_store_merges
    {
        return Err(Divergence::StoreAccounting {
            stores: stats.stores,
            allocations: stats.wb_allocations,
            merges: stats.wb_store_merges,
        });
    }

    // Entry conservation: entries are created by store allocations and
    // victim inserts, and destroyed by retirements and flushes; whatever
    // remains is the residual occupancy.
    let created = stats.wb_allocations + victim_allocs;
    let destroyed = stats.wb_retirements + stats.wb_flushes;
    if created != destroyed + residual {
        return Err(Divergence::StoreConservation {
            allocations: stats.wb_allocations,
            victim_allocs,
            retirements: stats.wb_retirements,
            flushes: stats.wb_flushes,
            residual,
        });
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_sim::testutil::a;
    use wbsim_types::config::{L1Config, WriteBufferConfig};
    use wbsim_types::divergence::FaultInjection;
    use wbsim_types::policy::{L1WritePolicy, RetirementPolicy};

    #[test]
    fn baseline_store_load_interleavings_agree() {
        let mut ops = Vec::new();
        for i in 0..40u64 {
            ops.push(Op::Store(a(i % 7, i % 4)));
            ops.push(Op::Load(a(i % 7, (i + 1) % 4)));
            ops.push(Op::Compute(2));
        }
        let r = diff_run(&MachineConfig::baseline(), &ops).unwrap();
        assert_eq!(r.loads_checked, 40);
        assert!(r.ideal.is_some(), "baseline admits the ideal bound");
    }

    #[test]
    fn all_hazard_policies_agree_on_a_hazard_heavy_stream() {
        let mut ops = Vec::new();
        for i in 0..30u64 {
            ops.push(Op::Store(a(i % 3, i % 4)));
            ops.push(Op::Load(a(i % 3, i % 4)));
        }
        ops.push(Op::Barrier);
        ops.push(Op::Load(a(0, 0)));
        for hazard in LoadHazardPolicy::ALL {
            let cfg = MachineConfig {
                write_buffer: WriteBufferConfig {
                    hazard,
                    ..WriteBufferConfig::baseline()
                },
                ..MachineConfig::baseline()
            };
            let r = diff_run(&cfg, &ops).unwrap_or_else(|d| panic!("{hazard:?}: {d}"));
            assert_eq!(r.loads_checked, 31);
        }
    }

    #[test]
    fn write_back_l1_agrees() {
        let cfg = MachineConfig {
            l1: L1Config {
                write_policy: L1WritePolicy::WriteBack,
                ..L1Config::baseline()
            },
            ..MachineConfig::baseline()
        };
        let mut ops = Vec::new();
        // Conflict-heavy: lines 5 and 5+256 share a direct-mapped L1 set,
        // so dirty victims cycle through the victim buffer.
        for i in 0..25u64 {
            ops.push(Op::Store(a(5 + (i % 2) * 256, i % 4)));
            ops.push(Op::Load(a(5 + ((i + 1) % 2) * 256, i % 4)));
        }
        let r = diff_run(&cfg, &ops).unwrap();
        assert!(r.loads_checked == 25);
    }

    fn rfwb_cfg() -> MachineConfig {
        MachineConfig {
            write_buffer: WriteBufferConfig {
                hazard: LoadHazardPolicy::ReadFromWb,
                // Lazy retirement keeps the store in the buffer so the
                // load must forward.
                retirement: RetirementPolicy::RetireAt(4),
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        }
    }

    #[test]
    fn injected_forwarding_bug_is_caught() {
        let cfg = MachineConfig {
            fault: Some(FaultInjection::SkipWbForwarding),
            ..rfwb_cfg()
        };
        // Write-around L1 never holds the stored line, so the only fresh
        // copy is in the buffer; with forwarding skipped the load installs
        // stale L2 data (0) instead of the stored value.
        let ops = vec![Op::Store(a(1, 0)), Op::Load(a(1, 0))];
        let d = diff_run(&cfg, &ops).unwrap_err();
        match d {
            Divergence::LoadValue {
                machine, oracle, ..
            } => {
                assert_eq!(machine, 0, "stale L2 data");
                assert_eq!(oracle, 1, "the store's value");
            }
            other => panic!("expected a load-value divergence, got {other}"),
        }
    }

    #[test]
    fn fault_without_forwarding_policy_is_harmless() {
        // The injected bug lives in the read-from-WB datapath; under
        // flush-full the load flushes and re-reads, so no divergence.
        let cfg = MachineConfig {
            fault: Some(FaultInjection::SkipWbForwarding),
            ..MachineConfig::baseline()
        };
        let ops = vec![Op::Store(a(1, 0)), Op::Load(a(1, 0))];
        diff_run(&cfg, &ops).unwrap();
    }

    #[test]
    fn empty_and_computeonly_streams_are_trivially_clean() {
        diff_run(&MachineConfig::baseline(), &[]).unwrap();
        let r = diff_run(&MachineConfig::baseline(), &[Op::Compute(50)]).unwrap();
        assert_eq!(r.loads_checked, 0);
        assert_eq!(r.words_checked, 0);
    }

    #[test]
    fn nonblocking_overlapped_stream_agrees() {
        let mut ops = Vec::new();
        for i in 0..60u64 {
            ops.push(Op::Store(a(i % 8, i % 4)));
            ops.push(Op::Load(a((i + 3) % 24, i % 4)));
            if i % 5 == 0 {
                ops.push(Op::Compute(2));
            }
        }
        let r = diff_run_nonblocking(&rfwb_cfg(), 4, &ops)
            .expect("valid config")
            .unwrap();
        assert!(r.loads_checked > 0, "some loads resolve at issue");
        assert!(r.words_checked > 0);
        assert!(r.ideal.is_none());
    }

    #[test]
    fn nonblocking_rejects_flush_policies() {
        assert!(diff_run_nonblocking(&MachineConfig::baseline(), 4, &[]).is_err());
    }

    #[test]
    fn nonblocking_injected_forwarding_bug_is_caught() {
        let cfg = MachineConfig {
            fault: Some(FaultInjection::SkipWbForwarding),
            ..rfwb_cfg()
        };
        // The first load misses (forwarding skipped) and its fill skips
        // the buffer merge, installing stale zeros into L1; after the
        // fill lands, the second load L1-hits the stale word at ordinal 1
        // while the model expects the store's value.
        let ops = vec![
            Op::Store(a(1, 0)),
            Op::Load(a(1, 0)),
            Op::Compute(40),
            Op::Load(a(1, 0)),
        ];
        let d = diff_run_nonblocking(&cfg, 4, &ops)
            .expect("valid config")
            .unwrap_err();
        match d {
            Divergence::LoadValue {
                index,
                machine,
                oracle,
                ..
            } => {
                assert_eq!(index, 1, "the post-fill load");
                assert_eq!(machine, 0, "stale fill data");
                assert_eq!(oracle, 1, "the store's value");
            }
            other => panic!("expected a load-value divergence, got {other}"),
        }
    }

    /// A terminal load event past the stream's last load is a count
    /// divergence on either machine, never a panic.
    #[test]
    fn an_extra_terminal_load_is_a_count_divergence() {
        let mut rec = Recorder::default();
        for ev in [
            Event::LoadMiss {
                now: 1,
                addr: a(0, 0),
            },
            Event::LoadResolved {
                now: 2,
                addr: a(0, 1),
                value: 0,
                source: LoadSource::L1,
            },
        ] {
            rec.event(&ev);
        }
        assert_eq!(rec.resolved, [(1, a(0, 1), 0, LoadSource::L1)]);
        assert_eq!(
            rec.check_loads(&[0]),
            Err(Divergence::LoadCount {
                machine: 2,
                oracle: 1
            })
        );
    }
}
