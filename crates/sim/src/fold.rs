//! L1-hit folding: a cheaper, exact op source for the blocking machine.
//!
//! In the paper's timing model (Table 1) an L1 hit costs one cycle, the
//! same as a compute instruction, and touches neither the write buffer
//! nor the L2 port. On some machines whether a load hits also depends on
//! nothing but the op stream and the L1 geometry. For those machines an
//! [`L1Fold`] rewrites every L1-hit load as `Compute(1)` and merges it
//! into the neighbouring compute runs, once per (stream, L1 geometry,
//! warmup); [`crate::Machine::run_fold`] then runs the shorter stream
//! through the usual engines and restores the folded hits into `loads`
//! and `l1_load_hits`. Every [`SimStats`](wbsim_types::stats::SimStats)
//! field comes out bit-identical to the unfolded run.
//!
//! # Eligibility ([`foldable`])
//!
//! * **Write-through, direct-mapped L1.** Write-around stores never
//!   allocate, so only load-miss fills change the tags. A folded hit
//!   skips its LRU touch, which only a direct-mapped cache can ignore.
//! * **Perfect L2.** A real L2's inclusion invalidations remove L1 lines
//!   at retirement times the fold cannot know.
//! * **A flush hazard policy.** Under read-from-WB a load served from the
//!   buffer skips its L1 fill.
//! * **Perfect I-cache and issue width 1.** A statistical front end draws
//!   from its RNG at every issue, and a wider machine splits a merged
//!   compute run into different cycles than its parts.
//! * **`check_data` off, no fault, and a no-op observer.** A folded hit
//!   verifies no value and emits no event.
//!
//! # Warmup
//!
//! The warmup reset fires at the end of the issue cycle of the op whose
//! instructions cross `warmup`. The fold keeps that op on its own (a hit
//! becomes a lone `Compute(1)`), so the reset fires at the same cycle.
//! Hits issued up to that op are wiped by the reset in both runs; only
//! the hits after it are carried. When the reset never fires, every hit
//! is carried.

use wbsim_mem::L1Cache;
use wbsim_types::addr::Geometry;
use wbsim_types::config::{IcacheConfig, L1Config, L2Config, MachineConfig};
use wbsim_types::op::Op;
use wbsim_types::policy::{L1WritePolicy, LoadHazardPolicy};

use crate::observer::Observer;

/// Whether a blocking-machine run of `cfg` under an observer of type `O`
/// may take its ops from an [`L1Fold`]: the conditions of the module
/// docs, read from the configuration and the observer alone.
#[must_use]
pub fn foldable<O: Observer>(cfg: &MachineConfig) -> bool {
    O::IS_NOOP
        && cfg.l1.write_policy == L1WritePolicy::WriteThrough
        && cfg.l1.assoc == 1
        && matches!(cfg.l2, L2Config::Perfect { .. })
        && cfg.icache == IcacheConfig::Perfect
        && cfg.issue_width == 1
        && cfg.write_buffer.hazard != LoadHazardPolicy::ReadFromWb
        && !cfg.check_data
        && cfg.fault.is_none()
}

/// An op stream with its L1-hit loads folded into compute runs, for
/// machines of one L1 geometry run with one warmup. See the module docs.
#[derive(Debug, Clone)]
pub struct L1Fold {
    l1: L1Config,
    geometry: Geometry,
    warmup: u64,
    ops: Vec<Op>,
    carried_hits: u64,
}

impl L1Fold {
    /// Folds `ops` for machines with `cfg`'s L1 and geometry, run with
    /// `warmup` warmup instructions. Only the L1 shape is read, and
    /// eligibility is not checked: [`crate::Machine::run_fold`] checks it.
    ///
    /// # Panics
    ///
    /// Panics if `cfg`'s L1 is invalid for its geometry.
    #[must_use]
    pub fn new(ops: &[Op], cfg: &MachineConfig, warmup: u64) -> Self {
        let g = cfg.geometry;
        let mut l1 = L1Cache::new(&cfg.l1, &g).expect("a validated L1");
        let fill = vec![0; g.words_per_line()];
        let mut out = Vec::with_capacity(ops.len() / 2);
        // Instructions of the compute run being merged.
        let mut run = 0u64;
        let mut issued = 0u64;
        let mut crossed = warmup == 0;
        // Hits folded so far, and how many of them the reset wiped (none
        // when it never fires).
        let (mut hits, mut wiped) = (0u64, 0u64);
        for &op in ops {
            let hit = match op {
                Op::Load(a) => {
                    // A miss fills the line, as the machine's load does
                    // before the next op issues.
                    let line = g.line_of(a);
                    let hit = l1.contains(line);
                    if !hit {
                        l1.fill(line, &fill);
                    }
                    hit
                }
                _ => false,
            };
            hits += u64::from(hit);
            issued += op.instructions();
            if !crossed && issued >= warmup {
                // The op whose issue fires the warmup reset keeps its own
                // issue cycle.
                crossed = true;
                wiped = hits;
                flush_run(&mut out, &mut run);
                out.push(if hit { Op::Compute(1) } else { op });
                continue;
            }
            match op {
                Op::Compute(n) => run += u64::from(n),
                Op::Load(_) if hit => run += 1,
                _ => {
                    flush_run(&mut out, &mut run);
                    out.push(op);
                }
            }
        }
        flush_run(&mut out, &mut run);
        out.shrink_to_fit();
        Self {
            l1: cfg.l1,
            geometry: g,
            warmup,
            ops: out,
            carried_hits: hits - wiped,
        }
    }

    /// Whether this fold was made for `cfg`'s L1 shape and geometry.
    #[must_use]
    pub fn fits(&self, cfg: &MachineConfig) -> bool {
        self.l1 == cfg.l1 && self.geometry == cfg.geometry
    }

    /// The folded op stream.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The warmup the fold was made for; [`crate::Machine::run_fold`]
    /// runs with it.
    #[must_use]
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Folded hits that count in the measured window, which the run adds
    /// back to `loads` and `l1_load_hits`.
    #[must_use]
    pub fn carried_hits(&self) -> u64 {
        self.carried_hits
    }
}

/// Emits the merged compute run, in `Compute(u32::MAX)` pieces if it is
/// longer. A split is harmless: every piece lies wholly before or wholly
/// after the op that fires the warmup reset.
fn flush_run(out: &mut Vec<Op>, run: &mut u64) {
    while *run > 0 {
        let n = (*run).min(u64::from(u32::MAX));
        out.push(Op::Compute(n as u32));
        *run -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{HistogramObserver, NullObserver};
    use crate::Machine;
    use wbsim_types::addr::Addr;
    use wbsim_types::divergence::FaultInjection;
    use wbsim_types::stats::SimStats;

    /// The paper's baseline, with data checking off as sweeps run it.
    fn base() -> MachineConfig {
        MachineConfig {
            check_data: false,
            ..MachineConfig::baseline()
        }
    }

    fn unfolded(cfg: &MachineConfig, ops: &[Op], warmup: u64) -> SimStats {
        Machine::new(cfg.clone())
            .unwrap()
            .run_with_warmup(ops.iter().copied(), warmup)
    }

    /// The fold run without the eligibility check, as a configuration
    /// that fails it would see it.
    fn forced(cfg: &MachineConfig, ops: &[Op], warmup: u64) -> SimStats {
        let fold = L1Fold::new(ops, cfg, warmup);
        Machine::new(cfg.clone()).unwrap().run_fold_unchecked(&fold)
    }

    fn load(a: u64) -> Op {
        Op::Load(Addr::new(a))
    }

    fn store(a: u64) -> Op {
        Op::Store(Addr::new(a))
    }

    #[test]
    fn hits_merge_into_compute_runs() {
        let cfg = base();
        let ops = [
            load(0x100), // miss
            Op::Compute(3),
            load(0x108), // hit, same line
            Op::Compute(2),
            load(0x100), // hit
            store(0x200),
            load(0x110), // hit
        ];
        let fold = L1Fold::new(&ops, &cfg, 0);
        assert_eq!(
            fold.ops(),
            [load(0x100), Op::Compute(7), store(0x200), Op::Compute(1)]
        );
        assert_eq!(fold.carried_hits(), 3);
        let mut m = Machine::new(cfg.clone()).unwrap();
        assert_eq!(m.run_fold(&fold), unfolded(&cfg, &ops, 0));
    }

    #[test]
    fn the_op_crossing_warmup_stays_alone() {
        let cfg = base();
        let ops = [
            load(0x100),
            Op::Compute(2),
            load(0x100), // hit: instructions reach 4 here
            load(0x100),
            Op::Compute(2),
        ];
        let fold = L1Fold::new(&ops, &cfg, 4);
        assert_eq!(
            fold.ops(),
            [load(0x100), Op::Compute(2), Op::Compute(1), Op::Compute(3)]
        );
        assert_eq!(fold.carried_hits(), 1, "only the hit after the reset");
        for warmup in 0..=8 {
            let fold = L1Fold::new(&ops, &cfg, warmup);
            let mut m = Machine::new(cfg.clone()).unwrap();
            assert_eq!(m.run_fold(&fold), unfolded(&cfg, &ops, warmup), "{warmup}");
        }
        // Past the end of the stream the reset never fires: every hit
        // counts.
        assert_eq!(L1Fold::new(&ops, &cfg, 100).carried_hits(), 2);
    }

    #[test]
    fn long_runs_split_at_the_u32_limit() {
        let cfg = base();
        let ops = [load(0), Op::Compute(u32::MAX), load(0), Op::Compute(5)];
        let fold = L1Fold::new(&ops, &cfg, 0);
        assert_eq!(fold.ops(), [load(0), Op::Compute(u32::MAX), Op::Compute(6)]);
    }

    #[test]
    fn eligibility_reads_the_configuration_and_the_observer() {
        let base = base();
        assert!(foldable::<NullObserver>(&base));
        assert!(!foldable::<HistogramObserver>(&base), "an observer");
        type Edit = fn(&mut MachineConfig);
        let rejected: [(&str, Edit); 7] = [
            ("read-from-WB", |c| {
                c.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
            }),
            ("real L2", |c| c.l2 = L2Config::real_with_size(128 * 1024)),
            ("2-way L1", |c| c.l1.assoc = 2),
            ("issue width 2", |c| c.issue_width = 2),
            ("check_data", |c| c.check_data = true),
            ("fault", |c| {
                c.fault = Some(FaultInjection::StarveRetirement)
            }),
            ("write-back L1", |c| {
                c.l1.write_policy = L1WritePolicy::WriteBack;
                c.write_buffer.width_words = c.geometry.words_per_line();
            }),
        ];
        for (what, edit) in rejected {
            let mut cfg = base.clone();
            edit(&mut cfg);
            cfg.validate().unwrap();
            assert!(!foldable::<NullObserver>(&cfg), "{what}");
        }
        let mut statistical = base.clone();
        statistical.icache = IcacheConfig::MissEvery { interval: 10 };
        assert!(
            !foldable::<NullObserver>(&statistical),
            "statistical I-cache"
        );
        for hazard in [
            LoadHazardPolicy::FlushFull,
            LoadHazardPolicy::FlushPartial,
            LoadHazardPolicy::FlushItemOnly,
        ] {
            let mut cfg = base.clone();
            cfg.write_buffer.hazard = hazard;
            assert!(foldable::<NullObserver>(&cfg), "{hazard}");
        }
    }

    #[test]
    #[should_panic(expected = "not foldable")]
    fn run_fold_refuses_an_ineligible_machine() {
        let mut cfg = base();
        cfg.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
        let fold = L1Fold::new(&[load(0)], &cfg, 0);
        let _ = Machine::new(cfg).unwrap().run_fold(&fold);
    }

    #[test]
    #[should_panic(expected = "another L1")]
    fn run_fold_refuses_a_fold_of_another_l1() {
        let cfg = base();
        let mut small = cfg.clone();
        small.l1.size_bytes = 4 * 1024;
        let fold = L1Fold::new(&[load(0)], &small, 0);
        let _ = Machine::new(cfg).unwrap().run_fold(&fold);
    }

    /// A load the buffer serves skips its L1 fill, so the fold calls the
    /// next load of that line a hit while the machine misses.
    #[test]
    fn a_forced_fold_diverges_under_read_from_wb() {
        let mut cfg = base();
        cfg.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
        let ops = [store(0x100), load(0x100), Op::Compute(1), load(0x100)];
        let (a, b) = (unfolded(&cfg, &ops, 0), forced(&cfg, &ops, 0));
        assert_eq!(a.wb_read_hits, 2);
        assert_ne!(a, b);
        assert_ne!(a.l1_load_hits, b.l1_load_hits);
    }

    /// A store retiring into a direct-mapped L2 evicts the L2 line a
    /// load filled, and inclusion invalidates it in L1: the machine's
    /// next load of that line misses where the fold saw a hit.
    #[test]
    fn a_forced_fold_diverges_over_a_real_l2() {
        let mut cfg = base();
        cfg.l2 = L2Config::real_with_size(128 * 1024);
        let ops = [
            load(0x100),
            // Same L2 set as 0x100; the second store starts retire-at-2.
            store(0x100 + 128 * 1024),
            store(0x300),
            Op::Compute(200),
            load(0x100),
        ];
        let (a, b) = (unfolded(&cfg, &ops, 0), forced(&cfg, &ops, 0));
        assert_eq!(a.inclusion_invalidations, 1);
        assert_ne!(a, b);
        assert_ne!(a.cycles, b.cycles);
    }

    /// The fold's L1 sees the LRU touch of a folded hit; the machine does
    /// not, so its two-way set evicts the other line.
    #[test]
    fn a_forced_fold_diverges_on_a_two_way_l1() {
        let mut cfg = base();
        cfg.l1.assoc = 2;
        let way = 4 * 1024; // one way of the 8 KiB two-way cache
        let ops = [
            load(0),
            load(way),
            load(0), // hit: refreshes line 0
            load(2 * way),
            load(way),
        ];
        let (a, b) = (unfolded(&cfg, &ops, 0), forced(&cfg, &ops, 0));
        assert_ne!(a, b);
        assert_ne!(a.l1_load_hits, b.l1_load_hits);
    }
}
