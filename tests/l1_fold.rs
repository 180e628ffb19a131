//! L1-hit folding ([`wbsim::sim::L1Fold`]) is exact: on every foldable
//! configuration, running the folded stream gives the same [`SimStats`]
//! as running the original, bit for bit, under both engines.
//!
//! Configurations are random but foldable: buffer depth, retire-at and
//! fixed-rate retirement, age limits, write priority, each flush hazard
//! policy, entry widths, L1 size and L2 latency. The warmup reset is
//! placed at 0, inside a merged compute run, on a hit load, on a compute
//! op, on a store, and past the end of the stream.

use proptest::prelude::*;

use wbsim::sim::{foldable, Engine, Event, L1Fold, Machine, NullObserver, Observer, SimMachine};
use wbsim::trace::strategies::{arb_flush_hazard, arb_op};
use wbsim::types::config::{L1Config, L2Config, MachineConfig, WriteBufferConfig};
use wbsim::types::divergence::LoadSource;
use wbsim::types::op::Op;
use wbsim::types::policy::{L2Priority, RetirementPolicy};
use wbsim::types::stats::SimStats;

/// A foldable machine: everything the fold allows varies.
fn arb_foldable_config() -> impl Strategy<Value = MachineConfig> {
    (
        1usize..=12,
        arb_flush_hazard(),
        prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        any::<bool>(),
        proptest::option::of(1u64..120),
        any::<bool>(),
        prop_oneof![Just(512u32), Just(1024u32), Just(2048u32), Just(8192u32)],
        1u64..12,
    )
        .prop_flat_map(
            |(depth, hazard, width, fixed_rate, max_age, write_prio, l1_bytes, l2_latency)| {
                (1usize..=depth, 1u64..40).prop_map(move |(hw, interval)| MachineConfig {
                    l1: L1Config::with_size(l1_bytes),
                    l2: L2Config::Perfect {
                        latency: l2_latency,
                    },
                    write_buffer: WriteBufferConfig {
                        depth,
                        width_words: width,
                        retirement: if fixed_rate {
                            RetirementPolicy::FixedRate(interval)
                        } else {
                            RetirementPolicy::RetireAt(hw)
                        },
                        hazard,
                        priority: if write_prio {
                            L2Priority::WritePriorityAbove(hw)
                        } else {
                            L2Priority::ReadBypass
                        },
                        max_age,
                        ..WriteBufferConfig::baseline()
                    },
                    check_data: false,
                    ..MachineConfig::baseline()
                })
            },
        )
}

/// Whether each load of the stream hits L1, read from the unfolded run's
/// events (a blocking machine resolves its loads in program order).
#[derive(Default)]
struct LoadSources(Vec<bool>);

impl Observer for LoadSources {
    fn event(&mut self, e: &Event) {
        if let Event::LoadResolved { source, .. } = e {
            self.0.push(*source == LoadSource::L1);
        }
    }
}

/// Where the warmup reset lands.
#[derive(Debug, Clone, Copy)]
enum Warmup {
    Zero,
    InsideMergedRun,
    OnHitLoad,
    OnCompute,
    OnStore,
    PastTheEnd,
}

/// The warmup that makes op `pick` (among the ops `kind` selects) the op
/// whose issue crosses it. Falls back to any instruction-bearing op when
/// the stream has none of that kind.
fn warmup_for(cfg: &MachineConfig, ops: &[Op], kind: Warmup, pick: usize) -> u64 {
    let total: u64 = ops.iter().map(Op::instructions).sum();
    let mut sources = LoadSources::default();
    Machine::new(cfg.clone())
        .unwrap()
        .run_observed(ops.iter().copied(), &mut sources);
    let mut loads = sources.0.into_iter();
    let hit: Vec<bool> = ops
        .iter()
        .map(|op| matches!(op, Op::Load(_)) && loads.next().expect("one source per load"))
        .collect();
    let merges = |j: usize| matches!(ops[j], Op::Compute(n) if n > 0) || hit[j];
    let selected: Vec<usize> = (0..ops.len())
        .filter(|&j| match kind {
            Warmup::Zero | Warmup::PastTheEnd => false,
            Warmup::InsideMergedRun => {
                j > 0 && j + 1 < ops.len() && merges(j - 1) && merges(j) && merges(j + 1)
            }
            Warmup::OnHitLoad => hit[j],
            Warmup::OnCompute => matches!(ops[j], Op::Compute(n) if n > 0),
            Warmup::OnStore => matches!(ops[j], Op::Store(_)),
        })
        .collect();
    match kind {
        Warmup::Zero => 0,
        Warmup::PastTheEnd => total + 1 + pick as u64 % 10,
        _ => {
            let bearing: Vec<usize> = (0..ops.len())
                .filter(|&j| ops[j].instructions() > 0)
                .collect();
            let pool = if selected.is_empty() {
                &bearing
            } else {
                &selected
            };
            match pool.get(pick % pool.len().max(1)) {
                Some(&j) => ops[..=j].iter().map(Op::instructions).sum(),
                None => 0,
            }
        }
    }
}

fn assert_fold_exact(cfg: &MachineConfig, ops: &[Op], warmup: u64) -> Result<(), TestCaseError> {
    prop_assert!(foldable::<NullObserver>(cfg), "strategy made {:?}", cfg);
    let fold = L1Fold::new(ops, cfg, warmup);
    prop_assert!(fold.ops().len() <= ops.len());
    for engine in [Engine::Reference, Engine::EventDriven] {
        let mut m = Machine::new(cfg.clone()).unwrap();
        m.set_engine(engine);
        let plain: SimStats = m.run_with_warmup(ops.iter().copied(), warmup);
        let mut m = Machine::new(cfg.clone()).unwrap();
        m.set_engine(engine);
        let folded = m.run_fold(&fold);
        prop_assert_eq!(
            plain,
            folded,
            "{:?} engine, warmup {}, {:?}",
            engine,
            warmup,
            cfg.write_buffer
        );
        prop_assert_eq!(m.stats(), &plain, "the machine's own statistics");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn folded_runs_match_unfolded_runs(
        ops in proptest::collection::vec(arb_op(), 1..300),
        cfg in arb_foldable_config(),
        kind in 0usize..6,
        pick in 0usize..1000,
    ) {
        let kind = [
            Warmup::Zero,
            Warmup::InsideMergedRun,
            Warmup::OnHitLoad,
            Warmup::OnCompute,
            Warmup::OnStore,
            Warmup::PastTheEnd,
        ][kind];
        let warmup = warmup_for(&cfg, &ops, kind, pick);
        assert_fold_exact(&cfg, &ops, warmup)?;
    }
}

/// Every placement on one fixed stream, so each kind is certain to occur.
#[test]
fn every_warmup_placement_on_a_fixed_stream() {
    use wbsim::types::Addr;
    let cfg = MachineConfig {
        check_data: false,
        ..MachineConfig::baseline()
    };
    let (load, store) = (|a| Op::Load(Addr::new(a)), |a| Op::Store(Addr::new(a)));
    let ops = [
        load(0x40),
        Op::Compute(3),
        load(0x48),
        Op::Compute(2),
        store(0x48),
        load(0x40),
        Op::Compute(4),
        Op::Barrier,
        load(0x50),
        store(0x900),
        load(0x50),
        Op::Compute(1),
    ];
    for warmup in 0..=25 {
        assert_fold_exact(&cfg, &ops, warmup).unwrap();
    }
}
