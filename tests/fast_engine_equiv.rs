//! Cycle-exact equivalence of the event-driven fast engine against the
//! reference cycle-stepped engine ([`wbsim::sim::Engine`]).
//!
//! The fast engine jumps `now` across pure-wait spans and executes
//! hit-dominated op runs at op granularity, so these suites are the
//! contract that makes it usable at all: for every op stream and every
//! abstractable configuration, both engines must produce
//!
//! * bit-identical [`SimStats`] (every counter, including the per-cycle
//!   occupancy histogram and the stall taxonomy),
//! * an identical [`Event`] stream — same events, same order, same
//!   timestamps — captured as serialized JSONL, and
//! * the same final architectural memory image, word by word, over every
//!   address the stream touched.
//!
//! Coverage spans all four load-hazard policies, write-through and
//! write-back L1s, perfect and real L2s, buffer depths 1–12 (with a
//! dedicated sweep over depths 1–4), statistical I-caches (which disable
//! the op fast lane but not span skipping), warmup resets landing
//! mid-stream, and the non-blocking machine with 1–8 MSHRs.

use proptest::prelude::*;

use wbsim::sim::{Engine, Event, Machine, NonBlockingMachine, NullObserver, Observer, SimMachine};
use wbsim::trace::strategies::{arb_machine_config, arb_op};
use wbsim::types::config::{IcacheConfig, MachineConfig, WriteBufferConfig};
use wbsim::types::op::Op;
use wbsim::types::policy::{LoadHazardPolicy, RetirementPolicy};
use wbsim::types::stats::SimStats;
use wbsim::types::Addr;

/// Records every event as its serialized JSONL line, timestamps included.
#[derive(Default)]
struct Tape(Vec<String>);

impl Observer for Tape {
    fn event(&mut self, e: &Event) {
        self.0.push(e.to_json());
    }
}

/// Every word address an op stream can touch (the strategies draw from a
/// bounded grid, so the full image diff is cheap).
fn touched_addrs(ops: &[Op]) -> Vec<Addr> {
    let mut addrs: Vec<u64> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Load(a) | Op::Store(a) => Some(a.as_u64()),
            _ => None,
        })
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs.into_iter().map(Addr::new).collect()
}

/// Runs `ops` under both engines with event tapes attached and asserts
/// stats, event-stream, and memory-image equality.
fn assert_equivalent(cfg: &MachineConfig, ops: &[Op], warmup: u64) -> Result<(), TestCaseError> {
    let mut tapes: Vec<Vec<String>> = Vec::new();
    let mut stats: Vec<SimStats> = Vec::new();
    let mut images: Vec<Vec<u64>> = Vec::new();
    let addrs = touched_addrs(ops);
    for engine in [Engine::Reference, Engine::EventDriven] {
        let mut m = Machine::new(cfg.clone()).expect("strategy configs validate");
        m.set_engine(engine);
        let mut tape = Tape::default();
        let s = m.run_observed_with_warmup(ops.iter().copied(), warmup, &mut tape);
        tapes.push(tape.0);
        stats.push(s);
        images.push(
            addrs
                .iter()
                .map(|&a| m.read_word_architectural(a))
                .collect(),
        );
    }
    prop_assert_eq!(
        &stats[0],
        &stats[1],
        "SimStats diverged under {:?}",
        cfg.write_buffer
    );
    if tapes[0] != tapes[1] {
        let n = tapes[0]
            .iter()
            .zip(tapes[1].iter())
            .take_while(|(a, b)| a == b)
            .count();
        return Err(TestCaseError::fail(format!(
            "event streams diverged at index {n}:\n  reference: {:?}\n  fast:      {:?}",
            tapes[0].get(n),
            tapes[1].get(n)
        )));
    }
    prop_assert_eq!(&images[0], &images[1], "final memory images diverged");
    Ok(())
}

/// Like [`assert_equivalent`], but under [`NullObserver`] — the
/// configuration the op fast lane's no-op-observer specializations (bulk
/// occupancy spans without per-cycle `CycleEnd` replay) only see here.
fn assert_equivalent_null(
    cfg: &MachineConfig,
    ops: &[Op],
    warmup: u64,
) -> Result<(), TestCaseError> {
    let mut stats: Vec<SimStats> = Vec::new();
    for engine in [Engine::Reference, Engine::EventDriven] {
        let mut m = Machine::new(cfg.clone()).expect("strategy configs validate");
        m.set_engine(engine);
        stats.push(m.run_observed_with_warmup(ops.iter().copied(), warmup, &mut NullObserver));
    }
    prop_assert_eq!(&stats[0], &stats[1], "SimStats diverged under NullObserver");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any stream × any configuration: stats, events, and memory agree.
    #[test]
    fn engines_agree_on_any_config(
        ops in proptest::collection::vec(arb_op(), 1..250),
        cfg in arb_machine_config(),
    ) {
        assert_equivalent(&cfg, &ops, 0)?;
        assert_equivalent_null(&cfg, &ops, 0)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Warmup resets land mid-stream: the reset cycle depends on exact
    /// instruction accounting, so a lane that mis-times a batched compute
    /// run shifts `cycle_base` and diverges immediately.
    #[test]
    fn engines_agree_across_warmup_resets(
        ops in proptest::collection::vec(arb_op(), 1..200),
        cfg in arb_machine_config(),
        warmup in 1u64..120,
    ) {
        assert_equivalent(&cfg, &ops, warmup)?;
        assert_equivalent_null(&cfg, &ops, warmup)?;
    }

    /// The ISSUE's focus grid: every hazard policy × depths 1–4, dense
    /// load/store traffic with compute runs long enough to batch.
    #[test]
    fn engines_agree_on_hazard_by_depth_grid(
        ops in proptest::collection::vec(arb_op(), 1..250),
        policy_idx in 0usize..4,
        depth in 1usize..=4,
    ) {
        let policies = [
            LoadHazardPolicy::FlushFull,
            LoadHazardPolicy::FlushPartial,
            LoadHazardPolicy::FlushItemOnly,
            LoadHazardPolicy::ReadFromWb,
        ];
        let cfg = MachineConfig {
            write_buffer: WriteBufferConfig {
                depth,
                hazard: policies[policy_idx],
                retirement: RetirementPolicy::RetireAt(depth.min(2)),
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        };
        assert_equivalent(&cfg, &ops, 0)?;
    }

    /// A statistical I-cache draws from its RNG on every executed cycle,
    /// so the op fast lane must stay out entirely; span skipping must
    /// still reproduce the exact miss schedule.
    #[test]
    fn engines_agree_with_statistical_icache(
        ops in proptest::collection::vec(arb_op(), 1..200),
        interval in 3u64..40,
    ) {
        let cfg = MachineConfig {
            icache: IcacheConfig::MissEvery { interval },
            ..MachineConfig::baseline()
        };
        assert_equivalent(&cfg, &ops, 0)?;
    }
}

/// Non-blocking-machine equivalence: same contract, 1–8 MSHRs. The NB
/// machine only accepts read-from-WB, so the grid is (mshrs × depth).
fn nb_assert_equivalent(
    cfg: &MachineConfig,
    mshrs: usize,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut tapes: Vec<Vec<String>> = Vec::new();
    let mut stats: Vec<SimStats> = Vec::new();
    let mut images: Vec<Vec<u64>> = Vec::new();
    let addrs = touched_addrs(ops);
    for engine in [Engine::Reference, Engine::EventDriven] {
        let mut m = NonBlockingMachine::new(cfg.clone(), mshrs).expect("nb config validates");
        m.set_engine(engine);
        let mut tape = Tape::default();
        let s = m.run_observed(ops.iter().copied(), &mut tape);
        tapes.push(tape.0);
        stats.push(s);
        images.push(
            addrs
                .iter()
                .map(|&a| m.read_word_architectural(a))
                .collect(),
        );
    }
    prop_assert_eq!(&stats[0], &stats[1], "NB SimStats diverged ({mshrs} MSHRs)");
    prop_assert_eq!(&tapes[0], &tapes[1], "NB event streams diverged");
    prop_assert_eq!(&images[0], &images[1], "NB memory images diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The non-blocking machine across 1–8 MSHRs and depths 1–8.
    #[test]
    fn nb_engines_agree(
        ops in proptest::collection::vec(arb_op(), 1..200),
        mshrs in 1usize..=8,
        depth in 1usize..=8,
    ) {
        let cfg = MachineConfig {
            write_buffer: WriteBufferConfig {
                depth,
                hazard: LoadHazardPolicy::ReadFromWb,
                retirement: RetirementPolicy::RetireAt(depth.min(2)),
                ..WriteBufferConfig::baseline()
            },
            ..MachineConfig::baseline()
        };
        nb_assert_equivalent(&cfg, mshrs, &ops)?;
    }
}
