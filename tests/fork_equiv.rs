//! Buffer-reusing forks are exact forks.
//!
//! The model checkers fork every explored state into a recycled machine
//! with `clone_from`, which reuses the target's buffers instead of
//! allocating (`wbsim_types::clone_fields`). Whatever the target held
//! before — another op prefix, another write-buffer depth or entry
//! width, another MSHR count — the fork must be indistinguishable from a
//! fresh `clone()`: the same clock, statistics and state view, and on any
//! common suffix the same typed event stream and the same final
//! architectural memory. (That a field added to a machine later is not
//! forgotten by `clone_from` is a compile-time matter: the impls
//! destructure every field by name.)

use std::fmt::Debug;

use proptest::collection::vec;
use proptest::prelude::*;

use wbsim::sim::{Event, Machine, NonBlockingMachine, NullObserver, Observer, SimMachine};
use wbsim::trace::strategies::{arb_l2, arb_machine_config, arb_op, arb_write_buffer};
use wbsim::types::addr::LineAddr;
use wbsim::types::config::{L1Config, MachineConfig, WriteBufferConfig};
use wbsim::types::op::Op;
use wbsim::types::policy::{L1WritePolicy, LoadHazardPolicy, RetirementPolicy};
use wbsim::types::Addr;

/// Per-op cycle budget: far beyond any op over the strategies' configs.
const BUDGET: u64 = 1_000_000;

/// Records the typed event stream.
#[derive(Default)]
struct Tape(Vec<Event>);

impl Observer for Tape {
    fn event(&mut self, e: &Event) {
        self.0.push(*e);
    }
}

/// Runs `ops` one op at a time; `false` once one outruns the budget.
fn run<M: SimMachine>(m: &mut M, ops: &[Op], obs: &mut impl Observer) -> bool {
    ops.iter()
        .all(|&op| m.run_op_bounded(op, BUDGET, obs).is_some())
}

/// The 64 lines `arb_op` draws from.
fn footprint() -> Vec<LineAddr> {
    (0..64).map(LineAddr::new).collect()
}

/// Everything `m.view()` shows over `lines`: the write-buffer entries,
/// the retirement and port countdowns, the misses, each line's L1 and
/// memory-side words, and whether the CPU sits at an op boundary.
fn view_of<'a, M: SimMachine>(m: &'a M, lines: &[LineAddr]) -> impl PartialEq + Debug + 'a {
    let v = m.view();
    let words: Vec<_> = lines
        .iter()
        .map(|&l| (v.l1_line(l), v.mem_line(l)))
        .collect();
    let entries: Vec<_> = v.wb_entries().collect();
    let misses: Vec<_> = v.mshrs().collect();
    let times = (v.retire_countdown(), v.port_countdown());
    (entries, times, misses, words, v.at_op_boundary())
}

/// Forks `src` into `dst` and checks the fork against `src.clone()`.
fn assert_fork_exact<M: SimMachine>(
    src: &M,
    mut dst: M,
    suffix: &[Op],
) -> Result<(), TestCaseError> {
    dst.clone_from(src);
    let mut fresh = src.clone();
    let lines = footprint();
    prop_assert_eq!(dst.now(), fresh.now());
    prop_assert_eq!(dst.stats(), fresh.stats());
    prop_assert_eq!(view_of(&dst, &lines), view_of(&fresh, &lines));

    let (mut forked, mut cloned) = (Tape::default(), Tape::default());
    let done =
        run(&mut dst, suffix, &mut forked) && dst.run_to_end_bounded(BUDGET, &mut forked).is_some();
    prop_assert!(done, "the suffix outran its budget");
    run(&mut fresh, suffix, &mut cloned);
    fresh.run_to_end_bounded(BUDGET, &mut cloned);
    prop_assert_eq!(&forked.0, &cloned.0, "event streams diverged");
    prop_assert_eq!(dst.stats(), fresh.stats());
    for line in &lines {
        for word in 0..4 {
            let addr = Addr::new(line.as_u64() * 32 + word * 8);
            prop_assert_eq!(
                dst.read_word_architectural(addr),
                fresh.read_word_architectural(addr),
                "architectural read of {:?}",
                addr
            );
        }
    }
    Ok(())
}

/// `cfg` with another write-buffer shape, kept valid for its L1.
fn reshaped(cfg: &MachineConfig, wb: WriteBufferConfig) -> MachineConfig {
    let mut out = cfg.clone();
    out.write_buffer = wb;
    if out.l1.write_policy == L1WritePolicy::WriteBack {
        out.write_buffer.width_words = out.geometry.words_per_line();
    }
    out
}

fn nb_config(depth: usize, width: usize, l2: wbsim::types::config::L2Config) -> MachineConfig {
    MachineConfig {
        write_buffer: WriteBufferConfig {
            depth,
            width_words: width,
            hazard: LoadHazardPolicy::ReadFromWb,
            retirement: RetirementPolicy::RetireAt(depth.min(2)),
            ..WriteBufferConfig::baseline()
        },
        l2,
        ..MachineConfig::baseline()
    }
}

/// Runs `ops` from a fresh machine on `cfg`.
fn ran(cfg: &MachineConfig, ops: &[Op]) -> Machine {
    let mut m = Machine::new(cfg.clone()).expect("valid configuration");
    assert!(
        run(&mut m, ops, &mut NullObserver),
        "the ops outran their budget"
    );
    m
}

/// A load and a store to word 0 of each line: the load fills L1, and
/// under a write-back L1 the store dirties the filled way.
fn touch(lines: &[u64]) -> Vec<Op> {
    lines
        .iter()
        .flat_map(|&l| [Op::Load(Addr::new(l * 32)), Op::Store(Addr::new(l * 32))])
        .collect()
}

/// A 1 KiB 2-way L1 (16 sets) under `policy`, so lines 5, 21, 37 and 53
/// share a set inside the 64-line footprint.
fn small_two_way(policy: L1WritePolicy) -> MachineConfig {
    let mut cfg = MachineConfig::baseline();
    cfg.l1 = L1Config {
        size_bytes: 1024,
        assoc: 2,
        write_policy: policy,
        ..L1Config::baseline()
    };
    cfg.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
    cfg
}

/// A fork drops every L1 line the target held and the source never
/// touched: in a 2-way set the source filled too, in a set it left
/// empty, and — under a write-back L1 — with the target's ways dirty, so
/// a stale dirty bit would write back a victim the source never had.
#[test]
fn a_fork_forgets_the_targets_own_l1_lines() {
    for policy in [L1WritePolicy::WriteThrough, L1WritePolicy::WriteBack] {
        let cfg = small_two_way(policy);
        let src = ran(&cfg, &touch(&[0, 1, 5]));
        let dst = ran(&cfg, &touch(&[21, 37, 53, 9, 25, 40]));
        let suffix = touch(&[5, 21, 37, 53, 9, 25, 40, 0]);
        assert_fork_exact(&src, dst, &suffix).expect("the fork is exact");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The blocking machine, forked into a machine that ran another
    /// prefix — on the same configuration, or on another write-buffer
    /// shape (depth, entry width, order, hazard policy).
    #[test]
    fn blocking_fork_matches_a_fresh_clone(
        cfg in arb_machine_config(),
        other_wb in arb_write_buffer(),
        reshape in any::<bool>(),
        prefix in vec(arb_op(), 0..60),
        other_prefix in vec(arb_op(), 0..60),
        suffix in vec(arb_op(), 1..60),
    ) {
        let mut src = Machine::new(cfg.clone()).expect("strategy configs validate");
        prop_assert!(run(&mut src, &prefix, &mut NullObserver), "the prefix outran its budget");
        let dst_cfg = if reshape { reshaped(&cfg, other_wb) } else { cfg };
        let mut dst = Machine::new(dst_cfg).expect("reshaped configs validate");
        prop_assert!(run(&mut dst, &other_prefix, &mut NullObserver), "the prefix outran its budget");
        assert_fork_exact(&src, dst, &suffix)?;
    }

    /// The non-blocking machine, forked into a machine that ran another
    /// prefix with another depth, entry width and MSHR count.
    #[test]
    fn nonblocking_fork_matches_a_fresh_clone(
        (depth, other_depth) in (1usize..=8, 1usize..=8),
        (width, other_width) in (prop_oneof![Just(1usize), Just(4)], prop_oneof![Just(1usize), Just(4)]),
        (mshrs, other_mshrs) in (1usize..=4, 1usize..=4),
        l2 in arb_l2(),
        prefix in vec(arb_op(), 0..60),
        other_prefix in vec(arb_op(), 0..60),
        suffix in vec(arb_op(), 1..60),
    ) {
        let mut src = NonBlockingMachine::new(nb_config(depth, width, l2), mshrs)
            .expect("non-blocking configs validate");
        prop_assert!(run(&mut src, &prefix, &mut NullObserver), "the prefix outran its budget");
        let mut dst = NonBlockingMachine::new(nb_config(other_depth, other_width, l2), other_mshrs)
            .expect("non-blocking configs validate");
        prop_assert!(run(&mut dst, &other_prefix, &mut NullObserver), "the prefix outran its budget");
        assert_fork_exact(&src, dst, &suffix)?;
    }
}
