//! Buffer-reusing forks are exact forks.
//!
//! The model checkers fork every explored state into a recycled machine
//! with `clone_from`, which reuses the target's buffers instead of
//! allocating (`wbsim_types::clone_fields`). Whatever the target held
//! before — another op prefix, another write-buffer depth or entry
//! width, another MSHR count — the fork must be indistinguishable from a
//! fresh `clone()`: the same clock, statistics and snapshot, and on any
//! common suffix the same typed event stream and the same final
//! architectural memory. (That a field added to a machine later is not
//! forgotten by `clone_from` is a compile-time matter: the impls
//! destructure every field by name.)

use proptest::collection::vec;
use proptest::prelude::*;

use wbsim::sim::{Event, Machine, NonBlockingMachine, NullObserver, Observer, SimMachine};
use wbsim::trace::strategies::{arb_l2, arb_machine_config, arb_op, arb_write_buffer};
use wbsim::types::addr::LineAddr;
use wbsim::types::config::{MachineConfig, WriteBufferConfig};
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
    prop_assert_eq!(dst.snapshot(&lines), fresh.snapshot(&lines));

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
