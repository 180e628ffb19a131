//! Allocation-freedom of the simulator's line datapath.
//!
//! Retirements, flushes, L2 reads, fills and write-allocate merges move
//! line data through borrowed slices and buffers the machine owns, so a
//! run's heap allocations do not grow with the work it does: a stream that
//! repeats one block four times allocates exactly as often as the block
//! alone.
//!
//! The memory store does grow, by design, the first time a page is
//! written. Over a perfect L2 every retirement writes memory, so the block
//! alone writes every page the repeats do. A real write-back L2 writes
//! memory only when it evicts a dirty line, and the second pass evicts
//! lines the first left dirty: there the pin compares four passes with
//! two, the first pass that writes back everything a later pass will.
//!
//! Counted from after the stream is generated and the machine is built,
//! with `check_data` off (its shadow model is a word map that grows by
//! design). Flush-policy configurations are left out: a flush plan is a
//! list built per hazard.
//!
//! Forking is allocation-free too, in the model checkers' setting: a
//! machine at an op boundary over a perfect L2, forked with `clone_from`
//! into a machine of the same configuration that touched as many pages.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wbsim::sim::{Machine, NonBlockingMachine, NullObserver, SimMachine};
use wbsim::trace::bench_models::BenchmarkModel;
use wbsim::types::config::{L2Config, MachineConfig};
use wbsim::types::op::Op;
use wbsim::types::policy::LoadHazardPolicy;
use wbsim::types::Addr;

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BLOCK_INSTRUCTIONS: u64 = 20_000;

/// Heap allocations `Machine::run` makes on `ops`, on a fresh machine.
fn run_allocations(cfg: &MachineConfig, ops: Vec<Op>) -> u64 {
    let mut m = Machine::new(cfg.clone()).expect("valid configuration");
    let before = ALLOCATIONS.with(Cell::get);
    let stats = m.run(ops);
    let after = ALLOCATIONS.with(Cell::get);
    assert!(stats.cycles > 0);
    after - before
}

fn read_from_wb(l2: L2Config) -> MachineConfig {
    let mut cfg = MachineConfig::baseline();
    cfg.check_data = false;
    cfg.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
    cfg.l2 = l2;
    cfg
}

#[test]
fn repeating_a_block_allocates_no_more_than_the_block() {
    // (configuration, passes of the block that first-touch every page)
    let configs = [
        ("perfect L2", read_from_wb(L2Config::baseline()), 1),
        (
            "128K L2",
            read_from_wb(L2Config::real_with_size(128 * 1024)),
            2,
        ),
    ];
    for (name, cfg, warm) in &configs {
        for bench in BenchmarkModel::ALL {
            let block = bench.stream(7, BLOCK_INSTRUCTIONS);
            let passes = |n| -> Vec<Op> { (0..n).flat_map(|_| block.iter().copied()).collect() };
            let base = run_allocations(cfg, passes(*warm));
            let four = run_allocations(cfg, passes(4));
            assert_eq!(
                four,
                base,
                "{name}, {}: four passes of a block allocate {four} times, {warm} pass(es) {base}",
                bench.name()
            );
        }
    }
}

/// Heap allocations of `dst.clone_from(src)`.
fn fork_allocations<M: SimMachine>(src: &M, dst: &mut M) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    dst.clone_from(src);
    ALLOCATIONS.with(Cell::get) - before
}

/// Forks a machine that ran `ops` into one that ran other ops over the
/// same two lines, and returns the fork's allocations.
fn fork_after<M: SimMachine>(m: M) -> u64 {
    let word = |line: u64, w: u64| Addr::new(line * 32 + w * 8);
    let run = |mut m: M, ops: &[Op]| {
        for &op in ops {
            m.run_op_bounded(op, 10_000, &mut NullObserver)
                .expect("the op completes");
        }
        m
    };
    let src = run(
        m.clone(),
        &[
            Op::Store(word(0, 0)),
            Op::Load(word(1, 1)),
            Op::Store(word(1, 0)),
        ],
    );
    let mut dst = run(m, &[Op::Store(word(1, 1)), Op::Load(word(0, 0))]);
    fork_allocations(&src, &mut dst)
}

#[test]
fn forking_into_a_machine_of_the_same_configuration_allocates_nothing() {
    let cfg = read_from_wb(L2Config::baseline());
    let blocking = Machine::new(cfg.clone()).expect("valid configuration");
    assert_eq!(fork_after(blocking), 0, "blocking machine");
    let nonblocking = NonBlockingMachine::new(cfg, 2).expect("valid configuration");
    assert_eq!(fork_after(nonblocking), 0, "non-blocking machine");
}
