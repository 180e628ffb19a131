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
//! design). A load hazard under a flush policy refills the machine's one
//! flush-plan buffer, so it allocates nothing once that buffer has held
//! the longest plan.
//!
//! Forking is allocation-free too, in the model checkers' setting: a
//! machine at an op boundary over a perfect L2, forked with `clone_from`
//! into a machine of the same configuration that touched as many pages,
//! and with it every other part of a checker's state — the untimed
//! architectural model of an exhaustive run, the shadow map and the
//! property monitors (with open per-address windows) of a product state,
//! and both machines of a refinement pair. So is writing a state key,
//! once the key's buffers have grown to the key's length: from one
//! machine's view, from the two machines of a refinement pair, and with a
//! product state's monitor key appended. And so, in aggregate, is a whole
//! exploration: a grid point explored again on the same thread (as a
//! checker's worker explores point after point) allocates fewer times
//! than it finds states.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wbsim::check::{
    bounded_configs, builtin_library, check_props_reach_config, check_reach_config,
    check_reach_config_nonblocking, check_refine_config, check_refine_config_nonblocking,
    compile_props, nonblocking_configs, Monitors, PropEnv, ShadowTracker, StateKey,
};
use wbsim::oracle::ArchModel;
use wbsim::sim::{Engine, Event, Machine, NonBlockingMachine, NullObserver, Observer, SimMachine};
use wbsim::trace::bench_models::BenchmarkModel;
use wbsim::types::addr::LineAddr;
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

fn with_hazard(hazard: LoadHazardPolicy, l2: L2Config) -> MachineConfig {
    let mut cfg = MachineConfig::baseline();
    cfg.check_data = false;
    cfg.write_buffer.hazard = hazard;
    cfg.l2 = l2;
    cfg
}

fn read_from_wb(l2: L2Config) -> MachineConfig {
    with_hazard(LoadHazardPolicy::ReadFromWb, l2)
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
    repeats_allocate_as_the_block(&configs);
}

/// A load hazard under each flush policy refills one plan buffer: once it
/// has held the block's longest plan, repeats of the block allocate
/// nothing more.
#[test]
fn a_hazard_under_each_flush_policy_allocates_nothing_once_warm() {
    let configs = [
        LoadHazardPolicy::FlushFull,
        LoadHazardPolicy::FlushPartial,
        LoadHazardPolicy::FlushItemOnly,
    ]
    .map(|hazard| (hazard.name(), with_hazard(hazard, L2Config::baseline()), 1));
    repeats_allocate_as_the_block(&configs);
}

/// Checks that four passes of every benchmark's block allocate exactly as
/// often as `warm` passes, per `(name, configuration, warm)`.
fn repeats_allocate_as_the_block(configs: &[(&str, MachineConfig, usize)]) {
    for (name, cfg, warm) in configs {
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
fn fork_allocations<T: Clone>(src: &T, dst: &mut T) -> u64 {
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

/// Runs the ops over the checkers' two lines that leave a store buffered,
/// both lines in L1 and, on the non-blocking machine, a miss outstanding;
/// returns the machine and the shadow map of its stores.
fn keyed_state<M: SimMachine>(mut m: M) -> (M, ShadowTracker) {
    let word = |line: u64, w: u64| Addr::new(line * 32 + w * 8);
    let mut shadow = ShadowTracker::default();
    for op in [
        Op::Load(word(0, 1)),
        Op::Store(word(0, 0)),
        Op::Store(word(1, 1)),
        Op::Load(word(1, 0)),
    ] {
        m.run_op_bounded(op, 10_000, &mut NullObserver)
            .expect("the op completes");
        if let Op::Store(addr) = op {
            shadow.record_store(addr.as_u64() / 8);
        }
    }
    (m, shadow)
}

/// Heap allocations of a second `write` into one key, the first having
/// grown its buffers.
fn key_allocations(mut write: impl FnMut(&mut StateKey)) -> u64 {
    let mut key = StateKey::default();
    write(&mut key);
    key.clear();
    let before = ALLOCATIONS.with(Cell::get);
    write(&mut key);
    let after = ALLOCATIONS.with(Cell::get);
    assert!(!key.canonical().is_empty());
    after - before
}

#[test]
fn writing_a_state_key_allocates_nothing() {
    let lines = [LineAddr::new(0), LineAddr::new(1)];
    let cfg = read_from_wb(L2Config::baseline());

    let (m, shadow) = keyed_state(Machine::new(cfg.clone()).expect("valid configuration"));
    let one = key_allocations(|k| k.push(&m.view(), &lines, &shadow));
    assert_eq!(one, 0, "blocking machine");

    let nb = NonBlockingMachine::new(cfg.clone(), 2).expect("valid configuration");
    let (m, shadow) = keyed_state(nb);
    assert!(m.mshr_lines().count() > 0, "a miss is outstanding");
    let one = key_allocations(|k| k.push(&m.view(), &lines, &shadow));
    assert_eq!(one, 0, "non-blocking machine");

    // A refinement pair: the reference engine and the event-driven one,
    // pushed into one key under one permutation.
    let mut reference = Machine::new(cfg.clone()).expect("valid configuration");
    reference.set_engine(Engine::Reference);
    let (rf, shadow) = keyed_state(reference);
    let (ed, _) = keyed_state(Machine::new(cfg).expect("valid configuration"));
    let pair = key_allocations(|k| {
        k.push(&rf.view(), &lines, &shadow);
        k.push(&ed.view(), &lines, &shadow);
    });
    assert_eq!(pair, 0, "refinement pair");
}

/// Runs `ops` over the checkers' two lines on `m` under `obs`, recording
/// each store in `shadow` as the product and refinement checkers do.
fn run_ops<M: SimMachine>(
    m: &mut M,
    ops: &[Op],
    shadow: &mut ShadowTracker,
    obs: &mut impl Observer,
) {
    for &op in ops {
        m.run_op_bounded(op, 10_000, obs).expect("the op completes");
        if let Op::Store(addr) = op {
            shadow.record_store(addr.as_u64() / 8);
        }
    }
}

fn word(line: u64, w: u64) -> Addr {
    Addr::new(line * 32 + w * 8)
}

/// Two op sequences over the checkers' two lines that touch as many
/// words and leave a store buffered: a forked state's source and target.
fn two_histories() -> [Vec<Op>; 2] {
    [
        vec![
            Op::Store(word(0, 0)),
            Op::Load(word(1, 1)),
            Op::Store(word(1, 0)),
            Op::Store(word(0, 1)),
        ],
        vec![
            Op::Store(word(1, 1)),
            Op::Load(word(0, 0)),
            Op::Store(word(0, 1)),
            Op::Store(word(1, 0)),
        ],
    ]
}

/// Steps property monitors on every event, as the product checker does.
struct Monitored<'a>(&'a mut Monitors);

impl Observer for Monitored<'_> {
    fn event(&mut self, e: &Event) {
        assert!(self.0.step(e).is_none(), "the built-in library holds");
    }
}

#[test]
fn forking_each_checker_state_allocates_nothing() {
    let cfg = read_from_wb(L2Config::baseline());
    let [src_ops, dst_ops] = two_histories();

    // An exhaustive run: its machine (the checkers' reference engine) and
    // the untimed architectural model fed the same ops.
    let run = |ops: &[Op]| {
        let mut m = Machine::new(cfg.clone()).expect("valid configuration");
        m.set_engine(Engine::Reference);
        let mut arch = ArchModel::new(cfg.geometry);
        for &op in ops {
            arch.step(op);
        }
        run_ops(
            &mut m,
            ops,
            &mut ShadowTracker::default(),
            &mut NullObserver,
        );
        (m, arch)
    };
    let (src, mut dst) = (run(&src_ops), run(&dst_ops));
    assert_eq!(
        fork_allocations(&src.0, &mut dst.0),
        0,
        "exhaustive machine"
    );
    assert_eq!(
        fork_allocations(&src.1, &mut dst.1),
        0,
        "architectural model"
    );

    // A product state: machine, shadow map and the built-in library's
    // monitors, with per-address windows open (`no-stale-forward` binds
    // each buffered store's address).
    let (library, _) = compile_props(&builtin_library(), &PropEnv::blocking(&cfg));
    let product = |ops: &[Op]| {
        let mut m = Machine::new(cfg.clone()).expect("valid configuration");
        m.set_engine(Engine::Reference);
        let (mut shadow, mut mons) = (ShadowTracker::default(), library.clone());
        run_ops(&mut m, ops, &mut shadow, &mut Monitored(&mut mons));
        (m, shadow, mons)
    };
    let (src, mut dst) = (product(&src_ops), product(&dst_ops));
    assert!(src.0.wb_occupancy() > 0, "a store is buffered");
    // An open binding set writes its addresses after its count, so only a
    // bound address makes the monitor key longer than the initial one.
    let key = |mons: &Monitors| {
        let mut out = Vec::new();
        mons.write_key(None, &mut out);
        out.len()
    };
    assert!(
        key(&src.2) > key(&library),
        "a monitor holds parameter bindings"
    );
    assert_eq!(fork_allocations(&src.0, &mut dst.0), 0, "product machine");
    assert_eq!(fork_allocations(&src.1, &mut dst.1), 0, "shadow map");
    assert_eq!(fork_allocations(&src.2, &mut dst.2), 0, "monitors");

    // A refinement pair: the event-driven side records its skip log.
    let pair = |ops: &[Op]| {
        let mut ed = Machine::new(cfg.clone()).expect("valid configuration");
        ed.set_record_skips(true);
        let mut rf = Machine::new(cfg.clone()).expect("valid configuration");
        rf.set_engine(Engine::Reference);
        let mut shadow = ShadowTracker::default();
        run_ops(
            &mut ed,
            ops,
            &mut ShadowTracker::default(),
            &mut NullObserver,
        );
        run_ops(&mut rf, ops, &mut shadow, &mut NullObserver);
        (ed, rf, shadow)
    };
    let (src, mut dst) = (pair(&src_ops), pair(&dst_ops));
    assert_eq!(fork_allocations(&src.0, &mut dst.0), 0, "event-driven side");
    assert_eq!(fork_allocations(&src.1, &mut dst.1), 0, "reference side");
    assert_eq!(fork_allocations(&src.2, &mut dst.2), 0, "pair's shadow map");
}

#[test]
fn writing_a_product_key_allocates_nothing() {
    let cfg = read_from_wb(L2Config::baseline());
    let lines = [LineAddr::new(0), LineAddr::new(1)];
    let (mut mons, _) = compile_props(&builtin_library(), &PropEnv::blocking(&cfg));
    let mut m = Machine::new(cfg).expect("valid configuration");
    let mut shadow = ShadowTracker::default();
    run_ops(
        &mut m,
        &two_histories()[0],
        &mut shadow,
        &mut Monitored(&mut mons),
    );
    let swap_mask = 32;
    let n = key_allocations(|k| {
        k.push(&m.view(), &lines, &shadow);
        k.push_with(|out, swapped| mons.write_key(swapped.then_some(swap_mask), out));
    });
    assert_eq!(n, 0, "machine key with the monitor key appended");
}

/// Heap allocations of `explore` run a second time on this thread, and
/// the states it found.
fn second_exploration(explore: impl Fn() -> u64) -> (u64, u64) {
    explore();
    let before = ALLOCATIONS.with(Cell::get);
    let states = explore();
    (ALLOCATIONS.with(Cell::get) - before, states)
}

/// An explored edge allocates nothing, and neither does a new state once
/// the explorer has states to fork into and its buffers have grown: a
/// state's key goes into the visited set's one key buffer, and its fork
/// reuses a state an earlier exploration on the thread expanded. What is
/// left is a fixed setup (the root machine, the compiled monitors, the
/// first buffers) and buffers growing, so a grid point of hundreds of
/// states or more, explored again, allocates fewer times than it finds
/// states. (A point of a few dozen states is mostly setup.)
#[test]
fn exploring_a_grid_point_again_allocates_less_than_once_per_state() {
    let props = builtin_library();
    // 627 to 774 states on the blocking grid, 2,225 to 3,057 on the
    // non-blocking one.
    let cfg = &bounded_configs(None)[7];
    let (nb_cfg, mshrs) = &nonblocking_configs(None, None)[15];
    let explorers: [(&str, &dyn Fn() -> u64); 6] = [
        ("reach", &|| check_reach_config(cfg).expect("clean").states),
        ("prop", &|| {
            check_props_reach_config(cfg, None, &props)
                .expect("clean")
                .states
        }),
        ("refine", &|| {
            check_refine_config(cfg).expect("clean").states
        }),
        ("reach, non-blocking", &|| {
            check_reach_config_nonblocking(nb_cfg, *mshrs)
                .expect("clean")
                .states
        }),
        ("prop, non-blocking", &|| {
            check_props_reach_config(nb_cfg, Some(*mshrs), &props)
                .expect("clean")
                .states
        }),
        ("refine, non-blocking", &|| {
            check_refine_config_nonblocking(nb_cfg, *mshrs)
                .expect("clean")
                .states
        }),
    ];
    for (name, explore) in explorers {
        let (allocations, states) = second_exploration(explore);
        assert!(states >= 600, "{name}: {states} states");
        assert!(
            allocations < states,
            "{name}: {allocations} allocations for {states} states"
        );
    }
}
