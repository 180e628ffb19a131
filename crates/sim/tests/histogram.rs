//! Integration coverage for [`HistogramObserver`] on real machine runs:
//! a hand-scripted op trace with known dynamics, with the resulting
//! occupancy / retirement-latency / stall-burst distributions pinned
//! exactly. The unit tests in `observer.rs` feed synthetic events; these
//! pin the observer against the machine itself, so a change to either
//! side of the event contract shows up here.

use wbsim_sim::{HistogramObserver, Machine, SimMachine};
use wbsim_types::config::MachineConfig;
use wbsim_types::op::Op;
use wbsim_types::testutil::a;

/// The hand-scripted trace: coalesce into line 0, push occupancy to the
/// retire-at-2 mark with line 1, idle long enough for the autonomous
/// retirement to complete, then force a flush-full hazard on line 1 and
/// drain.
fn script() -> Vec<Op> {
    vec![
        Op::Store(a(0, 0)), // allocate entry for line 0
        Op::Store(a(0, 1)), // coalesces into it (occupancy stays 1)
        Op::Compute(2),     // below the high-water mark: nothing retires
        Op::Store(a(1, 0)), // occupancy 2 == retire-at-2: retirement starts
        Op::Compute(10),    // retirement of line 0 completes in the shadow
        Op::Load(a(1, 1)),  // hazard on buffered line 1: flush-full + miss
        Op::Compute(10),    // quiet tail
    ]
}

fn run_script() -> (HistogramObserver, wbsim_types::stats::SimStats) {
    let cfg = MachineConfig::baseline();
    let mut obs = HistogramObserver::new(cfg.write_buffer.depth);
    let stats = Machine::new(cfg).unwrap().run_observed(script(), &mut obs);
    (obs, stats)
}

#[test]
fn scripted_trace_distributions_are_pinned() {
    let (obs, stats) = run_script();

    // One coalesced entry for line 0, one for line 1; the first retires
    // autonomously at the high-water mark, the second by hazard flush.
    assert_eq!(stats.stores, 3);
    assert_eq!(stats.wb_store_merges, 1);
    assert_eq!(obs.retirements(), 2);
    assert_eq!(stats.wb_retirements + stats.wb_flushes, 2);
    assert_eq!(stats.wb_flushes, 1);

    // Occupancy: never above the retire-at mark of 2.
    assert_eq!(obs.high_water(), 2);
    assert_eq!(obs.headroom(), 2);
    assert_eq!(stats.wb_detail.high_water, obs.high_water());

    // The histogram partitions the cycles.
    assert_eq!(obs.cycles(), stats.cycles);
    assert_eq!(obs.hist().iter().sum::<u64>(), obs.cycles());
    assert_eq!(obs.hist()[3..].iter().sum::<u64>(), 0);

    // Exact pins for the whole distribution (calibrated once; any change
    // to machine timing or the event contract must be deliberate).
    assert_eq!(obs.cycles(), 38);
    assert_eq!(obs.hist()[0], 16);
    assert_eq!(obs.hist()[1], 16);
    assert_eq!(obs.hist()[2], 6);
    let mean = obs.mean_occupancy();
    assert!((mean - 28.0 / 38.0).abs() < 1e-9, "mean occupancy {mean}");

    // Retirement latency: the flushed line-1 entry lived 10 cycles; the
    // autonomously retired line-0 entry 18 (allocation to write done).
    assert_eq!(obs.max_retirement_latency(), 18);
    let lat = obs.mean_retirement_latency();
    assert!((lat - 14.0).abs() < 1e-9, "mean retirement latency {lat}");

    // Stalls: exactly one burst — the hazard load's flush + L2 fill.
    assert_eq!(obs.burst_count(), 1);
    assert_eq!(obs.max_burst_len(), 6);
    assert!((obs.mean_burst_len() - 6.0).abs() < 1e-9);
    assert_eq!(
        obs.max_burst_len(),
        stats.stalls.total(),
        "one burst holds every stall cycle"
    );
}

#[test]
fn observer_is_pure_stats_are_identical() {
    let cfg = MachineConfig::baseline();
    let mut obs = HistogramObserver::new(cfg.write_buffer.depth);
    let observed = Machine::new(cfg.clone())
        .unwrap()
        .run_observed(script(), &mut obs);
    let plain = Machine::new(cfg).unwrap().run(script());
    assert_eq!(observed, plain, "observers must not perturb the machine");
}

#[test]
fn deeper_retire_mark_changes_the_occupancy_distribution() {
    // Same script, retire-at-4: the high-water mark is never reached, so
    // nothing retires autonomously and only the hazard flush drains. The
    // occupancy distribution shifts right relative to the baseline pin.
    let mut cfg = MachineConfig::baseline();
    cfg.write_buffer.retirement = wbsim_types::policy::RetirementPolicy::RetireAt(4);
    let mut obs = HistogramObserver::new(cfg.write_buffer.depth);
    let stats = Machine::new(cfg).unwrap().run_observed(script(), &mut obs);
    assert_eq!(stats.wb_retirements, 0, "mark never reached");
    assert_eq!(obs.high_water(), 2);
    assert_eq!(obs.headroom(), 2);
    // Both entries sit buffered from the second allocation until the
    // flush, so occupancy-2 cycles outnumber the baseline's 6.
    assert!(obs.hist()[2] > 6, "hist {:?}", &obs.hist()[..4]);
    assert_eq!(obs.retirements(), stats.wb_flushes);
}
