//! Differential fuzzing: the cycle-level machine against the untimed
//! architectural reference model, across the paper's whole policy space.
//!
//! Each case draws a random op stream and a random machine configuration
//! (all four load-hazard policies, both L1 write policies, perfect and
//! real L2s) and runs [`wbsim::oracle::diff_run`], which compares every
//! load value, the final memory image, and the conservation identities.
//! The non-blocking machine gets its own suites through
//! [`wbsim::oracle::diff_run_nonblocking`], sweeping 1..8 MSHRs over the
//! read-from-WB configurations it accepts.
//! The suites below total well over 1000 (stream, config) cases per
//! default run, and the vendored proptest engine is seeded by test name,
//! so a clean run is reproducible bit-for-bit.
//!
//! Two self-tests prove the oracle has teeth: a machine with a
//! deliberately injected freshness bug (read-from-write-buffer forwarding
//! skipped) is caught, and the failure shrinks to a minimized repro that
//! prints the configuration alongside the op list.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use proptest::run_proptest;

use wbsim::oracle::{diff_run, diff_run_nonblocking};
use wbsim::trace::strategies::{arb_machine_config, arb_op};
use wbsim::types::config::MachineConfig;
use wbsim::types::divergence::{Divergence, FaultInjection};
use wbsim::types::op::Op;
use wbsim::types::policy::{L1WritePolicy, L2Priority, LoadHazardPolicy, RetirementPolicy};
use wbsim::types::Addr;

/// A load- and store-only reference over 8 lines: maximal hazard density,
/// no compute padding to let the buffer drain.
fn dense_op() -> impl Strategy<Value = Op> {
    let addr = (0u64..8, 0u64..4).prop_map(|(line, word)| Addr::new(line * 32 + word * 8));
    prop_oneof![
        1 => addr.clone().prop_map(Op::Load),
        1 => addr.prop_map(Op::Store),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Any stream × any configuration: the machine and the architectural
    /// model must agree on every load value, the final memory image, and
    /// every conservation identity.
    #[test]
    fn machine_matches_architecture(
        ops in proptest::collection::vec(arb_op(), 1..300),
        cfg in arb_machine_config(),
    ) {
        if let Err(d) = diff_run(&cfg, &ops) {
            return Err(TestCaseError::fail(format!("{d}\nconfig: {cfg:?}")));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Hazard-saturated streams (stores and loads over 8 lines, nothing
    /// else): flush plans, forwarding, and retire races fire constantly.
    #[test]
    fn machine_matches_architecture_hazard_heavy(
        ops in proptest::collection::vec(dense_op(), 1..200),
        cfg in arb_machine_config(),
    ) {
        if let Err(d) = diff_run(&cfg, &ops) {
            return Err(TestCaseError::fail(format!("{d}\nconfig: {cfg:?}")));
        }
    }
}

/// Rewrites an arbitrary valid configuration into one the non-blocking
/// machine accepts: read-from-WB hazards over a write-through L1, with
/// read-bypassing port arbitration (the only arbitration the machine
/// runs). Every other generated dimension (depth, retirement, L2, ages)
/// passes through untouched.
fn nb_variant(mut cfg: MachineConfig) -> MachineConfig {
    cfg.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
    cfg.write_buffer.priority = L2Priority::ReadBypass;
    cfg.l1.write_policy = L1WritePolicy::WriteThrough;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The non-blocking machine under any stream × any write-through
    /// read-from-WB configuration × 1..8 MSHRs: load values resolve to
    /// the architectural ones regardless of how misses overlap, every
    /// load terminates, and the final memory image matches.
    #[test]
    fn nonblocking_matches_architecture(
        ops in proptest::collection::vec(arb_op(), 1..300),
        cfg in arb_machine_config(),
        mshrs in 1usize..8,
    ) {
        let cfg = nb_variant(cfg);
        match diff_run_nonblocking(&cfg, mshrs, &ops) {
            Ok(Ok(_)) => {}
            Ok(Err(d)) => return Err(TestCaseError::fail(
                format!("{d}\nconfig: {cfg:?}, mshrs {mshrs}"))),
            Err(e) => return Err(TestCaseError::fail(
                format!("config rejected: {e}\nconfig: {cfg:?}"))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Hazard-saturated streams through the non-blocking machine: misses
    /// on buffered lines force the merge-from-WB fill path constantly.
    #[test]
    fn nonblocking_matches_architecture_hazard_heavy(
        ops in proptest::collection::vec(dense_op(), 1..200),
        cfg in arb_machine_config(),
        mshrs in 1usize..8,
    ) {
        let cfg = nb_variant(cfg);
        match diff_run_nonblocking(&cfg, mshrs, &ops) {
            Ok(Ok(_)) => {}
            Ok(Err(d)) => return Err(TestCaseError::fail(
                format!("{d}\nconfig: {cfg:?}, mshrs {mshrs}"))),
            Err(e) => return Err(TestCaseError::fail(
                format!("config rejected: {e}\nconfig: {cfg:?}"))),
        }
    }
}

/// The oracle's teeth extend to the non-blocking machine: with the
/// forwarding fault injected, an overlapped load observes the stale
/// memory value and the differential run reports the exact load index.
#[test]
fn nonblocking_injected_forwarding_bug_is_caught() {
    let addr = Addr::new(0x20);
    let ops = vec![
        Op::Store(addr),
        Op::Load(addr),
        Op::Compute(40),
        Op::Load(addr),
    ];
    match diff_run_nonblocking(&faulty_cfg(), 2, &ops).expect("config is accepted") {
        Err(Divergence::LoadValue {
            machine, oracle, ..
        }) => {
            assert_eq!(machine, 0, "stale value bypassing the buffer");
            assert_eq!(oracle, 1, "the buffered store's value");
        }
        other => panic!("expected a LoadValue divergence, got {other:?}"),
    }
}

/// Every hazard policy × every L1 write policy is exercised by
/// construction, not just by sampling: 8 fixed-seed streams through each
/// of the 4 × 2 combinations.
#[test]
fn every_policy_combination_is_clean() {
    use proptest::TestRng;
    let stream_strategy = proptest::collection::vec(arb_op(), 50..250);
    for &hazard in &LoadHazardPolicy::ALL {
        for write_back in [false, true] {
            for seed in 0..8u64 {
                let mut rng = TestRng::new(0xD1FF_0000 + seed);
                let ops = stream_strategy.new_shrinkable(&mut rng).value;
                let mut cfg = MachineConfig::baseline();
                cfg.write_buffer.hazard = hazard;
                if write_back {
                    cfg.l1.write_policy = L1WritePolicy::WriteBack;
                    cfg.write_buffer.width_words = cfg.geometry.words_per_line();
                }
                if let Err(d) = diff_run(&cfg, &ops) {
                    panic!("{hazard:?} write_back={write_back} seed={seed}: {d}");
                }
            }
        }
    }
}

/// A read-from-write-buffer machine whose forwarding path is deliberately
/// disabled. Retire-at-4 keeps a lone store parked in the buffer, so the
/// following load *must* forward to see it.
fn faulty_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::baseline();
    cfg.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
    cfg.write_buffer.retirement = RetirementPolicy::RetireAt(4);
    cfg.fault = Some(FaultInjection::SkipWbForwarding);
    cfg
}

/// The injected freshness bug is caught deterministically: the machine
/// reads the stale 0 from L2/memory where the architecture requires the
/// buffered store's value.
#[test]
fn injected_forwarding_bug_is_caught() {
    let a = Addr::new(0x20);
    let ops = vec![Op::Store(a), Op::Load(a)];
    match diff_run(&faulty_cfg(), &ops) {
        Err(Divergence::LoadValue {
            machine, oracle, ..
        }) => {
            assert_eq!(machine, 0, "stale value bypassing the buffer");
            assert_eq!(oracle, 1, "the buffered store's value");
        }
        other => panic!("expected a LoadValue divergence, got {other:?}"),
    }
}

/// The fuzzer shrinks a divergence to a minimized repro whose report
/// prints the configuration alongside the op list. The random prefix is
/// loads and computes only (it can never populate the buffer), so the
/// appended store→load pair diverges in every case and shrinking strips
/// the prefix away.
#[test]
fn divergence_shrinks_to_minimized_repro() {
    let a = Addr::new(0x20);
    let prefix = prop_oneof![
        2 => (0u64..64, 0u64..4)
            .prop_map(|(line, word)| Op::Load(Addr::new(line * 32 + word * 8))),
        1 => (0u32..6).prop_map(Op::Compute),
    ];
    let cases = (
        Just(faulty_cfg()),
        proptest::collection::vec(prefix, 0..40).prop_map(move |mut ops| {
            ops.push(Op::Store(a));
            ops.push(Op::Load(a));
            ops
        }),
    );

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_proptest(
            ProptestConfig::with_cases(4),
            "differential::minimize",
            cases,
            |(cfg, ops)| match diff_run(&cfg, &ops) {
                Ok(_) => Ok(()),
                Err(d) => Err(TestCaseError::fail(format!("{d}"))),
            },
        );
    }));

    let payload = outcome.expect_err("the injected bug must falsify the property");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload should be a message");
    assert!(msg.contains("falsified"), "not a proptest report: {msg}");
    assert!(
        msg.contains("minimal failing input"),
        "report lacks the minimized repro: {msg}"
    );
    // The repro prints the configuration (fault and policy included) …
    assert!(msg.contains("SkipWbForwarding"), "config missing: {msg}");
    assert!(msg.contains("ReadFromWb"), "policy missing: {msg}");
    // … alongside the op list, shrunk to just the diverging pair.
    assert!(
        msg.contains("Store(") && msg.contains("Load("),
        "op list missing: {msg}"
    );
    let stores = msg.matches("Store(").count();
    assert_eq!(stores, 1, "prefix should shrink away entirely: {msg}");
}
