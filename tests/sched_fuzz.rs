//! Property fuzzing for the `wbsim-sched/1` schedule reader
//! ([`wbsim::check::sched::SchedCounterexample::parse`]), mirroring the
//! `.wbp` parser suite in `tests/prop_fuzz.rs`.
//!
//! Schedules cross a process boundary (`wbsim check --sched --out FILE`
//! writes them, `--replay FILE` reads them back), so the reader is an
//! input boundary: it must never panic, and everything it rejects must
//! come back as a structured `SCH00x` [`Diagnostic`] from the unified
//! registry. These suites drive it with randomized inputs:
//!
//! * serialized schedules round-trip losslessly through `to_jsonl` /
//!   `parse`, including details that exercise the JSON escaper;
//! * every prefix of a valid file parses or fails with `SCH001`;
//! * mangling a step's op tag yields `SCH001`, never a panic;
//! * arbitrary byte junk never panics and never produces diagnostics
//!   outside the registered `SCH` family, both through the raw parser
//!   and through the full [`wbsim::jobs::replay_sched`] front end.

use proptest::prelude::*;

use wbsim::check::sched::{OpKind, SchedChoice, SchedCounterexample};
use wbsim::types::diagnostics::{registry_entry, Diagnostic, Severity};

/// The full op-tag alphabet a schedule step may carry.
const OPS: &[OpKind] = &[
    OpKind::Start,
    OpKind::Yield,
    OpKind::MutexLock,
    OpKind::MutexUnlock,
    OpKind::CvWait,
    OpKind::CvResume,
    OpKind::CvNotifyOne,
    OpKind::CvNotifyAll,
    OpKind::AtomicLoad,
    OpKind::AtomicStore,
    OpKind::AtomicRmw,
    OpKind::Spawn,
    OpKind::JoinChildren,
];

/// Registered `SCH1xx` verdicts (the header's `code` must be in the
/// diagnostics registry to parse).
const CODES: &[&str] = &["SCH100", "SCH101", "SCH102"];

/// Details chosen to exercise the escaper: quotes, backslashes, newlines.
const DETAILS: &[&str] = &[
    "job executed 2 times (want exactly once)",
    "lost wakeup: thread 2 on cv-resume parked forever",
    "quote \" backslash \\ newline \n tab \t",
    "",
];

fn arb_choice() -> impl Strategy<Value = SchedChoice> {
    (0usize..4, 0usize..OPS.len(), 0u64..8, 0u64..8).prop_map(|(thread, op, obj, obj2)| {
        SchedChoice {
            thread,
            kind: OPS[op],
            obj,
            obj2,
        }
    })
}

/// A whole valid counterexample over random harness/fault/code/steps.
fn arb_cex() -> impl Strategy<Value = SchedCounterexample> {
    (
        0usize..3,
        0usize..3,
        0usize..CODES.len(),
        0usize..DETAILS.len(),
        1usize..5,
        proptest::collection::vec(arb_choice(), 1..40),
        any::<u64>(),
    )
        .prop_map(|(h, f, c, d, threads, schedule, prefix)| {
            let harness = ["store-race", "serve-drain", "pool-steal"][h];
            let fault = [None, Some("lost-wakeup"), Some("dup-execute")][f];
            let prefix = (prefix % (schedule.len() as u64 + 1)) as usize;
            SchedCounterexample {
                harness: harness.to_string(),
                fault: fault.map(str::to_string),
                code: CODES[c].to_string(),
                detail: DETAILS[d].to_string(),
                threads,
                prefix,
                schedule,
            }
        })
}

/// Every rejection must be a structured, registered `SCH` diagnostic.
fn assert_structured(d: &Diagnostic) {
    assert!(d.code.starts_with("SCH"), "non-SCH code {}", d.code);
    assert!(
        registry_entry(d.code).is_some(),
        "unregistered code {}",
        d.code
    );
    assert_eq!(d.severity, Severity::Error, "{}", d.code);
    assert!(!d.message.is_empty(), "{}: empty message", d.code);
    assert!(!d.field_path.is_empty(), "{}: empty field path", d.code);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serialized schedules round-trip losslessly: every header field and
    /// every step survives `to_jsonl` → `parse` byte-identically.
    #[test]
    fn any_schedule_round_trips(cex in arb_cex()) {
        let text = cex.to_jsonl();
        let back = match SchedCounterexample::parse(&text) {
            Ok(back) => back,
            Err(d) => return Err(TestCaseError::fail(format!("{text}: {d:?}"))),
        };
        prop_assert_eq!(back.harness, cex.harness);
        prop_assert_eq!(back.fault, cex.fault);
        prop_assert_eq!(back.code, cex.code);
        prop_assert_eq!(back.detail, cex.detail);
        prop_assert_eq!(back.threads, cex.threads);
        prop_assert_eq!(back.prefix, cex.prefix);
        prop_assert_eq!(back.schedule, cex.schedule);
        // Re-serializing the parse result reproduces the bytes.
        prop_assert_eq!(back.to_jsonl(), text);
    }

    /// Every byte-prefix of a valid file parses or fails with a
    /// structured `SCH001` — a truncated schedule never panics the
    /// reader and never silently parses as something it is not.
    #[test]
    fn any_truncation_is_structural(cex in arb_cex(), cut in any::<u64>()) {
        let text = cex.to_jsonl();
        prop_assert!(text.is_ascii());
        let cut = (cut % text.len() as u64) as usize;
        match SchedCounterexample::parse(&text[..cut]) {
            // A cut at a line boundary after >= 1 step still parses; the
            // surviving steps must be a prefix of the original schedule.
            Ok(back) => {
                prop_assert!(back.schedule.len() <= cex.schedule.len());
                prop_assert_eq!(&back.schedule[..], &cex.schedule[..back.schedule.len()]);
            }
            Err(d) => {
                assert_structured(&d);
                prop_assert_eq!(d.code, "SCH001");
            }
        }
    }

    /// Mangling a step's op tag is caught by the static tag table.
    #[test]
    fn any_mangled_op_tag_is_rejected(cex in arb_cex(), victim in any::<u64>()) {
        let victim = (victim % cex.schedule.len() as u64) as usize;
        let tag = cex.schedule[victim].kind.name();
        let text = cex.to_jsonl();
        // Rewrite exactly the victim step's op field; tags only appear as
        // `"op":"<tag>"` values, so occurrence counting is exact.
        let needle = format!("\"op\":\"{tag}\"");
        let nth = cex.schedule[..victim]
            .iter()
            .filter(|c| c.kind == cex.schedule[victim].kind)
            .count();
        let at = text
            .match_indices(&needle)
            .nth(nth)
            .map(|(i, _)| i)
            .expect("victim step serializes its tag");
        let mut mangled = text.clone();
        mangled.replace_range(at..at + needle.len(), "\"op\":\"coffee-break\"");
        prop_assert!(mangled != text);
        let d = match SchedCounterexample::parse(&mangled) {
            Ok(_) => return Err(TestCaseError::fail(format!("accepted {mangled}"))),
            Err(d) => d,
        };
        assert_structured(&d);
        prop_assert_eq!(d.code, "SCH001");
        prop_assert!(d.message.contains("coffee-break"), "{}", d.message);
    }

    /// Arbitrary bytes (lossily decoded) never panic the reader, and
    /// every rejection stays inside the registered `SCH` family.
    #[test]
    fn arbitrary_junk_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(d) = SchedCounterexample::parse(&text) {
            assert_structured(&d);
        }
    }

    /// The full `--replay` front end ([`wbsim::jobs::replay_sched`]) is
    /// just as robust: junk comes back as `SCH001`, and a parseable
    /// schedule naming no known harness/fault pairing as `SCH002` —
    /// never a panic, never an unregistered code.
    #[test]
    fn replay_front_end_rejects_junk_structurally(
        bytes in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let opts = wbsim::check::SchedOptions::default();
        if let Err(d) = wbsim::jobs::replay_sched(&text, &opts) {
            assert_structured(&d);
        }
    }
}

/// A schedule whose header names an unknown harness parses (`parse` does
/// not validate names) but is rejected by the replay front end as
/// `SCH002` — the pairing check is the caller's job, pinned here.
#[test]
fn replay_rejects_unknown_harness_as_sch002() {
    let text = "{\"schema\":\"wbsim-sched/1\",\"harness\":\"lunch-queue\",\"fault\":null,\
                \"code\":\"SCH100\",\"threads\":2,\"prefix\":0,\"detail\":\"d\"}\n\
                {\"step\":0,\"thread\":0,\"op\":\"start\",\"obj\":0,\"obj2\":0}\n";
    assert!(SchedCounterexample::parse(text).is_ok());
    let opts = wbsim::check::SchedOptions::default();
    let d = wbsim::jobs::replay_sched(text, &opts).expect_err("unknown harness must be rejected");
    assert_eq!(d.code, "SCH002");
    assert_structured(&d);
}
