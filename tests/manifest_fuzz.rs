//! Property fuzzing for the `wbsim-job/1` manifest parser
//! ([`wbsim::jobs::Manifest`]), the input every `wbsim serve` client
//! sends.
//!
//! * a generated valid manifest of every kind, with whole-domain field
//!   values, round-trips: `from_json(to_json(m)) == m`, under the same
//!   cache key;
//! * every proper prefix of a manifest's text is refused;
//! * a manifest with one character replaced, or with one `spec` or
//!   `options` member's value swapped for a value of another JSON type,
//!   never panics the parser: it is refused with diagnostics whose codes
//!   the registry knows, or it parses to a manifest that round-trips;
//! * arbitrary byte junk never panics the parser.

use std::fmt::Debug;

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

use wbsim::jobs::{
    CheckConfig, CheckSpec, FigureFormat, JobKind, MachineSel, Manifest, Options, SchedFault,
};
use wbsim::sim::Engine;
use wbsim::trace::bench_models::BenchmarkModel;
use wbsim::types::diagnostics::Diagnostic;
use wbsim::types::json::{parse, Json};
use wbsim::types::policy::LoadHazardPolicy;
use wbsim::types::{registry_entry, FaultInjection, Severity};

/// One of `names`, read through `from`.
fn one_of<T: Clone + Debug + 'static>(
    names: &'static [&'static str],
    from: fn(&str) -> Option<T>,
) -> impl Strategy<Value = T> {
    (0..names.len()).prop_map(move |i| from(names[i]).expect("a listed name"))
}

/// Text that needs escaping: quotes, backslashes, control characters,
/// non-ASCII.
fn arb_text() -> impl Strategy<Value = String> {
    const PIECES: [&str; 10] = [
        "a",
        "wb.depth = 4",
        "\n",
        "\"",
        "\\",
        "é",
        "\u{1}",
        " ",
        "{",
        "}",
    ];
    vec(0..PIECES.len(), 0..8).prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

fn arb_check() -> impl Strategy<Value = CheckSpec> {
    let passes = (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    );
    let machine = one_of(MachineSel::NAMES, MachineSel::from_name);
    let faults = (
        option::of(one_of(FaultInjection::NAMES, FaultInjection::from_name)),
        option::of(one_of(SchedFault::NAMES, SchedFault::from_name)),
    );
    let hazard = one_of(LoadHazardPolicy::NAMES, LoadHazardPolicy::from_name);
    let config = prop_oneof![
        arb_text().prop_map(|t| CheckConfig {
            file: Some(t),
            ..CheckConfig::default()
        }),
        (
            option::of(any::<usize>()),
            option::of(any::<usize>()),
            option::of(hazard),
        )
            .prop_map(|(depth, retire_at, hazard)| CheckConfig {
                file: None,
                depth,
                retire_at,
                hazard,
            }),
    ];
    (
        passes,
        machine,
        option::of(1..=usize::MAX),
        any::<u32>(),
        faults,
        option::of(arb_text()),
        option::of(any::<usize>()),
        config,
    )
        .prop_map(
            |(
                (exhaustive, reach, refine, props, sched),
                machine,
                mshrs,
                max_ops,
                (fault, sched_fault),
                props_file,
                sched_preemptions,
                config,
            )| CheckSpec {
                exhaustive,
                reach,
                refine,
                machine,
                mshrs,
                // An exhaustive check of length 0 is refused (JOB018).
                max_ops: if exhaustive { max_ops.max(1) } else { max_ops },
                fault,
                props,
                props_file,
                sched,
                sched_fault,
                sched_preemptions,
                config,
            },
        )
}

fn arb_kind() -> impl Strategy<Value = JobKind> {
    const TABLES: &[&str] = &["1", "2", "3", "4", "5", "6", "7", "wb", "all"];
    const FIGURES: &[&str] = &[
        "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "all",
    ];
    let which = |names: &'static [&'static str]| one_of(names, |s| Some(s.to_string()));
    let bench = (0..BenchmarkModel::ALL.len()).prop_map(|i| BenchmarkModel::ALL[i].name());
    prop_oneof![
        which(TABLES).prop_map(|which| JobKind::Table { which }),
        (
            which(FIGURES),
            one_of(FigureFormat::NAMES, FigureFormat::from_name)
        )
            .prop_map(|(which, format)| JobKind::Figure { which, format }),
        arb_check().prop_map(JobKind::Check),
        (1..=u64::MAX).prop_map(|samples| JobKind::Bench { samples }),
        (bench, arb_text(), any::<usize>()).prop_map(|(bench, config, mshrs)| JobKind::Trace {
            bench: bench.to_string(),
            config: format!("wb.depth = 4\n{config}"),
            mshrs,
        }),
    ]
}

fn arb_manifest() -> impl Strategy<Value = Manifest> {
    let options = (
        1..=u64::MAX,
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        any::<usize>(),
        one_of(Engine::NAMES, Engine::from_name),
    )
        .prop_map(
            |(instructions, warmup, seed, check_data, jobs, engine)| Options {
                instructions,
                warmup,
                seed,
                check_data,
                jobs,
                engine,
            },
        );
    (arb_kind(), options).prop_map(|(kind, options)| Manifest { kind, options })
}

/// Values of every JSON type, and numbers no field can hold.
fn arb_value() -> impl Strategy<Value = Json> {
    let num = |t: &str| Json::Num(t.to_string());
    let values = [
        Json::Null,
        Json::Bool(true),
        num("7"),
        num("0"),
        num("-1"),
        num("1.5"),
        num("4294967296"),
        num("18446744073709551616"),
        Json::Str("x".to_string()),
        Json::Str(String::new()),
        Json::Arr(vec![Json::Null]),
        Json::Obj(Vec::new()),
    ];
    (0..values.len()).prop_map(move |i| values[i].clone())
}

/// Whatever `text` parses to: a refusal made only of registered error
/// diagnostics that each name a field path, or a manifest that
/// round-trips.
fn parses_cleanly(text: &str) -> Result<(), TestCaseError> {
    match Manifest::from_json(text) {
        Ok(m) => {
            let back = Manifest::from_json(&m.to_json()).map_err(|e| {
                TestCaseError::fail(format!("{text}: its own wire form is refused: {e:?}"))
            })?;
            prop_assert_eq!(back, m, "{}", text);
        }
        Err(errs) => {
            prop_assert!(!errs.is_empty(), "{}: refused without a reason", text);
            let bad: Vec<&Diagnostic> = errs
                .iter()
                .filter(|d| {
                    registry_entry(d.code).is_none()
                        || d.severity != Severity::Error
                        || d.field_path.is_empty()
                })
                .collect();
            prop_assert!(bad.is_empty(), "{}: {:?}", text, bad);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every kind at whole-domain field values reads back as itself,
    /// under the same cache key.
    #[test]
    fn any_manifest_round_trips(m in arb_manifest()) {
        let json = m.to_json();
        match Manifest::from_json(&json) {
            Ok(back) => {
                prop_assert_eq!(back.cache_key(), m.cache_key(), "{}", json);
                prop_assert_eq!(back, m, "{}", json);
            }
            Err(e) => return Err(TestCaseError::fail(format!("{json}: {e:?}"))),
        }
    }

    /// A manifest cut short is refused as malformed JSON, never read as a
    /// shorter manifest.
    #[test]
    fn any_truncation_is_refused(m in arb_manifest(), cut in any::<usize>()) {
        let json = m.to_json();
        let ends: Vec<usize> = json.char_indices().map(|(i, _)| i).collect();
        let cut = ends[cut % ends.len()];
        let errs = Manifest::from_json(&json[..cut]).map(|_| ()).expect_err(&json[..cut]);
        prop_assert!(errs.iter().all(|d| d.code == "JOB001"), "{}: {:?}", &json[..cut], errs);
    }

    /// One character replaced anywhere: refused with registered codes, or
    /// still a manifest that round-trips.
    #[test]
    fn any_mangled_character_parses_cleanly(
        m in arb_manifest(),
        at in any::<usize>(),
        with in 0..12usize,
    ) {
        let json = m.to_json();
        let ends: Vec<usize> = json.char_indices().map(|(i, _)| i).collect();
        let at = ends[at % ends.len()];
        let replacement = ['"', '{', '}', '[', ':', ',', '0', '9', 'x', 'n', '\\', ' '][with];
        let next = json[at..].chars().next().map_or(0, char::len_utf8);
        let mangled = format!("{}{replacement}{}", &json[..at], &json[at + next..]);
        parses_cleanly(&mangled)?;
    }

    /// One `spec` or `options` member's value swapped for a value of
    /// another type, or for a number no field holds: refused with
    /// registered codes, or (a `null`, read as the member's absence) still
    /// a manifest that round-trips.
    #[test]
    fn any_swapped_member_type_parses_cleanly(
        m in arb_manifest(),
        options in any::<bool>(),
        member in any::<usize>(),
        value in arb_value(),
    ) {
        let Json::Obj(mut top) = parse(&m.to_json()).expect("to_json writes JSON") else {
            return Err(TestCaseError::fail("to_json writes an object"));
        };
        let section = if options { "options" } else { "spec" };
        let (_, Json::Obj(members)) = top.iter_mut().find(|(k, _)| k == section).expect(section)
        else {
            return Err(TestCaseError::fail(format!("{section} is an object")));
        };
        let i = member % members.len();
        members[i].1 = value;
        parses_cleanly(&Json::Obj(top).render())?;
    }

    /// Arbitrary bytes never panic the parser.
    #[test]
    fn arbitrary_junk_parses_cleanly(bytes in vec(any::<u8>(), 0..160)) {
        parses_cleanly(&String::from_utf8_lossy(&bytes))?;
    }
}
