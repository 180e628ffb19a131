//! Property fuzzing for the `.wbcfg` parser
//! ([`wbsim::types::file_config::parse_machine_config`]), whose text also
//! reaches the daemon inside check and trace manifests.
//!
//! * a generated valid configuration, with whole-domain values in every
//!   field the format writes (a cycle count's domain ends at `u32::MAX`),
//!   round-trips through `to_config_string`;
//! * an integer its field cannot hold is refused on its own line, never
//!   truncated into range, and so is a cycle count past `u32::MAX`;
//! * a document cut short, with one character replaced, or made of
//!   arbitrary bytes never panics the parser: it parses, or it is refused
//!   with errors whose line numbers lie inside the document (0 for the
//!   whole configuration).

use proptest::collection::vec;
use proptest::prelude::*;

use wbsim::trace::strategies::arb_machine_config;
use wbsim::types::config::{IcacheConfig, L2Config, MachineConfig, MAX_CYCLES};
use wbsim::types::file_config::{parse_machine_config, to_config_string};

/// A cache size of whole KiB, a power of two up to the largest a `u32`
/// byte count holds.
fn arb_cache_bytes() -> impl Strategy<Value = u32> {
    (10u32..32).prop_map(|k| 1 << k)
}

/// [`arb_machine_config`]'s write buffers and L1 write policies, with the
/// issue width, the L1 shape, the L2 and the I-cache drawn from their
/// whole domains.
fn arb_config() -> impl Strategy<Value = MachineConfig> {
    let l1 = arb_cache_bytes().prop_flat_map(|size| {
        // Any power-of-two associativity up to one set of 32-byte lines.
        let ways = (size / 32).trailing_zeros();
        (Just(size), (0..=ways).prop_map(|j| 1u32 << j))
    });
    let l2 = prop_oneof![
        (1..=MAX_CYCLES).prop_map(|latency| L2Config::Perfect { latency }),
        (arb_cache_bytes(), 1..=MAX_CYCLES, 1..=MAX_CYCLES).prop_map(
            |(size_bytes, latency, mm_latency)| L2Config::Real {
                size_bytes,
                assoc: 1,
                latency,
                mm_latency,
            }
        ),
    ];
    let icache = prop_oneof![
        Just(IcacheConfig::Perfect),
        (1..=u64::MAX).prop_map(|interval| IcacheConfig::MissEvery { interval }),
    ];
    (arb_machine_config(), 1..=u32::MAX, l1, l2, icache).prop_map(
        |(mut cfg, issue_width, (size_bytes, assoc), l2, icache)| {
            cfg.issue_width = issue_width;
            cfg.l1.size_bytes = size_bytes;
            cfg.l1.assoc = assoc;
            cfg.l2 = l2;
            cfg.icache = icache;
            cfg
        },
    )
}

/// Whatever `text` parses to: a configuration, or errors that each name a
/// line of the document or the document as a whole.
fn parses_cleanly(text: &str) -> Result<(), TestCaseError> {
    if let Err(errs) = parse_machine_config(text) {
        let lines = text.lines().count();
        prop_assert!(!errs.0.is_empty(), "{:?}: refused without a reason", text);
        for e in &errs.0 {
            prop_assert!(e.line <= lines, "{:?}: {} is past line {}", text, e, lines);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every generated configuration reads back as itself.
    #[test]
    fn any_config_round_trips(cfg in arb_config()) {
        let text = to_config_string(&cfg);
        match parse_machine_config(&text) {
            Ok(back) => prop_assert_eq!(back, cfg, "{}", text),
            Err(e) => return Err(TestCaseError::fail(format!("{text}: {e}"))),
        }
    }

    /// A value past the range of a 32-bit field (for a size in KiB, past
    /// what its byte count holds) appended to a valid document is refused
    /// on that line alone.
    #[test]
    fn any_out_of_range_integer_is_refused_on_its_line(
        cfg in arb_config(),
        key in 0..4usize,
        excess in 1..=u64::MAX / 2,
    ) {
        let (key, max) = [
            ("issue_width", u64::from(u32::MAX)),
            ("l1.assoc", u64::from(u32::MAX)),
            ("l1.size_kb", u64::from(u32::MAX / 1024)),
            ("l2.size_kb", u64::from(u32::MAX / 1024)),
        ][key];
        let text = format!("{}{key} = {}\n", to_config_string(&cfg), max + excess);
        let errs = parse_machine_config(&text).map(|_| ()).expect_err(&text);
        let lines: Vec<usize> = errs.0.iter().map(|e| e.line).collect();
        prop_assert_eq!(lines, vec![text.lines().count()], "{}", text);
    }

    /// A cycle count past `u32::MAX` — a latency, an entry age or a
    /// fixed-rate interval, anywhere in the rest of the `u64` range —
    /// appended to a valid document is refused on that line alone.
    #[test]
    fn any_whole_u64_cycle_count_is_refused_on_its_line(
        cfg in arb_config(),
        key in 0..4usize,
        excess in 1..=u64::MAX - u64::from(u32::MAX),
    ) {
        let key = ["l2.latency = ", "l2.mm_latency = ", "wb.max_age = ", "wb.retirement = fixed-rate-"][key];
        let text = format!("{}{key}{}\n", to_config_string(&cfg), u64::from(u32::MAX) + excess);
        let errs = parse_machine_config(&text).map(|_| ()).expect_err(&text);
        let lines: Vec<usize> = errs.0.iter().map(|e| e.line).collect();
        prop_assert_eq!(lines, vec![text.lines().count()], "{}", text);
    }

    /// A document cut short anywhere parses cleanly.
    #[test]
    fn any_truncation_parses_cleanly(cfg in arb_config(), cut in any::<usize>()) {
        let text = to_config_string(&cfg);
        let ends: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        parses_cleanly(&text[..ends[cut % ends.len()]])?;
    }

    /// One character replaced anywhere parses cleanly.
    #[test]
    fn any_mangled_character_parses_cleanly(
        cfg in arb_config(),
        at in any::<usize>(),
        with in 0..12usize,
    ) {
        let text = to_config_string(&cfg);
        let ends: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        let at = ends[at % ends.len()];
        let replacement = ['=', '#', '\n', '9', '0', '-', ':', 'x', ' ', 'é', '.', '\r'][with];
        let next = text[at..].chars().next().map_or(0, char::len_utf8);
        parses_cleanly(&format!("{}{replacement}{}", &text[..at], &text[at + next..]))?;
    }

    /// Arbitrary bytes never panic the parser.
    #[test]
    fn arbitrary_junk_parses_cleanly(bytes in vec(any::<u8>(), 0..160)) {
        parses_cleanly(&String::from_utf8_lossy(&bytes))?;
    }
}
