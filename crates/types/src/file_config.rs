//! A plain-text machine-configuration format (`.wbcfg`).
//!
//! One `key = value` pair per line, `#` comments, unknown keys rejected.
//! [`MachineConfig`] implements [`FromStr`] for parsing (first error only);
//! [`parse_machine_config`] reports every bad line at once; and
//! [`to_config_string`] serializes a
//! configuration such that it parses back identically.
//!
//! ```text
//! # the paper's recommended buffer on the baseline machine
//! wb.depth      = 12
//! wb.retirement = retire-at-8
//! wb.hazard     = read-from-wb
//! l2.latency    = 6
//! ```
//!
//! # Example
//!
//! ```
//! use wbsim_types::config::MachineConfig;
//! use wbsim_types::file_config::to_config_string;
//!
//! let cfg: MachineConfig = "wb.depth = 8\nl1.size_kb = 16".parse().unwrap();
//! assert_eq!(cfg.write_buffer.depth, 8);
//! assert_eq!(cfg.l1.size_bytes, 16 * 1024);
//! let round: MachineConfig = to_config_string(&cfg).parse().unwrap();
//! assert_eq!(round, cfg);
//! ```

use std::fmt::Write as _;
use std::str::FromStr;

use crate::config::{IcacheConfig, L2Config, MachineConfig};
use crate::policy::{
    DatapathWidth, L1WritePolicy, L2Priority, LoadHazardPolicy, RetirementOrder, RetirementPolicy,
};

/// A parse failure, with the offending line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigParseError {
    /// 1-based line number (0 for whole-file problems).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigParseError {}

fn err(line: usize, message: impl Into<String>) -> ConfigParseError {
    ConfigParseError {
        line,
        message: message.into(),
    }
}

/// Every parse failure in one `.wbcfg` document, in line order.
///
/// Produced by [`parse_machine_config`], which keeps scanning past bad lines
/// so a user fixing a config file sees all of its problems at once instead
/// of one per attempt. Never empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigParseErrors(pub Vec<ConfigParseError>);

impl std::fmt::Display for ConfigParseErrors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ConfigParseErrors {}

/// L2 keys arrive on separate lines; collected here and resolved at the end.
struct L2Keys {
    real: bool,
    latency: u64,
    size_kb: u32,
    mm: u64,
}

/// Parses a `.wbcfg` document, reporting **all** invalid lines at once.
///
/// Unspecified keys keep their baseline values. Lines that fail to parse are
/// skipped (their keys keep the baseline value) and collected into the error;
/// whole-config validation runs only when every line parsed, so its `line 0`
/// entry never duplicates a per-line failure.
///
/// # Errors
///
/// Returns a non-empty [`ConfigParseErrors`] listing every bad line.
pub fn parse_machine_config(s: &str) -> Result<MachineConfig, ConfigParseErrors> {
    let mut cfg = MachineConfig::baseline();
    let mut l2 = L2Keys {
        real: false,
        latency: cfg.l2.latency(),
        size_kb: 1024,
        mm: 25,
    };
    let mut errors = Vec::new();

    for (i, raw) in s.lines().enumerate() {
        let n = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Err(e) = apply_line(&mut cfg, &mut l2, line, n) {
            errors.push(e);
        }
    }
    cfg.l2 = if l2.real {
        L2Config::Real {
            size_bytes: l2.size_kb * 1024,
            assoc: 1,
            latency: l2.latency,
            mm_latency: l2.mm,
        }
    } else {
        L2Config::Perfect {
            latency: l2.latency,
        }
    };
    if errors.is_empty() {
        if let Err(e) = cfg.validate() {
            errors.push(err(0, format!("invalid configuration: {e}")));
        }
    }
    if errors.is_empty() {
        Ok(cfg)
    } else {
        Err(ConfigParseErrors(errors))
    }
}

/// Applies one non-empty, comment-stripped `key = value` line to `cfg`.
fn apply_line(
    cfg: &mut MachineConfig,
    l2: &mut L2Keys,
    line: &str,
    n: usize,
) -> Result<(), ConfigParseError> {
    let (key, value) = line
        .split_once('=')
        .ok_or_else(|| err(n, format!("expected `key = value`, got {line:?}")))?;
    let key = key.trim();
    let value = value.trim();
    let int = |what: &str| -> Result<u64, ConfigParseError> {
        value
            .parse::<u64>()
            .map_err(|_| err(n, format!("{what} must be an integer, got {value:?}")))
    };
    // A value its field cannot hold is refused on its own line, never
    // truncated; a size in KiB must fit the field in bytes.
    let too_big =
        |what: &str, max: u64, v: u64| err(n, format!("{what} must be at most {max}, got {v}"));
    let small = |what: &str, max: u32| -> Result<u32, ConfigParseError> {
        let v = int(what)?;
        u32::try_from(v)
            .ok()
            .filter(|&x| x <= max)
            .ok_or_else(|| too_big(what, max.into(), v))
    };
    let count = |what: &str| -> Result<usize, ConfigParseError> {
        let v = int(what)?;
        usize::try_from(v).map_err(|_| too_big(what, usize::MAX as u64, v))
    };
    const MAX_KB: u32 = u32::MAX / 1024;
    match key {
        "issue_width" => cfg.issue_width = small("issue_width", u32::MAX)?,
        "l1.size_kb" => cfg.l1.size_bytes = small("l1.size_kb", MAX_KB)? * 1024,
        "l1.assoc" => cfg.l1.assoc = small("l1.assoc", u32::MAX)?,
        "l1.write_policy" => {
            cfg.l1.write_policy = value
                .parse::<L1WritePolicy>()
                .map_err(|_| err(n, format!("unknown L1 write policy {value:?}")))?;
        }
        "l2" => match value {
            "perfect" => l2.real = false,
            "real" => l2.real = true,
            _ => {
                return Err(err(
                    n,
                    format!("l2 must be `perfect` or `real`, got {value:?}"),
                ))
            }
        },
        "l2.latency" => l2.latency = int("l2.latency")?,
        "l2.size_kb" => l2.size_kb = small("l2.size_kb", MAX_KB)?,
        "l2.mm_latency" => l2.mm = int("l2.mm_latency")?,
        "icache" => {
            cfg.icache = if value == "perfect" {
                IcacheConfig::Perfect
            } else if let Some(rest) = value.strip_prefix("miss-every:") {
                IcacheConfig::MissEvery {
                    interval: rest
                        .parse()
                        .map_err(|_| err(n, format!("bad miss-every interval {rest:?}")))?,
                }
            } else {
                return Err(err(n, format!("unknown icache model {value:?}")));
            }
        }
        "wb.depth" => cfg.write_buffer.depth = count("wb.depth")?,
        "wb.width_words" => cfg.write_buffer.width_words = count("wb.width_words")?,
        "wb.order" => {
            cfg.write_buffer.order = value
                .parse::<RetirementOrder>()
                .map_err(|_| err(n, format!("unknown retirement order {value:?}")))?;
        }
        "wb.retirement" => {
            cfg.write_buffer.retirement = if let Some(rest) = value.strip_prefix("retire-at-") {
                RetirementPolicy::RetireAt(
                    rest.parse()
                        .map_err(|_| err(n, format!("bad retire-at high-water mark {rest:?}")))?,
                )
            } else if let Some(rest) = value.strip_prefix("fixed-rate-") {
                RetirementPolicy::FixedRate(
                    rest.parse()
                        .map_err(|_| err(n, format!("bad fixed-rate interval {rest:?}")))?,
                )
            } else {
                return Err(err(n, format!("unknown retirement policy {value:?}")));
            }
        }
        "wb.hazard" => {
            cfg.write_buffer.hazard = value
                .parse::<LoadHazardPolicy>()
                .map_err(|_| err(n, format!("unknown hazard policy {value:?}")))?;
        }
        "wb.priority" => {
            cfg.write_buffer.priority = if value == "read-bypass" {
                L2Priority::ReadBypass
            } else if let Some(rest) = value.strip_prefix("write-priority-above-") {
                L2Priority::WritePriorityAbove(
                    rest.parse()
                        .map_err(|_| err(n, format!("bad priority threshold {rest:?}")))?,
                )
            } else {
                return Err(err(n, format!("unknown L2 priority {value:?}")));
            }
        }
        "wb.max_age" => {
            cfg.write_buffer.max_age = if value == "none" {
                None
            } else {
                Some(int("wb.max_age")?)
            }
        }
        "wb.datapath" => {
            cfg.write_buffer.datapath = value
                .parse::<DatapathWidth>()
                .map_err(|_| err(n, format!("unknown datapath width {value:?}")))?;
        }
        _ => return Err(err(n, format!("unknown key {key:?}"))),
    }
    Ok(())
}

impl FromStr for MachineConfig {
    type Err = ConfigParseError;

    /// Parses a `.wbcfg` document via [`parse_machine_config`], reporting
    /// only the first failure (use `parse_machine_config` for all of them).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_machine_config(s).map_err(|mut e| e.0.remove(0))
    }
}

/// Serializes a configuration so that it parses back identically.
#[must_use]
pub fn to_config_string(cfg: &MachineConfig) -> String {
    let mut s = String::from("# wbsim machine configuration\n");
    let _ = writeln!(s, "issue_width = {}", cfg.issue_width);
    let _ = writeln!(s, "l1.size_kb = {}", cfg.l1.size_bytes / 1024);
    let _ = writeln!(s, "l1.assoc = {}", cfg.l1.assoc);
    let _ = writeln!(s, "l1.write_policy = {}", cfg.l1.write_policy.name());
    match cfg.l2 {
        L2Config::Perfect { latency } => {
            let _ = writeln!(s, "l2 = perfect");
            let _ = writeln!(s, "l2.latency = {latency}");
        }
        L2Config::Real {
            size_bytes,
            latency,
            mm_latency,
            ..
        } => {
            let _ = writeln!(s, "l2 = real");
            let _ = writeln!(s, "l2.latency = {latency}");
            let _ = writeln!(s, "l2.size_kb = {}", size_bytes / 1024);
            let _ = writeln!(s, "l2.mm_latency = {mm_latency}");
        }
    }
    match cfg.icache {
        IcacheConfig::Perfect => {
            let _ = writeln!(s, "icache = perfect");
        }
        IcacheConfig::MissEvery { interval } => {
            let _ = writeln!(s, "icache = miss-every:{interval}");
        }
    }
    let wb = &cfg.write_buffer;
    let _ = writeln!(s, "wb.depth = {}", wb.depth);
    let _ = writeln!(s, "wb.width_words = {}", wb.width_words);
    let _ = writeln!(s, "wb.order = {}", wb.order.name());
    let _ = writeln!(s, "wb.retirement = {}", wb.retirement);
    let _ = writeln!(s, "wb.hazard = {}", wb.hazard.name());
    let _ = writeln!(s, "wb.priority = {}", wb.priority);
    match wb.max_age {
        None => {
            let _ = writeln!(s, "wb.max_age = none");
        }
        Some(a) => {
            let _ = writeln!(s, "wb.max_age = {a}");
        }
    }
    let _ = writeln!(s, "wb.datapath = {}", wb.datapath.name());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_config_is_the_baseline() {
        let cfg: MachineConfig = "".parse().unwrap();
        let mut base = MachineConfig::baseline();
        base.check_data = cfg.check_data;
        assert_eq!(cfg, base);
    }

    #[test]
    fn parses_full_document_with_comments() {
        let doc = "\
# recommended configuration
wb.depth = 12          # deep
wb.retirement = retire-at-8
wb.hazard = read-from-wb

l2 = real
l2.size_kb = 512
l2.mm_latency = 50
l1.size_kb = 32
icache = miss-every:200
issue_width = 4
wb.max_age = 64
wb.datapath = half-line
wb.order = lru
wb.priority = write-priority-above-10
";
        let cfg: MachineConfig = doc.parse().unwrap();
        assert_eq!(cfg.write_buffer.depth, 12);
        assert_eq!(cfg.write_buffer.retirement, RetirementPolicy::RetireAt(8));
        assert_eq!(cfg.write_buffer.hazard, LoadHazardPolicy::ReadFromWb);
        assert_eq!(cfg.write_buffer.max_age, Some(64));
        assert_eq!(cfg.write_buffer.order, RetirementOrder::Lru);
        assert_eq!(
            cfg.write_buffer.priority,
            L2Priority::WritePriorityAbove(10)
        );
        assert_eq!(cfg.write_buffer.datapath, DatapathWidth::HalfLine);
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.issue_width, 4);
        assert_eq!(cfg.icache, IcacheConfig::MissEvery { interval: 200 });
        match cfg.l2 {
            L2Config::Real {
                size_bytes,
                mm_latency,
                ..
            } => {
                assert_eq!(size_bytes, 512 * 1024);
                assert_eq!(mm_latency, 50);
            }
            L2Config::Perfect { .. } => panic!("expected real L2"),
        }
    }

    #[test]
    fn roundtrips_every_shape() {
        for doc in [
            "",
            "wb.depth = 12\nwb.retirement = retire-at-8\nwb.hazard = read-from-wb",
            "l2 = real\nl2.size_kb = 128\nwb.retirement = fixed-rate-16",
            "l1.write_policy = write-back",
            "icache = miss-every:50\nwb.max_age = 256",
            "wb.order = lru\nwb.datapath = half-line",
            "wb.hazard = flush-full",
            "wb.hazard = flush-partial",
            "wb.hazard = flush-item-only",
        ] {
            let cfg: MachineConfig = doc.parse().unwrap();
            let text = to_config_string(&cfg);
            let back: MachineConfig = text.parse().unwrap();
            assert_eq!(back, cfg, "roundtrip failed for {doc:?}\n{text}");
        }
        let cfg: MachineConfig = "wb.hazard = flush-item-only\nwb.order = lru\n\
                                  wb.datapath = half-line\nl1.write_policy = write-back"
            .parse()
            .unwrap();
        assert_eq!(
            to_config_string(&cfg),
            "# wbsim machine configuration\n\
             issue_width = 1\n\
             l1.size_kb = 8\n\
             l1.assoc = 1\n\
             l1.write_policy = write-back\n\
             l2 = perfect\n\
             l2.latency = 6\n\
             icache = perfect\n\
             wb.depth = 4\n\
             wb.width_words = 4\n\
             wb.order = lru\n\
             wb.retirement = retire-at-2\n\
             wb.hazard = flush-item-only\n\
             wb.priority = read-bypass\n\
             wb.max_age = none\n\
             wb.datapath = half-line\n"
        );
    }

    /// Every spelling wbsim prints for a value (`Display`: `read-from-WB`,
    /// `FIFO`, …), its wire name and an upper-cased copy are all accepted
    /// in the key that takes the value.
    #[test]
    fn accepts_every_printed_spelling() {
        fn each<T: Copy + std::fmt::Display + PartialEq + std::fmt::Debug>(
            names: &[&str],
            from: fn(&str) -> Option<T>,
            key: &str,
            read: fn(&MachineConfig) -> T,
        ) {
            for name in names {
                let v = from(name).unwrap();
                for text in [v.to_string(), name.to_string(), name.to_ascii_uppercase()] {
                    let cfg = parse_machine_config(&format!("{key} = {text}"))
                        .unwrap_or_else(|e| panic!("{key} = {text}: {e}"));
                    assert_eq!(read(&cfg), v, "{key} = {text}");
                }
            }
        }
        each(
            LoadHazardPolicy::NAMES,
            LoadHazardPolicy::from_name,
            "wb.hazard",
            |c| c.write_buffer.hazard,
        );
        each(
            RetirementOrder::NAMES,
            RetirementOrder::from_name,
            "wb.order",
            |c| c.write_buffer.order,
        );
        each(
            DatapathWidth::NAMES,
            DatapathWidth::from_name,
            "wb.datapath",
            |c| c.write_buffer.datapath,
        );
        each(
            L1WritePolicy::NAMES,
            L1WritePolicy::from_name,
            "l1.write_policy",
            |c| c.l1.write_policy,
        );
        assert_eq!(LoadHazardPolicy::ReadFromWb.to_string(), "read-from-WB");
        assert_eq!(RetirementOrder::Fifo.to_string(), "FIFO");
        // The policies with a parameter print their own key syntax.
        for doc in [
            format!("wb.retirement = {}", RetirementPolicy::FixedRate(7)),
            format!("wb.priority = {}", L2Priority::WritePriorityAbove(3)),
        ] {
            assert!(parse_machine_config(&doc).is_ok(), "{doc}");
        }
        assert!(parse_machine_config("wb.hazard = read-from-WBX").is_err());
    }

    #[test]
    fn rejects_garbage_with_line_numbers() {
        let e = "wb.depth = 4\nnonsense"
            .parse::<MachineConfig>()
            .unwrap_err();
        assert_eq!(e.line, 2);
        let e = "wb.hazard = flush-everything"
            .parse::<MachineConfig>()
            .unwrap_err();
        assert!(e.message.contains("unknown hazard policy"));
        let e = "zz.depth = 4".parse::<MachineConfig>().unwrap_err();
        assert!(e.message.contains("unknown key"));
        let e = "wb.depth = four".parse::<MachineConfig>().unwrap_err();
        assert!(e.message.contains("integer"));
    }

    /// A value its field cannot hold is refused on its own line, never
    /// truncated: each of these once parsed as a small valid value (or,
    /// for the KiB sizes, overflowed the byte count).
    #[test]
    fn refuses_integers_their_field_cannot_hold() {
        for (line, max) in [
            ("issue_width = 4294967297", 4_294_967_295u64),
            ("l1.assoc = 4294967297", 4_294_967_295),
            ("l1.size_kb = 4294967304", 4_194_303),
            ("l1.size_kb = 4194304", 4_194_303),
            ("l2.size_kb = 4294967424", 4_194_303),
            ("l2.size_kb = 4194304", 4_194_303),
        ] {
            let errs = parse_machine_config(&format!("l2 = real\n{line}")).unwrap_err();
            let (key, value) = line.split_once(" = ").unwrap();
            assert_eq!(
                errs.0,
                [err(2, format!("{key} must be at most {max}, got {value}"))],
                "{line}"
            );
        }
        // The largest value that fits is read as written.
        let cfg = parse_machine_config("issue_width = 4294967295").unwrap();
        assert_eq!(cfg.issue_width, u32::MAX);
        let e = parse_machine_config("l1.size_kb = 4194303").unwrap_err();
        assert_eq!(e.0[0].line, 0, "the whole configuration is invalid: {e}");
    }

    #[test]
    fn invalid_configs_fail_validation() {
        // retire-at above depth
        let e = "wb.depth = 2\nwb.retirement = retire-at-8"
            .parse::<MachineConfig>()
            .unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("invalid configuration"));
    }

    #[test]
    fn error_display_mentions_line() {
        let e = err(3, "boom");
        assert_eq!(e.to_string(), "config line 3: boom");
    }

    #[test]
    fn aggregates_all_bad_lines_in_one_pass() {
        let doc = "\
wb.depth = four
wb.hazard = flush-everything
l1.size_kb = 16
zz.depth = 4
wb.order = lru
";
        let errs = parse_machine_config(doc).unwrap_err();
        assert_eq!(errs.0.len(), 3);
        assert_eq!(errs.0[0].line, 1);
        assert!(errs.0[0].message.contains("integer"));
        assert_eq!(errs.0[1].line, 2);
        assert!(errs.0[1].message.contains("unknown hazard policy"));
        assert_eq!(errs.0[2].line, 4);
        assert!(errs.0[2].message.contains("unknown key"));
        // The combined display lists one failure per line.
        assert_eq!(errs.to_string().lines().count(), 3);
        // FromStr reports only the first of them.
        let first = doc.parse::<MachineConfig>().unwrap_err();
        assert_eq!(first, errs.0[0]);
    }

    #[test]
    fn validation_runs_only_when_every_line_parsed() {
        // Both a bad line and a would-be validation failure: only the parse
        // error is reported, since the bad line may be the one that would
        // have fixed validation.
        let doc = "wb.depth = 2\nwb.retirement = retire-at-eight";
        let errs = parse_machine_config(doc).unwrap_err();
        assert_eq!(errs.0.len(), 1);
        assert_eq!(errs.0[0].line, 2);
        // With all lines parsing, validation failures surface as line 0.
        let errs = parse_machine_config("wb.depth = 2\nwb.retirement = retire-at-8").unwrap_err();
        assert_eq!(errs.0.len(), 1);
        assert_eq!(errs.0[0].line, 0);
        assert!(errs.0[0].message.contains("invalid configuration"));
    }
}
