//! Structured diagnostics for configuration linting.
//!
//! The design-space linter in `wbsim-check` and the file-config loader both
//! report problems as [`Diagnostic`] values: a stable machine-readable
//! `code`, a [`Severity`], the dotted path of the offending field, a
//! human-readable message, and an optional suggested fix. Diagnostics render
//! either as compiler-style text ([`Diagnostic::render`]) or as one JSON
//! object per line ([`Diagnostic::to_json`]) for tooling.
//!
//! # Example
//!
//! ```
//! use wbsim_types::diagnostics::{Diagnostic, Severity};
//!
//! let d = Diagnostic::new("LNT001", Severity::Warning, "wb.retirement")
//!     .with_message("retire-at mark equals depth: zero headroom")
//!     .with_suggestion("lower the high-water mark below wb.depth");
//! assert!(d.render().starts_with("warning[LNT001]"));
//! assert!(d.to_json().contains("\"code\":\"LNT001\""));
//! ```

/// How bad a diagnostic is.
///
/// `Error` diagnostics make `wbsim check` exit non-zero and make the
/// experiments harness refuse to run a sweep; the other two are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Noteworthy but harmless (e.g. an unusual but valid design point).
    Info,
    /// Likely a mistake; the run proceeds (e.g. zero-headroom buffer).
    Warning,
    /// The configuration is rejected (e.g. retire threshold above depth).
    Error,
}

impl Severity {
    /// Lower-case token used in both renders (`info`/`warning`/`error`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// One linter finding: a stable code, severity, field path, and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`CFG…` for validation errors shared
    /// with [`crate::config::ConfigError`], `LNT…` for advisory lint rules).
    pub code: &'static str,
    /// How bad this is.
    pub severity: Severity,
    /// Dotted path of the offending field in `.wbcfg` notation
    /// (e.g. `wb.retirement`), or a synthetic path like `grid` for
    /// findings about a whole sweep.
    pub field_path: String,
    /// Human-readable description of the problem.
    pub message: String,
    /// Suggested fix, if one is obvious.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Starts a diagnostic; message and suggestion are added with the
    /// builder methods.
    #[must_use]
    pub fn new(code: &'static str, severity: Severity, field_path: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            field_path: field_path.into(),
            message: String::new(),
            suggestion: None,
        }
    }

    /// Sets the human-readable message.
    #[must_use]
    pub fn with_message(mut self, message: impl Into<String>) -> Self {
        self.message = message.into();
        self
    }

    /// Sets the suggested fix.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Compiler-style one- or two-line text render:
    ///
    /// ```text
    /// warning[LNT001] wb.retirement: retire-at mark equals depth
    ///   help: lower the high-water mark below wb.depth
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}[{}] {}: {}",
            self.severity, self.code, self.field_path, self.message
        );
        if let Some(help) = &self.suggestion {
            s.push_str("\n  help: ");
            s.push_str(help);
        }
        s
    }

    /// One-line JSON object, suitable for JSONL output. Keys are emitted in
    /// a fixed order so the output is byte-stable.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        push_json_str(&mut s, "code", self.code);
        s.push(',');
        push_json_str(&mut s, "severity", self.severity.token());
        s.push(',');
        push_json_str(&mut s, "field_path", &self.field_path);
        s.push(',');
        push_json_str(&mut s, "message", &self.message);
        if let Some(help) = &self.suggestion {
            s.push(',');
            push_json_str(&mut s, "suggestion", help);
        }
        s.push('}');
        s
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Appends `"key":"value"` using the workspace's shared JSON escaper
/// ([`crate::json::escape`]), so diagnostics stay byte-identical with
/// every other emitter.
fn push_json_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&crate::json::escape(value));
}

/// True if any diagnostic in the slice is [`Severity::Error`].
#[must_use]
pub fn any_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// One entry in the unified diagnostic-code registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeEntry {
    /// The stable machine-readable code (`CFG003`, `PRP101`, …).
    pub code: &'static str,
    /// Which subsystem emits it.
    pub family: &'static str,
    /// One-line summary of what the code means.
    pub summary: &'static str,
}

/// Every stable diagnostic code any `wbsim` subsystem can emit, in code
/// order — the single source of truth the per-crate tables (the linter's
/// `RULES`, the property layer's `PRP…` emitters, the job layer's
/// manifest validation) are pinned against by test. Convention: a
/// three-letter uppercase family prefix plus three digits; the `x00`
/// block of each family is reserved for findings *about checked
/// artifacts* (grid-level lints, property verdicts) as opposed to
/// problems with the input itself.
pub static REGISTRY: &[CodeEntry] = &[
    CodeEntry {
        code: "CFG001",
        family: "config",
        summary: "a size that must be a power of two is not",
    },
    CodeEntry {
        code: "CFG002",
        family: "config",
        summary: "a parameter is zero or out of range",
    },
    CodeEntry {
        code: "CFG003",
        family: "config",
        summary: "retire-at mark exceeds the buffer depth",
    },
    CodeEntry {
        code: "CFG004",
        family: "config",
        summary: "line/word geometry is inconsistent",
    },
    CodeEntry {
        code: "CFG005",
        family: "config",
        summary: "a `.wbcfg` line failed to parse",
    },
    CodeEntry {
        code: "JOB001",
        family: "jobs",
        summary: "manifest is not a JSON object",
    },
    CodeEntry {
        code: "JOB002",
        family: "jobs",
        summary: "unknown manifest key",
    },
    CodeEntry {
        code: "JOB003",
        family: "jobs",
        summary: "manifest schema missing or mismatched",
    },
    CodeEntry {
        code: "JOB004",
        family: "jobs",
        summary: "job kind missing or unknown",
    },
    CodeEntry {
        code: "JOB005",
        family: "jobs",
        summary: "malformed job spec field",
    },
    CodeEntry {
        code: "JOB006",
        family: "jobs",
        summary: "malformed job options field",
    },
    CodeEntry {
        code: "JOB010",
        family: "jobs",
        summary: "no such paper table",
    },
    CodeEntry {
        code: "JOB011",
        family: "jobs",
        summary: "no such paper figure",
    },
    CodeEntry {
        code: "JOB012",
        family: "jobs",
        summary: "config file and override fields are mutually exclusive",
    },
    CodeEntry {
        code: "JOB013",
        family: "jobs",
        summary: "mshrs must be >= 1",
    },
    CodeEntry {
        code: "JOB014",
        family: "jobs",
        summary: "bench samples must be >= 1",
    },
    CodeEntry {
        code: "JOB015",
        family: "jobs",
        summary: "unknown benchmark model",
    },
    CodeEntry {
        code: "JOB016",
        family: "jobs",
        summary: "trace job is missing its configuration text",
    },
    CodeEntry {
        code: "JOB017",
        family: "jobs",
        summary: "instruction budget must be >= 1",
    },
    CodeEntry {
        code: "JOB018",
        family: "jobs",
        summary: "an exhaustive check's max_ops must be >= 1",
    },
    CodeEntry {
        code: "JOB020",
        family: "jobs",
        summary: "job execution panicked; worker recovered",
    },
    CodeEntry {
        code: "LNT001",
        family: "lint",
        summary: "zero headroom: retire-at mark equals depth",
    },
    CodeEntry {
        code: "LNT002",
        family: "lint",
        summary: "retire-at-1 defeats coalescing",
    },
    CodeEntry {
        code: "LNT003",
        family: "lint",
        summary: "L2 latency ≤ L1 hit latency",
    },
    CodeEntry {
        code: "LNT004",
        family: "lint",
        summary: "buffer depth beyond the paper's studied range",
    },
    CodeEntry {
        code: "LNT005",
        family: "lint",
        summary: "write-priority threshold exceeds depth",
    },
    CodeEntry {
        code: "LNT006",
        family: "lint",
        summary: "more MSHRs than write-buffer entries",
    },
    CodeEntry {
        code: "LNT007",
        family: "lint",
        summary: "statistical icache silently disables the fast-engine op lane",
    },
    CodeEntry {
        code: "LNT100",
        family: "lint",
        summary: "sweep grid collapses to a single point",
    },
    CodeEntry {
        code: "LNT101",
        family: "lint",
        summary: "sweep mixes read-from-WB with flush policies",
    },
    CodeEntry {
        code: "LNT102",
        family: "lint",
        summary: "duplicate configuration labels in a sweep",
    },
    CodeEntry {
        code: "PRP001",
        family: "props",
        summary: "property syntax error",
    },
    CodeEntry {
        code: "PRP002",
        family: "props",
        summary: "unknown event tag",
    },
    CodeEntry {
        code: "PRP003",
        family: "props",
        summary: "unknown field for this event tag",
    },
    CodeEntry {
        code: "PRP004",
        family: "props",
        summary: "type or operator mismatch in a constraint",
    },
    CodeEntry {
        code: "PRP005",
        family: "props",
        summary: "duplicate property name",
    },
    CodeEntry {
        code: "PRP006",
        family: "props",
        summary: "unknown token for a closed-set field",
    },
    CodeEntry {
        code: "PRP007",
        family: "props",
        summary: "unbound parameter or unknown where-clause symbol",
    },
    CodeEntry {
        code: "PRP008",
        family: "props",
        summary: "property has no body, or the file has no properties",
    },
    CodeEntry {
        code: "PRP100",
        family: "props",
        summary: "safety property violated",
    },
    CodeEntry {
        code: "PRP101",
        family: "props",
        summary: "liveness property violated (obligation never discharges)",
    },
    CodeEntry {
        code: "RCH001",
        family: "reach",
        summary: "a safety invariant fails at a reachable state",
    },
    CodeEntry {
        code: "RCH002",
        family: "reach",
        summary: "livelock: buffered stores can never all retire",
    },
    CodeEntry {
        code: "RCH003",
        family: "reach",
        summary: "configuration outside the abstractable class",
    },
    CodeEntry {
        code: "REF001",
        family: "refine",
        summary: "counterexample stream line is not a JSON object",
    },
    CodeEntry {
        code: "REF002",
        family: "refine",
        summary: "counterexample stream line is not a decodable event",
    },
    CodeEntry {
        code: "REF100",
        family: "refine",
        summary: "claimed skip horizon overshoots a pending event",
    },
    CodeEntry {
        code: "REF101",
        family: "refine",
        summary: "fast lane batches across a retirement boundary",
    },
    CodeEntry {
        code: "REF102",
        family: "refine",
        summary: "engines diverge outside any claimed skip span",
    },
    CodeEntry {
        code: "SCH001",
        family: "sched",
        summary: "schedule file line is malformed",
    },
    CodeEntry {
        code: "SCH002",
        family: "sched",
        summary: "schedule header names an unknown harness or fault",
    },
    CodeEntry {
        code: "SCH003",
        family: "sched",
        summary: "schedule does not replay to its recorded verdict",
    },
    CodeEntry {
        code: "SCH004",
        family: "sched",
        summary: "interleaving exploration budget exceeded",
    },
    CodeEntry {
        code: "SCH100",
        family: "sched",
        summary: "safety invariant violated under some interleaving",
    },
    CodeEntry {
        code: "SCH101",
        family: "sched",
        summary: "deadlock: no thread can make progress",
    },
    CodeEntry {
        code: "SCH102",
        family: "sched",
        summary: "liveness violated: lost wakeup or job never terminal",
    },
];

/// Looks up a code in [`REGISTRY`].
#[must_use]
pub fn registry_entry(code: &str) -> Option<&'static CodeEntry> {
    REGISTRY.iter().find(|e| e.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::new("LNT001", Severity::Warning, "wb.retirement")
            .with_message("retire-at mark equals depth: zero headroom")
            .with_suggestion("lower the high-water mark below wb.depth")
    }

    #[test]
    fn severity_ordering_puts_error_last() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn render_is_compiler_style() {
        let d = sample();
        let text = d.render();
        assert!(text.starts_with("warning[LNT001] wb.retirement: "));
        assert!(text.contains("\n  help: lower"));
        // No suggestion: single line.
        let d = Diagnostic::new("CFG002", Severity::Error, "wb.depth").with_message("depth is 0");
        assert_eq!(d.render(), "error[CFG002] wb.depth: depth is 0");
        assert_eq!(d.to_string(), d.render());
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let d = sample();
        assert_eq!(
            d.to_json(),
            "{\"code\":\"LNT001\",\"severity\":\"warning\",\
             \"field_path\":\"wb.retirement\",\
             \"message\":\"retire-at mark equals depth: zero headroom\",\
             \"suggestion\":\"lower the high-water mark below wb.depth\"}"
        );
        let tricky = Diagnostic::new("CFG001", Severity::Error, "p")
            .with_message("got \"x\\y\"\nand a\ttab");
        assert!(tricky
            .to_json()
            .contains("got \\\"x\\\\y\\\"\\nand a\\ttab"));
    }

    #[test]
    fn registry_codes_are_unique_sorted_and_follow_the_convention() {
        for pair in REGISTRY.windows(2) {
            assert!(
                pair[0].code < pair[1].code,
                "{} must sort before {}",
                pair[0].code,
                pair[1].code
            );
        }
        let families = [
            ("CFG", "config"),
            ("LNT", "lint"),
            ("RCH", "reach"),
            ("REF", "refine"),
            ("JOB", "jobs"),
            ("PRP", "props"),
            ("SCH", "sched"),
        ];
        for e in REGISTRY {
            let bytes = e.code.as_bytes();
            assert_eq!(e.code.len(), 6, "{}", e.code);
            assert!(
                bytes[..3].iter().all(u8::is_ascii_uppercase)
                    && bytes[3..].iter().all(u8::is_ascii_digit),
                "{} must be three uppercase letters plus three digits",
                e.code
            );
            let family = families
                .iter()
                .find(|(prefix, _)| e.code.starts_with(prefix))
                .unwrap_or_else(|| panic!("{} has an unregistered prefix", e.code));
            assert_eq!(e.family, family.1, "{}", e.code);
            assert!(!e.summary.is_empty());
        }
        assert_eq!(registry_entry("RCH002").map(|e| e.family), Some("reach"));
        assert_eq!(registry_entry("XXX999"), None);
    }

    #[test]
    fn any_errors_detects_only_error_severity() {
        let mut ds = vec![
            Diagnostic::new("LNT001", Severity::Info, "a"),
            Diagnostic::new("LNT002", Severity::Warning, "b"),
        ];
        assert!(!any_errors(&ds));
        ds.push(Diagnostic::new("CFG002", Severity::Error, "c"));
        assert!(any_errors(&ds));
    }
}
