//! Minimal flag parsing (`--key value` pairs plus positionals).

use std::collections::HashMap;
use std::fmt;

/// A parsed command line: positional arguments and `--key value` options.
#[derive(Debug, Default)]
pub struct Parsed {
    pub positionals: Vec<String>,
    pub options: HashMap<String, String>,
    pub flags: Vec<String>,
}

/// An argument error with a human-readable message.
#[derive(Debug)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Boolean flags recognized without a value.
const BOOL_FLAGS: &[&str] = &[
    "csv",
    "binary",
    "check-data",
    "ideal",
    "exhaustive",
    "reach",
    "refine",
    "sched",
    "json",
];
// note: --svg takes a directory value, so it is not listed here.

/// Flags whose value is optional: given bare (or followed by another
/// flag), the listed default value is recorded instead.
const OPTIONAL_VALUE_FLAGS: &[(&str, &str)] = &[("prop", "builtin")];

/// Splits `argv` into positionals, `--key value` options, and bare flags.
pub fn parse(argv: &[String]) -> Result<Parsed, ArgError> {
    let mut p = Parsed::default();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if let Some(key) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&key) {
                p.flags.push(key.to_string());
                i += 1;
            } else if let Some((_, default)) = OPTIONAL_VALUE_FLAGS
                .iter()
                .find(|(k, _)| *k == key)
                .filter(|_| argv.get(i + 1).is_none_or(|v| v.starts_with("--")))
            {
                p.options.insert(key.to_string(), (*default).to_string());
                i += 1;
            } else {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| ArgError(format!("--{key} requires a value")))?;
                p.options.insert(key.to_string(), value.clone());
                i += 2;
            }
        } else {
            p.positionals.push(a.clone());
            i += 1;
        }
    }
    Ok(p)
}

impl Parsed {
    /// Returns option `key` parsed as `T`, or `None` when absent.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.options
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| ArgError(format!("invalid value for --{key}: {v:?}")))
            })
            .transpose()
    }

    /// Returns option `key` parsed as `T`, or `default` when absent.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// Whether the bare flag `key` was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_options_and_flags() {
        let p = parse(&v(&["figure", "4", "--instructions", "5000", "--csv"])).unwrap();
        assert_eq!(p.positionals, vec!["figure", "4"]);
        assert_eq!(p.options["instructions"], "5000");
        assert!(p.has_flag("csv"));
        assert_eq!(p.get_or("instructions", 0u64).unwrap(), 5000);
        assert_eq!(p.get_or("seed", 42u64).unwrap(), 42);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&v(&["run", "--bench"])).is_err());
    }

    #[test]
    fn prop_takes_an_optional_value() {
        // Bare, trailing, and followed by another flag → the built-in set.
        let p = parse(&v(&["check", "--prop"])).unwrap();
        assert_eq!(p.options["prop"], "builtin");
        let p = parse(&v(&["check", "--prop", "--json"])).unwrap();
        assert_eq!(p.options["prop"], "builtin");
        assert!(p.has_flag("json"));
        // With a value → the file path.
        let p = parse(&v(&["check", "--prop", "my.wbp"])).unwrap();
        assert_eq!(p.options["prop"], "my.wbp");
    }

    #[test]
    fn bad_numeric_value_is_an_error() {
        let p = parse(&v(&["--instructions", "many"])).unwrap();
        assert!(p.get_or("instructions", 0u64).is_err());
    }
}
