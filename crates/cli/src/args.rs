//! The option table and the parser it drives. Every command (and every
//! `trace` subcommand) declares each option it reads exactly once, as one
//! [`Opt`] row; parsing, `wbsim help` and the sweep keys derive from it.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;

use wbsim_types::wire::or_list;

use crate::commands::CmdResult;
use table::COMMANDS;

/// One option: `--name METAVAR`, or a bare flag when `metavar` is `None`.
/// A bracketed metavar (`[FILE]`) makes the value optional: given bare,
/// the option takes its default.
#[derive(Debug, Clone, Copy)]
pub struct Opt {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// The value's placeholder in help; `None` for a bare flag.
    pub metavar: Option<&'static str>,
    /// The value a run without the option uses, where it is a constant.
    pub default: Option<&'static str>,
    /// One help line.
    pub help: &'static str,
    /// Wire-name tables whose names end the help line (`a, b or c`).
    pub choices: &'static [&'static [&'static str]],
    /// `check` only: the `CheckSpec` manifest fields the option sets.
    pub fields: &'static [&'static str],
}

/// Options several commands share, listed once in help under `title`.
#[derive(Debug)]
pub struct Group {
    pub title: &'static str,
    pub opts: &'static [Opt],
}

/// A command (`trace` subcommands by both words), every option it reads,
/// and the function that runs it.
#[derive(Debug)]
pub struct Command {
    pub name: &'static str,
    /// Its positional arguments, as help shows them.
    pub args: &'static str,
    pub run: fn(&Parsed) -> CmdResult,
    pub about: &'static str,
    pub opts: &'static [Opt],
    pub shared: &'static [&'static Group],
}

impl Command {
    /// Every option the command declares: its own, then the shared groups'.
    pub fn all_opts(&self) -> impl Iterator<Item = &'static Opt> + '_ {
        let shared = self.shared.iter().flat_map(|g| g.opts.iter());
        self.opts.iter().chain(shared)
    }
}

// The table and its row constructors are plain data, one row per line.
#[rustfmt::skip]
mod table {
    use super::{Command, Group, Opt, Parsed};
    use crate::commands::*;
    use wbsim_jobs::sched::SchedFault;
    use wbsim_jobs::MachineSel;
    use wbsim_types::{FaultInjection, LoadHazardPolicy};

    const fn flag(name: &'static str, help: &'static str) -> Opt {
        Opt { name, metavar: None, default: None, help, choices: &[], fields: &[] }
    }

    /// A valued option; an empty `default` means there is no constant one.
    const fn opt(name: &'static str, meta: &'static str, default: &'static str,
                 help: &'static str) -> Opt {
        let default = if default.is_empty() { None } else { Some(default) };
        Opt { metavar: Some(meta), default, ..flag(name, help) }
    }

    impl Opt {
        const fn sets(self, fields: &'static [&'static str]) -> Opt {
            Opt { fields, ..self }
        }

        const fn choices(self, choices: &'static [&'static [&'static str]]) -> Opt {
            Opt { choices, ..self }
        }
    }

    const fn cmd(name: &'static str, args: &'static str, run: fn(&Parsed) -> CmdResult,
                 about: &'static str, opts: &'static [Opt], shared: &'static [&'static Group])
                 -> Command {
        Command { name, args, run, about, opts, shared }
    }

    const BENCH: Opt = opt("bench", "NAME", "", "benchmark model (see `wbsim list`)");
    const CHECK_DATA: Opt = flag("check-data", "verify every load against the functional model");
    const JOBS: Opt = opt("jobs", "N", "0", "worker threads (0: one per core)");
    const MSHRS: Opt = opt("mshrs", "N", "0", "non-blocking machine with N MSHRs (0: blocking)");
    const PROP: Opt = opt("prop", "[FILE.wbp]", "builtin", "temporal properties");
    const HAZARD: Opt = opt("hazard", "P", LoadHazardPolicy::FlushFull.name(), "")
        .choices(&[LoadHazardPolicy::NAMES]);
    const TRACE_OUT: Opt = opt("out", "FILE", "", "the trace file");
    const BINARY: Opt = flag("binary", "binary codec");

    pub static WORKLOAD: Group = Group { title: "workload", opts: &[
        opt("instructions", "N", "1000000", "measured instructions per benchmark"),
        opt("seed", "S", "42", "workload seed"),
    ] };

    pub static MEASURE: Group = Group { title: "measurement", opts: &[
        opt("warmup", "N", "", "instructions before measuring (default: --instructions / 3)"),
        JOBS,
        CHECK_DATA,
    ] };

    /// The machine configuration; every row after `config` is a sweep key.
    pub static CONFIG: Group = Group { title: "configuration", opts: &[
        opt("config", "FILE.wbcfg", "", "start from this file; the flags below apply on top"),
        opt("depth", "N", "4", "write-buffer depth"),
        opt("retire-at", "N", "2", "occupancy at which retirement starts"),
        HAZARD,
        opt("l1-kb", "N", "8", "L1 size in KiB"),
        opt("l2-latency", "N", "6", "L2 latency in cycles"),
        opt("l2-kb", "N", "", "switch to a real L2 of N KiB (default: a perfect L2)"),
        opt("mm", "N", "25", "main-memory latency of a real L2"),
        opt("issue", "W", "1", "issue width"),
    ] };

    const SWEEP: &[&Group] = &[&WORKLOAD, &MEASURE];
    const SWEEP_CONFIG: &[&Group] = &[&WORKLOAD, &MEASURE, &CONFIG];

    /// Every command, in help order.
    pub static COMMANDS: &[Command] = &[
        cmd("figure", "<3..13|all>", cmd_figure, "regenerate a paper figure as text bars", &[
            flag("csv", "print CSV instead"),
            opt("svg", "DIR", "", "write one SVG chart per figure into DIR instead"),
        ], SWEEP),
        cmd("table", "<1..7|wb|all>", cmd_table, "regenerate a paper table", &[], SWEEP),
        cmd("ablation", "<ID|all>", cmd_ablation, "run an ablation (IDs below)", &[], SWEEP),
        cmd("run", "", cmd_run, "run one benchmark on one configuration", &[
            BENCH,
            opt("seeds", "N", "1", "repeat over N workload seeds; print mean and sd"),
            opt("barrier-every", "N", "0", "insert a write barrier every N stores (0: none)"),
            MSHRS,
            flag("ideal", "run the perfect-buffer lower bound (paper 2.3)"),
        ], SWEEP_CONFIG),
        cmd("predict", "", cmd_predict, "the analytic model's prediction next to a simulation",
            &[BENCH, CHECK_DATA], &[&WORKLOAD, &CONFIG]),
        cmd("sweep", "", cmd_sweep, "vary one configuration option, one row per value", &[
            BENCH,
            opt("param", "KEY=V1,V2,...", "", "the option and its values"),
        ], SWEEP_CONFIG),
        cmd("grid", "", cmd_grid, "vary two configuration options; total-stall matrix", &[
            BENCH,
            opt("x", "KEY=V1,V2,...", "", "the option across"),
            opt("y", "KEY=V1,V2,...", "", "the option down"),
        ], SWEEP_CONFIG),
        cmd("report", "", cmd_report, "every table, figure and ablation as one Markdown file",
            &[opt("out", "FILE.md", "", "write to FILE.md, not stdout")], SWEEP),
        cmd("trace gen", "", cmd_trace, "write a benchmark's op stream to a trace file",
            &[BENCH, TRACE_OUT, BINARY], &[&WORKLOAD]),
        cmd("trace synth", "", cmd_trace, "write a custom mixed workload to a trace file", &[
            TRACE_OUT,
            opt("loads", "F", "0.25", "fraction of instructions that load"),
            opt("stores", "F", "0.10", "fraction of instructions that store"),
            opt("hazard-loads", "F", "0.01", "fraction of loads that hit a buffered store"),
            opt("hot", "F", "0.80", "fraction of loads to the hot region"),
            opt("stream", "F", "0.10", "fraction of loads that stream"),
            opt("seq", "F", "0.50", "fraction of stores in sequential runs"),
            opt("run-words", "N", "8", "words per sequential store run"),
            opt("burst", "N", "1", "stores per burst"),
            opt("revisit", "F", "0.40", "fraction of stores that revisit a recent line"),
            opt("region-kb", "N", "64", "footprint in KiB"),
            BINARY,
        ], &[&WORKLOAD]),
        cmd("trace stats", "<FILE>", cmd_trace, "a trace file's loads, stores and runs", &[], &[]),
        cmd("trace run", "<FILE>", cmd_trace, "replay a trace file through a configuration",
            &[CHECK_DATA], &[&CONFIG]),
        cmd("trace events", "", cmd_trace, "run and drain a benchmark, one JSON line per event", &[
            BENCH,
            opt("out", "FILE", "", "write to FILE instead of stdout"),
            MSHRS,
            CHECK_DATA,
        ], &[&WORKLOAD, &CONFIG]),
        cmd("trace validate", "<FILE.jsonl|->", cmd_trace, "re-parse an event stream (-: stdin)", &[
            PROP,
            opt("machine", "M", "", "bind `machine`: ").choices(&[MachineSel::NAMES]),
            opt("depth", "N", "", "bind `depth`"),
            opt("mshrs", "N", "", "bind `mshrs` (at least 1)"),
            opt("hazard", "P", "", "bind `hazard`"),
        ], &[]),
        cmd("trace diff", "<A.jsonl|-> <B.jsonl|->", cmd_trace, "first differing event", &[], &[]),
        cmd("check", "", cmd_check, "lint a configuration, then run each selected pass in turn", &[
            opt("config", "FILE.wbcfg", "", "lint this file as written").sets(&["config"]),
            opt("depth", "N", "4", "write-buffer depth").sets(&["depth"]),
            opt("retire-at", "N", "2", "occupancy at which retirement starts").sets(&["retire_at"]),
            HAZARD.sets(&["hazard"]),
            flag("exhaustive", "bounded exhaustive model check").sets(&["exhaustive"]),
            flag("reach", "unbounded reachability, with livelock analysis").sets(&["reach"]),
            PROP.sets(&["props", "props_file"]),
            flag("refine", "event-driven vs reference engine refinement").sets(&["refine"]),
            flag("sched", "every host-thread interleaving within the bound").sets(&["sched"]),
            opt("machine", "M", MachineSel::Blocking.name(), "").choices(&[MachineSel::NAMES])
                .sets(&["machine"]),
            opt("mshrs", "N", "", "pin one MSHR count (default: 1-4)").sets(&["mshrs"]),
            opt("max-ops", "N", "5", "--exhaustive's longest op sequence").sets(&["max_ops"]),
            opt("fault", "F", "", "inject ").choices(&[FaultInjection::NAMES, SchedFault::NAMES])
                .sets(&["fault", "sched_fault"]),
            opt("preemptions", "N", "2", "--sched's preemption bound").sets(&["sched_preemptions"]),
            opt("out", "FILE", "", "the first failing pass's counterexample (-: stdout)"),
            opt("replay", "FILE", "", "with --sched alone: re-execute a recorded schedule"),
            JOBS,
            flag("json", "print one JSON document instead of the report"),
        ], &[]),
        cmd("bench", "", cmd_bench, "measure both engines' cells/s over the table-7 grid", &[
            opt("samples", "N", "3", "grid passes per engine"),
            opt("warmup", "N", "", "warmup per cell (default: 30% of --instructions)"),
            flag("json", "print the snapshot as JSON"),
            opt("out", "FILE.json", "", "write the snapshot to FILE.json"),
            opt("check", "BASELINE.json", "", "fail if mean or p99 cells/s regressed"),
            opt("tolerance", "PCT", "20", "--check's allowed regression"),
        ], &[&WORKLOAD]),
        cmd("serve", "", cmd_serve, "run the job daemon (docs/serving.md)", &[
            opt("addr", "HOST:PORT", wbsim_jobs::DEFAULT_ADDR, "listen address (port 0: any)"),
            opt("workers", "N", "2", "jobs run at once"),
        ], &[]),
        cmd("list", "", cmd_list, "list the benchmark models", &[], &[]),
        cmd("help", "", cmd_help, "print this reference (also `wbsim --help`)", &[], &[]),
    ];
}

/// The keys `sweep --param` and `grid --x/--y` vary.
pub fn sweep_keys() -> impl Iterator<Item = &'static str> {
    table::CONFIG.opts[1..].iter().map(|o| o.name)
}

/// A parsed command line: the command, its positionals (the command's
/// own words first) and the options given.
#[derive(Debug, Clone)]
pub struct Parsed {
    pub command: &'static Command,
    pub positionals: Vec<String>,
    given: HashMap<&'static str, String>,
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

/// Parses `argv` against the command it names: an option that command
/// does not declare is an error naming the nearest one it does.
pub fn parse(argv: &[String]) -> Result<Parsed, ArgError> {
    let trace = argv.first().is_some_and(|a| a == "trace");
    let words = argv.len().min(1 + usize::from(trace));
    let name = match argv[..words].join(" ") {
        n if n.is_empty() || n == "--help" => "help".to_string(),
        n => n,
    };
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(ArgError(format!("unknown command {name:?}")));
    };
    let (mut positionals, mut given) = (argv[..words].to_vec(), HashMap::new());
    let mut rest = argv[words..].iter().peekable();
    while let Some(a) = rest.next() {
        let Some(key) = a.strip_prefix("--") else {
            positionals.push(a.clone());
            continue;
        };
        let Some(o) = command.all_opts().find(|o| o.name == key) else {
            let near = command.all_opts().min_by_key(|o| distance(key, o.name));
            let hint = near.map_or("it takes none".into(), |o| {
                format!("did you mean --{}?", o.name)
            });
            return Err(ArgError(format!("{name} has no option --{key} ({hint})")));
        };
        let missing = || ArgError(format!("--{key} requires a value"));
        let bare = rest.peek().is_none_or(|v| v.starts_with("--"));
        let value = match (o.metavar, o.default) {
            (None, _) => String::new(),
            (Some(m), Some(default)) if m.starts_with('[') && bare => default.into(),
            _ => rest.next().cloned().ok_or_else(missing)?,
        };
        if given.insert(o.name, value).is_some() {
            return Err(ArgError(format!("{name}: --{key} is given twice")));
        }
    }
    Ok(Parsed {
        command,
        positionals,
        given,
    })
}

/// Edit distance from `typed` to `name` or to `name`'s start, whichever
/// is closer, so `--instrs` lands on `--instructions`.
fn distance(typed: &str, name: &str) -> usize {
    let lev = |b: &[char]| {
        let mut row: Vec<usize> = (0..=b.len()).collect();
        for (i, ca) in typed.chars().enumerate() {
            let mut diag = std::mem::replace(&mut row[0], i + 1);
            for (j, &cb) in b.iter().enumerate() {
                let next = (diag + usize::from(ca != cb)).min(row[j].min(row[j + 1]) + 1);
                diag = std::mem::replace(&mut row[j + 1], next);
            }
        }
        row[b.len()]
    };
    let name: Vec<char> = name.chars().collect();
    lev(&name).min(lev(&name[..name.len().min(typed.chars().count())]))
}

impl Parsed {
    fn row(&self, key: &str) -> Option<&'static Opt> {
        let row = self.command.all_opts().find(|o| o.name == key);
        debug_assert!(row.is_some(), "{}: no row for --{key}", self.command.name);
        row
    }

    /// Whether option or flag `key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.value(key).is_some()
    }

    /// The value given for `key` (empty for a bare flag), if any.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.row(key);
        self.given.get(key).map(String::as_str)
    }

    /// The value given for `key`, or an error saying the command needs it.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        let meta = self.row(key).and_then(|o| o.metavar).unwrap_or_default();
        let msg = || ArgError(format!("{}: --{key} {meta} is required", self.command.name));
        self.value(key).ok_or_else(msg)
    }

    /// Option `key` parsed as `T`, or `None` when absent.
    pub fn get<T: FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.value(key)
            .map(|v| self.parse_value(key, v))
            .transpose()
    }

    /// Option `key` parsed as `T`: the value given, else the table's default.
    pub fn get_or_default<T: FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let v = self.value(key).or(self.row(key).and_then(|o| o.default));
        self.parse_value(key, v.expect("a row with a default"))
    }

    /// `v` parsed as `T`; the error names the option and, when its row
    /// lists choices, them.
    fn parse_value<T: FromStr>(&self, key: &str, v: &str) -> Result<T, ArgError> {
        v.parse().map_err(|_| {
            let choices: Vec<&str> = self
                .row(key)
                .into_iter()
                .flat_map(|o| o.choices.iter().flat_map(|c| c.iter().copied()))
                .collect();
            let expected = match choices.as_slice() {
                [] => String::new(),
                names => format!(", expected {}", or_list(names, " or ")),
            };
            ArgError(format!("invalid value for --{key}: {v:?}{expected}"))
        })
    }

    /// A copy with `key` set to `value` (one cell of a sweep).
    pub fn with(&self, key: &'static str, value: &str) -> Parsed {
        let mut cell = self.clone();
        cell.row(key);
        cell.given.insert(key, value.to_string());
        cell
    }
}

/// `wbsim help`: every command with its own options, then each shared
/// group's options once.
pub fn help() -> String {
    let mut s = "wbsim — reproduction of 'Design Issues and Tradeoffs for Write Buffers' \
                 (HPCA 1997)\n\nUSAGE: wbsim <command> [options]\n"
        .to_string();
    let mut groups: Vec<&Group> = Vec::new();
    for c in COMMANDS {
        let _ = write!(s, "\n{}", format!("wbsim {} {}", c.name, c.args).trim_end());
        for g in c.shared {
            let _ = write!(s, " [{} options]", g.title);
            if !groups.iter().any(|x| std::ptr::eq(*x, *g)) {
                groups.push(g);
            }
        }
        let _ = writeln!(s, "\n  {}", c.about);
        rows(&mut s, c.opts);
    }
    for g in groups {
        let _ = writeln!(s, "\n{} options:", g.title);
        rows(&mut s, g.opts);
    }
    s
}

fn rows(s: &mut String, opts: &[Opt]) {
    for o in opts {
        let meta = o.metavar.map(|m| format!(" {m}")).unwrap_or_default();
        let default = o.default.map(|d| format!(" (default {d})"));
        let spec = (!o.fields.is_empty()).then(|| format!(" [spec: {}]", o.fields.join(", ")));
        let (default, spec) = (default.unwrap_or_default(), spec.unwrap_or_default());
        let flag = format!("--{}{meta}", o.name);
        let choices: Vec<&str> = o.choices.iter().flat_map(|c| c.iter().copied()).collect();
        let help = format!("{}{}", o.help, or_list(&choices, " or "));
        let _ = writeln!(s, "  {flag:<28}{help}{default}{spec}");
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
        assert_eq!(p.value("instructions"), Some("5000"));
        assert!(p.has("csv"));
        assert_eq!(p.get_or_default::<u64>("instructions").unwrap(), 5000);
        assert_eq!(p.get_or_default::<u64>("seed").unwrap(), 42);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&v(&["run", "--bench"])).is_err());
    }

    /// A second occurrence is refused by name, never silently overwrites
    /// the first: flags and valued options alike.
    #[test]
    fn a_repeated_option_is_an_error() {
        for argv in [
            &[
                "check",
                "--depth",
                "12",
                "--depth",
                "4",
                "--retire-at",
                "12",
            ][..],
            &["check", "--json", "--reach", "--json"][..],
            &["check", "--prop", "--prop", "my.wbp"][..],
        ] {
            let err = parse(&v(argv)).map(|_| ()).unwrap_err();
            let twice = argv[1].to_string() + " is given twice";
            assert!(err.0.contains(&twice), "{argv:?}: {}", err.0);
        }
    }

    #[test]
    fn prop_takes_an_optional_value() {
        // Bare, trailing, and followed by another flag → the built-in set.
        let p = parse(&v(&["check", "--prop"])).unwrap();
        assert_eq!(p.value("prop"), Some("builtin"));
        let p = parse(&v(&["check", "--prop", "--json"])).unwrap();
        assert_eq!(p.value("prop"), Some("builtin"));
        assert!(p.has("json"));
        // With a value → the file path.
        let p = parse(&v(&["check", "--prop", "my.wbp"])).unwrap();
        assert_eq!(p.value("prop"), Some("my.wbp"));
    }

    #[test]
    fn bad_numeric_value_is_an_error() {
        let p = parse(&v(&["figure", "3", "--instructions", "many"])).unwrap();
        assert!(p.get_or_default::<u64>("instructions").is_err());
    }

    /// Every command refuses an option it does not declare.
    #[test]
    fn every_command_refuses_an_undeclared_option() {
        for c in COMMANDS {
            let mut argv: Vec<&str> = c.name.split(' ').collect();
            argv.push("--no-such-option");
            let err = parse(&v(&argv)).unwrap_err().to_string();
            assert!(
                err.contains("no option --no-such-option"),
                "{}: {err}",
                c.name
            );
        }
    }

    /// A misspelt option is refused before anything runs, naming the
    /// nearest option the command declares.
    #[test]
    fn a_typo_names_the_nearest_option() {
        for (argv, near) in [
            (
                &["run", "--bench", "compress", "--dpeth", "12"][..],
                "--depth",
            ),
            (&["table", "6", "--instrs", "2000"], "--instructions"),
            (&["check", "--exhuastive"], "--exhaustive"),
            (&["sweep", "--bench", "li", "--parm", "depth=2"], "--param"),
        ] {
            let err = parse(&v(argv)).unwrap_err().to_string();
            assert!(
                err.contains(&format!("did you mean {near}")),
                "{argv:?}: {err}"
            );
        }
    }

    #[test]
    fn help_lists_every_command_and_option() {
        for argv in [&[][..], &["help"], &["--help"]] {
            assert_eq!(parse(&v(argv)).unwrap().command.name, "help");
        }
        let text = help();
        for c in COMMANDS {
            assert!(text.contains(&format!("\nwbsim {}", c.name)), "{}", c.name);
            for o in c.all_opts() {
                assert!(text.contains(&format!("  --{}", o.name)), "--{}", o.name);
            }
        }
    }

    #[test]
    fn no_command_declares_an_option_twice() {
        for c in COMMANDS {
            let names: Vec<&str> = c.all_opts().map(|o| o.name).collect();
            for (i, n) in names.iter().enumerate() {
                assert!(!names[..i].contains(n), "{} declares --{n} twice", c.name);
            }
        }
    }

    /// `docs/cli.md` and the table agree both ways: the page mentions every
    /// declared option, and every `--flag` it names is declared.
    #[test]
    fn cli_doc_names_exactly_the_declared_options() {
        let doc = include_str!("../../../docs/cli.md");
        let declared: Vec<&str> = COMMANDS
            .iter()
            .flat_map(|c| c.all_opts().map(|o| o.name))
            .collect();
        for name in &declared {
            assert!(
                doc.contains(&format!("--{name}")),
                "docs/cli.md lacks --{name}"
            );
        }
        for (i, _) in doc.match_indices("--") {
            let rest = &doc[i + 2..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(rest.len());
            let name = &rest[..end];
            if name.starts_with(|c: char| c.is_ascii_lowercase()) {
                let known = name == "help" || declared.contains(&name);
                assert!(
                    known,
                    "docs/cli.md names --{name}, which no command declares"
                );
            }
        }
    }

    /// `check`'s rows set exactly the `check` manifest's spec keys.
    #[test]
    fn check_rows_name_every_check_spec_key() {
        let keys = wbsim_jobs::manifest::spec_keys("check");
        let fields: Vec<&str> = COMMANDS
            .iter()
            .flat_map(|c| c.all_opts().flat_map(|o| o.fields.iter().copied()))
            .collect();
        let check = COMMANDS.iter().find(|c| c.name == "check").unwrap();
        let check_fields = check.all_opts().flat_map(|o| o.fields.iter()).count();
        assert_eq!(
            check_fields,
            fields.len(),
            "only check's rows name spec keys"
        );
        for key in &keys {
            assert!(fields.contains(key), "no check option sets {key}");
        }
        for field in &fields {
            assert!(keys.contains(field), "{field} is no check spec key");
        }
    }
}
