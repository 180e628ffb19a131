//! End-to-end tests of `wbsim check` as a user runs it: a real process,
//! its stdout, stderr, exit status and `--out` file. Both output modes run
//! one pass table, so they must agree on which passes run, which rules
//! apply, and which counterexample `--out` holds.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Runs `wbsim`; `check` also gets `--jobs 2`, which only it declares.
fn wbsim(args: &[&str]) -> Output {
    let jobs: &[&str] = if args[0] == "check" {
        &["--jobs", "2"]
    } else {
        &[]
    };
    Command::new(env!("CARGO_BIN_EXE_wbsim"))
        .args(args)
        .args(jobs)
        .output()
        .expect("spawn wbsim")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A fresh scratch directory for one test's files.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wbsim-check-cli-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two failing passes write one counterexample: the first failing pass's
/// in table order (reach before properties). The one report on stderr
/// names the file, and its event count is the file's line count.
#[test]
fn out_holds_the_trace_its_report_names() {
    let path = scratch("out").join("cex.jsonl");
    let path_s = path.to_str().unwrap();
    let run = wbsim(&[
        "check",
        "--json",
        "--reach",
        "--prop",
        "--fault",
        "skip-wb-forwarding",
        "--out",
        path_s,
    ]);
    assert!(!run.status.success());
    let doc = text(&run.stdout);
    assert!(doc.contains("\"code\":\"RCH001\""), "{doc}");
    assert!(doc.contains("\"code\":\"PRP100\""), "{doc}");
    let err = text(&run.stderr);
    let reports: Vec<&str> = err.lines().filter(|l| l.contains(path_s)).collect();
    assert_eq!(reports.len(), 1, "{err}");
    let events: usize = reports[0]
        .split(&format!("{path_s} ("))
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no event count in {:?}", reports[0]));
    let trace = std::fs::read_to_string(&path).unwrap();
    assert_eq!(events, trace.lines().count(), "{err}");
    let replay = wbsim(&["trace", "validate", path_s]);
    assert!(replay.status.success(), "{}", text(&replay.stderr));
}

/// Human mode runs every selected pass, in table order, whatever order
/// the flags come in.
#[test]
fn human_mode_runs_every_selected_pass_in_table_order() {
    for (args, first, second) in [
        (
            &["--reach", "--exhaustive", "--max-ops", "2"][..],
            "bounded exhaustive check clean",
            "reachability check clean",
        ),
        (
            &["--refine", "--prop"][..],
            "property check clean",
            "refinement check clean",
        ),
    ] {
        let mut argv = vec!["check", "--machine", "nonblocking", "--mshrs", "1"];
        argv.extend(args);
        let run = wbsim(&argv);
        let out = text(&run.stdout);
        assert!(run.status.success(), "{args:?}: {}", text(&run.stderr));
        let (a, b) = (out.find(first), out.find(second));
        assert!(a.is_some() && b.is_some() && a < b, "{args:?}: {out}");
    }
}

/// The linter runs in both modes: an error-severity finding fails the
/// command even when the selected pass is clean.
#[test]
fn lint_errors_fail_both_modes() {
    let flags = [
        "check",
        "--exhaustive",
        "--max-ops",
        "1",
        "--depth",
        "2",
        "--retire-at",
        "9",
    ];
    let human = wbsim(&flags);
    assert!(!human.status.success());
    assert!(text(&human.stdout).contains("CFG003"));
    assert!(text(&human.stdout).contains("bounded exhaustive check clean"));
    let json = wbsim(&[&flags[..], &["--json"]].concat());
    assert!(!json.status.success());
    assert!(text(&json.stdout).contains("\"code\":\"CFG003\""));
}

/// A `--fault` that no selected pass takes is an error in both modes.
#[test]
fn a_fault_no_selected_pass_takes_is_rejected_in_both_modes() {
    for mode in [&[][..], &["--json"][..]] {
        let run = wbsim(&[&["check", "--sched", "--fault", "skip-wb-forwarding"], mode].concat());
        assert!(!run.status.success(), "{mode:?}");
        assert!(run.stdout.is_empty(), "{mode:?}: {}", text(&run.stdout));
        assert!(text(&run.stderr).contains("--fault"), "{mode:?}");
    }
}

/// With `--out -`, stdout carries only the first failing pass's trace;
/// every other pass's findings go to stderr.
#[test]
fn out_dash_keeps_stdout_a_clean_trace_pipe() {
    let run = wbsim(&[
        "check",
        "--reach",
        "--prop",
        "--fault",
        "skip-wb-forwarding",
        "--out",
        "-",
    ]);
    assert!(!run.status.success());
    let err = text(&run.stderr);
    assert!(err.contains("RCH001") && err.contains("PRP100"), "{err}");
    let trace = text(&run.stdout);
    assert!(!trace.is_empty());
    assert!(
        trace.lines().all(|l| l.starts_with("{\"event\":")),
        "{trace}"
    );
}

/// `--replay` re-executes one recorded schedule and nothing else: it needs
/// `--sched`, and every option another mode reads is refused, never
/// ignored. The file is never opened, so it need not exist.
#[test]
fn replay_is_honoured_or_refused_never_ignored() {
    let missing = scratch("replay").join("no-such-schedule.jsonl");
    let file = missing.to_str().unwrap();
    let refused = |extra: &[&str], why: &str| {
        let run = wbsim(&[&["check", "--replay", file], extra].concat());
        assert!(!run.status.success(), "{extra:?} was accepted");
        assert!(run.stdout.is_empty(), "{extra:?}: {}", text(&run.stdout));
        let err = text(&run.stderr);
        assert!(err.contains(why), "{extra:?}: {err}");
    };
    refused(&[], "--replay needs --sched");
    for other in ["--json", "--exhaustive", "--reach", "--prop", "--refine"] {
        refused(&["--sched", other], &format!("conflicts with {other}"));
    }
    refused(
        &["--sched", "--fault", "lost-wakeup"],
        "conflicts with --fault",
    );
    refused(&["--sched", "--out", "x.jsonl"], "conflicts with --out");
    refused(&["--sched", "--depth", "9"], "conflicts with --depth");
    // Alone with --sched it replays: a missing file is an I/O error.
    let run = wbsim(&["check", "--sched", "--replay", file]);
    assert!(!run.status.success());
    assert!(!text(&run.stderr).contains("conflicts"));
}

/// A recorded fault schedule replays through `--sched --replay`.
#[test]
fn a_recorded_schedule_replays() {
    let path = scratch("replay-ok").join("lost-wakeup.jsonl");
    let path_s = path.to_str().unwrap();
    let record = wbsim(&[
        "check",
        "--sched",
        "--fault",
        "lost-wakeup",
        "--out",
        path_s,
    ]);
    assert!(!record.status.success(), "{}", text(&record.stderr));
    let replay = wbsim(&["check", "--sched", "--replay", path_s]);
    assert!(replay.status.success(), "{}", text(&replay.stderr));
    assert!(text(&replay.stdout).contains("replay ok"));
}

/// A reader that closes stdout early ends the run cleanly: exit 0 and
/// nothing on stderr, not a broken-pipe panic or error.
#[test]
fn a_closed_stdout_is_a_clean_exit() {
    for args in [
        &["run", "--bench", "compress", "--instructions", "20000"][..],
        &[
            "trace",
            "events",
            "--bench",
            "compress",
            "--instructions",
            "2000",
        ],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wbsim"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn wbsim");
        // Close the read end before the command prints its first line.
        drop(child.stdout.take());
        let run = child.wait_with_output().expect("wait for wbsim");
        let err = text(&run.stderr);
        assert!(run.status.success(), "{args:?}: {:?}: {err}", run.status);
        assert!(err.is_empty(), "{args:?}: {err}");
    }
}

/// `trace events --out -` streams to stdout, so the documented pipe into
/// `trace validate - --prop` passes and no file named `-` appears.
#[test]
fn trace_events_out_dash_pipes_into_validate() {
    let dir = scratch("events-pipe");
    let dash = dir.join("-");
    let _ = std::fs::remove_file(&dash);
    let mut events = Command::new(env!("CARGO_BIN_EXE_wbsim"))
        .args(["trace", "events", "--bench", "compress"])
        .args(["--instructions", "600", "--out", "-"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn trace events");
    let validate = Command::new(env!("CARGO_BIN_EXE_wbsim"))
        .args(["trace", "validate", "-", "--prop"])
        .current_dir(&dir)
        .stdin(events.stdout.take().expect("piped stdout"))
        .output()
        .expect("spawn trace validate");
    assert!(events.wait().expect("trace events exits").success());
    assert!(validate.status.success(), "{}", text(&validate.stderr));
    assert!(!dash.exists(), "trace events wrote a file named -");
}

/// A trace job captures what `wbsim trace events` writes, byte for byte:
/// both drain the buffer after the stream, so the job's `events.jsonl`
/// ends with the final retirements and passes `trace validate --prop`.
#[test]
fn a_trace_job_writes_what_trace_events_writes() {
    let cli = wbsim(&[
        "trace",
        "events",
        "--bench",
        "compress",
        "--instructions",
        "600",
        "--seed",
        "42",
        "--out",
        "-",
    ]);
    assert!(cli.status.success(), "{}", text(&cli.stderr));
    let manifest = wbsim_jobs::Manifest::from_json(
        r#"{"schema":"wbsim-job/1","kind":"trace","spec":{"bench":"compress","config":"wb.depth = 4"},"options":{"instructions":600,"seed":42}}"#,
    )
    .expect("a valid trace manifest");
    let out = wbsim_jobs::execute(&manifest);
    assert_eq!(out.failed, None);
    let job = &out.artifact("events.jsonl").expect("events.jsonl").bytes;
    assert_eq!(job.iter().filter(|&&b| b == b'\n').count(), 1480);
    assert!(
        *job == cli.stdout,
        "the job and the CLI captured different streams"
    );

    let mut validate = Command::new(env!("CARGO_BIN_EXE_wbsim"))
        .args(["trace", "validate", "-", "--prop"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trace validate");
    std::io::Write::write_all(&mut validate.stdin.take().unwrap(), job).unwrap();
    let run = validate.wait_with_output().expect("trace validate exits");
    assert!(run.status.success(), "{}", text(&run.stderr));
    assert!(
        text(&run.stdout).contains("1480 events"),
        "{}",
        text(&run.stdout)
    );
}

/// Runs `check` with `args` and asserts it is refused before any pass
/// runs, with an error naming the flag that would make the option apply.
fn refused_without(args: &[&str], needs: &str) {
    let run = wbsim(&[&["check"], args].concat());
    assert!(!run.status.success(), "{args:?} was accepted");
    assert!(run.stdout.is_empty(), "{args:?}: {}", text(&run.stdout));
    let err = text(&run.stderr);
    assert!(err.contains(needs), "{args:?}: {err}");
}

#[test]
fn max_ops_needs_exhaustive() {
    refused_without(
        &["--reach", "--max-ops", "3"],
        "--max-ops needs --exhaustive",
    );
}

/// A bounded check of length 0 checks nothing, so both modes refuse it
/// instead of reporting zero runs clean.
#[test]
fn max_ops_zero_is_refused() {
    for mode in [&[][..], &["--json"][..]] {
        let run = wbsim(&[&["check", "--exhaustive", "--max-ops", "0"], mode].concat());
        assert!(!run.status.success(), "{mode:?} was accepted");
        assert!(run.stdout.is_empty(), "{mode:?}: {}", text(&run.stdout));
        let err = text(&run.stderr);
        assert!(
            err.contains("--max-ops 0 checks nothing"),
            "{mode:?}: {err}"
        );
    }
}

#[test]
fn preemptions_need_sched() {
    refused_without(
        &["--exhaustive", "--max-ops", "1", "--preemptions", "9"],
        "--preemptions needs --sched",
    );
}

/// `--mshrs` needs the non-blocking machine, which the linter alone
/// already reads (LNT006), so that pairing needs no pass.
#[test]
fn mshrs_need_the_nonblocking_machine() {
    refused_without(
        &["--reach", "--mshrs", "2"],
        "--mshrs needs --machine nonblocking",
    );
    let lint_only = wbsim(&["check", "--machine", "nonblocking", "--mshrs", "2"]);
    assert!(lint_only.status.success(), "{}", text(&lint_only.stderr));
}

/// The exact output of `wbsim check --exhaustive` for every `--fault` on
/// both machines: exit code, the `--json` document's `exhaustive`
/// section (`wall_ms` zeroed), the minimized sequence, the human report
/// on stdout (length and FNV-1a hash, with the `--out` path and the run
/// time normalized) and the `--out` trace (lines, bytes and FNV-1a hash).
/// How the checker enumerates sequences is its own business; which
/// counterexample it reports is not.
struct Pin {
    machine: &'static str,
    fault: Option<&'static str>,
    max_ops: u32,
    code: i32,
    exhaustive: &'static str,
    sequence: Option<&'static str>,
    report: (usize, u64),
    trace: Option<(usize, usize, u64)>,
}

#[rustfmt::skip]
const EXHAUSTIVE_PINS: [Pin; 16] = [
    Pin { machine: "blocking", fault: None, max_ops: 2, code: 0,
        exhaustive: r#"{"status":"clean","report":{"configs":40,"sequences":72,"runs":2880,"states_explored":0,"edges":0,"sccs":0,"wall_ms":0}}"#,
        sequence: None,
        report: (148, 0xdf21f1ef9f29fa3b), trace: None },
    Pin { machine: "blocking", fault: None, max_ops: 3, code: 0,
        exhaustive: r#"{"status":"clean","report":{"configs":40,"sequences":584,"runs":23360,"states_explored":0,"edges":0,"sccs":0,"wall_ms":0}}"#,
        sequence: None,
        report: (150, 0x11188e99a776e44a), trace: None },
    Pin { machine: "blocking", fault: Some("skip-wb-forwarding"), max_ops: 2, code: 1,
        exhaustive: r#"{"status":"violation","violation":"load #0 at Addr(0) observed 0x0, architectural model says 0x1 (stale or lost store)"}"#,
        sequence: Some("[Store(Addr(0)), Load(Addr(0))]"),
        report: (576, 0xeb74b7a295aab622), trace: Some((12, 625, 0x870801ffd51eb146)) },
    Pin { machine: "blocking", fault: Some("skip-wb-forwarding"), max_ops: 3, code: 1,
        exhaustive: r#"{"status":"violation","violation":"load #0 at Addr(0) observed 0x1, architectural model says 0x2 (stale or lost store)"}"#,
        sequence: Some("[Store(Addr(0)), Store(Addr(0)), Load(Addr(0))]"),
        report: (592, 0xa1527af5ecda76d4), trace: Some((23, 1244, 0x6ea0b2329a9ee388)) },
    Pin { machine: "blocking", fault: Some("starve-retirement"), max_ops: 2, code: 1,
        exhaustive: r#"{"status":"violation","violation":"run exceeded the 10000-cycle liveness budget"}"#,
        sequence: Some("[Store(Addr(32)), Store(Addr(0))]"),
        report: (540, 0xd68acdc6a7af9418), trace: Some((20000, 1027787, 0x1be565c8415160cc)) },
    Pin { machine: "blocking", fault: Some("starve-retirement"), max_ops: 3, code: 1,
        exhaustive: r#"{"status":"violation","violation":"run exceeded the 10000-cycle liveness budget"}"#,
        sequence: Some("[Store(Addr(32)), Store(Addr(0))]"),
        report: (540, 0xd68acdc6a7af9418), trace: Some((20000, 1027787, 0x1be565c8415160cc)) },
    Pin { machine: "blocking", fault: Some("overshoot-skip"), max_ops: 2, code: 0,
        exhaustive: r#"{"status":"clean","report":{"configs":40,"sequences":72,"runs":2880,"states_explored":0,"edges":0,"sccs":0,"wall_ms":0}}"#,
        sequence: None,
        report: (148, 0xdf21f1ef9f29fa3b), trace: None },
    Pin { machine: "blocking", fault: Some("overshoot-skip"), max_ops: 3, code: 0,
        exhaustive: r#"{"status":"clean","report":{"configs":40,"sequences":584,"runs":23360,"states_explored":0,"edges":0,"sccs":0,"wall_ms":0}}"#,
        sequence: None,
        report: (150, 0x11188e99a776e44a), trace: None },
    Pin { machine: "nonblocking", fault: None, max_ops: 2, code: 0,
        exhaustive: r#"{"status":"clean","report":{"configs":40,"sequences":72,"runs":2880,"states_explored":0,"edges":0,"sccs":0,"wall_ms":0}}"#,
        sequence: None,
        report: (163, 0xd1fd8110fe4243fa), trace: None },
    Pin { machine: "nonblocking", fault: None, max_ops: 3, code: 0,
        exhaustive: r#"{"status":"clean","report":{"configs":40,"sequences":584,"runs":23360,"states_explored":0,"edges":0,"sccs":0,"wall_ms":0}}"#,
        sequence: None,
        report: (165, 0xad438ff30b744f07), trace: None },
    Pin { machine: "nonblocking", fault: Some("skip-wb-forwarding"), max_ops: 2, code: 1,
        exhaustive: r#"{"status":"violation","violation":"final memory at Addr(0): machine reads 0x0, architectural model says 0x1"}"#,
        sequence: Some("[Load(Addr(0)), Store(Addr(0))]"),
        report: (596, 0xaab4b86640940577), trace: Some((19, 984, 0xd423e75c78f719e0)) },
    Pin { machine: "nonblocking", fault: Some("skip-wb-forwarding"), max_ops: 3, code: 1,
        exhaustive: r#"{"status":"violation","violation":"final memory at Addr(0): machine reads 0x0, architectural model says 0x1"}"#,
        sequence: Some("[Load(Addr(0)), Store(Addr(0))]"),
        report: (596, 0xaab4b86640940577), trace: Some((19, 984, 0xd423e75c78f719e0)) },
    Pin { machine: "nonblocking", fault: Some("starve-retirement"), max_ops: 2, code: 1,
        exhaustive: r#"{"status":"violation","violation":"run exceeded the 10000-cycle liveness budget"}"#,
        sequence: Some("[Store(Addr(32)), Store(Addr(0))]"),
        report: (573, 0xc3392570840fabe7), trace: Some((20000, 1027787, 0x1be565c8415160cc)) },
    Pin { machine: "nonblocking", fault: Some("starve-retirement"), max_ops: 3, code: 1,
        exhaustive: r#"{"status":"violation","violation":"run exceeded the 10000-cycle liveness budget"}"#,
        sequence: Some("[Store(Addr(32)), Store(Addr(0))]"),
        report: (573, 0xc3392570840fabe7), trace: Some((20000, 1027787, 0x1be565c8415160cc)) },
    Pin { machine: "nonblocking", fault: Some("overshoot-skip"), max_ops: 2, code: 0,
        exhaustive: r#"{"status":"clean","report":{"configs":40,"sequences":72,"runs":2880,"states_explored":0,"edges":0,"sccs":0,"wall_ms":0}}"#,
        sequence: None,
        report: (163, 0xd1fd8110fe4243fa), trace: None },
    Pin { machine: "nonblocking", fault: Some("overshoot-skip"), max_ops: 3, code: 0,
        exhaustive: r#"{"status":"clean","report":{"configs":40,"sequences":584,"runs":23360,"states_explored":0,"edges":0,"sccs":0,"wall_ms":0}}"#,
        sequence: None,
        report: (165, 0xad438ff30b744f07), trace: None },
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `text` with every `{key}<digits>{end}` rewritten to `{key}0{end}`.
fn zero_number(text: &str, key: &str, end: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(i) = rest.find(key) {
        out.push_str(&rest[..i + key.len()]);
        rest = &rest[i + key.len()..];
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 && rest[digits..].starts_with(end) {
            out.push('0');
            rest = &rest[digits..];
        }
    }
    out + rest
}

#[test]
fn exhaustive_reports_and_counterexamples_are_pinned() {
    let dir = scratch("exhaustive-pins");
    for pin in &EXHAUSTIVE_PINS {
        let out = dir.join(format!("{}-{}.jsonl", pin.machine, pin.max_ops));
        let out_s = out.to_str().unwrap();
        let max_ops = pin.max_ops.to_string();
        let mut args = vec!["check", "--exhaustive", "--machine", pin.machine];
        args.extend(["--max-ops", &max_ops]);
        args.extend(pin.fault.iter().flat_map(|f| ["--fault", *f]));
        args.extend(["--out", out_s]);
        let what = format!("{args:?}");
        for json in [false, true] {
            let _ = std::fs::remove_file(&out);
            let run = wbsim(&[&args[..], if json { &["--json"][..] } else { &[] }].concat());
            assert_eq!(
                run.status.code(),
                Some(pin.code),
                "{what}: {}",
                text(&run.stderr)
            );
            let stdout = text(&run.stdout);
            if json {
                let doc = zero_number(&stdout, "\"wall_ms\":", "}");
                let want = format!(
                    "{{\"linter\":{{\"diagnostics\":[],\"errors\":false}},\"exhaustive\":{},\
                     \"reach\":null,\"properties\":null,\"refine\":null,\"sched\":null}}\n",
                    pin.exhaustive
                );
                assert_eq!(doc, want, "{what}");
            } else {
                let report = zero_number(&stdout.replace(out_s, "{out}"), " in ", " ms,");
                let sequence = report
                    .lines()
                    .find_map(|l| l.strip_prefix("minimized sequence ("))
                    .and_then(|l| l.split_once("): "))
                    .map(|(_, ops)| ops);
                assert_eq!(sequence, pin.sequence, "{what}");
                assert_eq!(
                    (report.len(), fnv1a(report.as_bytes())),
                    pin.report,
                    "{what}: {report}"
                );
            }
            let trace = std::fs::read(&out).ok();
            let got = trace
                .as_ref()
                .map(|t| (t.iter().filter(|&&b| b == b'\n').count(), t.len(), fnv1a(t)));
            assert_eq!(got, pin.trace, "{what}");
        }
    }
}

/// The exact output of every failing `--reach`, `--prop` and `--refine`
/// run under a `--fault`, on both machines: exit code, the pass's `--json`
/// section and the `--out` trace (lines, bytes and FNV-1a hash), which
/// both output modes must write alike. How a checker replays and
/// minimizes is its own business; which counterexample it reports, event
/// by event, is not.
struct UnboundedPin {
    pass: &'static str,
    fault: &'static str,
    machine: &'static str,
    code: i32,
    section: &'static str,
    trace: (usize, usize, u64),
}

#[rustfmt::skip]
const UNBOUNDED_PINS: [UnboundedPin; 9] = [
    UnboundedPin { pass: "reach", fault: "skip-wb-forwarding", machine: "blocking", code: 1,
        section: r#"{"status":"violation","diagnostic":{"code":"RCH001","severity":"error","field_path":"machine","message":"safety invariant violated at a reachable state: cycle 12: load of Addr(0) via L2 fill observed 0x1, freshest store is 0x2 (stale or lost store)"}}"#,
        trace: (23, 1244, 0x6ea0b2329a9ee388) },
    UnboundedPin { pass: "reach", fault: "skip-wb-forwarding", machine: "nonblocking", code: 1,
        section: r#"{"status":"violation","diagnostic":{"code":"RCH001","severity":"error","field_path":"machine","message":"safety invariant violated at a reachable state: architectural read of Addr(0) is 0x0, freshest store is 0x1 (lost or stale store)"}}"#,
        trace: (19, 984, 0xd423e75c78f719e0) },
    UnboundedPin { pass: "reach", fault: "starve-retirement", machine: "blocking", code: 1,
        section: r#"{"status":"violation","diagnostic":{"code":"RCH002","severity":"error","field_path":"write_buffer","message":"livelock: a reachable state cycles under the fair drain schedule without retiring anything (1 ops reach it)"}}"#,
        trace: (4, 191, 0xc355aa306f4eb31b) },
    UnboundedPin { pass: "reach", fault: "starve-retirement", machine: "nonblocking", code: 1,
        section: r#"{"status":"violation","diagnostic":{"code":"RCH002","severity":"error","field_path":"write_buffer","message":"livelock: a reachable state cycles under the fair drain schedule without retiring anything (1 ops reach it)"}}"#,
        trace: (4, 191, 0xc355aa306f4eb31b) },
    UnboundedPin { pass: "prop", fault: "skip-wb-forwarding", machine: "blocking", code: 1,
        section: r#"{"status":"violation","diagnostic":{"code":"PRP100","severity":"error","field_path":"props.no-stale-forward","message":"safety property 'no-stale-forward' (while a store is buffered, a load of it is answered by L1 or the buffer, never by a raw L2 fill) violated: banned event {\"event\":\"load-resolved\",\"now\":12,\"addr\":0,\"value\":1,\"source\":\"l2-fill\"} occurred inside an open store-accepted window"}}"#,
        trace: (32, 1730, 0x307fb126427aa04f) },
    UnboundedPin { pass: "prop", fault: "starve-retirement", machine: "blocking", code: 1,
        section: r#"{"status":"violation","diagnostic":{"code":"PRP101","severity":"error","field_path":"props.eventual-drain","message":"liveness property 'eventual-drain' (every accepted store is eventually followed by a retirement) violated: an obligation is still awaiting a retire-complete event"}}"#,
        trace: (4, 191, 0xc355aa306f4eb31b) },
    UnboundedPin { pass: "prop", fault: "starve-retirement", machine: "nonblocking", code: 1,
        section: r#"{"status":"violation","diagnostic":{"code":"PRP101","severity":"error","field_path":"props.eventual-drain","message":"liveness property 'eventual-drain' (every accepted store is eventually followed by a retirement) violated: an obligation is still awaiting a retire-complete event"}}"#,
        trace: (4, 191, 0xc355aa306f4eb31b) },
    UnboundedPin { pass: "refine", fault: "overshoot-skip", machine: "blocking", code: 1,
        section: r#"{"status":"violation","diagnostic":{"code":"REF100","severity":"error","field_path":"engine","message":"event streams diverge at event #8 (cycle 7, inside a claimed wait-span skip): event-driven emitted {\"event\":\"cycle-end\",\"now\":7,\"occupancy\":0}, reference emitted {\"event\":\"fill-installed\",\"now\":7,\"line\":0,\"for_store\":false,\"merged_wb\":false}"}}"#,
        trace: (10, 522, 0x867e53b7f1fe5a9b) },
    UnboundedPin { pass: "refine", fault: "overshoot-skip", machine: "nonblocking", code: 1,
        section: r#"{"status":"violation","diagnostic":{"code":"REF100","severity":"error","field_path":"engine","message":"end-of-stream drain: event streams diverge at event #5 (cycle 6, inside a claimed wait-span skip): event-driven emitted {\"event\":\"cycle-end\",\"now\":6,\"occupancy\":1}, reference emitted {\"event\":\"retire-complete\",\"now\":6,\"id\":0,\"line\":0,\"lifetime\":6,\"valid_words\":1,\"flush\":false}"}}"#,
        trace: (10, 534, 0x2cc0a9118e03e053) },
];

#[test]
fn unbounded_reports_and_counterexamples_are_pinned() {
    let dir = scratch("unbounded-pins");
    for pin in &UNBOUNDED_PINS {
        let out = dir.join(format!("{}-{}-{}.jsonl", pin.pass, pin.fault, pin.machine));
        let out_s = out.to_str().unwrap();
        let flag = format!("--{}", pin.pass);
        let args = [
            "check",
            &flag,
            "--fault",
            pin.fault,
            "--machine",
            pin.machine,
        ];
        let args = [&args[..], &["--out", out_s]].concat();
        let what = format!("{args:?}");
        let section = if pin.pass == "prop" {
            "properties"
        } else {
            pin.pass
        };
        let [reach, properties, refine] =
            ["reach", "properties", "refine"]
                .map(|s| if s == section { pin.section } else { "null" });
        for json in [false, true] {
            let _ = std::fs::remove_file(&out);
            let run = wbsim(&[&args[..], if json { &["--json"][..] } else { &[] }].concat());
            assert_eq!(
                run.status.code(),
                Some(pin.code),
                "{what}: {}",
                text(&run.stderr)
            );
            if json {
                let want = format!(
                    "{{\"linter\":{{\"diagnostics\":[],\"errors\":false}},\"exhaustive\":null,\
                     \"reach\":{reach},\"properties\":{properties},\"refine\":{refine},\
                     \"sched\":null}}\n"
                );
                let doc = zero_number(&text(&run.stdout), "\"wall_ms\":", "}");
                assert_eq!(doc, want, "{what}");
            }
            let trace = std::fs::read(&out).unwrap_or_else(|e| panic!("{what}: {e}"));
            let got = (
                trace.iter().filter(|&&b| b == b'\n').count(),
                trace.len(),
                fnv1a(&trace),
            );
            assert_eq!(got, pin.trace, "{what}");
        }
    }
}

/// The exact output of `wbsim check --sched` at preemption bounds 1 and 2,
/// clean and under each `--fault`: exit code, the `--json` document's
/// `sched` section, and the `--out` schedule (lines, bytes and FNV-1a
/// hash). How the scheduler runtime reaches each decision is its own
/// business; which schedules it explores and reports is not.
struct SchedPin {
    fault: Option<&'static str>,
    preemptions: u32,
    code: i32,
    sched: &'static str,
    schedule: Option<(usize, usize, u64)>,
}

#[rustfmt::skip]
const SCHED_PINS: [SchedPin; 6] = [
    SchedPin { fault: None, preemptions: 1, code: 0,
        sched: r#"{"harnesses":[{"harness":"store-race","schedules":11,"max_depth":25,"verdict":"clean"},{"harness":"serve-drain","schedules":102,"max_depth":34,"verdict":"clean"},{"harness":"pool-steal","schedules":14,"max_depth":22,"verdict":"clean"}],"clean":true}"#,
        schedule: None },
    SchedPin { fault: None, preemptions: 2, code: 0,
        sched: r#"{"harnesses":[{"harness":"store-race","schedules":36,"max_depth":25,"verdict":"clean"},{"harness":"serve-drain","schedules":707,"max_depth":34,"verdict":"clean"},{"harness":"pool-steal","schedules":62,"max_depth":22,"verdict":"clean"}],"clean":true}"#,
        schedule: None },
    SchedPin { fault: Some("lost-wakeup"), preemptions: 1, code: 1,
        sched: r#"{"harnesses":[{"harness":"serve-drain","schedules":28,"max_depth":31,"verdict":"SCH102"}],"clean":false}"#,
        schedule: Some((31, 1826, 0xcd14df70d65f7a37)) },
    SchedPin { fault: Some("lost-wakeup"), preemptions: 2, code: 1,
        sched: r#"{"harnesses":[{"harness":"serve-drain","schedules":37,"max_depth":31,"verdict":"SCH102"}],"clean":false}"#,
        schedule: Some((31, 1826, 0xcd14df70d65f7a37)) },
    SchedPin { fault: Some("dup-execute"), preemptions: 1, code: 1,
        sched: r#"{"harnesses":[{"harness":"store-race","schedules":14,"max_depth":26,"verdict":"SCH100"}],"clean":false}"#,
        schedule: Some((27, 1585, 0xd945484f675ad836)) },
    SchedPin { fault: Some("dup-execute"), preemptions: 2, code: 1,
        sched: r#"{"harnesses":[{"harness":"store-race","schedules":14,"max_depth":26,"verdict":"SCH100"}],"clean":false}"#,
        schedule: Some((27, 1585, 0xd945484f675ad836)) },
];

#[test]
fn sched_reports_and_schedules_are_pinned() {
    let dir = scratch("sched-pins");
    for pin in &SCHED_PINS {
        let name = format!("{}-{}", pin.fault.unwrap_or("clean"), pin.preemptions);
        let out = dir.join(format!("{name}.jsonl"));
        let out_s = out.to_str().unwrap();
        let bound = pin.preemptions.to_string();
        let mut args = vec!["check", "--sched", "--preemptions", &bound, "--json"];
        args.extend(pin.fault.iter().flat_map(|f| ["--fault", *f]));
        args.extend(["--out", out_s]);
        let what = format!("{args:?}");
        let _ = std::fs::remove_file(&out);
        let run = wbsim(&args);
        assert_eq!(
            run.status.code(),
            Some(pin.code),
            "{what}: {}",
            text(&run.stderr)
        );
        let want = format!(
            "{{\"linter\":{{\"diagnostics\":[],\"errors\":false}},\"exhaustive\":null,\
             \"reach\":null,\"properties\":null,\"refine\":null,\"sched\":{}}}\n",
            pin.sched
        );
        assert_eq!(text(&run.stdout), want, "{what}");
        let schedule = std::fs::read(&out).ok();
        let got = schedule
            .as_ref()
            .map(|t| (t.iter().filter(|&&b| b == b'\n').count(), t.len(), fnv1a(t)));
        assert_eq!(got, pin.schedule, "{what}");
        if schedule.is_some() {
            let replay = wbsim(&["check", "--sched", "--replay", out_s]);
            assert!(replay.status.success(), "{what}: {}", text(&replay.stderr));
            assert!(text(&replay.stdout).contains("replay ok"), "{what}");
        }
    }
}

/// The non-blocking machine refuses a configuration asking for what it
/// does not model, naming the field, instead of running without it.
#[test]
fn run_on_the_nonblocking_machine_refuses_what_it_does_not_model() {
    let dir = scratch("nb-refusals");
    for (line, field) in [
        (
            "l1.write_policy = write-back\nwb.width_words = 4",
            "l1.write_policy",
        ),
        ("icache = miss-every:50", "icache"),
        ("wb.priority = write-priority-above-2", "wb.priority"),
    ] {
        let path = dir.join(format!("{field}.wbcfg"));
        std::fs::write(&path, format!("wb.hazard = read-from-wb\n{line}\n")).unwrap();
        let blocking = [
            "run",
            "--bench",
            "li",
            "--instructions",
            "2000",
            "--config",
            path.to_str().unwrap(),
        ];
        let run = wbsim(&[&blocking[..], &["--mshrs", "4"]].concat());
        let err = text(&run.stderr);
        assert!(!run.status.success(), "{line}: {}", text(&run.stdout));
        assert!(err.contains(field), "{line}: {err}");
        assert!(wbsim(&blocking).status.success(), "{line}");
    }
}
