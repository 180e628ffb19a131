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
