//! End-to-end smoke test of `wbsim serve`: a real daemon process on an
//! ephemeral port, driven over plain TCP. Pins the contract the CI
//! serve-smoke job and docs/serving.md promise: submissions execute,
//! artifacts are byte-identical to the one-shot CLI, malformed manifests
//! get structured 4xx diagnostics, identical resubmissions are answered
//! from the result store without re-running a cell, and shutdown is
//! clean (exit 0).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the daemon if the test panics before the clean-shutdown step.
struct Daemon {
    child: Child,
    port: u16,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon() -> Daemon {
    spawn_daemon_with(&[])
}

fn spawn_daemon_with(env: &[(&str, &str)]) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wbsim"));
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn wbsim serve");
    // The daemon announces its bound address on stdout; with port 0 that
    // line is the only way to learn the real port.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("banner");
    let port = line
        .split(':')
        .next_back()
        .and_then(|tail| tail.split_whitespace().next())
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("no port in banner {line:?}"));
    Daemon { child, port }
}

/// One HTTP/1.1 exchange. Returns the status code and the decoded body
/// (chunked transfer is reassembled).
fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let code: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    let mut payload = &raw[head_end + 4..];
    if !head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        return (code, payload.to_vec());
    }
    // Minimal chunked decoder: size line in hex, chunk bytes, CRLF.
    let mut body = Vec::new();
    loop {
        let line_end = payload
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&payload[..line_end]).expect("hex size"),
            16,
        )
        .expect("chunk size");
        payload = &payload[line_end + 2..];
        if size == 0 {
            break;
        }
        body.extend_from_slice(&payload[..size]);
        payload = &payload[size + 2..];
    }
    (code, body)
}

fn http_text(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let (code, bytes) = http(port, method, path, body);
    (code, String::from_utf8(bytes).expect("UTF-8 body"))
}

/// Extracts the numeric `"id"` from a submission response.
fn id_of(body: &str) -> u64 {
    let tail = body.split("\"id\":").nth(1).expect("id field");
    tail.bytes()
        .take_while(u8::is_ascii_digit)
        .fold(0, |n, b| n * 10 + u64::from(b - b'0'))
}

fn poll_done(port: u16, id: u64) -> String {
    let body = poll_terminal(port, id);
    assert!(
        body.contains("\"status\":\"done\""),
        "job {id} failed: {body}"
    );
    body
}

/// Polls until the job reaches either terminal state (`done` or
/// `failed`) and returns the status document.
fn poll_terminal(port: u16, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, body) = http_text(port, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(code, 200, "{body}");
        if body.contains("\"status\":\"done\"") || body.contains("\"status\":\"failed\"") {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn one_shot(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_wbsim"))
        .args(args)
        .output()
        .expect("run one-shot CLI");
    assert!(out.status.success(), "{args:?}: {:?}", out.status);
    out.stdout
}

/// `wall_ms` is the one field of a check document that legitimately
/// varies between runs.
fn normalize_wall_ms(doc: &str) -> String {
    let mut out = String::new();
    let mut rest = doc;
    while let Some(i) = rest.find("\"wall_ms\":") {
        let tail = &rest[i + "\"wall_ms\":".len()..];
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        out.push_str(&rest[..i]);
        out.push_str("\"wall_ms\":0");
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

const TABLE_MANIFEST: &str = "{\"schema\":\"wbsim-job/1\",\"kind\":\"table\",\
     \"spec\":{\"which\":\"6\"},\
     \"options\":{\"instructions\":2000,\"warmup\":500}}";

const CHECK_MANIFEST: &str = "{\"schema\":\"wbsim-job/1\",\"kind\":\"check\",\
     \"spec\":{\"exhaustive\":true,\"max_ops\":2}}";

#[test]
fn daemon_round_trip_cache_and_clean_shutdown() {
    let mut daemon = spawn_daemon();
    let port = daemon.port;

    let (code, health) = http_text(port, "GET", "/v1/health", "");
    assert_eq!((code, health.as_str()), (200, "{\"ok\":true}"));

    // A malformed manifest is a structured 400, not a dropped connection.
    let (code, bad) = http_text(port, "POST", "/v1/jobs", "{\"schema\":\"nope\"}");
    assert_eq!(code, 400, "{bad}");
    assert!(bad.contains("\"diagnostics\""), "{bad}");
    assert!(bad.contains("JOB003"), "{bad}");

    // Two concurrent submissions: a simulation sweep (table 6) and a
    // model-checking pass, in flight at the same time on the two workers.
    let submit = |manifest: &'static str| {
        std::thread::spawn(move || http_text(port, "POST", "/v1/jobs", manifest))
    };
    let table_req = submit(TABLE_MANIFEST);
    let check_req = submit(CHECK_MANIFEST);
    let (code, table_resp) = table_req.join().expect("table submit");
    assert_eq!(code, 202, "{table_resp}");
    assert!(table_resp.contains("\"cached\":false"), "{table_resp}");
    let (code, check_resp) = check_req.join().expect("check submit");
    assert_eq!(code, 202, "{check_resp}");
    let (table_id, check_id) = (id_of(&table_resp), id_of(&check_resp));

    let table_status = poll_done(port, table_id);
    assert!(table_status.contains("\"tables.txt\""), "{table_status}");
    let check_status = poll_done(port, check_id);
    assert!(check_status.contains("\"check.json\""), "{check_status}");

    // Artifacts are byte-identical to the one-shot CLI.
    let (code, table_artifact) = http(
        port,
        "GET",
        &format!("/v1/jobs/{table_id}/artifacts/tables.txt"),
        "",
    );
    assert_eq!(code, 200);
    let cli_table = one_shot(&["table", "6", "--instructions", "2000", "--warmup", "500"]);
    assert_eq!(table_artifact, cli_table, "daemon artifact == CLI stdout");

    let (code, check_artifact) = http_text(
        port,
        "GET",
        &format!("/v1/jobs/{check_id}/artifacts/check.json"),
        "",
    );
    assert_eq!(code, 200);
    let cli_check = one_shot(&["check", "--json", "--exhaustive", "--max-ops", "2"]);
    assert_eq!(
        normalize_wall_ms(&check_artifact),
        normalize_wall_ms(&String::from_utf8(cli_check).expect("UTF-8")),
        "daemon check document == CLI stdout (modulo wall_ms)"
    );

    // A missing artifact is a structured 404.
    let (code, missing) = http_text(
        port,
        "GET",
        &format!("/v1/jobs/{table_id}/artifacts/nope.txt"),
        "",
    );
    assert_eq!(code, 404, "{missing}");

    // Resubmitting the identical manifest is answered from the result
    // store: done immediately, marked cached, and the store's
    // executed-cell counter does not move.
    let (_, stats_before) = http_text(port, "GET", "/v1/store/stats", "");
    let (code, resubmit) = http_text(port, "POST", "/v1/jobs", TABLE_MANIFEST);
    assert_eq!(code, 202, "{resubmit}");
    assert!(resubmit.contains("\"cached\":true"), "{resubmit}");
    assert!(resubmit.contains("\"status\":\"done\""), "{resubmit}");
    let cached_id = id_of(&resubmit);
    let (_, cached_artifact) = http(
        port,
        "GET",
        &format!("/v1/jobs/{cached_id}/artifacts/tables.txt"),
        "",
    );
    assert_eq!(cached_artifact, cli_table, "cached artifact bytes");
    let (_, stats_after) = http_text(port, "GET", "/v1/store/stats", "");
    let cells = |s: &str| {
        let tail = s.split("\"cells_executed\":").nth(1).expect("counter");
        tail.bytes()
            .take_while(u8::is_ascii_digit)
            .fold(0u64, |n, b| n * 10 + u64::from(b - b'0'))
    };
    assert_eq!(
        cells(&stats_before),
        cells(&stats_after),
        "zero cells re-executed on a cache hit: {stats_before} -> {stats_after}"
    );
    assert!(stats_after.contains("\"hits\":1"), "{stats_after}");

    // Clean shutdown: the daemon answers, then exits 0.
    let (code, bye) = http_text(port, "POST", "/v1/shutdown", "");
    assert_eq!((code, bye.as_str()), (200, "{\"ok\":true}"));
    let status = daemon.child.wait().expect("daemon exit");
    assert!(status.success(), "clean exit, got {status:?}");
}

/// A trace job's JSONL artifact streams as chunked transfer and decodes
/// back to the exact event lines.
#[test]
fn jsonl_artifacts_stream_chunked() {
    let daemon = spawn_daemon();
    let port = daemon.port;
    let config =
        wbsim_types::file_config::to_config_string(&wbsim_types::config::MachineConfig::baseline());
    let manifest = format!(
        "{{\"schema\":\"wbsim-job/1\",\"kind\":\"trace\",\
         \"spec\":{{\"bench\":\"compress\",\"config\":{},\"mshrs\":0}},\
         \"options\":{{\"instructions\":300,\"warmup\":0}}}}",
        wbsim_types::json::escape(&config)
    );
    let (code, resp) = http_text(port, "POST", "/v1/jobs", &manifest);
    assert_eq!(code, 202, "{resp}");
    let id = id_of(&resp);
    let status = poll_done(port, id);
    assert!(status.contains("\"events.jsonl\""), "{status}");
    let (code, events) = http_text(
        port,
        "GET",
        &format!("/v1/jobs/{id}/artifacts/events.jsonl"),
        "",
    );
    assert_eq!(code, 200);
    assert!(!events.is_empty());
    assert!(events.ends_with('\n'), "JSONL framing");
    assert!(
        events
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')),
        "every chunked line is one JSON event"
    );
    // The drop guard kills this daemon; clean shutdown is pinned above.
}

/// A panicking job is marked failed with a structured `JOB020` and the
/// worker survives to run later jobs (docs/serving.md's recovery
/// contract). `WBSIM_TEST_PANIC_KIND=table` makes every table job panic
/// inside the executor; three distinct panics on a two-worker pool
/// guarantee at least one worker recovers from more than one.
#[test]
fn worker_panics_fail_with_job020_and_the_pool_survives() {
    let mut daemon = spawn_daemon_with(&[("WBSIM_TEST_PANIC_KIND", "table")]);
    let port = daemon.port;

    for instructions in [1000, 1500, 2000] {
        let manifest = format!(
            "{{\"schema\":\"wbsim-job/1\",\"kind\":\"table\",\
             \"spec\":{{\"which\":\"6\"}},\
             \"options\":{{\"instructions\":{instructions},\"warmup\":500}}}}"
        );
        let (code, resp) = http_text(port, "POST", "/v1/jobs", &manifest);
        assert_eq!(code, 202, "{resp}");
        let status = poll_terminal(port, id_of(&resp));
        assert!(status.contains("\"status\":\"failed\""), "{status}");
        assert!(status.contains("JOB020"), "{status}");
        assert!(status.contains("worker recovered"), "{status}");
    }

    // Panicked outcomes never enter the result store: resubmitting the
    // identical manifest re-executes (and re-panics) instead of serving
    // a cached failure.
    let manifest = "{\"schema\":\"wbsim-job/1\",\"kind\":\"table\",\
         \"spec\":{\"which\":\"6\"},\
         \"options\":{\"instructions\":1000,\"warmup\":500}}";
    let (code, resubmit) = http_text(port, "POST", "/v1/jobs", manifest);
    assert_eq!(code, 202, "{resubmit}");
    assert!(resubmit.contains("\"cached\":false"), "{resubmit}");
    poll_terminal(port, id_of(&resubmit));

    // The pool is still alive: a job of a different kind completes.
    let (code, resp) = http_text(port, "POST", "/v1/jobs", CHECK_MANIFEST);
    assert_eq!(code, 202, "{resp}");
    let status = poll_done(port, id_of(&resp));
    assert!(status.contains("\"check.json\""), "{status}");

    // And shutdown is still clean after all those recoveries.
    let (code, bye) = http_text(port, "POST", "/v1/shutdown", "");
    assert_eq!((code, bye.as_str()), (200, "{\"ok\":true}"));
    let status = daemon.child.wait().expect("daemon exit");
    assert!(status.success(), "clean exit, got {status:?}");
}

/// Shutdown with work still queued terminates cleanly: four submissions
/// race two workers, so at least two jobs sit in the queue when the
/// shutdown request lands. The workers must drain and join — the
/// original daemon had a lost-wakeup here (the shutdown flag was stored
/// without the queue mutex, so a worker between its shutdown check and
/// its park missed the notification and the process hung; found by
/// `wbsim check --sched` and pinned in-process by
/// `queue_core_drains_before_honoring_shutdown`).
#[test]
fn shutdown_with_queued_jobs_drains_and_exits_cleanly() {
    let mut daemon = spawn_daemon();
    let port = daemon.port;

    for instructions in [2000, 2500, 3000, 3500] {
        let manifest = format!(
            "{{\"schema\":\"wbsim-job/1\",\"kind\":\"table\",\
             \"spec\":{{\"which\":\"6\"}},\
             \"options\":{{\"instructions\":{instructions},\"warmup\":500}}}}"
        );
        let (code, resp) = http_text(port, "POST", "/v1/jobs", &manifest);
        assert_eq!(code, 202, "{resp}");
    }
    let (code, bye) = http_text(port, "POST", "/v1/shutdown", "");
    assert_eq!((code, bye.as_str()), (200, "{\"ok\":true}"));

    // A hang (lost wakeup) shows up as this deadline expiring, not as a
    // wedged CI job.
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = daemon.child.try_wait().expect("poll daemon") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon hung after shutdown");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(status.success(), "clean exit, got {status:?}");
}

/// A request head over the daemon's caps (8 KiB a line, 100 lines) is
/// answered `431` with the usual JSON error body, and the daemon goes on
/// answering. The long line is far longer than the daemon reads, so the
/// refusal arrives only because the daemon drains the rest before it
/// closes: a close with input unread resets the connection.
#[test]
fn an_overlong_header_gets_431_and_the_daemon_still_answers() {
    let daemon = spawn_daemon();
    let port = daemon.port;
    let refused = |head: String| {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(head.as_bytes()).expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("response");
        raw
    };
    let long_line = format!(
        "GET /v1/health HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(64 * 1024)
    );
    let many_lines = format!(
        "GET /v1/health HTTP/1.1\r\n{}\r\n",
        "X-Pad: a\r\n".repeat(101)
    );
    for (head, problem) in [
        (long_line, "header line longer than 8192 bytes"),
        (many_lines, "more than 100 header lines"),
    ] {
        let raw = refused(head);
        assert!(
            raw.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{raw}"
        );
        assert!(
            raw.ends_with(&format!("\r\n\r\n{{\"error\":\"{problem}\"}}")),
            "{raw}"
        );
        let (code, body) = http_text(port, "GET", "/v1/health", "");
        assert_eq!((code, body.as_str()), (200, "{\"ok\":true}"));
    }
}

/// A declared body over the daemon's 4 MiB cap is answered `413` with the
/// usual JSON error body before any of it is read, and the daemon goes on
/// answering.
#[test]
fn an_oversized_body_gets_413_and_the_daemon_still_answers() {
    let daemon = spawn_daemon();
    let port = daemon.port;
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let too_long = 4 * 1024 * 1024 + 1;
    let head = format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {too_long}\r\n\r\n");
    stream.write_all(head.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response");
    assert!(
        raw.starts_with("HTTP/1.1 413 Content Too Large\r\n"),
        "{raw}"
    );
    assert!(
        raw.ends_with(&format!(
            "\r\n\r\n{{\"error\":\"body too large ({too_long} bytes, at most 4194304)\"}}"
        )),
        "{raw}"
    );
    let (code, body) = http_text(port, "GET", "/v1/health", "");
    assert_eq!((code, body.as_str()), (200, "{\"ok\":true}"));
}
