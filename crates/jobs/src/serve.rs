//! `wbsim serve`: a long-running job daemon over plain HTTP/1.1.
//!
//! Built on `std::net::TcpListener` only — no async runtime, no HTTP
//! dependency — because the protocol surface is five endpoints and the
//! heavy lifting (grid execution, caching) lives in [`crate::exec`] and
//! [`crate::store`]. One thread accepts connections and answers the cheap
//! endpoints inline; a bounded worker pool drains the job queue, so a
//! slow sweep never blocks health checks or status polls.
//!
//! Endpoints (all bodies JSON unless noted):
//!
//! - `POST /v1/jobs` — submit a manifest. Malformed or semantically
//!   invalid manifests get a `400` whose body carries the structured
//!   diagnostics. A cache hit completes the job immediately
//!   (`"status":"done","cached":true`) without executing a single cell.
//! - `GET /v1/jobs/<id>` — status poll (`queued | running | done |
//!   failed`), with artifact names once finished.
//! - `GET /v1/jobs/<id>/artifacts/<name>` — fetch one artifact.
//!   `.jsonl` artifacts stream line-by-line as chunked transfer.
//! - `GET /v1/store/stats` — hit/miss/cells-executed counters.
//! - `GET /v1/health` — liveness probe.
//! - `POST /v1/shutdown` — clean shutdown (the process exits 0; an
//!   external SIGTERM works too and simply skips the farewell).

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

use wbsim_types::diagnostics::{Diagnostic, Severity};
use wbsim_types::json::escape;
use wbsim_types::sync::atomic::{AtomicBool, AtomicU64};
use wbsim_types::sync::{Condvar, Mutex, Ordering};

use crate::exec::{Executor, JobResult};
use crate::manifest::Manifest;
use crate::store::{Artifact, JobOutcome, Store};

/// Set this environment variable to a job-kind tag (`table`, `check`, …)
/// to make workers panic at the start of every job of that kind — the
/// test hook behind the worker-panic e2e coverage.
pub const TEST_PANIC_ENV: &str = "WBSIM_TEST_PANIC_KIND";

/// Largest accepted request body (a manifest, possibly carrying a config
/// file's text).
const MAX_BODY: usize = 4 * 1024 * 1024;

/// How long a connection may dawdle before the accept loop moves on.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Default worker-pool width. Two is deliberately small: jobs are
/// internally parallel already (`options.jobs`), so daemon workers govern
/// *concurrent submissions*, not cores.
pub const DEFAULT_WORKERS: usize = 2;

/// Default listen address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7077";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Queued,
    Running,
    Done,
    Failed,
}

impl Status {
    fn name(self) -> &'static str {
        match self {
            Status::Queued => "queued",
            Status::Running => "running",
            Status::Done => "done",
            Status::Failed => "failed",
        }
    }
}

struct Job {
    manifest: Manifest,
    status: Status,
    cached: bool,
    result: Option<JobResult>,
}

/// The daemon's queue/shutdown kernel: everything the accept thread and
/// the worker pool synchronize on, and nothing else — small enough that
/// the `serve-drain` sched harness model-checks exactly this type under
/// `wbsim check --sched`.
///
/// The drain contract: a worker pops until the queue is empty *and*
/// shutdown is flagged, so every job submitted before `begin_shutdown`
/// still reaches a terminal state.
pub(crate) struct QueueCore {
    queue: Mutex<VecDeque<u64>>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Injected fault: `begin_shutdown` wakes only one parked worker.
    lost_wakeup_fault: bool,
}

impl QueueCore {
    pub(crate) fn new() -> Self {
        QueueCore {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            lost_wakeup_fault: false,
        }
    }

    /// A kernel with the `lost-wakeup` fault injected: shutdown signals
    /// `notify_one`, stranding all but one parked worker. Only the sched
    /// harnesses construct this.
    pub(crate) fn with_lost_wakeup_fault() -> Self {
        QueueCore {
            lost_wakeup_fault: true,
            ..QueueCore::new()
        }
    }

    /// Enqueues a job id and wakes one worker to take it.
    pub(crate) fn push(&self, id: u64) {
        self.queue.lock().push_back(id);
        self.wake.notify_one();
    }

    /// Pops the next job id, parking until one arrives. Returns `None`
    /// only when the queue is drained *and* shutdown has begun.
    pub(crate) fn pop_or_park(&self) -> Option<u64> {
        let mut q = self.queue.lock();
        loop {
            if let Some(id) = q.pop_front() {
                return Some(id);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            q = self.wake.wait(q);
        }
    }

    /// Flags shutdown and wakes every parked worker so the pool can
    /// drain and join.
    ///
    /// The flag is stored *while holding the queue mutex*. A naked
    /// `store` + `notify_all` loses the race against a worker that has
    /// checked the flag under the mutex but not yet parked: the notify
    /// fires before the worker reaches the condvar and the worker sleeps
    /// forever. Holding the mutex forces the store to happen either
    /// before the worker's check or after the worker is parked — the
    /// `serve-drain` sched harness found exactly this ordering and pins
    /// the fix.
    pub(crate) fn begin_shutdown(&self) {
        {
            let _q = self.queue.lock();
            self.shutdown.store(true, Ordering::SeqCst);
        }
        if self.lost_wakeup_fault {
            self.wake.notify_one();
        } else {
            self.wake.notify_all();
        }
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

struct Daemon {
    store: Store,
    jobs: Mutex<HashMap<u64, Job>>,
    next_id: AtomicU64,
    core: QueueCore,
}

/// One parsed HTTP request.
#[derive(Debug)]
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Reads one HTTP/1.1 request (request line, headers, `Content-Length`
/// body). Returns a human-readable problem for anything malformed.
fn read_request(r: &mut impl BufRead) -> Result<Request, String> {
    let mut line = String::new();
    r.read_line(&mut line).map_err(|e| e.to_string())?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("request line has no path")?.to_string();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        r.read_line(&mut h).map_err(|e| e.to_string())?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body too large ({content_length} bytes)"));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).map_err(|e| e.to_string())?;
    Ok(Request { method, path, body })
}

/// Writes a complete response. Every response goes through one
/// [`BufWriter`], so the socket sees a few large writes rather than one per
/// header piece or body line.
fn respond(w: &mut impl Write, code: u16, reason: &str, body: &[u8]) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    write!(
        w,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()
}

/// Streams a JSONL artifact as chunked transfer, one chunk per line, so a
/// client can validate events as they arrive. Buffered like [`respond`].
fn respond_chunked_jsonl(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    write!(
        w,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    let mut rest = body;
    while !rest.is_empty() {
        let line_end = rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
        let (line, tail) = rest.split_at(line_end);
        write!(w, "{:x}\r\n", line.len())?;
        w.write_all(line)?;
        w.write_all(b"\r\n")?;
        rest = tail;
    }
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

fn error_body(message: &str) -> Vec<u8> {
    format!("{{\"error\":{}}}", escape(message)).into_bytes()
}

/// The failure result recorded for a job whose execution panicked. The
/// outcome carries the structured `JOB020` diagnostic (in the `failed`
/// message and as a `diagnostics.json` artifact) and is deliberately
/// *not* inserted into the store: a panic says nothing about what a
/// healthy execution of the same key would produce.
fn panicked_job_result(manifest: &Manifest, payload: &(dyn std::any::Any + Send)) -> JobResult {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    let diag = Diagnostic::new("JOB020", Severity::Error, "job".to_string())
        .with_message(format!("job execution panicked; worker recovered: {msg}"));
    let failed = format!("JOB020: job execution panicked; worker recovered: {msg}");
    JobResult {
        key: manifest.cache_key(),
        cached: false,
        outcome: Arc::new(JobOutcome {
            artifacts: vec![Artifact {
                name: "diagnostics.json".to_string(),
                bytes: format!("{{\"diagnostics\":[{}]}}", diag.to_json()).into_bytes(),
            }],
            cells: 0,
            failed: Some(failed),
        }),
    }
}

impl Daemon {
    fn new() -> Self {
        Daemon {
            store: Store::new(),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            core: QueueCore::new(),
        }
    }

    /// `POST /v1/jobs`: parse, validate, and either answer from the cache
    /// on the spot or enqueue for the worker pool.
    fn submit(&self, body: &[u8]) -> (u16, &'static str, Vec<u8>) {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return (400, "Bad Request", error_body("body is not UTF-8")),
        };
        let manifest = match Manifest::from_json(text) {
            Ok(m) => m,
            Err(diags) => {
                let rendered: Vec<String> = diags
                    .iter()
                    .map(wbsim_types::diagnostics::Diagnostic::to_json)
                    .collect();
                return (
                    400,
                    "Bad Request",
                    format!("{{\"diagnostics\":[{}]}}", rendered.join(",")).into_bytes(),
                );
            }
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let key = manifest.cache_key();
        // A cache hit finishes synchronously: Executor::run only copies an
        // Arc in that case, so the accept thread stays responsive.
        let hit = self.store.get(key).is_some();
        let mut job = Job {
            manifest,
            status: Status::Queued,
            cached: hit,
            result: None,
        };
        if hit {
            let result = Executor::new(&self.store).run(&job.manifest);
            job.status = if result.outcome.failed.is_some() {
                Status::Failed
            } else {
                Status::Done
            };
            job.result = Some(result);
        }
        let status = job.status;
        self.jobs.lock().insert(id, job);
        if !hit {
            self.core.push(id);
        }
        let body = format!(
            "{{\"id\":{id},\"status\":{},\"cached\":{},\"key\":{}}}",
            escape(status.name()),
            hit,
            escape(&key.to_hex())
        );
        (202, "Accepted", body.into_bytes())
    }

    /// `GET /v1/jobs/<id>`.
    fn job_status(&self, id: u64) -> (u16, &'static str, Vec<u8>) {
        let jobs = self.jobs.lock();
        let Some(job) = jobs.get(&id) else {
            return (404, "Not Found", error_body(&format!("no job {id}")));
        };
        let (artifacts, cells, failed) = match &job.result {
            None => ("null".to_string(), "null".to_string(), "null".to_string()),
            Some(r) => (
                format!(
                    "[{}]",
                    r.outcome
                        .artifacts
                        .iter()
                        .map(|a| escape(&a.name))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
                r.outcome.cells.to_string(),
                r.outcome
                    .failed
                    .as_deref()
                    .map_or("null".to_string(), escape),
            ),
        };
        let key = job
            .result
            .as_ref()
            .map_or_else(|| job.manifest.cache_key(), |r| r.key);
        let body = format!(
            "{{\"id\":{id},\"status\":{},\"cached\":{},\"key\":{},\
             \"artifacts\":{artifacts},\"cells\":{cells},\"failed\":{failed}}}",
            escape(job.status.name()),
            job.cached,
            escape(&key.to_hex())
        );
        (200, "OK", body.into_bytes())
    }

    /// `GET /v1/jobs/<id>/artifacts/<name>` — the artifact bytes, or an
    /// error body. The bool says "stream as chunked JSONL".
    fn artifact(&self, id: u64, name: &str) -> Result<(Vec<u8>, bool), (u16, Vec<u8>)> {
        let jobs = self.jobs.lock();
        let Some(job) = jobs.get(&id) else {
            return Err((404, error_body(&format!("no job {id}"))));
        };
        let Some(result) = &job.result else {
            return Err((
                409,
                error_body(&format!("job {id} is still {}", job.status.name())),
            ));
        };
        match result.outcome.artifact(name) {
            Some(a) => Ok((a.bytes.clone(), name.ends_with(".jsonl"))),
            None => Err((
                404,
                error_body(&format!("job {id} has no artifact {name:?}")),
            )),
        }
    }

    fn stats_body(&self) -> Vec<u8> {
        let s = self.store.stats();
        format!(
            "{{\"hits\":{},\"misses\":{},\"cells_executed\":{},\"entries\":{}}}",
            s.hits, s.misses, s.cells_executed, s.entries
        )
        .into_bytes()
    }

    /// One worker: drain the queue until shutdown. A panicking job is
    /// caught and recorded as a failure ([`Diagnostic`] `JOB020`) — the
    /// worker survives to take the next job, so one bad job never shrinks
    /// the pool.
    fn work(&self) {
        while let Some(id) = self.core.pop_or_park() {
            let manifest = {
                let mut jobs = self.jobs.lock();
                let job = jobs.get_mut(&id).expect("queued job exists");
                job.status = Status::Running;
                job.manifest.clone()
            };
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                if std::env::var(TEST_PANIC_ENV).is_ok_and(|k| k == manifest.kind.tag()) {
                    panic!(
                        "injected test panic ({TEST_PANIC_ENV}={})",
                        manifest.kind.tag()
                    );
                }
                Executor::new(&self.store).run(&manifest)
            }))
            .unwrap_or_else(|payload| panicked_job_result(&manifest, payload.as_ref()));
            let mut jobs = self.jobs.lock();
            let job = jobs.get_mut(&id).expect("running job exists");
            job.status = if result.outcome.failed.is_some() {
                Status::Failed
            } else {
                Status::Done
            };
            job.cached = result.cached;
            job.result = Some(result);
        }
    }

    /// Routes one request. Returns `true` when the daemon should stop.
    fn handle(&self, stream: &mut TcpStream) -> bool {
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let req = match read_request(&mut reader) {
            Ok(r) => r,
            Err(e) => {
                let _ = respond(stream, 400, "Bad Request", &error_body(&e));
                return false;
            }
        };
        let segments: Vec<&str> = req.path.trim_matches('/').split('/').collect();
        let outcome = match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["v1", "health"]) => respond(stream, 200, "OK", b"{\"ok\":true}"),
            ("GET", ["v1", "store", "stats"]) => respond(stream, 200, "OK", &self.stats_body()),
            ("POST", ["v1", "jobs"]) => {
                let (code, reason, body) = self.submit(&req.body);
                respond(stream, code, reason, &body)
            }
            ("GET", ["v1", "jobs", id]) => match id.parse::<u64>() {
                Ok(id) => {
                    let (code, reason, body) = self.job_status(id);
                    respond(stream, code, reason, &body)
                }
                Err(_) => respond(
                    stream,
                    400,
                    "Bad Request",
                    &error_body("job id must be a number"),
                ),
            },
            ("GET", ["v1", "jobs", id, "artifacts", name]) => match id.parse::<u64>() {
                Ok(id) => match self.artifact(id, name) {
                    Ok((bytes, jsonl)) if jsonl => respond_chunked_jsonl(stream, &bytes),
                    Ok((bytes, _)) => respond(stream, 200, "OK", &bytes),
                    Err((code, body)) => {
                        let reason = if code == 404 { "Not Found" } else { "Conflict" };
                        respond(stream, code, reason, &body)
                    }
                },
                Err(_) => respond(
                    stream,
                    400,
                    "Bad Request",
                    &error_body("job id must be a number"),
                ),
            },
            ("POST", ["v1", "shutdown"]) => {
                self.core.begin_shutdown();
                respond(stream, 200, "OK", b"{\"ok\":true}")
            }
            _ => respond(
                stream,
                404,
                "Not Found",
                &error_body(&format!("no route {} {}", req.method, req.path)),
            ),
        };
        // A client that vanished mid-response is its own problem.
        let _ = outcome;
        self.core.is_shutdown()
    }
}

/// Runs the daemon until `POST /v1/shutdown` (or the process is killed).
/// Prints one line to stdout announcing the bound address — with
/// `--addr 127.0.0.1:0` that line is how callers learn the real port.
pub fn serve(addr: &str, workers: usize) -> Result<(), Box<dyn Error>> {
    let workers = workers.max(1);
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    println!("wbsim serve listening on http://{local} ({workers} workers)");
    io::stdout().flush()?;
    let daemon = Daemon::new();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| daemon.work());
        }
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            if daemon.handle(&mut stream) {
                break;
            }
        }
        // Unblock any worker parked on the condvar so the scope can join.
        daemon.core.begin_shutdown();
    });
    // The farewell is best-effort: the launcher may have closed our
    // stdout long ago, and EPIPE must not turn a clean shutdown into a
    // panic.
    let _ = writeln!(io::stdout(), "wbsim serve: shut down cleanly");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_minimal_post() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}";
        let req = read_request(&mut Cursor::new(&raw[..])).expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = read_request(&mut Cursor::new(raw.as_bytes())).expect_err("too large");
        assert!(err.contains("too large"), "{err}");
    }

    #[test]
    fn submit_rejects_malformed_manifests_with_diagnostics() {
        let d = Daemon::new();
        let (code, _, body) = d.submit(b"{\"schema\":\"wbsim-job/1\",\"kind\":\"frobnicate\"}");
        assert_eq!(code, 400);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"diagnostics\""), "{text}");
        assert!(text.contains("JOB004"), "{text}");
    }

    #[test]
    fn submit_and_worker_complete_a_static_table_job() {
        let d = Daemon::new();
        let manifest =
            b"{\"schema\":\"wbsim-job/1\",\"kind\":\"table\",\"spec\":{\"which\":\"3\"}}";
        let (code, _, body) = d.submit(manifest);
        assert_eq!(code, 202);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"id\":1"), "{text}");
        assert!(text.contains("\"cached\":false"), "{text}");
        // Drain the queue inline, exactly as a worker would.
        let id = d.core.pop_or_park().unwrap();
        let manifest = d.jobs.lock().get(&id).unwrap().manifest.clone();
        let result = Executor::new(&d.store).run(&manifest);
        {
            let mut jobs = d.jobs.lock();
            let job = jobs.get_mut(&id).unwrap();
            job.status = Status::Done;
            job.result = Some(result);
        }
        let (code, _, body) = d.job_status(id);
        assert_eq!(code, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"status\":\"done\""), "{text}");
        assert!(text.contains("tables.txt"), "{text}");
        // Resubmission is now a synchronous cache hit.
        let (code, _, body) = d.submit(manifest.to_json().as_bytes());
        assert_eq!(code, 202);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"cached\":true"), "{text}");
        assert!(text.contains("\"status\":\"done\""), "{text}");
        assert_eq!(d.store.stats().hits, 1);
    }

    #[test]
    fn queue_core_drains_before_honoring_shutdown() {
        let core = QueueCore::new();
        core.push(7);
        core.push(8);
        core.begin_shutdown();
        // Jobs enqueued before shutdown still come out, in order.
        assert_eq!(core.pop_or_park(), Some(7));
        assert_eq!(core.pop_or_park(), Some(8));
        assert_eq!(core.pop_or_park(), None);
        assert!(core.is_shutdown());
    }

    #[test]
    fn a_panicking_job_fails_with_job020_and_the_worker_survives() {
        let d = Daemon::new();
        let manifest =
            b"{\"schema\":\"wbsim-job/1\",\"kind\":\"table\",\"spec\":{\"which\":\"3\"}}";
        let (code, _, _) = d.submit(manifest);
        assert_eq!(code, 202);
        // Simulate the panic a worker would catch.
        let m = d.jobs.lock().get(&1).unwrap().manifest.clone();
        let payload: Box<dyn std::any::Any + Send> = Box::new("cell exploded".to_string());
        let result = panicked_job_result(&m, payload.as_ref());
        {
            let mut jobs = d.jobs.lock();
            let job = jobs.get_mut(&1).unwrap();
            job.status = Status::Failed;
            job.result = Some(result);
        }
        let (code, _, body) = d.job_status(1);
        assert_eq!(code, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"status\":\"failed\""), "{text}");
        assert!(text.contains("JOB020"), "{text}");
        assert!(text.contains("cell exploded"), "{text}");
        // The diagnostics artifact carries the structured form.
        let (bytes, _) = d.artifact(1, "diagnostics.json").unwrap();
        let doc = wbsim_types::json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let diags = doc.get("diagnostics").and_then(|d| d.as_array()).unwrap();
        assert_eq!(
            diags[0].get("code").and_then(|c| c.as_str()),
            Some("JOB020")
        );
        // The panicked outcome never enters the store.
        assert_eq!(d.store.stats().entries, 0);
    }

    #[test]
    fn chunked_jsonl_framing_is_decodable() {
        let mut out = Vec::new();
        respond_chunked_jsonl(&mut out, b"{\"a\":1}\n{\"b\":2}\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"), "{text}");
    }

    /// A sink that counts the writes reaching it, as a socket counts
    /// syscalls.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn responses_reach_the_socket_in_a_few_writes() {
        let body: Vec<u8> = (0..1000)
            .flat_map(|i| format!("{{\"event\":{i}}}\n").into_bytes())
            .collect();
        let mut sink = CountingSink::default();
        respond_chunked_jsonl(&mut sink, &body).unwrap();
        assert!(sink.writes <= 8, "{} writes for 1000 lines", sink.writes);
        // Still one chunk per line, decoding back to the body.
        let text = String::from_utf8(sink.bytes).unwrap();
        let (_, mut rest) = text.split_once("\r\n\r\n").expect("header");
        let (mut decoded, mut chunks) = (String::new(), 0);
        loop {
            let (size, tail) = rest.split_once("\r\n").expect("chunk size");
            let size = usize::from_str_radix(size, 16).expect("hex size");
            if size == 0 {
                break;
            }
            decoded.push_str(&tail[..size]);
            chunks += 1;
            rest = tail[size..].strip_prefix("\r\n").expect("chunk end");
        }
        assert_eq!((decoded.as_bytes(), chunks), (&body[..], 1000));

        let mut sink = CountingSink::default();
        respond(&mut sink, 200, "OK", &body).unwrap();
        assert!(
            sink.writes <= 2,
            "{} writes for header and body",
            sink.writes
        );
        assert!(sink.bytes.ends_with(&body));
    }
}
