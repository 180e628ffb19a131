//! `serve-mix`: the release `wbsim serve --workers 2`, run as a child
//! process, under a closed loop of 2 client connections. Each client
//! sends its next manifest only after fetching every artifact of the
//! previous one.
//!
//! The seeded mix: every fifth submission of a client is a new job, the
//! other four repeat one of that client's earlier manifests (which has
//! completed, so it must be a store hit). New jobs cycle through table 5/7
//! jobs at a fresh seed, lint-only `check` jobs on varied configurations,
//! and (one in 40) short `trace` jobs whose `events.jsonl` artifacts are
//! megabytes and are streamed chunked. Every manifest sets
//! `options.jobs = 1`. The mix is an assumption, not recorded use of the
//! daemon: `perfbench/README.md` says where each share comes from.
//!
//! A repetition is one fresh daemon serving the whole mix.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use wbsim_jobs::{execute, CheckConfig, CheckSpec, JobKind, Manifest, Options};
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_types::config::MachineConfig;
use wbsim_types::json::{parse, Json};
use wbsim_types::policy::LoadHazardPolicy;

use crate::report::Report;
use crate::spans::{SpanId, Tracer};
use crate::util::{
    fnv64, median, peak_rss_mb, percentile, ratio, repeat, secs, Rng, MIN_REPS, P99_SAMPLES,
};
use crate::Args;

/// Submissions per client per repetition; one in five is a new job.
const SUBMISSIONS: usize = 870;
/// Extra daemon start-ups for `setup_s` an untraced run makes before its
/// first repetition and after each one, so that, like `wall_s`, it samples
/// the host's speed over the whole run.
const SETUP_SPAWNS: usize = 6;
const POLL: Duration = Duration::from_millis(1);
const TABLE_INSTRUCTIONS: u64 = 3_000;
const TABLE_WARMUP: u64 = 1_000;
const TRACE_INSTRUCTIONS: u64 = 12_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Table,
    Trace,
    Check,
}

/// One client's seeded plan: its distinct manifests, and the manifest
/// each submission sends.
struct Plan {
    manifests: Vec<(Kind, String)>,
    sends: Vec<usize>,
}

fn plan(seed: u64, client: u64) -> Plan {
    let mut rng = Rng::new(seed ^ (client + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let base_seed = 1 + Rng::new(seed).next_u64() % 1_000_000_000;
    let baseline = wbsim_types::file_config::to_config_string(&MachineConfig::baseline());
    let mut manifests: Vec<(Kind, String)> = Vec::new();
    let mut sends = Vec::with_capacity(SUBMISSIONS);
    for i in 0..SUBMISSIONS {
        if i % 5 != 0 {
            // Repeats follow the new-job mix exactly (one trace per 40);
            // the seed picks which earlier manifest of that kind.
            let r = i - i / 5 - 1;
            let want = match r % 40 {
                20 => Kind::Trace,
                _ if r % 2 == 0 => Kind::Table,
                _ => Kind::Check,
            };
            let pool: Vec<usize> = (0..manifests.len())
                .filter(|&m| manifests[m].0 == want)
                .collect();
            let pool = if pool.is_empty() {
                (0..manifests.len()).collect()
            } else {
                pool
            };
            sends.push(pool[rng.below(pool.len() as u64) as usize]);
            continue;
        }
        let n = manifests.len();
        // Distinct per client and job: a new job never hits the store.
        let seed = base_seed + client * 10_000_000 + n as u64;
        let options = |instructions, warmup| Options {
            instructions,
            warmup,
            seed,
            check_data: false,
            jobs: 1,
            engine: wbsim_sim::Engine::EventDriven,
        };
        // Per 40 new jobs: one trace, 20 tables (5 and 7 alternating),
        // 19 checks. Trace artifacts are megabytes streamed line by line,
        // so they stay rare enough for a run to reach its cold samples.
        let (kind, m) = match (n % 40, n % 4) {
            (20, _) => (
                Kind::Trace,
                Manifest {
                    kind: JobKind::Trace {
                        // Every seed traces the same models, so artifact
                        // sizes do not vary with the seed.
                        bench: BenchmarkModel::ALL[(client as usize * 8 + n / 40) % 17]
                            .name()
                            .to_string(),
                        config: baseline.clone(),
                        mshrs: 0,
                    },
                    options: options(TRACE_INSTRUCTIONS, 0),
                },
            ),
            (_, 0 | 2) => (
                Kind::Table,
                Manifest {
                    kind: JobKind::Table {
                        which: if n.is_multiple_of(4) { "5" } else { "7" }.into(),
                    },
                    options: options(TABLE_INSTRUCTIONS, TABLE_WARMUP),
                },
            ),
            _ => {
                let depth = 2 + rng.below(11) as usize;
                let spec = CheckSpec {
                    config: CheckConfig {
                        file: None,
                        depth: Some(depth),
                        retire_at: Some(1 + rng.below(depth as u64) as usize),
                        hazard: Some(LoadHazardPolicy::ALL[rng.below(4) as usize]),
                    },
                    ..CheckSpec::default()
                };
                (
                    Kind::Check,
                    Manifest {
                        kind: JobKind::Check(spec),
                        options: options(TABLE_INSTRUCTIONS, TABLE_WARMUP),
                    },
                )
            }
        };
        manifests.push((kind, m.to_json()));
        sends.push(n);
    }
    Plan { manifests, sends }
}

/// One HTTP/1.1 exchange on a fresh connection (the daemon closes every
/// connection after its response). Returns the status and the decoded
/// body, read to the last byte.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .and_then(|()| s.write_all(body))
    .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator")?;
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("no status code")?;
    let mut rest = &raw[head_end + 4..];
    if !head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        return Ok((status, rest.to_vec()));
    }
    let mut out = Vec::new();
    loop {
        let eol = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("bad chunk header")?;
        let size = usize::from_str_radix(
            std::str::from_utf8(&rest[..eol]).map_err(|e| e.to_string())?,
            16,
        )
        .map_err(|e| format!("bad chunk size: {e}"))?;
        rest = &rest[eol + 2..];
        if size == 0 {
            return Ok((status, out));
        }
        if rest.len() < size + 2 {
            return Err("truncated chunk".into());
        }
        out.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
}

fn json(body: &[u8]) -> Result<Json, String> {
    parse(&String::from_utf8_lossy(body)).map_err(|e| format!("bad JSON reply: {e}"))
}

/// A running daemon; dropping it stops the process and waits for it.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts `wbsim serve` on an ephemeral port and waits for the first
    /// healthy `/v1/health`. Returns the daemon and that start-up time.
    fn start(wbsim: &Path) -> Result<(Daemon, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(wbsim)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", wbsim.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|o| BufReader::new(o).read_line(&mut line));
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut d = match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Daemon { child, addr },
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not announce its address: {line:?}"));
            }
        };
        loop {
            if let Ok((200, _)) = http(d.addr, "GET", "/v1/health", b"") {
                return Ok((d, secs(t)));
            }
            if secs(t) > 30.0 {
                d.stop();
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Asks for a clean shutdown and waits for the process to exit.
    fn stop(&mut self) {
        let _ = http(self.addr, "POST", "/v1/shutdown", b"");
        let t = Instant::now();
        while secs(t) < 10.0 {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.stop();
        }
    }
}

/// One submission, as the client saw it.
struct Request {
    cold: bool,
    total_ms: f64,
    post_ms: f64,
    wait_ms: f64,
    polls: u32,
    artifact_ms: Vec<f64>,
    bytes: u64,
}

/// Artifact names with their length and digest.
type Digests = Vec<(String, usize, u64)>;

/// One submission: POST, poll until done, fetch every artifact. Its spans
/// are keyed by the job id the daemon assigns.
fn submit(
    addr: SocketAddr,
    manifest: &str,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(bool, Digests, Request), String> {
    let t0 = Instant::now();
    let mut post = None;
    let (code, body) = tracer.span("jobs.serve.post", parent, 0, |ps| {
        post = ps;
        http(addr, "POST", "/v1/jobs", manifest.as_bytes())
    })?;
    let post_ms = secs(t0) * 1e3;
    let reply = json(&body)?;
    if code != 202 {
        return Err(format!(
            "POST answered {code}: {}",
            String::from_utf8_lossy(&body)
        ));
    }
    let id = reply.get("id").and_then(Json::as_u64).ok_or("no job id")?;
    tracer.set_unit(parent, id);
    tracer.set_unit(post, id);
    let cached = reply
        .get("cached")
        .and_then(Json::as_bool)
        .ok_or("no cached flag")?;
    let t_wait = Instant::now();
    let mut polls = 0;
    let names: Vec<String> = loop {
        polls += 1;
        let (code, body) = tracer.span("jobs.serve.poll", parent, id, |_| {
            http(addr, "GET", &format!("/v1/jobs/{id}"), b"")
        })?;
        let status = json(&body)?;
        match status.get("status").and_then(Json::as_str) {
            Some("done") if code == 200 => {
                break status
                    .get("artifacts")
                    .and_then(Json::as_array)
                    .ok_or("done job without artifacts")?
                    .iter()
                    .filter_map(|a| a.as_str().map(str::to_string))
                    .collect();
            }
            Some("queued" | "running") => std::thread::sleep(POLL),
            _ => return Err(format!("job {id}: {}", String::from_utf8_lossy(&body))),
        }
    };
    let wait_ms = secs(t_wait) * 1e3;
    let mut digests = Vec::new();
    let mut artifact_ms = Vec::new();
    for name in names {
        let t = Instant::now();
        let (code, bytes) = tracer.span("jobs.serve.artifact", parent, id, |_| {
            http(addr, "GET", &format!("/v1/jobs/{id}/artifacts/{name}"), b"")
        })?;
        artifact_ms.push(secs(t) * 1e3);
        if code != 200 {
            return Err(format!("artifact {name} of job {id}: status {code}"));
        }
        digests.push((name, bytes.len(), fnv64(&bytes)));
    }
    let bytes = digests.iter().map(|d| d.1 as u64).sum();
    Ok((
        cached,
        digests,
        Request {
            cold: !cached,
            total_ms: secs(t0) * 1e3,
            post_ms,
            wait_ms,
            polls,
            artifact_ms,
            bytes,
        },
    ))
}

/// What one repetition (one daemon) produced.
struct RepOut {
    requests: Vec<Request>,
    /// Per client: the cold run's artifact digests of each manifest.
    cold: Vec<Vec<Digests>>,
    problems: Vec<String>,
    stats: Json,
    peak_mb: f64,
    setup_s: f64,
    /// Host seconds of the closed loop (daemon start and stop excluded).
    loop_s: f64,
}

fn client(
    addr: SocketAddr,
    c: usize,
    plan: &Plan,
    tracer: &Tracer,
) -> (Vec<Request>, Vec<Digests>, Vec<String>) {
    let mut seen: Vec<Digests> = vec![Vec::new(); plan.manifests.len()];
    let mut requests = Vec::with_capacity(plan.sends.len());
    let mut problems = Vec::new();
    for (i, &m) in plan.sends.iter().enumerate() {
        let repeat = !seen[m].is_empty();
        let r = tracer.span("jobs.serve.request", None, 0, |rs| {
            submit(addr, &plan.manifests[m].1, tracer, rs)
        });
        match r {
            Ok((cached, digests, req)) => {
                if cached != repeat {
                    problems.push(format!(
                        "client {c} send {i}: cached={cached}, expected {repeat}"
                    ));
                }
                if repeat && digests != seen[m] {
                    problems.push(format!(
                        "client {c} send {i}: hit artifacts differ from the cold run"
                    ));
                }
                if !repeat {
                    seen[m] = digests;
                }
                requests.push(req);
            }
            Err(e) => problems.push(format!("client {c} send {i}: {e}")),
        }
    }
    (requests, seen, problems)
}

fn rep(wbsim: &Path, plans: &[Plan], tracer: &Tracer) -> Result<RepOut, String> {
    let (mut daemon, setup_s) = Daemon::start(wbsim)?;
    let addr = daemon.addr;
    let t = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, p)| s.spawn(move || client(addr, c, p, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let loop_s = secs(t);
    let stats = http(addr, "GET", "/v1/store/stats", b"").and_then(|(_, b)| json(&b));
    let peak_mb = peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(0.0);
    daemon.stop();
    let mut out = RepOut {
        requests: Vec::new(),
        cold: Vec::new(),
        problems: Vec::new(),
        stats: stats?,
        peak_mb,
        setup_s,
        loop_s,
    };
    for (requests, cold, problems) in results {
        out.requests.extend(requests);
        out.cold.push(cold);
        out.problems.extend(problems);
    }
    Ok(out)
}

fn check_rep(tag: &str, r: &RepOut, plans: &[Plan], report: &mut Report) {
    report.ok_ops(r.requests.len() as u64);
    for p in &r.problems {
        report.check(false, || format!("{tag}: {p}"));
    }
    let repeats: u64 = plans
        .iter()
        .map(|p| (p.sends.len() - p.manifests.len()) as u64)
        .sum();
    let news: u64 = plans.iter().map(|p| p.manifests.len() as u64).sum();
    let field = |k: &str| r.stats.get(k).and_then(Json::as_u64);
    report.check(field("hits") == Some(repeats), || {
        format!(
            "{tag}: store hits {:?} != {repeats} repeats sent",
            field("hits")
        )
    });
    report.check(field("misses") == Some(news), || {
        format!(
            "{tag}: store misses {:?} != {news} new jobs",
            field("misses")
        )
    });
    report.check(field("entries") == Some(news), || {
        format!("{tag}: store entries {:?} != {news}", field("entries"))
    });
}

/// Samples of artifacts must match `wbsim_jobs::execute` on the same
/// manifest, in process. Returns each sampled manifest's execute time and
/// the host time its streams take to generate.
fn against_execute(
    plans: &[Plan],
    cold: &[Vec<Digests>],
    sample: usize,
    report: &mut Report,
) -> (Vec<f64>, f64, f64, u64) {
    let (mut exec_ms, mut exec_s, mut gen_s, mut gen_instr) = (Vec::new(), 0.0, 0.0, 0u64);
    for (c, p) in plans.iter().enumerate() {
        for (m, (kind, text)) in p.manifests.iter().enumerate().take(sample) {
            let manifest = Manifest::from_json(text).expect("generated manifests parse");
            let t = Instant::now();
            let out = execute(&manifest);
            let d = secs(t);
            exec_ms.push(d * 1e3);
            exec_s += d;
            let digests: Digests = out
                .artifacts
                .iter()
                .map(|a| (a.name.clone(), a.bytes.len(), fnv64(&a.bytes)))
                .collect();
            report.check(out.failed.is_none() && digests == cold[c][m], || {
                format!("client {c} manifest {m} ({kind:?}): served artifacts differ from execute")
            });
            // The same streams the job generates, timed on their own.
            let o = &manifest.options;
            let streams: Vec<(BenchmarkModel, u64)> = match &manifest.kind {
                JobKind::Table { which } => {
                    let per = if which == "7" { 3 } else { 1 };
                    BenchmarkModel::ALL
                        .iter()
                        .flat_map(|&b| std::iter::repeat_n((b, o.instructions + o.warmup), per))
                        .collect()
                }
                JobKind::Trace { bench, .. } => vec![(
                    BenchmarkModel::from_name(bench).expect("known"),
                    o.instructions,
                )],
                _ => Vec::new(),
            };
            for (b, n) in streams {
                let t = Instant::now();
                let ops = b.stream(o.seed, n);
                gen_s += secs(t);
                gen_instr += ops
                    .iter()
                    .map(wbsim_types::op::Op::instructions)
                    .sum::<u64>();
            }
        }
    }
    (
        exec_ms,
        gen_s / exec_s.max(f64::MIN_POSITIVE),
        gen_s,
        gen_instr,
    )
}

pub fn run(args: &Args, report: &mut Report) {
    let wbsim = args.wbsim.as_deref().unwrap_or_else(|| {
        crate::die("serve-mix needs --wbsim PATH (the release wbsim binary)".into())
    });
    let mut setups = Vec::new();
    let spawns = |setups: &mut Vec<f64>| {
        if args.trace {
            return;
        }
        for _ in 0..SETUP_SPAWNS {
            let (mut d, s) = Daemon::start(wbsim).unwrap_or_else(crate::die);
            d.stop();
            setups.push(s);
        }
    };
    spawns(&mut setups);
    let plans: Vec<Plan> = (0..2).map(|c| plan(args.seed, c)).collect();
    let cold_per_rep: usize = plans.iter().map(|p| p.manifests.len()).sum();

    // Daemons a run needs for the cold p99 to have ten samples beyond it.
    let p99_reps = P99_SAMPLES.div_ceil(cold_per_rep);
    let off = Tracer::new(false);
    let budget = if args.trace { 0.0 } else { args.seconds };
    let min_reps = if args.trace {
        1
    } else {
        p99_reps.max(MIN_REPS)
    };
    let reps = repeat(budget, min_reps, |_| {
        let r = rep(wbsim, &plans, &off);
        spawns(&mut setups);
        r
    });
    let outs: Vec<RepOut> = reps
        .into_iter()
        .map(|(_, r)| r.unwrap_or_else(crate::die))
        .collect();
    for (i, r) in outs.iter().enumerate() {
        check_rep(&format!("rep {i}"), r, &plans, report);
        setups.push(r.setup_s);
    }
    let walls: Vec<f64> = outs.iter().map(|r| r.loop_s).collect();
    let wall_s = median(&walls);
    let all: Vec<&Request> = outs.iter().flat_map(|r| &r.requests).collect();
    println!(
        "repetitions of {} submissions ({} new jobs each): {walls:.4?} s",
        plans.iter().map(|p| p.sends.len()).sum::<usize>(),
        cold_per_rep
    );

    if !args.trace {
        against_execute(&plans, &outs[0].cold, 4, report);
        report.metric("wall_s", wall_s, "s");
        report.metric("setup_s", median(&setups), "s");
        let peaks: Vec<f64> = outs.iter().map(|r| r.peak_mb).collect();
        report.metric("peak_rss_mb", median(&peaks), "MiB");
        for (name, cold) in [("hit", false), ("cold", true)] {
            let ms: Vec<f64> = all
                .iter()
                .filter(|r| r.cold == cold)
                .map(|r| r.total_ms)
                .collect();
            report.print_pct(&format!("{name}_ms_p50"), median(&ms), "ms", ms.len());
            report.print_pct(
                &format!("{name}_ms_p99"),
                percentile(&ms, 99.0),
                "ms",
                ms.len(),
            );
        }
        report.print(
            "jobs_per_s",
            ratio(all.len() as f64, walls.iter().sum()),
            "1/s",
        );
        return;
    }

    // Traced daemons, their requests pooled for the percentiles; the last
    // one's spans are kept.
    let traced_reps: Vec<(RepOut, Tracer)> = (0..p99_reps)
        .map(|i| {
            let tracer = Tracer::new(true);
            let r = rep(wbsim, &plans, &tracer).unwrap_or_else(crate::die);
            check_rep(&format!("traced rep {i}"), &r, &plans, report);
            (r, tracer)
        })
        .collect();
    let (traced, tracer) = traced_reps.last().expect("at least one traced daemon");
    let traced_walls: Vec<f64> = traced_reps.iter().map(|(r, _)| r.loop_s).collect();
    println!("traced repetitions: {traced_walls:.4?} s");
    report.metric(
        "bench.tracing_overhead_frac",
        median(&traced_walls) / wall_s - 1.0,
        "ratio",
    );
    let pooled = || traced_reps.iter().flat_map(|(r, _)| &r.requests);
    let hits: Vec<&Request> = pooled().filter(|r| !r.cold).collect();
    let colds: Vec<&Request> = pooled().filter(|r| r.cold).collect();
    let pct = |report: &mut Report, name: &str, v: Vec<f64>| {
        report.metric_pct(&format!("{name}_p50"), median(&v), "ms", v.len());
        report.metric_pct(&format!("{name}_p99"), percentile(&v, 99.0), "ms", v.len());
    };
    pct(
        report,
        "jobs.serve.post_ms",
        hits.iter().map(|r| r.post_ms).collect(),
    );
    pct(
        report,
        "jobs.serve.artifact_ms",
        hits.iter()
            .flat_map(|r| r.artifact_ms.iter().copied())
            .collect(),
    );
    pct(
        report,
        "jobs.serve.wait_ms",
        colds.iter().map(|r| r.wait_ms).collect(),
    );
    report.metric(
        "jobs.serve.polls_per_job",
        ratio(
            colds.iter().map(|r| f64::from(r.polls)).sum(),
            colds.len() as f64,
        ),
        "polls",
    );
    let field = |k: &str| traced.stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    report.metric("jobs.store.entries", field("entries"), "entries");
    report.metric(
        "jobs.store.artifact_mb",
        traced
            .requests
            .iter()
            .filter(|r| r.cold)
            .map(|r| r.bytes as f64)
            .sum::<f64>()
            / (1024.0 * 1024.0),
        "MiB",
    );

    // The job layer's in-process calls on the same manifests.
    let texts: Vec<&str> = plans
        .iter()
        .flat_map(|p| p.manifests.iter().map(|(_, t)| t.as_str()))
        .collect();
    let (mut parse_us, mut key_us) = (Vec::new(), Vec::new());
    for text in &texts {
        let t = Instant::now();
        let m = tracer
            .span("jobs.manifest.parse", None, 0, |_| {
                Manifest::from_json(text)
            })
            .expect("generated manifests parse");
        parse_us.push(secs(t) * 1e6);
        let t = Instant::now();
        std::hint::black_box(tracer.span("jobs.cachekey", None, 0, |_| m.cache_key()));
        key_us.push(secs(t) * 1e6);
    }
    report.metric_pct(
        "jobs.manifest.parse_us",
        median(&parse_us),
        "us",
        parse_us.len(),
    );
    report.metric_pct("jobs.cachekey_us", median(&key_us), "us", key_us.len());
    let (exec_ms, gen_share, gen_s, gen_instr) = against_execute(&plans, &traced.cold, 20, report);
    report.metric_pct(
        "jobs.exec.cold_ms_p50",
        median(&exec_ms),
        "ms",
        exec_ms.len(),
    );
    report.metric(
        "trace.gen_mops_per_s",
        ratio(gen_instr as f64 * 1e-6, gen_s),
        "Minstr/s",
    );
    report.metric("trace.gen_share", gen_share, "ratio");
    let spans = tracer.spans();
    crate::finish_trace(args, tracer, &spans);
}
