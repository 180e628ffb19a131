//! wbsim's layered benchmark.
//!
//! ```text
//! wbsim-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--wbsim PATH]
//! ```
//!
//! Runs one seeded workload (`paper-sweep`, `stall-sweep`, `serve-mix`,
//! `verify`) for about `S` seconds, checks its outputs, prints readable
//! lines as it goes, and ends with one JSON line: the end-to-end metrics
//! (untraced, `--trace 0`) or the per-layer metrics (`--trace 1`, a run
//! that records a span around each call the benchmark makes into a
//! layer). `perfbench/README.md` defines every metric and workload.

mod paper;
mod report;
mod serve;
mod spans;
mod stall;
mod sweep;
mod util;
mod verify;

use std::path::PathBuf;
use std::time::Instant;

use report::Report;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_mops_per_s", "Minstr/s"),
    ("trace.gen_share", "ratio"),
    ("sim.blocking.ns_per_cycle", "ns"),
    ("sim.nonblocking.ns_per_cycle", "ns"),
    ("sim.blocking.ns_per_instr", "ns"),
    ("sim.nonblocking.ns_per_instr", "ns"),
    ("sim.cell_ms_p50", "ms"),
    ("sim.cell_ms_p99", "ms"),
    ("sim.residual_share", "ratio"),
    ("sim.blocking.stepped_frac", "ratio"),
    ("sim.blocking.skipped_frac", "ratio"),
    ("sim.blocking.batched_frac", "ratio"),
    ("sim.blocking.skip_ceiling_x", "x"),
    ("sim.blocking.ref_over_event_x", "x"),
    ("sim.nonblocking.stepped_frac", "ratio"),
    ("sim.nonblocking.skipped_frac", "ratio"),
    ("sim.nonblocking.skip_ceiling_x", "x"),
    ("sim.nonblocking.ref_over_event_x", "x"),
    ("sim.observer.histogram_x", "x"),
    ("sim.cpi", "cycles/instr"),
    ("sim.stall_cpi.buffer_full", "cycles/instr"),
    ("sim.stall_cpi.l2_read", "cycles/instr"),
    ("sim.stall_cpi.load_hazard", "cycles/instr"),
    ("core.wb.store_ns", "ns"),
    ("core.wb.probe_ns", "ns"),
    ("core.wb.retire_ns", "ns"),
    ("core.wb.merge_frac", "ratio"),
    ("core.wb.high_water", "entries"),
    ("core.wb.headroom_min", "entries"),
    ("core.share", "ratio"),
    ("mem.l1.probe_ns", "ns"),
    ("mem.l2.read_ns", "ns"),
    ("mem.l1.hit_frac", "ratio"),
    ("mem.l2.hit_frac", "ratio"),
    ("mem.share", "ratio"),
    ("experiments.pool.efficiency", "ratio"),
    ("check.exhaustive.blocking.wall_s", "s"),
    ("check.exhaustive.blocking.states_per_s", "runs/s"),
    ("check.exhaustive.nonblocking.wall_s", "s"),
    ("check.exhaustive.nonblocking.states_per_s", "runs/s"),
    ("check.reach.blocking.wall_s", "s"),
    ("check.reach.blocking.states_per_s", "states/s"),
    ("check.reach.nonblocking.wall_s", "s"),
    ("check.reach.nonblocking.states_per_s", "states/s"),
    ("check.prop.blocking.wall_s", "s"),
    ("check.prop.blocking.states_per_s", "states/s"),
    ("check.prop.nonblocking.wall_s", "s"),
    ("check.prop.nonblocking.states_per_s", "states/s"),
    ("check.refine.blocking.wall_s", "s"),
    ("check.refine.blocking.states_per_s", "states/s"),
    ("check.refine.nonblocking.wall_s", "s"),
    ("check.refine.nonblocking.states_per_s", "states/s"),
    ("check.sched.schedules_per_s", "1/s"),
    ("jobs.manifest.parse_us", "us"),
    ("jobs.cachekey_us", "us"),
    ("jobs.serve.post_ms_p50", "ms"),
    ("jobs.serve.post_ms_p99", "ms"),
    ("jobs.serve.artifact_ms_p50", "ms"),
    ("jobs.serve.artifact_ms_p99", "ms"),
    ("jobs.serve.wait_ms_p50", "ms"),
    ("jobs.serve.wait_ms_p99", "ms"),
    ("jobs.serve.polls_per_job", "polls"),
    ("jobs.exec.cold_ms_p50", "ms"),
    ("jobs.store.entries", "entries"),
    ("jobs.store.artifact_mb", "MiB"),
    ("bench.tracing_overhead_frac", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub wbsim: Option<PathBuf>,
    pub started: Instant,
}

fn parse_args() -> Result<Args, String> {
    let started = Instant::now();
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut wbsim) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--wbsim" => wbsim = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        wbsim,
        started,
    })
}

/// Ends the run without a result: the benchmark could not measure.
pub fn die<T>(message: String) -> T {
    eprintln!("wbsim-perfbench: {message}");
    std::process::exit(1);
}

/// Prints the self time of every layer and writes the spans out.
pub fn finish_trace(args: &Args, tracer: &spans::Tracer, spans: &[spans::Span]) {
    println!("layer self time over the last traced repetition:");
    for (layer, s) in spans::layer_self_s(spans) {
        println!("  {layer:<12} {s:>10.4} s");
    }
    let path = PathBuf::from(".bench_out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wbsim-perfbench: {e}");
            eprintln!("usage: wbsim-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--wbsim PATH]");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "paper-sweep" => paper::run(&args, &mut report),
        "stall-sweep" => stall::run(&args, &mut report),
        "serve-mix" => serve::run(&args, &mut report),
        "verify" => verify::run(&args, &mut report),
        w => {
            eprintln!("wbsim-perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    }
    let expected: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    for (name, unit) in expected {
        report.fill_zero(name, unit);
    }
    debug_assert_eq!(
        report.metric_count(),
        expected.len(),
        "a metric outside BENCHMARK.json"
    );
    report.print(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    println!("{}", report.json());
}
