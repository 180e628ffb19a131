//! Subcommand implementations.

use std::error::Error;
use std::fs::File;
use std::io::{self, BufRead as _, BufReader, BufWriter};

use wbsim_check::{
    compile_props, first_divergence, read_event_stream, PropEnv, PropRunner, PropSet, SchedOptions,
};
use wbsim_experiments::harness::{pool_cells_jobs, Harness};
use wbsim_experiments::{ablations, figures, render, tables};
use wbsim_jobs::manifest::{fault_from_name, hazard_from_name, hazard_name};
use wbsim_jobs::passes::{self, Evidence};
use wbsim_jobs::sched::{replay_mismatch, replay_sched, SchedFault};
use wbsim_jobs::{
    CheckConfig, CheckSpec, Executor, FigureFormat, JobKind, MachineSel, Manifest,
    Options as JobOptions, Store,
};
use wbsim_sim::{Event, Machine, Observer};
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_trace::file as trace_file;
use wbsim_trace::stats::TraceStats;
use wbsim_types::config::{L1Config, L2Config, MachineConfig, WriteBufferConfig};
use wbsim_types::diagnostics::any_errors;
use wbsim_types::file_config::{parse_machine_config, to_config_string};
use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};
use wbsim_types::stall::StallKind;

use crate::args::{parse, ArgError, Parsed};

type CmdResult = Result<(), Box<dyn Error>>;

/// Top-level dispatch.
pub fn dispatch(argv: &[String]) -> CmdResult {
    let p = parse(argv)?;
    match p.positionals.first().map(String::as_str) {
        None | Some("help") | Some("--help") => {
            print!("{}", usage());
            Ok(())
        }
        Some("figure") => cmd_figure(&p),
        Some("table") => cmd_table(&p),
        Some("ablation") => cmd_ablation(&p),
        Some("run") => cmd_run(&p),
        Some("predict") => cmd_predict(&p),
        Some("sweep") => cmd_sweep(&p),
        Some("grid") => cmd_grid(&p),
        Some("report") => cmd_report(&p),
        Some("trace") => cmd_trace(&p),
        Some("check") => cmd_check(&p),
        Some("bench") => cmd_bench(&p),
        Some("serve") => cmd_serve(&p),
        Some("list") => cmd_list(),
        Some(other) => Err(ArgError(format!("unknown command {other:?}")).into()),
    }
}

fn usage() -> String {
    "\
wbsim — reproduction of 'Design Issues and Tradeoffs for Write Buffers' (HPCA 1997)

USAGE:
  wbsim figure <3..13|all> [--instructions N] [--seed S] [--jobs N] [--csv] [--svg DIR]
  wbsim table <1..7|wb|all> [--instructions N] [--seed S] [--jobs N]
  wbsim ablation <a1..a10|all> [--instructions N] [--seed S] [--jobs N]
  wbsim run --bench NAME [--seeds N] [--config FILE.wbcfg] [--depth N] [--retire-at N] [--hazard P]
            [--l1-kb N] [--l2-latency N] [--l2-kb N] [--mm N] [--issue W]
            [--mshrs N (non-blocking loads)] [--barrier-every N]
            [--instructions N] [--warmup N] [--seed S] [--check-data] [--ideal]
  wbsim predict --bench NAME [config flags as for run]
  wbsim sweep --bench NAME --param KEY=V1,V2,... [--jobs N] [config flags as for run]
  wbsim grid  --bench NAME --x KEY=V1,V2,... --y KEY=V1,V2,... [--jobs N] [config flags]
        (KEYs: depth, retire-at, hazard, l1-kb, l2-latency, l2-kb, mm, issue)
  wbsim report [--out FILE.md] [--instructions N] [--seed S]
  wbsim trace gen --bench NAME --out FILE [--instructions N] [--seed S] [--binary]
  wbsim trace synth --out FILE [--loads F] [--stores F] [--hot F] [--stream F]
        [--seq F] [--burst N] [--revisit F] [--hazard-loads F] [--region-kb N]
        [--instructions N] [--seed S] [--binary]
  wbsim trace stats <FILE>
  wbsim trace diff <A.jsonl | -> <B.jsonl | -> (at most one side may be -)
        (compare two recorded event streams; reports the first divergent
         event index with both events, exits non-zero on divergence)
  wbsim trace run <FILE> [--depth N] [--retire-at N] [--hazard P] [--check-data]
  wbsim trace events --bench NAME [--out FILE] [--mshrs N] [config flags as for run]
        (emits the machine's structured event stream as JSON lines)
  wbsim trace validate <FILE.jsonl | -> [--prop [FILE.wbp]] [--machine M] [--mshrs N]
        [--depth N] [--hazard P]
        (`-` reads JSONL from stdin; --prop additionally runs the stream
         through the temporal property monitors — bare --prop uses the
         built-in library, and --machine/--depth/--mshrs/--hazard bind the
         environment symbols `where` clauses test)
  wbsim check [--config FILE.wbcfg] [--depth N] [--retire-at N] [--hazard P]
        [--exhaustive] [--reach] [--prop [FILE.wbp]] [--refine] [--sched]
        [--machine blocking|nonblocking] [--mshrs N] [--max-ops N] [--fault F]
        [--preemptions N] [--out FILE.jsonl] [--jobs N] [--json]
        (lint the configuration, then run every selected pass in this order:
           --exhaustive  bounded exhaustive model check up to --max-ops ops
           --reach       unbounded reachability, with livelock analysis
           --prop        temporal properties (bare --prop: props/paper.wbp)
           --refine      event-driven vs reference engine refinement
           --sched       host serve/jobs/pool concurrency, all interleavings
                         under a preemption bound
         the four grid checkers cover 40 configurations of --machine (MSHR
         counts 1-4 unless --mshrs pins one); --fault injects a known bug
         into whichever selected pass takes it; the first failing pass's
         minimized counterexample goes to --out (`-`: stdout, report on
         stderr) for `wbsim trace validate` or `check --sched --replay`;
         --json prints one document with linter/exhaustive/reach/
         properties/refine/sched sections instead of the human report)
  wbsim check --sched --replay FILE [--preemptions N]
        (re-execute a recorded schedule deterministically)
  wbsim bench [--samples N] [--instructions N] [--warmup N] [--seed S] [--json]
        [--out FILE.json] [--check BASELINE.json] [--tolerance PCT]
        (measure cells/sec of both engines over the table-7 grid; --json/--out
         emit the BENCH_*.json snapshot; --check gates against a committed
         snapshot, exiting non-zero when mean or p99 regresses past the
         tolerance, default 20%)
  wbsim serve [--addr HOST:PORT] [--workers N]
        (job daemon: POST wbsim-job/1 manifests to /v1/jobs, poll
         /v1/jobs/<id>, fetch /v1/jobs/<id>/artifacts/<name>; identical
         resubmissions are answered from the content-addressed result
         store without re-running a cell — see docs/serving.md)
  wbsim list

  Grid-running subcommands (figure, table, ablation, sweep, grid, report,
  check --exhaustive/--reach/--prop/--refine, bench) accept --jobs N to bound
  the worker pool; the default 0 auto-sizes to the machine.

FAULTS (--fault): skip-wb-forwarding | starve-retirement | overshoot-skip
                  (grid checkers); lost-wakeup | dup-execute (--sched)

HAZARD POLICIES: flush-full | flush-partial | flush-item-only | read-from-wb
ABLATIONS: a1 retirement, a2 max-age, a3 coalescing, a4 write-cache,
           a5 priority, a6 datapath, a7 icache, a8 lazy-rfwb,
           a9 issue-width, a10 barriers, a11 non-blocking, a12 l1-write-policy
"
    .to_string()
}

fn harness(p: &Parsed) -> Result<Harness, ArgError> {
    let instructions = p.get_or("instructions", 1_000_000u64)?;
    Ok(Harness {
        instructions,
        warmup: p.get_or("warmup", instructions / 3)?,
        seed: p.get_or("seed", 42u64)?,
        check_data: p.has_flag("check-data"),
        jobs: p.get_or("jobs", 0usize)?,
        ..Harness::standard()
    })
}

/// The job-layer [`JobOptions`] for this invocation — same flags, same
/// defaults as [`harness`].
fn job_options(p: &Parsed) -> Result<JobOptions, ArgError> {
    let h = harness(p)?;
    Ok(JobOptions {
        instructions: h.instructions,
        warmup: h.warmup,
        seed: h.seed,
        check_data: h.check_data,
        jobs: h.jobs,
        engine: h.engine,
    })
}

/// Submits one manifest to a fresh per-invocation store. A deterministic
/// job failure (unknown table, check violation) becomes the command's
/// error *after* the caller has printed the artifacts it wants.
fn run_job(manifest: &Manifest) -> std::sync::Arc<wbsim_jobs::JobOutcome> {
    let store = Store::new();
    Executor::new(&store).run(manifest).outcome
}

fn cmd_figure(p: &Parsed) -> CmdResult {
    let which = p
        .positionals
        .get(1)
        .ok_or_else(|| ArgError("figure: which one? (3..13 or all)".into()))?;
    let svg_dir = p.options.get("svg").cloned();
    let format = if svg_dir.is_some() {
        FigureFormat::Svg
    } else if p.has_flag("csv") {
        FigureFormat::Csv
    } else {
        FigureFormat::Text
    };
    let outcome = run_job(&Manifest {
        kind: JobKind::Figure {
            which: which.clone(),
            format,
        },
        options: job_options(p)?,
    });
    if let Some(msg) = &outcome.failed {
        return Err(ArgError(msg.clone()).into());
    }
    match format {
        FigureFormat::Svg => {
            let dir = svg_dir.expect("svg format implies --svg");
            std::fs::create_dir_all(&dir)?;
            for a in &outcome.artifacts {
                let path = std::path::Path::new(&dir).join(&a.name);
                std::fs::write(&path, &a.bytes)?;
                println!("wrote {}", path.display());
            }
        }
        FigureFormat::Csv => print!("{}", outcome.artifact_text("figures.csv").unwrap_or("")),
        FigureFormat::Text => print!("{}", outcome.artifact_text("figures.txt").unwrap_or("")),
    }
    Ok(())
}

fn cmd_table(p: &Parsed) -> CmdResult {
    let which = p
        .positionals
        .get(1)
        .ok_or_else(|| ArgError("table: which one? (1..7, wb, or all)".into()))?;
    let outcome = run_job(&Manifest {
        kind: JobKind::Table {
            which: which.clone(),
        },
        options: job_options(p)?,
    });
    if let Some(msg) = &outcome.failed {
        return Err(ArgError(msg.clone()).into());
    }
    print!("{}", outcome.artifact_text("tables.txt").unwrap_or(""));
    Ok(())
}

fn cmd_ablation(p: &Parsed) -> CmdResult {
    let which = p
        .positionals
        .get(1)
        .ok_or_else(|| ArgError("ablation: which one? (a1..a10 or all)".into()))?;
    let h = harness(p)?;
    let figs = if which == "all" {
        ablations::all(&h)
    } else {
        vec![ablations::by_name(&h, which)
            .ok_or_else(|| ArgError(format!("no ablation {which:?} (a1..a10)")))?]
    };
    for f in figs {
        println!("{}", render::render_figure(&f));
    }
    Ok(())
}

fn hazard_from(name: &str) -> Result<LoadHazardPolicy, ArgError> {
    hazard_from_name(name).ok_or_else(|| {
        ArgError(format!(
            "unknown hazard policy {:?}",
            name.to_ascii_lowercase()
        ))
    })
}

fn machine_from(p: &Parsed) -> Result<MachineConfig, Box<dyn Error>> {
    // A --config file provides the base; explicit flags override it.
    let mut cfg = match p.options.get("config") {
        // parse_machine_config reports every bad line at once, not just
        // the first.
        Some(path) => parse_machine_config(&std::fs::read_to_string(path)?)?,
        None => MachineConfig::baseline(),
    };
    if p.options.contains_key("config") {
        // Flags below override file values only when given explicitly.
        if let Some(v) = p.options.get("depth") {
            cfg.write_buffer.depth = v
                .parse()
                .map_err(|_| ArgError(format!("bad --depth {v:?}")))?;
        }
        if let Some(v) = p.options.get("retire-at") {
            cfg.write_buffer.retirement = RetirementPolicy::RetireAt(
                v.parse()
                    .map_err(|_| ArgError(format!("bad --retire-at {v:?}")))?,
            );
        }
        if let Some(v) = p.options.get("hazard") {
            cfg.write_buffer.hazard = hazard_from(v)?;
        }
        cfg.check_data = p.has_flag("check-data");
        cfg.validate()?;
        return Ok(cfg);
    }
    cfg.write_buffer = WriteBufferConfig {
        depth: p.get_or("depth", 4usize)?,
        retirement: RetirementPolicy::RetireAt(p.get_or("retire-at", 2usize)?),
        hazard: hazard_from(
            &p.options
                .get("hazard")
                .cloned()
                .unwrap_or_else(|| "flush-full".into()),
        )?,
        ..WriteBufferConfig::baseline()
    };
    cfg.issue_width = p.get_or("issue", 1u32)?;
    cfg.l1 = L1Config::with_size(p.get_or("l1-kb", 8u32)? * 1024);
    let latency = p.get_or("l2-latency", 6u64)?;
    cfg.l2 = match p.options.get("l2-kb") {
        None => L2Config::Perfect { latency },
        Some(_) => L2Config::Real {
            size_bytes: p.get_or("l2-kb", 1024u32)? * 1024,
            assoc: 1,
            latency,
            mm_latency: p.get_or("mm", 25u64)?,
        },
    };
    cfg.check_data = p.has_flag("check-data");
    cfg.validate()?;
    Ok(cfg)
}

fn print_stats(stats: &wbsim_types::stats::SimStats) {
    println!("{stats}");
}

fn cmd_run(p: &Parsed) -> CmdResult {
    let bench_name = p
        .options
        .get("bench")
        .ok_or_else(|| ArgError("run: --bench NAME is required (see `wbsim list`)".into()))?;
    let bench = BenchmarkModel::from_name(bench_name)
        .ok_or_else(|| ArgError(format!("unknown benchmark {bench_name:?}")))?;
    let h = harness(p)?;
    let cfg = machine_from(p)?;
    let n_seeds = p.get_or("seeds", 1u64)?;
    if n_seeds > 1 {
        let summary = h.run_seeds(bench, cfg, n_seeds);
        println!(
            "benchmark: {}  ({} seeds, mean ± sd, % of execution time)",
            bench.name(),
            summary.seeds
        );
        for (name, (m, sd)) in [
            ("L2-read-access", summary.r),
            ("buffer-full", summary.f),
            ("load-hazard", summary.l),
            ("total", summary.total),
        ] {
            println!("{name:<16} {m:>7.3} ± {sd:.3}");
        }
        return Ok(());
    }
    let mut ops = bench.stream(h.seed, h.instructions + h.warmup);
    let barrier_every = p.get_or("barrier-every", 0u64)?;
    if barrier_every > 0 {
        ops = wbsim_trace::transform::with_barriers(&ops, barrier_every);
    }
    let mshrs = p.get_or("mshrs", 0usize)?;
    let stats = if mshrs > 0 {
        wbsim_sim::NonBlockingMachine::new(cfg, mshrs)?.run(ops)
    } else {
        let mut machine = Machine::new(cfg)?;
        if p.has_flag("ideal") {
            machine.run_ideal_with_warmup(ops, h.warmup)
        } else {
            machine.run_with_warmup(ops, h.warmup)
        }
    };
    println!("benchmark: {}", bench.name());
    print_stats(&stats);
    Ok(())
}

fn cmd_predict(p: &Parsed) -> CmdResult {
    let bench_name = p
        .options
        .get("bench")
        .ok_or_else(|| ArgError("predict: --bench NAME is required".into()))?;
    let bench = BenchmarkModel::from_name(bench_name)
        .ok_or_else(|| ArgError(format!("unknown benchmark {bench_name:?}")))?;
    let h = harness(p)?;
    let cfg = machine_from(p)?;
    let ops = bench.stream(h.seed, h.instructions);
    let inputs = wbsim_analytic::inputs_from_trace(&ops, &cfg);
    let pred = wbsim_analytic::predict(&inputs, &cfg);
    let sim = Machine::new(cfg)?.run(ops);
    println!(
        "benchmark: {}  (analytic model vs simulation)",
        bench.name()
    );
    println!(
        "model inputs: loads {:.1}%  stores {:.1}%  L1 miss {:.1}%  WB hit {:.1}%  hazard {:.2}%",
        inputs.load_rate * 100.0,
        inputs.store_rate * 100.0,
        inputs.l1_miss_rate * 100.0,
        inputs.wb_hit_rate * 100.0,
        inputs.hazard_load_frac * 100.0
    );
    println!("{:<18} {:>10} {:>10}", "", "model", "simulated");
    println!(
        "{:<18} {:>9.3}% {:>9.3}%",
        "buffer-full",
        pred.f_pct,
        sim.stall_pct(StallKind::BufferFull)
    );
    println!(
        "{:<18} {:>9.3}% {:>9.3}%",
        "L2-read-access",
        pred.r_pct,
        sim.stall_pct(StallKind::L2ReadAccess)
    );
    println!(
        "{:<18} {:>9.3}% {:>9.3}%",
        "load-hazard",
        pred.l_pct,
        sim.stall_pct(StallKind::LoadHazard)
    );
    println!(
        "{:<18} {:>9.3}% {:>9.3}%",
        "total",
        pred.total_pct(),
        sim.total_stall_pct()
    );
    println!(
        "{:<18} {:>10.3} {:>10.3}",
        "mean occupancy",
        pred.mean_occupancy,
        sim.wb_detail.mean_occupancy()
    );
    Ok(())
}

fn cmd_sweep(p: &Parsed) -> CmdResult {
    let bench_name = p
        .options
        .get("bench")
        .ok_or_else(|| ArgError("sweep: --bench NAME is required".into()))?;
    let bench = BenchmarkModel::from_name(bench_name)
        .ok_or_else(|| ArgError(format!("unknown benchmark {bench_name:?}")))?;
    let param = p
        .options
        .get("param")
        .ok_or_else(|| ArgError("sweep: --param KEY=V1,V2,... is required".into()))?;
    let (key, values) = param
        .split_once('=')
        .ok_or_else(|| ArgError(format!("--param must look like KEY=V1,V2, got {param:?}")))?;
    const KEYS: &[&str] = &[
        "depth",
        "retire-at",
        "hazard",
        "l1-kb",
        "l2-latency",
        "l2-kb",
        "mm",
        "issue",
    ];
    if !KEYS.contains(&key) {
        return Err(ArgError(format!("--param key must be one of {KEYS:?}, got {key:?}")).into());
    }
    let h = harness(p)?;
    let ops = bench.stream(h.seed, h.instructions + h.warmup);
    println!(
        "{} sweeping {key} over {} instructions
",
        bench.name(),
        h.instructions
    );
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        key, "R %", "F %", "L %", "total %", "CPI", "occupancy"
    );
    println!("{}", "-".repeat(74));
    // Build every cell's config serially (stopping at the first bad value,
    // as the serial loop did), run the valid prefix on the worker pool,
    // then print rows in order — stdout is byte-identical to the old
    // one-at-a-time loop.
    let values: Vec<&str> = values.split(',').map(str::trim).collect();
    let mut cfgs = Vec::new();
    let mut bad_value = None;
    for v in &values {
        let mut sub = Parsed {
            options: p.options.clone(),
            flags: p.flags.clone(),
            ..Parsed::default()
        };
        sub.options.insert(key.to_string(), (*v).to_string());
        match machine_from(&sub) {
            Ok(cfg) => cfgs.push(cfg),
            Err(e) => {
                bad_value = Some(e);
                break;
            }
        }
    }
    let results = pool_cells_jobs(cfgs.len(), h.jobs, |i| {
        let mut m = Machine::new(cfgs[i].clone()).map_err(|e| e.to_string())?;
        m.set_engine(h.engine);
        Ok::<_, String>(m.run_with_warmup(ops.iter().copied(), h.warmup))
    });
    for (v, result) in values.iter().zip(&results) {
        let stats = result.as_ref().map_err(|e| ArgError(e.clone()))?;
        println!(
            "{:<18} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>9.3}",
            v,
            stats.stall_pct(StallKind::L2ReadAccess),
            stats.stall_pct(StallKind::BufferFull),
            stats.stall_pct(StallKind::LoadHazard),
            stats.total_stall_pct(),
            stats.cpi(),
            stats.wb_detail.mean_occupancy()
        );
    }
    if let Some(e) = bad_value {
        return Err(e);
    }
    Ok(())
}

fn parse_param(arg: &str) -> Result<(String, Vec<String>), ArgError> {
    let (key, values) = arg
        .split_once('=')
        .ok_or_else(|| ArgError(format!("expected KEY=V1,V2,..., got {arg:?}")))?;
    const KEYS: &[&str] = &[
        "depth",
        "retire-at",
        "hazard",
        "l1-kb",
        "l2-latency",
        "l2-kb",
        "mm",
        "issue",
    ];
    if !KEYS.contains(&key) {
        return Err(ArgError(format!(
            "key must be one of {KEYS:?}, got {key:?}"
        )));
    }
    Ok((
        key.to_string(),
        values.split(',').map(|v| v.trim().to_string()).collect(),
    ))
}

fn cmd_grid(p: &Parsed) -> CmdResult {
    let bench_name = p
        .options
        .get("bench")
        .ok_or_else(|| ArgError("grid: --bench NAME is required".into()))?;
    let bench = BenchmarkModel::from_name(bench_name)
        .ok_or_else(|| ArgError(format!("unknown benchmark {bench_name:?}")))?;
    let (xk, xs) = parse_param(
        p.options
            .get("x")
            .ok_or_else(|| ArgError("grid: --x KEY=V1,V2,... is required".into()))?,
    )?;
    let (yk, ys) = parse_param(
        p.options
            .get("y")
            .ok_or_else(|| ArgError("grid: --y KEY=V1,V2,... is required".into()))?,
    )?;
    if xk == yk {
        return Err(ArgError("grid: --x and --y must differ".into()).into());
    }
    let h = harness(p)?;
    let ops = bench.stream(h.seed, h.instructions + h.warmup);
    println!(
        "{}: total write-buffer stall %% over {} instructions ({yk} down, {xk} across)
",
        bench.name(),
        h.instructions
    );
    print!("{:<14}", format!("{yk} \\ {xk}"));
    for x in &xs {
        print!("{x:>9}");
    }
    println!();
    println!("{}", "-".repeat(14 + 9 * xs.len()));
    // Precompute every cell's config row-major (invalid cells — e.g.
    // hw > depth — stay `None` and print as "-"), run the valid cells on
    // the worker pool, then print in the same row-major order.
    let cfg_cells: Vec<Option<MachineConfig>> = ys
        .iter()
        .flat_map(|yv| {
            let (xk, yk) = (&xk, &yk);
            xs.iter().map(move |xv| {
                let mut sub = Parsed {
                    options: p.options.clone(),
                    flags: p.flags.clone(),
                    ..Parsed::default()
                };
                sub.options.insert(xk.clone(), xv.clone());
                sub.options.insert(yk.clone(), yv.clone());
                machine_from(&sub).ok()
            })
        })
        .collect();
    let cells = pool_cells_jobs(cfg_cells.len(), h.jobs, |i| {
        cfg_cells[i].as_ref().map(|cfg| {
            let mut m = Machine::new(cfg.clone()).map_err(|e| e.to_string())?;
            m.set_engine(h.engine);
            Ok::<_, String>(m.run_with_warmup(ops.iter().copied(), h.warmup))
        })
    });
    let mut best: Option<(f64, String, String)> = None;
    for (yi, yv) in ys.iter().enumerate() {
        print!("{yv:<14}");
        for (xi, xv) in xs.iter().enumerate() {
            match &cells[yi * xs.len() + xi] {
                Some(Ok(stats)) => {
                    let t = stats.total_stall_pct();
                    print!("{t:>9.3}");
                    if best.as_ref().is_none_or(|(b, _, _)| t < *b) {
                        best = Some((t, xv.clone(), yv.clone()));
                    }
                }
                Some(Err(e)) => return Err(ArgError(e.clone()).into()),
                None => print!("{:>9}", "-"), // invalid cell (e.g. hw > depth)
            }
        }
        println!();
    }
    if let Some((t, xv, yv)) = best {
        println!(
            "
best: {xk}={xv}, {yk}={yv} ({t:.3}%)"
        );
    }
    Ok(())
}

fn cmd_report(p: &Parsed) -> CmdResult {
    use std::fmt::Write as _;
    let h = harness(p)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# wbsim reproduction report

         Machine-generated by `wbsim report` — every table and figure of
         Skadron & Clark, *Design Issues and Tradeoffs for Write Buffers*
         (HPCA 1997), at {} measured instructions per benchmark per
         configuration (seed {}, {} warmup instructions).
",
        h.instructions, h.seed, h.warmup
    );
    out.push_str(
        "## Tables

",
    );
    let cfg = MachineConfig::baseline();
    for t in [
        tables::table1(&cfg),
        tables::table2(&cfg),
        tables::table3(),
        tables::table4(&h),
        tables::table5(&h),
        tables::table6(&h),
        tables::table7(&h),
        tables::table_wb(&h),
    ] {
        out.push_str(&render::table_markdown(&t));
    }
    out.push_str(
        "## Figures

",
    );
    for f in figures::all(&h) {
        out.push_str(&render::figure_markdown(&f));
    }
    out.push_str(
        "## Ablations

",
    );
    for f in ablations::all(&h) {
        out.push_str(&render::figure_markdown(&f));
    }
    match p.options.get("out") {
        Some(path) => {
            std::fs::write(path, &out)?;
            println!("wrote {path} ({} bytes)", out.len());
        }
        None => print!("{out}"),
    }
    Ok(())
}

/// An [`Observer`] that writes every event as one JSON line. I/O errors
/// are latched rather than panicking mid-simulation; callers check
/// [`JsonlWriter::finish`] after the run.
struct JsonlWriter<W: io::Write> {
    w: W,
    count: u64,
    err: Option<io::Error>,
}

impl<W: io::Write> JsonlWriter<W> {
    fn new(w: W) -> Self {
        Self {
            w,
            count: 0,
            err: None,
        }
    }

    fn finish(mut self) -> Result<u64, io::Error> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.count)
    }
}

impl<W: io::Write> Observer for JsonlWriter<W> {
    fn event(&mut self, ev: &Event) {
        if self.err.is_some() {
            return;
        }
        match writeln!(self.w, "{}", ev.to_json()) {
            Ok(()) => self.count += 1,
            Err(e) => self.err = Some(e),
        }
    }
}

fn cmd_trace(p: &Parsed) -> CmdResult {
    let sub = p.positionals.get(1).ok_or_else(|| {
        ArgError("trace: gen | synth | stats | run | events | validate | diff".into())
    })?;
    match sub.as_str() {
        "gen" => {
            let bench_name = p
                .options
                .get("bench")
                .ok_or_else(|| ArgError("trace gen: --bench NAME required".into()))?;
            let bench = BenchmarkModel::from_name(bench_name)
                .ok_or_else(|| ArgError(format!("unknown benchmark {bench_name:?}")))?;
            let out = p
                .options
                .get("out")
                .ok_or_else(|| ArgError("trace gen: --out FILE required".into()))?;
            let h = harness(p)?;
            let ops = bench.stream(h.seed, h.instructions);
            let f = BufWriter::new(File::create(out)?);
            if p.has_flag("binary") {
                trace_file::write_binary(f, &ops)?;
            } else {
                trace_file::write_text(f, &ops)?;
            }
            println!("wrote {} events to {out}", ops.len());
            Ok(())
        }
        "synth" => {
            let out = p
                .options
                .get("out")
                .ok_or_else(|| ArgError("trace synth: --out FILE required".into()))?;
            let w = wbsim_trace::stream::MixedWorkload {
                pct_loads: p.get_or("loads", 0.25f64)?,
                pct_stores: p.get_or("stores", 0.10f64)?,
                hazard_load_frac: p.get_or("hazard-loads", 0.01f64)?,
                hot_load_frac: p.get_or("hot", 0.80f64)?,
                stream_load_frac: p.get_or("stream", 0.10f64)?,
                seq_store_frac: p.get_or("seq", 0.50f64)?,
                seq_run_words: p.get_or("run-words", 8u32)?,
                store_burst: p.get_or("burst", 1u32)?,
                revisit_store_frac: p.get_or("revisit", 0.40f64)?,
                hot_bytes: 2 * 1024,
                region_bytes: p.get_or("region-kb", 64u64)? * 1024,
            };
            let h = harness(p)?;
            let ops = w.generate(h.seed, h.instructions);
            let f = BufWriter::new(File::create(out)?);
            if p.has_flag("binary") {
                trace_file::write_binary(f, &ops)?;
            } else {
                trace_file::write_text(f, &ops)?;
            }
            let t = TraceStats::measure(&ops);
            println!(
                "wrote {} events to {out}  (loads {:.1}%, stores {:.1}%, mean store group {:.2})",
                ops.len(),
                t.pct_loads,
                t.pct_stores,
                t.mean_store_group
            );
            Ok(())
        }
        "stats" => {
            let path = p
                .positionals
                .get(2)
                .ok_or_else(|| ArgError("trace stats: FILE required".into()))?;
            let ops = load_trace(path)?;
            let t = TraceStats::measure(&ops);
            println!("instructions        {:>14}", t.instructions);
            println!("loads               {:>14}  ({:.2}%)", t.loads, t.pct_loads);
            println!(
                "stores              {:>14}  ({:.2}%)",
                t.stores, t.pct_stores
            );
            println!("distinct lines      {:>14}", t.distinct_lines);
            println!("distinct store lines{:>14}", t.distinct_store_lines);
            println!("mean seq store run  {:>14.2}", t.mean_seq_store_run);
            println!("same-line stores    {:>13.2}%", t.pct_store_same_line);
            Ok(())
        }
        "run" => {
            let path = p
                .positionals
                .get(2)
                .ok_or_else(|| ArgError("trace run: FILE required".into()))?;
            let ops = load_trace(path)?;
            let cfg = machine_from(p)?;
            let stats = Machine::new(cfg)?.run(ops);
            print_stats(&stats);
            Ok(())
        }
        "events" => {
            let bench_name = p
                .options
                .get("bench")
                .ok_or_else(|| ArgError("trace events: --bench NAME required".into()))?;
            let bench = BenchmarkModel::from_name(bench_name)
                .ok_or_else(|| ArgError(format!("unknown benchmark {bench_name:?}")))?;
            let h = harness(p)?;
            let cfg = machine_from(p)?;
            let ops = bench.stream(h.seed, h.instructions);
            let mshrs = p.get_or("mshrs", 0usize)?;
            let sink: Box<dyn io::Write> = match p.options.get("out") {
                Some(path) => Box::new(BufWriter::new(File::create(path)?)),
                None => Box::new(io::stdout().lock()),
            };
            let mut w = JsonlWriter::new(sink);
            // Drain the buffer after the stream ends so the capture is a
            // *complete* execution — every accepted store's retirement is
            // on the record, which the liveness monitors of
            // `trace validate --prop` require at end-of-stream.
            if mshrs > 0 {
                let mut m = wbsim_sim::NonBlockingMachine::new(cfg, mshrs)?;
                m.run_observed(ops, &mut w);
                while m.drain_step(&mut w) {}
            } else {
                let mut m = Machine::new(cfg)?;
                m.run_observed(ops, &mut w);
                while m.drain_step(&mut w) {}
            }
            let count = w.finish()?;
            if let Some(path) = p.options.get("out") {
                println!("wrote {count} events to {path}");
            }
            Ok(())
        }
        "validate" => {
            let path = p.positionals.get(2).ok_or_else(|| {
                ArgError("trace validate: FILE (or `-` for stdin) required".into())
            })?;
            // `--prop [FILE]` additionally runs the stream through the
            // compiled property monitors: the same runtime semantics the
            // model checkers use, applied to one concrete trace.
            let mut runner = if p.options.contains_key("prop") {
                let set = load_prop_set(p)?;
                let (monitors, skipped) = compile_props(&set, &prop_env_from(p)?);
                for s in &skipped {
                    eprintln!("note: property '{}' skipped: {}", s.name, s.reason);
                }
                Some(PropRunner::new(monitors))
            } else {
                None
            };
            // `-` reads from stdin, so counterexample traces pipe straight in.
            let (reader, display): (Box<dyn io::BufRead>, &str) = if path == "-" {
                (Box::new(BufReader::new(io::stdin().lock())), "<stdin>")
            } else {
                (Box::new(BufReader::new(File::open(path)?)), path)
            };
            let mut count = 0u64;
            let mut cycles = 0u64;
            for (i, line) in reader.lines().enumerate() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let ev = Event::from_json(&line)
                    .map_err(|e| ArgError(format!("{display}:{}: {e}", i + 1)))?;
                count += 1;
                if matches!(ev, Event::CycleEnd { .. }) {
                    cycles += 1;
                }
                if let Some(r) = runner.as_mut() {
                    r.event(&ev);
                }
            }
            if count == 0 {
                return Err(ArgError(format!("{display}: no events")).into());
            }
            if let Some(r) = &runner {
                // End-of-stream verdict: a latched safety violation, else
                // a liveness obligation the stream never discharged.
                if let Some(v) = r.finish() {
                    eprintln!("{}", v.diagnostic().render());
                    return Err(ArgError(format!(
                        "{display}: trace violates property {:?}",
                        v.property
                    ))
                    .into());
                }
                println!(
                    "{display}: {count} events over {cycles} cycles, all valid; \
                     {} propert{} satisfied",
                    r.monitors().props().len(),
                    if r.monitors().props().len() == 1 {
                        "y"
                    } else {
                        "ies"
                    }
                );
            } else {
                println!("{display}: {count} events over {cycles} cycles, all valid");
            }
            Ok(())
        }
        "diff" => {
            let a = p.positionals.get(2).ok_or_else(|| {
                ArgError("trace diff: two files required (one may be `-`)".into())
            })?;
            let b = p.positionals.get(3).ok_or_else(|| {
                ArgError("trace diff: two files required (one may be `-`)".into())
            })?;
            if a == "-" && b == "-" {
                return Err(ArgError("trace diff: at most one side may be `-`".into()).into());
            }
            let read_side = |path: &str| -> Result<(Vec<Event>, String), Box<dyn Error>> {
                let (text, display) = if path == "-" {
                    let mut s = String::new();
                    use std::io::Read as _;
                    io::stdin().lock().read_to_string(&mut s)?;
                    (s, "<stdin>".to_string())
                } else {
                    (std::fs::read_to_string(path)?, path.to_string())
                };
                // The hardened reader: junk lines come back as REF001/REF002
                // diagnostics, never a panic.
                match read_event_stream(&display, &text) {
                    Ok(events) => Ok((events, display)),
                    Err(d) => {
                        eprintln!("{}", d.render());
                        Err(ArgError(format!("{display}: undecodable event stream")).into())
                    }
                }
            };
            let (ea, da) = read_side(a)?;
            let (eb, db) = read_side(b)?;
            match first_divergence(&ea, &eb) {
                None => {
                    println!("streams identical ({} events)", ea.len());
                    Ok(())
                }
                Some((i, x, y)) => {
                    let show = |e: Option<Event>| {
                        e.map_or_else(|| "end of stream".to_string(), |ev| ev.to_json())
                    };
                    println!("streams diverge at event #{i}:");
                    println!("  {da}: {}", show(x));
                    println!("  {db}: {}", show(y));
                    Err(ArgError(format!("event streams diverge at event #{i}")).into())
                }
            }
        }
        other => Err(ArgError(format!("trace: unknown subcommand {other:?}")).into()),
    }
}

fn load_trace(path: &str) -> Result<Vec<wbsim_types::op::Op>, Box<dyn Error>> {
    // Sniff the magic to pick the codec.
    let mut head = [0u8; 4];
    use std::io::Read as _;
    let mut f = File::open(path)?;
    let n = f.read(&mut head)?;
    drop(f);
    let ops = if n == 4 && &head == trace_file::BINARY_MAGIC {
        trace_file::read_binary(BufReader::new(File::open(path)?))?
    } else {
        trace_file::read_text(BufReader::new(File::open(path)?))?
    };
    Ok(ops)
}

/// Which machine the model checkers drive (`--machine`, blocking by
/// default), by the manifest's names.
fn check_machine_from(p: &Parsed) -> Result<MachineSel, ArgError> {
    let Some(name) = p.options.get("machine") else {
        return Ok(MachineSel::Blocking);
    };
    MachineSel::from_name(name).ok_or_else(|| {
        ArgError(format!(
            "unknown machine {name:?} (try blocking or nonblocking)"
        ))
    })
}

fn check_mshrs_from(p: &Parsed) -> Result<Option<usize>, ArgError> {
    match p.options.get("mshrs") {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(ArgError(format!("bad --mshrs {v:?} (need a count >= 1)"))),
        },
    }
}

/// `wbsim check`: lint the configuration and run every selected pass of
/// the [`passes::PASSES`] table in order — the same run the check job executes.
/// `--json` prints that run's `check.json` document; human mode prints
/// the linter's findings and each pass's summary, its diagnostics on
/// stderr. Either way the first failing pass's counterexample (in table
/// order) goes to `--out`, and the first failure is the command's error.
fn cmd_check(p: &Parsed) -> CmdResult {
    let json = p.has_flag("json");
    if !json && p.has_flag("sched") {
        if let Some(path) = p.options.get("replay") {
            return cmd_check_replay(p, path);
        }
    }
    let out = p.options.get("out").map(String::as_str);
    if json && out == Some("-") {
        return Err(ArgError(
            "--out - conflicts with --json: stdout carries the JSON document".into(),
        )
        .into());
    }
    let run = passes::run(&check_spec_from(p)?, p.get_or("jobs", 0usize)?);
    // Human lines go to stderr whenever stdout is spoken for — by the
    // JSON document or by the trace (`--out -`). JSON mode prints no lint
    // findings, summaries or pass diagnostics: the document holds them.
    let say = |line: &str| {
        if json || out == Some("-") {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    let human = |line: &str| {
        if !json {
            say(line);
        }
    };
    for d in &run.lint {
        human(&d.render());
    }
    let mut error =
        any_errors(&run.lint).then(|| "configuration has error-severity diagnostics".to_string());
    let mut reported = false;
    for (pass, r) in run.ran() {
        r.summary.iter().for_each(|line| human(line));
        let Some(v) = &r.violation else { continue };
        if !json {
            for d in &v.diagnostics {
                eprintln!("{}", d.render());
            }
        }
        if let Some(ev) = v.counterexample.as_ref().filter(|_| !reported) {
            write_counterexample(out.unwrap_or(pass.default_out), ev, &say)?;
            reported = true;
        }
        error.get_or_insert_with(|| match p.options.get("prop") {
            // The spec carries a property file's text, not its path: name
            // the file when its set is what failed.
            Some(path)
                if pass.flag == "prop" && path != "builtin" && v.counterexample.is_none() =>
            {
                format!("{path}: {}", v.error)
            }
            _ => v.error.clone(),
        });
    }
    if json {
        print!("{}", run.document());
        error = run
            .failed()
            .then(|| "check found problems (see the JSON document)".to_string());
    } else if error.is_none() && run.ran().next().is_none() {
        let n = run.lint.len();
        let count = if n == 0 {
            "no".to_string()
        } else {
            n.to_string()
        };
        say(&format!("ok: {count} diagnostics, no errors"));
    }
    match error {
        Some(e) => Err(ArgError(e).into()),
        None => Ok(()),
    }
}

/// Writes a counterexample to `out` (`-` streams it to stdout; a file is
/// fsynced so `trace validate` can follow immediately) and reports it: a
/// machine trace's report through `say`, a schedule's replay hint on
/// stderr.
fn write_counterexample(out: &str, ev: &Evidence, say: &dyn Fn(&str)) -> CmdResult {
    use std::io::Write as _;
    let bytes = ev.jsonl();
    if out == "-" {
        let mut w = io::stdout().lock();
        w.write_all(bytes.as_bytes())?;
        w.flush()?;
    } else {
        let mut f = File::create(out)?;
        f.write_all(bytes.as_bytes())?;
        f.sync_all()?;
    }
    match ev {
        Evidence::Trace(ce) => {
            say(&format!("invariant violated: {}", ce.violation));
            say(&format!("configuration:\n{}", to_config_string(&ce.config)));
            if let Some(m) = ce.mshrs {
                say(&format!("machine: non-blocking, {m} MSHRs"));
            }
            say(&format!(
                "minimized sequence ({} ops): {:?}",
                ce.ops.len(),
                ce.ops
            ));
            say(&format!(
                "event trace: {out} ({} events) — replay with `wbsim trace validate {out}`",
                ce.trace.len()
            ));
        }
        Evidence::Schedule(cex) if out != "-" => eprintln!(
            "schedule: {out} ({} steps, forcing prefix {}) — replay with \
             `wbsim check --sched --replay {out}`",
            cex.schedule.len(),
            cex.prefix
        ),
        Evidence::Schedule(_) => {}
    }
    Ok(())
}

/// The [`CheckSpec`] this invocation's flags describe. The manifest
/// carries a property file's *text* (like `--config`'s); the bare flag or
/// `builtin` selects the built-in library.
fn check_spec_from(p: &Parsed) -> Result<CheckSpec, Box<dyn Error>> {
    let mut spec = CheckSpec {
        exhaustive: p.has_flag("exhaustive"),
        reach: p.has_flag("reach"),
        refine: p.has_flag("refine"),
        machine: check_machine_from(p)?,
        mshrs: check_mshrs_from(p)?,
        max_ops: p.get_or("max-ops", 5u32)?,
        fault: None,
        props: p.options.contains_key("prop"),
        props_file: match p.options.get("prop").map(String::as_str) {
            Some(path) if path != "builtin" => Some(std::fs::read_to_string(path)?),
            _ => None,
        },
        sched: p.has_flag("sched"),
        sched_fault: None,
        sched_preemptions: p.get("preemptions")?,
        config: check_config_from(p)?,
    };
    let Some(name) = p.options.get("fault") else {
        return Ok(spec);
    };
    // `--fault` goes to whichever selected pass takes it: a host fault to
    // `--sched`, a machine fault to the grid checkers. A name no selected
    // pass takes is an error.
    let grid = spec.exhaustive || spec.reach || spec.props || spec.refine;
    match (SchedFault::from_name(name), fault_from_name(name)) {
        (Some(f), _) if spec.sched => spec.sched_fault = Some(f),
        (_, Some(f)) if grid => spec.fault = Some(f),
        _ => {
            return Err(ArgError(format!(
                "--fault {name:?} fits no selected pass (--exhaustive, --reach, --prop and \
                 --refine take skip-wb-forwarding, starve-retirement or overshoot-skip; \
                 --sched takes lost-wakeup or dup-execute)"
            ))
            .into())
        }
    }
    Ok(spec)
}

/// `wbsim check --sched --replay FILE`: re-execute a recorded schedule.
fn cmd_check_replay(p: &Parsed, path: &str) -> CmdResult {
    let mut opts = SchedOptions::default();
    opts.preemption_bound = p.get_or("preemptions", opts.preemption_bound)?;
    let text = std::fs::read_to_string(path)?;
    let (cex, outcome) = match replay_sched(&text, &opts) {
        Ok(r) => r,
        Err(d) => {
            eprintln!("{}", d.render());
            return Err(ArgError(format!("cannot replay {path}: {}", d.message)).into());
        }
    };
    if outcome.matches(&cex) {
        println!(
            "replay ok: {} reproduces {} on {} ({} steps, forcing prefix {})",
            path,
            cex.code,
            cex.harness,
            cex.schedule.len(),
            cex.prefix
        );
        return Ok(());
    }
    let d = replay_mismatch(&cex, &outcome);
    eprintln!("{}", d.render());
    Err(ArgError("schedule did not reproduce its recorded verdict".into()).into())
}

/// The [`CheckConfig`] this invocation's flags describe. A `--config`
/// file submits its *text* (the manifest never carries server-side
/// paths), and the override flags are then ignored; without one, flags
/// override the baseline unvalidated — rejecting a bad configuration is
/// the linter's job.
fn check_config_from(p: &Parsed) -> Result<CheckConfig, Box<dyn Error>> {
    if let Some(path) = p.options.get("config") {
        return Ok(CheckConfig {
            file: Some(std::fs::read_to_string(path)?),
            ..CheckConfig::default()
        });
    }
    Ok(CheckConfig {
        file: None,
        depth: p.get("depth")?,
        retire_at: p.get("retire-at")?,
        hazard: p
            .options
            .get("hazard")
            .map(|v| hazard_from(v))
            .transpose()?,
    })
}

/// Resolves `--prop [FILE]` to a parsed property set: the bare flag (or
/// the literal value `builtin`) selects the built-in paper library, a
/// path loads and parses a `.wbp` file. Parse diagnostics render to
/// stderr before the hard error.
fn load_prop_set(p: &Parsed) -> Result<PropSet, Box<dyn Error>> {
    let path = p.options.get("prop").filter(|v| *v != "builtin");
    let text = path.map(std::fs::read_to_string).transpose()?;
    passes::prop_set(text.as_deref()).map_err(|diags| {
        for d in &diags {
            eprintln!("{}", d.render());
        }
        let path = path.map_or("", String::as_str);
        let n = diags.len();
        ArgError(format!("{path}: property set has {n} parse diagnostic(s)")).into()
    })
}

/// The property environment `trace validate --prop` compiles against:
/// unbound by default (so `where`-gated properties whose symbols the
/// invocation does not pin are skipped), with `--machine`, `--depth`,
/// `--mshrs`, and `--hazard` binding symbols when given.
fn prop_env_from(p: &Parsed) -> Result<PropEnv, Box<dyn Error>> {
    let mut env = PropEnv::unbound();
    if p.options.contains_key("machine") {
        env.machine = Some(check_machine_from(p)?.name());
    }
    if let Some(v) = p.options.get("depth") {
        env.depth = Some(
            v.parse()
                .map_err(|_| ArgError(format!("bad --depth {v:?}")))?,
        );
    }
    if let Some(m) = check_mshrs_from(p)? {
        env.mshrs = Some(m as u64);
    }
    if let Some(v) = p.options.get("hazard") {
        env.hazard = Some(hazard_name(hazard_from(v)?));
    }
    Ok(env)
}

/// `wbsim bench`, routed through the job layer: measure both engines over
/// the table-7 cell grid, emit the `BENCH_*.json` snapshot, and
/// optionally gate against a committed baseline. Measurement cells stay
/// serial inside the job (parallel samples would contend for cores and
/// wreck the numbers).
fn cmd_bench(p: &Parsed) -> CmdResult {
    let defaults = wbsim_bench::MeasureScale::table7();
    let instructions = p.get_or("instructions", defaults.instructions)?;
    let samples = p.get_or("samples", defaults.samples)?;
    let options = JobOptions {
        instructions,
        warmup: p.get_or("warmup", instructions * 3 / 10)?,
        seed: p.get_or("seed", defaults.seed)?,
        check_data: false,
        jobs: p.get_or("jobs", 0usize)?,
        engine: wbsim_sim::Engine::default(),
    };
    eprintln!(
        "measuring {} cells × {} samples × 2 engines at {} instructions (+{} warmup)…",
        51, samples, options.instructions, options.warmup
    );
    let outcome = run_job(&Manifest {
        kind: JobKind::Bench { samples },
        options,
    });
    if let Some(msg) = &outcome.failed {
        return Err(ArgError(msg.clone()).into());
    }
    let snap_json = outcome.artifact_text("bench.json").unwrap_or("");
    let snap = wbsim_bench::BenchSnapshot::from_json(snap_json)
        .map_err(|e| ArgError(format!("bench: internal snapshot: {e}")))?;
    let json_only = p.has_flag("json") && !p.options.contains_key("out");
    if json_only {
        // Clean JSON pipe: the snapshot on stdout, nothing else.
        print!("{snap_json}");
    } else {
        for t in &snap.targets {
            println!(
                "{:24} mean {:8.2} cells/s  stddev {:6.2}  p99 {:8.2}  ({} samples)",
                t.name,
                t.mean_cells_per_sec,
                t.stddev_cells_per_sec,
                t.p99_cells_per_sec,
                t.samples
            );
        }
        if let [fast, reference] = snap.targets.as_slice() {
            println!(
                "event-driven / reference mean ratio: {:.2}×",
                fast.mean_cells_per_sec / reference.mean_cells_per_sec
            );
        }
    }
    if let Some(out) = p.options.get("out") {
        std::fs::write(out, snap_json)?;
        println!("wrote snapshot to {out}");
    }
    if let Some(baseline_path) = p.options.get("check") {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| ArgError(format!("bench: cannot read {baseline_path}: {e}")))?;
        let baseline = wbsim_bench::BenchSnapshot::from_json(&text)
            .map_err(|e| ArgError(format!("bench: {baseline_path}: {e}")))?;
        let tolerance = p.get_or("tolerance", 20.0f64)?;
        let cmp = wbsim_bench::compare(&baseline, &snap, tolerance);
        for line in &cmp.lines {
            println!("{line}");
        }
        for f in &cmp.failures {
            eprintln!("REGRESSION: {f}");
        }
        if !cmp.failures.is_empty() {
            return Err(ArgError(format!(
                "bench: {} regression(s) vs {baseline_path} (tolerance {tolerance}%)",
                cmp.failures.len()
            ))
            .into());
        }
        println!(
            "bench gate passed vs {baseline_path} (rev {}, tolerance {tolerance}%)",
            baseline.git_rev
        );
    }
    Ok(())
}

/// `wbsim serve`: the job daemon. Runs until `POST /v1/shutdown` (or the
/// process is killed).
fn cmd_serve(p: &Parsed) -> CmdResult {
    let addr = p
        .options
        .get("addr")
        .cloned()
        .unwrap_or_else(|| wbsim_jobs::DEFAULT_ADDR.to_string());
    let workers = p.get_or("workers", wbsim_jobs::DEFAULT_WORKERS)?;
    wbsim_jobs::serve(&addr, workers)
}

fn cmd_list() -> CmdResult {
    println!("benchmark models (paper Table 4):");
    for m in BenchmarkModel::ALL {
        let p = m.paper();
        println!(
            "  {:<12} loads {:>5.1}%  stores {:>5.1}%  L1 {:>6.2}%  WB {:>6.2}%",
            m.name(),
            p.pct_loads,
            p.pct_stores,
            p.l1_hit,
            p.wb_hit
        );
    }
    println!("transformed kernels (paper Table 6): cholsky-T, gmtry-T");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_jobs::merged_check_json;
    use wbsim_types::diagnostics::Diagnostic;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// `wbsim bench` at toy scale: snapshot emission, a passing self-check
    /// against its own output, and a hard failure against an incompatible
    /// baseline.
    #[test]
    fn bench_snapshot_and_gate() {
        let dir = std::env::temp_dir().join("wbsim-bench-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let out = path.to_str().unwrap();
        let scale = [
            "--instructions",
            "1000",
            "--warmup",
            "200",
            "--samples",
            "1",
        ];
        let mut write = v(&["bench", "--out", out]);
        write.extend(scale.iter().map(|s| s.to_string()));
        dispatch(&write).unwrap();
        let snap = wbsim_bench::BenchSnapshot::from_json(&std::fs::read_to_string(&path).unwrap())
            .unwrap();
        assert_eq!(snap.cells, 51);
        assert_eq!(snap.targets.len(), 2);

        // Re-measuring the same workload passes its own gate at a generous
        // tolerance (the only variance is wall-clock noise).
        let mut check = v(&["bench", "--check", out, "--tolerance", "95"]);
        check.extend(scale.iter().map(|s| s.to_string()));
        dispatch(&check).unwrap();

        // A baseline from a different workload shape is rejected.
        let mut other = v(&["bench", "--check", out, "--instructions", "2000"]);
        other.extend(
            ["--warmup", "200", "--samples", "1"]
                .iter()
                .map(|s| s.to_string()),
        );
        let err = dispatch(&other).unwrap_err().to_string();
        assert!(err.contains("regression"), "{err}");

        // And an unreadable baseline is a clean error.
        assert!(dispatch(&v(&[
            "bench",
            "--check",
            "/nonexistent.json",
            "--instructions",
            "500",
            "--warmup",
            "0",
            "--samples",
            "1"
        ]))
        .is_err());
    }

    #[test]
    fn help_and_list_work() {
        assert!(dispatch(&v(&["help"])).is_ok());
        assert!(dispatch(&v(&[])).is_ok());
        assert!(dispatch(&v(&["list"])).is_ok());
    }

    #[test]
    fn unknown_command_fails() {
        assert!(dispatch(&v(&["frobnicate"])).is_err());
        assert!(dispatch(&v(&["figure", "99"])).is_err());
        assert!(dispatch(&v(&["table", "0"])).is_err());
        assert!(dispatch(&v(&["ablation", "a99"])).is_err());
    }

    #[test]
    fn run_requires_known_benchmark() {
        assert!(dispatch(&v(&["run"])).is_err());
        assert!(dispatch(&v(&["run", "--bench", "nosuch"])).is_err());
    }

    #[test]
    fn small_run_works() {
        assert!(dispatch(&v(&[
            "run",
            "--bench",
            "espresso",
            "--instructions",
            "2000",
            "--check-data"
        ]))
        .is_ok());
    }

    #[test]
    fn predict_works() {
        assert!(dispatch(&v(&[
            "predict",
            "--bench",
            "compress",
            "--instructions",
            "3000"
        ]))
        .is_ok());
        assert!(dispatch(&v(&["predict"])).is_err());
    }

    #[test]
    fn multi_seed_run_works() {
        assert!(dispatch(&v(&[
            "run",
            "--bench",
            "doduc",
            "--seeds",
            "3",
            "--instructions",
            "2000",
            "--check-data"
        ]))
        .is_ok());
    }

    #[test]
    fn small_figure_works() {
        assert!(dispatch(&v(&["figure", "3", "--instructions", "1500", "--csv"])).is_ok());
    }

    #[test]
    fn hazard_parsing() {
        assert!(hazard_from("read-from-wb").is_ok());
        assert!(hazard_from("FLUSH-PARTIAL").is_ok());
        assert!(hazard_from("whatever").is_err());
    }

    #[test]
    fn sweep_works() {
        assert!(dispatch(&v(&[
            "sweep",
            "--bench",
            "li",
            "--param",
            "depth=2,4",
            "--instructions",
            "2000"
        ]))
        .is_ok());
        assert!(dispatch(&v(&["sweep", "--bench", "li"])).is_err());
        assert!(dispatch(&v(&["sweep", "--bench", "li", "--param", "bogus=1,2"])).is_err());
    }

    #[test]
    fn grid_works_and_skips_invalid_cells() {
        assert!(dispatch(&v(&[
            "grid",
            "--bench",
            "sc",
            "--x",
            "depth=2,8",
            "--y",
            "retire-at=2,4",
            "--instructions",
            "2000"
        ]))
        .is_ok());
        assert!(dispatch(&v(&["grid", "--bench", "sc", "--x", "depth=2"])).is_err());
        assert!(dispatch(&v(&[
            "grid", "--bench", "sc", "--x", "depth=2", "--y", "depth=4"
        ]))
        .is_err());
    }

    #[test]
    fn report_writes_markdown() {
        let dir = std::env::temp_dir().join("wbsim-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.md");
        assert!(dispatch(&v(&[
            "report",
            "--out",
            path.to_str().unwrap(),
            "--instructions",
            "1200",
            "--warmup",
            "200"
        ]))
        .is_ok());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("# wbsim reproduction report"));
        assert!(text.contains("### Figure 13"));
        assert!(text.contains("### Ablation A12"));
    }

    #[test]
    fn config_file_via_cli() {
        let dir = std::env::temp_dir().join("wbsim-cfg-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.wbcfg");
        std::fs::write(
            &path,
            "wb.depth = 12
wb.retirement = retire-at-8
",
        )
        .unwrap();
        assert!(dispatch(&v(&[
            "run",
            "--bench",
            "sc",
            "--config",
            path.to_str().unwrap(),
            "--instructions",
            "2000"
        ]))
        .is_ok());
        std::fs::write(
            &path,
            "garbage here
",
        )
        .unwrap();
        assert!(dispatch(&v(&[
            "run",
            "--bench",
            "sc",
            "--config",
            path.to_str().unwrap()
        ]))
        .is_err());
    }

    #[test]
    fn trace_synth_works() {
        let dir = std::env::temp_dir().join("wbsim-synth-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.trace");
        let path_s = path.to_str().unwrap();
        assert!(dispatch(&v(&[
            "trace",
            "synth",
            "--out",
            path_s,
            "--loads",
            "0.3",
            "--burst",
            "4",
            "--instructions",
            "3000"
        ]))
        .is_ok());
        assert!(dispatch(&v(&["trace", "run", path_s, "--check-data"])).is_ok());
        assert!(dispatch(&v(&["trace", "synth"])).is_err());
    }

    #[test]
    fn trace_events_roundtrip_and_validate() {
        let dir = std::env::temp_dir().join("wbsim-events-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e.jsonl");
        let path_s = path.to_str().unwrap();
        assert!(dispatch(&v(&[
            "trace",
            "events",
            "--bench",
            "compress",
            "--out",
            path_s,
            "--instructions",
            "800",
            "--check-data"
        ]))
        .is_ok());
        // Every line parses back into an event, and the stream has cycles.
        assert!(dispatch(&v(&["trace", "validate", path_s])).is_ok());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().count() > 800,
            "one CycleEnd per cycle at least"
        );
        assert!(text.contains("\"event\":"));
        // The non-blocking machine emits through the same writer.
        assert!(dispatch(&v(&[
            "trace",
            "events",
            "--bench",
            "compress",
            "--out",
            path_s,
            "--instructions",
            "500",
            "--hazard",
            "read-from-wb",
            "--mshrs",
            "2"
        ]))
        .is_ok());
        assert!(dispatch(&v(&["trace", "validate", path_s])).is_ok());
        // A corrupted file is rejected with a line number.
        std::fs::write(&path, "{\"event\":\"nonsense\"}\n").unwrap();
        let err = dispatch(&v(&["trace", "validate", path_s])).unwrap_err();
        assert!(err.to_string().contains(":1:"), "{err}");
        assert!(dispatch(&v(&["trace", "validate"])).is_err());
        assert!(dispatch(&v(&["trace", "events"])).is_err());
        assert!(dispatch(&v(&["trace", "bogus"])).is_err());
    }

    #[test]
    fn check_lint_via_cli() {
        assert!(dispatch(&v(&["check", "--depth", "4", "--retire-at", "2"])).is_ok());
        // Error-severity finding → non-zero exit.
        assert!(dispatch(&v(&["check", "--depth", "2", "--retire-at", "9"])).is_err());
        assert!(dispatch(&v(&["check", "--depth", "4", "--retire-at", "4", "--json"])).is_ok());
    }

    /// Satellite pin: `wbsim check --json` emits exactly one top-level
    /// document with `linter`, `exhaustive`, `reach`, `properties`,
    /// `refine`, and `sched` sections.
    #[test]
    fn merged_check_json_schema_is_pinned() {
        // No sections run: the skeleton with nulls.
        assert_eq!(
            merged_check_json(&[], [None; 5]),
            "{\"linter\":{\"diagnostics\":[],\"errors\":false},\
             \"exhaustive\":null,\"reach\":null,\"properties\":null,\"refine\":null,\
             \"sched\":null}"
        );
        // One diagnostic plus five section payloads, spliced verbatim.
        let d = Diagnostic::new("LNT001", wbsim_types::diagnostics::Severity::Warning, "wb")
            .with_message("m");
        assert_eq!(
            merged_check_json(
                std::slice::from_ref(&d),
                [
                    Some("{\"status\":\"clean\",\"report\":{}}"),
                    Some("{\"status\":\"violation\",\"diagnostic\":{}}"),
                    Some("{\"status\":\"invalid\",\"diagnostics\":[]}"),
                    Some("{\"status\":\"clean\",\"report\":{}}"),
                    Some("{\"harnesses\":[],\"clean\":true}"),
                ],
            ),
            format!(
                "{{\"linter\":{{\"diagnostics\":[{}],\"errors\":false}},\
                 \"exhaustive\":{{\"status\":\"clean\",\"report\":{{}}}},\
                 \"reach\":{{\"status\":\"violation\",\"diagnostic\":{{}}}},\
                 \"properties\":{{\"status\":\"invalid\",\"diagnostics\":[]}},\
                 \"refine\":{{\"status\":\"clean\",\"report\":{{}}}},\
                 \"sched\":{{\"harnesses\":[],\"clean\":true}}}}",
                d.to_json()
            )
        );
        // Error-severity findings flip the `errors` flag.
        let e = Diagnostic::new("CFG002", wbsim_types::diagnostics::Severity::Error, "wb")
            .with_message("m");
        assert!(merged_check_json(&[e], [None; 5]).contains("\"errors\":true"));
        // The shared escaper keeps violation messages valid JSON.
        assert_eq!(
            wbsim_types::json::escape("a\"b\\c\nd"),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn check_json_runs_requested_sections_in_one_document() {
        assert!(dispatch(&v(&[
            "check",
            "--json",
            "--exhaustive",
            "--max-ops",
            "2",
            "--jobs",
            "2"
        ]))
        .is_ok());
        // --out - would corrupt the single JSON document.
        assert!(dispatch(&v(&["check", "--json", "--exhaustive", "--out", "-"])).is_err());
        assert!(dispatch(&v(&["check", "--json", "--refine", "--out", "-"])).is_err());
    }

    #[test]
    fn check_nonblocking_machine_via_cli() {
        // A short clean NB exhaustive pass over a pinned MSHR count.
        assert!(dispatch(&v(&[
            "check",
            "--exhaustive",
            "--machine",
            "nonblocking",
            "--mshrs",
            "2",
            "--max-ops",
            "2",
            "--jobs",
            "2"
        ]))
        .is_ok());
        // Bad machine and MSHR arguments are rejected up front.
        assert!(dispatch(&v(&["check", "--exhaustive", "--machine", "warp-drive"])).is_err());
        assert!(dispatch(&v(&[
            "check",
            "--exhaustive",
            "--machine",
            "nonblocking",
            "--mshrs",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn check_nonblocking_reach_fault_writes_replayable_counterexample() {
        let dir = std::env::temp_dir().join("wbsim-nb-reach-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cex.jsonl");
        let path_s = path.to_str().unwrap();
        assert!(dispatch(&v(&[
            "check",
            "--reach",
            "--machine",
            "nonblocking",
            "--mshrs",
            "1",
            "--fault",
            "starve-retirement",
            "--out",
            path_s,
            "--jobs",
            "2"
        ]))
        .is_err());
        assert!(dispatch(&v(&["trace", "validate", path_s])).is_ok());
    }

    #[test]
    fn check_reach_fault_writes_replayable_counterexample() {
        let dir = std::env::temp_dir().join("wbsim-reach-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cex.jsonl");
        let path_s = path.to_str().unwrap();
        // Starved retirement is a livelock: the run fails and leaves a
        // trace that `trace validate` accepts.
        assert!(dispatch(&v(&[
            "check",
            "--reach",
            "--fault",
            "starve-retirement",
            "--out",
            path_s,
            "--jobs",
            "2"
        ]))
        .is_err());
        assert!(dispatch(&v(&["trace", "validate", path_s])).is_ok());
        // Unknown faults are rejected up front.
        assert!(dispatch(&v(&["check", "--reach", "--fault", "bogus"])).is_err());
    }

    #[test]
    fn check_refine_fault_writes_replayable_counterexample() {
        let dir = std::env::temp_dir().join("wbsim-refine-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cex.jsonl");
        let path_s = path.to_str().unwrap();
        // An overshooting skip horizon is invisible to the single-stepping
        // checkers; the refinement pass catches it and leaves a reference
        // trace that `trace validate` accepts.
        assert!(dispatch(&v(&[
            "check",
            "--refine",
            "--fault",
            "overshoot-skip",
            "--out",
            path_s,
            "--jobs",
            "2"
        ]))
        .is_err());
        assert!(dispatch(&v(&["trace", "validate", path_s])).is_ok());
    }

    #[test]
    fn trace_diff_reports_first_divergence() {
        let dir = std::env::temp_dir().join("wbsim-trace-diff-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        let a_s = a.to_str().unwrap();
        let b_s = b.to_str().unwrap();
        assert!(dispatch(&v(&[
            "trace",
            "events",
            "--bench",
            "compress",
            "--out",
            a_s,
            "--instructions",
            "300"
        ]))
        .is_ok());
        std::fs::copy(&a, &b).unwrap();
        assert!(dispatch(&v(&["trace", "diff", a_s, b_s])).is_ok());
        // Truncating one side is an end-of-stream divergence.
        let text = std::fs::read_to_string(&a).unwrap();
        let shorter: String = text.lines().take(50).map(|l| format!("{l}\n")).collect();
        std::fs::write(&b, shorter).unwrap();
        assert!(dispatch(&v(&["trace", "diff", a_s, b_s])).is_err());
        // Both sides from stdin, a missing side, and junk input are all
        // structured errors, never a panic.
        assert!(dispatch(&v(&["trace", "diff", "-", "-"])).is_err());
        assert!(dispatch(&v(&["trace", "diff", a_s])).is_err());
        std::fs::write(&b, "not json\n").unwrap();
        assert!(dispatch(&v(&["trace", "diff", a_s, b_s])).is_err());
    }

    #[test]
    fn check_prop_library_is_clean_via_cli() {
        assert!(dispatch(&v(&["check", "--prop", "--jobs", "2"])).is_ok());
    }

    #[test]
    fn check_prop_starve_counterexample_replays_through_trace_validate() {
        let dir = std::env::temp_dir().join("wbsim-prop-starve-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cex.jsonl");
        let path_s = path.to_str().unwrap();
        // Starved retirement violates the library's eventual-drain...
        assert!(dispatch(&v(&[
            "check",
            "--prop",
            "--fault",
            "starve-retirement",
            "--out",
            path_s,
            "--jobs",
            "2"
        ]))
        .is_err());
        // ...the trace is structurally valid, and replaying it through the
        // property monitors exhibits the same violation at runtime.
        assert!(dispatch(&v(&["trace", "validate", path_s])).is_ok());
        let err = dispatch(&v(&["trace", "validate", path_s, "--prop"])).unwrap_err();
        assert!(err.to_string().contains("eventual-drain"), "{err}");
    }

    #[test]
    fn check_prop_forwarding_counterexample_replays_through_trace_validate() {
        let dir = std::env::temp_dir().join("wbsim-prop-fwd-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cex.jsonl");
        let path_s = path.to_str().unwrap();
        // Skipped forwarding violates no-stale-forward somewhere on the grid.
        assert!(dispatch(&v(&[
            "check",
            "--prop",
            "--fault",
            "skip-wb-forwarding",
            "--out",
            path_s,
            "--jobs",
            "2"
        ]))
        .is_err());
        // The property is gated `where machine = blocking; where hazard =
        // read-from-wb`, so the replay binds those symbols.
        let err = dispatch(&v(&[
            "trace",
            "validate",
            path_s,
            "--prop",
            "--machine",
            "blocking",
            "--hazard",
            "read-from-wb",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no-stale-forward"), "{err}");
    }

    #[test]
    fn trace_validate_prop_passes_a_healthy_stream() {
        let dir = std::env::temp_dir().join("wbsim-prop-healthy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e.jsonl");
        let path_s = path.to_str().unwrap();
        assert!(dispatch(&v(&[
            "trace",
            "events",
            "--bench",
            "compress",
            "--out",
            path_s,
            "--instructions",
            "600"
        ]))
        .is_ok());
        // Unbound environment: the depth- and machine-gated properties are
        // skipped, the rest hold on a healthy machine's stream.
        assert!(dispatch(&v(&["trace", "validate", path_s, "--prop"])).is_ok());
    }

    #[test]
    fn bad_prop_file_is_rejected_with_diagnostics() {
        let dir = std::env::temp_dir().join("wbsim-prop-bad-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.wbp");
        std::fs::write(&path, "prop broken {\n  always nonsense-tag;\n}\n").unwrap();
        let path_s = path.to_str().unwrap();
        let err = dispatch(&v(&["check", "--prop", path_s])).unwrap_err();
        assert!(err.to_string().contains("parse diagnostic"), "{err}");
        assert!(dispatch(&v(&["trace", "validate", "-", "--prop", path_s])).is_err());
    }

    #[test]
    fn check_json_prop_section_and_file_round_trip() {
        let dir = std::env::temp_dir().join("wbsim-prop-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cex = dir.join("cex.jsonl");
        let cex_s = cex.to_str().unwrap();
        // The built-in library through the merged JSON document, with a
        // fault: the job fails and the document carries the violation.
        assert!(dispatch(&v(&[
            "check",
            "--json",
            "--prop",
            "--fault",
            "starve-retirement",
            "--out",
            cex_s,
            "--jobs",
            "2"
        ]))
        .is_err());
        // A property file's text rides in the manifest like --config's.
        let path = dir.join("lib.wbp");
        std::fs::write(&path, wbsim_check::builtin_library_text()).unwrap();
        assert!(dispatch(&v(&[
            "check",
            "--json",
            "--prop",
            path.to_str().unwrap(),
            "--fault",
            "starve-retirement",
            "--out",
            cex_s,
            "--jobs",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn table_wb_via_cli() {
        assert!(dispatch(&v(&[
            "table",
            "wb",
            "--instructions",
            "1200",
            "--warmup",
            "200"
        ]))
        .is_ok());
    }

    #[test]
    fn trace_roundtrip_via_cli() {
        let dir = std::env::temp_dir().join("wbsim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path_s = path.to_str().unwrap();
        assert!(dispatch(&v(&[
            "trace",
            "gen",
            "--bench",
            "li",
            "--out",
            path_s,
            "--instructions",
            "1000"
        ]))
        .is_ok());
        assert!(dispatch(&v(&["trace", "stats", path_s])).is_ok());
        assert!(dispatch(&v(&["trace", "run", path_s, "--check-data"])).is_ok());
        let bin = dir.join("t.bin");
        let bin_s = bin.to_str().unwrap();
        assert!(dispatch(&v(&[
            "trace",
            "gen",
            "--bench",
            "li",
            "--out",
            bin_s,
            "--instructions",
            "1000",
            "--binary"
        ]))
        .is_ok());
        assert!(dispatch(&v(&["trace", "run", bin_s, "--check-data"])).is_ok());
    }
}
