//! Subcommand implementations.

use std::error::Error;
use std::fs::File;
use std::io::{self, BufRead as _, BufReader, BufWriter};

use wbsim_check::{
    compile_props, first_divergence, read_event_stream, PropEnv, PropRunner, PropSet, SchedOptions,
};
use wbsim_experiments::ablations::{self, ABLATIONS};
use wbsim_experiments::harness::{pool_cells_jobs, Harness};
use wbsim_experiments::{figures, render, tables};
use wbsim_jobs::passes::{self, Evidence};
use wbsim_jobs::sched::{replay_mismatch, replay_sched, SchedFault};
use wbsim_jobs::{
    CheckConfig, CheckSpec, Executor, FigureFormat, JobKind, MachineSel, Manifest,
    Options as JobOptions, Store,
};
use wbsim_sim::{capture_events, Engine, Event, Machine, Observer};
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_trace::file as trace_file;
use wbsim_trace::stats::TraceStats;
use wbsim_types::config::{L2Config, MachineConfig};
use wbsim_types::diagnostics::any_errors;
use wbsim_types::divergence::FaultInjection;
use wbsim_types::file_config::{parse_machine_config, to_config_string};
use wbsim_types::op::Op;
use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};
use wbsim_types::stall::StallKind::{self, BufferFull, L2ReadAccess, LoadHazard};
use wbsim_types::stats::SimStats;
use wbsim_types::wire::or_list;

use crate::args::{help, parse, sweep_keys, ArgError, Parsed};

pub type CmdResult = Result<(), Box<dyn Error>>;

/// Runs the command `argv` names.
pub fn dispatch(argv: &[String]) -> CmdResult {
    let p = parse(argv)?;
    (p.command.run)(&p)
}

pub(crate) fn cmd_help(_: &Parsed) -> CmdResult {
    print!("{}\nablations:\n", help());
    for a in &ABLATIONS {
        println!("  {:<6}{}", a.id, a.alias);
    }
    Ok(())
}

/// `--seed` and `--instructions`, the workload every stream comes from.
fn workload(p: &Parsed) -> Result<(u64, u64), ArgError> {
    Ok((p.get_or_default("seed")?, p.get_or_default("instructions")?))
}

/// The job-layer [`JobOptions`] the workload and measurement options
/// describe.
fn job_options(p: &Parsed) -> Result<JobOptions, ArgError> {
    let (seed, instructions) = workload(p)?;
    Ok(JobOptions {
        instructions,
        warmup: p.get("warmup")?.unwrap_or(instructions / 3),
        seed,
        check_data: p.has("check-data"),
        jobs: p.get_or_default("jobs")?,
        ..JobOptions::default()
    })
}

/// Submits one manifest to a fresh per-invocation store. A deterministic
/// job failure (unknown table, check violation) becomes the command's
/// error *after* the caller has printed the artifacts it wants.
fn run_job(manifest: &Manifest) -> std::sync::Arc<wbsim_jobs::JobOutcome> {
    let store = Store::new();
    Executor::new(&store).run(manifest).outcome
}

/// The command's first positional after its name, or an error asking for it.
fn which<'a>(p: &'a Parsed, choices: &str) -> Result<&'a str, ArgError> {
    let ask = || ArgError(format!("{}: which one? ({choices})", p.command.name));
    p.positionals.get(1).map(String::as_str).ok_or_else(ask)
}

/// `--bench NAME` resolved to its model.
fn bench(p: &Parsed) -> Result<BenchmarkModel, ArgError> {
    let name = p.required("bench")?;
    BenchmarkModel::from_name(name).ok_or_else(|| ArgError(format!("unknown benchmark {name:?}")))
}

pub(crate) fn cmd_figure(p: &Parsed) -> CmdResult {
    let which = which(p, "3..13 or all")?;
    let svg_dir = p.value("svg");
    let format = match (svg_dir, p.has("csv")) {
        (Some(_), true) => return fail("--csv and --svg exclude each other"),
        (Some(_), false) => FigureFormat::Svg,
        (None, true) => FigureFormat::Csv,
        (None, false) => FigureFormat::Text,
    };
    let outcome = run_job(&Manifest {
        kind: JobKind::Figure {
            which: which.to_string(),
            format,
        },
        options: job_options(p)?,
    });
    if let Some(msg) = &outcome.failed {
        return fail(msg.clone());
    }
    match format {
        FigureFormat::Svg => {
            let dir = svg_dir.expect("svg format implies --svg");
            std::fs::create_dir_all(dir)?;
            for a in &outcome.artifacts {
                let path = std::path::Path::new(dir).join(&a.name);
                std::fs::write(&path, &a.bytes)?;
                println!("wrote {}", path.display());
            }
        }
        FigureFormat::Csv => print!("{}", outcome.artifact_text("figures.csv").unwrap_or("")),
        FigureFormat::Text => print!("{}", outcome.artifact_text("figures.txt").unwrap_or("")),
    }
    Ok(())
}

pub(crate) fn cmd_table(p: &Parsed) -> CmdResult {
    let which = which(p, "1..7, wb, or all")?.to_string();
    let outcome = run_job(&Manifest {
        kind: JobKind::Table { which },
        options: job_options(p)?,
    });
    if let Some(msg) = &outcome.failed {
        return fail(msg.clone());
    }
    print!("{}", outcome.artifact_text("tables.txt").unwrap_or(""));
    Ok(())
}

pub(crate) fn cmd_ablation(p: &Parsed) -> CmdResult {
    let ids = format!("{}..{}", ABLATIONS[0].id, ABLATIONS[ABLATIONS.len() - 1].id);
    let which = which(p, &format!("{ids} or all"))?;
    let h = job_options(p)?.harness();
    let figs = if which == "all" {
        ablations::all(&h)
    } else {
        vec![ablations::by_name(&h, which)
            .ok_or_else(|| ArgError(format!("no ablation {which:?} ({ids})")))?]
    };
    for f in figs {
        println!("{}", render::render_figure(&f));
    }
    Ok(())
}

/// Fails the command with `msg`.
fn fail<T>(msg: impl Into<String>) -> Result<T, Box<dyn Error>> {
    Err(ArgError(msg.into()).into())
}

/// The machine the configuration options describe: the `--config` file,
/// else the baseline, with every configuration flag given applied on
/// top. A flag that cannot apply is an error, never a no-op.
fn machine_from(p: &Parsed) -> Result<MachineConfig, Box<dyn Error>> {
    let mut cfg = match p.value("config") {
        // parse_machine_config reports every bad line at once, not just
        // the first.
        Some(path) => parse_machine_config(&std::fs::read_to_string(path)?)?,
        None => MachineConfig::baseline(),
    };
    let wb = &mut cfg.write_buffer;
    wb.depth = p.get("depth")?.unwrap_or(wb.depth);
    wb.retirement = p
        .get("retire-at")?
        .map_or(wb.retirement, RetirementPolicy::RetireAt);
    wb.hazard = p.get("hazard")?.unwrap_or(wb.hazard);
    cfg.issue_width = p.get("issue")?.unwrap_or(cfg.issue_width);
    cfg.l1.size_bytes = p
        .get("l1-kb")?
        .map_or(cfg.l1.size_bytes, |kb: u32| kb * 1024);
    let mut mm = p.get("mm")?;
    if let Some(kb) = p.get::<u32>("l2-kb")? {
        if let L2Config::Real { mm_latency, .. } = cfg.l2 {
            mm = mm.or(Some(mm_latency));
        }
        cfg.l2 = L2Config::real_with_size(kb * 1024).with_latency(cfg.l2.latency());
    }
    if let Some(latency) = p.get("l2-latency")? {
        cfg.l2 = cfg.l2.with_latency(latency);
    }
    if let Some(mm) = mm {
        let L2Config::Real { mm_latency, .. } = &mut cfg.l2 else {
            return fail("--mm needs a real L2 (--l2-kb N, or l2 = real in --config)");
        };
        *mm_latency = mm;
    }
    cfg.check_data = p.has("check-data");
    cfg.validate()?;
    Ok(cfg)
}

pub(crate) fn cmd_run(p: &Parsed) -> CmdResult {
    let bench = bench(p)?;
    let h = job_options(p)?.harness();
    let cfg = machine_from(p)?;
    let n_seeds = p.get_or_default("seeds")?;
    let barrier_every = p.get_or_default("barrier-every")?;
    let mshrs = p.get_or_default("mshrs")?;
    // Refuse what the chosen path would ignore: --seeds runs plain streams
    // on the blocking machine, which alone has an ideal mode.
    if n_seeds > 1 && (mshrs > 0 || barrier_every > 0 || p.has("ideal")) {
        return fail("--seeds excludes --mshrs, --barrier-every and --ideal");
    }
    if mshrs > 0 && p.has("ideal") {
        return fail("--ideal needs the blocking machine (no --mshrs)");
    }
    if n_seeds > 1 {
        let summary = h.run_seeds(bench, cfg, n_seeds);
        let (name, n) = (bench.name(), summary.seeds);
        println!("benchmark: {name}  ({n} seeds, mean ± sd, % of execution time)");
        for (name, (m, sd)) in [
            (L2ReadAccess.to_string(), summary.r),
            (BufferFull.to_string(), summary.f),
            (LoadHazard.to_string(), summary.l),
            ("total".to_string(), summary.total),
        ] {
            println!("{name:<16} {m:>7.3} ± {sd:.3}");
        }
        return Ok(());
    }
    let mut ops = bench.stream(h.seed, h.instructions + h.warmup);
    if barrier_every > 0 {
        ops = wbsim_trace::transform::with_barriers(&ops, barrier_every);
    }
    let stats = if mshrs > 0 {
        wbsim_sim::NonBlockingMachine::new(cfg, mshrs)?.run(ops)
    } else {
        let mut machine = Machine::new(cfg)?;
        if p.has("ideal") {
            machine.run_ideal_with_warmup(ops, h.warmup)
        } else {
            machine.run_with_warmup(ops, h.warmup)
        }
    };
    println!("benchmark: {}", bench.name());
    println!("{stats}");
    Ok(())
}

pub(crate) fn cmd_predict(p: &Parsed) -> CmdResult {
    let bench = bench(p)?;
    let (seed, instructions) = workload(p)?;
    let cfg = machine_from(p)?;
    let ops = bench.stream(seed, instructions);
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
    let (label, sim_pct) = (StallKind::to_string, |kind| sim.stall_pct(kind));
    for (name, model, simulated) in [
        (label(&BufferFull), pred.f_pct, sim_pct(BufferFull)),
        (label(&L2ReadAccess), pred.r_pct, sim_pct(L2ReadAccess)),
        (label(&LoadHazard), pred.l_pct, sim_pct(LoadHazard)),
        ("total".into(), pred.total_pct(), sim.total_stall_pct()),
    ] {
        println!("{name:<18} {model:>9.3}% {simulated:>9.3}%");
    }
    println!(
        "{:<18} {:>10.3} {:>10.3}",
        "mean occupancy",
        pred.mean_occupancy,
        sim.wb_detail.mean_occupancy()
    );
    Ok(())
}

/// One sweep cell: `ops` through `cfg` on `h`'s engine, measured after
/// `h.warmup` instructions.
fn run_cell(h: &Harness, cfg: &MachineConfig, ops: &[Op]) -> Result<SimStats, String> {
    let mut m = Machine::new(cfg.clone()).map_err(|e| e.to_string())?;
    m.set_engine(h.engine);
    Ok(m.run_with_warmup(ops.iter().copied(), h.warmup))
}

/// `--param`, `--x` or `--y`: a configuration option and the values it
/// takes, one per sweep cell.
fn sweep_param(p: &Parsed, flag: &str) -> Result<(&'static str, Vec<String>), ArgError> {
    let arg = p.required(flag)?;
    let shape = || {
        ArgError(format!(
            "--{flag} must look like KEY=V1,V2,..., got {arg:?}"
        ))
    };
    let (key, values) = arg.split_once('=').ok_or_else(shape)?;
    let keys: Vec<_> = sweep_keys().collect();
    let unknown = || ArgError(format!("--{flag} key must be one of {keys:?}, got {key:?}"));
    let key = sweep_keys().find(|k| *k == key).ok_or_else(unknown)?;
    Ok((
        key,
        values.split(',').map(|v| v.trim().to_string()).collect(),
    ))
}

pub(crate) fn cmd_sweep(p: &Parsed) -> CmdResult {
    let bench = bench(p)?;
    let (key, values) = sweep_param(p, "param")?;
    let h = job_options(p)?.harness();
    let ops = bench.stream(h.seed, h.instructions + h.warmup);
    let (name, n) = (bench.name(), h.instructions);
    println!("{name} sweeping {key} over {n} instructions\n");
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        key, "R %", "F %", "L %", "total %", "CPI", "occupancy"
    );
    println!("{}", "-".repeat(74));
    // Build every cell's config serially (stopping at the first bad value,
    // as the serial loop did), run the valid prefix on the worker pool,
    // then print rows in order — stdout is byte-identical to the old
    // one-at-a-time loop.
    let mut cfgs = Vec::new();
    let mut bad_value = None;
    for v in &values {
        match machine_from(&p.with(key, v)) {
            Ok(cfg) => cfgs.push(cfg),
            Err(e) => {
                bad_value = Some(e);
                break;
            }
        }
    }
    let results = pool_cells_jobs(cfgs.len(), h.jobs, |i| run_cell(&h, &cfgs[i], &ops));
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

pub(crate) fn cmd_grid(p: &Parsed) -> CmdResult {
    let bench = bench(p)?;
    let (xk, xs) = sweep_param(p, "x")?;
    let (yk, ys) = sweep_param(p, "y")?;
    if xk == yk {
        return fail("grid: --x and --y must differ");
    }
    let h = job_options(p)?.harness();
    let ops = bench.stream(h.seed, h.instructions + h.warmup);
    let (name, n) = (bench.name(), h.instructions);
    println!(
        "{name}: total write-buffer stall %% over {n} instructions ({yk} down, {xk} across)\n"
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
            xs.iter()
                .map(move |xv| machine_from(&p.with(xk, xv).with(yk, yv)).ok())
        })
        .collect();
    let cells = pool_cells_jobs(cfg_cells.len(), h.jobs, |i| {
        cfg_cells[i].as_ref().map(|cfg| run_cell(&h, cfg, &ops))
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
                Some(Err(e)) => return fail(e.clone()),
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

pub(crate) fn cmd_report(p: &Parsed) -> CmdResult {
    let h = job_options(p)?.harness();
    let mut out = format!(
        "# wbsim reproduction report

         Machine-generated by `wbsim report` — every table and figure of
         Skadron & Clark, *Design Issues and Tradeoffs for Write Buffers*
         (HPCA 1997), at {} measured instructions per benchmark per
         configuration (seed {}, {} warmup instructions).

",
        h.instructions, h.seed, h.warmup
    );
    out.push_str("## Tables\n\n");
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
    out.push_str("## Figures\n\n");
    for f in figures::all(&h) {
        out.push_str(&render::figure_markdown(&f));
    }
    out.push_str("## Ablations\n\n");
    for f in ablations::all(&h) {
        out.push_str(&render::figure_markdown(&f));
    }
    match p.value("out") {
        Some(path) => {
            std::fs::write(path, &out)?;
            println!("wrote {path} ({} bytes)", out.len());
        }
        None => print!("{out}"),
    }
    Ok(())
}

/// Writes `ops` to `--out` in the codec `--binary` picks.
fn write_trace(p: &Parsed, ops: &[Op]) -> Result<String, Box<dyn Error>> {
    let out = p.required("out")?;
    let f = BufWriter::new(File::create(out)?);
    if p.has("binary") {
        trace_file::write_binary(f, ops)?;
    } else {
        trace_file::write_text(f, ops)?;
    }
    Ok(out.to_string())
}

pub(crate) fn cmd_trace(p: &Parsed) -> CmdResult {
    let missing = || ArgError(format!("{}: FILE required", p.command.name));
    let file = || p.positionals.get(2).ok_or_else(missing);
    match p.command.name {
        "trace gen" => {
            let bench = bench(p)?;
            let (seed, instructions) = workload(p)?;
            let ops = bench.stream(seed, instructions);
            let out = write_trace(p, &ops)?;
            println!("wrote {} events to {out}", ops.len());
            Ok(())
        }
        "trace synth" => {
            let w = wbsim_trace::stream::MixedWorkload {
                pct_loads: p.get_or_default("loads")?,
                pct_stores: p.get_or_default("stores")?,
                hazard_load_frac: p.get_or_default("hazard-loads")?,
                hot_load_frac: p.get_or_default("hot")?,
                stream_load_frac: p.get_or_default("stream")?,
                seq_store_frac: p.get_or_default("seq")?,
                seq_run_words: p.get_or_default("run-words")?,
                store_burst: p.get_or_default("burst")?,
                revisit_store_frac: p.get_or_default("revisit")?,
                hot_bytes: 2 * 1024,
                region_bytes: p.get_or_default::<u64>("region-kb")? * 1024,
            };
            let (seed, instructions) = workload(p)?;
            let ops = w.generate(seed, instructions);
            let out = write_trace(p, &ops)?;
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
        "trace stats" => {
            let ops = load_trace(file()?)?;
            let t = TraceStats::measure(&ops);
            println!("instructions        {:>14}", t.instructions);
            println!("loads               {:>14}  ({:.2}%)", t.loads, t.pct_loads);
            let (stores, pct) = (t.stores, t.pct_stores);
            println!("stores              {stores:>14}  ({pct:.2}%)");
            println!("distinct lines      {:>14}", t.distinct_lines);
            println!("distinct store lines{:>14}", t.distinct_store_lines);
            println!("mean seq store run  {:>14.2}", t.mean_seq_store_run);
            println!("same-line stores    {:>13.2}%", t.pct_store_same_line);
            Ok(())
        }
        "trace run" => {
            let ops = load_trace(file()?)?;
            let cfg = machine_from(p)?;
            let stats = Machine::new(cfg)?.run(ops);
            println!("{stats}");
            Ok(())
        }
        "trace events" => {
            let bench = bench(p)?;
            let (seed, instructions) = workload(p)?;
            let cfg = machine_from(p)?;
            let ops = bench.stream(seed, instructions);
            let mshrs = p.get_or_default("mshrs")?;
            // `--out -` streams to stdout, as no `--out` does.
            let out = p.value("out").filter(|&path| path != "-");
            let sink: Box<dyn io::Write> = match out {
                Some(path) => Box::new(File::create(path)?),
                None => Box::new(io::stdout().lock()),
            };
            // Stdout is line-buffered: buffer it too, not one write per event.
            let w = capture_events(cfg, mshrs, Engine::default(), ops, BufWriter::new(sink))?;
            match (w.finish(), out) {
                (Ok((_, count)), Some(path)) => println!("wrote {count} events to {path}"),
                // A reader that closed stdout early wanted no more events.
                (Err(e), None) if e.kind() == io::ErrorKind::BrokenPipe => {}
                (Err(e), _) => return Err(e.into()),
                (Ok(_), None) => {}
            }
            Ok(())
        }
        "trace validate" => {
            let path = file()?;
            // `--prop [FILE]` additionally runs the stream through the
            // compiled property monitors: the same runtime semantics the
            // model checkers use, applied to one concrete trace.
            let mut runner = if p.has("prop") {
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
            let (mut count, mut cycles) = (0u64, 0u64);
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
                return fail(format!("{display}: no events"));
            }
            if let Some(r) = &runner {
                // End-of-stream verdict: a latched safety violation, else
                // a liveness obligation the stream never discharged.
                if let Some(v) = r.finish() {
                    eprintln!("{}", v.diagnostic().render());
                    return fail(format!(
                        "{display}: trace violates property {:?}",
                        v.property
                    ));
                }
                let n = r.monitors().props().len();
                let noun = if n == 1 { "property" } else { "properties" };
                let valid = format!("{display}: {count} events over {cycles} cycles, all valid");
                println!("{valid}; {n} {noun} satisfied");
            } else {
                println!("{display}: {count} events over {cycles} cycles, all valid");
            }
            Ok(())
        }
        _ => {
            let [a, b] = &p.positionals[2..] else {
                return fail("trace diff: two files required (one may be `-`)");
            };
            if a == "-" && b == "-" {
                return fail("trace diff: at most one side may be `-`");
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
                        fail(format!("{display}: undecodable event stream"))
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
                    fail(format!("event streams diverge at event #{i}"))
                }
            }
        }
    }
}

fn load_trace(path: &str) -> Result<Vec<Op>, Box<dyn Error>> {
    // Sniff the magic to pick the codec.
    let bytes = std::fs::read(path)?;
    let ops = if bytes.starts_with(trace_file::BINARY_MAGIC) {
        trace_file::read_binary(&bytes[..])?
    } else {
        trace_file::read_text(&bytes[..])?
    };
    Ok(ops)
}

/// Which machine the model checkers drive (`--machine`, blocking by
/// default), by the manifest's names.
fn check_machine_from(p: &Parsed) -> Result<MachineSel, ArgError> {
    let name: String = p.get_or_default("machine")?;
    let msg = format!(
        "unknown machine {name:?} (try {})",
        or_list(MachineSel::NAMES, " or ")
    );
    MachineSel::parse(&name).ok_or(ArgError(msg))
}

/// `--mshrs`, which the checkers need to be a count of at least one.
fn check_mshrs_from(p: &Parsed) -> Result<Option<usize>, ArgError> {
    let v = p.value("mshrs").unwrap_or_default();
    match p.get::<usize>("mshrs") {
        Ok(Some(0)) | Err(_) => Err(ArgError(format!("bad --mshrs {v:?} (need a count >= 1)"))),
        mshrs => mshrs,
    }
}

/// `wbsim check`: lint the configuration and run every selected pass of
/// the [`passes::PASSES`] table in order — the same run the check job executes.
/// `--json` prints that run's `check.json` document; human mode prints
/// the linter's findings and each pass's summary, its diagnostics on
/// stderr. Either way the first failing pass's counterexample (in table
/// order) goes to `--out`, and the first failure is the command's error.
pub(crate) fn cmd_check(p: &Parsed) -> CmdResult {
    // An option only one pass or machine reads is refused without it,
    // never ignored. `--machine` stays free: the linter reads it.
    let owners = [
        ("replay", "sched"),
        ("max-ops", "exhaustive"),
        ("preemptions", "sched"),
    ];
    for (opt, owner) in owners {
        if p.has(opt) && !p.has(owner) {
            return fail(format!("--{opt} needs --{owner}"));
        }
    }
    if p.has("mshrs") && check_machine_from(p)? != MachineSel::NonBlocking {
        return fail("--mshrs needs --machine nonblocking");
    }
    if let Some(path) = p.value("replay") {
        return cmd_check_replay(p, path);
    }
    let (json, out) = (p.has("json"), p.value("out"));
    if json && out == Some("-") {
        return fail("--out - conflicts with --json: stdout carries the JSON document");
    }
    let run = passes::run(&check_spec_from(p)?, p.get_or_default("jobs")?);
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
        error.get_or_insert_with(|| match p.value("prop") {
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
        let problems = "check found problems (see the JSON document)";
        error = run.failed().then(|| problems.to_string());
    } else if error.is_none() && run.ran().next().is_none() {
        let n = run.lint.len();
        let count = if n == 0 { "no".into() } else { n.to_string() };
        say(&format!("ok: {count} diagnostics, no errors"));
    }
    error.map_or(Ok(()), fail)
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
            let (ops, events) = (&ce.ops, ce.trace.len());
            say(&format!("minimized sequence ({} ops): {ops:?}", ops.len()));
            let replay = format!("replay with `wbsim trace validate {out}`");
            say(&format!("event trace: {out} ({events} events) — {replay}"));
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
    let max_ops = p.get_or_default("max-ops")?;
    if max_ops == 0 {
        return fail("--max-ops 0 checks nothing (need a sequence length >= 1)");
    }
    let mut spec = CheckSpec {
        exhaustive: p.has("exhaustive"),
        reach: p.has("reach"),
        refine: p.has("refine"),
        machine: check_machine_from(p)?,
        mshrs: check_mshrs_from(p)?,
        max_ops,
        fault: None,
        props: p.has("prop"),
        props_file: match p.value("prop") {
            Some(path) if path != "builtin" => Some(std::fs::read_to_string(path)?),
            _ => None,
        },
        sched: p.has("sched"),
        sched_fault: None,
        sched_preemptions: p.get("preemptions")?,
        config: check_config_from(p)?,
    };
    let Some(name) = p.value("fault") else {
        return Ok(spec);
    };
    // `--fault` goes to whichever selected pass takes it: a host fault to
    // `--sched`, a machine fault to the grid checkers. A name no selected
    // pass takes is an error.
    let grid = spec.exhaustive || spec.reach || spec.props || spec.refine;
    match (SchedFault::from_name(name), FaultInjection::from_name(name)) {
        (Some(f), _) if spec.sched => spec.sched_fault = Some(f),
        (_, Some(f)) if grid => spec.fault = Some(f),
        _ => {
            return fail(format!(
                "--fault {name:?} fits no selected pass (--exhaustive, --reach, --prop and \
                 --refine take {}; --sched takes {})",
                or_list(FaultInjection::NAMES, " or "),
                or_list(SchedFault::NAMES, " or ")
            ))
        }
    }
    Ok(spec)
}

/// `wbsim check --sched --replay FILE`: re-execute a recorded schedule.
/// A replay runs nothing else, so the other passes, `--json`, `--fault`,
/// `--out` and the options only the linter reads are refused rather than
/// ignored.
fn cmd_check_replay(p: &Parsed, path: &str) -> CmdResult {
    let passes = passes::PASSES.iter().map(|pass| pass.flag);
    let lint = ["config", "depth", "retire-at", "hazard", "machine", "mshrs"];
    for f in passes.chain(["json", "fault", "out"]).chain(lint) {
        if f != "sched" && p.has(f) {
            let why = "a replay re-executes the recorded schedule and nothing else";
            return fail(format!("--replay conflicts with --{f}: {why}"));
        }
    }
    let mut opts = SchedOptions::default();
    opts.preemption_bound = p.get("preemptions")?.unwrap_or(opts.preemption_bound);
    let text = std::fs::read_to_string(path)?;
    let (cex, outcome) = match replay_sched(&text, &opts) {
        Ok(r) => r,
        Err(d) => {
            eprintln!("{}", d.render());
            return fail(format!("cannot replay {path}: {}", d.message));
        }
    };
    if outcome.matches(&cex) {
        let (code, harness, steps) = (&cex.code, &cex.harness, cex.schedule.len());
        let forcing = format!("{steps} steps, forcing prefix {}", cex.prefix);
        println!("replay ok: {path} reproduces {code} on {harness} ({forcing})");
        return Ok(());
    }
    let d = replay_mismatch(&cex, &outcome);
    eprintln!("{}", d.render());
    fail("schedule did not reproduce its recorded verdict")
}

/// The [`CheckConfig`] this invocation's flags describe. A `--config`
/// file submits its *text* (the manifest never carries server-side
/// paths), so the override flags cannot apply to it and are refused;
/// without one, flags override the baseline unvalidated — rejecting a
/// bad configuration is the linter's job.
fn check_config_from(p: &Parsed) -> Result<CheckConfig, Box<dyn Error>> {
    for f in ["depth", "retire-at", "hazard"] {
        if p.has(f) && p.has("config") {
            return fail(format!(
                "--{f} conflicts with --config: the file is linted as written"
            ));
        }
    }
    Ok(CheckConfig {
        file: p.value("config").map(std::fs::read_to_string).transpose()?,
        depth: p.get("depth")?,
        retire_at: p.get("retire-at")?,
        hazard: p.get("hazard")?,
    })
}

/// Resolves `--prop [FILE]` to a parsed property set: the bare flag (or
/// the literal value `builtin`) selects the built-in paper library, a
/// path loads and parses a `.wbp` file. Parse diagnostics render to
/// stderr before the hard error.
fn load_prop_set(p: &Parsed) -> Result<PropSet, Box<dyn Error>> {
    let path = p.value("prop").filter(|v| *v != "builtin");
    let text = path.map(std::fs::read_to_string).transpose()?;
    passes::prop_set(text.as_deref()).map_err(|diags| {
        for d in &diags {
            eprintln!("{}", d.render());
        }
        let path = path.unwrap_or_default();
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
    if p.has("machine") {
        env.machine = Some(check_machine_from(p)?.name());
    }
    env.depth = p.get("depth")?;
    env.mshrs = check_mshrs_from(p)?.map(|m| m as u64);
    env.hazard = p
        .get::<LoadHazardPolicy>("hazard")?
        .map(LoadHazardPolicy::name);
    Ok(env)
}

/// `wbsim bench`, routed through the job layer: measure both engines over
/// the table-7 cell grid, emit the `BENCH_*.json` snapshot, and
/// optionally gate against a committed baseline. Measurement cells stay
/// serial inside the job (parallel samples would contend for cores and
/// wreck the numbers).
pub(crate) fn cmd_bench(p: &Parsed) -> CmdResult {
    let (seed, instructions) = workload(p)?;
    let samples = p.get_or_default("samples")?;
    let options = JobOptions {
        instructions,
        warmup: p.get("warmup")?.unwrap_or(instructions * 3 / 10),
        seed,
        ..JobOptions::default()
    };
    if p.has("json") && p.has("out") {
        return fail("--json prints the snapshot, --out writes it: pick one");
    }
    let (n, warmup) = (options.instructions, options.warmup);
    let scale = format!("{n} instructions (+{warmup} warmup)");
    eprintln!("measuring 51 cells × {samples} samples × 2 engines at {scale}…");
    let outcome = run_job(&Manifest {
        kind: JobKind::Bench { samples },
        options,
    });
    if let Some(msg) = &outcome.failed {
        return fail(msg.clone());
    }
    let snap_json = outcome.artifact_text("bench.json").unwrap_or("");
    let snap = wbsim_bench::BenchSnapshot::from_json(snap_json)
        .map_err(|e| ArgError(format!("bench: internal snapshot: {e}")))?;
    if p.has("json") {
        // Clean JSON pipe: the snapshot on stdout, nothing else.
        print!("{snap_json}");
    } else {
        for t in &snap.targets {
            let (mean, sd, p99) = (
                t.mean_cells_per_sec,
                t.stddev_cells_per_sec,
                t.p99_cells_per_sec,
            );
            let (name, n) = (t.name.as_str(), t.samples);
            println!(
                "{name:24} mean {mean:8.2} cells/s  stddev {sd:6.2}  p99 {p99:8.2}  ({n} samples)"
            );
        }
        if let [fast, reference] = snap.targets.as_slice() {
            println!(
                "event-driven / reference mean ratio: {:.2}×",
                fast.mean_cells_per_sec / reference.mean_cells_per_sec
            );
        }
    }
    if let Some(out) = p.value("out") {
        std::fs::write(out, snap_json)?;
        println!("wrote snapshot to {out}");
    }
    if let Some(baseline_path) = p.value("check") {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| ArgError(format!("bench: cannot read {baseline_path}: {e}")))?;
        let baseline = wbsim_bench::BenchSnapshot::from_json(&text)
            .map_err(|e| ArgError(format!("bench: {baseline_path}: {e}")))?;
        let tolerance: f64 = p.get_or_default("tolerance")?;
        // The absolute gate per target, then the same-run engine ratio.
        let mut n = 0;
        for cmp in [
            wbsim_bench::compare(&baseline, &snap, tolerance),
            wbsim_bench::compare_engine_ratio(&baseline, &snap, tolerance),
        ] {
            for line in &cmp.lines {
                println!("{line}");
            }
            for f in &cmp.failures {
                eprintln!("REGRESSION: {f}");
            }
            n += cmp.failures.len();
        }
        if n > 0 {
            return fail(format!(
                "bench: {n} regression(s) vs {baseline_path} (tolerance {tolerance}%)"
            ));
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
pub(crate) fn cmd_serve(p: &Parsed) -> CmdResult {
    let addr: String = p.get_or_default("addr")?;
    wbsim_jobs::serve(&addr, p.get_or_default("workers")?)
}

pub(crate) fn cmd_list(_: &Parsed) -> CmdResult {
    println!("benchmark models (paper Table 4):");
    for m in BenchmarkModel::ALL {
        let (name, p) = (m.name(), m.paper());
        let (loads, stores, l1, wb) = (p.pct_loads, p.pct_stores, p.l1_hit, p.wb_hit);
        println!(
            "  {name:<12} loads {loads:>5.1}%  stores {stores:>5.1}%  L1 {l1:>6.2}%  WB {wb:>6.2}%"
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

    /// `wbsim bench` at toy scale: snapshot emission, the gate against two
    /// baselines made from that snapshot — one the run cannot miss and one
    /// it cannot meet, so host timing decides neither — and a hard failure
    /// against an incompatible or unreadable baseline.
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

        // The snapshot with every cells/s figure and the engine ratio
        // scaled by `f` (the event-driven figures by f², the reference
        // figures by f), gating a fresh run of the same workload.
        let gate = |f: f64, name: &str| {
            let mut baseline = snap.clone();
            for t in &mut baseline.targets {
                let by = if t.engine == Engine::EventDriven.name() {
                    f * f
                } else {
                    f
                };
                t.mean_cells_per_sec *= by;
                t.stddev_cells_per_sec *= by;
                t.p99_cells_per_sec *= by;
            }
            let ratio = baseline.engine_ratio().unwrap() / snap.engine_ratio().unwrap();
            assert!((ratio / f - 1.0).abs() < 1e-9, "{ratio} vs {f}");
            let path = dir.join(name);
            std::fs::write(&path, baseline.to_json()).unwrap();
            let mut check = v(&["bench", "--check", path.to_str().unwrap()]);
            check.extend(scale.iter().map(|s| s.to_string()));
            dispatch(&check)
        };
        // A baseline 1,000 times slower passes.
        gate(1e-3, "BENCH_slow.json").unwrap();
        // One 1,000 times faster fails every gate: both targets' mean and
        // p99, and the ratio.
        let err = gate(1e3, "BENCH_fast.json").unwrap_err().to_string();
        assert!(err.contains("5 regression(s)"), "{err}");

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
        let run =
            |h: &str| machine_from(&parse(&v(&["run", "--bench", "li", "--hazard", h])).unwrap());
        assert_eq!(
            run("read-from-wb").unwrap().write_buffer.hazard,
            LoadHazardPolicy::ReadFromWb
        );
        assert_eq!(
            run("FLUSH-PARTIAL").unwrap().write_buffer.hazard,
            LoadHazardPolicy::FlushPartial
        );
        assert!(run("whatever").is_err());
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

    fn parsed(args: &[&str]) -> Parsed {
        parse(&v(args)).unwrap()
    }

    /// The configuration rows' defaults are the baseline machine: giving
    /// each explicitly changes nothing.
    #[test]
    fn configuration_defaults_are_the_baseline() {
        let run = parsed(&["run"]);
        let mut argv = v(&["run"]);
        for key in sweep_keys() {
            let row = run.command.all_opts().find(|o| o.name == key).unwrap();
            if let (Some(default), false) = (row.default, key == "mm") {
                argv.extend([format!("--{key}"), default.to_string()]);
            }
        }
        let baseline = MachineConfig {
            check_data: false,
            ..MachineConfig::baseline()
        };
        assert_eq!(machine_from(&run).unwrap(), baseline);
        assert_eq!(machine_from(&parse(&argv).unwrap()).unwrap(), baseline);
    }

    /// Table defaults that only describe a library default agree with it.
    #[test]
    fn table_defaults_match_the_library() {
        let default = |argv: &[&str], key: &str| {
            let p = parsed(argv);
            let row = p.command.all_opts().find(|o| o.name == key).unwrap();
            row.default.unwrap().to_string()
        };
        assert_eq!(default(&["serve"], "addr"), wbsim_jobs::DEFAULT_ADDR);
        let workers = wbsim_jobs::DEFAULT_WORKERS.to_string();
        assert_eq!(default(&["serve"], "workers"), workers);
        let scale = wbsim_bench::MeasureScale::table7();
        assert_eq!(default(&["bench"], "samples"), scale.samples.to_string());
        assert_eq!(
            default(&["bench"], "instructions"),
            scale.instructions.to_string()
        );
        assert_eq!(default(&["bench"], "seed"), scale.seed.to_string());
        assert_eq!(scale.instructions * 3 / 10, scale.warmup);
        let bound = SchedOptions::default().preemption_bound.to_string();
        assert_eq!(default(&["check"], "preemptions"), bound);
        assert_eq!(default(&["check"], "machine"), MachineSel::Blocking.name());
        let L2Config::Real { mm_latency, .. } = L2Config::real_with_size(1024) else {
            unreachable!()
        };
        assert_eq!(default(&["run"], "mm"), mm_latency.to_string());
    }

    /// A `--config` file is the base; every configuration flag applies on
    /// top of it, as on top of the baseline.
    #[test]
    fn configuration_flags_apply_on_top_of_a_config_file() {
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/baseline.wbcfg");
        for flags in [
            &["--l2-kb", "128", "--mm", "200"][..],
            &["--l1-kb", "32"],
            &["--issue", "4"],
            &[
                "--depth",
                "12",
                "--retire-at",
                "8",
                "--hazard",
                "read-from-wb",
            ],
            &["--l2-kb", "512", "--l2-latency", "10"],
        ] {
            let bare = machine_from(&parsed(&[&["run"], flags].concat())).unwrap();
            let based = machine_from(&parsed(&[&["run", "--config", file], flags].concat()));
            assert_eq!(based.unwrap(), bare, "{flags:?}");
        }
    }

    /// A flag that cannot apply is an error, never silently dropped.
    #[test]
    fn a_flag_that_cannot_apply_is_refused() {
        let err = machine_from(&parsed(&["run", "--mm", "50"])).unwrap_err();
        assert!(err.to_string().contains("--mm needs a real L2"), "{err}");
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/baseline.wbcfg");
        for flag in ["--depth", "--retire-at"] {
            let err = dispatch(&v(&["check", "--config", file, flag, "4"])).unwrap_err();
            assert!(err.to_string().contains("conflicts with --config"), "{err}");
        }
        let small = ["--bench", "li", "--instructions", "1000"];
        for extra in [
            &["--seeds", "2", "--mshrs", "2"][..],
            &["--seeds", "2", "--ideal"],
            &["--seeds", "2", "--barrier-every", "4"],
            &["--mshrs", "2", "--ideal"],
        ] {
            assert!(
                dispatch(&v(&[&["run"], &small[..], extra].concat())).is_err(),
                "{extra:?}"
            );
        }
        assert!(dispatch(&v(&["figure", "3", "--csv", "--svg", "d"])).is_err());
        assert!(dispatch(&v(&["bench", "--json", "--out", "b.json"])).is_err());
    }
}
