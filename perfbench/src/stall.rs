//! `stall-sweep`: the baseline buffer and the paper's recommended buffer
//! (12-deep, retire-at-8, read-from-WB) on a long-latency hierarchy — a
//! 128K real L2 with 20-cycle latency in front of 200-cycle memory — over
//! all 17 models, on the blocking machine and on the non-blocking machine
//! with 1, 2 and 4 MSHRs.
//!
//! Each model's stream is generated once per repetition and shared by
//! its five cells, as `Harness::sweep` shares a stream across a grid; the
//! streams, then the cells, run one by one on `pool_cells_jobs`. The
//! non-blocking machine requires read-from-WB, so only the recommended
//! buffer runs there; it has no warmup hook, so those cells start with
//! empty caches.

use std::time::Instant;

use wbsim_core::presets;
use wbsim_experiments::harness::pool_cells_jobs;
use wbsim_sim::Engine;
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_types::config::{L2Config, MachineConfig};
use wbsim_types::op::Op;

use crate::report::Report;
use crate::spans::Tracer;
use crate::sweep::{self, Cell, CellOut, Kind, POOL};
use crate::util::{median, repeat, secs, untraced_reps, Rng, P99_SAMPLES};
use crate::Args;

/// Measured instructions per blocking cell, and warmup; non-blocking cells
/// run the same stream from cold.
const INSTRUCTIONS: u64 = 450_000;
const WARMUP: u64 = 150_000;

/// Machine legs per model; cells are ordered model by model.
const LEGS: usize = 5;

fn hierarchy(wb: wbsim_types::config::WriteBufferConfig) -> MachineConfig {
    MachineConfig {
        l2: L2Config::Real {
            size_bytes: 128 * 1024,
            assoc: 1,
            latency: 20,
            mm_latency: 200,
        },
        write_buffer: wb,
        ..MachineConfig::baseline()
    }
}

fn inputs(seed: u64) -> Vec<Cell> {
    let hseed = Rng::new(seed).next_u64() % 1_000_000;
    let base = hierarchy(wbsim_types::config::WriteBufferConfig::baseline());
    let rec = hierarchy(presets::paper_recommended());
    let blocking = Kind::Blocking {
        warmup: WARMUP,
        observe: false,
    };
    let legs: [(&'static str, &str, &MachineConfig, Kind); LEGS] = [
        ("blocking", "baseline", &base, blocking),
        ("blocking", "recommended", &rec, blocking),
        ("nb-1", "recommended", &rec, Kind::NonBlocking { mshrs: 1 }),
        ("nb-2", "recommended", &rec, Kind::NonBlocking { mshrs: 2 }),
        ("nb-4", "recommended", &rec, Kind::NonBlocking { mshrs: 4 }),
    ];
    let mut cells = Vec::new();
    for bench in BenchmarkModel::ALL {
        for (group, label, cfg, kind) in &legs {
            cells.push(Cell {
                id: cells.len(),
                group,
                label: (*label).to_string(),
                bench,
                cfg: (*cfg).clone(),
                kind: *kind,
                length: INSTRUCTIONS + WARMUP,
                seed: hseed,
            });
        }
    }
    cells
}

fn rep(cells: &[Cell], tracer: &Tracer) -> Vec<CellOut> {
    let models = cells.len() / LEGS;
    let streams: Vec<Vec<Op>> = tracer.span("experiments.pool", None, 0, |ps| {
        pool_cells_jobs(models, POOL, |b| {
            let c = &cells[b * LEGS];
            tracer.span("trace.stream", ps, b as u64, |_| {
                c.bench.stream(c.seed, c.length)
            })
        })
    });
    tracer.span("experiments.pool", None, 0, |ps| {
        pool_cells_jobs(cells.len(), POOL, |i| {
            sweep::run_cell(
                &cells[i],
                Some(&streams[i / LEGS]),
                Engine::EventDriven,
                tracer.enabled(),
                tracer,
                ps,
            )
        })
    })
}

/// Everything before the first timed operation: the cell list, with the
/// grid linted (blocking and non-blocking rules) as the harness lints it.
pub fn setup(seed: u64) -> Vec<Cell> {
    let cells = inputs(seed);
    let grid: Vec<(String, MachineConfig)> = cells
        .iter()
        .take(LEGS)
        .map(|c| (c.label.clone(), c.cfg.clone()))
        .collect();
    std::hint::black_box(wbsim_check::lint_grid(&grid));
    std::hint::black_box(wbsim_check::lint_nonblocking(&cells[2].cfg, 4));
    cells
}

pub fn run(args: &Args, report: &mut Report) {
    let cells = setup(args.seed);
    let mut rng = Rng::new(args.seed ^ 0x5eed);
    // Two sampled benchmarks per leg, for the reference re-runs and the
    // replay.
    let ref_sample: Vec<usize> = (0..LEGS)
        .flat_map(|leg| {
            rng.sample(BenchmarkModel::ALL.len(), 2)
                .into_iter()
                .map(move |b| b * LEGS + leg)
        })
        .collect();
    let replay_sample: Vec<usize> = (0..LEGS)
        .map(|leg| rng.below(17) as usize * LEGS + leg)
        .collect();
    let instr: u64 = cells.iter().map(|c| c.length).sum();

    let off = Tracer::new(false);
    let untraced = untraced_reps(args, || setup(args.seed), || rep(&cells, &off));
    let reps = &untraced.reps;
    let walls: Vec<f64> = reps.iter().map(|(w, _)| *w).collect();
    let wall_s = median(&walls);
    let first: Vec<u64> = reps[0].1.iter().map(|o| o.digest).collect();
    for (i, (_, outs)) in reps.iter().enumerate().skip(1) {
        for (c, o) in cells.iter().zip(outs) {
            report.check(o.error.is_none() && o.digest == first[c.id], || {
                format!(
                    "rep {i}: cell {} ({} {} {}) differs from rep 0",
                    c.id,
                    c.bench.name(),
                    c.group,
                    c.label
                )
            });
        }
    }
    println!("repetitions of {} cells: {walls:.4?} s", cells.len());
    let pairs = sweep::reference_pairs(&cells, &ref_sample, report);

    if !args.trace {
        let digest = sweep::print_digests(&cells, &reps[0].1, report);
        println!("simstats digest (all cells) {digest:016x}");
        report.metric("wall_s", wall_s, "s");
        report.metric("setup_s", untraced.setup_s, "s");
        report.metric("peak_rss_mb", untraced.peak_mb, "MiB");
        report.print("sim_minstr_per_s", instr as f64 * 1e-6 / wall_s, "Minstr/s");
        report.print("jobs_per_s", cells.len() as f64 / wall_s, "1/s");
        return;
    }

    let traced_budget = (args.seconds - secs(args.started)).max(0.0);
    let min_reps = P99_SAMPLES.div_ceil(cells.len());
    let mut last = None;
    let mut cell_ms = Vec::new();
    let traced = repeat(traced_budget, min_reps, |_| {
        let tracer = Tracer::new(true);
        let t = Instant::now();
        let outs = rep(&cells, &tracer);
        let wall = secs(t);
        cell_ms.extend(sweep::sim_cell_ms(&cells, &tracer.spans()));
        let digests: Vec<u64> = outs.iter().map(|o| o.digest).collect();
        last = Some((tracer, outs, wall));
        digests
    });
    let (tracer, outs, traced_wall) = last.expect("at least one traced repetition");
    for (i, (_, d)) in traced.iter().enumerate() {
        report.check(*d == first, || {
            format!("traced rep {i}: cell digests differ from the untraced run")
        });
    }
    let digest = sweep::print_digests(&cells, &outs, report);
    println!("simstats digest (all cells) {digest:016x}");
    let traced_walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
    report.metric(
        "bench.tracing_overhead_frac",
        median(&traced_walls) / wall_s - 1.0,
        "ratio",
    );

    let costs = sweep::mean_costs(
        &replay_sample
            .iter()
            .map(|&i| sweep::replay(&cells[i]))
            .collect::<Vec<_>>(),
    );
    let spans = tracer.spans();
    sweep::sweep_metrics(
        &sweep::SweepTrace {
            cells: &cells,
            outs: &outs,
            spans: &spans,
            cell_ms: &cell_ms,
            wall_s: traced_wall,
            // One shared stream per model.
            gen_instructions: outs.iter().step_by(LEGS).map(|o| o.instructions).sum(),
            costs,
            pairs,
            observed_s: (0.0, 0.0),
        },
        report,
    );
    crate::finish_trace(args, &tracer, &spans);
}
