//! `paper-sweep`: the paper's own regeneration — tables 4–7 and `wb`, and
//! figures 3–13, over all 17 models — on the blocking machine with the
//! default event-driven engine.
//!
//! The untraced run passes one manifest per table and figure to
//! `wbsim_jobs::execute` with a 2-wide cell pool. The traced run drives
//! the same cells itself, the way the experiments harness does (one
//! stream per benchmark shared across a figure's configurations, one per
//! cell for the tables), so each layer call can carry a span.

use std::time::Instant;

use wbsim_experiments::figures;
use wbsim_experiments::harness::pool_cells_jobs;
use wbsim_jobs::{execute, Manifest};
use wbsim_sim::Engine;
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_types::config::{L2Config, MachineConfig};
use wbsim_types::op::Op;

use crate::report::Report;
use crate::spans::Tracer;
use crate::sweep::{self, Cell, CellOut, Kind, POOL};
use crate::util::{fnv64, median, repeat, secs, untraced_reps, Rng, P99_SAMPLES};
use crate::Args;

/// Measured instructions per cell, and warmup (the CLI's 3:1 ratio).
const INSTRUCTIONS: u64 = 60_000;
const WARMUP: u64 = 20_000;

const TABLES: [&str; 5] = ["4", "5", "6", "7", "wb"];
const FIGURES: [&str; 11] = ["3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13"];

/// One table or figure, as the traced run drives it.
struct Unit {
    cells: std::ops::Range<usize>,
    /// Figures share one stream per benchmark across configurations.
    shared: bool,
    /// Tables 4 and 6 run their cells one after another.
    pooled: bool,
    /// The figure's grid, linted before it runs.
    grid: Vec<(String, MachineConfig)>,
}

pub struct Inputs {
    manifests: Vec<Manifest>,
    units: Vec<Unit>,
    cells: Vec<Cell>,
}

fn harness_seed(seed: u64) -> u64 {
    Rng::new(seed).next_u64() % 1_000_000
}

/// The manifests, and the cells behind them, for `seed`.
fn inputs(seed: u64) -> Inputs {
    let hseed = harness_seed(seed);
    let options = format!(
        "{{\"instructions\":{INSTRUCTIONS},\"warmup\":{WARMUP},\"seed\":{hseed},\
         \"check_data\":false,\"jobs\":{POOL},\"engine\":\"event-driven\"}}"
    );
    let mut manifests = Vec::new();
    for t in TABLES {
        let text = format!(
            "{{\"schema\":\"wbsim-job/1\",\"kind\":\"table\",\"spec\":{{\"which\":\"{t}\"}},\"options\":{options}}}"
        );
        manifests.push(Manifest::from_json(&text).expect("generated manifests are valid"));
    }
    for f in FIGURES {
        let text = format!(
            "{{\"schema\":\"wbsim-job/1\",\"kind\":\"figure\",\"spec\":{{\"which\":\"{f}\",\"format\":\"text\"}},\"options\":{options}}}"
        );
        manifests.push(Manifest::from_json(&text).expect("generated manifests are valid"));
    }

    let mut cells = Vec::new();
    let mut units = Vec::new();
    let blocking = Kind::Blocking {
        warmup: WARMUP,
        observe: false,
    };
    let mut push_unit = |shared,
                         pooled,
                         grid,
                         new: Vec<(BenchmarkModel, String, MachineConfig, Kind, u64)>,
                         cells: &mut Vec<Cell>| {
        let start = cells.len();
        for (bench, label, cfg, kind, length) in new {
            cells.push(Cell {
                id: cells.len(),
                group: "paper",
                label,
                bench,
                cfg,
                kind,
                length,
                seed: hseed,
            });
        }
        units.push(Unit {
            cells: start..cells.len(),
            shared,
            pooled,
            grid,
        });
    };
    let base = MachineConfig::baseline;
    let all = BenchmarkModel::ALL;
    let full = INSTRUCTIONS + WARMUP;
    push_unit(
        false,
        false,
        Vec::new(),
        all.iter()
            .map(|&b| {
                (
                    b,
                    "stream".to_string(),
                    base(),
                    Kind::TraceStats,
                    INSTRUCTIONS,
                )
            })
            .collect(),
        &mut cells,
    );
    push_unit(
        false,
        true,
        Vec::new(),
        all.iter()
            .map(|&b| (b, "base".to_string(), base(), blocking, full))
            .collect(),
        &mut cells,
    );
    push_unit(
        false,
        false,
        Vec::new(),
        [
            BenchmarkModel::Gmtry,
            BenchmarkModel::GmtryTransformed,
            BenchmarkModel::Cholsky,
            BenchmarkModel::CholskyTransformed,
        ]
        .iter()
        .map(|&b| (b, "base".to_string(), base(), blocking, full))
        .collect(),
        &mut cells,
    );
    push_unit(
        false,
        true,
        Vec::new(),
        all.iter()
            .flat_map(|&b| {
                [128u32, 512, 1024].map(|kb| {
                    let cfg = MachineConfig {
                        l2: L2Config::real_with_size(kb * 1024),
                        ..base()
                    };
                    (b, format!("{kb}k-L2"), cfg, blocking, full)
                })
            })
            .collect(),
        &mut cells,
    );
    push_unit(
        false,
        true,
        Vec::new(),
        all.iter()
            .map(|&b| {
                let observed = Kind::Blocking {
                    warmup: WARMUP,
                    observe: true,
                };
                (b, "base+histogram".to_string(), base(), observed, full)
            })
            .collect(),
        &mut cells,
    );
    for (_, grid) in figures::preset_grids() {
        let new = all
            .iter()
            .flat_map(|&b| {
                grid.iter()
                    .map(move |(label, cfg)| (b, label.clone(), cfg.clone(), blocking, full))
            })
            .collect();
        push_unit(true, true, grid, new, &mut cells);
    }
    Inputs {
        manifests,
        units,
        cells,
    }
}

/// One untraced repetition: every manifest through `execute`. Returns the
/// artifacts' digest per manifest, the cells executed, and failures.
fn untraced_rep(manifests: &[Manifest]) -> (Vec<u64>, u64, Vec<String>) {
    let mut digests = Vec::new();
    let mut cells = 0;
    let mut failures = Vec::new();
    for m in manifests {
        let out = execute(m);
        cells += out.cells;
        if let Some(f) = &out.failed {
            failures.push(format!("{} {}: {f}", m.kind.tag(), m.to_json()));
        }
        let mut bytes = Vec::new();
        for a in &out.artifacts {
            bytes.extend_from_slice(a.name.as_bytes());
            bytes.extend_from_slice(&a.bytes);
        }
        digests.push(fnv64(&bytes));
    }
    (digests, cells, failures)
}

/// One traced repetition: the same cells, driven here with a span around
/// every layer call. Returns the cells' results and the instructions the
/// shared figure streams generated.
fn traced_rep(inp: &Inputs, tracer: &Tracer) -> (Vec<CellOut>, u64) {
    let mut outs = vec![CellOut::default(); inp.cells.len()];
    let mut shared_instr = 0;
    for (u_idx, u) in inp.units.iter().enumerate() {
        let cells = &inp.cells[u.cells.clone()];
        let results: Vec<CellOut> = tracer.span("experiments.unit", None, u_idx as u64, |us| {
            if u.shared {
                tracer.span("check.lint", us, u_idx as u64, |_| {
                    wbsim_check::lint_grid(&u.grid)
                });
                let benches = BenchmarkModel::ALL;
                let streams: Vec<Vec<Op>> =
                    tracer.span("experiments.pool", us, u_idx as u64, |ps| {
                        pool_cells_jobs(benches.len(), POOL, |b| {
                            tracer.span("trace.stream", ps, b as u64, |_| {
                                benches[b].stream(cells[0].seed, cells[0].length)
                            })
                        })
                    });
                shared_instr += streams.iter().flatten().map(Op::instructions).sum::<u64>();
                let nc = u.grid.len();
                tracer.span("experiments.pool", us, u_idx as u64, |ps| {
                    pool_cells_jobs(cells.len(), POOL, |i| {
                        sweep::run_cell(
                            &cells[i],
                            Some(&streams[i / nc]),
                            Engine::EventDriven,
                            true,
                            tracer,
                            ps,
                        )
                    })
                })
            } else if u.pooled {
                tracer.span("experiments.pool", us, u_idx as u64, |ps| {
                    pool_cells_jobs(cells.len(), POOL, |i| {
                        sweep::run_cell(&cells[i], None, Engine::EventDriven, true, tracer, ps)
                    })
                })
            } else {
                cells
                    .iter()
                    .map(|c| sweep::run_cell(c, None, Engine::EventDriven, true, tracer, us))
                    .collect()
            }
        });
        for (i, o) in u.cells.clone().zip(results) {
            outs[i] = o;
        }
    }
    (outs, shared_instr)
}

/// Everything before the first timed operation: the manifests (parsed as
/// the job layer parses them), the cell list, and the figure grids linted
/// as the harness lints them.
pub fn setup(seed: u64) -> Inputs {
    let inp = inputs(seed);
    for u in &inp.units {
        std::hint::black_box(wbsim_check::lint_grid(&u.grid));
    }
    inp
}

pub fn run(args: &Args, report: &mut Report) {
    let inp = setup(args.seed);
    let sim_cells: Vec<usize> = inp
        .cells
        .iter()
        .filter(|c| c.simulates())
        .map(|c| c.id)
        .collect();
    let mut rng = Rng::new(args.seed ^ 0x5eed);
    let ref_sample: Vec<usize> = rng
        .sample(sim_cells.len(), 8)
        .into_iter()
        .map(|i| sim_cells[i])
        .collect();
    let replay_sample: Vec<usize> = rng
        .sample(sim_cells.len(), 6)
        .into_iter()
        .map(|i| sim_cells[i])
        .collect();
    let sim_instr: u64 = inp
        .cells
        .iter()
        .filter(|c| c.simulates())
        .map(|c| c.length)
        .sum();

    let untraced = untraced_reps(args, || setup(args.seed), || untraced_rep(&inp.manifests));
    let reps = &untraced.reps;
    let walls: Vec<f64> = reps.iter().map(|(w, _)| *w).collect();
    let wall_s = median(&walls);
    let (first_digests, cells, _) = &reps[0].1;
    for (rep, (_, (digests, rep_cells, failures))) in reps.iter().enumerate() {
        report.ok_ops(inp.manifests.len() as u64);
        for f in failures {
            report.check(false, || format!("rep {rep}: {f}"));
        }
        report.check(digests == first_digests, || {
            format!("rep {rep}: artifacts differ from rep 0")
        });
        // The traced run drives `inp.cells` itself: they must be the cells
        // `execute` ran.
        report.check(*rep_cells == inp.cells.len() as u64, || {
            format!(
                "rep {rep}: execute ran {rep_cells} cells, the traced cell list has {}",
                inp.cells.len()
            )
        });
    }
    for (m, d) in inp.manifests.iter().zip(first_digests) {
        println!("artifacts {:<7} {:<4} {d:016x}", m.kind.tag(), tag_which(m));
    }
    println!(
        "repetitions of {} manifests ({} cells each): {walls:.4?} s",
        inp.manifests.len(),
        cells
    );
    let pairs = sweep::reference_pairs(&inp.cells, &ref_sample, report);

    if !args.trace {
        report.metric("wall_s", wall_s, "s");
        report.metric("setup_s", untraced.setup_s, "s");
        report.metric("peak_rss_mb", untraced.peak_mb, "MiB");
        report.print(
            "sim_minstr_per_s",
            sim_instr as f64 * 1e-6 / wall_s,
            "Minstr/s",
        );
        report.print("jobs_per_s", *cells as f64 / wall_s, "1/s");
        return;
    }

    let traced_budget = (args.seconds - secs(args.started)).max(0.0);
    let min_reps = P99_SAMPLES.div_ceil(sim_cells.len());
    let mut last = None;
    let mut cell_ms = Vec::new();
    let traced = repeat(traced_budget, min_reps, |_| {
        let tracer = Tracer::new(true);
        let t = Instant::now();
        let (outs, shared) = traced_rep(&inp, &tracer);
        let wall = secs(t);
        cell_ms.extend(sweep::sim_cell_ms(&inp.cells, &tracer.spans()));
        let digests = outs.iter().map(|o| o.digest).collect::<Vec<_>>();
        last = Some((tracer, outs, shared, wall));
        digests
    });
    let (tracer, outs, shared_instr, traced_wall) = last.expect("at least one traced repetition");
    for (rep, (_, d)) in traced.iter().enumerate() {
        report.check(*d == traced[0].1, || {
            format!("traced rep {rep}: cell digests differ from rep 0")
        });
    }
    let digest = sweep::print_digests(&inp.cells, &outs, report);
    println!("simstats digest (all cells) {digest:016x}");
    let traced_walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
    report.metric(
        "bench.tracing_overhead_frac",
        median(&traced_walls) / wall_s - 1.0,
        "ratio",
    );

    let observed_s = observer_ratio(&inp.cells);
    let costs = sweep::mean_costs(
        &replay_sample
            .iter()
            .map(|&i| sweep::replay(&inp.cells[i]))
            .collect::<Vec<_>>(),
    );
    let spans = tracer.spans();
    let gen_instructions = shared_instr
        + inp
            .units
            .iter()
            .filter(|u| !u.shared)
            .flat_map(|u| u.cells.clone())
            .map(|i| outs[i].instructions)
            .sum::<u64>();
    sweep::sweep_metrics(
        &sweep::SweepTrace {
            cells: &inp.cells,
            outs: &outs,
            spans: &spans,
            cell_ms: &cell_ms,
            wall_s: traced_wall,
            gen_instructions,
            costs,
            pairs,
            observed_s,
        },
        report,
    );
    crate::finish_trace(args, &tracer, &spans);
}

/// Host seconds of the table-`wb` cells under `HistogramObserver` and
/// under `NullObserver`, same streams and engine.
fn observer_ratio(cells: &[Cell]) -> (f64, f64) {
    let off = Tracer::new(false);
    let (mut hist, mut null) = (0.0, 0.0);
    for c in cells
        .iter()
        .filter(|c| matches!(c.kind, Kind::Blocking { observe: true, .. }))
    {
        let ops = c.bench.stream(c.seed, c.length);
        let t = Instant::now();
        sweep::run_cell(c, Some(&ops), Engine::EventDriven, false, &off, None);
        hist += secs(t);
        let plain = Cell {
            kind: Kind::Blocking {
                warmup: WARMUP,
                observe: false,
            },
            ..c.clone()
        };
        let t = Instant::now();
        sweep::run_cell(&plain, Some(&ops), Engine::EventDriven, false, &off, None);
        null += secs(t);
    }
    (hist, null)
}

fn tag_which(m: &Manifest) -> String {
    match &m.kind {
        wbsim_jobs::JobKind::Table { which } | wbsim_jobs::JobKind::Figure { which, .. } => {
            which.clone()
        }
        _ => String::new(),
    }
}
