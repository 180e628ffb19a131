//! `verify`: the checker suite CI runs — `exhaustive` (at CI's `max_ops`:
//! 5 on the blocking grid, 4 on the non-blocking one), `reach`, `prop`
//! (built-in library) and `refine` on both 40-point grids,
//! plus `sched` at the default preemption bound — through the public
//! `wbsim_check` entry points and `wbsim_jobs::run_sched`, with a 2-wide
//! pool. Every pass must come back clean with the exact state counts
//! below. The checkers explore fixed grids: the seed changes nothing.

use std::time::Instant;

use wbsim_check::{
    builtin_library, check_exhaustive_jobs, check_exhaustive_nonblocking_jobs,
    check_props_reach_jobs, check_props_reach_nonblocking_jobs, check_reach_config,
    check_reach_config_nonblocking, check_reach_jobs, check_reach_nonblocking_jobs,
    check_refine_config, check_refine_config_nonblocking, check_refine_jobs,
    check_refine_nonblocking_jobs, PropSet, SchedOptions,
};
use wbsim_types::config::MachineConfig;
use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};

use crate::report::Report;
use crate::spans::Tracer;
use crate::sweep::POOL;
use crate::util::{median, repeat, secs, untraced_reps};
use crate::Args;

/// `exhaustive`'s longest op sequence on the blocking and the
/// non-blocking grid, as CI runs it.
const MAX_OPS: u32 = 5;
const MAX_OPS_NONBLOCKING: u32 = 4;

/// The passes, by span name.
const PASSES: [&str; 9] = [
    "check.exhaustive.blocking",
    "check.exhaustive.nonblocking",
    "check.reach.blocking",
    "check.reach.nonblocking",
    "check.prop.blocking",
    "check.prop.nonblocking",
    "check.refine.blocking",
    "check.refine.nonblocking",
    "check.sched",
];

/// Exact grid totals of a clean pass: (design points; states, or runs
/// for `exhaustive`, or schedules for `sched`; edges, or sequences for
/// `exhaustive`). They move only if a machine's transition relation, a
/// checker's universe or the built-in property library changes.
const EXPECTED: [(u64, u64, u64); 9] = [
    (40, 1_497_920, 37_448),
    (40, 187_200, 4_680),
    (40, 16_468, 131_744),
    (40, 41_152, 329_216),
    (40, 23_001, 184_008),
    (40, 54_112, 432_896),
    (40, 16_468, 164_680),
    (40, 41_152, 411_520),
    (3, 805, 0),
];

/// One pass's outcome.
struct PassOut {
    /// (design points, states or runs or schedules, edges).
    totals: (u64, u64, u64),
    problem: Option<String>,
}

fn run_pass(i: usize, props: &PropSet) -> PassOut {
    fn done<R>(r: Result<R, String>, f: impl FnOnce(&R) -> (u64, u64, u64)) -> PassOut {
        match r {
            Ok(rep) => PassOut {
                totals: f(&rep),
                problem: None,
            },
            Err(e) => PassOut {
                totals: (0, 0, 0),
                problem: Some(e),
            },
        }
    }
    let reach = |v: Box<wbsim_check::ReachViolation>| v.diagnostic.render();
    let refine = |v: Box<wbsim_check::RefineViolation>| v.diagnostic.render();
    let grid = |r: &wbsim_check::CheckReport| (r.configs, r.states_explored, r.edges);
    let prop = |r: &wbsim_check::PropReport| (r.configs, r.states_explored, r.edges);
    match i {
        0 => done(
            check_exhaustive_jobs(MAX_OPS, None, POOL).map_err(|ce| ce.violation.clone()),
            |r| (r.configs, r.runs, r.sequences),
        ),
        1 => done(
            check_exhaustive_nonblocking_jobs(MAX_OPS_NONBLOCKING, None, None, POOL)
                .map_err(|ce| ce.violation.clone()),
            |r| (r.configs, r.runs, r.sequences),
        ),
        2 => done(check_reach_jobs(None, POOL).map_err(reach), grid),
        3 => done(
            check_reach_nonblocking_jobs(None, None, POOL).map_err(reach),
            grid,
        ),
        4 => done(
            check_props_reach_jobs(props, None, POOL).map_err(reach),
            prop,
        ),
        5 => done(
            check_props_reach_nonblocking_jobs(props, None, None, POOL).map_err(reach),
            prop,
        ),
        6 => done(check_refine_jobs(None, POOL).map_err(refine), grid),
        7 => done(
            check_refine_nonblocking_jobs(None, None, POOL).map_err(refine),
            grid,
        ),
        _ => {
            let rep = wbsim_jobs::run_sched(None, &SchedOptions::default());
            let schedules: Vec<u64> = rep.results.iter().map(|r| r.stats.schedules).collect();
            println!("sched schedules per harness {schedules:?}");
            PassOut {
                totals: (rep.results.len() as u64, schedules.iter().sum(), 0),
                problem: (!rep.ok() || rep.counterexample().is_some()).then(|| rep.to_json()),
            }
        }
    }
}

/// One repetition: every pass, with its host seconds.
fn rep(props: &PropSet, tracer: &Tracer) -> Vec<(f64, PassOut)> {
    (0..PASSES.len())
        .map(|i| {
            let t = Instant::now();
            let r = tracer.span(PASSES[i], None, i as u64, |_| run_pass(i, props));
            (secs(t), r)
        })
        .collect()
}

/// The per-configuration (states, edges) that `tests/checker_state_counts.rs`
/// pins, re-checked once per run outside the timed region.
fn pinned_counts(report: &mut Report) {
    use LoadHazardPolicy::{FlushFull, FlushItemOnly, FlushPartial, ReadFromWb};
    let cfg = |hazard, depth, hw| {
        let mut c = MachineConfig::baseline();
        c.write_buffer.depth = depth;
        c.write_buffer.retirement = RetirementPolicy::RetireAt(hw);
        c.write_buffer.hazard = hazard;
        c
    };
    let reach_pins = [
        (FlushFull, 1, 1, (35, 280)),
        (FlushFull, 4, 2, (627, 5016)),
        (FlushFull, 4, 4, (51, 408)),
        (FlushPartial, 1, 1, (35, 280)),
        (FlushPartial, 4, 2, (627, 5016)),
        (FlushPartial, 4, 4, (51, 408)),
        (FlushItemOnly, 1, 1, (35, 280)),
        (FlushItemOnly, 4, 2, (627, 5016)),
        (FlushItemOnly, 4, 4, (51, 408)),
        (ReadFromWb, 1, 1, (43, 344)),
        (ReadFromWb, 4, 2, (627, 5016)),
        (ReadFromWb, 4, 4, (51, 408)),
    ];
    for (h, d, hw, want) in reach_pins {
        let got = check_reach_config(&cfg(h, d, hw))
            .map(|s| (s.states, s.edges))
            .ok();
        report.check(got == Some(want), || {
            format!("reach pin ({h:?}, {d}, {hw}): {got:?} != {want:?}")
        });
        let want = (want.0, want.0 * 10);
        let got = check_refine_config(&cfg(h, d, hw))
            .map(|s| (s.states, s.edges))
            .ok();
        report.check(got == Some(want), || {
            format!("refine pin ({h:?}, {d}, {hw}): {got:?} != {want:?}")
        });
    }
    let nb = cfg(ReadFromWb, 2, 1);
    for (mshrs, states, edges) in [(1, 897, 7176), (2, 1109, 8872), (4, 1109, 8872)] {
        let got = check_reach_config_nonblocking(&nb, mshrs)
            .map(|s| (s.states, s.edges))
            .ok();
        report.check(got == Some((states, edges)), || {
            format!("nb reach pin {mshrs}: {got:?}")
        });
        let got = check_refine_config_nonblocking(&nb, mshrs)
            .map(|s| (s.states, s.edges))
            .ok();
        report.check(got == Some((states, states * 10)), || {
            format!("nb refine pin {mshrs}: {got:?}")
        });
    }
}

/// Everything before the first timed operation: the built-in property
/// library (parsed) and both configuration grids. The passes run in the
/// fixed order of [`PASSES`]: their work does not depend on the seed, and
/// a fixed order keeps the allocator's high-water mark comparable.
pub fn setup() -> PropSet {
    std::hint::black_box(wbsim_check::bounded_configs(None));
    std::hint::black_box(wbsim_check::nonblocking_configs(None, None));
    builtin_library()
}

pub fn run(args: &Args, report: &mut Report) {
    let props = setup();

    let off = Tracer::new(false);
    let untraced = untraced_reps(args, setup, || rep(&props, &off));
    let reps = &untraced.reps;
    let check_rep = |tag: &str, passes: &[(f64, PassOut)], report: &mut Report| {
        for (i, (_, p)) in passes.iter().enumerate() {
            let ok = p.problem.is_none() && p.totals == EXPECTED[i];
            report.check(ok, || {
                format!("{tag}: {} {:?} {:?}", PASSES[i], p.totals, p.problem)
            });
        }
    };
    for (i, (_, passes)) in reps.iter().enumerate() {
        check_rep(&format!("rep {i}"), passes, report);
    }
    for (i, (_, p)) in reps[0].1.iter().enumerate() {
        println!(
            "{:<30} points {:>4} states/runs {:>9} edges/sequences {:>9} {}",
            PASSES[i],
            p.totals.0,
            p.totals.1,
            p.totals.2,
            if p.problem.is_none() {
                "clean"
            } else {
                "PROBLEM"
            }
        );
    }
    pinned_counts(report);
    let walls: Vec<f64> = reps.iter().map(|(w, _)| *w).collect();
    let wall_s = median(&walls);
    println!("repetitions of {} passes: {walls:.4?} s", PASSES.len());

    if !args.trace {
        report.metric("wall_s", wall_s, "s");
        report.metric("setup_s", untraced.setup_s, "s");
        report.metric("peak_rss_mb", untraced.peak_mb, "MiB");
        let points: u64 = reps[0].1.iter().map(|(_, p)| p.totals.0).sum();
        report.print("jobs_per_s", points as f64 / wall_s, "1/s");
        return;
    }

    let traced_budget = (args.seconds - secs(args.started)).max(0.0);
    let mut tracers = Vec::new();
    let traced = repeat(traced_budget, 1, |_| {
        let tracer = Tracer::new(true);
        let r = rep(&props, &tracer);
        tracers.push(tracer);
        r
    });
    for (i, (_, passes)) in traced.iter().enumerate() {
        check_rep(&format!("traced rep {i}"), passes, report);
    }
    let traced_walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
    report.metric(
        "bench.tracing_overhead_frac",
        median(&traced_walls) / wall_s - 1.0,
        "ratio",
    );
    for (i, name) in PASSES.iter().enumerate() {
        let w = median(&traced.iter().map(|(_, p)| p[i].0).collect::<Vec<_>>());
        let t = &traced[0].1[i].1.totals;
        if i == 8 {
            report.metric("check.sched.schedules_per_s", t.1 as f64 / w, "1/s");
            continue;
        }
        report.metric(&format!("{name}.wall_s"), w, "s");
        let unit = if i < 2 { "runs/s" } else { "states/s" };
        report.metric(&format!("{name}.states_per_s"), t.1 as f64 / w, unit);
    }
    let tracer = tracers.pop().expect("at least one traced repetition");
    let spans = tracer.spans();
    crate::finish_trace(args, &tracer, &spans);
}
