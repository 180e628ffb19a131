//! Job execution: lowering a [`Manifest`] onto the simulation layers and
//! composing its artifacts.
//!
//! The executor is the one place that knows how each job kind maps to the
//! existing crates (`experiments` grids, the [`PASSES`] table, `bench`
//! measurement, observed trace runs). Artifacts hold the *exact bytes* the
//! one-shot CLI would have written to stdout, so `wbsim table|figure|bench`
//! route through this layer — and `wbsim serve` can hand out cached
//! results — without changing a single byte of output; `wbsim check`
//! runs the pass table itself and prints the same `check.json`.
//! Byte-identity is pinned by `tests/job_layer.rs`.

use std::sync::Arc;

use wbsim_check::Counterexample;
use wbsim_experiments::harness::FigureResult;
use wbsim_experiments::{figures, render, tables};
use wbsim_sim::capture_events;
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_types::config::MachineConfig;
use wbsim_types::diagnostics::{any_errors, Diagnostic};
use wbsim_types::file_config::parse_machine_config;
use wbsim_types::json::escape;
use wbsim_types::CacheKey;

use crate::manifest::{CheckSpec, JobKind, Manifest, Options};
use crate::passes::{self, Evidence, PASSES};
use crate::store::{Artifact, JobOutcome, Store};

/// What a submission came back with.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The manifest's content-addressed key.
    pub key: CacheKey,
    /// Whether the outcome was served from the store without executing.
    pub cached: bool,
    /// The artifacts (shared with the store's entry).
    pub outcome: Arc<JobOutcome>,
}

/// Runs manifests against a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct Executor<'a> {
    store: &'a Store,
}

impl<'a> Executor<'a> {
    /// An executor over `store`.
    #[must_use]
    pub fn new(store: &'a Store) -> Self {
        Executor { store }
    }

    /// Submits one manifest: a store hit answers without executing any
    /// cell, a miss executes and caches. Racing submissions of the same
    /// manifest execute exactly once — [`Store::execute_memoized`] makes
    /// the check-or-claim atomic and parks the losers until the winner
    /// publishes (pinned by the `store-race` sched harness).
    pub fn run(&self, m: &Manifest) -> JobResult {
        let key = m.cache_key();
        let (outcome, cached) = self.store.execute_memoized(key, || execute(m));
        JobResult {
            key,
            cached,
            outcome,
        }
    }
}

/// Assembles the single `wbsim check --json` document: the linter
/// section, then one section per [`PASSES`] entry, in table order. The
/// section arguments are already-rendered JSON values; a pass that was
/// not requested renders as `null`.
#[must_use]
pub fn merged_check_json(linter: &[Diagnostic], sections: [Option<&str>; PASSES.len()]) -> String {
    let diags: Vec<String> = linter.iter().map(Diagnostic::to_json).collect();
    let mut doc = format!(
        "{{\"linter\":{{\"diagnostics\":[{}],\"errors\":{}}}",
        diags.join(","),
        any_errors(linter)
    );
    for (pass, section) in PASSES.iter().zip(sections) {
        doc.push_str(&format!(
            ",\"{}\":{}",
            pass.section,
            section.unwrap_or("null")
        ));
    }
    doc.push('}');
    doc
}

/// Executes a manifest unconditionally (no store involved). Semantically
/// invalid manifests — normally rejected at parse time — come back as a
/// failed outcome with the same message the CLI front end uses.
#[must_use]
pub fn execute(m: &Manifest) -> JobOutcome {
    if let Some(d) = m.validate().into_iter().next() {
        return JobOutcome {
            failed: Some(d.message),
            ..JobOutcome::default()
        };
    }
    match &m.kind {
        JobKind::Table { which } => run_table(which, &m.options),
        JobKind::Figure { which, format } => run_figure(which, *format, &m.options),
        JobKind::Check(spec) => run_check(spec, &m.options),
        JobKind::Bench { samples } => run_bench(*samples, &m.options),
        JobKind::Trace {
            bench,
            config,
            mshrs,
        } => run_trace(bench, config, *mshrs, &m.options),
    }
}

fn text_artifact(name: &str, text: String) -> Artifact {
    Artifact {
        name: name.to_string(),
        bytes: text.into_bytes(),
    }
}

/// Simulation cells behind one table (0 for the static tables).
fn table_cells(which: &str) -> u64 {
    let benches = BenchmarkModel::ALL.len() as u64;
    match which {
        "4" | "5" | "wb" => benches,
        "6" => 4,           // cholsky, gmtry, and their -T transforms
        "7" => benches * 3, // three buffer sizes per benchmark
        _ => 0,             // tables 1-3 are static
    }
}

fn run_table(which: &str, opts: &Options) -> JobOutcome {
    let h = opts.harness();
    let cfg = MachineConfig::baseline();
    let one = |n: &str| match n {
        "1" => tables::table1(&cfg),
        "2" => tables::table2(&cfg),
        "3" => tables::table3(),
        "4" => tables::table4(&h),
        "5" => tables::table5(&h),
        "6" => tables::table6(&h),
        "7" => tables::table7(&h),
        _ => tables::table_wb(&h),
    };
    let list: Vec<&str> = if which == "all" {
        vec!["1", "2", "3", "4", "5", "6", "7", "wb"]
    } else {
        vec![which]
    };
    let mut text = String::new();
    let mut cells = 0u64;
    for n in &list {
        // The CLI prints each table with `println!`.
        text.push_str(&render::render_table(&one(n)));
        text.push('\n');
        cells += table_cells(n);
    }
    JobOutcome {
        artifacts: vec![text_artifact("tables.txt", text)],
        cells,
        failed: None,
    }
}

fn figure_list(which: &str, h: &wbsim_experiments::harness::Harness) -> Vec<FigureResult> {
    match which {
        "all" => figures::all(h),
        "3" => vec![figures::fig3(h)],
        "4" => vec![figures::fig4(h)],
        "5" => vec![figures::fig5(h)],
        "6" => vec![figures::fig6(h)],
        "7" => vec![figures::fig7(h)],
        "8" => vec![figures::fig8(h)],
        "9" => vec![figures::fig9(h)],
        "10" => vec![figures::fig10(h)],
        "11" => vec![figures::fig11(h)],
        "12" => vec![figures::fig12(h)],
        _ => vec![figures::fig13(h)],
    }
}

fn run_figure(which: &str, format: crate::manifest::FigureFormat, opts: &Options) -> JobOutcome {
    use crate::manifest::FigureFormat;
    let h = opts.harness();
    let figs = figure_list(which, &h);
    let cells: u64 = figs
        .iter()
        .map(|f| (f.benches.len() * f.configs.len()) as u64)
        .sum();
    let artifacts = match format {
        FigureFormat::Text => {
            let mut text = String::new();
            for f in &figs {
                text.push_str(&render::render_figure(f));
                text.push('\n');
            }
            vec![text_artifact("figures.txt", text)]
        }
        FigureFormat::Csv => {
            let mut text = String::new();
            for f in &figs {
                text.push_str(&render::figure_csv(f));
            }
            vec![text_artifact("figures.csv", text)]
        }
        FigureFormat::Svg => figs
            .iter()
            .map(|f| {
                // Same file name the CLI writes into `--svg DIR`.
                let name = f.id.to_ascii_lowercase().replace(' ', "_");
                text_artifact(&format!("{name}.svg"), render::svg_figure(f))
            })
            .collect(),
    };
    JobOutcome {
        artifacts,
        cells,
        failed: None,
    }
}

/// Serializes a machine counterexample's meta document: enough for a
/// client to print the CLI's human report without re-checking.
fn counterexample_meta(ce: &Counterexample) -> String {
    format!(
        "{{\"violation\":{},\"config\":{},\"mshrs\":{},\"ops\":{},\
         \"ops_len\":{},\"trace_len\":{}}}",
        escape(&ce.violation),
        escape(&wbsim_types::file_config::to_config_string(&ce.config)),
        ce.mshrs.map_or("null".to_string(), |m| m.to_string()),
        escape(&format!("{:?}", ce.ops)),
        ce.ops.len(),
        ce.trace.len()
    )
}

/// The check job: `check.json`, then each failing pass's counterexample
/// artifacts (`<stem>.jsonl`, plus `<stem>.meta.json` for a machine
/// trace), in table order.
fn run_check(spec: &CheckSpec, opts: &Options) -> JobOutcome {
    let run = passes::run(spec, opts.jobs);
    let mut artifacts = vec![text_artifact("check.json", run.document())];
    for (pass, r) in run.ran() {
        let Some(ev) = r.violation.as_ref().and_then(|v| v.counterexample.as_ref()) else {
            continue;
        };
        artifacts.push(text_artifact(
            &format!("{}.jsonl", pass.artifact),
            ev.jsonl(),
        ));
        if let Evidence::Trace(ce) = ev {
            artifacts.push(text_artifact(
                &format!("{}.meta.json", pass.artifact),
                counterexample_meta(ce),
            ));
        }
    }
    JobOutcome {
        artifacts,
        cells: run.ran().map(|(_, r)| r.cells).sum(),
        failed: run
            .failed()
            .then(|| "check found problems (see the JSON document)".to_string()),
    }
}

fn run_bench(samples: u64, opts: &Options) -> JobOutcome {
    // Measurement cells run *serially* on purpose — pool parallelism would
    // make samples contend for cores and wreck the numbers. `options.jobs`
    // is accepted (and ignored) so every grid-running subcommand takes the
    // same flags.
    let scale = wbsim_bench::MeasureScale {
        instructions: opts.instructions,
        warmup: opts.warmup,
        seed: opts.seed,
        samples,
    };
    let snap = wbsim_bench::measure(&scale);
    let cells = snap.cells * samples * 2;
    JobOutcome {
        // The CLI's `--json` pipe uses `print!` — no trailing newline.
        artifacts: vec![text_artifact("bench.json", snap.to_json())],
        cells,
        failed: None,
    }
}

fn run_trace(bench: &str, config: &str, mshrs: usize, opts: &Options) -> JobOutcome {
    let fail = |msg: String| JobOutcome {
        failed: Some(msg),
        ..JobOutcome::default()
    };
    // validate() already vetted the benchmark name.
    let Some(model) = BenchmarkModel::from_name(bench) else {
        return fail(format!("unknown benchmark {bench:?}"));
    };
    // The config text is canonical for trace jobs (clients submit text,
    // never server-side paths); a bad text is a deterministic failure and
    // caches like any other outcome.
    let cfg = match parse_machine_config(config) {
        Ok(cfg) => cfg,
        Err(e) => return fail(e.to_string()),
    };
    if let Err(e) = cfg.validate() {
        return fail(e.to_string());
    }
    let ops = model.stream(opts.seed, opts.instructions);
    let w = match capture_events(cfg, mshrs, opts.engine, ops, Vec::new()) {
        Ok(w) => w,
        Err(e) => return fail(e.to_string()),
    };
    JobOutcome {
        artifacts: vec![Artifact {
            name: "events.jsonl".to_string(),
            bytes: w.finish().expect("writing to memory cannot fail").0,
        }],
        cells: 1,
        failed: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{FigureFormat, JobKind};
    use wbsim_types::file_config::to_config_string;

    #[test]
    fn table_job_executes_and_caches() {
        let store = Store::new();
        let exec = Executor::new(&store);
        let m = Manifest {
            kind: JobKind::Table {
                which: "3".to_string(),
            },
            options: Options::default(),
        };
        let first = exec.run(&m);
        assert!(!first.cached);
        let text = first.outcome.artifact_text("tables.txt").expect("artifact");
        assert!(text.starts_with("Table 3"), "{text:?}");
        let second = exec.run(&m);
        assert!(second.cached);
        assert_eq!(second.key, first.key);
        assert!(Arc::ptr_eq(&second.outcome, &first.outcome));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.cells_executed), (1, 1, 0));
    }

    #[test]
    fn check_job_with_sched_runs_the_harnesses() {
        let clean = execute(&Manifest {
            kind: JobKind::Check(CheckSpec {
                sched: true,
                ..CheckSpec::default()
            }),
            options: Options::default(),
        });
        assert_eq!(clean.failed, None);
        let doc = clean.artifact_text("check.json").expect("check.json");
        assert!(doc.contains("\"sched\":{\"harnesses\":["), "{doc}");
        assert!(doc.contains("\"clean\":true"), "{doc}");
        assert!(doc.contains("\"harness\":\"serve-drain\""), "{doc}");

        let faulty = execute(&Manifest {
            kind: JobKind::Check(CheckSpec {
                sched: true,
                sched_fault: crate::sched::SchedFault::from_name("dup-execute"),
                ..CheckSpec::default()
            }),
            options: Options::default(),
        });
        assert!(faulty.failed.is_some());
        let doc = faulty.artifact_text("check.json").expect("check.json");
        assert!(doc.contains("\"verdict\":\"SCH100\""), "{doc}");
        let sched = faulty
            .artifact_text("counterexample-sched.jsonl")
            .expect("schedule artifact");
        assert!(
            sched.starts_with("{\"schema\":\"wbsim-sched/1\""),
            "{sched}"
        );
        assert!(sched.contains("\"fault\":\"dup-execute\""), "{sched}");
    }

    #[test]
    fn trace_job_captures_an_event_stream() {
        let m = Manifest {
            kind: JobKind::Trace {
                bench: "compress".to_string(),
                config: to_config_string(&MachineConfig::baseline()),
                mshrs: 0,
            },
            options: Options {
                instructions: 500,
                warmup: 0,
                ..Options::default()
            },
        };
        let out = execute(&m);
        assert_eq!(out.failed, None);
        assert_eq!(out.cells, 1);
        let text = out.artifact_text("events.jsonl").expect("events");
        assert!(text.lines().count() > 0);
        assert!(text.lines().all(|l| l.starts_with('{')), "JSONL lines");
    }

    #[test]
    fn trace_job_rejects_bad_config_text_deterministically() {
        let m = Manifest {
            kind: JobKind::Trace {
                bench: "compress".to_string(),
                config: "wb.depth = banana\n".to_string(),
                mshrs: 0,
            },
            options: Options::default(),
        };
        let out = execute(&m);
        assert!(out.failed.is_some());
        assert!(out.artifacts.is_empty());
        assert_eq!(out.cells, 0);
    }

    #[test]
    fn figure_svg_artifacts_are_named_like_the_cli_files() {
        let m = Manifest {
            kind: JobKind::Figure {
                which: "3".to_string(),
                format: FigureFormat::Svg,
            },
            options: Options {
                instructions: 2_000,
                warmup: 500,
                ..Options::default()
            },
        };
        let out = execute(&m);
        assert_eq!(out.failed, None);
        assert_eq!(out.artifacts.len(), 1);
        assert_eq!(out.artifacts[0].name, "figure_3.svg");
        assert!(out.cells > 0);
    }

    #[test]
    fn merged_check_json_skeleton_is_pinned() {
        assert_eq!(
            merged_check_json(&[], [None; 5]),
            "{\"linter\":{\"diagnostics\":[],\"errors\":false},\
             \"exhaustive\":null,\"reach\":null,\"properties\":null,\"refine\":null,\
             \"sched\":null}"
        );
        assert_eq!(
            merged_check_json(
                &[],
                [Some("{\"status\":\"clean\"}"), None, None, None, None]
            ),
            "{\"linter\":{\"diagnostics\":[],\"errors\":false},\
             \"exhaustive\":{\"status\":\"clean\"},\"reach\":null,\"properties\":null,\
             \"refine\":null,\"sched\":null}"
        );
        assert_eq!(
            merged_check_json(
                &[],
                [None, None, Some("{\"status\":\"clean\"}"), None, None]
            ),
            "{\"linter\":{\"diagnostics\":[],\"errors\":false},\
             \"exhaustive\":null,\"reach\":null,\"properties\":{\"status\":\"clean\"},\
             \"refine\":null,\"sched\":null}"
        );
        assert_eq!(
            merged_check_json(
                &[],
                [None, None, None, Some("{\"status\":\"clean\"}"), None]
            ),
            "{\"linter\":{\"diagnostics\":[],\"errors\":false},\
             \"exhaustive\":null,\"reach\":null,\"properties\":null,\
             \"refine\":{\"status\":\"clean\"},\"sched\":null}"
        );
        assert_eq!(
            merged_check_json(&[], [None, None, None, None, Some("{\"clean\":true}")]),
            "{\"linter\":{\"diagnostics\":[],\"errors\":false},\
             \"exhaustive\":null,\"reach\":null,\"properties\":null,\"refine\":null,\
             \"sched\":{\"clean\":true}}"
        );
    }

    #[test]
    fn invalid_manifest_executes_to_a_failed_outcome() {
        let m = Manifest {
            kind: JobKind::Table {
                which: "9".to_string(),
            },
            options: Options::default(),
        };
        let out = execute(&m);
        let msg = out.failed.expect("failed");
        assert!(msg.contains("no table 9"), "{msg}");
    }
}
