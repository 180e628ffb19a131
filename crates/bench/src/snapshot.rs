//! Performance-trajectory snapshots: the `BENCH_*.json` format, its
//! measurement driver, and the regression comparator behind
//! `wbsim bench --check`.
//!
//! A snapshot records how fast the simulator chews through the paper's
//! table-7 workload — all 17 benchmark models × 3 real L2 sizes, 51
//! (benchmark, config) *cells* — under both the event-driven engine and
//! the reference cycle-stepped engine, as cells per second of pure
//! simulation time (trace generation and machine construction excluded).
//! Per the stability literature, a mean alone is not a trajectory: each
//! target carries the sample spread (stddev) and the slow-tail p99 so a
//! later PR that keeps the mean but grows the tail still trips the gate.
//!
//! The JSON writer is hand-rolled for a pinned byte layout and the reader
//! walks the workspace's shared [`wbsim_types::json`] parser (the
//! workspace is offline and carries no serde); [`BenchSnapshot::to_json`] and
//! [`BenchSnapshot::from_json`] are pinned against each other by a
//! round-trip test, and `f64` fields survive exactly because Rust's
//! shortest-round-trip float formatting is re-parsed bit-identically.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use wbsim_sim::{Engine, Machine, NullObserver};
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_types::config::{L2Config, MachineConfig};
use wbsim_types::json::{self, Json};

/// Schema tag of the snapshot format. Bump on any field change so a stale
/// committed snapshot fails loudly instead of comparing garbage.
pub const SCHEMA: &str = "wbsim-bench-snapshot/1";

/// Throughput statistics for one measurement target (one engine over the
/// table-7 cell grid).
#[derive(Debug, Clone, PartialEq)]
pub struct TargetStats {
    /// Target name, e.g. `"table7/event-driven"`.
    pub name: String,
    /// The engine's wire name ([`Engine::name`]).
    pub engine: String,
    /// Full passes over the cell grid.
    pub samples: u64,
    /// Mean cells/sec across samples (each sample's rate is cells divided
    /// by that pass's total simulation time).
    pub mean_cells_per_sec: f64,
    /// Sample standard deviation of the per-sample rates (0 for one
    /// sample).
    pub stddev_cells_per_sec: f64,
    /// Slow-tail throughput: the nearest-rank 99th-percentile *per-cell
    /// duration* across every cell of every sample, expressed as
    /// cells/sec — 99% of individual cells simulated at least this fast.
    pub p99_cells_per_sec: f64,
}

/// One committed point of the perf trajectory (`BENCH_<pr>.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// [`SCHEMA`].
    pub schema: String,
    /// Version of the simulator that produced the numbers
    /// (`CARGO_PKG_VERSION` of this crate — the workspace version).
    pub engine_version: String,
    /// `git rev-parse --short HEAD` at measurement time, or `"unknown"`.
    /// For a snapshot committed alongside the change it measures, this is
    /// necessarily the *parent* commit.
    pub git_rev: String,
    /// Measured instructions per cell.
    pub instructions: u64,
    /// Warmup instructions per cell (excluded from the measured window
    /// but included in simulation time — the engine runs them).
    pub warmup: u64,
    /// Trace-generation seed.
    pub seed: u64,
    /// Cells per sample (17 benchmarks × 3 L2 sizes = 51).
    pub cells: u64,
    /// One entry per engine.
    pub targets: Vec<TargetStats>,
}

impl BenchSnapshot {
    /// Serializes in the pinned `BENCH_*.json` layout (two-space indent,
    /// one target object per line group, trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", quote(&self.schema));
        let _ = writeln!(s, "  \"engine_version\": {},", quote(&self.engine_version));
        let _ = writeln!(s, "  \"git_rev\": {},", quote(&self.git_rev));
        let _ = writeln!(s, "  \"instructions\": {},", self.instructions);
        let _ = writeln!(s, "  \"warmup\": {},", self.warmup);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"cells\": {},", self.cells);
        s.push_str("  \"targets\": [\n");
        for (i, t) in self.targets.iter().enumerate() {
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"name\": {},", quote(&t.name));
            let _ = writeln!(s, "      \"engine\": {},", quote(&t.engine));
            let _ = writeln!(s, "      \"samples\": {},", t.samples);
            let _ = writeln!(s, "      \"mean_cells_per_sec\": {},", t.mean_cells_per_sec);
            let _ = writeln!(
                s,
                "      \"stddev_cells_per_sec\": {},",
                t.stddev_cells_per_sec
            );
            let _ = writeln!(s, "      \"p99_cells_per_sec\": {}", t.p99_cells_per_sec);
            s.push_str(if i + 1 == self.targets.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a snapshot produced by [`BenchSnapshot::to_json`] (or any
    /// whitespace-variant of the same JSON).
    ///
    /// # Errors
    ///
    /// A message naming the first offending token or missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let snap = snapshot_from(&doc)?;
        if snap.schema != SCHEMA {
            return Err(format!(
                "schema mismatch: file says {:?}, this binary understands {:?}",
                snap.schema, SCHEMA
            ));
        }
        Ok(snap)
    }
}

fn quote(s: &str) -> String {
    json::escape(s)
}

fn str_field(value: &Json, key: &str) -> Result<String, String> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("key {key:?}: expected a string"))
}

fn u64_field(value: &Json, key: &str) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("key {key:?}: expected an integer"))
}

fn f64_field(value: &Json, key: &str) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("key {key:?}: expected a number"))
}

/// Walks one target object. Unknown keys are rejected — a snapshot is a
/// pinned format, not a config file — and all 6 keys are required.
fn target_from(value: &Json) -> Result<TargetStats, String> {
    let fields = value.entries().ok_or("target: expected an object")?;
    let mut t = TargetStats {
        name: String::new(),
        engine: String::new(),
        samples: 0,
        mean_cells_per_sec: 0.0,
        stddev_cells_per_sec: 0.0,
        p99_cells_per_sec: 0.0,
    };
    let mut seen = 0u32;
    for (key, v) in fields {
        match key.as_str() {
            "name" => t.name = str_field(v, key)?,
            "engine" => t.engine = str_field(v, key)?,
            "samples" => t.samples = u64_field(v, key)?,
            "mean_cells_per_sec" => t.mean_cells_per_sec = f64_field(v, key)?,
            "stddev_cells_per_sec" => t.stddev_cells_per_sec = f64_field(v, key)?,
            "p99_cells_per_sec" => t.p99_cells_per_sec = f64_field(v, key)?,
            other => return Err(format!("unknown target key {other:?}")),
        }
        seen += 1;
    }
    if seen != 6 {
        return Err(format!("target has {seen} keys, expected all 6"));
    }
    Ok(t)
}

fn snapshot_from(doc: &Json) -> Result<BenchSnapshot, String> {
    let fields = doc.entries().ok_or("snapshot: expected an object")?;
    let mut snap = BenchSnapshot {
        schema: String::new(),
        engine_version: String::new(),
        git_rev: String::new(),
        instructions: 0,
        warmup: 0,
        seed: 0,
        cells: 0,
        targets: Vec::new(),
    };
    let mut seen = 0u32;
    for (key, v) in fields {
        match key.as_str() {
            "schema" => snap.schema = str_field(v, key)?,
            "engine_version" => snap.engine_version = str_field(v, key)?,
            "git_rev" => snap.git_rev = str_field(v, key)?,
            "instructions" => snap.instructions = u64_field(v, key)?,
            "warmup" => snap.warmup = u64_field(v, key)?,
            "seed" => snap.seed = u64_field(v, key)?,
            "cells" => snap.cells = u64_field(v, key)?,
            "targets" => {
                let items = v.as_array().ok_or("key \"targets\": expected an array")?;
                snap.targets = items.iter().map(target_from).collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown snapshot key {other:?}")),
        }
        seen += 1;
    }
    if seen != 8 {
        return Err(format!("snapshot has {seen} keys, expected all 8"));
    }
    Ok(snap)
}

/// Scale knobs for [`measure`].
#[derive(Debug, Clone, Copy)]
pub struct MeasureScale {
    /// Measured instructions per cell.
    pub instructions: u64,
    /// Warmup instructions per cell.
    pub warmup: u64,
    /// Trace seed.
    pub seed: u64,
    /// Full grid passes per engine.
    pub samples: u64,
}

impl MeasureScale {
    /// The committed-snapshot scale: the same 1M/300k/seed-42 workload as
    /// `wbsim table 7`, three passes.
    #[must_use]
    pub fn table7() -> Self {
        Self {
            instructions: 1_000_000,
            warmup: 300_000,
            seed: 42,
            samples: 3,
        }
    }
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a git checkout.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

const L2_SIZES_KB: [u32; 3] = [128, 512, 1024];

/// Measures both engines over the table-7 cell grid and assembles a
/// snapshot.
///
/// Timing covers simulation only: each benchmark's op stream is generated
/// once (outside the clock) and reused by that benchmark's 3 × samples ×
/// 2-engine cells; `Instant` brackets just the `run_with_warmup` call.
/// Cells run serially so per-cell durations are not polluted by sibling
/// cells sharing cores — this measures the engine, not the pool (the
/// pool's wall-clock win shows up in `wbsim table 7` itself).
#[must_use]
pub fn measure(scale: &MeasureScale) -> BenchSnapshot {
    let engines = [Engine::EventDriven, Engine::Reference];
    let samples = scale.samples.max(1) as usize;
    // durations[engine][sample] = per-cell durations of that pass.
    let mut durations: Vec<Vec<Vec<Duration>>> = vec![vec![Vec::new(); samples]; engines.len()];
    for bench in BenchmarkModel::ALL {
        let ops = bench.stream(scale.seed, scale.instructions + scale.warmup);
        for kb in L2_SIZES_KB {
            let cfg = MachineConfig {
                l2: L2Config::real_with_size(kb * 1024),
                check_data: false,
                ..MachineConfig::baseline()
            };
            for (ei, &engine) in engines.iter().enumerate() {
                for pass in durations[ei].iter_mut() {
                    let mut m = Machine::new(cfg.clone()).expect("table-7 configuration is valid");
                    m.set_engine(engine);
                    let t = Instant::now();
                    let stats = m.run_observed_with_warmup(
                        ops.iter().copied(),
                        scale.warmup,
                        &mut NullObserver,
                    );
                    let d = t.elapsed();
                    assert!(stats.cycles > 0, "cell simulated nothing");
                    pass.push(d);
                }
            }
        }
    }
    let cells = (BenchmarkModel::ALL.len() * L2_SIZES_KB.len()) as u64;
    let targets = engines
        .iter()
        .enumerate()
        .map(|(ei, &engine)| {
            let rates: Vec<f64> = durations[ei]
                .iter()
                .map(|pass| cells as f64 / pass.iter().map(Duration::as_secs_f64).sum::<f64>())
                .collect();
            let mut all_cells: Vec<f64> = durations[ei]
                .iter()
                .flatten()
                .map(Duration::as_secs_f64)
                .collect();
            all_cells.sort_by(f64::total_cmp);
            // Nearest-rank p99 of per-cell duration; as a rate, the floor
            // that 99% of cells beat.
            let rank = ((0.99 * all_cells.len() as f64).ceil() as usize).clamp(1, all_cells.len());
            let p99 = 1.0 / all_cells[rank - 1];
            let (mean, stddev) = mean_stddev(&rates);
            TargetStats {
                name: format!("table7/{}", engine.name()),
                engine: engine.name().into(),
                samples: samples as u64,
                mean_cells_per_sec: mean,
                stddev_cells_per_sec: stddev,
                p99_cells_per_sec: p99,
            }
        })
        .collect();
    BenchSnapshot {
        schema: SCHEMA.into(),
        engine_version: env!("CARGO_PKG_VERSION").into(),
        git_rev: git_rev(),
        instructions: scale.instructions,
        warmup: scale.warmup,
        seed: scale.seed,
        cells,
        targets,
    }
}

fn mean_stddev(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

impl BenchSnapshot {
    /// The event-driven engine's mean cells/s over the reference engine's,
    /// when the snapshot measured both.
    #[must_use]
    pub fn engine_ratio(&self) -> Option<f64> {
        let mean = |e: Engine| {
            self.targets
                .iter()
                .find(|t| t.engine == e.name())
                .map(|t| t.mean_cells_per_sec)
        };
        Some(mean(Engine::EventDriven)? / mean(Engine::Reference)?)
    }
}

/// Outcome of a snapshot-vs-snapshot regression check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comparison {
    /// Human report, one line per target.
    pub lines: Vec<String>,
    /// Regression messages; empty means the gate passes.
    pub failures: Vec<String>,
}

/// Compares `current` against the committed `baseline`, failing any
/// target whose mean or p99 cells/sec fell more than `tolerance_pct`
/// below the baseline. Improvements never fail (the snapshot is refreshed
/// when they should become the new floor); workload-shape mismatches fail
/// outright because rates from different workloads are not comparable.
#[must_use]
pub fn compare(
    baseline: &BenchSnapshot,
    current: &BenchSnapshot,
    tolerance_pct: f64,
) -> Comparison {
    let mut cmp = Comparison {
        lines: Vec::new(),
        failures: Vec::new(),
    };
    for (field, b, c) in [
        ("instructions", baseline.instructions, current.instructions),
        ("warmup", baseline.warmup, current.warmup),
        ("seed", baseline.seed, current.seed),
        ("cells", baseline.cells, current.cells),
    ] {
        if b != c {
            cmp.failures.push(format!(
                "workload mismatch: {field} is {c} here but {b} in the baseline"
            ));
        }
    }
    if !cmp.failures.is_empty() {
        return cmp;
    }
    let floor = 1.0 - tolerance_pct / 100.0;
    for base in &baseline.targets {
        let Some(cur) = current.targets.iter().find(|t| t.name == base.name) else {
            cmp.failures
                .push(format!("target {:?} missing from current run", base.name));
            continue;
        };
        let delta = |b: f64, c: f64| (c / b - 1.0) * 100.0;
        cmp.lines.push(format!(
            "{:24} mean {:8.2} cells/s ({:+6.1}% vs {:.2}), p99 {:8.2} ({:+6.1}% vs {:.2})",
            base.name,
            cur.mean_cells_per_sec,
            delta(base.mean_cells_per_sec, cur.mean_cells_per_sec),
            base.mean_cells_per_sec,
            cur.p99_cells_per_sec,
            delta(base.p99_cells_per_sec, cur.p99_cells_per_sec),
            base.p99_cells_per_sec,
        ));
        for (metric, b, c) in [
            ("mean", base.mean_cells_per_sec, cur.mean_cells_per_sec),
            ("p99", base.p99_cells_per_sec, cur.p99_cells_per_sec),
        ] {
            if c < b * floor {
                cmp.failures.push(format!(
                    "{}: {metric} regressed {:.1}% (from {b:.2} to {c:.2} cells/s, \
                     tolerance {tolerance_pct}%)",
                    base.name,
                    (1.0 - c / b) * 100.0,
                ));
            }
        }
    }
    cmp
}

/// The same-run engine gate: fails when `current`'s
/// [`BenchSnapshot::engine_ratio`] fell more than `tolerance_pct` below
/// `baseline`'s. Both engines run on the same host in the same run, so
/// host drift, which moves them together, cancels out of the ratio; the
/// absolute gate of [`compare`] cannot tell drift from a regression.
#[must_use]
pub fn compare_engine_ratio(
    baseline: &BenchSnapshot,
    current: &BenchSnapshot,
    tolerance_pct: f64,
) -> Comparison {
    let mut cmp = Comparison {
        lines: Vec::new(),
        failures: Vec::new(),
    };
    let (Some(b), Some(c)) = (baseline.engine_ratio(), current.engine_ratio()) else {
        cmp.failures
            .push("engine ratio: both snapshots need both engines".to_string());
        return cmp;
    };
    cmp.lines.push(format!(
        "{:24} {c:.3}× ({:+6.1}% vs {b:.3}×)",
        "event-driven/reference",
        (c / b - 1.0) * 100.0
    ));
    if c < b * (1.0 - tolerance_pct / 100.0) {
        cmp.failures.push(format!(
            "event-driven/reference ratio regressed {:.1}% (from {b:.3}× to {c:.3}×, \
             tolerance {tolerance_pct}%)",
            (1.0 - c / b) * 100.0,
        ));
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSnapshot {
        BenchSnapshot {
            schema: SCHEMA.into(),
            engine_version: "0.1.0".into(),
            git_rev: "abc1234".into(),
            instructions: 1_000_000,
            warmup: 300_000,
            seed: 42,
            cells: 51,
            targets: vec![
                TargetStats {
                    name: "table7/event-driven".into(),
                    engine: "event-driven".into(),
                    samples: 3,
                    mean_cells_per_sec: 13.074_521_3,
                    stddev_cells_per_sec: 0.189,
                    p99_cells_per_sec: 7.5,
                },
                TargetStats {
                    name: "table7/reference".into(),
                    engine: "reference".into(),
                    samples: 3,
                    // Deliberately awkward floats: shortest-round-trip
                    // formatting must survive the parse bit-identically.
                    mean_cells_per_sec: 9.2 + 0.000_000_1,
                    stddev_cells_per_sec: f64::MIN_POSITIVE,
                    p99_cells_per_sec: 1.0 / 3.0,
                },
            ],
        }
    }

    /// The schema pin: serialize → parse → identical struct, floats
    /// included.
    #[test]
    fn snapshot_round_trips_exactly() {
        let snap = sample();
        let json = snap.to_json();
        let back = BenchSnapshot::from_json(&json).expect("own output parses");
        assert_eq!(snap, back);
        // And the text itself is a fixed point.
        assert_eq!(json, back.to_json());
    }

    /// The serialized layout itself is pinned — a committed snapshot must
    /// stay diffable line-by-line across PRs.
    #[test]
    fn serialized_layout_is_pinned() {
        let json = sample().to_json();
        assert!(json.starts_with("{\n  \"schema\": \"wbsim-bench-snapshot/1\",\n"));
        assert!(json.contains("  \"targets\": [\n    {\n      \"name\": \"table7/event-driven\","));
        assert!(json.ends_with("    }\n  ]\n}\n"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(BenchSnapshot::from_json("").is_err());
        assert!(BenchSnapshot::from_json("{}").is_err());
        let mut missing = sample();
        missing.schema = "wbsim-bench-snapshot/0".into();
        assert!(BenchSnapshot::from_json(&missing.to_json())
            .unwrap_err()
            .contains("schema mismatch"));
        let truncated = &sample().to_json()[..80];
        assert!(BenchSnapshot::from_json(truncated).is_err());
        let trailing = format!("{}x", sample().to_json());
        assert!(BenchSnapshot::from_json(&trailing)
            .unwrap_err()
            .contains("trailing"));
        assert!(BenchSnapshot::from_json("{\"schema\": \"x\", \"bogus\": 1}").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut snap = sample();
        snap.git_rev = "a\"b\\c\nd".into();
        let back = BenchSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.git_rev, "a\"b\\c\nd");
    }

    #[test]
    fn compare_passes_within_tolerance_and_fails_regressions() {
        let base = sample();
        let mut cur = sample();
        // 10% slower on one target: within a 20% gate, outside a 5% gate.
        cur.targets[0].mean_cells_per_sec *= 0.9;
        let ok = compare(&base, &cur, 20.0);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        assert_eq!(ok.lines.len(), 2);
        let bad = compare(&base, &cur, 5.0);
        assert_eq!(bad.failures.len(), 1);
        assert!(bad.failures[0].contains("mean regressed 10.0%"));
        // A p99 collapse fails even when the mean holds.
        let mut tail = sample();
        tail.targets[1].p99_cells_per_sec *= 0.5;
        let bad = compare(&base, &tail, 20.0);
        assert_eq!(bad.failures.len(), 1);
        assert!(bad.failures[0].contains("p99 regressed"));
        // Improvements never fail.
        let mut faster = sample();
        for t in &mut faster.targets {
            t.mean_cells_per_sec *= 3.0;
            t.p99_cells_per_sec *= 3.0;
        }
        assert!(compare(&base, &faster, 20.0).failures.is_empty());
        // Different workloads are not comparable.
        let mut other = sample();
        other.instructions = 10;
        let bad = compare(&base, &other, 20.0);
        assert!(bad.failures[0].contains("workload mismatch"));
    }

    #[test]
    fn engine_ratio_gate_cancels_drift_and_catches_one_engine_slowing() {
        let base = sample();
        let ratio = base.engine_ratio().unwrap();
        assert!((ratio - 13.074_521_3 / (9.2 + 0.000_000_1)).abs() < 1e-12);
        // Host drift slows both engines alike: the absolute gate fails,
        // the ratio gate does not.
        let mut drift = sample();
        for t in &mut drift.targets {
            t.mean_cells_per_sec *= 0.7;
        }
        assert!(!compare(&base, &drift, 20.0).failures.is_empty());
        let same = compare_engine_ratio(&base, &drift, 20.0);
        assert!(same.failures.is_empty(), "{:?}", same.failures);
        assert_eq!(same.lines.len(), 1);
        // The event-driven engine alone 10% slower: inside a 20% gate,
        // outside a 5% one, whatever the host did meanwhile.
        let mut slow = drift.clone();
        slow.targets[0].mean_cells_per_sec *= 0.9;
        assert!(compare_engine_ratio(&base, &slow, 20.0).failures.is_empty());
        let bad = compare_engine_ratio(&base, &slow, 5.0);
        assert_eq!(bad.failures.len(), 1);
        assert!(
            bad.failures[0].contains("ratio regressed 10.0%"),
            "{:?}",
            bad.failures
        );
        // A faster event-driven engine never fails.
        let mut fast = sample();
        fast.targets[0].mean_cells_per_sec *= 2.0;
        assert!(compare_engine_ratio(&base, &fast, 5.0).failures.is_empty());
        // A snapshot without the reference engine cannot be gated.
        let mut one = sample();
        one.targets.truncate(1);
        assert_eq!(one.engine_ratio(), None);
        assert_eq!(compare_engine_ratio(&base, &one, 20.0).failures.len(), 1);
    }

    /// An end-to-end measurement at toy scale: sane fields, both engines
    /// present, positive rates, and the JSON it writes re-parses.
    #[test]
    fn measure_produces_a_parsable_snapshot() {
        let snap = measure(&MeasureScale {
            instructions: 2_000,
            warmup: 500,
            seed: 7,
            samples: 2,
        });
        assert_eq!(snap.cells, 51);
        assert_eq!(snap.targets.len(), 2);
        assert_eq!(snap.targets[0].engine, "event-driven");
        assert_eq!(snap.targets[1].engine, "reference");
        for t in &snap.targets {
            assert_eq!(t.samples, 2);
            assert!(t.mean_cells_per_sec > 0.0);
            assert!(t.p99_cells_per_sec > 0.0);
            assert!(t.stddev_cells_per_sec >= 0.0);
        }
        let back = BenchSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(snap, back);
    }
}
