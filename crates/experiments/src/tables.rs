//! One runner per table of the paper (Tables 1–7).
//!
//! Tables 1–3 print the active model (machine, write buffer, stall
//! taxonomy); Table 4 measures the generated streams; Tables 5–7 run
//! simulations and report hit rates next to the paper's published values.

use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_trace::stats::TraceStats;
use wbsim_types::config::{L2Config, MachineConfig};
use wbsim_types::stall::StallKind;
use wbsim_types::stats::SimStats;

use crate::harness::Harness;

/// A rendered-ready table: header plus string rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableResult {
    /// Which table this reproduces (e.g. `"Table 5"`).
    pub id: &'static str,
    /// Caption line.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of cells, one string per column.
    pub rows: Vec<Vec<String>>,
}

fn s(v: impl ToString) -> String {
    v.to_string()
}

/// Table 1: the machine model summary.
#[must_use]
pub fn table1(cfg: &MachineConfig) -> TableResult {
    let l2 = match cfg.l2 {
        L2Config::Perfect { latency } => format!("perfect, write back, {latency}-cycle"),
        L2Config::Real {
            size_bytes,
            assoc,
            latency,
            mm_latency,
        } => format!(
            "{}K, {assoc}-way, write back, {latency}-cycle, mm {mm_latency}-cycle",
            size_bytes / 1024
        ),
    };
    TableResult {
        id: "Table 1",
        title: "Summary of the machine model".into(),
        header: vec![s("Parameter"), s("Value")],
        rows: vec![
            vec![s("Issue"), s("1-way")],
            vec![
                s("Instruction latency"),
                s("1 cycle, in the absence of memory stalls"),
            ],
            vec![
                s("L1 D-cache"),
                format!(
                    "{}K, {}-way, {}B line, {}, {}-cycle hit",
                    cfg.l1.size_bytes / 1024,
                    cfg.l1.assoc,
                    cfg.geometry.line_bytes(),
                    match cfg.l1.write_policy {
                        wbsim_types::policy::L1WritePolicy::WriteThrough =>
                            "write-through, write-around",
                        wbsim_types::policy::L1WritePolicy::WriteBack =>
                            "write-back, write-allocate",
                    },
                    cfg.l1.hit_latency
                ),
            ],
            vec![s("L1 I-cache"), format!("{:?}", cfg.icache)],
            vec![s("L2 cache"), l2],
        ],
    }
}

/// Table 2: the write-buffer model summary.
#[must_use]
pub fn table2(cfg: &MachineConfig) -> TableResult {
    let wb = &cfg.write_buffer;
    TableResult {
        id: "Table 2",
        title: "Summary of the baseline write buffer model".into(),
        header: vec![s("Parameter"), s("Value")],
        rows: vec![
            vec![s("Depth"), s(wb.depth)],
            vec![
                s("Width"),
                format!(
                    "{} words ({}B)",
                    wb.width_words,
                    wb.width_words as u32 * cfg.geometry.word_bytes()
                ),
            ],
            vec![s("Retirement order"), s(wb.order)],
            vec![s("Retirement policy"), s(wb.retirement)],
            vec![s("Load-hazard policy"), s(wb.hazard)],
            vec![s("L2 priority"), s(wb.priority)],
            vec![s("Max entry age"), wb.max_age.map_or_else(|| s("none"), s)],
            vec![s("Datapath"), s(wb.datapath)],
        ],
    }
}

/// Table 3: the stall taxonomy.
#[must_use]
pub fn table3() -> TableResult {
    TableResult {
        id: "Table 3",
        title: "Summary of write-buffer-induced stalls".into(),
        header: vec![s("Name"), s("Description"), s("How measured")],
        rows: vec![
            vec![
                s(StallKind::BufferFull),
                s("The write buffer is full and the store cannot merge"),
                s("Cycles the store must wait for a free entry"),
            ],
            vec![
                s(StallKind::L2ReadAccess),
                s("The write buffer occupies L2"),
                s("Cycles the load must wait to access L2"),
            ],
            vec![
                s(StallKind::LoadHazard),
                s("The cache line needed by an L1 load miss is active in the write buffer"),
                s("Cycles spent handling the load hazard before the load miss can be serviced"),
            ],
        ],
    }
}

/// Table 4: measured load/store densities of every generated stream, next
/// to the paper's values.
#[must_use]
pub fn table4(h: &Harness) -> TableResult {
    let rows = BenchmarkModel::ALL
        .iter()
        .map(|m| {
            let t = TraceStats::measure(&m.stream(h.seed, h.instructions));
            let p = m.paper();
            vec![
                s(m.name()),
                format!("{:.1}", t.pct_loads),
                format!("{:.1}", p.pct_loads),
                format!("{:.1}", t.pct_stores),
                format!("{:.1}", p.pct_stores),
            ]
        })
        .collect();
    TableResult {
        id: "Table 4",
        title: "Benchmark load/store densities: measured stream vs paper".into(),
        header: vec![
            s("Benchmark"),
            s("Loads %"),
            s("(paper)"),
            s("Stores %"),
            s("(paper)"),
        ],
        rows,
    }
}

/// One row of Table 5 with numeric fields, for tests and calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitRateRow {
    /// Benchmark index into [`BenchmarkModel::ALL`].
    pub bench: BenchmarkModel,
    /// Measured L1 load hit rate, percent.
    pub l1_hit: f64,
    /// Measured write-buffer store hit rate, percent.
    pub wb_hit: f64,
}

/// Table 5 (numeric form): L1 and write-buffer hit rates under the
/// baseline model.
#[must_use]
pub fn table5_rows(h: &Harness) -> Vec<HitRateRow> {
    let stats = grid_stats(h, &BenchmarkModel::ALL, &[MachineConfig::baseline()]);
    BenchmarkModel::ALL
        .iter()
        .zip(stats)
        .map(|(&bench, stats)| HitRateRow {
            bench,
            l1_hit: stats.l1_load_hit_rate(),
            wb_hit: stats.wb_store_hit_rate(),
        })
        .collect()
}

/// [`Harness::run_grid`] with one seed, panicking on a failed cell as
/// [`Harness::run`] does: a table has no place for a failure.
fn grid_stats(h: &Harness, benches: &[BenchmarkModel], configs: &[MachineConfig]) -> Vec<SimStats> {
    h.run_grid(benches, configs, 1)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("{msg}")))
        .collect()
}

/// Table 5: L1 load hit rate and write-buffer store hit rate in the
/// baseline model, measured vs paper.
#[must_use]
pub fn table5(h: &Harness) -> TableResult {
    let rows = table5_rows(h)
        .into_iter()
        .map(|r| {
            let p = r.bench.paper();
            vec![
                s(r.bench.name()),
                format!("{:.2}", r.l1_hit),
                format!("{:.2}", p.l1_hit),
                format!("{:.2}", r.wb_hit),
                format!("{:.2}", p.wb_hit),
            ]
        })
        .collect();
    TableResult {
        id: "Table 5",
        title: "L1 hit rate (loads) and write buffer hit rate (stores), baseline model".into(),
        header: vec![
            s("Benchmark"),
            s("L1 hit %"),
            s("(paper)"),
            s("WB hit %"),
            s("(paper)"),
        ],
        rows,
    }
}

/// Table 6: the NASA kernels before and after the Table 6 transformations
/// (loop interchange for gmtry, array transposition for cholsky).
#[must_use]
pub fn table6(h: &Harness) -> TableResult {
    let benches = [
        BenchmarkModel::Gmtry,
        BenchmarkModel::GmtryTransformed,
        BenchmarkModel::Cholsky,
        BenchmarkModel::CholskyTransformed,
    ];
    let stats = grid_stats(h, &benches, &[MachineConfig::baseline()]);
    let mut rows = Vec::new();
    for (pair, runs) in benches.chunks(2).zip(stats.chunks(2)) {
        let (before, after, sb, sa) = (pair[0], pair[1], &runs[0], &runs[1]);
        let pb = before.paper();
        let pa = after.paper();
        rows.push(vec![
            s(before.name()),
            format!("{:.1}", sb.l1_load_hit_rate()),
            format!("{:.1}", pb.l1_hit),
            format!("{:.1}", sb.wb_store_hit_rate()),
            format!("{:.1}", pb.wb_hit),
            format!("{:.1}", sa.l1_load_hit_rate()),
            format!("{:.1}", pa.l1_hit),
            format!("{:.1}", sa.wb_store_hit_rate()),
            format!("{:.1}", pa.wb_hit),
        ]);
    }
    TableResult {
        id: "Table 6",
        title: "NASA kernels before and after column-major → row-major transformation".into(),
        header: vec![
            s("Benchmark"),
            s("L1 %"),
            s("(paper)"),
            s("WB %"),
            s("(paper)"),
            s("L1 % after"),
            s("(paper)"),
            s("WB % after"),
            s("(paper)"),
        ],
        rows,
    }
}

/// One row of Table 7 with numeric fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L2HitRow {
    /// The benchmark.
    pub bench: BenchmarkModel,
    /// L1 load hit rate with the 1M L2 (inclusion affects it slightly).
    pub l1_hit: f64,
    /// L2 read hit rate with a 128K / 512K / 1M L2, percent.
    pub l2_hit: [f64; 3],
}

/// Table 7 (numeric form): L1 and L2 hit rates for real L2 sizes.
#[must_use]
pub fn table7_rows(h: &Harness) -> Vec<L2HitRow> {
    let sizes = [128u32, 512, 1024];
    // 51 pooled cells, one stream per benchmark shared by its three sizes.
    let configs = sizes.map(|kb| MachineConfig {
        l2: L2Config::real_with_size(kb * 1024),
        ..MachineConfig::baseline()
    });
    let stats = grid_stats(h, &BenchmarkModel::ALL, &configs);
    BenchmarkModel::ALL
        .iter()
        .enumerate()
        .map(|(b, m)| {
            let cell = |si: usize| &stats[b * sizes.len() + si];
            L2HitRow {
                bench: *m,
                l1_hit: cell(2).l1_load_hit_rate(),
                l2_hit: [
                    cell(0).l2_read_hit_rate(),
                    cell(1).l2_read_hit_rate(),
                    cell(2).l2_read_hit_rate(),
                ],
            }
        })
        .collect()
}

/// Table 7: L1 and L2 hit rates as L2 size varies (strict inclusion).
#[must_use]
pub fn table7(h: &Harness) -> TableResult {
    let rows = table7_rows(h)
        .into_iter()
        .map(|r| {
            vec![
                s(r.bench.name()),
                format!("{:.2}", r.l1_hit),
                format!("{:.2}", r.l2_hit[0]),
                format!("{:.2}", r.l2_hit[1]),
                format!("{:.2}", r.l2_hit[2]),
            ]
        })
        .collect();
    TableResult {
        id: "Table 7",
        title: "L1 and L2 hit rates; L2 = 128K / 512K / 1M, 6-cycle, mm 25".into(),
        header: vec![
            s("Benchmark"),
            s("L1 hit % (1M)"),
            s("L2 128K %"),
            s("L2 512K %"),
            s("L2 1M %"),
        ],
        rows,
    }
}

/// One row of the write-buffer utilization table with numeric fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WbRow {
    /// The benchmark.
    pub bench: BenchmarkModel,
    /// Mean end-of-cycle occupancy in entries (measured window).
    pub mean_occ: f64,
    /// Highest occupancy any measured cycle ended with.
    pub high_water: u64,
    /// `depth - high_water`: entries that were never simultaneously in use.
    pub headroom: u64,
    /// Mean allocation-to-completion lifetime of retired entries, cycles.
    pub mean_life: f64,
    /// Stall bursts (maximal runs of consecutive stalled cycles).
    pub bursts: u64,
    /// Mean stall-burst length in cycles.
    pub mean_burst: f64,
    /// Longest stall burst in cycles.
    pub max_burst: u64,
}

/// Write-buffer utilization table (numeric form): occupancy high-water
/// mark, headroom, entry lifetimes, and stall-burst shape under the
/// baseline model. The occupancy columns come from the run statistics and
/// respect the harness warmup; the lifetime and burst columns come from a
/// [`wbsim_sim::HistogramObserver`] watching the whole run.
#[must_use]
pub fn table_wb_rows(h: &Harness) -> Vec<WbRow> {
    let depth = MachineConfig::baseline().write_buffer.depth;
    crate::harness::pool_cells_jobs(BenchmarkModel::ALL.len(), h.jobs, |b| {
        let m = BenchmarkModel::ALL[b];
        let (stats, obs) = h.run_detailed(m, MachineConfig::baseline());
        WbRow {
            bench: m,
            mean_occ: stats.wb_detail.mean_occupancy(),
            high_water: stats.wb_detail.high_water,
            headroom: stats.wb_detail.headroom(depth),
            mean_life: obs.mean_retirement_latency(),
            bursts: obs.burst_count(),
            mean_burst: obs.mean_burst_len(),
            max_burst: obs.max_burst_len(),
        }
    })
}

/// Write-buffer utilization table: how close to full the baseline buffer
/// runs on each benchmark, and how its stalls cluster. Not a table of the
/// paper — it operationalizes the paper's depth-vs-headroom guidance
/// (§3.1) from the structured event stream.
#[must_use]
pub fn table_wb(h: &Harness) -> TableResult {
    let rows = table_wb_rows(h)
        .into_iter()
        .map(|r| {
            vec![
                s(r.bench.name()),
                format!("{:.3}", r.mean_occ),
                s(r.high_water),
                s(r.headroom),
                format!("{:.2}", r.mean_life),
                s(r.bursts),
                format!("{:.2}", r.mean_burst),
                s(r.max_burst),
            ]
        })
        .collect();
    TableResult {
        id: "Table WB",
        title: "Write-buffer occupancy high-water mark, headroom, and stall bursts (baseline)"
            .into(),
        header: vec![
            s("Benchmark"),
            s("Mean occ"),
            s("High water"),
            s("Headroom"),
            s("Mean life"),
            s("Bursts"),
            s("Mean burst"),
            s("Max burst"),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_describe_baseline() {
        let cfg = MachineConfig::baseline();
        let t1 = table1(&cfg);
        assert_eq!(t1.rows.len(), 5);
        assert!(t1.rows[2][1].contains("8K"));
        let t2 = table2(&cfg);
        assert!(t2.rows.iter().any(|r| r[1] == "retire-at-2"));
        assert!(t2.rows.iter().any(|r| r[1] == "flush-full"));
        let t3 = table3();
        assert_eq!(t3.rows.len(), 3);
    }

    #[test]
    fn table4_has_all_benchmarks() {
        let h = Harness {
            instructions: 3_000,
            warmup: 0,
            seed: 1,
            check_data: true,
            ..Harness::standard()
        };
        let t = table4(&h);
        assert_eq!(t.rows.len(), 17);
        assert_eq!(t.rows[0][0], "espresso");
    }

    #[test]
    fn table_wb_covers_suite_and_respects_depth() {
        let h = Harness {
            instructions: 4_000,
            warmup: 1_000,
            seed: 1,
            check_data: true,
            ..Harness::standard()
        };
        let depth = MachineConfig::baseline().write_buffer.depth as u64;
        let rows = table_wb_rows(&h);
        assert_eq!(rows.len(), BenchmarkModel::ALL.len());
        for r in &rows {
            assert!(
                r.high_water <= depth,
                "{}: {}",
                r.bench.name(),
                r.high_water
            );
            assert_eq!(r.headroom, depth - r.high_water);
            assert!(r.mean_occ <= r.high_water as f64);
        }
        // At least one benchmark pushes the baseline buffer to its limit.
        assert!(rows.iter().any(|r| r.high_water == depth));
        let t = table_wb(&h);
        assert_eq!(t.header.len(), 8);
        assert_eq!(t.rows.len(), rows.len());
    }

    #[test]
    fn table6_reports_both_kernels() {
        let h = Harness {
            instructions: 8_000,
            warmup: 0,
            seed: 1,
            check_data: true,
            ..Harness::standard()
        };
        let t = table6(&h);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "gmtry");
        assert_eq!(t.rows[1][0], "cholsky");
    }
}
