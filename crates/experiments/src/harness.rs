//! Shared experiment infrastructure: run one benchmark through one machine
//! configuration, or sweep a whole figure's configuration set over the
//! whole suite in parallel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use wbsim_sim::{foldable, Engine, HistogramObserver, L1Fold, Machine, NullObserver};
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_types::addr::Geometry;
use wbsim_types::config::{L1Config, MachineConfig};
use wbsim_types::op::Op;
use wbsim_types::stall::StallKind;
use wbsim_types::stats::SimStats;
use wbsim_types::sync::Mutex;

/// Runs `n` independent sweep cells on a shared worker pool sized to the
/// machine ([`wbsim_check::default_jobs`]), reusing the checker's
/// earliest-failure scheduler ([`wbsim_check::run_indexed_earliest`]).
///
/// Sweep cells never abort each other — a failed cell is data, not a
/// reason to stop the figure — so the scheduler's error type is
/// uninhabited and it degenerates to a deterministic work-stealing map:
/// cell `i`'s result always lands in slot `i`, regardless of which worker
/// ran it.
pub fn pool_cells<T: Send>(n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    pool_cells_jobs(n, 0, work)
}

/// [`pool_cells`] with an explicit pool width: `jobs == 0` means
/// "auto-size to the machine" ([`wbsim_check::default_jobs`]); any other
/// value pins the worker count, which the CLI's `--jobs` flag threads
/// through every grid-running subcommand.
pub fn pool_cells_jobs<T: Send>(n: usize, jobs: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let jobs = if jobs == 0 {
        wbsim_check::default_jobs()
    } else {
        jobs
    };
    match wbsim_check::run_indexed_earliest::<T, std::convert::Infallible>(n, jobs, |i, _abort| {
        Ok(work(i))
    }) {
        Ok(results) => results,
        Err((_, e)) => match e {},
    }
}

/// A (benchmark, seed) pair's op stream, or its generation panic.
type Stream = Arc<Result<Vec<Op>, String>>;

/// A (benchmark, seed) pair's L1 folds: one per L1 shape, each built by
/// the first cell that needs it.
type Folds = Vec<((L1Config, Geometry), Arc<L1Fold>)>;

/// What one (benchmark, seed) pair shares across a grid run.
struct Slot {
    stream: Option<Stream>,
    folds: Folds,
    /// Cells of the pair not yet finished; the last one frees the slot.
    cells_left: usize,
}

/// Lazily generated, shared op streams and L1 folds for a grid run: one
/// slot per (benchmark, seed) pair, filled by whichever pooled cell needs
/// it first, reused by every later cell of the pair, and emptied when the
/// pair's last cell finishes. Cells are dispensed in grid order, so only
/// the pairs in flight hold memory. Generation panics are cached too, so
/// every dependent cell reports the same message.
struct StreamCache<'a> {
    benches: &'a [BenchmarkModel],
    base_seed: u64,
    length: u64,
    warmup: u64,
    n_seeds: usize,
    slots: Vec<Mutex<Slot>>,
}

impl<'a> StreamCache<'a> {
    fn new(h: &Harness, benches: &'a [BenchmarkModel], n_seeds: usize, n_configs: usize) -> Self {
        Self {
            benches,
            base_seed: h.seed,
            length: h.instructions + h.warmup,
            warmup: h.warmup,
            n_seeds,
            slots: (0..benches.len() * n_seeds)
                .map(|_| {
                    Mutex::new(Slot {
                        stream: None,
                        folds: Vec::new(),
                        cells_left: n_configs,
                    })
                })
                .collect(),
        }
    }

    /// The stream of slot `k` (benchmark `k / n_seeds`, seed offset
    /// `k % n_seeds`).
    fn stream(&self, k: usize) -> Stream {
        let (b, s) = (k / self.n_seeds, k % self.n_seeds);
        let seed = self.base_seed + s as u64;
        let mut slot = self.slots[k].lock();
        let stream = slot.stream.get_or_insert_with(|| {
            Arc::new(
                catch_unwind(|| self.benches[b].stream(seed, self.length))
                    .map_err(|p| format!("stream generation: {}", panic_message(p))),
            )
        });
        Arc::clone(stream)
    }

    /// Slot `k`'s fold of `ops` for `cfg`'s L1 shape, built on first use.
    fn fold(&self, k: usize, ops: &[Op], cfg: &MachineConfig) -> Arc<L1Fold> {
        let key = (cfg.l1, cfg.geometry);
        let mut slot = self.slots[k].lock();
        if let Some((_, fold)) = slot.folds.iter().find(|(k, _)| *k == key) {
            return Arc::clone(fold);
        }
        let fold = Arc::new(L1Fold::new(ops, cfg, self.warmup));
        slot.folds.push((key, Arc::clone(&fold)));
        fold
    }

    /// Marks one of slot `k`'s cells finished; the last one frees the
    /// slot's stream and folds.
    fn done(&self, k: usize) {
        let mut slot = self.slots[k].lock();
        slot.cells_left -= 1;
        if slot.cells_left == 0 {
            slot.stream = None;
            slot.folds.clear();
        }
    }
}

/// One failed cell of a sweep: which benchmark, which configuration, and
/// the panic or validation message. A sweep never aborts on a bad cell —
/// it records the error here and fills the cell with zeros, so one broken
/// configuration cannot take down a whole figure run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Benchmark whose run failed.
    pub bench: &'static str,
    /// Label of the configuration that failed.
    pub config: String,
    /// The panic payload or error message.
    pub message: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep cell failed: bench `{}`, config `{}`: {}",
            self.bench, self.config, self.message
        )
    }
}

/// Lints a sweep grid before burning cycles on it. Error-severity
/// diagnostics abort the sweep: every cell is zeroed and the findings are
/// recorded as [`SweepError`]s under the pseudo-benchmark `(grid lint)`.
/// Warnings and infos do not block.
fn grid_lint_errors(configs: &[(String, MachineConfig)]) -> Vec<SweepError> {
    wbsim_check::lint_grid(configs)
        .into_iter()
        .filter(|d| d.severity == wbsim_check::Severity::Error)
        .map(|d| SweepError {
            bench: "(grid lint)",
            config: d.field_path.clone(),
            message: d.render(),
        })
        .collect()
}

/// Renders a `catch_unwind` payload as a readable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// How much work each experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Harness {
    /// Measured instructions per benchmark per configuration.
    pub instructions: u64,
    /// Instructions executed (and discarded) before measurement begins, to
    /// fill the caches. The paper's SPEC92 runs are long enough to amortize
    /// cold starts; short synthetic runs need explicit warmup.
    pub warmup: u64,
    /// Base seed for trace generation.
    pub seed: u64,
    /// Verify every load against the golden functional model (slower).
    pub check_data: bool,
    /// Worker-pool width for sweeps; `0` auto-sizes to the machine
    /// ([`wbsim_check::default_jobs`]). Pool width never changes results —
    /// it is excluded from job-layer cache keys.
    pub jobs: usize,
    /// Which run-loop engine simulates each cell. The engines are
    /// bit-identical by construction (pinned by the equivalence suite), so
    /// this chooses speed, not results.
    pub engine: Engine,
}

impl Harness {
    /// The default scale used by the CLI: long enough for stable
    /// percentages on every benchmark.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            instructions: 1_000_000,
            warmup: 300_000,
            seed: 42,
            check_data: false,
            jobs: 0,
            engine: Engine::default(),
        }
    }

    /// A small scale for unit tests and doc examples.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            instructions: 60_000,
            warmup: 20_000,
            seed: 42,
            check_data: true,
            jobs: 0,
            engine: Engine::default(),
        }
    }

    /// Runs one benchmark through one configuration.
    #[must_use]
    pub fn run(&self, bench: BenchmarkModel, mut cfg: MachineConfig) -> SimStats {
        cfg.check_data = self.check_data;
        let ops = bench.stream(self.seed, self.instructions + self.warmup);
        let mut m = Machine::new(cfg).expect("experiment configurations are valid by construction");
        m.set_engine(self.engine);
        m.run_with_warmup(ops, self.warmup)
    }

    /// Runs one benchmark through one configuration with a
    /// [`HistogramObserver`] attached, returning both the run's statistics
    /// and the filled observer.
    ///
    /// The statistics respect this harness's warmup (counters reset at the
    /// warmup boundary, as in [`Harness::run`]); the observer watches the
    /// whole run including warmup, so its burst and retirement-latency
    /// figures cover every simulated cycle.
    #[must_use]
    pub fn run_detailed(
        &self,
        bench: BenchmarkModel,
        mut cfg: MachineConfig,
    ) -> (SimStats, HistogramObserver) {
        cfg.check_data = self.check_data;
        let mut obs = HistogramObserver::new(cfg.write_buffer.depth);
        let ops = bench.stream(self.seed, self.instructions + self.warmup);
        let mut m = Machine::new(cfg).expect("experiment configurations are valid by construction");
        m.set_engine(self.engine);
        let stats = m.run_observed_with_warmup(ops, self.warmup, &mut obs);
        (stats, obs)
    }

    /// Runs one benchmark through the ideal-buffer lower bound.
    #[must_use]
    pub fn run_ideal(&self, bench: BenchmarkModel, mut cfg: MachineConfig) -> SimStats {
        cfg.check_data = self.check_data;
        let ops = bench.stream(self.seed, self.instructions + self.warmup);
        let mut m = Machine::new(cfg).expect("experiment configurations are valid by construction");
        m.set_engine(self.engine);
        m.run_ideal_with_warmup(ops, self.warmup)
    }

    /// Runs every (benchmark × configuration × seed) cell on the shared
    /// cell pool ([`pool_cells_jobs`]) and returns each cell's statistics,
    /// or its failure message, in that order: cell
    /// `(b * configs.len() + c) * n_seeds + s` runs `configs[c]` on
    /// `benches[b]` with seed `self.seed + s`. Flattening the whole grid
    /// keeps the pool saturated even when one benchmark's cells are much
    /// slower than the rest.
    ///
    /// Each (benchmark, seed) stream is generated once, by whichever cell
    /// needs it first, and shared across the configurations, together
    /// with one [`L1Fold`] per L1 shape for the configurations that are
    /// [`foldable`]; both are freed after the pair's last cell. A folded
    /// cell's statistics are bit-identical to [`Harness::run`]'s.
    ///
    /// A cell that panics (an invalid configuration, a machine assertion)
    /// yields its panic message; the other cells still run.
    #[must_use]
    pub fn run_grid(
        &self,
        benches: &[BenchmarkModel],
        configs: &[MachineConfig],
        n_seeds: usize,
    ) -> Vec<Result<SimStats, String>> {
        let (nc, n) = (configs.len(), n_seeds.max(1));
        let streams = StreamCache::new(self, benches, n, nc);
        pool_cells_jobs(benches.len() * nc * n, self.jobs, |i| {
            let (b, c, s) = (i / (nc * n), (i / n) % nc, i % n);
            let k = b * n + s;
            let stats = self.run_cell(&streams, k, &configs[c]);
            streams.done(k);
            stats
        })
    }

    /// [`Harness::run_grid`] with each failure message naming its seed.
    fn seeded_grid(
        &self,
        benches: &[BenchmarkModel],
        configs: &[MachineConfig],
        n: usize,
    ) -> Vec<Result<SimStats, String>> {
        let mut runs = self.run_grid(benches, configs, n);
        for (i, run) in runs.iter_mut().enumerate() {
            if let Err(msg) = run {
                *msg = format!("seed {}: {msg}", self.seed + (i % n) as u64);
            }
        }
        runs
    }

    /// One cell of [`Harness::run_grid`]: `cfg` on slot `k`'s stream,
    /// folded when the configuration allows.
    fn run_cell(
        &self,
        streams: &StreamCache<'_>,
        k: usize,
        cfg: &MachineConfig,
    ) -> Result<SimStats, String> {
        let stream = streams.stream(k);
        let ops = stream.as_deref().map_err(Clone::clone)?;
        let cfg = MachineConfig {
            check_data: self.check_data,
            ..cfg.clone()
        };
        catch_unwind(AssertUnwindSafe(|| {
            let mut m = Machine::new(cfg.clone()).expect("experiment configuration rejected");
            m.set_engine(self.engine);
            if foldable::<NullObserver>(&cfg) {
                m.run_fold(&streams.fold(k, ops, &cfg))
            } else {
                m.run_with_warmup(ops.iter().copied(), self.warmup)
            }
        }))
        .map_err(panic_message)
    }

    /// Sweeps `configs` over `benches` through [`Harness::run_grid`].
    ///
    /// A cell that panics (an invalid configuration, a machine assertion)
    /// does not abort the sweep: the cell is zeroed and the failure is
    /// recorded in [`FigureResult::errors`], naming the benchmark and the
    /// configuration label.
    #[must_use]
    pub fn sweep(
        &self,
        id: &'static str,
        title: &str,
        benches: &[BenchmarkModel],
        configs: &[(String, MachineConfig)],
    ) -> FigureResult {
        let lint = grid_lint_errors(configs);
        if !lint.is_empty() {
            return FigureResult {
                id,
                title: title.to_string(),
                benches: benches.iter().map(|b| b.name()).collect(),
                configs: configs.iter().map(|(l, _)| l.clone()).collect(),
                cells: benches
                    .iter()
                    .map(|_| configs.iter().map(|_| StallCell::zeroed()).collect())
                    .collect(),
                errors: lint,
            };
        }
        let grid: Vec<MachineConfig> = configs.iter().map(|(_, c)| c.clone()).collect();
        let mut flat = self.run_grid(benches, &grid, 1).into_iter();
        let mut errors = Vec::new();
        let cells = benches
            .iter()
            .map(|bench| {
                configs
                    .iter()
                    .map(|(label, _)| {
                        flat.next()
                            .expect("one pooled result per cell")
                            .map(|stats| StallCell::from_stats(&stats))
                            .unwrap_or_else(|message| {
                                errors.push(SweepError {
                                    bench: bench.name(),
                                    config: label.clone(),
                                    message,
                                });
                                StallCell::zeroed()
                            })
                    })
                    .collect()
            })
            .collect();
        FigureResult {
            id,
            title: title.to_string(),
            benches: benches.iter().map(|b| b.name()).collect(),
            configs: configs.iter().map(|(l, _)| l.clone()).collect(),
            cells,
            errors,
        }
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::standard()
    }
}

/// Mean and standard deviation of the figure quantities over several
/// seeds — the confidence companion to a single-seed [`StallCell`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedSummary {
    /// Seeds aggregated.
    pub seeds: u64,
    /// Mean / standard deviation of the L2-read-access percentage.
    pub r: (f64, f64),
    /// Mean / standard deviation of the buffer-full percentage.
    pub f: (f64, f64),
    /// Mean / standard deviation of the load-hazard percentage.
    pub l: (f64, f64),
    /// Mean / standard deviation of the total stall percentage.
    pub total: (f64, f64),
}

impl SeedSummary {
    /// The placeholder for a failed sweep cell.
    #[must_use]
    fn zeroed(seeds: u64) -> Self {
        Self {
            seeds,
            r: (0.0, 0.0),
            f: (0.0, 0.0),
            l: (0.0, 0.0),
            total: (0.0, 0.0),
        }
    }
}

/// Folds one cell's seed replicas into a [`SeedSummary`], or the first
/// failing seed's message (seeds are in base-seed order, so "first" is
/// deterministic regardless of pool scheduling).
fn summarize_seeds(n: u64, runs: Vec<Result<SimStats, String>>) -> Result<SeedSummary, String> {
    let cells = runs
        .into_iter()
        .map(|r| r.map(|stats| StallCell::from_stats(&stats)))
        .collect::<Result<Vec<_>, _>>()?;
    let pick = |f: fn(&StallCell) -> f64| {
        let xs: Vec<f64> = cells.iter().map(f).collect();
        mean_sd(&xs)
    };
    Ok(SeedSummary {
        seeds: n,
        r: pick(|c| c.r_pct),
        f: pick(|c| c.f_pct),
        l: pick(|c| c.l_pct),
        total: pick(|c| c.total_pct()),
    })
}

fn mean_sd(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

impl Harness {
    /// Runs `bench` under `cfg` with `n_seeds` different workload seeds
    /// (starting from this harness's base seed) and summarizes the spread.
    /// Synthetic workloads are stochastic; this is how an experiment
    /// decides whether a difference between two configurations is signal.
    ///
    /// Panics if any seed's run panics; [`Harness::try_run_seeds`] is the
    /// non-aborting variant used by [`Harness::sweep_seeds`].
    #[must_use]
    pub fn run_seeds(
        &self,
        bench: BenchmarkModel,
        cfg: MachineConfig,
        n_seeds: u64,
    ) -> SeedSummary {
        self.try_run_seeds(bench, cfg, n_seeds)
            .unwrap_or_else(|msg| panic!("seed run failed for `{}`: {msg}", bench.name()))
    }

    /// Like [`Harness::run_seeds`], but a panicking seed run (an invalid
    /// configuration, a machine assertion) is caught and returned as the
    /// first failing seed's message instead of aborting the caller.
    pub fn try_run_seeds(
        &self,
        bench: BenchmarkModel,
        cfg: MachineConfig,
        n_seeds: u64,
    ) -> Result<SeedSummary, String> {
        let n = n_seeds.max(1);
        summarize_seeds(n, self.seeded_grid(&[bench], &[cfg], n as usize))
    }
}

/// One bar of a paper figure: the three stall categories as percentages of
/// execution time, plus the counters they were derived from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallCell {
    /// L2-read-access stall percentage (the paper's black segment).
    pub r_pct: f64,
    /// Buffer-full stall percentage (grey).
    pub f_pct: f64,
    /// Load-hazard stall percentage (white).
    pub l_pct: f64,
    /// The full statistics of the run.
    pub stats: SimStats,
}

impl StallCell {
    /// Extracts the figure quantities from a run's statistics.
    #[must_use]
    pub fn from_stats(stats: &SimStats) -> Self {
        Self {
            r_pct: stats.stall_pct(StallKind::L2ReadAccess),
            f_pct: stats.stall_pct(StallKind::BufferFull),
            l_pct: stats.stall_pct(StallKind::LoadHazard),
            stats: *stats,
        }
    }

    /// Total write-buffer-induced stall percentage (the paper's "T" bar).
    #[must_use]
    pub fn total_pct(&self) -> f64 {
        self.r_pct + self.f_pct + self.l_pct
    }

    /// The placeholder for a failed sweep cell.
    #[must_use]
    fn zeroed() -> Self {
        Self {
            r_pct: 0.0,
            f_pct: 0.0,
            l_pct: 0.0,
            stats: SimStats::default(),
        }
    }
}

/// A figure grid with per-cell seed spread: `summaries[bench][config]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSpread {
    /// Which figure this replicates.
    pub id: &'static str,
    /// Caption line.
    pub title: String,
    /// Benchmark names.
    pub benches: Vec<&'static str>,
    /// Configuration labels.
    pub configs: Vec<String>,
    /// Per-cell seed summaries.
    pub summaries: Vec<Vec<SeedSummary>>,
    /// Cells that failed; their summaries are zeroed.
    pub errors: Vec<SweepError>,
}

impl Harness {
    /// Like [`Harness::sweep`], but replicates every cell across
    /// `n_seeds` workload seeds and reports mean ± sd — for deciding
    /// whether a difference between configurations is signal or
    /// generator noise.
    ///
    /// As with [`Harness::sweep`], a failing cell is zeroed and recorded
    /// in [`FigureSpread::errors`] rather than aborting the sweep.
    #[must_use]
    pub fn sweep_seeds(
        &self,
        id: &'static str,
        title: &str,
        benches: &[BenchmarkModel],
        configs: &[(String, MachineConfig)],
        n_seeds: u64,
    ) -> FigureSpread {
        let lint = grid_lint_errors(configs);
        if !lint.is_empty() {
            return FigureSpread {
                id,
                title: title.to_string(),
                benches: benches.iter().map(|b| b.name()).collect(),
                configs: configs.iter().map(|(l, _)| l.clone()).collect(),
                summaries: benches
                    .iter()
                    .map(|_| {
                        configs
                            .iter()
                            .map(|_| SeedSummary::zeroed(n_seeds.max(1)))
                            .collect()
                    })
                    .collect(),
                errors: lint,
            };
        }
        let n = n_seeds.max(1) as usize;
        let grid: Vec<MachineConfig> = configs.iter().map(|(_, c)| c.clone()).collect();
        let mut runs = self.seeded_grid(benches, &grid, n).into_iter();
        let mut errors = Vec::new();
        let summaries = benches
            .iter()
            .map(|bench| {
                configs
                    .iter()
                    .map(|(label, _)| {
                        let replicas: Vec<_> = runs.by_ref().take(n).collect();
                        summarize_seeds(n as u64, replicas).unwrap_or_else(|message| {
                            errors.push(SweepError {
                                bench: bench.name(),
                                config: label.clone(),
                                message,
                            });
                            SeedSummary::zeroed(n as u64)
                        })
                    })
                    .collect()
            })
            .collect();
        FigureSpread {
            id,
            title: title.to_string(),
            benches: benches.iter().map(|b| b.name()).collect(),
            configs: configs.iter().map(|(l, _)| l.clone()).collect(),
            summaries,
            errors,
        }
    }
}

/// A reproduced figure: a grid of [`StallCell`]s, benchmarks × configs.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Which figure this reproduces (e.g. `"Figure 4"`).
    pub id: &'static str,
    /// The figure's caption line.
    pub title: String,
    /// Benchmark names, in the paper's presentation order.
    pub benches: Vec<&'static str>,
    /// Configuration labels, in the paper's bar order.
    pub configs: Vec<String>,
    /// `cells[bench][config]`.
    pub cells: Vec<Vec<StallCell>>,
    /// Cells that failed; their entries in `cells` are zeroed.
    pub errors: Vec<SweepError>,
}

impl FigureResult {
    /// The cell for a benchmark/config pair, by name.
    #[must_use]
    pub fn cell(&self, bench: &str, config: &str) -> Option<&StallCell> {
        let b = self.benches.iter().position(|n| *n == bench)?;
        let c = self.configs.iter().position(|n| n == config)?;
        self.cells.get(b)?.get(c)
    }

    /// Mean total stall percentage across benchmarks for one configuration
    /// column — a one-number summary used by tests and ablation reports.
    #[must_use]
    pub fn mean_total_pct(&self, config_idx: usize) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .cells
            .iter()
            .filter_map(|row| row.get(config_idx))
            .map(StallCell::total_pct)
            .sum();
        sum / self.cells.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_stats() {
        let h = Harness::quick();
        let s = h.run(BenchmarkModel::Espresso, MachineConfig::baseline());
        // The warmup reset lands at the first instruction boundary at or
        // after `warmup`, so the measured count is within one op of the
        // requested instruction budget.
        assert!(s.instructions >= h.instructions - 50);
        assert!(s.instructions <= h.instructions + h.warmup);
        assert!(s.cycles >= s.instructions);
        assert!(s.loads > 0 && s.stores > 0);
    }

    #[test]
    fn detailed_run_observer_covers_warmup() {
        let h = Harness {
            instructions: 5_000,
            warmup: 1_000,
            seed: 1,
            check_data: true,
            ..Harness::standard()
        };
        let (stats, obs) = h.run_detailed(BenchmarkModel::Compress, MachineConfig::baseline());
        // The observer watches the whole run; the statistics only the
        // measured window after the warmup reset.
        assert!(obs.cycles() > stats.cycles);
        assert!(obs.high_water() >= stats.wb_detail.high_water);
        assert!(obs.retirements() > 0);
        assert!(obs.mean_occupancy() > 0.0);
    }

    #[test]
    fn sweep_shape_matches_inputs() {
        let h = Harness {
            instructions: 5_000,
            warmup: 0,
            seed: 1,
            check_data: true,
            ..Harness::standard()
        };
        let benches = [BenchmarkModel::Espresso, BenchmarkModel::Li];
        let configs = vec![
            ("a".to_string(), MachineConfig::baseline()),
            ("b".to_string(), MachineConfig::baseline()),
        ];
        let fig = h.sweep("Figure T", "test", &benches, &configs);
        assert_eq!(fig.benches, vec!["espresso", "li"]);
        assert_eq!(fig.cells.len(), 2);
        assert_eq!(fig.cells[0].len(), 2);
        assert!(fig.errors.is_empty());
        // Identical configs must give identical cells (determinism).
        assert_eq!(fig.cells[0][0], fig.cells[0][1]);
        assert!(fig.cell("li", "b").is_some());
        assert!(fig.cell("li", "zzz").is_none());
    }

    /// A configuration the machine would reject (zero-depth buffer) is
    /// caught by the design-space linter *before* any simulation runs:
    /// the whole sweep is gated with zeroed cells and a `(grid lint)`
    /// error naming the offending column, rather than panicking per cell.
    #[test]
    fn sweep_gates_invalid_grids_through_the_linter() {
        let h = Harness {
            instructions: 5_000,
            warmup: 0,
            seed: 1,
            check_data: true,
            ..Harness::standard()
        };
        let mut bad = MachineConfig::baseline();
        bad.write_buffer.depth = 0;
        let benches = [BenchmarkModel::Espresso, BenchmarkModel::Li];
        let configs = vec![
            ("ok".to_string(), MachineConfig::baseline()),
            ("bad".to_string(), bad.clone()),
        ];
        let fig = h.sweep("Figure T", "test", &benches, &configs);
        // Grid shape is preserved so renderers never index out of bounds…
        assert_eq!(fig.cells.len(), 2);
        assert_eq!(fig.cells[0].len(), 2);
        // …but no cell ran: the lint gate fires once per bad column, not
        // once per (bench, config) cell.
        assert_eq!(fig.errors.len(), 1, "one lint error for the bad column");
        let err = &fig.errors[0];
        assert_eq!(err.bench, "(grid lint)");
        assert!(err.config.starts_with("bad:"), "{}", err.config);
        assert!(err.message.contains("CFG"), "{}", err.message);
        assert_eq!(fig.cell("espresso", "ok").unwrap().stats.cycles, 0);
        assert_eq!(fig.cell("li", "bad").unwrap().stats.cycles, 0);

        // The seed-spread sweep is gated by the same linter.
        let spread = h.sweep_seeds("Figure T", "test", &benches, &configs, 2);
        assert_eq!(spread.errors.len(), 1);
        assert_eq!(spread.errors[0].bench, "(grid lint)");
        assert_eq!(spread.summaries[0][1].total.0, 0.0);
        assert_eq!(spread.summaries[0][0].total.0, 0.0);

        // And the non-aborting seed runner reports rather than panics.
        let err = h
            .try_run_seeds(BenchmarkModel::Li, bad, 2)
            .expect_err("zero-depth buffer must be rejected");
        assert!(!err.is_empty());
    }

    /// Per-cell error attribution under the pooled scheduler. The vehicle
    /// is a configuration that is *statically* fine — fault injection is a
    /// deliberate oracle feature, so the grid linter passes it — but whose
    /// every simulation panics: read-from-WB with the
    /// [`FaultInjection::SkipWbForwarding`] bug and data checking on, so
    /// the first forwarded load reads stale data and the golden-model
    /// verifier fires. Each (bench, faulty-config) cell must be attributed
    /// its own [`SweepError`] while the healthy column's cells survive —
    /// exactly the property the old one-thread-per-benchmark sweep got for
    /// free and the flattened pool must not lose.
    #[test]
    fn sweep_attributes_errors_per_cell_under_pool() {
        use wbsim_types::divergence::FaultInjection;
        use wbsim_types::policy::LoadHazardPolicy;
        let h = Harness {
            instructions: 5_000,
            warmup: 0,
            seed: 1,
            check_data: true,
            ..Harness::standard()
        };
        let mut faulty = MachineConfig::baseline();
        faulty.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
        faulty.fault = Some(FaultInjection::SkipWbForwarding);
        // `sc` and `doduc` both trip the stale-data assert within the
        // first few hundred instructions (dense store-miss/load traffic).
        let benches = [BenchmarkModel::Sc, BenchmarkModel::Doduc];
        let configs = vec![
            ("ok".to_string(), MachineConfig::baseline()),
            ("faulty".to_string(), faulty.clone()),
        ];
        let fig = h.sweep("Figure T", "test", &benches, &configs);
        // One error per faulty cell, in bench-major order, each naming its
        // own benchmark and the faulty column.
        assert_eq!(fig.errors.len(), 2, "errors: {:?}", fig.errors);
        assert_eq!(fig.errors[0].bench, "sc");
        assert_eq!(fig.errors[1].bench, "doduc");
        for err in &fig.errors {
            assert_eq!(err.config, "faulty");
            assert!(err.message.contains("stale data"), "{}", err.message);
        }
        // The healthy column still ran; the faulty cells are zeroed.
        for bench in ["sc", "doduc"] {
            assert!(fig.cell(bench, "ok").unwrap().stats.cycles > 0);
            assert_eq!(fig.cell(bench, "faulty").unwrap().stats.cycles, 0);
        }

        // The seeded sweep attributes through the same flattened pool and
        // reports the *first failing seed* for each faulty cell.
        let spread = h.sweep_seeds("Figure T", "test", &benches, &configs, 2);
        assert_eq!(spread.errors.len(), 2, "errors: {:?}", spread.errors);
        for err in &spread.errors {
            assert_eq!(err.config, "faulty");
            assert!(err.message.starts_with("seed 1:"), "{}", err.message);
        }
        assert!(spread.summaries[0][0].total.0 >= 0.0);
        assert_eq!(spread.summaries[0][1].total.0, 0.0);
    }

    #[test]
    fn sweep_seeds_shape_and_spread() {
        let h = Harness {
            instructions: 6_000,
            warmup: 1_000,
            seed: 2,
            check_data: true,
            ..Harness::standard()
        };
        let benches = [BenchmarkModel::Compress];
        let configs = vec![("base".to_string(), MachineConfig::baseline())];
        let spread = h.sweep_seeds("Figure T", "t", &benches, &configs, 3);
        assert_eq!(spread.summaries.len(), 1);
        assert_eq!(spread.summaries[0].len(), 1);
        let s = spread.summaries[0][0];
        assert_eq!(s.seeds, 3);
        assert!(s.total.0 > 0.0);
    }

    #[test]
    fn seed_summary_statistics() {
        let h = Harness {
            instructions: 15_000,
            warmup: 3_000,
            seed: 1,
            check_data: true,
            ..Harness::standard()
        };
        let s = h.run_seeds(BenchmarkModel::Fft, MachineConfig::baseline(), 4);
        assert_eq!(s.seeds, 4);
        assert!(s.total.0 > 0.0, "fft stalls on the baseline");
        assert!(s.total.1 >= 0.0);
        // The synthetic models are statistically stable: the spread across
        // seeds stays well under the mean.
        assert!(
            s.total.1 < s.total.0,
            "sd {:.3} should be below mean {:.3}",
            s.total.1,
            s.total.0
        );
        // A single seed has no spread.
        let one = h.run_seeds(BenchmarkModel::Fft, MachineConfig::baseline(), 1);
        assert_eq!(one.total.1, 0.0);
    }

    #[test]
    fn stall_cell_totals() {
        let h = Harness {
            instructions: 20_000,
            warmup: 0,
            seed: 3,
            check_data: true,
            ..Harness::standard()
        };
        let s = h.run(BenchmarkModel::Fft, MachineConfig::baseline());
        let c = StallCell::from_stats(&s);
        assert!((c.total_pct() - s.total_stall_pct()).abs() < 1e-9);
    }
}
