//! The cell runner both sweeps share: one cell is one benchmark stream
//! through one machine configuration, driven through the layers' public
//! functions (`BenchmarkModel::stream`, `Machine::new` /
//! `NonBlockingMachine::new`, `run_*`) so each call can carry a span.
//!
//! Also here: the engine-ceiling counters, the reference-engine re-runs,
//! and the replay that prices `core` and `mem` calls for the layer
//! accounting.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use wbsim_core::WriteBuffer;
use wbsim_mem::{L1Cache, L2Cache, MainMemory};
use wbsim_sim::{Engine, HistogramObserver, Machine, NonBlockingMachine};
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_trace::stats::TraceStats;
use wbsim_types::config::MachineConfig;
use wbsim_types::op::Op;
use wbsim_types::stall::StallKind;
use wbsim_types::stats::SimStats;

use crate::report::Report;
use crate::spans::{Span, SpanId, Tracer};
use crate::util::{digest_debug, median, percentile, ratio, secs};

/// Pool width of every sweep: the box has two cores.
pub const POOL: usize = 2;

/// What a cell runs its stream through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The blocking machine, statistics reset after `warmup` instructions;
    /// `observe` attaches a `HistogramObserver` (table `wb`).
    Blocking { warmup: u64, observe: bool },
    /// The non-blocking machine, which has no warmup hook: its caches
    /// start empty.
    NonBlocking { mshrs: usize },
    /// Stream statistics only (table 4).
    TraceStats,
}

#[derive(Debug, Clone)]
pub struct Cell {
    pub id: usize,
    /// Table or figure (paper-sweep) or machine leg (stall-sweep).
    pub group: &'static str,
    pub label: String,
    pub bench: BenchmarkModel,
    pub cfg: MachineConfig,
    pub kind: Kind,
    /// Instructions requested from the stream generator.
    pub length: u64,
    pub seed: u64,
}

impl Cell {
    pub fn simulates(&self) -> bool {
        !matches!(self.kind, Kind::TraceStats)
    }

    fn nonblocking(&self) -> bool {
        matches!(self.kind, Kind::NonBlocking { .. })
    }
}

/// A cell's result.
#[derive(Debug, Clone, Default)]
pub struct CellOut {
    pub stats: SimStats,
    /// Digest of the cell's `SimStats` (and observer or stream statistics).
    pub digest: u64,
    /// Simulated cycles and instructions, warmup included.
    pub cycles: u64,
    pub instructions: u64,
    /// Cycles the event-driven engine skipped as pure waits and batched in
    /// the fast lane (recorded only when asked).
    pub skipped: u64,
    pub batched: u64,
    pub error: Option<String>,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Runs one cell. With `ops == None` the cell generates its own stream;
/// otherwise it runs the shared stream it is given (the figure sweeps
/// share one stream per benchmark). A panic becomes `CellOut::error`.
pub fn run_cell(
    cell: &Cell,
    ops: Option<&[Op]>,
    engine: Engine,
    record_skips: bool,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> CellOut {
    let id = cell.id as u64;
    tracer.span("experiments.cell", parent, id, |cs| {
        catch_unwind(AssertUnwindSafe(|| {
            let owned;
            let ops = match ops {
                Some(o) => o,
                None => {
                    owned = tracer.span("trace.stream", cs, id, |_| {
                        cell.bench.stream(cell.seed, cell.length)
                    });
                    &owned[..]
                }
            };
            let mut out = CellOut {
                instructions: ops.iter().map(Op::instructions).sum(),
                ..CellOut::default()
            };
            let mut cfg = cell.cfg.clone();
            cfg.check_data = false;
            let spans = match cell.kind {
                Kind::TraceStats => {
                    let t = tracer.span("trace.stats", cs, id, |_| TraceStats::measure(ops));
                    out.digest = digest_debug(&t);
                    return out;
                }
                Kind::Blocking { warmup, observe } => {
                    let depth = cfg.write_buffer.depth;
                    let mut m = tracer
                        .span("sim.new", cs, id, |_| Machine::new(cfg))
                        .expect("sweep configurations are valid");
                    m.set_engine(engine);
                    m.set_record_skips(record_skips);
                    if observe {
                        let mut obs = HistogramObserver::new(depth);
                        out.stats = tracer.span("sim.run", cs, id, |_| {
                            m.run_observed_with_warmup(ops.iter().copied(), warmup, &mut obs)
                        });
                        out.digest = digest_debug(&(out.stats, &obs));
                    } else {
                        out.stats = tracer.span("sim.run", cs, id, |_| {
                            m.run_with_warmup(ops.iter().copied(), warmup)
                        });
                        out.digest = digest_debug(&out.stats);
                    }
                    out.cycles = m.now();
                    m.take_skips()
                }
                Kind::NonBlocking { mshrs } => {
                    let mut m = tracer
                        .span("sim.new", cs, id, |_| NonBlockingMachine::new(cfg, mshrs))
                        .expect("sweep configurations are valid");
                    m.set_engine(engine);
                    m.set_record_skips(record_skips);
                    out.stats = tracer.span("sim.run", cs, id, |_| m.run(ops.iter().copied()));
                    out.digest = digest_debug(&out.stats);
                    out.cycles = m.now();
                    m.take_skips()
                }
            };
            for s in spans {
                if s.lane {
                    out.batched += s.to - s.from;
                } else {
                    out.skipped += s.to - s.from;
                }
            }
            out
        }))
        .unwrap_or_else(|p| CellOut {
            error: Some(panic_text(p)),
            ..CellOut::default()
        })
    })
}

/// Prints one digest line per cell and checks each cell ran cleanly.
pub fn print_digests(cells: &[Cell], outs: &[CellOut], report: &mut Report) -> u64 {
    let mut all = Vec::with_capacity(outs.len() * 8);
    for (c, o) in cells.iter().zip(outs) {
        println!(
            "cell {:>4} {:<10} {:<14} {:<24} simstats {:016x}",
            c.id,
            c.group,
            c.bench.name(),
            c.label,
            o.digest
        );
        all.extend_from_slice(&o.digest.to_le_bytes());
        report.check(o.error.is_none(), || {
            format!(
                "cell {} ({} {}): {}",
                c.id,
                c.bench.name(),
                c.label,
                o.error.clone().unwrap_or_default()
            )
        });
    }
    crate::util::fnv64(&all)
}

/// Re-runs a deterministic sample of cells on both engines, outside any
/// timed region, and checks the statistics match bit for bit. Returns the
/// summed host seconds per machine (blocking, non-blocking) as
/// `(event, reference)` pairs.
pub fn reference_pairs(cells: &[Cell], sample: &[usize], report: &mut Report) -> [(f64, f64); 2] {
    let off = Tracer::new(false);
    let mut sums = [(0.0, 0.0); 2];
    for &i in sample {
        let c = &cells[i];
        let ops = c.bench.stream(c.seed, c.length);
        let t = Instant::now();
        let ev = run_cell(c, Some(&ops), Engine::EventDriven, false, &off, None);
        let t_ev = secs(t);
        let t = Instant::now();
        let rf = run_cell(c, Some(&ops), Engine::Reference, false, &off, None);
        let t_rf = secs(t);
        let same = ev.error.is_none()
            && ev.digest == rf.digest
            && ev.stats == rf.stats
            && ev.cycles == rf.cycles;
        report.check(same, || {
            format!(
                "cell {} ({} {}): reference engine differs from event-driven engine",
                c.id,
                c.bench.name(),
                c.label
            )
        });
        println!(
            "reference-check cell {:>4} {:<14} {:<24} event {:.4}s reference {:.4}s {}",
            c.id,
            c.bench.name(),
            c.label,
            t_ev,
            t_rf,
            if same { "match" } else { "MISMATCH" }
        );
        let k = usize::from(c.nonblocking());
        sums[k].0 += t_ev;
        sums[k].1 += t_rf;
    }
    sums
}

/// Host cost of one call into `core` or `mem`, from a standalone replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallCosts {
    pub l1_ns: f64,
    pub l2_ns: f64,
    pub store_ns: f64,
    pub probe_ns: f64,
    pub retire_ns: f64,
}

/// Ops replayed per sampled cell.
const REPLAY_OPS: usize = 60_000;

/// Trimmed mean: drops the slowest 1% (interrupts, page faults).
fn trimmed_mean_ns(mut v: Vec<u64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let keep = (v.len() * 99).div_ceil(100);
    v[..keep].iter().sum::<u64>() as f64 / keep as f64
}

/// Cost of an empty `Instant` pair, subtracted from per-call timings.
fn timer_overhead_ns() -> f64 {
    let mut v = Vec::with_capacity(20_000);
    for _ in 0..20_000 {
        let t = Instant::now();
        black_box(());
        v.push(t.elapsed().as_nanos() as u64);
    }
    trimmed_mean_ns(v)
}

/// Replays the head of a cell's stream through standalone `L1Cache`,
/// `L2Cache` and `WriteBuffer` calls and prices each kind of call.
///
/// L1 accesses and L2 reads are timed as whole loops (fills amortized into
/// the L1 figure). Write-buffer calls are timed one by one, less the timer
/// cost, because their order depends on the buffer's state: stores, the
/// probes an L1 load miss makes (`read_word` and `has_line`), and the
/// retirements (`next_retirement`, `begin_retire`, `take_retired`) that
/// keep occupancy at the configuration's retire-at mark.
pub fn replay(cell: &Cell) -> CallCosts {
    let cfg = &cell.cfg;
    let g = cfg.geometry;
    let ops = cell.bench.stream(cell.seed, cell.length);
    let ops = &ops[..ops.len().min(REPLAY_OPS)];
    let zeros = vec![0u64; g.words_per_line()];
    let mut costs = CallCosts::default();

    let mut l1 = L1Cache::new(&cfg.l1, &g).expect("valid L1");
    let mut misses = Vec::new();
    let mut accesses = 0u64;
    let t = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Load(a) => {
                accesses += 1;
                let line = g.line_of(a);
                if black_box(l1.load_word(line, g.word_index(a))).is_none() {
                    misses.push(line);
                    l1.fill(line, &zeros);
                }
            }
            Op::Store(a) => {
                accesses += 1;
                black_box(l1.store_word(g.line_of(a), g.word_index(a), i as u64));
            }
            _ => {}
        }
    }
    costs.l1_ns = ratio(t.elapsed().as_nanos() as f64, accesses as f64);

    let mut l2 = L2Cache::new(&cfg.l2, &g).expect("valid L2");
    let mut mem = MainMemory::new();
    let t = Instant::now();
    for &line in &misses {
        black_box(l2.read_line(&g, line, &mut mem));
    }
    costs.l2_ns = ratio(t.elapsed().as_nanos() as f64, misses.len() as f64);

    let overhead = timer_overhead_ns();
    let mark = cfg.write_buffer.retirement.high_water().unwrap_or(1).max(1);
    let mut wb = WriteBuffer::new(&cfg.write_buffer, &g).expect("valid write buffer");
    let mut l1 = L1Cache::new(&cfg.l1, &g).expect("valid L1");
    let (mut store_t, mut probe_t, mut retire_t) = (Vec::new(), Vec::new(), Vec::new());
    let retire = |wb: &mut WriteBuffer, times: &mut Vec<u64>| {
        let t = Instant::now();
        let done = wb.next_retirement().map(|id| {
            wb.begin_retire(id);
            wb.take_retired(id)
        });
        times.push(t.elapsed().as_nanos() as u64);
        black_box(done);
    };
    for (i, op) in ops.iter().enumerate() {
        let now = i as u64;
        match *op {
            Op::Store(a) => {
                let t = Instant::now();
                let out = black_box(wb.store(a, now, now));
                store_t.push(t.elapsed().as_nanos() as u64);
                if out == wbsim_core::StoreOutcome::Full {
                    retire(&mut wb, &mut retire_t);
                    wb.store(a, now, now);
                }
                if wb.occupancy() >= mark {
                    retire(&mut wb, &mut retire_t);
                }
            }
            Op::Load(a) => {
                let line = g.line_of(a);
                if l1.load_word(line, g.word_index(a)).is_none() {
                    let t = Instant::now();
                    black_box((wb.read_word(a), wb.has_line(line)));
                    probe_t.push(t.elapsed().as_nanos() as u64);
                    l1.fill(line, &zeros);
                }
            }
            _ => {}
        }
    }
    let net = |v: Vec<u64>| (trimmed_mean_ns(v) - overhead).max(0.0);
    costs.store_ns = net(store_t);
    costs.probe_ns = net(probe_t);
    costs.retire_ns = net(retire_t);
    costs
}

/// Mean of several cells' call costs.
pub fn mean_costs(all: &[CallCosts]) -> CallCosts {
    let n = all.len().max(1) as f64;
    let sum = |f: fn(&CallCosts) -> f64| all.iter().map(f).sum::<f64>() / n;
    CallCosts {
        l1_ns: sum(|c| c.l1_ns),
        l2_ns: sum(|c| c.l2_ns),
        store_ns: sum(|c| c.store_ns),
        probe_ns: sum(|c| c.probe_ns),
        retire_ns: sum(|c| c.retire_ns),
    }
}

/// Estimated `core` and `mem` host seconds of one cell: call costs times
/// the cell's simulated call counts, scaled from the measured window to
/// the whole run when warmup reset the statistics.
pub fn layer_estimate(out: &CellOut, c: &CallCosts) -> (f64, f64) {
    let s = &out.stats;
    let scale = ratio(out.instructions as f64, s.instructions as f64);
    let l1_misses = s.loads.saturating_sub(s.l1_load_hits) as f64;
    let core = c.store_ns * s.stores as f64
        + c.probe_ns * l1_misses
        + c.retire_ns * (s.wb_retirements + s.wb_flushes) as f64;
    let mem = c.l1_ns * (s.loads + s.stores) as f64 + c.l2_ns * s.l2_reads as f64;
    (core * scale * 1e-9, mem * scale * 1e-9)
}

/// Per-machine engine counters summed over cells: exact counts.
#[derive(Default, Clone, Copy)]
struct Engines {
    cells: u64,
    cycles: u64,
    skipped: u64,
    batched: u64,
    instructions: u64,
    run_s: f64,
}

/// Host milliseconds of every simulating cell in one traced repetition,
/// from its `experiments.cell` span.
pub fn sim_cell_ms(cells: &[Cell], spans: &[Span]) -> Vec<f64> {
    let mut ms = vec![0.0; cells.len()];
    for s in spans.iter().filter(|s| s.name == "experiments.cell") {
        ms[s.unit as usize] += (s.end_ns - s.start_ns) as f64 * 1e-6;
    }
    cells
        .iter()
        .zip(ms)
        .filter(|(c, _)| c.simulates())
        .map(|(_, ms)| ms)
        .collect()
}

/// Everything the traced run of a sweep measured, turned into the
/// per-layer metrics, the engine counters and the layer accounting.
pub struct SweepTrace<'a> {
    pub cells: &'a [Cell],
    pub outs: &'a [CellOut],
    /// Spans of one traced repetition.
    pub spans: &'a [Span],
    /// [`sim_cell_ms`] of every traced repetition, pooled so the p99 has
    /// [`crate::util::P99_SAMPLES`] samples.
    pub cell_ms: &'a [f64],
    /// Host seconds of that repetition.
    pub wall_s: f64,
    /// Instructions the repetition's `trace.stream` calls generated.
    pub gen_instructions: u64,
    pub costs: CallCosts,
    /// `reference_pairs` result.
    pub pairs: [(f64, f64); 2],
    /// Host seconds of the `wb` cells under `HistogramObserver` and under
    /// `NullObserver` (0 when the sweep observes nothing).
    pub observed_s: (f64, f64),
}

fn in_cell(spans: &[Span], s: &Span) -> bool {
    s.parent
        .is_some_and(|p| spans[p].name == "experiments.cell")
}

pub fn sweep_metrics(t: &SweepTrace<'_>, report: &mut Report) {
    // Span durations by cell id.
    let n = t.cells.len();
    let (mut cell_s, mut stream_s, mut run_s) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut shared_stream_s = 0.0;
    for s in t.spans {
        let d = (s.end_ns - s.start_ns) as f64 * 1e-9;
        match s.name {
            "experiments.cell" => cell_s[s.unit as usize] += d,
            // A stream span under a cell serves that cell; one directly
            // under a pool is a figure's shared stream.
            "trace.stream" if in_cell(t.spans, s) => stream_s[s.unit as usize] += d,
            "trace.stream" => shared_stream_s += d,
            "sim.new" | "sim.run" => run_s[s.unit as usize] += d,
            _ => {}
        }
    }
    let stream_total: f64 = stream_s.iter().sum::<f64>() + shared_stream_s;
    // Cell host time: every cell, plus the streams figures share (pool
    // busy time too).
    let cell_total: f64 = cell_s.iter().sum::<f64>() + shared_stream_s;

    // Engine counters and host time per machine.
    let mut eng = [Engines::default(); 2];
    let mut agg = SimStats::default();
    let (mut high_water, mut headroom_min) = (0u64, u64::MAX);
    let (mut core_s, mut mem_s) = (0.0, 0.0);
    for (i, (c, o)) in t.cells.iter().zip(t.outs).enumerate() {
        if !c.simulates() {
            continue;
        }
        let k = usize::from(c.nonblocking());
        let e = &mut eng[k];
        e.cells += 1;
        e.cycles += o.cycles;
        e.skipped += o.skipped;
        e.batched += o.batched;
        e.instructions += o.instructions;
        e.run_s += run_s[i];
        agg.merge(&o.stats);
        high_water = high_water.max(o.stats.wb_detail.high_water);
        headroom_min = headroom_min.min(o.stats.wb_detail.headroom(c.cfg.write_buffer.depth));
        let (core, mem) = layer_estimate(o, &t.costs);
        core_s += core;
        mem_s += mem;
    }
    if headroom_min == u64::MAX {
        headroom_min = 0;
    }

    report.metric(
        "trace.gen_mops_per_s",
        ratio(t.gen_instructions as f64 * 1e-6, stream_total),
        "Minstr/s",
    );
    report.metric("trace.gen_share", ratio(stream_total, cell_total), "ratio");
    for (k, m) in ["blocking", "nonblocking"].iter().enumerate() {
        let e = eng[k];
        let stepped = e.cycles - e.skipped - e.batched;
        println!(
            "sim.{m}.counts cells={} cycles={} stepped={} skipped={} batched={} instructions={}",
            e.cells, e.cycles, stepped, e.skipped, e.batched, e.instructions
        );
        report.metric(
            &format!("sim.{m}.ns_per_cycle"),
            ratio(e.run_s * 1e9, e.cycles as f64),
            "ns",
        );
        report.metric(
            &format!("sim.{m}.ns_per_instr"),
            ratio(e.run_s * 1e9, e.instructions as f64),
            "ns",
        );
        report.metric(
            &format!("sim.{m}.stepped_frac"),
            ratio(stepped as f64, e.cycles as f64),
            "ratio",
        );
        report.metric(
            &format!("sim.{m}.skipped_frac"),
            ratio(e.skipped as f64, e.cycles as f64),
            "ratio",
        );
        report.metric(
            &format!("sim.{m}.skip_ceiling_x"),
            ratio(e.cycles as f64, (e.cycles - e.skipped) as f64),
            "x",
        );
        let (ev, rf) = t.pairs[k];
        report.metric(&format!("sim.{m}.ref_over_event_x"), ratio(rf, ev), "x");
        if k == 0 {
            report.metric(
                "sim.blocking.batched_frac",
                ratio(e.batched as f64, e.cycles as f64),
                "ratio",
            );
        }
    }
    let n_ms = t.cell_ms.len();
    report.metric_pct("sim.cell_ms_p50", median(t.cell_ms), "ms", n_ms);
    report.metric_pct("sim.cell_ms_p99", percentile(t.cell_ms, 99.0), "ms", n_ms);
    report.metric(
        "sim.observer.histogram_x",
        ratio(t.observed_s.0, t.observed_s.1),
        "x",
    );
    let instr = agg.instructions as f64;
    report.metric("sim.cpi", ratio(agg.cycles as f64, instr), "cycles/instr");
    report.metric(
        "sim.stall_cpi.buffer_full",
        ratio(agg.stalls.get(StallKind::BufferFull) as f64, instr),
        "cycles/instr",
    );
    report.metric(
        "sim.stall_cpi.l2_read",
        ratio(agg.stalls.get(StallKind::L2ReadAccess) as f64, instr),
        "cycles/instr",
    );
    report.metric(
        "sim.stall_cpi.load_hazard",
        ratio(agg.stalls.get(StallKind::LoadHazard) as f64, instr),
        "cycles/instr",
    );
    report.metric("core.wb.store_ns", t.costs.store_ns, "ns");
    report.metric("core.wb.probe_ns", t.costs.probe_ns, "ns");
    report.metric("core.wb.retire_ns", t.costs.retire_ns, "ns");
    report.metric(
        "core.wb.merge_frac",
        ratio(agg.wb_store_merges as f64, agg.stores as f64),
        "ratio",
    );
    report.metric("core.wb.high_water", high_water as f64, "entries");
    report.metric("core.wb.headroom_min", headroom_min as f64, "entries");
    report.metric("mem.l1.probe_ns", t.costs.l1_ns, "ns");
    report.metric("mem.l2.read_ns", t.costs.l2_ns, "ns");
    report.metric(
        "mem.l1.hit_frac",
        ratio(agg.l1_load_hits as f64, agg.loads as f64),
        "ratio",
    );
    report.metric(
        "mem.l2.hit_frac",
        if agg.l2_reads == 0 {
            0.0
        } else {
            1.0 - ratio(agg.l2_read_misses as f64, agg.l2_reads as f64)
        },
        "ratio",
    );
    report.metric(
        "experiments.pool.efficiency",
        ratio(cell_total, POOL as f64 * t.wall_s),
        "ratio",
    );

    // The accounting rule: trace + core + mem + residual = cell time.
    let residual = cell_total - stream_total - core_s - mem_s;
    println!(
        "layer accounting (cell host time {cell_total:.4} s = trace + core + mem + residual):"
    );
    for (name, s) in [
        ("trace", stream_total),
        ("core", core_s),
        ("mem", mem_s),
        ("residual", residual),
    ] {
        println!(
            "  {name:<9} {s:>10.4} s {:>8.2} %",
            100.0 * ratio(s, cell_total)
        );
    }
    report.metric("core.share", ratio(core_s, cell_total), "ratio");
    report.metric("mem.share", ratio(mem_s, cell_total), "ratio");
    report.metric("sim.residual_share", ratio(residual, cell_total), "ratio");
}
