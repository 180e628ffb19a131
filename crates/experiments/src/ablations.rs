//! Ablation experiments for the design alternatives the paper discusses
//! but does not sweep (§1, §2.2, §4.3).
//!
//! Each ablation compares the relevant alternative against the matching
//! paper configuration on the full suite and returns a [`FigureResult`]
//! whose columns are the alternatives.

use wbsim_core::presets;
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_types::config::L1Config;
use wbsim_types::config::{IcacheConfig, MachineConfig, WriteBufferConfig};
use wbsim_types::policy::{
    DatapathWidth, L1WritePolicy, L2Priority, LoadHazardPolicy, RetirementPolicy,
};

use crate::harness::{pool_cells_jobs, FigureResult, Harness};

fn with_wb(wb: WriteBufferConfig) -> MachineConfig {
    MachineConfig {
        write_buffer: wb,
        ..MachineConfig::baseline()
    }
}

/// Occupancy-based vs Jouppi's fixed-rate retirement (§2.2: occupancy
/// "should always perform better").
#[must_use]
pub fn retirement_mechanism(h: &Harness) -> FigureResult {
    let mk = |p| {
        with_wb(WriteBufferConfig {
            depth: 8,
            retirement: p,
            ..WriteBufferConfig::baseline()
        })
    };
    let configs = vec![
        ("retire-at-2".to_string(), mk(RetirementPolicy::RetireAt(2))),
        // A fixed rate fast enough to avoid overflow retires too eagerly
        // to coalesce; a slow one overflows (Jouppi's dilemma).
        (
            "fixed-rate-8".to_string(),
            mk(RetirementPolicy::FixedRate(8)),
        ),
        (
            "fixed-rate-32".to_string(),
            mk(RetirementPolicy::FixedRate(32)),
        ),
    ];
    h.sweep(
        "Ablation A1",
        "Occupancy-based vs fixed-rate retirement (8-deep, flush-full)",
        &BenchmarkModel::ALL,
        &configs,
    )
}

/// The Alphas' max-age timer on top of retire-at-2 (§2.2).
#[must_use]
pub fn max_age(h: &Harness) -> FigureResult {
    let configs = vec![
        ("no-timer".to_string(), MachineConfig::baseline()),
        (
            "age-256 (21064)".to_string(),
            with_wb(presets::alpha_21064()),
        ),
        (
            "age-64 (21164-style)".to_string(),
            with_wb(WriteBufferConfig {
                max_age: Some(64),
                ..WriteBufferConfig::baseline()
            }),
        ),
    ];
    h.sweep(
        "Ablation A2",
        "Max-age retirement timers (baseline otherwise)",
        &BenchmarkModel::ALL,
        &configs,
    )
}

/// Coalescing vs non-coalescing entries (Table 2's width 1).
#[must_use]
pub fn coalescing(h: &Harness) -> FigureResult {
    let configs = vec![
        ("coalescing 4-deep".to_string(), MachineConfig::baseline()),
        (
            "non-coalescing 4-deep".to_string(),
            with_wb(presets::non_coalescing(4)),
        ),
        (
            "non-coalescing 16-deep".to_string(),
            with_wb(presets::non_coalescing(16)),
        ),
    ];
    h.sweep(
        "Ablation A3",
        "Coalescing vs non-coalescing write buffers",
        &BenchmarkModel::ALL,
        &configs,
    )
}

/// A coalescing buffer vs Jouppi's write cache (§1).
#[must_use]
pub fn write_cache(h: &Harness) -> FigureResult {
    let configs = vec![
        (
            "write buffer 8-deep".to_string(),
            with_wb(WriteBufferConfig {
                depth: 8,
                ..WriteBufferConfig::baseline()
            }),
        ),
        (
            "write cache 8-entry".to_string(),
            with_wb(presets::write_cache(8)),
        ),
        (
            "recommended (12, ra8, rfWB)".to_string(),
            with_wb(presets::paper_recommended()),
        ),
    ];
    h.sweep(
        "Ablation A4",
        "Write buffer vs write cache vs the paper's recommended configuration",
        &BenchmarkModel::ALL,
        &configs,
    )
}

/// Pure read-bypassing vs the UltraSPARC's write-priority-when-full (§2.2).
#[must_use]
pub fn l2_priority(h: &Harness) -> FigureResult {
    let mk = |p| {
        with_wb(WriteBufferConfig {
            depth: 8,
            priority: p,
            ..WriteBufferConfig::baseline()
        })
    };
    let configs = vec![
        ("read-bypass".to_string(), mk(L2Priority::ReadBypass)),
        (
            "write-priority-above-6".to_string(),
            mk(L2Priority::WritePriorityAbove(6)),
        ),
    ];
    h.sweep(
        "Ablation A5",
        "L2 arbitration: read-bypassing vs UltraSPARC-style write priority (8-deep)",
        &BenchmarkModel::ALL,
        &configs,
    )
}

/// Full-line vs half-line datapaths (§4.3: "narrower datapaths mean that
/// write buffer retirements and flushes take longer, increasing all three
/// types of stalls").
#[must_use]
pub fn datapath(h: &Harness) -> FigureResult {
    let mk = |d| {
        with_wb(WriteBufferConfig {
            datapath: d,
            ..WriteBufferConfig::baseline()
        })
    };
    let configs = vec![
        ("full-line".to_string(), mk(DatapathWidth::FullLine)),
        ("half-line".to_string(), mk(DatapathWidth::HalfLine)),
    ];
    h.sweep(
        "Ablation A6",
        "Datapath width between write buffer and L2",
        &BenchmarkModel::ALL,
        &configs,
    )
}

/// Perfect vs statistical finite I-cache (§4.3's L2-I-fetch contention).
#[must_use]
pub fn icache(h: &Harness) -> FigureResult {
    let mk = |ic| MachineConfig {
        icache: ic,
        ..MachineConfig::baseline()
    };
    let configs = vec![
        ("perfect".to_string(), mk(IcacheConfig::Perfect)),
        (
            "miss-every-200".to_string(),
            mk(IcacheConfig::MissEvery { interval: 200 }),
        ),
        (
            "miss-every-50".to_string(),
            mk(IcacheConfig::MissEvery { interval: 50 }),
        ),
    ];
    h.sweep(
        "Ablation A7",
        "Perfect vs finite instruction cache (L2-I-fetch contention)",
        &BenchmarkModel::ALL,
        &configs,
    )
}

/// Hazard-policy × retirement interaction on the recommended read-from-WB
/// design (§3.5's conclusion that lazier retirement helps *only* with
/// read-from-WB).
#[must_use]
pub fn lazy_read_from_wb(h: &Harness) -> FigureResult {
    let mk = |retire_at| {
        with_wb(WriteBufferConfig {
            depth: 12,
            retirement: RetirementPolicy::RetireAt(retire_at),
            hazard: LoadHazardPolicy::ReadFromWb,
            ..WriteBufferConfig::baseline()
        })
    };
    let configs = vec![
        ("retire-at-2".to_string(), mk(2)),
        ("retire-at-4".to_string(), mk(4)),
        ("retire-at-8".to_string(), mk(8)),
    ];
    h.sweep(
        "Ablation A8",
        "Lazier retirement under read-from-WB (12-deep)",
        &BenchmarkModel::ALL,
        &configs,
    )
}

/// Issue width (§4.3: "as issue width increases, store density increases.
/// Write-buffer-induced stalls rise as a result").
#[must_use]
pub fn issue_width(h: &Harness) -> FigureResult {
    let mk = |w| MachineConfig {
        issue_width: w,
        ..MachineConfig::baseline()
    };
    let configs = vec![
        ("1-wide".to_string(), mk(1)),
        ("2-wide".to_string(), mk(2)),
        ("4-wide (21164-class)".to_string(), mk(4)),
    ];
    h.sweep(
        "Ablation A9",
        "Issue width under the baseline write buffer",
        &BenchmarkModel::ALL,
        &configs,
    )
}

/// Write-barrier cost on the baseline vs the recommended buffer (§2.2's
/// ordering instructions, exercised at several cadences). Uses a
/// store-heavy subset; barrier stalls are reported via
/// `stats.barrier_stall_cycles`, outside the three-way taxonomy, so this
/// figure's bars show the *structural* stalls barriers add indirectly.
#[must_use]
pub fn barriers(h: &Harness) -> FigureResult {
    use wbsim_sim::Machine;
    use wbsim_trace::transform::with_barriers;

    let benches = [
        BenchmarkModel::Sc,
        BenchmarkModel::Li,
        BenchmarkModel::Fft,
        BenchmarkModel::Wave5,
    ];
    let configs: Vec<(String, u64)> = vec![
        ("no barriers".to_string(), 0),
        ("every 64 stores".to_string(), 64),
        ("every 16 stores".to_string(), 16),
        ("every 4 stores".to_string(), 4),
    ];
    let cells: Vec<Vec<crate::harness::StallCell>> = benches
        .iter()
        .map(|bench| {
            let base = bench.stream(h.seed, h.instructions + h.warmup);
            configs
                .iter()
                .map(|(_, every)| {
                    let ops = with_barriers(&base, *every);
                    let mut cfg = MachineConfig::baseline();
                    cfg.check_data = h.check_data;
                    let stats = Machine::new(cfg)
                        .expect("baseline is valid")
                        .run_with_warmup(ops, h.warmup);
                    crate::harness::StallCell::from_stats(&stats)
                })
                .collect()
        })
        .collect();
    FigureResult {
        id: "Ablation A10",
        title: "Write-barrier cadence on the baseline buffer (barrier stalls tracked separately)"
            .to_string(),
        benches: benches.iter().map(|b| b.name()).collect(),
        configs: configs.into_iter().map(|(l, _)| l).collect(),
        cells,
        errors: Vec::new(),
    }
}

/// Blocking vs non-blocking loads (§4.3: overlap shrinks observed load
/// stalls but raises store density and overflow pressure). Uses the
/// read-from-WB recommended buffer on both machines so only the memory
/// model differs.
#[must_use]
pub fn non_blocking(h: &Harness) -> FigureResult {
    use wbsim_core::presets;
    use wbsim_sim::{Machine, NonBlockingMachine};

    let cfg = MachineConfig {
        write_buffer: presets::paper_recommended(),
        ..MachineConfig::baseline()
    };
    let configs = ["blocking", "nb-2-mshr", "nb-8-mshr"];
    let cells = pool_cells_jobs(BenchmarkModel::ALL.len(), h.jobs, |i| {
        let ops = BenchmarkModel::ALL[i].stream(h.seed, h.instructions + h.warmup);
        let cfg = MachineConfig {
            check_data: h.check_data,
            ..cfg.clone()
        };
        let blocking = Machine::new(cfg.clone())
            .expect("valid")
            .run_with_warmup(ops.iter().copied(), h.warmup);
        let mut row = vec![crate::harness::StallCell::from_stats(&blocking)];
        for mshrs in [2usize, 8] {
            // The non-blocking engine has no warmup hook; it is
            // compared on the full stream for both machines'
            // absolute cycle counts in `stats`.
            let stats = NonBlockingMachine::new(cfg.clone(), mshrs)
                .expect("valid")
                .run(ops.iter().copied());
            row.push(crate::harness::StallCell::from_stats(&stats));
        }
        row
    });
    FigureResult {
        id: "Ablation A11",
        title: "Blocking vs non-blocking loads (12-deep, retire-at-8, read-from-WB)".to_string(),
        benches: BenchmarkModel::ALL.iter().map(|b| b.name()).collect(),
        configs: configs.iter().map(|s| s.to_string()).collect(),
        cells,
        errors: Vec::new(),
    }
}

/// L1 write policy: the paper's write-through + write buffer vs a
/// write-back L1 whose dirty victims drain through the same buffer
/// (the design question of Jouppi's cache-write-policies study that
/// motivates the paper's premise, §1).
#[must_use]
pub fn l1_write_policy(h: &Harness) -> FigureResult {
    let mk = |policy, depth| MachineConfig {
        l1: L1Config {
            write_policy: policy,
            ..L1Config::baseline()
        },
        write_buffer: WriteBufferConfig {
            depth,
            retirement: RetirementPolicy::RetireAt(2.min(depth)),
            ..WriteBufferConfig::baseline()
        },
        ..MachineConfig::baseline()
    };
    let configs = vec![
        (
            "write-through + 4-entry WB".to_string(),
            mk(L1WritePolicy::WriteThrough, 4),
        ),
        (
            "write-back + 4-entry victim buffer".to_string(),
            mk(L1WritePolicy::WriteBack, 4),
        ),
        (
            "write-back + 1-entry victim buffer".to_string(),
            mk(L1WritePolicy::WriteBack, 1),
        ),
    ];
    h.sweep(
        "Ablation A12",
        "L1 write policy: write-through (the paper's premise) vs write-back",
        &BenchmarkModel::ALL,
        &configs,
    )
}

/// One ablation: its id, its alias, and the experiment.
#[derive(Debug)]
pub struct Ablation {
    /// `a1` … `a12`, in figure order.
    pub id: &'static str,
    /// The name `by_name` also accepts.
    pub alias: &'static str,
    /// Runs the ablation.
    pub run: fn(&Harness) -> FigureResult,
}

/// Every ablation, in figure order.
#[rustfmt::skip]
pub static ABLATIONS: [Ablation; 12] = [
    Ablation { id: "a1", alias: "retirement", run: retirement_mechanism },
    Ablation { id: "a2", alias: "max-age", run: max_age },
    Ablation { id: "a3", alias: "coalescing", run: coalescing },
    Ablation { id: "a4", alias: "write-cache", run: write_cache },
    Ablation { id: "a5", alias: "priority", run: l2_priority },
    Ablation { id: "a6", alias: "datapath", run: datapath },
    Ablation { id: "a7", alias: "icache", run: icache },
    Ablation { id: "a8", alias: "lazy-rfwb", run: lazy_read_from_wb },
    Ablation { id: "a9", alias: "issue-width", run: issue_width },
    Ablation { id: "a10", alias: "barriers", run: barriers },
    Ablation { id: "a11", alias: "non-blocking", run: non_blocking },
    Ablation { id: "a12", alias: "l1-write-policy", run: l1_write_policy },
];

/// Every ablation, for `wbsim ablation all`.
#[must_use]
pub fn all(h: &Harness) -> Vec<FigureResult> {
    ABLATIONS.iter().map(|a| (a.run)(h)).collect()
}

/// Looks an ablation up by id or alias, in any case ([`ABLATIONS`]).
#[must_use]
pub fn by_name(h: &Harness, name: &str) -> Option<FigureResult> {
    let name = name.to_ascii_lowercase();
    let a = ABLATIONS.iter().find(|a| a.id == name || a.alias == name)?;
    Some((a.run)(h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Harness {
        Harness {
            instructions: 4_000,
            warmup: 0,
            seed: 9,
            check_data: true,
            ..Harness::standard()
        }
    }

    #[test]
    fn by_name_resolves_all() {
        let h = tiny();
        for n in [
            "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10", "a11", "a12",
        ] {
            assert!(by_name(&h, n).is_some(), "{n} must resolve");
        }
        assert!(by_name(&h, "nope").is_none());
    }

    /// The table runs `a1`, `a2`, … in figure order, so `a1..a12` in help
    /// and in errors is derived from its ends.
    #[test]
    fn ablation_ids_count_up_in_figure_order() {
        for (i, a) in ABLATIONS.iter().enumerate() {
            assert_eq!(a.id, format!("a{}", i + 1));
        }
    }

    #[test]
    fn non_coalescing_merges_less() {
        let h = Harness {
            instructions: 30_000,
            warmup: 0,
            seed: 5,
            check_data: true,
            ..Harness::standard()
        };
        let f = coalescing(&h);
        // Compare write-buffer hit rates on a store-heavy benchmark.
        let co = f.cell("sc", "coalescing 4-deep").unwrap();
        let nc = f.cell("sc", "non-coalescing 4-deep").unwrap();
        assert!(
            co.stats.wb_store_hit_rate() > nc.stats.wb_store_hit_rate() + 10.0,
            "coalescing {:.1}% vs non-coalescing {:.1}%",
            co.stats.wb_store_hit_rate(),
            nc.stats.wb_store_hit_rate()
        );
    }
}
