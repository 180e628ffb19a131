//! Model-based property tests for the write buffer: drive it with random
//! command sequences and check every public invariant against a simple
//! oracle (a map from word address to the freshest stored value).

use std::collections::HashMap;

use proptest::prelude::*;
use wbsim_core::buffer::{StoreOutcome, WriteBuffer};
use wbsim_types::addr::{Addr, Geometry, LineAddr};
use wbsim_types::config::WriteBufferConfig;
use wbsim_types::policy::{LoadHazardPolicy, RetirementOrder, RetirementPolicy};

#[derive(Debug, Clone)]
enum Cmd {
    /// Store to (line, word) — 8 lines × 4 words keeps collisions frequent.
    Store { line: u64, word: u64 },
    /// Begin retiring whatever the order picks next.
    BeginRetire,
    /// Complete the in-flight transaction, if any.
    CompleteRetire,
    /// Probe a line and check the flush plans.
    Probe { line: u64 },
    /// Read a word and compare against the oracle.
    Read { line: u64, word: u64 },
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => (0u64..8, 0u64..4).prop_map(|(line, word)| Cmd::Store { line, word }),
        2 => Just(Cmd::BeginRetire),
        2 => Just(Cmd::CompleteRetire),
        1 => (0u64..8).prop_map(|line| Cmd::Probe { line }),
        2 => (0u64..8, 0u64..4).prop_map(|(line, word)| Cmd::Read { line, word }),
    ]
}

fn addr(line: u64, word: u64) -> Addr {
    Addr::new(line * 32 + word * 8)
}

#[derive(Debug, Default)]
struct Oracle {
    /// Freshest value per word address, among words still in the buffer.
    fresh: HashMap<(u64, u64), u64>,
    /// Values that have left for L2 (removed from `fresh` when the last
    /// covering entry departs).
    departed: HashMap<(u64, u64), u64>,
}

fn run_model(cfg: &WriteBufferConfig, cmds: &[Cmd]) -> Result<(), TestCaseError> {
    let g = Geometry::alpha_baseline();
    let mut wb = WriteBuffer::new(cfg, &g).expect("valid config");
    let mut oracle = Oracle::default();
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut in_flight: Option<u64> = None;

    for cmd in cmds {
        now += 1;
        match cmd {
            Cmd::Store { line, word } => {
                seq += 1;
                let before = wb.occupancy();
                let outcome = wb.store(addr(*line, *word), seq, now);
                match outcome {
                    StoreOutcome::Full => {
                        prop_assert!(wb.is_full(), "Full reported on non-full buffer");
                        prop_assert_eq!(wb.occupancy(), before);
                    }
                    StoreOutcome::Merged => {
                        prop_assert_eq!(wb.occupancy(), before);
                        oracle.fresh.insert((*line, *word), seq);
                    }
                    StoreOutcome::Allocated => {
                        prop_assert_eq!(wb.occupancy(), before + 1);
                        oracle.fresh.insert((*line, *word), seq);
                    }
                }
                prop_assert!(wb.occupancy() <= cfg.depth);
            }
            Cmd::BeginRetire => {
                if in_flight.is_none() {
                    if let Some(id) = wb.next_retirement() {
                        // FIFO order: the chosen entry is the oldest
                        // non-retiring one.
                        if cfg.order == RetirementOrder::Fifo {
                            let oldest = wb
                                .iter()
                                .find(|e| !e.retiring)
                                .map(|e| e.id)
                                .expect("next_retirement implies a candidate");
                            prop_assert_eq!(id, oldest);
                        }
                        prop_assert!(wb.begin_retire(id));
                        prop_assert!(!wb.begin_retire(id), "double begin must fail");
                        in_flight = Some(id);
                    }
                }
            }
            Cmd::CompleteRetire => {
                if let Some(id) = in_flight.take() {
                    let before = wb.occupancy();
                    let r = wb.take_retired(id).expect("in-flight entry exists");
                    let (line, mask) = (r.line, r.mask);
                    prop_assert_eq!(wb.occupancy(), before - 1);
                    // Departing words move fresh → departed unless a newer
                    // (duplicate) entry still covers them.
                    for w in mask.iter() {
                        let key = (line.as_u64(), w as u64);
                        let still_buffered = wb.read_word(addr(key.0, key.1)).is_some();
                        if !still_buffered {
                            if let Some(v) = oracle.fresh.remove(&key) {
                                oracle.departed.insert(key, v);
                            }
                        }
                    }
                }
            }
            Cmd::Probe { line } => {
                let matches = wb.probe_line(LineAddr::new(*line));
                let by_iter: Vec<_> = wb
                    .iter()
                    .filter(|e| e.block == *line) // width 4 → block == line
                    .map(|e| e.id)
                    .collect();
                prop_assert_eq!(matches.clone(), by_iter, "probe must agree with iteration");
                // Flush plans never include the retiring entry, never
                // exceed the occupancy, and flush-partial is a superset of
                // flush-item-only and a subset of flush-full.
                let l = LineAddr::new(*line);
                let plan = |policy| {
                    let mut plan = Vec::new();
                    wb.flush_plan(policy, l, &mut plan);
                    plan
                };
                let full = plan(LoadHazardPolicy::FlushFull);
                let partial = plan(LoadHazardPolicy::FlushPartial);
                let item = plan(LoadHazardPolicy::FlushItemOnly);
                let none = plan(LoadHazardPolicy::ReadFromWb);
                prop_assert!(none.is_empty());
                if matches.is_empty() {
                    prop_assert!(full.is_empty() && partial.is_empty() && item.is_empty());
                } else {
                    for id in &item {
                        prop_assert!(partial.contains(id), "item ⊆ partial");
                    }
                    for id in &partial {
                        prop_assert!(full.contains(id), "partial ⊆ full");
                    }
                    if let Some(flight) = in_flight {
                        prop_assert!(!full.contains(&flight), "retiring entry never flushed");
                    }
                }
            }
            Cmd::Read { line, word } => {
                let got = wb.read_word(addr(*line, *word));
                let expect = oracle.fresh.get(&(*line, *word)).copied();
                prop_assert_eq!(
                    got,
                    expect,
                    "read-from-WB must return the freshest buffered value"
                );
            }
        }
        // Global invariant: at most one non-retiring entry per block.
        let mut blocks: Vec<u64> = wb.iter().filter(|e| !e.retiring).map(|e| e.block).collect();
        blocks.sort_unstable();
        prop_assert!(
            blocks.windows(2).all(|w| w[0] != w[1]),
            "duplicate non-retiring entries for one block"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fifo_buffer_matches_oracle(
        depth in 1usize..=12,
        cmds in proptest::collection::vec(cmd_strategy(), 1..200),
    ) {
        let cfg = WriteBufferConfig {
            depth,
            retirement: RetirementPolicy::RetireAt(1.max(depth / 2)),
            ..WriteBufferConfig::baseline()
        };
        run_model(&cfg, &cmds)?;
    }

    #[test]
    fn lru_buffer_matches_oracle(
        depth in 1usize..=12,
        cmds in proptest::collection::vec(cmd_strategy(), 1..200),
    ) {
        let cfg = WriteBufferConfig {
            depth,
            order: RetirementOrder::Lru,
            retirement: RetirementPolicy::RetireAt(depth),
            hazard: LoadHazardPolicy::ReadFromWb,
            ..WriteBufferConfig::baseline()
        };
        run_model(&cfg, &cmds)?;
    }
}
