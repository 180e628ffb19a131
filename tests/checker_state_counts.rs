//! Pinned state-space sizes for the model checkers.
//!
//! The fast-engine work (event-driven time skipping, the op fast lane,
//! the bitset buffer) must not change machine *behavior* — and the most
//! sensitive aggregate fingerprint of behavior we have is the size of the
//! reachable abstract state graph: `states` and `edges` change if any
//! transition is added, lost, or re-timed, and `sccs` changes if drain
//! progress changes. These exact counts were recorded from the reference
//! cycle-stepped engine before the event-driven engine landed; the
//! checkers drive the machine through the same single-step entry points
//! regardless of the configured engine, so any drift here means the
//! machine's transition relation itself moved.
//!
//! If a *deliberate* semantic change (a new policy, a timing fix) moves
//! these numbers, re-record them in the same way these were:
//! `check_reach_config` on each configuration below, and note the change
//! in the commit message — these pins are a tripwire, not a freeze.

use proptest::prelude::*;

use wbsim::check::{
    builtin_library, check_exhaustive, check_props_reach_config, check_reach_config,
    check_reach_config_nonblocking, check_refine_config, check_refine_config_nonblocking,
    read_event_stream, refine_universe,
};
use wbsim::sim::Event;
use wbsim::types::config::MachineConfig;
use wbsim::types::policy::{LoadHazardPolicy, RetirementPolicy};
use wbsim::types::Addr;

fn cfg(hazard: LoadHazardPolicy, depth: usize, hw: usize) -> MachineConfig {
    let mut cfg = MachineConfig::baseline();
    cfg.write_buffer.depth = depth;
    cfg.write_buffer.retirement = RetirementPolicy::RetireAt(hw);
    cfg.write_buffer.hazard = hazard;
    cfg
}

/// Per-config (states, edges, sccs) of the unbounded reachability
/// exploration, pinned at the boundary configurations the bounded grid is
/// built from: every hazard policy at depth 1, mid-depth with headroom,
/// and retire-at == depth.
#[test]
fn reach_per_config_state_counts_are_pinned() {
    use LoadHazardPolicy::{FlushFull, FlushItemOnly, FlushPartial, ReadFromWb};
    // The value-blind, time-shifted abstract quotient collapses the three
    // flush flavors onto the same graph (they differ in *which entries*
    // flush, which line renaming then canonicalizes away at these tiny
    // depths); read-from-WB alone adds forwarding transitions at depth 1.
    type Pin = (LoadHazardPolicy, usize, usize, (u64, u64, u64));
    let pins: &[Pin] = &[
        (FlushFull, 1, 1, (35, 280, 51)),
        (FlushFull, 4, 2, (627, 5016, 843)),
        (FlushFull, 4, 4, (51, 408, 339)),
        (FlushPartial, 1, 1, (35, 280, 51)),
        (FlushPartial, 4, 2, (627, 5016, 843)),
        (FlushPartial, 4, 4, (51, 408, 339)),
        (FlushItemOnly, 1, 1, (35, 280, 51)),
        (FlushItemOnly, 4, 2, (627, 5016, 843)),
        (FlushItemOnly, 4, 4, (51, 408, 339)),
        (ReadFromWb, 1, 1, (43, 344, 51)),
        (ReadFromWb, 4, 2, (627, 5016, 843)),
        (ReadFromWb, 4, 4, (51, 408, 339)),
    ];
    for &(hazard, depth, hw, expect) in pins {
        let s = check_reach_config(&cfg(hazard, depth, hw))
            .unwrap_or_else(|v| panic!("clean config violated: {}", v.diagnostic.render()));
        assert_eq!(
            (s.states, s.edges, s.sccs),
            expect,
            "reach counts moved for ({hazard:?}, depth {depth}, retire-at {hw})"
        );
    }
}

/// The non-blocking machine's reach counts, pinned across MSHR counts.
/// MSHR capacity saturates at 2 on this bounded universe (two lines can
/// miss concurrently at most), so 2 and 4 share a graph — itself a pinned
/// fact.
#[test]
fn reach_nonblocking_state_counts_are_pinned() {
    let nb = cfg(LoadHazardPolicy::ReadFromWb, 2, 1);
    for (mshrs, expect) in [
        (1usize, (897u64, 7176u64, 1101u64)),
        (2, (1109, 8872, 1366)),
        (4, (1109, 8872, 1366)),
    ] {
        let s = check_reach_config_nonblocking(&nb, mshrs)
            .unwrap_or_else(|v| panic!("clean nb config violated: {}", v.diagnostic.render()));
        assert_eq!(
            (s.states, s.edges, s.sccs),
            expect,
            "nb reach counts moved at {mshrs} MSHRs"
        );
    }
}

/// Per-config (states, edges) of the cross-engine refinement product,
/// pinned at the same boundary configurations as the reach pins above.
///
/// Two pinned facts, stronger together than either alone:
///
/// * the product's pair-state count equals the single-machine reach
///   state count at every configuration — since the engines agree at
///   every op, each joint abstraction collapses to a "diagonal" pair,
///   so any extra pair-state would itself witness a divergence; and
/// * `edges == states × |refine universe|` exactly — the refinement
///   universe (loads/stores + compute + barrier) is total: every op is
///   attempted from every reachable pair-state, nothing is pruned.
#[test]
fn refine_per_config_pair_state_counts_are_pinned() {
    use LoadHazardPolicy::{FlushFull, FlushItemOnly, FlushPartial, ReadFromWb};
    let universe = refine_universe(&MachineConfig::baseline()).len() as u64;
    assert_eq!(universe, 10, "8 load/store ops + compute + barrier");
    type Pin = (LoadHazardPolicy, usize, usize, (u64, u64));
    let pins: &[Pin] = &[
        (FlushFull, 1, 1, (35, 350)),
        (FlushFull, 4, 2, (627, 6270)),
        (FlushFull, 4, 4, (51, 510)),
        (FlushPartial, 1, 1, (35, 350)),
        (FlushPartial, 4, 2, (627, 6270)),
        (FlushItemOnly, 1, 1, (35, 350)),
        (ReadFromWb, 1, 1, (43, 430)),
        (ReadFromWb, 4, 2, (627, 6270)),
    ];
    for &(hazard, depth, hw, expect) in pins {
        let s = check_refine_config(&cfg(hazard, depth, hw))
            .unwrap_or_else(|v| panic!("clean config diverged: {}", v.diagnostic.render()));
        assert_eq!(
            (s.states, s.edges),
            expect,
            "refine counts moved for ({hazard:?}, depth {depth}, retire-at {hw})"
        );
        assert_eq!(s.edges, s.states * universe, "refinement universe is total");
        let reach = check_reach_config(&cfg(hazard, depth, hw)).expect("clean");
        assert_eq!(
            s.states, reach.states,
            "pair-states must stay diagonal (== reach states) while the engines agree"
        );
    }
}

/// The non-blocking refinement product across MSHR counts: same diagonal
/// collapse, and the same capacity saturation at 2 MSHRs the reach pins
/// record.
#[test]
fn refine_nonblocking_pair_state_counts_are_pinned() {
    let nb = cfg(LoadHazardPolicy::ReadFromWb, 2, 1);
    for (mshrs, expect) in [(1usize, (897u64, 8970u64)), (2, (1109, 11090)), (4, (1109, 11090))] {
        let s = check_refine_config_nonblocking(&nb, mshrs)
            .unwrap_or_else(|v| panic!("clean nb config diverged: {}", v.diagnostic.render()));
        assert_eq!(
            (s.states, s.edges),
            expect,
            "nb refine counts moved at {mshrs} MSHRs"
        );
    }
}

/// Per-config (states, edges) of the property product — the abstract
/// state graph joined with the built-in library's monitor automata —
/// pinned at the same boundary configurations as the reach pins above.
/// The monitor half of the joint key splits states the machine half
/// alone would merge, so these exceed the reach counts wherever a
/// monitor's scope is open across a state.
#[test]
fn prop_product_per_config_state_counts_are_pinned() {
    use LoadHazardPolicy::{FlushFull, FlushItemOnly, FlushPartial, ReadFromWb};
    let set = builtin_library();
    type Pin = (LoadHazardPolicy, usize, usize, (u64, u64));
    let pins: &[Pin] = &[
        (FlushFull, 1, 1, (35, 280)),
        (FlushFull, 4, 2, (774, 6192)),
        (FlushFull, 4, 4, (51, 408)),
        (FlushPartial, 1, 1, (35, 280)),
        (FlushPartial, 4, 2, (774, 6192)),
        (FlushPartial, 4, 4, (57, 456)),
        (FlushItemOnly, 1, 1, (35, 280)),
        (FlushItemOnly, 4, 2, (774, 6192)),
        (FlushItemOnly, 4, 4, (57, 456)),
        (ReadFromWb, 1, 1, (44, 352)),
        (ReadFromWb, 4, 2, (1579, 12632)),
        (ReadFromWb, 4, 4, (51, 408)),
    ];
    for &(hazard, depth, hw, expect) in pins {
        let s = check_props_reach_config(&cfg(hazard, depth, hw), None, &set)
            .unwrap_or_else(|v| panic!("clean config violated: {}", v.diagnostic.render()));
        assert_eq!(
            (s.states, s.edges),
            expect,
            "prop product counts moved for ({hazard:?}, depth {depth}, retire-at {hw})"
        );
    }
    let nb = cfg(LoadHazardPolicy::ReadFromWb, 2, 1);
    for (mshrs, expect) in [
        (1usize, (1066u64, 8528u64)),
        (2, (1326, 10608)),
        (4, (1326, 10608)),
    ] {
        let s = check_props_reach_config(&nb, Some(mshrs), &set)
            .unwrap_or_else(|v| panic!("clean nb config violated: {}", v.diagnostic.render()));
        assert_eq!(
            (s.states, s.edges),
            expect,
            "nb prop product counts moved at {mshrs} MSHRs"
        );
    }
}

/// The bounded exhaustive checker's universe: 40 boundary configurations,
/// and the exact sequence/run counts at `--max-ops 4`. These are
/// enumeration-shape pins (they move only if the bounded universe or the
/// grid itself is edited), completing the fingerprint: the grid the reach
/// pins above sample from is itself unchanged.
#[test]
fn bounded_checker_universe_is_pinned() {
    let report = check_exhaustive(4, None).expect("clean grid has no counterexample");
    assert_eq!(report.configs, 40);
    assert_eq!(report.sequences, 4680);
    assert_eq!(report.runs, 187_200);
}

proptest! {
    /// The hardened counterexample reader shared by `trace diff` and the
    /// refinement replay path: arbitrary byte junk never panics it, and
    /// every rejection is one of the two pinned reader codes with the
    /// offending line in the field path.
    #[test]
    fn counterexample_reader_rejects_junk_without_panicking(
        junk in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&junk).into_owned();
        if let Err(d) = read_event_stream("fuzz.jsonl", &text) {
            prop_assert!(d.code == "REF001" || d.code == "REF002", "code {}", d.code);
            prop_assert!(d.field_path.starts_with("fuzz.jsonl:"), "{}", d.field_path);
        }
    }

    /// Serialized events decode back; any proper prefix of a line (a
    /// trace write cut short) is rejected at that line, never panicking.
    #[test]
    fn counterexample_reader_roundtrips_and_rejects_truncations(
        now in any::<u64>(),
        addr in any::<u64>(),
        merged in any::<bool>(),
        cut in 1usize..1000,
    ) {
        let ev = Event::StoreAccepted { now, addr: Addr::new(addr), merged };
        let line = ev.to_json();
        let events = read_event_stream("ok.jsonl", &format!("{line}\n{line}\n"))
            .expect("valid stream");
        prop_assert_eq!(events.len(), 2);
        let cut = 1 + cut % (line.len() - 1);
        let d = read_event_stream("cut.jsonl", &format!("{line}\n{}\n", &line[..cut]))
            .expect_err("truncated line");
        prop_assert!(d.code == "REF001" || d.code == "REF002", "code {}", d.code);
        prop_assert_eq!(d.field_path.as_str(), "cut.jsonl:2");
    }

    /// A syntactically fine object whose `event` tag is not a known
    /// variant is an undecodable event (REF002), not a JSON error.
    #[test]
    fn counterexample_reader_rejects_mangled_tags(
        raw in proptest::collection::vec(0u8..27, 1..16),
    ) {
        let tag: String = raw
            .iter()
            .map(|&i| if i == 26 { '_' } else { (b'a' + i) as char })
            .collect();
        // The `zz` prefix keeps the tag disjoint from every real variant.
        let text = format!("{{\"event\":\"zz{tag}\",\"now\":1}}\n");
        let d = read_event_stream("tag.jsonl", &text).expect_err("unknown tag");
        prop_assert_eq!(d.code, "REF002");
        prop_assert_eq!(d.field_path.as_str(), "tag.jsonl:1");
    }
}
