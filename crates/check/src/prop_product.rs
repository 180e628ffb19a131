//! Unbounded property verification: the product of the monitor automata
//! with the abstract state graph.
//!
//! [`crate::reach`] proves its built-in invariants for op sequences of
//! *any* length by exploring the canonical abstract quotient to closure.
//! This module runs the same exploration with a compiled [`Monitors`]
//! bundle riding along: each BFS node carries the joint (abstract machine
//! state, monitor state) pair, so a `.wbp` property is proved for
//! unbounded op sequences, not just the bounded enumeration.
//!
//! * **Safety** properties violate when a monitor flags an event on any
//!   transition (op expansion or drain walk) — the path through the BFS
//!   tree is the witness, minimized and packaged exactly like a bounded
//!   counterexample.
//! * **Liveness** properties violate when a state is reachable whose fair
//!   drain schedule terminates or cycles with a monitor obligation still
//!   pending: from there, no continuation ever discharges it.
//!
//! The joint visited key must canonicalize the two halves *together*: the
//! abstract state is canonical under a line swap, and a `for_each addr`
//! monitor's window set must be renamed by the *same* swap, or two
//! incompatible permutations could be glued into one key. The key is
//! therefore the packed machine key with the encoded monitor key appended
//! under each of the two permutations (identity, swapped), and the smaller
//! of the two — see `abstract_state::StateKey` and [`Monitors::key`].

use wbsim_sim::{Event, Machine, NonBlockingMachine, Observer, SimMachine};
use wbsim_types::addr::{Geometry, LineAddr};
use wbsim_types::config::MachineConfig;
use wbsim_types::divergence::FaultInjection;
use wbsim_types::op::Op;

use crate::abstract_state::{ShadowTracker, StateKey};
use crate::bounded::{blocking_grid, build, check_grid, mshr_grid, op_universe, unchecked, Point};
use crate::explore::{explore, fork, DrainMemo, Edge, Explored};
use crate::prop::{
    compile, pending_violation_of, prop_counterexample, violation_of, PropEnv, PropViolation,
};
use crate::prop_automaton::{MonViolation, Monitors};
use crate::prop_parse::PropSet;
use crate::reach::{
    gate, probe, universe_lines, ReachViolation, DRAIN_WALK_BOUND, OP_CYCLE_BUDGET,
};

/// Per-configuration product statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropConfigStats {
    /// Distinct joint (abstract state, monitor key) pairs visited.
    pub states: u64,
    /// Completed `state × op` transitions.
    pub edges: u64,
}

/// A grid-level product report, mirroring [`crate::CheckReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropReport {
    /// Properties in the checked set (including ones skipped per
    /// environment).
    pub properties: u64,
    /// Configurations explored.
    pub configs: u64,
    /// Joint product states visited, summed over the grid.
    pub states_explored: u64,
    /// Completed transitions, summed over the grid.
    pub edges: u64,
    /// Wall-clock time for the whole grid.
    pub wall_ms: u64,
}

impl PropReport {
    /// Renders as a JSON object with a fixed key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"properties\":{},\"configs\":{},\"states\":{},\"edges\":{},\"wall_ms\":{}}}",
            self.properties, self.configs, self.states_explored, self.edges, self.wall_ms
        )
    }
}

/// Writes the joint visited key of a product state into `k`: the packed
/// abstract state followed by the monitor key under the *same* line
/// permutation.
fn joint_key<M: SimMachine>(g: &Geometry, lines: &[LineAddr; 2], s: &PState<M>, k: &mut StateKey) {
    k.push(g, &s.machine.snapshot(lines), &s.shadow);
    let swap_mask = u64::from(g.line_bytes());
    k.push_with(|out, swapped| s.mons.key(swapped.then_some(swap_mask)).encode(out));
}

/// Steps the monitors on every event, latching the first violation, and
/// maintains the shadow map when given one (the abstraction needs it; the
/// reach checker's own invariants are *not* re-checked here — that is
/// [`crate::check_reach_jobs`]'s job). Drain walks need no shadow map: no
/// store can occur.
struct MonitorObserver<'a> {
    g: Geometry,
    shadow: Option<&'a mut ShadowTracker>,
    mons: &'a mut Monitors,
    violation: Option<MonViolation>,
}

impl Observer for MonitorObserver<'_> {
    fn event(&mut self, ev: &Event) {
        if let (Event::StoreAccepted { addr, .. }, Some(shadow)) = (ev, &mut self.shadow) {
            shadow.record_store(self.g.word_addr(*addr));
        }
        if let Some(v) = self.mons.step(ev) {
            self.violation.get_or_insert(v);
        }
    }
}

/// A product state: the concrete representative, its shadow map, and the
/// monitor bundle as of this state.
struct PState<M> {
    machine: M,
    shadow: ShadowTracker,
    mons: Monitors,
}

wbsim_types::clone_fields!(impl<M> PState<M> { machine, shadow, mons });

/// Packages a property violation witnessed by `ops` as a reach-style
/// violation: minimized, with a replayable trace, diagnosed `PRP100` or
/// `PRP101`.
fn prop_reach_violation<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    set: &PropSet,
    ops: &[Op],
    fallback: &PropViolation,
) -> Box<ReachViolation> {
    let (violation, ce) = prop_counterexample::<M>(cfg, mshrs, set, ops, fallback);
    ReachViolation::with(violation.diagnostic(), ce)
}

/// Walks the fair drain schedule from `m` under the monitors. Returns the
/// first property violation on the walk: a safety event, or — when the
/// walk terminates, closes a joint cycle, or exceeds its bound — a still
/// pending liveness obligation (nothing past that point can discharge
/// it). Clean and liveness verdicts are memoized by joint key; the walk
/// is deterministic and both halves of the key are canonical under the
/// same renaming, so the verdict is path-independent.
fn drain_walk<M: SimMachine>(
    s: &PState<M>,
    g: &Geometry,
    lines: &[LineAddr; 2],
    memo: &mut DrainMemo<Option<PropViolation>, PState<M>>,
) -> Option<PropViolation> {
    let DrainMemo {
        verdicts,
        walker,
        key,
    } = memo;
    let w = fork(walker, s);
    let mut path: Vec<Box<[u8]>> = Vec::new();
    let verdict = loop {
        key.clear();
        joint_key(g, lines, w, key);
        let k = key.canonical();
        if let Some(v) = verdicts.get(k) {
            break v.clone();
        }
        if path.iter().any(|p| **p == *k) || path.len() > DRAIN_WALK_BOUND {
            break pending_violation_of(&w.mons);
        }
        path.push(k.into());
        let mut obs = MonitorObserver {
            g: *g,
            shadow: None,
            mons: &mut w.mons,
            violation: None,
        };
        let stepped = w.machine.drain_step(&mut obs);
        if let Some(v) = obs.violation {
            // A safety event mid-drain. Its detail is position-specific,
            // so return without memoizing the path.
            return Some(violation_of(&w.mons, &v));
        }
        if !stepped {
            break pending_violation_of(&w.mons);
        }
    };
    for k in path {
        verdicts.insert(k, verdict.clone());
    }
    verdict
}

/// Explores the product of one configuration's abstract state graph with
/// the monitor automata on machine `M`, to closure. Returns `Ok(None)`
/// only when `abort` fired.
fn explore_props<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    set: &PropSet,
    abort: &dyn Fn() -> bool,
) -> Result<Option<Explored>, Box<ReachViolation>> {
    gate(cfg).map_err(ReachViolation::bare)?;
    let cfg = &unchecked(cfg);
    let (mons, _) = compile(set, &PropEnv::of_point(cfg, mshrs));
    if mons.is_empty() {
        return Ok(Some(Explored::default()));
    }
    let g = cfg.geometry;
    let lines = universe_lines(cfg);
    let root = PState::<M> {
        machine: build(cfg, mshrs),
        shadow: ShadowTracker::default(),
        mons,
    };
    let mut drain_memo = DrainMemo::default();
    explore(
        root,
        &op_universe(cfg),
        abort,
        |s, k| joint_key(&g, &lines, s, k),
        |s, op| {
            let mut obs = MonitorObserver {
                g,
                shadow: Some(&mut s.shadow),
                mons: &mut s.mons,
                violation: None,
            };
            let completed = s
                .machine
                .run_op_bounded(op, OP_CYCLE_BUDGET, &mut obs)
                .is_some();
            if !completed {
                // The op wedged. Monitors keep watching through the probe
                // window; if an obligation is still pending afterwards,
                // this (stuck) branch can never discharge it. A wedge with
                // no pending obligation is not a *property* failure — the
                // reach checker diagnoses the livelock itself.
                probe(&mut s.machine, &mut obs);
            }
            if let Some(v) = obs.violation {
                return Err(violation_of(&s.mons, &v));
            }
            if completed {
                return Ok(Edge::To);
            }
            pending_violation_of(&s.mons).map_or(Ok(Edge::Pruned), Err)
        },
        |s| drain_walk(s, &g, &lines, &mut drain_memo).map_or(Ok(()), Err),
    )
    .map_err(|(ops, pv)| prop_reach_violation::<M>(cfg, mshrs, set, &ops, &pv))
}

/// Verifies a property set unboundedly over one configuration — on the
/// non-blocking machine with `mshrs` registers, or on the blocking
/// machine for `None`: every property holds on *every* op sequence, of
/// any length, or a minimized counterexample comes back.
///
/// # Errors
///
/// [`ReachViolation`] with `PRP100` (safety), `PRP101` (liveness), or
/// `RCH003` (the configuration is outside the abstractable class).
///
/// # Panics
///
/// Panics if the machine rejects `cfg`/`mshrs`.
pub fn check_props_reach_config(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    set: &PropSet,
) -> Result<PropConfigStats, Box<ReachViolation>> {
    let explored = match mshrs {
        None => explore_props::<Machine>(cfg, mshrs, set, &|| false),
        Some(_) => explore_props::<NonBlockingMachine>(cfg, mshrs, set, &|| false),
    }?
    .expect("no abort requested");
    Ok(PropConfigStats {
        states: explored.states,
        edges: explored.edges,
    })
}

/// Verifies a property set over the whole bounded configuration grid
/// (the same 40 configurations as [`crate::check_reach_jobs`]) with `jobs`
/// worker threads; like the other grid drivers the result is identical
/// for every `jobs` value (only `wall_ms` varies).
///
/// # Errors
///
/// The first violating configuration's [`ReachViolation`], in
/// configuration order.
pub fn check_props_reach_jobs(
    set: &PropSet,
    fault: Option<FaultInjection>,
    jobs: usize,
) -> Result<PropReport, Box<ReachViolation>> {
    props_grid::<Machine>(set, &blocking_grid(fault), jobs)
}

/// [`check_props_reach_jobs`] over the non-blocking grid
/// ([`crate::nonblocking_configs`]).
///
/// # Errors
///
/// The first violating configuration's [`ReachViolation`], in
/// configuration order.
pub fn check_props_reach_nonblocking_jobs(
    set: &PropSet,
    fault: Option<FaultInjection>,
    mshrs: Option<usize>,
    jobs: usize,
) -> Result<PropReport, Box<ReachViolation>> {
    props_grid::<NonBlockingMachine>(set, &mshr_grid(fault, mshrs), jobs)
}

fn props_grid<M: SimMachine>(
    set: &PropSet,
    points: &[Point],
    jobs: usize,
) -> Result<PropReport, Box<ReachViolation>> {
    let report = check_grid(points, jobs, |cfg, mshrs, abort| {
        explore_props::<M>(cfg, mshrs, set, abort)
    })?;
    Ok(PropReport {
        properties: set.props.len() as u64,
        configs: report.configs,
        states_explored: report.states_explored,
        edges: report.edges,
        wall_ms: report.wall_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_jobs;
    use crate::prop::builtin_library;
    use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};

    fn grid_cfg(depth: usize, hw: usize, hazard: LoadHazardPolicy) -> MachineConfig {
        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.depth = depth;
        cfg.write_buffer.retirement = RetirementPolicy::RetireAt(hw);
        cfg.write_buffer.hazard = hazard;
        cfg.check_data = false;
        cfg
    }

    #[test]
    fn library_is_clean_on_a_sample_config_unboundedly() {
        let set = builtin_library();
        let cfg = grid_cfg(2, 1, LoadHazardPolicy::ReadFromWb);
        let stats = check_props_reach_config(&cfg, None, &set).expect("library holds");
        assert!(stats.states > 1);
        assert!(stats.edges >= stats.states - 1);
    }

    #[test]
    fn library_is_clean_on_both_grids() {
        let set = builtin_library();
        let report = check_props_reach_jobs(&set, None, default_jobs())
            .expect("library holds on the blocking grid");
        assert_eq!(report.configs, 40);
        assert_eq!(report.properties, 6);
        assert!(report.states_explored > 0);
        let report = check_props_reach_nonblocking_jobs(&set, None, None, default_jobs())
            .expect("library holds on the non-blocking grid");
        assert_eq!(report.configs, 40);
    }

    #[test]
    fn starved_retirement_is_caught_by_eventual_drain() {
        let set = builtin_library();
        let v =
            check_props_reach_jobs(&set, Some(FaultInjection::StarveRetirement), default_jobs())
                .expect_err("a starved buffer cannot drain");
        assert_eq!(v.diagnostic.code, "PRP101");
        assert!(v.diagnostic.message.contains("eventual-drain"));
        let ce = v
            .counterexample
            .expect("liveness violations carry a witness");
        assert_eq!(ce.ops.len(), 1, "one store suffices");
        assert!(!ce.trace.iter().any(|l| l.contains("retire-complete")));
    }

    #[test]
    fn skipped_forwarding_is_caught_by_no_stale_forward() {
        let set = builtin_library();
        let v =
            check_props_reach_jobs(&set, Some(FaultInjection::SkipWbForwarding), default_jobs())
                .expect_err("stale fills violate the forwarding window");
        assert_eq!(v.diagnostic.code, "PRP100");
        assert!(v.diagnostic.message.contains("no-stale-forward"));
        let ce = v.counterexample.expect("safety violations carry a witness");
        assert!(
            ce.trace.iter().any(|l| l.contains("l2-fill")),
            "the witness trace contains the stale fill"
        );
    }

    #[test]
    fn empty_property_set_is_trivially_clean() {
        let set = PropSet::default();
        let cfg = grid_cfg(1, 1, LoadHazardPolicy::FlushFull);
        let stats = check_props_reach_config(&cfg, None, &set).expect("nothing to violate");
        assert_eq!(stats, PropConfigStats::default());
    }

    #[test]
    fn out_of_class_config_is_rejected_with_rch003() {
        let set = builtin_library();
        let mut cfg = grid_cfg(2, 1, LoadHazardPolicy::ReadFromWb);
        cfg.write_buffer.order = wbsim_types::policy::RetirementOrder::Lru;
        let v = check_props_reach_config(&cfg, None, &set).expect_err("LRU is outside the class");
        assert_eq!(v.diagnostic.code, "RCH003");
    }
}
