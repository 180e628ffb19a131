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
//! therefore `min` over the two paired permutations (identity, swapped) —
//! see `abstract_state::abstract_both` and [`Monitors::key`].

use std::collections::HashMap;

use wbsim_sim::{Event, Machine, MachineSnapshot, NonBlockingMachine, Observer, SimMachine};
use wbsim_types::addr::{Geometry, LineAddr};
use wbsim_types::config::MachineConfig;
use wbsim_types::divergence::FaultInjection;
use wbsim_types::op::Op;

use crate::abstract_state::{abstract_both, AbsState, ShadowTracker};
use crate::bounded::{blocking_grid, build, check_grid, mshr_grid, op_universe, unchecked, Point};
use crate::explore::{explore, Edge, Explored};
use crate::prop::{
    compile, pending_violation_of, prop_counterexample, violation_of, PropEnv, PropViolation,
};
use crate::prop_automaton::{MonKey, MonViolation, Monitors};
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

/// The joint visited key: canonical abstract state paired with the
/// monitor key under the *same* line permutation.
type JointKey = (AbsState, MonKey);

fn joint_key(
    g: &Geometry,
    snap: &MachineSnapshot,
    shadow: &ShadowTracker,
    mons: &Monitors,
) -> JointKey {
    let (a, b) = abstract_both(g, snap, shadow);
    let ka = mons.key(None);
    let kb = mons.key(Some(u64::from(g.line_bytes())));
    std::cmp::min((a, ka), (b, kb))
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
#[derive(Clone)]
struct PState<M> {
    machine: M,
    shadow: ShadowTracker,
    mons: Monitors,
}

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
    Box::new(ReachViolation {
        diagnostic: violation.diagnostic(),
        counterexample: Some(ce),
    })
}

/// Walks the fair drain schedule from `m` under the monitors. Returns the
/// first property violation on the walk: a safety event, or — when the
/// walk terminates, closes a joint cycle, or exceeds its bound — a still
/// pending liveness obligation (nothing past that point can discharge
/// it). Clean and liveness verdicts are memoized by joint key; the walk
/// is deterministic and both halves of the key are canonical under the
/// same renaming, so the verdict is path-independent.
fn drain_walk<M: SimMachine>(
    m: &M,
    mons: &Monitors,
    g: &Geometry,
    lines: &[LineAddr; 2],
    shadow: &ShadowTracker,
    memo: &mut HashMap<JointKey, Option<PropViolation>>,
) -> Option<PropViolation> {
    let mut m = m.clone();
    let mut mons = mons.clone();
    let mut path: Vec<JointKey> = Vec::new();
    let verdict = loop {
        let key = joint_key(g, &m.snapshot(lines.as_slice()), shadow, &mons);
        if let Some(v) = memo.get(&key) {
            break v.clone();
        }
        if path.contains(&key) || path.len() > DRAIN_WALK_BOUND {
            break pending_violation_of(&mons);
        }
        path.push(key);
        let mut obs = MonitorObserver {
            g: *g,
            shadow: None,
            mons: &mut mons,
            violation: None,
        };
        let stepped = m.drain_step(&mut obs);
        if let Some(v) = obs.violation {
            // A safety event mid-drain. Its detail is position-specific,
            // so return without memoizing the path.
            return Some(violation_of(&mons, &v));
        }
        if !stepped {
            break pending_violation_of(&mons);
        }
    };
    for k in path {
        memo.insert(k, verdict.clone());
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
    let mut drain_memo: HashMap<JointKey, Option<PropViolation>> = HashMap::new();
    explore(
        root,
        &op_universe(cfg),
        abort,
        |s| joint_key(&g, &s.machine.snapshot(&lines), &s.shadow, &s.mons),
        |s, op| {
            let mut next = s.clone();
            let mut obs = MonitorObserver {
                g,
                shadow: Some(&mut next.shadow),
                mons: &mut next.mons,
                violation: None,
            };
            let completed = next
                .machine
                .run_op_bounded(op, OP_CYCLE_BUDGET, &mut obs)
                .is_some();
            if !completed {
                // The op wedged. Monitors keep watching through the probe
                // window; if an obligation is still pending afterwards,
                // this (stuck) branch can never discharge it. A wedge with
                // no pending obligation is not a *property* failure — the
                // reach checker diagnoses the livelock itself.
                probe(&mut next.machine, &mut obs);
            }
            if let Some(v) = obs.violation {
                return Err(violation_of(&next.mons, &v));
            }
            if completed {
                return Ok(Edge::To(next));
            }
            pending_violation_of(&next.mons).map_or(Ok(Edge::Pruned), Err)
        },
        |s| {
            drain_walk(&s.machine, &s.mons, &g, &lines, &s.shadow, &mut drain_memo)
                .map_or(Ok(()), Err)
        },
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
