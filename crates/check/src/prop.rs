//! The property layer: compiling `.wbp` specs against an environment,
//! running them over event streams, and checking them boundedly.
//!
//! A parsed [`PropSet`] meets a [`PropEnv`] — which machine, which hazard
//! policy, what depth/MSHR count — and compiles into a [`Monitors`] bundle
//! (see [`crate::prop_automaton`]). Properties whose `where` clauses fail
//! or reference symbols the environment leaves unbound are *skipped*, not
//! failed, so one library serves every configuration in a grid.
//!
//! Three checkers consume the same monitors:
//!
//! * [`PropRunner`] is a plain [`Observer`]: `wbsim trace validate --prop`
//!   streams any JSONL trace through it and asks [`PropRunner::finish`] at
//!   end of trace (a pending liveness obligation on a finite trace is a
//!   violation — the trace is the whole run).
//! * [`check_props_sequence`] runs one op sequence on either machine,
//!   threads the monitors through every cycle, and settles liveness on the
//!   terminal fair-drain schedule — the bounded cross-validation side.
//! * [`crate::prop_product`] takes the same bundle into the unbounded
//!   product with the abstract state graph.
//!
//! The built-in library ([`builtin_library`], `props/paper.wbp`) encodes
//! the paper's claims and is the default property set for
//! `wbsim check --prop`.

use wbsim_sim::{Event, Machine, NonBlockingMachine, Observer, SimMachine};
use wbsim_types::addr::LineAddr;
use wbsim_types::config::MachineConfig;
use wbsim_types::diagnostics::{Diagnostic, Severity};
use wbsim_types::op::Op;

use crate::abstract_state::StateKey;
use crate::bounded::{build, first_violation, minimize, op_universe, Counterexample};
use crate::explore::DrainPath;
use crate::prop_automaton::{compile_property, MonViolation, Monitors};
use crate::prop_parse::{parse_props, CmpOp, PropSet, ValueExpr, WhereClause};
use crate::reach::{drain_key, probe, replay, replay_trace, universe_lines, DRAIN_WALK_BOUND};

/// Version of the built-in property library. Part of the check-job cache
/// key: bump it whenever `props/paper.wbp` changes so cached check results
/// keyed on the old library cannot be replayed for the new one.
pub const PROP_LIBRARY_VERSION: &str = "1";

/// The built-in library source, compiled into the binary.
#[must_use]
pub fn builtin_library_text() -> &'static str {
    include_str!("../../../props/paper.wbp")
}

/// Parses the built-in library.
///
/// # Panics
///
/// Panics if the compiled-in library fails its own parser — a build error,
/// caught by test.
#[must_use]
pub fn builtin_library() -> PropSet {
    parse_props(builtin_library_text()).expect("the built-in property library parses")
}

/// The environment a property set is checked against. Unbound fields skip
/// (rather than fail) any property that needs them.
#[derive(Debug, Clone, Copy, Default)]
pub struct PropEnv {
    /// `"blocking"` or `"nonblocking"`.
    pub machine: Option<&'static str>,
    /// The load-hazard policy token (`read-from-wb`, …).
    pub hazard: Option<&'static str>,
    /// `write_buffer.depth`.
    pub depth: Option<u64>,
    /// MSHR count (non-blocking machine only).
    pub mshrs: Option<u64>,
}

impl PropEnv {
    /// An environment with nothing bound: only properties that reference
    /// no symbols stay active. The default for `trace validate --prop`.
    #[must_use]
    pub fn unbound() -> Self {
        PropEnv::default()
    }

    /// The blocking machine under `cfg`.
    #[must_use]
    pub fn blocking(cfg: &MachineConfig) -> Self {
        PropEnv {
            machine: Some("blocking"),
            hazard: Some(cfg.write_buffer.hazard.name()),
            depth: Some(cfg.write_buffer.depth as u64),
            mshrs: None,
        }
    }

    /// The non-blocking machine under `cfg` with `mshrs` registers.
    #[must_use]
    pub fn nonblocking(cfg: &MachineConfig, mshrs: usize) -> Self {
        PropEnv {
            machine: Some("nonblocking"),
            mshrs: Some(mshrs as u64),
            ..Self::blocking(cfg)
        }
    }

    /// The machine a grid point selects: the non-blocking one with `mshrs`
    /// registers, or the blocking one for `None`.
    pub(crate) fn of_point(cfg: &MachineConfig, mshrs: Option<usize>) -> Self {
        mshrs.map_or_else(|| Self::blocking(cfg), |m| Self::nonblocking(cfg, m))
    }

    fn resolve_int(&self, sym: &str) -> Option<u64> {
        match sym {
            "depth" => self.depth,
            "mshrs" => self.mshrs,
            _ => None,
        }
    }
}

/// A property left out of a compiled bundle, and why.
#[derive(Debug, Clone)]
pub struct SkippedProp {
    /// The property's name.
    pub name: String,
    /// Why it does not apply to this environment.
    pub reason: String,
}

/// Evaluates one `where` clause. `Err` names an unbound symbol.
fn where_holds(w: &WhereClause, env: &PropEnv) -> Result<bool, String> {
    let token_clause = |actual: Option<&'static str>| -> Result<bool, String> {
        let Some(actual) = actual else {
            return Err(w.sym.clone());
        };
        let ValueExpr::Token(want) = &w.value else {
            return Ok(false); // parse validation rejects other shapes
        };
        Ok(match w.op {
            CmpOp::Eq => actual == want.as_str(),
            CmpOp::Ne => actual != want.as_str(),
            _ => false,
        })
    };
    match w.sym.as_str() {
        "machine" => token_clause(env.machine),
        "hazard" => token_clause(env.hazard),
        "depth" | "mshrs" => {
            let Some(actual) = env.resolve_int(&w.sym) else {
                return Err(w.sym.clone());
            };
            let ValueExpr::Int(want) = &w.value else {
                return Ok(false);
            };
            Ok(w.op.eval_u64(actual, *want))
        }
        other => Err(other.to_string()),
    }
}

/// Compiles a property set against an environment: properties whose
/// `where` clauses fail, or that reference unbound symbols, come back in
/// the skipped list with a reason; the rest become live monitors.
#[must_use]
pub fn compile(set: &PropSet, env: &PropEnv) -> (Monitors, Vec<SkippedProp>) {
    let mut active = Vec::new();
    let mut skipped = Vec::new();
    'props: for p in &set.props {
        for w in &p.wheres {
            match where_holds(w, env) {
                Err(sym) => {
                    skipped.push(SkippedProp {
                        name: p.name.clone(),
                        reason: format!("symbol `{sym}` is unbound in this environment"),
                    });
                    continue 'props;
                }
                Ok(false) => {
                    skipped.push(SkippedProp {
                        name: p.name.clone(),
                        reason: format!(
                            "where clause `{} {} …` does not hold here",
                            w.sym,
                            w.op.sym()
                        ),
                    });
                    continue 'props;
                }
                Ok(true) => {}
            }
        }
        match compile_property(p, &|s| env.resolve_int(s)) {
            Ok(cp) => active.push(cp),
            Err(sym) => skipped.push(SkippedProp {
                name: p.name.clone(),
                reason: format!("symbol `{sym}` is unbound in this environment"),
            }),
        }
    }
    (Monitors::new(active), skipped)
}

/// A property violation: which property, and what happened.
#[derive(Debug, Clone)]
pub struct PropViolation {
    /// The violated property's name.
    pub property: String,
    /// Its description from the spec.
    pub desc: String,
    /// `true` for an undischarged liveness obligation (`PRP101`),
    /// `false` for a bad event (`PRP100`).
    pub liveness: bool,
    /// What concretely went wrong.
    pub detail: String,
}

impl PropViolation {
    /// The structured diagnostic: `PRP100` (safety) or `PRP101`
    /// (liveness), field path `props.<name>`.
    #[must_use]
    pub fn diagnostic(&self) -> Diagnostic {
        let code = if self.liveness { "PRP101" } else { "PRP100" };
        Diagnostic::new(code, Severity::Error, format!("props.{}", self.property))
            .with_message(self.render())
    }

    /// One-line human render, also used as the counterexample's
    /// `violation` string.
    #[must_use]
    pub fn render(&self) -> String {
        let kind = if self.liveness {
            "liveness property"
        } else {
            "safety property"
        };
        format!(
            "{kind} '{}' ({}) violated: {}",
            self.property, self.desc, self.detail
        )
    }
}

/// The safety [`PropViolation`] for a monitor-level violation.
pub(crate) fn violation_of(monitors: &Monitors, v: &MonViolation) -> PropViolation {
    let p = &monitors.props()[v.prop];
    PropViolation {
        property: p.name.clone(),
        desc: p.desc.clone(),
        liveness: false,
        detail: v.detail.clone(),
    }
}

/// The liveness [`PropViolation`] for the first still-pending obligation.
pub(crate) fn pending_violation_of(monitors: &Monitors) -> Option<PropViolation> {
    let ob = monitors.obligations().into_iter().next()?;
    let p = &monitors.props()[ob.prop];
    Some(PropViolation {
        property: p.name.clone(),
        desc: p.desc.clone(),
        liveness: true,
        detail: ob.detail,
    })
}

/// Steps a monitor bundle as an [`Observer`], latching the first safety
/// violation; liveness is settled by [`PropRunner::finish`] (or by the
/// caller's own schedule analysis).
#[derive(Debug, Clone)]
pub struct PropRunner {
    monitors: Monitors,
    violation: Option<PropViolation>,
}

impl PropRunner {
    /// Wraps a compiled bundle.
    #[must_use]
    pub fn new(monitors: Monitors) -> Self {
        PropRunner {
            monitors,
            violation: None,
        }
    }

    /// The monitor bundle (for key extraction in the product checker).
    #[must_use]
    pub fn monitors(&self) -> &Monitors {
        &self.monitors
    }

    /// The latched safety violation, if any.
    #[must_use]
    pub fn violation(&self) -> Option<&PropViolation> {
        self.violation.as_ref()
    }

    /// Takes the latched safety violation.
    pub fn take_violation(&mut self) -> Option<PropViolation> {
        self.violation.take()
    }

    /// The first still-pending liveness obligation, as a violation. Only
    /// meaningful when the stream has ended (or provably never discharges
    /// it — a drain cycle or a wedged machine).
    #[must_use]
    pub fn pending_violation(&self) -> Option<PropViolation> {
        pending_violation_of(&self.monitors)
    }

    /// End-of-stream verdict: the latched safety violation, else the first
    /// pending liveness obligation.
    #[must_use]
    pub fn finish(&self) -> Option<PropViolation> {
        self.violation.clone().or_else(|| self.pending_violation())
    }
}

impl Observer for PropRunner {
    fn event(&mut self, ev: &Event) {
        // Monitors keep stepping after a latched violation so scope state
        // stays consistent, but only the first violation is reported.
        if let Some(v) = self.monitors.step(ev) {
            if self.violation.is_none() {
                let pv = violation_of(&self.monitors, &v);
                self.violation = Some(pv);
            }
        }
    }
}

/// Runs one op sequence — on the non-blocking machine with `mshrs`
/// registers, or on the blocking machine for `None` — and checks the
/// property set over the full run, including the terminal fair-drain
/// schedule: a safety violation surfaces at its event; liveness
/// obligations must discharge by the time the drain terminates (a drain
/// that cycles or a wedged op can never discharge them).
///
/// # Errors
///
/// The first [`PropViolation`].
///
/// # Panics
///
/// Panics if the machine rejects `cfg`/`mshrs` — like the other checkers,
/// this explores behavior of valid configurations only — or if `ops`
/// touch a line outside the bounded universe's two ([`op_universe`]),
/// which the drain walk keys states over.
pub fn check_props_sequence(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    set: &PropSet,
    ops: &[Op],
) -> Result<(), PropViolation> {
    match mshrs {
        None => props_sequence::<Machine>(cfg, mshrs, set, ops),
        Some(_) => props_sequence::<NonBlockingMachine>(cfg, mshrs, set, ops),
    }
}

fn props_sequence<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    set: &PropSet,
    ops: &[Op],
) -> Result<(), PropViolation> {
    let (monitors, _) = compile(set, &PropEnv::of_point(cfg, mshrs));
    if monitors.is_empty() {
        return Ok(());
    }
    let mut runner = PropRunner::new(monitors);
    let mut m: M = build(cfg, mshrs);
    if !replay(&mut m, ops, &mut runner) {
        // An op wedged: give the machine a probe window, then any
        // still-pending obligation is undischargeable.
        probe(&mut m, &mut runner);
        return runner.finish().map_or(Ok(()), Err);
    }
    settle_drain(&mut runner, &mut m, &universe_lines(cfg))
}

/// Walks the terminal fair-drain schedule under the monitors. A repeated
/// [`drain_key`] is a cycle: obligations pending there never discharge.
fn settle_drain<M: SimMachine>(
    runner: &mut PropRunner,
    m: &mut M,
    lines: &[LineAddr],
) -> Result<(), PropViolation> {
    if let Some(v) = runner.take_violation() {
        return Err(v);
    }
    let (mut key, mut path) = (StateKey::default(), DrainPath::default());
    loop {
        let s = drain_key(m, lines, &mut key);
        let stepped = m.drain_step(runner);
        if let Some(v) = runner.take_violation() {
            return Err(v);
        }
        // A terminated drain ends the (complete, finite) run; a cycling
        // one never discharges anything: either way, whatever is still
        // pending is a violation.
        if !stepped || path.contains(s) || path.len() > DRAIN_WALK_BOUND {
            return runner.pending_violation().map_or(Ok(()), Err);
        }
        path.push(s);
    }
}

/// Enumerates op sequences of length 1..=`max_ops` in odometer order and
/// returns the first that violates the property set on the machine
/// `mshrs` selects (`None`: the blocking machine), with its violation.
/// `abort` is polled once per sequence.
#[must_use]
pub fn first_prop_violation(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    set: &PropSet,
    max_ops: u32,
    abort: &dyn Fn() -> bool,
) -> Option<(Vec<Op>, PropViolation)> {
    first_violation(&op_universe(cfg), max_ops, abort, |ops| {
        check_props_sequence(cfg, mshrs, set, ops).err()
    })
}

/// Minimizes a property-violating sequence and packages it as a replayable
/// counterexample. The minimization preserves "violates the set with the
/// same liveness class" — a safety witness stays a safety witness, so the
/// minimized counterexample replays the same kind of failure. `fallback`
/// covers the (unreachable in practice) case where re-checking the
/// sequence stops violating.
pub(crate) fn prop_counterexample<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    set: &PropSet,
    ops: &[Op],
    fallback: &PropViolation,
) -> (PropViolation, Box<Counterexample>) {
    let same_class = |ops: &[Op]| {
        props_sequence::<M>(cfg, mshrs, set, ops)
            .err()
            .filter(|v| v.liveness == fallback.liveness)
    };
    let (ops, violation) = match props_sequence::<M>(cfg, mshrs, set, ops) {
        Err(v) if v.liveness == fallback.liveness => minimize(ops.to_vec(), v, same_class),
        other => (
            ops.to_vec(),
            other.err().unwrap_or_else(|| fallback.clone()),
        ),
    };
    let trace = replay_trace::<M>(cfg, mshrs, &ops);
    let ce = Counterexample::new(cfg, mshrs, ops, violation.render(), trace);
    (violation, ce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_types::divergence::FaultInjection;
    use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};
    use wbsim_types::testutil::a;

    fn cfg_with(
        depth: usize,
        hw: usize,
        hazard: LoadHazardPolicy,
        fault: Option<FaultInjection>,
    ) -> MachineConfig {
        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.depth = depth;
        cfg.write_buffer.retirement = RetirementPolicy::RetireAt(hw);
        cfg.write_buffer.hazard = hazard;
        cfg.check_data = false;
        cfg.fault = fault;
        cfg
    }

    #[test]
    fn builtin_library_parses_and_names_are_stable() {
        let set = builtin_library();
        let names: Vec<&str> = set.props.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "occupancy-bound",
                "fifo-retirement",
                "no-stall-unless-full",
                "stall-exclusive",
                "no-stale-forward",
                "eventual-drain"
            ]
        );
    }

    #[test]
    fn compile_skips_by_where_clause_and_unbound_symbols() {
        let set = builtin_library();
        // Non-blocking env: the two `where machine = blocking` properties
        // are skipped with a reason naming the clause.
        let cfg = cfg_with(2, 2, LoadHazardPolicy::ReadFromWb, None);
        let (mons, skipped) = compile(&set, &PropEnv::nonblocking(&cfg, 2));
        assert_eq!(mons.props().len(), 4);
        let names: Vec<&str> = skipped.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["stall-exclusive", "no-stale-forward"]);
        assert!(skipped[0].reason.contains("machine"));
        // Unbound env: everything needing `depth` or a symbol is skipped.
        let (mons, skipped) = compile(&set, &PropEnv::unbound());
        let active: Vec<&str> = mons.props().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(active, ["fifo-retirement", "eventual-drain"]);
        assert!(skipped.iter().any(|s| s.reason.contains("`depth`")));
    }

    #[test]
    fn clean_machine_satisfies_the_library_on_sample_sequences() {
        let set = builtin_library();
        for hazard in LoadHazardPolicy::ALL {
            let cfg = cfg_with(2, 1, hazard, None);
            for ops in [
                vec![Op::Store(a(0, 0))],
                vec![Op::Store(a(0, 0)), Op::Load(a(0, 0))],
                vec![
                    Op::Store(a(0, 0)),
                    Op::Store(a(0, 1)),
                    Op::Store(a(1, 0)),
                    Op::Load(a(0, 1)),
                    Op::Load(a(1, 1)),
                ],
            ] {
                check_props_sequence(&cfg, None, &set, &ops)
                    .unwrap_or_else(|v| panic!("{hazard:?} {ops:?}: {}", v.render()));
            }
        }
    }

    #[test]
    fn starved_retirement_violates_eventual_drain_at_one_op() {
        let set = builtin_library();
        let cfg = cfg_with(
            2,
            1,
            LoadHazardPolicy::FlushFull,
            Some(FaultInjection::StarveRetirement),
        );
        let v = check_props_sequence(&cfg, None, &set, &[Op::Store(a(0, 0))])
            .expect_err("a starved buffer never discharges eventual-drain");
        assert!(v.liveness);
        assert_eq!(v.property, "eventual-drain");
        assert_eq!(v.diagnostic().code, "PRP101");
    }

    #[test]
    fn skipped_forwarding_violates_no_stale_forward() {
        let set = builtin_library();
        // depth 2, retire-at 2: a lone store sits below the mark, so its
        // window stays open when the load's fill arrives.
        let cfg = cfg_with(
            2,
            2,
            LoadHazardPolicy::ReadFromWb,
            Some(FaultInjection::SkipWbForwarding),
        );
        let ops = [Op::Store(a(0, 0)), Op::Load(a(0, 0))];
        let v =
            check_props_sequence(&cfg, None, &set, &ops).expect_err("unmerged fill in the window");
        assert!(!v.liveness);
        assert_eq!(v.property, "no-stale-forward");
        assert_eq!(v.diagnostic().code, "PRP100");
        // The clean machine is fine on the same sequence.
        let clean = cfg_with(2, 2, LoadHazardPolicy::ReadFromWb, None);
        check_props_sequence(&clean, None, &set, &ops).expect("clean forwarding");
    }

    #[test]
    fn first_prop_violation_finds_and_minimizer_shrinks() {
        let set = builtin_library();
        let cfg = cfg_with(
            2,
            1,
            LoadHazardPolicy::FlushFull,
            Some(FaultInjection::StarveRetirement),
        );
        let (ops, v) =
            first_prop_violation(&cfg, None, &set, 2, &|| false).expect("starvation is caught");
        assert_eq!(ops.len(), 1, "odometer order finds the 1-op witness first");
        let (v2, ce) = prop_counterexample::<Machine>(&cfg, None, &set, &ops, &v);
        assert_eq!(v2.property, "eventual-drain");
        assert_eq!(ce.ops.len(), 1);
        assert!(
            !ce.trace.iter().any(|l| l.contains("retire-complete")),
            "the starved trace must visibly never retire"
        );
        assert!(ce.trace.iter().any(|l| l.contains("store-accepted")));
    }

    #[test]
    fn nonblocking_driver_is_clean_on_the_healthy_machine() {
        let set = builtin_library();
        let cfg = cfg_with(2, 1, LoadHazardPolicy::ReadFromWb, None);
        for mshrs in 1..=2 {
            for ops in [
                vec![Op::Store(a(0, 0)), Op::Load(a(0, 0))],
                vec![Op::Load(a(0, 0)), Op::Store(a(0, 0)), Op::Load(a(1, 0))],
            ] {
                check_props_sequence(&cfg, Some(mshrs), &set, &ops)
                    .unwrap_or_else(|v| panic!("mshrs={mshrs} {ops:?}: {}", v.render()));
            }
        }
    }

    #[test]
    fn trace_runner_flags_pending_obligations_at_end_of_stream() {
        let set = builtin_library();
        let cfg = cfg_with(2, 1, LoadHazardPolicy::ReadFromWb, None);
        let (mons, _) = compile(&set, &PropEnv::blocking(&cfg));
        let mut runner = PropRunner::new(mons);
        runner.event(&Event::StoreAccepted {
            now: 1,
            addr: a(0, 0),
            merged: false,
        });
        let v = runner.finish().expect("undischarged at end of trace");
        assert_eq!(v.property, "eventual-drain");
        assert!(v.liveness);
    }

    /// Satellite pin: the built-in library table in
    /// `docs/static-analysis.md` § Built-in library matches
    /// [`builtin_library`] in both directions — same property names in
    /// the same order, each with the right safety/liveness class.
    #[test]
    fn rendered_docs_agree_with_the_builtin_library() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/static-analysis.md");
        let doc = std::fs::read_to_string(path).expect("docs/static-analysis.md exists");
        let section = doc
            .split("### Built-in library")
            .nth(1)
            .expect("docs have a Built-in library section");
        let section = section.split("\n## ").next().unwrap_or(section);
        let mut documented = Vec::new();
        for line in section.lines() {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            // A data row is `| name | class | claim |`; skip the header
            // and its `---` separator.
            if cells.len() >= 4
                && !cells[1].is_empty()
                && cells[1] != "property"
                && !cells[1].starts_with('-')
            {
                documented.push((cells[1].to_string(), cells[2].to_string()));
            }
        }
        let lib = builtin_library();
        assert_eq!(
            documented.len(),
            lib.props.len(),
            "docs table and builtin library differ in size"
        );
        for (p, (name, class)) in lib.props.iter().zip(&documented) {
            assert_eq!(&p.name, name, "library order drifted in the docs");
            let want = if p.body.is_liveness() {
                "liveness"
            } else {
                "safety"
            };
            assert_eq!(class, want, "{}: class drifted in the docs", p.name);
        }
    }
}
