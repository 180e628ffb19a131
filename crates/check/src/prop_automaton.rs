//! Monitor automata compiled from parsed properties.
//!
//! A [`Monitors`] bundle steps once per [`Event`] and tracks, per property,
//! the minimal state its temporal operator needs: a flag for an open
//! `after … until …` scope, a set of bound addresses for `for_each addr`
//! scopes, a saturating counter for `at_most k`, a done bit for
//! `eventually`, the last seen value for `increasing`. Safety violations
//! surface immediately from [`Monitors::step`]; liveness obligations
//! (`eventually`, `after … eventually …`) are interrogated separately via
//! [`Monitors::obligations`] — the bounded checker asks at the end of the
//! fair drain schedule, the unbounded product checker asks on drain cycles
//! and wedged states, and `trace validate --prop` asks at end of trace.
//!
//! For the unbounded product with the reach.rs abstract state graph, a
//! bundle summarizes into a canonical [`MonKey`]: bound addresses are
//! renamed under the same line swap the abstract state uses (`addr ^
//! line_bytes`) and re-sorted, so the joint (abstract state, monitor)
//! visited key respects the machine's line symmetry. `increasing` state is
//! path-local bookkeeping (like the reach checker's `last_retire_id`) and
//! the ambient occupancy is derivable from the abstract state at op
//! boundaries, so both are excluded from the key.

use std::collections::BTreeSet;
use std::rc::Rc;

use wbsim_sim::event::{FieldVal, NOW, SCHEMA};
use wbsim_sim::Event;

use crate::abstract_state::put_varint;
use crate::prop_parse::{Body, CmpOp, EventMatch, Property, ValueExpr};

// ---------------------------------------------------------------------------
// Compiled matchers

/// A constraint value after symbol resolution (`depth` etc. become
/// integers; `$addr` stays a parameter).
#[derive(Debug, Clone, PartialEq, Eq)]
enum CVal {
    U64(u64),
    Bool(bool),
    Token(String),
    Param,
}

/// Where a field's value comes from: the event's cycle stamp, the ambient
/// write-buffer occupancy, or field `i` of the tag's [`SCHEMA`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldRef {
    Now,
    Occupancy,
    Own(usize),
}

impl FieldRef {
    /// Resolves a field name against the tag in [`SCHEMA`] row `tag`;
    /// `Err` names an unknown field.
    fn resolve(tag: usize, name: &str) -> Result<Self, String> {
        let own = SCHEMA[tag].fields.iter().position(|(n, _)| *n == name);
        match name {
            n if n == NOW.0 => Ok(FieldRef::Now),
            "wb_occupancy" => Ok(FieldRef::Occupancy),
            _ => own.map(FieldRef::Own).ok_or_else(|| name.to_string()),
        }
    }

    /// The field's value on `ev`, where `occ` supplies the ambient
    /// occupancy (`None`: the field reads as absent).
    fn read(self, ev: &Event, occ: Option<u64>) -> Option<FieldVal> {
        match self {
            FieldRef::Now => Some(FieldVal::U64(ev.now())),
            FieldRef::Occupancy => occ.map(FieldVal::U64),
            FieldRef::Own(i) => Some(ev.field(i)),
        }
    }

    /// The field's integer value on `ev` (the ambient occupancy excluded).
    fn u64_on(self, ev: &Event) -> Option<u64> {
        match self.read(ev, None) {
            Some(FieldVal::U64(v)) => Some(v),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct CompiledConstraint {
    field: FieldRef,
    op: CmpOp,
    value: CVal,
}

/// An event pattern with symbols and field names resolved, ready to
/// evaluate.
#[derive(Debug, Clone)]
pub struct CompiledMatch {
    /// The tag's row in [`SCHEMA`].
    tag: usize,
    constraints: Vec<CompiledConstraint>,
    /// The field a `$addr` constraint binds/tests, if any.
    param_field: Option<FieldRef>,
}

impl CompiledMatch {
    fn tag(&self) -> &'static str {
        SCHEMA[self.tag].tag
    }

    /// Tag plus every non-`$addr` constraint holds.
    fn matches_nonparam(&self, ev: &Event, occ: u64) -> bool {
        if ev.tag_index() != self.tag {
            return false;
        }
        self.constraints.iter().all(|c| {
            let Some(actual) = c.field.read(ev, Some(occ)) else {
                return false;
            };
            match (&c.value, actual) {
                (CVal::Param, _) => true, // handled by the monitor
                (CVal::U64(want), FieldVal::U64(got)) => c.op.eval_u64(got, *want),
                (CVal::Bool(want), FieldVal::Bool(got)) => match c.op {
                    CmpOp::Eq => got == *want,
                    CmpOp::Ne => got != *want,
                    _ => false,
                },
                (CVal::Token(want), FieldVal::Token(got)) => match c.op {
                    CmpOp::Eq => got == want.as_str(),
                    CmpOp::Ne => got != want.as_str(),
                    _ => false,
                },
                _ => false,
            }
        })
    }

    /// The event's value of the `$addr`-bound field.
    fn param_value(&self, ev: &Event) -> Option<u64> {
        self.param_field?.u64_on(ev)
    }
}

/// The compiled temporal operator.
#[derive(Debug, Clone)]
enum CompiledKind {
    Always(CompiledMatch),
    Never(CompiledMatch),
    Scoped {
        open: CompiledMatch,
        close: CompiledMatch,
        ban: CompiledMatch,
    },
    Eventually(CompiledMatch),
    Leads {
        open: CompiledMatch,
        goal: CompiledMatch,
    },
    Count {
        k: u64,
        counted: CompiledMatch,
        open: CompiledMatch,
        close: CompiledMatch,
    },
    Increasing {
        of: CompiledMatch,
        field: String,
        at: FieldRef,
    },
}

/// One property compiled against a concrete environment.
#[derive(Debug, Clone)]
pub struct CompiledProp {
    /// The property's name, for reports.
    pub name: String,
    /// The property's description.
    pub desc: String,
    /// Whether a pending obligation (rather than a bad event) violates it.
    pub liveness: bool,
    /// Whether the property is instantiated per address.
    pub per_addr: bool,
    kind: CompiledKind,
}

fn compile_value(v: &ValueExpr, resolve: &dyn Fn(&str) -> Option<u64>) -> Result<CVal, String> {
    Ok(match v {
        ValueExpr::Int(n) => CVal::U64(*n),
        ValueExpr::Bool(b) => CVal::Bool(*b),
        ValueExpr::Token(t) => CVal::Token(t.clone()),
        ValueExpr::Param => CVal::Param,
        ValueExpr::Sym(s) => CVal::U64(resolve(s).ok_or_else(|| s.clone())?),
    })
}

fn compile_match(
    m: &EventMatch,
    resolve: &dyn Fn(&str) -> Option<u64>,
) -> Result<CompiledMatch, String> {
    let tag = SCHEMA
        .iter()
        .position(|t| t.tag == m.tag)
        .ok_or_else(|| m.tag.clone())?;
    let mut constraints = Vec::with_capacity(m.constraints.len());
    let mut param_field = None;
    for c in &m.constraints {
        let value = compile_value(&c.value, resolve)?;
        let field = FieldRef::resolve(tag, &c.field)?;
        if value == CVal::Param {
            param_field = Some(field);
        }
        constraints.push(CompiledConstraint {
            field,
            op: c.op,
            value,
        });
    }
    Ok(CompiledMatch {
        tag,
        constraints,
        param_field,
    })
}

/// Compiles one property against a symbol resolver (`depth`, `mshrs` …).
///
/// # Errors
///
/// The name of the first unresolvable symbol — the caller skips the
/// property for this environment (e.g. `mshrs` on the blocking machine).
/// A tag or field name the event schema lacks (in a property that
/// skipped validation) is unresolvable too.
pub fn compile_property(
    p: &Property,
    resolve: &dyn Fn(&str) -> Option<u64>,
) -> Result<CompiledProp, String> {
    let kind = match &p.body {
        Body::Always(m) => CompiledKind::Always(compile_match(m, resolve)?),
        Body::Never(m) => CompiledKind::Never(compile_match(m, resolve)?),
        Body::AfterUntilNever { open, close, ban } => CompiledKind::Scoped {
            open: compile_match(open, resolve)?,
            close: compile_match(close, resolve)?,
            ban: compile_match(ban, resolve)?,
        },
        Body::AfterEventually { open, goal } => CompiledKind::Leads {
            open: compile_match(open, resolve)?,
            goal: compile_match(goal, resolve)?,
        },
        Body::Eventually(m) => CompiledKind::Eventually(compile_match(m, resolve)?),
        Body::AtMostBetween {
            k,
            counted,
            open,
            close,
        } => CompiledKind::Count {
            k: *k,
            counted: compile_match(counted, resolve)?,
            open: compile_match(open, resolve)?,
            close: compile_match(close, resolve)?,
        },
        Body::Increasing { of, field } => {
            let of = compile_match(of, resolve)?;
            let at = FieldRef::resolve(of.tag, field)?;
            CompiledKind::Increasing {
                of,
                field: field.clone(),
                at,
            }
        }
    };
    Ok(CompiledProp {
        name: p.name.clone(),
        desc: p.desc.clone(),
        liveness: p.body.is_liveness(),
        per_addr: p.per_addr,
        kind,
    })
}

// ---------------------------------------------------------------------------
// Monitor state

/// Scope state: a flag, or (under `for_each addr`) the set of open
/// parameter bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ScopeState {
    Flat(bool),
    Param(BTreeSet<u64>),
}

impl ScopeState {
    fn new(per_addr: bool) -> Self {
        if per_addr {
            ScopeState::Param(BTreeSet::new())
        } else {
            ScopeState::Flat(false)
        }
    }

    fn any_open(&self) -> bool {
        match self {
            ScopeState::Flat(b) => *b,
            ScopeState::Param(s) => !s.is_empty(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum MonState {
    Stateless,
    Scope(ScopeState),
    Done(bool),
    Pending(ScopeState),
    Count { open: bool, n: u64 },
    Last(Option<u64>),
}

/// A safety violation raised while stepping.
#[derive(Debug, Clone)]
pub struct MonViolation {
    /// Index of the violated property in the compiled bundle.
    pub prop: usize,
    /// What happened, for the diagnostic message.
    pub detail: String,
}

/// A pending liveness obligation.
#[derive(Debug, Clone)]
pub struct MonObligation {
    /// Index of the obligated property in the compiled bundle.
    pub prop: usize,
    /// What is still owed, for the diagnostic message.
    pub detail: String,
}

/// One canonical-key component per monitor (see [`Monitors::key`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonKeyItem {
    /// Path-local or stateless: excluded from canonicalization.
    Unit,
    /// A scope/obligation/done flag.
    Flag(bool),
    /// Open parameter bindings, renamed and sorted.
    Set(Vec<u64>),
    /// Bounded-count window state.
    Count(bool, u64),
}

/// Canonical summary of a monitor bundle's state, usable as (part of) a
/// visited-set key in the product BFS (see [`MonKey::encode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonKey(pub Vec<MonKeyItem>);

impl MonKey {
    /// Appends a prefix-free byte encoding of the key: the item count,
    /// then per item a tag byte (0 unit, 1 flag, 2 set, 3 count) and its
    /// fields, with flags as one byte and numbers as LEB128 varints. The
    /// product checker appends it to the machine's packed key.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.0.len() as u64);
        for item in &self.0 {
            match item {
                MonKeyItem::Unit => out.push(0),
                MonKeyItem::Flag(b) => out.extend([1, u8::from(*b)]),
                MonKeyItem::Set(addrs) => {
                    out.push(2);
                    put_varint(out, addrs.len() as u64);
                    for &a in addrs {
                        put_varint(out, a);
                    }
                }
                MonKeyItem::Count(open, n) => {
                    out.extend([3, u8::from(*open)]);
                    put_varint(out, *n);
                }
            }
        }
    }
}

/// A bundle of compiled monitors plus their per-run state. `clone_from`
/// shares the compiled properties and reuses the state `Vec`.
#[derive(Debug)]
pub struct Monitors {
    props: Rc<Vec<CompiledProp>>,
    states: Vec<MonState>,
    /// Ambient occupancy: the `occupancy` of the most recent `cycle-end`.
    occ: u64,
}

wbsim_types::clone_fields!(Monitors { props, states, occ });

impl Monitors {
    /// Builds a bundle with every monitor in its initial state.
    #[must_use]
    pub fn new(props: Vec<CompiledProp>) -> Self {
        let states = props
            .iter()
            .map(|p| match &p.kind {
                CompiledKind::Always(_) | CompiledKind::Never(_) => MonState::Stateless,
                CompiledKind::Scoped { .. } => MonState::Scope(ScopeState::new(p.per_addr)),
                CompiledKind::Eventually(_) => MonState::Done(false),
                CompiledKind::Leads { .. } => MonState::Pending(ScopeState::new(p.per_addr)),
                CompiledKind::Count { .. } => MonState::Count { open: false, n: 0 },
                CompiledKind::Increasing { .. } => MonState::Last(None),
            })
            .collect();
        Monitors {
            props: Rc::new(props),
            states,
            occ: 0,
        }
    }

    /// The compiled properties in this bundle.
    #[must_use]
    pub fn props(&self) -> &[CompiledProp] {
        &self.props
    }

    /// Whether the bundle has no monitors (every property was skipped).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// Steps every monitor over one event. Returns the first safety
    /// violation, if any; monitors keep their updated state either way.
    pub fn step(&mut self, ev: &Event) -> Option<MonViolation> {
        let occ = self.occ;
        let mut violation: Option<MonViolation> = None;
        let props = Rc::clone(&self.props);
        for (i, (p, st)) in props.iter().zip(self.states.iter_mut()).enumerate() {
            let v = step_one(p, st, ev, occ);
            if violation.is_none() {
                if let Some(detail) = v {
                    violation = Some(MonViolation { prop: i, detail });
                }
            }
        }
        if let Event::CycleEnd { occupancy, .. } = ev {
            self.occ = *occupancy;
        }
        violation
    }

    /// The liveness obligations still pending (empty when every
    /// `eventually` is done and every `after … eventually …` discharged).
    #[must_use]
    pub fn obligations(&self) -> Vec<MonObligation> {
        let mut out = Vec::new();
        for (i, (p, st)) in self.props.iter().zip(&self.states).enumerate() {
            match (st, &p.kind) {
                (MonState::Done(false), CompiledKind::Eventually(m)) => out.push(MonObligation {
                    prop: i,
                    detail: format!("no {} event ever occurred", m.tag()),
                }),
                (MonState::Pending(sc), CompiledKind::Leads { goal, .. }) if sc.any_open() => {
                    let what = match sc {
                        ScopeState::Flat(_) => "an obligation is".to_string(),
                        ScopeState::Param(s) => format!(
                            "obligations for addr(s) {:?} are",
                            s.iter().collect::<Vec<_>>()
                        ),
                    };
                    out.push(MonObligation {
                        prop: i,
                        detail: format!("{what} still awaiting a {} event", goal.tag()),
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// Canonical state summary. `xor_mask` renames parameter bindings
    /// under the abstract line swap (`Some(line_bytes)`), matching the
    /// renaming the packed abstract state applies to the machine half of
    /// a product-BFS key.
    #[must_use]
    pub fn key(&self, xor_mask: Option<u64>) -> MonKey {
        let items = self
            .states
            .iter()
            .map(|st| match st {
                MonState::Stateless | MonState::Last(_) => MonKeyItem::Unit,
                MonState::Done(b) => MonKeyItem::Flag(*b),
                MonState::Scope(sc) | MonState::Pending(sc) => match sc {
                    ScopeState::Flat(b) => MonKeyItem::Flag(*b),
                    ScopeState::Param(s) => {
                        let mut v: Vec<u64> =
                            s.iter().map(|&a| xor_mask.map_or(a, |m| a ^ m)).collect();
                        v.sort_unstable();
                        MonKeyItem::Set(v)
                    }
                },
                MonState::Count { open, n } => MonKeyItem::Count(*open, *n),
            })
            .collect();
        MonKey(items)
    }
}

/// Steps one monitor; returns a violation detail on a bad event.
fn step_one(p: &CompiledProp, st: &mut MonState, ev: &Event, occ: u64) -> Option<String> {
    match (&p.kind, st) {
        (CompiledKind::Always(m), MonState::Stateless) => {
            if ev.tag_index() == m.tag && !m.matches_nonparam(ev, occ) {
                return Some(format!(
                    "event {} fails the `always` constraints",
                    ev.to_json()
                ));
            }
            None
        }
        (CompiledKind::Never(m), MonState::Stateless) => {
            if m.matches_nonparam(ev, occ) {
                return Some(format!("forbidden event {} occurred", ev.to_json()));
            }
            None
        }
        (CompiledKind::Scoped { open, close, ban }, MonState::Scope(sc)) => {
            // Ban first (an event may both close a window and be banned in
            // it), then close, then open.
            let mut hit = None;
            if ban.matches_nonparam(ev, occ) {
                let banned = match (sc as &ScopeState, ban.param_value(ev)) {
                    (ScopeState::Flat(b), _) => *b,
                    (ScopeState::Param(s), Some(v)) => s.contains(&v),
                    (ScopeState::Param(s), None) => !s.is_empty(),
                };
                if banned {
                    hit = Some(format!(
                        "banned event {} occurred inside an open {} window",
                        ev.to_json(),
                        open.tag()
                    ));
                }
            }
            if close.matches_nonparam(ev, occ) {
                match (&mut *sc, close.param_value(ev)) {
                    (ScopeState::Flat(b), _) => *b = false,
                    (ScopeState::Param(s), Some(v)) => {
                        s.remove(&v);
                    }
                    (ScopeState::Param(s), None) => s.clear(),
                }
            }
            if open.matches_nonparam(ev, occ) {
                match (&mut *sc, open.param_value(ev)) {
                    (ScopeState::Flat(b), _) => *b = true,
                    (ScopeState::Param(s), Some(v)) => {
                        s.insert(v);
                    }
                    (ScopeState::Param(_), None) => {}
                }
            }
            hit
        }
        (CompiledKind::Eventually(m), MonState::Done(done)) => {
            if m.matches_nonparam(ev, occ) {
                *done = true;
            }
            None
        }
        (CompiledKind::Leads { open, goal }, MonState::Pending(sc)) => {
            // Goal discharges before open raises, so an event matching both
            // settles existing debts and then re-obligates.
            if goal.matches_nonparam(ev, occ) {
                match (&mut *sc, goal.param_value(ev)) {
                    (ScopeState::Flat(b), _) => *b = false,
                    (ScopeState::Param(s), Some(v)) => {
                        s.remove(&v);
                    }
                    (ScopeState::Param(s), None) => s.clear(),
                }
            }
            if open.matches_nonparam(ev, occ) {
                match (&mut *sc, open.param_value(ev)) {
                    (ScopeState::Flat(b), _) => *b = true,
                    (ScopeState::Param(s), Some(v)) => {
                        s.insert(v);
                    }
                    (ScopeState::Param(_), None) => {}
                }
            }
            None
        }
        (
            CompiledKind::Count {
                k,
                counted,
                open,
                close,
            },
            MonState::Count { open: open_now, n },
        ) => {
            let mut hit = None;
            if *open_now && counted.matches_nonparam(ev, occ) {
                *n = (*n).saturating_add(1).min(k.saturating_add(1));
                if *n > *k {
                    hit = Some(format!(
                        "event {} is counted occurrence {} in a window bounded at {k}",
                        ev.to_json(),
                        *n
                    ));
                }
            }
            if close.matches_nonparam(ev, occ) {
                *open_now = false;
                *n = 0;
            }
            if open.matches_nonparam(ev, occ) {
                *open_now = true;
                *n = 0;
            }
            hit
        }
        (CompiledKind::Increasing { of, field, at }, MonState::Last(last)) => {
            if of.matches_nonparam(ev, occ) {
                if let Some(v) = at.u64_on(ev) {
                    if let Some(prev) = *last {
                        if v <= prev {
                            return Some(format!(
                                "event {} has {field}={v}, not above the previous {prev}",
                                ev.to_json()
                            ));
                        }
                    }
                    *last = Some(v);
                }
            }
            None
        }
        _ => unreachable!("monitor state desynchronized from its kind"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop_parse::parse_props;
    use wbsim_types::addr::Addr;
    use wbsim_types::divergence::LoadSource;
    use wbsim_types::stall::StallKind;

    fn compiled(text: &str, depth: u64) -> Monitors {
        let set = parse_props(text).expect("parse");
        let props = set
            .props
            .iter()
            .map(|p| {
                compile_property(p, &|s| match s {
                    "depth" => Some(depth),
                    _ => None,
                })
                .expect("compile")
            })
            .collect();
        Monitors::new(props)
    }

    fn store(now: u64, addr: u64) -> Event {
        Event::StoreAccepted {
            now,
            addr: Addr::new(addr),
            merged: false,
        }
    }

    fn load_fill(now: u64, addr: u64) -> Event {
        Event::LoadResolved {
            now,
            addr: Addr::new(addr),
            value: 0,
            source: LoadSource::L2Fill,
        }
    }

    fn cycle_end(now: u64, occupancy: usize) -> Event {
        Event::CycleEnd {
            now,
            occupancy: occupancy as u64,
        }
    }

    #[test]
    fn always_checks_constraints_on_matching_tags_only() {
        let mut m = compiled("prop cap { always cycle-end[occupancy <= depth]; }", 2);
        assert!(m.step(&store(1, 0)).is_none(), "other tags don't trip it");
        assert!(m.step(&cycle_end(1, 2)).is_none());
        let v = m.step(&cycle_end(2, 3)).expect("over depth");
        assert_eq!(v.prop, 0);
    }

    #[test]
    fn never_with_ambient_occupancy() {
        let mut m = compiled(
            "prop ns { never stall-cycle[kind = buffer-full, wb_occupancy < depth]; }",
            2,
        );
        let stall = Event::StallCycle {
            now: 3,
            kind: StallKind::BufferFull,
        };
        // occ starts 0 < 2: a full-buffer stall now is a violation.
        assert!(m.step(&stall).is_some());
        // After a cycle-end reporting a full buffer, the stall is licensed.
        let mut m = compiled(
            "prop ns { never stall-cycle[kind = buffer-full, wb_occupancy < depth]; }",
            2,
        );
        assert!(m.step(&cycle_end(1, 2)).is_none());
        assert!(m.step(&stall).is_none());
    }

    #[test]
    fn scoped_param_windows_open_ban_and_close() {
        let text = "prop nsf { for_each addr;\n            after store-accepted[addr = $addr] until retire-start\n              never load-resolved[addr = $addr, source = l2-fill]; }";
        let mut m = compiled(text, 4);
        assert!(m.step(&load_fill(1, 0)).is_none(), "no window yet");
        assert!(m.step(&store(2, 0)).is_none());
        assert!(m.step(&load_fill(3, 8)).is_none(), "other addr is fine");
        let v = m.step(&load_fill(4, 0)).expect("stale fill in window");
        assert!(v.detail.contains("load-resolved"));
        // retire-start (no param) closes every window.
        let retire = Event::RetireStart {
            now: 5,
            id: 0,
            flush: false,
        };
        let mut m = compiled(text, 4);
        assert!(m.step(&store(1, 0)).is_none());
        assert!(m.step(&retire).is_none());
        assert!(m.step(&load_fill(2, 0)).is_none(), "window closed");
    }

    #[test]
    fn leads_obligations_raise_and_discharge() {
        let mut m = compiled(
            "prop drain { after store-accepted eventually retire-complete; }",
            4,
        );
        assert!(m.obligations().is_empty());
        m.step(&store(1, 0));
        assert_eq!(m.obligations().len(), 1);
        let rc = Event::RetireComplete {
            now: 2,
            id: 0,
            line: 0,
            lifetime: 1,
            valid_words: 1,
            flush: false,
        };
        m.step(&rc);
        assert!(m.obligations().is_empty());
    }

    #[test]
    fn eventually_is_pending_until_seen() {
        let mut m = compiled("prop e { eventually cycle-end; }", 4);
        assert_eq!(m.obligations().len(), 1);
        m.step(&cycle_end(1, 0));
        assert!(m.obligations().is_empty());
    }

    #[test]
    fn count_windows_rearm_on_close() {
        let mut m = compiled(
            "prop one { at_most 1 stall-cycle between cycle-end and cycle-end; }",
            4,
        );
        let stall = Event::StallCycle {
            now: 1,
            kind: StallKind::BufferFull,
        };
        m.step(&cycle_end(1, 0));
        assert!(m.step(&stall).is_none(), "first stall in window");
        let v = m.step(&stall).expect("second stall in same window");
        assert!(v.detail.contains("bounded at 1"));
        // The next cycle-end re-arms the window.
        let mut m = compiled(
            "prop one { at_most 1 stall-cycle between cycle-end and cycle-end; }",
            4,
        );
        m.step(&cycle_end(1, 0));
        m.step(&stall);
        m.step(&cycle_end(2, 0));
        assert!(m.step(&stall).is_none(), "new window, count reset");
    }

    #[test]
    fn increasing_rejects_non_monotone_ids() {
        let mut m = compiled(
            "prop fifo { increasing retire-start[flush = false].id; }",
            4,
        );
        let rs = |id| Event::RetireStart {
            now: 1,
            id,
            flush: false,
        };
        assert!(m.step(&rs(0)).is_none());
        assert!(m.step(&rs(1)).is_none());
        assert!(m.step(&rs(1)).is_some(), "repeat id");
        // Flushed retirements are filtered out by the match.
        let mut m = compiled(
            "prop fifo { increasing retire-start[flush = false].id; }",
            4,
        );
        m.step(&rs(5));
        let flushed = Event::RetireStart {
            now: 2,
            id: 0,
            flush: true,
        };
        assert!(m.step(&flushed).is_none(), "flush doesn't count");
    }

    #[test]
    fn keys_rename_param_sets_under_the_line_swap() {
        let text = "prop nsf { for_each addr;\n            after store-accepted[addr = $addr] until retire-start\n              never load-resolved[addr = $addr, source = l2-fill]; }";
        let mut a = compiled(text, 4);
        let mut b = compiled(text, 4);
        // a opens addr 0 (line 0); b opens addr 8 (line 1, line_bytes=8).
        a.step(&store(1, 0));
        b.step(&store(1, 8));
        assert_ne!(a.key(None), b.key(None));
        assert_eq!(a.key(None), b.key(Some(8)), "swap makes them coincide");
        // Increasing state is excluded from keys.
        let mut c = compiled("prop fifo { increasing retire-start.id; }", 4);
        let k0 = c.key(None);
        c.step(&Event::RetireStart {
            now: 1,
            id: 3,
            flush: false,
        });
        assert_eq!(k0, c.key(None));
    }

    #[test]
    fn unresolvable_symbol_reports_its_name() {
        let set = parse_props("prop m { always cycle-end[occupancy <= mshrs]; }").unwrap();
        let err = compile_property(&set.props[0], &|_| None).unwrap_err();
        assert_eq!(err, "mshrs");
    }
}
