//! The structured event taxonomy emitted by the simulated machines, and
//! its one wire schema.
//!
//! Every architecturally or microarchitecturally interesting moment in the
//! hierarchy datapath is described by one [`Event`] value: stores entering
//! the buffer, retirements starting and completing, hazards firing, stall
//! cycles with their Table-3 attribution, fills installing, victims
//! writing back, port grants, and load resolutions. Events are plain
//! `Copy` scalars so that the null observer compiles down to nothing (see
//! [`crate::observer`]), and every event carries the cycle (`now`) it was
//! emitted on.
//!
//! [`SCHEMA`] spells the wire format once: each variant's tag, its field
//! names in wire order, and each field's [`FieldKind`] (an unsigned
//! integer, a boolean, or one of an enum's wire names). Everything else
//! derives from it: the JSON codec ([`Event::to_json`], parsed back
//! losslessly by [`Event::from_json`]) that `wbsim trace events` streams
//! as JSONL through [`crate::JsonlObserver`], the `.wbp` property
//! language's alphabet, and the property monitors' field reads
//! ([`Event::tag_index`], [`Event::field`]), so a field or variant added
//! here reaches the wire, the alphabet and the monitors with no edit
//! elsewhere. The encoding is hand-rolled (no serde in the dependency
//! tree) on top of the workspace's shared [`wbsim_types::json`] module.

use std::fmt::{self, Write as _};

use wbsim_types::addr::Addr;
use wbsim_types::divergence::LoadSource;
use wbsim_types::json::Json;
use wbsim_types::policy::LoadHazardPolicy;
use wbsim_types::stall::StallKind;
use wbsim_types::Cycle;

/// Which agent a port grant went to (the event-stream mirror of
/// `PortOwner`, without the entry id — that is on the retirement events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortUse {
    /// A write-buffer entry's retirement or flush transaction.
    WbWrite,
    /// A CPU data read (load miss or write-allocate fetch).
    CpuRead,
    /// An instruction fetch.
    IFetch,
}

wbsim_types::wire_names!(PortUse {
    WbWrite => "wb-write",
    CpuRead => "cpu-read",
    IFetch => "ifetch",
});

/// One observable step of the memory hierarchy. See the module docs for
/// the taxonomy; [`crate::observer::Observer`] receives these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A store entered the write buffer (allocating a new entry, or
    /// merging into an existing entry for the same line).
    StoreAccepted {
        /// Cycle of acceptance.
        now: Cycle,
        /// The store's byte address.
        addr: Addr,
        /// `true` if the store coalesced into an existing entry.
        merged: bool,
    },
    /// A write-buffer entry began its L2 write transaction.
    RetireStart {
        /// Cycle the transaction was issued.
        now: Cycle,
        /// The entry's id.
        id: u64,
        /// `true` for a hazard-triggered flush, `false` for an autonomous
        /// (policy- or age-driven) retirement.
        flush: bool,
    },
    /// A write-buffer entry's L2 write transaction completed and the
    /// entry was freed.
    RetireComplete {
        /// Cycle of completion.
        now: Cycle,
        /// The entry's id.
        id: u64,
        /// The line the entry held.
        line: u64,
        /// Cycles from the entry's allocation to this completion.
        lifetime: u64,
        /// How many words of the entry were valid.
        valid_words: u32,
        /// `true` for a hazard-triggered flush.
        flush: bool,
    },
    /// A load collided with buffered data and the hazard policy acted.
    HazardTriggered {
        /// Cycle the hazard was detected.
        now: Cycle,
        /// The load's byte address.
        addr: Addr,
        /// The policy that handled it.
        policy: LoadHazardPolicy,
        /// Entries the policy will flush (0 under read-from-WB, where the
        /// hazard is a word miss merged into the fill instead).
        flush_entries: u64,
    },
    /// One CPU stall cycle, attributed to the paper's Table-3 taxonomy.
    StallCycle {
        /// The stalled cycle.
        now: Cycle,
        /// Which of the three write-buffer stall categories it lands in.
        kind: StallKind,
    },
    /// A fetched line was installed into L1.
    FillInstalled {
        /// Cycle of installation.
        now: Cycle,
        /// The installed line.
        line: u64,
        /// `true` when the fill completes a write-allocate store miss.
        for_store: bool,
        /// `true` when buffered words were merged into the fill data.
        merged_wb: bool,
    },
    /// A dirty L1 victim entered the write buffer (write-back L1 only).
    VictimWriteback {
        /// Cycle the victim was displaced.
        now: Cycle,
        /// The victim's line.
        line: u64,
        /// `true` if it merged into an existing entry for the same line.
        merged: bool,
    },
    /// The L2 port was granted to an agent.
    PortGranted {
        /// Cycle of the grant.
        now: Cycle,
        /// Who got the port.
        owner: PortUse,
        /// First cycle the port is free again.
        until: Cycle,
    },
    /// A load's value became architecturally visible.
    LoadResolved {
        /// Cycle of resolution.
        now: Cycle,
        /// The load's byte address.
        addr: Addr,
        /// The observed value.
        value: u64,
        /// The datapath that produced it.
        source: LoadSource,
    },
    /// A load left the blocking path without resolving this event stream's
    /// value: it allocated or merged into an MSHR (non-blocking machine).
    /// Together with [`Event::LoadResolved`] this preserves program-order
    /// load ordinals.
    LoadMiss {
        /// Cycle the miss was issued to an MSHR.
        now: Cycle,
        /// The load's byte address.
        addr: Addr,
    },
    /// End-of-cycle heartbeat with the write-buffer occupancy after this
    /// cycle's work (emitted exactly once per simulated cycle).
    CycleEnd {
        /// The cycle that just completed.
        now: Cycle,
        /// Write-buffer occupancy in entries.
        occupancy: u64,
    },
}

/// How a field's values are typed, on the wire and in `.wbp` comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Unsigned integer.
    U64,
    /// Boolean.
    Bool,
    /// One of a closed set of string tokens: an enum's wire names.
    Token(&'static [&'static str]),
}

/// One field's value, of its [`FieldKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldVal {
    /// Unsigned integer.
    U64(u64),
    /// Boolean.
    Bool(bool),
    /// A token.
    Token(&'static str),
}

/// One [`Event`] variant on the wire: its tag, its own fields, and how
/// [`Event::from_json`] builds it from them.
#[derive(Debug, Clone, Copy)]
pub struct TagSpec {
    /// The `"event"` value.
    pub tag: &'static str,
    /// The variant's fields in wire order; [`NOW`] precedes them.
    pub fields: &'static [(&'static str, FieldKind)],
    build: fn(Cycle, &Fields<'_>) -> Result<Event, EventParseError>,
}

/// The cycle stamp every event carries first, after its tag.
pub const NOW: (&str, FieldKind) = ("now", FieldKind::U64);

/// The event schema: one row per [`Event`] variant, in declaration order.
/// A row's builder reads field `i` of the row with `f.<kind>(i)`.
#[rustfmt::skip]
pub static SCHEMA: [TagSpec; 11] = {
    use Event::*;
    use FieldKind::{Bool, Token, U64};
    [
        TagSpec { tag: "store-accepted", fields: &[("addr", U64), ("merged", Bool)],
            build: |now, f| Ok(StoreAccepted { now, addr: f.addr(0)?, merged: f.bool(1)? }) },
        TagSpec { tag: "retire-start", fields: &[("id", U64), ("flush", Bool)],
            build: |now, f| Ok(RetireStart { now, id: f.u64(0)?, flush: f.bool(1)? }) },
        TagSpec { tag: "retire-complete", fields: &[
                ("id", U64), ("line", U64), ("lifetime", U64), ("valid_words", U64),
                ("flush", Bool),
            ],
            build: |now, f| Ok(RetireComplete {
                now, id: f.u64(0)?, line: f.u64(1)?, lifetime: f.u64(2)?, valid_words: f.u32(3)?,
                flush: f.bool(4)?,
            }) },
        TagSpec { tag: "hazard-triggered", fields: &[
                ("addr", U64), ("policy", Token(LoadHazardPolicy::NAMES)), ("flush_entries", U64),
            ],
            build: |now, f| Ok(HazardTriggered {
                now, addr: f.addr(0)?, policy: f.token(1, LoadHazardPolicy::from_name)?,
                flush_entries: f.u64(2)?,
            }) },
        TagSpec { tag: "stall-cycle", fields: &[("kind", Token(StallKind::NAMES))],
            build: |now, f| Ok(StallCycle { now, kind: f.token(0, StallKind::from_name)? }) },
        TagSpec { tag: "fill-installed", fields: &[
                ("line", U64), ("for_store", Bool), ("merged_wb", Bool),
            ],
            build: |now, f| Ok(FillInstalled {
                now, line: f.u64(0)?, for_store: f.bool(1)?, merged_wb: f.bool(2)?,
            }) },
        TagSpec { tag: "victim-writeback", fields: &[("line", U64), ("merged", Bool)],
            build: |now, f| Ok(VictimWriteback { now, line: f.u64(0)?, merged: f.bool(1)? }) },
        TagSpec { tag: "port-granted", fields: &[("owner", Token(PortUse::NAMES)), ("until", U64)],
            build: |now, f| Ok(PortGranted {
                now, owner: f.token(0, PortUse::from_name)?, until: f.u64(1)?,
            }) },
        TagSpec { tag: "load-resolved", fields: &[
                ("addr", U64), ("value", U64), ("source", Token(LoadSource::NAMES)),
            ],
            build: |now, f| Ok(LoadResolved {
                now, addr: f.addr(0)?, value: f.u64(1)?, source: f.token(2, LoadSource::from_name)?,
            }) },
        TagSpec { tag: "load-miss", fields: &[("addr", U64)],
            build: |now, f| Ok(LoadMiss { now, addr: f.addr(0)? }) },
        TagSpec { tag: "cycle-end", fields: &[("occupancy", U64)],
            build: |now, f| Ok(CycleEnd { now, occupancy: f.u64(0)? }) },
    ]
};

impl Event {
    /// The cycle the event was emitted on (every variant carries one).
    #[must_use]
    pub fn now(&self) -> Cycle {
        match *self {
            Event::StoreAccepted { now, .. }
            | Event::RetireStart { now, .. }
            | Event::RetireComplete { now, .. }
            | Event::HazardTriggered { now, .. }
            | Event::StallCycle { now, .. }
            | Event::FillInstalled { now, .. }
            | Event::VictimWriteback { now, .. }
            | Event::PortGranted { now, .. }
            | Event::LoadResolved { now, .. }
            | Event::LoadMiss { now, .. }
            | Event::CycleEnd { now, .. } => now,
        }
    }

    /// The index of the event's row in [`SCHEMA`].
    #[must_use]
    pub const fn tag_index(&self) -> usize {
        match self {
            Event::StoreAccepted { .. } => 0,
            Event::RetireStart { .. } => 1,
            Event::RetireComplete { .. } => 2,
            Event::HazardTriggered { .. } => 3,
            Event::StallCycle { .. } => 4,
            Event::FillInstalled { .. } => 5,
            Event::VictimWriteback { .. } => 6,
            Event::PortGranted { .. } => 7,
            Event::LoadResolved { .. } => 8,
            Event::LoadMiss { .. } => 9,
            Event::CycleEnd { .. } => 10,
        }
    }

    /// The event's tag (`"store-accepted"`, …).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        SCHEMA[self.tag_index()].tag
    }

    /// The value of field `i` of the event's [`SCHEMA`] row.
    ///
    /// # Panics
    ///
    /// Panics if the row has no field `i`.
    #[must_use]
    pub fn field(&self, i: usize) -> FieldVal {
        use FieldVal::{Bool as B, Token as T, U64 as U};
        // Each variant's fields in wire order, as its SCHEMA row names them.
        match *self {
            Event::StoreAccepted { addr, merged, .. } => [U(addr.as_u64()), B(merged)][i],
            Event::RetireStart { id, flush, .. } => [U(id), B(flush)][i],
            Event::RetireComplete {
                id,
                line,
                lifetime,
                valid_words,
                flush,
                ..
            } => [U(id), U(line), U(lifetime), U(valid_words.into()), B(flush)][i],
            Event::HazardTriggered {
                addr,
                policy,
                flush_entries,
                ..
            } => [U(addr.as_u64()), T(policy.name()), U(flush_entries)][i],
            Event::StallCycle { kind, .. } => [T(kind.name())][i],
            Event::FillInstalled {
                line,
                for_store,
                merged_wb,
                ..
            } => [U(line), B(for_store), B(merged_wb)][i],
            Event::VictimWriteback { line, merged, .. } => [U(line), B(merged)][i],
            Event::PortGranted { owner, until, .. } => [T(owner.name()), U(until)][i],
            Event::LoadResolved {
                addr,
                value,
                source,
                ..
            } => [U(addr.as_u64()), U(value), T(source.name())][i],
            Event::LoadMiss { addr, .. } => [U(addr.as_u64())][i],
            Event::CycleEnd { occupancy, .. } => [U(occupancy)][i],
        }
    }

    /// Serializes the event as a single-line JSON object: the `"event"`
    /// key holds the tag, then come `now` and the [`SCHEMA`] row's fields.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }

    /// Appends [`Event::to_json`]'s text to `out`.
    pub fn write_json(&self, out: &mut String) {
        let spec = &SCHEMA[self.tag_index()];
        out.push_str("{\"event\":\"");
        out.push_str(spec.tag);
        out.push_str("\",");
        push_member(out, NOW.0, FieldVal::U64(self.now()));
        for (i, (name, _)) in spec.fields.iter().enumerate() {
            out.push(',');
            push_member(out, name, self.field(i));
        }
        out.push('}');
    }

    /// Parses a single-line JSON object produced by [`Event::to_json`].
    ///
    /// # Errors
    ///
    /// Returns an [`EventParseError`] on malformed JSON, an unknown
    /// `"event"` tag, a missing or mistyped field, or an unknown token.
    pub fn from_json(text: &str) -> Result<Self, EventParseError> {
        let doc =
            wbsim_types::json::parse(text).map_err(|e| EventParseError::new(e.to_string()))?;
        doc.entries()
            .ok_or_else(|| EventParseError::new("not a JSON object"))?;
        let tag = get_str(&doc, "event")?;
        let now = get_u64(&doc, NOW.0)?;
        let Some(spec) = SCHEMA.iter().find(|s| s.tag == tag) else {
            return Err(EventParseError::new(format!("unknown event tag {tag:?}")));
        };
        let fields = Fields {
            doc: &doc,
            names: spec.fields,
        };
        (spec.build)(now, &fields)
    }
}

/// Appends one JSON member, `"name":value`.
fn push_member(out: &mut String, name: &str, value: FieldVal) {
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    match value {
        FieldVal::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldVal::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        FieldVal::Token(t) => {
            out.push('"');
            out.push_str(t);
            out.push('"');
        }
    }
}

/// Why a line failed to parse back into an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventParseError {
    msg: String,
}

impl EventParseError {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    fn field(name: &str, why: &str) -> Self {
        Self {
            msg: format!("field {name:?}: {why}"),
        }
    }
}

impl fmt::Display for EventParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event parse error: {}", self.msg)
    }
}

impl std::error::Error for EventParseError {}

/// One event's JSON object, its members read by the index of their
/// field in the event's [`SCHEMA`] row.
#[derive(Debug)]
struct Fields<'a> {
    doc: &'a Json,
    names: &'static [(&'static str, FieldKind)],
}

impl Fields<'_> {
    fn u64(&self, i: usize) -> Result<u64, EventParseError> {
        get_u64(self.doc, self.names[i].0)
    }

    fn u32(&self, i: usize) -> Result<u32, EventParseError> {
        u32::try_from(self.u64(i)?)
            .map_err(|_| EventParseError::field(self.names[i].0, "exceeds u32"))
    }

    fn addr(&self, i: usize) -> Result<Addr, EventParseError> {
        self.u64(i).map(Addr::new)
    }

    fn bool(&self, i: usize) -> Result<bool, EventParseError> {
        let name = self.names[i].0;
        let value = member(self.doc, name)?.as_bool();
        value.ok_or_else(|| EventParseError::field(name, "expected a boolean"))
    }

    fn token<T>(&self, i: usize, from_name: fn(&str) -> Option<T>) -> Result<T, EventParseError> {
        let name = self.names[i].0;
        from_name(get_str(self.doc, name)?)
            .ok_or_else(|| EventParseError::field(name, "unknown token"))
    }
}

fn member<'a>(doc: &'a Json, name: &str) -> Result<&'a Json, EventParseError> {
    doc.get(name)
        .ok_or_else(|| EventParseError::field(name, "missing"))
}

fn get_u64(doc: &Json, name: &str) -> Result<u64, EventParseError> {
    match member(doc, name)? {
        n @ Json::Num(_) => n
            .as_u64()
            .ok_or_else(|| EventParseError::field(name, "number out of range")),
        _ => Err(EventParseError::field(name, "expected a number")),
    }
}

fn get_str<'a>(doc: &'a Json, name: &str) -> Result<&'a str, EventParseError> {
    let value = member(doc, name)?.as_str();
    value.ok_or_else(|| EventParseError::field(name, "expected a string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<Event> {
        vec![
            Event::StoreAccepted {
                now: 3,
                addr: Addr::new(0x40),
                merged: true,
            },
            Event::RetireStart {
                now: 5,
                id: 7,
                flush: false,
            },
            Event::RetireComplete {
                now: 11,
                id: 7,
                line: 2,
                lifetime: 8,
                valid_words: 3,
                flush: true,
            },
            Event::HazardTriggered {
                now: 4,
                addr: Addr::new(0x20),
                policy: LoadHazardPolicy::FlushPartial,
                flush_entries: 2,
            },
            Event::StallCycle {
                now: 6,
                kind: StallKind::L2ReadAccess,
            },
            Event::FillInstalled {
                now: 9,
                line: 1,
                for_store: false,
                merged_wb: true,
            },
            Event::VictimWriteback {
                now: 9,
                line: 3,
                merged: false,
            },
            Event::PortGranted {
                now: 5,
                owner: PortUse::IFetch,
                until: 11,
            },
            Event::LoadResolved {
                now: 4,
                addr: Addr::new(0x28),
                value: 17,
                source: LoadSource::WriteBuffer,
            },
            Event::LoadMiss {
                now: 4,
                addr: Addr::new(0x30),
            },
            Event::CycleEnd {
                now: 4,
                occupancy: 2,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for ev in all_variants() {
            let json = ev.to_json();
            let back = Event::from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
            assert_eq!(ev, back, "{json}");
        }
    }

    /// Each schema row describes its variant: `all_variants` is in row
    /// order, and every field's value has the row's kind.
    #[test]
    fn schema_rows_type_every_field() {
        let samples = all_variants();
        assert_eq!(samples.len(), SCHEMA.len(), "one sample per row");
        for (i, ev) in samples.iter().enumerate() {
            assert_eq!(ev.tag_index(), i, "{ev:?}");
            for (j, &(name, kind)) in SCHEMA[i].fields.iter().enumerate() {
                let ok = match (kind, ev.field(j)) {
                    (FieldKind::U64, FieldVal::U64(_)) | (FieldKind::Bool, FieldVal::Bool(_)) => {
                        true
                    }
                    (FieldKind::Token(names), FieldVal::Token(t)) => names.contains(&t),
                    _ => false,
                };
                assert!(ok, "{} field {name} is not {kind:?}", ev.tag());
            }
        }
    }

    /// Every wire-name table: each value's name parses back to it, in
    /// table order.
    #[test]
    fn every_name_table_round_trips() {
        use crate::Engine;
        use wbsim_types::divergence::FaultInjection;
        use wbsim_types::policy::{DatapathWidth, L1WritePolicy, RetirementOrder};
        macro_rules! round_trip {
            ($ty:ident: $($v:ident),+) => {{
                let values = [$($ty::$v),+];
                assert_eq!($ty::NAMES.len(), values.len(), stringify!($ty));
                for (v, &name) in values.into_iter().zip($ty::NAMES) {
                    assert_eq!(v.name(), name);
                    assert_eq!($ty::from_name(name), Some(v), "{name}");
                }
            }};
        }
        round_trip!(LoadHazardPolicy: FlushFull, FlushPartial, FlushItemOnly, ReadFromWb);
        round_trip!(StallKind: BufferFull, L2ReadAccess, LoadHazard);
        round_trip!(LoadSource: L1, WriteBuffer, L2Fill);
        round_trip!(FaultInjection: SkipWbForwarding, StarveRetirement, OvershootSkip);
        round_trip!(L1WritePolicy: WriteThrough, WriteBack);
        round_trip!(RetirementOrder: Fifo, Lru);
        round_trip!(DatapathWidth: FullLine, HalfLine);
        round_trip!(PortUse: WbWrite, CpuRead, IFetch);
        round_trip!(Engine: EventDriven, Reference);
        assert_eq!(
            LoadHazardPolicy::from_name("read-from-WB"),
            None,
            "exact match only"
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "not json",
            r#"{"event":"store-accepted"}"#,        // missing fields
            r#"{"event":"no-such-event","now":1}"#, // unknown tag
            r#"{"event":"cycle-end","now":1,}"#,    // trailing comma
            r#"{"event":"stall-cycle","now":1,"kind":"coffee-break"}"#, // unknown token
            r#"{"event":"cycle-end","now":"1","occupancy":0}"#, // mistyped field
        ] {
            assert!(Event::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn output_is_stable_json() {
        let ev = Event::LoadResolved {
            now: 10,
            addr: Addr::new(0x20),
            value: 1,
            source: LoadSource::L1,
        };
        assert_eq!(
            ev.to_json(),
            r#"{"event":"load-resolved","now":10,"addr":32,"value":1,"source":"l1"}"#
        );
        let expected = [
            r#"{"event":"store-accepted","now":3,"addr":64,"merged":true}"#,
            r#"{"event":"retire-start","now":5,"id":7,"flush":false}"#,
            r#"{"event":"retire-complete","now":11,"id":7,"line":2,"lifetime":8,"valid_words":3,"flush":true}"#,
            r#"{"event":"hazard-triggered","now":4,"addr":32,"policy":"flush-partial","flush_entries":2}"#,
            r#"{"event":"stall-cycle","now":6,"kind":"l2-read-access"}"#,
            r#"{"event":"fill-installed","now":9,"line":1,"for_store":false,"merged_wb":true}"#,
            r#"{"event":"victim-writeback","now":9,"line":3,"merged":false}"#,
            r#"{"event":"port-granted","now":5,"owner":"ifetch","until":11}"#,
            r#"{"event":"load-resolved","now":4,"addr":40,"value":17,"source":"write-buffer"}"#,
            r#"{"event":"load-miss","now":4,"addr":48}"#,
            r#"{"event":"cycle-end","now":4,"occupancy":2}"#,
        ];
        let got: Vec<String> = all_variants().iter().map(Event::to_json).collect();
        assert_eq!(got, expected);
    }
}
