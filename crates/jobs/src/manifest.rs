//! Job manifests: the schema-validated description of one unit of work.
//!
//! A [`Manifest`] describes a table/figure sweep grid, a check request, a
//! bench run, or a trace job, plus the [`Options`] every kind shares
//! (workload scale, seed, pool width, engine). Manifests have a pinned
//! JSON wire format (`wbsim-job/1`) parsed with the workspace's shared
//! [`wbsim_types::json`] module; malformed manifests are rejected with
//! structured [`Diagnostic`]s — the same vocabulary the config linter
//! uses — so `wbsim serve` can answer a bad submission with a machine-
//! readable 4xx body instead of a bare string.
//!
//! Each wire member is spelled once: every object has one list of
//! `(wire key, field)` rows in wire order (`OPTION_FIELDS`, and one per
//! job kind in `KINDS`), each field read and written through its type's
//! `Wire` codec. Parsing, [`Manifest::to_json`], [`spec_keys`] and the
//! cache key all walk those lists.
//!
//! A manifest also knows its [`CacheKey`]: the FNV-1a hash of its wire
//! form without the one member that never changes results, the pool
//! width (`jobs`), under the engine version (and, for a check, the
//! property library's and sched report's versions).

use std::fmt::Write as _;

use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_types::diagnostics::{Diagnostic, Severity};
use wbsim_types::divergence::FaultInjection;
use wbsim_types::json::{escape, parse, Json};
use wbsim_types::policy::LoadHazardPolicy;
use wbsim_types::wire::or_list;
use wbsim_types::{CacheKey, KeyHasher};

use wbsim_sim::Engine;

use crate::sched::SchedFault;

/// Schema tag of the manifest wire format. Bump on any field change.
pub const SCHEMA: &str = "wbsim-job/1";

/// Which machine the model checkers drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineSel {
    /// The blocking-load machine of the paper's main sections.
    Blocking,
    /// The non-blocking (MSHR) machine.
    NonBlocking,
}

wbsim_types::wire_names!(MachineSel { Blocking => "blocking", NonBlocking => "nonblocking" });

impl MachineSel {
    /// A wire name in any case, or the CLI's `non-blocking` spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("non-blocking") {
            return Some(Self::NonBlocking);
        }
        s.parse().ok()
    }
}

/// How a check job obtains the configuration to lint. Mirrors the CLI: a
/// `--config` file submits its *text* (so daemon clients never depend on
/// server-side paths), flags submit unvalidated overrides of the baseline
/// — rejecting a bad configuration is the linter's job, with a structured
/// diagnostic rather than a bare error.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckConfig {
    /// Full `.wbcfg` text; when present, the override fields must be unset.
    pub file: Option<String>,
    /// `--depth` override of the baseline.
    pub depth: Option<usize>,
    /// `--retire-at` override of the baseline.
    pub retire_at: Option<usize>,
    /// `--hazard` override of the baseline.
    pub hazard: Option<LoadHazardPolicy>,
}

/// Spec of a check job (`wbsim check --json` as a manifest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSpec {
    /// Run the bounded exhaustive pass.
    pub exhaustive: bool,
    /// Run the unbounded reachability pass.
    pub reach: bool,
    /// Run the cross-engine refinement pass.
    pub refine: bool,
    /// Which machine the model checkers drive.
    pub machine: MachineSel,
    /// Pinned MSHR count for the non-blocking machine (`None` = 1..4).
    pub mshrs: Option<usize>,
    /// Op-sequence length bound for the exhaustive pass.
    pub max_ops: u32,
    /// Deliberate fault injection, if any.
    pub fault: Option<FaultInjection>,
    /// Run the temporal-property pass.
    pub props: bool,
    /// Full `.wbp` text of the property set; `None` uses the built-in
    /// library (submitted as text, like [`CheckConfig::file`], so daemon
    /// clients never depend on server-side paths).
    pub props_file: Option<String>,
    /// Run the host concurrency model-check pass (`wbsim check --sched`).
    pub sched: bool,
    /// Injected host-concurrency fault, if any (`lost-wakeup` /
    /// `dup-execute`); only meaningful with `sched`.
    pub sched_fault: Option<SchedFault>,
    /// Preemption bound override for the sched pass (`None` = default).
    pub sched_preemptions: Option<usize>,
    /// The configuration under lint.
    pub config: CheckConfig,
}

impl Default for CheckSpec {
    fn default() -> Self {
        CheckSpec {
            exhaustive: false,
            reach: false,
            refine: false,
            machine: MachineSel::Blocking,
            mshrs: None,
            max_ops: 5,
            fault: None,
            props: false,
            props_file: None,
            sched: false,
            sched_fault: None,
            sched_preemptions: None,
            config: CheckConfig::default(),
        }
    }
}

/// Output format of a figure job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureFormat {
    /// Terminal bar chart (`render_figure`).
    Text,
    /// CSV rows (`figure_csv`).
    Csv,
    /// One SVG artifact per figure (`svg_figure`).
    Svg,
}

wbsim_types::wire_names!(FigureFormat { Text => "text", Csv => "csv", Svg => "svg" });

/// The kind-specific part of a manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// One paper table (or `all`), rendered exactly as `wbsim table`.
    Table {
        /// `1`..`7`, `wb`, or `all`.
        which: String,
    },
    /// One paper figure (or `all`), rendered exactly as `wbsim figure`.
    Figure {
        /// `3`..`13` or `all`.
        which: String,
        /// Output format.
        format: FigureFormat,
    },
    /// A `wbsim check --json` request.
    Check(CheckSpec),
    /// A `wbsim bench` measurement.
    Bench {
        /// Full passes over the table-7 cell grid.
        samples: u64,
    },
    /// A structured event-stream capture (`wbsim trace events`).
    Trace {
        /// Benchmark model name.
        bench: String,
        /// Canonical `.wbcfg` text of the (validated) configuration.
        config: String,
        /// MSHR count; `0` runs the blocking machine.
        mshrs: usize,
    },
}

impl JobKind {
    /// Wire token of the kind.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            JobKind::Table { .. } => "table",
            JobKind::Figure { .. } => "figure",
            JobKind::Check(_) => "check",
            JobKind::Bench { .. } => "bench",
            JobKind::Trace { .. } => "trace",
        }
    }
}

/// Options every job kind shares. Defaults mirror the CLI defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Measured instructions per benchmark per configuration.
    pub instructions: u64,
    /// Warmup instructions (excluded from measurement).
    pub warmup: u64,
    /// Base seed for trace generation.
    pub seed: u64,
    /// Verify every load against the golden functional model.
    pub check_data: bool,
    /// Worker-pool width; `0` auto-sizes to the machine. Excluded from
    /// the cache key — pool width never changes results.
    pub jobs: usize,
    /// Run-loop engine for simulation cells.
    pub engine: Engine,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            instructions: 1_000_000,
            warmup: 333_333,
            seed: 42,
            check_data: false,
            jobs: 0,
            engine: Engine::default(),
        }
    }
}

impl Options {
    /// The experiments [`wbsim_experiments::harness::Harness`] these
    /// options describe.
    #[must_use]
    pub fn harness(&self) -> wbsim_experiments::harness::Harness {
        wbsim_experiments::harness::Harness {
            instructions: self.instructions,
            warmup: self.warmup,
            seed: self.seed,
            check_data: self.check_data,
            jobs: self.jobs,
            engine: self.engine,
        }
    }
}

/// One schema-validated unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// What to run.
    pub kind: JobKind,
    /// Shared scale/seed/pool options.
    pub options: Options,
}

/// How a field type reads from and writes to the wire. `read` never sees
/// `null`: a `null` member reads as an absent one.
trait Wire: Sized {
    /// The value `v` spells, or what it must be (`"must be a boolean"`).
    fn read(v: &Json) -> Result<Self, String>;
    /// Appends the value as JSON.
    fn write(&self, out: &mut String);
}

impl Wire for bool {
    fn read(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "must be a boolean".into())
    }
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

/// Integers are range-checked: a number the field cannot hold is refused,
/// never truncated.
macro_rules! wire_ints {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            fn read(v: &Json) -> Result<Self, String> {
                let n = v.as_u64().ok_or("must be an integer")?;
                Self::try_from(n).map_err(|_| format!("must be at most {}", Self::MAX))
            }
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )+};
}

wire_ints!(u32, u64, usize);

impl Wire for String {
    fn read(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "must be a string".into())
    }
    fn write(&self, out: &mut String) {
        out.push_str(&escape(self));
    }
}

impl<T: Wire> Wire for Option<T> {
    fn read(v: &Json) -> Result<Self, String> {
        T::read(v).map(Some)
    }
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

/// `wire_names!` enums write their wire name and read through `lookup`,
/// which takes any case; a miss lists the names.
macro_rules! wire_enums {
    ($($ty:ty => $lookup:expr),+ $(,)?) => {$(
        impl Wire for $ty {
            fn read(v: &Json) -> Result<Self, String> {
                v.as_str().and_then($lookup).ok_or_else(|| {
                    let quoted: Vec<String> = Self::NAMES.iter().map(|n| format!("{n:?}")).collect();
                    format!("must be {}", or_list(&quoted, " or "))
                })
            }
            fn write(&self, out: &mut String) {
                out.push_str(&escape(self.name()));
            }
        }
    )+};
}

wire_enums! {
    MachineSel => MachineSel::parse,
    FigureFormat => |s| s.parse().ok(),
    FaultInjection => |s| s.parse().ok(),
    SchedFault => |s| s.parse().ok(),
    LoadHazardPolicy => |s| s.parse().ok(),
    Engine => |s| s.parse().ok(),
}

/// One member of a manifest object: its wire key and the field it fills.
struct Field<T> {
    key: &'static str,
    /// Whether the member can change a job's results, and so enters the
    /// cache key.
    keyed: bool,
    read: fn(&mut T, &Json) -> Result<(), String>,
    write: fn(&T, &mut String),
}

/// `fields!(Type: pattern => { "key" => place, … })`: a field list in wire
/// order, each `place` a field of what `pattern` binds in a `Type`. A row
/// ending `; unkeyed` stays out of the cache key.
macro_rules! fields {
    ($ty:ty: $bind:pat => { $($key:literal => $place:expr $(; $unkeyed:ident)?),+ $(,)? }) => {
        &[$(Field {
            key: $key,
            keyed: fields!(@keyed $($unkeyed)?),
            read: |target: &mut $ty, v| {
                #[allow(irrefutable_let_patterns, unused_variables)]
                let $bind = target else { unreachable!("a kind reads its own fields") };
                $place = Wire::read(v)?;
                Ok(())
            },
            write: |target: &$ty, out| {
                #[allow(irrefutable_let_patterns, unused_variables)]
                let $bind = target else { unreachable!("a kind writes its own fields") };
                Wire::write(&$place, out);
            },
        }),+]
    };
    (@keyed) => { true };
    (@keyed unkeyed) => { false };
}

/// The `options` members.
const OPTION_FIELDS: &[Field<Options>] = fields!(Options: o => {
    "instructions" => o.instructions,
    "warmup" => o.warmup,
    "seed" => o.seed,
    "check_data" => o.check_data,
    "jobs" => o.jobs; unkeyed,
    "engine" => o.engine,
});

/// One job kind's `spec`: its value before any member is read (every
/// optional member at its default), the members it requires, and its
/// fields. The kind's tag is its value's [`JobKind::tag`].
struct Kind {
    blank: fn() -> JobKind,
    required: &'static [&'static str],
    fields: &'static [Field<JobKind>],
}

const KINDS: &[Kind] = &[
    Kind {
        blank: || JobKind::Table {
            which: String::new(),
        },
        required: &["which"],
        fields: fields!(JobKind: JobKind::Table { which } => { "which" => *which }),
    },
    Kind {
        blank: || JobKind::Figure {
            which: String::new(),
            format: FigureFormat::Text,
        },
        required: &["which"],
        fields: fields!(JobKind: JobKind::Figure { which, format } => {
            "which" => *which,
            "format" => *format,
        }),
    },
    Kind {
        blank: || JobKind::Check(CheckSpec::default()),
        required: &[],
        fields: fields!(JobKind: JobKind::Check(s) => {
            "exhaustive" => s.exhaustive,
            "reach" => s.reach,
            "refine" => s.refine,
            "machine" => s.machine,
            "mshrs" => s.mshrs,
            "max_ops" => s.max_ops,
            "fault" => s.fault,
            "props" => s.props,
            "props_file" => s.props_file,
            "sched" => s.sched,
            "sched_fault" => s.sched_fault,
            "sched_preemptions" => s.sched_preemptions,
            "config" => s.config.file,
            "depth" => s.config.depth,
            "retire_at" => s.config.retire_at,
            "hazard" => s.config.hazard,
        }),
    },
    Kind {
        blank: || JobKind::Bench { samples: 3 },
        required: &[],
        fields: fields!(JobKind: JobKind::Bench { samples } => { "samples" => *samples }),
    },
    Kind {
        blank: || JobKind::Trace {
            bench: String::new(),
            config: String::new(),
            mshrs: 0,
        },
        required: &["bench"],
        fields: fields!(JobKind: JobKind::Trace { bench, config, mshrs } => {
            "bench" => *bench,
            "config" => *config,
            "mshrs" => *mshrs,
        }),
    },
];

/// The kind whose tag is `tag`.
fn kind_named(tag: &str) -> Option<&'static Kind> {
    KINDS.iter().find(|k| (k.blank)().tag() == tag)
}

/// The `spec` keys a manifest of kind `tag` takes, in wire order (none
/// for an unknown kind). `docs/serving.md` lists the check keys, and each
/// `wbsim check` option names the ones it sets.
#[must_use]
pub fn spec_keys(tag: &str) -> Vec<&'static str> {
    kind_named(tag).map_or_else(Vec::new, |k| k.fields.iter().map(|f| f.key).collect())
}

/// Reads object `v` into `target` through `fields`, pushing each problem
/// as a `code` diagnostic at `path` (or `path.key`). A `null` member reads
/// as an absent one. Of a repeated key, the first member counts when
/// `first_wins`, else the last, as `wbsim-job/1` has always read `spec`
/// and `options`.
fn read_object<T>(
    target: &mut T,
    fields: &[Field<T>],
    v: &Json,
    (code, path, what): (&'static str, &str, &str),
    first_wins: bool,
    errs: &mut Vec<Diagnostic>,
) {
    let Some(members) = v.entries() else {
        errs.push(diag(code, path, format!("{path} must be an object")));
        return;
    };
    for (i, (key, value)) in members.iter().enumerate() {
        let Some(field) = fields.iter().find(|f| f.key == key) else {
            errs.push(diag(code, path, format!("unknown {what} key {key:?}")));
            continue;
        };
        let repeated = first_wins && members[..i].iter().any(|(k, _)| k == key);
        if value.is_null() || repeated {
            continue;
        }
        if let Err(why) = (field.read)(target, value) {
            errs.push(diag(code, &format!("{path}.{key}"), format!("{key} {why}")));
        }
    }
}

/// The top-level string member `key` (`Ok(None)` when absent or `null`,
/// as [`Wire`] reads a member), or what a value of another type must be.
fn str_member<'a>(key: &str, v: Option<&'a Json>) -> Result<Option<&'a str>, String> {
    match v.filter(|v| !v.is_null()) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("{key} must be a string, got {}", v.render())),
    }
}

/// Appends `target` as a JSON object of `fields`, in order; `all: false`
/// leaves out the unkeyed ones.
fn write_object<T>(target: &T, fields: &[Field<T>], all: bool, out: &mut String) {
    out.push('{');
    for (i, field) in fields.iter().filter(|f| all || f.keyed).enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Keys are plain identifiers (see the tests), written unescaped.
        let _ = write!(out, "\"{}\":", field.key);
        (field.write)(target, out);
    }
    out.push('}');
}

fn diag(code: &'static str, path: &str, message: String) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, path.to_string()).with_message(message)
}

impl Manifest {
    /// The content-addressed key of this manifest's results: its wire
    /// form without the unkeyed members (pool width), hashed under the
    /// engine version ([`KeyHasher::new`]) and, for a check, the property
    /// library's and the sched report's versions. Every keyed member on
    /// the wire is in the key.
    #[must_use]
    pub fn cache_key(&self) -> CacheKey {
        let mut h = KeyHasher::new();
        h.field("manifest", &self.wire(false));
        if let JobKind::Check(_) = self.kind {
            h.field("prop_library_version", wbsim_check::PROP_LIBRARY_VERSION)
                .field("sched_schema", wbsim_check::sched::SCHED_SCHEMA);
        }
        h.finish()
    }

    /// Semantic validation beyond what parsing enforces. Empty = valid.
    /// Error messages for unknown tables/figures match the CLI's exactly,
    /// so routing through the job layer does not change what users see.
    #[must_use]
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut err = |code, path, message: &str| out.push(diag(code, path, message.into()));
        match &self.kind {
            JobKind::Table { which } => {
                if !matches!(
                    which.as_str(),
                    "1" | "2" | "3" | "4" | "5" | "6" | "7" | "wb" | "all"
                ) {
                    let msg = format!(
                        "no table {which} (the paper has 1..7; `wb` is the event-derived \
                         utilization table)"
                    );
                    err("JOB010", "spec.which", &msg);
                }
            }
            JobKind::Figure { which, .. } => {
                let known = which == "all"
                    || which
                        .parse::<u32>()
                        .is_ok_and(|n| (3..=13).contains(&n) && *which == n.to_string());
                if !known {
                    let msg = format!("no figure {which} (the paper has 3..13)");
                    err("JOB011", "spec.which", &msg);
                }
            }
            JobKind::Check(spec) => {
                let c = &spec.config;
                if c.file.is_some()
                    && (c.depth.is_some() || c.retire_at.is_some() || c.hazard.is_some())
                {
                    let msg = "a config file and override fields are mutually exclusive";
                    err("JOB012", "spec.config", msg);
                }
                if spec.mshrs == Some(0) {
                    err(
                        "JOB013",
                        "spec.mshrs",
                        "mshrs must be >= 1 (omit to sweep 1-4)",
                    );
                }
                if spec.exhaustive && spec.max_ops == 0 {
                    let msg =
                        "max_ops must be >= 1 (an exhaustive check of length 0 checks nothing)";
                    err("JOB018", "spec.max_ops", msg);
                }
            }
            JobKind::Bench { samples } => {
                if *samples == 0 {
                    err("JOB014", "spec.samples", "samples must be >= 1");
                }
            }
            JobKind::Trace { bench, config, .. } => {
                if BenchmarkModel::from_name(bench).is_none() {
                    err(
                        "JOB015",
                        "spec.bench",
                        &format!("unknown benchmark {bench:?}"),
                    );
                }
                if config.trim().is_empty() {
                    let msg = "trace jobs need the machine configuration text";
                    err("JOB016", "spec.config", msg);
                }
            }
        }
        if self.options.instructions == 0 {
            err(
                "JOB017",
                "options.instructions",
                "instructions must be >= 1",
            );
        }
        out
    }

    /// Serializes to the pinned `wbsim-job/1` wire format (compact, fixed
    /// field order, so identical manifests serialize identically).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.wire(true)
    }

    /// The wire form; `all: false` leaves out the unkeyed members.
    fn wire(&self, all: bool) -> String {
        let tag = self.kind.tag();
        let mut out = format!(
            "{{\"schema\":{},\"kind\":{},\"spec\":",
            escape(SCHEMA),
            escape(tag)
        );
        let kind = kind_named(tag).expect("every kind has a field list");
        write_object(&self.kind, kind.fields, all, &mut out);
        out.push_str(",\"options\":");
        write_object(&self.options, OPTION_FIELDS, all, &mut out);
        out.push('}');
        out
    }

    /// Parses and validates a manifest. All problems are reported at once
    /// as structured diagnostics — the daemon's 4xx body and the CLI's
    /// error message both come straight from this list.
    pub fn from_json(text: &str) -> Result<Manifest, Vec<Diagnostic>> {
        let doc = parse(text)
            .map_err(|e| vec![diag("JOB001", "manifest", format!("not valid JSON: {e}"))])?;
        let members = doc
            .entries()
            .ok_or_else(|| vec![diag("JOB001", "manifest", "expected a JSON object".into())])?;
        let mut errs = Vec::new();
        let (mut schema, mut tag, mut spec, mut options) = (None, None, None, None);
        for (key, value) in members {
            match key.as_str() {
                "schema" => schema = Some(value),
                "kind" => tag = Some(value),
                "spec" => spec = Some(value),
                "options" => options = Some(value),
                other => errs.push(diag(
                    "JOB002",
                    "manifest",
                    format!("unknown manifest key {other:?}"),
                )),
            }
        }
        match str_member("schema", schema) {
            Ok(Some(s)) if s == SCHEMA => {}
            Ok(Some(s)) => errs.push(diag(
                "JOB003",
                "schema",
                format!("schema mismatch: manifest says {s:?}, this server understands {SCHEMA:?}"),
            )),
            Ok(None) => errs.push(diag(
                "JOB003",
                "schema",
                format!("missing schema (expected {SCHEMA:?})"),
            )),
            Err(msg) => errs.push(diag("JOB003", "schema", msg)),
        }
        let mut o = Options::default();
        if let Some(v) = options {
            let at = ("JOB006", "options", "options");
            read_object(&mut o, OPTION_FIELDS, v, at, false, &mut errs);
            // The CLI's default warmup tracks instructions; so does an
            // absent one here.
            if v.get("warmup").is_none_or(Json::is_null) {
                o.warmup = o.instructions / 3;
            }
        }
        let kind = match str_member("kind", tag).map(|t| t.map(|t| (t, kind_named(t)))) {
            Err(msg) => {
                errs.push(diag("JOB004", "kind", msg));
                None
            }
            Ok(None) => {
                errs.push(diag("JOB004", "kind", "missing job kind".to_string()));
                None
            }
            Ok(Some((t, None))) => {
                let tags: Vec<&str> = KINDS.iter().map(|k| (k.blank)().tag()).collect();
                let msg = format!("unknown job kind {t:?} ({})", tags.join(" | "));
                errs.push(diag("JOB004", "kind", msg));
                None
            }
            Ok(Some((t, Some(k)))) => {
                let empty = Json::Obj(Vec::new());
                let spec = spec.unwrap_or(&empty);
                let mut kind = (k.blank)();
                let what = format!("{t} spec");
                read_object(
                    &mut kind,
                    k.fields,
                    spec,
                    ("JOB005", "spec", &what),
                    true,
                    &mut errs,
                );
                for key in k.required {
                    if spec.get(key).is_none_or(Json::is_null) {
                        let msg = format!("{key} is required");
                        errs.push(diag("JOB005", &format!("spec.{key}"), msg));
                    }
                }
                Some(kind)
            }
        };
        match kind {
            Some(kind) if errs.is_empty() => {
                let m = Manifest { kind, options: o };
                let semantic = m.validate();
                if semantic.is_empty() {
                    Ok(m)
                } else {
                    Err(semantic)
                }
            }
            _ => Err(errs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table4() -> Manifest {
        Manifest {
            kind: JobKind::Table {
                which: "4".to_string(),
            },
            options: Options {
                instructions: 5_000,
                warmup: 1_000,
                seed: 1,
                check_data: true,
                jobs: 2,
                engine: Engine::EventDriven,
            },
        }
    }

    /// A check with every field away from its default.
    fn every_check_field() -> Manifest {
        Manifest {
            kind: JobKind::Check(CheckSpec {
                exhaustive: true,
                reach: true,
                refine: true,
                machine: MachineSel::NonBlocking,
                mshrs: Some(2),
                max_ops: 3,
                fault: Some(FaultInjection::OvershootSkip),
                props: true,
                props_file: Some("prop p { desc \"d\"; always cycle-end; }\n".to_string()),
                sched: true,
                sched_fault: Some(SchedFault::LostWakeup),
                sched_preemptions: Some(3),
                config: CheckConfig {
                    file: Some("wb.depth = 4\n".to_string()),
                    depth: Some(6),
                    retire_at: Some(2),
                    hazard: Some(LoadHazardPolicy::ReadFromWb),
                },
            }),
            options: Options {
                engine: Engine::Reference,
                jobs: 3,
                ..Options::default()
            },
        }
    }

    fn parse_err(text: &str) -> Vec<Diagnostic> {
        Manifest::from_json(text).expect_err(text)
    }

    #[test]
    fn round_trips_through_json() {
        for m in [
            table4(),
            Manifest {
                kind: JobKind::Figure {
                    which: "3".into(),
                    format: FigureFormat::Csv,
                },
                options: Options::default(),
            },
            Manifest {
                kind: JobKind::Check(CheckSpec {
                    exhaustive: true,
                    refine: true,
                    machine: MachineSel::NonBlocking,
                    mshrs: Some(2),
                    max_ops: 3,
                    fault: Some(FaultInjection::OvershootSkip),
                    sched: true,
                    sched_fault: Some(SchedFault::LostWakeup),
                    sched_preemptions: Some(3),
                    config: CheckConfig {
                        depth: Some(6),
                        hazard: Some(LoadHazardPolicy::ReadFromWb),
                        ..CheckConfig::default()
                    },
                    ..CheckSpec::default()
                }),
                options: Options::default(),
            },
            Manifest {
                kind: JobKind::Bench { samples: 2 },
                options: Options::default(),
            },
            Manifest {
                kind: JobKind::Trace {
                    bench: "compress".into(),
                    config: "wb.depth = 4\n".into(),
                    mshrs: 2,
                },
                options: Options::default(),
            },
        ] {
            let back = Manifest::from_json(&m.to_json()).expect("round trip");
            assert_eq!(back, m);
            assert_eq!(back.cache_key(), m.cache_key());
        }
    }

    /// The `wbsim-job/1` bytes of a manifest of every kind, and of a check
    /// with every field set, as the format has always written them.
    #[test]
    fn to_json_bytes_are_pinned() {
        let default_check = Manifest {
            kind: JobKind::Check(CheckSpec::default()),
            options: Options::default(),
        };
        let figure = Manifest {
            kind: JobKind::Figure {
                which: "3".into(),
                format: FigureFormat::Csv,
            },
            options: Options::default(),
        };
        let bench = Manifest {
            kind: JobKind::Bench { samples: 2 },
            options: Options::default(),
        };
        let trace = Manifest {
            kind: JobKind::Trace {
                bench: "compress".into(),
                config: "wb.depth = 4\n".into(),
                mshrs: 2,
            },
            options: Options::default(),
        };
        let defaults = r#""options":{"instructions":1000000,"warmup":333333,"seed":42,"check_data":false,"jobs":0,"engine":"event-driven"}}"#;
        for (m, want) in [
            (
                table4(),
                r#"{"schema":"wbsim-job/1","kind":"table","spec":{"which":"4"},"options":{"instructions":5000,"warmup":1000,"seed":1,"check_data":true,"jobs":2,"engine":"event-driven"}}"#.to_string(),
            ),
            (
                figure,
                format!(r#"{{"schema":"wbsim-job/1","kind":"figure","spec":{{"which":"3","format":"csv"}},{defaults}"#),
            ),
            (
                every_check_field(),
                r#"{"schema":"wbsim-job/1","kind":"check","spec":{"exhaustive":true,"reach":true,"refine":true,"machine":"nonblocking","mshrs":2,"max_ops":3,"fault":"overshoot-skip","props":true,"props_file":"prop p { desc \"d\"; always cycle-end; }\n","sched":true,"sched_fault":"lost-wakeup","sched_preemptions":3,"config":"wb.depth = 4\n","depth":6,"retire_at":2,"hazard":"read-from-wb"},"options":{"instructions":1000000,"warmup":333333,"seed":42,"check_data":false,"jobs":3,"engine":"reference"}}"#.to_string(),
            ),
            (
                default_check,
                format!(r#"{{"schema":"wbsim-job/1","kind":"check","spec":{{"exhaustive":false,"reach":false,"refine":false,"machine":"blocking","mshrs":null,"max_ops":5,"fault":null,"props":false,"props_file":null,"sched":false,"sched_fault":null,"sched_preemptions":null,"config":null,"depth":null,"retire_at":null,"hazard":null}},{defaults}"#),
            ),
            (
                bench,
                format!(r#"{{"schema":"wbsim-job/1","kind":"bench","spec":{{"samples":2}},{defaults}"#),
            ),
            (
                trace,
                format!(r#"{{"schema":"wbsim-job/1","kind":"trace","spec":{{"bench":"compress","config":"wb.depth = 4\n","mshrs":2}},{defaults}"#),
            ),
        ] {
            assert_eq!(m.to_json(), want);
        }
    }

    #[test]
    fn malformed_manifests_yield_structured_diagnostics() {
        for (text, needle) in [
            ("not json", "not valid JSON"),
            ("{}", "missing schema"),
            (
                "{\"schema\":\"bogus/9\",\"kind\":\"table\"}",
                "schema mismatch",
            ),
            (
                "{\"schema\":\"wbsim-job/1\",\"kind\":\"frobnicate\"}",
                "unknown job kind",
            ),
            (
                "{\"schema\":\"wbsim-job/1\",\"kind\":\"table\",\"spec\":{\"which\":\"9\"}}",
                "no table 9",
            ),
            (
                "{\"schema\":\"wbsim-job/1\",\"kind\":\"figure\",\"spec\":{\"which\":\"2\"}}",
                "no figure 2",
            ),
            (
                "{\"schema\":\"wbsim-job/1\",\"kind\":\"check\",\
                 \"spec\":{\"config\":\"wb.depth = 4\",\"depth\":8}}",
                "mutually exclusive",
            ),
            (
                "{\"schema\":\"wbsim-job/1\",\"kind\":\"table\",\
                 \"spec\":{\"which\":\"4\"},\"options\":{\"engine\":\"warp\"}}",
                "engine must be",
            ),
        ] {
            let errs = parse_err(text);
            assert!(!errs.is_empty(), "{text}");
            assert!(
                errs.iter().any(|d| d.message.contains(needle)),
                "{text}: wanted {needle:?} in {errs:?}"
            );
            assert!(errs.iter().all(|d| d.severity == Severity::Error));
        }
    }

    /// A `schema` or `kind` of another JSON type is refused as such,
    /// naming the value, not read as an absent member.
    #[test]
    fn a_mistyped_schema_or_kind_names_the_value() {
        for (text, code, path, message) in [
            (
                r#"{"schema":"wbsim-job/1","kind":5}"#,
                "JOB004",
                "kind",
                "kind must be a string, got 5",
            ),
            (
                r#"{"schema":5,"kind":"table","spec":{"which":"4"}}"#,
                "JOB003",
                "schema",
                "schema must be a string, got 5",
            ),
        ] {
            let errs = parse_err(text);
            let got: Vec<_> = errs
                .iter()
                .map(|d| (d.code, d.field_path.as_str(), d.message.as_str()))
                .collect();
            assert_eq!(got, [(code, path, message)], "{text}");
        }
    }

    /// Each bad member is named by its code, its path and its field, and an
    /// enum's message lists the names it takes.
    #[test]
    fn a_bad_member_names_its_field() {
        let check = |spec: &str| {
            format!("{{\"schema\":\"wbsim-job/1\",\"kind\":\"check\",\"spec\":{{{spec}}}}}")
        };
        for (text, code, path, message) in [
            (
                check("\"max_ops\":4294967296"),
                "JOB005",
                "spec.max_ops",
                "max_ops must be at most 4294967295",
            ),
            (
                check("\"mshrs\":\"2\""),
                "JOB005",
                "spec.mshrs",
                "mshrs must be an integer",
            ),
            (
                check("\"reach\":1"),
                "JOB005",
                "spec.reach",
                "reach must be a boolean",
            ),
            (
                check("\"props_file\":false"),
                "JOB005",
                "spec.props_file",
                "props_file must be a string",
            ),
            (
                check("\"hazard\":\"sometimes\""),
                "JOB005",
                "spec.hazard",
                "hazard must be \"flush-full\"",
            ),
            (
                check("\"machine\":\"mshr\""),
                "JOB005",
                "spec.machine",
                "machine must be \"blocking\" or \"nonblocking\"",
            ),
            (
                check("\"frobs\":true"),
                "JOB005",
                "spec",
                "unknown check spec key \"frobs\"",
            ),
            (
                check("\"exhaustive\":true,\"max_ops\":0"),
                "JOB018",
                "spec.max_ops",
                "max_ops must be >= 1",
            ),
            (
                "{\"schema\":\"wbsim-job/1\",\"kind\":\"table\"}".to_string(),
                "JOB005",
                "spec.which",
                "which is required",
            ),
            (
                "{\"schema\":\"wbsim-job/1\",\"kind\":\"bench\",\"spec\":[]}".to_string(),
                "JOB005",
                "spec",
                "spec must be an object",
            ),
            (
                "{\"schema\":\"wbsim-job/1\",\"kind\":\"bench\",\"options\":{\"seed\":-1}}"
                    .to_string(),
                "JOB006",
                "options.seed",
                "seed must be an integer",
            ),
            (
                "{\"schema\":\"wbsim-job/1\",\"kind\":\"bench\",\"options\":{\"speed\":1}}"
                    .to_string(),
                "JOB006",
                "options",
                "unknown options key \"speed\"",
            ),
        ] {
            let errs = parse_err(&text);
            assert!(
                errs.iter().any(|d| d.code == code
                    && d.field_path == path
                    && d.message.starts_with(message)),
                "{text}: wanted {code} at {path} saying {message:?} in {errs:?}"
            );
        }
    }

    /// What people type: an enum member in any case, the CLI's
    /// `non-blocking`, and `null` for an absent member.
    #[test]
    fn members_read_as_people_write_them() {
        let check = |spec: &str| {
            let text =
                format!("{{\"schema\":\"wbsim-job/1\",\"kind\":\"check\",\"spec\":{{{spec}}}}}");
            match Manifest::from_json(&text)
                .unwrap_or_else(|e| panic!("{text}: {e:?}"))
                .kind
            {
                JobKind::Check(s) => s,
                other => panic!("{other:?}"),
            }
        };
        let s = check(
            "\"exhaustive\":true,\"fault\":\"SKIP-WB-FORWARDING\",\"hazard\":\"Read-From-WB\",\
             \"sched_fault\":\"Lost-Wakeup\"",
        );
        assert_eq!(s.fault, Some(FaultInjection::SkipWbForwarding));
        assert_eq!(s.config.hazard, Some(LoadHazardPolicy::ReadFromWb));
        assert_eq!(s.sched_fault, Some(SchedFault::LostWakeup));
        for machine in ["non-blocking", "nonblocking", "NonBlocking"] {
            let s = check(&format!("\"machine\":\"{machine}\""));
            assert_eq!(s.machine, MachineSel::NonBlocking, "{machine}");
        }
        let nulls: Vec<String> = spec_keys("check")
            .iter()
            .map(|k| format!("\"{k}\":null"))
            .collect();
        assert_eq!(check(&nulls.join(",")), CheckSpec::default());
        let m = Manifest::from_json(
            "{\"schema\":\"wbsim-job/1\",\"kind\":\"figure\",\
             \"spec\":{\"which\":\"3\",\"format\":\"SVG\"},\"options\":{\"engine\":\"Reference\"}}",
        )
        .unwrap();
        assert_eq!(
            m.kind,
            JobKind::Figure {
                which: "3".into(),
                format: FigureFormat::Svg
            }
        );
        assert_eq!(m.options.engine, Engine::Reference);
    }

    /// A repeated `spec` key counts at its first member and a repeated
    /// option at its last, as the format has always read them.
    #[test]
    fn a_repeated_key_reads_as_it_always_has() {
        let m = Manifest::from_json(
            "{\"schema\":\"wbsim-job/1\",\"kind\":\"table\",\
             \"spec\":{\"which\":\"4\",\"which\":5},\"options\":{\"seed\":1,\"seed\":2}}",
        )
        .unwrap();
        assert_eq!(m.kind, JobKind::Table { which: "4".into() });
        assert_eq!(m.options.seed, 2);
    }

    #[test]
    fn default_warmup_tracks_instructions_like_the_cli() {
        let m = Manifest::from_json(
            "{\"schema\":\"wbsim-job/1\",\"kind\":\"table\",\
             \"spec\":{\"which\":\"4\"},\"options\":{\"instructions\":9000}}",
        )
        .unwrap();
        assert_eq!(m.options.warmup, 3000);
    }

    #[test]
    fn serving_doc_lists_every_check_spec_key() {
        let doc = include_str!("../../../docs/serving.md");
        let row = doc
            .lines()
            .find(|l| l.trim_start().starts_with("| `check` |"))
            .expect("docs/serving.md has a check row");
        for key in spec_keys("check") {
            assert!(
                row.contains(&format!("`{key}`")),
                "{key} missing from {row}"
            );
        }
    }

    #[test]
    fn every_field_list_names_each_key_once() {
        let lists = KINDS
            .iter()
            .map(|k| k.fields.iter().map(|f| f.key).collect::<Vec<_>>())
            .chain([OPTION_FIELDS.iter().map(|f| f.key).collect()]);
        for keys in lists {
            for (i, key) in keys.iter().enumerate() {
                assert!(!keys[..i].contains(key), "{key} twice in {keys:?}");
                let plain = key.bytes().all(|b| b.is_ascii_lowercase() || b == b'_');
                assert!(plain, "{key} would need escaping on the wire");
            }
        }
        assert_eq!(spec_keys("check").len(), 16);
        assert!(spec_keys("frobnicate").is_empty());
    }

    #[test]
    fn cache_key_ignores_pool_width() {
        let a = table4();
        let mut b = a.clone();
        b.options.jobs = 16;
        assert_eq!(a.cache_key(), b.cache_key());
    }
}
