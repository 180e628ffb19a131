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
//! A manifest also knows its [`CacheKey`]: the FNV-1a hash of exactly the
//! fields that determine its results (kind, spec, workload, seed, engine
//! variant and version). Pool width (`jobs`) is deliberately excluded —
//! it changes wall-clock, never results.

use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_types::diagnostics::{Diagnostic, Severity};
use wbsim_types::divergence::FaultInjection;
use wbsim_types::json::{escape, parse, Json};
use wbsim_types::policy::LoadHazardPolicy;
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

impl MachineSel {
    /// Wire token (`blocking` / `nonblocking`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MachineSel::Blocking => "blocking",
            MachineSel::NonBlocking => "nonblocking",
        }
    }

    /// Parses a wire token, accepting the CLI's `non-blocking` spelling.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "blocking" => Some(MachineSel::Blocking),
            "nonblocking" | "non-blocking" => Some(MachineSel::NonBlocking),
            _ => None,
        }
    }
}

/// Wire token for an [`Engine`] variant.
#[must_use]
pub fn engine_name(e: Engine) -> &'static str {
    match e {
        Engine::EventDriven => "event-driven",
        Engine::Reference => "reference",
    }
}

/// Parses an [`Engine`] wire token.
#[must_use]
pub fn engine_from_name(s: &str) -> Option<Engine> {
    match s {
        "event-driven" => Some(Engine::EventDriven),
        "reference" => Some(Engine::Reference),
        _ => None,
    }
}

/// Wire token for a [`FaultInjection`].
#[must_use]
pub fn fault_name(f: FaultInjection) -> &'static str {
    match f {
        FaultInjection::SkipWbForwarding => "skip-wb-forwarding",
        FaultInjection::StarveRetirement => "starve-retirement",
        FaultInjection::OvershootSkip => "overshoot-skip",
    }
}

/// Parses a [`FaultInjection`] wire token.
#[must_use]
pub fn fault_from_name(s: &str) -> Option<FaultInjection> {
    match s {
        "skip-wb-forwarding" => Some(FaultInjection::SkipWbForwarding),
        "starve-retirement" => Some(FaultInjection::StarveRetirement),
        "overshoot-skip" => Some(FaultInjection::OvershootSkip),
        _ => None,
    }
}

/// Wire token for a [`LoadHazardPolicy`] (same names as the CLI flag).
#[must_use]
pub fn hazard_name(h: LoadHazardPolicy) -> &'static str {
    match h {
        LoadHazardPolicy::FlushFull => "flush-full",
        LoadHazardPolicy::FlushPartial => "flush-partial",
        LoadHazardPolicy::FlushItemOnly => "flush-item-only",
        LoadHazardPolicy::ReadFromWb => "read-from-wb",
    }
}

/// Parses a [`LoadHazardPolicy`] wire token (case-insensitive, as the CLI).
#[must_use]
pub fn hazard_from_name(s: &str) -> Option<LoadHazardPolicy> {
    match s.to_ascii_lowercase().as_str() {
        "flush-full" => Some(LoadHazardPolicy::FlushFull),
        "flush-partial" => Some(LoadHazardPolicy::FlushPartial),
        "flush-item-only" => Some(LoadHazardPolicy::FlushItemOnly),
        "read-from-wb" => Some(LoadHazardPolicy::ReadFromWb),
        _ => None,
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

impl FigureFormat {
    /// Wire token.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FigureFormat::Text => "text",
            FigureFormat::Csv => "csv",
            FigureFormat::Svg => "svg",
        }
    }

    /// Parses a wire token.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "text" => Some(FigureFormat::Text),
            "csv" => Some(FigureFormat::Csv),
            "svg" => Some(FigureFormat::Svg),
            _ => None,
        }
    }
}

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

fn diag(code: &'static str, path: &str, message: String) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, path.to_string()).with_message(message)
}

impl Manifest {
    /// The content-addressed key of this manifest's results: kind, spec,
    /// workload, seed, and engine (variant and version, via
    /// [`KeyHasher::new`]). `options.jobs` is excluded by design.
    #[must_use]
    pub fn cache_key(&self) -> CacheKey {
        let mut h = KeyHasher::new();
        h.field("kind", self.kind.tag());
        match &self.kind {
            JobKind::Table { which } => {
                h.field("which", which);
            }
            JobKind::Figure { which, format } => {
                h.field("which", which).field("format", format.name());
            }
            JobKind::Check(spec) => {
                h.field("exhaustive", if spec.exhaustive { "true" } else { "false" })
                    .field("reach", if spec.reach { "true" } else { "false" })
                    .field("refine", if spec.refine { "true" } else { "false" })
                    .field("machine", spec.machine.name())
                    .field(
                        "mshrs",
                        &spec.mshrs.map_or("auto".to_string(), |m| m.to_string()),
                    )
                    .field("max_ops", &spec.max_ops.to_string())
                    .field("fault", spec.fault.map_or("none", fault_name))
                    .field("props", if spec.props { "true" } else { "false" })
                    .field(
                        "props_file",
                        spec.props_file.as_deref().unwrap_or("builtin"),
                    )
                    .field("prop_library_version", wbsim_check::PROP_LIBRARY_VERSION)
                    .field("sched", if spec.sched { "true" } else { "false" })
                    .field(
                        "sched_fault",
                        spec.sched_fault.map_or("none", SchedFault::name),
                    )
                    .field(
                        "sched_preemptions",
                        &spec
                            .sched_preemptions
                            .map_or("default".to_string(), |p| p.to_string()),
                    )
                    .field("sched_schema", wbsim_check::sched::SCHED_SCHEMA);
                match &spec.config.file {
                    Some(text) => {
                        h.field("config", text);
                    }
                    None => {
                        h.field(
                            "depth",
                            &spec
                                .config
                                .depth
                                .map_or("baseline".to_string(), |d| d.to_string()),
                        )
                        .field(
                            "retire_at",
                            &spec
                                .config
                                .retire_at
                                .map_or("baseline".to_string(), |r| r.to_string()),
                        )
                        .field("hazard", spec.config.hazard.map_or("baseline", hazard_name));
                    }
                }
            }
            JobKind::Bench { samples } => {
                h.field("samples", &samples.to_string());
            }
            JobKind::Trace {
                bench,
                config,
                mshrs,
            } => {
                h.field("bench", bench)
                    .field("config", config)
                    .field("mshrs", &mshrs.to_string());
            }
        }
        let o = &self.options;
        h.field("instructions", &o.instructions.to_string())
            .field("warmup", &o.warmup.to_string())
            .field("seed", &o.seed.to_string())
            .field("check_data", if o.check_data { "true" } else { "false" })
            .field("engine", engine_name(o.engine));
        h.finish()
    }

    /// Semantic validation beyond what parsing enforces. Empty = valid.
    /// Error messages for unknown tables/figures match the CLI's exactly,
    /// so routing through the job layer does not change what users see.
    #[must_use]
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        match &self.kind {
            JobKind::Table { which } => {
                if !matches!(
                    which.as_str(),
                    "1" | "2" | "3" | "4" | "5" | "6" | "7" | "wb" | "all"
                ) {
                    out.push(diag(
                        "JOB010",
                        "spec.which",
                        format!(
                            "no table {which} (the paper has 1..7; `wb` is the event-derived \
                             utilization table)"
                        ),
                    ));
                }
            }
            JobKind::Figure { which, .. } => {
                let known = which == "all"
                    || which
                        .parse::<u32>()
                        .is_ok_and(|n| (3..=13).contains(&n) && *which == n.to_string());
                if !known {
                    out.push(diag(
                        "JOB011",
                        "spec.which",
                        format!("no figure {which} (the paper has 3..13)"),
                    ));
                }
            }
            JobKind::Check(spec) => {
                if spec.config.file.is_some()
                    && (spec.config.depth.is_some()
                        || spec.config.retire_at.is_some()
                        || spec.config.hazard.is_some())
                {
                    out.push(diag(
                        "JOB012",
                        "spec.config",
                        "a config file and override fields are mutually exclusive".to_string(),
                    ));
                }
                if spec.mshrs == Some(0) {
                    out.push(diag(
                        "JOB013",
                        "spec.mshrs",
                        "mshrs must be >= 1 (omit to sweep 1-4)".to_string(),
                    ));
                }
            }
            JobKind::Bench { samples } => {
                if *samples == 0 {
                    out.push(diag(
                        "JOB014",
                        "spec.samples",
                        "samples must be >= 1".to_string(),
                    ));
                }
            }
            JobKind::Trace { bench, config, .. } => {
                if BenchmarkModel::from_name(bench).is_none() {
                    out.push(diag(
                        "JOB015",
                        "spec.bench",
                        format!("unknown benchmark {bench:?}"),
                    ));
                }
                if config.trim().is_empty() {
                    out.push(diag(
                        "JOB016",
                        "spec.config",
                        "trace jobs need the machine configuration text".to_string(),
                    ));
                }
            }
        }
        if self.options.instructions == 0 {
            out.push(diag(
                "JOB017",
                "options.instructions",
                "instructions must be >= 1".to_string(),
            ));
        }
        out
    }

    /// Serializes to the pinned `wbsim-job/1` wire format (compact, fixed
    /// field order, so identical manifests serialize identically).
    #[must_use]
    pub fn to_json(&self) -> String {
        let spec = match &self.kind {
            JobKind::Table { which } => format!("{{\"which\":{}}}", escape(which)),
            JobKind::Figure { which, format } => format!(
                "{{\"which\":{},\"format\":{}}}",
                escape(which),
                escape(format.name())
            ),
            JobKind::Check(spec) => {
                let opt_num = |v: Option<usize>| v.map_or("null".to_string(), |n| n.to_string());
                format!(
                    "{{\"exhaustive\":{},\"reach\":{},\"refine\":{},\"machine\":{},\
                     \"mshrs\":{},\
                     \"max_ops\":{},\"fault\":{},\"props\":{},\"props_file\":{},\
                     \"sched\":{},\"sched_fault\":{},\"sched_preemptions\":{},\
                     \"config\":{},\"depth\":{},\
                     \"retire_at\":{},\"hazard\":{}}}",
                    spec.exhaustive,
                    spec.reach,
                    spec.refine,
                    escape(spec.machine.name()),
                    opt_num(spec.mshrs),
                    spec.max_ops,
                    spec.fault
                        .map_or("null".to_string(), |f| escape(fault_name(f))),
                    spec.props,
                    spec.props_file
                        .as_deref()
                        .map_or("null".to_string(), escape),
                    spec.sched,
                    spec.sched_fault
                        .map_or("null".to_string(), |f| escape(f.name())),
                    opt_num(spec.sched_preemptions),
                    spec.config
                        .file
                        .as_deref()
                        .map_or("null".to_string(), escape),
                    opt_num(spec.config.depth),
                    opt_num(spec.config.retire_at),
                    spec.config
                        .hazard
                        .map_or("null".to_string(), |z| escape(hazard_name(z))),
                )
            }
            JobKind::Bench { samples } => format!("{{\"samples\":{samples}}}"),
            JobKind::Trace {
                bench,
                config,
                mshrs,
            } => format!(
                "{{\"bench\":{},\"config\":{},\"mshrs\":{}}}",
                escape(bench),
                escape(config),
                mshrs
            ),
        };
        let o = &self.options;
        format!(
            "{{\"schema\":{},\"kind\":{},\"spec\":{},\"options\":{{\
             \"instructions\":{},\"warmup\":{},\"seed\":{},\"check_data\":{},\
             \"jobs\":{},\"engine\":{}}}}}",
            escape(SCHEMA),
            escape(self.kind.tag()),
            spec,
            o.instructions,
            o.warmup,
            o.seed,
            o.check_data,
            o.jobs,
            escape(engine_name(o.engine)),
        )
    }

    /// Parses and validates a manifest. All problems are reported at once
    /// as structured diagnostics — the daemon's 4xx body and the CLI's
    /// error message both come straight from this list.
    pub fn from_json(text: &str) -> Result<Manifest, Vec<Diagnostic>> {
        let doc = parse(text)
            .map_err(|e| vec![diag("JOB001", "manifest", format!("not valid JSON: {e}"))])?;
        let fields = doc
            .entries()
            .ok_or_else(|| vec![diag("JOB001", "manifest", "expected a JSON object".into())])?;
        let mut errs = Vec::new();
        let mut schema = None;
        let mut kind_tag = None;
        let mut spec: Option<&Json> = None;
        let mut options_json: Option<&Json> = None;
        for (key, value) in fields {
            match key.as_str() {
                "schema" => schema = value.as_str(),
                "kind" => kind_tag = value.as_str(),
                "spec" => spec = Some(value),
                "options" => options_json = Some(value),
                other => errs.push(diag(
                    "JOB002",
                    "manifest",
                    format!("unknown manifest key {other:?}"),
                )),
            }
        }
        match schema {
            Some(s) if s == SCHEMA => {}
            Some(s) => errs.push(diag(
                "JOB003",
                "schema",
                format!("schema mismatch: manifest says {s:?}, this server understands {SCHEMA:?}"),
            )),
            None => errs.push(diag(
                "JOB003",
                "schema",
                format!("missing schema (expected {SCHEMA:?})"),
            )),
        }
        let options = match options_json {
            Some(v) => parse_options(v, &mut errs),
            None => Options::default(),
        };
        let kind = match kind_tag {
            None => {
                errs.push(diag("JOB004", "kind", "missing job kind".to_string()));
                None
            }
            Some(tag) => parse_spec(tag, spec, &mut errs),
        };
        match kind {
            Some(kind) if errs.is_empty() => {
                let m = Manifest { kind, options };
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

fn get_field<'a>(fields: &'a [(String, Json)], name: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn opt_usize(
    fields: &[(String, Json)],
    name: &str,
    path: &str,
    errs: &mut Vec<Diagnostic>,
) -> Option<usize> {
    match get_field(fields, name) {
        None => None,
        Some(v) if v.is_null() => None,
        Some(v) => match v.as_u64().and_then(|n| usize::try_from(n).ok()) {
            Some(n) => Some(n),
            None => {
                errs.push(diag("JOB005", path, format!("{name} must be an integer")));
                None
            }
        },
    }
}

/// The `spec` keys a `check` manifest accepts (`docs/serving.md` lists
/// each one, and each `wbsim check` option names the keys it sets).
pub const CHECK_SPEC_KEYS: &[&str] = &[
    "exhaustive",
    "reach",
    "refine",
    "machine",
    "mshrs",
    "max_ops",
    "fault",
    "props",
    "props_file",
    "sched",
    "sched_fault",
    "sched_preemptions",
    "config",
    "depth",
    "retire_at",
    "hazard",
];

fn parse_spec(tag: &str, spec: Option<&Json>, errs: &mut Vec<Diagnostic>) -> Option<JobKind> {
    let empty: &[(String, Json)] = &[];
    let fields = match spec {
        None => empty,
        Some(v) => match v.entries() {
            Some(f) => f,
            None => {
                errs.push(diag("JOB005", "spec", "spec must be an object".to_string()));
                empty
            }
        },
    };
    let str_of = |name: &str, errs: &mut Vec<Diagnostic>| -> Option<String> {
        match get_field(fields, name) {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => match v.as_str() {
                Some(s) => Some(s.to_string()),
                None => {
                    errs.push(diag(
                        "JOB005",
                        &format!("spec.{name}"),
                        format!("{name} must be a string"),
                    ));
                    None
                }
            },
        }
    };
    let known_keys: &[&str] = match tag {
        "table" => &["which"],
        "figure" => &["which", "format"],
        "check" => CHECK_SPEC_KEYS,
        "bench" => &["samples"],
        "trace" => &["bench", "config", "mshrs"],
        other => {
            errs.push(diag(
                "JOB004",
                "kind",
                format!("unknown job kind {other:?} (table | figure | check | bench | trace)"),
            ));
            return None;
        }
    };
    for (k, _) in fields {
        if !known_keys.contains(&k.as_str()) {
            errs.push(diag(
                "JOB005",
                "spec",
                format!("unknown {tag} spec key {k:?}"),
            ));
        }
    }
    match tag {
        "table" => {
            let which = str_of("which", errs).unwrap_or_else(|| {
                errs.push(diag("JOB005", "spec.which", "which is required".into()));
                String::new()
            });
            Some(JobKind::Table { which })
        }
        "figure" => {
            let which = str_of("which", errs).unwrap_or_else(|| {
                errs.push(diag("JOB005", "spec.which", "which is required".into()));
                String::new()
            });
            let format = match str_of("format", errs) {
                None => FigureFormat::Text,
                Some(s) => match FigureFormat::from_name(&s) {
                    Some(f) => f,
                    None => {
                        errs.push(diag(
                            "JOB005",
                            "spec.format",
                            format!("unknown figure format {s:?} (text | csv | svg)"),
                        ));
                        FigureFormat::Text
                    }
                },
            };
            Some(JobKind::Figure { which, format })
        }
        "check" => {
            let bool_of = |name: &str, errs: &mut Vec<Diagnostic>| -> bool {
                match get_field(fields, name) {
                    None => false,
                    Some(v) => match v.as_bool() {
                        Some(b) => b,
                        None => {
                            errs.push(diag(
                                "JOB005",
                                &format!("spec.{name}"),
                                format!("{name} must be a boolean"),
                            ));
                            false
                        }
                    },
                }
            };
            let mut s = CheckSpec {
                exhaustive: bool_of("exhaustive", errs),
                reach: bool_of("reach", errs),
                refine: bool_of("refine", errs),
                ..CheckSpec::default()
            };
            if let Some(m) = str_of("machine", errs) {
                match MachineSel::from_name(&m) {
                    Some(sel) => s.machine = sel,
                    None => errs.push(diag(
                        "JOB005",
                        "spec.machine",
                        format!("unknown machine {m:?} (try blocking or nonblocking)"),
                    )),
                }
            }
            s.mshrs = opt_usize(fields, "mshrs", "spec.mshrs", errs);
            if let Some(n) = opt_usize(fields, "max_ops", "spec.max_ops", errs) {
                s.max_ops = n as u32;
            }
            if let Some(f) = str_of("fault", errs) {
                match fault_from_name(&f) {
                    Some(fi) => s.fault = Some(fi),
                    None => errs.push(diag(
                        "JOB005",
                        "spec.fault",
                        format!(
                            "unknown fault {f:?} (try skip-wb-forwarding, \
                             starve-retirement, or overshoot-skip)"
                        ),
                    )),
                }
            }
            s.props = bool_of("props", errs);
            s.props_file = str_of("props_file", errs);
            s.sched = bool_of("sched", errs);
            if let Some(f) = str_of("sched_fault", errs) {
                match SchedFault::from_name(&f) {
                    Some(sf) => s.sched_fault = Some(sf),
                    None => errs.push(diag(
                        "JOB005",
                        "spec.sched_fault",
                        format!("unknown sched fault {f:?} (try lost-wakeup or dup-execute)"),
                    )),
                }
            }
            s.sched_preemptions =
                opt_usize(fields, "sched_preemptions", "spec.sched_preemptions", errs);
            s.config.file = str_of("config", errs);
            s.config.depth = opt_usize(fields, "depth", "spec.depth", errs);
            s.config.retire_at = opt_usize(fields, "retire_at", "spec.retire_at", errs);
            if let Some(z) = str_of("hazard", errs) {
                match hazard_from_name(&z) {
                    Some(h) => s.config.hazard = Some(h),
                    None => errs.push(diag(
                        "JOB005",
                        "spec.hazard",
                        format!("unknown hazard policy {z:?}"),
                    )),
                }
            }
            Some(JobKind::Check(s))
        }
        "bench" => {
            let samples = match opt_usize(fields, "samples", "spec.samples", errs) {
                Some(n) => n as u64,
                None => 3,
            };
            Some(JobKind::Bench { samples })
        }
        "trace" => {
            let bench = str_of("bench", errs).unwrap_or_else(|| {
                errs.push(diag("JOB005", "spec.bench", "bench is required".into()));
                String::new()
            });
            let config = str_of("config", errs).unwrap_or_default();
            let mshrs = opt_usize(fields, "mshrs", "spec.mshrs", errs).unwrap_or(0);
            Some(JobKind::Trace {
                bench,
                config,
                mshrs,
            })
        }
        _ => unreachable!("tag checked above"),
    }
}

fn parse_options(v: &Json, errs: &mut Vec<Diagnostic>) -> Options {
    let mut o = Options::default();
    let fields = match v.entries() {
        Some(f) => f,
        None => {
            errs.push(diag(
                "JOB006",
                "options",
                "options must be an object".to_string(),
            ));
            return o;
        }
    };
    let mut explicit_warmup = false;
    for (key, value) in fields {
        let path = format!("options.{key}");
        match key.as_str() {
            "instructions" | "warmup" | "seed" | "jobs" => match value.as_u64() {
                Some(n) => match key.as_str() {
                    "instructions" => o.instructions = n,
                    "warmup" => {
                        o.warmup = n;
                        explicit_warmup = true;
                    }
                    "seed" => o.seed = n,
                    _ => o.jobs = n as usize,
                },
                None => errs.push(diag("JOB006", &path, format!("{key} must be an integer"))),
            },
            "check_data" => match value.as_bool() {
                Some(b) => o.check_data = b,
                None => errs.push(diag("JOB006", &path, "check_data must be a boolean".into())),
            },
            "engine" => match value.as_str().and_then(engine_from_name) {
                Some(e) => o.engine = e,
                None => errs.push(diag(
                    "JOB006",
                    &path,
                    "engine must be \"event-driven\" or \"reference\"".into(),
                )),
            },
            other => errs.push(diag(
                "JOB006",
                "options",
                format!("unknown options key {other:?}"),
            )),
        }
    }
    // The CLI's default warmup tracks instructions; mirror that when the
    // manifest sets instructions but not warmup.
    if !explicit_warmup {
        o.warmup = o.instructions / 3;
    }
    o
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
            let errs = Manifest::from_json(text).expect_err(text);
            assert!(!errs.is_empty(), "{text}");
            assert!(
                errs.iter().any(|d| d.message.contains(needle)),
                "{text}: wanted {needle:?} in {errs:?}"
            );
            assert!(errs.iter().all(|d| d.severity == Severity::Error));
        }
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
        for key in CHECK_SPEC_KEYS {
            assert!(
                row.contains(&format!("`{key}`")),
                "{key} missing from {row}"
            );
        }
    }

    #[test]
    fn cache_key_ignores_pool_width() {
        let a = table4();
        let mut b = a.clone();
        b.options.jobs = 16;
        assert_eq!(a.cache_key(), b.cache_key());
    }
}
