//! In-memory span recording for the traced run.
//!
//! Every call the benchmark makes into a layer's public function can be
//! wrapped in a span: a name (`<layer>.<what>`), start and end times, the
//! span that caused it, and the cell or job id it serves. Spans stay in
//! memory and are written out as JSON lines when the run ends. A disabled
//! tracer (the untraced run) records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The cell or job id the span serves.
    pub unit: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's id
    /// (for its children); with tracing off it receives `None` and the
    /// call costs one branch.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                unit,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_ns();
        self.spans.lock().expect("span list lock poisoned")[id].end_ns = end;
        out
    }

    /// Sets the unit of span `id` (a no-op for `None`): a request's job id
    /// is known only once the daemon answers.
    pub fn set_unit(&self, id: Option<SpanId>, unit: u64) {
        if let Some(id) = id {
            self.spans.lock().expect("span list lock poisoned")[id].unit = unit;
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.unit
            )?;
        }
        w.flush()
    }
}

/// Per-span self time: the span's duration minus the part of its interval
/// that its children cover (children may overlap each other, e.g. the
/// cells of a 2-wide pool under one pool span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time (seconds) summed per layer, the span-name prefix before the
/// first `.`.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}
