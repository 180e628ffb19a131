//! Small helpers shared by every workload: order statistics, digests,
//! the seeded generator, peak-RSS probes and timing loops.

use std::time::Instant;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a 64-bit digest: stable across runs and platforms, unlike the
/// standard library's randomly keyed hasher.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of any `Debug` value (used for `SimStats`, which derives it).
pub fn digest_debug(v: &impl std::fmt::Debug) -> u64 {
    fnv64(format!("{v:?}").as_bytes())
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A deterministic sample of `k` distinct indices from `0..n`, sorted.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k.min(n));
        idx.sort_unstable();
        idx
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from procfs.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Repetitions an untraced run makes at least, so its medians mean
/// something.
pub const MIN_REPS: usize = 3;

/// Samples a run pools for each p99 it reports: the nearest-rank p99 of
/// 1010 samples has ten beyond it.
pub const P99_SAMPLES: usize = 1010;

/// Runs `rep` (one repetition of a workload's fixed work) at least
/// `min_reps` times, then again while another repetition of median length
/// still fits in `budget_s`. Returns each repetition's host seconds and
/// result, in order.
pub fn repeat<T>(budget_s: f64, min_reps: usize, mut rep: impl FnMut(usize) -> T) -> Vec<(f64, T)> {
    let start = Instant::now();
    let mut out: Vec<(f64, T)> = Vec::new();
    loop {
        let walls: Vec<f64> = out.iter().map(|(w, _)| *w).collect();
        if out.len() >= min_reps && secs(start) + median(&walls) > budget_s {
            return out;
        }
        let t = Instant::now();
        let r = rep(out.len());
        out.push((secs(t), r));
    }
}

/// What [`untraced_reps`] measured.
pub struct Untraced<T> {
    /// Each timed repetition's host seconds and result, in order.
    pub reps: Vec<(f64, T)>,
    /// Peak resident set (MiB) over the first repetition: it runs in a
    /// fresh process, while later ones also hold memory the allocator kept
    /// from earlier ones.
    pub peak_mb: f64,
    /// `setup_s`: the median host seconds of one set-up (0 in a traced
    /// run, which does not time set-up).
    pub setup_s: f64,
}

/// Host seconds of set-up a burst spends at least, and set-ups it makes
/// at least.
const SETUP_BURST_S: f64 = 0.25;
const SETUP_BURST_MIN: usize = 3;

/// Runs `setup` in one burst, pushing each set-up's host seconds.
fn setup_burst<S>(setup: &mut impl FnMut() -> S, times: &mut Vec<f64>) {
    let burst = Instant::now();
    for i in 0.. {
        if i >= SETUP_BURST_MIN && secs(burst) >= SETUP_BURST_S {
            return;
        }
        let t = Instant::now();
        std::hint::black_box(setup());
        times.push(secs(t));
    }
}

/// The untraced repetitions of an in-process workload: at least
/// [`MIN_REPS`] within `--seconds` (a traced run makes at least one within
/// 40 % of it, as its overhead baseline). The first one runs cold; the
/// median over repetitions keeps its cold costs out of `wall_s`.
///
/// `setup` is the workload's set-up: everything before its first timed
/// operation. An untraced run repeats it in a burst of at least
/// [`SETUP_BURST_S`] before every timed repetition and after the last, and
/// reports the median over all of them as `setup_s`, so that, like
/// `wall_s`, it samples the host's speed over the whole run rather than
/// over one moment of it.
pub fn untraced_reps<S, T>(
    args: &crate::Args,
    mut setup: impl FnMut() -> S,
    mut rep: impl FnMut() -> T,
) -> Untraced<T> {
    let (budget, min_reps) = if args.trace {
        (0.4 * args.seconds, 1)
    } else {
        (args.seconds, MIN_REPS)
    };
    let start = Instant::now();
    let mut peak_mb = 0.0;
    let mut setups = Vec::new();
    let mut reps: Vec<(f64, T)> = Vec::new();
    loop {
        if !args.trace {
            setup_burst(&mut setup, &mut setups);
        }
        let walls: Vec<f64> = reps.iter().map(|(w, _)| *w).collect();
        if reps.len() >= min_reps && secs(start) + median(&walls) > budget {
            break;
        }
        let t = Instant::now();
        let r = rep();
        reps.push((secs(t), r));
        if reps.len() == 1 {
            peak_mb = peak_rss_mb("self").unwrap_or(0.0);
        }
    }
    Untraced {
        reps,
        peak_mb,
        setup_s: median(&setups),
    }
}
