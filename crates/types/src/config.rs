//! Validated configuration for the write buffer, caches, and machine.
//!
//! [`MachineConfig::baseline`] and [`WriteBufferConfig::baseline`] reproduce
//! Tables 1 and 2 of the paper exactly; every experiment in
//! `wbsim-experiments` starts from these and perturbs one dimension.

use std::error::Error;
use std::fmt;

use crate::addr::Geometry;
use crate::divergence::FaultInjection;
use crate::policy::{
    DatapathWidth, L1WritePolicy, L2Priority, LoadHazardPolicy, RetirementOrder, RetirementPolicy,
};

/// The largest cycle count a configuration may give a latency, an entry
/// age or a retirement interval: `u32::MAX`. The simulator adds such
/// counts to the clock and multiplies a latency by the transactions of a
/// line, so a whole-`u64` count would wrap the clock (a run reporting
/// fewer cycles than with a 1-cycle latency) or wait forever; a 32-bit
/// count keeps every sum far inside a `u64`.
pub const MAX_CYCLES: u64 = u32::MAX as u64;

/// An invalid configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A size that must be a power of two was not.
    NotPowerOfTwo {
        /// Which parameter was wrong.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A parameter was zero or otherwise out of range.
    OutOfRange {
        /// Which parameter was wrong.
        what: &'static str,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// The retirement high-water mark exceeds the buffer depth.
    HighWaterExceedsDepth {
        /// The high-water mark.
        high_water: usize,
        /// The buffer depth.
        depth: usize,
    },
    /// Line/word sizes do not form a valid [`Geometry`].
    BadGeometry {
        /// Line size in bytes.
        line_bytes: u32,
        /// Word size in bytes.
        word_bytes: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a power of two, got {value}")
            }
            Self::OutOfRange { what, constraint } => write!(f, "{what} out of range: {constraint}"),
            Self::HighWaterExceedsDepth { high_water, depth } => write!(
                f,
                "retire-at-{high_water} needs a buffer at least {high_water} deep, got {depth}"
            ),
            Self::BadGeometry {
                line_bytes,
                word_bytes,
            } => write!(
                f,
                "line size {line_bytes} / word size {word_bytes} is not a valid geometry"
            ),
        }
    }
}

impl Error for ConfigError {}

/// Write-buffer configuration (paper Table 2).
///
/// Construct with [`WriteBufferConfig::baseline`] and adjust fields, or use
/// [`WriteBufferConfig::builder`] for checked construction.
///
/// # Example
///
/// ```
/// use wbsim_types::config::WriteBufferConfig;
/// use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};
///
/// let wb = WriteBufferConfig::builder()
///     .depth(12)
///     .retirement(RetirementPolicy::RetireAt(8))
///     .hazard(LoadHazardPolicy::ReadFromWb)
///     .build()
///     .unwrap();
/// assert_eq!(wb.headroom(), Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBufferConfig {
    /// Number of entries ("depth", Table 2). Baseline: 4.
    pub depth: usize,
    /// Words of data per entry ("width"). Baseline: one full cache line
    /// (4 words); 1 models a non-coalescing buffer.
    pub width_words: usize,
    /// Which entry is retired (Table 2). Always FIFO in the paper.
    pub order: RetirementOrder,
    /// When the front entry is retired. Baseline: retire-at-2.
    pub retirement: RetirementPolicy,
    /// What happens on a load hazard. Baseline: flush-full.
    pub hazard: LoadHazardPolicy,
    /// Who wins arbitration for L2. Baseline: read-bypassing.
    pub priority: L2Priority,
    /// Optional age limit: a lone entry older than this many cycles retires
    /// even below the high-water mark (21064: 256, 21164: 64). The paper's
    /// baseline omits this ("lacking only that system's policy of periodic
    /// retirement of old entries", §2.2), so the baseline is `None`.
    pub max_age: Option<u64>,
    /// Width of the datapath to L2 (§4.3). Baseline: full line.
    pub datapath: DatapathWidth,
}

impl WriteBufferConfig {
    /// The paper's baseline: 4-deep, line-wide (4 words), FIFO, retire-at-2,
    /// flush-full, read-bypassing, no age limit (Table 2).
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            depth: 4,
            width_words: 4,
            order: RetirementOrder::Fifo,
            retirement: RetirementPolicy::RetireAt(2),
            hazard: LoadHazardPolicy::FlushFull,
            priority: L2Priority::ReadBypass,
            max_age: None,
            datapath: DatapathWidth::FullLine,
        }
    }

    /// Starts a checked builder from the baseline.
    #[must_use]
    pub fn builder() -> WriteBufferConfigBuilder {
        WriteBufferConfigBuilder {
            cfg: Self::baseline(),
        }
    }

    /// Free entries above the high-water mark — the paper's *headroom*
    /// (§3.3). `None` for non-occupancy policies.
    #[must_use]
    pub fn headroom(&self) -> Option<usize> {
        self.retirement
            .high_water()
            .map(|hw| self.depth.saturating_sub(hw))
    }

    /// Validates the configuration against `geometry`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the depth is zero, the width does not
    /// divide the line, or the high-water mark exceeds the depth.
    pub fn validate(&self, geometry: &Geometry) -> Result<(), ConfigError> {
        if self.depth == 0 {
            return Err(ConfigError::OutOfRange {
                what: "write buffer depth",
                constraint: "must be at least 1",
            });
        }
        if self.depth > 64 {
            // The buffer packs valid/retiring bookkeeping into single
            // machine words; the paper's design space tops out at 12.
            return Err(ConfigError::OutOfRange {
                what: "write buffer depth",
                constraint: "must be at most 64",
            });
        }
        let wpl = geometry.words_per_line();
        if self.width_words == 0 || self.width_words > wpl || !wpl.is_multiple_of(self.width_words)
        {
            return Err(ConfigError::OutOfRange {
                what: "write buffer width",
                constraint: "must be a nonzero divisor of words-per-line",
            });
        }
        if !self.width_words.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "write buffer width",
                value: self.width_words as u64,
            });
        }
        if let Some(hw) = self.retirement.high_water() {
            if hw == 0 {
                return Err(ConfigError::OutOfRange {
                    what: "high-water mark",
                    constraint: "must be at least 1",
                });
            }
            if hw > self.depth {
                return Err(ConfigError::HighWaterExceedsDepth {
                    high_water: hw,
                    depth: self.depth,
                });
            }
        }
        if let RetirementPolicy::FixedRate(0) = self.retirement {
            return Err(ConfigError::OutOfRange {
                what: "fixed retirement rate",
                constraint: "interval must be at least 1 cycle",
            });
        }
        if let RetirementPolicy::FixedRate(n) = self.retirement {
            if n > MAX_CYCLES {
                return Err(ConfigError::OutOfRange {
                    what: "fixed retirement rate",
                    constraint: "interval must be at most 4294967295 cycles",
                });
            }
        }
        if let Some(0) = self.max_age {
            return Err(ConfigError::OutOfRange {
                what: "max entry age",
                constraint: "must be at least 1 cycle when set",
            });
        }
        if self.max_age.is_some_and(|a| a > MAX_CYCLES) {
            return Err(ConfigError::OutOfRange {
                what: "max entry age",
                constraint: "must be at most 4294967295 cycles",
            });
        }
        if let L2Priority::WritePriorityAbove(0) = self.priority {
            // Threshold 0 would mean "writes always have priority", which the
            // retirement datapath expresses as RetireAt(1), not as a priority
            // inversion; reject rather than silently behave like read-bypass.
            return Err(ConfigError::OutOfRange {
                what: "write-priority threshold",
                constraint: "must be at least 1 entry",
            });
        }
        Ok(())
    }
}

impl Default for WriteBufferConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Checked builder for [`WriteBufferConfig`]; see that type's example.
#[derive(Debug, Clone)]
pub struct WriteBufferConfigBuilder {
    cfg: WriteBufferConfig,
}

impl WriteBufferConfigBuilder {
    /// Sets the number of entries.
    #[must_use]
    pub fn depth(mut self, depth: usize) -> Self {
        self.cfg.depth = depth;
        self
    }

    /// Sets the entry width in words.
    #[must_use]
    pub fn width_words(mut self, width: usize) -> Self {
        self.cfg.width_words = width;
        self
    }

    /// Sets the retirement policy.
    #[must_use]
    pub fn retirement(mut self, p: RetirementPolicy) -> Self {
        self.cfg.retirement = p;
        self
    }

    /// Sets the load-hazard policy.
    #[must_use]
    pub fn hazard(mut self, p: LoadHazardPolicy) -> Self {
        self.cfg.hazard = p;
        self
    }

    /// Sets the L2 arbitration priority.
    #[must_use]
    pub fn priority(mut self, p: L2Priority) -> Self {
        self.cfg.priority = p;
        self
    }

    /// Sets the optional maximum entry age.
    #[must_use]
    pub fn max_age(mut self, age: Option<u64>) -> Self {
        self.cfg.max_age = age;
        self
    }

    /// Sets the datapath width.
    #[must_use]
    pub fn datapath(mut self, w: DatapathWidth) -> Self {
        self.cfg.datapath = w;
        self
    }

    /// Validates against the baseline geometry and returns the config.
    ///
    /// # Errors
    ///
    /// Propagates [`WriteBufferConfig::validate`] errors.
    pub fn build(self) -> Result<WriteBufferConfig, ConfigError> {
        self.cfg.validate(&Geometry::alpha_baseline())?;
        Ok(self.cfg)
    }

    /// Validates against the given geometry and returns the config.
    ///
    /// # Errors
    ///
    /// Propagates [`WriteBufferConfig::validate`] errors.
    pub fn build_for(self, geometry: &Geometry) -> Result<WriteBufferConfig, ConfigError> {
        self.cfg.validate(geometry)?;
        Ok(self.cfg)
    }
}

/// L1 data-cache configuration (paper Table 1).
///
/// The L1 is always write-through with write-around (no allocation on write
/// miss) — the organization the paper's write buffer exists to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Total capacity in bytes. Baseline: 8 KiB.
    pub size_bytes: u32,
    /// Associativity. Baseline: 1 (direct-mapped).
    pub assoc: u32,
    /// Hit latency in cycles. Baseline: 1.
    pub hit_latency: u64,
    /// Write policy. Baseline: write-through (the paper's machine).
    pub write_policy: L1WritePolicy,
}

impl L1Config {
    /// The paper's baseline L1: 8 KiB, direct-mapped, write-through,
    /// 1-cycle hit.
    #[must_use]
    pub const fn baseline() -> Self {
        Self {
            size_bytes: 8 * 1024,
            assoc: 1,
            hit_latency: 1,
            write_policy: L1WritePolicy::WriteThrough,
        }
    }

    /// The baseline with a different capacity (Figure 10 varies 8K→32K).
    #[must_use]
    pub const fn with_size(size_bytes: u32) -> Self {
        Self {
            size_bytes,
            ..Self::baseline()
        }
    }

    /// Number of lines for the given geometry.
    #[must_use]
    pub fn lines(&self, geometry: &Geometry) -> usize {
        (self.size_bytes / geometry.line_bytes()) as usize
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when sizes are not powers of two or the
    /// cache has fewer than one set.
    pub fn validate(&self, geometry: &Geometry) -> Result<(), ConfigError> {
        if self.hit_latency == 0 {
            return Err(ConfigError::OutOfRange {
                what: "L1 hit latency",
                constraint: "must be at least 1 cycle",
            });
        }
        validate_cache_shape("L1", self.size_bytes, self.assoc, geometry)
    }
}

impl Default for L1Config {
    fn default() -> Self {
        Self::baseline()
    }
}

/// L2 cache configuration (paper Table 1 and §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Config {
    /// An L2 that never misses (the paper's baseline). Reads and writes take
    /// `latency` cycles.
    Perfect {
        /// Access latency in cycles. Baseline: 6.
        latency: u64,
    },
    /// A finite, write-back L2 maintaining strict inclusion over L1, backed
    /// by main memory (§4.2).
    Real {
        /// Total capacity in bytes (the paper sweeps 128K–1M).
        size_bytes: u32,
        /// Associativity (1 = direct-mapped, the paper's implied shape).
        assoc: u32,
        /// Access latency in cycles (6 in §4.2's sweeps).
        latency: u64,
        /// Main-memory latency in cycles (25 or 50 in §4.2).
        mm_latency: u64,
    },
}

impl L2Config {
    /// The paper's baseline: perfect, 6-cycle latency.
    #[must_use]
    pub const fn baseline() -> Self {
        Self::Perfect { latency: 6 }
    }

    /// A real L2 with the paper's §4.2 defaults (6-cycle latency, 25-cycle
    /// main memory) and the given size.
    #[must_use]
    pub const fn real_with_size(size_bytes: u32) -> Self {
        Self::Real {
            size_bytes,
            assoc: 1,
            latency: 6,
            mm_latency: 25,
        }
    }

    /// The access latency in cycles (read or write; the paper uses one
    /// number for both).
    #[must_use]
    pub const fn latency(&self) -> u64 {
        match self {
            Self::Perfect { latency } | Self::Real { latency, .. } => *latency,
        }
    }

    /// Returns a copy with a different access latency (Figure 11 sweeps
    /// 3/6/10).
    #[must_use]
    pub const fn with_latency(self, latency: u64) -> Self {
        match self {
            Self::Perfect { .. } => Self::Perfect { latency },
            Self::Real {
                size_bytes,
                assoc,
                mm_latency,
                ..
            } => Self::Real {
                size_bytes,
                assoc,
                latency,
                mm_latency,
            },
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for a latency of zero or above
    /// [`MAX_CYCLES`], or a bad cache shape.
    pub fn validate(&self, geometry: &Geometry) -> Result<(), ConfigError> {
        if self.latency() == 0 {
            return Err(ConfigError::OutOfRange {
                what: "L2 latency",
                constraint: "must be at least 1 cycle",
            });
        }
        if self.latency() > MAX_CYCLES {
            return Err(ConfigError::OutOfRange {
                what: "L2 latency",
                constraint: "must be at most 4294967295 cycles",
            });
        }
        if let Self::Real {
            size_bytes,
            assoc,
            mm_latency,
            ..
        } = self
        {
            if *mm_latency == 0 {
                return Err(ConfigError::OutOfRange {
                    what: "main-memory latency",
                    constraint: "must be at least 1 cycle",
                });
            }
            if *mm_latency > MAX_CYCLES {
                return Err(ConfigError::OutOfRange {
                    what: "main-memory latency",
                    constraint: "must be at most 4294967295 cycles",
                });
            }
            validate_cache_shape("L2", *size_bytes, *assoc, geometry)?;
        }
        Ok(())
    }
}

impl Default for L2Config {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Instruction-cache model (paper Table 1: perfect; §4.3 discusses the
/// effect of a real one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IcacheConfig {
    /// Never misses (the paper's assumption).
    #[default]
    Perfect,
    /// A statistical model: each instruction fetch misses with probability
    /// `1 / interval` (seeded, deterministic), and a miss performs an L2
    /// read — contending with the write buffer (the "L2-I-fetch stall" of
    /// §4.3).
    MissEvery {
        /// Mean instructions between I-cache misses.
        interval: u64,
    },
}

impl IcacheConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the miss interval is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Self::MissEvery { interval: 0 } = self {
            return Err(ConfigError::OutOfRange {
                what: "I-cache miss interval",
                constraint: "must be at least 1 instruction",
            });
        }
        Ok(())
    }
}

/// Complete machine configuration (paper Table 1 plus the write buffer of
/// Table 2).
///
/// # Example
///
/// ```
/// use wbsim_types::config::MachineConfig;
///
/// let m = MachineConfig::baseline();
/// assert_eq!(m.l1.size_bytes, 8 * 1024);
/// assert_eq!(m.geometry.line_bytes(), 32);
/// m.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Line/word geometry shared by the caches and write buffer.
    pub geometry: Geometry,
    /// Instructions issued per cycle. The paper's machine is single-issue
    /// (Table 1); §4.3 observes that wider issue raises store density and
    /// with it write-buffer-induced stalls. Widths above 1 let runs of
    /// non-memory instructions complete `issue_width` per cycle; memory
    /// references still issue one at a time (one L1 port).
    pub issue_width: u32,
    /// L1 data cache.
    pub l1: L1Config,
    /// L2 cache (perfect or real).
    pub l2: L2Config,
    /// Instruction cache model.
    pub icache: IcacheConfig,
    /// The write buffer.
    pub write_buffer: WriteBufferConfig,
    /// When `true`, every load's returned value is checked against a golden
    /// functional model and a mismatch aborts the run. Costs a hash lookup
    /// per reference; on by default in tests, off in benches.
    pub check_data: bool,
    /// Deliberately injected machine bug, used only to prove the
    /// differential oracle detects it. `None` (no fault) everywhere except
    /// oracle self-tests.
    pub fault: Option<FaultInjection>,
}

impl MachineConfig {
    /// The paper's baseline machine (Tables 1 and 2).
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            geometry: Geometry::alpha_baseline(),
            issue_width: 1,
            l1: L1Config::baseline(),
            l2: L2Config::baseline(),
            icache: IcacheConfig::Perfect,
            write_buffer: WriteBufferConfig::baseline(),
            check_data: true,
            fault: None,
        }
    }

    /// Validates every component.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in any component.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.l1.write_policy == L1WritePolicy::WriteBack
            && self.write_buffer.width_words != self.geometry.words_per_line()
        {
            return Err(ConfigError::OutOfRange {
                what: "write buffer width",
                constraint: "a write-back L1's victim buffer needs line-wide entries",
            });
        }
        if self.issue_width == 0 {
            return Err(ConfigError::OutOfRange {
                what: "issue width",
                constraint: "must be at least 1",
            });
        }
        self.l1.validate(&self.geometry)?;
        self.l2.validate(&self.geometry)?;
        self.icache.validate()?;
        self.write_buffer.validate(&self.geometry)?;
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

fn validate_cache_shape(
    what: &'static str,
    size_bytes: u32,
    assoc: u32,
    geometry: &Geometry,
) -> Result<(), ConfigError> {
    if !size_bytes.is_power_of_two() {
        return Err(ConfigError::NotPowerOfTwo {
            what: "cache size",
            value: size_bytes as u64,
        });
    }
    if assoc == 0 || !assoc.is_power_of_two() {
        return Err(ConfigError::OutOfRange {
            what: "cache associativity",
            constraint: "must be a nonzero power of two",
        });
    }
    let lines = size_bytes / geometry.line_bytes();
    if lines == 0 || !lines.is_multiple_of(assoc) {
        let _ = what;
        return Err(ConfigError::OutOfRange {
            what: "cache size",
            constraint: "must hold at least one full set of lines",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each cycle count is bounded at `u32::MAX` in `validate`, which the
    /// CLI flags and manifests reach without the `.wbcfg` parser.
    #[test]
    fn cycle_counts_past_u32_are_out_of_range() {
        let over = MAX_CYCLES + 1;
        let mut cfg = MachineConfig::baseline();
        cfg.l2 = L2Config::baseline().with_latency(over);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange {
                what: "L2 latency",
                ..
            })
        ));
        cfg.l2 = L2Config::Real {
            size_bytes: 128 * 1024,
            assoc: 1,
            latency: 6,
            mm_latency: over,
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange {
                what: "main-memory latency",
                ..
            })
        ));
        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.retirement = RetirementPolicy::FixedRate(over);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange {
                what: "fixed retirement rate",
                ..
            })
        ));
        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.max_age = Some(over);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange {
                what: "max entry age",
                ..
            })
        ));
        // The bound itself is valid.
        let mut cfg = MachineConfig::baseline();
        cfg.l2 = L2Config::baseline().with_latency(MAX_CYCLES);
        cfg.write_buffer.retirement = RetirementPolicy::FixedRate(MAX_CYCLES);
        cfg.write_buffer.max_age = Some(MAX_CYCLES);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn baseline_matches_paper_tables() {
        let m = MachineConfig::baseline();
        // Table 1
        assert_eq!(m.l1.size_bytes, 8192);
        assert_eq!(m.l1.assoc, 1);
        assert_eq!(m.geometry.line_bytes(), 32);
        assert_eq!(m.l1.hit_latency, 1);
        assert_eq!(m.l2, L2Config::Perfect { latency: 6 });
        assert_eq!(m.icache, IcacheConfig::Perfect);
        // Table 2
        let wb = &m.write_buffer;
        assert_eq!(wb.depth, 4);
        assert_eq!(wb.width_words, 4);
        assert_eq!(wb.order, RetirementOrder::Fifo);
        assert_eq!(wb.retirement, RetirementPolicy::RetireAt(2));
        assert_eq!(wb.hazard, LoadHazardPolicy::FlushFull);
        assert_eq!(wb.priority, L2Priority::ReadBypass);
        assert_eq!(wb.max_age, None);
        m.validate().expect("baseline must validate");
    }

    #[test]
    fn headroom_is_depth_minus_high_water() {
        let wb = WriteBufferConfig::builder()
            .depth(12)
            .retirement(RetirementPolicy::RetireAt(10))
            .build()
            .unwrap();
        assert_eq!(wb.headroom(), Some(2));
        let fr = WriteBufferConfig::builder()
            .retirement(RetirementPolicy::FixedRate(16))
            .build()
            .unwrap();
        assert_eq!(fr.headroom(), None);
    }

    #[test]
    fn builder_rejects_high_water_above_depth() {
        let err = WriteBufferConfig::builder()
            .depth(4)
            .retirement(RetirementPolicy::RetireAt(6))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::HighWaterExceedsDepth {
                high_water: 6,
                depth: 4
            }
        );
        assert!(err.to_string().contains("retire-at-6"));
    }

    #[test]
    fn builder_rejects_zero_depth_and_zero_width() {
        assert!(WriteBufferConfig::builder().depth(0).build().is_err());
        assert!(WriteBufferConfig::builder().width_words(0).build().is_err());
        assert!(WriteBufferConfig::builder().width_words(3).build().is_err());
        assert!(WriteBufferConfig::builder().width_words(8).build().is_err());
    }

    #[test]
    fn non_coalescing_width_is_valid() {
        let wb = WriteBufferConfig::builder().width_words(1).build().unwrap();
        assert_eq!(wb.width_words, 1);
    }

    #[test]
    fn l2_with_latency_preserves_other_fields() {
        let real = L2Config::real_with_size(512 * 1024).with_latency(10);
        match real {
            L2Config::Real {
                size_bytes,
                latency,
                mm_latency,
                ..
            } => {
                assert_eq!(size_bytes, 512 * 1024);
                assert_eq!(latency, 10);
                assert_eq!(mm_latency, 25);
            }
            L2Config::Perfect { .. } => panic!("expected real L2"),
        }
    }

    #[test]
    fn l2_validation() {
        let g = Geometry::alpha_baseline();
        assert!(L2Config::Perfect { latency: 0 }.validate(&g).is_err());
        assert!(L2Config::real_with_size(128 * 1024).validate(&g).is_ok());
        let bad = L2Config::Real {
            size_bytes: 100_000,
            assoc: 1,
            latency: 6,
            mm_latency: 25,
        };
        assert!(bad.validate(&g).is_err());
        let zero_mm = L2Config::Real {
            size_bytes: 131_072,
            assoc: 1,
            latency: 6,
            mm_latency: 0,
        };
        assert!(zero_mm.validate(&g).is_err());
    }

    #[test]
    fn l1_lines_count() {
        let g = Geometry::alpha_baseline();
        assert_eq!(L1Config::baseline().lines(&g), 256);
        assert_eq!(L1Config::with_size(32 * 1024).lines(&g), 1024);
    }

    #[test]
    fn icache_validation() {
        assert!(IcacheConfig::Perfect.validate().is_ok());
        assert!(IcacheConfig::MissEvery { interval: 100 }.validate().is_ok());
        assert!(IcacheConfig::MissEvery { interval: 0 }.validate().is_err());
    }

    #[test]
    fn config_error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        let e = ConfigError::OutOfRange {
            what: "x",
            constraint: "y",
        };
        assert_err(&e);
    }

    #[test]
    fn fixed_rate_zero_interval_rejected() {
        let err = WriteBufferConfig::builder()
            .retirement(RetirementPolicy::FixedRate(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::OutOfRange { .. }));
    }

    #[test]
    fn zero_max_age_rejected() {
        assert!(WriteBufferConfig::builder()
            .max_age(Some(0))
            .build()
            .is_err());
        assert!(WriteBufferConfig::builder()
            .max_age(Some(256))
            .build()
            .is_ok());
    }

    #[test]
    fn zero_write_priority_threshold_rejected() {
        let err = WriteBufferConfig::builder()
            .priority(L2Priority::WritePriorityAbove(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::OutOfRange { .. }));
        assert!(WriteBufferConfig::builder()
            .priority(L2Priority::WritePriorityAbove(1))
            .build()
            .is_ok());
    }

    #[test]
    fn zero_l1_hit_latency_rejected() {
        let mut m = MachineConfig::baseline();
        m.l1.hit_latency = 0;
        let err = m.validate().unwrap_err();
        assert!(matches!(
            err,
            ConfigError::OutOfRange {
                what: "L1 hit latency",
                ..
            }
        ));
    }
}
