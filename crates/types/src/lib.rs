//! Common vocabulary types for the `wbsim` workspace.
//!
//! This crate defines the types shared by every other `wbsim` crate:
//!
//! * [`addr`] — byte addresses, cache-line addresses, and the
//!   [`addr::Geometry`] that maps between them;
//! * [`policy`] — the write-buffer policy enums studied by the paper
//!   (retirement, load-hazard, L2 priority, datapath width);
//! * [`config`] — validated configuration for the write buffer, the caches,
//!   and the whole machine, mirroring Tables 1 and 2 of the paper;
//! * [`stall`] — the paper's three-way taxonomy of write-buffer-induced
//!   stalls (Table 3);
//! * [`stats`] — counters accumulated by a simulation run and derived
//!   metrics (stall percentages, hit rates, CPI);
//! * [`file_config`] — a plain-text `.wbcfg` machine-configuration format;
//! * [`diagnostics`] — structured lint findings ([`diagnostics::Diagnostic`])
//!   shared by the file-config loader and the `wbsim-check` linter;
//! * [`divergence`] — differential-oracle vocabulary: divergence reports
//!   and deliberate fault injection;
//! * [`json`] — the one hand-rolled JSON parser/escaper shared by every
//!   emitter in the workspace (events, snapshots, diagnostics, manifests);
//! * [`cachekey`] — content-addressed cache keys for the job layer;
//! * [`wire`] — [`wire_names!`], the one table of wire names each
//!   enum that crosses a wire declares beside its definition.
//!
//! The paper reproduced throughout this workspace is Kevin Skadron and
//! Douglas W. Clark, *Design Issues and Tradeoffs for Write Buffers*,
//! HPCA-3, 1997.
//!
//! # Example
//!
//! ```
//! use wbsim_types::config::{MachineConfig, WriteBufferConfig};
//! use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};
//!
//! // The paper's baseline: 4-deep, line-wide, retire-at-2, flush-full.
//! let wb = WriteBufferConfig::baseline();
//! assert_eq!(wb.depth, 4);
//! assert_eq!(wb.retirement, RetirementPolicy::RetireAt(2));
//! assert_eq!(wb.hazard, LoadHazardPolicy::FlushFull);
//!
//! let machine = MachineConfig::baseline();
//! assert_eq!(machine.l2.latency(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cachekey;
pub mod config;
pub mod diagnostics;
pub mod divergence;
pub mod file_config;
pub mod json;
pub mod op;
pub mod policy;
pub mod stall;
pub mod stats;
pub mod sync;
pub mod testutil;
pub mod wire;

pub use addr::{Addr, Geometry, LineAddr, WordMask};
pub use cachekey::{CacheKey, KeyHasher, ENGINE_VERSION};
pub use config::{ConfigError, IcacheConfig, L1Config, L2Config, MachineConfig, WriteBufferConfig};
pub use diagnostics::{registry_entry, CodeEntry, Diagnostic, Severity, REGISTRY};
pub use divergence::{Divergence, FaultInjection, LoadSource};
pub use op::Op;
pub use policy::{DatapathWidth, L2Priority, LoadHazardPolicy, RetirementOrder, RetirementPolicy};
pub use stall::{StallBreakdown, StallKind};
pub use stats::SimStats;

/// A simulation timestamp, measured in processor cycles from the start of
/// the run.
pub type Cycle = u64;

/// Implements `Clone` for a struct from its full field list, with a
/// `clone_from` that forwards to every field's own `clone_from`.
///
/// A derived `Clone` never overrides `clone_from`, so on a derived type
/// `dst.clone_from(&src)` allocates exactly as `src.clone()` does. The
/// impls this macro writes reuse the target's buffers instead: a `Vec`
/// keeps its allocation, a map its table, and a nested type with such an
/// impl of its own recurses. The model checkers fork a machine at every
/// explored state into one recycled machine of the same configuration,
/// so the fork reuses that machine's buffers instead of allocating.
///
/// Both methods destructure `Self` by every listed field, with no `..`:
/// a field added to the struct but not to the list does not compile.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Log {
///     now: u64,
///     lines: Vec<u64>,
/// }
/// wbsim_types::clone_fields!(Log { now, lines });
///
/// let src = Log { now: 3, lines: vec![1, 2] };
/// let mut dst = Log { now: 0, lines: Vec::with_capacity(8) };
/// dst.clone_from(&src);
/// assert_eq!(dst, src);
/// assert!(dst.lines.capacity() >= 8, "the target's buffer is reused");
/// ```
///
/// A generic struct names its type parameters, which must be `Clone`:
/// `clone_fields!(impl<M> Pair<M> { a, b })`.
#[macro_export]
macro_rules! clone_fields {
    (@methods $($f:ident),+) => {
        fn clone(&self) -> Self {
            let Self { $($f),+ } = self;
            Self { $($f: Clone::clone($f)),+ }
        }

        fn clone_from(&mut self, src: &Self) {
            let Self { $($f),+ } = self;
            $(Clone::clone_from($f, &src.$f);)+
        }
    };
    (impl<$($g:ident),+> $ty:ty { $($f:ident),+ $(,)? }) => {
        impl<$($g: Clone),+> Clone for $ty {
            $crate::clone_fields!(@methods $($f),+);
        }
    };
    ($ty:ty { $($f:ident),+ $(,)? }) => {
        impl Clone for $ty {
            $crate::clone_fields!(@methods $($f),+);
        }
    };
}
