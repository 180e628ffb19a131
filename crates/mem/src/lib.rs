//! Memory-hierarchy substrates for `wbsim`.
//!
//! The paper's machine (Table 1) has a write-through, write-around L1 data
//! cache, a perfect instruction cache, a write-back L2 (perfect in the
//! baseline, finite in §4.2), and main memory. This crate implements each
//! level as a *data-carrying* model: every cache holds real word values, so
//! the simulator can verify end-to-end that loads always observe the
//! freshest store — the invariant the write buffer's load-hazard machinery
//! exists to protect.
//!
//! Timing lives in `wbsim-sim`; these models are purely structural
//! (hits, misses, evictions, inclusion) and know nothing about cycles.
//!
//! # Representation
//!
//! The levels hand whole lines to each other, as the paper's write buffer
//! does, without hashing a word or allocating on the way:
//!
//! * [`MainMemory`] keeps 64-word pages in one slab, found through an
//!   index keyed by page number under a fixed multiplicative hash. Every
//!   legal line fits inside one page, so a line read or masked line write
//!   costs one lookup; never-written words read as zero from a static
//!   zero page, and a page is allocated only when a nonzero word is first
//!   written into it.
//! * The caches store their data in one flat array of lines.
//!   [`L2Cache::read_line`] lends the line it read (from its own array, or
//!   from memory's page for a perfect L2); a write-allocate merges in
//!   place; [`L1Cache::fill_with_victim`] swaps a dirty victim's words out
//!   through the caller's line buffer.
//!
//! # Example
//!
//! ```
//! use wbsim_mem::{L1Cache, MainMemory};
//! use wbsim_types::addr::{Addr, Geometry};
//! use wbsim_types::config::L1Config;
//!
//! let g = Geometry::alpha_baseline();
//! let mut mem = MainMemory::new();
//! let mut l1 = L1Cache::new(&L1Config::baseline(), &g).unwrap();
//!
//! let a = Addr::new(0x1000);
//! let line = g.line_of(a);
//! mem.write_word(g.word_addr(a), 99);
//! assert!(l1.load_word(line, 0).is_none(), "cold miss");
//! l1.fill(line, mem.read_line(&g, line));
//! assert_eq!(l1.load_word(line, 0), Some(99));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod icache;
pub mod l1;
pub mod l2;
pub mod memory;

pub use icache::Icache;
pub use l1::L1Cache;
pub use l2::{L2Cache, L2ReadOutcome, L2WriteOutcome};
pub use memory::MainMemory;
