//! The cycle-level machine simulator.
//!
//! This crate assembles the substrates — L1 and L2 from `wbsim-mem`, the
//! write buffer from `wbsim-core` — into the paper's machine (Table 1): a
//! single-issue processor where every instruction takes one cycle and the
//! memory system adds stalls. The engine steps cycle by cycle, arbitrates
//! the L2 port between load misses and write-buffer retirements
//! (read-bypassing, writes never preempted — §2.2), and attributes every
//! write-buffer-induced stall cycle to exactly one of the paper's three
//! categories (§2.3, Table 3).
//!
//! The crate is layered: the private `hierarchy` module owns the shared
//! datapath (caches, write buffer, L2 port, memory, golden shadow) used
//! by both [`Machine`] (blocking) and [`NonBlockingMachine`] (§4.3);
//! each machine is a thin CPU state machine over it. Everything the
//! datapath does is reported as structured [`Event`]s to an [`Observer`]
//! — [`NullObserver`] for plain runs (zero cost), [`HistogramObserver`]
//! for occupancy/latency/burst distributions, or your own. The model
//! checkers drive both machines through one interface, [`SimMachine`].
//!
//! [`Machine::run`] simulates a reference stream against a configured
//! machine; [`Machine::run_ideal`] simulates the paper's implicit lower
//! bound — "a perfect buffer that never overflows and never delays loads"
//! (§2.3). For any flush-based hazard policy over a perfect L2,
//!
//! ```text
//! cycles(real) == cycles(ideal) + total write-buffer stall cycles
//! ```
//!
//! exactly — an identity the integration tests verify.
//!
//! # Example
//!
//! ```
//! use wbsim_sim::Machine;
//! use wbsim_types::addr::Addr;
//! use wbsim_types::config::MachineConfig;
//! use wbsim_types::op::Op;
//!
//! let ops = vec![
//!     Op::Store(Addr::new(0x100)),
//!     Op::Compute(10),
//!     Op::Load(Addr::new(0x100)), // misses L1, hits the write buffer
//! ];
//! let stats = Machine::new(MachineConfig::baseline()).unwrap().run(ops);
//! assert_eq!(stats.load_hazards, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fold;
mod hierarchy;
pub mod machine;
pub mod nonblocking;
pub mod observer;
pub mod port;
mod sim_machine;
pub mod testutil;
mod view;

pub use event::{Event, EventParseError, PortUse};
pub use fold::{foldable, L1Fold};
pub use hierarchy::{Engine, SkipSpan};
pub use machine::{Machine, MshrSnapshot};
pub use nonblocking::NonBlockingMachine;
pub use observer::{HistogramObserver, JsonlObserver, NullObserver, Observer, Tee};
pub use port::{L2Port, PortOwner};
pub use sim_machine::{capture_events, SimMachine};
pub use view::StateView;
