//! Heterogeneous-memory hardware substrate for the HeteroOS reproduction.
//!
//! The paper (§2.1) sidesteps unavailable NVM/3D-DRAM hardware by *emulating*
//! two generic memory types — **FastMem** (high bandwidth, low latency,
//! limited capacity) and **SlowMem** (low bandwidth, high latency, large
//! capacity) — via DRAM thermal throttling, parameterised by the
//! latency/bandwidth factors of Table 3. This crate is the software analogue
//! of that emulation testbed:
//!
//! * [`kind`] — memory tiers ([`MemKind`]) and per-tier maps,
//! * [`tech`] — the Table 1 technology characteristics,
//! * [`throttle`] — the Table 3 (L:x, B:y) throttle configurations,
//! * [`tier`] — named device-profile tier topologies ([`TierProfile`],
//!   selected via `repro --tier-profile`): the Table-1 trio, Optane DC,
//!   CXL,
//! * [`node`] — memory-node timing (latency + bandwidth dilation),
//! * [`llc`] — a last-level-cache model (16 MB testbed vs 48 MB Intel
//!   emulator, Figs 1–2),
//! * [`cost`] — the software cost model for scans, walks, copies and TLB
//!   flushes (Table 6, Fig 8),
//! * [`persist`] — the NVM persistence domain: per-frame flush state,
//!   `clflush`/`sfence` write-behind policies, crash survivors.
//!
//! # Examples
//!
//! ```
//! use hetero_mem::{MemKind, NodeParams, ThrottleConfig};
//!
//! let fast = NodeParams::new(MemKind::Fast, 4 << 30, ThrottleConfig::fast_mem());
//! let slow = NodeParams::new(MemKind::Slow, 8 << 30, ThrottleConfig::from_factors(5.0, 9.0));
//! assert_eq!(fast.capacity_pages(4096), 1 << 20);
//! assert!(slow.load_latency > fast.load_latency);
//! assert!(slow.bandwidth_gbps < fast.bandwidth_gbps);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod heatgen;
pub mod kind;
pub mod llc;
pub mod node;
pub mod persist;
pub mod tech;
pub mod throttle;
pub mod tier;

pub use cost::{CostModel, MigrationBatch};
pub use heatgen::ColdLedger;
pub use persist::{FlushPolicy, PersistDomain};
pub use kind::MemKind;
pub use llc::LlcModel;
pub use node::NodeParams;
pub use tech::TechProfile;
pub use throttle::ThrottleConfig;
pub use tier::{NodeSpec, TierProfile, TierSpec};
