//! Hypervisor (VMM) substrate for the HeteroOS reproduction.
//!
//! Stand-in for the paper's modified Xen: the privileged services HeteroOS
//! delegates to the VMM (§4):
//!
//! * [`drf`] — weighted Dominant Resource Fairness across memory types
//!   (Algorithm 1) and the max-min baseline: the per-host ledger behind
//!   on-demand grants, reservation floors and balloon reclaim plans,
//! * [`hotness`] — batched access-bit hotness tracking, in both the
//!   VMM-exclusive (full-VM) and coordinated (guest-guided) disciplines.
//!
//! Guest↔VMM messages (the split-driver ring of Fig 5) are direct calls:
//! the fleet simulator asks [`FairShare`] for grants and drives the guest
//! kernels' balloons itself, and the single-VM engine hands its tracking
//! ranges to [`HotnessTracker`] as arguments.
//!
//! # Examples
//!
//! ```
//! use hetero_mem::kind::KindMap;
//! use hetero_mem::MemKind;
//! use hetero_vmm::{FairShare, Grant, GuestId, SharePolicy};
//!
//! let mut total: KindMap<u64> = KindMap::default();
//! total[MemKind::Fast] = 64;
//! total[MemKind::Slow] = 256;
//! let mut fs = FairShare::new(SharePolicy::paper_drf(), total);
//! let mut floor: KindMap<u64> = KindMap::default();
//! floor[MemKind::Fast] = 16;
//! fs.register(GuestId(0), floor);
//! fs.register(GuestId(1), floor);
//! // Guest 1 grows into the free FastMem...
//! let mut demand: KindMap<u64> = KindMap::default();
//! demand[MemKind::Fast] = 32;
//! assert_eq!(fs.request(GuestId(1), demand), Grant::Granted);
//! // ...so guest 0's request is met by ballooning guest 1 above its floor.
//! demand[MemKind::Fast] = 8;
//! assert_eq!(
//!     fs.request(GuestId(0), demand),
//!     Grant::NeedsReclaim(vec![(GuestId(1), MemKind::Fast, 8)])
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drf;
pub mod hotness;

pub use drf::{FairShare, Grant, GuestId, SharePolicy};
pub use hotness::{HotnessTracker, ScanOutcome, TouchOracle};
