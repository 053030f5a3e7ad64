//! Guest-OS substrate for the HeteroOS reproduction.
//!
//! This crate is the reproduction's stand-in for the modified Linux guest of
//! the paper: a heterogeneity-aware virtual memory manager built from the
//! same parts the paper extends (§3):
//!
//! * [`memmap`] — the `struct page` array with per-(type, tier) residency
//!   accounting,
//! * [`buddy`] — a real binary buddy allocator, one per memory-type NUMA
//!   node,
//! * [`pcp`] — multi-dimensional per-CPU free lists (HeteroOS's redesign),
//! * [`vma`] / [`pagetable`] — the address space and a 4-level radix page
//!   table with accessed/dirty bits for hotness scans,
//! * [`lru`] — split active/inactive LRUs per tier (HeteroOS-LRU substrate),
//! * [`swap`] — the swap map anonymous pages spill to under balloon
//!   pressure,
//! * [`pagecache`] / [`slab`] — the I/O page classes HeteroOS prioritizes,
//! * [`stats`] — the allocation hit/miss windows behind demand-based
//!   FastMem prioritization,
//! * [`kernel`] — the [`GuestKernel`] facade gluing it together
//!   (allocation with tier preference, migration with §4.1 validity checks,
//!   ballooning).
//!
//! # Examples
//!
//! ```
//! use hetero_guest::kernel::{GuestConfig, GuestKernel};
//! use hetero_mem::MemKind;
//!
//! let mut kernel = GuestKernel::new(GuestConfig::default());
//! // Allocate a heap region preferring FastMem with SlowMem fallback.
//! let (vma, placed) = kernel.mmap_heap(
//!     64,
//!     std::iter::repeat(128),
//!     &[MemKind::Fast, MemKind::Slow],
//! )?;
//! assert_eq!(placed.total(), 64);
//! kernel.munmap(vma.start, vma.pages);
//! # Ok::<(), hetero_guest::kernel::AllocFailed>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buddy;
pub mod kernel;
pub mod lru;
pub mod memmap;
pub mod page;
pub mod pagecache;
pub mod pagetable;
pub mod pcp;
pub mod slab;
pub mod stats;
pub mod swap;
pub mod vma;

pub use kernel::{GuestConfig, GuestKernel, SlabClass};
pub use page::{Gfn, PageType};
