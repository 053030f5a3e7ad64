//! Deterministic fault injection for the HeteroOS reproduction.
//!
//! HeteroOS's claim is co-designed placement that stays correct *under
//! pressure* — FastMem exhaustion, bandwidth storms, failed migrations,
//! crashes. This crate perturbs the stack systematically so that claim is
//! tested, not assumed:
//!
//! * [`plan`] — seeded, wall-clock-free fault plans ([`FaultPlan`]) drawn
//!   from [`hetero_sim::SimRng`]: same seed, same faults, every run,
//! * [`inject`] — the injector the engine consults once per step and per
//!   migration (`hetero-mem` allocation and throttling, `hetero-guest`
//!   migration, guest and host crashes),
//! * [`audit`] — the guest-kernel invariant auditor cross-checking frame
//!   accounting (buddy counts vs. LRU/page-cache membership vs. balloon),
//!   returning typed [`Violation`] reports,
//! * [`sanitize`] — the layered cross-stack [`Sanitizer`] run behind
//!   [`AuditLevel`]s: tracker vs. memmap, swap/slab/page-cache residency,
//!   cost conservation, counter monotonicity, a migration differential and
//!   the fair-share ledger checks,
//! * [`shadow`] — the naive full-walk reference model ([`ShadowModel`])
//!   the sanitizer uses as its differential oracle for incremental
//!   residency and free-frame accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod inject;
pub mod plan;
pub mod sanitize;
pub mod shadow;

pub use audit::{audit_kernel, Violation};
pub use inject::{FaultInjector, FaultRecord, FaultSite, FaultTrace};
pub use plan::{FaultKind, FaultPlan, PlanError};
pub use sanitize::{
    audit_cluster, audit_fair_share, audit_residency, audit_tracker, AuditLevel, EpochCosts,
    HostLedgerView, Sanitizer,
};
pub use shadow::ShadowModel;
