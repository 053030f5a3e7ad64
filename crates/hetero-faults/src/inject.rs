//! The fault injector: a [`FaultPlan`] turned into per-site decisions.
//!
//! One [`FaultInjector`] is threaded through a run. At each boundary the
//! caller asks it a question — "does this allocation fail?", "does this
//! migration fail?" — and every *yes* is appended to a [`FaultTrace`].
//! Decisions come only from the plan's seeded RNG, so a run's trace is a
//! pure function of `(plan, call sequence)`: the chaos soak asserts the
//! same seed reproduces a byte-identical trace.

use std::fmt;

use hetero_guest::kernel::MigrateError;
use hetero_guest::page::Gfn;
use hetero_guest::GuestKernel;
use hetero_mem::{MemKind, ThrottleConfig};
use hetero_sim::SimRng;

use crate::plan::{FaultKind, FaultPlan, PlanError};

/// Where in the stack a fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `hetero-mem`: tier allocation.
    MemAlloc,
    /// `hetero-mem`: the throttle model (latency storms).
    Throttle,
    /// `hetero-guest`: page migration.
    Migration,
    /// Whole-guest lifecycle (crash with the host up).
    Guest,
    /// Whole-host lifecycle (power).
    Host,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultSite::MemAlloc => "mem/alloc",
            FaultSite::Throttle => "mem/throttle",
            FaultSite::Migration => "guest/migrate",
            FaultSite::Guest => "vmm/guest",
            FaultSite::Host => "host/power",
        };
        f.write_str(s)
    }
}

/// One injected fault, as recorded in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Engine step (as counted by [`FaultInjector::begin_step`]) when the
    /// fault fired.
    pub step: u64,
    /// Boundary it fired at.
    pub site: FaultSite,
    /// What was injected.
    pub kind: FaultKind,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {:>6} {:<15} {}", self.step, self.site, self.kind)
    }
}

/// The ordered log of every fault an injector fired.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTrace {
    records: Vec<FaultRecord>,
}

impl FaultTrace {
    /// Records in injection order.
    pub fn iter(&self) -> impl Iterator<Item = &FaultRecord> {
        self.records.iter()
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Faults fired at one site.
    pub fn at_site(&self, site: FaultSite) -> usize {
        self.records.iter().filter(|r| r.site == site).count()
    }

    /// One line per fault — the canonical form the determinism check
    /// compares byte-for-byte.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }
}

/// Per-run fault state: the plan, its RNG stream, active multi-step faults
/// and the trace.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    step: u64,
    trace: FaultTrace,
    /// Active latency storm: (factor, steps left).
    storm: Option<(f64, u32)>,
}

impl FaultInjector {
    /// Builds an injector from a plan, seeding its private RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] — an out-of-range
    /// probability or zero duration bound would otherwise misbehave (or
    /// panic) deep inside an RNG draw far from where it was written. Use
    /// [`FaultInjector::try_new`] to handle the error, or
    /// [`FaultPlan::clamped`] to force fields into range.
    pub fn new(plan: FaultPlan) -> Self {
        match Self::try_new(plan) {
            Ok(inj) => inj,
            Err(e) => panic!("{e}"),
        }
    }

    /// As [`FaultInjector::new`], surfacing an invalid plan as an error.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] from [`FaultPlan::validate`].
    pub fn try_new(plan: FaultPlan) -> Result<Self, PlanError> {
        plan.validate()?;
        let rng = SimRng::seed_from(plan.seed);
        Ok(FaultInjector {
            plan,
            rng,
            step: 0,
            trace: FaultTrace::default(),
            storm: None,
        })
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current step counter.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Everything injected so far.
    pub fn trace(&self) -> &FaultTrace {
        &self.trace
    }

    fn record(&mut self, site: FaultSite, kind: FaultKind) {
        self.trace.records.push(FaultRecord {
            step: self.step,
            site,
            kind,
        });
    }

    /// Advances the step counter and decays multi-step faults. Call once at
    /// the top of every engine step.
    pub fn begin_step(&mut self) {
        self.step += 1;
        if let Some((_, left)) = &mut self.storm {
            *left -= 1;
            if *left == 0 {
                self.storm = None;
            }
        }
    }

    // ------------------------------------------------- hetero-mem boundary

    /// Does allocation on `kind` fail? The engine asks once per epoch for
    /// FastMem; a yes degrades that epoch's placement to slower tiers.
    pub fn fail_alloc(&mut self, kind: MemKind) -> bool {
        if self.rng.chance(self.plan.alloc_fail) {
            self.record(FaultSite::MemAlloc, FaultKind::AllocFail(kind));
            true
        } else {
            false
        }
    }

    /// Current throttle multiplier: `1.0` outside a storm; inside one, the
    /// storm's factor. May start a new storm (recorded once, at onset).
    pub fn storm_factor(&mut self) -> f64 {
        if let Some((factor, _)) = self.storm {
            return factor;
        }
        if self.rng.chance(self.plan.latency_storm) {
            let span = (self.plan.storm_max_factor - 1.0).max(0.0);
            let factor = 1.0 + self.rng.next_f64() * span;
            let epochs = self.rng.next_range(1, u64::from(self.plan.storm_max_epochs) + 1) as u32;
            self.storm = Some((factor, epochs));
            self.record(FaultSite::Throttle, FaultKind::LatencyStorm { factor, epochs });
            factor
        } else {
            1.0
        }
    }

    /// A tier's throttle config under the current storm: both factors are
    /// scaled by [`Self::storm_factor`] and refit through the paper's model.
    pub fn storm_throttle(&mut self, base: &ThrottleConfig) -> ThrottleConfig {
        let f = self.storm_factor();
        if f <= 1.0 {
            return *base;
        }
        ThrottleConfig::from_factors(base.latency_factor * f, base.bandwidth_factor * f)
    }

    // ----------------------------------------------- hetero-guest boundary

    /// Does this migration fail transiently?
    pub fn fail_migration(&mut self) -> bool {
        if self.rng.chance(self.plan.migrate_fail) {
            self.record(FaultSite::Migration, FaultKind::MigrateFail);
            true
        } else {
            false
        }
    }

    /// Page migration with injection: a planned transient failure surfaces
    /// as [`MigrateError::Transient`], which callers treat as retryable.
    ///
    /// # Errors
    ///
    /// Returns any [`MigrateError`] the kernel itself reports, or
    /// [`MigrateError::Transient`] when the fault fires.
    pub fn migrate_page(
        &mut self,
        kernel: &mut GuestKernel,
        gfn: Gfn,
        target: MemKind,
    ) -> Result<Gfn, MigrateError> {
        if self.fail_migration() {
            return Err(MigrateError::Transient);
        }
        kernel.migrate_page(gfn, target)
    }

    /// Does the host lose power this step? Volatile tiers are lost; the
    /// NVM persistence domain decides which slow-tier frames survive
    /// (flushed) versus tear (dirty-in-cache).
    pub fn host_power_loss(&mut self) -> bool {
        if self.rng.chance(self.plan.host_power_loss) {
            self.record(FaultSite::Host, FaultKind::HostPowerLoss);
            true
        } else {
            false
        }
    }

    /// Does the guest crash this step with the host (and its caches) still
    /// up? Every NVM-resident frame survives, flushed or not.
    pub fn crash_guest_persist(&mut self) -> bool {
        if self.rng.chance(self.plan.guest_crash_persist) {
            self.record(FaultSite::Guest, FaultKind::GuestCrashPersist);
            true
        } else {
            false
        }
    }
}

hetero_sim::impl_snap!(enum FaultSite {
    0 => MemAlloc {},
    1 => Throttle {},
    2 => Migration {},
    6 => Guest {},
    7 => Host {},
});

hetero_sim::impl_snap!(struct FaultRecord { step, site, kind });

hetero_sim::impl_snap!(struct FaultTrace { records });

hetero_sim::impl_snap!(struct FaultInjector { plan, rng, step, trace, storm });
