//! Seeded fault plans.
//!
//! A [`FaultPlan`] describes *how much* of each fault family to inject —
//! per-site probabilities and magnitude bounds — and carries the seed that
//! makes the resulting schedule deterministic. Plans never consult the wall
//! clock: every decision an injector built from a plan makes is drawn from
//! [`hetero_sim::SimRng`], so the same `(plan, call sequence)` pair always
//! produces the same faults and the same trace.

use std::fmt;

use hetero_mem::MemKind;

/// One concrete fault drawn from a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// An allocation on `MemKind` is forced to fail.
    AllocFail(MemKind),
    /// A bandwidth/latency storm: SlowMem behaves `factor`× worse for
    /// `epochs` engine steps (models contention on the shared channel).
    LatencyStorm {
        /// Multiplier applied to the tier's throttle factors (≥ 1).
        factor: f64,
        /// Steps the storm lasts.
        epochs: u32,
    },
    /// A transient page-migration failure in the guest.
    MigrateFail,
    /// The host loses power: DRAM/FastMem contents are lost, *flushed* NVM
    /// frames are preserved and unflushed NVM frames are torn (discarded at
    /// recovery).
    HostPowerLoss,
    /// The guest crashes while the host (and its caches) stay up: every
    /// NVM-resident frame survives, flushed or not; only volatile-tier
    /// state is lost.
    GuestCrashPersist,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::AllocFail(k) => write!(f, "alloc-fail({k})"),
            FaultKind::LatencyStorm { factor, epochs } => {
                write!(f, "latency-storm(x{factor:.2},{epochs}ep)")
            }
            FaultKind::MigrateFail => f.write_str("migrate-fail"),
            FaultKind::HostPowerLoss => f.write_str("host-power-loss"),
            FaultKind::GuestCrashPersist => f.write_str("guest-crash-persist"),
        }
    }
}

/// A seeded description of how aggressively to perturb each boundary.
///
/// Probabilities are per *injection opportunity* (one allocation check,
/// one migration, one step), all in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// P(allocation fails) per [`crate::FaultInjector::fail_alloc`] call.
    pub alloc_fail: f64,
    /// P(a latency storm starts) per step, when none is active.
    pub latency_storm: f64,
    /// Upper bound on a storm's throttle multiplier (≥ 1).
    pub storm_max_factor: f64,
    /// Upper bound on a storm's duration in steps (≥ 1).
    pub storm_max_epochs: u32,
    /// P(migration fails transiently) per `migrate_page` call.
    pub migrate_fail: f64,
    /// P(the host loses power) per step — flushed NVM frames survive,
    /// unflushed NVM frames are torn, volatile tiers are lost.
    pub host_power_loss: f64,
    /// P(the guest crashes with the host up) per step — every NVM-resident
    /// frame survives; volatile tiers are lost.
    pub guest_crash_persist: f64,
}

impl FaultPlan {
    /// A plan that injects nothing — the control arm of a chaos soak.
    pub fn quiescent(seed: u64) -> Self {
        FaultPlan {
            seed,
            alloc_fail: 0.0,
            latency_storm: 0.0,
            storm_max_factor: 1.0,
            storm_max_epochs: 1,
            migrate_fail: 0.0,
            host_power_loss: 0.0,
            guest_crash_persist: 0.0,
        }
    }

    /// A plan that only pulls the plug: seeded host power losses on an
    /// otherwise quiet node — the control arm for recovery experiments.
    pub fn power_loss(seed: u64, probability: f64) -> Self {
        FaultPlan {
            host_power_loss: probability,
            ..FaultPlan::quiescent(seed)
        }
    }

    /// As [`FaultPlan::power_loss`] but with guest crashes under a live
    /// host (NVM caches survive, nothing is torn).
    pub fn crash_persist(seed: u64, probability: f64) -> Self {
        FaultPlan {
            guest_crash_persist: probability,
            ..FaultPlan::quiescent(seed)
        }
    }

    /// Occasional transient faults — the background noise of a healthy
    /// datacenter node.
    pub fn light(seed: u64) -> Self {
        FaultPlan {
            alloc_fail: 0.02,
            latency_storm: 0.05,
            storm_max_factor: 3.0,
            storm_max_epochs: 4,
            migrate_fail: 0.05,
            ..FaultPlan::quiescent(seed)
        }
    }

    /// Sustained pressure on every boundary — the plan the chaos soak leans
    /// on hardest.
    pub fn heavy(seed: u64) -> Self {
        FaultPlan {
            alloc_fail: 0.15,
            latency_storm: 0.20,
            storm_max_factor: 8.0,
            storm_max_epochs: 8,
            migrate_fail: 0.25,
            ..FaultPlan::quiescent(seed)
        }
    }

    /// A deterministic mix: seed `n` picks quiescent/light/heavy by
    /// `n % 3`, so a soak over consecutive seeds covers every intensity.
    pub fn for_seed(seed: u64) -> Self {
        match seed % 3 {
            0 => FaultPlan::quiescent(seed),
            1 => FaultPlan::light(seed),
            _ => FaultPlan::heavy(seed),
        }
    }

    /// Every probability field as `(name, value)` pairs, in declaration
    /// order — the validation walk.
    fn probabilities(&self) -> [(&'static str, f64); 5] {
        [
            ("alloc_fail", self.alloc_fail),
            ("latency_storm", self.latency_storm),
            ("migrate_fail", self.migrate_fail),
            ("host_power_loss", self.host_power_loss),
            ("guest_crash_persist", self.guest_crash_persist),
        ]
    }

    /// Checks every field a RNG draw depends on. Probabilities must be
    /// finite and in `[0, 1]`; `storm_max_epochs` must be ≥ 1 — the
    /// injector draws storm durations from `1..=bound`, so a zero bound is
    /// an empty range; `storm_max_factor` must be finite and ≥ 1.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] found, in field-declaration order.
    pub fn validate(&self) -> Result<(), PlanError> {
        for (field, value) in self.probabilities() {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(PlanError::Probability { field, value });
            }
        }
        if !self.storm_max_factor.is_finite() || self.storm_max_factor < 1.0 {
            return Err(PlanError::Factor {
                field: "storm_max_factor",
                value: self.storm_max_factor,
            });
        }
        if self.storm_max_epochs == 0 {
            return Err(PlanError::ZeroBound {
                field: "storm_max_epochs",
            });
        }
        Ok(())
    }

    /// A copy of the plan with every invalid field forced into range:
    /// probabilities clamp to `[0, 1]` (NaN → 0), a zero storm duration
    /// bound becomes 1, and `storm_max_factor` is raised to 1 (NaN → 1). The
    /// result always passes [`FaultPlan::validate`].
    pub fn clamped(&self) -> Self {
        let p = |v: f64| if v.is_nan() { 0.0 } else { v.clamp(0.0, 1.0) };
        FaultPlan {
            seed: self.seed,
            alloc_fail: p(self.alloc_fail),
            latency_storm: p(self.latency_storm),
            storm_max_factor: if self.storm_max_factor.is_nan() {
                1.0
            } else {
                self.storm_max_factor.max(1.0)
            },
            storm_max_epochs: self.storm_max_epochs.max(1),
            migrate_fail: p(self.migrate_fail),
            host_power_loss: p(self.host_power_loss),
            guest_crash_persist: p(self.guest_crash_persist),
        }
    }
}

/// Why a [`FaultPlan`] was rejected at construction.
///
/// Out-of-range probabilities do not fail loudly on their own: a negative
/// value silently never fires and a value above one always fires, while a
/// zero duration bound panics deep inside the RNG's `next_range`. Surfacing
/// them here keeps the misbehaviour at the boundary where it was written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// A probability field is NaN, infinite, or outside `[0, 1]`.
    Probability {
        /// Offending field name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A duration bound the injector draws `1..=bound` from is zero.
    ZeroBound {
        /// Offending field name.
        field: &'static str,
    },
    /// A multiplier that must be finite and ≥ 1 is not.
    Factor {
        /// Offending field name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Probability { field, value } => {
                write!(f, "fault plan: {field} = {value} is not a probability in [0, 1]")
            }
            PlanError::ZeroBound { field } => {
                write!(f, "fault plan: {field} must be >= 1 (durations are drawn from 1..=bound)")
            }
            PlanError::Factor { field, value } => {
                write!(f, "fault plan: {field} = {value} must be finite and >= 1")
            }
        }
    }
}

impl std::error::Error for PlanError {}

hetero_sim::impl_snap!(enum FaultKind {
    0 => AllocFail(kind),
    1 => LatencyStorm { factor, epochs },
    2 => MigrateFail {},
    8 => HostPowerLoss {},
    9 => GuestCrashPersist {},
});

hetero_sim::impl_snap!(struct FaultPlan {
    seed, alloc_fail, latency_storm, storm_max_factor, storm_max_epochs,
    migrate_fail, host_power_loss, guest_crash_persist
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_seed_is_deterministic() {
        assert_eq!(FaultPlan::for_seed(9), FaultPlan::for_seed(9));
        assert_eq!(FaultPlan::for_seed(3), FaultPlan::quiescent(3));
        assert_eq!(FaultPlan::for_seed(4), FaultPlan::light(4));
        assert_eq!(FaultPlan::for_seed(5), FaultPlan::heavy(5));
    }

    #[test]
    fn presets_all_validate() {
        for seed in 0..6 {
            FaultPlan::for_seed(seed).validate().unwrap();
        }
        FaultPlan::power_loss(1, 0.05).validate().unwrap();
        FaultPlan::crash_persist(1, 0.05).validate().unwrap();
    }

    #[test]
    fn boundary_probabilities_are_accepted() {
        // 0 and 1 are both legal — only strictly outside [0,1] rejects.
        let mut p = FaultPlan::quiescent(0);
        p.alloc_fail = 1.0;
        p.host_power_loss = 0.0;
        p.validate().unwrap();
    }

    #[test]
    fn out_of_range_probability_rejects_with_field_name() {
        let mut p = FaultPlan::quiescent(0);
        p.migrate_fail = 1.0 + 1e-9;
        assert_eq!(
            p.validate(),
            Err(PlanError::Probability {
                field: "migrate_fail",
                value: 1.0 + 1e-9
            })
        );
        p.migrate_fail = -0.25;
        assert!(matches!(
            p.validate(),
            Err(PlanError::Probability { field: "migrate_fail", .. })
        ));
        p.migrate_fail = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_duration_bounds_reject() {
        let mut p = FaultPlan::quiescent(0);
        p.storm_max_epochs = 0;
        assert_eq!(
            p.validate(),
            Err(PlanError::ZeroBound {
                field: "storm_max_epochs"
            })
        );
    }

    #[test]
    fn sub_unit_storm_factor_rejects() {
        let mut p = FaultPlan::quiescent(0);
        p.storm_max_factor = 0.5;
        assert!(matches!(p.validate(), Err(PlanError::Factor { .. })));
    }

    #[test]
    fn clamped_repairs_every_invalid_field() {
        let mut p = FaultPlan::heavy(3);
        p.alloc_fail = 1.7;
        p.migrate_fail = -2.0;
        p.host_power_loss = f64::NAN;
        p.storm_max_factor = 0.0;
        p.storm_max_epochs = 0;
        let c = p.clamped();
        c.validate().unwrap();
        assert_eq!(c.alloc_fail, 1.0);
        assert_eq!(c.migrate_fail, 0.0);
        assert_eq!(c.host_power_loss, 0.0);
        assert_eq!(c.storm_max_factor, 1.0);
        assert_eq!(c.storm_max_epochs, 1);
        // Valid fields pass through untouched.
        assert_eq!(c.latency_storm, FaultPlan::heavy(3).latency_storm);
        assert_eq!(c.seed, 3);
    }

    #[test]
    fn plan_errors_render() {
        let e = PlanError::Probability {
            field: "host_power_loss",
            value: 2.0,
        };
        assert!(e.to_string().contains("host_power_loss"));
        assert!(PlanError::ZeroBound { field: "x" }.to_string().contains(">= 1"));
    }

    #[test]
    fn kinds_render_compactly() {
        assert_eq!(FaultKind::MigrateFail.to_string(), "migrate-fail");
        assert_eq!(
            FaultKind::LatencyStorm {
                factor: 2.5,
                epochs: 3
            }
            .to_string(),
            "latency-storm(x2.50,3ep)"
        );
        assert_eq!(FaultKind::HostPowerLoss.to_string(), "host-power-loss");
        assert_eq!(
            FaultKind::GuestCrashPersist.to_string(),
            "guest-crash-persist"
        );
    }
}
