//! The single-VM workloads, `heap-churn` and `io-writes`, driven through
//! `SingleVmSim::new/step/report/save/restore`.

use std::collections::BTreeMap;

use hetero_core::{AuditLevel, Policy, RunReport, SimConfig, SingleVmSim, Tracking};
use hetero_mem::TierProfile;
use hetero_sim::Registry;
use hetero_workloads::{apps, AppWorkload, WorkloadSpec};

use crate::bench::{guarded, report_counts, Counts, Pass, RunOut, Workload};
use crate::metrics::Outcome;
use crate::replay::{self, GuestReplay};
use crate::spans::Tracer;
use crate::stats::{derive_seed, fnv64};

type Sim = SingleVmSim<AppWorkload>;

pub struct SingleVm {
    app: fn() -> WorkloadSpec,
    cfg: SimConfig,
    /// Workload seed; run `i` of every pass uses `derive_seed(seed, i)`.
    seed: u64,
    runs_per_pass: u64,
    /// Save, restore and continue from the restored simulator every this
    /// many epochs (0: never).
    checkpoint_every: u64,
    /// Epochs of the audited verification pass.
    audit_epochs: u64,
}

/// graphchi under HeteroOS-coordinated, FastMem:SlowMem 1:4, at 8x the
/// default page density (`scale` 8 instead of 64), three runs per pass.
pub fn heap_churn(seed: u64) -> SingleVm {
    let mut cfg = SimConfig::paper_default().with_capacity_ratio(1, 4);
    cfg.scale = 8;
    SingleVm {
        app: apps::graphchi,
        cfg,
        seed,
        runs_per_pass: 3,
        checkpoint_every: 0,
        audit_epochs: 150,
    }
}

/// nginx under HeteroOS-coordinated, 1:4, on DRAM over Optane DC with
/// page-table A/D tracking, checkpointed every 100 epochs, four runs per pass.
pub fn io_writes(seed: u64) -> SingleVm {
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_tier_profile(Some(TierProfile::OptaneDc))
        .with_tracking(Some(Tracking::AccessBit));
    SingleVm {
        app: apps::nginx,
        cfg,
        seed,
        runs_per_pass: 4,
        checkpoint_every: 100,
        audit_epochs: 150,
    }
}

/// What one run leaves behind besides its report.
#[derive(Default)]
struct RunExtras {
    snapshot_bytes: usize,
    counts: Counts,
}

impl SingleVm {
    fn run_cfg(&self, i: u64) -> SimConfig {
        self.cfg.clone().with_seed(derive_seed(self.seed, i))
    }

    fn build(cfg: SimConfig, spec: WorkloadSpec) -> Sim {
        let workload = AppWorkload::new(spec, cfg.page_size, cfg.scale);
        SingleVmSim::new(cfg, Policy::HeteroCoordinated, workload)
    }

    fn build_pass(&self, tracer: &mut Tracer, telemetry: bool) -> Vec<Sim> {
        (0..self.runs_per_pass)
            .map(|i| {
                let cfg = self.run_cfg(i).with_telemetry(telemetry);
                tracer.time("core.new", || Self::build(cfg, (self.app)())).0
            })
            .collect()
    }

    /// Steps `sim` to the end, checkpointing every `checkpoint_every`
    /// epochs, and returns its report.
    fn run(
        mut sim: Sim,
        checkpoint_every: u64,
        tracer: &mut Tracer,
        steps: &mut Vec<u64>,
    ) -> Result<(RunReport, RunExtras), String> {
        let mut extras = RunExtras::default();
        let mut epoch = 0u64;
        loop {
            let (more, ns) = tracer.time("core.step", || sim.step());
            if !more {
                break;
            }
            steps.push(ns);
            epoch += 1;
            if checkpoint_every > 0 && epoch.is_multiple_of(checkpoint_every) {
                let (bytes, _) = tracer.time("snap.save", || sim.save());
                extras.snapshot_bytes = bytes.len();
                let (restored, _) = tracer.time("snap.restore", || Sim::restore(&bytes));
                sim = restored.map_err(|e| format!("restore at epoch {epoch}: {e}"))?;
            }
        }
        let (report, _) = tracer.time("core.report", || sim.report());
        let c = &mut extras.counts;
        c.insert("eventq.events_fired", sim.events_fired() as f64);
        c.insert("eventq.skipped", sim.epochs_skipped() as f64);
        let mut reg = Registry::new();
        sim.kernel().export_telemetry(&mut reg);
        c.insert("guest.migrations", reg.counter("guest.migrations") as f64);
        c.insert(
            "guest.alloc_requests",
            reg.counter("guest.alloc.requests") as f64,
        );
        c.insert(
            "guest.lru_deactivations",
            reg.counter("guest.lru.deactivations") as f64,
        );
        if let Some(t) = sim.telemetry() {
            let mean = |n: &str| t.registry.histogram(n).map_or(0.0, |h| h.mean());
            c.insert("vmm.frames_per_pass", mean("vmm.scan.frames_per_pass"));
            c.insert("vmm.pages_per_pass", mean("vmm.migrate.pages_per_pass"));
        }
        Ok((report, extras))
    }

    /// The guest-sized standalone kernel replay of run 0's demand stream.
    fn guest_replay(&self) -> GuestReplay {
        let cfg = self.run_cfg(0);
        GuestReplay {
            spec: (self.app)(),
            frames_fast: cfg.guest_frames_fast(),
            frames_slow: cfg.guest_frames_slow(),
            access_bit: cfg.tracking_override == Some(Tracking::AccessBit),
            seed: cfg.seed,
            cfg,
        }
    }
}

pub fn digest(report: &RunReport) -> u64 {
    fnv64(report.to_json().as_bytes())
}

impl Workload for SingleVm {
    fn setup(&self) -> u64 {
        let start = std::time::Instant::now();
        let sims = self.build_pass(&mut Tracer::new(false), false);
        let ns = start.elapsed().as_nanos() as u64;
        drop(sims);
        ns
    }

    fn pass(&self, tracer: &mut Tracer, telemetry: bool, steps: &mut Vec<u64>) -> Pass {
        let span = tracer.open("bench.pass");
        let start = std::time::Instant::now();
        let sims = self.build_pass(tracer, telemetry);
        let mut pass = Pass {
            setup_ns: start.elapsed().as_nanos() as u64,
            ..Pass::default()
        };
        let mut reports = Vec::new();
        let mut per_run: Vec<Counts> = Vec::new();
        let mut snapshot_bytes = 0;
        for sim in sims {
            let every = self.checkpoint_every;
            let result = guarded(|| Self::run(sim, every, tracer, steps));
            let digest = match result {
                Some(Ok((report, extras))) => {
                    pass.epochs += report.epochs;
                    pass.sim_runtime_s += report.runtime.as_secs_f64();
                    snapshot_bytes = extras.snapshot_bytes;
                    per_run.push(extras.counts);
                    let d = digest(&report);
                    reports.push(report);
                    Some(d)
                }
                Some(Err(e)) => {
                    eprintln!("run failed: {e}");
                    None
                }
                None => None,
            };
            pass.runs.push(RunOut {
                digest,
                ops: 1,
                failed_ops: u64::from(digest.is_none()),
            });
        }
        tracer.close(span);
        let c = &mut pass.counts;
        report_counts(&reports, c);
        for run in &per_run {
            for (k, v) in run {
                *c.entry(k).or_default() += v;
            }
        }
        let runs = per_run.len().max(1) as f64;
        for k in ["vmm.frames_per_pass", "vmm.pages_per_pass"] {
            if let Some(v) = c.get_mut(k) {
                *v /= runs;
            }
        }
        let skipped = c.remove("eventq.skipped").unwrap_or(0.0);
        c.insert("eventq.skipped_frac", skipped / pass.epochs.max(1) as f64);
        c.insert("snap.kb", snapshot_bytes as f64 / 1024.0);
        pass
    }

    fn verify(&self, first: &Pass, out: &mut Outcome) {
        let mut off = Tracer::new(false);
        if self.checkpoint_every > 0 {
            // Checkpointed runs must end exactly where uninterrupted ones do.
            let mut same = true;
            for (i, run) in first.runs.iter().enumerate() {
                let sim = Self::build(self.run_cfg(i as u64), (self.app)());
                let reference = guarded(|| Self::run(sim, 0, &mut off, &mut Vec::new()));
                let ok = matches!(&reference, Some(Ok((r, _))) if Some(digest(r)) == run.digest);
                out.attempted += 1;
                out.failed += u64::from(!ok);
                same &= ok;
            }
            out.check("save/restore runs equal uninterrupted runs", same);
        }
        let cfg = self.run_cfg(0).with_audit(AuditLevel::Epoch);
        let epochs = self.audit_epochs;
        let violations = guarded(|| {
            let mut sim = Self::build(cfg, (self.app)());
            for _ in 0..epochs {
                if !sim.step() {
                    break;
                }
            }
            sim.violations().len()
        });
        out.attempted += 1;
        let clean = violations == Some(0);
        out.failed += u64::from(!clean);
        out.set("faults.violations", violations.unwrap_or(0) as f64);
        out.check(
            format!("epoch audit of {epochs} epochs: 0 violations"),
            clean,
        );
    }

    fn replay(&self, tracer: &mut Tracer) -> BTreeMap<&'static str, u64> {
        let mut units = BTreeMap::new();
        replay::guest(&self.guest_replay(), tracer, &mut units);
        units
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> SingleVm {
        let mut w = io_writes(seed);
        w.app = || {
            let mut s = apps::nginx();
            s.total_instructions /= 40;
            s
        };
        w.checkpoint_every = 7;
        w.runs_per_pass = 1;
        w
    }

    #[test]
    fn digests_repeat_across_passes_and_with_telemetry() {
        let w = tiny(11);
        let mut t = Tracer::new(false);
        let a = w.pass(&mut t, false, &mut Vec::new());
        let b = w.pass(&mut t, true, &mut Vec::new());
        assert!(a.epochs > 7, "the run must cross a checkpoint");
        assert!(a.runs[0].digest.is_some());
        assert_eq!(a.runs[0].digest, b.runs[0].digest);
    }

    #[test]
    fn verify_passes_on_a_clean_run() {
        let mut w = tiny(3);
        w.audit_epochs = 5;
        let first = w.pass(&mut Tracer::new(false), false, &mut Vec::new());
        let mut out = Outcome::default();
        w.verify(&first, &mut out);
        assert!(out.correct(), "{}", out.render(&[]));
        assert_eq!(out.attempted, 2);
    }
}
