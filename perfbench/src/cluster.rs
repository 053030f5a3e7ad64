//! The `cluster-1k` workload: the full-length `repro cluster` scenario
//! driven through `Cluster::new/step_round/finish`.

use std::collections::BTreeMap;
use std::time::Instant;

use hetero_core::experiments::{cluster::fleet_spec, ExpOptions};
use hetero_core::{AuditLevel, Cluster, ClusterOutcome, Policy, SimConfig};
use hetero_vmm::SharePolicy;

use crate::bench::{guarded, report_counts, Pass, RunOut, Workload};
use crate::host;
use crate::metrics::Outcome;
use crate::replay::{self, GuestReplay};
use crate::spans::Tracer;
use crate::stats::{derive_seed, fnv64};

const GB: u64 = 1 << 30;

/// Runner threads in the timed passes. One thread: on a shared 2-vCPU
/// host a second stepping thread turns every neighbour's CPU use into
/// round latency, which made the timed figures unsteady.
const JOBS_TIMED: usize = 1;

/// Runner threads of the verification runs, which exercise the parallel
/// `Runner` and must reproduce the timed passes' bytes.
const JOBS_PARALLEL: usize = 2;

/// Rounds of the audited verification pass.
const AUDIT_ROUNDS: u64 = 200;

pub struct Fleet {
    opts: ExpOptions,
}

/// 1,000 Poisson arrivals from four templates onto 16 DRF hosts, balancer
/// and pre-copy live migration armed, the arrival stream seeded from the
/// workload seed.
pub fn cluster_1k(seed: u64) -> Fleet {
    Fleet {
        opts: ExpOptions {
            seed: derive_seed(seed, 0),
            jobs: JOBS_TIMED,
            ..ExpOptions::default()
        },
    }
}

pub fn digest(outcome: &ClusterOutcome) -> u64 {
    fnv64(outcome.to_json().as_bytes())
}

impl Fleet {
    /// The host configuration `repro cluster` uses (§5.1 host shape).
    fn host_cfg(&self, audit: AuditLevel, telemetry: bool) -> SimConfig {
        SimConfig::paper_default()
            .with_fast_bytes(4 * GB)
            .with_slow_bytes(8 * GB)
            .with_seed(self.opts.seed)
            .with_audit(audit)
            .with_sched(self.opts.sched)
            .with_telemetry(telemetry)
    }

    fn build(&self, jobs: usize, audit: AuditLevel, telemetry: bool) -> Cluster {
        Cluster::new(
            self.host_cfg(audit, telemetry),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            fleet_spec(&self.opts),
            jobs,
        )
    }

    fn scheduled(&self) -> u64 {
        match fleet_spec(&self.opts).arrivals {
            hetero_core::ArrivalProcess::Poisson { count, .. } => count as u64,
            hetero_core::ArrivalProcess::Trace(t) => t.len() as u64,
        }
    }

    /// Conservation checks on a finished run: every scheduled VM either
    /// departed or was refused, and every admitted VM departed.
    fn conserved(&self, outcome: &ClusterOutcome) -> bool {
        let r = &outcome.report;
        r.departures + r.rejected == self.scheduled() && r.arrivals == r.departures
    }
}

impl Workload for Fleet {
    fn setup(&self) -> u64 {
        let start = std::time::Instant::now();
        let c = self.build(JOBS_TIMED, AuditLevel::Off, false);
        let ns = start.elapsed().as_nanos() as u64;
        drop(c);
        ns
    }

    fn pass(&self, tracer: &mut Tracer, telemetry: bool, steps: &mut Vec<u64>) -> Pass {
        let span = tracer.open("bench.pass");
        let (mut cluster, setup_ns) = tracer.time("cluster.new", || {
            self.build(JOBS_TIMED, AuditLevel::Off, telemetry)
        });
        let result = guarded(|| {
            loop {
                let (more, ns) = tracer.time("cluster.step_round", || cluster.step_round());
                if !more {
                    break;
                }
                steps.push(ns);
            }
            tracer.time("cluster.finish", || cluster.finish()).0
        });
        tracer.close(span);
        let mut pass = Pass {
            setup_ns,
            ..Pass::default()
        };
        let ops = self.scheduled();
        let Some((outcome, violations)) = result else {
            pass.runs.push(RunOut {
                digest: None,
                ops,
                failed_ops: ops,
            });
            return pass;
        };
        let r = &outcome.report;
        pass.epochs = r.epochs;
        pass.sim_runtime_s = r.makespan.as_secs_f64();
        let ok = violations.is_empty() && self.conserved(&outcome);
        if !ok {
            eprintln!(
                "cluster run failed: {} violations, departures {} + rejected {} of {ops} scheduled",
                violations.len(),
                r.departures,
                r.rejected
            );
        }
        pass.runs.push(RunOut {
            digest: ok.then(|| digest(&outcome)),
            ops,
            failed_ops: if ok { r.rejected } else { ops },
        });
        let c = &mut pass.counts;
        report_counts(outcome.vm_reports.iter().map(|(_, rep)| rep), c);
        let vm_migrations = c.get("vmm.migrations").copied().unwrap_or(0.0);
        c.insert("guest.migrations", vm_migrations);
        c.insert("cluster.rounds", r.rounds as f64);
        c.insert("cluster.deferrals", r.deferrals as f64);
        c.insert(
            "cluster.admit_yield",
            r.arrivals as f64 / (r.arrivals + r.deferrals).max(1) as f64,
        );
        c.insert("cluster.rejected", r.rejected as f64);
        c.insert("cluster.migrations", r.migrations as f64);
        c.insert("cluster.pages_copied", r.pages_copied as f64);
        c.insert(
            "cluster.downtime_ms",
            r.migration_downtime.as_secs_f64() * 1e3,
        );
        pass
    }

    fn verify(&self, first: &Pass, out: &mut Outcome) {
        // The Runner merges in descriptor order, so two threads must give
        // the same bytes as one. The run's CPU over wall time is the
        // runner's parallel speed-up.
        let cpu0 = host::cpu_ns();
        let start = Instant::now();
        let parallel = guarded(|| {
            let mut c = self.build(JOBS_PARALLEL, AuditLevel::Off, false);
            while c.step_round() {}
            c.finish()
        });
        out.set(
            "runner.cpu_per_wall",
            (host::cpu_ns() - cpu0) as f64 / start.elapsed().as_nanos() as f64,
        );
        let ops = self.scheduled();
        let same = matches!(&parallel, Some((o, v)) if v.is_empty()
            && Some(digest(o)) == first.runs[0].digest);
        out.attempted += ops;
        out.failed += match &parallel {
            Some((o, _)) if same => o.report.rejected,
            _ => ops,
        };
        if let Some((o, _)) = &parallel {
            out.digests
                .push((format!("jobs{JOBS_PARALLEL}"), digest(o)));
        }
        out.check(
            format!("jobs={JOBS_PARALLEL} digest equals jobs={JOBS_TIMED} digest"),
            same,
        );
        out.check(
            "departures + rejected == scheduled, no violations",
            first.runs[0].digest.is_some(),
        );

        let audited = guarded(|| {
            let mut c = self.build(JOBS_PARALLEL, AuditLevel::Epoch, false);
            for _ in 0..AUDIT_ROUNDS {
                if !c.step_round() {
                    break;
                }
            }
            let (o, v) = c.finish();
            (o.report.arrivals, v.len())
        });
        // A panic counts as one failed operation.
        let (arrived, violations) = audited.unwrap_or((1, 0));
        let clean = audited.is_some() && violations == 0;
        out.attempted += arrived;
        if !clean {
            out.failed += arrived;
        }
        out.set("faults.violations", violations as f64);
        out.check(
            format!("epoch audit of {AUDIT_ROUNDS} rounds: 0 violations"),
            clean,
        );
    }

    fn replay(&self, tracer: &mut Tracer) -> BTreeMap<&'static str, u64> {
        let mut units = BTreeMap::new();
        let cfg = self.host_cfg(AuditLevel::Off, false);
        let spec = fleet_spec(&self.opts);
        for (i, t) in spec.templates.iter().enumerate() {
            let frames = |k| t.max_bytes[k] / cfg.scale / cfg.page_size;
            let g = GuestReplay {
                spec: t.spec.clone(),
                frames_fast: frames(hetero_mem::MemKind::Fast),
                frames_slow: frames(hetero_mem::MemKind::Slow),
                access_bit: false,
                seed: derive_seed(self.opts.seed, 1 + i as u64),
                cfg: cfg.clone(),
            };
            replay::guest(&g, tracer, &mut units);
        }
        replay::fair_share(
            &cfg,
            &spec,
            derive_seed(self.opts.seed, 9),
            tracer,
            &mut units,
        );
        units
    }
}
