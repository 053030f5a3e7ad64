//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a number measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Host time or host resources: what the simulator costs. Noisy.
    Host,
    /// Simulated time: what the modelled machine would take. Repeats
    /// exactly for a fixed seed.
    Sim,
    /// A count or ratio of simulated work. Repeats exactly for a fixed seed.
    Count,
    /// An outcome of the benchmark's own output checks.
    Check,
}

impl Basis {
    pub fn label(self) -> &'static str {
        match self {
            Basis::Host => "host",
            Basis::Sim => "simulated",
            Basis::Count => "count",
            Basis::Check => "check",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub basis: Basis,
}

const fn def(name: &'static str, unit: &'static str, basis: Basis) -> Def {
    Def { name, unit, basis }
}

use Basis::{Check, Count, Host, Sim};

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Host),
    def("epochs_per_s", "1/s", Host),
    def("step_p50_us", "us", Host),
    def("step_p99_us", "us", Host),
    def("cpu_us_per_epoch", "us", Host),
    def("peak_rss_mb", "MiB", Host),
    def("sim_runtime_s", "sim_s", Sim),
];

/// Printed by traced runs (`--trace 1`). A layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[Def] = &[
    def("core.new_ms", "ms", Host),
    def("core.step_us", "us", Host),
    def("core.report_us", "us", Host),
    def("bench.self_frac", "ratio", Host),
    def("eventq.skipped_frac", "ratio", Count),
    def("eventq.events_fired", "count", Count),
    def("cluster.round_ms", "ms", Host),
    def("cluster.finish_ms", "ms", Host),
    def("cluster.rounds", "count", Count),
    def("cluster.deferrals", "count", Count),
    def("cluster.admit_yield", "ratio", Count),
    def("cluster.rejected", "count", Count),
    def("cluster.migrations", "count", Count),
    def("cluster.pages_copied", "count", Count),
    def("cluster.downtime_ms", "sim_ms", Sim),
    def("snap.save_ms", "ms", Host),
    def("snap.restore_ms", "ms", Host),
    def("snap.kb", "KiB", Count),
    def("runner.cpu_per_wall", "ratio", Host),
    def("workloads.next_epoch_ns", "ns", Host),
    def("guest.heap_map_ns_per_page", "ns", Host),
    def("guest.munmap_ns_per_page", "ns", Host),
    def("guest.page_in_ns_per_page", "ns", Host),
    def("guest.slab_ns_per_obj", "ns", Host),
    def("guest.ad_harvest_ns_per_pte", "ns", Host),
    def("guest.age_lru_ns_per_page", "ns", Host),
    def("guest.migrate_ns_per_page", "ns", Host),
    def("guest.fast_alloc_miss_ratio", "ratio", Count),
    def("guest.migrations", "count", Count),
    def("guest.alloc_requests", "count", Count),
    def("guest.lru_deactivations", "count", Count),
    def("vmm.scan_ns_per_frame", "ns", Host),
    def("vmm.scans", "count", Count),
    def("vmm.scanned_pages", "count", Count),
    def("vmm.migrations", "count", Count),
    def("vmm.scan_yield", "per_1k", Count),
    def("vmm.frames_per_pass", "count", Count),
    def("vmm.pages_per_pass", "count", Count),
    def("vmm.drf_request_ns", "ns", Host),
    def("sim.compute_s", "sim_s", Sim),
    def("sim.memory_stall_s", "sim_s", Sim),
    def("sim.hotness_scan_s", "sim_s", Sim),
    def("sim.tlb_flush_s", "sim_s", Sim),
    def("sim.page_walk_s", "sim_s", Sim),
    def("sim.page_copy_s", "sim_s", Sim),
    def("sim.management_s", "sim_s", Sim),
    def("sim.io_wait_s", "sim_s", Sim),
    def("mem.llc_misses", "count", Count),
    def("mem.avg_miss_latency_ns", "sim_ns", Sim),
    def("mem.slow_writes", "count", Count),
    def("faults.violations", "count", Check),
    def("failed_frac", "ratio", Check),
    def("trace.epochs_per_s", "1/s", Host),
    def("trace.base_epochs_per_s", "1/s", Host),
    def("trace.overhead_frac", "ratio", Host),
    def("trace.spans", "count", Host),
];

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Named FNV-64 digests of deterministic outputs.
    pub digests: Vec<(String, u64)>,
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts and other context printed beside a metric.
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, note: String) {
        self.notes.insert(name, note);
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Human-readable lines: every metric of `defs` with unit, basis and
    /// notes, then the digests and checks.
    pub fn render(&self, defs: &[Def]) -> String {
        let mut out = String::new();
        for d in defs {
            let v = self.values.get(d.name).copied().unwrap_or(0.0);
            let note = self
                .notes
                .get(d.name)
                .map_or(String::new(), |n| format!("  ({n})"));
            let _ = writeln!(
                out,
                "{:<30} {:>16} {:<7} [{}]{note}",
                d.name,
                fmt_num(v),
                d.unit,
                d.basis.label()
            );
        }
        for (name, digest) in &self.digests {
            let _ = writeln!(out, "digest {name:<26} {digest:016x}");
        }
        for (name, ok) in &self.checks {
            let _ = writeln!(
                out,
                "check  {name:<40} {}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// metrics of `defs`, in catalogue order.
    pub fn result_line(&self, defs: &[Def]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            debug_assert!(crate::stats::valid_name(d.name), "{}", d.name);
            let v = self.values.get(d.name).copied().unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                fmt_num(v),
                d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit of `v` (non-finite values print as 0).
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
