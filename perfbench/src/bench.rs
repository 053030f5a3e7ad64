//! The workload-independent part of the benchmark: set-up repetitions, the timed loop of
//! passes, the output checks every workload shares, and the assembly of
//! end-to-end and per-layer metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hetero_core::RunReport;
use hetero_sim::CostCategory;

use crate::host;
use crate::metrics::Outcome;
use crate::spans::{NameTotals, Tracer};
use crate::stats::{self, Pct};

/// Standalone set-ups measured after the timed loop: at least this many,
/// and until `SETUP_MIN_NS` has been spent, so that a set-up of a few
/// microseconds still gets a steady median. Each timed pass adds one more.
const SETUP_MIN_REPS: usize = 9;
const SETUP_MIN_NS: u64 = 300_000_000;

/// Deterministic counts of one pass, keyed by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// One simulated run inside a pass (one guest run, or one cluster run).
#[derive(Debug, Clone, Default)]
pub struct RunOut {
    /// Digest of the run's deterministic report; `None` when it failed.
    pub digest: Option<u64>,
    /// Operations the run attempted (1 per guest run; 1 per VM arrival).
    pub ops: u64,
    /// Operations that failed (a panic, a failed restore, a refused VM).
    pub failed_ops: u64,
}

/// One pass: every simulation the workload steps, built then run to the end.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host time to build the pass's simulations.
    pub setup_ns: u64,
    /// Driver-step latencies, wall time and process CPU time of the pass
    /// (filled in by `Measured::run_pass`).
    pub steps: Vec<u64>,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Guest epochs simulated.
    pub epochs: u64,
    /// Simulated runtime summed over the pass's guests (cluster: makespan).
    pub sim_runtime_s: f64,
    pub runs: Vec<RunOut>,
    /// Per-layer counts (complete when the pass ran with telemetry on).
    pub counts: Counts,
}

/// A benchmark workload.
pub trait Workload {
    /// Builds (and drops) one pass's simulations; returns the host time.
    fn setup(&self) -> u64;
    /// Builds and runs one pass. Driver-step latencies go to `steps`.
    fn pass(&self, tracer: &mut Tracer, telemetry: bool, steps: &mut Vec<u64>) -> Pass;
    /// Output checks beyond repeat-stability, run outside the timed loop.
    fn verify(&self, first: &Pass, out: &mut Outcome);
    /// The layer replay; returns the work units each span name did.
    fn replay(&self, tracer: &mut Tracer) -> BTreeMap<&'static str, u64>;
}

/// The passes of one timed loop (or one side of an alternating loop).
/// Host-time metrics are medians over passes, so that one pass disturbed
/// by other load on the host does not move them.
#[derive(Default)]
struct Measured {
    passes: Vec<Pass>,
}

impl Measured {
    fn epochs(&self) -> u64 {
        self.passes.iter().map(|p| p.epochs).sum()
    }

    fn wall_ns(&self) -> u64 {
        self.passes.iter().map(|p| p.wall_ns).sum()
    }

    fn cpu_ns(&self) -> u64 {
        self.passes.iter().map(|p| p.cpu_ns).sum()
    }

    fn median_over_passes(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        stats::median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }

    fn epochs_per_s(&self) -> f64 {
        self.median_over_passes(|p| p.epochs as f64 / (p.wall_ns as f64 / 1e9))
    }

    /// Runs one pass and records its steps, wall time and CPU time.
    fn run_pass(&mut self, w: &dyn Workload, tracer: &mut Tracer, telemetry: bool) {
        let mut steps = Vec::new();
        let cpu0 = host::cpu_ns();
        let start = Instant::now();
        let mut pass = w.pass(tracer, telemetry, &mut steps);
        pass.wall_ns = start.elapsed().as_nanos() as u64;
        pass.cpu_ns = host::cpu_ns() - cpu0;
        steps.sort_unstable();
        pass.steps = steps;
        self.passes.push(pass);
    }
}

/// Runs whole passes until `budget` has passed (always at least one).
/// Returns them with the peak RSS in KiB after the first pass, the first
/// thing the process runs: later passes repeat the same work, and reading
/// the peak after all of them would let allocator fragmentation over a
/// time-dependent number of passes move it.
fn measure(w: &dyn Workload, tracer: &mut Tracer, budget: Duration) -> (Measured, u64) {
    let mut m = Measured::default();
    let start = Instant::now();
    m.run_pass(w, tracer, false);
    let rss_kib = host::peak_rss_kib();
    while start.elapsed() < budget {
        m.run_pass(w, tracer, false);
    }
    (m, rss_kib)
}

/// Alternates untraced and traced passes (spans and engine telemetry on)
/// until `budget` has passed, so that both sides see the same host drift.
fn measure_alternating(
    w: &dyn Workload,
    tracer: &mut Tracer,
    budget: Duration,
) -> (Measured, Measured) {
    let (mut base, mut traced) = (Measured::default(), Measured::default());
    let start = Instant::now();
    while traced.passes.is_empty() || start.elapsed() < budget {
        tracer.set_on(false);
        base.run_pass(w, tracer, false);
        tracer.set_on(true);
        traced.run_pass(w, tracer, true);
    }
    (base, traced)
}

/// Counts every pass's runs against the first pass: a run whose digest
/// differs from (or is missing where) the first pass's counts all its
/// operations as failed.
fn check_repeats(passes: &[&Pass], out: &mut Outcome) {
    let first = passes[0];
    let mut stable = true;
    for pass in passes {
        for (i, run) in pass.runs.iter().enumerate() {
            out.attempted += run.ops;
            let same =
                run.digest.is_some() && run.digest == first.runs.get(i).and_then(|r| r.digest);
            stable &= same;
            out.failed += if same { run.failed_ops } else { run.ops };
        }
    }
    for (i, run) in first.runs.iter().enumerate() {
        out.digests
            .push((format!("run{i}"), run.digest.unwrap_or(0)));
    }
    out.check(
        format!("digests identical across {} passes", passes.len()),
        stable,
    );
}

/// Runs the workload untraced and reports the end-to-end metrics.
pub fn run_untraced(w: &dyn Workload, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false);
    let (m, rss_kib) = measure(w, &mut tracer, Duration::from_secs(seconds));
    // After the timed loop, so that the time-bounded number of set-ups
    // cannot change the allocator history the RSS reading sees.
    let mut setups: Vec<f64> = m.passes.iter().map(|p| p.setup_ns as f64).collect();
    let mut spent = 0;
    while setups.len() < SETUP_MIN_REPS + m.passes.len() || spent < SETUP_MIN_NS {
        let ns = w.setup();
        spent += ns;
        setups.push(ns as f64);
    }
    m.steps_into(&mut out);
    out.set("setup_s", stats::median(&setups) / 1e9);
    out.note("setup_s", format!("median of {} set-ups", setups.len()));
    out.set("epochs_per_s", m.epochs_per_s());
    out.note(
        "epochs_per_s",
        format!(
            "median of {} passes; {} epochs in {:.3} s overall",
            m.passes.len(),
            m.epochs(),
            m.wall_ns() as f64 / 1e9
        ),
    );
    out.set(
        "cpu_us_per_epoch",
        m.median_over_passes(|p| p.cpu_ns as f64 / 1e3 / p.epochs as f64),
    );
    out.note(
        "cpu_us_per_epoch",
        format!(
            "median of passes; {:.2} CPU s overall",
            m.cpu_ns() as f64 / 1e9
        ),
    );
    out.set("peak_rss_mb", rss_kib as f64 / 1024.0);
    out.note(
        "peak_rss_mb",
        "VmHWM after the set-ups and the first pass".into(),
    );
    out.set("sim_runtime_s", m.passes[0].sim_runtime_s);
    out.note(
        "sim_runtime_s",
        "one pass; deterministic for the seed".into(),
    );
    check_repeats(&m.passes.iter().collect::<Vec<_>>(), &mut out);
    w.verify(&m.passes[0], &mut out);
    out
}

impl Measured {
    /// Step p50 and p99 as medians of the per-pass percentiles.
    fn steps_into(&self, out: &mut Outcome) {
        let pct_us = |p: Pct| {
            self.median_over_passes(|pass| match pass.steps.is_empty() {
                true => 0.0,
                false => stats::percentile(&pass.steps, p) as f64 / 1e3,
            })
        };
        let fewest = self.passes.iter().map(|p| p.steps.len()).min().unwrap_or(0);
        let n: usize = self.passes.iter().map(|p| p.steps.len()).sum();
        let passes = self.passes.len();
        out.set("step_p50_us", pct_us(Pct::P50));
        out.note("step_p50_us", format!("median of {passes} passes; n={n}"));
        out.set("step_p99_us", pct_us(Pct::P99));
        let mut all: Vec<u64> = self
            .passes
            .iter()
            .flat_map(|p| p.steps.iter().copied())
            .collect();
        all.sort_unstable();
        let tail = stats::tail_pct(n).map_or(String::from("none"), |p| {
            format!(
                "p{} = {:.1} us",
                p.as_percent(),
                stats::percentile(&all, p) as f64 / 1e3
            )
        });
        out.note(
            "step_p99_us",
            format!(
                "median of {passes} passes; fewest steps in a pass {fewest}, {} beyond p99; \
                 all {n} steps: highest tail with 10 beyond {tail}",
                Pct::P99.beyond(fewest)
            ),
        );
        out.check(
            "p99 of every pass has at least 10 samples beyond it",
            Pct::P99.beyond(fewest) >= stats::MIN_BEYOND,
        );
    }
}

/// Runs untraced and traced passes alternately, then the layer replay, and
/// reports the per-layer metrics. Spans are written to `spans_path`.
pub fn run_traced(w: &dyn Workload, seconds: u64, spans_path: &std::path::Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false);
    let (base, traced) = measure_alternating(w, &mut tracer, Duration::from_secs(seconds));
    tracer.set_on(true);
    let units = w.replay(&mut tracer);
    tracer.set_on(false);

    for (&name, &v) in &traced.passes[0].counts {
        out.set(name, v);
    }
    let t = tracer.totals();
    let mean = |name: &str, scale: f64| {
        t.get(name)
            .filter(|x| x.count > 0)
            .map_or(0.0, |x| x.total_ns as f64 / x.count as f64 / scale)
    };
    out.set("core.new_ms", mean("core.new", 1e6));
    out.set("core.step_us", mean("core.step", 1e3));
    out.set("core.report_us", mean("core.report", 1e3));
    out.set("cluster.round_ms", mean("cluster.step_round", 1e6));
    out.set("cluster.finish_ms", mean("cluster.finish", 1e6));
    out.set("snap.save_ms", mean("snap.save", 1e6));
    out.set("snap.restore_ms", mean("snap.restore", 1e6));
    out.set("workloads.next_epoch_ns", mean("workloads.next_epoch", 1.0));
    if let Some(p) = t.get("bench.pass").filter(|p| p.total_ns > 0) {
        out.set("bench.self_frac", p.self_ns as f64 / p.total_ns as f64);
    }
    let per_unit = |spans: &[&str]| {
        let ns: u64 = spans
            .iter()
            .filter_map(|s| t.get(s))
            .map(|x| x.total_ns)
            .sum();
        let n: u64 = spans.iter().filter_map(|s| units.get(s)).sum();
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    };
    out.set(
        "guest.heap_map_ns_per_page",
        per_unit(&["guest.mmap_heap_collect"]),
    );
    out.set("guest.munmap_ns_per_page", per_unit(&["guest.munmap"]));
    out.set(
        "guest.page_in_ns_per_page",
        per_unit(&[
            "guest.page_in_many",
            "guest.buffer_page_in_many",
            "guest.drop_cache_pages",
        ]),
    );
    out.set(
        "guest.slab_ns_per_obj",
        per_unit(&["guest.slab_alloc_bulk", "guest.slab_free_bulk"]),
    );
    out.set(
        "guest.ad_harvest_ns_per_pte",
        per_unit(&["guest.harvest_ad_range"]),
    );
    out.set("guest.age_lru_ns_per_page", per_unit(&["guest.age_lru"]));
    out.set(
        "guest.migrate_ns_per_page",
        per_unit(&["guest.migrate_page"]),
    );
    out.set(
        "vmm.scan_ns_per_frame",
        per_unit(&[
            "vmm.scan_tracked_into",
            "vmm.scan_full_into",
            "vmm.scan_harvest_into",
        ]),
    );
    out.set(
        "vmm.drf_request_ns",
        per_unit(&["vmm.fair_share.request", "vmm.fair_share.release"]),
    );
    // `cluster-1k` replaces this with its parallel verification run.
    out.set(
        "runner.cpu_per_wall",
        base.cpu_ns() as f64 / base.wall_ns() as f64,
    );
    let (b, tr) = (base.epochs_per_s(), traced.epochs_per_s());
    out.set("trace.base_epochs_per_s", b);
    out.set("trace.epochs_per_s", tr);
    out.set("trace.overhead_frac", 1.0 - tr / b);
    out.note(
        "trace.overhead_frac",
        format!(
            "1 - traced/untraced epochs_per_s = 1 - {tr:.1}/{b:.1}, {} passes each, alternating",
            traced.passes.len()
        ),
    );
    out.set("trace.spans", tracer.spans().len() as f64);
    note_top_self_times(&t, &mut out);

    let passes: Vec<&Pass> = base.passes.iter().chain(&traced.passes).collect();
    check_repeats(&passes, &mut out);
    w.verify(&base.passes[0], &mut out);
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if let Some(dir) = spans_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let written = std::fs::write(spans_path, tracer.to_jsonl()).is_ok();
    out.note(
        "trace.spans",
        format!("written to {}: {written}", spans_path.display()),
    );
    out
}

/// Notes the span names with the largest self time beside `trace.spans`.
fn note_top_self_times(t: &BTreeMap<&'static str, NameTotals>, out: &mut Outcome) {
    let mut by_self: Vec<_> = t.iter().collect();
    by_self.sort_by_key(|(_, x)| std::cmp::Reverse(x.self_ns));
    let top: Vec<String> = by_self
        .iter()
        .take(6)
        .map(|(n, x)| {
            format!(
                "{n} {:.1} ms self / {} spans",
                x.self_ns as f64 / 1e6,
                x.count
            )
        })
        .collect();
    out.note(
        "bench.self_frac",
        format!("top self time: {}", top.join("; ")),
    );
}

/// Adds the report-derived per-layer counts of `reports` (one pass's
/// guests) to `c`.
pub fn report_counts<'a>(reports: impl IntoIterator<Item = &'a RunReport>, c: &mut Counts) {
    let (mut n, mut miss_ratio, mut lat_weighted) = (0.0, 0.0, 0.0);
    for r in reports {
        n += 1.0;
        miss_ratio += r.fast_alloc_miss_ratio;
        lat_weighted += r.avg_miss_latency_ns * r.misses;
        *c.entry("vmm.scans").or_default() += r.scans as f64;
        *c.entry("vmm.scanned_pages").or_default() += r.scanned_pages as f64;
        *c.entry("vmm.migrations").or_default() += r.migrations as f64;
        *c.entry("mem.llc_misses").or_default() += r.misses;
        *c.entry("mem.slow_writes").or_default() += r.slow_writes;
        for cat in CostCategory::ALL {
            *c.entry(sim_metric(cat)).or_default() += r.spent(cat).as_secs_f64();
        }
    }
    let scanned = c.get("vmm.scanned_pages").copied().unwrap_or(0.0);
    let migrated = c.get("vmm.migrations").copied().unwrap_or(0.0);
    let misses = c.get("mem.llc_misses").copied().unwrap_or(0.0);
    c.insert(
        "vmm.scan_yield",
        if scanned > 0.0 {
            1000.0 * migrated / scanned
        } else {
            0.0
        },
    );
    c.insert(
        "guest.fast_alloc_miss_ratio",
        if n > 0.0 { miss_ratio / n } else { 0.0 },
    );
    c.insert(
        "mem.avg_miss_latency_ns",
        if misses > 0.0 {
            lat_weighted / misses
        } else {
            0.0
        },
    );
}

fn sim_metric(cat: CostCategory) -> &'static str {
    match cat {
        CostCategory::Compute => "sim.compute_s",
        CostCategory::MemoryStall => "sim.memory_stall_s",
        CostCategory::HotnessScan => "sim.hotness_scan_s",
        CostCategory::TlbFlush => "sim.tlb_flush_s",
        CostCategory::PageWalk => "sim.page_walk_s",
        CostCategory::PageCopy => "sim.page_copy_s",
        CostCategory::Management => "sim.management_s",
        CostCategory::IoWait => "sim.io_wait_s",
    }
}

/// Runs `f`, turning a panic into `None` (the panic message still goes to
/// standard error).
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}
