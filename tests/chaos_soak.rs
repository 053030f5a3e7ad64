//! Chaos soak: seeded fault plans perturb the whole stack while the
//! invariant auditor cross-checks frame accounting after every step.
//!
//! Harnesses, each run over many seeds:
//!
//! * **engine soak** — `SingleVmSim` with an armed `FaultInjector` and
//!   the epoch-level sanitizer on: injected FastMem outages degrade placement,
//!   latency storms dilate pricing, migrations fail transiently — and the
//!   guest kernel's books must still balance after every epoch,
//! * **sanitizer and crash soaks** — the layered sanitizer and the
//!   crash→recover path under the same plans, audited on and off,
//! * **kernel soak** — a bare `GuestKernel` churned through mmap/munmap,
//!   page-cache I/O, ballooning, injected-fault migration and cache
//!   shrinking under FastMem pressure, audited each step.
//!
//! Every harness also asserts *determinism*: re-running the same seed must
//! reproduce a byte-identical fault trace.

use heteroos::core::{AuditLevel, Policy, SimConfig, SingleVmSim};
use heteroos::faults::{audit_kernel, FaultInjector, FaultPlan};
use heteroos::mem::FlushPolicy;
use heteroos::guest::kernel::{GuestConfig, GuestKernel};
use heteroos::guest::page::PageType;
use heteroos::guest::pagecache::FileId;
use heteroos::mem::{MemKind, ThrottleConfig};
use heteroos::sim::{Runner, SimRng};
use heteroos::workloads::{apps, AppWorkload};

const SEEDS: std::ops::Range<u64> = 100..109;

/// Runs `f` for every soak seed on the deterministic parallel runner and
/// returns `(seed, result)` pairs in seed order. Each harness is a pure
/// function of its seed, so the seeds are independent units of work.
fn per_seed<T: Send>(f: impl Fn(u64) -> T + Sync) -> Vec<(u64, T)> {
    let seeds: Vec<u64> = SEEDS.collect();
    let results = Runner::new(0).run(seeds.clone(), f);
    seeds.into_iter().zip(results).collect()
}

// ------------------------------------------------------------ engine soak

fn engine_soak_once(seed: u64) -> String {
    engine_soak_with(seed, true)
}

fn engine_soak_with(seed: u64, bulk_ops: bool) -> String {
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(seed)
        .with_bulk_ops(bulk_ops)
        .with_audit(AuditLevel::Epoch);
    let mut spec = apps::graphchi();
    spec.total_instructions /= 20;
    let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, Policy::HeteroCoordinated, wl);
    sim.set_fault_injector(FaultInjector::new(FaultPlan::for_seed(seed)));
    while sim.step() {}
    assert!(
        sim.violations().is_empty(),
        "seed {seed}: invariant violations under faults: {:?}",
        sim.violations()
    );
    sim.fault_injector()
        .expect("injector stays armed")
        .trace()
        .to_text()
}

#[test]
fn engine_survives_fault_plans_with_clean_invariants() {
    let mut any_faults = false;
    for (seed, (trace, again)) in
        per_seed(|seed| (engine_soak_once(seed), engine_soak_once(seed)))
    {
        any_faults |= !trace.is_empty();
        assert_eq!(
            trace, again,
            "seed {seed}: fault trace must be byte-identical across reruns"
        );
    }
    assert!(
        any_faults,
        "soak is vacuous: no plan injected a single fault"
    );
}

#[test]
fn bulk_dispatch_preserves_fault_traces_exactly() {
    // The bulk allocation path (PR 2) must not move a single fault: the
    // injector's decisions key off step/draw order, so a byte-identical
    // trace under both dispatch modes proves the bulk path preserves the
    // engine's exact operation sequence even while faults degrade it.
    for (seed, (bulk, scalar)) in
        per_seed(|seed| (engine_soak_with(seed, true), engine_soak_with(seed, false)))
    {
        assert_eq!(
            bulk, scalar,
            "seed {seed}: bulk vs scalar fault trace diverged"
        );
    }
}

// ----------------------------------------------- layered sanitizer soak

fn sanitized_soak(seed: u64, policy: Policy, audit: AuditLevel) -> (String, String) {
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(seed)
        .with_audit(audit);
    let mut spec = apps::graphchi();
    spec.total_instructions /= 20;
    let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, policy, wl);
    sim.set_fault_injector(FaultInjector::new(FaultPlan::for_seed(seed)));
    while sim.step() {}
    assert!(
        sim.violations().is_empty(),
        "seed {seed} {policy:?}: sanitizer violations under faults: {:?}",
        sim.violations()
    );
    let trace = sim
        .fault_injector()
        .expect("injector stays armed")
        .trace()
        .to_text();
    (trace, sim.report().to_json())
}

#[test]
fn epoch_sanitizer_stays_clean_and_invisible_under_fault_soak() {
    // The layered sanitizer (PR 5) across every seed and every
    // migration-charging path (guest LRU, VMM full scan, coordinated
    // tracked scan), with faults armed. Two properties per cell: the
    // differential oracle finds nothing even while transient failures
    // pepper the run, and turning the audit on changes neither the fault
    // trace nor a single exported report byte.
    let policies = [
        Policy::HeteroLru,
        Policy::VmmExclusive,
        Policy::HeteroCoordinated,
    ];
    let matrix: Vec<(u64, Policy)> = SEEDS
        .flat_map(|seed| policies.into_iter().map(move |p| (seed, p)))
        .collect();
    let results = Runner::new(0).run(matrix.clone(), |(seed, policy)| {
        (
            sanitized_soak(seed, policy, AuditLevel::Off),
            sanitized_soak(seed, policy, AuditLevel::Epoch),
        )
    });
    for ((seed, policy), (off, epoch)) in matrix.into_iter().zip(results) {
        assert_eq!(
            off, epoch,
            "seed {seed} {policy:?}: epoch audit changed the fault trace or report bytes"
        );
    }
}

// ---------------------------------------------------- crash→recover soak

/// One crashy persistent run: the NVM flush policy armed at `persist`,
/// seeded host-power-loss and guest-crash faults enabled, the run driven
/// to completion through however many crash→recover cycles fire. Returns
/// the full observable surface — fault trace, exported report JSON and the
/// recovery count — so callers can assert byte-identity across reruns and
/// audit levels.
fn crash_soak(
    seed: u64,
    policy: Policy,
    persist: FlushPolicy,
    audit: AuditLevel,
) -> (String, String, u64) {
    let cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(seed)
        .with_persist(persist)
        .with_audit(audit);
    let mut spec = apps::graphchi();
    spec.total_instructions /= 20;
    let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, policy, wl);
    let mut plan = FaultPlan::power_loss(seed, 0.03);
    plan.guest_crash_persist = 0.02;
    sim.set_fault_injector(FaultInjector::new(plan));
    while sim.step() {}
    assert!(
        sim.violations().is_empty(),
        "seed {seed} {persist} {policy:?}: recovery oracle violations: {:?}",
        sim.violations()
    );
    let trace = sim
        .fault_injector()
        .expect("injector stays armed")
        .trace()
        .to_text();
    (trace, sim.report().to_json(), sim.recoveries())
}

#[test]
fn crash_recover_cycles_stay_deterministic_across_flush_policies() {
    // The tentpole soak: every flush policy, every seed, crashes armed,
    // the ShadowModel-audited recovery path exercised end to end. Rerunning
    // a cell must reproduce the fault trace and report byte for byte.
    let policies = [
        FlushPolicy::Eager,
        FlushPolicy::EpochBatched,
        FlushPolicy::OnEvict,
    ];
    let matrix: Vec<(u64, FlushPolicy)> = SEEDS
        .flat_map(|seed| policies.into_iter().map(move |p| (seed, p)))
        .collect();
    let results = Runner::new(0).run(matrix.clone(), |(seed, persist)| {
        (
            crash_soak(seed, Policy::HeteroLru, persist, AuditLevel::Epoch),
            crash_soak(seed, Policy::HeteroLru, persist, AuditLevel::Epoch),
        )
    });
    let mut recoveries = 0u64;
    for ((seed, persist), (a, b)) in matrix.into_iter().zip(results) {
        assert_eq!(
            a, b,
            "seed {seed} {persist}: crashy run must be byte-identical across reruns"
        );
        recoveries += a.2;
    }
    assert!(
        recoveries > 0,
        "soak is vacuous: no crash→recover cycle fired"
    );
}

#[test]
fn paranoid_audit_is_invisible_under_crash_restarts() {
    // Crash-restart cycles under the strictest oracle: `Paranoid` finds
    // nothing across every seed, and stepping the audit Off → Epoch →
    // Paranoid changes neither the fault trace nor one report byte — the
    // recovery path draws no randomness and the sanitizer never leaks into
    // simulated state, even while the stack is being killed mid-run.
    let seeds: Vec<u64> = SEEDS.collect();
    let results = Runner::new(0).run(seeds.clone(), |seed| {
        let run = |audit| {
            crash_soak(
                seed,
                Policy::HeteroCoordinated,
                FlushPolicy::EpochBatched,
                audit,
            )
        };
        (run(AuditLevel::Off), run(AuditLevel::Epoch), run(AuditLevel::Paranoid))
    });
    let mut any_crash = false;
    for (seed, (off, epoch, paranoid)) in seeds.into_iter().zip(results) {
        any_crash |= off.2 > 0;
        assert_eq!(
            off, epoch,
            "seed {seed}: the epoch audit perturbed a crashy run"
        );
        assert_eq!(
            epoch, paranoid,
            "seed {seed}: the paranoid audit perturbed a crashy run"
        );
    }
    assert!(
        any_crash,
        "soak is vacuous: no crash fired under the audit matrix"
    );
}

// ------------------------------------------------------------ kernel soak

/// Returns the fault trace and the pages dropped by cache shrinking.
fn kernel_soak_once(seed: u64) -> (String, u64) {
    let mut inj = FaultInjector::new(FaultPlan::heavy(seed));
    let mut rng = SimRng::seed_from(seed ^ 0x5eed);
    let mut kernel = GuestKernel::new(GuestConfig {
        frames: vec![(MemKind::Fast, 64), (MemKind::Slow, 256)],
        cpus: 2,
        page_size: 4096,
    });
    let mut chunks: Vec<(u64, u64)> = Vec::new();
    let mut file_off = 0u64;
    let mut reclaimed = 0u64;
    let base = ThrottleConfig::slow_mem_default();
    for step in 0..300u64 {
        inj.begin_step();
        // Storms re-fit the throttle model; the result must stay sane.
        let t = inj.storm_throttle(&base);
        assert!(t.latency_factor >= 1.0 && t.bandwidth_factor >= 1.0);
        // Heap churn.
        let pages = rng.next_range(1, 6);
        if let Ok((vma, _)) = kernel.mmap_heap(
            pages,
            std::iter::repeat(rng.next_range(10, 250) as u8),
            &[MemKind::Fast, MemKind::Slow],
        ) {
            chunks.push((vma.start, vma.pages));
        }
        if chunks.len() > 20 {
            let (start, n) = chunks.remove(rng.next_range(0, chunks.len() as u64) as usize);
            kernel.munmap(start, n);
        }
        // Page-cache traffic.
        if let Ok((g, _)) =
            kernel.page_in(FileId(1), file_off, 120, &[MemKind::Fast, MemKind::Slow])
        {
            kernel.io_complete(g);
            file_off += 1;
        }
        // Migration under injected transient failures: errors must leave
        // the books balanced, successes must move the page.
        for gfn in kernel.lru_candidates(MemKind::Slow, 2, |p| {
            p.page_type == PageType::HeapAnon
        }) {
            let _ = inj.migrate_page(&mut kernel, gfn, MemKind::Fast);
        }
        // Reclaim under FastMem pressure: drop clean file pages once the
        // tier runs low.
        if kernel.free_frames(MemKind::Fast) < 8 {
            reclaimed += kernel.shrink_caches(MemKind::Fast, 16);
        }
        // Balloon churn.
        if rng.chance(0.2) {
            kernel.balloon_inflate(MemKind::Slow, rng.next_range(1, 8));
        }
        if rng.chance(0.2) {
            kernel.balloon_deflate(MemKind::Slow, rng.next_range(1, 8));
        }
        let violations = audit_kernel(&kernel);
        assert!(
            violations.is_empty(),
            "seed {seed} step {step}: {violations:?}"
        );
    }
    (inj.trace().to_text(), reclaimed)
}

#[test]
fn kernel_books_balance_under_heavy_faults() {
    let mut any_reclaim = false;
    for (seed, (run, again)) in
        per_seed(|seed| (kernel_soak_once(seed), kernel_soak_once(seed)))
    {
        assert!(
            !run.0.is_empty(),
            "seed {seed}: the heavy plan should inject faults"
        );
        assert_eq!(
            run, again,
            "seed {seed}: fault trace and reclaim must be identical across reruns"
        );
        any_reclaim |= run.1 > 0;
    }
    assert!(
        any_reclaim,
        "soak is vacuous: FastMem pressure never shrank a cache"
    );
}
