//! Randomised invariant tests on the core data structures: buddy allocator
//! conservation, LRU/memmap accounting, DRF conservation and
//! strategy-proofness, page-table consistency, and throttle-model
//! monotonicity.
//!
//! Each test drives its structure with many operation sequences drawn from
//! the workspace's own deterministic [`SimRng`] — seeds are fixed, so a
//! failure reproduces exactly, with no external property-testing dependency.

use heteroos::guest::buddy::BuddyAllocator;
use heteroos::guest::kernel::{GuestConfig, GuestKernel};
use heteroos::guest::page::PageType;
use heteroos::mem::kind::KindMap;
use heteroos::mem::{MemKind, ThrottleConfig};
use heteroos::sim::SimRng;
use heteroos::vmm::drf::{FairShare, Grant, GuestId};
use heteroos::vmm::SharePolicy;

/// Buddy allocator: any interleaving of allocs and frees conserves frames
/// exactly, and full free restores a coalesced state.
#[test]
fn buddy_conserves_frames() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from(seed);
        let total = 1024u64;
        let mut buddy = BuddyAllocator::new(0, total);
        let mut held: Vec<(heteroos::guest::page::Gfn, u8)> = Vec::new();
        for _ in 0..rng.next_range(1, 200) {
            let order = rng.next_range(0, 3) as u8;
            if rng.next_range(0, 4) < 3 {
                if let Ok(g) = buddy.alloc(order) {
                    held.push((g, order));
                }
            } else if let Some((g, o)) = held.pop() {
                buddy.free(g, o);
            }
            let held_frames: u64 = held.iter().map(|&(_, o)| 1u64 << o).sum();
            assert_eq!(buddy.free_frames() + held_frames, total, "seed {seed}");
        }
        for (g, o) in held.drain(..) {
            buddy.free(g, o);
        }
        assert_eq!(buddy.free_frames(), total, "seed {seed}");
        assert_eq!(buddy.max_free_order(), Some(10), "seed {seed}");
    }
}

/// Guest kernel: residency accounting matches what was allocated, across
/// alloc/free/migrate interleavings.
#[test]
fn kernel_residency_accounting_is_exact() {
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from(seed);
        let mut k = GuestKernel::new(GuestConfig {
            frames: vec![(MemKind::Fast, 128), (MemKind::Slow, 512)],
            cpus: 2,
            page_size: 4096,
        });
        let mut live: Vec<heteroos::guest::page::Gfn> = Vec::new();
        for _ in 0..rng.next_range(1, 120) {
            let heat = rng.next_range(0, 255) as u8;
            match rng.next_range(0, 10) {
                0..=4 => {
                    if let Ok((g, _)) =
                        k.alloc_page(PageType::HeapAnon, heat, &[MemKind::Fast, MemKind::Slow])
                    {
                        live.push(g);
                    }
                }
                5..=6 => {
                    if !live.is_empty() {
                        let g = live.swap_remove(heat as usize % live.len());
                        k.free_page(g);
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let idx = heat as usize % live.len();
                        let g = live[idx];
                        let target = if k.memmap().kind_of(g) == MemKind::Fast {
                            MemKind::Slow
                        } else {
                            MemKind::Fast
                        };
                        if let Ok(new) = k.migrate_page(g, target) {
                            live[idx] = new;
                        }
                    }
                }
            }
            let resident = k.memmap().resident_pages(PageType::HeapAnon);
            assert_eq!(resident, live.len() as u64, "seed {seed}");
            // Free + resident never exceeds capacity per tier.
            for kind in [MemKind::Fast, MemKind::Slow] {
                assert!(
                    k.memmap().resident_on(kind) + k.free_frames(kind) <= k.total_frames(kind),
                    "seed {seed}"
                );
            }
        }
    }
}

/// DRF: consumed capacity equals the sum of guest allocations and never
/// exceeds the totals, under arbitrary request/release sequences.
#[test]
fn drf_conserves_capacity() {
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from(seed);
        let mut total: KindMap<u64> = KindMap::default();
        total[MemKind::Fast] = 500;
        total[MemKind::Slow] = 2000;
        let mut fs = FairShare::new(SharePolicy::paper_drf(), total);
        let guests: Vec<GuestId> = (0..4).map(GuestId).collect();
        for &g in &guests {
            fs.register(g, KindMap::default());
        }
        for _ in 0..rng.next_range(1, 80) {
            let id = guests[rng.next_range(0, 4) as usize];
            let kind = if rng.chance(0.5) {
                MemKind::Fast
            } else {
                MemKind::Slow
            };
            let mut d: KindMap<u64> = KindMap::default();
            d[kind] = rng.next_range(1, 200);
            match fs.request(id, d) {
                Grant::Granted => {}
                Grant::NeedsReclaim(plan) => {
                    // Plans never name the requester and never exceed what
                    // donors actually hold.
                    for &(donor, k, n) in &plan {
                        assert_ne!(donor, id, "seed {seed}");
                        assert!(fs.allocated(donor)[k] >= n, "seed {seed}");
                    }
                }
                Grant::Denied => {}
            }
            let consumed: u64 = guests.iter().map(|&g| fs.allocated(g)[kind]).sum();
            assert_eq!(consumed, total[kind] - fs.free(kind), "seed {seed}");
            assert!(consumed <= total[kind], "seed {seed}");
        }
    }
}

/// DRF strategy-proofness flavour: requesting more of a resource never
/// lowers your dominant share (no benefit from overstating demand).
#[test]
fn drf_dominant_share_is_monotonic() {
    for extra in 1u64..300 {
        let mut total: KindMap<u64> = KindMap::default();
        total[MemKind::Fast] = 1000;
        total[MemKind::Slow] = 4000;
        let mut fs = FairShare::new(SharePolicy::paper_drf(), total);
        fs.register(GuestId(0), KindMap::default());
        let mut d: KindMap<u64> = KindMap::default();
        d[MemKind::Fast] = 100;
        fs.request(GuestId(0), d);
        let before = fs.dominant_share(GuestId(0));
        let mut more: KindMap<u64> = KindMap::default();
        more[MemKind::Fast] = extra;
        if matches!(fs.request(GuestId(0), more), Grant::Granted) {
            assert!(fs.dominant_share(GuestId(0)) >= before, "extra {extra}");
        }
    }
}

/// Throttle model: deeper bandwidth throttling at a fixed latency factor
/// never lowers latency or raises bandwidth, and sweeping both factors
/// together (the measured L:x,B:x anchors' direction) is monotonic too.
#[test]
fn throttle_model_is_monotonic() {
    for seed in 0..256u64 {
        let mut rng = SimRng::seed_from(seed);
        let l = 1.0 + rng.next_f64() * 7.0;
        let b_extra = rng.next_f64() * 10.0;
        let db = rng.next_f64() * 4.0;
        let dl = rng.next_f64() * 2.0;
        // Fixed L, deeper B.
        let base = ThrottleConfig::from_factors(l, l + b_extra);
        let deeper = ThrottleConfig::from_factors(l, l + b_extra + db);
        assert!(deeper.latency >= base.latency, "seed {seed}");
        assert!(
            deeper.bandwidth_gbps <= base.bandwidth_gbps + 1e-9,
            "seed {seed}"
        );
        // Both factors together (L:x, B:x), the measured anchor direction.
        let diag = ThrottleConfig::from_factors(l, l);
        let diag_deeper = ThrottleConfig::from_factors(l + dl, l + dl);
        assert!(diag_deeper.latency >= diag.latency, "seed {seed}");
        assert!(
            diag_deeper.bandwidth_gbps <= diag.bandwidth_gbps + 1e-9,
            "seed {seed}"
        );
    }
}

/// Page table: mapping then unmapping any vpn set leaves the tree with only
/// the root page.
#[test]
fn page_table_roundtrip_frees_interior_nodes() {
    for seed in 0..32u64 {
        let mut rng = SimRng::seed_from(seed);
        let vpns: std::collections::BTreeSet<u64> = (0..rng.next_range(1, 64))
            .map(|_| rng.next_range(0, 1 << 30))
            .collect();
        let mut pt = heteroos::guest::pagetable::PageTable::new();
        for (i, &vpn) in vpns.iter().enumerate() {
            pt.map(vpn, heteroos::guest::page::Gfn(i as u64));
        }
        assert_eq!(pt.mapped_pages(), vpns.len() as u64, "seed {seed}");
        for &vpn in &vpns {
            assert!(pt.unmap(vpn).is_some(), "seed {seed}");
        }
        assert_eq!(pt.mapped_pages(), 0, "seed {seed}");
        assert_eq!(pt.table_pages(), 1, "seed {seed}");
    }
}

/// LRU registry: arbitrary insert/activate/deactivate/remove sequences keep
/// list lengths equal to logical membership and never lose pages.
#[test]
fn lru_registry_membership_is_exact() {
    use heteroos::guest::lru::{LruClass, LruRegistry};
    use heteroos::guest::memmap::MemMap;
    use heteroos::guest::page::{Gfn, PageFlags, PageType};

    for seed in 0..24u64 {
        let mut rng = SimRng::seed_from(seed);
        let mut mm = MemMap::new(&[(MemKind::Fast, 12), (MemKind::Slow, 12)]);
        let mut lru = LruRegistry::new();
        let mut member = std::collections::HashSet::new();
        for g in 0..24u64 {
            let t = if g % 3 == 0 {
                PageType::PageCache
            } else {
                PageType::HeapAnon
            };
            mm.set_allocated(Gfn(g), t, (g % 200) as u8);
        }
        for _ in 0..rng.next_range(1, 150) {
            let g = rng.next_range(0, 24);
            let gfn = Gfn(g);
            match rng.next_range(0, 5) {
                0 => {
                    if !member.contains(&g) {
                        lru.insert_active(&mut mm, gfn);
                        member.insert(g);
                    }
                }
                1 => {
                    if !member.contains(&g) {
                        lru.insert_inactive(&mut mm, gfn);
                        member.insert(g);
                    }
                }
                2 => lru.activate(&mut mm, gfn),
                3 => lru.deactivate(&mut mm, gfn),
                _ => {
                    lru.remove(&mut mm, gfn);
                    member.remove(&g);
                }
            }
            let listed: u64 = [MemKind::Fast, MemKind::Slow]
                .iter()
                .map(|&k| lru.listed_on(k))
                .sum();
            assert_eq!(listed, member.len() as u64, "seed {seed}");
            // Flag consistency: LRU flag set exactly for members.
            for g in 0..24u64 {
                let on_list = mm.page(Gfn(g)).flags.contains(PageFlags::LRU);
                assert_eq!(on_list, member.contains(&g), "seed {seed} gfn {g}");
            }
            // Walking every list reaches every member exactly once.
            let mut walked = 0u64;
            for k in [MemKind::Fast, MemKind::Slow] {
                for class in [LruClass::Anon, LruClass::File] {
                    let split = lru.split(k, class);
                    walked += split.active.iter(&mm).count() as u64;
                    walked += split.inactive.iter(&mm).count() as u64;
                }
            }
            assert_eq!(walked, member.len() as u64, "seed {seed}");
        }
    }
}

/// Per-CPU lists + buddy: pages are conserved across arbitrary alloc/free
/// interleavings on multiple CPUs.
#[test]
fn pcp_and_buddy_conserve_pages() {
    use heteroos::guest::pcp::PerCpuLists;

    for seed in 0..24u64 {
        let mut rng = SimRng::seed_from(seed);
        let total = 256u64;
        let mut buddy = BuddyAllocator::new(0, total);
        let mut pcp = PerCpuLists::new(4);
        let mut held = Vec::new();
        for _ in 0..rng.next_range(1, 300) {
            let cpu = rng.next_range(0, 4) as usize;
            if rng.chance(0.5) {
                if let Some(g) = pcp.alloc(cpu, MemKind::Fast, &mut buddy) {
                    held.push(g);
                }
            } else if let Some(g) = held.pop() {
                pcp.free(cpu, MemKind::Fast, g, &mut buddy);
            }
            let accounted = buddy.free_frames()
                + pcp.cached_total(MemKind::Fast) as u64
                + held.len() as u64;
            assert_eq!(accounted, total, "seed {seed}");
        }
    }
}

/// Trace text format: serialise → parse is lossless for arbitrary demand
/// streams.
#[test]
fn trace_text_roundtrip() {
    use heteroos::workloads::{apps, EpochDemand, WorkloadTrace};
    for seed in 0..24u64 {
        let mut rng = SimRng::seed_from(seed);
        let rows = rng.next_range(0, 40);
        let demands: Vec<EpochDemand> = (0..rows)
            .map(|_| {
                let mut v = [0u64; 11];
                for x in &mut v {
                    *x = rng.next_range(0, 1_000_000);
                }
                EpochDemand {
                    instructions: v[0],
                    heap_alloc: v[1],
                    heap_free: v[2],
                    cache_reads: v[3],
                    cache_releases: v[4],
                    buffer_allocs: v[5],
                    buffer_releases: v[6],
                    slab_allocs: v[7],
                    slab_frees: v[8],
                    netbuf_allocs: v[9],
                    netbuf_frees: v[10],
                }
            })
            .collect();
        let trace = WorkloadTrace {
            spec: apps::nginx(),
            demands,
        };
        let parsed =
            WorkloadTrace::from_text(&trace.to_text(), apps::nginx()).expect("own output parses");
        assert_eq!(parsed.demands, trace.demands, "seed {seed}");
    }
}

/// SeriesSet: every recorded point is retrievable and the rendered table
/// contains every series name.
#[test]
fn series_set_retains_all_points() {
    use heteroos::sim::SeriesSet;
    for seed in 0..16u64 {
        let mut rng = SimRng::seed_from(seed);
        let mut set = SeriesSet::new("prop", "x");
        let names = ["a", "b", "c", "d"];
        let mut counts = [0usize; 4];
        for _ in 0..rng.next_range(1, 60) {
            let s = rng.next_range(0, 4) as usize;
            let x = rng.next_range(0, 100) as f64;
            let y = rng.next_range(0, 2000) as f64 - 1000.0;
            set.record(names[s], x, y);
            counts[s] += 1;
        }
        for (i, name) in names.iter().enumerate() {
            let len = set.get(name).map_or(0, |s| s.len());
            assert_eq!(len, counts[i], "seed {seed}");
        }
        let table = set.to_string();
        for (i, name) in names.iter().enumerate() {
            if counts[i] > 0 {
                assert!(table.contains(name), "seed {seed}");
            }
        }
    }
}

/// Slab cache: objects are conserved and pages are bounded by
/// ceil(objects / objects-per-page) under arbitrary churn.
#[test]
fn slab_object_accounting_is_exact() {
    use heteroos::guest::page::Gfn;
    use heteroos::guest::slab::SlabCache;
    for seed in 0..24u64 {
        let mut rng = SimRng::seed_from(seed);
        let mut cache = SlabCache::new("prop", 1024, 4096); // 4 per page
        let mut next = 0u64;
        let mut live = 0u64;
        for _ in 0..rng.next_range(1, 250) {
            if rng.chance(0.5) {
                let got = cache.alloc_object(|| {
                    next += 1;
                    Some(Gfn(next))
                });
                assert!(got.is_some(), "seed {seed}");
                live += 1;
            } else if live > 0 {
                cache.free_any_object();
                live -= 1;
            }
            assert_eq!(cache.objects(), live, "seed {seed}");
            assert!(cache.pages() >= live.div_ceil(4), "seed {seed}");
            assert!(cache.pages() <= live + 1, "seed {seed}");
        }
    }
}

/// Send audit for the parallel runner: every type a runner job produces or
/// owns must cross thread boundaries. A compile error here means someone
/// introduced interior mutability (Rc/RefCell/raw pointers) into the
/// simulation state, which would silently forbid parallel execution.
#[test]
fn simulation_state_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<heteroos::core::SingleVmSim>();
    assert_send::<heteroos::core::multivm::MultiVmSim>();
    assert_send::<heteroos::core::RunReport>();
    assert_send::<heteroos::core::SimConfig>();
    assert_send::<GuestKernel>();
    assert_send::<FairShare>();
    assert_send::<heteroos::faults::FaultInjector>();
    assert_send::<heteroos::sim::telemetry::Telemetry>();
    assert_send::<heteroos::sim::SeriesSet>();
    assert_send::<SimRng>();
}
