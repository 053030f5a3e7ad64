//! The layer replay: the workload's own demand stream applied to a
//! standalone guest kernel through the lower crates' public calls, and the
//! cluster's arrival stream fed through a fair-share ledger.
//!
//! This is a proxy measured from outside the engine. It sizes, places and
//! scans like the engine but makes its own, simpler decisions (no cooling,
//! no lazy reclaim, a fixed scan every epoch), so its per-call costs
//! describe each layer on this workload's kind of state, not the engine's
//! exact call sequence. Each call class is one span name; `units` receives
//! the work each span name did (pages, objects, PTEs, frames or calls).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use hetero_core::{ClusterSpec, SimConfig};
use hetero_guest::pagecache::FileId;
use hetero_guest::{GuestConfig, GuestKernel, PageType, SlabClass};
use hetero_mem::kind::KindMap;
use hetero_mem::MemKind;
use hetero_sim::SimRng;
use hetero_vmm::{FairShare, Grant, GuestId, HotnessTracker, ScanOutcome, SharePolicy};
use hetero_workloads::{AppWorkload, Workload, WorkloadSpec};

use crate::spans::Tracer;

/// The engine's file identities and slab densities.
const CACHE_FILE: FileId = FileId(1);
const BUFFER_FILE: FileId = FileId(2);
const SLAB_OBJS_PER_PAGE: u64 = 16;
const NETBUF_OBJS_PER_PAGE: u64 = 8;
/// Heat the engine gives I/O and kernel-object pages.
const IO_HEAT: u8 = 224;
const FAST_FIRST: [MemKind; 2] = [MemKind::Fast, MemKind::Slow];

pub type Units = BTreeMap<&'static str, u64>;

fn add(units: &mut Units, name: &'static str, n: u64) {
    *units.entry(name).or_default() += n;
}

/// One guest to replay.
pub struct GuestReplay {
    pub spec: WorkloadSpec,
    pub frames_fast: u64,
    pub frames_slow: u64,
    /// Track hotness by page-table A/D harvest (else by guided scans).
    pub access_bit: bool,
    pub seed: u64,
    /// Supplies page size, scale, vCPUs and the scan, migration and LRU
    /// batch parameters.
    pub cfg: SimConfig,
}

/// Replays `g`'s whole demand stream, one epoch at a time.
pub fn guest(g: &GuestReplay, tracer: &mut Tracer, units: &mut Units) {
    let cfg = &g.cfg;
    let mut kernel = GuestKernel::new(GuestConfig {
        frames: vec![
            (MemKind::Fast, g.frames_fast.max(1)),
            (MemKind::Slow, g.frames_slow.max(1)),
        ],
        cpus: cfg.cpus,
        page_size: cfg.page_size,
    });
    kernel.configure_cold_ledger(cfg.lru_cold_heat);
    let mut workload = AppWorkload::new(g.spec.clone(), cfg.page_size, cfg.scale);
    let mut rng = SimRng::seed_from(g.seed);
    let mut tracker = HotnessTracker::new(1);
    let (mut scan, mut full) = (ScanOutcome::default(), ScanOutcome::default());
    let scan_batch = cfg.sim_batch(cfg.scan_batch);
    let migrate_batch = cfg.sim_batch(cfg.migrate_batch) as usize;
    let hot = cfg.lru_cold_heat;
    let mut chunks: VecDeque<(u64, u64)> = VecDeque::new();
    let (mut cache_live, mut buffer_live) = (VecDeque::new(), VecDeque::new());
    let (mut cache_next, mut buffer_next) = (0u64, 0u64);
    let mut gfns = Vec::new();
    let mut harvested: Vec<(u64, bool, bool)> = Vec::new();
    let mut harvest_cursor = 0usize;

    loop {
        let (demand, _) = tracer.time("workloads.next_epoch", || workload.next_epoch(&mut rng));
        let Some(d) = demand else { break };
        add(units, "workloads.next_epoch", 1);

        // Releases: oldest heap chunks, completed I/O, kernel objects.
        let mut to_free = d.heap_free;
        while to_free > 0 {
            let Some((start, pages)) = chunks.pop_front() else {
                break;
            };
            let take = pages.min(to_free);
            let (freed, _) = tracer.time("guest.munmap", || kernel.munmap(start, take));
            add(units, "guest.munmap", freed);
            if take < pages {
                chunks.push_front((start + take, pages - take));
            }
            to_free -= take;
        }
        for (file, live, n) in [
            (CACHE_FILE, &mut cache_live, d.cache_releases),
            (BUFFER_FILE, &mut buffer_live, d.buffer_releases),
        ] {
            let offs: Vec<u64> = live.drain(..(n as usize).min(live.len())).collect();
            if !offs.is_empty() {
                add(units, "guest.drop_cache_pages", offs.len() as u64);
                tracer.time("guest.drop_cache_pages", || {
                    kernel.drop_cache_pages(file, offs)
                });
            }
        }
        for (class, n) in [
            (SlabClass::FsMeta, d.slab_frees * SLAB_OBJS_PER_PAGE),
            (SlabClass::Skbuff, d.netbuf_frees * NETBUF_OBJS_PER_PAGE),
        ] {
            if n > 0 {
                let (freed, _) =
                    tracer.time("guest.slab_free_bulk", || kernel.slab_free_bulk(class, n));
                add(units, "guest.slab_free_bulk", freed);
            }
        }

        // Allocations: heap with the workload's heat mix, then I/O pages
        // and kernel objects.
        if d.heap_alloc > 0 {
            let spec = workload.spec();
            let hot_p = if workload.progress() <= spec.ramp_fraction {
                spec.hot_page_fraction
            } else {
                spec.fresh_hot_fraction
            };
            let heats: Vec<u8> = (0..d.heap_alloc)
                .map(|_| spec.sample_heat_with(&mut rng, PageType::HeapAnon, hot_p))
                .collect();
            let (mapped, _) = tracer.time("guest.mmap_heap_collect", || {
                kernel.mmap_heap_collect(
                    d.heap_alloc,
                    heats.iter().copied(),
                    &FAST_FIRST,
                    &mut gfns,
                )
            });
            if let Ok((vma, _)) = mapped {
                chunks.push_back((vma.start, vma.pages));
                add(units, "guest.mmap_heap_collect", vma.pages);
            }
        }
        if d.cache_reads > 0 {
            let first = cache_next;
            cache_next += d.cache_reads;
            let (ok, _) = tracer.time("guest.page_in_many", || {
                kernel.page_in_many(CACHE_FILE, first, d.cache_reads, IO_HEAT, &FAST_FIRST)
            });
            cache_live.extend(first..first + ok);
            add(units, "guest.page_in_many", d.cache_reads);
        }
        if d.buffer_allocs > 0 {
            let first = buffer_next;
            buffer_next += d.buffer_allocs;
            let (ok, _) = tracer.time("guest.buffer_page_in_many", || {
                kernel.buffer_page_in_many(
                    BUFFER_FILE,
                    first,
                    d.buffer_allocs,
                    IO_HEAT,
                    &FAST_FIRST,
                )
            });
            buffer_live.extend(first..first + ok);
            add(units, "guest.buffer_page_in_many", d.buffer_allocs);
        }
        for (class, n) in [
            (SlabClass::FsMeta, d.slab_allocs * SLAB_OBJS_PER_PAGE),
            (SlabClass::Skbuff, d.netbuf_allocs * NETBUF_OBJS_PER_PAGE),
        ] {
            if n > 0 {
                tracer.time("guest.slab_alloc_bulk", || {
                    kernel.slab_alloc_bulk(class, n, IO_HEAT, &FAST_FIRST)
                });
                add(units, "guest.slab_alloc_bulk", n);
            }
        }

        // Management: LRU aging, one hotness scan, then promotions.
        let (aged, _) = tracer.time("guest.age_lru", || {
            kernel.age_lru(MemKind::Fast, cfg.lru_age_batch, cfg.lru_cold_heat)
        });
        add(units, "guest.age_lru", aged);
        if g.access_bit && !chunks.is_empty() {
            // One sweep per epoch over whole chunks, resuming after the
            // last chunk swept, until the scan budget is spent.
            harvested.clear();
            let (visited, _) = tracer.time("guest.harvest_ad_range", || {
                let mut visited = 0u64;
                for _ in 0..chunks.len() {
                    if visited >= scan_batch {
                        break;
                    }
                    harvest_cursor = (harvest_cursor + 1) % chunks.len();
                    let (start, pages) = chunks[harvest_cursor];
                    visited += kernel.harvest_ad_range(start, start + pages, |vpn, a, dirty| {
                        harvested.push((vpn, a, dirty))
                    });
                }
                visited
            });
            add(units, "guest.harvest_ad_range", visited);
            let pt = kernel.page_table();
            let by_gfn: Vec<_> = harvested
                .iter()
                .filter_map(|&(vpn, a, dirty)| pt.translate(vpn).map(|gfn| (gfn, a, dirty)))
                .collect();
            tracer.time("vmm.scan_harvest_into", || {
                tracker.scan_harvest_into(&kernel, &by_gfn, visited, &mut scan)
            });
            add(units, "vmm.scan_harvest_into", visited);
        } else {
            let ranges: Vec<(u64, u64)> = chunks.iter().map(|&(s, p)| (s, s + p)).collect();
            let mut touched = |p: &hetero_guest::page::Page| p.heat >= hot;
            tracer.time("vmm.scan_tracked_into", || {
                tracker.scan_tracked_into(
                    &kernel,
                    &ranges,
                    &[],
                    &mut touched,
                    scan_batch,
                    &mut scan,
                )
            });
            add(units, "vmm.scan_tracked_into", scan.scanned);
        }
        let mut touched = |p: &hetero_guest::page::Page| p.heat >= hot;
        tracer.time("vmm.scan_full_into", || {
            tracker.scan_full_into(&kernel, &mut touched, scan_batch, &mut full)
        });
        add(units, "vmm.scan_full_into", full.scanned);

        let promote: Vec<_> = scan
            .hot_candidates
            .iter()
            .copied()
            .take(migrate_batch)
            .collect();
        let mut demote = scan.cold_candidates.clone().into_iter();
        if !promote.is_empty() {
            let (moved, _) = tracer.time("guest.migrate_page", || {
                let mut moved = 0u64;
                for gfn in promote {
                    if kernel.free_frames(MemKind::Fast) == 0 {
                        match demote.next() {
                            Some(cold) => {
                                moved += u64::from(kernel.migrate_page(cold, MemKind::Slow).is_ok())
                            }
                            None => break,
                        }
                    }
                    moved += u64::from(kernel.migrate_page(gfn, MemKind::Fast).is_ok());
                }
                moved
            });
            add(units, "guest.migrate_page", moved);
        }
    }
}

/// Feeds `spec`'s arrival stream (regenerated from `seed`) through one
/// host's fair-share ledger: register the reserved minimum, request the
/// balloonable rest (reclaiming from larger dominant shares when told to),
/// release it all at departure.
pub fn fair_share(
    cfg: &SimConfig,
    spec: &ClusterSpec,
    seed: u64,
    tracer: &mut Tracer,
    units: &mut Units,
) {
    /// Mean simulated VM lifetime; about twenty VMs share the host.
    const LIFETIME_NS: f64 = 100e6;
    let hetero_core::ArrivalProcess::Poisson {
        mean_interarrival,
        count,
    } = &spec.arrivals
    else {
        return;
    };
    let (count, gap_ns) = (*count, mean_interarrival.as_nanos() as f64);
    let pages = |bytes: KindMap<u64>| KindMap::from_fn(|k| bytes[k] / cfg.scale / cfg.page_size);
    let mut totals = KindMap::default();
    totals[MemKind::Fast] = cfg.fast_bytes / cfg.scale / cfg.page_size;
    totals[MemKind::Slow] = cfg.slow_bytes / cfg.scale / cfg.page_size;
    let mut fs = FairShare::new(SharePolicy::paper_drf(), totals);
    let mut rng = SimRng::seed_from(seed);
    let mut live: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut now = 0u64;
    for i in 0..count as u32 {
        now += rng.next_exponential(gap_ns) as u64;
        let tmpl = &spec.templates[rng.next_range(0, spec.templates.len() as u64) as usize];
        while let Some(&Reverse((due, id))) = live.peek() {
            if due > now {
                break;
            }
            live.pop();
            let id = GuestId(id);
            let (alloc, min) = (fs.allocated(id), fs.reserved_min(id));
            for k in [MemKind::Fast, MemKind::Slow] {
                let extra = alloc[k] - min[k];
                if extra > 0 {
                    tracer.time("vmm.fair_share.release", || fs.release(id, k, extra));
                    add(units, "vmm.fair_share.release", 1);
                }
            }
            fs.unregister(id);
        }
        let min = pages(tmpl.min_bytes);
        if [MemKind::Fast, MemKind::Slow]
            .iter()
            .any(|&k| fs.free(k) < min[k])
        {
            continue;
        }
        let id = GuestId(i);
        fs.register(id, min);
        let max = pages(tmpl.max_bytes);
        let demand = KindMap::from_fn(|k| max[k] - min[k]);
        let (grant, _) = tracer.time("vmm.fair_share.request", || fs.request(id, demand));
        add(units, "vmm.fair_share.request", 1);
        if let Grant::NeedsReclaim(plan) = grant {
            for (donor, k, take) in plan {
                fs.reclaim(donor, k, take);
            }
            tracer.time("vmm.fair_share.request", || fs.request(id, demand));
            add(units, "vmm.fair_share.request", 1);
        }
        live.push(Reverse((now + rng.next_exponential(LIFETIME_NS) as u64, i)));
    }
}
