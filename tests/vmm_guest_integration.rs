//! The VMM's fair-share ledger driving real guest kernels: on-demand
//! grants, reclaim plans executed through ballooning, and a guest-side
//! demote/promote tiering loop.

use heteroos::faults::audit_fair_share;
use heteroos::guest::kernel::{GuestConfig, GuestKernel};
use heteroos::mem::kind::KindMap;
use heteroos::mem::MemKind;
use heteroos::vmm::{FairShare, Grant, GuestId, SharePolicy};

fn guest(fast: u64, slow: u64) -> GuestKernel {
    GuestKernel::new(GuestConfig {
        frames: vec![(MemKind::Fast, fast), (MemKind::Slow, slow)],
        cpus: 2,
        page_size: 4096,
    })
}

fn fast(pages: u64) -> KindMap<u64> {
    let mut m = KindMap::default();
    m[MemKind::Fast] = pages;
    m
}

#[test]
fn two_guests_share_the_machine_through_grants_and_balloons() {
    let mut totals: KindMap<u64> = KindMap::default();
    totals[MemKind::Fast] = 1000;
    totals[MemKind::Slow] = 4000;
    let mut fs = FairShare::new(SharePolicy::paper_drf(), totals);
    let mut min = fast(100);
    min[MemKind::Slow] = 500;
    fs.register(GuestId(0), min);
    fs.register(GuestId(1), min);

    let mut g0 = guest(900, 2000);
    let mut g1 = guest(900, 2000);
    // Boot state: everything above the minimum is ballooned out.
    for g in [&mut g0, &mut g1] {
        assert_eq!(g.balloon_inflate(MemKind::Fast, 800), 800);
        assert_eq!(g.balloon_inflate(MemKind::Slow, 1500), 1500);
    }
    let audit = |fs: &FairShare, g0: &GuestKernel, g1: &GuestKernel| {
        let v = audit_fair_share(fs, &[(GuestId(0), g0), (GuestId(1), g1)], &totals);
        assert!(v.is_empty(), "{v:?}");
    };
    audit(&fs, &g0, &g1);

    // Guest 0 grows to 800 fast pages.
    assert_eq!(fs.request(GuestId(0), fast(700)), Grant::Granted);
    assert_eq!(g0.balloon_deflate(MemKind::Fast, 700), 700);
    audit(&fs, &g0, &g1);

    // Guest 1 wants 300: only 100 remain free, so DRF plans a reclaim
    // from guest 0 (the larger dominant share) and consumes nothing yet.
    let plan = match fs.request(GuestId(1), fast(300)) {
        Grant::NeedsReclaim(plan) => plan,
        other => panic!("expected a reclaim plan, got {other:?}"),
    };
    assert_eq!(plan, vec![(GuestId(0), MemKind::Fast, 200)]);
    assert_eq!(fs.free(MemKind::Fast), 100);
    // Execute the plan through the donor's balloon, then grant.
    for (donor, kind, pages) in plan {
        assert_eq!(donor, GuestId(0));
        assert_eq!(g0.balloon_inflate(kind, pages), pages);
        fs.reclaim(donor, kind, pages);
    }
    assert_eq!(fs.request(GuestId(1), fast(300)), Grant::Granted);
    assert_eq!(g1.balloon_deflate(MemKind::Fast, 300), 300);

    // Ledger and kernels agree; FastMem is fully handed out.
    audit(&fs, &g0, &g1);
    assert_eq!(fs.free(MemKind::Fast), 0);
    assert_eq!(fs.allocated(GuestId(0))[MemKind::Fast], 600);
    assert_eq!(fs.allocated(GuestId(1))[MemKind::Fast], 400);
}

#[test]
fn guest_demotion_and_vmm_promotion_compose() {
    // A full little tiering loop without the engine: fill fast with cold
    // pages, let the guest demote, then promote hot slow pages.
    let mut kernel = guest(64, 512);
    // Cold pages fill FastMem.
    let (cold_vma, _) = kernel
        .mmap_heap(48, std::iter::repeat(4), &[MemKind::Fast])
        .unwrap();
    // Hot pages land on SlowMem.
    let (hot_vma, _) = kernel
        .mmap_heap(32, std::iter::repeat(250), &[MemKind::Slow])
        .unwrap();
    // Age the cold pages out of the active list, then demote.
    let aged = kernel.age_lru(MemKind::Fast, 128, 50);
    assert_eq!(aged, 48);
    let moved = kernel.demote_inactive(MemKind::Fast, 48);
    assert_eq!(moved, 48);
    // Promote the hot pages into the freed space.
    let mut promoted = 0;
    for vpn in hot_vma.start..hot_vma.end() {
        let gfn = kernel.page_table().translate(vpn).unwrap();
        if kernel.migrate_page(gfn, MemKind::Fast).is_ok() {
            promoted += 1;
        }
    }
    assert_eq!(promoted, 32);
    // The cold region still works (remapped to SlowMem).
    for vpn in cold_vma.start..cold_vma.end() {
        let gfn = kernel.page_table().translate(vpn).unwrap();
        assert_eq!(kernel.memmap().kind_of(gfn), MemKind::Slow);
    }
    assert_eq!(kernel.migrations, 80);
}
