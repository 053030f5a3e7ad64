//! Page descriptors — the guest's `struct page` array equivalent.
//!
//! HeteroOS extends the Linux page descriptor with a memory-type flag
//! (FASTMEM/SLOWMEM, §3.1 "Extending page allocators") and per-subsystem
//! page-type accounting (§3.2). [`PageType`] mirrors the categories of the
//! paper's Fig 4 memory-distribution analysis; [`PageFlags`] carries the
//! state bits the LRU, balloon and migration paths need.

use std::fmt;

use hetero_mem::MemKind;

/// Guest frame number: index into the guest's [`crate::memmap::MemMap`].
///
/// A page's `Gfn` is stable for its lifetime; migration to another tier
/// allocates a fresh page on the target node (new `Gfn`), copies, and remaps
/// — the same semantics as Linux `migrate_pages`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gfn(pub u64);

impl Gfn {
    /// Raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Gfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gfn:{:#x}", self.0)
    }
}

/// An intrusive LRU link: the neighbour's frame number in four bytes, with
/// `u32::MAX` meaning "no neighbour".
///
/// A quarter of the size of an `Option<Gfn>`.
/// [`crate::memmap::MemMap::new`] guarantees every frame number fits.
/// Snapshots encode a link exactly as the `Option<Gfn>` it stands for, and
/// restoring a frame number that does not fit is an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link(u32);

impl Link {
    /// No neighbour.
    pub const NONE: Link = Link(u32::MAX);

    /// The linked frame, if any.
    #[inline]
    pub const fn get(self) -> Option<Gfn> {
        if self.0 == u32::MAX {
            None
        } else {
            Some(Gfn(self.0 as u64))
        }
    }
}

impl From<Option<Gfn>> for Link {
    #[inline]
    fn from(gfn: Option<Gfn>) -> Link {
        match gfn {
            None => Link::NONE,
            Some(g) => {
                debug_assert!(g.0 < u64::from(u32::MAX), "{g} does not fit a link");
                Link(g.0 as u32)
            }
        }
    }
}

/// How a page is used — the paper's Fig 4 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PageType {
    /// Anonymous heap pages.
    HeapAnon,
    /// Filesystem page-cache pages (mapped I/O data).
    PageCache,
    /// Block-layer buffer-cache pages (filesystem metadata, logs).
    BufferCache,
    /// Kernel slab pages (dentries, inodes, generic kmalloc).
    Slab,
    /// Network kernel buffers (`skbuff`) — a slab class the paper calls out
    /// separately for Redis/Nginx.
    NetBuf,
    /// Page-table pages.
    PageTable,
    /// DMA pages (linearly mapped; never migratable).
    Dma,
}

impl PageType {
    /// All types, in Fig 4 presentation order.
    pub const ALL: [PageType; 7] = [
        PageType::HeapAnon,
        PageType::PageCache,
        PageType::BufferCache,
        PageType::Slab,
        PageType::NetBuf,
        PageType::PageTable,
        PageType::Dma,
    ];

    /// Dense index for per-type accounting arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            PageType::HeapAnon => 0,
            PageType::PageCache => 1,
            PageType::BufferCache => 2,
            PageType::Slab => 3,
            PageType::NetBuf => 4,
            PageType::PageTable => 5,
            PageType::Dma => 6,
        }
    }

    /// Number of page types.
    pub const COUNT: usize = 7;

    /// True for the short-lived I/O page classes HeteroOS-LRU evicts eagerly
    /// once the I/O completes (§3.3) and that the coordinated design places
    /// on the VMM's hotness-tracking *exception list* (§4.1).
    pub fn is_io(self) -> bool {
        matches!(
            self,
            PageType::PageCache | PageType::BufferCache | PageType::NetBuf
        )
    }

    /// True when pages of this type can be migrated between tiers. Linearly
    /// mapped page-table and DMA pages cannot (§4.1).
    pub fn is_migratable(self) -> bool {
        !matches!(self, PageType::PageTable | PageType::Dma)
    }
}

impl fmt::Display for PageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageType::HeapAnon => "heap/anon",
            PageType::PageCache => "page-cache",
            PageType::BufferCache => "buffer-cache",
            PageType::Slab => "slab",
            PageType::NetBuf => "nw-buff",
            PageType::PageTable => "pagetable",
            PageType::Dma => "dma",
        };
        f.write_str(s)
    }
}

/// Per-page state bits.
///
/// A minimal `bitflags`-style implementation (the workspace avoids the
/// dependency for two derives' worth of code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageFlags(u16);

impl PageFlags {
    /// Page is backed by a machine frame and usable.
    pub const PRESENT: PageFlags = PageFlags(1 << 0);
    /// Page is on an active LRU list.
    pub const ACTIVE: PageFlags = PageFlags(1 << 1);
    /// Page has been written and not cleaned.
    pub const DIRTY: PageFlags = PageFlags(1 << 2);
    /// Hardware access bit (set on touch, cleared by scans).
    pub const ACCESSED: PageFlags = PageFlags(1 << 3);
    /// Page is linked on some LRU list.
    pub const LRU: PageFlags = PageFlags(1 << 4);
    /// Page was handed back to the VMM by the balloon.
    pub const BALLOONED: PageFlags = PageFlags(1 << 5);
    /// Page is marked for deletion (unmap in progress) — migration must
    /// skip it (§4.1 "Page state").
    pub const RECLAIM: PageFlags = PageFlags(1 << 6);
    /// Allocated through the on-demand balloon driver (returned to the VMM
    /// under memory pressure, §3.1).
    pub const ON_DEMAND: PageFlags = PageFlags(1 << 7);

    /// The empty flag set.
    pub const fn empty() -> Self {
        PageFlags(0)
    }

    /// True if every bit of `other` is set in `self`.
    #[inline]
    pub const fn contains(self, other: PageFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Sets the bits of `other`.
    #[inline]
    pub fn insert(&mut self, other: PageFlags) {
        self.0 |= other.0;
    }

    /// Clears the bits of `other`.
    #[inline]
    pub fn remove(&mut self, other: PageFlags) {
        self.0 &= !other.0;
    }

    /// Sets or clears the bits of `other`.
    #[inline]
    pub fn set(&mut self, other: PageFlags, value: bool) {
        if value {
            self.insert(other);
        } else {
            self.remove(other);
        }
    }
}

impl std::ops::BitOr for PageFlags {
    type Output = PageFlags;
    fn bitor(self, rhs: PageFlags) -> PageFlags {
        PageFlags(self.0 | rhs.0)
    }
}

/// Reverse-mapping information: what a page backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RMap {
    /// Not mapped anywhere (free, or kernel-internal).
    #[default]
    None,
    /// Anonymous page mapped at a virtual page number.
    Anon(u64),
    /// File page: `(file id, page offset within file)`.
    File(u64, u64),
}

/// A page descriptor.
///
/// Kept deliberately small: one is allocated per guest frame, exactly like
/// the kernel memmap. The 4-byte [`Link`]s keep it at 40 bytes.
#[derive(Debug, Clone, Copy)]
pub struct Page {
    /// State bits.
    pub flags: PageFlags,
    /// Current usage class.
    pub page_type: PageType,
    /// Which tier this frame physically lives on (static per `Gfn`).
    pub kind: MemKind,
    /// Workload-assigned access intensity (0 = never touched again,
    /// 255 = hottest). Drives both simulated access distribution and what
    /// an ideal placement would do.
    pub heat: u8,
    /// Workload-assigned *store* intensity (§4.3: NVM's read/write
    /// asymmetry makes write-heavy pages the most valuable promotions).
    /// Zero until the engine assigns it; accounting then tracks it like
    /// `heat`.
    pub write_heat: u8,
    /// LRU linkage: previous page on the list.
    pub lru_prev: Link,
    /// LRU linkage: next page on the list.
    pub lru_next: Link,
    /// Reverse map.
    pub rmap: RMap,
}

impl Page {
    /// A free (unallocated) descriptor on the given tier.
    pub fn free_on(kind: MemKind) -> Self {
        Page {
            flags: PageFlags::empty(),
            page_type: PageType::HeapAnon,
            kind,
            heat: 0,
            write_heat: 0,
            lru_prev: Link::NONE,
            lru_next: Link::NONE,
            rmap: RMap::None,
        }
    }

    /// True when the page is allocated and backed.
    #[inline]
    pub fn is_present(&self) -> bool {
        self.flags.contains(PageFlags::PRESENT)
    }
}

impl hetero_sim::snap::Snap for Gfn {
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        w.put_u64(self.0);
    }
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        Ok(Gfn(r.take_u64()?))
    }
}

impl hetero_sim::snap::Snap for Link {
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        self.get().snap(w);
    }
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        match Option::<Gfn>::unsnap(r)? {
            Some(g) if g.0 >= u64::from(u32::MAX) => Err(
                hetero_sim::snap::SnapshotError::corrupt(format!("LRU link {g} out of range")),
            ),
            gfn => Ok(Link::from(gfn)),
        }
    }
}

impl hetero_sim::snap::Snap for PageFlags {
    fn snap(&self, w: &mut hetero_sim::snap::SnapWriter) {
        w.put_u16(self.0);
    }
    fn unsnap(
        r: &mut hetero_sim::snap::SnapReader<'_>,
    ) -> Result<Self, hetero_sim::snap::SnapshotError> {
        Ok(PageFlags(r.take_u16()?))
    }
}

hetero_sim::impl_snap!(enum PageType {
    0 => HeapAnon {},
    1 => PageCache {},
    2 => BufferCache {},
    3 => Slab {},
    4 => NetBuf {},
    5 => PageTable {},
    6 => Dma {},
});

hetero_sim::impl_snap!(enum RMap {
    0 => None {},
    1 => Anon(vpn),
    2 => File(file, offset),
});

hetero_sim::impl_snap!(struct Page {
    flags, page_type, kind, heat, write_heat, lru_prev, lru_next, rmap
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_type_indices_are_dense_and_unique() {
        let mut seen = [false; PageType::COUNT];
        for t in PageType::ALL {
            assert!(!seen[t.index()], "duplicate index for {t}");
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn io_classification_matches_paper() {
        assert!(PageType::PageCache.is_io());
        assert!(PageType::BufferCache.is_io());
        assert!(PageType::NetBuf.is_io());
        assert!(!PageType::HeapAnon.is_io());
        assert!(!PageType::Slab.is_io());
    }

    #[test]
    fn pagetable_and_dma_are_pinned() {
        assert!(!PageType::PageTable.is_migratable());
        assert!(!PageType::Dma.is_migratable());
        assert!(PageType::HeapAnon.is_migratable());
        assert!(PageType::Slab.is_migratable());
    }

    #[test]
    fn flags_insert_remove_contains() {
        let mut f = PageFlags::empty();
        assert!(!f.contains(PageFlags::PRESENT));
        f.insert(PageFlags::PRESENT | PageFlags::DIRTY);
        assert!(f.contains(PageFlags::PRESENT));
        assert!(f.contains(PageFlags::DIRTY));
        assert!(f.contains(PageFlags::PRESENT | PageFlags::DIRTY));
        f.remove(PageFlags::DIRTY);
        assert!(!f.contains(PageFlags::DIRTY));
        assert!(f.contains(PageFlags::PRESENT));
    }

    #[test]
    fn flags_set_toggles() {
        let mut f = PageFlags::empty();
        f.set(PageFlags::ACTIVE, true);
        assert!(f.contains(PageFlags::ACTIVE));
        f.set(PageFlags::ACTIVE, false);
        assert!(!f.contains(PageFlags::ACTIVE));
    }

    #[test]
    fn fresh_page_is_not_present() {
        let p = Page::free_on(MemKind::Fast);
        assert!(!p.is_present());
        assert_eq!(p.rmap, RMap::None);
    }

    #[test]
    fn page_descriptor_is_40_bytes() {
        assert_eq!(std::mem::size_of::<Link>(), 4);
        assert_eq!(std::mem::size_of::<Page>(), 40);
    }

    /// The snapshot bytes of a page whose links are given as `Option<Gfn>`s,
    /// in the field-by-field encoding the descriptor had before [`Link`].
    fn option_encoding(p: &Page, prev: Option<Gfn>, next: Option<Gfn>) -> Vec<u8> {
        use hetero_sim::snap::{Snap, SnapWriter};
        let mut w = SnapWriter::new();
        p.flags.snap(&mut w);
        p.page_type.snap(&mut w);
        p.kind.snap(&mut w);
        p.heat.snap(&mut w);
        p.write_heat.snap(&mut w);
        prev.snap(&mut w);
        next.snap(&mut w);
        p.rmap.snap(&mut w);
        w.into_bytes()
    }

    #[test]
    fn linked_page_snapshots_like_option_gfn() {
        use hetero_sim::snap::{Snap, SnapReader, SnapWriter};
        let mut p = Page::free_on(MemKind::Slow);
        p.flags = PageFlags::PRESENT | PageFlags::LRU;
        p.heat = 200;
        p.rmap = RMap::File(3, 0x40);
        for (prev, next) in [
            (None, None),
            (Some(Gfn(7)), None),
            (None, Some(Gfn(0))),
            (Some(Gfn(u64::from(u32::MAX) - 1)), Some(Gfn(1 << 20))),
        ] {
            p.lru_prev = Link::from(prev);
            p.lru_next = Link::from(next);
            assert_eq!((p.lru_prev.get(), p.lru_next.get()), (prev, next));
            let mut w = SnapWriter::new();
            p.snap(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(bytes, option_encoding(&p, prev, next));
            let back = Page::unsnap(&mut SnapReader::new(&bytes)).unwrap();
            assert_eq!((back.lru_prev, back.lru_next), (p.lru_prev, p.lru_next));
        }
    }

    #[test]
    fn corrupted_link_fails_restore() {
        use hetero_sim::snap::{Snap, SnapReader};
        let p = Page::free_on(MemKind::Fast);
        for bad in [u64::from(u32::MAX), 1 << 40, u64::MAX] {
            let bytes = option_encoding(&p, None, Some(Gfn(bad)));
            assert!(Page::unsnap(&mut SnapReader::new(&bytes)).is_err(), "link {bad:#x}");
        }
    }

    #[test]
    fn display_matches_fig4_labels() {
        assert_eq!(PageType::HeapAnon.to_string(), "heap/anon");
        assert_eq!(PageType::NetBuf.to_string(), "nw-buff");
        assert_eq!(Gfn(16).to_string(), "gfn:0x10");
    }
}
