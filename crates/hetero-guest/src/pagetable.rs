//! A four-level radix page table with accessed/dirty bits.
//!
//! Software hotness tracking works by harvesting and resetting PTE access
//! bits during periodic page-table scans (§2.3). To charge that work
//! honestly, the guest keeps a real 4-level (9 bits/level, x86-64-shaped)
//! radix tree: scans walk actual tables, and the number of *page-table
//! pages* backing the tree feeds the Fig 4 page-type accounting.

use crate::page::Gfn;

/// Bits translated per level.
const LEVEL_BITS: u32 = 9;
/// Entries per table.
const FANOUT: usize = 1 << LEVEL_BITS;
/// Number of levels.
pub const LEVELS: u32 = 4;
/// Maximum virtual page number (exclusive).
pub const VPN_LIMIT: u64 = 1 << (LEVEL_BITS * LEVELS);

/// A page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Backing guest frame.
    pub gfn: Gfn,
    /// Hardware access bit (set by touches, cleared by scans).
    pub accessed: bool,
    /// Hardware dirty bit.
    pub dirty: bool,
}

impl Pte {
    /// Sets the access bit, and the dirty bit for writes.
    #[inline]
    pub fn touch(&mut self, write: bool) {
        self.accessed = true;
        self.dirty |= write;
    }

    /// Returns `(accessed, dirty)` and clears both bits.
    #[inline]
    pub fn harvest(&mut self) -> (bool, bool) {
        let bits = (self.accessed, self.dirty);
        self.accessed = false;
        self.dirty = false;
        bits
    }
}

#[derive(Debug, Clone)]
enum Entry {
    Empty,
    Table(Box<Table>),
    Leaf(Pte),
}

#[derive(Debug, Clone)]
struct Table {
    entries: Vec<Entry>,
    used: usize,
}

impl Table {
    fn new() -> Self {
        Table {
            entries: (0..FANOUT).map(|_| Entry::Empty).collect(),
            used: 0,
        }
    }
}

/// A four-level page table.
///
/// # Examples
///
/// ```
/// use hetero_guest::pagetable::PageTable;
/// use hetero_guest::page::Gfn;
///
/// let mut pt = PageTable::new();
/// pt.map(0x1234, Gfn(42));
/// assert_eq!(pt.translate(0x1234), Some(Gfn(42)));
/// pt.touch(0x1234, true);
/// assert!(pt.walk(0x1234).unwrap().dirty);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    root: Box<Table>,
    mapped: u64,
    table_pages: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable::new()
    }
}

impl PageTable {
    /// Creates an empty page table (root table counts as one table page).
    pub fn new() -> Self {
        PageTable {
            root: Box::new(Table::new()),
            mapped: 0,
            table_pages: 1,
        }
    }

    /// Number of mapped leaf entries.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Number of page-table pages backing the tree (including the root).
    pub fn table_pages(&self) -> u64 {
        self.table_pages
    }

    fn index(vpn: u64, level: u32) -> usize {
        ((vpn >> (LEVEL_BITS * level)) & (FANOUT as u64 - 1)) as usize
    }

    /// Maps `vpn → gfn`, replacing any existing mapping.
    ///
    /// Returns the previously mapped frame, if any.
    ///
    /// # Panics
    ///
    /// Panics if `vpn >= VPN_LIMIT`.
    pub fn map(&mut self, vpn: u64, gfn: Gfn) -> Option<Gfn> {
        assert!(vpn < VPN_LIMIT, "vpn {vpn:#x} out of range");
        let mut new_tables = 0;
        let mut table = &mut *self.root;
        for level in (1..LEVELS).rev() {
            let idx = Self::index(vpn, level);
            if matches!(table.entries[idx], Entry::Empty) {
                table.entries[idx] = Entry::Table(Box::new(Table::new()));
                table.used += 1;
                new_tables += 1;
            }
            table = match &mut table.entries[idx] {
                Entry::Table(t) => t,
                _ => unreachable!("interior levels hold tables"),
            };
        }
        let idx = Self::index(vpn, 0);
        let prev = match std::mem::replace(
            &mut table.entries[idx],
            Entry::Leaf(Pte {
                gfn,
                accessed: false,
                dirty: false,
            }),
        ) {
            Entry::Empty => {
                table.used += 1;
                self.mapped += 1;
                None
            }
            Entry::Leaf(old) => Some(old.gfn),
            Entry::Table(_) => unreachable!("leaf level holds PTEs"),
        };
        self.table_pages += new_tables;
        prev
    }

    /// Maps the consecutive range `start .. start + gfns.len()` so that
    /// `start + i` translates to `gfns[i]`, replacing existing mappings.
    ///
    /// End state is identical to calling [`PageTable::map`] per page; the
    /// interior descent is amortised — one walk per 512-entry leaf block
    /// instead of one per page, which is what makes bulk heap faults cheap.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches `VPN_LIMIT`.
    pub fn map_range(&mut self, start: u64, gfns: &[Gfn]) {
        if gfns.is_empty() {
            return;
        }
        let end = start + gfns.len() as u64;
        assert!(end <= VPN_LIMIT, "vpn range {start:#x}..{end:#x} out of range");
        let mut i = 0usize;
        while i < gfns.len() {
            let vpn = start + i as u64;
            // Pages sharing this leaf table: up to the next 512-block edge.
            let block_end = ((vpn >> LEVEL_BITS) + 1) << LEVEL_BITS;
            let n = ((block_end - vpn) as usize).min(gfns.len() - i);
            let mut new_tables = 0;
            let mut table = &mut *self.root;
            for level in (1..LEVELS).rev() {
                let idx = Self::index(vpn, level);
                if matches!(table.entries[idx], Entry::Empty) {
                    table.entries[idx] = Entry::Table(Box::new(Table::new()));
                    table.used += 1;
                    new_tables += 1;
                }
                table = match &mut table.entries[idx] {
                    Entry::Table(t) => t,
                    _ => unreachable!("interior levels hold tables"),
                };
            }
            let base = Self::index(vpn, 0);
            for (j, &gfn) in gfns[i..i + n].iter().enumerate() {
                let leaf = Entry::Leaf(Pte {
                    gfn,
                    accessed: false,
                    dirty: false,
                });
                match std::mem::replace(&mut table.entries[base + j], leaf) {
                    Entry::Empty => {
                        table.used += 1;
                        self.mapped += 1;
                    }
                    Entry::Leaf(_) => {}
                    Entry::Table(_) => unreachable!("leaf level holds PTEs"),
                }
            }
            self.table_pages += new_tables;
            i += n;
        }
    }

    /// Removes the mapping for `vpn`, returning its PTE.
    ///
    /// Empty intermediate tables are freed (the table-page count drops).
    pub fn unmap(&mut self, vpn: u64) -> Option<Pte> {
        if vpn >= VPN_LIMIT {
            return None;
        }
        fn recurse(table: &mut Table, vpn: u64, level: u32, freed: &mut u64) -> Option<Pte> {
            let idx = PageTable::index(vpn, level);
            if level == 0 {
                return match std::mem::replace(&mut table.entries[idx], Entry::Empty) {
                    Entry::Leaf(pte) => {
                        table.used -= 1;
                        Some(pte)
                    }
                    other => {
                        table.entries[idx] = other;
                        None
                    }
                };
            }
            let (pte, now_empty) = match &mut table.entries[idx] {
                Entry::Table(child) => {
                    let pte = recurse(child, vpn, level - 1, freed)?;
                    (pte, child.used == 0)
                }
                _ => return None,
            };
            if now_empty {
                table.entries[idx] = Entry::Empty;
                table.used -= 1;
                *freed += 1;
            }
            Some(pte)
        }
        let mut freed = 0;
        let pte = recurse(&mut self.root, vpn, LEVELS - 1, &mut freed)?;
        self.mapped -= 1;
        self.table_pages -= freed;
        Some(pte)
    }

    fn leaf(&self, vpn: u64) -> Option<&Pte> {
        if vpn >= VPN_LIMIT {
            return None;
        }
        let mut table = &*self.root;
        for level in (1..LEVELS).rev() {
            match &table.entries[Self::index(vpn, level)] {
                Entry::Table(t) => table = t,
                _ => return None,
            }
        }
        match &table.entries[Self::index(vpn, 0)] {
            Entry::Leaf(pte) => Some(pte),
            _ => None,
        }
    }

    fn leaf_mut(&mut self, vpn: u64) -> Option<&mut Pte> {
        if vpn >= VPN_LIMIT {
            return None;
        }
        let mut table = &mut *self.root;
        for level in (1..LEVELS).rev() {
            match &mut table.entries[Self::index(vpn, level)] {
                Entry::Table(t) => table = t,
                _ => return None,
            }
        }
        match &mut table.entries[Self::index(vpn, 0)] {
            Entry::Leaf(pte) => Some(pte),
            _ => None,
        }
    }

    /// Full walk: the PTE for `vpn`, if mapped.
    pub fn walk(&self, vpn: u64) -> Option<&Pte> {
        self.leaf(vpn)
    }

    /// Translation only.
    pub fn translate(&self, vpn: u64) -> Option<Gfn> {
        self.leaf(vpn).map(|p| p.gfn)
    }

    /// Simulates a CPU touch: sets the access bit (and dirty for writes).
    ///
    /// Returns `false` when `vpn` is unmapped.
    pub fn touch(&mut self, vpn: u64, write: bool) -> bool {
        match self.leaf_mut(vpn) {
            Some(pte) => {
                pte.touch(write);
                true
            }
            None => false,
        }
    }

    /// Rebinds a mapped `vpn` to a new frame (migration remap), preserving
    /// bit state. Returns the old frame, or `None` if unmapped.
    pub fn remap(&mut self, vpn: u64, gfn: Gfn) -> Option<Gfn> {
        self.leaf_mut(vpn).map(|pte| {
            let old = pte.gfn;
            pte.gfn = gfn;
            old
        })
    }

    /// Scans `[start, end)`, invoking `f(vpn, accessed, dirty)` for each
    /// mapped page and **clearing both the access and dirty bits** (the
    /// harvest-and-reset cycle of software A/D tracking). Resetting the
    /// dirty bit alongside the access bit is what makes harvested write
    /// heat decay: without it every page written once reads as
    /// write-hot forever. Returns the number of PTEs visited.
    pub fn scan_and_reset(
        &mut self,
        start: u64,
        end: u64,
        mut f: impl FnMut(u64, bool, bool),
    ) -> u64 {
        self.visit_leaves(start, end, |vpn, pte| {
            let (accessed, dirty) = pte.harvest();
            f(vpn, accessed, dirty);
        })
    }

    /// Visits every mapped PTE in `[start, end)` in VPN order, invoking
    /// `f(vpn, pte)`, and returns the number visited. An empty range
    /// (`start >= end`) visits nothing; `end` is clipped to `VPN_LIMIT`.
    ///
    /// Each level iterates only the index slice whose span meets the range
    /// and skips empty subtrees, as a hardware-shaped scanner would, so the
    /// cost is O(levels + PTEs in range) rather than table fanout × levels.
    pub fn visit_leaves(
        &mut self,
        start: u64,
        end: u64,
        mut f: impl FnMut(u64, &mut Pte),
    ) -> u64 {
        fn recurse(
            table: &mut Table,
            level: u32,
            base: u64,
            start: u64,
            last_vpn: u64,
            f: &mut impl FnMut(u64, &mut Pte),
        ) -> u64 {
            let shift = LEVEL_BITS * level;
            // The caller only descends into tables whose span meets the
            // range, so both offsets are in bounds once clamped.
            let first = (start.saturating_sub(base) >> shift) as usize;
            let last = ((last_vpn - base) >> shift).min(FANOUT as u64 - 1) as usize;
            let mut visited = 0;
            for (i, entry) in table.entries[first..=last].iter_mut().enumerate() {
                let lo = base + (((first + i) as u64) << shift);
                match entry {
                    Entry::Empty => {}
                    Entry::Table(child) => {
                        visited += recurse(child, level - 1, lo, start, last_vpn, f)
                    }
                    Entry::Leaf(pte) => {
                        visited += 1;
                        f(lo, pte);
                    }
                }
            }
            visited
        }
        let end = end.min(VPN_LIMIT);
        if start >= end {
            return 0;
        }
        recurse(&mut self.root, LEVELS - 1, 0, start, end - 1, &mut f)
    }
}

hetero_sim::impl_snap!(struct Pte { gfn, accessed, dirty });

hetero_sim::impl_snap!(enum Entry {
    0 => Empty {},
    1 => Table(table),
    2 => Leaf(pte),
});

hetero_sim::impl_snap!(struct Table { entries, used });

hetero_sim::impl_snap!(struct PageTable { root, mapped, table_pages });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_unmap() {
        let mut pt = PageTable::new();
        assert_eq!(pt.map(5, Gfn(50)), None);
        assert_eq!(pt.translate(5), Some(Gfn(50)));
        assert_eq!(pt.mapped_pages(), 1);
        let pte = pt.unmap(5).unwrap();
        assert_eq!(pte.gfn, Gfn(50));
        assert_eq!(pt.translate(5), None);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn remap_replaces_frame_keeps_bits() {
        let mut pt = PageTable::new();
        pt.map(9, Gfn(1));
        pt.touch(9, true);
        assert_eq!(pt.remap(9, Gfn(2)), Some(Gfn(1)));
        let pte = pt.walk(9).unwrap();
        assert_eq!(pte.gfn, Gfn(2));
        assert!(pte.accessed && pte.dirty);
        assert_eq!(pt.remap(1234, Gfn(3)), None);
    }

    #[test]
    fn map_returns_previous_mapping() {
        let mut pt = PageTable::new();
        pt.map(7, Gfn(70));
        assert_eq!(pt.map(7, Gfn(71)), Some(Gfn(70)));
        assert_eq!(pt.mapped_pages(), 1, "remapping must not double count");
    }

    #[test]
    fn table_pages_grow_and_shrink() {
        let mut pt = PageTable::new();
        assert_eq!(pt.table_pages(), 1);
        pt.map(0, Gfn(0));
        assert_eq!(pt.table_pages(), 4, "root + 3 interior levels");
        // A distant vpn shares the root only.
        pt.map(VPN_LIMIT - 1, Gfn(1));
        assert_eq!(pt.table_pages(), 7);
        pt.unmap(VPN_LIMIT - 1);
        assert_eq!(pt.table_pages(), 4, "empty interior tables are freed");
        pt.unmap(0);
        assert_eq!(pt.table_pages(), 1);
    }

    #[test]
    fn touch_sets_bits() {
        let mut pt = PageTable::new();
        pt.map(3, Gfn(30));
        assert!(pt.touch(3, false));
        let pte = pt.walk(3).unwrap();
        assert!(pte.accessed);
        assert!(!pte.dirty);
        assert!(pt.touch(3, true));
        assert!(pt.walk(3).unwrap().dirty);
        assert!(!pt.touch(999, false));
    }

    #[test]
    fn scan_harvests_and_resets_access_bits() {
        let mut pt = PageTable::new();
        for vpn in 0..10 {
            pt.map(vpn, Gfn(vpn));
        }
        pt.touch(2, false);
        pt.touch(7, true);
        let mut hot = Vec::new();
        let visited = pt.scan_and_reset(0, 10, |vpn, accessed, _| {
            if accessed {
                hot.push(vpn);
            }
        });
        assert_eq!(visited, 10);
        assert_eq!(hot, vec![2, 7]);
        // Second scan: bits were reset.
        let mut hot2 = Vec::new();
        pt.scan_and_reset(0, 10, |vpn, accessed, _| {
            if accessed {
                hot2.push(vpn);
            }
        });
        assert!(hot2.is_empty());
        // Dirty is harvested-and-reset too (see the regression test below).
        assert!(!pt.walk(7).unwrap().dirty);
    }

    #[test]
    fn scan_harvests_and_resets_dirty_bits() {
        // Regression: scan_and_reset used to clear only the accessed bit,
        // so a page written once reported dirty=true on every later scan
        // and harvested write heat could never decay.
        let mut pt = PageTable::new();
        for vpn in 0..10 {
            pt.map(vpn, Gfn(vpn));
        }
        pt.touch(3, true);
        pt.touch(8, true);
        pt.touch(5, false);
        let mut written = Vec::new();
        let visited = pt.scan_and_reset(0, 10, |vpn, _, dirty| {
            if dirty {
                written.push(vpn);
            }
        });
        assert_eq!(visited, 10);
        assert_eq!(written, vec![3, 8]);
        // Second scan: the dirty bits were reset by the first harvest.
        let mut written2 = Vec::new();
        pt.scan_and_reset(0, 10, |vpn, _, dirty| {
            if dirty {
                written2.push(vpn);
            }
        });
        assert!(written2.is_empty(), "dirty bits must reset: {written2:?}");
        // A fresh write after the harvest is seen again — decay, not loss.
        pt.touch(8, true);
        let mut written3 = Vec::new();
        pt.scan_and_reset(0, 10, |vpn, _, dirty| {
            if dirty {
                written3.push(vpn);
            }
        });
        assert_eq!(written3, vec![8]);
    }

    #[test]
    fn scan_respects_range() {
        let mut pt = PageTable::new();
        for vpn in 0..20 {
            pt.map(vpn, Gfn(vpn));
        }
        let visited = pt.scan_and_reset(5, 15, |_, _, _| {});
        assert_eq!(visited, 10);
    }

    #[test]
    fn map_range_matches_per_page_map() {
        // A range crossing two leaf-table boundaries, mapped both ways,
        // must produce identical translations and table counts.
        let start = 500; // crosses the 512 boundary mid-range
        let gfns: Vec<Gfn> = (0..1040).map(|i| Gfn(10_000 + i)).collect();
        let mut bulk = PageTable::new();
        bulk.map_range(start, &gfns);
        let mut scalar = PageTable::new();
        for (i, &g) in gfns.iter().enumerate() {
            scalar.map(start + i as u64, g);
        }
        assert_eq!(bulk.mapped_pages(), scalar.mapped_pages());
        assert_eq!(bulk.table_pages(), scalar.table_pages());
        for i in 0..gfns.len() as u64 {
            assert_eq!(bulk.translate(start + i), scalar.translate(start + i));
        }
        assert_eq!(bulk.translate(start - 1), None);
        assert_eq!(bulk.translate(start + gfns.len() as u64), None);
    }

    #[test]
    fn map_range_replaces_existing_mappings() {
        let mut pt = PageTable::new();
        pt.map(7, Gfn(70));
        pt.map_range(6, &[Gfn(60), Gfn(71), Gfn(80)]);
        assert_eq!(pt.translate(6), Some(Gfn(60)));
        assert_eq!(pt.translate(7), Some(Gfn(71)), "replaced");
        assert_eq!(pt.translate(8), Some(Gfn(80)));
        assert_eq!(pt.mapped_pages(), 3, "replacement must not double count");
    }

    #[test]
    fn map_range_of_nothing_is_a_noop() {
        let mut pt = PageTable::new();
        pt.map_range(0, &[]);
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.table_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn map_range_beyond_limit_panics() {
        PageTable::new().map_range(VPN_LIMIT - 1, &[Gfn(0), Gfn(1)]);
    }

    #[test]
    fn unmap_of_unmapped_is_none() {
        let mut pt = PageTable::new();
        assert_eq!(pt.unmap(12345), None);
        assert_eq!(pt.unmap(VPN_LIMIT + 5), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn map_beyond_limit_panics() {
        PageTable::new().map(VPN_LIMIT, Gfn(0));
    }

    /// Differential test of the clipped walk: random sparse maps around the
    /// 512-page and 262,144-page table edges, scanned over random ranges
    /// (empty, inverted and past `VPN_LIMIT` included), must match a
    /// brute-force reference over a sorted model.
    #[test]
    fn clipped_scan_matches_brute_force_reference() {
        use hetero_sim::SimRng;
        use std::collections::BTreeMap;

        const LEAF: u64 = 1 << LEVEL_BITS;
        const MID: u64 = 1 << (2 * LEVEL_BITS);
        let edges = [0, LEAF, 7 * LEAF, MID, 3 * MID, 1 << (3 * LEVEL_BITS), VPN_LIMIT];
        let mut rng = SimRng::seed_from(0xAD);
        let near_edge = |rng: &mut SimRng| {
            let edge = edges[rng.next_range(0, edges.len() as u64) as usize];
            (edge + rng.next_range(0, 2 * LEAF)).saturating_sub(LEAF)
        };
        for _ in 0..60 {
            let mut pt = PageTable::new();
            let mut model = BTreeMap::new();
            for _ in 0..rng.next_range(0, 400) {
                let vpn = near_edge(&mut rng).min(VPN_LIMIT - 1);
                pt.map(vpn, Gfn(vpn ^ 0x5a5a));
                let (accessed, dirty) = (rng.chance(0.5), rng.chance(0.3));
                if accessed || dirty {
                    pt.touch(vpn, dirty);
                }
                model.insert(vpn, (accessed || dirty, dirty));
            }
            for _ in 0..20 {
                let (start, end) = match rng.next_range(0, 4) {
                    0 => (near_edge(&mut rng), near_edge(&mut rng)),
                    1 => {
                        let s = near_edge(&mut rng);
                        (s, s)
                    }
                    2 => (near_edge(&mut rng), VPN_LIMIT + rng.next_range(0, 3 * LEAF)),
                    _ => {
                        let s = near_edge(&mut rng);
                        (s, s + rng.next_range(0, 2 * MID))
                    }
                };
                let want: Vec<(u64, bool, bool)> = if start < end.min(VPN_LIMIT) {
                    model
                        .range(start..end.min(VPN_LIMIT))
                        .map(|(&vpn, &(a, d))| (vpn, a, d))
                        .collect()
                } else {
                    Vec::new()
                };
                let mut got = Vec::new();
                let visited = pt.scan_and_reset(start, end, |vpn, a, d| got.push((vpn, a, d)));
                assert_eq!(visited, want.len() as u64, "range {start:#x}..{end:#x}");
                assert_eq!(got, want, "range {start:#x}..{end:#x}");
                for &(vpn, ..) in &want {
                    model.insert(vpn, (false, false));
                }
                // Bits are reset inside the range only.
                for (&vpn, &(a, d)) in &model {
                    let pte = pt.walk(vpn).expect("model pages stay mapped");
                    assert_eq!((pte.accessed, pte.dirty), (a, d), "vpn {vpn:#x}");
                }
            }
        }
    }

    #[test]
    fn sparse_mappings_scan_quickly() {
        let mut pt = PageTable::new();
        pt.map(0, Gfn(0));
        pt.map(VPN_LIMIT / 2, Gfn(1));
        let visited = pt.scan_and_reset(0, VPN_LIMIT, |_, _, _| {});
        assert_eq!(visited, 2);
    }
}
