//! Anonymous memory: regions, demand-zero pages, and swap-slot management.
//!
//! Residency itself is tracked by the unified [`crate::cache`] (anonymous
//! pages compete with file pages for frames under the Linux-like
//! personality — the paper's "shared virtual memory/file cache"); this
//! module tracks what the cache does not: which pages of a region have ever
//! been touched (untouched pages are copy-on-write zero pages: *reads* of
//! them cost nothing and allocate nothing, which is why MAC's probes must
//! write), and which swap slot holds a page that was paged out.
//!
//! Swap slots are sticky: once a page gets a slot it keeps it until the
//! region dies, so evicting a *clean* swapped-in page costs no I/O while a
//! dirty page pays one slot write. Slots are allocated lowest-first, which
//! clusters swap traffic — pageout streams, as real swap code strives for.

use gray_toolbox::hash::FastMap;
use graybox::os::{OsError, OsResult};

use crate::free_set::FreeSet;

/// "No swap slot" in a region's dense slot table.
const NO_SLOT: u64 = u64::MAX;

/// State of one anonymous region. Both per-page tables are indexed by page
/// number and grown on demand, so an untouched address range costs nothing.
#[derive(Debug)]
pub struct Region {
    /// Size in pages.
    pub pages: u64,
    /// One bit per page that has ever been written (materialized).
    touched: Vec<u64>,
    /// Swap slot per page (allocated at first page-out, kept until free),
    /// `NO_SLOT` where there is none.
    slots: Vec<u64>,
}

impl Region {
    /// Rejects a page index outside the region.
    fn check(&self, page: u64) -> OsResult<()> {
        if page >= self.pages {
            return Err(OsError::InvalidArgument);
        }
        Ok(())
    }

    fn slot(&self, page: u64) -> Option<u64> {
        self.slots
            .get(page as usize)
            .copied()
            .filter(|&s| s != NO_SLOT)
    }

    fn touch_kind(&self, page: u64) -> OsResult<TouchKind> {
        self.check(page)?;
        if let Some(slot) = self.slot(page) {
            return Ok(TouchKind::Swapped(slot));
        }
        let word = self.touched.get((page / 64) as usize).copied().unwrap_or(0);
        if word >> (page % 64) & 1 == 1 {
            return Ok(TouchKind::Materialized);
        }
        Ok(TouchKind::Untouched)
    }
}

/// The VM subsystem.
#[derive(Debug)]
pub struct Vm {
    regions: FastMap<u64, Region>,
    next_region: u64,
    /// Swap slots no page holds.
    free_slots: FreeSet,
    total_slots: u64,
}

/// What the kernel must know about a page on touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchKind {
    /// Never written: a write is a demand-zero fault, a read is a free
    /// copy-on-write zero-page read.
    Untouched,
    /// Written before and currently paged out to this swap slot.
    Swapped(u64),
    /// Written before and not in swap — if it is not in the cache either,
    /// that is a kernel bug.
    Materialized,
}

impl Vm {
    /// Creates a VM with `swap_slots` pages of swap space.
    pub fn new(swap_slots: u64) -> Self {
        Vm {
            regions: FastMap::default(),
            next_region: 1,
            free_slots: FreeSet::new(0, swap_slots),
            total_slots: swap_slots,
        }
    }

    /// Allocates a region of `pages` pages (address space only).
    pub fn alloc(&mut self, pages: u64) -> u64 {
        let id = self.next_region;
        self.next_region += 1;
        self.regions.insert(
            id,
            Region {
                pages,
                touched: Vec::new(),
                slots: Vec::new(),
            },
        );
        id
    }

    /// Frees a region, returning its swap slots to the pool one maximal
    /// run of consecutive slots at a time. The caller must separately
    /// purge the region's cached pages.
    pub fn free(&mut self, region: u64) -> OsResult<()> {
        let Region { mut slots, .. } = self.regions.remove(&region).ok_or(OsError::BadRegion)?;
        slots.retain(|&s| s != NO_SLOT);
        slots.sort_unstable();
        for run in slots.chunk_by(|&a, &b| b == a + 1) {
            let (start, len) = (run[0], run.len() as u64);
            self.free_slots.insert_range(start, start + len);
        }
        Ok(())
    }

    /// A region's size in pages, `None` if it is not live.
    pub(crate) fn size(&self, region: u64) -> Option<u64> {
        self.regions.get(&region).map(|r| r.pages)
    }

    /// Classifies a page that was *not* found resident in the cache.
    pub fn touch_kind(&self, region: u64, page: u64) -> OsResult<TouchKind> {
        let r = self.regions.get(&region).ok_or(OsError::BadRegion)?;
        r.touch_kind(page)
    }

    /// [`Vm::touch_kind`] for a write fault, in one region lookup: an
    /// untouched page is recorded as materialized (first write) before it
    /// is reported `Untouched`.
    pub fn touch_for_write(&mut self, region: u64, page: u64) -> OsResult<TouchKind> {
        let r = self.regions.get_mut(&region).ok_or(OsError::BadRegion)?;
        let kind = r.touch_kind(page)?;
        if kind == TouchKind::Untouched {
            let word = (page / 64) as usize;
            if word >= r.touched.len() {
                r.touched.resize(word + 1, 0);
            }
            r.touched[word] |= 1 << (page % 64);
        }
        Ok(kind)
    }

    /// Returns the page's swap slot, allocating one if needed (called when
    /// a dirty anonymous page is evicted; `BadRegion` is a region that
    /// died). Allocation is lowest-first.
    pub fn ensure_slot(&mut self, region: u64, page: u64) -> OsResult<u64> {
        let r = self.regions.get_mut(&region).ok_or(OsError::BadRegion)?;
        r.check(page)?;
        if let Some(slot) = r.slot(page) {
            return Ok(slot);
        }
        // An empty set is exhausted swap space.
        let slot = self.free_slots.first().ok_or(OsError::OutOfMemory)?;
        self.free_slots.take(slot);
        if page as usize >= r.slots.len() {
            r.slots.resize(page as usize + 1, NO_SLOT);
        }
        r.slots[page as usize] = slot;
        Ok(slot)
    }

    /// Swap slots currently in use.
    pub fn slots_in_use(&self) -> u64 {
        self.total_slots - self.free_slots.len()
    }

    /// Number of pages of `region` that live in swap *and* may not be
    /// resident (oracle helper: the cache decides actual residency).
    pub fn swapped_pages(&self, region: u64) -> u64 {
        self.regions
            .get(&region)
            .map(|r| r.slots.iter().filter(|&&s| s != NO_SLOT).count() as u64)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_then_materialized_then_swapped() {
        let mut vm = Vm::new(8);
        let r = vm.alloc(4);
        assert_eq!(vm.touch_kind(r, 0).unwrap(), TouchKind::Untouched);
        vm.touch_for_write(r, 0).unwrap();
        assert_eq!(vm.touch_kind(r, 0).unwrap(), TouchKind::Materialized);
        let slot = vm.ensure_slot(r, 0).unwrap();
        assert_eq!(vm.touch_kind(r, 0).unwrap(), TouchKind::Swapped(slot));
    }

    #[test]
    fn slots_are_sticky_and_reused() {
        let mut vm = Vm::new(8);
        let r = vm.alloc(4);
        vm.touch_for_write(r, 1).unwrap();
        let s1 = vm.ensure_slot(r, 1).unwrap();
        let s2 = vm.ensure_slot(r, 1).unwrap();
        assert_eq!(s1, s2, "a page keeps its slot");
        assert_eq!(vm.slots_in_use(), 1);
    }

    #[test]
    fn free_returns_slots() {
        let mut vm = Vm::new(2);
        let r = vm.alloc(4);
        vm.touch_for_write(r, 0).unwrap();
        vm.touch_for_write(r, 1).unwrap();
        vm.ensure_slot(r, 0).unwrap();
        vm.ensure_slot(r, 1).unwrap();
        assert_eq!(vm.slots_in_use(), 2);
        vm.free(r).unwrap();
        assert_eq!(vm.slots_in_use(), 0);
        assert_eq!(vm.size(r), None);
    }

    #[test]
    fn swap_exhaustion_is_out_of_memory() {
        let mut vm = Vm::new(1);
        let r = vm.alloc(4);
        vm.touch_for_write(r, 0).unwrap();
        vm.touch_for_write(r, 1).unwrap();
        vm.ensure_slot(r, 0).unwrap();
        assert_eq!(vm.ensure_slot(r, 1), Err(OsError::OutOfMemory));
    }

    #[test]
    fn bounds_are_checked() {
        let mut vm = Vm::new(8);
        let r = vm.alloc(2);
        assert_eq!(vm.touch_kind(r, 2), Err(OsError::InvalidArgument));
        assert_eq!(vm.touch_kind(r + 99, 0), Err(OsError::BadRegion));
        assert_eq!(vm.touch_for_write(r, 5), Err(OsError::InvalidArgument));
        // An out-of-range page must not grow the region's slot table.
        assert_eq!(vm.ensure_slot(r, 2), Err(OsError::InvalidArgument));
        assert_eq!(vm.ensure_slot(r + 99, 0), Err(OsError::BadRegion));
        assert_eq!((vm.slots_in_use(), vm.swapped_pages(r)), (0, 0));
    }

    #[test]
    fn slots_are_allocated_lowest_first_across_regions() {
        let mut vm = Vm::new(16);
        let (a, b, c) = (vm.alloc(8), vm.alloc(8), vm.alloc(8));
        // Fresh slots come out in order, whoever asks.
        let got: Vec<u64> = [(a, 3), (b, 0), (a, 7), (c, 5), (b, 6)]
            .iter()
            .map(|&(r, p)| vm.ensure_slot(r, p).unwrap())
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(vm.slots_in_use(), 5);
        // Freeing `a` returns {0, 2}: they go out again before slot 5,
        // lowest first, and a held page keeps what it has.
        vm.free(a).unwrap();
        assert_eq!(vm.slots_in_use(), 3);
        assert_eq!(vm.ensure_slot(c, 0).unwrap(), 0);
        assert_eq!(vm.ensure_slot(b, 0).unwrap(), 1);
        assert_eq!(vm.ensure_slot(b, 1).unwrap(), 2);
        assert_eq!(vm.ensure_slot(c, 1).unwrap(), 5);
        assert_eq!(vm.slots_in_use(), 6);
        // Interleaved frees: the lowest returned slot wins over the rest.
        vm.free(b).unwrap(); // returns {1, 2, 4}
        let d = vm.alloc(4);
        assert_eq!(vm.ensure_slot(d, 3).unwrap(), 1);
        vm.free(c).unwrap(); // returns {0, 3, 5}
        assert_eq!(vm.slots_in_use(), 1);
        let rest: Vec<u64> = (0..3).map(|p| vm.ensure_slot(d, p).unwrap()).collect();
        assert_eq!(rest, vec![0, 2, 3]);
        assert_eq!((vm.slots_in_use(), vm.swapped_pages(d)), (4, 4));
        assert_eq!(vm.touch_kind(d, 3).unwrap(), TouchKind::Swapped(1));
    }

    #[test]
    fn region_ids_are_never_reused() {
        let mut vm = Vm::new(8);
        let a = vm.alloc(1);
        vm.free(a).unwrap();
        let b = vm.alloc(1);
        assert_ne!(a, b);
    }
}
