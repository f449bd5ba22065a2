//! A two-level table from page number to a small `Copy` value.
//!
//! The simulator's per-page state — which frame holds page `p` of this
//! file, which fill byte disk block `b` carries — is keyed by integers
//! that come in long dense runs (a scan touches pages 0, 1, 2, …; a file's
//! blocks are laid out contiguously). A hash table scatters such a run
//! into one cache-missing probe per page; here neighbouring pages are
//! neighbouring array slots, so a lookup is a shift, a mask and two
//! indexed loads, and a scan walks memory in order.
//!
//! The table is a *directory* of fixed-size *chunks*. The directory must
//! be sparse because not every owner numbers its pages from zero:
//! inode-table pages are numbered by disk block, a few dozen consecutive
//! numbers per cylinder group with thousands unused in between, and a
//! flat array would cost what the whole disk holds. A chunk is allocated
//! when its first slot is set and never given back slot by slot — keeping
//! a population count per chunk would put a second write on every page
//! touch to save memory that the table's owner is about to release
//! anyway: the page cache drops an owner's table with its last page.
//! Because chunks only come, the table also keeps their indices in order,
//! and a walk visits the allocated chunks alone, not every directory slot
//! below the highest page.

/// Slots per chunk, as a power of two. 512 frame indices are 2 KB and
/// cover a 2 MB file; 1024 ran `apps_bulk` no faster and cost the
/// small-file workloads memory.
const CHUNK_BITS: u32 = 9;
const CHUNK: usize = 1 << CHUNK_BITS;

/// A sparse array of `T` indexed by page number, reading as `absent`
/// wherever nothing was stored.
#[derive(Debug, Clone)]
pub(crate) struct PageTable<T> {
    dir: Vec<Option<Box<[T; CHUNK]>>>,
    /// The indices of the allocated chunks, ascending.
    allocated: Vec<usize>,
    absent: T,
}

impl<T: Copy + PartialEq> PageTable<T> {
    /// An empty table; allocates nothing until the first `set`.
    pub(crate) fn new(absent: T) -> Self {
        PageTable {
            dir: Vec::new(),
            allocated: Vec::new(),
            absent,
        }
    }

    fn split(page: u64) -> (usize, usize) {
        let chunk = usize::try_from(page >> CHUNK_BITS).expect("page number fits the host");
        (chunk, page as usize & (CHUNK - 1))
    }

    /// The value stored for `page`, or `absent`.
    #[inline]
    pub(crate) fn get(&self, page: u64) -> T {
        let (chunk, slot) = Self::split(page);
        match self.dir.get(chunk) {
            Some(Some(c)) => c[slot],
            _ => self.absent,
        }
    }

    /// Stores `value` for `page` and returns what was there. Storing
    /// `absent` erases, and never allocates.
    #[inline]
    pub(crate) fn set(&mut self, page: u64, value: T) -> T {
        let (chunk, slot) = Self::split(page);
        if let Some(Some(c)) = self.dir.get_mut(chunk) {
            return std::mem::replace(&mut c[slot], value);
        }
        if value != self.absent {
            self.allocate(chunk)[slot] = value;
        }
        self.absent
    }

    /// Allocates chunk `chunk`, which is not there yet: out of line, so
    /// that the store above inlines at its callers.
    #[cold]
    #[inline(never)]
    fn allocate(&mut self, chunk: usize) -> &mut [T; CHUNK] {
        if chunk >= self.dir.len() {
            self.dir.resize_with(chunk + 1, || None);
        }
        let at = self.allocated.partition_point(|&c| c < chunk);
        self.allocated.insert(at, chunk);
        let fresh: Box<[T]> = vec![self.absent; CHUNK].into_boxed_slice();
        let fresh: Box<[T; CHUNK]> = fresh.try_into().ok().expect("CHUNK slots");
        self.dir[chunk].insert(fresh)
    }

    /// Every stored `(page, value)`, in page order. Visits the allocated
    /// chunks only.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.allocated.iter().flat_map(move |&at| {
            let chunk = self.dir[at].as_deref().expect("an allocated chunk");
            let slots = chunk.iter().enumerate();
            slots
                .filter(move |(_, v)| **v != self.absent)
                .map(move |(slot, v)| (((at << CHUNK_BITS) + slot) as u64, *v))
        })
    }
}

#[cfg(test)]
mod tests {
    //! `PageTable` against a `BTreeMap` of what was stored. CI runs this
    //! with `PROP_CASES=500`; `PROP_SEED` replays one case.

    use std::collections::BTreeMap;

    use gray_toolbox::prop::{check, Gen};

    use super::{PageTable, CHUNK};

    const NIL: u32 = u32::MAX;

    /// Dense low pages, the two slots either side of a chunk boundary, and
    /// the far, sparse numbers the inode table uses.
    fn page(g: &mut Gen) -> u64 {
        match g.usize(0..4) {
            0 => g.u64(0..8),
            1 => CHUNK as u64 * g.u64(1..3) - 2 + g.u64(0..4),
            2 => (1 << 21) + g.u64(0..4) * 4128,
            _ => g.u64(0..3 * CHUNK as u64),
        }
    }

    #[test]
    fn page_table_matches_a_map_of_what_was_stored() {
        check("page_table_model", 60, |g: &mut Gen| {
            let mut table = PageTable::new(NIL);
            let mut model = BTreeMap::new();
            for _ in 0..g.usize(1..300) {
                let p = page(g);
                if g.bool_with(0.6) {
                    let v = g.u64(0..1000) as u32;
                    assert_eq!(table.set(p, v), model.insert(p, v).unwrap_or(NIL));
                } else {
                    assert_eq!(table.set(p, NIL), model.remove(&p).unwrap_or(NIL));
                }
                let probe = page(g);
                assert_eq!(table.get(probe), model.get(&probe).copied().unwrap_or(NIL));
                assert!(table.iter().eq(model.iter().map(|(&p, &v)| (p, v))));
                let present = table.dir.iter().enumerate().filter(|(_, c)| c.is_some());
                let allocated = table.allocated.iter().copied();
                assert!(allocated.eq(present.map(|(at, _)| at)));
            }
        });
    }

    #[test]
    fn nothing_is_allocated_until_something_is_stored() {
        let mut t = PageTable::new(0u8);
        assert_eq!((t.get(0), t.get(u64::MAX >> 1)), (0, 0));
        assert_eq!(t.set(5 << 21, 0), 0);
        assert!(t.dir.is_empty(), "erasing from an empty table allocated");
        assert_eq!(t.set(3 * CHUNK as u64, 7), 0);
        assert_eq!(t.dir.iter().filter(|c| c.is_some()).count(), 1);
        assert_eq!(t.allocated, [3]);
        assert_eq!(
            (t.get(3 * CHUNK as u64), t.get(3 * CHUNK as u64 - 1)),
            (7, 0)
        );
    }
}
