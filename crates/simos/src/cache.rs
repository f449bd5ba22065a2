//! The page/buffer cache, with three platform personalities.
//!
//! Physical memory not reserved for the kernel is a pool of frames shared
//! by **file pages** (the buffer cache) and **anonymous pages** (process
//! memory). Three architectures model the paper's platforms:
//!
//! - **Unified** (Linux 2.2): one pool, true LRU over file and anon pages
//!   together. LRU evicts a scanned file in file order ("significantly
//!   long chunks"), which is the stated premise of sparse probing, and
//!   gives the
//!   paper's "LRU worst case" for repeated scans and the shared VM/file
//!   cache behavior MAC has to cope with.
//! - **SplitFixed** (NetBSD 1.4/1.5): the file cache is a *fixed-size*
//!   pool with its own clock; anonymous memory gets all remaining frames.
//! - **UnifiedSticky** (Solaris 7): unified accounting, but eviction is
//!   *scan-resistant*: an inserting stream preferentially recycles its own
//!   most-recently-inserted unreferenced page, so the first-cached portion
//!   of a file is retained ("once placed in the Solaris file cache, it is
//!   quite difficult to dislodge") while later scans churn in place.
//!
//! Each pool is a *frame table*, as in the kernels it models: one 32-byte
//! record per resident page in a slab, linked by slab index onto one
//! recency list and naming its owner's record. A page is found the way a
//! kernel finds it, through its owner: each file or region with a resident
//! page has a record, also in a slab, holding a page table from page
//! number to frame index and a count of its pages. Touches come in runs on
//! one owner, so the pool remembers the last owner it found: a touch costs
//! one compare against that memo, two array indices and a list splice —
//! the map of owners is hashed into once per run, not once per page — and
//! a scan walks its owner's table in memory order (DESIGN.md §19).

use gray_toolbox::hash::FastMap;

use crate::page_table::PageTable;

/// What a cached page belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Owner {
    /// A file page: device (mount) index and i-number.
    File {
        /// Mount/device index.
        dev: u32,
        /// I-number on that device.
        ino: u64,
    },
    /// An anonymous region page.
    Anon {
        /// Globally unique region id.
        region: u64,
    },
}

impl Owner {
    /// Whether this owner is a file (as opposed to anonymous memory).
    pub fn is_file(&self) -> bool {
        matches!(self, Owner::File { .. })
    }
}

/// Identity of one cached page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Who the page belongs to.
    pub owner: Owner,
    /// Page index within the owner.
    pub page: u64,
}

impl PageId {
    /// Page `page` of file `ino` on mount `dev`.
    #[inline]
    pub fn file(dev: usize, ino: u64, page: u64) -> Self {
        PageId {
            owner: Owner::File {
                dev: dev as u32,
                ino,
            },
            page,
        }
    }
}

/// A page pushed out of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted page.
    pub id: PageId,
    /// Whether it was dirty (the kernel must write it back).
    pub dirty: bool,
}

/// Replacement policy of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// True LRU: a hit moves the page to MRU; eviction takes the oldest.
    /// Sequential scans therefore evict in file order --- the "long
    /// chunks" behavior the paper's FCCD relies on.
    Lru,
    /// Scan-resistant sticky policy (see module docs).
    Sticky,
}

/// "No frame": the null link of the index-based lists.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// One resident page: the only per-page record the pool keeps.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The owner's record in [`Owners::records`], whose table maps `page`
    /// back to this frame.
    rec: u32,
    /// Page index within the owner.
    page: u64,
    /// Recency stamp, rewritten on every touch; within one LRU list it
    /// rises from head to tail, and it is what orders the file list's
    /// head against the anonymous list's.
    seq: u64,
    /// Whether the page has been referenced since insertion (used by the
    /// sticky policy to protect established pages).
    referenced: bool,
    /// Always false on a free frame, so `dirty_pages` may scan the slab.
    dirty: bool,
    /// The file or anonymous recency list, or the free stack.
    link: Link,
}

const _: () = assert!(std::mem::size_of::<Frame>() == 32);

/// A doubly linked list of frames, threaded through their `link`.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    fn push_back(&mut self, frames: &mut [Frame], i: u32) {
        frames[i as usize].link = Link {
            prev: self.tail,
            next: NIL,
        };
        match self.tail {
            NIL => self.head = i,
            t => frames[t as usize].link.next = i,
        }
        self.tail = i;
    }

    fn unlink(&mut self, frames: &mut [Frame], i: u32) {
        let Link { prev, next } = frames[i as usize].link;
        match prev {
            NIL => self.head = next,
            p => frames[p as usize].link.next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => frames[n as usize].link.prev = prev,
        }
    }

    /// Frame indices from head to tail.
    #[cfg(test)]
    fn iter<'f>(&self, frames: &'f [Frame]) -> impl Iterator<Item = u32> + 'f {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let i = at;
            if i == NIL {
                return None;
            }
            at = frames[i as usize].link.next;
            Some(i)
        })
    }
}

/// What a pool keeps per owner with at least one resident page; dropped,
/// table and all, when the last page leaves.
#[derive(Debug)]
struct Resident {
    /// Whose record this is; a vacant slot keeps its last tenant's.
    owner: Owner,
    /// How many pages `pages` maps: the record goes when it reaches 0.
    count: u32,
    /// Page number to frame index, `NIL` where the page is not resident.
    pages: PageTable<u32>,
}

impl Resident {
    /// No pages and nothing allocated: a new record, and what a vacant
    /// slot of the record slab holds.
    fn empty(owner: Owner) -> Self {
        Resident {
            owner,
            count: 0,
            pages: PageTable::new(NIL),
        }
    }
}

/// A pool's owner records: a slab, the map from owner to slab index, and
/// a memo of the last two owners a touch or insert found (a written page
/// alternates between its inode-table block and itself), which turns one
/// hash per page of a scan or probe sweep into one per run. The memo can
/// only go stale by naming a record that is gone, and records go in exactly
/// one place, [`Owners::drop_record`], which clears the entry naming it; a
/// record's index never changes while it lives.
#[derive(Debug, Default)]
struct Owners {
    records: Vec<Resident>,
    /// Slab slots holding no record.
    vacant: Vec<u32>,
    /// Every owner with a resident page, to its record.
    index: FastMap<Owner, u32>,
    /// Most recently found first.
    memo: [Option<(Owner, u32)>; 2],
}

impl Owners {
    /// The record of `owner`, if it has a resident page.
    #[inline(always)]
    fn find(&self, owner: Owner) -> Option<u32> {
        // Each memo entry compared in place: this runs on every touch.
        match &self.memo {
            [Some((o, r)), _] if *o == owner => Some(*r),
            [_, Some((o, r))] if *o == owner => Some(*r),
            _ => self.find_indexed(owner),
        }
    }

    /// [`Owners::find`] past the memo: out of line, so that the memo
    /// compares inline wherever a page is touched.
    #[inline(never)]
    fn find_indexed(&self, owner: Owner) -> Option<u32> {
        self.index.get(&owner).copied()
    }

    /// Puts `owner`'s record at the front of the memo.
    #[inline]
    fn remember(&mut self, owner: Owner, r: u32) {
        if self.memo[0] != Some((owner, r)) {
            self.memo = [Some((owner, r)), self.memo[0]];
        }
    }

    /// [`Owners::find`] for the paths that come in runs: remembers what
    /// it found.
    #[inline]
    fn find_run(&mut self, owner: Owner) -> Option<u32> {
        let r = self.find(owner)?;
        self.remember(owner, r);
        Some(r)
    }

    /// The record of `owner`, made empty if it had none.
    fn find_or_add(&mut self, owner: Owner) -> u32 {
        if let Some(r) = self.find_run(owner) {
            return r;
        }
        let r = self.vacant.pop().unwrap_or_else(|| {
            self.records.push(Resident::empty(owner));
            (self.records.len() - 1) as u32
        });
        self.records[r as usize].owner = owner;
        self.index.insert(owner, r);
        self.remember(owner, r);
        r
    }

    /// Takes record `r` out, table and all.
    fn drop_record(&mut self, r: u32) -> Resident {
        let owner = self.records[r as usize].owner;
        self.index.remove(&owner);
        self.memo = self.memo.map(|m| m.filter(|&(_, x)| x != r));
        self.vacant.push(r);
        std::mem::replace(&mut self.records[r as usize], Resident::empty(owner))
    }

    /// The frame holding `id`, if it is resident.
    #[inline]
    fn frame_of(&self, id: &PageId) -> Option<u32> {
        let i = self.records[self.find(id.owner)? as usize]
            .pages
            .get(id.page);
        (i != NIL).then_some(i)
    }

    /// The frame of `id` if it is resident and not referenced since
    /// insertion: what a sticky-stack entry must still name to be worth
    /// keeping.
    fn unreferenced(&self, frames: &[Frame], id: &PageId) -> Option<u32> {
        self.frame_of(id)
            .filter(|&i| !frames[i as usize].referenced)
    }
}

/// One replacement pool: a frame table.
///
/// Every resident page is one [`Frame`] in the `frames` slab, found through
/// its owner's page table, naming its owner's record, and threaded on one
/// list: the recency list of its kind (`lru[0]` file, `lru[1]` anonymous;
/// head = least recently used). All links are slab indices, so a touch is
/// an owner compare (a hash only when the run of touches changes owner),
/// two array indices, an unlink and a push-tail.
#[derive(Debug)]
struct Pool {
    capacity: usize,
    policy: Policy,
    /// Prefer evicting (clean or dirty) *file* pages before anonymous
    /// pages, as real kernels do for streaming file I/O: the page cache is
    /// reclaimable, process memory much less so. Set for the unified
    /// architectures; pools that hold only one kind of page don't care.
    prefer_file_eviction: bool,
    frames: Vec<Frame>,
    /// Slab slots not holding a page: a stack threaded through the free
    /// frames' `link.next`, so releasing a frame never allocates.
    free: u32,
    /// How many frames hold a page.
    resident: usize,
    lru: [List; 2],
    owners: Owners,
    next_seq: u64,
    /// How many frames have the dirty bit set.
    dirty: usize,
    /// Sticky policy: per-owner stack of inserted-and-not-yet-referenced
    /// pages (lazily cleaned). Keyed by page identity, not frame: an entry
    /// whose page left and came back speaks for the new incarnation.
    own_stacks: FastMap<Owner, Vec<PageId>>,
    /// Sticky policy: global insertion order of unreferenced pages.
    global_stack: Vec<PageId>,
}

fn lru_of(owner: Owner) -> usize {
    if owner.is_file() {
        0
    } else {
        1
    }
}

impl Pool {
    fn new(capacity: usize, policy: Policy, prefer_file_eviction: bool) -> Self {
        assert!(capacity < NIL as usize, "frame links are 32-bit");
        Pool {
            capacity,
            policy,
            prefer_file_eviction,
            frames: Vec::new(),
            free: NIL,
            resident: 0,
            lru: [List::EMPTY; 2],
            owners: Owners::default(),
            next_seq: 0,
            dirty: 0,
            own_stacks: FastMap::default(),
            global_stack: Vec::new(),
        }
    }

    /// A hit: sets the reference bit (and the dirty bit if asked) and
    /// moves the frame to the MRU end of its list.
    #[inline]
    fn touch(&mut self, id: PageId, dirty: bool) -> bool {
        let Some(r) = self.owners.find_run(id.owner) else {
            return false;
        };
        let i = self.owners.records[r as usize].pages.get(id.page);
        if i == NIL {
            return false;
        }
        let list = &mut self.lru[lru_of(id.owner)];
        if list.tail != i {
            list.unlink(&mut self.frames, i);
            list.push_back(&mut self.frames, i);
        }
        let f = &mut self.frames[i as usize];
        f.seq = self.next_seq;
        self.next_seq += 1;
        f.referenced = true;
        if dirty && !f.dirty {
            f.dirty = true;
            self.dirty += 1;
        }
        true
    }

    fn insert(&mut self, id: PageId, dirty: bool) -> Option<Evicted> {
        if self.touch(id, dirty) {
            return None;
        }
        // Only this function grows the pool, one page at a time, so it is
        // never more than full and one eviction always makes room.
        debug_assert!(self.resident <= self.capacity.max(1));
        let evicted = if self.resident >= self.capacity.max(1) {
            self.evict_one(id.owner)
        } else {
            None
        };
        // After the eviction, which may have taken the owner's last page
        // and its record with it.
        let rec = self.owners.find_or_add(id.owner);
        let frame = Frame {
            rec,
            page: id.page,
            seq: self.next_seq,
            referenced: false,
            dirty,
            link: Link {
                prev: NIL,
                next: NIL,
            },
        };
        self.next_seq += 1;
        let i = match self.free {
            NIL => {
                self.frames.push(frame);
                (self.frames.len() - 1) as u32
            }
            i => {
                self.free = self.frames[i as usize].link.next;
                self.frames[i as usize] = frame;
                i
            }
        };
        self.resident += 1;
        self.lru[lru_of(id.owner)].push_back(&mut self.frames, i);
        let record = &mut self.owners.records[rec as usize];
        record.pages.set(id.page, i);
        record.count += 1;
        self.dirty += usize::from(dirty);
        if self.policy == Policy::Sticky {
            self.own_stacks.entry(id.owner).or_default().push(id);
            self.global_stack.push(id);
        }
        evicted
    }

    /// Takes frame `i`, which holds `id`, off the recency list and pushes
    /// its slot on the free stack. The owner's record is the caller's
    /// business (`release` takes one page out of it, `release_owner` drops
    /// the whole record). Inlined into both: out of line, it is a call per
    /// page of every purge and every eviction.
    #[inline]
    fn vacate(&mut self, i: u32, id: PageId) -> Evicted {
        let dirty = self.frames[i as usize].dirty;
        self.lru[lru_of(id.owner)].unlink(&mut self.frames, i);
        self.resident -= 1;
        self.dirty -= usize::from(dirty);
        let f = &mut self.frames[i as usize];
        f.dirty = false;
        f.link.next = self.free;
        self.free = i;
        Evicted { id, dirty }
    }

    /// Frees one resident frame.
    fn release(&mut self, i: u32) -> Evicted {
        let Frame { rec, page, .. } = self.frames[i as usize];
        let record = &mut self.owners.records[rec as usize];
        let owner = record.owner;
        record.pages.set(page, NIL);
        record.count -= 1;
        if record.count == 0 {
            self.owners.drop_record(rec);
        }
        self.vacate(i, PageId { owner, page })
    }

    /// Frees every page of `owner`, in one walk of its table, in page order.
    fn release_owner(&mut self, owner: Owner) {
        let Some(r) = self.owners.find(owner) else {
            return;
        };
        for (page, i) in self.owners.drop_record(r).pages.iter() {
            self.vacate(i, PageId { owner, page });
        }
    }

    fn evict_one(&mut self, inserting_owner: Owner) -> Option<Evicted> {
        match self.policy {
            Policy::Lru => self.evict_lru(),
            Policy::Sticky => self
                .evict_sticky(inserting_owner)
                .or_else(|| self.evict_lru()),
        }
    }

    /// Evicts the least recently used page, preferring file pages when
    /// configured (anonymous memory is only reclaimed once the file cache
    /// is exhausted — the streaming-I/O protection real kernels apply).
    fn evict_lru(&mut self) -> Option<Evicted> {
        let victim = match (self.lru[0].head, self.lru[1].head) {
            (NIL, NIL) => return None,
            (file, NIL) => file,
            (NIL, anon) => anon,
            (file, anon) => {
                let older = self.frames[file as usize].seq < self.frames[anon as usize].seq;
                if self.prefer_file_eviction || older {
                    file
                } else {
                    anon
                }
            }
        };
        Some(self.release(victim))
    }

    /// Sticky victim selection: the inserting owner's own most recently
    /// inserted unreferenced page, else the globally most recently
    /// inserted unreferenced page.
    fn evict_sticky(&mut self, inserting: Owner) -> Option<Evicted> {
        // Entries referenced since insertion, or stale, are dropped.
        if let Some(stack) = self.own_stacks.get_mut(&inserting) {
            while let Some(id) = stack.pop() {
                if let Some(i) = self.owners.unreferenced(&self.frames, &id) {
                    return Some(self.release(i));
                }
            }
        }
        while let Some(id) = self.global_stack.pop() {
            if let Some(i) = self.owners.unreferenced(&self.frames, &id) {
                return Some(self.release(i));
            }
        }
        None
    }

    fn remove(&mut self, id: PageId) -> bool {
        // Sticky stacks are cleaned lazily.
        match self.owners.frame_of(&id) {
            Some(i) => {
                self.release(i);
                true
            }
            None => false,
        }
    }

    fn clean(&mut self, id: PageId) {
        if let Some(i) = self.owners.frame_of(&id) {
            let f = &mut self.frames[i as usize];
            self.dirty -= usize::from(f.dirty);
            f.dirty = false;
        }
    }

    fn compact_if_bloated(&mut self) {
        // Lazy sticky stacks can accumulate stale ids after heavy churn;
        // compact when they exceed 4x the live population.
        let live = self.resident;
        let (owners, frames) = (&self.owners, &self.frames);
        let keep = |id: &PageId| owners.unreferenced(frames, id).is_some();
        if self.global_stack.len() > live * 4 + 64 {
            self.global_stack.retain(keep);
        }
        for stack in self.own_stacks.values_mut() {
            if stack.len() > live * 4 + 64 {
                stack.retain(keep);
            }
        }
    }
}

/// The machine-wide page cache.
#[derive(Debug)]
pub struct PageCache {
    pools: Vec<Pool>,
    /// Which pool hosts file pages and which anonymous ones, indexed as
    /// [`lru_of`] numbers the two kinds.
    pool_of: [usize; 2],
}

impl PageCache {
    /// Builds the cache for the given architecture over `total_pages`
    /// usable frames.
    pub fn new(arch: crate::config::CacheArch, total_pages: u64) -> Self {
        match arch {
            crate::config::CacheArch::Unified => PageCache {
                pools: vec![Pool::new(total_pages as usize, Policy::Lru, true)],
                pool_of: [0, 0],
            },
            crate::config::CacheArch::UnifiedSticky => PageCache {
                pools: vec![Pool::new(total_pages as usize, Policy::Sticky, true)],
                pool_of: [0, 0],
            },
            crate::config::CacheArch::SplitFixed { file_cache_bytes } => {
                let file_pages = (file_cache_bytes / crate::config::PAGE_SIZE)
                    .min(total_pages.saturating_sub(1));
                let anon_pages = total_pages - file_pages;
                PageCache {
                    pools: vec![
                        Pool::new(file_pages as usize, Policy::Lru, false),
                        Pool::new(anon_pages as usize, Policy::Lru, false),
                    ],
                    pool_of: [0, 1],
                }
            }
        }
    }

    #[inline]
    fn pool_mut(&mut self, owner: Owner) -> &mut Pool {
        &mut self.pools[self.pool_of[lru_of(owner)]]
    }

    #[inline]
    fn pool(&self, owner: Owner) -> &Pool {
        &self.pools[self.pool_of[lru_of(owner)]]
    }

    /// Whether the page is resident; on a hit, sets its reference bit.
    #[inline]
    pub fn lookup_touch(&mut self, id: PageId) -> bool {
        self.pool_mut(id.owner).touch(id, false)
    }

    /// Whether the page is resident, without touching reference bits.
    pub fn contains(&self, id: PageId) -> bool {
        self.pool(id.owner).owners.frame_of(&id).is_some()
    }

    /// Inserts a page, or refreshes it if already resident; returns the
    /// page evicted to make room, if any (the kernel charges the write-back
    /// of a dirty one).
    pub fn insert(&mut self, id: PageId, dirty: bool) -> Option<Evicted> {
        let pool = self.pool_mut(id.owner);
        let out = pool.insert(id, dirty);
        pool.compact_if_bloated();
        out
    }

    /// Marks a resident page dirty; false if it was not resident.
    #[inline]
    pub fn mark_dirty(&mut self, id: PageId) -> bool {
        self.pool_mut(id.owner).touch(id, true)
    }

    /// Clears the dirty bit after a write-back.
    pub fn clean(&mut self, id: PageId) {
        self.pool_mut(id.owner).clean(id);
    }

    /// Removes one page (truncate/unlink/free paths).
    pub fn remove(&mut self, id: PageId) -> bool {
        self.pool_mut(id.owner).remove(id)
    }

    /// Removes every page of an owner, dirty ones included: nothing is
    /// written back.
    pub fn remove_owner(&mut self, owner: Owner) {
        self.pool_mut(owner).release_owner(owner);
    }

    /// Drops **all file pages** (the experimental "flush the file cache"
    /// between runs), dirty ones included: nothing is written back.
    pub fn drop_file_pages(&mut self) {
        for pool in &mut self.pools {
            let mut owners: Vec<Owner> = pool
                .owners
                .index
                .keys()
                .filter(|o| o.is_file())
                .copied()
                .collect();
            // Sorted so the order frames go back on the free stack, and
            // so which slot each later page lands in, does not depend on
            // hash-table order.
            owners.sort_unstable();
            for owner in owners {
                pool.release_owner(owner);
            }
            pool.own_stacks.clear();
            pool.global_stack
                .retain(|id| pool.owners.frame_of(id).is_some());
        }
    }

    /// How many resident pages are dirty.
    pub fn dirty_count(&self) -> usize {
        self.pools.iter().map(|p| p.dirty).sum()
    }

    /// All dirty pages currently resident (for `sync` and the flusher).
    /// Sorted, so that write-back order — which decides seek-dependent
    /// disk costs — is a function of page identity, not of where frames
    /// happen to sit in the slab.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        if self.dirty_count() == 0 {
            return Vec::new();
        }
        let mut out: Vec<PageId> = self
            .pools
            .iter()
            .flat_map(|p| {
                let dirty = p.frames.iter().filter(|f| f.dirty);
                dirty.map(|f| PageId {
                    owner: p.owners.records[f.rec as usize].owner,
                    page: f.page,
                })
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Total resident pages.
    pub fn resident_pages(&self) -> usize {
        self.pools.iter().map(|p| p.resident).sum()
    }

    /// Resident pages belonging to `owner`, in page order.
    pub fn resident_of(&self, owner: Owner) -> Vec<u64> {
        let pool = self.pool(owner);
        let Some(r) = pool.owners.find(owner) else {
            return Vec::new();
        };
        let pages = pool.owners.records[r as usize].pages.iter();
        pages.map(|(page, _)| page).collect()
    }

    /// Free frames in the pool that would host `owner`.
    pub fn free_pages_for(&self, owner: Owner) -> u64 {
        let pool = self.pool(owner);
        pool.capacity.saturating_sub(pool.resident) as u64
    }

    /// Capacity of the pool that hosts `owner`.
    pub fn capacity_for(&self, owner: Owner) -> u64 {
        self.pool(owner).capacity as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheArch;

    fn file_page(ino: u64, page: u64) -> PageId {
        PageId {
            owner: Owner::File { dev: 0, ino },
            page,
        }
    }

    fn anon_page(region: u64, page: u64) -> PageId {
        PageId {
            owner: Owner::Anon { region },
            page,
        }
    }

    /// The owner map's key shapes against the workspace hasher
    /// (`gray_toolbox::hash`, whose own test covers plain words): most of
    /// 4096 owners sharing one 12-bit bucket index (the table's low bits)
    /// and one 7-bit tag (its top bits).
    #[test]
    fn the_owner_shapes_the_simulator_makes_do_not_pile_up() {
        use std::hash::BuildHasher;
        let build = std::hash::BuildHasherDefault::<gray_toolbox::hash::FastHasher>::default();
        let file = |dev, ino| Owner::File { dev, ino };
        let shapes: [(&str, Vec<Owner>); 4] = [
            (
                "regions, in order",
                (1..=4096).map(|region| Owner::Anon { region }).collect(),
            ),
            (
                "files of one directory",
                (0..4096).map(|i| file(0, 3 + i)).collect(),
            ),
            (
                "files on two devices",
                (0..4096).map(|i| file(i as u32 % 2, i / 2)).collect(),
            ),
            (
                "one file a cylinder group",
                (0..4096).map(|g| file(0, g * 1024)).collect(),
            ),
        ];
        for (shape, owners) in shapes {
            let (mut buckets, mut tags) = (vec![0usize; 4096], vec![0usize; 128]);
            for owner in owners {
                let h = build.hash_one(owner);
                buckets[(h & 0xfff) as usize] += 1;
                tags[(h >> 57) as usize] += 1;
            }
            let bucket = buckets.into_iter().max().unwrap();
            let tag = tags.into_iter().max().unwrap();
            // A uniformly random hash would put about 7 keys in its fullest
            // bucket and about 50 on its commonest tag.
            assert!(
                bucket <= 7 && tag <= 50,
                "{shape}: bucket {bucket}, tag {tag}"
            );
        }
    }

    #[test]
    fn lru_evicts_in_insertion_order_without_references() {
        let mut c = PageCache::new(CacheArch::Unified, 3);
        for p in 0..3 {
            assert!(c.insert(file_page(1, p), false).is_none());
        }
        let evicted = c.insert(file_page(1, 3), false);
        assert_eq!(
            evicted,
            Some(Evicted {
                id: file_page(1, 0),
                dirty: false
            })
        );
    }

    #[test]
    fn referenced_pages_get_a_second_chance() {
        let mut c = PageCache::new(CacheArch::Unified, 3);
        for p in 0..3 {
            c.insert(file_page(1, p), false);
        }
        assert!(c.lookup_touch(file_page(1, 0)));
        let evicted = c.insert(file_page(1, 3), false);
        // Page 0 was referenced, so page 1 goes instead.
        assert_eq!(evicted.unwrap().id, file_page(1, 1));
        assert!(c.contains(file_page(1, 0)));
    }

    #[test]
    fn dirty_flag_travels_with_eviction() {
        let mut c = PageCache::new(CacheArch::Unified, 1);
        c.insert(file_page(1, 0), true);
        let evicted = c.insert(file_page(1, 1), false);
        assert!(evicted.unwrap().dirty);
    }

    #[test]
    fn reinsert_is_a_refresh_not_a_duplicate() {
        let mut c = PageCache::new(CacheArch::Unified, 2);
        c.insert(file_page(1, 0), false);
        c.insert(file_page(1, 0), true);
        assert_eq!(c.resident_pages(), 1);
        let dirty = c.dirty_pages();
        assert_eq!(dirty, vec![file_page(1, 0)]);
    }

    #[test]
    fn split_pools_do_not_steal_from_each_other() {
        let arch = CacheArch::SplitFixed {
            file_cache_bytes: 2 * 4096,
        };
        let mut c = PageCache::new(arch, 10);
        assert_eq!(c.capacity_for(Owner::File { dev: 0, ino: 1 }), 2);
        assert_eq!(c.capacity_for(Owner::Anon { region: 1 }), 8);
        // Fill the file pool; anon stays untouched.
        for p in 0..4 {
            c.insert(file_page(1, p), false);
        }
        c.insert(anon_page(1, 0), true);
        assert_eq!(c.resident_of(Owner::File { dev: 0, ino: 1 }).len(), 2);
        assert_eq!(c.resident_of(Owner::Anon { region: 1 }).len(), 1);
    }

    #[test]
    fn sticky_scan_retains_head_of_file() {
        let mut c = PageCache::new(CacheArch::UnifiedSticky, 4);
        // Scan 8 pages of one file through a 4-page cache.
        for p in 0..8 {
            c.insert(file_page(1, p), false);
        }
        let resident = c.resident_of(Owner::File { dev: 0, ino: 1 });
        // The head of the file must survive; the tail churned in place.
        assert!(resident.contains(&0), "resident: {resident:?}");
        assert!(resident.contains(&1), "resident: {resident:?}");
        assert!(resident.contains(&2), "resident: {resident:?}");
    }

    #[test]
    fn sticky_second_file_does_not_dislodge_first() {
        let mut c = PageCache::new(CacheArch::UnifiedSticky, 4);
        for p in 0..4 {
            c.insert(file_page(1, p), false);
        }
        // Re-reference file 1 so its pages are protected.
        for p in 0..4 {
            assert!(c.lookup_touch(file_page(1, p)));
        }
        // Scan a second file through.
        for p in 0..8 {
            c.insert(file_page(2, p), false);
        }
        let f1 = c.resident_of(Owner::File { dev: 0, ino: 1 });
        assert!(
            f1.len() >= 3,
            "file 1 should survive a foreign scan: {f1:?}"
        );
    }

    #[test]
    fn unified_clock_scan_evicts_everything() {
        // Contrast with sticky: a 2x-cache scan under pure clock leaves
        // only the most recent pages.
        let mut c = PageCache::new(CacheArch::Unified, 4);
        for p in 0..8 {
            c.insert(file_page(1, p), false);
        }
        let resident = c.resident_of(Owner::File { dev: 0, ino: 1 });
        assert_eq!(resident, vec![4, 5, 6, 7]);
    }

    #[test]
    fn remove_owner_purges_only_that_owner() {
        let mut c = PageCache::new(CacheArch::Unified, 8);
        c.insert(file_page(1, 0), false);
        c.insert(file_page(2, 0), true);
        c.remove_owner(Owner::File { dev: 0, ino: 2 });
        assert!(c.contains(file_page(1, 0)));
        assert!(!c.contains(file_page(2, 0)));
        // The dirty page went with it, unwritten.
        assert_eq!((c.resident_pages(), c.dirty_count()), (1, 0));
    }

    #[test]
    fn drop_file_pages_keeps_anon() {
        let mut c = PageCache::new(CacheArch::Unified, 8);
        c.insert(file_page(1, 0), false);
        c.insert(anon_page(1, 0), true);
        c.drop_file_pages();
        assert!(!c.contains(file_page(1, 0)));
        assert!(c.contains(anon_page(1, 0)));
    }

    #[test]
    fn clean_clears_dirty() {
        let mut c = PageCache::new(CacheArch::Unified, 8);
        c.insert(file_page(1, 0), true);
        c.clean(file_page(1, 0));
        assert!(c.dirty_pages().is_empty());
    }

    /// Walks every list of a pool and checks that the recency lists, the
    /// owners' records and page tables, the resident and dirty counts and
    /// the free list all describe the same set of frames.
    fn assert_pool_consistent(pool: &Pool) {
        let owners = &pool.owners;
        let mut seen = vec![false; pool.frames.len()];
        let mark = |seen: &mut [bool], i: u32, what: &str| {
            let twice = std::mem::replace(&mut seen[i as usize], true);
            assert!(!twice, "frame {i} twice ({what})");
        };
        let mut dirty = 0;
        for (kind, list) in pool.lru.iter().enumerate() {
            let mut prev = NIL;
            for i in list.iter(&pool.frames) {
                let f = &pool.frames[i as usize];
                mark(&mut seen, i, "lru");
                assert_eq!(f.link.prev, prev, "back link of frame {i}");
                let record = &owners.records[f.rec as usize];
                assert_eq!(
                    owners.index.get(&record.owner),
                    Some(&f.rec),
                    "frame {i} names a dead record"
                );
                assert_eq!(lru_of(record.owner), kind, "frame {i} on the wrong list");
                assert_eq!(record.pages.get(f.page), i, "table slot of {i}");
                if prev != NIL {
                    assert!(pool.frames[prev as usize].seq < f.seq, "seq order at {i}");
                }
                dirty += usize::from(f.dirty);
                prev = i;
            }
            assert_eq!(list.tail, prev);
        }
        let listed = seen.iter().filter(|&&s| s).count();
        assert_eq!(listed, pool.resident, "lists and resident count disagree");
        assert!(listed <= pool.capacity.max(1));
        assert_eq!(dirty, pool.dirty, "dirty count");

        for (owner, r) in owners.memo.iter().flatten() {
            assert_eq!(owners.index.get(owner), Some(r), "memo names a dead record");
        }
        assert_eq!(
            owners.index.len() + owners.vacant.len(),
            owners.records.len()
        );
        for &r in &owners.vacant {
            let Resident { count, pages, .. } = &owners.records[r as usize];
            assert_eq!(*count, 0, "vacant record {r} counts pages");
            assert!(
                pages.iter().next().is_none(),
                "vacant record {r} maps pages"
            );
        }
        let mut slots = 0;
        for (owner, &r) in &owners.index {
            let Resident {
                owner: named,
                count,
                pages,
            } = &owners.records[r as usize];
            assert_eq!(named, owner, "record {r} is filed under another owner");
            assert_ne!(*count, 0, "record kept for {owner:?} with no pages");
            // Table to slab: every slot names a live frame holding that page.
            let mut entries = 0;
            for (page, i) in pages.iter() {
                assert!(
                    seen[i as usize],
                    "{owner:?} page {page} names free frame {i}"
                );
                let f = &pool.frames[i as usize];
                assert_eq!((f.rec, f.page), (r, page), "slot of frame {i}");
                entries += 1;
            }
            assert_eq!(entries, *count as usize, "page count of {owner:?}");
            slots += entries;
        }
        assert_eq!(
            slots, pool.resident,
            "table slots and resident count disagree"
        );

        let mut free = pool.free;
        while free != NIL {
            mark(&mut seen, free, "free");
            let f = &pool.frames[free as usize];
            assert!(!f.dirty, "free frame {free} left dirty");
            free = f.link.next;
        }
        assert!(
            seen.iter().all(|&s| s),
            "a slab slot is neither live nor free"
        );
    }

    #[test]
    fn heavy_churn_keeps_order_and_entries_in_sync() {
        for arch in [CacheArch::Unified, CacheArch::UnifiedSticky] {
            let mut c = PageCache::new(arch, 16);
            for round in 0..100u64 {
                // File pages straddle a page-table chunk boundary (512).
                for p in 504..520 {
                    c.insert(file_page(round % 3, p), p % 2 == 0);
                    c.insert(anon_page(round % 2, p % 16 / 2), true);
                    c.lookup_touch(file_page((round + 1) % 3, p));
                }
                assert_pool_consistent(&c.pools[0]);
                match round % 4 {
                    0 => c.remove_owner(Owner::File {
                        dev: 0,
                        ino: round % 3,
                    }),
                    1 => drop(c.remove(anon_page(round % 2, round % 8))),
                    2 => c.clean(file_page(round % 3, 504 + round % 16)),
                    _ => c.drop_file_pages(),
                }
                assert_pool_consistent(&c.pools[0]);
            }
        }
    }

    #[test]
    fn dirty_count_follows_every_bit_flip() {
        let mut c = PageCache::new(CacheArch::Unified, 2);
        assert_eq!(c.dirty_count(), 0);
        c.insert(file_page(1, 0), true);
        c.insert(file_page(1, 0), true);
        c.insert(file_page(1, 1), false);
        assert_eq!(c.dirty_count(), 1);
        c.mark_dirty(file_page(1, 1));
        assert_eq!(c.dirty_count(), 2);
        c.clean(file_page(1, 1));
        c.clean(file_page(1, 1));
        assert_eq!(c.dirty_count(), 1);
        // Evicting the dirty page, then removing a clean one.
        assert!(c.insert(file_page(1, 2), false).unwrap().dirty);
        assert_eq!(c.dirty_count(), 0);
        c.remove(file_page(1, 1));
        assert_eq!((c.dirty_count(), c.dirty_pages()), (0, vec![]));
    }

    #[test]
    fn free_pages_accounting() {
        let mut c = PageCache::new(CacheArch::Unified, 4);
        let owner = Owner::File { dev: 0, ino: 1 };
        assert_eq!(c.free_pages_for(owner), 4);
        c.insert(file_page(1, 0), false);
        assert_eq!(c.free_pages_for(owner), 3);
    }
}
