//! Model test of the page cache: random operation sequences through all
//! three architectures against a naive reference, everything observable
//! compared after every operation.
//!
//! The reference keeps each pool as one `Vec` in recency order and finds
//! everything by linear scan — no index, no links, no counters — so the
//! frame table's list surgery, index upkeep, owner records, dirty count and
//! free-list reuse each have something independent to disagree with.
//! Capacities are tiny so nearly every insert evicts, and owners empty and
//! refill all the time — also straight after a run of touches on the owner
//! that empties, with a second owner moving in at the same page numbers,
//! which is what a remembered "last owner" has to survive. The sticky stacks
//! are modelled without compaction,
//! which the cache claims is invisible. Each owner draws its six page
//! numbers from one of three shapes, because the cache finds a page through
//! a per-owner table indexed by page number: dense from zero, straddling a
//! table chunk boundary, or far apart and far from zero as the inode
//! table's are. The purges report nothing, so what one dropped is read
//! off the cache itself: the pages resident before and not after, each
//! dirty or not as it was before.
//!
//! CI runs this with `PROP_CASES=500`; `PROP_SEED` replays one case.

use std::collections::BTreeMap;

use gray_toolbox::prop::{check, Gen};
use simos::cache::{Evicted, Owner, PageCache, PageId};
use simos::{CacheArch, PAGE_SIZE};

struct ModelPage {
    id: PageId,
    referenced: bool,
    dirty: bool,
}

/// One pool: `pages` runs from least to most recently used.
struct ModelPool {
    capacity: usize,
    sticky: bool,
    prefer_file_eviction: bool,
    pages: Vec<ModelPage>,
    own_stacks: BTreeMap<Owner, Vec<PageId>>,
    global_stack: Vec<PageId>,
}

impl ModelPool {
    fn new(capacity: u64, sticky: bool, prefer_file_eviction: bool) -> Self {
        ModelPool {
            capacity: capacity as usize,
            sticky,
            prefer_file_eviction,
            pages: Vec::new(),
            own_stacks: BTreeMap::new(),
            global_stack: Vec::new(),
        }
    }

    fn position(&self, id: PageId) -> Option<usize> {
        self.pages.iter().position(|p| p.id == id)
    }

    fn take(&mut self, at: usize) -> Evicted {
        let p = self.pages.remove(at);
        Evicted {
            id: p.id,
            dirty: p.dirty,
        }
    }

    fn touch(&mut self, id: PageId, dirty: bool) -> bool {
        let Some(at) = self.position(id) else {
            return false;
        };
        let mut p = self.pages.remove(at);
        p.referenced = true;
        p.dirty |= dirty;
        self.pages.push(p);
        true
    }

    /// Pops `stack` down to its first resident, never-referenced page.
    fn pop_unreferenced(pages: &[ModelPage], stack: &mut Vec<PageId>) -> Option<usize> {
        while let Some(id) = stack.pop() {
            let at = pages.iter().position(|p| p.id == id);
            if let Some(at) = at.filter(|&at| !pages[at].referenced) {
                return Some(at);
            }
        }
        None
    }

    fn victim(&mut self, inserting: Owner) -> usize {
        if self.sticky {
            let own = self.own_stacks.get_mut(&inserting);
            let at = own
                .and_then(|stack| Self::pop_unreferenced(&self.pages, stack))
                .or_else(|| Self::pop_unreferenced(&self.pages, &mut self.global_stack));
            if let Some(at) = at {
                return at;
            }
        }
        let oldest_file = self.pages.iter().position(|p| p.id.owner.is_file());
        match oldest_file {
            Some(at) if self.prefer_file_eviction => at,
            _ => 0,
        }
    }

    fn insert(&mut self, id: PageId, dirty: bool) -> Option<Evicted> {
        if self.touch(id, dirty) {
            return None;
        }
        let full = self.pages.len() >= self.capacity.max(1);
        let evicted = full.then(|| {
            let at = self.victim(id.owner);
            self.take(at)
        });
        self.pages.push(ModelPage {
            id,
            referenced: false,
            dirty,
        });
        if self.sticky {
            self.own_stacks.entry(id.owner).or_default().push(id);
            self.global_stack.push(id);
        }
        evicted
    }

    /// Removes every page `doomed` selects, in `PageId` order.
    fn purge(&mut self, doomed: impl Fn(Owner) -> bool) -> Vec<Evicted> {
        let mut out = Vec::new();
        while let Some(at) = self.pages.iter().position(|p| doomed(p.id.owner)) {
            out.push(self.take(at));
        }
        out.sort_unstable_by_key(|e| e.id);
        out
    }
}

struct Model {
    pools: Vec<ModelPool>,
    split: bool,
}

impl Model {
    fn new(arch: CacheArch, total_pages: u64) -> Self {
        let pools = match arch {
            CacheArch::Unified => vec![ModelPool::new(total_pages, false, true)],
            CacheArch::UnifiedSticky => vec![ModelPool::new(total_pages, true, true)],
            CacheArch::SplitFixed { file_cache_bytes } => {
                let file = (file_cache_bytes / PAGE_SIZE).min(total_pages - 1);
                vec![
                    ModelPool::new(file, false, false),
                    ModelPool::new(total_pages - file, false, false),
                ]
            }
        };
        Model {
            split: pools.len() == 2,
            pools,
        }
    }

    fn pool(&mut self, owner: Owner) -> &mut ModelPool {
        let at = usize::from(self.split && !owner.is_file());
        &mut self.pools[at]
    }

    fn drop_file_pages(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        for pool in &mut self.pools {
            out.extend(pool.purge(|o| o.is_file()));
            pool.own_stacks.clear();
            let pages = &pool.pages;
            pool.global_stack
                .retain(|id| pages.iter().any(|p| p.id == *id));
        }
        out
    }

    fn dirty_pages(&self) -> Vec<PageId> {
        let all = self.pools.iter().flat_map(|pool| &pool.pages);
        let mut out: Vec<PageId> = all.filter(|p| p.dirty).map(|p| p.id).collect();
        out.sort_unstable();
        out
    }

    fn resident_of(&mut self, owner: Owner) -> Vec<u64> {
        let pages = &self.pool(owner).pages;
        let mut out: Vec<u64> = pages
            .iter()
            .filter(|p| p.id.owner == owner)
            .map(|p| p.id.page)
            .collect();
        out.sort_unstable();
        out
    }
}

fn owners() -> Vec<Owner> {
    vec![
        Owner::File { dev: 0, ino: 1 },
        Owner::File { dev: 0, ino: 2 },
        Owner::File { dev: 1, ino: 1 },
        Owner::Anon { region: 1 },
        Owner::Anon { region: 2 },
    ]
}

/// Pages an owner may hold.
const PAGES: usize = 6;

/// One owner's page numbers.
fn page_numbers(g: &mut Gen) -> [u64; PAGES] {
    let at = |k: usize| k as u64;
    match g.usize(0..4) {
        0 => std::array::from_fn(at),
        // Either side of a chunk boundary, whichever power of two a chunk is.
        1 => {
            let boundary = 1u64 << g.u64(8..13);
            std::array::from_fn(|k| boundary - 3 + at(k))
        }
        // Inode-table pages are numbered by disk block: a cylinder group
        // apart (4128 blocks), beyond 2^21 on a 9 GB disk.
        2 => {
            let base = (1u64 << 21) + g.u64(0..1 << 20);
            std::array::from_fn(|k| base + at(k / 2) * 4128 + at(k % 2))
        }
        _ => {
            let base = g.u64(0..1 << 22);
            std::array::from_fn(|k| base + at(k) * g.u64(1..2000))
        }
    }
}

/// Runs `purge` on `cache` and returns what it took out, in `PageId`
/// order: every page of `owners` resident before and not after, with its
/// dirty bit from before.
fn dropped(
    cache: &mut PageCache,
    owners: &[Owner],
    purge: impl FnOnce(&mut PageCache),
) -> Vec<Evicted> {
    let resident = |cache: &PageCache| -> Vec<PageId> {
        let pages = |owner| cache.resident_of(owner).into_iter();
        let ids = owners
            .iter()
            .flat_map(|&owner| pages(owner).map(move |page| PageId { owner, page }));
        ids.collect()
    };
    let (before, dirty) = (resident(cache), cache.dirty_pages());
    purge(cache);
    let after = resident(cache);
    let mut out: Vec<Evicted> = before
        .into_iter()
        .filter(|id| !after.contains(id))
        .map(|id| Evicted {
            id,
            dirty: dirty.contains(&id),
        })
        .collect();
    out.sort_unstable_by_key(|e| e.id);
    out
}

fn run_case(g: &mut Gen, arch: CacheArch, total_pages: u64) {
    let mut cache = PageCache::new(arch, total_pages);
    let mut model = Model::new(arch, total_pages);
    let owners = owners();
    let pages: Vec<[u64; PAGES]> = owners.iter().map(|_| page_numbers(g)).collect();
    let steps = g.usize(1..1200);
    for step in 0..steps {
        let which = g.usize(0..owners.len());
        let owner = owners[which];
        let id = PageId {
            owner,
            page: g.select(&pages[which]),
        };
        // A roomy cache is never flushed: the flush would prune the sticky
        // stacks the roomy cases exist to bloat.
        let what = match g.u64(0..if total_pages < 10 { 103 } else { 100 }) {
            0..=44 => {
                let dirty = g.bool_with(0.3);
                assert_eq!(
                    cache.insert(id, dirty),
                    model.pool(owner).insert(id, dirty),
                    "victim of insert {id:?} at step {step}"
                );
                "insert"
            }
            45..=64 => {
                assert_eq!(cache.lookup_touch(id), model.pool(owner).touch(id, false));
                "lookup_touch"
            }
            65..=74 => {
                assert_eq!(cache.mark_dirty(id), model.pool(owner).touch(id, true));
                "mark_dirty"
            }
            75..=82 => {
                cache.clean(id);
                let pool = model.pool(owner);
                if let Some(at) = pool.position(id) {
                    pool.pages[at].dirty = false;
                }
                "clean"
            }
            83..=90 => {
                let pool = model.pool(owner);
                let at = pool.position(id);
                if let Some(at) = at {
                    pool.take(at);
                }
                assert_eq!(cache.remove(id), at.is_some());
                "remove"
            }
            91..=96 => {
                let want = model.pool(owner).purge(|o| o == owner);
                let got = dropped(&mut cache, &owners, |c| c.remove_owner(owner));
                assert_eq!(got, want, "step {step}");
                "remove_owner"
            }
            97..=99 => {
                // A run of touches on one owner, the way a scan or a probe
                // sweep makes them, leaves the cache remembering that owner.
                // The owner then empties (page by page or wholesale) and
                // refills at once, and a second owner moves in beside it:
                // whatever was remembered across the release now names a
                // record that is gone, or somebody else's.
                let held = model.resident_of(owner);
                for &page in &held {
                    let id = PageId { owner, page };
                    assert!(cache.lookup_touch(id) && model.pool(owner).touch(id, false));
                }
                if g.bool() {
                    let want = model.pool(owner).purge(|o| o == owner);
                    let got = dropped(&mut cache, &owners, |c| c.remove_owner(owner));
                    assert_eq!(got, want, "step {step}");
                } else {
                    for &page in &held {
                        let pool = model.pool(owner);
                        let at = pool.position(PageId { owner, page }).expect("listed");
                        pool.take(at);
                        assert!(cache.remove(PageId { owner, page }), "step {step}");
                    }
                }
                assert_eq!(cache.resident_of(owner), Vec::<u64>::new(), "step {step}");
                let other = owners[(which + g.usize(1..owners.len())) % owners.len()];
                for &page in held.iter().rev() {
                    // The second owner holds the same page numbers, so a
                    // lookup that lands in the wrong record finds a frame.
                    for id in [PageId { owner, page }, PageId { owner: other, page }] {
                        assert_eq!(
                            cache.insert(id, false),
                            model.pool(id.owner).insert(id, false),
                            "refill of {id:?} at step {step}"
                        );
                    }
                    let id = PageId { owner, page };
                    assert_eq!(cache.mark_dirty(id), model.pool(owner).touch(id, true));
                }
                for &page in &held {
                    let id = PageId { owner: other, page };
                    assert_eq!(cache.contains(id), model.pool(other).position(id).is_some());
                }
                "run_empty_and_refill"
            }
            _ => {
                let got = dropped(&mut cache, &owners, PageCache::drop_file_pages);
                assert_eq!(got, model.drop_file_pages(), "step {step}");
                "drop_file_pages"
            }
        };
        let at = format!("after {what} {id:?} at step {step}");
        let dirty = model.dirty_pages();
        assert_eq!(cache.dirty_pages(), dirty, "dirty_pages {at}");
        assert_eq!(cache.dirty_count(), dirty.len(), "dirty_count {at}");
        let resident: usize = model.pools.iter().map(|p| p.pages.len()).sum();
        assert_eq!(cache.resident_pages(), resident, "resident_pages {at}");
        for (&owner, pages) in owners.iter().zip(&pages) {
            assert_eq!(
                cache.resident_of(owner),
                model.resident_of(owner),
                "resident_of {owner:?} {at}"
            );
            let pool = model.pool(owner);
            let free = pool.capacity.saturating_sub(pool.pages.len()) as u64;
            assert_eq!(cache.free_pages_for(owner), free, "free_pages_for {at}");
            // The owner's own pages, and their neighbours in its table.
            for page in pages.iter().flat_map(|&p| [p, p + 1, p.saturating_sub(1)]) {
                let id = PageId { owner, page };
                assert_eq!(cache.contains(id), pool.position(id).is_some());
            }
        }
    }
}

#[test]
fn page_cache_matches_the_naive_reference() {
    check(
        "page_cache_matches_the_naive_reference",
        60,
        |g: &mut Gen| {
            // Mostly tiny, so eviction is constant; sometimes nearly as big
            // as the key space, so evictions are rare and the sticky stacks
            // fill with stale entries until they are compacted.
            let total_pages = if g.bool_with(0.25) {
                g.u64(20..30)
            } else {
                g.u64(2..9)
            };
            let file_cache_bytes = g.u64(0..total_pages + 2) * PAGE_SIZE;
            for arch in [
                CacheArch::Unified,
                CacheArch::SplitFixed { file_cache_bytes },
                CacheArch::UnifiedSticky,
            ] {
                run_case(g, arch, total_pages);
            }
        },
    );
}
