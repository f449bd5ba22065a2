//! An FFS-like file system: cylinder groups, i-numbers, near-inode block
//! placement, directories in creation order.
//!
//! This is the substrate FLDC's gray-box knowledge is *about* (paper
//! Section 4.2.1):
//!
//! - the disk is divided into **cylinder groups**, each with an inode table
//!   and a data area;
//! - a file's inode is allocated in its **parent directory's group**, using
//!   the **lowest free i-number** — so, on a clean file system, creation
//!   order within a directory matches i-number order;
//! - a file's **first data block** is allocated first-fit from its group's
//!   data area and subsequent blocks extend contiguously when possible — so
//!   i-number order also matches data-block layout until deletions punch
//!   holes that later creations refill (aging);
//! - **directories** are spread across groups (most-free-inodes first), so
//!   a refreshed directory lands in a fresh group and regains contiguity.
//!
//! The `Fs` type is a pure state machine over metadata: every operation
//! records the metadata blocks it touched in an [`IoLog`] (directory blocks
//! and inode-table blocks, identified both by cacheable page and by disk
//! block), and the kernel charges cache hits or disk I/O accordingly. File
//! *content* is kept only for explicitly written data; bulk synthetic data
//! is a per-block fill marker, so simulating gigabyte files costs megabytes.
//!
//! The namespace is one small mechanism. A directory *is* its entry list:
//! a name is found by scanning it, and the position found is what the
//! directory reads are charged by. Every path is walked by one loop from
//! the root, over slices of the caller's path. Every namespace edit is all
//! or nothing: a directory grows before an entry joins it, a new inode
//! that cannot be linked is released, a rename whose target cannot grow
//! puts its entry back, and a directory never moves into its own subtree.
//! Each inode carries a generation, so a descriptor opened on a removed
//! file cannot read the next file given its i-number.

use gray_toolbox::hash::FastMap;
use gray_toolbox::Nanos;
use graybox::os::{OsError, OsResult};

use crate::config::PAGE_SIZE;
use crate::free_set::FreeSet;
use crate::page_table::PageTable;

/// An i-number.
pub type Ino = u64;

/// The root directory's i-number (as on real UNIX).
pub const ROOT_INO: Ino = 2;

/// Pseudo-i-number under which inode-table blocks are cached.
pub const ITABLE_INO: Ino = 1;

/// Inodes stored per on-disk block (128-byte inodes in 4 KB blocks).
pub const INODES_PER_BLOCK: u64 = 32;

/// A name's position in its directory's entry list, and the i-number it
/// names.
type Entry = (usize, Ino);

/// Directory entries per block: 32-byte entries (name + i-number),
/// FFS-flavored.
const DIRENTS_PER_BLOCK: u64 = PAGE_SIZE / 32;

/// One metadata block access: the cacheable identity and the disk block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaAccess {
    /// I-number the cache page belongs to ([`ITABLE_INO`] for inode-table
    /// blocks, the directory's ino for directory blocks).
    pub ino: Ino,
    /// Page index within that owner.
    pub page: u64,
    /// Backing disk block.
    pub disk_block: u64,
}

/// The metadata I/O a file-system operation performed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoLog {
    /// Blocks that were read.
    pub reads: Vec<MetaAccess>,
    /// Blocks that were dirtied.
    pub writes: Vec<MetaAccess>,
}

/// What the data blocks hold, by disk block. A block is in at most one of
/// the two tables, and reads as zeros when it is in neither.
#[derive(Debug)]
struct Content {
    /// Synthetic fill: every byte of the block equals the pattern. Patterns
    /// are never 0, so 0 is "no fill" and bulk data costs one byte a block.
    fill: PageTable<u8>,
    /// Explicitly written bytes; rare next to fill.
    data: FastMap<u64, Box<[u8]>>,
}

impl Content {
    fn new() -> Self {
        Content {
            fill: PageTable::new(0),
            data: FastMap::default(),
        }
    }

    /// Replaces what `block` held with fill `pattern`; 0 leaves it empty.
    fn set_fill(&mut self, block: u64, pattern: u8) {
        if self.fill.set(block, pattern) == 0 && !self.data.is_empty() {
            self.data.remove(&block);
        }
    }

    /// Moves what `from` held to the empty block `to`.
    fn relocate(&mut self, from: u64, to: u64) {
        match self.fill.set(from, 0) {
            0 => {
                if let Some(bytes) = self.data.remove(&from) {
                    self.data.insert(to, bytes);
                }
            }
            pattern => {
                self.fill.set(to, pattern);
            }
        }
    }
}

/// An in-core inode.
#[derive(Debug, Clone)]
pub struct Inode {
    /// Tells this inode from the earlier ones on its i-number (32 bits,
    /// as FFS's `di_gen`): a descriptor opened on an earlier one is stale.
    pub generation: u32,
    /// File size in bytes (0 for directories; their size is derived from
    /// the entry count).
    pub size: u64,
    /// Data blocks, one per page, in page order.
    pub blocks: Vec<u64>,
    /// Last access time.
    pub atime: Nanos,
    /// Last modification time.
    pub mtime: Nanos,
    /// Directory entries in creation order (`None` for regular files).
    /// A name is found by its position here, which is also what
    /// `log_dir_read` charges for finding it.
    pub entries: Option<Vec<(String, Ino)>>,
    /// Home cylinder group.
    pub group: usize,
}

impl Inode {
    /// Whether this is a directory.
    pub fn is_dir(&self) -> bool {
        self.entries.is_some()
    }
}

/// One cylinder group.
#[derive(Debug, Clone)]
struct Group {
    /// Free i-numbers in this group.
    free_inos: FreeSet,
    /// Free data blocks (global disk block numbers).
    free_blocks: FreeSet,
    /// First disk block of the inode table.
    itable_start: u64,
    /// Allocation rotor: the search for a free block starts here and
    /// wraps, as in FFS. The rotor is what makes aging *decorrelate*
    /// i-numbers from layout: freed holes are not refilled until the
    /// rotor comes back around, so files recreated after deletions get
    /// blocks far from their (reused, low) i-numbers.
    rotor: u64,
}

/// The cylinder groups and the data-block allocator over them, apart from
/// the inodes so that a file grows with its inode in hand.
#[derive(Debug, Clone)]
struct Space {
    groups: Vec<Group>,
    /// Exactly the groups with a free data block (DESIGN.md §19).
    spacious: FreeSet,
    /// LFS log head: the group index the log is currently writing into
    /// (the per-group rotor supplies the position within the group).
    log_group: usize,
    layout: crate::config::LayoutPolicy,
    /// Blocks per group, inode table included.
    span: u64,
}

/// The file system over one disk.
#[derive(Debug)]
pub struct Fs {
    params: crate::config::FsParams,
    dev: u32,
    space: Space,
    inodes: FastMap<Ino, Inode>,
    content: Content,
    io: IoLog,
    next_fill: u8,
    /// Inodes made so far, wrapping: the next one's generation.
    made: u32,
}

/// The names in a `/`-separated path; doubled and trailing slashes name
/// nothing.
fn components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty())
}

impl Space {
    fn group_of_block(&self, block: u64) -> usize {
        (block / self.span) as usize
    }

    /// A free data block for a file whose home is `group`: `near` (for
    /// contiguity) if it is free in `group`; else, in the first group with
    /// space at or after `group` (wrapping), the first free block at or
    /// after that group's rotor (wrapping to the start of its data area).
    ///
    /// Under [`crate::config::LayoutPolicy::Lfs`], all of that is ignored:
    /// every block comes from the global log head, so temporal write
    /// order *is* spatial order.
    fn alloc_data_block(&mut self, group: usize, near: Option<u64>) -> OsResult<u64> {
        if self.layout == crate::config::LayoutPolicy::Lfs {
            return self.alloc_log_block();
        }
        if let Some(want) = near.filter(|&b| self.group_of_block(b) == group) {
            if self.take(group, want) {
                return Ok(want);
            }
        }
        let spacious = &self.spacious;
        let gi = spacious
            .first_from(group as u64)
            .or_else(|| spacious.first());
        let gi = gi.ok_or(OsError::NoSpace)? as usize;
        Ok(self.take_at_rotor(gi, true).expect("a group with space"))
    }

    /// LFS: the next block at the log head, advancing through groups and
    /// wrapping (a trivial "cleaner": freed blocks become allocatable once
    /// the head wraps back around to them).
    fn alloc_log_block(&mut self) -> OsResult<u64> {
        if let Some(b) = self.take_at_rotor(self.log_group, false) {
            return Ok(b);
        }
        // The head's own group comes round last, and wraps only then.
        let spacious = &self.spacious;
        let next = spacious.first_from(self.log_group as u64 + 1);
        let gi = next.or_else(|| spacious.first()).ok_or(OsError::NoSpace)? as usize;
        self.log_group = gi;
        Ok(self.take_at_rotor(gi, true).expect("a group with space"))
    }

    /// Rotor search in group `gi`: takes the first free block at or after
    /// the rotor, or with `wrap` the first of the group, and moves the
    /// rotor past it.
    fn take_at_rotor(&mut self, gi: usize, wrap: bool) -> Option<u64> {
        let free = &self.groups[gi].free_blocks;
        let from_rotor = free.first_from(self.groups[gi].rotor);
        let b = from_rotor.or_else(|| free.first().filter(|_| wrap))?;
        self.take(gi, b);
        self.groups[gi].rotor = b + 1;
        Some(b)
    }

    /// Takes `block` from group `gi`; `false` if it was not free there.
    fn take(&mut self, gi: usize, block: u64) -> bool {
        let free = &mut self.groups[gi].free_blocks;
        let took = free.take(block);
        if took && free.len() == 0 {
            self.spacious.take(gi as u64);
        }
        took
    }

    /// Gives back `blocks`, each held and none twice, by extent: each
    /// maximal run of consecutive blocks within one group is one range
    /// insert, and `spacious` hears of a group once per stretch of runs
    /// in it.
    fn free(&mut self, blocks: &[u64]) {
        let mut last_group = None;
        let span = self.span;
        for run in blocks.chunk_by(|&a, &b| b == a + 1 && b % span != 0) {
            let (start, len) = (run[0], run.len() as u64);
            let g = self.group_of_block(start);
            let added = self.groups[g].free_blocks.insert_range(start, start + len);
            debug_assert_eq!(added, len, "a block freed twice in {run:?}");
            if last_group != Some(g) {
                self.spacious.insert(g as u64);
                last_group = Some(g);
            }
        }
    }
}

impl Fs {
    /// Creates an empty file system covering `disk_blocks` blocks of device
    /// `dev`.
    pub fn new(params: crate::config::FsParams, dev: u32, disk_blocks: u64) -> Self {
        let itable_blocks = params.inodes_per_group.div_ceil(INODES_PER_BLOCK);
        let group_span = itable_blocks + params.blocks_per_group;
        let n_groups = (disk_blocks / group_span).max(1) as usize;
        let mut groups = Vec::with_capacity(n_groups);
        for g in 0..n_groups as u64 {
            let base = g * group_span;
            let itable_start = base;
            let data_start = base + itable_blocks;
            let data_end = (data_start + params.blocks_per_group).min(disk_blocks);
            let first_ino = g * params.inodes_per_group;
            groups.push(Group {
                free_inos: FreeSet::new(first_ino, first_ino + params.inodes_per_group),
                free_blocks: FreeSet::new(data_start, data_end),
                itable_start,
                rotor: data_start,
            });
        }
        // Every group has the same data area, or none has one.
        let with_space = groups.iter().filter(|g| g.free_blocks.len() > 0).count();
        let mut fs = Fs {
            params,
            dev,
            space: Space {
                groups,
                spacious: FreeSet::new(0, with_space as u64),
                log_group: 0,
                layout: params.layout,
                span: group_span,
            },
            inodes: FastMap::default(),
            content: Content::new(),
            io: IoLog::default(),
            next_fill: 1,
            made: 0,
        };
        // Materialize the root directory. I-numbers 0..=2 are reserved;
        // claim them from group 0.
        for reserved in 0..=ROOT_INO {
            fs.space.groups[0].free_inos.take(reserved);
        }
        fs.new_inode(ROOT_INO, 0, true, Nanos::ZERO);
        fs
    }

    /// The device index this file system lives on.
    pub fn dev(&self) -> u32 {
        self.dev
    }

    /// Takes (and clears) the metadata I/O log of the operations performed
    /// since the last take.
    pub fn take_io(&mut self) -> IoLog {
        std::mem::take(&mut self.io)
    }

    /// Hands back a log [`Fs::take_io`] returned, to log into (emptied).
    pub fn return_io(&mut self, io: IoLog) {
        debug_assert_eq!(self.io, IoLog::default(), "logged while taken");
        self.io = io;
        self.discard_io();
    }

    /// Forgets the metadata I/O logged since the last take.
    pub fn discard_io(&mut self) {
        self.io.reads.clear();
        self.io.writes.clear();
    }

    /// Looks at an inode (oracle/tests; does not log I/O).
    pub fn inode(&self, ino: Ino) -> Option<&Inode> {
        self.inodes.get(&ino)
    }

    /// Number of cylinder groups.
    pub fn group_count(&self) -> usize {
        self.space.groups.len()
    }

    // --- Metadata I/O accounting ----------------------------------------

    /// The disk block holding `ino`'s on-disk inode.
    fn inode_disk_block(&self, ino: Ino) -> u64 {
        let g = (ino / self.params.inodes_per_group) as usize;
        let idx_in_group = ino % self.params.inodes_per_group;
        self.space.groups[g].itable_start + idx_in_group / INODES_PER_BLOCK
    }

    fn log_inode_read(&mut self, ino: Ino) {
        let disk_block = self.inode_disk_block(ino);
        // Inode-table blocks are cached under the pseudo-file, paged by
        // their disk block so distinct groups do not collide.
        self.io.reads.push(MetaAccess {
            ino: ITABLE_INO,
            page: disk_block,
            disk_block,
        });
    }

    fn log_inode_write(&mut self, ino: Ino) {
        let disk_block = self.inode_disk_block(ino);
        self.io.writes.push(MetaAccess {
            ino: ITABLE_INO,
            page: disk_block,
            disk_block,
        });
    }

    /// Directory blocks holding entries `[0, upto)`.
    fn log_dir_read(&mut self, dir: Ino, upto_entry: usize) {
        let nblocks = (upto_entry as u64).div_ceil(DIRENTS_PER_BLOCK).max(1);
        let dir_inode = &self.inodes[&dir];
        for page in 0..nblocks {
            let disk_block = match dir_inode.blocks.get(page as usize) {
                Some(&b) => b,
                None => break,
            };
            self.io.reads.push(MetaAccess {
                ino: dir,
                page,
                disk_block,
            });
        }
    }

    fn log_dir_write(&mut self, dir: Ino, entry_index: usize) {
        let page = entry_index as u64 / DIRENTS_PER_BLOCK;
        if let Some(&disk_block) = self.inodes[&dir].blocks.get(page as usize) {
            self.io.writes.push(MetaAccess {
                ino: dir,
                page,
                disk_block,
            });
        }
    }

    /// Gives directory `dir` the blocks `n` entries need (at least one).
    /// Entries arrive one at a time and blocks are never given back, so
    /// at most one block is ever missing.
    fn grow_dir(&mut self, dir: Ino, n: usize) -> OsResult<()> {
        let inode = self.inodes.get_mut(&dir).expect("a directory");
        if inode.blocks.len() as u64 >= (n as u64).div_ceil(DIRENTS_PER_BLOCK).max(1) {
            return Ok(());
        }
        let near = inode.blocks.last().map(|b| b + 1);
        let block = self.space.alloc_data_block(inode.group, near)?;
        inode.blocks.push(block);
        Ok(())
    }

    // --- Allocation ------------------------------------------------------

    /// Lowest free i-number, preferring `group` then scanning onward.
    fn alloc_ino(&mut self, group: usize) -> OsResult<(Ino, usize)> {
        let n = self.space.groups.len();
        for off in 0..n {
            let g = (group + off) % n;
            if let Some(ino) = self.space.groups[g].free_inos.first() {
                self.space.groups[g].free_inos.take(ino);
                return Ok((ino, g));
            }
        }
        Err(OsError::NoSpace)
    }

    /// LFS: an overwrite relocates the block to the log head. Returns the
    /// new disk block (the old one is freed; its content moves).
    pub fn relocate_block(&mut self, ino: Ino, page: u64) -> OsResult<u64> {
        debug_assert_eq!(self.params.layout, crate::config::LayoutPolicy::Lfs);
        let old = {
            let inode = self.inodes.get(&ino).ok_or(OsError::NotFound)?;
            *inode
                .blocks
                .get(page as usize)
                .ok_or(OsError::InvalidArgument)?
        };
        let new = self.space.alloc_log_block()?;
        self.content.relocate(old, new);
        self.free_data_blocks(&[old]);
        let inode = self.inodes.get_mut(&ino).expect("checked above");
        inode.blocks[page as usize] = new;
        self.log_inode_write(ino);
        Ok(new)
    }

    /// The active layout policy.
    pub fn layout(&self) -> crate::config::LayoutPolicy {
        self.params.layout
    }

    /// Frees data blocks that are held, none twice, and empties them.
    fn free_data_blocks(&mut self, blocks: &[u64]) {
        self.space.free(blocks);
        for &block in blocks {
            self.content.set_fill(block, 0);
        }
    }

    /// Drops an inode no directory names any more: its blocks and its
    /// i-number become free again.
    fn release_inode(&mut self, ino: Ino) {
        let inode = self.inodes.remove(&ino).expect("present");
        self.free_data_blocks(&inode.blocks);
        let g = (ino / self.params.inodes_per_group) as usize;
        self.space.groups[g].free_inos.insert(ino);
    }

    /// The group with the most free i-numbers (FFS spreads directories).
    fn emptiest_group(&self) -> usize {
        self.space
            .groups
            .iter()
            .enumerate()
            .max_by_key(|(i, g)| (g.free_inos.len(), usize::MAX - i))
            .map(|(i, _)| i)
            .expect("at least one group")
    }

    // --- Path walking ----------------------------------------------------

    /// The position and i-number of `name` in directory `dir`, if it is
    /// there: a scan of the entry list, as FFS scans the directory's
    /// blocks.
    fn find(&self, dir: Ino, name: &str) -> OsResult<Option<Entry>> {
        let entries = self.inodes[&dir].entries.as_ref();
        let entries = entries.ok_or(OsError::NotADirectory)?;
        let pos = entries.iter().position(|(n, _)| n == name);
        Ok(pos.map(|pos| (pos, entries[pos].1)))
    }

    /// Walks the names in `dirs` down from the root, logging for each the
    /// directory blocks scanned to reach it and the inode it names.
    fn walk(&mut self, dirs: &str) -> OsResult<Ino> {
        let mut cur = ROOT_INO;
        for name in components(dirs) {
            let (pos, next) = self.find(cur, name)?.ok_or(OsError::NotFound)?;
            self.log_dir_read(cur, pos + 1);
            self.log_inode_read(next);
            cur = next;
        }
        Ok(cur)
    }

    /// Resolves a path to an i-number, logging the directory and inode
    /// reads the walk performs.
    pub fn resolve(&mut self, path: &str) -> OsResult<Ino> {
        self.walk(path.strip_prefix('/').ok_or(OsError::InvalidArgument)?)
    }

    /// Walks to the directory holding `path`'s last name. Returns the
    /// directory, the name, and the name's position and i-number if the
    /// directory has it.
    fn locate<'p>(&mut self, path: &'p str) -> OsResult<(Ino, &'p str, Option<Entry>)> {
        let rest = path.strip_prefix('/').ok_or(OsError::InvalidArgument)?;
        let rest = rest.trim_end_matches('/');
        let (dirs, name) = rest.rsplit_once('/').unwrap_or(("", rest));
        if name.is_empty() {
            return Err(OsError::InvalidArgument);
        }
        let dir = self.walk(dirs)?;
        Ok((dir, name, self.find(dir, name)?))
    }

    // --- Namespace operations ---------------------------------------------

    /// Gives i-number `ino`, in `group`, a fresh inode: an empty directory
    /// or regular file made at `now`, of the file system's next generation.
    fn new_inode(&mut self, ino: Ino, group: usize, dir: bool, now: Nanos) {
        self.made = self.made.wrapping_add(1);
        let inode = Inode {
            generation: self.made,
            size: 0,
            blocks: Vec::new(),
            atime: now,
            mtime: now,
            entries: dir.then(Vec::new),
            group,
        };
        self.inodes.insert(ino, inode);
    }

    /// Enters `ino` into directory `dir` as `name`, returning the entry's
    /// position. The directory grows first, so if it cannot, nothing has
    /// changed.
    fn link(&mut self, dir: Ino, name: &str, ino: Ino, now: Nanos) -> OsResult<usize> {
        let pos = self.inodes[&dir].entries.as_ref().map_or(0, Vec::len);
        self.grow_dir(dir, pos + 1)?;
        self.edit(dir, now).push((name.to_string(), ino));
        Ok(pos)
    }

    /// Directory `dir`'s entries, to edit at `now` (its new mtime).
    fn edit(&mut self, dir: Ino, now: Nanos) -> &mut Vec<(String, Ino)> {
        let inode = self.inodes.get_mut(&dir).expect("a directory");
        inode.mtime = now;
        inode.entries.as_mut().expect("a directory")
    }

    /// Makes a regular file, or with `dir` a directory and its first
    /// block, and links it into its parent. All or nothing: if a block
    /// cannot be had, the inode is released again. Returns the parent,
    /// the i-number and the entry's position.
    fn make(&mut self, path: &str, dir: bool, now: Nanos) -> OsResult<(Ino, Ino, usize)> {
        let (parent, name, found) = self.locate(path)?;
        if found.is_some() {
            return Err(OsError::AlreadyExists);
        }
        // A file lives in its directory's group; directories spread.
        let home = self.inodes[&parent].group;
        let (ino, group) = self.alloc_ino(if dir { self.emptiest_group() } else { home })?;
        self.new_inode(ino, group, dir, now);
        let made = if dir { self.grow_dir(ino, 0) } else { Ok(()) };
        let linked = made.and_then(|()| self.link(parent, name, ino, now));
        let pos = linked.inspect_err(|_| self.release_inode(ino))?;
        Ok((parent, ino, pos))
    }

    /// Creates a regular file; fails if the path exists.
    pub fn create(&mut self, path: &str, now: Nanos) -> OsResult<Ino> {
        let (dir, ino, pos) = self.make(path, false, now)?;
        self.log_dir_write(dir, pos);
        self.log_inode_write(ino);
        self.log_inode_write(dir);
        Ok(ino)
    }

    /// Creates a directory (placed in the emptiest group).
    pub fn mkdir(&mut self, path: &str, now: Nanos) -> OsResult<Ino> {
        let (dir, ino, pos) = self.make(path, true, now)?;
        self.log_dir_write(dir, pos);
        self.log_inode_write(ino);
        Ok(ino)
    }

    /// Lists a directory's names in creation (directory) order.
    pub fn list_dir(&mut self, path: &str) -> OsResult<Vec<String>> {
        let ino = self.resolve(path)?;
        let names: Vec<String> = match &self.inodes[&ino].entries {
            Some(entries) => entries.iter().map(|(n, _)| n.clone()).collect(),
            None => return Err(OsError::NotADirectory),
        };
        self.log_dir_read(ino, names.len());
        Ok(names)
    }

    /// Takes `path`'s entry out of its directory if `removable` accepts
    /// the inode it names, and releases that inode; later entries move up
    /// one. Returns the i-number.
    fn remove(
        &mut self,
        path: &str,
        now: Nanos,
        removable: impl FnOnce(&Inode) -> OsResult<()>,
    ) -> OsResult<Ino> {
        let (dir, _, found) = self.locate(path)?;
        let (pos, ino) = found.ok_or(OsError::NotFound)?;
        removable(&self.inodes[&ino])?;
        self.edit(dir, now).remove(pos);
        self.release_inode(ino);
        self.log_dir_write(dir, pos);
        Ok(ino)
    }

    /// Unlinks a regular file, freeing its inode and blocks. Returns its
    /// i-number so the kernel can purge cached pages.
    pub fn unlink(&mut self, path: &str, now: Nanos) -> OsResult<Ino> {
        let ino = self.remove(path, now, |inode| match inode.is_dir() {
            true => Err(OsError::IsADirectory),
            false => Ok(()),
        })?;
        self.log_inode_write(ino);
        Ok(ino)
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str, now: Nanos) -> OsResult<Ino> {
        self.remove(path, now, |inode| match &inode.entries {
            None => Err(OsError::NotADirectory),
            Some(entries) if !entries.is_empty() => Err(OsError::NotEmpty),
            Some(_) => Ok(()),
        })
    }

    /// Renames a file or directory. Layout (inode, blocks) is untouched —
    /// only the directory entry moves, to the end of the target directory,
    /// matching UNIX `rename(2)`. All or nothing: if the target directory
    /// cannot grow, the entry goes back where it was. A directory cannot
    /// move into its own subtree (`InvalidArgument`, before any walk).
    pub fn rename(&mut self, from: &str, to: &str, now: Nanos) -> OsResult<()> {
        let mut below = components(to);
        if components(from).all(|c| below.next() == Some(c)) && below.next().is_some() {
            return Err(OsError::InvalidArgument);
        }
        let (fdir, _, found) = self.locate(from)?;
        let (fpos, ino) = found.ok_or(OsError::NotFound)?;
        let (tdir, tname, found) = self.locate(to)?;
        if found.is_some() {
            return Err(OsError::AlreadyExists);
        }
        // Out of the source first: within one directory the count then
        // stays what it was, and the directory never grows.
        let mtime = self.inodes[&fdir].mtime;
        let entry = self.edit(fdir, now).remove(fpos);
        match self.link(tdir, tname, ino, now) {
            Ok(tpos) => {
                self.log_dir_write(fdir, fpos);
                self.log_dir_write(tdir, tpos);
                Ok(())
            }
            Err(e) => {
                self.edit(fdir, mtime).insert(fpos, entry);
                Err(e)
            }
        }
    }

    /// Sets access/modification times.
    pub fn set_times(&mut self, path: &str, atime: Nanos, mtime: Nanos) -> OsResult<()> {
        let ino = self.resolve(path)?;
        let inode = self.inodes.get_mut(&ino).ok_or(OsError::NotFound)?;
        inode.atime = atime;
        inode.mtime = mtime;
        self.log_inode_write(ino);
        Ok(())
    }

    // --- Data paths --------------------------------------------------------

    /// The data block backing `page` of `ino`, if allocated.
    pub fn block_of(&self, ino: Ino, page: u64) -> Option<u64> {
        self.inodes
            .get(&ino)
            .and_then(|i| i.blocks.get(page as usize))
            .copied()
    }

    /// Allocates (if needed) the data block for `page` of `ino`, extending
    /// the file. Intervening holes are allocated too (no sparse files).
    pub fn ensure_block(&mut self, ino: Ino, page: u64) -> OsResult<u64> {
        let inode = self.inodes.get_mut(&ino).ok_or(OsError::NotFound)?;
        if let Some(&b) = inode.blocks.get(page as usize) {
            return Ok(b);
        }
        let had = inode.blocks.len();
        while inode.blocks.len() as u64 <= page {
            let near = inode.blocks.last().map(|b| b + 1);
            match self.space.alloc_data_block(inode.group, near) {
                Ok(b) => inode.blocks.push(b),
                Err(e) => {
                    // The extension is all or nothing: give back what
                    // this call took before the disk ran out.
                    let taken = inode.blocks.split_off(had);
                    self.free_data_blocks(&taken);
                    return Err(e);
                }
            }
        }
        let block = inode.blocks[page as usize];
        self.log_inode_write(ino);
        Ok(block)
    }

    /// Updates file size and mtime after a write.
    pub fn note_write(&mut self, ino: Ino, end_offset: u64, now: Nanos) -> OsResult<()> {
        let inode = self.inodes.get_mut(&ino).ok_or(OsError::NotFound)?;
        if end_offset > inode.size {
            inode.size = end_offset;
        }
        inode.mtime = now;
        self.log_inode_write(ino);
        Ok(())
    }

    /// Updates atime after a read.
    pub fn note_read(&mut self, ino: Ino, now: Nanos) -> OsResult<()> {
        let inode = self.inodes.get_mut(&ino).ok_or(OsError::NotFound)?;
        inode.atime = now;
        Ok(())
    }

    /// Copies stored content of `disk_block` into `buf` (which must be
    /// positioned at `offset` within the block).
    pub fn read_content(&self, disk_block: u64, offset: u64, buf: &mut [u8]) {
        match self.content.fill.get(disk_block) {
            0 => match self.content.data.get(&disk_block) {
                Some(data) => {
                    let start = offset as usize;
                    let end = (start + buf.len()).min(data.len());
                    if start < end {
                        buf[..end - start].copy_from_slice(&data[start..end]);
                    }
                    if end - start < buf.len() {
                        for b in &mut buf[end - start..] {
                            *b = 0;
                        }
                    }
                }
                None => buf.fill(0),
            },
            pattern => buf.fill(pattern),
        }
    }

    /// Stores written bytes into `disk_block` at `offset`.
    pub fn write_content(&mut self, disk_block: u64, offset: u64, data: &[u8]) {
        let block_size = PAGE_SIZE as usize;
        // A filled block becomes real bytes of its pattern first.
        let pattern = self.content.fill.set(disk_block, 0);
        let bytes = self
            .content
            .data
            .entry(disk_block)
            .or_insert_with(|| vec![pattern; block_size].into_boxed_slice());
        let start = offset as usize;
        let end = (start + data.len()).min(block_size);
        bytes[start..end].copy_from_slice(&data[..end - start]);
    }

    /// Marks `disk_block` as synthetic fill (cheap bulk data).
    pub fn fill_content(&mut self, disk_block: u64) {
        let pattern = self.next_fill;
        self.next_fill = self.next_fill.wrapping_add(1).max(1);
        self.content.set_fill(disk_block, pattern);
    }

    /// Free space in bytes.
    pub fn free_bytes(&self) -> u64 {
        let free_blocks = self.space.groups.iter().map(|g| g.free_blocks.len());
        free_blocks.sum::<u64>() * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use gray_toolbox::prop::{check, Gen};

    use super::*;
    use crate::config::{FsParams, LayoutPolicy};

    fn fs() -> Fs {
        // 2 groups of (32 itable + 4096 data) blocks.
        Fs::new(FsParams::default(), 0, 2 * (32 + 4096))
    }

    #[test]
    fn root_exists_and_reserved_inos_are_claimed() {
        let mut f = fs();
        assert_eq!(f.resolve("/").unwrap(), ROOT_INO);
        let ino = f.create("/a", Nanos::ZERO).unwrap();
        assert!(ino > ROOT_INO, "reserved i-numbers must not be reused");
    }

    #[test]
    fn creation_order_matches_inumber_order() {
        let mut f = fs();
        let a = f.create("/a", Nanos::ZERO).unwrap();
        let b = f.create("/b", Nanos::ZERO).unwrap();
        let c = f.create("/c", Nanos::ZERO).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn fresh_files_get_contiguous_blocks() {
        let mut f = fs();
        let a = f.create("/a", Nanos::ZERO).unwrap();
        for page in 0..4 {
            f.ensure_block(a, page).unwrap();
        }
        let blocks = &f.inode(a).unwrap().blocks;
        for w in blocks.windows(2) {
            assert_eq!(w[1], w[0] + 1, "blocks must be contiguous: {blocks:?}");
        }
    }

    #[test]
    fn consecutive_small_files_are_laid_out_in_order() {
        let mut f = fs();
        let mut last_block = 0;
        for i in 0..10 {
            let ino = f.create(&format!("/f{i}"), Nanos::ZERO).unwrap();
            let b = f.ensure_block(ino, 0).unwrap();
            assert!(b > last_block || last_block == 0, "layout order broken");
            last_block = b;
        }
    }

    #[test]
    fn deletion_and_recreation_decorrelates_layout() {
        let mut f = fs();
        let mut blocks = Vec::new();
        for i in 0..10 {
            let ino = f.create(&format!("/f{i}"), Nanos::ZERO).unwrap();
            f.ensure_block(ino, 0).unwrap();
            blocks.push(f.inode(ino).unwrap().blocks[0]);
        }
        // Delete an early file; a new file reuses its low i-number, but
        // the rotor places its data *after* the latest allocations — the
        // i-number/layout correlation breaks (FFS aging).
        f.unlink("/f2", Nanos::ZERO).unwrap();
        let ino_new = f.create("/fnew", Nanos::ZERO).unwrap();
        let b_new = f.ensure_block(ino_new, 0).unwrap();
        assert!(
            b_new > *blocks.last().unwrap(),
            "rotor must not immediately refill the hole: {b_new} vs {blocks:?}"
        );
    }

    #[test]
    fn directories_spread_to_emptiest_group() {
        let mut f = fs();
        f.mkdir("/d1", Nanos::ZERO).unwrap();
        let d1 = f.resolve("/d1").unwrap();
        // Group 0 hosts root + d1's entry load; a fresh directory should
        // land in group 1 (more free inodes).
        assert_eq!(f.inode(d1).unwrap().group, 1);
    }

    #[test]
    fn files_follow_their_directory_group() {
        let mut f = fs();
        f.mkdir("/d", Nanos::ZERO).unwrap();
        let d = f.resolve("/d").unwrap();
        let file = f.create("/d/x", Nanos::ZERO).unwrap();
        assert_eq!(f.inode(file).unwrap().group, f.inode(d).unwrap().group);
    }

    #[test]
    fn list_dir_is_creation_order() {
        let mut f = fs();
        for name in ["z", "a", "m"] {
            f.create(&format!("/{name}"), Nanos::ZERO).unwrap();
        }
        assert_eq!(f.list_dir("/").unwrap(), vec!["z", "a", "m"]);
    }

    #[test]
    fn unlink_frees_ino_and_blocks() {
        let mut f = fs();
        let a = f.create("/a", Nanos::ZERO).unwrap();
        let block = f.ensure_block(a, 0).unwrap();
        f.write_content(block, 0, b"data");
        f.unlink("/a", Nanos::ZERO).unwrap();
        assert!(f.resolve("/a").is_err());
        // The freed i-number is reused by the next creation.
        let b = f.create("/b", Nanos::ZERO).unwrap();
        assert_eq!(a, b);
        // Content of the freed block is gone.
        let mut buf = [1u8; 4];
        f.read_content(block, 0, &mut buf);
        assert_eq!(buf, [0u8; 4]);
    }

    #[test]
    fn rename_preserves_ino_and_blocks() {
        let mut f = fs();
        let a = f.create("/a", Nanos::ZERO).unwrap();
        let block = f.ensure_block(a, 0).unwrap();
        f.rename("/a", "/b", Nanos::ZERO).unwrap();
        assert_eq!(f.resolve("/b").unwrap(), a);
        assert_eq!(f.block_of(a, 0), Some(block));
        assert!(f.resolve("/a").is_err());
    }

    #[test]
    fn a_directory_cannot_move_into_its_own_subtree() {
        let mut f = fs();
        f.mkdir("/a", Nanos::ZERO).unwrap();
        f.mkdir("/a/b", Nanos::ZERO).unwrap();
        f.take_io();
        for to in ["/a/c", "/a/b/c", "/a/b", "//a//c/"] {
            let moved = f.rename("/a", to, Nanos::ZERO);
            assert_eq!(moved, Err(OsError::InvalidArgument), "rename to {to}");
            assert_eq!(f.take_io(), IoLog::default(), "refused before any walk");
        }
        assert_eq!(f.list_dir("/").unwrap(), ["a"]);
        assert_eq!(f.list_dir("/a").unwrap(), ["b"]);
        // A name that only starts like the source is not below it.
        f.rename("/a", "/ab", Nanos::ZERO).unwrap();
        f.rename("/ab/b", "/b", Nanos::ZERO).unwrap();
        assert_eq!(f.list_dir("/").unwrap(), ["ab", "b"]);
    }

    #[test]
    fn rmdir_rejects_nonempty() {
        let mut f = fs();
        f.mkdir("/d", Nanos::ZERO).unwrap();
        f.create("/d/x", Nanos::ZERO).unwrap();
        assert_eq!(f.rmdir("/d", Nanos::ZERO), Err(OsError::NotEmpty));
        f.unlink("/d/x", Nanos::ZERO).unwrap();
        f.rmdir("/d", Nanos::ZERO).unwrap();
        assert!(f.resolve("/d").is_err());
    }

    #[test]
    fn content_round_trips_partial_writes() {
        let mut f = fs();
        let a = f.create("/a", Nanos::ZERO).unwrap();
        let block = f.ensure_block(a, 0).unwrap();
        f.write_content(block, 10, b"hello");
        let mut buf = [0u8; 5];
        f.read_content(block, 10, &mut buf);
        assert_eq!(&buf, b"hello");
        let mut head = [9u8; 10];
        f.read_content(block, 0, &mut head);
        assert_eq!(head, [0u8; 10]);
    }

    #[test]
    fn fill_then_partial_write_preserves_pattern() {
        let mut f = fs();
        let a = f.create("/a", Nanos::ZERO).unwrap();
        let block = f.ensure_block(a, 0).unwrap();
        f.fill_content(block);
        let mut before = [0u8; 2];
        f.read_content(block, 100, &mut before);
        f.write_content(block, 0, b"X");
        let mut buf = [0u8; 2];
        f.read_content(block, 100, &mut buf);
        assert_eq!(buf, before, "fill must survive an unrelated write");
        let mut x = [0u8; 1];
        f.read_content(block, 0, &mut x);
        assert_eq!(&x, b"X");
    }

    /// What `block` reads as, and which of the two content tables hold it.
    fn content_of(f: &Fs, block: u64) -> ([u8; 6], bool, bool) {
        let mut buf = [0xee; 6];
        f.read_content(block, 2, &mut buf);
        let filled = f.content.fill.get(block) != 0;
        (buf, filled, f.content.data.contains_key(&block))
    }

    #[test]
    fn content_follows_a_block_through_fill_overwrite_free_and_reuse() {
        let mut f = tiny();
        let a = f.create("/a", Nanos::ZERO).unwrap();
        let block = f.ensure_block(a, 0).unwrap();
        assert_eq!(content_of(&f, block), ([0; 6], false, false));
        f.fill_content(block);
        let (was, ..) = content_of(&f, block);
        let p = was[0];
        assert_eq!(content_of(&f, block), ([p; 6], true, false));
        assert_ne!(p, 0, "a fill pattern of 0 would read as no content");
        // A partial overwrite turns the fill into bytes of its pattern.
        f.write_content(block, 4, b"xy");
        assert_eq!(
            content_of(&f, block),
            ([p, p, b'x', b'y', p, p], false, true)
        );
        // Filling again replaces the bytes; writing again starts from it.
        f.fill_content(block);
        let q = p.wrapping_add(1).max(1);
        assert_eq!(content_of(&f, block), ([q; 6], true, false));
        f.write_content(block, 2, b"z");
        assert_eq!(content_of(&f, block), ([b'z', q, q, q, q, q], false, true));
        // Freed, the block holds nothing, in either table ...
        f.unlink("/a", Nanos::ZERO).unwrap();
        assert_eq!(content_of(&f, block), ([0; 6], false, false));
        // ... and still nothing when the rotor comes back round to it.
        let b = f.create("/b", Nanos::ZERO).unwrap();
        let page = (0..8)
            .find(|&page| f.ensure_block(b, page).unwrap() == block)
            .expect("seven free blocks, one of them the freed one");
        assert_eq!(f.block_of(b, page), Some(block));
        assert_eq!(content_of(&f, block), ([0; 6], false, false));
        f.write_content(block, 3, b"w");
        assert_eq!(content_of(&f, block), ([0, b'w', 0, 0, 0, 0], false, true));
        // A filled block freed and refilled carries only the new pattern.
        let other = f.block_of(b, 0).unwrap();
        f.fill_content(other);
        f.unlink("/b", Nanos::ZERO).unwrap();
        assert_eq!(content_of(&f, other), ([0; 6], false, false));
        assert_eq!(content_of(&f, block), ([0; 6], false, false));
    }

    #[test]
    fn relocation_carries_content_to_the_new_block() {
        let params = FsParams {
            layout: crate::config::LayoutPolicy::Lfs,
            ..FsParams::default()
        };
        let mut f = Fs::new(params, 0, 32 + 4096);
        let a = f.create("/a", Nanos::ZERO).unwrap();
        let (filled, written) = (f.ensure_block(a, 0).unwrap(), f.ensure_block(a, 1).unwrap());
        f.fill_content(filled);
        f.write_content(written, 2, b"data");
        let before = (content_of(&f, filled), content_of(&f, written));
        let moved = (
            f.relocate_block(a, 0).unwrap(),
            f.relocate_block(a, 1).unwrap(),
        );
        assert!(moved.0 != filled && moved.1 != written);
        assert_eq!((content_of(&f, moved.0), content_of(&f, moved.1)), before);
        assert_eq!(content_of(&f, filled), ([0; 6], false, false));
        assert_eq!(content_of(&f, written), ([0; 6], false, false));
    }

    #[test]
    fn resolve_logs_metadata_reads() {
        let mut f = fs();
        f.mkdir("/d", Nanos::ZERO).unwrap();
        f.create("/d/x", Nanos::ZERO).unwrap();
        f.take_io();
        f.resolve("/d/x").unwrap();
        let io = f.take_io();
        assert!(
            io.reads.iter().any(|m| m.ino == ITABLE_INO),
            "inode reads must be logged: {io:?}"
        );
        assert!(
            io.reads.iter().any(|m| m.ino != ITABLE_INO),
            "directory reads must be logged: {io:?}"
        );
    }

    #[test]
    fn adjacent_inodes_share_an_itable_block() {
        let mut f = fs();
        let a = f.create("/a", Nanos::ZERO).unwrap();
        let b = f.create("/b", Nanos::ZERO).unwrap();
        assert_eq!(
            f.inode_disk_block(a),
            f.inode_disk_block(b),
            "32 inodes per block means consecutive files share one"
        );
    }

    /// One group of 8 data blocks and 32 i-numbers.
    fn tiny() -> Fs {
        let params = FsParams {
            blocks_per_group: 8,
            inodes_per_group: 32,
            ..FsParams::default()
        };
        Fs::new(params, 0, 9)
    }

    #[test]
    fn no_space_is_reported() {
        let mut f = tiny();
        let a = f.create("/a", Nanos::ZERO).unwrap();
        let mut page = 0;
        let err = loop {
            match f.ensure_block(a, page) {
                Ok(_) => page += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, OsError::NoSpace);
    }

    #[test]
    fn failed_extension_gives_its_blocks_back() {
        let mut f = tiny();
        let a = f.create("/a", Nanos::ZERO).unwrap(); // Root takes a block.
        f.ensure_block(a, 2).unwrap();
        let free = f.free_bytes();
        assert_eq!(free, 4 * 4096);
        // Five more blocks do not fit in four; none of the four may leak.
        assert_eq!(f.ensure_block(a, 7), Err(OsError::NoSpace));
        assert_eq!(f.free_bytes(), free);
        assert_eq!(f.inode(a).unwrap().blocks.len(), 3);
        // A smaller extension then succeeds, and takes the disk's last block.
        f.ensure_block(a, 6).unwrap();
        assert_eq!(f.free_bytes(), 0);
        f.unlink("/a", Nanos::ZERO).unwrap();
        assert_eq!(f.free_bytes(), 7 * 4096);
    }

    #[test]
    fn failed_mkdir_and_create_leave_no_trace() {
        // 8 i-table + 8 data blocks: i-numbers to spare, blocks not.
        let params = FsParams {
            blocks_per_group: 8,
            inodes_per_group: 256,
            ..FsParams::default()
        };
        let mut f = Fs::new(params, 0, 16);
        let a = f.create("/a", Nanos::ZERO).unwrap();
        f.ensure_block(a, 6).unwrap();
        assert_eq!(f.free_bytes(), 0);
        // The new directory's own first block cannot be had.
        assert_eq!(f.mkdir("/d", Nanos::ZERO), Err(OsError::NoSpace));
        assert!(f.resolve("/d").is_err());
        assert_eq!(f.create("/f1", Nanos::ZERO).unwrap(), a + 1);

        // Fill root's only block (128 entries), then make one block free.
        for i in 2..128 {
            f.create(&format!("/f{i}"), Nanos::ZERO).unwrap();
        }
        f.unlink("/a", Nanos::ZERO).unwrap();
        let b = f.create("/b", Nanos::ZERO).unwrap();
        f.ensure_block(b, 5).unwrap();
        let before = (f.free_bytes(), f.space.groups[0].free_inos.len());
        assert_eq!(before.0, 4096);
        // The directory gets its block, but root cannot grow to name it.
        assert_eq!(f.mkdir("/d", Nanos::ZERO), Err(OsError::NoSpace));
        assert_eq!((f.free_bytes(), f.space.groups[0].free_inos.len()), before);
        f.ensure_block(b, 6).unwrap();
        // No block at all: a file cannot be entered either.
        assert_eq!(f.create("/x", Nanos::ZERO), Err(OsError::NoSpace));
        assert_eq!(f.space.groups[0].free_inos.len(), before.1);
        assert!(f.resolve("/d").is_err() && f.resolve("/x").is_err());
        assert_eq!(f.list_dir("/").unwrap().len(), 128);
        // With an entry to spare both succeed, on the lowest i-numbers.
        f.unlink("/f127", Nanos::ZERO).unwrap();
        assert_eq!(f.create("/x", Nanos::ZERO).unwrap(), a + 127);
        f.unlink("/b", Nanos::ZERO).unwrap();
        assert_eq!(f.mkdir("/d", Nanos::ZERO).unwrap(), a);
    }

    #[test]
    fn ensure_block_fills_holes_densely() {
        let mut f = fs();
        let a = f.create("/a", Nanos::ZERO).unwrap();
        f.ensure_block(a, 3).unwrap();
        assert_eq!(f.inode(a).unwrap().blocks.len(), 4);
    }

    #[test]
    fn free_bytes_decreases_on_allocation() {
        let mut f = fs();
        let before = f.free_bytes();
        let a = f.create("/a", Nanos::ZERO).unwrap();
        f.ensure_block(a, 0).unwrap();
        assert!(f.free_bytes() < before);
    }

    /// The allocator before `spacious`, kept as the definition of where a
    /// block goes: under LFS the log head; otherwise `near` if it is free
    /// in the home group, else a walk over every group cyclically from the
    /// home group, skipping full ones, to the first free block at or after
    /// the rotor of the first group with one. Takes the block.
    fn walk(space: &mut Space, group: usize, near: Option<u64>) -> OsResult<u64> {
        let n = space.groups.len();
        if space.layout == LayoutPolicy::Lfs {
            for off in 0..=n {
                let gi = (space.log_group + off) % n;
                let g = &mut space.groups[gi];
                let found = g.free_blocks.first_from(g.rotor).or_else(|| {
                    // Wrap within the group only when moving to it fresh.
                    if off > 0 {
                        g.free_blocks.first()
                    } else {
                        None
                    }
                });
                if let Some(b) = found {
                    g.free_blocks.take(b);
                    g.rotor = b + 1;
                    space.log_group = gi;
                    return Ok(b);
                }
            }
            return Err(OsError::NoSpace);
        }
        if let Some(want) = near {
            if space.groups[group].free_blocks.take(want) {
                return Ok(want);
            }
        }
        for off in 0..n {
            let g = &mut space.groups[(group + off) % n];
            if g.free_blocks.len() == 0 {
                continue;
            }
            let found = g
                .free_blocks
                .first_from(g.rotor)
                .or_else(|| g.free_blocks.first());
            if let Some(b) = found {
                g.free_blocks.take(b);
                g.rotor = b + 1;
                return Ok(b);
            }
        }
        Err(OsError::NoSpace)
    }

    /// Gives `block` back in the reference, as `release_inode` does.
    fn give_back(reference: &mut Space, block: u64) {
        let g = reference.group_of_block(block);
        assert!(reference.groups[g].free_blocks.insert(block));
    }

    /// Has the reference walk pick the blocks `ino` holds beyond its first
    /// `had`, in order, and checks that it picks the same ones.
    fn replay_growth(reference: &mut Space, f: &Fs, ino: Ino, had: usize) {
        let inode = f.inode(ino).expect("live inode");
        for i in had..inode.blocks.len() {
            let near = i.checked_sub(1).map(|j| inode.blocks[j] + 1);
            let want = walk(reference, inode.group, near);
            assert_eq!(Ok(inode.blocks[i]), want, "block {i} of inode {ino}");
        }
    }

    fn block_count(f: &Fs, ino: Ino) -> usize {
        f.inode(ino).expect("live inode").blocks.len()
    }

    /// Random create / extend / unlink / rename (and, under LFS, overwrite)
    /// sequences on a small multi-group file system, against a copy of its
    /// groups that allocates by the cyclic walk. After every operation the
    /// free blocks, rotors and log head agree with the walk's, and
    /// `spacious` holds exactly the groups with a free block. CI runs this
    /// with `PROP_CASES=500`.
    #[test]
    fn allocator_matches_the_group_walk() {
        check("allocator_model", 60, |g: &mut Gen| {
            let layout = g.select(&[LayoutPolicy::Ffs, LayoutPolicy::Lfs]);
            let params = FsParams {
                layout,
                blocks_per_group: g.u64(3..12),
                inodes_per_group: 32,
            };
            // One i-table block a group, and sometimes a partial group's
            // worth of blocks left over at the end of the disk.
            let groups = g.u64(2..6);
            let disk = groups * (1 + params.blocks_per_group) + g.u64(0..3);
            let mut f = Fs::new(params, 0, disk);
            let mut reference = f.space.clone();
            // Directories land in the emptiest group, and their files follow.
            let mut dirs = vec![String::new()];
            for d in 0..g.usize(0..3) {
                let root_had = block_count(&f, ROOT_INO);
                let ino = f.mkdir(&format!("/d{d}"), Nanos::ZERO).unwrap();
                replay_growth(&mut reference, &f, ino, 0);
                replay_growth(&mut reference, &f, ROOT_INO, root_had);
                dirs.push(format!("/d{d}"));
            }
            let mut files: Vec<(String, Ino)> = Vec::new();
            for step in 0..g.usize(1..150) {
                let pick = if files.is_empty() { 0 } else { g.usize(0..10) };
                match pick {
                    0..=2 => {
                        let dir = g.select(&dirs);
                        let dino = f.resolve(if dir.is_empty() { "/" } else { &dir }).unwrap();
                        let had = block_count(&f, dino);
                        let path = format!("{dir}/f{step}");
                        match f.create(&path, Nanos::ZERO) {
                            Ok(ino) => files.push((path, ino)),
                            Err(e) => assert_eq!(e, OsError::NoSpace, "create {path}"),
                        }
                        replay_growth(&mut reference, &f, dino, had);
                    }
                    3..=6 => {
                        let ino = files[g.usize(0..files.len())].1;
                        let had = block_count(&f, ino);
                        // Now and then a page the file already has.
                        let page = (had as u64 + g.u64(0..4)).saturating_sub(1);
                        match f.ensure_block(ino, page) {
                            Ok(_) => replay_growth(&mut reference, &f, ino, had),
                            Err(e) => {
                                assert_eq!(e, OsError::NoSpace);
                                assert_eq!(block_count(&f, ino), had, "all or nothing");
                                // The walk takes every free block before
                                // it runs out, and the file gives them back.
                                let inode = f.inode(ino).unwrap();
                                let mut near = inode.blocks.last().map(|b| b + 1);
                                let mut taken = Vec::new();
                                while let Ok(b) = walk(&mut reference, inode.group, near) {
                                    taken.push(b);
                                    near = Some(b + 1);
                                }
                                for b in taken.into_iter().rev() {
                                    give_back(&mut reference, b);
                                }
                            }
                        }
                    }
                    7 => {
                        let (path, ino) = files.swap_remove(g.usize(0..files.len()));
                        let blocks = f.inode(ino).unwrap().blocks.clone();
                        f.unlink(&path, Nanos::ZERO).unwrap();
                        for b in blocks.into_iter().rev() {
                            give_back(&mut reference, b);
                        }
                    }
                    8 => {
                        let i = g.usize(0..files.len());
                        let dir = g.select(&dirs);
                        let tdir = f.resolve(if dir.is_empty() { "/" } else { &dir }).unwrap();
                        let had = block_count(&f, tdir);
                        let to = format!("{dir}/r{step}");
                        match f.rename(&files[i].0, &to, Nanos::ZERO) {
                            Ok(()) => files[i].0 = to,
                            Err(e) => {
                                // The target directory could not grow;
                                // the file is no longer worth following.
                                assert_eq!(e, OsError::NoSpace, "rename to {to}");
                                files.swap_remove(i);
                            }
                        }
                        replay_growth(&mut reference, &f, tdir, had);
                    }
                    _ => {
                        let ino = files[g.usize(0..files.len())].1;
                        let had = block_count(&f, ino);
                        if layout == LayoutPolicy::Lfs && had > 0 {
                            // An overwrite moves the page to the log head.
                            let page = g.u64(0..had as u64);
                            let old = f.block_of(ino, page).unwrap();
                            match f.relocate_block(ino, page) {
                                Ok(new) => {
                                    assert_eq!(walk(&mut reference, 0, None), Ok(new));
                                    give_back(&mut reference, old);
                                }
                                Err(e) => assert_eq!(e, OsError::NoSpace),
                            }
                        }
                    }
                }
                let (got, want) = (&f.space, &reference);
                for (gi, (a, b)) in got.groups.iter().zip(&want.groups).enumerate() {
                    assert_eq!(a.free_blocks, b.free_blocks, "group {gi}, step {step}");
                    assert_eq!(a.rotor, b.rotor, "rotor of group {gi}, step {step}");
                }
                assert_eq!(got.log_group, want.log_group, "log head, step {step}");
                let with_space: Vec<u64> = (0..got.groups.len() as u64)
                    .filter(|&gi| got.groups[gi as usize].free_blocks.len() > 0)
                    .collect();
                let spacious: Vec<u64> = (0..got.groups.len() as u64)
                    .filter(|&gi| got.spacious.first_from(gi) == Some(gi))
                    .collect();
                assert_eq!(spacious, with_space, "spacious, step {step}");
                assert_eq!(got.spacious.len(), with_space.len() as u64);
            }
        });
    }

    /// The namespace as the model sees it: a directory is its entries, in
    /// creation order, each a name and what it names.
    #[derive(Debug)]
    struct Node {
        /// What the file system said on creation.
        ino: Ino,
        generation: u32,
        /// Data blocks held; a directory's never shrink.
        blocks: u64,
        entries: Option<Vec<(String, Node)>>,
    }

    /// The model tree and its free counts.
    struct Model {
        root: Node,
        free_blocks: u64,
        free_inos: u64,
    }

    impl Model {
        /// The node at `path` (which exists).
        fn node(&self, path: &[String]) -> &Node {
            let mut cur = &self.root;
            for name in path {
                let entries = cur.entries.as_ref().expect("a directory");
                cur = &entries.iter().find(|(n, _)| n == name).expect("present").1;
            }
            cur
        }

        fn node_mut(&mut self, path: &[String]) -> &mut Node {
            let mut cur = &mut self.root;
            for name in path {
                let entries = cur.entries.as_mut().expect("a directory");
                cur = &mut entries
                    .iter_mut()
                    .find(|(n, _)| n == name)
                    .expect("present")
                    .1;
            }
            cur
        }

        /// The directory `dirs` names, with the errors a walk meets.
        fn dir(&self, dirs: &[String]) -> OsResult<&Node> {
            let mut cur = &self.root;
            for name in dirs {
                let entries = cur.entries.as_ref().ok_or(OsError::NotADirectory)?;
                let found = entries.iter().find(|(n, _)| n == name);
                cur = &found.ok_or(OsError::NotFound)?.1;
            }
            cur.entries.as_ref().ok_or(OsError::NotADirectory)?;
            Ok(cur)
        }

        fn pos(dir: &Node, name: &str) -> Option<usize> {
            let entries = dir.entries.as_ref().expect("a directory");
            entries.iter().position(|(n, _)| n == name)
        }

        /// Whether one more entry in `dir` needs another block.
        fn grows(dir: &Node) -> bool {
            let n = dir.entries.as_ref().expect("a directory").len() as u64 + 1;
            dir.blocks < n.div_ceil(DIRENTS_PER_BLOCK).max(1)
        }

        /// Appends `node` to directory `dirs`, which takes a block if it
        /// needs one.
        fn append(&mut self, dirs: &[String], name: &str, node: Node) -> &mut Node {
            let grow = u64::from(Self::grows(self.node(dirs)));
            self.free_blocks -= grow;
            let dir = self.node_mut(dirs);
            dir.blocks += grow;
            let entries = dir.entries.as_mut().expect("a directory");
            entries.push((name.to_string(), node));
            &mut entries.last_mut().expect("just pushed").1
        }

        /// `create`, or with `dir` `mkdir`; the caller fills in the
        /// i-number and generation.
        fn make(&mut self, path: &[String], dir: bool) -> OsResult<&mut Node> {
            let (name, dirs) = path.split_last().expect("a name");
            let parent = self.dir(dirs)?;
            if Self::pos(parent, name).is_some() {
                return Err(OsError::AlreadyExists);
            }
            let blocks = u64::from(dir);
            if self.free_inos == 0 || self.free_blocks < blocks + u64::from(Self::grows(parent)) {
                return Err(OsError::NoSpace);
            }
            self.free_inos -= 1;
            self.free_blocks -= blocks;
            let entries = dir.then(Vec::new);
            let node = Node {
                ino: 0,
                generation: 0,
                blocks,
                entries,
            };
            Ok(self.append(dirs, name, node))
        }

        /// `unlink`, or with `dir` `rmdir`.
        fn remove(&mut self, path: &[String], dir: bool) -> OsResult<()> {
            let (name, dirs) = path.split_last().expect("a name");
            let parent = self.dir(dirs)?;
            let pos = Self::pos(parent, name).ok_or(OsError::NotFound)?;
            match (
                &parent.entries.as_ref().expect("a directory")[pos].1.entries,
                dir,
            ) {
                (Some(_), false) => return Err(OsError::IsADirectory),
                (None, true) => return Err(OsError::NotADirectory),
                (Some(entries), true) if !entries.is_empty() => return Err(OsError::NotEmpty),
                _ => {}
            }
            let entries = self.node_mut(dirs).entries.as_mut().expect("a directory");
            self.free_blocks += entries.remove(pos).1.blocks;
            self.free_inos += 1;
            Ok(())
        }

        fn rename(&mut self, from: &[String], to: &[String]) -> OsResult<()> {
            if to.len() > from.len() && to.starts_with(from) {
                return Err(OsError::InvalidArgument);
            }
            let (fname, fdirs) = from.split_last().expect("a name");
            let fpos = Self::pos(self.dir(fdirs)?, fname).ok_or(OsError::NotFound)?;
            let (tname, tdirs) = to.split_last().expect("a name");
            let tdir = self.dir(tdirs)?;
            if Self::pos(tdir, tname).is_some() {
                return Err(OsError::AlreadyExists);
            }
            if fdirs != tdirs && Self::grows(tdir) && self.free_blocks == 0 {
                return Err(OsError::NoSpace);
            }
            let entries = self.node_mut(fdirs).entries.as_mut().expect("a directory");
            let (_, node) = entries.remove(fpos);
            self.append(tdirs, tname, node);
            Ok(())
        }

        /// `ensure_block(page)` on the file at `path`: all or nothing.
        fn grow(&mut self, path: &[String], page: u64) -> OsResult<()> {
            let need = (page + 1).saturating_sub(self.node(path).blocks);
            if need > self.free_blocks {
                return Err(OsError::NoSpace);
            }
            self.free_blocks -= need;
            self.node_mut(path).blocks += need;
            Ok(())
        }

        /// Every path in the tree, directories first flagged.
        fn paths(&self) -> Vec<(Vec<String>, bool)> {
            let mut out = Vec::new();
            let mut stack = vec![(Vec::new(), &self.root)];
            while let Some((path, node)) = stack.pop() {
                for (name, child) in node.entries.iter().flatten() {
                    let mut p: Vec<String> = path.clone();
                    p.push(name.clone());
                    out.push((p.clone(), child.entries.is_some()));
                    stack.push((p, child));
                }
            }
            out
        }
    }

    /// Checks `f` against the model: every directory lists the model's
    /// names in order, naming the same inodes of the same kind,
    /// generation and size; every allocated i-number is reachable from
    /// the root exactly once; and every data block is free or held by
    /// exactly one reachable inode.
    fn check_tree(f: &Fs, model: &Model, data_area: u64, step: usize) {
        let mut seen = HashSet::new();
        let mut held = HashSet::new();
        let mut stack = vec![(ROOT_INO, &model.root)];
        while let Some((ino, node)) = stack.pop() {
            assert!(
                seen.insert(ino),
                "i-number {ino} reached twice, step {step}"
            );
            let inode = &f.inodes[&ino];
            let got = (inode.generation, inode.blocks.len() as u64);
            assert_eq!(
                got,
                (node.generation, node.blocks),
                "inode {ino}, step {step}"
            );
            for &b in &inode.blocks {
                assert!(held.insert(b), "block {b} held twice, step {step}");
            }
            match (&inode.entries, &node.entries) {
                (None, None) => {}
                (Some(got), Some(want)) => {
                    let got_names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
                    let want_names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
                    assert_eq!(got_names, want_names, "directory {ino}, step {step}");
                    for ((_, child), (_, node)) in got.iter().zip(want) {
                        assert_eq!(*child, node.ino, "entry of directory {ino}, step {step}");
                        stack.push((*child, node));
                    }
                }
                _ => panic!("inode {ino} is of another kind, step {step}"),
            }
        }
        let live: HashSet<Ino> = f.inodes.keys().copied().collect();
        assert_eq!(live, seen, "allocated but unreachable, step {step}");
        let groups = &f.space.groups;
        let is_free = |set: &FreeSet, x: u64| set.first_from(x) == Some(x);
        let ipg = f.params.inodes_per_group;
        for &ino in &live {
            assert!(
                !is_free(&groups[(ino / ipg) as usize].free_inos, ino),
                "{ino} step {step}"
            );
        }
        let free_inos: u64 = groups.iter().map(|g| g.free_inos.len()).sum();
        // I-numbers 0 and 1 are reserved.
        assert_eq!(free_inos + live.len() as u64 + 2, groups.len() as u64 * ipg);
        assert_eq!(free_inos, model.free_inos, "free i-numbers, step {step}");
        for &b in &held {
            let g = f.space.group_of_block(b);
            assert!(
                !is_free(&groups[g].free_blocks, b),
                "block {b} free, step {step}"
            );
        }
        let free_blocks: u64 = groups.iter().map(|g| g.free_blocks.len()).sum();
        assert_eq!(
            free_blocks + held.len() as u64,
            data_area,
            "blocks, step {step}"
        );
        assert_eq!(free_blocks, model.free_blocks, "free blocks, step {step}");
    }

    fn path_str(path: &[String]) -> String {
        path.iter().map(|n| format!("/{n}")).collect()
    }

    /// Random create / mkdir / unlink / rmdir / rename / extend sequences
    /// on a small multi-group file system, FFS or LFS, against a model
    /// tree. Paths are drawn from the tree and a few names, so they also
    /// run into files, missing names, existing names and, for a rename,
    /// the source's own subtree; a directory often starts with one full
    /// block of entries, and the disk runs out. After every operation its
    /// result is the model's and [`check_tree`] holds. CI runs this with
    /// `PROP_CASES=500`.
    #[test]
    fn namespace_stays_a_tree() {
        check("namespace_model", 60, |g: &mut Gen| {
            let params = FsParams {
                layout: g.select(&[LayoutPolicy::Ffs, LayoutPolicy::Lfs]),
                blocks_per_group: g.u64(2..10),
                inodes_per_group: 64,
            };
            let groups = g.u64(3..5);
            let f = &mut Fs::new(params, 0, groups * (2 + params.blocks_per_group));
            let data_area = f.free_bytes() / PAGE_SIZE;
            let root = Node {
                ino: ROOT_INO,
                generation: f.inodes[&ROOT_INO].generation,
                blocks: 0,
                entries: Some(Vec::new()),
            };
            let free_inos = groups * params.inodes_per_group - 3;
            let model = &mut Model {
                root,
                free_blocks: data_area,
                free_inos,
            };
            let mut last_generation = model.root.generation;
            let now = Nanos::ZERO;
            let mut made = |f: &mut Fs, model: &mut Model, path: &[String], dir: bool| {
                let p = path_str(path);
                let got = if dir {
                    f.mkdir(&p, now)
                } else {
                    f.create(&p, now)
                };
                match (model.make(path, dir), got) {
                    (Ok(node), Ok(ino)) => {
                        let generation = f.inodes[&ino].generation;
                        assert!(generation > last_generation, "{p}: a new generation");
                        last_generation = generation;
                        (node.ino, node.generation) = (ino, generation);
                    }
                    (want, got) => assert_eq!(got.map(|_| ()), want.map(|_| ()), "make {p}"),
                }
            };
            let full = vec!["full".to_string()];
            if g.bool() {
                // One full block of entries ...
                made(f, model, &full, true);
                for i in 0..DIRENTS_PER_BLOCK {
                    made(f, model, &[full[0].clone(), format!("f{i}")], false);
                }
            }
            if g.bool() {
                // ... and a disk with no block to spare.
                let big = vec!["big".to_string()];
                made(f, model, &big, false);
                let last = model.free_blocks.saturating_sub(1);
                let ino = f.resolve("/big").unwrap();
                assert_eq!(
                    f.ensure_block(ino, last).map(|_| ()),
                    model.grow(&big, last)
                );
            }
            let names = ["a", "b", "c", "full"].map(String::from);
            for step in 0..g.usize(1..120) {
                let paths = model.paths();
                let mut dirs: Vec<&[String]> = vec![&[]];
                dirs.extend(paths.iter().filter(|p| p.1).map(|p| p.0.as_slice()));
                // A directory of the tree, and in it one of its entries
                // or a name that may not exist; now and then, below a
                // file instead.
                let pick = |g: &mut Gen| {
                    let mut path = g.select(&dirs).to_vec();
                    if g.bool_with(0.1) && !paths.is_empty() {
                        path = g.select(&paths).0;
                    }
                    let in_path =
                        |p: &&Vec<String>| p.len() == path.len() + 1 && p.starts_with(&path);
                    let entries: Vec<&Vec<String>> =
                        paths.iter().map(|p| &p.0).filter(in_path).collect();
                    if g.bool() && !entries.is_empty() {
                        return g.select(&entries).clone();
                    }
                    path.push(g.select(&names));
                    path
                };
                // A name, often new, in a directory of the tree (often the
                // full one) or below a file.
                let fresh = |g: &mut Gen| {
                    let mut path = match g.bool_with(0.2) {
                        true => full.clone(),
                        false => g.select(&dirs).to_vec(),
                    };
                    if g.bool_with(0.1) && !paths.is_empty() {
                        path = g.select(&paths).0;
                    }
                    path.push(g.select(&names));
                    path
                };
                match g.usize(0..12) {
                    0..=1 => made(f, model, &fresh(g), false),
                    2..=3 => made(f, model, &fresh(g), true),
                    4..=5 => {
                        let (path, dir) = (pick(g), g.bool());
                        let p = path_str(&path);
                        let got = if dir {
                            f.rmdir(&p, now)
                        } else {
                            f.unlink(&p, now)
                        };
                        assert_eq!(got.map(|_| ()), model.remove(&path, dir), "remove {p}");
                    }
                    6..=8 => {
                        let (from, to) = (pick(g), fresh(g));
                        let (pf, pt) = (path_str(&from), path_str(&to));
                        let got = f.rename(&pf, &pt, now);
                        assert_eq!(got, model.rename(&from, &to), "rename {pf} to {pt}");
                    }
                    _ => {
                        let files: Vec<&Vec<String>> =
                            paths.iter().filter(|p| !p.1).map(|p| &p.0).collect();
                        if files.is_empty() {
                            continue;
                        }
                        let path = g.select(&files).clone();
                        let p = path_str(&path);
                        // Now and then a page the file already has.
                        let page = (model.node(&path).blocks + g.u64(0..6)).saturating_sub(1);
                        let ino = f.resolve(&p).expect("a file of the tree");
                        let got = f.ensure_block(ino, page).map(|_| ());
                        assert_eq!(got, model.grow(&path, page), "grow {p}");
                    }
                }
                f.take_io();
                check_tree(f, model, data_area, step);
            }
        });
    }
}
