//! Ground-truth inspection of the simulated OS.
//!
//! The paper scored FCCD's inferences by *modifying the Linux kernel* to
//! return a bitmap of presence bits per page of a file (their footnote: "if
//! this interface existed across all platforms, we would not require a
//! gray-box FCCD!"). The `Oracle` is this reproduction's equivalent: it
//! reads simulator internals for tests and experiment scoring. ICL code
//! never receives an `Oracle` — everything the ICLs know arrives through
//! the `GrayBoxOs` trait.

use std::rc::Rc;

use graybox::os::OsResult;

use crate::cache::Owner;
use crate::config::PAGE_SIZE;
use crate::kernel::KernelStats;

/// Ground-truth accessor for a [`crate::Sim`]. Obtain via
/// [`crate::Sim::oracle`].
pub struct Oracle {
    shared: Rc<super::exec::SharedHandle>,
}

impl Oracle {
    pub(crate) fn new(shared: Rc<super::exec::SharedHandle>) -> Self {
        Oracle { shared }
    }

    /// Presence bitmap for each page of the file at `path` (the paper's
    /// modified-kernel interface).
    pub fn file_presence(&self, path: &str) -> OsResult<Vec<bool>> {
        self.shared.with_kernel(|k| {
            let (dev, ino) = k.oracle_resolve(path)?;
            let size = k.fs(dev).inode(ino).map(|i| i.size).unwrap_or(0);
            let pages = size.div_ceil(PAGE_SIZE);
            let resident = k.cache().resident_of(Owner::File {
                dev: dev as u32,
                ino,
            });
            let mut bitmap = vec![false; pages as usize];
            for p in resident {
                if (p as usize) < bitmap.len() {
                    bitmap[p as usize] = true;
                }
            }
            Ok(bitmap)
        })
    }

    /// Fraction of the file's pages that are resident.
    pub fn cached_fraction(&self, path: &str) -> OsResult<f64> {
        let bitmap = self.file_presence(path)?;
        if bitmap.is_empty() {
            return Ok(0.0);
        }
        Ok(bitmap.iter().filter(|&&b| b).count() as f64 / bitmap.len() as f64)
    }

    /// Total dirty pages in the cache (file and anonymous).
    pub fn dirty_pages(&self) -> usize {
        self.shared.with_kernel(|k| k.cache().dirty_count())
    }

    /// The disk blocks backing the file, in page order.
    pub fn file_blocks(&self, path: &str) -> OsResult<Vec<u64>> {
        self.shared.with_kernel(|k| {
            let (dev, ino) = k.oracle_resolve(path)?;
            Ok(k.fs(dev)
                .inode(ino)
                .map(|i| i.blocks.clone())
                .unwrap_or_default())
        })
    }

    /// Total resident pages (file + anonymous).
    pub fn resident_pages(&self) -> usize {
        self.shared.with_kernel(|k| k.cache().resident_pages())
    }

    /// Usable physical pages.
    pub fn total_pages(&self) -> u64 {
        self.shared.with_kernel(|k| k.config().usable_pages())
    }

    /// Kernel event counters.
    pub fn stats(&self) -> KernelStats {
        self.shared.with_kernel(|k| k.stats())
    }

    /// Swap slots in use.
    pub fn swap_slots_in_use(&self) -> u64 {
        self.shared.with_kernel(|k| k.vm().slots_in_use())
    }
}
