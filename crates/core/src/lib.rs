//! Gray-box Information and Control Layers (ICLs).
//!
//! This crate is the primary contribution of the reproduced paper,
//! *Information and Control in Gray-Box Systems* (Arpaci-Dusseau &
//! Arpaci-Dusseau, SOSP 2001): a library of services that acquire
//! information about, and exert control over, an operating system **without
//! modifying it**, by combining *algorithmic knowledge* of how the OS
//! probably behaves with run-time *observations* — chiefly the timing of
//! carefully chosen probes.
//!
//! # The ICLs
//!
//! - [`fccd`] — the **File-Cache Content Detector**: infers which parts of
//!   which files are resident in the OS file cache by timing one-byte read
//!   probes, so applications can access cached data first.
//! - [`fldc`] — the **File Layout Detector and Controller**: infers the
//!   probable on-disk order of files from their i-numbers (FFS-style
//!   allocation knowledge) and *controls* layout by refreshing directories
//!   to a known state.
//! - [`mac`] — the **Memory-based Admission Controller**: infers the amount
//!   of currently available physical memory by timed page-touch probing and
//!   admits memory allocations only when they fit.
//! - [`wbd`] — the **Writeback/Dirty-page Detector** (this reproduction's
//!   extension of the methodology to the write path): infers the dirty
//!   residue and writeback progress from the cost of timed `sync` calls.
//!
//! # The gray-box OS surface
//!
//! All ICLs are generic over the [`os::GrayBoxOs`] trait, which captures the
//! *black-box* interface of a UNIX-like OS — `open`/`read`/`stat`/memory
//! allocation plus a high-resolution clock. Crucially, the trait exposes
//! **no** internal OS state: everything the ICLs learn, they learn by
//! probing through this interface and measuring. Two backends exist in this
//! workspace: `simos` (a deterministic simulated OS, used for the paper's
//! experiments and for this crate's own tests in `tests/`) and `hostos`
//! (the real OS underneath, via `std`).
//!
//! # Supporting modules
//!
//! - [`compose`] — FCCD and FLDC together: cached files first, each group
//!   in i-number order (paper Section 4.2.4).
//! - [`microbench`] — the configuration microbenchmarks that fill the
//!   shared parameter repository.
//! - [`technique`] — the paper's Table 2 taxonomy, per ICL.
//! - [`mock`] — a minimal in-memory backend kept only for two graybench
//!   rungs; no test outside its own module uses it.
//!
//! # Quick start
//!
//! ```no_run
//! use graybox::os::GrayBoxOs;
//! use graybox::fccd::{Fccd, FccdParams};
//!
//! fn fastest_first<O: GrayBoxOs>(os: &O, paths: &[String]) -> Vec<String> {
//!     let fccd = Fccd::new(os, FccdParams::default());
//!     fccd.order_files(paths)
//!         .into_iter()
//!         .map(|rank| rank.path)
//!         .collect()
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compose;
pub mod fccd;
pub mod fldc;
pub mod mac;
pub mod microbench;
pub mod mock;
pub mod os;
pub mod technique;
pub mod wbd;

pub use compose::ComposedOrderer;
pub use fccd::{Fccd, FccdParams};
pub use fldc::{Fldc, RefreshAdvisor, RefreshOrder};
pub use mac::{GbAlloc, Mac, MacParams};
pub use os::{GrayBoxOs, OsError, OsResult};
pub use technique::{Technique, TechniqueInventory};
pub use wbd::{Wbd, WbdCalibration, WbdParams};
