//! `simos` — a deterministic simulated operating system substrate.
//!
//! The reproduced paper infers OS state from the *timing* of syscalls on
//! real Linux/NetBSD/Solaris boxes. Timing on shared CI hardware is not
//! reproducible, so this crate provides the substitute substrate: a
//! discrete-event simulated UNIX with
//!
//! - a mechanical **disk model** ([`disk`]): seek, rotation, transfer, and
//!   per-disk FCFS queuing, with sequential-stream detection;
//! - an **FFS-like file system** ([`fs`]): cylinder groups, i-number
//!   allocation, near-inode block placement, directories in creation order,
//!   aging and refresh semantics;
//! - a **page/buffer cache** ([`cache`]) with three replacement
//!   personalities modelling the paper's platforms (Linux 2.2 unified
//!   clock-LRU, NetBSD 1.4 fixed-size file cache, Solaris 7 "sticky"
//!   scan-resistant segmap);
//! - a **virtual-memory subsystem** ([`vm`]): demand-zero allocation,
//!   copy-on-write reads, synchronous-reclaim swap on a dedicated disk;
//! - a **deterministic process executor** ([`exec`]): simulated processes
//!   are resumable coroutines driven by one event loop on one host
//!   thread; exactly one runs at a time and all time is virtual, so
//!   multi-process experiments are exactly repeatable;
//! - a virtual **clock with a seeded noise model** ([`clock`]), so the
//!   statistical machinery of the ICLs is genuinely exercised.
//!
//! Processes interact with the simulated kernel through
//! [`exec::SimProc`], which implements the `graybox::os::GrayBoxOs` trait —
//! the same black-box surface the real-OS backend implements. Ground truth
//! for scoring inferences (the equivalent of the paper's modified kernel
//! that dumped per-page presence bitmaps) is available *only* through
//! [`Sim::oracle`], which the ICLs never see.
//!
//! # Example
//!
//! ```
//! use simos::{Sim, SimConfig};
//! use graybox::os::{GrayBoxOs, GrayBoxOsExt};
//!
//! let mut sim = Sim::new(SimConfig::small());
//! let t = sim.run_one(|os| {
//!     os.write_file("/hello.txt", b"hi").unwrap();
//!     let t0 = os.now();
//!     let data = os.read_to_vec("/hello.txt").unwrap();
//!     assert_eq!(data, b"hi");
//!     os.now().since(t0)
//! });
//! assert!(t.as_nanos() > 0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod config;
mod coro;
pub mod disk;
pub mod exec;
mod free_set;
pub mod fs;
pub mod kernel;
pub mod oracle;
mod page_table;
pub mod scenario;
pub mod score;
pub mod vm;

pub use config::{
    CacheArch, CostParams, DiskParams, ExecBackend, FsParams, LayoutPolicy, NoiseParams, Platform,
    SimConfig, COSTS, PAGE_SIZE,
};
pub use exec::{ProcPanic, Sim, SimProc};
pub use oracle::Oracle;
