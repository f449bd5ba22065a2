//! The *gray toolbox*: common infrastructure for building gray-box
//! Information and Control Layers (ICLs).
//!
//! Section 5 of the paper ("Towards a Gray Toolbox") identifies three
//! families of tools that essentially every ICL needs:
//!
//! 1. **Microbenchmarks for configuration** — performance parameters of the
//!    underlying components, measured once and shared between ICLs through a
//!    common persistent repository ([`repository`]).
//! 2. **Measuring output** — low-overhead, high-resolution timers
//!    ([`time`]).
//! 3. **Interpreting measurements** — incremental statistics, correlation,
//!    exact two-way clustering (under [`split_fast_slow`], the one hit/miss
//!    rule FCCD and the disk microbenchmark share), outlier rejection, and
//!    sorting helpers ([`stats`], [`cluster`], [`outlier`]).
//!
//! Everything in this crate is OS-agnostic: it depends neither on the
//! simulated substrate nor on the host backend, so both can use it.
//!
//! The crate is also the workspace's *determinism substrate*: one seeded
//! generator ([`rng::StdRng`], xoshiro256++ expanded from a `u64` seed by
//! splitmix64, whose draws are its own methods) and a seeded
//! property-testing harness ([`prop`]) — both in-tree, so the workspace
//! builds and tests with zero external dependencies.
//!
//! It also hosts the event tracer ([`trace`]) and the virtual-time profiler
//! ([`profile`]). Both stay off until a capture arms them on the thread
//! that runs the code (a binary's flags, a test, a benchmark pass); the
//! crate reads no environment beyond [`prop`]'s `PROP_SEED` / `PROP_CASES`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod hash;
pub mod mailbox;
pub mod outlier;
pub mod pool;
pub mod profile;
pub mod prop;
pub mod repository;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use cluster::{split_fast_slow, two_means, Clustering, FastSlow};
pub use mailbox::{Envelope, Mailbox, MailboxClient, Ticket};
pub use outlier::{discard_outliers, mad, OutlierPolicy};
pub use pool::{JobPanic, Pool};
pub use profile::ProfileSnapshot;
pub use repository::{ParamRepository, RepositoryError};
pub use stats::{
    correlation, paired_sign_test, percentile, Ewma, Log2Histogram, OnlineStats, Summary,
};
pub use time::{Duration as GrayDuration, Nanos};
