//! `covert` — the adversarial covert-channel subsystem.
//!
//! The reproduced paper's central claim is that hidden OS state leaks
//! through observable side effects. This crate turns that claim into an
//! adversarial experiment: one simulated process **transmits** a seeded
//! bit-string by steering shared-file page-cache and dirty-page state,
//! another **infers** it back with the gray-box detectors (FCCD for the
//! read-side cache channel, WBD for the write-side dirty-residue channel),
//! and a pluggable **defender** runs as a third process trying to degrade
//! the channel. All three are ordinary `simos` processes under the event
//! executor, so every run is bit-identical and the channel's capacity is a
//! deterministic, CI-gateable number.
//!
//! - [`channel`] — the time-slotted transmit/infer protocol and the
//!   per-cell runner ([`ChannelSpec::run`]);
//! - [`defender`] — the defender taxonomy (idle baseline, random-touch
//!   noise, eager flush);
//! - [`score`] — oracle join, bit-error rate, and entropy-discounted
//!   channel capacity in bits per virtual second;
//! - [`grid`] — the covert/defender scenario grid (platform × channel ×
//!   defender), pool-parallel and worker-count-invariant like the main
//!   scenario matrix.
//!
//! # Quick start
//!
//! ```
//! use covert::{ChannelKind, ChannelSpec, DefenderKind};
//! use simos::Platform;
//!
//! let score = ChannelSpec {
//!     index: 0,
//!     platform: Platform::LinuxLike,
//!     channel: ChannelKind::Fccd,
//!     defender: DefenderKind::Idle,
//!     bits: 8,
//!     seed: 7,
//! }
//! .run();
//! assert_eq!(score.errors, 0, "quiet channel is error-free");
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod defender;
pub mod grid;
pub mod score;

pub use channel::{message_bits, ChannelKind, ChannelSpec};
pub use defender::DefenderKind;
pub use grid::{grid_digest, run_grid, CovertGridConfig};
pub use score::{binary_entropy, join_errors, ChannelScore};
