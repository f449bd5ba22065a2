//! Applications from the paper's evaluation, generic over any
//! [`graybox::os::GrayBoxOs`] backend.
//!
//! - [`scan`] — single-file and multi-file scans, linear and gray-box
//!   (Figures 2 and 4);
//! - [`grep`] — the string-search application in its three forms:
//!   unmodified, `gb-grep` (linked against the ICLs), and unmodified grep
//!   fed by the `gbp` utility (Figure 3);
//! - [`fastsort`] — the two-pass disk-to-disk sort, static pass size or
//!   MAC-adaptive `gb-fastsort` (Figures 3 and 7);
//! - [`gbp`] — the command-line pipeline utility that lets *unmodified*
//!   applications benefit from gray-box knowledge;
//! - [`workload`] — synthetic file-set and aging generators used by the
//!   experiments.
//!
//! Applications charge their CPU costs explicitly through
//! [`graybox::os::GrayBoxOs::compute`], which advances virtual time on the
//! simulated backend. Only [`Gbp`] can turn its charges off
//! (`Gbp::model_cpu`): the `gbp` binary runs on the host, where real CPU
//! burns.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fastsort;
pub mod gbp;
pub mod grep;
pub mod scan;
pub mod workload;

pub use fastsort::{FastSort, PassPolicy, SortConfig, SortReport};
pub use gbp::Gbp;
pub use grep::{Grep, GrepMode, GrepReport, Needle};
pub use scan::{graybox_scan, linear_scan, ScanReport};
