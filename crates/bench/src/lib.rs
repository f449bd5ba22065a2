//! Shared scaffolding for the offline benchmark suite (gray_toolbox::bench).
//!
//! The benches cover four layers:
//!
//! - `benches/toolbox.rs` — the gray toolbox's statistical primitives
//!   (these sit on every probe's hot path);
//! - `benches/substrate.rs` — simulator throughput: disk service-time
//!   evaluation, cache operations, file-system operations, page touches;
//! - `benches/icl.rs` — end-to-end ICL operations (FCCD probe/plan, FLDC
//!   ordering, MAC estimation) on a small simulated machine;
//! - `benches/figures.rs` — one bench per paper table and figure, running
//!   a reduced-size version of the corresponding `repro` harness;
//! - `benches/ablations.rs` — timing for the design alternatives called
//!   out in DESIGN.md (probe rounds, differentiation strategy, MAC
//!   increment policy).

#![forbid(unsafe_code)]

pub mod suites;

use gray_apps::workload::make_files;
use graybox::os::GrayBoxOs;
use simos::{Sim, SimConfig};

/// Holds the process-wide tracer for the length of a unit test that runs
/// simulations.
///
/// The tracer's enable flag, ring and probe-latency histogram are global
/// to the process, and `cargo test` runs this crate's tests on parallel
/// threads: while [`suites::accuracy::run`] sits inside its
/// `trace::capture()`, every probe any other test issues is recorded into
/// the session it then scores. Each such test therefore takes the same
/// capture lock, which keeps it out of that window.
#[cfg(test)]
pub(crate) fn hold_tracer() -> gray_toolbox::trace::CaptureGuard {
    gray_toolbox::trace::capture()
}

/// A tiny simulated machine (16 MB RAM) for microbench-scale work.
pub fn tiny_sim() -> Sim {
    let mut cfg = SimConfig::small().without_noise();
    cfg.mem_bytes = 16 << 20;
    cfg.kernel_reserve_bytes = 2 << 20;
    Sim::new(cfg)
}

/// A tiny corpus of warm files for ICL benches; returns paths.
pub fn tiny_corpus(sim: &mut Sim, count: usize, bytes: u64) -> Vec<String> {
    let paths = sim.run_one(move |os| make_files(os, "/bench", count, bytes).unwrap());
    sim.flush_file_cache();
    // Warm half of them.
    let warm: Vec<String> = paths.iter().step_by(2).cloned().collect();
    sim.run_one(move |os| {
        for p in &warm {
            let fd = os.open(p).unwrap();
            os.read_discard(fd, 0, bytes).unwrap();
            os.close(fd).unwrap();
        }
    });
    paths
}

/// Small FCCD parameters proportioned to the tiny machine.
pub fn tiny_fccd() -> graybox::fccd::FccdParams {
    graybox::fccd::FccdParams {
        access_unit: 1 << 20,
        prediction_unit: 256 << 10,
        ..graybox::fccd::FccdParams::default()
    }
}
