//! Machines for the ICL tests that run on the simulated OS.
//!
//! `simos` is a dev-dependency of `graybox`: cargo allows that cycle for
//! integration tests (they link the one `graybox` that `simos` links) but
//! not for `--lib` unit tests, which would see two copies of the crate.

use graybox::os::GrayBoxOs;
use simos::{Sim, SimConfig};

/// A `SimConfig::small()` machine holding `files` (path, bytes), created
/// in order and then flushed from the file cache, so every page is cold.
pub fn cold_machine(files: &[(&str, u64)]) -> Sim {
    let mut sim = Sim::new(SimConfig::small());
    sim.run_one(|os| {
        for &(path, bytes) in files {
            let fd = os.create(path).unwrap();
            if bytes > 0 {
                os.write_fill(fd, 0, bytes).unwrap();
            }
            os.close(fd).unwrap();
        }
    });
    sim.flush_file_cache();
    sim
}

/// Reads `len` bytes of `path` from `offset`, so they (and whatever the
/// readahead window fetches past them) become resident.
pub fn warm(sim: &mut Sim, path: &str, offset: u64, len: u64) {
    sim.run_one(|os| {
        let fd = os.open(path).unwrap();
        os.read_discard(fd, offset, len).unwrap();
        os.close(fd).unwrap();
    });
}
