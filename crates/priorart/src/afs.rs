//! AFS whole-file fetching as a gray-box *control* example (paper §2.2):
//! "given the read interface on AFS, an ICL can read just a single byte
//! to prefetch an entire file from the server."
//!
//! The model: a client with a local disk cache in front of a file server
//! across a network. AFS semantics — the first read of any byte of a file
//! fetches the *whole file* into the local cache; subsequent reads are
//! local. An application that will need a set of files can therefore warm
//! them with one-byte reads issued during its think time, overlapping the
//! fetches with computation it was going to do anyway.
//!
//! This is the inverse of FCCD's Heisenberg worry: there, a one-byte
//! probe's whole-page side effect is a measurement hazard; here the
//! whole-file side effect *is the mechanism*. Same gray-box knowledge,
//! used for control instead of information.

use graybox::technique::{Technique, TechniqueInventory};

/// Number of files the application processes.
pub const FILES: usize = 20;

/// Size of each file in bytes.
pub const FILE_BYTES: u64 = 4 << 20;

/// Network fetch bandwidth, bytes per second (a 2001-era campus network).
pub const FETCH_BANDWIDTH: u64 = 2 << 20;

/// Per-fetch latency (RPC + open), seconds.
pub const FETCH_LATENCY: f64 = 0.015;

/// Local read bandwidth once cached, bytes per second.
pub const LOCAL_BANDWIDTH: u64 = 20 << 20;

/// Application compute time per file, seconds (the think time
/// prefetching hides fetches behind).
pub const COMPUTE_PER_FILE: f64 = 1.0;

/// Result of one strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AfsReport {
    /// Total elapsed seconds for the whole run.
    pub elapsed: f64,
    /// Seconds the application sat stalled on fetches.
    pub stall: f64,
}

fn fetch_time() -> f64 {
    FETCH_LATENCY + FILE_BYTES as f64 / FETCH_BANDWIDTH as f64
}

fn local_time() -> f64 {
    FILE_BYTES as f64 / LOCAL_BANDWIDTH as f64
}

/// Demand fetching: each file is fetched when the application reaches it.
pub fn run_demand() -> AfsReport {
    let per_file = fetch_time() + local_time() + COMPUTE_PER_FILE;
    AfsReport {
        elapsed: per_file * FILES as f64,
        stall: fetch_time() * FILES as f64,
    }
}

/// Gray-box prefetching: while computing on file *i*, a background
/// one-byte read of file *i+1* triggers its whole-file fetch, overlapping
/// the transfer with think time. The application stalls only when a fetch
/// outlasts the compute that hides it.
pub fn run_prefetch() -> AfsReport {
    let fetch = fetch_time();
    let local = local_time();
    let mut elapsed = 0.0;
    let mut stall = 0.0;
    // File 0 cannot be hidden: its fetch is on the critical path.
    elapsed += fetch;
    stall += fetch;
    let mut fetch_done_at = elapsed; // Prefetch of file i+1 starts when file i is local.
    for i in 0..FILES {
        // Process file i (it is local by construction at this point).
        let process = local + COMPUTE_PER_FILE;
        // Prefetch of file i+1 runs concurrently.
        let next_ready = if i + 1 < FILES {
            fetch_done_at + fetch
        } else {
            0.0
        };
        elapsed += process;
        if i + 1 < FILES && next_ready > elapsed {
            stall += next_ready - elapsed;
            elapsed = next_ready;
        }
        fetch_done_at = elapsed;
    }
    AfsReport { elapsed, stall }
}

/// Taxonomy row for the AFS prefetcher.
pub fn techniques() -> TechniqueInventory {
    TechniqueInventory::new(
        "AFS prefetch",
        &[
            (
                Technique::AlgorithmicKnowledge,
                "1-byte read fetches whole file",
            ),
            (Technique::InsertProbes, "Background 1-byte reads"),
            (Technique::Feedback, "Fetches overlap think time"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetching_hides_most_fetch_stall() {
        let demand = run_demand();
        let prefetch = run_prefetch();
        // A fetch (2.015 s) outlasts the think time plus the local read
        // (1.2 s), so fetches are only partly hidden — but the win is
        // still large.
        assert!(
            prefetch.elapsed < demand.elapsed * 0.8,
            "prefetch {} vs demand {}",
            prefetch.elapsed,
            demand.elapsed
        );
        assert!(prefetch.stall < demand.stall);
    }

    #[test]
    fn ample_think_time_hides_everything_but_the_first_fetch() {
        let prefetch = run_prefetch();
        // The think time hides all it covers of every fetch but the
        // first: that one stalls whole, and each later one only by the
        // part processing the previous file cannot cover (here 0.815 s of
        // 2.015 s, since the 1 s think time is not ample).
        let (fetch, process) = (fetch_time(), local_time() + COMPUTE_PER_FILE);
        let expected = fetch + (FILES - 1) as f64 * (fetch - process);
        assert!(
            (prefetch.stall - expected).abs() < 1e-9,
            "stall {} vs {expected}",
            prefetch.stall
        );
    }

    #[test]
    fn zero_think_time_degenerates_toward_demand() {
        let demand = run_demand();
        let prefetch = run_prefetch();
        // Prefetching never loses, and saves exactly the processing that
        // overlaps the later fetches: with no think time that is only the
        // local reads, and the run degenerates toward demand fetching.
        let process = local_time() + COMPUTE_PER_FILE;
        let saved = demand.elapsed - prefetch.elapsed;
        assert!(prefetch.elapsed <= demand.elapsed + 1e-9);
        assert!(
            (saved - (FILES - 1) as f64 * process).abs() < 1e-9,
            "saved {saved} s"
        );
    }

    #[test]
    fn techniques_mark_this_as_control_via_probes() {
        let inv = techniques();
        assert!(inv.uses(Technique::InsertProbes));
        assert!(inv.uses(Technique::AlgorithmicKnowledge));
    }
}
