//! The defender taxonomy: a third process trying to degrade the channel.
//!
//! Defenders are deliberately *channel-agnostic* — they do not know the
//! protocol, the slot phase, or the group layout. They model the two
//! realistic countermeasure families from the page-cache side-channel
//! literature, plus the do-nothing baseline:
//!
//! - [`DefenderKind::Idle`] — the baseline: sleeps through the whole
//!   transmission. Zero cost, zero degradation.
//! - [`DefenderKind::Noise`] — random-touch noise: four times per slot it
//!   reads random pages of the shared file (warming pages the transmitter
//!   left cold — false 1s on the FCCD channel) and dirties a page of its
//!   own scratch file (residue the receiver's `sync` cannot tell from the
//!   transmitter's — false 1s on the WBD channel).
//! - [`DefenderKind::EagerFlush`] — eager writeback: syncs four times per
//!   slot, draining the dirty residue before the receiver can sample it.
//!   Kills the WBD channel; harmless to the FCCD channel (sync does not
//!   evict), which is exactly the asymmetry the taxonomy should expose.
//!
//! Bursts run at phase slot/8 + j·slot/4, offset from both the
//! transmitter (phase 0) and the receiver (phase slot/2) so no two
//! processes ever act at the same virtual instant. Unlike the protocol
//! endpoints, a defender has no deadline — it is an interval daemon like
//! the kernel flusher — so when a burst overruns its phase (four cold
//! seeks can exceed slot/4) it *self-paces*: it skips the missed phases
//! and resumes on the next future one instead of racing to catch up.
//! Defender pacing therefore never counts toward `late_wakeups`, which
//! pins the transmitter/receiver schedule only.

use gray_toolbox::rng::StdRng;
use gray_toolbox::trace;
use graybox::os::GrayBoxOs;
use simos::exec::Workload;
use simos::{SimProc, PAGE_SIZE};

use crate::channel::{sleep_until, timed_probe, ProcOut};

/// Who tries to degrade the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenderKind {
    /// No defense: sleeps through the transmission (the baseline).
    Idle,
    /// Random-touch noise: warms random shared pages and dirties scratch
    /// pages, confusing both channels.
    Noise,
    /// Eager writeback: frequent `sync`s drain the dirty residue the WBD
    /// channel carries bits in.
    EagerFlush,
}

impl DefenderKind {
    /// Every defender, in the grid's order.
    pub const ALL: [DefenderKind; 3] = [
        DefenderKind::Idle,
        DefenderKind::Noise,
        DefenderKind::EagerFlush,
    ];

    /// Short tag for labels and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            DefenderKind::Idle => "none",
            DefenderKind::Noise => "noise",
            DefenderKind::EagerFlush => "flush",
        }
    }
}

/// Pages of random-touch reads per noise burst.
const NOISE_TOUCHES: u64 = 4;
/// Pages in the noise defender's scratch file (dirtied round-robin).
const NOISE_SCRATCH_PAGES: u64 = 8;

/// Builds the defender's workload: a process that wakes four times per
/// slot from `base` until `end` and runs its burst, accounting its own
/// virtual cost.
pub(crate) fn defender_workload(
    kind: DefenderKind,
    data_path: &'static str,
    region_pages: u64,
    base: u64,
    slot: u64,
    end: u64,
    seed: u64,
) -> Workload<'static, ProcOut> {
    Box::new(move |os: &SimProc| {
        let _span = trace::span("covert", || "def".to_string());
        let mut work_ns = 0u64;
        let mut late = 0u64;
        match kind {
            DefenderKind::Idle => {
                late += sleep_until(os, end) as u64;
            }
            DefenderKind::Noise => {
                let fd = os.open(data_path).unwrap();
                let scratch = os.create("/.defender-noise").unwrap();
                os.write_fill(scratch, 0, NOISE_SCRATCH_PAGES * PAGE_SIZE)
                    .unwrap();
                // The scratch setup must not linger as residue the
                // receiver would count before the first burst.
                os.sync().unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut j = 0u64;
                loop {
                    let t = base + slot / 8 + j * (slot / 4);
                    if t >= end {
                        break;
                    }
                    sleep_until(os, t);
                    let d = timed_probe(os, j, |os| {
                        for _ in 0..NOISE_TOUCHES {
                            let p = rng.random_range(0..region_pages);
                            os.read_byte(fd, p * PAGE_SIZE).unwrap();
                        }
                        os.write_fill(scratch, (j % NOISE_SCRATCH_PAGES) * PAGE_SIZE, PAGE_SIZE)
                            .unwrap();
                    });
                    work_ns += d.as_nanos();
                    // Self-pace: a burst of cold seeks can overrun its
                    // phase; skip the missed phases instead of racing.
                    let now = os.now().as_nanos();
                    j += 1;
                    while base + slot / 8 + j * (slot / 4) <= now {
                        j += 1;
                    }
                }
                os.close(fd).unwrap();
                os.close(scratch).unwrap();
            }
            DefenderKind::EagerFlush => {
                let mut j = 0u64;
                loop {
                    let t = base + slot / 8 + j * (slot / 4);
                    if t >= end {
                        break;
                    }
                    sleep_until(os, t);
                    let d = timed_probe(os, j, |os| os.sync().unwrap());
                    work_ns += d.as_nanos();
                    let now = os.now().as_nanos();
                    j += 1;
                    while base + slot / 8 + j * (slot / 4) <= now {
                        j += 1;
                    }
                }
            }
        }
        ProcOut::Def { work_ns, late }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_unique() {
        let names: Vec<&str> = [
            DefenderKind::Idle,
            DefenderKind::Noise,
            DefenderKind::EagerFlush,
        ]
        .iter()
        .map(|d| d.name())
        .collect();
        assert_eq!(names, vec!["none", "noise", "flush"]);
    }
}
