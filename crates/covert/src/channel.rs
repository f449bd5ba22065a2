//! The time-slotted transmit/infer channel.
//!
//! # Protocol
//!
//! Time is divided into fixed slots of [`SLOT`] of virtual time, one
//! message bit per slot. A shared file holds [`PAGES_PER_BIT`] pages per
//! slot ("the slot's group") plus two calibration groups and three guard
//! pages at the tail; slot `i` uses group `i` and **groups are never
//! reused**, so the receiver's own probes (the Heisenberg effect) cannot
//! poison later slots.
//!
//! - **FCCD channel** (read side): at the start of slot `i` the
//!   transmitter *reads* group `i` iff the bit is 1, warming its pages.
//!   Mid-slot, the receiver times a one-byte read of the group's **last**
//!   page and compares it against a cold/warm threshold calibrated before
//!   the first slot. The last page is probed because a cold probe triggers
//!   an initial readahead fetch of up to `RA_INITIAL` pages — probing the
//!   last page keeps that spill inside the *next* group's leading pages,
//!   never reaching any future probe page (hence `PAGES_PER_BIT >= 4`).
//!
//!   The cold side of the threshold must be the probe-cost **floor**, not
//!   a typical cold read: seek distance dominates a random cold fetch, so
//!   a single calibration read (which pays a long seek) would put the
//!   threshold *above* the cost of a steady-state cold probe that streams
//!   at media rate right behind the previous probe's disk position. The
//!   receiver therefore reads the tail calibration groups back to back:
//!   the first pays the seek, the second streams — a pure
//!   `PAGES_PER_BIT`-page media-rate transfer, the cheapest a cold probe
//!   can ever be. The threshold sits halfway between that floor and a
//!   warm (in-cache) read.
//! - **WBD channel** (write side): at the start of slot `i` the
//!   transmitter *writes* group `i` iff the bit is 1, leaving
//!   `PAGES_PER_BIT` dirty pages. Mid-slot, the receiver estimates the
//!   dirty residue with a calibrated timed `sync`
//!   ([`graybox::wbd::Wbd::residue_pages`]); at least half a group
//!   decodes as a 1. The probe's `sync` also drains the residue,
//!   resetting the channel for the next slot.
//!
//! # Alignment with the writeback daemon
//!
//! The kernel flusher runs with its interval set to the slot length, so
//! its epochs land at a *fixed phase* inside every slot. The schedule
//! base is chosen ≡ slot/4 (mod slot), which puts every flusher epoch at
//! phase 3·slot/4 — after the mid-slot sample. The daemon therefore runs
//! for real (the no-defender score reports its `flusher_runs`) without
//! racing the receiver; only an *eager-flush defender*, which syncs
//! inside the transmit→sample window, can drain the residue early.
//!
//! The receiver calibrates in two dedicated windows before the first
//! slot, phase-aligned the same way so calibration measurements cannot
//! straddle a flusher epoch. Readahead is clamped to one page
//! (`readahead_pages = 1`) because sequential-stream detection otherwise
//! couples adjacent groups: a transmitter read of group `i` would prefetch
//! into group `i+1` and flip its bit.

use gray_toolbox::rng::splitmix64;
use gray_toolbox::trace::{self, TraceEvent};
use gray_toolbox::GrayDuration;
use graybox::os::GrayBoxOs;
use graybox::wbd::{Wbd, WbdParams};
use simos::exec::Workload;
use simos::{Platform, Sim, SimConfig, SimProc, PAGE_SIZE};

use crate::defender::{defender_workload, DefenderKind};
use crate::score::{join_errors, ChannelScore};

/// Slot length in virtual time, one message bit each; also the kernel
/// flusher's interval.
pub const SLOT: GrayDuration = GrayDuration::from_millis(50);

/// Pages per slot group.
pub const PAGES_PER_BIT: u64 = 4;

// The probe page must clear the initial readahead window, and the slot
// must be long enough to phase-align (see the module docs).
const _: () = assert!(PAGES_PER_BIT >= 4 && SLOT.as_nanos() >= 8);

/// Which side effect carries the bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Page-cache residency, inferred by timed one-byte reads (FCCD's
    /// probe primitive).
    Fccd,
    /// Dirty-page residue, inferred by calibrated timed `sync` (the WBD
    /// ICL).
    Wbd,
}

impl ChannelKind {
    /// Every channel, in the grid's order.
    pub const ALL: [ChannelKind; 2] = [ChannelKind::Fccd, ChannelKind::Wbd];

    /// Short tag for labels and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ChannelKind::Fccd => "fccd",
            ChannelKind::Wbd => "wbd",
        }
    }
}

/// The seeded message: bit `i` of an `n`-bit transmission. Both the
/// transmitter and the scoring join regenerate it from the seed, so the
/// oracle is never carried through the channel.
pub fn message_bits(seed: u64, n: usize) -> Vec<bool> {
    (0..n)
        .map(|i| {
            let mut state = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            splitmix64(&mut state) & 1 == 1
        })
        .collect()
}

/// Sleeps until the absolute virtual instant `target_ns`. Returns `true`
/// if the caller was already past the target (a schedule overrun).
pub(crate) fn sleep_until(os: &SimProc, target_ns: u64) -> bool {
    let now = os.now().as_nanos();
    if now >= target_ns {
        return now > target_ns;
    }
    os.sleep(GrayDuration::from_nanos(target_ns - now));
    false
}

/// Times `op` on the virtual clock — `now`, `op`, `now`, the syscalls
/// [`GrayBoxOs::timed`] issues — and traces it as a `ProbeIssued` at
/// `offset`, stamped at the second clock read. Returns the elapsed time.
pub(crate) fn timed_probe(os: &SimProc, offset: u64, op: impl FnOnce(&SimProc)) -> GrayDuration {
    let t0 = os.now();
    op(os);
    let elapsed = os.now().since(t0);
    trace::emit_with(|| TraceEvent::ProbeIssued {
        offset,
        latency_ns: elapsed.as_nanos(),
    });
    elapsed
}

/// What each of the three processes reports back.
pub(crate) enum ProcOut {
    /// Transmitter: virtual time spent encoding, schedule overruns.
    Tx { work_ns: u64, late: u64 },
    /// Receiver: the decoded bits, schedule overruns.
    Rx { received: Vec<bool>, late: u64 },
    /// Defender: virtual time spent degrading. Interval defenders
    /// self-pace (skipping overrun phases), so `late` stays 0 unless the
    /// idle baseline somehow oversleeps.
    Def { work_ns: u64, late: u64 },
}

/// One fully-specified channel cell. Self-contained: everything needed to
/// boot, run, and score the cell without shared state, so grids fan cells
/// across host cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelSpec {
    /// Position in the expanded grid (also the result's slot).
    pub index: usize,
    /// Platform cache policy.
    pub platform: Platform,
    /// Which side effect carries the bits.
    pub channel: ChannelKind,
    /// Who tries to degrade the channel.
    pub defender: DefenderKind,
    /// Message length in bits (one slot each).
    pub bits: usize,
    /// Seed: drives the message bits, the machine, and the defender RNG.
    pub seed: u64,
}

impl ChannelSpec {
    /// Cell coordinates as a stable label, e.g. `linux/wbd/flush/b32`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/b{}",
            self.platform.tag(),
            self.channel.name(),
            self.defender.name(),
            self.bits
        )
    }

    /// Builds, runs, and scores this cell. Deterministic: depends only on
    /// the spec (virtual time throughout, no host state, no global
    /// tracer).
    ///
    /// # Panics
    ///
    /// Panics if the spec has no bits.
    pub fn run(&self) -> ChannelScore {
        assert!(self.bits > 0, "at least one bit");
        let s = SLOT.as_nanos();

        let mut cfg = SimConfig::small()
            .with_platform(self.platform)
            .with_seed(self.seed)
            .without_noise()
            .with_writeback(SLOT);
        // One-page readahead: stream detection must not couple adjacent
        // slot groups (see the module docs).
        cfg.readahead_pages = 1;
        let mut sim = Sim::new(cfg);
        let t0 = sim.now();

        let k = PAGES_PER_BIT;
        let bits_n = self.bits;
        let region_pages = bits_n as u64 * k;
        let data_path = "/covert.dat";

        // Setup: materialize the shared file (bit groups, 2 calibration
        // groups, 3 guard pages so the second calibration fetch spans a
        // full probe-sized run), drain the dirty residue, start cold.
        sim.run_one(|os| {
            let fd = os.create(data_path).unwrap();
            os.write_fill(fd, 0, (region_pages + 2 * k + 3) * PAGE_SIZE)
                .unwrap();
            os.sync().unwrap();
            os.close(fd).unwrap();
        });
        sim.flush_file_cache();

        // Schedule base ≡ s/4 (mod s): flusher epochs land at phase 3s/4
        // of every slot and calibration window. Two windows before `base`
        // belong to the receiver's calibration.
        let now = sim.now().as_nanos();
        let base = (now / s + 4) * s + s / 4;
        let end = base + bits_n as u64 * s;

        let sent = message_bits(self.seed, bits_n);

        let kind = self.channel;
        let tx_bits = sent.clone();
        let tx: Workload<'static, ProcOut> = Box::new(move |os: &SimProc| {
            let _span = trace::span("covert", || "tx".to_string());
            let fd = os.open(data_path).unwrap();
            let mut work_ns = 0u64;
            let mut late = 0u64;
            for (i, &bit) in tx_bits.iter().enumerate() {
                late += sleep_until(os, base + i as u64 * s) as u64;
                if bit {
                    let off = i as u64 * k * PAGE_SIZE;
                    let d = timed_probe(os, off, |os| match kind {
                        ChannelKind::Fccd => {
                            os.read_discard(fd, off, k * PAGE_SIZE).unwrap();
                        }
                        ChannelKind::Wbd => {
                            os.write_fill(fd, off, k * PAGE_SIZE).unwrap();
                        }
                    });
                    work_ns += d.as_nanos();
                }
            }
            os.close(fd).unwrap();
            ProcOut::Tx { work_ns, late }
        });

        let rx: Workload<'static, ProcOut> = Box::new(move |os: &SimProc| {
            let _span = trace::span("covert", || "rx".to_string());
            let mut late = 0u64;
            let mut received = Vec::with_capacity(bits_n);
            match kind {
                ChannelKind::Fccd => {
                    let fd = os.open(data_path).unwrap();
                    // Calibration window: back-to-back cold reads of the
                    // two tail groups. The first pays the seek; the second
                    // streams at media rate — the cold-probe cost floor
                    // (see the module docs). A warm re-read of the same
                    // page gives the in-cache side.
                    late += sleep_until(os, base - 2 * s) as u64;
                    let calib_a = (region_pages + k - 1) * PAGE_SIZE;
                    let calib_b = (region_pages + 2 * k - 1) * PAGE_SIZE;
                    os.read_byte(fd, calib_a).unwrap();
                    let (_, cold) = os.timed(|os| os.read_byte(fd, calib_b).unwrap());
                    let (_, warm) = os.timed(|os| os.read_byte(fd, calib_b).unwrap());
                    let threshold = warm + cold.saturating_sub(warm) / 2;
                    for i in 0..bits_n {
                        late += sleep_until(os, base + i as u64 * s + s / 2) as u64;
                        let probe_off = (i as u64 * k + (k - 1)) * PAGE_SIZE;
                        let t = timed_probe(os, probe_off, |os| {
                            os.read_byte(fd, probe_off).unwrap();
                        });
                        trace::emit_with(|| TraceEvent::ThresholdCrossed {
                            what: "covert.bit",
                            value: t.as_nanos() as f64,
                            threshold: threshold.as_nanos() as f64,
                        });
                        received.push(t < threshold);
                    }
                    os.close(fd).unwrap();
                }
                ChannelKind::Wbd => {
                    // Calibration window: the WBD ICL learns the sync cost
                    // model with a scratch group of exactly `k` pages.
                    late += sleep_until(os, base - 2 * s) as u64;
                    let wbd = Wbd::new(
                        os,
                        WbdParams {
                            scratch_path: "/.wbd-cal".to_string(),
                            calib_pages: k,
                        },
                    );
                    let cal = wbd.calibrate().unwrap();
                    for i in 0..bits_n {
                        late += sleep_until(os, base + i as u64 * s + s / 2) as u64;
                        let residue = wbd.residue_pages(&cal).unwrap();
                        trace::emit_with(|| TraceEvent::ThresholdCrossed {
                            what: "covert.bit",
                            value: residue as f64,
                            threshold: k as f64 / 2.0,
                        });
                        received.push(residue * 2 >= k);
                    }
                }
            }
            ProcOut::Rx { received, late }
        });

        let def = defender_workload(
            self.defender,
            data_path,
            region_pages,
            base,
            s,
            end,
            self.seed ^ 0x6465_6665_6e64, // "defend"
        );

        let outs = sim.run(vec![
            ("covert-tx".to_string(), tx),
            ("covert-rx".to_string(), rx),
            ("covert-def".to_string(), def),
        ]);

        let mut tx_work_ns = 0u64;
        let mut def_work_ns = 0u64;
        let mut late = 0u64;
        let mut received = Vec::new();
        for out in outs {
            match out {
                ProcOut::Tx { work_ns, late: l } => {
                    tx_work_ns = work_ns;
                    late += l;
                }
                ProcOut::Rx {
                    received: r,
                    late: l,
                } => {
                    received = r;
                    late += l;
                }
                ProcOut::Def { work_ns, late: l } => {
                    def_work_ns = work_ns;
                    late += l;
                }
            }
        }

        let errors = join_errors(&sent, &received);
        ChannelScore::new(
            self.label(),
            &received,
            errors,
            tx_work_ns,
            def_work_ns,
            sim.oracle().stats().flusher_runs,
            sim.now().since(t0).as_nanos(),
            late,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(channel: ChannelKind, defender: DefenderKind) -> ChannelSpec {
        ChannelSpec {
            index: 0,
            platform: Platform::LinuxLike,
            channel,
            defender,
            bits: 16,
            seed: 0xC0DE,
        }
    }

    #[test]
    fn message_bits_are_deterministic_and_mixed() {
        let a = message_bits(7, 64);
        assert_eq!(a, message_bits(7, 64));
        assert_ne!(a, message_bits(8, 64));
        let ones = a.iter().filter(|&&b| b).count();
        assert!((8..56).contains(&ones), "seeded message must be mixed");
    }

    #[test]
    fn quiet_fccd_channel_is_error_free() {
        let score = spec(ChannelKind::Fccd, DefenderKind::Idle).run();
        assert_eq!(score.errors, 0, "{score:?}");
        assert_eq!(score.late_wakeups, 0, "schedule must hold: {score:?}");
        assert!(score.capacity_bps > 0.0);
    }

    #[test]
    fn quiet_wbd_channel_is_error_free_with_the_flusher_on() {
        let score = spec(ChannelKind::Wbd, DefenderKind::Idle).run();
        assert_eq!(score.errors, 0, "{score:?}");
        assert_eq!(score.late_wakeups, 0, "schedule must hold: {score:?}");
        assert!(
            score.flusher_runs > 0,
            "the writeback daemon must actually run: {score:?}"
        );
    }

    #[test]
    fn channel_runs_are_bit_identical() {
        let a = spec(ChannelKind::Wbd, DefenderKind::Noise).run();
        let b = spec(ChannelKind::Wbd, DefenderKind::Noise).run();
        assert_eq!(a, b);
    }

    #[test]
    fn noise_defender_degrades_the_fccd_channel() {
        let quiet = spec(ChannelKind::Fccd, DefenderKind::Idle).run();
        let noisy = spec(ChannelKind::Fccd, DefenderKind::Noise).run();
        assert!(noisy.errors > 0, "{noisy:?}");
        assert!(noisy.capacity_bps < quiet.capacity_bps);
        assert!(noisy.defender_work_ns > 0);
    }

    #[test]
    fn eager_flush_defender_kills_the_wbd_channel() {
        let quiet = spec(ChannelKind::Wbd, DefenderKind::Idle).run();
        let flushed = spec(ChannelKind::Wbd, DefenderKind::EagerFlush).run();
        assert!(flushed.errors > 0, "{flushed:?}");
        assert!(flushed.capacity_bps < quiet.capacity_bps);
        assert!(flushed.defender_work_ns > 0);
    }
}
