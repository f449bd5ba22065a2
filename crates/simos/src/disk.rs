//! The mechanical disk model: the IBM 9LZX of the paper's testbed, whose
//! mechanics are this module's constants.
//!
//! Service time for a request decomposes classically into **seek** (a
//! min-plus-square-root curve over cylinder distance), **rotational
//! latency** (the head waits for the target block's angular position, which
//! is derived from absolute virtual time, so rotational delays come out
//! deterministic yet realistically spread), and **transfer** (media
//! bandwidth). A request that starts exactly where the head stopped streams
//! at media rate with neither seek nor rotation — this is what rewards
//! FFS-contiguous allocation and sequential readahead, and ultimately what
//! FLDC's i-number ordering harvests.
//!
//! Requests on one disk are serialized FCFS through `busy_until`;
//! contention from competing processes (or from swap sharing a data disk)
//! emerges from the queue.

use gray_toolbox::{GrayDuration, Nanos};

use crate::config::{DiskParams, PAGE_SIZE};

/// Spindle speed, revolutions per minute.
pub const RPM: u64 = 10_000;

/// One revolution: 6 ms, a multiple of [`BLOCKS_PER_TRACK`] nanoseconds,
/// so each block's angular position is a whole number of them.
const ROT_PERIOD: GrayDuration = GrayDuration::from_nanos(60_000_000_000 / RPM);

/// Minimum (track-to-track) seek time.
pub const SEEK_MIN: GrayDuration = GrayDuration::from_micros(600);

/// Average seek time, which fits the seek curve.
pub const SEEK_AVG: GrayDuration = GrayDuration::from_micros(6_500);

/// Media transfer bandwidth, bytes per second.
pub const BANDWIDTH: u64 = 20 << 20;

/// Blocks per track.
pub const BLOCKS_PER_TRACK: u64 = 64;

/// Tracks per cylinder (recording surfaces).
pub const HEADS: u64 = 10;

const BLOCKS_PER_CYLINDER: u64 = BLOCKS_PER_TRACK * HEADS;

/// One simulated disk.
#[derive(Debug, Clone)]
pub struct Disk {
    blocks: u64,
    block_time: GrayDuration,
    /// Seek curve: `SEEK_MIN + coef * sqrt(cylinder_distance)` ns.
    seek_coef_ns: f64,
    head_block: u64,
    busy_until: Nanos,
}

impl Disk {
    /// Builds a disk of `params.capacity` bytes in [`PAGE_SIZE`] blocks.
    pub fn new(params: DiskParams) -> Self {
        let blocks = params.capacity / PAGE_SIZE;
        let cylinders = (blocks / BLOCKS_PER_CYLINDER).max(1);
        let block_time = GrayDuration::from_secs_f64(PAGE_SIZE as f64 / BANDWIDTH as f64);
        // Fit the curve so that the average seek (distance ≈ cylinders/3)
        // matches `SEEK_AVG`.
        let avg_dist = (cylinders as f64 / 3.0).max(1.0);
        let seek_coef_ns =
            (SEEK_AVG.as_nanos() as f64 - SEEK_MIN.as_nanos() as f64).max(0.0) / avg_dist.sqrt();
        Disk {
            blocks,
            block_time,
            seek_coef_ns,
            head_block: 0,
            busy_until: Nanos::ZERO,
        }
    }

    /// Total number of blocks on the disk.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// The instant the disk becomes idle.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Serves a contiguous transfer of `nblocks` starting at `block`,
    /// issued at process-local time `now`. Returns the completion instant.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or empty.
    pub fn transfer(&mut self, now: Nanos, block: u64, nblocks: u64) -> Nanos {
        assert!(nblocks > 0, "empty transfer");
        assert!(
            block + nblocks <= self.blocks,
            "transfer beyond end of disk: {}+{} > {}",
            block,
            nblocks,
            self.blocks
        );
        let start = now.max(self.busy_until);
        let positioned = if block == self.head_block {
            start
        } else {
            let seek = self.seek_time(block);
            let after_seek = start + seek;
            after_seek + Self::rotation_wait(after_seek, block)
        };
        let done = positioned + self.block_time * nblocks;
        self.head_block = block + nblocks;
        self.busy_until = done;
        done
    }

    /// Seek time from the current head position to `block`'s cylinder.
    fn seek_time(&self, block: u64) -> GrayDuration {
        let from = self.head_block / BLOCKS_PER_CYLINDER;
        let to = block / BLOCKS_PER_CYLINDER;
        let dist = from.abs_diff(to);
        if dist == 0 {
            // Same cylinder: at most a head switch, folded into SEEK_MIN.
            SEEK_MIN / 2
        } else {
            SEEK_MIN + GrayDuration::from_nanos((self.seek_coef_ns * (dist as f64).sqrt()) as u64)
        }
    }

    /// Time until the platter rotates to `block`'s angular position,
    /// starting from the absolute instant `t`. The position is
    /// `offset / BLOCKS_PER_TRACK` of a turn, reached at `offset · period /
    /// BLOCKS_PER_TRACK`: exact in integers, as it was in `f64`.
    fn rotation_wait(t: Nanos, block: u64) -> GrayDuration {
        const PERIOD: u64 = ROT_PERIOD.as_nanos();
        let current = t.as_nanos() % PERIOD;
        let target = block % BLOCKS_PER_TRACK * PERIOD / BLOCKS_PER_TRACK;
        let wait = if target >= current {
            target - current
        } else {
            PERIOD - current + target
        };
        GrayDuration::from_nanos(wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskParams::default())
    }

    #[test]
    fn geometry_is_derived() {
        let d = disk();
        assert_eq!(d.blocks(), (9u64 << 30) / 4096);
        assert_eq!(BLOCKS_PER_CYLINDER, 640);
    }

    #[test]
    fn sequential_transfers_stream_at_bandwidth() {
        let mut d = disk();
        // Position the head at block 100 first.
        let t1 = d.transfer(Nanos::ZERO, 100, 1);
        let t2 = d.transfer(t1, 101, 256);
        let streaming = t2.since(t1);
        let expected = GrayDuration::from_secs_f64(256.0 * 4096.0 / (20u64 << 20) as f64);
        let ratio = streaming.as_nanos() as f64 / expected.as_nanos() as f64;
        assert!((0.99..=1.01).contains(&ratio), "streamed in {streaming}");
    }

    #[test]
    fn random_access_pays_seek_and_rotation() {
        let mut d = disk();
        let far = d.blocks() / 2;
        let t = d.transfer(Nanos::ZERO, far, 1);
        // Must cost at least the minimum seek plus one block transfer.
        assert!(t.since(Nanos::ZERO) > GrayDuration::from_micros(600));
        // And no more than full stroke + full rotation + transfer.
        assert!(t.since(Nanos::ZERO) < GrayDuration::from_millis(25));
    }

    #[test]
    fn average_random_read_is_milliseconds() {
        // Sanity-check the 9LZX-flavored service time: ~5-15 ms random.
        let mut d = disk();
        let mut now = Nanos::ZERO;
        let mut total = GrayDuration::ZERO;
        let n = 200u64;
        let mut block = 7919u64; // pseudo-random walk via a prime stride
        for _ in 0..n {
            block = (block
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                % d.blocks();
            let done = d.transfer(now, block, 1);
            total += done.since(now);
            now = done;
        }
        let avg = total / n;
        assert!(
            (GrayDuration::from_millis(4)..GrayDuration::from_millis(16)).contains(&avg),
            "average random read {avg}"
        );
    }

    #[test]
    fn queueing_serializes_requests() {
        let mut d = disk();
        let t1 = d.transfer(Nanos::ZERO, 1000, 1);
        // A request issued earlier in process time still waits for the disk.
        let t2 = d.transfer(Nanos::ZERO, 2000, 1);
        assert!(t2 > t1);
    }

    #[test]
    fn rotation_wait_is_bounded_by_period() {
        for t in [0u64, 123_456, 999_999_937] {
            for b in [0u64, 13, 63, 64, 1000] {
                let w = Disk::rotation_wait(Nanos(t), b);
                assert!(w < ROT_PERIOD, "wait {w} >= period {ROT_PERIOD}");
            }
        }
    }

    /// The integer rotation against the `f64` expression it replaced, on
    /// the period the spindle speed gave in `f64`: every block offset of a
    /// track, on a few tracks of both disks, from instants either side of
    /// the target and anywhere.
    #[test]
    fn rotation_wait_model_matches_the_f64_angle() {
        use gray_toolbox::prop::{check, Gen};
        fn by_f64(t: Nanos, block: u64) -> GrayDuration {
            let period = GrayDuration::from_secs_f64(60.0 / RPM as f64).as_nanos();
            let current = t.as_nanos() % period;
            let target_frac = (block % BLOCKS_PER_TRACK) as f64 / BLOCKS_PER_TRACK as f64;
            let target = (target_frac * period as f64) as u64;
            let wait = if target >= current {
                target - current
            } else {
                period - current + target
            };
            GrayDuration::from_nanos(wait)
        }
        check("rotation_wait_model", 60, |g: &mut Gen| {
            for params in [DiskParams::default(), DiskParams::small()] {
                let blocks = Disk::new(params).blocks();
                let track = g.u64(0..blocks / BLOCKS_PER_TRACK);
                for offset in 0..BLOCKS_PER_TRACK {
                    let block = track * BLOCKS_PER_TRACK + offset;
                    let target = by_f64(Nanos::ZERO, block).as_nanos();
                    let turn = g.u64(0..1 << 20) * ROT_PERIOD.as_nanos();
                    let near = (turn + target).saturating_sub(1);
                    for t in [near, near + 1, near + 2, g.u64(0..1 << 50)].map(Nanos) {
                        let want = by_f64(t, block);
                        assert_eq!(Disk::rotation_wait(t, block), want, "block {block} at {t}");
                    }
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "beyond end of disk")]
    fn out_of_range_transfer_panics() {
        let mut d = disk();
        let end = d.blocks();
        let _ = d.transfer(Nanos::ZERO, end, 1);
    }

    #[test]
    fn same_cylinder_seek_is_cheap() {
        let mut d = disk();
        let _ = d.transfer(Nanos::ZERO, 0, 1);
        // Block 10 is on the same cylinder (640 blocks per cylinder).
        let seek = d.seek_time(10);
        assert!(seek <= GrayDuration::from_micros(300), "seek {seek}");
    }
}
