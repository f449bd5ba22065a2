//! Covert-channel determinism and acceptance pins (DESIGN.md §17).
//!
//! The ISSUE's acceptance criteria for the covert subsystem, as
//! integration tests over the umbrella crate:
//!
//! - reruns of a cell or a whole grid are **bit-identical**, regardless
//!   of pool worker count;
//! - the **oracle join** is live: the scored errors come from comparing
//!   the receiver's decode against the seed-regenerated message, so a
//!   quiet cell is error-free and the decoded bits follow the seed;
//! - on the quiet platform with no defender, **BER is zero** for both
//!   the FCCD (page-cache) and WBD (dirty-residue) channels;
//! - defenders **measurably degrade** capacity, and the degradation is
//!   channel-shaped: noise hurts both channels, the eager flusher kills
//!   the write-side channel while leaving the read-side one intact.

use graybox_icl::covert::{
    grid_digest, message_bits, run_grid, ChannelKind, ChannelSpec, CovertGridConfig, DefenderKind,
};
use graybox_icl::simos::Platform;
use graybox_icl::toolbox::pool::Pool;
use graybox_icl::toolbox::trace::{self, TraceEvent};
use graybox_icl::toolbox::{profile, GrayDuration};

/// The demo's cell shape: 16 bits (in the channel's 50 ms slots and
/// 4-page groups).
fn cell(channel: ChannelKind, defender: DefenderKind, seed: u64) -> ChannelSpec {
    ChannelSpec {
        index: 0,
        platform: Platform::LinuxLike,
        channel,
        defender,
        bits: 16,
        seed,
    }
}

#[test]
fn grid_reruns_are_bit_identical_across_worker_counts() {
    let cfg = CovertGridConfig::smoke();
    let serial = run_grid(&cfg, &Pool::with_workers(1));
    let rerun = run_grid(&cfg, &Pool::with_workers(1));
    let parallel = run_grid(&cfg, &Pool::with_workers(3));
    // Pool workers charge into the capture armed where the grid was
    // started, so the tree is the same for one worker or two.
    let profile_grid = |workers| {
        let _profiler = profile::capture();
        let grid = run_grid(&cfg, &Pool::with_workers(workers));
        (grid, profile::snapshot())
    };
    let (profiled, tree) = profile_grid(2);
    let (_, serial_tree) = profile_grid(1);

    assert_eq!(serial, rerun, "same config must replay bit for bit");
    assert_eq!(serial, parallel, "worker count must not leak into scores");
    assert_eq!(grid_digest(&serial), grid_digest(&parallel));
    assert_eq!(
        grid_digest(&serial),
        grid_digest(&profiled),
        "the virtual-time profiler must only observe"
    );
    assert!(tree.total_ns > 0, "pool workers must profile");
    assert_eq!(
        tree.digest(),
        serial_tree.digest(),
        "two workers must attribute what one does"
    );
    assert_eq!(serial.len(), cfg.cells());
    for cell in &serial {
        let score = cell.as_ref().expect("no cell may panic");
        assert_eq!(
            score.late_wakeups, 0,
            "{}: slotted run overran",
            score.label
        );
        assert!(score.virtual_ns > 0, "{}: empty run", score.label);
    }
}

#[test]
fn quiet_cells_decode_error_free_on_both_channels() {
    for channel in [ChannelKind::Fccd, ChannelKind::Wbd] {
        let score = cell(channel, DefenderKind::Idle, 0x00DE_C0DE).run();
        assert_eq!(score.errors, 0, "{}: quiet cell must be clean", score.label);
        assert_eq!(score.ber, 0.0, "{}", score.label);
        assert!(
            (score.capacity_bps - score.raw_bps).abs() < 1e-9,
            "{}: error-free capacity is the raw rate",
            score.label
        );
        assert_eq!(
            score.defender_work_ns, 0,
            "{}: idle defender must be free",
            score.label
        );
    }
}

#[test]
fn oracle_join_follows_the_seed() {
    // The receiver never sees the message directly — it decodes shared OS
    // state and the scorer joins against `message_bits(seed, n)`. If that
    // join is live, (a) the message length matches the scored bit count,
    // (b) an identical seed replays to an identical digest (the digest
    // folds every received bit), and (c) a different seed steers the
    // transmitter to different state and hence a different decode.
    let a1 = cell(ChannelKind::Fccd, DefenderKind::Idle, 0x00DE_C0DE).run();
    let a2 = cell(ChannelKind::Fccd, DefenderKind::Idle, 0x00DE_C0DE).run();
    let b = cell(ChannelKind::Fccd, DefenderKind::Idle, 0x00DD_BA11).run();

    assert_eq!(message_bits(0x00DE_C0DE, 16).len() as u64, a1.bits);
    assert_eq!(a1, a2, "identical seed must replay bit for bit");
    assert_ne!(
        message_bits(0x00DE_C0DE, 16),
        message_bits(0x00DD_BA11, 16),
        "test needs two distinct messages"
    );
    assert_ne!(
        a1.digest, b.digest,
        "a different message must reach the receiver as different bits"
    );
    // Both quiet cells decode clean, so received == sent on each side:
    // the digests differ exactly because the joined oracles differ.
    assert_eq!(a1.errors, 0);
    assert_eq!(b.errors, 0);
}

#[test]
fn defenders_measurably_degrade_capacity() {
    let quiet_fccd = cell(ChannelKind::Fccd, DefenderKind::Idle, 0x00DE_C0DE).run();
    let quiet_wbd = cell(ChannelKind::Wbd, DefenderKind::Idle, 0x00DE_C0DE).run();

    // Noise is channel-agnostic: random touches both pollute the page
    // cache (FCCD) and dirty pages (WBD).
    for (quiet, channel) in [
        (&quiet_fccd, ChannelKind::Fccd),
        (&quiet_wbd, ChannelKind::Wbd),
    ] {
        let noisy = cell(channel, DefenderKind::Noise, 0x00DE_C0DE).run();
        assert!(noisy.errors > 0, "{}: noise must flip bits", noisy.label);
        assert!(
            noisy.capacity_bps < quiet.capacity_bps,
            "{}: capacity {:.1} must drop below quiet {:.1}",
            noisy.label,
            noisy.capacity_bps,
            quiet.capacity_bps
        );
        assert!(
            noisy.defender_work_ns > 0,
            "{}: defense costs time",
            noisy.label
        );
    }

    // The eager flusher is channel-shaped: it erases dirty-page residue
    // (the WBD signal) but leaves page-cache residency (FCCD) alone.
    let flushed_wbd = cell(ChannelKind::Wbd, DefenderKind::EagerFlush, 0x00DE_C0DE).run();
    assert!(
        flushed_wbd.capacity_bps < quiet_wbd.capacity_bps,
        "eager flush must degrade the write-side channel"
    );
    let flushed_fccd = cell(ChannelKind::Fccd, DefenderKind::EagerFlush, 0x00DE_C0DE).run();
    assert_eq!(
        flushed_fccd.errors, 0,
        "eager flush must not touch the read-side channel"
    );
}

/// The receiver probes once per slot, mid-slot. Each `ProbeIssued` is
/// stamped on the virtual clock when its probe returns, so stamp minus
/// latency is the instant the probe began, and those instants are at
/// least one 50 ms slot apart. Host-clock stamps would sit microseconds
/// apart.
#[test]
fn receiver_probes_are_stamped_one_slot_apart() {
    const SLOT: GrayDuration = GrayDuration::from_millis(50);
    let _capture = trace::capture();
    cell(ChannelKind::Fccd, DefenderKind::Idle, 7).run();
    let starts: Vec<u64> = trace::drain()
        .into_iter()
        .filter(|rec| rec.span == "covert:rx")
        .filter_map(|rec| match rec.event {
            TraceEvent::ProbeIssued { latency_ns, .. } => Some(rec.ts.as_nanos() - latency_ns),
            _ => None,
        })
        .collect();
    assert_eq!(starts.len(), 16, "one receiver probe per bit");
    for pair in starts.windows(2) {
        assert!(
            pair[1] >= pair[0] + SLOT.as_nanos(),
            "receiver probes began at {} and {} ns",
            pair[0],
            pair[1]
        );
    }
}

/// The FCCD receiver decides each bit from the clock read that ended its
/// probe, so its `covert.bit` record carries the stamp of the receiver
/// `ProbeIssued` just before it: both on the virtual clock.
#[test]
fn fccd_bit_decisions_carry_their_probes_stamp() {
    let _capture = trace::capture();
    cell(ChannelKind::Fccd, DefenderKind::Idle, 7).run();
    let rx: Vec<_> = trace::drain()
        .into_iter()
        .filter(|rec| rec.span == "covert:rx")
        .collect();
    let mut bits = 0;
    for pair in rx.windows(2) {
        if let TraceEvent::ThresholdCrossed {
            what: "covert.bit", ..
        } = pair[1].event
        {
            assert!(
                matches!(pair[0].event, TraceEvent::ProbeIssued { .. }),
                "bit {bits} follows {:?}",
                pair[0].event
            );
            assert_eq!(
                pair[1].ts, pair[0].ts,
                "bit {bits} stamped apart from its probe"
            );
            bits += 1;
        }
    }
    assert_eq!(bits, 16, "one decision per bit");
}
