//! covert-demo: the adversarial covert-channel subsystem, narrated.
//!
//! Each cell is a three-process run — a transmitter encoding a seeded
//! message into shared OS state, a receiver decoding it with gray-box
//! inference, and a defender trying to degrade the channel — on one
//! quiet virtual machine. The demo sweeps both channels (FCCD
//! page-cache residency, WBD dirty-page residue) against the full
//! defender taxonomy and scores every cell, then replays one contested
//! cell with tracing on so the per-process lanes (`covert:tx`,
//! `covert:rx`, `covert:def`) are visible in the timeline.
//!
//! ```text
//! covert-demo [--trace [path]] [--profile [path]]
//! ```
//!
//! With `--trace`, every event streams to JSONL (default path
//! `gray-trace.jsonl`), and `--profile` writes the folded virtual-time
//! profile; either way the run ends with the in-process timeline of the
//! replayed cell.

use covert::{message_bits, ChannelKind, ChannelSpec, DefenderKind};
use gray_toolbox::trace;
use repro::{Flags, Tracing};
use simos::Platform;

const USAGE: &str = "usage: covert-demo [--trace [path]] [--profile [path]]";

/// The demo's fixed cell shape: 16 bits (in the channel's 50 ms slots and
/// 4-page groups).
fn spec(index: usize, channel: ChannelKind, defender: DefenderKind) -> ChannelSpec {
    ChannelSpec {
        index,
        platform: Platform::LinuxLike,
        channel,
        defender,
        bits: 16,
        seed: 0x00DE_C0DE,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse_or_exit(&args, false, USAGE);
    let tracing = Tracing::start(&flags);

    let message = message_bits(0x00DE_C0DE, 16);
    let rendered: String = message.iter().map(|&b| if b { '1' } else { '0' }).collect();
    println!("== covert channels: 16-bit message {rendered}, 50ms slots ==");
    println!();

    for (channel, what) in [
        (ChannelKind::Fccd, "fccd — bits ride page-cache residency"),
        (ChannelKind::Wbd, "wbd  — bits ride dirty-page residue"),
    ] {
        println!("-- {what} --");
        for (i, defender) in DefenderKind::ALL.into_iter().enumerate() {
            let score = spec(i, channel, defender).run();
            println!(
                "   {:<22} {:>2}/{} errors  ber {:.3}  capacity {:>6.1} bits/s  \
                 tx {:>6}us  def {:>6}us  flusher x{}",
                score.label,
                score.errors,
                score.bits,
                score.ber,
                score.capacity_bps,
                score.transmitter_work_ns / 1_000,
                score.defender_work_ns / 1_000,
                score.flusher_runs
            );
        }
        println!();
    }

    // Replay the contested WBD-vs-noise cell with tracing on: the
    // transmitter's writes, the receiver's per-slot threshold decisions,
    // and the defender's bursts each land on their own process lane.
    let _ring = (!trace::enabled()).then(trace::capture);
    let _ = trace::drain();
    let replay = spec(99, ChannelKind::Wbd, DefenderKind::Noise).run();
    println!(
        "== trace timeline: {} replayed with per-process lanes ==",
        replay.label
    );
    print!("{}", trace::render_timeline(&trace::drain()));
    tracing.finish();
}
