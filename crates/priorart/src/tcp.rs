//! TCP congestion control as a gray-box system (paper Section 3).
//!
//! The network is the gray box: senders know (algorithmic knowledge) that
//! *routers drop packets when congested*, observe acknowledgements and
//! their timing (outputs), and infer congestion from loss — then control
//! their window with additive-increase/multiplicative-decrease. The paper's
//! sharp observation is that this is **not** a black-box scheme: the
//! loss⇒congestion rule is an assumption about the network's internals,
//! and in a wireless setting — where loss is random — the unmodified
//! algorithm misinfers congestion and collapses its window.
//!
//! The simulation is a slotted fluid model: each round-trip, every one of
//! [`SENDERS`] senders offers `cwnd` packets; the bottleneck link carries
//! [`CAPACITY`] packets per RTT and drops the excess (drop-tail, spread
//! proportionally). Optionally, each packet is also lost with probability
//! `wireless_loss` regardless of congestion. Senders track the *true*
//! cause of each loss event so the run can report inference accuracy.

use gray_toolbox::rng::StdRng;
use graybox::technique::{Technique, TechniqueInventory};

/// Number of competing senders.
pub const SENDERS: usize = 4;

/// Bottleneck capacity in packets per RTT.
pub const CAPACITY: u64 = 100;

/// Router queue length in packets (absorbs bursts before dropping).
pub const QUEUE: u64 = 50;

/// Number of RTT rounds simulated.
pub const ROUNDS: u32 = 400;

/// RNG seed of the wireless losses.
const SEED: u64 = 17;

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpReport {
    /// Mean link utilization in [0, 1].
    pub utilization: f64,
    /// Jain fairness index over per-sender goodput, in (0, 1].
    pub fairness: f64,
    /// Fraction of loss-triggered backoffs where the loss really was
    /// congestion (the gray-box inference accuracy).
    pub inference_accuracy: f64,
    /// Per-sender delivered packets.
    pub goodput: Vec<u64>,
    /// Mean congestion window at the end, in packets.
    pub mean_final_cwnd: f64,
}

#[derive(Debug, Clone)]
struct Sender {
    cwnd: f64,
    ssthresh: f64,
    delivered: u64,
}

/// Runs the simulation with each packet also lost with probability
/// `wireless_loss` for non-congestion reasons (the wireless scenario; 0.0
/// is wired).
pub fn run(wireless_loss: f64) -> TcpReport {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut senders: Vec<Sender> = (0..SENDERS)
        .map(|_| Sender {
            cwnd: 1.0,
            ssthresh: CAPACITY as f64,
            delivered: 0,
        })
        .collect();
    let mut carried_total = 0u64;
    let mut backoffs_correct = 0u64;
    let mut backoffs_total = 0u64;
    // Router queue backlog, in packets (aggregate; per-sender attribution
    // is proportional, which is what a FIFO queue approximates over RTTs).
    let mut backlog = 0u64;

    for _ in 0..ROUNDS {
        let offered: Vec<u64> = senders.iter().map(|s| s.cwnd.max(1.0) as u64).collect();
        let total_offered: u64 = offered.iter().sum();
        // The link serves `capacity` per RTT; the queue absorbs a bounded
        // burst; anything beyond is dropped (drop-tail).
        let room = CAPACITY + QUEUE - backlog.min(QUEUE);
        let accepted_total = total_offered.min(room);
        let congested = total_offered > room;
        let served = (backlog + accepted_total).min(CAPACITY);
        backlog = backlog + accepted_total - served;
        for (i, sender) in senders.iter_mut().enumerate() {
            // Delivered fraction of this sender's offer: what the link
            // served this round, attributed proportionally.
            let share = (served * offered[i])
                .checked_div(total_offered)
                .unwrap_or(0);
            let accepted = (accepted_total * offered[i])
                .checked_div(total_offered)
                .unwrap_or(0);
            let congestion_dropped = offered[i] - accepted;
            // Queued-but-unserved packets are neither lost nor yet ACKed;
            // goodput counts only what the link carried.
            let _ = &accepted;
            // Wireless loss hits delivered packets at random.
            let mut wireless_dropped = 0u64;
            if wireless_loss > 0.0 {
                for _ in 0..share {
                    if rng.random_bool(wireless_loss) {
                        wireless_dropped += 1;
                    }
                }
            }
            let got = share - wireless_dropped;
            sender.delivered += got;
            carried_total += got;

            let lost = congestion_dropped + wireless_dropped;
            if lost > 0 {
                // Gray-box inference: loss means congestion. Score it
                // against ground truth.
                backoffs_total += 1;
                if congested || congestion_dropped > 0 {
                    backoffs_correct += 1;
                }
                sender.ssthresh = (sender.cwnd / 2.0).max(1.0);
                sender.cwnd = sender.ssthresh; // Multiplicative decrease.
            } else if sender.cwnd < sender.ssthresh {
                sender.cwnd *= 2.0; // Slow start.
            } else {
                sender.cwnd += 1.0; // Additive increase.
            }
        }
    }

    let goodput: Vec<u64> = senders.iter().map(|s| s.delivered).collect();
    let n = goodput.len() as f64;
    let sum: f64 = goodput.iter().map(|&g| g as f64).sum();
    let sum_sq: f64 = goodput.iter().map(|&g| (g as f64) * (g as f64)).sum();
    let fairness = if sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (n * sum_sq)
    };
    TcpReport {
        utilization: carried_total as f64 / (CAPACITY * ROUNDS as u64) as f64,
        fairness,
        inference_accuracy: if backoffs_total == 0 {
            1.0
        } else {
            backoffs_correct as f64 / backoffs_total as f64
        },
        goodput,
        mean_final_cwnd: senders.iter().map(|s| s.cwnd).sum::<f64>() / n,
    }
}

/// Table 1 row for TCP congestion control.
pub fn techniques() -> TechniqueInventory {
    TechniqueInventory::new(
        "TCP",
        &[
            (
                Technique::AlgorithmicKnowledge,
                "Message dropped if congestion",
            ),
            (Technique::MonitorOutputs, "Time before ACK arrives"),
            (Technique::StatisticalMethods, "Mean and variance"),
            (Technique::Feedback, "Routers drop msgs as a signal"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wired_senders_fill_the_link_fairly() {
        let report = run(0.0);
        assert!(
            report.utilization > 0.8,
            "utilization {:.2}",
            report.utilization
        );
        assert!(report.fairness > 0.9, "fairness {:.3}", report.fairness);
    }

    #[test]
    fn single_sender_converges_to_capacity() {
        let report = run(0.0);
        // The AIMD sawtooth over a queue of half the bandwidth-delay
        // product settles with the senders' windows together above half
        // the link (96 packets of 100 here), as one sender's would alone.
        assert!(report.utilization > 0.75, "util {:.3}", report.utilization);
        let aggregate = report.mean_final_cwnd * SENDERS as f64;
        assert!(
            aggregate > CAPACITY as f64 / 2.0,
            "aggregate cwnd {aggregate}"
        );
    }

    #[test]
    fn wired_inference_is_nearly_perfect() {
        let report = run(0.0);
        assert!(
            report.inference_accuracy > 0.99,
            "accuracy {:.3}",
            report.inference_accuracy
        );
    }

    #[test]
    fn wireless_loss_breaks_the_gray_box_assumption() {
        let wired = run(0.0);
        let wireless = run(0.03);
        // Throughput collapses even though the link is mostly idle...
        assert!(
            wireless.utilization < wired.utilization * 0.7,
            "wireless {:.2} vs wired {:.2}",
            wireless.utilization,
            wired.utilization
        );
        // ...because the loss⇒congestion inference is now mostly wrong.
        assert!(
            wireless.inference_accuracy < 0.5,
            "accuracy {:.3}",
            wireless.inference_accuracy
        );
    }

    #[test]
    fn runs_are_deterministic() {
        assert_eq!(run(0.01), run(0.01));
    }

    #[test]
    fn goodput_sums_match_utilization() {
        let report = run(0.0);
        let total: u64 = report.goodput.iter().sum();
        let expected = (report.utilization * (CAPACITY * ROUNDS as u64) as f64) as u64;
        assert!(total.abs_diff(expected) <= 1);
    }
}
