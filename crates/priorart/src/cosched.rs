//! Implicit coscheduling as a gray-box system (paper Section 3).
//!
//! Fine-grain parallel jobs on a time-shared cluster need their processes
//! scheduled *simultaneously*. Implicit coscheduling achieves this without
//! touching the OS: hard-wired into each waiting process is the knowledge
//! that **receiving a prompt response means the partner is scheduled right
//! now** (and a slow response means it probably is not), so a waiter
//! spin-waits for roughly a context-switch-plus-round-trip before
//! blocking. Spinning keeps the waiter scheduled exactly when its partner
//! is too, which reinforces coordination (feedback through the local
//! scheduler's own policy).
//!
//! The model: [`NODES`] nodes, each time-slicing one parallel process
//! against [`BACKGROUND`] local processes (round-robin, [`TIMESLICE`]
//! ticks). The parallel job alternates [`COMPUTE`] ticks with a
//! barrier-style message exchange with a partner. A blocked process is rescheduled at
//! its node's next slice boundary; a spinning process holds the CPU. The
//! two policies compared are *immediate block* and *two-phase spin-block*
//! with the gray-box spin threshold.

use graybox::technique::{Technique, TechniqueInventory};

/// Waiting policy at a communication point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Block immediately: always yield, pay a wakeup latency.
    BlockImmediately,
    /// Spin up to the threshold (in ticks), then block — the implicit
    /// coscheduling policy. The threshold encodes the gray-box knowledge:
    /// spin just long enough to cover a round trip if the partner is
    /// scheduled.
    SpinBlock {
        /// Maximum ticks to spin before blocking.
        spin: u32,
    },
}

/// Number of nodes (one parallel process per node).
pub const NODES: usize = 8;

/// Local background processes per node.
pub const BACKGROUND: usize = 2;

/// Scheduler time slice in ticks.
pub const TIMESLICE: u32 = 100;

/// Ticks of computation between communication events.
pub const COMPUTE: u32 = 5;

/// One-way message latency in ticks.
pub const LATENCY: u32 = 1;

/// Cost of a block/wakeup in ticks.
pub const WAKEUP_COST: u32 = 20;

/// Number of barrier iterations the job performs.
pub const ITERATIONS: u32 = 300;

/// The gray-box spin threshold: a round trip plus one context switch —
/// "if the partner is scheduled, the response arrives within this".
pub const BASELINE_SPIN: u32 = 2 * LATENCY + WAKEUP_COST + COMPUTE;

/// Result of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoschedReport {
    /// Total ticks until the job finished.
    pub makespan: u64,
    /// Slowdown versus the dedicated-machine ideal.
    pub slowdown: f64,
    /// Fraction of waits where spinning paid off (response arrived within
    /// the spin window) — the inference hit rate.
    pub spin_hits: f64,
    /// Number of blocks taken.
    pub blocks: u64,
}

/// State of one node's scheduler.
#[derive(Debug, Clone)]
struct Node {
    /// Offset of this node's round-robin rotation (ticks).
    phase: u64,
}

/// Runs the barrier-structured job under the given waiting policy.
///
/// The simulation is analytic per barrier iteration. Per node it tracks
/// when the parallel process is next available and whether it currently
/// *holds* the CPU (it does after a successful spin; otherwise it must
/// wait for its next round-robin slice, or — after a message-triggered
/// wakeup — pay the wakeup cost, modelling the priority boost local
/// schedulers give freshly woken processes).
pub fn run(policy: WaitPolicy) -> CoschedReport {
    let slots = (BACKGROUND + 1) as u64;
    let period = slots * TIMESLICE as u64;
    // Deterministic skewed phases: uncoordinated local schedulers.
    let nodes: Vec<Node> = (0..NODES)
        .map(|i| Node {
            phase: (i as u64 * 37) % period,
        })
        .collect();

    let in_slice =
        |node: &Node, t: u64| -> bool { ((t + period - node.phase) % period) < TIMESLICE as u64 };
    let next_slice = |node: &Node, t: u64| -> u64 {
        if in_slice(node, t) {
            t
        } else {
            let into = (t + period - node.phase) % period;
            t + (period - into)
        }
    };

    let mut avail = [0u64; NODES];
    // Whether the process holds the CPU at its avail time.
    let mut holding = [false; NODES];
    let mut spin_hits = 0u64;
    let mut spin_tries = 0u64;
    let mut blocks = 0u64;

    for _ in 0..ITERATIONS {
        // Compute phase.
        let mut ready = [0u64; NODES];
        for (i, node) in nodes.iter().enumerate() {
            let start = if holding[i] {
                avail[i]
            } else {
                next_slice(node, avail[i])
            };
            ready[i] = start + COMPUTE as u64;
        }
        // Barrier: complete when the slowest participant's message lands.
        let barrier_done = *ready.iter().max().expect("nodes >= 2") + LATENCY as u64;

        for i in 0..NODES {
            let wait = barrier_done.saturating_sub(ready[i]);
            match policy {
                WaitPolicy::BlockImmediately => {
                    if wait == 0 {
                        // The slowest node never waits; it keeps the CPU.
                        holding[i] = true;
                        avail[i] = barrier_done;
                    } else {
                        blocks += 1;
                        holding[i] = true; // Woken with a priority boost...
                        avail[i] = barrier_done + WAKEUP_COST as u64; // ...after the wakeup cost.
                    }
                }
                WaitPolicy::SpinBlock { spin } => {
                    spin_tries += 1;
                    if wait <= spin as u64 {
                        spin_hits += 1;
                        holding[i] = true;
                        avail[i] = barrier_done;
                    } else {
                        blocks += 1;
                        holding[i] = true;
                        avail[i] = barrier_done + WAKEUP_COST as u64;
                    }
                }
            }
        }
    }

    let makespan = *avail.iter().max().expect("nodes >= 2");
    let ideal = ITERATIONS as u64 * (COMPUTE as u64 + LATENCY as u64);
    CoschedReport {
        makespan,
        slowdown: makespan as f64 / ideal as f64,
        spin_hits: if spin_tries == 0 {
            0.0
        } else {
            spin_hits as f64 / spin_tries as f64
        },
        blocks,
    }
}

/// Table 1 row for implicit coscheduling.
pub fn techniques() -> TechniqueInventory {
    TechniqueInventory::new(
        "Implicit cosched",
        &[
            (
                Technique::AlgorithmicKnowledge,
                "Dest. scheduled to send msg",
            ),
            (Technique::MonitorOutputs, "Arrival of requests, resp. time"),
            (Technique::Microbenchmarks, "Round-trip time"),
            (Technique::KnownState, "Required for benchmarks"),
            (Technique::Feedback, "All react to same observations"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_block_beats_immediate_block() {
        let block = run(WaitPolicy::BlockImmediately);
        let spin = run(WaitPolicy::SpinBlock {
            spin: BASELINE_SPIN,
        });
        assert!(
            spin.makespan < block.makespan / 2,
            "spin {} vs block {}",
            spin.makespan,
            block.makespan
        );
    }

    #[test]
    fn dedicated_machine_has_low_slowdown() {
        let spin = run(WaitPolicy::SpinBlock {
            spin: BASELINE_SPIN,
        });
        // Spinning coordinates the job even against two background
        // processes a node: it runs near the dedicated-machine ideal
        // (1.11x here, blocking 4.44x).
        assert!(spin.slowdown < 1.5, "slowdown {:.2}", spin.slowdown);
    }

    #[test]
    fn spinning_mostly_pays_once_coordinated() {
        let spin = run(WaitPolicy::SpinBlock {
            spin: BASELINE_SPIN,
        });
        assert!(spin.spin_hits > 0.9, "hit rate {:.2}", spin.spin_hits);
    }

    #[test]
    fn tiny_spin_degenerates_to_blocking() {
        let tiny = run(WaitPolicy::SpinBlock { spin: 0 });
        let block = run(WaitPolicy::BlockImmediately);
        assert!(
            tiny.makespan >= block.makespan * 9 / 10,
            "a zero spin window cannot beat blocking: {} vs {}",
            tiny.makespan,
            block.makespan
        );
        assert!(tiny.blocks > 0);
    }

    #[test]
    fn deterministic_replay() {
        let a = run(WaitPolicy::BlockImmediately);
        let b = run(WaitPolicy::BlockImmediately);
        assert_eq!(a, b);
    }
}
