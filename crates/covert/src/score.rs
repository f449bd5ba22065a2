//! Oracle join and capacity scoring for a channel run.
//!
//! The transmitted message is regenerated from the seed (the oracle side
//! of the join — the channel itself never carries it) and compared bit by
//! bit against what the receiver decoded. The headline number is the
//! **entropy-discounted capacity** in bits per virtual second:
//!
//! ```text
//! capacity = raw_rate · (1 − H₂(BER))
//! ```
//!
//! where `raw_rate = bits / (bits · slot)` is the signalling rate and
//! `H₂` is the binary entropy function — the Shannon capacity of a binary
//! symmetric channel with the measured crossover probability. A BER of
//! 0.5 (the receiver might as well guess) scores zero capacity no matter
//! how fast the slots tick, which is exactly how a defender should be
//! credited.
//!
//! The digest folds only integer-valued fields (received bits, error
//! count, virtual times, flusher activity) so baseline comparisons never
//! depend on floating-point transcendentals.

use gray_toolbox::hash::{fnv, FNV_OFFSET};

use crate::channel::SLOT;

/// Counts positions where `sent` and `received` disagree.
///
/// # Panics
///
/// Panics if the two sides have different lengths — a length mismatch
/// means the receiver lost slot alignment entirely, which the
/// determinism tests must surface, not paper over.
pub fn join_errors(sent: &[bool], received: &[bool]) -> u64 {
    assert_eq!(
        sent.len(),
        received.len(),
        "oracle join requires one received bit per transmitted bit"
    );
    sent.iter().zip(received).filter(|(s, r)| s != r).count() as u64
}

/// Binary entropy H₂(p) in bits; 0 at the endpoints.
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Scores and fingerprints from one executed channel cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelScore {
    /// Human-readable cell coordinates.
    pub label: String,
    /// Message length in bits.
    pub bits: u64,
    /// Bits the receiver decoded wrongly.
    pub errors: u64,
    /// Bit-error rate: `errors / bits`.
    pub ber: f64,
    /// Raw signalling rate in bits per virtual second (one bit per slot).
    pub raw_bps: f64,
    /// Entropy-discounted capacity in bits per virtual second.
    pub capacity_bps: f64,
    /// Virtual time the transmitter spent encoding.
    pub transmitter_work_ns: u64,
    /// Virtual time the defender spent degrading (0 for the idle
    /// baseline) — the defender's cost axis.
    pub defender_work_ns: u64,
    /// Writeback-daemon epochs that fired during the run.
    pub flusher_runs: u64,
    /// Virtual makespan of the whole cell, setup included.
    pub virtual_ns: u64,
    /// Protocol schedule overruns — transmitter and receiver slots (0 on
    /// a sound run). Defenders are interval daemons with no deadline;
    /// they self-pace rather than running late.
    pub late_wakeups: u64,
    /// FNV fingerprint of the run's observable behavior (integer fields
    /// plus every received bit).
    pub digest: u64,
}

impl ChannelScore {
    /// Assembles the score from a run's raw outputs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        label: String,
        received: &[bool],
        errors: u64,
        transmitter_work_ns: u64,
        defender_work_ns: u64,
        flusher_runs: u64,
        virtual_ns: u64,
        late_wakeups: u64,
    ) -> Self {
        let bits = received.len() as u64;
        let ber = if bits == 0 {
            0.0
        } else {
            errors as f64 / bits as f64
        };
        let raw_bps = 1e9 / SLOT.as_nanos() as f64;
        let capacity_bps = raw_bps * (1.0 - binary_entropy(ber)).max(0.0);

        let mut digest = FNV_OFFSET;
        for &b in received {
            digest = fnv(digest, b as u64);
        }
        for v in [
            bits,
            errors,
            transmitter_work_ns,
            defender_work_ns,
            flusher_runs,
            virtual_ns,
            late_wakeups,
        ] {
            digest = fnv(digest, v);
        }

        ChannelScore {
            label,
            bits,
            errors,
            ber,
            raw_bps,
            capacity_bps,
            transmitter_work_ns,
            defender_work_ns,
            flusher_runs,
            virtual_ns,
            late_wakeups,
            digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_counts_disagreements() {
        let sent = vec![true, false, true, false];
        assert_eq!(join_errors(&sent, &sent), 0);
        assert_eq!(join_errors(&sent, &[true, true, true, true]), 2);
        assert_eq!(join_errors(&sent, &[false, true, false, true]), 4);
    }

    #[test]
    #[should_panic(expected = "one received bit per transmitted bit")]
    fn join_rejects_length_mismatch() {
        join_errors(&[true], &[true, false]);
    }

    #[test]
    fn entropy_is_zero_at_endpoints_and_one_at_half() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!((binary_entropy(0.1) - binary_entropy(0.9)).abs() < 1e-12);
    }

    #[test]
    fn capacity_collapses_at_half_ber() {
        let clean = ChannelScore::new("a".into(), &[true; 16], 0, 0, 0, 0, 1, 0);
        let coin = ChannelScore::new("b".into(), &[true; 16], 8, 0, 0, 0, 1, 0);
        assert!((clean.capacity_bps - clean.raw_bps).abs() < 1e-9);
        assert!(coin.capacity_bps < 1e-9, "BER 0.5 must score ~0 capacity");
        assert_ne!(clean.digest, coin.digest);
    }
}
