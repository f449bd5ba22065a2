//! The covert/defender scenario grid: platform × channel × defender.
//!
//! The main scenario matrix (`simos::scenario::matrix`) sweeps the
//! *cooperative* axes — platform, aging, noise, workload mix. The covert
//! axes are adversarial and depend on the ICL layer (`graybox::wbd`), so
//! the grid lives here, above both: `simos` cannot depend on `covert`
//! without a cycle, and a channel cell is a different experiment from a
//! fleet cell anyway. The machinery mirrors the matrix exactly — fixed
//! axis expansion order, per-cell seeds by splitmix64, pool-parallel
//! execution with nothing shared between cells, and a grid digest that is
//! bit-identical for 1 worker or N.

use gray_toolbox::pool::{self, JobPanic, Pool};
use gray_toolbox::rng::splitmix64;
use simos::Platform;

use crate::channel::{ChannelKind, ChannelSpec};
use crate::defender::DefenderKind;
use crate::score::ChannelScore;

/// The platforms to sweep and the message to send. Every grid sweeps
/// both channels ([`ChannelKind::ALL`]) against every defender
/// ([`DefenderKind::ALL`]), at the channel's one slot length and group
/// size.
#[derive(Debug, Clone)]
pub struct CovertGridConfig {
    /// Platform cache policies to sweep.
    pub platforms: Vec<Platform>,
    /// Message length in bits.
    pub bits: usize,
    /// Grid seed; each cell derives its own seed from this and its index.
    pub seed: u64,
}

impl CovertGridConfig {
    /// The full baseline grid: 3 platforms × 2 channels × 3 defenders =
    /// 18 cells, 32 bits each.
    pub fn full() -> Self {
        CovertGridConfig {
            platforms: vec![
                Platform::LinuxLike,
                Platform::NetBsdLike,
                Platform::SolarisLike,
            ],
            bits: 32,
            seed: 0x636F_7665_7274, // "covert"
        }
    }

    /// A small grid for CI smoke runs: the quiet platform only, both
    /// channels, all defenders, 16 bits (6 cells).
    pub fn smoke() -> Self {
        CovertGridConfig {
            platforms: vec![Platform::LinuxLike],
            bits: 16,
            ..CovertGridConfig::full()
        }
    }

    /// Number of cells the config expands to.
    pub fn cells(&self) -> usize {
        self.platforms.len() * ChannelKind::ALL.len() * DefenderKind::ALL.len()
    }

    /// Expands the cross product into self-contained cell specs, in a
    /// fixed axis order (platform outermost, defender innermost).
    pub fn expand(&self) -> Vec<ChannelSpec> {
        let mut specs = Vec::with_capacity(self.cells());
        for &platform in &self.platforms {
            for channel in ChannelKind::ALL {
                for defender in DefenderKind::ALL {
                    let index = specs.len();
                    let mut state = self.seed ^ (index as u64).wrapping_mul(0x9E37);
                    let seed = splitmix64(&mut state);
                    specs.push(ChannelSpec {
                        index,
                        platform,
                        channel,
                        defender,
                        bits: self.bits,
                        seed,
                    });
                }
            }
        }
        specs
    }
}

/// Runs every cell of `cfg` through `pool`, returning results in grid
/// order. A panicking cell yields a structured [`JobPanic`] in its own
/// slot; sibling cells are unaffected. Output is worker-count-invariant.
/// The returned [`ChannelScore`]s are the one home of each cell's bit and
/// error tallies, capacity and BER.
pub fn run_grid(cfg: &CovertGridConfig, pool: &Pool) -> Vec<Result<ChannelScore, JobPanic>> {
    pool.map(cfg.expand(), |_idx, spec| spec.run())
}

/// One fingerprint for a whole grid run — what the bench baseline pins
/// across worker counts. Panicked cells fold in their index and message,
/// so even failure modes are compared deterministically.
pub fn grid_digest(cells: &[Result<ChannelScore, JobPanic>]) -> u64 {
    pool::grid_digest(cells, |c| c.digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CovertGridConfig {
        CovertGridConfig {
            platforms: vec![Platform::LinuxLike],
            bits: 8,
            seed: 11,
        }
    }

    #[test]
    fn expansion_is_stable_and_complete() {
        let cfg = CovertGridConfig::full();
        let specs = cfg.expand();
        assert_eq!(specs.len(), cfg.cells());
        assert_eq!(specs.len(), 18);
        let labels: std::collections::BTreeSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len(), "labels must be unique");
        assert_eq!(cfg.expand(), specs, "expansion must be deterministic");
        let seeds: std::collections::BTreeSet<u64> = specs.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), specs.len());
    }

    #[test]
    fn grid_is_worker_count_invariant() {
        let cfg = tiny();
        let one = run_grid(&cfg, &Pool::with_workers(1));
        let two = run_grid(&cfg, &Pool::with_workers(2));
        assert_eq!(one, two);
        assert_eq!(grid_digest(&one), grid_digest(&two));
        assert_eq!(one.len(), cfg.cells());
    }
}
