//! Reproduction harness for every table and figure in the paper's
//! evaluation.
//!
//! Each experiment is a library function (`fig1::run`, `fig2::run`, …)
//! returning structured rows, so the same code backs the printable
//! binaries (`cargo run -p repro --bin fig2`) and the integration tests
//! that assert the paper's *shape claims* (who wins, by roughly what
//! factor, where crossovers fall).
//!
//! Experiments run at two scales:
//!
//! - [`Scale::Small`] (default): a 64 MB-RAM simulated machine; every
//!   workload is scaled by the same factor as the memory, so every ratio
//!   in the paper is preserved while the full suite runs in minutes.
//! - [`Scale::Paper`] (`--full`): the 896 MB / five-disk testbed at the
//!   paper's workload sizes.
//!
//! Absolute numbers are not expected to match the paper (this substrate is
//! a simulator, not the authors' hardware); EXPERIMENTS.md records the
//! side-by-side comparison.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod sleds;
pub mod tables;

use gray_toolbox::{profile, trace, GrayDuration};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down machine and workloads (default; minutes for the suite).
    Small,
    /// The paper's testbed and workload sizes (`--full`; much slower).
    Paper,
}

impl Scale {
    /// Parses `--full` from a binary's argument list.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Paper
        } else {
            Scale::Small
        }
    }

    /// The simulator configuration for this scale (Linux personality).
    pub fn sim_config(self) -> simos::SimConfig {
        match self {
            Scale::Small => simos::SimConfig::small(),
            Scale::Paper => simos::SimConfig::paper(),
        }
    }

    /// Number of repetitions per measured point (the paper uses 30).
    pub fn trials(self) -> usize {
        match self {
            Scale::Small => 5,
            Scale::Paper => 30,
        }
    }

    /// A convenient workload scaling factor: bytes at paper scale are
    /// multiplied by this to get bytes at this scale (derived from the
    /// memory ratio, e.g. 64 MB / 896 MB = 1/14).
    pub fn bytes(self, paper_bytes: u64) -> u64 {
        match self {
            Scale::Paper => paper_bytes,
            Scale::Small => (paper_bytes / 14).max(4096),
        }
    }

    /// FCCD parameters proportioned to this scale (paper: 20 MB access
    /// units, 5 MB prediction units).
    pub fn fccd_params(self) -> graybox::fccd::FccdParams {
        graybox::fccd::FccdParams {
            access_unit: self.bytes(20 << 20).next_multiple_of(4096),
            prediction_unit: self.bytes(5 << 20).next_multiple_of(4096),
            ..graybox::fccd::FccdParams::default()
        }
    }
}

/// The captures a binary's flags armed on its main thread, each with the
/// file it ends in; they record until [`finish_tracing`] ends them.
pub struct Tracing {
    trace: Option<(String, trace::CaptureGuard)>,
    profile: Option<(String, profile::CaptureGuard)>,
}

/// The one place observability is switched on, by flags only:
/// `--trace <path>` streams every trace event to `path` as JSONL (default
/// `gray-trace.jsonl`); `--profile <path>` (default `gray-profile.folded`)
/// arms the virtual-time profiler for the whole run, and
/// [`finish_tracing`] writes the folded-stack attribution (one `path ns`
/// line per leaf, flamegraph-ready) there.
pub fn init_tracing() -> Tracing {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str, default: &str| {
        let pos = args.iter().position(|a| a == name)?;
        let path = args.get(pos + 1).filter(|p| !p.starts_with("--"));
        Some(path.cloned().unwrap_or_else(|| default.to_string()))
    };
    Tracing {
        profile: flag("--profile", "gray-profile.folded").map(|path| (path, profile::capture())),
        trace: flag("--trace", "gray-trace.jsonl").map(|path| {
            let guard = trace::enable_jsonl(&path)
                .unwrap_or_else(|e| panic!("cannot open trace sink {path}: {e}"));
            (path, guard)
        }),
    }
}

/// Ends the captures [`init_tracing`] armed — the JSONL sink closes with
/// its footer — and tells the user where the output went.
pub fn finish_tracing(tracing: Tracing) {
    if let Some((path, guard)) = tracing.trace {
        drop(guard);
        eprintln!("trace: events written to {path}");
    }
    if let Some((path, _guard)) = tracing.profile {
        let snap = profile::snapshot();
        match std::fs::write(&path, snap.folded()) {
            Ok(()) => eprintln!(
                "profile: {} virtual ns attributed; folded stacks written to {path}",
                snap.total_ns
            ),
            Err(e) => eprintln!("profile: cannot write {path}: {e}"),
        }
    }
}

/// Statistics of repeated trials, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialStats {
    /// Mean of the trials.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
}

impl TrialStats {
    /// Summarizes durations.
    pub fn of(times: &[GrayDuration]) -> TrialStats {
        let secs: Vec<f64> = times.iter().map(|t| t.as_secs_f64()).collect();
        let s = gray_toolbox::Summary::new(&secs);
        TrialStats {
            mean: s.mean(),
            stddev: s.stddev(),
        }
    }
}

impl std::fmt::Display for TrialStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:8.3}s ±{:6.3}", self.mean, self.stddev)
    }
}

/// Prints an aligned table: `header` then one row per entry.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8) + 2))
            .collect::<String>()
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Prints the paper-reported reference for an experiment.
pub fn print_paper_note(note: &str) {
    println!("--- paper reports: {note}");
}
