//! Reproduction harness for every table and figure in the paper's
//! evaluation.
//!
//! Each experiment is a library function (`fig1::run`, `fig2::run`, …)
//! returning structured rows, so the same code backs the printed tables
//! (each module's `render`, which the one `repro` binary prints: `repro
//! fig2`) and the integration tests that assert the paper's *shape
//! claims* (who wins, by roughly what factor, where crossovers fall).
//! [`EXPERIMENTS`] lists what `repro` can run.
//!
//! Experiments run at two scales:
//!
//! - [`Scale::Small`] (default): a 64 MB-RAM simulated machine; every
//!   workload is scaled by the same factor as the memory, so every ratio
//!   in the paper is preserved while the full suite runs in minutes.
//! - [`Scale::Paper`] (`--full`): the 896 MB / five-disk testbed at the
//!   paper's workload sizes.
//!
//! Every binary reads its command line through one parser,
//! [`Flags::parse`]: `--full`, `--trace [path]` and `--profile [path]`,
//! and nothing else.
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

/// How an experiment runs and renders at a scale.
pub type Render = fn(Scale) -> String;

/// Every experiment the `repro` binary runs, by name, with how it renders;
/// `repro all` prints them all in this order.
pub const EXPERIMENTS: [(&str, Render); 10] = [
    ("table1", |_| tables::render_table1() + "\n"),
    ("table2", |_| tables::render_table2() + "\n"),
    ("fig1", |scale| fig1::render(&fig1::run(scale))),
    ("fig2", |scale| fig2::render(&fig2::run(scale))),
    ("fig3", |scale| fig3::render(&fig3::run(scale))),
    ("fig4", |scale| fig4::render(&fig4::run(scale))),
    ("fig5", |scale| fig5::render(&fig5::run(scale))),
    ("fig6", |scale| fig6::render(&fig6::run(scale))),
    ("fig7", |scale| fig7::render(&fig7::run(scale))),
    ("sleds", |scale| sleds::render(&sleds::run(scale))),
];

/// A binary's command line, as [`Flags::parse`] reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flags {
    /// `--full`: [`Scale::Paper`]; [`Scale::Small`] without it.
    pub scale: Scale,
    /// `--trace [path]`: stream every trace event to `path` as JSONL
    /// (default `gray-trace.jsonl`).
    pub trace: Option<String>,
    /// `--profile [path]`: arm the virtual-time profiler for the whole run
    /// and write its folded stacks (one `path ns` line per leaf,
    /// flamegraph-ready) to `path` (default `gray-profile.folded`).
    pub profile: Option<String>,
}

impl Flags {
    /// The one parser every repro binary uses. Reads `--trace [path]`,
    /// `--profile [path]` and, when `scaled` (an experiment, not a demo),
    /// `--full`; a flag's path is the next argument unless that starts
    /// with `--`. Any other argument is an error, so a typo such as
    /// `--ful` cannot quietly run something else.
    pub fn parse(args: &[String], scaled: bool) -> Result<Flags, String> {
        let mut flags = Flags {
            scale: Scale::Small,
            trace: None,
            profile: None,
        };
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let (slot, default) = match arg.as_str() {
                "--full" if scaled => {
                    flags.scale = Scale::Paper;
                    continue;
                }
                "--trace" => (&mut flags.trace, "gray-trace.jsonl"),
                "--profile" => (&mut flags.profile, "gray-profile.folded"),
                _ => return Err(format!("unknown argument {arg:?}")),
            };
            let path = args.next_if(|path| !path.starts_with("--"));
            *slot = Some(path.map_or(default, String::as_str).to_string());
        }
        Ok(flags)
    }

    /// [`Flags::parse`], or exit with status 2 after printing the error
    /// and `usage` to stderr.
    pub fn parse_or_exit(args: &[String], scaled: bool, usage: &str) -> Flags {
        Flags::parse(args, scaled).unwrap_or_else(|e| {
            eprintln!("{e}\n{usage}");
            std::process::exit(2)
        })
    }
}

/// The captures a binary's flags armed on its main thread, each with the
/// file it ends in; they record until [`Tracing::finish`] ends them.
pub struct Tracing {
    trace: Option<(String, trace::CaptureGuard)>,
    profile: Option<(String, profile::CaptureGuard)>,
}

impl Tracing {
    /// The one place observability is switched on, by flags only: arms a
    /// JSONL trace sink for `--trace` and the profiler for `--profile`.
    pub fn start(flags: &Flags) -> Tracing {
        Tracing {
            profile: flags.profile.clone().map(|path| (path, profile::capture())),
            trace: flags.trace.clone().map(|path| {
                let guard = trace::enable_jsonl(&path)
                    .unwrap_or_else(|e| panic!("cannot open trace sink {path}: {e}"));
                (path, guard)
            }),
        }
    }

    /// Ends the captures — the JSONL sink closes with its footer, the
    /// profile is written as folded stacks — and tells the user where the
    /// output went.
    pub fn finish(self) {
        if let Some((path, guard)) = self.trace {
            drop(guard);
            eprintln!("trace: events written to {path}");
        }
        if let Some((path, _guard)) = self.profile {
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

/// Renders an aligned table: a blank line, `=== title ===`, `header`,
/// then one line per row.
pub fn format_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
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
    let mut out = format!("\n=== {title} ===\n{}\n", fmt_row(&head));
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// The paper-reported reference for an experiment, as one line.
pub fn paper_note(note: &str) -> String {
    format!("--- paper reports: {note}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], scaled: bool) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Flags::parse(&args, scaled)
    }

    #[test]
    fn flags_take_an_optional_path_and_nothing_unknown() {
        let flags = parse(&["--trace", "--full", "--profile", "p.folded"], true).unwrap();
        assert_eq!(flags.scale, Scale::Paper);
        assert_eq!(flags.trace.as_deref(), Some("gray-trace.jsonl"));
        assert_eq!(flags.profile.as_deref(), Some("p.folded"));
        assert_eq!(parse(&[], true).unwrap().scale, Scale::Small);
        assert!(parse(&["--ful"], true).is_err());
        assert!(parse(&["fig2"], true).is_err());
        assert!(parse(&["--full"], false).is_err(), "a demo has one scale");
    }

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert!(!names.contains(&"all"), "`all` is every experiment");
    }
}
