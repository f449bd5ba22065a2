//! Prints one of the paper's tables or figures, or all of them.
//!
//! ```text
//! repro <experiment> [--full] [--trace [path]] [--profile [path]]
//! ```
//!
//! The experiments are `repro::EXPERIMENTS` (`table1`, `table2`,
//! `fig1`–`fig7`, `sleds`) and `all`, which prints every one in that
//! order. Output is virtual time only, so two runs print the same bytes;
//! `results/` holds each experiment's output. With no experiment, or an
//! unknown one, the list goes to stderr and the exit status is 2.

use repro::{Flags, Tracing, EXPERIMENTS};

fn main() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let usage = format!(
        "usage: repro <experiment> [--full] [--trace [path]] [--profile [path]]\n\
         experiments: {} all",
        names.join(" ")
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let runs: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(n, _)| name == "all" || n == name)
        .collect();
    if runs.is_empty() {
        eprintln!("unknown experiment {name:?}\n{usage}");
        std::process::exit(2);
    }
    let flags = Flags::parse_or_exit(&args[1..], true, &usage);
    let tracing = Tracing::start(&flags);
    for (_, render) in runs {
        print!("{}", render(flags.scale));
    }
    tracing.finish();
}
