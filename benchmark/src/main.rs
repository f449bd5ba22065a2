//! `graybench`: the repository's benchmark.
//!
//! ```text
//! graybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! graybench --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]
//! graybench --compare <a.json> <b.json>
//! graybench --list | --describe
//! ```
//!
//! With `--workload` it runs that workload in this process and prints two
//! lines of JSON: the details of the run (digest, failed checks, the
//! per-slice rates) and, last, `{"correct", "attempted", "failed",
//! "metrics"}` with every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`). Without `--workload` it runs every
//! workload in a child process of its own, so that `peak_rss_mb` is per
//! workload, and prints one document with all of them, which is what
//! `--compare` reads. The exit code is 0 only if every output check held.
//! `--list` names the workloads; `--describe` prints `BENCHMARK.json`.

mod catalog;
mod compare;
mod json;
mod ladder;
mod report;
mod span;
mod stat;
mod workloads;

use std::process::{Command, ExitCode};

use workloads::Ctx;

const USAGE: &str = "usage: graybench [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] | --compare <a.json> <b.json> | --list | --describe";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number of seconds from above 0 to 3600")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Pins glibc's malloc policy, which otherwise decided `peak_rss_mb` by
/// chance:
///
/// - At most one arena per thread the benchmark ever runs at once (this
///   one and two pool workers). `Pool::map` starts fresh threads on every
///   call, and uncapped, which arena a new thread is handed, and whether
///   one more is created for it, is a race that moved `covert_grid`'s peak
///   by a quarter between identical runs. (One arena for all would
///   serialise the workers and cost it two thirds of its throughput.)
/// - No allocation takes the `mmap` path and the heap is never trimmed.
///   glibc moves its `mmap` threshold when a mapped block is freed, so
///   whether `fleet_probe`'s 16 384 coroutine stacks were mapped or carved
///   from the heap depended on the order they finished in: 260 to 460 MB.
///   Pinned, it is 270 MB within one percent, at the same throughput.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_policy() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain integers, keeps no pointer, and is called before any other
    // thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 3);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_policy() {}

/// Hands the freed part of the heap back to the kernel. Workloads whose
/// rounds each build and drop a whole machine call it between rounds, so
/// that `peak_rss_mb` is the peak of one round and not of however many
/// rounds' freed pages the heap still holds.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes one integer and only returns free heap
    // pages to the kernel; no pointer of ours is involved.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_freed_memory() {}

fn main() -> ExitCode {
    pin_malloc_policy();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--compare") => {
            return match argv.as_slice() {
                [_, a, b] => compare::main(a, b),
                _ => usage("--compare takes two files"),
            }
        }
        Some("--describe") => {
            println!("{}", catalog::describe());
            return ExitCode::SUCCESS;
        }
        Some("--list") => {
            for w in &workloads::ALL {
                println!("{}\t{}\t{}", w.name, w.op, w.why);
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    match &args.workload {
        Some(name) => match workloads::ALL.iter().find(|w| w.name == name) {
            Some(w) => {
                let report = report::run(w, &ctx, args.trace);
                println!("{}", report.detail);
                println!("{}", report.result);
                if report.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            None => usage(&format!("unknown workload {name}; --list names them")),
        },
        None => all(&args),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("graybench: {problem}\n{USAGE}");
    ExitCode::from(2)
}

/// Runs every workload in a child process and prints one document.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("graybench: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut members = Vec::new();
    for w in &workloads::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child, so none outlives this process.
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("graybench: cannot start {}: {e}", w.name);
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines = stdout.lines().rev();
        let (result, detail) = (lines.next(), lines.next());
        match (result, detail) {
            (Some(result), Some(detail)) if json::parse(result).is_ok() => {
                ok &= out.status.success();
                members.push(format!(
                    "{}:{{\"detail\":{detail},\"result\":{result}}}",
                    json::quote(w.name)
                ));
            }
            _ => {
                eprintln!(
                    "graybench: {} printed no result ({}): {}",
                    w.name,
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                );
                ok = false;
            }
        }
    }
    println!(
        "{{\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"workloads\":{{{}}}}}",
        args.seed,
        json::num(args.seconds),
        args.trace as u8,
        args.smoke,
        members.join(",")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
