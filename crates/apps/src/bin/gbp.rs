//! `gbp` — the paper's command-line utility, on the real OS.
//!
//! Lets *unmodified* applications benefit from gray-box knowledge:
//!
//! ```text
//! grep foo $(gbp -mem *.log)        # scan cached files first
//! tar cf - $(gbp -file src/*)      # read in on-disk order
//! gbp -mem -out big.dat | wc -c    # intra-file reordering via a pipe
//! ```
//!
//! Modes: `-mem` (FCCD cache order, the default), `-file` (FLDC i-number
//! order), `-compose` (cached first, i-number within groups), `-mtime`
//! (LFS-style write-time order); the last one given wins. Every mode
//! prints every path it was given: `-file` and `-mtime` list the ones
//! they cannot stat last, and FCCD ranks the ones it cannot open with
//! its small-file penalty. With `-out` and exactly one file, streams the
//! file's bytes to stdout in predicted-fastest order instead of printing
//! names. Paths are interpreted relative to the current directory.

use std::io::Write;
use std::process::ExitCode;

use gray_apps::gbp::Gbp;
use gray_apps::grep::GrepMode;
use graybox::fccd::FccdParams;
use graybox::os::OsError;
use hostos::HostOs;

fn usage() -> ExitCode {
    eprintln!("usage: gbp [-mem|-file|-compose|-mtime] [-out] <files...>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Real-OS probing wants real timing behavior: keep the paper's default
    // unit sizes.
    let params = FccdParams::default();
    let mut mode = GrepMode::GrayBox(params.clone());
    let mut out = false;
    let mut files = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "-mem" => mode = GrepMode::GrayBox(params.clone()),
            "-file" => mode = GrepMode::Layout,
            "-compose" => mode = GrepMode::Composed(params.clone()),
            "-mtime" => mode = GrepMode::WriteTime,
            "-out" => out = true,
            _ if a.starts_with('-') => return usage(),
            _ => files.push(a),
        }
    }
    if files.is_empty() {
        return usage();
    }
    let os = match HostOs::new(std::env::current_dir().expect("cwd")) {
        Ok(os) => os,
        Err(e) => {
            eprintln!("gbp: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Host paths are confined under the cwd root; present them as
    // absolute gray-box paths.
    let gb_paths: Vec<String> = files.iter().map(|f| format!("/{f}")).collect();
    // The host pays the real fork/exec and pipe costs: charge no modelled
    // ones.
    let mut gbp = Gbp::new(&os, params);
    gbp.model_cpu = false;

    if out {
        if gb_paths.len() != 1 {
            eprintln!("gbp: -out takes exactly one file");
            return ExitCode::from(2);
        }
        // A failed write (full disk, closed pipe) ends the stream: the
        // caller must not take a truncated copy for the whole file.
        let mut stdout = std::io::stdout().lock();
        let io_error = |e: std::io::Error| OsError::Io(e.to_string());
        let streamed = gbp
            .stream_file(&gb_paths[0], |_off, bytes| {
                stdout.write_all(bytes).map_err(io_error)
            })
            .and_then(|_| stdout.flush().map_err(io_error));
        match streamed {
            Ok(()) => return ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gbp: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    match gbp.order_files(&gb_paths, &mode) {
        Ok(list) => {
            for p in list {
                // Strip the synthetic leading slash back off.
                println!("{}", p.trim_start_matches('/'));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gbp: {e}");
            ExitCode::FAILURE
        }
    }
}
