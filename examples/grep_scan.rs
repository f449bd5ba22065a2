//! The paper's motivating workload: repeated `grep` over a file set that
//! just exceeds the file cache (`grep <arg> *` with different arguments).
//!
//! Run with: `cargo run --example grep_scan`
//!
//! Shows all four orderings side by side — unmodified, gb-grep (FCCD),
//! layout-only (FLDC), and the composed FCCD+FLDC ordering — over repeated
//! warm-cache runs, plus the gbp pipeline for unmodified binaries.

use graybox_icl::apps::gbp::Gbp;
use graybox_icl::apps::grep::{Grep, GrepMode, GrepOptions, Needle};
use graybox_icl::apps::workload::make_files;
use graybox_icl::graybox::fccd::FccdParams;
use graybox_icl::graybox::os::GrayBoxOs;
use graybox_icl::simos::{Sim, SimConfig};

fn params() -> FccdParams {
    FccdParams {
        access_unit: 2 << 20,
        prediction_unit: 1 << 20,
        ..FccdParams::default()
    }
}

fn main() {
    let mut sim = Sim::new(SimConfig::small());
    // 40 x 2 MB = 80 MB of files against a ~56 MB cache.
    let paths = sim.run_one(|os| make_files(os, "/corpus", 40, 2 << 20).unwrap());
    println!("corpus: 40 x 2 MB files; usable memory 56 MB");

    let needle = Needle::SyntheticIn(None);
    let runs = 3;

    for (label, mode) in [
        ("unmodified", GrepMode::Unmodified),
        ("gb-grep (FCCD)", GrepMode::GrayBox(params())),
        ("layout (FLDC)", GrepMode::Layout),
        ("composed (FCCD+FLDC)", GrepMode::Composed(params())),
    ] {
        sim.flush_file_cache();
        let mut last = None;
        for _ in 0..runs {
            let paths = paths.clone();
            let needle = needle.clone();
            let mode = mode.clone();
            let r = sim.run_one(move |os| {
                Grep::new(os, GrepOptions::default())
                    .run(&paths, &needle, &mode)
                    .unwrap()
            });
            last = Some(r);
        }
        let r = last.unwrap();
        println!(
            "{label:<22} warm run: {:>10}  ({} files, {} MB)",
            r.elapsed,
            r.files_scanned,
            r.bytes >> 20
        );
    }

    // The gbp pipeline: unmodified grep consuming `gbp -mem` output.
    sim.flush_file_cache();
    let mut last = None;
    for _ in 0..runs {
        let paths = paths.clone();
        let needle = needle.clone();
        let r = sim.run_one(move |os| {
            let t0 = os.now();
            let ordered = Gbp::new(os, params())
                .order_files(&paths, &GrepMode::GrayBox(params()))
                .unwrap();
            let rep = Grep::new(os, GrepOptions::default())
                .run(&ordered, &needle, &GrepMode::Unmodified)
                .unwrap();
            (os.now().since(t0), rep)
        });
        last = Some(r);
    }
    let (elapsed, rep) = last.unwrap();
    println!(
        "{:<22} warm run: {:>10}  ({} files, {} MB)",
        "gbp | grep",
        elapsed,
        rep.files_scanned,
        rep.bytes >> 20
    );
}
