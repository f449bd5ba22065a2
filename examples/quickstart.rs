//! Quickstart: the three ICLs in one tour, on both backends.
//!
//! Run with: `cargo run --example quickstart`
//!
//! The first half runs against the deterministic simulated OS (`simos`) so
//! the cache/layout/memory effects are visible and repeatable; the second
//! half drives the *real* operating system through the `hostos` backend in
//! a temp directory, proving the same library code runs unmodified against
//! an actual kernel.

use graybox_icl::apps::workload::make_files;
use graybox_icl::graybox::fccd::Fccd;
use graybox_icl::graybox::fldc::{Fldc, RefreshOrder};
use graybox_icl::graybox::mac::{Mac, MacParams};
use graybox_icl::graybox::os::{GrayBoxOs, GrayBoxOsExt};
use graybox_icl::simos::{Sim, SimConfig};

fn main() {
    println!("# {}", graybox_icl::PAPER);
    simulated_tour();
    host_tour();
}

fn simulated_tour() {
    println!("\n== Simulated OS tour ==");
    let mut sim = Sim::new(SimConfig::small());

    // --- FCCD: which files are in the cache? -------------------------
    let paths = sim.run_one(|os| make_files(os, "/data", 8, 2 << 20).unwrap());
    sim.flush_file_cache();
    // Warm two files, then ask FCCD to rank all eight.
    let warm = vec![paths[2].clone(), paths[5].clone()];
    sim.run_one({
        let warm = warm.clone();
        move |os| {
            for p in &warm {
                let fd = os.open(p).unwrap();
                os.read_discard(fd, 0, 2 << 20).unwrap();
                os.close(fd).unwrap();
            }
        }
    });
    let ranked = sim.run_one({
        let paths = paths.clone();
        move |os| {
            let params = graybox_icl::graybox::fccd::FccdParams {
                access_unit: 2 << 20,
                prediction_unit: 1 << 20,
                ..Default::default()
            };
            Fccd::new(os, params).classify_files(&paths)
        }
    });
    println!(
        "FCCD: predicted cached = {:?} (separation {:.2})",
        ranked
            .cached
            .iter()
            .map(|r| r.path.as_str())
            .collect::<Vec<_>>(),
        ranked.separation
    );

    // --- FLDC: what order are files laid out on disk? ----------------
    let layout = sim.run_one(|os| {
        let fldc = Fldc::new(os);
        let ranks = fldc.order_directory("/data").unwrap();
        let first = ranks.first().map(|r| (r.path.clone(), r.stat.ino));
        fldc.refresh_directory("/data", RefreshOrder::SmallestFirst)
            .unwrap();
        first
    });
    println!("FLDC: first file in layout order = {layout:?} (directory refreshed)");

    // --- MAC: how much memory is available right now? -----------------
    let estimate = sim.run_one(|os| {
        let mac = Mac::new(
            os,
            MacParams {
                initial_increment: 1 << 20,
                max_increment: 16 << 20,
            },
        );
        mac.available_estimate(128 << 20).unwrap()
    });
    println!("MAC: available memory estimate = {} MB", estimate >> 20);
}

fn host_tour() {
    println!("\n== Real OS tour (hostos) ==");
    let root = std::env::temp_dir().join(format!("graybox-quickstart-{}", std::process::id()));
    let os = graybox_icl::hostos::HostOs::new(&root).expect("temp dir");

    os.mkdir("/demo").unwrap();
    for i in 0..5 {
        os.write_file(
            &format!("/demo/file{i}"),
            format!("contents {i}").as_bytes(),
        )
        .unwrap();
    }
    let fldc = Fldc::new(&os);
    let ranks = fldc.order_directory("/demo").unwrap();
    println!("FLDC on the real FS (i-number order):");
    for r in &ranks {
        println!("  ino {:>10}  {}", r.stat.ino, r.path);
    }

    // Time a warm read through the real page cache with the fast timer.
    let fd = os.open("/demo/file0").unwrap();
    let (_, cold_ish) = os.timed(|o| o.read_byte(fd, 0).unwrap());
    let (_, warm) = os.timed(|o| o.read_byte(fd, 1).unwrap());
    os.close(fd).unwrap();
    println!("hostos probe timings: first {cold_ish}, second {warm}");

    std::fs::remove_dir_all(&root).ok();
    println!("(scratch at {} removed)", root.display());
}
