//! File-system aging and the FLDC directory refresh (the paper's
//! Figure 6 scenario): watch i-number ordering decay as a directory
//! churns, then snap back after a refresh.
//!
//! Run with: `cargo run --example layout_refresh`

use gray_toolbox::rng::StdRng;
use graybox_icl::apps::workload::{age_epoch, make_files, read_files_in_order, shuffled};
use graybox_icl::graybox::fldc::{Fldc, RefreshOrder};
use graybox_icl::simos::{Sim, SimConfig};

fn main() {
    let mut sim = Sim::new(SimConfig::small());
    sim.run_one(|os| make_files(os, "/dir", 100, 8 << 10).unwrap());
    let mut rng = StdRng::seed_from_u64(99);

    println!("epoch  random-order   inumber-order   (100 x 8 KB files, 5 churned per epoch)");
    for epoch in 0..=16u64 {
        if epoch == 12 {
            let n = sim.run_one(|os| {
                Fldc::new(os)
                    .refresh_directory("/dir", RefreshOrder::SmallestFirst)
                    .unwrap()
            });
            println!("---- refresh: rewrote {n} files into a fresh cylinder group ----");
        }
        if epoch > 0 {
            let mut erng = StdRng::seed_from_u64(0x1000 + epoch + rng.random_range(0..1u64 << 32));
            sim.run_one(|os| {
                age_epoch(os, "/dir", 5, 8 << 10, epoch, &mut erng).unwrap();
            });
        }
        let paths: Vec<String> = sim.run_one(|os| {
            use graybox_icl::graybox::os::{GrayBoxOs, GrayBoxOsExt};
            os.list_dir("/dir")
                .unwrap()
                .into_iter()
                .map(|n| os.join("/dir", &n))
                .collect()
        });

        sim.flush_file_cache();
        let random_order = shuffled(&paths, epoch);
        let t_rand = sim.run_one(move |os| read_files_in_order(os, &random_order).unwrap());

        sim.flush_file_cache();
        let scrambled = shuffled(&paths, epoch + 7777);
        let t_ino = sim.run_one(move |os| {
            let (ranks, _) = Fldc::new(os).order_by_inumber(&scrambled);
            let order: Vec<String> = ranks.into_iter().map(|r| r.path).collect();
            read_files_in_order(os, &order).unwrap()
        });

        println!("{epoch:>5}  {t_rand:>12}  {t_ino:>14}");
    }
    println!("\nRandom order stays poor; i-number order degrades with age and");
    println!("returns to fresh performance right after the refresh.");
}
