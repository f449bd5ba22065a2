//! The FCCD + FLDC composition on the simulated OS: predicted-cached
//! files first, each group in i-number order.
//!
//! FCCD's units are sized past simos's 32-page readahead window, as in
//! `tests/fccd.rs`.

mod common;

use common::{cold_machine, warm};
use graybox::compose::ComposedOrderer;
use graybox::fccd::{Fccd, FccdParams};
use graybox::fldc::Fldc;

const AU: u64 = 1 << 20;

fn small_params() -> FccdParams {
    FccdParams {
        access_unit: AU,
        prediction_unit: AU / 4,
        ..FccdParams::default()
    }
}

fn names(order: &[graybox::compose::ComposedRank]) -> Vec<&str> {
    order.iter().map(|r| r.path.as_str()).collect()
}

#[test]
fn cached_first_then_inumber_order_within_groups() {
    // Created (i-number) order: f0, f1, f2, f3.
    let files = ["/f0", "/f1", "/f2", "/f3"].map(|p| (p, 2 * AU));
    let mut sim = cold_machine(&files);
    // Warm f3 and f1: the cached group must come out in i-number order
    // (f1 before f3) whatever order the probes found them in.
    warm(&mut sim, "/f3", 0, 2 * AU);
    warm(&mut sim, "/f1", 0, 2 * AU);
    // Present the paths scrambled.
    let scrambled = ["/f2", "/f3", "/f0", "/f1"].map(String::from);
    let order = sim.run_one(|os| {
        let (fccd, fldc) = (Fccd::new(os, small_params()), Fldc::new(os));
        ComposedOrderer::new(&fccd, &fldc).order_files(&scrambled)
    });
    let order = order.unwrap();
    assert_eq!(names(&order), ["/f1", "/f3", "/f0", "/f2"]);
    assert!(order[0].predicted_cached && order[1].predicted_cached);
    assert!(!order[2].predicted_cached && !order[3].predicted_cached);
}

/// The finding of `classify_all_cold_splits_the_misses` (`tests/fccd.rs`)
/// seen through the composition. On the mock OS every miss cost the same,
/// FCCD trusted no split, and an all-cold set fell back to pure i-number
/// order. On simos the misses spread with seek distance and rotational
/// position, FCCD calls the faster ones cached, and the fallback never
/// happens; i-number order still holds inside each group. ROADMAP item 4
/// ("don't know") owns the fix, which restores the pure order.
#[test]
fn all_cold_splits_then_orders_each_group_by_inumber() {
    let files = ["/f0", "/f1", "/f2"].map(|p| (p, 2 * AU));
    let mut sim = cold_machine(&files);
    let scrambled = ["/f2", "/f0", "/f1"].map(String::from);
    let order = sim.run_one(|os| {
        let (fccd, fldc) = (Fccd::new(os, small_params()), Fldc::new(os));
        ComposedOrderer::new(&fccd, &fldc).order_files(&scrambled)
    });
    let order = order.unwrap();
    for cached in [true, false] {
        let group: Vec<u64> = order
            .iter()
            .filter(|r| r.predicted_cached == cached)
            .map(|r| r.ino.unwrap())
            .collect();
        assert!(group.is_sorted(), "{:?}", names(&order));
    }
    assert!(
        order.iter().any(|r| r.predicted_cached),
        "the all-cold split is no longer trusted; restore the pure i-number order: {:?}",
        names(&order)
    );
}

#[test]
fn vanished_files_keep_a_place_in_the_ordering() {
    let mut sim = cold_machine(&[("/real", 2 * AU)]);
    let order = sim.run_one(|os| {
        let (fccd, fldc) = (Fccd::new(os, small_params()), Fldc::new(os));
        ComposedOrderer::new(&fccd, &fldc).order_files(&["/real".to_string(), "/ghost".to_string()])
    });
    let order = order.unwrap();
    assert_eq!(order.len(), 2);
    assert!(order.iter().any(|r| r.path == "/ghost" && r.ino.is_none()));
}
