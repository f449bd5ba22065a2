//! WBD on the simulated OS: calibration, residue estimates and the
//! flushed verdict, checked against the oracle's dirty-page count.
//!
//! A simos `sync` costs a seek and rotational wait per written run plus
//! media transfer per page, and creating a file dirties metadata pages
//! (the inode table) beside its data. WBD's straight line through two
//! syncs therefore reads small residues high: 18 dirty pages read as
//! 25–46 at its own 16-page calibration size. The exact arithmetic of the
//! fit is `WbdCalibration::from_syncs`'s unit test; here the estimate is
//! held to what the covert channel decides with it, "at least half".

use gray_toolbox::GrayDuration;
use graybox::os::GrayBoxOsExt;
use graybox::wbd::{Wbd, WbdParams};
use simos::disk::{BANDWIDTH, SEEK_AVG};
use simos::{Sim, SimConfig, PAGE_SIZE};

fn small_params() -> WbdParams {
    WbdParams {
        calib_pages: 16,
        ..WbdParams::default()
    }
}

#[test]
fn calibration_learns_the_per_page_sync_cost() {
    let cal = Sim::new(SimConfig::small()).run_one(|os| Wbd::new(os, small_params()).calibrate());
    let cal = cal.unwrap();
    let transfer = GrayDuration::from_secs_f64(PAGE_SIZE as f64 / BANDWIDTH as f64);
    // A clean sync writes nothing; the slope costs at least one page's
    // media transfer and, amortized over the run, less than a seek.
    assert!(cal.clean_sync < transfer, "{cal:?}");
    assert!((transfer..SEEK_AVG).contains(&cal.page_cost), "{cal:?}");
}

#[test]
fn residue_estimates_the_dirty_page_count() {
    let mut sim = Sim::new(SimConfig::small());
    let oracle = sim.oracle();
    sim.run_one(|os| {
        let wbd = Wbd::new(os, small_params());
        let cal = wbd.calibrate().unwrap();
        os.write_file("/f", &vec![0u8; 8 * PAGE_SIZE as usize])
            .unwrap();
        let dirty = oracle.dirty_pages() as u64;
        assert!(dirty >= 8, "the data pages and their metadata: {dirty}");
        let estimate = wbd.residue_pages(&cal).unwrap();
        assert!(estimate * 2 >= dirty, "{estimate} for {dirty} dirty pages");
        // The probe was destructive: the residue it measured is gone.
        assert_eq!(oracle.dirty_pages(), 0);
        assert_eq!(wbd.residue_pages(&cal).unwrap(), 0);
    });
}

#[test]
fn flushed_flips_once_the_residue_is_drained() {
    Sim::new(SimConfig::small()).run_one(|os| {
        let wbd = Wbd::new(os, small_params());
        let cal = wbd.calibrate().unwrap();
        os.write_file("/f", &vec![0u8; 8 * PAGE_SIZE as usize])
            .unwrap();
        assert!(!wbd.flushed(&cal, 8).unwrap(), "residue still present");
        assert!(wbd.flushed(&cal, 8).unwrap(), "probe drained it");
    });
}

#[test]
#[should_panic(expected = "at least one calibration page")]
fn inconsistent_params_panic() {
    Sim::new(SimConfig::small()).run_one(|os| {
        let params = WbdParams {
            calib_pages: 0,
            ..WbdParams::default()
        };
        let _ = Wbd::new(os, params);
    });
}
