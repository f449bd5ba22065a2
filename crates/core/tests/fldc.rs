//! FLDC on the simulated OS: i-number order, the six-step refresh and
//! its crash repair, on simos's FFS-like file system.

use gray_toolbox::Nanos;
use graybox::fldc::{Fldc, RefreshOrder};
use graybox::os::{GrayBoxOs, GrayBoxOsExt};
use simos::{Sim, SimConfig, SimProc};

/// Runs `f` as one process on a fresh small machine.
fn on_sim<R>(f: impl FnOnce(&SimProc) -> R) -> R {
    Sim::new(SimConfig::small()).run_one(f)
}

fn populate(os: &SimProc, dir: &str, names: &[&str]) {
    os.mkdir(dir).unwrap();
    for name in names {
        os.write_file(&format!("{dir}/{name}"), name.as_bytes())
            .unwrap();
    }
}

#[test]
fn inumber_order_matches_creation_order() {
    on_sim(|os| {
        populate(os, "/d", &["z", "a", "m"]);
        let ranks = Fldc::new(os).order_directory("/d").unwrap();
        let order: Vec<&str> = ranks.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(order, ["/d/z", "/d/a", "/d/m"]);
    });
}

#[test]
fn missing_files_are_counted_not_fatal() {
    on_sim(|os| {
        populate(os, "/d", &["a"]);
        let (ranks, failed) =
            Fldc::new(os).order_by_inumber(&["/d/a".to_string(), "/d/ghost".to_string()]);
        assert_eq!(ranks.len(), 1);
        assert_eq!(failed, 1);
    });
}

#[test]
fn directory_grouping_preserves_inner_order() {
    on_sim(|os| {
        let paths = ["/b/1", "/a/1", "/b/2", "/a/2"].map(String::from);
        let grouped = Fldc::new(os).order_by_directory(&paths);
        assert_eq!(grouped, ["/a/1", "/a/2", "/b/1", "/b/2"]);
    });
}

#[test]
fn refresh_reassigns_inumbers_smallest_first() {
    on_sim(|os| {
        os.mkdir("/d").unwrap();
        os.write_file("/d/big", &[0u8; 1000]).unwrap();
        os.write_file("/d/small", &[0u8; 10]).unwrap();
        os.write_file("/d/mid", &[0u8; 100]).unwrap();
        let fldc = Fldc::new(os);
        let n = fldc
            .refresh_directory("/d", RefreshOrder::SmallestFirst)
            .unwrap();
        assert_eq!(n, 3);
        let ranks = fldc.order_directory("/d").unwrap();
        let order: Vec<&str> = ranks.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(order, ["/d/small", "/d/mid", "/d/big"]);
    });
}

#[test]
fn refresh_preserves_contents_and_times() {
    on_sim(|os| {
        os.mkdir("/d").unwrap();
        os.write_file("/d/f", b"precious bytes").unwrap();
        os.set_times("/d/f", Nanos::from_secs(11), Nanos::from_secs(22))
            .unwrap();
        Fldc::new(os)
            .refresh_directory("/d", RefreshOrder::SmallestFirst)
            .unwrap();
        // Stat before reading: a read sets the access time.
        let st = os.stat("/d/f").unwrap();
        assert_eq!(st.atime, Nanos::from_secs(11));
        assert_eq!(st.mtime, Nanos::from_secs(22));
        assert_eq!(os.read_to_vec("/d/f").unwrap(), b"precious bytes");
    });
}

#[test]
fn refresh_moves_subdirectories_intact() {
    on_sim(|os| {
        os.mkdir("/d").unwrap();
        os.mkdir("/d/sub").unwrap();
        os.write_file("/d/sub/x", b"deep").unwrap();
        os.write_file("/d/f", b"top").unwrap();
        Fldc::new(os)
            .refresh_directory("/d", RefreshOrder::SmallestFirst)
            .unwrap();
        assert_eq!(os.read_to_vec("/d/sub/x").unwrap(), b"deep");
        assert_eq!(os.read_to_vec("/d/f").unwrap(), b"top");
    });
}

#[test]
fn refresh_leaves_no_temp_directory() {
    on_sim(|os| {
        populate(os, "/d", &["a", "b"]);
        Fldc::new(os)
            .refresh_directory("/d", RefreshOrder::ByName)
            .unwrap();
        assert_eq!(os.list_dir("/").unwrap(), ["d"]);
    });
}

#[test]
fn repair_completes_a_lost_rename() {
    on_sim(|os| {
        // The crash window: temp dir exists, original is gone.
        os.mkdir("/d.gbrefresh").unwrap();
        os.write_file("/d.gbrefresh/f", b"x").unwrap();
        assert_eq!(Fldc::new(os).repair_interrupted_refresh("/").unwrap(), 1);
        assert_eq!(os.read_to_vec("/d/f").unwrap(), b"x");
    });
}

#[test]
fn repair_discards_a_partial_copy() {
    on_sim(|os| {
        populate(os, "/d", &["f"]);
        // Crash before the delete: both directories present.
        os.mkdir("/d.gbrefresh").unwrap();
        os.write_file("/d.gbrefresh/f", b"partial").unwrap();
        assert_eq!(Fldc::new(os).repair_interrupted_refresh("/").unwrap(), 1);
        assert_eq!(os.read_to_vec("/d/f").unwrap(), b"f");
        assert!(os.stat("/d.gbrefresh").is_err());
    });
}

#[test]
fn repair_ignores_unrelated_names() {
    on_sim(|os| {
        populate(os, "/plain", &["f"]);
        assert_eq!(Fldc::new(os).repair_interrupted_refresh("/").unwrap(), 0);
    });
}

#[test]
fn mtime_order_sorts_by_write_time() {
    on_sim(|os| {
        populate(os, "/d", &["a", "b", "c"]);
        // Rewrite in the order c, a, b (mtimes via set_times for clarity).
        for (name, secs) in [("c", 10), ("a", 20), ("b", 30)] {
            os.set_times(
                &format!("/d/{name}"),
                Nanos::from_secs(1),
                Nanos::from_secs(secs),
            )
            .unwrap();
        }
        let paths = ["/d/a", "/d/b", "/d/c"].map(String::from);
        let (ranks, failed) = Fldc::new(os).order_by_mtime(&paths);
        assert_eq!(failed, 0);
        let order: Vec<&str> = ranks.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(order, ["/d/c", "/d/a", "/d/b"]);
    });
}
