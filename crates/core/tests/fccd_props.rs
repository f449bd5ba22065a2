//! Property-based tests for the FCCD planner, on the in-tree
//! deterministic harness (`gray_toolbox::prop`): plan geometry OS-free,
//! probing on the simulated OS.

mod common;

use common::{cold_machine, warm};
use gray_toolbox::prop::{check, Gen};
use gray_toolbox::Nanos;
use graybox::fccd::{Fccd, FccdParams, FccdPlanner};
use graybox::os::GrayBoxOs;

/// The plan's extents must partition [0, size) exactly: no gaps, no
/// overlap, regardless of file size, unit sizes, or alignment.
#[test]
fn plan_partitions_the_file() {
    check("plan_partitions_the_file", 64, |g: &mut Gen| {
        let size = g.u64(1..3_000_000);
        let access_kb = g.u64(1..512);
        let pred_div = g.u64(1..8);
        let align = g.select(&[1u64, 100, 512, 4096]);
        let access_unit = access_kb * 1024;
        let prediction_unit = (access_unit / pred_div).max(1);
        let params = FccdParams {
            access_unit,
            prediction_unit,
            align,
            ..FccdParams::default()
        };
        let units = FccdPlanner::new(params, Nanos::ZERO).access_units(size);
        // Partition: contiguous from 0, total = size.
        let mut expected_offset = 0u64;
        for &(off, len) in &units {
            assert_eq!(off, expected_offset);
            assert!(len > 0);
            expected_offset += len;
        }
        assert_eq!(expected_offset, size);
        // All boundaries except EOF are aligned.
        for &(off, _) in &units {
            assert_eq!(off % align, 0, "unaligned boundary at {}", off);
        }
    });
}

/// Sorting by probe time ranks every fully-resident unit strictly before
/// every cold unit. Units are four 64-page prediction units: a warmed
/// unit's readahead spills at most 32 pages into its neighbour, and a
/// probe's 4-page residue rarely reaches the next prediction unit, so no
/// cold unit's probes can all hit.
#[test]
fn resident_units_always_sort_first() {
    check("resident_units_always_sort_first", 64, |g: &mut Gen| {
        let units = g.u64(2..12);
        let warm_mask = g.range(1u32..4096);
        let unit = 1u64 << 20;
        let size = units * unit;
        let mut sim = cold_machine(&[("/f", size)]);
        let warm_units: Vec<u64> = (0..units).filter(|u| warm_mask & (1 << u) != 0).collect();
        for &u in &warm_units {
            warm(&mut sim, "/f", u * unit, unit);
        }
        let params = FccdParams {
            access_unit: unit,
            prediction_unit: unit / 4,
            ..FccdParams::default()
        };
        let plan = sim.run_one(|os| {
            let fd = os.open("/f").unwrap();
            Fccd::new(os, params).probe_file(fd, size).plan()
        });
        let ranked: Vec<u64> = plan.iter().map(|e| e.offset / unit).collect();
        for (rank, u) in ranked.iter().enumerate() {
            assert_eq!(
                rank < warm_units.len(),
                warm_units.contains(u),
                "rank {rank} = unit {u}: {ranked:?}, warm {warm_units:?}"
            );
        }
    });
}

/// order_files never loses or duplicates a path, whatever the input.
#[test]
fn order_files_is_a_permutation() {
    check("order_files_is_a_permutation", 64, |g: &mut Gen| {
        let present = g.vec(1..12, |g| g.bool());
        let paths: Vec<String> = (0..present.len()).map(|i| format!("/f{i}")).collect();
        let files: Vec<(&str, u64)> = paths
            .iter()
            .zip(&present)
            .filter(|&(_, &exists)| exists)
            .map(|(p, _)| (p.as_str(), 8192))
            .collect();
        let params = FccdParams {
            access_unit: 8192,
            prediction_unit: 4096,
            ..FccdParams::default()
        };
        let ranks = cold_machine(&files).run_one(|os| Fccd::new(os, params).order_files(&paths));
        assert_eq!(ranks.len(), paths.len());
        let mut seen: Vec<String> = ranks.into_iter().map(|r| r.path).collect();
        seen.sort();
        let mut expected = paths.clone();
        expected.sort();
        assert_eq!(seen, expected);
    });
}
