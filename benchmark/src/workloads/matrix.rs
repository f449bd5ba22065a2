//! `matrix_grid`: the 72-cell scenario matrix on a two-worker pool.
//!
//! The accuracy workload. Each cell boots its own machine (three platform
//! cache policies, aged or fresh file system, three noise amplitudes, two
//! workload mixes, two fleet sizes), runs a contended probe fleet,
//! classifies its corpus with FCCD, estimates free memory with MAC and
//! scores both against its own oracle. It is the only workload with timing
//! noise, with the NetBSD and Solaris policies and with `toolbox::pool`;
//! its host time is mostly `core::mac` over `simos::vm`.
//!
//! The grid is cut into slices of twelve cells, one of every platform,
//! aging state and mix, so that slices cost about the same. Six slices are
//! the grid; further slices run it again, which both extends the timing
//! and checks that a cell replays to the same digest.

use std::time::Instant;

use gray_toolbox::pool::Pool;
use simos::scenario::matrix::{grid_digest, CellResult, MatrixConfig, ScenarioSpec};
use simos::Platform;

use super::{Ctx, Run, Workload};
use crate::span;
use crate::stat::{median, ratio};

pub const MATRIX_GRID: Workload = Workload {
    name: "matrix_grid",
    why: "72 scored cells (3 platforms x aging x 3 noise levels x 2 mixes x 2 fleets) on a 2-worker pool: the accuracy workload, the only one with noise and toolbox::pool; host time is core::mac over simos::vm",
    op: "cell",
    run,
};

const WORKERS: usize = 2;
/// Cells per slice.
const SLICE_CELLS: usize = 12;
const SETUP_REPEATS: usize = 3;

/// Runs `specs` on `pool`, one `scenario.cell` span per cell under one
/// `pool.map` span, and returns the cells with their host seconds.
fn run_cells(
    pool: &Pool,
    specs: Vec<ScenarioSpec>,
    op_id: u64,
) -> (Vec<Option<(CellResult, f64)>>, f64) {
    let t0 = Instant::now();
    let _map = span::enter("pool.map", op_id);
    let parent = span::current();
    let cells = pool.map(specs, move |_, spec| {
        let _s = span::enter_under(parent, "scenario.cell", spec.index as u64);
        let t0 = Instant::now();
        let cell = spec.run();
        (cell, t0.elapsed().as_secs_f64())
    });
    let cells = cells.into_iter().map(Result::ok).collect();
    (cells, t0.elapsed().as_secs_f64())
}

fn run(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let mut cfg = ctx.size(
        MatrixConfig::full(),
        // A cell costs a seventh of a host second whatever its size, so
        // the smoke grid is two cells.
        MatrixConfig {
            platforms: vec![Platform::LinuxLike],
            noise_amps: vec![0.1],
            ..MatrixConfig::smoke()
        },
    );
    cfg.seed ^= ctx.seed;
    let specs = cfg.expand();
    let slice_cells = SLICE_CELLS.min(specs.len());
    let grid_slices = specs.len() / slice_cells;
    // Slice k takes cells k, k + grid_slices, ...: the platform is the
    // outermost axis of the grid, so a stride spreads every axis over
    // every slice.
    let slice_specs = |k: usize| -> Vec<ScenarioSpec> {
        specs
            .iter()
            .skip(k % grid_slices)
            .step_by(grid_slices)
            .cloned()
            .collect()
    };

    // Set-up, several times over: a pool, and two cells on a single
    // worker. Those warm the allocator and give the cells whose digests
    // must not depend on the worker count.
    let mut serial = Vec::new();
    let mut pool = Pool::with_workers(WORKERS);
    for pair in slice_specs(0).chunks(2).take(SETUP_REPEATS) {
        pool = run.setup(|| {
            serial.extend(run_cells(&Pool::with_workers(1), pair.to_vec(), 0).0);
            Pool::with_workers(WORKERS)
        });
    }

    // Nine slices at the ten seconds `BENCHMARK.json` asks for: the grid
    // once and half of it again. A shorter run covers part of the grid.
    let slices = ctx.slices(0.9, grid_slices);
    let mut grid: Vec<Option<CellResult>> = vec![None; specs.len()];
    let mut cell_host_s = Vec::new();
    for k in 0..slices {
        let asked = slice_specs(k);
        let indices: Vec<usize> = asked.iter().map(|s| s.index).collect();
        run.begin_slice();
        let (cells, host_s) = run_cells(&pool, asked, k as u64);
        run.slice(cells.len() as u64, host_s);
        for (index, cell) in indices.into_iter().zip(cells) {
            let Some((cell, cell_s)) = cell else {
                run.failed += 1;
                run.check(false, || format!("matrix: cell {index} panicked"));
                continue;
            };
            cell_host_s.push(cell_s);
            match &grid[index] {
                None => grid[index] = Some(cell),
                Some(first) => run.check(first.digest == cell.digest, || {
                    format!("matrix: cell {index} replayed to a different digest")
                }),
            }
        }
    }
    for (first, again) in serial.iter().zip(slice_specs(0)) {
        let same = match (first, &grid[again.index]) {
            (Some((one, _)), Some(two)) => one.digest == two.digest,
            _ => false,
        };
        run.check(same, || {
            format!(
                "matrix: cell {} differs between 1 and {WORKERS} workers",
                again.index
            )
        });
    }

    let done: Vec<CellResult> = grid.into_iter().flatten().collect();
    let (mut tp, mut fp, mut fneg) = (0u64, 0u64, 0u64);
    let mut mac_err = 0.0;
    let mut precision_min = 1.0f64;
    let mut separation_min = 1.0f64;
    for c in &done {
        tp += c.fccd.true_positives;
        fp += c.fccd.false_positives;
        fneg += c.fccd.false_negatives;
        mac_err += c.mac_abs_err;
        precision_min = precision_min.min(c.fccd.precision());
        separation_min = separation_min.min(c.separation);
        run.latencies_ns.push(c.virtual_ns);
    }
    run.quality = ratio(tp, tp + fp);
    run.digest = grid_digest(&done.iter().cloned().map(Ok).collect::<Vec<_>>());
    run.layer.insert("core.fccd.precision", run.quality);
    run.layer.insert("core.fccd.recall", ratio(tp, tp + fneg));
    run.layer.insert("core.fccd.separation_min", separation_min);
    run.layer
        .insert("core.mac.rel_err", mac_err / done.len().max(1) as f64);
    run.layer.insert("scenario.precision_min", precision_min);
    run.layer
        .insert("scenario.cell_p50_ns", median(&cell_host_s) * 1e9);
    run.layer.insert(
        "scenario.cell_max_ns",
        cell_host_s.iter().copied().fold(0.0, f64::max) * 1e9,
    );
    run
}
