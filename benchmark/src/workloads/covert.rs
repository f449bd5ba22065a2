//! `covert_grid`: the covert-channel grid on a two-worker pool.
//!
//! Eighteen cells (three platforms, the page-cache and the dirty-page
//! channel, three defenders), each a transmitter, a receiver and a
//! defender process exchanging 32 bits in 50 ms slots. It is the only
//! workload that goes through `core::wbd`, the writeback flusher and
//! interval-timer sleeps, so the executor is driven by timer wake-ups
//! and not by disk waits. A slice is one pass over the grid; every pass
//! must reproduce the first one's digest.

use std::time::Instant;

use covert::{grid_digest, run_grid, ChannelScore, CovertGridConfig, DefenderKind};
use gray_toolbox::pool::Pool;

use super::{Ctx, Run, Workload};
use crate::span;

pub const COVERT_GRID: Workload = Workload {
    name: "covert_grid",
    why: "18 covert-channel cells (3 platforms x 2 channels x 3 defenders) on a 2-worker pool: the only path through core::wbd, the flusher and timer sleeps, so simos::exec runs on wake-ups, not disk waits",
    op: "cell",
    run,
};

const WORKERS: usize = 2;
const SETUP_REPEATS: usize = 3;

fn pass(
    cfg: &CovertGridConfig,
    pool: &Pool,
    op_id: u64,
    run: &mut Run,
) -> (Vec<ChannelScore>, u64) {
    let cells = {
        let _s = span::enter("covert.run_grid", op_id);
        run_grid(cfg, pool)
    };
    let digest = grid_digest(&cells);
    let panicked = cells.iter().filter(|c| c.is_err()).count();
    run.failed += panicked as u64;
    run.check(panicked == 0, || {
        format!("covert: {panicked} cells panicked")
    });
    (cells.into_iter().flatten().collect(), digest)
}

fn run(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let mut cfg = ctx.size(CovertGridConfig::full(), CovertGridConfig::smoke());
    cfg.seed ^= ctx.seed;

    // Set-up, several times over: a pool and one pass on a single worker,
    // whose digest must equal every two-worker pass.
    let mut serial = 0;
    for _ in 0..SETUP_REPEATS {
        let mut warm = Run::default();
        // A panic here is counted when the timed pass meets it again.
        serial = run.setup(|| pass(&cfg, &Pool::with_workers(1), 0, &mut warm).1);
    }
    let pool = Pool::with_workers(WORKERS);

    let mut first: Option<Vec<ChannelScore>> = None;
    for slice in 0..ctx.slices(7.0, 2) {
        run.begin_slice();
        let t0 = Instant::now();
        let (cells, digest) = pass(&cfg, &pool, slice as u64, &mut run);
        run.slice(cfg.cells() as u64, t0.elapsed().as_secs_f64());
        run.check(digest == serial, || {
            format!("covert: pass {slice} digest {digest:x} differs from the one-worker {serial:x}")
        });
        first.get_or_insert(cells);
    }

    let cells = first.unwrap_or_default();
    run.digest = serial;
    // A cell's wall clock is fixed by the slot schedule (bits times slot
    // length), so what a cell costs the machine is the virtual time its
    // transmitter and its defender were busy.
    run.latencies_ns = cells
        .iter()
        .map(|c| c.transmitter_work_ns + c.defender_work_ns)
        .collect();
    let idle = DefenderKind::Idle.name();
    let (quiet, defended): (Vec<&ChannelScore>, Vec<&ChannelScore>) = cells
        .iter()
        .partition(|c| c.label.split('/').nth(2) == Some(idle));
    let ber = |cells: &[&ChannelScore]| {
        let bits: u64 = cells.iter().map(|c| c.bits).sum();
        let errors: u64 = cells.iter().map(|c| c.errors).sum();
        errors as f64 / bits.max(1) as f64
    };
    // The share of the bits sent over the undefended channels that the
    // receiver decoded right. (Capacity discounts a bit error by its
    // entropy, so that one error in 192 bits moves it by three percent.)
    run.quality = 1.0 - ber(&quiet);
    run.layer.insert(
        "covert.capacity_bps",
        quiet.iter().map(|c| c.capacity_bps).sum(),
    );
    run.layer.insert("covert.ber_quiet", ber(&quiet));
    run.layer.insert("covert.ber_defended", ber(&defended));
    run.layer.insert(
        "covert.late_wakeups",
        cells.iter().map(|c| c.late_wakeups).sum::<u64>() as f64,
    );
    run.layer.insert(
        "simos.flusher_runs",
        cells.iter().map(|c| c.flusher_runs).sum::<u64>() as f64,
    );
    run
}
