//! Regenerates Figure 7: four competing fastsorts, static pass sizes vs
//! gb-fastsort (MAC). Prints `repro::fig7::run` — virtual time only, so
//! two runs print the same bytes and `results/fig7.txt` is checked in CI.
use repro::{print_paper_note, print_table, Scale};

fn main() {
    let tracing = repro::init_tracing();
    let scale = Scale::from_args();
    let fig = repro::fig7::run(scale);
    let rows: Vec<Vec<String>> = fig
        .points
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                format!("{:.2}s", p.makespan),
                format!("{:.2}s", p.read),
                format!("{:.2}s", p.sort),
                format!("{:.2}s", p.write),
                format!("{:.2}s", p.probe_overhead + p.wait_overhead),
                format!("{} MB", p.mean_pass >> 20),
                p.swap_outs.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Figure 7: Sort with MAC (4 procs x {} MB data, {} MB usable memory)",
            fig.data_per_proc >> 20,
            fig.usable_memory >> 20
        ),
        &[
            "pass",
            "makespan",
            "read",
            "sort",
            "write",
            "mac ovh",
            "mean pass",
            "swapouts",
        ],
        &rows,
    );
    print_paper_note(
        "static passes past the sweet spot page and explode (~30 min at \
         290 MB); gb-fastsort never pages, picks ~154 MB passes, and costs \
         ~1.54x the best static setting (probe + wait overhead)",
    );
    repro::finish_tracing(tracing);
}
