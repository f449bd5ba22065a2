//! Regenerates Figure 3: grep and fastsort in three versions each.
use repro::{print_paper_note, print_table, Scale};

fn main() {
    let tracing = repro::init_tracing();
    let scale = Scale::from_args();
    let fig = repro::fig3::run(scale);
    let mut rows = Vec::new();
    for bars in [&fig.grep, &fig.fastsort] {
        let (gb, gbp) = bars.normalized();
        rows.push(vec![
            bars.app.to_string(),
            bars.unmodified.to_string(),
            format!("{} ({:.2}x)", bars.graybox, gb),
            format!("{} ({:.2}x)", bars.gbp, gbp),
        ]);
    }
    print_table(
        "Figure 3: Application Performance (normalized to unmodified)",
        &["app", "unmodified", "gray-box", "via gbp"],
        &rows,
    );
    print_paper_note(
        "gb-grep ~3x faster (54.3s -> ~18s at paper scale); gbp keeps most \
         of the benefit; fastsort (55s read phase) benefits less because \
         its heap and write buffering compete for memory",
    );
    repro::finish_tracing(tracing);
}
