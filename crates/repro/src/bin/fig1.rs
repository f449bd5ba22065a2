//! Regenerates Figure 1: probe correlation vs prediction-unit size.
use repro::{print_paper_note, print_table, Scale};

fn main() {
    let tracing = repro::init_tracing();
    let scale = Scale::from_args();
    let fig = repro::fig1::run(scale);
    let mut header = vec!["pred unit".to_string()];
    for &au in &fig.access_units {
        header.push(format!("AU {:.2} MB", au as f64 / (1 << 20) as f64));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for (x, &pu) in fig.prediction_units.iter().enumerate() {
        let mut row = vec![format!("{:.2} MB", pu as f64 / (1 << 20) as f64)];
        for series in &fig.cells {
            row.push(format!("{:.2} ±{:.2}", series[x].mean, series[x].stddev));
        }
        rows.push(row);
    }
    print_table(
        &format!(
            "Figure 1: Probe Correlation (file {} MB)",
            fig.file_size >> 20
        ),
        &header_refs,
        &rows,
    );
    print_paper_note(
        "correlation is high while the prediction unit is <= the access \
         unit and falls off noticeably beyond it",
    );
    repro::finish_tracing(tracing);
}
