//! Memory-adaptive sorting with MAC: four competing `fastsort` processes
//! on one simulated machine, static pass sizes versus `gb-fastsort`
//! (the paper's Figure 7 scenario in miniature).
//!
//! Run with: `cargo run --example fastsort_mac`

use graybox_icl::apps::fastsort::{FastSort, PassPolicy, SortConfig, SortReport};
use graybox_icl::apps::workload::make_file;
use graybox_icl::graybox::mac::MacParams;
use graybox_icl::simos::exec::Workload;
use graybox_icl::simos::{DiskParams, Sim, SimConfig, SimProc};

const PROCS: usize = 4;
const DATA_PER_PROC: u64 = 24 << 20;

fn machine() -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.disks = vec![DiskParams::small(); 5];
    cfg.swap_disk = 4;
    cfg.cpus = 2;
    cfg
}

fn run_policy(label: &str, policy: PassPolicy) {
    let mut sim = Sim::new(machine());
    let inputs: Vec<String> = (0..PROCS)
        .map(|i| {
            if i == 0 {
                "/in".into()
            } else {
                format!("/d{i}/in")
            }
        })
        .collect();
    for input in &inputs {
        let input = input.clone();
        sim.run_one(move |os| make_file(os, &input, DATA_PER_PROC).unwrap());
    }
    sim.flush_file_cache();

    let workloads: Vec<(String, Workload<'_, SortReport>)> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let input = input.clone();
            let output = if i == 0 {
                "/out".to_string()
            } else {
                format!("/d{i}/out")
            };
            let policy = policy.clone();
            let wl: Workload<'_, SortReport> = Box::new(move |os: &SimProc| {
                FastSort::new(os, SortConfig::new(&input, &output, policy))
                    .run_modelled()
                    .unwrap()
            });
            (format!("sort{i}"), wl)
        })
        .collect();
    let reports = sim.run(workloads);
    let swap_outs = sim.oracle().stats().swap_outs;
    let slowest = reports
        .iter()
        .map(|r| r.total.as_secs_f64())
        .fold(0.0, f64::max);
    let mean_pass: u64 = reports.iter().map(|r| r.mean_pass()).sum::<u64>() / reports.len() as u64;
    println!(
        "{label:<18} makespan {slowest:7.2}s  mean pass {:>5} MB  swap-outs {swap_outs}",
        mean_pass >> 20
    );
}

fn main() {
    println!(
        "4 competing sorts of {} MB each; usable memory {} MB; swap on its own disk\n",
        DATA_PER_PROC >> 20,
        (machine().usable_pages() * 4096) >> 20
    );
    for pass in [4u64 << 20, 8 << 20, 12 << 20, 16 << 20] {
        run_policy(
            &format!("static {:>2} MB", pass >> 20),
            PassPolicy::Static(pass),
        );
    }
    run_policy(
        "gb-fastsort (MAC)",
        PassPolicy::GrayBox {
            mac: MacParams {
                initial_increment: 1 << 20,
                max_increment: 16 << 20,
            },
            min: 4 << 20,
        },
    );
    println!("\nNote how oversized static passes page (swap-outs) and collapse,");
    println!("while gb-fastsort adapts its pass size and never pages.");
}
