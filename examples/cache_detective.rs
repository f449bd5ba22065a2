//! FCCD as a detective: plant a pattern of cached regions inside a big
//! file, then watch the detector recover it from timing alone — and score
//! the inference against the simulator's oracle (which the detector, of
//! course, never sees).
//!
//! Run with: `cargo run --example cache_detective`

use graybox_icl::apps::workload::make_file;
use graybox_icl::graybox::fccd::{Fccd, FccdParams};
use graybox_icl::graybox::os::GrayBoxOs;
use graybox_icl::simos::{Sim, SimConfig};

fn main() {
    let mut sim = Sim::new(SimConfig::small());
    let unit = 2u64 << 20;
    let units = 24u64;
    let size = unit * units;
    sim.run_one(|os| make_file(os, "/mystery", size).unwrap());
    sim.flush_file_cache();

    // Plant a pattern: warm every unit whose index is 0 or 1 mod 5.
    let planted: Vec<bool> = (0..units).map(|u| u % 5 < 2).collect();
    {
        let planted = planted.clone();
        sim.run_one(move |os| {
            let fd = os.open("/mystery").unwrap();
            for (u, &warm) in planted.iter().enumerate() {
                if warm {
                    os.read_discard(fd, u as u64 * unit, unit).unwrap();
                }
            }
            os.close(fd).unwrap();
        });
    }

    // The detector probes blind.
    let params = FccdParams {
        access_unit: unit,
        prediction_unit: unit / 2,
        ..FccdParams::default()
    };
    let report = sim.run_one(move |os| {
        let fccd = Fccd::new(os, params);
        let fd = os.open("/mystery").unwrap();
        let r = fccd.probe_file(fd, size);
        os.close(fd).unwrap();
        r
    });

    // Classify the unit probe times with the toolbox's one hit/miss rule.
    let times: Vec<f64> = report
        .units
        .iter()
        .map(|u| u.probe_time.as_nanos() as f64)
        .collect();
    let split = graybox_icl::toolbox::split_fast_slow(&times);

    println!("unit  planted  probe-time      inferred");
    let mut correct = 0;
    for (u, unit_probe) in report.units.iter().enumerate() {
        let inferred = split.fast[u];
        let ok = inferred == planted[u];
        correct += ok as usize;
        println!(
            "{u:>4}  {:>7}  {:>10}  {:>12}{}",
            if planted[u] { "warm" } else { "cold" },
            unit_probe.probe_time,
            if inferred { "in cache" } else { "on disk" },
            if ok { "" } else { "   <-- miss!" },
        );
    }
    println!(
        "\ninference accuracy: {correct}/{units} units \
         (separation {:.2}, {} probes issued)",
        split.separation,
        report.total_probes()
    );
}
