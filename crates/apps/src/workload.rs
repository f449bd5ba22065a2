//! Synthetic workload generators for the experiments.

use gray_toolbox::rng::StdRng;
use graybox::os::{GrayBoxOs, GrayBoxOsExt, OsResult};

/// Creates a file of `bytes` synthetic bytes at `path` (chunked
/// `write_fill`, so no host memory is proportional to the size).
pub fn make_file<O: GrayBoxOs>(os: &O, path: &str, bytes: u64) -> OsResult<()> {
    let fd = os.create(path)?;
    let mut off = 0u64;
    while off < bytes {
        let chunk = (bytes - off).min(8 << 20);
        os.write_fill(fd, off, chunk)?;
        off += chunk;
    }
    os.close(fd)
}

/// Creates `count` files of `bytes` each under `dir`, named `f000…`,
/// returning their paths in creation order.
pub fn make_files<O: GrayBoxOs>(
    os: &O,
    dir: &str,
    count: usize,
    bytes: u64,
) -> OsResult<Vec<String>> {
    if os.stat(dir).is_err() {
        os.mkdir(dir)?;
    }
    let mut paths = Vec::with_capacity(count);
    for i in 0..count {
        let path = os.join(dir, &format!("f{i:04}"));
        make_file(os, &path, bytes)?;
        paths.push(path);
    }
    Ok(paths)
}

/// One aging epoch (paper Figure 6): delete `churn` random files from
/// `dir` and create `churn` new ones of `bytes` each. Returns the
/// directory's current paths in directory order.
pub fn age_epoch<O: GrayBoxOs>(
    os: &O,
    dir: &str,
    churn: usize,
    bytes: u64,
    epoch: u64,
    rng: &mut StdRng,
) -> OsResult<Vec<String>> {
    let names = os.list_dir(dir)?;
    let mut victims: Vec<&String> = names.iter().collect();
    rng.shuffle(&mut victims);
    for name in victims.into_iter().take(churn) {
        os.unlink(&os.join(dir, name))?;
    }
    for i in 0..churn {
        let path = os.join(dir, &format!("e{epoch:03}_{i}"));
        make_file(os, &path, bytes)?;
    }
    Ok(os
        .list_dir(dir)?
        .into_iter()
        .map(|n| os.join(dir, &n))
        .collect())
}

/// A deterministic shuffled copy of `paths`.
pub fn shuffled(paths: &[String], seed: u64) -> Vec<String> {
    let mut out = paths.to_vec();
    StdRng::seed_from_u64(seed).shuffle(&mut out);
    out
}

/// Reads every file fully, in the given order, returning total elapsed
/// time (the inner loop of the small-file experiments).
pub fn read_files_in_order<O: GrayBoxOs>(
    os: &O,
    paths: &[String],
) -> OsResult<gray_toolbox::GrayDuration> {
    let t0 = os.now();
    for path in paths {
        let fd = os.open(path)?;
        let size = os.file_size(fd)?;
        os.read_discard(fd, 0, size)?;
        os.close(fd)?;
    }
    Ok(os.now().since(t0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{Sim, SimConfig};

    #[test]
    fn make_files_creates_in_order() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            let paths = make_files(os, "/data", 5, 8192).unwrap();
            assert_eq!(paths.len(), 5);
            let names = os.list_dir("/data").unwrap();
            assert_eq!(names, vec!["f0000", "f0001", "f0002", "f0003", "f0004"]);
            for p in &paths {
                assert_eq!(os.stat(p).unwrap().size, 8192);
            }
        });
    }

    #[test]
    fn age_epoch_keeps_population_constant() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            make_files(os, "/d", 20, 4096).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            let after = age_epoch(os, "/d", 5, 4096, 1, &mut rng).unwrap();
            assert_eq!(after.len(), 20);
            // Five new files bear the epoch prefix.
            let new = after.iter().filter(|p| p.contains("e001")).count();
            assert_eq!(new, 5);
        });
    }

    #[test]
    fn shuffled_is_deterministic() {
        let paths: Vec<String> = (0..10).map(|i| format!("/f{i}")).collect();
        assert_eq!(shuffled(&paths, 3), shuffled(&paths, 3));
        assert_ne!(shuffled(&paths, 3), paths);
    }

    #[test]
    fn read_files_in_order_takes_longer_cold_than_warm() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let paths = sim.run_one(|os| make_files(os, "/d", 10, 32 * 1024).unwrap());
        sim.flush_file_cache();
        let cold = sim.run_one(|os| read_files_in_order(os, &paths).unwrap());
        let warm = sim.run_one(|os| read_files_in_order(os, &paths).unwrap());
        assert!(cold > warm * 5, "cold {cold} vs warm {warm}");
    }
}
