//! Where `apps_bulk`'s host time goes, by OS call: the benchmark's two
//! machines and four trials (grep and gb-grep, Figure 3; fastsort and
//! gb-fastsort, Figure 7), each run through a wrapper that times every
//! `GrayBoxOs` call on the host clock.
//!
//! Run with: `cargo run --release --example apps_split -- [rounds] [seed]`
//! (defaults: 1 round, seed 1).
//!
//! The machines are booted as graybench's `apps_bulk` boots them: the
//! paper's machine with a corpus of a hundred 10 MB files for grep, and
//! the same machine with an eighth of the memory and a 160 MB input for
//! fastsort, both seeded `SimConfig::paper().seed ^ seed`. The set-up
//! (the corpus and input writes, then one untimed grep of each kind, as
//! the benchmark warms its cache) is reported as its own row group. Per
//! trial and call, the table gives calls, pages moved, host milliseconds,
//! host nanoseconds per page and the call's share of the trial; `(app)`
//! is the trial's time outside any OS call. The wrapper adds two clock
//! reads to every call, which the per-call figures include.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use graybox_icl::apps::fastsort::{FastSort, PassPolicy, SortConfig};
use graybox_icl::apps::grep::{Grep, GrepMode, GrepOptions, Needle};
use graybox_icl::apps::workload::{make_file, make_files};
use graybox_icl::graybox::fccd::FccdParams;
use graybox_icl::graybox::mac::MacParams;
use graybox_icl::graybox::os::{Fd, GrayBoxOs, MemRegion, OsResult, ProbeSample, ProbeSpec, Stat};
use graybox_icl::simos::{Sim, SimConfig};
use graybox_icl::toolbox::{GrayDuration, Nanos};

const MB: u64 = 1 << 20;
const TRIALS: [&str; 4] = ["grep", "gb-grep", "fastsort", "gb-fastsort"];

/// Calls, pages and host time of one OS call.
#[derive(Debug, Default, Clone, Copy)]
struct Cost {
    calls: u64,
    pages: u64,
    host: Duration,
}

/// Per-call costs in first-call order.
#[derive(Debug, Default)]
struct Split(Vec<(&'static str, Cost)>);

impl Split {
    fn entry(&mut self, call: &'static str) -> &mut Cost {
        let at = match self.0.iter().position(|(c, _)| *c == call) {
            Some(at) => at,
            None => {
                self.0.push((call, Cost::default()));
                self.0.len() - 1
            }
        };
        &mut self.0[at].1
    }

    fn add(&mut self, call: &'static str, pages: u64, host: Duration) {
        let cost = self.entry(call);
        cost.calls += 1;
        cost.pages += pages;
        cost.host += host;
    }

    fn merge(&mut self, other: Split) {
        for (call, c) in other.0 {
            let cost = self.entry(call);
            cost.calls += c.calls;
            cost.pages += c.pages;
            cost.host += c.host;
        }
    }

    fn total(&self) -> Duration {
        self.0.iter().map(|(_, c)| c.host).sum()
    }
}

/// A `GrayBoxOs` that times every call of the one it wraps.
struct Timed<'a, O> {
    os: &'a O,
    split: RefCell<Split>,
}

impl<'a, O: GrayBoxOs> Timed<'a, O> {
    fn new(os: &'a O) -> Self {
        Timed {
            os,
            split: RefCell::default(),
        }
    }

    fn time<R>(&self, call: &'static str, pages: u64, f: impl FnOnce(&O) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.os);
        self.split.borrow_mut().add(call, pages, t0.elapsed());
        r
    }

    /// Pages `[offset, offset + len)` overlaps.
    fn span(&self, offset: u64, len: u64) -> u64 {
        let page = self.os.page_size();
        if len == 0 {
            return 0;
        }
        (offset + len - 1) / page - offset / page + 1
    }
}

impl<O: GrayBoxOs> GrayBoxOs for Timed<'_, O> {
    fn now(&self) -> Nanos {
        self.time("now", 0, |os| os.now())
    }
    fn page_size(&self) -> u64 {
        self.os.page_size()
    }
    fn open(&self, path: &str) -> OsResult<Fd> {
        self.time("open", 0, |os| os.open(path))
    }
    fn create(&self, path: &str) -> OsResult<Fd> {
        self.time("create", 0, |os| os.create(path))
    }
    fn close(&self, fd: Fd) -> OsResult<()> {
        self.time("close", 0, |os| os.close(fd))
    }
    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> OsResult<usize> {
        let pages = self.span(offset, buf.len() as u64);
        self.time("read_at", pages, |os| os.read_at(fd, offset, buf))
    }
    fn read_discard(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
        let pages = self.span(offset, len);
        self.time("read_discard", pages, |os| os.read_discard(fd, offset, len))
    }
    fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> OsResult<usize> {
        let pages = self.span(offset, data.len() as u64);
        self.time("write_at", pages, |os| os.write_at(fd, offset, data))
    }
    fn write_fill(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
        let pages = self.span(offset, len);
        self.time("write_fill", pages, |os| os.write_fill(fd, offset, len))
    }
    fn file_size(&self, fd: Fd) -> OsResult<u64> {
        self.time("file_size", 0, |os| os.file_size(fd))
    }
    fn sync(&self) -> OsResult<()> {
        self.time("sync", 0, |os| os.sync())
    }
    fn stat(&self, path: &str) -> OsResult<Stat> {
        self.time("stat", 0, |os| os.stat(path))
    }
    fn list_dir(&self, path: &str) -> OsResult<Vec<String>> {
        self.time("list_dir", 0, |os| os.list_dir(path))
    }
    fn mkdir(&self, path: &str) -> OsResult<()> {
        self.time("mkdir", 0, |os| os.mkdir(path))
    }
    fn rmdir(&self, path: &str) -> OsResult<()> {
        self.time("rmdir", 0, |os| os.rmdir(path))
    }
    fn unlink(&self, path: &str) -> OsResult<()> {
        self.time("unlink", 0, |os| os.unlink(path))
    }
    fn rename(&self, from: &str, to: &str) -> OsResult<()> {
        self.time("rename", 0, |os| os.rename(from, to))
    }
    fn set_times(&self, path: &str, atime: Nanos, mtime: Nanos) -> OsResult<()> {
        self.time("set_times", 0, |os| os.set_times(path, atime, mtime))
    }
    fn mem_alloc(&self, bytes: u64) -> OsResult<MemRegion> {
        self.time("mem_alloc", 0, |os| os.mem_alloc(bytes))
    }
    fn mem_free(&self, region: MemRegion) -> OsResult<()> {
        self.time("mem_free", 0, |os| os.mem_free(region))
    }
    fn mem_touch_write(&self, region: MemRegion, page: u64) -> OsResult<()> {
        self.time("mem_touch_write", 1, |os| os.mem_touch_write(region, page))
    }
    fn mem_touch_read(&self, region: MemRegion, page: u64) -> OsResult<u8> {
        self.time("mem_touch_read", 1, |os| os.mem_touch_read(region, page))
    }
    fn compute(&self, work: GrayDuration) {
        self.time("compute", 0, |os| os.compute(work))
    }
    fn sleep(&self, d: GrayDuration) {
        self.time("sleep", 0, |os| os.sleep(d))
    }
    fn yield_now(&self) {
        self.time("yield_now", 0, |os| os.yield_now())
    }
    fn probe_batch(&self, fd: Fd, specs: &[ProbeSpec]) -> Vec<ProbeSample> {
        let pages = specs.len() as u64;
        self.time("probe_batch", pages, |os| os.probe_batch(fd, specs))
    }
    fn mem_probe_batch(&self, region: MemRegion, pages: &[u64]) -> Vec<ProbeSample> {
        let n = pages.len() as u64;
        self.time("mem_probe_batch", n, |os| os.mem_probe_batch(region, pages))
    }
}

/// graybench's two `apps_bulk` machines, with their files written.
struct Machines {
    grep: Sim,
    paths: Vec<String>,
    sort: Sim,
}

/// Boots the machines and writes the corpus and the sort input through
/// the wrapper, charging the calls to `split`.
fn boot(seed: u64, split: &mut Split) -> Machines {
    let cfg = SimConfig::paper().with_seed(SimConfig::paper().seed ^ seed);
    let mut sort_cfg = cfg.clone();
    sort_cfg.mem_bytes /= 8;
    sort_cfg.kernel_reserve_bytes /= 8;
    let mut grep = Sim::new(cfg);
    let (paths, corpus) = grep.run_one(|os| {
        let os = Timed::new(os);
        let paths = make_files(&os, "/corpus", 100, 10 * MB).expect("corpus is created");
        (paths, os.split.into_inner())
    });
    grep.flush_file_cache();
    let mut sort = Sim::new(sort_cfg);
    let input = sort.run_one(|os| {
        let os = Timed::new(os);
        make_file(&os, "/sortin", 160 * MB / 100 * 100).expect("sort input is created");
        os.split.into_inner()
    });
    sort.flush_file_cache();
    split.merge(corpus);
    split.merge(input);
    Machines { grep, paths, sort }
}

/// Runs trial `which` through the wrapper; returns its calls.
fn trial(m: &mut Machines, which: usize) -> Split {
    let paths = &m.paths;
    match TRIALS[which] {
        app @ ("grep" | "gb-grep") => {
            let mode = if app == "grep" {
                GrepMode::Unmodified
            } else {
                GrepMode::GrayBox(FccdParams::default())
            };
            m.grep.run_one(|os| {
                let os = Timed::new(os);
                Grep::new(&os, GrepOptions::default())
                    .run(paths, &Needle::SyntheticIn(None), &mode)
                    .expect("grep runs");
                os.split.into_inner()
            })
        }
        app => {
            let policy = if app == "fastsort" {
                PassPolicy::Static(109 * MB)
            } else {
                PassPolicy::GrayBox {
                    mac: MacParams {
                        initial_increment: 2 * MB,
                        max_increment: 16 * MB,
                    },
                    min: 8 * MB,
                }
            };
            m.sort.run_one(|os| {
                let os = Timed::new(os);
                let report = FastSort::new(&os, SortConfig::new("/sortin", "/sortout", policy))
                    .run_modelled()
                    .expect("fastsort runs");
                for k in 0..report.passes.len() {
                    os.unlink(&format!("/sortout.run{k}"))
                        .expect("run file is removed");
                }
                os.split.into_inner()
            })
        }
    }
}

fn print(name: &str, split: &Split, wall: Duration) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut rows: Vec<_> = split.0.iter().collect();
    rows.sort_by_key(|(_, c)| std::cmp::Reverse(c.host));
    let app = wall.saturating_sub(split.total());
    let app = Cost {
        calls: 0,
        pages: 0,
        host: app,
    };
    for (call, c) in rows
        .into_iter()
        .map(|(n, c)| (*n, *c))
        .chain([("(app)", app)])
    {
        let per_page = if c.pages > 0 {
            format!("{:.1}", c.host.as_nanos() as f64 / c.pages as f64)
        } else {
            "-".into()
        };
        println!(
            "{name:<12} {call:<16} {:>9} {:>9} {:>9.1} {per_page:>8} {:>6.1}%",
            c.calls,
            c.pages,
            ms(c.host),
            100.0 * c.host.as_secs_f64() / wall.as_secs_f64().max(1e-12),
        );
    }
    println!(
        "{name:<12} {:<16} {:>9} {:>9} {:>9.1}",
        "total",
        "",
        "",
        ms(wall)
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut number = |what: &str, default: u64| match args.next() {
        Some(a) => a
            .parse()
            .unwrap_or_else(|_| panic!("{what} must be a number, not {a:?}")),
        None => default,
    };
    let rounds = number("rounds", 1);
    let seed = number("seed", 1);

    let mut setup = Split::default();
    let t0 = Instant::now();
    let mut m = boot(seed, &mut setup);
    // The benchmark's set-up ends with one untimed grep of each kind.
    for which in 0..2 {
        setup.merge(trial(&mut m, which));
    }
    let setup_wall = t0.elapsed();

    let mut splits: Vec<(Split, Duration)> = TRIALS.iter().map(|_| Default::default()).collect();
    for _ in 0..rounds {
        for (which, (split, wall)) in splits.iter_mut().enumerate() {
            let t0 = Instant::now();
            split.merge(trial(&mut m, which));
            *wall += t0.elapsed();
        }
    }

    println!("apps_bulk host time by OS call: seed {seed}, {rounds} round(s) of the four trials");
    println!(
        "{:<12} {:<16} {:>9} {:>9} {:>9} {:>8} {:>7}",
        "trial", "call", "calls", "pages", "host ms", "ns/page", "share"
    );
    print("setup", &setup, setup_wall);
    let mut all = Duration::ZERO;
    for (name, (split, wall)) in TRIALS.iter().zip(&splits) {
        print(name, split, *wall);
        all += *wall;
    }
    println!(
        "trials: {:.1} host ms, {:.2} app trials per host second",
        all.as_secs_f64() * 1e3,
        (rounds as f64 * TRIALS.len() as f64) / all.as_secs_f64()
    );
}
