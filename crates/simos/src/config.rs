//! Simulation configuration: platform personalities, memory and disks,
//! file-system parameters, and noise — plus the testbed's fixed facts,
//! its page size and cost model.
//!
//! The defaults model the paper's testbed — two Pentium-III processors,
//! 896 MB of RAM, and five IBM 9LZX (10k RPM) disks — under Linux 2.2-era
//! software costs. [`SimConfig::small`] provides a scaled-down
//! configuration (64 MB RAM, 1 GB disks) that keeps every ratio intact
//! while letting the test suite run in milliseconds.

use gray_toolbox::GrayDuration;

/// Which operating-system *personality* the cache subsystem emulates
/// (paper Section 4.1.3, "Multiple-Platform Tests").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Linux 2.2: a unified page/buffer cache over nearly all physical
    /// memory, clock (LRU-like) replacement shared by file and anonymous
    /// pages.
    LinuxLike,
    /// NetBSD 1.4/1.5 (pre-UVM-merge): a *fixed-size* file buffer cache (the
    /// paper's machine used only 64 MB of its 896 MB for file caching),
    /// separate from anonymous memory.
    NetBsdLike,
    /// Solaris 7: file pages are cached "stickily" — a portion of the
    /// first-scanned file is retained and is hard to dislodge, so repeated
    /// scans partially hit even without gray-box help, and scans of other
    /// files mostly recycle their own pages.
    SolarisLike,
}

impl Platform {
    /// The paper's display name for the platform.
    pub fn name(self) -> &'static str {
        match self {
            Platform::LinuxLike => "Linux 2.2",
            Platform::NetBsdLike => "NetBSD 1.5",
            Platform::SolarisLike => "Solaris 7",
        }
    }

    /// Short stable tag for cell labels (`linux`, `netbsd`, `solaris`),
    /// shared by the scenario matrix and the covert grid.
    pub fn tag(self) -> &'static str {
        match self {
            Platform::LinuxLike => "linux",
            Platform::NetBsdLike => "netbsd",
            Platform::SolarisLike => "solaris",
        }
    }
}

/// How physical memory is divided between the file cache and anonymous
/// memory (derived from [`Platform`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheArch {
    /// One pool, one replacement policy, file + anon pages together.
    Unified,
    /// A fixed-size file-cache pool; anonymous memory gets the rest.
    SplitFixed {
        /// File-cache pool size in bytes.
        file_cache_bytes: u64,
    },
    /// Unified accounting, but file pages use the sticky scan-resistant
    /// policy.
    UnifiedSticky,
}

/// The VM page size, which is also every file system's block size.
pub const PAGE_SIZE: u64 = 4096;

/// CPU-side costs of one kernel operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostParams {
    /// Fixed syscall entry/exit overhead.
    pub syscall: GrayDuration,
    /// Kernel-to-user copy cost for one full page (≈ 400 MB/s).
    pub copy_per_page: GrayDuration,
    /// Cost of touching (writing a byte to) a resident mapped page.
    pub mem_touch: GrayDuration,
    /// Cost of allocating and zeroing a fresh page on first touch.
    pub page_zero: GrayDuration,
    /// Page-fault handling overhead (added to zero/swap costs).
    pub fault_overhead: GrayDuration,
    /// Cost of a cache-resident page lookup inside read/write paths.
    pub page_lookup: GrayDuration,
}

/// The testbed's cost model: a Pentium III under Linux 2.2-era software.
/// One machine is modelled, so its costs are facts, not settings.
pub const COSTS: CostParams = CostParams {
    syscall: GrayDuration::from_nanos(1_500),
    copy_per_page: GrayDuration::from_nanos(9_000),
    mem_touch: GrayDuration::from_nanos(250),
    page_zero: GrayDuration::from_nanos(4_000),
    fault_overhead: GrayDuration::from_nanos(1_500),
    page_lookup: GrayDuration::from_nanos(400),
};

/// Timing-noise model, applied by the kernel to every charged duration.
///
/// Real probe times are polluted by interrupts and daemon wakeups; the ICLs
/// are supposed to survive that, so the simulator reproduces it — but from
/// a seeded generator, so runs are exactly repeatable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseParams {
    /// Multiplicative jitter: each duration is scaled by
    /// `1 ± uniform(0, jitter_frac)`.
    pub jitter_frac: f64,
    /// Probability that an operation is hit by an "interrupt" spike of
    /// [`crate::clock::SPIKE_MEAN`] mean latency.
    pub spike_prob: f64,
    /// Clock read granularity in nanoseconds (1 = rdtsc-like; 1000 =
    /// microsecond gettimeofday-like).
    pub timer_quantum_ns: u64,
}

impl Default for NoiseParams {
    fn default() -> Self {
        NoiseParams {
            jitter_frac: 0.05,
            spike_prob: 0.0005,
            timer_quantum_ns: 1,
        }
    }
}

impl NoiseParams {
    /// A completely noise-free model (useful for exact-invariant tests).
    pub fn none() -> Self {
        NoiseParams {
            jitter_frac: 0.0,
            spike_prob: 0.0,
            timer_quantum_ns: 1,
        }
    }
}

/// One disk: an IBM 9LZX, whose mechanics are [`crate::disk`]'s
/// constants. Only the capacity varies between machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskParams {
    /// Capacity in bytes.
    pub capacity: u64,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams { capacity: 9 << 30 }
    }
}

impl DiskParams {
    /// A small disk for fast tests (1 GB, same mechanics).
    pub fn small() -> Self {
        DiskParams { capacity: 1 << 30 }
    }
}

/// On-disk allocation discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutPolicy {
    /// FFS-style: cylinder groups, near-inode placement, rotor within a
    /// group. Creation order ~ i-number order ~ layout order.
    #[default]
    Ffs,
    /// LFS-style: all writes append at the log head, so *time of write*
    /// (not i-number) predicts proximity on disk, and overwriting a block
    /// relocates it to the head. This is the paper's §4.2.5 porting note
    /// made concrete.
    Lfs,
}

/// The executor: one event loop resuming coroutines. Selects nothing —
/// the spelling survives only because `benchmark/` names it and may not
/// change in the PR that removed the thread-per-process alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// The one executor ([`crate::exec`]).
    #[default]
    Events,
}

/// File-system layout parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsParams {
    /// Allocation discipline.
    pub layout: LayoutPolicy,
    /// Data blocks per cylinder group (FFS groups a few cylinders; 4096
    /// blocks = 16 MB per group at 4 KB blocks).
    pub blocks_per_group: u64,
    /// Inodes per cylinder group.
    pub inodes_per_group: u64,
}

impl Default for FsParams {
    fn default() -> Self {
        FsParams {
            layout: LayoutPolicy::default(),
            blocks_per_group: 4096,
            inodes_per_group: 1024,
        }
    }
}

/// Top-level simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cache personality.
    pub platform: Platform,
    /// Physical memory in bytes.
    pub mem_bytes: u64,
    /// Memory reserved for the kernel itself (not available to the cache
    /// or to processes). The paper's 896 MB machine exposes ~830 MB.
    pub kernel_reserve_bytes: u64,
    /// Number of CPUs (the paper's machine had two).
    pub cpus: u32,
    /// Data disks; disk *i* is mounted at `/` (i = 0) or `/d<i>`.
    pub disks: Vec<DiskParams>,
    /// Index of the disk used for swap. It may coincide with a data disk
    /// (contention included) or be dedicated, as in the paper's Figure 7.
    pub swap_disk: usize,
    /// Timing-noise model.
    pub noise: NoiseParams,
    /// File-system parameters (shared by all mounted file systems).
    pub fs: FsParams,
    /// Maximum readahead window, in pages.
    pub readahead_pages: u64,
    /// The periodic flusher's epoch interval, or `None` (the default)
    /// for no flusher: dirty pages persist until `sync` or eviction.
    ///
    /// Real kernels run a background daemon (Linux's `bdflush`/`kupdate`,
    /// BSD's `syncer`) that writes dirty pages back on a fixed period. The
    /// simulated flusher is charged **on the virtual clock**: its I/O
    /// occupies the disks' own FCFS timelines (so foreground requests queue
    /// behind it — the observable side effect), and epochs fire
    /// deterministically when the first process whose local clock has
    /// crossed an epoch boundary enters the kernel.
    pub writeback: Option<GrayDuration>,
    /// Master RNG seed (noise, procedural content).
    pub seed: u64,
}

impl SimConfig {
    /// The paper's testbed at full scale: 896 MB RAM, two CPUs, five 9 GB
    /// disks with swap on the last one, Linux 2.2 personality.
    pub fn paper() -> Self {
        SimConfig {
            platform: Platform::LinuxLike,
            mem_bytes: 896 << 20,
            kernel_reserve_bytes: 66 << 20,
            cpus: 2,
            disks: vec![DiskParams::default(); 5],
            swap_disk: 4,
            noise: NoiseParams::default(),
            fs: FsParams::default(),
            readahead_pages: 32,
            writeback: None,
            seed: 0xA5A5_5A5A,
        }
    }

    /// A scaled-down configuration for tests: 64 MB RAM, one CPU, two 1 GB
    /// disks (swap on the second), same cost model and ratios.
    pub fn small() -> Self {
        SimConfig {
            platform: Platform::LinuxLike,
            mem_bytes: 64 << 20,
            kernel_reserve_bytes: 8 << 20,
            cpus: 1,
            disks: vec![DiskParams::small(), DiskParams::small()],
            swap_disk: 1,
            noise: NoiseParams::default(),
            fs: FsParams::default(),
            readahead_pages: 32,
            writeback: None,
            seed: 0xA5A5_5A5A,
        }
    }

    /// Switches the platform personality (builder style).
    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Switches off timing noise (builder style).
    pub fn without_noise(mut self) -> Self {
        self.noise = NoiseParams::none();
        self
    }

    /// Overrides the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches every mounted file system to LFS-style allocation
    /// (builder style).
    pub fn with_lfs(mut self) -> Self {
        self.fs.layout = LayoutPolicy::Lfs;
        self
    }

    /// Does nothing; kept source-compatible for `benchmark/` (see
    /// [`ExecBackend`]).
    pub fn with_exec(self, _exec: ExecBackend) -> Self {
        self
    }

    /// Enables the periodic flusher with the given epoch interval
    /// (builder style).
    pub fn with_writeback(mut self, interval: GrayDuration) -> Self {
        self.writeback = Some(interval);
        self
    }

    /// The cache architecture implied by the platform.
    pub fn cache_arch(&self) -> CacheArch {
        match self.platform {
            Platform::LinuxLike => CacheArch::Unified,
            // The paper's NetBSD box used a fixed 64 MB file cache out of
            // 896 MB; scale that ratio (1/14) to the configured memory.
            Platform::NetBsdLike => CacheArch::SplitFixed {
                file_cache_bytes: (self.mem_bytes / 14).max(4 * PAGE_SIZE),
            },
            Platform::SolarisLike => CacheArch::UnifiedSticky,
        }
    }

    /// Usable physical pages (total minus kernel reserve).
    pub fn usable_pages(&self) -> u64 {
        (self.mem_bytes - self.kernel_reserve_bytes) / PAGE_SIZE
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with a description if the configuration is inconsistent.
    pub fn validate(&self) {
        assert!(
            self.kernel_reserve_bytes < self.mem_bytes,
            "kernel reserve exceeds memory"
        );
        assert!(!self.disks.is_empty(), "at least one disk is required");
        assert!(self.swap_disk < self.disks.len(), "swap disk out of range");
        assert!(self.cpus >= 1, "at least one CPU");
        assert!(self.usable_pages() >= 16, "too little usable memory");
        for d in &self.disks {
            assert!(d.capacity >= PAGE_SIZE * 1024, "disk too small");
        }
        if let Some(interval) = self.writeback {
            assert!(
                interval > GrayDuration::ZERO,
                "flusher interval must be positive"
            );
        }
        // `1 ± jitter_frac` must stay a positive factor and `spike_prob` a
        // probability; NaN is neither.
        let (jitter, spike) = (self.noise.jitter_frac, self.noise.spike_prob);
        assert!(
            (0.0..1.0).contains(&jitter),
            "noise.jitter_frac {jitter} outside [0, 1)"
        );
        assert!(
            (0.0..=1.0).contains(&spike),
            "noise.spike_prob {spike} outside [0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_validates() {
        SimConfig::paper().validate();
        assert_eq!(SimConfig::paper().usable_pages(), (830u64 << 20) / 4096);
    }

    #[test]
    fn small_config_validates() {
        SimConfig::small().validate();
    }

    #[test]
    fn netbsd_cache_is_fixed_fraction() {
        let cfg = SimConfig::paper().with_platform(Platform::NetBsdLike);
        match cfg.cache_arch() {
            CacheArch::SplitFixed { file_cache_bytes } => {
                assert_eq!(file_cache_bytes, (896u64 << 20) / 14);
            }
            other => panic!("unexpected arch {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "swap disk out of range")]
    fn bad_swap_disk_panics() {
        let mut cfg = SimConfig::small();
        cfg.swap_disk = 9;
        cfg.validate();
    }

    /// Boots a machine whose noise has `jitter_frac` and `spike_prob`.
    fn boot_with_noise(jitter_frac: f64, spike_prob: f64) {
        let mut cfg = SimConfig::small();
        cfg.noise.jitter_frac = jitter_frac;
        cfg.noise.spike_prob = spike_prob;
        crate::Sim::new(cfg);
    }

    #[test]
    #[should_panic(expected = "noise.spike_prob 1.5 outside [0, 1]")]
    fn spike_prob_above_one_is_rejected() {
        boot_with_noise(0.05, 1.5);
    }

    #[test]
    #[should_panic(expected = "noise.spike_prob NaN outside [0, 1]")]
    fn nan_spike_prob_is_rejected() {
        boot_with_noise(0.05, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "noise.jitter_frac 1 outside [0, 1)")]
    fn jitter_frac_of_one_is_rejected() {
        boot_with_noise(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "noise.jitter_frac NaN outside [0, 1)")]
    fn nan_jitter_frac_is_rejected() {
        boot_with_noise(f64::NAN, 0.0);
    }

    #[test]
    fn platform_names() {
        assert_eq!(Platform::LinuxLike.name(), "Linux 2.2");
        assert_eq!(Platform::NetBsdLike.name(), "NetBSD 1.5");
        assert_eq!(Platform::SolarisLike.name(), "Solaris 7");
        let tags = [
            Platform::LinuxLike,
            Platform::NetBsdLike,
            Platform::SolarisLike,
        ]
        .map(Platform::tag);
        assert_eq!(tags, ["linux", "netbsd", "solaris"]);
    }
}
