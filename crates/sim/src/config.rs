//! Simulator configuration, defaulting to the paper's Table 3 parameters.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in CPU cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Creates a config from set count, way count, and latency.
    pub const fn new(sets: usize, ways: usize, latency: u64) -> Self {
        CacheConfig {
            sets,
            ways,
            latency,
        }
    }

    /// Total capacity in bytes (64-byte blocks).
    pub const fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * crate::addr::BLOCK_SIZE as usize
    }
}

/// DRAM timing and geometry (Table 3).
///
/// The paper lists `tRP = tRCD = tCAS = 12.5` (nanoseconds). At the 4 GHz
/// core clock ChampSim assumes, each is 50 core cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Channels (Table 3: 1).
    pub channels: usize,
    /// Ranks per channel (Table 3: 8).
    pub ranks_per_channel: usize,
    /// Banks per rank (Table 3: 8).
    pub banks_per_rank: usize,
    /// Row-precharge latency in core cycles.
    pub t_rp: u64,
    /// Row-activate (RAS-to-CAS) latency in core cycles.
    pub t_rcd: u64,
    /// Column-access latency in core cycles.
    pub t_cas: u64,
    /// Data-bus occupancy per transfer in core cycles.
    pub burst_cycles: u64,
    /// Read-queue capacity (Table 3: 64).
    pub read_queue_size: usize,
    /// Write-queue capacity (Table 3: 64).
    pub write_queue_size: usize,
    /// DRAM row size in bytes (for open-row hit detection).
    pub row_bytes: u64,
    /// Read-queue slots reserved for demand traffic: a prefetch is shed
    /// when fewer than this many slots would remain free after it enqueues
    /// (FR-FCFS controllers serve demands first and drop speculative reads
    /// under load). Clamped to `read_queue_size - 1` at model construction
    /// so an idle queue always accepts a prefetch — the previous hardwired
    /// headroom of 4 shed *every* prefetch when `read_queue_size <= 4`.
    pub prefetch_headroom: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 1,
            ranks_per_channel: 8,
            banks_per_rank: 8,
            t_rp: 50,
            t_rcd: 50,
            t_cas: 50,
            burst_cycles: 4,
            read_queue_size: 64,
            write_queue_size: 64,
            row_bytes: 8192,
            prefetch_headroom: 4,
        }
    }
}

impl DramConfig {
    /// Total independently-schedulable banks across all channels.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }
}

/// Core (front-end and window) parameters for the IPC model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Retire/dispatch width in instructions per cycle.
    pub width: u64,
    /// Reorder-buffer capacity in instructions; bounds memory-level
    /// parallelism the core can expose.
    pub rob_size: u64,
    /// Maximum demand misses outstanding below the LLC at once.
    pub mshrs: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            width: 4,
            rob_size: 352,
            mshrs: 32,
        }
    }
}

/// Full simulator configuration (Table 3 defaults).
///
/// # Examples
///
/// ```
/// use pathfinder_sim::SimConfig;
///
/// let cfg = SimConfig::default();
/// assert_eq!(cfg.llc.capacity_bytes(), 2 * 1024 * 1024);
/// assert_eq!(cfg.l1d.ways, 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// L1 instruction cache (32 KiB, 64 sets, 8 ways, 4 cycles).
    pub l1i: CacheConfig,
    /// L1 data cache (48 KiB, 64 sets, 12 ways, 5 cycles).
    pub l1d: CacheConfig,
    /// Unified L2 (512 KiB, 1024 sets, 8 ways, 10 cycles).
    pub l2: CacheConfig,
    /// Last-level cache (2 MiB, 2048 sets, 16 ways, 20 cycles).
    pub llc: CacheConfig,
    /// DRAM timing/geometry.
    pub dram: DramConfig,
    /// Core model parameters.
    pub core: CoreConfig,
    /// Maximum prefetches a prefetcher may issue per demand access
    /// (competition rule: 2).
    pub max_prefetch_degree: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            l1i: CacheConfig::new(64, 8, 4),
            l1d: CacheConfig::new(64, 12, 5),
            l2: CacheConfig::new(1024, 8, 10),
            llc: CacheConfig::new(2048, 16, 20),
            dram: DramConfig::default(),
            core: CoreConfig::default(),
            max_prefetch_degree: 2,
        }
    }
}

impl SimConfig {
    /// Round-trip latency of a load that hits in the L1D.
    pub fn l1_hit_latency(&self) -> u64 {
        self.l1d.latency
    }

    /// Round-trip latency of a load that hits in the L2.
    pub fn l2_hit_latency(&self) -> u64 {
        self.l1d.latency + self.l2.latency
    }

    /// Round-trip latency of a load that hits in the LLC.
    pub fn llc_hit_latency(&self) -> u64 {
        self.l1d.latency + self.l2.latency + self.llc.latency
    }

    /// Fixed (non-queued) portion of a DRAM access round trip.
    pub fn dram_base_latency(&self) -> u64 {
        self.llc_hit_latency() + self.dram.t_rcd + self.dram.t_cas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_capacities() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.l1i.capacity_bytes(), 32 * 1024);
        assert_eq!(cfg.l1d.capacity_bytes(), 48 * 1024);
        assert_eq!(cfg.l2.capacity_bytes(), 512 * 1024);
        assert_eq!(cfg.llc.capacity_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn table3_latencies() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.l1_hit_latency(), 5);
        assert_eq!(cfg.l2_hit_latency(), 15);
        assert_eq!(cfg.llc_hit_latency(), 35);
        // 12.5ns at 4GHz = 50 cycles for each DRAM timing parameter.
        assert_eq!(cfg.dram.t_rp, 50);
        assert_eq!(cfg.dram.t_rcd, 50);
        assert_eq!(cfg.dram.t_cas, 50);
    }

    #[test]
    fn table3_dram_geometry() {
        let d = DramConfig::default();
        assert_eq!(d.channels, 1);
        assert_eq!(d.ranks_per_channel, 8);
        assert_eq!(d.banks_per_rank, 8);
        assert_eq!(d.total_banks(), 64);
        assert_eq!(d.read_queue_size, 64);
        assert_eq!(d.write_queue_size, 64);
        // Matches the headroom that was hardwired into the model before it
        // became configurable, so default shedding behaviour is unchanged.
        assert_eq!(d.prefetch_headroom, 4);
    }

    #[test]
    fn competition_prefetch_rule() {
        assert_eq!(SimConfig::default().max_prefetch_degree, 2);
    }
}
