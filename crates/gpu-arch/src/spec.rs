use serde::{Deserialize, Serialize};

/// Parameters of the analytic memory-system model used by the timing engine.
///
/// These knobs describe mechanisms, not benchmark-specific fudge: per-warp
/// memory-level parallelism bounds how much bandwidth one warp can extract,
/// the row-locality factors describe how DRAM efficiency degrades when many
/// distinct heap regions (one per ensemble instance) are streamed at once,
/// and the L2 parameters drive a capacity-based hit-rate estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryModelParams {
    /// Maximum 32-byte sectors a single warp can keep in flight.
    pub max_outstanding_sectors_per_warp: u32,
    /// Average global-memory (DRAM) load-to-use latency in core cycles.
    pub dram_latency_cycles: u32,
    /// DRAM efficiency with a single active heap region (row-buffer friendly).
    pub dram_eff_single_region: f64,
    /// Asymptotic DRAM efficiency as the number of concurrently streamed,
    /// non-contiguous heap regions grows without bound.
    pub dram_eff_many_regions: f64,
    /// How fast efficiency decays toward the asymptote; larger is faster.
    pub region_interference_alpha: f64,
    /// L2 hit latency in core cycles (used to discount hits).
    pub l2_latency_cycles: u32,
    /// Fraction of L2 capacity usable by kernel data (tags, reserved ways).
    pub l2_usable_fraction: f64,
}

impl Default for MemoryModelParams {
    fn default() -> Self {
        Self {
            max_outstanding_sectors_per_warp: 24,
            dram_latency_cycles: 480,
            dram_eff_single_region: 0.92,
            dram_eff_many_regions: 0.65,
            region_interference_alpha: 0.06,
            l2_latency_cycles: 200,
            l2_usable_fraction: 0.85,
        }
    }
}

impl MemoryModelParams {
    /// DRAM efficiency for `regions` concurrently active heap regions.
    ///
    /// Monotone non-increasing in `regions`, equal to
    /// [`Self::dram_eff_single_region`] at 1 and approaching
    /// [`Self::dram_eff_many_regions`] as `regions` grows. This models the
    /// paper's §4.3 observation: ensemble instances allocate from disjoint
    /// heap areas, so concurrent blocks never share DRAM row locality.
    pub fn dram_efficiency(&self, regions: u32) -> f64 {
        let regions = regions.max(1);
        let span = self.dram_eff_single_region - self.dram_eff_many_regions;
        let decay = 1.0 / (1.0 + self.region_interference_alpha * (regions as f64 - 1.0));
        self.dram_eff_many_regions + span * decay
    }

    /// Peak bytes/cycle a single warp can extract from DRAM, given its MLP
    /// window and the load-to-use latency.
    pub fn warp_mlp_bytes_per_cycle(&self) -> f64 {
        self.max_outstanding_sectors_per_warp as f64 * 32.0 / self.dram_latency_cycles as f64
    }
}

/// Description of one GPU device.
///
/// The constructors provide data-sheet-level descriptions of real devices;
/// [`GpuSpec::a100_40gb`] is the paper's evaluation hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Threads per warp (wavefront width on AMD).
    pub warp_size: u32,
    /// Hardware limit on threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory per SM, bytes.
    pub shared_mem_per_sm: u64,
    /// Shared memory limit for a single block, bytes.
    pub shared_mem_per_block: u64,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Core clock, MHz.
    pub clock_mhz: u32,
    /// Warp instructions each SM can issue per cycle (scheduler count).
    pub issue_slots_per_sm: u32,
    /// Peak DRAM bandwidth, GB/s.
    pub dram_bandwidth_gbps: f64,
    /// L2 cache size, bytes.
    pub l2_size_bytes: u64,
    /// Device (global) memory capacity, bytes.
    pub global_mem_bytes: u64,
    /// Host-device interconnect bandwidth, GB/s (PCIe4 x16 class).
    pub pcie_bandwidth_gbps: f64,
    /// Fixed kernel-launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Analytic memory-model parameters.
    pub mem_model: MemoryModelParams,
}

impl GpuSpec {
    /// NVIDIA A100-SXM4-40GB-class device (the paper's §4.2 configuration).
    pub fn a100_40gb() -> Self {
        Self {
            name: "NVIDIA A100 40GB (simulated)".into(),
            sm_count: 108,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_sm: 164 * 1024,
            shared_mem_per_block: 164 * 1024,
            registers_per_sm: 65_536,
            clock_mhz: 1410,
            issue_slots_per_sm: 4,
            dram_bandwidth_gbps: 1555.0,
            l2_size_bytes: 40 * 1024 * 1024,
            global_mem_bytes: 40 * 1024 * 1024 * 1024,
            pcie_bandwidth_gbps: 25.0,
            launch_overhead_us: 6.0,
            mem_model: MemoryModelParams::default(),
        }
    }

    /// NVIDIA V100-SXM2-16GB-class device.
    pub fn v100_16gb() -> Self {
        Self {
            name: "NVIDIA V100 16GB (simulated)".into(),
            sm_count: 80,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_sm: 96 * 1024,
            shared_mem_per_block: 96 * 1024,
            registers_per_sm: 65_536,
            clock_mhz: 1530,
            issue_slots_per_sm: 4,
            dram_bandwidth_gbps: 900.0,
            l2_size_bytes: 6 * 1024 * 1024,
            global_mem_bytes: 16 * 1024 * 1024 * 1024,
            pcie_bandwidth_gbps: 16.0,
            launch_overhead_us: 7.0,
            mem_model: MemoryModelParams {
                dram_latency_cycles: 440,
                ..MemoryModelParams::default()
            },
        }
    }

    /// AMD MI210-class device (wavefront width 64).
    pub fn mi210() -> Self {
        Self {
            name: "AMD MI210 (simulated)".into(),
            sm_count: 104,
            warp_size: 64,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_sm: 64 * 1024,
            shared_mem_per_block: 64 * 1024,
            registers_per_sm: 65_536,
            clock_mhz: 1700,
            issue_slots_per_sm: 4,
            dram_bandwidth_gbps: 1638.0,
            l2_size_bytes: 8 * 1024 * 1024,
            global_mem_bytes: 64 * 1024 * 1024 * 1024,
            pcie_bandwidth_gbps: 32.0,
            launch_overhead_us: 8.0,
            mem_model: MemoryModelParams::default(),
        }
    }

    /// Core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_mhz as f64 * 1e6
    }

    /// Peak DRAM bandwidth expressed in bytes per core cycle.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bandwidth_gbps * 1e9 / self.clock_hz()
    }

    /// Convert a cycle count on this device into seconds.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / self.clock_hz()
    }

    /// Number of warps needed to cover `threads` threads.
    pub fn warps_for_threads(&self, threads: u32) -> u32 {
        threads.div_ceil(self.warp_size)
    }

    /// Usable L2 capacity in bytes under the memory model.
    pub fn l2_usable_bytes(&self) -> f64 {
        self.l2_size_bytes as f64 * self.mem_model.l2_usable_fraction
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        Self::a100_40gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_datasheet_numbers() {
        let a = GpuSpec::a100_40gb();
        assert_eq!(a.sm_count, 108);
        assert_eq!(a.max_threads_per_block, 1024);
        assert_eq!(a.global_mem_bytes, 40 << 30);
        // ~1102 bytes/cycle at 1410 MHz and 1555 GB/s.
        let bpc = a.dram_bytes_per_cycle();
        assert!((bpc - 1102.8).abs() < 1.0, "bytes/cycle = {bpc}");
    }

    #[test]
    fn warp_mlp_cap_is_small_fraction_of_peak() {
        let a = GpuSpec::a100_40gb();
        let warp = a.mem_model.warp_mlp_bytes_per_cycle();
        // One warp must not be able to pull anywhere near peak bandwidth:
        // this headroom is what ensemble execution exploits.
        assert!(warp * 20.0 < a.dram_bytes_per_cycle());
    }

    #[test]
    fn dram_efficiency_monotone_and_bounded() {
        let m = MemoryModelParams::default();
        let mut prev = f64::INFINITY;
        for regions in 1..=128 {
            let e = m.dram_efficiency(regions);
            assert!(e <= prev + 1e-12);
            assert!(e <= m.dram_eff_single_region + 1e-12);
            assert!(e >= m.dram_eff_many_regions - 1e-12);
            prev = e;
        }
        assert!((m.dram_efficiency(1) - m.dram_eff_single_region).abs() < 1e-12);
    }

    #[test]
    fn warps_for_threads_rounds_up() {
        let a = GpuSpec::a100_40gb();
        assert_eq!(a.warps_for_threads(1), 1);
        assert_eq!(a.warps_for_threads(32), 1);
        assert_eq!(a.warps_for_threads(33), 2);
        assert_eq!(a.warps_for_threads(1024), 32);
    }

    #[test]
    fn cycles_seconds_roundtrip() {
        let a = GpuSpec::a100_40gb();
        let secs = a.cycles_to_seconds(a.clock_hz());
        assert!((secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn other_devices_construct() {
        assert_eq!(GpuSpec::v100_16gb().sm_count, 80);
        assert_eq!(GpuSpec::mi210().warp_size, 64);
    }
}
