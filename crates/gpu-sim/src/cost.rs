//! Roofline-style cost model.
//!
//! The reproduction cannot measure CUDA kernel times, so it estimates them
//! from first principles: a kernel's duration is bounded below by the time to
//! move its DRAM traffic at the device's memory bandwidth, by the time to
//! issue its instructions at the device's arithmetic throughput, and by the
//! time to move its shared-memory traffic at the scratchpad bandwidth. LDA is
//! strongly memory-bound (§4.3: "LDA is a memory intensive task"), so the DRAM
//! term dominates in practice — exactly the regime where a roofline estimate
//! is most trustworthy.
//!
//! Absolute seconds from this model are *estimates*; the experiments in
//! `docs/BENCHMARKING.md` only rely on ratios between configurations sharing
//! the same model, which is how the paper's figures are interpreted in this
//! reproduction.

use crate::counters::KernelStats;
use crate::device::DeviceSpec;

/// Fraction of peak DRAM bandwidth a well-tuned streaming kernel achieves.
/// The paper reports ≈50% utilisation for the sampling kernel (Table 4).
const DRAM_EFFICIENCY: f64 = 0.55;

/// Fraction of peak instruction throughput achieved (memory-dependency stalls
/// dominate; §4.3 reports 47% of stalls from memory dependencies).
const ALU_EFFICIENCY: f64 = 0.35;

/// Shared-memory bandwidth relative to DRAM bandwidth (shared memory is an
/// order of magnitude faster; the paper measures 458 GB/s of shared traffic
/// against 144 GB/s of DRAM traffic without either being the bottleneck).
const SHARED_BANDWIDTH_FACTOR: f64 = 4.0;

/// Cost in "simple instructions" charged per atomic add.
const ATOMIC_COST_INSTRUCTIONS: u64 = 8;

/// Translates [`KernelStats`] into estimated execution time on a device.
#[derive(Debug, Clone)]
pub struct CostModel {
    device: DeviceSpec,
}

/// A breakdown of the estimated time of one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Seconds bound by DRAM traffic.
    pub dram_seconds: f64,
    /// Seconds bound by instruction issue.
    pub alu_seconds: f64,
    /// Seconds bound by shared-memory traffic.
    pub shared_seconds: f64,
    /// The resulting estimate (max of the above).
    pub total_seconds: f64,
}

impl CostModel {
    /// Creates a cost model for `device`.
    pub fn new(device: DeviceSpec) -> Self {
        CostModel { device }
    }

    /// The device this model describes.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The bandwidth, in GB/s, at which the model serves shared-memory
    /// traffic and L2 hits together: four times the DRAM peak.
    pub fn on_chip_peak_gb_s(&self) -> f64 {
        self.device.mem_bandwidth_gb_s * SHARED_BANDWIDTH_FACTOR
    }

    /// Estimated execution time of a kernel with the given counters.
    pub fn kernel_time(&self, stats: &KernelStats) -> TimeBreakdown {
        let dram_bw = self.device.mem_bandwidth_gb_s * 1e9 * DRAM_EFFICIENCY;
        let shared_bw = self.on_chip_peak_gb_s() * 1e9;
        // Each warp instruction occupies one warp slot; the device retires
        // cuda_cores / warp_size warp-instructions per clock at best.
        let warp_throughput = self.device.cuda_cores as f64 / self.device.warp_size as f64
            * self.device.core_clock_ghz
            * 1e9
            * ALU_EFFICIENCY;
        let instructions = stats.warp_instructions + stats.atomic_adds * ATOMIC_COST_INSTRUCTIONS;

        let dram_seconds = stats.dram_bytes() as f64 / dram_bw;
        let shared_seconds = (stats.shared_bytes() + stats.l2_hit_bytes) as f64 / shared_bw;
        let alu_seconds = instructions as f64 / warp_throughput;
        TimeBreakdown {
            dram_seconds,
            alu_seconds,
            shared_seconds,
            total_seconds: dram_seconds.max(alu_seconds).max(shared_seconds),
        }
    }

    /// Estimated host↔device transfer time for `bytes` over PCIe.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.device.pcie_bandwidth_gb_s * 1e9)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new(DeviceSpec::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(dram: u64, instr: u64) -> KernelStats {
        KernelStats {
            global_read_bytes: dram,
            warp_instructions: instr,
            ..KernelStats::default()
        }
    }

    #[test]
    fn memory_bound_kernel_is_dram_limited() {
        let model = CostModel::new(DeviceSpec::gtx_1080());
        // 1 GB of traffic, trivial compute.
        let t = model.kernel_time(&stats_with(1 << 30, 1000));
        assert!(t.dram_seconds > t.alu_seconds);
        assert_eq!(t.total_seconds, t.dram_seconds);
        // 1 GB at ~176 GB/s effective → a few milliseconds.
        assert!(t.total_seconds > 1e-3 && t.total_seconds < 0.1);
    }

    #[test]
    fn compute_bound_kernel_is_alu_limited() {
        let model = CostModel::new(DeviceSpec::gtx_1080());
        let t = model.kernel_time(&stats_with(128, 10_000_000_000));
        assert!(t.alu_seconds > t.dram_seconds);
        assert_eq!(t.total_seconds, t.alu_seconds);
    }

    #[test]
    fn more_traffic_takes_longer() {
        let model = CostModel::default();
        let t1 = model.kernel_time(&stats_with(1 << 20, 0)).total_seconds;
        let t2 = model.kernel_time(&stats_with(1 << 24, 0)).total_seconds;
        assert!(t2 > 10.0 * t1);
    }

    #[test]
    fn faster_device_is_faster() {
        let stats = stats_with(1 << 28, 1 << 20);
        let gtx = CostModel::new(DeviceSpec::gtx_1080()).kernel_time(&stats);
        let toy = CostModel::new(DeviceSpec::toy(1 << 30)).kernel_time(&stats);
        assert!(toy.total_seconds > gtx.total_seconds);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let model = CostModel::default();
        let t1 = model.transfer_time(1 << 20);
        let t2 = model.transfer_time(1 << 21);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
    }
}
