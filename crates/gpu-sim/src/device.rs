//! GPU device specifications.
//!
//! The paper evaluates on an NVIDIA GTX 1080 (8 GB, Pascal) and a GTX Titan X
//! (12 GB, Maxwell), hosted by a dual-socket Xeon E5-2670 v3 machine with
//! 128 GB of main memory (§4). The numbers below are the published
//! specifications of those parts; the cost model uses them to translate
//! counted memory traffic and instructions into estimated time.

/// Specification of a (simulated) GPU device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"GTX 1080"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Total CUDA cores.
    pub cuda_cores: u32,
    /// Core clock in GHz.
    pub core_clock_ghz: f64,
    /// Global memory capacity in bytes.
    pub global_mem_bytes: u64,
    /// Peak global-memory bandwidth in GB/s.
    pub mem_bandwidth_gb_s: f64,
    /// L2 cache size in bytes.
    pub l2_cache_bytes: u64,
    /// Shared memory available per block in bytes.
    pub shared_mem_per_block: u32,
    /// Warp width (lanes per warp). 32 on every NVIDIA GPU to date.
    pub warp_size: u32,
    /// Host↔device (PCIe) bandwidth in GB/s.
    pub pcie_bandwidth_gb_s: f64,
}

impl DeviceSpec {
    /// The NVIDIA GeForce GTX 1080 used for most of the paper's experiments.
    pub fn gtx_1080() -> Self {
        DeviceSpec {
            name: "GTX 1080".to_string(),
            sm_count: 20,
            cuda_cores: 2560,
            core_clock_ghz: 1.607,
            global_mem_bytes: 8 * 1024 * 1024 * 1024,
            mem_bandwidth_gb_s: 320.0,
            l2_cache_bytes: 2 * 1024 * 1024,
            shared_mem_per_block: 48 * 1024,
            warp_size: 32,
            pcie_bandwidth_gb_s: 12.0,
        }
    }

    /// The NVIDIA GeForce GTX Titan X (Maxwell) used in §4.5 for its larger
    /// 12 GB memory.
    pub fn titan_x_maxwell() -> Self {
        DeviceSpec {
            name: "Titan X (Maxwell)".to_string(),
            sm_count: 24,
            cuda_cores: 3072,
            core_clock_ghz: 1.0,
            global_mem_bytes: 12 * 1024 * 1024 * 1024,
            mem_bandwidth_gb_s: 336.5,
            l2_cache_bytes: 3 * 1024 * 1024,
            shared_mem_per_block: 48 * 1024,
            warp_size: 32,
            pcie_bandwidth_gb_s: 12.0,
        }
    }

    /// A deliberately small "toy" device used by unit tests so that memory
    /// budget and chunking logic can be exercised with tiny corpora.
    pub fn toy(global_mem_bytes: u64) -> Self {
        DeviceSpec {
            name: "toy".to_string(),
            sm_count: 2,
            cuda_cores: 64,
            core_clock_ghz: 1.0,
            global_mem_bytes,
            mem_bandwidth_gb_s: 10.0,
            l2_cache_bytes: 64 * 1024,
            shared_mem_per_block: 16 * 1024,
            warp_size: 32,
            pcie_bandwidth_gb_s: 2.0,
        }
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::gtx_1080()
    }
}

impl std::fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} SMs, {:.0} GB, {:.0} GB/s)",
            self.name,
            self.sm_count,
            self.global_mem_bytes as f64 / (1024.0 * 1024.0 * 1024.0),
            self.mem_bandwidth_gb_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx_1080_matches_published_specs() {
        let d = DeviceSpec::gtx_1080();
        assert_eq!(d.global_mem_bytes, 8 * 1024 * 1024 * 1024);
        assert_eq!(d.warp_size, 32);
        assert!((d.mem_bandwidth_gb_s - 320.0).abs() < 1.0);
    }

    #[test]
    fn titan_x_has_more_memory_but_lower_clock() {
        let t = DeviceSpec::titan_x_maxwell();
        let g = DeviceSpec::gtx_1080();
        assert!(t.global_mem_bytes > g.global_mem_bytes);
        assert!(t.core_clock_ghz < g.core_clock_ghz);
    }

    #[test]
    fn display_mentions_name_and_memory() {
        let text = DeviceSpec::gtx_1080().to_string();
        assert!(text.contains("GTX 1080"));
        assert!(text.contains("8 GB"));
    }

    #[test]
    fn toy_device_is_small() {
        let d = DeviceSpec::toy(1 << 20);
        assert_eq!(d.global_mem_bytes, 1 << 20);
        assert!(d.sm_count <= 4);
    }
}
