//! Kernel execution counters.
//!
//! Every simulated kernel accumulates a [`KernelStats`]: how many bytes moved
//! through each level of the memory hierarchy, how many warp instructions
//! and atomic adds executed. The paper's warp-based kernel (§3.2) has no
//! waiting or divergence to count. The cost model converts these counters
//! into estimated time, and Table 4 reports the bandwidth figures.

/// Counters accumulated while executing a simulated kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Bytes read from global memory (DRAM), after cache-line rounding.
    pub global_read_bytes: u64,
    /// Bytes written to global memory, after cache-line rounding.
    pub global_write_bytes: u64,
    /// Bytes of global reads that were served by the simulated L2 cache.
    pub l2_hit_bytes: u64,
    /// Bytes read from shared memory.
    pub shared_read_bytes: u64,
    /// Bytes written to shared memory.
    pub shared_write_bytes: u64,
    /// Warp-level instructions executed.
    pub warp_instructions: u64,
    /// Atomic add operations issued (word–topic matrix updates).
    pub atomic_adds: u64,
    /// Number of global-memory transactions (cache lines touched).
    pub global_transactions: u64,
}

impl KernelStats {
    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &KernelStats) {
        self.global_read_bytes += other.global_read_bytes;
        self.global_write_bytes += other.global_write_bytes;
        self.l2_hit_bytes += other.l2_hit_bytes;
        self.shared_read_bytes += other.shared_read_bytes;
        self.shared_write_bytes += other.shared_write_bytes;
        self.warp_instructions += other.warp_instructions;
        self.atomic_adds += other.atomic_adds;
        self.global_transactions += other.global_transactions;
    }

    /// Total bytes that had to come from DRAM (reads + writes).
    pub fn dram_bytes(&self) -> u64 {
        self.global_read_bytes + self.global_write_bytes
    }

    /// Total shared-memory traffic.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_read_bytes + self.shared_write_bytes
    }
}

impl std::ops::Add for KernelStats {
    type Output = KernelStats;

    fn add(mut self, rhs: KernelStats) -> KernelStats {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for KernelStats {
    fn sum<I: Iterator<Item = KernelStats>>(iter: I) -> KernelStats {
        iter.fold(KernelStats::default(), |acc, s| acc + s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_all_fields() {
        let a = KernelStats {
            global_read_bytes: 10,
            global_write_bytes: 1,
            l2_hit_bytes: 5,
            shared_read_bytes: 2,
            shared_write_bytes: 3,
            warp_instructions: 100,
            atomic_adds: 4,
            global_transactions: 2,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.global_read_bytes, 20);
        assert_eq!(b.warp_instructions, 200);
        assert_eq!(b.dram_bytes(), 22);
        assert_eq!(b.shared_bytes(), 10);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            KernelStats {
                warp_instructions: 1,
                ..KernelStats::default()
            };
            5
        ];
        let total: KernelStats = parts.into_iter().sum();
        assert_eq!(total.warp_instructions, 5);
    }
}
