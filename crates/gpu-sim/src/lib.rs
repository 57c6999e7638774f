//! A deterministic GPU execution model for the SaberLDA reproduction.
//!
//! The original SaberLDA is ~3,000 lines of CUDA targeting a GTX 1080 / Titan X.
//! This reproduction runs on CPUs, so the GPU is replaced by an *execution
//! model* that enforces the architectural constraints the paper's design
//! responds to:
//!
//! * **Warps** ([`warp`]): 32-lane SIMD groups. The ballot/ffs vote of the
//!   paper's kernels is executed lane by lane (the W-ary tree in `saber-core`
//!   descends through it); the warp prefix sum and reduction of Fig. 5 are
//!   charged as instruction counts.
//! * **Memory system** ([`memory`]): 128-byte cache-line accounting for global
//!   and shared memory, with an LRU set-associative L2 model. The counters feed
//!   Table 4 (bandwidth utilisation). [`shared`] sizes the sampling kernel's
//!   per-block shared-memory working set.
//! * **Device specifications** ([`device`]): published specs of the GTX 1080
//!   and Titan X (Maxwell) plus the host link, used by the cost model.
//! * **Cost model** ([`cost`]): a roofline-style translation of counted bytes
//!   and instructions into estimated kernel time, so the reproduction can
//!   report *relative* performance (who wins, by what factor) without claiming
//!   absolute wall-clock fidelity.
//! * **Dynamic scheduler** ([`scheduler`]): the block-level dynamic
//!   work-fetching of §3.4, as greedy dispatch of per-word work onto the
//!   resident blocks. The words arrive in the order `saber-core`'s chunk
//!   layout gives them, sorted by frequency when that heuristic is on.
//! * **Streaming timeline** ([`stream`]): the multi-worker copy/compute
//!   overlap of the streaming workflow (§3.1.2, Fig. 3).
//!
//! # Examples
//!
//! ```
//! use saber_gpu_sim::device::DeviceSpec;
//! use saber_gpu_sim::warp::warp_vote_first_active;
//! use saber_gpu_sim::MemoryTracker;
//!
//! // The first lane whose running total reaches 10.
//! let prefix: Vec<f32> = (1..=32).map(|lane| lane as f32).collect();
//! assert_eq!(warp_vote_first_active(32, |lane| prefix[lane] >= 10.0), Some(9));
//!
//! // A 4-byte read pulls a whole 128-byte line; reading it again hits the L2.
//! let mut memory = MemoryTracker::new(1 << 20);
//! memory.global_read(0, 4);
//! memory.global_read(0, 4);
//! assert_eq!(memory.stats().global_read_bytes, 128);
//! assert_eq!(memory.stats().l2_hit_bytes, 128);
//!
//! let gpu = DeviceSpec::gtx_1080();
//! assert_eq!(gpu.warp_size, 32);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod cost;
pub mod counters;
pub mod device;
pub mod memory;
pub mod scheduler;
pub mod shared;
pub mod stream;
pub mod warp;

pub use cost::CostModel;
pub use counters::KernelStats;
pub use device::DeviceSpec;
pub use memory::MemoryTracker;
pub use warp::WARP_SIZE;
