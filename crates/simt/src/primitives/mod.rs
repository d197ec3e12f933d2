//! Thrust-substitute device primitives (paper §III-B).
//!
//! The preprocessing phase is built from `thrust::reduce`, `thrust::sort`,
//! `thrust::remove_if`, and simple transform kernels. These are streaming,
//! memory-bandwidth-bound passes, so this module executes them
//! *functionally* on the arena (with tc-par threads where it pays) and charges
//! *analytic* time: `bytes_moved / (stream_efficiency × peak_bandwidth) +
//! launch_overhead` per pass. The cycle-level simulator is reserved for the
//! counting kernel, where the microarchitectural effects the paper studies
//! actually live (DESIGN.md §6, "two execution tiers").
//!
//! Costs that matter to the paper's story and are modeled explicitly:
//!
//! * radix-sorting edges as packed `u64` keys is ~5× cheaper than
//!   comparison-sorting `(u32, u32)` pairs (§III-D2);
//! * the sort needs a temporary double buffer — the peak-memory step that
//!   forces the §III-D6 CPU-preprocessing fallback for large graphs.

pub mod compact;
pub mod reduce;
pub mod scan;
pub mod sort;
pub mod transform;

pub use compact::{compact_marked_u64, mark_if_u64, remove_if_u64};
pub use reduce::{reduce_map_max_u64, reduce_sum_u64};
pub use scan::{exclusive_scan_u32, inclusive_scan_u32};
pub use sort::{sort_pairs_baseline, sort_u64};
pub use transform::{group_boundaries, unzip_u64};

use crate::config::DeviceConfig;
use crate::device::Device;

/// Seconds for one streaming pass that moves `bytes` through DRAM.
pub(crate) fn stream_pass_seconds(cfg: &DeviceConfig, bytes: u64) -> f64 {
    bytes as f64 / (cfg.stream_efficiency * cfg.dram_bandwidth_gbs * 1e9)
        + cfg.launch_overhead_us * 1e-6
}

/// Charge a labeled streaming pass on the device clock, attributing the
/// bytes it moves to the profiler's DRAM read/write counters (each pass is
/// also counted as one kernel launch, matching what nvprof would see).
pub(crate) fn charge_pass(dev: &mut Device, label: &str, read_bytes: u64, write_bytes: u64) {
    let secs = stream_pass_seconds(dev.config(), read_bytes + write_bytes);
    dev.charge_stream_pass(label, secs, read_bytes, write_bytes);
}

/// Charge one Thrust-style streaming transform pass that the caller
/// executed functionally on the host (compute + `Device::poke`). This is
/// the extension point for composed transform kernels living outside this
/// crate (e.g. tc-core's edge-binning pass): the caller states the bytes
/// the pass would read and write on hardware and gets exactly the same
/// accounting — analytic seconds on the clock, DRAM bytes and one kernel
/// launch in the counters — as the primitives in this module.
pub fn charge_transform_pass(dev: &mut Device, label: &str, read_bytes: u64, write_bytes: u64) {
    charge_pass(dev, label, read_bytes, write_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_cost_scales_with_bytes_and_includes_overhead() {
        let cfg = DeviceConfig::gtx_980();
        let small = stream_pass_seconds(&cfg, 0);
        assert!((small - cfg.launch_overhead_us * 1e-6).abs() < 1e-12);
        let big = stream_pass_seconds(&cfg, 1 << 30);
        assert!(big > 100.0 * small);
        // 1 GiB at 80 % of 224 GB/s ≈ 6 ms.
        assert!((0.004..0.010).contains(&big), "{big}");
    }
}
