//! The CUDA implementation of the paper, on the simulated device.
//!
//! * [`preprocess`] — the eight-step preprocessing phase (§III-B) and the
//!   CPU fallback for over-capacity graphs (§III-D6);
//! * [`schedule`] — workload-balanced scheduling: the static auto-tuner and
//!   the one bin-plan builder;
//! * [`count_kernel`] — the `CountTriangles` kernel (§III-C) as a SIMT lane
//!   program, with the §III-D optimization toggles;
//! * [`warp_centric`] — the virtual-warp kernel of the balanced heavy bins
//!   (chunk-scan and hash intersection);
//! * `shard` — the one count executor every backend runs: one device's
//!   resident arrays counted over a stripe of their edges, one launch and
//!   one reduction per occupied bin;
//! * [`prepared`] — the preprocess-once / count-many session on one device;
//! * [`pipeline`] — the end-to-end measured run, following the paper's
//!   protocol (§IV): clock from the host-to-device copy to the final
//!   device-to-host copy and free;
//! * [`multi`] — the multi-GPU extension (§III-E): device `i` of `n` counts
//!   stripe `(i, n)` of a broadcast copy;
//! * [`split`] — the §VI vertex-range split for graphs beyond one device's
//!   memory, one single-device session per subproblem;
//! * [`cluster`] — DistTC-style sharding across a simulated multi-node
//!   cluster, one shard per device.

pub mod cluster;
pub mod count_kernel;
pub mod multi;
pub mod pipeline;
pub mod prepared;
pub mod preprocess;
pub mod schedule;
mod shard;
pub mod split;
pub mod warp_centric;

pub use schedule::KernelSchedule;

/// Which merge loop the kernel runs (§III-D3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub enum LoopVariant {
    /// The published kernel: heads kept in registers, one load per
    /// non-matching iteration.
    #[default]
    FinalReadAvoiding,
    /// The first attempt: reload both heads every iteration (36–48 % slower
    /// in the paper).
    Preliminary,
}

/// Edge-array layout the kernel reads (§III-D1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub enum EdgeLayout {
    /// Structure of arrays after the unzip step — the published layout.
    #[default]
    SoA,
    /// Array of `(u32, u32)` structs (no unzip) — 13–32 % slower.
    AoS,
}

#[cfg(test)]
mod tests {
    use super::count_kernel::CountLane;
    use super::warp_centric::WarpCentricLane;

    #[test]
    fn lane_state_stays_small() {
        // The executor keeps every resident warp's lanes hot while it steps
        // them; lanes borrow their kernel instead of copying it, so a lane
        // is the thread's own registers only. A new field or a kernel copy
        // that pushes lane state back out of the host cache fails here.
        let count = size_of::<CountLane<'_>>();
        let warp_centric = size_of::<WarpCentricLane<'_>>();
        assert!(count <= 96, "CountLane is {count} B");
        assert!(warp_centric <= 224, "WarpCentricLane is {warp_centric} B");
    }
}
