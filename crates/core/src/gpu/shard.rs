//! The one count executor behind every GPU backend.
//!
//! The paper's counting phase (§III-C) is a single operation: launch
//! `CountTriangles` over a range of oriented edges, then reduce the
//! per-thread partials. Every backend runs exactly that over a [`Shard`] —
//! one device's resident arrays — and differs only in which range:
//!
//! * a single device ([`super::prepared::PreparedGraph`]) counts its whole
//!   graph, stripe `(0, 1)`;
//! * multi-GPU (§III-E, [`super::multi`]) gives device `i` of `n` the
//!   stripe `(i, n)` of its broadcast copy;
//! * a cluster ([`super::cluster`]) counts each shard's own arcs, stripe
//!   `(0, 1)`;
//! * the §VI split ([`super::split`]) counts each subproblem through a
//!   single-device session.
//!
//! Without a bin plan a stripe is one thread-per-edge launch over
//! `[m·i/n, m·(i+1)/n)`. With one, every occupied bin gets one launch and
//! one reduction over its own stripe, so each device sees the same
//! light/heavy mix. The rest of this module is the bookkeeping those
//! callers share: launch geometry, the count buffers, the count window's
//! profile slice, and the merge of per-device checker reports.

use tc_simt::primitives::reduce_sum_u64;
use tc_simt::profiler::{relative_spans, ProfileReport, RelSpan};
use tc_simt::{
    Counters, Device, DeviceBuffer, DeviceConfig, KernelStats, LaunchConfig, SanitizerReport,
    SimtError, VerifierReport,
};

use crate::count::GpuOptions;
use crate::error::CoreError;
use crate::gpu::count_kernel::{CountKernel, KernelArrays};
use crate::gpu::schedule::{free_plan, Bin, BinPlan};
use crate::gpu::warp_centric::{
    hash_scratch_len, hash_shared_slots, IntersectStrategy, WarpCentricKernel,
};

/// Which backend a shard serves; fixes its launch labels, which the op
/// log, sanitizer lints and verifier findings all carry.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Scope {
    /// The whole graph on one device: `CountTriangles`, `…(bin)`.
    Device,
    /// One device's stripe of a broadcast graph: `…(stripe)`,
    /// `…(bin stripe)`.
    Stripe,
    /// A cluster shard: `…(shard)`, binned or not.
    Shard,
}

impl Scope {
    fn suffix(self, binned: bool) -> &'static str {
        match (self, binned) {
            (Scope::Device, false) => "",
            (Scope::Device, true) => "(bin)",
            (Scope::Stripe, false) => "(stripe)",
            (Scope::Stripe, true) => "(bin stripe)",
            (Scope::Shard, _) => "(shard)",
        }
    }
}

/// §III-D5 launch geometry: the preset's tuned grid (or the override),
/// with the reduced-warp trick multiplying the blocks so the active lane
/// count stays constant. Returns the config and its active thread count.
pub(crate) fn launch_geometry(opts: &GpuOptions, cfg: &DeviceConfig) -> (LaunchConfig, usize) {
    let lc = opts.launch.unwrap_or_else(|| cfg.paper_launch());
    let lc = LaunchConfig {
        blocks: lc.blocks * opts.warp_split,
        threads_per_block: lc.threads_per_block,
        warp_split: opts.warp_split,
    };
    (lc, lc.active_threads(cfg.warp_size))
}

/// One device's resident count state: the CSR arrays the kernels read,
/// the whole-range edge arrays of the unbinned launch, an optional bin
/// plan, the per-thread result array and the hash bins' table scratch.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) scope: Scope,
    pub(crate) lc: LaunchConfig,
    pub(crate) node: DeviceBuffer<u32>,
    /// The adjacency array `node` points into.
    pub(crate) adj: DeviceBuffer<u32>,
    /// Edge arrays of the thread-per-edge launch (SoA, AoS or gathered).
    pub(crate) arrays: KernelArrays,
    /// Edges in `arrays`.
    pub(crate) m: usize,
    pub(crate) plan: Option<BinPlan>,
    pub(crate) result: DeviceBuffer<u64>,
    pub(crate) hash_scratch: Option<DeviceBuffer<u32>>,
}

impl Shard {
    /// Allocate the count buffers — the result array, then the hash
    /// scratch sized for the plan's widest hash demand — and assemble the
    /// shard around arrays (and a plan) already resident on `dev`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn alloc(
        dev: &mut Device,
        scope: Scope,
        lc: LaunchConfig,
        node: DeviceBuffer<u32>,
        adj: DeviceBuffer<u32>,
        arrays: KernelArrays,
        m: usize,
        plan: Option<BinPlan>,
    ) -> Result<Shard, SimtError> {
        let total_threads = lc.active_threads(dev.config().warp_size);
        let result = dev.alloc::<u64>(total_threads)?;
        let scratch_len = plan.as_ref().and_then(|p| {
            p.bins
                .iter()
                .filter(|b| b.hash && b.len > 0)
                .map(|b| hash_scratch_len(total_threads, b.width))
                .max()
        });
        let hash_scratch = match scratch_len {
            Some(len) => Some(dev.alloc::<u32>(len)?),
            None => None,
        };
        Ok(Shard {
            scope,
            lc,
            node,
            adj,
            arrays,
            m,
            plan,
            result,
            hash_scratch,
        })
    }

    /// Count stripe `i` of `of`: one launch plus reduction without a plan,
    /// one per occupied bin with one (bins whose stripe is empty are
    /// skipped). Returns the partial count and the slowest launch.
    pub(crate) fn count(
        &self,
        dev: &mut Device,
        opts: &GpuOptions,
        (i, of): (usize, usize),
    ) -> Result<(u64, Option<KernelStats>), CoreError> {
        let zeros = vec![0u64; self.lc.active_threads(dev.config().warp_size)];
        let launches: Vec<(KernelArrays, Bin)> = match &self.plan {
            None => {
                let whole = Bin {
                    start: 0,
                    len: self.m,
                    width: 1,
                    hash: false,
                };
                vec![(self.arrays, whole)]
            }
            Some(plan) => {
                let gathered = KernelArrays::Gathered {
                    eu: plan.eu,
                    ev: plan.ev,
                    adj: self.adj,
                };
                plan.occupied().map(|b| (gathered, *b)).collect()
            }
        };
        let suffix = self.scope.suffix(self.plan.is_some());
        let mut triangles = 0u64;
        let mut slowest: Option<KernelStats> = None;
        for (arrays, bin) in launches {
            dev.poke(&self.result, &zeros);
            let start = bin.start + bin.len * i / of;
            let stripe = Bin {
                start,
                len: bin.start + bin.len * (i + 1) / of - start,
                ..bin
            };
            // An empty bin stripe launches nothing; an unbinned stripe
            // launches even with no edges, so an empty graph still charges
            // one kernel and one reduction.
            if stripe.len == 0 && self.plan.is_some() {
                continue;
            }
            let stats = dev.with_phase("count-kernel", |d| {
                self.launch(d, opts, arrays, stripe, suffix)
            })?;
            if slowest.as_ref().is_none_or(|s| stats.time_s > s.time_s) {
                slowest = Some(stats);
            }
            triangles += dev.with_phase("reduce", |d| reduce_sum_u64(d, &self.result));
        }
        Ok((triangles, slowest))
    }

    /// One kernel launch over `bin`'s edges: the merge kernel at width 1,
    /// the warp-centric kernel (chunk scan or hash) with `bin.width` lanes
    /// per edge otherwise.
    fn launch(
        &self,
        dev: &mut Device,
        opts: &GpuOptions,
        arrays: KernelArrays,
        bin: Bin,
        suffix: &str,
    ) -> Result<KernelStats, SimtError> {
        if bin.width == 1 {
            let kernel = CountKernel {
                arrays,
                node: self.node,
                result: self.result,
                offset: bin.start,
                count: bin.len,
                variant: opts.kernel,
                use_texture_cache: opts.use_texture_cache,
            };
            return dev.launch(&format!("CountTriangles{suffix}"), self.lc, &kernel);
        }
        let KernelArrays::Gathered { eu, ev, adj } = arrays else {
            unreachable!("warp-centric bins read the plan's gathered endpoints")
        };
        let kernel = WarpCentricKernel {
            adj,
            edge_u: eu,
            edge_v: ev,
            node: self.node,
            result: self.result,
            offset: bin.start,
            count: bin.len,
            virtual_warp: bin.width,
            use_texture_cache: opts.use_texture_cache,
            strategy: if bin.hash {
                IntersectStrategy::Hash
            } else {
                IntersectStrategy::ChunkScan
            },
            scratch: if bin.hash { self.hash_scratch } else { None },
            shared_slots: if bin.hash {
                hash_shared_slots(dev.config(), self.lc.threads_per_block, bin.width)
            } else {
                0
            },
        };
        let name = if bin.hash {
            "CountTrianglesWarpHash"
        } else {
            "CountTrianglesWarp"
        };
        dev.launch(&format!("{name}{suffix}"), self.lc, &kernel)
    }

    /// Free the plan's gathered arrays, the hash scratch and the result
    /// array. The resident CSR arrays belong to the caller.
    pub(crate) fn free(self, dev: &mut Device) -> Result<(), CoreError> {
        if let Some(plan) = &self.plan {
            free_plan(dev, plan)?;
        }
        if let Some(scratch) = self.hash_scratch {
            dev.free(scratch)?;
        }
        dev.free(self.result)?;
        Ok(())
    }
}

/// Marks on one device taken before a count, so the count's own ops,
/// spans and counter deltas can be sliced out afterwards.
pub(crate) struct CountWindow {
    span_mark: usize,
    log_mark: usize,
    counters: Counters,
}

impl CountWindow {
    pub(crate) fn open(dev: &Device) -> CountWindow {
        CountWindow {
            span_mark: dev.spans().len(),
            log_mark: dev.time_log().len(),
            counters: *dev.counters(),
        }
    }

    /// The window's profile and its spans on a clock-base-free timeline.
    ///
    /// `total_s` sums the modeled durations of the window's ops rather than
    /// taking an elapsed-clock delta: each duration is schedule-independent,
    /// but the clock base is not (the subtraction rounds differently as the
    /// session clock grows), and a prepared session promises bit-identical
    /// count seconds no matter how many counts it served before.
    pub(crate) fn close(&self, dev: &Device) -> (ProfileReport, Vec<RelSpan>) {
        let total_s = dev.time_log()[self.log_mark..]
            .iter()
            .map(|op| op.seconds)
            .sum();
        let profile = ProfileReport {
            device: dev.config().name.to_string(),
            peak_bandwidth_gbs: dev.config().dram_bandwidth_gbs,
            devices: 1,
            total_s,
            totals: dev.counters().delta(&self.counters),
            spans: dev.spans()[self.span_mark..].to_vec(),
        };
        let trace = relative_spans(dev.spans(), dev.time_log(), self.span_mark, self.log_mark);
        (profile, trace)
    }
}

/// Merge per-device (or per-subproblem) checker reports in order. Each
/// side is `None` when no part ran that checker.
pub(crate) fn merge_checks(
    parts: impl IntoIterator<Item = (Option<SanitizerReport>, Option<VerifierReport>)>,
) -> (Option<SanitizerReport>, Option<VerifierReport>) {
    let (mut sanitizer, mut verifier) = (Vec::new(), Vec::new());
    for (s, v) in parts {
        sanitizer.extend(s);
        verifier.extend(v);
    }
    (
        (!sanitizer.is_empty()).then(|| SanitizerReport::merged(&sanitizer)),
        (!verifier.is_empty()).then(|| VerifierReport::merged(&verifier)),
    )
}
