//! Golden snapshot of every multi-device GPU backend: multi-GPU stripes,
//! the §VI split, and sharded clusters, each plain and balanced. The
//! simulator is deterministic, so each row's modeled seconds (as `f64`
//! bits), kernel counters, op-label sequence, and sanitizer/verifier JSON
//! are exact functions of (graph, backend) — any drift is a real change to
//! what the backends execute and must be deliberate.
//!
//! On mismatch, rerun with `TC_BLESS=1` to regenerate the snapshot, then
//! review the diff like any other code change:
//!
//! ```text
//! TC_BLESS=1 cargo test --release --test backend_golden
//! ```

use std::fmt::Write as _;

use triangles::core::gpu::cluster::{run_cluster_profiled, ClusterReport};
use triangles::core::gpu::multi::{run_multi_gpu_profiled, MultiGpuReport};
use triangles::core::gpu::pipeline::RunTrace;
use triangles::core::gpu::split::count_split;
use triangles::core::Backend;
use triangles::gen::suite::{full_suite, Scale};
use triangles::graph::EdgeArray;
use triangles::simt::{ClusterTopology, KernelStats, SanitizerReport, VerifierReport};

const GOLDEN_PATH: &str = "tests/golden/backends.txt";

/// The `modeled_perf_golden` smoke graphs.
const SUITE_GRAPHS: [&str; 4] = [
    "internet-topology",
    "kronecker-10",
    "barabasi-albert",
    "watts-strogatz",
];

/// Every multi-device backend shape: plain and binned multi-GPU stripes
/// (merge, warp and hash bins), a binned split, and 1D/2D clusters.
const BACKENDS: [&str; 9] = [
    "2xc2050",
    "3xgtx980",
    "2xc2050/balanced:16x8",
    "2xc2050/balanced:0x32",
    "2xgtx980/balanced+hash",
    "gtx980/split:3/balanced",
    "cluster:1x1/gtx980",
    "cluster:2x2/gtx980/balanced",
    "cluster:2x2:2d/gtx980/balanced+hash",
];

/// A hub-heavy graph: a dense 128-vertex core plus two hubs fanned out to
/// 160 leaves, skewed enough that the hash bin engages on striped and
/// sharded runs.
fn hub_heavy_graph() -> EdgeArray {
    let mut pairs = Vec::new();
    for a in 0..128u32 {
        for b in (a + 1)..128 {
            if (a * 5 + b * 3) % 8 != 1 {
                pairs.push((a, b));
            }
        }
    }
    for t in 128..288u32 {
        pairs.push((0, t));
        pairs.push((1, t));
    }
    EdgeArray::from_undirected_pairs(pairs)
}

fn graphs() -> Vec<(String, EdgeArray)> {
    let suite = full_suite(Scale::Smoke);
    let mut out: Vec<(String, EdgeArray)> = SUITE_GRAPHS
        .iter()
        .map(|name| {
            let row = suite
                .iter()
                .find(|r| r.name == *name)
                .unwrap_or_else(|| panic!("{name} missing from the smoke suite"));
            (name.to_string(), row.graph.clone())
        })
        .collect();
    out.push(("hub-heavy".into(), hub_heavy_graph()));
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn kernel_fields(k: &KernelStats) -> String {
    format!(
        "cycles={} time={} lanes={} warps={} tx={} tex={}/{} l2={}/{} dram={} shared={}",
        bits(k.sm_cycles),
        bits(k.time_s),
        k.lane_steps,
        k.warp_steps,
        k.transactions,
        k.tex.hits,
        k.tex.accesses,
        k.l2.hits,
        k.l2.accesses,
        k.dram_bytes,
        k.shared_accesses,
    )
}

/// The op-label sequence across every device (flat device order): its
/// length and FNV hash, plus the distinct counting-kernel launch labels in
/// first-launch order.
fn op_fields(traces: &[RunTrace]) -> String {
    let mut joined = String::new();
    let mut ops = 0usize;
    let mut launches: Vec<&str> = Vec::new();
    for t in traces {
        joined.push_str(&t.device_name);
        joined.push('\n');
        for op in &t.log {
            ops += 1;
            joined.push_str(&op.label);
            joined.push('\n');
            if op.label.starts_with("CountTriangles") && !launches.contains(&op.label.as_str()) {
                launches.push(&op.label);
            }
        }
    }
    format!(
        "ops={ops}:{:016x} launches=[{}]",
        fnv1a(joined.as_bytes()),
        launches.join(",")
    )
}

fn per_device(seconds: &[f64]) -> String {
    let v: Vec<String> = seconds.iter().map(|&s| bits(s)).collect();
    format!("[{}]", v.join(","))
}

/// One backend run's row fields plus its checker reports.
struct Run {
    total_s: f64,
    fields: String,
    sanitizer: Option<SanitizerReport>,
    verifier: Option<VerifierReport>,
}

fn run(g: &EdgeArray, backend: &Backend) -> Run {
    match backend {
        Backend::MultiGpu { options, devices } => {
            let (r, traces): (MultiGpuReport, _) =
                run_multi_gpu_profiled(g, options, *devices).expect("multi-GPU run");
            Run {
                total_s: r.total_s,
                fields: format!(
                    "triangles={} total={} pre={} per={} {} {}",
                    r.triangles,
                    bits(r.total_s),
                    bits(r.preprocess_s),
                    per_device(&r.per_device_s),
                    kernel_fields(&r.kernel),
                    op_fields(&traces),
                ),
                sanitizer: r.sanitizer,
                verifier: r.verifier,
            }
        }
        Backend::GpuSplit { options, parts } => {
            let r = count_split(g, options, *parts).expect("split run");
            Run {
                total_s: r.total_s,
                fields: format!(
                    "triangles={} total={} subproblems={} max_arcs={}",
                    r.triangles,
                    bits(r.total_s),
                    r.subproblems,
                    r.max_subproblem_arcs,
                ),
                sanitizer: r.sanitizer,
                verifier: r.verifier,
            }
        }
        Backend::Cluster {
            options,
            nodes,
            devices_per_node,
            partition,
        } => {
            let topology = ClusterTopology::new(*nodes, *devices_per_node);
            let (r, traces): (ClusterReport, _) =
                run_cluster_profiled(g, options, topology, *partition).expect("cluster run");
            Run {
                total_s: r.total_s,
                fields: format!(
                    "triangles={} total={} partition={} per={} {} {}",
                    r.triangles,
                    bits(r.total_s),
                    bits(r.partition_s),
                    per_device(&r.per_shard_s),
                    kernel_fields(&r.kernel),
                    op_fields(&traces),
                ),
                sanitizer: r.sanitizer,
                verifier: r.verifier,
            }
        }
        other => panic!("{other} is not a multi-device backend"),
    }
}

fn snapshot() -> String {
    let mut out = String::from(
        "# graph backend: modeled f64 bits, kernel counters, op-label hash; \
         then the /sanitize/verify run's JSON reports\n",
    );
    for (name, g) in graphs() {
        for token in BACKENDS {
            let plain: Backend = token.parse().expect("canonical token");
            let checked: Backend = format!("{token}/sanitize/verify")
                .parse()
                .expect("canonical token");
            let p = run(&g, &plain);
            writeln!(out, "{name} {token} {}", p.fields).unwrap();
            let c = run(&g, &checked);
            assert_eq!(
                c.total_s.to_bits(),
                p.total_s.to_bits(),
                "{name} {token}: the checkers must not move modeled time"
            );
            let sanitizer = c.sanitizer.expect("sanitizer report").to_json();
            let verifier = c.verifier.expect("verifier report").to_json();
            writeln!(out, "{name} {token}/sanitize/verify sanitizer:").unwrap();
            out.push_str(&sanitizer);
            writeln!(out, "{name} {token}/sanitize/verify verifier:").unwrap();
            out.push_str(&verifier);
        }
    }
    out
}

#[test]
fn multi_device_backends_match_the_golden_snapshot() {
    let got = snapshot();
    if std::env::var_os("TC_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden snapshot");
        eprintln!("blessed {GOLDEN_PATH}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("{GOLDEN_PATH}: {e} (run with TC_BLESS=1 to create it)"));
    // The rare dispatch paths must really be covered, not just listed.
    for label in [
        "(bin stripe)",
        "CountTrianglesWarpHash(bin stripe)",
        "CountTrianglesWarpHash(shard)",
    ] {
        assert!(
            want.contains(label),
            "{GOLDEN_PATH} has no {label} launch — the snapshot no longer covers it"
        );
    }
    if got != want {
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .take(20)
            .map(|(w, g)| format!("  -{w}\n  +{g}"))
            .collect();
        panic!(
            "multi-device backends drifted from {GOLDEN_PATH} ({} vs {} lines) — if \
             intentional, rerun with TC_BLESS=1 and commit the new snapshot.\n{}",
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}
