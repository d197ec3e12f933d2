//! The traced run: the workload's sequence again, this time with a host
//! span around every call into a layer's public functions and the
//! modeled profile of every count, folded into the per-layer ledger.
//!
//! Layers whose host cost has no public entry point of its own are
//! measured from outside by pairing: the sanitizer and verifier as
//! interleaved `count()` calls with and without their token suffix, the
//! engine as a batch of cache hits against the same counts made directly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use tc_core::{Backend, CoreError, CountRequest, KernelSchedule, PreparedCluster, PreparedGraph};
use tc_engine::{Engine, EngineConfig, Job};
use tc_graph::EdgeArray;
use tc_simt::{ClusterTopology, Counters, ProfileReport, SanitizerReport, VerifierReport};

use crate::report::{mean, median, ratio, Checks};
use crate::spans::Tracer;
use crate::workload::{
    check_count, run_window, Modeled, Request, Setup, Timing, Window, Workload, CHECKED_PLAIN,
};

/// Rounds of the sanitizer/verifier paired differential per graph.
const PAIR_ROUNDS: usize = 2;
/// Cache-hit jobs per engine-overhead probe batch.
const PROBE_JOBS: usize = 64;
/// Repeats of the engine-overhead probe (the median is reported).
const PROBE_REPEATS: usize = 3;

/// Everything the traced run accumulates.
#[derive(Default)]
struct Ledger {
    /// Counts whose profile is attributed to the single-device phases
    /// (`preprocess`, `schedule/bin-*`, `count/count-kernel`, `count/reduce`).
    phase_counts: u64,
    preprocess_s: f64,
    sort_s: f64,
    schedule_s: f64,
    kernel_s: f64,
    reduce_s: f64,
    /// Counts whose profile counters are summed in `totals`.
    counter_counts: u64,
    totals: Counters,
    /// Lane steps, and the host seconds of the calls that simulated them.
    timed_lane_steps: u64,
    timed_host_s: f64,
    peak_bytes: u64,
    heavy_edges: usize,
    binned_edges: usize,
    cluster_partition_ms: Vec<f64>,
    cluster_shard_ms: Vec<f64>,
    cluster_merge_ms: Vec<f64>,
    cluster_imbalance: Vec<f64>,
    multi_ms: Vec<f64>,
    split_ms: Vec<f64>,
    jobs: usize,
    oneshots: usize,
    sanitizer_findings: usize,
    verifier: VerifierReport,
    verified_counts: u64,
    devices_created: usize,
}

impl Ledger {
    fn phases(&mut self, p: &ProfileReport) {
        self.phase_counts += 1;
        self.preprocess_s += path_s(p, "preprocess");
        self.sort_s += path_s(p, "preprocess/3-sort-edges");
        self.schedule_s += path_s(p, "schedule/bin-sort") + path_s(p, "schedule/bin-gather");
        self.kernel_s += path_s(p, "count/count-kernel");
        self.reduce_s += path_s(p, "count/reduce");
    }

    fn counters(&mut self, p: &ProfileReport) {
        self.counter_counts += 1;
        self.totals.add(&p.totals);
    }

    fn peak(&mut self, bytes: u64) {
        self.peak_bytes = self.peak_bytes.max(bytes);
    }

    fn bins(&mut self, prepared: &PreparedGraph) {
        if prepared.options().schedule == KernelSchedule::ThreadPerEdge {
            return;
        }
        self.binned_edges += prepared.m_oriented();
        // Every bin of a plan is warp-centric; the heavy tail is whatever
        // runs wider than the plan's narrowest bin.
        if let Some(plan) = prepared.bin_plan() {
            let narrowest = plan.bins.iter().map(|b| b.width).min().unwrap_or(0);
            self.heavy_edges += plan
                .bins
                .iter()
                .filter(|b| b.width > narrowest)
                .map(|b| b.len)
                .sum::<usize>();
        }
    }

    fn sanitizer(&mut self, report: Option<&SanitizerReport>) {
        self.sanitizer_findings += report.map_or(0, |r| r.findings.len());
    }

    fn verifier(&mut self, report: Option<&VerifierReport>) {
        if let Some(r) = report {
            self.verified_counts += 1;
            self.verifier =
                VerifierReport::merged(&[std::mem::take(&mut self.verifier), r.clone()]);
        }
    }
}

/// Summed modeled seconds of every span with this exact path. Some paths
/// occur more than once per run (`schedule/bin-sort` is pushed twice), so
/// taking the first match would drop time.
fn path_s(p: &ProfileReport, path: &str) -> f64 {
    p.spans
        .iter()
        .filter(|s| s.path == path)
        .map(|s| s.duration_s())
        .sum()
}

/// The top-level modeled spans of a single-device run must tile its
/// modeled time, up to one nanosecond of rounding per span.
fn check_phase_sum(p: &ProfileReport, total_s: f64, what: &str, checks: &mut Checks) {
    let ns = |s: f64| (s * 1e9).round() as i64;
    let tops: Vec<_> = p.spans.iter().filter(|s| s.depth == 0).collect();
    let sum: i64 = tops.iter().map(|s| ns(s.end_s) - ns(s.start_s)).sum();
    if (sum - ns(total_s)).abs() > tops.len() as i64 {
        checks.violate(format!(
            "{what}: top-level spans sum to {sum} ns, modeled time is {} ns",
            ns(total_s)
        ));
    }
}

fn modeled_mismatch(
    what: &str,
    got_ms: f64,
    reference: &Modeled,
    kind: usize,
    checks: &mut Checks,
) {
    if let Some(want) = reference.get(kind) {
        if want.to_bits() != got_ms.to_bits() {
            checks.violate(format!(
                "{what}: traced path modeled {got_ms} ms, untraced {want} ms"
            ));
        }
    }
}

/// Run the traced window and the paired probes; return the per-layer
/// metrics.
pub fn run(
    setup: &Setup,
    untraced: &Window,
    seconds: f64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let mut led = Ledger::default();
    let reference = &untraced.modeled;
    let traced = match setup.workload {
        Workload::ColdSkewed => cold_window(setup, reference, seconds, tr, &mut led, checks),
        Workload::Checked => checked_window(setup, reference, seconds, tr, &mut led, checks),
        Workload::ServeWarm => serve_window(setup, reference, seconds, tr, &mut led, checks),
    };
    let mut m = BTreeMap::new();
    match setup.workload {
        Workload::ServeWarm => serve_probe(setup, reference, tr, &mut led, &mut m, checks),
        Workload::Checked => paired_differential(setup, tr, &mut led, &mut m, checks),
        Workload::ColdSkewed => {}
    }
    ledger_metrics(setup, &led, tr, &mut m);
    m.insert(
        "trace.overhead_frac",
        1.0 - traced.counts_per_host_s() / untraced.timing.counts_per_host_s(),
    );
    m
}

fn ledger_metrics(setup: &Setup, led: &Ledger, tr: &Tracer, m: &mut BTreeMap<&'static str, f64>) {
    let reps = setup.setup_s.len() as f64;
    let span_mean = |name: &str| mean(&tr.self_ms(name));
    m.insert("gen.host_ms", tr.self_ms("gen").iter().sum::<f64>() / reps);
    m.insert(
        "cpu.forward_host_ms",
        tr.self_ms("cpu.forward").iter().sum::<f64>() / reps,
    );
    m.insert("prepare.host_ms", span_mean("prepare"));
    m.insert("count.host_ms", span_mean("count"));
    m.insert("release.host_ms", span_mean("release"));
    m.insert("cluster.prepare_host_ms", span_mean("cluster.prepare"));
    m.insert("cluster.count_host_ms", span_mean("cluster.count"));
    m.insert("multi.host_ms", span_mean("multi.run"));
    m.insert("split.host_ms", span_mean("split.run"));
    // The four serializers of one batch report, per batch.
    let batches = tr.self_ms("telemetry.serialize").len();
    let serialize: f64 = [
        "telemetry.to_json",
        "telemetry.trace_json",
        "telemetry.metrics_json",
        "telemetry.metrics_prometheus",
    ]
    .iter()
    .map(|n| tr.self_ms(n).iter().sum::<f64>())
    .sum();
    m.insert(
        "telemetry.serialize_host_ms",
        ratio(serialize, batches as f64),
    );

    let pc = led.phase_counts as f64;
    m.insert("preprocess.modeled_ms", ratio(led.preprocess_s * 1e3, pc));
    m.insert("preprocess.sort_modeled_ms", ratio(led.sort_s * 1e3, pc));
    m.insert("schedule.modeled_ms", ratio(led.schedule_s * 1e3, pc));
    m.insert("count.modeled_ms", ratio(led.kernel_s * 1e3, pc));
    m.insert("reduce.modeled_ms", ratio(led.reduce_s * 1e3, pc));
    m.insert(
        "schedule.heavy_edge_frac",
        ratio(led.heavy_edges as f64, led.binned_edges as f64),
    );

    let t = &led.totals;
    let cc = led.counter_counts as f64;
    m.insert("executor.lane_steps", ratio(t.lane_steps as f64, cc));
    m.insert("executor.warp_steps", ratio(t.warp_steps as f64, cc));
    m.insert(
        "executor.lane_steps_per_host_s",
        ratio(led.timed_lane_steps as f64, led.timed_host_s),
    );
    m.insert(
        "executor.divergent_frac",
        ratio(t.divergent_steps as f64, t.warp_steps as f64),
    );
    m.insert(
        "executor.issue_stall_cycles",
        ratio(t.issue_stall_cycles, cc),
    );
    m.insert("executor.occupancy", t.occupancy());
    m.insert(
        "tex.hit_rate",
        ratio(t.tex.hits as f64, t.tex.accesses as f64),
    );
    m.insert("l2.hit_rate", ratio(t.l2.hits as f64, t.l2.accesses as f64));
    m.insert("dram.mb", ratio(t.dram_bytes() as f64 / 1e6, cc));
    m.insert("transactions", ratio(t.transactions as f64, cc));
    m.insert(
        "pcie.mb",
        ratio((t.htod_bytes + t.dtoh_bytes) as f64 / 1e6, cc),
    );
    m.insert("arena.peak_mb", led.peak_bytes as f64 / 1e6);

    m.insert(
        "cluster.partition_modeled_ms",
        mean(&led.cluster_partition_ms),
    );
    m.insert(
        "cluster.shard_count_modeled_ms",
        mean(&led.cluster_shard_ms),
    );
    m.insert("cluster.merge_modeled_ms", mean(&led.cluster_merge_ms));
    m.insert("cluster.imbalance", mean(&led.cluster_imbalance));
    m.insert("multi.modeled_ms", mean(&led.multi_ms));
    m.insert("split.modeled_ms", mean(&led.split_ms));
    m.insert(
        "engine.oneshot_frac",
        ratio(led.oneshots as f64, led.jobs as f64),
    );

    let v = &led.verifier;
    m.insert("sanitizer.findings", led.sanitizer_findings as f64);
    m.insert("verifier.findings", v.findings.len() as f64);
    m.insert(
        "verifier.proven_frac",
        ratio(v.launches_proven as f64, v.launches_checked as f64),
    );
    m.insert(
        "verifier.racechecks_skipped",
        ratio(v.racechecks_skipped as f64, led.verified_counts as f64),
    );
}

// ---------------------------------------------------------------------------
// cold-skewed: one-shot counts through each layer's own entry points.
// ---------------------------------------------------------------------------

fn cold_window(
    setup: &Setup,
    reference: &Modeled,
    seconds: f64,
    tr: &mut Tracer,
    led: &mut Ledger,
    checks: &mut Checks,
) -> Timing {
    run_window(seconds, setup.requests.len(), 1, |k| {
        let req = &setup.requests[k];
        tr.next_request();
        let t0 = Instant::now();
        let outcome = tr.span("request", |tr| cold_request(setup, req, tr, led, checks));
        let host_s = t0.elapsed().as_secs_f64();
        let item = &setup.items[req.item];
        match outcome {
            Ok((triangles, modeled_ms, lane_steps)) => {
                led.timed_lane_steps += lane_steps;
                led.timed_host_s += host_s;
                checks.count((triangles != item.triangles).then(|| {
                    format!(
                        "{} on {}: {triangles} triangles, oracle {}",
                        item.name, req.token, item.triangles
                    )
                }));
                let what = format!("{} on {}", item.name, req.token);
                modeled_mismatch(&what, modeled_ms, reference, k, checks);
            }
            Err(e) => checks.count(Some(format!("{} on {}: {e}", item.name, req.token))),
        }
        host_s
    })
}

/// One cold count: returns (triangles, modeled ms, lane steps).
fn cold_request(
    setup: &Setup,
    req: &Request,
    tr: &mut Tracer,
    led: &mut Ledger,
    checks: &mut Checks,
) -> Result<(u64, f64, u64), CoreError> {
    let item = &setup.items[req.item];
    let what = format!("{} on {}", item.name, req.token);
    match &req.backend {
        Backend::Gpu(opts) => {
            let mut prepared = tr.span("prepare", |_| PreparedGraph::prepare(&item.graph, opts))?;
            let counted = tr.span("count", |_| prepared.count())?;
            led.bins(&prepared);
            let host_s = prepared.host_seconds();
            let dev = tr.span("release", |_| prepared.release())?;
            let profile = dev.profile();
            let total_s = dev.elapsed() + host_s;
            check_phase_sum(&profile, total_s, &what, checks);
            led.phases(&profile);
            led.counters(&profile);
            led.peak(dev.mem_peak());
            Ok((counted.triangles, total_s * 1e3, profile.totals.lane_steps))
        }
        Backend::Cluster {
            options,
            nodes,
            devices_per_node,
            partition,
        } => {
            let topology = ClusterTopology::new(*nodes, *devices_per_node);
            let mut prepared = tr.span("cluster.prepare", |_| {
                PreparedCluster::prepare(&item.graph, options, topology, *partition)
            })?;
            let counted = tr.span("cluster.count", |_| prepared.count())?;
            // Shards run concurrently, so each phase is reported as its
            // slowest device; the phases do not sum to the modeled time.
            let profiles: Vec<ProfileReport> = prepared
                .run_traces()
                .into_iter()
                .map(|t| t.profile)
                .collect();
            let slowest = |path: &str| profiles.iter().map(|p| path_s(p, path)).fold(0.0, f64::max);
            led.cluster_partition_ms.push(prepared.prepare_s() * 1e3);
            led.cluster_shard_ms.push(slowest("shard-count") * 1e3);
            led.cluster_merge_ms.push(slowest("internode-merge") * 1e3);
            led.cluster_imbalance.push(prepared.imbalance());
            led.peak(prepared.max_resident_bytes());
            let merged = ProfileReport::merged(&profiles);
            led.counters(&merged);
            let total_s = prepared.prepare_s() + counted.count_s;
            tr.span("cluster.release", |_| prepared.release())?;
            Ok((counted.triangles, total_s * 1e3, merged.totals.lane_steps))
        }
        other => unreachable!("cold-skewed has no {other:?} requests"),
    }
}

// ---------------------------------------------------------------------------
// checked: profiled one-shot counts under the sanitizer and verifier.
// ---------------------------------------------------------------------------

fn checked_window(
    setup: &Setup,
    reference: &Modeled,
    seconds: f64,
    tr: &mut Tracer,
    led: &mut Ledger,
    checks: &mut Checks,
) -> Timing {
    run_window(seconds, setup.requests.len(), 1, |k| {
        let req = &setup.requests[k];
        let item = &setup.items[req.item];
        tr.next_request();
        let t0 = Instant::now();
        let result = tr.span("count_request.run", |_| {
            CountRequest::new(req.backend.clone())
                .profile(true)
                .graph_name(item.name.clone())
                .run(&item.graph)
        });
        let host_s = t0.elapsed().as_secs_f64();
        checks.count(check_count(&result, item, req));
        if let Ok(tc) = &result {
            let what = format!("{} on {}", item.name, req.token);
            if let Some(p) = &tc.profile {
                check_phase_sum(p, tc.seconds, &what, checks);
                led.phases(p);
                led.counters(p);
                led.timed_lane_steps += p.totals.lane_steps;
                led.timed_host_s += host_s;
            }
            led.peak(tc.gpu.as_ref().map_or(0, |g| g.peak_device_bytes));
            led.sanitizer(tc.sanitizer.as_ref());
            led.verifier(tc.verifier.as_ref());
            modeled_mismatch(&what, tc.seconds * 1e3, reference, k, checks);
        }
        host_s
    })
}

/// Interleaved `count()` calls on three sessions of each graph: plain,
/// `/sanitize`, and `/sanitize/verify`. The order rotates every round so
/// no variant always runs first.
fn paired_differential(
    setup: &Setup,
    tr: &mut Tracer,
    led: &mut Ledger,
    m: &mut BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) {
    const SPANS: [&str; 3] = ["count", "count.sanitize", "count.sanitize_verify"];
    let tokens = [
        CHECKED_PLAIN,
        setup.workload.tokens()[0],
        setup.workload.tokens()[1],
    ];
    // Per graph: median host ms of each variant.
    let mut medians: Vec<[f64; 3]> = Vec::new();
    for item in &setup.items {
        tr.next_request();
        let mut sessions = Vec::with_capacity(3);
        for token in tokens {
            let Backend::Gpu(opts) = Backend::from_str(token).expect("checked tokens parse") else {
                unreachable!("checked tokens are single-device")
            };
            match tr.span("prepare", |_| PreparedGraph::prepare(&item.graph, &opts)) {
                Ok(p) => sessions.push(p),
                Err(e) => return checks.violate(format!("{} on {token}: {e}", item.name)),
            }
        }
        led.bins(&sessions[0]);
        let mut host_ms: [Vec<f64>; 3] = Default::default();
        for round in 0..PAIR_ROUNDS {
            let mut plain_count_s = None;
            for i in 0..3 {
                let v = (i + round) % 3;
                let t0 = Instant::now();
                let counted = tr.span(SPANS[v], |_| sessions[v].count());
                host_ms[v].push(t0.elapsed().as_secs_f64() * 1e3);
                match counted {
                    Ok(c) => {
                        checks.count((c.triangles != item.triangles).then(|| {
                            format!(
                                "{} on {}: {} triangles, oracle {}",
                                item.name, tokens[v], c.triangles, item.triangles
                            )
                        }));
                        let plain = *plain_count_s.get_or_insert(c.count_s);
                        if plain.to_bits() != c.count_s.to_bits() {
                            checks.violate(format!(
                                "{} on {}: count modeled {} s, other variant {plain} s",
                                item.name, tokens[v], c.count_s
                            ));
                        }
                    }
                    Err(e) => checks.count(Some(format!("{} on {}: {e}", item.name, tokens[v]))),
                }
            }
        }
        led.sanitizer(sessions[1].sanitizer_report().as_ref());
        led.sanitizer(sessions[2].sanitizer_report().as_ref());
        led.verifier(sessions[2].verifier_report().as_ref());
        for s in sessions {
            if let Err(e) = tr.span("release", |_| s.release()) {
                checks.violate(format!("{}: release: {e}", item.name));
            }
        }
        medians.push([
            median(&host_ms[0]),
            median(&host_ms[1]),
            median(&host_ms[2]),
        ]);
    }
    let col = |v: usize| medians.iter().map(|r| r[v]).collect::<Vec<f64>>();
    let (plain, san, ver) = (col(0), col(1), col(2));
    let diff =
        |a: &[f64], b: &[f64]| mean(&a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<_>>());
    m.insert("sanitizer.base_host_ms", mean(&plain));
    m.insert("sanitizer.host_ms", diff(&san, &plain));
    m.insert(
        "sanitizer.host_factor",
        ratio(san.iter().sum(), plain.iter().sum()),
    );
    m.insert("verifier.host_ms", diff(&ver, &plain));
    m.insert(
        "verifier.host_factor",
        ratio(ver.iter().sum(), plain.iter().sum()),
    );
}

// ---------------------------------------------------------------------------
// serve-warm: profiled batches through the engine, then direct probes.
// ---------------------------------------------------------------------------

fn serve_window(
    setup: &Setup,
    reference: &Modeled,
    seconds: f64,
    tr: &mut Tracer,
    led: &mut Ledger,
    checks: &mut Checks,
) -> Timing {
    let engine = setup
        .engine
        .as_ref()
        .expect("serve-warm set-up builds an engine");
    let jobs = setup.batch(true).len();
    run_window(seconds, 1, jobs, |_| {
        let batch = setup.batch(true);
        tr.next_request();
        let t0 = Instant::now();
        let report = tr.span("engine.run_batch", |_| engine.run_batch(batch));
        let host_s = t0.elapsed().as_secs_f64();
        tr.span("telemetry.serialize", |tr| {
            black_box(tr.span("telemetry.to_json", |_| report.to_json()));
            black_box(tr.span("telemetry.trace_json", |_| report.trace_json()));
            black_box(tr.span("telemetry.metrics_json", |_| report.metrics_json(true)));
            black_box(tr.span("telemetry.metrics_prometheus", |_| {
                report.metrics_prometheus()
            }));
        });
        for (j, rec) in report.jobs.iter().enumerate() {
            let req = &setup.requests[j % setup.requests.len()];
            let item = &setup.items[req.item];
            let r = match &rec.result {
                Ok(r) => r,
                Err(e) => {
                    checks.count(Some(format!("{}: {e}", rec.name)));
                    continue;
                }
            };
            checks.count((r.triangles != item.triangles).then(|| {
                format!(
                    "{}: {} triangles, oracle {}",
                    rec.name, r.triangles, item.triangles
                )
            }));
            modeled_mismatch(&rec.name, r.seconds * 1e3, reference, j, checks);
            led.jobs += 1;
            if !r.cache_hit && r.prepare_trace.is_empty() {
                led.oneshots += 1;
            }
            match &req.backend {
                Backend::MultiGpu { .. } => led.multi_ms.push(r.seconds * 1e3),
                Backend::GpuSplit { .. } => led.split_ms.push(r.seconds * 1e3),
                _ => {}
            }
            if let Some(p) = &r.profile {
                if matches!(req.backend, Backend::Gpu(_)) {
                    check_phase_sum(p, r.count_s, &rec.name, checks);
                }
                led.phases(p);
                led.counters(p);
            }
        }
        led.devices_created = report.devices_created;
        host_s
    })
}

/// Direct calls behind the engine's jobs: each cacheable key's session
/// prepared and counted by hand (its count must equal the engine's hit),
/// the multi-GPU and split one-shots, and the engine-overhead probe.
fn serve_probe(
    setup: &Setup,
    reference: &Modeled,
    tr: &mut Tracer,
    led: &mut Ledger,
    m: &mut BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) {
    for (k, req) in setup.requests.iter().enumerate() {
        let item = &setup.items[req.item];
        tr.next_request();
        if let Err(e) = probe_request(setup, reference, k, tr, led, checks) {
            checks.count(Some(format!("{} on {}: {e}", item.name, req.token)));
        }
    }
    let engine = setup
        .engine
        .as_ref()
        .expect("serve-warm set-up builds an engine");
    m.insert(
        "engine.cache_hit_ratio",
        engine.cache_hit_ratio().unwrap_or(0.0),
    );
    m.insert("engine.devices_created", led.devices_created as f64);
    m.insert("engine.overhead_ms_per_job", engine_overhead(tr, checks));
}

/// One direct call behind a `serve-warm` key: a prepared session by hand
/// for single-device keys, `CountRequest::run` for the one-shot ones.
fn probe_request(
    setup: &Setup,
    reference: &Modeled,
    k: usize,
    tr: &mut Tracer,
    led: &mut Ledger,
    checks: &mut Checks,
) -> Result<(), CoreError> {
    let req = &setup.requests[k];
    let item = &setup.items[req.item];
    let Backend::Gpu(opts) = &req.backend else {
        let span = if matches!(req.backend, Backend::MultiGpu { .. }) {
            "multi.run"
        } else {
            "split.run"
        };
        let request = CountRequest::new(req.backend.clone())
            .profile(true)
            .graph_name(item.name.clone());
        let result = tr.span(span, |_| request.run(&item.graph));
        checks.count(check_count(&result, item, req));
        return Ok(());
    };
    let what = format!("{} on {}", item.name, req.token);
    let mut prepared = tr.span("prepare", |_| PreparedGraph::prepare(&item.graph, opts))?;
    let t0 = Instant::now();
    let counted = tr.span("count", |_| prepared.count())?;
    led.timed_host_s += t0.elapsed().as_secs_f64();
    led.timed_lane_steps += counted.profile.totals.lane_steps;
    led.bins(&prepared);
    checks.count((counted.triangles != item.triangles).then(|| {
        format!(
            "{what}: {} triangles, oracle {}",
            counted.triangles, item.triangles
        )
    }));
    modeled_mismatch(&what, counted.count_s * 1e3, reference, k, checks);
    let dev = tr.span("release", |_| prepared.release())?;
    led.peak(dev.mem_peak());
    Ok(())
}

/// Host ms the engine adds per cache-hit job: a one-worker engine serves
/// `PROBE_JOBS` hits on a 5-clique while a directly prepared session of
/// the same graph serves as many `count()` calls. The graph is tiny so the
/// bookkeeping, not the simulation, dominates the difference.
fn engine_overhead(tr: &mut Tracer, checks: &mut Checks) -> f64 {
    let clique = (0..5u32).flat_map(|a| ((a + 1)..5).map(move |b| (a, b)));
    let graph = Arc::new(EdgeArray::from_undirected_pairs(clique));
    let backend = Backend::gpu_gtx980();
    let Backend::Gpu(opts) = &backend else {
        unreachable!("gpu_gtx980 is a single device")
    };
    let engine = Engine::new(EngineConfig {
        workers: 1,
        cache_capacity: 1,
        ..EngineConfig::default()
    });
    let jobs = |n: usize| -> Vec<Job> {
        (0..n)
            .map(|i| Job::new(format!("clique#{i}"), Arc::clone(&graph), backend.clone()))
            .collect()
    };
    engine.run_batch(jobs(1));
    let mut session = match PreparedGraph::prepare(&graph, opts) {
        Ok(s) => s,
        Err(e) => {
            checks.violate(format!("engine probe prepare: {e}"));
            return 0.0;
        }
    };
    let mut per_job = Vec::with_capacity(PROBE_REPEATS);
    for _ in 0..PROBE_REPEATS {
        tr.next_request();
        let t0 = Instant::now();
        tr.span("engine.probe_direct", |_| {
            for _ in 0..PROBE_JOBS {
                checks.count(match session.count() {
                    Ok(c) if c.triangles == 10 => None,
                    Ok(c) => Some(format!(
                        "engine probe direct: {} triangles, want 10",
                        c.triangles
                    )),
                    Err(e) => Some(format!("engine probe direct: {e}")),
                });
            }
        });
        let direct_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let report = tr.span("engine.probe_batch", |_| engine.run_batch(jobs(PROBE_JOBS)));
        let batch_s = t0.elapsed().as_secs_f64();
        for rec in &report.jobs {
            checks.count(match &rec.result {
                Ok(r) if r.triangles == 10 && r.cache_hit => None,
                Ok(r) => Some(format!(
                    "engine probe {}: {} triangles, hit {}",
                    rec.name, r.triangles, r.cache_hit
                )),
                Err(e) => Some(format!("engine probe {}: {e}", rec.name)),
            });
        }
        per_job.push((batch_s - direct_s) * 1e3 / PROBE_JOBS as f64);
    }
    median(&per_job)
}
