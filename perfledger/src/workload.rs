//! The three workloads: their inputs, their set-up, and the untraced
//! measurement window that yields the end-to-end metrics.

use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use tc_core::{Backend, CountRequest, TriangleCount};
use tc_engine::{Admission, Engine, EngineConfig, Job};
use tc_gen::suite::SUITE_SEED;
use tc_gen::{GraphSpec, Scale, Seed};
use tc_graph::EdgeArray;

use crate::report::{mean, median, Checks};
use crate::spans::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdSkewed,
    ServeWarm,
    Checked,
}

/// The backend whose modeled numbers every `checked` count must equal:
/// the checked tokens with their `/sanitize` and `/verify` suffixes off.
pub const CHECKED_PLAIN: &str = "gtx980/balanced+hash";

/// Repeats of each (graph, backend) pair in one `serve-warm` batch.
const SERVE_REPEATS: usize = 4;

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold-skewed" => Some(Workload::ColdSkewed),
            "serve-warm" => Some(Workload::ServeWarm),
            "checked" => Some(Workload::Checked),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSkewed => "cold-skewed",
            Workload::ServeWarm => "serve-warm",
            Workload::Checked => "checked",
        }
    }

    /// Suite graphs, in request order. At bench scale `Kronecker(0)` is
    /// kronecker-10 and `Kronecker(2)` is kronecker-12.
    pub fn graphs(self) -> &'static [GraphSpec] {
        match self {
            Workload::ColdSkewed => &[
                GraphSpec::InternetTopology,
                GraphSpec::LiveJournal,
                GraphSpec::Kronecker(2),
                GraphSpec::Citeseer,
            ],
            Workload::ServeWarm => &[
                GraphSpec::Dblp,
                GraphSpec::Kronecker(0),
                GraphSpec::BarabasiAlbert,
                GraphSpec::WattsStrogatz,
            ],
            Workload::Checked => &[GraphSpec::Dblp, GraphSpec::Kronecker(2)],
        }
    }

    /// Backend tokens, in request order within each graph.
    pub fn tokens(self) -> &'static [&'static str] {
        match self {
            Workload::ColdSkewed => &[
                "gtx980",
                "gtx980/balanced+hash",
                "cluster:2x2/gtx980/balanced",
            ],
            Workload::ServeWarm => &["gtx980", "gtx980/balanced", "4xc2050", "gtx980/split:2"],
            Workload::Checked => &[
                "gtx980/balanced+hash/sanitize",
                "gtx980/balanced+hash/sanitize/verify",
            ],
        }
    }
}

/// One generated graph with its CPU-oracle count.
pub struct Item {
    pub name: String,
    pub graph: Arc<EdgeArray>,
    pub triangles: u64,
}

/// One (graph, backend) pair of a workload's fixed request sequence.
pub struct Request {
    pub item: usize,
    pub token: &'static str,
    pub backend: Backend,
}

/// Everything built before the first timed count.
pub struct Setup {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: Seed,
    pub items: Vec<Item>,
    /// One pass: graphs × tokens (for `serve-warm`, the distinct keys of
    /// a batch).
    pub requests: Vec<Request>,
    /// The warm serving engine (`serve-warm` only).
    pub engine: Option<Engine>,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
}

impl Setup {
    /// Build the workload `reps` times (the last build is kept) so that
    /// `setup_s` can report a median.
    pub fn build(
        workload: Workload,
        scale: Scale,
        seed: Seed,
        reps: usize,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Setup {
        let mut setup_s = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            tr.next_request();
            let t0 = Instant::now();
            let built = tr.span("setup", |tr| {
                let items = generate(workload, scale, seed, tr);
                let requests = requests(workload, &items);
                let engine = (workload == Workload::ServeWarm)
                    .then(|| warm_engine(&items, &requests, tr, checks));
                (items, requests, engine)
            });
            setup_s.push(t0.elapsed().as_secs_f64());
            // Drop the previous repetition's engine and graphs outside
            // the timed region.
            last = Some(built);
        }
        let (items, requests, engine) = last.expect("at least one repetition");
        Setup {
            workload,
            scale,
            seed,
            items,
            requests,
            engine,
            setup_s,
        }
    }

    /// Jobs of one `serve-warm` batch: every distinct key, `SERVE_REPEATS`
    /// times, with the repeats spread out so the two workers rarely wait on
    /// the same session.
    pub fn batch(&self, profile: bool) -> Vec<Job> {
        (0..SERVE_REPEATS)
            .flat_map(|rep| self.requests.iter().map(move |r| (rep, r)))
            .map(|(rep, r)| job(&self.items, r, &rep.to_string()).profile(profile))
            .collect()
    }

    /// Whether this run is pinned to the committed `BENCH_6.json` cells.
    pub fn pinned(&self) -> bool {
        self.scale == Scale::Bench && self.seed == SUITE_SEED
    }
}

fn generate(workload: Workload, scale: Scale, seed: Seed, tr: &mut Tracer) -> Vec<Item> {
    workload
        .graphs()
        .iter()
        .map(|spec| {
            let graph = tr.span("gen", |_| spec.generate(scale, seed));
            let triangles = tr
                .span("cpu.forward", |_| tc_core::cpu::count_forward(&graph))
                .expect("suite graphs are valid edge arrays");
            Item {
                name: spec.name(scale),
                graph: Arc::new(graph),
                triangles,
            }
        })
        .collect()
}

fn requests(workload: Workload, items: &[Item]) -> Vec<Request> {
    (0..items.len())
        .flat_map(|item| {
            workload.tokens().iter().map(move |&token| Request {
                item,
                token,
                backend: Backend::from_str(token).expect("workload tokens parse"),
            })
        })
        .collect()
}

fn warm_engine(
    items: &[Item],
    requests: &[Request],
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Engine {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let engine = Engine::new(EngineConfig {
        workers,
        cache_capacity: requests.len(),
        admission: Admission::Block,
        ..EngineConfig::default()
    });
    let jobs: Vec<Job> = requests.iter().map(|r| job(items, r, "warm")).collect();
    let report = tr.span("engine.run_batch", |_| engine.run_batch(jobs));
    for (job, r) in report.jobs.iter().zip(requests) {
        let want = items[r.item].triangles;
        match &job.result {
            Ok(res) if res.triangles == want => {}
            Ok(res) => checks.violate(format!(
                "warm-up {}: {} triangles, oracle {want}",
                job.name, res.triangles
            )),
            Err(e) => checks.violate(format!("warm-up {}: {e}", job.name)),
        }
    }
    engine
}

/// The engine job for one request, named `<graph>:<backend>#<tag>`.
fn job(items: &[Item], r: &Request, tag: &str) -> Job {
    let item = &items[r.item];
    Job::new(
        format!("{}:{}#{tag}", item.name, r.token),
        Arc::clone(&item.graph),
        r.backend.clone(),
    )
}

/// Why a one-shot count fails, if it does: an error, a disagreement with
/// the oracle, or (on sanitized backends) any finding or missing report.
pub fn check_count(
    result: &Result<TriangleCount, tc_core::CoreError>,
    item: &Item,
    req: &Request,
) -> Option<String> {
    let what = || format!("{} on {}", item.name, req.token);
    let tc = match result {
        Ok(tc) => tc,
        Err(e) => return Some(format!("{}: {e}", what())),
    };
    if tc.triangles != item.triangles {
        return Some(format!(
            "{}: {} triangles, oracle {}",
            what(),
            tc.triangles,
            item.triangles
        ));
    }
    if req.backend.sanitizer().is_on() {
        match &tc.sanitizer {
            Some(s) if s.is_clean() => {}
            Some(s) => {
                return Some(format!(
                    "{}: {} sanitizer findings",
                    what(),
                    s.findings.len()
                ))
            }
            None => return Some(format!("{}: no sanitizer report", what())),
        }
    }
    if req.backend.verify() {
        match &tc.verifier {
            Some(v) if v.is_clean() => {}
            Some(v) => {
                return Some(format!(
                    "{}: {} verifier findings",
                    what(),
                    v.findings.len()
                ))
            }
            None => return Some(format!("{}: no verifier report", what())),
        }
    }
    None
}

/// Host timing of a window.
pub struct Timing {
    /// Counts per kind; `kinds × counts_per_kind` counts make one pass.
    counts_per_kind: usize,
    /// (kind, host seconds) per executed kind.
    samples: Vec<(usize, f64)>,
}

impl Timing {
    /// Counts per host second over one pass, with each kind's time taken
    /// as the median of its samples, so a pass cut short by the clock
    /// weights no kind twice.
    pub fn counts_per_host_s(&self) -> f64 {
        let kinds = self.samples.iter().map(|&(k, _)| k + 1).max().unwrap_or(0);
        let pass_s: f64 = (0..kinds)
            .map(|k| {
                let xs: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.0 == k)
                    .map(|s| s.1)
                    .collect();
                median(&xs)
            })
            .sum();
        (kinds * self.counts_per_kind) as f64 / pass_s
    }
}

/// Whole passes every window makes, so that each request's median host
/// time rests on at least three samples.
const MIN_PASSES: usize = 3;

/// Run `step(k)` over the `n` kinds of a pass in order, cycling; `step`
/// returns the host seconds of what it measured. After `MIN_PASSES` whole
/// passes, a kind starts only if its previous run still fits in `seconds`.
pub fn run_window(
    seconds: f64,
    n: usize,
    counts_per_kind: usize,
    mut step: impl FnMut(usize) -> f64,
) -> Timing {
    let start = Instant::now();
    let mut timing = Timing {
        counts_per_kind,
        samples: Vec::new(),
    };
    let mut last = vec![0.0; n];
    for i in 0.. {
        let k = i % n;
        if i >= MIN_PASSES * n && start.elapsed().as_secs_f64() + last[k] > seconds {
            break;
        }
        last[k] = step(k);
        timing.samples.push((k, last[k]));
    }
    timing
}

/// Modeled ms of each count kind of a pass, as first seen.
pub struct Modeled(Vec<Option<f64>>);

impl Modeled {
    pub fn new(kinds: usize) -> Modeled {
        Modeled(vec![None; kinds])
    }

    /// Record a count's modeled ms. Modeled time is exact, so a repeat of
    /// the same count kind that reads differently is a determinism bug.
    pub fn record(&mut self, kind: usize, ms: f64, checks: &mut Checks) {
        match self.0[kind] {
            None => self.0[kind] = Some(ms),
            Some(first) if first.to_bits() == ms.to_bits() => {}
            Some(first) => checks.violate(format!(
                "count kind {kind}: modeled {ms} ms differs from an earlier {first} ms"
            )),
        }
    }

    /// Modeled ms of a count kind, `None` if no count of it succeeded.
    pub fn get(&self, kind: usize) -> Option<f64> {
        self.0[kind]
    }

    fn pass(&self) -> Vec<f64> {
        self.0.iter().flatten().copied().collect()
    }

    pub fn mean(&self) -> f64 {
        mean(&self.pass())
    }

    pub fn max(&self) -> f64 {
        self.pass().into_iter().fold(0.0, f64::max)
    }
}

/// What the untraced window measured.
pub struct Window {
    pub timing: Timing,
    pub modeled: Modeled,
}

/// The untraced window: the workload's fixed sequence, closed loop, one
/// request (or batch) after another.
pub fn measure(setup: &Setup, seconds: f64, checks: &mut Checks) -> Window {
    match setup.workload {
        Workload::ColdSkewed | Workload::Checked => {
            let n = setup.requests.len();
            let mut modeled = Modeled::new(n);
            let timing = run_window(seconds, n, 1, |k| {
                let req = &setup.requests[k];
                let item = &setup.items[req.item];
                let t0 = Instant::now();
                let result = CountRequest::new(req.backend.clone())
                    .graph_name(item.name.clone())
                    .run(&item.graph);
                let host_s = t0.elapsed().as_secs_f64();
                checks.count(check_count(&result, item, req));
                if let Ok(tc) = &result {
                    modeled.record(k, tc.seconds * 1e3, checks);
                }
                host_s
            });
            pin_modeled(setup, &modeled, checks);
            Window { timing, modeled }
        }
        Workload::ServeWarm => {
            let engine = setup
                .engine
                .as_ref()
                .expect("serve-warm set-up builds an engine");
            let jobs = setup.batch(false).len();
            let mut modeled = Modeled::new(jobs);
            let timing = run_window(seconds, 1, jobs, |_| {
                let batch = setup.batch(false);
                let t0 = Instant::now();
                let report = engine.run_batch(batch);
                let host_s = t0.elapsed().as_secs_f64();
                for (j, rec) in report.jobs.iter().enumerate() {
                    let item = &setup.items[setup.requests[j % setup.requests.len()].item];
                    match &rec.result {
                        Ok(r) if r.triangles == item.triangles => {
                            checks.count(None);
                            modeled.record(j, r.seconds * 1e3, checks);
                        }
                        Ok(r) => checks.count(Some(format!(
                            "{}: {} triangles, oracle {}",
                            rec.name, r.triangles, item.triangles
                        ))),
                        Err(e) => checks.count(Some(format!("{}: {e}", rec.name))),
                    }
                }
                host_s
            });
            Window { timing, modeled }
        }
    }
}

/// Modeled pins, checked after the window: on `cold-skewed` at the
/// default seed every count equals its `BENCH_6.json` cell; on `checked`
/// every sanitized count equals the same graph's unsanitized count.
fn pin_modeled(setup: &Setup, modeled: &Modeled, checks: &mut Checks) {
    match setup.workload {
        Workload::ColdSkewed if setup.pinned() => {
            let cells = match bench6_cells() {
                Ok(cells) => cells,
                Err(e) => return checks.violate(e),
            };
            for (k, req) in setup.requests.iter().enumerate() {
                let ms = modeled.get(k);
                let name = &setup.items[req.item].name;
                let cell = cells
                    .iter()
                    .find(|(g, b, _)| g == name && b == req.token)
                    .map(|c| c.2);
                match (cell, ms) {
                    (Some(want), Some(got)) if want.to_bits() == got.to_bits() => {}
                    (want, got) => checks.violate(format!(
                        "{name} on {}: modeled {got:?} ms, BENCH_6.json {want:?} ms",
                        req.token
                    )),
                }
            }
        }
        Workload::Checked => {
            let plain = Backend::from_str(CHECKED_PLAIN).expect("plain token parses");
            for (i, item) in setup.items.iter().enumerate() {
                let reference = match CountRequest::new(plain.clone()).run(&item.graph) {
                    Ok(tc) => tc.seconds * 1e3,
                    Err(e) => {
                        return checks.violate(format!("{} on {CHECKED_PLAIN}: {e}", item.name))
                    }
                };
                for (k, req) in setup.requests.iter().enumerate() {
                    let ms = modeled.get(k);
                    if req.item == i && ms.is_some_and(|ms| ms.to_bits() != reference.to_bits()) {
                        checks.violate(format!(
                            "{} on {}: modeled {ms:?} ms, unsanitized {reference} ms",
                            item.name, req.token
                        ));
                    }
                }
            }
        }
        _ => {}
    }
}

/// The committed `BENCH_6.json` cells as (graph, backend, modeled_ms),
/// read from the repository root.
fn bench6_cells() -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_6.json"))
        .map_err(|e| format!("cannot read BENCH_6.json for the modeled pin: {e}"))?;
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.trim().strip_prefix(&format!("\"{key}\": "))?;
        Some(rest.trim_end_matches(',').trim_matches('"').to_string())
    };
    let mut cells = Vec::new();
    let (mut graph, mut backend) = (String::new(), String::new());
    for line in text.lines() {
        if let Some(g) = field(line, "graph") {
            graph = g;
        } else if let Some(b) = field(line, "backend") {
            backend = b;
        } else if let Some(ms) = field(line, "modeled_ms") {
            if let Ok(ms) = ms.parse::<f64>() {
                cells.push((graph.clone(), backend.clone(), ms));
            }
        }
    }
    Ok(cells)
}
