//! The `tcount batch` jobfile format: one job spec per line, `key=value`
//! tokens separated by whitespace.
//!
//! ```text
//! # throughput smoke: one prepare, many counts
//! graph=watts-strogatz backend=gtx980 repeat=8
//! graph=kronecker-10  backend=c2050  timeout-ms=250 profile=true
//! graph=file:graphs/roads.txt backend=forward
//! ```
//!
//! Keys:
//!
//! * `graph` (required) — a Table I suite name (`watts-strogatz`,
//!   `kronecker-10`, …) generated at `scale`, or `file:<path>` loaded by
//!   extension (`.bin` binary, `.metis`/`.graph` METIS, otherwise text).
//! * `backend` (required) — a canonical [`Backend`] token; the same parser
//!   `tcount --backend` uses.
//! * `repeat` — expand the line into N jobs, 1 ≤ N ≤ [`MAX_REPEAT`]
//!   (default 1). Repeats of a GPU job are exactly what the
//!   prepared-session cache amortizes.
//! * `timeout-ms` — modeled-time budget per job.
//! * `profile` — `true`/`false`: attach a per-job profile report.
//! * `scale` — `smoke`/`bench`/`large` suite scale for this line
//!   (overrides the parser-level default).
//!
//! Graphs are loaded/generated once per distinct spec and shared between
//! jobs via `Arc`, mirroring how a serving deployment holds one host copy.

use std::collections::HashMap;
use std::sync::Arc;

use tc_core::Backend;
use tc_gen::suite::SUITE_SEED;
use tc_gen::{GraphSpec, Scale};
use tc_graph::{io, EdgeArray};

use crate::error::EngineError;
use crate::Job;

/// Largest `repeat` one jobfile line may ask for. Lines expand eagerly into
/// jobs, so an unbounded count would hang the parser on allocation instead
/// of failing with a typed error.
pub const MAX_REPEAT: usize = 10_000;

/// Parse a jobfile into jobs, generating/loading each distinct graph once.
pub fn parse_jobfile(text: &str, default_scale: Scale) -> Result<Vec<Job>, EngineError> {
    let mut graphs: HashMap<String, Arc<EdgeArray>> = HashMap::new();
    let mut jobs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let spec = parse_line(line)
            .map_err(|msg| EngineError::Jobfile(format!("line {}: {msg}", lineno + 1)))?;
        let scale = spec.scale.unwrap_or(default_scale);
        let graph_key = format!("{}@{}", spec.graph, scale_token(scale));
        let graph = match graphs.get(&graph_key) {
            Some(g) => Arc::clone(g),
            None => {
                let g =
                    Arc::new(resolve_graph(&spec.graph, scale).map_err(|msg| {
                        EngineError::Jobfile(format!("line {}: {msg}", lineno + 1))
                    })?);
                graphs.insert(graph_key, Arc::clone(&g));
                g
            }
        };
        for rep in 0..spec.repeat {
            let mut job = Job::new(
                format!("{}@{}#{rep}", spec.graph, spec.backend),
                Arc::clone(&graph),
                spec.backend.clone(),
            )
            .profile(spec.profile);
            if let Some(ms) = spec.timeout_ms {
                job = job.timeout_ms(ms);
            }
            jobs.push(job);
        }
    }
    Ok(jobs)
}

struct LineSpec {
    graph: String,
    backend: Backend,
    repeat: usize,
    timeout_ms: Option<f64>,
    profile: bool,
    scale: Option<Scale>,
}

fn parse_line(line: &str) -> Result<LineSpec, String> {
    let mut graph = None;
    let mut backend = None;
    let mut repeat = 1usize;
    let mut timeout_ms = None;
    let mut profile = false;
    let mut scale = None;
    for token in line.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {token:?}"))?;
        match key {
            "graph" => graph = Some(value.to_string()),
            "backend" => {
                backend = Some(value.parse::<Backend>().map_err(|e| e.to_string())?);
            }
            "repeat" => {
                repeat = value
                    .parse::<usize>()
                    .ok()
                    .filter(|n| (1..=MAX_REPEAT).contains(n))
                    .ok_or_else(|| {
                        format!("repeat must be an integer in 1..={MAX_REPEAT}, got {value:?}")
                    })?;
            }
            "timeout-ms" => {
                let ms = value
                    .parse::<f64>()
                    .ok()
                    .filter(|ms| ms.is_finite() && *ms > 0.0)
                    .ok_or_else(|| format!("timeout-ms must be positive, got {value:?}"))?;
                timeout_ms = Some(ms);
            }
            "profile" => {
                profile = match value {
                    "true" | "on" | "1" => true,
                    "false" | "off" | "0" => false,
                    other => return Err(format!("profile must be true/false, got {other:?}")),
                };
            }
            "scale" => {
                scale = Some(match value {
                    "smoke" => Scale::Smoke,
                    "bench" => Scale::Bench,
                    "large" => Scale::Large,
                    other => return Err(format!("unknown scale {other:?}")),
                });
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    Ok(LineSpec {
        graph: graph.ok_or("missing graph=")?,
        backend: backend.ok_or("missing backend=")?,
        repeat,
        timeout_ms,
        profile,
        scale,
    })
}

fn scale_token(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Bench => "bench",
        Scale::Large => "large",
    }
}

fn resolve_graph(token: &str, scale: Scale) -> Result<EdgeArray, String> {
    if let Some(path) = token.strip_prefix("file:") {
        let loaded = if path.ends_with(".bin") {
            io::read_binary(path)
        } else if path.ends_with(".metis") || path.ends_with(".graph") {
            io::read_metis(path)
        } else {
            io::read_text(path)
        };
        return loaded.map_err(|e| format!("loading {path}: {e}"));
    }
    GraphSpec::all()
        .into_iter()
        .find(|s| s.name(scale) == token)
        .map(|s| s.generate(scale, SUITE_SEED))
        .ok_or_else(|| {
            format!(
                "unknown graph {token:?} (expected file:<path> or a suite name like {:?})",
                GraphSpec::WattsStrogatz.name(scale)
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_suite_jobs_with_repeat_and_options() {
        let text = "\
# comment line
graph=watts-strogatz backend=gtx980 repeat=3 timeout-ms=500 profile=true

graph=watts-strogatz backend=forward   # trailing comment
";
        let jobs = parse_jobfile(text, Scale::Smoke).unwrap();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].name, "watts-strogatz@gtx980#0");
        assert_eq!(jobs[2].name, "watts-strogatz@gtx980#2");
        assert!(jobs[0].profile);
        assert_eq!(jobs[0].timeout_ms, Some(500.0));
        assert_eq!(jobs[3].backend.to_string(), "forward");
        // One host copy of the graph, shared by all four jobs.
        assert!(Arc::ptr_eq(&jobs[0].graph, &jobs[3].graph));
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (text, needle) in [
            ("graph=watts-strogatz", "missing backend"),
            ("backend=forward", "missing graph"),
            ("graph=nope backend=forward", "unknown graph"),
            ("graph=watts-strogatz backend=warp9", "unknown backend"),
            ("graph=watts-strogatz backend=forward repeat=0", "repeat"),
            (
                "graph=watts-strogatz backend=forward repeat=99999999999",
                "repeat must be an integer in 1..=10000",
            ),
            (
                "graph=watts-strogatz backend=forward bogus=1",
                "unknown key",
            ),
            (
                "graph=watts-strogatz backend=forward timeout-ms=-4",
                "timeout-ms",
            ),
        ] {
            let err = parse_jobfile(text, Scale::Smoke).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("line 1"), "{msg}");
            assert!(msg.contains(needle), "{msg} missing {needle}");
        }
    }

    #[test]
    fn repeat_is_bounded_and_names_its_line() {
        let ok = format!("graph=watts-strogatz backend=forward repeat={MAX_REPEAT}");
        assert_eq!(parse_jobfile(&ok, Scale::Smoke).unwrap().len(), MAX_REPEAT);
        let text = format!(
            "graph=watts-strogatz backend=forward\n\
             graph=watts-strogatz backend=forward repeat={}",
            MAX_REPEAT + 1
        );
        match parse_jobfile(&text, Scale::Smoke) {
            Err(EngineError::Jobfile(msg)) => {
                assert!(msg.starts_with("line 2: repeat"), "{msg}");
            }
            other => panic!("expected a jobfile error, got {other:?}"),
        }
    }

    #[test]
    fn loads_graph_files_by_extension() {
        let dir = std::env::temp_dir().join("tc_engine_jobfile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tri.txt");
        let g = EdgeArray::from_undirected_pairs([(0, 1), (1, 2), (0, 2)]);
        io::write_text(&g, &path).unwrap();
        let text = format!("graph=file:{} backend=forward repeat=2", path.display());
        let jobs = parse_jobfile(&text, Scale::Smoke).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].graph.num_edges(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn per_line_scale_overrides_the_default() {
        let text = "graph=watts-strogatz backend=forward scale=smoke";
        let jobs = parse_jobfile(text, Scale::Bench).unwrap();
        let smoke = jobs[0].graph.num_edges();
        let bench = parse_jobfile("graph=watts-strogatz backend=forward", Scale::Bench).unwrap()[0]
            .graph
            .num_edges();
        assert!(smoke < bench, "smoke {smoke} vs bench {bench}");
    }
}
