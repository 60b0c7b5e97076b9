//! The repository benchmark: cold analytics on a power-law graph and on a
//! deep out-of-core graph, and durable serving under paced updates.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `analytics-rmat`, `analytics-layered-ooc`, `serve-durable-ooc`.
//! The inputs are a pure function of `--seed`. An untraced run (`--trace 0`)
//! measures the end-to-end metrics; a traced run (`--trace 1`) records spans
//! around every call into a layer and reports the per-layer metrics. Both
//! check every output and end with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! The exit code is non-zero when any check failed.
//!
//! Scratch files (segment stores, WAL, snapshots) live under
//! `.bench_out/scratch-<pid>` and are removed at exit; a traced run writes its
//! spans to `.bench_out/traces/<workload>-seed<n>.json`.

mod analytics;
mod report;
mod serve;
mod spans;
mod stats;

use report::Report;
use spans::Tracer;
use std::path::{Path, PathBuf};

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = [
    "analytics-rmat",
    "analytics-layered-ooc",
    "serve-durable-ooc",
];

/// End-to-end metrics of an untraced run, in output order.
const END_TO_END: [&str; 4] = [
    "setup_s",
    "sssp_or_update_ms",
    "pagerank_or_update_p90_ms",
    "peak_rss_mb",
];

/// Layers whose self time the traced run reports; `bench` is the harness
/// (input generation, output checks, waiting on the serving window), the
/// time no layer accounts for.
const LAYERS: [&str; 6] = ["graph", "partition", "cluster", "core", "delta", "bench"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let out = Path::new(".bench_out");
    let scratch = Scratch(out.join(format!("scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create scratch directory");

    let tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    report.info("workload", &args.workload);
    report.info("seed", args.seed);
    report.info("seconds", args.seconds);
    report.info("trace", u8::from(args.trace));
    report.info("hardware_threads", slfe_bench::hardware_threads());
    report.info("git_commit", git_commit());
    match args.workload.as_str() {
        "analytics-rmat" => analytics::run(
            &analytics::RMAT,
            args.seed,
            args.seconds,
            &tracer,
            &scratch.0,
            &mut report,
        ),
        "analytics-layered-ooc" => analytics::run(
            &analytics::LAYERED_OOC,
            args.seed,
            args.seconds,
            &tracer,
            &scratch.0,
            &mut report,
        ),
        "serve-durable-ooc" => {
            serve::run(args.seed, args.seconds, &tracer, &scratch.0, &mut report)
        }
        _ => unreachable!("workload validated by parse_args"),
    }
    if args.trace {
        write_trace(&tracer, &args, out);
    }
    let expected: Vec<&str> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END.to_vec()
    };
    order_metrics(&mut report, &expected);
    drop(scratch);
    print!("{}", report.render());
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Flush every file under `dir` to disk, so the kernel's write-back of
/// freshly written segment files does not land inside a timed run.
pub fn flush_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            flush_files(&path);
        } else if let Ok(file) = std::fs::File::open(&path) {
            let _ = file.sync_all();
        }
    }
}

/// The commit being measured, or `unknown` outside a git checkout (checked
/// here so no command searches parent directories for a repository).
fn git_commit() -> String {
    if Path::new(".git").exists() {
        slfe_bench::git_commit()
    } else {
        "unknown".to_string()
    }
}

/// Push the end-to-end metrics of an untraced run: `setup_s` is the mean
/// set-up, `a_ms` the median cold SSSP run (analytics) or the median
/// update-to-visible latency (serve), `b_ms` the median cold PageRank run or
/// the p90 update-to-visible latency.
pub fn end_to_end(report: &mut Report, setup_s: f64, a_ms: f64, b_ms: f64) {
    report.metric("setup_s", setup_s, "s");
    report.metric("sssp_or_update_ms", a_ms, "ms");
    report.metric("pagerank_or_update_p90_ms", b_ms, "ms");
    let rss = report::peak_rss_mb();
    report.check(rss.is_some(), || {
        "could not read VmHWM from /proc/self/status".into()
    });
    report.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
}

/// Per-layer self times of the traced run. The main thread's spans nest, so
/// the layers' self times plus the harness's (`bench`, the unattributed
/// residual) sum to the traced run's total; that identity is checked.
pub fn trace_summary(tracer: &Tracer, total: f64, report: &mut Report) {
    let spans = tracer.spans();
    let layers = spans::layer_self_seconds(&spans);
    let mut sum = 0.0;
    for layer in LAYERS {
        let secs = layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, s)| *s);
        sum += secs;
        report.metric(format!("trace.{layer}_self_s"), secs, "s");
    }
    let unknown: Vec<&str> = layers
        .iter()
        .map(|(l, _)| *l)
        .filter(|l| !LAYERS.contains(l))
        .collect();
    report.check(unknown.is_empty(), || {
        format!("spans of unknown layers {unknown:?}")
    });
    report.check((sum - total).abs() <= 1e-6 * total.max(1.0), || {
        format!("layer self times sum to {sum} s, traced total is {total} s")
    });
    report.metric("trace.total_s", total, "s");
    report.metric("trace.spans", spans.len() as f64, "count");
    report.metric("trace.span_cost_ns", span_cost_ns(), "ns");
}

/// Mean cost of recording one span, from a throwaway tracer.
fn span_cost_ns() -> f64 {
    const N: u32 = 10_000;
    let tracer = Tracer::new(true);
    let started = std::time::Instant::now();
    for _ in 0..N {
        let open = tracer.begin(spans::ROOT);
        tracer.end(open, "bench.calibrate");
    }
    started.elapsed().as_nanos() as f64 / f64::from(N)
}

fn write_trace(tracer: &Tracer, args: &Args, out: &Path) {
    let dir = out.join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(&tracer.spans())));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Every per-layer metric name, in output order.
fn per_layer_names() -> Vec<&'static str> {
    let mut names = vec![
        "partition.build_s",
        "cluster.pool_new_s",
        "cluster.layout_build_s",
        "core.rrg_generate_s",
        "core.rrg_work",
        "core.engine_new_s",
        "graph.storage_build_s",
    ];
    for app in ["sssp", "pagerank"] {
        for (field, _) in APP_FIELDS {
            names.push(leak(field.replace("{}", app)));
        }
    }
    names.extend(serve::LAYER_METRICS.iter().map(|(n, _)| *n));
    names.extend(LAYERS.iter().map(|l| leak(format!("trace.{l}_self_s"))));
    names.extend([
        "trace.total_s",
        "trace.spans",
        "trace.span_cost_ns",
        "trace.setup_s",
        "trace.sssp_or_update_ms",
        "trace.pagerank_or_update_p90_ms",
    ]);
    names
}

/// Per-app metric names, `{}` standing for the app, with their units.
pub const APP_FIELDS: [(&str, &str); 16] = [
    ("graph.{}.segments_faulted", "count"),
    ("graph.{}.segment_bytes_read", "bytes"),
    ("graph.{}.pool_hit_rate", "ratio"),
    ("cluster.{}.pool_busy_frac", "ratio"),
    ("cluster.{}.barrier_wait_s", "s"),
    ("cluster.{}.phases", "count"),
    ("core.{}.iterations", "count"),
    ("core.{}.edge_computations", "count"),
    ("core.{}.edge_computations_rr_off", "count"),
    ("core.{}.rr_work_saved", "ratio"),
    ("core.{}.chunks_skipped", "count"),
    ("core.{}.scratch_bytes_peak", "bytes"),
    ("core.{}.push_s", "s"),
    ("core.{}.pull_s", "s"),
    ("core.{}.other_s", "s"),
    ("core.{}.ref_l1_error", "ratio"),
];

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Put the run's metrics in `expected` order; a missing, extra or repeated
/// name is a bug in this program, so it panics (exit code 101).
fn order_metrics(report: &mut Report, expected: &[&str]) {
    let mut ordered = Vec::with_capacity(expected.len());
    for name in expected {
        let at = report
            .metrics
            .iter()
            .position(|m| m.name == *name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        ordered.push(report.metrics.remove(at));
    }
    let extra: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    assert!(extra.is_empty(), "metrics outside the contract: {extra:?}");
    report.metrics = ordered;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of one metric list (`end_to_end` or `per_layer`) in BENCHMARK.json.
    fn contract_names(list: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text.find(&format!("\"{list}\"")).expect("list present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closed")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_the_contract() {
        assert_eq!(contract_names("end_to_end"), END_TO_END.to_vec());
        assert_eq!(contract_names("per_layer"), per_layer_names());
        assert_eq!(contract_names("workloads"), WORKLOADS.to_vec());
    }

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer_names();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() <= 128);
    }

    #[test]
    fn ordering_rejects_missing_metrics() {
        let mut r = Report::default();
        r.metric("b", 2.0, "s");
        r.metric("a", 1.0, "s");
        order_metrics(&mut r, &["a", "b"]);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let missing = std::panic::catch_unwind(move || order_metrics(&mut r, &["a", "b", "c"]));
        assert!(missing.is_err());
    }
}
