//! The cold-analytics workloads: SSSP and PageRank run cold, interleaved, on
//! a generated graph, in memory (`analytics-rmat`) or out of core
//! (`analytics-layered-ooc`).

use crate::report::Report;
use crate::spans::{Tracer, ROOT};
use crate::stats;
use slfe_apps::{pagerank, sssp};
use slfe_cluster::{Cluster, ClusterConfig, WorkerPool};
use slfe_core::{EngineConfig, ProgramResult, RedundancyMode, RrGuidance, SlfeEngine};
use slfe_graph::{generators, Graph, GraphStorage, VertexId};
use slfe_metrics::Mode;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Cold runs of each app the untraced run makes at least, however long.
const MIN_RUNS: usize = 3;
/// Largest absolute PageRank rank error tolerated against the reference —
/// the bound the apps crate's own PageRank tests use. It is loose next to
/// ranks of order `1/|V|`, so every run also reports the L1 error.
const PAGERANK_MAX_ABS_ERROR: f32 = 1e-3;

/// One analytics workload: how to make its graph and where to run it.
pub struct Spec {
    pub name: &'static str,
    pub make_graph: fn(u64) -> Graph,
    /// SSSP root on the generated graph.
    pub root: fn(&Graph) -> VertexId,
    /// Out-of-core buffer-pool budget; `None` runs in memory.
    pub storage_budget: Option<u64>,
    /// Set-ups per untraced run; `setup_s` is their mean (see [`untraced`]).
    /// The in-memory set-up is short and the most bimodal, so it takes more.
    pub setup_reps: usize,
}

pub const RMAT: Spec = Spec {
    name: "analytics-rmat",
    make_graph: |seed| generators::rmat(1 << 18, 16 << 18, 0.57, 0.19, 0.19, seed),
    root: |g| slfe_graph::stats::highest_out_degree_vertex(g).expect("non-empty graph"),
    storage_budget: None,
    setup_reps: 31,
};

/// Layer 0 holds the only propagation roots of a layered graph, so SSSP from
/// vertex 0 walks all 200 layers (the highest-out-degree vertex may sit in a
/// deep layer and end the run in a few iterations).
pub const LAYERED_OOC: Spec = Spec {
    name: "analytics-layered-ooc",
    make_graph: |seed| generators::layered(200, 5000, 4, seed),
    root: |_| 0,
    storage_budget: Some(16 << 20),
    setup_reps: 7,
};

/// The two cold-run applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Sssp,
    PageRank,
}

impl App {
    pub const ALL: [App; 2] = [App::Sssp, App::PageRank];

    pub fn name(self) -> &'static str {
        match self {
            App::Sssp => "sssp",
            App::PageRank => "pagerank",
        }
    }

    pub fn run(self, engine: &SlfeEngine<'_>, root: VertexId) -> ProgramResult<f32> {
        match self {
            App::Sssp => sssp::run(engine, root),
            App::PageRank => pagerank::run(engine),
        }
    }
}

/// Iteration cap of every engine. The default cap (200) equals the layered
/// graph's depth, so SSSP there would stop at the cap one iteration before it
/// can observe an empty frontier and report convergence.
const MAX_ITERATIONS: u32 = 1000;

/// The engine configuration every cold run uses: no per-iteration trace, no
/// telemetry, out of core under `budget` with its files in `dir`.
pub fn engine_config(budget: Option<u64>, dir: &Path) -> EngineConfig {
    let config = EngineConfig::default()
        .with_trace(false)
        .with_max_iterations(MAX_ITERATIONS);
    match budget {
        Some(bytes) => config.with_storage_budget(bytes).with_storage_dir(dir),
        None => config,
    }
}

/// Seconds of each set-up step, in the order they run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub partition: f64,
    pub rrg: f64,
    pub layout: f64,
    pub storage: f64,
    pub engine: f64,
    pub total: f64,
    pub rrg_work: u64,
}

/// The topology every workload runs on: two workers, the chunked production
/// path (one worker per node would take the sequential oracle path).
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig::new(1, 2)
}

/// The worker pool a run's engines share, created once per run under its
/// own span. A fresh pool's worker can share the spawning thread's core for
/// a while; timed per set-up, that doubled the guidance BFS in whole runs.
pub fn new_pool(tracer: &Tracer, parent: u64) -> (Arc<WorkerPool>, f64) {
    tracer.time(parent, "cluster.pool_new", |_| {
        Arc::new(WorkerPool::new(cluster_config().total_workers()))
    })
}

/// Build an engine ready to run from the generated graph on `pool`, one
/// public call per layer, each under its own span.
pub fn setup<'g>(
    graph: &'g Graph,
    config: EngineConfig,
    pool: &Arc<WorkerPool>,
    tracer: &Tracer,
    parent: u64,
) -> (SlfeEngine<'g>, SetupTimes) {
    let mut t = SetupTimes::default();
    let ((engine, rrg_work), total) = tracer.time(parent, "bench.setup", |p| {
        let (cluster, s) = tracer.time(p, "partition.build", |_| {
            Cluster::build(graph, cluster_config())
        });
        t.partition = s;
        let (rrg, s) = tracer.time(p, "core.rrg_generate", |_| {
            RrGuidance::generate_parallel_on(graph, pool)
        });
        t.rrg = s;
        let rrg_work = rrg.generation_work();
        let (layout, s) = tracer.time(p, "cluster.layout_build", |_| cluster.build_layout(graph));
        t.layout = s;
        let (storage, s) = tracer.time(p, "graph.storage_build", |_| {
            config.storage_config().map(|sc| {
                Arc::new(GraphStorage::build(graph, &sc).expect("write out-of-core segments"))
            })
        });
        t.storage = s;
        let (engine, s) = tracer.time(p, "core.engine_new", |_| {
            SlfeEngine::with_prebuilt_layout_and_storage(
                graph,
                cluster,
                config,
                rrg,
                Arc::clone(pool),
                layout,
                storage,
            )
        });
        t.engine = s;
        (engine, rrg_work)
    });
    t.total = total;
    t.rrg_work = rrg_work;
    (engine, t)
}

/// An engine on `base`'s partitioning, guidance, layout and segment store,
/// and on `pool`, under another configuration (engine trace on, or RR off).
pub fn sibling<'g>(
    graph: &'g Graph,
    base: &SlfeEngine<'_>,
    config: EngineConfig,
    pool: &Arc<WorkerPool>,
) -> SlfeEngine<'g> {
    let cluster = Cluster::with_partitioning(
        base.cluster().partitioning().clone(),
        base.cluster().config().clone(),
    );
    SlfeEngine::with_prebuilt_layout_and_storage(
        graph,
        cluster,
        config,
        base.guidance().clone(),
        Arc::clone(pool),
        base.layout().clone(),
        base.storage().cloned(),
    )
}

/// Reference outputs of both apps on one graph.
pub struct References {
    sssp: Vec<f32>,
    pagerank: Vec<f32>,
}

impl References {
    pub fn compute(graph: &Graph, root: VertexId) -> Self {
        Self {
            sssp: sssp::reference(graph, root),
            // Ranks are of order 1/|V|, so iterate far below the engine's
            // default tolerance to get a fixpoint worth comparing against.
            pagerank: pagerank::reference(graph, pagerank::DEFAULT_DAMPING, 1e-10, 200),
        }
    }

    /// L1 error of `values` of `app` against the reference (PageRank compares
    /// ranks, not stored shares).
    pub fn l1_error(&self, graph: &Graph, app: App, values: &[f32]) -> f64 {
        match app {
            App::Sssp => l1_error(values, &self.sssp),
            App::PageRank => l1_error(&pagerank::ranks(graph, values), &self.pagerank),
        }
    }

    /// `None` when `values` of `app` match the reference, else why not: SSSP
    /// distances must equal Dijkstra's bit for bit, PageRank ranks must be
    /// within [`PAGERANK_MAX_ABS_ERROR`] of power iteration.
    pub fn mismatch(&self, graph: &Graph, app: App, values: &[f32]) -> Option<String> {
        match app {
            App::Sssp => {
                let bad = values
                    .iter()
                    .zip(&self.sssp)
                    .filter(|(a, b)| a.to_bits() != b.to_bits())
                    .count();
                (bad > 0 || values.len() != self.sssp.len())
                    .then(|| format!("sssp: {bad} distances differ from Dijkstra"))
            }
            App::PageRank => {
                let got = pagerank::ranks(graph, values);
                let worst = got
                    .iter()
                    .zip(&self.pagerank)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                (worst >= PAGERANK_MAX_ABS_ERROR || got.len() != self.pagerank.len())
                    .then(|| format!("pagerank: max rank error {worst:e} vs power iteration"))
            }
        }
    }
}

/// L1 distance of `got` from `want` over their finite entries, relative to
/// the L1 norm of `want`.
pub fn l1_error(got: &[f32], want: &[f32]) -> f64 {
    let pairs = got
        .iter()
        .zip(want)
        .filter(|(a, b)| a.is_finite() && b.is_finite());
    let (diff, norm) = pairs.fold((0.0, 0.0), |(d, n), (&a, &b)| {
        (d + f64::from(a - b).abs(), n + f64::from(b).abs())
    });
    diff / f64::max(norm, f64::MIN_POSITIVE)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Run one analytics workload and fill `report`.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    scratch: &Path,
    report: &mut Report,
) {
    let root_span = tracer.begin(ROOT);
    let rid = root_span.id();
    let (graph, _) = tracer.time(rid, "bench.generate", |_| (spec.make_graph)(seed));
    let root = (spec.root)(&graph);
    let config = engine_config(spec.storage_budget, scratch);
    report.info(
        "graph",
        format!("|V|={} |E|={}", graph.num_vertices(), graph.num_edges()),
    );
    report.info("sssp_root", root);
    report.info(
        "storage_budget_bytes",
        spec.storage_budget
            .map_or("in-memory".to_string(), |b| b.to_string()),
    );

    if tracer.enabled() {
        traced(spec, &graph, root, config, tracer, rid, scratch, report);
    } else {
        untraced(spec, &graph, root, config, seconds, tracer, scratch, report);
    }
    let total = tracer.end(root_span, "bench.workload");
    if tracer.enabled() {
        crate::trace_summary(tracer, total, report);
    }
}

#[allow(clippy::too_many_arguments)]
fn untraced(
    spec: &Spec,
    graph: &Graph,
    root: VertexId,
    config: EngineConfig,
    seconds: f64,
    tracer: &Tracer,
    scratch: &Path,
    report: &mut Report,
) {
    // The first set-up builds the engine every run uses; the others are
    // spread over the measured window and dropped at once, and `setup_s` is
    // their mean: the machine's speed drifts over seconds, and a few slow
    // set-ups flip a median but move a mean little.
    let (pool, _) = new_pool(tracer, ROOT);
    let (engine, t) = setup(graph, config.clone(), &pool, tracer, ROOT);
    let mut setups = vec![t.total];
    let spare_setup = |setups: &mut Vec<f64>| {
        let (spare, t) = setup(graph, config.clone(), &pool, tracer, ROOT);
        drop(spare);
        setups.push(t.total);
    };
    if let Some(storage) = engine.storage() {
        report.info("segment_footprint_bytes", storage.footprint_bytes());
    }
    crate::flush_files(scratch);

    // Warm-up: one discarded run of each app, checked against its
    // reference; every later run must repeat its bits.
    let refs = References::compute(graph, root);
    let mut anchors: Vec<(Vec<u32>, bool)> = Vec::new();
    for app in App::ALL {
        let result = app.run(&engine, root);
        let mismatch = refs.mismatch(graph, app, &result.values);
        let l1 = refs.l1_error(graph, app, &result.values);
        report.detail(format!("{}_ref_l1_error", app.name()), l1, "ratio");
        let ok = result.converged && mismatch.is_none();
        report.op(ok, || {
            format!(
                "{} warm-up: converged={} {}",
                app.name(),
                result.converged,
                mismatch.unwrap_or_default()
            )
        });
        anchors.push((bits(&result.values), ok));
    }
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
    let started = Instant::now();
    let setup_every = seconds / spec.setup_reps as f64;
    while started.elapsed().as_secs_f64() < seconds || walls[1].len() < MIN_RUNS {
        if setups.len() < spec.setup_reps
            && started.elapsed().as_secs_f64() >= setups.len() as f64 * setup_every
        {
            spare_setup(&mut setups);
        }
        for (i, app) in App::ALL.into_iter().enumerate() {
            let t = Instant::now();
            let result = std::hint::black_box(app.run(&engine, root));
            walls[i].push(t.elapsed().as_secs_f64());
            let (anchor, anchor_ok) = &anchors[i];
            let same = bits(&result.values) == *anchor;
            report.op(result.converged && same && *anchor_ok, || {
                format!(
                    "{} cold run: converged={} bit-identical={same}",
                    app.name(),
                    result.converged
                )
            });
        }
    }
    while setups.len() < spec.setup_reps {
        spare_setup(&mut setups);
    }

    let setup_s = stats::mean(&setups);
    let sssp_s = stats::median(&walls[0]);
    let pagerank_s = stats::median(&walls[1]);
    report.detail("setup_s", setup_s, "s");
    report.detail("setup_median_s", stats::median(&setups), "s");
    report.detail("setup_samples", setups.len() as f64, "count");
    for (i, app) in App::ALL.into_iter().enumerate() {
        report.detail(format!("{}_s", app.name()), stats::median(&walls[i]), "s");
        report.detail(
            format!("{}_samples", app.name()),
            walls[i].len() as f64,
            "count",
        );
        if let Some((pct, v)) = stats::tail(&walls[i]) {
            report.detail(format!("{}_p{pct}_s", app.name()), v, "s");
        }
    }
    crate::end_to_end(report, setup_s, sssp_s * 1e3, pagerank_s * 1e3);
}

/// Counters and timings of one traced cold run of `app`.
pub struct AppTrace {
    pub wall: f64,
    pub result: ProgramResult<f32>,
    pub push_s: f64,
    pub pull_s: f64,
    pub pool_hit_rate: f64,
    pub pool_busy_frac: f64,
    pub barrier_wait_s: f64,
    pub phases: u64,
}

/// Run `app` once on `engine` (built with the engine's own trace on) under a
/// span, with pool and buffer-pool counter deltas around it.
pub fn traced_run(
    engine: &SlfeEngine<'_>,
    app: App,
    root: VertexId,
    tracer: &Tracer,
    parent: u64,
    name: &'static str,
) -> AppTrace {
    let activity = engine.pool().activity();
    let io = engine.storage().map(|s| s.pool().counters());
    let (result, wall) = tracer.time(parent, name, |_| app.run(engine, root));
    let after = engine.pool().activity();
    let busy: u64 = after
        .per_worker_busy_nanos
        .iter()
        .zip(&activity.per_worker_busy_nanos)
        .map(|(a, b)| a - b)
        .sum();
    let lifetime = (after.lifetime_nanos - activity.lifetime_nanos).max(1);
    let pool_hit_rate = match (io, engine.storage()) {
        (Some(before), Some(s)) => {
            let now = s.pool().counters();
            let hits = now.segment_hits - before.segment_hits;
            let faults = now.segments_faulted - before.segments_faulted;
            if hits + faults == 0 {
                0.0
            } else {
                hits as f64 / (hits + faults) as f64
            }
        }
        _ => 0.0,
    };
    let mode_seconds = |mode: Mode| -> f64 {
        result
            .stats
            .trace
            .records()
            .iter()
            .filter(|r| r.mode == mode)
            .map(|r| r.seconds)
            .sum()
    };
    AppTrace {
        wall,
        push_s: mode_seconds(Mode::Push),
        pull_s: mode_seconds(Mode::Pull),
        pool_hit_rate,
        pool_busy_frac: busy as f64 / (lifetime as f64 * after.per_worker_busy_nanos.len() as f64),
        barrier_wait_s: (after.barrier_wait_nanos - activity.barrier_wait_nanos) as f64 * 1e-9,
        phases: after.phases - activity.phases,
        result,
    }
}

/// Per-app layer metrics of a traced run (RR on, engine trace on) against
/// the same app with RR off.
pub fn app_layer_metrics(
    report: &mut Report,
    app: App,
    on: &AppTrace,
    rr_off_edges: u64,
    ref_l1_error: f64,
) {
    let n = app.name();
    let t = &on.result.stats.totals;
    report.metric(
        format!("graph.{n}.segments_faulted"),
        t.segments_faulted as f64,
        "count",
    );
    report.metric(
        format!("graph.{n}.segment_bytes_read"),
        t.segment_bytes_read as f64,
        "bytes",
    );
    report.metric(
        format!("graph.{n}.pool_hit_rate"),
        on.pool_hit_rate,
        "ratio",
    );
    report.metric(
        format!("cluster.{n}.pool_busy_frac"),
        on.pool_busy_frac,
        "ratio",
    );
    report.metric(
        format!("cluster.{n}.barrier_wait_s"),
        on.barrier_wait_s,
        "s",
    );
    report.metric(format!("cluster.{n}.phases"), on.phases as f64, "count");
    report.metric(
        format!("core.{n}.iterations"),
        on.result.iterations() as f64,
        "count",
    );
    report.metric(
        format!("core.{n}.edge_computations"),
        t.edge_computations as f64,
        "count",
    );
    report.metric(
        format!("core.{n}.edge_computations_rr_off"),
        rr_off_edges as f64,
        "count",
    );
    let saved = if rr_off_edges == 0 {
        0.0
    } else {
        1.0 - t.edge_computations as f64 / rr_off_edges as f64
    };
    report.metric(format!("core.{n}.rr_work_saved"), saved, "ratio");
    report.metric(
        format!("core.{n}.chunks_skipped"),
        t.chunks_skipped as f64,
        "count",
    );
    report.metric(
        format!("core.{n}.scratch_bytes_peak"),
        t.scratch_bytes_peak as f64,
        "bytes",
    );
    report.metric(format!("core.{n}.push_s"), on.push_s, "s");
    report.metric(format!("core.{n}.pull_s"), on.pull_s, "s");
    report.metric(
        format!("core.{n}.other_s"),
        (on.wall - on.push_s - on.pull_s).max(0.0),
        "s",
    );
    report.metric(format!("core.{n}.ref_l1_error"), ref_l1_error, "ratio");
}

/// Zero-valued per-app metrics for a workload that does not run `app`.
pub fn absent_app_metrics(report: &mut Report, app: App) {
    for (field, unit) in crate::APP_FIELDS {
        report.metric(field.replace("{}", app.name()), 0.0, unit);
    }
}

#[allow(clippy::too_many_arguments)]
fn traced(
    spec: &Spec,
    graph: &Graph,
    root: VertexId,
    config: EngineConfig,
    tracer: &Tracer,
    parent: u64,
    scratch: &Path,
    report: &mut Report,
) {
    let (pool, pool_s) = new_pool(tracer, parent);
    let (engine, t) = setup(graph, config.clone(), &pool, tracer, parent);
    tracer.time(parent, "bench.flush", |_| crate::flush_files(scratch));
    let traced_engine = sibling(graph, &engine, config.clone().with_trace(true), &pool);
    let rr_off = sibling(
        graph,
        &engine,
        config.with_redundancy(RedundancyMode::Disabled),
        &pool,
    );
    let refs = tracer
        .time(parent, "bench.reference", |_| {
            References::compute(graph, root)
        })
        .0;
    let mut traced_ms = [0.0; 2];
    for (i, app) in App::ALL.into_iter().enumerate() {
        // An untraced cold run first (it also warms the process), then the
        // traced run the layer metrics come from, then RR off for the base.
        let (plain, _) = tracer.time(parent, "core.run_untraced", |_| app.run(&engine, root));
        let on = traced_run(&traced_engine, app, root, tracer, parent, "core.run_traced");
        let (off, _) = tracer.time(parent, "core.run_rr_off", |_| app.run(&rr_off, root));
        let same = bits(&plain.values) == bits(&on.result.values);
        let mismatch = refs.mismatch(graph, app, &plain.values);
        report.op(
            plain.converged && on.result.converged && same && mismatch.is_none(),
            || {
                format!(
                    "{} traced run: bit-identical={same} {}",
                    app.name(),
                    mismatch.unwrap_or_default()
                )
            },
        );
        let l1 = refs.l1_error(graph, app, &plain.values);
        app_layer_metrics(report, app, &on, off.stats.totals.edge_computations, l1);
        traced_ms[i] = on.wall * 1e3;
    }
    report.metric("trace.sssp_or_update_ms", traced_ms[0], "ms");
    report.metric("trace.pagerank_or_update_p90_ms", traced_ms[1], "ms");
    report.metric("trace.setup_s", t.total, "s");
    setup_layer_metrics(report, &t, pool_s);
    serve_layer_absent(report);
    report.info("workload", spec.name);
}

/// Set-up layer metrics of one traced set-up, and of creating its pool.
pub fn setup_layer_metrics(report: &mut Report, t: &SetupTimes, pool_s: f64) {
    report.metric("partition.build_s", t.partition, "s");
    report.metric("cluster.pool_new_s", pool_s, "s");
    report.metric("cluster.layout_build_s", t.layout, "s");
    report.metric("core.rrg_generate_s", t.rrg, "s");
    report.metric("core.rrg_work", t.rrg_work as f64, "count");
    report.metric("core.engine_new_s", t.engine, "s");
    report.metric("graph.storage_build_s", t.storage, "s");
}

/// Zero-valued serving metrics for the analytics workloads, which never
/// touch the delta layer.
fn serve_layer_absent(report: &mut Report) {
    for (name, unit) in crate::serve::LAYER_METRICS {
        report.metric(*name, 0.0, unit);
    }
}
