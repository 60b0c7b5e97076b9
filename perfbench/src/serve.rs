//! The `serve-durable-ooc` workload: a durable, out-of-core SSSP server
//! behind the serving front end, fed open loop at a fixed update rate while
//! one reader queries closed loop.

use crate::analytics::{self, App};
use crate::report::Report;
use crate::spans::{Tracer, ROOT};
use crate::stats;
use slfe_apps::sssp::SsspProgram;
use slfe_core::EngineConfig;
use slfe_delta::{
    BatchOutcome, DeltaServer, DurabilityConfig, EdgeUpdate, FrontendConfig, FrontendHandle,
    PublishedVersion, ServerConfig, ServingFrontend,
};
use slfe_graph::rng::SplitMix64;
use slfe_graph::{generators, Graph, UpdateBatch, VertexId};
use slfe_metrics::LatencyHistogram;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop update rate.
const RATE_PER_S: f64 = 200.0;
/// Reader think time between queries.
const THINK: Duration = Duration::from_micros(100);
/// Buffer-pool budget against a ~35 MB segment footprint.
const STORAGE_BUDGET: u64 = 4 << 20;
/// Set-ups per untraced run; `setup_s` is their mean, as for the analytics
/// workloads.
const SETUP_REPS: usize = 5;
/// Versions one front end publishes before the producer hands over to a
/// respawned one (see [`run`]).
const SEGMENT_VERSIONS: u64 = 3;
/// Updates of the first seconds only warm the server up: the backlog and the
/// snapshot rhythm take about three seconds to settle.
const WARMUP_SECONDS: f64 = 3.0;
/// How long a drain may take before undrained updates count failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Snapshot cadence of the traced replay (the default automatic cadence).
const SNAPSHOT_EVERY: usize = 8;

/// Per-layer serving metrics, reported as zeros by the analytics workloads.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("graph.apply_batch_ms", "ms"),
    ("graph.segments_rewritten", "count"),
    ("graph.storage_file_bytes", "bytes"),
    ("graph.storage_dead_bytes", "bytes"),
    ("cluster.layout_nodes_rebuilt", "count"),
    ("cluster.layout_vertices_scanned", "count"),
    ("core.warm_work", "count"),
    ("core.warm_iterations", "count"),
    ("core.full_recomputes", "count"),
    ("core.rrg_repair_work", "count"),
    ("delta.create_s", "s"),
    ("delta.try_apply_p50_ms", "ms"),
    ("delta.try_apply_tail_ms", "ms"),
    ("delta.wal_fsync_ms", "ms"),
    ("delta.snapshot_ms", "ms"),
    ("delta.apply_other_ms", "ms"),
    ("delta.group_size", "count"),
    ("delta.queue_high_water", "count"),
    ("delta.frontend_apply_p50_ms", "ms"),
    ("delta.submit_us", "us"),
    ("serve.update_visible_p50_ms", "ms"),
    ("serve.update_visible_tail_ms", "ms"),
    ("serve.query_p50_us", "us"),
    ("serve.query_tail_us", "us"),
    ("serve.generator_late_p50_ms", "ms"),
];

type Program = SsspProgram;
type Factory = Box<dyn Fn(&Graph) -> Program + Send>;
type Server = DeltaServer<Program, Factory>;

fn make_graph(seed: u64) -> Graph {
    generators::rmat(1 << 17, 16 << 17, 0.57, 0.19, 0.19, seed)
}

fn engine_config(scratch: &Path) -> EngineConfig {
    analytics::engine_config(Some(STORAGE_BUDGET), &scratch.join("segments"))
}

fn server_config(scratch: &Path) -> ServerConfig {
    ServerConfig {
        cluster: analytics::cluster_config(),
        engine: engine_config(scratch),
        ..ServerConfig::default()
    }
}

fn factory(root: VertexId) -> Factory {
    Box::new(move |g: &Graph| SsspProgram {
        root: g.to_physical(root),
    })
}

/// A seeded update stream over `graph`: ~60% inserts of absent edges, ~25%
/// deletions and ~15% reweights of present edges, no `(src, dst)` pair twice.
pub fn make_stream(graph: &Graph, len: usize, seed: u64) -> Vec<EdgeUpdate> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5EED_5EED);
    let n = graph.num_vertices() as u32;
    let edges = graph.edges();
    let mut used: HashSet<(VertexId, VertexId)> = HashSet::with_capacity(len);
    let mut stream = Vec::with_capacity(len);
    while stream.len() < len {
        let roll = rng.next_f64();
        if roll < 0.60 {
            let (src, dst) = (rng.range_u32(0, n), rng.range_u32(0, n));
            if src != dst && !graph.has_edge(src, dst) && used.insert((src, dst)) {
                let weight = rng.range_f32(1.0, 10.0);
                stream.push(EdgeUpdate::Insert { src, dst, weight });
            }
        } else {
            let e = edges[rng.range_usize(0, edges.len())];
            if used.insert((e.src, e.dst)) {
                stream.push(if roll < 0.85 {
                    EdgeUpdate::Delete {
                        src: e.src,
                        dst: e.dst,
                    }
                } else {
                    EdgeUpdate::Insert {
                        src: e.src,
                        dst: e.dst,
                        weight: rng.range_f32(1.0, 10.0),
                    }
                });
            }
        }
    }
    stream
}

/// For each of `accepted` updates, in admission order, the index into
/// `groups` (FIFO group commits, each its staged-op count) of the group that
/// carried it; `None` for updates no committed group carried.
pub fn group_of_each(groups: &[usize], accepted: usize) -> Vec<Option<usize>> {
    let mut out = Vec::with_capacity(accepted);
    for (g, &size) in groups.iter().enumerate() {
        out.extend(std::iter::repeat_n(Some(g), size));
    }
    out.truncate(accepted);
    out.resize(accepted, None);
    out
}

/// First reader sighting (seconds since the window start) of a version at or
/// above `seq`; `sightings` holds `(seq, at)` with both non-decreasing.
pub fn first_sighting(sightings: &[(u64, f64)], seq: u64) -> Option<f64> {
    let i = sightings.partition_point(|&(s, _)| s < seq);
    sightings.get(i).map(|&(_, at)| at)
}

/// What the load generator and the reader saw while one front end served.
struct Window {
    /// Per accepted update: seconds from the schedule origin to when it was due.
    accepted_due: Vec<f64>,
    shed: u64,
    /// Seconds the generator sent each update after it was due.
    late: Vec<f64>,
    submit_s: Vec<f64>,
    query_s: Vec<f64>,
    /// `(seq, vertex, value bits)` of every answer.
    answers: Vec<(u64, VertexId, Option<u32>)>,
    /// `(seq, seconds from the origin)` of each newer version the reader saw.
    sightings: Vec<(u64, f64)>,
    history: Vec<(UpdateBatch, Arc<PublishedVersion<f32>>)>,
    initial: Arc<PublishedVersion<f32>>,
    drained: bool,
}

fn spawn_server(graph: &Graph, root: VertexId, dir: &Path, scratch: &Path) -> Server {
    let durability = DurabilityConfig::new(dir);
    DeltaServer::create_durable(
        graph.clone(),
        factory(root),
        server_config(scratch),
        durability,
    )
    .expect("create durable server")
}

fn frontend_config() -> FrontendConfig {
    FrontendConfig {
        record_history: true,
        ..FrontendConfig::default()
    }
}

/// Serve a prefix of `stream` through one front end: the producer submits
/// it open loop, update `i` due at `origin + (first + i) / RATE_PER_S`, and
/// stops once [`SEGMENT_VERSIONS`] versions were published; the reader
/// queries closed loop until every accepted update was seen visible (or the
/// drain timed out). Returns the window and how many updates it consumed.
#[allow(clippy::too_many_arguments)]
fn serve_window(
    handle: &FrontendHandle<f32>,
    stream: &[EdgeUpdate],
    first: usize,
    origin: Instant,
    n: u32,
    seed: u64,
    tracer: &Tracer,
    parent: u64,
) -> (Window, usize) {
    let initial = handle.published();
    let stop = AtomicBool::new(false);
    let seen_seq = AtomicU64::new(initial.seq());
    let secs = |at: Instant| at.saturating_duration_since(origin).as_secs_f64();
    let (producer, reader, drained) = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let mut accepted_due = Vec::with_capacity(stream.len());
            let mut late = Vec::with_capacity(stream.len());
            let mut submit_s = Vec::with_capacity(stream.len());
            let mut shed = 0u64;
            let mut consumed = 0;
            for (i, update) in stream.iter().enumerate() {
                if handle.counters().batches_committed >= SEGMENT_VERSIONS {
                    break;
                }
                consumed += 1;
                let due = origin + Duration::from_secs_f64((first + i) as f64 / RATE_PER_S);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push(secs(Instant::now()) - secs(due));
                let open = tracer.begin_side(parent);
                let admitted = handle.submit(*update).is_ok();
                submit_s.push(tracer.end(open, "delta.submit"));
                if admitted {
                    accepted_due.push(secs(due));
                } else {
                    shed += 1;
                }
            }
            (accepted_due, late, submit_s, shed, consumed)
        });
        let reader = scope.spawn(|| {
            let mut rng = SplitMix64::seed_from_u64(seed ^ 0xBEE5);
            let mut query_s = Vec::new();
            let mut answers = Vec::new();
            let mut sightings = vec![(initial.seq(), secs(Instant::now()))];
            while !stop.load(Ordering::Acquire) {
                let v = rng.range_u32(0, n);
                let open = tracer.begin_side(parent);
                let answer = handle.point(v, None).expect("no deadline set");
                query_s.push(tracer.end(open, "delta.point"));
                let seen = Instant::now();
                if answer.seq > sightings.last().expect("seeded").0 {
                    sightings.push((answer.seq, secs(seen)));
                    seen_seq.store(answer.seq, Ordering::Release);
                }
                answers.push((answer.seq, v, answer.value.map(f32::to_bits)));
                std::thread::sleep(THINK);
            }
            (query_s, answers, sightings)
        });
        // Main thread: wait for the producer, then for the drain: every
        // accepted update committed and its version seen by the reader.
        let produced = producer.join().expect("producer thread panicked");
        let accepted = produced.0.len();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut drained = false;
        while !drained && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            let history = handle.commit_history();
            let committed: usize = history.iter().map(|(b, _)| b.staged_ops()).sum();
            let last = history.last().map_or(initial.seq(), |(_, v)| v.seq());
            drained = committed >= accepted && seen_seq.load(Ordering::Acquire) >= last;
        }
        stop.store(true, Ordering::Release);
        let read = reader.join().expect("reader thread panicked");
        (produced, read, drained)
    });
    let (accepted_due, late, submit_s, shed, consumed) = producer;
    let (query_s, answers, sightings) = reader;
    let window = Window {
        accepted_due,
        shed,
        late,
        submit_s,
        query_s,
        answers,
        sightings,
        history: handle.commit_history(),
        initial,
        drained,
    };
    (window, consumed)
}

/// Update-to-visible latencies (seconds) of every accepted update; `None`
/// for an update never seen visible.
fn visible_latencies(w: &Window) -> Vec<Option<f64>> {
    let groups: Vec<usize> = w.history.iter().map(|(b, _)| b.staged_ops()).collect();
    group_of_each(&groups, w.accepted_due.len())
        .into_iter()
        .zip(&w.accepted_due)
        .map(|(group, &due)| {
            let seq = w.history[group?].1.seq();
            first_sighting(&w.sightings, seq).map(|seen| (seen - due).max(0.0))
        })
        .collect()
}

/// Count the window's operations and check every reader answer against the
/// version whose seq it carries.
fn account_window(w: &Window, visible: &[Option<f64>], report: &mut Report) {
    let never = visible.iter().filter(|v| v.is_none()).count() as u64;
    report.ops(
        w.accepted_due.len() as u64 + w.shed,
        w.shed + never,
        "updates (shed or never visible)",
    );
    let mut versions: HashMap<u64, &PublishedVersion<f32>> = HashMap::new();
    versions.insert(w.initial.seq(), &w.initial);
    for (_, v) in &w.history {
        versions.insert(v.seq(), v);
    }
    let wrong = w
        .answers
        .iter()
        .filter(|&&(seq, v, bits)| {
            versions
                .get(&seq)
                .is_none_or(|ver| ver.value(v).map(f32::to_bits) != bits)
        })
        .count() as u64;
    report.ops(
        w.answers.len() as u64,
        wrong,
        "queries (answer differs from its version)",
    );
    report.check(w.drained, || "drain timed out".into());
}

/// Check the served fixpoint bit-for-bit against a from-scratch cold run on
/// the final graph; in the traced run the cold run also yields the SSSP
/// layer metrics.
fn check_final(
    server: &Server,
    root: VertexId,
    expected: &[f32],
    scratch: &Path,
    tracer: &Tracer,
    parent: u64,
    report: &mut Report,
) {
    let graph = server.graph();
    let config = engine_config(scratch);
    let (pool, _) = analytics::new_pool(tracer, parent);
    let (engine, _) = analytics::setup(graph, config.clone(), &pool, tracer, parent);
    let root = graph.to_physical(root);
    let result = if tracer.enabled() {
        let traced = analytics::sibling(graph, &engine, config.clone().with_trace(true), &pool);
        let on = analytics::traced_run(&traced, App::Sssp, root, tracer, parent, "core.run_traced");
        let off = analytics::sibling(
            graph,
            &engine,
            config.with_redundancy(slfe_core::RedundancyMode::Disabled),
            &pool,
        );
        let (rr_off, _) = tracer.time(parent, "core.run_rr_off", |_| App::Sssp.run(&off, root));
        let dijkstra = slfe_apps::sssp::reference(graph, root);
        let l1 = analytics::l1_error(&on.result.values, &dijkstra);
        analytics::app_layer_metrics(
            report,
            App::Sssp,
            &on,
            rr_off.stats.totals.edge_computations,
            l1,
        );
        on.result
    } else {
        App::Sssp.run(&engine, root)
    };
    report.check(same_bits(&result.values, server.values()), || {
        "served values differ from a from-scratch run on the final graph".into()
    });
    report.check(same_bits(server.values(), expected), || {
        "last published version differs from the server's values".into()
    });
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Keep glibc malloc to one arena for the serving workload. Every respawned
/// writer thread otherwise allocates graph versions in arena heaps whose
/// fragmentation makes the peak resident set wander by a third between runs
/// of the same seed; with one arena it repeats within a few percent.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's allocator-tuning entry point; it takes two
    // plain integers, touches no memory of ours, and `M_ARENA_MAX` with a
    // positive value is a documented parameter. It runs on the main thread
    // before this workload spawns any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

/// Measurements pooled over the measured windows.
#[derive(Default)]
struct Pooled {
    visible_ms: Vec<f64>,
    query_us: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    shed: u64,
    coalesced: u64,
    committed: u64,
    quarantined: u64,
    queue_high_water: u64,
    apply: LatencyHistogram,
}

/// Run the serving workload and fill `report`.
///
/// One durable server serves the whole run, first `WARMUP_SECONDS` of
/// updates unmeasured, then `seconds` measured. Its front end records its
/// history (each committed group and the version it published), which maps
/// every update to the version that made it visible and checks every answer.
/// That history pins every published version, and each version pins its
/// storage generation and graph (~50 MB here), so the front end is shut down
/// and respawned on the same warm server every [`SEGMENT_VERSIONS`] versions.
/// Updates due during the hand-over wait for the drain's apply, as they would
/// for any in-flight apply, plus the respawn.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer, scratch: &Path, report: &mut Report) {
    single_malloc_arena();
    let root_span = tracer.begin(ROOT);
    let rid = root_span.id();
    let warmup = (RATE_PER_S * WARMUP_SECONDS).round() as usize;
    let updates = warmup + (RATE_PER_S * seconds).round().max(1.0) as usize;
    let ((graph, stream), _) = tracer.time(rid, "bench.generate", |_| {
        let graph = make_graph(seed);
        let stream = make_stream(&graph, updates, seed);
        (graph, stream)
    });
    let root = slfe_graph::stats::highest_out_degree_vertex(&graph).expect("non-empty graph");
    let n = graph.num_vertices() as u32;
    report.info(
        "graph",
        format!("|V|={} |E|={}", graph.num_vertices(), graph.num_edges()),
    );
    report.info("sssp_root", root);
    report.info("storage_budget_bytes", STORAGE_BUDGET);
    report.info("update_rate_per_s", RATE_PER_S);
    report.info("updates", format!("{updates} ({warmup} warm-up)"));

    let reps = if tracer.enabled() { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut frontend = None;
    for rep in 0..reps {
        if let Some(previous) = frontend.take() {
            drop(ServingFrontend::shutdown(previous));
        }
        let dir = scratch.join(format!("durable-{rep}"));
        let (f, s) = tracer.time(rid, "bench.setup", |p| {
            let (server, _) = tracer.time(p, "delta.create_durable", |_| {
                spawn_server(&graph, root, &dir, scratch)
            });
            tracer
                .time(p, "delta.frontend_spawn", |_| {
                    ServingFrontend::spawn(server, frontend_config())
                })
                .0
        });
        setups.push(s);
        frontend = Some(f);
    }
    if let Some(storage) = frontend
        .as_ref()
        .and_then(|f| f.handle().published().storage().cloned())
    {
        report.info("segment_footprint_bytes", storage.footprint_bytes());
    }
    tracer.time(rid, "bench.flush", |_| crate::flush_files(scratch));

    let mut pooled = Pooled::default();
    let mut batches: Vec<UpdateBatch> = Vec::new();
    let mut server: Option<Server> = None;
    let mut last_values: Vec<f32> = Vec::new();
    let origin = Instant::now();
    let mut first = 0;
    while first < stream.len() {
        // Warm-up and measured updates never share a segment.
        let end = if first < warmup { warmup } else { stream.len() };
        let f = frontend.take().unwrap_or_else(|| {
            let server = server
                .take()
                .expect("server returned by the previous segment");
            tracer
                .time(rid, "delta.frontend_spawn", |_| {
                    ServingFrontend::spawn(server, frontend_config())
                })
                .0
        });
        let handle = f.handle();
        let ((window, consumed), _) = tracer.time(rid, "bench.serve_window", |p| {
            serve_window(
                &handle,
                &stream[first..end],
                first,
                origin,
                n,
                seed ^ first as u64,
                tracer,
                p,
            )
        });
        let c = handle.counters();
        let apply = handle.apply_latency();
        server = Some(tracer.time(rid, "delta.shutdown", |_| f.shutdown()).0);

        let visible = visible_latencies(&window);
        account_window(&window, &visible, report);
        last_values = window
            .history
            .last()
            .map_or(window.initial.values(), |(_, v)| v.values())
            .to_vec();
        batches.extend(window.history.iter().map(|(b, _)| b.clone()));
        if first >= warmup {
            pooled
                .visible_ms
                .extend(visible.iter().flatten().map(|s| s * 1e3));
            pooled
                .query_us
                .extend(window.query_s.iter().map(|s| s * 1e6));
            pooled.late_ms.extend(window.late.iter().map(|s| s * 1e3));
            pooled
                .submit_us
                .extend(window.submit_s.iter().map(|s| s * 1e6));
            pooled.shed += window.shed;
            pooled.coalesced += c.updates_coalesced;
            pooled.committed += c.batches_committed;
            pooled.quarantined += c.batches_quarantined;
            pooled.queue_high_water = pooled.queue_high_water.max(c.queue_high_water);
            pooled.apply += apply;
        }
        first += consumed;
    }
    let server = server.expect("at least one segment");
    tracer.time(rid, "bench.check", |p| {
        check_final(&server, root, &last_values, scratch, tracer, p, report)
    });
    drop(server);

    let p = &pooled;
    let visible_p50 = if p.visible_ms.is_empty() {
        0.0
    } else {
        stats::median(&p.visible_ms)
    };
    let visible_p90 = if p.visible_ms.is_empty() {
        0.0
    } else {
        stats::percentile_sorted(&stats::sorted(&p.visible_ms), 90.0)
    };
    let query_p50 = stats::median(&p.query_us);
    let apply_p50_ms = p.apply.percentile(0.5).unwrap_or(0) as f64 * 1e-6;
    let group_size = p.coalesced as f64 / p.committed.max(1) as f64;
    report.detail("setup_s", stats::mean(&setups), "s");
    report.detail("setup_median_s", stats::median(&setups), "s");
    report.detail("update_visible_p50_ms", visible_p50, "ms");
    report.detail("update_visible_p90_ms", visible_p90, "ms");
    report.detail("update_visible_samples", p.visible_ms.len() as f64, "count");
    if let Some((pct, v)) = stats::tail(&p.visible_ms) {
        report.detail(format!("update_visible_p{pct}_ms"), v, "ms");
    }
    report.detail("query_p50_us", query_p50, "us");
    report.detail("query_samples", p.query_us.len() as f64, "count");
    if let Some((pct, v)) = stats::tail(&p.query_us) {
        report.detail(format!("query_p{pct}_us"), v, "us");
    }
    report.detail("generator_late_p50_ms", stats::median(&p.late_ms), "ms");
    report.detail(
        "generator_late_max_ms",
        p.late_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    report.detail("shed", p.shed as f64, "count");
    report.detail("batches_committed", p.committed as f64, "count");
    report.detail("batches_quarantined", p.quarantined as f64, "count");
    report.detail("group_size", group_size, "count");
    report.detail("frontend_apply_p50_ms", apply_p50_ms, "ms");

    if tracer.enabled() {
        report.metric("delta.group_size", group_size, "count");
        report.metric("delta.queue_high_water", p.queue_high_water as f64, "count");
        report.metric("delta.frontend_apply_p50_ms", apply_p50_ms, "ms");
        report.metric("delta.submit_us", stats::median(&p.submit_us), "us");
        report.metric("serve.update_visible_p50_ms", visible_p50, "ms");
        report.metric(
            "serve.update_visible_tail_ms",
            stats::tail(&p.visible_ms).map_or(0.0, |t| t.1),
            "ms",
        );
        report.metric("serve.query_p50_us", query_p50, "us");
        report.metric(
            "serve.query_tail_us",
            stats::tail(&p.query_us).map_or(0.0, |t| t.1),
            "us",
        );
        report.metric(
            "serve.generator_late_p50_ms",
            stats::median(&p.late_ms),
            "ms",
        );
        report.metric("trace.setup_s", stats::mean(&setups), "s");
        report.metric("trace.sssp_or_update_ms", visible_p50, "ms");
        report.metric("trace.pagerank_or_update_p90_ms", visible_p90, "ms");
        replay(
            &graph,
            root,
            &batches,
            &last_values,
            scratch,
            tracer,
            rid,
            report,
        );
        analytics::absent_app_metrics(report, App::PageRank);
        // Serving sets up through `create_durable`, not the analytics steps.
        analytics::setup_layer_metrics(report, &analytics::SetupTimes::default(), 0.0);
    } else {
        crate::end_to_end(report, stats::mean(&setups), visible_p50, visible_p90);
    }
    let total = tracer.end(root_span, "bench.workload");
    if tracer.enabled() {
        crate::trace_summary(tracer, total, report);
    }
}

/// Replay the committed groups through `DeltaServer::try_apply` on a fresh
/// durable server, with the automatic snapshot cadence off and a snapshot
/// every [`SNAPSHOT_EVERY`] batches taken here, so each step has its own span.
#[allow(clippy::too_many_arguments)]
fn replay(
    graph: &Graph,
    root: VertexId,
    batches: &[UpdateBatch],
    expected: &[f32],
    scratch: &Path,
    tracer: &Tracer,
    parent: u64,
    report: &mut Report,
) {
    let dir = scratch.join("replay");
    let durability = DurabilityConfig::new(&dir)
        .with_snapshot_every(u64::MAX)
        .with_snapshot_wal_bytes(u64::MAX);
    let (server, create_s) = tracer.time(parent, "delta.create_durable", |_| {
        DeltaServer::create_durable(
            graph.clone(),
            factory(root),
            server_config(scratch),
            durability,
        )
        .expect("create durable replay server")
    });
    let mut server = server;
    let mut apply_batch = Vec::new();
    let mut try_apply = Vec::new();
    let mut fsync = Vec::new();
    let mut snapshot = Vec::new();
    let mut other = Vec::new();
    let mut outcomes: Vec<BatchOutcome> = Vec::new();
    let mut failed = 0u64;
    for (k, batch) in batches.iter().enumerate() {
        let (_, pure) = tracer.time(parent, "graph.apply_batch", |_| {
            std::hint::black_box(server.graph().apply_batch(batch));
        });
        let (outcome, wall) = tracer.time(parent, "delta.try_apply", |_| server.try_apply(batch));
        match outcome {
            Ok(outcome) => {
                apply_batch.push(pure * 1e3);
                try_apply.push(wall * 1e3);
                fsync.push(outcome.wal_fsync_seconds * 1e3);
                other.push((wall - outcome.wal_fsync_seconds - pure) * 1e3);
                failed += u64::from(!outcome.converged);
                outcomes.push(outcome);
            }
            Err(_) => failed += 1,
        }
        if (k + 1) % SNAPSHOT_EVERY == 0 {
            let (written, s) = tracer.time(parent, "delta.snapshot", |_| server.snapshot());
            failed += u64::from(written.is_err());
            snapshot.push(s * 1e3);
        }
    }
    report.ops(batches.len() as u64, failed, "replayed batches");
    let same = server.values().len() == expected.len()
        && server
            .values()
            .iter()
            .zip(expected)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(same, || {
        "replayed server differs from the served versions".into()
    });

    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let mean = |f: &dyn Fn(&BatchOutcome) -> f64| {
        outcomes.iter().map(f).sum::<f64>() / outcomes.len().max(1) as f64
    };
    report.metric("graph.apply_batch_ms", med(&apply_batch), "ms");
    report.metric(
        "graph.segments_rewritten",
        mean(&|o| o.segments_rewritten as f64),
        "count",
    );
    let (live, dead) = outcomes
        .last()
        .map_or((0, 0), |o| (o.storage_live_bytes, o.storage_dead_bytes));
    report.metric("graph.storage_file_bytes", (live + dead) as f64, "bytes");
    report.metric("graph.storage_dead_bytes", dead as f64, "bytes");
    report.metric(
        "cluster.layout_nodes_rebuilt",
        mean(&|o| o.layout_patch.nodes_rebuilt as f64),
        "count",
    );
    report.metric(
        "cluster.layout_vertices_scanned",
        mean(&|o| o.layout_patch.vertices_scanned as f64),
        "count",
    );
    report.metric("core.warm_work", mean(&|o| o.work as f64), "count");
    report.metric(
        "core.warm_iterations",
        mean(&|o| f64::from(o.iterations)),
        "count",
    );
    report.metric(
        "core.full_recomputes",
        server.stats().full_recomputes as f64,
        "count",
    );
    report.metric(
        "core.rrg_repair_work",
        outcomes.iter().map(|o| o.guidance.work as f64).sum(),
        "count",
    );
    report.metric("delta.create_s", create_s, "s");
    report.metric("delta.try_apply_p50_ms", med(&try_apply), "ms");
    report.metric(
        "delta.try_apply_tail_ms",
        stats::tail(&try_apply).map_or(0.0, |t| t.1),
        "ms",
    );
    report.metric("delta.wal_fsync_ms", med(&fsync), "ms");
    report.metric("delta.snapshot_ms", med(&snapshot), "ms");
    report.metric("delta.apply_other_ms", med(&other), "ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_map_updates_in_fifo_order() {
        // Groups of 2, 3 and 1 carry updates 0-1, 2-4 and 5.
        let got = group_of_each(&[2, 3, 1], 6);
        assert_eq!(
            got,
            vec![Some(0), Some(0), Some(1), Some(1), Some(1), Some(2)]
        );
    }

    #[test]
    fn undrained_updates_map_to_no_group() {
        let got = group_of_each(&[2, 1], 5);
        assert_eq!(got, vec![Some(0), Some(0), Some(1), None, None]);
        assert_eq!(group_of_each(&[], 2), vec![None, None]);
    }

    #[test]
    fn first_sighting_takes_the_first_version_at_or_above() {
        let sightings = [(0, 0.0), (2, 1.0), (3, 1.5), (7, 4.0)];
        assert_eq!(first_sighting(&sightings, 0), Some(0.0));
        // Version 1 was never observed by itself: version 2 covers it.
        assert_eq!(first_sighting(&sightings, 1), Some(1.0));
        assert_eq!(first_sighting(&sightings, 3), Some(1.5));
        assert_eq!(first_sighting(&sightings, 5), Some(4.0));
        assert_eq!(first_sighting(&sightings, 8), None);
    }

    #[test]
    fn stream_mix_and_uniqueness() {
        let g = generators::rmat(1 << 10, 8 << 10, 0.57, 0.19, 0.19, 3);
        let stream = make_stream(&g, 2000, 9);
        assert_eq!(stream.len(), 2000);
        let mut pairs = HashSet::new();
        let (mut inserts, mut deletes, mut reweights) = (0, 0, 0);
        for u in &stream {
            let (src, dst, present) = match *u {
                EdgeUpdate::Insert { src, dst, .. } => {
                    let present = g.has_edge(src, dst);
                    if present {
                        reweights += 1;
                    } else {
                        inserts += 1;
                    }
                    (src, dst, present)
                }
                EdgeUpdate::Delete { src, dst } => {
                    deletes += 1;
                    (src, dst, true)
                }
            };
            assert!(pairs.insert((src, dst)), "pair repeated");
            assert!(present || src != dst);
        }
        let frac = |k: usize| k as f64 / stream.len() as f64;
        assert!(
            (frac(inserts) - 0.60).abs() < 0.05,
            "inserts {}",
            frac(inserts)
        );
        assert!(
            (frac(deletes) - 0.25).abs() < 0.05,
            "deletes {}",
            frac(deletes)
        );
        assert!(
            (frac(reweights) - 0.15).abs() < 0.05,
            "reweights {}",
            frac(reweights)
        );
        assert_eq!(make_stream(&g, 2000, 9), stream, "same seed, same stream");
    }
}
