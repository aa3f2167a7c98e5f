//! The traced run (`--trace 1`): per-layer metrics, each timed from
//! outside by calling that layer's public functions.
//!
//! Spans are recorded into a private `obs::Registry` owned by this file,
//! around the calls named in README.md; nothing inside the program is
//! instrumented for the benchmark, and the program's global profiling
//! and tracing stay off. The access log is the one program feature this
//! mode turns on, and only around the traced serve passes. Every traced
//! run measures the whole layer suite, so each workload's traced output
//! carries every per-layer metric; `obs.trace_overhead_pct` compares the
//! named workload's traced passes with its untraced ones.

use crate::keys::ColdStream;
use crate::serve::{self, cold_pass, Class, Hot, Pass, Sample};
use crate::stats::median;
use crate::sweep::{self, is_metis, same_cell};
use crate::{assert_observability_off, nproc, Args, Outcome};
use cubesfc::engine::{set_jobs, CellResult, ExperimentCell, MeshBundle};
use cubesfc::graph::bisect::multilevel_bisect;
use cubesfc::graph::coarsen::coarsen;
use cubesfc::graph::fm::{cut_weight_2way, fm_refine, BisectTargets};
use cubesfc::graph::initial::greedy_graph_growing;
use cubesfc::graph::{CsrGraph, PartitionConfig, SplitMix64};
use cubesfc::mesh::ExchangeWeights;
use cubesfc::obs::{self, Registry};
use cubesfc::serve::api::{parse_partition_request, parse_rebalance_request};
use cubesfc::serve::http::{read_request, Response};
use cubesfc::serve::{Backend, PartitionRequest, RebalanceStepRequest, ServerHandle};
use cubesfc::PartitionReport;
use cubesfc::{partition_with_graph, table1, ExperimentEngine, PartitionMethod, PartitionOptions};
use cubesfc::{CostModel, MachineModel};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each micro-probe; the median is reported.
const PROBE_REPEATS: usize = 5;
/// Fixed rng seed of the graph probes, so `graph.probe_cut` repeats.
const PROBE_SEED: u64 = 0x9E37;
/// Untraced and traced passes per serve session.
const SESSION_PASSES: usize = 5;
/// Fresh-key requests sent straight to the backend.
const BACKEND_CALLS: usize = 12;

/// Median over [`PROBE_REPEATS`] of `f`'s seconds.
fn probe_secs(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Total milliseconds, over the run, of spans named `name`.
fn span_ms(registry: &Registry, name: &str) -> f64 {
    registry
        .snapshot()
        .timers
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / 1e6)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    assert_observability_off()?;
    let mut m = Outcome::default();
    let jobs = nproc();

    let bundles = mesh_layer(&mut m);
    graph_probes(&mut m, &bundles);
    rayon_probes(&mut m, jobs);
    let sweep_overhead = sweep_layers(&mut m, args.seed, jobs)?;
    let (hot_overhead, cold_overhead) = serve_layers(&mut m, args.seed, jobs)?;
    set_jobs(0);
    let overhead = match args.workload.as_str() {
        "paper_sweep" => sweep_overhead,
        "serve_hot" => hot_overhead,
        _ => cold_overhead,
    };
    println!(
        "# obs.trace_overhead_pct: traced vs untraced pass wall of {}",
        args.workload
    );
    m.metric("obs.trace_overhead_pct", overhead, "%");
    Ok(m)
}

/// `mesh.bundle_build_ms`: `MeshBundle::build` per Table-1 resolution.
fn mesh_layer(m: &mut Outcome) -> Vec<MeshBundle> {
    let mut total = 0.0;
    let mut bundles = Vec::new();
    for res in table1() {
        total += probe_secs(|| {
            black_box(MeshBundle::build(res.ne, ExchangeWeights::default()));
        });
        bundles.push(MeshBundle::build(res.ne, ExchangeWeights::default()));
    }
    println!("# mesh.bundle_build_ms: median of {PROBE_REPEATS} builds, summed over 4 resolutions");
    m.metric("mesh.bundle_build_ms", total * 1e3, "ms");
    bundles
}

/// The SFC half split of a bundle: the first half of the global curve
/// in part 0.
fn sfc_halves(b: &MeshBundle) -> Vec<u32> {
    let curve = b.mesh.curve().expect("Table-1 sizes have a curve");
    let half = curve.len() / 2;
    let mut parts = vec![0u32; curve.len()];
    for (rank, e) in curve.iter().enumerate() {
        parts[e.0 as usize] = u32::from(rank >= half);
    }
    parts
}

fn halves_targets(g: &CsrGraph, cfg: &PartitionConfig) -> BisectTargets {
    let total = g.total_vwgt();
    BisectTargets::with_ub(total / 2, total - total / 2, cfg.ub_factor, g.max_vwgt())
}

/// `graph.*_us` probes: each graph phase on each Table-1 dual graph with
/// the default config and a fixed rng.
fn graph_probes(m: &mut Outcome, bundles: &[MeshBundle]) {
    let cfg = PartitionConfig::new(2);
    let (mut coarsen_s, mut initial_s, mut fm_s, mut bisect_s) = (0.0, 0.0, 0.0, 0.0);
    let mut cut = 0u64;
    for b in bundles {
        let g = &b.graph;
        let coarsen_to = cfg.coarsen_to.max(32);
        coarsen_s += probe_secs(|| {
            black_box(coarsen(g, coarsen_to, &mut SplitMix64::new(PROBE_SEED)));
        });
        let levels = coarsen(g, coarsen_to, &mut SplitMix64::new(PROBE_SEED));
        let coarsest = levels.last().map_or(g, |l| &l.graph);
        let targets = halves_targets(coarsest, &cfg);
        initial_s += probe_secs(|| {
            let mut rng = SplitMix64::new(PROBE_SEED);
            black_box(greedy_graph_growing(
                coarsest,
                &targets,
                cfg.init_tries,
                &mut rng,
            ));
        });
        let halves = sfc_halves(b);
        let targets = halves_targets(g, &cfg);
        fm_s += probe_secs(|| {
            let mut parts = halves.clone();
            black_box(fm_refine(g, &mut parts, &targets, cfg.refine_passes));
        });
        bisect_s += probe_secs(|| {
            black_box(multilevel_bisect(
                g,
                0.5,
                &cfg,
                &mut SplitMix64::new(PROBE_SEED),
            ));
        });
        let parts = multilevel_bisect(g, 0.5, &cfg, &mut SplitMix64::new(PROBE_SEED));
        cut += cut_weight_2way(g, &parts);
    }
    println!("# graph probes: median of {PROBE_REPEATS} calls per graph, summed over 4 graphs");
    m.metric("graph.coarsen_us", coarsen_s * 1e6, "us");
    m.metric("graph.initial_us", initial_s * 1e6, "us");
    m.metric("graph.fm_us", fm_s * 1e6, "us");
    m.metric("graph.bisect_us", bisect_s * 1e6, "us");
    m.metric("graph.probe_cut", cut as f64, "count");
}

/// `rayon.join_us` / `rayon.join_inline_us`: mean cost of a `join` of two
/// empty closures at `jobs` and at 1.
fn rayon_probes(m: &mut Outcome, jobs: usize) {
    let mean_us = |budget: usize, calls: usize| {
        set_jobs(budget);
        let per_call = probe_secs(|| {
            for i in 0..calls {
                black_box(rayon::join(|| black_box(i), || black_box(i + 1)));
            }
        }) / calls as f64;
        per_call * 1e6
    };
    let forked = mean_us(jobs, 2_000);
    let inline = mean_us(1, 200_000);
    println!("# rayon joins: jobs={jobs} (2000 calls) and jobs=1 (200000 calls), mean per call");
    m.metric("rayon.join_us", forked, "us");
    m.metric("rayon.join_inline_us", inline, "us");
}

/// The single-threaded grid as direct calls to `partition_with_graph`
/// and `PartitionReport::from_partition_with_graph`, each inside a span
/// of `registry` named after its layer. Returns results and wall seconds.
fn traced_serial_pass(
    engine: &ExperimentEngine,
    cells: &[ExperimentCell],
    options: &PartitionOptions,
    registry: &Registry,
) -> Result<(Vec<CellResult>, f64), String> {
    let (machine, cost) = (MachineModel::ncar_p690(), CostModel::seam_climate());
    set_jobs(1);
    let t = Instant::now();
    let mut results = Vec::with_capacity(cells.len());
    for &cell in cells {
        let bundle = engine.cache().bundle(cell.ne);
        let name = match cell.method {
            PartitionMethod::MetisKway => "graph.kway",
            PartitionMethod::MetisTv => "graph.tv",
            PartitionMethod::MetisRb => "graph.rb",
            _ => "core.sfc_partition",
        };
        let partition = {
            let _span = registry.span(name);
            partition_with_graph(
                &bundle.mesh,
                &bundle.graph,
                cell.method,
                cell.nproc,
                options,
            )
            .map_err(|e| e.to_string())?
        };
        let report = {
            let _span = registry.span("core.report");
            PartitionReport::from_partition_with_graph(
                &bundle.graph,
                cell.method,
                &partition,
                &machine,
                &cost,
            )
        };
        results.push(CellResult {
            cell,
            partition,
            report,
        });
    }
    Ok((results, t.elapsed().as_secs_f64()))
}

/// Rounds of untraced and traced single-threaded grids, alternated.
const SWEEP_ROUNDS: usize = 2;

/// Sweep layers: per-method partition busy time and report time over a
/// traced single-threaded grid, checked bit-identical to the engine's
/// untraced runs. Returns the sweep's tracing overhead (%).
fn sweep_layers(m: &mut Outcome, seed: u64, jobs: usize) -> Result<f64, String> {
    let engine = sweep::engine(seed);
    let cells = sweep::grid()?;
    let options = sweep::options(seed);
    let (pooled, untraced_pooled) = sweep::pooled_pass(&engine, &cells, jobs)?;
    let mut checks = Outcome::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut registry = Registry::new();
    for _ in 0..SWEEP_ROUNDS {
        let (serial, _, wall) = sweep::serial_pass(&engine, &cells)?;
        untraced.push(wall);
        registry = Registry::new();
        let (direct, wall) = traced_serial_pass(&engine, &cells, &options, &registry)?;
        traced.push(wall);
        for i in 0..cells.len() {
            checks.op(same_cell(&direct, &serial, i));
            checks.op(same_cell(&pooled, &serial, i));
        }
    }
    m.merge(checks);

    let untraced_1t = median(&untraced);
    let graph_calls = cells.iter().filter(|c| is_metis(c.method)).count();
    println!(
        "# engine.parallel_speedup = sweep_1t_wall_s {untraced_1t:.4} / sweep_wall_s \
         {untraced_pooled:.4} at jobs={jobs}; busy times of the last traced grid of {} cells",
        cells.len()
    );
    m.metric(
        "core.sfc_partition_us",
        span_ms(&registry, "core.sfc_partition") * 1e3,
        "us",
    );
    m.metric("graph.kway_ms", span_ms(&registry, "graph.kway"), "ms");
    m.metric("graph.tv_ms", span_ms(&registry, "graph.tv"), "ms");
    m.metric("graph.rb_ms", span_ms(&registry, "graph.rb"), "ms");
    m.metric("core.report_ms", span_ms(&registry, "core.report"), "ms");
    m.metric(
        "engine.parallel_speedup",
        untraced_1t / untraced_pooled,
        "ratio",
    );
    m.metric("engine.cells", cells.len() as f64, "count");
    m.metric("graph.calls", graph_calls as f64, "count");
    Ok(overhead_pct(&untraced, &traced))
}

/// Server-side counters of one server, from its own registry.
fn counters(server: &ServerHandle) -> HashMap<String, u64> {
    server.registry().snapshot().counters.into_iter().collect()
}

fn count(c: &HashMap<String, u64>, name: &str) -> u64 {
    c.get(name).copied().unwrap_or(0)
}

/// One serve session: untraced then traced passes on one server, the
/// traced ones with the access log on.
struct Session {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// The traced passes, merged.
    pass: Pass,
    /// Access-log `(queue_us, service_us)` by request ID.
    log: HashMap<String, (u64, u64)>,
    /// Server counters accumulated over the traced passes.
    counters: HashMap<String, u64>,
}

fn session(
    server: &ServerHandle,
    outcome: &mut Outcome,
    mut pass: impl FnMut(usize) -> Pass,
) -> Session {
    let mut untraced = Vec::new();
    for i in 0..SESSION_PASSES {
        let p = pass(i);
        untraced.push(p.wall_s);
        outcome.merge(p.outcome);
    }
    let before = counters(server);
    obs::access_log().reset();
    obs::set_access_enabled(true);
    let mut traced = Vec::new();
    let mut merged = Pass::default();
    for i in 0..SESSION_PASSES {
        let p = pass(SESSION_PASSES + i);
        traced.push(p.wall_s);
        merged.samples.extend(p.samples);
        merged.outcome.merge(p.outcome);
    }
    obs::set_access_enabled(false);
    let log = obs::access_log()
        .records()
        .into_iter()
        .map(|r| (r.id, (r.queue_us, r.service_us)))
        .collect();
    obs::access_log().reset();
    let after = counters(server);
    let counters = after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect();
    Session {
        untraced,
        traced,
        pass: merged,
        log,
        counters,
    }
}

/// Per-class client and server timings of traced samples.
#[derive(Default)]
struct ClassTimes {
    ttfb: Vec<f64>,
    queue: Vec<f64>,
    service: Vec<f64>,
    unattributed: Vec<f64>,
}

fn class_times(
    samples: &[Sample],
    log: &HashMap<String, (u64, u64)>,
    class: Class,
    outcome: &mut Outcome,
) -> ClassTimes {
    let mut t = ClassTimes::default();
    for s in samples.iter().filter(|s| s.class == class) {
        t.ttfb.push(s.ttfb_us);
        match log.get(&s.id) {
            Some(&(queue, service)) => {
                t.queue.push(queue as f64);
                t.service.push(service as f64);
                t.unattributed.push(s.total_us - (queue + service) as f64);
            }
            None => outcome.fail(format!("{}: no access-log record", s.id)),
        }
    }
    t
}

fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    (median(traced) / median(untraced) - 1.0) * 100.0
}

/// Serve layers from a hot and a cold session plus direct calls into the
/// parser, the HTTP reader and writer, and the backend. Returns the
/// (hot, cold) tracing overheads (%).
fn serve_layers(m: &mut Outcome, seed: u64, jobs: usize) -> Result<(f64, f64), String> {
    set_jobs(jobs);
    let mut checks = Outcome::default();

    // Hot session.
    let servers = serve::start(&serve::hot_nes())?;
    let hot = Hot::new(seed, &servers.backend)?;
    let addr = servers.pooled.local_addr();
    checks.merge(hot.warm(addr).outcome);
    let hot_run = session(&servers.pooled, &mut checks, |i| {
        hot.pass(addr, i as u64, jobs)
    });
    direct_probes(m, &hot, &servers.backend, seed)?;
    servers.shutdown();
    let lookups = hot_run
        .pass
        .samples
        .iter()
        .filter(|s| s.class == Class::Hit)
        .count();
    let hits = count(&hot_run.counters, "serve/cache_hits");

    // Cold session.
    let servers = serve::start(&serve::cold_nes())?;
    let addr = servers.pooled.local_addr();
    let mut stream = ColdStream::new(seed);
    let mut cold_keys = Vec::new();
    let cold_run = session(&servers.pooled, &mut checks, |i| {
        let lists = stream.pass(jobs);
        if i >= SESSION_PASSES {
            cold_keys.extend(lists.iter().flatten().cloned());
        }
        cold_pass(addr, &lists, &format!("trace-{i}"))
    });
    servers.shutdown();
    let distinct: HashSet<_> = cold_keys.iter().collect();
    let cold_requests = cold_keys.len();
    let computes = count(&cold_run.counters, "serve/backend_computes");
    let coalesced = count(&cold_run.counters, "serve/coalesced");
    let hot_errors = http_errors(&hot_run.counters);
    let cold_errors = http_errors(&cold_run.counters);

    let samples: Vec<Sample> = hot_run
        .pass
        .samples
        .iter()
        .chain(&cold_run.pass.samples)
        .cloned()
        .collect();
    let mut log = hot_run.log;
    log.extend(cold_run.log);
    let connected: Vec<f64> = samples
        .iter()
        .filter(|s| s.connected)
        .map(|s| s.connect_us)
        .collect();
    let per_class: Vec<(Class, ClassTimes)> = [Class::Hit, Class::Rebalance, Class::Cold]
        .into_iter()
        .map(|c| (c, class_times(&samples, &log, c, &mut checks)))
        .collect();
    checks.merge(hot_run.pass.outcome);
    checks.merge(cold_run.pass.outcome);
    m.merge(checks);

    println!(
        "# serve sessions: {SESSION_PASSES} untraced + {SESSION_PASSES} traced pooled passes \
         each, {jobs} clients; over the traced passes' requests, medians of client times and \
         means of access-log queue/service times (the log records whole microseconds)"
    );
    m.metric("serve.connect_us", median_or_zero(&connected), "us");
    m.metric(
        "serve.connections_per_request",
        connected.len() as f64 / samples.len() as f64,
        "ratio",
    );
    for (class, t) in &per_class {
        m.metric(
            &format!("serve.ttfb_us.{}", class.label()),
            median_or_zero(&t.ttfb),
            "us",
        );
    }
    for (class, t) in &per_class {
        let l = class.label();
        m.metric(&format!("serve.queue_us.{l}"), mean_or_zero(&t.queue), "us");
        m.metric(
            &format!("serve.service_us.{l}"),
            mean_or_zero(&t.service),
            "us",
        );
        m.metric(
            &format!("serve.unattributed_us.{l}"),
            median_or_zero(&t.unattributed),
            "us",
        );
    }
    println!(
        "# serve.cache_hit_ratio = {hits} hits / {lookups} hot lookups; \
         serve.coalesced_share = {coalesced} / {cold_requests} cold requests; \
         serve.computes_per_key = {computes} computes / {} distinct keys",
        distinct.len()
    );
    m.metric(
        "serve.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.metric(
        "serve.coalesced_share",
        coalesced as f64 / cold_requests.max(1) as f64,
        "ratio",
    );
    m.metric(
        "serve.computes_per_key",
        computes as f64 / distinct.len().max(1) as f64,
        "ratio",
    );
    m.metric(
        "serve.http_429",
        (hot_errors.0 + cold_errors.0) as f64,
        "count",
    );
    m.metric(
        "serve.http_5xx",
        (hot_errors.1 + cold_errors.1) as f64,
        "count",
    );
    Ok((
        overhead_pct(&hot_run.untraced, &hot_run.traced),
        overhead_pct(&cold_run.untraced, &cold_run.traced),
    ))
}

fn mean_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// (429s, 5xx) the server counted.
fn http_errors(c: &HashMap<String, u64>) -> (u64, u64) {
    let mut server_errors = 0;
    for (name, v) in c {
        if let Some(code) = name.strip_prefix("serve/http_") {
            if code.starts_with('5') {
                server_errors += v;
            }
        }
    }
    (c.get("serve/http_429").copied().unwrap_or(0), server_errors)
}

/// Median seconds per call of `f` over `items`, repeated.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    probe_secs(|| items.iter().for_each(&mut f)) / items.len() as f64 * 1e6
}

/// Direct calls on the hot workload's own bodies and a fresh cold
/// request stream.
fn direct_probes(
    m: &mut Outcome,
    hot: &Hot,
    backend: &cubesfc::EngineBackend,
    seed: u64,
) -> Result<(), String> {
    let parse_partition = per_call_us(&hot.lookup_bodies, |b| {
        black_box(parse_partition_request(b).expect("generated body parses"));
    });
    let parse_rebalance = per_call_us(&hot.rebalance_bodies, |b| {
        black_box(parse_rebalance_request(b).expect("generated body parses"));
    });
    let raw: Vec<Vec<u8>> = hot
        .lookup_bodies
        .iter()
        .map(|b| ("/v1/partition", b))
        .chain(
            hot.rebalance_bodies
                .iter()
                .map(|b| ("/v1/rebalance/step", b)),
        )
        .map(|(path, body)| {
            let mut r = format!(
                "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            r.extend_from_slice(body);
            r
        })
        .collect();
    let read = per_call_us(&raw, |r| {
        black_box(read_request(&r[..]).expect("generated request reads"));
    });
    let responses: Vec<Response> = hot
        .expected
        .iter()
        .map(|b| {
            Response::json(200, String::from_utf8_lossy(b).into_owned())
                .with_header("x-cubesfc-cache", "hit")
                .with_header("x-cubesfc-request-id", "bench")
        })
        .collect();
    let mut sink = Vec::with_capacity(1 << 16);
    let write = per_call_us(&responses, |r| {
        sink.clear();
        r.write(&mut sink).expect("writing to memory succeeds");
        black_box(&sink);
    });

    let requests: Vec<PartitionRequest> = ColdStream::new(seed ^ 0xB0)
        .single(BACKEND_CALLS)
        .into_iter()
        .map(|k| PartitionRequest {
            ne: k.ne as u32,
            nproc: k.nproc as u32,
            method: k.method.to_string(),
            seed: k.seed,
            include_assignment: false,
        })
        .collect();
    let mut partition_ms = Vec::new();
    for req in &requests {
        let t = Instant::now();
        backend
            .partition(req)
            .map_err(|e| format!("direct partition: {e:?}"))?;
        partition_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut rebalance_us = Vec::new();
    for spec in &hot.pool {
        let req = RebalanceStepRequest {
            ne: spec.ne as u32,
            nproc: spec.nproc as u32,
            seed: spec.seed,
            weights: spec.weights.clone(),
        };
        let t = Instant::now();
        backend
            .rebalance_step(&req)
            .map_err(|e| format!("direct rebalance: {e:?}"))?;
        rebalance_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    println!(
        "# direct calls: parse/read/write per call on the hot bodies ({} lookups, {} uploads); \
         backend medians over {BACKEND_CALLS} fresh keys and {} uploads",
        hot.lookup_bodies.len(),
        hot.rebalance_bodies.len(),
        hot.pool.len()
    );
    m.metric("serve.parse_partition_us", parse_partition, "us");
    m.metric("serve.parse_rebalance_us", parse_rebalance, "us");
    m.metric("serve.read_request_us", read, "us");
    m.metric("serve.write_response_us", write, "us");
    m.metric("core.backend_partition_ms", median(&partition_ms), "ms");
    m.metric("balance.backend_rebalance_us", median(&rebalance_us), "us");
    Ok(())
}
