//! `serve_hot` and `serve_cold`: closed-loop clients against an
//! in-process server backed by the real engine.
//!
//! Every pass runs twice per round: pooled (one client per core against
//! a server with one worker per core, engine jobs = cores) and
//! single-threaded (one client, a one-worker server, engine jobs = 1),
//! on the same kind of work.

use crate::check;
use crate::client::{Client, Exchange};
use crate::keys::{self, ColdStream, HotOp, PartitionKey, RebalanceSpec};
use crate::stats::{median, summarize};
use crate::sweep::mean_ratio;
use crate::{nproc, peak_rss_mib, Args, Outcome, SETUP_REPEATS};
use cubesfc::engine::set_jobs;
use cubesfc::graph::partition_stats;
use cubesfc::serve::{Backend, PartitionRequest, ServeConfig, Server, ServerHandle};
use cubesfc::{partition_with_graph, table1, EngineBackend, PartitionMethod, PartitionOptions};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Hot passes every run makes (pooled and single-threaded each): enough
/// for a full block of uploads (see `stats::BLOCK_SAMPLES`) at 2 cores.
pub const HOT_MIN_PASSES: usize = 10;
/// Cold passes every run makes (pooled and single-threaded each): a full
/// block at 2 cores.
pub const COLD_MIN_PASSES: usize = 17;

/// What a request was, for per-class statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    Hit,
    Rebalance,
    Cold,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Rebalance => "rebalance",
            Class::Cold => "cold",
        }
    }
}

/// One timed exchange as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub class: Class,
    pub id: String,
    pub connect_us: f64,
    pub ttfb_us: f64,
    pub total_us: f64,
    pub connected: bool,
    /// The server's `x-cubesfc-cache` header, if any.
    pub cache: Option<String>,
}

/// One pass: its wall time, samples, and check results.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub samples: Vec<Sample>,
    pub outcome: Outcome,
    /// `(key, edgecut)` of every served partition checked by echo.
    pub cuts: Vec<(PartitionKey, u64)>,
}

impl Pass {
    fn absorb(&mut self, other: Pass) {
        self.samples.extend(other.samples);
        self.cuts.extend(other.cuts);
        self.outcome.merge(other.outcome);
    }
}

/// The servers of one run: pooled and single-worker, one backend.
pub struct Servers {
    pub backend: Arc<EngineBackend>,
    pub pooled: ServerHandle,
    pub single: ServerHandle,
}

impl Servers {
    pub fn shutdown(self) {
        self.pooled.shutdown();
        self.single.shutdown();
    }
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        deadline: Duration::from_secs(120),
        ..ServeConfig::default()
    }
}

/// Poll `GET /readyz` until it answers 200.
fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let started = Instant::now();
    loop {
        if let Ok(x) = Client::new(addr).send("GET", "/readyz", "readyz", b"") {
            if x.status == 200 {
                return Ok(());
            }
        }
        if started.elapsed() > Duration::from_secs(20) {
            return Err(format!("{addr} never became ready"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Build the bundles of `nes`, start both servers, and wait until both
/// are ready.
pub fn start(nes: &[usize]) -> Result<Servers, String> {
    let backend = Arc::new(EngineBackend::new());
    for &ne in nes {
        backend.cache().bundle(ne);
    }
    let dyn_backend: Arc<dyn Backend> = backend.clone();
    let pooled =
        Server::start(config(nproc()), Arc::clone(&dyn_backend)).map_err(|e| e.to_string())?;
    let single = Server::start(config(1), dyn_backend).map_err(|e| e.to_string())?;
    wait_ready(pooled.local_addr())?;
    wait_ready(single.local_addr())?;
    Ok(Servers {
        backend,
        pooled,
        single,
    })
}

/// [`start`] [`SETUP_REPEATS`] times, keeping the last; returns the
/// servers and each set-up's seconds.
pub fn set_up(nes: &[usize]) -> Result<(Servers, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut servers: Option<Servers> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = servers.take() {
            old.shutdown();
        }
        let t = Instant::now();
        servers = Some(start(nes)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((servers.expect("set up at least once"), times))
}

/// Send one request and apply the checks every response gets: 200, the
/// service schema, and the request ID echoed.
fn exchange(
    client: &mut Client,
    path: &str,
    id: &str,
    body: &[u8],
    class: Class,
    pass: &mut Pass,
) -> Option<Exchange> {
    pass.outcome.attempted += 1;
    let x = match client.send("POST", path, id, body) {
        Ok(x) => x,
        Err(e) => {
            pass.outcome.fail(format!("{id}: {e}"));
            return None;
        }
    };
    pass.samples.push(Sample {
        class,
        id: id.to_string(),
        connect_us: x.connect_us,
        ttfb_us: x.ttfb_us,
        total_us: x.total_us,
        connected: x.connected,
        cache: x.header("x-cubesfc-cache").map(str::to_string),
    });
    let problem = if x.status != 200 {
        Some(format!("status {}", x.status))
    } else if !check::has_schema(&x.body) {
        Some("no service schema".to_string())
    } else if x.header("x-cubesfc-request-id") != Some(id) {
        Some("request ID not echoed".to_string())
    } else {
        None
    };
    match problem {
        Some(p) => {
            pass.outcome.fail(format!("{id}: {p}"));
            None
        }
        None => Some(x),
    }
}

/// Run `work` once per client list, each on its own thread and client,
/// and time the whole pass.
fn run_clients<T: Sync>(
    addr: SocketAddr,
    lists: &[Vec<T>],
    work: impl Fn(&mut Client, usize, &[T], &mut Pass) + Sync,
) -> Pass {
    let started = Instant::now();
    let parts: Vec<Pass> = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(c, list)| {
                let work = &work;
                s.spawn(move || {
                    let mut pass = Pass::default();
                    work(&mut Client::new(addr), c, list, &mut pass);
                    pass
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pass = Pass {
        wall_s: started.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    for part in parts {
        pass.absorb(part);
    }
    pass
}

// ---------------------------------------------------------------------------
// serve_hot

/// Everything the hot workload sends and expects, built before timing.
pub struct Hot {
    pub seed: u64,
    pub keys: Vec<PartitionKey>,
    pub lookup_bodies: Vec<Vec<u8>>,
    /// Direct `EngineBackend::partition` bodies, one per key.
    pub expected: Vec<Vec<u8>>,
    pub pool: Vec<RebalanceSpec>,
    pub rebalance_bodies: Vec<Vec<u8>>,
}

fn request_of(key: &PartitionKey, include_assignment: bool) -> PartitionRequest {
    PartitionRequest {
        ne: key.ne as u32,
        nproc: key.nproc as u32,
        method: key.method.to_string(),
        seed: key.seed,
        include_assignment,
    }
}

impl Hot {
    pub fn new(seed: u64, backend: &EngineBackend) -> Result<Hot, String> {
        let keys = keys::hot_keys(seed);
        let expected = keys
            .iter()
            .map(|k| {
                backend
                    .partition(&request_of(k, true))
                    .map(String::into_bytes)
                    .map_err(|e| format!("direct partition of {k:?}: {e:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pool = keys::rebalance_pool(seed);
        Ok(Hot {
            seed,
            lookup_bodies: keys.iter().map(|k| k.body(true).into_bytes()).collect(),
            rebalance_bodies: pool.iter().map(|s| s.body().into_bytes()).collect(),
            keys,
            expected,
            pool,
        })
    }

    /// Fill a server's result cache with every key, checking each body.
    pub fn warm(&self, addr: SocketAddr) -> Pass {
        let lists = [(0..self.keys.len()).collect::<Vec<_>>()];
        run_clients(addr, &lists, |client, _, list, pass| {
            for &i in list {
                let id = format!("warm-{i}");
                let body = &self.lookup_bodies[i];
                if let Some(x) = exchange(client, "/v1/partition", &id, body, Class::Hit, pass) {
                    if let Err(e) = check::same_body(&x.body, &self.expected[i]) {
                        pass.outcome.fail(format!("{id}: {e}"));
                    }
                }
            }
        })
    }

    /// One pass: `clients` streams sent concurrently, or with `clients
    /// == 1` every stream of the pass concatenated on one client.
    pub fn pass(&self, addr: SocketAddr, index: u64, clients: usize) -> Pass {
        let streams: Vec<Vec<HotOp>> = (0..nproc() as u64)
            .map(|c| keys::hot_stream(self.seed, index, c, self.keys.len(), self.pool.len()))
            .collect();
        let lists = if clients == 1 {
            vec![streams.concat()]
        } else {
            streams
        };
        run_clients(addr, &lists, |client, c, ops, pass| {
            let mut uploads = Vec::new();
            for (n, &op) in ops.iter().enumerate() {
                let id = format!("hot-{index}-{clients}-{c}-{n}");
                match op {
                    HotOp::Lookup(i) => {
                        let body = &self.lookup_bodies[i];
                        if let Some(x) =
                            exchange(client, "/v1/partition", &id, body, Class::Hit, pass)
                        {
                            let checked = match x.header("x-cubesfc-cache") {
                                Some("hit") => check::same_body(&x.body, &self.expected[i]),
                                other => Err(format!("warmed lookup answered as {other:?}")),
                            };
                            if let Err(e) = checked {
                                pass.outcome.fail(format!("{id}: {e}"));
                            }
                        }
                    }
                    HotOp::Rebalance(i) => {
                        let body = &self.rebalance_bodies[i];
                        let path = "/v1/rebalance/step";
                        if let Some(x) = exchange(client, path, &id, body, Class::Rebalance, pass) {
                            uploads.push((id, i, x.body));
                        }
                    }
                }
            }
            // Checked after the loop so parsing is not client think time.
            for (id, i, body) in uploads {
                let spec = &self.pool[i];
                if let Err(e) = check::rebalance_loads(&body, spec.nproc, spec.weight_sum()) {
                    pass.outcome.fail(format!("{id}: {e}"));
                }
            }
        })
    }
}

/// SFC edgecut at `(ne, nproc)`: the baseline of `edgecut_vs_sfc`.
pub struct SfcBaseline<'a> {
    backend: &'a EngineBackend,
    memo: HashMap<(usize, usize), u64>,
}

impl<'a> SfcBaseline<'a> {
    pub fn new(backend: &'a EngineBackend) -> SfcBaseline<'a> {
        SfcBaseline {
            backend,
            memo: HashMap::new(),
        }
    }

    pub fn cut(&mut self, ne: usize, nproc: usize) -> Result<u64, String> {
        if let Some(&c) = self.memo.get(&(ne, nproc)) {
            return Ok(c);
        }
        let bundle = self.backend.cache().bundle(ne);
        let p = partition_with_graph(
            &bundle.mesh,
            &bundle.graph,
            PartitionMethod::Sfc,
            nproc,
            &PartitionOptions::default(),
        )
        .map_err(|e| e.to_string())?;
        let cut = partition_stats(&bundle.graph, &p).edgecut;
        self.memo.insert((ne, nproc), cut);
        Ok(cut)
    }

    /// Mean of served edgecut over SFC edgecut at the same counts.
    pub fn ratio<'k>(
        &mut self,
        cuts: impl IntoIterator<Item = (&'k PartitionKey, u64)>,
    ) -> Result<f64, String> {
        let mut pairs = Vec::new();
        for (key, cut) in cuts {
            pairs.push((cut, self.cut(key.ne, key.nproc)?));
        }
        Ok(mean_ratio(pairs))
    }
}

/// The partition-quality ratio of the hot key set's METIS-family keys.
fn hot_edgecut_ratio(hot: &Hot, sfc: &mut SfcBaseline) -> Result<f64, String> {
    let mut cuts = Vec::new();
    for (key, body) in hot.keys.iter().zip(&hot.expected) {
        if key.method != "sfc" {
            cuts.push((key, check::partition_echo(body, key)?));
        }
    }
    sfc.ratio(cuts)
}

fn latencies(samples: &[Sample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.total_us)
        .collect()
}

pub fn hot_nes() -> Vec<usize> {
    table1().iter().map(|r| r.ne).collect()
}

pub fn run_hot(args: &Args) -> Result<Outcome, String> {
    let (servers, setup) = set_up(&hot_nes())?;
    let hot = Hot::new(args.seed, &servers.backend)?;
    let mut out = Outcome::default();
    for addr in [servers.pooled.local_addr(), servers.single.local_addr()] {
        out.merge(hot.warm(addr).outcome);
    }
    let jobs = nproc();
    let (mut wall, mut wall_1t) = (Vec::new(), Vec::new());
    let mut pooled = Outcome::default();
    let (mut hits, mut uploads) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut index = 0u64;
    while wall.len() < HOT_MIN_PASSES || started.elapsed().as_secs() < args.seconds {
        set_jobs(1);
        let single = hot.pass(servers.single.local_addr(), index, 1);
        wall_1t.push(single.wall_s);
        out.merge(single.outcome);
        set_jobs(jobs);
        let pass = hot.pass(servers.pooled.local_addr(), index, jobs);
        wall.push(pass.wall_s);
        hits.push(latencies(&pass.samples, Class::Hit));
        uploads.push(latencies(&pass.samples, Class::Rebalance));
        pooled.merge(pass.outcome);
        index += 1;
    }
    set_jobs(0);
    let ratio = hot_edgecut_ratio(&hot, &mut SfcBaseline::new(&servers.backend))?;
    servers.shutdown();

    let uploads_per_client = keys::HOT_REBALANCE_PER_CLIENT;
    let hits_per_client = keys::HOT_PER_CLIENT - uploads_per_client;
    let hit = summarize(&hits, jobs * hits_per_client).ok_or("too few hits")?;
    let reb = summarize(&uploads, jobs * uploads_per_client).ok_or("too few rebalance steps")?;
    let requests: usize = hits.iter().chain(&uploads).map(Vec::len).sum();
    println!("# passes={} clients={jobs}", wall.len());
    hit.report("hit");
    reb.report("rebalance");
    println!(
        "# hot_rps={:.1} ({requests} requests over the pooled passes)",
        requests as f64 / wall.iter().sum::<f64>()
    );
    out.merge(pooled);
    out.metric("setup_s", median(&setup), "s");
    out.metric("wall_s", median(&wall), "s");
    out.metric("wall_1t_s", median(&wall_1t), "s");
    out.metric("p50_us", hit.p50, "us");
    out.metric("edgecut_vs_sfc", ratio, "ratio");
    out.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    Ok(out)
}

// ---------------------------------------------------------------------------
// serve_cold

/// One cold pass: fresh keys, every client sending its list, all
/// clients released together at shared positions so the coalescer
/// sees identical concurrent misses.
pub fn cold_pass(addr: SocketAddr, lists: &[Vec<PartitionKey>], tag: &str) -> Pass {
    let shared: Vec<bool> = (0..lists[0].len())
        .map(|i| lists.len() > 1 && lists.iter().all(|l| l[i] == lists[0][i]))
        .collect();
    let barrier = Barrier::new(lists.len());
    let bodies: Vec<Vec<Vec<u8>>> = lists
        .iter()
        .map(|l| l.iter().map(|k| k.body(false).into_bytes()).collect())
        .collect();
    run_clients(addr, lists, |client, c, keys, pass| {
        let mut served = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if shared[i] {
                barrier.wait();
            }
            let id = format!("{tag}-{c}-{i}");
            let body = &bodies[c][i];
            if let Some(x) = exchange(client, "/v1/partition", &id, body, Class::Cold, pass) {
                served.push((id, key, x.body));
            }
        }
        for (id, key, body) in served {
            match check::partition_echo(&body, key) {
                Ok(cut) => pass.cuts.push((key.clone(), cut)),
                Err(e) => pass.outcome.fail(format!("{id}: {e}")),
            }
        }
    })
}

pub fn cold_nes() -> Vec<usize> {
    keys::COLD_NES.to_vec()
}

pub fn run_cold(args: &Args) -> Result<Outcome, String> {
    let (servers, setup) = set_up(&cold_nes())?;
    let jobs = nproc();
    let mut stream = ColdStream::new(args.seed);
    let (mut wall, mut wall_1t) = (Vec::new(), Vec::new());
    let mut all = Pass::default();
    let mut pooled = Vec::new();
    let started = Instant::now();
    while wall.len() < COLD_MIN_PASSES || started.elapsed().as_secs() < args.seconds {
        set_jobs(1);
        let keys = vec![stream.single(keys::cold_distinct(jobs))];
        let single = cold_pass(
            servers.single.local_addr(),
            &keys,
            &format!("c1-{}", wall.len()),
        );
        wall_1t.push(single.wall_s);
        all.absorb(single);
        set_jobs(jobs);
        let lists = stream.pass(jobs);
        let pass = cold_pass(
            servers.pooled.local_addr(),
            &lists,
            &format!("cn-{}", wall.len()),
        );
        wall.push(pass.wall_s);
        pooled.push(latencies(&pass.samples, Class::Cold));
        all.absorb(pass);
    }
    set_jobs(0);
    let classes = class_counts(&all.samples);
    let mut sfc = SfcBaseline::new(&servers.backend);
    let ratio = sfc.ratio(all.cuts.iter().map(|(k, c)| (k, *c)))?;
    servers.shutdown();

    let mut out = all.outcome;
    let lat = summarize(&pooled, jobs * keys::COLD_POSITIONS).ok_or("too few cold requests")?;
    println!("# passes={} clients={jobs} classes={classes:?}", wall.len());
    lat.report("cold");
    println!(
        "# cold_rps={:.2} ({} requests over the pooled passes)",
        lat.count as f64 / wall.iter().sum::<f64>(),
        lat.count
    );
    out.metric("setup_s", median(&setup), "s");
    out.metric("wall_s", median(&wall), "s");
    out.metric("wall_1t_s", median(&wall_1t), "s");
    out.metric("p50_us", lat.p50, "us");
    out.metric("edgecut_vs_sfc", ratio, "ratio");
    out.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    Ok(out)
}

/// Responses per `x-cubesfc-cache` class.
pub fn class_counts(samples: &[Sample]) -> Vec<(String, usize)> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    for s in samples {
        *counts
            .entry(s.cache.clone().unwrap_or_else(|| "-".to_string()))
            .or_default() += 1;
    }
    let mut counts: Vec<_> = counts.into_iter().collect();
    counts.sort();
    counts
}
