//! `paper_sweep`: the full Table-1 grid through `ExperimentEngine`, once
//! single-threaded and once pooled per pass.

use crate::stats::{median, summarize};
use crate::{check, nproc, peak_rss_mib, Args, Outcome, SETUP_REPEATS};
use cubesfc::engine::{paper_grid, set_jobs, CellResult, ExperimentCell};
use cubesfc::{table1, ExperimentEngine, PartitionMethod, PartitionOptions};
use std::collections::HashMap;
use std::time::Instant;

/// Cells of the full grid: 4 resolutions × every equal-share count
/// within the 768-processor cap × 4 methods.
pub const GRID_CELLS: usize = 276;
/// Passes every run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Partition options with the run seed as the partitioner seed.
pub fn options(seed: u64) -> PartitionOptions {
    let mut options = PartitionOptions::default();
    options.graph_config.seed = seed;
    options
}

/// An engine with every Table-1 bundle built.
pub fn engine(seed: u64) -> ExperimentEngine {
    let engine = ExperimentEngine::new().with_options(options(seed));
    for res in table1() {
        engine.cache().bundle(res.ne);
    }
    engine
}

/// The full grid, checked to be the size the workload is defined by.
pub fn grid() -> Result<Vec<ExperimentCell>, String> {
    let cells = paper_grid(usize::MAX);
    if cells.len() != GRID_CELLS {
        return Err(format!("grid has {} cells, want {GRID_CELLS}", cells.len()));
    }
    Ok(cells)
}

pub fn is_metis(method: PartitionMethod) -> bool {
    matches!(
        method,
        PartitionMethod::MetisKway | PartitionMethod::MetisTv | PartitionMethod::MetisRb
    )
}

/// The paper's invariants on one cell. Every element is assigned to one
/// of `nproc` parts. SFC cells have no empty part and `LB(nelemd) = 0`
/// exactly, since every grid count divides K. METIS-family cells stay
/// within the weight cap; they may leave a part empty at a few elements
/// per processor, the integer-imbalance behaviour the paper reports for
/// METIS (see `kway_k_equals_n_may_leave_imbalance` in the graph crate).
pub fn check_cell(engine: &ExperimentEngine, ub: f64, r: &CellResult) -> Result<(), String> {
    let c = r.cell;
    let bundle = engine.cache().bundle(c.ne);
    let g = &bundle.graph;
    let here = |e: String| format!("ne={} nproc={} {}: {e}", c.ne, c.nproc, c.method.label());
    let assignment = r.partition.assignment();
    if is_metis(c.method) {
        check::assigned(assignment, g.nv(), c.nproc).map_err(here)?;
        let weights = r.partition.part_weights(g);
        check::within_weight_cap(&weights, g.total_vwgt(), ub, g.max_vwgt()).map_err(here)
    } else {
        check::partition_valid(assignment, g.nv(), c.nproc).map_err(here)?;
        if r.report.lb_nelemd != 0.0 {
            return Err(here(format!("SFC LB(nelemd) = {}", r.report.lb_nelemd)));
        }
        Ok(())
    }
}

/// Mean, over METIS-family cells with Nproc > 1, of the cell's edgecut
/// over the SFC edgecut at the same (Ne, Nproc): the partition quality
/// users get relative to the paper's SFC baseline.
pub fn edgecut_vs_sfc(results: &[CellResult]) -> f64 {
    let sfc: HashMap<(usize, usize), u64> = results
        .iter()
        .filter(|r| r.cell.method == PartitionMethod::Sfc)
        .map(|r| ((r.cell.ne, r.cell.nproc), r.report.edgecut))
        .collect();
    mean_ratio(
        results
            .iter()
            .filter(|r| is_metis(r.cell.method))
            .map(|r| (r.report.edgecut, sfc[&(r.cell.ne, r.cell.nproc)])),
    )
}

/// Mean of `cut / base` over pairs with a nonzero base (a one-part
/// partition cuts nothing).
pub fn mean_ratio(pairs: impl IntoIterator<Item = (u64, u64)>) -> f64 {
    let ratios: Vec<f64> = pairs
        .into_iter()
        .filter(|&(_, base)| base > 0)
        .map(|(cut, base)| cut as f64 / base as f64)
        .collect();
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

/// Cell `i` of `a` is bit-identical to cell `i` of `b`.
pub fn same_cell(a: &[CellResult], b: &[CellResult], i: usize) -> Result<(), String> {
    match (a.get(i), b.get(i)) {
        (Some(x), Some(y)) if x.identical(y) => Ok(()),
        _ => Err(format!("cell {i} differs between runs of the grid")),
    }
}

/// The single-threaded grid: one `run_serial` call per cell, so each
/// call is timed as the caller waiting for one decomposition sees it.
/// Returns the results, each cell's microseconds, and the wall seconds.
pub fn serial_pass(
    engine: &ExperimentEngine,
    cells: &[ExperimentCell],
) -> Result<(Vec<CellResult>, Vec<f64>, f64), String> {
    set_jobs(1);
    let t = Instant::now();
    let mut results = Vec::with_capacity(cells.len());
    let mut cell_us = Vec::with_capacity(cells.len());
    for &cell in cells {
        let tc = Instant::now();
        let mut r = engine.run_serial(&[cell]).map_err(|e| e.to_string())?;
        cell_us.push(tc.elapsed().as_secs_f64() * 1e6);
        results.push(r.pop().ok_or("run_serial returned no result")?);
    }
    Ok((results, cell_us, t.elapsed().as_secs_f64()))
}

/// The pooled grid at `jobs` engine jobs; returns results and wall
/// seconds.
pub fn pooled_pass(
    engine: &ExperimentEngine,
    cells: &[ExperimentCell],
    jobs: usize,
) -> Result<(Vec<CellResult>, f64), String> {
    set_jobs(jobs);
    let t = Instant::now();
    let results = engine.run(cells).map_err(|e| e.to_string())?;
    Ok((results, t.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let jobs = nproc();
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        built = Some(engine(args.seed));
        setup.push(t.elapsed().as_secs_f64());
    }
    let engine = built.expect("set up at least once");
    let cells = grid()?;
    let ub = options(args.seed).graph_config.ub_factor;

    let mut out = Outcome::default();
    let (mut wall, mut wall_1t, mut cell_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Vec<CellResult>> = None;
    let started = Instant::now();
    while wall.len() < MIN_PASSES || started.elapsed().as_secs() < args.seconds {
        let (serial, us, secs_1t) = serial_pass(&engine, &cells)?;
        cell_us.push(us);
        wall_1t.push(secs_1t);
        let (pooled, secs_pooled) = pooled_pass(&engine, &cells, jobs)?;
        wall.push(secs_pooled);

        let reference = reference.get_or_insert_with(|| serial.clone());
        for i in 0..cells.len() {
            out.op(
                same_cell(&serial, reference, i).and_then(|()| check_cell(&engine, ub, &serial[i]))
            );
            out.op(same_cell(&pooled, &serial, i));
        }
    }
    set_jobs(0);
    let reference = reference.expect("at least one pass");

    let metis: Vec<&CellResult> = reference
        .iter()
        .filter(|r| is_metis(r.cell.method))
        .collect();
    println!("# pass walls pooled={wall:.3?} single={wall_1t:.3?}");
    println!(
        "# passes={} jobs={jobs} sweep_wall_s={:.4} sweep_1t_wall_s={:.4} \
         metis_edgecut_total={} metis_step_us_total={:.3}",
        wall.len(),
        median(&wall),
        median(&wall_1t),
        metis.iter().map(|r| r.report.edgecut).sum::<u64>(),
        metis.iter().map(|r| r.report.time_us).sum::<f64>(),
    );
    let lat = summarize(&cell_us, GRID_CELLS).ok_or("too few cell samples")?;
    lat.report("cell");
    out.metric("setup_s", median(&setup), "s");
    out.metric("wall_s", median(&wall), "s");
    out.metric("wall_1t_s", median(&wall_1t), "s");
    out.metric("p50_us", lat.p50, "us");
    out.metric("edgecut_vs_sfc", edgecut_vs_sfc(&reference), "ratio");
    out.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    Ok(out)
}
