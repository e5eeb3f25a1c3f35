//! `batch-cold`: library-level `execute_cells` on lease-sized chunks.
//!
//! The jobs are [`JOBS`] suite instances at n = [`BATCH_N`] (every family
//! in turn), written as instance files before timing starts. A run is a
//! few rounds. Each round's set-up reads and parses them
//! (`fileio::read_path`), opens the registry and a fresh solve cache. One
//! operation is one chunk of [`BATCH_CHUNK`] jobs (one of each family)
//! through `execute_cells` with the [`BATCH_SOLVERS`] list. A round runs
//! its share of the operations as passes from the first chunk on; a pass
//! runs every chunk once against its own fresh cache, so cells miss and
//! then write; the only hits are the repeats of the deterministic
//! `skyline-adversary` instance within a pass.
//!
//! The timed pipeline caches in memory (`MemoryCache`): creating a file
//! on the disk that holds the checkout took anywhere from 50 to 800 µs
//! on the reference machine, depending on the directory and the minute,
//! against ~100 µs for a whole solve, so a disk cache would make this a
//! file-creation benchmark. The disk write path is still measured, as
//! `cache.put_us` (`DiskCache::put_best` into a fresh directory) in the
//! traced run.
//!
//! A cell is correct iff it is not `invalid`; a solved cell passed
//! validation with a makespan at or above the lower bound of the
//! constraints its solver honours; a hit carries the makespan of the
//! earlier solve of its key; and every later pass reproduces the first
//! pass cell for cell. An operation with any wrong cell fails.
//!
//! Traced, every chunk of one pass is replayed: `read_path` for each
//! file, `execute_cells` on a fresh cache, then each cell's `solve` and
//! `lower_bounds` one at a time, and `put_best` of each cell into another
//! fresh cache.

use std::collections::HashMap;
use std::time::Instant;

use spp_core::{Instance, Item};
use spp_dag::PrecInstance;
use spp_engine::report::{Constraint, Validation};
use spp_engine::{
    execute_cells, BatchJob, CacheKey, CachedCell, CellOutcome, CellStatus, DiskCache, MemoryCache,
    Registry, SolveCache, SolveConfig, SolveRequest, Solver,
};

use crate::plan::{BATCH_CHUNK, BATCH_N, BATCH_SOLVERS};
use crate::stats::{median, timed, Sample, StealLog};
use crate::trace::Trace;
use crate::{Ctx, EndToEnd, Layers, Run};

/// Chunks per second on the reference machine (2 cores).
pub const NOMINAL_OPS_PER_S: f64 = 170.0;
/// Jobs per pass.
pub const JOBS: usize = 512;
/// Operations of a probe run (for another workload's traced run).
pub const PROBE_OPS: usize = 4;

/// The portable result of one cell, as compared between passes.
#[derive(Clone, Copy, PartialEq)]
struct Cell {
    status: CellStatus,
    makespan: u64,
    from_cache: bool,
}

struct Loaded {
    solvers: Vec<Box<dyn Solver>>,
    jobs: Vec<BatchJob>,
}

fn load(paths: &[std::path::PathBuf]) -> Result<Loaded, String> {
    let registry = Registry::builtin();
    let solvers = BATCH_SOLVERS
        .iter()
        .map(|name| registry.get_or_err(name).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let jobs = paths
        .iter()
        .map(|p| {
            let prec = spp_gen::fileio::read_path(p).map_err(|e| e.to_string())?;
            let label = p.file_stem().map(|s| s.to_string_lossy().into_owned());
            Ok(BatchJob::new(
                label.unwrap_or_default(),
                SolveRequest::new(prec),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Loaded { solvers, jobs })
}

/// Lower bound of the constraints a solver honoured: the combined bound
/// of the instance with the `ignored` constraint families removed.
fn honoured_lb(prec: &PrecInstance, ignored: &[Constraint]) -> f64 {
    let no_release = || {
        Instance::new(
            prec.inst
                .items()
                .iter()
                .map(|it| Item::new(it.id, it.w, it.h))
                .collect(),
        )
        .expect("dropping release times keeps items valid")
    };
    let relaxed = match (
        ignored.contains(&Constraint::Precedence),
        ignored.contains(&Constraint::Release),
    ) {
        (false, false) => prec.clone(),
        (true, false) => PrecInstance::unconstrained(prec.inst.clone()),
        (false, true) => PrecInstance::new(no_release(), prec.dag.clone()),
        (true, true) => PrecInstance::unconstrained(no_release()),
    };
    spp_engine::solver::lower_bounds(&relaxed).combined
}

/// Checks the cells of one chunk in the first pass. Returns whether all
/// are correct, and adds the ratios of cells whose solver honoured every
/// constraint to `ratios`. `seen` holds every fresh cell of the pass so
/// far, by (digest, solver), for checking the hits that repeat it.
fn check_first_pass(
    jobs: &[BatchJob],
    out: &[CellOutcome],
    seen: &mut HashMap<(u64, String), (CellStatus, f64, bool)>,
    ratios: &mut Vec<f64>,
) -> bool {
    let mut ok = true;
    for cell in out {
        let key = (cell.digest.map_or(0, |d| d.as_u64()), cell.solver.clone());
        let (good, honours_all) = match (&cell.outcome, cell.status) {
            (_, CellStatus::Invalid) => (false, false),
            (None, status) => match seen.get(&key) {
                Some(&(s, m, all)) => (s == status && m == cell.makespan, all),
                None => (false, false),
            },
            (Some(Err(_)), CellStatus::Unsupported) => (true, false),
            (Some(Ok(report)), CellStatus::Solved) => match &report.validation {
                Validation::Passed => (cell.makespan >= cell.combined_lb * (1.0 - 1e-9), true),
                Validation::PassedIgnoring(ignored) => {
                    let lb = honoured_lb(&jobs[cell.job].request.prec, ignored);
                    (cell.makespan >= lb * (1.0 - 1e-9), false)
                }
                _ => (false, false),
            },
            _ => (false, false),
        };
        if cell.outcome.is_some() {
            seen.insert(key, (cell.status, cell.makespan, honours_all));
        }
        if good && honours_all {
            ratios.push(cell.makespan / cell.combined_lb);
        }
        ok &= good;
    }
    ok
}

pub fn run(ctx: &Ctx, ops: usize, rounds: usize, trace: Option<&mut Trace>) -> Result<Run, String> {
    let files = ctx.fresh_dir("batch-instances")?;
    let paths =
        spp_gen::suite::write_suite(&files, ctx.seed, BATCH_N, JOBS).map_err(|e| e.to_string())?;

    let chunks = JOBS / BATCH_CHUNK;
    let mut first: Vec<Vec<Cell>> = Vec::with_capacity(chunks);
    let mut seen = HashMap::new();
    let mut ratios = Vec::new();
    let mut setups = Vec::with_capacity(rounds);
    let mut samples = Vec::with_capacity(ops);
    let (mut cells, mut hits, mut failed) = (0u64, 0u64, 0u64);
    let (outcome, steal) = StealLog::record(|origin| -> Result<_, String> {
        let mut busy_s = 0.0;
        let mut last = None;
        // Each round sets up afresh and runs its share of the operations
        // as passes from the first chunk on.
        for seg in crate::plan::segments(ops, rounds) {
            drop(last.take());
            let ((loaded, mut cache), took) = timed(|| Ok((load(&paths)?, MemoryCache::new())))?;
            setups.push(took);
            for j in 0..seg.len() {
                let (pass, c) = (j / chunks, j % chunks);
                if c == 0 && pass > 0 {
                    cache = MemoryCache::new();
                }
                let jobs = &loaded.jobs[c * BATCH_CHUNK..(c + 1) * BATCH_CHUNK];
                let t0 = Instant::now();
                let out = execute_cells(jobs, &loaded.solvers, Some(&cache));
                // The loop's own checks run between operations; the timeline
                // of the slices is the time spent inside `execute_cells`.
                let took = t0.elapsed().as_secs_f64();
                busy_s += took;
                samples.push(Sample {
                    end_s: busy_s,
                    wall_s: (Instant::now() - origin).as_secs_f64(),
                    latency_ms: took * 1e3,
                });
                let out = out.map_err(|e| e.to_string())?;

                let got: Vec<Cell> = out
                    .iter()
                    .map(|o| Cell {
                        status: o.status,
                        makespan: o.makespan.to_bits(),
                        from_cache: o.from_cache,
                    })
                    .collect();
                cells += got.len() as u64;
                hits += got.iter().filter(|x| x.from_cache).count() as u64;
                let ok = if seg.start == 0 && pass == 0 {
                    let ok = check_first_pass(jobs, &out, &mut seen, &mut ratios);
                    first.push(got);
                    ok
                } else {
                    first.get(c) == Some(&got)
                };
                if !ok {
                    failed += 1;
                }
            }
            last = Some(loaded);
        }
        Ok(last.expect("at least one round ran"))
    });
    let loaded = outcome?;
    let peak_rss_mb = crate::stats::peak_rss_mb("self")?;

    let mut layers = Layers::new();
    if let Some(trace) = trace {
        layers.insert(
            "cache.hit_ratio".into(),
            (hits as f64 / cells as f64, "ratio"),
        );
        failed += replay(ctx, &paths, &loaded.solvers, trace, &mut layers)?;
    }
    Ok(Run {
        attempted: ops as u64,
        failed,
        e2e: EndToEnd {
            samples,
            steal,
            units_per_op: (BATCH_CHUNK * BATCH_SOLVERS.len()) as f64,
            quality_ratio: crate::stats::mean(&ratios),
            setups,
            peak_rss_mb,
        },
        layers,
    })
}

/// Replay one pass chunk by chunk, timing each layer on its own; returns
/// the number of chunks whose sequential solves disagreed with
/// `execute_cells`.
fn replay(
    ctx: &Ctx,
    paths: &[std::path::PathBuf],
    solvers: &[Box<dyn Solver>],
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<u64, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = SolveConfig::default();
    let (mut exec_s, mut seq_s, mut cells) = (0.0f64, 0.0f64, 0usize);
    let mut solve_us: HashMap<String, Vec<f64>> = HashMap::new();
    let mut failed = 0;
    for (c, chunk) in paths.chunks(BATCH_CHUNK).enumerate() {
        let op = c as u64;
        let root = trace.open(op, "replay.batch", None);
        let mut jobs = Vec::with_capacity(chunk.len());
        for p in chunk {
            let prec = trace.span(op, "fileio.read_path", Some(root), || {
                spp_gen::fileio::read_path(p)
            });
            let prec = prec.map_err(|e| e.to_string())?;
            jobs.push(BatchJob::new(String::new(), SolveRequest::new(prec)));
        }
        let exec_dir = ctx.fresh_dir("replay-exec")?;
        let exec_cache = DiskCache::new(&exec_dir, false).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let out = trace.span(op, "batch.execute_cells", Some(root), || {
            execute_cells(&jobs, solvers, Some(&exec_cache))
        });
        exec_s += t.elapsed().as_secs_f64();
        let out = out.map_err(|e| e.to_string())?;
        cells += out.len();

        let mut agrees = true;
        for job in &jobs {
            trace.span(op, "solver.lower_bounds", Some(root), || {
                spp_engine::solver::lower_bounds(&job.request.prec)
            });
        }
        for cell in &out {
            let solver = &solvers[BATCH_SOLVERS
                .iter()
                .position(|s| *s == cell.solver)
                .expect("cells name listed solvers")];
            let request = &jobs[cell.job].request;
            let t = Instant::now();
            let report = trace.span(
                op,
                format!("solver.solve.{}", cell.solver),
                Some(root),
                || spp_engine::solve(solver.as_ref(), request),
            );
            let elapsed = t.elapsed().as_secs_f64();
            seq_s += elapsed;
            agrees &= match report {
                Ok(r) => {
                    // Only solves that ran count; refusals return at once.
                    solve_us
                        .entry(solver.name().to_string())
                        .or_default()
                        .push(elapsed * 1e6);
                    r.makespan == cell.makespan
                }
                Err(_) => cell.status == CellStatus::Unsupported,
            };
        }

        let put_dir = ctx.fresh_dir("replay-put")?;
        let put_cache = DiskCache::new(&put_dir, false).map_err(|e| e.to_string())?;
        for cell in out.iter().filter(|c| c.status != CellStatus::Invalid) {
            let digest = cell.digest.expect("a cache was attached");
            let key = CacheKey::new(digest, &cell.solver, &config);
            let value = CachedCell {
                status: cell.status,
                makespan: cell.makespan,
                combined_lb: cell.combined_lb,
                improved_from: cell.improved_from,
            };
            let put = trace.span(op, "cache.put_best", Some(root), || {
                put_cache.put_best(&key, &value)
            });
            put.map_err(|e| e.to_string())?;
        }
        trace.close(root);
        let _ = std::fs::remove_dir_all(&exec_dir);
        let _ = std::fs::remove_dir_all(&put_dir);
        if !agrees {
            failed += 1;
        }
    }
    layers.insert("batch.cell_us".into(), (exec_s * 1e6 / cells as f64, "us"));
    layers.insert(
        "par.efficiency".into(),
        (seq_s / (exec_s * workers as f64), "ratio"),
    );
    for name in BATCH_SOLVERS {
        let us = solve_us.remove(name).unwrap_or_default();
        layers.insert(format!("solver.solve_us.{name}"), (median(&us), "us"));
    }
    layers.insert(
        "solver.lower_bounds_us".into(),
        (median(&trace.durations_us("solver.lower_bounds")), "us"),
    );
    layers.insert(
        "cache.put_us".into(),
        (median(&trace.durations_us("cache.put_best")), "us"),
    );
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(name: &str) -> Ctx {
        Ctx {
            seed: 11,
            spp: std::path::PathBuf::new(),
            run_dir: std::env::temp_dir()
                .join(format!("perfbench-test-{name}-{}", std::process::id())),
            epoch: Instant::now(),
        }
    }

    #[test]
    fn a_fixed_seed_repeats_quality_and_hit_ratio() {
        // 68 chunks: one full pass, then the start of a second one that
        // must reproduce the first cell for cell.
        let runs: Vec<Run> = ["a", "b"]
            .iter()
            .map(|name| {
                let ctx = ctx(name);
                let mut trace = Trace::new(ctx.epoch);
                let run = run(&ctx, 68, 1, Some(&mut trace)).unwrap();
                let _ = std::fs::remove_dir_all(&ctx.run_dir);
                run
            })
            .collect();
        for run in &runs {
            assert_eq!(run.failed, 0);
            assert!(run.e2e.quality_ratio >= 1.0);
        }
        assert_eq!(runs[0].e2e.quality_ratio, runs[1].e2e.quality_ratio);
        let hit_ratio = |r: &Run| r.layers["cache.hit_ratio"].0;
        assert_eq!(hit_ratio(&runs[0]), hit_ratio(&runs[1]));
        // The first pass repeats skyline-adversary in 63 of 64 chunks
        // (8 cells each); the 4 chunks of the second pass start afresh.
        let cells = 68.0 * (BATCH_CHUNK * BATCH_SOLVERS.len()) as f64;
        let hits = 63.0 * BATCH_SOLVERS.len() as f64 + 3.0 * BATCH_SOLVERS.len() as f64;
        assert_eq!(hit_ratio(&runs[0]), hits / cells);
    }

    #[test]
    fn later_rounds_reproduce_the_first() {
        let ctx = ctx("rounds");
        let run = run(&ctx, 20, 3, None).unwrap();
        let _ = std::fs::remove_dir_all(&ctx.run_dir);
        assert_eq!((run.attempted, run.failed), (20, 0));
        assert_eq!(run.e2e.setups.len(), 3);
        assert_eq!(run.e2e.samples.len(), 20);
    }

    #[test]
    fn ignored_constraints_relax_the_bound() {
        let prec = spp_gen::suite::suite(2, 24, 1).remove(0).prec; // deep-chain
        let full = honoured_lb(&prec, &[]);
        let relaxed = honoured_lb(&prec, &[Constraint::Precedence]);
        assert!(
            relaxed < full,
            "a chain's critical path exceeds its area bound"
        );
    }
}
