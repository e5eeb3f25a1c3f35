//! `serve-anytime`: budgeted `POST /solve` that improves every answer.
//!
//! One closed-loop client asks for the anytime portfolio
//! (`improve_streams=2`) with a `budget_ms` that never binds: every
//! search stops on convergence, so each request is a fixed amount of
//! work. `improve_seed` is the operation index, so every request is a
//! distinct cold key: a miss, a seed solve, improvement and a cache put.
//! A run is a few rounds, each a set-up and its share of the operations.
//! Set-up is server start plus [`WARMUP`] such requests on keys the timed
//! operations never use. A reply is correct iff it is 200, arrives within
//! the budget, is not a cache hit, and its makespan lies between the
//! combined lower bound and the one-shot seed makespan.
//!
//! Traced, every operation up to [`REPLAY_CAP`] is replayed in process:
//! `spp_engine::solve` with no budget for the seed, then
//! `spp_pack::improve_parallel` without a deadline, once on one worker and
//! once on two. Both must converge to the served makespan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use spp_engine::{Registry, SolveRequest};
use spp_pack::PortfolioConfig;

use crate::plan::{self, PoolEntry};
use crate::server::{closed_loop, parse_solve_reply, send_all, serve_layers, Op, ServerProc};
use crate::stats::{median, timed, StealLog};
use crate::trace::Trace;
use crate::{Ctx, EndToEnd, Layers, Run};

/// Requests per second on the reference machine (2 cores).
pub const NOMINAL_OPS_PER_S: f64 = 160.0;
/// Portfolio width asked of the server.
pub const STREAMS: u64 = 2;
/// The budget every request carries: the server's default cap, far
/// above any convergence time, so it never truncates a search.
pub const BUDGET_MS: u64 = 10_000;
/// Warm-up requests per set-up.
const WARMUP: usize = 48;
/// Operations of a probe run (for another workload's traced run).
pub const PROBE_OPS: usize = 24;
/// Operations replayed in process by a traced run.
const REPLAY_CAP: usize = 200;
const TAG: u64 = 0x5e27_e417_0000_0002;

fn solve_path(e: &PoolEntry, improve_seed: u64) -> String {
    format!(
        "/solve?solver={}&budget_ms={BUDGET_MS}&improve_streams={STREAMS}&improve_seed={improve_seed}",
        e.solver
    )
}

/// One-shot (seed) makespan of every pool entry.
fn seed_makespans(pool: &[PoolEntry]) -> Result<Vec<f64>, String> {
    let registry = Registry::builtin();
    pool.iter()
        .map(|e| {
            let solver = registry.get_or_err(e.solver).map_err(|x| x.to_string())?;
            spp_engine::solve(&*solver, &SolveRequest::new(e.prec.clone()))
                .map(|r| r.makespan)
                .map_err(|x| format!("{}: {x}", e.name))
        })
        .collect()
}

pub fn run(
    ctx: &Ctx,
    ops: usize,
    rounds: usize,
    mut trace: Option<&mut Trace>,
) -> Result<Run, String> {
    let pool = plan::anytime_pool(ctx.seed);
    let seeds = seed_makespans(&pool)?;
    // Warm-up keys count down from u64::MAX; operation keys count up from 0.
    let warmup: Vec<Op> = (0..WARMUP)
        .map(|j| Op {
            path: solve_path(&pool[j % pool.len()], u64::MAX - j as u64),
            body: &pool[j % pool.len()].body,
        })
        .collect();

    let idx = plan::op_indices(ctx.seed, TAG, pool.len(), ops);
    let op_list: Vec<Op> = idx
        .iter()
        .enumerate()
        .map(|(i, &p)| Op {
            path: solve_path(&pool[p], i as u64),
            body: &pool[p].body,
        })
        .collect();
    // Served makespan and lower bound of every operation, as f64 bits.
    let served: Vec<(AtomicU64, AtomicU64)> = (0..ops)
        .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
        .collect();
    let hits = AtomicU64::new(0);
    let budget = Duration::from_millis(BUDGET_MS);
    let check = |i: usize, r: &spp_serve::http::Response, latency: Duration| {
        if r.status != 200 || latency >= budget {
            return false;
        }
        let Ok(reply) = parse_solve_reply(&r.body) else {
            return false;
        };
        if reply.cached {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        let seed = seeds[idx[i]];
        served[i]
            .0
            .store(reply.makespan.to_bits(), Ordering::Relaxed);
        served[i].1.store(reply.lb.to_bits(), Ordering::Relaxed);
        reply.solved
            && !reply.cached
            && reply.makespan <= seed
            && reply.makespan >= reply.lb * (1.0 - 1e-9)
            && reply.improved_from.is_none_or(|from| from == seed)
    };

    // Each round sets up a fresh server and serves its share of the
    // operations.
    let mut setups = Vec::with_capacity(rounds);
    let mut samples = Vec::with_capacity(ops);
    let (mut failed, mut peak_rss_mb, mut last_start) = (0, 0.0f64, 0);
    let (outcome, steal) = StealLog::record(|origin| -> Result<_, String> {
        let mut busy_s = 0.0;
        let mut last = None;
        for seg in plan::segments(ops, rounds) {
            drop(last.take());
            let dir = ctx.fresh_dir("serve-anytime-cache")?;
            let (server, took) = timed(|| {
                let server = ServerProc::start(&ctx.spp, &dir)?;
                send_all(server.authority(), &warmup)?;
                Ok(server)
            })?;
            setups.push(took);
            let res = closed_loop(
                server.authority(),
                1,
                &op_list[seg.clone()],
                seg.start,
                &check,
                trace.as_deref_mut(),
                ctx.epoch,
                origin,
            );
            samples.extend(res.samples.into_iter().map(|mut s| {
                s.end_s += busy_s;
                s
            }));
            busy_s += res.elapsed_s;
            last_start = seg.start;
            failed += res.failed;
            peak_rss_mb = peak_rss_mb.max(server.peak_rss_mb()?);
            last = Some(server);
        }
        Ok(last.expect("at least one round ran"))
    });
    let server = outcome?;
    let served: Vec<(f64, f64)> = served
        .iter()
        .map(|(m, lb)| {
            (
                f64::from_bits(m.load(Ordering::Relaxed)),
                f64::from_bits(lb.load(Ordering::Relaxed)),
            )
        })
        .collect();
    let ratios: Vec<f64> = served.iter().map(|(m, lb)| m / lb).collect();

    let layers = match trace {
        Some(trace) => {
            let mut layers =
                serve_layers(server, &samples, last_start, hits.load(Ordering::Relaxed))?;
            let cap = idx.len().min(REPLAY_CAP);
            failed += replay(&pool, &idx[..cap], &served, trace, &mut layers)?;
            layers
        }
        None => Layers::new(),
    };
    Ok(Run {
        attempted: ops as u64,
        failed,
        e2e: EndToEnd {
            samples,
            steal,
            units_per_op: 1.0,
            quality_ratio: crate::stats::mean(&ratios),
            setups,
            peak_rss_mb,
        },
        layers,
    })
}

/// Replay operations `idx` in process; returns the number whose search
/// did not converge to the served makespan.
fn replay(
    pool: &[PoolEntry],
    idx: &[usize],
    served: &[(f64, f64)],
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<u64, String> {
    let registry = Registry::builtin();
    let mut failed = 0;
    let (mut rounds, mut improvements) = (0u64, 0u64);
    let (mut wall1, mut wall2) = (0.0f64, 0.0f64);
    for (op, &i) in idx.iter().enumerate() {
        let e = &pool[i];
        let solver = registry.get_or_err(e.solver).map_err(|x| x.to_string())?;
        let request = SolveRequest::new(e.prec.clone());
        let op_id = op as u64;
        let root = trace.open(op_id, "replay.anytime", None);
        let seed = trace.span(op_id, "solver.seed", Some(root), || {
            spp_engine::solve(&*solver, &request)
        });
        let seed = seed.map_err(|x| format!("{}: {x}", e.name))?;
        let digest = trace.span(op_id, "fileio.digest", Some(root), || {
            spp_gen::fileio::digest(&e.prec)
        });
        let config = |workers: usize| PortfolioConfig {
            streams: STREAMS as usize,
            workers,
            seed: digest.as_u64() ^ op as u64,
            budget: None,
            ..PortfolioConfig::default()
        };
        let t = Instant::now();
        let one = trace.span(op_id, "improve.workers1", Some(root), || {
            spp_pack::improve_parallel(&e.prec, &seed.placement, &config(1))
        });
        wall1 += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let two = trace.span(op_id, "improve.workers2", Some(root), || {
            spp_pack::improve_parallel(&e.prec, &seed.placement, &config(2))
        });
        wall2 += t.elapsed().as_secs_f64();
        trace.close(root);

        let makespan = one.placement.height(&e.prec.inst);
        let agrees = one.converged
            && two.converged
            && makespan == two.placement.height(&e.prec.inst)
            && makespan == served[op].0
            && one.seed_makespan == seed.makespan;
        if !agrees {
            failed += 1;
        }
        rounds += one.rounds;
        improvements += one.improvements;
    }
    layers.insert(
        "solver.seed_us".into(),
        (median(&trace.durations_us("solver.seed")), "us"),
    );
    layers.insert("improve.rounds".into(), (rounds as f64, "count"));
    layers.insert(
        "improve.us_per_round".into(),
        (wall1 * 1e6 / rounds as f64, "us"),
    );
    layers.insert(
        "improve.parallel_efficiency".into(),
        (wall1 / (2.0 * wall2), "ratio"),
    );
    layers.insert(
        "improve.accept_ratio".into(),
        (improvements as f64 / rounds as f64, "ratio"),
    );
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_engine::SolveConfig;

    #[test]
    fn replays_reproduce_the_served_search_and_repeat_their_rounds() {
        let pool = plan::anytime_pool(3);
        let idx = plan::op_indices(3, TAG, pool.len(), 4);
        let registry = Registry::builtin();
        // What the server computes for operation i.
        let served: Vec<(f64, f64)> = idx
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let e = &pool[p];
                let config = SolveConfig {
                    budget_ms: BUDGET_MS,
                    improve_streams: STREAMS,
                    improve_seed: i as u64,
                    ..SolveConfig::default()
                };
                let request = SolveRequest::new(e.prec.clone()).with_config(config);
                let report = spp_engine::solve(&*registry.get(e.solver).unwrap(), &request);
                let report = report.unwrap();
                (report.makespan, report.bounds.combined)
            })
            .collect();
        let mut runs = [Layers::new(), Layers::new()];
        for layers in &mut runs {
            let mut trace = Trace::new(Instant::now());
            assert_eq!(replay(&pool, &idx, &served, &mut trace, layers).unwrap(), 0);
        }
        assert!(runs[0]["improve.rounds"].0 > 0.0);
        assert_eq!(runs[0]["improve.rounds"], runs[1]["improve.rounds"]);
        assert_eq!(
            runs[0]["improve.accept_ratio"],
            runs[1]["improve.accept_ratio"]
        );
    }
}
