//! `serve-hit`: cache-hit `POST /solve` traffic.
//!
//! A run is a few rounds. Each round's set-up starts `spp serve` on an
//! empty cache directory, fills the cache with one cold request per pool
//! entry and warms up with [`WARM_PASSES`] passes of hits over the pool;
//! every timed request is then a hit, so parse, digest and the cache read
//! carry the request and the solver and improve layers do no work. Two
//! closed-loop keep-alive clients then send the round's share of a
//! seed-drawn sequence of pool entries. A reply is correct iff it equals
//! the entry's fill reply byte for byte, except that `"cached"` reads
//! `true`.
//!
//! Traced, every operation up to [`REPLAY_CAP`] is replayed in process
//! through the public functions the handler calls: `fileio::from_json`
//! → `fileio::digest` → `CacheKey::new` + `DiskCache::get`, and
//! `cache::entry_parse` on the stored entry.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use spp_engine::cache::entry_parse;
use spp_engine::{CacheKey, DiskCache, SolveCache, SolveConfig};

use crate::plan::{self, PoolEntry, HIT_SIZES};
use crate::server::{closed_loop, parse_solve_reply, send_all, serve_layers, Op, ServerProc};
use crate::stats::{median, timed, StealLog};
use crate::trace::Trace;
use crate::{Ctx, EndToEnd, Layers, Run};

/// Requests per second on the reference machine (2 cores).
pub const NOMINAL_OPS_PER_S: f64 = 3300.0;
pub const CLIENTS: usize = 2;
/// Operations of a probe run (for another workload's traced run).
pub const PROBE_OPS: usize = 3300;
/// Operations replayed in process by a traced run.
const REPLAY_CAP: usize = 1200;
const TAG: u64 = 0x5e27_e417_0000_0001;
/// Warm-up passes over the pool per set-up. They make the set-up mostly
/// request handling, so the few cache-file creations of the fill (whose
/// cost depends on the disk) do not dominate `setup_s`.
const WARM_PASSES: usize = 4;

pub fn run(
    ctx: &Ctx,
    ops: usize,
    rounds: usize,
    mut trace: Option<&mut Trace>,
) -> Result<Run, String> {
    let pool = plan::hit_pool(ctx.seed);
    let paths: Vec<String> = pool
        .iter()
        .map(|e| format!("/solve?solver={}", e.solver))
        .collect();
    let fill: Vec<Op> = pool
        .iter()
        .zip(&paths)
        .map(|(e, p)| Op {
            path: p.clone(),
            body: &e.body,
        })
        .collect();
    let idx = plan::op_indices(ctx.seed, TAG, pool.len(), ops);
    let op_list: Vec<Op> = idx
        .iter()
        .map(|&i| Op {
            path: paths[i].clone(),
            body: &pool[i].body,
        })
        .collect();

    // Each round sets up a fresh server and serves its share of the
    // operations; the first fill's replies fix what every hit must say.
    let mut expected: Vec<String> = Vec::new();
    let mut ratios = Vec::with_capacity(pool.len());
    let mut makespans = Vec::with_capacity(pool.len());
    let hits = AtomicU64::new(0);
    let mut setups = Vec::with_capacity(rounds);
    let mut samples = Vec::with_capacity(ops);
    let (mut failed, mut peak_rss_mb, mut last_start) = (0, 0.0f64, 0);
    let (outcome, steal) = StealLog::record(|origin| -> Result<_, String> {
        let mut busy_s = 0.0;
        let mut last = None;
        for seg in plan::segments(ops, rounds) {
            drop(last.take());
            let dir = ctx.fresh_dir("serve-hit-cache")?;
            let ((server, replies), took) = timed(|| {
                let server = ServerProc::start(&ctx.spp, &dir)?;
                let replies = send_all(server.authority(), &fill)?;
                for _ in 0..WARM_PASSES {
                    send_all(server.authority(), &fill)?;
                }
                Ok((server, replies))
            })?;
            setups.push(took);
            // Later rounds' hits must repeat the first round's answers.
            if expected.is_empty() {
                for (e, body) in pool.iter().zip(&replies) {
                    let r = parse_solve_reply(body)?;
                    if r.cached || !r.solved || r.makespan < r.lb * (1.0 - 1e-9) {
                        return Err(format!("fill reply for {} is wrong: {body}", e.name));
                    }
                    ratios.push(r.makespan / r.lb);
                    makespans.push(r.makespan);
                }
                expected = replies
                    .iter()
                    .map(|body| body.replace("\"cached\": false", "\"cached\": true"))
                    .collect();
            }
            let check = |i: usize, r: &spp_serve::http::Response, _| {
                let ok = r.status == 200 && r.body == expected[idx[i]];
                if ok {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
                ok
            };
            let res = closed_loop(
                server.authority(),
                CLIENTS,
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
            last = Some((server, dir));
        }
        Ok(last.expect("at least one round ran"))
    });
    let (server, dir) = outcome?;
    let layers = match trace {
        Some(trace) => {
            let mut layers =
                serve_layers(server, &samples, last_start, hits.load(Ordering::Relaxed))?;
            let cap = idx.len().min(REPLAY_CAP);
            failed += replay(&pool, &dir, &idx[..cap], &makespans, trace, &mut layers)?;
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

/// Replay operations `idx` in process against the server's cache
/// directory; returns the number that disagreed with the served answer.
fn replay(
    pool: &[PoolEntry],
    dir: &Path,
    idx: &[usize],
    served: &[f64],
    trace: &mut Trace,
    layers: &mut Layers,
) -> Result<u64, String> {
    let cache = DiskCache::new(dir, true).map_err(|e| e.to_string())?;
    let config = SolveConfig::default();
    let mut failed = 0;
    for (op, &i) in idx.iter().enumerate() {
        let op = op as u64;
        let e = &pool[i];
        let root = trace.open(op, "replay.hit", None);
        let prec = trace.span(op, format!("fileio.parse.n{}", e.n), Some(root), || {
            spp_gen::fileio::from_json(&e.body)
        });
        let prec = prec.map_err(|err| format!("{}: {err}", e.name))?;
        let digest = trace.span(op, format!("fileio.digest.n{}", e.n), Some(root), || {
            spp_gen::fileio::digest(&prec)
        });
        let key = trace.span(op, "cache.key", Some(root), || {
            CacheKey::new(digest, e.solver, &config)
        });
        let cell = trace.span(op, "cache.get", Some(root), || cache.get(&key));
        trace.close(root);
        let text = std::fs::read_to_string(dir.join(key.file_name()))
            .map_err(|err| format!("cache entry of {}: {err}", e.name))?;
        let parsed = trace.span(op, "cache.entry_parse", None, || entry_parse(&text));
        let agrees = digest == e.digest
            && cell.is_some_and(|c| c.makespan == served[i])
            && parsed.is_ok_and(|(k, c)| k == key && c.makespan == served[i]);
        if !agrees {
            failed += 1;
        }
    }
    for n in HIT_SIZES {
        let us = median(&trace.durations_us(&format!("fileio.parse.n{n}")));
        layers.insert(format!("fileio.parse_us.n{n}"), (us, "us"));
        let us = median(&trace.durations_us(&format!("fileio.digest.n{n}")));
        layers.insert(format!("fileio.digest_us.n{n}"), (us, "us"));
    }
    layers.insert(
        "cache.get_us".into(),
        (median(&trace.durations_us("cache.get")), "us"),
    );
    layers.insert(
        "cache.entry_parse_us".into(),
        (median(&trace.durations_us("cache.entry_parse")), "us"),
    );
    Ok(failed)
}
