//! `perfbench` — the strip-packing workspace's end-to-end and per-layer
//! benchmark. See `README.md` beside this crate for the workloads, the
//! metrics and how to run it; `run.py` builds everything and invokes
//! this binary.
//!
//! ```text
//! perfbench --workload <serve-hit|serve-anytime|batch-cold> --seed <n>
//!           --seconds <s> --trace <0|1> --spp <path to spp> --work-dir <dir>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Any error before a result exists exits non-zero without
//! printing one.

mod batch_cold;
mod plan;
mod serve_anytime;
mod serve_hit;
mod server;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use trace::Trace;

/// Per-layer metrics of one traced run: name → (value, unit).
pub type Layers = BTreeMap<String, (f64, &'static str)>;

/// A result's metrics in output order: (name, value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// The `spp` binary whose `serve` subcommand is under test.
    pub spp: PathBuf,
    /// Scratch directory of this run (cache directories, instance files);
    /// removed when the run ends.
    pub run_dir: PathBuf,
    /// Common time origin of every span.
    pub epoch: Instant,
}

static FRESH: AtomicU64 = AtomicU64::new(0);

impl Ctx {
    /// A new, empty directory under the run directory.
    pub fn fresh_dir(&self, what: &str) -> Result<PathBuf, String> {
        let dir = self
            .run_dir
            .join(format!("{what}-{}", FRESH.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// The end-to-end figures of one workload run.
pub struct EndToEnd {
    /// Every timed operation, in operation order.
    pub samples: Vec<stats::Sample>,
    /// Steal time through the timed phase.
    pub steal: stats::StealLog,
    /// Units of work per operation counted by `throughput` (1 request,
    /// or the cells of one batch chunk).
    pub units_per_op: f64,
    pub quality_ratio: f64,
    /// Duration and steal share of every set-up performed, one per round.
    pub setups: Vec<[f64; 2]>,
    pub peak_rss_mb: f64,
}

/// What one workload run produced.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: EndToEnd,
    /// Filled only when the run was traced.
    pub layers: Layers,
}

/// Per-layer metric names every traced run reports, with units. A
/// workload measures the layers it drives from its own operations and
/// takes the rest from short probe runs of the other workloads.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.handler_p50_us", "us"),
    ("serve.transport_p50_us", "us"),
    ("serve.p99_ms", "ms"),
    ("serve.keepalive_reuse_ratio", "ratio"),
    ("fileio.parse_us.n12", "us"),
    ("fileio.parse_us.n64", "us"),
    ("fileio.parse_us.n256", "us"),
    ("fileio.digest_us.n12", "us"),
    ("fileio.digest_us.n64", "us"),
    ("fileio.digest_us.n256", "us"),
    ("cache.get_us", "us"),
    ("cache.entry_parse_us", "us"),
    ("cache.put_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("batch.cell_us", "us"),
    ("par.efficiency", "ratio"),
    ("solver.solve_us.nfdh", "us"),
    ("solver.solve_us.skyline", "us"),
    ("solver.solve_us.dc-nfdh", "us"),
    ("solver.solve_us.layered", "us"),
    ("solver.solve_us.greedy", "us"),
    ("solver.solve_us.combined-greedy", "us"),
    ("solver.solve_us.skyline-release", "us"),
    ("solver.solve_us.aptas", "us"),
    ("solver.lower_bounds_us", "us"),
    ("solver.seed_us", "us"),
    ("improve.rounds", "count"),
    ("improve.us_per_round", "us"),
    ("improve.parallel_efficiency", "ratio"),
    ("improve.accept_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

const WORKLOADS: [&str; 3] = ["serve-hit", "serve-anytime", "batch-cold"];

/// Rounds per gated run. Each round sets the workload up afresh and then
/// times its share of the operations, so the set-ups are spread over the
/// whole run like the timed operations are. `setup_s` is the median of
/// the set-ups the hypervisor left alone, and of at least
/// `ROUNDS.div_ceil(2)`.
const ROUNDS: usize = 6;

/// Time slices of a timed phase. Throughput and latency quantiles are
/// taken over the operations of the slices the hypervisor left alone, or
/// of the `SLICES / 2` least-stolen ones if fewer were: on a shared host
/// it takes a whole CPU from the machine for seconds at a time, which
/// says nothing about the program.
const SLICES: usize = 20;

/// Run `workload` with the operation list of a `seconds`-long run.
fn run_full(
    ctx: &Ctx,
    workload: &str,
    seconds: u64,
    trace: Option<&mut Trace>,
) -> Result<Run, String> {
    match workload {
        "serve-hit" => serve_hit::run(
            ctx,
            plan::op_count(serve_hit::NOMINAL_OPS_PER_S, seconds),
            ROUNDS,
            trace,
        ),
        "serve-anytime" => serve_anytime::run(
            ctx,
            plan::op_count(serve_anytime::NOMINAL_OPS_PER_S, seconds),
            ROUNDS,
            trace,
        ),
        "batch-cold" => batch_cold::run(
            ctx,
            plan::op_count(batch_cold::NOMINAL_OPS_PER_S, seconds),
            ROUNDS,
            trace,
        ),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// A short traced run of `workload`, for the layers another workload
/// does not drive.
fn probe(ctx: &Ctx, workload: &str, trace: &mut Trace) -> Result<Run, String> {
    match workload {
        "serve-hit" => serve_hit::run(ctx, serve_hit::PROBE_OPS, 1, Some(trace)),
        "serve-anytime" => serve_anytime::run(ctx, serve_anytime::PROBE_OPS, 1, Some(trace)),
        _ => batch_cold::run(ctx, batch_cold::PROBE_OPS, 1, Some(trace)),
    }
}

fn end_to_end(e: &EndToEnd) -> Metrics {
    let slices = stats::slices(&e.samples, SLICES, &e.steal);
    for (i, s) in slices.iter().enumerate() {
        eprintln!(
            "perfbench: slice {i:2}: throughput {:.1}/s p50 {:.4} ms p90 {:.4} ms steal {:.1}%",
            s.throughput(e.units_per_op),
            stats::median(&s.latency_ms),
            stats::quantile(&s.latency_ms, 0.9),
            s.steal * 100.0
        );
    }
    let kept = stats::least_stolen(&slices, |s| s.steal, SLICES / 2);
    let latency_ms: Vec<f64> = kept.iter().flat_map(|s| s.latency_ms.clone()).collect();
    let kept_s: f64 = kept.iter().map(|s| s.width_s).sum();
    let setups = stats::least_stolen(&e.setups, |s| s[1], ROUNDS.div_ceil(2));
    vec![
        (
            "throughput".into(),
            latency_ms.len() as f64 * e.units_per_op / kept_s,
            "1/s",
        ),
        ("p50_ms".into(), stats::median(&latency_ms), "ms"),
        ("p90_ms".into(), stats::quantile(&latency_ms, 0.9), "ms"),
        ("quality_ratio".into(), e.quality_ratio, "ratio"),
        (
            "setup_s".into(),
            stats::median(&setups.iter().map(|s| s[0]).collect::<Vec<_>>()),
            "s",
        ),
        ("peak_rss_mb".into(), e.peak_rss_mb, "MB"),
    ]
}

/// The traced run: the workload untraced (the reference for the tracing
/// overhead), then traced with its own replays, then probes for the
/// layers it bypasses. Both full runs use the operation list of a
/// `seconds / 2` run, so the whole stays near a gated run's length.
/// Writes every span to `trace_path`.
fn traced(
    ctx: &Ctx,
    workload: &str,
    seconds: u64,
    trace_path: &std::path::Path,
) -> Result<(u64, u64, Metrics), String> {
    let seconds = seconds.div_ceil(2);
    let plain = run_full(ctx, workload, seconds, None)?;
    let mut trace = Trace::new(ctx.epoch);
    let own = run_full(ctx, workload, seconds, Some(&mut trace))?;
    let mut layers = own.layers;
    layers.insert(
        "trace.overhead_ratio".into(),
        (
            end_to_end(&own.e2e)[1].1 / end_to_end(&plain.e2e)[1].1,
            "ratio",
        ),
    );
    let (mut attempted, mut failed) = (plain.attempted + own.attempted, plain.failed + own.failed);
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        let p = probe(ctx, other, &mut trace)?;
        attempted += p.attempted;
        failed += p.failed;
        for (name, v) in p.layers {
            layers.entry(name).or_insert(v);
        }
    }
    for (name, (count, total_us, self_us)) in trace.summary() {
        eprintln!(
            "span {name:<32} count {count:>7}  total {total_us:>12.1} us  self {self_us:>12.1} us"
        );
    }
    trace
        .write_jsonl(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!("perfbench: spans written to {}", trace_path.display());
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let (value, got_unit) = layers
            .remove(*name)
            .ok_or_else(|| format!("traced run measured no {name}"))?;
        debug_assert_eq!(*unit, got_unit, "{name}");
        metrics.push((name.to_string(), value, got_unit));
    }
    if let Some(extra) = layers.keys().next() {
        return Err(format!("undeclared per-layer metric {extra}"));
    }
    Ok((attempted, failed, metrics))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spp: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} wants a whole number"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, not {other:?}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
        spp: PathBuf::from(get("--spp")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

fn json_result(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        spp: args.spp,
        run_dir,
        epoch: Instant::now(),
    };
    let outcome = if args.trace {
        let path = args
            .work_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        traced(&ctx, &args.workload, args.seconds, &path)
    } else {
        run_full(&ctx, &args.workload, args.seconds, None)
            .map(|r| (r.attempted, r.failed, end_to_end(&r.e2e)))
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    match outcome {
        Ok((attempted, failed, metrics)) => {
            if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
                eprintln!("perfbench: a metric is not finite: {metrics:?}");
                return ExitCode::FAILURE;
            }
            println!("{}", json_result(attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let line = json_result(3, 0, &[("p50_ms".into(), 1.25, "ms")]);
        let doc = spp_core::json::parse(&line).unwrap();
        let obj = spp_core::json::as_obj(&doc, "$").unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(json_result(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
