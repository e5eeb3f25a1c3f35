//! Order statistics over raw samples, and the steal-time record that
//! tells which parts of a run the hypervisor slowed.
//!
//! Latency quantiles are computed from every recorded sample, never from
//! a bucketed histogram: the server's log-bucketed histogram is up to
//! 12.5% coarse, enough to move a quantile by a whole bucket between
//! identical runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Quantile `q` (0..=1) of `samples` by linear interpolation between
/// the two nearest ranks. `samples` need not be sorted. `NaN` if empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position on the timeline the phase is sliced along, s: the timed
    /// wall time so far, set-ups excluded (for an in-process loop, the
    /// time spent inside the measured call so far).
    pub end_s: f64,
    /// Wall time since the phase (set-ups included) began when the
    /// operation completed, s; where its steal share is looked up.
    pub wall_s: f64,
    pub latency_ms: f64,
}

/// One time slice of a timed phase.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Latency of every operation that completed in the slice.
    pub latency_ms: Vec<f64>,
    pub width_s: f64,
    /// Share of the machine's CPU time the hypervisor took meanwhile.
    pub steal: f64,
}

impl Slice {
    pub fn throughput(&self, units_per_op: f64) -> f64 {
        self.latency_ms.len() as f64 * units_per_op / self.width_s
    }
}

/// Cut the timed phase into `k` equal slices of its timeline.
pub fn slices(samples: &[Sample], k: usize, steal: &StealLog) -> Vec<Slice> {
    let window = samples.iter().map(|s| s.end_s).fold(0.0, f64::max);
    let width_s = window / k as f64;
    let mut parts = vec![Vec::new(); k];
    for s in samples {
        parts[((s.end_s / width_s) as usize).min(k - 1)].push(*s);
    }
    parts
        .iter()
        .map(|part| {
            let from = part
                .iter()
                .map(|s| s.wall_s - s.latency_ms / 1e3)
                .fold(f64::INFINITY, f64::min);
            let to = part.iter().map(|s| s.wall_s).fold(0.0, f64::max);
            Slice {
                latency_ms: part.iter().map(|s| s.latency_ms).collect(),
                width_s,
                steal: steal.share(from, to),
            }
        })
        .collect()
}

/// CPU time the hypervisor has taken from this machine (the `steal`
/// column of `/proc/stat`), summed over CPUs, in seconds; 0 where the
/// kernel does not report it.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let cpu = text.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        // `/proc/stat` counts in USER_HZ, which Linux fixes at 100.
        .map_or(0.0, |ticks| ticks / 100.0)
}

fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// Steal time sampled through a timed phase.
pub struct StealLog {
    /// (s since the phase began, [`steal_s`]).
    points: Vec<(f64, f64)>,
}

impl StealLog {
    /// Run `f(start)` while a thread samples [`steal_s`] every 20 ms.
    pub fn record<R>(f: impl FnOnce(Instant) -> R) -> (R, StealLog) {
        let done = AtomicBool::new(false);
        let start = Instant::now();
        std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut points = vec![(0.0, steal_s())];
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                    points.push((start.elapsed().as_secs_f64(), steal_s()));
                }
                points
            });
            let out = f(start);
            done.store(true, Ordering::Relaxed);
            let points = sampler.join().expect("steal sampler panicked");
            (out, StealLog { points })
        })
    }

    fn at(&self, t: f64) -> f64 {
        let i = self.points.partition_point(|&(pt, _)| pt <= t);
        match (i.checked_sub(1).map(|j| self.points[j]), self.points.get(i)) {
            (Some((t0, s0)), Some(&(t1, s1))) => s0 + (s1 - s0) * (t - t0) / (t1 - t0),
            (Some((_, s)), None) => s,
            (None, Some(&(_, s))) => s,
            (None, None) => 0.0,
        }
    }

    /// Share of the machine's CPU time stolen between `from` and `to`.
    pub fn share(&self, from: f64, to: f64) -> f64 {
        if to <= from {
            return 0.0;
        }
        (self.at(to) - self.at(from)) / ((to - from) * cpus())
    }
}

/// Run one set-up; returns its result, its duration in seconds and the
/// share of CPU time stolen meanwhile.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, [f64; 2]), String> {
    let (steal0, t0) = (steal_s(), Instant::now());
    let out = f()?;
    let took = t0.elapsed().as_secs_f64();
    Ok((out, [took, (steal_s() - steal0) / (took * cpus())]))
}

/// Steal share below which a slice or set-up counts as undisturbed.
const QUIET_STEAL: f64 = 0.01;

/// The items the hypervisor left alone (steal share under 1%), or, when
/// fewer than `at_least` were, the `at_least` with the least steal.
pub fn least_stolen<T: Clone>(items: &[T], steal: impl Fn(&T) -> f64, at_least: usize) -> Vec<T> {
    let quiet: Vec<T> = items
        .iter()
        .filter(|x| steal(x) < QUIET_STEAL)
        .cloned()
        .collect();
    if quiet.len() >= at_least {
        return quiet;
    }
    let mut sorted = items.to_vec();
    sorted.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    sorted.truncate(at_least.max(1));
    sorted
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn slices_split_the_window_evenly() {
        let samples: Vec<Sample> = (1..=100)
            .map(|i| Sample {
                end_s: i as f64 / 10.0,
                wall_s: i as f64 / 10.0,
                latency_ms: if i <= 50 { 1.0 } else { 3.0 },
            })
            .collect();
        let steal = StealLog {
            points: vec![(0.0, 0.0), (5.0, 0.0), (10.0, 5.0 * cpus())],
        };
        let s = slices(&samples, 2, &steal);
        assert_eq!(s.len(), 2);
        // 10 s window, 5 s slices; the first holds ops 1..=49, the second 50..=100.
        assert!((s[0].throughput(2.0) - 49.0 * 2.0 / 5.0).abs() < 1e-9);
        assert_eq!(median(&s[0].latency_ms), 1.0);
        assert_eq!(quantile(&s[1].latency_ms, 0.9), 3.0);
        assert_eq!(s[0].steal, 0.0);
        assert!((s[1].steal - 1.0).abs() < 0.01);
        let kept = least_stolen(&s, |x| x.steal, 1);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].latency_ms.len(), 49);
        // With too few quiet slices, the least-stolen ones fill up.
        assert_eq!(least_stolen(&s, |x| x.steal, 2).len(), 2);
        assert_eq!(least_stolen(&[0.0, 0.001, 0.5], |x| *x, 1), [0.0, 0.001]);
    }

    #[test]
    fn own_peak_rss_and_steal_are_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        let ((), log) = StealLog::record(|_| std::thread::sleep(Duration::from_millis(50)));
        assert!(log.points.len() >= 2);
        assert!(log.share(0.0, 0.05) >= 0.0);
    }
}
