//! Seed-determined inputs: instance pools and operation lists.
//!
//! Every run is a fixed list of operations drawn from `--seed`; the
//! program under test only ever sees the generated instances. The same
//! seed gives byte-identical request bodies, the same operation order and
//! hence the same counts and quality figures; only timings vary.

use spp_core::hash::SplitMix64;
use spp_core::InstanceDigest;
use spp_dag::PrecInstance;
use spp_gen::suite::{self, FAMILIES};

/// Instance sizes of the `serve-hit` pool (and of the `fileio.*` metrics).
pub const HIT_SIZES: [usize; 3] = [12, 64, 256];

/// Instance size of the `serve-anytime` pool.
pub const ANYTIME_N: usize = 160;

/// Instance size of the `batch-cold` jobs.
pub const BATCH_N: usize = 128;

/// Jobs per `batch-cold` lease: one of each family.
pub const BATCH_CHUNK: usize = FAMILIES.len();

/// Solvers every `batch-cold` job is paired with: two `spp-pack`
/// packers, the paper's `dc-nfdh` (Thm 2.3) and three more
/// `spp-precedence` heuristics, and two `spp-release` solvers including
/// the paper's `aptas` (Thm 3.5).
pub const BATCH_SOLVERS: [&str; 8] = [
    "nfdh",
    "skyline",
    "dc-nfdh",
    "layered",
    "greedy",
    "combined-greedy",
    "skyline-release",
    "aptas",
];

/// One instance of a serving pool, with the request it travels in.
pub struct PoolEntry {
    pub name: String,
    pub n: usize,
    pub solver: &'static str,
    pub prec: PrecInstance,
    /// The canonical `spp-instance` document sent as the request body.
    pub body: String,
    pub digest: InstanceDigest,
}

/// The solver a serving client picks for an instance: `dc-nfdh` under
/// precedence, `skyline-release` under release times, `skyline` otherwise.
pub fn solver_for(prec: &PrecInstance) -> &'static str {
    if prec.dag.edge_count() > 0 {
        "dc-nfdh"
    } else if prec.inst.items().iter().any(|it| it.release > 0.0) {
        "skyline-release"
    } else {
        "skyline"
    }
}

fn pool(seed: u64, n: usize, count: usize) -> Vec<PoolEntry> {
    suite::suite(seed, n, count)
        .into_iter()
        .map(|sc| {
            let body = spp_gen::fileio::to_json(&sc.prec);
            PoolEntry {
                name: format!("{}@n{n}", sc.name),
                n,
                solver: solver_for(&sc.prec),
                digest: spp_gen::fileio::digest(&sc.prec),
                prec: sc.prec,
                body,
            }
        })
        .collect()
}

/// `serve-hit`: four instances of every family at every size in
/// [`HIT_SIZES`], less the repeats of the deterministic
/// `skyline-adversary` instance — 87 distinct keys.
pub fn hit_pool(seed: u64) -> Vec<PoolEntry> {
    let mut seen = std::collections::HashSet::new();
    HIT_SIZES
        .iter()
        .flat_map(|&n| pool(seed, n, 4 * FAMILIES.len()))
        .filter(|e| seen.insert(e.digest))
        .collect()
}

/// `serve-anytime`: four instances of every family at [`ANYTIME_N`].
/// `skyline-adversary` is a deterministic construction, so its four
/// entries are identical; the requests still differ by `improve_seed`.
pub fn anytime_pool(seed: u64) -> Vec<PoolEntry> {
    pool(seed, ANYTIME_N, 4 * FAMILIES.len())
}

/// `count` pool indices below `len`, drawn from the seed.
pub fn op_indices(seed: u64, tag: u64, len: usize, count: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ tag);
    (0..count)
        .map(|_| rng.next_below(len as u64) as usize)
        .collect()
}

/// Operations in a run: the workload's nominal rate on the reference
/// machine times `--seconds`, so the list is fixed by the arguments
/// alone and a run measures about `--seconds` of work there.
pub fn op_count(nominal_per_s: f64, seconds: u64) -> usize {
    ((nominal_per_s * seconds as f64).round() as usize).max(1)
}

/// Split operations `0..ops` into `rounds` contiguous ranges of nearly
/// equal length, the longer ones first.
pub fn segments(ops: usize, rounds: usize) -> Vec<std::ops::Range<usize>> {
    let rounds = rounds.clamp(1, ops.max(1));
    let (base, extra) = (ops / rounds, ops % rounds);
    let mut start = 0;
    (0..rounds)
        .map(|r| {
            let len = base + usize::from(r < extra);
            start += len;
            start - len..start
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fixed_seed_gives_identical_op_lists_and_bodies() {
        assert_eq!(op_indices(9, 1, 24, 500), op_indices(9, 1, 24, 500));
        assert_ne!(op_indices(9, 1, 24, 500), op_indices(10, 1, 24, 500));
        let (a, b) = (hit_pool(9), hit_pool(9));
        assert!(a.iter().zip(&b).all(|(x, y)| x.body == y.body));
        assert!(op_indices(3, 2, 24, 1000).iter().all(|&i| i < 24));
    }

    #[test]
    fn segments_cover_every_operation_once() {
        assert_eq!(segments(10, 4), [0..3, 3..6, 6..8, 8..10]);
        assert_eq!(segments(2, 6), [0..1, 1..2]);
        assert_eq!(segments(0, 3).len(), 1);
        assert!(segments(0, 3)[0].is_empty());
    }

    #[test]
    fn hit_pool_digests_are_distinct() {
        let pool = hit_pool(5);
        assert_eq!(
            pool.len(),
            87,
            "three skyline-adversary repeats dropped per size"
        );
        let mut digests: Vec<u64> = pool.iter().map(|e| e.digest.as_u64()).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(
            digests.len(),
            87,
            "every serve-hit pool entry is its own key"
        );
        for e in &pool {
            assert_eq!(e.digest, spp_gen::fileio::digest(&e.prec));
        }
    }

    #[test]
    fn skyline_adversary_repeats_at_equal_n_and_nothing_else_does() {
        // The only duplicate content in a pool is the deterministic
        // skyline staircase; the cache sees those repeats as hits.
        let pool = anytime_pool(5);
        let mut digests: Vec<(u64, &str)> = pool
            .iter()
            .map(|e| (e.digest.as_u64(), e.name.as_str()))
            .collect();
        digests.sort_unstable();
        let dups: Vec<&str> = digests
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| w[1].1)
            .collect();
        assert_eq!(dups.len(), 3);
        assert!(dups.iter().all(|d| d.starts_with("skyline-adversary")));
    }

    #[test]
    fn solver_choice_follows_the_constraints() {
        let names: Vec<(String, &str)> = hit_pool(1)
            .into_iter()
            .filter(|e| e.n == 12)
            .map(|e| (e.name, e.solver))
            .collect();
        for (name, solver) in names {
            let want = match name.rsplit_once('-').unwrap().0 {
                "deep-chain" | "layered" | "random-dag" | "uniform-height" => "dc-nfdh",
                "bursty-release" | "poisson-release" => "skyline-release",
                _ => "skyline",
            };
            assert_eq!(solver, want, "{name}");
        }
    }
}
