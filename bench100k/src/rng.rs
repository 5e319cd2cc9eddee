//! Seeded randomness on the repository's `rand` (`StdRng`), plus what it
//! lacks: independent sub-streams, unit draws, shuffles and a Zipf
//! sampler. All are deterministic functions of the seed, so a workload's
//! request sequence is reproducible from `--seed` alone.

use rand::{Rng as _, RngCore, SeedableRng};

pub use rand::rngs::StdRng as Rng;

/// An independent generator for sub-stream `stream` of `seed` (one per
/// client connection, per write round, ...), so adding a stream does not
/// shift the draws of the others. The sub-stream's seed is the first
/// output of a generator keyed by both: `StdRng` seeds that differ by a
/// multiple of its increment would otherwise yield shifted copies of one
/// stream.
pub fn fork(seed: u64, stream: u64) -> Rng {
    let key = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
    Rng::seed_from_u64(Rng::seed_from_u64(key).next_u64())
}

/// Uniform in `0..n` (`n > 0`).
pub fn below(rng: &mut Rng, n: usize) -> usize {
    rng.gen_range(0..n)
}

/// Uniform in `[0, 1)`.
pub fn unit(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Shuffles `v` uniformly (Fisher–Yates).
pub fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, below(rng, i + 1));
    }
}

/// A uniformly random permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut p);
    p
}

/// Zipf over ranks `0..n` with exponent `s`: rank `k` has weight
/// `1/(k+1)^s`. Sampling inverts the cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.quantile(unit(rng))
    }

    /// The rank at cumulative probability `u` in `[0, 1)`.
    pub fn quantile(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `n` stratified draws: the `k`-th falls in the `k`-th of `n` equal
    /// slices of probability, and the draws are then shuffled. Each draw
    /// is still Zipf-distributed; stratifying only removes sampling
    /// noise from how many requests repeat a name.
    pub fn stratified(&self, n: usize, rng: &mut Rng) -> Vec<usize> {
        let mut ranks: Vec<usize> = (0..n)
            .map(|k| self.quantile((k as f64 + unit(rng)) / n as f64))
            .collect();
        shuffle(rng, &mut ranks);
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forks_are_deterministic_and_independent() {
        let (mut a, mut b) = (fork(7, 0), fork(7, 0));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(fork(7, 0).next_u64(), fork(8, 0).next_u64());
        assert_ne!(fork(7, 0).next_u64(), fork(7, 1).next_u64());
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = fork(1, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        let top10 = draws.iter().filter(|&&d| d < 10).count();
        assert!(top10 > 4_000, "top-10 ranks drew {top10} of 10000");
    }

    #[test]
    fn stratified_draws_barely_depend_on_the_seed() {
        let z = Zipf::new(1000, 1.5);
        let sorted = |seed| {
            let mut v = z.stratified(300, &mut fork(seed, 0));
            v.sort_unstable();
            v
        };
        let (a, b) = (sorted(1), sorted(2));
        assert_eq!(a.len(), 300);
        let hot = |v: &[usize]| v.iter().filter(|&&r| r == 0).count();
        assert!(hot(&a).abs_diff(hot(&b)) <= 1, "{} vs {}", hot(&a), hot(&b));
        assert_ne!(
            z.stratified(300, &mut fork(1, 0)),
            z.stratified(300, &mut fork(2, 0))
        );
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(&mut fork(3, 0), 500);
        p.sort_unstable();
        assert_eq!(p, (0..500).collect::<Vec<_>>());
    }
}
