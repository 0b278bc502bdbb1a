//! Seeded randomness, the Zipf sampler, percentiles, and the open-loop
//! schedule: everything numeric the workloads share, kept free of I/O so
//! it can be unit-tested.

use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// fixes every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) popularity over ranks `0..n`: rank `r` is drawn with
/// probability proportional to `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
/// Returns 0 for an empty slice so a workload with no samples reports a
/// failure through its tally, not a panic.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `p`-th percentile's rank: how much
/// evidence a tail percentile rests on.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// A fixed-rate open-loop schedule shared by several senders: request `i`
/// is due at `i / rate` after the start whether or not earlier requests
/// have completed, and sender `j` of `senders` owns the requests with
/// `i % senders == j`.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    pub rate_per_s: f64,
    pub senders: usize,
}

/// What the schedule says about one request after it completed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenLoopSample {
    /// Completion minus the *due* time: a stall is charged to every
    /// request it delayed, not only to the one that hit it.
    pub latency: Duration,
    /// Send minus due time: how late the generator itself ran.
    pub lateness: Duration,
}

impl OpenLoop {
    /// Offset from the window start at which request `i` is due.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }

    /// The requests sender `j` owns, in due order.
    pub fn owned_by(&self, j: usize) -> impl Iterator<Item = u64> {
        (j as u64..).step_by(self.senders)
    }

    /// `due`, `sent` and `done` are offsets from the window start.
    pub fn account(due: Duration, sent: Duration, done: Duration) -> OpenLoopSample {
        OpenLoopSample { latency: done.saturating_sub(due), lateness: sent.saturating_sub(due) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!((0..1000).all(|_| a.below(10) < 10));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&a.unit())));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(1);
        let mut counts = vec![0u32; 1000];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // p(0)/p(1) = 2^1.1 ≈ 2.14; allow sampling noise.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.8..2.5).contains(&ratio), "rank0/rank1 = {ratio}");
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        let head: u32 = counts[..10].iter().sum();
        assert!(head > 50_000 / 3, "top 10 of 1000 ranks hold {head} of 50000 draws");
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.1);
        assert_eq!(z.sample(&mut Rng::new(3)), 0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(samples_beyond(2400, 99.0), 24);
        assert_eq!(samples_beyond(80, 90.0), 8);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn open_loop_due_times_ignore_completions() {
        let ol = OpenLoop { rate_per_s: 100.0, senders: 2 };
        assert_eq!(ol.due(0), Duration::ZERO);
        assert_eq!(ol.due(150), Duration::from_millis(1500));
        assert_eq!(ol.owned_by(0).take(3).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(ol.owned_by(1).take(3).collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let ms = Duration::from_millis;
        // On time: latency is the service time, lateness zero.
        let s = OpenLoop::account(ms(100), ms(100), ms(103));
        assert_eq!(s, OpenLoopSample { latency: ms(3), lateness: ms(0) });
        // The previous request stalled 50 ms past this one's due time:
        // the 50 ms count as both generator lateness and client latency.
        let s = OpenLoop::account(ms(100), ms(150), ms(153));
        assert_eq!(s, OpenLoopSample { latency: ms(53), lateness: ms(50) });
        // A sender woken a hair early is never credited negative time.
        let s = OpenLoop::account(ms(100), ms(99), ms(102));
        assert_eq!(s, OpenLoopSample { latency: ms(2), lateness: ms(0) });
    }
}
