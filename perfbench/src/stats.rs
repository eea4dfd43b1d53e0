//! Small helpers shared by the phases: output digests, seeded index
//! selection and latency distributions.

/// FNV-1a, the same 64-bit hash the pipeline uses for its pair digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// SplitMix64: a seeded, dependency-free stream for picking samples.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `k` distinct indices below `n`, chosen by `seed`, in ascending order.
pub fn pick(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + (mix(seed, i as u64) % (n - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile levels a tail is reported at, highest first.
const LEVELS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Per-item latency samples (µs), each tagged with the item it timed.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    pub samples: Vec<(f64, usize)>,
}

impl Latencies {
    pub fn push(&mut self, us: f64, item: usize) {
        self.samples.push((us, item));
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.0).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn quantile(&self, q: f64) -> f64 {
        percentile(&self.sorted(), q)
    }

    pub fn total_us(&self) -> f64 {
        self.samples.iter().map(|s| s.0).sum()
    }

    /// The highest percentile level with at least ten samples beyond it,
    /// and its value; `None` below ten samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.samples.len() as f64;
        let level = LEVELS.into_iter().find(|p| n * (1.0 - p) >= 10.0)?;
        Some((level, self.quantile(level)))
    }

    /// The `k` slowest items, slowest first.
    pub fn slowest(&self, k: usize) -> Vec<(f64, usize)> {
        let mut v = self.samples.clone();
        v.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        v.truncate(k);
        v
    }

    /// One summary line: count, p50 and the supported tail percentile.
    pub fn summary(&self) -> String {
        let tail = match self.tail() {
            Some((p, v)) => format!("p{} {v:.1}us", p * 100.0),
            None => "tail n/a (<10 samples beyond any level)".to_string(),
        };
        format!(
            "n {} | p50 {:.1}us | {tail}",
            self.samples.len(),
            self.quantile(0.5)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_needs_ten_samples_beyond_it() {
        let mut l = Latencies::default();
        for i in 0..200 {
            l.push(i as f64, i);
        }
        // 200 × (1 − 0.95) = 10 samples beyond p95; p99 would leave 2.
        assert_eq!(l.tail().map(|t| t.0), Some(0.95));
        assert_eq!(l.quantile(0.5), 99.0);
        assert_eq!(l.slowest(2), vec![(199.0, 199), (198.0, 198)]);
        let few = Latencies {
            samples: vec![(1.0, 0); 9],
        };
        assert!(few.tail().is_none());
    }

    #[test]
    fn pick_is_seeded_distinct_and_bounded() {
        let a = pick(7, 100, 10);
        assert_eq!(a, pick(7, 100, 10));
        assert_ne!(a, pick(8, 100, 10));
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[9] < 100);
        assert_eq!(pick(1, 3, 10), vec![0, 1, 2]);
    }
}
