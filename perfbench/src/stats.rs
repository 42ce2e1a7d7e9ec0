//! Small statistics helpers and the seeded generator the inputs come from.

use std::time::Duration;

/// Nearest-rank quantile of `v` (sorted in place). `f64::INFINITY`
/// entries sort last, so a failed request counts as missing any limit.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v`, sorting it in place.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `splitmix64`: the benchmark's only source of randomness, so a seed
/// fully determines every input, arrival time, and model choice.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.unit()).ln() / rate)
    }
}

/// Peak resident set size of this process in MB (`ru_maxrss`, the same
/// high-water mark `/proc/self/status` reports as VmHWM).
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut r = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `Rusage` matches the LP64 Linux `struct rusage` layout and
    // getrusage only writes within it. RUSAGE_SELF = 0.
    let rc = unsafe { getrusage(0, &mut r) };
    if rc == 0 {
        r.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}
