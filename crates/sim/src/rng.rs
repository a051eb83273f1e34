//! Deterministic randomness.
//!
//! Every stochastic element of the simulation (ADC noise, page-size jitter,
//! network loss, scheduling jitter) draws from a [`SimRng`] derived from the
//! experiment seed. Independent subsystems derive independent *streams* by
//! label, so adding a consumer in one subsystem does not perturb another.
//!
//! The core generator is xoshiro256++ (Blackman & Vigna) with its state
//! seeded by splitmix64, not the ChaCha12 behind upstream `rand`'s
//! `StdRng`, so streams differ from upstream's. They are deterministic per
//! seed; the artifacts and fingerprints depend on them, and the
//! `streams_are_pinned` test holds them in place.

use std::sync::OnceLock;

/// A seedable random stream; children derive from it by label.
///
/// An in-tree xoshiro256++ core plus the handful of distributions the
/// simulators need (Gaussian, log-normal, exponential).
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Root stream for an experiment seed.
    pub fn new(seed: u64) -> Self {
        // splitmix64 run as a generator from `seed`: its k-th output is
        // `splitmix(seed + k·γ)`, since `splitmix` adds γ itself.
        let state = [0u64, 1, 2, 3].map(|k| splitmix(seed.wrapping_add(k.wrapping_mul(GOLDEN))));
        SimRng { state, seed }
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// The child's seed is a stable hash of the parent seed and the label,
    /// so derivation order does not matter and streams never alias unless
    /// labels collide.
    pub fn derive(&self, label: &str) -> SimRng {
        SimRng::new(splitmix(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// Stream `index` of the family keyed by `key`: a numeric derivation
    /// with no label hashing, for hot paths that open many independent
    /// streams (the Monsoon's per-block noise). Pure in `(key, index)`.
    pub fn keyed(key: u64, index: u64) -> SimRng {
        SimRng::new(splitmix(key ^ splitmix(index)))
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// 64 uniformly random bits: one xoshiro256++ step.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        xoshiro_step(&mut self.state)
    }

    /// Uniform in `[0, 1)`: the top 53 bits of one word.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() on empty range");
        // Multiply-shift (Lemire) without rejection: the bias is below n / 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Standard normal by an exact 256-layer Ziggurat (Marsaglia & Tsang;
    /// Doornik's layout, one 64-bit word giving both the layer and the
    /// abscissa). About 99 % of draws cost one `u64` and one table
    /// compare; only the wedge and the base-strip tail evaluate `exp` or
    /// `ln`.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let mut state = self.state;
        let z = self.standard_normal_from(&mut state, ziggurat());
        self.state = state;
        z
    }

    /// [`Self::standard_normal`] drawing from `state`, the caller's copy
    /// of the stream held in locals, on tables the caller already holds:
    /// a fill keeps the state in registers and reads the `OnceLock`
    /// once. `self.state` is stale on entry and exit; the rare branches
    /// outside the core draw through `self`, so the copy is written
    /// back before them and reloaded after.
    #[inline(always)]
    fn standard_normal_from(&mut self, state: &mut [u64; 4], zig: &Ziggurat) -> f64 {
        loop {
            let bits = xoshiro_step(state);
            let i = (bits & 0xff) as usize;
            // Signed abscissa in [-1, 1) from the top 52 bits: a double in
            // [2, 4) built by its bit pattern, shifted down by 3.
            let u = f64::from_bits(0x4000_0000_0000_0000 | bits >> 12) - 3.0;
            let x = u * zig.x[i];
            if x.abs() < zig.x[i + 1] {
                return x;
            }
            self.state = *state;
            let outside = self.normal_outside_core(zig, i, u, x);
            *state = self.state;
            if let Some(z) = outside {
                return z;
            }
        }
    }

    /// The rare Ziggurat branches: the base strip's tail beyond `R` and
    /// the wedge between two layer rectangles. `None` rejects the draw.
    #[cold]
    fn normal_outside_core(&mut self, zig: &Ziggurat, i: usize, u: f64, x: f64) -> Option<f64> {
        if i == 0 {
            // Marsaglia's tail method: exact for |Z| > R.
            loop {
                let a = -self.open_unit().ln() / ZIG_R;
                let b = -self.open_unit().ln();
                if 2.0 * b > a * a {
                    return Some(if u < 0.0 { -(ZIG_R + a) } else { ZIG_R + a });
                }
            }
        }
        let y = zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * self.unit();
        (y < (-0.5 * x * x).exp()).then_some(x)
    }

    /// Uniform in `(0, 1)`: never 0, so its logarithm is finite.
    fn open_unit(&mut self) -> f64 {
        loop {
            let u = self.unit();
            if u > 0.0 {
                break u;
            }
        }
    }

    /// Fill `out` with standard normals, consuming the stream exactly as
    /// the same number of [`Self::standard_normal`] calls would. Always
    /// inlined, so the loop compiles with its caller's target features.
    #[inline(always)]
    pub fn fill_standard_normal(&mut self, out: &mut [f64]) {
        let zig = ziggurat();
        let mut state = self.state;
        for z in out {
            *z = self.standard_normal_from(&mut state, zig);
        }
        self.state = state;
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Normal clamped to `[lo, hi]` — used for physical quantities that
    /// cannot go negative (currents, sizes, delays).
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
        self.normal(mean, std_dev).clamp(lo, hi)
    }

    /// Log-normal parameterised by the *target* median and a multiplicative
    /// spread sigma (sigma of the underlying normal in log-space).
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        (median.max(f64::MIN_POSITIVE).ln() + self.normal(0.0, sigma)).exp()
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * self.open_unit().ln()
    }
}

/// Right edge `R` of the base strip of the 256-layer normal Ziggurat.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Common area `V` of every layer under `f(x) = exp(-x²/2)`:
/// `R·f(R) + ∫_R^∞ f(x) dx`.
const ZIG_V: f64 = 4.928_673_233_974_658e-3;

/// Layer abscissae `x[0] > x[1] = R > … > x[256] = 0` and the density at
/// each, `f[i] = exp(-x[i]²/2)`. Layer `i ≥ 1` is the rectangle
/// `[0, x[i]] × [f[i], f[i + 1]]`; layer 0 is the base strip
/// `[0, V/f(R)] × [0, f(R)]`, whose part beyond `R` stands in for the
/// tail.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

/// The tables, built once per process on first use.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 257];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..255 {
            x[i + 1] = (-2.0 * (ZIG_V / x[i] + pdf(x[i])).ln()).sqrt();
        }
        Ziggurat { x, f: x.map(pdf) }
    })
}

/// One xoshiro256++ step on `s`, returning its output word.
#[inline(always)]
fn xoshiro_step(s: &mut [u64; 4]) -> u64 {
    let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// splitmix64's increment γ, the golden ratio in 64-bit fixed point.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn derive_is_order_independent() {
        let root = SimRng::new(42);
        let mut x1 = root.derive("monsoon");
        let _ = root.derive("device");
        let mut x2 = SimRng::new(42).derive("monsoon");
        for _ in 0..50 {
            assert_eq!(x1.unit().to_bits(), x2.unit().to_bits());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let root = SimRng::new(1);
        let mut a = root.derive("a");
        let mut b = root.derive("b");
        let same = (0..32)
            .filter(|_| a.unit().to_bits() == b.unit().to_bits())
            .count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn ziggurat_layers_close_with_equal_areas() {
        let zig = ziggurat();
        // Every layer rectangle holds the same area V, the topmost one
        // (up to the density's peak) included — the recursion closes.
        for i in 1..256 {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!((area / ZIG_V - 1.0).abs() < 1e-9, "layer {i} area {area}");
        }
        assert_eq!(zig.x[256], 0.0);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "x not decreasing");
    }

    #[test]
    fn ziggurat_tails_match_the_normal() {
        // Two-sided tail mass P(|Z| > k) = erfc(k/√2), past R = 3.654
        // too, where the base-strip tail sampler runs.
        const TAILS: [(f64, f64); 7] = [
            (1.0, 0.317_310_507_862_914_15),
            (2.0, 0.045_500_263_896_358_44),
            (3.0, 0.002_699_796_063_260_191),
            (3.5, 4.652_581_580_710_501e-4),
            (3.7, 2.155_994_669_547_764_6e-4),
            (4.0, 6.334_248_366_623_993e-5),
            (4.5, 6.795_346_249_460_123e-6),
        ];
        let n = 4_000_000u64;
        let mut rng = SimRng::new(2019).derive("ziggurat");
        let mut above = [0u64; TAILS.len()];
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = rng.standard_normal();
            sum += z;
            sum_sq += z * z;
            for (count, &(k, _)) in above.iter_mut().zip(&TAILS) {
                *count += u64::from(z.abs() > k);
            }
        }
        for (&count, &(k, p)) in above.iter().zip(&TAILS) {
            let expected = n as f64 * p;
            let z = (count as f64 - expected) / (expected * (1.0 - p)).sqrt();
            assert!(
                z.abs() < 4.0,
                "P(|Z| > {k}): {count} vs {expected:.1} (z = {z:.2})"
            );
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 3e-3, "mean {mean}");
        assert!((var - 1.0).abs() < 4e-3, "variance {var}");
    }

    #[test]
    fn fill_matches_repeated_calls() {
        let mut a = SimRng::new(23).derive("noise");
        let mut b = SimRng::new(23).derive("noise");
        let mut filled = [0.0f64; 1000];
        a.fill_standard_normal(&mut filled);
        for (i, z) in filled.iter().enumerate() {
            assert_eq!(z.to_bits(), b.standard_normal().to_bits(), "draw {i}");
        }
        // Both streams stand at the same position afterwards.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn streams_are_pinned() {
        // Literal stream values: every committed artifact and benchmark
        // fingerprint rests on these staying put.
        let mut root = SimRng::new(20191113);
        let words: Vec<u64> = (0..4).map(|_| root.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xc676_5cf8_36ec_1208,
                0x151f_d65f_95a9_37df,
                0x9a23_3847_3c67_20c2,
                0xbe4b_c2d1_1a48_d4be,
            ]
        );
        let mut monsoon = SimRng::new(20191113).derive("monsoon");
        let units: Vec<u64> = (0..4).map(|_| monsoon.unit().to_bits()).collect();
        assert_eq!(
            units,
            [
                0x3fe4_7c77_cb6f_41d4,
                0x3fe3_c145_ae80_a901,
                0x3fe8_2db3_717b_0d9e,
                0x3fe2_b88c_073c_bc4b,
            ]
        );
        let mut keyed = SimRng::keyed(7, 3);
        let picks: Vec<usize> = (0..12).map(|_| keyed.index(10)).collect();
        assert_eq!(picks, [2, 7, 0, 9, 0, 6, 1, 3, 6, 5, 2, 8]);
    }

    #[test]
    fn normals_are_pinned() {
        // Literal normal-stream values: a 10 000-draw fill (which takes
        // the wedge and, twice, the tail beyond R, both of which draw
        // through the stream outside the fill's locals), one more draw
        // and the stream position after them.
        let mut rng = SimRng::new(20191113).derive("noise");
        let mut z = vec![0.0f64; 10_000];
        rng.fill_standard_normal(&mut z);
        assert_eq!(z.iter().filter(|v| v.abs() > ZIG_R).count(), 2);
        let digest = z.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        });
        assert_eq!(digest, 0x02a6_0a36_0ece_3150);
        assert_eq!(rng.standard_normal().to_bits(), 0x4003_9376_ff1a_d619);
        assert_eq!(rng.next_u64(), 0x3cef_e184_2449_e014);
    }

    #[test]
    fn index_reaches_every_value_and_never_n() {
        let mut rng = SimRng::new(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let i = rng.index(10);
            assert!(i < 10, "index(10) returned {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..10 reachable");
    }

    #[test]
    fn chance_edges() {
        let mut rng = SimRng::new(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-3.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(11);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn normal_clamped_respects_bounds() {
        let mut rng = SimRng::new(8);
        for _ in 0..1000 {
            let x = rng.normal_clamped(0.0, 10.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }
}
