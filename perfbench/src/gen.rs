//! Seeded input generation: every ω list and arrival schedule a workload
//! feeds the program is derived from the run's `--seed` here, so the same
//! seed always yields the same inputs and the program sees only those.

use mgd_field::{Sobol, OMEGA_RANGE};

/// SplitMix64: a tiny, well-mixed generator that needs no dependency.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed; distinct
    /// streams of the same seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate (inter-arrival gap of a Poisson
    /// process).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.uniform()).ln() / rate
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Stream identifiers, one per kind of generated input.
pub mod stream {
    pub const HOT_SET: u64 = 1;
    pub const UNIQUE: u64 = 2;
    pub const MIX: u64 = 3;
    pub const ARRIVALS: u64 = 4;
    pub const SAMPLE: u64 = 5;
}

/// One ω drawn uniformly from the paper's parameter box.
pub fn omega(rng: &mut Rng, modes: usize) -> Vec<f64> {
    let (lo, hi) = OMEGA_RANGE;
    (0..modes).map(|_| lo + (hi - lo) * rng.uniform()).collect()
}

/// `n` independent uniform ω vectors from one stream of `seed`.
pub fn omegas(seed: u64, stream: u64, n: usize, modes: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| omega(&mut rng, modes)).collect()
}

/// A contiguous block of `n` Sobol points in the parameter box; the seed
/// picks which block, so every seed trains on its own low-discrepancy set.
pub fn sobol_omegas(seed: u64, n: usize, modes: usize) -> Vec<Vec<f64>> {
    let mut sobol = Sobol::new(modes);
    let skip = (seed % 1024) as usize * n;
    for _ in 0..skip {
        sobol.next_point();
    }
    sobol.take_in_box(n, OMEGA_RANGE.0, OMEGA_RANGE.1)
}

/// Send offsets (seconds from the schedule start) of an open-loop Poisson
/// arrival process at `rate` requests per second, up to `horizon_s`; each
/// `window` of a run has a schedule of its own.
pub fn poisson_arrivals(seed: u64, window: u64, rate: f64, horizon_s: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, stream::ARRIVALS + 100 * window);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exponential(rate);
        if t >= horizon_s {
            return out;
        }
        out.push(t);
    }
}

/// A request mix: each request is, with probability `hot_share`, one of
/// the `hot.len()` hot ω (uniformly), otherwise a fresh unique ω. Returns
/// the ω and whether it came from the hot set. Mixes of different `lane`s
/// share the hot set and draw their own picks and unique ω.
pub struct RequestMix {
    hot: Vec<Vec<f64>>,
    hot_share: f64,
    pick: Rng,
    unique: Rng,
    modes: usize,
}

impl RequestMix {
    pub fn new(seed: u64, lane: u64, hot_set: usize, hot_share: f64, modes: usize) -> Self {
        RequestMix {
            hot: omegas(seed, stream::HOT_SET, hot_set, modes),
            hot_share,
            pick: Rng::new(seed, stream::MIX + 100 * lane),
            unique: Rng::new(seed, stream::UNIQUE + 100 * lane),
            modes,
        }
    }

    pub fn next_request(&mut self) -> (Vec<f64>, bool) {
        if self.pick.uniform() < self.hot_share {
            let i = self.pick.below(self.hot.len());
            (self.hot[i].clone(), true)
        } else {
            (omega(&mut self.unique, self.modes), false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omega_lists_are_seed_deterministic() {
        assert_eq!(
            omegas(7, stream::UNIQUE, 32, 4),
            omegas(7, stream::UNIQUE, 32, 4)
        );
        assert_ne!(
            omegas(7, stream::UNIQUE, 32, 4),
            omegas(8, stream::UNIQUE, 32, 4)
        );
        assert_ne!(
            omegas(7, stream::UNIQUE, 32, 4),
            omegas(7, stream::HOT_SET, 32, 4)
        );
        let (lo, hi) = OMEGA_RANGE;
        for w in omegas(3, stream::UNIQUE, 100, 4).iter().flatten() {
            assert!((lo..hi).contains(w));
        }
    }

    #[test]
    fn sobol_blocks_are_seed_deterministic() {
        assert_eq!(sobol_omegas(5, 16, 4), sobol_omegas(5, 16, 4));
        assert_ne!(sobol_omegas(5, 16, 4), sobol_omegas(6, 16, 4));
        assert_eq!(sobol_omegas(5, 16, 4).len(), 16);
    }

    #[test]
    fn arrival_schedules_are_seed_deterministic_and_sorted() {
        let a = poisson_arrivals(11, 0, 100.0, 5.0);
        assert_eq!(a, poisson_arrivals(11, 0, 100.0, 5.0));
        assert_ne!(a, poisson_arrivals(12, 0, 100.0, 5.0));
        assert_ne!(a, poisson_arrivals(11, 1, 100.0, 5.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        // 500 expected arrivals; a Poisson count stays well inside ±20%.
        assert!((400..600).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn request_mix_is_seed_deterministic() {
        let draw = |seed, lane| {
            let mut m = RequestMix::new(seed, lane, 48, 0.5, 4);
            (0..200).map(|_| m.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3, 0), draw(3, 0));
        assert_ne!(draw(3, 0), draw(4, 0));
        assert_ne!(draw(3, 0), draw(3, 1));
        let hot = draw(3, 0).iter().filter(|(_, h)| *h).count();
        assert!((60..140).contains(&hot), "{hot}");
    }
}
