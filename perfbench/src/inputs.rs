//! Seeded input generation. The seed reaches the program only through the
//! matrices and right-hand sides built here.

use amgt_sparse::suite::{self, Scale};
use amgt_sparse::Csr;

/// SplitMix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
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

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.index(i + 1));
        }
    }

    /// Vector of `n` entries uniform in `[-1, 1)`.
    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.range(-1.0, 1.0)).collect()
    }
}

/// One system of a workload: `A x = b` with `b = A x*` for a random `x*`.
pub struct System {
    pub name: &'static str,
    pub a: Csr,
    pub b: Vec<f64>,
}

/// The Table II stand-in `name` at the benchmark's scale.
pub fn stand_in(name: &str) -> Csr {
    suite::generate(name, Scale::Small).expect("suite stand-in names are fixed in the benchmark")
}

/// Systems for the named stand-ins with seeded right-hand sides.
pub fn systems(names: &[&'static str], rng: &mut Rng) -> Vec<System> {
    names
        .iter()
        .map(|&name| {
            let a = stand_in(name);
            let x_star = rng.vector(a.ncols());
            let b = crate::check::matvec(&a, &x_star);
            System { name, a, b }
        })
        .collect()
}

/// All 16 Table II stand-in names.
pub fn suite_names() -> Vec<&'static str> {
    suite::entries().iter().map(|e| e.name).collect()
}
