//! Output checking: every solution the benchmark receives is re-verified
//! with a plain f64 CSR matvec that shares no code with the solver's
//! kernels, and tallied.

use amgt_sparse::Csr;
use std::collections::BTreeMap;

/// Relative-residual tolerance every solve runs to.
pub const TOL: f64 = 1e-8;

/// `y = A x` with one sequential f64 dot product per row.
pub fn matvec(a: &Csr, x: &[f64]) -> Vec<f64> {
    (0..a.nrows())
        .map(|r| {
            let (cols, vals) = a.row(r);
            cols.iter()
                .zip(vals)
                .map(|(&c, &v)| v * x[c as usize])
                .sum()
        })
        .collect()
}

/// `||b - A x|| / ||b||`; infinite when `x` has the wrong length or the
/// residual is not finite.
pub fn relative_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    if x.len() != a.ncols() || b.len() != a.nrows() {
        return f64::INFINITY;
    }
    let ax = matvec(a, x);
    let rr: f64 = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai).powi(2)).sum();
    let bb: f64 = b.iter().map(|v| v * v).sum();
    let rel = rr.sqrt() / bb.sqrt().max(f64::MIN_POSITIVE);
    if rel.is_finite() {
        rel
    } else {
        f64::INFINITY
    }
}

/// Solve outcomes of one run.
///
/// * `failed`: the solver did not report convergence, the recomputed
///   residual exceeds [`TOL`], or the job was refused or errored.
/// * `incorrect`: the solver *claimed* convergence but the recomputed
///   residual exceeds twice [`TOL`] — a wrong answer rather than an
///   honestly reported failure to converge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub incorrect: u64,
    /// Failure count per system label.
    pub failures: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// Check one solution of system `label`; returns the recomputed
    /// residual.
    pub fn record(
        &mut self,
        label: &'static str,
        claimed_converged: bool,
        a: &Csr,
        x: &[f64],
        b: &[f64],
    ) -> f64 {
        let rel = relative_residual(a, x, b);
        self.attempted += 1;
        if !claimed_converged || rel > TOL {
            self.failed += 1;
            *self.failures.entry(label).or_default() += 1;
        }
        if claimed_converged && rel > 2.0 * TOL {
            self.incorrect += 1;
        }
        rel
    }

    /// A request that produced no solution (refused or errored).
    pub fn record_error(&mut self, label: &'static str) {
        self.attempted += 1;
        self.failed += 1;
        *self.failures.entry(label).or_default() += 1;
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.incorrect += other.incorrect;
        for (label, n) in &other.failures {
            *self.failures.entry(label).or_default() += n;
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Prove the checker catches a wrong answer: an exact solution passes, the
/// same solution with one corrupted entry is counted as failed and, since
/// it claims convergence, as incorrect. Runs at the start of every
/// benchmark run; panics if the checker is broken.
pub fn self_test() {
    let a = amgt_sparse::gen::laplacian_2d(16, 16, amgt_sparse::gen::Stencil2d::Five);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 7) as f64 - 3.0).collect();
    let b = matvec(&a, &x);
    let mut t = Tally::default();
    t.record("exact", true, &a, &x, &b);
    assert_eq!(t.failed, 0, "checker rejected an exact solution");
    let mut bad = x.clone();
    bad[17] += 1e-3;
    t.record("corrupted", true, &a, &bad, &b);
    assert_eq!(
        (t.attempted, t.failed, t.incorrect),
        (2, 1, 1),
        "checker missed a corrupted solution"
    );
    bad[17] = f64::NAN;
    t.record("non-finite", false, &a, &bad, &b);
    assert_eq!((t.failed, t.incorrect), (2, 1), "non-finite solution");
}

#[cfg(test)]
mod tests {
    #[test]
    fn checker_counts_a_corrupted_solution() {
        super::self_test();
    }
}
