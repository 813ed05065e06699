//! Solver configuration, mirroring the HYPRE parameters of Section V.A.
//!
//! The paper fixes: PMIS coarsening (`str_thr = 0.25`, `max_row_sum = 0.8`,
//! `max_coarse_size = 3`), extended+i interpolation with truncation
//! (`trunc_fact = 0.1`, `max_elmts = 4`), L1-Jacobi smoothing (1 sweep),
//! at most 7 levels, and 50 solve iterations regardless of convergence.

use amgt_kernels::{ExecMode, KernelPolicy};
use serde::{Deserialize, Serialize};

/// Which kernel *format/algorithm family* the solver calls (the two bars of
/// Fig. 7): vendor-style CSR vs. the paper's mBSR tensor-core kernels.
///
/// Not to be confused with [`ExecMode`], the *execution substrate* either
/// family runs on (warp emulator vs. native rayon + SIMD). `--backend`
/// selects this; `--exec` selects the [`ExecMode`]. The two axes are
/// orthogonal and results are bitwise identical across [`ExecMode`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// HYPRE baseline: CSR kernels in the vendor-library style.
    Vendor,
    /// The paper's contribution: mBSR kernels on (simulated) tensor cores.
    AmgT,
}

/// Per-level precision policy (Section IV.E).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecisionPolicy {
    /// FP64 everywhere (the paper's "AmgT (FP64)" and "HYPRE (FP64)").
    Uniform64,
    /// Tsai et al. config: FP64 / FP32 / FP16... per level, degraded to
    /// FP64 / FP32 / FP32... on GPUs without FP16 MMA support (MI210).
    Mixed,
}

/// Coarsening scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Coarsening {
    /// PMIS C/F splitting (the paper's choice).
    Pmis,
    /// Smoothed aggregation (AmgX-style): greedy aggregates + one-step
    /// Jacobi-smoothed piecewise-constant prolongator (one SpGEMM).
    SmoothedAggregation,
}

/// Interpolation operator construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Interpolation {
    /// Classical direct (distance-1) interpolation.
    Direct,
    /// Extended+i-style distance-2 interpolation built with one SpGEMM
    /// (Li, Sjögreen, Yang — the method the paper selects).
    ExtendedI,
}

/// Coarsest-level solver (Algorithm 2, line 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoarseSolver {
    /// Dense LU with partial pivoting (small coarse grids).
    DirectLu,
    /// Sparse LDL^T with optional RCM pre-ordering — the PanguLU-class
    /// sparse-direct option; scales to large coarse grids.
    SparseLdl { reorder: bool },
    /// `n` L1-Jacobi sweeps — each costs one extra SpMV per V-cycle, which
    /// is how Table II reaches 351/601/851/1101-call counts.
    Jacobi(usize),
}

/// Smoother selection.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Smoother {
    /// `x += D_l1^{-1} (b - A x)` with `d_i = sum_j |a_ij|`.
    L1Jacobi,
    /// Damped Jacobi with the given weight.
    WeightedJacobi(f64),
    /// HYPRE-style hybrid Gauss-Seidel: sequential GS inside fixed row
    /// blocks, Jacobi across block boundaries (parallelizable on GPUs).
    HybridGaussSeidel,
}

/// Multigrid cycle shape (Algorithm 2 is the V-cycle; W and F recurse more
/// aggressively on coarse levels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CycleType {
    V,
    W,
    /// F-cycle: one W-like visit followed by a V-cycle sweep.
    F,
}

impl CycleType {
    /// The cycle types of the coarse-level visits one level of this cycle
    /// makes: V recurses once, W twice, and F once as F then finishes with
    /// a plain V sweep below the level.
    pub fn visits(self) -> &'static [CycleType] {
        match self {
            CycleType::V => &[CycleType::V],
            CycleType::W => &[CycleType::W, CycleType::W],
            CycleType::F => &[CycleType::F, CycleType::V],
        }
    }
}

/// Full AMG configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AmgConfig {
    pub backend: BackendKind,
    pub precision: PrecisionPolicy,
    /// Strength threshold for classical strength-of-connection.
    pub strength_threshold: f64,
    /// Rows with `|sum_j a_ij| / |a_ii|`-style ratio above this are treated
    /// as having only weak connections (HYPRE's `max_row_sum`).
    pub max_row_sum: f64,
    /// Coarsening scheme.
    pub coarsening: Coarsening,
    /// Coarsening stops when the grid has at most this many rows.
    pub max_coarse_size: usize,
    /// Hard cap on hierarchy depth.
    pub max_levels: usize,
    pub interpolation: Interpolation,
    /// Truncation: drop interpolation weights below `trunc_fact * rowmax`.
    pub trunc_fact: f64,
    /// Truncation: keep at most this many weights per row.
    pub max_elmts: usize,
    pub smoother: Smoother,
    /// Pre- and post-smoothing sweeps (the paper's `num_sweep = 1`).
    pub num_sweeps: usize,
    pub coarse_solver: CoarseSolver,
    /// Cycle shape; the paper evaluates V-cycles.
    pub cycle: CycleType,
    /// Fixed solve iteration count (the paper runs 50 regardless).
    pub max_iterations: usize,
    /// Early-exit relative-residual tolerance (0 disables, as the paper's
    /// fixed-iteration runs effectively do).
    pub tolerance: f64,
    /// Kernel dispatch constants (tensor-core cutoff, SpMV schedule, SpGEMM
    /// binning, mixed-precision level boundaries). The paper's hardcoded
    /// values are [`KernelPolicy::paper_default`]; `amgt-tune` searches the
    /// space per matrix.
    pub policy: KernelPolicy,
    /// Execution substrate the kernels compute on (warp emulator vs. native
    /// rayon + SIMD). Orthogonal to [`AmgConfig::backend`]; solutions and
    /// simulated-GPU charges are bitwise identical either way — only host
    /// wall clock differs.
    pub exec: ExecMode,
}

impl AmgConfig {
    /// The exact configuration of Section V.A with the given backend and
    /// precision policy.
    pub fn paper(backend: BackendKind, precision: PrecisionPolicy) -> Self {
        AmgConfig {
            backend,
            precision,
            strength_threshold: 0.25,
            max_row_sum: 0.8,
            coarsening: Coarsening::Pmis,
            max_coarse_size: 3,
            max_levels: 7,
            interpolation: Interpolation::ExtendedI,
            trunc_fact: 0.1,
            max_elmts: 4,
            smoother: Smoother::L1Jacobi,
            num_sweeps: 1,
            coarse_solver: CoarseSolver::Jacobi(1),
            cycle: CycleType::V,
            max_iterations: 50,
            tolerance: 0.0,
            policy: KernelPolicy::paper_default(),
            exec: ExecMode::Simulated,
        }
    }

    /// HYPRE (FP64) baseline of Figure 7.
    pub fn hypre_fp64() -> Self {
        AmgConfig::paper(BackendKind::Vendor, PrecisionPolicy::Uniform64)
    }

    /// AmgT (FP64) of Figure 7.
    pub fn amgt_fp64() -> Self {
        AmgConfig::paper(BackendKind::AmgT, PrecisionPolicy::Uniform64)
    }

    /// AmgT (Mixed) of Figure 7.
    pub fn amgt_mixed() -> Self {
        AmgConfig::paper(BackendKind::AmgT, PrecisionPolicy::Mixed)
    }
}

impl Default for AmgConfig {
    fn default() -> Self {
        AmgConfig::amgt_fp64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        let c = AmgConfig::paper(BackendKind::AmgT, PrecisionPolicy::Mixed);
        assert_eq!(c.strength_threshold, 0.25);
        assert_eq!(c.max_row_sum, 0.8);
        assert_eq!(c.max_coarse_size, 3);
        assert_eq!(c.max_levels, 7);
        assert_eq!(c.trunc_fact, 0.1);
        assert_eq!(c.max_elmts, 4);
        assert_eq!(c.num_sweeps, 1);
        assert_eq!(c.max_iterations, 50);
        assert_eq!(c.interpolation, Interpolation::ExtendedI);
        assert_eq!(c.smoother, Smoother::L1Jacobi);
        assert_eq!(c.cycle, CycleType::V);
    }

    #[test]
    fn presets_differ_only_in_backend_and_precision() {
        let h = AmgConfig::hypre_fp64();
        let a = AmgConfig::amgt_fp64();
        let m = AmgConfig::amgt_mixed();
        assert_eq!(h.backend, BackendKind::Vendor);
        assert_eq!(a.backend, BackendKind::AmgT);
        assert_eq!(m.precision, PrecisionPolicy::Mixed);
        let mut h2 = h.clone();
        h2.backend = BackendKind::AmgT;
        assert_eq!(h2, a);
    }
}
