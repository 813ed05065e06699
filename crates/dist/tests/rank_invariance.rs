//! Rank-count invariance of the distributed solve over the full evaluation
//! suite (Table II): at one rank the distributed stationary solve is
//! bitwise-identical to the single-device solver, and the iterate
//! trajectory does not change with the rank count.

use amgt::config::{AmgConfig, CoarseSolver, CycleType, Smoother};
use amgt::hierarchy::setup;
use amgt::solve::solve;
use amgt_dist::{dist_solve, DistConfig};
use amgt_kernels::ExecMode;
use amgt_sim::{Cluster, Device, GpuSpec, Interconnect};
use amgt_sparse::gen::rhs_of_ones;
use amgt_sparse::suite::{self, Scale};
use amgt_sparse::Csr;

fn cluster(p: usize) -> Cluster {
    Cluster::new(GpuSpec::a100(), p, Interconnect::nvlink())
}

/// The tier-1 invariance gate: every suite matrix, stationary V-cycles,
/// P = 1 bitwise against the single-device solver and P in {2, 4}
/// bitwise-invariant in residual history, solution and iteration count.
/// A few matrices additionally run W- and F-cycles, weighted Jacobi and a
/// direct coarse solve at P in {1, 2}, which drive the gathered coarse
/// region through every recursion shape and coarse solver.
#[test]
fn suite_rank_invariance() {
    for entry in suite::entries() {
        let a = suite::generate(entry.name, Scale::Small).unwrap();
        let mut cfg = AmgConfig::amgt_fp64();
        // Native execution is bitwise-identical to Simulated and much
        // faster on the host; a handful of cycles is enough to expose any
        // halo defect (a single wrong ghost lane poisons the trajectory).
        cfg.exec = ExecMode::Native;
        cfg.max_iterations = 4;
        cfg.tolerance = 1e-10;
        assert_rank_invariant(entry.name, &a, &cfg, &[1, 2, 4]);
    }
    for name in ["Pres_Poisson", "bcsstk39", "cant"] {
        let a = suite::generate(name, Scale::Small).unwrap();
        for (cycle, coarse, smoother) in [
            (CycleType::V, CoarseSolver::DirectLu, Smoother::L1Jacobi),
            (CycleType::W, CoarseSolver::Jacobi(1), Smoother::L1Jacobi),
            (
                CycleType::W,
                CoarseSolver::DirectLu,
                Smoother::WeightedJacobi(0.8),
            ),
            (
                CycleType::F,
                CoarseSolver::Jacobi(1),
                Smoother::WeightedJacobi(0.8),
            ),
            (CycleType::F, CoarseSolver::DirectLu, Smoother::L1Jacobi),
        ] {
            let mut cfg = AmgConfig::amgt_fp64();
            cfg.exec = ExecMode::Native;
            cfg.max_iterations = 3;
            cfg.tolerance = 1e-10;
            cfg.cycle = cycle;
            cfg.coarse_solver = coarse;
            cfg.smoother = smoother;
            let what = format!("{name} {cycle:?}/{coarse:?}/{smoother:?}");
            assert_rank_invariant(&what, &a, &cfg, &[1, 2]);
        }
    }
}

/// P = `ranks[0]` = 1 bitwise against the single-device solver, and every
/// other rank count bitwise-invariant in solution and iteration count.
fn assert_rank_invariant(name: &str, a: &Csr, cfg: &AmgConfig, ranks: &[usize]) {
    let b = rhs_of_ones(a);
    let dev = Device::new(GpuSpec::a100());
    let h = setup(&dev, cfg, a.clone());
    let mut x_ref = vec![0.0; b.len()];
    let ref_report = solve(&dev, cfg, &h, &b, &mut x_ref);

    let mut histories = Vec::new();
    for &p in ranks {
        let cl = cluster(p);
        let (x, rep) = dist_solve(&cl, cfg, &DistConfig::default(), a.clone(), &b);
        assert_eq!(
            rep.solve_report.iterations, ref_report.iterations,
            "{name}: iterations diverged at p={p}"
        );
        for (i, (u, v)) in x.iter().zip(&x_ref).enumerate() {
            assert_eq!(u.to_bits(), v.to_bits(), "{name} p={p} row {i}: {u} vs {v}");
        }
        histories.push(rep.solve_report.history.clone());
    }
    // P = 1 reproduces the single-device residual history bitwise...
    assert_eq!(
        histories[0], ref_report.history,
        "{name}: p=1 history differs from single-device"
    );
    // ...and with more ranks only the *recorded* norms move (an
    // all-reduce of partial dots rounds differently from the
    // sequential fold at the ulp); the iterates themselves were
    // asserted bitwise above.
    for h in &histories[1..] {
        for (u, v) in h.iter().zip(&histories[0]) {
            assert!(
                (u - v).abs() <= 1e-12 * v.abs(),
                "{name}: history varies with p beyond rounding: {u} vs {v}"
            );
        }
    }
}

/// Distributed PCG: P = 1 matches the single-device PCG bitwise; more
/// ranks may round dot products differently, so they must agree on the
/// converged residual within rounding and on the iteration count ±1.
#[test]
fn pcg_rank_agreement() {
    use amgt_dist::dist_pcg;

    let a = suite::generate("thermal1", Scale::Small).unwrap();
    let b = rhs_of_ones(&a);
    let mut cfg = AmgConfig::amgt_fp64();
    cfg.exec = ExecMode::Native;
    let tol = 1e-8;
    let max_iters = 60;

    let dev = Device::new(GpuSpec::a100());
    let h = setup(&dev, &cfg, a.clone());
    let mut x_ref = vec![0.0; b.len()];
    let ref_rep = amgt::pcg::pcg_solve(&dev, &cfg, &h, &b, &mut x_ref, tol, max_iters);
    assert!(ref_rep.converged);

    let (x1, r1) = dist_pcg(
        &cluster(1),
        &cfg,
        &DistConfig::default(),
        a.clone(),
        &b,
        tol,
        max_iters,
    );
    assert_eq!(r1.solve_report.iterations, ref_rep.iterations);
    assert_eq!(r1.solve_report.history, ref_rep.history);
    for (u, v) in x1.iter().zip(&x_ref) {
        assert_eq!(u.to_bits(), v.to_bits());
    }

    for p in [2usize, 4] {
        let (_, rp) = dist_pcg(
            &cluster(p),
            &cfg,
            &DistConfig::default(),
            a.clone(),
            &b,
            tol,
            max_iters,
        );
        assert!(rp.solve_report.converged, "p={p} did not converge");
        assert!(
            rp.solve_report.iterations.abs_diff(ref_rep.iterations) <= 1,
            "p={p}: {} vs {} iterations",
            rp.solve_report.iterations,
            ref_rep.iterations
        );
        let rel = rp.solve_report.history.last().unwrap();
        assert!(*rel < tol, "p={p} converged residual {rel}");
    }
}
