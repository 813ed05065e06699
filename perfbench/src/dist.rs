//! The distributed layer: `dist_solve` (stationary V-cycles) over two
//! in-process ranks under `AmgConfig::amgt_fp64()`, on a 2D stencil, a 3D
//! stencil and a 4-dof FEM block stand-in. It has no workload of its own:
//! the traced run of `oneshot-mixed`, whose systems include all three,
//! solves them once per traced pass for the `dist.*` per-layer metrics.
//! Those metrics are exact counts and simulated seconds, so they do not
//! depend on the kernel pool the rank threads share.

use crate::check::Tally;
use crate::inputs::System;
use crate::layers::Layers;
use amgt::AmgConfig;
use amgt_dist::{dist_solve, DistConfig};
use amgt_sim::{Cluster, GpuSpec, Interconnect};

pub const RANKS: usize = 2;
const NAMES: [&str; 3] = ["mc2depi", "parabolic_fem", "venkat25"];

fn config() -> AmgConfig {
    crate::solver_config(AmgConfig::amgt_fp64())
}

/// Solve the three named systems among `systems` over the ranks, check
/// each solution, and add the reports to the `dist.*` accumulators.
pub fn trace(systems: &[System], tally: &mut Tally, l: &mut Layers) {
    let cfg = config();
    for sys in systems.iter().filter(|s| NAMES.contains(&s.name)) {
        let cluster = Cluster::new(GpuSpec::a100(), RANKS, Interconnect::nvlink());
        let a = sys.a.clone();
        let (x, rep) = dist_solve(&cluster, &cfg, &DistConfig::default(), a, &sys.b);
        tally.record(
            sys.name,
            rep.solve_report.outcome.is_converged(),
            &sys.a,
            &x,
            &sys.b,
        );
        l.dist_comm_s += rep.comm_seconds;
        l.dist_solve_s += rep.solve_seconds;
        l.dist_halo_bytes += rep.halo_bytes;
        l.dist_halo_messages += rep.halo_messages as f64;
        l.dist_allreduces += rep.allreduce_count as f64;
        l.dist_imbalance.push(rep.imbalance);
        l.dist_edge_cut += rep.edge_cut as f64;
    }
}
