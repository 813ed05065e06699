//! The traced run's per-layer accounting.
//!
//! Every number here is timed from the benchmark's own code around calls
//! into public functions of the solver crates; nothing reads the
//! program's internal event ledgers. Setup layers are timed by replaying
//! each level of a finished hierarchy through the same public functions
//! `amgt::setup` calls (strength, PMIS, interpolation, conversion, RAP);
//! whatever the replay does not cover is reported as the unattributed
//! residual, so the named layers plus the residual add up to the measured
//! setup wall. Layers a workload never calls read 0.

use crate::report::{metric, Metric};
use crate::stats::median;
use amgt::interp::build_interpolation;
use amgt::pmis::pmis;
use amgt::strength::strength_graph;
use amgt::{expected_spmv_calls, op_matmul_ws, AmgConfig, CoarseSolver, Hierarchy, Operator};
use amgt_kernels::convert::csr_to_mbsr;
use amgt_kernels::vendor::intermediate_products;
use amgt_kernels::{spmv_mbsr_into, Ctx, SpgemmWorkspace, SpmvScratch};
use amgt_sim::{Device, GpuSpec, Phase, Precision};
use amgt_sparse::Csr;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric: name, unit, and the end-to-end metric (and
/// workload) a change to that layer should move.
#[rustfmt::skip]
pub const TABLE: &[(&str, &str, &str)] = &[
    ("core.setup.ms", "ms", "setup_s on oneshot-mixed (measured wall the layers add up to)"),
    ("core.strength.ms", "ms", "setup_s on oneshot-mixed"),
    ("core.pmis.ms", "ms", "setup_s on oneshot-mixed"),
    ("core.interp.ms", "ms", "setup_s on oneshot-mixed"),
    ("kernels.convert.ms", "ms", "setup_s on oneshot-mixed; job_p90_ms on timestep-serve"),
    ("kernels.spgemm.ms", "ms", "setup_s on oneshot-mixed; jobs_per_s on timestep-serve"),
    ("kernels.spgemm.products", "count", "setup_s on oneshot-mixed; jobs_per_s on timestep-serve"),
    ("core.setup.unattributed_ms", "ms", "setup wall minus the named setup layers"),
    ("core.setup.unattributed_share", "ratio", "unattributed share of the setup wall"),
    ("core.setup.allocs", "count", "setup_s and peak_heap_mb on oneshot-mixed"),
    ("core.setup.alloc_mb", "MiB", "setup_s and peak_heap_mb on oneshot-mixed"),
    ("core.resetup.ms", "ms", "job_p50_ms and jobs_per_s on timestep-serve"),
    ("core.solve.ms", "ms", "time_to_solution_s on oneshot-mixed (measured wall)"),
    ("core.solve.allocs_per_iter", "count", "time_to_solution_s on oneshot-mixed"),
    ("core.solve.unattributed_ms", "ms", "solve wall minus the estimated SpMV time"),
    ("par.solve_speedup", "ratio", "time_to_solution_s on oneshot-mixed (1 thread vs pool width)"),
    ("kernels.spmv.fp64.ns_per_nnz", "ns", "job_p50_ms on timestep-serve"),
    ("kernels.spmv.fp32.ns_per_nnz", "ns", "time_to_solution_s on oneshot-mixed"),
    ("kernels.spmv.fp16.ns_per_nnz", "ns", "time_to_solution_s on oneshot-mixed"),
    ("kernels.spmv.fp64.gbs_computed", "GB/s", "job_p50_ms on timestep-serve"),
    ("kernels.spmv.fp32.gbs_computed", "GB/s", "time_to_solution_s on oneshot-mixed"),
    ("kernels.spmv.fp16.gbs_computed", "GB/s", "time_to_solution_s on oneshot-mixed"),
    ("kernels.spmv.solve_share", "ratio", "share of the solve wall spent in SpMV (estimated)"),
    ("server.hit.p50_ms", "ms", "job_p50_ms and job_p90_ms on timestep-serve"),
    ("server.refresh.p50_ms", "ms", "job_p50_ms and job_p90_ms on timestep-serve"),
    ("server.miss.p50_ms", "ms", "job_p90_ms on timestep-serve"),
    ("server.batch_size.mean", "count", "jobs_per_s on timestep-serve"),
    ("server.cache.hit_frac", "ratio", "traffic shape of timestep-serve"),
    ("server.cache.refresh_frac", "ratio", "traffic shape of timestep-serve"),
    ("server.cache.miss_frac", "ratio", "traffic shape of timestep-serve"),
    ("server.heap_per_job_kb", "KiB", "peak_heap_mb on timestep-serve"),
    ("dist.comm_share", "ratio", "none: no workload times dist_solve"),
    ("dist.halo_mb", "MiB", "none: no workload times dist_solve"),
    ("dist.halo_messages", "count", "none: no workload times dist_solve"),
    ("dist.allreduces", "count", "none: no workload times dist_solve"),
    ("dist.imbalance", "ratio", "none: no workload times dist_solve"),
    ("dist.edge_cut", "count", "none: no workload times dist_solve"),
    ("sim.setup_s", "s", "simulated A100 setup seconds (per pass)"),
    ("sim.solve_s", "s", "simulated A100 solve seconds (per pass)"),
    ("trace.overhead_s", "s", "traced minus untraced time_to_solution_s"),
];

/// The target column for the table printout.
pub fn target(name: &str) -> &'static str {
    TABLE
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or("", |t| t.2)
}

/// Timed SpMV calls at one precision.
#[derive(Default, Clone, Copy)]
struct SpmvAcc {
    ns: f64,
    nnz: f64,
    bytes: f64,
}

/// Per-layer accumulators of a traced run. Extensive quantities are summed
/// over the traced passes and reported per pass.
#[derive(Default)]
pub struct Layers {
    pub passes: usize,
    pub setup_ms: f64,
    strength_ms: f64,
    pmis_ms: f64,
    interp_ms: f64,
    convert_ms: f64,
    spgemm_ms: f64,
    spgemm_products: f64,
    pub setup_allocs: f64,
    pub setup_alloc_mb: f64,
    pub resetup_ms: f64,
    pub solve_ms: f64,
    pub solve_allocs: f64,
    pub solve_iterations: f64,
    spmv_est_ms: f64,
    pub solve_1t_ms: f64,
    spmv: [SpmvAcc; 3],
    pub hit_ms: Vec<f64>,
    pub refresh_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    /// Batch size of every completed job (a batch of k counts k times).
    pub job_batch: Vec<f64>,
    pub heap_per_job_kb: Vec<f64>,
    pub dist_comm_s: f64,
    pub dist_solve_s: f64,
    pub dist_halo_bytes: f64,
    pub dist_halo_messages: f64,
    pub dist_allreduces: f64,
    pub dist_imbalance: Vec<f64>,
    pub dist_edge_cut: f64,
    pub sim_setup_s: f64,
    pub sim_solve_s: f64,
    pub tts_traced_s: Vec<f64>,
    pub tts_untraced_s: Vec<f64>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn prec_slot(p: Precision) -> usize {
    match p {
        Precision::Fp64 => 0,
        Precision::Fp32 => 1,
        Precision::Fp16 => 2,
    }
}

impl Layers {
    /// `amgt::setup` of `a`, timed and allocation-counted into the
    /// `core.setup.*` metrics, followed by its layer replay and SpMV speeds; `iterations` are the cycles a solve of
    /// this system ran (for the SpMV share of the solve wall).
    pub fn traced_setup(
        &mut self,
        device: &Device,
        cfg: &AmgConfig,
        a: Csr,
        iterations: usize,
    ) -> Hierarchy {
        let before = crate::heap::allocs();
        let t = Instant::now();
        let h = amgt::setup(device, cfg, a);
        self.setup_ms += ms_since(t);
        let after = crate::heap::allocs();
        self.setup_allocs += (after.0 - before.0) as f64;
        self.setup_alloc_mb += (after.1 - before.1) as f64 / crate::heap::MIB;
        self.replay_setup(cfg, &h);
        self.time_spmv(cfg, &h, iterations);
        h
    }

    /// Replay every level of `h` through the public setup functions,
    /// timing each layer. Runs on a scratch device so the workload's
    /// simulated clock is untouched.
    pub fn replay_setup(&mut self, cfg: &AmgConfig, h: &Hierarchy) {
        let device = Device::new(GpuSpec::a100());
        let mut ws = SpgemmWorkspace::default();
        for (k, lvl) in h.levels.iter().enumerate() {
            let ctx = Ctx::new(&device, Phase::Setup, k as u32, lvl.precision)
                .with_policy(cfg.policy)
                .with_exec(cfg.exec);
            let t = Instant::now();
            black_box(csr_to_mbsr(&ctx, &lvl.a.csr));
            for op in [&lvl.p, &lvl.r].into_iter().flatten() {
                black_box(csr_to_mbsr(&ctx, &op.csr));
            }
            self.convert_ms += ms_since(t);
            let (Some(p), Some(r)) = (&lvl.p, &lvl.r) else {
                continue;
            };
            let a = &lvl.a.csr;
            let t = Instant::now();
            let s = strength_graph(&ctx, a, cfg.strength_threshold, cfg.max_row_sum);
            self.strength_ms += ms_since(t);
            let t = Instant::now();
            let split = pmis(&ctx, &s, 0xA3_97 + k as u64);
            self.pmis_ms += ms_since(t);
            if split.n_coarse > 0 {
                let t = Instant::now();
                black_box(build_interpolation(
                    &ctx,
                    cfg.backend,
                    a,
                    &s,
                    &split,
                    cfg.interpolation,
                    cfg.trunc_fact,
                    cfg.max_elmts,
                ));
                self.interp_ms += ms_since(t);
            }
            let t = Instant::now();
            let ap = op_matmul_ws(&ctx, &lvl.a, p, &mut ws);
            black_box(op_matmul_ws(&ctx, r, &ap, &mut ws));
            self.spgemm_ms += ms_since(t);
            self.spgemm_products +=
                (intermediate_products(a, &p.csr) + intermediate_products(&r.csr, &ap.csr)) as f64;
        }
    }

    /// Time the mBSR SpMV of every operator of `h` at its level's
    /// precision, and estimate the SpMV share of a solve that ran
    /// `iterations` cycles from the per-cycle call counts.
    pub fn time_spmv(&mut self, cfg: &AmgConfig, h: &Hierarchy, iterations: usize) {
        let device = Device::new(GpuSpec::a100());
        let mut scratch = SpmvScratch::default();
        let mut y = Vec::new();
        let last = h.n_levels() - 1;
        let sweeps = cfg.num_sweeps;
        let coarse_calls = match cfg.coarse_solver {
            CoarseSolver::Jacobi(s) => s,
            CoarseSolver::DirectLu | CoarseSolver::SparseLdl { .. } => 0,
        };
        let mut per_cycle_ns = 0.0;
        let mut per_cycle_calls = 0;
        let mut finest_ns = 0.0;
        for (k, lvl) in h.levels.iter().enumerate() {
            let ctx = Ctx::new(&device, Phase::Solve, k as u32, lvl.precision)
                .with_policy(cfg.policy)
                .with_exec(cfg.exec);
            // (operator, calls per cycle): smoothing sweeps and the residual
            // on A, one restriction and one interpolation per visit.
            let ops: Vec<(&Operator, usize)> = if k < last {
                let p = lvl.p.as_ref().expect("non-coarsest level has P");
                let r = lvl.r.as_ref().expect("non-coarsest level has R");
                vec![(&lvl.a, 2 * sweeps + 1), (r, 1), (p, 1)]
            } else {
                vec![(&lvl.a, coarse_calls)]
            };
            for (i, (op, calls)) in ops.into_iter().enumerate() {
                let ns = self.time_one(&ctx, op, &mut scratch, &mut y);
                per_cycle_ns += calls as f64 * ns;
                per_cycle_calls += calls;
                if k == 0 && i == 0 {
                    finest_ns = ns;
                }
            }
        }
        // Plus the outer residual each cycle and the initial residual.
        let calls = iterations * (per_cycle_calls + 1) + 1;
        assert_eq!(
            calls,
            expected_spmv_calls(h.n_levels(), iterations, cfg.coarse_solver, sweeps),
            "per-level SpMV call model disagrees with the solver's formula"
        );
        self.spmv_est_ms += (iterations as f64 * (per_cycle_ns + finest_ns) + finest_ns) / 1e6;
    }

    /// Mean ns of one `spmv_mbsr_into` call on `op`, repeated to cover at
    /// least ~2 ms; also accumulates ns, nnz and computed bytes per
    /// precision.
    fn time_one(
        &mut self,
        ctx: &Ctx,
        op: &Operator,
        scratch: &mut SpmvScratch,
        y: &mut Vec<f64>,
    ) -> f64 {
        let m = op.mbsr.as_ref().expect("AmgT operator carries mBSR");
        let plan = op.plan.as_ref().expect("AmgT operator carries a plan");
        let x: Vec<f64> = (0..m.ncols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let t = Instant::now();
        spmv_mbsr_into(ctx, m, plan, &x, scratch, y);
        let first = t.elapsed().as_nanos().max(1) as f64;
        let reps = (2e6 / first).clamp(3.0, 200.0) as usize;
        let t = Instant::now();
        for _ in 0..reps {
            spmv_mbsr_into(ctx, m, plan, black_box(&x), scratch, y);
            black_box(&y);
        }
        let ns = t.elapsed().as_nanos() as f64 / reps as f64;
        let prec = ctx.precision;
        let bytes = (m.blk_rows() + 1) * 8
            + m.n_blocks() * (4 + 2 + 16 * prec.bytes())
            + (m.ncols() + m.nrows()) * 8;
        let acc = &mut self.spmv[prec_slot(prec)];
        acc.ns += ns;
        acc.nnz += op.nnz() as f64;
        acc.bytes += bytes as f64;
        ns
    }

    fn value(&self, name: &str) -> f64 {
        let per_pass = 1.0 / self.passes.max(1) as f64;
        let named =
            self.strength_ms + self.pmis_ms + self.interp_ms + self.convert_ms + self.spgemm_ms;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let jobs = self.job_batch.len() as f64;
        let frac = |v: &[f64]| ratio(v.len() as f64, jobs);
        let spmv = |slot: usize, gbs: bool| {
            let a = self.spmv[slot];
            if gbs {
                ratio(a.bytes, a.ns)
            } else {
                ratio(a.ns, a.nnz)
            }
        };
        match name {
            "core.setup.ms" => self.setup_ms * per_pass,
            "core.strength.ms" => self.strength_ms * per_pass,
            "core.pmis.ms" => self.pmis_ms * per_pass,
            "core.interp.ms" => self.interp_ms * per_pass,
            "kernels.convert.ms" => self.convert_ms * per_pass,
            "kernels.spgemm.ms" => self.spgemm_ms * per_pass,
            "kernels.spgemm.products" => self.spgemm_products * per_pass,
            "core.setup.unattributed_ms" => (self.setup_ms - named) * per_pass,
            "core.setup.unattributed_share" => ratio(self.setup_ms - named, self.setup_ms),
            "core.setup.allocs" => self.setup_allocs * per_pass,
            "core.setup.alloc_mb" => self.setup_alloc_mb * per_pass,
            "core.resetup.ms" => self.resetup_ms * per_pass,
            "core.solve.ms" => self.solve_ms * per_pass,
            "core.solve.allocs_per_iter" => ratio(self.solve_allocs, self.solve_iterations),
            "core.solve.unattributed_ms" if self.solve_ms > 0.0 => {
                (self.solve_ms - self.spmv_est_ms) * per_pass
            }
            "core.solve.unattributed_ms" => 0.0,
            "par.solve_speedup" => ratio(self.solve_1t_ms, self.solve_ms),
            "kernels.spmv.fp64.ns_per_nnz" => spmv(0, false),
            "kernels.spmv.fp32.ns_per_nnz" => spmv(1, false),
            "kernels.spmv.fp16.ns_per_nnz" => spmv(2, false),
            "kernels.spmv.fp64.gbs_computed" => spmv(0, true),
            "kernels.spmv.fp32.gbs_computed" => spmv(1, true),
            "kernels.spmv.fp16.gbs_computed" => spmv(2, true),
            "kernels.spmv.solve_share" => ratio(self.spmv_est_ms, self.solve_ms),
            "server.hit.p50_ms" => p50(&self.hit_ms),
            "server.refresh.p50_ms" => p50(&self.refresh_ms),
            "server.miss.p50_ms" => p50(&self.miss_ms),
            "server.batch_size.mean" => {
                ratio(jobs, self.job_batch.iter().map(|b| 1.0 / b).sum::<f64>())
            }
            "server.cache.hit_frac" => frac(&self.hit_ms),
            "server.cache.refresh_frac" => frac(&self.refresh_ms),
            "server.cache.miss_frac" => frac(&self.miss_ms),
            "server.heap_per_job_kb" => p50(&self.heap_per_job_kb),
            "dist.comm_share" => ratio(self.dist_comm_s, self.dist_solve_s),
            "dist.halo_mb" => self.dist_halo_bytes * per_pass / crate::heap::MIB,
            "dist.halo_messages" => self.dist_halo_messages * per_pass,
            "dist.allreduces" => self.dist_allreduces * per_pass,
            "dist.imbalance" => p50(&self.dist_imbalance),
            "dist.edge_cut" => self.dist_edge_cut * per_pass,
            "sim.setup_s" => self.sim_setup_s * per_pass,
            "sim.solve_s" => self.sim_solve_s * per_pass,
            "trace.overhead_s" => p50(&self.tts_traced_s) - p50(&self.tts_untraced_s),
            _ => unreachable!("metric {name} is not in the layer table"),
        }
    }

    /// All per-layer metrics in table order.
    pub fn metrics(&self) -> Vec<Metric> {
        TABLE
            .iter()
            .map(|&(name, unit, _)| metric(name, self.value(name), unit))
            .collect()
    }
}
