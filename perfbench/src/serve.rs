//! `timestep-serve`: two closed-loop tenants on one in-process
//! `SolverService`, each a client thread that blocks in `wait`.
//!
//! A tenant integrates `M u' = -A u` implicitly with a two-stage
//! SDIRK-style scheme whose stages share one matrix, `M + dt A` with the
//! lumped mass `M = diag(A)`. Each stage submits [`RHS_PER_STAGE`]
//! right-hand sides and waits for all of them, so the first stage of a
//! step meets a cached hierarchy with stale values (a refresh: `resetup`)
//! and the second stage a current one (a hit: batched solve only). `dt`
//! grows every step, so later steps need more V-cycles. Every
//! [`STEPS_PER_MESH`] steps the tenant re-meshes to its next stand-in,
//! which the service has never seen (a miss: full setup), and restarts
//! from the initial `dt`. A session runs the whole fixed script; the seed
//! picks each tenant's initial `dt` (within 10%) and right-hand sides, so
//! every seed does the same work on the same meshes.

use crate::check::Tally;
use crate::heap::{self, MIB};
use crate::inputs::{stand_in, Rng};
use crate::layers::Layers;
use crate::report::{Outcome, Samples};
use crate::stats::{slope, Pacer};
use amgt::{AmgConfig, ExecMode, Hierarchy};
use amgt_server::{CacheOutcome, ServiceConfig, SolveRequest, SolverService};
use amgt_sim::{Device, GpuSpec};
use amgt_sparse::Csr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Each tenant's stand-ins in re-mesh order (2D stencils and pressure FEM;
/// FEM shells), of similar setup and solve cost.
const MESHES: [[&str; 3]; 2] = [
    ["thermal1", "Chevron2", "Pres_Poisson"],
    ["cant", "bcsstk39", "af_shell4"],
];
const STEPS_PER_MESH: usize = 3;
const STAGES: usize = 2;
pub const RHS_PER_STAGE: usize = 8;
const DT_GROWTH: f64 = 2.0;

pub fn config() -> AmgConfig {
    crate::solver_config(AmgConfig::amgt_fp64())
}

/// One server worker; batches close as soon as one stage's right-hand
/// sides are in, so every stage is exactly one batch.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        batch_max: RHS_PER_STAGE,
        batch_window: Duration::from_millis(50),
        exec: Some(ExecMode::Native),
        ..Default::default()
    }
}

/// `M + dt A` with `M = diag(A)`: same pattern as `A`.
fn step_matrix(a: &Csr, dt: f64) -> Csr {
    let mut s = a.clone();
    for r in 0..s.nrows() {
        for j in s.row_ptr[r]..s.row_ptr[r + 1] {
            let v = s.vals[j];
            s.vals[j] = if s.col_idx[j] as usize == r {
                v + dt * v
            } else {
                dt * v
            };
        }
    }
    s
}

struct Step {
    mesh: &'static str,
    matrix: Csr,
    /// Whether this step starts on a new mesh (a cache miss).
    remesh: bool,
    /// `rhs[stage][j]`.
    rhs: Vec<Vec<Vec<f64>>>,
}

pub struct Tenant {
    steps: Vec<Step>,
}

pub fn inputs(seed: u64) -> Vec<Tenant> {
    let mut rng = Rng::new(seed);
    MESHES
        .iter()
        .map(|names| {
            let dt0 = rng.range(0.9, 1.0);
            let mut steps = Vec::new();
            for &name in names {
                let a = stand_in(name);
                for i in 0..STEPS_PER_MESH {
                    let matrix = step_matrix(&a, dt0 * DT_GROWTH.powi(i as i32));
                    let rhs = (0..STAGES)
                        .map(|_| {
                            (0..RHS_PER_STAGE)
                                .map(|_| rng.vector(matrix.nrows()))
                                .collect()
                        })
                        .collect();
                    steps.push(Step {
                        mesh: name,
                        matrix,
                        remesh: i == 0,
                        rhs,
                    });
                }
            }
            Tenant { steps }
        })
        .collect()
}

struct Job {
    ms: f64,
    cache: CacheOutcome,
    batch: usize,
    sim_s: f64,
}

#[derive(Default)]
struct ClientLog {
    tally: Tally,
    jobs: Vec<Job>,
    iterations: usize,
    /// `(jobs completed by all tenants, live heap bytes)` after each stage.
    heap: Vec<(f64, f64)>,
    last_outcome: Option<Instant>,
}

fn client(service: &SolverService, tenant: &Tenant, done: &AtomicUsize) -> ClientLog {
    let cfg = config();
    let mut log = ClientLog::default();
    for step in &tenant.steps {
        for stage in &step.rhs {
            let submitted: Vec<_> = stage
                .iter()
                .map(|b| {
                    let req = SolveRequest::new(step.matrix.clone(), b.clone(), cfg.clone());
                    (Instant::now(), service.submit(req))
                })
                .collect();
            for ((t, handle), b) in submitted.into_iter().zip(stage) {
                let outcome = handle.map(|h| h.wait());
                let ms = t.elapsed().as_secs_f64() * 1e3;
                match outcome {
                    Ok(Ok(out)) => {
                        log.tally.record(
                            step.mesh,
                            out.verdict.is_converged(),
                            &step.matrix,
                            &out.x,
                            b,
                        );
                        log.iterations += out.iterations;
                        log.jobs.push(Job {
                            ms,
                            cache: out.cache,
                            batch: out.batch_size,
                            sim_s: out.simulated_seconds / out.batch_size.max(1) as f64,
                        });
                    }
                    Ok(Err(_)) | Err(_) => log.tally.record_error(step.mesh),
                }
            }
            log.last_outcome = Some(Instant::now());
            let n = done.fetch_add(stage.len(), Ordering::Relaxed) + stage.len();
            log.heap.push((n as f64, heap::live_bytes() as f64));
        }
    }
    log
}

/// One session on a fresh service; returns the simulated seconds of all
/// its batches.
fn session(
    tenants: &[Tenant],
    tally: &mut Tally,
    samples: &mut Samples,
    layers: Option<&mut Layers>,
) -> f64 {
    let service = SolverService::new(service_config());
    heap::reset_peak();
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let logs: Vec<ClientLog> = thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|t| s.spawn(|| client(&service, t, &done)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = logs
        .iter()
        .filter_map(|l| l.last_outcome)
        .max()
        .unwrap_or(start);
    let wall = end.duration_since(start).as_secs_f64();
    samples.peak_mb.push(heap::peak_bytes() as f64 / MIB);
    service.shutdown();

    let jobs: Vec<&Job> = logs.iter().flat_map(|l| &l.jobs).collect();
    for (slot, j) in jobs.iter().enumerate() {
        samples.job(slot, j.ms);
    }
    samples.pass(wall, jobs.len());
    samples
        .iterations
        .push(logs.iter().map(|l| l.iterations).sum::<usize>() as f64);
    for l in &logs {
        tally.merge(&l.tally);
    }
    if let Some(l) = layers {
        for j in &jobs {
            match j.cache {
                CacheOutcome::Hit => l.hit_ms.push(j.ms),
                CacheOutcome::Refresh => l.refresh_ms.push(j.ms),
                CacheOutcome::Miss => l.miss_ms.push(j.ms),
            }
            l.job_batch.push(j.batch as f64);
        }
        // Live heap against completed jobs over the second half.
        let mut points: Vec<(f64, f64)> = logs.iter().flat_map(|l| l.heap.clone()).collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let half = points.len() / 2;
        l.heap_per_job_kb.push(slope(&points[half..]) / 1024.0);
    }
    jobs.iter().map(|j| j.sim_s).sum()
}

/// The first matrix of every mesh: the work of the session's misses.
fn miss_matrices(tenants: &[Tenant]) -> Vec<&Csr> {
    tenants
        .iter()
        .flat_map(|t| &t.steps)
        .filter(|s| s.remesh)
        .map(|s| &s.matrix)
        .collect()
}

/// Replay the session's hierarchy work outside the service: a timed
/// `setup` per mesh (with its layer replay and SpMV speeds) and a timed
/// `resetup` per later step. Returns the simulated setup seconds.
fn trace_setup(tenants: &[Tenant], cfg: &AmgConfig, l: &mut Layers) -> f64 {
    let device = Device::new(GpuSpec::a100());
    for tenant in tenants {
        let mut h: Option<Hierarchy> = None;
        for step in &tenant.steps {
            let a = step.matrix.clone();
            match h.as_mut() {
                Some(h) if !step.remesh => {
                    let t = Instant::now();
                    amgt::resetup(&device, cfg, h, a);
                    l.resetup_ms += t.elapsed().as_secs_f64() * 1e3;
                }
                // The service's solves are not timed here, so the SpMV
                // solve-share estimate is unused: one cycle stands in.
                _ => h = Some(l.traced_setup(&device, cfg, a, 1)),
            }
        }
    }
    device.elapsed()
}

pub fn run(tenants: &[Tenant], budget: Duration, traced: bool) -> Outcome {
    let cfg = config();
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    if !traced {
        let misses = miss_matrices(tenants);
        let mut pacer = Pacer::new(budget, 3);
        while pacer.another() {
            samples.probe();
            samples.time_setup(&misses, &cfg);
            session(tenants, &mut tally, &mut samples, None);
        }
        samples.probe();
        return Outcome {
            tally,
            metrics: samples.end_to_end(),
            notes: vec![samples.note()],
        };
    }
    let mut layers = Layers::default();
    let mut pacer = Pacer::new(budget, 1);
    while pacer.another() {
        session(tenants, &mut tally, &mut samples, None);
        layers.tts_untraced_s.push(samples.last_wall());
        let sim = session(tenants, &mut tally, &mut samples, Some(&mut layers));
        layers.tts_traced_s.push(samples.last_wall());
        let sim_setup = trace_setup(tenants, &cfg, &mut layers);
        layers.sim_setup_s += sim_setup;
        layers.sim_solve_s += sim - sim_setup;
        layers.passes += 1;
    }
    Outcome {
        tally,
        metrics: layers.metrics(),
        notes: vec![format!("traced sessions={}", layers.passes)],
    }
}
