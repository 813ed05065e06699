//! `oneshot-mixed`: a cold `setup` plus one single-RHS `solve` of each of
//! the 16 Table II stand-ins under `AmgConfig::amgt_mixed()`, each on a
//! fresh `Device`. A pass runs all 16 once; the seed picks the order and
//! the right-hand sides. Its traced run also measures the distributed
//! layer (see `dist.rs`) on three of the same systems.

use crate::check::Tally;
use crate::heap::{self, MIB};
use crate::inputs::{suite_names, systems, Rng, System};
use crate::layers::Layers;
use crate::report::{Outcome, Samples};
use crate::stats::Pacer;
use amgt::AmgConfig;
use amgt_sim::{Device, GpuSpec};
use rayon::ThreadPool;
use std::time::{Duration, Instant};

pub fn config() -> AmgConfig {
    crate::solver_config(AmgConfig::amgt_mixed())
}

pub fn inputs(seed: u64) -> Vec<System> {
    let mut rng = Rng::new(seed);
    let mut names = suite_names();
    rng.shuffle(&mut names);
    systems(&names, &mut rng)
}

/// A traced pass also replays each hierarchy's layers and re-runs each
/// solve on a one-thread pool.
struct Trace<'a> {
    layers: &'a mut Layers,
    solo: &'a ThreadPool,
}

/// One pass over all systems; returns (setup seconds, solve seconds).
fn pass(
    systems: &[System],
    cfg: &AmgConfig,
    tally: &mut Tally,
    samples: &mut Samples,
    mut trace: Option<Trace>,
) -> (f64, f64) {
    heap::reset_peak();
    let (mut setup_s, mut solve_s, mut iterations) = (0.0, 0.0, 0usize);
    for (slot, sys) in systems.iter().enumerate() {
        let a = sys.a.clone();
        let device = Device::new(GpuSpec::a100());
        let allocs0 = heap::allocs();
        let t = Instant::now();
        let h = amgt::setup(&device, cfg, a);
        let setup = t.elapsed().as_secs_f64();
        let allocs1 = heap::allocs();
        let sim_setup = device.elapsed();
        let mut x = vec![0.0; sys.a.ncols()];
        let t = Instant::now();
        let rep = amgt::solve(&device, cfg, &h, &sys.b, &mut x);
        let solve = t.elapsed().as_secs_f64();
        let allocs2 = heap::allocs();
        tally.record(sys.name, rep.outcome.is_converged(), &sys.a, &x, &sys.b);
        setup_s += setup;
        solve_s += solve;
        iterations += rep.iterations;
        samples.job(slot, (setup + solve) * 1e3);
        if let Some(tr) = trace.as_mut() {
            let l = &mut *tr.layers;
            l.setup_ms += setup * 1e3;
            l.setup_allocs += (allocs1.0 - allocs0.0) as f64;
            l.setup_alloc_mb += (allocs1.1 - allocs0.1) as f64 / MIB;
            l.solve_ms += solve * 1e3;
            l.solve_allocs += (allocs2.0 - allocs1.0) as f64;
            l.solve_iterations += rep.iterations as f64;
            l.sim_setup_s += sim_setup;
            l.sim_solve_s += device.elapsed() - sim_setup;
            l.replay_setup(cfg, &h);
            l.time_spmv(cfg, &h, rep.iterations);
            let solo_device = Device::new(GpuSpec::a100());
            let mut x1 = vec![0.0; sys.a.ncols()];
            let t = Instant::now();
            tr.solo
                .install(|| amgt::solve(&solo_device, cfg, &h, &sys.b, &mut x1));
            l.solve_1t_ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    samples.peak_mb.push(heap::peak_bytes() as f64 / MIB);
    samples.iterations.push(iterations as f64);
    (setup_s, solve_s)
}

pub fn run(systems: &[System], budget: Duration, traced: bool) -> Outcome {
    let cfg = config();
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let record = |samples: &mut Samples, (setup, solve): (f64, f64)| {
        samples.setup(setup);
        samples.pass(setup + solve, systems.len())
    };
    if !traced {
        let mut pacer = Pacer::new(budget, 3);
        while pacer.another() {
            samples.probe();
            let p = pass(systems, &cfg, &mut tally, &mut samples, None);
            record(&mut samples, p);
        }
        samples.probe();
        return Outcome {
            tally,
            metrics: samples.end_to_end(),
            notes: vec![samples.note()],
        };
    }
    let solo = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("owned pool construction is infallible");
    let mut layers = Layers::default();
    let mut pacer = Pacer::new(budget, 1);
    while pacer.another() {
        let p = pass(systems, &cfg, &mut tally, &mut samples, None);
        layers.tts_untraced_s.push(record(&mut samples, p));
        let trace = Trace {
            layers: &mut layers,
            solo: &solo,
        };
        let (setup, solve) = pass(systems, &cfg, &mut tally, &mut samples, Some(trace));
        layers.tts_traced_s.push(setup + solve);
        crate::dist::trace(systems, &mut tally, &mut layers);
        layers.passes += 1;
    }
    Outcome {
        tally,
        metrics: layers.metrics(),
        notes: vec![format!("traced passes={}", layers.passes)],
    }
}
