//! amgt-perfbench: the repository's performance yardstick.
//!
//! ```text
//! amgt-perfbench --workload <oneshot-mixed|timestep-serve>
//!                --seed <n> --seconds <s> --trace <0|1> [--git <describe>]
//! ```
//!
//! Builds the workload's inputs from the seed, measures for at least
//! `--seconds`, re-checks every solution, and ends standard output with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics. See
//! README.md for the workloads and the layer-to-metric map.

mod check;
mod dist;
mod heap;
mod inputs;
mod layers;
mod oneshot;
mod probe;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: heap::PeakAlloc = heap::PeakAlloc;

/// Every solve: native exec, relative-residual tolerance 1e-8, at most 50
/// V-cycles (the paper's 50 iterations).
fn solver_config(mut cfg: amgt::AmgConfig) -> amgt::AmgConfig {
    cfg.tolerance = check::TOL;
    cfg.max_iterations = 50;
    cfg.exec = amgt::ExecMode::Native;
    cfg
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    OneshotMixed,
    TimestepServe,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "oneshot-mixed" => Some(Workload::OneshotMixed),
            "timestep-serve" => Some(Workload::TimestepServe),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::OneshotMixed => "oneshot-mixed",
            Workload::TimestepServe => "timestep-serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    git: String,
}

const USAGE: &str = "usage: amgt-perfbench --workload <oneshot-mixed|timestep-serve> \
                     --seed <n> --seconds <s> --trace <0|1> [--git <describe>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut git = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            "--git" => git = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        git,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("amgt-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    check::self_test();

    // The workloads are sized for two cores: the kernel pool is as wide as
    // the host allows up to two.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let width = nproc.min(2);
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build_global()
        .expect("the global pool is built once, before any parallel work");
    // Only the traced run of oneshot-mixed runs the distributed layer.
    let (workers, ranks) = match args.workload {
        Workload::OneshotMixed if args.trace => (0, dist::RANKS),
        Workload::OneshotMixed => (0, 1),
        Workload::TimestepServe => (serve::service_config().workers, 1),
    };
    println!(
        "# meta workload={} seed={} seconds={} trace={} nproc={nproc} pool_width={width} \
         server_workers={workers} ranks={ranks} exec=native simd={} scale=small git={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        amgt_kernels::simd_level().label(),
        args.git
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let t = Instant::now();
    let outcome = match args.workload {
        Workload::OneshotMixed => {
            let systems = oneshot::inputs(args.seed);
            println!("# inputs_s={:.3}", t.elapsed().as_secs_f64());
            oneshot::run(&systems, budget, args.trace)
        }
        Workload::TimestepServe => {
            let tenants = serve::inputs(args.seed);
            println!("# inputs_s={:.3}", t.elapsed().as_secs_f64());
            serve::run(&tenants, budget, args.trace)
        }
    };
    if args.trace {
        report::print(&outcome, layers::target);
    } else {
        report::print(&outcome, |_| "");
    }
    ExitCode::SUCCESS
}
