//! Host-speed probe. The benchmark's hosts are shared virtual machines
//! whose speed drifts by tens of percent over minutes, which no amount of
//! repetition inside one run averages out. So an untraced run times a
//! fixed amount of the benchmark's own work — it builds a 5-point
//! Laplacian, multiplies it into a vector, and sorts random keys; no
//! solver code — before every pass and once after the last. Each pass's
//! times are scaled by how much slower or faster the probes around it ran
//! than on the reference host. A change to the solver moves the pass and
//! not the probe, so it shows in full.

use crate::inputs::Rng;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the reference host: its median on the shared 2-vCPU
/// x86-64 (AVX2) virtual machine the benchmark was tuned on. Scaled times
/// are in seconds of that host.
pub const REFERENCE_S: f64 = 0.150;

/// Grid side of the Laplacian.
const SIDE: usize = 300;
const MATVECS: usize = 60;
const KEYS: usize = 200_000;
const SORTS: usize = 16;

/// Seconds the fixed work takes now. Everything it allocates is freed
/// before it returns, so it leaves the workload's heap figures alone.
pub fn time() -> f64 {
    let t = Instant::now();
    let n = SIDE * SIDE;
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let (mut col, mut val) = (Vec::new(), Vec::new());
    for r in 0..n {
        let (i, j) = (r / SIDE, r % SIDE);
        let mut push = |c: usize, v: f64| {
            col.push(c as u32);
            val.push(v);
        };
        if i > 0 {
            push(r - SIDE, -1.0);
        }
        if j > 0 {
            push(r - 1, -1.0);
        }
        push(r, 4.0);
        if j + 1 < SIDE {
            push(r + 1, -1.0);
        }
        if i + 1 < SIDE {
            push(r + SIDE, -1.0);
        }
        row_ptr.push(col.len());
    }
    let mut rng = Rng::new(0x9_0BE);
    let x = rng.vector(n);
    let mut y = vec![0.0; n];
    for _ in 0..MATVECS {
        for (r, yr) in y.iter_mut().enumerate() {
            let span = row_ptr[r]..row_ptr[r + 1];
            *yr = col[span.clone()]
                .iter()
                .zip(&val[span])
                .map(|(&c, &v)| v * x[c as usize])
                .sum();
        }
        black_box(&mut y);
    }
    let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
    for _ in 0..SORTS {
        let mut k = black_box(&keys).clone();
        k.sort_unstable();
        black_box(k);
    }
    t.elapsed().as_secs_f64()
}
