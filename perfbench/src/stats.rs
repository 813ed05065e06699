//! Order statistics over measured samples, and the clock of a measuring
//! loop.

use std::time::{Duration, Instant};

/// Percentile `q` in `[0, 1]` by nearest rank (`NaN` on no samples).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Least-squares slope of `y` against `x` (0 with fewer than two distinct
/// `x`).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

/// Paces a measuring loop of whole passes to its time budget. Ask
/// [`Pacer::another`] before each pass: it says yes until `min` passes
/// have run, then only while a pass as long as the median one so far would
/// end within half a pass of the budget. A run so measures for the budget
/// give or take half a pass, instead of overrunning it by up to a whole
/// pass.
pub struct Pacer {
    start: Instant,
    /// Start of the pass in progress (none before the first).
    lap: Option<Instant>,
    budget: Duration,
    min: usize,
    laps: Vec<f64>,
}

impl Pacer {
    pub fn new(budget: Duration, min: usize) -> Pacer {
        Pacer {
            start: Instant::now(),
            lap: None,
            budget,
            min,
            laps: Vec::new(),
        }
    }

    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        if let Some(lap) = self.lap.replace(now) {
            self.laps.push(now.duration_since(lap).as_secs_f64());
        }
        if self.laps.len() < self.min {
            return true;
        }
        let elapsed = now.duration_since(self.start).as_secs_f64();
        elapsed + 0.5 * median(&self.laps) < self.budget.as_secs_f64()
    }
}
