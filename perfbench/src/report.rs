//! Metric assembly and the two output forms: a human-readable table and
//! the one-line JSON result that ends standard output.

use crate::check::Tally;
use crate::probe::{self, REFERENCE_S};
use crate::stats::{median, percentile};
use amgt::AmgConfig;
use amgt_sim::{Device, GpuSpec};
use amgt_sparse::Csr;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-pass measurements. A pass is one repetition of the workload's
/// fixed script (all systems once, or one serving session).
///
/// An untraced run calls [`Samples::probe`] before every pass and once
/// after the last; the end-to-end metrics then scale each pass's times by
/// `probe::REFERENCE_S` over the mean of the probes around it. Without
/// probes (the traced run) nothing is scaled.
#[derive(Default)]
pub struct Samples {
    /// Probe times: before each pass, and after the last.
    probe_s: Vec<f64>,
    /// Measured wall of each pass.
    wall_s: Vec<f64>,
    /// Jobs each pass completed.
    jobs: Vec<usize>,
    /// Setup wall sampled in each pass.
    setup_s: Vec<f64>,
    /// `job_ms[slot]`: `(pass, latency)` of the script's job `slot`.
    job_ms: Vec<Vec<(usize, f64)>>,
    pub iterations: Vec<f64>,
    pub peak_mb: Vec<f64>,
}

impl Samples {
    pub fn probe(&mut self) {
        self.probe_s.push(probe::time());
    }

    /// A finished pass: its measured wall and the jobs it completed.
    /// Returns the wall.
    pub fn pass(&mut self, wall: f64, jobs: usize) -> f64 {
        self.wall_s.push(wall);
        self.jobs.push(jobs);
        wall
    }

    /// The measured wall of the last finished pass.
    pub fn last_wall(&self) -> f64 {
        *self.wall_s.last().expect("a pass has finished")
    }

    /// The setup wall sampled in the current pass.
    pub fn setup(&mut self, seconds: f64) {
        self.setup_s.push(seconds);
    }

    /// One `setup_s` sample: the wall of `amgt::setup` over `matrices`.
    /// Workloads whose passes do not time setup themselves take one such
    /// sample in each pass, so the samples span the whole run.
    pub fn time_setup(&mut self, matrices: &[&Csr], cfg: &AmgConfig) {
        let mut total = 0.0;
        for &m in matrices {
            let a = m.clone();
            let t = Instant::now();
            amgt::setup(&Device::new(GpuSpec::a100()), cfg, a);
            total += t.elapsed().as_secs_f64();
        }
        self.setup(total);
    }

    /// The latency of the current pass's job `slot`.
    pub fn job(&mut self, slot: usize, ms: f64) {
        if self.job_ms.len() <= slot {
            self.job_ms.resize_with(slot + 1, Vec::new);
        }
        let pass = self.wall_s.len();
        self.job_ms[slot].push((pass, ms));
    }

    /// Factor from pass `i`'s measured times to reference-host times.
    fn scale(&self, i: usize) -> f64 {
        match (self.probe_s.get(i), self.probe_s.get(i + 1)) {
            (Some(before), Some(after)) => 2.0 * REFERENCE_S / (before + after),
            _ => 1.0,
        }
    }

    /// The end-to-end metrics: medians over passes of the scaled times.
    /// Every pass runs the same script of jobs, so a job's latency is its
    /// median over passes and the latency percentiles are taken over the
    /// script's jobs.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let tts: Vec<f64> = (0..self.wall_s.len())
            .map(|i| self.wall_s[i] * self.scale(i))
            .collect();
        let jobs_per_s: Vec<f64> = tts
            .iter()
            .zip(&self.jobs)
            .map(|(t, &n)| n as f64 / t.max(f64::MIN_POSITIVE))
            .collect();
        let setup: Vec<f64> = (0..self.setup_s.len())
            .map(|i| self.setup_s[i] * self.scale(i))
            .collect();
        let job_ms: Vec<f64> = self
            .job_ms
            .iter()
            .map(|v| {
                let scaled: Vec<f64> = v.iter().map(|&(i, ms)| ms * self.scale(i)).collect();
                median(&scaled)
            })
            .collect();
        vec![
            metric("time_to_solution_s", median(&tts), "s"),
            metric("setup_s", median(&setup), "s"),
            metric("jobs_per_s", median(&jobs_per_s), "1/s"),
            metric("job_p50_ms", percentile(&job_ms, 0.5), "ms"),
            metric("job_p90_ms", percentile(&job_ms, 0.9), "ms"),
            metric("iterations", median(&self.iterations), "cycles"),
            metric("peak_heap_mb", median(&self.peak_mb), "MiB"),
        ]
    }

    /// Sample counts behind the medians and percentiles, and the measured
    /// walls and probe times behind the scaled ones. p90 needs at least
    /// ten jobs above it, i.e. 100 jobs in the script.
    pub fn note(&self) -> String {
        let n = self.job_ms.len();
        let range = |v: &[f64], unit: f64| {
            format!(
                "min={:.4} median={:.4} max={:.4}",
                percentile(v, 0.0) * unit,
                median(v) * unit,
                percentile(v, 1.0) * unit
            )
        };
        format!(
            "passes={} setup_reps={} jobs_per_pass={} p90_valid={} measured_wall_s {} \
             probe_ms {} reference_probe_ms={}",
            self.wall_s.len(),
            self.setup_s.len(),
            n,
            n >= 100,
            range(&self.wall_s, 1.0),
            range(&self.probe_s, 1e3),
            REFERENCE_S * 1e3,
        )
    }
}

/// Everything one run reports.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Print the table (with each metric's target when given), the notes, the
/// tally, and finally the JSON result line.
pub fn print(o: &Outcome, target: impl Fn(&str) -> &'static str) {
    for n in &o.notes {
        println!("# {n}");
    }
    println!(
        "# solves attempted={} failed={} failed_frac={:.4} incorrect={}",
        o.tally.attempted,
        o.tally.failed,
        o.tally.failed_frac(),
        o.tally.incorrect
    );
    for (label, n) in &o.tally.failures {
        println!("# failed solves of {label}: {n}");
    }
    println!("{:<34} {:>16} {:<8} target", "metric", "value", "unit");
    for m in &o.metrics {
        println!(
            "{:<34} {:>16.6} {:<8} {}",
            m.name,
            m.value,
            m.unit,
            target(m.name)
        );
    }
    let finite = o.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("# a metric is not finite; the run is marked incorrect");
    }
    let correct = finite && o.tally.incorrect == 0 && o.tally.attempted > 0;
    let body: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.attempted,
        o.tally.failed,
        body.join(", ")
    );
}
