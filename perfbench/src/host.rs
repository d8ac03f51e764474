//! Calibrated host timing.
//!
//! The machines this benchmark runs on share their cores with other
//! tenants, and their speed drifts: on the 2-vCPU VM used to build it, the
//! same solve took 58 ms in one ten-second window and 95 ms in another.
//! Wall times alone therefore differ between runs by more than any
//! useful regression bound. A fixed reference kernel, timed next to
//! every operation, slows down with the machine; the ratio of the two
//! stayed within a few percent across those windows.
//!
//! Every host time in the result line is therefore *calibrated*: the
//! wall time multiplied by `REF_NOMINAL_S / t_ref`, where `t_ref` is the
//! mean of the reference times measured just before and just after the
//! operation. The values read as times on a machine on which one
//! reference run takes `REF_NOMINAL_S`. The uncalibrated wall times are
//! printed in the table as `wall.*`.

use std::time::Instant;

use crate::report::{median, quantile, secs, Report};

/// Nominal time of one reference run, about what it takes on the VM
/// described above when that VM is quiet.
const REF_NOMINAL_S: f64 = 2.0e-3;

/// The reference kernel: five rounds of streaming updates of a 512 KB
/// matrix, a burst of small allocations, and scattered reads. It must
/// never change; every calibrated metric is measured in its units.
fn reference_kernel() -> f64 {
    const N: usize = 256;
    let x: Vec<f64> = (0..N).map(|i| i as f64 * 0.25).collect();
    let mut acc = 0.0;
    for round in 0..5 {
        let mut a: Vec<f64> = (0..N * N).map(|i| (i % 97) as f64 * 0.5 + round as f64).collect();
        for k in 0..4 {
            for (i, row) in a.chunks_exact_mut(N).enumerate() {
                let c = x[i] * 1.0001;
                for (v, &r) in row.iter_mut().zip(&x) {
                    *v = *v - c * r + k as f64;
                }
            }
        }
        let small: Vec<Vec<u64>> = (0..4096).map(|i| vec![i as u64; 1 + i % 16]).collect();
        let mut j = round;
        for _ in 0..16_384 {
            j = (j * 1_103_515_245 + 12_345) % (N * N);
            acc += a[j];
        }
        acc += small.iter().map(|v| v.len() as f64).sum::<f64>();
    }
    acc
}

/// Median wall time in seconds of `reps` reference runs.
fn reference_s(reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(reference_kernel());
            secs(t)
        })
        .collect();
    median(&times)
}

/// Wall and calibrated host times of the operations and set-ups of one
/// timed loop.
pub struct HostClock {
    ref_reps: usize,
    last_ref: f64,
    ops: Vec<f64>,
    ops_cal: Vec<f64>,
    setups: Vec<f64>,
    setups_cal: Vec<f64>,
}

impl HostClock {
    /// Measures the first reference; `ref_reps` runs make each reference
    /// reading.
    pub fn new(ref_reps: usize) -> Self {
        HostClock {
            ref_reps,
            last_ref: reference_s(ref_reps),
            ops: Vec::new(),
            ops_cal: Vec::new(),
            setups: Vec::new(),
            setups_cal: Vec::new(),
        }
    }

    /// Time `f` as one operation, then read the reference again.
    pub fn op<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        let dt = secs(t);
        let before = self.last_ref;
        self.last_ref = reference_s(self.ref_reps);
        self.ops.push(dt);
        self.ops_cal.push(dt * REF_NOMINAL_S / (0.5 * (before + self.last_ref)));
        r
    }

    /// Time `f` as one set-up, calibrated by the latest reference.
    pub fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        let dt = secs(t);
        self.setups.push(dt);
        self.setups_cal.push(dt * REF_NOMINAL_S / self.last_ref);
        r
    }

    pub fn samples(&self) -> usize {
        self.ops.len()
    }

    /// Emit the host metrics. Each operation does `work` units of work
    /// (solves or jobs) and charges `steps` simulated supersteps.
    pub fn report(&self, rep: &mut Report, work: f64, steps: f64) {
        let n = self.ops.len() as f64;
        for (prefix, ops, setups) in
            [("", &self.ops_cal, &self.setups_cal), ("wall.", &self.ops, &self.setups)]
        {
            let busy: f64 = ops.iter().sum();
            let name = |m: &str| format!("{prefix}{m}");
            let table_only = !prefix.is_empty();
            let mut put = |m: &str, v: f64, unit: &'static str| {
                if table_only {
                    rep.note(format!("{:<48} {v:>18.6} {unit}", name(m)));
                } else {
                    rep.metric(m, v, unit);
                }
            };
            put("host_ms_p50", median(ops) * 1e3, "ms");
            put("host_ms_p90", quantile(ops, 0.9) * 1e3, "ms");
            put("host_ops_per_s", n * work / busy, "1/s");
            put("sim_steps_per_host_s", n * steps / busy, "1/s");
            put("setup_s", median(setups), "s");
        }
    }
}
