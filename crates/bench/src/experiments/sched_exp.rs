//! SCHED — multi-tenant subcube scheduling vs whole-machine FCFS.
//!
//! Replays one seeded arrival trace of the paper's three applications
//! (vector-matrix multiplies, Gaussian eliminations, simplex solves)
//! through three schedulers on the same `p = 1024` machine:
//!
//! * **fcfs-whole-machine** — the status quo before this crate: one job
//!   at a time, holding all `p` nodes exclusively;
//! * **subcube-fifo** — buddy-allocated disjoint subcubes, arrival
//!   order;
//! * **subcube-spjf** — subcubes plus shortest-predicted-job-first
//!   admission ranked by the `vmp::analysis` cost forms.
//!
//! The trace injects permanent node failures mid-run (tenants abort and
//! re-plan onto healthy subcubes) and gives ~10% of jobs a recoverable
//! transient-drop fault plan. Before any number is reported, **every**
//! scheduled job's result words are asserted bit-identical to a
//! standalone run of the same job — space-sharing may change when a job
//! runs, never what it computes. Results also land in
//! `BENCH_sched.json` for regression tracking, through the same guarded
//! write as the other artifacts (a smoke run never replaces the full
//! baseline).

use serde::Serialize;
use vmp_hypercube::cost::CostModel;
use vmp_sched::{run_fcfs, run_trace, Metrics, Policy, SimConfig, SimOutcome, Trace, TraceParams};

use crate::baseline::guarded_write;
use crate::experiments::RunOpts;
use crate::table::{fmt_us, Table};

/// What `BENCH_sched.json` holds: the trace shape plus one metrics
/// block per scheduler.
#[derive(Debug, Clone, Serialize)]
pub struct SchedBench {
    /// Machine size.
    pub p: usize,
    /// Trace seed.
    pub seed: u64,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Injected permanent node failures.
    pub failures: usize,
    /// One entry per scheduler.
    pub schedulers: Vec<Metrics>,
}

/// Assert the bit-identity contract for one scheduler run.
fn assert_bit_identical(trace: &Trace, out: &SimOutcome, cost: CostModel, label: &str) {
    for r in &out.records {
        let standalone = trace.jobs[r.id].run_standalone(cost);
        assert_eq!(
            r.words, standalone.words,
            "job {} ({}) under {label} diverged from its standalone run",
            r.id, r.kind
        );
    }
}

/// SCHED: subcube space-sharing vs exclusive FCFS on one seeded trace.
/// `opts.smoke` shrinks the machine to 64 nodes and the trace to 12
/// jobs; `opts.json_path` and `opts.force` steer the guarded baseline
/// write.
#[must_use]
pub fn sched(opts: &RunOpts) -> Table {
    let smoke = opts.smoke;
    let params = if smoke { TraceParams::smoke() } else { TraceParams::full() };
    let seed = 1989u64;
    let cost = CostModel::cm2();
    let trace = Trace::generate(params, seed);

    let base = run_fcfs(&trace, params.dim, cost);
    let fifo = run_trace(&trace, SimConfig { dim: params.dim, cost, policy: Policy::Fifo });
    let spjf = run_trace(&trace, SimConfig { dim: params.dim, cost, policy: Policy::Spjf });

    for out in [&base, &fifo, &spjf] {
        assert_bit_identical(&trace, out, cost, &out.metrics.scheduler);
    }
    for out in [&fifo, &spjf] {
        assert!(
            out.metrics.throughput_jobs_per_s > base.metrics.throughput_jobs_per_s,
            "{} must beat FCFS throughput ({} vs {})",
            out.metrics.scheduler,
            out.metrics.throughput_jobs_per_s,
            base.metrics.throughput_jobs_per_s
        );
        assert!(
            out.metrics.p99_wait_us < base.metrics.p99_wait_us,
            "{} must beat FCFS p99 queueing latency ({} vs {})",
            out.metrics.scheduler,
            out.metrics.p99_wait_us,
            base.metrics.p99_wait_us
        );
    }

    let bench = SchedBench {
        p: 1usize << params.dim,
        seed,
        jobs: trace.jobs.len(),
        failures: trace.failures.len(),
        schedulers: vec![base.metrics.clone(), fifo.metrics.clone(), spjf.metrics.clone()],
    };
    let path = opts.json_path.as_deref().unwrap_or("BENCH_sched.json");
    let outcome = guarded_write(path, std::slice::from_ref(&bench), smoke, opts.force);

    let mut t = Table::new(
        "SCHED",
        if smoke {
            "multi-tenant subcube scheduling vs whole-machine FCFS (smoke trace, p = 64)"
        } else {
            "multi-tenant subcube scheduling vs whole-machine FCFS (p = 1024)"
        },
        "load-balanced subcube embeddings let one machine serve many jobs: \
         space-sharing wins throughput and tail latency at identical result bits",
        &["scheduler", "done", "thru (jobs/s)", "p50 wait", "p99 wait", "util", "aborts", "degr"],
    );
    for m in &bench.schedulers {
        t.row(vec![
            m.scheduler.clone(),
            format!("{}/{}", m.completed, bench.jobs),
            format!("{:.1}", m.throughput_jobs_per_s),
            fmt_us(m.p50_wait_us),
            fmt_us(m.p99_wait_us),
            format!("{:.0}%", 100.0 * m.utilization),
            m.aborts.to_string(),
            m.degraded_runs.to_string(),
        ]);
    }
    t.note(format!(
        "trace: {} jobs, {} node failures, seed {seed}; every scheduled result \
         asserted bit-identical to its standalone run",
        bench.jobs, bench.failures
    ));
    t.note(outcome.describe(path));
    if smoke {
        t.note("smoke trace — run without --smoke for the p = 1024 claim");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_reports_three_schedulers_and_writes_json() {
        let mut path = std::env::temp_dir();
        path.push(format!("vmp-sched-test-{}.json", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let opts = RunOpts { smoke: true, force: true, json_path: Some(path.clone()) };
        let t = sched(&opts);
        assert_eq!(t.rows.len(), 3, "baseline + two policies");
        let json = std::fs::read_to_string(&path).expect("bench json written");
        let _ = std::fs::remove_file(&path);
        assert!(json.contains("\"smoke\": true"), "envelope records the run mode: {json}");
        assert!(json.contains("subcube-spjf"));
        assert!(json.contains("fcfs-whole-machine"));
    }
}
