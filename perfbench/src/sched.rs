//! The multi-tenant workload: `sched::run_trace` under shortest-
//! predicted-job-first admission on a p=1024 machine, replayed at a
//! ladder of offered rates (an open loop in simulated time) while the
//! host runs the replays back to back (a closed loop).

use std::collections::VecDeque;
use std::time::Instant;

use vmp_algos::gauss::build_augmented;
use vmp_algos::{simplex, workloads};
use vmp_core::prelude::*;
use vmp_hypercube::{Cube, ResilientConfig};
use vmp_sched::{
    run_trace, BuddyAllocator, JobKind, JobOutput, JobSpec, Policy, SimConfig, SimOutcome, Trace,
    TraceParams,
};

use crate::ge::{ge_layers, traced_solve, GeTally};
use crate::host::HostClock;
use crate::layers::Layers;
use crate::report::{median, quantile, secs, Report};
use crate::spans::Spans;

pub const WORKLOAD: &str = "sched-p1024-mix";
const DIM: u32 = 10;
/// Jobs per trace.
const JOBS: usize = 4000;
/// Offered rates of the ladder, jobs per simulated second.
const RATES: [f64; 5] = [1000.0, 1500.0, 2000.0, 2500.0, 3000.0];
/// The rate the host timings and the headline simulated figures use.
const HEADLINE: f64 = 2500.0;
/// Span names of the standalone job runs, in [`kind_index`] order.
const EXEC_SPANS: [&str; 3] =
    ["sched.execute.matvec", "sched.execute.gauss", "sched.execute.simplex"];
/// A rate is sustained while the p99 wait stays within this limit.
const WAIT_LIMIT_US: f64 = 10_000.0;
/// ... and completions keep up with at least this share of arrivals.
const BACKLOG_SHARE: f64 = 0.95;
/// Set-ups timed per replay; `setup_s` is their median over the run.
const SETUPS_PER_REPLAY: usize = 20;
/// Reference runs per calibration reading: a replay takes seconds, so
/// each reading is the median of several.
const REF_REPS: usize = 5;

fn cfg() -> SimConfig {
    SimConfig { dim: DIM, cost: CostModel::cm2(), policy: Policy::Spjf }
}

fn params(rate: f64) -> TraceParams {
    TraceParams { dim: DIM, jobs: JOBS, mean_gap_us: 1e6 / rate, failures: 2 }
}

/// The standalone run of every job: the correctness oracle.
fn oracle(trace: &Trace) -> Vec<JobOutput> {
    trace.jobs.iter().map(|j| j.run_standalone(cfg().cost)).collect()
}

fn kind_index(kind: JobKind) -> usize {
    match kind {
        JobKind::Matvec { .. } => 0,
        JobKind::Gauss { .. } => 1,
        JobKind::Simplex { .. } => 2,
    }
}

/// Every job completed, none skipped, and every result equals its
/// standalone run bit for bit. Each job is one checked operation.
fn check(rep: &mut Report, out: &SimOutcome, trace: &Trace, want: &[JobOutput]) {
    rep.check(out.metrics.skipped == 0, || format!("{} jobs skipped", out.metrics.skipped));
    let mut by_id: Vec<Option<&Vec<u64>>> = vec![None; trace.jobs.len()];
    for r in &out.records {
        if let Some(slot) = by_id.get_mut(r.id) {
            *slot = Some(&r.words);
        }
    }
    for (id, (got, want)) in by_id.iter().zip(want).enumerate() {
        rep.check(got.is_some_and(|w| *w == want.words), || {
            format!("job {id}: scheduled result differs from its standalone run")
        });
    }
}

/// Simulated figures of one replay.
struct Sim {
    resp_mean_ms: f64,
    resp_p99_ms: f64,
    wait_p99_ms: f64,
    jobs_per_s: f64,
    sustained: bool,
}

fn sim(out: &SimOutcome, trace: &Trace) -> Sim {
    let resp: Vec<f64> = out.records.iter().map(|r| r.finish_us - r.arrival_us).collect();
    let last_arrival = trace.jobs.last().map_or(1.0, |j| j.arrival_us);
    let offered = trace.jobs.len() as f64 / (last_arrival / 1e6);
    let m = &out.metrics;
    Sim {
        resp_mean_ms: resp.iter().sum::<f64>() / resp.len().max(1) as f64 / 1e3,
        resp_p99_ms: quantile(&resp, 0.99) / 1e3,
        wait_p99_ms: m.p99_wait_us / 1e3,
        jobs_per_s: m.throughput_jobs_per_s,
        sustained: m.p99_wait_us <= WAIT_LIMIT_US
            && m.throughput_jobs_per_s >= BACKLOG_SHARE * offered,
    }
}

fn same_jobs(a: &Trace, b: &Trace) -> bool {
    a.jobs.len() == b.jobs.len()
        && a.jobs.iter().zip(&b.jobs).all(|(x, y)| {
            x.kind == y.kind
                && x.order == y.order
                && x.seed == y.seed
                && x.drop_rate.to_bits() == y.drop_rate.to_bits()
        })
}

/// Message supersteps of the completed jobs' standalone runs.
fn steps_per_replay(want: &[JobOutput]) -> u64 {
    want.iter().map(|o| o.counters.message_steps).sum()
}

pub fn run_timed(seed: u64, seconds: f64, rep: &mut Report) {
    let set_up = || RATES.map(|rate| Trace::generate(params(rate), seed));
    let traces = set_up();
    let head = RATES.iter().position(|&r| r == HEADLINE).expect("headline rate is on the ladder");
    let want = oracle(&traces[head]);

    // The ladder: one replay per rate, each checked. The headline
    // rate's replay is the reference every timed replay must match.
    let mut max_rate = 0.0;
    let mut reference = None;
    for (rate, trace) in RATES.iter().zip(&traces) {
        let own;
        let w = if same_jobs(trace, &traces[head]) {
            &want
        } else {
            own = oracle(trace);
            &own
        };
        let out = run_trace(trace, cfg());
        check(rep, &out, trace, w);
        let s = sim(&out, trace);
        rep.note(format!(
            "# ladder {rate:>6} jobs/s: p99 wait {:.3} ms, {:.1} jobs/s, sustained {}",
            s.wait_p99_ms, s.jobs_per_s, s.sustained
        ));
        if s.sustained {
            max_rate = *rate;
        }
        if *rate == HEADLINE {
            reference = Some((out, s));
        }
    }
    let (reference, head_sim) = reference.expect("headline rate is on the ladder");
    let trace = &traces[head];
    let mut clock = HostClock::new(REF_REPS);
    let start = Instant::now();
    while secs(start) < seconds || clock.samples() < 3 {
        let out = clock.op(|| run_trace(trace, cfg()));
        check(rep, &out, trace, &want);
        let same = out.records.len() == reference.records.len()
            && out.records.iter().zip(&reference.records).all(|(a, b)| {
                a.finish_us.to_bits() == b.finish_us.to_bits() && a.attempts == b.attempts
            });
        rep.check(same, || {
            "replay schedule differs from the ladder replay at the headline rate".into()
        });
        for _ in 0..SETUPS_PER_REPLAY {
            clock.setup(set_up);
        }
    }
    clock.report(rep, JOBS as f64, steps_per_replay(&want) as f64);
    rep.metric("sim_ms", head_sim.resp_mean_ms, "ms");
    rep.metric("sim_p99_ms", head_sim.resp_p99_ms, "ms");
    rep.metric("sim_jobs_per_s", head_sim.jobs_per_s, "1/s");
    rep.metric("sim_max_rate_jobs_per_s", max_rate, "1/s");
    rep.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    rep.note(format!(
        "# {} timed replays of {JOBS} jobs at {HEADLINE} jobs/s; sim_wait_p99_ms {:.6} ms",
        clock.samples(),
        head_sim.wait_p99_ms
    ));
}

/// Build a job's distributed input the way the job does, for
/// `layout.build_ms`.
fn build_input(spec: &JobSpec) -> DistMatrix<f64> {
    let grid = ProcGrid::square(Cube::new(spec.order));
    match spec.kind {
        JobKind::Matvec { n } => {
            let d = workloads::random_matrix(n, n, spec.seed);
            DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), grid), |i, j| d.get(i, j))
        }
        JobKind::Gauss { n } => {
            let (a, b, _) = workloads::diag_dominant_system(n, spec.seed);
            build_augmented(&a, &b, grid)
        }
        JobKind::Simplex { n } => {
            simplex::build_tableau(&workloads::random_dense_lp(n, n, spec.seed), grid)
        }
    }
}

/// Allocate every job's order in arrival order, releasing the oldest
/// tenant whenever the pool is full. Returns allocator calls made.
fn alloc_replay(trace: &Trace) -> u64 {
    let mut alloc = BuddyAllocator::new(DIM);
    let mut live = VecDeque::new();
    let mut calls = 0u64;
    for job in &trace.jobs {
        loop {
            calls += 1;
            if let Some(sub) = alloc.allocate(job.order) {
                live.push_back(sub);
                break;
            }
            let Some(oldest) = live.pop_front() else { break };
            alloc.release(oldest);
            calls += 1;
        }
    }
    for sub in live {
        alloc.release(sub);
        calls += 1;
    }
    calls
}

/// The traced run. One operation: generate the headline trace, replay
/// it, run every job standalone (the oracle), call `predicted_us` for
/// every job, replay the allocator, build every job's input, and drive
/// every elimination job through the traced column-by-column solve
/// with its fault plan installed.
pub fn run_traced(seed: u64, seconds: f64, rep: &mut Report) -> Spans {
    let mut sp = Spans::new();
    let mut tally = GeTally::default();
    let mut l = Layers::default();
    let mut untraced = Vec::new();
    let mut self_ms = Vec::new();
    let mut alloc_calls = 0u64;
    let mut predict_calls = 0u64;
    let mut err: [Vec<f64>; 3] = Default::default();
    let mut last: Option<(SimOutcome, Vec<JobOutput>)> = None;
    let cost = cfg().cost;
    let mut op = 0u64;
    let start = Instant::now();
    while secs(start) < seconds || op < 2 {
        let trace = sp.leaf("sched.trace_generate", op, || Trace::generate(params(HEADLINE), seed));
        let t = Instant::now();
        let untraced_out = run_trace(&trace, cfg());
        untraced.push(secs(t));
        let t = Instant::now();
        let out = sp.leaf("sched.run_trace", op, || run_trace(&trace, cfg()));
        let run_ns = t.elapsed().as_nanos() as f64;

        let mut want = Vec::with_capacity(trace.jobs.len());
        let mut exec_ns = Vec::with_capacity(trace.jobs.len());
        for job in &trace.jobs {
            let t = Instant::now();
            let o = sp.leaf(EXEC_SPANS[kind_index(job.kind)], op, || job.execute(cost, &[]));
            exec_ns.push(t.elapsed().as_nanos() as f64);
            want.push(o);
        }
        check(rep, &out, &trace, &want);
        check(rep, &untraced_out, &trace, &want);
        let attempts: Vec<f64> = {
            let mut a = vec![1.0; trace.jobs.len()];
            for r in &out.records {
                a[r.id] = f64::from(r.attempts);
            }
            a
        };
        let exec_total: f64 = exec_ns.iter().zip(&attempts).map(|(ns, a)| ns * a).sum();
        self_ms.push((run_ns - exec_total) / 1e6);

        let predicted = sp.leaf("sched.predicted_us", op, || {
            trace.jobs.iter().map(|j| j.predicted_us(j.order, &cost)).collect::<Vec<_>>()
        });
        predict_calls += trace.jobs.len() as u64;
        if op == 0 {
            for ((job, o), pred) in trace.jobs.iter().zip(&want).zip(&predicted) {
                let k = kind_index(job.kind);
                err[k].push((pred / o.service_us - 1.0).abs());
            }
        }
        alloc_calls += sp.leaf("sched.alloc_replay", op, || alloc_replay(&trace));
        sp.span("layout.build_jobs", op, |sp| {
            for job in &trace.jobs {
                sp.leaf("layout.build", op, || std::hint::black_box(build_input(job)));
            }
        });

        for (job, o) in trace.jobs.iter().zip(&want) {
            let JobKind::Gauss { n } = job.kind else { continue };
            let mut hc = Hypercube::new(job.order, cost);
            let (a, b, _) = workloads::diag_dominant_system(n, job.seed);
            let mut aug = build_augmented(&a, &b, ProcGrid::square(hc.cube()));
            let plan = job.plan();
            if !plan.is_empty() {
                hc.install_faults(plan, ResilientConfig::default());
            }
            let guard_before = tally.guard_failures;
            let words = match traced_solve(&mut sp, op, &mut hc, &mut aug, &mut tally) {
                Ok(x) => std::iter::once(1).chain(x.iter().map(|v| v.to_bits())).collect(),
                Err(_) => vec![u64::MAX],
            };
            rep.check(words == o.words && tally.guard_failures == guard_before, || {
                format!("job {}: traced solve differs from its standalone run", job.id)
            });
        }
        last = Some((out, want));
        op += 1;
    }

    ge_layers(&sp, &tally, &mut l);
    for (k, name) in EXEC_SPANS.iter().enumerate() {
        let d = sp.durations(name);
        if !d.is_empty() {
            l.job_host_us[k] = median(&d) / 1e3;
        }
        if !err[k].is_empty() {
            l.predict_err_p90[k] = quantile(&err[k], 0.9);
        }
    }
    if let Some((out, want)) = &last {
        let jobs = want.len().max(1) as f64;
        l.set_counts(want.iter().map(|o| &o.counters), 1.0);
        l.attempts_per_job = out.records.iter().map(|r| f64::from(r.attempts)).sum::<f64>() / jobs;
        l.utilization = out.metrics.utilization;
        l.degraded_runs = out.metrics.degraded_runs as f64;
        l.wait_p99_ms = out.metrics.p99_wait_us / 1e3;
    }
    l.sched_self_ms = median(&self_ms);
    l.alloc_ns_per_op = sp.total_ns("sched.alloc_replay") / alloc_calls.max(1) as f64;
    l.predict_ns_per_call = sp.total_ns("sched.predicted_us") / predict_calls.max(1) as f64;
    l.build_ms = median(&sp.durations("layout.build_jobs")) / 1e6;
    l.trace_overhead_ms =
        (median(&sp.durations("sched.run_trace")) / 1e6) - median(&untraced) * 1e3;
    l.emit(rep);
    rep.note(format!(
        "# {op} traced operations; replay guard compared {} steps, {} differed",
        tally.steps_checked, tally.guard_failures
    ));
    sp
}
