//! Benchmark of the simulated hypercube stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ge-p1024-n64 --seed 1989 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `ge-p1024-n64`, `ge-p64-n512-allport`, `sched-p1024-mix`
//! (see `perfbench/README.md`). With `--trace 0` the run is timed
//! untraced and prints the end-to-end metrics; with `--trace 1` it is
//! the traced run, prints the per-layer metrics and writes its spans to
//! `perfbench/out/` (the first 100 000 of them). Every output is
//! checked; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod ge;
mod host;
mod layers;
mod report;
mod sched;
mod spans;

use report::{Args, Report};

/// Spans written out (about 10 MB); the metrics use every span.
const SPANS_WRITTEN: usize = 100_000;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    let spans = if let Some(w) = ge::spec(&args.workload) {
        if args.trace {
            Some(ge::run_traced(&w, args.seed, args.seconds, &mut rep))
        } else {
            ge::run_timed(&w, args.seed, args.seconds, &mut rep);
            None
        }
    } else if args.workload == sched::WORKLOAD {
        if args.trace {
            Some(sched::run_traced(args.seed, args.seconds, &mut rep))
        } else {
            sched::run_timed(args.seed, args.seconds, &mut rep);
            None
        }
    } else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    if let Some(sp) = spans {
        let path = std::path::PathBuf::from("perfbench/out")
            .join(format!("spans-{}.jsonl", args.workload));
        if let Err(e) = sp.write_jsonl(&path, SPANS_WRITTEN) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    rep.print();
    if !rep.correct() {
        std::process::exit(1);
    }
}
