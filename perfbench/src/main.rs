//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics untraced, the per-layer metrics traced. Progress and
//! check failures go to standard error.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::alloc::CountingAlloc;
use perfbench::metrics::{Outcome, END_TO_END, PER_LAYER};
use perfbench::sim::Workload;
use perfbench::trace::Tracer;
use perfbench::{query, sim, udp};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Mean cost of one empty span, ns: what tracing adds to every call.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 100_000;
    let mut tracer = Tracer::new();
    let name = tracer.name("empty");
    let start = Instant::now();
    for _ in 0..SPANS {
        let id = tracer.enter(name);
        tracer.exit(id);
    }
    start.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let simulation = Workload::ALL
        .into_iter()
        .find(|workload| workload.name() == args.workload);
    let mut tracer = Tracer::new();
    let outcome = match (args.workload.as_str(), simulation, args.trace) {
        (_, Some(workload), false) => sim::run(workload, args.seed, budget),
        (_, Some(workload), true) => sim::run_traced(workload, args.seed, &mut tracer),
        ("query_mixed_100k", None, false) => query::run(args.seed, budget),
        ("query_mixed_100k", None, true) => query::run_traced(args.seed, budget, &mut tracer),
        ("udp_loopback", None, false) => udp::run(budget).map_err(|e| e.to_string())?,
        ("udp_loopback", None, true) => {
            udp::run_traced(args.seed, budget, &mut tracer).map_err(|e| e.to_string())?
        }
        (other, None, _) => return Err(format!("unknown workload {other}")),
    };
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let catalogue = if args.trace {
        outcome.set("trace.span_ns", span_cost_ns());
        PER_LAYER
    } else {
        END_TO_END
    };
    match outcome.render(catalogue) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
