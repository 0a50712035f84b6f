//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host block, every metric with its unit and sample count,
//! the output checks, and (traced runs) the reconciliation line; the last
//! line of standard output is one JSON object. Exits 1 when an output
//! check fails, 2 on bad arguments or a failed set-up.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::run::{run, Metric, Report};
use perfbench::workload::{spec, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 0, seconds: 0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// A JSON number; +∞ (a percentile past the failed ops) as `1e999`,
/// which JSON readers parse as infinity.
fn num(v: f64) -> String {
    if v.is_infinite() {
        "1e999".into()
    } else {
        format!("{v}")
    }
}

fn json(report: &Report, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name,
            num(x.value),
            x.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        report.correct(),
        report.attempted,
        report.failed
    )
}

fn line(kind: &str, m: &Metric) {
    println!("{kind:<6} {:<32} {:>14} {:<9} n={}", m.name, num(m.value), m.unit, m.samples);
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {:?} (one of {})", args.workload, names.join(", "));
        return ExitCode::from(2);
    };
    let report = match run(spec, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let h = &report.host;
    println!("host   nproc={} cpu=\"{}\" loadavg=\"{}\"", h.nproc, h.cpu_model, h.loadavg);
    println!(
        "run    workload={} seed={} seconds={} trace={} generator_threads=1 connections=2",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why    {}", spec.why);
    for m in &report.e2e {
        line("e2e", m);
    }
    for m in &report.e2e_extra {
        line("e2e", m);
    }
    for m in &report.layers {
        line("layer", m);
    }
    if let Some(r) = &report.reconcile {
        println!("reconcile {r}");
    }
    if let Some(p) = &report.span_file {
        println!("spans  {}", p.display());
    }
    let [f0, f1] = report.failed_by_conn;
    println!("failed conn0(node 0)={f0} conn1(node 1)={f1} of {} attempted", report.attempted);
    for e in &report.errors {
        println!("error  {e}");
    }
    for c in &report.checks {
        println!("check  {:<20} {} {}", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    let gated = if args.trace { &report.layers } else { &report.e2e };
    println!("{}", json(&report, gated));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
