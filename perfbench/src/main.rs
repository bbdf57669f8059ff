//! The benchmark command.
//!
//! ```text
//! perfbench --workload <olap_mem|scan_cold|oltp_hybrid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable lines, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! untraced, the per-layer metrics traced). Exits non-zero if any operation
//! failed or returned a wrong result.

use perfbench::{tpcc_bench, tpch_bench, RunArgs, Workload, END_TO_END, PER_LAYER};

const USAGE: &str =
    "usage: perfbench --workload <olap_mem|scan_cold|oltp_hybrid> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} hardware_threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let outcome = match (args.workload, args.trace) {
        (Workload::OltpHybrid, false) => tpcc_bench::run(&args),
        (Workload::OltpHybrid, true) => tpcc_bench::run_traced(&args),
        (_, false) => tpch_bench::run(&args),
        (_, true) => tpch_bench::run_traced(&args),
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(err) = &outcome.first_error {
        eprintln!(
            "FAILED ({} of {} operations): {err}",
            outcome.failed, outcome.attempted
        );
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        if let Some(value) = outcome.metrics.get(name) {
            println!("{name:<36} {value:>16.4} {unit}");
        }
    }
    match outcome.result_json(names) {
        Some(line) => println!("{line}"),
        None => {
            eprintln!("the run stopped before every metric was measured");
            std::process::exit(1);
        }
    }
    if outcome.failed > 0 || outcome.attempted == 0 {
        std::process::exit(1);
    }
}
