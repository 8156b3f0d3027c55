//! `verifybench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable table, then one JSON line: `correct`,
//! `attempted`, `failed` and the metrics — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 2 on a usage
//! error and 1 when a traced run fails a fidelity check.

use gem_verifybench::run::{traced_run, untraced_run};
use gem_verifybench::workload::{instances, WORKLOADS};

const USAGE: &str = "usage: verifybench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad("a number of seconds"));
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("verifybench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(set) = instances(&args.workload) else {
        eprintln!(
            "verifybench: unknown workload {:?}; one of {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    let result = if args.trace {
        traced_run(set, args.seed, args.seconds)
    } else {
        untraced_run(set, args.seed, args.seconds)
    };
    let outcome = result.unwrap_or_else(|e| {
        eprintln!(
            "verifybench: {} (trace {}): {e}",
            args.workload,
            u8::from(args.trace)
        );
        std::process::exit(1);
    });
    println!(
        "workload {} seed {} trace {}: {} verdict(s), {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    for failure in &outcome.failures {
        println!("  FAILED {failure}");
    }
    for m in &outcome.metrics {
        println!(
            "  {:<30} {:>16.6} {:<12} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!("{}", outcome.to_json());
}
