//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. Earlier lines record the run's facts (worker count, ops,
//! samples beyond each p99, failed checks). Exits 2 on bad arguments
//! and 1 when the workload could not run at all.

use std::process::ExitCode;
use std::time::Duration;

use ksplice_perfbench::{corpus, fleet, fuzz, rebase, RunArgs};

const USAGE: &str =
    "usage: perfbench --workload <corpus|fuzz|fleet|rebase> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut args = RunArgs {
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, args))
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match workload.as_str() {
        "corpus" => corpus::run,
        "fuzz" => fuzz::run,
        "fleet" => fleet::run,
        "rebase" => rebase::run,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(mut result) => {
            result.correct &= result.failed == 0 && result.attempted > 0;
            for note in &result.notes {
                println!("# {note}");
            }
            println!("{}", result.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}
