//! Command-line entry point of the campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <guided_sweep|strike_search|remote_fleet> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints facts about the run, then one
//! JSON result line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run also writes its spans
//! to `target/perfbench/spans-<workload>-<seed>.jsonl`. The `par` pool has
//! one worker per core.

use std::process::ExitCode;

use perfbench::report::Kind;
use perfbench::Options;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    if let Some(path) = opts.spans_path() {
        println!("# spans written to {}", path.display());
    }
    let kind = if opts.trace { Kind::PerLayer } else { Kind::EndToEnd };
    println!("{}", report.json_line(kind));
    ExitCode::SUCCESS
}
