//! `uve-perfbench --workload NAME --seed N --seconds N --trace 0|1`
//!
//! Prints the run's notes and metrics, then one JSON result line; exits
//! non-zero if any correctness check failed.

use std::process::ExitCode;

use uve_perfbench::{result_json, run, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("uve-perfbench: {e}");
            eprintln!("usage: uve-perfbench --workload NAME --seed N --seconds N --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
