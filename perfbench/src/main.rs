//! Seeded end-to-end benchmark of the AirDnD simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corner_offload --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the timed, untraced closed loop and reports the
//! end-to-end metrics; `--trace 1` runs the traced per-layer run and the
//! layer probes. Either way the last line of standard output is one JSON
//! object: `correct`, `attempted` and `failed` count scenario runs and
//! their checks, `metrics` maps each metric name to its value and unit.
//! See `perfbench/README.md`.

mod e2e;
mod layers;
mod stats;
mod workload;

use e2e::Book;
use stats::Metrics;
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload <corner_offload|city_mesh|highway_churn> \
                     --seed <u64> --seconds <1..=60> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    if argv.len() != 8 {
        return Err("expected exactly the four flags".to_owned());
    }
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut book = Book::default();
    let metrics = if args.trace {
        let mut m = layers::measure(args.workload, args.seed, &mut book);
        m.push(
            "run_fail_share",
            book.failed as f64 / book.attempted.max(1) as f64,
            "ratio",
        );
        m
    } else {
        e2e::measure(args.workload, args.seed, args.seconds, &mut book)
    };
    print_result(&book, &metrics);
    ExitCode::SUCCESS
}

/// Prints one `name value unit` line per metric, then the JSON result
/// line. A non-finite value cannot be a measurement: it marks the run
/// incorrect and prints as `null`.
fn print_result(book: &Book, metrics: &Metrics) {
    let mut correct = book.failed == 0;
    let mut fields = Vec::new();
    for (name, value, unit) in metrics.iter() {
        println!("{name:<36} {value:>16.6} {unit}");
        let value = if value.is_finite() {
            value.to_string()
        } else {
            correct = false;
            "null".to_owned()
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        book.attempted,
        book.failed,
        fields.join(", ")
    );
}
