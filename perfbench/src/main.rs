//! The cubesfc benchmark: one command per workload.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep|serve_hot|serve_cold --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics
//! with every observability feature of the program off. With `--trace 1`
//! it runs the per-layer suite instead. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! A failed correctness check makes the run exit 1; bad arguments exit 2.
//! See README.md for the metrics and what each should move.

mod check;
mod client;
mod keys;
mod layers;
mod serve;
mod stats;
mod sweep;

use std::process::ExitCode;

/// Set-ups measured per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 3] = ["paper_sweep", "serve_hot", "serve_cold"];

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The first few check failures, for the report.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Count one operation, failed if `result` is an error.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(error);
        }
    }

    /// Fold in another outcome's counts and errors.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 10usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Client threads, server workers and engine jobs: the machine's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// End-to-end metrics are measured with the program's own profiling,
/// tracing, telemetry and access log all off.
pub fn assert_observability_off() -> Result<(), String> {
    use cubesfc::obs;
    if obs::enabled() || obs::trace_enabled() || obs::telemetry_enabled() || obs::access_enabled() {
        return Err("program observability is on in an untraced run".to_string());
    }
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return layers::run(args);
    }
    assert_observability_off()?;
    match args.workload.as_str() {
        "paper_sweep" => sweep::run(args),
        "serve_hot" => serve::run_hot(args),
        _ => serve::run_cold(args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            return ExitCode::FAILURE;
        }
        println!("# {name:<34} {value:>16.4} {unit}");
    }
    for e in &outcome.errors {
        println!("# check failed: {e}");
    }
    println!("{}", outcome.to_json());
    if outcome.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse(&[
            "--workload",
            "serve_hot",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_hot", 9, 3, true)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "serve_hot", "--trace", "2"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.op(Ok(()));
        o.op(Err("bad".into()));
        o.metric("wall_s", 1.25, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
