//! `arest-perfbench --workload <campaign|refresh> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Exits 1 when an output was wrong, 2 on a usage or set-up error.

use arest_perfbench::run::{self, Options, Outcome, Workload};
use arest_perfbench::stats::percentile;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: arest-perfbench --workload campaign|refresh --seed N \
                     --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick: false,
        expect_digest: None,
        extra_reads: Vec::new(),
        out_dir: PathBuf::from(".perfbench-out"),
    })
}

/// Prints the report and writes the traced run's spans.
fn report(options: &Options, outcome: &Outcome) {
    let kind = if options.trace { "per-layer" } else { "end-to-end" };
    println!("workload {} seed {} ({kind})", options.workload.name(), options.seed);
    println!("facts {}", outcome.facts.to_json());
    for m in &outcome.metrics {
        print!("  {:<34} {:>16.6} {:<6}", m.name, m.value, m.unit);
        match (percentile(&m.samples, 25.0), percentile(&m.samples, 75.0)) {
            (Some(p25), Some(p75)) if m.samples.len() > 1 => {
                println!("  median of {}, quartiles {p25:.6} {p75:.6}", m.samples.len());
            }
            _ => println!(),
        }
    }
    println!("  operations: {} attempted, {} failed", outcome.tally.attempted, outcome.tally.wrong);
    for note in &outcome.tally.notes {
        eprintln!("failed: {note}");
    }
    if options.trace {
        println!("  self time by span (count, total s, self s):");
        for (name, count, total_us, self_us) in outcome.spans.by_name() {
            println!("    {name:<40} {count:>6} {:>10.4} {:>10.4}", total_us / 1e6, self_us / 1e6);
        }
        let path = options.out_dir.join(format!(
            "spans-{}-{}.json",
            options.workload.name(),
            options.seed
        ));
        let json = format!(
            "{{\"facts\": {},\n\"spans\": {}}}\n",
            outcome.facts.to_json(),
            outcome.spans.to_json()
        );
        match std::fs::write(&path, json) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run::run(&options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    report(&options, &outcome);
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
