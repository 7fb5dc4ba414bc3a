//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <fleet_compact|service_tenants|evolving_fleet>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! breakdown of a traced run (and writes its spans under
//! `.perfbench_run/`). Standard output ends with a host/provenance line and
//! then the result line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.

use std::path::PathBuf;

use osn_perfbench::{host, run, write_trace, Options, Sizes, WORKLOADS};
use osn_serde::Value;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Err(usage());
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value\n{}", usage()))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{}", usage());
    Ok(Options {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        sizes: Sizes::full(),
        out_dir: PathBuf::from(".perfbench_run"),
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let host = host::record(&opts);
    if let Some(passes) = &outcome.traced {
        match write_trace(&opts.out_dir, &opts, &host, &passes.trace) {
            Ok(path) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
        }
    }
    // Every end-to-end metric applies to every workload; per-layer ones
    // read 0 where a workload does not exercise the layer.
    let missing = outcome.metrics.missing();
    if !opts.trace && !missing.is_empty() {
        eprintln!(
            "perfbench: metrics not set by {}: {}",
            opts.workload,
            missing.join(", ")
        );
    }
    let checks = &outcome.checks;
    let result = Value::obj([
        ("correct", Value::Bool(checks.failed == 0)),
        ("attempted", Value::Uint(checks.attempted)),
        ("failed", Value::Uint(checks.failed)),
        ("metrics", outcome.metrics.to_value()),
    ]);
    println!("{}", Value::obj([("host", host)]).to_compact());
    println!("{}", result.to_compact());
}
