//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick|--full] [--web] [--max-secs N] [--out DIR] [--record PATH] [--baseline PATH]
//!       [table1|fig6|fig6batch|fig6steal|fig7|fig8|fig9|fig10|fig11|theorem3|ablation|
//!        fig_service|fig_reactor|fig_evolving|fig_scale|perf|all]
//! ```
//!
//! Each experiment prints its markdown table to stdout and, with `--out`,
//! also writes `<id>.md`, `<id>.csv` and `<id>.json` artifacts (README,
//! "Reproducing the paper's evaluation").
//!
//! `--full` runs every scale-aware target at `Scale::Full` (the largest
//! calibrated stand-ins) under a wall-clock guard: once `--max-secs`
//! (default 1800 with `--full`) has elapsed, remaining targets are skipped
//! with a notice instead of running unbounded. Defaults are unchanged
//! without the flag.
//!
//! `--web` extends `fig_scale` with the ~10⁸-edge compact-only tier
//! (minutes of build time, gigabytes of temp disk for the streaming
//! builder's spill runs).
//!
//! `perf` is the throughput-baseline target (not part of `all`): it
//! measures walker steps/sec per (graph, algorithm, execution path);
//! `--record PATH` writes the raw JSON (committed as `BENCH_walkers.json`),
//! `--baseline PATH` diffs the fresh run against a recorded baseline and
//! prints non-blocking warnings past the 15% tolerance.

use std::io::Write;
use std::path::PathBuf;

use osn_bench::perf;
use osn_datasets::Scale;
use osn_experiments::{
    ablation, fig10, fig11, fig6, fig6_batch, fig6_steal, fig7, fig8, fig9, fig_evolving,
    fig_reactor, fig_scale, fig_service, table1, theorem3, Deadline, ExperimentResult,
};

struct Options {
    quick: bool,
    full: bool,
    web: bool,
    max_secs: Option<u64>,
    out: Option<PathBuf>,
    record: Option<PathBuf>,
    baseline: Option<PathBuf>,
    targets: Vec<String>,
}

impl Options {
    /// The dataset scale the flags select (default scale when neither
    /// `--quick` nor `--full` is given).
    fn scale(&self) -> Scale {
        if self.quick {
            Scale::Test
        } else if self.full {
            Scale::Full
        } else {
            Scale::Default
        }
    }

    /// The wall-clock guard: explicit `--max-secs` wins; `--full` runs
    /// default to 30 minutes; everything else is unguarded.
    fn deadline(&self) -> Deadline {
        match (self.max_secs, self.full) {
            (Some(secs), _) => Deadline::after_secs(secs),
            (None, true) => Deadline::after_secs(1800),
            (None, false) => Deadline::unlimited(),
        }
    }
}

fn parse_args() -> Options {
    let mut quick = false;
    let mut full = false;
    let mut web = false;
    let mut max_secs = None;
    let mut out = None;
    let mut record = None;
    let mut baseline = None;
    let mut targets = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--full" => full = true,
            "--web" => web = true,
            "--max-secs" => {
                max_secs = Some(
                    args.next()
                        .expect("--max-secs requires a number")
                        .parse()
                        .expect("--max-secs requires a number of seconds"),
                );
            }
            "--out" => {
                out = Some(PathBuf::from(
                    args.next().expect("--out requires a directory"),
                ));
            }
            "--record" => {
                record = Some(PathBuf::from(
                    args.next().expect("--record requires a file"),
                ));
            }
            "--baseline" => {
                baseline = Some(PathBuf::from(
                    args.next().expect("--baseline requires a file"),
                ));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--quick|--full] [--web] [--max-secs N] [--out DIR] [--record PATH] \
                     [--baseline PATH] [table1|fig6|fig6batch|fig6steal|fig7|fig8|\
                     fig9|fig10|fig11|theorem3|ablation|fig_service|fig_reactor|fig_evolving|\
                     fig_scale|perf|all]..."
                );
                std::process::exit(0);
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        // Expand `all` in place, keeping any explicitly named extra targets
        // (`perf` is deliberately not part of `all` — it is a timing run
        // whose value is the recorded baseline, not a figure of the paper —
        // but `repro all perf` must still run it).
        let standard: Vec<String> = [
            "table1",
            "fig6",
            "fig6batch",
            "fig6steal",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "theorem3",
            "ablation",
            "fig_service",
            "fig_reactor",
            "fig_evolving",
            "fig_scale",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let extras: Vec<String> = targets
            .iter()
            .filter(|t| *t != "all" && !standard.contains(t))
            .cloned()
            .collect();
        targets = standard;
        targets.extend(extras);
    }
    if quick && full {
        eprintln!("--quick and --full are mutually exclusive");
        std::process::exit(2);
    }
    Options {
        quick,
        full,
        web,
        max_secs,
        out,
        record,
        baseline,
        targets,
    }
}

/// Run the `perf` target: measure, optionally record, optionally diff
/// against a baseline (warn-only — the perf gate never fails the build).
fn run_perf(opts: &Options) -> ExperimentResult {
    let result = perf::measure(&perf::PerfConfig::new());
    if let Some(path) = &opts.record {
        std::fs::write(path, result.to_json()).expect("write perf record");
        eprintln!("perf baseline recorded to {}", path.display());
    }
    if let Some(path) = &opts.baseline {
        let raw = std::fs::read_to_string(path).expect("read perf baseline");
        let baseline = ExperimentResult::from_json(&raw).expect("parse perf baseline");
        let deltas = perf::compare(&result, &baseline, perf::REGRESSION_TOLERANCE);
        let mut regressions = 0usize;
        for d in &deltas {
            if d.regressed {
                regressions += 1;
                // `::warning::` renders as an annotation on GitHub Actions
                // and is harmless noise elsewhere.
                println!(
                    "::warning::perf: {} regressed {:.1}% (current {:.0} steps/s vs baseline {:.0})",
                    d.label,
                    -d.ratio_delta * 100.0,
                    d.current,
                    d.baseline
                );
            }
        }
        eprintln!(
            "perf check vs {}: {} absolute cells ({} beyond the {:.0}% tolerance); non-blocking",
            path.display(),
            deltas.len(),
            regressions,
            perf::REGRESSION_TOLERANCE * 100.0
        );
    }
    result
}

fn emit(result: &ExperimentResult, out: &Option<PathBuf>) {
    println!("{}", result.to_markdown());
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create output dir");
        let write = |ext: &str, content: String| {
            let path = dir.join(format!("{}.{ext}", result.id));
            let mut f = std::fs::File::create(&path).expect("create artifact");
            f.write_all(content.as_bytes()).expect("write artifact");
        };
        write("md", result.to_markdown());
        write("csv", result.to_csv());
        write("json", result.to_json());
    }
}

fn main() {
    let opts = parse_args();
    let started = std::time::Instant::now();
    let deadline = opts.deadline();
    for target in &opts.targets {
        if deadline.exceeded() {
            eprintln!(
                "== wall-clock guard ({:?}) exceeded after {:.1?}: skipping {target} ==",
                deadline.limit().expect("guard fired"),
                deadline.elapsed()
            );
            continue;
        }
        let t0 = std::time::Instant::now();
        eprintln!(
            "== running {target} ({}) ==",
            if opts.quick {
                "quick"
            } else if opts.full {
                "full"
            } else {
                "default"
            }
        );
        match target.as_str() {
            "table1" => {
                emit(&table1::run(opts.scale(), 1), &opts.out);
            }
            "fig6" => {
                let config = if opts.quick {
                    fig6::Fig6Config::quick()
                } else {
                    fig6::Fig6Config {
                        scale: opts.scale(),
                        ..Default::default()
                    }
                };
                emit(&fig6::run(&config), &opts.out);
            }
            "fig6batch" => {
                let config = if opts.quick {
                    fig6_batch::Fig6BatchConfig::quick()
                } else {
                    fig6_batch::Fig6BatchConfig {
                        scale: opts.scale(),
                        ..Default::default()
                    }
                };
                emit(&fig6_batch::run(&config), &opts.out);
            }
            "fig6steal" => {
                let config = if opts.quick {
                    fig6_steal::Fig6StealConfig::quick()
                } else {
                    Default::default()
                };
                emit(&fig6_steal::run(&config), &opts.out);
            }
            "fig7" => {
                let config = if opts.quick {
                    fig7::Fig7Config::quick()
                } else {
                    fig7::Fig7Config {
                        scale: opts.scale(),
                        ..Default::default()
                    }
                };
                let r = fig7::run(&config);
                for panel in [
                    &r.facebook_kl,
                    &r.facebook_l2,
                    &r.facebook_error,
                    &r.youtube_error,
                ] {
                    emit(panel, &opts.out);
                }
            }
            "fig8" => {
                let config = if opts.quick {
                    fig8::Fig8Config::quick()
                } else {
                    fig8::Fig8Config {
                        scale: opts.scale(),
                        ..Default::default()
                    }
                };
                for panel in fig8::run(&config) {
                    // Figure 8 has one row per node; print a summary to
                    // stdout and write the full series only to --out.
                    let mut summary = panel.clone();
                    summary.series.clear();
                    for s in &panel.series {
                        let head: Vec<f64> = s.y.iter().rev().take(5).rev().copied().collect();
                        summary
                            .notes
                            .push(format!("{}: top-5 degree-rank probs {head:?}", s.label));
                    }
                    println!("{}", summary.to_markdown());
                    if let Some(dir) = &opts.out {
                        std::fs::create_dir_all(dir).expect("create output dir");
                        std::fs::write(dir.join(format!("{}.csv", panel.id)), panel.to_csv())
                            .expect("write artifact");
                        std::fs::write(dir.join(format!("{}.json", panel.id)), panel.to_json())
                            .expect("write artifact");
                    }
                }
            }
            "fig9" => {
                let config = if opts.quick {
                    fig9::Fig9Config::quick()
                } else {
                    fig9::Fig9Config {
                        scale: opts.scale(),
                        ..Default::default()
                    }
                };
                let r = fig9::run(&config);
                emit(&r.average_degree, &opts.out);
                emit(&r.average_reviews, &opts.out);
            }
            "fig10" => {
                let config = if opts.quick {
                    fig10::Fig10Config::quick()
                } else {
                    Default::default()
                };
                let r = fig10::run(&config);
                for panel in [&r.kl, &r.l2, &r.error] {
                    emit(panel, &opts.out);
                }
            }
            "fig11" => {
                let config = if opts.quick {
                    fig11::Fig11Config::quick()
                } else {
                    Default::default()
                };
                let r = fig11::run(&config);
                for panel in [&r.kl, &r.l2, &r.error] {
                    emit(panel, &opts.out);
                }
            }
            "ablation" => {
                let config = if opts.quick {
                    ablation::AblationConfig::quick()
                } else {
                    Default::default()
                };
                emit(&ablation::run(&config), &opts.out);
                emit(&ablation::run_budget(&config), &opts.out);
            }
            "theorem3" => {
                let config = if opts.quick {
                    theorem3::Theorem3Config::quick()
                } else {
                    Default::default()
                };
                emit(&theorem3::run(&config), &opts.out);
            }
            "fig_service" | "figservice" => {
                let config = if opts.quick {
                    fig_service::FigServiceConfig::quick()
                } else {
                    fig_service::FigServiceConfig {
                        scale: opts.scale(),
                        ..Default::default()
                    }
                };
                emit(&fig_service::run(&config), &opts.out);
            }
            "fig_reactor" | "figreactor" => {
                let config = if opts.quick {
                    fig_reactor::FigReactorConfig::quick()
                } else {
                    fig_reactor::FigReactorConfig {
                        scale: opts.scale(),
                        ..Default::default()
                    }
                };
                emit(&fig_reactor::run(&config), &opts.out);
            }
            "fig_evolving" | "figevolving" => {
                let config = if opts.quick {
                    fig_evolving::FigEvolvingConfig::quick()
                } else {
                    fig_evolving::FigEvolvingConfig {
                        scale: opts.scale(),
                        ..Default::default()
                    }
                };
                emit(&fig_evolving::run(&config), &opts.out);
            }
            "fig_scale" | "figscale" => {
                let mut config = if opts.quick {
                    fig_scale::FigScaleConfig::quick()
                } else if opts.full {
                    fig_scale::FigScaleConfig::full()
                } else {
                    fig_scale::FigScaleConfig::default()
                };
                // The per-tier guard inherits the run's wall-clock limit so
                // an oversized tier cannot blow through the outer deadline.
                config.max_secs = opts.max_secs.or(opts.full.then_some(1800));
                if opts.web {
                    config = config.with_web_tier();
                }
                emit(&fig_scale::run(&config), &opts.out);
            }
            "perf" => {
                let result = run_perf(&opts);
                emit(&result, &opts.out);
            }
            other => {
                eprintln!("unknown target `{other}` (see --help)");
                std::process::exit(2);
            }
        }
        eprintln!("== {target} done in {:.1?} ==\n", t0.elapsed());
    }
    eprintln!("all targets done in {:.1?}", started.elapsed());
}
