//! Short runs of every workload: each emits every registered metric with
//! its unit, every output check passes, the tracing decorators change no
//! decision, and counts repeat exactly for a seed.

use std::path::PathBuf;
use std::sync::Arc;

use osn_perfbench::fleet::{fleet_run, Alg, Topology};
use osn_perfbench::{
    evolving, run, service, Checks, Options, Sizes, END_TO_END, PER_LAYER, WORKLOADS,
};
use osn_serde::Value;

fn options(workload: &str, seed: u64, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        sizes: Sizes::smoke(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests"),
    }
}

fn assert_emits_table(workload: &str, trace: bool) {
    let outcome = run(&options(workload, 7, trace)).expect("workload runs");
    let checks = &outcome.checks;
    assert!(checks.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(checks.failed, 0, "{workload}: {:?}", checks.failures);
    let table = if trace { PER_LAYER } else { END_TO_END };
    if !trace {
        assert!(
            outcome.metrics.missing().is_empty(),
            "{workload}: end-to-end metrics not set: {:?}",
            outcome.metrics.missing()
        );
    }
    let emitted = outcome.metrics.to_value();
    let emitted = emitted.as_object().expect("metrics object");
    assert_eq!(emitted.len(), table.len());
    for ((name, unit), (key, value)) in table.iter().zip(emitted) {
        assert_eq!(name, key);
        assert_eq!(value.field("unit").unwrap().as_str().unwrap(), *unit);
        let v: f64 = value.field("value").unwrap().decode().unwrap();
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        if !trace {
            assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
        }
    }
    assert_eq!(outcome.traced.is_some(), trace);
}

#[test]
fn fleet_compact_emits_every_metric_and_passes_its_checks() {
    assert_emits_table("fleet_compact", false);
    assert_emits_table("fleet_compact", true);
}

#[test]
fn service_tenants_emits_every_metric_and_passes_its_checks() {
    assert_emits_table("service_tenants", false);
    assert_emits_table("service_tenants", true);
}

#[test]
fn evolving_fleet_emits_every_metric_and_passes_its_checks() {
    assert_emits_table("evolving_fleet", false);
    assert_emits_table("evolving_fleet", true);
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run(&options("nope", 1, false)).is_err());
}

fn small_compact(seed: u64) -> Topology {
    let graph = osn_datasets::web_like(osn_datasets::Scale::Test, seed);
    Topology::Compact(Arc::new(graph))
}

#[test]
fn decorators_leave_fleet_traces_and_counts_bit_identical() {
    let topology = small_compact(3);
    for alg in [Alg::Cnrw, Alg::Gnrw] {
        let plain = fleet_run(&topology, alg, 30, 20, 3, false);
        osn_perfbench::trace::start();
        let traced = fleet_run(&topology, alg, 30, 20, 3, true);
        let recorded = osn_perfbench::trace::finish();
        assert!(plain.counts.complete);
        assert_eq!(plain.counts, traced.counts, "{alg:?}");
        assert!(recorded.call_ns("client.poll") > 0);
        assert!(recorded.span_ns("reactor.run") >= recorded.call_ns("client.poll"));
    }
}

#[test]
fn decorators_leave_evolving_traces_and_counts_bit_identical() {
    let opts = options("evolving_fleet", 5, true);
    let network = Arc::new(osn_datasets::gplus_like(opts.sizes.gplus_scale, opts.seed).network);
    let events = evolving::safe_events(&network.graph, &opts);
    let plain = evolving::evolving_run(&network, &events, &opts, false);
    osn_perfbench::trace::start();
    let traced = evolving::evolving_run(&network, &events, &opts, true);
    let recorded = osn_perfbench::trace::finish();
    assert!(plain.counts.complete && plain.dropped > 0);
    assert_eq!(plain.counts, traced.counts);
    assert_eq!(plain.dropped, traced.dropped);
    assert!(recorded.span_ns("walks.invalidate_nodes") > 0);
}

#[test]
fn counts_repeat_exactly_for_a_seed_and_move_with_it() {
    let topology = small_compact(11);
    let a = fleet_run(&topology, Alg::Cnrw, 25, 16, 11, false);
    let b = fleet_run(&topology, Alg::Cnrw, 25, 16, 11, false);
    let c = fleet_run(&topology, Alg::Cnrw, 25, 16, 12, false);
    assert_eq!(a.counts, b.counts);
    assert_ne!(a.counts.fingerprint, c.counts.fingerprint);

    let opts = options("service_tenants", 11, false);
    let network = Arc::new(osn_datasets::gplus_like(opts.sizes.gplus_scale, opts.seed).network);
    let mut checks = Checks::default();
    let first = service::server_run(&network, &opts, &mut checks, true);
    let verified = checks.attempted;
    let second = service::server_run(&network, &opts, &mut checks, false);
    assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    // The verifying run adds the resumed server's snapshot and the
    // comparison of its text.
    assert_eq!(verified, checks.attempted - verified + 2);
    assert!(first.checkpoints > 0);
    assert_eq!(first.counts(), second.counts());
}

/// `BENCHMARK.json` at the repository root must list exactly the
/// workloads and metric tables the harness emits.
#[test]
fn benchmark_manifest_matches_the_registry() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let manifest = Value::parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        manifest
            .field(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.field("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit")
                        .map_or(String::new(), |u| u.as_str().unwrap().to_string()),
                )
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(END_TO_END));
    assert_eq!(names("per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
