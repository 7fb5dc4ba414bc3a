//! The metric registry: every name the benchmark emits, with its unit.
//! `BENCHMARK.json` at the repository root lists the same tables (a test
//! keeps them in step).

use std::collections::BTreeMap;

use osn_serde::Value;

/// End-to-end metrics, reported by plain runs of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("steps_per_s", "1/s"),
    ("queries_per_kstep", "1/kstep"),
    ("virtual_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs of every workload. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-scoped end-to-end figures (from the traced run's plain
    // passes; see README.md for why they are not in the bounded set).
    ("steps_per_s.cnrw", "1/s"),
    ("steps_per_s.gnrw", "1/s"),
    ("slice_p50_us", "us"),
    ("slice_p99_us", "us"),
    ("slice_samples", "count"),
    ("snapshot_mb_s", "MB/s"),
    ("resume_mb_s", "MB/s"),
    ("estimate_nrmse", "ratio"),
    // osn-graph
    ("graph.build_s", "s"),
    ("graph.build_mb_s", "MB/s"),
    ("graph.open_validate_s", "s"),
    ("graph.compact_mib", "MiB"),
    ("graph.compression_ratio", "ratio"),
    ("graph.decode_share", "share"),
    ("graph.decode_cache_hit_rate", "share"),
    ("graph.overlay_apply_us", "us"),
    ("graph.overlay_patched_nodes", "count"),
    ("graph.overlay_heap_kib", "KiB"),
    // osn-client
    ("client.submit_ns", "ns"),
    ("client.submit_busy_share", "share"),
    ("client.poll_ns", "ns"),
    ("client.poll_busy_share", "share"),
    ("client.batches", "count"),
    ("client.ids_per_batch", "count"),
    ("client.retries", "count"),
    ("client.node_drops", "count"),
    ("client.attempts_per_batch", "ratio"),
    ("client.unique_per_issued", "share"),
    // osn-walks reactor
    ("reactor.self_share", "share"),
    ("reactor.events", "count"),
    ("reactor.synthetic_ticks", "count"),
    ("reactor.peak_in_flight", "count"),
    ("reactor.peak_queued", "count"),
    ("reactor.peak_parked", "count"),
    ("reactor.dedup_ratio", "ratio"),
    // osn-walks walkers
    ("walks.step_ns.cnrw", "ns"),
    ("walks.step_ns.gnrw", "ns"),
    ("walks.step_busy_share", "share"),
    ("walks.invalidate_ms", "ms"),
    ("walks.invalidate_ns_per_walker_node", "ns"),
    ("walks.histories_dropped", "count"),
    ("walks.allocs_per_step", "count"),
    ("walks.alloc_bytes_per_step", "B"),
    // osn-service
    ("service.snapshot_ms", "ms"),
    ("service.resume_ms", "ms"),
    ("service.checkpoints", "count"),
    ("service.slices", "count"),
    ("service.steps_per_slice", "count"),
    ("service.cache_hit_share", "share"),
    ("service.jobs_completed", "count"),
    ("service.jobs_refused", "count"),
    ("service.fair_share_max_dev", "share"),
    // osn-serde
    ("serde.to_pretty_mb_s", "MB/s"),
    ("serde.parse_mb_s", "MB/s"),
    ("serde.snapshot_bytes", "B"),
    // osn-datasets
    ("datasets.generate_s", "s"),
    // The traced run itself
    ("trace_overhead", "ratio"),
    ("trace.attributed_share", "share"),
    ("trace.unattributed_share", "share"),
];

/// Metric values of one run, restricted to one table.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set for a plain (`traced == false`) or traced run.
    pub fn new(traced: bool) -> Self {
        Metrics {
            table: if traced { PER_LAYER } else { END_TO_END },
            values: BTreeMap::new(),
        }
    }

    /// Set `name`; ignored when it belongs to the other table, because
    /// workloads compute both kinds in shared code.
    ///
    /// # Panics
    /// When `name` is in neither table — a typo in the harness.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not registered"
        );
        if self.table.iter().any(|(n, _)| *n == name) {
            self.values.insert(name, value);
        }
    }

    /// Names of this run's table that were never set.
    pub fn missing(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }

    /// `{name: {"value": v, "unit": u}}` over the whole table; a per-layer
    /// metric the workload does not exercise reads 0.
    pub fn to_value(&self) -> Value {
        Value::Obj(
            self.table
                .iter()
                .map(|(name, unit)| {
                    let value = self.values.get(name).copied().unwrap_or(0.0);
                    (
                        name.to_string(),
                        Value::obj([
                            ("value", Value::Num(value)),
                            ("unit", Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}
