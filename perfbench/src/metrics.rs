//! The metric names the benchmark reports, in the order it prints them.
//!
//! `E2E` and `PER_LAYER` are the sets `BENCHMARK.json` declares; every
//! workload reports every one of them (a per-layer count or share of a
//! layer the workload does not reach is 0). `EXTRA` are printed in the
//! report line of the workloads that reach them: absolute layer times that
//! only one kind of workload can measure.

use std::collections::BTreeMap;

pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_ms.p50", "ms"),
    ("query_ms.p50", "ms"),
    ("query_ms.tail", "ms"),
    ("queries_per_s", "1/s"),
    ("fact_ms.p50", "ms"),
    ("fact_ms.tail", "ms"),
    ("peak_rss_mib", "MiB"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.share", "share"),
    ("parser.mb_per_s", "MB/s"),
    ("opt.share", "share"),
    ("opt.rules_before", "count"),
    ("opt.rules_after", "count"),
    ("opt.idb_arity_before", "count"),
    ("opt.idb_arity_after", "count"),
    ("eval.share", "share"),
    ("eval.cpu_util", "ratio"),
    ("eval.enum_share", "share"),
    ("eval.merge_share", "share"),
    ("eval.outside_iter_share", "share"),
    ("eval.tasks_per_iter.max", "count"),
    ("eval.tasks_per_iter.mean", "count"),
    ("eval.iterations", "count"),
    ("eval.facts_derived", "count"),
    ("eval.derivations", "count"),
    ("eval.duplicates", "count"),
    ("eval.useful_ratio", "ratio"),
    ("eval.tuples_scanned", "count"),
    ("eval.index_probes", "count"),
    ("storage.bloom_probes", "count"),
    ("storage.bloom_skip_ratio", "ratio"),
    ("storage.consolidations", "count"),
    ("storage.index_rebuilds", "count"),
    ("render.share", "share"),
    ("render.bytes", "bytes"),
    ("incremental.share", "share"),
    ("incremental.applied_facts", "count"),
    ("server.phase.parse_share", "share"),
    ("server.phase.cache_share", "share"),
    ("server.phase.eval_share", "share"),
    ("server.phase.serialize_share", "share"),
    ("server.cache.resident_share", "share"),
    ("server.cache.answers_share", "share"),
    ("server.cache.hit_share", "share"),
    ("server.cache.miss_share", "share"),
    ("wire.overhead_share", "share"),
    ("wal.append_share", "share"),
    ("wal.fsyncs", "count"),
    ("wal.compactions", "count"),
    ("wal.bytes_per_fact", "ratio"),
    ("loadgen.late_share", "share"),
];

pub const EXTRA: &[(&str, &str)] = &[
    ("pass_ms.p90", "ms"),
    ("fact_ms.p99", "ms"),
    ("parser.ms", "ms"),
    ("opt.ms", "ms"),
    ("eval.ms", "ms"),
    ("eval.enum_ms", "ms"),
    ("eval.merge_ms", "ms"),
    ("eval.outside_iter_ms", "ms"),
    ("storage.consolidation_ms", "ms"),
    ("render.ms", "ms"),
    ("incremental.propagation_us.p50", "us"),
    ("incremental.propagation_us.p99", "us"),
    ("server.handle_us.p50", "us"),
    ("server.handle_us.p99", "us"),
    ("wire.overhead_us.p50", "us"),
    ("server.phase.parse_ms", "ms"),
    ("server.phase.cache_ms", "ms"),
    ("server.phase.eval_ms", "ms"),
    ("server.phase.serialize_ms", "ms"),
    ("wal.append_us.p50", "us"),
    ("wal.append_us.p99", "us"),
    ("wal.fsync_us.p99", "us"),
    ("wal.compaction_ms", "ms"),
    ("wal.recover_ms", "ms"),
    ("loadgen.late_ms.p99", "ms"),
];

/// Unit of any known metric name.
pub fn unit(name: &str) -> Option<&'static str> {
    E2E.iter()
        .chain(PER_LAYER)
        .chain(EXTRA)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Named values a workload measured.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(unit(name).is_some(), "unknown metric {name}");
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `part / whole`, 0 when nothing was measured.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(spec: &datalog_trace::Json, key: &str) -> Vec<(String, String)> {
        match spec.get(key) {
            Some(datalog_trace::Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let s = |k| match m.get(k) {
                        Some(datalog_trace::Json::Str(s)) => s.clone(),
                        _ => panic!("{key} entry without {k}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key}"),
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = crate::jsonread::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&spec, "end_to_end"), own(E2E));
        assert_eq!(declared(&spec, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = E2E
            .iter()
            .chain(PER_LAYER)
            .chain(EXTRA)
            .map(|(n, _)| *n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
