//! Metric names, units and the result line.

/// One named, unit-carrying number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ns`, `1/s`, `count`.
    pub unit: &'static str,
}

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ns", "ns"),
    ("latency_p99_ns", "ns"),
];

/// The per-layer metrics every traced run prints, with units. A layer the
/// workload does not call reports 0, and so does its base count (`*.calls`,
/// `pool.acquires`, `core.decisions`, ...), which tells the two apart. Layer
/// timings are busy shares of the traced wall time rather than absolute
/// times, so no metric is a time stuck at 0 on every run of a workload; the
/// span file keeps the absolute times.
pub const PER_LAYER: &[(&str, &str)] = &[
    // lockfree::queue
    ("queue.calls", "count"),
    ("queue.enqueue_share", "ratio"),
    ("queue.dequeue_share", "ratio"),
    ("queue.retries_per_op", "ratio"),
    // lockfree::stack + elimination
    ("stack.calls", "count"),
    ("stack.push_share", "ratio"),
    ("stack.pop_share", "ratio"),
    ("stack.retries_per_op", "ratio"),
    ("elimination.attempts", "count"),
    ("elimination.hit_ratio", "ratio"),
    ("elimination.width", "count"),
    // lockfree::sharded
    ("sharded.calls", "count"),
    ("sharded.push_share", "ratio"),
    ("sharded.pop_share", "ratio"),
    ("sharded.retries_per_op", "ratio"),
    // lockfree::list
    ("list.calls", "count"),
    ("list.contains_share", "ratio"),
    ("list.insert_share", "ratio"),
    ("list.remove_share", "ratio"),
    ("list.retries_per_op", "ratio"),
    // lockfree::pool
    ("pool.acquires", "count"),
    ("pool.hit_ratio", "ratio"),
    ("pool.refills_per_kop", "ratio"),
    ("pool.allocs_per_op", "ratio"),
    // epoch reclamation (vendor/crossbeam)
    ("objects.ops", "count"),
    ("epoch.retired_per_op", "ratio"),
    ("epoch.backlog_peak", "count"),
    // the benchmark's own request loop around the calls
    ("request.self_share", "ratio"),
    // sim engine
    ("sim.count", "count"),
    ("sim.jobs", "count"),
    ("engine.self_share", "ratio"),
    ("engine.new_share", "ratio"),
    ("engine.decisions_per_job", "ratio"),
    // sim::workload + uam + tuf
    ("workload.build_share", "ratio"),
    ("uam.arrivals", "count"),
    // core schedulers
    ("core.decisions", "count"),
    ("core.schedule_share", "ratio"),
    ("core.ops_per_decision", "ratio"),
    ("core.aborts_per_decision", "ratio"),
    // simulation outcomes
    ("sim.retries_per_job", "ratio"),
    ("sim.blockings_per_job", "ratio"),
    ("sim.aborts_per_job", "ratio"),
    ("sim.aur", "ratio"),
    ("sim.cmr", "ratio"),
    // the benchmark's tracing
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Orders `measured` as `schema` lists names, filling names the workload
/// did not measure with 0. Panics on a measured name outside the schema
/// (a bug in this benchmark).
pub fn complete(schema: &[(&'static str, &'static str)], measured: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        assert!(
            schema.iter().any(|(n, _)| n == name),
            "metric {name} is not in the schema"
        );
    }
    schema
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: measured
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
        })
        .collect()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Non-finite values are written as 0 (JSON has no NaN).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_fills_unmeasured_names_with_zero_in_schema_order() {
        let schema = [("a", "ns"), ("b", "count")];
        let m = complete(&schema, &[("b", 3.5)]);
        assert_eq!(m.len(), 2);
        assert_eq!((m[0].name, m[0].value, m[0].unit), ("a", 0.0, "ns"));
        assert_eq!((m[1].name, m[1].value), ("b", 3.5));
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn complete_rejects_unknown_names() {
        complete(&[("a", "ns")], &[("z", 1.0)]);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "x",
                value: 2.0,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_this_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(compact.contains(&entry), "{name} ({unit}) missing");
        }
        let metrics = compact.matches("\"unit\":").count();
        assert_eq!(metrics, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn schema_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
