//! The metrics a run reports, and the result line it ends with.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, reported by every run with tracing off:
/// `(name, unit)`. Only figures that stay steady on a noisy two-core host
/// are here; the other end-to-end figures of the report are listed first
/// among the per-layer metrics.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("windows_per_s", "1/s"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer a workload does not drive reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("sim_insts_per_s", "1/s"),
    ("sim_insts_per_s_2core", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("sim.self_s", "s"),
    ("sim.self_s_2core", "s"),
    ("stream.detect_ns_per_window", "ns"),
    ("trace.collect_s", "s"),
    ("trace.collect_2core_s", "s"),
    ("dataset.build_s", "s"),
    ("features.select_s", "s"),
    ("detector.fit_s", "s"),
    ("corpus_io.write_s", "s"),
    ("corpus_io.read_ns_per_row", "ns"),
    ("service.msg_ns_per_window", "ns"),
    ("service.submit_ns_per_window", "ns"),
    ("service.windows_per_sweep", "count"),
    ("service.busy_per_window", "count"),
    ("service.queue_p50_us", "us"),
    ("service.bytes_retained_per_window", "B"),
    ("service.start_s", "s"),
    ("service.drain_s", "s"),
    ("service.shutdown_s", "s"),
    ("service.degraded_windows", "count"),
    ("service.quarantined_streams", "count"),
    ("gen.late_p99_us", "us"),
    ("tracing.overhead_share", "share"),
    ("ledger.unattributed_share", "share"),
    ("setup.unattributed_share", "share"),
    ("failed_share", "share"),
    ("slo_miss_share", "share"),
];

/// Metric values by name, each with a note for the readable report.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, String)>);

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, String::new()));
    }

    /// Sets a metric with a note on how it was taken.
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.0.insert(name, (value, note));
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// The readable report: every metric set, end-to-end ones first, one
    /// per line with its unit and note.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if let Some((value, note)) = self.0.get(name) {
                writeln!(out, "  {name:<34} {value:>16.4} {unit:<6} {note}")
                    .expect("writing to a String");
            }
        }
        out
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `wanted` with its unit. Fails when an end-to-end metric was not
/// measured or any value is not finite; an unset per-layer metric reads 0.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    traced: bool,
) -> Result<String, String> {
    let wanted: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut body = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = match (metrics.get(name), traced) {
            (Some(v), _) => v,
            (None, true) => 0.0,
            (None, false) => return Err(format!("{name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

/// The result line of a run whose checks failed: no numbers.
pub fn failure_line(attempted: u64, failed: u64) -> String {
    format!(
        "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64);
        }
        let line = result_line(10, 0, &m, false).expect("all measured");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"windows_per_s\": {\"value\": 3.5, \"unit\": \"1/s\"}"));
        m.set("setup_s", f64::NAN);
        assert!(result_line(10, 0, &m, false).is_err());
        assert!(result_line(10, 0, &Metrics::default(), false).is_err());
        let traced = result_line(1, 0, &Metrics::default(), true).expect("layers default to 0");
        assert!(traced.contains("\"sim.self_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
