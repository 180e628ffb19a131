//! The run's result: human-readable lines on stdout as the run goes, and
//! one JSON object as the last line.

use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    /// Metrics for the JSON line: name → (value, unit).
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Operations attempted (cells, jobs, checker passes, correctness
    /// checks) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Prints a named value with its unit without putting it in the JSON
    /// line (workload-specific end-to-end figures, counts, layer splits).
    pub fn print(&self, name: &str, value: f64, unit: &str) {
        println!("{name:<44} {value:>16.6} {unit}");
    }

    /// Prints a percentile with its sample count.
    pub fn print_pct(&self, name: &str, value: f64, unit: &str, n: usize) {
        println!("{name:<44} {value:>16.6} {unit} (n={n})");
    }

    /// Records a metric for the JSON line and prints it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.print(name, value, unit);
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records a percentile metric, printing its sample count.
    pub fn metric_pct(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.print_pct(name, value, unit, n);
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records 0 for a metric the workload did not measure (a layer it
    /// never calls).
    pub fn fill_zero(&mut self, name: &str, unit: &'static str) {
        if !self.metrics.contains_key(name) {
            self.metric(name, 0.0, unit);
        }
    }

    /// Counts one attempted operation; `ok == false` counts a failure and
    /// prints `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED: {}", what());
        }
    }

    /// Counts `n` attempted operations that all succeeded.
    pub fn ok_ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn metric_count(&self) -> usize {
        self.metrics.len()
    }

    /// The last stdout line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
