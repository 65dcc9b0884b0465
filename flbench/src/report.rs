//! Order statistics and the benchmark's result line.

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` ∈ (0, 1] of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one benchmark run: the gate's verdict and, only when it
/// passed, the metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Units of work attempted (rounds).
    pub attempted: u64,
    /// Units of work that failed (rounds with a non-finite train loss).
    pub failed: u64,
    /// Why the run is refused; empty when it passed.
    pub failures: Vec<String>,
    /// Metrics, reported only for a passing run.
    pub metrics: Vec<Metric>,
    /// Values printed for reading but kept out of the result line (their
    /// run-to-run spread is too wide to bound).
    pub info: Vec<Metric>,
}

impl Report {
    /// A report whose metrics stand only if `failures` is empty and every
    /// value is finite; otherwise the metrics are withheld.
    pub fn new(
        attempted: u64,
        failed: u64,
        mut failures: Vec<String>,
        metrics: Vec<Metric>,
    ) -> Self {
        for metric in &metrics {
            if !metric.value.is_finite() {
                failures.push(format!(
                    "metric {} is not finite ({})",
                    metric.name, metric.value
                ));
            }
        }
        let metrics = if failures.is_empty() {
            metrics
        } else {
            Vec::new()
        };
        Self {
            attempted,
            failed,
            failures,
            metrics,
            info: Vec::new(),
        }
    }

    /// Whether the run passed every check.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The single JSON result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), 90.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
    }

    #[test]
    fn failing_report_withholds_metrics() {
        let metric = Metric {
            name: "final_acc_pct",
            value: 8.0,
            unit: "%",
        };
        let report = Report::new(10, 3, vec!["diverged".into()], vec![metric.clone()]);
        assert!(!report.correct());
        assert!(report.metrics.is_empty());
        assert!(!report.json_line().contains("final_acc_pct"));

        let nan = Metric {
            value: f64::NAN,
            ..metric
        };
        assert!(!Report::new(10, 0, Vec::new(), vec![nan]).correct());
    }
}
