//! The benchmark's output: a human-readable report of every measured number
//! under its descriptive name, then, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;

/// One measured number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations attempted and failed, plus the metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, each a one-line description.
    pub check_failures: Vec<String>,
    /// Every number measured, printed in the human-readable part.
    pub detail: Vec<Metric>,
    /// The metrics of the final JSON line, in order.
    pub metrics: Vec<Metric>,
    /// Free-form `key: value` lines (provenance, input sizes).
    pub info: Vec<(String, String)>,
}

impl Report {
    /// Count one operation; a failed one also names why.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    /// Count `n` operations of which `failed` failed, for `what`.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.check_failures
                .push(format!("{failed} of {n} {what} failed"));
        }
    }

    /// Record a check that is not an operation of its own (a whole-run
    /// comparison); a failure makes the run incorrect without counting an op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.detail.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// A metric of the final JSON line; a non-finite value fails the run.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.check_failures
                .push(format!("metric {name} is {value}"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Failed operations over attempted operations.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.check_failures.is_empty()
    }

    /// The human-readable lines, then the final JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.info {
            let _ = writeln!(out, "# {key}: {value}");
        }
        for m in &self.detail {
            let _ = writeln!(out, "# {} = {} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "# failed_frac = {} ({} of {} operations)",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        for failure in &self.check_failures {
            let _ = writeln!(out, "# CHECK FAILED: {failure}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A finite JSON number; a non-finite value (which [`Report::metric`] has
/// already counted as a failed check) prints as 0 so the line stays parseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes), read from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_mb(&status))
}

/// `VmHWM` of a `/proc/<pid>/status` text, in MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib * 1024.0 / 1e6),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_frac_counts_failed_over_attempted() {
        let mut r = Report::default();
        assert_eq!(r.failed_frac(), 1.0, "nothing attempted counts as failure");
        r.ops(98, 0, "queries");
        r.op(true, || unreachable!());
        r.op(false, || "update 7 never visible".into());
        assert_eq!((r.attempted, r.failed), (100, 1));
        assert!((r.failed_frac() - 0.01).abs() < 1e-12);
        assert!(!r.correct());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect_without_an_op() {
        let mut r = Report::default();
        r.ops(10, 0, "cold runs");
        assert!(r.correct());
        r.check(false, || "values differ".into());
        assert_eq!(r.failed_frac(), 0.0);
        assert!(!r.correct());
    }

    #[test]
    fn last_line_is_the_result_object() {
        let mut r = Report::default();
        r.ops(3, 0, "runs");
        r.metric("setup_s", 0.5, "s");
        r.detail("sssp_s", 0.25, "s");
        let text = r.render();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(text.contains("# sssp_s = 0.25 s"));
    }

    #[test]
    fn reads_peak_rss_from_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100000 kB\n";
        let mb = parse_vm_hwm_mb(status).unwrap();
        assert!((mb - 123456.0 * 1024.0 / 1e6).abs() < 1e-9);
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn reads_this_process_peak_rss() {
        let mb = peak_rss_mb().expect("linux exposes VmHWM");
        assert!(mb > 0.0);
    }
}
