//! Session samples, percentiles and the result line.

use std::fmt::Write as _;

/// One session completed inside the timed phase.
pub struct Sample {
    /// Completion time, seconds into the timed window.
    pub at_s: f64,
    /// Submit to final report (in-process) or `Submit` sent to terminal
    /// `Update` received (wire).
    pub latency_ms: f64,
    /// Submit to the first confirmed MSP the client saw, if any.
    pub first_msp_ms: Option<f64>,
    pub crowd_questions: f64,
}

/// The closed loop's outcome.
#[derive(Default)]
pub struct LoopStats {
    pub samples: Vec<Sample>,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Sessions submitted (timed phase and drain).
    pub attempted: u64,
    /// Refused submits, sessions that did not complete, wire `Error`s.
    pub failed: u64,
    /// Peak RSS once a fixed number of sessions has completed. Stores grow
    /// with every answer, so the peak at the end of a timed window would
    /// grow with throughput; reading it after a fixed amount of work keeps
    /// a faster program from reading as a memory regression.
    pub rss_mb: Option<f64>,
}

/// A named metric value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// Nearest-rank percentile of `values` (`p` in 0..=100); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result object: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
