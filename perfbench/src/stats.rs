//! Sample summaries and the result document the benchmark prints.

use std::fmt::Write as _;

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of a sample; `NaN`
/// for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile (`p` in `[0, 100]`) — the value at least
/// `p`% of the sample does not exceed. Infinite entries (failed
/// requests) sort last, so failures push the tail up.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// One reported metric: its value plus the sample it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// The reported number (the median of `samples` unless stated).
    pub value: f64,
    /// The per-pass (or per-phase) observations behind `value`.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric reported as the median of its samples.
    pub fn median_of(name: &str, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric { name: name.to_string(), unit, value: median(&samples), samples }
    }

    /// A metric with one observation.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Self {
        Metric { name: name.to_string(), unit, value, samples: vec![value] }
    }
}

/// What one benchmark run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (grid cells, or requests).
    pub attempted: u64,
    /// Of those, the ones that failed (skipped/demoted/panicked cells;
    /// errored, shed or deadline-missed requests).
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Metrics printed in the detail line only (no regression bound).
    pub extra: Vec<Metric>,
    /// Free-form context for the detail line (`key`, JSON value).
    pub context: Vec<(&'static str, String)>,
}

/// JSON number: non-finite values have no JSON form, so they print as
/// `null` (only ever in the detail line, never for a reported metric
/// that passed its gates).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunResult {
    /// The detail line: every metric with its unit, sample count, median
    /// and quartiles, plus the run context (nproc, revision, ...).
    pub fn detail_json(&self) -> String {
        let mut s = String::from("{\"detail\":{");
        for (k, v) in &self.context {
            let _ = write!(s, "{}:{v},", jstr(k));
        }
        for (key, list) in [("metrics", &self.metrics), ("extra", &self.extra)] {
            let _ = write!(s, "{}:{{", jstr(key));
            for (i, m) in list.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{}:{{\"value\":{},\"unit\":{},\"n\":{},\"median\":{},\"q1\":{},\"q3\":{}}}",
                    jstr(&m.name),
                    num(m.value),
                    jstr(m.unit),
                    m.samples.len(),
                    num(median(&m.samples)),
                    num(quantile(&m.samples, 0.25)),
                    num(quantile(&m.samples, 0.75)),
                );
            }
            s.push_str("},");
        }
        s.pop();
        s.push_str("}}");
        s
    }

    /// The result line the contract asks for: `correct`, `attempted`,
    /// `failed` and `metrics` (name → value and unit).
    pub fn result_json(&self, correct: bool) -> String {
        let mut s = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"value\":{},\"unit\":{}}}",
                jstr(&m.name),
                num(m.value),
                jstr(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_counts_failures_as_slowest() {
        let mut xs: Vec<f64> = (1..=99).map(f64::from).collect();
        xs.push(f64::INFINITY);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert!(percentile(&xs, 100.0).is_infinite());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::single("setup_s", "s", 0.25)],
            extra: Vec::new(),
            context: vec![("nproc", "2".into())],
        };
        assert_eq!(
            r.result_json(true),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        assert!(r.detail_json().contains("\"nproc\":2"));
    }
}
