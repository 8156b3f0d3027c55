//! The verify benchmark of the GEM reproduction.
//!
//! One command, `verifybench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`, times what a user of `gem` waits for — the verdict of
//! `PROG sat P` or of a deadlock search — on three fixed workloads, checks
//! every verdict against an answer pinned by hand, and, in a separate
//! traced run, breaks the sweep down by layer. See `README.md` in this
//! directory for the workloads, the metrics and how they relate.

pub mod calibrate;
pub mod run;
pub mod traced;
pub mod workload;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// How it was measured, for the human-readable table (samples and
    /// spread); empty for counts.
    pub note: String,
}

/// The result line of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Instance verdicts requested.
    pub attempted: u64,
    /// Verdicts that were wrong, errored or panicked.
    pub failed: u64,
    /// What went wrong, one line per failure (capped).
    pub failures: Vec<String>,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one attempted verdict and its result.
    pub fn record(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(format!("{label}: {e}"));
            }
        }
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (which need not be sorted); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; a single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Median and interquartile spread (as a share of the median) of
/// `samples`, for the notes of the human-readable table.
fn spread(samples: &[f64]) -> (f64, f64) {
    let med = median(samples);
    let (q1, q3) = quartiles(samples);
    (med, if med > 0.0 { (q3 - q1) / med } else { 0.0 })
}

/// A timing metric: the median of `samples`, noted with the sample count
/// and the interquartile spread.
pub fn timing(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    let (med, iqr) = spread(samples);
    Metric {
        name,
        value: med,
        unit,
        note: format!("median of {}, iqr {:.2}%", samples.len(), iqr * 100.0),
    }
}

/// A time metric from rescaled samples (see [`calibrate`]): the median of
/// the rescaled times, noted with the sample count, their spread and the
/// median wall time.
pub fn rescaled_timing(name: &'static str, samples: &[calibrate::Timed]) -> Metric {
    let scaled: Vec<f64> = samples.iter().map(|t| t.scaled).collect();
    let wall: Vec<f64> = samples.iter().map(|t| t.wall).collect();
    let mut metric = timing(name, "s", &scaled);
    metric.note += &format!(", wall median {:.6} s", median(&wall));
    metric
}

/// A metric read once (a count, a ratio, a high-water mark).
pub fn once(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}
