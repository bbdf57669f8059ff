//! Summary statistics over latency samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive `values`; `0.0` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// Samples a tail percentile must leave beyond it to be well supported.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// A percentile of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, 100]`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

impl Tail {
    /// Does the percentile have [`TAIL_SAMPLES_BEYOND`] samples beyond it?
    pub fn supported(&self) -> bool {
        self.beyond >= TAIL_SAMPLES_BEYOND
    }
}

/// Nearest-rank percentile `percentile` of `values`: the sample of rank
/// `ceil(n × percentile / 100)` (1-based, ascending). `None` for no samples.
pub fn tail(values: &[f64], percentile: f64) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((n as f64 * percentile / 100.0).ceil() as usize).clamp(1, n);
    Some(Tail {
        percentile,
        value: sorted[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}
