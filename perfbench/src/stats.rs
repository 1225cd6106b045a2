//! Percentiles that refuse thin tails, medians, and the layer
//! reconciliation rule.

/// Samples a percentile must have strictly beyond it: a percentile read
/// off fewer is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`) of `samples` by the
/// nearest-rank rule, or an error when fewer than [`MIN_BEYOND`] samples
/// lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range: {p}");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it (need at least {MIN_BEYOND})"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank.max(1) - 1])
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Splits a traced total into named layers plus the residual none of them
/// explains. The returned `unattributed` makes the layers sum to `total`
/// exactly; a large residual (either sign) means a layer is missing or
/// double-counted, which is why it is reported rather than hidden.
#[derive(Clone, Debug)]
pub struct Reconciliation {
    pub total: f64,
    pub layers: Vec<(String, f64)>,
    pub unattributed: f64,
}

impl Reconciliation {
    pub fn new(total: f64, layers: Vec<(String, f64)>) -> Reconciliation {
        let attributed: f64 = layers.iter().map(|(_, v)| v).sum();
        Reconciliation {
            total,
            layers,
            unattributed: total - attributed,
        }
    }

    /// Layers plus the residual: equals `total` up to rounding.
    pub fn sum(&self) -> f64 {
        self.layers.iter().map(|(_, v)| v).sum::<f64>() + self.unattributed
    }
}
