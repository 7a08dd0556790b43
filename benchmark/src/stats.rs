//! Order statistics over repetitions.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The best repetition: the largest value when higher is better, the
/// smallest otherwise. Host interference on a shared machine only ever
/// slows a run down, so the best repetition is the least disturbed one.
pub fn best_of(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Higher => f64::max,
        Better::Lower => f64::min,
    };
    values.iter().copied().reduce(pick).unwrap_or(f64::NAN)
}

/// The quartile on the better side: the third when higher is better,
/// the first otherwise. Like [`best_of`] it discounts repetitions that
/// interference slowed down, but one lucky repetition cannot set it.
pub fn better_quartile(values: &[f64], better: Better) -> f64 {
    let [q1, _, q3] = quartiles(values);
    match better {
        Better::Higher => q3,
        Better::Lower => q1,
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so the spreads printed here match the ones Python gives.
/// A single value is its own quartiles; no values give NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let len = v.len() as i64;
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative for very short inputs: Python extrapolates there too.
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *q = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

/// The middle value (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
