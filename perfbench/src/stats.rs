//! Small statistics and naming rules shared by the benchmark and its
//! tests.

/// Samples that must lie strictly above a reported p99, so the tail
/// figure rests on more than a handful of observations.
pub const MIN_BEYOND_P99: usize = 10;

/// Fewest samples a p99 may be reported from: `MIN_BEYOND_P99` of them
/// must fall in the top percent.
pub const MIN_P99_SAMPLES: usize = MIN_BEYOND_P99 * 100;

/// Nearest-rank percentile of `sorted` (ascending), `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// p99 under the percentile rule: `None` unless at least
/// [`MIN_BEYOND_P99`] samples lie beyond the returned value's rank.
pub fn checked_p99(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    let rank = (0.99 * n as f64).ceil() as usize;
    (n >= MIN_P99_SAMPLES && n - rank >= MIN_BEYOND_P99).then(|| percentile(sorted, 0.99))
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Sort a sample ascending (NaN-free by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// `true` if `name` is a valid metric or workload name: it starts with
/// a letter or digit and is at most 64 letters, digits, `_`, `.` and
/// `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` if `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// 64-bit FNV-1a, the protocol digest's hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one little-endian word into the hash.
    pub fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
