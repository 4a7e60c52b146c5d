//! `x0` cell quantization for the fleet's cell router (DESIGN.md
//! §3.14), which groups streams by the cell of the reference-point grid
//! their initial vector falls into.
//!
//! The quantization is an *index*, never a correctness input: shard
//! routing only affects which coordinator owns a stream, not what the
//! protocol computes.

/// Default cell width of the `x0` grid.
pub const DEFAULT_CELL: f64 = 1e-3;

/// Quantize a vector onto the cell grid: `floor(x_i / cell)` per
/// coordinate. Non-positive `cell` widths fall back to
/// [`DEFAULT_CELL`].
pub fn quantize_cell(x: &[f64], cell: f64) -> Vec<i64> {
    let cell = sanitize_cell(cell);
    x.iter().map(|&v| (v / cell).floor() as i64).collect()
}

/// The sanitized cell width [`quantize_cell`] actually divides by.
pub fn sanitize_cell(cell: f64) -> f64 {
    if cell > 0.0 {
        cell
    } else {
        DEFAULT_CELL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_floors_per_coordinate() {
        assert_eq!(quantize_cell(&[0.0, 1.0, -1.0], 1.0), vec![0, 1, -1]);
        // floor, not truncate: negative values round away from zero.
        assert_eq!(quantize_cell(&[-0.0001], 1e-3), vec![-1]);
        assert_eq!(quantize_cell(&[0.0029, 0.0031], 1e-3), vec![2, 3]);
    }

    #[test]
    fn bad_cell_widths_fall_back_to_default() {
        assert_eq!(
            quantize_cell(&[0.5], 0.0),
            quantize_cell(&[0.5], DEFAULT_CELL)
        );
        assert_eq!(
            quantize_cell(&[0.5], -2.0),
            quantize_cell(&[0.5], DEFAULT_CELL)
        );
        assert_eq!(sanitize_cell(f64::NAN.min(0.0)), DEFAULT_CELL);
    }
}
