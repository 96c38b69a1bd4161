//! Clamped bilinear interpolation over anchor grids.
//!
//! The flash error-model calibration (DESIGN.md §5) pins the paper's measured
//! values at a handful of (P/E-cycle, retention-month) anchor points and
//! interpolates between them; outside the anchored range the grid clamps to the
//! boundary, which mirrors how the paper's own lookup-table MQSim extension
//! behaves for unprofiled conditions.

/// A 2-D anchor grid with strictly increasing axes and bilinear interpolation.
///
/// # Example
///
/// ```
/// use rr_util::interp::Grid2;
/// let g = Grid2::new(
///     vec![0.0, 1.0],           // x axis
///     vec![0.0, 10.0],          // y axis
///     vec![vec![0.0, 10.0],     // values[x][y]
///          vec![1.0, 11.0]],
/// ).expect("valid grid");
/// assert_eq!(g.at(0.5, 5.0), 5.5);
/// assert_eq!(g.at(-1.0, -1.0), 0.0); // clamped
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2 {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// `values[i][j]` is the value at `(xs[i], ys[j])`.
    values: Vec<Vec<f64>>,
}

impl Grid2 {
    /// Builds a grid from axes and a row-major value matrix.
    ///
    /// # Errors
    ///
    /// Returns [`GridError`] if an axis has fewer than 2 points, is not
    /// strictly increasing, contains non-finite values, or the value matrix
    /// shape does not match the axes.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, values: Vec<Vec<f64>>) -> Result<Self, GridError> {
        Self::check_axis(&xs)?;
        Self::check_axis(&ys)?;
        if values.len() != xs.len() {
            return Err(GridError::ShapeMismatch);
        }
        for row in &values {
            if row.len() != ys.len() {
                return Err(GridError::ShapeMismatch);
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(GridError::NonFiniteValue);
            }
        }
        Ok(Self { xs, ys, values })
    }

    fn check_axis(axis: &[f64]) -> Result<(), GridError> {
        if axis.len() < 2 {
            return Err(GridError::AxisTooShort);
        }
        if axis.iter().any(|v| !v.is_finite()) {
            return Err(GridError::NonFiniteValue);
        }
        if axis.windows(2).any(|w| w[0] >= w[1]) {
            return Err(GridError::AxisNotIncreasing);
        }
        Ok(())
    }

    /// Bilinearly interpolated value at `(x, y)`, clamped to the grid hull.
    pub fn at(&self, x: f64, y: f64) -> f64 {
        let (i, tx) = Self::locate(&self.xs, x);
        let (j, ty) = Self::locate(&self.ys, y);
        let v00 = self.values[i][j];
        let v01 = self.values[i][j + 1];
        let v10 = self.values[i + 1][j];
        let v11 = self.values[i + 1][j + 1];
        let a = v00 + (v01 - v00) * ty;
        let b = v10 + (v11 - v10) * ty;
        a + (b - a) * tx
    }

    /// Locates `x` on `axis`: returns the lower cell index and the in-cell
    /// fraction, clamping out-of-range queries to the boundary.
    fn locate(axis: &[f64], x: f64) -> (usize, f64) {
        if x <= axis[0] {
            return (0, 0.0);
        }
        let last = axis.len() - 1;
        if x >= axis[last] {
            return (last - 1, 1.0);
        }
        // partition_point: first index with axis[idx] > x; x is in cell idx-1.
        let hi = axis.partition_point(|&a| a <= x);
        let i = hi - 1;
        let t = (x - axis[i]) / (axis[i + 1] - axis[i]);
        (i, t)
    }

    /// The x-axis anchors.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y-axis anchors.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

/// Errors from [`Grid2::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridError {
    /// An axis needs at least two anchor points.
    AxisTooShort,
    /// Axis values must be strictly increasing.
    AxisNotIncreasing,
    /// Axis or grid values must be finite.
    NonFiniteValue,
    /// The value matrix shape must match the axes.
    ShapeMismatch,
}

impl core::fmt::Display for GridError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            GridError::AxisTooShort => "axis needs at least two anchor points",
            GridError::AxisNotIncreasing => "axis values must be strictly increasing",
            GridError::NonFiniteValue => "grid values must be finite",
            GridError::ShapeMismatch => "value matrix shape must match axes",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for GridError {}

/// Linear interpolation over a 1-D anchor table, clamped at the ends.
///
/// # Example
///
/// ```
/// use rr_util::interp::lerp_table;
/// let xs = [0.0, 1.0, 2.0];
/// let ys = [0.0, 10.0, 40.0];
/// assert_eq!(lerp_table(&xs, &ys, 1.5), 25.0);
/// assert_eq!(lerp_table(&xs, &ys, 9.0), 40.0);
/// ```
///
/// # Panics
///
/// Panics if the tables are empty or of different lengths.
pub fn lerp_table(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert!(
        !xs.is_empty() && xs.len() == ys.len(),
        "tables must be equal-length and non-empty"
    );
    if x <= xs[0] {
        return ys[0];
    }
    let last = xs.len() - 1;
    if x >= xs[last] {
        return ys[last];
    }
    let hi = xs.partition_point(|&a| a <= x);
    let i = hi - 1;
    let t = (x - xs[i]) / (xs[i + 1] - xs[i]);
    ys[i] + (ys[i + 1] - ys[i]) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_grid() -> Grid2 {
        Grid2::new(
            vec![0.0, 1.0, 2.0],
            vec![0.0, 3.0, 6.0, 12.0],
            vec![
                vec![0.0, 4.5, 7.0, 11.0],
                vec![1.5, 9.0, 12.0, 16.5],
                vec![3.0, 12.5, 16.0, 19.9],
            ],
        )
        .unwrap()
    }

    #[test]
    fn hits_anchors_exactly() {
        let g = demo_grid();
        assert_eq!(g.at(0.0, 0.0), 0.0);
        assert_eq!(g.at(2.0, 12.0), 19.9);
        assert_eq!(g.at(1.0, 6.0), 12.0);
    }

    #[test]
    fn interpolates_between_anchors() {
        let g = demo_grid();
        // Midpoint in y between (0,3)=4.5 and (0,6)=7.0.
        assert!((g.at(0.0, 4.5) - 5.75).abs() < 1e-12);
        // Midpoint in x between (1,12)=16.5 and (2,12)=19.9.
        assert!((g.at(1.5, 12.0) - 18.2).abs() < 1e-12);
    }

    #[test]
    fn clamps_outside_hull() {
        let g = demo_grid();
        assert_eq!(g.at(-5.0, -5.0), 0.0);
        assert_eq!(g.at(99.0, 99.0), 19.9);
        assert_eq!(g.at(0.5, 99.0), g.at(0.5, 12.0));
    }

    #[test]
    fn rejects_malformed_grids() {
        assert_eq!(
            Grid2::new(vec![0.0], vec![0.0, 1.0], vec![vec![0.0, 0.0]]).unwrap_err(),
            GridError::AxisTooShort
        );
        assert_eq!(
            Grid2::new(vec![1.0, 0.0], vec![0.0, 1.0], vec![vec![0.0; 2]; 2]).unwrap_err(),
            GridError::AxisNotIncreasing
        );
        assert_eq!(
            Grid2::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![vec![0.0; 2]]).unwrap_err(),
            GridError::ShapeMismatch
        );
        assert_eq!(
            Grid2::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![vec![f64::NAN; 2]; 2]).unwrap_err(),
            GridError::NonFiniteValue
        );
    }

    #[test]
    fn lerp_table_basics() {
        let xs = [0.0, 10.0];
        let ys = [100.0, 200.0];
        assert_eq!(lerp_table(&xs, &ys, 5.0), 150.0);
        assert_eq!(lerp_table(&xs, &ys, -1.0), 100.0);
        assert_eq!(lerp_table(&xs, &ys, 11.0), 200.0);
    }
}
