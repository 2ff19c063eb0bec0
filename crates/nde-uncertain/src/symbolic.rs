//! Symbolic feature matrices: missing cells become domain intervals.
//!
//! This is the tutorial's `encode_symbolic` step (Fig. 4): instead of
//! imputing a missing value with a point guess, the cell is replaced by an
//! interval spanning the value's plausible domain, and downstream training
//! propagates that uncertainty symbolically.
//!
//! [`SymbolicMatrix`] is the one representation of uncertain training data
//! the Learn pillar reads: Zorro's gradient epochs, the certain-KNN index
//! and the possible-worlds sampler all run the [`crate::soa`] kernels
//! straight over its row-major `lo`/`hi` planes, and
//! [`SymbolicMatrix::first_open_column`] is their one definition of a
//! complete row.

use crate::interval::Interval;
use crate::{Result, UncertainError};
use nde_ml::linalg::Matrix;

/// A matrix of intervals, one row per example, stored as two row-major
/// planes: every cell's lower bound in `lo`, its upper bound in `hi`.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicMatrix {
    lo: Vec<f64>,
    hi: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl SymbolicMatrix {
    /// Wrap explicit interval rows (all must have equal length).
    pub fn from_rows(rows: Vec<Vec<Interval>>) -> Result<SymbolicMatrix> {
        let cols = rows.first().map_or(0, Vec::len);
        if rows.iter().any(|r| r.len() != cols) {
            return Err(UncertainError::InvalidArgument(
                "ragged symbolic matrix".into(),
            ));
        }
        let cells = rows.iter().flatten();
        Ok(SymbolicMatrix {
            lo: cells.clone().map(|iv| iv.lo).collect(),
            hi: cells.map(|iv| iv.hi).collect(),
            rows: rows.len(),
            cols,
        })
    }

    /// Lift a concrete matrix: every cell becomes a point interval.
    pub fn from_exact(x: &Matrix) -> SymbolicMatrix {
        let mut lo = Vec::with_capacity(x.rows() * x.cols());
        for row in x.iter_rows() {
            lo.extend_from_slice(row);
        }
        SymbolicMatrix {
            hi: lo.clone(),
            lo,
            rows: x.rows(),
            cols: x.cols(),
        }
    }

    /// Lift a concrete matrix and replace the cells listed in `missing`
    /// (row, col) with the corresponding column's domain interval.
    ///
    /// `column_bounds[c]` is the plausible domain of column `c`; derive it
    /// with [`column_bounds_from_observed`] when not known a priori.
    pub fn from_matrix_with_missing(
        x: &Matrix,
        missing: &[(usize, usize)],
        column_bounds: &[Interval],
    ) -> Result<SymbolicMatrix> {
        if column_bounds.len() != x.cols() {
            return Err(UncertainError::InvalidArgument(format!(
                "{} column bounds for {} columns",
                column_bounds.len(),
                x.cols()
            )));
        }
        let mut sym = SymbolicMatrix::from_exact(x);
        for &(r, c) in missing {
            if r >= x.rows() || c >= x.cols() {
                return Err(UncertainError::InvalidArgument(format!(
                    "missing cell ({r}, {c}) out of bounds for {}x{} matrix",
                    x.rows(),
                    x.cols()
                )));
            }
            sym.lo[r * sym.cols + c] = column_bounds[c].lo;
            sym.hi[r * sym.cols + c] = column_bounds[c].hi;
        }
        Ok(sym)
    }

    /// Columns `from..` of the rows `rows`, in that order, as a new matrix.
    pub fn take(&self, rows: &[usize], from: usize) -> SymbolicMatrix {
        let cols = self.cols - from;
        let gather = |plane: &[f64]| {
            let mut out = Vec::with_capacity(rows.len() * cols);
            for &r in rows {
                out.extend_from_slice(&plane[r * self.cols + from..(r + 1) * self.cols]);
            }
            out
        };
        SymbolicMatrix {
            lo: gather(&self.lo),
            hi: gather(&self.hi),
            rows: rows.len(),
            cols,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The interval at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> Interval {
        Interval {
            lo: self.lo[r * self.cols + c],
            hi: self.hi[r * self.cols + c],
        }
    }

    /// Every cell's lower bound, row-major: each point cell's value.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Lower bounds of row `r`.
    pub fn row_lo(&self, r: usize) -> &[f64] {
        &self.lo[r * self.cols..(r + 1) * self.cols]
    }

    /// Upper bounds of row `r`.
    pub fn row_hi(&self, r: usize) -> &[f64] {
        &self.hi[r * self.cols..(r + 1) * self.cols]
    }

    /// The first column of row `r` whose cell is not a point
    /// (`lo != hi`, so a NaN bound counts as open), or [`Self::cols`] when
    /// every cell is a point: row `r` is *complete* iff this equals
    /// `cols()`. The columns before it hold the same value in every
    /// possible world.
    pub fn first_open_column(&self, r: usize) -> usize {
        let (lo, hi) = (self.row_lo(r), self.row_hi(r));
        (0..self.cols)
            .find(|&c| lo[c] != hi[c])
            .unwrap_or(self.cols)
    }

    /// Every cell in row-major order.
    fn cells(&self) -> impl Iterator<Item = Interval> + '_ {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&lo, &hi)| Interval { lo, hi })
    }

    /// Total uncertainty: sum of cell widths.
    pub fn total_width(&self) -> f64 {
        self.cells().map(Interval::width).sum()
    }

    /// The concrete midpoint matrix (one possible world: every cell at its
    /// interval center — equivalent to midpoint imputation).
    pub fn midpoint_world(&self) -> Matrix {
        Matrix::from_vec(
            self.cells().map(Interval::mid).collect(),
            self.rows,
            self.cols,
        )
        .expect("planes hold rows × cols cells")
    }
}

/// Per-column `[min, max]` over the observed values of a matrix — the
/// default domain for missing cells.
#[allow(clippy::needless_range_loop)] // column-major scan of a row-major matrix
pub fn column_bounds_from_observed(x: &Matrix) -> Vec<Interval> {
    let mut bounds = vec![Interval::point(0.0); x.cols()];
    for c in 0..x.cols() {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for r in 0..x.rows() {
            let v = x.get(r, c);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        bounds[c] = if lo <= hi {
            Interval::new(lo, hi)
        } else {
            Interval::point(0.0)
        };
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::rng::{seeded, Rng};

    fn matrix() -> Matrix {
        Matrix::from_rows(vec![vec![1.0, -2.0], vec![3.0, 0.0], vec![2.0, 2.0]]).unwrap()
    }

    /// `rows × cols` random cells, about a third of them points.
    fn random_rows(rows: usize, cols: usize, seed: u64) -> Vec<Vec<Interval>> {
        let mut rng = seeded(seed);
        (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| {
                        let a = rng.gen_range(-3.0..3.0);
                        if rng.gen_range(0..3usize) == 0 {
                            Interval::point(a)
                        } else {
                            Interval::new(a, a + rng.gen_range(0.0..2.0))
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Every accessor reads the cell `rows[r][c]` holds.
    fn assert_cells(sym: &SymbolicMatrix, rows: &[Vec<Interval>]) {
        assert_eq!(sym.len(), rows.len());
        assert_eq!(sym.is_empty(), rows.is_empty());
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(sym.row_lo(r).len(), sym.cols());
            for (c, &iv) in row.iter().enumerate() {
                assert_eq!(sym.get(r, c), iv, "cell ({r}, {c})");
                assert_eq!(sym.row_lo(r)[c].to_bits(), iv.lo.to_bits());
                assert_eq!(sym.row_hi(r)[c].to_bits(), iv.hi.to_bits());
            }
        }
    }

    #[test]
    fn planes_match_the_interval_rows() {
        let rows = random_rows(5, 3, 2);
        let sym = SymbolicMatrix::from_rows(rows.clone()).unwrap();
        assert_eq!((sym.len(), sym.cols()), (5, 3));
        assert_cells(&sym, &rows);
        assert_eq!(sym.lo().len(), 15);
        assert_eq!(&sym.lo()[3..6], sym.row_lo(1));
        // `take` gathers rows in the order given, repeats included, and
        // the columns from `from` on.
        let picked = [4, 0, 4, 2];
        for from in 0..=3 {
            let taken: Vec<Vec<Interval>> =
                picked.iter().map(|&r| rows[r][from..].to_vec()).collect();
            assert_cells(&sym.take(&picked, from), &taken);
            assert_eq!(sym.take(&picked, from).cols(), 3 - from);
        }
        assert!(sym.take(&[], 1).is_empty());
    }

    #[test]
    fn constructors_agree_cell_for_cell() {
        let x = matrix();
        let bounds = column_bounds_from_observed(&x);
        let points: Vec<Vec<Interval>> = x
            .iter_rows()
            .map(|r| r.iter().map(|&v| Interval::point(v)).collect())
            .collect();
        let exact = SymbolicMatrix::from_exact(&x);
        assert_cells(&exact, &points);
        assert_eq!(exact, SymbolicMatrix::from_rows(points.clone()).unwrap());
        assert_eq!(
            exact,
            SymbolicMatrix::from_matrix_with_missing(&x, &[], &bounds).unwrap()
        );
        let missing = [(0, 1), (2, 0), (2, 1)];
        let mut widened = points;
        for &(r, c) in &missing {
            widened[r][c] = bounds[c];
        }
        let sym = SymbolicMatrix::from_matrix_with_missing(&x, &missing, &bounds).unwrap();
        assert_cells(&sym, &widened);
        assert_eq!(sym, SymbolicMatrix::from_rows(widened).unwrap());
    }

    #[test]
    fn first_open_column_finds_the_first_non_point_cell() {
        let p = Interval::point;
        let sym = SymbolicMatrix::from_rows(vec![
            vec![p(1.0), p(-2.0), p(0.5)],                 // complete
            vec![Interval::new(0.0, 1.0), p(0.0), p(1.0)], // first cell open
            vec![p(0.0), p(1.0), Interval::new(2.0, 3.0)], // last cell open
            vec![
                p(0.0),
                Interval::new(f64::NEG_INFINITY, f64::INFINITY),
                p(1.0),
            ],
            vec![p(0.0), p(2.0), Interval::new(5.0, f64::INFINITY)],
            vec![p(f64::INFINITY), p(f64::NEG_INFINITY), p(0.0)], // infinite points
        ])
        .unwrap();
        let first: Vec<usize> = (0..sym.len()).map(|r| sym.first_open_column(r)).collect();
        assert_eq!(first, [3, 0, 2, 1, 2, 3]);
        // With no columns every row is complete.
        let empty = SymbolicMatrix::from_rows(vec![vec![]; 3]).unwrap();
        assert_eq!((empty.len(), empty.cols()), (3, 0));
        assert!((0..3).all(|r| empty.first_open_column(r) == 0));
        assert_eq!(empty.total_width(), 0.0);
        assert_eq!(empty.midpoint_world().rows(), 3);
    }

    #[test]
    fn width_and_midpoints_are_the_per_interval_bits() {
        for (rows, cols, seed) in [(0, 4, 3), (1, 1, 4), (7, 5, 5), (40, 3, 6)] {
            let cells = random_rows(rows, cols, seed);
            let sym = SymbolicMatrix::from_rows(cells.clone()).unwrap();
            let width: f64 = cells.iter().flat_map(|r| r.iter().map(|i| i.width())).sum();
            assert_eq!(sym.total_width().to_bits(), width.to_bits());
            let world = sym.midpoint_world();
            assert_eq!((world.rows(), world.cols()), (sym.len(), sym.cols()));
            for (r, row) in cells.iter().enumerate() {
                for (c, iv) in row.iter().enumerate() {
                    assert_eq!(world.get(r, c).to_bits(), iv.mid().to_bits());
                }
            }
        }
    }

    #[test]
    fn exact_lift_is_all_points() {
        let sym = SymbolicMatrix::from_exact(&matrix());
        assert_eq!(sym.len(), 3);
        assert_eq!(sym.cols(), 2);
        assert!((0..sym.len()).all(|r| sym.first_open_column(r) == sym.cols()));
        assert_eq!(sym.total_width(), 0.0);
    }

    #[test]
    fn missing_cells_get_column_bounds() {
        let x = matrix();
        let bounds = column_bounds_from_observed(&x);
        assert_eq!(bounds[0], Interval::new(1.0, 3.0));
        assert_eq!(bounds[1], Interval::new(-2.0, 2.0));
        let sym = SymbolicMatrix::from_matrix_with_missing(&x, &[(0, 1), (2, 0)], &bounds).unwrap();
        assert_eq!(sym.get(0, 1), Interval::new(-2.0, 2.0));
        assert_eq!(sym.get(2, 0), Interval::new(1.0, 3.0));
        assert!(sym.get(1, 0).is_point());
        assert_eq!(sym.total_width(), 4.0 + 2.0);
    }

    #[test]
    fn midpoint_world_is_midpoint_imputation() {
        let x = matrix();
        let bounds = column_bounds_from_observed(&x);
        let sym = SymbolicMatrix::from_matrix_with_missing(&x, &[(0, 0)], &bounds).unwrap();
        let world = sym.midpoint_world();
        assert_eq!(world.get(0, 0), 2.0); // mid of [1, 3]
        assert_eq!(world.get(1, 0), 3.0); // observed value untouched
    }

    #[test]
    fn validates_inputs() {
        let x = matrix();
        let bounds = column_bounds_from_observed(&x);
        assert!(SymbolicMatrix::from_matrix_with_missing(&x, &[(9, 0)], &bounds).is_err());
        assert!(SymbolicMatrix::from_matrix_with_missing(&x, &[(0, 9)], &bounds).is_err());
        assert!(SymbolicMatrix::from_matrix_with_missing(&x, &[], &bounds[..1]).is_err());
        assert!(SymbolicMatrix::from_rows(vec![
            vec![Interval::point(0.0)],
            vec![Interval::point(0.0), Interval::point(1.0)]
        ])
        .is_err());
    }

    #[test]
    fn empty_matrix_bounds_are_safe() {
        let empty = Matrix::zeros(0, 2);
        let bounds = column_bounds_from_observed(&empty);
        assert_eq!(bounds.len(), 2);
        assert!(bounds.iter().all(|b| b.is_point()));
    }
}
