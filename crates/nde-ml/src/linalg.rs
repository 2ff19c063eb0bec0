//! Dense row-major matrices and the handful of linear-algebra routines the
//! models need (dot products, norms, Gaussian elimination, Cholesky).

use crate::{MlError, Result};

/// A dense row-major `rows x cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from row vectors (all must have equal length).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Matrix> {
        let n = rows.len();
        let d = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * d);
        for r in &rows {
            if r.len() != d {
                return Err(MlError::DimensionMismatch {
                    expected: d,
                    got: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            data,
            rows: n,
            cols: d,
        })
    }

    /// Build from a flat row-major buffer.
    pub fn from_vec(data: Vec<f64>, rows: usize, cols: usize) -> Result<Matrix> {
        if data.len() != rows * cols {
            return Err(MlError::DimensionMismatch {
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(Matrix { data, rows, cols })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row access.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// New matrix containing the selected rows (repeats allowed).
    pub fn take_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (oi, &i) in indices.iter().enumerate() {
            out.row_mut(oi).copy_from_slice(self.row(i));
        }
        out
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// `Aᵀ A + lambda I`, the Gram matrix used by ridge/influence solves.
    pub fn gram_regularized(&self, lambda: f64) -> Matrix {
        let d = self.cols;
        let mut g = Matrix::zeros(d, d);
        for r in self.iter_rows() {
            for i in 0..d {
                let ri = r[i];
                if ri == 0.0 {
                    continue;
                }
                let grow = g.row_mut(i);
                for (j, &rj) in r.iter().enumerate() {
                    grow[j] += ri * rj;
                }
            }
        }
        for i in 0..d {
            g.data[i * d + i] += lambda;
        }
        g
    }
}

/// Dot product of equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between equal-length slices.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// [`squared_distance`] continued from a partial sum: `acc` plus the
/// squared differences of `a` and `b`, added one at a time in order.
///
/// `continue_squared_distance(-0.0, a, b)` is `squared_distance(a, b)` bit
/// for bit, and because each term is added to the running sum in column
/// order, folding a row's leading columns and then continuing over the
/// rest gives exactly the float of one fold over the whole row.
#[inline]
pub(crate) fn continue_squared_distance(acc: f64, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(acc, |s, (x, y)| {
        let d = x - y;
        s + d * d
    })
}

/// Squared Euclidean distances from `x` to every row of `rows`, written to
/// `out` (entry `i` for row `i`).
///
/// Bit-identical to calling [`squared_distance`]`(rows.row(i), x)` for each
/// row: rows are taken four at a time with four independent accumulators,
/// and each accumulator sums its own row's terms in `squared_distance`'s
/// order, starting from `-0.0` like `f64`'s `Sum` (so a zero-width row
/// gives `-0.0` too). The trailing `rows % 4` rows call `squared_distance`.
///
/// # Panics
///
/// If `x.len() != rows.cols()` or `out.len() != rows.rows()`: the blocked
/// loop indexes both rows, so a width mismatch is a caller bug, not a
/// shorter distance.
pub fn squared_distances(rows: &Matrix, x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), rows.cols(), "point and rows differ in width");
    assert_eq!(out.len(), rows.rows(), "one output per row");
    let mut blocks = out.chunks_exact_mut(4);
    for (b, cell) in (&mut blocks).enumerate() {
        let i = 4 * b;
        let (r0, r1, r2, r3) = (
            rows.row(i),
            rows.row(i + 1),
            rows.row(i + 2),
            rows.row(i + 3),
        );
        let mut s = [-0.0f64; 4];
        for ((((&xj, &a0), &a1), &a2), &a3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            let d0 = a0 - xj;
            let d1 = a1 - xj;
            let d2 = a2 - xj;
            let d3 = a3 - xj;
            s[0] += d0 * d0;
            s[1] += d1 * d1;
            s[2] += d2 * d2;
            s[3] += d3 * d3;
        }
        cell.copy_from_slice(&s);
    }
    let tail = rows.rows() - rows.rows() % 4;
    for (i, cell) in (tail..).zip(blocks.into_remainder()) {
        *cell = squared_distance(rows.row(i), x);
    }
}

/// The rows of a row-major plane, split so that one blocked
/// [`squared_distances`] pass covers every column that all rows hold fixed.
///
/// Row `r` is fixed before column `open_from[r]`: *complete* when that is
/// the width, *open* otherwise. With `w` the smallest `open_from` over the
/// open rows (the width when none is), complete rows are kept whole and
/// open rows' columns `0..w` apart, so no cell is stored twice.
#[derive(Debug, Clone)]
pub struct PrefixSplit {
    complete: Matrix,
    complete_rows: Vec<usize>,
    /// Columns `0..w` of each open row.
    prefixes: Matrix,
    open_rows: Vec<usize>,
}

impl PrefixSplit {
    /// Split `plane`, rows of `width` cells fixed before `open_from`.
    ///
    /// # Panics
    ///
    /// If `plane` is not one row of `width` cells per `open_from` entry, or
    /// an entry exceeds `width`.
    pub fn new(plane: &[f64], width: usize, open_from: &[usize]) -> PrefixSplit {
        assert_eq!(plane.len(), open_from.len() * width, "rows × width cells");
        assert!(open_from.iter().all(|&c| c <= width), "open past the width");
        let (complete_rows, open_rows): (Vec<usize>, Vec<usize>) =
            (0..open_from.len()).partition(|&r| open_from[r] == width);
        let w = open_rows.iter().map(|&r| open_from[r]).min();
        let gather = |rows: &[usize], cols| {
            let mut cells = Vec::with_capacity(rows.len() * cols);
            for &r in rows {
                cells.extend_from_slice(&plane[r * width..r * width + cols]);
            }
            Matrix::from_vec(cells, rows.len(), cols).expect("rows × cols cells")
        };
        PrefixSplit {
            complete: gather(&complete_rows, width),
            prefixes: gather(&open_rows, w.unwrap_or(width)),
            complete_rows,
            open_rows,
        }
    }

    /// Row width of the plane.
    pub fn width(&self) -> usize {
        self.complete.cols
    }

    /// `w`: the leading columns that every row holds fixed.
    pub fn shared_width(&self) -> usize {
        self.prefixes.cols
    }

    /// Plane rows of the complete rows, ascending.
    pub fn complete_rows(&self) -> &[usize] {
        &self.complete_rows
    }

    /// Plane rows of the open rows, ascending.
    pub fn open_rows(&self) -> &[usize] {
        &self.open_rows
    }

    /// Write into `out` the [`squared_distance`] from `x` to each complete
    /// row, then to each open row over columns `0..w`, in row order.
    ///
    /// # Panics
    ///
    /// If `x` is not as wide as a row, or `out` is not one entry per row.
    pub fn distances(&self, x: &[f64], out: &mut [f64]) {
        let (complete, prefixes) = out.split_at_mut(self.complete_rows.len());
        squared_distances(&self.complete, x, complete);
        squared_distances(&self.prefixes, &x[..self.shared_width()], prefixes);
    }
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Solve the linear system `A x = b` by Gaussian elimination with partial
/// pivoting. `A` must be square.
#[allow(clippy::needless_range_loop)] // triangular index patterns
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = a.rows();
    if a.cols() != n {
        return Err(MlError::InvalidArgument(
            "solve requires a square matrix".into(),
        ));
    }
    if b.len() != n {
        return Err(MlError::DimensionMismatch {
            expected: n,
            got: b.len(),
        });
    }
    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, m.get(r, col).abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).expect("finite"))
            .expect("non-empty range");
        if pivot_val < 1e-12 {
            return Err(MlError::Numerical("singular matrix in solve".into()));
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m.get(col, j);
                m.set(col, j, m.get(pivot_row, j));
                m.set(pivot_row, j, tmp);
            }
            rhs.swap(col, pivot_row);
        }
        let pivot = m.get(col, col);
        for r in col + 1..n {
            let factor = m.get(r, col) / pivot;
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                let v = m.get(r, j) - factor * m.get(col, j);
                m.set(r, j, v);
            }
            rhs[r] -= factor * rhs[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = rhs[i];
        for j in i + 1..n {
            s -= m.get(i, j) * x[j];
        }
        x[i] = s / m.get(i, i);
    }
    Ok(x)
}

/// Cholesky factorization of a symmetric positive-definite matrix:
/// returns lower-triangular `L` with `L Lᵀ = A`.
#[allow(clippy::needless_range_loop)] // triangular index patterns
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    let n = a.rows();
    if a.cols() != n {
        return Err(MlError::InvalidArgument(
            "cholesky requires a square matrix".into(),
        ));
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a.get(i, j);
            for k in 0..j {
                s -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if s <= 0.0 {
                    return Err(MlError::Numerical(format!(
                        "matrix not positive definite at pivot {i} (s={s})"
                    )));
                }
                l.set(i, j, s.sqrt());
            } else {
                l.set(i, j, s / l.get(j, j));
            }
        }
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert!(Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_vec(vec![1.0; 5], 2, 2).is_err());
    }

    #[test]
    fn take_rows_and_iter() {
        let m = Matrix::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let t = m.take_rows(&[2, 0, 2]);
        assert_eq!(t.row(0), &[3.0]);
        assert_eq!(t.row(2), &[3.0]);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn dot_axpy_norm_distance() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    /// Rows whose squared differences round differently depending on the
    /// summation order, plus signed zeros and a subnormal.
    fn awkward_rows(n: usize, d: usize) -> Matrix {
        let mut data = Vec::with_capacity(n * d);
        for i in 0..n {
            for j in 0..d {
                let v = match (i + j) % 5 {
                    0 => 1e16 + (i * j) as f64,
                    1 => -0.0,
                    2 => 0.1 * (i as f64 - j as f64),
                    3 => f64::MIN_POSITIVE / 4.0,
                    _ => -3.0e-8 * (j + 1) as f64,
                };
                data.push(v);
            }
        }
        Matrix::from_vec(data, n, d).unwrap()
    }

    #[test]
    fn squared_distances_match_squared_distance_bit_for_bit() {
        // n not a multiple of 4 exercises the tail; d = 0 the empty sum.
        for n in [0, 1, 3, 4, 5, 8, 11] {
            for d in [0, 1, 2, 7] {
                let rows = awkward_rows(n, d);
                let points = awkward_rows(3, d);
                for p in 0..points.rows() {
                    let x = points.row(p);
                    let mut out = vec![f64::NAN; n];
                    squared_distances(&rows, x, &mut out);
                    for (i, got) in out.iter().enumerate() {
                        let want = squared_distance(rows.row(i), x);
                        assert_eq!(got.to_bits(), want.to_bits(), "n={n} d={d} row {i}");
                    }
                }
            }
        }
        // Zero-width rows give `f64`'s empty sum, -0.0, in the blocked
        // loop as well as in the tail.
        let mut out = [1.0; 5];
        squared_distances(&Matrix::zeros(5, 0), &[], &mut out);
        let empty = squared_distance(&[], &[]);
        assert_eq!(empty.to_bits(), (-0.0f64).to_bits());
        assert!(out.iter().all(|v| v.to_bits() == empty.to_bits()));
    }

    #[test]
    fn a_continued_prefix_is_the_full_distance_bit_for_bit() {
        for d in [0, 1, 2, 7] {
            let rows = awkward_rows(5, d);
            let points = awkward_rows(3, d);
            for p in 0..points.rows() {
                let x = points.row(p);
                for (i, row) in rows.iter_rows().enumerate() {
                    let want = squared_distance(row, x);
                    for e in 0..=d {
                        let prefix = continue_squared_distance(-0.0, &row[..e], &x[..e]);
                        let full = continue_squared_distance(prefix, &row[e..], &x[e..]);
                        assert_eq!(full.to_bits(), want.to_bits(), "d={d} row {i} end {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_prefix_split_stores_each_cell_once_and_folds_like_squared_distance() {
        let (n, d) = (7, 5);
        let rows = awkward_rows(n, d);
        let plane: Vec<f64> = rows.iter_rows().flatten().copied().collect();
        let x = awkward_rows(2, d);
        for (open_from, w) in [
            (vec![5, 2, 5, 4, 5, 3, 5], 2),
            (vec![0, 5, 3, 5, 5, 5, 1], 0),
            (vec![5; 7], 5),
            (vec![4; 7], 4),
        ] {
            let split = PrefixSplit::new(&plane, d, &open_from);
            let complete: Vec<usize> = (0..n).filter(|&r| open_from[r] == d).collect();
            let open: Vec<usize> = (0..n).filter(|&r| open_from[r] < d).collect();
            assert_eq!(split.complete_rows(), complete);
            assert_eq!(split.open_rows(), open);
            assert_eq!(split.complete, rows.take_rows(&complete));
            assert_eq!((split.width(), split.shared_width()), (d, w));
            let mut out = vec![f64::NAN; n];
            split.distances(x.row(1), &mut out);
            for (&r, got) in complete.iter().chain(&open).zip(&out) {
                let e = if open_from[r] == d { d } else { w };
                let want = squared_distance(&rows.row(r)[..e], &x.row(1)[..e]);
                assert_eq!(got.to_bits(), want.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "differ in width")]
    fn squared_distances_rejects_a_width_mismatch() {
        let mut out = [0.0; 2];
        squared_distances(&Matrix::zeros(2, 3), &[1.0, 2.0], &mut out);
    }

    #[test]
    fn solve_recovers_solution() {
        let a = Matrix::from_rows(vec![
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 4.0],
        ])
        .unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b: Vec<f64> = a.iter_rows().map(|r| dot(r, &x_true)).collect();
        let x = solve(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{x:?}");
        }
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the first diagonal element forces a row swap.
        let a = Matrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_rejects_singular() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(solve(&a, &[1.0, 2.0]), Err(MlError::Numerical(_))));
    }

    #[test]
    fn cholesky_factorizes_spd() {
        let a = Matrix::from_rows(vec![vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let l = cholesky(&a).unwrap();
        // Reconstruct L L^T.
        for i in 0..2 {
            for j in 0..2 {
                let mut s = 0.0;
                for k in 0..2 {
                    s += l.get(i, k) * l.get(j, k);
                }
                assert!((s - a.get(i, j)).abs() < 1e-12);
            }
        }
        let not_spd = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(cholesky(&not_spd).is_err());
    }

    #[test]
    fn gram_matches_definition() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let g = m.gram_regularized(0.5);
        // A^T A = [[10, 14], [14, 20]] plus 0.5 I.
        assert_eq!(g.get(0, 0), 10.5);
        assert_eq!(g.get(0, 1), 14.0);
        assert_eq!(g.get(1, 1), 20.5);
    }
}
