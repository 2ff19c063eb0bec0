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
/// Its callers (the distance tables, neighbour orders and
/// `KnnClassifier`) read a data set's `x` in place: they hold no gathered
/// copy that could be laid out in [`PrefixSplit`]'s 8-row panels, and
/// copying `rows` into panels on every call gave no resolved end-to-end
/// gain on the Identify or Debug workflows, so this kernel keeps the
/// row-major layout.
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

/// Rows per panel of [`Panels`]: one lane each.
const LANES: usize = 8;

/// Rows of `cols` cells, 8 to a panel: panel `p` holds rows `8p..8p + 8`
/// column-interleaved, `panels[p * cols + j][l]` being column `j` of row
/// `8p + l`. The last `rows % 8` rows are kept row-major in `tail`.
#[derive(Debug, Clone)]
struct Panels {
    panels: Vec<[f64; LANES]>,
    tail: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Panels {
    /// Columns `0..cols` of the plane rows `rows`, in that order.
    fn gather(plane: &[f64], width: usize, rows: &[usize], cols: usize) -> Panels {
        let mut groups = rows.chunks_exact(LANES);
        let mut panels = Vec::with_capacity(rows.len() / LANES * cols);
        for group in &mut groups {
            panels.extend((0..cols).map(|j| std::array::from_fn(|l| plane[group[l] * width + j])));
        }
        let mut tail = Vec::with_capacity(groups.remainder().len() * cols);
        for &r in groups.remainder() {
            tail.extend_from_slice(&plane[r * width..r * width + cols]);
        }
        Panels {
            panels,
            tail,
            rows: rows.len(),
            cols,
        }
    }

    /// The [`squared_distance`] from `x` to each row, in row order.
    fn distances(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "point and rows differ in width");
        assert_eq!(out.len(), self.rows, "one output per row");
        let (full, tail) = out.split_at_mut(self.rows - self.rows % LANES);
        fold_panels(&self.panels, x, full);
        for (i, cell) in tail.iter_mut().enumerate() {
            *cell = squared_distance(&self.tail[i * self.cols..][..self.cols], x);
        }
    }
}

/// The distances from `x` to every row of `panels` (panels of `x.len()`
/// columns), 8 to each chunk of `out`: the baseline instantiation.
///
/// Each lane folds its own row in column order from `-0.0` as
/// `t = c[l] - x[j]; s[l] += t * t`, which is `squared_distance`'s float
/// sequence for that row, so the lanes are independent IEEE operations
/// that the compiler may run side by side in SIMD registers without
/// changing a bit. This body and its AVX2 instantiation
/// [`fold_panels_avx2`] are therefore bit-identical.
#[inline(always)]
fn fold_panels_portable(panels: &[[f64; LANES]], x: &[f64], out: &mut [f64]) {
    let cols = x.len();
    for (p, cell) in out.chunks_exact_mut(LANES).enumerate() {
        let mut s = [-0.0f64; LANES];
        for (c, &xj) in panels[p * cols..][..cols].iter().zip(x) {
            for l in 0..LANES {
                let t = c[l] - xj;
                s[l] += t * t;
            }
        }
        cell.copy_from_slice(&s);
    }
}

/// [`fold_panels_portable`] with AVX2's 4-wide registers. Only `avx2` is
/// enabled, not `fma`, and the loop has no `mul_add`: a fused multiply-add
/// would round `s + t * t` once instead of twice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_panels_avx2(panels: &[[f64; LANES]], x: &[f64], out: &mut [f64]) {
    fold_panels_portable(panels, x, out);
}

/// [`fold_panels_portable`] in the widest instantiation the CPU runs.
fn fold_panels(panels: &[[f64; LANES]], x: &[f64], out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU reports AVX2, the one target feature
        // `fold_panels_avx2` is compiled with.
        return unsafe { fold_panels_avx2(panels, x, out) };
    }
    fold_panels_portable(panels, x, out);
}

/// The rows of a row-major plane, split so that one exact distance pass
/// covers every column that all rows hold fixed.
///
/// Row `r` is fixed before column `open_from[r]`: *complete* when that is
/// the width, *open* otherwise. With `w` the smallest `open_from` over the
/// open rows (the width when none is), complete rows are kept whole and
/// open rows' columns `0..w` apart, so no cell is stored twice.
///
/// # Panel layout
///
/// Each part is gathered into panels of 8 rows stored column by column
/// (`[[f64; 8]; cols]`, one lane per row), with the last `rows % 8` rows
/// kept row-major. [`PrefixSplit::distances`] folds a panel's 8 rows side
/// by side: each lane adds its own row's squared differences in column
/// order from `-0.0`, exactly the float sequence of [`squared_distance`],
/// and the tail rows call `squared_distance` itself, so every distance
/// has its bits. The lanes run in SIMD registers, through an AVX2
/// instantiation of the same loop where the CPU reports AVX2 (never FMA,
/// which would round `s + t * t` once instead of twice).
#[derive(Debug, Clone)]
pub struct PrefixSplit {
    complete: Panels,
    complete_rows: Vec<usize>,
    /// Columns `0..w` of each open row.
    prefixes: Panels,
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
        PrefixSplit {
            complete: Panels::gather(plane, width, &complete_rows, width),
            prefixes: Panels::gather(plane, width, &open_rows, w.unwrap_or(width)),
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
        self.complete.distances(x, complete);
        self.prefixes.distances(&x[..self.shared_width()], prefixes);
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

    /// Cells that stress the fold: signed zeros, a subnormal, ±1e150 and
    /// terms whose sum rounds differently in another order.
    fn awkward_plane(n: usize, d: usize) -> Vec<f64> {
        let cell = |i: usize, j: usize| match (3 * i + j) % 7 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 4.0,
            3 => 1e150,
            4 => -1e150,
            5 => 1e16 + (i * j) as f64,
            _ => 0.1 * (i as f64 - j as f64),
        };
        (0..n)
            .flat_map(|i| (0..d).map(move |j| cell(i, j)))
            .collect()
    }

    /// `panels` read back row by row, after checking that it holds each
    /// cell of its rows exactly once.
    fn read_back(panels: &Panels) -> Matrix {
        let (n, d) = (panels.rows, panels.cols);
        let full = n - n % LANES;
        assert_eq!(panels.panels.len(), full / LANES * d);
        assert_eq!(panels.tail.len(), (n - full) * d);
        let cells = (0..n)
            .flat_map(|i| {
                (0..d).map(move |j| {
                    if i < full {
                        panels.panels[i / LANES * d + j][i % LANES]
                    } else {
                        panels.tail[(i - full) * d + j]
                    }
                })
            })
            .collect();
        Matrix::from_vec(cells, n, d).unwrap()
    }

    #[test]
    fn a_prefix_split_stores_each_cell_once_and_folds_like_squared_distance() {
        // Row `r`'s first open column, `None` for a complete row.
        let patterns: [fn(usize) -> Option<usize>; 5] = [
            |_| None,
            |_| Some(3),
            |r| (r % 2 == 1).then_some(1 + r % 3),
            |r| (r % 3 != 0).then_some(r % 4),
            |r| (r % 3 == 1).then_some(r % 2 * 2),
        ];
        let mut w_zero = 0;
        // Every row count up to two panels and one tail row, so each part
        // has 0, 1 or 2 panels and a tail of every length.
        for n in 0..=2 * LANES + 1 {
            for d in [0, 5] {
                let plane = awkward_plane(n, d);
                let rows = Matrix::from_vec(plane.clone(), n, d).unwrap();
                // A query off the plane, and queries equal to its first and
                // last rows.
                let mut points = vec![awkward_plane(n + 2, d)[(n + 1) * d..].to_vec()];
                if n > 0 {
                    points.extend([rows.row(0).to_vec(), rows.row(n - 1).to_vec()]);
                }
                for pattern in patterns {
                    let open_from: Vec<usize> =
                        (0..n).map(|r| pattern(r).map_or(d, |c| c.min(d))).collect();
                    let complete: Vec<usize> = (0..n).filter(|&r| open_from[r] == d).collect();
                    let open: Vec<usize> = (0..n).filter(|&r| open_from[r] < d).collect();
                    let w = open.iter().map(|&r| open_from[r]).min().unwrap_or(d);
                    w_zero += usize::from(w == 0 && d > 0);
                    let split = PrefixSplit::new(&plane, d, &open_from);
                    assert_eq!(split.complete_rows(), complete);
                    assert_eq!(split.open_rows(), open);
                    assert_eq!((split.width(), split.shared_width()), (d, w));
                    assert_eq!(read_back(&split.complete), rows.take_rows(&complete));
                    let prefixes = read_back(&split.prefixes);
                    for (i, &r) in open.iter().enumerate() {
                        assert_eq!(prefixes.row(i), &rows.row(r)[..w], "n={n} open row {r}");
                    }
                    for x in &points {
                        let mut out = vec![f64::NAN; n];
                        split.distances(x, &mut out);
                        for (&r, got) in complete.iter().chain(&open).zip(&out) {
                            let e = if open_from[r] == d { d } else { w };
                            let want = squared_distance(&rows.row(r)[..e], &x[..e]);
                            assert_eq!(got.to_bits(), want.to_bits(), "n={n} d={d} row {r}");
                        }
                    }
                }
            }
        }
        assert!(w_zero > 0, "no split with an empty shared prefix");
    }

    /// The baseline instantiation of the panel kernel and the one the CPU
    /// runs (AVX2 where it reports AVX2) give the same bits, and those of
    /// `squared_distance`.
    #[test]
    fn both_panel_instantiations_give_the_same_bits() {
        for n in [0, LANES, 3 * LANES] {
            for d in [0, 1, 7, 69] {
                let plane = awkward_plane(n, d);
                let all: Vec<usize> = (0..n).collect();
                let panels = Panels::gather(&plane, d, &all, d);
                assert!(panels.tail.is_empty());
                let points = awkward_plane(3, d + 1);
                for x in points.chunks_exact(d + 1).map(|p| &p[1..]) {
                    let mut baseline = vec![f64::NAN; n];
                    let mut dispatched = vec![f64::NAN; n];
                    fold_panels_portable(&panels.panels, x, &mut baseline);
                    fold_panels(&panels.panels, x, &mut dispatched);
                    for (i, (a, b)) in baseline.iter().zip(&dispatched).enumerate() {
                        let want = squared_distance(&plane[i * d..][..d], x);
                        assert_eq!(a.to_bits(), want.to_bits(), "baseline n={n} d={d} row {i}");
                        assert_eq!(
                            b.to_bits(),
                            want.to_bits(),
                            "dispatched n={n} d={d} row {i}"
                        );
                    }
                }
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
