//! Structure-of-arrays interval kernels: the Learn pillar's hot-path
//! engine.
//!
//! [`Interval`] is a fine abstraction for building symbolic computations,
//! but a loop over `Interval` values interleaves `lo` and `hi` in memory,
//! so the optimizer cannot vectorize the epoch loops of
//! [`crate::zorro::ZorroRegressor`] or the incomplete-row distance scans of
//! [`crate::certain_knn`]. The kernels here ([`dot`], [`axpy`],
//! [`sq_dist_bounds`], [`sq_dist_bounds_pruned`]) are straight-line loops
//! over separate `lo` and `hi` slices: a row of a
//! [`SymbolicMatrix`](crate::symbolic::SymbolicMatrix), which stores its
//! cells as row-major `lo`/`hi` planes, or an [`IntervalVec`] (Zorro's
//! weights, gradients and targets).
//!
//! # Bit-identity contract
//!
//! Every kernel performs **exactly the floating-point operations, in
//! exactly the order**, of the equivalent scalar [`Interval`] expression
//! (`interval_dot`, `acc + a * x`, `(iv - point(q)).square()` folds). Only
//! the memory layout changes, so results are bit-identical to the scalar
//! [`Interval`] computations. Those references are test code: `zorro.rs`'s
//! unit tests keep the array-of-structs Zorro trainer, and the `nde-tests`
//! crate keeps the per-query 1-NN certain-prediction check that
//! `tests/tests/uncertain_soa.rs` compares the pruned scan against across
//! random matrices.

use crate::interval::Interval;

/// A vector of intervals stored as two contiguous planes.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalVec {
    /// Lower bounds.
    pub lo: Vec<f64>,
    /// Upper bounds.
    pub hi: Vec<f64>,
}

impl IntervalVec {
    /// `n` point-zero intervals.
    pub fn zeros(n: usize) -> IntervalVec {
        IntervalVec {
            lo: vec![0.0; n],
            hi: vec![0.0; n],
        }
    }

    /// Split an AoS interval slice into planes.
    pub fn from_intervals(ivs: &[Interval]) -> IntervalVec {
        IntervalVec {
            lo: ivs.iter().map(|i| i.lo).collect(),
            hi: ivs.iter().map(|i| i.hi).collect(),
        }
    }

    /// Materialize the AoS representation.
    pub fn to_intervals(&self) -> Vec<Interval> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&lo, &hi)| Interval { lo, hi })
            .collect()
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// `true` if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// The `i`-th interval.
    pub fn get(&self, i: usize) -> Interval {
        Interval {
            lo: self.lo[i],
            hi: self.hi[i],
        }
    }

    /// Overwrite the `i`-th interval.
    pub fn set(&mut self, i: usize, iv: Interval) {
        self.lo[i] = iv.lo;
        self.hi[i] = iv.hi;
    }
}

/// Product bounds of `[a_lo, a_hi] * [b_lo, b_hi]`, with the exact
/// candidate fold order of `Interval::mul`.
#[inline]
fn mul_bounds(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> (f64, f64) {
    let c0 = a_lo * b_lo;
    let c1 = a_lo * b_hi;
    let c2 = a_hi * b_lo;
    let c3 = a_hi * b_hi;
    (c0.min(c1).min(c2).min(c3), c0.max(c1).max(c2).max(c3))
}

/// Fused interval dot product `Σ_j w_j · x_j` over planes: bit-identical to
/// `interval_dot` on the AoS representation (same per-element candidate
/// folds, same left-to-right accumulation).
#[inline]
pub fn dot(w_lo: &[f64], w_hi: &[f64], x_lo: &[f64], x_hi: &[f64]) -> (f64, f64) {
    debug_assert!(w_lo.len() == x_lo.len() && w_hi.len() == x_hi.len());
    let mut acc_lo = 0.0;
    let mut acc_hi = 0.0;
    for j in 0..w_lo.len() {
        let (p_lo, p_hi) = mul_bounds(w_lo[j], w_hi[j], x_lo[j], x_hi[j]);
        acc_lo += p_lo;
        acc_hi += p_hi;
    }
    (acc_lo, acc_hi)
}

/// Fused interval axpy `y_j += a · x_j` (scalar interval `a`, vector `x`),
/// the Zorro gradient-accumulate kernel: bit-identical to
/// `y[j] = y[j] + a * x[j]` with AoS intervals.
#[inline]
pub fn axpy(a_lo: f64, a_hi: f64, x_lo: &[f64], x_hi: &[f64], y_lo: &mut [f64], y_hi: &mut [f64]) {
    debug_assert!(x_lo.len() == y_lo.len() && x_hi.len() == y_hi.len());
    for j in 0..x_lo.len() {
        let (p_lo, p_hi) = mul_bounds(a_lo, a_hi, x_lo[j], x_hi[j]);
        y_lo[j] += p_lo;
        y_hi[j] += p_hi;
    }
}

/// One squared-distance term `((x - q)²)` as `(lo, hi)` bounds, with the
/// exact operation order of `(iv - Interval::point(q)).square()`.
#[inline]
fn sq_term(q: f64, x_lo: f64, x_hi: f64) -> (f64, f64) {
    let d_lo = x_lo - q;
    let d_hi = x_hi - q;
    let a = d_lo.abs();
    let b = d_hi.abs();
    let aa = a * a;
    let bb = b * b;
    let t_hi = aa.max(bb);
    let t_lo = if d_lo <= 0.0 && 0.0 <= d_hi {
        0.0
    } else {
        aa.min(bb)
    };
    (t_lo, t_hi)
}

/// Squared-distance bounds between a concrete `query` and an interval row
/// given as planes: `(lower_bound, upper_bound)` of `acc + Σ_j (x_j − q_j)²`.
/// From `acc = 0.0`, bit-identical to the AoS fold
/// `d = d + (iv − point(q)).square()`; a point cell's bounds are both
/// `squared_distance`'s `d * d`, so continuing from the `squared_distance`
/// of a row's leading point cells gives the same bits on a row with a
/// column.
#[inline]
pub fn sq_dist_bounds(acc: f64, query: &[f64], x_lo: &[f64], x_hi: &[f64]) -> (f64, f64) {
    debug_assert!(query.len() == x_lo.len() && query.len() == x_hi.len());
    let mut d_lo = acc;
    let mut d_hi = acc;
    for j in 0..query.len() {
        let (t_lo, t_hi) = sq_term(query[j], x_lo[j], x_hi[j]);
        d_lo += t_lo;
        d_hi += t_hi;
    }
    (d_lo, d_hi)
}

/// [`sq_dist_bounds`] with candidate pruning: returns `None` as soon as the
/// running **lower** bound, `acc` included, strictly exceeds `cutoff` (the
/// current best upper bound in a nearest-neighbor scan). Per-dimension
/// terms are non-negative, so the partial lower bound is monotone and the
/// early exit never misprunes; for rows that survive, the returned bounds
/// are bit-identical to the unpruned kernel.
#[inline]
pub fn sq_dist_bounds_pruned(
    acc: f64,
    query: &[f64],
    x_lo: &[f64],
    x_hi: &[f64],
    cutoff: f64,
) -> Option<(f64, f64)> {
    debug_assert!(query.len() == x_lo.len() && query.len() == x_hi.len());
    if acc > cutoff {
        return None;
    }
    let mut d_lo = acc;
    let mut d_hi = acc;
    for j in 0..query.len() {
        let (t_lo, t_hi) = sq_term(query[j], x_lo[j], x_hi[j]);
        d_lo += t_lo;
        d_hi += t_hi;
        if d_lo > cutoff {
            return None;
        }
    }
    Some((d_lo, d_hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::interval_dot;
    use nde_data::rng::{seeded, Rng, StdRng};

    fn random_intervals(n: usize, rng: &mut impl Rng) -> Vec<Interval> {
        (0..n)
            .map(|i| {
                let a = rng.gen_range(-3.0..3.0);
                if i % 3 == 0 {
                    Interval::point(a)
                } else {
                    let w: f64 = rng.gen_range(0.0..2.0);
                    Interval::new(a, a + w)
                }
            })
            .collect()
    }

    #[test]
    fn interval_vec_roundtrips() {
        let mut rng = seeded(1);
        let ivs = random_intervals(13, &mut rng);
        let v = IntervalVec::from_intervals(&ivs);
        assert_eq!(v.len(), 13);
        assert!(!v.is_empty());
        assert_eq!(v.to_intervals(), ivs);
        assert_eq!(v.get(4), ivs[4]);
        let mut v2 = v.clone();
        v2.set(0, Interval::new(-9.0, 9.0));
        assert_eq!(v2.get(0), Interval::new(-9.0, 9.0));
    }

    #[test]
    fn dot_kernel_is_bit_identical_to_aos_dot() {
        let mut rng = seeded(3);
        for n in [0usize, 1, 2, 7, 33] {
            let a = random_intervals(n, &mut rng);
            let b = random_intervals(n, &mut rng);
            let (av, bv) = (
                IntervalVec::from_intervals(&a),
                IntervalVec::from_intervals(&b),
            );
            let (lo, hi) = dot(&av.lo, &av.hi, &bv.lo, &bv.hi);
            let reference = interval_dot(&a, &b);
            assert_eq!((lo, hi), (reference.lo, reference.hi), "n={n}");
        }
    }

    #[test]
    fn axpy_kernel_is_bit_identical_to_aos_fold() {
        let mut rng = seeded(4);
        for n in [1usize, 5, 24] {
            let a = random_intervals(1, &mut rng)[0];
            let x = random_intervals(n, &mut rng);
            let y0 = random_intervals(n, &mut rng);
            // AoS reference: y[j] = y[j] + a * x[j].
            let expect: Vec<Interval> = y0.iter().zip(&x).map(|(&y, &xi)| y + a * xi).collect();
            let xv = IntervalVec::from_intervals(&x);
            let mut yv = IntervalVec::from_intervals(&y0);
            axpy(a.lo, a.hi, &xv.lo, &xv.hi, &mut yv.lo, &mut yv.hi);
            assert_eq!(yv.to_intervals(), expect, "n={n}");
        }
    }

    /// On point rows both interval bounds are `squared_distance`'s bits:
    /// the certain-KNN index relies on this to take complete rows'
    /// distances from the exact panel kernel.
    #[test]
    fn point_row_bounds_are_squared_distance_bits() {
        use nde_ml::linalg::squared_distance;
        let sub = f64::MIN_POSITIVE / 8.0;
        let points: [[f64; 3]; 6] = [
            [0.0, -0.0, 1.0],
            [-0.0, 0.0, -0.0],
            [sub, -sub, 3.0 * sub],
            [-f64::MIN_POSITIVE, sub, -2.0 * sub],
            [1e150, -1e150, 3.0e149],
            [1.5, -2.25, 0.125],
        ];
        let mut rng = seeded(6);
        let random: Vec<[f64; 3]> = (0..20)
            .map(|_| [0; 3].map(|_| rng.gen_range(-3.0..3.0)))
            .collect();
        // Every pair, so each point also meets itself as the query.
        for row in points.iter().chain(&random) {
            for q in points.iter().chain(&random) {
                for n in 1..=3 {
                    let (row, q) = (&row[..n], &q[..n]);
                    let d = squared_distance(row, q).to_bits();
                    let (lo, hi) = sq_dist_bounds(0.0, q, row, row);
                    assert_eq!((lo.to_bits(), hi.to_bits()), (d, d), "{row:?} vs {q:?}");
                }
            }
        }
        // A row with no columns: the interval fold starts at 0.0 and the
        // `Sum` fold at -0.0. The two compare equal, and so do their
        // midpoints, so no `<`, `==` or `(value, index)` comparison (and
        // hence no certain-KNN verdict) can tell them apart.
        let (lo, hi) = sq_dist_bounds(0.0, &[], &[], &[]);
        let d = squared_distance(&[], &[]);
        assert_eq!(
            (lo.to_bits(), hi.to_bits()),
            (0.0f64.to_bits(), 0.0f64.to_bits())
        );
        assert_eq!(d.to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.partial_cmp(&lo), Some(std::cmp::Ordering::Equal));
        assert!(0.5 * (d + d) == 0.5 * (lo + hi));
    }

    /// Continuing the interval fold from the exact `squared_distance` of a
    /// row's leading point cells gives the one-pass fold's bits at every
    /// split `e`, and the pruned kernel prunes exactly when the unsplit
    /// one does: the certain-KNN index takes open rows' point prefixes
    /// from the exact panel kernel.
    #[test]
    fn a_fold_continued_from_an_exact_prefix_is_the_one_pass_fold() {
        use nde_ml::linalg::squared_distance;
        let sub = f64::MIN_POSITIVE / 8.0;
        let special = [0.0, -0.0, sub, -3.0 * sub, 1e150, -1e150, 1.5, -2.25];
        let mut rng = seeded(7);
        let pick = |rng: &mut StdRng| {
            if rng.gen_bool(0.5) {
                special[rng.gen_range(0..special.len())]
            } else {
                rng.gen_range(-3.0..3.0)
            }
        };
        for len in 0..=5usize {
            for _ in 0..60 {
                let q: Vec<f64> = (0..len).map(|_| pick(&mut rng)).collect();
                let lo: Vec<f64> = (0..len).map(|_| pick(&mut rng)).collect();
                let width: Vec<f64> = (0..len).map(|_| rng.gen_range(0.0..2.0)).collect();
                for e in 0..=len {
                    // Cells before `e` are points, the rest intervals.
                    let hi: Vec<f64> = (0..len)
                        .map(|j| if j < e { lo[j] } else { lo[j] + width[j] })
                        .collect();
                    let p = squared_distance(&lo[..e], &q[..e]);
                    let suffix = (&q[e..], &lo[e..], &hi[e..]);
                    let one = sq_dist_bounds(0.0, &q, &lo, &hi);
                    let split = sq_dist_bounds(p, suffix.0, suffix.1, suffix.2);
                    let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
                    if len == 0 {
                        // The zero-width row: -0.0 against 0.0, equal under
                        // every comparison. No open row is zero-width.
                        assert!(split == one && p.to_bits() == (-0.0f64).to_bits());
                    } else {
                        assert_eq!(bits(split), bits(one), "{lo:?} {hi:?} {q:?} e={e}");
                    }
                    let (p_below, lo_below) = (p.next_down(), one.0.next_down());
                    for cutoff in [-1.0, 0.0, p, p_below, one.0, lo_below, f64::INFINITY] {
                        let unsplit = sq_dist_bounds_pruned(0.0, &q, &lo, &hi, cutoff);
                        let cont = sq_dist_bounds_pruned(p, suffix.0, suffix.1, suffix.2, cutoff);
                        assert_eq!(cont.is_none(), unsplit.is_none(), "e={e} cutoff={cutoff}");
                        assert_eq!(cont.is_none(), p > cutoff || one.0 > cutoff);
                        if len > 0 {
                            assert_eq!(cont.map(bits), unsplit.map(bits));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sq_dist_kernels_match_aos_distance_and_each_other() {
        let mut rng = seeded(5);
        for n in [1usize, 4, 11] {
            let row = random_intervals(n, &mut rng);
            let q: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            // AoS reference: d = Σ (iv − point(q)).square().
            let mut reference = Interval::point(0.0);
            for (&iv, &qj) in row.iter().zip(&q) {
                reference = reference + (iv - Interval::point(qj)).square();
            }
            let rv = IntervalVec::from_intervals(&row);
            let (lo, hi) = sq_dist_bounds(0.0, &q, &rv.lo, &rv.hi);
            assert_eq!((lo, hi), (reference.lo, reference.hi), "n={n}");
            // Unreachable cutoff: pruned variant returns identical bounds.
            assert_eq!(
                sq_dist_bounds_pruned(0.0, &q, &rv.lo, &rv.hi, f64::INFINITY),
                Some((lo, hi))
            );
            // A cutoff below the final lower bound prunes the row.
            if lo > 0.0 {
                assert_eq!(
                    sq_dist_bounds_pruned(0.0, &q, &rv.lo, &rv.hi, lo * 0.5),
                    None
                );
            }
        }
    }
}
