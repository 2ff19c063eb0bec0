//! The recursive provenance tree [`ProvExpr`], the reference form of the
//! hash-consed [`ProvArena`] polynomials.
//!
//! A tree is simple to build by hand and to evaluate recursively, but
//! heap-heavy; the executor only ever builds arena nodes. [`intern_expr`]
//! and [`to_expr`] convert between the two forms through the arena's public
//! constructors and [`ProvArena::node`], and [`row_expr`] materializes one
//! output row of a [`Lineage`], so tests can check every arena evaluation
//! against direct recursive evaluation of the same polynomial.

use nde_data::fxhash::FxHashSet;
use nde_pipeline::provenance::{ProvNodeRef, TupleId};
use nde_pipeline::semiring::{why_var, Semiring, WhySemiring};
use nde_pipeline::{Lineage, ProvArena, ProvId};

/// A provenance polynomial as a recursive tree.
///
/// `Times` combines tuples that *jointly* produced a row (joins);
/// `Plus` combines *alternative* derivations (unions/dedup).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvExpr {
    /// A single source tuple.
    Var(TupleId),
    /// Joint derivation (e.g. the two sides of a join).
    Times(Vec<ProvExpr>),
    /// Alternative derivations.
    Plus(Vec<ProvExpr>),
}

impl ProvExpr {
    /// Product of two provenance expressions, flattening nested products.
    pub fn times(a: ProvExpr, b: ProvExpr) -> ProvExpr {
        let mut factors = Vec::new();
        for e in [a, b] {
            match e {
                ProvExpr::Times(mut f) => factors.append(&mut f),
                other => factors.push(other),
            }
        }
        ProvExpr::Times(factors)
    }

    /// All distinct source tuples mentioned anywhere in the expression.
    pub fn tuples(&self) -> Vec<TupleId> {
        let mut set = FxHashSet::default();
        self.collect_tuples(&mut set);
        let mut v: Vec<TupleId> = set.into_iter().collect();
        v.sort();
        v
    }

    fn collect_tuples(&self, out: &mut FxHashSet<TupleId>) {
        match self {
            ProvExpr::Var(t) => {
                out.insert(*t);
            }
            ProvExpr::Times(es) | ProvExpr::Plus(es) => {
                for e in es {
                    e.collect_tuples(out);
                }
            }
        }
    }

    /// Evaluate the polynomial in an arbitrary semiring, assigning each
    /// tuple variable via `assign`.
    pub fn eval<S: Semiring>(&self, assign: &impl Fn(TupleId) -> S::Elem) -> S::Elem {
        match self {
            ProvExpr::Var(t) => assign(*t),
            ProvExpr::Times(es) => es
                .iter()
                .fold(S::one(), |acc, e| S::times(&acc, &e.eval::<S>(assign))),
            ProvExpr::Plus(es) => es
                .iter()
                .fold(S::zero(), |acc, e| S::plus(&acc, &e.eval::<S>(assign))),
        }
    }

    /// The why-provenance (set of minimal-ish witnesses) of this expression.
    pub fn why(&self) -> <WhySemiring as Semiring>::Elem {
        self.eval::<WhySemiring>(&|t| why_var(t.as_var()))
    }
}

/// Intern a tree into `arena` through [`ProvArena::var`],
/// [`ProvArena::times`] and [`ProvArena::plus`]. Products fold left
/// through the binary `times`, so a product of `k > 2` factors also interns
/// its `k - 2` prefix products, and a one-factor product is its factor;
/// neither changes any semiring value. Panics on an empty `Times` or `Plus`.
pub fn intern_expr(arena: &mut ProvArena, e: &ProvExpr) -> ProvId {
    match e {
        ProvExpr::Var(t) => arena.var(*t),
        ProvExpr::Times(es) => {
            let ids: Vec<ProvId> = es.iter().map(|c| intern_expr(arena, c)).collect();
            ids.into_iter()
                .reduce(|a, b| arena.times(a, b))
                .expect("a product has at least one factor")
        }
        ProvExpr::Plus(es) => {
            let ids: Vec<ProvId> = es.iter().map(|c| intern_expr(arena, c)).collect();
            arena.plus(&ids)
        }
    }
}

/// Materialize the tree below arena node `id`.
pub fn to_expr(arena: &ProvArena, id: ProvId) -> ProvExpr {
    match arena.node(id) {
        ProvNodeRef::Var(t) => ProvExpr::Var(t),
        ProvNodeRef::Times(kids) => {
            ProvExpr::Times(kids.iter().map(|&k| to_expr(arena, k)).collect())
        }
        ProvNodeRef::Plus(kids) => {
            ProvExpr::Plus(kids.iter().map(|&k| to_expr(arena, k)).collect())
        }
    }
}

/// Materialize the tree of one output row.
pub fn row_expr(lineage: &Lineage, row: usize) -> ProvExpr {
    to_expr(&lineage.arena, lineage.rows[row])
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_pipeline::semiring::{BoolSemiring, CountSemiring};

    fn t(s: u32, r: u32) -> TupleId {
        TupleId::new(s, r)
    }

    #[test]
    fn times_flattens() {
        let e = ProvExpr::times(
            ProvExpr::times(ProvExpr::Var(t(0, 1)), ProvExpr::Var(t(1, 2))),
            ProvExpr::Var(t(2, 3)),
        );
        match &e {
            ProvExpr::Times(fs) => assert_eq!(fs.len(), 3),
            _ => panic!("expected Times"),
        }
        assert_eq!(e.tuples(), vec![t(0, 1), t(1, 2), t(2, 3)]);
    }

    #[test]
    fn eval_bool_and_count() {
        // (a * b) + a : derivable iff a and (b or one alternative).
        let e = ProvExpr::Plus(vec![
            ProvExpr::times(ProvExpr::Var(t(0, 0)), ProvExpr::Var(t(1, 0))),
            ProvExpr::Var(t(0, 0)),
        ]);
        // All tuples present.
        assert!(e.eval::<BoolSemiring>(&|_| true));
        // Source 1 deleted: still derivable via the second alternative.
        assert!(e.eval::<BoolSemiring>(&|id| id.source == 0));
        // Source 0 deleted: not derivable.
        assert!(!e.eval::<BoolSemiring>(&|id| id.source == 1));
        // Two derivations in the counting semiring.
        assert_eq!(e.eval::<CountSemiring>(&|_| 1), 2);
    }

    #[test]
    fn why_provenance_witnesses() {
        let e = ProvExpr::Plus(vec![
            ProvExpr::times(ProvExpr::Var(t(0, 0)), ProvExpr::Var(t(1, 0))),
            ProvExpr::Var(t(0, 1)),
        ]);
        let why = e.why();
        assert_eq!(why.len(), 2);
        let sizes: Vec<usize> = why.iter().map(|w| w.len()).collect();
        assert!(sizes.contains(&1) && sizes.contains(&2));
    }

    #[test]
    fn arena_times_flattens_like_tree_times() {
        let mut arena = ProvArena::new();
        let a = arena.var(t(0, 1));
        let b = arena.var(t(1, 2));
        let c = arena.var(t(2, 3));
        let ab = arena.times(a, b);
        let abc = arena.times(ab, c);
        match arena.node(abc) {
            ProvNodeRef::Times(kids) => assert_eq!(kids, &[a, b, c]),
            other => panic!("expected Times, got {other:?}"),
        }
        let tree = ProvExpr::times(
            ProvExpr::times(ProvExpr::Var(t(0, 1)), ProvExpr::Var(t(1, 2))),
            ProvExpr::Var(t(2, 3)),
        );
        assert_eq!(to_expr(&arena, abc), tree);
        assert_eq!(arena.tuples_of(abc), tree.tuples());
    }

    #[test]
    fn intern_expr_roundtrips_and_matches_eval() {
        let tree = ProvExpr::Plus(vec![
            ProvExpr::times(ProvExpr::Var(t(0, 0)), ProvExpr::Var(t(1, 0))),
            ProvExpr::Var(t(0, 0)),
        ]);
        let mut arena = ProvArena::new();
        let id = intern_expr(&mut arena, &tree);
        assert_eq!(to_expr(&arena, id), tree);
        let alive = |tid: TupleId| tid.source == 0;
        let bools = arena.eval_bool(&alive);
        assert_eq!(bools[id.index()], tree.eval::<BoolSemiring>(&alive));
        let counts = arena.eval_nodes::<CountSemiring>(&|_| 1);
        assert_eq!(counts[id.index()], tree.eval::<CountSemiring>(&|_| 1));
        let whys = arena.eval_nodes::<WhySemiring>(&|tid| why_var(tid.as_var()));
        assert_eq!(whys[id.index()], tree.why());
    }

    #[test]
    fn bitset_lanes_match_per_scenario_bool_eval() {
        // 3 tuples, 8 scenarios = all deletion subsets of {t00, t10, t01}.
        let tree = ProvExpr::Plus(vec![
            ProvExpr::times(ProvExpr::Var(t(0, 0)), ProvExpr::Var(t(1, 0))),
            ProvExpr::Var(t(0, 1)),
        ]);
        let mut arena = ProvArena::new();
        let id = intern_expr(&mut arena, &tree);
        let order = [t(0, 0), t(1, 0), t(0, 1)];
        let alive_lanes = |tid: TupleId| {
            let k = order.iter().position(|&o| o == tid).unwrap();
            // Scenario j deletes tuple k iff bit k of j is set.
            let mut lanes = 0u64;
            for j in 0..8u64 {
                if (j >> k) & 1 == 0 {
                    lanes |= 1 << j;
                }
            }
            lanes
        };
        let lanes = arena.eval_bool_lanes(&alive_lanes)[id.index()];
        for j in 0..8u64 {
            let alive = |tid: TupleId| {
                let k = order.iter().position(|&o| o == tid).unwrap();
                (j >> k) & 1 == 0
            };
            assert_eq!(
                (lanes >> j) & 1 == 1,
                tree.eval::<BoolSemiring>(&alive),
                "scenario {j}"
            );
        }
    }

    #[test]
    fn lineage_indexing() {
        let lineage = lineage_of(
            vec!["a".into(), "b".into()],
            &[
                ProvExpr::times(ProvExpr::Var(t(0, 2)), ProvExpr::Var(t(1, 0))),
                ProvExpr::Var(t(0, 2)),
                ProvExpr::Var(t(1, 1)),
            ],
        );
        assert_eq!(lineage.source_index("b"), Some(1));
        assert_eq!(lineage.source_index("z"), None);
        assert_eq!(lineage.row_tuples(1), vec![t(0, 2)]);
        assert_eq!(row_expr(&lineage, 2), ProvExpr::Var(t(1, 1)));
        // Shared var node `a2` is interned once across rows 0 and 1.
        assert_eq!(lineage.arena.len(), 4);
    }

    /// A lineage interned from reference trees.
    fn lineage_of(sources: Vec<String>, exprs: &[ProvExpr]) -> Lineage {
        let mut arena = ProvArena::new();
        let rows = exprs.iter().map(|e| intern_expr(&mut arena, e)).collect();
        Lineage::new(sources, arena, rows)
    }
}
