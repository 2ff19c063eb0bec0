//! Cross-checks for the arena-interned provenance engine against the seed
//! reference representation, and thread-invariance of the parallel
//! executor: the optimized paths must be *observationally identical* to the
//! simple ones — same tables, same lineage, same what-if answers — at every
//! thread count.

use nde::scenario::load_recommendation_letters;
use nde_data::{DataType, Field, Schema, Table};
use nde_pipeline::exec::Executor;
use nde_pipeline::expr::Expr;
use nde_pipeline::plan::{JoinType, Plan};
use nde_pipeline::provenance::ProvNodeRef;
use nde_pipeline::semiring::{BoolSemiring, CountSemiring};
use nde_pipeline::whatif::{
    predict_deletion, predict_deletions_batch, predict_deletions_batch_threaded,
};
use nde_pipeline::{ProvArena, ProvId, TupleId};
use nde_tests::provenance::{row_expr, ProvExpr};

/// The Fig. 3 hiring pipeline with provenance, at a given thread count.
fn run_hiring(n: usize, threads: usize) -> (Table, nde_pipeline::Lineage) {
    let s = load_recommendation_letters(n, 41);
    let (plan, root) = Plan::hiring_pipeline();
    let out = Executor::new()
        .with_provenance(true)
        .with_threads(threads)
        .run(&plan, root, &s.pipeline_inputs(&s.train))
        .expect("pipeline runs");
    (out.table, out.provenance.expect("provenance tracked"))
}

#[test]
fn arena_lineage_matches_materialized_reference_trees() {
    // Every per-row polynomial the executor interned must evaluate exactly
    // like its materialized recursive tree — Boolean under deletions,
    // counting multiplicity, and tuple support.
    let (_, lineage) = run_hiring(400, 2);
    assert!(lineage.n_rows() > 0);
    let src = lineage.source_index("train_df").expect("primary source");

    // Delete every third source row.
    let alive = |t: TupleId| !(t.source == src && t.row.is_multiple_of(3));
    let arena_bool = lineage.eval_rows::<BoolSemiring>(&alive);
    let arena_count = lineage.eval_rows::<CountSemiring>(&|_| 1);
    for row in 0..lineage.n_rows() {
        let tree: ProvExpr = row_expr(&lineage, row);
        assert_eq!(
            arena_bool[row],
            tree.eval::<BoolSemiring>(&alive),
            "row {row}"
        );
        assert_eq!(
            arena_count[row],
            tree.eval::<CountSemiring>(&|_| 1),
            "row {row}"
        );
        assert_eq!(lineage.row_tuples(row), tree.tuples(), "row {row}");
    }
}

/// Removing a letters tuple from a traced hiring run's arena gives exactly
/// the arena a fresh run over the letters without that row interns (the
/// letters side of every operator on the way keeps its other rows in
/// order), the surviving rows' ids become the fresh run's, and interning
/// afterwards finds the surviving nodes instead of adding any.
#[test]
fn compacted_arena_equals_a_fresh_run_without_the_tuple() {
    let s = load_recommendation_letters(200, 43);
    let (plan, root) = Plan::hiring_pipeline();
    let exec = Executor::new().with_provenance(true);
    let lineage = exec
        .run(&plan, root, &s.pipeline_inputs(&s.train))
        .unwrap()
        .provenance
        .unwrap();
    let src = lineage.source_index("train_df").unwrap();
    let n = s.train.n_rows();
    for row in [0, n / 2, n - 1] {
        let kept: Vec<usize> = (0..n).filter(|&r| r != row).collect();
        let train = s.train.take(&kept).unwrap();
        let fresh = exec
            .run(&plan, root, &s.pipeline_inputs(&train))
            .unwrap()
            .provenance
            .unwrap();
        let mut arena = lineage.arena.clone();
        let ids = arena.remove_tuple(TupleId::new(src, row as u32));
        assert_eq!(arena, fresh.arena, "row {row}");
        assert_eq!(ids.len(), lineage.arena.len());
        let surviving: Vec<ProvId> = lineage
            .rows
            .iter()
            .filter_map(|id| ids[id.index()])
            .collect();
        assert_eq!(surviving, fresh.rows, "row {row}");
        let len = arena.len();
        for (id, node) in fresh.arena.iter_nodes() {
            let again = match node {
                ProvNodeRef::Var(t) => arena.var(t),
                ProvNodeRef::Times(kids) => kids[1..]
                    .iter()
                    .fold(kids[0], |acc, &k| arena.times(acc, k)),
                ProvNodeRef::Plus(kids) => arena.plus(kids),
            };
            assert_eq!(again, id, "row {row}");
        }
        assert_eq!(arena.len(), len, "row {row}: re-interning added nodes");
    }
}

/// Every node holding the removed tuple goes — a `Plus` with one such
/// alternative too — and the source's later rows move down by one.
#[test]
fn remove_tuple_drops_every_node_holding_the_tuple() {
    let t = TupleId::new;
    let mut arena = ProvArena::new();
    let a0 = arena.var(t(0, 0));
    let a1 = arena.var(t(0, 1));
    let a2 = arena.var(t(0, 2));
    let b0 = arena.var(t(1, 0));
    let p = arena.times(a1, b0);
    let q = arena.times(a2, b0);
    arena.plus(&[p, a0]);
    arena.plus(&[q, a0]);
    let ids = arena.remove_tuple(t(0, 1));
    let mut want = ProvArena::new();
    let w0 = want.var(t(0, 0));
    let w2 = want.var(t(0, 1));
    let wb = want.var(t(1, 0));
    let wq = want.times(w2, wb);
    let wk = want.plus(&[wq, w0]);
    assert_eq!(arena, want);
    let expect = [
        Some(w0),
        None,
        Some(w2),
        Some(wb),
        None,
        Some(wq),
        None,
        Some(wk),
    ];
    assert_eq!(ids, expect);
    // Interning continues after the compaction: old nodes are found, a
    // new one is appended.
    assert_eq!(arena.times(w2, wb), wq);
    assert_eq!(arena.var(t(0, 1)), w2);
    let fresh = arena.times(w0, wb);
    assert_eq!((fresh.index(), arena.len()), (5, 6));
}

#[test]
fn inverted_index_agrees_with_per_row_tuple_sets() {
    let (_, lineage) = run_hiring(300, 4);
    let src = lineage.source_index("train_df").expect("primary source");
    let source_len = 300;
    let inv = lineage.outputs_per_source_row(src, source_len);

    // Rebuild the inverted index from the per-row tuple sets and compare.
    let mut expect = vec![Vec::new(); source_len];
    for row in 0..lineage.n_rows() {
        for t in lineage.row_tuples(row) {
            if t.source == src && (t.row as usize) < source_len {
                expect[t.row as usize].push(row);
            }
        }
    }
    assert_eq!(inv, expect);
    assert!(inv.iter().any(|outs| !outs.is_empty()));
}

#[test]
fn batched_deletion_prediction_matches_single_scenario_path() {
    // 70 scenarios cross the 64-lane boundary, so the batch path must
    // stitch two bitset passes together and still reproduce the one-at-a-
    // time predictions exactly (including empty deletion sets).
    let (_, lineage) = run_hiring(250, 1);
    let src = lineage.source_index("train_df").expect("primary source");
    let sets: Vec<Vec<TupleId>> = (0..70)
        .map(|k| {
            if k % 7 == 0 {
                Vec::new() // nothing deleted: everything must survive
            } else {
                (0..250u32)
                    .filter(|r| r % 70 == k)
                    .map(|r| TupleId::new(src, r))
                    .collect()
            }
        })
        .collect();
    let batch = predict_deletions_batch(&lineage, &sets);
    assert_eq!(batch.len(), sets.len());
    for (k, set) in sets.iter().enumerate() {
        let single = predict_deletion(&lineage, set);
        assert_eq!(batch[k], single, "scenario {k}");
        if set.is_empty() {
            assert!(batch[k].deleted_rows.is_empty());
            assert_eq!(batch[k].loss_fraction(), 0.0);
        }
    }
}

#[test]
fn threaded_deletion_batch_is_thread_invariant() {
    // 300 scenarios = 5 bitset chunks: enough for the chunk-parallel path
    // to actually interleave workers, and the effects must still come back
    // in scenario order, bit-identical at every thread count.
    let (_, lineage) = run_hiring(300, 2);
    let src = lineage.source_index("train_df").expect("primary source");
    let sets: Vec<Vec<TupleId>> = (0..300)
        .map(|k| {
            (0..300u32)
                .filter(|r| (*r as usize + k).is_multiple_of(29))
                .map(|r| TupleId::new(src, r))
                .collect()
        })
        .collect();
    let base = predict_deletions_batch(&lineage, &sets);
    assert_eq!(base.len(), sets.len());
    for threads in [1usize, 2, 4, 7] {
        assert_eq!(
            predict_deletions_batch_threaded(&lineage, &sets, threads),
            base,
            "threads={threads}"
        );
    }
}

#[test]
fn hiring_pipeline_is_thread_invariant() {
    // Output table AND lineage (arena node store, row ids, source order)
    // must be bit-identical at every thread count.
    let (base_table, base_lineage) = run_hiring(350, 1);
    for threads in [2, 4, 7] {
        let (table, lineage) = run_hiring(350, threads);
        assert_eq!(table, base_table, "table differs at {threads} threads");
        assert_eq!(
            lineage, base_lineage,
            "lineage differs at {threads} threads"
        );
    }
}

#[test]
fn join_distinct_fuzzy_concat_plan_is_thread_invariant() {
    // A plan exercising every parallelized operator: inner join, left
    // join, fuzzy join, distinct, and concat. The merge-in-index-order
    // contract must hold for each.
    let mut people = Table::empty(
        "people",
        Schema::new(vec![
            Field::new("name", DataType::Str),
            Field::new("city_id", DataType::Int),
        ])
        .unwrap(),
    );
    let mut cities = Table::empty(
        "cities",
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("city", DataType::Str),
        ])
        .unwrap(),
    );
    let mut aliases = Table::empty(
        "aliases",
        Schema::new(vec![
            Field::new("alias", DataType::Str),
            Field::new("canonical", DataType::Str),
        ])
        .unwrap(),
    );
    for i in 0..120i64 {
        people
            .push_row(vec![format!("person{}", i % 40).into(), (i % 7).into()])
            .unwrap();
    }
    for i in 0..5i64 {
        cities
            .push_row(vec![i.into(), format!("city{i}").into()])
            .unwrap();
    }
    for i in 0..40 {
        aliases
            .push_row(vec![
                format!("Person{}", i).into(), // case-typo of people.name
                format!("canon{}", i % 10).into(),
            ])
            .unwrap();
    }

    let mut plan = Plan::new();
    let p = plan.source("people");
    let c = plan.source("cities");
    let a = plan.source("aliases");
    let inner = plan.join(p, c, "city_id", "id", JoinType::Inner);
    let left = plan.join(p, c, "city_id", "id", JoinType::Left);
    let fuzzy = plan.fuzzy_join(inner, a, "name", "alias", 0.8);
    let distinct = plan.distinct(fuzzy, "name");
    let narrowed_left = plan.select(left, &["name", "city_id"]);
    let narrowed_distinct = plan.select(distinct, &["name", "city_id"]);
    let filtered = plan.filter(narrowed_left, Expr::col("city_id").lt(Expr::int(3)));
    let root = plan.concat(narrowed_distinct, filtered);

    let inputs: Vec<(&str, &Table)> = vec![
        ("people", &people),
        ("cities", &cities),
        ("aliases", &aliases),
    ];
    let run_at = |threads: usize| {
        Executor::new()
            .with_provenance(true)
            .with_threads(threads)
            .run(&plan, root, &inputs)
            .expect("plan runs")
    };
    let base = run_at(1);
    assert!(base.table.n_rows() > 0);
    let base_lineage = base.provenance.expect("provenance tracked");
    for threads in [2, 4, 7] {
        let out = run_at(threads);
        assert_eq!(out.table, base.table, "table differs at {threads} threads");
        assert_eq!(
            out.provenance.expect("provenance tracked"),
            base_lineage,
            "lineage differs at {threads} threads"
        );
    }

    // And the lineage stays cross-checkable against reference trees.
    let alive = |t: TupleId| t.row.is_multiple_of(2);
    let arena_bool = base_lineage.eval_rows::<BoolSemiring>(&alive);
    for (row, arena_truth) in arena_bool.iter().enumerate() {
        assert_eq!(
            *arena_truth,
            row_expr(&base_lineage, row).eval::<BoolSemiring>(&alive),
            "row {row}"
        );
    }
}
