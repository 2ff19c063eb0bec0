//! Differential tests: the typed columnar table must be observationally
//! identical to the `Value`-per-cell reference table of this crate for
//! every table operation, under generated data with nulls, duplicate keys,
//! and injected errors — and the radix-partitioned join must be
//! thread-count invariant.

use nde::scenario::load_recommendation_letters;
use nde_data::inject::{add_gaussian_noise, duplicate_rows, inject_missing, Missingness};
use nde_data::planes::{BoolPlane, Plane};
use nde_data::rng::{seeded, Rng};
use nde_data::{DataType, Field, Schema, Table, Value};
use nde_tests::table::RefTable;

const THREADS: [usize; 4] = [1, 2, 4, 7];

/// A generated mixed-type table: Int / Float / Str / Bool columns, each with
/// nulls, duplicate values, and (for floats) both zero signs and repeats.
fn generated(name: &str, rows: usize, seed: u64) -> Table {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("score", DataType::Float),
        Field::new("tag", DataType::Str),
        Field::new("flag", DataType::Bool),
    ])
    .unwrap();
    let mut t = Table::empty(name, schema);
    let mut rng = seeded(seed);
    let tags = ["alpha", "beta", "gamma", "delta", ""];
    for _ in 0..rows {
        let id = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(-5i64..20))
        };
        let score = if rng.gen_bool(0.1) {
            Value::Null
        } else if rng.gen_bool(0.2) {
            // Exercise signed zeros and exact repeats.
            Value::Float(if rng.gen_bool(0.5) { 0.0 } else { -0.0 })
        } else {
            Value::Float((rng.gen_range(-3i64..4) as f64) * 0.5)
        };
        let tag = if rng.gen_bool(0.15) {
            Value::Null
        } else {
            Value::Str(tags[rng.gen_range(0..tags.len())].to_string())
        };
        let flag = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Bool(rng.gen_bool(0.5))
        };
        t.push_row(vec![id, score, tag, flag]).unwrap();
    }
    t
}

/// A generated table and its reference copy.
fn both(rows: usize, seed: u64) -> (Table, RefTable) {
    let c = generated("t", rows, seed);
    let r = RefTable::from_table(&c);
    assert_eq!(c, r);
    for row in 0..c.n_rows() {
        for col in ["id", "score", "tag", "flag"] {
            assert_eq!(c.get(row, col).unwrap(), r.get(row, col).unwrap());
            assert_eq!(c.get_ref(row, col).unwrap(), r.get_ref(row, col).unwrap());
        }
    }
    (c, r)
}

#[test]
fn mutations_agree_across_backends() {
    let (mut c, mut r) = both(200, 2);
    // Identical push/set sequences land identically.
    let extra = generated("extra", 40, 3);
    for row in 0..extra.n_rows() {
        let vals: Vec<Value> = ["id", "score", "tag", "flag"]
            .iter()
            .map(|col| extra.get(row, col).unwrap())
            .collect();
        c.push_row(vals.clone()).unwrap();
        r.push_row(vals).unwrap();
    }
    assert_eq!(c, r);
    let mut rng = seeded(4);
    for _ in 0..60 {
        let row = rng.gen_range(0..c.n_rows());
        let (col, v) = match rng.gen_range(0..4) {
            0 => ("id", Value::Int(rng.gen_range(0i64..5))),
            1 => ("score", Value::Float(1.25)),
            2 => ("tag", Value::Str("patched".into())),
            _ => ("flag", Value::Null),
        };
        c.set(row, col, v.clone()).unwrap();
        r.set(row, col, v).unwrap();
    }
    assert_eq!(c, r);
    // Invalid mutations fail identically (and leave both untouched).
    for bad in [
        vec![Value::Int(1)],
        vec![
            Value::Str("wrong".into()),
            Value::Null,
            Value::Null,
            Value::Null,
        ],
    ] {
        let ec = format!("{:?}", c.push_row(bad.clone()).unwrap_err());
        let er = format!("{:?}", r.push_row(bad).unwrap_err());
        assert_eq!(ec, er);
    }
    let ec = format!("{:?}", c.set(0, "id", Value::Bool(true)).unwrap_err());
    let er = format!("{:?}", r.set(0, "id", Value::Bool(true)).unwrap_err());
    assert_eq!(ec, er);
    assert_eq!(c, r);
}

#[test]
fn row_and_column_ops_agree_across_backends() {
    let (c, r) = both(250, 5);
    let keep: Vec<usize> = (0..c.n_rows()).step_by(3).collect();
    assert_eq!(c.take(&keep).unwrap(), r.take(&keep).unwrap());

    let (cf, ck) = c.filter(|row| matches!(c.get_ref(row, "id"), Ok(v) if !v.is_null()));
    let (rf, rk) = r.filter(|row| matches!(r.get_ref(row, "id"), Ok(v) if !v.is_null()));
    assert_eq!(ck, rk);
    assert_eq!(cf, rf);

    assert_eq!(
        c.select(&["tag", "score"]).unwrap(),
        r.select(&["tag", "score"]).unwrap()
    );
    assert_eq!(
        c.drop_columns(&["flag"]).unwrap(),
        r.drop_columns(&["flag"]).unwrap()
    );

    let mut ca = c.clone();
    let mut ra = r.clone();
    ca.append(&c).unwrap();
    ra.append(&r).unwrap();
    assert_eq!(ca, ra);

    // The same column, added as a typed plane and as reference cells.
    let even = |i: usize| (!i.is_multiple_of(3)).then_some(i.is_multiple_of(2));
    let mut bools = BoolPlane::new();
    for i in 0..c.n_rows() {
        match even(i) {
            Some(b) => bools.push(b),
            None => bools.push_null(),
        }
    }
    let cells: Vec<Value> = (0..c.n_rows()).map(|i| even(i).into()).collect();
    let mut cc = c.clone();
    let mut rc = r.clone();
    cc.add_column(Field::new("even", DataType::Bool), Plane::Bool(bools))
        .unwrap();
    rc.add_column(Field::new("even", DataType::Bool), cells)
        .unwrap();
    assert_eq!(cc, rc);

    assert_eq!(c.missing_profile(), r.missing_profile());
    let (cs, cperm) = c.sort_by("score").unwrap();
    let (rs, rperm) = r.sort_by("score").unwrap();
    assert_eq!(cperm, rperm);
    assert_eq!(cs, rs);
}

#[test]
fn value_counts_and_distinct_agree_across_backends() {
    let (c, r) = both(400, 6);
    for col in ["id", "score", "tag", "flag"] {
        assert_eq!(
            c.value_counts(col).unwrap(),
            r.value_counts(col).unwrap(),
            "value_counts diverged on `{col}`"
        );
        let base = c.distinct_by(col).unwrap();
        for threads in THREADS {
            assert_eq!(r.distinct_by(col, threads).unwrap(), base);
        }
        assert_eq!(
            c.take(&base.0).unwrap(),
            r.take(&base.0).unwrap(),
            "distinct rows diverged on `{col}`"
        );
    }
}

/// A right table keyed for joins: overlapping `id`s, duplicates, and nulls.
fn right_table(seed: u64) -> Table {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("tag", DataType::Str),
        Field::new("weight", DataType::Float),
    ])
    .unwrap();
    let mut t = Table::empty("right", schema);
    let mut rng = seeded(seed);
    let tags = ["alpha", "beta", "gamma", "unseen", ""];
    for _ in 0..120 {
        let id = if rng.gen_bool(0.08) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(-5i64..25))
        };
        let tag = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Str(tags[rng.gen_range(0..tags.len())].to_string())
        };
        t.push_row(vec![id, tag, Value::Float(rng.gen_range(0..100) as f64)])
            .unwrap();
    }
    t
}

/// The reference inner and left joins of `lr ⋈ rr` against the radix joins
/// of the columnar copies at every thread count, and the reference
/// left-join output against the columnar plane gather of its lineage.
fn assert_joins_agree(lc: &Table, lr: &RefTable, rc: &Table, rr: &RefTable, key: (&str, &str)) {
    let (lkey, rkey) = key;
    let (base_t, base_l) = lr.hash_join(rr, lkey, rkey).unwrap();
    let (base_lt, base_ll) = lr.left_join(rr, lkey, rkey).unwrap();
    for threads in THREADS {
        let (jt, jl) = lc.hash_join_par(rc, lkey, rkey, threads).unwrap();
        assert_eq!(
            jl, base_l,
            "inner lineage diverged (key={key:?}, threads={threads})"
        );
        assert_eq!(
            jt, base_t,
            "inner join diverged (key={key:?}, threads={threads})"
        );
        let (lt, ll) = lc.left_join_par(rc, lkey, rkey, threads).unwrap();
        assert_eq!(
            ll, base_ll,
            "left lineage diverged (key={key:?}, threads={threads})"
        );
        assert_eq!(
            lt, base_lt,
            "left join diverged (key={key:?}, threads={threads})"
        );
    }
    let rk = rc.schema().index_of(rkey).unwrap();
    assert_eq!(
        lc.materialize_join(rc, &base_ll, rk).unwrap(),
        base_lt,
        "materialized join diverged (key={key:?})"
    );
}

#[test]
fn joins_agree_across_backends_and_thread_counts() {
    let (lc, lr) = both(300, 7);
    let rc = right_table(8);
    let rr = RefTable::from_table(&rc);
    for key in ["id", "tag"] {
        assert_joins_agree(&lc, &lr, &rc, &rr, (key, key));
    }
    // Joined outputs stay differentially equal downstream too.
    let (jc, _) = lc.hash_join(&rc, "id", "id").unwrap();
    let (jr, _) = lr.hash_join(&rr, "id", "id").unwrap();
    assert_eq!(
        jc.value_counts("tag").unwrap(),
        jr.value_counts("tag").unwrap()
    );
    assert_eq!(jc, jr);

    // The Fig. 3 hiring pipeline's source tables on its join keys: the
    // letters inner-join the job details on `job_id`, and that output
    // left-joins the social table on `person_id`.
    let s = load_recommendation_letters(600, 41);
    let letters = RefTable::from_table(&s.train);
    let jobs = RefTable::from_table(&s.job_details);
    let social = RefTable::from_table(&s.social);
    assert_joins_agree(
        &s.train,
        &letters,
        &s.job_details,
        &jobs,
        ("job_id", "job_id"),
    );
    let (j1c, _) = s
        .train
        .hash_join(&s.job_details, "job_id", "job_id")
        .unwrap();
    let (j1r, _) = letters.hash_join(&jobs, "job_id", "job_id").unwrap();
    assert_joins_agree(&j1c, &j1r, &s.social, &social, ("person_id", "person_id"));
}

#[test]
fn string_joins_agree_when_dictionaries_differ() {
    // Build two columnar tables whose dictionaries intern the same strings
    // in different orders; join must remap codes, not compare them.
    let schema = Schema::new(vec![Field::new("k", DataType::Str)]).unwrap();
    let mut left = Table::empty("l", schema.clone());
    for s in ["b", "a", "c", "a", "z"] {
        left.push_row(vec![Value::Str(s.into())]).unwrap();
    }
    let schema_r = Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("v", DataType::Int),
    ])
    .unwrap();
    let mut right = Table::empty("r", schema_r);
    for (i, s) in ["c", "b", "a", "b"].iter().enumerate() {
        right
            .push_row(vec![Value::Str((*s).into()), Value::Int(i as i64)])
            .unwrap();
    }
    let (ref_t, ref_l) = RefTable::from_table(&left)
        .hash_join(&RefTable::from_table(&right), "k", "k")
        .unwrap();
    for threads in THREADS {
        let (t, l) = left.hash_join_par(&right, "k", "k", threads).unwrap();
        assert_eq!(t, ref_t);
        assert_eq!(l, ref_l);
    }
}

#[test]
fn injected_errors_preserve_backend_equivalence() {
    let (mut c, _) = both(350, 9);
    inject_missing(&mut c, "score", 0.25, Missingness::Mcar, 11).unwrap();
    add_gaussian_noise(&mut c, "score", 0.3, 2.0, 12).unwrap();
    duplicate_rows(&mut c, 0.2, 13).unwrap();

    // The dirtied table and its reference copy agree on derived results.
    let r = RefTable::from_table(&c);
    assert_eq!(c, r);
    assert_eq!(
        c.value_counts("tag").unwrap(),
        r.value_counts("tag").unwrap()
    );
    assert_eq!(
        c.distinct_by("id").unwrap(),
        r.distinct_by("id", 4).unwrap()
    );
    let rc = right_table(14);
    let (jt, jl) = c.hash_join_par(&rc, "id", "id", 4).unwrap();
    let (rt, rl) = r.hash_join(&RefTable::from_table(&rc), "id", "id").unwrap();
    assert_eq!(jt, rt);
    assert_eq!(jl, rl);
}

#[test]
fn columnar_hooks_match_reference_scans() {
    let (c, r) = both(300, 15);
    // filter_eq_rows: equals the reference filter for every literal, including
    // cross-type numeric equality and unseen values.
    for lit in [
        Value::Str("beta".into()),
        Value::Str("nope".into()),
        Value::Int(3),
        Value::Float(0.0),
        Value::Bool(true),
    ] {
        for col in ["id", "score", "tag", "flag"] {
            let rows = c.filter_eq_rows(col, &lit).unwrap();
            let expect: Vec<usize> = (0..r.n_rows())
                .filter(|&row| {
                    let v = r.get(row, col).unwrap();
                    !v.is_null()
                        && v.total_cmp(&lit) == std::cmp::Ordering::Equal
                        && (v.data_type() == lit.data_type()
                            || (v.as_float().is_some() && lit.as_float().is_some()))
                })
                .collect();
            assert_eq!(rows, expect, "filter_eq diverged on `{col}` = {lit:?}");
        }
    }
}
