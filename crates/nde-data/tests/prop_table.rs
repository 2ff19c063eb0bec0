//! Randomized-property tests for the table engine: joins against a
//! nested-loop reference, take/filter invariants, CSV roundtrips, and the
//! total order on values. Each test draws a few hundred cases from the
//! crate's own seeded PRNG, so failures reproduce exactly.

use nde_data::csvio::{read_csv, to_csv_string};
use nde_data::rng::{seeded, Rng, StdRng};
use nde_data::{DataType, Field, Schema, Table, Value};

const CASES: usize = 200;

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5u32) {
        0 => Value::Null,
        1 => Value::Int(rng.gen::<u64>() as i64),
        2 => Value::Float(rng.gen_range(-1e9..1e9)),
        3 => {
            let alphabet: Vec<char> = "abcdefghij ,\"\n".chars().collect();
            let len = rng.gen_range(0..13usize);
            Value::Str(
                (0..len)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect(),
            )
        }
        _ => Value::Bool(rng.gen_bool(0.5)),
    }
}

fn random_keys(rng: &mut StdRng, max_len: usize, lo: i64, hi: i64) -> Vec<Option<i64>> {
    let n = rng.gen_range(0..=max_len);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(rng.gen_range(lo..hi))
            }
        })
        .collect()
}

fn int_key_table(name: &str, keys: Vec<Option<i64>>) -> Table {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new(format!("{name}_payload"), DataType::Int),
    ])
    .expect("distinct names");
    let mut t = Table::empty(name, schema);
    for (payload, key) in keys.into_iter().enumerate() {
        t.push_row(vec![key.into(), (payload as i64).into()])
            .expect("rows conform");
    }
    t
}

#[test]
fn join_matches_nested_loop_reference() {
    let mut rng = seeded(0xA11CE);
    for _ in 0..CASES {
        let left_keys = random_keys(&mut rng, 19, 0, 8);
        let right_keys = random_keys(&mut rng, 19, 0, 8);
        let left = int_key_table("l", left_keys.clone());
        let right = int_key_table("r", right_keys.clone());
        let (joined, lineage) = left.hash_join(&right, "k", "k").expect("join runs");

        // Reference: nested loop over non-null equal keys.
        let mut expected: Vec<(usize, usize)> = Vec::new();
        for (li, lk) in left_keys.iter().enumerate() {
            for (ri, rk) in right_keys.iter().enumerate() {
                if let (Some(a), Some(b)) = (lk, rk) {
                    if a == b {
                        expected.push((li, ri));
                    }
                }
            }
        }
        let mut got = lineage.clone();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(joined.n_rows(), lineage.len());

        // Every output row's cells match the source rows named by lineage.
        for (out, &(li, ri)) in lineage.iter().enumerate() {
            assert_eq!(
                joined.get(out, "l_payload").expect("cell"),
                left.get(li, "l_payload").expect("cell")
            );
            assert_eq!(
                joined.get(out, "r_payload").expect("cell"),
                right.get(ri, "r_payload").expect("cell")
            );
        }
    }
}

#[test]
fn left_join_preserves_every_left_row() {
    let mut rng = seeded(0xB0B);
    for _ in 0..CASES {
        let mut left_keys = random_keys(&mut rng, 14, 0, 6);
        if left_keys.is_empty() {
            left_keys.push(Some(0));
        }
        let right_keys = random_keys(&mut rng, 14, 0, 6);
        let left = int_key_table("l", left_keys.clone());
        let right = int_key_table("r", right_keys);
        let (_, lineage) = left.left_join(&right, "k", "k").expect("join runs");
        // Every left row appears at least once.
        let mut seen = vec![false; left_keys.len()];
        for &(li, _) in &lineage {
            seen[li] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn take_then_get_matches_origin() {
    let mut rng = seeded(0xC4FE);
    for _ in 0..CASES {
        let mut keys = random_keys(&mut rng, 24, -100, 100);
        if keys.is_empty() {
            keys.push(None);
        }
        let t = int_key_table("t", keys);
        let n_picks = rng.gen_range(0..40usize);
        let picks: Vec<usize> = (0..n_picks).map(|_| rng.gen_range(0..t.n_rows())).collect();
        let taken = t.take(&picks).expect("indices bounded");
        assert_eq!(taken.n_rows(), picks.len());
        for (out, &src) in picks.iter().enumerate() {
            assert_eq!(taken.row(out).expect("row"), t.row(src).expect("row"));
        }
    }
}

#[test]
fn filter_partition_invariant() {
    let mut rng = seeded(0xD00D);
    for _ in 0..CASES {
        let keys = random_keys(&mut rng, 29, -5, 5);
        let t = int_key_table("t", keys);
        let (pos, kept) = t.filter(|i| {
            t.get(i, "k")
                .expect("cell")
                .as_int()
                .map(|v| v >= 0)
                .unwrap_or(false)
        });
        let (neg, dropped) = t.filter(|i| {
            !t.get(i, "k")
                .expect("cell")
                .as_int()
                .map(|v| v >= 0)
                .unwrap_or(false)
        });
        assert_eq!(pos.n_rows() + neg.n_rows(), t.n_rows());
        // Kept and dropped index sets partition 0..n.
        let mut all: Vec<usize> = kept.into_iter().chain(dropped).collect();
        all.sort_unstable();
        assert_eq!(all, (0..t.n_rows()).collect::<Vec<_>>());
    }
}

#[test]
fn csv_roundtrip_arbitrary_cells() {
    let mut rng = seeded(0xE66);
    for _ in 0..CASES {
        let n_cells = rng.gen_range(1..20usize);
        let cells: Vec<Value> = (0..n_cells).map(|_| random_value(&mut rng)).collect();
        // One column per type keeps the schema fixed; route by variant.
        let mut t = Table::empty(
            "t",
            Schema::new(vec![
                Field::new("i", DataType::Int),
                Field::new("f", DataType::Float),
                Field::new("s", DataType::Str),
                Field::new("b", DataType::Bool),
            ])
            .expect("schema valid"),
        );
        for v in &cells {
            let row = match v {
                Value::Int(x) => vec![Value::Int(*x), Value::Null, Value::Null, Value::Null],
                Value::Float(x) => vec![Value::Null, Value::Float(*x), Value::Null, Value::Null],
                Value::Str(s) => vec![Value::Null, Value::Null, Value::Str(s.clone()), Value::Null],
                Value::Bool(b) => vec![Value::Null, Value::Null, Value::Null, Value::Bool(*b)],
                Value::Null => vec![Value::Null; 4],
            };
            t.push_row(row).expect("row conforms");
        }
        let csv = to_csv_string(&t);
        let back = read_csv("t", t.schema().clone(), csv.as_bytes()).expect("parses");
        assert_eq!(back.n_rows(), t.n_rows());
        for r in 0..t.n_rows() {
            assert_eq!(back.row(r).expect("row"), t.row(r).expect("row"));
        }
    }
}

#[test]
fn value_total_cmp_is_a_total_order() {
    use std::cmp::Ordering;
    let mut rng = seeded(0xF00);
    for _ in 0..CASES {
        let a = random_value(&mut rng);
        let b = random_value(&mut rng);
        let c = random_value(&mut rng);
        // Antisymmetry.
        assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Transitivity (check via sorting consistency).
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort_by(|x, y| x.total_cmp(y));
        assert!(v[0].total_cmp(&v[1]) != Ordering::Greater);
        assert!(v[1].total_cmp(&v[2]) != Ordering::Greater);
        assert!(v[0].total_cmp(&v[2]) != Ordering::Greater);
        // Reflexivity.
        assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }
}

#[test]
fn sort_by_is_a_permutation_and_ordered() {
    let mut rng = seeded(0xAB1E);
    for _ in 0..CASES {
        let mut keys = random_keys(&mut rng, 29, -50, 50);
        if keys.is_empty() {
            keys.push(Some(0));
        }
        let t = int_key_table("t", keys);
        let (sorted, perm) = t.sort_by("k").expect("sorts");
        let mut check = perm.clone();
        check.sort_unstable();
        assert_eq!(check, (0..t.n_rows()).collect::<Vec<_>>());
        for i in 1..sorted.n_rows() {
            let prev = sorted.get(i - 1, "k").expect("cell");
            let cur = sorted.get(i, "k").expect("cell");
            assert!(prev.total_cmp(&cur) != std::cmp::Ordering::Greater);
        }
    }
}
