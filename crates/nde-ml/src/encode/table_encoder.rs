//! The table-to-matrix feature encoder (the tutorial's `ColumnTransformer`).

use crate::encode::impute::{CategoricalImputer, NumericImputation, NumericImputer};
use crate::encode::one_hot::OneHotEncoder;
use crate::encode::scaler::StandardScaler;
use crate::encode::text_hash::HashedTextEncoder;
use crate::linalg::Matrix;
use crate::{MlError, Result};
use nde_data::planes::Plane;
use nde_data::{DataType, Table};

/// Per-column encoding strategy.
#[derive(Debug, Clone)]
pub enum ColumnEncoder {
    /// Impute then standardize a numeric column.
    Numeric {
        /// Imputation strategy for missing values.
        impute: NumericImputation,
        /// Whether to standardize to zero mean / unit variance.
        scale: bool,
    },
    /// Impute (mode or constant) then one-hot encode a categorical column.
    OneHot {
        /// Fill category for nulls; `None` means mode imputation.
        fill: Option<String>,
    },
    /// Hashed bag-of-words embedding of a text column (nulls ⇒ zero vector).
    TextHash {
        /// Embedding dimensionality.
        dims: usize,
    },
    /// Boolean column to 0/1 (nulls ⇒ 0).
    Bool,
}

/// A named column plus its encoding strategy.
#[derive(Debug, Clone)]
pub struct EncoderSpec {
    /// Source column name.
    pub column: String,
    /// How to encode it.
    pub encoder: ColumnEncoder,
}

impl EncoderSpec {
    /// Convenience constructor.
    pub fn new(column: impl Into<String>, encoder: ColumnEncoder) -> EncoderSpec {
        EncoderSpec {
            column: column.into(),
            encoder,
        }
    }
}

/// Fitted per-column state.
#[derive(Debug, Clone)]
enum FittedColumn {
    Numeric {
        imputer: NumericImputer,
        scaler: Option<StandardScaler>,
    },
    OneHot {
        imputer: CategoricalImputer,
        encoder: OneHotEncoder,
    },
    TextHash(HashedTextEncoder),
    Bool,
}

impl FittedColumn {
    fn dim(&self) -> usize {
        match self {
            FittedColumn::Numeric { .. } | FittedColumn::Bool => 1,
            FittedColumn::OneHot { encoder, .. } => encoder.dim(),
            FittedColumn::TextHash(enc) => enc.dim(),
        }
    }
}

/// Encodes a table into a dense feature matrix, column spec by column spec.
///
/// Transforms are strictly row-wise: output row `i` is derived from input row
/// `i` only, so provenance through this stage is the identity mapping.
#[derive(Debug, Clone)]
pub struct TableEncoder {
    specs: Vec<EncoderSpec>,
    fitted: Vec<FittedColumn>,
}

impl TableEncoder {
    /// Create an unfitted encoder from column specs.
    pub fn new(specs: Vec<EncoderSpec>) -> TableEncoder {
        TableEncoder {
            specs,
            fitted: Vec::new(),
        }
    }

    /// Fit all per-column encoders on `table`.
    pub fn fit(&mut self, table: &Table) -> Result<()> {
        if self.specs.is_empty() {
            return Err(MlError::InvalidArgument("no encoder specs given".into()));
        }
        let mut fitted = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            let state = match &spec.encoder {
                ColumnEncoder::Numeric { impute, scale } => {
                    let values: Vec<Option<f64>> = table.f64_cells(&spec.column)?.collect();
                    let mut imputer = NumericImputer::new(*impute);
                    imputer.fit(&values)?;
                    let scaler = if *scale {
                        let filled = imputer.transform(&values)?;
                        Some(StandardScaler::fit(&filled)?)
                    } else {
                        None
                    };
                    FittedColumn::Numeric { imputer, scaler }
                }
                ColumnEncoder::OneHot { fill } => {
                    let Plane::Str(p) = table.plane(&spec.column)? else {
                        return Err(MlError::InvalidArgument(format!(
                            "one-hot column `{}` must be a string column",
                            spec.column
                        )));
                    };
                    // One count per dictionary code; a shared dictionary
                    // may hold values no row of this plane uses.
                    let (counts, nulls) = p.code_counts();
                    let observed = || {
                        (0u32..)
                            .zip(&counts)
                            .filter(|&(_, &count)| count > 0)
                            .map(|(code, &count)| (p.dict().value(code), count))
                    };
                    let mut imputer = match fill {
                        Some(f) => CategoricalImputer::constant(f.clone()),
                        None => CategoricalImputer::mode(),
                    };
                    imputer.fit_counts(observed())?;
                    // The categories of the imputed values: the observed
                    // ones, plus the fill when a null row takes it.
                    let filled = (nulls > 0).then(|| imputer.fill_value()).transpose()?;
                    let encoder = OneHotEncoder::from_categories(
                        observed().map(|(category, _)| category).chain(filled),
                    )?;
                    FittedColumn::OneHot { imputer, encoder }
                }
                ColumnEncoder::TextHash { dims } => {
                    // Type-check via the schema; no need to materialize text.
                    if table.schema().field(&spec.column)?.dtype != DataType::Str {
                        return Err(MlError::InvalidArgument(format!(
                            "text column `{}` must be a string column",
                            spec.column
                        )));
                    }
                    FittedColumn::TextHash(HashedTextEncoder::new(*dims))
                }
                ColumnEncoder::Bool => {
                    if table.schema().field(&spec.column)?.dtype != DataType::Bool {
                        return Err(MlError::InvalidArgument(format!(
                            "bool column `{}` must be a bool column",
                            spec.column
                        )));
                    }
                    FittedColumn::Bool
                }
            };
            fitted.push(state);
        }
        self.fitted = fitted;
        Ok(())
    }

    /// Total output dimensionality.
    pub fn dim(&self) -> Result<usize> {
        if self.fitted.is_empty() {
            return Err(MlError::NotFitted);
        }
        Ok(self.fitted.iter().map(FittedColumn::dim).sum())
    }

    /// Human-readable names for each output dimension.
    pub fn feature_names(&self) -> Result<Vec<String>> {
        if self.fitted.is_empty() {
            return Err(MlError::NotFitted);
        }
        let mut names = Vec::new();
        for (spec, f) in self.specs.iter().zip(&self.fitted) {
            match f {
                FittedColumn::Numeric { .. } => names.push(spec.column.clone()),
                FittedColumn::Bool => names.push(spec.column.clone()),
                FittedColumn::OneHot { encoder, .. } => {
                    for c in encoder.categories() {
                        names.push(format!("{}={}", spec.column, c));
                    }
                }
                FittedColumn::TextHash(enc) => {
                    for i in 0..enc.dim() {
                        names.push(format!("{}#h{}", spec.column, i));
                    }
                }
            }
        }
        Ok(names)
    }

    /// Transform a conformant table into a feature matrix (rows preserved 1:1).
    pub fn transform(&self, table: &Table) -> Result<Matrix> {
        if self.fitted.is_empty() {
            return Err(MlError::NotFitted);
        }
        let n = table.n_rows();
        let d = self.dim()?;
        let mut out = Matrix::zeros(n, d);
        let mut offset = 0;
        for (spec, f) in self.specs.iter().zip(&self.fitted) {
            let changed_type = |what: &str| {
                MlError::InvalidArgument(format!("{what} column `{}` changed type", spec.column))
            };
            match f {
                FittedColumn::Numeric { imputer, scaler } => {
                    // Ints widen and bools read 0/1; nulls and string cells
                    // take the imputer's fill.
                    let fill = imputer.fill_value()?;
                    for (i, v) in table.f64_cells(&spec.column)?.enumerate() {
                        let x = v.unwrap_or(fill);
                        out.row_mut(i)[offset] = match scaler {
                            Some(s) => s.transform_one(x),
                            None => x,
                        };
                    }
                    offset += 1;
                }
                FittedColumn::Bool => {
                    let Plane::Bool(p) = table.plane(&spec.column)? else {
                        return Err(changed_type("bool"));
                    };
                    for i in 0..n {
                        let set = !p.nulls.get(i) && p.values[i];
                        out.row_mut(i)[offset] = if set { 1.0 } else { 0.0 };
                    }
                    offset += 1;
                }
                FittedColumn::OneHot { imputer, encoder } => {
                    let Plane::Str(p) = table.plane(&spec.column)? else {
                        return Err(changed_type("one-hot"));
                    };
                    // Encode each distinct dictionary code once; rows then
                    // memcpy the cached one-hot vector.
                    let w = encoder.dim();
                    let mut by_code: Vec<Option<Vec<f64>>> = vec![None; p.dict().len()];
                    let mut null_enc: Option<Vec<f64>> = None;
                    for i in 0..n {
                        let enc: &[f64] = if p.nulls.get(i) {
                            if null_enc.is_none() {
                                null_enc = Some(encoder.encode(imputer.transform_one(None)?));
                            }
                            null_enc.as_deref().expect("just filled")
                        } else {
                            let code = p.codes[i] as usize;
                            if by_code[code].is_none() {
                                let cat =
                                    imputer.transform_one(Some(p.dict().value(code as u32)))?;
                                by_code[code] = Some(encoder.encode(cat));
                            }
                            by_code[code].as_deref().expect("just filled")
                        };
                        out.row_mut(i)[offset..offset + w].copy_from_slice(enc);
                    }
                    offset += w;
                }
                FittedColumn::TextHash(enc) => {
                    let Plane::Str(p) = table.plane(&spec.column)? else {
                        return Err(changed_type("text"));
                    };
                    // Hash each distinct text once via its dictionary code;
                    // nulls take the zero vector (`""` hashes to zeros).
                    let w = enc.dim();
                    let mut by_code: Vec<Option<Vec<f64>>> = vec![None; p.dict().len()];
                    let zeros = vec![0.0; w];
                    for i in 0..n {
                        let v: &[f64] = if p.nulls.get(i) {
                            &zeros
                        } else {
                            let code = p.codes[i] as usize;
                            if by_code[code].is_none() {
                                by_code[code] = Some(enc.encode(p.dict().value(code as u32)));
                            }
                            by_code[code].as_deref().expect("just filled")
                        };
                        out.row_mut(i)[offset..offset + w].copy_from_slice(v);
                    }
                    offset += w;
                }
            }
        }
        debug_assert_eq!(offset, d);
        Ok(out)
    }

    /// Fit on `table` and transform it in one call.
    pub fn fit_transform(&mut self, table: &Table) -> Result<Matrix> {
        self.fit(table)?;
        self.transform(table)
    }

    /// A ready-made encoder for the hiring scenario's letters table,
    /// mirroring the Fig. 3 `ColumnTransformer`.
    pub fn for_letters(text_dims: usize) -> TableEncoder {
        TableEncoder::new(vec![
            EncoderSpec::new("letter_text", ColumnEncoder::TextHash { dims: text_dims }),
            EncoderSpec::new("degree", ColumnEncoder::OneHot { fill: None }),
            EncoderSpec::new(
                "employer_rating",
                ColumnEncoder::Numeric {
                    impute: NumericImputation::Mean,
                    scale: true,
                },
            ),
            EncoderSpec::new(
                "years_experience",
                ColumnEncoder::Numeric {
                    impute: NumericImputation::Mean,
                    scale: true,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::hiring::HiringScenario;
    use nde_data::Value;

    #[test]
    fn letters_encoder_end_to_end() {
        let t = HiringScenario::generate(100, 1).letters;
        let mut enc = TableEncoder::for_letters(32);
        let x = enc.fit_transform(&t).unwrap();
        assert_eq!(x.rows(), 100);
        // 32 text + 3 degrees + 2 numeric.
        assert_eq!(x.cols(), 37);
        assert_eq!(enc.feature_names().unwrap().len(), 37);
        assert!(enc
            .feature_names()
            .unwrap()
            .contains(&"degree=phd".to_string()));
    }

    #[test]
    fn transform_is_rowwise_deterministic() {
        let t = HiringScenario::generate(50, 2).letters;
        let mut enc = TableEncoder::for_letters(16);
        let a = enc.fit_transform(&t).unwrap();
        let b = enc.transform(&t).unwrap();
        assert_eq!(a, b);
        // Transforming a subset matches the corresponding rows.
        let sub = t.take(&[5, 10]).unwrap();
        let xs = enc.transform(&sub).unwrap();
        assert_eq!(xs.row(0), a.row(5));
        assert_eq!(xs.row(1), a.row(10));
    }

    #[test]
    fn nulls_are_imputed() {
        let mut t = HiringScenario::generate(60, 3).letters;
        t.set(0, "employer_rating", Value::Null).unwrap();
        t.set(0, "degree", Value::Null).unwrap();
        let mut enc = TableEncoder::for_letters(8);
        let x = enc.fit_transform(&t).unwrap();
        assert!(x.row(0).iter().all(|v| v.is_finite()));
        // One-hot of imputed degree is still a valid one-hot (sums to 1).
        let onehot_sum: f64 = x.row(0)[8..11].iter().sum();
        assert_eq!(onehot_sum, 1.0);
    }

    #[test]
    fn unfitted_and_bad_specs_rejected() {
        let t = HiringScenario::generate(10, 4).letters;
        let enc = TableEncoder::for_letters(8);
        assert!(enc.transform(&t).is_err());
        assert!(enc.dim().is_err());
        let mut empty = TableEncoder::new(vec![]);
        assert!(empty.fit(&t).is_err());
        let mut bad = TableEncoder::new(vec![EncoderSpec::new(
            "person_id",
            ColumnEncoder::OneHot { fill: None },
        )]);
        assert!(bad.fit(&t).is_err());
        let mut missing = TableEncoder::new(vec![EncoderSpec::new("no_such", ColumnEncoder::Bool)]);
        assert!(missing.fit(&t).is_err());
    }

    fn mixed(name: &str, dtype: DataType, cells: [Value; 3]) -> Table {
        let schema = nde_data::Schema::new(vec![nde_data::Field::new(name, dtype)]).unwrap();
        let mut t = Table::empty("t", schema);
        for v in cells {
            t.push_row(vec![v]).unwrap();
        }
        t
    }

    fn first_column(x: &Matrix) -> Vec<f64> {
        x.iter_rows().map(|r| r[0]).collect()
    }

    fn numeric(column: &str, impute: NumericImputation) -> TableEncoder {
        TableEncoder::new(vec![EncoderSpec::new(
            column,
            ColumnEncoder::Numeric {
                impute,
                scale: false,
            },
        )])
    }

    #[test]
    fn numeric_encoder_widens_int_bool_and_str_columns() {
        let ints = mixed("c", DataType::Int, [1.into(), Value::Null, 3.into()]);
        let x = numeric("c", NumericImputation::Mean)
            .fit_transform(&ints)
            .unwrap();
        assert_eq!(first_column(&x), vec![1.0, 2.0, 3.0]);
        // Bools encode as 0/1; the null takes their mean.
        let bools = mixed(
            "c",
            DataType::Bool,
            [true.into(), Value::Null, false.into()],
        );
        let x = numeric("c", NumericImputation::Mean)
            .fit_transform(&bools)
            .unwrap();
        assert_eq!(first_column(&x), vec![1.0, 0.5, 0.0]);
        // A string column has no numeric cells: every row takes the fill.
        let strs = mixed("c", DataType::Str, ["a".into(), Value::Null, "b".into()]);
        assert!(numeric("c", NumericImputation::Mean).fit(&strs).is_err());
        let x = numeric("c", NumericImputation::Constant(7.0))
            .fit_transform(&strs)
            .unwrap();
        assert_eq!(first_column(&x), vec![7.0, 7.0, 7.0]);
    }

    #[test]
    fn transform_rejects_a_column_whose_type_changed() {
        let strs = mixed("c", DataType::Str, ["a".into(), Value::Null, "b".into()]);
        let bools = mixed(
            "c",
            DataType::Bool,
            [true.into(), Value::Null, false.into()],
        );
        let ints = mixed("c", DataType::Int, [1.into(), 2.into(), 3.into()]);
        let cases = [
            (ColumnEncoder::OneHot { fill: None }, &strs, "one-hot"),
            (ColumnEncoder::TextHash { dims: 4 }, &strs, "text"),
            (ColumnEncoder::Bool, &bools, "bool"),
        ];
        for (encoder, fit_on, what) in cases {
            let mut enc = TableEncoder::new(vec![EncoderSpec::new("c", encoder)]);
            enc.fit(fit_on).unwrap();
            assert_eq!(
                enc.transform(&ints).unwrap_err(),
                MlError::InvalidArgument(format!("{what} column `c` changed type"))
            );
            let other = mixed("d", DataType::Int, [1.into(), 2.into(), 3.into()]);
            assert_eq!(
                enc.transform(&other).unwrap_err(),
                MlError::Data("unknown column `c`".into())
            );
        }
        let mut enc = numeric("c", NumericImputation::Mean);
        enc.fit(&ints).unwrap();
        let other = mixed("d", DataType::Int, [1.into(), 2.into(), 3.into()]);
        assert_eq!(
            enc.transform(&other).unwrap_err(),
            MlError::Data("unknown column `c`".into())
        );
    }

    /// FxHash of an encoding: its shape, every cell's bits and the feature
    /// names.
    fn digest(enc: &TableEncoder, x: &Matrix) -> u64 {
        use std::hash::Hasher;
        let mut h = nde_data::fxhash::FxHasher::default();
        h.write_usize(x.rows());
        h.write_usize(x.cols());
        for v in x.iter_rows().flatten() {
            h.write_u64(v.to_bits());
        }
        for name in enc.feature_names().unwrap() {
            h.write(name.as_bytes());
        }
        h.finish()
    }

    #[test]
    fn letters_encodings_are_pinned() {
        // The letters' `degree` column has natural nulls (mode-imputed).
        // The subset without "phd" rows shares the full dictionary, so
        // "phd" stays in it with no row: it must get no dimension.
        let t = HiringScenario::generate(300, 11).letters;
        assert!(t.plane("degree").unwrap().null_count() > 0);
        let no_phd: Vec<usize> = (0..t.n_rows())
            .filter(|&r| t.get(r, "degree").unwrap().as_str() != Some("phd"))
            .collect();
        let sub = t.take(&no_phd).unwrap();
        let present: Vec<usize> = (0..t.n_rows())
            .filter(|&r| !t.get(r, "degree").unwrap().is_null())
            .collect();
        let no_nulls = t.take(&present).unwrap();
        let mut got = Vec::new();
        for fit_on in [&t, &sub] {
            let mut enc = TableEncoder::for_letters(16);
            enc.fit(fit_on).unwrap();
            for table in [&t, &sub] {
                got.push(digest(&enc, &enc.transform(table).unwrap()));
            }
        }
        let mut enc = TableEncoder::for_letters(16);
        enc.fit(&sub).unwrap();
        assert!(!enc.feature_names().unwrap().contains(&"degree=phd".into()));
        // A constant fill gets its own dimension only when a null row
        // takes it.
        for fit_on in [&t, &no_nulls] {
            let mut enc = TableEncoder::new(vec![EncoderSpec::new(
                "degree",
                ColumnEncoder::OneHot {
                    fill: Some("none".into()),
                },
            )]);
            enc.fit(fit_on).unwrap();
            got.push(digest(&enc, &enc.transform(&t).unwrap()));
        }
        let pinned = [
            0xf55ebf15627aa51e,
            0xe3ef6509a5a0dee1,
            0x7c5e31b268be4861,
            0x05342a596b65326b,
            0x4882b366bc9c639c,
            0x023e3550c1fa0bf5,
        ];
        assert_eq!(got, pinned, "{got:#x?}");
    }

    #[test]
    fn one_hot_mode_ties_go_to_the_smaller_category() {
        // "b" is interned first, so dictionary order is not category order.
        let t = mixed("c", DataType::Str, ["b".into(), Value::Null, "a".into()]);
        let mut enc = TableEncoder::new(vec![EncoderSpec::new(
            "c",
            ColumnEncoder::OneHot { fill: None },
        )]);
        let x = enc.fit_transform(&t).unwrap();
        assert_eq!(enc.feature_names().unwrap(), ["c=a", "c=b"]);
        assert_eq!(x.row(0), [0.0, 1.0]);
        assert_eq!(x.row(1), [1.0, 0.0]);
        assert_eq!(x.row(2), [1.0, 0.0]);
    }

    #[test]
    fn scaling_produces_standardized_columns() {
        let t = HiringScenario::generate(200, 5).letters;
        let mut enc = TableEncoder::new(vec![EncoderSpec::new(
            "employer_rating",
            ColumnEncoder::Numeric {
                impute: NumericImputation::Mean,
                scale: true,
            },
        )]);
        let x = enc.fit_transform(&t).unwrap();
        let vals: Vec<f64> = (0..x.rows()).map(|i| x.get(i, 0)).collect();
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        let var: f64 =
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-9);
    }
}
