//! Numeric classification datasets and label encoding.

use crate::linalg::Matrix;
use crate::{MlError, Result};
use nde_data::generate::blobs::NumericDataset;
use nde_data::planes::Plane;
use nde_data::Table;

/// A fully-numeric classification dataset: features plus integer labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature matrix, one row per example.
    pub x: Matrix,
    /// Labels in `0..n_classes`, one per example.
    pub y: Vec<usize>,
    /// Number of classes.
    pub n_classes: usize,
}

impl Dataset {
    /// Build from row-major feature vectors and labels.
    pub fn from_rows(features: Vec<Vec<f64>>, y: Vec<usize>, n_classes: usize) -> Result<Dataset> {
        let x = Matrix::from_rows(features)?;
        Dataset::new(x, y, n_classes)
    }

    /// Build from a feature matrix and labels, validating label range.
    pub fn new(x: Matrix, y: Vec<usize>, n_classes: usize) -> Result<Dataset> {
        if x.rows() != y.len() {
            return Err(MlError::DimensionMismatch {
                expected: x.rows(),
                got: y.len(),
            });
        }
        if n_classes < 2 {
            return Err(MlError::InvalidArgument(format!(
                "need at least 2 classes, got {n_classes}"
            )));
        }
        if let Some(&bad) = y.iter().find(|&&l| l >= n_classes) {
            return Err(MlError::InvalidLabel {
                label: bad,
                n_classes,
            });
        }
        Ok(Dataset { x, y, n_classes })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// `true` if the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// New dataset with the selected examples (repeats/reorder allowed).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.take_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// The first `(row, col)` holding a NaN or infinite feature value, in
    /// row-major order — `None` when every cell is finite. Long-running
    /// estimators validate with this before spending their budget.
    pub fn first_non_finite(&self) -> Option<(usize, usize)> {
        for (row, values) in self.x.iter_rows().enumerate() {
            if let Some(col) = values.iter().position(|v| !v.is_finite()) {
                return Some((row, col));
            }
        }
        None
    }

    /// New dataset with one example removed (for leave-one-out).
    pub fn without(&self, index: usize) -> Dataset {
        let keep: Vec<usize> = (0..self.len()).filter(|&i| i != index).collect();
        self.subset(&keep)
    }

    /// A 64-bit content fingerprint over shape, feature bits, labels, and
    /// class count. Two datasets fingerprint equal iff they are bit-for-bit
    /// identical, so the value is a safe durable-store key for "same data
    /// as the run that wrote this checkpoint" (NaN payload differences
    /// included: hashing `to_bits` distinguishes them).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = nde_data::fxhash::FxHasher::default();
        h.write_usize(self.x.rows());
        h.write_usize(self.x.cols());
        for row in self.x.iter_rows() {
            for v in row {
                h.write_u64(v.to_bits());
            }
        }
        for &label in &self.y {
            h.write_usize(label);
        }
        h.write_usize(self.n_classes);
        h.finish()
    }

    /// The majority class (ties broken toward the smaller class id).
    pub fn majority_class(&self) -> usize {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.y {
            counts[l] += 1;
        }
        counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl TryFrom<&NumericDataset> for Dataset {
    type Error = MlError;

    fn try_from(nd: &NumericDataset) -> Result<Dataset> {
        Dataset::from_rows(nd.features.clone(), nd.labels.clone(), nd.n_classes)
    }
}

/// Maps string class labels to dense integer ids (sorted lexicographically,
/// so the mapping is deterministic and seed-independent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelEncoder {
    classes: Vec<String>,
}

impl LabelEncoder {
    /// Fit an encoder over the distinct non-null string values of a column.
    pub fn fit(table: &Table, column: &str) -> Result<LabelEncoder> {
        let mut classes: Vec<String> = table
            .value_counts(column)?
            .into_iter()
            .filter_map(|(v, _)| v.as_str().map(str::to_owned))
            .collect();
        classes.sort();
        if classes.len() < 2 {
            return Err(MlError::InvalidArgument(format!(
                "label column `{column}` has {} distinct classes; need >= 2",
                classes.len()
            )));
        }
        Ok(LabelEncoder { classes })
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// The class names, in id order.
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Encode one label string.
    pub fn encode(&self, label: &str) -> Result<usize> {
        self.classes
            .iter()
            .position(|c| c == label)
            .ok_or_else(|| MlError::InvalidArgument(format!("unseen label `{label}`")))
    }

    /// Decode a class id back to its name.
    pub fn decode(&self, id: usize) -> Result<&str> {
        self.classes
            .get(id)
            .map(String::as_str)
            .ok_or(MlError::InvalidLabel {
                label: id,
                n_classes: self.classes.len(),
            })
    }

    /// Encode a whole label column (nulls are rejected).
    ///
    /// Each *distinct* label is looked up once through a lazy
    /// per-dictionary-code memo; rows then copy encoded ids. Errors (null
    /// label, unseen label) surface at the first row that has one. A column
    /// that is not a string column has no label at row 0, unless the table
    /// has no rows.
    pub fn encode_column(&self, table: &Table, column: &str) -> Result<Vec<usize>> {
        let mut out = Vec::with_capacity(table.n_rows());
        if let Ok(Plane::Str(p)) = table.plane(column) {
            let mut memo: Vec<Option<usize>> = vec![None; p.dict().len()];
            for row in 0..table.n_rows() {
                if p.nulls.get(row) {
                    return Err(MlError::InvalidArgument(format!(
                        "null or non-string label at row {row}"
                    )));
                }
                let code = p.codes[row] as usize;
                let id = match memo[code] {
                    Some(id) => id,
                    None => {
                        let id = self.encode(p.dict().value(code as u32))?;
                        memo[code] = Some(id);
                        id
                    }
                };
                out.push(id);
            }
            return Ok(out);
        }
        if table.n_rows() == 0 {
            return Ok(out);
        }
        table.schema().index_of(column)?;
        Err(MlError::InvalidArgument(
            "null or non-string label at row 0".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_data::generate::blobs::two_gaussians;
    use nde_data::generate::hiring::{HiringScenario, LABEL_COLUMN};

    #[test]
    fn construction_validates() {
        assert!(Dataset::from_rows(vec![vec![1.0]], vec![0, 1], 2).is_err());
        assert!(Dataset::from_rows(vec![vec![1.0]], vec![5], 2).is_err());
        assert!(Dataset::from_rows(vec![vec![1.0]], vec![0], 1).is_err());
        let d = Dataset::from_rows(vec![vec![1.0], vec![2.0]], vec![0, 1], 2).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.dim(), 1);
    }

    #[test]
    fn subset_and_without() {
        let d =
            Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]], vec![0, 1, 0], 2).unwrap();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.y, vec![0, 0]);
        assert_eq!(s.x.row(0), &[2.0]);
        let w = d.without(1);
        assert_eq!(w.len(), 2);
        assert_eq!(w.y, vec![0, 0]);
    }

    #[test]
    fn majority_class_breaks_ties_low() {
        let d = Dataset::from_rows(vec![vec![0.0], vec![1.0]], vec![0, 1], 2).unwrap();
        assert_eq!(d.majority_class(), 0);
        let d2 =
            Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]], vec![1, 1, 0], 2).unwrap();
        assert_eq!(d2.majority_class(), 1);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let d = Dataset::from_rows(vec![vec![0.5, 1.0], vec![2.0, 3.0]], vec![0, 1], 2).unwrap();
        assert_eq!(d.fingerprint(), d.clone().fingerprint());
        let mut flipped = d.clone();
        flipped.y[0] = 1;
        assert_ne!(d.fingerprint(), flipped.fingerprint());
        let mut nudged = d.clone();
        nudged.x = Matrix::from_rows(vec![vec![0.5, 1.0], vec![2.0, 3.0 + 1e-12]]).unwrap();
        assert_ne!(d.fingerprint(), nudged.fingerprint());
        // Shape is part of the key: a transposed-looking flat layout with
        // the same bytes must not collide.
        let wide = Dataset::from_rows(vec![vec![0.5, 1.0, 2.0, 3.0]], vec![0], 2);
        assert!(wide.is_err() || wide.unwrap().fingerprint() != d.fingerprint());
    }

    #[test]
    fn from_numeric_dataset() {
        let nd = two_gaussians(20, 2, 3.0, 1);
        let d = Dataset::try_from(&nd).unwrap();
        assert_eq!(d.len(), 20);
        assert_eq!(d.n_classes, 2);
    }

    #[test]
    fn label_encoder_roundtrip() {
        let t = HiringScenario::generate(50, 1).letters;
        let enc = LabelEncoder::fit(&t, LABEL_COLUMN).unwrap();
        assert_eq!(enc.n_classes(), 2);
        assert_eq!(
            enc.classes(),
            &["negative".to_string(), "positive".to_string()]
        );
        assert_eq!(enc.encode("negative").unwrap(), 0);
        assert_eq!(enc.decode(1).unwrap(), "positive");
        assert!(enc.encode("meh").is_err());
        assert!(enc.decode(5).is_err());
        let ys = enc.encode_column(&t, LABEL_COLUMN).unwrap();
        assert_eq!(ys.len(), 50);
        assert!(ys.iter().all(|&y| y < 2));
    }

    #[test]
    fn label_encoder_rejects_single_class_and_nulls() {
        let t = HiringScenario::generate(200, 2).letters;
        assert!(LabelEncoder::fit(&t, "letter_text").is_ok()); // many classes is fine
                                                               // degree has nulls: encode_column must reject them.
        assert!(t.plane("degree").unwrap().null_count() > 0);
        let enc = LabelEncoder::fit(&t, "degree").unwrap();
        assert!(enc.encode_column(&t, "degree").is_err());
    }

    #[test]
    fn encode_column_rejects_an_unknown_column() {
        let t = HiringScenario::generate(20, 3).letters;
        let enc = LabelEncoder::fit(&t, LABEL_COLUMN).unwrap();
        assert_eq!(
            enc.encode_column(&t, "nope"),
            Err(nde_data::DataError::UnknownColumn("nope".into()).into())
        );
    }

    #[test]
    fn encode_column_of_an_empty_non_string_column_is_empty() {
        let t = HiringScenario::generate(20, 3).letters;
        let enc = LabelEncoder::fit(&t, LABEL_COLUMN).unwrap();
        let empty = t.take(&[]).unwrap();
        assert_eq!(enc.encode_column(&empty, "employer_rating"), Ok(vec![]));
    }

    #[test]
    fn encode_column_rejects_a_non_string_column_at_row_0() {
        let t = HiringScenario::generate(20, 3).letters;
        let enc = LabelEncoder::fit(&t, LABEL_COLUMN).unwrap();
        assert_eq!(
            enc.encode_column(&t, "employer_rating"),
            Err(MlError::InvalidArgument(
                "null or non-string label at row 0".into()
            ))
        );
    }
}
