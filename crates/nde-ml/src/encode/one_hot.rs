//! One-hot encoding of categorical values.

use crate::{MlError, Result};

/// A fitted one-hot encoder over string categories.
///
/// Categories are sorted lexicographically so the encoding is deterministic.
/// Unseen categories at transform time map to the all-zeros vector (the
/// "ignore" policy), which keeps pipelines total when validation data
/// contains new categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneHotEncoder {
    categories: Vec<String>,
}

impl OneHotEncoder {
    /// Fit over the given categories (repeats allowed).
    pub fn from_categories<'a>(values: impl IntoIterator<Item = &'a str>) -> Result<OneHotEncoder> {
        let mut categories: Vec<String> = values.into_iter().map(str::to_owned).collect();
        categories.sort();
        categories.dedup();
        if categories.is_empty() {
            return Err(MlError::InvalidArgument(
                "cannot one-hot encode a column with no observed values".into(),
            ));
        }
        Ok(OneHotEncoder { categories })
    }

    /// The learned categories, in output-dimension order.
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// Output dimensionality (= number of categories).
    pub fn dim(&self) -> usize {
        self.categories.len()
    }

    /// Encode one category into `out` (must have length [`Self::dim`]).
    pub fn encode_into(&self, value: &str, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.dim());
        out.fill(0.0);
        if let Ok(idx) = self.categories.binary_search_by(|c| c.as_str().cmp(value)) {
            out[idx] = 1.0;
        }
    }

    /// Encode one category into a fresh vector.
    pub fn encode(&self, value: &str) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.encode_into(value, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fitted() -> OneHotEncoder {
        OneHotEncoder::from_categories(["b", "a", "b"]).unwrap()
    }

    #[test]
    fn categories_sorted_and_deduped() {
        let enc = fitted();
        assert_eq!(enc.categories(), &["a".to_string(), "b".to_string()]);
        assert_eq!(enc.dim(), 2);
    }

    #[test]
    fn encodes_one_hot() {
        let enc = fitted();
        assert_eq!(enc.encode("a"), vec![1.0, 0.0]);
        assert_eq!(enc.encode("b"), vec![0.0, 1.0]);
    }

    #[test]
    fn unseen_category_is_all_zeros() {
        let enc = fitted();
        assert_eq!(enc.encode("zzz"), vec![0.0, 0.0]);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(OneHotEncoder::from_categories([]).is_err());
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let enc = fitted();
        let mut buf = vec![9.0, 9.0];
        enc.encode_into("a", &mut buf);
        assert_eq!(buf, vec![1.0, 0.0]);
        enc.encode_into("b", &mut buf);
        assert_eq!(buf, vec![0.0, 1.0]);
    }
}
