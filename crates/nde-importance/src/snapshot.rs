//! Resumable snapshots of the Monte-Carlo estimators.
//!
//! TMC-Shapley checkpoints its permutation walk ([`McCheckpoint`]), Banzhaf
//! MSR its subset-sample sums ([`BanzhafCheckpoint`]) and Beta Shapley its
//! per-point values ([`BetaShapleyCheckpoint`]). Each is a validated struct
//! that converts to and from a [`Json`] payload, and [`EstimatorCheckpoint`]
//! erases the method so every estimator checkpoints through the same
//! [`RunStore`](nde_robust::RunStore) records.
//!
//! All float fields round-trip bit-identically (shortest-round-trip
//! serialization via [`nde_data::json`]) and are rejected when non-finite:
//! a `1e999` smuggled into a running sum must fail parsing, never poison a
//! resumed fold.

use crate::banzhaf::BanzhafParams;
use crate::beta_shapley::BetaShapleyParams;
use crate::shapley_mc::{TmcParams, TMC_METHOD};
use crate::{ImportanceError, Result};
use nde_data::json::{check_method, field, finite, finite_vec, text, uint, uint_vec, Json, ToJson};

/// Read a payload with the [`nde_data::json`] field readers.
fn read<T>(fields: impl FnOnce() -> std::result::Result<T, String>) -> Result<T> {
    fields().map_err(ImportanceError::Checkpoint)
}

fn all_finite(name: &str, values: &[f64]) -> Result<()> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(ImportanceError::Checkpoint(format!(
            "`{name}[{i}]` is not a finite number"
        ))),
        None => Ok(()),
    }
}

/// Progress inside a single interrupted permutation walk.
///
/// When a utility-call budget trips partway through a permutation, the
/// walk records how far it got so resume continues it **mid-permutation**
/// instead of re-running it from scratch. The permutation's shuffled order
/// is not stored: resume re-shuffles with `child_seed(seed, cursor)`, and
/// [`McCheckpoint::rng_state`] carries the post-shuffle stream state.
#[derive(Debug, Clone, PartialEq)]
pub struct InflightPermutation {
    /// Number of prefix positions already folded (the walk resumes at
    /// `order[pos]`).
    pub pos: u64,
    /// Utility of the prefix `order[..pos]` (the subtrahend for the next
    /// marginal).
    pub prev_u: f64,
    /// Marginal contributions recorded so far in this permutation, indexed
    /// by example (zero for examples not yet reached).
    pub marginals: Vec<f64>,
}

/// Partial state of a TMC-Shapley estimation: permutations `0..cursor`
/// folded into the running sums, plus the walk through permutation
/// `cursor` if a budget stopped it midway. Resume is **bit-identical** to
/// never stopping.
#[derive(Debug, Clone, PartialEq)]
pub struct McCheckpoint {
    /// The base seed; permutation `p` derives its stream from
    /// `child_seed(seed, p)`.
    pub seed: u64,
    /// Number of scored training examples.
    pub n: usize,
    /// Next permutation index to run (permutations `0..cursor` are folded
    /// into the running sums already).
    pub cursor: u64,
    /// Cumulative utility evaluations across all segments of the run.
    pub utility_calls: u64,
    /// Raw xoshiro256** state of the in-flight permutation's stream, if
    /// the run was interrupted mid-permutation.
    pub rng_state: Option<[u64; 4]>,
    /// Walk progress inside permutation `cursor`, if the run was
    /// interrupted mid-permutation. `None` means the run stopped exactly on
    /// a permutation boundary.
    pub inflight: Option<InflightPermutation>,
    /// Running sum of marginal contributions per example.
    pub totals: Vec<f64>,
    /// Running sum of squared marginal contributions per example (for
    /// standard-error diagnostics).
    pub totals_sq: Vec<f64>,
}

impl McCheckpoint {
    /// A zeroed snapshot at permutation 0 for this run shape.
    pub fn fresh(_params: &TmcParams, seed: u64, n: usize) -> McCheckpoint {
        McCheckpoint {
            seed,
            n,
            cursor: 0,
            utility_calls: 0,
            rng_state: None,
            inflight: None,
            totals: vec![0.0; n],
            totals_sq: vec![0.0; n],
        }
    }

    /// Internal consistency: vector lengths match `n`, every float is
    /// finite, and in-flight state is well-formed.
    pub fn validate(&self) -> Result<()> {
        if self.totals.len() != self.n || self.totals_sq.len() != self.n {
            return Err(ImportanceError::Checkpoint(format!(
                "checkpoint claims n={} but holds {} totals / {} squared totals",
                self.n,
                self.totals.len(),
                self.totals_sq.len()
            )));
        }
        all_finite("totals", &self.totals)?;
        all_finite("totals_sq", &self.totals_sq)?;
        if let Some(inflight) = &self.inflight {
            if !inflight.prev_u.is_finite() {
                return Err(ImportanceError::Checkpoint(
                    "`inflight.prev_u` is not a finite number".into(),
                ));
            }
            all_finite("inflight.marginals", &inflight.marginals)?;
            if inflight.marginals.len() != self.n {
                return Err(ImportanceError::Checkpoint(format!(
                    "in-flight state claims n={} but holds {} marginals",
                    self.n,
                    inflight.marginals.len()
                )));
            }
            if inflight.pos as usize > self.n {
                return Err(ImportanceError::Checkpoint(format!(
                    "in-flight position {} exceeds n={}",
                    inflight.pos, self.n
                )));
            }
            if self.rng_state.is_none() {
                return Err(ImportanceError::Checkpoint(
                    "in-flight state requires `rng_state` to reconstruct the stream".into(),
                ));
            }
        }
        Ok(())
    }

    /// Reject a snapshot that was written by a differently-shaped run.
    pub fn validate_against(&self, params: &TmcParams, seed: u64, n: usize) -> Result<()> {
        self.validate()?;
        if self.seed != seed || self.n != n {
            return Err(ImportanceError::Checkpoint(format!(
                "checkpoint (seed {}, n {}) does not match run (seed {seed}, n {n})",
                self.seed, self.n
            )));
        }
        let total = params.permutations as u64;
        if self.cursor > total || (self.cursor == total && self.inflight.is_some()) {
            return Err(ImportanceError::Checkpoint(format!(
                "checkpoint cursor {} exceeds configured permutations {total}",
                self.cursor
            )));
        }
        Ok(())
    }

    /// The snapshot as a durable-store payload.
    pub fn to_payload(&self) -> Json {
        let rng_state = match self.rng_state {
            Some(words) => Json::Arr(words.iter().map(|&w| Json::UInt(w)).collect()),
            None => Json::Null,
        };
        let inflight = match &self.inflight {
            Some(state) => Json::Obj(vec![
                ("pos".into(), Json::UInt(state.pos)),
                ("prev_u".into(), state.prev_u.to_json()),
                ("marginals".into(), state.marginals.to_json()),
            ]),
            None => Json::Null,
        };
        Json::Obj(vec![
            ("method".into(), Json::Str(TMC_METHOD.into())),
            ("seed".into(), Json::UInt(self.seed)),
            ("n".into(), Json::UInt(self.n as u64)),
            ("cursor".into(), Json::UInt(self.cursor)),
            ("utility_calls".into(), Json::UInt(self.utility_calls)),
            ("rng_state".into(), rng_state),
            ("inflight".into(), inflight),
            ("totals".into(), self.totals.to_json()),
            ("totals_sq".into(), self.totals_sq.to_json()),
        ])
    }

    /// Reconstruct and validate a snapshot from a durable-store payload.
    /// A missing `inflight` field (written by runs that stopped only on
    /// permutation boundaries) reads as `null`.
    pub fn from_payload(doc: &Json) -> Result<McCheckpoint> {
        let ckpt = read(|| {
            check_method(doc, TMC_METHOD)?;
            let rng_state = match field(doc, "rng_state")? {
                Json::Null => None,
                _ => Some(
                    <[u64; 4]>::try_from(uint_vec(doc, "rng_state")?)
                        .map_err(|_| "`rng_state` must be null or a 4-word array")?,
                ),
            };
            let inflight = match doc.get("inflight") {
                None | Some(Json::Null) => None,
                Some(state) => Some(InflightPermutation {
                    pos: uint(state, "pos")?,
                    prev_u: finite(state, "prev_u")?,
                    marginals: finite_vec(state, "marginals")?,
                }),
            };
            Ok(McCheckpoint {
                seed: uint(doc, "seed")?,
                n: uint(doc, "n")? as usize,
                cursor: uint(doc, "cursor")?,
                utility_calls: uint(doc, "utility_calls")?,
                rng_state,
                inflight,
                totals: finite_vec(doc, "totals")?,
                totals_sq: finite_vec(doc, "totals_sq")?,
            })
        })?;
        ckpt.validate()?;
        Ok(ckpt)
    }
}

/// Partial state of a Banzhaf MSR estimation: subset samples `0..cursor`
/// folded into the conditional sums. Resume continues the fold at `cursor`,
/// so an interrupted run is **bit-identical** to an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct BanzhafCheckpoint {
    /// Base seed; sample `s` draws from `child_seed(seed, s)`.
    pub seed: u64,
    /// Number of scored training examples.
    pub n: usize,
    /// Configured total subset samples.
    pub samples: u64,
    /// Next subset-sample index to fold.
    pub cursor: u64,
    /// Cumulative logical utility calls across all segments.
    pub utility_calls: u64,
    /// Sum of `U(S)` over samples containing each point.
    pub with_sum: Vec<f64>,
    /// Number of samples containing each point.
    pub with_count: Vec<u64>,
    /// Sum of `U(S)` over samples excluding each point.
    pub without_sum: Vec<f64>,
    /// Number of samples excluding each point.
    pub without_count: Vec<u64>,
}

impl BanzhafCheckpoint {
    /// A zeroed snapshot at sample 0 for this run shape.
    pub fn fresh(params: &BanzhafParams, seed: u64, n: usize) -> BanzhafCheckpoint {
        BanzhafCheckpoint {
            seed,
            n,
            samples: params.samples as u64,
            cursor: 0,
            utility_calls: 0,
            with_sum: vec![0.0; n],
            with_count: vec![0; n],
            without_sum: vec![0.0; n],
            without_count: vec![0; n],
        }
    }

    /// Internal consistency: vector lengths, cursor bounds, finite floats,
    /// and per-point counts summing to the cursor.
    pub fn validate(&self) -> Result<()> {
        let lens = [
            self.with_sum.len(),
            self.with_count.len(),
            self.without_sum.len(),
            self.without_count.len(),
        ];
        if lens.iter().any(|&l| l != self.n) {
            return Err(ImportanceError::Checkpoint(format!(
                "snapshot claims n={} but holds sum/count vectors of lengths {lens:?}",
                self.n
            )));
        }
        if self.cursor > self.samples {
            return Err(ImportanceError::Checkpoint(format!(
                "cursor {} exceeds configured samples {}",
                self.cursor, self.samples
            )));
        }
        all_finite("with_sum", &self.with_sum)?;
        all_finite("without_sum", &self.without_sum)?;
        for i in 0..self.n {
            // Checked: both counts come from the payload and may be crafted.
            if self.with_count[i].checked_add(self.without_count[i]) != Some(self.cursor) {
                return Err(ImportanceError::Checkpoint(format!(
                    "point {i} counts {} + {} do not sum to cursor {}",
                    self.with_count[i], self.without_count[i], self.cursor
                )));
            }
        }
        Ok(())
    }

    /// Reject a snapshot that was written by a differently-shaped run.
    pub fn validate_against(&self, params: &BanzhafParams, seed: u64, n: usize) -> Result<()> {
        self.validate()?;
        if self.seed != seed || self.samples != params.samples as u64 || self.n != n {
            return Err(ImportanceError::Checkpoint(format!(
                "snapshot (seed={}, samples={}, n={}) does not match run \
                 (seed={seed}, samples={}, n={n})",
                self.seed, self.samples, self.n, params.samples
            )));
        }
        Ok(())
    }

    /// Best-so-far Banzhaf values from the folded samples:
    /// `mean(U | i ∈ S) − mean(U | i ∉ S)` (0 for an unseen side).
    pub fn values(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| {
                let w = if self.with_count[i] > 0 {
                    self.with_sum[i] / self.with_count[i] as f64
                } else {
                    0.0
                };
                let wo = if self.without_count[i] > 0 {
                    self.without_sum[i] / self.without_count[i] as f64
                } else {
                    0.0
                };
                w - wo
            })
            .collect()
    }

    /// The snapshot as a durable-store payload.
    pub fn to_payload(&self) -> Json {
        Json::Obj(vec![
            ("method".into(), Json::Str("banzhaf".into())),
            ("seed".into(), Json::UInt(self.seed)),
            ("n".into(), Json::UInt(self.n as u64)),
            ("samples".into(), Json::UInt(self.samples)),
            ("cursor".into(), Json::UInt(self.cursor)),
            ("utility_calls".into(), Json::UInt(self.utility_calls)),
            ("with_sum".into(), self.with_sum.to_json()),
            (
                "with_count".into(),
                Json::Arr(self.with_count.iter().map(|&c| Json::UInt(c)).collect()),
            ),
            ("without_sum".into(), self.without_sum.to_json()),
            (
                "without_count".into(),
                Json::Arr(self.without_count.iter().map(|&c| Json::UInt(c)).collect()),
            ),
        ])
    }

    /// Reconstruct and validate a snapshot from a durable-store payload.
    pub fn from_payload(doc: &Json) -> Result<BanzhafCheckpoint> {
        let ckpt = read(|| {
            check_method(doc, "banzhaf")?;
            Ok(BanzhafCheckpoint {
                seed: uint(doc, "seed")?,
                n: uint(doc, "n")? as usize,
                samples: uint(doc, "samples")?,
                cursor: uint(doc, "cursor")?,
                utility_calls: uint(doc, "utility_calls")?,
                with_sum: finite_vec(doc, "with_sum")?,
                with_count: uint_vec(doc, "with_count")?,
                without_sum: finite_vec(doc, "without_sum")?,
                without_count: uint_vec(doc, "without_count")?,
            })
        })?;
        ckpt.validate()?;
        Ok(ckpt)
    }
}

/// Partial state of a Beta Shapley estimation: points `0..cursor` fully
/// scored (each point's samples are an independent RNG stream, so resume is
/// point-granular and **bit-identical**). Values of unscored points are 0.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaShapleyCheckpoint {
    /// Beta α parameter of the run that wrote the snapshot.
    pub alpha: f64,
    /// Beta β parameter of the run that wrote the snapshot.
    pub beta: f64,
    /// Configured Monte-Carlo samples per point.
    pub samples_per_point: u64,
    /// Base seed; point `i` draws from `child_seed(seed, i)`.
    pub seed: u64,
    /// Number of scored training examples.
    pub n: usize,
    /// Next point index to score.
    pub cursor: u64,
    /// Cumulative logical utility calls across all segments.
    pub utility_calls: u64,
    /// Per-point values (0 for points at or beyond `cursor`).
    pub values: Vec<f64>,
}

impl BetaShapleyCheckpoint {
    /// A zeroed snapshot at point 0 for this run shape.
    pub fn fresh(params: &BetaShapleyParams, seed: u64, n: usize) -> BetaShapleyCheckpoint {
        BetaShapleyCheckpoint {
            alpha: params.alpha,
            beta: params.beta,
            samples_per_point: params.samples_per_point as u64,
            seed,
            n,
            cursor: 0,
            utility_calls: 0,
            values: vec![0.0; n],
        }
    }

    /// Internal consistency: vector length, cursor bounds, finite floats.
    pub fn validate(&self) -> Result<()> {
        if self.values.len() != self.n {
            return Err(ImportanceError::Checkpoint(format!(
                "snapshot claims n={} but holds {} values",
                self.n,
                self.values.len()
            )));
        }
        if self.cursor as usize > self.n {
            return Err(ImportanceError::Checkpoint(format!(
                "cursor {} exceeds n={}",
                self.cursor, self.n
            )));
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0 && self.beta.is_finite() && self.beta > 0.0)
        {
            return Err(ImportanceError::Checkpoint(format!(
                "alpha={} / beta={} outside (0, ∞)",
                self.alpha, self.beta
            )));
        }
        all_finite("values", &self.values)
    }

    /// Reject a snapshot that was written by a differently-shaped run.
    /// α/β are compared bit-exactly: any difference changes the size
    /// distribution and therefore every RNG draw.
    pub fn validate_against(&self, params: &BetaShapleyParams, seed: u64, n: usize) -> Result<()> {
        self.validate()?;
        if self.seed != seed
            || self.samples_per_point != params.samples_per_point as u64
            || self.n != n
            || self.alpha.to_bits() != params.alpha.to_bits()
            || self.beta.to_bits() != params.beta.to_bits()
        {
            return Err(ImportanceError::Checkpoint(format!(
                "snapshot (seed={}, spp={}, n={}, alpha={}, beta={}) does not match run \
                 (seed={seed}, spp={}, n={n}, alpha={}, beta={})",
                self.seed,
                self.samples_per_point,
                self.n,
                self.alpha,
                self.beta,
                params.samples_per_point,
                params.alpha,
                params.beta
            )));
        }
        Ok(())
    }

    /// The snapshot as a durable-store payload.
    pub fn to_payload(&self) -> Json {
        Json::Obj(vec![
            ("method".into(), Json::Str("beta-shapley".into())),
            ("alpha".into(), self.alpha.to_json()),
            ("beta".into(), self.beta.to_json()),
            (
                "samples_per_point".into(),
                Json::UInt(self.samples_per_point),
            ),
            ("seed".into(), Json::UInt(self.seed)),
            ("n".into(), Json::UInt(self.n as u64)),
            ("cursor".into(), Json::UInt(self.cursor)),
            ("utility_calls".into(), Json::UInt(self.utility_calls)),
            ("values".into(), self.values.to_json()),
        ])
    }

    /// Reconstruct and validate a snapshot from a durable-store payload.
    pub fn from_payload(doc: &Json) -> Result<BetaShapleyCheckpoint> {
        let ckpt = read(|| {
            check_method(doc, "beta-shapley")?;
            Ok(BetaShapleyCheckpoint {
                alpha: finite(doc, "alpha")?,
                beta: finite(doc, "beta")?,
                samples_per_point: uint(doc, "samples_per_point")?,
                seed: uint(doc, "seed")?,
                n: uint(doc, "n")? as usize,
                cursor: uint(doc, "cursor")?,
                utility_calls: uint(doc, "utility_calls")?,
                values: finite_vec(doc, "values")?,
            })
        })?;
        ckpt.validate()?;
        Ok(ckpt)
    }
}

/// A snapshot from any of the resumable Monte-Carlo estimators — the
/// method-erased form the run API and durable store traffic in. The
/// `method` tag inside each payload selects the variant on parse, so a
/// record can never be resumed into the wrong estimator.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorCheckpoint {
    /// TMC-Shapley permutation-walk state.
    Tmc(McCheckpoint),
    /// Banzhaf MSR conditional-sum state.
    Banzhaf(BanzhafCheckpoint),
    /// Beta Shapley per-point state.
    BetaShapley(BetaShapleyCheckpoint),
}

impl EstimatorCheckpoint {
    /// The method tag carried in the payload.
    pub fn method(&self) -> &'static str {
        match self {
            EstimatorCheckpoint::Tmc(_) => TMC_METHOD,
            EstimatorCheckpoint::Banzhaf(_) => "banzhaf",
            EstimatorCheckpoint::BetaShapley(_) => "beta-shapley",
        }
    }

    /// Monotone progress step (the estimator's cursor).
    pub fn step(&self) -> u64 {
        match self {
            EstimatorCheckpoint::Tmc(c) => c.cursor,
            EstimatorCheckpoint::Banzhaf(c) => c.cursor,
            EstimatorCheckpoint::BetaShapley(c) => c.cursor,
        }
    }

    /// Cumulative logical utility calls recorded by the snapshot.
    pub fn utility_calls(&self) -> u64 {
        match self {
            EstimatorCheckpoint::Tmc(c) => c.utility_calls,
            EstimatorCheckpoint::Banzhaf(c) => c.utility_calls,
            EstimatorCheckpoint::BetaShapley(c) => c.utility_calls,
        }
    }

    /// The snapshot as a durable-store payload.
    pub fn to_payload(&self) -> Json {
        match self {
            EstimatorCheckpoint::Tmc(c) => c.to_payload(),
            EstimatorCheckpoint::Banzhaf(c) => c.to_payload(),
            EstimatorCheckpoint::BetaShapley(c) => c.to_payload(),
        }
    }

    /// Reconstruct from a durable-store payload, dispatching on the
    /// payload's `method` tag.
    pub fn from_payload(doc: &Json) -> Result<EstimatorCheckpoint> {
        match read(|| text(doc, "method"))? {
            TMC_METHOD => Ok(EstimatorCheckpoint::Tmc(McCheckpoint::from_payload(doc)?)),
            "banzhaf" => Ok(EstimatorCheckpoint::Banzhaf(
                BanzhafCheckpoint::from_payload(doc)?,
            )),
            "beta-shapley" => Ok(EstimatorCheckpoint::BetaShapley(
                BetaShapleyCheckpoint::from_payload(doc)?,
            )),
            other => Err(ImportanceError::Checkpoint(format!(
                "unknown estimator snapshot method `{other}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmc_sample() -> McCheckpoint {
        McCheckpoint {
            seed: u64::MAX - 7,
            n: 3,
            cursor: 41,
            utility_calls: 1234,
            rng_state: Some([1, u64::MAX, 0, 99]),
            inflight: Some(InflightPermutation {
                pos: 2,
                prev_u: 0.625 + 1e-16,
                marginals: vec![0.25, -0.125, 0.0],
            }),
            totals: vec![0.1 + 0.2, -1.5e-13, 1.0 / 3.0],
            totals_sq: vec![0.09, 2.25e-26, 1.0 / 9.0],
        }
    }

    fn banzhaf_sample() -> BanzhafCheckpoint {
        BanzhafCheckpoint {
            seed: u64::MAX - 1,
            n: 3,
            samples: 10,
            cursor: 4,
            utility_calls: 7,
            with_sum: vec![0.1 + 0.2, -1.5e-13, 0.625],
            with_count: vec![2, 1, 3],
            without_sum: vec![0.5, 1.0 / 3.0, -0.25],
            without_count: vec![2, 3, 1],
        }
    }

    fn beta_sample() -> BetaShapleyCheckpoint {
        BetaShapleyCheckpoint {
            alpha: 1.0,
            beta: 16.0,
            samples_per_point: 30,
            seed: 11,
            n: 4,
            cursor: 2,
            utility_calls: 120,
            values: vec![0.1 + 0.2, -0.125, 0.0, 0.0],
        }
    }

    /// One sample per estimator, serialized as a store record carries it.
    fn sample_texts() -> [String; 3] {
        [
            tmc_sample().to_payload().to_string_pretty(),
            banzhaf_sample().to_payload().to_string_pretty(),
            beta_sample().to_payload().to_string_pretty(),
        ]
    }

    fn parse_tmc(text: &str) -> Result<McCheckpoint> {
        McCheckpoint::from_payload(&Json::parse(text).unwrap())
    }

    /// Parse `text` the way resume does: JSON first, then the method-erased
    /// payload reader.
    fn parse_any(text: &str) -> Result<EstimatorCheckpoint> {
        Json::parse(text)
            .map_err(|e| ImportanceError::Checkpoint(e.to_string()))
            .and_then(|doc| EstimatorCheckpoint::from_payload(&doc))
    }

    #[test]
    fn json_roundtrip_is_bit_identical() {
        let ckpt = tmc_sample();
        let back = parse_tmc(&ckpt.to_payload().to_string_pretty()).unwrap();
        assert_eq!(back.seed, ckpt.seed);
        assert_eq!(back.cursor, ckpt.cursor);
        assert_eq!(back.rng_state, ckpt.rng_state);
        let (a, b) = (
            ckpt.inflight.as_ref().unwrap(),
            back.inflight.as_ref().unwrap(),
        );
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.prev_u.to_bits(), b.prev_u.to_bits());
        for (x, y) in a.marginals.iter().zip(&b.marginals) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (a, b) in ckpt.totals.iter().zip(&back.totals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in ckpt.totals_sq.iter().zip(&back.totals_sq) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn banzhaf_payload_roundtrip_is_bit_identical() {
        let ckpt = banzhaf_sample();
        let text = ckpt.to_payload().to_string_pretty();
        let back = BanzhafCheckpoint::from_payload(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ckpt);
        for (a, b) in ckpt.with_sum.iter().zip(&back.with_sum) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn beta_payload_roundtrip_is_bit_identical() {
        let ckpt = beta_sample();
        let text = ckpt.to_payload().to_string_pretty();
        let back = BetaShapleyCheckpoint::from_payload(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ckpt);
        for (a, b) in ckpt.values.iter().zip(&back.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupt_checkpoints_are_typed_errors() {
        assert!(Json::parse("not json").is_err());
        assert!(matches!(
            parse_tmc("{}"),
            Err(ImportanceError::Checkpoint(_))
        ));
        // Inconsistent n vs. totals length.
        let mut ckpt = tmc_sample();
        ckpt.totals.pop();
        assert!(matches!(
            parse_tmc(&ckpt.to_payload().to_string_pretty()),
            Err(ImportanceError::Checkpoint(_))
        ));
    }

    #[test]
    fn fresh_checkpoint_is_zeroed() {
        let ckpt = McCheckpoint::fresh(&TmcParams::default(), 9, 4);
        assert_eq!(ckpt.cursor, 0);
        assert_eq!(ckpt.totals, vec![0.0; 4]);
        assert!(ckpt.inflight.is_none());
        assert!(ckpt.validate().is_ok());
    }

    #[test]
    fn checkpoints_without_inflight_field_still_parse() {
        // Snapshots from runs that stop only on permutation boundaries may
        // lack the `inflight` field entirely.
        let mut ckpt = tmc_sample();
        ckpt.inflight = None;
        ckpt.rng_state = None;
        let text = ckpt.to_payload().to_string_pretty();
        let legacy = text.replace("  \"inflight\": null,\n", "");
        assert!(legacy.len() < text.len());
        assert_eq!(parse_tmc(&legacy).unwrap(), ckpt);
    }

    #[test]
    fn malformed_inflight_is_rejected() {
        let rejected = |ckpt: McCheckpoint| {
            matches!(
                parse_tmc(&ckpt.to_payload().to_string_pretty()),
                Err(ImportanceError::Checkpoint(_))
            )
        };
        // Marginals length must match n.
        let mut ckpt = tmc_sample();
        ckpt.inflight.as_mut().unwrap().marginals.pop();
        assert!(rejected(ckpt));
        // In-flight state without an RNG stream to resume is unusable.
        let mut ckpt = tmc_sample();
        ckpt.rng_state = None;
        assert!(rejected(ckpt));
        // Position can't exceed n.
        let mut ckpt = tmc_sample();
        ckpt.inflight.as_mut().unwrap().pos = 99;
        assert!(rejected(ckpt));
    }

    #[test]
    fn truncated_serializations_never_panic() {
        // A torn write can cut the payload at any byte; every prefix must
        // come back as a typed error (the full text parses, nothing panics).
        for text in sample_texts() {
            for cut in 0..text.len() {
                assert!(parse_any(&text[..cut]).is_err());
            }
            assert!(parse_any(&text).is_ok());
        }
    }

    #[test]
    fn non_finite_float_encodings_are_rejected() {
        // `1e999` overflows to +inf when parsed; the payload readers must
        // refuse it in every float-bearing field rather than resume with an
        // infinite running sum.
        let [tmc, banzhaf, beta] = sample_texts();
        let cases = [
            (
                tmc,
                &[
                    "0.30000000000000004",
                    "0.09",
                    "0.6250000000000001",
                    "-0.125",
                ][..],
            ),
            (
                banzhaf,
                &[
                    "0.30000000000000004",
                    "-1.5e-13",
                    "0.3333333333333333",
                    "-0.25",
                ],
            ),
            (beta, &["16.0", "0.30000000000000004", "-0.125"]),
        ];
        for (text, tokens) in cases {
            for token in tokens {
                let smuggled = text.replacen(token, "1e999", 1);
                assert_ne!(smuggled, text, "token {token} not found in fixture");
                assert!(matches!(
                    parse_any(&smuggled),
                    Err(ImportanceError::Checkpoint(_))
                ));
            }
        }
        // In-process construction is policed the same way.
        let mut ckpt = tmc_sample();
        ckpt.totals[1] = f64::NAN;
        assert!(matches!(
            ckpt.validate(),
            Err(ImportanceError::Checkpoint(_))
        ));
        let mut ckpt = tmc_sample();
        ckpt.inflight.as_mut().unwrap().prev_u = f64::INFINITY;
        assert!(matches!(
            ckpt.validate(),
            Err(ImportanceError::Checkpoint(_))
        ));
        let mut ckpt = banzhaf_sample();
        ckpt.without_sum[2] = f64::NEG_INFINITY;
        assert!(matches!(
            ckpt.validate(),
            Err(ImportanceError::Checkpoint(_))
        ));
        let mut ckpt = beta_sample();
        ckpt.beta = f64::NAN;
        assert!(matches!(
            ckpt.validate(),
            Err(ImportanceError::Checkpoint(_))
        ));
    }

    #[test]
    fn wrong_type_fields_are_rejected() {
        let [tmc, banzhaf, beta] = sample_texts();
        let cases = [
            (
                tmc,
                &[
                    ("\"method\": \"tmc-shapley\"", "\"method\": 17"),
                    ("\"seed\": 18446744073709551608", "\"seed\": \"huge\""),
                    ("\"cursor\": 41", "\"cursor\": -41"),
                    ("\"utility_calls\": 1234", "\"utility_calls\": [1234]"),
                    ("\"rng_state\": [", "\"rng_state\": 4["),
                    ("\"pos\": 2", "\"pos\": 2.5"),
                    ("\"totals\": [", "\"totals\": \"[\"["),
                ][..],
            ),
            (
                banzhaf,
                &[
                    ("\"method\": \"banzhaf\"", "\"method\": null"),
                    ("\"n\": 3", "\"n\": \"3\""),
                    ("\"samples\": 10", "\"samples\": 10.5"),
                    ("\"utility_calls\": 7", "\"utility_calls\": [7]"),
                    ("\"with_count\": [", "\"with_count\": 2, \"x\": ["),
                    ("\"without_sum\": [", "\"without_sum\": {\"x\": ["),
                ],
            ),
            (
                beta,
                &[
                    (
                        "\"method\": \"beta-shapley\"",
                        "\"method\": [\"beta-shapley\"]",
                    ),
                    ("\"alpha\": 1.0", "\"alpha\": \"1.0\""),
                    ("\"samples_per_point\": 30", "\"samples_per_point\": -30"),
                    ("\"cursor\": 2", "\"cursor\": null"),
                    ("\"values\": [", "\"values\": 7, \"x\": ["),
                ],
            ),
        ];
        for (text, swaps) in cases {
            for (from, to) in swaps {
                let mutated = text.replacen(from, to, 1);
                assert_ne!(mutated, text, "pattern {from} not found in fixture");
                assert!(
                    parse_any(&mutated).is_err(),
                    "mutation {from} -> {to} was accepted"
                );
            }
        }
    }

    #[test]
    fn random_mutations_error_or_validate_but_never_panic() {
        use nde_data::rng::{seeded, Rng};
        // Property test: hammer each estimator's serialized payload with
        // random byte edits. Every outcome must be a typed error or a
        // snapshot that passes `validate()` — no panics, no accepted
        // non-finite state.
        let mut rng = seeded(0xC4A05);
        for text in sample_texts() {
            for _ in 0..600 {
                let mut bytes = text.clone().into_bytes();
                for _ in 0..1 + rng.gen_range(0..4usize) {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] = rng.gen_range(32..127usize) as u8;
                }
                let Ok(mutated) = String::from_utf8(bytes) else {
                    continue;
                };
                match parse_any(&mutated) {
                    Ok(EstimatorCheckpoint::Tmc(c)) => {
                        assert!(c.validate().is_ok());
                        assert!(c.totals.iter().all(|v| v.is_finite()));
                        assert!(c.totals_sq.iter().all(|v| v.is_finite()));
                    }
                    Ok(EstimatorCheckpoint::Banzhaf(c)) => assert!(c.validate().is_ok()),
                    Ok(EstimatorCheckpoint::BetaShapley(c)) => assert!(c.validate().is_ok()),
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn method_tags_are_enforced() {
        let banzhaf = banzhaf_sample().to_payload();
        assert!(matches!(
            BetaShapleyCheckpoint::from_payload(&banzhaf),
            Err(ImportanceError::Checkpoint(_))
        ));
        let beta = beta_sample().to_payload();
        assert!(matches!(
            BanzhafCheckpoint::from_payload(&beta),
            Err(ImportanceError::Checkpoint(_))
        ));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Torn text, non-finite floats, inconsistent counts: all rejected.
        let text = banzhaf_sample().to_payload().to_string_pretty();
        for cut in 0..text.len() {
            assert!(Json::parse(&text[..cut])
                .map(|doc| BanzhafCheckpoint::from_payload(&doc))
                .map_or(true, |r| r.is_err()));
        }
        let inf = text.replacen("0.30000000000000004", "1e999", 1);
        assert_ne!(inf, text);
        assert!(BanzhafCheckpoint::from_payload(&Json::parse(&inf).unwrap()).is_err());
        let mut bad = banzhaf_sample();
        bad.with_count[0] += 1;
        assert!(bad.validate().is_err());
        // Counts that overflow `u64` when summed must not panic, nor wrap
        // around to the cursor.
        let overflow = Json::parse(
            r#"{"method":"banzhaf","seed":0,"n":1,"samples":5,"cursor":0,"utility_calls":0,
                "with_sum":[0.0],"with_count":[18446744073709551615],
                "without_sum":[0.0],"without_count":[1]}"#,
        )
        .unwrap();
        assert!(matches!(
            EstimatorCheckpoint::from_payload(&overflow),
            Err(ImportanceError::Checkpoint(_))
        ));
        let mut bad = beta_sample();
        bad.values[1] = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = beta_sample();
        bad.cursor = 99;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn estimator_checkpoint_dispatches_on_method_tag() {
        for ckpt in [
            EstimatorCheckpoint::Tmc(tmc_sample()),
            EstimatorCheckpoint::Banzhaf(banzhaf_sample()),
            EstimatorCheckpoint::BetaShapley(beta_sample()),
        ] {
            let back = EstimatorCheckpoint::from_payload(&ckpt.to_payload()).unwrap();
            assert_eq!(back, ckpt);
            assert_eq!(back.method(), ckpt.method());
        }
        let unknown = Json::Obj(vec![("method".into(), Json::Str("zorro".into()))]);
        assert!(matches!(
            EstimatorCheckpoint::from_payload(&unknown),
            Err(ImportanceError::Checkpoint(_))
        ));
    }

    #[test]
    fn shape_mismatches_are_rejected_on_resume() {
        let params = BanzhafParams { samples: 10 };
        assert!(banzhaf_sample()
            .validate_against(&params, u64::MAX - 1, 3)
            .is_ok());
        assert!(banzhaf_sample()
            .validate_against(&params, u64::MAX - 1, 4)
            .is_err());
        assert!(banzhaf_sample().validate_against(&params, 0, 3).is_err());

        let params = BetaShapleyParams {
            alpha: 1.0,
            beta: 16.0,
            samples_per_point: 30,
        };
        assert!(beta_sample().validate_against(&params, 11, 4).is_ok());
        let other = BetaShapleyParams {
            beta: 16.0 + 1e-12,
            ..params
        };
        assert!(beta_sample().validate_against(&other, 11, 4).is_err());
    }
}
