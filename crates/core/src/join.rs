//! Sketch joins and MI estimation over the recovered sample.
//!
//! Joining two column sketches on their hashed keys recovers a subset of the
//! full join's `(x, y)` pairs (Section IV, "Approach Overview"). The paired
//! sample is then handed to one of the estimators of `joinmi-estimators`,
//! selected from the value data types exactly as in the paper's experiments.

use joinmi_estimators::{
    mi_interval, pearson, select_estimator, spearman, EstimatorError, EstimatorKind,
    EstimatorWorkspace, MiEstimate, MiInterval, Variable, VariableEncoder, DEFAULT_K,
};
use joinmi_hash::{digest_map_with_capacity, DigestHashMap};
use joinmi_table::Value;

use crate::row::ColumnSketch;

/// The paired sample recovered by joining a left sketch with a right sketch,
/// already encoded for the estimators.
#[derive(Debug, Clone)]
pub struct JoinedSketch {
    /// Number of recovered pairs.
    len: usize,
    /// The (feature, target) sample: feature values from the right /
    /// augmentation sketch, target values from the left / training sketch.
    /// An error when a numeric column held a value that is not a number.
    pair: Result<(Variable, Variable), EstimatorError>,
}

impl JoinedSketch {
    /// Joins a left sketch with a right sketch on the hashed join keys,
    /// encoding every matched pair as it is found: string columns become
    /// first-seen codes, numeric columns `f64` coordinates.
    #[must_use]
    pub fn from_sketches(left: &ColumnSketch, right: &ColumnSketch) -> Self {
        // Right side: unique keys (first row wins if the builder somehow kept
        // duplicates, mirroring many-to-one semantics). Keys are already
        // 64-bit digests, so the probe map skips SipHash entirely.
        let mut right_map: DigestHashMap<&Value> = digest_map_with_capacity(right.len());
        for row in right.rows() {
            right_map.entry(row.key.raw()).or_insert(&row.value);
        }

        // Coordinated sketches typically match most of the smaller side, so
        // min(|left|, |right|) is a tight pre-size that avoids the doubling
        // reallocations on the hot scoring path.
        let reserve = left.len().min(right.len());
        let mut xs = VariableEncoder::new(right.value_dtype(), reserve);
        let mut ys = VariableEncoder::new(left.value_dtype(), reserve);
        let mut len = 0;
        for row in left.rows() {
            if let Some(&x) = right_map.get(&row.key.raw()) {
                if row.value.is_null() || x.is_null() {
                    continue;
                }
                xs.push(x);
                ys.push(&row.value);
                len += 1;
            }
        }
        let pair = xs.finish().and_then(|x| Ok((x, ys.finish()?)));
        Self { len, pair }
    }

    /// Number of recovered pairs (the paper's "sketch join size").
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no pairs were recovered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate resident heap + inline size of this joined sample, in
    /// bytes: the struct itself plus both encoded vectors at their allocated
    /// capacity. Used by the cross-query stage cache to bound resident memory
    /// rather than entry count alone.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let heap = |v: &Variable| match v {
            Variable::Discrete(codes) => codes.capacity() * std::mem::size_of::<u32>(),
            Variable::Continuous(coords) => coords.capacity() * std::mem::size_of::<f64>(),
        };
        std::mem::size_of::<Self>() + self.pair.as_ref().map_or(0, |(x, y)| heap(x) + heap(y))
    }

    /// The encoded (feature, target) sample, borrowed.
    pub fn sample(&self) -> Result<(&Variable, &Variable), EstimatorError> {
        match &self.pair {
            Ok((x, y)) => Ok((x, y)),
            Err(e) => Err(e.clone()),
        }
    }

    /// The encoded (feature, target) sample (strings → discrete codes,
    /// numerics → continuous coordinates).
    pub fn variables(&self) -> Result<(Variable, Variable), EstimatorError> {
        self.pair.clone()
    }

    /// Estimates `I(X; Y)` from the recovered pairs with the automatically
    /// selected estimator and the default `k`.
    pub fn estimate_mi(&self) -> Result<MiEstimate, EstimatorError> {
        self.estimate_mi_in(&mut EstimatorWorkspace::new(), DEFAULT_K)
    }

    /// Estimates MI with the automatically selected estimator against a
    /// caller-owned [`EstimatorWorkspace`], so callers scoring many joins
    /// (e.g. query candidate ranking) reuse the estimator sort buffers.
    pub fn estimate_mi_in(
        &self,
        ws: &mut EstimatorWorkspace,
        k: usize,
    ) -> Result<MiEstimate, EstimatorError> {
        let (x, y) = self.sample()?;
        joinmi_estimators::estimate_mi_with_workspace(ws, x, y, select_estimator(x, y), k)
    }

    /// Estimates MI like [`Self::estimate_mi_in`] and additionally computes a
    /// Hutter–Zaffalon posterior credible interval around the point estimate
    /// at the given two-sided `level`.
    ///
    /// The point estimate is produced by exactly the same code path as
    /// [`Self::estimate_mi_in`] — same estimator selection, same workspace
    /// reuse — so its value is bit-for-bit identical to the point-only call;
    /// the interval is pure decoration computed from the contingency table of
    /// the same sample (continuous sides grouped by exact equality).
    pub fn estimate_mi_interval_in(
        &self,
        ws: &mut EstimatorWorkspace,
        k: usize,
        level: f64,
    ) -> Result<(MiEstimate, MiInterval), EstimatorError> {
        let est = self.estimate_mi_in(ws, k)?;
        let (x, y) = self.sample()?;
        let interval = mi_interval(x, y, est.mi, level)?;
        Ok((est, interval))
    }

    /// Estimates MI with an explicitly chosen estimator.
    pub fn estimate_mi_with(
        &self,
        kind: EstimatorKind,
        k: usize,
    ) -> Result<MiEstimate, EstimatorError> {
        let (x, y) = self.sample()?;
        joinmi_estimators::select::estimate_mi_with(x, y, kind, k)
    }

    /// Pearson correlation of the recovered pairs (what the CSK baseline
    /// estimates); `None` when either side is non-numeric or degenerate.
    #[must_use]
    pub fn estimate_pearson(&self) -> Option<f64> {
        match &self.pair {
            Ok((Variable::Continuous(x), Variable::Continuous(y))) => pearson(x, y),
            _ => None,
        }
    }

    /// Spearman rank correlation of the recovered pairs; `None` when either
    /// side is non-numeric or degenerate.
    #[must_use]
    pub fn estimate_spearman(&self) -> Option<f64> {
        match &self.pair {
            Ok((Variable::Continuous(x), Variable::Continuous(y))) => spearman(x, y),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Side, SketchConfig};
    use crate::kind::SketchKind;
    use crate::row::SketchRow;
    use joinmi_hash::KeyHash;
    use joinmi_table::DataType;

    fn sketch(side: Side, dtype: DataType, rows: Vec<(u64, Value)>) -> ColumnSketch {
        ColumnSketch::new(
            SketchKind::Tupsk,
            side,
            rows.into_iter()
                .map(|(k, v)| SketchRow::new(KeyHash(k), v))
                .collect(),
            dtype,
            100,
            10,
            SketchConfig::default(),
        )
    }

    #[test]
    fn join_pairs_by_key_hash() {
        let left = sketch(
            Side::Left,
            DataType::Int,
            vec![
                (1, Value::Int(10)),
                (1, Value::Int(11)),
                (2, Value::Int(20)),
                (9, Value::Int(90)),
            ],
        );
        let right = sketch(
            Side::Right,
            DataType::Float,
            vec![
                (1, Value::Float(0.5)),
                (2, Value::Float(0.7)),
                (3, Value::Float(0.9)),
            ],
        );
        let joined = left.join(&right);
        assert_eq!(joined.len(), 3);
        let (xs, ys) = joined.variables().unwrap();
        assert_eq!(ys, Variable::Continuous(vec![10.0, 11.0, 20.0]));
        assert_eq!(xs, Variable::Continuous(vec![0.5, 0.5, 0.7]));
    }

    #[test]
    fn string_columns_are_encoded_as_first_seen_codes() {
        let left = sketch(
            Side::Left,
            DataType::Str,
            vec![
                (1, Value::from("b")),
                (2, Value::from("a")),
                (3, Value::from("b")),
            ],
        );
        let right = sketch(
            Side::Right,
            DataType::Int,
            vec![(1, Value::Int(7)), (2, Value::Int(7)), (3, Value::Int(8))],
        );
        let (x, y) = left.join(&right).variables().unwrap();
        assert_eq!(y, Variable::Discrete(vec![0, 1, 0]));
        assert_eq!(x, Variable::Continuous(vec![7.0, 7.0, 8.0]));
    }

    #[test]
    fn non_numeric_value_in_numeric_column_is_a_typed_error() {
        // The sketch decoder does not check per-row dtypes, so a string can
        // reach a numeric column; every estimate then fails with a typed
        // error instead of panicking.
        let left = sketch(
            Side::Left,
            DataType::Int,
            vec![(1, Value::Int(1)), (2, Value::Int(2)), (3, Value::Int(3))],
        );
        let right = sketch(
            Side::Right,
            DataType::Float,
            vec![
                (1, Value::Float(0.5)),
                (2, Value::from("oops")),
                (3, Value::Float(0.7)),
            ],
        );
        let joined = left.join(&right);
        assert_eq!(joined.len(), 3);
        match joined.variables() {
            Err(EstimatorError::IncompatibleTypes { detail, .. }) => {
                assert!(detail.contains("oops"), "{detail}");
            }
            other => panic!("expected IncompatibleTypes, got {other:?}"),
        }
        let mut ws = EstimatorWorkspace::new();
        assert!(joined.estimate_mi_in(&mut ws, 3).is_err());
        assert!(joined.estimate_mi_interval_in(&mut ws, 3, 0.95).is_err());
        assert!(joined.estimate_pearson().is_none());
    }

    #[test]
    fn null_values_are_dropped_from_pairs() {
        let left = sketch(
            Side::Left,
            DataType::Int,
            vec![(1, Value::Null), (2, Value::Int(2))],
        );
        let right = sketch(
            Side::Right,
            DataType::Float,
            vec![(1, Value::Float(1.0)), (2, Value::Float(2.0))],
        );
        let joined = left.join(&right);
        assert_eq!(joined.len(), 1);
    }

    #[test]
    fn estimate_mi_selects_by_type() {
        // Numeric-numeric → MixedKSG; string-string → MLE.
        let n = 64u64;
        let left_rows: Vec<(u64, Value)> =
            (0..n).map(|i| (i, Value::Int((i % 8) as i64))).collect();
        let right_rows: Vec<(u64, Value)> = (0..n)
            .map(|i| (i, Value::Float((i % 8) as f64 * 2.0)))
            .collect();
        let joined = sketch(Side::Left, DataType::Int, left_rows.clone()).join(&sketch(
            Side::Right,
            DataType::Float,
            right_rows,
        ));
        let est = joined.estimate_mi().unwrap();
        assert_eq!(est.estimator, EstimatorKind::MixedKsg);
        assert!(est.mi > 0.5);

        let right_str: Vec<(u64, Value)> = (0..n)
            .map(|i| (i, Value::from(format!("cat{}", i % 8))))
            .collect();
        let left_str: Vec<(u64, Value)> = (0..n)
            .map(|i| (i, Value::from(format!("tag{}", i % 8))))
            .collect();
        let joined = sketch(Side::Left, DataType::Str, left_str).join(&sketch(
            Side::Right,
            DataType::Str,
            right_str,
        ));
        let est = joined.estimate_mi().unwrap();
        assert_eq!(est.estimator, EstimatorKind::Mle);
        assert!((est.mi - 8.0_f64.ln()).abs() < 1e-9);
    }

    /// Joins `ys` (left, target) with `xs` (right, feature) row by row.
    fn zip_join(
        x_dtype: DataType,
        xs: Vec<Value>,
        y_dtype: DataType,
        ys: Vec<Value>,
    ) -> JoinedSketch {
        let keyed = |values: Vec<Value>| (0u64..).zip(values).collect();
        sketch(Side::Left, y_dtype, keyed(ys)).join(&sketch(Side::Right, x_dtype, keyed(xs)))
    }

    #[test]
    fn from_pairs_filters_nulls_and_estimates() {
        let xs = vec![
            Value::Float(1.0),
            Value::Null,
            Value::Float(3.0),
            Value::Float(4.0),
            Value::Float(5.0),
        ];
        let ys = vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
            Value::Null,
            Value::Int(5),
        ];
        let (x, y) = Variable::from_pairs(&xs, &ys, DataType::Float, DataType::Int).unwrap();
        let j = zip_join(DataType::Float, xs, DataType::Int, ys);
        assert_eq!(j.len(), 3);
        assert_eq!(j.variables().unwrap(), (x, y));
        assert!(j.estimate_pearson().unwrap() > 0.99);
        assert!(j.estimate_spearman().unwrap() > 0.99);
    }

    #[test]
    fn correlations_are_none_for_string_data() {
        let j = zip_join(
            DataType::Str,
            vec![Value::from("a")],
            DataType::Int,
            vec![Value::Int(1)],
        );
        assert!(j.estimate_pearson().is_none());
    }

    #[test]
    fn resident_bytes_counts_the_encoded_vectors() {
        let empty = zip_join(DataType::Int, vec![], DataType::Int, vec![]);
        assert_eq!(empty.resident_bytes(), std::mem::size_of::<JoinedSketch>());

        let ys = vec![Value::Int(3), Value::Int(4)];
        let ints = zip_join(
            DataType::Int,
            vec![Value::Int(1), Value::Int(2)],
            DataType::Int,
            ys.clone(),
        );
        let codes = zip_join(
            DataType::Str,
            vec![Value::from("a-reasonably-long-string"), Value::from("x")],
            DataType::Int,
            ys,
        );
        assert!(ints.resident_bytes() > empty.resident_bytes());
        // Same pair count: codes take 4 bytes per pair, coordinates 8, and
        // string payloads are not kept at all.
        assert_eq!(ints.resident_bytes() - codes.resident_bytes(), 2 * 4);
    }

    #[test]
    fn interval_estimate_reproduces_point_estimate_bit_for_bit() {
        let n = 64u64;
        let left_rows: Vec<(u64, Value)> =
            (0..n).map(|i| (i, Value::Int((i % 8) as i64))).collect();
        let right_rows: Vec<(u64, Value)> = (0..n)
            .map(|i| (i, Value::Float((i % 8) as f64 * 2.0)))
            .collect();
        let joined = sketch(Side::Left, DataType::Int, left_rows).join(&sketch(
            Side::Right,
            DataType::Float,
            right_rows,
        ));
        let mut ws = EstimatorWorkspace::new();
        let point = joined.estimate_mi_in(&mut ws, 3).unwrap();
        let (est, iv) = joined.estimate_mi_interval_in(&mut ws, 3, 0.95).unwrap();
        assert_eq!(point.mi.to_bits(), est.mi.to_bits());
        assert_eq!(point.estimator, est.estimator);
        assert!(iv.ci_lo >= 0.0);
        assert!(iv.ci_lo <= est.mi && est.mi <= iv.ci_hi);
        assert!(iv.variance >= 0.0);
        // A bad confidence level is rejected.
        assert!(joined.estimate_mi_interval_in(&mut ws, 3, 1.5).is_err());
    }

    #[test]
    fn empty_join_estimation_errors() {
        let j = zip_join(DataType::Int, vec![], DataType::Int, vec![]);
        assert!(j.is_empty());
        assert!(j.estimate_mi().is_err());
    }
}
