//! Sample representations used by the estimators.
//!
//! Estimators operate on one of two representations of a column sample:
//! integer *codes* for discrete (categorical) variables or `f64` coordinates
//! for continuous / mixture variables. [`Variable`] packages a sample with
//! its representation and lends it out in either form; [`VariableEncoder`]
//! is the one [`Value`] → sample conversion.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

use joinmi_hash::FixedHashMap;
use joinmi_table::{DataType, Value};

use crate::error::EstimatorError;
use crate::Result;

/// A sample of one variable in a representation an estimator can consume.
#[derive(Debug, Clone, PartialEq)]
pub enum Variable {
    /// Discrete (categorical) sample: values mapped to dense integer codes.
    Discrete(Vec<u32>),
    /// Continuous (or discrete-continuous mixture) sample.
    Continuous(Vec<f64>),
}

impl Variable {
    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::Discrete(v) => v.len(),
            Self::Continuous(v) => v.len(),
        }
    }

    /// Returns `true` if the sample is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if this is the discrete representation.
    #[must_use]
    pub fn is_discrete(&self) -> bool {
        matches!(self, Self::Discrete(_))
    }

    /// The sample as categorical codes: discrete codes are borrowed;
    /// continuous coordinates are grouped by exact bit pattern into
    /// first-seen codes (the coercion the MLE family applies to numerics).
    #[must_use]
    pub fn codes(&self) -> Cow<'_, [u32]> {
        match self {
            Self::Discrete(codes) => Cow::Borrowed(codes),
            Self::Continuous(v) => Cow::Owned(first_seen_codes(
                FixedHashMap::default(),
                v.iter().map(|x| x.to_bits()),
            )),
        }
    }

    /// The sample as coordinates: continuous samples are borrowed; discrete
    /// codes are widened to floats (ordered discrete data can legitimately be
    /// fed to KSG-type estimators; see Section V-A of the paper).
    #[must_use]
    pub fn as_continuous(&self) -> Cow<'_, [f64]> {
        match self {
            Self::Discrete(v) => Cow::Owned(v.iter().map(|&c| f64::from(c)).collect()),
            Self::Continuous(v) => Cow::Borrowed(v),
        }
    }

    /// Encodes two aligned value columns as a paired sample, keeping only the
    /// pairs where both sides are non-NULL (the full-join baseline).
    pub fn from_pairs(
        xs: &[Value],
        ys: &[Value],
        x_dtype: DataType,
        y_dtype: DataType,
    ) -> Result<(Self, Self)> {
        let mut x = VariableEncoder::new(x_dtype, xs.len());
        let mut y = VariableEncoder::new(y_dtype, ys.len());
        for (a, b) in xs.iter().zip(ys) {
            if !a.is_null() && !b.is_null() {
                x.push(a);
                y.push(b);
            }
        }
        Ok((x.finish()?, y.finish()?))
    }
}

/// Encodes one column's values into a [`Variable`] as they arrive: string
/// columns become first-seen codes, numeric columns `f64` coordinates.
/// A value a numeric column cannot hold (a string or a NULL) is remembered,
/// and [`finish`](Self::finish) reports the first one as
/// [`EstimatorError::IncompatibleTypes`].
#[derive(Debug)]
pub struct VariableEncoder<'a>(Encoding<'a>);

#[derive(Debug)]
enum Encoding<'a> {
    Codes(Vec<u32>, HashMap<&'a Value, u32>),
    Coords(Vec<f64>, Option<&'a Value>),
}

impl<'a> VariableEncoder<'a> {
    /// An empty encoder for a column of type `dtype`, pre-sized for
    /// `capacity` values.
    #[must_use]
    pub fn new(dtype: DataType, capacity: usize) -> Self {
        Self(match dtype {
            DataType::Str => Encoding::Codes(Vec::with_capacity(capacity), HashMap::new()),
            DataType::Int | DataType::Float => Encoding::Coords(Vec::with_capacity(capacity), None),
        })
    }

    /// Appends one value.
    pub fn push(&mut self, value: &'a Value) {
        match &mut self.0 {
            Encoding::Codes(codes, seen) => codes.push(code_of(seen, value)),
            Encoding::Coords(coords, first_bad) => match value.as_f64() {
                Some(x) => coords.push(x),
                None => {
                    first_bad.get_or_insert(value);
                }
            },
        }
    }

    /// The encoded sample, or the first value a numeric column could not
    /// hold.
    pub fn finish(self) -> Result<Variable> {
        match self.0 {
            Encoding::Codes(codes, _) => Ok(Variable::Discrete(codes)),
            Encoding::Coords(coords, None) => Ok(Variable::Continuous(coords)),
            Encoding::Coords(_, Some(v)) => Err(EstimatorError::IncompatibleTypes {
                estimator: "variable conversion".to_owned(),
                detail: format!("non-numeric value `{v}` in a numeric column"),
            }),
        }
    }
}

/// Maps arbitrary values to dense integer codes (equal values share a code).
#[must_use]
pub fn discretize(values: &[Value]) -> Vec<u32> {
    first_seen_codes(HashMap::new(), values)
}

/// The one code assigner: equal keys share a code, and codes count up from
/// 0 in order of first appearance, so they never depend on the hasher.
/// Values (strings from outside the program) go through the default,
/// randomly seeded hasher; float bit patterns through the deterministic
/// [`FixedHashMap`], whose worst case is bounded by the sample size.
fn code_of<K: Hash + Eq, S: BuildHasher>(seen: &mut HashMap<K, u32, S>, key: K) -> u32 {
    let next = seen.len() as u32;
    *seen.entry(key).or_insert(next)
}

fn first_seen_codes<K: Hash + Eq, S: BuildHasher>(
    mut seen: HashMap<K, u32, S>,
    keys: impl IntoIterator<Item = K>,
) -> Vec<u32> {
    keys.into_iter()
        .map(|key| code_of(&mut seen, key))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_values(values: &[Value], dtype: DataType) -> Result<Variable> {
        let mut encoder = VariableEncoder::new(dtype, values.len());
        for v in values {
            encoder.push(v);
        }
        encoder.finish()
    }

    #[test]
    fn discretize_assigns_dense_codes() {
        let vals = vec![
            Value::from("a"),
            Value::from("b"),
            Value::from("a"),
            Value::from("c"),
        ];
        assert_eq!(discretize(&vals), vec![0, 1, 0, 2]);
    }

    #[test]
    fn from_values_string_column() {
        let vals = vec![Value::from("x"), Value::from("y"), Value::from("x")];
        let v = from_values(&vals, DataType::Str).unwrap();
        assert!(v.is_discrete());
        assert_eq!(v.len(), 3);
        assert_eq!(v, Variable::Discrete(vec![0, 1, 0]));
    }

    #[test]
    fn from_values_numeric_column() {
        let vals = vec![Value::Int(1), Value::Float(2.5)];
        let v = from_values(&vals, DataType::Float).unwrap();
        assert_eq!(v, Variable::Continuous(vec![1.0, 2.5]));
        assert!(!v.is_discrete());
    }

    #[test]
    fn from_values_rejects_nulls_in_numeric() {
        let vals = vec![Value::Int(1), Value::Null];
        assert!(from_values(&vals, DataType::Int).is_err());
    }

    #[test]
    fn codes_group_numerics_by_bit_pattern() {
        let v = Variable::Continuous(vec![1.5, 1.5, 2.0, 0.0, -0.0, 2.0]);
        assert_eq!(&*v.codes(), &[0, 0, 1, 2, 3, 1]);
        let d = Variable::Discrete(vec![4, 2, 4]);
        assert!(matches!(d.codes(), Cow::Borrowed(&[4, 2, 4])));
    }

    #[test]
    fn as_continuous_widens_codes() {
        let v = Variable::Discrete(vec![0, 2, 1]);
        assert_eq!(&*v.as_continuous(), &[0.0, 2.0, 1.0]);
        let c = Variable::Continuous(vec![0.5, 1.5]);
        assert!(matches!(c.as_continuous(), Cow::Borrowed(_)));
    }

    #[test]
    fn encoder_reports_the_first_non_numeric_value() {
        let vals = [Value::Int(1), Value::from("a"), Value::from("b")];
        let err = from_values(&vals, DataType::Int).unwrap_err();
        match err {
            EstimatorError::IncompatibleTypes { detail, .. } => assert!(detail.contains("`a`")),
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(
            from_values(&[Value::Int(2)], DataType::Int).unwrap().len(),
            1
        );
    }

    #[test]
    fn from_pairs_drops_pairs_with_a_null_side() {
        let xs = [
            Value::Float(1.0),
            Value::Null,
            Value::Float(3.0),
            Value::Float(4.0),
        ];
        let ys = [
            Value::from("a"),
            Value::from("b"),
            Value::Null,
            Value::from("a"),
        ];
        let (x, y) = Variable::from_pairs(&xs, &ys, DataType::Float, DataType::Str).unwrap();
        assert_eq!(x, Variable::Continuous(vec![1.0, 4.0]));
        assert_eq!(y, Variable::Discrete(vec![0, 0]));
    }
}
