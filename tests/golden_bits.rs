//! Golden bits: exact `f64::to_bits` values of the discrete estimators, the
//! sketch-join estimation path and the evaluation modes.
//!
//! Every literal below was produced by the implementation this file was
//! written against. Refactors of the value encoding, the contingency tables
//! or the estimator dispatch must reproduce them exactly: a change in the last
//! float bit is a change in rankings, cache keys and persisted results.

use joinmi::estimators::{mi_posterior, mle_mi, smoothed_mle_mi};
use joinmi::eval::{full_join_estimate, sketch_estimate, EstimatorMode, SketchTrial};
use joinmi::hash::KeyHash;
use joinmi::prelude::*;
use joinmi::sketch::{Side, SketchRow};
use joinmi::synth::decompose;

/// Collects `(name, actual bits, expected bits)` and reports every mismatch
/// at once, so a failing run prints the full table of actual values.
#[derive(Default)]
struct Pins(Vec<(String, u64, u64)>);

impl Pins {
    fn pin(&mut self, name: impl Into<String>, actual: f64, expected: u64) {
        self.pin_bits(name, actual.to_bits(), expected);
    }

    fn pin_bits(&mut self, name: impl Into<String>, actual: u64, expected: u64) {
        self.0.push((name.into(), actual, expected));
    }

    fn check(self) {
        let bad: Vec<String> = self
            .0
            .iter()
            .filter(|(_, actual, expected)| actual != expected)
            .map(|(name, actual, expected)| {
                format!("{name}: actual {actual:#018x}, expected {expected:#018x}")
            })
            .collect();
        assert!(bad.is_empty(), "golden bits moved:\n{}", bad.join("\n"));
    }
}

/// A small deterministic LCG, so the inputs do not depend on any generator
/// implementation outside this file.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, modulus: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % modulus
    }
}

fn dependent_codes(n: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = Lcg(seed);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let x = rng.next(7) as u32;
        // Mostly a function of x, sometimes noise: a table with empty cells.
        let y = if rng.next(4) == 0 {
            rng.next(5) as u32
        } else {
            (x * 3) % 5
        };
        xs.push(x);
        ys.push(y);
    }
    (xs, ys)
}

#[test]
fn discrete_estimators_are_pinned() {
    let (x, y) = dependent_codes(400, 17);
    let mut pins = Pins::default();
    pins.pin("mle_mi", mle_mi(&x, &y).unwrap(), 0x3feb281228514021);
    pins.pin(
        "smoothed_mle_mi(1)",
        smoothed_mle_mi(&x, &y, 1.0).unwrap(),
        0x3fe6bb76936a139b,
    );
    let post = mi_posterior(&x, &y).unwrap();
    pins.pin("mi_posterior.mean", post.mean, 0x3febf69d759cef4c);
    pins.pin("mi_posterior.variance", post.variance, 0x3f65e2d750e66ad7);

    // Sparse codes (gaps in the code space) and a skewed table.
    let (x, y) = dependent_codes(97, 5);
    let x: Vec<u32> = x.iter().map(|&c| c * 11 + 3).collect();
    pins.pin("mle_mi sparse", mle_mi(&x, &y).unwrap(), 0x3fea7eecb271ec7f);
    pins.pin(
        "smoothed_mle_mi(1) sparse",
        smoothed_mle_mi(&x, &y, 1.0).unwrap(),
        0x3fdb25b6b1c650d6,
    );
    let post = mi_posterior(&x, &y).unwrap();
    pins.pin("mi_posterior.mean sparse", post.mean, 0x3fec453ce6a47971);
    pins.pin(
        "mi_posterior.variance sparse",
        post.variance,
        0x3f7e9885b05eebab,
    );
    pins.check();
}

fn sketch(side: Side, dtype: DataType, rows: Vec<(u64, Value)>) -> ColumnSketch {
    ColumnSketch::new(
        SketchKind::Tupsk,
        side,
        rows.into_iter()
            .map(|(k, v)| SketchRow::new(KeyHash(k), v))
            .collect(),
        dtype,
        1000,
        300,
        SketchConfig::default(),
    )
}

/// Left (target) rows repeat keys and carry NULLs; right (feature) rows are
/// unique per key with a few NULLs, so the join exercises many-to-one
/// matches and pairwise NULL filtering.
fn joined(
    y_dtype: DataType,
    y_value: impl Fn(u64, &mut Lcg) -> Value,
    x_dtype: DataType,
    x_value: impl Fn(u64, &mut Lcg) -> Value,
) -> JoinedSketch {
    let mut rng = Lcg(99);
    let mut left = Vec::new();
    for i in 0..360u64 {
        let key = i % 300;
        let value = if i % 37 == 0 {
            Value::Null
        } else {
            y_value(key, &mut rng)
        };
        left.push((key, value));
    }
    let mut right = Vec::new();
    for key in 20..320u64 {
        let value = if key % 41 == 0 {
            Value::Null
        } else {
            x_value(key, &mut rng)
        };
        right.push((key, value));
    }
    sketch(Side::Left, y_dtype, left).join(&sketch(Side::Right, x_dtype, right))
}

fn pin_join(pins: &mut Pins, name: &str, joined: &JoinedSketch, expected: [u64; 4]) {
    let mut ws = EstimatorWorkspace::new();
    let point = joined.estimate_mi_in(&mut ws, 3).unwrap();
    let (est, iv) = joined.estimate_mi_interval_in(&mut ws, 3, 0.95).unwrap();
    assert_eq!(point.mi.to_bits(), est.mi.to_bits());
    pins.pin(format!("{name} mi"), point.mi, expected[0]);
    pins.pin(format!("{name} variance"), iv.variance, expected[1]);
    pins.pin(format!("{name} ci_lo"), iv.ci_lo, expected[2]);
    pins.pin(format!("{name} ci_hi"), iv.ci_hi, expected[3]);
}

#[test]
fn sketch_join_estimates_are_pinned() {
    let mut pins = Pins::default();

    // String / string: repeated categories on both sides → MLE.
    let strings = joined(
        DataType::Str,
        |k, rng| Value::from(format!("tag{}", (k + rng.next(2)) % 6)),
        DataType::Str,
        |k, _| Value::from(format!("cat-{}", (k * 7) % 9)),
    );
    let est = strings.estimate_mi().unwrap();
    assert_eq!(est.estimator, EstimatorKind::Mle);
    assert_eq!(est.n, strings.len());
    pin_join(
        &mut pins,
        "str/str",
        &strings,
        [
            0x3fdc30f0f4fbdaac,
            0x3f2ba10274fc5a2f,
            0x3fdc30f0f4fbdaac,
            0x3fe02139d24c5eea,
        ],
    );

    // Numeric / numeric with heavy ties and mixed Int/Float → Mixed-KSG.
    let numbers = joined(
        DataType::Int,
        |k, rng| Value::Int((k % 13) as i64 + rng.next(3) as i64),
        DataType::Float,
        |k, rng| Value::Float((k % 11) as f64 * 0.5 + rng.next(4) as f64 * 0.25),
    );
    assert_eq!(
        numbers.estimate_mi().unwrap().estimator,
        EstimatorKind::MixedKsg
    );
    pin_join(
        &mut pins,
        "num/num",
        &numbers,
        [
            0x3fd8640c8fcc293d,
            0x3f4e12aa074d9d20,
            0x3fd8640c8fcc293d,
            0x3fecd607984b3a48,
        ],
    );

    // String feature / numeric target → DC-KSG.
    let mixed = joined(
        DataType::Float,
        |k, rng| Value::Float((k % 5) as f64 + rng.next(100) as f64 / 64.0),
        DataType::Str,
        |k, _| Value::from(format!("zone{}", k % 5)),
    );
    assert_eq!(mixed.estimate_mi().unwrap().estimator, EstimatorKind::DcKsg);
    pin_join(
        &mut pins,
        "str/num",
        &mixed,
        [
            0x3ff77d56e8998ad2,
            0x3f349b32965271ca,
            0x3ff715d02ce0e993,
            0x3ff832850d1c8441,
        ],
    );

    // Numeric feature / string target → DC-KSG with the sides swapped.
    let swapped = joined(
        DataType::Str,
        |k, _| Value::from(format!("zone{}", k % 4)),
        DataType::Int,
        |k, rng| Value::Int((k % 4) as i64 * 1000 + rng.next(1500) as i64),
    );
    pin_join(
        &mut pins,
        "num/str",
        &swapped,
        [
            0x3ff1579203bd03b9,
            0x3f03949eae63c5e5,
            0x3ff1579203bd03b9,
            0x3ff61b5cc80f4c95,
        ],
    );

    // Explicit estimator overrides on the same samples.
    pins.pin(
        "str/str smoothed",
        strings
            .estimate_mi_with(EstimatorKind::SmoothedMle, 3)
            .unwrap()
            .mi,
        0x3fd11adae7d935c5,
    );
    pins.pin(
        "num/num forced MLE",
        numbers.estimate_mi_with(EstimatorKind::Mle, 3).unwrap().mi,
        0x3fe3beca71c793e8,
    );
    pins.pin(
        "num/num KSG",
        numbers.estimate_mi_with(EstimatorKind::Ksg, 3).unwrap().mi,
        0x3fda594dcd877a80,
    );
    pins.check();
}

#[test]
fn evaluation_modes_are_pinned_on_a_trinomial_pair() {
    let data = TrinomialConfig::new(16, 0.4, 0.35).generate(2000, 3);
    let pair = decompose(&data.xs, &data.ys, KeyDistribution::KeyInd);
    let mut pins = Pins::default();
    let expected_full = [0x3fd0c0adf9ad7fa2, 0x3fd004386b871007, 0x3fc0d669425bd580];
    let expected_sketch = [0x3fd69721d875e960, 0x3fd3f8a7ac25345e, 0x3fbd3b3fb6f1e5c0];
    for (i, mode) in EstimatorMode::TRINOMIAL.into_iter().enumerate() {
        let full = full_join_estimate(&data.xs, &data.ys, mode, 7).unwrap();
        pins.pin(format!("full {}", mode.name()), full, expected_full[i]);
        let trial = SketchTrial {
            kind: SketchKind::Tupsk,
            config: SketchConfig::new(256, 5),
            mode,
        };
        let outcome = sketch_estimate(&pair, &trial).unwrap();
        pins.pin(
            format!("sketch {}", mode.name()),
            outcome.estimate,
            expected_sketch[i],
        );
    }
    pins.check();
}

/// Folds a ranking (order, estimates, estimators, join sizes and intervals)
/// into one FNV-1a digest, so a whole discovery answer pins to one literal.
fn ranking_digest(ranking: &[joinmi::discovery::RankedCandidate]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in ranking {
        eat(c.candidate_index as u64);
        eat(c.mi.to_bits());
        eat(c.estimator.name().len() as u64);
        eat(c.sketch_join_size as u64);
        if let Some(iv) = c.interval {
            eat(iv.variance.to_bits());
            eat(iv.ci_lo.to_bits());
            eat(iv.ci_hi.to_bits());
        }
    }
    h
}

#[test]
fn discovery_rankings_are_pinned() {
    let scenario = joinmi::synth::TaxiScenario::generate(60, 20, 9);
    let config = joinmi::discovery::RepositoryConfig {
        sketch: SketchConfig::new(512, 3),
        ..joinmi::discovery::RepositoryConfig::default()
    };
    let mut repo = TableRepository::new(config);
    repo.add_tables(vec![
        scenario.weather.clone(),
        scenario.demographics.clone(),
        scenario.inspections.clone(),
    ])
    .unwrap();
    let query = RelationshipQuery::new(scenario.taxi.clone(), "zipcode", "num_trips")
        .with_sketch(SketchKind::Tupsk, SketchConfig::new(512, 3))
        .with_min_join_size(10)
        .with_top_k(0);
    let point = query.clone().execute(&repo).unwrap();
    let interval = query.with_confidence(0.95).execute(&repo).unwrap();
    assert_eq!(point.len(), 3);
    assert_eq!(point.len(), interval.len());

    let mut pins = Pins::default();
    pins.pin_bits("point ranking", ranking_digest(&point), 0xf987813326568b7b);
    pins.pin_bits(
        "interval ranking",
        ranking_digest(&interval),
        0x0827a3e7a1a17bcd,
    );
    pins.check();
}

#[test]
fn corpus_rankings_are_pinned() {
    let repo = joinmi_bench::corpus::build_repository(600);
    let query = joinmi_bench::corpus::standard_query(600);
    let point = query.clone().execute(&repo).unwrap();
    let interval = query.with_confidence(0.95).execute(&repo).unwrap();
    assert!(point.len() >= 50, "{}", point.len());
    assert_eq!(point.len(), interval.len());

    let mut pins = Pins::default();
    pins.pin_bits(
        "corpus point ranking",
        ranking_digest(&point),
        0x7b44d8ea0b72fe33,
    );
    pins.pin_bits(
        "corpus interval ranking",
        ranking_digest(&interval),
        0x6c1657272d101699,
    );
    pins.check();
}
