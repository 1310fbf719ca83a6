//! Ablations for the design choices called out in DESIGN.md:
//!
//! * **Sketch-size sweep** — how the estimation error of TUPSK vs LV2SK
//!   shrinks as the budget `n` grows (the near-√n error decay discussed in
//!   Section IV-B "Accuracy Guarantees").
//! * **Coordination** — sketch-join size of coordinated (TUPSK) vs
//!   independent (INDSK) sampling as the table grows (the quadratic join
//!   shrinkage of §IV).
//! * **Aggregation choice** — how the featurization function changes the MI
//!   of the derived feature (Section III-B discussion).

use std::collections::BTreeMap;

use joinmi_sketch::{SketchConfig, SketchKind};
use joinmi_synth::{decompose, KeyDistribution, TrinomialConfig};
use joinmi_table::{augment, Aggregation, AugmentSpec, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::mse;
use crate::pipeline::{
    full_join_estimate, sketch_estimate, sketch_join_size, EstimatorMode, SketchTrial,
};
use crate::report::{f2, TableReport};

/// Configuration of the ablation experiments.
#[derive(Debug, Clone)]
pub struct Config {
    /// Sketch sizes swept.
    pub sketch_sizes: Vec<usize>,
    /// Table sizes for the coordination ablation.
    pub table_sizes: Vec<usize>,
    /// Rows for the sketch-size sweep.
    pub rows: usize,
    /// Trials per configuration.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            sketch_sizes: vec![64, 128, 256, 512, 1024],
            table_sizes: vec![2_000, 8_000, 32_000],
            rows: 10_000,
            trials: 12,
            seed: 47,
        }
    }
}

impl Config {
    /// Fast configuration for tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            sketch_sizes: vec![64, 256],
            table_sizes: vec![1_000, 4_000],
            rows: 3_000,
            trials: 3,
            seed: 47,
        }
    }
}

/// Sketch-size sweep: MSE of the MLE estimate per (sketch, n).
#[must_use]
pub fn sketch_size_sweep(cfg: &Config) -> BTreeMap<(String, usize), f64> {
    let mut pairs: BTreeMap<(String, usize), Vec<(f64, f64)>> = BTreeMap::new();
    for t in 0..cfg.trials {
        let seed = cfg.seed.wrapping_add(t as u64);
        let gen = TrinomialConfig::with_random_target(256, 3.5, seed);
        let data = gen.generate(cfg.rows, seed.wrapping_add(7));
        let pair = decompose(&data.xs, &data.ys, KeyDistribution::KeyDep);
        for kind in [SketchKind::Lv2sk, SketchKind::Tupsk] {
            for &n in &cfg.sketch_sizes {
                let trial = SketchTrial {
                    kind,
                    config: SketchConfig::new(n, seed),
                    mode: EstimatorMode::Mle,
                };
                if let Some(outcome) = sketch_estimate(&pair, &trial) {
                    pairs
                        .entry((kind.name().to_owned(), n))
                        .or_default()
                        .push((data.true_mi, outcome.estimate));
                }
            }
        }
    }
    pairs
        .into_iter()
        .map(|(key, series)| {
            let truth: Vec<f64> = series.iter().map(|p| p.0).collect();
            let est: Vec<f64> = series.iter().map(|p| p.1).collect();
            (key, mse(&truth, &est))
        })
        .collect()
}

/// Coordination ablation: average sketch-join size of TUPSK vs INDSK as the
/// table grows (sketch size fixed at 256).
#[must_use]
pub fn coordination_sweep(cfg: &Config) -> BTreeMap<(String, usize), f64> {
    let mut out = BTreeMap::new();
    for &rows in &cfg.table_sizes {
        let gen = TrinomialConfig::new(256, 0.4, 0.35);
        let data = gen.generate(rows, cfg.seed);
        let pair = decompose(&data.xs, &data.ys, KeyDistribution::KeyInd);
        for kind in [SketchKind::Tupsk, SketchKind::Indsk] {
            let mut sizes = Vec::new();
            for t in 0..cfg.trials {
                let config = SketchConfig::new(256, cfg.seed.wrapping_add(t as u64));
                if let Some(size) = sketch_join_size(&pair, kind, &config) {
                    sizes.push(size as f64);
                }
            }
            let avg = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
            out.insert((kind.name().to_owned(), rows), avg);
        }
    }
    out
}

/// Aggregation-choice ablation: MI of the derived feature against the target
/// for AVG / MODE / COUNT / MAX on a many-to-many candidate.
#[must_use]
pub fn aggregation_choice(cfg: &Config) -> BTreeMap<String, f64> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Build a candidate table where each key has several readings whose mean
    // carries the signal (so AVG is informative, COUNT is not).
    let n_keys = 400usize;
    let mut train_keys = Vec::new();
    let mut targets = Vec::new();
    let mut cand_keys = Vec::new();
    let mut cand_values = Vec::new();
    for k in 0..n_keys {
        let signal: f64 = rng.gen::<f64>() * 10.0;
        train_keys.push(k as i64);
        targets.push((signal * 3.0 + rng.gen::<f64>()).round() as i64);
        let readings = rng.gen_range(2..8);
        for _ in 0..readings {
            cand_keys.push(k as i64);
            cand_values.push(signal + rng.gen::<f64>() - 0.5);
        }
    }
    let train = Table::builder("train")
        .push_int_column("key", train_keys)
        .push_int_column("y", targets)
        .build()
        .expect("aligned columns");
    let cand = Table::builder("cand")
        .push_int_column("key", cand_keys)
        .push_float_column("z", cand_values)
        .build()
        .expect("aligned columns");

    let mut out = BTreeMap::new();
    for agg in [
        Aggregation::Avg,
        Aggregation::Median,
        Aggregation::Count,
        Aggregation::Max,
    ] {
        let spec = AugmentSpec::new("key", "y", "key", "z", agg);
        let joined = augment(&train, &cand, &spec).expect("augmentation join");
        let feature_col = spec.feature_column_name();
        let xs: Vec<_> = (0..joined.table.num_rows())
            .map(|i| joined.table.value(i, &feature_col).expect("column"))
            .collect();
        let ys: Vec<_> = (0..joined.table.num_rows())
            .map(|i| joined.table.value(i, "y").expect("column"))
            .collect();
        if let Some(mi) = full_join_estimate(&xs, &ys, EstimatorMode::MixedKsg, cfg.seed) {
            out.insert(agg.name().to_owned(), mi);
        }
    }
    out
}

/// Renders all three ablations as one report each.
#[must_use]
pub fn report(cfg: &Config) -> Vec<TableReport> {
    let mut reports = Vec::new();

    let sweep = sketch_size_sweep(cfg);
    let mut t1 = TableReport::new(
        "Ablation: MSE vs sketch size (Trinomial m=256, KeyDep, MLE)",
        &["Sketch", "n", "MSE"],
    );
    for ((sketch, n), value) in &sweep {
        t1.push_row(vec![sketch.clone(), n.to_string(), f2(*value)]);
    }
    reports.push(t1);

    let coord = coordination_sweep(cfg);
    let mut t2 = TableReport::new(
        "Ablation: sketch-join size vs table size (n=256)",
        &["Sketch", "Rows", "Avg. Join Size"],
    );
    for ((sketch, rows), value) in &coord {
        t2.push_row(vec![
            sketch.clone(),
            rows.to_string(),
            format!("{value:.1}"),
        ]);
    }
    reports.push(t2);

    let aggs = aggregation_choice(cfg);
    let mut t3 = TableReport::new(
        "Ablation: MI of the derived feature per aggregation function",
        &["Aggregation", "MI (MixedKSG)"],
    );
    for (agg, mi) in &aggs {
        t3.push_row(vec![agg.clone(), f2(*mi)]);
    }
    reports.push(t3);

    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_sketches_reduce_error() {
        let cfg = Config::quick();
        let sweep = sketch_size_sweep(&cfg);
        let small = sweep[&("TUPSK".to_owned(), 64)];
        let large = sweep[&("TUPSK".to_owned(), 256)];
        assert!(
            large <= small * 1.5,
            "MSE should not grow with n: {small} -> {large}"
        );
    }

    #[test]
    fn coordination_keeps_join_size_while_independent_shrinks() {
        let cfg = Config::quick();
        let coord = coordination_sweep(&cfg);
        let tup_large = coord[&("TUPSK".to_owned(), 4_000)];
        let ind_large = coord[&("INDSK".to_owned(), 4_000)];
        assert!(
            tup_large > ind_large,
            "TUPSK {tup_large} vs INDSK {ind_large}"
        );
    }

    #[test]
    fn avg_beats_count_when_the_signal_is_in_the_mean() {
        let cfg = Config::quick();
        let aggs = aggregation_choice(&cfg);
        assert!(aggs["AVG"] > aggs["COUNT"], "{aggs:?}");
    }

    #[test]
    fn reports_render() {
        let reports = report(&Config::quick());
        assert_eq!(reports.len(), 3);
        for r in reports {
            assert!(!r.is_empty());
        }
    }
}
