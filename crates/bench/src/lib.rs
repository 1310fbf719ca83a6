//! Shared data-generation helpers for the criterion benchmarks.
//!
//! Every bench uses the same deterministic workloads so results are
//! comparable run-to-run: a Trinomial-derived pair of joinable tables (the
//! synthetic benchmark of the paper) at several sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use joinmi_eval::EstimatorMode;
use joinmi_sketch::JoinedSketch;
use joinmi_synth::{decompose, DecomposedPair, KeyDistribution, TrinomialConfig};
use joinmi_table::Value;

pub mod corpus;
pub mod quickjson;

/// A benchmark workload: the generated pairs plus the decomposed tables.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Feature values of the (virtual) join result.
    pub xs: Vec<Value>,
    /// Target values of the (virtual) join result.
    pub ys: Vec<Value>,
    /// The decomposed joinable tables.
    pub pair: DecomposedPair,
    /// The analytic MI of the generating distribution.
    pub true_mi: f64,
}

/// Builds a workload with `rows` rows, Trinomial(m = 256), under the given
/// key regime.
#[must_use]
pub fn trinomial_workload(rows: usize, key_dist: KeyDistribution, seed: u64) -> Workload {
    let gen = TrinomialConfig::new(256, 0.4, 0.35);
    let data = gen.generate(rows, seed);
    let pair = decompose(&data.xs, &data.ys, key_dist);
    Workload {
        xs: data.xs,
        ys: data.ys,
        pair,
        true_mi: data.true_mi,
    }
}

/// The plug-in MLE of a sketch join's recovered sample, as the §V-D
/// full-versus-sketch comparison times it.
#[must_use]
pub fn mle_on_join(joined: &JoinedSketch) -> Option<f64> {
    let (x, y) = joined.sample().ok()?;
    EstimatorMode::Mle.estimate(x, y, 0)
}

/// The table sizes used by the §V-D performance comparison.
pub const PERF_SIZES: [usize; 3] = [5_000, 10_000, 20_000];

/// The deterministic correlated coordinate pair used by every k-NN kernel
/// bench (quick-bench `knn/*` targets and the criterion `knn` group must
/// measure the *same* workload for their medians to be comparable):
/// `x ~ U[0, 1)` from a fixed LCG, `y = x + 0.25·u`. The correlation keeps
/// the window expansion honest — on independent coordinates the x-prune
/// terminates after a handful of candidates and the kernel is all setup cost.
#[must_use]
pub fn knn_correlated_pair(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut state = 0x9e37_79b9_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ((state >> 33) as f64) / f64::from(u32::MAX)
    };
    let xs: Vec<f64> = (0..n).map(|_| next()).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| x + 0.25 * next()).collect();
    (xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes() {
        let w = trinomial_workload(500, KeyDistribution::KeyInd, 1);
        assert_eq!(w.xs.len(), 500);
        assert_eq!(w.pair.train.num_rows(), 500);
        assert!(w.true_mi > 0.0);
    }
}
