//! Sampling-bias metrics (paper §2.3 and §6.1).

use osn_graph::NodeId;

/// Kullback–Leibler divergence `D(P‖Q) = Σ P(i) ln(P(i)/Q(i))`.
///
/// Zero-probability entries of `P` contribute nothing; zero-probability
/// entries of `Q` where `P > 0` make the divergence infinite — callers
/// comparing an *empirical* distribution against a dense target should apply
/// smoothing first (see [`EmpiricalDistribution::probabilities_smoothed`]).
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    let mut sum = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi <= 0.0 {
            continue;
        }
        if qi <= 0.0 {
            return f64::INFINITY;
        }
        sum += pi * (pi / qi).ln();
    }
    sum
}

/// The paper's symmetric KL measure: `D(P‖Q) + D(Q‖P)` (Eq. 49 context).
pub fn symmetric_kl(p: &[f64], q: &[f64]) -> f64 {
    kl_divergence(p, q) + kl_divergence(q, p)
}

/// Euclidean (`ℓ2`) distance between distribution vectors, `‖P − Q‖₂`.
pub fn l2_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    p.iter()
        .zip(q)
        .map(|(&a, &b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Total variation distance `½ Σ |P(i) − Q(i)|`.
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    0.5 * p.iter().zip(q).map(|(&a, &b)| (a - b).abs()).sum::<f64>()
}

/// Relative error `|estimate − truth| / |truth|` — the paper's "golden
/// measure" for large graphs where the sampling distribution itself is
/// infeasible to estimate.
///
/// Returns `NaN` for a zero ground truth (define the aggregate differently
/// in that case).
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        return f64::NAN;
    }
    (estimate - truth).abs() / truth.abs()
}

/// Visit-count accumulator estimating the actual sampling distribution of a
/// walker, as in the paper's Figure 8 (100 runs × 10,000 steps, counts per
/// node).
#[derive(Clone, Debug)]
pub struct EmpiricalDistribution {
    counts: Vec<u64>,
    total: u64,
}

impl EmpiricalDistribution {
    /// New accumulator over `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        EmpiricalDistribution {
            counts: vec![0; node_count],
            total: 0,
        }
    }

    /// Record one visit.
    pub fn record(&mut self, v: NodeId) {
        self.counts[v.index()] += 1;
        self.total += 1;
    }

    /// Record every node of a trace.
    pub fn record_all<'a, I: IntoIterator<Item = &'a NodeId>>(&mut self, nodes: I) {
        for &v in nodes {
            self.record(v);
        }
    }

    /// Total recorded visits.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw per-node counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Maximum-likelihood probabilities (`count / total`). All-zero when
    /// nothing has been recorded.
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Additively smoothed probabilities,
    /// `(count + alpha) / (total + alpha · n)` — keeps KL finite when some
    /// nodes were never visited. `alpha = 0.5` (Jeffreys) is a sound default.
    pub fn probabilities_smoothed(&self, alpha: f64) -> Vec<f64> {
        let n = self.counts.len() as f64;
        let denom = self.total as f64 + alpha * n;
        self.counts
            .iter()
            .map(|&c| (c as f64 + alpha) / denom)
            .collect()
    }

    /// Merge another accumulator (e.g. from a parallel trial).
    ///
    /// # Panics
    /// Panics if the node counts differ.
    pub fn merge(&mut self, other: &EmpiricalDistribution) {
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kl_of_identical_is_zero() {
        let p = [0.25, 0.25, 0.5];
        assert_eq!(kl_divergence(&p, &p), 0.0);
        assert_eq!(symmetric_kl(&p, &p), 0.0);
    }

    #[test]
    fn kl_known_value() {
        // D([1,0] || [0.5,0.5]) = ln 2
        let v = kl_divergence(&[1.0, 0.0], &[0.5, 0.5]);
        assert!((v - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn kl_infinite_on_unsupported_mass() {
        assert_eq!(kl_divergence(&[0.5, 0.5], &[1.0, 0.0]), f64::INFINITY);
    }

    #[test]
    fn symmetric_kl_is_symmetric() {
        let p = [0.7, 0.2, 0.1];
        let q = [0.3, 0.3, 0.4];
        assert!((symmetric_kl(&p, &q) - symmetric_kl(&q, &p)).abs() < 1e-15);
        assert!(symmetric_kl(&p, &q) > 0.0);
    }

    #[test]
    fn l2_and_tv_basics() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert!((l2_distance(&p, &q) - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(total_variation(&p, &q), 1.0);
        assert_eq!(total_variation(&p, &p), 0.0);
        assert!((total_variation(&[0.5, 0.5], &[0.25, 0.75]) - 0.25).abs() < 1e-12);
        assert_eq!(l2_distance(&p, &p), 0.0);
    }

    #[test]
    fn relative_error_basics() {
        assert!((relative_error(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(9.0, 10.0) - 0.1).abs() < 1e-12);
        assert!(relative_error(1.0, 0.0).is_nan());
        assert!((relative_error(-5.0, -10.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empirical_distribution_accumulates() {
        let mut d = EmpiricalDistribution::new(3);
        d.record(NodeId(0));
        d.record(NodeId(0));
        d.record(NodeId(2));
        assert_eq!(d.total(), 3);
        assert_eq!(d.counts(), &[2, 0, 1]);
        let p = d.probabilities();
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p[1], 0.0);
    }

    #[test]
    fn smoothing_keeps_kl_finite() {
        let mut d = EmpiricalDistribution::new(4);
        d.record_all(&[NodeId(0), NodeId(1)]);
        let target = [0.25; 4];
        assert_eq!(kl_divergence(&target, &d.probabilities()), f64::INFINITY);
        let smoothed = d.probabilities_smoothed(0.5);
        assert!(kl_divergence(&target, &smoothed).is_finite());
        assert!((smoothed.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = EmpiricalDistribution::new(2);
        a.record(NodeId(0));
        let mut b = EmpiricalDistribution::new(2);
        b.record(NodeId(1));
        b.record(NodeId(1));
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 2]);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn empty_distribution_probabilities_are_zero() {
        let d = EmpiricalDistribution::new(2);
        assert_eq!(d.probabilities(), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn kl_length_mismatch_panics() {
        let _ = kl_divergence(&[1.0], &[0.5, 0.5]);
    }
}
