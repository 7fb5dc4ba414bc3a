//! Exact asymptotic variance and mixing-time bounds for order-1 chains.

use osn_estimate::metrics::total_variation;

use super::kernel::TransitionKernel;
use super::linalg::solve_dense;

/// Exact asymptotic variance (paper Definition 3) of the ergodic-average
/// estimator of `f` under an order-1 chain with kernel `p` and stationary
/// distribution `pi`:
///
/// `V∞ = lim n·Var(µ̂_n) = Var_π(f) + 2 Σ_{t≥1} Cov_π(f(X_0), f(X_t))`
///
/// computed via the fundamental matrix `Z = (I - P + 1π)^{-1}` as
/// `V∞ = 2 f̃ᵀ Π Z f̃ - f̃ᵀ Π f̃` with `f̃ = f - π(f)`.
///
/// # Panics
/// Panics on dimension mismatches or a singular system (reducible chain).
pub fn asymptotic_variance(p: &TransitionKernel, pi: &[f64], f: &[f64]) -> f64 {
    let n = p.len();
    assert_eq!(pi.len(), n);
    assert_eq!(f.len(), n);

    let mean: f64 = pi.iter().zip(f).map(|(&w, &x)| w * x).sum();
    let centered: Vec<f64> = f.iter().map(|&x| x - mean).collect();

    // Assemble A = I - P + 1π (row-major).
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let identity = if i == j { 1.0 } else { 0.0 };
            a[i * n + j] = identity - p.prob(i, j) + pi[j];
        }
    }
    // Solve A z = f̃  =>  z = Z f̃.
    let z = solve_dense(a, centered.clone());

    let var: f64 = pi.iter().zip(&centered).map(|(&w, &x)| w * x * x).sum();
    let cross: f64 = pi
        .iter()
        .zip(&centered)
        .zip(&z)
        .map(|((&w, &x), &zx)| w * x * zx)
        .sum();
    2.0 * cross - var
}

/// Smallest `t` such that the worst-case (over deterministic starts) total
/// variation distance to `pi` drops below `eps`; returns `None` if not
/// reached within `max_t` steps.
///
/// This is the "burn-in period" quantity the paper's introduction talks
/// about, computed exactly for small graphs.
pub fn mixing_time_upper(
    p: &TransitionKernel,
    pi: &[f64],
    eps: f64,
    max_t: usize,
) -> Option<usize> {
    let n = p.len();
    // Evolve all n point-mass rows together: dist[i] is the t-step
    // distribution starting from i.
    let mut dists: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut d = vec![0.0; n];
            d[i] = 1.0;
            d
        })
        .collect();
    for t in 0..=max_t {
        let worst = dists
            .iter()
            .map(|d| total_variation(d, pi))
            .fold(0.0f64, f64::max);
        if worst < eps {
            return Some(t);
        }
        for d in &mut dists {
            *d = p.evolve(d);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::generators::{barbell, erdos_renyi};
    use osn_graph::GraphBuilder;

    #[test]
    fn iid_chain_variance_equals_population_variance() {
        // A kernel whose every row is pi produces i.i.d. samples, so the
        // asymptotic variance equals Var_pi(f).
        let pi = vec![0.25, 0.25, 0.5];
        let p =
            TransitionKernel::from_rows(3, vec![0.25, 0.25, 0.5, 0.25, 0.25, 0.5, 0.25, 0.25, 0.5]);
        let f = vec![1.0, 2.0, 4.0];
        let mean = 0.25 + 0.5 + 2.0;
        let var: f64 = pi
            .iter()
            .zip(&f)
            .map(|(&w, &x)| w * (x - mean) * (x - mean))
            .sum();
        let v = asymptotic_variance(&p, &pi, &f);
        assert!((v - var).abs() < 1e-9, "{v} vs {var}");
    }

    #[test]
    fn barbell_srw_variance_is_huge() {
        // The bottleneck makes the indicator of "left bell" mix terribly:
        // asymptotic variance far above the i.i.d. value (~0.25).
        let g = barbell(6, 6).unwrap();
        let k = TransitionKernel::srw(&g);
        let pi = g.degree_stationary_distribution();
        let f: Vec<f64> = (0..12).map(|i| if i < 6 { 1.0 } else { 0.0 }).collect();
        let v = asymptotic_variance(&k, &pi, &f);
        assert!(v > 5.0, "barbell variance {v} unexpectedly small");
    }

    #[test]
    fn well_connected_graph_has_modest_variance() {
        let g = erdos_renyi(30, 0.4, 1).unwrap();
        let k = TransitionKernel::srw(&g);
        let pi = g.degree_stationary_distribution();
        let f: Vec<f64> = (0..30).map(|i| (i % 2) as f64).collect();
        let v = asymptotic_variance(&k, &pi, &f);
        assert!(v < 2.0, "variance {v}");
        assert!(v > 0.0);
    }

    #[test]
    fn constant_function_has_zero_variance() {
        let g = barbell(4, 4).unwrap();
        let k = TransitionKernel::srw(&g);
        let pi = g.degree_stationary_distribution();
        let f = vec![3.0; 8];
        let v = asymptotic_variance(&k, &pi, &f);
        assert!(v.abs() < 1e-9, "constant f should give 0, got {v}");
    }

    #[test]
    fn mixing_time_monotone_in_conductance() {
        // A clique mixes almost immediately; a barbell of the same size does
        // not.
        let clique = {
            let mut b = GraphBuilder::new();
            for i in 0..12u32 {
                for j in (i + 1)..12 {
                    b.push_edge(i, j);
                }
            }
            b.build().unwrap()
        };
        let bar = barbell(6, 6).unwrap();
        let kc = TransitionKernel::srw(&clique);
        let kb = TransitionKernel::srw(&bar);
        let tc =
            mixing_time_upper(&kc, &clique.degree_stationary_distribution(), 0.01, 10_000).unwrap();
        let tb =
            mixing_time_upper(&kb, &bar.degree_stationary_distribution(), 0.01, 10_000).unwrap();
        assert!(tb > 5 * tc, "barbell {tb} vs clique {tc}");
    }

    #[test]
    fn mixing_time_none_when_budget_too_small() {
        let bar = barbell(10, 10).unwrap();
        let k = TransitionKernel::srw(&bar);
        let pi = bar.degree_stationary_distribution();
        assert_eq!(mixing_time_upper(&k, &pi, 1e-6, 1), None);
    }
}
