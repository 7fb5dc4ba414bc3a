//! Theorem 3 — barbell escape analysis.
//!
//! The theorem bounds the *conditional transition probability* of crossing
//! the bridge under CNRW (with circulation history distributed as in steady
//! operation) at `(|G1|/(|G1|-1)) · ln|G1|` times SRW's `1/|G1|`. The
//! long-run crossing *rate* is identical for both walks (they share the
//! stationary distribution), so the measurable consequences are transient:
//!
//! * the **mean first-escape time** from a cold start inside one bell, and
//! * the **escape probability within a fixed step budget**.
//!
//! This module measures both, plus the theorem's analytical bound for
//! reference.

use std::sync::Arc;

use osn_datasets::barbell_graph_sized;
use osn_graph::NodeId;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::algorithms::Algorithm;
use crate::output::{ExperimentResult, Series};
use crate::runner::{parallel_map, trial_seed};

/// Configuration for the Theorem 3 validation.
#[derive(Clone, Debug)]
pub struct Theorem3Config {
    /// Bell sizes `|G1| = |G2|` to sweep.
    pub bell_sizes: Vec<usize>,
    /// Trials per (algorithm, size).
    pub trials: usize,
    /// Step cap per trial (escape virtually always happens well before).
    pub step_cap: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for Theorem3Config {
    fn default() -> Self {
        Theorem3Config {
            bell_sizes: vec![10, 15, 20, 25, 30],
            trials: 800,
            step_cap: 200_000,
            seed: 0x73,
            threads: crate::runner::default_threads(),
        }
    }
}

impl Theorem3Config {
    /// Reduced profile for CI and quick runs.
    pub fn quick() -> Self {
        Theorem3Config {
            bell_sizes: vec![8, 12],
            trials: 200,
            step_cap: 50_000,
            seed: 0x73,
            threads: crate::runner::default_threads(),
        }
    }
}

/// Mean first-escape time (steps until the walk first reaches the right
/// bell, starting from node 0 in the left bell).
fn mean_escape_time(
    network: &Arc<osn_graph::attributes::AttributedGraph>,
    algorithm: &Algorithm,
    bell: usize,
    config: &Theorem3Config,
) -> f64 {
    let total: usize = parallel_map(config.trials, config.threads, |t| {
        let mut client = osn_client::SimulatedOsn::new_shared(network.clone());
        let mut rng = ChaCha12Rng::seed_from_u64(trial_seed(config.seed ^ bell as u64, t as u64));
        let mut walker = algorithm.make(NodeId(0));
        for s in 1..=config.step_cap {
            let v = walker
                .step(&mut client, &mut rng)
                .expect("unbudgeted client never fails");
            if v.index() >= bell {
                return s;
            }
        }
        config.step_cap
    })
    .iter()
    .sum();
    total as f64 / config.trials as f64
}

/// Run the sweep: mean escape times for SRW and CNRW per bell size, the
/// resulting speedup ratio, and the theorem's bound on the conditional
/// transition-probability ratio for context.
pub fn run(config: &Theorem3Config) -> ExperimentResult {
    let xs: Vec<f64> = config.bell_sizes.iter().map(|&b| b as f64).collect();
    let mut srw_y = Vec::with_capacity(config.bell_sizes.len());
    let mut cnrw_y = Vec::with_capacity(config.bell_sizes.len());
    let mut ratio_y = Vec::with_capacity(config.bell_sizes.len());
    let mut bound_y = Vec::with_capacity(config.bell_sizes.len());

    for &bell in &config.bell_sizes {
        let dataset = barbell_graph_sized(bell, bell);
        let network = Arc::new(dataset.network);
        let srw_t = mean_escape_time(&network, &Algorithm::Srw, bell, config);
        let cnrw_t = mean_escape_time(&network, &Algorithm::Cnrw, bell, config);
        srw_y.push(srw_t);
        cnrw_y.push(cnrw_t);
        ratio_y.push(srw_t / cnrw_t);
        bound_y.push(theorem3_bound(bell));
    }

    ExperimentResult::new(
        "theorem3",
        "Barbell escape: mean first-escape time and speedup",
        "Bell size |G1|",
        "steps / ratio",
    )
    .with_note(format!("{} trials per point", config.trials))
    .with_note(
        "the analytical bound concerns the conditional bridge-transition \
         probability with warmed circulation history; cold-start hitting \
         times improve by a smaller factor",
    )
    .with_series(Series::new("SRW mean escape steps", xs.clone(), srw_y))
    .with_series(Series::new("CNRW mean escape steps", xs.clone(), cnrw_y))
    .with_series(Series::new("speedup (SRW/CNRW)", xs.clone(), ratio_y))
    .with_series(Series::new("Thm 3 bound on P_CNRW/P_SRW", xs, bound_y))
}

/// The Theorem 3 lower bound `(|G1|/(|G1|-1)) ln |G1|` on
/// `P_CNRW / P_SRW` at the bridge node.
pub fn theorem3_bound(bell: usize) -> f64 {
    let g1 = bell as f64;
    g1 / (g1 - 1.0) * g1.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_values() {
        assert!((theorem3_bound(10) - 10.0 / 9.0 * 10f64.ln()).abs() < 1e-12);
        assert!(theorem3_bound(50) > theorem3_bound(10));
    }

    #[test]
    fn cnrw_escapes_faster() {
        let r = run(&Theorem3Config::quick());
        let speedup = r.series_by_label("speedup (SRW/CNRW)").unwrap();
        for (&size, &ratio) in speedup.x.iter().zip(&speedup.y) {
            assert!(
                ratio > 1.0,
                "bell {size}: CNRW should escape faster (ratio {ratio})"
            );
        }
    }

    #[test]
    fn escape_times_grow_with_bell_size() {
        let r = run(&Theorem3Config::quick());
        let srw = r.series_by_label("SRW mean escape steps").unwrap();
        assert!(srw.y[1] > srw.y[0], "{:?}", srw.y);
    }
}
