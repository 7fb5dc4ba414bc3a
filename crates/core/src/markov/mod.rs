//! Exact Markov-chain analysis on small graphs.
//!
//! The paper's theorems talk about stationary distributions and asymptotic
//! variance. For small graphs these quantities are *exactly computable* from
//! the dense transition matrix, giving the test suite ground truth to hold
//! the walkers against:
//!
//! * [`TransitionKernel`] — dense row-stochastic matrix, with constructors
//!   for the SRW, MHRW and NB-SRW-as-edge-chain kernels of a graph;
//! * [`TransitionKernel::stationary`] — power-iteration stationary
//!   distribution;
//! * [`asymptotic_variance`] — Definition 3's `V∞` via the fundamental
//!   matrix `Z = (I - P + 1π)^{-1}` (order-1 chains);
//! * [`mixing_time_upper`] — smallest `t` with worst-case TV distance below
//!   a threshold.
//!
//! CNRW/GNRW are *not* order-1 chains, so their variance cannot be read off
//! a matrix — that is exactly why the experiments estimate it empirically —
//! but Theorem 1 says their stationary distribution equals SRW's, which
//! these tools verify against long-run visit frequencies.

mod kernel;
mod linalg;
mod variance;

pub use kernel::TransitionKernel;
pub use linalg::solve_dense;
pub use variance::{asymptotic_variance, mixing_time_upper};
