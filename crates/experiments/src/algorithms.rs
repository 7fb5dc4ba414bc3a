//! Algorithm selection: a serializable description of every sampler under
//! test, and the factory turning it into a live walker.

use osn_graph::NodeId;
use osn_walks::{Cnrw, Gnrw, Grouping, Mhrw, NbCnrw, NbSrw, RandomWalk, Srw};

/// A sampler under test.
#[derive(Clone, Debug, PartialEq)]
pub enum Algorithm {
    /// Simple random walk (baseline).
    Srw,
    /// Metropolis–Hastings random walk (uniform target).
    Mhrw,
    /// Non-backtracking SRW (state of the art prior to the paper).
    NbSrw,
    /// Circulated Neighbors RW (paper §3).
    Cnrw,
    /// GroupBy Neighbors RW (paper §4) with a grouping choice (the paper's
    /// Figure 9 variants are `by_degree`, `by_hash` and `by_attribute`).
    Gnrw(Grouping),
    /// Non-backtracking CNRW (paper §5 extension).
    NbCnrw,
}

impl Algorithm {
    /// Display label used in tables/series (matches the paper's legends).
    pub fn label(&self) -> String {
        match self {
            Algorithm::Srw => "SRW".to_string(),
            Algorithm::Mhrw => "MHRW".to_string(),
            Algorithm::NbSrw => "NB-SRW".to_string(),
            Algorithm::Cnrw => "CNRW".to_string(),
            Algorithm::Gnrw(grouping) => grouping.label(),
            Algorithm::NbCnrw => "NB-CNRW".to_string(),
        }
    }

    /// Instantiate a walker starting at `start`.
    pub fn make(&self, start: NodeId) -> Box<dyn RandomWalk + Send> {
        match self {
            Algorithm::Srw => Box::new(Srw::new(start)),
            Algorithm::Mhrw => Box::new(Mhrw::new(start)),
            Algorithm::NbSrw => Box::new(NbSrw::new(start)),
            Algorithm::Cnrw => Box::new(Cnrw::new(start)),
            Algorithm::Gnrw(grouping) => Box::new(Gnrw::new(start, grouping.clone())),
            Algorithm::NbCnrw => Box::new(NbCnrw::new(start)),
        }
    }

    /// Whether the sampler's stationary distribution is uniform (MHRW) as
    /// opposed to degree-proportional — decides which estimator applies.
    pub fn uniform_stationary(&self) -> bool {
        matches!(self, Algorithm::Mhrw)
    }

    /// The Figure 6 comparison set: the five algorithms of the paper's main
    /// experiment. GNRW groups by degree there (the aggregate is average
    /// degree).
    pub fn figure6_set() -> Vec<Algorithm> {
        vec![
            Algorithm::Mhrw,
            Algorithm::Srw,
            Algorithm::NbSrw,
            Algorithm::Cnrw,
            Algorithm::Gnrw(Grouping::by_degree()),
        ]
    }

    /// The Figure 7/10 comparison set: SRW-family only (MHRW's stationary
    /// distribution differs, so distribution-distance measures do not apply).
    pub fn srw_family_set() -> Vec<Algorithm> {
        vec![
            Algorithm::Srw,
            Algorithm::NbSrw,
            Algorithm::Cnrw,
            Algorithm::Gnrw(Grouping::by_degree()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Algorithm::Srw.label(), "SRW");
        assert_eq!(Algorithm::NbSrw.label(), "NB-SRW");
        assert_eq!(
            Algorithm::Gnrw(Grouping::by_hash(16)).label(),
            "GNRW_By_MD5"
        );
        assert_eq!(
            Algorithm::Gnrw(Grouping::by_attribute("reviews_count")).label(),
            "GNRW_By_reviews_count"
        );
    }

    #[test]
    fn factories_produce_working_walkers() {
        use osn_client::{OsnClient, SimulatedOsn};
        use osn_graph::generators::barbell;
        use rand::SeedableRng;

        let g = barbell(5, 5).unwrap();
        let algorithms = vec![
            Algorithm::Srw,
            Algorithm::Mhrw,
            Algorithm::NbSrw,
            Algorithm::Cnrw,
            Algorithm::Gnrw(Grouping::by_degree()),
            Algorithm::Gnrw(Grouping::by_hash(4)),
            Algorithm::NbCnrw,
        ];
        for a in algorithms {
            let mut client = SimulatedOsn::from_graph(g.clone());
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0);
            let mut w = a.make(NodeId(0));
            for _ in 0..50 {
                w.step(&mut client, &mut rng).unwrap();
            }
            assert!(client.stats().issued >= 50, "{}", a.label());
        }
    }

    #[test]
    fn estimator_kind() {
        assert!(Algorithm::Mhrw.uniform_stationary());
        assert!(!Algorithm::Cnrw.uniform_stationary());
    }

    #[test]
    fn comparison_sets() {
        assert_eq!(Algorithm::figure6_set().len(), 5);
        assert_eq!(Algorithm::srw_family_set().len(), 4);
    }
}
