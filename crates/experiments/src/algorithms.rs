//! Algorithm selection: a serializable description of every sampler under
//! test, and the factory turning it into a live walker.

use std::sync::Arc;

use osn_graph::attributes::AttributedGraph;
use osn_graph::NodeId;
use osn_walks::{
    ByAttribute, ByDegree, ByHash, Cnrw, Gnrw, GroupPlan, Mhrw, NbCnrw, NbSrw, RandomWalk, Srw,
};

/// Which grouping GNRW uses (mirrors the paper's Figure 9 variants).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroupingSpec {
    /// `GNRW_By_Degree`.
    ByDegree,
    /// `GNRW_By_MD5` (hash) with the given group count.
    ByHash(u64),
    /// `GNRW_By_<attribute>`.
    ByAttribute(String),
}

impl GroupingSpec {
    /// Instantiate the live grouping strategy this spec describes.
    pub fn strategy(&self) -> Box<dyn osn_walks::GroupingStrategy + Send> {
        match self {
            GroupingSpec::ByDegree => Box::new(ByDegree::new()),
            GroupingSpec::ByHash(groups) => Box::new(ByHash::new(*groups)),
            GroupingSpec::ByAttribute(name) => Box::new(ByAttribute::new(name.clone())),
        }
    }
}

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
    /// GroupBy Neighbors RW (paper §4) with a grouping choice.
    Gnrw(GroupingSpec),
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
            Algorithm::Gnrw(GroupingSpec::ByDegree) => "GNRW_By_Degree".to_string(),
            Algorithm::Gnrw(GroupingSpec::ByHash(_)) => "GNRW_By_MD5".to_string(),
            Algorithm::Gnrw(GroupingSpec::ByAttribute(a)) => format!("GNRW_By_{a}"),
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
            Algorithm::Gnrw(spec) => Box::new(Gnrw::new(start, spec.strategy())),
            Algorithm::NbCnrw => Box::new(NbCnrw::new(start)),
        }
    }

    /// Precompute the [`GroupPlan`] for a GNRW algorithm over `network`
    /// (`None` for every other sampler — they have no grouping to plan).
    /// Build once per graph, share via `Arc` across trials and walkers.
    pub fn build_group_plan(&self, network: &AttributedGraph) -> Option<GroupPlan> {
        match self {
            Algorithm::Gnrw(spec) => Some(GroupPlan::build(network, spec.strategy().as_ref())),
            _ => None,
        }
    }

    /// Instantiate a walker like [`Self::make`], but with GNRW running
    /// plan-backed against the shared `plan`. Non-GNRW samplers ignore the
    /// plan.
    pub fn make_planned(&self, start: NodeId, plan: Arc<GroupPlan>) -> Box<dyn RandomWalk + Send> {
        match self {
            Algorithm::Gnrw(_) => {
                debug_assert_eq!(
                    plan.strategy_label(),
                    self.label(),
                    "group plan built for a different grouping"
                );
                Box::new(Gnrw::with_plan(start, plan))
            }
            _ => self.make(start),
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
            Algorithm::Gnrw(GroupingSpec::ByDegree),
        ]
    }

    /// The Figure 7/10 comparison set: SRW-family only (MHRW's stationary
    /// distribution differs, so distribution-distance measures do not apply).
    pub fn srw_family_set() -> Vec<Algorithm> {
        vec![
            Algorithm::Srw,
            Algorithm::NbSrw,
            Algorithm::Cnrw,
            Algorithm::Gnrw(GroupingSpec::ByDegree),
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
            Algorithm::Gnrw(GroupingSpec::ByHash(16)).label(),
            "GNRW_By_MD5"
        );
        assert_eq!(
            Algorithm::Gnrw(GroupingSpec::ByAttribute("reviews_count".into())).label(),
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
            Algorithm::Gnrw(GroupingSpec::ByDegree),
            Algorithm::Gnrw(GroupingSpec::ByHash(4)),
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
