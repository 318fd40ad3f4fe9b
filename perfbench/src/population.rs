//! The benchmark's request populations, generated from `--seed` alone.
//!
//! A population is an unbounded, indexable sequence of campaign requests:
//! request `i` is a pure function of `(workload, seed, i)`, so a run that
//! completes more campaigns simply reads further along the same sequence.

use spottune_core::{Approach, CampaignRequest};
use spottune_market::{EstimatorSpec, MarketScenario};
use spottune_mlsim::{Algorithm, Workload};

/// The benchmark's workloads (see the crate docs for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `sweep_throughput`'s grid: 16 distinct campaigns replayed.
    Replay16,
    /// A distinct seed per campaign, LoR and GBTR, four scenarios.
    Distinct,
    /// The replay16 grid, one request per round trip over loopback TCP.
    ServeTcp,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::Replay16, Kind::Distinct, Kind::ServeTcp];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Replay16 => "sweep-replay16",
            Kind::Distinct => "sweep-distinct",
            Kind::ServeTcp => "serve-tcp",
        }
    }

    /// Resolves a `--workload` name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Policy, θ and estimator cycle with `i mod 4` on every workload (the
/// policies are `sweep_throughput`'s mix).
const POLICY_MIX: [&str; 4] = ["spottune", "spottune", "hybrid", "migration-aware"];
const THETA_MIX: [f64; 4] = [0.7, 1.0, 0.7, 0.7];
const REPLAY_ESTIMATORS: [&str; 4] = ["logistic", "oracle(0.9)", "logistic", "constant(0.2)"];
const DISTINCT_ESTIMATORS: [&str; 4] = ["revpred", "oracle(0.9)", "logistic", "constant(0.2)"];

/// The replay grid repeats every 16 requests: request `i` is the same
/// campaign as request `i mod 16`.
pub const GRID_PERIOD: u64 = 16;

/// Scenarios are two-day markets.
const SCENARIO_DAYS: u64 = 2;

/// One workload's population for one seed.
#[derive(Debug, Clone)]
pub struct Population {
    kind: Kind,
    seed: u64,
    lor: Workload,
    gbtr: Workload,
}

/// A benchmark's mini-trainer workload: 2 configurations × 15 steps.
pub fn small_workload(algorithm: Algorithm) -> Workload {
    let base = Workload::benchmark(algorithm);
    Workload::custom(algorithm, 15, base.hp_grid()[..2].to_vec())
}

impl Population {
    /// The population of `kind` for `seed`.
    pub fn new(kind: Kind, seed: u64) -> Population {
        Population {
            kind,
            seed,
            lor: small_workload(Algorithm::LoR),
            gbtr: small_workload(Algorithm::Gbtr),
        }
    }

    /// The workload this population belongs to.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Number of market scenarios the population spreads over.
    pub fn scenario_count(&self) -> u64 {
        match self.kind {
            Kind::Replay16 | Kind::ServeTcp => 2,
            Kind::Distinct => 4,
        }
    }

    /// Request `i` of the sequence.
    ///
    /// * replay16 / serve-tcp: `sweep_throughput`'s grid, its two
    ///   scenarios `42 + (i / 4) mod 2` with campaign seed `seed + i mod
    ///   16` (seed 42 reproduces the grid bit for bit). The scenarios stay
    ///   the grid's: the engine's cost follows the market, and
    ///   seed-derived markets spread throughput ~18% across seeds against
    ///   ~8% with the grid's.
    /// * distinct: campaign seed `seed · 2²⁰ + i` (one per campaign),
    ///   LoR and GBTR alternating in blocks of four so every policy meets
    ///   both, scenario `seed + (i / 8) mod 4` so every scenario meets
    ///   every (algorithm, policy, estimator) combination.
    pub fn request(&self, i: u64) -> CampaignRequest {
        let mix = (i % 4) as usize;
        let approach = Approach::from_policy_name(POLICY_MIX[mix], THETA_MIX[mix])
            .expect("mix policies are registered");
        let (workload, scenario, seed, estimator) = match self.kind {
            Kind::Replay16 | Kind::ServeTcp => (
                &self.lor,
                42 + (i / 4) % 2,
                self.seed.wrapping_add(i % GRID_PERIOD),
                REPLAY_ESTIMATORS[mix],
            ),
            Kind::Distinct => (
                if (i / 4).is_multiple_of(2) {
                    &self.lor
                } else {
                    &self.gbtr
                },
                self.seed.wrapping_add((i / 8) % 4),
                (self.seed << 20).wrapping_add(i),
                DISTINCT_ESTIMATORS[mix],
            ),
        };
        CampaignRequest {
            id: i,
            approach,
            workload: workload.clone(),
            scenario: MarketScenario::from_days(SCENARIO_DAYS, scenario),
            seed,
            estimator: EstimatorSpec::parse(estimator).expect("mix estimators parse"),
        }
    }

    /// Requests `range` of the sequence.
    pub fn requests(&self, range: std::ops::Range<u64>) -> Vec<CampaignRequest> {
        range.map(|i| self.request(i)).collect()
    }

    /// One request per distinct (scenario, estimator) pair, each the
    /// pair's first occurrence in the sequence — the set-up population.
    /// Every pair occurs within the first 32 requests (the distinct
    /// scenario cycle).
    pub fn setup_requests(&self) -> Vec<CampaignRequest> {
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for req in self.requests(0..32) {
            let pair = (req.scenario, req.estimator);
            if !seen.contains(&pair) {
                seen.push(pair);
                out.push(req);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        for kind in Kind::ALL {
            let a = Population::new(kind, 7).requests(0..64);
            let b = Population::new(kind, 7).requests(0..64);
            let c = Population::new(kind, 8).requests(0..64);
            assert_eq!(a, b, "{kind:?}: same seed, same requests");
            assert_ne!(a, c, "{kind:?}: another seed, another population");
        }
    }

    #[test]
    fn replay16_at_seed_42_is_the_sweep_throughput_grid() {
        let pop = Population::new(Kind::Replay16, 42);
        let seeds: BTreeSet<u64> = pop.requests(0..4096).iter().map(|r| r.seed).collect();
        assert_eq!(seeds, (42..58).collect::<BTreeSet<u64>>());
        let r5 = pop.request(5);
        assert_eq!(r5.seed, 47);
        assert_eq!(r5.scenario, MarketScenario::from_days(2, 43));
        assert_eq!(r5.approach, Approach::SpotTune { theta: 1.0 });
        assert_eq!(r5.estimator, EstimatorSpec::parse("oracle(0.9)").unwrap());
        // 16 distinct campaigns: the sequence repeats with period 16.
        let mut r21 = pop.request(21);
        r21.id = 5;
        assert_eq!(r21, r5);
        assert_eq!(pop.setup_requests().len(), 6, "2 scenarios × 3 estimators");
    }

    #[test]
    fn distinct_has_one_seed_per_campaign_four_scenarios_and_both_algorithms() {
        let pop = Population::new(Kind::Distinct, 3);
        let reqs = pop.requests(0..256);
        let seeds: BTreeSet<u64> = reqs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), reqs.len(), "one distinct seed per campaign");
        let scenarios: BTreeSet<_> = reqs.iter().map(|r| r.scenario).collect();
        assert_eq!(scenarios.len(), 4);
        let algorithms: BTreeSet<&str> =
            reqs.iter().map(|r| r.workload.algorithm().name()).collect();
        assert_eq!(algorithms.len(), 2, "LoR and GBTR");
        // Every scenario meets both algorithms under every estimator.
        let combos: BTreeSet<_> = reqs
            .iter()
            .map(|r| {
                (
                    r.scenario,
                    r.workload.algorithm().name(),
                    r.estimator.to_string(),
                )
            })
            .collect();
        assert_eq!(combos.len(), 4 * 2 * 4);
        assert_eq!(pop.setup_requests().len(), 16, "4 scenarios × 4 estimators");
    }
}
