//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Three workloads (`sweep-replay16`, `sweep-distinct`, `serve-tcp`),
//! each a request population generated from `--seed` alone
//! ([`population`]); an untraced timed run per workload ([`sweep::run`],
//! [`serve::run`]) and a separate traced run that times calls into each
//! layer's public functions from this crate ([`sweep::trace`],
//! [`serve::trace`]). No span or knob is added to the program. See
//! `README.md` for the metrics, checks and the traced run's accounting.

pub mod population;
pub mod serve;
pub mod stats;
pub mod sweep;

use spottune_core::{CampaignRequest, HptReport};
use spottune_market::{MarketPool, MarketScenario};
use spottune_mlsim::CurveCache;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports: ops attempted and failed, failed checks,
/// metrics, the report digest and human-readable notes.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Campaigns (sweeps) or requests (serve) attempted in the timed phase.
    pub attempted: u64,
    /// Of those, the ones without a correct report.
    pub failed: u64,
    /// Failed correctness checks other than per-op failures.
    pub problems: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// FNV-1a digest of the workload's digest prefix of reports.
    pub digest: Option<u64>,
    /// Context lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Records a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every op succeeded, every check held and every metric was
    /// measured.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Records the digest of the reports of `requests`, checked against
    /// `again` (the same reports computed a second way in this run) and,
    /// once that holds, against earlier runs of the same population and
    /// code.
    pub fn settle_digest(
        &mut self,
        workload: &str,
        seed: u64,
        requests: &[CampaignRequest],
        digest: u64,
        again: u64,
    ) {
        self.digest = Some(digest);
        if digest != again {
            self.check(false, || {
                format!(
                    "digest {digest:016x} differs from this run's second computation {again:016x}"
                )
            });
        } else if let Err(earlier) = digest_matches_earlier_runs(workload, seed, requests, digest) {
            self.check(false, || {
                format!("digest {digest:016x} differs from an earlier run's {earlier:016x}")
            });
        }
    }

    /// Records a failed check unless the metrics reported are exactly
    /// `expected` (names and units, in any order).
    pub fn check_metric_set(&mut self, expected: &[(&str, &str)]) {
        let mut got: Vec<(&str, &str)> = self
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        let mut want = expected.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            let got = format!("{got:?}");
            self.check(false, || {
                format!("reported metrics {got} differ from {want:?}")
            });
        }
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            // JSON has no NaN or infinity; a metric that could not be
            // measured prints as null (and the run is marked incorrect).
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".into()
            };
            let _ = write!(
                metrics,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics
        )
    }
}

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("campaigns_per_s", "campaigns/s"),
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("market.pool_build_ms", "ms"),
    ("market.spine_build_ms", "ms"),
    ("revpred.train_ms.logistic", "ms"),
    ("revpred.train_ms.revpred", "ms"),
    ("revpred.probe_hit_rate", "ratio"),
    ("mlsim.curve_ms.LoR", "ms"),
    ("mlsim.curve_ms.GBTR", "ms"),
    ("mlsim.curves_generated", "count"),
    ("mlsim.curve_hit_rate", "ratio"),
    ("core.engine_us", "us"),
    ("core.engine_us.spottune", "us"),
    ("core.engine_us.hybrid", "us"),
    ("core.engine_us.migration-aware", "us"),
    ("core.spine_queries", "count/campaign"),
    ("core.fanout_speedup", "ratio"),
    ("earlycurve.kernel_passes", "count/campaign"),
    ("earlycurve.lane_occupancy", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("core.campaign_ms", "ms"),
    ("server.inproc_rtt_ms", "ms"),
    ("server.queue_ms", "ms"),
    ("wire.request_us", "us"),
    ("wire.response_us", "us"),
    ("net.rtt_ms", "ms"),
    ("net.wait_ms", "ms"),
    ("server.queue_peak", "count"),
    ("server.throttled", "count"),
    ("server.overloaded", "count"),
];

/// What one invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
}

/// Set-ups per run at most, and the set-up time after which no further
/// repetition is made: a ~30 ms set-up is repeated 21 times, a ~10 s one
/// runs once.
const SETUP_REPS: usize = 21;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Runs `once` (a timed set-up returning its state) until 21 set-ups
/// or two seconds of set-up have been made; returns the median set-up
/// time in seconds, the repetition count and the last set-up's state.
pub fn repeated_setup<T>(mut once: impl FnMut() -> (Duration, T)) -> (f64, usize, T) {
    let mut times = Vec::new();
    loop {
        let (took, state) = once();
        times.push(took);
        if times.len() >= SETUP_REPS || times.iter().sum::<Duration>() >= SETUP_BUDGET {
            let secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
            return (stats::median(&secs), times.len(), state);
        }
    }
}

/// The serial reference: [`CampaignRequest::run_serial`] per request,
/// one pool per scenario and one fresh curve tier.
pub fn serial_reports(requests: &[CampaignRequest]) -> Vec<HptReport> {
    let mut pools: BTreeMap<MarketScenario, MarketPool> = BTreeMap::new();
    let curves = CurveCache::new();
    requests
        .iter()
        .map(|req| {
            let pool = pools
                .entry(req.scenario)
                .or_insert_with(|| req.scenario.build());
            req.run_serial(pool, &curves)
        })
        .collect()
}

/// FNV-1a over the repository's crate sources (paths and contents, in
/// path order): names the measured code where no git metadata exists.
/// Computed once per process.
pub fn source_fingerprint() -> u64 {
    static FINGERPRINT: OnceLock<u64> = OnceLock::new();
    *FINGERPRINT.get_or_init(|| {
        fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, files);
                } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                    files.push(path);
                }
            }
        }
        let root = repo_root();
        let mut files = Vec::new();
        walk(&root.join("crates"), &mut files);
        files.push(root.join("Cargo.toml"));
        files.sort();
        let mut h = stats::Fnv::default();
        for file in files {
            h.write(
                file.strip_prefix(&root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.write(&std::fs::read(&file).unwrap_or_default());
        }
        h.finish()
    })
}

/// The repository root: the directory above this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Records and checks the report digest of `requests` across runs of the
/// same code: the first run of a (workload, seed, population, source
/// fingerprint) writes it next to the benchmark executable, later runs
/// must reproduce it. A digest recorded for other sources is never read,
/// so a change that alters reports starts a record of its own. Returns
/// the earlier digest when it differs.
fn digest_matches_earlier_runs(
    workload: &str,
    seed: u64,
    requests: &[CampaignRequest],
    digest: u64,
) -> Result<(), u64> {
    let mut population = stats::Fnv::default();
    population.write(format!("{requests:?}").as_bytes());
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-digests")))
    else {
        return Ok(());
    };
    let path = dir.join(format!(
        "{workload}-{seed}-{:016x}-{:016x}",
        population.finish(),
        source_fingerprint()
    ));
    let recorded = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| u64::from_str_radix(text.trim(), 16).ok());
    match recorded {
        Some(earlier) if earlier != digest => Err(earlier),
        Some(_) => Ok(()),
        None => {
            // Best effort: a read-only build directory only loses the
            // cross-run half of the check.
            let _ = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, format!("{digest:016x}\n")));
            Ok(())
        }
    }
}

/// One closed-loop sample: population index, round trip, verdict.
pub type Sample<V> = (u64, Duration, V);

/// Closed loop: one caller thread per state; each takes the next
/// population index, calls `op` (which times its own round trip and
/// judges the reply) and only then takes another, until `seconds` have
/// passed. Returns every sample and the phase's wall time.
pub fn closed_loop<S: Send, V: Send>(
    states: Vec<S>,
    seconds: f64,
    op: impl Fn(&mut S, u64) -> (Duration, V) + Sync,
) -> (Vec<Sample<V>>, Duration) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let callers: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let (next, op) = (&next, &op);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (took, verdict) = op(&mut state, i);
                        samples.push((i, took, verdict));
                    }
                    samples
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|caller| caller.join().expect("closed-loop caller panicked"))
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end].matches("\"name\"").count()
        };
        for (key, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            assert_eq!(section(key), metrics.len(), "{key}: metric count");
            for (name, unit) in metrics {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(
                    json.contains(&entry),
                    "{key}: {entry} missing from BENCHMARK.json"
                );
            }
        }
        let workloads: Vec<&str> = population::Kind::ALL.iter().map(|k| k.name()).collect();
        for name in workloads {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"why\"")),
                "{name}"
            );
        }
    }

    #[test]
    fn result_json_has_exactly_the_four_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("setup_s", 0.25, "s");
        out.metric("latency_ms", 1.5, "ms");
        assert_eq!(
            out.result_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":\
             {\"value\":0.25,\"unit\":\"s\"},\"latency_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}"
        );
        out.metric("broken", f64::NAN, "s");
        assert!(out.result_json().starts_with("{\"correct\":false"));
    }
}
