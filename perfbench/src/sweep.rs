//! The sweep workloads: the timed run and its traced counterpart.

use crate::population::{small_workload, Kind, Population, GRID_PERIOD};
use crate::stats::{self, median, process_cpu_s, Fnv};
use crate::{Outcome, RunConfig};
use spottune_core::{BatchRunner, CampaignRequest, HptReport};
use spottune_market::{MarketScenario, PoolCache, SpineCache};
use spottune_mlsim::runner::ground_truth_finals_with_cache;
use spottune_mlsim::{Algorithm, CurveCache};
use spottune_revpred::{PredictorCache, PredictorKind};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Campaigns per `run_many` call. The repository's sweep callers
/// (`sweep_throughput`, `run_campaigns`) make one call over a whole
/// population; each call opens a fresh session per scenario group (probe,
/// SPE and ground-truth memos) and fans the groups out, so a small call
/// pays set-up and a fan-out tail a population-sized call amortises. The
/// sizes are the smallest at which the rate was within noise of one call
/// over the whole timed population (replay ~0.5 s, distinct ~7 s per
/// call; the measurements are in the README's "Call size").
fn batch_size(kind: Kind) -> u64 {
    match kind {
        Kind::Replay16 | Kind::ServeTcp => 32 * 1024,
        Kind::Distinct => 1024,
    }
}

/// The digest prefix: the first campaigns of the population, digested in
/// request order and re-run for the determinism check. For the replay
/// grid it is one full period (every distinct campaign).
fn digest_len(kind: Kind) -> u64 {
    match kind {
        Kind::Replay16 | Kind::ServeTcp => GRID_PERIOD,
        Kind::Distinct => 32,
    }
}

/// Untimed warm-up before the timed phase (caches fill, allocator and
/// threads settle), in calls of a sixteenth of a timed call; at least one
/// call, the digest prefix's.
const WARMUP: Duration = Duration::from_secs(1);

/// Timed calls in the traced run's population. The accounting alternates
/// the untraced pass with the engine stage one scenario group at a time,
/// so both see the same host load; replay16's calls hold two ~0.25 s
/// groups each, sweep-distinct's one call four ~3 s groups.
fn trace_calls(kind: Kind) -> u64 {
    match kind {
        Kind::Replay16 | Kind::ServeTcp => 4,
        Kind::Distinct => 1,
    }
}

/// Calls per block of the sweeps' `latency_p90_ms`, the median of the
/// blocks' 90th percentiles. Every call of a replay16 run does the same
/// work, so its slow calls are host episodes (the two group threads share
/// one vCPU until the other wakes); a plain 90th percentile of ~70 calls
/// moved with whether an episode covered more than seven of them.
const P90_BLOCK: usize = 10;

/// The traced stages must sum to the single-thread untraced pass's time
/// within this share of it.
pub const TRACE_TOLERANCE: f64 = 0.15;

/// A batched runner over tiers this crate keeps handles to, so the curve
/// tier's counters are readable next to [`BatchRunner::stats`].
struct Sweeper {
    runner: BatchRunner,
    curves: CurveCache,
}

impl Sweeper {
    fn fresh() -> Sweeper {
        let curves = CurveCache::new();
        let runner = BatchRunner::new().with_tiers(
            PoolCache::new(),
            SpineCache::new(),
            curves.clone(),
            PredictorCache::new(),
        );
        Sweeper { runner, curves }
    }
}

/// How many learned predictor families a request set trains.
fn learned_kind_count(requests: &[CampaignRequest]) -> u64 {
    let mut kinds = Vec::new();
    for kind in requests
        .iter()
        .filter_map(|r| PredictorKind::from_spec(&r.estimator))
    {
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    kinds.len() as u64
}

/// Distinct (algorithm, campaign seed) keys: each is one curve-tier miss
/// per grid configuration on first use.
fn curve_keys(requests: &[CampaignRequest]) -> impl Iterator<Item = (&'static str, u64)> + '_ {
    requests
        .iter()
        .map(|r| (r.workload.algorithm().name(), r.seed))
}

/// Counts the reports of `requests` that are missing or wrong: every
/// request gets exactly one report, every report balances its books and,
/// where a per-grid-slot reference exists, equals it bit for bit.
fn failed_reports(
    requests: &[CampaignRequest],
    reports: &[HptReport],
    reference: Option<&[HptReport]>,
) -> u64 {
    if reports.len() != requests.len() {
        return requests.len() as u64;
    }
    let wrong = requests.iter().zip(reports).filter(|(req, rep)| {
        !stats::books_balance(rep)
            || reference.is_some_and(|r| **rep != r[(req.id % r.len() as u64) as usize])
    });
    wrong.count() as u64
}

/// The timed sweep: set-up, warm-up, `cfg.seconds` of batches, checks.
pub fn run(pop: &Population, cfg: RunConfig, out: &mut Outcome) {
    let kind = pop.kind();
    let batch = batch_size(kind);
    let digest_n = digest_len(kind);
    let setup = pop.setup_requests();
    // The replay grid repeats: the serial reference of one period checks
    // every report of every batch.
    let reference =
        (kind == Kind::Replay16).then(|| crate::serial_reports(&pop.requests(0..GRID_PERIOD)));
    let reference = reference.as_deref();

    // Set-up makes one call per scenario group, which the program runs on
    // the calling thread: a call that fans two ~12 ms groups out takes
    // 1x or 2x as long depending on whether the guest scheduler wakes the
    // second vCPU in time, and on a busy host that flips for whole runs.
    let setup_groups = by_scenario(&setup);
    let (setup_s, reps, sweeper) = crate::repeated_setup(|| {
        let sweeper = Sweeper::fresh();
        let t = Instant::now();
        let reports: Vec<HptReport> = setup_groups
            .iter()
            .flat_map(|g| sweeper.runner.run_many(g))
            .collect();
        let took = t.elapsed();
        out.check(
            failed_reports(&setup_groups.concat(), &reports, None) == 0,
            || "set-up campaigns reported wrongly".into(),
        );
        (took, sweeper)
    });
    let mut keys: BTreeSet<(&str, u64)> = curve_keys(&setup).collect();

    // Warm-up, starting with the digest prefix's call.
    let mut next = 0;
    let mut prefix = Vec::new();
    let warm = Instant::now();
    while next == 0 || warm.elapsed() < WARMUP {
        let requests = pop.requests(next..next + batch / 16);
        let reports = sweeper.runner.run_many(&requests);
        out.check(failed_reports(&requests, &reports, reference) == 0, || {
            format!("warm-up call at {next} reported wrongly")
        });
        if next == 0 {
            prefix = reports[..digest_n as usize].to_vec();
        }
        keys.extend(curve_keys(&requests));
        next += batch / 16;
    }

    // Where no per-grid-slot reference exists, a seeded sample of the
    // timed phase's reports is kept for the serial check: per policy and
    // estimator slot (`i mod 4`), the campaign with the least seeded hash.
    let sample_key = |i: u64| {
        let mut h = Fnv::default();
        h.write(&cfg.seed.to_le_bytes());
        h.write(&i.to_le_bytes());
        h.finish()
    };
    let mut sample: [Option<(u64, u64, HptReport)>; 4] = Default::default();

    let first_timed = next;
    let mut batch_s = Vec::new();
    let (cpu0, steal0) = (process_cpu_s(), stats::host_steal_ticks());
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < cfg.seconds {
        let requests = pop.requests(next..next + batch);
        let t = Instant::now();
        let reports = sweeper.runner.run_many(&requests);
        batch_s.push(t.elapsed().as_secs_f64());
        out.attempted += batch;
        out.failed += failed_reports(&requests, &reports, reference);
        keys.extend(curve_keys(&requests));
        if reference.is_none() {
            for (i, report) in (next..).zip(reports) {
                let key = sample_key(i);
                let kept = &mut sample[(i % 4) as usize];
                if kept.as_ref().is_none_or(|(k, _, _)| key < *k) {
                    *kept = Some((key, i, report));
                }
            }
        }
        next += batch;
    }
    let phase_s = phase.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s().zip(cpu0).map_or(f64::NAN, |(b, a)| b - a);
    let steal_s = stats::host_steal_ticks()
        .zip(steal0)
        .map_or(f64::NAN, |(b, a)| (b - a) as f64 / 100.0);

    // Determinism: the prefix re-run through the warm runner, the
    // prefix's digest against earlier runs, and the seeded sample of
    // timed reports against the serial reference.
    let prefix_requests = pop.requests(0..digest_n);
    let rerun = sweeper.runner.run_many(&prefix_requests);
    out.settle_digest(
        kind.name(),
        cfg.seed,
        &prefix_requests,
        stats::report_digest(&prefix),
        stats::report_digest(&rerun),
    );
    if reference.is_none() {
        let sample: Vec<(u64, HptReport)> = sample
            .into_iter()
            .flatten()
            .map(|(_, i, r)| (i, r))
            .collect();
        out.check(sample.len() == 4, || {
            "the timed phase ran too few campaigns for the serial sample".into()
        });
        let requests: Vec<CampaignRequest> = sample.iter().map(|(i, _)| pop.request(*i)).collect();
        for ((i, got), want) in sample.iter().zip(crate::serial_reports(&requests)) {
            out.check(*got == want, || {
                format!("timed campaign {i} differs from CampaignRequest::run_serial")
            });
        }
        let indices: Vec<u64> = sample.iter().map(|(i, _)| *i).collect();
        out.note(format!(
            "serial check: timed campaigns {indices:?} (of {first_timed}..{next}) match \
             run_serial bit for bit"
        ));
    } else {
        out.note("serial check: every report equals run_serial of its grid slot");
    }

    // Structural work counters.
    let work = sweeper.runner.stats();
    let curves = sweeper.curves.stats();
    let scenarios = pop.scenario_count();
    let learned = learned_kind_count(&setup);
    let grid = pop.request(0).workload.hp_grid().len() as u64;
    let campaigns = work.campaigns as f64;
    out.check(work.pool_cache.misses == scenarios, || {
        format!(
            "{} pool builds for {scenarios} scenarios",
            work.pool_cache.misses
        )
    });
    out.check(work.spine_cache.misses == scenarios, || {
        format!(
            "{} spine builds for {scenarios} scenarios",
            work.spine_cache.misses
        )
    });
    out.check(work.predictor_cache.misses == scenarios * learned, || {
        format!(
            "{} trainings for {scenarios} scenarios × {learned} learned kinds",
            work.predictor_cache.misses
        )
    });
    out.check(curves.misses == keys.len() as u64 * grid, || {
        format!(
            "{} curve misses for {} distinct (algorithm, seed, config)",
            curves.misses,
            keys.len() as u64 * grid
        )
    });
    if kind == Kind::Replay16 {
        out.check(curves.misses as f64 / campaigns < 0.01, || {
            "replay16 misses the curve tier".into()
        });
    }
    out.check(work.kernel_invocations > 0, || {
        "the lane kernel never ran".into()
    });
    out.note(format!(
        "work: {} campaigns, {} pool / {} spine builds, {} trainings, {:.4} curve misses, \
         {:.2} spine queries, {:.3} kernel passes per campaign; lane occupancy {:.3}, \
         probe hit rate {:.3}",
        work.campaigns,
        work.pool_cache.misses,
        work.spine_cache.misses,
        work.predictor_cache.misses,
        curves.misses as f64 / campaigns,
        work.spine_queries as f64 / campaigns,
        work.kernel_invocations as f64 / campaigns,
        work.lane_occupancy().unwrap_or(f64::NAN),
        probe_hit_rate(work.probe_hits, work.probe_misses),
    ));
    let done = (batch_s.len() as u64 * batch) as f64;
    out.note(format!(
        "timed: {} calls of {batch} in {phase_s:.2} s ({:.1} campaigns per CPU-second; host \
         steal {steal_s:.2} s); p50 over {} calls, p90 over {} blocks of {P90_BLOCK} \
         calls; set-up median of {reps}",
        batch_s.len(),
        done / cpu_s,
        batch_s.len(),
        (batch_s.len() / P90_BLOCK).max(1),
    ));

    out.metric(
        "campaigns_per_s",
        done / batch_s.iter().sum::<f64>(),
        "campaigns/s",
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("latency_p50_ms", median(&batch_s) * 1e3, "ms");
    out.metric(
        "latency_p90_ms",
        stats::blocked_percentile(&batch_s, 90.0, P90_BLOCK) * 1e3,
        "ms",
    );
    out.metric(
        "peak_rss_mb",
        stats::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
}

fn probe_hit_rate(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Requests grouped by scenario, groups in scenario order.
fn by_scenario(requests: &[CampaignRequest]) -> Vec<Vec<CampaignRequest>> {
    let mut groups: BTreeMap<MarketScenario, Vec<CampaignRequest>> = BTreeMap::new();
    for req in requests {
        groups.entry(req.scenario).or_default().push(req.clone());
    }
    groups.into_values().collect()
}

/// Milliseconds per call of `f` over `items`, and the total.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> (f64, f64) {
    let t = Instant::now();
    for item in items {
        f(item);
    }
    let total = stats::ms(t.elapsed());
    (total / items.len().max(1) as f64, total)
}

/// The traced sweep: the untraced calls, then each layer's entry point in
/// dependency order over fresh tiers, on one thread.
///
/// The program fans a sweep's scenario groups out over up to `nproc`
/// threads, so the stages' sum cannot be held against that pass's wall
/// time (parallel) nor its CPU time (which also holds the threads'
/// contention). The stages are held against a second untraced pass that
/// makes the same calls one scenario group at a time, which the program
/// runs on the calling thread, within [`TRACE_TOLERANCE`]; the fan-out's
/// speed-up and extra CPU are reported beside it. `attempted` counts the
/// two untraced passes' campaigns.
pub fn trace(pop: &Population, out: &mut Outcome) {
    let kind = pop.kind();
    let batch = batch_size(kind);
    // The set-up pairs, then the population of a few timed calls.
    let mut batches = vec![pop.setup_requests()];
    batches.extend((0..trace_calls(kind)).map(|b| pop.requests(b * batch..(b + 1) * batch)));
    let all: Vec<CampaignRequest> = batches.concat();

    let groups: Vec<Vec<CampaignRequest>> = batches.iter().flat_map(|b| by_scenario(b)).collect();

    // 1. Untraced over fresh tiers: exactly the timed run's calls, scenario
    //    groups fanned out over threads.
    let sweeper = Sweeper::fresh();
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    for requests in &batches {
        black_box(sweeper.runner.run_many(requests));
    }
    let parallel_ms = stats::ms(t.elapsed());
    let cpu_ms = process_cpu_s()
        .zip(cpu0)
        .map_or(f64::NAN, |(b, a)| (b - a) * 1e3);
    let curves = sweeper.curves.stats();
    out.attempted += 2 * all.len() as u64;

    // 2. Stages over fresh tiers.
    let (pools, spines, curve_tier, predictors) = (
        PoolCache::new(),
        SpineCache::new(),
        CurveCache::new(),
        PredictorCache::new(),
    );
    let mut scenarios: Vec<MarketScenario> = Vec::new();
    for req in &all {
        if !scenarios.contains(&req.scenario) {
            scenarios.push(req.scenario);
        }
    }
    let mut stages: Vec<(String, f64)> = Vec::new();
    let (per, total) = time_each(&scenarios, |&s| drop(black_box(pools.get(s))));
    out.metric("market.pool_build_ms", per, "ms");
    stages.push(("market.pool_build".into(), total));
    let (per, total) = time_each(&scenarios, |&s| {
        drop(black_box(spines.get(s, &pools.get(s))))
    });
    out.metric("market.spine_build_ms", per, "ms");
    stages.push(("market.spine_build".into(), total));

    let mut trained: Vec<(MarketScenario, PredictorKind)> = Vec::new();
    for req in &all {
        if let Some(k) = PredictorKind::from_spec(&req.estimator) {
            if !trained.contains(&(req.scenario, k)) {
                trained.push((req.scenario, k));
            }
        }
    }
    for (kind_name, k) in [
        ("logistic", PredictorKind::Logistic),
        ("revpred", PredictorKind::RevPred),
    ] {
        let pairs: Vec<MarketScenario> = trained
            .iter()
            .filter(|(_, tk)| *tk == k)
            .map(|(s, _)| *s)
            .collect();
        let metric = format!("revpred.train_ms.{kind_name}");
        if pairs.is_empty() {
            // Not in this population: one cold training on its first
            // scenario reports the layer's cost, outside the stage sum.
            let (per, _) = time_each(&scenarios[..1], |&s| {
                drop(black_box(PredictorCache::new().get(k, s, &pools.get(s))))
            });
            out.metric(metric, per, "ms");
            continue;
        }
        let (per, total) = time_each(&pairs, |&s| {
            drop(black_box(predictors.get(k, s, &pools.get(s))))
        });
        out.metric(metric, per, "ms");
        stages.push((format!("revpred.train.{kind_name}"), total));
    }

    let mut truths: Vec<(Algorithm, u64)> = Vec::new();
    let mut seen = BTreeSet::new();
    for req in &all {
        if seen.insert((req.workload.algorithm().name(), req.seed)) {
            truths.push((req.workload.algorithm(), req.seed));
        }
    }
    for (name, algorithm) in [("LoR", Algorithm::LoR), ("GBTR", Algorithm::Gbtr)] {
        let workload = small_workload(algorithm);
        let seeds: Vec<u64> = truths
            .iter()
            .filter(|(a, _)| *a == algorithm)
            .map(|(_, s)| *s)
            .collect();
        let metric = format!("mlsim.curve_ms.{name}");
        if seeds.is_empty() {
            // Not in this population: four cold seeds, outside the sum.
            let probe = CurveCache::new();
            let (per, _) = time_each(&[1u64, 2, 3, 4], |&s| {
                drop(black_box(ground_truth_finals_with_cache(
                    &workload, s, &probe,
                )))
            });
            out.metric(metric, per, "ms");
            continue;
        }
        let (per, total) = time_each(&seeds, |&s| {
            drop(black_box(ground_truth_finals_with_cache(
                &workload,
                s,
                &curve_tier,
            )))
        });
        out.metric(metric, per, "ms");
        stages.push((format!("mlsim.curve.{name}"), total));
    }
    out.metric("mlsim.curves_generated", curves.misses as f64, "count");
    out.metric("mlsim.curve_hit_rate", curves.hit_rate(), "ratio");

    // Engine drive on warm tiers (events, provider, billing, policies,
    // estimator probes, the lane kernel), one scenario group per call so
    // it runs on this thread; per-policy sub-populations through their
    // own runners on the same warm tiers.
    let warm = || {
        BatchRunner::new().with_tiers(
            pools.clone(),
            spines.clone(),
            curve_tier.clone(),
            predictors.clone(),
        )
    };
    let misses = || {
        [
            pools.stats(),
            spines.stats(),
            curve_tier.stats(),
            predictors.stats(),
        ]
        .map(|c| c.misses)
    };
    // The untraced calls again, one scenario group per call (which the
    // program runs on this thread), over fresh tiers: each group's call
    // alternates with the engine stage's call for the same group, so both
    // see the same host load.
    let before = misses();
    let (serial, engine) = (Sweeper::fresh(), warm());
    let (mut serial_ms, mut total) = (0.0, 0.0);
    for g in &groups {
        serial_ms += time_each(&[g], |g| drop(black_box(serial.runner.run_many(g)))).1;
        total += time_each(&[g], |g| drop(black_box(engine.run_many(g)))).1;
    }
    let campaigns = all.len() as f64;
    out.metric("core.engine_us", total * 1e3 / campaigns, "us");
    stages.push(("core.engine".into(), total));
    out.check(misses() == before, || {
        "the engine stage missed a tier the earlier stages filled".into()
    });
    let st = engine.stats();
    out.metric(
        "core.spine_queries",
        st.spine_queries as f64 / campaigns,
        "count/campaign",
    );
    out.metric(
        "earlycurve.kernel_passes",
        st.kernel_invocations as f64 / campaigns,
        "count/campaign",
    );
    out.metric(
        "earlycurve.lane_occupancy",
        st.lane_occupancy().unwrap_or(f64::NAN),
        "ratio",
    );
    out.metric(
        "revpred.probe_hit_rate",
        probe_hit_rate(st.probe_hits, st.probe_misses),
        "ratio",
    );
    for policy in ["spottune", "hybrid", "migration-aware"] {
        let subset: Vec<CampaignRequest> = all
            .iter()
            .filter(|r| r.approach.policy_name() == policy)
            .cloned()
            .collect();
        let runner = warm();
        let groups: Vec<Vec<CampaignRequest>> = subset
            .chunks(batch as usize)
            .flat_map(by_scenario)
            .collect();
        let (_, total) = time_each(&groups, |g| drop(black_box(runner.run_many(g))));
        out.metric(
            format!("core.engine_us.{policy}"),
            total * 1e3 / subset.len() as f64,
            "us",
        );
    }

    // Accounting: the stages against the single-thread untraced pass.
    let sum: f64 = stages.iter().map(|(_, ms)| ms).sum();
    let ratio = sum / serial_ms;
    out.metric("core.fanout_speedup", serial_ms / parallel_ms, "ratio");
    out.metric("trace.overhead_ms", sum - serial_ms, "ms");
    for (name, ms) in &stages {
        out.note(format!(
            "stage {name:<24} {ms:>10.1} ms  {:>5.1}% of the stage sum",
            100.0 * ms / sum
        ));
    }
    out.note(format!(
        "untraced, {} campaigns: one group per call {serial_ms:.1} ms; as timed {parallel_ms:.1} ms \
         wall, {cpu_ms:.1} ms CPU on {} cores (fan-out speed-up {:.2}, CPU beyond the \
         single-thread pass {:.1} ms)",
        all.len(),
        stats::nproc(),
        serial_ms / parallel_ms,
        cpu_ms - serial_ms,
    ));
    out.note(format!(
        "traced stages sum to {sum:.1} ms = {ratio:.3} of the single-thread untraced pass \
         (tolerance ±{TRACE_TOLERANCE})"
    ));
    out.check((ratio - 1.0).abs() <= TRACE_TOLERANCE, || {
        format!("traced stages account for {ratio:.3} of the untraced time")
    });
}
