//! Runs each workload briefly on a seed no development run used and
//! expects every check to hold. The distinct sweep trains four RevPred
//! predictors, minutes in a debug build, so it is ignored by default:
//! `cargo test --release -- --ignored`.

use perfbench::population::{Kind, Population};
use perfbench::{serve, sweep, Outcome, RunConfig};

const UNSEEN_SEED: u64 = 0x5eed_2026_1017;

fn run(kind: Kind) -> Outcome {
    let cfg = RunConfig {
        seed: UNSEEN_SEED,
        seconds: 0.5,
    };
    let pop = Population::new(kind, UNSEEN_SEED);
    let mut out = Outcome::default();
    match kind {
        Kind::ServeTcp => serve::run(&pop, cfg, &mut out),
        _ => sweep::run(&pop, cfg, &mut out),
    }
    out.check_metric_set(&perfbench::END_TO_END);
    out
}

fn assert_clean(kind: Kind) {
    let out = run(kind);
    assert!(
        out.correct(),
        "{kind:?}: {:?} (failed {})",
        out.problems,
        out.failed
    );
    assert!(out.digest.is_some(), "{kind:?} reports a digest");
}

#[test]
fn replay16_runs_clean_on_an_unseen_seed() {
    assert_clean(Kind::Replay16);
}

#[test]
fn serve_tcp_runs_clean_on_an_unseen_seed() {
    assert_clean(Kind::ServeTcp);
}

#[test]
#[ignore = "trains RevPred; run in release with --ignored"]
fn distinct_runs_clean_on_an_unseen_seed() {
    assert_clean(Kind::Distinct);
}

#[test]
fn replay16_and_serve_tcp_agree_on_the_digest() {
    // Both run the replay grid: the batched sweep path and the TCP
    // single-request path must produce the same reports.
    assert_eq!(run(Kind::Replay16).digest, run(Kind::ServeTcp).digest);
}
