//! Command line: `perfbench --workload <name> --seed <n> --seconds <n>
//! --trace <0|1>`. Prints context lines, then the result as one JSON
//! object on the last line; exits non-zero when a check failed.

use perfbench::population::{Kind, Population};
use perfbench::{serve, stats, sweep, Outcome, RunConfig};
use std::path::Path;
use std::process::{Command, ExitCode};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                kind = Some(Kind::from_name(&value).ok_or_else(|| {
                    format!("unknown workload {value}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's standard output, if it ran.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    output
        .status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = perfbench::repo_root();
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
    };
    let pop = Population::new(args.kind, args.seed);
    let nproc = stats::nproc();
    let (clients, workers) = match args.kind {
        Kind::ServeTcp => (nproc, nproc),
        // One caller; the program fans scenario groups out over up to
        // `nproc` threads.
        _ => (1, nproc.min(pop.scenario_count() as usize)),
    };
    println!(
        "stamp: workload={} seed={} seconds={} trace={} nproc={nproc} client_threads={clients} \
         worker_threads={workers} commit={} source_fnv={:016x} rustc=\"{}\"",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        command_line("git", &["rev-parse", "--short=12", "HEAD"], &root)
            .unwrap_or("unknown".into()),
        perfbench::source_fingerprint(),
        command_line("rustc", &["--version"], &root).unwrap_or("unknown".into()),
    );

    let mut out = Outcome::default();
    match (args.kind, args.trace) {
        (Kind::ServeTcp, false) => serve::run(&pop, cfg, &mut out),
        (_, false) => sweep::run(&pop, cfg, &mut out),
        (Kind::ServeTcp, true) => {
            sweep::trace(&pop, &mut out);
            serve::trace(&pop, args.seconds, &mut out);
        }
        (_, true) => {
            sweep::trace(&pop, &mut out);
            // The serving layers, over this seed's serve-tcp grid.
            serve::trace(&Population::new(Kind::ServeTcp, args.seed), 2.0, &mut out);
        }
    }

    out.check_metric_set(if args.trace {
        &perfbench::PER_LAYER
    } else {
        &perfbench::END_TO_END
    });
    for line in &out.notes {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("metric {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(digest) = out.digest {
        println!("digest: {digest:016x} (FNV-1a over the digest prefix's reports, request order)");
    }
    println!("ops: attempted {} failed {}", out.attempted, out.failed);
    for problem in &out.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
