//! The `serve-tcp` workload and the traced calls into the serving
//! layers: the single-request campaign path, the in-process server, the
//! wire codec and the TCP front-end.

use crate::population::{Population, GRID_PERIOD};
use crate::stats::{self, median, percentile};
use crate::{closed_loop, Outcome, RunConfig, Sample};
use spottune_client::{Client, RetryPolicy};
use spottune_core::wire::{self, ClientFrame, ServerFrame};
use spottune_core::{CampaignRequest, CampaignResponse, HptReport};
use spottune_market::PoolCache;
use spottune_mlsim::CurveCache;
use spottune_revpred::{PredictorCache, PredictorKind};
use spottune_server::net::{AdmissionConfig, NetServer, NetServerConfig, ShutdownHandle};
use spottune_server::{CampaignServer, ServerConfig, WorkOutcome};
use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A `NetServer` serving on a loopback port from its own thread; dropping
/// it drains the server and joins the thread.
struct Served {
    addr: String,
    handle: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Served {
    /// Binds an ephemeral loopback port with `workers` campaign workers,
    /// throttling off (so the load generator measures the program, not
    /// the configured rate).
    fn bind(workers: usize) -> Served {
        let config = NetServerConfig {
            server: ServerConfig::with_workers(workers),
            admission: AdmissionConfig {
                refill_per_sec: 0.0,
                ..AdmissionConfig::default()
            },
        };
        let server = NetServer::bind("127.0.0.1:0", config).expect("bind a loopback port");
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        Served {
            addr,
            handle,
            thread: Some(std::thread::spawn(move || server.run())),
        }
    }

    /// A client with retries off, so refusals count as failures.
    fn client(&self) -> Client {
        Client::connect(&self.addr)
            .expect("connect to the loopback server")
            .with_retry(RetryPolicy::none())
    }

    /// The server's flattened counter snapshot.
    fn stats(&self) -> Vec<(String, u64)> {
        self.client().stats().expect("stats frame")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.shutdown();
            let _ = thread.join();
        }
    }
}

fn counter(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .map_or(u64::MAX, |(_, v)| *v)
}

/// One TCP round trip of request `i`, judged against the in-process
/// reference for its grid slot; the report is kept for the digest prefix.
fn tcp_round_trip(
    client: &mut Client,
    pop: &Population,
    reference: &[HptReport],
    i: u64,
) -> (Duration, Verdict) {
    let request = pop.request(i);
    let t = Instant::now();
    let reply = client.run_campaign(&request, None);
    let took = t.elapsed();
    let verdict = match reply {
        Ok(r) if r.id == i && r.report == reference[(i % GRID_PERIOD) as usize] => {
            Ok((i < GRID_PERIOD).then(|| Box::new(r.report)))
        }
        Ok(r) => Err(format!(
            "request {i}: reply for id {} or report differs",
            r.id
        )),
        Err(e) => Err(format!("request {i}: {e}")),
    };
    (took, verdict)
}

/// A reply's judgement: an error, or success with the report kept when
/// it belongs to the digest prefix (boxed, so the sample log stays small
/// at thousands of requests per second).
type Verdict = Result<Option<Box<HptReport>>, String>;

/// Splits closed-loop samples into round trips (ms), failures and the
/// digest-prefix reports by request index.
fn tally(samples: Vec<Sample<Verdict>>, out: &mut Outcome) -> (Vec<f64>, BTreeMap<u64, HptReport>) {
    let mut rtt = Vec::with_capacity(samples.len());
    let mut prefix = BTreeMap::new();
    for (i, took, verdict) in samples {
        rtt.push(stats::ms(took));
        match verdict {
            Ok(Some(report)) => {
                prefix.insert(i, *report);
            }
            Ok(None) => {}
            Err(e) => {
                out.failed += 1;
                if out.failed <= 3 {
                    out.note(format!("failed: {e}"));
                }
            }
        }
    }
    (rtt, prefix)
}

/// The timed serve-tcp run.
pub fn run(pop: &Population, cfg: RunConfig, out: &mut Outcome) {
    let clients = stats::nproc();
    let reference = crate::serial_reports(&pop.requests(0..GRID_PERIOD));
    let setup = pop.setup_requests();
    // Set-up: bind to the reply for one request per (scenario, estimator)
    // pair; the timed phase reuses the last set-up's server.
    let (setup_s, reps, served) = crate::repeated_setup(|| {
        let t = Instant::now();
        let served = Served::bind(clients);
        let mut client = served.client();
        for req in &setup {
            let ok = client.run_campaign(req, None).is_ok_and(|r| r.id == req.id);
            out.check(ok, || format!("set-up request {} failed", req.id));
        }
        (t.elapsed(), served)
    });

    let connections: Vec<Client> = (0..clients).map(|_| served.client()).collect();
    let steal0 = stats::host_steal_ticks();
    let (samples, wall) = closed_loop(connections, cfg.seconds, |client, i| {
        tcp_round_trip(client, pop, &reference, i)
    });
    let steal_s = stats::host_steal_ticks()
        .zip(steal0)
        .map_or(f64::NAN, |(b, a)| (b - a) as f64 / 100.0);
    out.attempted = samples.len() as u64;
    let (rtt, mut prefix) = tally(samples, out);
    let completed = out.attempted - out.failed;
    // A short phase may end before the digest prefix (one grid period)
    // has completed: the rest go over TCP outside the timing.
    let mut client = served.client();
    for i in 0..GRID_PERIOD {
        if prefix.contains_key(&i) {
            continue;
        }
        match tcp_round_trip(&mut client, pop, &reference, i).1 {
            Ok(Some(report)) => {
                prefix.insert(i, *report);
            }
            _ => out.check(false, || format!("digest-prefix request {i} failed")),
        }
    }
    drop(client);

    let counters = served.stats();
    for name in ["throttled", "overloaded"] {
        let n = counter(&counters, name);
        out.check(n == 0, || format!("server counted {n} {name} requests"));
    }
    drop(served);

    // Determinism: the TCP replies against the in-process reference, and
    // against earlier runs.
    out.settle_digest(
        pop.kind().name(),
        cfg.seed,
        &pop.requests(0..GRID_PERIOD),
        stats::report_digest(prefix.values()),
        stats::report_digest(&reference),
    );
    out.note(format!(
        "timed: {} requests over {clients} connections in {:.2} s, {} completed; peak queue \
         depth {}; host steal {steal_s:.2} s; set-up median of {reps}; p50/p90 over {} samples",
        out.attempted,
        wall.as_secs_f64(),
        completed,
        counter(&counters, "peak_queue_depth"),
        rtt.len(),
    ));

    out.metric(
        "campaigns_per_s",
        completed as f64 / wall.as_secs_f64(),
        "campaigns/s",
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("latency_p50_ms", median(&rtt), "ms");
    out.metric("latency_p90_ms", percentile(&rtt, 90.0), "ms");
    out.metric(
        "peak_rss_mb",
        stats::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
}

/// The worker's single-request path (`WorkPayload::Single`): pool from
/// the pool tier, learned estimators from the predictor tier, one
/// `Campaign::run_*` call.
fn single_request(
    pools: &PoolCache,
    curves: &CurveCache,
    predictors: &PredictorCache,
    req: &CampaignRequest,
) -> HptReport {
    let pool = pools.get(req.scenario);
    let campaign = req.campaign();
    match PredictorKind::from_spec(&req.estimator) {
        Some(kind) => {
            let trained = predictors.get(kind, req.scenario, &pool);
            campaign.run_with_estimator(&pool, curves, trained.as_ref())
        }
        None => campaign.run_with_cache(&pool, curves),
    }
}

/// Seconds of closed loop for the compute and in-process layers.
const LAYER_SECONDS: f64 = 1.0;

/// Frames timed through the wire codec (four grid periods).
const LAYER_SAMPLES: u64 = 64;

/// The traced serving layers over the replay grid `pop`, outside in:
/// compute, in-process server, wire codec, then TCP for `net_seconds`.
/// The p50 round trip splits into compute, in-process queueing, wire and
/// transport wait.
pub fn trace(pop: &Population, net_seconds: f64, out: &mut Outcome) {
    let workers = stats::nproc();
    let reference = crate::serial_reports(&pop.requests(0..GRID_PERIOD));
    let same = |i: u64, report: &HptReport| *report == reference[(i % GRID_PERIOD) as usize];
    let (pools, curves, predictors) = (PoolCache::new(), CurveCache::new(), PredictorCache::new());
    for req in pop.requests(0..GRID_PERIOD) {
        single_request(&pools, &curves, &predictors, &req);
    }

    // Compute: the single-request path on warm tiers, one caller.
    let (samples, _) = closed_loop(vec![()], LAYER_SECONDS, |(), i| {
        let req = pop.request(i);
        let t = Instant::now();
        let report = single_request(&pools, &curves, &predictors, &req);
        let took = t.elapsed();
        (
            took,
            if same(i, &report) {
                Ok(None)
            } else {
                Err(format!("single path report {i} differs"))
            },
        )
    });
    out.attempted += samples.len() as u64;
    let (compute, _) = tally(samples, out);

    // In-process server on the same warm tiers: submit to reply, no
    // socket. `try_submit` is the call the TCP dispatcher makes.
    let server = CampaignServer::start_with_tiers(
        ServerConfig::with_workers(workers),
        pools.clone(),
        curves.clone(),
        predictors.clone(),
    );
    let callers = vec![&server; workers];
    let (samples, _) = closed_loop(callers, LAYER_SECONDS, |server, i| {
        let request = pop.request(i);
        let t = Instant::now();
        let outcome = server
            .try_submit(request, None)
            .ok()
            .and_then(|rx| rx.recv().ok());
        let took = t.elapsed();
        let verdict = match outcome {
            Some(WorkOutcome::Done(r)) if r.id == i && same(i, &r.report) => Ok(None),
            _ => Err(format!("in-process request {i} failed or differs")),
        };
        (took, verdict)
    });
    out.attempted += samples.len() as u64;
    let (inproc, _) = tally(samples, out);
    server.shutdown();

    // Wire: encode and decode each frame (request on the client and the
    // server side, response on the server and the client side).
    let (mut request_us, mut response_us) = (Vec::new(), Vec::new());
    for i in 0..LAYER_SAMPLES {
        let request = pop.request(i);
        let t = Instant::now();
        let decoded = wire::decode_client_frame(&wire::encode_request_frame(&request, None));
        request_us.push(t.elapsed().as_secs_f64() * 1e6);
        let response = CampaignResponse {
            id: i,
            report: reference[(i % GRID_PERIOD) as usize].clone(),
        };
        let t = Instant::now();
        let back = wire::decode_server_frame(&wire::encode_response(&response));
        response_us.push(t.elapsed().as_secs_f64() * 1e6);
        let ok = matches!(decoded, Ok(ClientFrame::Request { request: r, .. }) if r == request)
            && matches!(back, Ok(ServerFrame::Response(r)) if r == response);
        out.check(ok, || format!("wire round trip of frame {i} changed it"));
    }

    // TCP: warm the server's own tiers with the set-up pairs, then the
    // closed loop.
    let served = Served::bind(workers);
    let mut client = served.client();
    for req in pop.setup_requests() {
        out.check(client.run_campaign(&req, None).is_ok(), || {
            "TCP warm-up failed".into()
        });
    }
    drop(client);
    let connections: Vec<Client> = (0..workers).map(|_| served.client()).collect();
    let (samples, _) = closed_loop(connections, net_seconds, |client, i| {
        tcp_round_trip(client, pop, &reference, i)
    });
    out.attempted += samples.len() as u64;
    let (net, _) = tally(samples, out);
    let counters = served.stats();
    drop(served);

    let compute_ms = median(&compute);
    let inproc_ms = median(&inproc);
    let wire_ms = (median(&request_us) + median(&response_us)) / 1e3;
    let net_ms = median(&net);
    out.metric("core.campaign_ms", compute_ms, "ms");
    out.metric("server.inproc_rtt_ms", inproc_ms, "ms");
    out.metric("server.queue_ms", inproc_ms - compute_ms, "ms");
    out.metric("wire.request_us", median(&request_us), "us");
    out.metric("wire.response_us", median(&response_us), "us");
    out.metric("net.rtt_ms", net_ms, "ms");
    out.metric("net.wait_ms", net_ms - inproc_ms - wire_ms, "ms");
    for (metric, name) in [
        ("server.queue_peak", "peak_queue_depth"),
        ("server.throttled", "throttled"),
        ("server.overloaded", "overloaded"),
    ] {
        out.metric(metric, counter(&counters, name) as f64, "count");
    }
    out.note(format!(
        "p50 round trip {net_ms:.3} ms = compute {compute_ms:.3} + in-process queue {:.3} + \
         wire {wire_ms:.3} + transport wait {:.3} ms ({} TCP, {} in-process samples; {workers} \
         connections, {workers} workers)",
        inproc_ms - compute_ms,
        net_ms - inproc_ms - wire_ms,
        net.len(),
        inproc.len(),
    ));
}
