//! `serve-mix`: an in-process daemon (`Service::bind` on a scratch
//! Unix socket, default admission, no store) driven by one closed-loop
//! client per hardware thread. Each client sends its own seeded
//! sequence of small quick-scale Fig. 8 sweeps (2–6 scenarios from
//! 10q/20q grids × σ_f):
//!
//! * 4 in 5 repeat one of the sweeps set-up warmed — warm-hub reads;
//! * 1 in 5 names a seed never used before — fabrication that
//!   populates the hub, writes beside the reads;
//! * a `status` request follows every 10th submission.
//!
//! Set-up computes every submission's reference report one-shot
//! (`Scheduler::run` + `RunReport` on a separate hub); every reply,
//! stripped of its counter objects, must equal it byte for byte.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use chipletqc::chipletqc_math::rng::Seed;
use chipletqc::lab::{CacheHub, LabConfig};
use chipletqc_engine::protocol::{Request, Response, Submission};
use chipletqc_engine::report::strip_counter_objects;
use chipletqc_engine::scheduler::Scheduler;
use chipletqc_engine::service::{
    request_endpoint, Endpoint, Service, ServiceConfig, ServiceSummary,
};

use crate::kernels::{self, HistogramDelta};
use crate::measure::{self, cpu_seconds, now_us};
use crate::{Ctx, Layers, Run};

const GRIDS: [&str; 5] = ["10q2x2", "10q2x3", "10q3x3", "20q2x2", "20q2x3"];
const SIGMAS: [&str; 2] = ["0.014", "0.02"];
/// Distinct sweeps warmed in set-up.
const WARM_SWEEPS: u64 = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Submissions generated per client per measured second — the most a
/// client can send before its sequence runs out (about twice what a
/// client reaches against the current daemon).
const SEQUENCE_RATE: f64 = 60.0;

/// A small deterministic generator (SplitMix64): inputs depend on
/// `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random quick Fig. 8 sweep of 2–6 scenarios at root seed `seed`.
fn sweep_text(rng: &mut Rng, seed: u64) -> String {
    let (grids, sigmas) = loop {
        let (g, s) = (1 + rng.below(3) as usize, 1 + rng.below(2) as usize);
        if g * s >= 2 {
            break (g, s);
        }
    };
    let mut pool: Vec<&str> = GRIDS.to_vec();
    let mut picked = Vec::new();
    for _ in 0..grids {
        picked.push(pool.remove(rng.below(pool.len() as u64) as usize));
    }
    let first = rng.below(2) as usize;
    let sigma: Vec<&str> = (0..sigmas).map(|i| SIGMAS[(first + i) % 2]).collect();
    format!(
        "name = mix\nkind = fig8\nscale = quick\ngrid = {}\nsigma_f = {}\nseed = {seed}\n",
        picked.join(", "),
        sigma.join(", ")
    )
}

/// A submission and the stripped report it must produce.
#[derive(Clone)]
struct Item {
    text: Arc<String>,
    reference: Arc<String>,
}

/// The one-shot reference of a sweep, stripped of counter objects.
fn reference(text: &str, hub: &CacheHub) -> Result<String, String> {
    let scenarios = kernels::sweep_scenarios(text)?;
    let results = Scheduler::new(1).run(&scenarios, hub);
    Ok(strip_counter_objects(&kernels::report_json(&results, hub)))
}

/// Computes references for `texts` on up to `threads` threads, each
/// on a fresh hub so a sweep's products never outlive it.
fn references(texts: &[String], threads: usize) -> Result<Vec<String>, String> {
    let chunk = texts.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = texts
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|t| reference(t, &CacheHub::new()))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(texts.len());
        for handle in handles {
            out.extend(handle.join().map_err(|_| "reference computation panicked")??);
        }
        Ok(out)
    })
}

/// An in-process daemon, shut down and joined however the run ends.
pub struct Daemon {
    pub endpoint: Endpoint,
    thread: Option<JoinHandle<std::io::Result<ServiceSummary>>>,
}

impl Daemon {
    pub fn start(service: Service, endpoint: Endpoint) -> Daemon {
        let thread = std::thread::spawn(move || service.run(|| false));
        Daemon { endpoint, thread: Some(thread) }
    }

    /// Asks the daemon to drain and waits for it: its lifetime summary.
    pub fn stop(mut self) -> Result<ServiceSummary, String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<ServiceSummary, String> {
        let Some(thread) = self.thread.take() else {
            return Err("daemon already stopped".into());
        };
        match request_endpoint(&self.endpoint, &Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            other => eprintln!("chipletbench: daemon shutdown answered {other:?}"),
        }
        thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// (round-trip ms, verified) per submission.
    submits: Vec<(f64, bool)>,
    statuses: Vec<(f64, bool)>,
    /// Round trip minus the reply's own summed scenario time, ms.
    overhead_ms: Vec<f64>,
    campaigns: u64,
    last_reply: Option<Response>,
}

/// Sends one submission and verifies the reply.
fn submit(ctx: &Ctx, endpoint: &Endpoint, item: &Item, id: u64, log: &mut ClientLog) {
    let request = Request::Submit(Submission {
        sweep_text: Some(item.text.to_string()),
        ..Submission::default()
    });
    let start = Instant::now();
    let ok = ctx.tracer.span("client.submit", id, 0, |root| {
        match request_endpoint(endpoint, &request) {
            Ok(reply @ Response::Report { .. }) => {
                let Response::Report { timing, report, .. } = &reply else { unreachable!() };
                let ok = ctx.tracer.span("client.verify", id, root, |_| {
                    catch_unwind(AssertUnwindSafe(|| strip_counter_objects(report)))
                        .is_ok_and(|stripped| stripped == *item.reference)
                });
                let rtt = start.elapsed().as_secs_f64() * 1e3;
                if let Some(compute_s) = summed_scenario_seconds(timing) {
                    log.overhead_ms.push(rtt - compute_s * 1e3);
                }
                log.campaigns += kernels::report_campaigns(report);
                log.last_reply = Some(reply);
                if !ok {
                    eprintln!(
                        "chipletbench: submission {id} report differs from the reference"
                    );
                }
                ok
            }
            other => {
                eprintln!("chipletbench: submission {id} answered {other:?}");
                false
            }
        }
    });
    log.submits.push((start.elapsed().as_secs_f64() * 1e3, ok));
}

fn status(ctx: &Ctx, endpoint: &Endpoint, id: u64, log: &mut ClientLog) {
    let start = Instant::now();
    let ok = ctx.tracer.span("client.status", id, 0, |_| {
        matches!(request_endpoint(endpoint, &Request::Status), Ok(Response::Status { .. }))
    });
    log.statuses.push((start.elapsed().as_secs_f64() * 1e3, ok));
}

/// The `total … (sum of scenario times)` line of a reply's timing.
fn summed_scenario_seconds(timing: &str) -> Option<f64> {
    let line = timing.lines().find(|l| l.trim_start().starts_with("total"))?;
    line.split_whitespace().nth(1)?.trim_end_matches('s').parse().ok()
}

/// Client sequences for one measured phase: `clients` lists of
/// submissions, every fifth one a never-used seed.
fn sequences(
    ctx: &Ctx,
    phase: u64,
    warm: &[Item],
    clients: usize,
) -> Result<Vec<Vec<Item>>, String> {
    let len = (SEQUENCE_RATE * ctx.seconds).ceil() as usize + 20;
    let mut plan: Vec<Vec<Result<Item, String>>> = Vec::new();
    for client in 0..clients as u64 {
        let mut rng =
            Rng::new(ctx.seed.wrapping_mul(31).wrapping_add(client * 7 + phase * 1009));
        let mut seq = Vec::with_capacity(len);
        for i in 0..len as u64 {
            if i % 5 == 4 {
                let seed = 1_000_000_000
                    + ctx.seed * 10_000_000
                    + phase * 1_000_000
                    + client * 100_000
                    + i;
                seq.push(Err(sweep_text(&mut rng, seed)));
            } else {
                seq.push(Ok(warm[rng.below(warm.len() as u64) as usize].clone()));
            }
        }
        plan.push(seq);
    }
    let texts: Vec<String> =
        plan.iter().flatten().filter_map(|entry| entry.as_ref().err().cloned()).collect();
    let mut refs = references(&texts, ctx.workers)?.into_iter();
    Ok(plan
        .into_iter()
        .map(|seq| {
            seq.into_iter()
                .map(|entry| match entry {
                    Ok(item) => item,
                    Err(text) => Item {
                        text: Arc::new(text),
                        reference: Arc::new(refs.next().unwrap_or_default()),
                    },
                })
                .collect()
        })
        .collect())
}

/// One measured phase: every client runs its sequence until the
/// window has passed and the run holds enough batches for a p90.
fn phase(
    ctx: &Ctx,
    endpoint: &Endpoint,
    seqs: &[Vec<Item>],
    run: &mut Run,
    base_id: u64,
) -> ClientLog {
    let min_batches = if ctx.tiny { 10 } else { 100 };
    let done = AtomicUsize::new(0);
    let cpu = cpu_seconds();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(client, seq)| {
                let done = &done;
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    for (i, item) in seq.iter().enumerate() {
                        if start.elapsed().as_secs_f64() >= ctx.seconds
                            && done.load(Ordering::Relaxed) >= min_batches
                        {
                            break;
                        }
                        let id = base_id + client as u64 * 1_000_000 + i as u64;
                        submit(ctx, endpoint, item, id, &mut log);
                        done.fetch_add(1, Ordering::Relaxed);
                        if (i + 1) % 10 == 0 {
                            status(ctx, endpoint, id, &mut log);
                        }
                        if i + 1 == seq.len() {
                            eprintln!(
                                "chipletbench: client {client} ran out of its {} submissions",
                                seq.len()
                            );
                        }
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    });
    run.window_s += start.elapsed().as_secs_f64();
    run.cpu_s += cpu_seconds() - cpu;
    let mut merged = ClientLog::default();
    for log in logs {
        for &(_, ok) in log.submits.iter().chain(&log.statuses) {
            run.count(ok);
        }
        run.batch_ms.extend(log.submits.iter().filter(|(_, ok)| *ok).map(|(ms, _)| *ms));
        merged.submits.extend(log.submits);
        merged.statuses.extend(log.statuses);
        merged.overhead_ms.extend(log.overhead_ms);
        merged.campaigns += log.campaigns;
        if log.last_reply.is_some() {
            merged.last_reply = log.last_reply;
        }
    }
    merged
}

/// One set-up: a bound daemon whose hub holds the warm sweeps, and the
/// measured phase's client sequences with their references.
struct Setup {
    daemon: Daemon,
    warm: Vec<Item>,
    seqs: Vec<Vec<Item>>,
}

fn set_up(ctx: &Ctx, rep: usize, warm_texts: &[String]) -> Result<Setup, String> {
    let socket = ctx.path(&format!("d{rep}.sock"));
    let service = Service::bind(ServiceConfig::new(&socket), None)
        .map_err(|e| format!("bind daemon on {}: {e}", socket.display()))?;
    let daemon = Daemon::start(service, Endpoint::Unix(socket));
    let warm: Vec<Item> = warm_texts
        .iter()
        .zip(references(warm_texts, ctx.workers)?)
        .map(|(text, reference)| Item {
            text: Arc::new(text.clone()),
            reference: Arc::new(reference),
        })
        .collect();
    let seqs = sequences(ctx, 0, &warm, ctx.workers)?;
    // Warm the daemon's hub: each warm sweep once, verified.
    let mut warmup = ClientLog::default();
    for (k, item) in warm.iter().enumerate() {
        submit(ctx, &daemon.endpoint, item, k as u64, &mut warmup);
    }
    if warmup.submits.iter().any(|(_, ok)| !ok) {
        return Err("a warm-up submission failed verification".into());
    }
    Ok(Setup { daemon, warm, seqs })
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut rng = Rng::new(ctx.seed);
    let warm_seed = |k: u64| ctx.seed * 10 + k % 2;
    let warm_texts: Vec<String> =
        (0..WARM_SWEEPS).map(|k| sweep_text(&mut rng, warm_seed(k))).collect();
    let (Setup { daemon, warm, seqs }, setup_s) =
        measure::median_setup(SETUPS, |rep| set_up(ctx, rep, &warm_texts))?;
    let endpoint = daemon.endpoint.clone();
    let mut run = Run { setup_s, ..Run::default() };

    phase(ctx, &endpoint, &seqs, &mut run, 1_000_000_000);
    if !ctx.tracer.enabled() {
        let summary = daemon.stop()?;
        if summary.dropped_replies > 0 || summary.cancelled > 0 {
            eprintln!("chipletbench: daemon summary {summary:?}");
        }
        return Ok(run);
    }

    // Traced run: a second phase on fresh sequences with the engine's
    // spans on, then the replays.
    let traced_seqs = sequences(ctx, 1, &warm, ctx.workers)?;
    ctx.arm_program_trace()?;
    let queue_wait = HistogramDelta::start("scheduler.queue_wait");
    let traced_start = now_us();
    let mut traced_run = Run::default();
    let log = phase(ctx, &endpoint, &traced_seqs, &mut traced_run, 2_000_000_000);
    let traced_end = now_us();
    let (queue_wait_ms, _) = queue_wait.mean_ms();
    let summary = daemon.stop()?;
    run.attempted += traced_run.attempted;
    run.failed += traced_run.failed;
    let spans = ctx.program_spans(traced_start, traced_end);

    let mut layers = Layers::new();
    let batches = log.submits.len();
    kernels::trace_overhead(&mut layers, &run.batch_ms, &traced_run.batch_ms);
    kernels::program_layers(&mut layers, &spans, batches);
    layers.insert(
        "scheduler.parallel_efficiency",
        kernels::task_utilization(&spans, ctx.workers, traced_run.window_s),
    );
    layers.insert("scheduler.queue_wait_ms.mean", queue_wait_ms);
    layers.insert("lab.fabrication_campaigns", log.campaigns as f64 / batches.max(1) as f64);
    layers.insert("service.overhead_ms.p50", measure::median(&log.overhead_ms));
    let status_ms: Vec<f64> = log.statuses.iter().map(|(ms, _)| *ms).collect();
    layers.insert("service.status_ms.p50", measure::median(&status_ms));
    layers.insert("service.dropped_replies", summary.dropped_replies as f64);
    layers.insert("service.cancelled", summary.cancelled as f64);
    let covering = [
        kernels::intervals(
            &spans,
            &["service.admission_wait", "scheduler.task", "service.reply"],
        ),
        kernels::bench_intervals(ctx, &["client.verify"]),
    ]
    .concat();
    let requests = kernels::bench_intervals(ctx, &["client.submit"])
        .into_iter()
        .filter(|(start, _)| *start >= traced_start)
        .collect();
    layers.insert("trace.coverage", measure::coverage(covering, requests));
    eprintln!(
        "chipletbench: {batches} traced submission(s), {} status request(s), {} overhead sample(s)",
        log.statuses.len(),
        log.overhead_ms.len()
    );

    // Replays on this workload's inputs: the warm sweeps' chiplets,
    // monolithic sizes and systems.
    let lab = LabConfig::quick().with_seed(Seed(warm_seed(0)));
    let mut scenarios = Vec::new();
    for text in &warm_texts {
        scenarios.extend(kernels::sweep_scenarios(text)?);
    }
    let (specs, chiplets, monos) = kernels::systems(&scenarios);
    kernels::yield_campaign(ctx, &mut layers, &lab, &chiplets);
    kernels::yield_trial(ctx, &mut layers, &monos, 200, ctx.seed);
    kernels::collision_check(ctx, &mut layers, 20, ctx.seed);
    let hub = CacheHub::new();
    kernels::assemble(ctx, &mut layers, &lab, &specs, &hub);
    let frame = log.last_reply.ok_or("no reply captured")?;
    kernels::protocol(ctx, &mut layers, &[frame])?;
    let first = kernels::sweep_scenarios(&warm_texts[0])?;
    let results = Scheduler::new(ctx.workers).run(&first, &hub);
    kernels::render(ctx, &mut layers, &results, &hub);
    kernels::experiments(ctx, &mut layers, &first, &CacheHub::new());
    run.layers = layers;
    Ok(run)
}
