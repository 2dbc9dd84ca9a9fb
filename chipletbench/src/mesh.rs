//! `mesh-sweep`: `mesh::run_mesh` in the benchmark process against two
//! in-process mesh-worker daemons (`ServiceConfig::tcp("127.0.0.1:0",
//! token).as_mesh_worker()`, one scheduler worker each), over a
//! 24-scenario quick sweep shaped like
//! `examples/sweeps/chiplet_grid.sweep`, warmed in set-up on both
//! workers. The only workload that runs `mesh` and TCP authentication.
//!
//! Set-up computes the sweep's one-shot reference; every merged report,
//! stripped of its counter objects, must equal it byte for byte.

use std::io::{BufReader, BufWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use chipletqc::chipletqc_math::rng::Seed;
use chipletqc::chipletqc_store::remote;
use chipletqc::lab::{CacheHub, LabConfig};
use chipletqc_engine::mesh::{decode_pieces, merge_report, partition, run_mesh, MeshConfig};
use chipletqc_engine::protocol::{read_response, write_request, Request, Response, Submission};
use chipletqc_engine::report::strip_counter_objects;
use chipletqc_engine::scenario::Scenario;
use chipletqc_engine::scheduler::Scheduler;
use chipletqc_engine::service::{request_endpoint, Endpoint, Service, ServiceConfig};

use crate::kernels::{self, HistogramDelta};
use crate::measure::{self, cpu_seconds, now_us};
use crate::serve::Daemon;
use crate::{Ctx, Layers, Run};

const MESH_WORKERS: usize = 2;
/// Work units the coordinator carves by default (3 per worker).
const UNITS: usize = 3 * MESH_WORKERS;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn sweep_text(seed: u64) -> String {
    let (a, b) = (seed * 2 + 7, seed * 2 + 8);
    format!(
        "name = grid\nkind = fig8\nscale = quick\ngrid = 10q2x2, 10q2x3, 10q3x3\n\
         link_ratio = 1, 2.5\nsigma_f = 0.014, 0.02\nbatch = 120\nseed = {a}, {b}\n"
    )
}

/// A bound, warmed two-worker mesh.
struct Mesh {
    daemons: Vec<Daemon>,
    config: MeshConfig,
}

/// Binds the workers, checks each answers the whole sweep with the
/// reference (which also warms its hub), and runs one mesh warm-up.
fn set_up(submission: &Submission, reference: &str, token: &str) -> Result<Mesh, String> {
    let mut daemons = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..MESH_WORKERS {
        let config = ServiceConfig {
            default_workers: Some(1),
            ..ServiceConfig::tcp("127.0.0.1:0", token).as_mesh_worker()
        };
        let service =
            Service::bind(config, None).map_err(|e| format!("bind mesh worker: {e}"))?;
        let addr = service.tcp_addr().ok_or("mesh worker has no TCP address")?.to_string();
        let endpoint = Endpoint::Tcp { addr: addr.clone(), token: token.to_string() };
        daemons.push(Daemon::start(service, endpoint));
        addrs.push(addr);
    }
    for daemon in &daemons {
        match request_endpoint(&daemon.endpoint, &Request::Submit(submission.clone())) {
            Ok(Response::Report { report, .. })
                if strip_counter_objects(&report) == reference => {}
            other => return Err(format!("mesh worker warm-up answered {other:?}")),
        }
    }
    let config = MeshConfig::new(addrs, token);
    let warm = run_mesh(submission, &config)?;
    if strip_counter_objects(&warm.report.to_json()) != reference {
        return Err("mesh warm-up report differs from the reference".into());
    }
    Ok(Mesh { daemons, config })
}

/// Claims every unit of the sweep straight from the first worker: the
/// pieces frames a coordinator receives for one batch.
fn capture_pieces(
    mesh: &Mesh,
    submission: &Submission,
    scenarios: &[Scenario],
) -> Result<Vec<Response>, String> {
    let addr = &mesh.config.workers[0];
    let timeout = Some(Duration::from_secs(60));
    partition(scenarios.len(), UNITS)
        .into_iter()
        .map(|range| {
            let unit = Submission {
                only: Some(scenarios[range].iter().map(|s| s.name.clone()).collect()),
                ..submission.clone()
            };
            let stream =
                remote::connect(addr, timeout, timeout).map_err(|e| format!("claim: {e}"))?;
            let mut writer = BufWriter::new(&stream);
            remote::write_hello(&mut writer, &mesh.config.token)
                .map_err(|e| format!("claim: {e}"))?;
            write_request(&mut writer, &Request::WorkClaim(unit))
                .map_err(|e| format!("claim: {e}"))?;
            drop(writer);
            match read_response(&mut BufReader::new(&stream)) {
                Ok(frame @ Response::WorkResult { .. }) => Ok(frame),
                other => Err(format!("work claim answered {other:?}")),
            }
        })
        .collect()
}

/// Timed mesh batches until the window has passed and there are enough
/// for a p90. Returns (merged reports' campaigns, units, retries,
/// batches).
fn phase(
    ctx: &Ctx,
    mesh: &Mesh,
    submission: &Submission,
    reference: &str,
    run: &mut Run,
    base: u64,
) -> (u64, u64, u64, usize) {
    let min_batches = if ctx.tiny { 10 } else { 100 };
    let (mut campaigns, mut units, mut retries, mut batches) = (0, 0, 0, 0);
    let cpu = cpu_seconds();
    let start = Instant::now();
    while batches < min_batches || start.elapsed().as_secs_f64() < ctx.seconds {
        let id = base + batches as u64;
        let t0 = Instant::now();
        let outcome = ctx.tracer.span("batch", id, 0, |root| {
            let merged = ctx
                .tracer
                .span("mesh.run_mesh", id, root, |_| run_mesh(submission, &mesh.config));
            merged.map(|m| {
                let report = m.report.to_json();
                let ok = ctx.tracer.span("verify", id, root, |_| {
                    catch_unwind(AssertUnwindSafe(|| strip_counter_objects(&report)))
                        .is_ok_and(|stripped| stripped == reference)
                });
                (ok, m.summary, kernels::report_campaigns(&report))
            })
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        batches += 1;
        let ok = match outcome {
            Ok((ok, summary, fab)) => {
                units += summary.units as u64;
                retries += summary.retries;
                campaigns += fab;
                if !ok {
                    eprintln!(
                        "chipletbench: mesh batch {id} report differs from the reference"
                    );
                }
                ok
            }
            Err(error) => {
                eprintln!("chipletbench: mesh batch {id}: {error}");
                false
            }
        };
        run.count(ok);
        if ok {
            run.batch_ms.push(ms);
        }
    }
    run.window_s += start.elapsed().as_secs_f64();
    run.cpu_s += cpu_seconds() - cpu;
    (campaigns, units, retries, batches)
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let text = sweep_text(ctx.seed);
    let submission = Submission { sweep_text: Some(text.clone()), ..Submission::default() };
    let scenarios = kernels::sweep_scenarios(&text)?;
    let token = format!("chipletbench-{}-{}", ctx.seed, std::process::id());

    let ((mesh, reference), setup_s) = measure::median_setup(SETUPS, |_| {
        let hub = CacheHub::new();
        let results = Scheduler::new(ctx.workers).run(&scenarios, &hub);
        let reference = strip_counter_objects(&kernels::report_json(&results, &hub));
        Ok((set_up(&submission, &reference, &token)?, reference))
    })?;
    let mut run = Run { setup_s, ..Run::default() };

    phase(ctx, &mesh, &submission, &reference, &mut run, 0);
    if !ctx.tracer.enabled() {
        for daemon in mesh.daemons {
            daemon.stop()?;
        }
        return Ok(run);
    }

    ctx.arm_program_trace()?;
    let unit = HistogramDelta::start("mesh.unit");
    let queue_wait = HistogramDelta::start("scheduler.queue_wait");
    let wins = kernels::counter("mesh.speculation_wins");
    let traced_start = now_us();
    let mut traced_run = Run::default();
    let (campaigns, units, retries, batches) =
        phase(ctx, &mesh, &submission, &reference, &mut traced_run, 1_000_000);
    let traced_end = now_us();
    let (unit_ms, unit_samples) = unit.mean_ms();
    let (queue_wait_ms, _) = queue_wait.mean_ms();
    let wins = kernels::counter("mesh.speculation_wins") - wins;
    let frames = capture_pieces(&mesh, &submission, &scenarios)?;
    let mut dropped = 0;
    let mut cancelled = 0;
    for daemon in mesh.daemons {
        let summary = daemon.stop()?;
        dropped += summary.dropped_replies;
        cancelled += summary.cancelled;
    }
    run.attempted += traced_run.attempted;
    run.failed += traced_run.failed;
    let spans = ctx.program_spans(traced_start, traced_end);

    let mut layers = Layers::new();
    kernels::trace_overhead(&mut layers, &run.batch_ms, &traced_run.batch_ms);
    kernels::program_layers(&mut layers, &spans, batches);
    layers.insert(
        "scheduler.parallel_efficiency",
        kernels::task_utilization(&spans, MESH_WORKERS, traced_run.window_s),
    );
    layers.insert("scheduler.queue_wait_ms.mean", queue_wait_ms);
    layers.insert("lab.fabrication_campaigns", campaigns as f64 / batches.max(1) as f64);
    layers.insert("mesh.unit_ms.mean", unit_ms);
    layers.insert("mesh.units", units as f64 / batches.max(1) as f64);
    layers.insert("mesh.retries", retries as f64);
    layers.insert("mesh.speculation_wins", wins as f64);
    layers.insert("service.dropped_replies", dropped as f64);
    layers.insert("service.cancelled", cancelled as f64);
    eprintln!("chipletbench: {batches} traced mesh batch(es), {unit_samples} unit claim(s)");
    let covering = kernels::intervals(
        &spans,
        &["service.admission_wait", "scheduler.task", "service.reply"],
    );
    let covering = [covering, kernels::bench_intervals(ctx, &["verify"])].concat();
    let roots = kernels::bench_intervals(ctx, &["batch"])
        .into_iter()
        .filter(|(start, _)| *start >= traced_start)
        .collect();
    layers.insert("trace.coverage", measure::coverage(covering, roots));

    // Decode + merge of one batch's captured pieces.
    let texts: Vec<&str> = frames
        .iter()
        .filter_map(|f| match f {
            Response::WorkResult { pieces } => Some(pieces.as_str()),
            _ => None,
        })
        .collect();
    let mut merged_ok = true;
    let decode_merge_us = ctx.tracer.span("replay.mesh.decode_merge", 0, 0, |_| {
        measure::median_us(15, || {
            let outcomes: Result<Vec<_>, _> = texts.iter().map(|t| decode_pieces(t)).collect();
            let merged =
                outcomes.map_err(|e| e.to_string()).and_then(|o| merge_report(&scenarios, o));
            merged_ok &= merged.is_ok_and(|r| strip_counter_objects(&r.to_json()) == reference);
        })
    });
    if !merged_ok {
        return Err("captured pieces do not merge into the reference report".into());
    }
    layers.insert("mesh.decode_merge_ms", decode_merge_us / 1e3);
    kernels::protocol(ctx, &mut layers, &frames)?;

    // Kernel replays on the sweep's own chiplets, sizes and systems.
    let lab = LabConfig::quick().with_batch(120).with_seed(Seed(ctx.seed * 2 + 7));
    let (specs, chiplets, monos) = kernels::systems(&scenarios);
    kernels::yield_campaign(ctx, &mut layers, &lab, &chiplets);
    kernels::yield_trial(ctx, &mut layers, &monos, 200, ctx.seed);
    kernels::collision_check(ctx, &mut layers, 10, ctx.seed);
    let hub = CacheHub::new();
    kernels::assemble(ctx, &mut layers, &lab, &specs, &hub);
    let results = Scheduler::new(ctx.workers).run(&scenarios, &hub);
    kernels::render(ctx, &mut layers, &results, &hub);
    kernels::experiments(ctx, &mut layers, &scenarios, &CacheHub::new());
    run.layers = layers;
    Ok(run)
}
