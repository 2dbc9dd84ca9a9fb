//! `paper-warm`: the paper-scale figure suite (nine scenarios) through
//! `resolve_batch` + `Scheduler::run`, each batch on a fresh
//! `CacheHub` over the readwrite `Store` set-up populated, flushed
//! before it counts as done: zero fabrication campaigns, the store's
//! read path against the compute that is never stored (Fig. 4 yield,
//! Fig. 10 transpile + ESP).
//!
//! Set-up is the cold suite: one batch on an empty store, which
//! populates it and yields the reference report, so `setup_s` is what
//! reproducing the paper from nothing costs. Every timed report must
//! equal the reference after `strip_counter_objects`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use chipletqc::chipletqc_math::rng::Seed;
use chipletqc::chipletqc_store::{CacheMode, Store, StoreStats};
use chipletqc::experiments::{fig10::Fig10Config, fig4::Fig4Config, fig8::Fig8Config};
use chipletqc::lab::{CacheHub, LabConfig};
use chipletqc_engine::protocol::Response;
use chipletqc_engine::report::strip_counter_objects;
use chipletqc_engine::scenario::{Scale, Scenario};
use chipletqc_engine::scheduler::{ScenarioResult, Scheduler};
use chipletqc_engine::suite::resolve_batch;

use crate::kernels::{self, HistogramDelta};
use crate::measure::{self, cpu_seconds, now_us};
use crate::{Ctx, Layers, Run};

/// One timed batch.
struct Batch {
    ok: bool,
    ms: f64,
    cpu_s: f64,
    results: Vec<ScenarioResult>,
    report: String,
    campaigns: usize,
    store: StoreStats,
}

struct Paper<'a> {
    ctx: &'a Ctx,
    suite: Vec<Scenario>,
    scheduler: Scheduler,
    reference: String,
    store_dir: PathBuf,
    /// Batches started so far (the request id of the next one).
    index: u64,
}

impl Paper<'_> {
    /// Runs, times and verifies one batch. A panic or a report that
    /// differs from the reference is a failed batch, never an abort.
    fn batch(&mut self) -> Batch {
        let index = self.index;
        self.index += 1;
        let tracer = &self.ctx.tracer;
        let cpu = cpu_seconds();
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            tracer.span("batch", index, 0, |root| {
                let store = tracer.span("store.open", index, root, |_| {
                    Store::open(&self.store_dir, CacheMode::ReadWrite)
                })?;
                let hub = CacheHub::new().with_store(store);
                let results = tracer.span("scheduler.run", index, root, |_| {
                    self.scheduler.run(&self.suite, &hub)
                });
                tracer.span("store.flush", index, root, |_| hub.flush_store());
                let report = tracer.span("report.render", index, root, |_| {
                    kernels::report_json(&results, &hub)
                });
                let ok = tracer.span("verify", index, root, |_| {
                    strip_counter_objects(&report) == self.reference
                });
                Ok::<_, std::io::Error>((ok, results, report, hub))
            })
        }));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let cpu_s = cpu_seconds() - cpu;
        eprintln!("chipletbench: batch {index}: {ms:.1} ms");
        match outcome {
            Ok(Ok((ok, results, report, hub))) => {
                if !ok {
                    eprintln!("chipletbench: batch {index} report differs from the reference");
                }
                Batch {
                    ok,
                    ms,
                    cpu_s,
                    results,
                    report,
                    campaigns: hub.fabrication_stats().total(),
                    store: hub.store_stats(),
                }
            }
            Ok(Err(error)) => {
                eprintln!("chipletbench: batch {index} store: {error}");
                Batch::failed(ms, cpu_s)
            }
            Err(_) => {
                eprintln!("chipletbench: batch {index} panicked");
                Batch::failed(ms, cpu_s)
            }
        }
    }

    /// Runs batches until `seconds` have passed (at least one), into
    /// `run`. The peak resident set is read after the first batch: the
    /// peak of set-up plus one batch, as a one-shot run sees it, not
    /// the allocator's retention across repeated batches.
    fn phase(&mut self, run: &mut Run) -> Vec<Batch> {
        let mut batches: Vec<Batch> = Vec::new();
        let started = Instant::now();
        while batches.is_empty() || started.elapsed().as_secs_f64() < self.ctx.seconds {
            let batch = self.batch();
            run.peak_rss_mb.get_or_insert_with(measure::peak_rss_mb);
            run.count(batch.ok);
            if batch.ok {
                run.batch_ms.push(batch.ms);
                run.window_s += batch.ms / 1e3;
                run.cpu_s += batch.cpu_s;
            }
            batches.push(batch);
        }
        batches
    }
}

impl Batch {
    fn failed(ms: f64, cpu_s: f64) -> Batch {
        Batch {
            ok: false,
            ms,
            cpu_s,
            results: Vec::new(),
            report: String::new(),
            campaigns: 0,
            store: StoreStats::default(),
        }
    }
}

fn open(dir: &Path, mode: CacheMode) -> Result<Store, String> {
    Store::open(dir, mode).map_err(|e| format!("open store {}: {e}", dir.display()))
}

/// Populates the empty `store` with one run of the suite and returns
/// its stripped report: the reference every timed batch must equal.
pub fn reference(
    tiny: bool,
    seed: u64,
    workers: usize,
    store: &Path,
) -> Result<String, String> {
    let scale = if tiny { Scale::Quick } else { Scale::Paper };
    let suite = resolve_batch(None, scale, None, Some(seed))?;
    let hub = CacheHub::new().with_store(open(store, CacheMode::ReadWrite)?);
    let results = Scheduler::new(workers).run(&suite, &hub);
    hub.flush_store();
    Ok(strip_counter_objects(&kernels::report_json(&results, &hub)))
}

/// Runs [`reference`] in a child process of this binary, so the
/// measured process's peak memory is the timed batches' alone (and not
/// whatever the cold suite left in the allocator).
fn reference_in_child(ctx: &Ctx, store: &Path) -> Result<String, String> {
    let out = ctx.path("reference.json");
    let exe =
        std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let mut child = Command::new(exe);
    child.args(["--workload", ctx.workload, "--seed", &ctx.seed.to_string()]);
    child
        .args(["--size", if ctx.tiny { "tiny" } else { "full" }])
        .arg("--reference-out")
        .arg(&out)
        .arg("--reference-store")
        .arg(store);
    let status = child.status().map_err(|e| format!("start the set-up process: {e}"))?;
    if !status.success() {
        return Err(format!("the set-up process failed ({status})"));
    }
    std::fs::read_to_string(&out).map_err(|e| format!("read {}: {e}", out.display()))
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let scale = if ctx.tiny { Scale::Quick } else { Scale::Paper };
    let suite = resolve_batch(None, scale, None, Some(ctx.seed))?;
    let scheduler = Scheduler::new(ctx.workers);
    let store_dir = ctx.path("store");

    let setup = Instant::now();
    let reference = reference_in_child(ctx, &store_dir)?;
    let mut run = Run { setup_s: setup.elapsed().as_secs_f64(), ..Run::default() };

    let mut paper = Paper { ctx, suite, scheduler, reference, store_dir, index: 0 };
    paper.phase(&mut run);
    if !ctx.tracer.enabled() {
        return Ok(run);
    }

    // Traced run: the engine's spans on, a second set of batches, then
    // the kernel replays on this workload's inputs.
    ctx.arm_program_trace()?;
    let queue_wait = HistogramDelta::start("scheduler.queue_wait");
    let mut traced_run = Run::default();
    let traced_start = now_us();
    let traced = paper.phase(&mut traced_run);
    let traced_end = now_us();
    let (queue_wait_ms, _) = queue_wait.mean_ms();
    run.attempted += traced_run.attempted;
    run.failed += traced_run.failed;
    let spans = ctx.program_spans(traced_start, traced_end);

    let mut layers = Layers::new();
    kernels::trace_overhead(&mut layers, &run.batch_ms, &traced_run.batch_ms);
    let ok: Vec<&Batch> = traced.iter().filter(|b| b.ok).collect();
    let task_wall: f64 =
        ok.iter().flat_map(|b| &b.results).map(|r| r.wall.as_secs_f64() * 1e3).sum();
    let batch_wall: f64 = ok.iter().map(|b| b.ms).sum();
    layers.insert(
        "scheduler.parallel_efficiency",
        if batch_wall > 0.0 { task_wall / (ctx.workers as f64 * batch_wall) } else { 0.0 },
    );
    kernels::program_layers(&mut layers, &spans, traced.len());
    layers.insert("scheduler.queue_wait_ms.mean", queue_wait_ms);
    layers.insert(
        "lab.fabrication_campaigns",
        measure::mean(&ok.iter().map(|b| b.campaigns as f64).collect::<Vec<_>>()),
    );
    let (hits, lookups) = ok
        .iter()
        .fold((0, 0), |(h, l), b| (h + b.store.hits, l + b.store.hits + b.store.misses));
    layers.insert(
        "store.hit_ratio",
        if lookups > 0 { hits as f64 / lookups as f64 } else { 0.0 },
    );
    eprintln!(
        "chipletbench: {} traced batch(es); store hit ratio base {lookups} lookup(s)",
        traced.len()
    );
    let covering = [
        kernels::intervals(&spans, &["scheduler.task"]),
        kernels::bench_intervals(
            ctx,
            &["store.open", "store.flush", "report.render", "verify"],
        ),
    ]
    .concat();
    let roots = kernels::bench_intervals(ctx, &["batch"])
        .into_iter()
        .filter(|(start, _)| *start >= traced_start)
        .collect();
    layers.insert("trace.coverage", measure::coverage(covering, roots));

    // Replays, on a hub over the populated store so bins and
    // populations are warm.
    let last = traced.last().ok_or("no traced batch")?;
    let replay_hub = CacheHub::new().with_store(open(&paper.store_dir, CacheMode::Read)?);
    let lab = if ctx.tiny { LabConfig::quick() } else { LabConfig::paper() }
        .with_seed(Seed(ctx.seed));
    let (fig4, fig8, fig10) = if ctx.tiny {
        (Fig4Config::quick(), Fig8Config::quick(), Fig10Config::quick())
    } else {
        (Fig4Config::paper(), Fig8Config::paper(), Fig10Config::paper())
    };
    let mut chiplets: Vec<usize> =
        fig8.systems.iter().map(|s| s.chiplet().num_qubits()).collect();
    chiplets.sort_unstable();
    chiplets.dedup();
    kernels::yield_campaign(ctx, &mut layers, &lab, &chiplets);
    kernels::yield_trial(
        ctx,
        &mut layers,
        &fig4.sizes,
        if ctx.tiny { 20 } else { 100 },
        ctx.seed,
    );
    kernels::collision_check(ctx, &mut layers, 100, ctx.seed);
    kernels::assemble(ctx, &mut layers, &lab, &fig8.systems, &replay_hub);
    kernels::transpile(ctx, &mut layers, &Fig10Config { lab, ..fig10 }, &replay_hub);
    kernels::store_io(ctx, &mut layers, &paper.store_dir, &ctx.path("store-put"))?;
    let frame = Response::Report {
        batch: 1,
        timing: chipletqc_engine::report::batch_timing_summary(1, &last.results, ctx.workers),
        report: last.report.clone(),
    };
    kernels::protocol(ctx, &mut layers, &[frame])?;
    kernels::render(ctx, &mut layers, &last.results, &replay_hub);
    // The suite once more, scenario by scenario, on a fresh hub over
    // the populated store.
    let serial_hub = CacheHub::new().with_store(open(&paper.store_dir, CacheMode::Read)?);
    kernels::experiments(ctx, &mut layers, &paper.suite, &serial_hub);
    run.layers = layers;
    Ok(run)
}
