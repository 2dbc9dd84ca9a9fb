//! Per-layer replays: each layer's public kernel called directly, on
//! the inputs of the workload that ran, with the result checked so the
//! compiler cannot drop the work. Every replay runs inside a benchmark
//! span, after the workload's timed batches.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use chipletqc::chipletqc_collision::{is_collision_free, CollisionParams};
use chipletqc::chipletqc_math::rng::Seed;
use chipletqc::chipletqc_store::backend::Lookup;
use chipletqc::chipletqc_store::{CacheMode, Store};
use chipletqc::chipletqc_topology::{ChipletSpec, McmSpec, MonolithicSpec};
use chipletqc::chipletqc_transpile::esp::{edge_usage, esp_from_usage};
use chipletqc::chipletqc_yield::monte_carlo::{
    fabricate_collision_free_with_workers, simulate_yield_range, TrialRange,
};
use chipletqc::chipletqc_yield::FabricationParams;
use chipletqc::experiments::fig10::Fig10Config;
use chipletqc::lab::{CacheHub, Lab, LabConfig};
use chipletqc_engine::protocol::{read_response, write_response, Response};
use chipletqc_engine::report::RunReport;
use chipletqc_engine::scenario::{ExperimentKind, Scale, Scenario};
use chipletqc_engine::scheduler::ScenarioResult;
use chipletqc_engine::suite::resolve_batch;
use chipletqc_engine::sweep::Sweep;

use crate::measure::{self, median_us, ProgramSpan};
use crate::{Ctx, Layers};

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// `yield.campaign_ms`: one single-threaded `fabricate_collision_free`
/// campaign per chiplet size at the lab's batch, mean ms per campaign.
pub fn yield_campaign(ctx: &Ctx, layers: &mut Layers, lab: &LabConfig, chiplets: &[usize]) {
    let mut times = Vec::new();
    ctx.tracer.span("replay.yield.campaign", 0, 0, |_| {
        for &qubits in chiplets {
            let Ok(spec) = ChipletSpec::with_qubits(qubits) else { continue };
            let device = spec.build();
            let start = Instant::now();
            let bin = fabricate_collision_free_with_workers(
                &device,
                &lab.fabrication,
                &lab.collision,
                lab.batch,
                lab.seed.split(qubits as u64),
                Some(1),
            );
            times.push(ms(start));
            assert!(bin.len() <= lab.batch);
        }
    });
    layers.insert("yield.campaign_ms", measure::mean(&times));
}

/// `yield.trial_us`: `simulate_yield_range` on one thread over
/// `trials` trials per monolithic size, µs per trial.
pub fn yield_trial(ctx: &Ctx, layers: &mut Layers, sizes: &[usize], trials: usize, seed: u64) {
    let fab = FabricationParams::state_of_the_art();
    let params = CollisionParams::paper();
    let (mut total_us, mut count) = (0.0, 0usize);
    ctx.tracer.span("replay.yield.trial", 0, 0, |_| {
        for &qubits in sizes {
            let Ok(spec) = MonolithicSpec::with_qubits(qubits) else { continue };
            let device = spec.build();
            let start = Instant::now();
            let estimate = simulate_yield_range(
                &device,
                &fab,
                &params,
                TrialRange::full(trials),
                Seed(seed),
                Some(1),
            );
            total_us += start.elapsed().as_secs_f64() * 1e6;
            count += trials;
            assert!(estimate.survivors <= trials);
        }
    });
    layers.insert("yield.trial_us", if count > 0 { total_us / count as f64 } else { 0.0 });
}

/// `collision.check_us`: `is_collision_free` on one sampled device,
/// µs per call (median of repeated blocks).
pub fn collision_check(ctx: &Ctx, layers: &mut Layers, device_qubits: usize, seed: u64) {
    const CALLS: usize = 500;
    let fab = FabricationParams::state_of_the_art();
    let params = CollisionParams::paper();
    let Ok(spec) = MonolithicSpec::with_qubits(device_qubits) else { return };
    let device = spec.build();
    let freqs = fab.sample(&device, &mut Seed(seed).rng());
    let per_block = ctx.tracer.span("replay.collision.check", 0, 0, |_| {
        median_us(7, || {
            for _ in 0..CALLS {
                black_box(is_collision_free(&device, black_box(&freqs), &params));
            }
        })
    });
    layers.insert("collision.check_us", per_block / CALLS as f64);
}

/// `assembly.assemble_ms`: `Lab::assemble` per MCM spec with the
/// chiplet bins already warm in `hub` (warmed here, untimed), mean ms.
pub fn assemble(
    ctx: &Ctx,
    layers: &mut Layers,
    lab: &LabConfig,
    specs: &[McmSpec],
    hub: &CacheHub,
) {
    let warm = Lab::new_in(*lab, hub);
    for spec in specs {
        warm.chiplet_bin(spec.chiplet());
    }
    let mut times = Vec::new();
    ctx.tracer.span("replay.assembly.assemble", 0, 0, |_| {
        for spec in specs {
            // A fresh lab each time: assemblies are cached per lab,
            // bins per hub.
            let lab = Lab::new_in(*lab, hub);
            let start = Instant::now();
            let outcome = lab.assemble(spec);
            times.push(ms(start));
            black_box(outcome.mcms.len());
        }
    });
    layers.insert("assembly.assemble_ms", measure::mean(&times));
}

/// `transpile.circuit_ms`, `transpile.esp_us` and
/// `transpile.routing_overhead` over a Fig. 10 configuration: every
/// benchmark circuit on every MCM device and on each distinct
/// monolithic device, then ESP scoring over the monolithic population.
pub fn transpile(ctx: &Ctx, layers: &mut Layers, config: &Fig10Config, hub: &CacheHub) {
    let lab = Lab::new_in(config.lab, hub);
    let (mut compile_ms, mut compiles, mut overhead) = (0.0, 0usize, 0.0);
    let (mut esp_us, mut esp_calls) = (0.0, 0usize);
    let mut seen_mono = std::collections::BTreeSet::new();
    ctx.tracer.span("replay.transpile", 0, 0, |_| {
        for spec in &config.systems {
            let qubits = spec.num_qubits();
            let mcm = spec.build();
            let mono = (seen_mono.insert(qubits)).then(|| lab.mono_population(qubits));
            for benchmark in &config.benchmarks {
                let circuit = benchmark.for_device_qubits(qubits, config.circuit_seed);
                let start = Instant::now();
                let compiled = config.transpiler.transpile(&circuit, &mcm);
                compile_ms += ms(start);
                compiles += 1;
                overhead += compiled.routing_overhead();
                let Some(pop) = &mono else { continue };
                let start = Instant::now();
                let compiled = config.transpiler.transpile(&circuit, &pop.device);
                compile_ms += ms(start);
                compiles += 1;
                overhead += compiled.routing_overhead();
                let usage = edge_usage(&compiled.physical, &pop.device);
                let start = Instant::now();
                for (_, noise) in &pop.members {
                    black_box(esp_from_usage(&usage, noise));
                }
                esp_us += start.elapsed().as_secs_f64() * 1e6;
                esp_calls += pop.members.len();
            }
        }
    });
    layers.insert(
        "transpile.circuit_ms",
        if compiles > 0 { compile_ms / compiles as f64 } else { 0.0 },
    );
    layers.insert(
        "transpile.esp_us",
        if esp_calls > 0 { esp_us / esp_calls as f64 } else { 0.0 },
    );
    layers.insert("transpile.routing_overhead", overhead);
}

/// `store.get_us.p50`/`store.read_mb` (every entry of `source`, read
/// through a fresh handle) and `store.put_us.p50`/`store.written_mb`
/// (the same payloads `put` + `flush`ed one by one into the empty
/// `target`).
pub fn store_io(
    ctx: &Ctx,
    layers: &mut Layers,
    source: &Path,
    target: &Path,
) -> Result<(), String> {
    let lister =
        Store::open(source, CacheMode::Read).map_err(|e| format!("open store: {e}"))?;
    let keys = lister.serve_peer_list().map_err(|e| format!("list store: {e}"))?;
    let fresh = Store::open(source, CacheMode::Read).map_err(|e| format!("open store: {e}"))?;
    let (mut get_us, mut read_bytes) = (Vec::new(), 0usize);
    ctx.tracer.span("replay.store.get", 0, 0, |_| {
        for key in &keys {
            let start = Instant::now();
            let payload = fresh.get(key);
            get_us.push(start.elapsed().as_secs_f64() * 1e6);
            read_bytes += payload.map_or(0, |p| p.len());
        }
    });
    let sink =
        Store::open(target, CacheMode::ReadWrite).map_err(|e| format!("open store: {e}"))?;
    let (mut put_us, mut written_bytes) = (Vec::new(), 0usize);
    ctx.tracer.span("replay.store.put", 0, 0, |_| {
        for key in &keys {
            let Lookup::Hit { encoding, payload } = lister.serve_peer_get(key) else {
                continue;
            };
            written_bytes += payload.len();
            let start = Instant::now();
            sink.put(key, encoding, payload);
            sink.flush();
            put_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    });
    if read_bytes != written_bytes {
        return Err(format!(
            "store replay read {read_bytes} bytes but re-wrote {written_bytes}"
        ));
    }
    eprintln!("chipletbench: store replay over {} entries", keys.len());
    layers.insert("store.get_us.p50", measure::median(&get_us));
    layers.insert("store.read_mb", read_bytes as f64 / (1024.0 * 1024.0));
    layers.insert("store.put_us.p50", measure::median(&put_us));
    layers.insert("store.written_mb", written_bytes as f64 / (1024.0 * 1024.0));
    Ok(())
}

/// `protocol.reply_kb`, `protocol.encode_us`, `protocol.decode_us`:
/// `write_response`/`read_response` in memory over captured response
/// frames (summed per batch when a batch takes several frames).
pub fn protocol(ctx: &Ctx, layers: &mut Layers, frames: &[Response]) -> Result<(), String> {
    let mut bytes = Vec::new();
    for frame in frames {
        let mut buf = Vec::new();
        write_response(&mut buf, frame).map_err(|e| format!("encode frame: {e}"))?;
        match read_response(&mut buf.as_slice()) {
            Ok(decoded) if decoded == *frame => {}
            _ => {
                return Err(
                    "a captured frame does not survive an encode/decode round trip".into()
                )
            }
        }
        bytes.push(buf);
    }
    let size: usize = bytes.iter().map(Vec::len).sum();
    let encode = ctx.tracer.span("replay.protocol.encode", 0, 0, |_| {
        median_us(15, || {
            for frame in frames {
                let mut buf = Vec::with_capacity(size);
                let _ = write_response(&mut buf, frame);
                black_box(buf);
            }
        })
    });
    let decode = ctx.tracer.span("replay.protocol.decode", 0, 0, |_| {
        median_us(15, || {
            for buf in &bytes {
                let _ = black_box(read_response(&mut buf.as_slice()));
            }
        })
    });
    layers.insert("protocol.reply_kb", size as f64 / 1024.0);
    layers.insert("protocol.encode_us", encode);
    layers.insert("protocol.decode_us", decode);
    Ok(())
}

/// `report.render_ms`: `RunReport::from_results(..).to_json()` on a
/// batch's results, median of repeats.
pub fn render(ctx: &Ctx, layers: &mut Layers, results: &[ScenarioResult], hub: &CacheHub) {
    let per = ctx.tracer.span("replay.report.render", 0, 0, |_| {
        median_us(9, || {
            black_box(report_json(results, hub));
        })
    });
    layers.insert("report.render_ms", per / 1e3);
}

/// The deterministic report of a batch, as the engine renders it.
pub fn report_json(results: &[ScenarioResult], hub: &CacheHub) -> String {
    RunReport::from_results(
        results,
        hub.fabrication_stats(),
        hub.store_stats(),
        hub.peer_stats(),
    )
    .to_json()
}

/// `experiment.*_ms`: each scenario's `Scenario::run` serially on
/// `hub`, totalled per kind (Fig. 4, 8, 10, everything else).
pub fn experiments(ctx: &Ctx, layers: &mut Layers, scenarios: &[Scenario], hub: &CacheHub) {
    let (mut fig4, mut fig8, mut fig10, mut other) = (0.0, 0.0, 0.0, 0.0);
    ctx.tracer.span("replay.experiments", 0, 0, |parent| {
        for scenario in scenarios {
            let start = Instant::now();
            ctx.tracer.span("replay.experiment", 0, parent, |_| black_box(scenario.run(hub)));
            let elapsed = ms(start);
            match scenario.kind {
                ExperimentKind::Fig4 => fig4 += elapsed,
                ExperimentKind::Fig8 => fig8 += elapsed,
                ExperimentKind::Fig10 => fig10 += elapsed,
                _ => other += elapsed,
            }
        }
    });
    layers.insert("experiment.fig4_ms", fig4);
    layers.insert("experiment.fig8_ms", fig8);
    layers.insert("experiment.fig10_ms", fig10);
    layers.insert("experiment.other_ms", other);
}

/// Scheduler and service figures from the engine's span events:
/// `scheduler.task_ms.{p50,max}`, `scheduler.tasks` per batch, and the
/// `service.*` span medians.
pub fn program_layers(layers: &mut Layers, spans: &[ProgramSpan], batches: usize) {
    let durations = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.dur_us as f64 / 1e3).collect()
    };
    let tasks = durations("scheduler.task");
    layers.insert("scheduler.task_ms.p50", measure::median(&tasks));
    layers.insert("scheduler.task_ms.max", tasks.iter().copied().fold(0.0, f64::max));
    layers.insert("scheduler.tasks", tasks.len() as f64 / batches.max(1) as f64);
    layers.insert(
        "service.admission_wait_ms.p50",
        measure::median(&durations("service.admission_wait")),
    );
    layers.insert("service.reply_ms.p50", measure::median(&durations("service.reply")));
}

/// `trace.overhead_frac` — traced ÷ untraced median batch time, less
/// one — with its base: both medians and the traced sample count.
pub fn trace_overhead(layers: &mut Layers, untraced_ms: &[f64], traced_ms: &[f64]) {
    let (untraced, traced) = (measure::median(untraced_ms), measure::median(traced_ms));
    layers.insert("trace.untraced_batch_p50_ms", untraced);
    layers.insert("trace.traced_batch_p50_ms", traced);
    layers.insert("trace.batches", traced_ms.len() as f64);
    layers.insert(
        "trace.overhead_frac",
        if untraced > 0.0 { traced / untraced - 1.0 } else { 0.0 },
    );
}

/// Busy share of `threads` scheduler workers over `window_s`: summed
/// `scheduler.task` span time over available worker time.
pub fn task_utilization(spans: &[ProgramSpan], threads: usize, window_s: f64) -> f64 {
    let busy_s: f64 = spans
        .iter()
        .filter(|s| s.name == "scheduler.task")
        .map(|s| s.dur_us as f64 / 1e6)
        .sum();
    busy_s / (threads as f64 * window_s)
}

/// The scenarios a sweep text expands to.
pub fn sweep_scenarios(text: &str) -> Result<Vec<Scenario>, String> {
    let sweep = Sweep::parse(text).map_err(|e| format!("sweep: {e}"))?;
    resolve_batch(Some(&sweep), Scale::Quick, None, None)
}

/// The distinct MCM systems a batch evaluates, and their distinct
/// chiplet and monolithic sizes (ascending).
pub fn systems(scenarios: &[Scenario]) -> (Vec<McmSpec>, Vec<usize>, Vec<usize>) {
    let mut specs: Vec<McmSpec> = Vec::new();
    for system in scenarios.iter().flat_map(|s| s.resolved_systems().unwrap_or_default()) {
        let spec = system.build();
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    }
    let mut chiplets: Vec<usize> = specs.iter().map(|s| s.chiplet().num_qubits()).collect();
    let mut monos: Vec<usize> = specs.iter().map(McmSpec::num_qubits).collect();
    for sizes in [&mut chiplets, &mut monos] {
        sizes.sort_unstable();
        sizes.dedup();
    }
    (specs, chiplets, monos)
}

/// Intervals of the named engine spans.
pub fn intervals(spans: &[ProgramSpan], names: &[&str]) -> Vec<(u64, u64)> {
    spans
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .map(|s| (s.start_us, s.start_us + s.dur_us))
        .collect()
}

/// Intervals of the named benchmark spans.
pub fn bench_intervals(ctx: &Ctx, names: &[&str]) -> Vec<(u64, u64)> {
    ctx.tracer
        .spans()
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| (s.start_us, s.start_us + s.dur_us))
        .collect()
}

/// A count/sum delta of one engine histogram between two snapshots:
/// the exact mean, never a bucket bound.
pub struct HistogramDelta {
    name: &'static str,
    count: u64,
    sum_us: u64,
}

fn histogram_totals(name: &str) -> (u64, u64) {
    chipletqc_obs::snapshot()
        .histograms
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or((0, 0), |(_, h)| (h.count, h.sum_us))
}

impl HistogramDelta {
    pub fn start(name: &'static str) -> HistogramDelta {
        let (count, sum_us) = histogram_totals(name);
        HistogramDelta { name, count, sum_us }
    }

    /// Mean ms per recorded sample since [`HistogramDelta::start`], and
    /// the sample count.
    pub fn mean_ms(&self) -> (f64, u64) {
        let (count, sum_us) = histogram_totals(self.name);
        let (n, sum) = (count - self.count, sum_us - self.sum_us);
        (if n > 0 { sum as f64 / n as f64 / 1e3 } else { 0.0 }, n)
    }
}

/// The current value of an engine counter.
pub fn counter(name: &str) -> u64 {
    chipletqc_obs::snapshot()
        .counters
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// Sums the `chiplet_campaigns` and `mono_campaigns` fields of a
/// report's `fabrication` object (the submission's own deltas).
pub fn report_campaigns(report: &str) -> u64 {
    ["\"chiplet_campaigns\": ", "\"mono_campaigns\": "]
        .iter()
        .filter_map(|key| {
            let at = report.find(key)? + key.len();
            report[at..].split(|c: char| !c.is_ascii_digit()).next()?.parse::<u64>().ok()
        })
        .sum()
}
