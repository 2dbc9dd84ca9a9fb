//! `chipletbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path chipletbench/Cargo.toml -- \
//!     --workload paper-warm|serve-mix|mesh-sweep \
//!     --seed N --seconds S --trace 0|1 [--size full|tiny]
//! ```
//!
//! Drives the engine only through its public library API, generates
//! every input from `--seed`, verifies every output against a
//! reference computed during set-up, and prints one JSON object as the
//! last line of stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer breakdown with `--trace 1`. Human-readable detail (sample
//! counts, bases of every ratio) goes to stderr; traced runs also write
//! their spans to `.bench_out/`. See `chipletbench/README.md`.

mod kernels;
mod measure;
mod mesh;
mod paper;
mod serve;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use measure::{ProgramSpan, Tracer};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("batches_per_s", "1/s"),
    ("cpu_ms_per_batch", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload
/// never calls reports 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("scheduler.parallel_efficiency", "ratio"),
    ("scheduler.task_ms.p50", "ms"),
    ("scheduler.task_ms.max", "ms"),
    ("scheduler.tasks", "count"),
    ("scheduler.queue_wait_ms.mean", "ms"),
    ("experiment.fig4_ms", "ms"),
    ("experiment.fig8_ms", "ms"),
    ("experiment.fig10_ms", "ms"),
    ("experiment.other_ms", "ms"),
    ("lab.fabrication_campaigns", "count"),
    ("yield.campaign_ms", "ms"),
    ("yield.trial_us", "us"),
    ("collision.check_us", "us"),
    ("assembly.assemble_ms", "ms"),
    ("transpile.circuit_ms", "ms"),
    ("transpile.esp_us", "us"),
    ("transpile.routing_overhead", "ratio"),
    ("store.get_us.p50", "us"),
    ("store.read_mb", "MB"),
    ("store.put_us.p50", "us"),
    ("store.written_mb", "MB"),
    ("store.hit_ratio", "ratio"),
    ("service.overhead_ms.p50", "ms"),
    ("service.admission_wait_ms.p50", "ms"),
    ("service.reply_ms.p50", "ms"),
    ("service.status_ms.p50", "ms"),
    ("service.dropped_replies", "count"),
    ("service.cancelled", "count"),
    ("protocol.reply_kb", "KB"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("report.render_ms", "ms"),
    ("mesh.unit_ms.mean", "ms"),
    ("mesh.units", "count"),
    ("mesh.retries", "count"),
    ("mesh.speculation_wins", "count"),
    ("mesh.decode_merge_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.untraced_batch_p50_ms", "ms"),
    ("trace.traced_batch_p50_ms", "ms"),
    ("trace.batches", "count"),
];

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["paper-warm", "serve-mix", "mesh-sweep"];

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Everything one run needs to know.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Smoke-test sizes (quick-scale suite, short windows).
    pub tiny: bool,
    /// Client and scheduler threads: the hardware thread count.
    pub workers: usize,
    /// This run's private scratch directory (removed on exit).
    pub tmp: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// Arms the engine's own span trace (`chipletqc_obs::trace_to`)
    /// into the scratch directory. Called by traced runs only after
    /// their untraced baseline phase.
    pub fn arm_program_trace(&self) -> Result<(), String> {
        chipletqc_obs::trace_to(&self.tmp.join("program-trace.jsonl"))
            .map_err(|e| format!("arm program trace: {e}"))
    }

    /// The engine's span events that started in `[from, to)` on the
    /// trace clock (none when the trace was never armed).
    pub fn program_spans(&self, from: u64, to: u64) -> Vec<ProgramSpan> {
        chipletqc_obs::flush_trace();
        std::fs::read_to_string(self.tmp.join("program-trace.jsonl"))
            .map(|text| measure::parse_program_trace(&text))
            .unwrap_or_default()
            .into_iter()
            .filter(|s| (from..to).contains(&s.start_us))
            .collect()
    }

    /// A fresh path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.tmp.join(name)
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    pub setup_s: f64,
    /// Wall time of every verified batch, in ms.
    pub batch_ms: Vec<f64>,
    /// Timed wall time the batches ran in.
    pub window_s: f64,
    /// Process CPU seconds spent in the timed window.
    pub cpu_s: f64,
    /// Peak resident set in MiB, when the workload reads it at a point
    /// of its own; otherwise it is read when the run ends.
    pub peak_rss_mb: Option<f64>,
    /// Operations attempted and failed (batches, plus status requests
    /// on `serve-mix`).
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values (traced runs).
    pub layers: Layers,
}

impl Run {
    /// Counts one attempted operation, failed or not.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The scratch directory, removed however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no concurrent run is using it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    /// Internal: compute the paper suite's reference report into this
    /// file and exit (the set-up child process of `paper-warm`).
    reference_out: Option<PathBuf>,
    /// Internal: the empty store the reference run populates.
    reference_store: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, 1, 10.0, false, false);
    let (mut reference_out, mut reference_store) = (None, None);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(WORKLOADS.into_iter().find(|w| *w == name).ok_or(format!(
                        "unknown workload {name} (want one of {WORKLOADS:?})"
                    ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            "--reference-out" => reference_out = Some(PathBuf::from(value()?)),
            "--reference-store" => reference_store = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, tiny, reference_out, reference_store })
}

/// A JSON number with every digit Rust's shortest round-trip format
/// keeps (never exponent notation); non-finite values become 0.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// The end-to-end metrics of a run.
fn end_to_end(run: &Run) -> Layers {
    let batches = run.batch_ms.len() as f64;
    let mut m = Layers::new();
    m.insert("setup_s", run.setup_s);
    m.insert("batch_p50_ms", measure::median(&run.batch_ms));
    m.insert("batch_p90_ms", measure::percentile(&run.batch_ms, 90.0));
    m.insert("batches_per_s", if run.window_s > 0.0 { batches / run.window_s } else { 0.0 });
    m.insert("cpu_ms_per_batch", if batches > 0.0 { run.cpu_s * 1e3 / batches } else { 0.0 });
    m.insert("peak_rss_mb", run.peak_rss_mb.unwrap_or_else(measure::peak_rss_mb));
    m.insert(
        "success_ratio",
        if run.attempted > 0 {
            (run.attempted - run.failed) as f64 / run.attempted as f64
        } else {
            0.0
        },
    );
    m
}

fn result_line(run: &Run, names: &[(&str, &str)], values: &Layers) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted,
        run.failed
    )
}

/// Writes the traced run's spans — the benchmark's and the engine's —
/// to `.bench_out/<workload>-s<seed>.trace.jsonl`.
fn write_trace(ctx: &Ctx) -> Result<PathBuf, String> {
    let out = Path::new(".bench_out");
    std::fs::create_dir_all(out).map_err(|e| format!("create .bench_out: {e}"))?;
    let path = out.join(format!("{}-s{}.trace.jsonl", ctx.workload, ctx.seed));
    chipletqc_obs::flush_trace();
    let program =
        std::fs::read_to_string(ctx.tmp.join("program-trace.jsonl")).unwrap_or_default();
    let text = format!("{}{program}", ctx.tracer.to_jsonl());
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(out) = &args.reference_out {
        let store =
            args.reference_store.as_deref().ok_or("--reference-out needs --reference-store")?;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let reference = paper::reference(args.tiny, args.seed, workers, store)?;
        return std::fs::write(out, reference)
            .map_err(|e| format!("write {}: {e}", out.display()));
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    // Relative, so Unix socket paths stay short wherever the checkout is.
    let tmp = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{nanos}",
        args.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let _scratch = Scratch(tmp.clone());
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        workers,
        tmp,
        tracer: Tracer::new(args.workload, args.trace),
    };
    let run = match ctx.workload {
        "paper-warm" => paper::run(&ctx)?,
        "serve-mix" => serve::run(&ctx)?,
        "mesh-sweep" => mesh::run(&ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    eprintln!(
        "chipletbench {} seed {}: {} verified batch(es) of {} attempted operation(s), {} failed; \
         setup {:.3}s, window {:.3}s",
        ctx.workload,
        ctx.seed,
        run.batch_ms.len(),
        run.attempted,
        run.failed,
        run.setup_s,
        run.window_s
    );
    let line = if args.trace {
        let path = write_trace(&ctx)?;
        eprintln!("chipletbench: spans written to {}", path.display());
        result_line(&run, &PER_LAYER, &run.layers)
    } else {
        result_line(&run, &END_TO_END, &end_to_end(&run))
    };
    println!("{line}");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("chipletbench: {error}");
            std::process::exit(2);
        }
    };
    // A panic anywhere still unwinds through the scratch guard and the
    // daemon guards (shutdown + join) before the process exits nonzero.
    match std::panic::catch_unwind(|| run(&args)) {
        Ok(Ok(())) => {}
        Ok(Err(error)) => {
            eprintln!("chipletbench: {error}");
            std::process::exit(1);
        }
        Err(_) => {
            eprintln!("chipletbench: aborted by a panic");
            std::process::exit(1);
        }
    }
}
