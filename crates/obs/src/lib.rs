//! Process-wide observability: counters, gauges, fixed-bucket latency
//! histograms, and RAII spans — std-only, no external dependencies,
//! matching the workspace's vendored-stand-in discipline.
//!
//! # Model
//!
//! A single global [`Registry`] owns every instrument, keyed by name.
//! Call sites hold cheap cloneable handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) wrapping atomics, so the hot-path cost of an update
//! is one relaxed atomic op; the registry mutex is touched only at
//! registration (first lookup of a name) and when snapshotting.
//!
//! [`span`] returns an RAII timer that records its elapsed wall time
//! into the histogram of the same name on drop. When a JSON-lines
//! trace has been enabled with [`trace_to`], each finished span also
//! appends one event line — monotonic microsecond timestamps relative
//! to process start, plus any labels attached with [`Span::label`] —
//! suitable for `chipletqc-engine trace summarize` or external tooling.
//!
//! [`snapshot`] returns a pure-data [`Snapshot`] (names and numbers
//! only); serialization is the caller's concern, so this crate stays
//! dependency-free and usable from every layer of the workspace.
//!
//! Instruments are never unregistered; values accumulate for the life
//! of the process. Consumers that need per-interval deltas (e.g. a
//! per-batch report) snapshot twice and subtract, exactly like the
//! store's session counters.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of power-of-two latency buckets. Bucket 0 holds sub-µs
/// samples; bucket `i >= 1` holds samples in `[2^(i-1), 2^i)` µs; the
/// last bucket is open-ended (>= ~18 minutes, far beyond any span
/// this workspace times).
const BUCKETS: usize = 32;

/// The monotonic origin every trace timestamp is relative to: first
/// use of the crate, which in practice is process start.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process-wide monotonic origin.
pub fn now_micros() -> u64 {
    origin().elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Instruments

/// A monotonically increasing counter. Handles are cheap clones of the
/// registered atomic; updates are relaxed.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, inflight batches).
/// Updated by *delta* — `inc`/`dec` — never by absolute store, so
/// concurrent owners (e.g. parallel tests sharing the process-wide
/// registry) compose instead of clobbering each other.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn dec(&self) {
        self.add(-1);
    }
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

/// Index of the power-of-two bucket holding a `micros` sample.
fn bucket_of(micros: u64) -> usize {
    if micros == 0 {
        0
    } else {
        ((64 - micros.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The inclusive upper bound (µs) a bucket index reports for
/// percentiles — the worst case within the bucket, so percentiles err
/// pessimistic rather than optimistic.
fn bucket_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        (1u64 << index) - 1
    }
}

/// A fixed-bucket latency histogram over microseconds. Recording is a
/// handful of relaxed atomic ops; percentiles are derived from the
/// bucket boundaries at snapshot time (resolution: one power of two).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    pub fn record_micros(&self, micros: u64) {
        let inner = &self.0;
        inner.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum_us.fetch_add(micros, Ordering::Relaxed);
        inner.max_us.fetch_max(micros, Ordering::Relaxed);
    }

    /// Records the wall time of `f` and returns its result.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.record_micros(started.elapsed().as_micros() as u64);
        out
    }

    pub fn summary(&self) -> HistogramSummary {
        let inner = &self.0;
        let count = inner.count.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum_us: inner.sum_us.load(Ordering::Relaxed),
            p50_us: self.percentile(count, 50),
            p90_us: self.percentile(count, 90),
            max_us: inner.max_us.load(Ordering::Relaxed),
        }
    }

    /// Upper bound of the bucket containing the q-th percentile
    /// sample. `count` is passed in so one snapshot's percentiles all
    /// describe the same population even while recording continues.
    fn percentile(&self, count: u64, q: u64) -> u64 {
        if count == 0 {
            return 0;
        }
        // 1-based rank of the percentile sample, rounding up: the
        // sample at or above which q percent of the population sits.
        let rank = (count * q).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (index, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bound(index);
            }
        }
        bucket_bound(BUCKETS - 1)
    }
}

/// Pure-data summary of one histogram — what [`Snapshot`] carries and
/// what a status frame or report serializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum_us: u64,
    pub p50_us: u64,
    pub p90_us: u64,
    pub max_us: u64,
}

// ---------------------------------------------------------------------------
// Registry

/// The process-wide instrument registry. Obtain handles through the
/// free functions [`counter`]/[`gauge`]/[`histogram`]; the struct is
/// public only so [`snapshot`] has a home for its documentation.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter registered under `name`, creating it at zero on first
/// use. Cache the handle outside loops — the lookup takes the
/// registry lock.
pub fn counter(name: &str) -> Counter {
    let mut map = registry().counters.lock().expect("obs registry poisoned");
    map.entry(name.to_string()).or_insert_with(|| Counter(Arc::new(AtomicU64::new(0)))).clone()
}

/// The gauge registered under `name`, creating it at zero on first use.
pub fn gauge(name: &str) -> Gauge {
    let mut map = registry().gauges.lock().expect("obs registry poisoned");
    map.entry(name.to_string()).or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0)))).clone()
}

/// The histogram registered under `name`, creating it empty on first
/// use.
pub fn histogram(name: &str) -> Histogram {
    let mut map = registry().histograms.lock().expect("obs registry poisoned");
    map.entry(name.to_string())
        .or_insert_with(|| Histogram(Arc::new(HistogramInner::new())))
        .clone()
}

/// A full, consistent-enough snapshot of the registry: every
/// instrument's name and current value, sorted by name (BTreeMap
/// order), so two snapshots of an idle process are identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
}

/// Snapshots every registered instrument.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .expect("obs registry poisoned")
        .iter()
        .map(|(name, c)| (name.clone(), c.value()))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .expect("obs registry poisoned")
        .iter()
        .map(|(name, g)| (name.clone(), g.value()))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .expect("obs registry poisoned")
        .iter()
        .map(|(name, h)| (name.clone(), h.summary()))
        .collect();
    Snapshot { counters, gauges, histograms }
}

// ---------------------------------------------------------------------------
// Spans and the JSON-lines trace

/// Where finished spans are appended as JSON lines, once [`trace_to`]
/// has armed it. `None` (the default) makes spans pure histogram
/// feeders with no I/O.
fn trace_sink() -> &'static Mutex<Option<BufWriter<File>>> {
    static SINK: OnceLock<Mutex<Option<BufWriter<File>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Arms the JSON-lines trace: every span finished after this call
/// appends one event line to `path` (truncating any previous file).
/// Timestamps are microseconds since the process-wide monotonic
/// origin, so lines sort and diff cleanly.
pub fn trace_to(path: &Path) -> std::io::Result<()> {
    // Pin the origin before the first event so `ts_us` is monotone
    // from the operator's point of view of "when tracing started".
    let _ = origin();
    let file = File::create(path)?;
    *trace_sink().lock().expect("trace sink poisoned") = Some(BufWriter::new(file));
    Ok(())
}

/// Whether a trace file is currently armed.
pub fn trace_enabled() -> bool {
    trace_sink().lock().expect("trace sink poisoned").is_some()
}

/// Flushes any buffered trace lines to disk. Call at end of run;
/// harmless when tracing is off.
pub fn flush_trace() {
    if let Some(writer) = trace_sink().lock().expect("trace sink poisoned").as_mut() {
        let _ = writer.flush();
    }
}

/// Minimal JSON string escaping for trace fields — names and labels
/// are engine-internal identifiers, but a stray quote must not corrupt
/// the line stream.
fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn trace_span_event(name: &str, start_us: u64, dur_us: u64, labels: &[(String, String)]) {
    let mut sink = trace_sink().lock().expect("trace sink poisoned");
    let Some(writer) = sink.as_mut() else { return };
    let mut line = String::with_capacity(96);
    line.push_str("{\"event\": \"span\", \"name\": \"");
    escape_into(&mut line, name);
    line.push_str(&format!("\", \"ts_us\": {start_us}, \"dur_us\": {dur_us}"));
    for (key, value) in labels {
        line.push_str(", \"");
        escape_into(&mut line, key);
        line.push_str("\": \"");
        escape_into(&mut line, value);
        line.push('"');
    }
    line.push_str("}\n");
    // Tracing is best-effort: a full disk must not take the run down.
    let _ = writer.write_all(line.as_bytes());
}

/// An RAII timer. On drop it records its elapsed wall time into the
/// histogram named at construction and, when tracing is armed, appends
/// one JSON trace line.
pub struct Span {
    histogram: Histogram,
    name: &'static str,
    start_us: u64,
    started: Instant,
    labels: Vec<(String, String)>,
}

impl Span {
    /// Attaches a `key = value` label carried into the trace event
    /// (batch number, scenario name, work-unit index, ...). Labels
    /// never affect the histogram — aggregation stays by span name.
    pub fn label(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        // Allocate the label only if it can ever be written.
        if trace_enabled() {
            self.labels.push((key.to_string(), value.to_string()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_us = self.started.elapsed().as_micros() as u64;
        self.histogram.record_micros(dur_us);
        if trace_enabled() {
            trace_span_event(self.name, self.start_us, dur_us, &self.labels);
        }
    }
}

/// Opens a span feeding the histogram (and trace stream) of the given
/// name. The `&'static str` bound keeps the hot path allocation-free;
/// dynamic identifiers belong in [`Span::label`]s, not names.
pub fn span(name: &'static str) -> Span {
    Span {
        histogram: histogram(name),
        name,
        start_us: now_micros(),
        started: Instant::now(),
        labels: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate_by_delta() {
        let c = counter("test.obs.counter");
        c.inc();
        c.add(4);
        assert_eq!(counter("test.obs.counter").value(), 5, "handles share the atomic");

        let g = gauge("test.obs.gauge");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(gauge("test.obs.gauge").value(), 1);
        g.add(-3);
        assert_eq!(g.value(), -2, "gauges are signed");
    }

    #[test]
    fn bucket_math_is_power_of_two_with_pessimistic_bounds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every sample's bucket bound is >= the sample (pessimistic),
        // within a factor of two below the next power.
        for v in [0u64, 1, 2, 3, 7, 8, 100, 1000, 65_535, 1 << 20] {
            assert!(bucket_bound(bucket_of(v)) >= v, "bound under-reports {v}");
        }
    }

    #[test]
    fn histogram_percentiles_track_the_population() {
        let h = histogram("test.obs.hist");
        // 90 fast samples, 10 slow ones.
        for _ in 0..90 {
            h.record_micros(10);
        }
        for _ in 0..10 {
            h.record_micros(5_000);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_us, 5_000);
        assert_eq!(s.sum_us, 90 * 10 + 10 * 5_000);
        // p50 lands in the 10µs bucket [8,16): bound 15.
        assert_eq!(s.p50_us, 15);
        // p90 is the 90th of 100 — still a fast sample.
        assert_eq!(s.p90_us, 15);
        // ...but p-anything above 90 crosses into the slow bucket
        // [4096, 8192): bound 8191.
        assert_eq!(h.percentile(s.count, 95), 8191);
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let s = histogram("test.obs.empty").summary();
        assert_eq!(
            s,
            HistogramSummary { count: 0, sum_us: 0, p50_us: 0, p90_us: 0, max_us: 0 }
        );
    }

    #[test]
    fn spans_feed_their_histogram() {
        {
            let _span = span("test.obs.span");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = histogram("test.obs.span").summary();
        assert_eq!(s.count, 1);
        assert!(s.max_us >= 2_000, "span under-measured: {}µs", s.max_us);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        counter("test.obs.snap.b").inc();
        counter("test.obs.snap.a").inc();
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let a = names.iter().position(|n| *n == "test.obs.snap.a").expect("a registered");
        let b = names.iter().position(|n| *n == "test.obs.snap.b").expect("b registered");
        assert!(a < b, "snapshot must be name-sorted");
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn trace_lines_are_json_objects_with_labels() {
        let path = std::env::temp_dir()
            .join(format!("chipletqc-obs-trace-{}.jsonl", std::process::id()));
        trace_to(&path).expect("arm trace");
        {
            let _span = span("test.obs.trace").label("unit", 7).label("tag", "a\"b");
        }
        flush_trace();
        // Disarm so other tests (and later span drops) stop writing.
        *trace_sink().lock().unwrap() = None;
        let text = std::fs::read_to_string(&path).expect("trace file");
        let line =
            text.lines().find(|l| l.contains("test.obs.trace")).expect("span event present");
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        assert!(line.contains("\"event\": \"span\""), "{line}");
        assert!(line.contains("\"dur_us\": "), "{line}");
        assert!(line.contains("\"unit\": \"7\""), "{line}");
        assert!(line.contains("a\\\"b"), "quote must be escaped: {line}");
        let _ = std::fs::remove_file(&path);
    }
}
