//! Measurement plumbing: exact percentiles over kept samples, process
//! CPU and peak memory, the benchmark's in-memory span recorder, and
//! the parser for the engine's own JSON-lines trace events.
//!
//! Every timestamp shares the engine's trace clock
//! ([`chipletqc_obs::now_micros`]), so benchmark spans and program
//! spans line up on one axis.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Microseconds on the engine's trace clock.
pub fn now_us() -> u64 {
    chipletqc_obs::now_micros()
}

/// The median of `values` (midpoint of the two middle samples when the
/// count is even); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-th percentile (`0 < q <= 100`): the smallest
/// sample with at least `q` percent of the samples at or below it; 0
/// for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// User + system CPU seconds of this process so far, every thread
/// (live or exited) included, from `/proc/self/stat` (clock ticks of
/// 1/100 s, the Linux `USER_HZ`).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14, stime field 15.
    let Some(rest) = stat.rsplit_once(") ").map(|(_, rest)| rest) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One finished benchmark span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The batch (request) index the span belongs to.
    pub request: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

/// The benchmark's own spans around each public call, kept in memory
/// and written out once the run ends. Disabled (the untraced runs),
/// it only calls through.
pub struct Tracer {
    workload: &'static str,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(workload: &'static str, enabled: bool) -> Tracer {
        Tracer { workload, enabled, next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` for batch `request` under
    /// `parent` (0 = root); `f` receives the span's id so it can parent
    /// children.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = now_us();
        let out = f(id);
        let dur_us = now_us() - start_us;
        let record = SpanRecord { id, parent, name, request, start_us, dur_us };
        self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(record);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// The spans as JSON lines, labelled with the workload.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"event\": \"bench_span\", \"name\": \"{}\", \"workload\": \"{}\", \
                 \"request\": {}, \"id\": {}, \"parent\": {}, \"ts_us\": {}, \"dur_us\": {}}}",
                s.name, self.workload, s.request, s.id, s.parent, s.start_us, s.dur_us
            );
        }
        out
    }
}

/// One span event from the engine's JSON-lines trace.
#[derive(Debug, Clone)]
pub struct ProgramSpan {
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
}

/// The raw text after `"key": ` on a one-line trace event.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    let at = line.find(&needle)? + needle.len();
    Some(&line[at..])
}

fn number(line: &str, key: &str) -> Option<u64> {
    let rest = field(line, key)?;
    rest.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// Parses the engine's trace file (`chipletqc_obs::trace_to`) into
/// span events; malformed lines are skipped.
pub fn parse_program_trace(text: &str) -> Vec<ProgramSpan> {
    text.lines()
        .filter_map(|line| {
            let name = field(line, "name")?.strip_prefix('"')?.split('"').next()?;
            Some(ProgramSpan {
                name: name.to_string(),
                start_us: number(line, "ts_us")?,
                dur_us: number(line, "dur_us")?,
            })
        })
        .collect()
}

/// Merges intervals into a sorted, disjoint list.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.retain(|(a, b)| b > a);
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

/// The share of the union of `within` that the union of `covering`
/// overlaps: how much of the measured wall time the layer spans
/// account for.
pub fn coverage(covering: Vec<(u64, u64)>, within: Vec<(u64, u64)>) -> f64 {
    let covering = union(covering);
    let within = union(within);
    let total: u64 = within.iter().map(|(a, b)| b - a).sum();
    if total == 0 {
        return 0.0;
    }
    let mut covered = 0;
    for &(a, b) in &within {
        for &(c, d) in &covering {
            let (lo, hi) = (a.max(c), b.min(d));
            if hi > lo {
                covered += hi - lo;
            }
        }
    }
    covered as f64 / total as f64
}

/// Sets up `reps` times — each earlier result dropped (torn down)
/// before the next set-up starts — and returns the last result with
/// the median set-up time in seconds.
pub fn median_setup<T>(
    reps: usize,
    mut set_up: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps.max(1) {
        drop(last.take());
        let start = std::time::Instant::now();
        last = Some(set_up(rep)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.ok_or("no set-up ran")?, median(&times)))
}

/// Times `f` `reps` times and returns the median duration in
/// microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_over_kept_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }

    #[test]
    fn coverage_counts_overlap_once() {
        let covering = vec![(0, 5), (3, 8), (20, 30)];
        assert!((coverage(covering, vec![(0, 10)]) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn program_trace_lines_parse() {
        let line = "{\"event\": \"span\", \"name\": \"scheduler.task\", \"ts_us\": 12, \
                    \"dur_us\": 34, \"unit\": \"0\"}";
        let spans = parse_program_trace(line);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "scheduler.task");
        assert_eq!((spans[0].start_us, spans[0].dur_us), (12, 34));
    }
}
