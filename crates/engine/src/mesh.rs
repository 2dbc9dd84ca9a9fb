//! Distributed sweep execution across a daemon mesh.
//!
//! A mesh run scatters one sweep across several worker daemons
//! (`chipletqc-engine serve --mesh-worker`) and gathers a report that
//! is **byte-identical** to a local one-shot run of the same sweep —
//! apart from the `fabrication`/`store` counter objects, which hold
//! the summed per-worker deltas (the same carve-out service mode
//! already makes).
//!
//! The determinism argument has three legs, each a pure function in
//! this module:
//!
//! 1. **Partition** ([`partition`]): the coordinator expands the sweep
//!    itself through the ordinary
//!    [`resolve_batch`](crate::suite::resolve_batch) path and slices
//!    the expansion into contiguous work units. A unit travels as a
//!    [`Submission`] — the sweep text plus an `only` filter naming the
//!    unit's scenarios — so the worker re-derives *the same* scenario
//!    objects from the same expansion. There is no separate "mesh
//!    batch format" to drift.
//! 2. **Pieces** ([`encode_pieces`] / [`decode_pieces`]): a worker
//!    returns, per scenario, the already-rendered metrics JSON and raw
//!    artifact texts — the exact strings a local run would have placed
//!    in its report — plus its counter deltas.
//! 3. **Merge** ([`merge_report`]): the coordinator rebuilds the
//!    report entries in expansion order, splicing each worker-rendered
//!    metrics document back in verbatim
//!    ([`Json::Raw`](chipletqc::report::Json)) and rendering overrides
//!    from its *own* expansion (safe: override serialization is
//!    scale-derived-field-free), then assembles the document through
//!    the same [`RunReport::from_entries`] constructor a local run
//!    uses.
//!
//! The dispatch loop ([`run_mesh`]) is robust in the service-mode
//! spirit: every claim is bounded by a per-unit deadline, a failed or
//! dead worker's units are requeued and retried on survivors, and idle
//! workers speculatively re-claim in-flight units near the tail
//! (results are deterministic, so duplicated work is safe — first
//! result wins). A *deterministic* rejection from a worker (bad sweep,
//! unknown scenario) fails the whole run immediately: every worker
//! would reject the same unit the same way, so retrying is noise. A
//! dispatcher with nothing to claim blocks on a condvar over the
//! shared state, which every requeue, completion, poisoning and worker
//! death signals — it never sleeps on a timer.

// Daemon path: a panic here takes down the warm hub and every queued
// client. (`unwrap_used` comes from the workspace lints.)
#![warn(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, BufWriter};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use chipletqc::lab::FabricationStats;
use chipletqc::report::Json;
use chipletqc_store::remote::{self, PeerStats};
use chipletqc_store::wire::{bad, header, parse_len, read_utf8, VERSION};
use chipletqc_store::StoreStats;

use crate::protocol::{read_response, write_request, Request, Response, Submission};
use crate::report::{ReportEntry, RunReport};
use crate::scenario::Scale;
use crate::scheduler::ScenarioResult;
use crate::suite::resolve_batch;
use crate::sweep::Sweep;

/// Consecutive transport failures after which a worker is declared
/// dead and its dispatch thread exits (each failure already requeued
/// the claimed unit for the survivors).
const WORKER_FAILURE_LIMIT: u32 = 3;

/// Work units carved per worker when the sweep is large enough —
/// finer than one-unit-per-worker so the schedule self-balances and a
/// retried unit is a fraction of a worker's share, coarser than
/// one-scenario-per-unit so claim overhead stays negligible.
const UNITS_PER_WORKER: usize = 3;

/// One scenario's contribution to a work result: the already-rendered
/// strings a local run would have placed in its report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Piece {
    /// The scenario name (the merge key).
    pub name: String,
    /// The metrics document as level-0 pretty JSON (no trailing
    /// newline) — spliced back into the merged report verbatim.
    pub metrics: String,
    /// Raw artifact `(name, contents)` pairs, pre-uniquing.
    pub artifacts: Vec<(String, String)>,
    /// Worker-side wall clock, for the coordinator's (schedule-
    /// dependent, never-in-report) timing lines.
    pub wall_nanos: u64,
}

/// Everything one work unit sends back: its pieces plus the worker's
/// counter deltas for the unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkOutcome {
    /// Per-scenario pieces, in the unit's scenario order.
    pub pieces: Vec<Piece>,
    /// Fabrication campaigns this unit cost the worker.
    pub fabrication: FabricationStats,
    /// Store traffic this unit cost the worker.
    pub store: StoreStats,
    /// Store peer traffic this unit cost the worker.
    pub peer: PeerStats,
}

/// Slices `count` scenarios into at most `units` contiguous ranges
/// with sizes differing by at most one — the deterministic partition
/// both the scatter and every test reason about. Empty units are never
/// produced (`units` is clamped to `count`); zero inputs yield zero
/// units.
pub fn partition(count: usize, units: usize) -> Vec<std::ops::Range<usize>> {
    if count == 0 || units == 0 {
        return Vec::new();
    }
    let units = units.min(count);
    let base = count / units;
    let extra = count % units; // the first `extra` units get one more
    let mut ranges = Vec::with_capacity(units);
    let mut start = 0;
    for unit in 0..units {
        let len = base + usize::from(unit < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Derives a work outcome from locally-computed results — the worker
/// side of the pieces codec, and deliberately the *only* place result
/// data is rendered for the wire, so worker and local serialization
/// cannot drift.
pub fn outcome_from_results(
    results: &[ScenarioResult],
    fabrication: FabricationStats,
    store: StoreStats,
    peer: PeerStats,
) -> WorkOutcome {
    let pieces = results
        .iter()
        .map(|result| {
            // `to_json_pretty` appends the document newline; pieces
            // carry the bare level-0 text `Json::Raw` splices.
            let mut metrics = result.data.metrics().to_json_pretty();
            metrics.pop();
            Piece {
                name: result.scenario.name.clone(),
                metrics,
                artifacts: result.data.artifacts(),
                wall_nanos: u64::try_from(result.wall.as_nanos()).unwrap_or(u64::MAX),
            }
        })
        .collect();
    WorkOutcome { pieces, fabrication, store, peer }
}

/// Encodes a work outcome as pieces text — a sequence of frames in
/// the shared [`chipletqc_store::wire`] grammar (a `pieces` counter
/// frame, then per scenario a `piece` frame and its `artifact`
/// frames), carried opaquely in a
/// [`Response::WorkResult`](crate::protocol::Response) payload.
pub fn encode_pieces(outcome: &WorkOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{VERSION} pieces");
    let _ = writeln!(out, "count = {}", outcome.pieces.len());
    let _ = writeln!(out, "chiplet-campaigns = {}", outcome.fabrication.chiplet_fabrications);
    let _ = writeln!(out, "mono-campaigns = {}", outcome.fabrication.mono_fabrications);
    let _ = writeln!(out, "store-hits = {}", outcome.store.hits);
    let _ = writeln!(out, "store-misses = {}", outcome.store.misses);
    let _ = writeln!(out, "store-writes = {}", outcome.store.writes);
    let _ = writeln!(out, "store-invalid = {}", outcome.store.invalid);
    let _ = writeln!(out, "peer-hits = {}", outcome.peer.hits);
    let _ = writeln!(out, "peer-misses = {}", outcome.peer.misses);
    let _ = writeln!(out, "peer-errors = {}", outcome.peer.errors);
    let _ = writeln!(out, "peer-trips = {}", outcome.peer.trips);
    let _ = writeln!(out, "peer-dials = {}", outcome.peer.dials);
    let _ = writeln!(out, "peer-reused = {}", outcome.peer.reused);
    let _ = writeln!(out, "peer-pushes = {}", outcome.peer.pushes);
    out.push('\n');
    for piece in &outcome.pieces {
        let _ = writeln!(out, "{VERSION} piece");
        let _ = writeln!(out, "name-bytes = {}", piece.name.len());
        let _ = writeln!(out, "metrics-bytes = {}", piece.metrics.len());
        let _ = writeln!(out, "wall-nanos = {}", piece.wall_nanos);
        let _ = writeln!(out, "artifacts = {}", piece.artifacts.len());
        out.push('\n');
        out.push_str(&piece.name);
        out.push_str(&piece.metrics);
        for (name, contents) in &piece.artifacts {
            let _ = writeln!(out, "{VERSION} artifact");
            let _ = writeln!(out, "name-bytes = {}", name.len());
            let _ = writeln!(out, "content-bytes = {}", contents.len());
            out.push('\n');
            out.push_str(name);
            out.push_str(contents);
        }
    }
    out
}

/// The required-header-as-u64 parse shared by [`decode_pieces`]'s
/// counter fields.
fn need_u64(headers: &[(String, String)], key: &str) -> io::Result<u64> {
    header(headers, key)
        .ok_or_else(|| bad(format!("pieces frame is missing `{key}`")))?
        .parse()
        .map_err(|_| bad(format!("bad {key}")))
}

/// Decodes pieces text back into a work outcome, rejecting malformed
/// input with `InvalidData` (a worker speaking a different version of
/// the codec must fail the claim, never corrupt a merge).
pub fn decode_pieces(text: &str) -> io::Result<WorkOutcome> {
    let mut r = text.as_bytes();
    let (verb, headers) = chipletqc_store::wire::read_frame_head(&mut r)?;
    if verb != "pieces" {
        return Err(bad(format!("expected a pieces frame, got `{verb}`")));
    }
    let count = need_u64(&headers, "count")?;
    let mut outcome = WorkOutcome {
        fabrication: FabricationStats {
            chiplet_fabrications: need_u64(&headers, "chiplet-campaigns")? as usize,
            mono_fabrications: need_u64(&headers, "mono-campaigns")? as usize,
        },
        store: StoreStats {
            hits: need_u64(&headers, "store-hits")?,
            misses: need_u64(&headers, "store-misses")?,
            writes: need_u64(&headers, "store-writes")?,
            invalid: need_u64(&headers, "store-invalid")?,
        },
        peer: PeerStats {
            hits: need_u64(&headers, "peer-hits")?,
            misses: need_u64(&headers, "peer-misses")?,
            errors: need_u64(&headers, "peer-errors")?,
            trips: need_u64(&headers, "peer-trips")?,
            dials: need_u64(&headers, "peer-dials")?,
            reused: need_u64(&headers, "peer-reused")?,
            pushes: need_u64(&headers, "peer-pushes")?,
        },
        pieces: Vec::new(),
    };
    for _ in 0..count {
        let (verb, headers) = chipletqc_store::wire::read_frame_head(&mut r)?;
        if verb != "piece" {
            return Err(bad(format!("expected a piece frame, got `{verb}`")));
        }
        let name_len = parse_len(
            header(&headers, "name-bytes")
                .ok_or_else(|| bad("piece frame is missing `name-bytes`".into()))?,
        )?;
        let metrics_len = parse_len(
            header(&headers, "metrics-bytes")
                .ok_or_else(|| bad("piece frame is missing `metrics-bytes`".into()))?,
        )?;
        let wall_nanos = need_u64(&headers, "wall-nanos")?;
        let artifacts = need_u64(&headers, "artifacts")?;
        let name = read_utf8(&mut r, name_len, "piece name")?;
        let metrics = read_utf8(&mut r, metrics_len, "piece metrics")?;
        let mut piece = Piece { name, metrics, artifacts: Vec::new(), wall_nanos };
        for _ in 0..artifacts {
            let (verb, headers) = chipletqc_store::wire::read_frame_head(&mut r)?;
            if verb != "artifact" {
                return Err(bad(format!("expected an artifact frame, got `{verb}`")));
            }
            let name_len = parse_len(
                header(&headers, "name-bytes")
                    .ok_or_else(|| bad("artifact frame is missing `name-bytes`".into()))?,
            )?;
            let content_len = parse_len(
                header(&headers, "content-bytes")
                    .ok_or_else(|| bad("artifact frame is missing `content-bytes`".into()))?,
            )?;
            let name = read_utf8(&mut r, name_len, "artifact name")?;
            let contents = read_utf8(&mut r, content_len, "artifact contents")?;
            piece.artifacts.push((name, contents));
        }
        outcome.pieces.push(piece);
    }
    if !r.fill_buf()?.is_empty() {
        return Err(bad("trailing bytes after the last piece".into()));
    }
    Ok(outcome)
}

/// Merges work outcomes back into the batch's deterministic report.
///
/// `scenarios` is the coordinator's own expansion (order defines
/// entry order and indices); every scenario must have exactly one
/// piece across the outcomes. Counters are summed. The headline is
/// never composed: mesh runs are sweeps, a sweep is single-kind, and
/// the headline needs Fig. 8 *and* Fig. 9 data — so a local run of the
/// same batch reports `"headline": null` too, and the documents stay
/// byte-identical.
pub fn merge_report(
    scenarios: &[crate::scenario::Scenario],
    outcomes: Vec<WorkOutcome>,
) -> Result<RunReport, String> {
    let mut fabrication = FabricationStats::default();
    let mut store = StoreStats::default();
    let mut peer = PeerStats::default();
    let mut pieces: BTreeMap<String, Piece> = BTreeMap::new();
    for outcome in outcomes {
        fabrication.chiplet_fabrications += outcome.fabrication.chiplet_fabrications;
        fabrication.mono_fabrications += outcome.fabrication.mono_fabrications;
        store.hits += outcome.store.hits;
        store.misses += outcome.store.misses;
        store.writes += outcome.store.writes;
        store.invalid += outcome.store.invalid;
        peer.hits += outcome.peer.hits;
        peer.misses += outcome.peer.misses;
        peer.errors += outcome.peer.errors;
        peer.trips += outcome.peer.trips;
        peer.dials += outcome.peer.dials;
        peer.reused += outcome.peer.reused;
        peer.pushes += outcome.peer.pushes;
        for piece in outcome.pieces {
            if pieces.insert(piece.name.clone(), piece).is_some() {
                return Err("duplicate piece for one scenario across work units".into());
            }
        }
    }
    let mut entries = Vec::with_capacity(scenarios.len());
    for (index, scenario) in scenarios.iter().enumerate() {
        let piece = pieces.remove(&scenario.name).ok_or_else(|| {
            format!("mesh run incomplete: no result for scenario `{}`", scenario.name)
        })?;
        entries.push(ReportEntry {
            index,
            name: scenario.name.clone(),
            kind_name: scenario.kind.name().to_string(),
            scale_name: scenario.scale.name().to_string(),
            overrides: scenario.overrides.to_json(),
            metrics: Json::Raw(piece.metrics),
            artifacts: piece.artifacts,
        });
    }
    if let Some(stray) = pieces.keys().next() {
        return Err(format!("worker returned a result for unknown scenario `{stray}`"));
    }
    Ok(RunReport::from_entries(entries, None, fabrication, store, peer))
}

/// The mesh coordinator's configuration: where the workers are, and
/// how patient to be with them.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Worker daemon `HOST:PORT` addresses (each running
    /// `serve --mesh-worker --listen`).
    pub workers: Vec<String>,
    /// The shared token every worker authenticates with.
    pub token: String,
    /// Per-unit deadline: a claim whose worker has neither finished
    /// nor progressed its reply within this budget counts as a worker
    /// failure and the unit is requeued. Covers the unit's *compute*
    /// time, so it is generous by default.
    pub deadline: Duration,
    /// Work-unit count override; `None` carves
    /// [`UNITS_PER_WORKER`]·workers units (clamped to the scenario
    /// count).
    pub units: Option<usize>,
}

impl MeshConfig {
    /// A configuration for `workers` sharing `token`, with the default
    /// deadline and unit carve.
    pub fn new(workers: Vec<String>, token: impl Into<String>) -> MeshConfig {
        MeshConfig {
            workers,
            token: token.into(),
            deadline: Duration::from_secs(600),
            units: None,
        }
    }
}

/// What one mesh run did — sizes and robustness events, for logs and
/// tests (never the report).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MeshSummary {
    /// Scenarios in the batch.
    pub scenarios: usize,
    /// Work units carved.
    pub units: usize,
    /// Units requeued after a claim failed (transport error or
    /// deadline).
    pub retries: u64,
    /// Workers declared dead ([`WORKER_FAILURE_LIMIT`] consecutive
    /// failures).
    pub dead_workers: usize,
}

/// A completed mesh run: the merged deterministic report plus the
/// schedule-dependent trimmings.
#[derive(Debug)]
pub struct MeshRun {
    /// The merged report — byte-identical to a local run's, modulo
    /// counter objects.
    pub report: RunReport,
    /// Human-readable timing/attribution lines (schedule-dependent,
    /// never part of the report).
    pub timing: String,
    /// Robustness events and sizes.
    pub summary: MeshSummary,
}

/// The shared scatter state all dispatch threads work against.
struct MeshState {
    /// Units awaiting (re-)dispatch.
    pending: VecDeque<usize>,
    /// First-result-wins slots, one per unit.
    outcomes: Vec<Option<WorkOutcome>>,
    /// Filled outcome slots.
    done: usize,
    /// A deterministic worker rejection — fails the whole run.
    poison: Option<String>,
    /// Units requeued after failed claims.
    retries: u64,
    /// Workers declared dead.
    dead_workers: usize,
}

/// One bounded claim exchange: dial, authenticate, send the unit,
/// read the result. The read timeout covers the worker's compute
/// time, so it is the per-unit deadline.
fn claim(
    addr: &str,
    token: &str,
    unit: &Submission,
    deadline: Duration,
) -> io::Result<Response> {
    let stream = remote::connect(addr, Some(deadline), Some(deadline))?;
    let mut writer = BufWriter::new(&stream);
    remote::write_hello(&mut writer, token)?;
    write_request(&mut writer, &Request::WorkClaim(unit.clone()))?;
    read_response(&mut BufReader::new(&stream))
}

/// Runs one sweep across the mesh: expand, partition, scatter,
/// gather, merge. See the module docs for the determinism and
/// robustness contracts.
///
/// The submission must carry a sweep (`sweep_text`); `workers`,
/// `shards`, `seed`, and `scale` are forwarded to every unit, and
/// `only` filters the coordinator's expansion before partitioning.
pub fn run_mesh(submission: &Submission, config: &MeshConfig) -> Result<MeshRun, String> {
    if config.workers.is_empty() {
        return Err("mesh run needs at least one worker address".into());
    }
    let sweep_text = submission
        .sweep_text
        .as_deref()
        .ok_or("mesh runs scatter sweeps; submit one with --sweep")?;
    let sweep = Sweep::parse(sweep_text).map_err(|e| format!("sweep: {e}"))?;
    let scenarios = resolve_batch(
        Some(&sweep),
        submission.scale.unwrap_or(Scale::Paper),
        submission.only.as_deref(),
        submission.seed,
    )?;
    if scenarios.is_empty() {
        return Err("the sweep expanded to zero scenarios".into());
    }

    let unit_target = config.units.unwrap_or(config.workers.len() * UNITS_PER_WORKER).max(1);
    let ranges = partition(scenarios.len(), unit_target);
    let units: Vec<Submission> = ranges
        .iter()
        .map(|range| Submission {
            sweep_text: Some(sweep_text.to_string()),
            only: Some(scenarios[range.clone()].iter().map(|s| s.name.clone()).collect()),
            scale: submission.scale,
            workers: submission.workers,
            shards: submission.shards,
            seed: submission.seed,
            reset: false,
        })
        .collect();

    #[expect(
        clippy::disallowed_methods,
        reason = "coordinator wall-time for the stderr timing block only"
    )]
    let started = Instant::now();
    let state = Mutex::new(MeshState {
        pending: (0..units.len()).collect(),
        outcomes: vec![None; units.len()],
        done: 0,
        poison: None,
        retries: 0,
        dead_workers: 0,
    });
    let changed = Condvar::new();

    // One dispatch thread per worker; each returns how many units its
    // worker completed (attribution for the timing lines).
    let completed: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = config
            .workers
            .iter()
            .map(|addr| {
                let (state, changed, units) = (&state, &changed, &units);
                scope.spawn(move || dispatch_for_worker(addr, config, units, state, changed))
            })
            .collect();
        // A panicked dispatch thread attributes zero units; the
        // unfinished-unit accounting below turns that into a clean
        // coordinator error instead of a crash.
        handles.into_iter().map(|h| h.join().unwrap_or(0)).collect()
    });

    let state = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(message) = state.poison {
        return Err(format!("a worker rejected its unit: {message}"));
    }
    if state.done != units.len() {
        return Err(format!(
            "mesh run failed: {} of {} unit(s) unfinished after every worker died",
            units.len() - state.done,
            units.len()
        ));
    }
    #[expect(
        clippy::expect_used,
        reason = "done == len means every slot was filled by a dispatcher"
    )]
    let outcomes: Vec<WorkOutcome> =
        state.outcomes.into_iter().map(|slot| slot.expect("done implies filled")).collect();

    let mut timing = format!(
        "mesh: {} scenario(s) in {} unit(s) across {} worker(s)\n",
        scenarios.len(),
        units.len(),
        config.workers.len()
    );
    for (addr, units_done) in config.workers.iter().zip(&completed) {
        let _ = writeln!(timing, "  {addr:<24} {units_done} unit(s)");
    }
    if state.retries > 0 {
        let _ = writeln!(
            timing,
            "  {} unit claim(s) retried; {} worker(s) declared dead",
            state.retries, state.dead_workers
        );
    }
    let _ = writeln!(timing, "  total {:>9.3}s wall", started.elapsed().as_secs_f64());

    let summary = MeshSummary {
        scenarios: scenarios.len(),
        units: units.len(),
        retries: state.retries,
        dead_workers: state.dead_workers,
    };
    let report = merge_report(&scenarios, outcomes)?;
    Ok(MeshRun { report, timing, summary })
}

/// One worker's dispatch loop: claim pending units, fall back to
/// speculative re-claims of in-flight units near the tail, requeue on
/// failure, and exit on completion, poison, or worker death. With
/// nothing claimable it waits on `changed`, which every requeue,
/// completion, poisoning and worker death notifies. After a claim the
/// dispatcher picks its next unit under the same lock acquisition that
/// recorded the result, so a failing worker retries its requeued unit
/// before a woken survivor can take it (which speculates on it
/// instead) and is declared dead without racing the run's end.
/// Returns the number of units this worker completed first.
fn dispatch_for_worker(
    addr: &str,
    config: &MeshConfig,
    units: &[Submission],
    state: &Mutex<MeshState>,
    changed: &Condvar,
) -> u64 {
    let mut attempted: BTreeSet<usize> = BTreeSet::new();
    let mut consecutive_failures = 0u32;
    let mut completed = 0u64;
    let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        let (unit, speculative) = loop {
            if st.poison.is_some() || st.done == units.len() {
                return completed;
            }
            if let Some(unit) = st.pending.pop_front() {
                break (unit, false);
            }
            // Speculate on an in-flight unit this worker has not tried
            // yet: the straggler policy. Results are deterministic, so
            // duplicated work is safe.
            if let Some(unit) = (0..units.len())
                .find(|unit| st.outcomes[*unit].is_none() && !attempted.contains(unit))
            {
                break (unit, true);
            }
            st = changed.wait(st).unwrap_or_else(PoisonError::into_inner);
        };
        drop(st);
        attempted.insert(unit);
        #[expect(
            clippy::disallowed_methods,
            reason = "per-unit latency for the obs histogram and retry accounting"
        )]
        let claim_started = Instant::now();
        let failure = match claim(addr, &config.token, &units[unit], config.deadline) {
            Ok(Response::WorkResult { pieces }) => match decode_pieces(&pieces) {
                Ok(outcome) => {
                    chipletqc_obs::histogram("mesh.unit")
                        .record_micros(claim_started.elapsed().as_micros() as u64);
                    st = state.lock().unwrap_or_else(PoisonError::into_inner);
                    consecutive_failures = 0;
                    if st.outcomes[unit].is_none() {
                        st.outcomes[unit] = Some(outcome);
                        st.done += 1;
                        completed += 1;
                        if speculative {
                            // This worker's duplicate beat the
                            // original claimant to the slot.
                            chipletqc_obs::counter("mesh.speculation_wins").inc();
                        }
                        changed.notify_all();
                    }
                    continue;
                }
                Err(error) => format!("undecodable pieces from {addr}: {error}"),
            },
            // A deterministic rejection: every worker would refuse the
            // same unit the same way. Poison the run.
            Ok(Response::Error(message)) => {
                let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
                st.poison.get_or_insert(message);
                changed.notify_all();
                return completed;
            }
            Ok(other) => format!("unexpected reply from {addr}: {other:?}"),
            Err(error) => format!("claim on {addr} failed: {error}"),
        };
        // Transport-shaped failure: requeue for the survivors and
        // count it against this worker.
        eprintln!("chipletqc-engine mesh: {failure}; requeueing unit {unit}");
        st = state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.outcomes[unit].is_none() && !st.pending.contains(&unit) {
            st.pending.push_back(unit);
            st.retries += 1;
            chipletqc_obs::counter("mesh.retries").inc();
        }
        changed.notify_all();
        consecutive_failures += 1;
        if consecutive_failures >= WORKER_FAILURE_LIMIT {
            st.dead_workers += 1;
            return completed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;
    use chipletqc::lab::CacheHub;

    #[test]
    fn partition_is_contiguous_balanced_and_total() {
        for count in 0..40 {
            for units in 0..10 {
                let ranges = partition(count, units);
                if count == 0 || units == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert_eq!(ranges.len(), units.min(count), "never an empty unit");
                let mut next = 0;
                let mut sizes = Vec::new();
                for range in &ranges {
                    assert_eq!(range.start, next, "contiguous, in order");
                    assert!(range.end > range.start, "non-empty");
                    sizes.push(range.len());
                    next = range.end;
                }
                assert_eq!(next, count, "covers every scenario exactly once");
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "sizes differ by at most one: {sizes:?}");
            }
        }
    }

    #[test]
    fn pieces_round_trip_bytes_exactly() {
        let outcome = WorkOutcome {
            pieces: vec![
                Piece {
                    name: "sweep/a".into(),
                    metrics: "{\n  \"systems\": 1,\n  \"odd \\\"chars\\\"\": true\n}".into(),
                    artifacts: vec![
                        ("sweep/a-fig8.txt".into(), "line one\n\nline three\n".into()),
                        ("empty.txt".into(), String::new()),
                    ],
                    wall_nanos: 123_456_789,
                },
                Piece {
                    name: "sweep/b".into(),
                    metrics: "{}".into(),
                    artifacts: Vec::new(),
                    wall_nanos: 0,
                },
            ],
            fabrication: FabricationStats { chiplet_fabrications: 2, mono_fabrications: 5 },
            store: StoreStats { hits: 1, misses: 2, writes: 3, invalid: 4 },
            peer: PeerStats {
                hits: 9,
                misses: 8,
                errors: 7,
                trips: 6,
                dials: 5,
                reused: 4,
                pushes: 3,
            },
        };
        let text = encode_pieces(&outcome);
        assert_eq!(decode_pieces(&text).unwrap(), outcome);
        let empty = WorkOutcome::default();
        assert_eq!(decode_pieces(&encode_pieces(&empty)).unwrap(), empty);
    }

    #[test]
    fn malformed_pieces_are_errors_not_panics() {
        for text in [
            "",
            "chipletqc/1 piece\n\n",             // wrong leading verb
            "chipletqc/1 pieces\ncount = 1\n\n", // missing counters
            "chipletqc/0 pieces\ncount = 0\n\n", // wrong version
        ] {
            assert!(decode_pieces(text).is_err(), "`{text}` should not decode");
        }
        // Truncated mid-piece, and trailing garbage after a valid body.
        let good = encode_pieces(&WorkOutcome::default());
        assert!(decode_pieces(&good[..good.len() - 2]).is_err());
        assert!(decode_pieces(&format!("{good}x")).is_err(), "trailing bytes must be rejected");
    }

    /// The merge contract end to end, without any sockets: splitting a
    /// batch's results into work outcomes and merging them back must
    /// reproduce the local report byte-for-byte in
    /// `strip_counter_objects` form (the stripped fabrication/store
    /// counters still sum to the originals, but the live telemetry
    /// object moves between the two serializations).
    #[test]
    fn merging_split_results_reproduces_the_local_report_bytes() {
        let sweep = Sweep::parse(
            "name = mesh\nkind = fig8\nscale = quick\n\
             grid = 10q2x2, 10q2x3, 10q2x2+10q2x3\nbatch = 80\nseed = 11\n",
        )
        .expect("sweep parses");
        let scenarios = sweep.expand();
        let hub = CacheHub::new();
        let results = Scheduler::new(2).run(&scenarios, &hub);
        let local = RunReport::from_results(
            &results,
            hub.fabrication_stats(),
            hub.store_stats(),
            hub.peer_stats(),
        );

        for unit_count in [1, 2, 3] {
            // All counters ride on the first outcome; the rest are
            // zero — their sum is what must match the local report.
            let outcomes: Vec<WorkOutcome> = partition(results.len(), unit_count)
                .into_iter()
                .enumerate()
                .map(|(i, range)| {
                    // The wire round trip is part of the path under test.
                    let encoded = encode_pieces(&outcome_from_results(
                        &results[range],
                        if i == 0 { hub.fabrication_stats() } else { Default::default() },
                        if i == 0 { hub.store_stats() } else { Default::default() },
                        if i == 0 { hub.peer_stats() } else { Default::default() },
                    ));
                    decode_pieces(&encoded).expect("pieces round-trip")
                })
                .collect();
            let merged = merge_report(&scenarios, outcomes).expect("merge");
            assert_eq!(
                crate::report::strip_counter_objects(&merged.to_json()),
                crate::report::strip_counter_objects(&local.to_json()),
                "merged report must be byte-identical at {unit_count} unit(s)"
            );
            // The summed fabrication/store counters DO match exactly.
            for key in ["chiplet_campaigns", "hits", "writes"] {
                let needle = format!("\"{key}\": ");
                assert_eq!(
                    merged.to_json().find(&needle).map(|at| {
                        merged.to_json()[at + needle.len()..]
                            .chars()
                            .take_while(char::is_ascii_digit)
                            .collect::<String>()
                    }),
                    local.to_json().find(&needle).map(|at| {
                        local.to_json()[at + needle.len()..]
                            .chars()
                            .take_while(char::is_ascii_digit)
                            .collect::<String>()
                    }),
                    "summed counter {key} diverged at {unit_count} unit(s)"
                );
            }
            assert_eq!(merged.artifacts(), local.artifacts());
        }
    }

    #[test]
    fn merge_rejects_missing_stray_and_duplicate_pieces() {
        let sweep = Sweep::parse(
            "name = mesh\nkind = fig8\nscale = quick\ngrid = 10q2x2, 10q2x3\nbatch = 80\nseed = 3\n",
        )
        .unwrap();
        let scenarios = sweep.expand();
        let hub = CacheHub::new();
        let results = Scheduler::new(2).run(&scenarios, &hub);
        let whole = outcome_from_results(
            &results,
            Default::default(),
            Default::default(),
            Default::default(),
        );
        // Missing a scenario's piece.
        let mut missing = whole.clone();
        missing.pieces.pop();
        let error = merge_report(&scenarios, vec![missing]).unwrap_err();
        assert!(error.contains("no result for scenario"), "{error}");
        // A stray piece for a scenario the batch does not contain.
        let mut stray = whole.clone();
        stray.pieces.push(Piece {
            name: "not-in-the-batch".into(),
            metrics: "{}".into(),
            artifacts: Vec::new(),
            wall_nanos: 0,
        });
        let error = merge_report(&scenarios, vec![stray]).unwrap_err();
        assert!(error.contains("unknown scenario"), "{error}");
        // The same scenario delivered twice across outcomes.
        let error = merge_report(&scenarios, vec![whole.clone(), whole]).unwrap_err();
        assert!(error.contains("duplicate piece"), "{error}");
    }

    #[test]
    fn run_mesh_rejects_degenerate_configurations() {
        let no_workers = MeshConfig::new(Vec::new(), "t");
        let submission = Submission {
            sweep_text: Some("kind = fig8\ngrid = 10q2x2\n".into()),
            ..Submission::default()
        };
        assert!(run_mesh(&submission, &no_workers)
            .unwrap_err()
            .contains("at least one worker"));
        let config = MeshConfig::new(vec!["127.0.0.1:1".into()], "t");
        let sweepless = Submission::default();
        assert!(run_mesh(&sweepless, &config).unwrap_err().contains("--sweep"));
    }
}
