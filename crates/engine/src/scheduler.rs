//! The scenario scheduler: a fixed worker pool, with intra-scenario
//! sharding.
//!
//! Work units are *shard tasks*: at `shards = 1` (the default) each
//! scenario is one task, exactly as in the original scheduler. At
//! higher shard counts a scenario splits into several tasks the
//! workers interleave freely with other scenarios' tasks:
//!
//! * **system shards** — Fig. 8/9/10 scenarios partition their
//!   resolved system set into contiguous slices, each evaluated as an
//!   ordinary (restricted) scenario;
//! * **trial-range shards** — output-gain scenarios partition their
//!   Monte Carlo batches into [`TrialRange`]s of batch-global trial
//!   indices;
//! * every other kind stays whole (a single task).
//!
//! Execution runs on a [`WorkPool`]: a fixed set of worker threads
//! serving any number of concurrent *batch roots*. Each submitted
//! batch becomes one root holding its own FIFO task queue and
//! per-batch concurrency cap (the batch's `workers` setting); the pool
//! does not steal work: each idle worker takes the front task of the
//! next root round-robin **across roots**, so two clients' batches
//! interleave fairly instead of queueing behind each other.
//! [`Scheduler::run`] — the one-shot path — is a pool of its own with
//! a single root, which reproduces the historical serial behavior
//! exactly (including panic propagation). A root can be cancelled:
//! pending tasks are dropped, in-flight tasks finish (tasks are pure
//! and cheap to let complete), and [`BatchHandle::wait`] reports
//! [`BatchAborted::Cancelled`] instead of results.
//!
//! ## Determinism
//!
//! The schedule — worker count *and* shard count — decides only *where
//! and when* work runs, never *what it computes*: every scenario
//! derives its random streams from its own configuration, trial `i` of
//! a Monte Carlo batch always derives from `seed.split(i)` regardless
//! of which shard simulates it, shared-cache entries are pure
//! functions of the cache key (initialized exactly once via per-entry
//! `OnceLock`), and shard outputs are recombined by a deterministic
//! merge in shard order (contiguous slices ⇒ the single-pass order).
//! A batch therefore produces bit-identical results for any
//! `(workers, shards)` pair —
//! [`RunReport`](crate::report::RunReport) serialization included.
//!
//! ## One level of parallelism
//!
//! The pool's threads are the only compute threads: a task's Monte
//! Carlo runs sequentially on the pool thread that picked it. A
//! batch's `workers` setting is therefore its whole thread count, and
//! `shards` is how one Fig. 8/9/10 or output-gain scenario spreads
//! over more than one of those threads.

// Daemon path: a panic here takes down the warm hub and every queued
// client. (`unwrap_used` comes from the workspace lints.)
#![warn(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
// Lock poisoning policy: batch tasks run under `catch_unwind` and
// never hold a pool lock, so a poisoned guard means an internal
// bookkeeping thread died mid-update; the long-lived pool recovers
// the guard rather than cascading the poison into every batch.
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use chipletqc::experiments::output_gain::{self, OutputGainConfig, OutputGainShard};
use chipletqc::experiments::{fig10, fig8, fig9};
use chipletqc::lab::CacheHub;
use chipletqc_yield::monte_carlo::TrialRange;

use crate::scenario::{ExperimentData, ExperimentKind, Scenario};

/// The result of one executed scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Position in the submitted batch.
    pub index: usize,
    /// The scenario that ran, as submitted.
    pub scenario: Scenario,
    /// The typed experiment output (merged across shards).
    pub data: ExperimentData,
    /// Summed wall-clock execution time of the scenario's shards (not
    /// part of any deterministic artifact).
    pub wall: Duration,
}

/// A scheduler executing scenario batches on `workers` pool threads,
/// splitting each shardable scenario into up to `shards` tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduler {
    workers: usize,
    shards: usize,
}

/// One schedulable unit of work: a shard of a scenario.
#[derive(Debug, Clone)]
enum ShardTask {
    /// Run the scenario as-is (whole, or restricted to a system
    /// slice).
    Run(Scenario),
    /// Simulate a trial-range slice of an output-gain Monte Carlo.
    OutputGainTrials { config: OutputGainConfig, mono: TrialRange, chiplet: TrialRange },
}

/// The output of one shard task.
#[derive(Debug, Clone)]
enum ShardOutput {
    Data(ExperimentData),
    OutputGainPartial(OutputGainShard),
}

impl Scheduler {
    /// A scheduler with `workers` threads (clamped to at least 1) and
    /// no intra-scenario sharding.
    pub fn new(workers: usize) -> Scheduler {
        Scheduler { workers: workers.max(1), shards: 1 }
    }

    /// Returns a copy splitting each shardable scenario into up to
    /// `shards` tasks (clamped to at least 1). Results are
    /// bit-identical for every shard count.
    #[must_use]
    pub fn with_shards(self, shards: usize) -> Scheduler {
        Scheduler { shards: shards.max(1), ..self }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured per-scenario shard cap.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Splits one scenario into at most `self.shards` tasks. Slices
    /// are contiguous and non-empty, so merging outputs in shard order
    /// reproduces the single-pass order.
    fn plan(&self, scenario: &Scenario) -> Vec<ShardTask> {
        if self.shards <= 1 {
            return vec![ShardTask::Run(scenario.clone())];
        }
        match scenario.kind {
            ExperimentKind::Fig8 | ExperimentKind::Fig9 | ExperimentKind::Fig10 => {
                #[expect(
                    clippy::expect_used,
                    reason = "fig8/9/10 scenarios always carry systems; guarded by kind"
                )]
                let systems = scenario.resolved_systems().expect("lab kinds have systems");
                if systems.len() <= 1 {
                    return vec![ShardTask::Run(scenario.clone())];
                }
                let per = systems.len().div_ceil(self.shards.min(systems.len()));
                systems
                    .chunks(per)
                    .map(|slice| ShardTask::Run(scenario.with_systems(slice.to_vec())))
                    .collect()
            }
            ExperimentKind::OutputGain => {
                #[expect(clippy::expect_used, reason = "guarded by the OutputGain match arm")]
                let config = scenario.output_gain_config().expect("kind is OutputGain");
                // Both batches must split into the same shard count.
                let n = self.shards.min(config.batch.max(1)).min(config.chiplet_batch().max(1));
                if n <= 1 {
                    return vec![ShardTask::Run(scenario.clone())];
                }
                TrialRange::split(config.batch, n)
                    .into_iter()
                    .zip(TrialRange::split(config.chiplet_batch(), n))
                    .map(|(mono, chiplet)| ShardTask::OutputGainTrials {
                        config,
                        mono,
                        chiplet,
                    })
                    .collect()
            }
            _ => vec![ShardTask::Run(scenario.clone())],
        }
    }

    /// Executes every scenario, sharing intermediates through `hub`,
    /// and returns results in submission order.
    ///
    /// # Panics
    ///
    /// Propagates any panic raised by a scenario.
    pub fn run(&self, scenarios: &[Scenario], hub: &CacheHub) -> Vec<ScenarioResult> {
        let pool = WorkPool::new(self.workers);
        let handle = pool.submit(*self, scenarios, hub, None);
        match handle.wait() {
            Ok(results) => results,
            Err(BatchAborted::Panicked(payload)) => resume_unwind(payload),
            #[expect(
                clippy::unreachable,
                reason = "one-shot CLI path, not the daemon; nothing holds a cancel handle"
            )]
            Err(BatchAborted::Cancelled) => {
                unreachable!("one-shot batches are never cancelled")
            }
        }
    }
}

impl Default for Scheduler {
    fn default() -> Scheduler {
        Scheduler::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// Recombines a scenario's shard outputs, in shard order, into the
/// dataset a single-pass run produces — bit-identical, because slices
/// are contiguous and every per-system / per-trial value is a pure
/// function of the scenario configuration.
fn merge_shards(scenario: &Scenario, outputs: Vec<ShardOutput>) -> ExperimentData {
    // Unsharded scenarios pass their data through untouched.
    if outputs.len() == 1 {
        #[expect(
            clippy::unreachable,
            reason = "plan() emits exactly one ShardTask::Run for single-task plans"
        )]
        let Some(ShardOutput::Data(data)) = outputs.into_iter().next() else {
            unreachable!("single-task plans always produce ShardOutput::Data");
        };
        return data;
    }
    match scenario.kind {
        ExperimentKind::Fig8 => {
            ExperimentData::Fig8(fig8::Fig8Data::merge(outputs.into_iter().map(|o| match o {
                ShardOutput::Data(ExperimentData::Fig8(d)) => d,
                #[expect(
                    clippy::panic,
                    reason = "shard outputs are typed by plan(); runs under the task catch_unwind"
                )]
                other => panic!("fig8 shard produced {other:?}"),
            })))
        }
        ExperimentKind::Fig9 => {
            ExperimentData::Fig9(fig9::Fig9Data::merge(outputs.into_iter().map(|o| match o {
                ShardOutput::Data(ExperimentData::Fig9(d)) => d,
                #[expect(
                    clippy::panic,
                    reason = "shard outputs are typed by plan(); runs under the task catch_unwind"
                )]
                other => panic!("fig9 shard produced {other:?}"),
            })))
        }
        ExperimentKind::Fig10 => ExperimentData::Fig10(fig10::Fig10Data::merge(
            outputs.into_iter().map(|o| match o {
                ShardOutput::Data(ExperimentData::Fig10(d)) => d,
                #[expect(
                    clippy::panic,
                    reason = "shard outputs are typed by plan(); runs under the task catch_unwind"
                )]
                other => panic!("fig10 shard produced {other:?}"),
            }),
        )),
        ExperimentKind::OutputGain => {
            #[expect(clippy::expect_used, reason = "guarded by the OutputGain match arm")]
            let config = scenario.output_gain_config().expect("kind is OutputGain");
            ExperimentData::OutputGain(output_gain::from_shards(
                &config,
                outputs.into_iter().map(|o| match o {
                    ShardOutput::OutputGainPartial(shard) => shard,
                    #[expect(
                        clippy::panic,
                        reason = "shard outputs are typed by plan(); runs under the task catch_unwind"
                    )]
                    other => panic!("output-gain shard produced {other:?}"),
                }),
            ))
        }
        #[expect(
            clippy::panic,
            reason = "every sharded kind is matched above; runs under the task catch_unwind"
        )]
        other => panic!("kind {other:?} cannot be sharded"),
    }
}

/// Called with `(retired_tasks, total_tasks)` after every task a
/// batch retires; tasks a sibling's panic skipped count as retired, so
/// the count reaches the total however the batch ends (unless it is
/// cancelled). Invoked under the batch's scheduling lock so successive
/// calls observe monotonically increasing counts — keep it cheap and
/// non-blocking (e.g. a channel send).
pub type ProgressFn = Box<dyn Fn(usize, usize) + Send + Sync>;

/// Why [`BatchHandle::wait`] came back without results.
#[derive(Debug)]
pub enum BatchAborted {
    /// The batch was cancelled; pending tasks never ran.
    Cancelled,
    /// A task panicked; the payload is the panic's.
    Panicked(Box<dyn Any + Send>),
}

/// A fixed set of worker threads executing any number of concurrent
/// batches ("roots") fairly: idle workers pick the next pending task
/// round-robin across roots, each root capped at its own `workers`
/// setting, so a wide batch cannot starve a narrow one.
pub struct WorkPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a task may have become pickable: a new root, a
    /// freed cap slot, a removed root, or shutdown.
    work_ready: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// Roots with work outstanding; completed roots are removed.
    roots: Vec<Arc<BatchRoot>>,
    /// Fairness cursor: the root index the next pick starts from.
    rotation: usize,
    shutdown: bool,
}

/// One submitted batch: its flattened shard tasks plus everything
/// needed to reassemble ordered results.
struct BatchRoot {
    tasks: Vec<ShardTask>,
    jobs: Vec<Scenario>,
    /// `spans[i]` is `jobs[i]`'s range in `tasks`.
    spans: Vec<Range<usize>>,
    hub: CacheHub,
    /// At most this many of the root's tasks run at once.
    cap: usize,
    cancelled: AtomicBool,
    /// When the batch entered the pool (feeds `scheduler.queue_wait`).
    submitted: Instant,
    /// Set by the first pick so queue wait is recorded exactly once.
    picked: AtomicBool,
    progress: Option<ProgressFn>,
    sched: Mutex<RootSched>,
    /// Signalled when the root completes (all tasks finished or
    /// skipped, none running).
    done: Condvar,
}

struct RootSched {
    pending: VecDeque<usize>,
    running: usize,
    finished: usize,
    /// Pending tasks dropped by cancellation or a sibling's panic.
    skipped: usize,
    outputs: Vec<Option<(ShardOutput, Duration)>>,
    panic: Option<Box<dyn Any + Send>>,
}

impl RootSched {
    fn complete(&self, total: usize) -> bool {
        self.finished + self.skipped == total && self.running == 0
    }
}

impl WorkPool {
    /// A pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> WorkPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            work_ready: Condvar::new(),
        });
        let threads = (0..workers.max(1))
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, worker))
            })
            .collect();
        WorkPool { shared, threads }
    }

    /// Submits one batch as a new root and returns a handle to await
    /// (or cancel) it. `scheduler` supplies the batch's shard plan and
    /// concurrency cap, exactly as in [`Scheduler::run`].
    pub fn submit(
        &self,
        scheduler: Scheduler,
        scenarios: &[Scenario],
        hub: &CacheHub,
        progress: Option<ProgressFn>,
    ) -> BatchHandle {
        let jobs = scenarios.to_vec();

        // Flatten shard plans; `spans[i]` is jobs[i]'s task range.
        let mut tasks: Vec<ShardTask> = Vec::new();
        let mut spans: Vec<Range<usize>> = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let plan = scheduler.plan(job);
            let start = tasks.len();
            tasks.extend(plan);
            spans.push(start..tasks.len());
        }

        let total = tasks.len();
        let root = Arc::new(BatchRoot {
            sched: Mutex::new(RootSched {
                pending: (0..total).collect(),
                running: 0,
                finished: 0,
                skipped: 0,
                outputs: (0..total).map(|_| None).collect(),
                panic: None,
            }),
            tasks,
            jobs,
            spans,
            hub: hub.clone(),
            cap: scheduler.workers(),
            cancelled: AtomicBool::new(false),
            #[expect(
                clippy::disallowed_methods,
                reason = "queue-wait telemetry origin; feeds the obs histograms only"
            )]
            submitted: Instant::now(),
            picked: AtomicBool::new(false),
            progress,
            done: Condvar::new(),
        });
        {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.roots.push(Arc::clone(&root));
        }
        self.shared.work_ready.notify_all();
        // An empty batch is complete at submission; no worker will
        // ever touch it, so settle it here.
        if total == 0 {
            settle(&self.shared, &root);
        }
        BatchHandle { root, shared: Arc::clone(&self.shared) }
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// A submitted batch awaiting execution on a [`WorkPool`].
pub struct BatchHandle {
    root: Arc<BatchRoot>,
    shared: Arc<PoolShared>,
}

impl BatchHandle {
    /// Total shard tasks in this batch (the denominator of progress
    /// callbacks).
    pub fn total_tasks(&self) -> usize {
        self.root.tasks.len()
    }

    /// Cancels the batch: pending tasks are dropped, in-flight tasks
    /// run to completion, and [`BatchHandle::wait`] reports
    /// [`BatchAborted::Cancelled`]. Idempotent; safe after completion
    /// (the batch still reports cancelled — cancel wins ties
    /// deterministically).
    pub fn cancel(&self) {
        self.root.cancelled.store(true, Ordering::SeqCst);
        {
            let mut sched = self.root.sched.lock().unwrap_or_else(PoisonError::into_inner);
            sched.skipped += sched.pending.len();
            sched.pending.clear();
        }
        settle(&self.shared, &self.root);
    }

    /// Blocks until every task has finished or been skipped, then
    /// returns results in submission order (or why there are none).
    pub fn wait(self) -> Result<Vec<ScenarioResult>, BatchAborted> {
        let mut sched = self.root.sched.lock().unwrap_or_else(PoisonError::into_inner);
        while !sched.complete(self.root.tasks.len()) {
            sched = self.root.done.wait(sched).unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = sched.panic.take() {
            return Err(BatchAborted::Panicked(payload));
        }
        if sched.skipped > 0 || self.root.cancelled.load(Ordering::SeqCst) {
            return Err(BatchAborted::Cancelled);
        }
        let mut outputs = std::mem::take(&mut sched.outputs);
        drop(sched);
        Ok(self
            .root
            .jobs
            .iter()
            .zip(&self.root.spans)
            .enumerate()
            .map(|(index, (scenario, span))| {
                let mut shard_outputs = Vec::with_capacity(span.len());
                let mut wall = Duration::ZERO;
                for slot in &mut outputs[span.clone()] {
                    #[expect(
                        clippy::expect_used,
                        reason = "spans partition the outputs; each slot is taken exactly once"
                    )]
                    let (output, elapsed) = slot.take().expect("span taken once");
                    shard_outputs.push(output);
                    wall += elapsed;
                }
                let data = merge_shards(scenario, shard_outputs);
                ScenarioResult { index, scenario: scenario.clone(), data, wall }
            })
            .collect())
    }
}

/// If `root` has completed, removes it from the pool's root list and
/// wakes waiters.
fn settle(shared: &PoolShared, root: &Arc<BatchRoot>) {
    let complete =
        root.sched.lock().unwrap_or_else(PoisonError::into_inner).complete(root.tasks.len());
    if complete {
        root.done.notify_all();
        let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.roots.retain(|r| !Arc::ptr_eq(r, root));
        drop(state);
        shared.work_ready.notify_all();
    }
}

/// Picks the next runnable task: scan roots round-robin from the
/// rotation cursor, take the front pending task of the first root
/// under its cap, and advance the cursor past it.
///
/// The caller holds the pool lock, so this nests `pool-state` →
/// `batch-sched` across a call edge. That direction is the workspace
/// lock order (the `lock-order` check rule walks it); nothing may
/// acquire the pool lock while a per-root `sched` guard is held.
fn pick(state: &mut PoolState) -> Option<(Arc<BatchRoot>, usize)> {
    let n = state.roots.len();
    for i in 0..n {
        let at = (state.rotation + i) % n;
        let root = &state.roots[at];
        let mut sched = root.sched.lock().unwrap_or_else(PoisonError::into_inner);
        if sched.running < root.cap {
            if let Some(index) = sched.pending.pop_front() {
                sched.running += 1;
                drop(sched);
                let root = Arc::clone(root);
                // Queue wait is submission → first pick, once per root.
                if !root.picked.swap(true, Ordering::Relaxed) {
                    chipletqc_obs::histogram("scheduler.queue_wait")
                        .record_micros(root.submitted.elapsed().as_micros() as u64);
                }
                state.rotation = (at + 1) % n;
                return Some((root, index));
            }
        }
    }
    None
}

fn run_task(task: &ShardTask, hub: &CacheHub) -> ShardOutput {
    match task {
        ShardTask::Run(scenario) => ShardOutput::Data(scenario.run(hub)),
        ShardTask::OutputGainTrials { config, mono, chiplet } => {
            ShardOutput::OutputGainPartial(output_gain::run_shard_in(
                config,
                *mono,
                *chiplet,
                hub.store().map(|s| s.as_ref()),
            ))
        }
    }
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    // The counter handle is resolved once per thread; the loop body
    // only touches atomics.
    let picks = chipletqc_obs::counter(&format!("scheduler.worker{worker}.picks"));
    loop {
        let (root, index) = {
            let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if state.shutdown && state.roots.is_empty() {
                    return;
                }
                if let Some(job) = pick(&mut state) {
                    break job;
                }
                state = shared.work_ready.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        picks.inc();
        #[expect(
            clippy::disallowed_methods,
            reason = "task wall-time for stderr timing summaries; never reaches report bytes"
        )]
        let started = Instant::now();
        // Tasks never hold a lock while running, so a panic cannot
        // poison pool state; it cancels the rest of its own root and
        // surfaces from `wait` instead.
        let outcome = {
            let _task = chipletqc_obs::span("scheduler.task")
                .label("unit", index)
                .label("worker", worker);
            catch_unwind(AssertUnwindSafe(|| run_task(&root.tasks[index], &root.hub)))
        };
        let elapsed = started.elapsed();
        {
            let mut sched = root.sched.lock().unwrap_or_else(PoisonError::into_inner);
            sched.running -= 1;
            match outcome {
                Ok(output) => {
                    debug_assert!(sched.outputs[index].is_none(), "task executed twice");
                    sched.outputs[index] = Some((output, elapsed));
                    sched.finished += 1;
                }
                Err(payload) => {
                    root.cancelled.store(true, Ordering::SeqCst);
                    if sched.panic.is_none() {
                        sched.panic = Some(payload);
                    }
                    sched.finished += 1;
                    sched.skipped += sched.pending.len();
                    sched.pending.clear();
                }
            }
            if let Some(progress) = &root.progress {
                progress(sched.finished + sched.skipped, root.tasks.len());
            }
        }
        settle(shared, &root);
        // Even if the root is not complete, this task's cap slot
        // freed up — another worker may now pick from it.
        shared.work_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Overrides, Scale, SystemSpec};

    fn tiny(kind: ExperimentKind, name: &str) -> Scenario {
        Scenario {
            name: name.into(),
            kind,
            scale: Scale::Quick,
            overrides: Overrides {
                batch: Some(100),
                systems: Some(vec![SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 }]),
                ..Overrides::default()
            },
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let batch = vec![
            tiny(ExperimentKind::Fig8, "a"),
            tiny(ExperimentKind::OutputGain, "b"),
            tiny(ExperimentKind::Fig8, "c"),
        ];
        let results = Scheduler::new(3).run(&batch, &CacheHub::new());
        assert_eq!(results.len(), 3);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.scenario, batch[i]);
        }
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let batch = vec![tiny(ExperimentKind::Fig8, "only")];
        let results = Scheduler::new(8).run(&batch, &CacheHub::new());
        assert_eq!(results.len(), 1);
        let empty = Scheduler::new(4).run(&[], &CacheHub::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn identical_scenarios_share_fabrication_across_workers() {
        let hub = CacheHub::new();
        let batch = vec![tiny(ExperimentKind::Fig8, "x"), tiny(ExperimentKind::Fig8, "y")];
        let results = Scheduler::new(2).run(&batch, &hub);
        assert_eq!(hub.fabrication_stats().chiplet_fabrications, 1);
        assert_eq!(hub.fabrication_stats().mono_fabrications, 1);
        match (&results[0].data, &results[1].data) {
            (ExperimentData::Fig8(a), ExperimentData::Fig8(b)) => assert_eq!(a, b),
            other => panic!("wrong kinds: {other:?}"),
        }
    }

    #[test]
    fn sharded_results_match_unsharded_results() {
        // Three-system fig8 + trial-ranged output gain: every shard
        // count must reproduce the shards = 1 data bit-for-bit.
        let fig8 = Scenario {
            overrides: Overrides {
                batch: Some(100),
                systems: Some(vec![
                    SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 },
                    SystemSpec { chiplet_qubits: 10, rows: 2, cols: 3 },
                    SystemSpec { chiplet_qubits: 10, rows: 3, cols: 3 },
                ]),
                ..Overrides::default()
            },
            ..tiny(ExperimentKind::Fig8, "fig8")
        };
        let batch = vec![fig8, tiny(ExperimentKind::OutputGain, "gain")];
        let baseline = Scheduler::new(2).run(&batch, &CacheHub::new());
        for shards in [2, 3, 8] {
            let sharded = Scheduler::new(2).with_shards(shards).run(&batch, &CacheHub::new());
            for (a, b) in baseline.iter().zip(&sharded) {
                assert_eq!(a.data, b.data, "{}: diverged at {shards} shards", a.scenario.name);
            }
        }
    }

    #[test]
    fn unshardable_kinds_run_whole_at_any_shard_count() {
        let scenario = Scenario {
            name: "table2".into(),
            kind: ExperimentKind::Table2,
            scale: Scale::Quick,
            overrides: Overrides { max_system_qubits: Some(60), ..Overrides::default() },
        };
        let plain = Scheduler::new(1).run(std::slice::from_ref(&scenario), &CacheHub::new());
        let sharded = Scheduler::new(2)
            .with_shards(4)
            .run(std::slice::from_ref(&scenario), &CacheHub::new());
        assert_eq!(plain[0].data, sharded[0].data);
    }

    #[test]
    fn sharding_still_fabricates_each_product_once_per_hub() {
        let hub = CacheHub::new();
        let fig8 = Scenario {
            overrides: Overrides {
                batch: Some(100),
                systems: Some(vec![
                    SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 },
                    SystemSpec { chiplet_qubits: 10, rows: 2, cols: 3 },
                ]),
                ..Overrides::default()
            },
            ..tiny(ExperimentKind::Fig8, "fig8")
        };
        Scheduler::new(4).with_shards(2).run(&[fig8], &hub);
        // One chiplet size; two mono sizes (40q and 60q).
        assert_eq!(hub.fabrication_stats().chiplet_fabrications, 1);
        assert_eq!(hub.fabrication_stats().mono_fabrications, 2);
    }

    #[test]
    fn concurrent_roots_on_one_pool_match_their_serial_runs() {
        let batch_a =
            vec![tiny(ExperimentKind::Fig8, "a"), tiny(ExperimentKind::OutputGain, "b")];
        let batch_b = vec![tiny(ExperimentKind::Fig9, "c"), tiny(ExperimentKind::Fig8, "d")];
        let serial_a = Scheduler::new(2).run(&batch_a, &CacheHub::new());
        let serial_b = Scheduler::new(2).run(&batch_b, &CacheHub::new());

        let pool = WorkPool::new(2);
        let hub = CacheHub::new();
        let handle_a = pool.submit(Scheduler::new(2), &batch_a, &hub, None);
        let handle_b = pool.submit(Scheduler::new(2), &batch_b, &hub, None);
        let got_a = handle_a.wait().expect("batch a completes");
        let got_b = handle_b.wait().expect("batch b completes");

        for (serial, got) in [(&serial_a, &got_a), (&serial_b, &got_b)] {
            assert_eq!(serial.len(), got.len());
            for (s, g) in serial.iter().zip(got.iter()) {
                assert_eq!(s.index, g.index);
                assert_eq!(s.data, g.data, "{} diverged under interleaving", s.scenario.name);
            }
        }
    }

    #[test]
    fn progress_counts_every_task_and_reaches_the_total() {
        let batch = vec![
            tiny(ExperimentKind::Fig8, "a"),
            tiny(ExperimentKind::Fig8, "b"),
            tiny(ExperimentKind::Fig9, "c"),
        ];
        let pool = WorkPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        let progress: ProgressFn = Box::new(move |done, total| {
            let _ = tx.send((done, total));
        });
        let handle = pool.submit(Scheduler::new(2), &batch, &CacheHub::new(), Some(progress));
        let total = handle.total_tasks();
        assert_eq!(total, 3);
        handle.wait().expect("batch completes");
        let events: Vec<(usize, usize)> = rx.try_iter().collect();
        assert_eq!(events.len(), 3);
        // Emitted under the root's lock, so counts are monotone.
        assert_eq!(events, vec![(1, 3), (2, 3), (3, 3)]);
    }

    #[test]
    fn cancelling_a_root_skips_pending_tasks_and_reports_cancelled() {
        // One pool worker and cap 1 serialize the root's six tasks;
        // cancelling on the first progress event leaves later tasks
        // pending, so they must be skipped.
        let batch: Vec<Scenario> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|name| tiny(ExperimentKind::Fig8, name))
            .collect();
        let pool = WorkPool::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        let progress: ProgressFn = Box::new(move |done, total| {
            let _ = tx.send((done, total));
        });
        let handle = pool.submit(Scheduler::new(1), &batch, &CacheHub::new(), Some(progress));
        let (done, total) = rx.recv().expect("first task finishes");
        assert!(done < total, "first event must leave work pending");
        handle.cancel();
        match handle.wait() {
            Err(BatchAborted::Cancelled) => {}
            Err(BatchAborted::Panicked(_)) => panic!("batch panicked"),
            Ok(_) => panic!("cancelled batch returned results"),
        }
        // The pool is still serviceable afterwards.
        let after = pool.submit(Scheduler::new(1), &batch[..1], &CacheHub::new(), None);
        assert_eq!(after.wait().expect("fresh batch completes").len(), 1);
    }
}
