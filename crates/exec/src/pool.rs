//! The supervised work-stealing batch pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::deadline::Deadline;
use crate::failure::{AbortReason, TaskFailure};
use crate::retry::RetryPolicy;
use telemetry::names;

/// Everything the pool needs to supervise a batch: worker count,
/// deadlines, cancellation and retry policy. The default policy is a
/// bare serial loop — one worker, no limits, no retries — so adopting
/// the pool never changes semantics until a budget is asked for.
#[derive(Debug, Clone, Default)]
pub struct ExecPolicy {
    /// Worker threads (0 and 1 both mean serial, in-place execution).
    pub threads: usize,
    /// Per-task wall-clock limit; overruns become
    /// [`TaskFailure::TimedOut`].
    pub task_deadline: Option<Duration>,
    /// Absolute batch deadline (the earliest of the stage and run
    /// deadlines); once expired workers stop claiming tasks.
    pub batch_deadline: Option<Deadline>,
    /// Cooperative cancellation flag, polled between tasks.
    pub cancel: CancelToken,
    /// Retry policy for retryable failures.
    pub retry: RetryPolicy,
}

impl ExecPolicy {
    /// Serial, unlimited, non-retrying — semantically a plain loop with
    /// panic isolation.
    pub fn serial() -> Self {
        Self::default()
    }

    /// A policy with `threads` workers and no limits.
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy {
            threads,
            ..Self::default()
        }
    }

    /// Sets the per-task deadline.
    pub fn task_deadline(mut self, limit: Duration) -> Self {
        self.task_deadline = Some(limit);
        self
    }

    /// Sets the absolute batch deadline.
    pub fn batch_deadline(mut self, deadline: Deadline) -> Self {
        self.batch_deadline = Some(deadline);
        self
    }

    /// Installs a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Installs a retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Polls the cancellation token, then the batch deadline, and names
    /// the first that says stop. A batch polls once before each task it
    /// claims; serial work under the same policy polls the same way.
    pub fn poll(&self) -> Option<AbortReason> {
        if self.cancel.poll() {
            Some(AbortReason::Cancelled)
        } else if self.batch_deadline.is_some_and(|d| d.expired()) {
            Some(AbortReason::DeadlineExceeded)
        } else {
            None
        }
    }
}

/// Per-task context handed to the task body: which task and attempt
/// this is, the task's deadline (for cooperative early exit in long
/// evaluations) and the batch's cancellation token.
pub struct TaskCtx<'a> {
    /// Task index within the batch (the determinism key).
    pub index: usize,
    /// Attempt number (0 = first run, 1 = first retry, …).
    pub attempt: usize,
    /// This attempt's wall-clock deadline, when a per-task limit is set.
    pub deadline: Option<Deadline>,
    /// The batch's cancellation token.
    pub cancel: &'a CancelToken,
}

/// Scheduling statistics of one batch. `per_worker` records how many
/// tasks each worker actually executed; `stolen` counts tasks executed
/// by a different worker than static chunking would have assigned them
/// to — the load-balancing work the shared queue did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads used.
    pub workers: usize,
    /// Tasks in the batch.
    pub tasks: usize,
    /// Tasks that produced a result.
    pub completed: usize,
    /// Tasks executed per worker.
    pub per_worker: Vec<usize>,
    /// Tasks that ran on a different worker than static chunking would
    /// have used (0 when serial).
    pub stolen: usize,
    /// Tasks that ended in a panic.
    pub panics: usize,
    /// Tasks whose final attempt exceeded the per-task deadline.
    pub timeouts: usize,
    /// Retry attempts performed across the batch.
    pub retries: usize,
    /// Tasks never run (or abandoned) due to cancellation or a batch
    /// deadline.
    pub cancelled: usize,
}

impl PoolStats {
    /// Difference between the busiest and idlest worker's task counts —
    /// the imbalance a static chunking would have locked in.
    pub fn imbalance(&self) -> usize {
        let max = self.per_worker.iter().copied().max().unwrap_or(0);
        let min = self.per_worker.iter().copied().min().unwrap_or(0);
        max - min
    }

    fn merge_counts(&mut self, other: &PoolStats) {
        self.tasks += other.tasks;
        self.completed += other.completed;
        self.stolen += other.stolen;
        self.panics += other.panics;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.cancelled += other.cancelled;
    }

    /// Accumulates another batch's stats (worker counts are merged
    /// element-wise; the wider of the two worker vectors wins).
    pub fn absorb(&mut self, other: &PoolStats) {
        self.workers = self.workers.max(other.workers);
        if self.per_worker.len() < other.per_worker.len() {
            self.per_worker.resize(other.per_worker.len(), 0);
        }
        for (mine, theirs) in self.per_worker.iter_mut().zip(&other.per_worker) {
            *mine += *theirs;
        }
        self.merge_counts(other);
    }
}

/// Outcome of a supervised batch: results keyed by task index, the
/// failures with their indices, scheduling stats, and whether the batch
/// stopped early.
#[derive(Debug)]
pub struct BatchResult<T> {
    /// Per-index results; `None` where the task failed or never ran.
    pub items: Vec<Option<T>>,
    /// `(task index, failure)` pairs, ascending by index.
    pub failures: Vec<(usize, TaskFailure)>,
    /// Scheduling statistics.
    pub stats: PoolStats,
    /// Set when workers stopped claiming tasks before the list was
    /// exhausted (cancellation or batch deadline).
    pub aborted: Option<AbortReason>,
}

struct WorkerOut<T> {
    worker: usize,
    results: Vec<(usize, Result<T, TaskFailure>)>,
    retries: usize,
}

const ABORT_NONE: u8 = 0;
const ABORT_CANCELLED: u8 = 1;
const ABORT_DEADLINE: u8 = 2;

/// Runs `tasks` independent tasks under `policy` and returns the
/// index-keyed results.
///
/// Workers claim tasks from a shared atomic cursor (work stealing in
/// the bounded-batch sense: a fast worker drains work a static chunking
/// would have left on a slow one). Each task body runs under
/// `catch_unwind`; panics, timeouts, task-reported failures and
/// cancellations all become per-index [`TaskFailure`]s. Results are
/// keyed by task index, so for a deterministic task body the batch
/// output is bit-identical across thread counts.
pub fn run_batch<T, F>(tasks: usize, policy: &ExecPolicy, f: F) -> BatchResult<T>
where
    T: Send,
    F: Fn(&TaskCtx<'_>) -> Result<T, TaskFailure> + Sync,
{
    let workers = policy.threads.max(1).min(tasks.max(1));
    let chunk = tasks.div_ceil(workers).max(1);
    let next = AtomicUsize::new(0);
    let abort = AtomicU8::new(ABORT_NONE);
    // Ambient telemetry state of the calling thread, re-established on
    // each worker so spans opened inside task bodies parent correctly.
    let trace_ctx = telemetry::capture();
    let batch_start = Instant::now();

    let worker_loop = |w: usize| -> WorkerOut<T> {
        let mut out = WorkerOut {
            worker: w,
            results: Vec::new(),
            retries: 0,
        };
        loop {
            if let Some(reason) = policy.poll() {
                let code = match reason {
                    AbortReason::Cancelled => ABORT_CANCELLED,
                    AbortReason::DeadlineExceeded => ABORT_DEADLINE,
                };
                let _ =
                    abort.compare_exchange(ABORT_NONE, code, Ordering::SeqCst, Ordering::SeqCst);
                break;
            }
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= tasks {
                break;
            }
            if telemetry::enabled() {
                telemetry::observe_secs(names::POOL_QUEUE_WAIT_SECONDS, batch_start.elapsed());
            }
            let result = run_task(i, policy, &f, &mut out.retries);
            out.results.push((i, result));
        }
        out
    };

    let worker_outs: Vec<WorkerOut<T>> = if workers <= 1 {
        vec![worker_loop(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let worker_loop = &worker_loop;
                    let trace_ctx = trace_ctx.clone();
                    scope.spawn(move || {
                        let _trace = trace_ctx.attach();
                        worker_loop(w)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool workers isolate task panics"))
                .collect()
        })
    };

    // Merge worker-local results into the index-keyed batch outcome.
    let mut items: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let mut failures: Vec<(usize, TaskFailure)> = Vec::new();
    let mut claimed = vec![false; tasks];
    let mut stats = PoolStats {
        workers,
        tasks,
        per_worker: vec![0; workers],
        ..PoolStats::default()
    };
    for out in worker_outs {
        stats.retries += out.retries;
        stats.per_worker[out.worker] = out.results.len();
        for (i, result) in out.results {
            claimed[i] = true;
            if workers > 1 && i / chunk != out.worker {
                stats.stolen += 1;
            }
            match result {
                Ok(value) => {
                    stats.completed += 1;
                    items[i] = Some(value);
                }
                Err(failure) => {
                    match failure {
                        TaskFailure::Panicked { .. } => stats.panics += 1,
                        TaskFailure::TimedOut { .. } => stats.timeouts += 1,
                        TaskFailure::Cancelled => stats.cancelled += 1,
                        TaskFailure::Failed { .. } => {}
                    }
                    failures.push((i, failure));
                }
            }
        }
    }
    let mut starved = false;
    for (i, was_claimed) in claimed.iter().enumerate() {
        if !was_claimed {
            starved = true;
            stats.cancelled += 1;
            failures.push((i, TaskFailure::Cancelled));
        }
    }
    failures.sort_by_key(|&(i, _)| i);

    if telemetry::enabled() {
        telemetry::counter_add(names::POOL_TASKS, stats.tasks as u64);
        telemetry::counter_add(names::POOL_RETRIES, stats.retries as u64);
        telemetry::counter_add(names::POOL_PANICS, stats.panics as u64);
        telemetry::counter_add(names::POOL_TIMEOUTS, stats.timeouts as u64);
        telemetry::counter_add(names::POOL_CANCELLED, stats.cancelled as u64);
    }

    let aborted = if starved
        || failures
            .iter()
            .any(|(_, f)| matches!(f, TaskFailure::Cancelled))
    {
        match abort.load(Ordering::SeqCst) {
            ABORT_DEADLINE => Some(AbortReason::DeadlineExceeded),
            _ => Some(AbortReason::Cancelled),
        }
    } else {
        None
    };

    BatchResult {
        items,
        failures,
        stats,
        aborted,
    }
}

/// One task, with panic isolation, per-task deadline accounting and
/// in-place retries for retryable failures.
fn run_task<T, F>(
    index: usize,
    policy: &ExecPolicy,
    f: &F,
    retries: &mut usize,
) -> Result<T, TaskFailure>
where
    F: Fn(&TaskCtx<'_>) -> Result<T, TaskFailure> + Sync,
{
    let mut attempt = 0usize;
    loop {
        let deadline = policy.task_deadline.map(Deadline::after);
        let ctx = TaskCtx {
            index,
            attempt,
            deadline,
            cancel: &policy.cancel,
        };
        let start = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
        let elapsed = start.elapsed();
        if telemetry::enabled() {
            telemetry::observe_secs(names::POOL_TASK_SECONDS, elapsed);
        }
        let outcome = match caught {
            Err(payload) => Err(TaskFailure::Panicked {
                message: panic_message(payload.as_ref()),
            }),
            Ok(result) => match policy.task_deadline {
                // Blowing the wall-clock budget trumps whatever the
                // task returned — a late answer is not an answer.
                Some(limit) if elapsed > limit => Err(TaskFailure::TimedOut { elapsed, limit }),
                _ => result,
            },
        };
        match outcome {
            Ok(value) => return Ok(value),
            Err(failure) => {
                if failure.is_retryable() && attempt < policy.retry.max_retries {
                    attempt += 1;
                    *retries += 1;
                    // Slot-keyed deterministic jitter: the delay depends
                    // on (task index, attempt) only, so the retry
                    // schedule is identical across thread counts.
                    let delay = policy.retry.delay_for(attempt, index);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    if policy.cancel.is_cancelled() {
                        return Err(TaskFailure::Cancelled);
                    }
                    continue;
                }
                return Err(failure);
            }
        }
    }
}

/// Renders a panic payload to text (str and String payloads verbatim,
/// anything else a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FaultClass;
    use std::sync::atomic::AtomicUsize;

    fn ok_square(policy: &ExecPolicy, n: usize) -> BatchResult<usize> {
        run_batch(n, policy, |ctx| Ok(ctx.index * ctx.index))
    }

    #[test]
    fn results_are_keyed_by_index() {
        for threads in [1, 4] {
            let out = ok_square(&ExecPolicy::with_threads(threads), 37);
            assert_eq!(out.items.len(), 37);
            for (i, item) in out.items.iter().enumerate() {
                assert_eq!(*item, Some(i * i));
            }
            assert!(out.failures.is_empty());
            assert!(out.aborted.is_none());
            assert_eq!(out.stats.completed, 37);
        }
    }

    #[test]
    fn thread_counts_produce_identical_items() {
        let serial = ok_square(&ExecPolicy::serial(), 101).items;
        let parallel = ok_square(&ExecPolicy::with_threads(4), 101).items;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = ok_square(&ExecPolicy::with_threads(4), 0);
        assert!(out.items.is_empty());
        assert!(out.aborted.is_none());
    }

    #[test]
    fn panics_become_per_item_failures() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = run_batch(8, &ExecPolicy::with_threads(3), |ctx| {
            if ctx.index % 3 == 0 {
                panic!("task {} exploded", ctx.index);
            }
            Ok(ctx.index)
        });
        std::panic::set_hook(hook);
        assert_eq!(out.stats.panics, 3, "tasks 0, 3, 6");
        let failed: Vec<usize> = out.failures.iter().map(|&(i, _)| i).collect();
        assert_eq!(failed, vec![0, 3, 6]);
        for (i, failure) in &out.failures {
            assert!(
                matches!(failure, TaskFailure::Panicked { message } if message.contains(&i.to_string())),
                "{failure}"
            );
        }
        assert_eq!(out.items[1], Some(1));
        assert!(out.aborted.is_none(), "panics never abort the batch");
    }

    #[test]
    fn slow_tasks_trip_the_per_task_deadline() {
        let policy = ExecPolicy::with_threads(2).task_deadline(Duration::from_millis(20));
        let out = run_batch(6, &policy, |ctx| {
            if ctx.index == 4 {
                std::thread::sleep(Duration::from_millis(60));
            }
            Ok(ctx.index)
        });
        assert_eq!(out.stats.timeouts, 1);
        assert_eq!(out.failures.len(), 1);
        let (i, failure) = &out.failures[0];
        assert_eq!(*i, 4);
        assert!(matches!(failure, TaskFailure::TimedOut { .. }), "{failure}");
        assert_eq!(out.items[4], None, "a late result is discarded");
        assert_eq!(out.stats.completed, 5, "the rest of the batch survives");
        assert!(out.aborted.is_none());
    }

    #[test]
    fn deadline_overrun_trumps_task_reported_failure() {
        let policy = ExecPolicy::serial().task_deadline(Duration::from_millis(10));
        let out = run_batch(1, &policy, |_| -> Result<(), TaskFailure> {
            std::thread::sleep(Duration::from_millis(40));
            Err(TaskFailure::permanent("late and wrong"))
        });
        assert!(
            matches!(out.failures[0].1, TaskFailure::TimedOut { .. }),
            "the wall-clock verdict wins"
        );
    }

    #[test]
    fn cancellation_stops_claiming_and_reports_the_rest() {
        // Deterministic with one worker: 3 polls allowed = 3 tasks run.
        let policy = ExecPolicy::serial().with_cancel(CancelToken::cancel_after(3));
        let out = ok_square(&policy, 10);
        assert_eq!(out.aborted, Some(AbortReason::Cancelled));
        assert_eq!(out.stats.completed, 3);
        assert_eq!(out.stats.cancelled, 7);
        for i in 0..3 {
            assert_eq!(out.items[i], Some(i * i));
        }
        for i in 3..10 {
            assert_eq!(out.items[i], None);
            assert!(matches!(
                out.failures.iter().find(|&&(j, _)| j == i).unwrap().1,
                TaskFailure::Cancelled
            ));
        }
    }

    #[test]
    fn external_cancel_reaches_parallel_workers() {
        let token = CancelToken::new();
        token.cancel();
        let policy = ExecPolicy::with_threads(4).with_cancel(token);
        let out = ok_square(&policy, 50);
        assert_eq!(out.aborted, Some(AbortReason::Cancelled));
        assert_eq!(out.stats.completed, 0);
        assert_eq!(out.stats.cancelled, 50);
    }

    #[test]
    fn batch_deadline_aborts_with_deadline_reason() {
        let policy =
            ExecPolicy::with_threads(2).batch_deadline(Deadline::after(Duration::from_millis(25)));
        let out = run_batch(64, &policy, |ctx| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(ctx.index)
        });
        assert_eq!(out.aborted, Some(AbortReason::DeadlineExceeded));
        assert!(out.stats.completed < 64, "the deadline must bite");
        assert!(out.stats.completed > 0, "but some work lands first");
        assert_eq!(out.stats.cancelled, 64 - out.stats.completed);
    }

    #[test]
    fn transient_failures_are_retried_with_backoff() {
        let attempts = AtomicUsize::new(0);
        let policy = ExecPolicy::serial().with_retry(RetryPolicy::new(2, Duration::from_millis(1)));
        let out = run_batch(1, &policy, |ctx| {
            attempts.fetch_add(1, Ordering::SeqCst);
            if ctx.attempt < 2 {
                Err(TaskFailure::transient("solver wobble"))
            } else {
                Ok(ctx.index + 100)
            }
        });
        assert_eq!(attempts.load(Ordering::SeqCst), 3, "initial + 2 retries");
        assert_eq!(out.items[0], Some(100));
        assert_eq!(out.stats.retries, 2);
        assert!(out.failures.is_empty());
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let attempts = AtomicUsize::new(0);
        let policy = ExecPolicy::serial().with_retry(RetryPolicy::new(5, Duration::ZERO));
        let out = run_batch(1, &policy, |_| -> Result<(), TaskFailure> {
            attempts.fetch_add(1, Ordering::SeqCst);
            Err(TaskFailure::Failed {
                message: "singular matrix".into(),
                class: FaultClass::Permanent,
            })
        });
        assert_eq!(attempts.load(Ordering::SeqCst), 1);
        assert_eq!(out.stats.retries, 0);
        assert_eq!(out.failures.len(), 1);
    }

    #[test]
    fn retries_exhausted_reports_last_failure() {
        let policy = ExecPolicy::serial().with_retry(RetryPolicy::new(2, Duration::ZERO));
        let out = run_batch(1, &policy, |_| -> Result<(), TaskFailure> {
            Err(TaskFailure::transient("never converges"))
        });
        assert_eq!(out.stats.retries, 2);
        assert!(matches!(
            &out.failures[0].1,
            TaskFailure::Failed {
                class: FaultClass::Transient,
                ..
            }
        ));
    }

    #[test]
    fn stealing_balances_a_skewed_workload() {
        // One pathological task; with static 2-chunking its worker
        // would also own half the batch. The shared cursor lets the
        // other worker drain that half instead.
        let policy = ExecPolicy::with_threads(2);
        let out = run_batch(32, &policy, |ctx| {
            if ctx.index == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            Ok(ctx.index)
        });
        assert_eq!(out.stats.completed, 32);
        assert_eq!(out.stats.per_worker.iter().sum::<usize>(), 32);
        assert!(
            out.stats.stolen > 0,
            "the fast worker must steal from the slow one's static half: {:?}",
            out.stats.per_worker
        );
        assert!(out.stats.imbalance() > 0);
    }

    #[test]
    fn stats_absorb_accumulates() {
        let a = ok_square(&ExecPolicy::with_threads(2), 10).stats;
        let b = ok_square(&ExecPolicy::with_threads(2), 6).stats;
        let mut total = PoolStats::default();
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.tasks, 16);
        assert_eq!(total.completed, 16);
        assert_eq!(total.workers, 2);
        assert_eq!(total.per_worker.iter().sum::<usize>(), 16);
    }

    #[test]
    fn ctx_deadline_is_visible_to_tasks() {
        let policy = ExecPolicy::serial().task_deadline(Duration::from_secs(5));
        let out = run_batch(1, &policy, |ctx| {
            let d = ctx.deadline.expect("deadline set");
            assert!(d.remaining() > Duration::from_secs(4));
            assert!(!ctx.cancel.is_cancelled());
            Ok(())
        });
        assert!(out.failures.is_empty());
    }
}
