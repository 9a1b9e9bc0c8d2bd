//! The daemon: recovery, scheduling, execution, status.
//!
//! A [`Daemon`] owns a data directory:
//!
//! ```text
//! <data>/
//!   jobs.wal                  append-only, fsync'd job log
//!   evalcache/                optional cross-job memo store
//!   jobs/<id>/run/            the job's hierflow checkpoint directory
//!   jobs/<id>/report_semantic.json   bit-identity projection
//!   jobs/<id>/report.json            full report (incl. provenance)
//!   status.json               periodic scheduler snapshot
//! ```
//!
//! **Recovery.** `open` replays the WAL (tolerating truncated tails
//! and corrupt lines), folds it into a [`Ledger`], and re-queues every
//! non-terminal job. A job that was `Running` when the process died
//! resumes from whatever stage checkpoints its run directory holds —
//! the flow's resume contract makes the finished report bit-identical
//! to an uninterrupted run, which is the service's headline guarantee.
//!
//! **Scheduling.** Workers claim jobs round-robin across *tenants*
//! (not submission order), so one tenant's burst cannot starve
//! another's single job. Admission is bounded (see
//! [`crate::admission`]); `submit` refuses with a structured
//! retry-after rather than queueing unboundedly.
//!
//! **Chaos.** With a [`ChaosPolicy`] installed, execution weaves the
//! policy's deterministic faults into every seam: panics before the
//! flow, simulated crashes mid-stage, checkpoint corruption after
//! interruptions, torn WAL appends. The same job under the same policy
//! replays the same fault schedule.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use exec::{CancelToken, RetryPolicy};
use hierflow::checkpoint::{config_digest, RunDir, Stage1Artifact, STAGE1_FRONT};
use hierflow::{FlowConfig, FlowError, HierarchicalFlow};
use serde::{Deserialize, Serialize};

use crate::admission::{AdmissionConfig, RejectReason, Rejection};
use crate::chaos::ChaosPolicy;
use crate::error::ServiceError;
use crate::jobspec::JobSpec;
use crate::obs::{reject_metric, FlightEvent, FlightKind, Obs, ObsConfig};
use crate::report::{report_digest, semantic_json};
use crate::wal::{self, JobPhase, Ledger, Wal, WalRecord, WAL_FILE};
use telemetry::names;

/// Daemon settings.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root of the daemon's durable state.
    pub data_dir: PathBuf,
    /// Admission limits.
    pub admission: AdmissionConfig,
    /// Optional chaos policy (tests and soak runs).
    pub chaos: Option<ChaosPolicy>,
    /// Concurrent job workers in [`Daemon::run_until_idle`].
    pub workers: usize,
    /// Hard per-job attempt budget — the safety valve above the chaos
    /// policy's own fault bound.
    pub max_attempts: u32,
    /// Share one evaluation memo store across jobs (under
    /// `<data>/evalcache`) for specs that opt into caching.
    pub shared_cache: bool,
    /// Rotate the WAL to a sealed segment every this many records;
    /// `0` disables rotation (single-file WAL, the PR 6 behaviour).
    /// Sealed segments are compacted away at the next `open`.
    pub wal_rotate_records: usize,
    /// Observability plane settings (lifetime metrics, flight
    /// recorder, exposition cadence).
    pub obs: ObsConfig,
}

impl DaemonConfig {
    /// Defaults rooted at `data_dir`: single worker, default admission,
    /// no chaos.
    pub fn new<P: AsRef<Path>>(data_dir: P) -> Self {
        DaemonConfig {
            data_dir: data_dir.as_ref().to_path_buf(),
            admission: AdmissionConfig::default(),
            chaos: None,
            workers: 1,
            max_attempts: 8,
            shared_cache: true,
            wal_rotate_records: 0,
            obs: ObsConfig::default(),
        }
    }
}

/// What `open` found while recovering.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Valid records replayed from the WAL.
    pub replayed_records: usize,
    /// Corrupt mid-file lines skipped.
    pub corrupt_lines: usize,
    /// Whether the WAL ended in a torn partial line.
    pub truncated_tail: bool,
    /// Jobs re-queued for execution (non-terminal after the fold).
    pub resumed_jobs: usize,
    /// Sealed WAL segments compacted away at startup.
    pub compacted_segments: usize,
}

/// The outcome of a submission.
#[derive(Debug, Clone, PartialEq)]
pub enum Submission {
    /// Admitted; the id is durable (the `Submitted` record is fsync'd
    /// before this returns).
    Accepted(u64),
    /// A keyed submit matched an existing `client_job_key`: the
    /// original job id, no new work queued. Retrying a submit whose
    /// ACK was lost lands here with the id the client never saw.
    Deduped(u64),
    /// Refused by admission control; retry after the hint.
    Rejected(Rejection),
}

/// One row of [`DaemonStatus`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRow {
    /// Job id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Current phase.
    pub phase: JobPhase,
    /// Attempts started.
    pub attempts: u32,
}

/// Point-in-time scheduler snapshot (persisted as `status.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonStatus {
    /// Jobs waiting for a worker.
    pub queued: usize,
    /// Jobs being executed right now.
    pub running: usize,
    /// Terminal successes.
    pub completed: usize,
    /// Terminal failures.
    pub failed: usize,
    /// Chaos faults injected so far (all channels).
    pub chaos_faults: u64,
    /// WAL appends deliberately torn by chaos.
    pub wal_short_writes: u64,
    /// Unparseable `incoming/` drops quarantined this process.
    pub quarantined: u64,
    /// Whether the daemon is draining (refusing new work).
    pub draining: bool,
    /// What recovery found at startup.
    pub recovery: RecoveryReport,
    /// Every known job.
    pub jobs: Vec<JobRow>,
}

struct SchedState {
    ledger: Ledger,
    queue: Vec<u64>,
    active: BTreeSet<u64>,
    rr_cursor: usize,
    chaos_faults: u64,
    wal_short_writes: u64,
    quarantined: u64,
    /// Monotonic enqueue stamps for the queue-wait histogram.
    enqueued: BTreeMap<u64, Instant>,
}

/// The long-running optimisation service.
pub struct Daemon {
    cfg: DaemonConfig,
    wal: Wal,
    state: Mutex<SchedState>,
    recovery: RecoveryReport,
    draining: AtomicBool,
    obs: Option<Arc<Obs>>,
    /// Seeded stage-1 fronts by testbench digest (see
    /// [`Daemon::seed_stage1`]).
    seeds: Mutex<BTreeMap<u64, Stage1Artifact>>,
}

impl Daemon {
    /// Opens (creating or recovering) the daemon over its data
    /// directory: replays the WAL and re-queues unfinished jobs.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] when the directory or WAL is unusable.
    pub fn open(cfg: DaemonConfig) -> Result<Self, ServiceError> {
        fs::create_dir_all(cfg.data_dir.join("jobs"))
            .map_err(|e| ServiceError::io(cfg.data_dir.display().to_string(), e.to_string()))?;
        let obs = cfg.obs.enabled.then(|| Arc::new(Obs::new(cfg.obs.clone())));
        // Recovery runs under the lifetime recorder so its WAL and
        // counter telemetry lands in the exposition.
        let _obs_guard = obs.as_ref().map(|o| o.install());
        let wal_path = cfg.data_dir.join(WAL_FILE);
        let replay = Wal::replay(&wal_path)?;
        let ledger = replay.ledger();
        // Startup compaction: sealed segments hold only history the
        // ledger fold has already absorbed, so replace the whole chain
        // with the ledger's compact image. Safe to crash anywhere in —
        // the fold is idempotent and terminal-sticky.
        let compacted_segments = if replay.segment_files > 0 {
            wal::compact(&wal_path, &ledger)?
        } else {
            0
        };
        let queue = ledger.open_jobs();
        let recovery = RecoveryReport {
            replayed_records: replay.records.len(),
            corrupt_lines: replay.corrupt_lines,
            truncated_tail: replay.truncated_tail,
            resumed_jobs: queue.len(),
            compacted_segments,
        };
        telemetry::counter_add(names::DAEMON_RECOVERED_JOBS, recovery.resumed_jobs as u64);
        if let Some(obs) = &obs {
            // Restart continuity: re-derive lifetime job series from
            // the ledger the WAL fold just produced.
            obs.fold_ledger(&ledger);
            if recovery.resumed_jobs > 0 {
                obs.flight().record(
                    FlightKind::Recovery,
                    None,
                    None,
                    format!("re-queued {} unfinished jobs", recovery.resumed_jobs),
                );
            }
        }
        let wal = Wal::open_with_rotation(&wal_path, cfg.wal_rotate_records)?;
        let now = Instant::now();
        let enqueued = queue.iter().map(|id| (*id, now)).collect();
        let daemon = Daemon {
            cfg,
            wal,
            state: Mutex::new(SchedState {
                ledger,
                queue,
                active: BTreeSet::new(),
                rr_cursor: 0,
                chaos_faults: 0,
                wal_short_writes: 0,
                quarantined: 0,
                enqueued,
            }),
            recovery,
            draining: AtomicBool::new(false),
            obs,
            seeds: Mutex::new(BTreeMap::new()),
        };
        daemon.refresh_gauges();
        Ok(daemon)
    }

    /// The observability plane, when enabled.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Installs the lifetime recorder on this thread for the guard's
    /// lifetime (no-op when observability is off).
    pub fn obs_install(&self) -> Option<telemetry::InstallGuard> {
        self.obs.as_ref().map(|o| o.install())
    }

    fn flight(&self, kind: FlightKind, job: Option<u64>, tenant: Option<&str>, detail: String) {
        if let Some(obs) = &self.obs {
            obs.flight().record(kind, job, tenant, detail);
        }
    }

    /// Updates the queue-depth / running gauges from scheduler state.
    fn refresh_gauges(&self) {
        let (queued, running) = {
            let st = self.lock();
            (st.queue.len(), st.active.len())
        };
        self.refresh_gauges_with(queued, running);
    }

    /// As [`refresh_gauges`](Self::refresh_gauges), for callers already
    /// holding the scheduler lock.
    fn refresh_gauges_with(&self, queued: usize, running: usize) {
        if let Some(obs) = &self.obs {
            obs.registry()
                .gauge_set(names::DAEMON_QUEUE_DEPTH, queued as f64);
            obs.registry()
                .gauge_set(names::DAEMON_RUNNING, running as f64);
        }
    }

    /// The recovery summary from `open`.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    fn chaos(&self) -> ChaosPolicy {
        self.cfg.chaos.unwrap_or_else(ChaosPolicy::quiet)
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.cfg.data_dir.join("jobs").join(id.to_string())
    }

    fn shared_cache_dir(&self) -> Option<PathBuf> {
        self.cfg
            .shared_cache
            .then(|| self.cfg.data_dir.join("evalcache"))
    }

    /// Submits a job. On acceptance the `Submitted` WAL record is
    /// durable (written + fsync'd) before the id is returned — a crash
    /// one instruction later loses nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] for invalid specs or a WAL that cannot
    /// be appended; admission refusals are the `Ok(Rejected)` arm, not
    /// errors.
    pub fn submit(&self, spec: &JobSpec) -> Result<Submission, ServiceError> {
        self.submit_keyed(spec, None)
    }

    /// Submits a job with an optional idempotency key.
    ///
    /// With a key, resubmission — in this process or after a restart —
    /// returns [`Submission::Deduped`] with the original id instead of
    /// queueing a second job. The reservation is durable *before* the
    /// `Submitted` record (`SubmitKey` first), so a crash between the
    /// two appends is recoverable: the retry finds the orphaned
    /// reservation and completes the submission under the reserved id.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_keyed(
        &self,
        spec: &JobSpec,
        key: Option<&str>,
    ) -> Result<Submission, ServiceError> {
        spec.validate()?;
        let _obs = self.obs_install();
        let mut st = self.lock();
        if let Some(key) = key {
            if let Some(id) = st.ledger.lookup_key(&spec.tenant, key) {
                if st.ledger.get(id).is_some() {
                    telemetry::counter_add(names::DAEMON_DEDUPED, 1);
                    return Ok(Submission::Deduped(id));
                }
                // Crash window: the reservation landed but `Submitted`
                // did not. Complete the original submission under the
                // reserved id — no admission re-check; it was admitted
                // when the reservation was made.
                let rec = WalRecord::Submitted {
                    job: id,
                    spec: spec.clone(),
                };
                self.wal.append(&rec)?;
                st.ledger.apply(&rec);
                st.queue.push(id);
                st.enqueued.insert(id, Instant::now());
                telemetry::counter_add(names::DAEMON_SUBMITTED, 1);
                self.refresh_gauges_with(st.queue.len(), st.active.len());
                self.flight(
                    FlightKind::Transition {
                        phase: "queued".into(),
                    },
                    Some(id),
                    Some(&spec.tenant),
                    "reservation completed after crash window".into(),
                );
                return Ok(Submission::Accepted(id));
            }
        }
        if self.is_draining() {
            telemetry::counter_add(names::DAEMON_REJECTED, 1);
            telemetry::counter_add(reject_metric(RejectReason::Draining), 1);
            self.flight(
                FlightKind::Rejection {
                    reason: format!("{:?}", RejectReason::Draining),
                },
                None,
                Some(&spec.tenant),
                "submit refused: draining".into(),
            );
            return Ok(Submission::Rejected(Rejection {
                reason: RejectReason::Draining,
                retry_after_ms: self.cfg.admission.retry_after_ms,
                open_jobs: st.ledger.open_total(),
            }));
        }
        if let Err(rej) = self.cfg.admission.admit(
            st.ledger.open_total(),
            st.ledger.open_for_tenant(&spec.tenant),
            st.ledger.spent_ms_for_tenant(&spec.tenant),
        ) {
            telemetry::counter_add(names::DAEMON_REJECTED, 1);
            telemetry::counter_add(reject_metric(rej.reason), 1);
            self.flight(
                FlightKind::Rejection {
                    reason: format!("{:?}", rej.reason),
                },
                None,
                Some(&spec.tenant),
                format!("submit refused; retry after {} ms", rej.retry_after_ms),
            );
            return Ok(Submission::Rejected(rej));
        }
        let id = st.ledger.next_id();
        if let Some(key) = key {
            let reserve = WalRecord::SubmitKey {
                job: id,
                tenant: spec.tenant.clone(),
                key: key.to_string(),
            };
            self.wal.append(&reserve)?;
            st.ledger.apply(&reserve);
        }
        let rec = WalRecord::Submitted {
            job: id,
            spec: spec.clone(),
        };
        // The durability point: never chaos-torn, and an append failure
        // fails the submit rather than admitting a job that would
        // vanish on restart.
        self.wal.append(&rec)?;
        st.ledger.apply(&rec);
        st.queue.push(id);
        st.enqueued.insert(id, Instant::now());
        telemetry::counter_add(names::DAEMON_SUBMITTED, 1);
        self.refresh_gauges_with(st.queue.len(), st.active.len());
        self.flight(
            FlightKind::Transition {
                phase: "queued".into(),
            },
            Some(id),
            Some(&spec.tenant),
            String::new(),
        );
        Ok(Submission::Accepted(id))
    }

    /// Flips the daemon into draining mode: new submissions are
    /// refused with [`RejectReason::Draining`] and workers stop
    /// claiming queued jobs (in-flight jobs finish; queued jobs stay
    /// durable in the WAL for the next start).
    pub fn drain(&self) {
        let _obs = self.obs_install();
        self.draining.store(true, Ordering::SeqCst);
        telemetry::counter_add(names::DAEMON_DRAINS, 1);
        let open = self.lock().ledger.open_total();
        self.flight(
            FlightKind::Drain,
            None,
            None,
            format!("{open} jobs open at drain"),
        );
    }

    /// Whether [`drain`](Self::drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Counts a quarantined `incoming/` drop in the status snapshot.
    pub fn note_quarantined(&self) {
        let _obs = self.obs_install();
        self.lock().quarantined += 1;
        telemetry::counter_add(names::DAEMON_QUARANTINED, 1);
        self.flight(
            FlightKind::Quarantine,
            None,
            None,
            "unparseable incoming drop quarantined".into(),
        );
    }

    /// Claims and executes one job if any is queued; returns its id.
    pub fn run_next(&self) -> Option<u64> {
        let _obs = self.obs_install();
        let id = self.claim_next()?;
        self.execute_job(id);
        self.lock().active.remove(&id);
        self.refresh_gauges();
        Some(id)
    }

    /// Drains the queue with `cfg.workers` concurrent workers; returns
    /// the number of jobs executed.
    pub fn run_until_idle(&self) -> usize {
        let workers = self.cfg.workers.max(1);
        if workers == 1 {
            let mut n = 0;
            while self.run_next().is_some() {
                n += 1;
            }
            return n;
        }
        let counter = Mutex::new(0usize);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while self.run_next().is_some() {
                        *counter.lock().unwrap_or_else(|p| p.into_inner()) += 1;
                    }
                });
            }
        });
        counter.into_inner().unwrap_or_else(|p| p.into_inner())
    }

    /// Round-robin across tenants: each claim advances a cursor over
    /// the distinct tenants that currently have queued work, then takes
    /// that tenant's oldest job.
    fn claim_next(&self) -> Option<u64> {
        if self.is_draining() {
            return None;
        }
        let mut st = self.lock();
        if st.queue.is_empty() {
            return None;
        }
        let mut tenants: Vec<String> = st
            .queue
            .iter()
            .filter_map(|id| st.ledger.get(*id).map(|e| e.spec.tenant.clone()))
            .collect();
        tenants.sort();
        tenants.dedup();
        let tenant = tenants[st.rr_cursor % tenants.len()].clone();
        st.rr_cursor = st.rr_cursor.wrapping_add(1);
        let pos = st
            .queue
            .iter()
            .position(|id| st.ledger.get(*id).is_some_and(|e| e.spec.tenant == tenant))
            .expect("tenant derived from queue");
        let id = st.queue.remove(pos);
        st.active.insert(id);
        if let (Some(obs), Some(at)) = (&self.obs, st.enqueued.remove(&id)) {
            obs.registry()
                .observe(names::DAEMON_QUEUE_WAIT_SECONDS, at.elapsed().as_secs_f64());
        }
        self.refresh_gauges_with(st.queue.len(), st.active.len());
        Some(id)
    }

    /// Runs one job to a terminal state, weaving in chaos faults and
    /// resuming from checkpoints across interruptions.
    fn execute_job(&self, id: u64) {
        let Some((spec, mut attempt)) = self
            .lock()
            .ledger
            .get(id)
            .map(|e| (e.spec.clone(), e.attempts))
        else {
            return;
        };
        let chaos = self.chaos();
        let run_dir = self.job_dir(id).join("run");
        let shared_cache = self.shared_cache_dir();
        let retry = RetryPolicy::transient_backoff();
        // Wall-clock for the tenant's compute-budget charge. Restart
        // loses the earlier process's share — the budget under-charges
        // crashed jobs rather than double-charging resumed ones.
        let started = Instant::now();
        loop {
            if attempt >= self.cfg.max_attempts {
                self.fail(id, attempt, &spec.tenant, "attempt budget exhausted".into());
                return;
            }
            if attempt > 0 {
                // Deterministic slot-keyed backoff between attempts —
                // the same policy the exec pool applies to transient
                // task faults, keyed here by job id.
                std::thread::sleep(retry.delay_for(attempt as usize, id as usize));
            }
            self.record(id, attempt, WalRecord::Started { job: id, attempt }, 1);
            if chaos.inject_panic(id, attempt) {
                self.bump_chaos(id, "worker_panic");
                let result = catch_unwind(AssertUnwindSafe(|| {
                    panic!("chaos: injected worker panic (job {id} attempt {attempt})")
                }));
                debug_assert!(result.is_err());
                self.record(
                    id,
                    attempt,
                    WalRecord::Interrupted {
                        job: id,
                        attempt,
                        reason: "worker panic (injected)".into(),
                    },
                    2,
                );
                attempt += 1;
                continue;
            }
            let cancel = match chaos.crash_after_polls(id, attempt) {
                Some(polls) => {
                    self.bump_chaos(id, "crash_after_polls");
                    CancelToken::cancel_after(polls)
                }
                None => CancelToken::new(),
            };
            let config = spec.flow_config(shared_cache.as_deref());
            if spec.preset.seeded_stage1() {
                // Without its artifact the flow would run the preset's
                // circuit GA, and the report would not be the seeded
                // preset's.
                if let Err(e) = self.seed_stage1(&run_dir, &config) {
                    self.fail(id, attempt, &spec.tenant, format!("seeding stage 1: {e}"));
                    return;
                }
            }
            let mut flow = HierarchicalFlow::new(config).with_cancel_token(cancel);
            if let Some(injector) = chaos.sim_faults(id) {
                flow = flow.with_fault_injector(injector);
            }
            // The solver hot loop must not pay per-iteration ambient
            // recorder costs (BENCH_obs.json holds the plane to <1 %
            // of a job's wall clock): suspend the lifetime recorder
            // for the duration of the flow. Solver/cache
            // distributions still reach the lifetime registry — via
            // the run profile merged in `note_completed` when
            // flow-level telemetry wrote one.
            let outcome = {
                let _quiet = telemetry::suspend();
                flow.resume(&run_dir)
            };
            match outcome {
                Ok(report) => {
                    let digest = report_digest(&report);
                    self.persist_report(id, &report);
                    let wall_ms = started.elapsed().as_millis() as u64;
                    self.record(
                        id,
                        attempt,
                        WalRecord::Completed {
                            job: id,
                            attempt,
                            report_digest: digest,
                            wall_ms,
                        },
                        3,
                    );
                    telemetry::counter_add(names::DAEMON_COMPLETED, 1);
                    telemetry::observe_secs(names::DAEMON_JOB_WALL, started.elapsed());
                    if let Some(obs) = &self.obs {
                        obs.note_completed(&spec.tenant, wall_ms, attempt > 0, &run_dir);
                    }
                    return;
                }
                Err(e) if e.is_resumable_interruption() => {
                    self.record(
                        id,
                        attempt,
                        WalRecord::Interrupted {
                            job: id,
                            attempt,
                            reason: e.to_string(),
                        },
                        2,
                    );
                    if chaos.corrupt_checkpoint(id, attempt) {
                        self.bump_chaos(id, "corrupt_checkpoint");
                        smash_newest_artifact(&run_dir);
                    }
                    attempt += 1;
                }
                Err(e) => {
                    self.fail(id, attempt, &spec.tenant, e.to_string());
                    return;
                }
            }
        }
    }

    /// Ends a job with a terminal `Failed` record naming `error`.
    fn fail(&self, id: u64, attempt: u32, tenant: &str, error: String) {
        self.record(
            id,
            attempt,
            WalRecord::Failed {
                job: id,
                attempt,
                error,
            },
            4,
        );
        telemetry::counter_add(names::DAEMON_FAILED, 1);
        if let Some(obs) = &self.obs {
            obs.note_failed(tenant);
        }
    }

    /// Writes a seeded preset's stage-1 front into `run_dir` unless the
    /// artifact is already there. The front is three real testbench
    /// evaluations of a nominal-family sweep, a pure function of the
    /// testbench: the daemon computes it once per testbench and writes
    /// a copy into each new run directory, so every attempt, and every
    /// daemon process that resumes the job, finds the identical
    /// artifact.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Checkpoint`] when the run directory cannot
    /// be created or the artifact cannot be saved.
    fn seed_stage1(&self, run_dir: &Path, config: &FlowConfig) -> Result<(), FlowError> {
        if run_dir.join(STAGE1_FRONT).exists() {
            return Ok(());
        }
        // A seeding panic inserts nothing, so a poisoned map is whole.
        let artifact = self
            .seeds
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(config_digest(&format!("{:?}", config.testbench)))
            .or_insert_with(|| conformance::seeded_stage1_front(&config.testbench, 3))
            .clone();
        RunDir::create(run_dir)?.save(STAGE1_FRONT, &artifact)
    }

    /// Writes the full and semantic reports atomically into the job
    /// directory. Best-effort: the WAL record (with the semantic
    /// digest) is the durable truth; a full disk here degrades the
    /// artifact, not the ledger.
    fn persist_report(&self, id: u64, report: &hierflow::flow::FlowReport) {
        let dir = self.job_dir(id);
        let _ = fs::create_dir_all(&dir);
        let full = serde_json::to_string_pretty(report).unwrap_or_default();
        let _ = atomic_write(&dir.join("report.json"), &full);
        let _ = atomic_write(&dir.join("report_semantic.json"), &semantic_json(report));
    }

    /// Appends a record (chaos may tear non-`Submitted` channels) and
    /// folds it into the in-memory ledger. The fold always uses the
    /// *intact* record: a torn WAL line models losing the record on
    /// disk, not the daemon forgetting what it just did.
    fn record(&self, job: u64, attempt: u32, rec: WalRecord, channel: u64) {
        let torn = self.chaos().short_write(job, attempt, channel);
        let outcome = if torn {
            self.wal.append_short(&rec)
        } else {
            self.wal.append(&rec)
        };
        if let Err(e) = outcome {
            // A WAL that stops accepting appends degrades durability,
            // never in-memory correctness; surface it loudly.
            eprintln!("hiersizerd: WAL append failed: {e}");
        }
        let mut st = self.lock();
        if torn {
            st.wal_short_writes += 1;
            st.chaos_faults += 1;
        }
        st.ledger.apply(&rec);
        let tenant = st.ledger.get(job).map(|e| e.spec.tenant.clone());
        drop(st);
        if torn {
            self.flight(
                FlightKind::ChaosInjection {
                    channel: "wal_short_write".into(),
                },
                Some(job),
                tenant.as_deref(),
                format!("attempt {attempt}"),
            );
        }
        let (phase, detail) = match &rec {
            WalRecord::Started { .. } => ("running", format!("attempt {attempt}")),
            WalRecord::Interrupted { reason, .. } => ("interrupted", reason.clone()),
            WalRecord::Completed { report_digest, .. } => {
                ("completed", format!("digest {report_digest:#018x}"))
            }
            WalRecord::Failed { error, .. } => ("failed", error.clone()),
            WalRecord::Submitted { .. } | WalRecord::SubmitKey { .. } => ("queued", String::new()),
        };
        self.flight(
            FlightKind::Transition {
                phase: phase.to_string(),
            },
            Some(job),
            tenant.as_deref(),
            detail,
        );
    }

    fn bump_chaos(&self, job: u64, channel: &str) {
        self.lock().chaos_faults += 1;
        self.flight(
            FlightKind::ChaosInjection {
                channel: channel.to_string(),
            },
            Some(job),
            None,
            String::new(),
        );
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// One job's status row, if the job exists.
    pub fn job_row(&self, id: u64) -> Option<JobRow> {
        let st = self.lock();
        st.ledger.get(id).map(|entry| JobRow {
            id: entry.id,
            tenant: entry.spec.tenant.clone(),
            phase: entry.phase.clone(),
            attempts: entry.attempts,
        })
    }

    /// The hierflow run directory for a job (where `events.json` and
    /// stage checkpoints land). Exists only once an attempt has run.
    pub fn job_run_dir(&self, id: u64) -> PathBuf {
        self.job_dir(id).join("run")
    }

    /// Current scheduler snapshot.
    pub fn status(&self) -> DaemonStatus {
        let st = self.lock();
        let mut status = DaemonStatus {
            queued: st.queue.len(),
            running: st.active.len(),
            completed: 0,
            failed: 0,
            chaos_faults: st.chaos_faults,
            wal_short_writes: st.wal_short_writes,
            quarantined: st.quarantined,
            draining: self.is_draining(),
            recovery: self.recovery.clone(),
            jobs: Vec::new(),
        };
        for entry in st.ledger.jobs() {
            match entry.phase {
                JobPhase::Completed { .. } => status.completed += 1,
                JobPhase::Failed { .. } => status.failed += 1,
                _ => {}
            }
            status.jobs.push(JobRow {
                id: entry.id,
                tenant: entry.spec.tenant.clone(),
                phase: entry.phase.clone(),
                attempts: entry.attempts,
            });
        }
        status
    }

    /// Persists `status.json` atomically into the data directory.
    pub fn write_status(&self) -> Result<(), ServiceError> {
        let status = self.status();
        let text =
            serde_json::to_string_pretty(&status).map_err(|e| ServiceError::wal(e.to_string()))?;
        let path = self.cfg.data_dir.join("status.json");
        atomic_write(&path, &text)
            .map_err(|e| ServiceError::io(path.display().to_string(), e.to_string()))
    }

    /// Writes the current exposition atomically to `metrics.prom` in
    /// the data directory. No-op (`Ok`) when observability is off.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] when the file cannot be written.
    pub fn write_prom(&self) -> Result<(), ServiceError> {
        let Some(obs) = &self.obs else {
            return Ok(());
        };
        let path = self.cfg.data_dir.join("metrics.prom");
        atomic_write(&path, &obs.exposition())
            .map_err(|e| ServiceError::io(path.display().to_string(), e.to_string()))
    }

    /// Writes a durable shutdown record — the bug this fixes is a
    /// drain/SIGTERM exit that left no trace of what was in flight.
    /// `shutdown.json` lands atomically next to `status.json` with the
    /// exit reason, every open job, and the flight-recorder tail; the
    /// full flight ring is dumped alongside as `flight.jsonl`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] when the record cannot be written (a
    /// failed flight dump only degrades forensics and is ignored).
    pub fn write_shutdown(&self, reason: &str) -> Result<(), ServiceError> {
        let open_jobs: Vec<JobRow> = {
            let st = self.lock();
            st.ledger
                .jobs()
                .filter(|e| {
                    !matches!(
                        e.phase,
                        JobPhase::Completed { .. } | JobPhase::Failed { .. }
                    )
                })
                .map(|e| JobRow {
                    id: e.id,
                    tenant: e.spec.tenant.clone(),
                    phase: e.phase.clone(),
                    attempts: e.attempts,
                })
                .collect()
        };
        let (flight, recorded) = match &self.obs {
            Some(obs) => {
                let _ = obs.flight().dump(self.cfg.data_dir.join("flight.jsonl"));
                (
                    obs.flight().tail(SHUTDOWN_FLIGHT_TAIL),
                    obs.flight().recorded(),
                )
            }
            None => (Vec::new(), 0),
        };
        let record = ShutdownRecord {
            reason: reason.to_string(),
            draining: self.is_draining(),
            open_jobs,
            flight_events_recorded: recorded,
            flight,
        };
        let text =
            serde_json::to_string_pretty(&record).map_err(|e| ServiceError::wal(e.to_string()))?;
        let path = self.cfg.data_dir.join("shutdown.json");
        atomic_write(&path, &text)
            .map_err(|e| ServiceError::io(path.display().to_string(), e.to_string()))
    }
}

/// Flight-recorder tail length embedded in `shutdown.json` (the full
/// ring goes to `flight.jsonl`).
const SHUTDOWN_FLIGHT_TAIL: usize = 32;

/// The durable record a clean shutdown leaves behind (`shutdown.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShutdownRecord {
    /// Why the daemon exited (`sigterm`, `drain`, `once`, ...).
    pub reason: String,
    /// Whether the daemon was draining when it exited.
    pub draining: bool,
    /// Every non-terminal job at shutdown — the work a restart will
    /// resume.
    pub open_jobs: Vec<JobRow>,
    /// Total flight events ever recorded this process.
    pub flight_events_recorded: u64,
    /// The most recent flight events (tail of the ring).
    pub flight: Vec<FlightEvent>,
}

/// Smashes the newest stage artifact in a run directory — truncates it
/// mid-token, modelling a torn write that bypassed the atomic rename.
/// The resume path must quarantine the casualty and recompute that
/// stage. Stage 1 is spared (for seeded presets it is input, not a
/// recovery artifact, and a GA recompute would dominate the soak);
/// when no later stage has landed yet the event log takes the hit,
/// exercising the events-quarantine path instead.
fn smash_newest_artifact(run_dir: &Path) {
    use hierflow::checkpoint::{EVENTS_FILE, STAGE2_CHARACTERIZED, STAGE4_SYSTEM, STAGE5_SELECTED};
    for name in [
        STAGE5_SELECTED,
        STAGE4_SYSTEM,
        STAGE2_CHARACTERIZED,
        EVENTS_FILE,
    ] {
        let path = run_dir.join(name);
        if let Ok(text) = fs::read_to_string(&path) {
            let keep = text.len() / 2;
            let _ = fs::write(&path, &text[..keep]);
            return;
        }
    }
}

/// Atomic tmp + rename write, the same discipline as checkpoints.
fn atomic_write(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_round_robin_interleaves_claims() {
        let dir = std::env::temp_dir().join(format!("svc-rr-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let daemon = Daemon::open(DaemonConfig::new(&dir)).unwrap();
        for tenant in ["a", "a", "a", "b", "b", "b"] {
            let sub = daemon.submit(&JobSpec::nano(tenant)).unwrap();
            assert!(matches!(sub, Submission::Accepted(_)));
        }
        let mut order = Vec::new();
        while let Some(id) = daemon.claim_next() {
            let tenant = daemon.lock().ledger.get(id).unwrap().spec.tenant.clone();
            order.push(tenant);
        }
        assert_eq!(order, ["a", "b", "a", "b", "a", "b"]);
        let _ = fs::remove_dir_all(&dir);
    }
}
