//! Daemon behaviour: submission, execution, backpressure, recovery,
//! and in-process interrupt-resume bit-identity.

use std::fs;
use std::path::PathBuf;

use hierflow::checkpoint::{EVENTS_FILE, STAGE1_FRONT};
use service::{
    AdmissionConfig, ChaosPolicy, Daemon, DaemonConfig, JobPhase, JobSpec, RejectReason, Submission,
};
use telemetry::names;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svc-daemon-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn accept(daemon: &Daemon, spec: &JobSpec) -> u64 {
    match daemon.submit(spec).unwrap() {
        Submission::Accepted(id) => id,
        other => panic!("unexpected submission outcome: {other:?}"),
    }
}

#[test]
fn nano_job_completes_and_persists_semantic_report() {
    let dir = scratch("complete");
    let daemon = Daemon::open(DaemonConfig::new(&dir)).unwrap();
    let id = accept(&daemon, &JobSpec::nano("acme"));
    assert_eq!(daemon.run_until_idle(), 1);

    let status = daemon.status();
    assert_eq!(status.completed, 1);
    assert_eq!(status.failed, 0);
    let row = &status.jobs[0];
    let JobPhase::Completed { report_digest } = row.phase else {
        panic!("expected completion, got {:?}", row.phase);
    };
    assert_ne!(report_digest, 0);

    let semantic = dir
        .join("jobs")
        .join(id.to_string())
        .join("report_semantic.json");
    let text = fs::read_to_string(&semantic).unwrap();
    assert!(text.contains("\"verification\""));
    assert!(
        !text.contains("\"events\""),
        "provenance must not leak into the semantic projection"
    );
    daemon.write_status().unwrap();
    assert!(dir.join("status.json").exists());
    let _ = fs::remove_dir_all(&dir);
}

/// A daemon whose lifetime recorder is off, so a recorder the test
/// installs on its own thread sees the work `run_next` does there
/// outside the flow (the flow runs with the ambient recorder
/// suspended).
fn quiet_daemon(dir: &PathBuf) -> Daemon {
    let mut cfg = DaemonConfig::new(dir);
    cfg.obs.enabled = false;
    Daemon::open(cfg).unwrap()
}

fn completed_digest(daemon: &Daemon, id: u64) -> u64 {
    match daemon.job_row(id).map(|row| row.phase) {
        Some(JobPhase::Completed { report_digest }) => report_digest,
        other => panic!("job {id} did not complete: {other:?}"),
    }
}

/// A Nano job's seeded stage-1 front is a pure function of the
/// testbench, so one daemon simulates it once: its second Nano job runs
/// no transistor-level analysis outside the flow, and still reports
/// what a fresh daemon reports for the same spec.
#[test]
fn nano_jobs_in_one_daemon_seed_stage1_once() {
    let recorder = telemetry::Recorder::new();
    let _installed = recorder.install();
    let analyses = || {
        recorder
            .metrics()
            .counter(names::SIM_SPARSE_ANALYZE)
            .unwrap_or(0)
    };

    let dir = scratch("seed-once");
    let daemon = quiet_daemon(&dir);
    let first = accept(&daemon, &JobSpec::nano("a"));
    let second = accept(&daemon, &JobSpec::nano("b").with_seed_offset(1));
    assert_eq!(daemon.run_next(), Some(first));
    let seeding = analyses();
    assert!(seeding > 0, "the first job simulates the seeded front");
    assert_eq!(daemon.run_next(), Some(second));
    assert_eq!(analyses(), seeding, "the second job simulated it again");
    assert!(daemon.job_run_dir(second).join(STAGE1_FRONT).is_file());

    let fresh_dir = scratch("seed-fresh");
    let fresh = quiet_daemon(&fresh_dir);
    let alone = accept(&fresh, &JobSpec::nano("b").with_seed_offset(1));
    assert_eq!(fresh.run_next(), Some(alone));
    assert_eq!(
        completed_digest(&daemon, second),
        completed_digest(&fresh, alone)
    );
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&fresh_dir);
}

/// A seeded stage-1 front that cannot be saved fails the job with the
/// cause: resuming the flow without it would run the preset's circuit
/// GA and report a different design.
#[test]
fn unsaveable_seeded_front_fails_the_job_with_the_cause() {
    let dir = scratch("seed-unsaveable");
    let daemon = Daemon::open(DaemonConfig::new(&dir)).unwrap();
    let id = accept(&daemon, &JobSpec::nano("acme"));
    let run_dir = daemon.job_run_dir(id);
    // A directory where the artifact's temporary file goes.
    fs::create_dir_all(run_dir.join(format!("{STAGE1_FRONT}.tmp"))).unwrap();
    assert_eq!(daemon.run_until_idle(), 1);

    let status = daemon.status();
    assert_eq!((status.completed, status.failed), (0, 1));
    let JobPhase::Failed { error } = &status.jobs[0].phase else {
        panic!("expected a failure, got {:?}", status.jobs[0].phase);
    };
    assert!(error.starts_with("seeding stage 1: checkpoint"), "{error}");
    assert!(error.contains(STAGE1_FRONT), "{error}");
    assert!(
        !run_dir.join(EVENTS_FILE).exists(),
        "the flow must not start without its seeded front"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn backpressure_rejects_with_structured_retry_after() {
    let dir = scratch("backpressure");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.admission = AdmissionConfig {
        max_open: 2,
        max_open_per_tenant: 2,
        retry_after_ms: 750,
        ..AdmissionConfig::default()
    };
    let daemon = Daemon::open(cfg).unwrap();
    accept(&daemon, &JobSpec::nano("a"));
    accept(&daemon, &JobSpec::nano("b"));
    let Submission::Rejected(rej) = daemon.submit(&JobSpec::nano("c")).unwrap() else {
        panic!("third job must be rejected");
    };
    assert_eq!(rej.reason, RejectReason::QueueFull);
    assert_eq!(rej.retry_after_ms, 750);
    assert_eq!(rej.open_jobs, 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tenant_quota_rejects_only_the_noisy_tenant() {
    let dir = scratch("quota");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.admission.max_open_per_tenant = 1;
    let daemon = Daemon::open(cfg).unwrap();
    accept(&daemon, &JobSpec::nano("noisy"));
    let Submission::Rejected(rej) = daemon.submit(&JobSpec::nano("noisy")).unwrap() else {
        panic!("second job from the same tenant must be rejected");
    };
    assert_eq!(rej.reason, RejectReason::TenantQuota);
    // A different tenant still gets in.
    accept(&daemon, &JobSpec::nano("quiet"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_requeues_unfinished_jobs() {
    let dir = scratch("recover");
    {
        let daemon = Daemon::open(DaemonConfig::new(&dir)).unwrap();
        accept(&daemon, &JobSpec::nano("a"));
        accept(&daemon, &JobSpec::nano("b").with_seed_offset(1));
        // Daemon "dies" with both jobs queued.
    }
    let daemon = Daemon::open(DaemonConfig::new(&dir)).unwrap();
    assert_eq!(daemon.recovery().resumed_jobs, 2);
    assert_eq!(daemon.recovery().replayed_records, 2);
    let status = daemon.status();
    assert_eq!(status.queued, 2);
    assert_eq!(status.completed, 0);
    // The replayed ledger carries the id watermark: a post-recovery
    // submission continues the sequence instead of reusing a live id.
    assert_eq!(accept(&daemon, &JobSpec::nano("c")), 3);
    // Executing recovered jobs to completion is covered by the kill -9
    // e2e (kill_restart.rs); re-running two flows here would only
    // re-prove that at tier-1 wall-clock cost.
    let _ = fs::remove_dir_all(&dir);
}

/// A soak-shaped policy whose first two attempts of job 1 are
/// guaranteed to crash *early* (within 100 task polls — well inside a
/// nano flow, whose system stage alone polls ~100 times). The rolls
/// are pure functions of the seed, so the search is instant and the
/// result deterministic. Panics and solver faults are disabled: this
/// policy isolates the crash-resume path, and with no job-keyed solver
/// injector the chaos-free daemon is directly comparable.
fn early_crash_policy() -> ChaosPolicy {
    for seed in 0..10_000 {
        let p = ChaosPolicy {
            crash_permille: 1000,
            panic_permille: 0,
            sim_fault_permille: 0,
            corrupt_checkpoint_permille: 500,
            max_faults_per_job: 2,
            ..ChaosPolicy::soak(seed)
        };
        let early = |a| matches!(p.crash_after_polls(1, a), Some(polls) if polls <= 100);
        if early(0) && early(1) {
            return p;
        }
    }
    unreachable!("no early-crash seed in range");
}

/// The in-process half of the headline guarantee: a job whose first
/// two attempts are crashed mid-stage (cancel token fired by chaos)
/// resumes and produces byte-identical semantic output to a
/// never-interrupted run of the same spec.
#[test]
fn interrupted_and_resumed_job_is_bit_identical_to_clean_run() {
    let spec = JobSpec::nano("ident");

    let clean_dir = scratch("ident-clean");
    let clean = Daemon::open(DaemonConfig::new(&clean_dir)).unwrap();
    let clean_id = accept(&clean, &spec);
    clean.run_until_idle();

    let chaos_dir = scratch("ident-chaos");
    let mut cfg = DaemonConfig::new(&chaos_dir);
    cfg.chaos = Some(early_crash_policy());
    let chaotic = Daemon::open(cfg).unwrap();
    let chaos_id = accept(&chaotic, &spec);
    chaotic.run_until_idle();

    let status = chaotic.status();
    assert_eq!(status.completed, 1, "chaos job must still complete");
    assert!(
        status.chaos_faults >= 2,
        "both early crashes were actually injected (faults={})",
        status.chaos_faults
    );
    assert!(
        status.jobs[0].attempts >= 3,
        "job retried through the interruptions (attempts={})",
        status.jobs[0].attempts
    );

    let read = |dir: &PathBuf, id: u64| {
        fs::read_to_string(
            dir.join("jobs")
                .join(id.to_string())
                .join("report_semantic.json"),
        )
        .unwrap()
    };
    assert_eq!(
        read(&clean_dir, clean_id),
        read(&chaos_dir, chaos_id),
        "killed-and-resumed report diverged from the clean run"
    );
    let _ = fs::remove_dir_all(&clean_dir);
    let _ = fs::remove_dir_all(&chaos_dir);
}
