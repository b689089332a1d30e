//! End-to-end passes, tracing off: repeated adapter calls on the
//! workload's path until the run's time is up, each pass timed from
//! outside, its peak RSS isolated, and its outputs checked.

use crate::paths;
use crate::rss;
use crate::span::Tracer;
use crate::workload::{file_hash, same_run, Kind, Setup};
use crate::Checks;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-pass samples of one end-to-end run.
#[derive(Default)]
pub struct Passes {
    /// Guest instructions per second of wall time, one per pass.
    pub instr_per_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
}

pub const JOBS: usize = 2;

/// Runs passes of `kind`'s path for about `seconds` (at least one pass).
/// `scratch` is where `record-replay` writes its recording. Each pass's
/// peak RSS is read before its outputs are checked.
pub fn measure(
    kind: Kind,
    s: &Setup,
    seconds: u64,
    scratch: &Path,
    checks: &mut Checks,
) -> Result<Passes, String> {
    let mut passes = Passes::default();
    let mut off = Tracer::new(false);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut last = Duration::ZERO;
    // A pass starts only if one as long as the last still ends in time.
    while passes.instr_per_s.is_empty() || Instant::now() + last <= deadline {
        let started = Instant::now();
        if !rss::reset_peak() {
            return Err("cannot reset the peak-RSS mark (/proc/self/clear_refs)".to_owned());
        }
        let peak_mb = || rss::peak_mb().ok_or("cannot read VmHWM from /proc/self/status");
        let (wall, peak) = match kind {
            Kind::RecordReplay => {
                let t0 = Instant::now();
                let recorded =
                    paths::record(&mut off, &s.module, s.workload.source, &s.input, scratch);
                let replayed = paths::replay(&mut off, scratch);
                let (wall, peak) = (t0.elapsed(), peak_mb()?);
                check_record(s, recorded, scratch, checks);
                check_replay(s, replayed, checks);
                (wall, peak)
            }
            Kind::ReplayJobs2 => {
                let t0 = Instant::now();
                let result = paths::replay_jobs(&mut off, &s.trace, JOBS);
                let (wall, peak) = (t0.elapsed(), peak_mb()?);
                check_replay(s, result.map(|(sum, p, _)| (sum, p)), checks);
                (wall, peak)
            }
        };
        passes
            .instr_per_s
            .push(s.outcome.steps as f64 / wall.as_secs_f64());
        passes.peak_rss_mb.push(peak);
        last = started.elapsed();
    }
    Ok(passes)
}

pub fn check_live(
    s: &Setup,
    result: paths::PathResult<(alchemist_vm::ExecOutcome, alchemist_core::DepProfile)>,
    checks: &mut Checks,
) {
    match result {
        Ok((out, profile)) => {
            checks.check(same_run(&out, &s.outcome), || {
                "live run diverged from the set-up run".into()
            });
            checks.check(profile == s.reference, || {
                "live profile differs from the reference".into()
            });
        }
        Err(e) => checks.fail(e),
    }
}

/// A recording must reproduce the set-up run and the set-up trace's bytes.
pub fn check_record(
    s: &Setup,
    result: paths::PathResult<(alchemist_vm::ExecOutcome, alchemist_trace::TraceStats)>,
    file: &Path,
    checks: &mut Checks,
) {
    match result {
        Ok((out, stats)) => {
            checks.check(same_run(&out, &s.outcome), || {
                "recorded run diverged from the set-up run".into()
            });
            let same_bytes =
                stats.bytes == s.trace_bytes && file_hash(file).ok() == Some(s.trace_hash);
            checks.check(same_bytes, || {
                "recording differs from the set-up trace".into()
            });
        }
        Err(e) => checks.fail(e),
    }
}

pub fn check_replay(
    s: &Setup,
    result: paths::PathResult<(alchemist_trace::ReplaySummary, alchemist_core::DepProfile)>,
    checks: &mut Checks,
) {
    match result {
        Ok((summary, profile)) => {
            let counts = summary.events == s.events && summary.total_steps == s.outcome.steps;
            checks.check(counts, || {
                "replay delivered a different event or step count".into()
            });
            checks.check(profile == s.reference, || {
                "replayed profile differs from the reference".into()
            });
        }
        Err(e) => checks.fail(e),
    }
}
