//! One adapter per end-to-end path, each mirroring the library calls its
//! `alchemist` subcommand makes (`src/main.rs`):
//!
//! | adapter            | subcommand                                   |
//! |--------------------|----------------------------------------------|
//! | [`live`]           | `run --profile-out` (minus the artifact write) |
//! | [`record`]         | `record -o FILE`                             |
//! | [`replay`]         | `replay FILE --analysis profile`             |
//! | [`replay_jobs`]    | `replay FILE --jobs N --analysis profile`    |
//!
//! Spans mark each call boundary; with a disabled [`Tracer`] they cost
//! nothing. When a subcommand's call sequence changes, only its adapter
//! here has to follow.

use crate::span::Tracer;
use alchemist_core::{
    profile_batches_par_spec, shard_batch_counts_spec, AlchemistProfiler, DepProfile,
    ProfileConfig, ShardSpec, ShardTuning,
};
use alchemist_obs::{Metrics, ShardMetrics};
use alchemist_trace::{
    decode_batches_par_with, AtomicFile, MultiSink, ReplaySummary, TraceReader, TraceStats,
    TraceWriter,
};
use alchemist_vm::{run_with_metrics, ExecConfig, ExecOutcome, Module, DEFAULT_BATCH_EVENTS};
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::sync::Arc;

pub type PathResult<T> = Result<T, String>;

/// `run --profile-out`: the VM with the online profiler riding the run,
/// per-event dispatch (the subcommand's default without `--batch-size`).
pub fn live(
    t: &mut Tracer,
    module: &Module,
    input: &[i64],
) -> PathResult<(ExecOutcome, DepProfile)> {
    let exec_config = ExecConfig {
        batch_events: 0,
        ..ExecConfig::with_input(input.to_vec())
    };
    let mut prof = AlchemistProfiler::new(module, ProfileConfig::default());
    let out = t
        .span("live.run", |_| {
            run_with_metrics(module, &exec_config, &mut prof, None)
        })
        .map_err(|e| format!("live run trapped: {e}"))?;
    let profile = t.span("live.into_profile", |_| prof.into_profile(out.steps));
    Ok((out, profile))
}

/// `record -o out`: the VM streams into a [`TraceWriter`] over an
/// [`AtomicFile`] (v2 for threaded programs, v1 otherwise, as without
/// `--crc`), then the footer, flush, fsync and rename.
pub fn record(
    t: &mut Tracer,
    module: &Module,
    source: &str,
    input: &[i64],
    out: &Path,
) -> PathResult<(ExecOutcome, TraceStats)> {
    let io_err = |e: &dyn std::fmt::Display| format!("cannot write {}: {e}", out.display());
    let mut writer = t.span("record.create", |_| {
        let f = AtomicFile::create(out).map_err(|e| io_err(&e))?;
        if module.uses_threads() {
            TraceWriter::new_v2(BufWriter::new(f), Some(source))
        } else {
            TraceWriter::new(BufWriter::new(f), Some(source))
        }
        .map_err(|e| io_err(&e))
    })?;
    let exec_config = ExecConfig {
        batch_events: 0,
        ..ExecConfig::with_input(input.to_vec())
    };
    let outcome = t
        .span("record.run", |_| {
            run_with_metrics(module, &exec_config, &mut writer, None)
        })
        .map_err(|e| format!("record run trapped: {e}"))?;
    let (bufw, stats) = t
        .span("record.finish", |_| writer.finish(outcome.steps))
        .map_err(|e| io_err(&e))?;
    t.span("record.commit", |_| {
        let f = bufw.into_inner().map_err(|e| io_err(&e))?;
        f.commit().map_err(|e| io_err(&e))
    })?;
    Ok((outcome, stats))
}

/// Opens a trace and recompiles the module its embedded source describes,
/// as `replay` does before any analysis.
fn open_trace(
    t: &mut Tracer,
    path: &Path,
) -> PathResult<(TraceReader<BufReader<std::fs::File>>, Module)> {
    let reader = t.span("replay.open", |_| {
        let f = std::fs::File::open(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        TraceReader::new(BufReader::new(f)).map_err(|e| format!("{}: {e}", path.display()))
    })?;
    let module = t.span("replay.compile", |_| {
        let source = reader.source().ok_or("trace has no embedded source")?;
        alchemist_vm::compile_source(source).map_err(|e| format!("embedded source: {e}"))
    })?;
    Ok((reader, module))
}

/// `replay --analysis profile`: one streaming pass decoding
/// `DEFAULT_BATCH_EVENTS`-row batches straight into the profiler through
/// a [`MultiSink`], with the always-on replay [`Metrics`] attached.
pub fn replay(t: &mut Tracer, path: &Path) -> PathResult<(ReplaySummary, DepProfile)> {
    let metrics = Arc::new(Metrics::new());
    let (reader, module) = open_trace(t, path)?;
    let mut reader = reader.with_metrics(Arc::clone(&metrics));
    let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
    let summary = t
        .span("replay.decode_profile", |_| {
            let mut fan = MultiSink::new();
            fan.push(&mut prof);
            reader.replay_batched_into(&mut fan, DEFAULT_BATCH_EVENTS)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let profile = t.span("replay.into_profile", |_| {
        prof.into_profile(summary.total_steps)
    });
    Ok((summary, profile))
}

/// What a sharded replay reports beside its profile.
pub struct JobsReport {
    pub spec: ShardSpec,
    /// Memory rows per shard (the CLI's stderr summary).
    pub mem_rows: Vec<u64>,
    /// Per-shard rows of the replay's [`Metrics`].
    pub shards: Vec<ShardMetrics>,
}

/// `replay --jobs N --analysis profile`: chunk-parallel decode of the
/// whole trace, one [`ShardSpec`] choice, sharded profiling with default
/// [`ShardTuning`] (no `--shard-depth`/`--shard-flush`), and the
/// per-shard memory-row summary.
pub fn replay_jobs(
    t: &mut Tracer,
    path: &Path,
    jobs: usize,
) -> PathResult<(ReplaySummary, DepProfile, JobsReport)> {
    let metrics = Metrics::new();
    let m = Some(&metrics);
    let (reader, module) = open_trace(t, path)?;
    let (batches, summary) = t
        .span("replay_jobs.decode_par", |_| {
            decode_batches_par_with(reader, jobs, m)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = t.span("replay_jobs.choose", |_| {
        ShardSpec::for_batches(&batches, jobs as u32)
    });
    let (profile, _, _) = t
        .span("replay_jobs.profile", |_| {
            profile_batches_par_spec(
                &module,
                &batches,
                summary.total_steps,
                ProfileConfig::default(),
                spec,
                ShardTuning::default(),
                m,
            )
        })
        .map_err(|e| e.to_string())?;
    let mem_rows = t.span("replay_jobs.counts", |_| {
        shard_batch_counts_spec(&batches, spec)
    });
    t.span("replay_jobs.free", |_| drop(batches));
    let report = JobsReport {
        spec,
        mem_rows,
        shards: metrics.shards(),
    };
    Ok((summary, profile, report))
}
