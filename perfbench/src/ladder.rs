//! The traced run: every end-to-end path once under spans, then every
//! layer alone on the same recorded stream, repeated in rounds until the
//! run's time is up. Each round yields one value per per-layer metric;
//! the run reports their medians.
//!
//! Layer rows are spans around single calls into one crate:
//!
//! | span                  | call                                           |
//! |-----------------------|------------------------------------------------|
//! | `vm.dispatch`         | `alchemist_vm::run` into `NullSink`            |
//! | `trace.decode`        | `TraceReader::read_batch` into one reused batch|
//! | `trace.decode_par`    | `decode_batches_par_with`, 2 jobs              |
//! | `trace.encode`        | `TraceWriter::on_batch` over decoded batches   |
//! | `trace.commit`        | `AtomicFile::commit` (fsync + rename)          |
//! | `core.profile_event`  | `EventBatch::dispatch_into` a fresh profiler   |
//! | `core.profile_batch`  | `AlchemistProfiler::on_batch`                  |
//! | `core.index`          | `on_batch` over control rows only              |
//! | `core.shadow`         | `ShadowMemory::on_read`/`on_write`             |
//! | `shard.choose`        | `ShardSpec::for_batches`                       |
//! | `shard.partition`     | `partition_batch`                              |
//! | `shard.profile.K`     | shard K's profiler `on_batch` of its sub-batch |
//! | `shard.merge`         | `merge_shard_profiles`                         |
//!
//! A path's ladder gap is its wall time minus the sum of its layer rows,
//! as a percent of its wall time.

use crate::e2e::{check_live, check_record, check_replay, JOBS};
use crate::paths;
use crate::span::Tracer;
use crate::workload::{Kind, Setup};
use crate::{median, Checks};
use alchemist_core::shadow::{Access, ShadowMemory};
use alchemist_core::{merge_shard_profiles, partition_batch};
use alchemist_core::{AlchemistProfiler, DepKind, ProfileConfig, ShardSpec};
use alchemist_trace::{decode_batches_par_with, AtomicFile, TraceReader, TraceWriter};
use alchemist_vm::{
    EventBatch, EventTag, ExecConfig, NullSink, Pc, Time, TraceSink, DEFAULT_BATCH_EVENTS,
};
use std::collections::BTreeMap;
use std::io::{Cursor, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in output order.
pub const METRICS: &[(&str, &str)] = &[
    ("vm.dispatch_ns_per_instr", "ns/instr"),
    ("vm.instructions", "count"),
    ("vm.events", "count"),
    ("trace.encode_ns_per_event", "ns/event"),
    ("trace.commit_ms", "ms"),
    ("trace.bytes_per_event", "B/event"),
    ("trace.decode_ns_per_event", "ns/event"),
    ("trace.decode_par_ns_per_event", "ns/event"),
    ("trace.materialized_mb", "MB"),
    ("core.profile_event_ns_per_event", "ns/event"),
    ("core.profile_batch_ns_per_event", "ns/event"),
    ("core.index_ns_per_event", "ns/event"),
    ("core.shadow_ns_per_access", "ns/access"),
    ("core.shadow_pages", "count"),
    ("core.pool_allocated", "count"),
    ("core.pool_reused", "count"),
    ("core.deps", "count"),
    ("core.dropped_readers", "count"),
    ("shard.choose_ns_per_event", "ns/event"),
    ("shard.block_words", "words"),
    ("shard.partition_ns_per_event", "ns/event"),
    ("shard.rows_per_event", "rows/event"),
    ("shard.imbalance", "ratio"),
    ("shard.profile_ns_per_event", "ns/event"),
    ("shard.merge_ms", "ms"),
    ("shard.busy_frac", "frac"),
    ("shard.recv_wait_frac", "frac"),
    ("path.live_minstr_per_s", "Minstr/s"),
    ("path.record_minstr_per_s", "Minstr/s"),
    ("path.replay_minstr_per_s", "Minstr/s"),
    ("path.replay_jobs2_minstr_per_s", "Minstr/s"),
    ("path.jobs2_speedup", "ratio"),
    ("ladder.gap_pct.live", "%"),
    ("ladder.gap_pct.record", "%"),
    ("ladder.gap_pct.replay", "%"),
    ("ladder.gap_pct.replay_jobs2", "%"),
    ("trace_overhead_pct", "%"),
];

/// Span names of the per-shard profiling rows, indexed by shard.
const SHARD_PROFILE: [&str; JOBS] = ["shard.profile.0", "shard.profile.1"];

/// Bytes one decoded row holds across the batch's six columns.
const ROW_BYTES: usize =
    std::mem::size_of::<EventTag>() + std::mem::size_of::<Time>() + 4 * std::mem::size_of::<u32>();

type Round = BTreeMap<&'static str, f64>;

/// A round's value; a value a failed path never produced reads as 0 (the
/// failure itself is counted by the checks).
fn at(r: &Round, name: &str) -> f64 {
    r.get(name).copied().unwrap_or(0.0)
}

/// Runs ladder rounds for about `seconds` (at least one) and returns the
/// median of every per-layer metric across rounds, and the round count.
pub fn run(
    kind: Kind,
    s: &Setup,
    seconds: u64,
    scratch: &Path,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Result<(Round, usize), String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    // Warm-up, so the first traced path does not pay first-run costs the
    // untraced one then skips.
    t.span("warmup", |_| own_path_untraced(kind, s, scratch));
    let mut rounds: Vec<Round> = Vec::new();
    let mut last = Duration::ZERO;
    // A round starts only if one as long as the last still ends in time.
    while rounds.is_empty() || Instant::now() + last <= deadline {
        let started = Instant::now();
        rounds.push(round(kind, s, scratch, t, checks)?);
        last = started.elapsed();
    }
    let medians = METRICS
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = rounds.iter().map(|r| at(r, name)).collect();
            (name, median(&values))
        })
        .collect();
    Ok((medians, rounds.len()))
}

fn round(
    kind: Kind,
    s: &Setup,
    scratch: &Path,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Result<Round, String> {
    let mark = t.mark();
    let mut r = Round::new();
    t.span("round", |t| -> Result<(), String> {
        paths_traced(kind, s, scratch, t, checks, &mut r);
        layers(s, scratch, t, checks, &mut r)
    })?;
    let steps = s.outcome.steps as f64;
    let events = s.events as f64;
    let ns = |name: &str| t.total_ns(mark, name) as f64;
    let per = |name: &str, base: f64| ns(name) / base.max(1.0);
    let gap = |path: &str, layers: f64| {
        let wall = ns(path);
        100.0 * (wall - layers) / wall
    };
    let shard_critical = SHARD_PROFILE.iter().map(|n| ns(n)).fold(0.0, f64::max);
    for (name, value) in [
        ("vm.dispatch_ns_per_instr", per("vm.dispatch", steps)),
        ("vm.instructions", steps),
        ("vm.events", events),
        ("trace.encode_ns_per_event", per("trace.encode", events)),
        ("trace.commit_ms", ns("trace.commit") / 1e6),
        ("trace.decode_ns_per_event", per("trace.decode", events)),
        (
            "trace.decode_par_ns_per_event",
            per("trace.decode_par", events),
        ),
        (
            "core.profile_event_ns_per_event",
            per("core.profile_event", events),
        ),
        (
            "core.profile_batch_ns_per_event",
            per("core.profile_batch", events),
        ),
        (
            "core.index_ns_per_event",
            per("core.index", at(&r, "control_rows")),
        ),
        (
            "core.shadow_ns_per_access",
            per("core.shadow", at(&r, "shadow_accesses")),
        ),
        ("shard.choose_ns_per_event", per("shard.choose", events)),
        (
            "shard.partition_ns_per_event",
            per("shard.partition", events),
        ),
        ("shard.profile_ns_per_event", shard_critical / events),
        ("shard.merge_ms", ns("shard.merge") / 1e6),
        ("path.live_minstr_per_s", steps / ns("path.live") * 1e3),
        ("path.record_minstr_per_s", steps / ns("path.record") * 1e3),
        ("path.replay_minstr_per_s", steps / ns("path.replay") * 1e3),
        (
            "path.replay_jobs2_minstr_per_s",
            steps / ns("path.replay_jobs2") * 1e3,
        ),
        (
            "path.jobs2_speedup",
            ns("path.replay") / ns("path.replay_jobs2"),
        ),
        (
            "ladder.gap_pct.live",
            gap("path.live", ns("vm.dispatch") + ns("core.profile_event")),
        ),
        (
            "ladder.gap_pct.record",
            gap(
                "path.record",
                ns("vm.dispatch") + ns("trace.encode") + ns("trace.commit"),
            ),
        ),
        (
            "ladder.gap_pct.replay",
            gap("path.replay", ns("trace.decode") + ns("core.profile_batch")),
        ),
        (
            "ladder.gap_pct.replay_jobs2",
            gap(
                "path.replay_jobs2",
                ns("trace.decode_par")
                    + ns("shard.choose")
                    + ns("shard.partition")
                    + shard_critical
                    + ns("shard.merge"),
            ),
        ),
    ] {
        r.insert(name, value);
    }
    // The workload's own path, traced against untraced.
    let traced: f64 = match kind {
        Kind::RecordReplay => ns("path.record") + ns("path.replay"),
        Kind::ReplayJobs2 => ns("path.replay_jobs2"),
    };
    let untraced = ns("untraced");
    r.insert("trace_overhead_pct", 100.0 * (traced - untraced) / untraced);
    r.insert(
        "shard.busy_frac",
        at(&r, "shard_busy_ns") / (JOBS as f64 * ns("replay_jobs.profile")),
    );
    r.insert(
        "shard.recv_wait_frac",
        at(&r, "shard_recv_wait_ns") / (JOBS as f64 * ns("replay_jobs.profile")),
    );
    Ok(r)
}

/// The four end-to-end paths under spans, each output checked, then the
/// workload's own path again with tracing off (span `untraced`, no
/// children) for the tracing overhead.
fn paths_traced(
    kind: Kind,
    s: &Setup,
    scratch: &Path,
    t: &mut Tracer,
    checks: &mut Checks,
    r: &mut Round,
) {
    let live = t.span("path.live", |t| paths::live(t, &s.module, &s.input));
    check_live(s, live, checks);
    let recorded = t.span("path.record", |t| {
        paths::record(t, &s.module, s.workload.source, &s.input, scratch)
    });
    check_record(s, recorded, scratch, checks);
    let replayed = t.span("path.replay", |t| paths::replay(t, &s.trace));
    check_replay(s, replayed, checks);
    let jobs = t.span("path.replay_jobs2", |t| {
        paths::replay_jobs(t, &s.trace, JOBS)
    });
    if let Ok((_, _, report)) = &jobs {
        let (busy, wait) = report.shards.iter().fold((0.0, 0.0), |(b, w), sm| {
            (b + sm.busy_ns as f64, w + sm.recv_wait_ns as f64)
        });
        r.insert("shard_busy_ns", busy);
        r.insert("shard_recv_wait_ns", wait);
        r.insert("shard.block_words", report.spec.block_words() as f64);
        let (max, min) = (report.mem_rows.iter().max(), report.mem_rows.iter().min());
        r.insert(
            "shard.imbalance",
            *max.unwrap_or(&0) as f64 / (*min.unwrap_or(&0)).max(1) as f64,
        );
    }
    check_replay(s, jobs.map(|(sum, p, _)| (sum, p)), checks);

    t.span("untraced", |_| own_path_untraced(kind, s, scratch));
}

/// The workload's own end-to-end path with tracing off; its outputs were
/// checked on the traced run just before.
fn own_path_untraced(kind: Kind, s: &Setup, scratch: &Path) {
    let mut off = Tracer::new(false);
    match kind {
        Kind::RecordReplay => {
            drop(paths::record(
                &mut off,
                &s.module,
                s.workload.source,
                &s.input,
                scratch,
            ));
            drop(paths::replay(&mut off, scratch));
        }
        Kind::ReplayJobs2 => drop(paths::replay_jobs(&mut off, &s.trace, JOBS)),
    }
}

/// Every layer alone on the set-up stream. Inputs each layer needs
/// (trace bytes, decoded batches, control-only batches) are prepared
/// outside its span.
fn layers(
    s: &Setup,
    scratch: &Path,
    t: &mut Tracer,
    checks: &mut Checks,
    r: &mut Round,
) -> Result<(), String> {
    let module = &s.module;
    let steps = s.outcome.steps;
    let bytes = t
        .span("load", |_| std::fs::read(&s.trace))
        .map_err(|e| format!("cannot read {}: {e}", s.trace.display()))?;

    // vm
    let exec = ExecConfig::with_input(s.input.clone());
    let out = t.span("vm.dispatch", |_| {
        alchemist_vm::run(module, &exec, &mut NullSink)
    });
    checks.check(out.is_ok_and(|o| o.steps == steps), || {
        "bare VM run diverged".into()
    });

    // trace: decode, parallel decode (kept for every later layer), encode, commit
    let mut reader = open(&bytes)?;
    let mut batch = EventBatch::with_capacity(DEFAULT_BATCH_EVENTS);
    let decoded = t.span("trace.decode", |_| {
        let mut n = 0u64;
        while reader.read_batch(&mut batch, DEFAULT_BATCH_EVENTS)? {
            n += batch.len() as u64;
        }
        Ok::<u64, alchemist_trace::TraceError>(n)
    });
    checks.check(decoded.is_ok_and(|n| n == s.events), || {
        "sequential decode lost events".into()
    });
    let reader = open(&bytes)?;
    let (batches, summary) = t
        .span("trace.decode_par", |_| {
            decode_batches_par_with(reader, JOBS, None)
        })
        .map_err(|e| format!("parallel decode: {e}"))?;
    checks.check(summary.events == s.events, || {
        "parallel decode lost events".into()
    });
    let rows: usize = batches.iter().map(EventBatch::len).sum();
    r.insert("trace.materialized_mb", (rows * ROW_BYTES) as f64 / 1e6);

    let mut writer = if module.uses_threads() {
        TraceWriter::new_v2(Vec::with_capacity(bytes.len()), Some(s.workload.source))
    } else {
        TraceWriter::new(Vec::with_capacity(bytes.len()), Some(s.workload.source))
    }
    .map_err(|e| e.to_string())?;
    let encoded = t.span("trace.encode", |_| {
        for b in &batches {
            writer.on_batch(b);
        }
        writer.finish(steps)
    });
    let encoded = encoded.map_err(|e| format!("encode: {e}"))?.0;
    checks.check(encoded == bytes, || {
        "re-encoded stream differs from the set-up trace".into()
    });
    r.insert(
        "trace.bytes_per_event",
        encoded.len() as f64 / s.events as f64,
    );
    let mut f = AtomicFile::create(scratch).map_err(|e| e.to_string())?;
    t.span("trace.write", |_| f.write_all(&encoded))
        .map_err(|e| e.to_string())?;
    let committed = t.span("trace.commit", |_| f.commit());
    checks.check(committed.is_ok(), || "trace commit failed".into());
    drop((encoded, bytes));

    // core: per-event and per-batch profiling, index stack alone, shadow alone
    let config = ProfileConfig::default();
    let mut prof = AlchemistProfiler::new(module, config.clone());
    t.span("core.profile_event", |_| {
        batches.iter().for_each(|b| b.dispatch_into(&mut prof))
    });
    let profile = prof.into_profile(steps);
    checks.check(profile == s.reference, || {
        "per-event profile differs from the reference".into()
    });

    let mut prof = AlchemistProfiler::new(module, config.clone());
    t.span("core.profile_batch", |_| {
        batches.iter().for_each(|b| prof.on_batch(b))
    });
    let pool = prof.pool_stats();
    let profile = prof.into_profile(steps);
    checks.check(profile == s.reference, || {
        "batched profile differs from the reference".into()
    });
    r.insert("core.pool_allocated", pool.allocated as f64);
    r.insert("core.pool_reused", pool.reused as f64);
    r.insert(
        "core.shadow_pages",
        profile.shadow_stats.pages_allocated as f64,
    );
    let deps = profile.intra_thread_deps + profile.cross_thread_deps;
    r.insert("core.deps", deps as f64);
    r.insert("core.dropped_readers", profile.dropped_readers as f64);

    let mut prof = AlchemistProfiler::new(module, config.clone());
    let mut control = EventBatch::with_capacity(DEFAULT_BATCH_EVENTS);
    let mut control_rows = 0u64;
    t.span("core.index_pass", |t| {
        for b in &batches {
            control.clear();
            for i in (0..b.len()).filter(|&i| !b.tag(i).is_memory()) {
                control.push_index(b, i);
            }
            control_rows += control.len() as u64;
            t.span("core.index", |_| prof.on_batch(&control));
        }
    });
    r.insert("control_rows", control_rows as f64);
    drop(prof);

    // The memory rows the profiler traces (globals; frame memory is off
    // by default), gathered per batch outside the timed span.
    let mut shadow = ShadowMemory::<()>::with_dense_limit(config.reader_cap, module.global_words);
    let mut rows: Vec<(bool, u32, Access<()>)> = Vec::with_capacity(DEFAULT_BATCH_EVENTS);
    let (mut shadow_deps, mut accesses) = (0u64, 0u64);
    t.span("core.shadow_pass", |t| {
        for b in &batches {
            rows.clear();
            for i in (0..b.len()).filter(|&i| b.tag(i).is_memory()) {
                let addr = b.addr(i);
                if config.trace_frame_memory || addr < module.global_words {
                    let access = Access {
                        pc: Pc(b.pc(i)),
                        t: b.time(i),
                        tid: b.tid(i),
                        node: (),
                    };
                    rows.push((b.tag(i) == EventTag::Read, addr, access));
                }
            }
            accesses += rows.len() as u64;
            t.span("core.shadow", |_| {
                for &(is_read, addr, access) in &rows {
                    if is_read {
                        shadow_deps += shadow.on_read(addr, access).is_some() as u64;
                    } else {
                        shadow.on_write(addr, access, &mut |_: DepKind, _| shadow_deps += 1);
                    }
                }
            });
        }
    });
    r.insert("shadow_accesses", accesses as f64);
    checks.check(
        shadow_deps == deps && shadow.dropped_readers == profile.dropped_readers,
        || "shadow-only dependence or dropped-reader count differs from the profiler's".into(),
    );
    drop(shadow);

    // shard: choose, partition + per-shard profiling batch by batch, merge
    let spec = t.span("shard.choose", |_| {
        ShardSpec::for_batches(&batches, JOBS as u32)
    });
    checks.check(
        r.get("shard.block_words") == Some(&(spec.block_words() as f64)),
        || "the layer chose another partition than the sharded replay".into(),
    );
    let mut shards: Vec<AlchemistProfiler> = (0..JOBS)
        .map(|_| AlchemistProfiler::new(module, config.clone()))
        .collect();
    let mut delivered = 0u64;
    t.span("shard.pass", |t| {
        for b in &batches {
            let subs = t.span("shard.partition", |_| partition_batch(b, spec));
            for (k, sub) in subs.iter().enumerate() {
                delivered += sub.len() as u64;
                t.span(SHARD_PROFILE[k], |_| shards[k].on_batch(sub));
            }
        }
    });
    r.insert("shard.rows_per_event", delivered as f64 / s.events as f64);
    let parts = shards.into_iter().map(|p| p.into_profile(steps)).collect();
    let merged = t.span("shard.merge", |_| merge_shard_profiles(parts));
    checks.check(merged == s.reference, || {
        "merged shard profiles differ from the reference".into()
    });
    t.span("free", |_| drop(batches));
    Ok(())
}

fn open(bytes: &[u8]) -> Result<TraceReader<Cursor<&[u8]>>, String> {
    TraceReader::new(Cursor::new(bytes)).map_err(|e| e.to_string())
}
