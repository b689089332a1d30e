//! Record/replay microbenchmarks: live (instrumented) profiling vs
//! recording a trace vs replaying a recorded trace into the profiler —
//! per-event and batched, sequentially and through the address-sharded
//! parallel pipeline — plus a bytes-per-event report for the trace
//! encoding and per-shard event counts for the parallel split.
//!
//! The point of the trace subsystem is that the interpreter runs once and
//! every further analysis becomes an offline pass; `replay_profile`
//! measures exactly that offline cost next to `live_profile`'s pay-per-
//! analysis re-execution. Each stage then has a batched twin so the
//! speedup of moving `EventBatch`es instead of single events is
//! *measured*, not asserted:
//!
//! * `record` vs `record_batched` — per-event `TraceSink` calls into the
//!   writer vs interpreter-side batching (`ExecConfig::batch_events`)
//!   flushing whole batches into `TraceWriter::on_batch`;
//! * `replay_profile` vs `replay_profile_batched` — event-at-a-time
//!   dispatch vs `replay_batched_into` feeding the profiler's `on_batch`;
//! * `replay_profile_batched_par{2,4}` — the `--jobs N` pipeline:
//!   `decode_batches_par_with` + single-pass batch partitioning
//!   (`profile_batches_par_spec`), with `analysis_batched_par4_predecoded`
//!   isolating the sharded analysis from the decode.
//!
//! The batched paths are verified at setup to produce byte-identical
//! `.alct` bytes and a `DepProfile` equal to sequential `profile_events`,
//! so the timings compare equal work. Control events are broadcast to every shard, so sharding only
//! wins on memory-dominated traces — the per-shard counts printed above
//! the timings show both the balance of the address split and the
//! broadcast fraction that bounds the speedup.
//!
//! Set `ALCHEMIST_BENCH_QUICK=1` to run a single short iteration per
//! benchmark on one workload (the CI smoke mode: proves the harness still
//! compiles and runs without paying for stable statistics).

use alchemist_core::{
    profile_batches_par_spec, profile_events, profile_module, shard_batch_counts_spec,
    AlchemistProfiler, DepProfile, ProfileConfig, ShardSpec, ShardTuning,
};
use alchemist_trace::{decode_batches_par_with, MultiSink, TraceReader, TraceStats, TraceWriter};
use alchemist_vm::{
    CountingSink, Event, EventBatch, ExecConfig, Module, TraceSink, DEFAULT_BATCH_EVENTS,
};
use alchemist_workloads::Scale;
use criterion::{criterion_group, criterion_main, Criterion};

fn quick_mode() -> bool {
    std::env::var_os("ALCHEMIST_BENCH_QUICK").is_some()
}

fn record_bytes(w: &alchemist_workloads::Workload, batch_events: usize) -> (Vec<u8>, TraceStats) {
    let module = w.module();
    let cfg = ExecConfig {
        batch_events,
        ..w.exec_config(Scale::Tiny)
    };
    let mut writer = if module.uses_threads() {
        TraceWriter::new_v2(Vec::new(), Some(w.source))
    } else {
        TraceWriter::new(Vec::new(), Some(w.source))
    }
    .expect("header");
    let outcome = alchemist_vm::run(&module, &cfg, &mut writer).expect("runs");
    writer.finish(outcome.steps).expect("finish")
}

/// The `--jobs N` analysis: choose the partition, then profile through it.
fn profile_par(module: &Module, batches: &[EventBatch], steps: u64, jobs: usize) -> DepProfile {
    let spec = ShardSpec::for_batches(batches, jobs as u32);
    let (profile, _, _) = profile_batches_par_spec(
        module,
        batches,
        steps,
        ProfileConfig::default(),
        spec,
        ShardTuning::default(),
        None,
    )
    .expect("no shard panic");
    profile
}

fn bench_workload(c: &mut Criterion, name: &'static str) {
    let w = alchemist_workloads::by_name(name).expect("workload");
    let module = w.module();
    let cfg = w.exec_config(Scale::Tiny);
    let batched_cfg = ExecConfig {
        batch_events: DEFAULT_BATCH_EVENTS,
        ..w.exec_config(Scale::Tiny)
    };
    let (bytes, stats) = record_bytes(w, 0);
    // The batched pipeline must do identical work before its speed means
    // anything: identical bytes on record, equal profile on replay.
    let (batched_bytes, _) = record_bytes(w, DEFAULT_BATCH_EVENTS);
    assert_eq!(
        batched_bytes, bytes,
        "{name}: batched recording must be byte-identical"
    );
    println!(
        "{name}: trace is {} bytes for {} events ({:.2} bytes/event, {} chunks)",
        stats.bytes,
        stats.events,
        stats.bytes_per_event(),
        stats.chunks
    );
    let events: Vec<Event> = TraceReader::new(bytes.as_slice())
        .expect("header")
        .map(|e| e.expect("decode"))
        .collect();
    let (batches, summary) =
        decode_batches_par_with(TraceReader::new(bytes.as_slice()).expect("header"), 4, None)
            .expect("batch decode");
    {
        let (seq, ..) = profile_events(
            &module,
            events.iter().copied(),
            summary.total_steps,
            ProfileConfig::default(),
        );
        let bat = profile_par(&module, &batches, summary.total_steps, 4);
        assert_eq!(bat, seq, "{name}: batched sharded profile must be equal");
    }
    for jobs in [2usize, 4] {
        let counts =
            shard_batch_counts_spec(&batches, ShardSpec::for_batches(&batches, jobs as u32));
        let shares: Vec<String> = counts.iter().map(|n| n.to_string()).collect();
        println!(
            "{name}: memory events per shard at --jobs {jobs}: {}",
            shares.join(", ")
        );
    }

    let mut group = c.benchmark_group(name);
    if quick_mode() {
        group.sample_size(1);
    }
    group.bench_function("live_profile", |b| {
        b.iter(|| profile_module(&module, &cfg, ProfileConfig::default()).expect("runs"))
    });
    // Recording: per-event writer calls vs interpreter-side batching.
    group.bench_function("record", |b| {
        b.iter(|| {
            let mut writer = TraceWriter::new(Vec::new(), Some(w.source)).expect("header");
            let outcome = alchemist_vm::run(&module, &cfg, &mut writer).expect("runs");
            writer.finish(outcome.steps).expect("finish")
        })
    });
    group.bench_function("record_batched", |b| {
        b.iter(|| {
            let mut writer = TraceWriter::new(Vec::new(), Some(w.source)).expect("header");
            let outcome = alchemist_vm::run(&module, &batched_cfg, &mut writer).expect("runs");
            writer.finish(outcome.steps).expect("finish")
        })
    });
    // Sequential replay: stream the decode straight into one profiler,
    // event at a time vs one on_batch call per block.
    group.bench_function("replay_profile", |b| {
        b.iter(|| {
            let mut reader = TraceReader::new(bytes.as_slice()).expect("header");
            let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
            let summary = reader.replay_into(&mut prof).expect("replay");
            prof.into_profile(summary.total_steps)
        })
    });
    group.bench_function("replay_profile_batched", |b| {
        b.iter(|| {
            let mut reader = TraceReader::new(bytes.as_slice()).expect("header");
            let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
            let summary = reader
                .replay_batched_into(&mut prof, DEFAULT_BATCH_EVENTS)
                .expect("replay");
            prof.into_profile(summary.total_steps)
        })
    });
    // Parallel replay, full pipeline (what `replay --jobs N` runs): batch
    // decode + single-pass partitioning.
    for jobs in [2usize, 4] {
        group.bench_function(&format!("replay_profile_batched_par{jobs}"), |b| {
            b.iter(|| {
                let reader = TraceReader::new(bytes.as_slice()).expect("header");
                let (batches, summary) =
                    decode_batches_par_with(reader, jobs, None).expect("decode");
                profile_par(&module, &batches, summary.total_steps, jobs)
            })
        });
    }
    // Analysis-only parallel replay over pre-decoded input (isolates the
    // sharded-shadow speedup from the decode).
    group.bench_function("analysis_batched_par4_predecoded", |b| {
        b.iter(|| profile_par(&module, &batches, summary.total_steps, 4))
    });
    // Fan-out: the dynamic-dispatch case batching exists for. A MultiSink
    // holds `dyn TraceSink` consumers, so the per-event path pays three
    // virtual calls per event; the batched path pays three per *batch*
    // (what `replay --analysis profile,advise,stats` runs).
    group.bench_function("fanout3_per_event", |b| {
        b.iter(|| {
            let mut c1 = CountingSink::default();
            let mut c2 = CountingSink::default();
            let mut c3 = CountingSink::default();
            let mut fan = MultiSink::new();
            fan.push(&mut c1).push(&mut c2).push(&mut c3);
            for ev in &events {
                ev.dispatch(&mut fan);
            }
            drop(fan);
            (c1, c2, c3)
        })
    });
    group.bench_function("fanout3_batched", |b| {
        b.iter(|| {
            let mut c1 = CountingSink::default();
            let mut c2 = CountingSink::default();
            let mut c3 = CountingSink::default();
            let mut fan = MultiSink::new();
            fan.push(&mut c1).push(&mut c2).push(&mut c3);
            for batch in &batches {
                fan.on_batch(batch);
            }
            drop(fan);
            (c1, c2, c3)
        })
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_workload(c, "gzip-1.3.5");
    if !quick_mode() {
        bench_workload(c, "aes");
    }
}

criterion_group!(
    name = suite;
    config = Criterion::default().sample_size(10);
    targets = benches
);
criterion_main!(suite);
