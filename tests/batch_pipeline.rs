//! Batched pipeline parity: for every bundled workload, the batched paths
//! — batched live profiling (`ExecConfig::batch_events`), batched
//! recording through `TraceWriter::on_batch`, batched sequential replay
//! (`replay_batched_into`) and batched sharded replay
//! (`decode_batches_par_with` + `profile_batches_par_spec`) — must produce
//! byte-identical `.alct` files and `DepProfile`s **equal** (`==`) to the
//! per-event pipeline, and likewise for batched task extraction. This is
//! the determinism guarantee behind the `--batch-size` flag, enforced in
//! CI in release mode alongside the sharded-replay parity gate.

use alchemist_core::{
    profile_batches_par_spec, profile_events, profile_module, shard_batch_counts_spec,
    AlchemistProfiler, ProfileConfig, ShardSpec, ShardTuning,
};
use alchemist_parsim::{extract_tasks, extract_tasks_from_batches_par, ExtractConfig};
use alchemist_trace::{decode_batches_par_with, TraceReader, TraceWriter};
use alchemist_vm::{Event, EventBatch, ExecConfig, Module};
use alchemist_workloads::Scale;

/// Records one workload run into an in-memory trace, with the interpreter
/// batching events `batch_events` at a time (0 = per-event dispatch).
fn record_with(w: &alchemist_workloads::Workload, batch_events: usize) -> (Module, Vec<u8>, u64) {
    let module = w.module();
    let cfg = ExecConfig {
        batch_events,
        ..w.exec_config(Scale::Tiny)
    };
    // Threaded workloads carry non-main tids, which only the v2 format
    // encodes; single-threaded ones stay on v1 (pinned byte-identical).
    let mut writer = if module.uses_threads() {
        TraceWriter::new_v2(Vec::new(), Some(w.source))
    } else {
        TraceWriter::new(Vec::new(), Some(w.source))
    }
    .expect("header");
    let outcome = alchemist_vm::run(&module, &cfg, &mut writer)
        .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
    let (bytes, _) = writer.finish(outcome.steps).expect("finish");
    (module, bytes, outcome.steps)
}

#[test]
fn batched_recording_is_byte_identical_for_every_workload() {
    for w in alchemist_workloads::all() {
        let (_, per_event, _) = record_with(w, 0);
        for batch_events in [2usize, 1021, 4096] {
            let (_, batched, _) = record_with(w, batch_events);
            assert_eq!(
                batched, per_event,
                "{}: .alct bytes diverge at batch_events={batch_events}",
                w.name
            );
        }
    }
}

#[test]
fn batched_live_profile_equals_per_event_for_every_workload() {
    for w in alchemist_workloads::all() {
        let module = w.module();
        let (live, ..) = profile_module(
            &module,
            &w.exec_config(Scale::Tiny),
            ProfileConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
        for batch_events in [3usize, 4096] {
            let cfg = ExecConfig {
                batch_events,
                ..w.exec_config(Scale::Tiny)
            };
            let (batched, ..) = profile_module(&module, &cfg, ProfileConfig::default())
                .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
            assert_eq!(
                batched, live,
                "{}: batched live profile diverges at batch_events={batch_events}",
                w.name
            );
        }
    }
}

#[test]
fn batched_replay_paths_equal_per_event_for_every_workload() {
    for w in alchemist_workloads::all() {
        let (module, bytes, steps) = record_with(w, 4096);
        let (live, ..) = profile_module(
            &module,
            &w.exec_config(Scale::Tiny),
            ProfileConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));

        // Per-event replay baseline.
        let events: Vec<Event> = TraceReader::new(bytes.as_slice())
            .expect("header")
            .map(|e| e.expect("decode"))
            .collect();
        let (per_event, ..) = profile_events(
            &module,
            events.iter().copied(),
            steps,
            ProfileConfig::default(),
        );
        assert_eq!(per_event, live, "{}: per-event replay diverges", w.name);

        // Batched sequential replay: stream the reader into one profiler
        // via on_batch.
        for batch_size in [64usize, 4096] {
            let mut reader = TraceReader::new(bytes.as_slice()).expect("header");
            let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
            let summary = reader
                .replay_batched_into(&mut prof, batch_size)
                .expect("batched replay");
            assert_eq!(summary.events, events.len() as u64, "{}", w.name);
            let profile = prof.into_profile(summary.total_steps);
            assert_eq!(
                profile, live,
                "{}: batched sequential replay diverges at batch_size={batch_size}",
                w.name
            );
        }

        // Batched sharded replay: chunk-parallel decode into batches, then
        // single-pass partitioning across worker shards.
        let (batches, summary) =
            decode_batches_par_with(TraceReader::new(bytes.as_slice()).expect("header"), 4, None)
                .expect("batch decode");
        let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
        assert_eq!(flat, events, "{}: batch decode diverges", w.name);
        assert_eq!(summary.total_steps, steps, "{}", w.name);
        for jobs in [1u32, 2, 4, 7] {
            let spec = ShardSpec::for_batches(&batches, jobs);
            let (par, ..) = profile_batches_par_spec(
                &module,
                &batches,
                steps,
                ProfileConfig::default(),
                spec,
                ShardTuning::default(),
                None,
            )
            .expect("no shard panic");
            assert_eq!(
                par, live,
                "{}: batched sharded replay (jobs={jobs}) diverges",
                w.name
            );
        }
        // The batched shard split matches per-event ownership exactly.
        let spec = ShardSpec::for_batches(&batches, 4);
        let mut per_event = vec![0u64; 4];
        for ev in &events {
            if let Event::Read { addr, .. } | Event::Write { addr, .. } = *ev {
                per_event[spec.shard_of(addr) as usize] += 1;
            }
        }
        assert_eq!(
            shard_batch_counts_spec(&batches, spec),
            per_event,
            "{}",
            w.name
        );
    }
}

#[test]
fn batched_task_extraction_equals_live_for_parallel_workloads() {
    for w in alchemist_workloads::all() {
        let Some(spec) = &w.parallel else { continue };
        let (module, bytes, _) = record_with(w, 4096);
        let mut cfg = ExtractConfig::default();
        for head in w.resolve_targets(&module) {
            cfg = cfg.mark(head);
        }
        for v in spec.privatized {
            cfg = cfg.privatize(v);
        }
        let live = extract_tasks(&module, &w.exec_config(Scale::Tiny), cfg.clone())
            .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
        let (batches, summary) =
            decode_batches_par_with(TraceReader::new(bytes.as_slice()).expect("header"), 4, None)
                .expect("batch decode");
        for jobs in [1u32, 2, 4] {
            let par = extract_tasks_from_batches_par(
                &module,
                cfg.clone(),
                &batches,
                summary.total_steps,
                ShardSpec::for_batches(&batches, jobs),
                None,
            )
            .expect("no shard panic");
            assert_eq!(
                par, live,
                "{}: batched extraction (jobs={jobs}) diverges",
                w.name
            );
        }
    }
}

#[test]
fn rebatching_through_a_batching_sink_preserves_the_profile() {
    // Pathological granularity: replay delivered in large batches, then
    // re-batched down to tiny ones by a BatchingSink in front of the
    // profiler — the profile must not care.
    use alchemist_vm::BatchingSink;
    let w = alchemist_workloads::by_name("gzip-1.3.5").expect("workload");
    let (module, bytes, _) = record_with(w, 0);
    let (live, ..) = profile_module(
        &module,
        &w.exec_config(Scale::Tiny),
        ProfileConfig::default(),
    )
    .expect("runs");
    let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
    let mut rebatcher = BatchingSink::new(&mut prof, 5);
    let mut reader = TraceReader::new(bytes.as_slice()).expect("header");
    let mut batch = EventBatch::new();
    let mut total = 0u64;
    while reader.read_batch(&mut batch, 911).expect("decode") {
        total += batch.len() as u64;
        batch.dispatch_into(&mut rebatcher);
    }
    rebatcher.flush();
    drop(rebatcher);
    assert!(total > 0);
    let steps = reader.total_steps().expect("footer");
    assert_eq!(prof.into_profile(steps), live);
}
