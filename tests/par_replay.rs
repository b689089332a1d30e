//! Sharded parallel replay parity: for every bundled workload, replaying a
//! recorded trace through N address shards on worker threads must produce a
//! `DepProfile` **equal** (`==`) to both the sequential replay and live
//! instrumentation — and likewise for sharded task extraction. This is the
//! determinism guarantee behind `replay --jobs N`, enforced in CI in
//! release mode.

use alchemist_core::{
    partition_batch, profile_batches_par_spec, profile_events, profile_module,
    shard_batch_counts_spec, DepProfile, ProfileConfig, ShardSpec, ShardTuning, PAGE_SHIFT,
};
use alchemist_parsim::{extract_tasks, extract_tasks_from_batches_par, ExtractConfig};
use alchemist_trace::{decode_batches_par_with, ReplaySummary, TraceReader, TraceWriter};
use alchemist_vm::{Event, EventBatch, Module};
use alchemist_workloads::Scale;

/// Records one workload run at `scale` into an in-memory trace.
fn record_at(w: &alchemist_workloads::Workload, scale: Scale) -> (Module, Vec<u8>, u64) {
    let module = w.module();
    // Threaded workloads need the v2 tid column; the paper's eight stay
    // on v1 so their byte-level format is untouched.
    let mut writer = if module.uses_threads() {
        TraceWriter::new_v2(Vec::new(), Some(w.source))
    } else {
        TraceWriter::new(Vec::new(), Some(w.source))
    }
    .expect("header");
    let outcome = alchemist_vm::run(&module, &w.exec_config(scale), &mut writer)
        .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
    let (bytes, _) = writer.finish(outcome.steps).expect("finish");
    (module, bytes, outcome.steps)
}

/// Records one workload run into an in-memory trace.
fn record(w: &alchemist_workloads::Workload) -> (Module, Vec<u8>, u64) {
    record_at(w, Scale::Tiny)
}

/// Chunk-parallel decode of a whole in-memory trace on 4 workers.
fn decode(bytes: &[u8]) -> (Vec<EventBatch>, ReplaySummary) {
    decode_batches_par_with(TraceReader::new(bytes).expect("header"), 4, None)
        .expect("parallel decode")
}

/// Sharded replay across `jobs` workers under the chooser's partition.
fn profile_par(module: &Module, batches: &[EventBatch], steps: u64, jobs: u32) -> DepProfile {
    let spec = ShardSpec::for_batches(batches, jobs);
    let (profile, ..) = profile_batches_par_spec(
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

#[test]
fn parallel_replay_profile_equals_sequential_and_live_for_every_workload() {
    for w in alchemist_workloads::all() {
        let (module, bytes, steps) = record(w);
        // Live: instrument the interpreter directly.
        let (live, ..) = profile_module(
            &module,
            &w.exec_config(Scale::Tiny),
            ProfileConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
        // Chunk-parallel decode must reproduce the recorded stream.
        let reader = TraceReader::new(bytes.as_slice()).expect("header");
        let expected_version = if module.uses_threads() { 2 } else { 1 };
        assert_eq!(
            reader.version(),
            expected_version,
            "{}: wrong .alct format version",
            w.name
        );
        let seq_events: Vec<Event> = reader.map(|e| e.expect("decode")).collect();
        let (batches, summary) = decode(&bytes);
        let events: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
        assert_eq!(events, seq_events, "{}: parallel decode diverges", w.name);
        assert_eq!(summary.total_steps, steps, "{}", w.name);
        // Sequential replay equals live.
        let (seq, ..) = profile_events(
            &module,
            events.iter().copied(),
            steps,
            ProfileConfig::default(),
        );
        assert_eq!(
            seq, live,
            "{}: sequential replay diverges from live",
            w.name
        );
        // Sharded replay equals both, for several worker counts.
        for jobs in [2u32, 4, 7] {
            let par = profile_par(&module, &batches, steps, jobs);
            assert_eq!(
                par, live,
                "{}: parallel replay (jobs={jobs}) diverges from live",
                w.name
            );
        }
        // The shard split covers every memory event exactly once.
        let counts = shard_batch_counts_spec(&batches, ShardSpec::for_batches(&batches, 4));
        let mem: u64 = events
            .iter()
            .filter(|e| matches!(e, Event::Read { .. } | Event::Write { .. }))
            .count() as u64;
        assert_eq!(counts.iter().sum::<u64>(), mem, "{}", w.name);
    }
}

/// The partition property behind merge determinism: a shard owns
/// **addresses** (whole block-cyclic blocks of them), so every memory
/// event on an address — the address's entire access stream, in recorded
/// order — lands in exactly one shard, and control events reach all of
/// them. This holds for the page-granular partition and for every finer
/// stride the balance ladder can fall back to.
#[test]
fn partition_routes_every_address_stream_to_exactly_one_shard() {
    for w in alchemist_workloads::all() {
        let (_, bytes, _) = record(w);
        let (batches, _) = decode(&bytes);
        let chosen = ShardSpec::for_batches(&batches, 4);
        let page_granular = ShardSpec::with_shift(4, PAGE_SHIFT);
        for spec in [chosen, page_granular] {
            let mut owner: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
            for batch in &batches {
                let shards = partition_batch(batch, spec);
                assert_eq!(shards.len(), 4, "{}", w.name);
                let controls: Vec<Event> = batch
                    .iter()
                    .filter(|e| !matches!(e, Event::Read { .. } | Event::Write { .. }))
                    .collect();
                let mut mem_total = 0;
                for (k, shard) in shards.iter().enumerate() {
                    let mut expected = Vec::new();
                    for ev in batch.iter() {
                        match ev {
                            Event::Read { addr, .. } | Event::Write { addr, .. } => {
                                let home = spec.shard_of(addr);
                                let prev = owner.insert(addr, home);
                                assert_eq!(
                                    prev.unwrap_or(home),
                                    home,
                                    "{}: address {addr} changed shards mid-stream",
                                    w.name
                                );
                                if home == k as u32 {
                                    expected.push(ev);
                                }
                            }
                            other => expected.push(other),
                        }
                    }
                    let got: Vec<Event> = shard.iter().collect();
                    assert_eq!(got, expected, "{}: shard {k} stream diverges", w.name);
                    mem_total += got
                        .iter()
                        .filter(|e| matches!(e, Event::Read { .. } | Event::Write { .. }))
                        .count();
                    // Control events broadcast: each shard holds all of them.
                    let shard_controls: Vec<Event> = got
                        .iter()
                        .copied()
                        .filter(|e| !matches!(e, Event::Read { .. } | Event::Write { .. }))
                        .collect();
                    assert_eq!(shard_controls, controls, "{}: shard {k}", w.name);
                }
                let batch_mem = batch
                    .iter()
                    .filter(|e| matches!(e, Event::Read { .. } | Event::Write { .. }))
                    .count();
                assert_eq!(
                    mem_total, batch_mem,
                    "{}: memory events lost or duplicated",
                    w.name
                );
            }
        }
    }
}

/// Parity must survive scaling: the partition chooser samples the stream
/// and may land on a different stride at a different size, and bigger
/// inputs shift frame locals and thread-stack pages around — none of
/// which may leak into the merged profile. Small keeps the whole-suite
/// sweep affordable; the Huge regime is covered by the perf harness.
#[test]
fn parity_holds_across_scales_and_job_counts() {
    for w in alchemist_workloads::all() {
        for scale in [Scale::Small, Scale::Default] {
            let (module, bytes, _) = record_at(w, scale);
            let (live, ..) =
                profile_module(&module, &w.exec_config(scale), ProfileConfig::default())
                    .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
            let (batches, summary) = decode(&bytes);
            for jobs in [2u32, 3, 5] {
                let par = profile_par(&module, &batches, summary.total_steps, jobs);
                assert_eq!(
                    par,
                    live,
                    "{}: parallel replay (jobs={jobs}, scale={}) diverges from live",
                    w.name,
                    scale.name()
                );
            }
        }
    }
}

#[test]
fn parallel_task_extraction_equals_live_for_parallel_workloads() {
    for w in alchemist_workloads::all() {
        let Some(spec) = &w.parallel else { continue };
        let (module, bytes, _) = record(w);
        let mut cfg = ExtractConfig::default();
        for head in w.resolve_targets(&module) {
            cfg = cfg.mark(head);
        }
        for v in spec.privatized {
            cfg = cfg.privatize(v);
        }
        let live = extract_tasks(&module, &w.exec_config(Scale::Tiny), cfg.clone())
            .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
        let (batches, summary) = decode(&bytes);
        for jobs in [2u32, 4] {
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
                "{}: sharded extraction (jobs={jobs}) diverges",
                w.name
            );
        }
    }
}
