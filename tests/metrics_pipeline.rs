//! Metrics parity across execution modes: the observability layer must
//! *describe* the pipeline without perturbing it, so for every bundled
//! workload the counter totals have to line up between live instrumentation,
//! sequential (streaming) replay and sharded `--jobs 4` replay — the same
//! three-way determinism guarantee `tests/par_replay.rs` pins for the
//! profiles themselves, lifted to the metrics. Also pins that a fully
//! populated report survives the JSON round trip bit-for-bit.

use alchemist_core::{
    profile_batches_par_spec, ProfileConfig, ShardSpec, ShardTuning, PAGE_SHIFT, SHARD_FLUSH_EVENTS,
};
use alchemist_obs::{Counter, Hist, Metrics, MetricsReport, Stage, SCHEMA_VERSION};
use alchemist_trace::{decode_batches_par_with, TraceReader, TraceWriter};
use alchemist_vm::{run_with_metrics, Event, EventBatch, Module, DEFAULT_BATCH_EVENTS};
use alchemist_workloads::Scale;
use std::sync::Arc;

/// Records one workload run into an in-memory trace with live metrics
/// attached to both the interpreter and the writer.
fn record_live(w: &alchemist_workloads::Workload) -> (Module, Vec<u8>, u64, Arc<Metrics>) {
    let module = w.module();
    let live = Arc::new(Metrics::new());
    let mut writer = if module.uses_threads() {
        TraceWriter::new_v2(Vec::new(), Some(w.source))
    } else {
        TraceWriter::new(Vec::new(), Some(w.source))
    }
    .expect("header")
    .with_metrics(Arc::clone(&live));
    let outcome = run_with_metrics(
        &module,
        &w.exec_config(Scale::Tiny),
        &mut writer,
        Some(&live),
    )
    .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
    let (bytes, _) = writer.finish(outcome.steps).expect("finish");
    (module, bytes, outcome.steps, live)
}

#[test]
fn counter_totals_agree_across_live_seq_and_par_replay() {
    for w in alchemist_workloads::all() {
        let (module, bytes, steps, live) = record_live(w);

        // Sequential streaming replay: reader-side decode counters, with
        // the profile produced by the ordinary jobs=1 batched path.
        let seq = Arc::new(Metrics::new());
        let mut reader = TraceReader::new(bytes.as_slice())
            .expect("header")
            .with_metrics(Arc::clone(&seq));
        let mut rec = alchemist_vm::RecordingSink::default();
        reader
            .replay_batched_into(&mut rec, DEFAULT_BATCH_EVENTS)
            .expect("seq replay");
        let seq_batches = vec![alchemist_vm::EventBatch::from_events(&rec.events)];
        let (seq_profile, _, _) = profile_batches_par_spec(
            &module,
            &seq_batches,
            steps,
            ProfileConfig::default(),
            ShardSpec::for_batches(&seq_batches, 1),
            ShardTuning::default(),
            Some(&seq),
        )
        .expect("no shard panic");

        // Sharded replay: chunk-parallel decode, 4 address shards.
        let par = Arc::new(Metrics::new());
        let (batches, summary) = decode_batches_par_with(
            TraceReader::new(bytes.as_slice()).expect("header"),
            4,
            Some(&par),
        )
        .expect("par decode");
        let (par_profile, _, _) = profile_batches_par_spec(
            &module,
            &batches,
            summary.total_steps,
            ProfileConfig::default(),
            ShardSpec::for_batches(&batches, 4),
            ShardTuning::default(),
            Some(&par),
        )
        .expect("no shard panic");
        assert_eq!(par_profile, seq_profile, "{}: profiles diverge", w.name);

        // Events: what the VM emitted is what the writer encoded is what
        // both replay modes decoded and profiled.
        let events = live.get(Counter::VmEvents);
        assert!(events > 0, "{}", w.name);
        for (label, got) in [
            (
                "trace.events_written",
                live.get(Counter::TraceEventsWritten),
            ),
            (
                "seq trace.events_decoded",
                seq.get(Counter::TraceEventsDecoded),
            ),
            ("seq profile.events", seq.get(Counter::ProfileEvents)),
            (
                "par trace.events_decoded",
                par.get(Counter::TraceEventsDecoded),
            ),
            ("par profile.events", par.get(Counter::ProfileEvents)),
        ] {
            assert_eq!(got, events, "{}: {label}", w.name);
        }

        // Chunks: every chunk written is decoded exactly once per replay.
        let chunks = live.get(Counter::TraceChunksWritten);
        assert!(chunks > 0, "{}", w.name);
        assert_eq!(seq.get(Counter::TraceChunksDecoded), chunks, "{}", w.name);
        assert_eq!(par.get(Counter::TraceChunksDecoded), chunks, "{}", w.name);

        // Dependences: the merged shard profile detects exactly the
        // sequential run's dependences, and the counter reflects it.
        let deps = seq_profile.intra_thread_deps + seq_profile.cross_thread_deps;
        assert_eq!(seq.get(Counter::ProfileDeps), deps, "{}", w.name);
        assert_eq!(par.get(Counter::ProfileDeps), deps, "{}", w.name);

        // Shard rows: 4 rows whose memory events partition the stream's.
        let shards = par.shards();
        assert_eq!(shards.len(), 4, "{}", w.name);
        let mem_total: u64 = shards.iter().map(|s| s.mem_events).sum();
        let seq_mem: u64 = seq_batches[0]
            .tags()
            .iter()
            .filter(|t| t.is_memory())
            .count() as u64;
        assert_eq!(mem_total, seq_mem, "{}: memory rows partition", w.name);

        // Threaded workloads surface scheduler rows; the rest stay on the
        // main thread only.
        let sched = live.sched();
        if module.uses_threads() {
            assert!(sched.len() > 1, "{}: expected multiple tids", w.name);
        } else {
            assert_eq!(sched.len(), 1, "{}", w.name);
            assert_eq!(sched[0].0, 0, "{}", w.name);
        }
    }
}

/// Four counter+array pairs laid out so pair `k` fills shadow page `k`
/// exactly (`ck` at word `k * 4096`, its array filling the rest of the
/// page), with every loop driven by the global counter itself — no frame
/// locals, so no hot off-page words to skew the balance. Each page sees
/// identical traffic, which is exactly the stream the page-granular
/// partition is supposed to keep.
const PAGE_BALANCED: &str = "
int c0; int a0[4095];
int c1; int a1[4095];
int c2; int a2[4095];
int c3; int a3[4095];
int main() {
    for (c0 = 0; c0 < 1024; c0++) a0[c0 & 1023] = c0;
    for (c1 = 0; c1 < 1024; c1++) a1[c1 & 1023] = c1;
    for (c2 = 0; c2 < 1024; c2++) a2[c2 & 1023] = c2;
    for (c3 = 0; c3 < 1024; c3++) a3[c3 & 1023] = c3;
    return c0 + c1 + c2 + c3;
}
";

/// The page-owning partition's reason to exist: each shadow page faults in
/// on exactly **one** shard, so the per-shard `pages_allocated` rows sum
/// to the sequential page count instead of the old `addr % jobs` scheme's
/// jobs-times-everything.
#[test]
fn page_partition_does_not_duplicate_shadow_pages() {
    let module = alchemist_vm::compile_source(PAGE_BALANCED).expect("compiles");
    let mut rec = alchemist_vm::RecordingSink::default();
    let out =
        alchemist_vm::run(&module, &alchemist_vm::ExecConfig::default(), &mut rec).expect("runs");
    let batches = vec![EventBatch::from_events(&rec.events)];

    let spec = ShardSpec::for_batches(&batches, 4);
    assert_eq!(
        spec.shift(),
        PAGE_SHIFT,
        "balanced per-page traffic must keep the page-granular partition"
    );

    let seq_pages: std::collections::HashSet<u32> = rec
        .events
        .iter()
        .filter_map(|e| match *e {
            Event::Read { addr, .. } | Event::Write { addr, .. } => Some(addr >> PAGE_SHIFT),
            _ => None,
        })
        .collect();
    assert_eq!(seq_pages.len(), 4, "the program touches its four pages");

    let m = Metrics::new();
    let (par, _, _) = profile_batches_par_spec(
        &module,
        &batches,
        out.steps,
        ProfileConfig::default(),
        spec,
        ShardTuning::default(),
        Some(&m),
    )
    .expect("no shard panic");
    let (seq, _, _) = profile_batches_par_spec(
        &module,
        &batches,
        out.steps,
        ProfileConfig::default(),
        ShardSpec::for_batches(&batches, 1),
        ShardTuning::default(),
        None,
    )
    .expect("no shard panic");
    assert_eq!(par, seq, "parity is not negotiable");

    let shards = m.shards();
    assert_eq!(shards.len(), 4);
    let pages_sum: u64 = shards.iter().map(|s| s.pages_allocated).sum();
    assert_eq!(
        pages_sum,
        seq_pages.len() as u64,
        "page-owning shards fault each shadow page exactly once (no jobs-fold duplication)"
    );
    for s in &shards {
        assert_eq!(
            s.pages_allocated, 1,
            "shard {} owns exactly one page",
            s.shard
        );
    }
}

/// The handoff property the pooled sender guarantees on any machine: rows
/// coalesce into sub-batches around `SHARD_FLUSH_EVENTS` before crossing
/// the channel, so the send count stays near `rows / flush` instead of one
/// send per (input batch, shard) pair. On 2+ CPUs the wait rows must also
/// show the workers spending more time profiling than starving on the
/// channel — the "sender is no longer the bottleneck" criterion; a lone
/// CPU interleaves everything, making wait times scheduling artifacts, so
/// that half is gated.
#[test]
fn handoff_sends_fat_sub_batches_and_workers_stay_busy() {
    let w = alchemist_workloads::by_name("ogg").expect("bundled");
    let (module, bytes, steps, _) = record_live(w);
    let m = Metrics::new();
    let (batches, summary) =
        decode_batches_par_with(TraceReader::new(bytes.as_slice()).expect("header"), 4, None)
            .expect("decode");
    assert_eq!(summary.total_steps, steps);
    let spec = ShardSpec::for_batches(&batches, 4);
    let (_, _, _) = profile_batches_par_spec(
        &module,
        &batches,
        summary.total_steps,
        ProfileConfig::default(),
        spec,
        ShardTuning::default(),
        Some(&m),
    )
    .expect("no shard panic");

    let jobs = 4u64;
    let total: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let mem: u64 = batches
        .iter()
        .flat_map(|b| b.tags())
        .filter(|t| t.is_memory())
        .count() as u64;
    // Control events are broadcast to every shard; memory events are owned.
    let delivered = mem + jobs * (total - mem);
    let sent = m.get(Counter::ShardSubBatchesSent);
    assert!(sent >= 1, "the sender sent something");
    assert!(
        sent <= delivered / SHARD_FLUSH_EVENTS as u64 + jobs,
        "sub-batches must flush at >= {SHARD_FLUSH_EVENTS} rows: \
         {sent} sends for {delivered} delivered rows"
    );
    assert!(
        delivered / sent >= SHARD_FLUSH_EVENTS as u64 / 2,
        "average sub-batch payload collapsed: {} rows/send",
        delivered / sent
    );

    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        let shards = m.shards();
        let recv_wait: u64 = shards.iter().map(|s| s.recv_wait_ns).sum();
        let send_wait: u64 = shards.iter().map(|s| s.send_wait_ns).sum();
        let busy: u64 = shards.iter().map(|s| s.busy_ns).sum();
        assert!(
            recv_wait < busy,
            "workers starve on the handoff: {recv_wait} ns waiting vs {busy} ns busy"
        );
        assert!(
            send_wait + recv_wait < busy,
            "the handoff dominates the pipeline: {send_wait}+{recv_wait} ns \
             waiting vs {busy} ns busy"
        );
    }
}

#[test]
fn populated_report_round_trips_through_json() {
    // Build a report off a real sharded replay so every section is
    // populated, then require a lossless (and byte-identical) round trip.
    let w = &alchemist_workloads::all()[0];
    let (module, bytes, steps, _) = record_live(w);
    let m = Metrics::new();
    let (batches, _) = decode_batches_par_with(
        TraceReader::new(bytes.as_slice()).expect("header"),
        4,
        Some(&m),
    )
    .expect("decode");
    profile_batches_par_spec(
        &module,
        &batches,
        steps,
        ProfileConfig::default(),
        ShardSpec::for_batches(&batches, 4),
        ShardTuning::default(),
        Some(&m),
    )
    .expect("no shard panic");
    let report = m.report("replay");
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    assert!(report.shards.len() == 4);
    assert!(m.stage(Stage::Decode).0 > 0);

    let json = report.to_json();
    let back = MetricsReport::from_json(&json).expect("parse");
    assert_eq!(back, report);
    assert_eq!(back.to_json(), json, "re-serialization is byte-identical");
}

#[test]
fn sequential_replay_times_every_decoded_chunk() {
    for w in alchemist_workloads::all() {
        let (_, bytes, steps, _) = record_live(w);
        let m = Arc::new(Metrics::new());
        let mut reader = TraceReader::new(bytes.as_slice())
            .expect("header")
            .with_metrics(Arc::clone(&m));
        let summary = reader
            .replay_batched_into(&mut alchemist_vm::NullSink, DEFAULT_BATCH_EVENTS)
            .expect("seq replay");
        assert_eq!(summary.total_steps, steps, "{}", w.name);
        let chunks = m.get(Counter::TraceChunksDecoded);
        assert!(chunks > 0, "{}: no chunk decoded", w.name);
        let (count, total_ns) = m.hist_totals(Hist::DecodeChunkNs);
        assert_eq!(count, chunks, "{}: one decode time per chunk", w.name);
        assert!(total_ns > 0, "{}", w.name);
        assert_eq!(
            m.get(Counter::TraceEventsDecoded),
            summary.events,
            "{}",
            w.name
        );
    }
}
