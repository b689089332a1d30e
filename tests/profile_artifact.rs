//! The profile-artifact headline invariant, pinned for every bundled
//! workload:
//!
//! * live instrumentation == sequential replay == `--jobs 4` sharded
//!   replay, and a `.alcp` artifact of any of them encodes to the same
//!   bytes;
//! * a `profile merge` of per-run artifacts equals — profile **and**
//!   bytes — the artifact of the directly aggregated run;
//! * artifacts round-trip byte-identically through save -> load -> save.
//!
//! A property test extends the merge claim to arbitrary event streams: an
//! input stream split at arbitrary run boundaries, profiled per segment,
//! merges to the aggregated profile under any rotation and either fold
//! direction (the [`PartialProfile`] order-independence guarantee).

use alchemist_core::{
    profile_batches_par_spec, profile_events, profile_many, profile_module, PartialProfile,
    ProfileConfig, ShardSpec, ShardTuning,
};
use alchemist_trace::{decode_batches_par_with, ProfileArtifact, TraceReader, TraceWriter};
use alchemist_vm::{compile_source, Event, ExecConfig};
use alchemist_workloads::Scale;
use proptest::prelude::*;

/// Records one workload run into an in-memory `.alct` trace.
fn record(w: &alchemist_workloads::Workload) -> (alchemist_vm::Module, Vec<u8>, u64) {
    let module = w.module();
    let mut writer = if module.uses_threads() {
        TraceWriter::new_v2(Vec::new(), Some(w.source))
    } else {
        TraceWriter::new(Vec::new(), Some(w.source))
    }
    .expect("header");
    let outcome = alchemist_vm::run(&module, &w.exec_config(Scale::Tiny), &mut writer)
        .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
    let (bytes, _) = writer.finish(outcome.steps).expect("finish");
    (module, bytes, outcome.steps)
}

#[test]
fn live_seq_and_sharded_replay_yield_the_same_artifact_bytes_for_every_workload() {
    for w in alchemist_workloads::all() {
        let (module, trace, steps) = record(w);
        let (live, ..) = profile_module(
            &module,
            &w.exec_config(Scale::Tiny),
            ProfileConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
        let events: Vec<Event> = TraceReader::new(trace.as_slice())
            .expect("header")
            .map(|e| e.expect("decode"))
            .collect();
        let (seq, ..) = profile_events(
            &module,
            events.iter().copied(),
            steps,
            ProfileConfig::default(),
        );
        let (batches, _) =
            decode_batches_par_with(TraceReader::new(trace.as_slice()).expect("header"), 4, None)
                .expect("parallel decode");
        let (par, ..) = profile_batches_par_spec(
            &module,
            &batches,
            steps,
            ProfileConfig::default(),
            ShardSpec::for_batches(&batches, 4),
            ShardTuning::default(),
            None,
        )
        .expect("no shard panic");
        assert_eq!(seq, live, "{}: seq replay diverges from live", w.name);
        assert_eq!(par, live, "{}: jobs-4 replay diverges from live", w.name);

        // All three encode to the same canonical artifact — modulo the
        // shadow-layout telemetry, which describes the profiling machinery
        // rather than the program (a sharded replay allocates pages per
        // shard) and is excluded from semantic equality for the same
        // reason. Normalizing it makes the byte claim exact.
        let normalize = |mut p: alchemist_core::DepProfile| {
            p.shadow_stats = Default::default();
            ProfileArtifact::new(p).with_source(w.source)
        };
        let artifact = normalize(live);
        let bytes = artifact.to_bytes();
        assert_eq!(
            normalize(seq).to_bytes(),
            bytes,
            "{}: seq artifact bytes diverge",
            w.name
        );
        assert_eq!(
            normalize(par).to_bytes(),
            bytes,
            "{}: par artifact bytes diverge",
            w.name
        );
        let decoded = ProfileArtifact::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{}: decode failed: {e}", w.name));
        assert_eq!(decoded, artifact, "{}: lossy round trip", w.name);
        assert_eq!(decoded.to_bytes(), bytes, "{}: non-canonical", w.name);
    }
}

#[test]
fn merged_per_run_artifacts_equal_the_aggregated_run_for_every_workload() {
    for w in alchemist_workloads::all() {
        let module = w.module();
        let input = w.input(Scale::Tiny);
        let cfg = ProfileConfig::default();
        // Two runs on the same input (the suite is deterministic, so this
        // also holds for the threaded workloads), saved as two artifacts.
        let run = || {
            let (p, ..) =
                profile_module(&module, &ExecConfig::with_input(input.clone()), cfg.clone())
                    .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
            ProfileArtifact::new(p).with_source(w.source)
        };
        let mut merged = run();
        merged
            .merge(run(), None)
            .unwrap_or_else(|e| panic!("{}: merge failed: {e}", w.name));
        // The reference: profile the aggregated pair of runs directly.
        let (agg, _) = profile_many(&module, &[input.clone(), input.clone()], cfg)
            .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
        let direct = ProfileArtifact::new(agg).with_source(w.source);
        assert_eq!(
            merged.profile, direct.profile,
            "{}: merged != aggregated",
            w.name
        );
        assert_eq!(
            merged.to_bytes(),
            direct.to_bytes(),
            "{}: merged artifact bytes != direct aggregate's",
            w.name
        );
    }
}

/// Input-sensitive program for the property test: the dependence set
/// genuinely depends on which segment of the stream a run sees.
const INPUT_SENSITIVE: &str = "
    int flag;
    int sink;
    void scan(int i) {
        if (input(i) > 100) flag = i;
    }
    int main() {
        int i;
        int n = input_len();
        for (i = 0; i < n; i++) scan(i);
        sink = flag;
        return sink;
    }";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An event stream split at arbitrary run boundaries, profiled per
    /// segment, merges to the directly aggregated profile under any
    /// rotation of the merge order and either fold grouping.
    #[test]
    fn per_run_partials_merge_order_independently(
        data in proptest::collection::vec(-50i64..300, 1..40),
        cuts in proptest::collection::vec(0usize..1 << 20, 0..4),
        rot in 0usize..1 << 20,
    ) {
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % data.len()).collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut segments: Vec<Vec<i64>> = Vec::new();
        let mut prev = 0;
        for b in bounds {
            if b > prev {
                segments.push(data[prev..b].to_vec());
                prev = b;
            }
        }
        segments.push(data[prev..].to_vec());

        let module = compile_source(INPUT_SENSITIVE).expect("fixed program compiles");
        let cfg = ProfileConfig::default();
        let partials: Vec<PartialProfile> = segments
            .iter()
            .map(|seg| {
                let (p, ..) =
                    profile_module(&module, &ExecConfig::with_input(seg.clone()), cfg.clone())
                        .expect("no traps");
                PartialProfile::from(p)
            })
            .collect();
        let (agg, _) = profile_many(&module, &segments, cfg).expect("no traps");
        let reference = ProfileArtifact::new(agg).to_bytes();

        // Left fold, starting from the empty identity, in rotated order.
        let r = rot % partials.len();
        let mut left = PartialProfile::new();
        for i in 0..partials.len() {
            left.merge(&partials[(i + r) % partials.len()]);
        }
        prop_assert_eq!(
            ProfileArtifact::new(left.seal()).to_bytes(),
            reference.clone(),
            "rotated left fold diverges"
        );

        // Right fold: a · (b · (c · empty)).
        let mut right = PartialProfile::new();
        for p in partials.iter().rev() {
            let mut acc = p.clone();
            acc.merge(&right);
            right = acc;
        }
        prop_assert_eq!(
            ProfileArtifact::new(right.seal()).to_bytes(),
            reference,
            "right fold diverges"
        );
    }
}
