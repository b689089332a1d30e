//! Seeded workload definitions and the set-up every run starts with.
//!
//! A workload is a bundled program plus generated input: the benchmark
//! clones the suite's [`Workload`], overrides `seed` (and `base_input`
//! where the workload scales it) and hands the program only the
//! generated input. Set-up compiles the module, generates the input,
//! records the set-up trace and computes the reference profile every
//! measured pass is compared against.

use crate::paths;
use crate::span::Tracer;
use crate::Checks;
use alchemist_core::oracle::oracle_profile;
use alchemist_core::{AlchemistProfiler, DepProfile, ProfileConfig};
use alchemist_vm::{ExecConfig, ExecOutcome, Module, RecordingSink};
use alchemist_workloads::{Scale, Workload};
use std::hash::Hasher;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Which end-to-end path a workload measures. The live path
/// (`run --profile-out`) has no workload of its own: its throughput swings
/// up to 2x with the load other tenants put on a shared host, too far for
/// a run-to-run bound. The ladder still times it on every stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `record` then `replay` of threaded producer_consumer, input 16x Huge.
    RecordReplay,
    /// `replay --jobs 2` of a bzip2 `Scale::Huge` trace recorded in set-up.
    ReplayJobs2,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::RecordReplay, Kind::ReplayJobs2];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RecordReplay => "record-replay",
            Kind::ReplayJobs2 => "replay-jobs2",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The bundled program this workload runs.
    fn program(self) -> &'static str {
        match self {
            Kind::ReplayJobs2 => "bzip2",
            Kind::RecordReplay => "producer_consumer",
        }
    }

    /// Multiplier on the suite's `base_input` (applied before `Scale`).
    fn input_factor(self) -> usize {
        match self {
            Kind::ReplayJobs2 => 1,
            Kind::RecordReplay => 16,
        }
    }

    /// The suite workload with the benchmark's seed and input size
    /// applied; `None` keeps the suite's own seed.
    pub fn workload(self, seed: Option<u64>) -> Workload {
        let base = alchemist_workloads::by_name(self.program())
            .expect("the benchmark's programs are bundled workloads");
        let mut w = base.clone();
        w.seed = seed.unwrap_or(base.seed);
        w.base_input = base.base_input * self.input_factor();
        w
    }
}

pub const SCALE: Scale = Scale::Huge;

/// Everything a measured pass needs, built once per set-up.
pub struct Setup {
    pub workload: Workload,
    pub module: Module,
    pub input: Vec<i64>,
    /// The run every pass must reproduce (steps, output, exit value).
    pub outcome: ExecOutcome,
    /// The reference profile every measured profile must equal.
    pub reference: DepProfile,
    /// The set-up trace: recorded once, replayed by the measured passes
    /// of `replay-jobs2`, and the byte reference for `record-replay`.
    pub trace: PathBuf,
    pub trace_bytes: u64,
    pub trace_hash: u64,
    pub events: u64,
}

/// Hash of a file's bytes, to compare recordings without keeping them.
pub fn file_hash(path: &Path) -> std::io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match file.read(&mut buf)? {
            0 => return Ok(h.finish()),
            n => h.write(&buf[..n]),
        }
    }
}

/// Sets up `kind`: compile, generate input, record the set-up trace to
/// `trace`, and compute the reference profile — sequential replay of the
/// set-up trace for `replay-jobs2`, a live run for
/// `record-replay`. Also checks the online profiler against the
/// brute-force oracle on the same program and seed at `Scale::Tiny`.
///
/// Errors are for failures that leave nothing to measure; mismatches go
/// to `checks`.
pub fn setup(
    kind: Kind,
    seed: Option<u64>,
    trace: &Path,
    checks: &mut Checks,
) -> Result<Setup, String> {
    let mut off = Tracer::new(false);
    let workload = kind.workload(seed);
    let module = alchemist_vm::compile_source(workload.source)
        .map_err(|e| format!("{} does not compile: {e}", workload.name))?;
    let input = workload.input(SCALE);
    let (outcome, stats) = paths::record(&mut off, &module, workload.source, &input, trace)?;
    let reference = match kind {
        Kind::ReplayJobs2 => {
            let (summary, profile) = paths::replay(&mut off, trace)?;
            let same = summary.events == stats.events && summary.total_steps == outcome.steps;
            checks.check(same, || "set-up replay diverged from the recording".into());
            profile
        }
        Kind::RecordReplay => {
            let (out, profile) = paths::live(&mut off, &module, &input)?;
            checks.check(same_run(&out, &outcome), || {
                "live run diverged from the recorded run".into()
            });
            profile
        }
    };
    oracle_check(&workload, checks);
    let trace_hash =
        file_hash(trace).map_err(|e| format!("cannot read {}: {e}", trace.display()))?;
    Ok(Setup {
        workload,
        module,
        input,
        outcome,
        reference,
        trace: trace.to_path_buf(),
        trace_bytes: stats.bytes,
        trace_hash,
        events: stats.events,
    })
}

pub fn same_run(a: &ExecOutcome, b: &ExecOutcome) -> bool {
    a.steps == b.steps && a.exit_value == b.exit_value && a.output == b.output
}

/// The online profiler under a generous pool and reader cap must equal
/// [`oracle_profile`] exactly, on the workload's program and seed at
/// `Scale::Tiny` (the equivalence `tests/oracle_equivalence.rs` asserts
/// on generated programs).
fn oracle_check(w: &Workload, checks: &mut Checks) {
    let module = w.module();
    let exec = ExecConfig::with_input(w.input(Scale::Tiny));
    let mut rec = RecordingSink::default();
    let out = match alchemist_vm::run(&module, &exec, &mut rec) {
        Ok(out) => out,
        Err(e) => return checks.fail(format!("oracle run trapped: {e}")),
    };
    let oracle = oracle_profile(&module, &rec.events, out.steps);
    let config = ProfileConfig {
        pool_capacity: 1_000_000,
        reader_cap: 4096,
        ..ProfileConfig::default()
    };
    let mut prof = AlchemistProfiler::new(&module, config);
    let same = alchemist_vm::run(&module, &exec, &mut prof)
        .is_ok_and(|o| o.steps == out.steps && prof.into_profile(o.steps) == oracle);
    checks.check(same, || {
        format!(
            "{} at Scale::Tiny: online profile differs from the oracle",
            w.name
        )
    });
}
