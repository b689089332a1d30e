//! One-call profiling entry points.

use crate::pool::PoolStats;
use crate::profile::DepProfile;
use crate::profiler::{AlchemistProfiler, ProfileConfig};
use crate::report::ProfileReport;
use alchemist_vm::{
    compile_source, Event, EventBatch, ExecConfig, ExecOutcome, Module, TraceSink, Trap,
};
use std::error::Error;
use std::fmt;

/// Why a profiling run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The source did not compile.
    Frontend(alchemist_lang::LangError),
    /// The program trapped at run time.
    Runtime(Trap),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Frontend(e) => write!(f, "{e}"),
            ProfileError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ProfileError {}

impl From<alchemist_lang::LangError> for ProfileError {
    fn from(e: alchemist_lang::LangError) -> Self {
        ProfileError::Frontend(e)
    }
}

impl From<Trap> for ProfileError {
    fn from(e: Trap) -> Self {
        ProfileError::Runtime(e)
    }
}

/// Everything produced by one profiled run.
#[derive(Debug)]
pub struct ProfileOutcome {
    /// The dependence profile.
    pub profile: DepProfile,
    /// The program's execution result (steps, output, exit value).
    pub exec: ExecOutcome,
    /// Construct-pool behaviour.
    pub pool_stats: PoolStats,
    /// Deepest construct nesting observed.
    pub max_depth: usize,
    /// The compiled module (kept for report rendering).
    pub module: Module,
}

impl ProfileOutcome {
    /// Builds the ranked report for this run.
    pub fn report(&self) -> ProfileReport {
        ProfileReport::new(&self.profile, &self.module)
    }
}

/// Profiles an already-compiled module.
///
/// # Errors
///
/// Returns the [`Trap`] if the program faults at run time.
pub fn profile_module(
    module: &Module,
    exec_config: &ExecConfig,
    profile_config: ProfileConfig,
) -> Result<(DepProfile, ExecOutcome, PoolStats, usize), Trap> {
    let mut prof = AlchemistProfiler::new(module, profile_config);
    let outcome = alchemist_vm::run(module, exec_config, &mut prof)?;
    let pool_stats = prof.pool_stats();
    let max_depth = prof.max_depth();
    let profile = prof.into_profile(outcome.steps);
    Ok((profile, outcome, pool_stats, max_depth))
}

/// Profiles a *replayed* event stream instead of a live run.
///
/// This is the offline entry point for recorded traces: any source of
/// [`Event`]s — a `RecordingSink`, a decoded `.alct` trace — drives the
/// same [`AlchemistProfiler`] the interpreter would, so the resulting
/// [`DepProfile`] is identical to live instrumentation of the run that
/// produced the events. `total_steps` is the recorded run's final
/// retired-instruction count (a trace stores it in its footer).
///
/// # Examples
///
/// ```
/// use alchemist_core::{profile_events, profile_source, ProfileConfig};
/// use alchemist_vm::{compile_source, run, ExecConfig, RecordingSink};
///
/// let src = "int g; int main() { int i; for (i = 0; i < 4; i++) g += i; return g; }";
/// let module = compile_source(src).unwrap();
/// let mut rec = RecordingSink::default();
/// let out = run(&module, &ExecConfig::default(), &mut rec).unwrap();
///
/// let (offline, _, _) = profile_events(
///     &module,
///     rec.events.iter().copied(),
///     out.steps,
///     ProfileConfig::default(),
/// );
/// let live = profile_source(src, vec![]).unwrap();
/// assert_eq!(offline, live.profile);
/// ```
pub fn profile_events<I>(
    module: &Module,
    events: I,
    total_steps: u64,
    profile_config: ProfileConfig,
) -> (DepProfile, PoolStats, usize)
where
    I: IntoIterator<Item = Event>,
{
    let mut prof = AlchemistProfiler::new(module, profile_config);
    for ev in events {
        ev.dispatch(&mut prof);
    }
    let pool_stats = prof.pool_stats();
    let max_depth = prof.max_depth();
    (prof.into_profile(total_steps), pool_stats, max_depth)
}

/// Batched twin of [`profile_events`]: drives the profiler with one bulk
/// [`TraceSink::on_batch`] call per [`EventBatch`] instead of one callback
/// per event.
///
/// The batches jointly carry a recorded run's event stream in order (e.g.
/// from `alchemist_trace::decode_batches_par_with`); the resulting
/// [`DepProfile`] equals both the per-event replay and live
/// instrumentation of that run.
pub fn profile_batches(
    module: &Module,
    batches: &[EventBatch],
    total_steps: u64,
    profile_config: ProfileConfig,
) -> (DepProfile, PoolStats, usize) {
    let mut prof = AlchemistProfiler::new(module, profile_config);
    for batch in batches {
        prof.on_batch(batch);
    }
    let pool_stats = prof.pool_stats();
    let max_depth = prof.max_depth();
    (prof.into_profile(total_steps), pool_stats, max_depth)
}

/// Compiles and profiles mini-C source with default settings.
///
/// # Errors
///
/// Returns a [`ProfileError`] on compile errors or runtime traps.
///
/// # Examples
///
/// ```
/// let outcome = alchemist_core::profile_source(
///     "int g; int main() { int i; for (i = 0; i < 8; i++) g += i; return g; }",
///     vec![],
/// ).unwrap();
/// assert_eq!(outcome.exec.exit_value, 28);
/// assert!(outcome.profile.len() >= 2);
/// ```
pub fn profile_source(src: &str, input: Vec<i64>) -> Result<ProfileOutcome, ProfileError> {
    let module = compile_source(src)?;
    let exec_config = ExecConfig::with_input(input);
    let (profile, exec, pool_stats, max_depth) =
        profile_module(&module, &exec_config, ProfileConfig::default())?;
    Ok(ProfileOutcome {
        profile,
        exec,
        pool_stats,
        max_depth,
        module,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_source_end_to_end() {
        let outcome = profile_source(
            "int acc;
             int square(int x) { return x * x; }
             int main() { int i; for (i = 0; i < 6; i++) acc += square(i); return acc; }",
            vec![],
        )
        .unwrap();
        assert_eq!(outcome.exec.exit_value, 55);
        let report = outcome.report();
        assert!(report.find("Method square").is_some());
        assert!(report.find("Method main").is_some());
    }

    #[test]
    fn frontend_errors_are_propagated() {
        let err = profile_source("int main() { return x; }", vec![]).unwrap_err();
        assert!(matches!(err, ProfileError::Frontend(_)));
        assert!(err.to_string().contains("undefined variable"));
    }

    #[test]
    fn runtime_traps_are_propagated() {
        let err = profile_source("int a[2]; int main() { return a[5]; }", vec![]).unwrap_err();
        assert!(matches!(err, ProfileError::Runtime(_)));
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn input_reaches_the_program() {
        let outcome = profile_source(
            "int main() { return input(0) + input(1) + input_len(); }",
            vec![20, 30],
        )
        .unwrap();
        assert_eq!(outcome.exec.exit_value, 52);
    }
}
