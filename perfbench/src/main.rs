//! Benchmark of the Alchemist profiling pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload record-replay|replay-jobs2 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it sets the workload up three times (reporting the
//! median set-up time), then times end-to-end passes of the workload's
//! path for `--seconds` and prints the end-to-end metrics. With
//! `--trace 1` it sets up once, runs ladder rounds (see `ladder`) for
//! `--seconds`, prints the per-layer metrics and writes every span to
//! `perfbench/out/spans-<workload>-<seed>.json`. Every profile and
//! recording produced is checked against the set-up reference; the last
//! stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`, preceded by a
//! `context` line (host CPUs, jobs, sizes, failures).

mod e2e;
mod ladder;
mod paths;
mod rss;
mod span;
mod workload;

use span::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Kind, Setup};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Every end-to-end metric with its unit, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MB"),
    ("trace_bytes_per_instr", "B/instr"),
    ("setup_s", "s"),
];

/// Output checks: each counts as one attempted operation; a mismatch or
/// error counts as failed and never aborts the run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn fail(&mut self, error: String) {
        self.check(false, || error);
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Args {
    kind: Kind,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!(
                    "unknown workload `{v}` (record-replay, replay-jobs2)"
                ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Deletes the run's trace files however the run ends.
struct Scratch(Vec<PathBuf>);

impl Drop for Scratch {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let tag = format!("{}-{}", args.kind.name(), std::process::id());
    let scratch = Scratch(vec![
        out_dir.join(format!("setup-{tag}.alct")),
        out_dir.join(format!("pass-{tag}.alct")),
    ]);
    let (setup_trace, pass_trace) = (&scratch.0[0], &scratch.0[1]);

    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t0 = Instant::now();
        let s = workload::setup(args.kind, args.seed, setup_trace, &mut checks)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let s = setup.expect("at least one set-up");

    let (metrics, samples): (Vec<(&str, &str, f64)>, usize) = if args.trace {
        let mut tracer = Tracer::new(true);
        let (values, rounds) = ladder::run(
            args.kind,
            &s,
            args.seconds,
            pass_trace,
            &mut tracer,
            &mut checks,
        )?;
        let spans = out_dir.join(format!(
            "spans-{}-{}.json",
            args.kind.name(),
            s.workload.seed
        ));
        tracer
            .write_json(&spans, &context_json(&args, &s, &checks, 1, rounds))
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        eprintln!("perfbench: spans written to {}", spans.display());
        let metrics = ladder::METRICS
            .iter()
            .map(|&(n, u)| (n, u, values[n]))
            .collect();
        (metrics, rounds)
    } else {
        let passes = e2e::measure(args.kind, &s, args.seconds, pass_trace, &mut checks)?;
        let values = [
            median(&passes.instr_per_s) / 1e6,
            median(&passes.peak_rss_mb),
            s.trace_bytes as f64 / s.outcome.steps as f64,
            median(&setup_s),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
        (metrics, passes.instr_per_s.len())
    };

    for f in &checks.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    println!(
        "{{\"context\": {}}}",
        context_json(&args, &s, &checks, setup_s.len(), samples)
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        checks.attempted,
        checks.failures.len(),
        body.join(", ")
    );
    Ok(())
}

/// A finite value as JSON; a ratio with an empty base prints as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The run's description: host, jobs, workload sizes, set-ups, samples
/// (passes, or ladder rounds when traced) and the failure ratio.
fn context_json(args: &Args, s: &Setup, checks: &Checks, setups: usize, samples: usize) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let failed = checks.failures.len() as f64 / checks.attempted.max(1) as f64;
    format!(
        "{{\"workload\": \"{}\", \"program\": \"{}\", \"seed\": {}, \"scale\": \"{}\", \
         \"input_len\": {}, \"instructions\": {}, \"events\": {}, \"trace_bytes\": {}, \
         \"cpus\": {cpus}, \"jobs\": {}, \"trace\": {}, \"seconds\": {}, \"setups\": {setups}, \
         \"samples\": {samples}, \"failed_frac\": {failed}}}",
        args.kind.name(),
        s.workload.name,
        s.workload.seed,
        workload::SCALE.name(),
        s.input.len(),
        s.outcome.steps,
        s.events,
        s.trace_bytes,
        e2e::JOBS,
        args.trace as u8,
        args.seconds,
    )
}
