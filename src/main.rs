//! The `alchemist` command-line profiler. `USAGE` in `args.rs` lists its
//! commands and flags.

mod args;

use alchemist_core::shadow::{Access, ShadowMemory};
use alchemist_core::{
    profile_batches_par_spec, profile_module, profile_source, shard_batch_counts_spec,
    AlchemistProfiler, DepProfile, PartialProfile, ProfileConfig, ProfileReport, ShardError,
    ShardSpec, ShardTuning,
};
use alchemist_obs::{span_opt, Counter, Metrics, Stage};
use alchemist_parsim::{
    extract_tasks, extract_tasks_from_batches_par, render_timeline, simulate, suggest_candidates,
    Candidate, ExtractConfig, SimConfig, TaskTrace,
};
use alchemist_trace::{
    decode_batches_par_recover, decode_batches_par_with, write_atomic, AtomicFile, ChunkInfo,
    MultiSink, ProfileArtifact, RecoveryReport, ReplaySummary, TraceError, TraceReader, TraceStats,
    TraceWriter, ALCP_MAGIC, ALCP_VERSION,
};
use alchemist_vm::{
    run_with_metrics, CountingSink, EventBatch, ExecConfig, NullSink, Pc, Tid, Time, TraceSink,
    TrapKind, DEFAULT_BATCH_EVENTS,
};
use alchemist_workloads::Scale;
use args::{
    Parsed, ANALYSIS, BATCH_SIZE, CHUNK_EVENTS, CONSTRUCT, CRC, CSV_CONSTRUCTS, CSV_EDGES, JOBS,
    JSON, MARK, OUT, PRIVATIZE, PROFILE_OUT, RECOVER, THREADS, TIMELINE, TOP, WAR_WAW,
};
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // SIGINT is a request, not a failure: no "error:" prefix.
            if e.kind == ErrorKind::Interrupted {
                eprintln!("{}", e.msg);
            } else {
                eprintln!("error: {}", e.msg);
            }
            if e.show_usage {
                eprintln!();
                eprintln!("{}", args::USAGE);
            }
            ExitCode::from(e.kind.exit_code())
        }
    }
}

/// The CLI's documented error taxonomy, one exit code per kind (see the
/// trailing lines of [`USAGE`] and the README's exit-code table). Scripts
/// and CI can branch on the code without parsing stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrorKind {
    /// The *profiled program* failed: compile error or runtime trap.
    Runtime,
    /// Bad invocation: unknown command/flag, invalid flag value.
    Usage,
    /// An OS-level file operation failed (open, create, write, stat).
    Io,
    /// Structurally corrupt input: an unreadable trace or artifact.
    CorruptInput,
    /// A defect on our side — e.g. a shard worker panicked mid-replay.
    Internal,
    /// SIGINT: the run was cancelled; partial artifacts were finalized.
    Interrupted,
}

impl ErrorKind {
    fn exit_code(self) -> u8 {
        match self {
            ErrorKind::Runtime => 1,
            ErrorKind::Usage => 2,
            ErrorKind::Io => 3,
            ErrorKind::CorruptInput => 4,
            ErrorKind::Internal => 5,
            // Shell convention for "terminated by SIGINT" (128 + 2).
            ErrorKind::Interrupted => 130,
        }
    }
}

/// A CLI failure: a message, its [`ErrorKind`] (which fixes the exit
/// code), plus whether the generic usage block helps.
///
/// Unknown flags set `show_usage = false` — the error itself names the
/// offending flag and the flags the command accepts, which is more useful
/// than re-printing the whole usage text.
#[derive(Debug)]
struct CliError {
    msg: String,
    show_usage: bool,
    kind: ErrorKind,
}

impl CliError {
    fn with_kind(msg: impl Into<String>, kind: ErrorKind) -> Self {
        CliError {
            msg: msg.into(),
            show_usage: false,
            kind,
        }
    }

    fn bare(msg: impl Into<String>) -> Self {
        Self::with_kind(msg, ErrorKind::Usage)
    }

    /// The profiled program failed (compile error, runtime trap).
    fn runtime(msg: impl Into<String>) -> Self {
        Self::with_kind(msg, ErrorKind::Runtime)
    }

    fn io(msg: impl Into<String>) -> Self {
        Self::with_kind(msg, ErrorKind::Io)
    }

    fn corrupt(msg: impl Into<String>) -> Self {
        Self::with_kind(msg, ErrorKind::CorruptInput)
    }

    fn internal(msg: impl Into<String>) -> Self {
        Self::with_kind(msg, ErrorKind::Internal)
    }

    fn interrupted(msg: impl Into<String>) -> Self {
        Self::with_kind(msg, ErrorKind::Interrupted)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError {
            msg,
            show_usage: true,
            kind: ErrorKind::Usage,
        }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::from(msg.to_owned())
    }
}

impl From<ShardError> for CliError {
    fn from(e: ShardError) -> Self {
        CliError::internal(format!("internal error: {e}"))
    }
}

/// Maps a failed trace read to the taxonomy: an OS-level failure is I/O,
/// anything else (bad magic, truncation, CRC mismatch...) is corrupt input.
fn trace_read_err(path: &str, e: &TraceError) -> CliError {
    let msg = format!("cannot read {path}: {e}");
    match e {
        TraceError::Io(_) => CliError::io(msg),
        _ => CliError::corrupt(msg),
    }
}

/// Resolves a positional program argument: an on-disk mini-C file, or the
/// name of a bundled workload (`alchemist workloads` lists them). Workload
/// names pick up their deterministic generated input at `--scale` (default
/// tiny); an explicit `--input` overrides it. `--scale` is meaningless for
/// a plain file — its input can only come from `--input` — so that
/// combination is an error rather than a silent no-op.
fn resolve_program(
    arg: &str,
    scale: Option<Scale>,
    explicit_input: Vec<i64>,
) -> Result<(String, Vec<i64>), CliError> {
    if std::path::Path::new(arg).exists() {
        if scale.is_some() {
            return Err(CliError::bare(format!(
                "--scale only applies to bundled workload names; `{arg}` is a file \
                 (use --input to feed it data)"
            )));
        }
        let source = std::fs::read_to_string(arg)
            .map_err(|e| CliError::io(format!("cannot read {arg}: {e}")))?;
        return Ok((source, explicit_input));
    }
    match alchemist_workloads::by_name(arg) {
        Some(w) => {
            let input = if explicit_input.is_empty() {
                w.input(scale.unwrap_or(Scale::Tiny))
            } else {
                explicit_input
            };
            Ok((w.source.to_owned(), input))
        }
        None => Err(format!(
            "cannot read {arg}: no such file, and no bundled workload has that name \
             (see `alchemist workloads`)"
        )
        .into()),
    }
}

/// Validated `--metrics` / `--metrics-out` pair: `format` is `None` when
/// instrumentation reporting was not requested.
#[derive(Default)]
struct MetricsOpt {
    format: Option<String>,
    out: Option<String>,
}

impl MetricsOpt {
    fn validate(format: Option<String>, out: Option<String>) -> Result<MetricsOpt, CliError> {
        if let Some(f) = &format {
            if f != "text" && f != "json" {
                return Err(CliError::bare(format!(
                    "--metrics: unknown format `{f}` (expected text or json)"
                )));
            }
        }
        if out.is_some() && format.is_none() {
            return Err(CliError::bare("--metrics-out requires --metrics text|json"));
        }
        Ok(MetricsOpt { format, out })
    }

    fn enabled(&self) -> bool {
        self.format.is_some()
    }

    /// Renders and delivers the report: stdout by default, `--metrics-out`
    /// file when given. A no-op when `--metrics` was not passed.
    fn emit(&self, metrics: &Metrics, command: &str) -> Result<(), CliError> {
        let Some(format) = &self.format else {
            return Ok(());
        };
        let report = metrics.report(command);
        let rendered = if format == "json" {
            report.to_json()
        } else {
            report.render_text()
        };
        match &self.out {
            Some(path) => {
                // Atomic commit: a crash mid-write never leaves a torn
                // report under the requested name.
                write_atomic(path, rendered.as_bytes())
                    .map_err(|e| CliError::io(format!("cannot create {path}: {e}")))?;
                eprintln!("wrote metrics to {path}");
            }
            None => print!("{rendered}"),
        }
        Ok(())
    }
}

/// Validates a comma-separated `--analysis` list against the analyses the
/// offline consumers (`replay`, `profile query`) implement. An unknown
/// name is a typed error naming the bad value and the valid set.
fn parse_analyses(value: &str) -> Result<Vec<String>, CliError> {
    let mut analyses: Vec<String> = Vec::new();
    for a in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if !matches!(a, "profile" | "advise" | "stats") {
            return Err(CliError::bare(format!(
                "unknown analysis `{a}` (expected profile, advise or stats)"
            )));
        }
        if !analyses.iter().any(|seen| seen == a) {
            analyses.push(a.to_owned());
        }
    }
    if analyses.is_empty() {
        return Err(CliError::bare(
            "--analysis needs at least one of profile, advise, stats",
        ));
    }
    Ok(analyses)
}

/// Writes a `.alcp` artifact to `path` through an [`AtomicFile`] commit
/// (the artifact appears complete or not at all), returning the byte count.
fn write_artifact(
    artifact: &ProfileArtifact,
    path: &str,
    metrics: Option<&Metrics>,
) -> Result<u64, CliError> {
    let mut f =
        AtomicFile::create(path).map_err(|e| CliError::io(format!("cannot create {path}: {e}")))?;
    let n = artifact
        .save_to(&mut f, metrics)
        .map_err(|e| CliError::io(format!("cannot write {path}: {e}")))?;
    f.commit()
        .map_err(|e| CliError::io(format!("cannot write {path}: {e}")))?;
    Ok(n)
}

/// Loads a `.alcp` artifact; corrupt input surfaces the typed
/// [`alchemist_trace::AlcpError`] with the file name attached.
fn load_artifact(path: &str, metrics: Option<&Metrics>) -> Result<ProfileArtifact, CliError> {
    let f =
        std::fs::File::open(path).map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
    ProfileArtifact::load_from(BufReader::new(f), metrics).map_err(|e| {
        let msg = format!("cannot read {path}: {e}");
        match e {
            alchemist_trace::AlcpError::Io(_) => CliError::io(msg),
            _ => CliError::corrupt(msg),
        }
    })
}

fn render_profile_report(
    report: &ProfileReport,
    top: usize,
    war_waw: Option<&str>,
) -> Result<(), CliError> {
    print!("{}", report.render(top));
    if let Some(label) = war_waw {
        let c = report
            .find(label)
            .ok_or_else(|| format!("no construct matching `{label}`"))?;
        println!("\nWAR/WAW profile for {}:", c.label);
        print!("{}", report.render_war_waw(c.head));
    }
    Ok(())
}

fn profile_cmd(p: Parsed) -> Result<(), CliError> {
    let (source, input) = resolve_program(p.operand(), p.scale(), p.input())?;
    let outcome = profile_source(&source, input).map_err(|e| CliError::runtime(e.to_string()))?;
    let report = outcome.report();
    println!(
        "profiled {} instructions, {} static constructs, exit value {}",
        outcome.exec.steps,
        outcome.profile.len(),
        outcome.exec.exit_value
    );
    println!();
    render_profile_report(&report, p.number(TOP).unwrap_or(10), p.text(WAR_WAW))?;
    if let Some(path) = p.text(CSV_CONSTRUCTS) {
        write_atomic(path, alchemist_core::constructs_to_csv(&report).as_bytes())
            .map_err(|e| CliError::io(format!("cannot write {path}: {e}")))?;
        println!("\nwrote construct table to {path}");
    }
    if let Some(path) = p.text(CSV_EDGES) {
        write_atomic(path, alchemist_core::edges_to_csv(&report).as_bytes())
            .map_err(|e| CliError::io(format!("cannot write {path}: {e}")))?;
        println!("wrote edge table to {path}");
    }
    Ok(())
}

/// `profile save`: profile a source file (once per `--input`, aggregated
/// through the order-independent [`PartialProfile`] merge) or replay a
/// recorded trace, and persist the result as a `.alcp` artifact.
fn profile_save_cmd(p: Parsed) -> Result<(), CliError> {
    let metrics = p.metrics.enabled().then(Metrics::new);
    let m = metrics.as_ref();
    let path = p.operand();
    let out_path = p.text(OUT).map_or_else(
        || {
            let mut out = std::path::PathBuf::from(path);
            out.set_extension("alcp");
            out.display().to_string()
        },
        str::to_owned,
    );
    let bytes =
        std::fs::read(path).map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
    let recover = p.switch(RECOVER);
    let artifact = if bytes.starts_with(&alchemist_trace::format::MAGIC) {
        if !p.inputs().is_empty() {
            return Err(CliError::bare(
                "--input applies to source saves; a trace already fixes its input",
            ));
        }
        save_from_trace(path, p.number(JOBS).unwrap_or(1), recover, m)?
    } else if bytes.starts_with(&ALCP_MAGIC) {
        return Err(CliError::bare(format!(
            "{path} is already a profile artifact; use `profile merge` or `profile query`"
        )));
    } else {
        if recover {
            return Err(CliError::bare(
                "--recover applies to trace replays; a source save re-executes the program",
            ));
        }
        let source = String::from_utf8(bytes)
            .map_err(|e| CliError::corrupt(format!("cannot read {path}: {e}")))?;
        save_from_source(&source, p.inputs().to_vec(), m)?
    };
    let n = write_artifact(&artifact, &out_path, m)?;
    println!(
        "wrote profile artifact to {out_path} ({n} bytes, {} constructs, \
         {} recorded instructions)",
        artifact.profile.len(),
        artifact.profile.total_steps
    );
    if let Some(metrics) = &metrics {
        p.metrics.emit(metrics, "profile save")?;
    }
    Ok(())
}

/// Profiles `source` once per input vector (no `--input` means one run on
/// the empty input) and aggregates the runs into one artifact. Single-run
/// saves also embed the best candidate's task summary so `profile query
/// --analysis advise` can simulate offline.
fn save_from_source(
    source: &str,
    mut inputs: Vec<Vec<i64>>,
    m: Option<&Metrics>,
) -> Result<ProfileArtifact, CliError> {
    let module =
        alchemist_vm::compile_source(source).map_err(|e| CliError::runtime(e.to_string()))?;
    if inputs.is_empty() {
        inputs.push(Vec::new());
    }
    let single_run = inputs.len() == 1;
    let mut aggregated = PartialProfile::new();
    for (i, input) in inputs.iter().enumerate() {
        let exec_cfg = ExecConfig::with_input(input.clone());
        let (profile, ..) = profile_module(&module, &exec_cfg, ProfileConfig::default())
            .map_err(|e| CliError::runtime(e.to_string()))?;
        if i > 0 {
            if let Some(m) = m {
                m.incr(Counter::ProfileMerges);
            }
        }
        aggregated.merge(&PartialProfile::from(profile));
    }
    let mut artifact = ProfileArtifact::new(aggregated.seal()).with_source(source);
    if single_run {
        // One extra run extracts the best candidate's task schedule; a
        // multi-input aggregate has no single schedule to embed.
        let report = ProfileReport::new(&artifact.profile, &module);
        let candidates = suggest_candidates(&report, &module, 0.02, 0);
        if let Some(best) = candidates.first() {
            let exec_cfg = ExecConfig::with_input(inputs[0].clone());
            let tasks = extract_tasks(&module, &exec_cfg, best.extract_config())
                .map_err(|e| CliError::runtime(e.to_string()))?;
            artifact = artifact.with_tasks(tasks);
        }
    }
    Ok(artifact)
}

/// One deterministic sentence describing what salvage dropped; doubles as
/// the profile report's `note:` line and the stderr notice.
fn salvage_note(report: &RecoveryReport) -> String {
    format!(
        "salvaged replay: skipped {} of {} chunk(s), >= {} event(s) lost \
         ({} CRC mismatch(es), {} truncation(s), {} decode error(s){})",
        report.chunks_skipped,
        report.chunks_total,
        report.events_lost,
        report.crc_mismatches,
        report.truncations,
        report.decode_errors,
        if report.footer_recovered {
            ""
        } else {
            "; footer lost, total steps estimated"
        }
    )
}

/// Decodes a whole trace chunk-parallel on `jobs` workers into batches.
/// Strict by default; with `recover`, corrupt or truncated chunks are
/// skipped and the [`RecoveryReport`] is returned, folded into the metrics
/// counters and — when anything was actually dropped — announced on
/// stderr. Stdout is left to the per-analysis renderers so it stays
/// byte-stable across job counts.
fn decode_trace(
    path: &str,
    reader: TraceReader<BufReader<std::fs::File>>,
    jobs: usize,
    recover: bool,
    m: Option<&Metrics>,
) -> Result<(Vec<EventBatch>, ReplaySummary, Option<RecoveryReport>), CliError> {
    if !recover {
        let (batches, summary) =
            decode_batches_par_with(reader, jobs, m).map_err(|e| trace_read_err(path, &e))?;
        return Ok((batches, summary, None));
    }
    let (batches, summary, report) = decode_batches_par_recover(reader, jobs, m);
    if let Some(m) = m {
        m.add(Counter::TraceChunksSkipped, report.chunks_skipped);
        m.add(Counter::TraceEventsSalvaged, report.events_salvaged);
    }
    if !report.is_clean() {
        eprintln!("{}", salvage_note(&report));
    }
    Ok((batches, summary, Some(report)))
}

/// Replays a recorded trace (chunk-parallel with `--jobs`) into a profile
/// artifact, embedding the trace's source and the best candidate's task
/// summary — all offline, no re-execution. One partition choice serves
/// both the profiler and the task extraction. With `recover`, corrupt or
/// truncated chunks are skipped instead of failing the save.
fn save_from_trace(
    path: &str,
    jobs: usize,
    recover: bool,
    m: Option<&Metrics>,
) -> Result<ProfileArtifact, CliError> {
    let reader = open_trace(path)?;
    let module = trace_module(&reader)?;
    let source = reader
        .source()
        .expect("trace_module required the source")
        .to_owned();
    let (batches, summary, _) = decode_trace(path, reader, jobs, recover, m)?;
    let spec = ShardSpec::for_batches(&batches, jobs as u32);
    let (profile, _, _) = profile_batches_par_spec(
        &module,
        &batches,
        summary.total_steps,
        ProfileConfig::default(),
        spec,
        ShardTuning::default(),
        m,
    )?;
    let mut artifact = ProfileArtifact::new(profile).with_source(source);
    let report = ProfileReport::new(&artifact.profile, &module);
    let candidates = suggest_candidates(&report, &module, 0.02, 0);
    if let Some(best) = candidates.first() {
        let tasks = extract_tasks_from_batches_par(
            &module,
            best.extract_config(),
            &batches,
            summary.total_steps,
            spec,
            m,
        )?;
        artifact = artifact.with_tasks(tasks);
    }
    Ok(artifact)
}

/// `profile merge`: fold N artifacts into one through the
/// order-independent [`PartialProfile`] algebra.
fn profile_merge_cmd(p: Parsed) -> Result<(), CliError> {
    let metrics = p.metrics.enabled().then(Metrics::new);
    let m = metrics.as_ref();
    let files = p.operands();
    let out_path = p
        .text(OUT)
        .ok_or("profile merge needs -o|--out FILE.alcp")?;
    // Corrupt or unreadable inputs are skipped with a warning, so one
    // bit-rotted artifact cannot sink a fleet-wide merge; zero survivors
    // is an error — never an empty output artifact at the requested path.
    let mut merged: Option<ProfileArtifact> = None;
    let mut survivors = 0usize;
    for f in files {
        let artifact = match load_artifact(f, m) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("warning: skipping {f}: {}", e.msg);
                continue;
            }
        };
        survivors += 1;
        match merged.as_mut() {
            None => merged = Some(artifact),
            Some(acc) => acc
                .merge(artifact, m)
                .map_err(|e| CliError::corrupt(format!("{f}: {e}")))?,
        }
    }
    let Some(merged) = merged else {
        return Err(CliError::corrupt(format!(
            "nothing was merged: all {} input artifact(s) were corrupt or unreadable",
            files.len()
        )));
    };
    let n = write_artifact(&merged, out_path, m)?;
    println!(
        "merged {survivors} artifact(s) into {out_path} ({n} bytes, {} constructs, \
         {} recorded instructions)",
        merged.profile.len(),
        merged.profile.total_steps
    );
    if survivors < files.len() {
        eprintln!(
            "warning: {} of {} input(s) skipped as corrupt or unreadable",
            files.len() - survivors,
            files.len()
        );
    }
    if let Some(metrics) = &metrics {
        p.metrics.emit(metrics, "profile merge")?;
    }
    Ok(())
}

/// `profile query`: run the offline analyses over a saved artifact —
/// no re-execution, no trace, just the `.alcp` file.
fn profile_query_cmd(p: Parsed) -> Result<(), CliError> {
    let metrics = p.metrics.enabled().then(Metrics::new);
    let m = metrics.as_ref();
    let path = p.operand();
    let analyses = parse_analyses(p.text(ANALYSIS).unwrap_or("profile"))?;
    let construct = p.text(CONSTRUCT);
    if construct.is_some() && !analyses.iter().any(|a| a == "profile") {
        return Err(CliError::bare("--construct requires the profile analysis"));
    }
    let artifact = load_artifact(path, m)?;
    let need_module = analyses.iter().any(|a| a == "profile" || a == "advise");
    let module = if need_module {
        let src = artifact.source.as_deref().ok_or_else(|| {
            CliError::bare("profile artifact has no embedded source; cannot rebuild the module")
        })?;
        Some(
            alchemist_vm::compile_source(src)
                .map_err(|e| CliError::corrupt(format!("embedded source does not compile: {e}")))?,
        )
    } else {
        None
    };
    for (i, analysis) in analyses.iter().enumerate() {
        if i > 0 {
            println!();
        }
        match analysis.as_str() {
            // The profile analysis deliberately never prints the file path:
            // two artifacts with equal contents (e.g. a merge of per-run
            // saves vs a direct aggregated save) query identically.
            "profile" => {
                let md = module.as_ref().expect("compiled above");
                println!(
                    "profile artifact: {} recorded instructions, {} static constructs",
                    artifact.profile.total_steps,
                    artifact.profile.len()
                );
                println!();
                let report = ProfileReport::new(&artifact.profile, md);
                render_profile_report(&report, p.number(TOP).unwrap_or(10), None)?;
                if let Some(sel) = construct {
                    let (label, head) = if let Ok(pc) = sel.parse::<u32>() {
                        let c = artifact
                            .profile
                            .construct(Pc(pc))
                            .ok_or_else(|| CliError::bare(format!("no construct at pc {pc}")))?;
                        (format!("pc {pc}"), c.id.head)
                    } else {
                        let c = report
                            .find(sel)
                            .ok_or_else(|| format!("no construct matching `{sel}`"))?;
                        (c.label.clone(), c.head)
                    };
                    println!("\nWAR/WAW profile for {label}:");
                    print!("{}", report.render_war_waw(head));
                }
            }
            "advise" => render_advise(
                &artifact.profile,
                module.as_ref().expect("compiled above"),
                p.number(THREADS).unwrap_or(4),
                "(embedded task summary)",
                |_| Ok(artifact.tasks.clone()),
            )?,
            "stats" => {
                let file_bytes = std::fs::metadata(path)
                    .map_err(|e| CliError::io(format!("cannot stat {path}: {e}")))?
                    .len();
                println!("profile artifact {path}: format v{ALCP_VERSION}, {file_bytes} bytes");
                match &artifact.source {
                    Some(s) => println!("embedded source: yes ({} lines)", s.lines().count()),
                    None => println!("embedded source: no"),
                }
                match &artifact.tasks {
                    Some(t) => println!(
                        "task summary: yes ({} tasks, {} joins)",
                        t.tasks.len(),
                        t.main_joins.len()
                    ),
                    None => println!("task summary: no"),
                }
                let edges: usize = artifact.profile.constructs().map(|c| c.edges.len()).sum();
                println!(
                    "profile: {} recorded instructions, {} constructs, {} dependence edges",
                    artifact.profile.total_steps,
                    artifact.profile.len(),
                    edges
                );
                println!(
                    "dependences: {} intra-thread, {} cross-thread",
                    artifact.profile.intra_thread_deps, artifact.profile.cross_thread_deps
                );
                println!(
                    "reads dropped at reader cap: {}",
                    artifact.profile.dropped_readers
                );
            }
            _ => unreachable!("validated by parse_analyses"),
        }
    }
    if let Some(metrics) = &metrics {
        p.metrics.emit(metrics, "profile query")?;
    }
    Ok(())
}

fn run_cmd(p: Parsed) -> Result<(), CliError> {
    let (source, input) = resolve_program(p.operand(), p.scale(), p.input())?;
    let profile_out = p.text(PROFILE_OUT);
    let metrics = p.metrics.enabled().then(Metrics::new);
    let m = metrics.as_ref();
    let (out, profile) = {
        let _total_span = span_opt(m, Stage::Total);
        let module = {
            let _parse_span = span_opt(m, Stage::Parse);
            alchemist_vm::compile_source(&source).map_err(|e| CliError::runtime(e.to_string()))?
        };
        // `run` observes nothing (NullSink), so batching is opt-in here: the
        // default stays the zero-overhead per-event baseline. With
        // --profile-out the profiler rides the run instead.
        let exec_config = ExecConfig {
            batch_events: p.number(BATCH_SIZE).unwrap_or(0),
            ..ExecConfig::with_input(input)
        };
        if profile_out.is_some() {
            let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
            let out = run_with_metrics(&module, &exec_config, &mut prof, m)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            let profile = prof.into_profile(out.steps);
            (out, Some(profile))
        } else {
            let out = run_with_metrics(&module, &exec_config, &mut NullSink, m)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            (out, None)
        }
    };
    for v in &out.output {
        println!("{v}");
    }
    println!(
        "exit value: {} ({} instructions)",
        out.exit_value, out.steps
    );
    if let (Some(path), Some(profile)) = (profile_out, profile) {
        let artifact = ProfileArtifact::new(profile).with_source(&*source);
        write_artifact(&artifact, path, m)?;
        eprintln!("wrote profile artifact to {path}");
    }
    if let Some(metrics) = &metrics {
        p.metrics.emit(metrics, "run")?;
    }
    Ok(())
}

fn advise_cmd(p: Parsed) -> Result<(), CliError> {
    let (source, input) = resolve_program(p.operand(), p.scale(), p.input())?;
    let outcome =
        profile_source(&source, input.clone()).map_err(|e| CliError::runtime(e.to_string()))?;
    render_advise(
        &outcome.profile,
        &outcome.module,
        p.number(THREADS).unwrap_or(4),
        "as a future",
        |best| {
            extract_tasks(
                &outcome.module,
                &ExecConfig::with_input(input),
                best.extract_config(),
            )
            .map(Some)
            .map_err(|e| CliError::runtime(e.to_string()))
        },
    )
}

fn simulate_cmd(p: Parsed) -> Result<(), CliError> {
    let (source, input) = resolve_program(p.operand(), p.scale(), p.input())?;
    let (mark, privatize, threads) = (
        p.list(MARK),
        p.list(PRIVATIZE),
        p.number(THREADS).unwrap_or(4),
    );
    if mark.is_empty() {
        return Err("simulate requires at least one --mark FUNC".into());
    }
    let module =
        alchemist_vm::compile_source(&source).map_err(|e| CliError::runtime(e.to_string()))?;
    let mut cfg = ExtractConfig::default();
    for name in mark {
        let head = module
            .func_by_name(name)
            .ok_or_else(|| format!("no function `{name}` to mark"))?
            .1
            .entry;
        cfg = cfg.mark(head);
    }
    for v in privatize {
        if module.global_by_name(v).is_none() {
            return Err(format!("no global `{v}` to privatize").into());
        }
        cfg = cfg.privatize(v);
    }
    let trace = extract_tasks(&module, &ExecConfig::with_input(input), cfg)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    let sim_cfg = SimConfig::with_threads(threads);
    if p.switch(TIMELINE) {
        print!("{}", render_timeline(&trace, &sim_cfg, 72));
    } else {
        let sim = simulate(&trace, &sim_cfg);
        println!(
            "marked [{}] privatized [{}]",
            mark.join(", "),
            privatize.join(", ")
        );
        println!(
            "{} tasks, serial fraction {:.1}%",
            trace.tasks.len(),
            trace.serial_fraction() * 100.0
        );
        println!(
            "sequential {} -> parallel {} instructions on {} threads: {:.2}x",
            sim.t_seq, sim.t_par, threads, sim.speedup
        );
    }
    Ok(())
}

/// Installs a SIGINT handler that requests cooperative interpreter
/// cancellation (an atomic store — async-signal-safe) instead of letting
/// the default disposition kill the process, so `record` can finalize the
/// current chunk and footer before exiting with code 130.
///
/// Raw FFI rather than a crate: std already links libc on every supported
/// Unix, and the CLI must not grow a dependency for one syscall.
#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn on_sigint(_signum: i32) {
        alchemist_vm::request_interrupt();
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

fn record_cmd(p: Parsed) -> Result<(), CliError> {
    let metrics = p.metrics.enabled().then(|| Arc::new(Metrics::new()));
    let total_span = span_opt(metrics.as_deref(), Stage::Total);
    let path = p.operand();
    let (source, input) = resolve_program(path, p.scale(), p.input())?;
    let module = {
        let _parse_span = span_opt(metrics.as_deref(), Stage::Parse);
        alchemist_vm::compile_source(&source).map_err(|e| CliError::runtime(e.to_string()))?
    };
    let out_path = p.text(OUT).map_or_else(
        || {
            if std::path::Path::new(path).exists() {
                let mut out = std::path::PathBuf::from(path);
                out.set_extension("alct");
                out.display().to_string()
            } else {
                // A workload name ("gzip-1.3.5") is not a path; appending
                // keeps the dots in the name intact instead of truncating at
                // the last.
                format!("{path}.alct")
            }
        },
        str::to_owned,
    );
    // The trace builds in a temp file and only renames over `out_path` when
    // finalized, so a crash or trap never leaves a footer-less file under
    // the requested name — dropping an uncommitted AtomicFile cleans up.
    let f = AtomicFile::create(&out_path)
        .map_err(|e| CliError::io(format!("cannot create {out_path}: {e}")))?;
    // From here until commit, SIGINT means "finalize what you have": the
    // handler flips the interpreter's cancellation flag and the trap below
    // writes the final chunk + footer before exiting 130.
    install_sigint_handler();
    alchemist_vm::clear_interrupt();
    let mut writer = trace_writer(BufWriter::new(f), Some(&source), &module, p.switch(CRC))
        .map_err(|e| CliError::io(format!("cannot write {out_path}: {e}")))?;
    if let Some(n) = p.number(CHUNK_EVENTS) {
        writer = writer.with_chunk_capacity(n);
    }
    if let Some(m) = &metrics {
        writer = writer.with_metrics(Arc::clone(m));
    }
    // With --batch-size the interpreter hands the writer EventBatches
    // of that many events; the encoded bytes are identical to the
    // default per-event recording (the writer is statically
    // dispatched, so batching is opt-in rather than a default win).
    let exec_config = ExecConfig {
        batch_events: p.number(BATCH_SIZE).unwrap_or(0),
        ..ExecConfig::with_input(input)
    };
    // With --profile-out the profiler rides the same run through a
    // sink fan-out: one execution yields both artifacts.
    let profile_out = p.text(PROFILE_OUT);
    let mut prof = profile_out
        .is_some()
        .then(|| AlchemistProfiler::new(&module, ProfileConfig::default()));
    let run_result = if let Some(prof) = prof.as_mut() {
        let mut fan = MultiSink::new();
        fan.push(&mut writer).push(prof);
        run_with_metrics(&module, &exec_config, &mut fan, metrics.as_deref())
    } else {
        run_with_metrics(&module, &exec_config, &mut writer, metrics.as_deref())
    };
    // Flush the final chunk, write the footer, fsync and rename: after
    // this the trace at `out_path` is complete and replayable.
    let finalize =
        |writer: TraceWriter<BufWriter<AtomicFile>>, steps: u64| -> Result<TraceStats, CliError> {
            let (w, stats) = writer
                .finish(steps)
                .map_err(|e| CliError::io(format!("cannot write {out_path}: {e}")))?;
            let f = w
                .into_inner()
                .map_err(|e| CliError::io(format!("cannot write {out_path}: {e}")))?;
            f.commit()
                .map_err(|e| CliError::io(format!("cannot write {out_path}: {e}")))?;
            Ok(stats)
        };
    let outcome = match run_result {
        Ok(out) => out,
        Err(trap) if trap.kind == TrapKind::Interrupted => {
            // The run has no final step count; finalize with the same
            // lower-bound estimate the salvage reader derives for a
            // footer-less trace (last event time + 1).
            let est = writer.last_event_time() + 1;
            let stats = finalize(writer, est)?;
            drop(total_span);
            return Err(CliError::interrupted(format!(
                "interrupted: finalized partial trace to {out_path} \
                 ({} events in {} chunks; replayable as-is)",
                stats.events, stats.chunks
            )));
        }
        // Uncommitted AtomicFile drops here: temp removed, out_path
        // untouched — a trap never publishes a half-recorded trace.
        Err(trap) => return Err(CliError::runtime(trap.to_string())),
    };
    let stats = finalize(writer, outcome.steps)?;
    let profile = prof.map(|prof| prof.into_profile(outcome.steps));
    drop(total_span);
    if let (Some(path), Some(profile)) = (profile_out, profile) {
        let artifact = ProfileArtifact::new(profile).with_source(&*source);
        write_artifact(&artifact, path, metrics.as_deref())?;
        eprintln!("wrote profile artifact to {path}");
    }
    println!(
        "recorded {} events in {} chunks to {out_path}",
        stats.events, stats.chunks
    );
    println!(
        "{} bytes ({:.2} bytes/event), {} instructions, exit value {}",
        stats.bytes,
        stats.bytes_per_event(),
        outcome.steps,
        outcome.exit_value
    );
    if let Some(m) = &metrics {
        p.metrics.emit(m, "record")?;
    }
    Ok(())
}

fn replay_cmd(p: Parsed) -> Result<(), CliError> {
    let path = p.operand();
    // `--analysis` accepts a comma-separated list; one decode pass serves
    // every requested analysis.
    let analyses = parse_analyses(p.text(ANALYSIS).unwrap_or("profile"))?;
    // The positional may also name a bundled workload: record it to a
    // temporary trace at the requested scale, replay that, clean up. This
    // is what lets the perf suite drive tens-of-millions-of-events replays
    // without shipping giant .alct files around.
    let mut temp_trace = None;
    let trace_path = if std::path::Path::new(path).exists() {
        if p.scale().is_some() {
            return Err(CliError::bare(format!(
                "--scale only applies to bundled workload names; `{path}` is a trace file"
            )));
        }
        path.to_owned()
    } else if let Some(w) = alchemist_workloads::by_name(path) {
        let sc = p.scale().unwrap_or(Scale::Tiny);
        let temp = record_workload_trace(w, sc)?;
        eprintln!(
            "recorded bundled workload `{}` at --scale {} to {}",
            w.name,
            sc.name(),
            temp.display()
        );
        let s = temp.display().to_string();
        temp_trace = Some(temp);
        s
    } else {
        // Name the OS cause so "typo'd path" and "permission denied" read
        // differently; no usage block — the invocation itself was fine.
        let cause = std::fs::metadata(path)
            .err()
            .map_or_else(|| "not a readable file".to_owned(), |e| e.to_string());
        return Err(CliError::io(format!(
            "cannot read {path}: {cause}, and no bundled workload has that name \
             (see `alchemist workloads`)"
        )));
    };
    let result = run_replay(&trace_path, &analyses, &p);
    if let Some(temp) = temp_trace {
        let _ = std::fs::remove_file(temp);
    }
    result
}

/// Records `w` at `scale` to a temporary self-contained trace, for
/// `replay <workload>`. The file is the caller's to delete.
fn record_workload_trace(
    w: &alchemist_workloads::Workload,
    scale: Scale,
) -> Result<std::path::PathBuf, CliError> {
    let path = std::env::temp_dir().join(format!(
        "alchemist-replay-{}-{}-{}.alct",
        w.name,
        scale.name(),
        std::process::id()
    ));
    let module = w.module();
    // AtomicFile: a trap or write failure drops the uncommitted temp and
    // never publishes a footer-less trace under `path`.
    let f = AtomicFile::create(&path)
        .map_err(|e| CliError::io(format!("cannot create {}: {e}", path.display())))?;
    let wr_err = |e: TraceError| CliError::io(format!("cannot write {}: {e}", path.display()));
    let mut writer =
        trace_writer(BufWriter::new(f), Some(w.source), &module, false).map_err(wr_err)?;
    let out = alchemist_vm::run(&module, &w.exec_config(scale), &mut writer)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    let (bufw, _) = writer.finish(out.steps).map_err(wr_err)?;
    bufw.into_inner()
        .map_err(|e| CliError::io(format!("cannot write {}: {e}", path.display())))?
        .commit()
        .map_err(|e| CliError::io(format!("cannot write {}: {e}", path.display())))?;
    Ok(path)
}

/// Opens a trace writer in the format a recording of `module` needs: v3
/// (per-chunk CRC-32, for salvage replay) when `crc` asks for it, else v2
/// (the tid column) for a threaded program, else v1 — byte-identical to
/// every earlier single-threaded recording.
fn trace_writer<W: Write>(
    out: W,
    source: Option<&str>,
    module: &alchemist_vm::Module,
    crc: bool,
) -> Result<TraceWriter<W>, TraceError> {
    if crc {
        TraceWriter::new_v3(out, source)
    } else if module.uses_threads() {
        TraceWriter::new_v2(out, source)
    } else {
        TraceWriter::new(out, source)
    }
}

fn open_trace(path: &str) -> Result<TraceReader<BufReader<std::fs::File>>, CliError> {
    let f =
        std::fs::File::open(path).map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
    TraceReader::new(BufReader::new(f)).map_err(|e| trace_read_err(path, &e))
}

/// Recompiles the module a self-contained trace describes.
fn trace_module(
    reader: &TraceReader<BufReader<std::fs::File>>,
) -> Result<alchemist_vm::Module, CliError> {
    let source = reader
        .source()
        .ok_or_else(|| CliError::bare("trace has no embedded source; cannot rebuild the module"))?;
    alchemist_vm::compile_source(source)
        .map_err(|e| CliError::corrupt(format!("embedded source does not compile: {e}")))
}

/// Runs the requested analyses over one trace with **one decode pass**.
///
/// The decoded batch stream fans out through a [`MultiSink`]: with
/// `--jobs 1` and no advise request the batches stream straight from the
/// reader into every sink; otherwise the batches are materialized once
/// (chunk-parallel with `--jobs N`) and shared by the sharded profiler,
/// the stats sinks and task extraction.
fn run_replay(path: &str, analyses: &[String], p: &Parsed) -> Result<(), CliError> {
    let jobs = p.number(JOBS).unwrap_or(1);
    let batch_size = p.number(BATCH_SIZE);
    let profile_out = p.text(PROFILE_OUT);
    let recover = p.switch(RECOVER);
    let want = |name: &str| analyses.iter().any(|a| a == name);
    let need_advise = want("advise");
    // --profile-out needs the profile computed even when no analysis
    // prints it (replay straight into an artifact).
    let need_profile = want("profile") || need_advise || profile_out.is_some();
    let need_stats = want("stats");

    // Replay always carries a Metrics: the stats analysis reads throughput
    // out of it, and --metrics reports it. The per-chunk granularity keeps
    // the always-on cost far below measurement noise.
    let metrics = Arc::new(Metrics::new());
    let m = Some(&*metrics);

    // Header-only scan for stats: chunk metadata, no payload decoding.
    let stats_scan = if need_stats {
        let mut reader = open_trace(path)?;
        let version = reader.version();
        let source_lines = reader.source().map(|s| s.lines().count());
        let infos = if recover {
            // Salvage scan: damaged chunks are skipped here exactly as the
            // decode pass below will skip them, so both agree on the set.
            let (infos, _, _) = reader.read_chunk_infos_recover();
            infos
        } else {
            reader
                .read_chunk_infos()
                .map_err(|e| trace_read_err(path, &e))?
        };
        Some((version, infos, source_lines))
    } else {
        None
    };

    let mut profile: Option<DepProfile> = None;
    let mut recovery: Option<RecoveryReport> = None;
    let mut advise_input: Option<(Vec<EventBatch>, ShardSpec)> = None;
    let mut shard_counts: Option<Vec<u64>> = None;
    let mut counts = CountingSink::default();
    let mut addrs = AddrSpan::default();
    let mut drops = None;
    let mut source_for_artifact: Option<String> = None;
    let module;
    let summary;
    {
        let _total_span = span_opt(m, Stage::Total);
        let reader = open_trace(path)?;
        // profile/advise need the module; stats uses it only when the trace
        // is self-contained (for the reader-cap audit).
        module = {
            let _parse_span = span_opt(m, Stage::Parse);
            if need_profile {
                Some(trace_module(&reader)?)
            } else {
                reader.source().map(|_| trace_module(&reader)).transpose()?
            }
        };
        if need_stats {
            drops = module.as_ref().map(CapDrops::new);
        }
        // Grabbed before the decode consumes the reader: a saved artifact
        // stays self-contained like the trace it came from.
        if profile_out.is_some() {
            source_for_artifact = reader.source().map(str::to_owned);
        }

        if jobs > 1 || need_advise || recover {
            // Materialize the batch stream once; every analysis reuses it.
            // (--recover rides this path too: the salvage reader indexes the
            // whole file to find intact chunks past a damaged one.) The
            // batches follow the trace's chunk boundaries here, so an
            // explicit --batch-size cannot take effect — say so rather than
            // silently ignoring the flag.
            if batch_size.is_some() {
                eprintln!(
                    "note: --batch-size is ignored with --jobs > 1, --analysis advise or \
                     --recover (batches follow the trace's chunk boundaries)"
                );
            }
            let (batches, s, rep) = decode_trace(path, reader, jobs, recover, m)?;
            summary = s;
            recovery = rep;
            if need_stats {
                let mut fan = MultiSink::new();
                fan.push(&mut counts).push(&mut addrs);
                if let Some(d) = drops.as_mut() {
                    fan.push(d);
                }
                for batch in &batches {
                    fan.on_batch(batch);
                }
            }
            if need_profile {
                let md = module.as_ref().expect("profile requires a module");
                // One partition choice serves the profiler, the per-shard
                // summary, the report's imbalance note and task extraction.
                let spec = ShardSpec::for_batches(&batches, jobs as u32);
                let (p, _, _) = {
                    let _profile_span = span_opt(m, Stage::Profile);
                    profile_batches_par_spec(
                        md,
                        &batches,
                        summary.total_steps,
                        ProfileConfig::default(),
                        spec,
                        ShardTuning::default(),
                        m,
                    )?
                };
                if jobs > 1 {
                    let per_shard = shard_batch_counts_spec(&batches, spec);
                    let rendered: Vec<String> = per_shard.iter().map(|c| c.to_string()).collect();
                    eprintln!(
                        "sharded replay across {jobs} workers, block-cyclic over \
                         {}-word blocks (memory events per shard: {})",
                        spec.block_words(),
                        rendered.join(", ")
                    );
                    shard_counts = Some(per_shard);
                }
                profile = Some(p);
                if need_advise {
                    advise_input = Some((batches, spec));
                }
            }
        } else {
            // Streaming path: one batched pass, no event buffer; the
            // MultiSink fans each batch out to every requested sink. The
            // pass fuses decode with analysis, so it runs under the
            // `profile` stage when profiling (and plain `decode` when only
            // stats were asked for); the reader still counts chunks, bytes
            // and events either way.
            let mut reader = reader.with_metrics(Arc::clone(&metrics));
            let mut prof = if need_profile {
                let md = module.as_ref().expect("profile requires a module");
                Some(AlchemistProfiler::new(md, ProfileConfig::default()))
            } else {
                None
            };
            let mut fan = MultiSink::new();
            if let Some(p) = prof.as_mut() {
                fan.push(p);
            }
            if need_stats {
                fan.push(&mut counts).push(&mut addrs);
                if let Some(d) = drops.as_mut() {
                    fan.push(d);
                }
            }
            summary = {
                let _pass_span = if need_profile {
                    span_opt(m, Stage::Profile)
                } else {
                    span_opt(m, Stage::Decode)
                };
                reader
                    .replay_batched_into(&mut fan, batch_size.unwrap_or(DEFAULT_BATCH_EVENTS))
                    .map_err(|e| trace_read_err(path, &e))?
            };
            drop(fan);
            if let Some(p) = prof {
                let p = p.into_profile(summary.total_steps);
                metrics.add(Counter::ProfileEvents, summary.events);
                metrics.add(
                    Counter::ProfileDeps,
                    p.intra_thread_deps + p.cross_thread_deps,
                );
                profile = Some(p);
            }
        }
    }
    let (replay_wall_ns, _) = metrics.stage(Stage::Total);

    for (i, analysis) in analyses.iter().enumerate() {
        if i > 0 {
            println!();
        }
        match analysis.as_str() {
            "profile" => {
                let profile = profile.as_ref().expect("profiled above");
                let md = module.as_ref().expect("profile requires a module");
                println!(
                    "replayed {} events ({} recorded instructions), {} static constructs",
                    summary.events,
                    summary.total_steps,
                    profile.len()
                );
                println!();
                let mut report = ProfileReport::new(profile, md);
                if let Some(c) = &shard_counts {
                    report = report.with_shard_events(c.clone());
                }
                // A salvaged profile is a lower bound, not the full run;
                // say so on the report itself, not just on stderr.
                if let Some(rep) = recovery.as_ref().filter(|r| !r.is_clean()) {
                    report = report.with_note(salvage_note(rep));
                }
                render_profile_report(&report, p.number(TOP).unwrap_or(10), p.text(WAR_WAW))?;
            }
            "advise" => {
                let md = module.as_ref().expect("advise requires a module");
                let (batches, spec) = advise_input.as_ref().expect("advise keeps the batches");
                // Simulate the top candidate from the same recorded batches:
                // no re-execution anywhere in this pipeline.
                let extract = |best: &Candidate| {
                    extract_tasks_from_batches_par(
                        md,
                        best.extract_config(),
                        batches,
                        summary.total_steps,
                        *spec,
                        m,
                    )
                    .map(Some)
                    .map_err(CliError::from)
                };
                let profile = profile.as_ref().expect("profiled above");
                let threads = p.number(THREADS).unwrap_or(4);
                render_advise(profile, md, threads, "as a future", extract)?;
            }
            "stats" => {
                let (version, infos, source_lines) = stats_scan.as_ref().expect("scanned above");
                render_stats(
                    path,
                    *version,
                    infos,
                    *source_lines,
                    summary.events,
                    summary.total_steps,
                    &counts,
                    &addrs,
                    drops.as_ref(),
                    recovery.as_ref(),
                    replay_wall_ns,
                )?;
            }
            _ => unreachable!("validated in replay_cmd"),
        }
    }
    if let Some(out_path) = profile_out {
        let p = profile.clone().expect("profiled above");
        let mut artifact = ProfileArtifact::new(p);
        if let Some(src) = source_for_artifact {
            artifact = artifact.with_source(src);
        }
        write_artifact(&artifact, out_path, m)?;
        // Stderr, like the shard summary: stdout stays byte-identical
        // across job counts for the parity tests.
        eprintln!("wrote profile artifact to {out_path}");
    }
    p.metrics.emit(&metrics, "replay")?;
    Ok(())
}

/// Prints the parallelization candidates in `profile` and simulates the
/// best one on `threads` threads. `tasks` supplies that candidate's task
/// trace — live extraction, sharded extraction from recorded batches, or
/// an artifact's embedded summary (`None` when it has none); `how` says
/// which in the simulation line.
fn render_advise(
    profile: &DepProfile,
    module: &alchemist_vm::Module,
    threads: usize,
    how: &str,
    tasks: impl FnOnce(&Candidate) -> Result<Option<TaskTrace>, CliError>,
) -> Result<(), CliError> {
    let report = ProfileReport::new(profile, module);
    let candidates = suggest_candidates(&report, module, 0.02, 0);
    if candidates.is_empty() {
        println!("no construct qualifies for asynchronous execution");
        println!("(every sizable construct has violating RAW dependences)");
        return Ok(());
    }
    println!("parallelization candidates (largest first):\n");
    for c in &candidates {
        println!(
            "  {:<30} {:>5.1}% of run, violating RAW: {}",
            c.label,
            c.norm_size * 100.0,
            c.violating_raw
        );
        if !c.privatize.is_empty() {
            println!("      privatize: {}", c.privatize.join(", "));
        }
    }
    let best = &candidates[0];
    let Some(trace) = tasks(best)? else {
        println!(
            "\n(no embedded task summary: merged artifacts drop schedules; \
             re-run `profile save` on a single run or a trace to simulate offline)"
        );
        return Ok(());
    };
    let sim = simulate(&trace, &SimConfig::with_threads(threads));
    println!(
        "\nsimulating `{}` {how} on {} threads: {:.2}x speedup ({} tasks, {} joins)",
        best.label, threads, sim.speedup, sim.tasks, sim.main_joins
    );
    if trace.cross_thread_sharing > 0 {
        println!(
            "cross-thread: {} dependences already run on separate program \
             threads (excluded from serialization cost)",
            trace.cross_thread_sharing
        );
    }
    Ok(())
}

/// Tracks the span of data addresses the replay touches.
#[derive(Default)]
struct AddrSpan {
    seen: bool,
    lo: u32,
    hi: u32,
}

impl AddrSpan {
    fn touch(&mut self, addr: u32) {
        if self.seen {
            self.lo = self.lo.min(addr);
            self.hi = self.hi.max(addr);
        } else {
            (self.seen, self.lo, self.hi) = (true, addr, addr);
        }
    }
}

impl TraceSink for AddrSpan {
    fn on_read(&mut self, _t: Time, addr: u32, _pc: Pc, _tid: Tid) {
        self.touch(addr);
    }
    fn on_write(&mut self, _t: Time, addr: u32, _pc: Pc, _tid: Tid) {
        self.touch(addr);
    }
}

/// Replays global-memory accesses through a shadow memory with the
/// profiler's default reader cap, counting the reads a profiling run of
/// this trace would drop (capped read sets silently lose WAR edges; the
/// stats analysis makes that visible before anyone trusts a profile).
struct CapDrops {
    shadow: ShadowMemory<()>,
    global_words: u32,
}

impl CapDrops {
    fn new(module: &alchemist_vm::Module) -> Self {
        CapDrops {
            shadow: ShadowMemory::with_dense_limit(
                ProfileConfig::default().reader_cap,
                module.global_words,
            ),
            global_words: module.global_words,
        }
    }
}

impl TraceSink for CapDrops {
    fn on_read(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        if addr < self.global_words {
            let _ = self.shadow.on_read(
                addr,
                Access {
                    pc,
                    t,
                    tid,
                    node: (),
                },
            );
        }
    }
    fn on_write(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        if addr < self.global_words {
            // The audit only wants the shadow's counters; the detected
            // dependences themselves are discarded.
            self.shadow.on_write(
                addr,
                Access {
                    pc,
                    t,
                    tid,
                    node: (),
                },
                &mut |_, _| {},
            );
        }
    }
}

/// Prints the stats section from sinks already fed by the shared decode
/// pass plus the header-only chunk scan.
#[allow(clippy::too_many_arguments)]
fn render_stats(
    path: &str,
    version: u16,
    infos: &[ChunkInfo],
    source_lines: Option<usize>,
    events: u64,
    total_steps: u64,
    counts: &CountingSink,
    addrs: &AddrSpan,
    drops: Option<&CapDrops>,
    recovery: Option<&RecoveryReport>,
    wall_ns: u64,
) -> Result<(), CliError> {
    let file_bytes = std::fs::metadata(path)
        .map_err(|e| CliError::io(format!("cannot stat {path}: {e}")))?
        .len();
    let payload: u64 = infos.iter().map(|c| c.payload_bytes).sum();
    println!("trace {path}: format v{version}");
    match source_lines {
        Some(n) => println!("embedded source: yes ({n} lines)"),
        None => println!("embedded source: no"),
    }
    println!(
        "chunks: {} ({} payload bytes), file {} bytes",
        infos.len(),
        payload,
        file_bytes
    );
    if let Some(rep) = recovery {
        if rep.is_clean() {
            println!("recovery: clean (all {} chunk(s) intact)", rep.chunks_total);
        } else {
            println!(
                "recovery: skipped {} of {} chunk(s), >= {} event(s) lost \
                 ({} CRC mismatch(es), {} truncation(s), {} decode error(s))",
                rep.chunks_skipped,
                rep.chunks_total,
                rep.events_lost,
                rep.crc_mismatches,
                rep.truncations,
                rep.decode_errors
            );
            if !rep.footer_recovered {
                println!("recovery: footer lost; total steps is a lower-bound estimate");
            }
        }
    }
    println!(
        "events: {} total — enters {}, exits {}, blocks {}, predicates {}, reads {}, writes {}",
        events,
        counts.enters,
        counts.exits,
        counts.blocks,
        counts.predicates,
        counts.reads,
        counts.writes
    );
    println!(
        "encoded size: {:.2} bytes/event over {} recorded instructions",
        if events == 0 {
            0.0
        } else {
            file_bytes as f64 / events as f64
        },
        total_steps
    );
    // Wall-clock throughput is inherently run-dependent, so — like the
    // per-shard summary — it goes to stderr, keeping stdout byte-identical
    // across job counts and repeat runs (the determinism guarantee the CLI
    // parity tests diff for).
    if wall_ns > 0 && events > 0 {
        let secs = wall_ns as f64 / 1e9;
        eprintln!(
            "throughput: {:.0} events/sec ({:.1} ns/event) over {:.3} s wall time",
            events as f64 / secs,
            wall_ns as f64 / events as f64,
            secs
        );
    }
    if let (Some(first), Some(last)) = (infos.first(), infos.last()) {
        println!("time range: [{}, {}]", first.t_first, last.t_last);
    }
    if addrs.seen {
        println!("data addresses touched: [{}, {}]", addrs.lo, addrs.hi);
    }
    if let Some(d) = drops {
        println!(
            "reads dropped at reader cap {}: {}{}",
            ProfileConfig::default().reader_cap,
            d.shadow.dropped_readers,
            if d.shadow.dropped_readers > 0 {
                " (profiling this trace undercounts WAR edges)"
            } else {
                ""
            }
        );
        let st = d.shadow.stats();
        println!(
            "shadow layout: {} page(s) of {} cells faulted in, {} read-set \
             spill(s) past the inline capacity of {}{}",
            st.pages_allocated,
            alchemist_core::PAGE_WORDS,
            st.read_set_spills,
            alchemist_core::INLINE_READERS,
            if st.read_set_spills > 0 {
                " (some read sets left the allocation-free inline path)"
            } else {
                " (profiling this trace is allocation-free in steady state)"
            }
        );
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn workloads_cmd(p: Parsed) -> Result<(), CliError> {
    let scale = p.scale().unwrap_or(Scale::Tiny);
    if p.switch(JSON) {
        println!("[");
        let suite = alchemist_workloads::all();
        for (i, w) in suite.iter().enumerate() {
            let speedup = w
                .parallel
                .as_ref()
                .and_then(|p| p.paper_speedup)
                .map_or("null".to_owned(), |s| format!("{s}"));
            // One run per workload at the requested --scale (default tiny)
            // yields the exact event count a recording of it would contain
            // and — via an in-memory trace writer and a profiler riding the
            // same run — the exact encoded byte sizes of both artifacts
            // (the suite is deterministic, so these are stable facts, not
            // estimates).
            let module = w.module();
            let mut counts = CountingSink::default();
            let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
            let mut writer = trace_writer(Vec::new(), None, &module, false)
                .map_err(|e| CliError::bare(format!("workload {}: {e}", w.name)))?;
            let out = {
                let mut fan = MultiSink::new();
                fan.push(&mut counts).push(&mut writer).push(&mut prof);
                alchemist_vm::run(&module, &w.exec_config(scale), &mut fan)
                    .map_err(|e| CliError::bare(format!("workload {}: {e}", w.name)))?
            };
            let (_, tstats) = writer
                .finish(out.steps)
                .map_err(|e| CliError::bare(format!("workload {}: {e}", w.name)))?;
            // Like trace_bytes, profile_bytes is the source-less artifact:
            // the size of the data, not of the embedded program text.
            let profile_bytes = ProfileArtifact::new(prof.into_profile(out.steps))
                .to_bytes()
                .len();
            let events = counts.enters
                + counts.exits
                + counts.blocks
                + counts.predicates
                + counts.reads
                + counts.writes;
            println!(
                "  {{\"name\": \"{}\", \"loc\": {}, \"description\": \"{}\", \"source\": \"{}\", \
                 \"threaded\": {}, \"events\": {}, \"steps\": {}, \"trace_bytes\": {}, \
                 \"profile_bytes\": {}, \"paper_speedup\": {}}}{}",
                json_escape(w.name),
                w.loc(),
                json_escape(w.description),
                json_escape(w.source_path),
                module.uses_threads(),
                events,
                out.steps,
                tstats.bytes,
                profile_bytes,
                speedup,
                if i + 1 < suite.len() { "," } else { "" }
            );
        }
        println!("]");
    } else {
        println!("{:<12} {:>5}  description", "name", "LOC");
        for w in alchemist_workloads::all() {
            println!("{:<12} {:>5}  {}", w.name, w.loc(), w.description);
        }
    }
    Ok(())
}
