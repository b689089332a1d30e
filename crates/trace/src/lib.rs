//! # alchemist-trace
//!
//! Durable, replayable execution traces for the Alchemist event stream.
//!
//! The live pipeline couples instrumentation to analysis: the interpreter
//! pushes every [`TraceSink`] event straight into one online profiler, so
//! each additional analysis pays a full re-execution. This crate decouples
//! them. A [`TraceWriter`] — itself a `TraceSink` — records a run into a
//! compact binary artifact (`.alct`); a [`TraceReader`] replays that
//! artifact into *any* other sink, bit-for-bit identical to the live event
//! stream. Record once, then run dependence profiling, WAR/WAW analysis,
//! task extraction and the parallelism advisor as cheap offline passes —
//! or fan one replay out to several consumers at once with [`Tee`] /
//! [`MultiSink`].
//!
//! The format is chunked (self-delimiting blocks carrying their own event
//! counts and time ranges, see [`format`](mod@format)), so replay can skip or window
//! by time without decoding what it does not need, and delta/varint
//! encoded, averaging a few bytes per event. Chunks decode independently
//! of each other, so a trace can also be decoded chunk-parallel across
//! worker threads into [`EventBatch`](alchemist_vm::EventBatch)es
//! ([`decode_batches_par_with`]). Traces can embed the mini-C
//! source of the recorded program, making the artifact self-contained.
//!
//! ## Record, then replay
//!
//! ```
//! use alchemist_trace::{TraceReader, TraceWriter};
//! use alchemist_vm::{compile_source, run, ExecConfig, RecordingSink};
//!
//! let src = "int g; int main() { int i; for (i = 0; i < 5; i++) g += i; return g; }";
//! let module = compile_source(src)?;
//!
//! // Record: the writer is a TraceSink, so the interpreter drives it.
//! let mut writer = TraceWriter::new(Vec::new(), Some(src)).unwrap();
//! let outcome = run(&module, &ExecConfig::default(), &mut writer).unwrap();
//! let (bytes, stats) = writer.finish(outcome.steps).unwrap();
//!
//! // Replay: the recorded stream equals the live one, event for event.
//! let mut live = RecordingSink::default();
//! run(&module, &ExecConfig::default(), &mut live).unwrap();
//! let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
//! assert_eq!(reader.source(), Some(src));
//! let mut replayed = RecordingSink::default();
//! let summary = reader.replay_into(&mut replayed).unwrap();
//! assert_eq!(replayed, live);
//! assert_eq!(summary.total_steps, outcome.steps);
//! assert_eq!(summary.events, stats.events);
//! # Ok::<(), alchemist_lang::LangError>(())
//! ```
//!
//! Corrupt input never panics: every structural defect (foreign magic,
//! future version, mid-chunk EOF, undefined event tag, v3 CRC mismatch)
//! decodes to a typed [`TraceError`]. When losing the damaged part is
//! preferable to losing the whole trace, the salvage path —
//! [`TraceReader::read_raw_chunks_recover`] / [`decode_batches_par_recover`]
//! — skips corrupt or truncated chunks and tallies what was dropped in a
//! [`RecoveryReport`]. Files are produced crash-safely through the
//! [`atomic`] module's write-temp-then-rename commit.
//!
//! Beyond the event stream, the crate also persists the *result* of
//! profiling: the [`alcp`] module defines `.alcp` profile artifacts — a
//! sealed [`DepProfile`](alchemist_core::DepProfile) plus optional
//! embedded source and task summary — with the same varint/delta toolbox
//! and the same typed-error discipline ([`AlcpError`]). Artifacts from
//! separate runs merge offline through the order-independent
//! [`PartialProfile`](alchemist_core::PartialProfile) algebra.
//!
//! [`TraceSink`]: alchemist_vm::TraceSink

#![warn(missing_docs)]

pub mod alcp;
pub mod atomic;
pub mod error;
pub mod format;
pub mod par;
pub mod reader;
pub mod tee;
pub mod varint;
pub mod writer;

pub use alcp::{AlcpError, ProfileArtifact, ALCP_MAGIC, ALCP_VERSION};
pub use atomic::{write_atomic, AtomicFile};
pub use error::TraceError;
pub use par::{decode_batches_par_recover, decode_batches_par_with};
pub use reader::{ChunkInfo, RawChunk, RecoveryReport, ReplaySummary, TraceReader};
pub use tee::{MultiSink, Tee};
pub use writer::{TraceStats, TraceWriter, DEFAULT_CHECKPOINT_CHUNKS, DEFAULT_CHUNK_EVENTS};
