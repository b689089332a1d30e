//! Chunk-parallel trace decoding.
//!
//! `.alct` chunks are self-contained — each carries its own event count and
//! reseeds the delta codec at its `t_first` — so after the cheap sequential
//! scan that slices the stream into [`RawChunk`]s, every payload decodes
//! independently. [`decode_batches_par_with`] fans the chunks out to scoped
//! worker threads (work-stealing over an atomic cursor, so a few oversized
//! chunks cannot serialize the pool), decodes each one straight into an
//! [`EventBatch`] through the crate's one row decoder
//! ([`format::decode_chunk_into`]) and returns the batches in trace order.
//!
//! Error semantics match the sequential reader: the error reported is the
//! one the sequential decoder would have hit first — a payload error in an
//! earlier chunk wins over a structural error further on — and no events
//! are returned. [`decode_batches_par_recover`] is the salvage variant: it
//! skips damaged chunks instead of failing.

use crate::error::TraceError;
use crate::format;
use crate::reader::{RawChunk, RecoveryReport, ReplaySummary, TraceReader};
use alchemist_obs::{span_opt, Counter, Hist, Metrics, Stage};
use alchemist_vm::EventBatch;
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Decodes one raw chunk into a fresh batch, recording the chunk's decode
/// time and size into `metrics` when it decoded.
fn decode_chunk_timed(
    chunk: &RawChunk,
    metrics: Option<&Metrics>,
) -> Result<EventBatch, TraceError> {
    let t0 = metrics.map(|_| Instant::now());
    let mut batch = EventBatch::new();
    format::decode_chunk_into(chunk.head(), &chunk.payload, &mut batch)?;
    if let (Some(m), Some(t0)) = (metrics, t0) {
        m.observe_ns(Hist::DecodeChunkNs, t0.elapsed().as_nanos() as u64);
        m.incr(Counter::TraceChunksDecoded);
        m.add(Counter::TraceBytesDecoded, chunk.payload.len() as u64);
    }
    Ok(batch)
}

/// Decodes every chunk ([`decode_chunk_timed`]) on `jobs` worker threads
/// (work-stealing over an atomic cursor) and returns the per-chunk results
/// in trace order. `jobs <= 1` decodes inline.
fn decode_chunks_ordered(
    chunks: &[RawChunk],
    jobs: usize,
    metrics: Option<&Metrics>,
) -> Vec<Result<EventBatch, TraceError>> {
    let decode = |chunk: &RawChunk| decode_chunk_timed(chunk, metrics);
    if jobs <= 1 {
        return chunks.iter().map(decode).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (cursor, decode) = (&cursor, &decode);
    let mut slots: Vec<(usize, Result<EventBatch, TraceError>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(i) else {
                            return done;
                        };
                        done.push((i, decode(chunk)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("decode worker panicked"))
            .collect()
    });
    slots.sort_unstable_by_key(|(i, _)| *i);
    slots.into_iter().map(|(_, r)| r).collect()
}

/// Decodes a whole trace chunk-parallel on `jobs` worker threads into one
/// [`EventBatch`] per chunk, whose rows concatenate to exactly the
/// sequential reader's stream. `jobs <= 1` (or a single chunk) decodes
/// inline. With `metrics`, the fan-out runs under a `decode` span and
/// records per-chunk latency ([`Hist::DecodeChunkNs`]) and the
/// chunk/byte/event counters; with `None` there is no clock read at all.
///
/// # Errors
///
/// Structural errors from the chunk scan, or a payload decode error: the
/// one the sequential reader would report, which decodes each chunk before
/// reading the next head, so an earlier payload error wins over a later
/// scan failure.
///
/// # Examples
///
/// ```
/// use alchemist_trace::{decode_batches_par_with, TraceReader, TraceWriter};
/// use alchemist_vm::{compile_source, run, Event, ExecConfig, RecordingSink};
///
/// let src = "int g; int main() { int i; for (i = 0; i < 64; i++) g += i; return g; }";
/// let module = compile_source(src)?;
/// let mut writer = TraceWriter::new(Vec::new(), None).unwrap().with_chunk_capacity(32);
/// let out = run(&module, &ExecConfig::default(), &mut writer).unwrap();
/// let (bytes, _) = writer.finish(out.steps).unwrap();
///
/// let mut live = RecordingSink::default();
/// run(&module, &ExecConfig::default(), &mut live).unwrap();
///
/// let reader = TraceReader::new(bytes.as_slice()).unwrap();
/// let (batches, summary) = decode_batches_par_with(reader, 4, None).unwrap();
/// let events: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
/// assert_eq!(events, live.events);
/// assert_eq!(summary.total_steps, out.steps);
/// # Ok::<(), alchemist_lang::LangError>(())
/// ```
pub fn decode_batches_par_with<R: Read>(
    mut reader: TraceReader<R>,
    jobs: usize,
    metrics: Option<&Metrics>,
) -> Result<(Vec<EventBatch>, ReplaySummary), TraceError> {
    let _decode_span = span_opt(metrics, Stage::Decode);
    let (chunks, end) = reader.read_raw_chunks_partial();
    let jobs = jobs.max(1).min(chunks.len().max(1));
    let batches = decode_chunks_ordered(&chunks, jobs, metrics)
        .into_iter()
        .collect::<Result<Vec<EventBatch>, TraceError>>()?;
    let total_steps = end?;
    let events = batches.iter().map(|b| b.len() as u64).sum();
    if let Some(m) = metrics {
        m.add(Counter::TraceEventsDecoded, events);
    }
    Ok((
        batches,
        ReplaySummary {
            events,
            total_steps,
        },
    ))
}

/// Salvage twin of [`decode_batches_par_with`]: skips corrupt chunks
/// instead of aborting and never fails past the header.
///
/// The chunk scan drops chunks with bad CRCs or truncated payloads
/// ([`TraceReader::read_raw_chunks_recover`]); this layer additionally
/// drops chunks whose payloads fail to *decode* — the only way v1/v2
/// corruption (no CRC) can be detected — and folds those into the same
/// [`RecoveryReport`]. Surviving batches are in trace order; the summary's
/// `total_steps` is exact when the footer survived and a lower-bound
/// estimate otherwise.
pub fn decode_batches_par_recover<R: Read>(
    mut reader: TraceReader<R>,
    jobs: usize,
    metrics: Option<&Metrics>,
) -> (Vec<EventBatch>, ReplaySummary, RecoveryReport) {
    let _decode_span = span_opt(metrics, Stage::Decode);
    let (chunks, total_steps, mut report) = reader.read_raw_chunks_recover();
    let jobs = jobs.max(1).min(chunks.len().max(1));
    let decoded = decode_chunks_ordered(&chunks, jobs, metrics);
    let mut batches = Vec::with_capacity(chunks.len());
    let mut events = 0u64;
    for (chunk, result) in chunks.iter().zip(decoded) {
        match result {
            Ok(batch) => {
                events += batch.len() as u64;
                batches.push(batch);
            }
            Err(err) => {
                // The scan credited this chunk as salvaged; take it back.
                report.events_salvaged -= chunk.events;
                report.record_failure(&err, chunk.events, None);
            }
        }
    }
    if let Some(m) = metrics {
        m.add(Counter::TraceEventsDecoded, events);
    }
    (
        batches,
        ReplaySummary {
            events,
            total_steps,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use alchemist_lang::hir::FuncId;
    use alchemist_vm::{Event, Pc, RecordingSink, Tid, TraceSink};

    fn sample_trace(chunk_capacity: usize, rounds: u32) -> (Vec<u8>, RecordingSink) {
        sample_trace_with(
            TraceWriter::new(Vec::new(), Some("int main() { return 0; }")).unwrap(),
            chunk_capacity,
            rounds,
            |_| Tid::MAIN,
        )
    }

    fn sample_trace_with(
        w: TraceWriter<Vec<u8>>,
        chunk_capacity: usize,
        rounds: u32,
        tid_of: impl Fn(u32) -> Tid,
    ) -> (Vec<u8>, RecordingSink) {
        let mut live = RecordingSink::default();
        let mut w = w.with_chunk_capacity(chunk_capacity);
        let mut t = 0;
        for i in 0..rounds {
            let tid = tid_of(i);
            live.on_enter_function(t, FuncId(i % 3), 8 * i, tid);
            w.on_enter_function(t, FuncId(i % 3), 8 * i, tid);
            t += 2;
            live.on_read(t, i, Pc(i * 5), tid);
            w.on_read(t, i, Pc(i * 5), tid);
            t += 1;
            live.on_write(t, i + 100, Pc(i * 5 + 1), tid);
            w.on_write(t, i + 100, Pc(i * 5 + 1), tid);
            t += 40;
            live.on_exit_function(t, FuncId(i % 3), tid);
            w.on_exit_function(t, FuncId(i % 3), tid);
            t += 1;
        }
        let (bytes, _) = w.finish(t).unwrap();
        (bytes, live)
    }

    /// Decodes `bytes` with `jobs` workers and flattens the batches.
    fn decode_flat(bytes: &[u8], jobs: usize) -> Result<Vec<Event>, TraceError> {
        let (batches, _) = decode_batches_par_with(TraceReader::new(bytes)?, jobs, None)?;
        Ok(batches.iter().flat_map(|b| b.iter()).collect())
    }

    #[test]
    fn parallel_batch_decode_equals_event_decode() {
        let (bytes, live) = sample_trace(7, 40);
        for jobs in [1usize, 2, 4, 9] {
            let reader = TraceReader::new(bytes.as_slice()).unwrap();
            let (batches, summary) = decode_batches_par_with(reader, jobs, None).unwrap();
            let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
            assert_eq!(flat, live.events, "jobs={jobs}");
            assert_eq!(summary.events, live.events.len() as u64);
            // One batch per event-bearing chunk, each matching its chunk.
            let infos = TraceReader::new(bytes.as_slice())
                .unwrap()
                .read_chunk_infos()
                .unwrap();
            assert_eq!(batches.len(), infos.len(), "jobs={jobs}");
            for (b, info) in batches.iter().zip(&infos) {
                assert_eq!(b.len() as u64, info.events, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn metrics_instrumented_decode_matches_uninstrumented() {
        let (bytes, live) = sample_trace(7, 40);
        let m = Metrics::new();
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        let (batches, summary) = decode_batches_par_with(reader, 4, Some(&m)).unwrap();
        let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
        assert_eq!(flat, live.events);
        assert_eq!(summary.events, live.events.len() as u64);

        let infos = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_chunk_infos()
            .unwrap();
        assert_eq!(m.get(Counter::TraceChunksDecoded), infos.len() as u64);
        assert_eq!(m.get(Counter::TraceEventsDecoded), live.events.len() as u64);
        assert!(m.get(Counter::TraceBytesDecoded) > 0);
        let (count, _total) = m.hist_totals(Hist::DecodeChunkNs);
        assert_eq!(count, infos.len() as u64);
        let (wall, calls) = m.stage(Stage::Decode);
        assert_eq!(calls, 1);
        assert!(wall > 0);
    }

    #[test]
    fn parallel_decode_of_empty_trace() {
        let (bytes, _) = TraceWriter::new(Vec::new(), None)
            .unwrap()
            .finish(5)
            .unwrap();
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        let (batches, summary) = decode_batches_par_with(reader, 8, None).unwrap();
        assert!(batches.is_empty());
        assert_eq!(summary.events, 0);
        assert_eq!(summary.total_steps, 5);
    }

    #[test]
    fn more_jobs_than_chunks_is_fine() {
        let (bytes, live) = sample_trace(1000, 5);
        assert_eq!(decode_flat(&bytes, 32).unwrap(), live.events);
    }

    #[test]
    fn corruption_behaves_like_the_sequential_reader() {
        // Flip every byte position in turn: wherever the sequential decoder
        // errors, the parallel decoder must error too (and where the flip
        // happens to be benign, both must deliver the same events).
        let (bytes, _) = sample_trace(7, 12);
        for pos in (8..bytes.len()).step_by(13) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xff;
            let seq: Result<Vec<Event>, TraceError> = match TraceReader::new(corrupt.as_slice()) {
                Ok(r) => r.collect(),
                Err(e) => Err(e),
            };
            let par = decode_flat(&corrupt, 4);
            match seq {
                Ok(events) => {
                    let par_events = par.unwrap_or_else(|e| {
                        panic!("flip at {pos}: sequential ok, parallel errored: {e}")
                    });
                    assert_eq!(par_events, events, "flip at {pos}");
                }
                Err(_) => assert!(par.is_err(), "flip at {pos}: parallel swallowed the error"),
            }
        }
    }

    #[test]
    fn parallel_decode_preserves_v2_thread_ids() {
        let (bytes, live) =
            sample_trace_with(TraceWriter::new_v2(Vec::new(), None).unwrap(), 7, 40, |i| {
                Tid(i % 5)
            });
        assert!(live.events.iter().any(|e| e.tid() != Tid::MAIN));
        for jobs in [1usize, 2, 4] {
            assert_eq!(
                decode_flat(&bytes, jobs).unwrap(),
                live.events,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn recover_decode_of_a_clean_trace_matches_normal_decode() {
        let fixtures = [
            sample_trace_with(TraceWriter::new(Vec::new(), None).unwrap(), 7, 40, |_| {
                Tid::MAIN
            }),
            sample_trace_with(TraceWriter::new_v2(Vec::new(), None).unwrap(), 7, 40, |i| {
                Tid(i % 5)
            }),
            sample_trace_with(TraceWriter::new_v3(Vec::new(), None).unwrap(), 7, 40, |i| {
                Tid(i % 5)
            }),
        ];
        for (bytes, live) in &fixtures {
            let reader = TraceReader::new(bytes.as_slice()).unwrap();
            let (batches, summary, report) = decode_batches_par_recover(reader, 4, None);
            assert!(report.is_clean(), "{report:?}");
            let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
            assert_eq!(flat, live.events);
            assert_eq!(summary.events, live.events.len() as u64);
            assert_eq!(report.events_salvaged, summary.events);
        }
    }

    #[test]
    fn recover_decode_salvages_prefixes_of_truncated_traces() {
        let (bytes, live) = sample_trace(7, 40);
        for cut in (10..bytes.len()).step_by(17) {
            let Ok(reader) = TraceReader::new(&bytes[..cut]) else {
                continue; // cut inside the header: nothing to salvage
            };
            let (batches, summary, report) = decode_batches_par_recover(reader, 4, None);
            let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
            assert_eq!(
                flat[..],
                live.events[..flat.len()],
                "cut={cut}: salvage must be a clean prefix"
            );
            assert_eq!(summary.events, flat.len() as u64);
            assert!(
                !report.is_clean() || cut == bytes.len(),
                "cut={cut}: truncation must be reported"
            );
        }
    }

    #[test]
    fn recover_decode_never_errors_on_flipped_bytes() {
        let (bytes, live) = sample_trace(7, 12);
        for pos in (8..bytes.len()).step_by(13) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xff;
            let Ok(reader) = TraceReader::new(corrupt.as_slice()) else {
                continue;
            };
            let (batches, summary, report) = decode_batches_par_recover(reader, 4, None);
            let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
            assert_eq!(summary.events, flat.len() as u64, "flip at {pos}");
            assert_eq!(report.events_salvaged, summary.events, "flip at {pos}");
            if report.is_clean() {
                assert_eq!(flat, live.events, "flip at {pos} was claimed clean");
            }
        }
    }

    #[test]
    fn recover_decode_skips_crc_corrupt_chunks_on_v3() {
        let (bytes, live) =
            sample_trace_with(TraceWriter::new_v3(Vec::new(), None).unwrap(), 7, 40, |i| {
                Tid(i % 3)
            });
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        let (clean_batches, _, _) = decode_batches_par_recover(reader, 1, None);
        assert!(clean_batches.len() >= 3);
        // Corrupt one payload byte of an interior chunk.
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let (raw, _, _) = r.read_raw_chunks_recover();
        let needle = raw[1].payload.as_slice();
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap();
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x80;
        let reader = TraceReader::new(corrupt.as_slice()).unwrap();
        let (batches, summary, report) = decode_batches_par_recover(reader, 4, None);
        assert_eq!(report.chunks_skipped, 1, "{report:?}");
        assert_eq!(report.crc_mismatches, 1);
        assert!(report.footer_recovered);
        let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
        let expect: Vec<Event> = clean_batches
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .flat_map(|(_, b)| b.iter())
            .collect();
        assert_eq!(flat, expect, "all chunks but the corrupt one survive");
        assert_eq!(summary.events, live.events.len() as u64 - raw[1].events);
    }

    #[test]
    fn raw_chunks_partition_the_events() {
        let (bytes, live) = sample_trace(8, 25);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let (chunks, total_steps) = r.read_raw_chunks().unwrap();
        assert!(chunks.len() > 1);
        assert_eq!(
            chunks.iter().map(|c| c.events).sum::<u64>(),
            live.events.len() as u64
        );
        assert!(total_steps > 0);
        let mut batch = EventBatch::new();
        let mut rejoined: Vec<Event> = Vec::new();
        for c in &chunks {
            format::decode_chunk_into(c.head(), &c.payload, &mut batch).unwrap();
            rejoined.extend(batch.iter());
        }
        assert_eq!(rejoined, live.events);
    }
}
