//! Recording: a [`TraceWriter`] is a [`TraceSink`] that streams events into
//! the chunked binary format.

use crate::error::TraceError;
use crate::format::{self, CodecState};
use crate::varint;
use alchemist_lang::hir::FuncId;
use alchemist_obs::{Counter, Hist, Metrics, Stage};
use alchemist_vm::{BlockId, EventBatch, EventTag, Pc, Tid, Time, TraceSink};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// How many events a chunk holds before it is flushed.
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;

/// Default checkpoint cadence: the underlying writer is flushed after every
/// this many chunks, bounding how much a crash mid-record can lose to
/// OS/BufWriter buffering (the salvage reader recovers everything up to the
/// last complete chunk that reached the file).
pub const DEFAULT_CHECKPOINT_CHUNKS: u64 = 16;

// One default batch fills exactly one default chunk — replay's default
// dispatch granularity and the docs rely on the coupling, so pin it.
const _: () = assert!(DEFAULT_CHUNK_EVENTS == alchemist_vm::DEFAULT_BATCH_EVENTS);

/// Sizes of a finished recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Events recorded.
    pub events: u64,
    /// Chunks written (excluding the footer).
    pub chunks: u64,
    /// Total bytes written, header and footer included.
    pub bytes: u64,
}

impl TraceStats {
    /// Average encoded size of one event, header/footer overhead included.
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.bytes as f64 / self.events as f64
        }
    }
}

/// Streams [`TraceSink`] events into a writer in `.alct` format.
///
/// Lend it to the interpreter with `&mut` (sinks are implemented for
/// mutable references), then call [`TraceWriter::finish`] with the run's
/// final step count to flush the last chunk and the footer.
///
/// `TraceSink` methods cannot return errors, so I/O failures during
/// recording are deferred: the writer goes quiescent on the first failure
/// and [`TraceWriter::finish`] reports it.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    /// Format version being written (1, 2 or 3).
    version: u16,
    /// Encoded payload of the chunk being built.
    buf: Vec<u8>,
    /// Encoded thread-id column of the chunk being built (v2 and later).
    tid_col: Vec<u8>,
    state: CodecState,
    chunk_events: u64,
    chunk_t_first: Time,
    chunk_t_last: Time,
    chunk_capacity: usize,
    /// Flush the underlying writer every this many chunks (0 = never).
    checkpoint_interval: u64,
    events: u64,
    chunks: u64,
    bytes: u64,
    deferred: Option<TraceError>,
    metrics: Option<Arc<Metrics>>,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header immediately.
    ///
    /// Pass the program's mini-C source as `source` to make the trace
    /// self-contained (replay can recompile the module from the file
    /// alone).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if writing the header fails.
    pub fn new(out: W, source: Option<&str>) -> Result<Self, TraceError> {
        Self::new_with_version(out, source, format::VERSION)
    }

    /// Creates a v2 writer: each chunk carries a per-event thread-id
    /// column, so events from `spawn`ed threads keep their [`Tid`].
    ///
    /// Single-threaded recordings should use [`TraceWriter::new`] — v1
    /// output is byte-for-byte what older tooling expects.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if writing the header fails.
    pub fn new_v2(out: W, source: Option<&str>) -> Result<Self, TraceError> {
        Self::new_with_version(out, source, format::VERSION_V2)
    }

    /// Creates a v3 writer: the v2 layout plus a per-chunk CRC-32, so a
    /// reader can positively detect corruption and salvage around it
    /// (`replay --recover`). Costs 4 bytes per chunk.
    ///
    /// v1/v2 output from the other constructors stays byte-for-byte
    /// unchanged — the CRC word exists only in v3 files.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if writing the header fails.
    pub fn new_v3(out: W, source: Option<&str>) -> Result<Self, TraceError> {
        Self::new_with_version(out, source, format::VERSION_V3)
    }

    fn new_with_version(
        mut out: W,
        source: Option<&str>,
        version: u16,
    ) -> Result<Self, TraceError> {
        let mut header = Vec::with_capacity(16 + source.map_or(0, str::len));
        header.extend_from_slice(&format::MAGIC);
        header.extend_from_slice(&version.to_le_bytes());
        let flags = if source.is_some() {
            format::FLAG_SOURCE
        } else {
            0
        };
        header.extend_from_slice(&flags.to_le_bytes());
        if let Some(src) = source {
            varint::write_u64(&mut header, src.len() as u64);
            header.extend_from_slice(src.as_bytes());
        }
        out.write_all(&header)?;
        Ok(TraceWriter {
            out,
            version,
            buf: Vec::with_capacity(4 * DEFAULT_CHUNK_EVENTS),
            tid_col: Vec::new(),
            state: CodecState::new(0),
            chunk_events: 0,
            chunk_t_first: 0,
            chunk_t_last: 0,
            chunk_capacity: DEFAULT_CHUNK_EVENTS,
            checkpoint_interval: DEFAULT_CHECKPOINT_CHUNKS,
            events: 0,
            chunks: 0,
            bytes: header.len() as u64,
            deferred: None,
            metrics: None,
        })
    }

    /// Attaches a metrics sink: every chunk flush records its latency
    /// (`encode` stage + [`Hist::EncodeChunkNs`]) and [`finish`] folds in
    /// total chunks/bytes/events written. Costs one clock read per chunk,
    /// nothing per event.
    ///
    /// [`finish`]: TraceWriter::finish
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Format version this writer emits (1, 2 or 3).
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Overrides the events-per-chunk flush threshold (minimum 1).
    pub fn with_chunk_capacity(mut self, events: usize) -> Self {
        self.chunk_capacity = events.max(1);
        self
    }

    /// Overrides the checkpoint cadence: the underlying writer is flushed
    /// after every `chunks` complete chunks (0 disables checkpointing).
    /// Defaults to [`DEFAULT_CHECKPOINT_CHUNKS`].
    pub fn with_checkpoint_interval(mut self, chunks: u64) -> Self {
        self.checkpoint_interval = chunks;
        self
    }

    /// Events recorded so far.
    pub fn events_recorded(&self) -> u64 {
        self.events
    }

    /// Timestamp of the most recent event, 0 before the first one.
    ///
    /// An interrupted recording has no final step count to put in the
    /// footer; `last_event_time() + 1` is the same lower-bound estimate the
    /// salvage reader derives for a footer-less trace, so the CLI's SIGINT
    /// path finalizes with it.
    pub fn last_event_time(&self) -> Time {
        self.chunk_t_last
    }

    /// Bytes emitted so far (flushed chunks only).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Encodes one row (the columns of an [`EventBatch`] row) into the
    /// chunk being built, flushing the chunk when it reaches capacity.
    #[inline]
    fn record(&mut self, tag: EventTag, t: Time, addr: u32, pc: u32, aux: u32, tid: Tid) {
        if self.deferred.is_some() {
            return;
        }
        let v2 = self.version >= format::VERSION_V2;
        if !v2 && tid != Tid::MAIN {
            // v1 has no thread-id column; silently dropping tids would
            // corrupt the recording, so fail the run at finish().
            self.deferred = Some(TraceError::Malformed(
                "non-main thread event recorded under trace format v1",
            ));
            return;
        }
        if self.chunk_events == 0 {
            self.state = CodecState::new(t);
            self.chunk_t_first = t;
        }
        self.chunk_t_last = t;
        if v2 {
            format::encode_tid(&mut self.state, tid.0, &mut self.tid_col);
        }
        format::encode_row(&mut self.state, tag, t, addr, pc, aux, &mut self.buf);
        self.chunk_events += 1;
        self.events += 1;
        if self.chunk_events as usize >= self.chunk_capacity {
            if let Err(e) = self.flush_chunk() {
                self.deferred = Some(e);
            }
        }
    }

    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        if self.chunk_events == 0 {
            return Ok(());
        }
        let t0 = self.metrics.as_ref().map(|_| Instant::now());
        // v2 payload = thread-id column, then the v1 event stream. Both are
        // self-delimiting varint sequences, so no inner length prefix.
        let mut head = Vec::with_capacity(24);
        varint::write_u64(&mut head, (self.tid_col.len() + self.buf.len()) as u64);
        varint::write_u64(&mut head, self.chunk_events);
        varint::write_u64(&mut head, self.chunk_t_first);
        varint::write_u64(&mut head, self.chunk_t_last - self.chunk_t_first);
        if self.version >= format::VERSION_V3 {
            // v3: CRC-32 of the payload (tid column + event stream), not
            // counted in payload_len, between the head varints and payload.
            let crc = format::crc32_concat(&self.tid_col, &self.buf);
            head.extend_from_slice(&crc.to_le_bytes());
        }
        self.out.write_all(&head)?;
        self.out.write_all(&self.tid_col)?;
        self.out.write_all(&self.buf)?;
        self.bytes += (head.len() + self.tid_col.len() + self.buf.len()) as u64;
        self.chunks += 1;
        self.buf.clear();
        self.tid_col.clear();
        self.chunk_events = 0;
        if self.checkpoint_interval != 0 && self.chunks.is_multiple_of(self.checkpoint_interval) {
            self.out.flush()?;
        }
        if let (Some(m), Some(t0)) = (&self.metrics, t0) {
            let ns = t0.elapsed().as_nanos() as u64;
            m.incr(Counter::TraceChunksWritten);
            m.observe_ns(Hist::EncodeChunkNs, ns);
            m.record_span(Stage::Encode, ns);
        }
        Ok(())
    }

    /// Flushes the final chunk, writes the footer carrying `total_steps`,
    /// and returns the inner writer plus size statistics.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error, including any deferred from recording.
    pub fn finish(mut self, total_steps: u64) -> Result<(W, TraceStats), TraceError> {
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        self.flush_chunk()?;
        // Footer: an event_count == 0 chunk whose payload is total_steps.
        let mut payload = Vec::with_capacity(10);
        varint::write_u64(&mut payload, total_steps);
        let mut head = Vec::with_capacity(24);
        varint::write_u64(&mut head, payload.len() as u64);
        varint::write_u64(&mut head, 0);
        varint::write_u64(&mut head, self.chunk_t_last);
        varint::write_u64(&mut head, 0);
        if self.version >= format::VERSION_V3 {
            head.extend_from_slice(&format::crc32(&payload).to_le_bytes());
        }
        self.out.write_all(&head)?;
        self.out.write_all(&payload)?;
        self.bytes += (head.len() + payload.len()) as u64;
        self.out.flush()?;
        let stats = TraceStats {
            events: self.events,
            chunks: self.chunks,
            bytes: self.bytes,
        };
        if let Some(m) = &self.metrics {
            m.add(Counter::TraceEventsWritten, stats.events);
            m.add(Counter::TraceBytesWritten, stats.bytes);
        }
        Ok((self.out, stats))
    }
}

impl<W: Write> TraceSink for TraceWriter<W> {
    fn on_enter_function(&mut self, t: Time, func: FuncId, fp: u32, tid: Tid) {
        self.record(EventTag::Enter, t, fp, 0, func.0, tid);
    }
    fn on_exit_function(&mut self, t: Time, func: FuncId, tid: Tid) {
        self.record(EventTag::Exit, t, 0, 0, func.0, tid);
    }
    fn on_block_entry(&mut self, t: Time, block: BlockId, tid: Tid) {
        self.record(EventTag::Block, t, 0, 0, block.0, tid);
    }
    fn on_predicate(&mut self, t: Time, pc: Pc, block: BlockId, taken: bool, tid: Tid) {
        let tag = if taken {
            EventTag::PredTaken
        } else {
            EventTag::PredNotTaken
        };
        self.record(tag, t, 0, pc.0, block.0, tid);
    }
    fn on_read(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        self.record(EventTag::Read, t, addr, pc.0, 0, tid);
    }
    fn on_write(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        self.record(EventTag::Write, t, addr, pc.0, 0, tid);
    }
    /// Encodes the batch row by row through the same [`format::encode_row`]
    /// call the per-event callbacks make, with no [`Event`] built in
    /// between. Chunks still flush every `chunk_capacity` rows, so the
    /// bytes — chunk boundaries included — equal recording event by event.
    ///
    /// [`Event`]: alchemist_vm::Event
    fn on_batch(&mut self, batch: &EventBatch) {
        if self.deferred.is_some() {
            return;
        }
        for i in 0..batch.len() {
            self.record(
                batch.tag(i),
                batch.time(i),
                batch.addr(i),
                batch.pc(i),
                batch.aux(i),
                batch.tid(i),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alchemist_vm::Event;

    #[test]
    fn header_layout_is_stable() {
        let (bytes, stats) = TraceWriter::new(Vec::new(), None)
            .unwrap()
            .finish(0)
            .unwrap();
        assert_eq!(&bytes[..4], b"ALCT");
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), format::VERSION);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 0, "no flags");
        assert_eq!(stats.events, 0);
        assert_eq!(stats.bytes, bytes.len() as u64);
    }

    #[test]
    fn source_flag_embeds_the_program() {
        let src = "int main() { return 0; }";
        let mut w = TraceWriter::new(Vec::new(), Some(src)).unwrap();
        w.on_block_entry(1, BlockId(0), Tid::MAIN);
        let (bytes, stats) = w.finish(5).unwrap();
        assert_eq!(
            u16::from_le_bytes([bytes[6], bytes[7]]) & format::FLAG_SOURCE,
            format::FLAG_SOURCE
        );
        let hay = String::from_utf8_lossy(&bytes);
        assert!(hay.contains(src), "source embedded verbatim");
        assert_eq!(stats.events, 1);
        assert_eq!(stats.chunks, 1);
    }

    #[test]
    fn chunk_capacity_splits_the_stream() {
        let mut w = TraceWriter::new(Vec::new(), None)
            .unwrap()
            .with_chunk_capacity(4);
        for i in 0..10 {
            w.on_read(i, i as u32, Pc(0), Tid::MAIN);
        }
        let (_, stats) = w.finish(10).unwrap();
        assert_eq!(stats.events, 10);
        assert_eq!(stats.chunks, 3, "4 + 4 + 2 events");
    }

    #[test]
    fn batched_recording_is_byte_identical() {
        let events: Vec<Event> = (0..50u32)
            .map(|i| {
                if i % 3 == 0 {
                    Event::Read {
                        t: u64::from(i),
                        addr: i,
                        pc: Pc(i / 2),
                        tid: Tid::MAIN,
                    }
                } else {
                    Event::Write {
                        t: u64::from(i),
                        addr: i % 7,
                        pc: Pc(i),
                        tid: Tid::MAIN,
                    }
                }
            })
            .collect();
        let mut per_event = TraceWriter::new(Vec::new(), None)
            .unwrap()
            .with_chunk_capacity(8);
        for e in &events {
            e.dispatch(&mut per_event);
        }
        let (expect, _) = per_event.finish(50).unwrap();
        for batch_size in [1usize, 4, 8, 13, 64] {
            let mut w = TraceWriter::new(Vec::new(), None)
                .unwrap()
                .with_chunk_capacity(8);
            for sl in events.chunks(batch_size) {
                w.on_batch(&EventBatch::from_events(sl));
            }
            let (bytes, stats) = w.finish(50).unwrap();
            assert_eq!(bytes, expect, "batch_size={batch_size}");
            assert_eq!(stats.events, 50);
        }
    }

    #[test]
    fn v2_header_declares_version_two() {
        let mut w = TraceWriter::new_v2(Vec::new(), None).unwrap();
        assert_eq!(w.version(), format::VERSION_V2);
        w.on_read(0, 4, Pc(1), Tid(3));
        let (bytes, stats) = w.finish(1).unwrap();
        assert_eq!(&bytes[..4], b"ALCT");
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), format::VERSION_V2);
        assert_eq!(stats.events, 1);
    }

    #[test]
    fn v1_writer_rejects_non_main_tids_at_finish() {
        let mut w = TraceWriter::new(Vec::new(), None).unwrap();
        w.on_read(0, 4, Pc(1), Tid::MAIN);
        w.on_read(1, 5, Pc(2), Tid(1)); // no tid column in v1: deferred error
        assert!(matches!(w.finish(2), Err(TraceError::Malformed(_))));
    }

    #[test]
    fn v2_single_threaded_payload_costs_one_byte_per_event() {
        // The tid column for an all-main chunk is one zero byte per event.
        let record = |mut w: TraceWriter<Vec<u8>>| {
            for i in 0..10u64 {
                w.on_read(i, i as u32, Pc(0), Tid::MAIN);
            }
            w.finish(10).unwrap().1
        };
        let v1 = record(TraceWriter::new(Vec::new(), None).unwrap());
        let v2 = record(TraceWriter::new_v2(Vec::new(), None).unwrap());
        assert_eq!(v2.bytes, v1.bytes + 10);
    }

    #[test]
    fn v3_adds_exactly_one_crc_word_per_chunk_over_v2() {
        let record = |mut w: TraceWriter<Vec<u8>>| {
            for i in 0..10u64 {
                w.on_read(i, i as u32, Pc(0), Tid::MAIN);
            }
            w.finish(10).unwrap()
        };
        let (_, v2) = record(TraceWriter::new_v2(Vec::new(), None).unwrap());
        let (bytes, v3) = record(TraceWriter::new_v3(Vec::new(), None).unwrap());
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), format::VERSION_V3);
        // One data chunk + the footer, 4 CRC bytes each.
        assert_eq!(v3.bytes, v2.bytes + 8);
        assert_eq!(v3.chunks, 1);
    }

    #[test]
    fn deferred_io_errors_surface_at_finish() {
        /// A writer that accepts the header, then fails.
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                self.0 = self.0.saturating_sub(1);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = TraceWriter::new(FailAfter(1), None)
            .unwrap()
            .with_chunk_capacity(1);
        w.on_read(0, 0, Pc(0), Tid::MAIN); // flush fails here, silently deferred
        w.on_read(1, 1, Pc(1), Tid::MAIN); // writer is quiescent
        assert!(matches!(w.finish(2), Err(TraceError::Io(_))));
    }
}
