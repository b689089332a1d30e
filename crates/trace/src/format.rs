//! The `.alct` wire format: constants, codec state and the row codec.
//!
//! ## Layout
//!
//! ```text
//! file   := header chunk* footer
//! header := "ALCT" version:u16le flags:u16le [src_len:varint src:bytes]
//! chunk  := payload_len:varint event_count:varint t_first:varint
//!           t_span:varint payload:bytes
//! footer := a chunk with event_count == 0 whose payload is
//!           total_steps:varint
//! ```
//!
//! The `flags` word currently defines bit 0 (`FLAG_SOURCE`): the header
//! carries the mini-C source of the recorded program, which makes the trace
//! self-contained — replay can recompile the module and drive any analysis
//! without the original file.
//!
//! ## Chunks
//!
//! Chunks are self-delimiting (`payload_len` is the exact payload size) and
//! carry their own event count and absolute time range `[t_first, t_first +
//! t_span]`, so a reader can skip a chunk without decoding it — time
//! windowing and chunk-level statistics cost only header decodes. The
//! delta-codec state resets at every chunk boundary, which is what makes
//! chunks independently decodable.
//!
//! ## Events
//!
//! Each event starts with one lead byte: the kind tag in the low 3 bits and
//! an inline timestamp delta in the high 5 bits (values `0..=30`; `31`
//! escapes to an extension varint of `dt - 31`). Remaining fields are
//! zigzag-varint deltas against the previous value of the same field kind
//! within the chunk (previous address for addresses, previous pc for pcs,
//! and so on), so the hot sequential patterns — a scan through an array,
//! events from one code region — encode in one byte per field.
//!
//! ## One row codec
//!
//! The codec works on [`EventBatch`] rows, never on [`Event`] values:
//! [`encode_row`] appends one row's event bytes ([`encode_tid`] its v2
//! thread-id entry), and [`decode_chunk_into`] turns a whole chunk payload
//! into batch columns. Every writer and reader in the crate goes through
//! these functions, so the wire layout is written down once.
//!
//! [`Event`]: alchemist_vm::Event

use crate::error::TraceError;
use crate::varint;
use alchemist_vm::{EventBatch, EventTag, Tid, Time};

/// File magic: the first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"ALCT";

/// Format version 1: the classic single-threaded layout. Still the default
/// for recording — every v1 producer keeps emitting byte-identical files.
pub const VERSION: u16 = 1;

/// Format version 2: identical to v1 except that each event-bearing chunk's
/// payload starts with a *thread-id column* — `event_count` zigzag-varint
/// deltas against the previous tid (starting from 0 at every chunk
/// boundary) — followed by the unchanged v1 event stream.
pub const VERSION_V2: u16 = 2;

/// Format version 3: the v2 layout plus a 4-byte little-endian CRC-32
/// (IEEE) of the payload, written between the four chunk-head varints and
/// the payload itself. `payload_len` does *not* include the CRC word. The
/// footer chunk is checksummed the same way. The CRC detects corruption
/// positively, which is what makes salvage replay (`--recover`) able to
/// skip a damaged chunk and resynchronise at the next one.
pub const VERSION_V3: u16 = 3;

/// Oldest version this reader decodes.
pub const MIN_VERSION: u16 = VERSION;

/// Newest version this reader decodes.
pub const MAX_VERSION: u16 = VERSION_V3;

/// Header flag: the mini-C source is embedded after the flags word.
pub const FLAG_SOURCE: u16 = 1 << 0;

/// All flag bits this version defines; others must be zero.
pub const KNOWN_FLAGS: u16 = FLAG_SOURCE;

/// Sanity cap on one chunk's payload (a corrupt length field must not
/// trigger a multi-gigabyte allocation).
pub const MAX_CHUNK_BYTES: u64 = 64 << 20;

/// Sanity cap on the embedded source size.
pub const MAX_SOURCE_BYTES: u64 = 16 << 20;

/// Largest timestamp delta carried inline in the lead byte.
const DT_INLINE_MAX: u64 = 30;
/// Lead-byte dt field value that escapes to an extension varint.
const DT_ESCAPE: u8 = 31;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `data` —
/// the checksum v3 chunks carry. Table-driven, one table built at compile
/// time; matches the ubiquitous zlib/`cksum -o 3` definition so external
/// tools can verify chunks independently.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_concat(data, &[])
}

/// [`crc32`] over the concatenation `a ++ b`, without materialising it —
/// the writer checksums the tid column and event stream as one payload.
pub fn crc32_concat(a: &[u8], b: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &byte in a.iter().chain(b) {
        crc = TABLE[((crc ^ u32::from(byte)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Per-chunk delta-codec state, identical on both sides of the wire.
#[derive(Debug, Clone, Copy)]
pub struct CodecState {
    prev_t: u64,
    prev_func: u32,
    prev_fp: u32,
    prev_block: u32,
    prev_pc: u32,
    prev_addr: u32,
    prev_tid: u32,
}

impl CodecState {
    /// Fresh state for a chunk whose first event occurs at `t_first`.
    pub fn new(t_first: u64) -> Self {
        CodecState {
            prev_t: t_first,
            prev_func: 0,
            prev_fp: 0,
            prev_block: 0,
            prev_pc: 0,
            prev_addr: 0,
            prev_tid: 0,
        }
    }
}

/// Row kinds by wire tag: the low 3 bits of a lead byte index this table.
/// The wire tag of a row is its [`EventTag`] discriminant.
const WIRE_TAGS: [EventTag; 7] = [
    EventTag::Enter,
    EventTag::Exit,
    EventTag::Block,
    EventTag::PredNotTaken,
    EventTag::PredTaken,
    EventTag::Read,
    EventTag::Write,
];

const _: () = {
    let mut i = 0;
    while i < WIRE_TAGS.len() {
        assert!(
            WIRE_TAGS[i] as usize == i,
            "wire tag must equal the discriminant"
        );
        i += 1;
    }
};

/// Longest encoding of one row: the lead byte, a timestamp extension of at
/// most 10 bytes, and two field deltas. A delta between two `u32` values
/// zigzags below 2^33, so it takes at most 5 bytes.
const MAX_ROW_BYTES: usize = 1 + varint::MAX_VARINT_BYTES + 2 * 5;

/// The encoding of one row, written in place into room reserved at the end
/// of the output.
struct RowBytes<'a> {
    bytes: &'a mut [u8],
    len: usize,
}

impl RowBytes<'_> {
    /// Appends the LEB128 encoding of `v` (the layout of
    /// [`varint::write_u64`]).
    #[inline(always)]
    fn put(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.bytes[self.len] = (v as u8) | 0x80;
            self.len += 1;
            v >>= 7;
        }
        self.bytes[self.len] = v as u8;
        self.len += 1;
    }

    /// Appends the zigzag delta from `*prev` to `new` and advances `*prev`.
    #[inline(always)]
    fn put_delta(&mut self, prev: &mut u32, new: u32) {
        let d = i64::from(new) - i64::from(*prev);
        *prev = new;
        self.put(varint::zigzag(d));
    }
}

/// Appends the encoding of one row to `out`, updating `state`. The columns
/// mean what they mean in an [`EventBatch`] row; columns the tag does not
/// use are ignored. This is the crate's only event encoder.
///
/// Timestamps must be non-decreasing within a chunk (the interpreter's
/// retired-instruction clock guarantees this for live recording).
#[inline]
pub fn encode_row(
    state: &mut CodecState,
    tag: EventTag,
    t: Time,
    addr: u32,
    pc: u32,
    aux: u32,
    out: &mut Vec<u8>,
) {
    debug_assert!(t >= state.prev_t, "timestamps must not run backwards");
    let dt = t.saturating_sub(state.prev_t);
    state.prev_t = t;

    // Room for the widest row is made up front and cut back to the row's
    // length at the end. Building the row in a separate buffer and copying
    // it over costs a store-to-load stall per row, about as much as the
    // encoding itself.
    let start = out.len();
    out.resize(start + MAX_ROW_BYTES, 0);
    let mut row = RowBytes {
        bytes: &mut out[start..],
        len: 1,
    };
    if dt <= DT_INLINE_MAX {
        row.bytes[0] = tag as u8 | ((dt as u8) << 3);
    } else {
        row.bytes[0] = tag as u8 | (DT_ESCAPE << 3);
        row.put(dt - DT_INLINE_MAX - 1);
    }
    match tag {
        EventTag::Enter => {
            row.put_delta(&mut state.prev_func, aux);
            row.put_delta(&mut state.prev_fp, addr);
        }
        EventTag::Exit => row.put_delta(&mut state.prev_func, aux),
        EventTag::Block => row.put_delta(&mut state.prev_block, aux),
        EventTag::PredNotTaken | EventTag::PredTaken => {
            row.put_delta(&mut state.prev_pc, pc);
            row.put_delta(&mut state.prev_block, aux);
        }
        EventTag::Read | EventTag::Write => {
            row.put_delta(&mut state.prev_addr, addr);
            row.put_delta(&mut state.prev_pc, pc);
        }
    }
    let len = row.len;
    out.truncate(start + len);
}

/// Appends one entry of a v2 thread-id column to `out`: the zigzag-varint
/// delta against the chunk's previous entry, which starts from 0 at every
/// chunk boundary like the rest of [`CodecState`]. Runs of same-thread
/// events — the common case under quantum scheduling — encode as one zero
/// byte each.
#[inline]
pub fn encode_tid(state: &mut CodecState, tid: u32, out: &mut Vec<u8>) {
    if tid == state.prev_tid {
        out.push(0);
    } else {
        varint::write_i64(out, i64::from(tid) - i64::from(state.prev_tid));
        state.prev_tid = tid;
    }
}

/// What the row decoder needs to know about a chunk besides its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHead {
    /// Format version the payload was encoded under. v2 and later payloads
    /// open with a thread-id column.
    pub version: u16,
    /// Events the chunk declares.
    pub events: u64,
    /// Timestamp of the chunk's first event (seeds the codec state).
    pub t_first: u64,
}

/// Decodes one chunk payload into `batch`, replacing its rows. This is the
/// crate's only event decoder: the streaming reader, windowed replay and
/// chunk-parallel decode all call it.
///
/// Every column is sized once for the chunk's row count and written by
/// index. The v2 thread-id column decodes straight into the batch's tid
/// column; v1 chunks carry none and decode on [`Tid::MAIN`].
///
/// Decoding is chunk-atomic: on error `batch` is left empty, so no row of
/// a corrupt chunk is ever delivered.
///
/// # Errors
///
/// [`TraceError::Malformed`] when the event count exceeds the payload
/// size, a delta walks a field out of range or bytes trail the last event;
/// [`TraceError::Truncated`] when the payload ends mid-event; and
/// [`TraceError::BadEventTag`] on an undefined kind tag.
pub fn decode_chunk_into(
    head: ChunkHead,
    payload: &[u8],
    batch: &mut EventBatch,
) -> Result<(), TraceError> {
    let result = decode_rows(head, payload, batch);
    if result.is_err() {
        batch.clear();
    }
    result
}

fn decode_rows(head: ChunkHead, payload: &[u8], batch: &mut EventBatch) -> Result<(), TraceError> {
    // Every event is at least one byte, so this bounds hostile counts
    // before the columns are sized.
    if head.events > payload.len() as u64 {
        return Err(TraceError::Malformed("event count exceeds payload size"));
    }
    let n = head.events as usize;
    let cols = batch.columns_for(n);
    let mut state = CodecState::new(head.t_first);
    let mut pos = 0;
    if head.version >= VERSION_V2 {
        for tid in cols.tids.iter_mut() {
            let d = read_delta(payload, &mut pos)?;
            *tid = apply32(&mut state.prev_tid, d, "thread id out of range")?;
        }
    } else {
        cols.tids.fill(Tid::MAIN.0);
    }

    let tags = &mut cols.tags[..n];
    let times = &mut cols.times[..n];
    let addrs = &mut cols.addrs[..n];
    let pcs = &mut cols.pcs[..n];
    let auxs = &mut cols.auxs[..n];
    for i in 0..n {
        let Some(&lead) = payload.get(pos) else {
            return Err(TraceError::Truncated("event lead byte"));
        };
        pos += 1;
        let inline_dt = lead >> 3;
        let dt = if inline_dt == DT_ESCAPE {
            let ext = varint::read_u64(payload, &mut pos)?;
            ext.checked_add(DT_INLINE_MAX + 1)
                .ok_or(TraceError::Malformed("timestamp delta overflows u64"))?
        } else {
            u64::from(inline_dt)
        };
        state.prev_t = state
            .prev_t
            .checked_add(dt)
            .ok_or(TraceError::Malformed("timestamp overflows u64"))?;
        let wire = lead & 0x07;
        let tag = *WIRE_TAGS
            .get(usize::from(wire))
            .ok_or(TraceError::BadEventTag(wire))?;

        // Both deltas are read before either is applied, so a truncated
        // second field reports truncation rather than a range error.
        let (addr, pc, aux) = match tag {
            EventTag::Enter => {
                let dfunc = read_delta(payload, &mut pos)?;
                let dfp = read_delta(payload, &mut pos)?;
                let func = apply32(&mut state.prev_func, dfunc, "function id out of range")?;
                let fp = apply32(&mut state.prev_fp, dfp, "frame pointer out of range")?;
                (fp, 0, func)
            }
            EventTag::Exit => {
                let dfunc = read_delta(payload, &mut pos)?;
                let func = apply32(&mut state.prev_func, dfunc, "function id out of range")?;
                (0, 0, func)
            }
            EventTag::Block => {
                let dblock = read_delta(payload, &mut pos)?;
                let block = apply32(&mut state.prev_block, dblock, "block id out of range")?;
                (0, 0, block)
            }
            EventTag::PredNotTaken | EventTag::PredTaken => {
                let dpc = read_delta(payload, &mut pos)?;
                let dblock = read_delta(payload, &mut pos)?;
                let pc = apply32(&mut state.prev_pc, dpc, "pc out of range")?;
                let block = apply32(&mut state.prev_block, dblock, "block id out of range")?;
                (0, pc, block)
            }
            EventTag::Read | EventTag::Write => {
                let daddr = read_delta(payload, &mut pos)?;
                let dpc = read_delta(payload, &mut pos)?;
                let addr = apply32(&mut state.prev_addr, daddr, "address out of range")?;
                let pc = apply32(&mut state.prev_pc, dpc, "pc out of range")?;
                (addr, pc, 0)
            }
        };
        tags[i] = tag;
        times[i] = state.prev_t;
        addrs[i] = addr;
        pcs[i] = pc;
        auxs[i] = aux;
    }
    if pos != payload.len() {
        return Err(TraceError::Malformed("trailing bytes in chunk"));
    }
    Ok(())
}

/// Reads one zigzag delta, with a fast path for the one-byte encoding that
/// almost every field delta takes.
#[inline(always)]
fn read_delta(buf: &[u8], pos: &mut usize) -> Result<i64, TraceError> {
    match buf.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(varint::unzigzag(u64::from(byte)))
        }
        _ => varint::read_i64(buf, pos),
    }
}

/// Applies `delta` to `*prev`, failing with `what` if the result leaves
/// the `u32` range.
#[inline(always)]
fn apply32(prev: &mut u32, delta: i64, what: &'static str) -> Result<u32, TraceError> {
    let v = i64::from(*prev)
        .checked_add(delta)
        .filter(|v| (0..=i64::from(u32::MAX)).contains(v))
        .ok_or(TraceError::Malformed(what))?;
    *prev = v as u32;
    Ok(*prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alchemist_lang::hir::FuncId;
    use alchemist_vm::{BlockId, Event, Pc};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Enter {
                t: 0,
                func: FuncId(0),
                fp: 16,
                tid: Tid::MAIN,
            },
            Event::Block {
                t: 1,
                block: BlockId(3),
                tid: Tid::MAIN,
            },
            Event::Predicate {
                t: 2,
                pc: Pc(40),
                block: BlockId(3),
                taken: true,
                tid: Tid::MAIN,
            },
            Event::Read {
                t: 3,
                addr: 100,
                pc: Pc(41),
                tid: Tid::MAIN,
            },
            Event::Write {
                t: 4,
                addr: 101,
                pc: Pc(42),
                tid: Tid::MAIN,
            },
            Event::Read {
                t: 1000,
                addr: 5,
                pc: Pc(7),
                tid: Tid::MAIN,
            },
            Event::Exit {
                t: 1001,
                func: FuncId(0),
                tid: Tid::MAIN,
            },
        ]
    }

    /// Encodes `tids` as one chunk's thread-id column.
    fn encode_tids(tids: &[u32]) -> Vec<u8> {
        let mut state = CodecState::new(0);
        let mut buf = Vec::new();
        for &tid in tids {
            encode_tid(&mut state, tid, &mut buf);
        }
        buf
    }

    /// Encodes `events` as one chunk's event stream (no tid column).
    fn encode(t_first: u64, events: &[Event]) -> Vec<u8> {
        let batch = EventBatch::from_events(events);
        let mut state = CodecState::new(t_first);
        let mut buf = Vec::new();
        for i in 0..batch.len() {
            encode_row(
                &mut state,
                batch.tag(i),
                batch.time(i),
                batch.addr(i),
                batch.pc(i),
                batch.aux(i),
                &mut buf,
            );
        }
        buf
    }

    fn decode(
        version: u16,
        t_first: u64,
        n: usize,
        payload: &[u8],
    ) -> Result<Vec<Event>, TraceError> {
        let head = ChunkHead {
            version,
            events: n as u64,
            t_first,
        };
        let mut batch = EventBatch::new();
        decode_chunk_into(head, payload, &mut batch)?;
        Ok(batch.iter().collect())
    }

    #[test]
    fn events_roundtrip_through_the_codec() {
        let events = sample_events();
        let buf = encode(0, &events);
        assert_eq!(decode(VERSION, 0, events.len(), &buf).unwrap(), events);
    }

    #[test]
    fn adjacent_accesses_encode_in_three_bytes() {
        // dt=1, addr +1, pc 0 from the previous access: the hot pattern.
        let mut enc = CodecState::new(0);
        let mut buf = Vec::new();
        encode_row(&mut enc, EventTag::Read, 0, 0, 0, 0, &mut buf);
        let before = buf.len();
        encode_row(&mut enc, EventTag::Read, 1, 1, 0, 0, &mut buf);
        assert_eq!(buf.len() - before, 3);
    }

    #[test]
    fn large_dt_uses_the_escape() {
        let ev = Event::Block {
            t: 1 << 40,
            block: BlockId(0),
            tid: Tid::MAIN,
        };
        let buf = encode(0, &[ev]);
        assert_eq!(buf[0] >> 3, DT_ESCAPE);
        assert_eq!(decode(VERSION, 0, 1, &buf).unwrap(), vec![ev]);
    }

    #[test]
    fn widest_row_fits_the_reserved_room() {
        // Maximal dt extension and two maximal-magnitude field deltas.
        let mut enc = CodecState::new(0);
        let mut buf = Vec::new();
        encode_row(
            &mut enc,
            EventTag::Read,
            u64::MAX,
            u32::MAX,
            u32::MAX,
            0,
            &mut buf,
        );
        encode_row(&mut enc, EventTag::Read, u64::MAX, 0, 0, 0, &mut buf);
        let mut dec = EventBatch::new();
        let head = ChunkHead {
            version: VERSION,
            events: 2,
            t_first: 0,
        };
        decode_chunk_into(head, &buf, &mut dec).unwrap();
        assert_eq!(
            (dec.time(0), dec.addr(0), dec.pc(0)),
            (u64::MAX, u32::MAX, u32::MAX)
        );
        assert_eq!((dec.time(1), dec.addr(1), dec.pc(1)), (u64::MAX, 0, 0));
    }

    #[test]
    fn tid_column_roundtrips_mixed_threads() {
        let tids = [0u32, 0, 1, 1, 2, 0, 7, 7, 3, u32::MAX];
        let events: Vec<Event> = tids
            .iter()
            .enumerate()
            .map(|(i, &tid)| Event::Read {
                t: i as u64,
                addr: i as u32,
                pc: Pc(1),
                tid: Tid(tid),
            })
            .collect();
        let mut payload = encode_tids(&tids);
        payload.extend(encode(0, &events));
        assert_eq!(decode(VERSION_V2, 0, tids.len(), &payload).unwrap(), events);
    }

    #[test]
    fn all_main_tid_column_is_one_byte_per_event() {
        assert_eq!(encode_tids(&[0u32; 16]).len(), 16);
    }

    #[test]
    fn truncated_tid_column_is_a_typed_error() {
        // Three multi-byte tids, cut inside the last one: the declared
        // count still fits the payload size, so the column itself fails.
        let tids = [500u32, 600, 700];
        let buf = encode_tids(&tids);
        assert!(matches!(
            decode(VERSION_V2, 0, tids.len(), &buf[..buf.len() - 1]),
            Err(TraceError::Truncated(_))
        ));
    }

    #[test]
    fn negative_tid_delta_underflow_is_a_typed_error() {
        // A lone delta of -1 would take the running tid below zero.
        let mut buf = Vec::new();
        varint::write_i64(&mut buf, -1);
        assert!(matches!(
            decode(VERSION_V2, 0, 1, &buf),
            Err(TraceError::Malformed("thread id out of range"))
        ));
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // One flipped bit must change the sum.
        assert_ne!(crc32(b"alchemist"), crc32(b"alchemisu"));
        // The concat form equals a CRC over the joined bytes.
        assert_eq!(crc32_concat(b"12345", b"6789"), crc32(b"123456789"));
        assert_eq!(crc32_concat(b"", b"123456789"), crc32(b"123456789"));
    }

    #[test]
    fn bad_tag_is_a_typed_error() {
        // Tag 7 is undefined; dt bits zero.
        assert!(matches!(
            decode(VERSION, 0, 1, &[0x07]),
            Err(TraceError::BadEventTag(7))
        ));
    }

    #[test]
    fn truncated_event_is_a_typed_error() {
        let ev = Event::Read {
            t: 0,
            addr: 1 << 20,
            pc: Pc(9000),
            tid: Tid::MAIN,
        };
        let buf = encode(0, &[ev]);
        assert!(matches!(
            decode(VERSION, 0, 1, &buf[..buf.len() - 1]),
            Err(TraceError::Truncated(_))
        ));
    }

    #[test]
    fn trailing_bytes_and_oversized_counts_are_typed_errors() {
        let events = sample_events();
        let mut buf = encode(0, &events);
        buf.push(0x00);
        assert!(matches!(
            decode(VERSION, 0, events.len(), &buf),
            Err(TraceError::Malformed("trailing bytes in chunk"))
        ));
        assert!(matches!(
            decode(VERSION, 0, buf.len() + 1, &buf),
            Err(TraceError::Malformed("event count exceeds payload size"))
        ));
    }

    #[test]
    fn a_failed_decode_leaves_the_batch_empty() {
        let events = sample_events();
        let buf = encode(0, &events);
        let mut batch = EventBatch::from_events(&events);
        let head = ChunkHead {
            version: VERSION,
            events: events.len() as u64,
            t_first: 0,
        };
        // Cut inside the last event: every earlier row decoded fine.
        let err = decode_chunk_into(head, &buf[..buf.len() - 1], &mut batch);
        assert!(err.is_err());
        assert!(batch.is_empty(), "no row of a corrupt chunk is delivered");
    }
}
