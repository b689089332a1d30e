//! Stable, versioned snapshots of a [`Metrics`] sink.
//!
//! The JSON emitter and parser are hand-rolled: this workspace is built
//! offline with no serde. The schema is pinned by [`SCHEMA_VERSION`] and the
//! round-trip test in this module; consumers should check `schema_version`
//! before reading anything else.

use crate::{Counter, Hist, Metrics, ShardMetrics, Stage};

/// Version of the metrics report schema. Bump when renaming/removing keys;
/// adding counters/stages/histograms is backward compatible.
pub const SCHEMA_VERSION: u32 = 1;

/// One timed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    pub stage: String,
    pub wall_ns: u64,
    pub calls: u64,
}

/// One latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistRow {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub buckets: Vec<u64>,
}

/// One program thread's scheduler share.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadRow {
    pub tid: u32,
    pub quanta: u64,
}

/// Values computed from the raw counters at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct Derived {
    /// Max/min per-shard memory-event count (min clamped to 1 so the ratio
    /// stays finite); 0.0 when fewer than 2 shards reported.
    pub shard_imbalance: f64,
    /// Events per second over the `total` stage wall time (0.0 if untimed).
    pub events_per_sec: f64,
    /// Total-stage nanoseconds per event (0.0 if untimed).
    pub ns_per_event: f64,
    /// Trace bytes per event (decoded if replaying, else written).
    pub bytes_per_event: f64,
    /// Sum of [`ShardMetrics::send_wait_ns`] across shards (0: sharded
    /// replay has no hand-off to wait on).
    pub send_wait_ns: u64,
    /// Sum of [`ShardMetrics::recv_wait_ns`] across shards (0, likewise).
    pub recv_wait_ns: u64,
}

/// A complete snapshot of a [`Metrics`] sink.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    pub schema_version: u32,
    pub command: String,
    /// `(name, value)` for every registered counter, in declaration order.
    pub counters: Vec<(String, u64)>,
    /// Every registered stage, in declaration order (including zero-call).
    pub stages: Vec<StageRow>,
    /// Every registered histogram, in declaration order.
    pub histograms: Vec<HistRow>,
    /// Per-shard metrics (empty unless sharded replay ran).
    pub shards: Vec<ShardMetrics>,
    /// Per-tid scheduler quanta (empty unless the VM ran).
    pub threads: Vec<ThreadRow>,
    pub derived: Derived,
}

impl MetricsReport {
    /// Events processed, preferring the most pipeline-specific counter.
    fn event_basis(counters: &[(String, u64)]) -> u64 {
        let get = |c: Counter| {
            counters
                .iter()
                .find(|(n, _)| n == c.name())
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let profiled = get(Counter::ProfileEvents);
        let decoded = get(Counter::TraceEventsDecoded);
        let executed = get(Counter::VmEvents);
        if profiled > 0 {
            profiled
        } else if decoded > 0 {
            decoded
        } else {
            executed
        }
    }

    /// Snapshot `metrics` into a report. `command` labels which CLI command
    /// (or test harness) produced it.
    pub fn snapshot(metrics: &Metrics, command: &str) -> MetricsReport {
        let counters: Vec<(String, u64)> = Counter::ALL
            .iter()
            .map(|c| (c.name().to_string(), metrics.get(*c)))
            .collect();
        let stages: Vec<StageRow> = Stage::ALL
            .iter()
            .map(|s| {
                let (wall_ns, calls) = metrics.stage(*s);
                StageRow {
                    stage: s.name().to_string(),
                    wall_ns,
                    calls,
                }
            })
            .collect();
        let histograms: Vec<HistRow> = Hist::ALL
            .iter()
            .map(|h| {
                let (count, total_ns) = metrics.hist_totals(*h);
                HistRow {
                    name: h.name().to_string(),
                    count,
                    total_ns,
                    buckets: metrics.hist_buckets(*h).to_vec(),
                }
            })
            .collect();
        let shards = metrics.shards();
        let threads: Vec<ThreadRow> = metrics
            .sched()
            .into_iter()
            .map(|(tid, quanta)| ThreadRow { tid, quanta })
            .collect();

        let shard_imbalance = if shards.len() >= 2 {
            let max = shards.iter().map(|s| s.mem_events).max().unwrap_or(0);
            let min = shards.iter().map(|s| s.mem_events).min().unwrap_or(0);
            max as f64 / min.max(1) as f64
        } else {
            0.0
        };
        let events = Self::event_basis(&counters);
        let total_ns = stages
            .iter()
            .find(|s| s.stage == Stage::Total.name())
            .map(|s| s.wall_ns)
            .unwrap_or(0);
        let (events_per_sec, ns_per_event) = if events > 0 && total_ns > 0 {
            (
                events as f64 * 1e9 / total_ns as f64,
                total_ns as f64 / events as f64,
            )
        } else {
            (0.0, 0.0)
        };
        let bytes = {
            let decoded = metrics.get(Counter::TraceBytesDecoded);
            if decoded > 0 {
                decoded
            } else {
                metrics.get(Counter::TraceBytesWritten)
            }
        };
        let bytes_per_event = if events > 0 {
            bytes as f64 / events as f64
        } else {
            0.0
        };
        let derived = Derived {
            shard_imbalance,
            events_per_sec,
            ns_per_event,
            bytes_per_event,
            send_wait_ns: shards.iter().map(|s| s.send_wait_ns).sum(),
            recv_wait_ns: shards.iter().map(|s| s.recv_wait_ns).sum(),
        };

        MetricsReport {
            schema_version: SCHEMA_VERSION,
            command: command.to_string(),
            counters,
            stages,
            histograms,
            shards,
            threads,
            derived,
        }
    }

    /// Render as pretty-printed JSON (2-space indent, stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {},\n  \"command\": \"{}\",\n",
            self.schema_version,
            escape_json(&self.command)
        ));
        out.push_str("  \"counters\": {\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                escape_json(name),
                value,
                comma
            ));
        }
        out.push_str("  },\n  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            let comma = if i + 1 < self.stages.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"wall_ns\": {}, \"calls\": {}}}{}\n",
                escape_json(&s.stage),
                s.wall_ns,
                s.calls,
                comma
            ));
        }
        out.push_str("  ],\n  \"histograms\": [\n");
        for (i, h) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"buckets\": [{}]}}{}\n",
                escape_json(&h.name),
                h.count,
                h.total_ns,
                buckets.join(", "),
                comma
            ));
        }
        out.push_str("  ],\n  \"shards\": [\n");
        for (i, s) in self.shards.iter().enumerate() {
            let comma = if i + 1 < self.shards.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"shard\": {}, \"events\": {}, \"mem_events\": {}, \"send_wait_ns\": {}, \"recv_wait_ns\": {}, \"busy_ns\": {}, \"pages_allocated\": {}, \"read_set_spills\": {}}}{}\n",
                s.shard,
                s.events,
                s.mem_events,
                s.send_wait_ns,
                s.recv_wait_ns,
                s.busy_ns,
                s.pages_allocated,
                s.read_set_spills,
                comma
            ));
        }
        out.push_str("  ],\n  \"threads\": [\n");
        for (i, t) in self.threads.iter().enumerate() {
            let comma = if i + 1 < self.threads.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"tid\": {}, \"quanta\": {}}}{}\n",
                t.tid, t.quanta, comma
            ));
        }
        out.push_str("  ],\n  \"derived\": {\n");
        out.push_str(&format!(
            "    \"shard_imbalance\": {},\n",
            fmt_f64(self.derived.shard_imbalance)
        ));
        out.push_str(&format!(
            "    \"events_per_sec\": {},\n",
            fmt_f64(self.derived.events_per_sec)
        ));
        out.push_str(&format!(
            "    \"ns_per_event\": {},\n",
            fmt_f64(self.derived.ns_per_event)
        ));
        out.push_str(&format!(
            "    \"bytes_per_event\": {},\n",
            fmt_f64(self.derived.bytes_per_event)
        ));
        out.push_str(&format!(
            "    \"send_wait_ns\": {},\n    \"recv_wait_ns\": {}\n",
            self.derived.send_wait_ns, self.derived.recv_wait_ns
        ));
        out.push_str("  }\n}\n");
        out
    }

    /// Parse a report previously produced by [`MetricsReport::to_json`].
    pub fn from_json(text: &str) -> Result<MetricsReport, String> {
        let value = json::parse(text)?;
        let obj = value.as_obj("report")?;
        let schema_version = obj.field("schema_version")?.as_u64("schema_version")? as u32;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported metrics schema version {schema_version} (expected {SCHEMA_VERSION})"
            ));
        }
        let command = obj.field("command")?.as_str("command")?.to_string();
        let counters = obj
            .field("counters")?
            .as_obj("counters")?
            .entries
            .iter()
            .map(|(name, v)| Ok((name.clone(), v.as_u64(name)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let stages = obj
            .field("stages")?
            .as_arr("stages")?
            .iter()
            .map(|v| {
                let o = v.as_obj("stage")?;
                Ok(StageRow {
                    stage: o.field("stage")?.as_str("stage")?.to_string(),
                    wall_ns: o.field("wall_ns")?.as_u64("wall_ns")?,
                    calls: o.field("calls")?.as_u64("calls")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let histograms = obj
            .field("histograms")?
            .as_arr("histograms")?
            .iter()
            .map(|v| {
                let o = v.as_obj("histogram")?;
                Ok(HistRow {
                    name: o.field("name")?.as_str("name")?.to_string(),
                    count: o.field("count")?.as_u64("count")?,
                    total_ns: o.field("total_ns")?.as_u64("total_ns")?,
                    buckets: o
                        .field("buckets")?
                        .as_arr("buckets")?
                        .iter()
                        .map(|b| b.as_u64("bucket"))
                        .collect::<Result<Vec<_>, String>>()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let shards = obj
            .field("shards")?
            .as_arr("shards")?
            .iter()
            .map(|v| {
                let o = v.as_obj("shard")?;
                Ok(ShardMetrics {
                    shard: o.field("shard")?.as_u64("shard")? as usize,
                    events: o.field("events")?.as_u64("events")?,
                    mem_events: o.field("mem_events")?.as_u64("mem_events")?,
                    send_wait_ns: o.field("send_wait_ns")?.as_u64("send_wait_ns")?,
                    recv_wait_ns: o.field("recv_wait_ns")?.as_u64("recv_wait_ns")?,
                    busy_ns: o.field("busy_ns")?.as_u64("busy_ns")?,
                    pages_allocated: o.field("pages_allocated")?.as_u64("pages_allocated")?,
                    read_set_spills: o.field("read_set_spills")?.as_u64("read_set_spills")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let threads = obj
            .field("threads")?
            .as_arr("threads")?
            .iter()
            .map(|v| {
                let o = v.as_obj("thread")?;
                Ok(ThreadRow {
                    tid: o.field("tid")?.as_u64("tid")? as u32,
                    quanta: o.field("quanta")?.as_u64("quanta")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let d = obj.field("derived")?.as_obj("derived")?;
        let derived = Derived {
            shard_imbalance: d.field("shard_imbalance")?.as_f64("shard_imbalance")?,
            events_per_sec: d.field("events_per_sec")?.as_f64("events_per_sec")?,
            ns_per_event: d.field("ns_per_event")?.as_f64("ns_per_event")?,
            bytes_per_event: d.field("bytes_per_event")?.as_f64("bytes_per_event")?,
            send_wait_ns: d.field("send_wait_ns")?.as_u64("send_wait_ns")?,
            recv_wait_ns: d.field("recv_wait_ns")?.as_u64("recv_wait_ns")?,
        };
        Ok(MetricsReport {
            schema_version,
            command,
            counters,
            stages,
            histograms,
            shards,
            threads,
            derived,
        })
    }

    /// Render as a human-readable text report.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(&format!(
            "metrics report (schema v{}) — command: {}\n",
            self.schema_version, self.command
        ));
        out.push_str("counters:\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("  {name:<28} {value}\n"));
        }
        let total_ns = self
            .stages
            .iter()
            .find(|s| s.stage == Stage::Total.name())
            .map(|s| s.wall_ns)
            .unwrap_or(0);
        out.push_str("stages (wall time):\n");
        for s in &self.stages {
            if s.calls == 0 {
                continue;
            }
            let pct = if total_ns > 0 && s.stage != Stage::Total.name() {
                format!("  {:>5.1}%", s.wall_ns as f64 * 100.0 / total_ns as f64)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:<16} {:>12}{pct}  ({} call{})\n",
                s.stage,
                fmt_ns(s.wall_ns),
                s.calls,
                if s.calls == 1 { "" } else { "s" }
            ));
        }
        for s in &self.shards {
            let pct = if total_ns > 0 {
                format!("  {:>5.1}%", s.busy_ns as f64 * 100.0 / total_ns as f64)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  shard_worker[{}]  {:>12}{pct}  (busy)\n",
                s.shard,
                fmt_ns(s.busy_ns)
            ));
        }
        if !self.shards.is_empty() {
            out.push_str("shards:\n");
            out.push_str(
                "  shard     events  mem_events    send_wait    recv_wait         busy  pages  spills\n",
            );
            for s in &self.shards {
                out.push_str(&format!(
                    "  {:<5} {:>10}  {:>10}  {:>11}  {:>11}  {:>11}  {:>5}  {:>6}\n",
                    s.shard,
                    s.events,
                    s.mem_events,
                    fmt_ns(s.send_wait_ns),
                    fmt_ns(s.recv_wait_ns),
                    fmt_ns(s.busy_ns),
                    s.pages_allocated,
                    s.read_set_spills
                ));
            }
        }
        if !self.threads.is_empty() {
            out.push_str("scheduler:\n");
            for t in &self.threads {
                out.push_str(&format!("  tid {}: {} quanta\n", t.tid, t.quanta));
            }
        }
        for h in &self.histograms {
            if h.count == 0 {
                continue;
            }
            let mean = h.total_ns / h.count;
            out.push_str(&format!(
                "histogram {}: n={} mean={} p50~{}\n",
                h.name,
                h.count,
                fmt_ns(mean),
                fmt_bucket_range(&h.buckets, h.count)
            ));
        }
        out.push_str("derived:\n");
        if self.derived.shard_imbalance > 0.0 {
            out.push_str(&format!(
                "  shard imbalance max/min = {:.1}\n",
                self.derived.shard_imbalance
            ));
        }
        if self.derived.events_per_sec > 0.0 {
            out.push_str(&format!(
                "  throughput: {:.0} events/sec ({:.1} ns/event)\n",
                self.derived.events_per_sec, self.derived.ns_per_event
            ));
        }
        if self.derived.bytes_per_event > 0.0 {
            out.push_str(&format!(
                "  density: {:.2} bytes/event\n",
                self.derived.bytes_per_event
            ));
        }
        out.push_str(&format!(
            "  channel wait: send {}, recv {}\n",
            fmt_ns(self.derived.send_wait_ns),
            fmt_ns(self.derived.recv_wait_ns)
        ));
        out
    }
}

/// Median bucket range like `[2.0us, 4.1us)` from log2 bucket counts.
fn fmt_bucket_range(buckets: &[u64], count: u64) -> String {
    let mut seen = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        seen += b;
        if seen * 2 >= count {
            let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
            let hi = 1u64 << i;
            return format!("[{}, {})", fmt_ns(lo), fmt_ns(hi));
        }
    }
    "[?, ?)".to_string()
}

/// Human duration from nanoseconds.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Shortest round-trippable representation of a finite f64.
fn fmt_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "metrics derived values must stay finite");
    format!("{v:?}")
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Minimal JSON reader — just enough to round-trip [`MetricsReport::to_json`]
/// output (and any JSON that sticks to objects/arrays/strings/numbers).
mod json {
    pub enum Value {
        Null,
        // Kept so the reader handles any standards-conformant document,
        // though our own emitter never produces booleans.
        #[allow(dead_code)]
        Bool(bool),
        /// Raw number token; converted on demand so u64 precision survives.
        Num(String),
        Str(String),
        Arr(Vec<Value>),
        Obj(Object),
    }

    pub struct Object {
        pub entries: Vec<(String, Value)>,
    }

    impl Object {
        pub fn field(&self, name: &str) -> Result<&Value, String> {
            self.entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{name}`"))
        }
    }

    impl Value {
        pub fn as_obj(&self, what: &str) -> Result<&Object, String> {
            match self {
                Value::Obj(o) => Ok(o),
                _ => Err(format!("`{what}` is not an object")),
            }
        }
        pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Arr(a) => Ok(a),
                _ => Err(format!("`{what}` is not an array")),
            }
        }
        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                _ => Err(format!("`{what}` is not a string")),
            }
        }
        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Value::Num(raw) => raw
                    .parse::<u64>()
                    .map_err(|_| format!("`{what}` is not a u64: {raw}")),
                _ => Err(format!("`{what}` is not a number")),
            }
        }
        pub fn as_f64(&self, what: &str) -> Result<f64, String> {
            match self {
                Value::Num(raw) => raw
                    .parse::<f64>()
                    .map_err(|_| format!("`{what}` is not a number: {raw}")),
                _ => Err(format!("`{what}` is not a number")),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
        skip_ws(bytes, pos);
        if *pos < bytes.len() && bytes[*pos] == b {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
            _ => Err(format!("unexpected input at byte {pos}")),
        }
    }

    fn parse_keyword(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid keyword at byte {pos}"))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < bytes.len()
            && (bytes[*pos].is_ascii_digit()
                || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *pos += 1;
        }
        if *pos == start {
            return Err(format!("empty number at byte {pos}"));
        }
        Ok(Value::Num(
            std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| "non-utf8 number".to_string())?
                .to_string(),
        ))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "bad \\u code point".to_string())?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| "non-utf8 string".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {pos}")),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut entries = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(Object { entries }));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            entries.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(Object { entries }));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HIST_BUCKETS;

    fn sample_metrics() -> Metrics {
        let m = Metrics::new();
        m.add(Counter::VmEvents, 1000);
        m.add(Counter::TraceChunksDecoded, 4);
        m.add(Counter::TraceBytesDecoded, 3000);
        m.add(Counter::ProfileEvents, 1000);
        m.add(Counter::ProfileDeps, 17);
        m.record_span(Stage::Decode, 5_000);
        m.record_span(Stage::Profile, 20_000);
        m.record_span(Stage::Total, 40_000);
        m.observe_ns(Hist::DecodeChunkNs, 1200);
        m.observe_ns(Hist::DecodeChunkNs, 1400);
        m.record_shard(ShardMetrics {
            shard: 0,
            events: 600,
            mem_events: 500,
            send_wait_ns: 100,
            recv_wait_ns: 200,
            busy_ns: 9000,
            pages_allocated: 2,
            read_set_spills: 1,
        });
        m.record_shard(ShardMetrics {
            shard: 1,
            events: 400,
            mem_events: 300,
            send_wait_ns: 50,
            recv_wait_ns: 80,
            busy_ns: 7000,
            pages_allocated: 1,
            read_set_spills: 0,
        });
        m.record_thread_quanta(0, 12);
        m.record_thread_quanta(1, 3);
        m
    }

    #[test]
    fn snapshot_has_every_registered_series() {
        let report = sample_metrics().report("test");
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.counters.len(), Counter::COUNT);
        assert_eq!(report.stages.len(), Stage::COUNT);
        assert_eq!(report.histograms.len(), Hist::COUNT);
        assert_eq!(report.histograms[0].buckets.len(), HIST_BUCKETS);
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.threads.len(), 2);
    }

    #[test]
    fn derived_values() {
        let report = sample_metrics().report("test");
        // 500 vs 300 mem events across 2 shards.
        assert!((report.derived.shard_imbalance - 500.0 / 300.0).abs() < 1e-9);
        // 1000 events over 40_000 ns.
        assert!((report.derived.ns_per_event - 40.0).abs() < 1e-9);
        assert!((report.derived.events_per_sec - 25_000_000.0).abs() < 1e-3);
        assert!((report.derived.bytes_per_event - 3.0).abs() < 1e-9);
        assert_eq!(report.derived.send_wait_ns, 150);
        assert_eq!(report.derived.recv_wait_ns, 280);
    }

    #[test]
    fn imbalance_with_zero_min_stays_finite() {
        let m = Metrics::new();
        m.record_shard(ShardMetrics {
            shard: 0,
            mem_events: 100,
            ..Default::default()
        });
        m.record_shard(ShardMetrics {
            shard: 1,
            mem_events: 0,
            ..Default::default()
        });
        let report = m.report("test");
        assert_eq!(report.derived.shard_imbalance, 100.0);
        assert!(report.derived.shard_imbalance.is_finite());
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample_metrics().report("replay");
        let json = report.to_json();
        let parsed = MetricsReport::from_json(&json).expect("parse back");
        assert_eq!(parsed, report);
        // And the re-emitted JSON is byte-identical.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn json_round_trip_of_empty_metrics() {
        let report = Metrics::new().report("run");
        let parsed = MetricsReport::from_json(&report.to_json()).expect("parse back");
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_json_rejects_other_schema_versions() {
        let mut report = sample_metrics().report("replay");
        report.schema_version = SCHEMA_VERSION + 1;
        let err = MetricsReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(MetricsReport::from_json("not json").is_err());
        assert!(MetricsReport::from_json("{\"schema_version\": 1}").is_err());
        assert!(MetricsReport::from_json("{} trailing").is_err());
    }

    #[test]
    fn text_render_mentions_key_series() {
        let text = sample_metrics().report("replay").render_text();
        assert!(text.contains("vm.events"));
        assert!(text.contains("shard_worker[0]"));
        assert!(text.contains("shard imbalance"));
        assert!(text.contains("tid 0: 12 quanta"));
        assert!(text.contains("channel wait"));
    }

    #[test]
    fn escape_and_parse_strings() {
        let m = Metrics::new();
        let report = m.report("weird \"cmd\"\nwith\ttabs\\");
        let parsed = MetricsReport::from_json(&report.to_json()).expect("parse back");
        assert_eq!(parsed.command, "weird \"cmd\"\nwith\ttabs\\");
    }
}
