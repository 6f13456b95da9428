//! Protocol-aware normalization with fail-open degradation.
//!
//! Raw-byte scanning is evadable: an attacker who splits a signature
//! across HTTP chunked-transfer boundaries, or hides it behind malformed
//! framing, defeats every engine in the stack without ever changing the
//! decoded payload. This module adds the classic IDS countermeasure — a
//! streaming protocol-detect stage plus per-protocol normalizers that
//! feed *decoded* bytes to the resumable scanner — under a strict
//! robustness contract borrowed from the reassembly layer's hole-skip:
//!
//! 1. **Fail open, never closed.** Any malformed, truncated, or
//!    ambiguous protocol state downgrades the flow to raw-byte scanning
//!    of the remainder. A parse error can reduce decode fidelity; it can
//!    never make bytes invisible to the scanner pipeline.
//! 2. **Every byte accounted.** The ledger identity
//!    `delivered_bytes == normalized_bytes + raw_bytes` holds after
//!    every [`ProtoFlow::deliver`] call — bytes are bucketed at
//!    *consumption* time, the layer holds no internal byte buffer, so
//!    there is no flush hook to forget and no eviction leak.
//! 3. **Every downgrade counted.** `malformed_downgrades`,
//!    `probe_exhausted`, `mimicry_suspected`, `desync_downgrades` and
//!    `tier_bypassed` in [`ProtocolStats`] are the evasion signature: a
//!    spike means someone is probing the parser, not that traffic is
//!    quietly going unscanned.
//!
//! # Detect ladder
//!
//! Classification confidence is a three-rung ladder:
//!
//! * **Hint** — a port-derived [`ProtoConfig::hint`] alone never
//!   activates a normalizer (ports are attacker-chosen).
//! * **Probable** — the content probe alone matched a protocol preamble
//!   (HTTP/1.x method line or `HTTP/1.` response, TLS record header).
//! * **Confirmed** — hint and content probe agree.
//!
//! Hint and probe *disagreeing* is protocol mimicry — counted
//! `mimicry_suspected`, flow degraded to raw. The probe inspects at most
//! [`PROBE_MAX`] bytes; budget exhaustion without a verdict is counted
//! `probe_exhausted` and degrades to raw. Probed bytes are scanned raw
//! *immediately* as they arrive (never buffered), then replayed into the
//! chosen parser with emission suppressed, so a flow that never
//! classifies is byte-for-byte identical to a plain raw scan.
//!
//! # Offset spaces
//!
//! While a normalizer is active, the inner scanner advances through the
//! *decoded* stream: framing metadata (chunk-size lines, chunk CRLFs,
//! TLS record headers, trailers) is consumed — and ledger-counted as
//! `normalized_bytes` — but not emitted, so match `end` offsets are
//! decoded-stream offsets, counted from the start of the flow: the
//! probe prefix, scanned raw before the verdict, holds the first
//! offsets. Raw flows (and flows after a downgrade) stay in wire
//! offsets. Every downgrade masks scanner history via `reset_at(fed)` —
//! exactly the reassembly hole-skip contract — so a downgrade can never
//! manufacture a match half-decoded, half-raw.
//!
//! Classification masks history only where the probe prefix and the
//! decoded stream after it are not contiguous, and the replay of the
//! probe into the parser decides. The HTTP parser re-emits every probe
//! byte (the request line is part of the decoded stream), so history
//! carries over and a signature straddling the probe, such as
//! `GET /admin`, is found. The TLS parser consumes them as record-header
//! metadata, so the probe prefix and the first record body are a splice
//! that no stream contains, and history is masked there.
//!
//! Metadata bytes themselves are not scanned (that is what
//! normalization *means* — the decoded stream is the scan target). The
//! residual channel is narrow and documented: a signature would have to
//! be pure hex and fit inside a legal chunk-size line.
//!
//! # Scoping
//!
//! [`PatternSet`] scope tags ([`TAG_HTTP`], [`TAG_TLS`], [`TAG_ANY`])
//! build a [`ScopedRuleset`]: one automaton over the whole set plus, per
//! normalized lane, an accept mask over [`PatternId`] tested where
//! matches are emitted, so HTTP-only rules never report on TLS record
//! bodies. The raw lane always reports the full set. Every lane walks
//! the same automaton, so one [`ScanState`] carries across the lane
//! change at classification.

use crate::compiled::{CompiledAutomaton, CompiledMatcher};
use crate::flow::FlowState;
use crate::sharded::ShardedConfig;
use dpi_automaton::{Match, PatternId, PatternSet, ScanState};

/// Scope tag matching every protocol lane (the untagged default `0`).
pub const TAG_ANY: u32 = 0;
/// Scope tag for rules that only apply to decoded HTTP streams.
pub const TAG_HTTP: u32 = 1;
/// Scope tag for rules that only apply to TLS record payloads.
pub const TAG_TLS: u32 = 2;

/// Upper bound on content-probe length, in bytes. The longest preamble
/// the probe recognises is 8 bytes (`"OPTIONS "`), so any budget of 8+
/// always reaches a verdict; smaller budgets can exhaust.
pub const PROBE_MAX: usize = 16;

/// Header-section budget per HTTP message; beyond this the flow
/// degrades to raw (`malformed_downgrades`).
const HEADER_CAP_BYTES: u64 = 64 * 1024;
/// Trailer-section budget after a chunked body's last chunk.
const TRAILER_CAP_BYTES: u64 = 8 * 1024;
/// Largest chunk size the decoder accepts (16 MiB − 1); a legal hex
/// size above this is treated as hostile framing and degrades.
const MAX_CHUNK_SIZE: u64 = 0x00FF_FFFF;
/// Most hex digits a chunk-size line may carry (leading zeros
/// included). Any legal size fits in 8; a longer digit run keeps
/// `value` below the size guard while growing without bound, so it is
/// treated as hostile framing and degrades.
const MAX_CHUNK_SIZE_DIGITS: u8 = 16;
/// Longest header line kept for framing-relevant parsing. Longer lines
/// stream through verbatim and are not framing-parsed — unless the kept
/// prefix names `Content-Length`/`Transfer-Encoding`, where the
/// unparsed value could change body framing, so the flow fails open.
const LINE_CAP: usize = 96;
/// Longest TLS record body the framer accepts (RFC 8446 limit plus
/// expansion: 2^14 + 256).
const MAX_TLS_RECORD: u16 = 16640;

/// Application protocol identities the detect stage can assign.
///
/// `#[non_exhaustive]`: downstream matches must carry a wildcard arm so
/// new protocols can land without a breaking change.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolId {
    /// HTTP/1.x (requests or responses).
    Http,
    /// TLS record layer (any handshake/application record stream).
    Tls,
}

/// Where a slice of bytes came from, which decides the rules that may
/// report on it (see [`ScopedRuleset`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Decoded bytes from an active normalizer; this protocol's tagged
    /// rules and the untagged ones report.
    Normalized(ProtocolId),
    /// Wire bytes — probe prefix, unclassified flows, or everything
    /// after a fail-open downgrade. Every rule reports.
    Raw,
}

/// Per-flow configuration of the detect/normalize stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoConfig {
    /// Master switch; `false` constructs the flow directly in raw mode
    /// (zero per-byte overhead, no flow counters).
    pub enabled: bool,
    /// Port-derived protocol expectation. Never sufficient alone; a
    /// content probe that *contradicts* it is counted
    /// `mimicry_suspected` and degrades the flow to raw.
    pub hint: Option<ProtocolId>,
    /// Content-probe budget in bytes, clamped to `1..=`[`PROBE_MAX`].
    /// Budgets below 8 can exhaust mid-preamble (`probe_exhausted`).
    pub probe_budget: usize,
}

impl Default for ProtoConfig {
    fn default() -> ProtoConfig {
        ProtoConfig {
            enabled: true,
            hint: None,
            probe_budget: PROBE_MAX,
        }
    }
}

/// Monotone counters for the detect/normalize stage. The hard contract
/// is the ledger identity checked by
/// [`ProtocolStats::unaccounted_bytes`]` == 0`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Total bytes handed to [`ProtoFlow::deliver`].
    pub delivered_bytes: u64,
    /// Bytes consumed by an active normalizer (emitted payload *and*
    /// framing metadata).
    pub normalized_bytes: u64,
    /// Bytes scanned on the raw lane (probe prefix, unclassified flows,
    /// post-downgrade remainders).
    pub raw_bytes: u64,
    /// Decoded bytes actually fed to the scanner by normalizers
    /// (`normalized_bytes - emitted_bytes` is framing metadata).
    pub emitted_bytes: u64,
    /// Flows classified HTTP and normalized.
    pub flows_http: u64,
    /// Flows classified TLS and normalized.
    pub flows_tls: u64,
    /// Flows resolved to raw by the probe stage (mismatch, exhaustion,
    /// or mimicry).
    pub flows_raw: u64,
    /// Fail-open downgrades due to malformed or hostile framing.
    pub malformed_downgrades: u64,
    /// Probe budget exhausted without a verdict.
    pub probe_exhausted: u64,
    /// Port hint and content probe resolved to different protocols.
    pub mimicry_suspected: u64,
    /// Downgrades forced by an out-of-band stream reset
    /// ([`FlowState::reset_at`] — reassembly hole-skip or service
    /// resync) landing mid-parse.
    pub desync_downgrades: u64,
    /// Flows forced raw by the service fidelity ladder (a flow scanned
    /// at [`FidelityTier::FlagOnly`](crate::service::FidelityTier)
    /// bypasses normalization permanently).
    pub tier_bypassed: u64,
}

impl ProtocolStats {
    /// `delivered − normalized − raw`: zero whenever the fail-open
    /// ledger holds. Property-tested to stay zero under arbitrary
    /// segment soups.
    pub fn unaccounted_bytes(&self) -> i64 {
        self.delivered_bytes as i64 - self.normalized_bytes as i64 - self.raw_bytes as i64
    }

    /// Total fail-open downgrades of every cause.
    pub fn downgrades(&self) -> u64 {
        self.malformed_downgrades
            + self.probe_exhausted
            + self.mimicry_suspected
            + self.desync_downgrades
            + self.tier_bypassed
    }

    /// Adds `other` into `self` (service aggregation across workers).
    pub fn absorb(&mut self, other: &ProtocolStats) {
        self.delivered_bytes += other.delivered_bytes;
        self.normalized_bytes += other.normalized_bytes;
        self.raw_bytes += other.raw_bytes;
        self.emitted_bytes += other.emitted_bytes;
        self.flows_http += other.flows_http;
        self.flows_tls += other.flows_tls;
        self.flows_raw += other.flows_raw;
        self.malformed_downgrades += other.malformed_downgrades;
        self.probe_exhausted += other.probe_exhausted;
        self.mimicry_suspected += other.mimicry_suspected;
        self.desync_downgrades += other.desync_downgrades;
        self.tier_bypassed += other.tier_bypassed;
    }
}

/// HTTP/1.x preambles the content probe recognises. Longest is 8
/// bytes, so a probe budget of 8+ always reaches a verdict.
const HTTP_PREAMBLES: &[&[u8]] = &[
    b"GET ",
    b"PUT ",
    b"POST ",
    b"HEAD ",
    b"OPTIONS ",
    b"DELETE ",
    b"TRACE ",
    b"CONNECT ",
    b"PATCH ",
    b"HTTP/1.",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeVerdict {
    NeedMore,
    Http,
    Tls,
    Raw,
}

/// Evaluates the content probe over the first `buf` bytes of a flow.
fn probe_verdict(buf: &[u8]) -> ProbeVerdict {
    debug_assert!(!buf.is_empty());
    // TLS: record type 0x16 (handshake), version major 0x03, any minor
    // a real stack emits (SSL3.0 through the TLS1.3 compat value).
    if buf[0] == 0x16 {
        if buf.len() < 2 || (buf[1] == 0x03 && buf.len() < 3) {
            return ProbeVerdict::NeedMore;
        }
        if buf[1] == 0x03 && buf[2] <= 0x04 {
            return ProbeVerdict::Tls;
        }
        return ProbeVerdict::Raw;
    }
    let mut partial = false;
    for token in HTTP_PREAMBLES {
        if buf.len() >= token.len() {
            if &buf[..token.len()] == *token {
                return ProbeVerdict::Http;
            }
        } else if token.starts_with(buf) {
            partial = true;
        }
    }
    if partial {
        ProbeVerdict::NeedMore
    } else {
        ProbeVerdict::Raw
    }
}

/// Streaming HTTP/1.x normalizer: header/body split, chunked-transfer
/// decoding tolerant of CRLFs and chunk-size lines cut anywhere,
/// obs-fold continuation stitching. Emits start-line + headers verbatim
/// and body bytes decoded; never buffers payload (the chunk-size parser
/// is a hex accumulator, the current header line is copied — capped —
/// only for framing-relevant parsing).
#[derive(Debug, Clone)]
struct HttpParser {
    state: HttpState,
    /// Prefix of the current header line (≤ [`LINE_CAP`]), for framing
    /// parsing only — payload streams through without this copy.
    line: Vec<u8>,
    /// Full length of the current header line (may exceed the copy).
    line_len: usize,
    /// Header CRLF held back until the next byte decides obs-fold.
    pending_crlf: bool,
    first_line: bool,
    is_response: bool,
    content_length: Option<u64>,
    chunked: bool,
    header_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HttpState {
    /// Inside a header line (start-line included).
    HeaderByte,
    /// Saw CR inside the header section; strict grammar demands LF.
    HeaderCr,
    /// Fixed-length or read-to-end body; `u64::MAX` means until close.
    Body { remaining: u64 },
    /// Accumulating a hex chunk size.
    ChunkSize { value: u64, digits: u8 },
    /// Saw the CR ending a chunk-size line; carries the parsed size.
    ChunkSizeCr { value: u64 },
    /// Inside a chunk body.
    ChunkBody { remaining: u64 },
    /// Expecting the CR of the CRLF that closes a chunk body.
    ChunkEndCr,
    /// Expecting the LF of the CRLF that closes a chunk body.
    ChunkEndLf,
    /// Consuming trailer lines after the last chunk (pure metadata).
    Trailer { total: u64, line_len: u64, seen_cr: bool },
}

impl HttpParser {
    fn new() -> HttpParser {
        HttpParser {
            state: HttpState::HeaderByte,
            line: Vec::with_capacity(LINE_CAP),
            line_len: 0,
            pending_crlf: false,
            first_line: true,
            is_response: false,
            content_length: None,
            chunked: false,
            header_bytes: 0,
        }
    }

    fn push_line_byte(&mut self, b: u8) {
        if self.line.len() < LINE_CAP {
            self.line.push(b);
        }
        self.line_len += 1;
    }

    /// Framing-parses the completed header line. `Err(())` = hostile
    /// or ambiguous framing → fail open.
    fn end_line(&mut self) -> Result<(), ()> {
        if self.first_line {
            self.first_line = false;
            self.is_response = self.line.starts_with(b"HTTP/");
        } else if self.line.len() != self.line_len {
            // The line outgrew the copy. Its bytes still streamed to
            // the scanner, but its value cannot be framing-parsed — and
            // if the kept prefix names a framing header (an attacker
            // can pad `Content-Length:` with OWS past the cap), quietly
            // skipping it would desync the normalizer from the
            // endpoint's framing: fail open instead.
            if starts_with_ci(&self.line, b"content-length")
                || starts_with_ci(&self.line, b"transfer-encoding")
            {
                return Err(());
            }
        } else if let Some(colon) = self.line.iter().position(|&b| b == b':') {
            let (name, value) = self.line.split_at(colon);
            let value = &value[1..];
            if name.eq_ignore_ascii_case(b"content-length") {
                if self.content_length.is_some() {
                    // Duplicate Content-Length is the classic
                    // request-smuggling pivot: ambiguous framing.
                    return Err(());
                }
                self.content_length = Some(parse_decimal(value).ok_or(())?);
            } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
                // Comma-separated coding list. The body is chunked-
                // framed only when `chunked` is the sole coding;
                // anything else — stacked codings, codings we cannot
                // decode, or substring imposters like `xchunked` that
                // endpoints frame differently — means the body cannot
                // be framed at all: fail open.
                let mut codings = value.split(|&b| b == b',').map(trim_ows);
                let sole_is_chunked = codings
                    .next()
                    .is_some_and(|t| t.eq_ignore_ascii_case(b"chunked"));
                if !sole_is_chunked || codings.next().is_some() {
                    return Err(());
                }
                self.chunked = true;
            }
        }
        self.line.clear();
        self.line_len = 0;
        Ok(())
    }

    /// Transitions out of the header section at the blank line.
    fn end_headers(&mut self) -> Result<(), ()> {
        if self.chunked && self.content_length.is_some() {
            // CL + TE together is ambiguous framing (smuggling).
            return Err(());
        }
        if self.chunked {
            self.state = HttpState::ChunkSize { value: 0, digits: 0 };
        } else if let Some(n) = self.content_length {
            if n == 0 {
                self.next_message();
            } else {
                self.state = HttpState::Body { remaining: n };
            }
        } else if self.is_response {
            // Response without framing: body runs to connection close.
            self.state = HttpState::Body { remaining: u64::MAX };
        } else {
            // Request without framing has no body (keep-alive).
            self.next_message();
        }
        Ok(())
    }

    fn next_message(&mut self) {
        self.state = HttpState::HeaderByte;
        self.first_line = true;
        self.is_response = false;
        self.content_length = None;
        self.chunked = false;
        self.header_bytes = 0;
        self.line.clear();
        self.line_len = 0;
        self.pending_crlf = false;
    }

    /// Feeds `data`, emitting decoded bytes through `emit`.
    /// `Err(consumed)`: hostile/malformed framing at `data[consumed]`;
    /// the caller fails open and scans `data[consumed..]` raw.
    fn feed(&mut self, data: &[u8], emit: &mut dyn FnMut(&[u8])) -> Result<(), usize> {
        let mut i = 0usize;
        while i < data.len() {
            match self.state {
                HttpState::HeaderByte => {
                    let b = data[i];
                    if self.pending_crlf {
                        self.pending_crlf = false;
                        if b == b' ' || b == b'\t' {
                            // obs-fold: the held CRLF is metadata; the
                            // continuation byte stitches the line.
                            self.header_bytes += 1;
                            if self.header_bytes > HEADER_CAP_BYTES {
                                return Err(i);
                            }
                            emit(&data[i..=i]);
                            self.push_line_byte(b);
                            i += 1;
                            continue;
                        }
                        // Not a fold: release the held CRLF and close
                        // the line it terminated.
                        emit(b"\r\n");
                        if self.end_line().is_err() {
                            return Err(i);
                        }
                    }
                    if b == b'\0' || b == b'\n' {
                        // NUL in headers / bare LF: hostile framing.
                        return Err(i);
                    }
                    if b == b'\r' {
                        self.state = HttpState::HeaderCr;
                        self.header_bytes += 1;
                        // Held back for the fold decision; emitted (or
                        // voided) when the byte after LF arrives.
                        i += 1;
                        continue;
                    }
                    // Bulk path: run to the next structural byte.
                    let run_end = data[i..]
                        .iter()
                        .position(|&c| c == b'\r' || c == b'\n' || c == b'\0')
                        .map_or(data.len(), |p| i + p);
                    let run = &data[i..run_end];
                    self.header_bytes += run.len() as u64;
                    if self.header_bytes > HEADER_CAP_BYTES {
                        return Err(i);
                    }
                    emit(run);
                    for &c in run {
                        self.push_line_byte(c);
                    }
                    i = run_end;
                }
                HttpState::HeaderCr => {
                    if data[i] != b'\n' {
                        return Err(i);
                    }
                    self.header_bytes += 1;
                    if self.header_bytes > HEADER_CAP_BYTES {
                        return Err(i);
                    }
                    i += 1;
                    if self.line_len == 0 {
                        // Blank line: end of header section. Its CRLF
                        // is part of the verbatim header emission.
                        emit(b"\r\n");
                        if self.end_headers().is_err() {
                            return Err(i);
                        }
                    } else {
                        self.state = HttpState::HeaderByte;
                        self.pending_crlf = true;
                    }
                }
                HttpState::Body { remaining } => {
                    let avail = data.len() - i;
                    let take = if remaining == u64::MAX {
                        avail
                    } else {
                        avail.min(remaining as usize)
                    };
                    emit(&data[i..i + take]);
                    i += take;
                    if remaining != u64::MAX {
                        let left = remaining - take as u64;
                        if left == 0 {
                            self.next_message();
                        } else {
                            self.state = HttpState::Body { remaining: left };
                        }
                    }
                }
                HttpState::ChunkSize { value, digits } => {
                    let b = data[i];
                    if let Some(d) = hex_digit(b) {
                        if digits >= MAX_CHUNK_SIZE_DIGITS {
                            // Any legal size fits in 8 hex digits given
                            // MAX_CHUNK_SIZE; a longer run (e.g. hundreds
                            // of leading zeros, which keep `value` at 0
                            // and so never trip the size guard) is
                            // hostile padding — and would overflow the
                            // digit counter if left unbounded.
                            return Err(i);
                        }
                        let v = value * 16 + d as u64;
                        if v > MAX_CHUNK_SIZE {
                            return Err(i);
                        }
                        self.state = HttpState::ChunkSize {
                            value: v,
                            digits: digits + 1,
                        };
                        i += 1;
                    } else if b == b'\r' {
                        if digits == 0 {
                            return Err(i);
                        }
                        self.state = HttpState::ChunkSizeCr { value };
                        i += 1;
                    } else {
                        // Extensions, bare LF, or garbage: strict
                        // grammar, fail open.
                        return Err(i);
                    }
                }
                HttpState::ChunkSizeCr { value } => {
                    if data[i] != b'\n' {
                        return Err(i);
                    }
                    i += 1;
                    self.state = if value == 0 {
                        HttpState::Trailer {
                            total: 0,
                            line_len: 0,
                            seen_cr: false,
                        }
                    } else {
                        HttpState::ChunkBody { remaining: value }
                    };
                }
                HttpState::ChunkBody { remaining } => {
                    let avail = data.len() - i;
                    let take = avail.min(remaining as usize);
                    emit(&data[i..i + take]);
                    i += take;
                    let left = remaining - take as u64;
                    if left == 0 {
                        self.state = HttpState::ChunkEndCr;
                    } else {
                        self.state = HttpState::ChunkBody { remaining: left };
                    }
                }
                HttpState::ChunkEndCr => {
                    if data[i] != b'\r' {
                        return Err(i);
                    }
                    self.state = HttpState::ChunkEndLf;
                    i += 1;
                }
                HttpState::ChunkEndLf => {
                    if data[i] != b'\n' {
                        return Err(i);
                    }
                    self.state = HttpState::ChunkSize { value: 0, digits: 0 };
                    i += 1;
                }
                HttpState::Trailer {
                    total,
                    line_len,
                    seen_cr,
                } => {
                    let b = data[i];
                    let total = total + 1;
                    if total > TRAILER_CAP_BYTES {
                        return Err(i);
                    }
                    if seen_cr {
                        if b != b'\n' {
                            return Err(i);
                        }
                        i += 1;
                        if line_len == 0 {
                            self.next_message();
                        } else {
                            self.state = HttpState::Trailer {
                                total,
                                line_len: 0,
                                seen_cr: false,
                            };
                        }
                    } else if b == b'\r' {
                        self.state = HttpState::Trailer {
                            total,
                            line_len,
                            seen_cr: true,
                        };
                        i += 1;
                    } else if b == b'\n' || b == b'\0' {
                        return Err(i);
                    } else {
                        self.state = HttpState::Trailer {
                            total,
                            line_len: line_len + 1,
                            seen_cr: false,
                        };
                        i += 1;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Parses `b"123"`-style decimal with optional surrounding SP/HT.
fn parse_decimal(raw: &[u8]) -> Option<u64> {
    let trimmed = trim_ows(raw);
    if trimmed.is_empty() || trimmed.len() > 18 {
        return None;
    }
    let mut value = 0u64;
    for &b in trimmed {
        if !b.is_ascii_digit() {
            return None;
        }
        value = value * 10 + (b - b'0') as u64;
    }
    Some(value)
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Strips optional whitespace (SP/HT) from both ends.
fn trim_ows(raw: &[u8]) -> &[u8] {
    match raw.iter().position(|&b| b != b' ' && b != b'\t') {
        Some(start) => {
            let end = raw.iter().rposition(|&b| b != b' ' && b != b'\t').unwrap();
            &raw[start..=end]
        }
        None => &[],
    }
}

fn starts_with_ci(haystack: &[u8], prefix: &[u8]) -> bool {
    haystack.len() >= prefix.len() && haystack[..prefix.len()].eq_ignore_ascii_case(prefix)
}

/// Streaming TLS record framer: 5-byte record headers are metadata,
/// record bodies are emitted verbatim. The value of normalization here
/// is scoping — HTTP-only rules never report on record bodies — plus
/// hostile framing detection.
#[derive(Debug, Clone)]
struct TlsParser {
    state: TlsState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TlsState {
    Header { buf: [u8; 5], len: u8 },
    Body { remaining: u16 },
}

impl TlsParser {
    fn new() -> TlsParser {
        TlsParser {
            state: TlsState::Header {
                buf: [0; 5],
                len: 0,
            },
        }
    }

    fn feed(&mut self, data: &[u8], emit: &mut dyn FnMut(&[u8])) -> Result<(), usize> {
        let mut i = 0usize;
        while i < data.len() {
            match self.state {
                TlsState::Header { mut buf, len } => {
                    let b = data[i];
                    // Validate each header byte as it arrives so bad
                    // framing fails open with minimal metadata loss.
                    let ok = match len {
                        0 => (0x14..=0x18).contains(&b),
                        1 => b == 0x03,
                        2 => b <= 0x04,
                        3 => true,
                        _ => u16::from_be_bytes([buf[3], b]) <= MAX_TLS_RECORD,
                    };
                    if !ok {
                        return Err(i);
                    }
                    buf[len as usize] = b;
                    i += 1;
                    if len == 4 {
                        let remaining = u16::from_be_bytes([buf[3], buf[4]]);
                        self.state = if remaining == 0 {
                            TlsState::Header {
                                buf: [0; 5],
                                len: 0,
                            }
                        } else {
                            TlsState::Body { remaining }
                        };
                    } else {
                        self.state = TlsState::Header { buf, len: len + 1 };
                    }
                }
                TlsState::Body { remaining } => {
                    let avail = data.len() - i;
                    let take = avail.min(remaining as usize);
                    emit(&data[i..i + take]);
                    i += take;
                    let left = remaining - take as u16;
                    self.state = if left == 0 {
                        TlsState::Header {
                            buf: [0; 5],
                            len: 0,
                        }
                    } else {
                        TlsState::Body { remaining: left }
                    };
                }
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum Mode {
    Probe { buf: [u8; PROBE_MAX], len: u8 },
    Http(HttpParser),
    Tls(TlsParser),
    Raw,
}

/// The non-generic guts of a [`ProtoFlow`].
#[derive(Debug, Clone)]
pub struct ProtoState {
    config: ProtoConfig,
    mode: Mode,
    /// Set by [`FlowState::reset_at`]; consumed by the next deliver as
    /// a `desync_downgrades` transition to raw.
    desync_pending: bool,
    /// Mirror of the inner scanner's stream offset: advanced by every
    /// byte fed to the sink, overwritten by `reset_at`. Downgrade
    /// resets target this, keeping reset offsets monotone.
    fed: u64,
}

impl ProtoState {
    fn new(config: ProtoConfig) -> ProtoState {
        ProtoState {
            config,
            mode: ProtoState::fresh_mode(&config),
            desync_pending: false,
            fed: 0,
        }
    }

    fn fresh_mode(config: &ProtoConfig) -> Mode {
        if config.enabled {
            Mode::Probe {
                buf: [0; PROBE_MAX],
                len: 0,
            }
        } else {
            Mode::Raw
        }
    }
}

/// A per-flow detect/normalize stage wrapped around any resumable
/// scanner state `S`. Compose inside
/// [`StreamFlow`](crate::reassembly::StreamFlow) for the full pipeline:
/// reassemble → detect/normalize → scan.
///
/// ```
/// use dpi_automaton::PatternSet;
/// use dpi_core::protocol::{ProtoConfig, ProtoFlow, ProtocolStats, ScopedRuleset};
/// use dpi_automaton::ScanState;
///
/// let set = PatternSet::new(["attack"])?;
/// let rules = ScopedRuleset::build(&set);
/// let mut flow = ProtoFlow::new(ScanState::fresh(), ProtoConfig::default());
/// let mut stats = ProtocolStats::default();
/// let mut out = Vec::new();
/// flow.deliver(
///     b"GET /x HTTP/1.1\r\nContent-Length: 6\r\n\r\nattack",
///     false,
///     &mut stats,
///     |lane, scan, bytes, out| rules.scan_chunk_into(lane, scan, bytes, out),
///     &mut out,
/// );
/// assert_eq!(out.len(), 1);
/// assert_eq!(stats.unaccounted_bytes(), 0);
/// # Ok::<(), dpi_automaton::PatternSetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProtoFlow<S> {
    /// The wrapped scanner state (public, like
    /// [`StreamFlow::scan`](crate::reassembly::StreamFlow)).
    pub scan: S,
    /// Detect/normalize state.
    pub state: ProtoState,
}

impl<S: FlowState> ProtoFlow<S> {
    /// Wraps scanner state `scan` in a fresh detect stage.
    pub fn new(scan: S, config: ProtoConfig) -> ProtoFlow<S> {
        ProtoFlow {
            scan,
            state: ProtoState::new(config),
        }
    }

    /// The lane this flow currently feeds the scanner from.
    pub fn lane(&self) -> Lane {
        match self.state.mode {
            Mode::Http(_) => Lane::Normalized(ProtocolId::Http),
            Mode::Tls(_) => Lane::Normalized(ProtocolId::Tls),
            Mode::Probe { .. } | Mode::Raw => Lane::Raw,
        }
    }

    /// `true` once the flow has degraded (or been configured) to plain
    /// raw scanning.
    pub fn is_raw(&self) -> bool {
        matches!(self.state.mode, Mode::Raw)
    }

    /// Delivers in-order stream bytes through detect → normalize →
    /// `sink`. `bypass` is the fidelity-ladder hatch: `true` forces the
    /// flow to raw permanently (counted `tier_bypassed` on the
    /// transition).
    ///
    /// The sink is invoked with contiguous byte slices and the lane
    /// they belong to; it must scan them with a resumable matcher. The
    /// ledger identity `delivered == normalized + raw` holds on return
    /// — bytes are bucketed when consumed, the stage buffers nothing.
    pub fn deliver<F>(
        &mut self,
        chunk: &[u8],
        bypass: bool,
        stats: &mut ProtocolStats,
        mut sink: F,
        out: &mut Vec<Match>,
    ) where
        F: FnMut(Lane, &mut S, &[u8], &mut Vec<Match>),
    {
        let ProtoFlow { scan, state } = self;
        stats.delivered_bytes += chunk.len() as u64;

        if state.desync_pending {
            state.desync_pending = false;
            if !matches!(state.mode, Mode::Raw) {
                // An out-of-band reset (hole-skip or service resync)
                // landed mid-parse: protocol state no longer matches
                // the byte stream. Fail open.
                stats.desync_downgrades += 1;
                state.mode = Mode::Raw;
            }
        }
        if bypass && !matches!(state.mode, Mode::Raw) {
            stats.tier_bypassed += 1;
            if matches!(state.mode, Mode::Http(_) | Mode::Tls(_)) {
                // The scanner was mid-decoded-stream; mask history
                // before switching it to wire bytes.
                scan.reset_at(state.fed);
            }
            state.mode = Mode::Raw;
        }

        let mut rest = chunk;
        while !rest.is_empty() {
            match std::mem::replace(&mut state.mode, Mode::Raw) {
                Mode::Raw => {
                    stats.raw_bytes += rest.len() as u64;
                    state.fed += rest.len() as u64;
                    sink(Lane::Raw, scan, rest, out);
                    rest = &[];
                }
                Mode::Probe { mut buf, mut len } => {
                    let budget = state.config.probe_budget.clamp(1, PROBE_MAX);
                    let mut taken = 0usize;
                    let mut verdict = None;
                    while taken < rest.len() && verdict.is_none() {
                        buf[len as usize] = rest[taken];
                        len += 1;
                        taken += 1;
                        match probe_verdict(&buf[..len as usize]) {
                            ProbeVerdict::NeedMore => {
                                if (len as usize) >= budget {
                                    verdict = Some(ProbeVerdict::NeedMore);
                                }
                            }
                            v => verdict = Some(v),
                        }
                    }
                    // Probe bytes are scanned raw the moment they
                    // arrive — never buffered away from the scanner.
                    stats.raw_bytes += taken as u64;
                    state.fed += taken as u64;
                    sink(Lane::Raw, scan, &rest[..taken], out);
                    rest = &rest[taken..];
                    state.mode = match verdict {
                        None => Mode::Probe { buf, len },
                        Some(ProbeVerdict::NeedMore) => {
                            stats.probe_exhausted += 1;
                            stats.flows_raw += 1;
                            Mode::Raw
                        }
                        Some(ProbeVerdict::Raw) => {
                            stats.flows_raw += 1;
                            Mode::Raw
                        }
                        Some(content) => {
                            let proto = if content == ProbeVerdict::Http {
                                ProtocolId::Http
                            } else {
                                ProtocolId::Tls
                            };
                            match state.config.hint {
                                Some(hint) if hint != proto => {
                                    // The port promised one protocol,
                                    // the bytes speak another.
                                    stats.mimicry_suspected += 1;
                                    stats.flows_raw += 1;
                                    Mode::Raw
                                }
                                _ => {
                                    // Replay the already-raw-scanned
                                    // probe prefix to bring the parser
                                    // up to date, emission suppressed
                                    // but counted.
                                    let replay = &buf[..len as usize];
                                    let mut echoed = 0usize;
                                    let mut count = |bytes: &[u8]| echoed += bytes.len();
                                    let (mode, replay_ok) = match proto {
                                        ProtocolId::Http => {
                                            let mut p = HttpParser::new();
                                            let ok = p.feed(replay, &mut count).is_ok();
                                            (Mode::Http(p), ok)
                                        }
                                        ProtocolId::Tls => {
                                            let mut p = TlsParser::new();
                                            let ok = p.feed(replay, &mut count).is_ok();
                                            (Mode::Tls(p), ok)
                                        }
                                    };
                                    if !replay_ok {
                                        stats.malformed_downgrades += 1;
                                        stats.flows_raw += 1;
                                        Mode::Raw
                                    } else {
                                        if echoed < replay.len() {
                                            // The parser took probe bytes
                                            // as framing metadata: the
                                            // decoded stream does not
                                            // continue the raw-scanned
                                            // probe, so mask the splice.
                                            scan.reset_at(state.fed);
                                        }
                                        match proto {
                                            ProtocolId::Http => stats.flows_http += 1,
                                            ProtocolId::Tls => stats.flows_tls += 1,
                                        }
                                        mode
                                    }
                                }
                            }
                        }
                    };
                }
                Mode::Http(mut parser) => {
                    let result = {
                        let fed = &mut state.fed;
                        let mut emit = |slice: &[u8]| {
                            *fed += slice.len() as u64;
                            stats.emitted_bytes += slice.len() as u64;
                            sink(Lane::Normalized(ProtocolId::Http), scan, slice, out);
                        };
                        parser.feed(rest, &mut emit)
                    };
                    match result {
                        Ok(()) => {
                            stats.normalized_bytes += rest.len() as u64;
                            state.mode = Mode::Http(parser);
                            rest = &[];
                        }
                        Err(consumed) => {
                            stats.normalized_bytes += consumed as u64;
                            stats.malformed_downgrades += 1;
                            scan.reset_at(state.fed);
                            state.mode = Mode::Raw;
                            rest = &rest[consumed..];
                        }
                    }
                }
                Mode::Tls(mut parser) => {
                    let result = {
                        let fed = &mut state.fed;
                        let mut emit = |slice: &[u8]| {
                            *fed += slice.len() as u64;
                            stats.emitted_bytes += slice.len() as u64;
                            sink(Lane::Normalized(ProtocolId::Tls), scan, slice, out);
                        };
                        parser.feed(rest, &mut emit)
                    };
                    match result {
                        Ok(()) => {
                            stats.normalized_bytes += rest.len() as u64;
                            state.mode = Mode::Tls(parser);
                            rest = &[];
                        }
                        Err(consumed) => {
                            stats.normalized_bytes += consumed as u64;
                            stats.malformed_downgrades += 1;
                            scan.reset_at(state.fed);
                            state.mode = Mode::Raw;
                            rest = &rest[consumed..];
                        }
                    }
                }
            }
        }
    }
}

impl<S: FlowState> FlowState for ProtoFlow<S> {
    fn reset(&mut self) {
        self.scan.reset();
        self.state.mode = ProtoState::fresh_mode(&self.state.config);
        self.state.desync_pending = false;
        self.state.fed = 0;
    }

    fn reset_at(&mut self, offset: u64) {
        self.scan.reset_at(offset);
        self.state.fed = offset;
        if !matches!(self.state.mode, Mode::Raw) {
            // Counted (and acted on) at the next deliver — this hook
            // has no stats access.
            self.state.desync_pending = true;
        }
    }

    fn held_bytes(&self) -> usize {
        // The detect/normalize stage buffers no payload bytes (the
        // probe copy is scanned raw before it is copied); only the
        // inner state contributes to the table's bytes_held gauge.
        self.scan.held_bytes()
    }

    fn finish(&mut self, out: &mut Vec<Match>) {
        self.scan.finish(out);
    }
}

/// Accept mask over [`PatternId`]s: bit `i % 64` of word `i / 64` is set
/// when pattern `i` may report. `None` lets every pattern report.
type AcceptMask = Option<Box<[u64]>>;

/// A ruleset compiled once, plus one accept mask per normalized lane
/// derived from [`PatternSet`] scope tags: [`ProtocolId::Http`] bytes
/// report the [`TAG_HTTP`] + [`TAG_ANY`] patterns, [`ProtocolId::Tls`]
/// bytes the [`TAG_TLS`] + [`TAG_ANY`] ones, and [`Lane::Raw`] bytes the
/// full set. A lane with no pattern in scope reports nothing. Every lane
/// walks the same automaton and the mask is tested only where a match is
/// emitted, so one [`ScanState`] stays valid across lane changes and
/// every match carries the set's own pattern id.
pub struct ScopedRuleset {
    set: PatternSet,
    automaton: CompiledAutomaton,
    fold: [u8; 256],
    http: AcceptMask,
    tls: AcceptMask,
}

impl ScopedRuleset {
    /// Compiles `set` with the anchor + pair-table stack every shard
    /// deploys, and derives each normalized lane's mask from the tags.
    pub fn build(set: &PatternSet) -> ScopedRuleset {
        let mask = |want: u32| -> AcceptMask {
            let in_scope = |i: usize| {
                let tag = set.tag(PatternId(i as u32));
                tag == TAG_ANY || tag == want
            };
            if (0..set.len()).all(in_scope) {
                return None;
            }
            let mut bits = vec![0u64; set.len().div_ceil(64)];
            for i in (0..set.len()).filter(|&i| in_scope(i)) {
                bits[i / 64] |= 1 << (i % 64);
            }
            Some(bits.into_boxed_slice())
        };
        ScopedRuleset {
            automaton: ShardedConfig::with_cores(1).compile(set),
            fold: CompiledMatcher::fold_table(set),
            http: mask(TAG_HTTP),
            tls: mask(TAG_TLS),
            set: set.clone(),
        }
    }

    /// The master pattern set.
    pub fn set(&self) -> &PatternSet {
        &self.set
    }

    /// Number of patterns that may report on `lane`.
    pub fn lane_len(&self, lane: Lane) -> usize {
        self.mask(lane).map_or(self.set.len(), |bits| {
            bits.iter().map(|w| w.count_ones() as usize).sum()
        })
    }

    /// Resumable chunk scan of bytes from `lane`: appends the matches
    /// of the patterns in the lane's scope. `state` may come from a
    /// scan of any lane.
    pub fn scan_chunk_into(
        &self,
        lane: Lane,
        state: &mut ScanState,
        chunk: &[u8],
        out: &mut Vec<Match>,
    ) {
        let mask = self.mask(lane);
        let matcher = CompiledMatcher::with_shared_fold(&self.automaton, &self.set, self.fold);
        matcher.for_each_match_chunk(state, chunk, |m| {
            let i = m.pattern.index();
            if mask.is_none_or(|bits| bits[i / 64] >> (i % 64) & 1 == 1) {
                out.push(m);
            }
        });
    }

    /// Whole-payload scan of bytes from `lane`; `out` is cleared first.
    pub fn scan_into(&self, lane: Lane, payload: &[u8], out: &mut Vec<Match>) {
        out.clear();
        self.scan_chunk_into(lane, &mut ScanState::fresh(), payload, out);
    }

    fn mask(&self, lane: Lane) -> Option<&[u64]> {
        match lane {
            Lane::Normalized(ProtocolId::Http) => self.http.as_deref(),
            Lane::Normalized(ProtocolId::Tls) => self.tls.as_deref(),
            Lane::Raw => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_automaton::ScanState;

    fn raw_pipeline(
        rules: &ScopedRuleset,
        config: ProtoConfig,
        chunks: &[&[u8]],
    ) -> (Vec<Match>, ProtocolStats) {
        let mut flow = ProtoFlow::new(ScanState::fresh(), config);
        let mut stats = ProtocolStats::default();
        let mut out = Vec::new();
        for chunk in chunks {
            flow.deliver(
                chunk,
                false,
                &mut stats,
                |lane, scan: &mut ScanState, bytes, out| {
                    rules.scan_chunk_into(lane, scan, bytes, out)
                },
                &mut out,
            );
        }
        assert_eq!(stats.unaccounted_bytes(), 0, "ledger must balance");
        (out, stats)
    }

    fn decode_http(chunks: &[&[u8]]) -> (Vec<u8>, ProtocolStats) {
        let mut flow = ProtoFlow::new(ScanState::fresh(), ProtoConfig::default());
        let mut stats = ProtocolStats::default();
        let mut out = Vec::new();
        let mut decoded = Vec::new();
        for chunk in chunks {
            flow.deliver(
                chunk,
                false,
                &mut stats,
                |lane, _scan, bytes, _out| {
                    if matches!(lane, Lane::Normalized(ProtocolId::Http)) {
                        decoded.extend_from_slice(bytes);
                    }
                },
                &mut out,
            );
        }
        assert_eq!(stats.unaccounted_bytes(), 0);
        (decoded, stats)
    }

    #[test]
    fn probe_classifies_http_and_tls() {
        assert_eq!(probe_verdict(b"G"), ProbeVerdict::NeedMore);
        assert_eq!(probe_verdict(b"GET "), ProbeVerdict::Http);
        assert_eq!(probe_verdict(b"OPTIONS "), ProbeVerdict::Http);
        assert_eq!(probe_verdict(b"HTTP/1."), ProbeVerdict::Http);
        assert_eq!(probe_verdict(b"GEX"), ProbeVerdict::Raw);
        assert_eq!(probe_verdict(&[0x16]), ProbeVerdict::NeedMore);
        assert_eq!(probe_verdict(&[0x16, 0x03, 0x01]), ProbeVerdict::Tls);
        assert_eq!(probe_verdict(&[0x16, 0x02, 0x01]), ProbeVerdict::Raw);
        assert_eq!(probe_verdict(&[0x17, 0x03, 0x03]), ProbeVerdict::Raw);
    }

    #[test]
    fn chunked_split_signature_found_normalized_missed_raw() {
        let rules = ScopedRuleset::build(&PatternSet::new(["attack-sig"]).unwrap());
        // "attack-sig" split across two chunk bodies.
        let wire = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                     6\r\nattack\r\n4\r\n-sig\r\n0\r\n\r\n";
        let (normalized, stats) = raw_pipeline(&rules, ProtoConfig::default(), &[wire.as_slice()]);
        assert_eq!(normalized.len(), 1, "normalized scan must catch the split");
        assert_eq!(stats.flows_http, 1);
        assert_eq!(stats.malformed_downgrades, 0);

        let disabled = ProtoConfig {
            enabled: false,
            ..ProtoConfig::default()
        };
        let (raw, _) = raw_pipeline(&rules, disabled, &[wire.as_slice()]);
        assert!(raw.is_empty(), "raw scan must miss the split signature");
    }

    #[test]
    fn chunked_decode_tolerates_any_cut() {
        let wire: &[u8] = b"PUT /v HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                            3\r\nabc\r\nA\r\n0123456789\r\n0\r\n\r\n";
        let whole = decode_http(&[wire]).0;
        assert!(whole.ends_with(b"abc0123456789"));
        for cut in 1..wire.len() {
            let (a, b) = wire.split_at(cut);
            let (split, stats) = decode_http(&[a, b]);
            assert_eq!(split, whole, "cut at {cut} changed the decode");
            assert_eq!(stats.malformed_downgrades, 0);
        }
    }

    #[test]
    fn header_fold_is_stitched() {
        let wire: &[u8] =
            b"GET / HTTP/1.1\r\nX-Long: part-a\r\n part-b\r\nContent-Length: 2\r\n\r\nok";
        let (decoded, stats) = decode_http(&[wire]);
        let text = String::from_utf8_lossy(&decoded);
        assert!(text.contains("part-a part-b"), "fold not stitched: {text}");
        assert_eq!(stats.malformed_downgrades, 0);
        assert!(decoded.ends_with(b"ok"));
    }

    #[test]
    fn content_length_message_is_emitted_verbatim() {
        let wire: &[u8] = b"GET /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut flow = ProtoFlow::new(ScanState::fresh(), ProtoConfig::default());
        let mut stats = ProtocolStats::default();
        let mut out = Vec::new();
        let mut fed = Vec::new();
        flow.deliver(
            wire,
            false,
            &mut stats,
            |_, _, bytes, _| fed.extend_from_slice(bytes),
            &mut out,
        );
        // Probe prefix goes raw, rest normalized; together they are the
        // wire stream byte-for-byte (headers verbatim, CL body verbatim).
        assert_eq!(fed, wire);
        assert_eq!(stats.unaccounted_bytes(), 0);
        assert_eq!(stats.normalized_bytes + stats.raw_bytes, wire.len() as u64);
    }

    #[test]
    fn malformed_chunk_size_fails_open() {
        let rules = ScopedRuleset::build(&PatternSet::new(["attack-sig"]).unwrap());
        // Chunk size line is garbage; the signature sits after it and
        // must still be found by the raw fallback.
        let wire = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\nattack-sig";
        let (matches, stats) = raw_pipeline(&rules, ProtoConfig::default(), &[wire.as_slice()]);
        assert_eq!(stats.malformed_downgrades, 1);
        assert_eq!(matches.len(), 1, "raw fallback must still scan the remainder");
    }

    #[test]
    fn chunk_size_leading_zero_flood_fails_open_without_panic() {
        let rules = ScopedRuleset::build(&PatternSet::new(["attack-sig"]).unwrap());
        // Hundreds of leading-zero hex digits keep `value` at 0, so
        // only the digit-count guard can stop the line (an unbounded
        // u8 counter would overflow here).
        let mut wire = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        wire.extend(std::iter::repeat_n(b'0', 300));
        wire.extend_from_slice(b"5\r\nattack-sig");
        let (matches, stats) = raw_pipeline(&rules, ProtoConfig::default(), &[&wire]);
        assert_eq!(stats.malformed_downgrades, 1);
        assert_eq!(matches.len(), 1, "raw fallback must still scan the remainder");
    }

    #[test]
    fn chunk_size_leading_zeros_within_cap_decode() {
        let wire: &[u8] =
            b"PUT / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0003\r\nabc\r\n0\r\n\r\n";
        let (decoded, stats) = decode_http(&[wire]);
        assert!(decoded.ends_with(b"abc"));
        assert_eq!(stats.malformed_downgrades, 0);
    }

    #[test]
    fn transfer_encoding_imposters_fail_open() {
        for wire in [
            b"POST / HTTP/1.1\r\nTransfer-Encoding: xchunked\r\n\r\nx".as_slice(),
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunkedd\r\n\r\nx".as_slice(),
            b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\nx".as_slice(),
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked, gzip\r\n\r\nx".as_slice(),
            b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\nx".as_slice(),
        ] {
            let (_, stats) = decode_http(&[wire]);
            assert_eq!(stats.malformed_downgrades, 1, "input: {wire:?}");
        }
        // OWS and case on the one legal coding are tolerated.
        let ok: &[u8] =
            b"POST / HTTP/1.1\r\nTransfer-Encoding: \tChunked \r\n\r\n2\r\nok\r\n0\r\n\r\n";
        let (decoded, stats) = decode_http(&[ok]);
        assert_eq!(stats.malformed_downgrades, 0);
        assert!(decoded.ends_with(b"ok"));
    }

    #[test]
    fn padded_framing_header_past_line_cap_fails_open() {
        let rules = ScopedRuleset::build(&PatternSet::new(["attack-sig"]).unwrap());
        for name in ["Content-Length:", "Transfer-Encoding:"] {
            // OWS padding pushes the value past LINE_CAP; silently
            // skipping the header would desync framing with no counter
            // incremented — it must fail open instead.
            let mut wire = b"POST / HTTP/1.1\r\n".to_vec();
            wire.extend_from_slice(name.as_bytes());
            wire.extend(std::iter::repeat_n(b' ', 120));
            wire.extend_from_slice(b"5\r\n\r\nattack-sig");
            let (matches, stats) = raw_pipeline(&rules, ProtoConfig::default(), &[&wire]);
            assert_eq!(
                stats.malformed_downgrades, 1,
                "padded {name} must fail open, not vanish"
            );
            assert_eq!(matches.len(), 1);
        }
    }

    #[test]
    fn oversized_chunk_and_smuggling_headers_fail_open() {
        for wire in [
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nFFFFFFF9\r\nx".as_slice(),
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nxxxx".as_slice(),
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\nx"
                .as_slice(),
            b"GET / HTTP/1.1\nHost: bare-lf\n\n".as_slice(),
            b"GET / HTTP/1.1\r\nX: a\0b\r\n\r\n".as_slice(),
        ] {
            let (_, stats) = decode_http(&[wire]);
            assert_eq!(stats.malformed_downgrades, 1, "input: {wire:?}");
        }
    }

    #[test]
    fn tls_records_scope_payload() {
        let wire_payload = b"inside-record-payload";
        let mut wire = vec![0x16, 0x03, 0x01];
        wire.extend_from_slice(&(wire_payload.len() as u16).to_be_bytes());
        wire.extend_from_slice(wire_payload);
        let (decoded, stats) = {
            let mut flow = ProtoFlow::new(ScanState::fresh(), ProtoConfig::default());
            let mut stats = ProtocolStats::default();
            let mut out = Vec::new();
            let mut decoded = Vec::new();
            flow.deliver(
                &wire,
                false,
                &mut stats,
                |lane, _scan, bytes, _out| {
                    if matches!(lane, Lane::Normalized(ProtocolId::Tls)) {
                        decoded.extend_from_slice(bytes);
                    }
                },
                &mut out,
            );
            (decoded, stats)
        };
        assert_eq!(stats.flows_tls, 1);
        // Probe replay suppresses re-emission of the 3 raw-scanned
        // header bytes; the record body is emitted in full.
        assert_eq!(decoded, wire_payload);
        assert_eq!(stats.unaccounted_bytes(), 0);
    }

    #[test]
    fn tls_bad_header_fails_open() {
        let rules = ScopedRuleset::build(&PatternSet::new(["attack-sig"]).unwrap());
        let mut wire = vec![0x16, 0x03, 0x01, 0x00, 0x02, 0xaa, 0xbb];
        wire.extend_from_slice(&[0x99, 0x03, 0x03]); // bad record type
        wire.extend_from_slice(b"attack-sig");
        let (matches, stats) = raw_pipeline(&rules, ProtoConfig::default(), &[&wire]);
        assert_eq!(stats.malformed_downgrades, 1);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn mimicry_hint_disagreement_goes_raw() {
        let rules = ScopedRuleset::build(&PatternSet::new(["attack-sig"]).unwrap());
        let config = ProtoConfig {
            hint: Some(ProtocolId::Tls),
            ..ProtoConfig::default()
        };
        let wire = b"GET /totally-http HTTP/1.1\r\n\r\nattack-sig";
        let (matches, stats) = raw_pipeline(&rules, config, &[wire.as_slice()]);
        assert_eq!(stats.mimicry_suspected, 1);
        assert_eq!(stats.flows_raw, 1);
        assert_eq!(stats.flows_http, 0);
        assert_eq!(matches.len(), 1, "raw flow still scanned");
    }

    #[test]
    fn tiny_probe_budget_exhausts_to_raw() {
        let rules = ScopedRuleset::build(&PatternSet::new(["attack-sig"]).unwrap());
        let config = ProtoConfig {
            probe_budget: 2,
            ..ProtoConfig::default()
        };
        let wire = b"GET / HTTP/1.1\r\n\r\nattack-sig";
        let (matches, stats) = raw_pipeline(&rules, config, &[wire.as_slice()]);
        assert_eq!(stats.probe_exhausted, 1);
        assert_eq!(stats.flows_raw, 1);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn non_protocol_traffic_is_byte_identical_to_raw_scan() {
        let rules = ScopedRuleset::build(&PatternSet::new(["he", "attack-sig"]).unwrap());
        let payload: Vec<u8> = (0u32..4096)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let mut spiked = payload.clone();
        spiked.extend_from_slice(b"xheattack-sigx");
        let chunks: Vec<&[u8]> = spiked.chunks(97).collect();
        let (via_proto, stats) = raw_pipeline(&rules, ProtoConfig::default(), &chunks);
        assert_eq!(stats.flows_raw, 1);

        let mut state = ScanState::fresh();
        let mut plain = Vec::new();
        for chunk in &chunks {
            rules.scan_chunk_into(Lane::Raw, &mut state, chunk, &mut plain);
        }
        assert_eq!(via_proto, plain, "unclassified flow must equal plain raw scan");
    }

    #[test]
    fn lane_masks_partition_the_set() {
        let set = PatternSet::new(["anywhere", "http-only", "tls-only"])
            .unwrap()
            .with_tag(TAG_HTTP, [PatternId(1)])
            .with_tag(TAG_TLS, [PatternId(2)]);
        let rules = ScopedRuleset::build(&set);
        assert_eq!(rules.lane_len(Lane::Raw), 3);
        assert_eq!(rules.lane_len(Lane::Normalized(ProtocolId::Http)), 2);
        assert_eq!(rules.lane_len(Lane::Normalized(ProtocolId::Tls)), 2);

        let payload = b"xx http-only xx tls-only xx anywhere xx";
        let mut out = Vec::new();
        let mut ids = |lane| {
            rules.scan_into(lane, payload, &mut out);
            out.iter().map(|m| m.pattern.0).collect::<Vec<u32>>()
        };
        assert_eq!(ids(Lane::Normalized(ProtocolId::Http)), [1, 0]);
        assert_eq!(ids(Lane::Normalized(ProtocolId::Tls)), [2, 0]);
        assert_eq!(ids(Lane::Raw), [1, 2, 0]);
    }

    #[test]
    fn bypass_forces_raw_and_counts_once() {
        let rules = ScopedRuleset::build(&PatternSet::new(["attack-sig"]).unwrap());
        let mut flow = ProtoFlow::new(ScanState::fresh(), ProtoConfig::default());
        let mut stats = ProtocolStats::default();
        let mut out = Vec::new();
        let wire = b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nattack-sig";
        let (head, tail) = wire.split_at(20);
        let mut sink = |lane: Lane, scan: &mut ScanState, bytes: &[u8], out: &mut Vec<Match>| {
            rules.scan_chunk_into(lane, scan, bytes, out)
        };
        flow.deliver(head, false, &mut stats, &mut sink, &mut out);
        assert!(!flow.is_raw());
        flow.deliver(tail, true, &mut stats, &mut sink, &mut out);
        assert!(flow.is_raw());
        assert_eq!(stats.tier_bypassed, 1);
        flow.deliver(b"more", true, &mut stats, &mut sink, &mut out);
        assert_eq!(stats.tier_bypassed, 1, "transition counted once per flow");
        assert_eq!(stats.unaccounted_bytes(), 0);
    }

    #[test]
    fn reset_at_mid_parse_counts_desync_downgrade() {
        let mut flow = ProtoFlow::new(ScanState::fresh(), ProtoConfig::default());
        let mut stats = ProtocolStats::default();
        let mut out = Vec::new();
        let sink = |_: Lane, _: &mut ScanState, _: &[u8], _: &mut Vec<Match>| {};
        flow.deliver(
            b"GET / HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial",
            false,
            &mut stats,
            sink,
            &mut out,
        );
        assert!(!flow.is_raw());
        FlowState::reset_at(&mut flow, 4096); // hole-skip lands mid-body
        flow.deliver(b"after-the-hole", false, &mut stats, sink, &mut out);
        assert!(flow.is_raw());
        assert_eq!(stats.desync_downgrades, 1);
        assert_eq!(stats.unaccounted_bytes(), 0);
    }

    #[test]
    fn keep_alive_messages_reset_framing() {
        let wire: &[u8] = b"GET /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
                            GET /b HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nxyz\r\n0\r\n\r\n";
        let (decoded, stats) = decode_http(&[wire]);
        let text = String::from_utf8_lossy(&decoded);
        assert!(text.contains("abc"));
        assert!(text.contains("xyz"));
        assert!(text.contains("/b"), "second message headers emitted");
        assert_eq!(stats.malformed_downgrades, 0);
    }

    #[test]
    fn disabled_config_is_pure_passthrough() {
        let rules = ScopedRuleset::build(&PatternSet::new(["attack-sig"]).unwrap());
        let config = ProtoConfig {
            enabled: false,
            ..ProtoConfig::default()
        };
        let (matches, stats) = raw_pipeline(&rules, config, &[b"GET attack-sig".as_slice()]);
        assert_eq!(matches.len(), 1);
        assert_eq!(stats.normalized_bytes, 0);
        assert_eq!(stats.flows_http + stats.flows_tls + stats.flows_raw, 0);
    }
}
