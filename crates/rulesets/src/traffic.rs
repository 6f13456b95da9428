//! Packet and traffic generation for throughput and detection experiments.
//!
//! Three profiles cover the evaluation's needs:
//!
//! - **clean** — protocol-flavoured background traffic (HTTP-ish text mixed
//!   with binary payload), no deliberately embedded patterns;
//! - **infected** — clean traffic with known pattern occurrences injected at
//!   recorded offsets (ground truth for end-to-end detection tests);
//! - **adversarial** — input crafted against a fail-pointer Aho-Corasick
//!   automaton to maximize fail-chain walking. The paper's architecture is
//!   immune by construction ("This prevents attacks being constructed which
//!   flood a system with packets it performs poorly on", §I); the
//!   `adversarial` experiment quantifies what the immunity is worth.

use dpi_automaton::{Nfa, PatternId, PatternSet, StateId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A generated packet plus the ground truth of injected occurrences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Injected occurrences as `(pattern, end_offset)` pairs — a subset of
    /// what a matcher will report (background bytes may match patterns by
    /// chance; matchers must report a **superset** of this list).
    pub injected: Vec<(PatternId, usize)>,
}

/// Traffic generator with a fixed seed.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    rng: StdRng,
}

const HTTP_CHATTER: &[&[u8]] = &[
    b"GET /index.html HTTP/1.1\r\n",
    b"Host: www.example.com\r\n",
    b"Accept: text/html,application/xhtml\r\n",
    b"Connection: keep-alive\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 512\r\n",
];

impl TrafficGenerator {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> TrafficGenerator {
        TrafficGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One clean packet of exactly `len` bytes.
    pub fn clean_packet(&mut self, len: usize) -> Packet {
        let mut payload = Vec::with_capacity(len);
        while payload.len() < len {
            if self.rng.gen_bool(0.6) {
                let chunk = HTTP_CHATTER[self.rng.gen_range(0..HTTP_CHATTER.len())];
                payload.extend_from_slice(chunk);
            } else {
                let n = self.rng.gen_range(8..64usize);
                for _ in 0..n {
                    payload.push(self.rng.gen());
                }
            }
        }
        payload.truncate(len);
        Packet {
            payload,
            injected: Vec::new(),
        }
    }

    /// A clean packet with `count` occurrences of patterns from `set`
    /// injected at random non-overlapping offsets. Ground truth offsets are
    /// recorded in the returned [`Packet::injected`] (sorted by end offset).
    ///
    /// # Panics
    ///
    /// Panics if the packet cannot hold `count` occurrences of the chosen
    /// patterns.
    pub fn infected_packet(&mut self, len: usize, set: &PatternSet, count: usize) -> Packet {
        let mut packet = self.clean_packet(len);
        let mut occupied: Vec<(usize, usize)> = Vec::new();
        let mut injected = Vec::new();
        let mut attempts = 0usize;
        while injected.len() < count {
            attempts += 1;
            assert!(
                attempts < 10_000,
                "cannot place {count} patterns in a {len}-byte packet"
            );
            let id = PatternId(self.rng.gen_range(0..set.len() as u32));
            let p = set.pattern(id);
            if p.len() > len {
                continue;
            }
            let start = self.rng.gen_range(0..=len - p.len());
            let range = (start, start + p.len());
            if occupied
                .iter()
                .any(|&(s, e)| range.0 < e && s < range.1)
            {
                continue;
            }
            occupied.push(range);
            packet.payload[range.0..range.1].copy_from_slice(p);
            injected.push((id, range.1));
        }
        injected.sort_by_key(|&(_, end)| end);
        packet.injected = injected;
        packet
    }

    /// A clean stream shaped like real transport-encrypted traffic: a
    /// short TLS handshake preamble followed by `ApplicationData`
    /// records — 5-byte headers (`0x17 0x03 0x03` + big-endian body
    /// length) framing high-entropy bodies of 512 bytes to 16 KiB.
    ///
    /// This is the honest "clean" workload for fast-path claims: unlike
    /// [`TrafficGenerator::clean_packet`] (60 % HTTP chatter whose
    /// literal header text keeps brushing rule stems), encrypted spans
    /// have no protocol text for a ruleset to graze, so long runs stay
    /// on whatever clean-traffic lane an engine has (anchor skipping,
    /// SIMD classification, a pre-classifier that never flags). Most
    /// bytes on a modern link look like this, not like plaintext HTTP.
    ///
    /// The stream is exactly `len` bytes and injects nothing; combine
    /// with [`TrafficGenerator::infected_packet`]-style injection by
    /// overwriting ranges if ground-truth occurrences are needed.
    pub fn tls_stream(&mut self, len: usize) -> Packet {
        let mut payload = Vec::with_capacity(len);
        // Handshake preamble: one ClientHello-shaped record (type 0x16,
        // TLS 1.0 legacy version on the record layer, random session
        // and cipher bytes). Realistic links carry a few plaintext
        // frames before the encrypted bulk begins.
        if len >= 8 {
            let body = self.rng.gen_range(64..=192usize).min(len - 5);
            payload.extend_from_slice(&[0x16, 0x03, 0x01]);
            payload.extend_from_slice(&(body as u16).to_be_bytes());
            payload.push(0x01); // ClientHello
            for _ in 1..body {
                payload.push(self.rng.gen());
            }
        }
        // Encrypted bulk: ApplicationData records with long
        // high-entropy bodies.
        while payload.len() < len {
            let remaining = len - payload.len();
            let body = self.rng.gen_range(512..=16_384usize).min(remaining.saturating_sub(5).max(1));
            payload.extend_from_slice(&[0x17, 0x03, 0x03]);
            payload.extend_from_slice(&(body as u16).to_be_bytes());
            for _ in 0..body {
                payload.push(self.rng.gen());
            }
        }
        payload.truncate(len);
        Packet {
            payload,
            injected: Vec::new(),
        }
    }

    /// A burst of packets under one profile.
    pub fn packets(
        &mut self,
        n: usize,
        len: usize,
        set: &PatternSet,
        injections_per_packet: usize,
    ) -> Vec<Packet> {
        (0..n)
            .map(|_| {
                if injections_per_packet == 0 {
                    self.clean_packet(len)
                } else {
                    self.infected_packet(len, set, injections_per_packet)
                }
            })
            .collect()
    }
}

/// How a payload is chopped into packet-sized chunks for streaming-scan
/// experiments (used by [`TrafficGenerator::chop_points`]).
///
/// Streaming correctness is only interesting at *bad* boundaries, so the
/// profiles deliberately include the shapes a payload-at-once scanner
/// gets wrong: segments cut mid-pattern and degenerate one-byte packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChopProfile {
    /// Fixed-size segments (e.g. a 1,500-byte MTU).
    Mtu(usize),
    /// One byte per packet — the pathological worst case for any
    /// per-chunk overhead.
    SingleByte,
    /// Segment lengths drawn uniformly from `min..=max`.
    Random {
        /// Minimum segment length (≥ 1).
        min: usize,
        /// Maximum segment length.
        max: usize,
    },
    /// Adversarial: a boundary strictly inside **every** injected
    /// occurrence of [`Packet::injected`], so every ground-truth match
    /// straddles two packets, with `mtu`-sized fill cuts between.
    /// Single-byte patterns cannot be cut and are left whole.
    MidPattern {
        /// Fill segment size between the forced mid-pattern cuts.
        mtu: usize,
    },
}

impl TrafficGenerator {
    /// Chooses cut offsets for `packet`'s payload under `profile`:
    /// a strictly increasing sequence of interior boundaries
    /// (`0 < cut < len`). Feed to [`chop`] to materialize the segments.
    pub fn chop_points(
        &mut self,
        packet: &Packet,
        set: &PatternSet,
        profile: ChopProfile,
    ) -> Vec<usize> {
        let len = packet.payload.len();
        let mut cuts: Vec<usize> = Vec::new();
        match profile {
            ChopProfile::Mtu(mtu) => {
                let mtu = mtu.max(1);
                cuts.extend((1..len.div_ceil(mtu)).map(|i| i * mtu));
            }
            ChopProfile::SingleByte => cuts.extend(1..len),
            ChopProfile::Random { min, max } => {
                let min = min.max(1);
                let max = max.max(min);
                let mut pos = 0usize;
                loop {
                    pos += self.rng.gen_range(min..=max);
                    if pos >= len {
                        break;
                    }
                    cuts.push(pos);
                }
            }
            ChopProfile::MidPattern { mtu } => {
                // One cut strictly inside each injected occurrence.
                for &(id, end) in &packet.injected {
                    let start = end - set.pattern_len(id);
                    if end - start >= 2 {
                        cuts.push(self.rng.gen_range(start + 1..end));
                    }
                }
                // MTU fill between/around the forced cuts.
                let mtu = mtu.max(1);
                cuts.extend((1..len.div_ceil(mtu)).map(|i| i * mtu));
                cuts.sort_unstable();
                cuts.dedup();
                cuts.retain(|&c| c < len);
            }
        }
        cuts
    }

    /// A randomized arrival order for interleaved flows: flow `i`
    /// contributes `chunk_counts[i]` packets, each flow's packets appear
    /// in order, and flows are shuffled against each other — the shape a
    /// flow table sees on real links (and the shape that catches state
    /// leaking between flows).
    pub fn interleave_schedule(&mut self, chunk_counts: &[usize]) -> Vec<usize> {
        let mut remaining: Vec<usize> = chunk_counts.to_vec();
        let total: usize = remaining.iter().sum();
        let mut schedule = Vec::with_capacity(total);
        let mut live: Vec<usize> = (0..remaining.len())
            .filter(|&f| remaining[f] > 0)
            .collect();
        while !live.is_empty() {
            let pick = self.rng.gen_range(0..live.len());
            let flow = live[pick];
            schedule.push(flow);
            remaining[flow] -= 1;
            if remaining[flow] == 0 {
                live.swap_remove(pick);
            }
        }
        schedule
    }

    /// A ready-to-offer service workload: `flows` concurrent flows of
    /// `flow_len` bytes each, segmented in-order into `seg`-byte
    /// segments and interleaved across flows with
    /// [`TrafficGenerator::interleave_schedule`]. Every
    /// `infected_every`-th flow (0 = none) carries
    /// [`TrafficGenerator::infected_packet`] traffic with `injections`
    /// planted occurrences; the rest are
    /// [`TrafficGenerator::clean_packet`] chatter. Returns the arrival
    /// sequence as `(flow, segment)` pairs — the exact shape a
    /// flow-steering ingest loop consumes.
    pub fn service_mix(
        &mut self,
        flows: usize,
        flow_len: usize,
        seg: usize,
        set: &PatternSet,
        infected_every: usize,
        injections: usize,
    ) -> Vec<(usize, Segment)> {
        assert!(seg > 0, "segment size must be positive");
        let payloads: Vec<Vec<u8>> = (0..flows)
            .map(|f| {
                if infected_every > 0 && f % infected_every == 0 {
                    self.infected_packet(flow_len, set, injections).payload
                } else {
                    self.clean_packet(flow_len).payload
                }
            })
            .collect();
        let segmented: Vec<Vec<Segment>> = payloads
            .iter()
            .map(|p| {
                p.chunks(seg)
                    .enumerate()
                    .map(|(i, c)| Segment {
                        seq: (i * seg) as u64,
                        bytes: c.to_vec(),
                    })
                    .collect()
            })
            .collect();
        let counts: Vec<usize> = segmented.iter().map(Vec::len).collect();
        let mut cursors = vec![0usize; flows];
        self.interleave_schedule(&counts)
            .into_iter()
            .map(|flow| {
                let segment = segmented[flow][cursors[flow]].clone();
                cursors[flow] += 1;
                (flow, segment)
            })
            .collect()
    }
}

/// One TCP segment of a generated schedule: the payload bytes and their
/// position in the flow's sequence space (relative byte offset from
/// flow start). Produced by [`TrafficGenerator::segment_schedule`];
/// consumed by a reassembler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Sequence offset of the first payload byte, relative to flow
    /// start.
    pub seq: u64,
    /// Segment payload.
    pub bytes: Vec<u8>,
}

/// How a chopped payload's segments are scheduled onto the wire —
/// the adversarial transport behaviours a TCP reassembler must survive.
/// Combine with any [`ChopProfile`] (notably
/// [`ChopProfile::MidPattern`], which guarantees cuts *inside* injected
/// pattern occurrences, so every profile here reorders/overlaps/drops
/// mid-pattern).
///
/// Every profile except [`SegmentProfile::Holes`] is
/// **in-order-deliverable**: a reassembler with sufficient budget
/// (≥ the profile's displacement bound, see
/// [`TrafficGenerator::segment_schedule`]) reconstructs the exact
/// original byte stream, so scan results must equal the whole-payload
/// scan byte for byte. `Holes` deliberately loses segments; only
/// matches overlapping the dropped ranges may be lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentProfile {
    /// Segments in sequence order — the reassembler's no-copy fast
    /// path.
    InOrder,
    /// Segments shuffled within consecutive blocks of `window`
    /// segments: arrival displacement is strictly bounded, so the
    /// schedule is in-order-deliverable under a budget of `window + 1`
    /// max-size segments.
    Reorder {
        /// Shuffle block size in segments (≥ 2 to actually reorder).
        window: usize,
    },
    /// In-order, but every `every`-th segment is followed by a
    /// retransmission of a random earlier segment (identical bytes) —
    /// the duplicate-suppression path.
    Retransmit {
        /// Retransmit cadence in segments (≥ 1).
        every: usize,
    },
    /// Consecutive segment pairs arrive swapped, with the earlier
    /// segment's tail extended up to `extend` bytes into its
    /// successor's range carrying the **true** stream bytes — a
    /// consistent overlap the policy resolves without information loss.
    OverlapConsistent {
        /// Maximum overlap extension in bytes (≥ 1).
        extend: usize,
    },
    /// Like [`SegmentProfile::OverlapConsistent`], but the extension
    /// bytes are **corrupted** (bit-flipped): the overlap content
    /// disagrees with the true bytes that arrived first. Under the
    /// default first-wins policy the true bytes survive — the delivered
    /// stream still equals the original payload — and every such pair
    /// counts an `overlap_conflicts` event (the evasion signature).
    OverlapConflicting {
        /// Maximum overlap extension in bytes (≥ 1).
        extend: usize,
    },
    /// In-order, but every `every`-th segment is dropped entirely —
    /// unfillable holes the reassembler must eventually skip. Matches
    /// overlapping a dropped range may be lost; nothing else may be.
    Holes {
        /// Drop cadence in segments (≥ 2 so some segments survive).
        every: usize,
    },
}

impl TrafficGenerator {
    /// Builds a deterministic adversarial segment schedule: chops
    /// `packet`'s payload with `chop` (mid-pattern cuts included when
    /// the profile asks for them), then arranges the segments per
    /// `profile`. The result is what the wire delivers — feed each
    /// [`Segment`] to a reassembler in order.
    ///
    /// Displacement bound: for every profile except
    /// [`SegmentProfile::Holes`], a reassembler whose per-flow budget is
    /// at least `(window + 1) × max_segment_len` bytes (where `window`
    /// is the reorder block size, 2 for the overlap profiles, 1
    /// otherwise) reconstructs the exact original stream.
    pub fn segment_schedule(
        &mut self,
        packet: &Packet,
        set: &PatternSet,
        chop: ChopProfile,
        profile: SegmentProfile,
    ) -> Vec<Segment> {
        let cuts = self.chop_points(packet, set, chop);
        let pieces = crate::traffic::chop(&packet.payload, &cuts);
        let mut base = Vec::with_capacity(pieces.len());
        let mut seq = 0u64;
        for piece in pieces {
            base.push(Segment {
                seq,
                bytes: piece.to_vec(),
            });
            seq += piece.len() as u64;
        }
        match profile {
            SegmentProfile::InOrder => base,
            SegmentProfile::Reorder { window } => {
                let window = window.max(2);
                for block in base.chunks_mut(window) {
                    block.shuffle(&mut self.rng);
                }
                base
            }
            SegmentProfile::Retransmit { every } => {
                let every = every.max(1);
                let mut out = Vec::with_capacity(base.len() + base.len() / every);
                for (i, seg) in base.iter().enumerate() {
                    out.push(seg.clone());
                    if (i + 1) % every == 0 {
                        let j = self.rng.gen_range(0..=i);
                        out.push(base[j].clone());
                    }
                }
                out
            }
            SegmentProfile::OverlapConsistent { extend }
            | SegmentProfile::OverlapConflicting { extend } => {
                let conflicting =
                    matches!(profile, SegmentProfile::OverlapConflicting { .. });
                let extend = extend.max(1);
                let mut out = Vec::with_capacity(base.len());
                let mut i = 0;
                while i < base.len() {
                    if i + 1 >= base.len() {
                        out.push(base[i].clone());
                        break;
                    }
                    let next = &base[i + 1];
                    let ext = self.rng.gen_range(1..=extend).min(next.bytes.len());
                    let mut first = base[i].clone();
                    let mut tail = next.bytes[..ext].to_vec();
                    if conflicting {
                        // Corrupt the extension: the successor's true
                        // bytes (which arrive first) must win.
                        for b in &mut tail {
                            *b ^= 0xFF;
                        }
                    }
                    first.bytes.extend_from_slice(&tail);
                    // Successor first (buffered behind the hole), then
                    // the extended predecessor filling it.
                    out.push(next.clone());
                    out.push(first);
                    i += 2;
                }
                out
            }
            SegmentProfile::Holes { every } => {
                let every = every.max(2);
                base.into_iter()
                    .enumerate()
                    .filter(|(i, _)| (i + 1) % every != 0)
                    .map(|(_, s)| s)
                    .collect()
            }
        }
    }
}

/// Materializes the segments of `payload` between the interior `cuts`
/// produced by [`TrafficGenerator::chop_points`] (concatenating the
/// result reproduces `payload` exactly).
///
/// # Panics
///
/// Panics if `cuts` is not strictly increasing within `0..len`.
pub fn chop<'a>(payload: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut segments = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0usize;
    for &cut in cuts {
        assert!(
            start < cut && cut < payload.len(),
            "cuts must be strictly increasing interior offsets"
        );
        segments.push(&payload[start..cut]);
        start = cut;
    }
    segments.push(&payload[start..]);
    segments
}

/// Crafts a `len`-byte payload that maximizes fail-pointer work for the
/// fail-function Aho-Corasick automaton of `set`.
///
/// Greedy construction: from the current NFA state, choose the next byte
/// that costs the most state lookups (deep fail chains), tie-breaking
/// toward bytes that keep the automaton deep so the next step is expensive
/// again. The result typically forces several lookups per byte, while the
/// paper's move-function design performs exactly one — the gap measured by
/// the `adversarial` bench.
pub fn adversarial_payload(set: &PatternSet, len: usize) -> Vec<u8> {
    let nfa = Nfa::build(set);
    let trie = nfa.trie();
    // Candidate bytes: those appearing in patterns (others instantly reset
    // to the start state and cost only one lookup).
    let mut alphabet: Vec<u8> = set.iter().flat_map(|(_, p)| p.iter().copied()).collect();
    alphabet.sort_unstable();
    alphabet.dedup();
    // Per-state *potential*: the deepest depth reachable through tree
    // edges. Fail-chain length — and hence the worst-case cost of a future
    // mismatch — is bounded by depth, so the crafter prefers moves that
    // keep the deepest continuations open (a plain depth tie-break gets
    // stuck in shallow local optima).
    let mut potential = vec![0u16; trie.len()];
    for i in (0..trie.len()).rev() {
        let id = StateId(i as u32);
        let own = trie.state(id).depth();
        let best_child = trie
            .state(id)
            .children()
            .iter()
            .map(|&(_, c)| potential[c.index()])
            .max()
            .unwrap_or(own);
        potential[i] = own.max(best_child);
    }
    let mut payload = Vec::with_capacity(len);
    let mut state = StateId::START;
    for _ in 0..len {
        // Phase 1 — deepen: while tree edges exist, walk toward the
        // deepest reachable state (a mismatch there walks the longest
        // fail chain). The *average* cost of Aho-Corasick is amortized
        // below 2 lookups/byte whatever we do; what an attacker maximizes
        // is the worst single-byte latency, which grows with depth for
        // self-overlapping rulesets.
        let children = trie.state(state).children();
        if !children.is_empty() {
            let &(byte, child) = children
                .iter()
                .max_by_key(|&&(_, c)| potential[c.index()])
                .expect("non-empty children");
            payload.push(byte);
            state = child;
            continue;
        }
        // Phase 2 — cash out: no deeper tree edge; pick the byte with the
        // most expensive resolution.
        let mut best = (alphabet.first().copied().unwrap_or(0), 0usize, 0u16);
        for &b in &alphabet {
            let (next, lookups) = nfa.step_counting(state, b);
            let pot = potential[next.index()];
            if lookups > best.1 || (lookups == best.1 && pot > best.2) {
                best = (b, lookups, pot);
            }
        }
        payload.push(best.0);
        state = nfa.step(state, best.0);
    }
    payload
}

/// A generated HTTP/1.x connection with its normalizer ground truth.
///
/// `decoded` is the byte stream a correct protocol normalizer feeds the
/// scanner over the connection's lifetime: header sections verbatim
/// (the probe prefix included — a normalizer raw-scans it, it is never
/// lost) followed by decoded body bytes. For Content-Length-framed
/// messages `decoded == wire`; chunked framing metadata (size lines,
/// chunk CRLFs, trailers) is absent from `decoded`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpStream {
    /// Wire bytes as sent on the connection.
    pub wire: Vec<u8>,
    /// The decoded stream (see type docs).
    pub decoded: Vec<u8>,
    /// Ground-truth injections as `(pattern, end)` pairs, with `end` in
    /// **decoded-stream offsets** — what a scanner fed by the
    /// normalizer reports, not a wire offset.
    pub injected: Vec<(PatternId, usize)>,
}

/// Hostile HTTP framing shapes for
/// [`TrafficGenerator::malformed_http_stream`]. Every variant must make
/// a strict normalizer **fail open** (downgrade to raw scanning) rather
/// than mis-frame; none may panic it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpMalformation {
    /// Chunk-size line that is not hex (`"ZZ\r\n"`).
    BadChunkSize,
    /// Legal hex chunk size far beyond any sane decoder cap.
    OversizedChunk,
    /// Chunk-size line carrying a chunk extension (`";a=b"`), which a
    /// strict decoder refuses rather than guess at.
    ChunkExtension,
    /// Connection dies mid-chunk: framing promises more bytes than
    /// arrive. Not a parse error — the property under test is that
    /// truncation leaves the ledger balanced and nothing wedged.
    TruncatedMidChunk,
    /// Header lines terminated by bare LF instead of CRLF.
    BareLf,
    /// A NUL byte inside a header line.
    NulHeader,
    /// Two `Content-Length` headers with different values — the classic
    /// request-smuggling ambiguity.
    DuplicateContentLength,
    /// `Content-Length` and `Transfer-Encoding: chunked` together —
    /// the other smuggling ambiguity.
    ChunkedPlusContentLength,
    /// An endless header section intended to exhaust parser budgets.
    HeaderFlood,
    /// A chunk-size line of hundreds of leading-zero hex digits: the
    /// parsed value never trips a size cap, so only a digit-count guard
    /// stops it (an unbounded counter would overflow).
    ChunkSizeZeroFlood,
    /// `Transfer-Encoding: xchunked` — a substring imposter a naive
    /// detector decodes as chunked while endpoints frame it
    /// differently (request-smuggling desync).
    TransferEncodingImposter,
    /// A framing header padded with OWS far past any header-line cap,
    /// hiding its value from bounded-copy parsers.
    PaddedContentLength,
}

/// All malformation shapes, for sweep-style tests and repros.
pub const HTTP_MALFORMATIONS: &[HttpMalformation] = &[
    HttpMalformation::BadChunkSize,
    HttpMalformation::OversizedChunk,
    HttpMalformation::ChunkExtension,
    HttpMalformation::TruncatedMidChunk,
    HttpMalformation::BareLf,
    HttpMalformation::NulHeader,
    HttpMalformation::DuplicateContentLength,
    HttpMalformation::ChunkedPlusContentLength,
    HttpMalformation::HeaderFlood,
    HttpMalformation::ChunkSizeZeroFlood,
    HttpMalformation::TransferEncodingImposter,
    HttpMalformation::PaddedContentLength,
];

const HTTP_METHODS: &[&[u8]] = &[b"GET", b"POST", b"PUT", b"HEAD", b"DELETE"];
const HTTP_PATHS: &[&[u8]] = &[
    b"/index.html",
    b"/api/v2/items",
    b"/static/app.js",
    b"/upload",
    b"/search?q=dpi",
];

impl TrafficGenerator {
    fn header_token(&mut self, len: usize) -> Vec<u8> {
        const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
        (0..len)
            .map(|_| ALPHA[self.rng.gen_range(0..ALPHA.len())])
            .collect()
    }

    /// Emits one well-formed request head (start line + headers + blank
    /// line) onto `wire`, declaring the given framing.
    fn http_head(&mut self, wire: &mut Vec<u8>, framing: &[u8]) {
        let method = HTTP_METHODS[self.rng.gen_range(0..HTTP_METHODS.len())];
        let path = HTTP_PATHS[self.rng.gen_range(0..HTTP_PATHS.len())];
        wire.extend_from_slice(method);
        wire.push(b' ');
        wire.extend_from_slice(path);
        wire.extend_from_slice(b" HTTP/1.1\r\nHost: www.example.com\r\n");
        for _ in 0..self.rng.gen_range(0..3usize) {
            wire.extend_from_slice(b"X-Fill: ");
            let token_len = self.rng.gen_range(4..24);
            let token = self.header_token(token_len);
            wire.extend_from_slice(&token);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(framing);
        wire.extend_from_slice(b"\r\n");
    }

    /// Frames `body` as chunked transfer coding onto `wire`, cutting at
    /// the given ascending `cuts` (body offsets strictly inside the
    /// body). Ends with the zero chunk and empty trailer section.
    fn frame_chunked(&mut self, wire: &mut Vec<u8>, body: &[u8], cuts: &[usize]) {
        let mut start = 0usize;
        let mut bounds: Vec<usize> = cuts.to_vec();
        bounds.push(body.len());
        for &end in &bounds {
            if end <= start {
                continue;
            }
            let chunk = &body[start..end];
            let size = if self.rng.gen_bool(0.5) {
                format!("{:x}", chunk.len())
            } else {
                format!("{:X}", chunk.len())
            };
            wire.extend_from_slice(size.as_bytes());
            wire.extend_from_slice(b"\r\n");
            wire.extend_from_slice(chunk);
            wire.extend_from_slice(b"\r\n");
            start = end;
        }
        wire.extend_from_slice(b"0\r\n");
        if self.rng.gen_bool(0.25) {
            // Occasional trailer line: pure metadata to a normalizer.
            wire.extend_from_slice(b"X-Trailer: ok\r\n");
        }
        wire.extend_from_slice(b"\r\n");
    }

    /// A well-formed keep-alive HTTP/1.x connection: `messages`
    /// requests, each with a body of exactly `body_len` bytes, framed
    /// by Content-Length or (with probability `chunked_ratio`) chunked
    /// transfer coding split at random chunk boundaries. Injects
    /// nothing; ground truth is the `decoded` stream itself.
    pub fn http_stream(&mut self, messages: usize, body_len: usize, chunked_ratio: f64) -> HttpStream {
        let mut wire = Vec::new();
        let mut decoded = Vec::new();
        for _ in 0..messages {
            let body: Vec<u8> = (0..body_len)
                .map(|_| {
                    // Printable payload bytes; CR/LF/NUL excluded so a
                    // body never fakes header structure on re-parse.
                    let b: u8 = self.rng.gen_range(0x20..0x7f);
                    b
                })
                .collect();
            let chunked = body_len > 0 && self.rng.gen_bool(chunked_ratio);
            let head_start = wire.len();
            if chunked {
                self.http_head(&mut wire, b"Transfer-Encoding: chunked\r\n");
                decoded.extend_from_slice(&wire[head_start..]);
                let mut cuts: Vec<usize> = (0..self.rng.gen_range(0..4usize))
                    .map(|_| self.rng.gen_range(1..body.len().max(2)))
                    .collect();
                cuts.sort_unstable();
                cuts.dedup();
                cuts.retain(|&c| c < body.len());
                self.frame_chunked(&mut wire, &body, &cuts);
            } else {
                let framing = format!("Content-Length: {}\r\n", body.len());
                self.http_head(&mut wire, framing.as_bytes());
                decoded.extend_from_slice(&wire[head_start..]);
                wire.extend_from_slice(&body);
            }
            decoded.extend_from_slice(&body);
        }
        HttpStream {
            wire,
            decoded,
            injected: Vec::new(),
        }
    }

    /// The chunk-boundary evasion stream: one chunked POST whose body
    /// carries `count` injected patterns from `set`, each split by a
    /// chunk boundary placed strictly *inside* the pattern. The decoded
    /// body contains every pattern contiguously; the wire provably does
    /// not (framing metadata interrupts each occurrence), so a raw
    /// scanner misses what a normalizing scanner must find.
    ///
    /// Body filler is `'.'` so patterns containing any other byte
    /// cannot occur by accident in either stream.
    ///
    /// # Panics
    ///
    /// Panics if `set` has no pattern of length ≥ 2 (a 1-byte pattern
    /// cannot be split) or the body cannot hold `count` occurrences.
    pub fn chunked_evasion_stream(&mut self, set: &PatternSet, count: usize) -> HttpStream {
        let splittable: Vec<PatternId> = set
            .iter()
            .filter(|(_, p)| p.len() >= 2)
            .map(|(id, _)| id)
            .collect();
        assert!(
            !splittable.is_empty(),
            "need a pattern of length >= 2 to split across a chunk boundary"
        );
        let longest = splittable
            .iter()
            .map(|&id| set.pattern(id).len())
            .max()
            .unwrap();
        let body_len = (count * (longest + 32)).max(128);
        let mut body = vec![b'.'; body_len];
        let mut occupied: Vec<(usize, usize)> = Vec::new();
        let mut placed: Vec<(PatternId, usize, usize)> = Vec::new();
        let mut attempts = 0usize;
        while placed.len() < count {
            attempts += 1;
            assert!(
                attempts < 10_000,
                "cannot place {count} patterns in a {body_len}-byte body"
            );
            let id = splittable[self.rng.gen_range(0..splittable.len())];
            let p = set.pattern(id);
            let start = self.rng.gen_range(0..=body_len - p.len());
            if occupied
                .iter()
                .any(|&(s, e)| start < e && s < start + p.len())
            {
                continue;
            }
            occupied.push((start, start + p.len()));
            body[start..start + p.len()].copy_from_slice(p);
            placed.push((id, start, p.len()));
        }
        // One cut strictly inside every placed pattern: the wire never
        // carries the occurrence contiguously.
        let mut cuts: Vec<usize> = placed
            .iter()
            .map(|&(_, start, len)| start + self.rng.gen_range(1..len))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();

        let mut wire = Vec::new();
        self.http_head(&mut wire, b"Transfer-Encoding: chunked\r\n");
        let head_len = wire.len();
        let mut decoded = wire.clone();
        decoded.extend_from_slice(&body);
        self.frame_chunked(&mut wire, &body, &cuts);

        let mut injected: Vec<(PatternId, usize)> = placed
            .iter()
            .map(|&(id, start, len)| (id, head_len + start + len))
            .collect();
        injected.sort_by_key(|&(_, end)| end);
        HttpStream {
            wire,
            decoded,
            injected,
        }
    }

    /// A hostile HTTP connection exercising one malformation shape. The
    /// returned wire begins as plausible HTTP (so a detector engages
    /// the normalizer) and then presents the hostile framing; callers
    /// append whatever payload should still be caught by the raw
    /// fallback after the fail-open downgrade.
    pub fn malformed_http_stream(&mut self, kind: HttpMalformation) -> Vec<u8> {
        let mut wire = Vec::new();
        match kind {
            HttpMalformation::BadChunkSize => {
                self.http_head(&mut wire, b"Transfer-Encoding: chunked\r\n");
                wire.extend_from_slice(b"ZZ\r\n");
            }
            HttpMalformation::OversizedChunk => {
                self.http_head(&mut wire, b"Transfer-Encoding: chunked\r\n");
                wire.extend_from_slice(b"FFFFFFF9\r\n");
            }
            HttpMalformation::ChunkExtension => {
                self.http_head(&mut wire, b"Transfer-Encoding: chunked\r\n");
                wire.extend_from_slice(b"4;a=b\r\nbody\r\n");
            }
            HttpMalformation::TruncatedMidChunk => {
                self.http_head(&mut wire, b"Transfer-Encoding: chunked\r\n");
                wire.extend_from_slice(b"400\r\ntruncated-");
            }
            HttpMalformation::BareLf => {
                wire.extend_from_slice(b"GET /lf HTTP/1.1\nHost: bare\n\n");
            }
            HttpMalformation::NulHeader => {
                wire.extend_from_slice(b"GET /nul HTTP/1.1\r\nX-Bad: a\0b\r\n\r\n");
            }
            HttpMalformation::DuplicateContentLength => {
                self.http_head(
                    &mut wire,
                    b"Content-Length: 4\r\nContent-Length: 5\r\n",
                );
            }
            HttpMalformation::ChunkedPlusContentLength => {
                self.http_head(
                    &mut wire,
                    b"Content-Length: 8\r\nTransfer-Encoding: chunked\r\n",
                );
            }
            HttpMalformation::HeaderFlood => {
                wire.extend_from_slice(b"GET /flood HTTP/1.1\r\n");
                for i in 0..4096usize {
                    wire.extend_from_slice(format!("X-Flood-{i}: ").as_bytes());
                    let token = self.header_token(24);
                    wire.extend_from_slice(&token);
                    wire.extend_from_slice(b"\r\n");
                }
                // No blank line: the section just keeps growing.
            }
            HttpMalformation::ChunkSizeZeroFlood => {
                self.http_head(&mut wire, b"Transfer-Encoding: chunked\r\n");
                wire.extend(std::iter::repeat_n(b'0', 300));
                wire.extend_from_slice(b"5\r\n");
            }
            HttpMalformation::TransferEncodingImposter => {
                self.http_head(&mut wire, b"Transfer-Encoding: xchunked\r\n");
            }
            HttpMalformation::PaddedContentLength => {
                let mut framing = b"Content-Length:".to_vec();
                framing.extend(std::iter::repeat_n(b' ', 160));
                framing.extend_from_slice(b"8\r\n");
                self.http_head(&mut wire, &framing);
            }
        }
        wire
    }

    /// Protocol mimicry: a perfectly plausible HTTP connection intended
    /// for delivery to a flow whose port hint promises TLS (or vice
    /// versa) — the detect stage must count `mimicry_suspected` and
    /// fall back to raw scanning rather than trust either signal.
    pub fn mimicry_stream(&mut self, body_len: usize) -> Vec<u8> {
        self.http_stream(1, body_len, 0.0).wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_automaton::{MultiMatcher, NaiveMatcher, NfaMatcher};

    fn small_set() -> PatternSet {
        PatternSet::new(["he", "she", "his", "hers", "attack", "aback"]).unwrap()
    }

    fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }

    #[test]
    fn content_length_http_stream_decodes_to_wire() {
        let mut g = TrafficGenerator::new(7);
        let stream = g.http_stream(3, 256, 0.0);
        assert_eq!(stream.wire, stream.decoded);
        assert!(stream.injected.is_empty());
    }

    #[test]
    fn chunked_http_stream_strips_framing() {
        let mut g = TrafficGenerator::new(8);
        let stream = g.http_stream(4, 512, 1.0);
        assert!(stream.wire.len() > stream.decoded.len());
        assert!(contains_subslice(&stream.wire, b"Transfer-Encoding: chunked"));
        assert!(contains_subslice(&stream.decoded, b"Transfer-Encoding: chunked"));
        assert!(contains_subslice(&stream.wire, b"0\r\n"));
    }

    #[test]
    fn evasion_stream_splits_every_injection() {
        let set = PatternSet::new(["attack-sig", "evil-payload"]).unwrap();
        for seed in 0..8 {
            let mut g = TrafficGenerator::new(seed);
            let stream = g.chunked_evasion_stream(&set, 3);
            assert_eq!(stream.injected.len(), 3);
            for &(id, end) in &stream.injected {
                let p = set.pattern(id);
                assert_eq!(&stream.decoded[end - p.len()..end], p);
                assert!(
                    !contains_subslice(&stream.wire, p),
                    "seed {seed}: wire must not carry {:?} contiguously",
                    std::str::from_utf8(p)
                );
            }
        }
    }

    #[test]
    fn malformed_streams_start_like_http() {
        let mut g = TrafficGenerator::new(9);
        for &kind in HTTP_MALFORMATIONS {
            let wire = g.malformed_http_stream(kind);
            assert!(!wire.is_empty(), "{kind:?}");
            let head = &wire[..4.min(wire.len())];
            assert!(
                HTTP_METHODS.iter().any(|m| {
                    let k = m.len().min(head.len());
                    head[..k] == m[..k]
                }),
                "{kind:?} must engage the HTTP detector: {head:?}"
            );
        }
    }

    #[test]
    fn clean_packet_has_exact_length() {
        let mut g = TrafficGenerator::new(1);
        for len in [1usize, 64, 1500] {
            assert_eq!(g.clean_packet(len).payload.len(), len);
        }
    }

    #[test]
    fn service_mix_reassembles_to_per_flow_payloads() {
        let set = small_set();
        let mix = TrafficGenerator::new(9).service_mix(5, 700, 96, &set, 2, 3);
        // Per flow: segments arrive in order and concatenate to exactly
        // flow_len bytes.
        let mut streams: Vec<Vec<u8>> = vec![Vec::new(); 5];
        for (flow, segment) in &mix {
            assert_eq!(segment.seq as usize, streams[*flow].len());
            streams[*flow].extend_from_slice(&segment.bytes);
        }
        for (f, stream) in streams.iter().enumerate() {
            assert_eq!(stream.len(), 700, "flow {f} truncated");
        }
        // Infected flows (0, 2, 4) carry planted occurrences; the naive
        // matcher must find at least the injected count.
        let naive = NaiveMatcher::new(&set);
        for f in [0usize, 2, 4] {
            assert!(
                naive.find_all(&streams[f]).len() >= 3,
                "flow {f} lost its injections"
            );
        }
        // Determinism: the same seed reproduces the same schedule.
        let again = TrafficGenerator::new(9).service_mix(5, 700, 96, &set, 2, 3);
        assert_eq!(mix, again);
    }

    #[test]
    fn tls_stream_is_exact_length_and_deterministic() {
        let mut g = TrafficGenerator::new(7);
        for len in [1usize, 8, 512, 65_536] {
            assert_eq!(g.tls_stream(len).payload.len(), len);
        }
        let a = TrafficGenerator::new(7).tls_stream(32_768);
        let b = TrafficGenerator::new(7).tls_stream(32_768);
        assert_eq!(a, b, "same seed must reproduce the stream");
        assert!(a.injected.is_empty());
    }

    #[test]
    fn tls_stream_frames_parse_back() {
        let p = TrafficGenerator::new(11).tls_stream(100_000);
        let buf = &p.payload;
        // Walk the record layer: handshake first, ApplicationData
        // after, every header length honoured (the final record may be
        // truncated by the exact-length cut).
        let mut pos = 0usize;
        let mut records = 0usize;
        while pos + 5 <= buf.len() {
            let typ = buf[pos];
            assert_eq!(typ, if records == 0 { 0x16 } else { 0x17 }, "record {records}");
            assert_eq!(buf[pos + 1], 0x03);
            assert_eq!(buf[pos + 2], if records == 0 { 0x01 } else { 0x03 });
            let body = u16::from_be_bytes([buf[pos + 3], buf[pos + 4]]) as usize;
            pos += 5 + body;
            records += 1;
        }
        assert!(records >= 5, "100 KB must span several records");
        assert!(pos >= buf.len(), "no trailing garbage between records");
    }

    #[test]
    fn tls_stream_bodies_are_high_entropy_long_spans() {
        let p = TrafficGenerator::new(13).tls_stream(1 << 16);
        let mut seen = [0u32; 256];
        for &b in &p.payload {
            seen[b as usize] += 1;
        }
        let distinct = seen.iter().filter(|&&c| c > 0).count();
        assert!(distinct > 250, "encrypted bodies must use the full byte alphabet");
        // Nothing resembling the HTTP chatter of `clean_packet`.
        let hay = &p.payload;
        assert!(
            !hay.windows(4).any(|w| w == b"HTTP"),
            "a 64 KB encrypted stream should not contain protocol text"
        );
    }

    #[test]
    fn infected_packet_ground_truth_is_found_by_matchers() {
        let set = small_set();
        let mut g = TrafficGenerator::new(2);
        let p = g.infected_packet(512, &set, 5);
        assert_eq!(p.injected.len(), 5);
        let naive = NaiveMatcher::new(&set);
        let found = naive.find_all(&p.payload);
        for &(id, end) in &p.injected {
            assert!(
                found.iter().any(|m| m.pattern == id && m.end == end),
                "injected {id:?}@{end} not found"
            );
        }
    }

    #[test]
    fn injections_do_not_overlap() {
        let set = small_set();
        let mut g = TrafficGenerator::new(3);
        let p = g.infected_packet(256, &set, 8);
        let mut ranges: Vec<(usize, usize)> = p
            .injected
            .iter()
            .map(|&(id, end)| (end - set.pattern_len(id), end))
            .collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {w:?}");
        }
    }

    #[test]
    fn traffic_is_deterministic() {
        let set = small_set();
        let a = TrafficGenerator::new(9).packets(3, 128, &set, 2);
        let b = TrafficGenerator::new(9).packets(3, 128, &set, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn chop_profiles_partition_the_payload() {
        let set = small_set();
        let mut g = TrafficGenerator::new(7);
        let p = g.infected_packet(600, &set, 4);
        for profile in [
            ChopProfile::Mtu(128),
            ChopProfile::SingleByte,
            ChopProfile::Random { min: 1, max: 40 },
            ChopProfile::MidPattern { mtu: 100 },
        ] {
            let cuts = g.chop_points(&p, &set, profile);
            assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{profile:?}");
            let segments = chop(&p.payload, &cuts);
            let rebuilt: Vec<u8> = segments.concat();
            assert_eq!(rebuilt, p.payload, "{profile:?} must partition exactly");
            if profile == ChopProfile::SingleByte {
                assert!(segments.iter().all(|s| s.len() == 1));
            }
        }
    }

    #[test]
    fn mid_pattern_cuts_every_injected_occurrence() {
        let set = small_set();
        let mut g = TrafficGenerator::new(8);
        let p = g.infected_packet(512, &set, 6);
        let cuts = g.chop_points(&p, &set, ChopProfile::MidPattern { mtu: 4096 });
        for &(id, end) in &p.injected {
            let start = end - set.pattern_len(id);
            assert!(
                cuts.iter().any(|&c| c > start && c < end),
                "occurrence {id:?}@{start}..{end} not cut by {cuts:?}"
            );
        }
    }

    #[test]
    fn interleave_schedule_preserves_per_flow_order_and_counts() {
        let mut g = TrafficGenerator::new(9);
        let counts = [3usize, 0, 5, 1];
        let schedule = g.interleave_schedule(&counts);
        assert_eq!(schedule.len(), 9);
        for (flow, &want) in counts.iter().enumerate() {
            assert_eq!(schedule.iter().filter(|&&f| f == flow).count(), want);
        }
        // Some interleaving actually happened (flows 0 and 2 overlap).
        let first2 = schedule.iter().position(|&f| f == 2).unwrap();
        let last0 = schedule.iter().rposition(|&f| f == 0).unwrap();
        assert!(first2 < last0 || schedule[0] == 2, "degenerate shuffle");
    }

    /// Replays a schedule through a first-wins oracle reassembler:
    /// bytes keep their first-arrival value, coverage is tracked.
    fn first_wins_replay(schedule: &[Segment], len: usize) -> (Vec<u8>, Vec<bool>) {
        let mut stream = vec![0u8; len];
        let mut covered = vec![false; len];
        for seg in schedule {
            for (i, &b) in seg.bytes.iter().enumerate() {
                let pos = seg.seq as usize + i;
                if !covered[pos] {
                    stream[pos] = b;
                    covered[pos] = true;
                }
            }
        }
        (stream, covered)
    }

    fn lossless_profiles() -> Vec<SegmentProfile> {
        vec![
            SegmentProfile::InOrder,
            SegmentProfile::Reorder { window: 4 },
            SegmentProfile::Retransmit { every: 3 },
            SegmentProfile::OverlapConsistent { extend: 8 },
            SegmentProfile::OverlapConflicting { extend: 8 },
        ]
    }

    #[test]
    fn segment_schedules_are_deterministic() {
        let set = small_set();
        for profile in lossless_profiles() {
            let mut g1 = TrafficGenerator::new(11);
            let mut g2 = TrafficGenerator::new(11);
            let p1 = g1.infected_packet(512, &set, 3);
            let p2 = g2.infected_packet(512, &set, 3);
            let chop = ChopProfile::MidPattern { mtu: 64 };
            let s1 = g1.segment_schedule(&p1, &set, chop, profile);
            let s2 = g2.segment_schedule(&p2, &set, chop, profile);
            assert_eq!(s1, s2, "{profile:?} must be seed-deterministic");
        }
    }

    #[test]
    fn lossless_schedules_reconstruct_the_payload_first_wins() {
        let set = small_set();
        let mut g = TrafficGenerator::new(12);
        let p = g.infected_packet(700, &set, 4);
        for profile in lossless_profiles() {
            let schedule =
                g.segment_schedule(&p, &set, ChopProfile::MidPattern { mtu: 90 }, profile);
            let (stream, covered) = first_wins_replay(&schedule, p.payload.len());
            assert!(covered.iter().all(|&c| c), "{profile:?} must cover all bytes");
            assert_eq!(
                stream, p.payload,
                "{profile:?} must reconstruct the payload under first-wins"
            );
        }
    }

    #[test]
    fn reorder_displacement_is_bounded_by_the_window() {
        let set = small_set();
        let mut g = TrafficGenerator::new(13);
        let p = g.clean_packet(2000);
        let window = 4;
        let schedule = g.segment_schedule(
            &p,
            &set,
            ChopProfile::Mtu(100),
            SegmentProfile::Reorder { window },
        );
        // Within any prefix of arrivals, the furthest-back missing byte
        // is at most window segments behind the furthest-ahead seen one.
        let max_len = schedule.iter().map(|s| s.bytes.len()).max().unwrap() as u64;
        let mut delivered_to = 0u64;
        for seg in &schedule {
            let tail = seg.seq + seg.bytes.len() as u64;
            assert!(
                tail <= delivered_to + (window as u64 + 1) * max_len,
                "displacement beyond the documented bound"
            );
            delivered_to = delivered_to.max(tail);
        }
        // And some actual reordering happened.
        assert!(
            schedule.windows(2).any(|w| w[0].seq > w[1].seq),
            "degenerate shuffle: schedule arrived fully in order"
        );
    }

    #[test]
    fn retransmit_schedule_duplicates_earlier_segments_verbatim() {
        let set = small_set();
        let mut g = TrafficGenerator::new(14);
        let p = g.clean_packet(1000);
        let schedule = g.segment_schedule(
            &p,
            &set,
            ChopProfile::Mtu(100),
            SegmentProfile::Retransmit { every: 2 },
        );
        assert!(schedule.len() > 10, "duplicates must be injected");
        // Every duplicate carries bytes identical to the original.
        for seg in &schedule {
            let start = seg.seq as usize;
            assert_eq!(
                &p.payload[start..start + seg.bytes.len()],
                &seg.bytes[..],
                "retransmissions must be verbatim"
            );
        }
    }

    #[test]
    fn conflicting_overlaps_disagree_but_true_bytes_arrive_first() {
        let set = small_set();
        let mut g = TrafficGenerator::new(15);
        let p = g.clean_packet(1000);
        let schedule = g.segment_schedule(
            &p,
            &set,
            ChopProfile::Mtu(100),
            SegmentProfile::OverlapConflicting { extend: 16 },
        );
        // At least one arriving byte must disagree with the payload
        // (the corrupted extensions)...
        let mut conflicts = 0usize;
        for seg in &schedule {
            let start = seg.seq as usize;
            if p.payload[start..start + seg.bytes.len()] != seg.bytes[..] {
                conflicts += 1;
            }
        }
        assert!(conflicts > 0, "no conflicting bytes were scheduled");
        // ...yet first-wins reconstruction still equals the payload:
        // the true copy of every conflicted range arrives first.
        let (stream, covered) = first_wins_replay(&schedule, p.payload.len());
        assert!(covered.iter().all(|&c| c));
        assert_eq!(stream, p.payload);
    }

    #[test]
    fn holes_schedule_drops_segments_and_only_segments() {
        let set = small_set();
        let mut g = TrafficGenerator::new(16);
        let p = g.clean_packet(1000);
        let in_order = g.segment_schedule(
            &p,
            &set,
            ChopProfile::Mtu(100),
            SegmentProfile::InOrder,
        );
        let mut g2 = TrafficGenerator::new(16);
        let p2 = g2.clean_packet(1000);
        let holes = g2.segment_schedule(
            &p2,
            &set,
            ChopProfile::Mtu(100),
            SegmentProfile::Holes { every: 3 },
        );
        assert!(holes.len() < in_order.len(), "some segments must drop");
        // Survivors arrive in order and verbatim.
        assert!(holes.windows(2).all(|w| w[0].seq < w[1].seq));
        for seg in &holes {
            let start = seg.seq as usize;
            assert_eq!(&p2.payload[start..start + seg.bytes.len()], &seg.bytes[..]);
        }
    }

    #[test]
    fn mid_pattern_chop_composes_with_schedules() {
        // The adversarial combination the reassembler exists for:
        // cuts inside every injected occurrence AND reordered arrival.
        let set = small_set();
        let mut g = TrafficGenerator::new(17);
        let p = g.infected_packet(600, &set, 4);
        let schedule = g.segment_schedule(
            &p,
            &set,
            ChopProfile::MidPattern { mtu: 80 },
            SegmentProfile::Reorder { window: 3 },
        );
        for &(id, end) in &p.injected {
            let start = end - set.pattern_len(id);
            // Some segment boundary falls strictly inside [start, end):
            // no single segment contains the whole occurrence.
            assert!(
                !schedule.iter().any(|s| {
                    let ss = s.seq as usize;
                    ss <= start && end <= ss + s.bytes.len()
                }),
                "occurrence {id:?}@{start}..{end} fit inside one segment"
            );
        }
    }

    #[test]
    fn adversarial_payload_costs_more_than_random() {
        // Patterns with heavy self-overlap produce long fail chains.
        let set = PatternSet::new(["aaaa", "aaab", "aabaa", "abaaa"]).unwrap();
        let nfa = Nfa::build(&set);
        let m = NfaMatcher::new(&nfa, &set);
        let adv = adversarial_payload(&set, 400);
        let adv_cost = m.scan_counting(&adv).lookups;
        let mut g = TrafficGenerator::new(4);
        let rand_cost = m.scan_counting(&g.clean_packet(400).payload).lookups;
        assert!(
            adv_cost > rand_cost,
            "adversarial {adv_cost} should exceed random {rand_cost}"
        );
        // And strictly more than one lookup per byte on average.
        assert!(adv_cost > 400);
    }
}
