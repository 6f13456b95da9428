//! The four traffic mixes, generated in memory from the seed.
//!
//! Rulesets are fixed per workload; the seed drives every traffic byte,
//! every planted occurrence and every arrival order. Each flow's whole
//! byte stream is kept beside its segments, so the correctness gate can
//! say where each planted occurrence must be reported.

use dpi_automaton::{PatternId, PatternSet};
use dpi_core::FlowKey;
use dpi_rulesets::{
    ChopProfile, Packet, RulesetGenerator, Segment, SegmentProfile, TrafficGenerator,
};

/// Every workload, in the order a full run visits them.
pub const NAMES: [&str; 4] = [
    "http_mix_6275",
    "small_seg_300",
    "tls_25k",
    "reorder_http_300",
];

/// Which traffic shape a workload generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `service_mix`: in-order segments of HTTP-ish chatter, one flow in
    /// eight infected.
    Mix,
    /// `tls_stream` flows with occurrences planted inside
    /// ApplicationData bodies.
    Tls,
    /// Keep-alive `http_stream` connections, chopped at random sizes and
    /// reordered within blocks of four segments.
    ReorderHttp,
}

/// A workload's fixed parameters. The paced rate is set once (see the
/// crate docs for the rule); it never tracks the code under test, or the
/// offered load would hide a change.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as `--workload` takes it.
    pub name: &'static str,
    /// Traffic shape.
    pub kind: Kind,
    /// Concurrent flows.
    pub flows: usize,
    /// Bytes per flow (`Mix`, `Tls`) or body bytes per message
    /// (`ReorderHttp`).
    pub flow_len: usize,
    /// Segment size (`Mix`, `Tls`) or messages per connection
    /// (`ReorderHttp`).
    pub seg: usize,
    /// Occurrences planted per infected flow.
    pub planted: usize,
    /// Open-loop offered rate of the paced run, MB/s.
    pub paced_mbps: f64,
}

impl Spec {
    /// The spec named `name`, if there is one.
    pub fn named(name: &str) -> Option<Spec> {
        let spec = |name, kind, flows, flow_len, seg, planted, paced_mbps| Spec {
            name,
            kind,
            flows,
            flow_len,
            seg,
            planted,
            paced_mbps,
        };
        Some(match name {
            "http_mix_6275" => spec("http_mix_6275", Kind::Mix, 96, 96 << 10, 1200, 6, 30.0),
            "small_seg_300" => spec("small_seg_300", Kind::Mix, 1024, 16 << 10, 128, 6, 5.0),
            "tls_25k" => spec("tls_25k", Kind::Tls, 32, 256 << 10, 1448, 4, 55.0),
            "reorder_http_300" => {
                spec("reorder_http_300", Kind::ReorderHttp, 64, 4096, 32, 4, 30.0)
            }
            _ => return None,
        })
    }

    /// The workload's ruleset. Fixed: only traffic depends on the seed.
    pub fn ruleset(&self) -> PatternSet {
        let master = dpi_rulesets::master_ruleset();
        match self.name {
            "http_mix_6275" => master,
            "tls_25k" => RulesetGenerator::new().generate(25_000),
            _ => dpi_rulesets::extract_preserving(&master, 300, 0x0B07),
        }
    }
}

/// One segment on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seg {
    /// Flow index, `0..flows`.
    pub flow: u32,
    /// Sequence offset of the first byte, relative to flow start.
    pub seq: u64,
    /// Payload.
    pub bytes: Vec<u8>,
}

/// An occurrence written into a flow's byte stream on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planted {
    /// Flow index.
    pub flow: u32,
    /// Pattern written.
    pub pattern: PatternId,
    /// Wire offset one past its last byte.
    pub wire_end: usize,
    /// Pattern length.
    pub len: usize,
}

/// A generated workload.
#[derive(Debug)]
pub struct Workload {
    /// Parameters it was generated from.
    pub spec: Spec,
    /// Segments in arrival order.
    pub segs: Vec<Seg>,
    /// The same segments with each flow's arrivals in sequence order
    /// (flows interleaved as in `segs`); `ReorderHttp` only.
    pub in_order: Option<Vec<Seg>>,
    /// Each flow's whole byte stream.
    pub wire: Vec<Vec<u8>>,
    /// Planted occurrences.
    pub planted: Vec<Planted>,
    /// Sum of segment payload bytes.
    pub bytes: u64,
}

impl Workload {
    /// Generates `spec`'s traffic over `set` from `seed`.
    pub fn generate(spec: Spec, set: &PatternSet, seed: u64) -> Workload {
        let tag = spec.name.bytes().fold(0u64, |h, b| mix64(h ^ u64::from(b)));
        let mut rng = SplitMix(mix64(seed ^ tag));
        let mut gen = TrafficGenerator::new(rng.next());
        let (segs, in_order, wire, planted) = match spec.kind {
            Kind::Mix => mix(&spec, set, &mut gen),
            Kind::Tls => tls(&spec, set, &mut gen, &mut rng),
            Kind::ReorderHttp => reorder_http(&spec, set, &mut gen, &mut rng),
        };
        let bytes = segs.iter().map(|s| s.bytes.len() as u64).sum();
        Workload {
            spec,
            segs,
            in_order,
            wire,
            planted,
            bytes,
        }
    }

    /// FNV-1a digest of every segment and planted occurrence, in order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for s in self.segs.iter().chain(self.in_order.iter().flatten()) {
            h.write(&s.flow.to_le_bytes());
            h.write(&s.seq.to_le_bytes());
            h.write(&s.bytes);
        }
        for p in &self.planted {
            h.write(&p.flow.to_le_bytes());
            h.write(&p.pattern.0.to_le_bytes());
            h.write(&(p.wire_end as u64).to_le_bytes());
        }
        h.0
    }
}

/// The flow key of flow `flow` on replay lap `lap`: every lap of the
/// paced run uses fresh keys, so a lap is new flows, not a replay of
/// finished ones.
pub fn key(seed: u64, lap: u64, flow: u32) -> FlowKey {
    let low = mix64(seed ^ u64::from(flow).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    FlowKey((u128::from(lap) << 64) | u128::from(low))
}

type Parts = (Vec<Seg>, Option<Vec<Seg>>, Vec<Vec<u8>>, Vec<Planted>);

/// The shape of `TrafficGenerator::service_mix`, built here so each
/// infected flow's planted occurrences are kept.
fn mix(spec: &Spec, set: &PatternSet, gen: &mut TrafficGenerator) -> Parts {
    const INFECTED_EVERY: usize = 8;
    let mut wire = Vec::with_capacity(spec.flows);
    let mut planted = Vec::new();
    for f in 0..spec.flows {
        let packet = if f % INFECTED_EVERY == 0 {
            gen.infected_packet(spec.flow_len, set, spec.planted)
        } else {
            gen.clean_packet(spec.flow_len)
        };
        planted.extend(packet.injected.iter().map(|&(pattern, wire_end)| Planted {
            flow: f as u32,
            pattern,
            wire_end,
            len: set.pattern_len(pattern),
        }));
        wire.push(packet.payload);
    }
    let per_flow: Vec<Vec<Segment>> = wire.iter().map(|s| chunk(s, spec.seg)).collect();
    let order = gen.interleave_schedule(&per_flow.iter().map(Vec::len).collect::<Vec<_>>());
    (lay_out(&order, &per_flow), None, wire, planted)
}

fn tls(spec: &Spec, set: &PatternSet, gen: &mut TrafficGenerator, rng: &mut SplitMix) -> Parts {
    let mut wire = Vec::with_capacity(spec.flows);
    let mut planted = Vec::new();
    for f in 0..spec.flows {
        let mut payload = gen.tls_stream(spec.flow_len).payload;
        let bodies = app_data_bodies(&payload);
        let mut taken: Vec<(usize, usize)> = Vec::new();
        while taken.len() < spec.planted {
            let pattern = PatternId(rng.below(set.len() as u64) as u32);
            let bytes = set.pattern(pattern);
            let (lo, hi) = bodies[rng.below(bodies.len() as u64) as usize];
            // Strictly inside the body: at least one body byte on each side.
            if hi - lo < bytes.len() + 2 {
                continue;
            }
            let start = lo + 1 + rng.below((hi - lo - bytes.len() - 1) as u64) as usize;
            let end = start + bytes.len();
            if taken.iter().any(|&(s, e)| start < e && s < end) {
                continue;
            }
            taken.push((start, end));
            payload[start..end].copy_from_slice(bytes);
            planted.push(Planted {
                flow: f as u32,
                pattern,
                wire_end: end,
                len: bytes.len(),
            });
        }
        wire.push(payload);
    }
    let per_flow: Vec<Vec<Segment>> = wire.iter().map(|s| chunk(s, spec.seg)).collect();
    let order = gen.interleave_schedule(&per_flow.iter().map(Vec::len).collect::<Vec<_>>());
    (lay_out(&order, &per_flow), None, wire, planted)
}

/// `stream` cut into in-order `seg`-byte segments.
fn chunk(stream: &[u8], seg: usize) -> Vec<Segment> {
    (stream.chunks(seg).enumerate())
        .map(|(i, c)| Segment {
            seq: (i * seg) as u64,
            bytes: c.to_vec(),
        })
        .collect()
}

fn reorder_http(
    spec: &Spec,
    set: &PatternSet,
    gen: &mut TrafficGenerator,
    rng: &mut SplitMix,
) -> Parts {
    let mut wire = Vec::with_capacity(spec.flows);
    let mut planted = Vec::new();
    let mut per_flow = Vec::with_capacity(spec.flows);
    for f in 0..spec.flows {
        let mut stream = gen.http_stream(spec.seg, spec.flow_len, 0.5).wire;
        planted.extend(plant_in_bodies(
            &mut stream,
            f as u32,
            set,
            spec.planted,
            rng,
        ));
        let packet = Packet {
            payload: stream,
            injected: Vec::new(),
        };
        let segments = gen.segment_schedule(
            &packet,
            set,
            ChopProfile::Random {
                min: 256,
                max: 1460,
            },
            SegmentProfile::Reorder { window: 4 },
        );
        per_flow.push(segments);
        wire.push(packet.payload);
    }
    let order = gen.interleave_schedule(&per_flow.iter().map(Vec::len).collect::<Vec<_>>());
    let mut sorted = per_flow.clone();
    for segments in &mut sorted {
        segments.sort_by_key(|s| s.seq);
    }
    let segs = lay_out(&order, &per_flow);
    (segs, Some(lay_out(&order, &sorted)), wire, planted)
}

/// Lays each flow's segments out in arrival order: `order` names the
/// flow of every arrival, and a flow's arrivals take its segments in
/// list order.
fn lay_out(order: &[usize], per_flow: &[Vec<Segment>]) -> Vec<Seg> {
    let mut cursors = vec![0usize; per_flow.len()];
    order
        .iter()
        .map(|&flow| {
            let s = &per_flow[flow][cursors[flow]];
            cursors[flow] += 1;
            Seg {
                flow: flow as u32,
                seq: s.seq,
                bytes: s.bytes.clone(),
            }
        })
        .collect()
}

/// Body ranges `(start, end)` of the stream's ApplicationData records
/// (type 0x17), clipped to the stream.
fn app_data_bodies(stream: &[u8]) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    let mut at = 0usize;
    while at + 5 <= stream.len() {
        let len = usize::from(u16::from_be_bytes([stream[at + 3], stream[at + 4]]));
        let body = (at + 5, (at + 5 + len).min(stream.len()));
        if stream[at] == 0x17 {
            bodies.push(body);
        }
        at = body.1;
    }
    bodies
}

/// Writes `count` patterns into message bodies of flow `flow`'s HTTP/1.x
/// stream and returns where each went.
///
/// A spot qualifies when the pattern plus 48 bytes on each side holds no
/// CR or LF. Every request line, header line and chunk-size line is
/// shorter than 48 bytes and ends in CRLF, so such a spot lies inside
/// one body's data, where any byte value is legal.
fn plant_in_bodies(
    stream: &mut [u8],
    flow: u32,
    set: &PatternSet,
    count: usize,
    rng: &mut SplitMix,
) -> Vec<Planted> {
    const MARGIN: usize = 48;
    let mut out = Vec::new();
    let mut taken: Vec<(usize, usize)> = Vec::new();
    for _ in 0..100_000 {
        if out.len() == count {
            break;
        }
        let pattern = PatternId(rng.below(set.len() as u64) as u32);
        let bytes = set.pattern(pattern);
        let span = bytes.len() + 2 * MARGIN;
        if span >= stream.len() {
            continue;
        }
        let lo = rng.below((stream.len() - span) as u64) as usize;
        let (start, end) = (lo + MARGIN, lo + MARGIN + bytes.len());
        let clear = !stream[lo..lo + span]
            .iter()
            .any(|&b| b == b'\r' || b == b'\n');
        if !clear || taken.iter().any(|&(s, e)| lo < e && s < lo + span) {
            continue;
        }
        taken.push((lo, lo + span));
        stream[start..end].copy_from_slice(bytes);
        out.push(Planted {
            flow,
            pattern,
            wire_end: end,
            len: bytes.len(),
        });
    }
    assert_eq!(out.len(), count, "no room to plant in HTTP bodies");
    out
}

/// SplitMix64 finalizer: a bijection on `u64`.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 stream.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next value.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// A value in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: Kind) -> Spec {
        Spec {
            name: "test",
            kind,
            flows: 9,
            flow_len: if kind == Kind::ReorderHttp { 512 } else { 8192 },
            seg: if kind == Kind::ReorderHttp { 4 } else { 700 },
            planted: 2,
            paced_mbps: 1.0,
        }
    }

    #[test]
    fn workloads_are_determined_by_the_seed() {
        let set = PatternSet::new(["attack-sig", "evil", "GET /admin", "cmd.exe"]).unwrap();
        for kind in [Kind::Mix, Kind::Tls, Kind::ReorderHttp] {
            let a = Workload::generate(small(kind), &set, 1);
            let b = Workload::generate(small(kind), &set, 1);
            let c = Workload::generate(small(kind), &set, 2);
            assert_eq!(a.digest(), b.digest(), "{kind:?}: same seed, same bytes");
            assert_ne!(
                a.digest(),
                c.digest(),
                "{kind:?}: another seed, other bytes"
            );
            // Segments reassemble to the recorded wire, and every planted
            // occurrence is where it is recorded.
            let mut rebuilt = vec![Vec::new(); a.wire.len()];
            let mut sorted = a.segs.clone();
            sorted.sort_by_key(|s| (s.flow, s.seq));
            for s in &sorted {
                assert_eq!(s.seq as usize, rebuilt[s.flow as usize].len());
                rebuilt[s.flow as usize].extend_from_slice(&s.bytes);
            }
            assert_eq!(rebuilt, a.wire);
            assert!(!a.planted.is_empty());
            for p in &a.planted {
                let bytes = set.pattern(p.pattern);
                assert_eq!(
                    &a.wire[p.flow as usize][p.wire_end - bytes.len()..p.wire_end],
                    bytes
                );
            }
        }
    }

    #[test]
    fn every_named_spec_resolves() {
        for name in NAMES {
            assert_eq!(Spec::named(name).map(|s| s.name), Some(name));
        }
        assert!(Spec::named("bogus").is_none());
    }
}
