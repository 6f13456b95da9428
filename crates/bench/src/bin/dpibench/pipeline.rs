//! The stand-in worker pipeline and its span tracer.
//!
//! The service's worker runs reassemble → detect/normalize → scan behind
//! private types, so the benchmark rebuilds that pipeline from the public
//! layers: a `FlowTable<StreamFlow<ProtoFlow<ShardedScanState>>>` fed by
//! `ingest_segment_at`, whose delivery callback runs `ProtoFlow::deliver`,
//! whose sink runs `ShardedMatcher::scan_chunk_into`. With the Exact tier
//! pinned it emits the same match stream as the service (the correctness
//! gate checks this on every run).
//!
//! A [`Probe`] sees every call into a layer. [`NoProbe`] compiles to
//! nothing; [`Tracer`] records spans for sampled segments; [`Capture`]
//! keeps the bytes each flow hands the scanner, for the isolated engine
//! passes.

use std::collections::BTreeMap;
use std::time::Instant;

use dpi_core::{
    FlowKey, FlowLookup, FlowMatch, FlowSegment, FlowTable, FlowTableStats, ProtoFlow,
    ProtocolStats, ServiceConfig, ShardedMatcher, ShardedScanState, ShardedScratch, StreamFlow,
};

use crate::workload::Seg;

/// A layer boundary the stand-in crosses, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `FlowTable::ingest_segment_at`: flow lookup plus reassembly.
    Ingest,
    /// The `ProtoFlow::deliver` callback: detect/normalize.
    Deliver,
    /// The `ShardedMatcher::scan_chunk_into` sink: the exact tier.
    Scan,
}

impl Layer {
    /// Every layer, outermost first.
    pub const ALL: [Layer; 3] = [Layer::Ingest, Layer::Deliver, Layer::Scan];

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ingest => "flow.ingest",
            Layer::Deliver => "protocol.deliver",
            Layer::Scan => "sharded.scan",
        }
    }

    /// The layer whose calls enclose this one's.
    pub fn parent(self) -> Option<Layer> {
        match self {
            Layer::Ingest => None,
            Layer::Deliver => Some(Layer::Ingest),
            Layer::Scan => Some(Layer::Deliver),
        }
    }

    /// The layer whose calls this one's enclose.
    pub fn child(self) -> Option<Layer> {
        match self {
            Layer::Ingest => Some(Layer::Deliver),
            Layer::Deliver => Some(Layer::Scan),
            Layer::Scan => None,
        }
    }
}

/// Observes the stand-in's calls into each layer.
pub trait Probe {
    /// The next segment is arrival number `index`.
    fn segment(&mut self, _index: usize) {}
    /// A call into `layer` begins; returns the token [`Probe::exit`]
    /// receives.
    fn enter(&mut self, _layer: Layer) -> u64 {
        0
    }
    /// The call into `layer` begun at `start` returned.
    fn exit(&mut self, _layer: Layer, _start: u64) {}
    /// `bytes` of flow `flow` are about to be scanned.
    fn sink(&mut self, _flow: u32, _bytes: &[u8]) {}
}

/// Observes nothing: the untraced stand-in.
pub struct NoProbe;

impl Probe for NoProbe {}

/// One timed layer call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Arrival index of the segment.
    pub id: u32,
    /// The layer called.
    pub layer: Layer,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Times one segment in `every`, and one layer in that segment: the
/// sampled segments take the layers in turn, outermost first. Timing
/// every segment costs a quarter of the throughput on 128-byte
/// segments; timing every layer of a sampled segment puts the children's
/// clock reads inside the parent's span, where they stall the parent's
/// own work too (a few hundred ns per child span on small segments, more
/// than the segment's work). With one layer per segment, each span holds
/// only its own two clock reads.
pub struct Tracer {
    epoch: Instant,
    every: usize,
    pass: usize,
    id: u32,
    on: Option<Layer>,
    /// Spans recorded so far, each pushed when it ends.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer sampling one segment in `every`, on the subset and layer
    /// rotation of pass number `pass` (successive passes sample other
    /// segments, so their estimates average over the whole workload).
    pub fn new(every: usize, pass: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            every,
            pass,
            id: 0,
            on: None,
            spans: Vec::new(),
        }
    }

    /// The layer timed on segment `index` in pass `pass`, if any.
    pub fn timed(index: usize, every: usize, pass: usize) -> Option<Layer> {
        let k = index + pass;
        k.is_multiple_of(every)
            .then(|| Layer::ALL[(k / every + pass) % Layer::ALL.len()])
    }
}

impl Probe for Tracer {
    fn segment(&mut self, index: usize) {
        self.id = index as u32;
        self.on = Tracer::timed(index, self.every, self.pass);
    }

    fn enter(&mut self, layer: Layer) -> u64 {
        if self.on == Some(layer) {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn exit(&mut self, layer: Layer, start: u64) {
        if self.on == Some(layer) {
            self.spans.push(Span {
                id: self.id,
                layer,
                start_ns: start,
                end_ns: self.epoch.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// Keeps every chunk handed to the scanner, tagged with its flow.
#[derive(Default)]
pub struct Capture {
    /// `(flow, start, end)` into `bytes`, in scan order.
    pub chunks: Vec<(u32, usize, usize)>,
    /// The chunks' bytes, back to back.
    pub bytes: Vec<u8>,
}

impl Probe for Capture {
    fn sink(&mut self, flow: u32, bytes: &[u8]) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(bytes);
        self.chunks.push((flow, start, self.bytes.len()));
    }
}

/// The worker pipeline rebuilt from public layers, with the Exact tier
/// pinned and the service's default per-worker settings.
///
/// The match log is reserved up front: growing it is lumpy (a doubling
/// copies the whole log inside one segment's ingest), which one-in-N
/// sampling cannot estimate, and it belongs to the worker's own cost
/// (`service.worker_ns_per_byte`), not to a layer's.
pub struct StandIn<'a> {
    exact: &'a ShardedMatcher,
    table: FlowTable<StreamFlow<ProtoFlow<ShardedScanState>>>,
    scratch: ShardedScratch,
    /// Detect/normalize counters.
    pub proto: ProtocolStats,
    /// Every match, in emission order.
    pub matches: Vec<FlowMatch>,
    /// Flows the table evicted to make room, in eviction order.
    pub evicted: Vec<FlowKey>,
}

impl<'a> StandIn<'a> {
    /// A fresh pipeline over `exact`, configured as a service worker,
    /// with room for `matches` matches.
    pub fn new(exact: &'a ShardedMatcher, matches: usize) -> StandIn<'a> {
        let config = ServiceConfig::with_workers(1);
        let template = StreamFlow::new(
            config.reassembly,
            ProtoFlow::new(exact.flow_state(), config.protocol),
        );
        StandIn {
            exact,
            table: FlowTable::with_ways(config.flow_capacity, config.flow_ways, template),
            scratch: exact.scratch(),
            proto: ProtocolStats::default(),
            matches: Vec::with_capacity(matches),
            evicted: Vec::new(),
        }
    }

    /// Runs `segs` through the pipeline (arrival index as the packet
    /// time, as the service drains use) and flushes every flow.
    pub fn run<P: Probe>(&mut self, segs: &[Seg], keys: &[FlowKey], probe: &mut P) {
        for (i, seg) in segs.iter().enumerate() {
            probe.segment(i);
            self.ingest(seg, keys[seg.flow as usize], i as u64, probe);
        }
        let (exact, scratch, proto) = (self.exact, &mut self.scratch, &mut self.proto);
        let mut flushed = Vec::new();
        self.table.flush_flows(
            |flow, chunk, out| {
                flow.deliver(
                    chunk,
                    false,
                    proto,
                    |_lane, state, bytes, out| exact.scan_chunk_into(state, bytes, scratch, out),
                    out,
                );
            },
            &mut flushed,
        );
        self.matches.append(&mut flushed);
    }

    fn ingest<P: Probe>(&mut self, seg: &Seg, key: FlowKey, time: u64, probe: &mut P) {
        let (exact, scratch, proto) = (self.exact, &mut self.scratch, &mut self.proto);
        let segment = FlowSegment {
            key,
            seq: seg.seq,
            payload: &seg.bytes,
        };
        let ingest = probe.enter(Layer::Ingest);
        let lookup = self.table.ingest_segment_at(
            segment,
            time,
            false,
            |flow, chunk, out| {
                let deliver = probe.enter(Layer::Deliver);
                flow.deliver(
                    chunk,
                    false,
                    proto,
                    |_lane, state, bytes, out| {
                        let scan = probe.enter(Layer::Scan);
                        probe.sink(seg.flow, bytes);
                        exact.scan_chunk_into(state, bytes, scratch, out);
                        probe.exit(Layer::Scan, scan);
                    },
                    out,
                );
                probe.exit(Layer::Deliver, deliver);
            },
            &mut self.matches,
        );
        probe.exit(Layer::Ingest, ingest);
        if let FlowLookup::Evicted(victim) = lookup {
            self.evicted.push(victim);
        }
    }

    /// The flow table's counters.
    pub fn table_stats(&self) -> FlowTableStats {
        self.table.stats()
    }
}

/// What the tracer's own work costs, measured on this host.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Overhead {
    /// Measured length of an empty span: the part of the tracer's work
    /// that lands inside every span.
    pub own_ns: f64,
    /// Whole cost of recording one span: both clock reads and the push.
    pub span_ns: f64,
}

impl Overhead {
    /// Times runs of empty spans.
    pub fn calibrate() -> Overhead {
        const SPANS: usize = 256;
        let (mut own, mut whole) = (Vec::new(), Vec::new());
        for _ in 0..64 {
            let mut tracer = Tracer::new(1, 0);
            tracer.segment(0);
            let start = Instant::now();
            for _ in 0..SPANS {
                let t = tracer.enter(Layer::Ingest);
                tracer.exit(Layer::Ingest, t);
            }
            whole.push(start.elapsed().as_nanos() as f64 / SPANS as f64);
            let lengths: Vec<f64> = tracer
                .spans
                .iter()
                .map(|s| (s.end_ns - s.start_ns) as f64)
                .collect();
            own.push(crate::stats::median(&lengths));
        }
        Overhead {
            own_ns: crate::stats::median(&own),
            span_ns: crate::stats::median(&whole),
        }
    }
}

/// Self time of each layer over a whole run of `segments` segments, in
/// ns, from spans recorded by a [`Tracer`] sampling one in `every` on
/// pass `pass`.
///
/// A layer's total is the sum of its spans, less the tracer's own share
/// of each, scaled by segments ÷ the segments on which that layer was
/// timed. Its self time is its total minus its child layer's total.
pub fn self_times(
    spans: &[Span],
    segments: usize,
    every: usize,
    pass: usize,
    overhead: Overhead,
) -> BTreeMap<&'static str, f64> {
    let total = |layer: Layer| {
        let timed = (0..segments)
            .filter(|&i| Tracer::timed(i, every, pass) == Some(layer))
            .count();
        let sum: f64 = spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64 - overhead.own_ns)
            .sum();
        if timed == 0 {
            0.0
        } else {
            sum * segments as f64 / timed as f64
        }
    };
    Layer::ALL
        .iter()
        .map(|&layer| {
            (
                layer.name(),
                total(layer) - layer.child().map_or(0.0, total),
            )
        })
        .collect()
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .layer
            .parent()
            .map_or("null".to_string(), |p| format!("\"{}\"", p.name()));
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.layer.name(),
            parent,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn sampled_segments_take_the_layers_in_turn() {
        let timed: Vec<Option<Layer>> = (0..14).map(|i| Tracer::timed(i, 2, 0)).collect();
        assert_eq!(
            timed,
            [
                Some(Layer::Ingest),
                None,
                Some(Layer::Deliver),
                None,
                Some(Layer::Scan),
                None,
                Some(Layer::Ingest),
                None,
                Some(Layer::Deliver),
                None,
                Some(Layer::Scan),
                None,
                Some(Layer::Ingest),
                None,
            ]
        );
        // The next pass samples the other segments and shifts the layers.
        let timed: Vec<Option<Layer>> = (0..6).map(|i| Tracer::timed(i, 2, 1)).collect();
        assert_eq!(
            timed,
            [
                None,
                Some(Layer::Scan),
                None,
                Some(Layer::Ingest),
                None,
                Some(Layer::Deliver)
            ]
        );
        let mut tracer = Tracer::new(2, 0);
        for i in 0..6 {
            tracer.segment(i);
            for layer in Layer::ALL {
                let t = tracer.enter(layer);
                tracer.exit(layer, t);
            }
        }
        let got: Vec<(u32, Layer)> = tracer.spans.iter().map(|s| (s.id, s.layer)).collect();
        assert_eq!(
            got,
            [(0, Layer::Ingest), (2, Layer::Deliver), (4, Layer::Scan)]
        );
    }

    #[test]
    fn self_time_subtracts_the_child_layer_and_scales_per_layer() {
        // 12 segments, one in 2 sampled: ingest timed on 0 and 6,
        // deliver on 2 and 8, scan on 4 and 10 — each on 2 of 12.
        let spans = [
            span(0, Layer::Ingest, 0, 100),
            // Two deliveries and three scans: several calls per segment.
            span(2, Layer::Deliver, 200, 230),
            span(2, Layer::Deliver, 240, 250),
            span(4, Layer::Scan, 300, 310),
            span(4, Layer::Scan, 320, 330),
            span(6, Layer::Ingest, 400, 460),
            span(8, Layer::Deliver, 500, 540),
            span(10, Layer::Scan, 600, 620),
        ];
        let none = Overhead::default();
        let t = self_times(&spans, 12, 2, 0, none);
        let scale = 12.0 / 2.0;
        assert_eq!(t["sharded.scan"], 40.0 * scale);
        assert_eq!(t["protocol.deliver"], (80.0 - 40.0) * scale);
        assert_eq!(t["flow.ingest"], (160.0 - 80.0) * scale);
        // Self times telescope to the outermost layer's total.
        assert_eq!(t.values().sum::<f64>(), 160.0 * scale);

        // The tracer's own share comes off every span.
        let overhead = Overhead {
            own_ns: 5.0,
            span_ns: 20.0,
        };
        let t = self_times(&spans, 12, 2, 0, overhead);
        assert_eq!(t["sharded.scan"], (40.0 - 3.0 * 5.0) * scale);
        assert_eq!(
            t["protocol.deliver"],
            ((80.0 - 15.0) - (40.0 - 15.0)) * scale
        );
        assert_eq!(t["flow.ingest"], ((160.0 - 10.0) - (80.0 - 15.0)) * scale);

        // A layer never timed contributes nothing rather than dividing by 0.
        let t = self_times(&spans[..1], 1, 2, 0, none);
        assert_eq!(t["flow.ingest"], 100.0);
        assert_eq!(t["sharded.scan"], 0.0);
    }

    #[test]
    fn calibration_reads_a_positive_overhead() {
        let o = Overhead::calibrate();
        assert!(o.own_ns > 0.0 && o.own_ns <= o.span_ns * 2.0, "{o:?}");
        assert!(o.span_ns < 100_000.0, "{o:?}");
    }
}
