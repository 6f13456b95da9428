//! The correctness gate: the same matches from every path, every planted
//! occurrence found where it was planted, and every ledger balanced.

use std::sync::Arc;

use dpi_automaton::Match;
use dpi_core::{
    FlowKey, FlowMatch, FlowState, ProtoConfig, ProtoFlow, ProtocolStats, RulesetArena,
    ServiceStats,
};

use crate::measure::{sim_drain, threaded_drain};
use crate::pipeline::{NoProbe, StandIn};
use crate::workload::{mix64, Kind, Workload};

/// A match as `(flow key, pattern, end)`.
pub type Row = (u128, u32, usize);

/// Every match, sorted: a multiset in comparable form.
pub fn sorted(matches: &[FlowMatch]) -> Vec<Row> {
    let mut rows: Vec<Row> = matches
        .iter()
        .map(|m| (m.key.0, m.matched.pattern.0, m.matched.end))
        .collect();
    rows.sort_unstable();
    rows
}

/// An order-independent digest of a match multiset, cheap enough to
/// check on every timed pass.
pub fn digest(matches: &[FlowMatch]) -> u64 {
    matches.iter().fold(matches.len() as u64, |acc, m| {
        let h = mix64(m.key.0 as u64 ^ mix64((m.key.0 >> 64) as u64))
            ^ mix64(u64::from(m.matched.pattern.0) << 40 ^ m.matched.end as u64);
        acc.wrapping_add(mix64(h))
    })
}

/// Admitted bytes no scanner saw and no counter names: admitted −
/// scanned − panic-lost − duplicates (clipped at the delivery point,
/// e.g. a reordered segment arriving after a shed flow's resync). The
/// flow table drops the out-of-order bytes a flow holds when it evicts
/// that flow, and no service counter records them, so this is where
/// they show.
pub fn uncounted(s: &ServiceStats) -> i128 {
    i128::from(s.admitted_bytes)
        - i128::from(s.scanned_bytes())
        - i128::from(s.workers.panic_lost_bytes)
        - i128::from(s.reassembly.dup_bytes)
}

/// Checks `offered == admitted + shed`, that the bytes [`uncounted`]
/// finds are exactly `evicted_loss`, and the protocol ledger; returns
/// what failed.
/// `evicted_loss` is what the flow table dropped with evicted flows:
/// measured by the stand-in for a drain, unknown (`None`, any amount)
/// for a paced run.
pub fn ledger(s: &ServiceStats, evicted_loss: Option<u64>) -> Option<String> {
    let uncounted = uncounted(s);
    let expected = evicted_loss.map(i128::from);
    if s.offered_packets != s.admitted_packets + s.shed_packets
        || s.offered_bytes != s.admitted_bytes + s.shed_bytes
    {
        Some(format!(
            "offered {} != admitted {} + shed {}",
            s.offered_bytes, s.admitted_bytes, s.shed_bytes
        ))
    } else if uncounted < 0 || expected.is_some_and(|e| e != uncounted) {
        Some(format!(
            "{uncounted} admitted bytes neither scanned nor counted lost; evicted flows account for {}",
            evicted_loss.map_or("any number".to_string(), |e| e.to_string())
        ))
    } else if s.workers.protocol.unaccounted_bytes() != 0 {
        Some(format!(
            "{} protocol bytes unaccounted",
            s.workers.protocol.unaccounted_bytes()
        ))
    } else {
        None
    }
}

/// What the gate established.
pub struct Gate {
    /// Digest of the agreed match multiset.
    pub digest: u64,
    /// Matches in it.
    pub matches: usize,
    /// Planted occurrences the pipeline must report.
    pub planted: usize,
    /// Planted occurrences in flows the table evicted, which lost their
    /// scanner context.
    pub evicted: usize,
    /// Planted occurrences no scan can report: split by protocol
    /// metadata or straddling a fail-open reset.
    pub masked: usize,
    /// Bytes the flow table dropped with evicted flows.
    pub evicted_loss: u64,
    /// Every check that failed.
    pub failures: Vec<String>,
}

/// Runs the gate on lap-0 keys: stand-in, simulator and threaded drains
/// must agree, planted occurrences must be found, ledgers must balance,
/// and a reordered schedule must match its in-order twin.
pub fn run(w: &Workload, arena: &Arc<RulesetArena>, keys: &[FlowKey]) -> Gate {
    let mut failures = Vec::new();
    let mut stand = StandIn::new(arena.exact(), 0);
    stand.run(&w.segs, keys, &mut NoProbe);
    let rows = sorted(&stand.matches);
    let evicted_loss = w.bytes - stand.proto.delivered_bytes;
    let (_, sim) = sim_drain(arena, &w.segs, keys);
    let threaded = threaded_drain(arena, &w.segs, keys).report;
    for (path, report) in [("simulator", &sim), ("threaded service", &threaded)] {
        let other = sorted(&report.matches);
        if other != rows {
            failures.push(format!(
                "{path} emitted {} matches, the stand-in {}; the multisets differ",
                other.len(),
                rows.len()
            ));
        }
        if let Some(e) = ledger(&report.stats, Some(evicted_loss)) {
            failures.push(format!("{path} ledger: {e}"));
        }
        if report.stats.shed_packets != 0
            || report
                .final_tiers
                .iter()
                .any(|&t| t != dpi_core::FidelityTier::Exact)
        {
            failures.push(format!("{path} drain left the Exact tier or shed"));
        }
    }
    let unaccounted = stand.proto.unaccounted_bytes();
    if unaccounted != 0 || (evicted_loss > 0 && stand.evicted.is_empty()) {
        failures.push(format!(
            "stand-in delivered {} of {} bytes with no eviction, {unaccounted} unaccounted",
            stand.proto.delivered_bytes, w.bytes
        ));
    }
    if let Some(in_order) = &w.in_order {
        let mut twin = StandIn::new(arena.exact(), 0);
        twin.run(in_order, keys, &mut NoProbe);
        if sorted(&twin.matches) != rows {
            failures.push("reordered schedule and in-order schedule disagree".to_string());
        }
    }
    let (expected, evicted, masked) = expected_planted(w, keys, &stand.evicted);
    let missing = expected
        .iter()
        .filter(|row| rows.binary_search(row).is_err())
        .count();
    if missing > 0 {
        failures.push(format!(
            "{missing} of {} planted occurrences not found",
            expected.len()
        ));
    }
    // `ProtoFlow` places the expected occurrences, so a normalizer that
    // drops or splits body bytes would move them from missing to masked.
    // Where every occurrence sits strictly inside a body, none may be.
    if w.spec.kind != Kind::Mix && masked > 0 {
        failures.push(format!(
            "{masked} occurrences planted inside bodies reach no scanner contiguously"
        ));
    }
    Gate {
        digest: digest(&stand.matches),
        matches: rows.len(),
        planted: expected.len(),
        evicted,
        masked,
        evicted_loss,
        failures,
    }
}

/// Scanner-side record of one flow's offset space: which wire bytes
/// reach the scanner at which stream offset, and where fail-open resets
/// mask history.
#[derive(Clone, Default)]
struct OffsetMap {
    fed: u64,
    /// `(wire offset, stream offset, length)`, contiguous runs merged.
    runs: Vec<(usize, u64, usize)>,
    resets: Vec<u64>,
}

impl FlowState for OffsetMap {
    fn reset(&mut self) {}

    fn reset_at(&mut self, offset: u64) {
        self.resets.push(offset);
    }
}

/// Where each planted occurrence must be reported: `(key, pattern,
/// end)` in the scanner's offset space, which the protocol layer sets
/// (normalizers drop framing, so decoded offsets trail wire offsets).
/// Each infected flow's whole stream goes through a `ProtoFlow` with the
/// service's protocol config, whose sink records where every scanned
/// slice sits on the wire. Flows the table evicted lost their scanner
/// context, so they are left out. Returns the expected rows, sorted,
/// how many occurrences were left out with evicted flows, and how many
/// no scan can report.
fn expected_planted(
    w: &Workload,
    keys: &[FlowKey],
    evicted: &[FlowKey],
) -> (Vec<Row>, usize, usize) {
    let mut maps: Vec<Option<OffsetMap>> = vec![None; w.wire.len()];
    let mut rows = Vec::new();
    let (mut in_evicted, mut masked) = (0usize, 0usize);
    for p in &w.planted {
        if evicted.contains(&keys[p.flow as usize]) {
            in_evicted += 1;
            continue;
        }
        let stream = &w.wire[p.flow as usize];
        let map = maps[p.flow as usize].get_or_insert_with(|| offset_map(stream));
        let len = p.len;
        let start = p.wire_end - len;
        let run = map.runs.partition_point(|&(wire, _, _)| wire <= start);
        let found = run
            .checked_sub(1)
            .map(|r| map.runs[r])
            .and_then(|(wire, fed, n)| {
                let fed_start = fed + (start - wire) as u64;
                let fed_end = fed_start + len as u64;
                let inside = p.wire_end <= wire + n;
                let reset = map.resets.iter().any(|&x| fed_start < x && x < fed_end);
                (inside && !reset).then_some(fed_end)
            });
        match found {
            Some(end) => rows.push((keys[p.flow as usize].0, p.pattern.0, end as usize)),
            None => masked += 1,
        }
    }
    rows.sort_unstable();
    (rows, in_evicted, masked)
}

fn offset_map(stream: &[u8]) -> OffsetMap {
    let base = stream.as_ptr() as usize;
    let mut flow = ProtoFlow::new(OffsetMap::default(), ProtoConfig::default());
    let mut out: Vec<Match> = Vec::new();
    flow.deliver(
        stream,
        false,
        &mut ProtocolStats::default(),
        |_lane, map: &mut OffsetMap, bytes: &[u8], _out: &mut Vec<Match>| {
            let wire = (bytes.as_ptr() as usize).wrapping_sub(base);
            if wire < stream.len() {
                match map.runs.last_mut() {
                    Some((w, f, n)) if *w + *n == wire && *f + *n as u64 == map.fed => {
                        *n += bytes.len();
                    }
                    _ => map.runs.push((wire, map.fed, bytes.len())),
                }
            }
            map.fed += bytes.len() as u64;
        },
        &mut out,
    );
    flow.scan
}
