//! Flow-table behaviour at realistic scale: 1M+ distinct keys.
//!
//! The unit suite in `flow.rs` exercises correctness on toy tables;
//! these tests pin down the properties that only show up under
//! population pressure — occupancy bounds, eviction accounting,
//! set-associative collision quality, and honesty of the
//! `bytes_held` gauge while flows churn through eviction.

use dpi_accel::core::{
    FlowKey, FlowLookup, FlowSegment, FlowState, FlowTable, ReassemblyConfig, StreamFlow,
};

/// Minimal per-flow state: just the stream offset, no buffers. Keeps a
/// million-slot table cheap enough for a debug-profile test run.
#[derive(Clone, Default)]
struct Tiny {
    offset: u64,
}

impl FlowState for Tiny {
    fn reset(&mut self) {
        self.offset = 0;
    }

    fn reset_at(&mut self, offset: u64) {
        self.offset = offset;
    }
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn key(&mut self) -> FlowKey {
        FlowKey((self.next() as u128) << 64 | self.next() as u128)
    }
}

const MILLION: usize = 1 << 20;

#[test]
fn million_slot_table_bounds_occupancy_and_accounts_every_eviction() {
    let mut table = FlowTable::with_ways(MILLION, 8, Tiny::default());
    let mut rng = SplitMix(0xA5A5_0001);
    let overload = MILLION + MILLION / 5; // 1.2M distinct flows
    for i in 0..overload {
        let (state, outcome) = table.touch_at(rng.key(), i as u64);
        state.offset = i as u64;
        assert!(
            !matches!(outcome, FlowLookup::Hit),
            "distinct keys must all miss"
        );
    }
    let stats = table.stats();
    assert!(table.len() <= MILLION, "occupancy may never exceed capacity");
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, overload as u64);
    // Conservation: every miss either filled an empty slot (resident at
    // the end) or displaced a resident flow (a counted eviction).
    assert_eq!(
        stats.evictions + stats.idle_evictions,
        overload as u64 - table.len() as u64,
        "misses minus residents must equal counted evictions"
    );
    // At 1.2x overload the table must actually be under pressure.
    assert!(stats.evictions > 0);
}

#[test]
fn half_loaded_million_slot_table_keeps_working_set_resident() {
    // 2^20 slots, 8-way: 2^17 sets. At load factor 0.5 the per-set
    // population is ~Poisson(4). A set dealt more than 8 keys loses
    // *all* of them on an in-order second pass (classic LRU cascade:
    // each miss evicts the key about to be touched), so the expected
    // hit rate is 1 - E[N; N>8]/4 ~= 0.949 — not the ~0.992 a naive
    // overflow count would suggest. Assert against the cascade-aware
    // bound.
    let mut table = FlowTable::with_ways(MILLION, 8, Tiny::default());
    let working_set = MILLION / 2;
    let keys: Vec<FlowKey> = {
        let mut rng = SplitMix(0xA5A5_0002);
        (0..working_set).map(|_| rng.key()).collect()
    };
    let mut now = 0u64;
    for key in &keys {
        now += 1;
        table.touch_at(*key, now);
    }
    let first = table.stats();
    assert_eq!(first.misses, working_set as u64);

    for key in &keys {
        now += 1;
        table.touch_at(*key, now);
    }
    let second = table.stats();
    let hits = second.hits - first.hits;
    let hit_rate = hits as f64 / working_set as f64;
    assert!(
        hit_rate >= 0.93,
        "second-pass hit rate {hit_rate:.4} too low for a half-loaded table"
    );
    // LRU within the set: the keys lost are exactly the extra misses.
    assert_eq!(
        second.misses - first.misses,
        working_set as u64 - hits,
        "every non-hit on the second pass must be a counted miss"
    );
}

#[test]
fn bytes_held_gauge_stays_honest_across_mass_eviction_and_flush() {
    // Small table, many flows, every flow parks an out-of-order segment
    // in its reassembler. Eviction churn must keep the global gauge
    // equal to the sum of per-flow buffers at every checkpoint.
    let capacity = 1 << 14;
    let config = ReassemblyConfig::default();
    let template = StreamFlow::new(config, Tiny::default());
    let mut table: FlowTable<StreamFlow<Tiny>> = FlowTable::with_ways(capacity, 4, template);

    let mut rng = SplitMix(0xA5A5_0003);
    let flows = 3 * capacity; // forces ~2/3 of flows through eviction
    let chunk = [0xABu8; 48];
    let mut scanned = 0u64;
    let mut out = Vec::new();
    let mut now = 0u64;
    let mut keys = Vec::with_capacity(flows);
    for i in 0..flows {
        let key = rng.key();
        keys.push(key);
        now += 1;
        // seq 64 with nothing before it: buffers 48 bytes out of order.
        table.ingest_segment_at(
            FlowSegment {
                key,
                seq: 64,
                payload: &chunk,
            },
            now,
            false,
            |_state, delivered: &[u8], _out| scanned += delivered.len() as u64,
            &mut out,
        );
        if i % 4096 == 0 {
            let stats = table.stats();
            assert_eq!(
                stats.reassembly.bytes_held,
                table.buffered_bytes() as u64,
                "gauge diverged from per-flow buffers at flow {i}"
            );
        }
    }
    let stats = table.stats();
    assert!(stats.evictions > 0, "the table must have churned");
    assert_eq!(stats.reassembly.bytes_held, table.buffered_bytes() as u64);
    assert_eq!(
        stats.reassembly.bytes_held,
        table.len() as u64 * chunk.len() as u64,
        "every resident flow holds exactly one parked segment"
    );
    assert_eq!(scanned, 0, "nothing was contiguous yet");

    // Fill the hole for the most recently touched half of the keys.
    // Keys still resident deliver head + parked bytes; keys that were
    // already evicted start a fresh flow and deliver just the head —
    // the `FlowLookup` outcome tells the two apart exactly.
    let mut filled = 0u64;
    let mut fresh = 0u64;
    for (i, key) in keys.iter().rev().take(capacity / 2).enumerate() {
        now += 1;
        let head = [0xCDu8; 64];
        let outcome = table.ingest_segment_at(
            FlowSegment {
                key: *key,
                seq: 0,
                payload: &head,
            },
            now,
            false,
            |_state, delivered: &[u8], _out| scanned += delivered.len() as u64,
            &mut out,
        );
        match outcome {
            FlowLookup::Hit => filled += 1,
            _ => fresh += 1,
        }
        if i % 1024 == 0 {
            assert_eq!(
                table.stats().reassembly.bytes_held,
                table.buffered_bytes() as u64
            );
        }
    }
    assert!(filled > 0, "recent flows must still be resident");
    assert_eq!(
        scanned,
        filled * (64 + chunk.len() as u64) + fresh * 64,
        "each filled hole delivers head + parked bytes; fresh flows just the head"
    );

    // Flush the remainder: buffers empty, gauge reads zero, and all
    // parked bytes reach the scanner with counted hole-skips.
    let parked = table.buffered_bytes() as u64;
    let holes_before = table.stats().reassembly.holes_skipped;
    table.flush_flows(
        |_state, delivered: &[u8], _out| scanned += delivered.len() as u64,
        &mut out,
    );
    let stats = table.stats();
    assert_eq!(table.buffered_bytes(), 0);
    assert_eq!(stats.reassembly.bytes_held, 0, "gauge must read empty");
    assert!(
        stats.reassembly.holes_skipped > holes_before,
        "flush crosses the unfilled holes explicitly"
    );
    assert_eq!(
        scanned,
        filled * (64 + chunk.len() as u64) + fresh * 64 + parked,
        "flush must deliver every parked byte"
    );
}
