//! A fixed reference workload that gauges how fast the host runs at the
//! moment, and the scaling of host times to a reference speed.
//!
//! On a shared host the same work can run up to ~40 % slower for stretches
//! of seconds to minutes while other tenants load the machine, so raw times
//! of one commit spread widely from run to run. The probe is a small
//! discrete-event loop in the shape of the simulator's event core (a binary
//! heap of pending events, a hash map and a 1 MiB table, all touched at
//! random). It uses nothing from the workspace, so its work is the same on
//! every commit, and it slows with the host much as the simulator does
//! (`perfbench/README.md` gives the spreads with and without scaling).
//! Each timed sample is scaled by `REFERENCE_S` ÷ the mean of the probes
//! taken right before and right after it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// The probe's host seconds on an unloaded 2-CPU Xeon host: scaled times
/// are host seconds at that speed.
pub const REFERENCE_S: f64 = 0.06;
/// Table words (1 MiB).
const TABLE_WORDS: usize = 1 << 17;
/// Distinct hash map keys.
const MAP_KEYS: u64 = 1 << 14;
/// Events pending at any time.
const PENDING: usize = 4096;
/// Events one probe processes.
const EVENTS: u64 = 400_000;

/// The probe's memory, allocated once so that every probe runs on the same
/// pages.
struct Buffers {
    table: Vec<u64>,
    map: HashMap<u64, u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Buffers {
    fn new() -> Self {
        Self {
            table: vec![0; TABLE_WORDS],
            map: HashMap::with_capacity(MAP_KEYS as usize),
            heap: BinaryHeap::with_capacity(PENDING + 1),
        }
    }
}

/// Runs the reference workload once and returns its host seconds.
fn probe_s(b: &mut Buffers) -> f64 {
    let t0 = Instant::now();
    b.table.fill(0);
    b.map.clear();
    b.heap.clear();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for id in 0..PENDING as u64 {
        b.heap.push(Reverse((next() >> 40, id)));
    }
    let mut acc = 0u64;
    for _ in 0..EVENTS {
        let Reverse((at, id)) = b.heap.pop().expect("PENDING events stay queued");
        let r = next();
        let slot = (r ^ id) as usize & (TABLE_WORDS - 1);
        b.table[slot] = b.table[slot].wrapping_add(at);
        *b.map.entry(r % MAP_KEYS).or_insert(0) += at;
        acc = acc.wrapping_add(b.table[(r >> 32) as usize & (TABLE_WORDS - 1)]);
        acc = acc.wrapping_add(*b.map.get(&((r >> 20) % MAP_KEYS)).unwrap_or(&1));
        b.heap.push(Reverse((at + (r & 0xffff) + 1, id)));
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Probes around timed samples.
pub struct Gauge {
    buffers: Buffers,
    before: f64,
    probes: Vec<f64>,
}

impl Gauge {
    /// Takes the first probe.
    pub fn start() -> Self {
        let mut buffers = Buffers::new();
        let before = probe_s(&mut buffers);
        Self {
            buffers,
            before,
            probes: vec![before],
        }
    }

    /// Probes again and returns the factor that scales the host seconds
    /// measured since the previous probe to the reference speed.
    pub fn scale(&mut self) -> f64 {
        let after = probe_s(&mut self.buffers);
        self.probes.push(after);
        let factor = REFERENCE_S / ((self.before + after) / 2.0);
        self.before = after;
        factor
    }

    /// Every probe's host seconds, in order.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}
