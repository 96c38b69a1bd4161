//! Property-based tests for the simulator substrate: FTL mapping invariants
//! under arbitrary operation sequences, event-queue ordering, and the
//! redundancy layer's replica/stripe-set routing.

use proptest::prelude::*;
use rr_sim::array::{PlacementPolicy, Redundancy};
use rr_sim::config::SsdConfig;
use rr_sim::event::EventQueue;
use rr_sim::ftl::Ftl;
use rr_sim::request::{HostRequest, IoOp};
use rr_util::time::SimTime;

fn small_cfg() -> SsdConfig {
    let mut cfg = SsdConfig::scaled_for_tests();
    cfg.chip.blocks_per_plane = 16;
    cfg.chip.pages_per_block = 12;
    cfg
}

/// A preconditioned FTL of `lpn_count` pages, overwritten at `hot`.
fn aged(cfg: &SsdConfig, lpn_count: u64, hot: impl IntoIterator<Item = u64>) -> Ftl {
    let mut ftl = Ftl::new(cfg, lpn_count).expect("footprint fits");
    ftl.precondition();
    for lpn in hot {
        ftl.allocate_for_write(lpn).expect("space available");
    }
    ftl
}

/// Applies one mutation of the restore proptest, as the engine would:
/// kinds 0 and 1 write `lpn`; kind 2 picks a victim in `lpn`'s plane,
/// moves its valid pages and leaves its erase `pending`; kind 3 erases the
/// oldest pending victim.
fn mutate(ftl: &mut Ftl, pending: &mut Vec<u32>, kind: u8, lpn: u64) {
    let lpn = lpn % ftl.lpn_count();
    match kind {
        0 | 1 => {
            // `None`: every plane is down to its GC reserve.
            let _ = ftl.allocate_for_write(lpn);
        }
        2 => {
            let plane = ftl.locate(ftl.translate(lpn).expect("mapped")).plane_global;
            let Some(job) = ftl.start_gc(plane) else {
                return;
            };
            for (mlpn, src) in job.moves {
                if ftl.gc_move_still_needed(mlpn, src) && ftl.allocate_for_gc(mlpn, plane).is_err()
                {
                    return;
                }
            }
            pending.push(job.victim_block);
        }
        _ => {
            if !pending.is_empty() {
                ftl.finish_gc(pending.remove(0));
            }
        }
    }
}

/// A reference entry of the event-queue model: an event, or a marker that
/// pushes one.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Event(usize),
    Marker(SimTime, usize),
}

/// The event queue's reference model: pending `(time, seq, entry)`, sorted
/// ascending, and the next seq. `push_after` is a real zero-work marker
/// event at the trigger that pushes the payload when it pops.
struct Model {
    pending: Vec<(SimTime, u64, Entry)>,
    seq: u64,
}

impl Model {
    fn push(&mut self, t: SimTime, e: Entry) {
        let seq = self.seq;
        let at = self
            .pending
            .partition_point(|&(mt, ms, _)| (mt, ms) < (t, seq));
        self.pending.insert(at, (t, seq, e));
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(SimTime, usize)> {
        loop {
            if self.pending.is_empty() {
                return None;
            }
            match self.pending.remove(0) {
                (t, _, Entry::Event(p)) => return Some((t, p)),
                (_, _, Entry::Marker(at, p)) => self.push(at, Entry::Event(p)),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever a run wrote, moved or erased, the next restore leaves the
    /// FTL equal to the image and to a restore into an empty FTL: whether
    /// it copies back only the marked chunks (the same image again) or
    /// every table (another image, a clone, or a freshly built and
    /// preconditioned FTL).
    #[test]
    fn restore_undoes_any_run(
        runs in prop::collection::vec(
            (0u8..6, prop::collection::vec((0u8..4, 0u64..576), 0..48)),
            1..8,
        )
    ) {
        // One channel of eight planes, so a few hundred writes fill blocks
        // that GC can collect.
        let mut cfg = small_cfg();
        cfg.channels = 1;
        // 72 pages per plane: every open block is exactly full, and LPNs
        // 0..96 leave block 0 of every plane without a valid page.
        let a = aged(&cfg, 576, 0..96).into_image();
        let b = aged(&cfg, 450, (0..450).step_by(7)).into_image();
        // `a` with plane 0's empty block 0 picked as a GC victim, its erase
        // still pending.
        let mut mid_gc = aged(&cfg, 576, 0..96);
        let victim = mid_gc.start_gc(0).expect("plane 0 has full blocks").victim_block;
        let c = mid_gc.into_image();
        let mut ftl = Ftl::default();
        for (which, ops) in runs {
            let clone = a.clone();
            let target = match which {
                0 | 1 => &a,
                2 => &b,
                3 => &c,
                4 => &clone,
                _ => {
                    ftl = aged(&cfg, 576, []);
                    &a
                }
            };
            ftl.restore(&cfg, target).expect("image fits");
            let mut pending = if which == 3 { vec![victim] } else { Vec::new() };
            let mut empty = Ftl::default();
            empty.restore(&cfg, target).expect("image fits");
            let state = ftl.capture();
            prop_assert!(state == *target, "restore diverged from its image");
            prop_assert!(state == empty.capture(), "restore diverged from a full copy");
            for (kind, lpn) in ops {
                mutate(&mut ftl, &mut pending, kind, lpn);
            }
        }
        ftl.restore(&cfg, &a).expect("image fits");
        prop_assert!(ftl.capture() == a, "final restore diverged from its image");
    }

    /// After any sequence of overwrites and GC cycles, the LPN → PPN map
    /// stays a bijection onto valid pages and block valid-counts stay
    /// consistent.
    #[test]
    fn ftl_mapping_stays_bijective(ops in prop::collection::vec((0u64..400, any::<bool>()), 1..400)) {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg, 400).expect("footprint fits");
        ftl.precondition();
        for (lpn, run_gc) in ops {
            ftl.allocate_for_write(lpn).expect("space available");
            if run_gc {
                // Opportunistic full GC cycle on the page's plane.
                let plane = ftl.locate(ftl.translate(lpn).expect("mapped")).plane_global;
                if let Some(job) = ftl.start_gc(plane) {
                    for (mlpn, src) in job.moves {
                        if ftl.gc_move_still_needed(mlpn, src) {
                            ftl.allocate_for_gc(mlpn, job.plane).expect("reserve space");
                        }
                    }
                    ftl.finish_gc(job.victim_block);
                }
            }
        }
        // Bijectivity + reverse-map consistency.
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..400u64 {
            let ppn = ftl.translate(lpn).expect("all LPNs stay mapped");
            prop_assert!(seen.insert(ppn), "two LPNs map to {ppn:?}");
            prop_assert_eq!(ftl.reverse(ppn), Some(lpn));
        }
        // Valid counts equal the number of mapped pages per block.
        let total_blocks = cfg.total_blocks() as u32;
        let mut per_block = vec![0u32; total_blocks as usize];
        for lpn in 0..400u64 {
            let loc = ftl.locate(ftl.translate(lpn).expect("mapped"));
            per_block[loc.block_global as usize] += 1;
        }
        for b in 0..total_blocks {
            prop_assert_eq!(
                ftl.block_valid_count(b),
                per_block[b as usize],
                "valid count mismatch in block {}", b
            );
        }
    }

    /// The event queue pops in non-decreasing time order with FIFO ties,
    /// for any insertion pattern.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..10_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_us(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t >= lt, "time order violated");
                if t == lt {
                    prop_assert!(id > lid, "FIFO tie-break violated");
                }
            }
            last = Some((t, id));
        }
    }

    /// The event queue matches a reference model — a `Vec` kept in
    /// `(time, insertion seq)` order — on any interleaving of
    /// `push`/`push_after`/`pop`/`peek_time`/`reset`: same-tick FIFO bursts,
    /// spans from single nanoseconds to tens of seconds, and post-`reset`
    /// reuse (the arena path, where the FIFO sequence restarts). The
    /// reference of `push_after` is a real zero-work marker event at the
    /// trigger that pushes the payload when it pops; triggers land on the
    /// current tick and payloads on their trigger's.
    #[test]
    fn event_queue_matches_a_sorted_reference_on_any_interleaving(
        ops in prop::collection::vec((0u8..12, 0u64..50, 0u32..4, 0u64..4), 1..400)
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model { pending: Vec::new(), seq: 0 };
        // Last popped time: pushes land at `clock + delta` so the queue
        // never schedules into the past.
        let mut clock = SimTime::ZERO;
        for (i, &(op, delta, magnitude, gap)) in ops.iter().enumerate() {
            // `delta = 0` re-lands on the current tick and the magnitude
            // ladder spans ns to tens of seconds.
            let scale = 1_000u64.pow(magnitude);
            let t = clock + SimTime::from_ns(delta * scale);
            match op {
                0..=4 => {
                    queue.push(t, i);
                    model.push(t, Entry::Event(i));
                }
                5 | 6 => {
                    // `gap = 0` lands the payload on its trigger's tick.
                    let at = t + SimTime::from_ns(gap * scale);
                    queue.push_after(t, at, i);
                    model.push(t, Entry::Marker(at, i));
                }
                7..=9 => {
                    let want = model.pop();
                    let got = queue.pop();
                    prop_assert_eq!(got, want, "pop diverged at op {}", i);
                    if let Some((t, _)) = got {
                        clock = t;
                    }
                }
                10 => {
                    prop_assert_eq!(queue.peek_time(), model.pending.first().map(|&(t, _, _)| t),
                        "peek diverged at op {}", i);
                }
                _ => {
                    queue.reset();
                    model = Model { pending: Vec::new(), seq: 0 };
                    clock = SimTime::ZERO;
                }
            }
            prop_assert_eq!(queue.len(), model.pending.len(), "len diverged at op {}", i);
        }
        // Drain whatever is left in lock-step.
        while let Some(want) = model.pop() {
            prop_assert_eq!(queue.pop(), Some(want), "drain diverged");
        }
        prop_assert_eq!(queue.pop(), None, "the queue holds more events than the model");
        prop_assert!(queue.is_empty());
    }

    /// The event queue matches the reference model when it is deep: 64 to
    /// 160 pending entries first (eval-matrix peaks at 64), all within a few
    /// nanoseconds of each other, so nearly every push ties pending events
    /// and passes long runs of them. `push_after` triggers land on the same
    /// few ticks, tying pending keys, and pushes and pops then alternate at
    /// random with the queue still deep.
    #[test]
    fn event_queue_matches_the_reference_when_deep(
        prefill in prop::collection::vec((0u8..4, 0u64..4, 0u64..4), 64..160),
        ops in prop::collection::vec((0u8..8, 0u64..4, 0u64..4), 1..400)
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model { pending: Vec::new(), seq: 0 };
        let mut clock = SimTime::ZERO;
        // Prefill ops are all pushes (op < 4).
        for (i, (op, delta, gap)) in prefill.iter().chain(&ops).copied().enumerate() {
            let t = clock + SimTime::from_ns(delta);
            match op {
                0..=2 => {
                    queue.push(t, i);
                    model.push(t, Entry::Event(i));
                }
                3 => {
                    let at = t + SimTime::from_ns(gap);
                    queue.push_after(t, at, i);
                    model.push(t, Entry::Marker(at, i));
                }
                _ => {
                    let want = model.pop();
                    prop_assert_eq!(queue.pop(), want, "pop diverged at op {}", i);
                    if let Some((t, _)) = want {
                        clock = t;
                    }
                }
            }
            if i + 1 == prefill.len() {
                prop_assert!(queue.len() >= 64, "prefill left {} pending", queue.len());
            }
            prop_assert_eq!(queue.len(), model.pending.len(), "len diverged at op {}", i);
            prop_assert_eq!(queue.peek_time(), model.pending.first().map(|&(t, _, _)| t),
                "peek diverged at op {}", i);
        }
        while let Some(want) = model.pop() {
            prop_assert_eq!(queue.pop(), Some(want), "drain diverged");
        }
        prop_assert_eq!(queue.pop(), None, "the queue holds more events than the model");
    }

    /// `Redundancy::route_set` is a pure deterministic function with the
    /// documented shape for any (scheme, request, array, failure) input:
    /// stable across calls, never larger than the stripe span, never
    /// repeating a device, in-range, skipping the failed device — and its
    /// degraded set is the unfailed set's surviving prefix order with at
    /// most one fill-in successor appended.
    #[test]
    fn route_set_is_stable_bounded_and_degrades_deterministically(
        scheme_pick in 0u8..3,
        r in 2u32..6,
        k in 1u32..5,
        extra in 1u32..4,
        devices in 1u32..9,
        failed_raw in 0u32..10,
        index in 0usize..10_000,
        lpn in 0u64..100_000,
        is_read in any::<bool>(),
        policy_pick in 0u8..3,
    ) {
        let scheme = match scheme_pick {
            0 => Redundancy::None,
            1 => Redundancy::Replicate { r },
            _ => Redundancy::Ec { k, n: k + extra },
        };
        let policy = match policy_pick {
            0 => PlacementPolicy::RoundRobin,
            1 => PlacementPolicy::LpnHash,
            _ => PlacementPolicy::HotCold,
        };
        // 0 = no failure, 1..=9 = device 0..=8 failed (possibly out of range).
        let failed = failed_raw.checked_sub(1);
        let footprint = 100_000u64;
        let op = if is_read { IoOp::Read } else { IoOp::Write };
        let req = HostRequest::new(SimTime::from_us(index as u64), op, lpn, 1);
        let set = scheme.route_set(index, &req, devices, footprint, policy, failed);
        // Stable across calls.
        prop_assert_eq!(
            &set,
            &scheme.route_set(index, &req, devices, footprint, policy, failed),
            "route_set must be a pure function"
        );
        // Never empty, never over the stripe span, never out of range,
        // never repeating a device.
        let span = match scheme {
            Redundancy::None => 1,
            Redundancy::Replicate { r } => r.min(devices),
            Redundancy::Ec { k, n } => if is_read { k.min(n).min(devices) } else { n.min(devices) },
        };
        prop_assert!(!set.is_empty(), "a request must route somewhere");
        prop_assert!(set.len() <= span as usize, "set exceeds the stripe span");
        prop_assert!(set.iter().all(|&d| d < devices), "out-of-range device");
        let mut dedup = set.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), set.len(), "a device repeated in the set");
        // The failed device is never a member as long as the stripe span
        // holds an alternative; with nothing else in span (e.g. `none` with
        // its primary dead, or a one-device array) the set degenerates to
        // the placement primary rather than losing the request.
        if let Some(f) = failed {
            let primary = policy.route(index, &req, devices, footprint);
            let full_span = match scheme {
                Redundancy::None => 1,
                Redundancy::Replicate { .. } => devices,
                Redundancy::Ec { n, .. } => n.min(devices),
            };
            let has_alternative = (0..full_span).any(|j| (primary + j) % devices != f);
            if has_alternative {
                prop_assert!(
                    !set.contains(&f),
                    "the failed device must be routed around"
                );
            } else {
                prop_assert_eq!(
                    &set,
                    &vec![primary],
                    "with no in-span survivor the set degenerates to the primary"
                );
            }
        }
        // Deterministic degradation: the unfailed set minus the failed
        // device is a prefix of the degraded set (survivors keep their
        // order), and at most one fill-in successor is appended.
        if let Some(f) = failed {
            let unfailed = scheme.route_set(index, &req, devices, footprint, policy, None);
            if devices > 1 || f >= devices {
                let kept: Vec<u32> =
                    unfailed.iter().copied().filter(|&d| d != f).collect();
                prop_assert!(
                    set.len() >= kept.len() && set[..kept.len()] == kept[..],
                    "survivors must keep their unfailed order"
                );
                prop_assert!(
                    set.len() <= kept.len() + 1,
                    "at most one successor fills in for the failed member"
                );
            }
        }
    }

    /// Preconditioning then overwriting a subset leaves exactly that subset
    /// hot (the cold/retention bookkeeping behind Table 2).
    #[test]
    fn cold_tracking_matches_overwrites(hot in prop::collection::btree_set(0u64..300, 0..80)) {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg, 300).expect("footprint fits");
        ftl.precondition();
        for &lpn in &hot {
            ftl.allocate_for_write(lpn).expect("space available");
        }
        for lpn in 0..300u64 {
            prop_assert_eq!(ftl.is_cold(lpn), !hot.contains(&lpn));
        }
    }
}
