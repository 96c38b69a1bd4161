//! Simulation metrics and the per-run report.

pub use rr_util::stats::LatencySummary;
use rr_util::stats::{Histogram, OnlineStats, Percentiles};
use rr_util::time::SimTime;

/// Aggregated results of one simulation run.
///
/// Tail latencies are reported per request class — reads, writes, and
/// *retried* reads (host reads that needed at least one retry step) — as
/// [`LatencySummary`] quantiles. A class that recorded no requests reports
/// `None` quantiles rather than a fabricated `0.0` tail.
///
/// `PartialEq` compares every field exactly (statistics included), so two
/// reports are equal only if the runs behaved identically — the determinism
/// regression tests rely on this.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimReport {
    /// Mechanism name (from the retry controller).
    pub mechanism: String,
    /// Response-time statistics over all host requests (µs).
    pub response_us: OnlineStats,
    /// Response-time statistics over host *reads* only (µs).
    pub read_response_us: OnlineStats,
    /// Response-time statistics over host *writes* only (µs).
    pub write_response_us: OnlineStats,
    /// Latency distribution (p50/p95/p99/p99.9, µs) of host reads.
    pub read_latency: LatencySummary,
    /// Latency distribution of host writes.
    pub write_latency: LatencySummary,
    /// Latency distribution of host reads that required ≥ 1 retry step —
    /// the population whose tail the paper's mechanisms attack.
    pub retried_read_latency: LatencySummary,
    /// Histogram of retry steps per host read (Fig. 5's quantity, observed).
    pub retry_steps: Histogram,
    /// Number of host requests completed.
    pub requests_completed: u64,
    /// Number of host reads that exhausted the retry table (read failures).
    pub read_failures: u64,
    /// Total page sensings issued (including speculative ones).
    pub senses: u64,
    /// Sensings killed by `RESET` (PR²'s speculative overshoot).
    pub resets: u64,
    /// `SET FEATURE` commands issued (AR²'s timing changes).
    pub set_features: u64,
    /// Program/erase suspensions performed.
    pub suspensions: u64,
    /// GC victim blocks collected.
    pub gc_collections: u64,
    /// Valid pages GC reprogrammed out of its victims (counted as each move's
    /// program completes).
    pub gc_pages_moved: u64,
    /// Discrete events the simulator processed during the run — the
    /// denominator-free work measure `repro perf` divides by wall-clock to
    /// report events/sec. Always `event_kinds.total()`.
    pub events_processed: u64,
    /// The same events, counted by kind.
    pub event_kinds: EventCounts,
    /// The most pending events and live transactions the run held at once.
    pub high_water: HighWater,
    /// Total simulated time at the last completion.
    pub makespan: SimTime,
    /// Per-host-queue latency distributions (one entry per submission queue
    /// of the front end; a single entry, matching the aggregate classes, for
    /// plain single-generator replays). Response times include any
    /// submission-queue wait, so arbitration skew between queues is visible
    /// here while the aggregate classes above blend it away.
    pub per_queue: Vec<QueueLatency>,
}

/// One host queue's slice of a run: how many of its requests completed and
/// their read/write latency distributions (µs, measured from submission —
/// host-side queueing included).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueueLatency {
    /// Host requests of this queue that completed.
    pub completed: u64,
    /// Read latency distribution of this queue.
    pub reads: LatencySummary,
    /// Write latency distribution of this queue.
    pub writes: LatencySummary,
    /// GC-induced stalls absorbed by this queue (see [`GcStalls`]).
    pub gc: GcStalls,
}

/// GC-induced stalls attributed to one host queue: every time garbage
/// collection delayed (or was delayed by) this queue's reads, the engine
/// records it here, so multi-queue runs show *which* queue absorbs GC
/// interference instead of blending it into the aggregate tail.
///
/// The stall definitions (all attributed to the queue of the waiting read):
///
/// * **suspension** — an in-flight GC program/erase was suspended for this
///   queue's read under the default suspension-benefit rule;
/// * **preemption** — a policy-forced suspension beyond the default rule
///   ([`crate::gc::GcPolicy::ReadPreempt`] budget or
///   [`crate::gc::GcPolicy::QueueShield`] shield);
/// * **wait** — this queue's read enqueued behind a GC die operation it
///   could not suspend and had to wait out;
/// * **deferral** — a non-critical GC job start was deferred on this
///   queue's behalf (shielding) or charged to it (token rate-limiting at
///   the queue's triggering write);
/// * **`stall_us`** — total attributed stall time: the suspension latency
///   per (forced) suspension plus the residual busy time per wait.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GcStalls {
    /// GC programs/erases suspended for this queue's reads (default rule).
    pub suspensions: u64,
    /// Policy-forced suspensions beyond the default benefit rule.
    pub preemptions: u64,
    /// Reads that enqueued behind an unsuspendable GC die operation.
    pub waits: u64,
    /// Non-critical GC job starts deferred on this queue's account.
    pub deferrals: u64,
    /// Total attributed stall time, µs.
    pub stall_us: f64,
}

impl GcStalls {
    /// Stall events this queue actually absorbed (suspensions + preemptions
    /// + waits; deferrals are avoided stalls, not absorbed ones).
    pub fn stalls(&self) -> u64 {
        self.suspensions + self.preemptions + self.waits
    }
}

/// Events a run processed, by kind: where the engine's work goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    /// `Arrive`: a host request reached its submission queue.
    pub arrive: u64,
    /// `DieDone` of the die's current job.
    pub die_done: u64,
    /// `DieDone` of a job that a `RESET` or a suspension cancelled, popped
    /// and dropped on a generation mismatch.
    pub stale_die_done: u64,
    /// `DataLoaded`: a write's data reached the chip.
    pub data_loaded: u64,
    /// `EccDone`: a decode whose verdict the read's controller awaits.
    pub ecc_done: u64,
}

impl EventCounts {
    /// Every event, whatever its kind.
    pub fn total(&self) -> u64 {
        self.arrive + self.die_done + self.stale_die_done + self.data_loaded + self.ecc_done
    }
}

impl std::ops::AddAssign for EventCounts {
    fn add_assign(&mut self, other: Self) {
        self.arrive += other.arrive;
        self.die_done += other.die_done;
        self.stale_die_done += other.stale_die_done;
        self.data_loaded += other.data_loaded;
        self.ecc_done += other.ecc_done;
    }
}

/// The most a run held at once of the two buffers its engine grows: the
/// event queue and the transaction slab. Deterministic, so reports with
/// them stay comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HighWater {
    /// Pending events, a deferred push counting as one.
    pub events: u64,
    /// Live transactions: slab slots allocated and not yet recycled.
    pub txns: u64,
}

impl HighWater {
    /// Raises each mark to `other`'s where that is higher: the marks of
    /// several runs are the highest any of them reached.
    pub fn merge(&mut self, other: Self) {
        self.events = self.events.max(other.events);
        self.txns = self.txns.max(other.txns);
    }
}

impl SimReport {
    /// Creates an empty report for a mechanism.
    pub fn new(mechanism: &str) -> Self {
        Self {
            mechanism: mechanism.to_string(),
            ..Self::default()
        }
    }

    /// Average response time in µs over all host requests.
    pub fn avg_response_us(&self) -> f64 {
        self.response_us.mean()
    }

    /// Average read response time in µs.
    pub fn avg_read_response_us(&self) -> f64 {
        self.read_response_us.mean()
    }

    /// 99th-percentile read response time in µs, or `None` when the run
    /// completed no reads (an empty class has no tail).
    pub fn read_p99_us(&self) -> Option<f64> {
        self.read_latency.p99
    }

    /// Average retry steps per host read.
    pub fn avg_retry_steps(&self) -> f64 {
        self.retry_steps.mean()
    }

    /// Throughput in thousands of I/O operations per second of simulated
    /// time (0 when the run completed nothing).
    pub fn kiops(&self) -> f64 {
        let us = self.makespan.as_us_f64();
        if us <= 0.0 {
            0.0
        } else {
            self.requests_completed as f64 / us * 1_000.0
        }
    }
}

/// Builder accumulating metrics during a run.
///
/// Deliberately *not* `Default`: a default-constructed collector would carry
/// a zero-bin retry histogram in which every recorded step count lands in
/// overflow. [`MetricsCollector::new`] sizes the histogram to the retry-table
/// depth.
#[derive(Debug)]
pub struct MetricsCollector {
    pub(crate) response_us: OnlineStats,
    pub(crate) read_response_us: OnlineStats,
    pub(crate) write_response_us: OnlineStats,
    pub(crate) per_queue: Vec<QueueCollector>,
    pub(crate) retry_steps: Histogram,
    pub(crate) requests_completed: u64,
    pub(crate) read_failures: u64,
    pub(crate) senses: u64,
    pub(crate) resets: u64,
    pub(crate) set_features: u64,
    pub(crate) suspensions: u64,
    pub(crate) gc_collections: u64,
    pub(crate) gc_pages_moved: u64,
    pub(crate) events: EventCounts,
    pub(crate) high_water: HighWater,
    pub(crate) makespan: SimTime,
    pub(crate) by_request: Vec<(f64, bool)>,
}

/// Per-host-queue accumulator behind [`QueueLatency`]. Each response
/// sample is stored once, here: the run's latency classes are unions of
/// these stores.
#[derive(Debug, Default)]
pub(crate) struct QueueCollector {
    completed: u64,
    /// Reads that needed no retry step.
    first_try_reads: Percentiles,
    retried_reads: Percentiles,
    writes: Percentiles,
    gc: GcStalls,
}

impl MetricsCollector {
    /// Creates an empty collector for `queues` host queues. The retry
    /// histogram is sized to the retry table's depth (`max_retry_steps` bins
    /// plus the no-retry bin and one beyond), so every recordable step count
    /// has a real bin.
    pub fn new(max_retry_steps: u32, queues: usize) -> Self {
        Self {
            response_us: OnlineStats::new(),
            read_response_us: OnlineStats::new(),
            write_response_us: OnlineStats::new(),
            per_queue: (0..queues).map(|_| QueueCollector::default()).collect(),
            retry_steps: Histogram::new(max_retry_steps as usize + 2),
            requests_completed: 0,
            read_failures: 0,
            senses: 0,
            resets: 0,
            set_features: 0,
            suspensions: 0,
            gc_collections: 0,
            gc_pages_moved: 0,
            events: EventCounts::default(),
            high_water: HighWater::default(),
            makespan: SimTime::ZERO,
            by_request: Vec::new(),
        }
    }

    /// Enables per-request tracking for a trace of `total` requests:
    /// [`MetricsCollector::record_indexed`] slots land at their trace index.
    /// Without this call, `record_indexed` is a no-op and the run's metrics
    /// are bit-identical to an untracked run.
    pub fn track_requests(&mut self, total: usize) {
        self.by_request = vec![(0.0, false); total];
    }

    /// Records the response of the request at trace index `index` (only
    /// meaningful after [`MetricsCollector::track_requests`]; a no-op
    /// otherwise).
    pub fn record_indexed(&mut self, index: u32, response: SimTime, retried: bool) {
        if self.by_request.is_empty() {
            return;
        }
        self.by_request[index as usize] = (response.as_us_f64(), retried);
    }

    /// Records a completed host request of host queue `queue`. `retried`
    /// marks a read whose pages needed at least one retry step (ignored for
    /// writes).
    pub fn record_request(
        &mut self,
        queue: u16,
        is_read: bool,
        retried: bool,
        response: SimTime,
        now: SimTime,
    ) {
        let us = response.as_us_f64();
        self.response_us.push(us);
        let q = &mut self.per_queue[queue as usize];
        q.completed += 1;
        if is_read {
            self.read_response_us.push(us);
            if retried {
                q.retried_reads.push(us);
            } else {
                q.first_try_reads.push(us);
            }
        } else {
            self.write_response_us.push(us);
            q.writes.push(us);
        }
        self.requests_completed += 1;
        self.makespan = self.makespan.max(now);
    }

    /// Records the retry-step count of one completed host read.
    pub fn record_retry_steps(&mut self, steps: u32) {
        self.retry_steps.record(steps as usize);
    }

    /// Records a GC program/erase suspended for a read of host queue
    /// `queue`, stalling it for `stall_us`; `forced` marks a policy-granted
    /// preemption beyond the default suspension-benefit rule.
    pub fn record_gc_suspension(&mut self, queue: u16, stall_us: f64, forced: bool) {
        let gc = &mut self.per_queue[queue as usize].gc;
        if forced {
            gc.preemptions += 1;
        } else {
            gc.suspensions += 1;
        }
        gc.stall_us += stall_us;
    }

    /// Records a read of host queue `queue` enqueueing behind a GC die
    /// operation it cannot suspend, waiting out `stall_us` of residual busy
    /// time.
    pub fn record_gc_wait(&mut self, queue: u16, stall_us: f64) {
        let gc = &mut self.per_queue[queue as usize].gc;
        gc.waits += 1;
        gc.stall_us += stall_us;
    }

    /// Records a non-critical GC job start deferred on host queue `queue`'s
    /// account.
    pub fn record_gc_deferral(&mut self, queue: u16) {
        self.per_queue[queue as usize].gc.deferrals += 1;
    }

    /// Finalizes into a report *and* hands back the per-request
    /// `(response µs, retried)` pairs recorded since
    /// [`MetricsCollector::track_requests`], indexed by trace position — the
    /// array merge matches a logical request's copies across devices by
    /// them. The report is bit-identical to what
    /// [`MetricsCollector::finish`] would produce.
    pub(crate) fn finish_tracked(mut self, mechanism: &str) -> (SimReport, Vec<(f64, bool)>) {
        let by_request = std::mem::take(&mut self.by_request);
        (self.finish(mechanism), by_request)
    }

    /// Finalizes into a report.
    pub fn finish(mut self, mechanism: &str) -> SimReport {
        let per_queue: Vec<QueueLatency> = self
            .per_queue
            .iter_mut()
            .map(|q| {
                // After this, `first_try_reads` holds all the queue's reads.
                q.first_try_reads.append(&q.retried_reads);
                QueueLatency {
                    completed: q.completed,
                    reads: q.first_try_reads.summary(),
                    writes: q.writes.summary(),
                    gc: q.gc,
                }
            })
            .collect();
        // One queue's classes are the run's, so they are not summarized again.
        let (read_latency, write_latency, retried_read_latency) =
            match (&per_queue[..], &mut self.per_queue[..]) {
                ([only], [q]) => (only.reads, only.writes, q.retried_reads.summary()),
                (_, queues) => (
                    union_summary(queues.iter().map(|q| &q.first_try_reads)),
                    union_summary(queues.iter().map(|q| &q.writes)),
                    union_summary(queues.iter().map(|q| &q.retried_reads)),
                ),
            };
        SimReport {
            mechanism: mechanism.to_string(),
            response_us: self.response_us,
            read_response_us: self.read_response_us,
            write_response_us: self.write_response_us,
            read_latency,
            write_latency,
            retried_read_latency,
            per_queue,
            retry_steps: self.retry_steps,
            requests_completed: self.requests_completed,
            read_failures: self.read_failures,
            senses: self.senses,
            resets: self.resets,
            set_features: self.set_features,
            suspensions: self.suspensions,
            gc_collections: self.gc_collections,
            gc_pages_moved: self.gc_pages_moved,
            events_processed: self.events.total(),
            event_kinds: self.events,
            high_water: self.high_water,
            makespan: self.makespan,
        }
    }
}

/// The summary of every sample of `parts`.
fn union_summary<'a>(parts: impl Iterator<Item = &'a Percentiles>) -> LatencySummary {
    let mut union = Percentiles::new();
    for part in parts {
        union.append(part);
    }
    union.summary()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_aggregates_by_direction() {
        let mut m = MetricsCollector::new(40, 1);
        m.record_request(0, true, false, SimTime::from_us(100), SimTime::from_us(100));
        m.record_request(0, true, true, SimTime::from_us(300), SimTime::from_us(400));
        m.record_request(
            0,
            false,
            false,
            SimTime::from_us(700),
            SimTime::from_us(1100),
        );
        m.record_retry_steps(3);
        m.record_retry_steps(5);
        let r = m.finish("Test");
        assert_eq!(r.mechanism, "Test");
        assert_eq!(r.requests_completed, 3);
        assert_eq!(r.avg_read_response_us(), 200.0);
        assert_eq!(r.write_response_us.mean(), 700.0);
        assert!((r.avg_response_us() - (100.0 + 300.0 + 700.0) / 3.0).abs() < 1e-9);
        assert_eq!(r.avg_retry_steps(), 4.0);
        assert_eq!(r.makespan, SimTime::from_us(1100));
        // Per-class distributions: 2 reads, 1 write, 1 retried read.
        assert_eq!(r.read_latency.count, 2);
        assert_eq!(r.write_latency.count, 1);
        assert_eq!(r.write_latency.p99, Some(700.0));
        assert_eq!(r.retried_read_latency.count, 1);
        assert_eq!(r.retried_read_latency.p50, Some(300.0));
    }

    #[test]
    fn classes_are_the_unions_of_their_queues_samples() {
        // Reads, retried reads and writes on each of 3 queues, with sample
        // counts that differ per queue and class and repeated latencies.
        let mut m = MetricsCollector::new(40, 3);
        let mut reads = Percentiles::new();
        let mut writes = Percentiles::new();
        let mut retried = Percentiles::new();
        let mut queue_reads: Vec<Percentiles> = (0..3).map(|_| Percentiles::new()).collect();
        let mut queue_writes: Vec<Percentiles> = (0..3).map(|_| Percentiles::new()).collect();
        for i in 0..3000u64 {
            let queue = (i % 3) as u16;
            let is_read = i % 5 != 0;
            let was_retried = is_read && i % 7 < 3;
            let us = (i * 7919 % 1009) + 10 * queue as u64;
            m.record_request(
                queue,
                is_read,
                was_retried,
                SimTime::from_us(us),
                SimTime::from_us(i),
            );
            let us = us as f64;
            if is_read {
                reads.push(us);
                queue_reads[queue as usize].push(us);
                if was_retried {
                    retried.push(us);
                }
            } else {
                writes.push(us);
                queue_writes[queue as usize].push(us);
            }
        }
        let r = m.finish("T");
        assert_eq!(r.read_latency, reads.summary());
        assert_eq!(r.write_latency, writes.summary());
        assert_eq!(r.retried_read_latency, retried.summary());
        assert_eq!(r.per_queue.len(), 3);
        for (i, q) in r.per_queue.iter().enumerate() {
            assert!(q.reads.count > 0 && q.writes.count > 0, "queue {i}");
            assert_eq!(q.reads, queue_reads[i].summary(), "queue {i}");
            assert_eq!(q.writes, queue_writes[i].summary(), "queue {i}");
            assert_eq!(q.completed, q.reads.count + q.writes.count);
        }
    }

    #[test]
    fn p99_reflects_tail() {
        let mut m = MetricsCollector::new(40, 1);
        for i in 1..=100 {
            m.record_request(0, true, false, SimTime::from_us(i), SimTime::from_us(i));
        }
        let r = m.finish("T");
        assert_eq!(r.read_p99_us(), Some(99.0));
        assert_eq!(r.read_latency.p999, Some(100.0));
    }

    #[test]
    fn classes_without_requests_have_no_tail() {
        // A write-only run must NOT fabricate a 0 µs read tail.
        let mut m = MetricsCollector::new(40, 1);
        m.record_request(
            0,
            false,
            false,
            SimTime::from_us(700),
            SimTime::from_us(700),
        );
        let r = m.finish("T");
        assert_eq!(r.read_p99_us(), None);
        assert_eq!(r.read_latency.count, 0);
        assert_eq!(r.retried_read_latency.p999, None);
        assert_eq!(r.write_latency.p50, Some(700.0));
    }

    #[test]
    fn gc_stalls_attribute_to_their_queue() {
        let mut m = MetricsCollector::new(40, 2);
        m.record_gc_suspension(0, 20.0, false);
        m.record_gc_suspension(0, 20.0, true);
        m.record_gc_wait(1, 350.0);
        m.record_gc_deferral(1);
        m.record_gc_deferral(1);
        let r = m.finish("T");
        let q0 = &r.per_queue[0].gc;
        let q1 = &r.per_queue[1].gc;
        assert_eq!(q0.suspensions, 1);
        assert_eq!(q0.preemptions, 1);
        assert_eq!(q0.waits, 0);
        assert_eq!(q0.stalls(), 2);
        assert!((q0.stall_us - 40.0).abs() < 1e-12);
        assert_eq!(q1.waits, 1);
        assert_eq!(q1.deferrals, 2);
        assert_eq!(q1.stalls(), 1);
        assert!((q1.stall_us - 350.0).abs() < 1e-12);
    }

    #[test]
    fn kiops_counts_completions_per_second() {
        let mut m = MetricsCollector::new(40, 1);
        for i in 1..=1000u64 {
            m.record_request(
                0,
                true,
                false,
                SimTime::from_us(100),
                SimTime::from_us(i * 1_000),
            );
        }
        let r = m.finish("T");
        // 1000 requests over 1 s of simulated time = 1 kIOPS.
        assert!((r.kiops() - 1.0).abs() < 1e-9);
        assert_eq!(SimReport::new("x").kiops(), 0.0);
    }
}
