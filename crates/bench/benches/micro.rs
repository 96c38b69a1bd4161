//! Micro-benchmarks of the hot substrate paths: the discrete-event queue,
//! the per-page error model, BCH decoding, and workload sampling.

use criterion::{criterion_group, criterion_main, Criterion};
use rr_ecc::bch::BchCode;
use rr_flash::calibration::OperatingCondition;
use rr_flash::error_model::{ErrorModel, PageId};
use rr_flash::timing::SensePhases;
use rr_sim::event::EventQueue;
use rr_util::dist::Zipf;
use rr_util::rng::Rng;
use rr_util::time::SimTime;
use std::hint::black_box;

fn event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_event_queue");
    // A scattered insertion pattern, then a full drain.
    let drive = |mut q: EventQueue<u64>| {
        for i in 0..1_000u64 {
            q.push(SimTime::from_ns((i * 7919) % 100_000 + 100_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    };
    g.bench_function("push_pop_1k_heap", |b| {
        b.iter(|| black_box(drive(EventQueue::new())))
    });
    // Steady-state shape: a bounded working set sliding forward in time,
    // closer to the simulator's lazy-admission event population.
    let steady = |mut q: EventQueue<u64>| {
        for i in 0..64u64 {
            q.push(SimTime::from_ns(i * 997), i);
        }
        let mut acc = 0u64;
        for i in 0..1_000u64 {
            let (now, v) = q.pop().expect("queue stays primed");
            acc = acc.wrapping_add(v);
            q.push(now + SimTime::from_ns((i * 7919) % 60_000 + 1), i);
        }
        acc
    };
    g.bench_function("steady_state_64_heap", |b| {
        b.iter(|| black_box(steady(EventQueue::new())))
    });
    g.finish();
}

fn error_model(c: &mut Criterion) {
    let model = ErrorModel::new(42);
    let cond = OperatingCondition::new(2000.0, 12.0, 30.0);
    let reduced = SensePhases::table1().with_reduction(0.4, 0.0, 0.0);
    let mut g = c.benchmark_group("micro_error_model");
    g.bench_function("required_step_index", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(model.required_step_index(PageId::new(i % 4096, (i % 576) as u32), cond))
        })
    });
    g.bench_function("errors_at_step_reduced_timing", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(model.errors_at_step(
                PageId::new(i % 4096, (i % 576) as u32),
                cond,
                (i % 20) as u32,
                &reduced,
            ))
        })
    });
    g.finish();
}

fn bch(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_bch");
    g.sample_size(20);
    let small = BchCode::small_test_code().expect("valid parameters");
    let data = vec![0xA7u8; 16];
    let clean = small.encode_bytes(&data).expect("sized payload");
    g.bench_function("encode_t8", |b| {
        b.iter(|| black_box(small.encode_bytes(&data).unwrap()))
    });
    g.bench_function("decode_t8_8errors", |b| {
        b.iter(|| {
            let mut cw = clean.clone();
            for i in 0..8 {
                cw.flip(i * 19 + 3);
            }
            black_box(small.decode(&mut cw).unwrap().corrected)
        })
    });
    let nand = BchCode::nand_72_per_kib().expect("valid parameters");
    let payload = vec![0x3Cu8; 1024];
    let clean_1k = nand.encode_bytes(&payload).expect("1-KiB payload");
    g.bench_function("encode_1kib_t72", |b| {
        b.iter(|| black_box(nand.encode_bytes(&payload).unwrap()))
    });
    g.bench_function("decode_1kib_t72_72errors", |b| {
        b.iter(|| {
            let mut cw = clean_1k.clone();
            for i in 0..72 {
                cw.flip(i * 127 + 13);
            }
            black_box(nand.decode(&mut cw).unwrap().corrected)
        })
    });
    g.finish();
}

fn sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_sampling");
    let zipf = Zipf::new(100_000, 0.99).expect("valid parameters");
    g.bench_function("zipf_sample", |b| {
        let mut rng = Rng::seed_from_u64(5);
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    g.bench_function("xoshiro_next", |b| {
        let mut rng = Rng::seed_from_u64(5);
        b.iter(|| black_box(rng.next_u64()))
    });
    g.finish();
}

criterion_group!(benches, event_queue, error_model, bch, sampling);
criterion_main!(benches);
