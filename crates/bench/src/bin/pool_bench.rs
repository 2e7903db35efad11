//! Worker-pool dispatch bench: persistent pool vs spawning threads per call.
//!
//! What a parallel backend costs beyond the work itself is *starting* a
//! parallel region. Spawning per call pays a fresh `thread::scope` spawn
//! per worker; the pool pays an enqueue + condvar wake against resident
//! workers. This bench measures that per-dispatch overhead directly — a
//! tiny fixed-work map repeated many times, so per-item work is noise and
//! the dispatch machinery dominates — plus the small-work `par_map`
//! dispatch rate the retuned `MIN_PARALLEL_*` thresholds are calibrated
//! against (`ml::par::thresholds` documents the numbers).
//!
//! The spawn-per-call baseline lives here, not in `ml::par`: the library
//! has one parallel backend, and this bench keeps the yardstick it is
//! gated against. Before any timing, the baseline's output is asserted
//! equal to the pool's, and the pool's to the serial path's.
//!
//! Merges a `pool` section into `BENCH_pipeline.json` without touching the
//! other binaries' sections. CI gates `dispatch_speedup_vs_scoped >= 1`;
//! the measured ratio on the tuning box was well above the 5x the
//! threshold retune assumes (see DESIGN.md §15).
//!
//! Run: `cargo run -p bench --release --bin pool_bench`
//! (the worker count is forced to 4 via `ml::par::with_threads` so the pool
//! engages even on a single-core CI box).

use std::time::Instant;

use serde::Serialize;

/// Worker count forced for every measurement, pool and baseline alike.
const WORKERS: usize = 4;

#[derive(Serialize)]
struct PoolBench {
    /// Worker count forced for every measurement.
    workers: usize,
    /// Dispatches timed per backend for the overhead numbers.
    dispatches: usize,
    /// Mean microseconds per tiny-work map, spawning threads per call.
    scoped_dispatch_us: f64,
    /// Mean microseconds per tiny-work `par_map` dispatch, pool backend.
    pool_dispatch_us: f64,
    /// `scoped_dispatch_us / pool_dispatch_us` — CI gates `>= 1`, the
    /// threshold retune assumes `>= 5`.
    dispatch_speedup_vs_scoped: f64,
    /// Items per small-work dispatch in the throughput measurement.
    small_work_items: usize,
    /// Small-work `par_map` dispatches per second through the pool.
    small_work_dispatches_per_sec: f64,
    /// Mean microseconds per `join` through the pool.
    join_pool_us: f64,
    /// Mean microseconds per `join`, spawning a thread per call.
    join_scoped_us: f64,
}

/// Mean seconds per iteration of `f` over `iters` runs.
fn per_call_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// The per-item work of every timed map.
fn tiny(i: usize, x: f32) -> f32 {
    x.mul_add(1.0009, i as f32)
}

/// Spawn-per-call baseline of `par_map`: one fresh scoped thread per
/// contiguous chunk, results concatenated in input order.
fn spawned_map(items: &[f32]) -> Vec<f32> {
    let chunk = items.len().div_ceil(WORKERS);
    // The yardstick the pool is gated against, not a parallel backend: its
    // output is asserted equal to the pool's before it is timed.
    // lint: allow(D3)
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                // lint: allow(D3)
                s.spawn(move || {
                    let base = ci * chunk;
                    slice
                        .iter()
                        .enumerate()
                        .map(|(j, &x)| tiny(base + j, x))
                        .collect::<Vec<f32>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("baseline worker panicked"))
            .collect()
    })
}

/// Spawn-per-call baseline of `join`: `b` on a fresh scoped thread, `a` on
/// the caller.
fn spawned_join<RA: Send, RB: Send>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    // The same gated yardstick as `spawned_map`. lint: allow(D3)
    std::thread::scope(|s| {
        // lint: allow(D3)
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("baseline join side panicked"))
    })
}

fn main() {
    let items: Vec<f32> = (0..8).map(|i| i as f32 * 0.83).collect();
    let small: Vec<f32> = (0..64).map(|i| i as f32 * 0.31).collect();
    let tiny_map = |items: &[f32]| ml::par::par_map(items, |i, &x| tiny(i, x));

    // Equality first: timing a divergent map would be meaningless. Also
    // warms the pool (first dispatch spawns workers) so lazy-init cost
    // stays out of the steady-state numbers.
    let serial = ml::par::with_threads(1, || tiny_map(&items));
    let pooled = ml::par::with_threads(WORKERS, || tiny_map(&items));
    assert_eq!(pooled, serial, "pool diverged from the serial path");
    assert_eq!(
        spawned_map(&items),
        pooled,
        "spawn baseline diverged from the pool"
    );
    let pooled_join = ml::par::with_threads(WORKERS, || ml::par::join(|| 1 + 1, || 2 + 2));
    assert_eq!(
        spawned_join(|| 1 + 1, || 2 + 2),
        pooled_join,
        "spawn baseline join diverged from the pool"
    );

    // Spawning costs tens of microseconds per call, so it gets a smaller
    // iteration budget than the pool path.
    let spawn_iters = 400;
    let pool_iters = 4000;
    let scoped_dispatch = per_call_secs(spawn_iters, || {
        std::hint::black_box(spawned_map(&items));
    });
    let join_scoped = per_call_secs(spawn_iters, || {
        std::hint::black_box(spawned_join(|| 1 + 1, || 2 + 2));
    });
    let (pool_dispatch, join_pool, small_rate) = ml::par::with_threads(WORKERS, || {
        let pool_dispatch = per_call_secs(pool_iters, || {
            std::hint::black_box(tiny_map(&items));
        });
        let join_pool = per_call_secs(pool_iters, || {
            std::hint::black_box(ml::par::join(|| 1 + 1, || 2 + 2));
        });
        let small_secs = per_call_secs(pool_iters, || {
            std::hint::black_box(tiny_map(&small));
        });
        (pool_dispatch, join_pool, 1.0 / small_secs)
    });

    let bench = PoolBench {
        workers: WORKERS,
        dispatches: pool_iters,
        scoped_dispatch_us: scoped_dispatch * 1e6,
        pool_dispatch_us: pool_dispatch * 1e6,
        dispatch_speedup_vs_scoped: scoped_dispatch / pool_dispatch,
        small_work_items: small.len(),
        small_work_dispatches_per_sec: small_rate,
        join_pool_us: join_pool * 1e6,
        join_scoped_us: join_scoped * 1e6,
    };
    println!(
        "pool dispatch: {:.1} us spawned vs {:.1} us pooled ({:.1}x), \
         join {:.1} us spawned vs {:.1} us pooled, \
         {:.0} small-work dispatches/s",
        bench.scoped_dispatch_us,
        bench.pool_dispatch_us,
        bench.dispatch_speedup_vs_scoped,
        bench.join_scoped_us,
        bench.join_pool_us,
        bench.small_work_dispatches_per_sec,
    );

    let path = bench::BENCH_PATH;
    bench::merge_sections(path, &[("pool", &bench)]).expect("write BENCH_pipeline.json");
    println!("pool -> {path}");
}
