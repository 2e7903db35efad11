//! Property-based tests for the GPU substrate's invariants, on `testkit`.

use gpu_sim::cache::{CtxOccupancy, EvictionReport, InsertKind, OccupancyL2, SetAssocCache};
use gpu_sim::{Gpu, GpuConfig, KernelDesc, KernelFootprint, SchedulerMode};
use testkit::gen::{bool_with, f64_in, u32_in, u64_in, usize_in, vec_of, zip2, zip3, zip4};
use testkit::prop::holds;

/// Reference occupancy model: the allocating snapshot-`Vec` eviction that
/// `OccupancyL2` used before its two-pass rewrite, kept verbatim as the
/// oracle. `OccupancyL2` must match it bit for bit.
struct SnapshotL2 {
    capacity: f64,
    contexts: Vec<CtxOccupancy>,
}

#[derive(Debug, Clone, Copy)]
enum EvictPhase {
    OthersSameKind,
    OthersAnyKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolRef {
    GlobalClean,
    GlobalDirty,
    Tex,
}

impl SnapshotL2 {
    fn new(capacity: f64, contexts: usize) -> Self {
        SnapshotL2 {
            capacity,
            contexts: vec![CtxOccupancy::default(); contexts],
        }
    }

    fn total(&self) -> f64 {
        self.contexts.iter().map(CtxOccupancy::total).sum()
    }

    fn drain_dirty(&mut self, ctx: usize, max_bytes: f64) -> f64 {
        let occ = &mut self.contexts[ctx];
        occ.global_dirty = occ.global_dirty.max(0.0);
        let drained = occ.global_dirty.min(max_bytes.max(0.0));
        occ.global_dirty -= drained;
        occ.global_clean += drained;
        drained
    }

    fn insert(&mut self, ctx: usize, kind: InsertKind, bytes: f64) -> Vec<(usize, f64)> {
        let mut report = Vec::new();
        if bytes == 0.0 {
            return report;
        }
        let bytes = bytes.min(self.capacity);
        let free = (self.capacity - self.total()).max(0.0);
        let mut need = (bytes - free).max(0.0);
        if need > 0.0 {
            need = self.evict_phase(ctx, kind, need, &mut report, EvictPhase::OthersSameKind);
        }
        if need > 0.0 {
            need = self.evict_phase(ctx, kind, need, &mut report, EvictPhase::OthersAnyKind);
        }
        if need > 0.0 {
            let occ = &mut self.contexts[ctx];
            for pool in [&mut occ.global_clean, &mut occ.tex] {
                let take = pool.min(need);
                *pool -= take;
                need -= take;
                if need <= 0.0 {
                    break;
                }
            }
        }
        if need > 0.0 {
            let occ = &mut self.contexts[ctx];
            let take = occ.global_dirty.min(need);
            if take > 0.0 {
                occ.global_dirty -= take;
                report.push((ctx, take));
            }
        }
        let room = (self.capacity - self.total()).max(0.0);
        let placed = bytes.min(room);
        let occ = &mut self.contexts[ctx];
        match kind {
            InsertKind::GlobalClean => occ.global_clean += placed,
            InsertKind::GlobalDirty => occ.global_dirty += placed,
            InsertKind::Tex => occ.tex += placed,
        }
        report
    }

    fn evict_phase(
        &mut self,
        ctx: usize,
        kind: InsertKind,
        mut need: f64,
        report: &mut Vec<(usize, f64)>,
        phase: EvictPhase,
    ) -> f64 {
        let mut eligible: Vec<(usize, PoolRef, f64)> = Vec::new();
        for (i, occ) in self.contexts.iter().enumerate() {
            if i == ctx {
                continue;
            }
            let pools: &[(PoolRef, f64)] = match phase {
                EvictPhase::OthersSameKind => match kind {
                    InsertKind::Tex => &[(PoolRef::Tex, occ.tex)],
                    InsertKind::GlobalClean | InsertKind::GlobalDirty => &[
                        (PoolRef::GlobalClean, occ.global_clean),
                        (PoolRef::GlobalDirty, occ.global_dirty),
                    ],
                },
                EvictPhase::OthersAnyKind => &[
                    (PoolRef::GlobalClean, occ.global_clean),
                    (PoolRef::GlobalDirty, occ.global_dirty),
                    (PoolRef::Tex, occ.tex),
                ],
            };
            for &(p, sz) in pools {
                if sz > 0.0 {
                    eligible.push((i, p, sz));
                }
            }
        }
        let total: f64 = eligible.iter().map(|(_, _, s)| s).sum();
        if total <= 0.0 {
            return need;
        }
        let take_total = need.min(total);
        for (i, pool, sz) in eligible {
            let take = take_total * (sz / total);
            let occ = &mut self.contexts[i];
            match pool {
                PoolRef::GlobalClean => occ.global_clean = (occ.global_clean - take).max(0.0),
                PoolRef::GlobalDirty => occ.global_dirty = (occ.global_dirty - take).max(0.0),
                PoolRef::Tex => occ.tex = (occ.tex - take).max(0.0),
            }
            if matches!(pool, PoolRef::GlobalDirty) && take > 0.0 {
                report.push((i, take));
            }
        }
        need -= take_total;
        need.max(0.0)
    }
}

fn occupancy_bits(o: CtxOccupancy) -> [u64; 3] {
    [
        o.global_clean.to_bits(),
        o.global_dirty.to_bits(),
        o.tex.to_bits(),
    ]
}

fn evicted_bits(list: &[(usize, f64)]) -> Vec<(usize, u64)> {
    list.iter().map(|&(c, b)| (c, b.to_bits())).collect()
}

const CAPACITY: f64 = 1_000_000.0;

/// One cache operation: `(op, ctx, size class, bytes)`. `op` 0–2 inserts
/// into the clean / dirty / texture pool and 3 drains dirty bytes; `ctx` is
/// taken modulo the context count. Size class 0 is a zero-byte operation,
/// 1 and 2 are whole-cache and oversized inserts, anything else uses
/// `bytes`. Everything shrinks toward a zero-byte clean insert on context 0.
type CacheOp = (u32, usize, u32, f64);

fn op_bytes(&(_, _, size, bytes): &CacheOp) -> f64 {
    match size {
        0 => 0.0,
        1 => CAPACITY,
        2 => 1.5 * CAPACITY,
        _ => bytes,
    }
}

fn cache_ops() -> testkit::Gen<(usize, Vec<CacheOp>)> {
    let op = zip4(u32_in(0, 3), usize_in(0, 9), u32_in(0, 9), f64_in(0.0, 4e5));
    zip2(usize_in(2, 10), vec_of(op, 1, 60))
}

/// Runs `ops` against both models, checking the invariants and the
/// bitwise differential after every operation.
fn occupancy_matches_snapshot((n_ctx, ops): &(usize, Vec<CacheOp>)) -> Result<(), String> {
    let n_ctx = *n_ctx;
    let mut l2 = OccupancyL2::new(CAPACITY);
    for _ in 0..n_ctx {
        l2.add_context();
    }
    let mut reference = SnapshotL2::new(CAPACITY, n_ctx);
    let mut report = EvictionReport::default();
    for (step, op) in ops.iter().enumerate() {
        let ctx = op.1 % n_ctx;
        let bytes = op_bytes(op);
        let kind = match op.0 {
            0 => Some(InsertKind::GlobalClean),
            1 => Some(InsertKind::GlobalDirty),
            2 => Some(InsertKind::Tex),
            _ => None,
        };
        match kind {
            Some(kind) => {
                l2.insert(ctx, kind, bytes, &mut report);
                let expected = reference.insert(ctx, kind, bytes);
                holds(
                    evicted_bits(&report.dirty_evicted) == evicted_bits(&expected),
                    format!(
                        "step {step}: dirty evictions {:?} vs reference {expected:?}",
                        report.dirty_evicted
                    ),
                )?;
                // Evicted dirty bytes are non-negative and bounded.
                for &(_, b) in &report.dirty_evicted {
                    holds((0.0..=CAPACITY + 1.0).contains(&b), format!("evicted {b}"))?;
                }
            }
            None => {
                let drained = l2.drain_dirty(ctx, bytes);
                let expected = reference.drain_dirty(ctx, bytes);
                holds(
                    drained.to_bits() == expected.to_bits(),
                    format!("step {step}: drained {drained} vs reference {expected}"),
                )?;
                holds(
                    drained >= 0.0 && drained <= bytes + 1e-6,
                    format!("drained {drained} of {bytes}"),
                )?;
            }
        }
        // Global invariants and the differential after every step.
        holds(
            l2.total() <= CAPACITY * (1.0 + 1e-9),
            format!("over capacity: {}", l2.total()),
        )?;
        for c in 0..n_ctx {
            let occ = l2.occupancy(c);
            holds(
                occupancy_bits(occ) == occupancy_bits(reference.contexts[c]),
                format!(
                    "step {step}, context {c}: {occ:?} vs reference {:?}",
                    reference.contexts[c]
                ),
            )?;
            holds(
                occ.global_clean >= -1e-6 && occ.global_dirty >= -1e-6 && occ.tex >= -1e-6,
                format!("negative pool in context {c}: {occ:?}"),
            )?;
        }
    }
    Ok(())
}

#[test]
fn occupancy_model_invariants_hold_and_match_the_snapshot_reference() {
    testkit::check(
        "occupancy_model_vs_snapshot",
        &cache_ops(),
        occupancy_matches_snapshot,
    );
}

/// A sequence that once broke the invariants (an oversized dirty insert,
/// then inserts that evict it, then a zero-byte drain), kept as a fixed case.
#[test]
fn occupancy_regression_oversized_dirty_then_zero_drain() {
    let ops = vec![
        (1, 0, 9, 1_547_337.090_718_149_7),
        (0, 2, 9, 419_528.980_005_185_3),
        (0, 1, 9, 220_880.122_848_599_25),
        (0, 2, 9, 1_293_412.138_015_758),
        (3, 0, 0, 0.0),
    ];
    occupancy_matches_snapshot(&(3, ops)).unwrap();
}

#[test]
fn set_assoc_cache_never_exceeds_capacity() {
    let accesses = vec_of(
        zip3(u64_in(0, 2), u64_in(0, 999_999), bool_with(0.5)),
        1,
        399,
    );
    testkit::check("set_assoc_capacity", &accesses, |addrs| {
        let mut cache = SetAssocCache::new(64, 4, 32);
        let max_sectors = 64 * 4;
        for &(owner, addr, write) in addrs {
            cache.access(owner as u16, addr, write);
            let resident: usize = (0..3).map(|o| cache.resident_sectors(o)).sum();
            holds(
                resident <= max_sectors,
                format!("{resident} resident sectors"),
            )?;
        }
        let (hits, misses, writebacks) = cache.stats();
        holds(writebacks <= misses, "more write-backs than misses")?;
        holds(hits + misses > 0, "no accesses counted")
    });
}

#[test]
fn engine_time_is_monotone_and_kernels_complete() {
    let shapes = zip3(f64_in(100.0, 5_000.0), usize_in(1, 5), u64_in(0, 499));
    testkit::check(
        "engine_monotone_time",
        &shapes,
        |&(work_us, n_kernels, seed)| {
            let mut cfg = GpuConfig::gtx_1080_ti().with_seed(seed);
            cfg.counter_noise = 0.02;
            let mut gpu = Gpu::new(cfg.clone(), SchedulerMode::TimeSliced);
            let ctx = gpu.add_context("v");
            for i in 0..n_kernels {
                let fp = KernelFootprint {
                    flops: cfg.compute_throughput * work_us,
                    read_bytes: 1e5,
                    write_bytes: 1e4,
                    tex_read_bytes: 0.0,
                    working_set: 1e5,
                    tex_working_set: 0.0,
                };
                gpu.enqueue(ctx, KernelDesc::new(format!("k{}", i), 56, 1024, fp));
            }
            let mut last = gpu.now_us();
            for _ in 0..200 {
                gpu.run_for(1_000.0);
                holds(gpu.now_us() >= last, "simulated time went backwards")?;
                last = gpu.now_us();
                if !gpu.has_pending_work() {
                    break;
                }
            }
            gpu.run_until_queues_drain();
            // All kernels completed exactly once, in order.
            holds(
                gpu.kernels_completed(ctx) == n_kernels as u64,
                format!(
                    "{} of {n_kernels} kernels completed",
                    gpu.kernels_completed(ctx)
                ),
            )?;
            let log = gpu.kernel_log();
            holds(log.len() == n_kernels, format!("{} records", log.len()))?;
            for w in log.windows(2) {
                holds(
                    w[1].start_us >= w[0].end_us - 1e-6,
                    "kernels overlap on one stream",
                )?;
            }
            // Counters are non-negative.
            let c = gpu.context_counters(ctx);
            holds(c.as_array().iter().all(|&v| v >= 0.0), "negative counter")
        },
    );
}

#[test]
fn counter_slices_are_well_formed() {
    testkit::check("counter_slices_well_formed", &u64_in(0, 199), |&seed| {
        let cfg = GpuConfig::gtx_1080_ti().with_seed(seed);
        let mut gpu = Gpu::new(cfg.clone(), SchedulerMode::TimeSliced);
        let a = gpu.add_context("a");
        let b = gpu.add_context("b");
        gpu.monitor(b);
        let fp = KernelFootprint {
            flops: cfg.compute_throughput * 400.0,
            read_bytes: 5e5,
            write_bytes: 1e5,
            tex_read_bytes: 1e5,
            working_set: 4e5,
            tex_working_set: 1e5,
        };
        gpu.enqueue(a, KernelDesc::new("victim", 56, 1024, fp));
        gpu.set_auto_repeat(b, KernelDesc::new("spy", 4, 32, fp));
        gpu.run_for(20_000.0);
        let mut last_end = 0.0f64;
        for s in gpu.counter_trace() {
            holds(
                s.ctx.index() == b.index(),
                "slice of an unmonitored context",
            )?;
            holds(s.end_us >= s.start_us, "slice ends before it starts")?;
            holds(s.start_us >= last_end - 1e-6, "slices out of order")?;
            last_end = s.end_us;
            holds(
                s.delta.as_array().iter().all(|&v| v >= 0.0),
                "negative delta",
            )?;
        }
        Ok(())
    });
}
