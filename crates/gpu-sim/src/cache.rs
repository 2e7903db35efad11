//! L2 cache models.
//!
//! Two models live here:
//!
//! * [`OccupancyL2`] — the analytical, aggregate-occupancy model the engine
//!   uses. Each CUDA context owns a number of resident bytes (split into
//!   global-clean / global-dirty / texture pools); insertions evict other
//!   contexts' bytes proportionally, preferring the same pool kind (texture
//!   data competes with texture data first). Evicted *dirty* bytes must be
//!   written back — that is the write channel of the side-channel.
//! * [`SetAssocCache`] — a reference sectored set-associative cache with LRU
//!   replacement, used in tests to validate that the analytical model's
//!   eviction proportions are sane (see `tests/cache_calibration.rs`), and
//!   available for fine-grained microbenchmarks.

use serde::{Deserialize, Serialize};

/// Which pool an insertion lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertKind {
    /// Global-memory data, clean (read).
    GlobalClean,
    /// Global-memory data, dirty (written, needs write-back when evicted).
    GlobalDirty,
    /// Texture-path data (always clean).
    Tex,
}

/// Resident bytes of one context.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CtxOccupancy {
    /// Clean global-memory bytes.
    pub global_clean: f64,
    /// Dirty global-memory bytes.
    pub global_dirty: f64,
    /// Texture-tagged bytes (clean).
    pub tex: f64,
}

impl CtxOccupancy {
    /// Total resident bytes.
    pub fn total(&self) -> f64 {
        self.global_clean + self.global_dirty + self.tex
    }

    /// Total global-memory bytes (clean + dirty).
    pub fn global(&self) -> f64 {
        self.global_clean + self.global_dirty
    }
}

/// Dirty bytes evicted from contexts during one insertion, which their owners
/// must write back (and pay for) on their next slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvictionReport {
    /// `(context index, dirty bytes evicted)` — includes the inserting
    /// context itself if self-eviction reached its dirty pool.
    pub dirty_evicted: Vec<(usize, f64)>,
}

impl EvictionReport {
    /// Total dirty bytes evicted across all contexts.
    pub fn total_dirty(&self) -> f64 {
        self.dirty_evicted.iter().map(|(_, b)| b).sum()
    }
}

/// Aggregate per-context L2 occupancy model.
#[derive(Debug, Clone)]
pub struct OccupancyL2 {
    capacity: f64,
    contexts: Vec<CtxOccupancy>,
}

impl OccupancyL2 {
    /// Creates an empty cache of the given byte capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "cache capacity must be positive");
        OccupancyL2 {
            capacity,
            contexts: Vec::new(),
        }
    }

    /// Registers a context; returns its index.
    pub fn add_context(&mut self) -> usize {
        self.contexts.push(CtxOccupancy::default());
        self.contexts.len() - 1
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Occupancy of one context.
    pub fn occupancy(&self, ctx: usize) -> CtxOccupancy {
        self.contexts[ctx]
    }

    /// Total resident bytes across all contexts.
    pub fn total(&self) -> f64 {
        self.contexts.iter().map(CtxOccupancy::total).sum()
    }

    /// Converts up to `max_bytes` of `ctx`'s dirty pool to clean (an idle
    /// write-back drain). Returns the number of bytes drained.
    pub fn drain_dirty(&mut self, ctx: usize, max_bytes: f64) -> f64 {
        let occ = &mut self.contexts[ctx];
        // Proportional eviction can leave sub-epsilon negative residue;
        // clamp before draining.
        occ.global_dirty = occ.global_dirty.max(0.0);
        let drained = occ.global_dirty.min(max_bytes.max(0.0));
        occ.global_dirty -= drained;
        occ.global_clean += drained;
        drained
    }

    /// Discards up to `max_bytes` of `ctx`'s dirty pool without write-back
    /// accounting (used when a context's data is invalidated wholesale).
    pub fn invalidate_dirty(&mut self, ctx: usize, max_bytes: f64) -> f64 {
        let occ = &mut self.contexts[ctx];
        let dropped = occ.global_dirty.min(max_bytes.max(0.0));
        occ.global_dirty -= dropped;
        dropped
    }

    /// Inserts `bytes` of data for `ctx` into the given pool, evicting other
    /// contexts as needed. Eviction priority:
    ///
    /// 1. other contexts' same-kind pools (proportional to size),
    /// 2. other contexts' remaining pools (proportional),
    /// 3. the inserting context's own clean pools,
    /// 4. the inserting context's own dirty pool.
    ///
    /// Overwrites `report` with the contexts that lost dirty bytes (they owe
    /// write-backs). The caller owns the buffer, so a reused report makes the
    /// insert allocation-free once it has grown to its largest size.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is unknown or `bytes` is negative/non-finite.
    pub fn insert(
        &mut self,
        ctx: usize,
        kind: InsertKind,
        bytes: f64,
        report: &mut EvictionReport,
    ) {
        assert!(ctx < self.contexts.len(), "unknown context {}", ctx);
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "invalid insert size {}",
            bytes
        );
        report.dirty_evicted.clear();
        if bytes == 0.0 {
            return;
        }
        // An insertion can never exceed the whole cache.
        let bytes = bytes.min(self.capacity);

        let free = (self.capacity - self.total()).max(0.0);
        let mut need = (bytes - free).max(0.0);

        if need > 0.0 {
            // Phase 1: other contexts, same kind.
            let pools: &[PoolRef] = match kind {
                InsertKind::Tex => &[PoolRef::Tex],
                InsertKind::GlobalClean | InsertKind::GlobalDirty => {
                    &[PoolRef::GlobalClean, PoolRef::GlobalDirty]
                }
            };
            need = self.evict_phase(ctx, pools, need, report);
        }
        if need > 0.0 {
            // Phase 2: other contexts, any kind.
            let pools = &[PoolRef::GlobalClean, PoolRef::GlobalDirty, PoolRef::Tex];
            need = self.evict_phase(ctx, pools, need, report);
        }
        if need > 0.0 {
            // Phase 3: own clean pools.
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
            // Phase 4: own dirty pool (self write-back).
            let occ = &mut self.contexts[ctx];
            let take = occ.global_dirty.min(need);
            if take > 0.0 {
                occ.global_dirty -= take;
                report.dirty_evicted.push((ctx, take));
            }
            need -= take;
        }
        let _ = need; // any residual means the insert itself shrinks below

        // Place the new bytes (cannot exceed remaining room).
        let room = (self.capacity - self.total()).max(0.0);
        let placed = bytes.min(room);
        let occ = &mut self.contexts[ctx];
        match kind {
            InsertKind::GlobalClean => occ.global_clean += placed,
            InsertKind::GlobalDirty => occ.global_dirty += placed,
            InsertKind::Tex => occ.tex += placed,
        }
    }

    /// Evicts up to `need` bytes from the non-empty `pools` of every context
    /// but `ctx`, each in proportion to its size; returns what is still
    /// needed. Two passes in the same context and pool order: the first sums
    /// the eligible sizes, the second takes from each pool. Each pool is
    /// read once, just before its own write, so the second pass sees exactly
    /// the sizes the first one summed.
    fn evict_phase(
        &mut self,
        ctx: usize,
        pools: &[PoolRef],
        mut need: f64,
        report: &mut EvictionReport,
    ) -> f64 {
        let mut total = 0.0;
        for (i, occ) in self.contexts.iter().enumerate() {
            if i == ctx {
                continue;
            }
            for &p in pools {
                let sz = occ.pool(p);
                if sz > 0.0 {
                    total += sz;
                }
            }
        }
        if total <= 0.0 {
            return need;
        }
        let take_total = need.min(total);
        for (i, occ) in self.contexts.iter_mut().enumerate() {
            if i == ctx {
                continue;
            }
            for &p in pools {
                let pool = occ.pool_mut(p);
                let sz = *pool;
                if sz > 0.0 {
                    let take = take_total * (sz / total);
                    *pool = (sz - take).max(0.0);
                    if p == PoolRef::GlobalDirty && take > 0.0 {
                        report.dirty_evicted.push((i, take));
                    }
                }
            }
        }
        need -= take_total;
        need.max(0.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolRef {
    GlobalClean,
    GlobalDirty,
    Tex,
}

impl CtxOccupancy {
    fn pool(&self, p: PoolRef) -> f64 {
        match p {
            PoolRef::GlobalClean => self.global_clean,
            PoolRef::GlobalDirty => self.global_dirty,
            PoolRef::Tex => self.tex,
        }
    }

    fn pool_mut(&mut self, p: PoolRef) -> &mut f64 {
        match p {
            PoolRef::GlobalClean => &mut self.global_clean,
            PoolRef::GlobalDirty => &mut self.global_dirty,
            PoolRef::Tex => &mut self.tex,
        }
    }
}

// ---------------------------------------------------------------------------
// Reference set-associative cache
// ---------------------------------------------------------------------------

/// Result of one access to the [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The sector was resident.
    Hit,
    /// The sector missed; if an occupied line was replaced, reports whether
    /// it was dirty (needs write-back).
    Miss {
        /// A line was evicted and it was dirty.
        evicted_dirty: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    owner: u16,
    dirty: bool,
    lru: u64,
}

/// A sectored set-associative cache with true LRU replacement and per-line
/// owner tracking, used as ground truth for the analytical model.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    sector_bytes: u64,
    lines: Vec<Option<Line>>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl SetAssocCache {
    /// Creates a cache with `sets` x `ways` sectors of `sector_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(sets: usize, ways: usize, sector_bytes: u64) -> Self {
        assert!(
            sets > 0 && ways > 0 && sector_bytes > 0,
            "cache geometry must be non-zero"
        );
        SetAssocCache {
            sets,
            ways,
            sector_bytes,
            lines: vec![None; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * self.sector_bytes
    }

    /// Accesses `addr` on behalf of `owner`; `write` marks the line dirty.
    pub fn access(&mut self, owner: u16, addr: u64, write: bool) -> Access {
        self.tick += 1;
        let sector = addr / self.sector_bytes;
        let set = (sector % self.sets as u64) as usize;
        let tag = sector / self.sets as u64;
        let base = set * self.ways;
        // Hit?
        for line in self.lines[base..base + self.ways].iter_mut().flatten() {
            if line.tag == tag && line.owner == owner {
                line.lru = self.tick;
                line.dirty |= write;
                self.hits += 1;
                return Access::Hit;
            }
        }
        // Miss: fill an empty way or evict LRU.
        self.misses += 1;
        let mut victim: Option<usize> = None;
        for (i, slot) in self.lines[base..base + self.ways].iter().enumerate() {
            match slot {
                None => {
                    victim = Some(i);
                    break;
                }
                Some(line) => {
                    if victim
                        .is_none_or(|v| self.lines[base + v].is_none_or(|vl| line.lru < vl.lru))
                        && self.lines[base + i].is_some()
                    {
                        // Track the least-recently-used occupied way unless an
                        // empty way is found above.
                        victim = match victim {
                            None => Some(i),
                            Some(v) => {
                                let v_lru = self.lines[base + v].map(|l| l.lru).unwrap_or(0);
                                if line.lru < v_lru {
                                    Some(i)
                                } else {
                                    Some(v)
                                }
                            }
                        };
                    }
                }
            }
        }
        let way = victim.expect("ways > 0");
        let evicted_dirty = match self.lines[base + way] {
            Some(old) if old.dirty => {
                self.writebacks += 1;
                true
            }
            _ => false,
        };
        self.lines[base + way] = Some(Line {
            tag,
            owner,
            dirty: write,
            lru: self.tick,
        });
        Access::Miss { evicted_dirty }
    }

    /// Number of resident sectors owned by `owner`.
    pub fn resident_sectors(&self, owner: u16) -> usize {
        self.lines
            .iter()
            .flatten()
            .filter(|l| l.owner == owner)
            .count()
    }

    /// Resident bytes owned by `owner`.
    pub fn resident_bytes(&self, owner: u16) -> u64 {
        self.resident_sectors(owner) as u64 * self.sector_bytes
    }

    /// (hits, misses, write-backs) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_insert_and_evict_proportionally() {
        let mut l2 = OccupancyL2::new(1000.0);
        let mut rep = EvictionReport::default();
        let a = l2.add_context();
        let b = l2.add_context();
        let c = l2.add_context();
        l2.insert(a, InsertKind::GlobalClean, 600.0, &mut rep);
        l2.insert(b, InsertKind::GlobalClean, 300.0, &mut rep);
        assert!((l2.total() - 900.0).abs() < 1e-9);
        // c inserts 300: 100 free, 200 must come from a and b 2:1.
        l2.insert(c, InsertKind::GlobalClean, 300.0, &mut rep);
        assert!(rep.dirty_evicted.is_empty());
        let oa = l2.occupancy(a).total();
        let ob = l2.occupancy(b).total();
        assert!((oa - (600.0 - 200.0 * 2.0 / 3.0)).abs() < 1e-6, "{}", oa);
        assert!((ob - (300.0 - 200.0 / 3.0)).abs() < 1e-6, "{}", ob);
        assert!((l2.total() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn dirty_eviction_is_reported_to_owner() {
        let mut l2 = OccupancyL2::new(100.0);
        let mut rep = EvictionReport::default();
        let spy = l2.add_context();
        let victim = l2.add_context();
        l2.insert(spy, InsertKind::GlobalDirty, 80.0, &mut rep);
        l2.insert(victim, InsertKind::GlobalClean, 60.0, &mut rep);
        let spy_dirty_lost: f64 = rep
            .dirty_evicted
            .iter()
            .filter(|(c, _)| *c == spy)
            .map(|(_, b)| b)
            .sum();
        assert!((spy_dirty_lost - 40.0).abs() < 1e-6, "{}", spy_dirty_lost);
        assert!((l2.occupancy(spy).global_dirty - 40.0).abs() < 1e-6);
    }

    #[test]
    fn reused_report_holds_only_the_latest_insert() {
        let mut l2 = OccupancyL2::new(100.0);
        let mut rep = EvictionReport::default();
        let spy = l2.add_context();
        let victim = l2.add_context();
        l2.insert(spy, InsertKind::GlobalDirty, 80.0, &mut rep);
        l2.insert(victim, InsertKind::GlobalClean, 60.0, &mut rep);
        assert!(!rep.dirty_evicted.is_empty());
        l2.insert(victim, InsertKind::GlobalClean, 0.0, &mut rep);
        assert!(rep.dirty_evicted.is_empty(), "{:?}", rep);
    }

    #[test]
    fn tex_insert_prefers_tex_victims() {
        let mut l2 = OccupancyL2::new(100.0);
        let mut rep = EvictionReport::default();
        let spy = l2.add_context();
        let victim = l2.add_context();
        l2.insert(spy, InsertKind::Tex, 50.0, &mut rep);
        l2.insert(spy, InsertKind::GlobalClean, 50.0, &mut rep);
        // Victim inserts 30 tex; all must come from spy's tex pool first.
        l2.insert(victim, InsertKind::Tex, 30.0, &mut rep);
        let occ = l2.occupancy(spy);
        assert!((occ.tex - 20.0).abs() < 1e-6, "tex {}", occ.tex);
        assert!((occ.global_clean - 50.0).abs() < 1e-6);
    }

    #[test]
    fn self_eviction_reaches_own_dirty_last() {
        let mut l2 = OccupancyL2::new(100.0);
        let mut rep = EvictionReport::default();
        let only = l2.add_context();
        l2.insert(only, InsertKind::GlobalDirty, 60.0, &mut rep);
        l2.insert(only, InsertKind::GlobalClean, 40.0, &mut rep);
        // Insert 50 more clean: evicts own clean 40 then own dirty 10.
        l2.insert(only, InsertKind::GlobalClean, 50.0, &mut rep);
        assert!((rep.total_dirty() - 10.0).abs() < 1e-6, "{:?}", rep);
        assert!(l2.total() <= 100.0 + 1e-9);
    }

    #[test]
    fn drain_converts_dirty_to_clean() {
        let mut l2 = OccupancyL2::new(100.0);
        let mut rep = EvictionReport::default();
        let c = l2.add_context();
        l2.insert(c, InsertKind::GlobalDirty, 30.0, &mut rep);
        let drained = l2.drain_dirty(c, 20.0);
        assert!((drained - 20.0).abs() < 1e-9);
        let occ = l2.occupancy(c);
        assert!((occ.global_dirty - 10.0).abs() < 1e-9);
        assert!((occ.global_clean - 20.0).abs() < 1e-9);
        // Total unchanged.
        assert!((occ.total() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_insert_is_capped_at_capacity() {
        let mut l2 = OccupancyL2::new(100.0);
        let mut rep = EvictionReport::default();
        let c = l2.add_context();
        l2.insert(c, InsertKind::GlobalClean, 1e9, &mut rep);
        assert!(l2.total() <= 100.0 + 1e-6);
    }

    // --- reference cache ---

    #[test]
    fn set_assoc_hit_after_fill() {
        let mut c = SetAssocCache::new(4, 2, 32);
        assert!(matches!(c.access(0, 0, false), Access::Miss { .. }));
        assert_eq!(c.access(0, 0, false), Access::Hit);
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SetAssocCache::new(1, 2, 32);
        // Addresses 0, 32, 64 all map to the single set.
        c.access(0, 0, false);
        c.access(0, 32, false);
        c.access(0, 0, false); // refresh 0 -> 32 is LRU
        c.access(0, 64, false); // evicts 32
        assert_eq!(c.access(0, 0, false), Access::Hit);
        assert!(matches!(c.access(0, 32, false), Access::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = SetAssocCache::new(1, 1, 32);
        c.access(0, 0, true); // dirty fill
        let acc = c.access(0, 32, false); // evicts dirty line
        assert_eq!(
            acc,
            Access::Miss {
                evicted_dirty: true
            }
        );
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn owner_tracking_separates_contexts() {
        let mut c = SetAssocCache::new(8, 4, 32);
        for s in 0..8u64 {
            c.access(1, s * 32, false);
        }
        for s in 0..8u64 {
            c.access(2, s * 32 + 8 * 32, false);
        }
        assert_eq!(c.resident_sectors(1), 8);
        assert_eq!(c.resident_sectors(2), 8);
        assert_eq!(c.resident_bytes(1), 256);
    }

    #[test]
    fn same_address_different_owner_does_not_hit() {
        let mut c = SetAssocCache::new(4, 2, 32);
        c.access(1, 0, false);
        assert!(matches!(c.access(2, 0, false), Access::Miss { .. }));
    }

    #[test]
    fn capacity_bytes() {
        let c = SetAssocCache::new(16, 4, 32);
        assert_eq!(c.capacity_bytes(), 16 * 4 * 32);
    }
}
