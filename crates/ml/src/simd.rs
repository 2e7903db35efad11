//! Explicit-lane SIMD kernels behind runtime CPU-feature dispatch.
//!
//! This is the only module in the workspace allowed to touch `core::arch`
//! (leaky-lint rule D8 enforces the confinement). Everything here obeys the
//! same contract as the scalar microkernel in [`crate::matrix`]: the `f32`
//! kernels are **bitwise identical** to the naive triple loop, because the
//! vectorization runs across the `TILE_N = 8` output-column lanes — eight
//! *independent* ascending-`k` accumulation chains — and never reorders or
//! fuses the per-element `mul`-then-`add` sequence. In particular FMA is
//! deliberately not used: `a.mul_add(b, c)` rounds once where `a * b + c`
//! rounds twice, which would change bit patterns.
//!
//! Two kernel shapes cover `A * B`: [`gemm_tile_4x8`] for full four-row
//! tiles, and [`gemm_row_strips`] for the rows left over below them. The
//! row kernel keeps up to four eight-lane strips of one output row in
//! registers, so the one- to three-row products of small training buckets
//! run vectorized too, with the same per-element chains.
//!
//! Dispatch is resolved once per process by [`enabled`]: the
//! `LEAKY_DNN_SIMD` environment variable (`off` / `0` / `false` forces the
//! scalar fallback) AND-ed with a runtime AVX2 check on x86_64; every other
//! architecture always takes the scalar path. Tests pin both paths against
//! each other through [`with_simd`], which installs a *process-wide*
//! override — process-wide rather than thread-local on purpose, because
//! [`crate::par::par_map`] runs on persistent pool workers that never
//! inherit the caller's thread-locals. Cross-thread visibility of the override is
//! harmless: both paths produce bitwise-identical results, so which one a
//! concurrent caller observes is a scheduling detail, never an arithmetic
//! one.
//!
//! The integer kernel ([`dot_i8`]) serves the int8 path in [`crate::quant`].
//! `i8 x i8 -> i32` accumulation is exact (no rounding anywhere), so lane
//! order is irrelevant and the AVX2 widening-multiply path is trivially
//! equal to the scalar loop.

use crate::matrix::{TILE_M, TILE_N};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Process-wide dispatch override installed by [`with_simd`]:
/// 0 = unset (auto), 1 = force scalar, 2 = auto-detect.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Cached result of the environment + CPU-feature probe.
static DETECTED: OnceLock<bool> = OnceLock::new();

fn detect() -> bool {
    if let Ok(v) = std::env::var("LEAKY_DNN_SIMD") {
        let v = v.trim().to_ascii_lowercase();
        if v == "off" || v == "0" || v == "false" {
            return false;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the SIMD kernels are active for this call. Resolution order: the
/// [`with_simd`] override, then the cached `LEAKY_DNN_SIMD` / AVX2 probe.
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        _ => *DETECTED.get_or_init(detect),
    }
}

/// Runs `f` with SIMD dispatch forced off (`false`) or back to auto-detect
/// (`true`), restoring the previous override afterwards (also on panic).
///
/// The override is process-wide (see the module docs for why); since both
/// dispatch targets are bitwise-equal, concurrent tests observing each
/// other's override can change timing only, never results.
pub fn with_simd<R>(enable: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(OVERRIDE.swap(if enable { 2 } else { 1 }, Ordering::Relaxed));
    f()
}

/// One full [`TILE_M`] x [`TILE_N`] tile of `A * B`, accumulated over
/// `k_dim` with the lane dimension along the eight output columns.
///
/// `a_rows` are the four A rows (each at least `k_dim` long), `b` is the
/// row-major right-hand side with row stride `n`, and the tile's top-left
/// output column is `j`. Falls back to the scalar loop (identical bit
/// patterns) when SIMD is disabled or unavailable.
#[inline]
pub fn gemm_tile_4x8(
    a_rows: &[&[f32]; TILE_M],
    b: &[f32],
    n: usize,
    j: usize,
    k_dim: usize,
    acc: &mut [[f32; TILE_N]; TILE_M],
    use_simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // All slice accesses inside are bounds-derived from the same
        // indices the scalar path uses.
        // SAFETY: `enabled()` (threaded through `use_simd`) returned true
        // only after `is_x86_feature_detected!("avx2")` confirmed AVX2
        // support on this CPU, so calling the `#[target_feature]` fn is sound.
        unsafe {
            avx2::gemm_tile_4x8(a_rows, b, n, j, k_dim, acc);
        }
        return;
    }
    let _ = use_simd;
    for k in 0..k_dim {
        let Ok(b_strip) = <&[f32; TILE_N]>::try_from(&b[k * n + j..k * n + j + TILE_N]) else {
            // The slice is TILE_N wide by construction; skip the strip
            // rather than panic inside the serving GEMM.
            debug_assert!(false, "strip is TILE_N wide");
            continue;
        };
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows.iter()) {
            let av = a_row[k];
            for (o, &bv) in acc_row.iter_mut().zip(b_strip.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// One full [`TILE_M`] x [`TILE_N`] tile of `A^T * B`: at each `k` the four
/// A values are contiguous (`A[k][i..i + TILE_M]`) and each is broadcast
/// across the eight B lanes. Same bitwise contract as [`gemm_tile_4x8`].
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gemm_t_tile_4x8(
    a: &[f32],
    a_cols: usize,
    i: usize,
    b: &[f32],
    n: usize,
    j: usize,
    k_dim: usize,
    acc: &mut [[f32; TILE_N]; TILE_M],
    use_simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: as in `gemm_tile_4x8` — `use_simd` is only true after the
        // runtime AVX2 probe succeeded, and the kernel touches the same
        // bounds-checked slice ranges as the scalar fallback below.
        unsafe {
            avx2::gemm_t_tile_4x8(a, a_cols, i, b, n, j, k_dim, acc);
        }
        return;
    }
    let _ = use_simd;
    for k in 0..k_dim {
        let (Ok(a_strip), Ok(b_strip)) = (
            <&[f32; TILE_M]>::try_from(&a[k * a_cols + i..k * a_cols + i + TILE_M]),
            <&[f32; TILE_N]>::try_from(&b[k * n + j..k * n + j + TILE_N]),
        ) else {
            // Both slices are tile-width by construction; skip the strip
            // rather than panic inside the GEMM.
            debug_assert!(false, "strips are tile width");
            continue;
        };
        for (acc_row, &av) in acc.iter_mut().zip(a_strip.iter()) {
            for (o, &bv) in acc_row.iter_mut().zip(b_strip.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Column strips one [`gemm_row_strips`] block keeps in registers: four
/// [`TILE_N`]-wide strips, the same 32 accumulators as a full 4x8 tile.
const ROW_STRIPS: usize = 4;

/// Adds `a_row * B` into `out_row`: one output row of `A * B`, for the rows
/// that do not fill a [`TILE_M`]-row tile.
///
/// `b` is the row-major right-hand side with row stride `n`, `a_row` holds
/// the row's `k_dim = a_row.len()` A values and `out_row` its `n` outputs.
/// Every output element extends its own chain with `out += a[k] * b[k][j]`
/// for ascending `k`, mul then add (never FMA), so on a zeroed `out_row` the
/// result is bitwise equal to the naive triple loop. The AVX2 path keeps
/// four [`TILE_N`]-wide strips of outputs in registers per pass over `k`, then
/// one strip at a time, then the last `n % TILE_N` columns one scalar chain
/// each. The scalar fallback is the plain row loop.
///
/// # Panics
///
/// Panics if `out_row.len() != n` or `b` holds fewer than `k_dim * n` values.
#[inline]
pub fn gemm_row_strips(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32], use_simd: bool) {
    assert_eq!(out_row.len(), n, "gemm_row_strips output width mismatch");
    assert!(b.len() >= a_row.len() * n, "gemm_row_strips B too short");
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: `use_simd` is only true after the runtime AVX2 probe
        // succeeded, and the lengths asserted above are exactly the bounds
        // the kernel relies on (see its SAFETY comment).
        unsafe {
            avx2::gemm_row_strips(a_row, b, n, out_row);
        }
        return;
    }
    let _ = use_simd;
    for (k, &av) in a_row.iter().enumerate() {
        let b_row = &b[k * n..(k + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
            *o += av * bv;
        }
    }
}

/// Exact `i8 x i8 -> i32` dot product for the int8 serving path.
///
/// Integer accumulation has no rounding, so the AVX2 widening path and the
/// scalar loop are equal by construction, not merely bit-pinned.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8 length mismatch");
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` returned true only after the runtime AVX2
        // probe succeeded; the kernel reads 16-byte chunks strictly inside
        // `a`/`b` via chunk iterators and handles the tail in scalar code.
        return unsafe { avx2::dot_i8(a, b) };
    }
    dot_i8_scalar(a, b)
}

fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| x as i32 * y as i32)
        .sum()
}

/// Four exact `i8 x i8 -> i32` dot products sharing one right-hand vector —
/// the int8 serving hot path (four gate rows against one activation row).
/// Sharing `b`'s loads across the four rows and fusing the four horizontal
/// sums is what buys the serving throughput target; results are identical
/// to four [`dot_i8`] calls. `use_simd` is hoisted by the caller so the
/// dispatch check is not paid per dot product.
///
/// # Panics
///
/// Panics if any row's length differs from `b`'s.
#[inline]
pub fn dot_i8_x4(rows: &[&[i8]; 4], b: &[i8], use_simd: bool) -> [i32; 4] {
    for r in rows {
        assert_eq!(r.len(), b.len(), "dot_i8_x4 length mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: `use_simd` is only true after the runtime AVX2 probe
        // succeeded; the kernel reads 16-byte chunks strictly inside the
        // equal-length slices and handles the tail in scalar code.
        return unsafe { avx2::dot_i8_x4(rows, b) };
    }
    let _ = use_simd;
    [
        dot_i8_scalar(rows[0], b),
        dot_i8_scalar(rows[1], b),
        dot_i8_scalar(rows[2], b),
        dot_i8_scalar(rows[3], b),
    ]
}

/// Exact int8 matrix-vector product: `out[r] = dot_i8(w row r, h)` for a
/// row-major `out.len() x cols` weight matrix. The serving recurrence calls
/// this once per (timestep, sequence) so the widened `h` chunks are shared
/// across *all* gate rows, not re-converted per 4-row block.
///
/// # Panics
///
/// Panics if `w.len() != out.len() * cols`, `h.len() != cols`, or
/// `out.len()` is not a multiple of 4.
pub fn matvec_i8(w: &[i8], cols: usize, h: &[i8], out: &mut [i32], use_simd: bool) {
    let rows = out.len();
    assert_eq!(w.len(), rows * cols, "matvec_i8 weight length mismatch");
    assert_eq!(h.len(), cols, "matvec_i8 vector length mismatch");
    assert_eq!(rows % 4, 0, "matvec_i8 rows must be a multiple of 4");
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        if cols / 16 <= avx2::MAX_WIDEN_CHUNKS {
            // SAFETY: `use_simd` is only true after the runtime AVX2 probe
            // succeeded; lengths were asserted above and the kernel stays
            // inside them (see its SAFETY comment).
            unsafe { avx2::matvec_i8(w, cols, h, out) };
            return;
        }
        for (rb, o4) in out.chunks_exact_mut(4).enumerate() {
            let base = rb * 4 * cols;
            let w4: [&[i8]; 4] =
                std::array::from_fn(|t| &w[base + t * cols..base + (t + 1) * cols]);
            // SAFETY: as above — AVX2 was probed and slice lengths match.
            o4.copy_from_slice(&unsafe { avx2::dot_i8_x4(&w4, h) });
        }
        return;
    }
    let _ = use_simd;
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot_i8_scalar(&w[r * cols..(r + 1) * cols], h);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 implementations. Every function is `unsafe` solely because of
    //! `#[target_feature]`; callers must have verified AVX2 support.

    use crate::matrix::{TILE_M, TILE_N};
    use core::arch::x86_64::{
        __m128i, __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_cvtepi8_epi16,
        _mm256_extracti128_si256, _mm256_hadd_epi32, _mm256_loadu_ps, _mm256_madd_epi16,
        _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_si256, _mm256_storeu_ps, _mm_add_epi32,
        _mm_cvtsi128_si32, _mm_loadu_si128, _mm_shuffle_epi32, _mm_storeu_si128,
        _mm_unpackhi_epi64,
    };

    // SAFETY: callers guarantee AVX2 is available (checked at dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_tile_4x8(
        a_rows: &[&[f32]; TILE_M],
        b: &[f32],
        n: usize,
        j: usize,
        k_dim: usize,
        acc: &mut [[f32; TILE_N]; TILE_M],
    ) {
        // SAFETY: each `acc` row is 8 contiguous f32s, a valid unaligned
        // load/store target; `b[k * n + j ..][..8]` is in bounds because the
        // caller's tile walk guarantees `j + TILE_N <= n` and `k < k_dim`.
        unsafe {
            let mut acc_v: [__m256; TILE_M] =
                std::array::from_fn(|t| _mm256_loadu_ps(acc[t].as_ptr()));
            for k in 0..k_dim {
                let b_strip = _mm256_loadu_ps(b.as_ptr().add(k * n + j));
                for (av, a_row) in acc_v.iter_mut().zip(a_rows.iter()) {
                    let a_bcast = _mm256_set1_ps(*a_row.get_unchecked(k));
                    // mul then add, never fmadd: two roundings, exactly like
                    // the scalar `*o += av * bv`.
                    *av = _mm256_add_ps(*av, _mm256_mul_ps(a_bcast, b_strip));
                }
            }
            for (row, av) in acc.iter_mut().zip(acc_v.iter()) {
                _mm256_storeu_ps(row.as_mut_ptr(), *av);
            }
        }
    }

    // SAFETY: callers guarantee AVX2 is available (checked at dispatch).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_t_tile_4x8(
        a: &[f32],
        a_cols: usize,
        i: usize,
        b: &[f32],
        n: usize,
        j: usize,
        k_dim: usize,
        acc: &mut [[f32; TILE_N]; TILE_M],
    ) {
        // The caller's tile walk guarantees `i + TILE_M <= a_cols` and
        // `j + TILE_N <= n` for every `k < k_dim`.
        // SAFETY: all pointer arithmetic below therefore stays inside
        // `a` / `b`; `acc` rows are 8 contiguous f32s as above.
        unsafe {
            let mut acc_v: [__m256; TILE_M] =
                std::array::from_fn(|t| _mm256_loadu_ps(acc[t].as_ptr()));
            for k in 0..k_dim {
                let b_strip = _mm256_loadu_ps(b.as_ptr().add(k * n + j));
                let a_base = k * a_cols + i;
                for (t, av) in acc_v.iter_mut().enumerate() {
                    let a_bcast = _mm256_set1_ps(*a.get_unchecked(a_base + t));
                    *av = _mm256_add_ps(*av, _mm256_mul_ps(a_bcast, b_strip));
                }
            }
            for (row, av) in acc.iter_mut().zip(acc_v.iter()) {
                _mm256_storeu_ps(row.as_mut_ptr(), *av);
            }
        }
    }

    /// # Safety
    ///
    /// AVX2 must be available, `out_row.len() == n` and
    /// `b.len() >= a_row.len() * n`.
    // SAFETY: the dispatcher checks all three (see `super::gemm_row_strips`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_row_strips(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
        const GROUP: usize = super::ROW_STRIPS * TILE_N;
        let mut j = 0;
        // The dispatcher asserted `out_row.len() == n` and
        // `b.len() >= a_row.len() * n`; the loops keep `j + width <= n` and
        // `k < a_row.len()`, and the `n % TILE_N` tail is safe code.
        // SAFETY: every load and store below therefore stays inside
        // `b[k * n + j..][..width]` and `out_row[j..][..width]`.
        unsafe {
            while j + GROUP <= n {
                let out = out_row.as_mut_ptr().add(j);
                let mut acc: [__m256; super::ROW_STRIPS] =
                    std::array::from_fn(|s| _mm256_loadu_ps(out.add(s * TILE_N)));
                for (k, &av) in a_row.iter().enumerate() {
                    let a_bcast = _mm256_set1_ps(av);
                    let b_base = b.as_ptr().add(k * n + j);
                    for (s, acc_s) in acc.iter_mut().enumerate() {
                        let b_strip = _mm256_loadu_ps(b_base.add(s * TILE_N));
                        // mul then add, never fmadd, as in `gemm_tile_4x8`.
                        *acc_s = _mm256_add_ps(*acc_s, _mm256_mul_ps(a_bcast, b_strip));
                    }
                }
                for (s, acc_s) in acc.iter().enumerate() {
                    _mm256_storeu_ps(out.add(s * TILE_N), *acc_s);
                }
                j += GROUP;
            }
            while j + TILE_N <= n {
                let out = out_row.as_mut_ptr().add(j);
                let mut acc = _mm256_loadu_ps(out);
                for (k, &av) in a_row.iter().enumerate() {
                    let b_strip = _mm256_loadu_ps(b.as_ptr().add(k * n + j));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), b_strip));
                }
                _mm256_storeu_ps(out, acc);
                j += TILE_N;
            }
        }
        for (jr, o) in out_row.iter_mut().enumerate().skip(j) {
            let mut acc = *o;
            for (k, &av) in a_row.iter().enumerate() {
                acc += av * b[k * n + jr];
            }
            *o = acc;
        }
    }

    // SAFETY: callers guarantee AVX2 is available (checked at dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let chunks = a.len() / 16;
        // SAFETY: the loop reads exactly `chunks * 16` bytes from each
        // slice (`idx + 16 <= a.len()` by construction); the remainder is
        // summed by safe scalar code below.
        let mut acc = unsafe {
            let mut acc = _mm256_setzero_si256();
            for c in 0..chunks {
                let idx = c * 16;
                let av = _mm_loadu_si128(a.as_ptr().add(idx) as *const __m128i);
                let bv = _mm_loadu_si128(b.as_ptr().add(idx) as *const __m128i);
                // Widen i8 -> i16 (exact), multiply-add adjacent pairs into
                // i32 (|a|,|b| <= 127 so each pair product sum <= 32258,
                // far inside i16*i16 -> i32 range). Integer adds are
                // associative, so lane order cannot matter.
                let prod = _mm256_madd_epi16(_mm256_cvtepi8_epi16(av), _mm256_cvtepi8_epi16(bv));
                acc = _mm256_add_epi32(acc, prod);
            }
            horizontal_sum_i32(acc)
        };
        for idx in chunks * 16..a.len() {
            acc += a[idx] as i32 * b[idx] as i32;
        }
        acc
    }

    // SAFETY: callers guarantee AVX2 is available (checked at dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_x4(rows: &[&[i8]; 4], b: &[i8]) -> [i32; 4] {
        let chunks = b.len() / 16;
        // SAFETY: the caller asserted all four rows equal `b` in length and
        // the loop reads exactly `chunks * 16 <= b.len()` bytes from each;
        // `out` is 4 contiguous i32s, a valid unaligned store target.
        let mut out = unsafe {
            let mut acc = [_mm256_setzero_si256(); 4];
            for c in 0..chunks {
                let idx = c * 16;
                let bv =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(idx) as *const __m128i));
                for (a, row) in acc.iter_mut().zip(rows.iter()) {
                    let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                        row.as_ptr().add(idx) as *const __m128i
                    ));
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(av, bv));
                }
            }
            // Fused 4-way horizontal sum: two hadd rounds interleave the
            // per-accumulator partial sums per 128-bit lane, the cross-lane
            // add finishes all four reductions at once.
            let t0 = _mm256_hadd_epi32(acc[0], acc[1]);
            let t1 = _mm256_hadd_epi32(acc[2], acc[3]);
            let t2 = _mm256_hadd_epi32(t0, t1);
            let sums = _mm_add_epi32(
                _mm256_extracti128_si256::<0>(t2),
                _mm256_extracti128_si256::<1>(t2),
            );
            let mut out = [0i32; 4];
            _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, sums);
            out
        };
        for idx in chunks * 16..b.len() {
            for (o, row) in out.iter_mut().zip(rows.iter()) {
                *o += row[idx] as i32 * b[idx] as i32;
            }
        }
        out
    }

    /// Widened-activation buffer bound for [`matvec_i8`]: up to
    /// `64 * 16 = 1024` int8 columns pre-converted on the stack (2 KiB).
    /// Wider products fall back to the per-block kernel at dispatch.
    pub const MAX_WIDEN_CHUNKS: usize = 64;

    // SAFETY: callers guarantee AVX2 is available (checked at dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn matvec_i8(w: &[i8], cols: usize, h: &[i8], out: &mut [i32]) {
        let chunks = cols / 16;
        debug_assert!(chunks <= MAX_WIDEN_CHUNKS);
        // The dispatcher asserted `w.len() == out.len() * cols`,
        // `h.len() == cols`, `out.len() % 4 == 0` and `chunks <=
        // MAX_WIDEN_CHUNKS`; the `cols % 16` tail is handled by safe code.
        // SAFETY: every pointer below therefore stays inside those bounds
        // (`c * 16 + 16 <= cols`, `base + t * cols + cols <= w.len()`).
        unsafe {
            // Widen the shared activation row once.
            let mut hw = [_mm256_setzero_si256(); MAX_WIDEN_CHUNKS];
            for (c, slot) in hw.iter_mut().enumerate().take(chunks) {
                *slot =
                    _mm256_cvtepi8_epi16(_mm_loadu_si128(h.as_ptr().add(c * 16) as *const __m128i));
            }
            for (rb, o4) in out.chunks_exact_mut(4).enumerate() {
                let base = rb * 4 * cols;
                let mut acc = [_mm256_setzero_si256(); 4];
                for (c, &hv) in hw.iter().enumerate().take(chunks) {
                    let idx = c * 16;
                    for (t, a) in acc.iter_mut().enumerate() {
                        let wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                            w.as_ptr().add(base + t * cols + idx) as *const __m128i,
                        ));
                        *a = _mm256_add_epi32(*a, _mm256_madd_epi16(wv, hv));
                    }
                }
                let t0 = _mm256_hadd_epi32(acc[0], acc[1]);
                let t1 = _mm256_hadd_epi32(acc[2], acc[3]);
                let t2 = _mm256_hadd_epi32(t0, t1);
                let sums = _mm_add_epi32(
                    _mm256_extracti128_si256::<0>(t2),
                    _mm256_extracti128_si256::<1>(t2),
                );
                let mut four = [0i32; 4];
                _mm_storeu_si128(four.as_mut_ptr() as *mut __m128i, sums);
                for idx in chunks * 16..cols {
                    for (t, o) in four.iter_mut().enumerate() {
                        *o += w[base + t * cols + idx] as i32 * h[idx] as i32;
                    }
                }
                o4.copy_from_slice(&four);
            }
        }
    }

    // SAFETY: callers guarantee AVX2 is available (checked at dispatch);
    // the body is pure register shuffles and adds, no memory access.
    #[target_feature(enable = "avx2")]
    unsafe fn horizontal_sum_i32(v: __m256i) -> i32 {
        let lo = _mm256_extracti128_si256::<0>(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        let sum128 = _mm_add_epi32(lo, hi);
        let sum64 = _mm_add_epi32(sum128, _mm_unpackhi_epi64(sum128, sum128));
        let sum32 = _mm_add_epi32(sum64, _mm_shuffle_epi32::<0b01>(sum64));
        _mm_cvtsi128_si32(sum32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_simd_restores_override() {
        let auto = enabled();
        with_simd(false, || {
            assert!(!enabled(), "override must force the scalar path");
            with_simd(true, || assert_eq!(enabled(), auto));
            assert!(!enabled());
        });
        assert_eq!(enabled(), auto);
    }

    #[test]
    fn with_simd_restores_override_on_panic() {
        let before = enabled();
        let result = std::panic::catch_unwind(|| with_simd(false, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(enabled(), before);
    }

    #[test]
    fn gemm_tile_matches_scalar_bitwise() {
        for k_dim in 1..=17usize {
            let a_data: Vec<Vec<f32>> = (0..TILE_M)
                .map(|t| {
                    (0..k_dim)
                        .map(|k| ((t * 31 + k * 7) % 13) as f32 * 0.17 - 0.7)
                        .collect()
                })
                .collect();
            let a_rows: [&[f32]; TILE_M] = std::array::from_fn(|t| a_data[t].as_slice());
            let n = TILE_N + 3;
            let b: Vec<f32> = (0..k_dim * n)
                .map(|x| ((x * 11) % 23) as f32 * 0.09 - 1.0)
                .collect();
            let mut scalar = [[0.0f32; TILE_N]; TILE_M];
            gemm_tile_4x8(&a_rows, &b, n, 0, k_dim, &mut scalar, false);
            let mut simd = [[0.0f32; TILE_N]; TILE_M];
            gemm_tile_4x8(&a_rows, &b, n, 0, k_dim, &mut simd, enabled());
            assert_eq!(scalar, simd, "k_dim = {k_dim}");
        }
    }

    #[test]
    fn gemm_t_tile_matches_scalar_bitwise() {
        for k_dim in 1..=17usize {
            let a_cols = TILE_M + 2;
            let a: Vec<f32> = (0..k_dim * a_cols)
                .map(|x| ((x * 5) % 19) as f32 * 0.13 - 0.9)
                .collect();
            let n = 2 * TILE_N;
            let b: Vec<f32> = (0..k_dim * n)
                .map(|x| ((x * 3) % 29) as f32 * 0.07 - 1.1)
                .collect();
            let mut scalar = [[0.0f32; TILE_N]; TILE_M];
            gemm_t_tile_4x8(&a, a_cols, 1, &b, n, TILE_N, k_dim, &mut scalar, false);
            let mut simd = [[0.0f32; TILE_N]; TILE_M];
            gemm_t_tile_4x8(&a, a_cols, 1, &b, n, TILE_N, k_dim, &mut simd, enabled());
            assert_eq!(scalar, simd, "k_dim = {k_dim}");
        }
    }

    #[test]
    fn gemm_row_strips_matches_scalar_bitwise() {
        // Every column count through two full four-strip groups covers each
        // group / single-strip / scalar-tail split; a non-zero starting row
        // checks that both paths accumulate into `out_row`.
        for k_dim in [0usize, 1, 2, 7, 26] {
            for n in 0..=2 * ROW_STRIPS * TILE_N + TILE_N + 1 {
                let a: Vec<f32> = (0..k_dim)
                    .map(|k| ((k * 7 + 3) % 13) as f32 * 0.17 - 0.7)
                    .collect();
                let b: Vec<f32> = (0..k_dim * n)
                    .map(|x| ((x * 11) % 23) as f32 * 0.09 - 1.0)
                    .collect();
                let start: Vec<f32> = (0..n).map(|j| (j % 5) as f32 * 0.3 - 0.6).collect();
                let mut scalar = start.clone();
                gemm_row_strips(&a, &b, n, &mut scalar, false);
                let mut simd = start.clone();
                gemm_row_strips(&a, &b, n, &mut simd, enabled());
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&scalar), bits(&simd), "k_dim = {k_dim}, n = {n}");
            }
        }
    }

    #[test]
    fn dot_i8_matches_scalar_on_all_tail_lengths() {
        for len in 0..64usize {
            let a: Vec<i8> = (0..len).map(|i| ((i * 37 + 11) % 255) as i8).collect();
            let b: Vec<i8> = (0..len).map(|i| ((i * 91 + 5) % 255) as i8).collect();
            assert_eq!(dot_i8(&a, &b), dot_i8_scalar(&a, &b), "len = {len}");
        }
    }

    #[test]
    fn dot_i8_x4_matches_four_single_dots_on_all_tail_lengths() {
        for len in 0..64usize {
            let rows_data: Vec<Vec<i8>> = (0..4)
                .map(|r| {
                    (0..len)
                        .map(|i| ((i * 37 + r * 13 + 11) % 255) as i8)
                        .collect()
                })
                .collect();
            let rows: [&[i8]; 4] = std::array::from_fn(|r| rows_data[r].as_slice());
            let b: Vec<i8> = (0..len).map(|i| ((i * 91 + 5) % 255) as i8).collect();
            let expect: [i32; 4] = std::array::from_fn(|r| dot_i8_scalar(rows[r], &b));
            assert_eq!(dot_i8_x4(&rows, &b, false), expect, "scalar len = {len}");
            assert_eq!(dot_i8_x4(&rows, &b, enabled()), expect, "simd len = {len}");
        }
    }

    #[test]
    fn matvec_i8_matches_scalar_for_all_widths_and_the_wide_fallback() {
        // 0..40 sweeps the tail lengths; 1040 (> 64 chunks) exercises the
        // per-block fallback at dispatch.
        for cols in (0..40usize).chain([1024, 1040]) {
            for rows in [4usize, 8, 12] {
                let w: Vec<i8> = (0..rows * cols)
                    .map(|i| ((i * 23 + 7) % 255) as i8)
                    .collect();
                let h: Vec<i8> = (0..cols).map(|i| ((i * 91 + 5) % 255) as i8).collect();
                let mut scalar = vec![0i32; rows];
                matvec_i8(&w, cols, &h, &mut scalar, false);
                let expect: Vec<i32> = (0..rows)
                    .map(|r| dot_i8_scalar(&w[r * cols..(r + 1) * cols], &h))
                    .collect();
                assert_eq!(scalar, expect, "scalar rows={rows} cols={cols}");
                let mut simd = vec![0i32; rows];
                matvec_i8(&w, cols, &h, &mut simd, enabled());
                assert_eq!(simd, expect, "simd rows={rows} cols={cols}");
            }
        }
    }

    #[test]
    fn dot_i8_saturating_extremes() {
        let a = vec![i8::MIN; 100];
        let b = vec![i8::MIN; 100];
        assert_eq!(dot_i8(&a, &b), 100 * 128 * 128);
        let c = vec![i8::MAX; 100];
        assert_eq!(dot_i8(&a, &c), 100 * -128 * 127);
    }
}
