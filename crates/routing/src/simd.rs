//! Runtime-dispatched SIMD kernel for the frozen distance scan.
//!
//! [`best_neighbor_csr`](super::frozen)'s fast branch folds a packed
//! `(distance << 32) | label` minimum over a contiguous `u32` neighbour row — one
//! distance, one compare, one conditional move per neighbour, with no
//! order-dependence (an unsigned minimum is associative and commutative). That
//! makes it bit-for-bit vectorizable: this module computes ring/line metric
//! distances for two [`LANES`]-wide padding groups (eight neighbours) per
//! iteration with AVX2 `u32x8` intrinsics, maintaining per-lane
//! `(distance, label)` lexicographic minima — the same order as the packed
//! `u64` key — and reducing them to exactly the value the scalar fold produces.
//!
//! Dispatch is resolved **once** per [`KernelIsa::detect`] call site — a
//! [`RouteScratch`](crate::RouteScratch) or engine worker — never per hop:
//! `is_x86_feature_detected!("avx2")` plus the `FAULTLINE_FORCE_SCALAR`
//! environment override (any value other than `0` forces the scalar fold; CI runs
//! the whole suite both ways). Because the reduction is order-independent and
//! consumes no randomness, the SIMD and scalar kernels are contractually
//! bit-identical — same `RouteResult`, same RNG stream — which
//! `tests/frozen_equivalence.rs` pins across both greedy modes and all three
//! fault strategies.
//!
//! The kernel reads the **padded** CSR row
//! ([`FrozenRoutes::neighbors_padded`](faultline_overlay::FrozenRoutes::neighbors_padded)):
//! dense rows are lane-padded at freeze/compact time with [`PAD_SENTINEL`] labels
//! whose key is forced to the unsigned maximum (a key that can never win). The
//! vector loop consumes full eight-label groups; whatever is left — one padded
//! group of a dense row, or the short unpadded row of an overflow record — runs
//! through a scalar masked tail of at most `2 * LANES - 1` iterations, which is
//! also where sub-group rows land (scalar wins below one vector's width anyway).
//!
//! Soundness: the only way to obtain an AVX2-dispatching [`KernelIsa`] is
//! [`KernelIsa::detect`], which checks the CPU feature at runtime — the variant
//! cannot be forged, so the `unsafe` `#[target_feature]` calls below are always
//! backed by a positive cpuid test.

// The intrinsics below are the innermost hot loop of the frozen kernel: the
// zero-allocation contract of `frozen.rs` extends through this entire module.
// xlint: begin(no_alloc)

#![allow(unsafe_code)]

use faultline_overlay::SIMD_LANES;

/// Padding-group width of the vectorized distance scan, matching the overlay's
/// dense-row padding ([`faultline_overlay::SIMD_LANES`]); the AVX2 kernel
/// consumes two groups (eight `u32` labels) per iteration.
pub const LANES: usize = SIMD_LANES;

/// Shortest padded row worth dispatching to the vector scan: two full
/// eight-label steps. The production scalar fold is a branchless
/// compare-and-cmov per label, so the vector path's splat/reduce setup only
/// amortizes once at least two folds run against it (the `route_kernel` grid
/// shows the crossover between 10- and 18-label rows on both geometries);
/// below this [`best_neighbor_csr`](super::frozen) keeps the row on the scalar
/// path — bit-identical either way, just faster.
pub(crate) const MIN_SCAN_LEN: usize = 4 * SIMD_LANES;

/// Which implementation of the frozen distance scan a scratch dispatches to.
///
/// Obtain one from [`KernelIsa::detect`] (runtime cpuid + env override) or
/// [`KernelIsa::scalar`]; the inner kind is private so an AVX2-dispatching value
/// can never be constructed without the runtime feature check that makes the
/// `unsafe` intrinsic calls sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelIsa {
    kind: IsaKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IsaKind {
    /// Portable scalar fold — the reference implementation, and the only kind
    /// ever constructed on non-x86_64 targets.
    Scalar,
    /// AVX2 `u64x4` lanes; constructed only after `is_x86_feature_detected!`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl KernelIsa {
    /// The portable scalar kernel (always available; what
    /// `FAULTLINE_FORCE_SCALAR` and `RouteScratch::with_simd(false)` pin).
    #[must_use]
    pub const fn scalar() -> Self {
        Self {
            kind: IsaKind::Scalar,
        }
    }

    /// Detects the best available kernel once per process and caches the answer:
    /// AVX2 when the CPU supports it, unless the `FAULTLINE_FORCE_SCALAR`
    /// environment variable is set to anything other than `0`. The scalar
    /// fallback is the answer everywhere else (including non-x86_64 targets).
    #[must_use]
    pub fn detect() -> Self {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<KernelIsa> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if std::env::var_os("FAULTLINE_FORCE_SCALAR").is_some_and(|v| v != "0") {
                return Self::scalar();
            }
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") {
                return Self {
                    kind: IsaKind::Avx2,
                };
            }
            Self::scalar()
        })
    }

    /// Whether this kernel dispatches to vector instructions.
    #[must_use]
    pub fn is_simd(self) -> bool {
        self.kind != IsaKind::Scalar
    }

    /// Human/JSON-stable name of the dispatched instruction set
    /// (`BENCH_engine.json`'s `headline.simd_isa`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self.kind {
            IsaKind::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            IsaKind::Avx2 => "avx2",
        }
    }

    /// Packed keys reduced per iteration: two [`LANES`]-wide padding groups (the
    /// AVX2 path runs eight 32-bit lanes per step), 1 on the scalar kernel.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self.kind {
            IsaKind::Scalar => 1,
            #[cfg(target_arch = "x86_64")]
            IsaKind::Avx2 => 2 * LANES,
        }
    }

    /// Runs the vectorized key scan when this kernel is a SIMD one: the minimum
    /// of `limit` and every packed `(distance << 32) | label` key in `row`
    /// (ring metric over a space of `n` points when `ring`, line metric
    /// otherwise). Must not be called on the scalar kernel — the caller's
    /// scalar fold is the implementation then.
    ///
    /// `row` is the *padded* physical row: [`PAD_SENTINEL`] labels reduce to
    /// `u64::MAX` keys and can never win.
    #[inline(always)]
    #[must_use]
    pub(crate) fn scan(self, row: &[u32], ring: bool, n: u64, target: u64, limit: u64) -> u64 {
        match self.kind {
            // The scalar kernel never calls in here; `best_neighbor_csr` keeps
            // its original fold (over the trimmed row) as the fallback.
            IsaKind::Scalar => unreachable!("scalar kernels fold in best_neighbor_csr"),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the Avx2 kind only comes from `KernelIsa::detect` after a
            // positive `is_x86_feature_detected!("avx2")` on this very process,
            // so the target features the callees enable are present.
            IsaKind::Avx2 => unsafe {
                if ring {
                    avx2::best_key_ring(row, n, target, limit)
                } else {
                    avx2::best_key_line(row, target, limit)
                }
            },
        }
    }
}

/// Asks the CPU to start loading `row` — its first and last cache line, which
/// covers every row of up to 16 labels wherever it is aligned — so that a later
/// scan of it finds the row in cache. A hint only: it reads no data, changes no
/// result, and compiles to nothing off x86_64.
#[inline(always)]
pub(crate) fn prefetch_row(row: &[u32]) {
    #[cfg(target_arch = "x86_64")]
    if let (Some(first), Some(last)) = (row.first(), row.last()) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint that never faults or reads data; both
        // pointers point into the live borrowed slice `row`, and SSE (which
        // provides the instruction) is part of the x86_64 baseline.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(core::ptr::from_ref(first).cast());
            _mm_prefetch::<_MM_HINT_T0>(core::ptr::from_ref(last).cast());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 lane implementations. Distance arithmetic stays in **32-bit**
    //! lanes — eight neighbours per `__m256i`, every op single-cycle — because
    //! both halves of the packed key fit `u32`: labels are `u32` by
    //! construction (the space has at most `u32::MAX` points, `PAD_SENTINEL`
    //! is reserved), ring distances are at most `n/2 < u32::MAX`, and line
    //! distances at most `n - 1 < u32::MAX`. Each chunk's distances are then
    //! interleaved with their labels (`unpacklo/hi_epi32`) into packed
    //! `(distance << 32) | label` keys — the very keys the scalar fold
    //! compares — and reduced with a `u64` lane-wise minimum into two
    //! interleaved accumulators, so the running-minimum dependency chain stays
    //! short. AVX2 has no unsigned 64-bit compare, so keys live in the
    //! sign-flipped domain (distance's top bit pre-flipped while still 32-bit)
    //! where signed `_mm256_cmpgt_epi64` computes unsigned order.

    use super::LANES;
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_blendv_epi8, _mm256_castsi256_si128,
        _mm256_cmpeq_epi32, _mm256_cmpgt_epi32, _mm256_cmpgt_epi64, _mm256_extracti128_si256,
        _mm256_loadu_si256, _mm256_max_epu32, _mm256_min_epu32, _mm256_or_si256, _mm256_set1_epi32,
        _mm256_set1_epi64x, _mm256_sub_epi32, _mm256_unpackhi_epi32, _mm256_unpacklo_epi32,
        _mm256_xor_si256, _mm_blendv_epi8, _mm_cmpgt_epi64, _mm_cvtsi128_si64, _mm_unpackhi_epi64,
    };
    use faultline_overlay::PAD_SENTINEL;

    /// Labels reduced per vector iteration: two padding groups.
    const STEP: usize = 2 * LANES;

    /// XOR mask flipping a `u32`'s sign bit. Applied to the 32-bit distance
    /// half it flips bit 63 of the packed key, mapping unsigned key order onto
    /// the signed order `_mm256_cmpgt_epi64` sees.
    const SIGN_FLIP: u32 = 1 << 31;

    /// Running minima over sign-flipped packed keys: two `u64x4` accumulators
    /// (one per unpack half) so consecutive chunks overlap instead of
    /// serialising on a single compare-blend chain.
    struct Acc(__m256i, __m256i);

    impl Acc {
        /// Seeds every lane with `limit`'s sign-flipped key.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn seed(limit: u64) -> Self {
            let seed = _mm256_set1_epi64x((limit ^ (u64::from(SIGN_FLIP) << 32)) as i64);
            Self(seed, seed)
        }

        /// Folds one eight-label chunk into the running minima.
        ///
        /// `dist` holds raw metric distances, `labels` the raw labels. A
        /// sentinel lane (`label == PAD_SENTINEL`, i.e. all ones) has its
        /// distance forced to `u32::MAX`, which no real lane can reach, so
        /// padding never wins the strict compare.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn fold8(&mut self, dist: __m256i, labels: __m256i, sign: __m256i) {
            let is_pad = _mm256_cmpeq_epi32(labels, _mm256_cmpeq_epi32(labels, labels));
            let dist_f = _mm256_xor_si256(_mm256_or_si256(dist, is_pad), sign);
            // Interleave into (dist_f << 32) | label u64 lanes = the packed
            // key with bit 63 pre-flipped; strict greater-than keeps the
            // incumbent on ties, exactly like the scalar `min` fold.
            let lo = _mm256_unpacklo_epi32(labels, dist_f);
            let hi = _mm256_unpackhi_epi32(labels, dist_f);
            self.0 = _mm256_blendv_epi8(self.0, lo, _mm256_cmpgt_epi64(self.0, lo));
            self.1 = _mm256_blendv_epi8(self.1, hi, _mm256_cmpgt_epi64(self.1, hi));
        }

        /// Collapses the eight lane minima back into one packed `u64` key,
        /// entirely in registers: accumulator pair -> 4 lanes -> 2 -> 1.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn reduce(self) -> u64 {
            let quad = _mm256_blendv_epi8(self.0, self.1, _mm256_cmpgt_epi64(self.0, self.1));
            let lo = _mm256_castsi256_si128(quad);
            let hi = _mm256_extracti128_si256(quad, 1);
            let pair = _mm_blendv_epi8(lo, hi, _mm_cmpgt_epi64(lo, hi));
            let swapped = _mm_unpackhi_epi64(pair, pair);
            let one = _mm_blendv_epi8(pair, swapped, _mm_cmpgt_epi64(pair, swapped));
            (_mm_cvtsi128_si64(one) as u64) ^ (u64::from(SIGN_FLIP) << 32)
        }
    }

    /// Folds the first eight labels of `chunk` under the **ring** metric
    /// (shorter arc on a ring of `n_v` points).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn ring_fold(
        best: &mut Acc,
        chunk: &[u32],
        sign: __m256i,
        n_v: __m256i,
        target_v: __m256i,
        target_f: __m256i,
    ) {
        debug_assert!(chunk.len() >= STEP);
        // SAFETY: the assert above — at least eight live u32s (32 bytes, one
        // __m256i); the load is the unaligned variant.
        let labels = unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) };
        // Clockwise arc label -> target: (target - label) mod 2^32, plus n on
        // the lanes where label > target (unsigned, via the sign-flipped
        // domain). Exact because the true arc is in [0, n) and n fits u32.
        let wraps = _mm256_cmpgt_epi32(_mm256_xor_si256(labels, sign), target_f);
        let t = _mm256_sub_epi32(target_v, labels);
        let cw = _mm256_add_epi32(t, _mm256_and_si256(wraps, n_v));
        // Shorter arc: unsigned min(cw, n - cw), one instruction each way.
        let dist = _mm256_min_epu32(cw, _mm256_sub_epi32(n_v, cw));
        best.fold8(dist, labels, sign);
    }

    /// Folds the first eight labels of `chunk` under the **line** metric
    /// (absolute difference).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn line_fold(best: &mut Acc, chunk: &[u32], sign: __m256i, target_v: __m256i) {
        debug_assert!(chunk.len() >= STEP);
        // SAFETY: the assert above — at least eight live u32s (32 bytes, one
        // __m256i); the load is the unaligned variant.
        let labels = unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) };
        // |label - target| = max(a, b) - min(a, b), exact in u32.
        let dist = _mm256_sub_epi32(
            _mm256_max_epu32(labels, target_v),
            _mm256_min_epu32(labels, target_v),
        );
        best.fold8(dist, labels, sign);
    }

    /// `min(limit, packed keys of row)` under the **ring** metric (shorter arc
    /// on a ring of `n` points).
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    // SAFETY: `#[target_feature]` makes this unsafe-to-call; the body only uses
    // AVX2 intrinsics, available under the caller's contract above.
    pub(super) unsafe fn best_key_ring(row: &[u32], n: u64, target: u64, limit: u64) -> u64 {
        debug_assert!(n <= u64::from(u32::MAX), "labels are u32; so is the space");
        let sign = _mm256_set1_epi32(SIGN_FLIP as i32);
        let n_v = _mm256_set1_epi32(n as u32 as i32);
        let target_v = _mm256_set1_epi32(target as u32 as i32);
        let target_f = _mm256_xor_si256(target_v, sign);
        let mut best = Acc::seed(limit);
        let len = row.len();
        let mut start = 0;
        while start + STEP <= len {
            ring_fold(&mut best, &row[start..], sign, n_v, target_v, target_f);
            start += STEP;
        }
        if start < len && len >= STEP {
            // Sub-step remainder of a row that filled at least one chunk: fold
            // the row's *last* eight labels instead of a scalar tail. The
            // window overlaps labels the loop already folded — harmless,
            // because a minimum is idempotent.
            ring_fold(&mut best, &row[len - STEP..], sign, n_v, target_v, target_f);
            start = len;
        }
        let mut key = best.reduce();
        // Scalar masked tail: only rows shorter than one vector step get here
        // (direct `scan` calls — `best_neighbor_csr` keeps those scalar).
        for &label in &row[start..] {
            if label == PAD_SENTINEL {
                continue;
            }
            let label = u64::from(label);
            let cw = if target >= label {
                target - label
            } else {
                n - (label - target)
            };
            key = key.min((cw.min(n - cw) << 32) | label);
        }
        key
    }

    /// `min(limit, packed keys of row)` under the **line** metric (absolute
    /// difference).
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    // SAFETY: `#[target_feature]` makes this unsafe-to-call; the body only uses
    // AVX2 intrinsics, available under the caller's contract above.
    pub(super) unsafe fn best_key_line(row: &[u32], target: u64, limit: u64) -> u64 {
        debug_assert!(target <= u64::from(u32::MAX), "labels are u32");
        let sign = _mm256_set1_epi32(SIGN_FLIP as i32);
        let target_v = _mm256_set1_epi32(target as u32 as i32);
        let mut best = Acc::seed(limit);
        let len = row.len();
        let mut start = 0;
        while start + STEP <= len {
            line_fold(&mut best, &row[start..], sign, target_v);
            start += STEP;
        }
        if start < len && len >= STEP {
            // Overlapping final window; see `best_key_ring`.
            line_fold(&mut best, &row[len - STEP..], sign, target_v);
            start = len;
        }
        let mut key = best.reduce();
        for &label in &row[start..] {
            if label == PAD_SENTINEL {
                continue;
            }
            let label = u64::from(label);
            key = key.min((label.abs_diff(target) << 32) | label);
        }
        key
    }
}

// xlint: end(no_alloc)

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference fold the AVX2 lanes must reproduce bit for bit.
    fn scalar_best(row: &[u32], ring: bool, n: u64, target: u64, limit: u64) -> u64 {
        let mut best = limit;
        for &label in row {
            if label == faultline_overlay::PAD_SENTINEL {
                continue;
            }
            let label = u64::from(label);
            let dist = if ring {
                let cw = if target >= label {
                    target - label
                } else {
                    n - (label - target)
                };
                cw.min(n - cw)
            } else {
                label.abs_diff(target)
            };
            best = best.min((dist << 32) | label);
        }
        best
    }

    #[test]
    fn detect_is_stable_and_consistent() {
        let a = KernelIsa::detect();
        assert_eq!(a, KernelIsa::detect(), "detection is memoized");
        assert_eq!(a.is_simd(), a.lanes() > 1);
        assert_eq!(KernelIsa::scalar().lanes(), 1);
        assert_eq!(KernelIsa::scalar().label(), "scalar");
        assert!(!KernelIsa::scalar().is_simd());
    }

    #[test]
    fn simd_scan_matches_the_scalar_fold_on_exhaustive_row_shapes() {
        let isa = KernelIsa::detect();
        if !isa.is_simd() {
            return; // covered by the forced-scalar CI lane; nothing to compare
        }
        // Every row length 0..=4*LANES+3, with and without sentinel padding,
        // near-wrap labels, extreme distances (keys with bit 63 set), and limits
        // both permissive and already-optimal.
        let n = u64::from(u32::MAX) - 1;
        for ring in [false, true] {
            for len in 0..=4 * LANES + 3 {
                let mut row: Vec<u32> = (0..len)
                    .map(|i| (i as u32).wrapping_mul(0x9E37_79B9) % (n as u32 - 1))
                    .collect();
                for target in [0u64, 1, n / 2, n - 1] {
                    for limit in [u64::MAX, n << 32, 1 << 32, 0] {
                        let want = scalar_best(&row, ring, n, target, limit);
                        let got = isa.scan(&row, ring, n, target, limit);
                        assert_eq!(got, want, "len={len} ring={ring} target={target}");
                    }
                }
                // Lane-padded variant: sentinels must never win.
                let padded_len = len.div_ceil(LANES) * LANES;
                row.resize(padded_len, faultline_overlay::PAD_SENTINEL);
                let want = scalar_best(&row, ring, n, 3, u64::MAX);
                assert_eq!(isa.scan(&row, ring, n, 3, u64::MAX), want, "padded {len}");
            }
        }
    }
}
