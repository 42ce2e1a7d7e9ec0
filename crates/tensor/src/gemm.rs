//! Rayon-parallel float GEMM kernels and the one integer kernel.
//!
//! * [`gemm_f32`] and its transposed/accumulating forms — the float path
//!   used by training and by the FP32 "golden" outputs that quantized
//!   results are compared against. They use a cache-friendly i-k-j loop
//!   order and parallelize over rows of the output, which keeps every
//!   output element's reduction sequential and therefore bit-for-bit
//!   deterministic.
//! * [`Kernel`] — the integer kernel every quantized conv with
//!   `a_bits + w_bits ≤ 16` runs on: static INT-k, both DRQ precision
//!   paths, and the ODQ predictor ([`Kernel::products`], which reads the
//!   high bit plane of full codes by shifting in-register) and executor
//!   ([`Kernel::dot`], one sensitive output at a time). Its operands are
//!   [padded code rows](Rows): each row is `col_len` codes then zeros up to
//!   a multiple of [`ROW_ALIGN`] = 16, the layout the conv workspace lowers
//!   activations into and a layer plan stores its weights in.
//!   [`Kernel::products`] computes 2 pixel rows × 4 filter rows at a time;
//!   [`Kernel::row_sums`] gives the receptive sums `Σ a` and `Σ a_H` from
//!   the same rows.
//! * [`dot_i16`] / [`dot_i16_i64`] — the exact per-pair dot products. The
//!   first is the portable body of the kernel and the reference the other
//!   bodies are tested against; the second serves wide static schemes
//!   (`a_bits + w_bits > 16`), which no kernel body covers.
//!
//! **Bodies and dispatch.** The kernel has two bodies: *portable* (per-pair
//! [`dot_i16`], which vectorizes on the baseline x86-64 target) and *avx2*
//! (`_mm256_madd_epi16` tiles). [`Kernel::detected`] picks the fastest one
//! the CPU supports, once per process, with `is_x86_feature_detected!`;
//! there is no option to choose one. Tests and the conformance runner pass
//! a body explicitly (the drivers' `…_on` forms) to check each one.
//! Integer sums are exact in any order, so every body gives bit-identical
//! results.
//!
//! **`unsafe`.** The AVX2 body is the only `unsafe` code in the
//! workspace's crates. It is confined to the private `avx2` module below,
//! each block carries a `SAFETY` comment, and a [`Kernel`] naming it can
//! only be obtained after the CPU feature was detected.

use rayon::prelude::*;

/// `C = A * B` for row-major `A: [m, k]`, `B: [k, n]`, `C: [m, n]` (f32).
///
/// # Panics
/// Panics if slice lengths do not match the given dimensions.
pub fn gemm_f32(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");

    c.par_chunks_mut(n).enumerate().for_each(|(i, crow)| {
        crow.fill(0.0);
        let arow = &a[i * k..(i + 1) * k];
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj += aik * bj;
            }
        }
    });
}

/// `C += A * B` variant of [`gemm_f32`] (accumulating into `C`).
pub fn gemm_f32_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");

    c.par_chunks_mut(n).enumerate().for_each(|(i, crow)| {
        let arow = &a[i * k..(i + 1) * k];
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj += aik * bj;
            }
        }
    });
}

/// `C = Aᵀ * B` for row-major `A: [k, m]`, `B: [k, n]`, `C: [m, n]` (f32).
///
/// Used by the convolution backward pass (`dCol = Wᵀ · dOut`).
pub fn gemm_f32_at(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");

    c.par_chunks_mut(n).enumerate().for_each(|(i, crow)| {
        crow.fill(0.0);
        for kk in 0..k {
            let aik = a[kk * m + i];
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj += aik * bj;
            }
        }
    });
}

/// `C = A * Bᵀ` for row-major `A: [m, k]`, `B: [n, k]`, `C: [m, n]` (f32).
///
/// Used by the convolution backward pass (`dW = dOut · Colᵀ`).
pub fn gemm_f32_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), n * k, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");

    c.par_chunks_mut(n).enumerate().for_each(|(i, crow)| {
        let arow = &a[i * k..(i + 1) * k];
        for (j, cj) in crow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *cj = acc;
        }
    });
}

/// Exact `Σ a·b` over two equal-length `i16` code rows, accumulated in
/// `i32`: the portable kernel body's per-pair product, and the reference
/// every other body is tested against.
///
/// Sixteen independent lane accumulators let the widening multiply-adds
/// vectorize on the baseline target; integer addition is associative, so
/// the order is immaterial. The caller guarantees the sum fits `i32`
/// (operands of `a_bits + w_bits ≤ 16` over up to 2^14 taps); wider
/// operands use [`dot_i16_i64`]. `#[inline]` because the release profile
/// has no LTO: callers in other crates must get the code generation a
/// local call would.
#[inline]
pub fn dot_i16(a: &[i16], b: &[i16]) -> i32 {
    let (ca, cb) = (a.chunks_exact(16), b.chunks_exact(16));
    let tail: i32 =
        ca.remainder().iter().zip(cb.remainder()).map(|(&x, &y)| x as i32 * y as i32).sum();
    let mut acc = [0i32; 16];
    for (x, y) in ca.zip(cb) {
        for ((s, &x), &y) in acc.iter_mut().zip(x).zip(y) {
            *s += x as i32 * y as i32;
        }
    }
    acc.iter().sum::<i32>() + tail
}

/// [`dot_i16`] over `a >> shr` (arithmetic): the portable body's
/// predictor product, which reads the high bit plane of full codes.
fn dot_i16_shr(a: &[i16], b: &[i16], shr: u32) -> i32 {
    if shr == 0 {
        return dot_i16(a, b);
    }
    let mut acc = [0i32; 16];
    for (x, y) in a.chunks_exact(16).zip(b.chunks_exact(16)) {
        for ((s, &x), &y) in acc.iter_mut().zip(x).zip(y) {
            *s += (x >> shr) as i32 * y as i32;
        }
    }
    acc.iter().sum()
}

/// [`dot_i16`] accumulating in `i64`, for wide static baselines
/// (`a_bits + w_bits > 16`: 15- and 16-bit products over deep reductions
/// overflow `i32`).
#[inline]
pub fn dot_i16_i64(a: &[i16], b: &[i16]) -> i64 {
    let (ca, cb) = (a.chunks_exact(16), b.chunks_exact(16));
    let tail: i64 =
        ca.remainder().iter().zip(cb.remainder()).map(|(&x, &y)| x as i64 * y as i64).sum();
    let mut acc = [0i64; 16];
    for (x, y) in ca.zip(cb) {
        for ((s, &x), &y) in acc.iter_mut().zip(x).zip(y) {
            *s += x as i64 * y as i64;
        }
    }
    acc.iter().sum::<i64>() + tail
}

/// Granule of a padded code row's stride, in elements: one 256-bit
/// register of `i16` lanes.
pub const ROW_ALIGN: usize = 16;

/// The stride a `len`-element code row is stored at: `len` rounded up to
/// [`ROW_ALIGN`]. The elements past `len` are zero, so they add nothing to
/// any product or sum.
pub fn padded_stride(len: usize) -> usize {
    len.div_ceil(ROW_ALIGN) * ROW_ALIGN
}

/// A borrowed matrix of code rows at a padded stride: row `i` is
/// `data[i * stride..][..stride]`, its first `len` elements the codes and
/// the rest zero.
#[derive(Clone, Copy, Debug)]
pub struct Rows<'a> {
    data: &'a [i16],
    stride: usize,
}

impl<'a> Rows<'a> {
    /// View `data` as rows of `stride` elements.
    ///
    /// # Panics
    /// Panics if `stride` is not a positive multiple of [`ROW_ALIGN`] or
    /// `data` is not a whole number of rows.
    pub(crate) fn new(data: &'a [i16], stride: usize) -> Self {
        assert!(stride > 0 && stride.is_multiple_of(ROW_ALIGN), "row stride {stride} not padded");
        assert_eq!(data.len() % stride, 0, "code rows not a whole number of strides");
        Self { data, stride }
    }

    /// Number of rows.
    pub fn count(&self) -> usize {
        self.data.len() / self.stride
    }

    /// The row stride in elements.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i`, tail included.
    pub fn row(&self, i: usize) -> &'a [i16] {
        &self.data[i * self.stride..][..self.stride]
    }
}

/// An owned matrix of code rows at a padded stride (see [`Rows`]): how a
/// layer plan stores each weight matrix a kernel reads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PaddedRows {
    data: Vec<i16>,
    stride: usize,
}

impl PaddedRows {
    /// Padded rows of conv filters `[F, C, K, K]` in the lowering's tap
    /// order, *(kernel row, kernel column, channel)* (see
    /// [`im2row_into`](crate::im2col::im2row_into)), so that a filter's row
    /// lines up with every lowered pixel row tap for tap.
    ///
    /// # Panics
    /// Panics if `filters` is not a whole number of `C · K · K` filters.
    pub fn from_filters(filters: &[i16], in_channels: usize, kernel: usize) -> Self {
        let (c, k) = (in_channels, kernel);
        let len = c * k * k;
        assert!(
            len > 0 && filters.len().is_multiple_of(len),
            "weights not a whole number of filters"
        );
        let stride = padded_stride(len);
        let mut data = vec![0i16; filters.len() / len * stride];
        for (dst, src) in data.chunks_exact_mut(stride).zip(filters.chunks_exact(len)) {
            for (t, d) in dst[..len].iter_mut().enumerate() {
                let (ki, kj, ci) = (t / (k * c), t / c % k, t % c);
                *d = src[(ci * k + ki) * k + kj];
            }
        }
        Self { data, stride }
    }

    /// Borrow as [`Rows`].
    pub fn view(&self) -> Rows<'_> {
        Rows::new(&self.data, self.stride)
    }
}

/// One body of the integer kernel: `i16` code rows against `i16` code rows
/// into exact `i32` sums, for `a_bits + w_bits ≤ 16`.
///
/// Every body computes bit-identical results; they differ only in the
/// instructions they use. [`Kernel::detected`] picks the fastest body the
/// CPU supports once per process. A kernel value that names a SIMD body can
/// only be obtained after that body's CPU feature was detected, so every
/// method is safe to call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel(Body);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Body {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The portable body: per-pair [`dot_i16`], on any CPU.
    pub const PORTABLE: Kernel = Kernel(Body::Portable);

    /// The AVX2 body (`_mm256_madd_epi16` tiles), if this CPU has AVX2.
    fn avx2() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Some(Kernel(Body::Avx2));
        }
        None
    }

    /// The body the drivers run: the fastest one this CPU supports,
    /// detected once per process.
    pub fn detected() -> Kernel {
        static DETECTED: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| Self::avx2().unwrap_or(Self::PORTABLE))
    }

    /// Every body this CPU supports, portable first.
    pub fn supported() -> Vec<Kernel> {
        std::iter::once(Self::PORTABLE).chain(Self::avx2()).collect()
    }

    /// Short name of the body (`"portable"`, `"avx2"`).
    pub fn name(self) -> &'static str {
        match self.0 {
            Body::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => "avx2",
        }
    }

    /// Dense products `out[f · a.count() + p] = Σ (a_p >> shr) · w_f` for
    /// every activation row `p` and weight row `f` (filter-major, the layout
    /// of an image's conv output). `shr` selects the high bit plane of the
    /// activation codes in-register (0 reads them whole).
    ///
    /// # Panics
    /// Panics if the strides differ, `out` is not `a.count() · w.count()`
    /// long, or `shr > 15`.
    pub fn products(self, a: Rows<'_>, w: Rows<'_>, shr: u32, out: &mut [i32]) {
        assert_eq!(a.stride, w.stride, "activation and weight row strides differ");
        assert_eq!(out.len(), a.count() * w.count(), "product buffer length mismatch");
        assert!(shr < 16, "shift {shr} out of range");
        match self.0 {
            Body::Portable => {
                let np = a.count();
                for (f, o_f) in out.chunks_exact_mut(np.max(1)).enumerate() {
                    let w_f = w.row(f);
                    for (p, o) in o_f.iter_mut().enumerate() {
                        *o = dot_i16_shr(a.row(p), w_f, shr);
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Body::Avx2` kernel exists only after
            // `is_x86_feature_detected!("avx2")` returned true, and the
            // asserts above bound every row the body reads.
            Body::Avx2 => unsafe { avx2::products(a, w, shr, out) },
        }
    }

    /// Receptive sums of every row: `sums[p] = Σ a_p`, and, when
    /// `high_sums` is given, `high_sums[p] = Σ (a_p >> shr)`.
    ///
    /// # Panics
    /// Panics if a buffer is not `a.count()` long or `shr > 15`.
    pub fn row_sums(self, a: Rows<'_>, shr: u32, sums: &mut [i32], high_sums: Option<&mut [i32]>) {
        assert_eq!(sums.len(), a.count(), "sum buffer length mismatch");
        assert!(shr < 16, "shift {shr} out of range");
        let mut high_sums = high_sums;
        if let Some(h) = &high_sums {
            assert_eq!(h.len(), a.count(), "high sum buffer length mismatch");
        }
        match self.0 {
            Body::Portable => {
                for (p, s) in sums.iter_mut().enumerate() {
                    let r = a.row(p);
                    *s = r.iter().map(|&x| x as i32).sum();
                    if let Some(h) = high_sums.as_deref_mut() {
                        h[p] = r.iter().map(|&x| (x >> shr) as i32).sum();
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `products`: AVX2 was detected, and the asserts
            // above bound every row the body reads and every slot it writes.
            Body::Avx2 => unsafe { avx2::row_sums(a, shr, sums, high_sums) },
        }
    }

    /// One exact product `Σ a·w` of two rows of the same padded stride (the
    /// ODQ executor's per-output work).
    ///
    /// # Panics
    /// Panics if the lengths differ or are not a multiple of [`ROW_ALIGN`].
    #[inline]
    pub fn dot(self, a: &[i16], w: &[i16]) -> i32 {
        assert!(a.len() == w.len() && a.len().is_multiple_of(ROW_ALIGN), "rows not padded alike");
        match self.0 {
            Body::Portable => dot_i16(a, w),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 was detected, and the assert above bounds the
            // reads to both slices.
            Body::Avx2 => unsafe { avx2::dot(a, w) },
        }
    }
}

/// The AVX2 body. `_mm256_madd_epi16` multiplies sixteen `i16` pairs and
/// adds adjacent products into eight `i32` lanes. No lane sum can wrap
/// before the total would: every product fits `a_bits + w_bits ≤ 16` bits,
/// and `i32` lane addition is exact modulo 2^32, so any total that fits
/// `i32` comes out exact whatever the order.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::Rows;

    /// Load sixteen codes from `p`, shifted right by `cnt` when `SHIFT`.
    ///
    /// # Safety
    /// AVX2 must be available and `p..p + 16` readable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load<const SHIFT: bool>(p: *const i16, cnt: __m128i) -> __m256i {
        // SAFETY: the caller guarantees sixteen readable elements;
        // `loadu` has no alignment requirement.
        let v = unsafe { _mm256_loadu_si256(p.cast()) };
        if SHIFT {
            _mm256_sra_epi16(v, cnt)
        } else {
            v
        }
    }

    /// `[Σ a, Σ b, Σ c, Σ d]` over the eight lanes of each.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum4(a: __m256i, b: __m256i, c: __m256i, d: __m256i) -> [i32; 4] {
        let abcd = _mm256_hadd_epi32(_mm256_hadd_epi32(a, b), _mm256_hadd_epi32(c, d));
        let s = _mm_add_epi32(_mm256_castsi256_si128(abcd), _mm256_extracti128_si256(abcd, 1));
        let mut out = [0i32; 4];
        // SAFETY: `out` is sixteen writable bytes; `storeu` is unaligned.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), s) };
        out
    }

    /// The sum of the eight lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum(v: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b10_11_00_01));
        _mm_cvtsi128_si32(s)
    }

    /// A `P`-pixel × 4-filter tile over `stride` taps: `out[i][j] =
    /// Σ (a_i >> cnt) · w_j`.
    ///
    /// # Safety
    /// AVX2 must be available and every pointer readable for `stride`
    /// elements, `stride` a multiple of 16.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const P: usize, const SHIFT: bool>(
        a: [*const i16; P],
        w: [*const i16; 4],
        stride: usize,
        cnt: __m128i,
    ) -> [[i32; 4]; P] {
        let mut acc = [[_mm256_setzero_si256(); 4]; P];
        let mut k = 0;
        while k < stride {
            // SAFETY: `k + 16 <= stride`, and the caller guarantees
            // `stride` readable elements behind every row pointer.
            let wv = unsafe {
                [
                    load::<false>(w[0].add(k), cnt),
                    load::<false>(w[1].add(k), cnt),
                    load::<false>(w[2].add(k), cnt),
                    load::<false>(w[3].add(k), cnt),
                ]
            };
            for (acc_i, &a_i) in acc.iter_mut().zip(&a) {
                // SAFETY: as for the weight rows above.
                let av = unsafe { load::<SHIFT>(a_i.add(k), cnt) };
                for (s, &wv) in acc_i.iter_mut().zip(&wv) {
                    *s = _mm256_add_epi32(*s, _mm256_madd_epi16(av, wv));
                }
            }
            k += 16;
        }
        acc.map(|[c0, c1, c2, c3]| hsum4(c0, c1, c2, c3))
    }

    /// [`super::Kernel::products`] on 2 × 4 tiles, with a 1 × 4 tile for an
    /// odd last pixel and per-pair products for the filters past the last
    /// multiple of four.
    ///
    /// # Safety
    /// AVX2 must be available; the caller has checked the strides and the
    /// length of `out`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn products(a: Rows<'_>, w: Rows<'_>, shr: u32, out: &mut [i32]) {
        if shr == 0 {
            // SAFETY: forwarded from this function's contract.
            unsafe { products_with::<false>(a, w, shr, out) }
        } else {
            // SAFETY: forwarded from this function's contract.
            unsafe { products_with::<true>(a, w, shr, out) }
        }
    }

    /// # Safety
    /// As for [`products`].
    #[target_feature(enable = "avx2")]
    unsafe fn products_with<const SHIFT: bool>(
        a: Rows<'_>,
        w: Rows<'_>,
        shr: u32,
        out: &mut [i32],
    ) {
        let (np, nf, stride) = (a.count(), w.count(), a.stride());
        let cnt = _mm_cvtsi32_si128(shr as i32);
        let row = |r: &Rows<'_>, i: usize| r.row(i).as_ptr();
        let mut f = 0;
        while f + 4 <= nf {
            let wr = [row(&w, f), row(&w, f + 1), row(&w, f + 2), row(&w, f + 3)];
            let mut p = 0;
            while p + 2 <= np {
                // SAFETY: each pointer starts a whole row of `stride`
                // elements (a multiple of 16, checked by `Rows::new`).
                let t = unsafe { tile::<2, SHIFT>([row(&a, p), row(&a, p + 1)], wr, stride, cnt) };
                for (j, o) in out[f * np..].chunks_mut(np).take(4).enumerate() {
                    o[p] = t[0][j];
                    o[p + 1] = t[1][j];
                }
                p += 2;
            }
            if p < np {
                // SAFETY: as above.
                let t = unsafe { tile::<1, SHIFT>([row(&a, p)], wr, stride, cnt) };
                for (j, o) in out[f * np..].chunks_mut(np).take(4).enumerate() {
                    o[p] = t[0][j];
                }
            }
            f += 4;
        }
        for f in f..nf {
            let w_f = w.row(f);
            for (p, o) in out[f * np..][..np].iter_mut().enumerate() {
                // SAFETY: both rows are `stride` elements long.
                *o = unsafe { dot_with::<SHIFT>(a.row(p), w_f, cnt) };
            }
        }
    }

    /// # Safety
    /// AVX2 must be available; `a` and `w` have the same length, a
    /// multiple of 16.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_with<const SHIFT: bool>(a: &[i16], w: &[i16], cnt: __m128i) -> i32 {
        let (mut s0, mut s1) = (_mm256_setzero_si256(), _mm256_setzero_si256());
        let (pa, pw) = (a.as_ptr(), w.as_ptr());
        let mut k = 0;
        while k + 32 <= a.len() {
            // SAFETY: `k + 32 <= len` for both slices.
            unsafe {
                let (x0, y0) = (load::<SHIFT>(pa.add(k), cnt), load::<false>(pw.add(k), cnt));
                let (x1, y1) =
                    (load::<SHIFT>(pa.add(k + 16), cnt), load::<false>(pw.add(k + 16), cnt));
                s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(x0, y0));
                s1 = _mm256_add_epi32(s1, _mm256_madd_epi16(x1, y1));
            }
            k += 32;
        }
        if k < a.len() {
            // SAFETY: the length is a multiple of 16, so `k + 16 <= len`.
            unsafe {
                let (x, y) = (load::<SHIFT>(pa.add(k), cnt), load::<false>(pw.add(k), cnt));
                s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(x, y));
            }
        }
        hsum(_mm256_add_epi32(s0, s1))
    }

    /// [`super::Kernel::dot`].
    ///
    /// # Safety
    /// AVX2 must be available; the caller has checked the lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(a: &[i16], w: &[i16]) -> i32 {
        // SAFETY: forwarded from this function's contract.
        unsafe { dot_with::<false>(a, w, _mm_setzero_si128()) }
    }

    /// [`super::Kernel::row_sums`]: `madd` against ones sums adjacent
    /// pairs into `i32` lanes.
    ///
    /// # Safety
    /// AVX2 must be available; the caller has checked the buffer lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_sums(
        a: Rows<'_>,
        shr: u32,
        sums: &mut [i32],
        mut high_sums: Option<&mut [i32]>,
    ) {
        let ones = _mm256_set1_epi16(1);
        let cnt = _mm_cvtsi32_si128(shr as i32);
        for (p, s) in sums.iter_mut().enumerate() {
            let r = a.row(p).as_ptr();
            let (mut full, mut high) = (_mm256_setzero_si256(), _mm256_setzero_si256());
            let mut k = 0;
            while k < a.stride() {
                // SAFETY: `k + 16 <= stride`, the row's length.
                let v = unsafe { load::<false>(r.add(k), cnt) };
                full = _mm256_add_epi32(full, _mm256_madd_epi16(v, ones));
                high = _mm256_add_epi32(high, _mm256_madd_epi16(_mm256_sra_epi16(v, cnt), ones));
                k += 16;
            }
            *s = hsum(full);
            if let Some(h) = high_sums.as_deref_mut() {
                h[p] = hsum(high);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn seq(n: usize, mul: usize, add: usize, modv: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * mul + add) % modv) as f32 - (modv / 2) as f32).collect()
    }

    #[test]
    fn gemm_matches_naive() {
        let (m, k, n) = (7, 13, 9);
        let a = seq(m * k, 31, 7, 19);
        let b = seq(k * n, 17, 3, 23);
        let mut c = vec![0.0; m * n];
        gemm_f32(&a, &b, &mut c, m, k, n);
        assert_eq!(c, naive(&a, &b, m, k, n));
    }

    #[test]
    fn gemm_acc_accumulates() {
        let (m, k, n) = (3, 4, 5);
        let a = seq(m * k, 5, 1, 11);
        let b = seq(k * n, 7, 2, 13);
        let mut c = vec![1.0; m * n];
        gemm_f32_acc(&a, &b, &mut c, m, k, n);
        let expect: Vec<f32> = naive(&a, &b, m, k, n).iter().map(|x| x + 1.0).collect();
        assert_eq!(c, expect);
    }

    #[test]
    fn gemm_at_matches_naive_transpose() {
        let (m, k, n) = (4, 6, 5);
        let at = seq(k * m, 29, 5, 17); // A stored as [k, m]
        let b = seq(k * n, 13, 11, 19);
        let mut c = vec![0.0; m * n];
        gemm_f32_at(&at, &b, &mut c, m, k, n);
        // materialize A = transpose(at) and compare.
        let mut a = vec![0.0; m * k];
        for kk in 0..k {
            for i in 0..m {
                a[i * k + kk] = at[kk * m + i];
            }
        }
        assert_eq!(c, naive(&a, &b, m, k, n));
    }

    #[test]
    fn gemm_bt_matches_naive_transpose() {
        let (m, k, n) = (4, 6, 5);
        let a = seq(m * k, 29, 5, 17);
        let bt = seq(n * k, 13, 11, 19); // B stored as [n, k]
        let mut c = vec![0.0; m * n];
        gemm_f32_bt(&a, &bt, &mut c, m, k, n);
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        assert_eq!(c, naive(&a, &b, m, k, n));
    }

    #[test]
    fn dot_i16_matches_naive_across_tail_lengths() {
        for len in [0usize, 1, 15, 16, 17, 40] {
            let a: Vec<i16> = (0..len).map(|i| ((i * 7 + 3) % 31) as i16 - 15).collect();
            let b: Vec<i16> = (0..len).map(|i| ((i * 11 + 1) % 255) as i16).collect();
            let naive: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
            assert_eq!(dot_i16(&a, &b) as i64, naive, "len {len}");
            assert_eq!(dot_i16_i64(&a, &b), naive, "len {len}");
        }
    }

    #[test]
    fn dot_i16_i64_handles_wide_products() {
        // 16-bit × 16-bit products over a deep reduction overflow i32 but
        // must be exact in i64.
        let a = vec![30_000i16; 1000];
        let b = vec![30_000i16; 1000];
        assert_eq!(dot_i16_i64(&a, &b), 30_000i64 * 30_000 * 1000);
    }

    /// Deterministic codes in `[lo, lo + span)`.
    fn codes(n: usize, seed: u64, lo: i32, span: u32) -> Vec<i16> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (lo + ((s >> 33) as u32 % span) as i32) as i16
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Every body the CPU supports, forced explicitly, computes the
        /// products, the per-pair dot and the receptive sums exactly as
        /// per-pair `dot_i16` over the shifted codes does: any row length
        /// (so any zero tail), shifts 0 to 3, pixel and filter counts that
        /// leave partial 2 × 4 tiles, and signed weights.
        #[test]
        fn every_kernel_body_matches_per_pair_dot(
            len in 1usize..200,
            pixels in 1usize..12,
            filters in 1usize..10,
            shr in 0u32..=3,
            a_bits in 1u32..=8,
            seed in 0u64..1_000_000,
        ) {
            let w_bits = 16 - a_bits;
            // 1 × 1 "filters" of `len` channels: rows kept in order.
            let a = PaddedRows::from_filters(&codes(pixels * len, seed, 0, 1 << a_bits), len, 1);
            let lo = -(1i32 << (w_bits - 1));
            let w = PaddedRows::from_filters(&codes(filters * len, !seed, lo, 1 << w_bits), len, 1);
            let (a, w) = (a.view(), w.view());
            let shifted: Vec<Vec<i16>> =
                (0..pixels).map(|p| a.row(p).iter().map(|&x| x >> shr).collect()).collect();
            let mut want = vec![0i32; pixels * filters];
            for (f, o) in want.chunks_exact_mut(pixels).enumerate() {
                for (p, o) in o.iter_mut().enumerate() {
                    *o = dot_i16(&shifted[p], w.row(f));
                }
            }
            let sums: Vec<i32> =
                (0..pixels).map(|p| a.row(p).iter().map(|&x| x as i32).sum()).collect();
            let high: Vec<i32> = shifted.iter().map(|r| r.iter().map(|&x| x as i32).sum()).collect();
            for kernel in Kernel::supported() {
                let mut got = vec![i32::MIN; pixels * filters];
                kernel.products(a, w, shr, &mut got);
                proptest::prop_assert_eq!(&got, &want, "{} products", kernel.name());
                let (mut s, mut h) = (vec![0; pixels], vec![0; pixels]);
                kernel.row_sums(a, shr, &mut s, Some(&mut h));
                proptest::prop_assert_eq!((&s, &h), (&sums, &high), "{} sums", kernel.name());
                let dot = kernel.dot(a.row(0), w.row(filters - 1));
                proptest::prop_assert_eq!(dot, dot_i16(a.row(0), w.row(filters - 1)));
            }
        }
    }

    #[test]
    fn kernel_detection_is_stable_and_portable_always_runs() {
        let supported = Kernel::supported();
        assert_eq!(supported[0], Kernel::PORTABLE);
        assert!(supported.contains(&Kernel::detected()));
        assert_eq!(Kernel::detected(), Kernel::avx2().unwrap_or(Kernel::PORTABLE));
        assert_eq!(Kernel::PORTABLE.name(), "portable");
    }

    #[test]
    fn padded_rows_keep_codes_and_zero_tails() {
        let rows = PaddedRows::from_filters(&[1, 2, 3, 4, 5, 6], 3, 1);
        let v = rows.view();
        assert_eq!((v.count(), v.stride()), (2, 16));
        assert_eq!(&v.row(1)[..4], &[4, 5, 6, 0]);
        assert!(v.row(0)[3..].iter().all(|&x| x == 0));
        assert_eq!(padded_stride(16), 16);
        assert_eq!(padded_stride(17), 32);
        // A 2-channel 2 × 2 filter, stored [C, K, K], comes out in
        // (kernel row, kernel column, channel) order.
        let f = PaddedRows::from_filters(&[1, 2, 3, 4, 5, 6, 7, 8], 2, 2);
        assert_eq!(&f.view().row(0)[..9], &[1, 5, 2, 6, 3, 7, 4, 8, 0]);
    }

    #[test]
    #[should_panic(expected = "A length mismatch")]
    fn gemm_rejects_wrong_a_len() {
        let mut c = vec![0.0f32; 4];
        gemm_f32(&[1.0; 3], &[1.0; 4], &mut c, 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "C length mismatch")]
    fn gemm_rejects_wrong_c_len() {
        let mut c = vec![0.0f32; 3];
        gemm_f32(&[1.0; 4], &[1.0; 4], &mut c, 2, 2, 2);
    }

    #[test]
    fn gemm_degenerate_dims() {
        // 1x1x1
        let mut c = vec![0.0f32];
        gemm_f32(&[3.0], &[4.0], &mut c, 1, 1, 1);
        assert_eq!(c, vec![12.0]);
        // empty k: C must be zeroed
        let mut c2 = vec![9.0f32; 4];
        gemm_f32(&[], &[], &mut c2, 2, 0, 2);
        assert_eq!(c2, vec![0.0; 4]);
    }
}
