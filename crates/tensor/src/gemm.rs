//! Rayon-parallel float GEMM kernels and the exact integer dot product.
//!
//! * [`gemm_f32`] and its transposed/accumulating forms — the float path
//!   used by training and by the FP32 "golden" outputs that quantized
//!   results are compared against. They use a cache-friendly i-k-j loop
//!   order and parallelize over rows of the output, which keeps every
//!   output element's reduction sequential and therefore bit-for-bit
//!   deterministic.
//! * [`dot_i16`] / [`dot_i16_i64`] — the exact integer dot product all
//!   quantized paths (DoReFa static, DRQ, ODQ predictor/executor) reduce
//!   to, one output at a time over pixel-major code rows.

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
/// `i32` — the one integer dot product every quantized conv reduces to.
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
