//! The AVX2+FMA and AVX-512F micro-kernels (`x86_64` only).
//!
//! **AVX2** is a 4×12 register tiling of the packed-sliver product:
//! twelve 256-bit accumulators (`4` rows × `3` vectors of four `f64`),
//! three B loads and four A broadcasts per `k` step, twelve fused
//! multiply-adds — all sixteen `ymm` registers accounted for.
//!
//! **AVX-512** is an 8×24 tiling: twenty-four 512-bit accumulators
//! (`8` rows × `3` vectors of eight `f64`), three B loads and eight A
//! broadcasts per `k` step, twenty-four fused multiply-adds — 28 of the
//! 32 `zmm` registers in flight. Twenty-four independent accumulator
//! chains are three times the FMA latency × port count of a two-port
//! core, so the kernel is throughput-bound rather than latency-bound,
//! and each A broadcast feeds three FMAs instead of one. The packing
//! buffers are 64-byte aligned ([`crate::aligned`]) so every sliver
//! starts on a zmm boundary.
//!
//! Both consume the same `k`-major sliver format the scalar kernel
//! does, at their own `mr`/`nr` (see [`crate::pack`]); slivers are
//! zero-padded at the edges, so no masked loads are ever needed. Each
//! accumulator element is one `acc = fma(a_k, b_k, acc)` chain in `k`
//! order, whatever the tile shape, so the tiling never changes a bit of
//! the result.
//!
//! Everything here is `unsafe fn` + `#[target_feature]`: callers reach
//! it through [`crate::kernel::Microkernel::run`], which guarantees the
//! features were detected at dispatch time. Inside, every pointer load
//! and store sits in its own `unsafe` block naming the assert that
//! bounds it.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use crate::kernel::{MR, MR_AVX512, NR_AVX2, NR_AVX512};
use std::arch::x86_64::*;

/// Vectors per accumulator row (`NR_AVX2 / 4` lanes of f64).
const NV: usize = NR_AVX2 / 4;

/// Vectors per AVX-512 accumulator row (`NR_AVX512 / 8` lanes of f64).
const NV512: usize = NR_AVX512 / 8;

/// Accumulate `a_sliver · b_sliver` into the `MR × NR_AVX2` tile at the
/// front of `acc` (element `(r, c)` at `r * NR_AVX2 + c`), with fused
/// multiply-adds.
///
/// # Safety
/// The caller must have verified `avx2` and `fma` are available on this
/// host (e.g. via [`crate::kernel::Microkernel::available`]). Slice
/// bounds are asserted.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn microkernel_avx2(kc: usize, a_sliver: &[f64], b_sliver: &[f64], acc: &mut [f64]) {
    assert!(a_sliver.len() >= kc * MR);
    assert!(b_sliver.len() >= kc * NR_AVX2);
    assert!(acc.len() >= MR * NR_AVX2);

    // Start from the caller's accumulator so the kernel keeps the same
    // accumulate-in semantics as the scalar path.
    let mut c: [[__m256d; NV]; MR] = [[_mm256_setzero_pd(); NV]; MR];
    for (r, row) in c.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            // SAFETY: r < MR and j < NV, so the four lanes at
            // r * NR_AVX2 + j * 4 end at most at MR * NR_AVX2, which
            // `acc.len() >= MR * NR_AVX2` (asserted above) covers.
            *v = unsafe { _mm256_loadu_pd(acc.as_ptr().add(r * NR_AVX2 + j * 4)) };
        }
    }

    let ap = a_sliver.as_ptr();
    let bp = b_sliver.as_ptr();
    for k in 0..kc {
        // SAFETY: k < kc, so the twelve f64 at k * NR_AVX2 .. (k + 1) *
        // NR_AVX2 lie inside `b_sliver.len() >= kc * NR_AVX2` (asserted
        // above).
        let (b0, b1, b2) = unsafe {
            (
                _mm256_loadu_pd(bp.add(k * NR_AVX2)),
                _mm256_loadu_pd(bp.add(k * NR_AVX2 + 4)),
                _mm256_loadu_pd(bp.add(k * NR_AVX2 + 8)),
            )
        };
        for (r, row) in c.iter_mut().enumerate() {
            // SAFETY: k < kc and r < MR, so k * MR + r < kc * MR, which
            // `a_sliver.len() >= kc * MR` (asserted above) covers.
            let av = _mm256_set1_pd(unsafe { *ap.add(k * MR + r) });
            row[0] = _mm256_fmadd_pd(av, b0, row[0]);
            row[1] = _mm256_fmadd_pd(av, b1, row[1]);
            row[2] = _mm256_fmadd_pd(av, b2, row[2]);
        }
    }

    for (r, row) in c.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            // SAFETY: same extent as the loads above — inside
            // `acc.len() >= MR * NR_AVX2` (asserted above).
            unsafe { _mm256_storeu_pd(acc.as_mut_ptr().add(r * NR_AVX2 + j * 4), *v) };
        }
    }
}

/// Accumulate `a_sliver · b_sliver` into the `MR_AVX512 × NR_AVX512`
/// tile at the front of `acc` (element `(r, c)` at `r * NR_AVX512 + c`),
/// with fused multiply-adds.
///
/// # Safety
/// The caller must have verified `avx512f` is available on this host
/// (e.g. via [`crate::kernel::Microkernel::available`]). Slice bounds
/// are asserted.
#[target_feature(enable = "avx512f")]
pub unsafe fn microkernel_avx512(kc: usize, a_sliver: &[f64], b_sliver: &[f64], acc: &mut [f64]) {
    assert!(a_sliver.len() >= kc * MR_AVX512);
    assert!(b_sliver.len() >= kc * NR_AVX512);
    assert!(acc.len() >= MR_AVX512 * NR_AVX512);

    // Start from the caller's accumulator so the kernel keeps the same
    // accumulate-in semantics as the scalar path.
    let mut c: [[__m512d; NV512]; MR_AVX512] = [[_mm512_setzero_pd(); NV512]; MR_AVX512];
    for (r, row) in c.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            // SAFETY: r < MR_AVX512 and j < NV512, so the eight lanes at
            // r * NR_AVX512 + j * 8 end at most at MR_AVX512 * NR_AVX512,
            // which `acc.len() >= MR_AVX512 * NR_AVX512` (asserted
            // above) covers.
            *v = unsafe { _mm512_loadu_pd(acc.as_ptr().add(r * NR_AVX512 + j * 8)) };
        }
    }

    let ap = a_sliver.as_ptr();
    let bp = b_sliver.as_ptr();
    for k in 0..kc {
        // SAFETY: k < kc, so the twenty-four f64 at k * NR_AVX512 ..
        // (k + 1) * NR_AVX512 lie inside `b_sliver.len() >= kc *
        // NR_AVX512` (asserted above).
        let (b0, b1, b2) = unsafe {
            (
                _mm512_loadu_pd(bp.add(k * NR_AVX512)),
                _mm512_loadu_pd(bp.add(k * NR_AVX512 + 8)),
                _mm512_loadu_pd(bp.add(k * NR_AVX512 + 16)),
            )
        };
        for (r, row) in c.iter_mut().enumerate() {
            // SAFETY: k < kc and r < MR_AVX512, so k * MR_AVX512 + r <
            // kc * MR_AVX512, which `a_sliver.len() >= kc * MR_AVX512`
            // (asserted above) covers.
            let av = _mm512_set1_pd(unsafe { *ap.add(k * MR_AVX512 + r) });
            row[0] = _mm512_fmadd_pd(av, b0, row[0]);
            row[1] = _mm512_fmadd_pd(av, b1, row[1]);
            row[2] = _mm512_fmadd_pd(av, b2, row[2]);
        }
    }

    for (r, row) in c.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            // SAFETY: same extent as the loads above — inside
            // `acc.len() >= MR_AVX512 * NR_AVX512` (asserted above).
            unsafe { _mm512_storeu_pd(acc.as_mut_ptr().add(r * NR_AVX512 + j * 8), *v) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Microkernel;

    #[test]
    fn avx2_matches_exact_integer_products() {
        // Integer-valued inputs: FMA and mul+add round identically, so
        // the comparison is exact.
        if !Microkernel::Avx2.available() {
            eprintln!("skipping: host lacks AVX2+FMA");
            return;
        }
        let kc = 7;
        let mut a = vec![0.0; kc * MR];
        let mut b = vec![0.0; kc * NR_AVX2];
        for k in 0..kc {
            for r in 0..MR {
                a[k * MR + r] = (r + 3 * k) as f64;
            }
            for c in 0..NR_AVX2 {
                b[k * NR_AVX2 + c] = (c as f64) - 2.0 * (k as f64);
            }
        }
        let mut acc = vec![1.0; MR * NR_AVX2];
        // SAFETY: avx2+fma detected above; the slices are sized exactly
        // to the asserted bounds.
        unsafe { microkernel_avx2(kc, &a, &b, &mut acc) };
        for r in 0..MR {
            for c in 0..NR_AVX2 {
                let mut expect = 1.0; // accumulate-in semantics
                for k in 0..kc {
                    expect += ((r + 3 * k) as f64) * ((c as f64) - 2.0 * (k as f64));
                }
                assert_eq!(acc[r * NR_AVX2 + c], expect, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn avx2_accumulates_across_calls() {
        if !Microkernel::Avx2.available() {
            eprintln!("skipping: host lacks AVX2+FMA");
            return;
        }
        let a = vec![1.0; MR];
        let b = vec![1.0; NR_AVX2];
        let mut acc = vec![0.0; MR * NR_AVX2];
        // SAFETY: avx2+fma detected above; kc = 1 and the slices are
        // sized exactly to the asserted bounds.
        unsafe {
            microkernel_avx2(1, &a, &b, &mut acc);
            microkernel_avx2(1, &a, &b, &mut acc);
        }
        assert!(acc.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn avx512_matches_exact_integer_products() {
        if !Microkernel::Avx512.available() {
            eprintln!("skipping: host lacks AVX-512F");
            return;
        }
        let kc = 9;
        let mut a = vec![0.0; kc * MR_AVX512];
        let mut b = vec![0.0; kc * NR_AVX512];
        for k in 0..kc {
            for r in 0..MR_AVX512 {
                a[k * MR_AVX512 + r] = (r + 2 * k) as f64 - 5.0;
            }
            for c in 0..NR_AVX512 {
                b[k * NR_AVX512 + c] = 3.0 * (c as f64) - (k as f64);
            }
        }
        let mut acc = vec![1.0; MR_AVX512 * NR_AVX512];
        // SAFETY: avx512f detected above; the slices are sized exactly
        // to the asserted bounds.
        unsafe { microkernel_avx512(kc, &a, &b, &mut acc) };
        for r in 0..MR_AVX512 {
            for c in 0..NR_AVX512 {
                let mut expect = 1.0; // accumulate-in semantics
                for k in 0..kc {
                    expect += ((r + 2 * k) as f64 - 5.0) * (3.0 * (c as f64) - (k as f64));
                }
                assert_eq!(acc[r * NR_AVX512 + c], expect, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn avx512_accumulates_across_calls() {
        if !Microkernel::Avx512.available() {
            eprintln!("skipping: host lacks AVX-512F");
            return;
        }
        let a = vec![1.0; MR_AVX512];
        let b = vec![1.0; NR_AVX512];
        let mut acc = vec![0.0; MR_AVX512 * NR_AVX512];
        // SAFETY: avx512f detected above; kc = 1 and the slices are
        // sized exactly to the asserted bounds.
        unsafe {
            microkernel_avx512(1, &a, &b, &mut acc);
            microkernel_avx512(1, &a, &b, &mut acc);
        }
        assert!(acc.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn avx512_keeps_every_column_vector_apart() {
        // Each of the three column vectors of a tile row sees its own B
        // lanes and its own accumulator: a distinct value per (r, c)
        // catches a swapped or reused vector.
        if !Microkernel::Avx512.available() {
            eprintln!("skipping: host lacks AVX-512F");
            return;
        }
        let a: Vec<f64> = (0..MR_AVX512).map(|r| (r + 1) as f64).collect();
        let b: Vec<f64> = (0..NR_AVX512).map(|c| (c * 100) as f64).collect();
        let mut acc: Vec<f64> = (0..MR_AVX512 * NR_AVX512).map(|i| i as f64).collect();
        // SAFETY: avx512f detected above; kc = 1 and the slices are
        // sized exactly to the asserted bounds.
        unsafe { microkernel_avx512(1, &a, &b, &mut acc) };
        for r in 0..MR_AVX512 {
            for c in 0..NR_AVX512 {
                let i = r * NR_AVX512 + c;
                assert_eq!(acc[i], i as f64 + ((r + 1) * c * 100) as f64, "r={r} c={c}");
            }
        }
    }
}
