//! Differential tests: the AVX2+FMA and AVX-512 micro-kernels against
//! the portable scalar path, at both the micro-kernel level (randomized
//! `kc` and sliver contents) and the full blocked-gemm level (workspace
//! pinned to each kernel), plus edge tiles whose widths cross the 8-
//! and 16-column vector boundaries of the 8 × 24 AVX-512 tile. Each
//! kernel the host lacks is skipped with a note, not a failure.
//!
//! Tolerance notes: FMA contracts each multiply-add into one rounding,
//! so float results are *not* bitwise equal to mul-then-add. For
//! integer-valued inputs with small products every intermediate is
//! exact in both schemes, giving a bitwise-identical oracle; for float
//! inputs the comparison uses a tolerance scaled by the accumulation
//! length. The bitwise fused oracle lives in `summation_order.rs`.

#![cfg(target_arch = "x86_64")]

use srumma_dense::blocked::{blocked_gemm_ws, BlockSizes};
use srumma_dense::kernel::{Microkernel, ACC_LEN};
use srumma_dense::{GemmWorkspace, Matrix, Op, Rng};

/// The SIMD kernels this host can run, with a note for each it cannot.
fn simd_kernels() -> Vec<Microkernel> {
    [Microkernel::Avx2, Microkernel::Avx512]
        .into_iter()
        .filter(|k| {
            let ok = k.available();
            if !ok {
                eprintln!("skipping {}: host lacks the instructions", k.name());
            }
            ok
        })
        .collect()
}

/// Reference accumulation for an `mr × nr` tile, written as the
/// plainest possible triple loop (mul then add — no FMA contraction).
fn reference_tile(kernel: Microkernel, kc: usize, a: &[f64], b: &[f64], acc: &mut [f64]) {
    let (mr, nr) = (kernel.mr(), kernel.nr());
    for k in 0..kc {
        for r in 0..mr {
            for c in 0..nr {
                acc[r * nr + c] += a[k * mr + r] * b[k * nr + c];
            }
        }
    }
}

/// Random `kc` and slivers for `kernel`, entries drawn by `draw`.
fn random_slivers(
    kernel: Microkernel,
    rng: &mut Rng,
    max_kc: usize,
    mut draw: impl FnMut(&mut Rng) -> f64,
) -> (usize, Vec<f64>, Vec<f64>) {
    let kc = rng.range(1, max_kc);
    let a = (0..kc * kernel.mr()).map(|_| draw(rng)).collect();
    let b = (0..kc * kernel.nr()).map(|_| draw(rng)).collect();
    (kc, a, b)
}

/// Integer-valued slivers: FMA rounding equals mul+add rounding because
/// every product and partial sum is exactly representable — the
/// comparison is bitwise.
#[test]
fn microkernel_exact_on_integer_inputs() {
    for kernel in simd_kernels() {
        for case in 0..64u64 {
            let mut rng = Rng::new(0x51D1_FF01 + case);
            let (kc, a, b) = random_slivers(kernel, &mut rng, 40, |r| r.range(0, 32) as f64 - 16.0);
            let mut expect = vec![0.0; ACC_LEN];
            let mut got = vec![0.0; ACC_LEN];
            reference_tile(kernel, kc, &a, &b, &mut expect);
            kernel.run(kc, &a, &b, &mut got);
            assert_eq!(
                got,
                expect,
                "{} case {case} kc={kc}: integer tile not exact",
                kernel.name()
            );
        }
    }
}

/// Random float slivers: equal up to accumulation-order rounding. The
/// bound scales with `kc` (each of the kc partial sums contributes at
/// most one ulp-scale difference between the FMA and mul+add schemes).
#[test]
fn microkernel_tight_tolerance_on_float_inputs() {
    for kernel in simd_kernels() {
        for case in 0..64u64 {
            let mut rng = Rng::new(0x51D1_FF02 + case);
            let (kc, a, b) = random_slivers(kernel, &mut rng, 96, Rng::unit);
            // Start both accumulators from the same nonzero state to
            // cover the accumulate-in path.
            let mut expect = vec![0.25; ACC_LEN];
            let mut got = expect.clone();
            reference_tile(kernel, kc, &a, &b, &mut expect);
            kernel.run(kc, &a, &b, &mut got);
            let tol = 1e-15 * kc as f64 + 1e-14;
            for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                assert!(
                    (g - e).abs() <= tol,
                    "{} case {case} kc={kc} acc[{i}]: {g} vs {e} (tol {tol:e})",
                    kernel.name()
                );
            }
        }
    }
}

/// The micro-kernel writes exactly its `mr × nr` tile: the accumulator
/// past it is left alone.
#[test]
fn microkernel_leaves_the_accumulator_tail_alone() {
    for kernel in simd_kernels() {
        let mut rng = Rng::new(0x51D1_FF05);
        let (kc, a, b) = random_slivers(kernel, &mut rng, 17, Rng::unit);
        let tile = kernel.mr() * kernel.nr();
        let mut acc = vec![f64::NAN; ACC_LEN + 8];
        acc[..tile].fill(0.0);
        kernel.run(kc, &a, &b, &mut acc);
        assert!(
            acc[..tile].iter().all(|v| v.is_finite()),
            "{}",
            kernel.name()
        );
        assert!(acc[tile..].iter().all(|v| v.is_nan()), "{}", kernel.name());
    }
}

/// Operands of an `m × n × k` product in storage order for `(ta, tb)`.
fn operands(m: usize, n: usize, k: usize, ta: Op, tb: Op, seed: u64) -> (Matrix, Matrix) {
    let (ar, ac) = match ta {
        Op::N => (m, k),
        Op::T => (k, m),
    };
    let (br, bc) = match tb {
        Op::N => (k, n),
        Op::T => (n, k),
    };
    (
        Matrix::random(ar, ac, seed),
        Matrix::random(br, bc, seed + 1),
    )
}

#[allow(clippy::too_many_arguments)]
fn run(
    ws: &mut GemmWorkspace,
    ta: Op,
    tb: Op,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c0: &Matrix,
) -> Matrix {
    let mut c = c0.clone();
    blocked_gemm_ws(ta, tb, alpha, a.as_ref(), b.as_ref(), beta, c.as_mut(), ws);
    c
}

/// Full blocked gemm with a SIMD-pinned workspace against a
/// scalar-pinned one, over randomized shapes, transposes and scalars —
/// the end-to-end guarantee that kernel choice never changes results
/// beyond rounding.
#[test]
fn blocked_gemm_simd_matches_scalar_workspace() {
    for kernel in simd_kernels() {
        for case in 0..24u64 {
            let mut rng = Rng::new(0x51D1_FF03 + case);
            let m = rng.range(1, 140);
            let n = rng.range(1, 140);
            let k = rng.range(1, 140);
            let (ta, tb) = (
                if rng.chance(0.5) { Op::N } else { Op::T },
                if rng.chance(0.5) { Op::N } else { Op::T },
            );
            let alpha = rng.unit() * 2.0;
            let beta = rng.unit();
            let seed = rng.next_u64() % 1000;
            let (a, b) = operands(m, n, k, ta, tb, seed);
            let c0 = Matrix::random(m, n, seed + 2);

            // Deliberately small blocks on one side so sliver raggedness
            // differs between the two runs too.
            let mut ws_scalar =
                GemmWorkspace::with_config(Microkernel::Scalar, BlockSizes::new(48, 64, 96));
            let mut ws_simd = GemmWorkspace::with_kernel(kernel);
            let want = run(&mut ws_scalar, ta, tb, alpha, &a, &b, beta, &c0);
            let got = run(&mut ws_simd, ta, tb, alpha, &a, &b, beta, &c0);
            let err = srumma_dense::max_abs_diff(&got, &want);
            let tol = 1e-13 * k as f64 + 1e-12;
            assert!(
                err <= tol,
                "{} case {case}: {m}x{n}x{k} {ta:?}{tb:?} err {err} > tol {tol}",
                kernel.name()
            );
        }
    }
}

/// Edge tiles: every `m × n` with `n` on either side of the 8-, 16-
/// and 24-column vector boundaries of the AVX-512 tile (and of the
/// AVX2 tile's 4/8/12) and `m` around the 8-row tile height, at a
/// random `kc` that splits `k` into a ragged last block. Checked
/// against the scalar workspace within rounding, and C outside the
/// target view must stay untouched.
#[test]
fn edge_tiles_cross_every_vector_boundary() {
    const NS: [usize; 12] = [1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 47, 49];
    const MS: [usize; 4] = [1, 7, 8, 9];
    for kernel in simd_kernels() {
        let mut rng = Rng::new(0x51D1_FF06);
        for &n in &NS {
            for &m in &MS {
                let kc = rng.range(1, 40);
                let k = rng.range(1, 90);
                let (ta, tb) = (
                    if rng.chance(0.5) { Op::N } else { Op::T },
                    if rng.chance(0.5) { Op::N } else { Op::T },
                );
                let (a, b) = operands(m, n, k, ta, tb, (m * 100 + n) as u64);
                // C is an interior view of a bigger, poisoned matrix so
                // a write past the tile edge shows up.
                let (pr, pc) = (m + 3, n + 5);
                let mut big = Matrix::from_fn(pr, pc, |_, _| -7.5);
                let blocks = BlockSizes::new(64, kc, 512);
                let mut ws = GemmWorkspace::with_config(kernel, blocks);
                blocked_gemm_ws(
                    ta,
                    tb,
                    0.7,
                    a.as_ref(),
                    b.as_ref(),
                    1.3,
                    big.block_mut(1, 2, m, n),
                    &mut ws,
                );
                let mut want = Matrix::from_fn(m, n, |_, _| -7.5);
                let mut ws_scalar = GemmWorkspace::with_config(Microkernel::Scalar, blocks);
                blocked_gemm_ws(
                    ta,
                    tb,
                    0.7,
                    a.as_ref(),
                    b.as_ref(),
                    1.3,
                    want.as_mut(),
                    &mut ws_scalar,
                );
                let got = big.block(1, 2, m, n).to_matrix();
                let err = srumma_dense::max_abs_diff(&got, &want);
                let tol = 1e-13 * k as f64 + 1e-12;
                let what = format!("{} {m}x{n}x{k} kc={kc} {ta:?}{tb:?}", kernel.name());
                assert!(err <= tol, "{what}: err {err} > tol {tol}");
                for i in 0..pr {
                    for j in 0..pc {
                        let inside = (1..1 + m).contains(&i) && (2..2 + n).contains(&j);
                        if !inside {
                            assert_eq!(big[(i, j)], -7.5, "{what}: wrote outside C at ({i},{j})");
                        }
                    }
                }
            }
        }
    }
}

/// Every SIMD workspace also keeps the zero-steady-state-allocation
/// guarantee: its packing buffers grow exactly once.
#[test]
fn simd_workspaces_reuse_buffers() {
    for kernel in simd_kernels() {
        let mut ws = GemmWorkspace::with_kernel(kernel);
        let a = Matrix::random(100, 80, 1);
        let b = Matrix::random(80, 90, 2);
        let c0 = Matrix::zeros(100, 90);
        for _ in 0..3 {
            run(&mut ws, Op::N, Op::N, 1.0, &a, &b, 0.0, &c0);
            assert_eq!(ws.grow_count(), 1, "{}", kernel.name());
        }
    }
}
