//! The summation-order oracle: `blocked_gemm_ws` on every kernel this
//! host can run is bitwise equal to a plain per-element chain.
//!
//! For each element of C the chain is: `C = β·C` first (`0` when
//! `β = 0`, untouched when `β = 1`); then, for each workspace `kc`
//! block in order, `acc` restarts at zero, takes `acc = a_k·b_k + acc`
//! for every `k` of the block in order, and is added as `C += α·acc`
//! (`C += acc` when `α = 1`). The SIMD kernels fuse each step into one
//! `f64::mul_add`; the scalar kernel rounds the product and the sum
//! separately. Register tile shape, sliver padding and the `mc`/`nc`
//! panel cuts must not move a single bit, which is what lets the
//! kernel tiling and the block sizes change without touching a
//! bitwise oracle anywhere above this crate.

use srumma_dense::blocked::{blocked_gemm_ws, BlockSizes, KC};
use srumma_dense::{GemmWorkspace, Matrix, Microkernel, Op};

/// The kernels this host can run.
fn kernels() -> Vec<Microkernel> {
    Microkernel::all()
        .iter()
        .copied()
        .filter(|k| k.available())
        .collect()
}

/// `op(X)[i][l]` of a matrix stored for `op`.
fn at(x: &Matrix, op: Op, i: usize, l: usize) -> f64 {
    match op {
        Op::N => x[(i, l)],
        Op::T => x[(l, i)],
    }
}

/// The per-element chain for `kernel` with workspace block depth `kc`.
#[allow(clippy::too_many_arguments)]
fn oracle(
    kernel: Microkernel,
    kc: usize,
    ta: Op,
    tb: Op,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c0: &Matrix,
    k: usize,
) -> Matrix {
    let fused = kernel != Microkernel::Scalar;
    Matrix::from_fn(c0.rows(), c0.cols(), |i, j| {
        let mut c = if beta == 0.0 {
            0.0
        } else if beta == 1.0 {
            c0[(i, j)]
        } else {
            c0[(i, j)] * beta
        };
        if alpha == 0.0 {
            return c;
        }
        for l0 in (0..k).step_by(kc) {
            let mut acc = 0.0f64;
            for l in l0..(l0 + kc).min(k) {
                let (x, y) = (at(a, ta, i, l), at(b, tb, l, j));
                acc = if fused {
                    x.mul_add(y, acc)
                } else {
                    acc + x * y
                };
            }
            c = if alpha == 1.0 {
                c + acc
            } else {
                c + alpha * acc
            };
        }
        c
    })
}

fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {idx} is {g:e}, the chain gives {w:e}"
        );
    }
}

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

/// Every kernel, all four Op cases, α ∈ {1, 0.7}, β ∈ {0, 1, 1.3} and
/// `k` ∈ {0, 1, kc − 1, kc + 1} for the default `kc` and a small odd
/// one, at a shape with ragged row and column slivers for every tile.
#[test]
fn blocked_gemm_is_the_per_element_chain() {
    let (m, n) = (19, 53);
    let small = BlockSizes::new(13, 37, 29);
    for kernel in kernels() {
        for blocks in [None, Some(small)] {
            let kc = blocks.map_or(KC, |b| b.kc);
            for k in [0, 1, kc - 1, kc + 1] {
                for ta in [Op::N, Op::T] {
                    for tb in [Op::N, Op::T] {
                        let (a, b) = operands(m, n, k, ta, tb, (k * 7 + 3) as u64);
                        let c0 = Matrix::random(m, n, 99);
                        for alpha in [1.0, 0.7] {
                            for beta in [0.0, 1.0, 1.3] {
                                let mut ws = match blocks {
                                    Some(bs) => GemmWorkspace::with_config(kernel, bs),
                                    None => GemmWorkspace::with_kernel(kernel),
                                };
                                let mut got = c0.clone();
                                blocked_gemm_ws(
                                    ta,
                                    tb,
                                    alpha,
                                    a.as_ref(),
                                    b.as_ref(),
                                    beta,
                                    got.as_mut(),
                                    &mut ws,
                                );
                                let want = oracle(kernel, kc, ta, tb, alpha, &a, &b, beta, &c0, k);
                                let what = format!(
                                    "{} kc={kc} k={k} {ta:?}{tb:?} alpha={alpha} beta={beta}",
                                    kernel.name()
                                );
                                assert_same_bits(&got, &want, &what);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Blocks that are and are not whole multiples of the kernel's slivers
/// (`nc` 512 vs 504, `mc` 61 vs 64) cut `m` and `n` into different
/// panels; C must not change by a bit, and it must still be the chain.
/// The 61 × 510 shape is covered whole by every block but the last,
/// so its padded edge sliver is the widest panel the workspace holds.
#[test]
fn sliver_aligned_and_unaligned_blocks_agree_bitwise() {
    for (m, n) in [(130, 530), (61, 510)] {
        aligned_and_unaligned_agree(m, n);
    }
}

fn aligned_and_unaligned_agree(m: usize, n: usize) {
    let k = 70;
    let (a, b) = operands(m, n, k, Op::N, Op::T, 5);
    let c0 = Matrix::random(m, n, 6);
    for kernel in kernels() {
        let mut outs = Vec::new();
        for (mc, nc) in [(64, 512), (61, 504), (61, 512), (64, 504), (7, 23)] {
            let mut ws = GemmWorkspace::with_config(kernel, BlockSizes::new(mc, 48, nc));
            let mut c = c0.clone();
            blocked_gemm_ws(
                Op::N,
                Op::T,
                0.7,
                a.as_ref(),
                b.as_ref(),
                1.3,
                c.as_mut(),
                &mut ws,
            );
            outs.push(((mc, nc), c));
        }
        let want = oracle(kernel, 48, Op::N, Op::T, 0.7, &a, &b, 1.3, &c0, k);
        for ((mc, nc), c) in &outs {
            let what = format!("{} {m}x{n} mc={mc} nc={nc}", kernel.name());
            assert_same_bits(c, &want, &what);
        }
    }
}
