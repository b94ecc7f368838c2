//! `scf-chain`: the SCF chain of the chemistry workload on
//! `multiply_threads` — D = C·Cᵀ (N/T, rectangular), G = F·X, then
//! F′ = Xᵀ·G (T/N). Kernel and operand distribution dominate the wall.

use super::{
    caller_gflops, dgemm_gflops, layout_bytes, reference_ok, standalone_layers, task_shape,
    traced_threads, Dense, FirstResults, Layers, Workload,
};
use crate::tally::Tally;
use srumma::core::driver::multiply_threads;
use srumma::dense::Rng;
use srumma::{Algorithm, GemmSpec, Matrix, Op};
use std::rc::Rc;

pub const NBASIS: usize = 1536;
pub const NOCC: usize = 384;
pub const RANKS: usize = 2;

/// Logical operands of the chain, generated from the seed.
pub struct Inputs {
    pub c_occ: Matrix,
    pub c_occ_t: Matrix,
    pub f: Matrix,
    pub x_t: Matrix,
    pub x: Matrix,
}

pub fn inputs(seed: u64, nbasis: usize, nocc: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let c_occ = Matrix::random(nbasis, nocc, rng.next_u64());
    let f = Matrix::random(nbasis, nbasis, rng.next_u64());
    let x = Matrix::random(nbasis, nbasis, rng.next_u64());
    Inputs {
        c_occ_t: c_occ.transposed(),
        c_occ,
        f,
        x_t: x.transposed(),
        x,
    }
}

pub struct ScfChain {
    specs: [GemmSpec; 3],
    inp: Inputs,
    /// The latest G, input of the third link.
    g: Option<Rc<Matrix>>,
    first: FirstResults,
}

/// Logical operands of link `l` (D, G or F′).
fn operands<'a>(inp: &'a Inputs, g: &'a Option<Rc<Matrix>>, l: usize) -> (&'a Matrix, &'a Matrix) {
    match l {
        0 => (&inp.c_occ, &inp.c_occ_t),
        1 => (&inp.f, &inp.x),
        _ => (&inp.x_t, g.as_deref().expect("G is computed before F'")),
    }
}

impl ScfChain {
    pub fn new(seed: u64) -> Self {
        ScfChain {
            specs: [
                GemmSpec::new(Op::N, Op::T, NBASIS, NBASIS, NOCC),
                GemmSpec::square(NBASIS),
                GemmSpec::new(Op::T, Op::N, NBASIS, NBASIS, NBASIS),
            ],
            inp: inputs(seed, NBASIS, NOCC),
            g: None,
            first: FirstResults::default(),
        }
    }

    /// Share call `i`'s result, keeping it as the next F′ input when it is G.
    fn keep_g(&mut self, i: usize, c: Matrix) -> Rc<Matrix> {
        let c = Rc::new(c);
        if i % 3 == 1 {
            self.g = Some(Rc::clone(&c));
        }
        c
    }
}

impl Workload for ScfChain {
    type Out = Rc<Matrix>;

    fn pool(&self) -> (usize, Option<usize>) {
        (RANKS, None)
    }

    fn warmup_calls(&self) -> usize {
        3
    }

    fn distinct_inputs(&self) -> usize {
        3
    }

    fn ops(&self, _i: usize) -> u64 {
        1
    }

    fn flops(&self, i: usize) -> f64 {
        self.specs[i % 3].flops()
    }

    fn call(&mut self, i: usize) -> Rc<Matrix> {
        let (a, b) = operands(&self.inp, &self.g, i % 3);
        let c = multiply_threads(
            RANKS,
            &Algorithm::srumma_default(),
            &self.specs[i % 3],
            a,
            b,
        )
        .0;
        self.keep_g(i, c)
    }

    fn check(&mut self, i: usize, out: Rc<Matrix>) -> u64 {
        let l = i % 3;
        let (a, b) = operands(&self.inp, &self.g, l);
        let spec = &self.specs[l];
        u64::from(
            !self
                .first
                .check(l, &out, |got| reference_ok(spec, a, b, got)),
        )
    }

    fn traced_call(&mut self, i: usize, t: &mut Tally) -> Rc<Matrix> {
        let (a, b) = operands(&self.inp, &self.g, i % 3);
        let c = traced_threads(t, RANKS, &self.specs[i % 3], a, b);
        self.keep_g(i, c)
    }

    fn layers(&mut self, t: &Tally, untraced: &[(usize, f64)], budget_s: f64) -> Layers {
        let dense = Dense {
            kernel_gflops: dgemm_gflops(&self.specs.map(|s| task_shape(&s, RANKS)), 0.3 * budget_s),
            serial_gflops: dgemm_gflops(
                &self.specs.map(|s| (Op::N, Op::N, s.m, s.n, s.k)),
                0.7 * budget_s,
            ),
        };
        let bytes = self.specs.iter().map(layout_bytes).sum::<f64>() / 3.0;
        let gflops = caller_gflops(untraced, |i| self.flops(i));
        standalone_layers(t, RANKS, gflops, dense, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::same_bits;

    #[test]
    fn seed_gives_identical_inputs() {
        let (a, b) = (inputs(7, 24, 8), inputs(7, 24, 8));
        assert!(same_bits(&a.c_occ, &b.c_occ) && same_bits(&a.f, &b.f) && same_bits(&a.x, &b.x));
        assert!(same_bits(&a.x_t, &a.x.transposed()));
        assert!(!same_bits(&a.f, &inputs(8, 24, 8).f));
    }
}
