//! End-to-end numeric verification: every algorithm × every transpose
//! case × square and rectangular shapes × both backends, checked
//! against the serial kernel.

use srumma_core::driver::{multiply_threads, serial_reference};
use srumma_core::{
    Algorithm, Backend, GemmSpec, Multiply, ShmemFlavor, SrummaOptions, SummaOptions,
};
use srumma_dense::{max_abs_diff, Matrix, Op};
use srumma_model::Machine;

fn check_sim(machine: &Machine, nranks: usize, alg: &Algorithm, spec: &GemmSpec, seed: u64) {
    let a = Matrix::random(spec.m, spec.k, seed);
    let b = Matrix::random(spec.k, spec.n, seed + 1);
    let out = Multiply::new(*alg, *spec, &a, &b)
        .run(nranks, &Backend::Sim(machine))
        .unwrap();
    let (c, _stats) = (out.c.unwrap(), out.stats);
    let expect = serial_reference(spec, &a, &b);
    let err = max_abs_diff(&c, &expect);
    assert!(
        err < 1e-9,
        "{} {:?} on {:?} x{nranks}: err {err}",
        alg.name(),
        spec,
        machine.platform
    );
}

#[test]
fn srumma_all_transpose_cases_square() {
    let machine = Machine::linux_myrinet();
    for ta in [Op::N, Op::T] {
        for tb in [Op::N, Op::T] {
            let spec = GemmSpec::new(ta, tb, 48, 48, 48);
            check_sim(&machine, 8, &Algorithm::srumma_default(), &spec, 11);
        }
    }
}

#[test]
fn srumma_rectangular_cases() {
    let machine = Machine::linux_myrinet();
    for (m, n, k) in [(40, 40, 10), (10, 10, 20), (33, 17, 25), (5, 64, 32)] {
        for ta in [Op::N, Op::T] {
            let spec = GemmSpec::new(ta, Op::N, m, n, k);
            check_sim(&machine, 6, &Algorithm::srumma_default(), &spec, 21);
        }
    }
}

#[test]
fn srumma_on_all_four_platforms() {
    let spec = GemmSpec::square(36);
    for machine in [
        Machine::linux_myrinet(),
        Machine::ibm_sp(),
        Machine::cray_x1(),
        Machine::sgi_altix(),
    ] {
        check_sim(&machine, 9, &Algorithm::srumma_default(), &spec, 31);
    }
}

#[test]
fn srumma_all_option_combinations() {
    let machine = Machine::ibm_sp();
    let spec = GemmSpec::square(32);
    for smp_first in [false, true] {
        for diagonal_shift in [false, true] {
            for double_buffer in [false, true] {
                for shmem in [
                    ShmemFlavor::Auto,
                    ShmemFlavor::ForceCopy,
                    ShmemFlavor::ForceDirect,
                ] {
                    let alg = Algorithm::Srumma(SrummaOptions {
                        smp_first,
                        diagonal_shift,
                        double_buffer,
                        shmem,
                        ..Default::default()
                    });
                    check_sim(&machine, 8, &alg, &spec, 41);
                }
            }
        }
    }
}

#[test]
fn summa_all_transpose_cases() {
    let machine = Machine::linux_myrinet();
    for ta in [Op::N, Op::T] {
        for tb in [Op::N, Op::T] {
            let spec = GemmSpec::new(ta, tb, 30, 24, 36);
            check_sim(&machine, 6, &Algorithm::summa_default(), &spec, 51);
        }
    }
}

#[test]
fn summa_with_narrow_panels() {
    let machine = Machine::sgi_altix();
    let spec = GemmSpec::square(40);
    for nb in [1, 3, 8, 64] {
        let alg = Algorithm::Summa(SummaOptions {
            panel_nb: Some(nb),
            ..Default::default()
        });
        check_sim(&machine, 4, &alg, &spec, 61);
    }
}

#[test]
fn cannon_square_grids() {
    let machine = Machine::linux_myrinet();
    for (nranks, n) in [(4, 32), (9, 27), (16, 40)] {
        let spec = GemmSpec::square(n);
        check_sim(&machine, nranks, &Algorithm::Cannon, &spec, 71);
    }
}

#[test]
fn cannon_uneven_blocks() {
    // n not divisible by the grid edge: blocks differ in size by one.
    let machine = Machine::linux_myrinet();
    let spec = GemmSpec::square(37);
    check_sim(&machine, 9, &Algorithm::Cannon, &spec, 81);
}

#[test]
fn all_algorithms_agree_on_threads() {
    let spec = GemmSpec::square(48);
    let a = Matrix::random(48, 48, 91);
    let b = Matrix::random(48, 48, 92);
    let expect = serial_reference(&spec, &a, &b);
    for alg in [
        Algorithm::srumma_default(),
        Algorithm::summa_default(),
        Algorithm::Cannon,
    ] {
        let (c, _secs) = multiply_threads(4, &alg, &spec, &a, &b);
        let err = max_abs_diff(&c, &expect);
        assert!(err < 1e-9, "{} on threads: err {err}", alg.name());
    }
}

#[test]
fn thread_backend_transposes_and_rectangles() {
    for (ta, tb, m, n, k) in [
        (Op::T, Op::N, 24, 30, 18),
        (Op::N, Op::T, 17, 23, 29),
        (Op::T, Op::T, 31, 19, 23),
    ] {
        let spec = GemmSpec::new(ta, tb, m, n, k);
        let a = Matrix::random(m, k, 101);
        let b = Matrix::random(k, n, 102);
        let expect = serial_reference(&spec, &a, &b);
        let (c, _) = multiply_threads(6, &Algorithm::srumma_default(), &spec, &a, &b);
        assert!(max_abs_diff(&c, &expect) < 1e-9, "{}", spec.case_label());
    }
}

#[test]
fn single_rank_degenerates_to_serial() {
    let machine = Machine::sgi_altix();
    let spec = GemmSpec::square(20);
    check_sim(&machine, 1, &Algorithm::srumma_default(), &spec, 111);
}

#[test]
fn nonsquare_grid_128_style() {
    // p=2, q=4 grid exercises the mismatched k-panel merge (the shape
    // of the paper's 128-CPU runs, which use an 8x16 grid).
    let machine = Machine::linux_myrinet();
    let spec = GemmSpec::square(41);
    check_sim(&machine, 8, &Algorithm::srumma_default(), &spec, 121);
    check_sim(&machine, 8, &Algorithm::summa_default(), &spec, 122);
}

#[test]
fn repeated_runs_are_deterministic_in_time() {
    let machine = Machine::ibm_sp();
    let spec = GemmSpec::square(32);
    let a = Matrix::random(32, 32, 1);
    let b = Matrix::random(32, 32, 2);
    let request = Multiply::new(Algorithm::srumma_default(), spec, &a, &b);
    let s1 = request.run(8, &Backend::Sim(&machine)).unwrap().stats;
    let s2 = request.run(8, &Backend::Sim(&machine)).unwrap().stats;
    assert_eq!(s1.makespan, s2.makespan);
    assert_eq!(s1.final_times, s2.final_times);
}

#[test]
fn pblas_alpha_beta_semantics() {
    // C ← α·op(A)op(B) + β·C with a nonzero starting C, all algorithms.
    let n = 36;
    let a = Matrix::random(n, n, 201);
    let b = Matrix::random(n, n, 202);
    let c0 = Matrix::random(n, n, 203);
    let (alpha, beta) = (2.5, -0.5);
    let spec = GemmSpec::square(n).with_scalars(alpha, beta);

    // Reference: alpha*A*B + beta*C0 via the serial kernel.
    let mut expect = c0.clone();
    srumma_dense::dgemm(
        Op::N,
        Op::N,
        alpha,
        a.as_ref(),
        b.as_ref(),
        beta,
        expect.as_mut(),
    );

    for alg in [
        Algorithm::srumma_default(),
        Algorithm::summa_default(),
        Algorithm::Cannon,
    ] {
        // Drive the layout by hand so C can be pre-loaded.
        let grid = srumma_core::driver::default_grid(4);
        let da = srumma_core::layout::dist_a(&spec, grid, true);
        let db = srumma_core::layout::dist_b(&spec, grid, true);
        let dc = srumma_core::layout::dist_c(&spec, grid, true);
        srumma_core::layout::scatter_operands(&spec, &da, &db, &a, &b);
        dc.scatter(&c0);
        srumma_comm::thread_run(4, |comm| {
            srumma_core::parallel_gemm(comm, &alg, &spec, &da, &db, &dc);
        });
        let got = dc.gather();
        let err = max_abs_diff(&got, &expect);
        assert!(err < 1e-9, "{} alpha/beta: err {err}", alg.name());
    }
}

#[test]
fn beta_zero_overwrites_stale_c() {
    let n = 24;
    let spec = GemmSpec::square(n).with_scalars(1.0, 0.0);
    let a = Matrix::random(n, n, 301);
    let b = Matrix::random(n, n, 302);
    let garbage = Matrix::from_fn(n, n, |_, _| 1e300);

    let grid = srumma_core::driver::default_grid(4);
    let da = srumma_core::layout::dist_a(&spec, grid, true);
    let db = srumma_core::layout::dist_b(&spec, grid, true);
    let dc = srumma_core::layout::dist_c(&spec, grid, true);
    srumma_core::layout::scatter_operands(&spec, &da, &db, &a, &b);
    dc.scatter(&garbage);
    srumma_comm::thread_run(4, |comm| {
        srumma_core::parallel_gemm(comm, &Algorithm::srumma_default(), &spec, &da, &db, &dc);
    });
    let got = dc.gather();
    let expect = serial_reference(&GemmSpec::square(n), &a, &b);
    assert!(max_abs_diff(&got, &expect) < 1e-9);
}

#[test]
fn summa_ring_broadcast_variant() {
    // The DIMMA-style ring schedule must be numerically identical.
    use srumma_core::summa::BcastKind;
    let machine = Machine::linux_myrinet();
    for ta in [Op::N, Op::T] {
        let spec = GemmSpec::new(ta, Op::N, 30, 24, 36);
        let alg = Algorithm::Summa(SummaOptions {
            panel_nb: None,
            bcast: BcastKind::Ring,
        });
        check_sim(&machine, 6, &alg, &spec, 401);
    }
}

#[test]
fn deep_prefetch_pipelines_are_correct() {
    // prefetch_depth > 1 (extension): more buffers, same numerics.
    let machine = Machine::linux_myrinet();
    let spec = GemmSpec::square(40);
    for depth in [1usize, 2, 3, 5] {
        let alg = Algorithm::Srumma(SrummaOptions {
            prefetch_depth: depth,
            ..Default::default()
        });
        check_sim(&machine, 8, &alg, &spec, 500 + depth as u64);
    }
}
