//! Executor-backend multiplies: the same algorithms, numerically
//! identical results, with ranks multiplexed onto a small worker pool.
//! SRUMMA runs as polled state machines; SUMMA and Cannon run their
//! unmodified blocking code on loan-gated threads.

use srumma_core::driver::{multiply_exec, serial_reference};
use srumma_core::{Algorithm, Backend, GemmSpec, Multiply, ShmemFlavor, SrummaOptions};
use srumma_dense::{max_abs_diff, Matrix, Op};

fn check_exec(alg: &Algorithm, spec: &GemmSpec, nranks: usize, workers: usize) {
    let a = Matrix::random(spec.m, spec.k, 11);
    let b = Matrix::random(spec.k, spec.n, 12);
    // C starts zero, so beta scales zeros away: expect alpha·A·B.
    let mut expect = serial_reference(spec, &a, &b);
    for i in 0..spec.m {
        for j in 0..spec.n {
            expect[(i, j)] *= spec.alpha;
        }
    }
    let (c, res) = multiply_exec(nranks, workers, alg, spec, &a, &b);
    assert!(
        max_abs_diff(&c, &expect) < 1e-9,
        "{} {} x{nranks} on {workers} workers",
        alg.name(),
        spec.case_label()
    );
    assert!(
        res.stats.exec.is_some(),
        "executor runs must carry ExecStats"
    );
}

#[test]
fn srumma_fsm_matches_serial_across_worker_counts() {
    let spec = GemmSpec::square(48);
    for nranks in [4, 9] {
        for workers in [1, 2, 4] {
            check_exec(&Algorithm::srumma_default(), &spec, nranks, workers);
        }
    }
}

#[test]
fn srumma_fsm_handles_transposes_scalars_and_options() {
    let spec = GemmSpec::new(Op::T, Op::N, 30, 24, 36).with_scalars(1.5, -0.5);
    let opts = SrummaOptions {
        prefetch_depth: 2,
        shmem: ShmemFlavor::ForceCopy,
        ..Default::default()
    };
    check_exec(&Algorithm::Srumma(opts), &spec, 6, 2);
}

#[test]
fn summa_gated_matches_serial() {
    check_exec(&Algorithm::summa_default(), &GemmSpec::square(40), 4, 2);
}

#[test]
fn cannon_gated_matches_serial() {
    // Cannon needs a square grid; its skew+shift phases block in
    // sendrecv, exercising the loan hand-off on every step.
    check_exec(&Algorithm::Cannon, &GemmSpec::square(36), 4, 2);
}

#[test]
fn heavy_oversubscription_completes_and_matches() {
    // 64 logical ranks on 2 workers: far beyond any sane thread count,
    // trivially sized so the test stays fast.
    let spec = GemmSpec::square(64);
    check_exec(&Algorithm::srumma_default(), &spec, 64, 2);
    check_exec(&Algorithm::summa_default(), &spec, 64, 2);
}

#[test]
fn traced_exec_run_reports_scheduling_metrics() {
    let spec = GemmSpec::square(32);
    let a = Matrix::random(32, 32, 3);
    let b = Matrix::random(32, 32, 4);
    let res = Multiply::new(Algorithm::srumma_default(), spec, &a, &b)
        .traced()
        .run(16, &Backend::exec(2))
        .unwrap();
    let c = res.c.as_ref().unwrap();
    assert!(max_abs_diff(c, &serial_reference(&spec, &a, &b)) < 1e-9);
    let exec = res.stats.exec.unwrap();
    assert_eq!(exec.workers, 2);
    assert!(exec.schedules() >= 16);
    assert!(exec.parks > 0, "closing barrier must park waiting ranks");
    assert!((0.0..=1.0).contains(&exec.occupancy()));
    // Per-rank counters still flow through the FSM path.
    let total_tasks: u64 = res.stats.ranks.iter().map(|r| r.tasks).sum();
    assert!(total_tasks > 0, "task counters must survive the FSM path");
    // The trace carries both algorithm spans and scheduler markers.
    assert!(!res.trace.is_empty());
}

#[test]
fn panicking_fsm_rank_does_not_hang_the_run() {
    // Executor mirror of the thread backend's poison-barrier test: a
    // rank task that panics mid-multiply must unwind the whole run
    // (parked peers included), not deadlock it.
    use srumma_comm::{exec_run_tasks, ExecComm, RankTask, Step};
    struct Bomb {
        comm: ExecComm,
        ticks: usize,
    }
    impl RankTask for Bomb {
        type Out = ();
        fn step(&mut self) -> Step<()> {
            use srumma_comm::Comm;
            if self.comm.rank() == 2 && self.ticks == 1 {
                panic!("injected rank failure");
            }
            self.ticks += 1;
            if self.ticks < 3 {
                return Step::Yield;
            }
            if self.comm.barrier_try() {
                Step::Done(())
            } else {
                Step::Park
            }
        }
    }
    let result = std::panic::catch_unwind(|| {
        exec_run_tasks(8, 2, false, |comm| Box::new(Bomb { comm, ticks: 0 }))
    });
    assert!(
        result.is_err(),
        "panic must propagate out of exec_run_tasks"
    );
}
