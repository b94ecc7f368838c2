//! Quickstart: multiply two matrices in parallel with SRUMMA on real
//! host threads (the shared-memory flavor of the paper, live on your
//! machine), verify against the serial kernel, and show the speedup.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use srumma::core::driver::serial_reference;
use srumma::{Algorithm, Backend, GemmSpec, Matrix, Multiply};

fn main() {
    let n = 768;
    let spec = GemmSpec::square(n);
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("SRUMMA quickstart: C = A*B with N = {n} ({cores} host cores)\n");
    if cores == 1 {
        println!("note: only one core available — expect verification, not speedup\n");
    }

    // Reproducible random operands.
    let a = Matrix::random(n, n, 42);
    let b = Matrix::random(n, n, 43);

    // Serial reference (the same blocked kernel SRUMMA calls per block).
    let t0 = std::time::Instant::now();
    let expect = serial_reference(&spec, &a, &b);
    let serial_secs = t0.elapsed().as_secs_f64();
    println!("serial dgemm:        {:.3} s", serial_secs);

    // SRUMMA across increasing rank counts.
    let request = Multiply::new(Algorithm::srumma_default(), spec, &a, &b);
    for nranks in [1, 2, 4, 8] {
        let out = request
            .run(nranks, &Backend::threads())
            .expect("a valid request");
        let (c, secs) = (out.c.expect("real operands"), out.wall_seconds);
        let err = srumma::dense::max_abs_diff(&c, &expect);
        let gflops = 2.0 * (n as f64).powi(3) / secs / 1e9;
        println!(
            "SRUMMA x{nranks:<2} threads: {:.3} s = {gflops:.2} GFLOP/s (speedup {:.2}x, max err {err:.2e})",
            secs,
            serial_secs / secs
        );
        assert!(err < 1e-9, "numeric verification failed");
    }

    println!("\nAll results verified against the serial kernel.");
    println!("(On a multi-core machine the rank counts up to the core count speed up.)");
}
