//! Trace a real thread-backend multiply and a simulated cluster run,
//! write both timelines as Chrome/Perfetto JSON, and print the derived
//! metrics (overlap, stall, skew, bytes moved).
//!
//! ```sh
//! cargo run --release --example trace_run
//! # then open results/trace_threads.json in ui.perfetto.dev
//! ```

use srumma::trace::chrome_trace_json;
use srumma::{Algorithm, Backend, GemmSpec, Machine, Matrix, Multiply};

fn main() {
    std::fs::create_dir_all("results").expect("create results/");

    // Real threads, wall-clock events.
    let n = 512;
    let spec = GemmSpec::square(n);
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let run = Multiply::new(Algorithm::srumma_default(), spec, &a, &b)
        .traced()
        .run(4, &Backend::threads())
        .expect("a valid request");
    std::fs::write("results/trace_threads.json", chrome_trace_json(&run.trace))
        .expect("write trace");
    println!(
        "thread backend: {} events from 4 ranks -> results/trace_threads.json",
        run.trace.len()
    );
    println!("{}\n", run.stats.summary_json());

    // Simulated Linux/Myrinet cluster, virtual-time events.
    let sim = Multiply::modeled(Algorithm::srumma_default(), GemmSpec::square(2000))
        .traced()
        .run(16, &Backend::Sim(&Machine::linux_myrinet()))
        .expect("a valid request");
    std::fs::write("results/trace_sim.json", chrome_trace_json(&sim.trace)).expect("write trace");
    println!(
        "sim backend: {} events from 16 ranks -> results/trace_sim.json",
        sim.trace.len()
    );
    println!("{}", sim.stats.summary_json());
}
