#!/usr/bin/env bash
# The full CI gate, runnable locally: formatting, lints, build, tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== benchmark self-tests against the facade =="
# bench_e2e is its own package (not a workspace member) that compiles
# against the srumma facade; removing or re-signing a name it uses must
# fail here rather than at benchmark time.
cargo test --offline --locked --manifest-path bench_e2e/Cargo.toml

echo "== cargo test, once per available kernel flavor =="
# The default pass above runs under auto dispatch; here every kernel
# the host can run gets its own full-suite pass (scalar always, avx2/
# avx512/neon where available), so a flavor-specific miscompile cannot
# hide behind the dispatched favorite.
for flavor in $(cargo run --release -q -p srumma-bench --bin calibrate -- --list-kernels); do
    echo "--  SRUMMA_KERNEL=$flavor"
    SRUMMA_KERNEL="$flavor" cargo test -q --workspace
done

echo "== cargo test (Z-order pack layout, dense crate) =="
# The Z-order layout is opt-in; force it through the dense suite so the
# Morton pack path stays green even though defaults never exercise it.
SRUMMA_LAYOUT=zorder cargo test -q -p srumma-dense

echo "== oversubscription smoke: 128 ranks on 2 workers =="
# Deadlocks in the work-stealing executor (lost wakeups, barrier bugs)
# hang rather than fail — bound the run so they fail CI fast instead.
timeout 300 cargo run --release -q -p srumma-bench \
    --bin bench_executor_scaling -- --smoke

echo "== batched-stream smoke: 32-entry batch on 2 workers =="
# The batched driver's epoch fences and slot-ring reuse are exactly the
# kind of code whose bugs deadlock (lost fence wakeup) or corrupt a
# neighbor entry (slot reused too early) — bounded run, serial-checked.
timeout 300 cargo run --release -q -p srumma-bench \
    --bin bench_batched_gemm -- --smoke

echo "== block-sparse smoke: density 25% on 2 workers =="
# Masked task generation prunes gets/packing/gemm for dead blocks; a
# pruning bug either corrupts C (serial-checked here) or desyncs a
# fence on a rank with no surviving work (deadlock — bounded run).
# Run under both kernel dispatch modes: the masked path must not
# depend on which microkernel survives.
timeout 300 cargo run --release -q -p srumma-bench \
    --bin bench_sparse_gemm -- --smoke
timeout 300 env SRUMMA_KERNEL=scalar cargo run --release -q -p srumma-bench \
    --bin bench_sparse_gemm -- --smoke

echo "== autotune smoke: probe path + tuner neutrality on 2 workers =="
# The zero-config probe path (multiply_autotuned) end-to-end, then a
# tuner-on vs tuner-off batch on an oversubscribed pool. The smoke
# hard-asserts bitwise-identical outputs (the tuner may only move
# scheduling knobs) and bounded tuner overhead; a window-clamp bug in
# the tuned fence gating deadlocks, so the run is bounded.
timeout 300 cargo run --release -q -p srumma-bench \
    --bin bench_autotune -- --smoke

echo "== chaos pass: fault injection under fixed-seed plans =="
# The chaos suite injects stragglers, spiked gets and a rank death
# (with task re-execution) from seeded FaultPlans. Its failure modes
# are deadlocks (a retired fence not advancing, a lost wakeup after a
# death announcement) — bounded with timeout so they fail fast. Run
# under both kernel dispatch modes: re-executed tasks must be bitwise
# identical to the healthy run whichever microkernel executes them.
timeout 300 cargo test -q --release -p srumma --test property_chaos
timeout 300 env SRUMMA_KERNEL=scalar cargo test -q --release -p srumma --test property_chaos
# Determinism of the schedule itself: the same seeded plans twice —
# same pass/fail, and the suite's reproducibility test asserts
# bit-identical virtual-time results internally.
timeout 300 cargo test -q --release -p srumma --test property_chaos

echo "== hierarchical smoke: 4096 simulated ranks on the virtual backend =="
# Two-level node-group staging at CI-feasible scale: 4096 LogGP rank
# clocks on the host pool. The bench itself hard-fails (exit 1) unless
# the hierarchical schedule moves strictly fewer inter-node bytes than
# flat at 4096 ranks; hangs in the staging fence or the replica
# reduction are bounded by the timeout.
timeout 300 cargo run --release -q -p srumma-bench \
    --bin bench_hierarchy -- --smoke --out /tmp/BENCH_hierarchy.json

echo "== perf gate (warn): hierarchical inter-node bytes =="
# Diff the smoke point against the checked-in crossover baseline on the
# internode_bytes_* keys (registered lower-is-better). The byte counts
# are deterministic model outputs, so the tight per-key threshold only
# trips when the staging algorithm or the cost model changes — but keep
# it warn-only so an intentional model change reads as a diff to
# re-baseline, not a red CI.
if [ -f results/BENCH_hierarchy.json ]; then
    if ! ./scripts/bench_diff results/BENCH_hierarchy.json /tmp/BENCH_hierarchy.json \
        --strict --only internode_bytes --threshold internode_bytes=0.5; then
        echo "WARNING: hierarchical inter-node bytes moved vs checked-in baseline (warn-only gate)"
    fi
else
    echo "no checked-in baseline (results/BENCH_hierarchy.json); skipping"
fi

echo "== perf gate (warn): straggler degradation ratio =="
# SRUMMA's one-sided gets must keep degrading more gracefully than
# SUMMA's broadcasts under a single straggler. The bench itself hard-
# fails if SRUMMA's ratio ever reaches SUMMA's; the diff against the
# checked-in baseline is warn-only (deterministic sim, so it only
# moves when the model or the algorithms change — read the diff).
if [ -f results/BENCH_degradation.json ]; then
    cargo run --release -q -p srumma-bench --bin bench_degradation -- \
        --out /tmp/BENCH_degradation.json >/dev/null
    if ! ./scripts/bench_diff results/BENCH_degradation.json /tmp/BENCH_degradation.json \
        --strict --only degradation_ratio; then
        echo "WARNING: straggler degradation ratios moved vs checked-in baseline (warn-only gate)"
    fi
else
    echo "no checked-in baseline (results/BENCH_degradation.json); skipping"
fi

echo "== perf gate (hard): dense gemm kernel =="
# Regenerate the kernel bench quickly and diff against the checked-in
# baseline. The hard gate covers the simd-over-scalar speedup ratios:
# numerator and denominator run on the same host, so the ratio is
# stable where absolute GFLOP/s are not. Regressions FAIL CI by
# default; a legitimately slower runner can downgrade with
# SRUMMA_PERF_GATE=warn (read the diff output either way).
GATE_MODE="${SRUMMA_PERF_GATE:-fail}"
if [ -f results/BENCH_dense_gemm.json ]; then
    cargo run --release -q -p srumma-bench --bin bench_dense_gemm -- \
        --quick --out /tmp/BENCH_dense_gemm.json >/dev/null
    if ! ./scripts/bench_diff results/BENCH_dense_gemm.json /tmp/BENCH_dense_gemm.json \
        --strict --only speedup; then
        if [ "$GATE_MODE" = "warn" ]; then
            echo "WARNING: dense gemm perf regressed vs checked-in baseline (SRUMMA_PERF_GATE=warn)"
        else
            echo "FAIL: dense gemm perf regressed vs checked-in baseline" >&2
            echo "      (set SRUMMA_PERF_GATE=warn to downgrade on known-slower runners)" >&2
            exit 1
        fi
    fi
    echo "== perf gate (warn): dense gemm absolute GFLOP/s ladder =="
    # Absolute throughput of every ladder rung (naive/scalar/avx2/
    # avx512/neon/strassen/best), warn-only: it tracks kernel-level
    # regressions across commits without letting runner-hardware
    # variance block merges.
    if ! ./scripts/bench_diff results/BENCH_dense_gemm.json /tmp/BENCH_dense_gemm.json \
        --strict --only gflops; then
        echo "WARNING: dense gemm absolute GFLOP/s moved vs checked-in baseline (warn-only gate)"
    fi
else
    echo "no checked-in baseline (results/BENCH_dense_gemm.json); skipping"
fi

echo "== perf gate (hard): executor vs thread-per-rank scaling =="
# Same gate shape for the work-stealing executor, but only on the
# exec-over-threads speedup *ratios*: both numerator and denominator run
# on this host, so the ratio is stable where raw wall seconds are not.
# The wider threshold absorbs scheduler jitter on loaded runners.
if [ -f results/BENCH_executor_scaling.json ]; then
    cargo run --release -q -p srumma-bench --bin bench_executor_scaling -- \
        --quick --out /tmp/BENCH_executor_scaling.json >/dev/null
    if ! ./scripts/bench_diff results/BENCH_executor_scaling.json /tmp/BENCH_executor_scaling.json \
        --strict --threshold 40 --only speedup; then
        if [ "$GATE_MODE" = "warn" ]; then
            echo "WARNING: executor scaling regressed vs checked-in baseline (SRUMMA_PERF_GATE=warn)"
        else
            echo "FAIL: executor scaling regressed vs checked-in baseline" >&2
            echo "      (set SRUMMA_PERF_GATE=warn to downgrade on known-slower runners)" >&2
            exit 1
        fi
    fi
else
    echo "no checked-in baseline (results/BENCH_executor_scaling.json); skipping"
fi

echo "== perf gate (warn): tuned vs static-Auto batch streams =="
# The self-tuning runtime must pay for itself: bench_autotune itself
# hard-fails if the tuner costs more than 5% on any config
# (tuned_speedup_min < 0.95), and the diff against the checked-in
# baseline is warn-only on top — wall-clock ratios on a loaded runner
# are too noisy for a hard cross-host gate.
if [ -f results/BENCH_autotune.json ]; then
    # The quick run's own in-bench gate is warn-only here too: on a
    # loaded 1-core runner the 2-sample quick sweep can dip below the
    # 0.95 floor on noise alone; the full sweep owns the hard gate.
    rm -f /tmp/BENCH_autotune.json
    if ! timeout 600 cargo run --release -q -p srumma-bench --bin bench_autotune -- \
        --quick --out /tmp/BENCH_autotune.json >/dev/null; then
        echo "WARNING: quick autotune sweep tripped its in-bench gate (warn-only in CI)"
    fi
    if [ -f /tmp/BENCH_autotune.json ]; then
        if ! ./scripts/bench_diff results/BENCH_autotune.json /tmp/BENCH_autotune.json \
            --strict --threshold 40 --only tuned_speedup; then
            echo "WARNING: tuned-vs-static speedup moved vs checked-in baseline (warn-only gate)"
        fi
    fi
else
    echo "no checked-in baseline (results/BENCH_autotune.json); skipping"
fi

echo "== perf gate (warn): block-sparse speedup vs density =="
# Sparse pruning is a *throughput* feature: gate on the
# sparse-over-dense speedup ratios, which are host-stable. Warn-only
# for now — the sweep is long enough that runner load can smear a
# single density cell; the smoke above is the hard correctness gate.
if [ -f results/BENCH_sparse_gemm.json ]; then
    cargo run --release -q -p srumma-bench --bin bench_sparse_gemm -- \
        --quick --out /tmp/BENCH_sparse_gemm.json >/dev/null
    if ! ./scripts/bench_diff results/BENCH_sparse_gemm.json /tmp/BENCH_sparse_gemm.json \
        --strict --threshold 40 --only speedup_sparse; then
        echo "WARNING: block-sparse speedup regressed vs checked-in baseline (warn-only gate)"
    fi
else
    echo "no checked-in baseline (results/BENCH_sparse_gemm.json); skipping"
fi

echo "CI green."
