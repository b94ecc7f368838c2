//! Benchmark-side spans around the public calls a driver is built from,
//! plus the counters the program returns, summed over the traced calls.
//!
//! Spans of one call are sequential on the caller thread, so their sum
//! never exceeds the caller wall; whatever the spans miss is reported
//! as an explicit "unaccounted" row.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Default)]
pub struct Tally {
    /// Phase totals in first-seen order.
    spans: Vec<(&'static str, f64)>,
    /// Counter totals (in-pool rank-seconds, bytes, counts).
    counters: BTreeMap<&'static str, f64>,
    /// Caller wall summed over traced calls.
    pub wall: f64,
    /// Traced calls made.
    pub calls: u64,
    /// Operations those calls completed.
    pub ops: u64,
}

impl Tally {
    /// Time `f` as phase `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add_span(name, t.elapsed().as_secs_f64());
        out
    }

    /// Add `secs` to phase `name` (for phases measured by the program).
    pub fn add_span(&mut self, name: &'static str, secs: f64) {
        match self.spans.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => *s += secs,
            None => self.spans.push((name, secs)),
        }
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counters.entry(key).or_insert(0.0) += v;
    }

    /// Counter total (0 when never added).
    pub fn get(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    /// Counter mean per traced call.
    pub fn per_call(&self, key: &str) -> f64 {
        self.get(key) / self.calls.max(1) as f64
    }

    /// Phase total (0 when never recorded).
    pub fn phase(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Phase mean per traced call.
    pub fn phase_per_call(&self, name: &str) -> f64 {
        self.phase(name) / self.calls.max(1) as f64
    }

    /// Caller wall the spans do not cover.
    pub fn unaccounted(&self) -> f64 {
        self.wall - self.spans.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// Record one traced call's caller wall and operation count.
    pub fn end_call(&mut self, wall: f64, ops: u64) {
        self.wall += wall;
        self.calls += 1;
        self.ops += ops;
    }

    /// The one-screen "where did the time go" table. `pool_rows` lists
    /// in-pool counters (rank-seconds) shown against `pool_capacity`
    /// (rank-seconds available inside the pool).
    pub fn table(
        &self,
        title: &str,
        pool_rows: &[(&str, &str)],
        pool_capacity: f64,
        overhead_frac: f64,
    ) -> String {
        let calls = self.calls.max(1) as f64;
        let share = |s: f64| 100.0 * s / self.wall.max(f64::MIN_POSITIVE);
        let mut out = format!(
            "where did the time go: {title} ({} traced calls, {} ops)\n  {:<40} {:>12} {:>7}\n",
            self.calls, self.ops, "phase", "ms/call", "share"
        );
        for (name, s) in &self.spans {
            out += &format!(
                "  {name:<40} {:>12.4} {:>6.1}%\n",
                1e3 * s / calls,
                share(*s)
            );
        }
        let un = self.unaccounted();
        out += &format!(
            "  {:<40} {:>12.4} {:>6.1}%\n",
            "unaccounted",
            1e3 * un / calls,
            share(un)
        );
        out += &format!(
            "  {:<40} {:>12.4} {:>6.1}%\n",
            "caller wall",
            1e3 * self.wall / calls,
            100.0
        );
        if !pool_rows.is_empty() {
            out += &format!(
                "  in-pool split ({:.4} rank-ms/call available)\n",
                1e3 * pool_capacity / calls
            );
            let mut covered = 0.0;
            for (key, label) in pool_rows {
                let v = self.get(key);
                covered += v;
                out += &format!(
                    "    {label:<38} {:>12.4} {:>6.1}%\n",
                    1e3 * v / calls,
                    100.0 * v / pool_capacity.max(f64::MIN_POSITIVE)
                );
            }
            let rest = pool_capacity - covered;
            out += &format!(
                "    {:<38} {:>12.4} {:>6.1}%\n",
                "other (scheduling, copies, idle)",
                1e3 * rest / calls,
                100.0 * rest / pool_capacity.max(f64::MIN_POSITIVE)
            );
        }
        out += &format!("  trace.overhead_frac = {overhead_frac:.4}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_plus_unaccounted_equal_the_wall() {
        let mut t = Tally::default();
        t.add_span("alloc", 0.25);
        t.add_span("pool", 1.5);
        t.add_span("alloc", 0.25);
        t.end_call(2.5, 3);
        assert_eq!(t.phase("alloc"), 0.5);
        assert_eq!(t.unaccounted(), 0.5);
        let sum: f64 = ["alloc", "pool"].iter().map(|n| t.phase(n)).sum();
        assert_eq!(sum + t.unaccounted(), t.wall);
    }

    #[test]
    fn measured_spans_never_exceed_the_wall() {
        let mut t = Tally::default();
        let start = Instant::now();
        let x = t.span("work", || (0..10_000u64).sum::<u64>());
        t.span("more", || std::hint::black_box(x));
        t.end_call(start.elapsed().as_secs_f64(), 1);
        assert!(t.unaccounted() >= 0.0);
    }

    #[test]
    fn table_rows_and_means() {
        let mut t = Tally::default();
        t.add_span("scatter", 0.002);
        t.add("pool.compute", 0.006);
        t.end_call(0.004, 1);
        t.end_call(0.004, 1);
        assert_eq!(t.per_call("pool.compute"), 0.003);
        assert_eq!(t.phase_per_call("scatter"), 0.001);
        let s = t.table("demo", &[("pool.compute", "compute")], 0.008, 0.05);
        assert!(s.contains("unaccounted"));
        assert!(s.contains("75.0%"), "{s}");
        assert!(s.contains("trace.overhead_frac = 0.0500"));
    }
}
