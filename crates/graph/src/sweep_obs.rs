//! Batched observability for shortest-path sweeps.
//!
//! Both Dijkstra variants count their heap traffic in plain locals and
//! flush once per sweep, so the per-operation cost inside the loops is an
//! integer increment and the disabled-mode cost of a whole sweep is one
//! atomic load (see the `truthcast-obs` cost model).

/// Heap-traffic counters for one shortest-path sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepCounters {
    /// Heap insertions (first reach of a node).
    pub pushes: u64,
    /// Heap extract-mins == settled nodes (early exit stops counting).
    pub pops: u64,
    /// Decrease-key operations (improvement of an already-queued node).
    pub decrease_keys: u64,
    /// Edge relaxations examined (including non-improving ones).
    pub relaxations: u64,
    /// Entries moved by radix-heap bucket redistributions — the radix
    /// heap's only super-constant work.
    pub radix_redistributes: u64,
}

impl SweepCounters {
    /// Flushes the counters under `family` (e.g. `"graph.node_dijkstra"`)
    /// if tracing is enabled; one histogram tracks settled nodes per
    /// sweep. Call exactly once, at the end of the sweep.
    pub fn flush(&self, family: &str) {
        if !truthcast_obs::enabled() {
            return;
        }
        let c = truthcast_obs::collector();
        c.add(&format!("{family}.sweeps"), 1);
        c.add(&format!("{family}.pushes"), self.pushes);
        c.add(&format!("{family}.pops"), self.pops);
        c.add(&format!("{family}.decrease_keys"), self.decrease_keys);
        c.add(&format!("{family}.relaxations"), self.relaxations);
        c.add(
            &format!("{family}.radix_redistribute"),
            self.radix_redistributes,
        );
        c.observe(&format!("{family}.settled_per_sweep"), self.pops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_is_inert_while_disabled() {
        // Must not touch the global collector when tracing is off (other
        // tests in the workspace assert on its contents).
        let c = SweepCounters {
            pushes: 1,
            pops: 2,
            decrease_keys: 3,
            relaxations: 4,
            radix_redistributes: 5,
        };
        c.flush("graph.test_disabled");
        // No panic, no side effect observable here; the enabled-mode path
        // is exercised by the `tests/obs_audit.rs` integration test.
    }
}
