//! Sweep-level telemetry: what the engine did, not what it decided.
//!
//! The instruments here are written exactly once per sweep, after the
//! select stage, from the [`SearchWork`] counters the engine already
//! maintains and the stage clocks it reads per query and per wave — never
//! per window, so an instrumented executor is bitwise-identical to a bare
//! one (the crate's equivalence proptests run against both configurations
//! unchanged).

use emap_telemetry::{Counter, Histogram, Registry, Timer};

use crate::{CorrelationSet, ScanKernel};

/// Wall time a sweep spent in each stage, in nanoseconds summed over its
/// queries: plan (query index, coarse bounds, host sort), fine bounds
/// (the per-wave prune and fine envelope pass), scan (the surviving hosts'
/// trajectories) and select (candidate order and top-K).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageNanos {
    pub(crate) plan: u64,
    pub(crate) fine: u64,
    pub(crate) scan: u64,
    pub(crate) select: u64,
}

impl StageNanos {
    pub(crate) fn merge(&mut self, other: StageNanos) {
        self.plan += other.plan;
        self.fine += other.fine;
        self.scan += other.scan;
        self.select += other.select;
    }
}

/// Cached handles for the engine's sweep metrics.
///
/// Built once via [`SweepTelemetry::register`] and attached to a
/// [`crate::BatchExecutor`] with
/// [`crate::BatchExecutor::with_telemetry`]; recording is a handful of
/// relaxed atomic adds per *sweep* (not per window). When the registry is
/// enabled the sweep also reads the clock for the latency histogram and,
/// at each stage boundary of each query and wave, for the stage sums
/// (`search_{plan,fine,scan,select}_nanos_total`).
#[derive(Debug, Clone)]
pub struct SweepTelemetry {
    sweeps: Counter,
    queries: Counter,
    hosts_scanned: Counter,
    hosts_pruned: Counter,
    bound_evaluations: Counter,
    windows_evaluated: Counter,
    exact_resolutions: Counter,
    skip_jumps: Counter,
    matches: Counter,
    latency: Histogram,
    plan_nanos: Counter,
    fine_nanos: Counter,
    scan_nanos: Counter,
    select_nanos: Counter,
}

impl SweepTelemetry {
    /// Registers (or re-attaches to) the sweep instruments in `registry`.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        SweepTelemetry {
            sweeps: registry.counter("search_sweeps_total"),
            queries: registry.counter("search_queries_total"),
            hosts_scanned: registry.counter("search_hosts_scanned_total"),
            hosts_pruned: registry.counter("search_hosts_pruned_total"),
            bound_evaluations: registry.counter("search_bound_evaluations_total"),
            windows_evaluated: registry.counter("search_windows_evaluated_total"),
            exact_resolutions: registry.counter("search_exact_resolutions_total"),
            skip_jumps: registry.counter("search_skip_jumps_total"),
            matches: registry.counter("search_matches_total"),
            latency: registry.histogram("search_sweep_nanos"),
            plan_nanos: registry.counter("search_plan_nanos_total"),
            fine_nanos: registry.counter("search_fine_nanos_total"),
            scan_nanos: registry.counter("search_scan_nanos_total"),
            select_nanos: registry.counter("search_select_nanos_total"),
        }
    }

    /// Starts the per-sweep latency timer (inert on a disabled registry).
    pub(crate) fn start_sweep(&self) -> Timer {
        self.latency.start_timer()
    }

    /// Whether the sweep should read its stage clocks: only when the
    /// registry times, as for the latency histogram.
    pub(crate) fn times_stages(&self) -> bool {
        self.latency.is_enabled()
    }

    /// Charges one finished sweep from its per-query results.
    ///
    /// `windows evaluated` is the number of correlation evaluations; for
    /// the [`ScanKernel::Sliding`] kernel every evaluated window is
    /// followed by exactly one skip-law jump (`β += α^(ω−1)`), so the jump
    /// count equals the evaluation count — the exhaustive kernel advances
    /// by stride 1 and reports no jumps.
    /// `exact_resolutions` is how many of those windows the scan needed
    /// the exact `ω` of; the others advanced on their certified bracket.
    /// `stages` is added to the stage sums as it stands (all zero when the
    /// clocks did not run).
    pub(crate) fn record_sweep(
        &self,
        kernel: ScanKernel,
        results: &[CorrelationSet],
        exact_resolutions: u64,
        stages: &StageNanos,
    ) {
        self.sweeps.inc();
        self.queries.add(results.len() as u64);
        let mut hosts = 0u64;
        let mut pruned = 0u64;
        let mut bounds = 0u64;
        let mut windows = 0u64;
        let mut matches = 0u64;
        for set in results {
            let work = set.work();
            hosts += work.sets_scanned;
            pruned += work.hosts_pruned;
            bounds += work.bound_evaluations;
            windows += work.correlations;
            matches += work.matches;
        }
        self.hosts_scanned.add(hosts);
        self.hosts_pruned.add(pruned);
        self.bound_evaluations.add(bounds);
        self.windows_evaluated.add(windows);
        self.exact_resolutions.add(exact_resolutions);
        if kernel == ScanKernel::Sliding {
            self.skip_jumps.add(windows);
        }
        self.matches.add(matches);
        self.plan_nanos.add(stages.plan);
        self.fine_nanos.add(stages.fine);
        self.scan_nanos.add(stages.scan);
        self.select_nanos.add(stages.select);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SearchHit, SearchWork};
    use emap_mdb::SetId;

    #[test]
    fn record_aggregates_work_counters() {
        let registry = Registry::new();
        let t = SweepTelemetry::register(&registry);
        let sets: Vec<CorrelationSet> = (0..3)
            .map(|i| {
                CorrelationSet::from_candidates(
                    vec![SearchHit {
                        set_id: SetId(i),
                        omega: 0.9,
                        beta: 0,
                    }],
                    10,
                    SearchWork {
                        correlations: 100,
                        sets_scanned: 5,
                        matches: 1,
                        hosts_pruned: 9,
                        bound_evaluations: 14,
                    },
                )
            })
            .collect();
        let stages = StageNanos {
            plan: 1,
            fine: 20,
            scan: 300,
            select: 4000,
        };
        t.record_sweep(ScanKernel::Sliding, &sets, 7, &stages);
        assert_eq!(registry.counter("search_sweeps_total").get(), 1);
        assert_eq!(registry.counter("search_queries_total").get(), 3);
        assert_eq!(registry.counter("search_hosts_scanned_total").get(), 15);
        assert_eq!(registry.counter("search_hosts_pruned_total").get(), 27);
        assert_eq!(registry.counter("search_bound_evaluations_total").get(), 42);
        assert_eq!(
            registry.counter("search_windows_evaluated_total").get(),
            300
        );
        assert_eq!(registry.counter("search_exact_resolutions_total").get(), 7);
        assert_eq!(registry.counter("search_skip_jumps_total").get(), 300);
        assert_eq!(registry.counter("search_matches_total").get(), 3);
        for (stage, nanos) in [("plan", 1), ("fine", 20), ("scan", 300), ("select", 4000)] {
            let name = format!("search_{stage}_nanos_total");
            assert_eq!(registry.counter(&name).get(), nanos, "{name}");
        }
    }

    #[test]
    fn only_the_sliding_kernel_reports_jumps() {
        let registry = Registry::new();
        let t = SweepTelemetry::register(&registry);
        let sets = vec![CorrelationSet::from_candidates(
            Vec::new(),
            10,
            SearchWork {
                correlations: 50,
                sets_scanned: 2,
                matches: 0,
                hosts_pruned: 0,
                bound_evaluations: 0,
            },
        )];
        t.record_sweep(ScanKernel::Exhaustive, &sets, 0, &StageNanos::default());
        assert_eq!(registry.counter("search_skip_jumps_total").get(), 0);
        assert_eq!(registry.counter("search_windows_evaluated_total").get(), 50);
    }
}
