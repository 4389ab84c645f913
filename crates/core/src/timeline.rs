//! The timing analysis of Fig. 9: a wall-clock timeline of the framework's
//! first seconds, built from an actual pipeline trace plus the
//! communication and device models of [`emap_net`]. The search part of
//! each refresh is priced from measured work, which a pipeline run over a
//! [`MeteredCloud`] records.

use std::cell::RefCell;
use std::time::Duration;

use emap_edge::EdgeTracker;
use emap_net::{InitialLatency, TrackingMetric};
use emap_search::{CorrelationSet, Query, SearchWork};

use crate::{CloudEndpoint, CloudService, EmapConfig, EmapError, RunTrace};

/// An in-process [`CloudService`] that records the [`SearchWork`] of each
/// search behind its refreshes — the cost [`Timeline::from_trace`] prices
/// `Δ_CS` from, which [`CloudEndpoint`] does not return. It reads the work
/// by running the batch's search once more: the same result, as long as
/// nothing ingests meanwhile. Decisions are the wrapped service's.
#[derive(Debug)]
pub struct MeteredCloud {
    service: CloudService,
    /// The work of every search served so far, in order.
    pub searches: RefCell<Vec<SearchWork>>,
}

impl MeteredCloud {
    /// Meters `service`.
    #[must_use]
    pub fn new(service: CloudService) -> Self {
        MeteredCloud {
            service,
            searches: RefCell::default(),
        }
    }
}

impl CloudEndpoint for MeteredCloud {
    fn refresh_batch(
        &self,
        queries: &[Query],
        trackers: &mut [&mut EdgeTracker],
    ) -> Vec<Result<(), EmapError>> {
        if let Ok(sets) = self.service.search_batch(queries) {
            let mut searches = self.searches.borrow_mut();
            searches.extend(sets.iter().map(CorrelationSet::work));
        }
        self.service.refresh_batch(queries, trackers)
    }
}

/// One event on the modeled timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineEvent {
    /// One second of samples finished acquiring (`t_k` boundaries).
    SamplingComplete {
        /// Iteration index.
        iteration: usize,
    },
    /// The input second was transmitted to the cloud (a cloud call was
    /// issued; instances *a* and *e* in Fig. 9).
    CloudCallIssued {
        /// Iteration whose second was transmitted.
        iteration: usize,
        /// Modeled upload duration (Δ_EC).
        upload: Duration,
    },
    /// The cloud search completed and the correlation set was downloaded
    /// (instances *c* and *h* in Fig. 9).
    CorrelationSetInstalled {
        /// Iteration at whose start the set was installed.
        iteration: usize,
        /// The modeled `Δ_initial` decomposition of this call.
        latency: InitialLatency,
    },
    /// One edge-tracking iteration completed.
    TrackingComplete {
        /// Iteration index.
        iteration: usize,
        /// `P_A` after the iteration.
        probability: f64,
        /// Signals still tracked.
        tracked: usize,
        /// Modeled tracking duration on the edge device.
        duration: Duration,
    },
}

impl TimelineEvent {
    /// The iteration this event belongs to.
    #[must_use]
    pub fn iteration(&self) -> usize {
        match self {
            TimelineEvent::SamplingComplete { iteration }
            | TimelineEvent::CloudCallIssued { iteration, .. }
            | TimelineEvent::CorrelationSetInstalled { iteration, .. }
            | TimelineEvent::TrackingComplete { iteration, .. } => *iteration,
        }
    }
}

/// The modeled timeline of one pipeline run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    /// Events in iteration order.
    pub events: Vec<TimelineEvent>,
}

impl Timeline {
    /// Builds the timeline from a pipeline trace, the work of the searches
    /// behind its refreshes (the k-th applied refresh is priced from
    /// `searches[k]`, as [`MeteredCloud`] records them; a missing entry
    /// prices as no work) and the configured comm / device models, a
    /// tracking step priced as the area scan the edge runs.
    #[must_use]
    pub fn from_trace(config: &EmapConfig, trace: &RunTrace, searches: &[SearchWork]) -> Self {
        let mut events = Vec::new();
        let mut searches = searches.iter();
        for outcome in &trace.iterations {
            events.push(TimelineEvent::SamplingComplete {
                iteration: outcome.iteration,
            });
            if outcome.refresh_applied {
                let work = searches.next().copied().unwrap_or_default();
                events.push(TimelineEvent::CorrelationSetInstalled {
                    iteration: outcome.iteration,
                    latency: InitialLatency::compute(
                        config.comm(),
                        config.cloud_device(),
                        work.correlations,
                        config.search().top_k() as u64,
                    ),
                });
            }
            if let Some(pa) = outcome.probability {
                events.push(TimelineEvent::TrackingComplete {
                    iteration: outcome.iteration,
                    probability: pa,
                    tracked: outcome.tracked,
                    duration: config.edge_device().tracking_time(
                        (outcome.tracked + outcome.removed) as u64,
                        TrackingMetric::AreaBetweenCurves,
                    ),
                });
            }
            if outcome.cloud_call_issued {
                events.push(TimelineEvent::CloudCallIssued {
                    iteration: outcome.iteration,
                    upload: config.comm().upload_time(256),
                });
            }
        }
        Timeline { events }
    }

    /// The `Δ_initial` of the first completed cloud call, if any.
    #[must_use]
    pub fn initial_latency(&self) -> Option<InitialLatency> {
        self.events.iter().find_map(|e| match e {
            TimelineEvent::CorrelationSetInstalled { latency, .. } => Some(*latency),
            _ => None,
        })
    }

    /// Whether every tracking iteration fit inside the one-second real-time
    /// budget (§III's constraint on subsequent time-steps).
    #[must_use]
    pub fn tracking_is_realtime(&self) -> bool {
        self.events.iter().all(|e| match e {
            TimelineEvent::TrackingComplete { duration, .. } => *duration < Duration::from_secs(1),
            _ => true,
        })
    }

    /// Iterations at which cloud calls were issued (the re-search cadence;
    /// the paper lands at roughly every five iterations).
    #[must_use]
    pub fn cloud_call_iterations(&self) -> Vec<usize> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TimelineEvent::CloudCallIssued { iteration, .. } => Some(*iteration),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmapPipeline;
    use emap_datasets::{RecordingFactory, SignalClass};

    fn trace_and_config() -> (EmapConfig, RunTrace, Vec<SearchWork>) {
        let factory = RecordingFactory::new(3);
        let config = EmapConfig::default()
            .with_edge(emap_edge::EdgeConfig::default().with_h(3).unwrap())
            .with_cloud_latency_iterations(2);
        let cloud = MeteredCloud::new(CloudService::new(
            config.search(),
            crate::test_corpus(3, 3).into_shared(),
            1,
        ));
        let mut p = EmapPipeline::with_cloud(config, cloud);
        let rec = factory.anomaly_recording(SignalClass::Seizure, "in", 14.0);
        let trace = p.run_on_samples(rec.channels()[0].samples()).unwrap();
        (config, trace, p.cloud().searches.take())
    }

    #[test]
    fn metered_cloud_records_one_search_per_refresh() {
        let (_, trace, searches) = trace_and_config();
        let applied = trace.iterations.iter().filter(|o| o.refresh_applied);
        assert_eq!(searches.len(), applied.count());
        assert!(searches.iter().all(|w| w.correlations > 0));
    }

    #[test]
    fn timeline_has_sampling_event_per_iteration() {
        let (config, trace, searches) = trace_and_config();
        let tl = Timeline::from_trace(&config, &trace, &searches);
        let samples = tl
            .events
            .iter()
            .filter(|e| matches!(e, TimelineEvent::SamplingComplete { .. }))
            .count();
        assert_eq!(samples, trace.iterations.len());
    }

    #[test]
    fn first_call_produces_initial_latency() {
        let (config, trace, searches) = trace_and_config();
        let tl = Timeline::from_trace(&config, &trace, &searches);
        let lat = tl.initial_latency().expect("a cloud call completed");
        assert!(lat.total() > Duration::ZERO);
        assert!(lat.meets_comm_budgets());
    }

    #[test]
    fn tracking_fits_realtime_budget() {
        let (config, trace, searches) = trace_and_config();
        let tl = Timeline::from_trace(&config, &trace, &searches);
        assert!(tl.tracking_is_realtime());
    }

    #[test]
    fn first_cloud_call_is_iteration_zero() {
        let (config, trace, searches) = trace_and_config();
        let tl = Timeline::from_trace(&config, &trace, &searches);
        assert_eq!(tl.cloud_call_iterations().first(), Some(&0));
    }

    #[test]
    fn events_are_iteration_ordered() {
        let (config, trace, searches) = trace_and_config();
        let tl = Timeline::from_trace(&config, &trace, &searches);
        let mut prev = 0;
        for e in &tl.events {
            assert!(e.iteration() >= prev);
            prev = e.iteration();
        }
    }
}
