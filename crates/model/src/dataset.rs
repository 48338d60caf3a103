//! A data set: many trace streams plus their scenario instances.

use crate::scenario::{Scenario, ScenarioInstance, ScenarioName};
use crate::stack::StackTable;
use crate::stream::TraceStream;
use crate::time::TimeNs;
use std::collections::BTreeMap;

/// A collection of trace streams under analysis, with the scenario
/// instances recorded in them and a shared callstack table.
///
/// This is the unit both analyses consume: the paper's study runs over a
/// data set of ~19,500 streams / ~505,500 scenario instances.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// The trace streams, indexed by their [`crate::TraceId`] value.
    pub streams: Vec<TraceStream>,
    /// All scenario instances across all streams.
    pub instances: Vec<ScenarioInstance>,
    /// Callstack table shared by every stream in the set.
    pub stacks: StackTable,
    /// The scenarios present in the set, with their thresholds.
    pub scenarios: Vec<Scenario>,
}

impl Dataset {
    /// Creates an empty data set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stream holding `instance`.
    pub fn stream_of(&self, instance: &ScenarioInstance) -> Option<&TraceStream> {
        self.streams.get(instance.trace.0 as usize)
    }

    /// The scenario definition for `name`.
    pub fn scenario(&self, name: &ScenarioName) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| &s.name == name)
    }

    /// Instances of one scenario.
    pub fn instances_of<'a>(
        &'a self,
        name: &ScenarioName,
    ) -> impl Iterator<Item = &'a ScenarioInstance> + 'a {
        let name = *name;
        self.instances.iter().filter(move |i| i.scenario == name)
    }

    /// Total recorded execution time: the sum of instance durations
    /// (the paper's `Dscn` numerator source).
    pub fn total_instance_time(&self) -> TimeNs {
        self.instances.iter().map(ScenarioInstance::duration).sum()
    }

    /// Total number of events across all streams.
    pub fn total_events(&self) -> usize {
        self.streams.iter().map(TraceStream::len).sum()
    }

    /// A copy of the data set with every stream truncated at `at` (see
    /// [`TraceStream::truncated`]): instances starting at or after the
    /// cut are dropped, the rest have their end clipped. Used to test
    /// analysis robustness against mid-flight tracing cuts.
    pub fn truncated(&self, at: TimeNs) -> Dataset {
        Dataset {
            streams: self.streams.iter().map(|s| s.truncated(at)).collect(),
            instances: self
                .instances
                .iter()
                .filter(|i| i.t0 < at)
                .map(|i| ScenarioInstance {
                    t1: i.t1.min(at),
                    ..i.clone()
                })
                .collect(),
            stacks: self.stacks.clone(),
            scenarios: self.scenarios.clone(),
        }
    }
}

/// Counts of `instances` per scenario, sorted by name.
pub fn instance_counts(instances: &[ScenarioInstance]) -> BTreeMap<ScenarioName, usize> {
    let mut counts = BTreeMap::new();
    for i in instances {
        *counts.entry(i.scenario).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ThreadId, TraceId};
    use crate::scenario::Thresholds;
    use crate::stream::TraceStreamBuilder;

    fn tiny() -> Dataset {
        let mut ds = Dataset::new();
        ds.streams
            .push(TraceStreamBuilder::new(0).finish().unwrap());
        ds.scenarios.push(Scenario::new(
            ScenarioName::new("A"),
            Thresholds::new(TimeNs(10), TimeNs(20)),
        ));
        ds.instances.push(ScenarioInstance {
            trace: TraceId(0),
            scenario: "A".into(),
            tid: ThreadId(1),
            t0: TimeNs(0),
            t1: TimeNs(30),
        });
        ds.instances.push(ScenarioInstance {
            trace: TraceId(0),
            scenario: "B".into(),
            tid: ThreadId(2),
            t0: TimeNs(5),
            t1: TimeNs(10),
        });
        ds
    }

    #[test]
    fn lookups() {
        let ds = tiny();
        assert!(ds.scenario(&"A".into()).is_some());
        assert!(ds.scenario(&"Z".into()).is_none());
        assert_eq!(ds.instances_of(&"A".into()).count(), 1);
        assert_eq!(ds.total_instance_time(), TimeNs(35));
        assert_eq!(ds.total_events(), 0);
        assert!(ds.stream_of(&ds.instances[0]).is_some());
    }

    #[test]
    fn counts_group_by_scenario() {
        let ds = tiny();
        let counts = instance_counts(&ds.instances);
        assert_eq!(counts[&ScenarioName::new("A")], 1);
        assert_eq!(counts[&ScenarioName::new("B")], 1);
    }
}
