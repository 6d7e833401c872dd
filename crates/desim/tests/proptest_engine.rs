//! Property tests for the discrete-event engine: ordering and
//! determinism under arbitrary workloads.

use desim::{Engine, Model, Scheduler, VirtualTime};
use proptest::prelude::*;

/// A model that records every delivery (time, id).
struct Recorder {
    log: Vec<(u64, usize)>,
}

impl Model for Recorder {
    type Event = usize;
    fn handle(&mut self, now: VirtualTime, id: usize, _sched: &mut Scheduler<usize>) {
        self.log.push((now.as_nanos(), id));
    }
}

proptest! {
    /// Deliveries are sorted by time; ties preserve scheduling order.
    #[test]
    fn deliveries_sorted_and_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut e = Engine::new(Recorder { log: Vec::new() });
        for (id, &t) in times.iter().enumerate() {
            e.prime_at(VirtualTime(t), id);
        }
        e.run();
        let log = &e.model().log;
        prop_assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "out of order: {:?}", w);
            if w[0].0 == w[1].0 {
                // FIFO among equal timestamps == ascending id (we primed in id order)
                prop_assert!(w[0].1 < w[1].1, "tie broken wrongly: {:?}", w);
            }
        }
    }

    /// Running the same workload twice yields the identical log.
    #[test]
    fn runs_are_deterministic(times in proptest::collection::vec(0u64..10_000, 1..100)) {
        let run = |times: &[u64]| {
            let mut e = Engine::new(Recorder { log: Vec::new() });
            for (id, &t) in times.iter().enumerate() {
                e.prime_at(VirtualTime(t), id);
            }
            e.run();
            e.into_model().log
        };
        prop_assert_eq!(run(&times), run(&times));
    }

}
