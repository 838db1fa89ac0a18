//! Property tests for the discrete-event queue — the determinism tiebreaker
//! the world queue leans on. Two invariants: (1) events scheduled for the
//! same instant pop in insertion order (FIFO within an instant), and
//! (2) no interleaving of schedules and pops ever yields a pop whose time
//! precedes an earlier pop (time never inverts).

use proptest::prelude::*;
use simcore::{EventQueue, SimTime};

/// One step of an interleaved workload: schedule an event `delay` units
/// after the queue's current time (tagged with an id), or pop.
#[derive(Debug, Clone)]
enum Op {
    Schedule(u32),
    Pop,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            2 => (0u32..20).prop_map(Op::Schedule),
            1 => Just(Op::Pop),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same-instant events pop in insertion order, for any batch shape.
    #[test]
    fn same_time_pops_in_insertion_order(batch_sizes in proptest::collection::vec(1usize..8, 1..12)) {
        let mut q: EventQueue<(usize, usize)> = EventQueue::new();
        // Batch i is scheduled entirely at time i (ascending), interleaved
        // with nothing else; ids record insertion order within the batch.
        for (t, &n) in batch_sizes.iter().enumerate() {
            for id in 0..n {
                q.schedule(SimTime(t as i32), (t, id));
            }
        }
        for (t, &n) in batch_sizes.iter().enumerate() {
            for id in 0..n {
                let (at, ev) = q.pop().expect("event present");
                prop_assert_eq!(at, SimTime(t as i32));
                prop_assert_eq!(ev, (t, id));
            }
        }
        prop_assert!(q.pop().is_none());
    }

    /// Arbitrary interleavings of schedule/pop on the day clock never invert
    /// time, and same-instant pops preserve schedule order.
    #[test]
    fn interleaved_schedule_pop_never_inverts_time(ops in arb_ops()) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut next_id: u64 = 0;
        let mut last: Option<(SimTime, u64)> = None;
        for op in &ops {
            match op {
                Op::Schedule(delay) => {
                    q.schedule_in(*delay as i32, next_id);
                    next_id += 1;
                }
                Op::Pop => {
                    if let Some((at, id)) = q.pop() {
                        prop_assert_eq!(at, q.now(), "pop advances now to its own time");
                        if let Some((prev_at, prev_id)) = last {
                            prop_assert!(at >= prev_at, "time inverted: {at} after {prev_at}");
                            if at == prev_at {
                                prop_assert!(
                                    id > prev_id,
                                    "FIFO broken at {at}: id {id} after {prev_id}"
                                );
                            }
                        }
                        last = Some((at, id));
                    }
                }
            }
        }
        // Drain the remainder: same invariant must hold to exhaustion.
        while let Some((at, id)) = q.pop() {
            if let Some((prev_at, prev_id)) = last {
                prop_assert!(at >= prev_at);
                if at == prev_at {
                    prop_assert!(id > prev_id);
                }
            }
            last = Some((at, id));
        }
    }
}
