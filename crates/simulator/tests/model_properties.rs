//! Property-based tests of the simulator's model enforcement and the
//! router's delivery guarantees, over randomly generated (legal and
//! illegal) schedules.

use dc_simulator::router::{route_batch, Packet};
use dc_simulator::{Machine, SimError};
use dc_topology::{DualCube, Hypercube, Routed, Topology};
use proptest::prelude::*;

proptest! {
    /// Any single-dimension pairwise exchange on a hypercube is legal and
    /// delivers exactly one message per node.
    #[test]
    fn hypercube_dimension_exchanges_always_legal(m in 1u32..=6, dim in 0u32..6) {
        let dim = dim % m;
        let q = Hypercube::new(m);
        let mut machine = Machine::new(&q, (0..q.num_nodes() as u64).collect::<Vec<_>>());
        let delivered = machine.try_cycle(|c| c.message(|u, &s| Some((u ^ (1usize << dim), s)), |s, _, v| *s = v).pairwise()).unwrap();
        prop_assert_eq!(delivered, q.num_nodes());
        // Values swapped across the dimension.
        for (u, &s) in machine.states().iter().enumerate() {
            prop_assert_eq!(s, (u ^ (1usize << dim)) as u64);
        }
    }

    /// A random many-to-one plan either succeeds with ≤1 message per
    /// receiver or is rejected with a receive conflict — never silently
    /// drops or duplicates.
    #[test]
    fn random_plans_conserve_messages(seed: u64, m in 2u32..=4) {
        let q = Hypercube::new(m);
        let n = q.num_nodes();
        let mut x = seed | 1;
        let mut next = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        // Each node sends to a random neighbour or stays silent.
        let plan: Vec<Option<usize>> = (0..n)
            .map(|u| {
                let r = next() as usize;
                if r.is_multiple_of(3) { None } else { Some(q.neighbors(u)[r % m as usize]) }
            })
            .collect();
        let sends = plan.iter().flatten().count();
        let mut machine = Machine::new(&q, vec![0u8; n]);
        let result = machine.try_cycle(|c| c.message(|u, _| plan[u].map(|d| (d, ())), |_, _, _| {}));
        match result {
            Ok(delivered) => {
                prop_assert_eq!(delivered, sends, "all messages delivered");
                // Legal ⇒ destinations were all distinct.
                let mut dsts: Vec<usize> = plan.iter().flatten().copied().collect();
                dsts.sort_unstable();
                dsts.dedup();
                prop_assert_eq!(dsts.len(), sends);
            }
            Err(SimError::RecvConflict { .. }) => {
                // Illegal ⇒ some destination repeated.
                let mut dsts: Vec<usize> = plan.iter().flatten().copied().collect();
                let before = dsts.len();
                dsts.sort_unstable();
                dsts.dedup();
                prop_assert!(dsts.len() < before, "conflict reported but plan had distinct receivers");
            }
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    /// The router delivers every packet of a random batch, each no earlier
    /// than its distance, and the makespan is bounded by distance +
    /// (batch size − 1) under 1-port serialisation.
    #[test]
    fn router_latency_bounds(seed: u64, n in 2u32..=4) {
        let d = DualCube::new(n);
        let nodes = d.num_nodes();
        let mut x = seed | 1;
        let mut next = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x as usize };
        let batch: Vec<Packet> = (0..nodes / 2)
            .map(|_| Packet { src: next() % nodes, dst: next() % nodes })
            .collect();
        let r = route_batch(&d, &batch, |a, b| d.route(a, b)).unwrap();
        for (i, p) in batch.iter().enumerate() {
            let dist = d.distance(p.src, p.dst) as u64;
            if p.src == p.dst {
                prop_assert_eq!(r.latencies[i], 0);
            } else {
                prop_assert!(r.latencies[i] >= dist, "packet {i} beat its distance");
                prop_assert!(r.latencies[i] <= r.makespan);
            }
        }
        // Safe upper bound: at least one packet advances every cycle, and
        // the total hop budget is the sum of distances.
        let total: u64 = batch.iter().map(|p| d.distance(p.src, p.dst) as u64).sum();
        prop_assert!(r.makespan <= total);
    }

    /// Metrics are additive: splitting work over two machines and summing
    /// equals doing it on one (the accounting has no cross-talk).
    #[test]
    fn metrics_are_additive(rounds_a in 1u64..5, rounds_b in 1u64..5) {
        let q = Hypercube::new(3);
        let run = |rounds: u64| {
            let mut m = Machine::new(&q, vec![1u64; 8]);
            for i in 0..rounds {
                m.cycle(|c| c.message(|u, &s| Some((u ^ (1usize << (i % 3)), s)), |s, _, v| *s += v).pairwise());
                m.compute(1, |_, _| {});
            }
            m.metrics().clone()
        };
        let a = run(rounds_a);
        let b = run(rounds_b);
        let ab = run(rounds_a + rounds_b);
        prop_assert_eq!(a.comm_steps + b.comm_steps, ab.comm_steps);
        prop_assert_eq!(a.messages + b.messages, ab.messages);
        prop_assert_eq!(a.comp_steps + b.comp_steps, ab.comp_steps);
    }
}
