//! Cross-crate correctness: the simulated algorithms against sequential
//! references, over randomised inputs, multiple monoids (including
//! non-commutative ones), all feasible machine sizes, and both large-input
//! generalisations.

use dc_core::ops::{Concat, Mat2, Max, Monoid, Sum, Xor};
use dc_core::prefix::dualcube::{d_prefix, Step5Mode};
use dc_core::prefix::hypercube::cube_prefix;
use dc_core::prefix::large::d_prefix_large;
use dc_core::prefix::{sequential_prefix, PrefixKind};
use dc_core::run::Recording;
use dc_core::sort::bitonic;
use dc_core::sort::dualcube::d_sort;
use dc_core::sort::hypercube::cube_bitonic_sort;
use dc_core::sort::large::d_sort_large;
use dc_core::sort::SortOrder;
use dc_topology::{DualCube, Hypercube, RecDualCube, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn check_prefix_everywhere<M: Monoid + PartialEq + std::fmt::Debug>(
    make: impl Fn(usize, &mut StdRng) -> M,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for n in 1..=5u32 {
        let d = DualCube::new(n);
        let input: Vec<M> = (0..d.num_nodes()).map(|i| make(i, &mut rng)).collect();
        for kind in [PrefixKind::Inclusive, PrefixKind::Diminished] {
            let expect = sequential_prefix(&input, kind);
            for mode in [Step5Mode::PaperFaithful, Step5Mode::LocalFold] {
                let run = d_prefix(&d, &input, kind, mode, Recording::Off);
                assert_eq!(run.prefixes, expect, "D_{n} {kind:?} {mode:?}");
            }
        }
    }
}

#[test]
fn d_prefix_sums_match_reference() {
    check_prefix_everywhere(|_, rng| Sum(rng.gen_range(-1000..1000)), 1);
}

#[test]
fn d_prefix_noncommutative_concat_matches_reference() {
    check_prefix_everywhere(
        |i, _| Concat(((b'a' + (i % 26) as u8) as char).to_string()),
        2,
    );
}

#[test]
fn d_prefix_noncommutative_matrices_match_reference() {
    check_prefix_everywhere(
        |_, rng| {
            Mat2([
                [rng.gen_range(-3..=3), rng.gen_range(-3..=3)],
                [rng.gen_range(-3..=3), rng.gen_range(-3..=3)],
            ])
        },
        3,
    );
}

#[test]
fn d_prefix_max_and_xor_match_reference() {
    check_prefix_everywhere(|_, rng| Max(rng.gen_range(-50..50)), 4);
    check_prefix_everywhere(|_, rng| Xor(rng.gen()), 5);
}

#[test]
fn cube_prefix_matches_reference_across_dims() {
    let mut rng = StdRng::seed_from_u64(7);
    for m in 1..=10u32 {
        let q = Hypercube::new(m);
        let input: Vec<Sum> = (0..q.num_nodes())
            .map(|_| Sum(rng.gen_range(-99..99)))
            .collect();
        let run = cube_prefix(&q, &input, PrefixKind::Inclusive, Recording::Off);
        assert_eq!(
            run.prefixes,
            sequential_prefix(&input, PrefixKind::Inclusive)
        );
    }
}

#[test]
fn large_prefix_agrees_with_flat_prefix() {
    let mut rng = StdRng::seed_from_u64(11);
    let d = DualCube::new(3);
    for k in [1usize, 3, 8] {
        let input: Vec<Concat> = (0..d.num_nodes() * k)
            .map(|_| Concat(((b'a' + rng.gen_range(0..26)) as char).to_string()))
            .collect();
        let run = d_prefix_large(&d, &input, PrefixKind::Inclusive);
        assert_eq!(
            run.prefixes,
            sequential_prefix(&input, PrefixKind::Inclusive),
            "k={k}"
        );
    }
}

#[test]
fn both_network_sorts_agree_with_std_sort() {
    let mut rng = StdRng::seed_from_u64(13);
    for n in 1..=5u32 {
        let rec = RecDualCube::new(n);
        let q = Hypercube::new(2 * n - 1);
        let keys: Vec<i64> = (0..rec.num_nodes())
            .map(|_| rng.gen_range(-500..500))
            .collect();
        let mut expect = keys.clone();
        expect.sort();
        let dual = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
        let cube = cube_bitonic_sort(&q, &keys, SortOrder::Ascending, Recording::Off);
        assert_eq!(dual.output, expect, "D_{n}");
        assert_eq!(cube.output, expect, "Q_{}", 2 * n - 1);

        expect.reverse();
        let dual = d_sort(&rec, &keys, SortOrder::Descending, Recording::Off);
        assert_eq!(dual.output, expect, "D_{n} descending");
    }
}

#[test]
fn network_sorts_agree_with_sequential_bitonic_network() {
    // The simulated schedules and the in-memory Batcher network must agree
    // on every input (they realise the same comparison network family).
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..20 {
        let mut keys: Vec<u16> = (0..32).map(|_| rng.gen_range(0..64)).collect();
        let rec = RecDualCube::new(3);
        let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
        bitonic::bitonic_sort(&mut keys, SortOrder::Ascending);
        assert_eq!(run.output, keys);
    }
}

#[test]
fn large_sort_agrees_with_std_sort() {
    let mut rng = StdRng::seed_from_u64(19);
    for (n, k) in [(2u32, 5usize), (3, 4), (4, 2)] {
        let rec = RecDualCube::new(n);
        let keys: Vec<u32> = (0..rec.num_nodes() * k)
            .map(|_| rng.gen_range(0..10_000))
            .collect();
        let mut expect = keys.clone();
        expect.sort();
        let run = d_sort_large(&rec, &keys, SortOrder::Ascending);
        assert_eq!(run.output, expect, "n={n} k={k}");
        let mut expect_desc = expect.clone();
        expect_desc.reverse();
        let run = d_sort_large(&rec, &keys, SortOrder::Descending);
        assert_eq!(run.output, expect_desc, "n={n} k={k} descending");
    }
}

#[test]
fn sort_handles_adversarial_patterns() {
    let rec = RecDualCube::new(4);
    let n = rec.num_nodes();
    let patterns: Vec<(&str, Vec<i32>)> = vec![
        ("already sorted", (0..n as i32).collect()),
        ("reverse sorted", (0..n as i32).rev().collect()),
        ("all equal", vec![5; n]),
        (
            "organ pipe",
            (0..n as i32 / 2).chain((0..n as i32 / 2).rev()).collect(),
        ),
        ("alternating", (0..n as i32).map(|i| i % 2).collect()),
        ("single swap", {
            let mut v: Vec<i32> = (0..n as i32).collect();
            v.swap(0, n - 1);
            v
        }),
    ];
    for (name, keys) in patterns {
        let mut expect = keys.clone();
        expect.sort();
        let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
        assert_eq!(run.output, expect, "pattern: {name}");
    }
}

#[test]
fn zero_one_principle_exhaustive_d3_sampled_dense() {
    // 2^32 inputs is too many; cover all 0-1 inputs with ≤ 2 ones and a
    // dense random sample — together with the exhaustive D_2 unit test and
    // the monotone structure of comparison networks this pins the network.
    let rec = RecDualCube::new(3);
    let n = rec.num_nodes();
    let mut inputs: Vec<Vec<u8>> = Vec::new();
    inputs.push(vec![0; n]);
    for i in 0..n {
        let mut v = vec![0; n];
        v[i] = 1;
        inputs.push(v);
        for j in (i + 1)..n {
            let mut v = vec![0; n];
            v[i] = 1;
            v[j] = 1;
            inputs.push(v);
        }
    }
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..200 {
        inputs.push((0..n).map(|_| rng.gen_range(0..=1) as u8).collect());
    }
    for keys in inputs {
        let run = d_sort(&rec, &keys, SortOrder::Ascending, Recording::Off);
        assert!(
            SortOrder::Ascending.is_sorted(&run.output),
            "failed on {keys:?}"
        );
    }
}

/// The README's payload-lanes example, kept honest: 16 lanes through
/// `batched_d_prefix` are bit-identical to 16 single runs and to the
/// sequential reference, share one schedule's step counts, and charge
/// `K × messages` words.
#[test]
fn readme_payload_lanes_example() {
    use dc_core::prefix::dualcube::batched_d_prefix;

    let d = DualCube::new(3);
    let inputs: Vec<Vec<Sum>> = (0..16)
        .map(|k| (0..32).map(|i| Sum(k + i)).collect())
        .collect();
    let batch = batched_d_prefix(&d, &inputs, PrefixKind::Inclusive, Step5Mode::PaperFaithful);
    for (input, lane) in inputs.iter().zip(&batch.prefixes) {
        let single = d_prefix(
            &d,
            input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Off,
        );
        assert_eq!(lane, &single.prefixes);
        assert_eq!(lane, &sequential_prefix(input, PrefixKind::Inclusive));
    }
    assert_eq!(batch.metrics.comm_steps, 7);
    assert_eq!(batch.metrics.message_words, 16 * batch.metrics.messages);
}
