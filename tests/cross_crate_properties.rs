//! Cross-crate property tests: for arbitrary generated inputs, the
//! private protocols must agree with plain set algebra, and the whole
//! privdb → rowcodec → protocol pipeline must round-trip.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use minshare::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn group() -> &'static QrGroup {
    static GROUP: OnceLock<QrGroup> = OnceLock::new();
    GROUP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xabcd);
        QrGroup::generate(&mut rng, 64).expect("group")
    })
}

/// Small-vocabulary value lists so that intersections are non-trivial.
fn values(max_len: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(0u8..12, 0..max_len)
        .prop_map(|v| v.into_iter().map(|b| vec![b]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn intersection_agrees_with_set_algebra(vs in values(12), vr in values(12), seed in any::<u64>()) {
        let g = group();
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(seed);
                intersection::run_sender(t, g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xffff);
                intersection::run_receiver(t, g, &vr, &mut rng)
            },
        ).expect("run");
        let s: BTreeSet<&Vec<u8>> = vs.iter().collect();
        let r: BTreeSet<&Vec<u8>> = vr.iter().collect();
        let expect: Vec<Vec<u8>> = s.intersection(&r).map(|v| (*v).clone()).collect();
        prop_assert_eq!(run.receiver.intersection, expect);
    }

    #[test]
    fn size_protocol_agrees_with_intersection_protocol(vs in values(12), vr in values(12), seed in any::<u64>()) {
        let g = group();
        let full = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(seed);
                intersection::run_sender(t, g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(seed ^ 1);
                intersection::run_receiver(t, g, &vr, &mut rng)
            },
        ).expect("run");
        let size = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(seed ^ 2);
                intersection_size::run_sender(t, g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(seed ^ 3);
                intersection_size::run_receiver(t, g, &vr, &mut rng)
            },
        ).expect("run");
        prop_assert_eq!(full.receiver.intersection.len(), size.receiver.intersection_size);
        // Both runs transfer identical bit counts (§6.1).
        prop_assert_eq!(full.total_bits(), size.total_bits());
    }

    #[test]
    fn equijoin_payloads_are_exact(vs in values(8), vr in values(8), seed in any::<u64>()) {
        let g = group();
        let cipher = HybridCipher::new(g.clone(), 16);
        let distinct: BTreeSet<&Vec<u8>> = vs.iter().collect();
        let entries: Vec<(Vec<u8>, Vec<u8>)> = distinct
            .iter()
            .map(|v| ((*v).clone(), (*v).clone()))
            .collect();
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(seed);
                equijoin::run_sender(t, g, &cipher, &entries, &mut rng)
            },
            |t| {
                let cipher = HybridCipher::new(g.clone(), 16);
                let mut rng = StdRng::seed_from_u64(seed ^ 9);
                equijoin::run_receiver(t, g, &cipher, &vr, &mut rng)
            },
        ).expect("run");
        // Every match carries its own value as payload, and the match set
        // is the intersection.
        let r: BTreeSet<&Vec<u8>> = vr.iter().collect();
        let expect: Vec<(Vec<u8>, Vec<u8>)> = distinct
            .iter()
            .filter(|v| r.contains(**v))
            .map(|v| ((*v).clone(), (*v).clone()))
            .collect();
        prop_assert_eq!(run.receiver.matches, expect);
    }

    #[test]
    fn equijoin_size_is_sum_of_products(vs in values(10), vr in values(10), seed in any::<u64>()) {
        let g = group();
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(seed);
                equijoin_size::run_sender(t, g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(seed ^ 5);
                equijoin_size::run_receiver(t, g, &vr, &mut rng)
            },
        ).expect("run");
        let mut s_counts: BTreeMap<&Vec<u8>, u64> = BTreeMap::new();
        for v in &vs {
            *s_counts.entry(v).or_insert(0) += 1;
        }
        let mut r_counts: BTreeMap<&Vec<u8>, u64> = BTreeMap::new();
        for v in &vr {
            *r_counts.entry(v).or_insert(0) += 1;
        }
        let expect: u64 = r_counts
            .iter()
            .map(|(v, d_r)| d_r * s_counts.get(*v).copied().unwrap_or(0))
            .sum();
        prop_assert_eq!(run.receiver.join_size, expect);
        // The class-intersection matrix must match the clear calculator.
        prop_assert_eq!(
            run.receiver.class_intersections,
            minshare::leakage::expected_class_intersections(&vr, &vs)
        );
    }

    #[test]
    fn rowcodec_values_survive_protocol(ints in proptest::collection::vec(any::<i64>(), 0..8), seed in any::<u64>()) {
        // Int values → canonical bytes → intersection → decode.
        let g = group();
        let vs: Vec<Vec<u8>> = ints
            .iter()
            .map(|i| rowcodec::encode_value(&Value::Int(*i)))
            .collect();
        let vr = vs.clone();
        let run = run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(seed);
                intersection::run_sender(t, g, &vs, &mut rng)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(seed ^ 7);
                intersection::run_receiver(t, g, &vr, &mut rng)
            },
        ).expect("run");
        // Identical sets → intersection is the deduplicated input, and
        // every element decodes back to an Int.
        let distinct: BTreeSet<&Vec<u8>> = vs.iter().collect();
        prop_assert_eq!(run.receiver.intersection.len(), distinct.len());
        for v in &run.receiver.intersection {
            let decoded = rowcodec::decode_value(v).expect("decode");
            prop_assert!(matches!(decoded, Value::Int(_)));
        }
    }
}

// ---------------------------------------------------------------------
// Engine-vs-serial-vs-naive differential suite: for arbitrary value
// sets (duplicates, empty sides, tiny overlaps all arise from the
// generator; the explicit edge test below pins the important shapes),
// the chunked, bucketed engine must agree with the serial reference
// modules — outputs *and* §6.1 op counts — for all four protocols at
// every bucket count, chunk size and sort budget, and both must agree
// with clear-text set algebra (`naive.rs`).
// ---------------------------------------------------------------------

/// `(V_S, ext, V_R)`.
type Inputs<'a> = (&'a [Vec<u8>], &'a [Vec<u8>], &'a [Vec<u8>]);

/// One point of the engine's configuration space.
struct Knobs<'a> {
    seed: u64,
    pool: &'a EncryptPool,
    pipe: PipelineConfig,
    cfg: ShardConfig,
}

impl Knobs<'_> {
    /// Both roles of `shape` through the engine, typed like the serial
    /// reference's outputs.
    fn run<SO, RO>(
        &self,
        shape: ProtocolShape<'_>,
        (vs, ext, vr): Inputs<'_>,
    ) -> TwoPartyRun<SO, RO>
    where
        SO: From<engine::SenderOutput> + Send,
        RO: From<engine::ReceiverOutput> + Send,
    {
        let (g, pool, pipe, cfg) = (group(), self.pool, self.pipe, &self.cfg);
        run_two_party(
            |t| {
                let mut rng = StdRng::seed_from_u64(self.seed);
                engine::run_sender(t, g, shape, vs, ext, &mut rng, pool, pipe, cfg).map(SO::from)
            },
            |t| {
                let mut rng = StdRng::seed_from_u64(self.seed ^ 0xaaaa);
                engine::run_receiver(t, g, shape, vr, &mut rng, pool, pipe, cfg).map(RO::from)
            },
        )
        .expect("engine")
    }

    /// The engine's outputs and op counts equal `reference`'s.
    fn assert_engine_matches<SO, RO>(
        &self,
        reference: &TwoPartyRun<SO, RO>,
        shape: ProtocolShape<'_>,
        inputs: Inputs<'_>,
    ) where
        SO: From<engine::SenderOutput> + Send + PartialEq + std::fmt::Debug,
        RO: From<engine::ReceiverOutput> + Send + PartialEq + std::fmt::Debug,
    {
        let run: TwoPartyRun<SO, RO> = self.run(shape, inputs);
        let at = (self.cfg.shards, self.pipe.chunk_size, self.cfg.mem_budget);
        assert_eq!(run.sender, reference.sender, "(B, chunk, budget) = {at:?}");
        assert_eq!(
            run.receiver, reference.receiver,
            "(B, chunk, budget) = {at:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pipelined_serial_and_naive_agree(
        vs in values(14),
        vr in values(14),
        seed in any::<u64>(),
    ) {
        let g = group();
        let pool = EncryptPool::new(2);
        let cipher = HybridCipher::new(g.clone(), 16);
        // ext(v) = v, so a wrong pairing shows in the payload.
        let entries: Vec<(Vec<u8>, Vec<u8>)> = vs.iter().map(|v| (v.clone(), v.clone())).collect();
        let (s_rng, r_rng) = (|| StdRng::seed_from_u64(seed), || StdRng::seed_from_u64(seed ^ 0xaaaa));
        let intersection = run_two_party(
            |t| intersection::run_sender(t, g, &vs, &mut s_rng()),
            |t| intersection::run_receiver(t, g, &vr, &mut r_rng()),
        ).expect("serial intersection");
        let equijoin = run_two_party(
            |t| equijoin::run_sender(t, g, &cipher, &entries, &mut s_rng()),
            |t| equijoin::run_receiver(t, g, &cipher, &vr, &mut r_rng()),
        ).expect("serial equijoin");
        let intersection_size = run_two_party(
            |t| intersection_size::run_sender(t, g, &vs, &mut s_rng()),
            |t| intersection_size::run_receiver(t, g, &vr, &mut r_rng()),
        ).expect("serial intersection-size");
        let equijoin_size = run_two_party(
            |t| equijoin_size::run_sender(t, g, &vs, &mut s_rng()),
            |t| equijoin_size::run_receiver(t, g, &vr, &mut r_rng()),
        ).expect("serial equijoin-size");
        let (clear, _) = minshare::naive::naive_intersection(&vs, &vr);
        prop_assert_eq!(&intersection.receiver.intersection, &clear);

        for shards in [1u32, 2, 5] {
            for chunk in [1usize, 3, usize::MAX] {
                for mem_budget in [64usize, ShardConfig::default().mem_budget] {
                    let at = Knobs {
                        seed,
                        pool: &pool,
                        pipe: PipelineConfig::chunked(chunk),
                        cfg: ShardConfig { shards, mem_budget, ..ShardConfig::default() },
                    };
                    at.assert_engine_matches(
                        &intersection, ProtocolShape::INTERSECTION, (&vs, &[], &vr));
                    at.assert_engine_matches(
                        &equijoin, ProtocolShape::equijoin(&cipher), (&vs, &vs, &vr));
                    at.assert_engine_matches(
                        &intersection_size, ProtocolShape::INTERSECTION_SIZE, (&vs, &[], &vr));
                    at.assert_engine_matches(
                        &equijoin_size, ProtocolShape::EQUIJOIN_SIZE, (&vs, &[], &vr));
                }
            }
        }
    }
}

#[test]
fn pipelined_edge_shapes_agree_with_naive() {
    let pool = EncryptPool::new(2);
    let cases: Vec<(Vec<Vec<u8>>, Vec<Vec<u8>>)> = vec![
        (vec![], vec![]),                                 // both empty
        (vec![], vec![vec![1], vec![2]]),                 // empty sender
        (vec![vec![1], vec![2]], vec![]),                 // empty receiver
        (vec![vec![7]], vec![vec![7]]),                   // singleton overlap
        (vec![vec![3]; 4], vec![vec![3], vec![4]]),       // sender all duplicates
        (vec![vec![1], vec![2]], vec![vec![3], vec![4]]), // disjoint
    ];
    for (vs, vr) in cases {
        let run: TwoPartyRun<
            minshare::intersection::IntersectionSenderOutput,
            minshare::intersection::IntersectionReceiverOutput,
        > = Knobs {
            seed: 31,
            pool: &pool,
            pipe: PipelineConfig::chunked(2),
            cfg: ShardConfig::default(),
        }
        .run(ProtocolShape::INTERSECTION, (&vs, &[], &vr));
        let (clear, _) = minshare::naive::naive_intersection(&vs, &vr);
        assert_eq!(run.receiver.intersection, clear, "vs={vs:?} vr={vr:?}");
    }
}

// ---------------------------------------------------------------------
// Equijoin-size multiset edges (§5.2).
// ---------------------------------------------------------------------

fn run_equijoin_size_pair(
    vs: &[Vec<u8>],
    vr: &[Vec<u8>],
) -> (
    minshare::equijoin_size::EquijoinSizeSenderOutput,
    minshare::equijoin_size::EquijoinSizeReceiverOutput,
) {
    let g = group();
    let run = run_two_party(
        |t| {
            let mut rng = StdRng::seed_from_u64(41);
            equijoin_size::run_sender(t, g, vs, &mut rng)
        },
        |t| {
            let mut rng = StdRng::seed_from_u64(42);
            equijoin_size::run_receiver(t, g, vr, &mut rng)
        },
    )
    .expect("run");
    (run.sender, run.receiver)
}

#[test]
fn equijoin_size_all_duplicates_single_class() {
    // Both sides hold one value many times: the join size is the product
    // of the multiplicities and the §5.2 leak collapses to one class
    // pair |VR(3) ∩ VS(5)| = 1.
    let vs = vec![b"dup".to_vec(); 5];
    let vr = vec![b"dup".to_vec(); 3];
    let (sender, receiver) = run_equijoin_size_pair(&vs, &vr);
    assert_eq!(receiver.join_size, 15);
    assert_eq!(
        receiver.class_intersections,
        minshare::leakage::expected_class_intersections(&vr, &vs)
    );
    assert_eq!(receiver.class_intersections, BTreeMap::from([((3, 5), 1)]));
    // Each party sees exactly the peer's duplicate distribution, nothing
    // about the value itself.
    assert_eq!(sender.peer_multiset_size, 3);
    assert_eq!(sender.peer_duplicate_distribution, BTreeMap::from([(3, 1)]));
    assert_eq!(receiver.peer_multiset_size, 5);
    assert_eq!(
        receiver.peer_duplicate_distribution,
        BTreeMap::from([(5, 1)])
    );
}

#[test]
fn equijoin_size_disjoint_duplicate_classes() {
    // No value crosses sides: the join is empty and the class matrix has
    // no entries — but the duplicate distributions still leak, exactly
    // as §5.2 concedes.
    let vs: Vec<Vec<u8>> = [b"a", b"a", b"b", b"b", b"c"].map(|v| v.to_vec()).into();
    let vr: Vec<Vec<u8>> = [b"d", b"d", b"d", b"e"].map(|v| v.to_vec()).into();
    let (sender, receiver) = run_equijoin_size_pair(&vs, &vr);
    assert_eq!(receiver.join_size, 0);
    assert!(receiver.class_intersections.is_empty());
    assert_eq!(
        receiver.class_intersections,
        minshare::leakage::expected_class_intersections(&vr, &vs)
    );
    // S's classes: two values twice, one once → {2: 2, 1: 1}.
    assert_eq!(
        receiver.peer_duplicate_distribution,
        BTreeMap::from([(1, 1), (2, 2)])
    );
    // R's classes: one value three times, one once.
    assert_eq!(
        sender.peer_duplicate_distribution,
        BTreeMap::from([(1, 1), (3, 1)])
    );
}

#[test]
fn equijoin_size_mixed_classes_match_leakage_prediction() {
    // Overlapping classes with different multiplicities on each side:
    // the |VR(d) ∩ VS(d')| matrix must match the clear calculator cell
    // for cell.
    let vs: Vec<Vec<u8>> = [b"x", b"x", b"x", b"y", b"z", b"z"]
        .map(|v| v.to_vec())
        .into();
    let vr: Vec<Vec<u8>> = [b"x", b"y", b"y", b"z", b"z", b"w"]
        .map(|v| v.to_vec())
        .into();
    let (_, receiver) = run_equijoin_size_pair(&vs, &vr);
    // x: 1×3, y: 2×1, z: 2×2 → join size 3 + 2 + 4 = 9.
    assert_eq!(receiver.join_size, 9);
    let expected = minshare::leakage::expected_class_intersections(&vr, &vs);
    assert_eq!(receiver.class_intersections, expected);
    assert_eq!(
        expected,
        BTreeMap::from([((1, 3), 1), ((2, 1), 1), ((2, 2), 1)])
    );
}
