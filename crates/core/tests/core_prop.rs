//! Property tests for the paper's contribution layer.

use proptest::prelude::*;
use scihadoop_compress::{Codec, DeflateCodec, IdentityCodec};
use scihadoop_core::aggregate::{
    align_run, coalesce_adjacent, expand_record, overlap_split, AggregateKey, AggregateRecord,
    Aggregator,
};
use scihadoop_core::transform::{
    forward, inverse, ReferencePredictor, StridePredictor, TransformCodec, TransformConfig,
};
use scihadoop_grid::Coord;
use scihadoop_sfc::{CurveRun, HilbertCurve, ZOrderCurve};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The transform is a bijection for every detector configuration.
    #[test]
    fn transform_bijective_across_configs(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        max_stride in 1usize..48,
        cycle in prop_oneof![Just(32usize), Just(256), Just(1024)],
        run_threshold in 0u32..5,
    ) {
        for adaptive in [true, false] {
            let config = TransformConfig {
                max_stride,
                adaptive,
                selection_cycle: cycle,
                run_threshold,
                ..TransformConfig::default()
            };
            let t = forward(&config, &data);
            prop_assert_eq!(t.len(), data.len());
            prop_assert_eq!(inverse(&config, &t), data.clone());
        }
    }

    /// The transform codec composed with any inner codec is lossless.
    #[test]
    fn transform_codec_lossless(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        max_stride in 2usize..32,
    ) {
        let config = TransformConfig::adaptive(max_stride);
        for inner in [
            Arc::new(IdentityCodec) as Arc<dyn Codec>,
            Arc::new(DeflateCodec::new()),
        ] {
            let codec = TransformCodec::new(config.clone(), inner);
            let z = codec.compress(&data);
            prop_assert_eq!(codec.decompress(&z).unwrap(), data.clone());
        }
    }

    /// Aggregation + slicing is exact: any cell's value read through any
    /// record slice equals the pushed value, on both curves.
    #[test]
    fn aggregation_is_exact_on_both_curves(
        cells in proptest::collection::btree_map(
            (0u32..16, 0u32..16),
            any::<[u8; 2]>(),
            1..48,
        ),
    ) {
        for hilbert in [false, true] {
            let mut agg = if hilbert {
                Aggregator::new(HilbertCurve::with_bits(2, 4), 1 << 20)
            } else {
                Aggregator::new(ZOrderCurve::with_bits(2, 4), 1 << 20)
            };
            for (&(x, y), v) in &cells {
                agg.push(&Coord::new(vec![x as i32, y as i32]), v).unwrap();
            }
            let records = agg.flush();
            let total: u128 = records.iter().map(|r| r.key.cell_count()).sum();
            prop_assert_eq!(total as usize, cells.len());
            // Every record's payload length is consistent.
            for r in &records {
                prop_assert_eq!(r.values.len() as u128, r.key.cell_count() * 2);
            }
        }
    }

    /// Coalescing after overlap-splitting never loses or duplicates cells.
    #[test]
    fn split_then_coalesce_preserves_cells(
        ranges in proptest::collection::vec((0u64..100, 1u64..20), 1..8),
    ) {
        let records: Vec<AggregateRecord> = ranges
            .iter()
            .map(|&(start, len)| {
                AggregateRecord::new(
                    AggregateKey::new(0, CurveRun {
                        start: start as u128,
                        end: (start + len - 1) as u128,
                    }),
                    vec![7u8; len as usize],
                    1,
                )
                .unwrap()
            })
            .collect();
        let total: u128 = records.iter().map(|r| r.key.cell_count()).sum();
        let pieces = overlap_split(records, 1);
        let coalesced = coalesce_adjacent(pieces);
        let after: u128 = coalesced.iter().map(|r| r.key.cell_count()).sum();
        prop_assert_eq!(after, total);
        // Coalesced records never overlap-adjacent with same boundaries
        // except where inputs overlapped (duplicates may remain equal);
        // at minimum, payload lengths stay consistent.
        for r in &coalesced {
            prop_assert_eq!(r.values.len() as u128, r.key.cell_count());
        }
    }

    /// Alignment expansion always contains the original run and starts /
    /// ends on boundaries.
    #[test]
    fn alignment_contains_and_aligns(
        start in 0u128..10_000,
        len in 1u128..500,
        align_pow in 0u32..10,
    ) {
        let alignment = 1u128 << align_pow;
        let run = CurveRun { start, end: start + len - 1 };
        let a = align_run(run, alignment);
        prop_assert!(a.start <= run.start && a.end >= run.end);
        prop_assert_eq!(a.start % alignment, 0);
        prop_assert_eq!((a.end + 1) % alignment, 0);
        // Expansion is idempotent.
        prop_assert_eq!(align_run(a, alignment), a);
    }

    /// Expanded records read back the original values at original cells.
    #[test]
    fn expansion_preserves_values(
        start in 0u128..1000,
        len in 1u128..40,
        align_pow in 1u32..8,
    ) {
        let run = CurveRun { start, end: start + len - 1 };
        let values: Vec<u8> = (0..len as usize).map(|i| i as u8).collect();
        let rec = AggregateRecord::new(AggregateKey::new(0, run), values, 1).unwrap();
        let expanded = expand_record(&rec, 1 << align_pow, 1, &[0xEE]);
        for i in run.start..=run.end {
            prop_assert_eq!(
                expanded.value_at(i, 1).unwrap(),
                rec.value_at(i, 1).unwrap()
            );
        }
    }

    /// The optimized predictor hot path is byte-identical to the
    /// original full-set scan ([`ReferencePredictor`]) on arbitrary data
    /// and detector configurations, including the surviving active set.
    #[test]
    fn fast_predictor_equals_reference(
        data in proptest::collection::vec(any::<u8>(), 0..3000),
        max_stride in 1usize..40,
        cycle in prop_oneof![Just(32usize), Just(64), Just(256)],
        run_threshold in 0u32..4,
        adaptive in any::<bool>(),
    ) {
        let config = TransformConfig {
            max_stride,
            adaptive,
            selection_cycle: cycle,
            run_threshold,
            ..TransformConfig::default()
        };
        let mut fast = StridePredictor::new(config.clone());
        let mut slow = ReferencePredictor::new(config.clone());
        // Feed in uneven chunks so mid-stream state is also compared.
        let mut fast_out = Vec::new();
        let mut slow_out = Vec::new();
        for chunk in data.chunks(277) {
            fast_out.extend_from_slice(&fast.forward(chunk));
            slow_out.extend_from_slice(&slow.forward(chunk));
            prop_assert_eq!(fast.active_strides(), slow.active_strides());
        }
        prop_assert_eq!(&fast_out, &slow_out);
        let mut fast_inv = StridePredictor::new(config.clone());
        let mut slow_inv = ReferencePredictor::new(config);
        prop_assert_eq!(fast_inv.inverse(&fast_out), slow_inv.inverse(&slow_out));
    }
}

/// A median-segment-like stream: periodic records of `record_len` bytes
/// (4-byte length, two vint bytes, an 8-byte `(y, x)` key, random value
/// bytes), each key repeated 9× in a row, keys walking a `width`-wide
/// grid with random gaps.
fn record_stream(record_len: usize, width: i32, seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let (mut y, mut x) = (0i32, 0i32);
    let mut out = Vec::with_capacity(len + record_len * 9);
    while out.len() < len {
        for _ in 0..9 {
            out.extend_from_slice(&(record_len as u32 - 4).to_be_bytes());
            out.extend_from_slice(&[8, (record_len - 14) as u8]);
            out.extend_from_slice(&y.to_be_bytes());
            out.extend_from_slice(&x.to_be_bytes());
            for _ in 14..record_len {
                out.push(next() as u8);
            }
        }
        x += 1 + (next() % 3) as i32;
        if x >= width {
            x = 0;
            y += 1;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batch kernels stay byte- and state-identical to
    /// [`ReferencePredictor`] on record-structured streams spanning many
    /// selection cycles, fed in random chunks (down to single bytes),
    /// including thresholds above 1 and a zero run threshold. Besides the
    /// output, the per-stride hit counts, run lengths and active flags
    /// must match.
    #[test]
    fn fast_predictor_equals_reference_on_record_streams(
        stream in (18usize..27, 3i32..60, any::<u64>(), 8192usize..12288),
        max_stride in prop_oneof![Just(100usize), 20usize..100],
        detector in (
            prop_oneof![Just(32usize), Just(64), Just(256)],
            prop_oneof![Just((5u32, 6u32)), Just((7, 6)), Just((1, 2)), (0u32..8, 1u32..8)],
            prop_oneof![Just(0u32), 1u32..4],
            prop_oneof![Just(true), Just(true), Just(true), Just(false)],
        ),
        chunks in proptest::collection::vec(prop_oneof![Just(1usize), 2usize..400], 1..64),
    ) {
        let (record_len, width, seed, len) = stream;
        let (cycle, (hit_rate_num, hit_rate_den), run_threshold, adaptive) = detector;
        let data = record_stream(record_len, width, seed, len);
        let config = TransformConfig {
            max_stride,
            adaptive,
            selection_cycle: cycle,
            hit_rate_num,
            hit_rate_den,
            run_threshold,
            ..TransformConfig::default()
        };
        let mut sizes = chunks.iter().cycle();
        let mut fast = StridePredictor::new(config.clone());
        let mut slow = ReferencePredictor::new(config.clone());
        let mut fast_inv = StridePredictor::new(config.clone());
        let mut slow_inv = ReferencePredictor::new(config);
        let mut rest = &data[..];
        let mut next_report = 0;
        while !rest.is_empty() {
            let n = (*sizes.next().expect("non-empty")).min(rest.len());
            let (chunk, tail) = rest.split_at(n);
            rest = tail;
            let y = fast.forward(chunk);
            prop_assert_eq!(&y, &slow.forward(chunk));
            let x = fast_inv.inverse(&y);
            prop_assert_eq!(&x, &slow_inv.inverse(&y));
            prop_assert_eq!(&x[..], chunk);
            prop_assert_eq!(fast.active_strides(), slow.active_strides());
            if data.len() - rest.len() >= next_report || rest.is_empty() {
                next_report += 1024;
                prop_assert_eq!(fast.stride_reports(), slow.stride_reports());
                prop_assert_eq!(fast_inv.stride_reports(), slow_inv.stride_reports());
                prop_assert_eq!(
                    fast.mean_active_hit_rate().to_bits(),
                    slow.mean_active_hit_rate().to_bits()
                );
            }
        }
    }
}
