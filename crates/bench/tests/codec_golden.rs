//! Golden bytes for the transform codec on a median-like segment.
//!
//! The predictor and Huffman kernels are rewritten for speed from time
//! to time; their output format is not allowed to change with them. The
//! CRCs below were captured from the per-byte predictor and the
//! bit-serial Huffman decoder, so any kernel that alters a single output
//! byte (and with it the job's `intermediate_bytes`) fails here.

use scihadoop_bench::workloads::median_segment_stream;
use scihadoop_compress::{crc32, Codec, DeflateCodec};
use scihadoop_core::transform::{StridePredictor, TransformCodec, TransformConfig};
use std::sync::Arc;

#[test]
fn transform_deflate_output_is_pinned_on_a_median_segment() {
    let segment = median_segment_stream(48, 96, 7);
    assert_eq!(segment.len(), 6 + 22 * 9 * 904);
    assert_eq!(crc32(&segment), 2623388385, "generator changed");

    let residual = StridePredictor::new(TransformConfig::default()).forward(&segment);
    assert_eq!(
        crc32(&residual),
        990425961,
        "predictor forward output changed"
    );

    let codec = TransformCodec::with_defaults(Arc::new(DeflateCodec::new()));
    let z = codec.compress(&segment);
    assert_eq!(
        (z.len(), crc32(&z)),
        (44272, 2788077945),
        "transform+deflate bytes changed"
    );
    assert_eq!(codec.decompress(&z).unwrap(), segment);
}
