//! Deterministic workload generators shared by the experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scihadoop_grid::{GridWalker, RowMajorWalker, Shape, Variable};

/// The Fig. 3 byte stream: "a raw stream of triples of 32-bit integers,
/// taken by walking a grid" — n³ cells × 12 bytes.
pub fn grid_key_stream(n: u32) -> Vec<u8> {
    RowMajorWalker::cube(n, 3).key_stream_be()
}

/// A synthetic stand-in for one map-output segment of the 2-D sliding
/// median (`median_transform`): an IFile header, then SequenceFile
/// records (4-byte length, key/value vints, 12-byte indexed key, 4-byte
/// value: 22 bytes each) in sorted key order. A `rows × cols` block of
/// window centres is walked row-major; each centre lands in this
/// segment's partition with probability 1/5 (five reducers) and then
/// appears 9× in a row, once per 3×3 neighbour, with a random cell value
/// in `[0, 1_000_000)`: the record shape the transform codec's
/// predictor sees on that workload.
pub fn median_segment_stream(rows: u32, cols: u32, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = b"SHIF\x02\x00".to_vec();
    for y in 0..rows as i32 {
        for x in 0..cols as i32 {
            if rng.random_range(0u32..5) != 0 {
                continue;
            }
            for _ in 0..9 {
                out.extend_from_slice(&18u32.to_be_bytes());
                out.extend_from_slice(&[12, 4]);
                out.extend_from_slice(&0i32.to_be_bytes());
                out.extend_from_slice(&y.to_be_bytes());
                out.extend_from_slice(&x.to_be_bytes());
                out.extend_from_slice(&rng.random_range(0i32..1_000_000).to_be_bytes());
            }
        }
    }
    out
}

/// The §I / Fig. 8 dataset: an n³ grid of integers.
pub fn int_cube(n: u32, seed: u64) -> Variable {
    Variable::random_i32("grid", Shape::cube(n, 3), 1_000_000, seed).expect("valid shape")
}

/// The cluster-experiment dataset: an n×n grid of integers (the paper
/// uses 8000×8000; experiments run a scaled-down grid and scale the
/// stats).
pub fn int_square(n: u32, seed: u64) -> Variable {
    Variable::random_i32("grid", Shape::new(vec![n, n]), 1_000_000, seed).expect("valid shape")
}

/// A float field named `windspeed1`, as in the paper's §I example.
pub fn windspeed_cube(n: u32, seed: u64) -> Variable {
    Variable::smooth_f32("windspeed1", Shape::cube(n, 3), seed).expect("valid shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_stream_size_matches_fig3() {
        assert_eq!(grid_key_stream(10).len(), 12_000);
        // The paper's full size: 100³ × 12 = 12,000,000 (too big for a
        // unit test to build twice, checked arithmetically).
        assert_eq!(100u64 * 100 * 100 * 12, 12_000_000);
    }

    #[test]
    fn datasets_are_deterministic() {
        assert_eq!(int_cube(8, 1).raw_data(), int_cube(8, 1).raw_data());
        assert_eq!(windspeed_cube(4, 2).name(), "windspeed1");
        assert_eq!(int_square(16, 3).shape().extents(), &[16, 16]);
    }
}
