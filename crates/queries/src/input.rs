//! Building MapReduce input splits from grid datasets.

use crate::layout::KeyLayout;
use scihadoop_grid::{BoundingBox, GridError, Variable};
use scihadoop_mapreduce::{obs, InputSplit, KvPair};

/// Carve a variable into `num_splits` input splits along its longest
/// dimension — the engine's analogue of SciHadoop handing each mapper a
/// contiguous block of the array. Each record is `(encoded coordinate,
/// big-endian value bytes)`, in row-major order within its split.
///
/// The splits are built on one thread per host CPU, each taking a
/// contiguous run of them; the result is in split order regardless.
pub fn dataset_splits(
    var: &Variable,
    layout: &KeyLayout,
    num_splits: usize,
) -> Result<Vec<InputSplit>, GridError> {
    if layout.ndims() != var.shape().ndims() {
        return Err(GridError::DimensionMismatch {
            expected: var.shape().ndims(),
            actual: layout.ndims(),
        });
    }
    let boxes = var.bounds().split_longest(num_splits);
    let template = layout.template();
    let build = |chunk: &[BoundingBox]| -> Vec<InputSplit> {
        chunk.iter().map(|b| box_split(var, &template, b)).collect()
    };
    let threads = (obs::host_cpus() as usize).clamp(1, boxes.len());
    if threads == 1 {
        return Ok(build(&boxes));
    }
    let per_thread = boxes.len().div_ceil(threads);
    Ok(std::thread::scope(|s| {
        let handles: Vec<_> = boxes
            .chunks(per_thread)
            .map(|chunk| s.spawn(move || build(chunk)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    }))
}

/// One box's records in row-major order. Keys are `template` with the
/// coordinate bytes overwritten; values are copied straight out of the
/// variable's big-endian cell bytes.
fn box_split(var: &Variable, template: &[u8], b: &BoundingBox) -> InputSplit {
    let extents = b.shape().extents();
    let corner = b.corner().components();
    let ndims = extents.len();
    let strides = var.shape().strides();
    let size = var.dtype().size_bytes();
    let data = var.raw_data();
    let coord_at = template.len() - 4 * ndims;
    let put = |key: &mut [u8], d: usize, c: i32| {
        key[coord_at + 4 * d..coord_at + 4 * d + 4].copy_from_slice(&c.to_be_bytes());
    };

    let mut records = Vec::with_capacity(b.num_cells() as usize);
    let mut key = template.to_vec();
    // Odometer over the box's rows (every dimension but the last); each
    // row is one contiguous run of cells in the variable.
    let last = ndims.checked_sub(1);
    let row_dims = last.unwrap_or(0);
    let row_len = last.map_or(1, |l| extents[l] as usize);
    let mut row = vec![0u32; row_dims];
    loop {
        let mut first = last.map_or(0, |l| corner[l] as u64 * strides[l]);
        for d in 0..row_dims {
            let c = corner[d].wrapping_add(row[d] as i32);
            put(&mut key, d, c);
            first += c as u64 * strides[d];
        }
        let first = first as usize;
        let cells = &data[first * size..(first + row_len) * size];
        for (j, value) in cells.chunks_exact(size).enumerate() {
            if let Some(l) = last {
                put(&mut key, l, corner[l].wrapping_add(j as i32));
            }
            records.push(KvPair::new(key.clone(), value.to_vec()));
        }
        let mut d = row_dims;
        loop {
            if d == 0 {
                return InputSplit::new(records);
            }
            d -= 1;
            row[d] += 1;
            if row[d] < extents[d] {
                break;
            }
            row[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_grid::Shape;

    #[test]
    fn splits_cover_every_cell_once() {
        let var = Variable::random_i32("t", Shape::new(vec![6, 5]), 100, 1).unwrap();
        let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
        let splits = dataset_splits(&var, &layout, 4).unwrap();
        assert_eq!(splits.len(), 4);
        let total: usize = splits.iter().map(|s| s.records.len()).sum();
        assert_eq!(total, 30);
        // All keys distinct.
        let mut keys: Vec<Vec<u8>> = splits
            .iter()
            .flat_map(|s| s.records.iter().map(|r| r.key.clone()))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 30);
    }

    #[test]
    fn record_values_match_the_grid() {
        let var = Variable::random_i32("t", Shape::new(vec![4, 4]), 50, 7).unwrap();
        let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
        let splits = dataset_splits(&var, &layout, 2).unwrap();
        for split in &splits {
            for rec in &split.records {
                let coord = layout.decode(&rec.key).unwrap();
                let expected = var.get(&coord).unwrap();
                let mut buf = Vec::new();
                expected.write_be(&mut buf);
                assert_eq!(rec.value, buf);
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let var = Variable::random_i32("t", Shape::new(vec![4, 4]), 50, 7).unwrap();
        let layout = KeyLayout::Indexed { index: 0, ndims: 3 };
        assert!(dataset_splits(&var, &layout, 2).is_err());
    }

    #[test]
    fn dataset_byte_arithmetic_matches_intro() {
        // The §I numbers: 100³ f32 grid, 4-int keys → 26 B/record in
        // SequenceFile framing. Verify key/value sizes here (the full
        // file-size reproduction lives in the bench harness).
        let layout = KeyLayout::Indexed { index: 0, ndims: 3 };
        assert_eq!(layout.key_len() + 4, 20); // + 6 framing = 26
    }
}
