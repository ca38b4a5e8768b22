//! The byte-level split builder and plain-median mapper against the
//! `Coord`-based implementations they replaced, kept here as oracles:
//! splits must be byte-identical and the mapper must emit the same
//! (key, value) sequence — or fail with the same panic — on every input.

use proptest::prelude::*;
use scihadoop_grid::{Coord, DataType, GridError, GridKey, Shape, Variable, VariableId};
use scihadoop_mapreduce::{InputSplit, KvPair, Mapper};
use scihadoop_queries::median::PlainMedianMapper;
use scihadoop_queries::{dataset_splits, KeyLayout};
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------------
// Oracles: the Coord-based code, one object per cell.
// ---------------------------------------------------------------------------

fn oracle_decode(layout: &KeyLayout, bytes: &[u8]) -> Result<Coord, GridError> {
    let (key, _) = match layout {
        KeyLayout::Indexed { ndims, .. } => GridKey::read_indexed(bytes, *ndims)?,
        KeyLayout::Named { ndims, .. } => GridKey::read_named(bytes, *ndims)?,
    };
    Ok(key.coord)
}

fn oracle_splits(
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
    let mut splits = Vec::with_capacity(boxes.len());
    for b in boxes {
        let mut records = Vec::with_capacity(b.num_cells() as usize);
        for cell in b.cells() {
            let value = var.get(&cell)?;
            let mut vbytes = Vec::with_capacity(4);
            value.write_be(&mut vbytes);
            records.push(KvPair::new(layout.encode(&cell), vbytes));
        }
        splits.push(InputSplit::new(records));
    }
    Ok(splits)
}

fn oracle_offsets(ndims: usize, half: i32) -> Vec<Coord> {
    let mut out = vec![Coord::new(vec![-half; ndims])];
    loop {
        let last = out.last().expect("non-empty").clone();
        let mut next = last.clone();
        let mut d = ndims;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            if next[d] < half {
                next[d] += 1;
                for dd in d + 1..ndims {
                    next[dd] = -half;
                }
                break;
            }
        }
        out.push(next);
    }
}

struct OracleMapper {
    layout: KeyLayout,
    offsets: Vec<Coord>,
}

impl Mapper for OracleMapper {
    fn map(&self, key: &[u8], value: &[u8], out: &mut dyn scihadoop_mapreduce::Emit) {
        let coord = oracle_decode(&self.layout, key).expect("input key");
        for off in &self.offsets {
            let centre = &coord + off;
            out.emit(&self.layout.encode(&centre), value);
        }
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

const DTYPES: [DataType; 6] = [
    DataType::U8,
    DataType::I16,
    DataType::I32,
    DataType::I64,
    DataType::F32,
    DataType::F64,
];

/// Variable names: empty, short, the paper's, and one whose length needs
/// a two-byte vint.
fn name(choice: usize) -> String {
    match choice % 4 {
        0 => String::new(),
        1 => "t".to_string(),
        2 => "windspeed1".to_string(),
        _ => "w".repeat(130),
    }
}

fn layout(named: bool, index: i32, name_choice: usize, ndims: usize) -> KeyLayout {
    if named {
        KeyLayout::Named {
            name: name(name_choice),
            ndims,
        }
    } else {
        KeyLayout::Indexed { index, ndims }
    }
}

/// A variable of `ndims` dimensions (extents taken from the front of
/// `extents`) filled with pseudo-random bytes.
fn variable(ndims: usize, extents: [u32; 3], dtype: usize, seed: u64) -> Variable {
    let shape = Shape::new(extents[..ndims].to_vec());
    let mut var = Variable::zeros("g", DTYPES[dtype], shape).unwrap();
    let mut x = seed | 1;
    for b in var.raw_data_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
    var
}

/// Coordinate components biased toward the wrapping edges.
fn component() -> impl Strategy<Value = i32> {
    prop_oneof![
        any::<i32>(),
        -4i32..4,
        (0i32..3).prop_map(|k| i32::MAX - k),
        (0i32..3).prop_map(|k| i32::MIN + k),
    ]
}

fn emitted(mapper: &dyn Mapper, key: &[u8], value: &[u8]) -> Result<Vec<KvPair>, String> {
    let mut out = Vec::new();
    catch_unwind(AssertUnwindSafe(|| {
        mapper.map(key, value, &mut |k: &[u8], v: &[u8]| {
            out.push(KvPair::new(k.to_vec(), v.to_vec()))
        })
    }))
    .map_err(|payload| match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(_) => "non-string panic".to_string(),
    })?;
    Ok(out)
}

fn mappers(layout: &KeyLayout, window: u32) -> (PlainMedianMapper, OracleMapper) {
    let new = PlainMedianMapper::new(layout.clone(), window);
    let oracle = OracleMapper {
        layout: layout.clone(),
        offsets: oracle_offsets(layout.ndims(), (window as i32 - 1) / 2),
    };
    (new, oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn splits_are_byte_identical_to_the_oracle(
        ndims in 1usize..4,
        extents in (1u32..7, 1u32..7, 1u32..7),
        dtype in 0usize..6,
        seed in any::<u64>(),
        layout_choice in (any::<bool>(), any::<i32>(), 0usize..4),
        splits in 1usize..10,
    ) {
        let var = variable(ndims, [extents.0, extents.1, extents.2], dtype, seed);
        let (named, index, name_choice) = layout_choice;
        let layout = layout(named, index, name_choice, ndims);
        prop_assert_eq!(
            dataset_splits(&var, &layout, splits).unwrap(),
            oracle_splits(&var, &layout, splits).unwrap()
        );
        let wrong = KeyLayout::Indexed { index, ndims: ndims + 1 };
        prop_assert_eq!(
            dataset_splits(&var, &wrong, splits).unwrap_err(),
            oracle_splits(&var, &wrong, splits).unwrap_err()
        );
    }

    #[test]
    fn mapper_emits_what_the_oracle_emits(
        ndims in 1usize..4,
        coord in (component(), component(), component()),
        window in prop_oneof![Just(1u32), Just(3), Just(5)],
        layout_choice in (any::<bool>(), any::<i32>(), 0usize..4),
        input_choice in (any::<i32>(), 0usize..4),
        payload in (
            proptest::collection::vec(any::<u8>(), 0..5),
            proptest::collection::vec(any::<u8>(), 0..9),
        ),
    ) {
        let (trailing, value) = payload;
        let (named, index, name_choice) = layout_choice;
        let layout = layout(named, index, name_choice, ndims);
        // The input key's variable may differ from the layout's; decode
        // ignores it, and the emitted keys carry the layout's.
        let (input_index, input_name) = input_choice;
        let variable = match &layout {
            KeyLayout::Named { .. } => VariableId::Name(name(input_name)),
            KeyLayout::Indexed { .. } => VariableId::Index(input_index),
        };
        let components = [coord.0, coord.1, coord.2];
        let mut key = GridKey::new(variable, Coord::new(components[..ndims].to_vec())).to_bytes();
        key.extend_from_slice(&trailing);
        let (new, oracle) = mappers(&layout, window);
        let got = emitted(&new, &key, &value);
        prop_assert!(got.is_ok(), "well-formed key rejected: {:?}", got);
        prop_assert_eq!(got, emitted(&oracle, &key, &value));
    }

    #[test]
    fn malformed_keys_fail_like_the_oracle(
        ndims in 1usize..4,
        layout_choice in (any::<bool>(), any::<i32>(), 0usize..4),
        key in proptest::collection::vec(any::<u8>(), 0..20),
    ) {
        let (named, index, name_choice) = layout_choice;
        let layout = layout(named, index, name_choice, ndims);
        let (new, oracle) = mappers(&layout, 3);
        let value = [1u8, 2, 3, 4];
        prop_assert_eq!(emitted(&new, &key, &value), emitted(&oracle, &key, &value));
        prop_assert_eq!(
            layout.coord_bytes(&key).map(|c| c.to_vec()).map_err(|e| e.to_string()),
            oracle_decode(&layout, &key)
                .map(|c| c.components().iter().flat_map(|x| x.to_be_bytes()).collect())
                .map_err(|e| e.to_string())
        );
    }
}

/// Every truncation of a valid key fails the same way in both mappers,
/// including the short-name and short-coordinate cases random bytes
/// rarely reach.
#[test]
fn truncated_keys_fail_like_the_oracle() {
    for layout in [
        KeyLayout::Indexed { index: 3, ndims: 2 },
        KeyLayout::Named {
            name: "windspeed1".into(),
            ndims: 3,
        },
        KeyLayout::Named {
            name: name(3),
            ndims: 1,
        },
    ] {
        let key = layout.encode(&Coord::new(vec![7; layout.ndims()]));
        let (new, oracle) = mappers(&layout, 3);
        for cut in 0..=key.len() {
            let new_out = emitted(&new, &key[..cut], b"v");
            assert_eq!(new_out, emitted(&oracle, &key[..cut], b"v"), "cut {cut}");
            assert_eq!(new_out.is_ok(), cut == key.len(), "cut {cut}");
        }
    }
    // A name that is not UTF-8.
    let layout = KeyLayout::Named {
        name: "ab".into(),
        ndims: 1,
    };
    let key = [2u8, 0xff, 0xfe, 0, 0, 0, 1];
    let (new, oracle) = mappers(&layout, 3);
    let new_out = emitted(&new, &key, b"v");
    assert!(new_out.is_err());
    assert_eq!(new_out, emitted(&oracle, &key, b"v"));
}
