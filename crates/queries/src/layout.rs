//! Key layouts and curve spaces shared by the queries.

use scihadoop_grid::writable::coord_from_be;
use scihadoop_grid::{Coord, GridError, GridKey, VariableId};
use scihadoop_sfc::{Curve, CurveIndex};
use std::sync::Arc;

/// How simple (per-cell) intermediate keys are serialized.
///
/// The paper's §I measures both spellings: the integer variable index
/// (16-byte keys for 3-D) and the `windspeed1` name (23-byte keys).
#[derive(Debug, Clone)]
pub enum KeyLayout {
    /// 4-byte variable index + 4 bytes per dimension.
    Indexed {
        /// Variable index stored in every key.
        index: i32,
        /// Dimensions per coordinate.
        ndims: usize,
    },
    /// Variable name (Hadoop `Text`) + 4 bytes per dimension.
    Named {
        /// Variable name stored in every key.
        name: String,
        /// Dimensions per coordinate.
        ndims: usize,
    },
}

impl KeyLayout {
    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        match self {
            KeyLayout::Indexed { ndims, .. } | KeyLayout::Named { ndims, .. } => *ndims,
        }
    }

    /// Serialize a coordinate under this layout.
    pub fn encode(&self, coord: &Coord) -> Vec<u8> {
        let variable = match self {
            KeyLayout::Indexed { index, .. } => VariableId::Index(*index),
            KeyLayout::Named { name, .. } => VariableId::Name(name.clone()),
        };
        GridKey::new(variable, coord.clone()).to_bytes()
    }

    /// Parse a coordinate back out of a serialized key. The key's
    /// variable is not checked against the layout's, and bytes past the
    /// coordinate are ignored.
    pub fn decode(&self, bytes: &[u8]) -> Result<Coord, GridError> {
        Ok(coord_from_be(self.coord_bytes(bytes)?))
    }

    /// The `4 * ndims` big-endian coordinate bytes of a serialized key:
    /// [`KeyLayout::decode`]'s checks and errors, without allocating.
    pub fn coord_bytes<'a>(&self, bytes: &'a [u8]) -> Result<&'a [u8], GridError> {
        match self {
            KeyLayout::Indexed { ndims, .. } => GridKey::coords_indexed(bytes, *ndims),
            KeyLayout::Named { ndims, .. } => GridKey::coords_named(bytes, *ndims),
        }
    }

    /// This layout's key for the origin. A coordinate's big-endian
    /// components written over its last `4 * ndims` bytes give
    /// [`KeyLayout::encode`] of that coordinate.
    pub fn template(&self) -> Vec<u8> {
        self.encode(&Coord::origin(self.ndims()))
    }

    /// Serialized key size for this layout.
    pub fn key_len(&self) -> usize {
        match self {
            KeyLayout::Indexed { ndims, .. } => 4 + 4 * ndims,
            KeyLayout::Named { name, ndims } => {
                // vint(len) is 1 byte for names up to 127 chars.
                1 + name.len() + 4 * ndims
            }
        }
    }
}

/// A space-filling curve over a coordinate space shifted by a bias, so
/// that window halos with negative coordinates (the paper's `(-1,-1)`)
/// still map to non-negative curve space.
#[derive(Clone)]
pub struct BiasedCurve {
    curve: Arc<dyn Curve>,
    bias: i32,
}

impl BiasedCurve {
    /// Wrap `curve`, adding `bias` to every coordinate component before
    /// encoding.
    pub fn new(curve: Arc<dyn Curve>, bias: i32) -> Self {
        assert!(bias >= 0, "bias must be non-negative");
        BiasedCurve { curve, bias }
    }

    /// The underlying curve.
    pub fn curve(&self) -> &Arc<dyn Curve> {
        &self.curve
    }

    /// The bias.
    pub fn bias(&self) -> i32 {
        self.bias
    }

    /// Curve index of a (possibly negative) coordinate.
    pub fn index_of(&self, coord: &Coord) -> Result<CurveIndex, GridError> {
        self.curve.index_of_coord(&coord.offset_all(self.bias))
    }

    /// Inverse of [`BiasedCurve::index_of`].
    pub fn coord_of(&self, index: CurveIndex) -> Result<Coord, GridError> {
        Ok(self.curve.coord_of_index(index)?.offset_all(-self.bias))
    }

    /// Total number of curve indices (the partitioner's span).
    pub fn span(&self) -> CurveIndex {
        let bits = self.curve.bits_per_dim() * self.curve.ndims() as u32;
        if bits >= 128 {
            CurveIndex::MAX
        } else {
            1u128 << bits
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_sfc::ZOrderCurve;

    #[test]
    fn layouts_roundtrip() {
        let coord = Coord::new(vec![3, -1, 7]);
        for layout in [
            KeyLayout::Indexed { index: 2, ndims: 3 },
            KeyLayout::Named {
                name: "windspeed1".into(),
                ndims: 3,
            },
        ] {
            let bytes = layout.encode(&coord);
            assert_eq!(bytes.len(), layout.key_len());
            assert_eq!(layout.decode(&bytes).unwrap(), coord);
        }
    }

    #[test]
    fn template_and_coord_bytes_agree_with_encode_and_decode() {
        let coord = Coord::new(vec![i32::MIN, -1, 7]);
        for layout in [
            KeyLayout::Indexed { index: 9, ndims: 3 },
            KeyLayout::Named {
                name: "windspeed1".into(),
                ndims: 3,
            },
        ] {
            let mut key = layout.template();
            let at = key.len() - 12;
            for (d, c) in coord.components().iter().enumerate() {
                key[at + 4 * d..at + 4 * d + 4].copy_from_slice(&c.to_be_bytes());
            }
            assert_eq!(key, layout.encode(&coord));
            key.push(0xAB); // trailing bytes are not coordinate bytes
            assert_eq!(layout.coord_bytes(&key).unwrap(), &key[at..at + 12]);
            for cut in 0..key.len() - 1 {
                assert_eq!(
                    layout.coord_bytes(&key[..cut]).unwrap_err(),
                    layout.decode(&key[..cut]).unwrap_err()
                );
            }
        }
    }

    #[test]
    fn layout_sizes_match_paper() {
        assert_eq!(KeyLayout::Indexed { index: 0, ndims: 3 }.key_len(), 16);
        assert_eq!(
            KeyLayout::Named {
                name: "windspeed1".into(),
                ndims: 3
            }
            .key_len(),
            23
        );
    }

    #[test]
    fn biased_curve_handles_negative_halo() {
        let bc = BiasedCurve::new(Arc::new(ZOrderCurve::with_bits(2, 6)), 1);
        let coord = Coord::new(vec![-1, -1]);
        let idx = bc.index_of(&coord).unwrap();
        assert_eq!(bc.coord_of(idx).unwrap(), coord);
        // Without bias the same coordinate errors.
        let raw = BiasedCurve::new(Arc::new(ZOrderCurve::with_bits(2, 6)), 0);
        assert!(raw.index_of(&coord).is_err());
    }

    #[test]
    fn span_covers_the_virtual_grid() {
        let bc = BiasedCurve::new(Arc::new(ZOrderCurve::with_bits(2, 6)), 1);
        assert_eq!(bc.span(), 1 << 12);
    }
}
