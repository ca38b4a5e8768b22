//! A DEFLATE-style codec: LZ77 + canonical Huffman.
//!
//! Stands in for the paper's gzip/zlib codec. The container ("SDZ1") is
//! our own, but the compression machinery is DEFLATE's: a 32 KiB LZ77
//! window, the DEFLATE length/distance alphabets with extra bits, and
//! canonical Huffman tables transmitted as code lengths.

use crate::bitio::{BitReader, BitWriter};
use crate::checksum::crc32;
use crate::codec::Codec;
use crate::error::CompressError;
use crate::huffman::{build_lengths, read_lengths, write_lengths, Decoder, Encoder, MAX_CODE_LEN};
use crate::lz77::{tokenize, Token, MAX_MATCH, MIN_MATCH, WINDOW_SIZE};

const MAGIC: &[u8; 4] = b"SDZ1";
/// Block mode: raw bytes follow (the DEFLATE "stored" fallback for
/// incompressible data).
const MODE_STORED: u8 = 0;
/// Block mode: Huffman-coded token stream follows.
const MODE_HUFFMAN: u8 = 1;
/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Size of the literal/length alphabet (DEFLATE's 286).
const NUM_LITLEN: usize = 286;
/// Size of the distance alphabet (DEFLATE's 30).
const NUM_DIST: usize = 30;

/// (base length, extra bits) for length codes 257..=285.
const LENGTH_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// (base distance, extra bits) for distance codes 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// `len - MIN_MATCH` → length-code index, replacing the per-token linear
/// scan of `LENGTH_TABLE`. Built at compile time from the table so the
/// two can never drift.
const LENGTH_CODE_LUT: [u8; MAX_MATCH - MIN_MATCH + 1] = {
    let mut lut = [0u8; MAX_MATCH - MIN_MATCH + 1];
    let mut code = 0;
    while code < LENGTH_TABLE.len() {
        let base = LENGTH_TABLE[code].0 as usize;
        let top = if code + 1 < LENGTH_TABLE.len() {
            LENGTH_TABLE[code + 1].0 as usize
        } else {
            MAX_MATCH + 1
        };
        let mut len = base;
        while len < top {
            lut[len - MIN_MATCH] = code as u8;
            len += 1;
        }
        code += 1;
    }
    lut
};

const fn dist_code_index(dist: usize) -> u8 {
    let mut code = 0;
    let mut i = 0;
    while i < DIST_TABLE.len() {
        if dist >= DIST_TABLE[i].0 as usize {
            code = i;
        }
        i += 1;
    }
    code as u8
}

/// `dist - 1` → distance-code index for distances 1..=256.
const DIST_LUT_SMALL: [u8; 256] = {
    let mut lut = [0u8; 256];
    let mut d = 1;
    while d <= 256 {
        lut[d - 1] = dist_code_index(d);
        d += 1;
    }
    lut
};

/// `(dist - 1) >> 7` → distance-code index for distances 257..=32768.
/// Valid because every distance code ≥ 16 spans whole 128-byte-aligned
/// ranges (zlib's classic two-level trick).
const DIST_LUT_LARGE: [u8; 256] = {
    let mut lut = [0u8; 256];
    let mut idx = 2;
    while idx < 256 {
        lut[idx] = dist_code_index((idx << 7) + 1);
        idx += 1;
    }
    lut
};

#[inline]
fn length_code(len: usize) -> (usize, u16, u8) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let code = LENGTH_CODE_LUT[len - MIN_MATCH] as usize;
    let (base, extra) = LENGTH_TABLE[code];
    (257 + code, len as u16 - base, extra)
}

#[inline]
fn dist_code(dist: usize) -> (usize, u16, u8) {
    debug_assert!((1..=WINDOW_SIZE).contains(&dist));
    let code = if dist <= 256 {
        DIST_LUT_SMALL[dist - 1]
    } else {
        DIST_LUT_LARGE[(dist - 1) >> 7]
    } as usize;
    let (base, extra) = DIST_TABLE[code];
    (code, (dist - base as usize) as u16, extra)
}

/// Deflate-style codec. `max_chain` bounds the LZ77 hash-chain search and
/// trades compression ratio for speed (zlib's `level` analogue).
#[derive(Debug, Clone)]
pub struct DeflateCodec {
    max_chain: usize,
}

impl DeflateCodec {
    /// Default effort (comparable to zlib level 6).
    pub fn new() -> Self {
        DeflateCodec { max_chain: 128 }
    }

    /// Custom match-search effort.
    pub fn with_chain(max_chain: usize) -> Self {
        assert!(max_chain >= 1);
        DeflateCodec { max_chain }
    }
}

impl Default for DeflateCodec {
    fn default() -> Self {
        DeflateCodec::new()
    }
}

impl Codec for DeflateCodec {
    fn name(&self) -> &str {
        "deflate"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let tokens = tokenize(input, self.max_chain);

        // Gather symbol frequencies.
        let mut lit_freq = vec![0u64; NUM_LITLEN];
        let mut dist_freq = vec![0u64; NUM_DIST];
        for t in &tokens {
            match *t {
                Token::Literal(b) => lit_freq[b as usize] += 1,
                Token::Match { len, dist } => {
                    let (lc, _, _) = length_code(len as usize);
                    let (dc, _, _) = dist_code(dist as usize);
                    lit_freq[lc] += 1;
                    dist_freq[dc] += 1;
                }
            }
        }
        lit_freq[EOB] += 1;

        let lit_lengths = build_lengths(&lit_freq, MAX_CODE_LEN);
        let dist_lengths = build_lengths(&dist_freq, MAX_CODE_LEN);
        let lit_enc = Encoder::from_lengths(&lit_lengths);
        let dist_enc = Encoder::from_lengths(&dist_lengths);

        let mut out = Vec::with_capacity(input.len() / 3 + 64);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(input).to_le_bytes());

        let mut w = BitWriter::new();
        write_lengths(&mut w, &lit_lengths);
        write_lengths(&mut w, &dist_lengths);
        for t in &tokens {
            match *t {
                Token::Literal(b) => lit_enc.encode(&mut w, b as usize),
                Token::Match { len, dist } => {
                    let (lc, lextra, lbits) = length_code(len as usize);
                    lit_enc.encode(&mut w, lc);
                    if lbits > 0 {
                        w.write_bits(lextra as u64, lbits as u32);
                    }
                    let (dc, dextra, dbits) = dist_code(dist as usize);
                    dist_enc.encode(&mut w, dc);
                    if dbits > 0 {
                        w.write_bits(dextra as u64, dbits as u32);
                    }
                }
            }
        }
        lit_enc.encode(&mut w, EOB);
        let body = w.finish();
        // DEFLATE's "stored" fallback: never expand incompressible input
        // past one mode byte.
        if body.len() >= input.len() {
            out.push(MODE_STORED);
            out.extend_from_slice(input);
        } else {
            out.push(MODE_HUFFMAN);
            out.extend_from_slice(&body);
        }
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        if input.len() < 16 || &input[..4] != MAGIC {
            return Err(CompressError::BadMagic { expected: "SDZ1" });
        }
        let orig_len = u64::from_le_bytes(input[4..12].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(input[12..16].try_into().unwrap());
        let mode = *input
            .get(16)
            .ok_or_else(|| CompressError::Truncated("mode byte".into()))?;
        if mode == MODE_STORED {
            let body = &input[17..];
            if body.len() != orig_len {
                return Err(CompressError::Corrupt(format!(
                    "stored block is {} of declared {orig_len} bytes",
                    body.len()
                )));
            }
            let computed = crc32(body);
            if computed != stored_crc {
                return Err(CompressError::ChecksumMismatch {
                    stored: stored_crc,
                    computed,
                });
            }
            return Ok(body.to_vec());
        }
        if mode != MODE_HUFFMAN {
            return Err(CompressError::Corrupt(format!("unknown block mode {mode}")));
        }

        let mut r = BitReader::new(&input[17..]);
        let lit_lengths = read_lengths(&mut r)?;
        let dist_lengths = read_lengths(&mut r)?;
        if lit_lengths.len() != NUM_LITLEN || dist_lengths.len() != NUM_DIST {
            return Err(CompressError::Corrupt("bad alphabet sizes".into()));
        }
        let lit_dec = Decoder::from_lengths(&lit_lengths)?;
        let dist_dec = if dist_lengths.iter().any(|&l| l > 0) {
            Some(Decoder::from_lengths(&dist_lengths)?)
        } else {
            None
        };

        let mut out = Vec::with_capacity(orig_len);
        loop {
            let sym = lit_dec.decode(&mut r)?;
            match sym {
                0..=255 => out.push(sym as u8),
                256 => break,
                257..=285 => {
                    let (base, extra) = LENGTH_TABLE[sym - 257];
                    let len = base as usize + r.read_bits(extra as u32)? as usize;
                    let dd = dist_dec
                        .as_ref()
                        .ok_or_else(|| CompressError::Corrupt("match without distances".into()))?;
                    let dc = dd.decode(&mut r)?;
                    if dc >= NUM_DIST {
                        return Err(CompressError::Corrupt("bad distance code".into()));
                    }
                    let (dbase, dextra) = DIST_TABLE[dc];
                    let dist = dbase as usize + r.read_bits(dextra as u32)? as usize;
                    if dist == 0 || dist > out.len() {
                        return Err(CompressError::Corrupt(format!(
                            "distance {dist} exceeds output {}",
                            out.len()
                        )));
                    }
                    let start = out.len() - dist;
                    if dist >= len {
                        out.extend_from_within(start..start + len);
                    } else {
                        // Overlapping copy: each byte may be one this
                        // match just produced.
                        for k in 0..len {
                            let b = out[start + k];
                            out.push(b);
                        }
                    }
                }
                _ => return Err(CompressError::Corrupt(format!("bad symbol {sym}"))),
            }
            if out.len() > orig_len {
                return Err(CompressError::Corrupt(
                    "output exceeds declared size".into(),
                ));
            }
        }
        if out.len() != orig_len {
            return Err(CompressError::Corrupt(format!(
                "size mismatch: declared {orig_len}, produced {}",
                out.len()
            )));
        }
        let computed = crc32(&out);
        if computed != stored_crc {
            return Err(CompressError::ChecksumMismatch {
                stored: stored_crc,
                computed,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = DeflateCodec::new();
        let z = c.compress(data);
        assert_eq!(c.decompress(&z).unwrap(), data);
        z.len()
    }

    #[test]
    fn empty_input() {
        roundtrip(b"");
    }

    #[test]
    fn short_inputs() {
        roundtrip(b"a");
        roundtrip(b"abcde");
        roundtrip(&[0, 0, 0]);
    }

    #[test]
    fn text_compresses() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog."
            .repeat(20);
        let z = roundtrip(&data);
        assert!(z < data.len() / 4, "compressed {z} of {}", data.len());
    }

    #[test]
    fn grid_key_stream_compresses() {
        // The Fig. 3 workload shape (scaled down): triples of BE i32.
        let mut data = Vec::new();
        for x in 0..30i32 {
            for y in 0..30i32 {
                for z in 0..30i32 {
                    data.extend_from_slice(&x.to_be_bytes());
                    data.extend_from_slice(&y.to_be_bytes());
                    data.extend_from_slice(&z.to_be_bytes());
                }
            }
        }
        let z = roundtrip(&data);
        // gzip achieves ~13.6% on this stream in the paper (1.63MB/12MB).
        assert!(
            (z as f64) < data.len() as f64 * 0.25,
            "compressed {z} of {}",
            data.len()
        );
    }

    #[test]
    fn stored_fallback_bounds_expansion() {
        // Random bytes must cost at most header (16) + mode (1) extra.
        let c = DeflateCodec::new();
        let mut state = 11u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let z = c.compress(&data);
        assert!(z.len() <= data.len() + 17, "expanded to {}", z.len());
        assert_eq!(z[16], 0, "random data should take the stored path");
        assert_eq!(c.decompress(&z).unwrap(), data);
        // Stored blocks still verify CRC and length.
        let mut bad = z.clone();
        bad[40] ^= 1;
        assert!(c.decompress(&bad).is_err());
        assert!(c.decompress(&z[..z.len() - 1]).is_err());
    }

    #[test]
    fn incompressible_data_does_not_explode() {
        let mut state = 7u64;
        let data: Vec<u8> = (0..20_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let z = roundtrip(&data);
        assert!(z < data.len() + data.len() / 8 + 600);
    }

    #[test]
    fn length_code_boundaries() {
        assert_eq!(length_code(3).0, 257);
        assert_eq!(length_code(10).0, 264);
        assert_eq!(length_code(11).0, 265);
        assert_eq!(length_code(12).0, 265);
        assert_eq!(length_code(257).0, 284);
        assert_eq!(length_code(258).0, 285);
        // Extra bits reconstruct exactly.
        for len in MIN_MATCH..=MAX_MATCH {
            let (code, extra, bits) = length_code(len);
            let (base, tbits) = LENGTH_TABLE[code - 257];
            assert_eq!(bits, tbits);
            assert_eq!(base as usize + extra as usize, len);
        }
    }

    #[test]
    fn dist_code_boundaries() {
        for dist in 1..=WINDOW_SIZE {
            let (code, extra, bits) = dist_code(dist);
            let (base, tbits) = DIST_TABLE[code];
            assert_eq!(bits, tbits, "dist {dist}");
            assert_eq!(base as usize + extra as usize, dist);
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let c = DeflateCodec::new();
        let mut z = c.compress(b"hello world hello world");
        z[0] = b'X';
        assert!(matches!(
            c.decompress(&z),
            Err(CompressError::BadMagic { .. })
        ));
    }

    #[test]
    fn corrupt_payload_detected() {
        let c = DeflateCodec::new();
        let data = b"some reasonably long payload that actually compresses, repeated \
                     some reasonably long payload that actually compresses";
        let mut z = c.compress(data);
        // Flip a bit in the bitstream body (past the 16-byte header and
        // the Huffman tables which start right after).
        let i = z.len() - 3;
        z[i] ^= 0x10;
        assert!(c.decompress(&z).is_err());
    }

    #[test]
    fn truncated_stream_detected() {
        let c = DeflateCodec::new();
        let z = c.compress(&b"abcdefgh".repeat(100));
        assert!(c.decompress(&z[..z.len() - 4]).is_err());
        assert!(c.decompress(&z[..10]).is_err());
    }
}
