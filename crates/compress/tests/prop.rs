//! Property tests for the compression substrate.

use proptest::prelude::*;
use scihadoop_compress::bitio::{BitReader, BitWriter};
use scihadoop_compress::huffman::{self, Decoder, Encoder, MAX_CODE_LEN};
use scihadoop_compress::{
    lz, BzipCodec, Codec, CompressError, DeflateCodec, IdentityCodec, LzCodec, RleCodec,
};
use std::collections::HashMap;

fn all_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(IdentityCodec),
        Box::new(RleCodec),
        Box::new(DeflateCodec::new()),
        Box::new(DeflateCodec::with_chain(4)),
        Box::new(BzipCodec::with_level(1)),
        Box::new(LzCodec),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every codec round-trips arbitrary bytes.
    #[test]
    fn all_codecs_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        for codec in all_codecs() {
            let z = codec.compress(&data);
            prop_assert_eq!(
                codec.decompress(&z).unwrap(),
                data.clone(),
                "codec {}", codec.name()
            );
        }
    }

    /// Structured (repetitive) data must actually compress.
    #[test]
    fn repetitive_data_compresses(
        unit in proptest::collection::vec(any::<u8>(), 4..32),
        reps in 64usize..256,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        for codec in [
            Box::new(DeflateCodec::new()) as Box<dyn Codec>,
            Box::new(BzipCodec::with_level(1)),
            Box::new(LzCodec),
        ] {
            let z = codec.compress(&data);
            prop_assert!(
                z.len() < data.len() / 2,
                "{} produced {} from {}",
                codec.name(), z.len(), data.len()
            );
            prop_assert_eq!(codec.decompress(&z).unwrap(), data.clone());
        }
    }

    /// Truncating a compressed stream anywhere must error, never panic or
    /// return wrong data silently (except trivially-empty prefix cases).
    #[test]
    fn truncation_never_panics(
        data in proptest::collection::vec(any::<u8>(), 32..512),
        cut_frac in 0.0f64..0.99,
    ) {
        for codec in all_codecs() {
            if codec.name() == "identity" {
                continue; // identity is documented as integrity-free
            }
            let z = codec.compress(&data);
            let cut = ((z.len() as f64) * cut_frac) as usize;
            if let Ok(out) = codec.decompress(&z[..cut]) {
                prop_assert_eq!(out, data.clone(), "codec {}", codec.name());
            }
        }
    }

    /// Multi-block bzip inputs (spanning several 100 kB blocks) roundtrip.
    #[test]
    fn bzip_multi_block_roundtrip(seed in any::<u64>()) {
        let mut state = seed | 1;
        let data: Vec<u8> = (0..250_000)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if i % 5 == 0 { (state >> 33) as u8 } else { b'#' }
            })
            .collect();
        let c = BzipCodec::with_level(1);
        let z = c.compress(&data);
        prop_assert_eq!(c.decompress(&z).unwrap(), data);
    }

    /// Compression is deterministic (same input → same bytes), which the
    /// engine's byte accounting relies on.
    #[test]
    fn compression_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        for codec in all_codecs() {
            prop_assert_eq!(codec.compress(&data), codec.compress(&data));
        }
    }

    /// The lz frame's payload CRC catches every single-bit flip in any
    /// frame (stored or tokenized) before decoding returns bytes — the
    /// property the shuffle wire and spill path rely on. A flip that
    /// slips past would have to leave the CRC, the structural checks,
    /// *and* the decoded output all consistent; none may.
    #[test]
    fn lz_bit_flips_never_return_wrong_data(
        unit in proptest::collection::vec(any::<u8>(), 1..24),
        reps in 1usize..96,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let z = lz::compress(&data);
        let idx = ((z.len() as f64 - 1.0) * flip_frac) as usize;
        let mut bad = z.clone();
        bad[idx] ^= 1 << bit;
        if let Ok(out) = lz::decompress(&bad) {
            prop_assert_eq!(out, data, "flip at {}/{} went undetected", idx, z.len());
        }
    }

    /// Truncating an lz frame anywhere errors (the CRC or a structural
    /// check fires); no truncation panics or returns bytes.
    #[test]
    fn lz_truncation_always_detected(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        cut_frac in 0.0f64..0.999,
    ) {
        let z = lz::compress(&data);
        let cut = ((z.len() as f64) * cut_frac) as usize;
        prop_assert!(lz::decompress(&z[..cut]).is_err(), "cut at {}/{}", cut, z.len());
    }

    /// Feeding arbitrary bytes straight into the lz decoder never
    /// panics: it either errors or (for the rare accidentally-valid
    /// frame) returns without over-allocating.
    #[test]
    fn lz_decoder_survives_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = lz::decompress(&data);
    }

    /// The stored-mode escape bounds every frame: output never exceeds
    /// input + HEADER_LEN, even on incompressible input.
    #[test]
    fn lz_frames_are_size_bounded(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let z = lz::compress(&data);
        prop_assert!(z.len() <= data.len() + lz::HEADER_LEN);
    }
}

/// The bit-serial canonical Huffman decoder that the table decoder
/// replaced, kept as its oracle: read one bit at a time, most
/// significant code bit first, until the (length, code) pair names a
/// symbol.
struct BitSerialDecoder {
    codes: HashMap<(u32, u32), usize>,
    max_len: u32,
}

impl BitSerialDecoder {
    fn from_lengths(lengths: &[u32]) -> Self {
        let codes = huffman::canonical_codes(lengths)
            .into_iter()
            .zip(lengths)
            .enumerate()
            .filter(|(_, (_, &len))| len > 0)
            .map(|(sym, (code, &len))| ((len, code), sym))
            .collect();
        BitSerialDecoder {
            codes,
            max_len: lengths.iter().copied().max().unwrap_or(0),
        }
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<usize, CompressError> {
        let mut code = 0u32;
        for len in 1..=self.max_len {
            code = (code << 1) | r.read_bit()?;
            if let Some(&sym) = self.codes.get(&(len, code)) {
                return Ok(sym);
            }
        }
        Err(CompressError::Corrupt("invalid huffman code".into()))
    }
}

/// Valid code lengths: Huffman lengths of `freqs` limited to `max_len`
/// (raised until every live symbol fits), then with the symbols `drop`
/// marks given no code, which leaves an incomplete table with unmapped
/// entries. At least one symbol keeps its code.
fn code_lengths(freqs: &[u64], max_len: u32, drop: &[bool]) -> Vec<u32> {
    let live = freqs.iter().filter(|&&f| f > 0).count().max(1);
    let fit = usize::BITS - (live - 1).leading_zeros();
    let mut lengths = huffman::build_lengths(freqs, max_len.max(fit).min(MAX_CODE_LEN));
    let first = lengths.iter().position(|&l| l > 0).expect("a live symbol");
    for (i, l) in lengths.iter_mut().enumerate() {
        if i != first && drop.get(i).copied().unwrap_or(false) {
            *l = 0;
        }
    }
    lengths
}

/// Decode with both decoders until either errors or `limit` symbols are
/// read; the two must agree symbol by symbol and fail at the same one.
fn decode_both(lengths: &[u32], bytes: &[u8], limit: usize) -> Result<Vec<usize>, String> {
    let table = Decoder::from_lengths(lengths).map_err(|e| e.to_string())?;
    let oracle = BitSerialDecoder::from_lengths(lengths);
    let (mut rt, mut ro) = (BitReader::new(bytes), BitReader::new(bytes));
    let mut out = Vec::new();
    while out.len() < limit {
        match (table.decode(&mut rt), oracle.decode(&mut ro)) {
            (Ok(a), Ok(b)) if a == b => out.push(a),
            (Err(_), Err(_)) => break,
            (a, b) => return Err(format!("symbol {}: table {a:?}, oracle {b:?}", out.len())),
        }
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On random valid (complete or incomplete) code tables and symbol
    /// streams, the single-lookup table decoder returns exactly the
    /// oracle's symbols, and the encoded stream decodes back to itself.
    #[test]
    fn huffman_table_decode_matches_bit_serial_oracle(
        freqs in proptest::collection::vec(0u64..64, 2..300),
        max_len in 1u32..16,
        drop in proptest::collection::vec(any::<bool>(), 0..300),
        picks in proptest::collection::vec(any::<u32>(), 0..400),
    ) {
        let mut freqs = freqs;
        freqs[0] += 1;
        let lengths = code_lengths(&freqs, max_len, &drop);
        let symbols: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
        let stream: Vec<usize> = picks
            .iter()
            .map(|&p| symbols[p as usize % symbols.len()])
            .collect();
        let encoder = Encoder::from_lengths(&lengths);
        let mut w = BitWriter::new();
        for &sym in &stream {
            encoder.encode(&mut w, sym);
        }
        let bytes = w.finish();
        prop_assert_eq!(decode_both(&lengths, &bytes, stream.len()), Ok(stream));
    }

    /// A stream cut inside a code, or bits that start no code of an
    /// incomplete table, make both decoders return `Err` at the same
    /// symbol — never a panic, never a symbol the oracle would not read.
    /// Symbols wholly before the cut still decode to the originals.
    #[test]
    fn huffman_decode_errors_on_truncated_and_unmapped_codes(
        freqs in proptest::collection::vec(0u64..64, 2..300),
        max_len in 1u32..16,
        drop in proptest::collection::vec(any::<bool>(), 0..300),
        picks in proptest::collection::vec(any::<u32>(), 1..200),
        cut_frac in 0.0f64..1.0,
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut freqs = freqs;
        freqs[0] += 1;
        let lengths = code_lengths(&freqs, max_len, &drop);
        let symbols: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
        let stream: Vec<usize> = picks
            .iter()
            .map(|&p| symbols[p as usize % symbols.len()])
            .collect();
        let encoder = Encoder::from_lengths(&lengths);
        let mut w = BitWriter::new();
        for &sym in &stream {
            encoder.encode(&mut w, sym);
        }
        let bytes = w.finish();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let decoded = decode_both(&lengths, &bytes[..cut], stream.len());
        prop_assert!(decoded.is_ok(), "{:?}", decoded);
        let decoded = decoded.unwrap();
        prop_assert_eq!(&decoded[..], &stream[..decoded.len()]);
        let whole: u64 = stream.iter().map(|&s| u64::from(lengths[s])).sum();
        if (cut as u64) * 8 < whole {
            prop_assert!(decoded.len() < stream.len(), "read past the cut");
        }
        // Arbitrary bits: errors wherever the oracle errors.
        let result = decode_both(&lengths, &garbage, usize::MAX);
        prop_assert!(result.is_ok(), "{:?}", result);
    }
}
