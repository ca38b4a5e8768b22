//! Bit-granular I/O, LSB-first (the DEFLATE convention).

use crate::error::CompressError;

/// Accumulates bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Append the low `n` bits of `bits` (LSB emitted first). `n <= 57`.
    pub fn write_bits(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 57, "write_bits limited to 57 bits per call");
        debug_assert!(n == 64 || bits >> n == 0, "value wider than bit count");
        self.acc |= bits << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Append a Huffman code given MSB-first (codes are conventionally
    /// built MSB-first; DEFLATE streams them bit-reversed).
    pub fn write_code_msb(&mut self, code: u32, len: u32) {
        let rev = (code.reverse_bits()) >> (32 - len);
        self.write_bits(rev as u64, len);
    }

    /// Pad to a byte boundary with zero bits.
    pub fn align_byte(&mut self) {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Number of complete bytes written so far.
    pub fn byte_len(&self) -> usize {
        self.out.len()
    }

    /// Finish (byte-aligning) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Read from `data`, starting at its first byte.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `n` bits (`n <= 57`), LSB-first.
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CompressError> {
        debug_assert!(n <= 57);
        self.refill();
        if self.nbits < n {
            return Err(CompressError::Truncated(format!(
                "wanted {n} bits, {} left",
                self.nbits
            )));
        }
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let v = self.acc & mask;
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// The next `n` bits (`n <= 56`) without consuming them, zero past
    /// the end of the data, and how many of them are real.
    pub fn peek_bits(&mut self, n: u32) -> (u64, u32) {
        debug_assert!(n <= 56);
        if self.nbits < n {
            self.refill();
        }
        let avail = self.nbits.min(n);
        (self.acc & ((1u64 << avail) - 1), avail)
    }

    /// Drop `n` bits that [`peek_bits`](Self::peek_bits) reported real.
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.nbits);
        self.acc >>= n;
        self.nbits -= n;
    }

    /// Read one bit.
    pub fn read_bit(&mut self) -> Result<u32, CompressError> {
        Ok(self.read_bits(1)? as u32)
    }

    /// Discard bits up to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Bits still available (buffered plus unread bytes).
    pub fn bits_remaining(&self) -> u64 {
        self.nbits as u64 + 8 * (self.data.len() - self.pos) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b1010, 4);
        w.write_bits(0x3FFF, 14);
        w.write_bits(0, 3);
        w.write_bits(0x1FFFFF, 21);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 0b1);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
        assert_eq!(r.read_bits(14).unwrap(), 0x3FFF);
        assert_eq!(r.read_bits(3).unwrap(), 0);
        assert_eq!(r.read_bits(21).unwrap(), 0x1FFFFF);
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1); // bit 0 of byte 0
        w.write_bits(0b11, 2); // bits 1-2
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0111]);
    }

    #[test]
    fn code_msb_is_bit_reversed() {
        let mut w = BitWriter::new();
        // Code 0b110 (MSB-first) must appear as 0b011 LSB-first.
        w.write_code_msb(0b110, 3);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0011]);
    }

    #[test]
    fn truncation_is_an_error() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn peek_reports_real_bits_and_zero_pads() {
        let mut r = BitReader::new(&[0b1010_1100, 0xFF]);
        assert_eq!(r.peek_bits(4), (0b1100, 4));
        r.consume(3);
        assert_eq!(r.read_bits(5).unwrap(), 0b10101);
        assert_eq!(r.peek_bits(12), (0xFF, 8));
        r.consume(8);
        assert_eq!(r.peek_bits(1), (0, 0));
        assert_eq!(r.bits_remaining(), 0);
    }

    #[test]
    fn align_byte_discards_partial() {
        let mut r = BitReader::new(&[0xFF, 0x01]);
        r.read_bits(3).unwrap();
        r.align_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0x01);
    }

    #[test]
    fn bits_remaining_tracks_consumption() {
        let mut r = BitReader::new(&[0, 0, 0, 0]);
        assert_eq!(r.bits_remaining(), 32);
        r.read_bits(5).unwrap();
        assert_eq!(r.bits_remaining(), 27);
    }
}
