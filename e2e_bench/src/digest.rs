//! The correctness gate: an order-independent digest of a job's output.
//!
//! The reference answer is reduced to a [`Digest`] before any job is
//! timed, and the reference itself is dropped, so the gate costs three
//! words of memory instead of a second million-entry map living beside
//! the engine while it runs. Every timed job's output is digested the
//! same way and compared.

/// An order-independent fingerprint of a set of `(key, value)` records:
/// the record count plus the wrapping sum and the xor of a 64-bit hash
/// of each record. Equal record sets give equal digests in any order;
/// changing, adding or dropping one record changes the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    records: u64,
    sum: u64,
    xor: u64,
}

impl Digest {
    /// Fold one record into the digest.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        let h = record_hash(key, value);
        self.records += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h.rotate_left(29);
    }

    /// Fold one grid answer into the digest, keyed by the coordinate's
    /// big-endian components.
    pub fn add_cell(&mut self, coord: &[i32], value: i32) {
        let key: Vec<u8> = coord.iter().flat_map(|c| c.to_be_bytes()).collect();
        self.add(&key, &value.to_be_bytes());
    }

    /// The `records sum xor` line the reference subprocess prints.
    pub fn to_line(self) -> String {
        format!("{} {} {}", self.records, self.sum, self.xor)
    }

    /// Parse a [`Digest::to_line`] line.
    pub fn parse_line(line: &str) -> Option<Digest> {
        let mut parts = line.split_whitespace().map(|p| p.parse::<u64>().ok());
        let digest = Digest {
            records: parts.next()??,
            sum: parts.next()??,
            xor: parts.next()??,
        };
        parts.next().is_none().then_some(digest)
    }
}

/// FNV-1a over the key length, the key and the value, finished with the
/// splitmix64 mixer so that records differing in one bit differ across
/// the whole word before they are summed.
fn record_hash(key: &[u8], value: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let key_len = (key.len() as u64).to_le_bytes();
    for &b in key_len.iter().chain(key).chain(value) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let mut a = Digest::default();
        a.add(b"k1", b"v1");
        a.add(b"k2", b"v2");
        let mut b = Digest::default();
        b.add(b"k2", b"v2");
        b.add(b"k1", b"v1");
        assert_eq!(a, b);
        let mut c = Digest::default();
        c.add(b"k1", b"v1");
        c.add(b"k2", b"v3");
        assert_ne!(a, c);
        // Moving a byte from key to value makes a different record.
        let mut d = Digest::default();
        d.add(b"k", b"1v1");
        d.add(b"k2", b"v2");
        assert_ne!(a, d);
        assert_eq!(Digest::parse_line(&a.to_line()), Some(a));
        assert_eq!(Digest::parse_line("1 2"), None);
        assert_eq!(Digest::parse_line("1 2 3 4"), None);
    }
}
