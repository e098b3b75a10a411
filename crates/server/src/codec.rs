//! The byte layout shared by the wire protocol and the write-ahead log.
//!
//! This module is the one definition of how the server's fields look in
//! bytes; [`protocol`](crate::protocol) builds its frames and messages,
//! and [`wal`](crate::wal) its frame headers and records, from these
//! pieces alone:
//!
//! - an integer is a little-endian `u32` or `u64`;
//! - a bool is one byte, `0` or `1`;
//! - flags are a `u32` count, then one bool byte each;
//! - a string is a `u32` byte length, then UTF-8;
//! - a high-water mark is a `u64`: `0` = none, `k + 1` = `k`;
//! - a clock is a `u32` length, then its `u32` components; a
//!   fixed-width clock is the components alone, for a reader that knows
//!   the width (a snapshot's clocks have one component per process);
//! - an optional value is a bool byte, then the value when it is `1`;
//! - a list is a `u32` count, then the items;
//! - a witness is an optional list of clocks.
//!
//! Decoding never panics: a short, malformed or oversized input reads
//! as `None`. No count reserves memory before the bytes left are checked
//! to hold that many items.

/// Appends `v` as a little-endian `u32`.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as a little-endian `u64`.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as one `0`/`1` byte.
pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a `u32` count, then one bool byte per flag.
pub(crate) fn put_flags(out: &mut Vec<u8>, flags: &[bool]) {
    put_u32(out, flags.len() as u32);
    out.extend(flags.iter().map(|&b| u8::from(b)));
}

/// Appends a `u32` byte length, then the UTF-8 bytes.
pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a high-water mark as a `u64`: `0` = none, `k + 1` = `k`,
/// so no separate presence byte is needed.
pub(crate) fn put_high_water(out: &mut Vec<u8>, v: Option<u32>) {
    put_u64(out, v.map_or(0, |k| u64::from(k) + 1));
}

/// Appends a `u32` length, then the components.
pub(crate) fn put_clock(out: &mut Vec<u8>, clock: &[u32]) {
    put_u32(out, clock.len() as u32);
    put_fixed_clock(out, clock);
}

/// Appends the components alone; the reader must know the width.
pub(crate) fn put_fixed_clock(out: &mut Vec<u8>, clock: &[u32]) {
    out.reserve(4 * clock.len());
    for &c in clock {
        put_u32(out, c);
    }
}

/// Appends a bool byte, then `value` through `put` when present.
pub(crate) fn put_option<T>(
    out: &mut Vec<u8>,
    value: Option<T>,
    put: impl FnOnce(&mut Vec<u8>, T),
) {
    put_bool(out, value.is_some());
    if let Some(value) = value {
        put(out, value);
    }
}

/// Appends a `u32` count, then every item through `put`.
pub(crate) fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    for item in items {
        put(out, item);
    }
}

/// Appends a witness: an optional list of clocks.
pub(crate) fn put_witness(out: &mut Vec<u8>, witness: Option<&[Vec<u32>]>) {
    put_option(out, witness, |out, cut| {
        put_list(out, cut, |out, clock| put_clock(out, clock));
    });
}

/// Reads a little-endian `u32` from exactly four bytes (a length
/// prefix read whole off a stream).
pub(crate) fn get_u32(bytes: [u8; 4]) -> u32 {
    u32::from_le_bytes(bytes)
}

/// A cursor over bytes to decode. Every read consumes what it decoded
/// and returns `None` when the bytes left do not hold a valid field.
pub(crate) struct Decoder<'a> {
    bytes: &'a [u8],
}

impl<'a> Decoder<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes }
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let (&head, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        Some(head)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let (head, rest) = self.bytes.split_first_chunk::<4>()?;
        self.bytes = rest;
        Some(u32::from_le_bytes(*head))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let (head, rest) = self.bytes.split_first_chunk::<8>()?;
        self.bytes = rest;
        Some(u64::from_le_bytes(*head))
    }

    /// A `0`/`1` byte; any other byte does not decode.
    pub(crate) fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// The next `len` raw bytes.
    pub(crate) fn bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        if len > self.bytes.len() {
            return None;
        }
        let (head, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        Some(head)
    }

    /// See [`put_flags`].
    pub(crate) fn flags(&mut self) -> Option<Vec<bool>> {
        self.list(1, Self::bool)
    }

    /// See [`put_string`].
    pub(crate) fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec()).ok()
    }

    /// See [`put_high_water`]. A mark past `u32::MAX` does not decode.
    pub(crate) fn high_water(&mut self) -> Option<Option<u32>> {
        match self.u64()? {
            0 => Some(None),
            k => u32::try_from(k - 1).ok().map(Some),
        }
    }

    /// See [`put_clock`].
    pub(crate) fn clock(&mut self) -> Option<Vec<u32>> {
        let len = self.u32()? as usize;
        self.fixed_clock(len)
    }

    /// `width` components (see [`put_fixed_clock`]), in one allocation
    /// of exactly that length.
    pub(crate) fn fixed_clock(&mut self, width: usize) -> Option<Vec<u32>> {
        let raw = self.bytes(width.checked_mul(4)?)?;
        Some(
            raw.chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        )
    }

    /// See [`put_option`].
    pub(crate) fn option<T>(
        &mut self,
        item: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Option<Option<T>> {
        Some(if self.bool()? {
            Some(item(self)?)
        } else {
            None
        })
    }

    /// See [`put_list`]; each item is at least `min_bytes` long.
    pub(crate) fn list<T>(
        &mut self,
        min_bytes: usize,
        item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let count = self.u32()? as usize;
        self.repeat(count, min_bytes, item)
    }

    /// `count` items read by `item`, each at least `min_bytes` long. A
    /// count the bytes left cannot hold is refused before anything is
    /// reserved.
    pub(crate) fn repeat<T>(
        &mut self,
        count: usize,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        if count.checked_mul(min_bytes.max(1))? > self.bytes.len() {
            return None;
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(item(self)?);
        }
        Some(out)
    }

    /// See [`put_witness`].
    pub(crate) fn witness(&mut self) -> Option<Option<Vec<Vec<u32>>>> {
        self.option(|d| d.list(4, Self::clock))
    }

    /// `value`, if every byte was consumed; trailing bytes do not
    /// decode.
    pub(crate) fn finish<T>(self, value: T) -> Option<T> {
        self.bytes.is_empty().then_some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_beyond_the_bytes_left_are_refused() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        assert_eq!(Decoder::new(&out).clock(), None);
        assert_eq!(Decoder::new(&out).flags(), None);
        assert_eq!(Decoder::new(&out).string(), None);
        assert_eq!(Decoder::new(&out).list(0, Decoder::u8), None);
        assert_eq!(Decoder::new(&[]).repeat(usize::MAX, 8, Decoder::u64), None);
        assert_eq!(Decoder::new(&[2]).bool(), None);
        assert_eq!(Decoder::new(&[1, 2]).finish(()), None);
    }
}
