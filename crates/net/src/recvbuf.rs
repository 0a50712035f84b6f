//! `RecvBuf`: the one receive buffer behind every `kite-net` socket
//! reader — the fabric's peer and client connections, the scrape plane,
//! and [`crate::RemoteSession`].
//!
//! A read costs the bytes it returns, never [`READ_CHUNK`]: the backing
//! `Vec` is zero-filled once at construction, and `read(2)` lands straight
//! in its free tail (`buf[end..]`). The decoder walks [`RecvBuf::filled`]
//! and [`RecvBuf::consume`]s whole frames; when the buffer drains — the
//! common case, every frame of the read decoded — both cursors snap back
//! to 0, so there is nothing to move. A partial frame stays where it is
//! until the free tail runs short, and only then is it moved to the front.
//!
//! The buffer grows only through [`RecvBuf::reserve_frame`], which the
//! decoder calls after it has validated a length prefix (≤
//! `wire::MAX_FRAME`): a hostile peer cannot push memory past one maximal
//! frame plus its prefix.

use std::io::{self, Read};

/// Initial capacity of a connection's receive buffer.
pub const READ_CHUNK: usize = 64 << 10;

/// A byte buffer with read (`start`) and write (`end`) cursors.
#[derive(Debug)]
pub struct RecvBuf {
    /// Zero-filled once; `buf.len()` is the capacity in use.
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// One past the last received byte.
    end: usize,
}

impl RecvBuf {
    /// A buffer of `cap` bytes, zero-filled once here. Peer and client
    /// connections start at [`READ_CHUNK`].
    pub fn with_capacity(cap: usize) -> RecvBuf {
        RecvBuf { buf: vec![0; cap], start: 0, end: 0 }
    }

    /// Bytes the buffer holds without growing.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The received, not yet consumed bytes.
    pub fn filled(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Mark the first `n` bytes of [`filled`](Self::filled) consumed.
    // kite-lint: no-alloc
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.end - self.start, "consumed past the filled bytes");
        self.start = (self.start + n).min(self.end);
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// One `read` into the free tail. `Ok(0)` is end of stream. The tail is
    /// compacted first when it runs short; a buffer with no free byte even
    /// then (a peer that never completes a frame it fits) is an
    /// `InvalidData` error, so the caller closes the connection.
    // kite-lint: no-alloc
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.buf.len() - self.end < self.buf.len() / 4 {
            self.compact();
        }
        if self.end == self.buf.len() {
            return Err(io::ErrorKind::InvalidData.into());
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Make room for one frame of `total` bytes (prefix included) at the
    /// read cursor. The caller has validated `total` against the frame
    /// bound; this is the only path that grows the buffer.
    pub fn reserve_frame(&mut self, total: usize) {
        if self.start + total <= self.buf.len() {
            return;
        }
        self.compact();
        if total > self.buf.len() {
            self.buf.resize(total, 0);
        }
    }

    /// Move the unconsumed bytes to the front.
    // kite-lint: no-alloc
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_buffer_is_an_error_and_reserve_grows() {
        let mut b = RecvBuf::with_capacity(8);
        let mut src: &[u8] = &[1u8; 20];
        assert_eq!(b.read_from(&mut src).unwrap(), 8);
        assert_eq!(b.read_from(&mut src).unwrap_err().kind(), io::ErrorKind::InvalidData);
        b.reserve_frame(20);
        assert_eq!(b.capacity(), 20);
        assert_eq!(b.read_from(&mut src).unwrap(), 12);
        assert_eq!(b.filled(), &[1u8; 20]);
    }
}
