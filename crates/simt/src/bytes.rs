//! Shared, slice-able immutable byte buffers and the host-copy ledger.
//!
//! The simulator's data path used to clone every payload at each hop
//! (pack → send → mailbox → aggregator domain buffer → per-piece file
//! write), so a checkpoint byte was memcpy'd 4–6 times on the host.
//! [`Bytes`] is the fix: an `Arc`-backed window into an immutable
//! buffer. Cloning or slicing one is a refcount bump; only explicit
//! [`Bytes::copy_from_slice`] (and the other sites that call
//! [`count_copy`]) actually move bytes, and every such move is recorded
//! in a process-wide ledger so `amrio-bench --bin selfbench` can report
//! bytes-memcpy'd per checkpoint.
//!
//! The ledger is process-global and `Relaxed`: it is a measurement aid,
//! not a synchronization primitive. Reset it around a region of
//! interest with [`reset_copied_bytes`] and read it with
//! [`copied_bytes`].

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static COPIED: AtomicU64 = AtomicU64::new(0);

/// Record `n` bytes memcpy'd on the host data path.
#[inline]
pub fn count_copy(n: usize) {
    COPIED.fetch_add(n as u64, Ordering::Relaxed);
}

/// Total bytes memcpy'd since the last [`reset_copied_bytes`].
pub fn copied_bytes() -> u64 {
    COPIED.load(Ordering::Relaxed)
}

/// Zero the host-copy ledger.
pub fn reset_copied_bytes() {
    COPIED.store(0, Ordering::Relaxed);
}

/// An immutable, cheaply clone-able window into a shared byte buffer.
///
/// A non-empty `Bytes` is an `Arc<Vec<u8>>` plus an `(offset, len)`
/// window, so [`Bytes::slice`] and `Clone` never touch the payload. An
/// empty `Bytes` owns no heap allocation at all (`buf` is `None`), so
/// the empty slots of a P×P exchange cost nothing to create, clone or
/// drop. `Deref` to `[u8]` makes every read-only `&[u8]` API accept a
/// `&Bytes` via coercion.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` exactly when `len == 0`.
    buf: Option<Arc<Vec<u8>>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer; owns no heap allocation.
    pub const fn new() -> Bytes {
        Bytes {
            buf: None,
            off: 0,
            len: 0,
        }
    }

    /// Wrap an owned vector without copying. An empty vector is dropped
    /// and gives [`Bytes::new`].
    pub fn from_vec(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        let len = v.len();
        Bytes {
            buf: Some(Arc::new(v)),
            off: 0,
            len,
        }
    }

    /// Copy a borrowed slice into a fresh buffer. This is the *counted*
    /// constructor — use it only when the source cannot be handed over.
    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        count_copy(s.len());
        Bytes::from_vec(s.to_vec())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zero-copy sub-window. Panics if the range is out of bounds. An
    /// empty range gives [`Bytes::new`], holding no reference to `self`.
    pub fn slice(&self, r: Range<usize>) -> Bytes {
        assert!(r.start <= r.end && r.end <= self.len, "slice out of range");
        if r.start == r.end {
            return Bytes::new();
        }
        Bytes {
            buf: self.buf.clone(),
            off: self.off + r.start,
            len: r.end - r.start,
        }
    }

    /// Recover an owned `Vec<u8>`. Zero-copy when this handle is the
    /// only owner and spans the whole buffer (or is empty); otherwise a
    /// counted copy.
    pub fn into_vec(self) -> Vec<u8> {
        let Some(mut buf) = self.buf else {
            return Vec::new();
        };
        if self.off == 0 && self.len == buf.len() {
            match Arc::try_unwrap(buf) {
                Ok(v) => return v,
                Err(shared) => buf = shared,
            }
        }
        count_copy(self.len);
        buf[self.off..self.off + self.len].to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[self.off..self.off + self.len],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} B)", self.len)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self[..] == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that read the process-global copy ledger, so
    /// a parallel test's counted copy cannot land inside their window.
    static LEDGER: Mutex<()> = Mutex::new(());

    fn ledger() -> std::sync::MutexGuard<'static, ()> {
        LEDGER.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn slice_is_zero_copy_and_window_is_correct() {
        let b = Bytes::from_vec((0u8..32).collect());
        let s = b.slice(4..12);
        assert_eq!(s.len(), 8);
        assert_eq!(&s[..], &(4u8..12).collect::<Vec<_>>()[..]);
        let s2 = s.slice(2..4);
        assert_eq!(&s2[..], &[6, 7]);
        assert_eq!(b.len(), 32);
    }

    #[test]
    fn from_vec_and_unique_into_vec_do_not_count() {
        let _ledger = ledger();
        let before = copied_bytes();
        let b = Bytes::from_vec(vec![1, 2, 3]);
        let v = b.into_vec();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(copied_bytes(), before);
    }

    #[test]
    fn copy_constructors_count() {
        let _ledger = ledger();
        let before = copied_bytes();
        let b = Bytes::copy_from_slice(&[0u8; 100]);
        assert_eq!(copied_bytes() - before, 100);
        // A shared handle forces into_vec to copy.
        let b2 = b.clone();
        let _v = b.into_vec();
        assert_eq!(copied_bytes() - before, 200);
        drop(b2);
    }

    #[test]
    fn equality_against_common_shapes() {
        let b = Bytes::from_vec(b"payload".to_vec());
        assert_eq!(b, b"payload");
        assert_eq!(b, b"payload"[..]);
        assert_eq!(b, b"payload".to_vec());
        assert_eq!(b.slice(0..3), b"pay");
        assert_ne!(b, b"other..");
        assert_eq!(Bytes::new(), b"");
        assert_eq!(Bytes::new(), Vec::<u8>::new());
        assert_ne!(Bytes::new(), b"x");
    }

    #[test]
    fn empty_constructors_agree_and_hold_nothing() {
        let _ledger = ledger();
        let before = copied_bytes();
        for b in [Bytes::new(), Bytes::default(), Bytes::from_vec(vec![])] {
            assert!(b.buf.is_none());
            assert!(b.is_empty());
            assert_eq!(b, Bytes::new());
            assert_eq!(&b[..], &[] as &[u8]);
            assert_eq!(b.into_vec(), Vec::<u8>::new());
        }
        assert_eq!(copied_bytes(), before);
    }

    #[test]
    fn empty_slices() {
        assert!(Bytes::new().slice(0..0).is_empty());
        let b = Bytes::from_vec(vec![1, 2, 3]);
        for n in 0..=3 {
            let s = b.slice(n..n);
            assert!(s.buf.is_none(), "slice({n}..{n}) kept a reference");
            assert_eq!(s, b"");
        }
        assert_eq!(b, b"\x01\x02\x03");
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn out_of_range_slice_panics() {
        Bytes::from_vec(vec![0; 4]).slice(2..6);
    }
}
