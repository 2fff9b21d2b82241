//! Column storage whose first value sits on a 64-byte cache line.
//!
//! The SIMD kernels of [`crate::ops`] load and store whole 64-byte vectors
//! (eight doubles). On a column that starts on a line, each such access
//! touches one line; on one that starts where the allocator put it (0, 16,
//! 32 or 48 bytes past a line with glibc), most of them straddle two. On a
//! meeting of 32 columns of 1024 rows (`BENCH_blocked.json`, an AVX-512
//! host), [`ops::gram_block`] took 25.7 µs on a line against 41.0 µs
//! 16 bytes past one, and [`ops::panel_update`] 51.3 against 59.1 µs.
//!
//! [`AlignedBuf`] gets the line in safe code: it allocates `LINE − 1`
//! values more than it holds and starts at the first value on a line. The
//! sweep drivers keep their column storage in it (the blocked driver's
//! block slots, spare panels and in-place tile, the simulated and
//! distributed executors' slot columns), and so does the TSQR working
//! matrix.
//! [`Matrix`](crate::Matrix) stays a plain `Vec<f64>`.
//!
//! [`ops::gram_block`]: crate::ops::gram_block
//! [`ops::panel_update`]: crate::ops::panel_update

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Doubles in a 64-byte cache line.
pub(crate) const LINE: usize = 8;

/// A run of `f64` values whose first one sits on a 64-byte line.
///
/// Dereferences to its values. [`AlignedBuf::new`] (and [`Default`])
/// allocates nothing, so `std::mem::take` of a buffer moves its
/// allocation out without a new one; [`Clone`] copies the values onto a
/// line of a new allocation.
#[derive(Default)]
pub struct AlignedBuf {
    /// `off` values of padding, then the buffer's values.
    buf: Vec<f64>,
    /// Where the values start: `buf[off]` sits on a line.
    off: usize,
}

/// How many values past the start of `buf` its first 64-byte line begins
/// (at most `LINE − 1`: were `align_offset` ever to decline, the buffer
/// would start off a line, never past its room).
fn line_offset(buf: &[f64]) -> usize {
    buf.as_ptr().align_offset(LINE * size_of::<f64>()).min(LINE - 1)
}

impl AlignedBuf {
    /// An empty buffer, with no allocation.
    pub const fn new() -> Self {
        Self { buf: Vec::new(), off: 0 }
    }

    /// `len` zeros on a line.
    pub fn zeros(len: usize) -> Self {
        // zeroed by the allocator: large buffers map zero pages
        let mut buf = vec![0.0; len + LINE - 1];
        let off = line_offset(&buf);
        buf.truncate(off + len);
        Self { buf, off }
    }

    /// A copy of `src` on a line.
    pub fn from_slice(src: &[f64]) -> Self {
        let mut buf = Vec::with_capacity(src.len() + LINE - 1);
        let off = line_offset(&buf);
        buf.resize(off, 0.0);
        buf.extend_from_slice(src);
        Self { buf, off }
    }

    /// The values the buffer can hold without reallocating, wherever its
    /// allocation starts: the allocation less the `LINE − 1` values kept
    /// to reach a line. A buffer made for `len` values has capacity `len`.
    pub fn capacity(&self) -> usize {
        self.buf.capacity().saturating_sub(LINE - 1)
    }

    /// Set the length to `len`, as `Vec::resize` does with zeros: the
    /// values kept keep their bits, new ones are zero. Reallocates only
    /// when `len` exceeds [`AlignedBuf::capacity`], and returns whether it
    /// did.
    pub fn resize(&mut self, len: usize) -> bool {
        if len <= self.capacity() {
            self.buf.resize(self.off + len, 0.0);
            return false;
        }
        let mut grown = Self::zeros(len);
        grown[..self.len()].copy_from_slice(self);
        *self = grown;
        true
    }

    /// The values.
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.off..]
    }

    /// The values, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.buf[self.off..]
    }

    /// The allocation as a `Vec`, the padding before the line first:
    /// [`AlignedBuf::from_padded`] takes it back without a copy. A column
    /// travels between ranks this way, as the message itself.
    pub fn into_padded(self) -> Vec<f64> {
        self.buf
    }

    /// Adopt an allocation that [`AlignedBuf::into_padded`] gave out: its
    /// values before the first line are the padding, the rest the buffer.
    pub fn from_padded(buf: Vec<f64>) -> Self {
        let off = line_offset(&buf).min(buf.len());
        Self { buf, off }
    }
}

impl Deref for AlignedBuf {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl PartialEq for AlignedBuf {
    /// Equal values, as a `Vec` compares them; the padding is not compared.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_line(buf: &AlignedBuf) -> bool {
        (buf.as_ptr() as usize).is_multiple_of(LINE * size_of::<f64>())
    }

    #[test]
    fn default_is_empty_and_unallocated() {
        let buf = AlignedBuf::default();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 0);
        // a Vec of capacity 0 holds no allocation
        assert_eq!(buf.into_padded().capacity(), 0);
        assert_eq!(AlignedBuf::new().into_padded().capacity(), 0);
    }

    #[test]
    fn zeros_from_slice_and_clone_sit_on_a_line() {
        // every residue of a line, and a length past one page
        for len in [1usize, 3, 7, 8, 9, 63, 64, 65, 1000] {
            let zeros = AlignedBuf::zeros(len);
            assert!(on_line(&zeros), "zeros({len})");
            assert_eq!(zeros.len(), len);
            assert_eq!(zeros.capacity(), len);
            assert!(zeros.iter().all(|&x| x.to_bits() == 0), "zeros({len})");

            let src: Vec<f64> = (0..len).map(|i| i as f64 - 0.5).collect();
            let copy = AlignedBuf::from_slice(&src);
            assert!(on_line(&copy), "from_slice of {len}");
            assert_eq!(copy.as_slice(), src.as_slice());

            let clone = copy.clone();
            assert!(on_line(&clone), "clone of {len}");
            assert_ne!(clone.as_ptr(), copy.as_ptr(), "a clone owns its storage");
            assert_eq!(clone.as_slice(), src.as_slice());
            assert_eq!(format!("{clone:?}"), format!("{src:?}"));
        }
    }

    #[test]
    fn take_moves_the_allocation_and_leaves_nothing_behind() {
        let mut buf = AlignedBuf::from_slice(&[1.0, 2.0, 3.0]);
        let ptr = buf.as_ptr();
        let taken = std::mem::take(&mut buf);
        assert_eq!(taken.as_ptr(), ptr);
        assert_eq!(taken.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(buf.into_padded().capacity(), 0, "the shell left behind allocated");
    }

    #[test]
    fn resize_reallocates_only_past_the_capacity() {
        let mut buf = AlignedBuf::default();
        assert!(!buf.resize(0));
        assert!(buf.resize(20), "the first size allocates");
        assert!(on_line(&buf));
        buf.copy_from_slice(&[2.5; 20]);
        let ptr = buf.as_ptr();
        // shrinking and growing back within the capacity keeps the storage
        assert!(!buf.resize(5));
        assert!(!buf.resize(20));
        assert_eq!(buf.as_ptr(), ptr);
        assert_eq!(&buf[..5], &[2.5; 5]);
        assert!(buf[5..].iter().all(|&x| x == 0.0), "grown values are zero");
        // past it, the values move to a new line
        assert!(buf.resize(100));
        assert!(on_line(&buf));
        assert_eq!((buf.len(), buf.capacity()), (100, 100));
        assert_eq!(&buf[..5], &[2.5; 5]);
        assert!(buf[5..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn padded_round_trip_keeps_the_allocation() {
        for len in [0usize, 1, 9, 100] {
            let src: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let buf = AlignedBuf::from_slice(&src);
            let ptr = buf.as_ptr();
            let back = AlignedBuf::from_padded(buf.into_padded());
            assert_eq!(back.as_ptr(), ptr, "{len} values");
            assert_eq!(back.as_slice(), src.as_slice());
            assert_eq!(back.capacity(), len);
        }
        assert!(AlignedBuf::from_padded(Vec::new()).is_empty());
    }
}
