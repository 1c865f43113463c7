use std::fmt;

use crate::PageSize;

/// One page's bytes: a processor's working copy, a twin, or a home copy.
///
/// # Example
///
/// ```
/// use lrc_pagemem::{PageBuf, PageSize};
///
/// let mut page = PageBuf::zeroed(PageSize::new(512)?);
/// page.write(64, &0xdead_beef_u64.to_le_bytes());
/// assert_eq!(page.read_u64(64), 0xdead_beef);
/// # Ok::<(), lrc_pagemem::PageSizeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PageBuf {
    bytes: Box<[u8]>,
}

impl PageBuf {
    /// Creates an all-zero page of the given size.
    #[inline]
    pub fn zeroed(size: PageSize) -> Self {
        PageBuf {
            bytes: vec![0u8; size.bytes()].into_boxed_slice(),
        }
    }

    /// Creates a page from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a valid page length (power of two in
    /// `[64, 65536]`).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        assert!(
            PageSize::new(bytes.len()).is_ok(),
            "page buffer length {} is not a valid page size",
            bytes.len()
        );
        PageBuf {
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// Page length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// The page contents.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the page contents.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    #[inline]
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        buf.copy_from_slice(&self.bytes[offset..offset + buf.len()]);
    }

    /// Returns the `len` bytes starting at `offset` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn slice(&self, offset: usize, len: usize) -> &[u8] {
        &self.bytes[offset..offset + len]
    }

    /// Writes `data` starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    #[inline]
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        self.bytes[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Reads a little-endian `u64` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 8` exceeds the page.
    pub fn read_u64(&self, offset: usize) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[offset..offset + 8]);
        u64::from_le_bytes(raw)
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.bytes.iter().filter(|&&b| b != 0).count();
        write!(
            f,
            "PageBuf({} bytes, {} non-zero)",
            self.bytes.len(),
            nonzero
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size() -> PageSize {
        PageSize::new(256).unwrap()
    }

    #[test]
    fn zeroed_page_is_all_zero() {
        let page = PageBuf::zeroed(size());
        assert_eq!(page.len(), 256);
        assert!(page.as_bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut page = PageBuf::zeroed(size());
        page.write(10, &[1, 2, 3]);
        let mut buf = [0u8; 3];
        page.read(10, &mut buf);
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(page.slice(10, 3), &[1, 2, 3]);
    }

    #[test]
    fn typed_accessors_round_trip() {
        let mut page = PageBuf::zeroed(size());
        page.write(0, &(u64::MAX - 5).to_le_bytes());
        assert_eq!(page.read_u64(0), u64::MAX - 5);
    }

    #[test]
    fn from_bytes_accepts_valid_lengths_only() {
        assert_eq!(PageBuf::from_bytes(vec![7u8; 128]).len(), 128);
    }

    #[test]
    #[should_panic(expected = "not a valid page size")]
    fn from_bytes_rejects_bad_length() {
        PageBuf::from_bytes(vec![0u8; 100]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_write_panics() {
        let mut page = PageBuf::zeroed(size());
        page.write(255, &[1, 2]);
    }

    #[test]
    fn debug_reports_density() {
        let mut page = PageBuf::zeroed(size());
        page.write(0, &[1, 1, 1]);
        assert_eq!(format!("{page:?}"), "PageBuf(256 bytes, 3 non-zero)");
    }
}
