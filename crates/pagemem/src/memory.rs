use std::fmt;

use crate::{AddrSpace, PageBuf, PageId};

/// A flat, sequentially-consistent memory over an [`AddrSpace`].
///
/// Two roles in the system:
///
/// * the *home* copy of every page — what a processor fetches on a cold
///   access miss before applying diffs;
/// * the *oracle* in the simulator — applying each write of a trace in
///   trace order yields the value every read must return on a
///   properly-labeled program, for every protocol.
///
/// # Example
///
/// ```
/// use lrc_pagemem::{AddrSpace, Memory, PageSize};
///
/// let space = AddrSpace::new(PageSize::new(512)?, 4);
/// let mut mem = Memory::zeroed(space);
/// mem.write(700, &[1, 2, 3]); // straddles nothing, lands on page 1
/// assert_eq!(mem.read_vec(700, 3), vec![1, 2, 3]);
/// # Ok::<(), lrc_pagemem::PageSizeError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Memory {
    space: AddrSpace,
    pages: Vec<PageBuf>,
}

impl Memory {
    /// Creates an all-zero memory covering `space`.
    pub fn zeroed(space: AddrSpace) -> Self {
        let pages = space
            .pages()
            .map(|_| PageBuf::zeroed(space.page_size()))
            .collect();
        Memory { space, pages }
    }

    /// The address space this memory covers.
    pub fn space(&self) -> AddrSpace {
        self.space
    }

    /// Borrows one page.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page(&self, page: PageId) -> &PageBuf {
        &self.pages[page.index()]
    }

    /// Mutably borrows one page.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page_mut(&mut self, page: PageId) -> &mut PageBuf {
        &mut self.pages[page.index()]
    }

    /// Reads `buf.len()` bytes starting at flat address `addr`, crossing
    /// page boundaries as needed. An empty read is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the range — an empty one too — is out of range.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut cursor = 0;
        for seg in self.space.segments(addr, buf.len()) {
            self.pages[seg.page.index()].read(seg.offset, &mut buf[cursor..cursor + seg.len]);
            cursor += seg.len;
        }
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of range.
    pub fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf);
        buf
    }

    /// Writes `data` starting at flat address `addr`, crossing page
    /// boundaries as needed. An empty write is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the range — an empty one too — is out of range.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut cursor = 0;
        for seg in self.space.segments(addr, data.len()) {
            self.pages[seg.page.index()].write(seg.offset, &data[cursor..cursor + seg.len]);
            cursor += seg.len;
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of range.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut raw = [0u8; 8];
        self.read(addr, &mut raw);
        u64::from_le_bytes(raw)
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of range.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Iterates over `(page id, page)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &PageBuf)> {
        self.space.pages().zip(self.pages.iter())
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Memory({} pages x {})",
            self.space.n_pages(),
            self.space.page_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageSize;

    fn mem() -> Memory {
        Memory::zeroed(AddrSpace::new(PageSize::new(128).unwrap(), 4))
    }

    #[test]
    fn fresh_memory_reads_zero() {
        let m = mem();
        assert_eq!(m.read_vec(0, 16), vec![0u8; 16]);
        assert_eq!(m.read_u64(100), 0);
    }

    #[test]
    fn write_read_round_trip_within_page() {
        let mut m = mem();
        m.write(5, &[1, 2, 3]);
        assert_eq!(m.read_vec(5, 3), vec![1, 2, 3]);
    }

    #[test]
    fn write_read_across_page_boundary() {
        let mut m = mem();
        let data: Vec<u8> = (0..40).collect();
        m.write(120, &data); // crosses from page 0 into page 1
        assert_eq!(m.read_vec(120, 40), data);
        // The split really landed on two pages.
        assert_eq!(m.page(PageId::new(0)).slice(120, 8), &data[..8]);
        assert_eq!(m.page(PageId::new(1)).slice(0, 32), &data[8..]);
    }

    #[test]
    fn u64_helpers_round_trip() {
        let mut m = mem();
        m.write_u64(124, 0x0123_4567_89ab_cdef); // straddles pages 0 and 1
        assert_eq!(m.read_u64(124), 0x0123_4567_89ab_cdef);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let m = mem();
        let mut buf = [0u8; 8];
        m.read(512 - 4, &mut buf);
    }

    #[test]
    fn empty_accesses_are_no_ops_inside_the_space_only() {
        let mut m = mem();
        m.write(5, &[1]);
        m.write(5, &[]);
        m.write(512, &[]); // one past the last byte
        assert_eq!(m.read_vec(5, 0), Vec::<u8>::new());
        assert_eq!(m.read_vec(5, 1), vec![1]);
        let past = std::panic::catch_unwind(|| mem().read(513, &mut []));
        assert!(past.is_err(), "an empty range still has to be in range");
    }

    #[test]
    fn debug_reports_shape() {
        assert_eq!(format!("{:?}", mem()), "Memory(4 pages x 128B)");
    }
}
