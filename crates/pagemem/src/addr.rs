use std::error::Error;
use std::fmt;

/// Identifier of one page of the shared address space.
///
/// Pages are numbered densely from zero; page `i` covers addresses
/// `[i * page_size, (i + 1) * page_size)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PageId(u32);

impl PageId {
    /// Creates a page id from its dense index.
    pub fn new(index: u32) -> Self {
        PageId(index)
    }

    /// Returns the id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw numeric id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for PageId {
    fn from(index: u32) -> Self {
        PageId(index)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// Error returned when constructing a [`PageSize`] from an invalid value.
///
/// Page sizes must be powers of two between 64 and 65536 bytes — the range
/// the ISCA '92 evaluation sweeps (512–8192) sits comfortably inside it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageSizeError {
    value: usize,
}

impl PageSizeError {
    /// The rejected value.
    pub fn value(&self) -> usize {
        self.value
    }
}

impl fmt::Display for PageSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid page size {}: must be a power of two in [64, 65536]",
            self.value
        )
    }
}

impl Error for PageSizeError {}

/// A validated power-of-two page size.
///
/// # Example
///
/// ```
/// use lrc_pagemem::PageSize;
///
/// let s = PageSize::new(4096)?;
/// assert_eq!(s.bytes(), 4096);
/// assert!(PageSize::new(1000).is_err());
/// # Ok::<(), lrc_pagemem::PageSizeError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageSize {
    bytes: u32,
    shift: u32,
}

impl PageSize {
    /// The page sizes swept by the paper's evaluation (Figures 5–14).
    pub const PAPER_SWEEP: [usize; 5] = [512, 1024, 2048, 4096, 8192];

    /// Creates a page size.
    ///
    /// # Errors
    ///
    /// Returns [`PageSizeError`] unless `bytes` is a power of two in
    /// `[64, 65536]`.
    pub fn new(bytes: usize) -> Result<Self, PageSizeError> {
        if !(64..=65536).contains(&bytes) || !bytes.is_power_of_two() {
            return Err(PageSizeError { value: bytes });
        }
        Ok(PageSize {
            bytes: bytes as u32,
            shift: bytes.trailing_zeros(),
        })
    }

    /// The size in bytes.
    pub fn bytes(self) -> usize {
        self.bytes as usize
    }

    /// log2 of the size; address `>> shift` is the page index.
    pub fn shift(self) -> u32 {
        self.shift
    }

    /// Mask selecting the in-page offset bits.
    pub fn offset_mask(self) -> u64 {
        (self.bytes as u64) - 1
    }
}

impl Default for PageSize {
    /// 4096 bytes, the conventional virtual-memory page.
    fn default() -> Self {
        PageSize::new(4096).expect("4096 is a valid page size")
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes)
    }
}

/// A contiguous byte range within a single page, produced by
/// [`AddrSpace::segments`] when an access is split along page boundaries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Page the bytes fall on.
    pub page: PageId,
    /// Byte offset within the page.
    pub offset: usize,
    /// Length in bytes, never zero and never crossing the page end.
    pub len: usize,
}

/// The shared address space: a flat range of bytes divided into pages.
///
/// The same workload trace can be mapped under different page sizes — this
/// is exactly how the paper sweeps page size with a fixed trace.
///
/// # Example
///
/// ```
/// use lrc_pagemem::{AddrSpace, PageId, PageSize};
///
/// let space = AddrSpace::new(PageSize::new(512)?, 16);
/// assert_eq!(space.total_bytes(), 8192);
/// assert_eq!(space.page_of(1000), PageId::new(1));
/// assert_eq!(space.offset_of(1000), 488);
/// # Ok::<(), lrc_pagemem::PageSizeError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AddrSpace {
    page_size: PageSize,
    n_pages: u32,
}

impl AddrSpace {
    /// Creates an address space of `n_pages` pages of `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n_pages` is zero or the total size overflows `u64`.
    pub fn new(page_size: PageSize, n_pages: u32) -> Self {
        assert!(n_pages > 0, "address space needs at least one page");
        AddrSpace { page_size, n_pages }
    }

    /// Creates the smallest space of `page_size` pages covering `bytes`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or needs more than `u32::MAX` pages.
    pub fn with_capacity(page_size: PageSize, bytes: u64) -> Self {
        assert!(bytes > 0, "address space needs at least one byte");
        let pages = bytes.div_ceil(page_size.bytes() as u64);
        assert!(
            pages <= u32::MAX as u64,
            "capacity {bytes} needs too many pages"
        );
        AddrSpace::new(page_size, pages as u32)
    }

    /// The page size.
    pub fn page_size(self) -> PageSize {
        self.page_size
    }

    /// Number of pages.
    pub fn n_pages(self) -> u32 {
        self.n_pages
    }

    /// Total bytes covered.
    pub fn total_bytes(self) -> u64 {
        self.n_pages as u64 * self.page_size.bytes() as u64
    }

    /// True if `[addr, addr + len)` lies inside the space.
    pub fn contains(self, addr: u64, len: usize) -> bool {
        addr.checked_add(len as u64)
            .is_some_and(|end| end <= self.total_bytes())
    }

    /// Page holding `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn page_of(self, addr: u64) -> PageId {
        assert!(self.contains(addr, 1), "address {addr:#x} out of range");
        PageId((addr >> self.page_size.shift()) as u32)
    }

    /// Offset of `addr` within its page.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn offset_of(self, addr: u64) -> usize {
        assert!(self.contains(addr, 1), "address {addr:#x} out of range");
        (addr & self.page_size.offset_mask()) as usize
    }

    /// Splits the access `[addr, addr + len)` into per-page segments, in
    /// address order. An access wholly inside one page yields one segment;
    /// an empty access yields none (but its address must still lie inside
    /// the space, or one past its end).
    ///
    /// # Panics
    ///
    /// Panics, at the call, if the range is out of range.
    pub fn segments(self, addr: u64, len: usize) -> impl Iterator<Item = Segment> {
        assert!(
            self.contains(addr, len),
            "access [{addr:#x}, +{len}) out of range (space is {} bytes)",
            self.total_bytes()
        );
        let page_bytes = self.page_size.bytes();
        let mut cur = addr;
        let mut remaining = len;
        std::iter::from_fn(move || {
            if remaining == 0 {
                return None;
            }
            let offset = (cur & self.page_size.offset_mask()) as usize;
            let take = remaining.min(page_bytes - offset);
            let segment = Segment {
                page: PageId((cur >> self.page_size.shift()) as u32),
                offset,
                len: take,
            };
            cur += take as u64;
            remaining -= take;
            Some(segment)
        })
    }

    /// Iterates over all page ids.
    pub fn pages(self) -> impl Iterator<Item = PageId> {
        (0..self.n_pages).map(PageId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_validates() {
        assert!(PageSize::new(512).is_ok());
        assert!(PageSize::new(65536).is_ok());
        assert!(PageSize::new(64).is_ok());
        assert!(PageSize::new(32).is_err());
        assert!(PageSize::new(131072).is_err());
        assert!(PageSize::new(3000).is_err());
        assert!(PageSize::new(0).is_err());
    }

    #[test]
    fn page_size_error_reports_value() {
        let err = PageSize::new(1000).unwrap_err();
        assert_eq!(err.value(), 1000);
        assert!(err.to_string().contains("1000"));
    }

    #[test]
    fn page_size_shift_and_mask() {
        let s = PageSize::new(2048).unwrap();
        assert_eq!(s.shift(), 11);
        assert_eq!(s.offset_mask(), 2047);
        assert_eq!(s.to_string(), "2048B");
    }

    #[test]
    fn paper_sweep_sizes_are_valid() {
        for bytes in PageSize::PAPER_SWEEP {
            assert!(PageSize::new(bytes).is_ok(), "{bytes} must validate");
        }
    }

    #[test]
    fn addressing_round_trips() {
        let space = AddrSpace::new(PageSize::new(256).unwrap(), 8);
        for addr in [0u64, 1, 255, 256, 1000, 2047] {
            let page = space.page_of(addr);
            let off = space.offset_of(addr);
            assert_eq!(page.index() as u64 * 256 + off as u64, addr);
        }
    }

    #[test]
    fn with_capacity_rounds_up() {
        let space = AddrSpace::with_capacity(PageSize::new(512).unwrap(), 1025);
        assert_eq!(space.n_pages(), 3);
    }

    #[test]
    fn segments_within_one_page() {
        let space = AddrSpace::new(PageSize::new(256).unwrap(), 4);
        let segs: Vec<Segment> = space.segments(10, 16).collect();
        assert_eq!(
            segs,
            vec![Segment {
                page: PageId::new(0),
                offset: 10,
                len: 16
            }]
        );
    }

    #[test]
    fn segments_straddle_pages() {
        let space = AddrSpace::new(PageSize::new(256).unwrap(), 4);
        let segs: Vec<Segment> = space.segments(250, 300).collect();
        assert_eq!(
            segs,
            vec![
                Segment {
                    page: PageId::new(0),
                    offset: 250,
                    len: 6
                },
                Segment {
                    page: PageId::new(1),
                    offset: 0,
                    len: 256
                },
                Segment {
                    page: PageId::new(2),
                    offset: 0,
                    len: 38
                },
            ]
        );
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, 300);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segments_reject_overflow() {
        let space = AddrSpace::new(PageSize::new(256).unwrap(), 1);
        let _ = space.segments(200, 100);
    }

    #[test]
    fn segments_of_an_empty_access_are_none() {
        let space = AddrSpace::new(PageSize::new(256).unwrap(), 1);
        assert_eq!(space.segments(0, 0).count(), 0);
        assert_eq!(space.segments(17, 0).count(), 0);
        // One past the last byte is still a place an empty range can be.
        assert_eq!(space.segments(256, 0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segments_reject_an_empty_access_past_the_end() {
        let space = AddrSpace::new(PageSize::new(256).unwrap(), 1);
        let _ = space.segments(257, 0);
    }

    #[test]
    fn pages_enumerates_all() {
        let space = AddrSpace::new(PageSize::new(64).unwrap(), 3);
        let ids: Vec<_> = space.pages().collect();
        assert_eq!(ids, vec![PageId::new(0), PageId::new(1), PageId::new(2)]);
    }
}
