//! Physical/virtual address arithmetic in block and page units.
//!
//! The entire prefetching literature this crate reproduces works in units of
//! 64-byte cache blocks inside 4 KiB pages, so a page holds 64 blocks and a
//! within-page block delta always fits in `-63..=63` (the paper's default
//! delta range `D = 127`).

/// Size of a cache block in bytes.
pub const BLOCK_SIZE: u64 = 64;
/// Size of a virtual-memory page in bytes.
pub const PAGE_SIZE: u64 = 4096;
/// Number of cache blocks per page (`PAGE_SIZE / BLOCK_SIZE`).
pub const BLOCKS_PER_PAGE: u64 = PAGE_SIZE / BLOCK_SIZE;

/// A byte-granularity memory address.
///
/// `Addr` is a transparent newtype over `u64` ([C-NEWTYPE]): using it instead
/// of a bare integer keeps byte addresses, block numbers, and page numbers
/// statically distinct throughout the workspace.
///
/// # Examples
///
/// ```
/// use pathfinder_sim::Addr;
///
/// let a = Addr::new(0x1_0040);
/// assert_eq!(a.block().0, 0x1_0040 / 64);
/// assert_eq!(a.page().0, 0x1_0040 / 4096);
/// assert_eq!(a.page_offset_blocks(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

/// A cache-block number (byte address divided by [`BLOCK_SIZE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Block(pub u64);

/// A page number (byte address divided by [`PAGE_SIZE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Page(pub u64);

impl Addr {
    /// Creates an address from a raw byte value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache block this address falls in.
    #[inline]
    pub const fn block(self) -> Block {
        Block(self.0 / BLOCK_SIZE)
    }

    /// The page this address falls in.
    #[inline]
    pub const fn page(self) -> Page {
        Page(self.0 / PAGE_SIZE)
    }

    /// The block offset within the page, in `0..BLOCKS_PER_PAGE`.
    #[inline]
    pub const fn page_offset_blocks(self) -> u8 {
        ((self.0 % PAGE_SIZE) / BLOCK_SIZE) as u8
    }

    /// Rounds the address down to its block base.
    #[inline]
    pub const fn block_base(self) -> Addr {
        Addr(self.0 / BLOCK_SIZE * BLOCK_SIZE)
    }
}

impl Block {
    /// The byte address of the first byte in this block.
    #[inline]
    pub const fn base_addr(self) -> Addr {
        Addr(self.0 * BLOCK_SIZE)
    }

    /// The page containing this block.
    #[inline]
    pub const fn page(self) -> Page {
        Page(self.0 / BLOCKS_PER_PAGE)
    }

    /// The block offset within its page, in `0..BLOCKS_PER_PAGE`.
    #[inline]
    pub const fn page_offset(self) -> u8 {
        (self.0 % BLOCKS_PER_PAGE) as u8
    }

    /// Signed within-address-space delta to `other`, in blocks.
    ///
    /// Unlike [`Block::page_delta`], this can cross page boundaries.
    #[inline]
    pub fn delta(self, other: Block) -> i64 {
        other.0 as i64 - self.0 as i64
    }

    /// Signed delta to `other` if both blocks live in the same page.
    ///
    /// Returns `None` when the two blocks are in different pages; a same-page
    /// delta always fits in `-(BLOCKS_PER_PAGE-1)..=BLOCKS_PER_PAGE-1`.
    #[inline]
    pub fn page_delta(self, other: Block) -> Option<i8> {
        if self.page() == other.page() {
            Some(other.page_offset() as i8 - self.page_offset() as i8)
        } else {
            None
        }
    }

    /// The block at signed offset `delta` from this one, saturating at zero.
    #[inline]
    pub fn offset_by(self, delta: i64) -> Block {
        Block(self.0.saturating_add_signed(delta))
    }
}

impl Page {
    /// The first block of this page.
    #[inline]
    pub const fn first_block(self) -> Block {
        Block(self.0 * BLOCKS_PER_PAGE)
    }

    /// The block at `offset` within this page.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= BLOCKS_PER_PAGE`.
    #[inline]
    pub fn block_at(self, offset: u8) -> Block {
        assert!(
            (offset as u64) < BLOCKS_PER_PAGE,
            "block offset {offset} out of page range"
        );
        Block(self.0 * BLOCKS_PER_PAGE + offset as u64)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl std::fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

impl std::fmt::Display for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk#{}", self.0)
    }
}

impl std::fmt::Display for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_page_decomposition() {
        let a = Addr::new(PAGE_SIZE * 3 + BLOCK_SIZE * 5 + 17);
        assert_eq!(a.page(), Page(3));
        assert_eq!(a.page_offset_blocks(), 5);
        assert_eq!(a.block(), Block(3 * BLOCKS_PER_PAGE + 5));
        assert_eq!(a.block_base(), Addr::new(PAGE_SIZE * 3 + BLOCK_SIZE * 5));
    }

    #[test]
    fn same_page_delta() {
        let p = Page(10);
        let b1 = p.block_at(16);
        let b2 = p.block_at(22);
        assert_eq!(b1.page_delta(b2), Some(6));
        assert_eq!(b2.page_delta(b1), Some(-6));
    }

    #[test]
    fn cross_page_delta_is_none() {
        let b1 = Page(10).block_at(63);
        let b2 = Page(11).block_at(0);
        assert_eq!(b1.page_delta(b2), None);
        assert_eq!(b1.delta(b2), 1);
    }

    #[test]
    fn offset_by_saturates() {
        assert_eq!(Block(5).offset_by(-10), Block(0));
        assert_eq!(Block(5).offset_by(3), Block(8));
    }

    #[test]
    fn block_base_roundtrip() {
        let b = Block(12345);
        assert_eq!(b.base_addr().block(), b);
        assert_eq!(Page(7).block_at(0), Page(7).first_block());
    }

    #[test]
    #[should_panic(expected = "out of page range")]
    fn block_at_rejects_large_offset() {
        let _ = Page(0).block_at(64);
    }

    #[test]
    fn delta_range_fits_page() {
        // The paper's default delta range comes from 4KB pages of 64B blocks.
        assert_eq!(BLOCKS_PER_PAGE, 64);
        let lo = Page(0).block_at(0);
        let hi = Page(0).block_at(63);
        assert_eq!(lo.page_delta(hi), Some(63));
        assert_eq!(hi.page_delta(lo), Some(-63));
    }
}
