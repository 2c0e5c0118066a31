//! The paged KV-cache block allocator: a vLLM-style budget of
//! fixed-size token blocks shared by every in-flight request.
//!
//! The pager is deliberately simple — integer block accounting, no free
//! lists — because the simulator only needs *counts*: can this admission
//! reserve its blocks, can this decode run grow its caches, and what was
//! the peak. Backpressure (queueing) and eviction policy live in the
//! simulator loop; the pager just enforces the budget.

/// Paged KV-cache accounting for one load run.
#[derive(Debug, Clone)]
pub(crate) struct KvPager {
    /// Tokens per block.
    block_tokens: usize,
    /// Total budget in blocks; `None` is unpaged (unbounded).
    total: Option<u64>,
    /// Blocks currently allocated.
    used: u64,
    /// High-water mark of `used`.
    peak: u64,
}

impl KvPager {
    /// A pager with `total` blocks of `block_tokens` tokens each.
    pub(crate) fn new(block_tokens: usize, total: Option<u64>) -> Self {
        assert!(block_tokens >= 1, "block_tokens must be >= 1");
        Self {
            block_tokens,
            total,
            used: 0,
            peak: 0,
        }
    }

    /// Blocks needed to hold `tokens` cache entries.
    pub(crate) fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_tokens as u64)
    }

    /// Whether a request caching `tokens` entries at worst can ever be
    /// admitted: its blocks fit the whole budget (always, when unpaged).
    pub(crate) fn fits_alone(&self, tokens: u64) -> bool {
        self.total.is_none_or(|t| self.blocks_for(tokens) <= t)
    }

    /// Blocks currently free, or `u64::MAX` when unpaged.
    pub(crate) fn free(&self) -> u64 {
        match self.total {
            Some(t) => t - self.used,
            None => u64::MAX,
        }
    }

    /// Allocates `blocks` if the budget allows, returning whether it did.
    pub(crate) fn try_alloc(&mut self, blocks: u64) -> bool {
        if self.free() < blocks {
            return false;
        }
        self.used += blocks;
        self.peak = self.peak.max(self.used);
        true
    }

    /// Releases `blocks` back to the budget.
    pub(crate) fn release(&mut self, blocks: u64) {
        debug_assert!(blocks <= self.used, "releasing more blocks than held");
        self.used -= blocks;
    }

    /// Blocks currently allocated.
    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    /// High-water mark of allocated blocks.
    pub(crate) fn peak(&self) -> u64 {
        self.peak
    }

    /// The budget, if paged.
    pub(crate) fn total(&self) -> Option<u64> {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_math_rounds_up() {
        let pager = KvPager::new(16, Some(10));
        assert_eq!(pager.blocks_for(0), 0);
        assert_eq!(pager.blocks_for(1), 1);
        assert_eq!(pager.blocks_for(16), 1);
        assert_eq!(pager.blocks_for(17), 2);
    }

    #[test]
    fn budget_is_enforced_and_peak_tracked() {
        let mut pager = KvPager::new(16, Some(4));
        assert!(pager.try_alloc(3));
        assert!(!pager.try_alloc(2), "over budget");
        assert!(pager.try_alloc(1));
        assert_eq!(pager.free(), 0);
        pager.release(2);
        assert_eq!(pager.used(), 2);
        assert_eq!(pager.peak(), 4);
        assert!(pager.try_alloc(2));
    }

    #[test]
    fn unpaged_budget_never_blocks() {
        let mut pager = KvPager::new(16, None);
        assert!(pager.try_alloc(1 << 40));
        assert_eq!(pager.free(), u64::MAX);
        assert_eq!(pager.peak(), 1 << 40);
    }
}
