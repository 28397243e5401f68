//! Seeded input generation. Every input the program receives (op order,
//! allocation sizes, payload bytes, zero-page positions, app problem sizes)
//! comes from one of these generators, so a seed fixes the inputs.

/// SplitMix64: small, fast and good enough for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    /// An independent stream for `tag` (one per session or purpose), so
    /// adding draws to one stream never shifts another's inputs.
    pub fn fork(&self, tag: u64) -> Self {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Fill `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }

    /// Fill `buf` so that `zero_share` of its `page`-sized pages are all
    /// zero, at seeded positions; the other pages are random and, with
    /// overwhelming probability, not all zero.
    pub fn fill_sparse(&mut self, buf: &mut [u8], page: usize, zero_share: f64) {
        let pages = buf.len().div_ceil(page);
        let mut order: Vec<usize> = (0..pages).collect();
        self.shuffle(&mut order);
        let zeros = (pages as f64 * zero_share).round() as usize;
        let len = buf.len();
        for (rank, &p) in order.iter().enumerate() {
            let chunk = &mut buf[p * page..((p + 1) * page).min(len)];
            if rank < zeros {
                chunk.fill(0);
            } else {
                self.fill(chunk);
            }
        }
    }
}
