//! Seed plumbing: every input a workload feeds the program is derived
//! from the `--seed` argument through these functions.

/// One splitmix64 step: a well-mixed 64-bit value from any input.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The sub-seed for one named purpose (`"cve-order"`, `"fuzz"`, ...).
pub fn derive(seed: u64, purpose: &str) -> u64 {
    let mut h = splitmix(seed);
    for b in purpose.bytes() {
        h = splitmix(h ^ u64::from(b));
    }
    h
}

/// A small deterministic generator over [`splitmix`].
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded for one purpose.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        Rng(derive(seed, purpose))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix(self.0);
        self.0
    }

    /// Uniform in `0..n` (`n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_purpose_separated() {
        assert_eq!(derive(7, "fuzz"), derive(7, "fuzz"));
        assert_ne!(derive(7, "fuzz"), derive(7, "fleet"));
        assert_ne!(derive(7, "fuzz"), derive(8, "fuzz"));
        let mut a = Rng::new(3, "order");
        let mut v: Vec<u32> = (0..64).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }
}
