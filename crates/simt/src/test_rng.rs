//! Hand-rolled LCG for the crate's seeded tests (the repo's usual
//! constant): every run draws the same cases, with no external
//! property-testing dependency.

pub(crate) struct Lcg(u64);

impl Lcg {
    /// A generator for test case `case`, decorrelated from its neighbours.
    pub(crate) fn for_case(case: u64) -> Self {
        Lcg(0x9E37_79B9_7F4A_7C15 ^ case.wrapping_mul(0xBF58_476D_1CE4_E5B9))
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.0 >> 16
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
