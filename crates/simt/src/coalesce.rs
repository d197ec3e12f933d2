//! Warp-level memory coalescing.
//!
//! The memory system serves line-sized transactions. When the lanes of a
//! warp issue loads in the same step, accesses falling in the same line are
//! merged into one transaction — the classic coalescing rule. The counting
//! kernel's outer loop (consecutive lanes read consecutive edge slots)
//! coalesces perfectly; the inner merge loop (each lane walks a different
//! adjacency list) mostly does not, which is precisely why the paper's
//! kernel is texture-cache-bound.
//!
//! The executor coalesces as lanes issue: each read pushes its lines into
//! the warp step's line set with `push_lines`, which keeps the set in
//! first-touch order (deterministic timing).

/// Add the distinct line base addresses touched by one `(addr, bytes)`
/// access to `lines`, in first-touch order. `line_shift` is
/// `log2(line_bytes)`. Warps have ≤ 32 lanes, so a linear containment
/// check beats hashing.
#[inline]
pub(crate) fn push_lines(lines: &mut Vec<u64>, addr: u64, bytes: u32, line_shift: u32) {
    debug_assert!(bytes > 0);
    let first = addr >> line_shift;
    let last = (addr + bytes as u64 - 1) >> line_shift;
    for line in first..=last {
        let base = line << line_shift;
        if !lines.contains(&base) {
            lines.push(base);
        }
    }
}

/// Batch coalescing of a whole warp step's `(addr, bytes)` accesses: the
/// executor's earlier second pass, kept as the oracle for [`push_lines`].
#[cfg(test)]
fn coalesce_into(accesses: &[(u64, u32)], line_bytes: u32, out: &mut Vec<u64>) {
    out.clear();
    let shift = line_bytes.trailing_zeros();
    for &(addr, bytes) in accesses {
        debug_assert!(bytes > 0);
        let first = addr >> shift;
        let last = (addr + bytes as u64 - 1) >> shift;
        for line in first..=last {
            let base = line << shift;
            if !out.contains(&base) {
                out.push(base);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Lcg;

    fn coalesce(accesses: &[(u64, u32)], line: u32) -> Vec<u64> {
        let mut out = Vec::new();
        for &(addr, bytes) in accesses {
            push_lines(&mut out, addr, bytes, line.trailing_zeros());
        }
        out
    }

    #[test]
    fn perfectly_coalesced_warp_is_a_few_transactions() {
        // 32 lanes reading consecutive u32s: 128 bytes = 4 lines of 32 B.
        let accesses: Vec<(u64, u32)> = (0..32).map(|i| (i * 4, 4)).collect();
        assert_eq!(coalesce(&accesses, 32).len(), 4);
    }

    #[test]
    fn scattered_warp_is_one_transaction_per_lane() {
        let accesses: Vec<(u64, u32)> = (0..32).map(|i| (i * 4096, 4)).collect();
        assert_eq!(coalesce(&accesses, 32).len(), 32);
    }

    #[test]
    fn same_address_merges() {
        let accesses = vec![(100, 4), (100, 4), (96, 4)];
        assert_eq!(coalesce(&accesses, 32).len(), 1);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        // 8-byte read at offset 28 crosses the 32 B boundary.
        assert_eq!(coalesce(&[(28, 8)], 32), vec![0, 32]);
    }

    #[test]
    fn preserves_first_touch_order() {
        assert_eq!(coalesce(&[(64, 4), (0, 4), (65, 4)], 32), vec![64, 0]);
    }

    #[test]
    fn issue_time_pushes_match_batch_coalescing() {
        // Random warp steps of 1–64 reads: widths 1–128 B (many straddle a
        // line), clustered in a small window so lanes share lines, plus
        // scattered far reads. Both paths must produce the same lines in
        // the same order.
        let mut batch = Vec::new();
        for case in 0..500 {
            let mut rng = Lcg::for_case(case);
            let line = [32u32, 64, 128][(case % 3) as usize];
            let base = rng.below(1 << 20);
            let accesses: Vec<(u64, u32)> = (0..1 + rng.below(64))
                .map(|_| {
                    let addr = if rng.below(4) == 0 {
                        rng.next()
                    } else {
                        base + rng.below(512)
                    };
                    (addr, 1 + rng.below(128) as u32)
                })
                .collect();
            coalesce_into(&accesses, line, &mut batch);
            assert_eq!(coalesce(&accesses, line), batch, "case {case}");
        }
    }
}
