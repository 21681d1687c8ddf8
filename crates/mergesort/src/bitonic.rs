//! A bitonic sorting network on the simulated GPU — the data-oblivious
//! comparison baseline of the paper's related work (§II-C cites Peters
//! et al.'s bitonic sorters).
//!
//! Bitonic sort's access pattern depends only on `N`, never on the data:
//! stage `(k, j)` compare-exchanges element `i` with `i ⊕ 2ʲ`. Its bank
//! conflicts are therefore *input-independent* — the constructed
//! worst-case permutation cannot slow it down — but it pays
//! `Θ(N log² N)` work against merge sort's `Θ(N log N)`: precisely the
//! trade-off the paper's introduction describes for conflict-free
//! algorithms ("more overall work, higher constant factors").
//!
//! The simulation mirrors the classic GPU mapping: stages whose stride
//! fits in a `bE`-element tile run in shared memory (charged per warp
//! step); wider strides run in global memory (charged per coalesced
//! pass).

use wcms_dmm::BankModel;
use wcms_error::WcmsError;
use wcms_gpu_sim::{tile_traffic_words, GpuKey, SharedMemory};

use crate::instrument::{RoundCounters, SortReport};
use crate::params::SortParams;

/// Sort `input` with a bitonic network on the simulated GPU.
///
/// Returns the sorted output and a [`SortReport`] whose `base` holds the
/// shared-memory (in-tile) stages and whose `rounds` hold one entry per
/// global stage group.
///
/// # Errors
///
/// Returns [`WcmsError::InvalidLength`] if `input.len()` is not a power
/// of two (the bitonic network's structural requirement).
pub fn bitonic_sort_with_report<K: GpuKey>(
    input: &[K],
    params: &SortParams,
) -> Result<(Vec<K>, SortReport), WcmsError> {
    let n = input.len();
    if !n.is_power_of_two() {
        return Err(WcmsError::InvalidLength { n, block_elems: params.block_elems() });
    }
    let tile = params.block_elems().next_power_of_two().min(n);

    let mut data = input.to_vec();
    let mut base = RoundCounters::default();
    let mut rounds: Vec<RoundCounters> = Vec::new();
    let log_n = n.trailing_zeros() as usize;

    for k in 1..=log_n {
        // Collect this bitonic phase's strides: 2^(k-1) … 1.
        let mut j = k;
        let mut global_stage = RoundCounters::default();
        let mut had_global = false;
        while j > 0 {
            let stride = 1usize << (j - 1);
            if stride * 2 <= tile {
                // All remaining strides of this phase fit in a tile: run
                // them fused in shared memory, one tile per block.
                run_shared_stages(&mut data, k, j, tile, params, &mut base)?;
                j = 0;
            } else {
                run_global_stage(&mut data, k, stride, params, &mut global_stage);
                had_global = true;
                j -= 1;
            }
        }
        if had_global {
            rounds.push(global_stage);
        }
    }

    let report = SortReport { params: *params, n, base, rounds };
    Ok((data, report))
}

/// Direction of the compare-exchange for element `i` in phase `k`.
#[inline]
fn ascending(i: usize, k: usize) -> bool {
    (i >> k) & 1 == 0
}

/// Run all strides `2^(j-1) … 1` of phase `k` inside shared-memory tiles.
fn run_shared_stages<K: GpuKey>(
    data: &mut [K],
    k: usize,
    j: usize,
    tile: usize,
    params: &SortParams,
    counters: &mut RoundCounters,
) -> Result<(), WcmsError> {
    let w = params.w;
    for (block, chunk) in data.chunks_mut(tile).enumerate() {
        counters.blocks += 1;
        counters.global.merge(&tile_traffic_words(block * tile, tile, w, K::WORD_BYTES));
        let mut smem = SharedMemory::<K>::new(BankModel::new(w), tile);
        smem.fill_from(chunk);

        let base_index = block * tile;
        let mut jj = j;
        while jj > 0 {
            let stride = 1usize << (jj - 1);
            compare_exchange_stage(&mut smem, base_index, tile, stride, k, w)?;
            jj -= 1;
        }
        counters.shared.merge.merge(&smem.drain_totals());
        chunk.copy_from_slice(smem.as_slice());
        counters.global.merge(&tile_traffic_words(block * tile, tile, w, K::WORD_BYTES));
    }
    Ok(())
}

/// One in-tile compare-exchange stage: `tile/2` threads, each reading its
/// pair `(i, i+stride)` and writing min/max back — 2 read steps and 2
/// write steps per warp pass, all counted.
fn compare_exchange_stage<K: GpuKey>(
    smem: &mut SharedMemory<K>,
    base_index: usize,
    tile: usize,
    stride: usize,
    k: usize,
    w: usize,
) -> Result<(), WcmsError> {
    let pairs = tile / 2;
    let mut lo_addr: Vec<Option<usize>> = vec![None; w];
    let mut hi_addr: Vec<Option<usize>> = vec![None; w];
    let mut lo_val: Vec<Option<K>> = vec![None; w];
    let mut hi_val: Vec<Option<K>> = vec![None; w];
    let mut writes_lo: Vec<Option<(usize, K)>> = vec![None; w];
    let mut writes_hi: Vec<Option<(usize, K)>> = vec![None; w];

    let mut t = 0usize;
    while t < pairs {
        let lanes = (pairs - t).min(w);
        for l in 0..lanes {
            // Thread index → element index with the classic bitonic
            // indexing: insert a 0 bit at the stride position.
            let tid = t + l;
            let i = ((tid & !(stride - 1)) << 1) | (tid & (stride - 1));
            lo_addr[l] = Some(i);
            hi_addr[l] = Some(i + stride);
        }
        lo_addr[lanes..].iter_mut().for_each(|a| *a = None);
        hi_addr[lanes..].iter_mut().for_each(|a| *a = None);
        smem.read_step(&lo_addr[..lanes], &mut lo_val)?;
        smem.read_step(&hi_addr[..lanes], &mut hi_val)?;
        for l in 0..lanes {
            // Lanes 0..lanes were all assigned addresses above, so the
            // reads are present by construction.
            let (Some(ia), Some(ib)) = (lo_addr[l], hi_addr[l]) else { continue };
            let (Some(a), Some(b)) = (lo_val[l], hi_val[l]) else { continue };
            let up = ascending(base_index + ia, k);
            let (x, y) = if (a <= b) == up { (a, b) } else { (b, a) };
            writes_lo[l] = Some((ia, x));
            writes_hi[l] = Some((ib, y));
        }
        smem.write_step(&writes_lo[..lanes])?;
        smem.write_step(&writes_hi[..lanes])?;
        t += lanes;
    }
    Ok(())
}

/// One global-memory stage: coalesced passes over the pairs.
fn run_global_stage<K: GpuKey>(
    data: &mut [K],
    k: usize,
    stride: usize,
    params: &SortParams,
    counters: &mut RoundCounters,
) {
    let n = data.len();
    // Each pair reads and writes both elements; lanes are contiguous in
    // `i`, so accesses coalesce into 4 tile transfers worth of traffic.
    counters.global.merge(&tile_traffic_words(0, n, params.w, K::WORD_BYTES));
    counters.global.merge(&tile_traffic_words(0, n, params.w, K::WORD_BYTES));
    counters.blocks += n / (2 * params.block_elems().next_power_of_two().min(n)).max(1);
    for t in 0..n / 2 {
        let i = ((t & !(stride - 1)) << 1) | (t & (stride - 1));
        let jdx = i + stride;
        let up = ascending(i, k);
        if (data[i] <= data[jdx]) != up {
            data.swap(i, jdx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SortParams {
        SortParams::new(8, 4, 16).unwrap() // tile = 64, power of two
    }

    #[test]
    fn sorts_random_and_adversarial_inputs() {
        let p = params();
        let n = 1024usize;
        for input in [
            (0..n as u32).rev().collect::<Vec<_>>(),
            (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761) % 997).collect::<Vec<_>>(),
            vec![5u32; n],
            (0..n as u32).collect::<Vec<_>>(),
        ] {
            let mut want = input.clone();
            want.sort_unstable();
            let (out, report) = bitonic_sort_with_report(&input, &p).unwrap();
            assert_eq!(out, want);
            assert_eq!(report.total().shared.combined().crew_violations, 0);
        }
    }

    /// The key property: conflicts are *data-oblivious* — identical
    /// counters for any two inputs of the same size.
    #[test]
    fn conflicts_are_input_independent() {
        let p = params();
        let n = 512usize;
        let sorted: Vec<u32> = (0..n as u32).collect();
        let reversed: Vec<u32> = (0..n as u32).rev().collect();
        let scrambled: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(101) % 509).collect();
        let (_, r1) = bitonic_sort_with_report(&sorted, &p).unwrap();
        let (_, r2) = bitonic_sort_with_report(&reversed, &p).unwrap();
        let (_, r3) = bitonic_sort_with_report(&scrambled, &p).unwrap();
        assert_eq!(r1.total().shared, r2.total().shared);
        assert_eq!(r1.total().shared, r3.total().shared);
        assert_eq!(r1.total().global, r2.total().global);
    }

    /// Bitonic does more work: its shared-access count exceeds the
    /// pairwise merge sort's on equal input (the Θ(log²) factor).
    #[test]
    fn pays_more_accesses_than_merge_sort() {
        let p = SortParams::new(8, 4, 16).unwrap();
        let n = p.block_elems().next_power_of_two() * 16; // 1024
        let input: Vec<u32> = (0..n as u32).rev().collect();
        let (_, bitonic) = bitonic_sort_with_report(&input, &p).unwrap();
        // Merge sort with comparable tile: E=4 gives bE=64 as well.
        let (_, pairwise) = crate::driver::sort_on(
            &input,
            &p,
            &crate::backend::SimBackend,
            &crate::driver::SortSpec::default(),
        )
        .unwrap();
        assert!(
            bitonic.total().shared.combined().accesses
                > pairwise.total().shared.combined().accesses,
            "bitonic {} vs pairwise {}",
            bitonic.total().shared.combined().accesses,
            pairwise.total().shared.combined().accesses
        );
    }

    #[test]
    fn rejects_non_power_of_two() {
        let err = bitonic_sort_with_report(&[1, 2, 3], &params()).unwrap_err();
        assert!(matches!(err, WcmsError::InvalidLength { n: 3, .. }), "{err}");
    }
}
