//! Oracles that check the paper algorithms without running them on the
//! simulated machine. The integration tests declare this module, and
//! `dc_core::sort::dualcube`'s unit tests include the same file, so it
//! names nothing from `dc_core`.

/// Algorithm 3's unrolled comparison network (the module doc of
/// `dc_core::sort::dualcube`) on a plain array of `2^(2n−1)` keys;
/// `tag` is the last level's direction (`SortOrder::tag`, true for
/// descending). Every round pairs `r` with `r ^ (1 << j)`; node `r`
/// keeps the minimum iff `bit(r, j) == dir(r)`, and a pair swaps only
/// when it is strictly out of order, so equal keys stay where they are.
pub fn sort_network_model<K: Ord + Clone>(keys: &[K], n: u32, tag: bool) -> Vec<K> {
    let bit = |r: usize, j: u32| (r >> j) & 1 == 1;
    let mut keys = keys.to_vec();
    let mut round = |j: u32, dir: &dyn Fn(usize) -> bool| {
        let before = keys.clone();
        for (r, key) in keys.iter_mut().enumerate() {
            let other = &before[r ^ (1 << j)];
            let keep_min = bit(r, j) == dir(r);
            if (keep_min && other < key) || (!keep_min && other > key) {
                *key = other.clone();
            }
        }
    };
    for level in 1..=n {
        let top = 2 * level - 2;
        for j in (0..top).rev() {
            round(j, &|r| bit(r, top));
        }
        for j in (0..=top).rev() {
            round(j, &|r| {
                if level == n {
                    tag
                } else {
                    bit(r, 2 * level - 1)
                }
            });
        }
    }
    keys
}
