//! Flat scratch arenas for kernel hot loops.
//!
//! The raw-speed kernel pass (docs/PERFORMANCE.md) replaces per-cell and
//! per-vertex allocations in the geometry kernels with two reusable
//! structures:
//!
//! * `WeldMap` — an open-addressing hash table over *packed* integer
//!   keys, used for vertex welding in `contour` (packed edge ids) and
//!   `tetclip` (packed edge + isovalue keys). Unlike
//!   `std::collections::HashMap` it allocates two flat arrays and never
//!   boxes per-entry state, and lookups are a multiply + masked linear
//!   probe. Insertion order still assigns point ids exactly like the
//!   `HashMap` it replaced, so welded meshes are bit-identical.
//!   `contour` keeps one table per isosurface; `tetclip` keeps two
//!   small ones as a window over its walk's k-slabs — only cells of the
//!   same or adjacent slabs share an edge, so the current slab's table
//!   and the previous one's answer every lookup as a whole-mesh table
//!   would, and `WeldMap::clear` recycles the older at each slab
//!   change.
//! * `TetScratch` — the per-cell tetrahedron buffers of the clip
//!   pipeline (`clip`/`isovolume`), allocated once per `execute` and
//!   reused across every straddling cell instead of being re-`collect`ed
//!   per cell.
//!
//! The workspace policy (DESIGN.md: "no per-cell allocation in kernel
//! inner loops") is a review rule; the per-kernel laps of
//! `benchmarks/run.sh` are its evidence.
#![deny(missing_docs)]

/// An integer key type usable in a `WeldMap`.
///
/// Implementations reserve one all-ones sentinel value ([`Self::EMPTY`])
/// to mark unoccupied slots; callers must never insert it. Both weld-key
/// packings in this crate stay clear of the sentinel because packed
/// point ids are bounded by the mesh point count (`< u32::MAX`).
pub trait PackedKey: Copy + Eq {
    /// Sentinel marking an empty slot; never a valid key.
    const EMPTY: Self;
    /// Probe start for a table of `mask + 1` (power-of-two) slots:
    /// a Fibonacci multiply spreads packed-id keys whose entropy sits in
    /// arbitrary bit positions.
    fn probe_start(self, mask: usize) -> usize;
}

/// 2^64 / φ, the Fibonacci hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl PackedKey for u64 {
    const EMPTY: Self = u64::MAX;

    #[inline]
    fn probe_start(self, mask: usize) -> usize {
        // Fold the high half down first so keys differing only in their
        // top 32 bits (the `lo` point id of a packed edge) still spread.
        (((self ^ (self >> 32)).wrapping_mul(FIB) >> 32) as usize) & mask
    }
}

impl PackedKey for u128 {
    const EMPTY: Self = u128::MAX;

    #[inline]
    fn probe_start(self, mask: usize) -> usize {
        let folded = (self as u64) ^ ((self >> 64) as u64);
        folded.probe_start(mask)
    }
}

/// Pack an ordered point-id pair into one `u64` weld key
/// (`contour`'s per-edge vertex identity).
#[inline]
pub fn pack_edge(lo: u32, hi: u32) -> u64 {
    (lo as u64) << 32 | hi as u64
}

/// Pack an ordered point-id pair plus an isovalue's bit pattern into one
/// `u128` weld key (`tetclip`'s per-edge-per-isovalue vertex identity).
#[inline]
pub(crate) fn pack_edge_iso(lo: u32, hi: u32, iso_bits: u64) -> u128 {
    (lo as u128) << 96 | (hi as u128) << 64 | iso_bits as u128
}

/// A flat open-addressing map from packed integer keys to point ids.
///
/// Backing storage is two parallel arrays (keys, values) with
/// power-of-two capacity, Fibonacci-hash probe starts, and linear
/// probing; the table grows (rehashes) at ~2/3 load. There is no
/// per-entry allocation and no meaningful iteration order — the kernels
/// `get`/`insert` (the clip family's stitch lists a slab's entries and
/// sorts them by value), and the point-id *assignment* order (the order
/// of first insertions) is what determines output meshes, exactly as
/// with the `HashMap` this replaced.
#[derive(Debug, Clone)]
pub(crate) struct WeldMap<K: PackedKey = u64> {
    keys: Vec<K>,
    vals: Vec<u32>,
    len: usize,
}

impl<K: PackedKey> Default for WeldMap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: PackedKey> WeldMap<K> {
    /// An empty map that allocates on first insert.
    pub(crate) fn new() -> Self {
        WeldMap {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
        }
    }

    /// An empty map pre-sized to hold `n` entries without rehashing.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut m = Self::new();
        if n > 0 {
            m.rebuild(Self::slots_for(n));
        }
        m
    }

    /// Drop all entries, keeping the allocation for reuse. Refills the
    /// whole key array, so the cost follows the capacity, not the entry count.
    pub(crate) fn clear(&mut self) {
        self.keys.fill(K::EMPTY);
        self.len = 0;
    }

    /// Power-of-two slot count keeping load ≤ 2/3 for `n` entries.
    fn slots_for(n: usize) -> usize {
        (n.saturating_mul(3) / 2 + 1).next_power_of_two().max(16)
    }

    /// The slot holding `key`, or the empty slot where it belongs.
    #[inline]
    fn slot(&self, key: K) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = key.probe_start(mask);
        loop {
            let k = self.keys[i];
            if k == key || k == K::EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Look up a key.
    #[inline]
    pub(crate) fn get(&self, key: K) -> Option<u32> {
        if self.keys.is_empty() {
            return None;
        }
        let i = self.slot(key);
        if self.keys[i] == K::EMPTY {
            None
        } else {
            Some(self.vals[i])
        }
    }

    /// Every `(key, value)` entry, in slot order (no meaning to it).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        let live = self.keys.iter().zip(&self.vals);
        live.filter(|(&k, _)| k != K::EMPTY).map(|(&k, &v)| (k, v))
    }

    /// Insert or overwrite a key. `key` must not be [`PackedKey::EMPTY`].
    #[inline]
    pub(crate) fn insert(&mut self, key: K, val: u32) {
        debug_assert!(key != K::EMPTY, "the all-ones key is the empty sentinel");
        if self.keys.is_empty() || (self.len + 1) * 3 > self.keys.len() * 2 {
            self.rebuild(Self::slots_for(self.len + 1));
        }
        let i = self.slot(key);
        if self.keys[i] == K::EMPTY {
            self.len += 1;
        }
        self.keys[i] = key;
        self.vals[i] = val;
    }

    /// Re-allocate to `slots` slots and rehash every live entry.
    fn rebuild(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two() && slots * 2 >= self.len * 3);
        let old_keys = std::mem::replace(&mut self.keys, vec![K::EMPTY; slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0u32; slots]);
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != K::EMPTY {
                let i = self.slot(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }
}

/// Reusable per-cell buffers for the tetrahedral clip pipeline.
///
/// The hex-subdivision walk decomposes each straddling hexahedron into
/// 6 tets ([`tets`](Self::tets)) and the filter's clip leaves the
/// survivors in [`kept`](Self::kept): the one-sided spherical clip
/// writes them directly, the two-sided isovolume clips into
/// [`mid`](Self::mid) (≤ 3 pieces per tet) and again into `kept`. One
/// `TetScratch` lives for a whole `execute` call; each cell `clear()`s
/// and refills the buffers in place, so the inner loop performs no
/// allocation after warm-up.
#[derive(Debug)]
pub(crate) struct TetScratch {
    /// The cell's tets from the hex decomposition (6 for a hexahedron).
    pub(crate) tets: Vec<[u32; 4]>,
    /// Output of the first of two clip passes (≤ 3 tets per input tet).
    pub(crate) mid: Vec<[u32; 4]>,
    /// Output of the last clip pass: the cell's output tets.
    pub(crate) kept: Vec<[u32; 4]>,
}

impl Default for TetScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl TetScratch {
    /// Buffers pre-sized for hexahedral cells (6 → 18 → 54 tets).
    pub(crate) fn new() -> Self {
        TetScratch {
            tets: Vec::with_capacity(6),
            mid: Vec::with_capacity(18),
            kept: Vec::with_capacity(54),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn empty_map_finds_nothing() {
        let m: WeldMap = WeldMap::new();
        assert_eq!(m.get(pack_edge(0, 1)), None);
    }

    #[test]
    fn insert_then_get_round_trips() {
        let mut m: WeldMap = WeldMap::new();
        m.insert(pack_edge(3, 9), 17);
        assert_eq!(m.get(pack_edge(3, 9)), Some(17));
        assert_eq!(m.get(pack_edge(9, 3)), None, "packing is order-sensitive");
    }

    #[test]
    fn duplicate_vertex_welds_to_first_id() {
        // The welding pattern: first sight assigns the next point id,
        // every later sight of the same edge returns it unchanged.
        let mut m: WeldMap = WeldMap::new();
        let mut next = 0u32;
        let mut alloc = |m: &mut WeldMap, k: u64| match m.get(k) {
            Some(id) => id,
            None => {
                let id = next;
                next += 1;
                m.insert(k, id);
                id
            }
        };
        let a = alloc(&mut m, pack_edge(0, 1));
        let b = alloc(&mut m, pack_edge(1, 2));
        let a2 = alloc(&mut m, pack_edge(0, 1));
        assert_eq!((a, b, a2), (0, 1, 0));
        assert_eq!(next, 2, "duplicate edge must not mint a new vertex");
    }

    #[test]
    fn boundary_point_ids_survive_growth() {
        // Keys shaped like real weld keys at id extremes, plus enough
        // volume to force several rehashes.
        let mut m: WeldMap = WeldMap::new();
        let mut reference: HashMap<u64, u32> = HashMap::new();
        let ids = [0u32, 1, 2, u32::MAX - 2, u32::MAX - 1];
        let mut val = 0u32;
        for &lo in &ids {
            for &hi in &ids {
                if lo < hi {
                    m.insert(pack_edge(lo, hi), val);
                    reference.insert(pack_edge(lo, hi), val);
                    val += 1;
                }
            }
        }
        for i in 0..10_000u32 {
            m.insert(pack_edge(i, i + 1), 100 + i);
            reference.insert(pack_edge(i, i + 1), 100 + i);
        }
        for (&k, &v) in &reference {
            assert_eq!(m.get(k), Some(v), "key {k:#x}");
        }
    }

    #[test]
    fn matches_hashmap_on_colliding_key_stream() {
        // Sequential edge keys share probe neighborhoods; the linear
        // probe must still keep every entry distinct.
        let mut m: WeldMap<u128> = WeldMap::with_capacity(64);
        let mut reference: HashMap<u128, u32> = HashMap::new();
        for i in 0..2_000u32 {
            let key = pack_edge_iso(i / 7, i / 7 + 1 + i % 7, (i % 3) as u64);
            let val = i;
            // Same first-wins discipline the kernels use.
            if m.get(key).is_none() {
                m.insert(key, val);
            }
            reference.entry(key).or_insert(val);
        }
        for (&k, &v) in &reference {
            assert_eq!(m.get(k), Some(v));
        }
    }

    #[test]
    fn clear_keeps_capacity_and_drops_entries() {
        let mut m: WeldMap = WeldMap::with_capacity(100);
        for i in 0..100u32 {
            m.insert(pack_edge(i, i + 1), i);
        }
        m.clear();
        assert_eq!(m.get(pack_edge(0, 1)), None);
        for i in 0..100u32 {
            m.insert(pack_edge(i, i + 1), i + 1);
        }
        assert_eq!(m.get(pack_edge(50, 51)), Some(51));
    }

    #[test]
    fn u128_keys_separate_iso_levels() {
        let mut m: WeldMap<u128> = WeldMap::new();
        let lo = 0.25f64.to_bits();
        let hi = (-0.25f64).to_bits();
        m.insert(pack_edge_iso(4, 9, lo), 1);
        m.insert(pack_edge_iso(4, 9, hi), 2);
        assert_eq!(m.get(pack_edge_iso(4, 9, lo)), Some(1));
        assert_eq!(m.get(pack_edge_iso(4, 9, hi)), Some(2));
    }

    #[test]
    fn tet_scratch_starts_empty_with_capacity() {
        let s = TetScratch::new();
        assert!(s.tets.is_empty() && s.mid.is_empty() && s.kept.is_empty());
        assert!(s.tets.capacity() >= 6);
        assert!(s.mid.capacity() >= 18);
        assert!(s.kept.capacity() >= 54);
    }
}
