//! Tetrahedral clipping: the shared engine behind spherical clip and
//! isovolume.
//!
//! Cells that straddle an implicit surface are decomposed into
//! tetrahedra; each tetrahedron is clipped against the scalar value,
//! keeping the side where `value >= iso` ([`clip_keep_above`]) or
//! `value <= iso` (`clip_keep_below_into`). The clipped pieces are emitted
//! as new tetrahedra with interpolated vertices, exactly as VTK-m's clip
//! worklets subdivide straddling cells (§III-B3/B4 of the paper).
//!
//! The keep-below side is computed by negating the per-point scalars *at
//! comparison time* instead of rewriting `mesh.values` — IEEE-754
//! negation is exact, so classification, interpolation parameters, and
//! weld keys are bit-identical to clipping the negated mesh at `-iso`,
//! without the O(points) traffic per clipped cell that the old
//! negate-clip-negate dance cost isovolume.
//!
//! The `_into` variants append into caller-owned scratch buffers
//! (`arena::TetScratch`) so the per-cell inner loop allocates nothing
//! after warm-up. That loop is `subdivide_hexes`, the one
//! hex-subdivision walk: `clip`, `isovolume` and the DPP isovolume all
//! run it and differ only in which cells they feed it, the per-point
//! scalars, and the clip applied to a straddling cell's tets.
//!
//! # The weld is a two-slab window
//!
//! An interpolated point is welded by its edge, and a cell asks for an
//! edge only if both ends lie in its closure. The walk visits cells in
//! ascending id, hence in ascending k-slab, and the closures of two
//! cells meet only if the cells sit in the same slab or in adjacent
//! ones. So a key first seen in slab `k` can be asked for again only in
//! slab `k` or `k + 1`: [`TetMesh`] keeps one `WeldMap` for the
//! current slab and one for the previous, looks in both, inserts into
//! the current, and forgets the older when the walk moves up. Every
//! lookup answers as one never-cleared table would and point ids are
//! still handed out in creation order, so the output is the same bits —
//! from two tables of a few thousand slots that stay in cache, where
//! the single table of a 128³ run was 42 MB of random probes
//! (docs/PERFORMANCE.md, which also says why `contour`'s weld keeps
//! its one table).

use crate::arena::{pack_edge_iso, TetScratch, WeldMap};
use vizmesh::{CellSet, CellShape, UniformGrid, Vec3, WorkCounters};

/// Decomposition of a hexahedron (VTK corner order) into 6 tetrahedra
/// sharing the 0–6 main diagonal. The union tiles the hex exactly.
pub(crate) const HEX_TO_TETS: [[usize; 4]; 6] = [
    [0, 1, 2, 6],
    [0, 2, 3, 6],
    [0, 3, 7, 6],
    [0, 7, 4, 6],
    [0, 4, 5, 6],
    [0, 5, 1, 6],
];

/// A growing tetrahedral mesh with per-point scalar values and vertex
/// welding on interpolated edges.
#[derive(Debug, Default)]
pub struct TetMesh {
    pub(crate) points: Vec<Vec3>,
    /// Clip scalar at each point (signed distance or field value).
    pub(crate) values: Vec<f64>,
    /// A carried data scalar (e.g. the energy field), interpolated along
    /// with the clip scalar so output meshes keep their colors.
    pub(crate) payloads: Vec<f64>,
    /// Weld maps for interpolated edge points, keyed by the packed
    /// ordered pair of parent point ids and the interpolation target's
    /// bits: `[0]` holds the points made in the walk's current k-slab,
    /// `[1]` those of the slab before (module docs). A mesh nobody
    /// [advances](Self::advance_weld) welds everything in `[0]`.
    weld: [WeldMap<u128>; 2],
}

impl TetMesh {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty mesh whose point arrays are pre-sized for roughly
    /// `points` vertices (a hint; the mesh still grows on demand). The
    /// weld tables size themselves: they hold a slab's edge points, not
    /// the mesh's.
    pub(crate) fn with_point_capacity(points: usize) -> Self {
        TetMesh {
            points: Vec::with_capacity(points),
            values: Vec::with_capacity(points),
            payloads: Vec::with_capacity(points),
            ..Self::default()
        }
    }

    /// Tell the weld that the walk moved up `slabs ≥ 1` k-slabs: the
    /// current table becomes the previous one and everything older is
    /// forgotten (after a jump past a whole slab, both). Each
    /// [`WeldMap::clear`] costs the table's capacity — one slab's worth
    /// of slots, paid once per slab.
    pub(crate) fn advance_weld(&mut self, slabs: usize) {
        if slabs == 1 {
            self.weld.swap(0, 1);
        } else {
            self.weld[1].clear();
        }
        self.weld[0].clear();
    }

    /// Add an original (non-interpolated) point.
    pub fn add_point(&mut self, p: Vec3, value: f64) -> u32 {
        self.add_point_with(p, value, value)
    }

    /// Add an original point carrying a separate data payload.
    pub(crate) fn add_point_with(&mut self, p: Vec3, value: f64, payload: f64) -> u32 {
        self.points.push(p);
        self.values.push(value);
        self.payloads.push(payload);
        (self.points.len() - 1) as u32
    }

    /// Signed volume of a tet.
    pub fn tet_volume(&self, t: [u32; 4]) -> f64 {
        let (a, b, c, d) = (
            self.points[t[0] as usize],
            self.points[t[1] as usize],
            self.points[t[2] as usize],
            self.points[t[3] as usize],
        );
        (b - a).cross(c - a).dot(d - a) / 6.0
    }

    /// Interpolated point on edge `(a, b)` where the (possibly
    /// sign-flipped) scalar hits `iso`, welded so the same edge/iso pair
    /// reuses one vertex. `iso` is the *effective* isovalue: for a
    /// keep-below clip at `hi` the caller passes `-hi` with
    /// `flip = true`, so weld keys (and therefore point identities)
    /// match a literal negate-the-mesh clip bit for bit.
    fn edge_point(&mut self, a: u32, b: u32, iso: f64, flip: bool) -> u32 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let key = pack_edge_iso(lo, hi, iso.to_bits());
        if let Some(id) = self.weld[0].get(key).or_else(|| self.weld[1].get(key)) {
            return id;
        }
        let (mut va, mut vb) = (self.values[a as usize], self.values[b as usize]);
        if flip {
            va = -va;
            vb = -vb;
        }
        let t = ((iso - va) / (vb - va)).clamp(0.0, 1.0);
        let p = self.points[a as usize].lerp(self.points[b as usize], t);
        let pay =
            self.payloads[a as usize] + (self.payloads[b as usize] - self.payloads[a as usize]) * t;
        let value = if flip { -iso } else { iso };
        let id = self.add_point_with(p, value, pay);
        self.weld[0].insert(key, id);
        id
    }
}

/// Clip every tet of `mesh`, keeping the region where `value >= iso`.
/// Returns the clipped tet list (indices into the same, grown, mesh) and
/// the work performed.
pub fn clip_keep_above(
    mesh: &mut TetMesh,
    tets: &[[u32; 4]],
    iso: f64,
) -> (Vec<[u32; 4]>, WorkCounters) {
    let mut out = Vec::new();
    let work = clip_keep_above_into(mesh, tets, iso, &mut out);
    (out, work)
}

/// [`clip_keep_above`] writing into a reused scratch buffer: `out` is
/// cleared, then filled. Returns the work performed.
pub(crate) fn clip_keep_above_into(
    mesh: &mut TetMesh,
    tets: &[[u32; 4]],
    iso: f64,
    out: &mut Vec<[u32; 4]>,
) -> WorkCounters {
    clip_tets(mesh, tets, iso, false, out)
}

/// Clip every tet of `mesh`, keeping the region where `value <= iso`,
/// into a reused scratch buffer: `out` is cleared, then filled. Returns
/// the work performed.
pub(crate) fn clip_keep_below_into(
    mesh: &mut TetMesh,
    tets: &[[u32; 4]],
    iso: f64,
    out: &mut Vec<[u32; 4]>,
) -> WorkCounters {
    clip_tets(mesh, tets, -iso, true, out)
}

/// Where a hexahedral cell sits relative to the kept region. One byte,
/// because the DPP classify map prices its output by element size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum HexSide {
    /// Entirely outside: dropped.
    Out,
    /// Entirely inside: passed through as one hexahedron.
    Whole,
    /// Cut by the surface: tetrahedralized and clipped.
    Straddle,
}

/// What [`subdivide_hexes`] built, with its work as integer tallies
/// each caller prices in its own currency (kernel [`WorkCounters`] or
/// primitive traffic).
pub(crate) struct Subdivision {
    pub(crate) mesh: TetMesh,
    pub(crate) cells: CellSet,
    /// Grid points first welded by a whole cell.
    pub(crate) whole_points: u64,
    /// Grid points first welded by a straddling cell.
    pub(crate) straddle_points: u64,
    pub(crate) whole_cells: u64,
    /// Tets handed to the clip (6 per straddling cell).
    pub(crate) tets_clipped: u64,
    /// Summed work of the clip calls.
    pub(crate) clip_work: WorkCounters,
}

impl Subdivision {
    /// The traditional filters' `(GatherScatter, TetClip)` kernel work.
    pub(crate) fn kernel_work(&self) -> (WorkCounters, WorkCounters) {
        let mut gather = WorkCounters::new();
        gather.tally(self.whole_points, 12, 3, 32, 40);
        gather.tally(self.whole_cells, 30, 0, 32, 40);
        let mut tet_work = self.clip_work;
        tet_work.tally(self.straddle_points, 12, 3, 32, 40);
        (gather, tet_work)
    }
}

/// The hex-subdivision walk: visit `cells`, which must be ascending cell
/// ids (a range, or a compacted list of active cells), weld each grid
/// point at first use with its `point(id) = (clip scalar, payload)`,
/// pass [`HexSide::Whole`] cells through as hexahedra, and split
/// [`HexSide::Straddle`] cells along [`HEX_TO_TETS`] into
/// `scratch.tets`, which `clip` cuts down to `scratch.kept`.
/// `tets_per_straddler` pre-sizes the output for the caller's measured
/// straddle shape; everything still grows on demand.
///
/// # Panics
///
/// If a cell lies in a lower k-slab than the cell before it: the edge
/// weld remembers two slabs (module docs) and the walk advances it as
/// the slab changes, so stepping back would lose points already made.
pub(crate) fn subdivide_hexes(
    grid: &UniformGrid,
    cells: impl Iterator<Item = usize> + Clone,
    sides: &[HexSide],
    tets_per_straddler: usize,
    point: impl Fn(usize) -> (f64, f64),
    mut clip: impl FnMut(&mut TetMesh, &mut TetScratch) -> WorkCounters,
) -> Subdivision {
    let num_points = grid.num_points();
    let (mut num_whole, mut num_straddle) = (0usize, 0usize);
    for c in cells.clone() {
        match sides[c] {
            HexSide::Whole => num_whole += 1,
            HexSide::Straddle => num_straddle += 1,
            HexSide::Out => {}
        }
    }
    let active = num_whole + num_straddle;
    let num_tets = tets_per_straddler * num_straddle;
    let mut out = Subdivision {
        mesh: TetMesh::with_point_capacity(active.saturating_mul(2).min(num_points)),
        cells: CellSet::with_capacity(num_whole + num_tets, 8 * num_whole + 4 * num_tets),
        whole_points: 0,
        straddle_points: 0,
        whole_cells: 0,
        tets_clipped: 0,
        clip_work: WorkCounters::new(),
    };
    let mut scratch = TetScratch::new();
    let mut point_map: Vec<u32> = vec![u32::MAX; num_points];
    let mut slab = 0;
    for cell in grid.cells(cells.filter(|&c| sides[c] != HexSide::Out)) {
        let k = cell.ijk()[2];
        if k != slab {
            assert!(
                k > slab,
                "subdivide_hexes: cell {} steps back from k-slab {slab} to {k}",
                cell.id()
            );
            out.mesh.advance_weld(k - slab);
            slab = k;
        }
        let mut corner = [0u32; 8];
        let mut welded = 0;
        for (slot, &pid) in cell.point_ids().iter().enumerate() {
            if point_map[pid] == u32::MAX {
                let (value, payload) = point(pid);
                point_map[pid] = out
                    .mesh
                    .add_point_with(cell.corner_coord(slot), value, payload);
                welded += 1;
            }
            corner[slot] = point_map[pid];
        }
        if sides[cell.id()] == HexSide::Whole {
            out.cells.push(CellShape::Hexahedron, &corner);
            out.whole_cells += 1;
            out.whole_points += welded;
        } else {
            out.straddle_points += welded;
            scratch.tets.clear();
            for t in HEX_TO_TETS {
                scratch
                    .tets
                    .push([corner[t[0]], corner[t[1]], corner[t[2]], corner[t[3]]]);
            }
            out.tets_clipped += scratch.tets.len() as u64;
            out.clip_work += clip(&mut out.mesh, &mut scratch);
            for t in &scratch.kept {
                out.cells.push(CellShape::Tetra, t);
            }
        }
    }
    out
}

/// The one clip core. `flip = false` keeps `value >= iso`; `flip = true`
/// keeps `-value >= iso`, i.e. `value <= -iso`, evaluated by negating
/// scalars at the comparison (exact under IEEE-754, so results are
/// bit-identical to clipping a negated mesh).
fn clip_tets(
    mesh: &mut TetMesh,
    tets: &[[u32; 4]],
    iso: f64,
    flip: bool,
    out: &mut Vec<[u32; 4]>,
) -> WorkCounters {
    let want = 3 * tets.len();
    if out.capacity() < want {
        // First use of this scratch buffer (or an unusually large cell):
        // size it once; later cells reuse the allocation.
        *out = Vec::with_capacity(want.max(16));
    }
    out.clear();
    let mut work = WorkCounters::new();
    let value_of = |mesh: &TetMesh, v: u32| {
        let raw = mesh.values[v as usize];
        if flip {
            -raw
        } else {
            raw
        }
    };
    for &tet in tets {
        // Partition corners into kept (value >= iso) and dropped.
        let mut kept = [0u32; 4];
        let mut dropped = [0u32; 4];
        let (mut nk, mut nd) = (0usize, 0usize);
        for &v in &tet {
            if value_of(mesh, v) >= iso {
                kept[nk] = v;
                nk += 1;
            } else {
                dropped[nd] = v;
                nd += 1;
            }
        }
        work.tally(1, 24, 4, 32 + 96, 0);
        match nk {
            0 => {}
            4 => {
                out.push(tet);
                work.tally(1, 4, 0, 0, 16);
            }
            1 => {
                // One kept corner a: tet (a, ab', ac', ad').
                let a = kept[0];
                let p = [
                    a,
                    mesh.edge_point(a, dropped[0], iso, flip),
                    mesh.edge_point(a, dropped[1], iso, flip),
                    mesh.edge_point(a, dropped[2], iso, flip),
                ];
                out.push(p);
                work.tally(1, 120, 36, 96, 64);
            }
            3 => {
                // One dropped corner d: prism between triangle (a, b, c)
                // and (ad', bd', cd'), split into 3 tets.
                let d = dropped[0];
                let (a, b, c) = (kept[0], kept[1], kept[2]);
                let ad = mesh.edge_point(a, d, iso, flip);
                let bd = mesh.edge_point(b, d, iso, flip);
                let cd = mesh.edge_point(c, d, iso, flip);
                out.push([a, b, c, ad]);
                out.push([b, c, ad, bd]);
                out.push([c, ad, bd, cd]);
                work.tally(3, 90, 28, 96, 64);
            }
            2 => {
                // Kept a, b; dropped c, d: prism between (a, ac', ad') and
                // (b, bc', bd').
                let (a, b) = (kept[0], kept[1]);
                let (c, d) = (dropped[0], dropped[1]);
                let ac = mesh.edge_point(a, c, iso, flip);
                let ad = mesh.edge_point(a, d, iso, flip);
                let bc = mesh.edge_point(b, c, iso, flip);
                let bd = mesh.edge_point(b, d, iso, flip);
                out.push([a, ac, ad, b]);
                out.push([ac, ad, b, bc]);
                out.push([ad, b, bc, bd]);
                work.tally(3, 110, 34, 128, 64);
            }
            // lint: infallible because a tetrahedron keeps zero to four vertices
            _ => unreachable!(),
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isovolume::Isovolume;
    use propcheck::prelude::*;
    use propcheck::test_runner::Source;
    use vizmesh::Aabb;

    /// Build a single-tet mesh with the given corner values.
    fn one_tet(values: [f64; 4]) -> (TetMesh, [u32; 4]) {
        let mut m = TetMesh::new();
        let t = [
            m.add_point(Vec3::ZERO, values[0]),
            m.add_point(Vec3::X, values[1]),
            m.add_point(Vec3::Y, values[2]),
            m.add_point(Vec3::Z, values[3]),
        ];
        (m, t)
    }

    fn volume_of(mesh: &TetMesh, tets: &[[u32; 4]]) -> f64 {
        tets.iter().map(|&t| mesh.tet_volume(t).abs()).sum()
    }

    #[test]
    fn hex_decomposition_tiles_volume() {
        // Unit cube corners in VTK order.
        let corners = crate::contour::CORNERS;
        let mut m = TetMesh::new();
        let ids: Vec<u32> = corners
            .iter()
            .map(|&c| m.add_point(Vec3::from(c), 0.0))
            .collect();
        let mut vol = 0.0;
        for tet in HEX_TO_TETS {
            let t = [ids[tet[0]], ids[tet[1]], ids[tet[2]], ids[tet[3]]];
            let v = m.tet_volume(t).abs();
            assert!(v > 0.0, "degenerate tet in decomposition");
            vol += v;
        }
        assert!((vol - 1.0).abs() < 1e-12, "volume = {vol}");
    }

    #[test]
    fn keep_all_and_drop_all() {
        let (mut m, t) = one_tet([1.0, 1.0, 1.0, 1.0]);
        let (kept, _) = clip_keep_above(&mut m, &[t], 0.0);
        assert_eq!(kept, vec![t]);
        let (dropped, _) = clip_keep_above(&mut m, &[t], 2.0);
        assert!(dropped.is_empty());
    }

    #[test]
    fn one_corner_kept_produces_corner_tet() {
        let (mut m, t) = one_tet([1.0, -1.0, -1.0, -1.0]);
        let (kept, _) = clip_keep_above(&mut m, &[t], 0.0);
        assert_eq!(kept.len(), 1);
        // The kept tet's volume is 1/8 of the original (midpoint cuts).
        let orig = 1.0 / 6.0;
        let v = volume_of(&m, &kept);
        assert!((v - orig / 8.0).abs() < 1e-12, "v = {v}");
    }

    #[test]
    fn three_corners_kept_is_complement_of_one() {
        let (mut m, t) = one_tet([-1.0, 1.0, 1.0, 1.0]);
        let (kept, _) = clip_keep_above(&mut m, &[t], 0.0);
        assert_eq!(kept.len(), 3);
        let orig = 1.0 / 6.0;
        let v = volume_of(&m, &kept);
        assert!((v - orig * 7.0 / 8.0).abs() < 1e-12, "v = {v}");
    }

    #[test]
    fn clip_pieces_partition_volume() {
        // For any corner values, above-pieces + below-pieces = whole tet.
        let cases = [
            [0.3, -0.7, 0.9, -0.1],
            [1.0, 2.0, -3.0, 4.0],
            [-1.0, -2.0, 0.5, 0.7],
            [0.1, 0.2, 0.3, -0.4],
        ];
        for values in cases {
            let (mut m, t) = one_tet(values);
            let (above, _) = clip_keep_above(&mut m, &[t], 0.0);
            let neg: Vec<f64> = m.values.iter().map(|v| -v).collect();
            let mut m2 = TetMesh::new();
            // Rebuild with negated values for the below side.
            let t2 = [
                m2.add_point(Vec3::ZERO, neg[0]),
                m2.add_point(Vec3::X, neg[1]),
                m2.add_point(Vec3::Y, neg[2]),
                m2.add_point(Vec3::Z, neg[3]),
            ];
            let (below, _) = clip_keep_above(&mut m2, &[t2], 0.0);
            let total = volume_of(&m, &above) + volume_of(&m2, &below);
            assert!(
                (total - 1.0 / 6.0).abs() < 1e-12,
                "values {values:?}: {total}"
            );
        }
    }

    #[test]
    fn keep_below_matches_negated_keep_above_bitwise() {
        // clip_keep_below_into(hi) must reproduce the old negate/clip/negate
        // sequence exactly: same points, same values, same connectivity.
        let cases = [
            [0.3, -0.7, 0.9, -0.1],
            [1.0, 2.0, -3.0, 4.0],
            [0.1, 0.2, 0.3, -0.4],
        ];
        for values in cases {
            let hi = 0.25;
            let (mut direct, t) = one_tet(values);
            let mut below = Vec::new();
            clip_keep_below_into(&mut direct, &[t], hi, &mut below);

            let (mut via_negate, t2) = one_tet(values);
            for v in via_negate.values.iter_mut() {
                *v = -*v;
            }
            let (kept, _) = clip_keep_above(&mut via_negate, &[t2], -hi);
            for v in via_negate.values.iter_mut() {
                *v = -*v;
            }

            assert_eq!(below, kept, "connectivity for {values:?}");
            assert_eq!(direct.points.len(), via_negate.points.len());
            for i in 0..direct.points.len() {
                let (p, q) = (direct.points[i], via_negate.points[i]);
                assert_eq!(
                    [p.x, p.y, p.z].map(f64::to_bits),
                    [q.x, q.y, q.z].map(f64::to_bits),
                    "point {i} for {values:?}"
                );
                assert_eq!(
                    direct.values[i].to_bits(),
                    via_negate.values[i].to_bits(),
                    "value {i} for {values:?}"
                );
            }
        }
    }

    #[test]
    fn keep_below_then_above_partitions_volume() {
        let (mut m, t) = one_tet([0.3, -0.7, 0.9, -0.1]);
        let (above, _) = clip_keep_above(&mut m, &[t], 0.0);
        let mut below = Vec::new();
        clip_keep_below_into(&mut m, &[t], 0.0, &mut below);
        let total = volume_of(&m, &above) + volume_of(&m, &below);
        assert!((total - 1.0 / 6.0).abs() < 1e-12, "total = {total}");
    }

    #[test]
    fn scratch_reuse_leaks_no_state_between_cells() {
        // Clip two disjoint cells through the same scratch buffers; the
        // results must match fresh-buffer clips cell by cell.
        let mut scratch = TetScratch::new();
        let mut welded = TetMesh::new();
        let mut fresh = TetMesh::new();
        let cells = [
            ([0.4, -0.6, 0.2, -0.9], 0.1),
            ([-0.5, 0.5, -0.5, 0.5], 0.0),
            ([1.0, 1.0, 1.0, 1.0], 0.5),
        ];
        let add_cell = |m: &mut TetMesh, vals: [f64; 4], offset: f64| {
            [
                m.add_point(Vec3::splat(offset), vals[0]),
                m.add_point(Vec3::splat(offset) + Vec3::X, vals[1]),
                m.add_point(Vec3::splat(offset) + Vec3::Y, vals[2]),
                m.add_point(Vec3::splat(offset) + Vec3::Z, vals[3]),
            ]
        };
        for (i, &(vals, iso)) in cells.iter().enumerate() {
            let t = add_cell(&mut welded, vals, i as f64 * 10.0);
            scratch.tets.clear();
            scratch.tets.push(t);
            clip_keep_above_into(&mut welded, &scratch.tets, iso, &mut scratch.mid);
            clip_keep_below_into(&mut welded, &scratch.mid, iso + 0.3, &mut scratch.kept);

            let t2 = add_cell(&mut fresh, vals, i as f64 * 10.0);
            let (mid, _) = clip_keep_above(&mut fresh, &[t2], iso);
            let mut kept = Vec::new();
            clip_keep_below_into(&mut fresh, &mid, iso + 0.3, &mut kept);

            // Same piece count and same volume, cell by cell — nothing
            // from the previous cell's scratch contents bleeds through.
            assert_eq!(scratch.mid.len(), mid.len(), "cell {i} mid");
            assert_eq!(scratch.kept.len(), kept.len(), "cell {i} kept");
            let a: f64 = scratch
                .kept
                .iter()
                .map(|&t| welded.tet_volume(t).abs())
                .sum();
            let b: f64 = kept.iter().map(|&t| fresh.tet_volume(t).abs()).sum();
            assert!((a - b).abs() < 1e-12, "cell {i}: {a} vs {b}");
        }
    }

    #[test]
    fn edge_points_are_welded_across_tets() {
        // Two tets sharing edge (0, 1) with a crossing on it: the
        // interpolated point must be created once.
        let mut m = TetMesh::new();
        let p0 = m.add_point(Vec3::ZERO, -1.0);
        let p1 = m.add_point(Vec3::X, 1.0);
        let p2 = m.add_point(Vec3::Y, 1.0);
        let p3 = m.add_point(Vec3::Z, 1.0);
        let p4 = m.add_point(Vec3::new(1.0, 1.0, 1.0), 1.0);
        let tets = [[p0, p1, p2, p3], [p0, p1, p2, p4]];
        let before = m.points.len();
        let (kept, _) = clip_keep_above(&mut m, &tets, 0.0);
        assert_eq!(kept.len(), 6);
        // Edges crossing: (0,1), (0,2), (0,3) for tet 1 and (0,1), (0,2),
        // (0,4) for tet 2 → 4 unique new points, not 6.
        assert_eq!(m.points.len(), before + 4);
    }

    #[test]
    fn interpolated_points_sit_at_isovalue() {
        let (mut m, t) = one_tet([2.0, -2.0, -2.0, -2.0]);
        let (_, _) = clip_keep_above(&mut m, &[t], 1.0);
        // New points (indices 4+) carry the isovalue.
        for i in 4..m.points.len() {
            assert_eq!(m.values[i], 1.0);
        }
        // Interpolation position: iso 1.0 between 2.0 and -2.0 is t = 0.25.
        let p = m.points[4];
        assert!((p - Vec3::new(0.25, 0.0, 0.0)).length() < 1e-12);
    }

    #[test]
    fn work_counts_cells_processed() {
        let (mut m, t) = one_tet([1.0, 1.0, -1.0, -1.0]);
        let (_, w) = clip_keep_above(&mut m, &[t], 0.0);
        assert!(w.items >= 1);
        assert!(w.instructions > 0);
    }

    /// What a filter keeps of each cell: the spherical clip's one-sided
    /// cut or the isovolume's two.
    #[derive(Debug, Clone, Copy)]
    enum Keep {
        Above(f64),
        Band(f64, f64),
    }

    impl Keep {
        fn clip(self, mesh: &mut TetMesh, s: &mut TetScratch) -> WorkCounters {
            match self {
                Keep::Above(iso) => clip_keep_above_into(mesh, &s.tets, iso, &mut s.kept),
                Keep::Band(lo, hi) => {
                    clip_keep_above_into(mesh, &s.tets, lo, &mut s.mid)
                        + clip_keep_below_into(mesh, &s.mid, hi, &mut s.kept)
                }
            }
        }
    }

    /// One input of the walk: a small box of `dims` cells (1-cell axes
    /// included), a random scalar per point, what to keep, and the
    /// ascending cell list — every cell, or with whole k-slabs left out.
    #[derive(Debug)]
    struct Walk {
        dims: [usize; 3],
        values: Vec<f64>,
        keep: Keep,
        cells: Vec<usize>,
    }

    struct Walks;

    impl Strategy for Walks {
        type Value = Walk;

        /// The point scalars are drawn last, so a shrunk `dims` replays
        /// every other draw unchanged.
        fn generate(&self, src: &mut Source) -> Walk {
            let dims = [(); 3].map(|()| 1 + src.below(4) as usize);
            let (a, b) = (1.2 * src.next_f64() - 0.6, 1.2 * src.next_f64() - 0.6);
            let keep = if src.next_bool() {
                Keep::Band(a.min(b), a.max(b))
            } else {
                Keep::Above(a)
            };
            let dropped = [(); 4].map(|()| src.below(4) == 3);
            let slab = dims[0] * dims[1];
            let cells = (0..dims[2])
                .filter(|&k| !dropped[k])
                .flat_map(|k| k * slab..(k + 1) * slab)
                .collect();
            let points: usize = dims.iter().map(|d| d + 1).product();
            let values = (0..points).map(|_| 2.0 * src.next_f64() - 1.0).collect();
            Walk {
                dims,
                values,
                keep,
                cells,
            }
        }
    }

    impl Walk {
        fn grid(&self) -> UniformGrid {
            let bounds = Aabb::new(Vec3::new(-0.3, 0.2, 1.0), Vec3::new(1.5, 1.1, 1.84));
            UniformGrid::from_cell_dims(self.dims, bounds)
        }

        fn point(&self, pid: usize) -> (f64, f64) {
            (self.values[pid], 0.5 - 3.0 * self.values[pid])
        }

        /// Each cell's side, by the filters' own predicates.
        fn sides(&self) -> Vec<HexSide> {
            let grid = self.grid();
            (0..grid.num_cells())
                .map(|c| {
                    let ids = grid.cell_at(c).point_ids();
                    match self.keep {
                        Keep::Above(iso) => {
                            match ids.iter().filter(|&&p| self.values[p] < iso).count() {
                                0 => HexSide::Whole,
                                8 => HexSide::Out,
                                _ => HexSide::Straddle,
                            }
                        }
                        Keep::Band(lo, hi) => Isovolume::new("f", lo, hi).side(&self.values, &ids),
                    }
                })
                .collect()
        }

        fn windowed(&self, sides: &[HexSide]) -> Subdivision {
            let cells = self.cells.iter().copied();
            let point = |pid| self.point(pid);
            subdivide_hexes(&self.grid(), cells, sides, 12, point, |m, s| {
                self.keep.clip(m, s)
            })
        }

        /// The walk as it was before the weld became a window: its mesh
        /// is never told about slabs, so every edge point of the run
        /// sits in one never-cleared [`WeldMap`].
        fn reference(&self, sides: &[HexSide]) -> Subdivision {
            let grid = self.grid();
            let mut out = Subdivision {
                mesh: TetMesh::new(),
                cells: CellSet::new(),
                whole_points: 0,
                straddle_points: 0,
                whole_cells: 0,
                tets_clipped: 0,
                clip_work: WorkCounters::new(),
            };
            let mut scratch = TetScratch::new();
            let mut point_map = vec![u32::MAX; grid.num_points()];
            for &c in self.cells.iter().filter(|&&c| sides[c] != HexSide::Out) {
                let cell = grid.cell_at(c);
                let mut welded = 0;
                let corner = cell.point_ids().map(|pid| {
                    if point_map[pid] == u32::MAX {
                        let (value, payload) = self.point(pid);
                        let p = grid.point_coord_id(pid);
                        point_map[pid] = out.mesh.add_point_with(p, value, payload);
                        welded += 1;
                    }
                    point_map[pid]
                });
                if sides[c] == HexSide::Whole {
                    out.cells.push(CellShape::Hexahedron, &corner);
                    out.whole_cells += 1;
                    out.whole_points += welded;
                    continue;
                }
                out.straddle_points += welded;
                scratch.tets.clear();
                scratch
                    .tets
                    .extend(HEX_TO_TETS.map(|t| t.map(|slot| corner[slot])));
                out.tets_clipped += 6;
                out.clip_work += self.keep.clip(&mut out.mesh, &mut scratch);
                for t in &scratch.kept {
                    out.cells.push(CellShape::Tetra, t);
                }
            }
            out
        }
    }

    /// Every bit a [`Subdivision`] carries.
    fn bits(sub: &Subdivision) -> impl PartialEq + std::fmt::Debug + '_ {
        let mesh = &sub.mesh;
        let coords = mesh.points.iter().flat_map(|p| [p.x, p.y, p.z]);
        (
            coords.map(f64::to_bits).collect::<Vec<_>>(),
            mesh.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            mesh.payloads
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            &sub.cells,
            [
                sub.whole_points,
                sub.straddle_points,
                sub.whole_cells,
                sub.tets_clipped,
            ],
            sub.clip_work,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The two-slab window answers every weld lookup as one
        /// never-cleared table does: points, scalars, payloads, cells
        /// and all five tallies are the same bits.
        #[test]
        fn the_slab_window_welds_exactly_like_one_table(walk in Walks) {
            let sides = walk.sides();
            let (windowed, reference) = (walk.windowed(&sides), walk.reference(&sides));
            prop_assert_eq!(bits(&windowed), bits(&reference));
        }
    }

    #[test]
    #[should_panic(expected = "steps back from k-slab 1 to 0")]
    fn a_cell_list_that_steps_back_a_slab_is_refused() {
        let walk = Walk {
            dims: [1, 1, 2],
            values: vec![1.0; 12],
            keep: Keep::Above(0.0),
            cells: vec![1, 0],
        };
        walk.windowed(&[HexSide::Whole; 2]);
    }
}
