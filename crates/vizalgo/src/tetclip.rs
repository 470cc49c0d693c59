//! Tetrahedral clipping: the shared engine behind spherical clip and
//! isovolume.
//!
//! Cells that straddle an implicit surface are decomposed into
//! tetrahedra; each tetrahedron is clipped against the scalar value,
//! keeping the side where `value >= iso` (`clip_keep_above_into`) or
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
//! slab `k` or `k + 1`: `TetMesh` keeps one `WeldMap` for the
//! current slab and one for the previous, looks in both, inserts into
//! the current, and forgets the older when the walk moves up. Every
//! lookup answers as one never-cleared table would and point ids are
//! still handed out in creation order, so the output is the same bits —
//! from two tables of a few thousand slots that stay in cache, where
//! the single table of a 128³ run was 42 MB of random probes
//! (docs/PERFORMANCE.md, which also says why `contour`'s weld keeps
//! its one table).
//!
//! # The walk runs in slab chunks, stitched in order
//!
//! `par`'s rule cuts the k-slabs into chunks (at least
//! `CELL_MIN_LEN / (cx·cy)` slabs each, as marching cubes cuts its
//! slabs, so a small grid or a call inside a service worker is one
//! chunk). Each chunk runs the walk above on its own: its own mesh with
//! the two-slab weld, its own tallies, and a point map over the two
//! planes of its current slab only. Its cells' point ids go to its slot
//! of one buffer all chunks share, sized from its cell counts and the
//! caller's hint (past the slot, to a list of its own), so joining the
//! chunks moves ids down in place instead of copying every cell.
//!
//! The stitch then makes the output one walk over all the slabs
//! followed by dropping unreferenced points would give, bit for bit:
//!
//! * **Aliases.** Only a point on a chunk's bottom plane `k0` can have
//!   been made by the chunk below as well — the two-slab argument
//!   again: a point is asked for by the cells whose closure holds it,
//!   and the only cells of both chunks that share a closure are those of
//!   slabs `k0 − 1` and `k0`. Such a point is a grid point of plane `k0`
//!   or an edge point whose two ends are such points, so one plane of
//!   lookups finds them all: grid points through the chunk below's
//!   top-plane map, then edge points in creation order (their ends come
//!   first) through its last weld table, under its ids of their ends.
//!   An alias is not kept twice, its referenced mark moves to the owner,
//!   and a grid point's first-use tally is taken back.
//! * **Numbering.** Each chunk, on `par`, gives its referenced points
//!   that are not aliases ids in creation order from its start (a prefix
//!   over the chunks), which is the order one walk would have created
//!   them in; aliases take their owner's id; the ids in the cells are
//!   renamed on `par`.
//! * **Joining.** Point arrays are appended in chunk order, each chunk's
//!   freed as it goes; the ids close up in the shared buffer.

use crate::arena::{pack_edge_iso, TetScratch, WeldMap};
use std::ops::Range;
use vizmesh::{par, CellSet, CellShape, UniformGrid, Vec3, WorkCounters, HEX_TO_TETS};

/// A growing tetrahedral mesh with per-point scalar values and vertex
/// welding on interpolated edges.
#[derive(Debug, Default)]
pub(crate) struct TetMesh {
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

    /// Add an original point carrying a separate data payload.
    pub(crate) fn add_point_with(&mut self, p: Vec3, value: f64, payload: f64) -> u32 {
        self.points.push(p);
        self.values.push(value);
        self.payloads.push(payload);
        (self.points.len() - 1) as u32
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
        let t = crate::contour::crossing(iso, va, vb);
        let p = self.points[a as usize].lerp(self.points[b as usize], t);
        let pay =
            self.payloads[a as usize] + (self.payloads[b as usize] - self.payloads[a as usize]) * t;
        let value = if flip { -iso } else { iso };
        let id = self.add_point_with(p, value, pay);
        self.weld[0].insert(key, id);
        id
    }
}

/// Clip every tet of `mesh`, keeping the region where `value >= iso`,
/// into a reused scratch buffer: `out` is cleared, then filled with
/// indices into the same, grown, mesh. Returns the work performed.
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
/// primitive traffic). While a chunk is walked its cells are [`Cells`].
#[derive(Default)]
pub(crate) struct Subdivision<C = CellSet> {
    pub(crate) mesh: TetMesh,
    pub(crate) cells: C,
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

impl<C> Subdivision<C> {
    /// The same mesh and tallies over `cells`.
    fn with_cells<D>(self, cells: D) -> Subdivision<D> {
        Subdivision {
            mesh: self.mesh,
            cells,
            whole_points: self.whole_points,
            straddle_points: self.straddle_points,
            whole_cells: self.whole_cells,
            tets_clipped: self.tets_clipped,
            clip_work: self.clip_work,
        }
    }
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

/// The hex-subdivision walk: visit the cells `cells(ids)` names in each
/// range `ids` of whole k-slabs — ascending cell ids (the range itself,
/// or its run of a compacted list of active cells) — weld each grid
/// point at first use with its `point(id) = (clip scalar, payload)`,
/// pass [`HexSide::Whole`] cells through as hexahedra, and split
/// [`HexSide::Straddle`] cells along [`HEX_TO_TETS`] into
/// `scratch.tets`, which `clip` cuts down to `scratch.kept`. Points no
/// output cell references are dropped and the rest numbered in creation
/// order. `tets_per_straddler` sizes the output for the caller's
/// measured straddle shape; more still fits.
///
/// The slabs are cut into chunks by `par`'s rule, walked apart and
/// stitched in order (module docs): the same bits for every cut. `point`
/// is dropped before the stitch.
///
/// # Panics
///
/// If a cell lies in a lower k-slab than the cell before it: the edge
/// weld remembers two slabs (module docs) and the walk advances it as
/// the slab changes, so stepping back would lose points already made.
pub(crate) fn subdivide_hexes<I: Iterator<Item = usize>>(
    grid: &UniformGrid,
    cells: impl Fn(Range<usize>) -> I + Sync,
    sides: &[HexSide],
    tets_per_straddler: usize,
    point: impl Fn(usize) -> (f64, f64) + Sync,
    clip: impl Fn(&mut TetMesh, &mut TetScratch) -> WorkCounters + Sync,
) -> Subdivision {
    let [cx, cy, cz] = grid.cell_dims();
    let slab = (cx * cy).max(1);
    let cut = par::map_chunks(cz, crate::CELL_MIN_LEN.div_ceil(slab), |slabs| vec![slabs]);
    let walker = Walker {
        grid,
        sides,
        tets_per_straddler,
        point: &point,
        clip: &clip,
    };
    let mut conn = Vec::new();
    let run = |slabs: &Range<usize>| cells(slabs.start * slab..slabs.end * slab);
    let chunks = walker.walk(cut, run, &mut conn);
    drop(point);
    stitch(chunks).join(conn)
}

/// A point id that no output cell references (in [`Chunk::ids`]).
const UNUSED: u32 = u32::MAX;

/// What a walk over a run of k-slabs needs besides the run's cells.
struct Walker<'a, P, C> {
    grid: &'a UniformGrid,
    sides: &'a [HexSide],
    tets_per_straddler: usize,
    point: &'a P,
    clip: &'a C,
}

/// A chunk's cells as its walk makes them: shapes in a list of its own,
/// point ids in the chunk's slot of the connectivity all chunks share
/// (sized from its cell counts and the caller's hint) and, once the slot
/// is full, in a list of its own.
#[derive(Default)]
struct Cells<'a> {
    shapes: Vec<CellShape>,
    slot: &'a mut [u32],
    len: usize,
    spill: Vec<u32>,
}

impl Cells<'_> {
    /// Append a whole cell.
    fn hexahedron(&mut self, ids: &[u32; 8]) {
        self.shapes.push(CellShape::Hexahedron);
        self.put(ids);
    }

    /// Append a straddling cell's kept tets.
    fn tetra(&mut self, tets: &[[u32; 4]]) {
        let shapes = std::iter::repeat_n(CellShape::Tetra, tets.len());
        self.shapes.extend(shapes);
        self.put(tets.as_flattened());
    }

    fn put(&mut self, ids: &[u32]) {
        let end = self.len + ids.len();
        if end <= self.slot.len() && self.spill.is_empty() {
            self.slot[self.len..end].copy_from_slice(ids);
            self.len = end;
        } else {
            self.spill.extend_from_slice(ids);
        }
    }

    /// Every point id, cell after cell: the slot's, then the spill's.
    fn ids(&mut self) -> [&mut [u32]; 2] {
        [&mut self.slot[..self.len], &mut self.spill]
    }
}

/// One chunk's walk over the k-slabs `k0..k1`, in chunk-local point
/// ids, with what [`stitch`] reads to join it to the chunk below.
#[derive(Default)]
struct Chunk<'a> {
    slabs: Range<usize>,
    out: Subdivision<Cells<'a>>,
    /// Per grid point of the bottom plane `k0`: its local id (or
    /// [`UNUSED`]) and whether a whole cell welded it first.
    bottom: Vec<(u32, bool)>,
    /// The local id (or [`UNUSED`]) of each grid point of the top plane
    /// `k1`; empty unless the walk ended in slab `k1 − 1`.
    top: Vec<u32>,
    /// How many points slab `k0` made, and its edge points as `(weld
    /// key, local id)` in creation order.
    first_points: usize,
    first_edges: Vec<(u128, u32)>,
    /// The weld table of slab `k1 − 1`; empty unless the walk ended there.
    last_weld: WeldMap<u128>,
    /// Per local point: [`UNUSED`], or referenced; after numbering, the
    /// output id.
    ids: Vec<u32>,
    /// Points the chunk keeps: referenced, and made by no chunk below.
    kept: usize,
    /// `(local id, owner)` of every referenced point the chunk below
    /// made first, `owner` in that chunk's ids.
    aliases: Vec<(u32, u32)>,
}

impl<P, C> Walker<'_, P, C>
where
    P: Fn(usize) -> (f64, f64) + Sync,
    C: Fn(&mut TetMesh, &mut TetScratch) -> WorkCounters + Sync,
{
    /// Walk the k-slab runs of `cut` on `par`, `cells(run)` naming each
    /// run's cells. Their point ids go to `conn`, a slot per run.
    fn walk<'a, I: Iterator<Item = usize>>(
        &self,
        cut: Vec<Range<usize>>,
        cells: impl Fn(&Range<usize>) -> I + Sync,
        conn: &'a mut Vec<u32>,
    ) -> Vec<Chunk<'a>> {
        let counts = par::map(cut.len(), 1, |c| {
            let (mut whole, mut straddle) = (0, 0);
            for c in cells(&cut[c]) {
                match self.sides[c] {
                    HexSide::Whole => whole += 1,
                    HexSide::Straddle => straddle += 1,
                    HexSide::Out => {}
                }
            }
            (whole, straddle)
        });
        let tets = |straddle: usize| self.tets_per_straddler * straddle;
        let size = |(whole, straddle): (usize, usize)| 8 * whole + 4 * tets(straddle);
        // A lone chunk is joined to nothing: its ids go to a list of its
        // own, which becomes the output's.
        let shared = cut.len() > 1;
        let slot_size = |n| if shared { size(n) } else { 0 };
        *conn = vec![0u32; counts.iter().map(|&n| slot_size(n)).sum()];
        let mut rest = conn.as_mut_slice();
        let mut chunks = Vec::with_capacity(cut.len());
        let [nx, ny, _] = self.grid.point_dims();
        for (slabs, (whole, straddle)) in cut.into_iter().zip(counts) {
            let n = (whole, straddle);
            let (slot, tail) = std::mem::take(&mut rest).split_at_mut(slot_size(n));
            rest = tail;
            let num_points = (slabs.len() + 1) * nx * ny;
            let mesh = TetMesh::with_point_capacity((2 * (whole + straddle)).min(num_points));
            let shapes = Vec::with_capacity(whole + tets(straddle));
            let cells = Cells {
                shapes,
                slot,
                len: 0,
                spill: Vec::with_capacity(size(n) - slot_size(n)),
            };
            let out = Subdivision {
                mesh,
                cells,
                ..Subdivision::default()
            };
            chunks.push(Chunk {
                slabs,
                out,
                ..Chunk::default()
            });
        }
        par::for_each_mut(&mut chunks, 1, |_, chunk| {
            let run = cells(&chunk.slabs);
            self.slabs(chunk, run)
        });
        chunks
    }

    /// Walk `cells`, the cells of `chunk`'s k-slabs, keeping the local
    /// ids of the grid points on the current slab's two planes only.
    fn slabs(&self, chunk: &mut Chunk<'_>, cells: impl Iterator<Item = usize>) {
        let (grid, sides) = (self.grid, self.sides);
        let [nx, ny, _] = grid.point_dims();
        let plane = nx * ny;
        let k0 = chunk.slabs.start;
        let out = &mut chunk.out;
        let mut scratch = TetScratch::new();
        // Plane `k` of the grid points sits in half `k % 2`.
        let mut point_map: Vec<u32> = vec![UNUSED; 2 * plane];
        let half = |k: usize| (k % 2) * plane..(k % 2 + 1) * plane;
        let mut first_whole = vec![false; plane];
        let mut slab = k0;
        for cell in grid.cells(cells.filter(|&c| sides[c] != HexSide::Out)) {
            let k = cell.ijk()[2];
            if k != slab {
                assert!(
                    k > slab,
                    "subdivide_hexes: cell {} steps back from k-slab {slab} to {k}",
                    cell.id()
                );
                if slab == k0 {
                    (chunk.bottom, chunk.first_points, chunk.first_edges) =
                        first_slab(&out.mesh, &point_map[half(k0)], &first_whole);
                }
                out.mesh.advance_weld(k - slab);
                if k == slab + 1 {
                    point_map[half(slab)].fill(UNUSED);
                } else {
                    point_map.fill(UNUSED);
                }
                slab = k;
            }
            // Corners on plane `slab` come first (slots 0–3); in an odd
            // slab its half is the upper one.
            let base = slab * plane;
            let flip = (slab % 2) * plane;
            let whole = sides[cell.id()] == HexSide::Whole;
            let mut corner = [0u32; 8];
            let mut welded = 0;
            for (slot, &pid) in cell.point_ids().iter().enumerate() {
                let at = pid - base;
                let at_map = if at < plane { at + flip } else { at - flip };
                if point_map[at_map] == UNUSED {
                    let (value, payload) = (self.point)(pid);
                    point_map[at_map] =
                        out.mesh
                            .add_point_with(cell.corner_coord(slot), value, payload);
                    if slab == k0 && at < plane {
                        first_whole[at] = whole;
                    }
                    welded += 1;
                }
                corner[slot] = point_map[at_map];
            }
            if whole {
                out.cells.hexahedron(&corner);
                out.whole_cells += 1;
                out.whole_points += welded;
            } else {
                out.straddle_points += welded;
                scratch.tets.clear();
                let tets = HEX_TO_TETS.map(|t| t.map(|slot| corner[slot]));
                scratch.tets.extend(tets);
                out.tets_clipped += scratch.tets.len() as u64;
                out.clip_work += (self.clip)(&mut out.mesh, &mut scratch);
                out.cells.tetra(&scratch.kept);
            }
        }
        if slab == k0 {
            (chunk.bottom, chunk.first_points, chunk.first_edges) =
                first_slab(&out.mesh, &point_map[half(k0)], &first_whole);
        }
        if slab + 1 == chunk.slabs.end {
            chunk.top = point_map[half(slab + 1)].to_vec();
            chunk.last_weld = std::mem::take(&mut out.mesh.weld[0]);
        }
        chunk.ids = vec![UNUSED; out.mesh.points.len()];
        for part in out.cells.ids() {
            for &p in part.iter() {
                chunk.ids[p as usize] = 0;
            }
        }
        chunk.kept = chunk.ids.iter().filter(|&&id| id != UNUSED).count();
    }
}

/// What [`alias`] reads of a chunk's first slab `k0`, taken as the walk
/// leaves it: [`Chunk::bottom`] from the plane-`k0` half of the point
/// map and each point's first-use side, how many points the slab made,
/// and its edge points in creation order from the current weld table.
fn first_slab(
    mesh: &TetMesh,
    ids: &[u32],
    whole: &[bool],
) -> (Vec<(u32, bool)>, usize, Vec<(u128, u32)>) {
    let bottom = ids.iter().copied().zip(whole.iter().copied()).collect();
    let mut edges: Vec<(u128, u32)> = mesh.weld[0].entries().collect();
    edges.sort_unstable_by_key(|&(_, id)| id);
    (bottom, mesh.points.len(), edges)
}

/// Find the points `cur` made on its bottom plane that `below`, the
/// chunk under it, made first: grid points through `below`'s top-plane
/// map, then edge points, in creation order, through `below`'s last weld
/// table under `below`'s ids of their ends. The two-slab argument (module
/// docs) is why no other point can be shared. Each one found gives its
/// first-use tally back if it is a grid point, and if `cur`'s cells
/// reference it, hands that mark to its owner and is recorded for
/// [`stitch`] to rename.
fn alias(below: &mut Chunk<'_>, cur: &mut Chunk<'_>) {
    let mut owner = vec![UNUSED; cur.first_points];
    for (&(id, whole), &mine) in cur.bottom.iter().zip(&below.top) {
        if id != UNUSED && mine != UNUSED {
            owner[id as usize] = mine;
            if whole {
                cur.out.whole_points -= 1;
            } else {
                cur.out.straddle_points -= 1;
            }
        }
    }
    for &(key, id) in &cur.first_edges {
        // The key's two ends, as `pack_edge_iso` packed them.
        let (a, b) = (
            owner[(key >> 96) as usize],
            owner[(key >> 64) as u32 as usize],
        );
        if a != UNUSED && b != UNUSED {
            let key = pack_edge_iso(a.min(b), a.max(b), key as u64);
            if let Some(mine) = below.last_weld.get(key) {
                owner[id as usize] = mine;
            }
        }
    }
    let found = (0..owner.len()).filter(|&id| owner[id] != UNUSED && cur.ids[id] != UNUSED);
    cur.aliases = found.map(|id| (id as u32, owner[id])).collect();
    for &(id, mine) in &cur.aliases {
        cur.ids[id as usize] = UNUSED;
        cur.kept -= 1;
        if below.ids[mine as usize] == UNUSED {
            below.ids[mine as usize] = 0;
            below.kept += 1;
        }
    }
}

/// Give each kept point of `chunk` its output id, counting up from
/// `next` in creation order, and move its point, scalar and payload down
/// to its place among the chunk's kept points.
fn number(chunk: &mut Chunk<'_>, mut next: u32) {
    let mesh = &mut chunk.out.mesh;
    let mut kept = 0;
    for (old, id) in chunk.ids.iter_mut().enumerate() {
        if *id != UNUSED {
            *id = next;
            next += 1;
            mesh.points[kept] = mesh.points[old];
            mesh.values[kept] = mesh.values[old];
            mesh.payloads[kept] = mesh.payloads[old];
            kept += 1;
        }
    }
    mesh.points.truncate(kept);
    mesh.values.truncate(kept);
    mesh.payloads.truncate(kept);
}

/// A chunk's cells after the stitch: their shapes, the size of its slot
/// and how much of it they use, and what spilled past it.
struct CellRun {
    shapes: Vec<CellShape>,
    slot: usize,
    len: usize,
    spill: Vec<u32>,
}

/// Join the chunks, in order, into what one walk over all of them
/// followed by dropping unreferenced points would give: aliases found,
/// kept points numbered and cells renamed on `par`, point arrays
/// concatenated, each chunk's freed as soon as it is appended. The
/// cells stay in the chunks' slots for [`Subdivision::join`].
fn stitch(mut chunks: Vec<Chunk<'_>>) -> Subdivision<Vec<CellRun>> {
    for c in 1..chunks.len() {
        let (below, above) = chunks.split_at_mut(c);
        alias(&mut below[c - 1], &mut above[0]);
    }
    let mut starts = Vec::with_capacity(chunks.len());
    let mut kept = 0;
    for chunk in &chunks {
        starts.push(kept as u32);
        kept += chunk.kept;
    }
    par::for_each_mut(&mut chunks, 1, |c, chunk| number(chunk, starts[c]));
    for c in 1..chunks.len() {
        let (below, above) = chunks.split_at_mut(c);
        let cur = &mut above[0];
        for &(id, mine) in &cur.aliases {
            cur.ids[id as usize] = below[c - 1].ids[mine as usize];
        }
    }
    par::for_each_mut(&mut chunks, 1, |_, chunk| {
        let ids = &chunk.ids;
        for part in chunk.out.cells.ids() {
            for p in part.iter_mut() {
                *p = ids[*p as usize];
            }
        }
    });
    let mut out = Subdivision {
        cells: Vec::with_capacity(chunks.len()),
        ..Subdivision::default()
    };
    for chunk in chunks {
        let (mesh, sub) = (&mut out.mesh, chunk.out);
        append(&mut mesh.points, sub.mesh.points, kept);
        append(&mut mesh.values, sub.mesh.values, kept);
        append(&mut mesh.payloads, sub.mesh.payloads, kept);
        out.whole_points += sub.whole_points;
        out.straddle_points += sub.straddle_points;
        out.whole_cells += sub.whole_cells;
        out.tets_clipped += sub.tets_clipped;
        out.clip_work += sub.clip_work;
        let Cells {
            shapes,
            slot,
            len,
            spill,
        } = sub.cells;
        let slot = slot.len();
        out.cells.push(CellRun {
            shapes,
            slot,
            len,
            spill,
        });
    }
    out
}

/// Append `from` to `to`, which will hold `total` items: into an empty
/// `to` by taking `from`'s buffer, grown once to `total`.
fn append<T>(to: &mut Vec<T>, mut from: Vec<T>, total: usize) {
    if to.is_empty() {
        from.reserve_exact(total - from.len());
        *to = from;
    } else {
        to.extend(from);
    }
}

impl Subdivision<Vec<CellRun>> {
    /// The output cells from the runs' slots in `conn`: each run's ids
    /// moved down in place to follow the run before, unless a run
    /// spilled past its slot — then the runs are copied out in order. A
    /// lone chunk's own list is taken as it is.
    fn join(mut self, mut conn: Vec<u32>) -> Subdivision {
        let mut runs = std::mem::take(&mut self.cells);
        if let [run] = &mut runs[..] {
            if run.slot == 0 {
                let (shapes, ids) = (
                    std::mem::take(&mut run.shapes),
                    std::mem::take(&mut run.spill),
                );
                return self.with_cells(CellSet::from_parts(shapes, ids));
            }
        }
        let mut shapes = Vec::with_capacity(runs.iter().map(|r| r.shapes.len()).sum());
        let slots = runs.iter().scan(0, |at, run| {
            *at += run.slot;
            Some(*at - run.slot)
        });
        if runs.iter().all(|run| run.spill.is_empty()) {
            let mut len = 0;
            for (at, run) in slots.zip(&runs) {
                conn.copy_within(at..at + run.len, len);
                len += run.len;
                shapes.extend_from_slice(&run.shapes);
            }
            conn.truncate(len);
        } else {
            let mut joined = Vec::with_capacity(runs.iter().map(|r| r.len + r.spill.len()).sum());
            for (at, run) in slots.zip(&runs) {
                joined.extend_from_slice(&conn[at..at + run.len]);
                joined.extend_from_slice(&run.spill);
                shapes.extend_from_slice(&run.shapes);
            }
            conn = joined;
        }
        self.with_cells(CellSet::from_parts(shapes, conn))
    }
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
            #[expect(
                clippy::unreachable,
                reason = "a tetrahedron keeps zero to four vertices"
            )]
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

    impl TetMesh {
        /// Add an original (non-interpolated) point.
        fn add_point(&mut self, p: Vec3, value: f64) -> u32 {
            self.add_point_with(p, value, value)
        }

        /// Signed volume of a tet.
        fn tet_volume(&self, t: [u32; 4]) -> f64 {
            let [a, b, c, d] = t.map(|p| self.points[p as usize]);
            (b - a).cross(c - a).dot(d - a) / 6.0
        }
    }

    /// Clip every tet of `mesh`, keeping the region where `value >= iso`:
    /// the clipped tets and the work.
    fn clip_keep_above(
        mesh: &mut TetMesh,
        tets: &[[u32; 4]],
        iso: f64,
    ) -> (Vec<[u32; 4]>, WorkCounters) {
        let mut out = Vec::new();
        let work = clip_keep_above_into(mesh, tets, iso, &mut out);
        (out, work)
    }

    /// The tet with corner values `values` at the origin and at `legs`
    /// along each axis.
    fn tet_with_legs(values: [f64; 4], legs: Vec3) -> (TetMesh, [u32; 4]) {
        let mut m = TetMesh::default();
        let corners = [
            Vec3::ZERO,
            Vec3::new(legs.x, 0.0, 0.0),
            Vec3::new(0.0, legs.y, 0.0),
            Vec3::new(0.0, 0.0, legs.z),
        ];
        let t = [0, 1, 2, 3].map(|i| m.add_point(corners[i], values[i]));
        (m, t)
    }

    /// Build a single-tet mesh with the given corner values.
    fn one_tet(values: [f64; 4]) -> (TetMesh, [u32; 4]) {
        tet_with_legs(values, Vec3::splat(1.0))
    }

    fn volume_of(mesh: &TetMesh, tets: &[[u32; 4]]) -> f64 {
        tets.iter().map(|&t| mesh.tet_volume(t).abs()).sum()
    }

    /// The volume kept above `iso` plus the volume the negated tet keeps
    /// above `-iso`, for the tet with `legs`.
    fn above_plus_below(values: [f64; 4], iso: f64, legs: Vec3) -> f64 {
        let (mut m, t) = tet_with_legs(values, legs);
        let (above, _) = clip_keep_above(&mut m, &[t], iso);
        let (mut m2, t2) = tet_with_legs(values.map(|v| -v), legs);
        let (below, _) = clip_keep_above(&mut m2, &[t2], -iso);
        volume_of(&m, &above) + volume_of(&m2, &below)
    }

    #[test]
    fn hex_decomposition_tiles_volume() {
        // Unit cube corners in VTK order.
        let corners = crate::contour::CORNERS;
        let mut m = TetMesh::default();
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
            let total = above_plus_below(values, 0.0, Vec3::splat(1.0));
            assert!(
                (total - 1.0 / 6.0).abs() < 1e-12,
                "values {values:?}: {total}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Clipping a random tet: the kept and complementary volumes
        /// always partition the original.
        #[test]
        fn tet_clip_partitions_volume(
            vals in prop::array::uniform4(-2.0f64..2.0),
            iso in -1.0f64..1.0,
            px in 0.2f64..2.0,
            py in 0.2f64..2.0,
            pz in 0.2f64..2.0,
        ) {
            let whole = px * py * pz / 6.0;
            let sum = above_plus_below(vals, iso, Vec3::new(px, py, pz));
            // `>=` on both sides keeps boundary-degenerate slivers in both
            // halves, so allow tiny overlap.
            prop_assert!((sum - whole).abs() < 1e-9 * whole.max(1.0) + 1e-12,
                "above + below = {sum}, whole = {whole}");
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
        let mut welded = TetMesh::default();
        let mut fresh = TetMesh::default();
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
        let mut m = TetMesh::default();
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
    /// cut or the isovolume's two — or the one-sided cut with nothing
    /// kept of a straddler whose corner 0 lies above the second value, a
    /// clip under which one cell can drop a point its neighbour keeps
    /// (neither filter's clip does that, but the walk must allow it).
    #[derive(Debug, Clone, Copy)]
    enum Keep {
        Above(f64),
        Band(f64, f64),
        Patchy(f64, f64),
    }

    impl Keep {
        fn clip(self, mesh: &mut TetMesh, s: &mut TetScratch) -> WorkCounters {
            match self {
                Keep::Above(iso) => clip_keep_above_into(mesh, &s.tets, iso, &mut s.kept),
                Keep::Band(lo, hi) => {
                    clip_keep_above_into(mesh, &s.tets, lo, &mut s.mid)
                        + clip_keep_below_into(mesh, &s.mid, hi, &mut s.kept)
                }
                Keep::Patchy(iso, cut) => {
                    let work = clip_keep_above_into(mesh, &s.tets, iso, &mut s.kept);
                    if mesh.values[s.tets[0][0] as usize] > cut {
                        s.kept.clear();
                    }
                    work
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
            let keep = match src.below(3) {
                0 => Keep::Above(a),
                1 => Keep::Band(a.min(b), a.max(b)),
                _ => Keep::Patchy(a, b),
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
                        Keep::Above(iso) | Keep::Patchy(iso, _) => {
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

        /// The walk's run of the cell ids `ids`.
        fn cells_in(&self, ids: Range<usize>) -> impl Iterator<Item = usize> + '_ {
            let from = |c: usize| self.cells.partition_point(|&a| a < c);
            self.cells[from(ids.start)..from(ids.end)].iter().copied()
        }

        /// The chunks of `cut` walked apart and handed to `then`, and the
        /// buffer their cells' point ids are in.
        fn walked<R>(
            &self,
            sides: &[HexSide],
            cut: &[Range<usize>],
            then: impl FnOnce(Vec<Chunk<'_>>) -> R,
        ) -> (R, Vec<u32>) {
            let grid = self.grid();
            let slab = self.dims[0] * self.dims[1];
            let point = |pid| self.point(pid);
            let clip = |m: &mut TetMesh, s: &mut TetScratch| self.keep.clip(m, s);
            let walker = Walker {
                grid: &grid,
                sides,
                tets_per_straddler: 12,
                point: &point,
                clip: &clip,
            };
            let mut conn = Vec::new();
            let run = |s: &Range<usize>| self.cells_in(s.start * slab..s.end * slab);
            (then(walker.walk(cut.to_vec(), run, &mut conn)), conn)
        }

        /// The whole box as one chunk: the windowed walk, uncompacted.
        fn windowed(&self, sides: &[HexSide]) -> Subdivision {
            let all = 0..self.dims[2];
            let whole = self.walked(sides, &[all], |chunks| {
                let mut out = chunks.into_iter().next().unwrap().out;
                let ids: Vec<u32> = out.cells.ids().concat();
                let shapes = std::mem::take(&mut out.cells.shapes);
                out.with_cells(CellSet::from_parts(shapes, ids))
            });
            whole.0
        }

        /// The chunks of `cut` walked apart and stitched.
        fn stitched(&self, sides: &[HexSide], cut: &[Range<usize>]) -> Subdivision {
            let (sub, conn) = self.walked(sides, cut, stitch);
            sub.join(conn)
        }

        /// What the filters call, cut by `par`'s rule.
        fn subdivided(&self, sides: &[HexSide]) -> Subdivision {
            let point = |pid| self.point(pid);
            subdivide_hexes(
                &self.grid(),
                |ids| self.cells_in(ids),
                sides,
                12,
                point,
                |m, s| self.keep.clip(m, s),
            )
        }

        /// The walk as it was before the weld became a window: its mesh
        /// is never told about slabs, so every edge point of the run
        /// sits in one never-cleared [`WeldMap`].
        fn reference(&self, sides: &[HexSide]) -> Subdivision {
            let grid = self.grid();
            let mut out = Subdivision {
                mesh: TetMesh::default(),
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

    /// What `DataSet::compact_points` did after the walk until the walk
    /// did it itself: keep the points some cell references, in order,
    /// with their scalars and payloads, and rebuild the cells on the new
    /// ids, cell by cell. Tallies pass through.
    fn compacted(sub: Subdivision) -> Subdivision {
        let mesh = &sub.mesh;
        let mut used = vec![false; mesh.points.len()];
        for (_, ids) in sub.cells.iter() {
            for &p in ids {
                used[p as usize] = true;
            }
        }
        let mut remap = vec![u32::MAX; used.len()];
        let kept: Vec<usize> = (0..used.len()).filter(|&p| used[p]).collect();
        for (new, &old) in kept.iter().enumerate() {
            remap[old] = new as u32;
        }
        let mut cells = CellSet::new();
        for (shape, ids) in sub.cells.iter() {
            let ids: Vec<u32> = ids.iter().map(|&p| remap[p as usize]).collect();
            cells.push(shape, &ids);
        }
        let mesh = TetMesh {
            points: kept.iter().map(|&p| mesh.points[p]).collect(),
            values: kept.iter().map(|&p| mesh.values[p]).collect(),
            payloads: kept.iter().map(|&p| mesh.payloads[p]).collect(),
            ..TetMesh::default()
        };
        Subdivision { mesh, cells, ..sub }
    }

    /// A walk's output over `points` (scalar `i`, payload `-i` at point
    /// `i`) and `cells`, with made-up tallies.
    fn walked(points: &[Vec3], cells: &[(CellShape, &[u32])]) -> Subdivision {
        let mut mesh = TetMesh::default();
        for (i, &p) in points.iter().enumerate() {
            mesh.add_point_with(p, i as f64, -(i as f64));
        }
        let mut set = CellSet::new();
        for &(shape, ids) in cells {
            set.push(shape, ids);
        }
        Subdivision {
            mesh,
            cells: set,
            whole_points: 1,
            straddle_points: 2,
            whole_cells: 3,
            tets_clipped: 4,
            clip_work: WorkCounters {
                items: 5,
                ..WorkCounters::new()
            },
        }
    }

    /// The reference compaction on the cases `compact_points` and
    /// `CellSet::remap_points` were tested on.
    #[test]
    fn the_reference_compaction_keeps_referenced_points_in_order() {
        let five = [Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z, Vec3::ONE];
        let out = compacted(walked(&five, &[(CellShape::Triangle, &[0, 2, 4])]));
        let expect = walked(
            &[Vec3::ZERO, Vec3::Y, Vec3::ONE],
            &[(CellShape::Triangle, &[0, 1, 2])],
        );
        assert_eq!(out.mesh.values, [0.0, 2.0, 4.0]);
        assert_eq!(out.mesh.payloads, [-0.0, -2.0, -4.0]);
        assert_eq!(
            (&out.mesh.points, &out.cells),
            (&expect.mesh.points, &expect.cells)
        );

        // A hex on points 1..=8 and a tet sharing two of them: points 0
        // and 10 go, every id shifts down past the dropped points below
        // it, and the shapes stay.
        let twelve: Vec<Vec3> = (0..12).map(|i| Vec3::splat(i as f64)).collect();
        let hex: &[u32] = &[1, 2, 3, 4, 5, 6, 7, 8];
        let tet: &[u32] = &[11, 8, 9, 2];
        let out = compacted(walked(
            &twelve,
            &[(CellShape::Hexahedron, hex), (CellShape::Tetra, tet)],
        ));
        let kept: Vec<Vec3> = [1, 2, 3, 4, 5, 6, 7, 8, 9, 11].map(|i| twelve[i]).to_vec();
        let expect = walked(
            &kept,
            &[
                (CellShape::Hexahedron, &[0, 1, 2, 3, 4, 5, 6, 7]),
                (CellShape::Tetra, &[9, 7, 8, 1]),
            ],
        );
        assert_eq!(
            (&out.mesh.points, &out.cells),
            (&expect.mesh.points, &expect.cells)
        );
        assert_eq!(out.mesh.values[9], 11.0);

        // Every point referenced: nothing moves.
        let all = walked(&five[..3], &[(CellShape::Triangle, &[2, 0, 1])]);
        assert_eq!(
            bits(&compacted(walked(
                &five[..3],
                &[(CellShape::Triangle, &[2, 0, 1])]
            ))),
            bits(&all)
        );
    }

    /// Every cut of `slabs` k-slabs into runs: one per subset of the
    /// `slabs − 1` inner boundaries.
    fn cuts(slabs: usize) -> impl Iterator<Item = Vec<Range<usize>>> {
        (0..1usize << slabs.saturating_sub(1)).map(move |mask| {
            let mut cut = Vec::new();
            let mut start = 0;
            for k in 1..slabs {
                if mask >> (k - 1) & 1 == 1 {
                    cut.push(start..k);
                    start = k;
                }
            }
            cut.push(start..slabs);
            cut
        })
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// However the slabs are cut into chunks — one chunk, one slab
        /// per chunk, anything between — the stitched walk is the
        /// one-table walk followed by compaction: points, scalars,
        /// payloads, cells and all five tallies, at 1, 2, 7 and 16
        /// threads; and so is what the filters call.
        #[test]
        fn every_cut_of_the_slabs_stitches_to_the_compacted_walk(walk in Walks) {
            let sides = walk.sides();
            let reference = compacted(walk.reference(&sides));
            for threads in [1, 2, 7, 16] {
                par::with_threads(threads, || {
                    for cut in cuts(walk.dims[2]) {
                        let stitched = walk.stitched(&sides, &cut);
                        prop_assert_eq!(bits(&stitched), bits(&reference), "cut {:?}", cut);
                    }
                    prop_assert_eq!(bits(&walk.subdivided(&sides)), bits(&reference));
                });
            }
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
