//! Marching-cubes contour (isosurface) extraction.
//!
//! This is the paper's §III-B1 algorithm: iterate over every cell,
//! classify its corners against the isovalue, and use a **pre-computed
//! 256-case lookup table** plus edge interpolation to emit triangles.
//!
//! The lookup table is generated once (at first use) by walking the
//! isoline segments around each cell configuration's faces and joining
//! them into closed polygons, which are then fan-triangulated. Face
//! ambiguities (two diagonal corners inside) are resolved by the fixed
//! "separate the inside corners" rule; because the rule depends only on
//! the shared face's corner signs, adjacent cells always agree and the
//! extracted surface is watertight away from the domain boundary — a
//! property the test-suite checks directly on random fields.
//!
//! [`Contour`] runs each isovalue as one [`par::map`] task, on both
//! backends, and joins the surfaces and work counters in isovalue
//! order. `par` runs a call made on a worker inline, so a task's own
//! `par` loops (the segment sweep, the z-slabs) stay on its thread and
//! produce their one-thread output. One isovalue, or one thread, runs
//! on the caller, whose loops split over `par` as before. The service's
//! native wave already runs whole filters as tasks; there every
//! isovalue runs inline, in order.

use crate::arena::{pack_edge, WeldMap};
use crate::filter::{self, concat_surfaces, Filter, FilterOutput, KernelClass, KernelReport};
use std::sync::OnceLock;
use vizmesh::{par, CellSet, CellShape, DataSet, GridCell, UniformGrid, Vec3, WorkCounters};

/// Corner coordinates of the canonical unit cell, VTK hexahedron order.
pub(crate) const CORNERS: [[f64; 3]; 8] = [
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [1.0, 1.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [1.0, 0.0, 1.0],
    [1.0, 1.0, 1.0],
    [0.0, 1.0, 1.0],
];

/// The 12 cell edges as corner pairs (bottom ring, top ring, verticals).
pub const EDGES: [(usize, usize); 12] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 0),
    (4, 5),
    (5, 6),
    (6, 7),
    (7, 4),
    (0, 4),
    (1, 5),
    (2, 6),
    (3, 7),
];

/// The 6 faces as counter-clockwise corner cycles (seen from outside).
const FACES: [[usize; 4]; 6] = [
    [0, 3, 2, 1], // bottom (z = 0)
    [4, 5, 6, 7], // top (z = 1)
    [0, 1, 5, 4], // front (y = 0)
    [1, 2, 6, 5], // right (x = 1)
    [2, 3, 7, 6], // back (y = 1)
    [3, 0, 4, 7], // left (x = 0)
];

/// Triangles for one corner configuration, as triples of edge ids.
pub(crate) type CaseTriangles = Vec<[u8; 3]>;

/// Generate (or fetch) the full 256-case triangle table.
#[expect(
    clippy::expect_used,
    reason = "the loop below pushes exactly 256 cases"
)]
pub fn triangle_table() -> &'static [CaseTriangles; 256] {
    static TABLE: OnceLock<Box<[CaseTriangles; 256]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table: Vec<CaseTriangles> = Vec::with_capacity(256);
        for config in 0..256u16 {
            table.push(build_case(config as u8));
        }
        table.try_into().expect("exactly 256 cases")
    })
}

/// Edge id between two corners, if they are adjacent.
fn edge_between(a: usize, b: usize) -> Option<u8> {
    EDGES
        .iter()
        .position(|&(x, y)| (x == a && y == b) || (x == b && y == a))
        .map(|e| e as u8)
}

/// Build the triangles for one configuration. Bit `i` of `config` set
/// means corner `i` is inside (value above the isovalue).
#[expect(
    clippy::expect_used,
    reason = "consecutive corners of a face cycle share an edge"
)]
fn build_case(config: u8) -> CaseTriangles {
    let inside = |c: usize| config >> c & 1 == 1;

    // 1. For each face, pair up the crossing edges into isoline segments.
    // A crossing edge always ends up with exactly two partners, so fixed
    // two-slot rows (plus fill counts) replace per-edge vectors.
    let mut partners = [[0u8; 2]; 12];
    let mut partner_count = [0usize; 12];
    for face in FACES {
        // Face edges: between consecutive corners of the cycle.
        let mut fe = [0u8; 4];
        for (i, slot) in fe.iter_mut().enumerate() {
            *slot = edge_between(face[i], face[(i + 1) % 4]).expect("face edge");
        }
        let mut crossing = [0usize; 4];
        let mut num_crossing = 0;
        for i in 0..4 {
            if inside(face[i]) != inside(face[(i + 1) % 4]) {
                crossing[num_crossing] = i;
                num_crossing += 1;
            }
        }
        let mut link = |a: u8, b: u8| {
            partners[a as usize][partner_count[a as usize]] = b;
            partner_count[a as usize] += 1;
            partners[b as usize][partner_count[b as usize]] = a;
            partner_count[b as usize] += 1;
        };
        match num_crossing {
            0 => {}
            2 => link(fe[crossing[0]], fe[crossing[1]]),
            4 => {
                // Ambiguous face: both diagonals differ. Separate the
                // inside corners: each inside corner gets the segment
                // between its two touching face edges. The rule depends
                // only on the shared corner signs, so the two cells
                // sharing this face always agree.
                for i in 0..4 {
                    if inside(face[i]) {
                        // Edges touching corner i on this face: fe[i-1], fe[i].
                        link(fe[(i + 3) % 4], fe[i]);
                    }
                }
            }
            #[expect(
                clippy::unreachable,
                reason = "sign changes around a 4-cycle come in pairs"
            )]
            n => unreachable!("a quad face cannot have {n} sign changes"),
        }
    }

    // 2. Walk the segment graph into closed polygons of edge ids.
    let crossing_edges: Vec<usize> = (0..12)
        .filter(|&e| {
            let (a, b) = EDGES[e];
            inside(a) != inside(b)
        })
        .collect();
    for &e in &crossing_edges {
        debug_assert_eq!(
            partner_count[e], 2,
            "crossing edge {e} of config {config:#010b} must have exactly 2 partners"
        );
    }

    let mut visited = [false; 12];
    let mut triangles = CaseTriangles::with_capacity(4);
    for &start in &crossing_edges {
        if visited[start] {
            continue;
        }
        // A polygon visits at most the 12 cell edges, so the cycle fits
        // in a fixed buffer.
        let mut cycle = [0u8; 12];
        let mut cycle_len = 0usize;
        cycle[cycle_len] = start as u8;
        cycle_len += 1;
        visited[start] = true;
        let mut prev = start as u8;
        let mut cur = partners[start][0];
        while cur as usize != start {
            visited[cur as usize] = true;
            cycle[cycle_len] = cur;
            cycle_len += 1;
            let next = if partners[cur as usize][0] == prev {
                partners[cur as usize][1]
            } else {
                partners[cur as usize][0]
            };
            prev = cur;
            cur = next;
        }
        let cycle = &mut cycle[..cycle_len];

        // 3. Orient the polygon so its normal points from the inside
        //    (high-value) corners toward the outside.
        let mid = |e: u8| -> Vec3 {
            let (a, b) = EDGES[e as usize];
            let pa = Vec3::from(CORNERS[a]);
            let pb = Vec3::from(CORNERS[b]);
            (pa + pb) * 0.5
        };
        // Newell normal.
        let mut normal = Vec3::ZERO;
        for i in 0..cycle.len() {
            let p = mid(cycle[i]);
            let q = mid(cycle[(i + 1) % cycle.len()]);
            normal += Vec3::new(
                (p.y - q.y) * (p.z + q.z),
                (p.z - q.z) * (p.x + q.x),
                (p.x - q.x) * (p.y + q.y),
            );
        }
        let mut inside_centroid = Vec3::ZERO;
        let mut outside_centroid = Vec3::ZERO;
        let (mut n_in, mut n_out) = (0.0, 0.0);
        for c in 0..8 {
            let p = Vec3::from(CORNERS[c]);
            if inside(c) {
                inside_centroid += p;
                n_in += 1.0;
            } else {
                outside_centroid += p;
                n_out += 1.0;
            }
        }
        let d = outside_centroid / n_out - inside_centroid / n_in;
        if normal.dot(d) < 0.0 {
            cycle.reverse();
        }

        // 4. Fan-triangulate.
        for i in 1..cycle.len() - 1 {
            triangles.push([cycle[0], cycle[i], cycle[i + 1]]);
        }
    }
    triangles
}

/// Cells per segment of a [`SegmentIndex`]: each x-row of cells is cut
/// every `SEGMENT` cells (a row's last segment may be shorter). At most
/// 63, so a run's `SEGMENT + 1` point flags fit a `u64`.
const SEGMENT: usize = 16;

/// A min–max index over x-row segments of cells: for every run of up
/// to `SEGMENT` (16) cells along an x-row, the lowest and the highest
/// value at any corner of its cells, NaN counted as −∞ because
/// `value > isovalue`, the test behind every case bit, treats NaN as
/// below.
///
/// A cell is cut when some corner is above the isovalue and some is
/// not, so a segment whose highest corner is not above it, or whose
/// lowest is, holds no cut cell, and `classify` reads only the other
/// segments. A range may be wider than its values, never narrower.
/// Segments are numbered in cell order: the x-row `j + cy·k` of cells
/// holds segments `per_row·(j + cy·k) ..`.
pub struct SegmentIndex {
    /// Segments per x-row of cells.
    per_row: usize,
    /// Per segment, `[lowest, highest]` corner value.
    ranges: Vec<[f64; 2]>,
}

impl SegmentIndex {
    /// The index of a point-centered scalar, for every isovalue of one
    /// field. Two sweeps: the range of each point row's run of
    /// `SEGMENT + 1` points, then per segment of cells the four runs
    /// its corners lie on — so each value is read about once, not four
    /// times.
    pub fn of_field(grid: &UniformGrid, values: &[f64]) -> Self {
        assert_eq!(
            values.len(),
            grid.num_points(),
            "a segment index needs a point-centered scalar"
        );
        let [nx, ny, nz] = grid.point_dims();
        let cuts = cuts(grid);
        let per_row = cuts.len();
        let runs: Vec<[f64; 2]> =
            par::map_chunks(ny * nz, crate::CELL_MIN_LEN.div_ceil(nx), |rows| {
                let mut out = Vec::with_capacity(rows.len() * per_row);
                for row in rows {
                    let row = &values[row * nx..(row + 1) * nx];
                    out.extend(cuts.iter().map(|&[a, b]| {
                        let run = row[a..=b].iter();
                        run.fold([f64::INFINITY, f64::NEG_INFINITY], |r, &v| widen(r, v))
                    }));
                }
                out
            });
        let (up_y, up_z) = (per_row, per_row * ny);
        Self::from_rows(grid, |j, k, out| {
            let r0 = per_row * (j + ny * k);
            out.extend((r0..r0 + per_row).map(|r| {
                let [a, b, c, d] = [r, r + up_y, r + up_z, r + up_y + up_z].map(|r| runs[r]);
                combine(combine(a, b), combine(c, d))
            }));
        })
    }

    /// The index in which every segment may hold a cut cell: what a
    /// builder returns when it cannot bound its values.
    pub(crate) fn everywhere(grid: &UniformGrid) -> Self {
        let per_row = cuts(grid).len();
        Self::from_rows(grid, |_, _, out| {
            out.extend((0..per_row).map(|_| [f64::NEG_INFINITY, f64::INFINITY]));
        })
    }

    /// Build per x-row of cells, the rows on `par` chunks:
    /// `fill(j, k, out)` pushes the ranges of row `(j, k)`'s segments,
    /// cut at [`cuts`].
    pub(crate) fn from_rows(
        grid: &UniformGrid,
        fill: impl Fn(usize, usize, &mut Vec<[f64; 2]>) + Sync,
    ) -> Self {
        let [cx, cy, cz] = grid.cell_dims();
        let per_row = cx.div_ceil(SEGMENT);
        let ranges = par::map_chunks(cy * cz, crate::CELL_MIN_LEN.div_ceil(cx), |rows| {
            let mut out = Vec::with_capacity(rows.len() * per_row);
            for row in rows {
                fill(row % cy, row / cy, &mut out);
            }
            out
        });
        assert_eq!(ranges.len(), cy * cz * per_row, "one range per segment");
        SegmentIndex { per_row, ranges }
    }

    /// Whether segment `s` may hold a cell `isovalue` cuts.
    #[inline]
    fn live(&self, s: usize, isovalue: f64) -> bool {
        let [lo, hi] = self.ranges[s];
        hi > isovalue && lo <= isovalue
    }

    /// Per segment, `[lowest, highest]` corner value.
    #[cfg(test)]
    pub(crate) fn ranges(&self) -> &[[f64; 2]] {
        &self.ranges
    }

    /// The segments that may hold a cell `isovalue` cuts, ascending.
    pub(crate) fn live_segments(&self, isovalue: f64) -> impl Iterator<Item = usize> + '_ {
        (0..self.ranges.len()).filter(move |&s| self.live(s, isovalue))
    }
}

/// Each x-row's segments as `[first, last]` point index along x: cells
/// `first..last`, whose corners span points `first..=last`.
pub(crate) fn cuts(grid: &UniformGrid) -> Vec<[usize; 2]> {
    let cx = grid.cell_dims()[0];
    (0..cx)
        .step_by(SEGMENT)
        .map(|a| [a, (a + SEGMENT).min(cx)])
        .collect()
}

/// The range holding both `a` and `b`.
#[inline]
fn combine(a: [f64; 2], b: [f64; 2]) -> [f64; 2] {
    [a[0].min(b[0]), a[1].max(b[1])]
}

/// `range` widened to hold `v`, NaN counted as −∞.
#[inline]
fn widen([lo, hi]: [f64; 2], v: f64) -> [f64; 2] {
    let v = if v.is_nan() { f64::NEG_INFINITY } else { v };
    [if v < lo { v } else { lo }, if v > hi { v } else { hi }]
}

/// The cells the surface cuts, in ascending cell order: `(cell id,
/// case)` for every cell whose marching-cubes case — bit `i` set when
/// corner `i` is above the isovalue — is neither 0 nor 255 (the two
/// cases with no triangles).
///
/// Only the segments `index` leaves live are read. Per live segment,
/// the `value > isovalue` flags of each of the four point runs its
/// corners lie on make one bit mask; shifted masks mark the cells with
/// some corner above and those with all, and only the cells between
/// get their case assembled. At 128³ an isovalue of the `geom128`
/// dataset leaves about 6 % of the segments live. Both backends select
/// through here, once per isovalue; nothing downstream reads the cases
/// of the other cells.
pub(crate) fn classify(
    grid: &UniformGrid,
    values: &[f64],
    index: &SegmentIndex,
    isovalue: f64,
) -> Vec<(u32, u8)> {
    let [nx, ny, _nz] = grid.point_dims();
    let [cx, cy, cz] = grid.cell_dims();
    assert_eq!(
        index.ranges.len(),
        cy * cz * cx.div_ceil(SEGMENT),
        "the segment index is of another grid"
    );
    let per_row = index.per_row;
    // Point-id distance from corner 0 to corners 3, 4 and 7.
    let (up_y, up_z) = (nx, nx * ny);
    let segments = index.ranges.len();
    par::map_chunks(
        segments,
        crate::CELL_MIN_LEN.div_ceil(SEGMENT),
        |segments| {
            let mut active = Vec::new();
            for s in segments.filter(|&s| index.live(s, isovalue)) {
                let (row, i) = (s / per_row, s % per_row * SEGMENT);
                let len = SEGMENT.min(cx - i);
                let first = i + cx * row;
                let p0 = grid.point_id(i, row % cy, row / cy);
                // Bit `x` of a row's mask: point `x` of the run is above.
                let above = |from: usize| {
                    let run = values[from..=from + len].iter().enumerate();
                    run.fold(0u64, |m, (x, &v)| m | u64::from(v > isovalue) << x)
                };
                let rows = [p0, p0 + up_y, p0 + up_z, p0 + up_y + up_z].map(above);
                // Bit `x`: some corner of cell `x` is above, and all are.
                let (some, all) = rows.iter().fold((0, !0), |(some, all), &r| {
                    (some | r | r >> 1, all & r & r >> 1)
                });
                let [r0, r3, r4, r7] = rows;
                let mut cut = some & !all & ((1 << len) - 1);
                while cut != 0 {
                    let x = cut.trailing_zeros();
                    cut &= cut - 1;
                    let bit = |r: u64, dx: u32| (r >> (x + dx)) as u8 & 1;
                    let case = bit(r0, 0)
                        | bit(r0, 1) << 1
                        | bit(r3, 1) << 2
                        | bit(r3, 0) << 3
                        | bit(r4, 0) << 4
                        | bit(r4, 1) << 5
                        | bit(r7, 1) << 6
                        | bit(r7, 0) << 7;
                    active.push(((first + x as usize) as u32, case));
                }
            }
            active
        },
    )
}

/// Where `iso` crosses the edge from value `va` to `vb`, in `[0, 1]`. A
/// non-finite end puts it at the finite one: an infinite `va` at `vb`
/// (the limit), a NaN end — which counts as below every isovalue, and
/// has no limit — at the other end. The ratio itself would be NaN.
#[inline]
pub(crate) fn crossing(iso: f64, va: f64, vb: f64) -> f64 {
    if !va.is_finite() {
        return 1.0;
    }
    let t = ((iso - va) / (vb - va)).clamp(0.0, 1.0);
    if t.is_nan() {
        0.0
    } else {
        t
    }
}

/// Interpolate the triangles of `case` for `cell`: `emit` receives, per
/// triangle, the three weld keys (packed grid edges) and the three
/// positions where the isovalue crosses them.
#[inline]
pub(crate) fn emit_case(
    values: &[f64],
    isovalue: f64,
    cell: GridCell<'_>,
    case: &[[u8; 3]],
    mut emit: impl FnMut([u64; 3], [Vec3; 3]),
) {
    let (ids, corners) = (cell.point_ids(), cell.corners());
    for t in case {
        let mut key = [0u64; 3];
        let mut pos = [Vec3::ZERO; 3];
        for (slot, &e) in t.iter().enumerate() {
            let (a, b) = EDGES[e as usize];
            let (pa, pb) = (ids[a], ids[b]);
            let (va, vb) = (values[pa], values[pb]);
            pos[slot] = corners[a].lerp(corners[b], crossing(isovalue, va, vb));
            let (lo, hi) = if pa < pb { (pa, pb) } else { (pb, pa) };
            key[slot] = pack_edge(lo as u32, hi as u32);
        }
        emit(key, pos);
    }
}

/// Result of one marching-cubes pass over a grid.
pub struct McOutput {
    pub points: Vec<Vec3>,
    pub triangles: CellSet,
    /// Interpolated values of a secondary field at the surface vertices
    /// (here: the isovalue itself, matching VTK-m's default).
    pub(crate) point_values: Vec<f64>,
    pub(crate) classify_work: WorkCounters,
    pub(crate) interp_work: WorkCounters,
}

/// Run marching cubes over a point-centered scalar on a uniform grid,
/// reading only the segments `index` (built over `values`) leaves live.
///
/// Vertices are welded on shared cell edges, so the output is a proper
/// indexed mesh (watertight in the grid interior).
pub fn marching_cubes(
    grid: &UniformGrid,
    values: &[f64],
    index: &SegmentIndex,
    isovalue: f64,
) -> McOutput {
    assert_eq!(
        values.len(),
        grid.num_points(),
        "marching cubes needs a point-centered scalar"
    );
    let table = triangle_table();
    let [cx, cy, cz] = grid.cell_dims();
    let num_cells = grid.num_cells();

    let active = classify(grid, values, index, isovalue);

    // Parallel over z-slabs: each slab emits the triangles of its run of
    // the active list, keyed by global edge ids; a serial weld pass
    // builds the final indexed mesh. It is serial per isovalue;
    // `Contour`'s isovalue tasks run their welds side by side.
    let slab = (cx * cy).max(1);
    let slabs: Vec<(WorkCounters, WorkCounters, Vec<([u64; 3], [Vec3; 3])>)> =
        par::map(cz, crate::CELL_MIN_LEN.div_ceil(slab), |kz| {
            let from = |c: usize| active.partition_point(|&(id, _)| (id as usize) < c);
            let run = &active[from(kz * slab)..from((kz + 1) * slab)];
            let num_tris: usize = run
                .iter()
                .map(|&(_, case)| table[case as usize].len())
                .sum();
            let mut tris: Vec<([u64; 3], [Vec3; 3])> = Vec::with_capacity(num_tris);
            let cells = grid.cells(run.iter().map(|&(id, _)| id as usize));
            for (cell, &(_, case)) in cells.zip(run) {
                emit_case(values, isovalue, cell, &table[case as usize], |key, pos| {
                    tris.push((key, pos))
                });
            }
            let mut classify_work = WorkCounters::new();
            classify_work.tally(slab as u64, 26, 8, 64 + 32, 0);
            // Three interpolated corners, then one assembled triangle.
            let mut interp_work = WorkCounters::new();
            interp_work.tally(3 * tris.len() as u64, 34, 14, 48, 24);
            interp_work.tally(tris.len() as u64, 16, 0, 0, 12);
            (classify_work, interp_work, tris)
        });

    // Weld over the flat packed-index table. Triangles are consumed in
    // slab (raster) order, and first sight of an edge key assigns the
    // next point id — identical id assignment to the map-based weld this
    // replaced, without per-entry heap boxes.
    let total_tris: usize = slabs.iter().map(|(_, _, t)| t.len()).sum();
    let mut classify = WorkCounters::new();
    let mut interp = WorkCounters::new();
    let mut weld: WeldMap = WeldMap::with_capacity(total_tris);
    let mut points: Vec<Vec3> = Vec::with_capacity(total_tris);
    let mut point_values: Vec<f64> = Vec::with_capacity(total_tris);
    let mut cells = CellSet::with_capacity(total_tris, 3 * total_tris);
    for (cw, iw, tris) in slabs {
        classify += cw;
        interp += iw;
        for (keys, pos) in tris {
            let mut tri = [0u32; 3];
            for s in 0..3 {
                let id = match weld.get(keys[s]) {
                    Some(id) => id,
                    None => {
                        let id = points.len() as u32;
                        points.push(pos[s]);
                        point_values.push(isovalue);
                        weld.insert(keys[s], id);
                        id
                    }
                };
                tri[s] = id;
            }
            // Skip degenerate triangles produced when two edges of the
            // case interpolate to the same welded vertex.
            if tri[0] != tri[1] && tri[1] != tri[2] && tri[2] != tri[0] {
                cells.push(CellShape::Triangle, &tri);
            }
        }
    }
    classify.working_set_bytes = (values.len() * 8) as u64;
    debug_assert_eq!(classify.items, num_cells as u64);

    McOutput {
        points,
        triangles: cells,
        point_values,
        classify_work: classify,
        interp_work: interp,
    }
}

/// The contour filter: marching cubes at one or more isovalues (the paper
/// uses 10 isovalues per visualization cycle).
#[derive(Debug, Clone)]
pub struct Contour {
    /// Point-centered scalar field to contour.
    pub(crate) field: String,
    pub(crate) isovalues: Vec<f64>,
}

impl Contour {
    pub fn new(field: impl Into<String>, isovalues: Vec<f64>) -> Self {
        assert!(!isovalues.is_empty(), "contour needs at least one isovalue");
        Contour {
            field: field.into(),
            isovalues,
        }
    }

    /// The paper's configuration: `n` isovalues evenly spaced across the
    /// interior of the field's range (avoiding the exact min/max, which
    /// produce empty surfaces).
    pub fn spanning(field: impl Into<String>, input: &DataSet, n: usize) -> Self {
        let field = field.into();
        let (lo, hi) = filter::point_scalar_range(input, &field);
        let isovalues = (0..n)
            .map(|i| lo + (hi - lo) * (i as f64 + 1.0) / (n as f64 + 1.0))
            .collect();
        Contour { field, isovalues }
    }

    /// The grid and the contoured point scalar.
    pub(crate) fn inputs<'a>(&self, input: &'a DataSet) -> (&'a UniformGrid, &'a [f64]) {
        (
            filter::structured(input, self.name()),
            filter::point_scalars(input, self.name(), &self.field),
        )
    }
}

impl Filter for Contour {
    fn name(&self) -> &'static str {
        "Contour"
    }

    fn execute(&self, input: &DataSet) -> FilterOutput {
        let (grid, values) = self.inputs(input);
        let index = SegmentIndex::of_field(grid, values);
        // One task per isovalue (module note).
        let runs = par::map(self.isovalues.len(), 1, |i| {
            marching_cubes(grid, values, &index, self.isovalues[i])
        });
        let mut classify = WorkCounters::new();
        let mut interp = WorkCounters::new();
        let surfaces = runs.into_iter().map(|mc| {
            classify += mc.classify_work;
            interp += mc.interp_work;
            (mc.points, mc.point_values, mc.triangles)
        });
        let ds = concat_surfaces(&self.field, surfaces);
        FilterOutput::data(
            ds,
            vec![
                KernelReport::new("mc-classify", KernelClass::CaseTable, classify),
                KernelReport::new("mc-interpolate", KernelClass::Interpolate, interp),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propcheck::prelude::*;
    use std::collections::HashMap;
    use vizmesh::{Association, Field, XorShift};

    /// The active list by definition: every cell, its eight corners
    /// compared one by one, no index.
    fn full_grid_classify(grid: &UniformGrid, values: &[f64], iso: f64) -> Vec<(u32, u8)> {
        let cases = (0..grid.num_cells()).map(|id| {
            let ids = grid.cell_at(id).point_ids();
            let case = (0..8).fold(0u8, |c, i| c | u8::from(values[ids[i]] > iso) << i);
            (id as u32, case)
        });
        cases.filter(|&(_, c)| c != 0 && c != 255).collect()
    }

    /// Runs of values drawn from a palette that holds NaN, ±Inf and ±0
    /// besides a few finite steps, so equal corners, ties with the
    /// isovalue and constant stretches longer than a segment all occur.
    fn palette_field(n: usize, seed: u64) -> Vec<f64> {
        const PALETTE: [f64; 9] = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.0,
            f64::INFINITY,
        ];
        let mut rng = XorShift::from_seed(seed);
        let mut values = Vec::with_capacity(n);
        while values.len() < n {
            let v = PALETTE[rng.below(PALETTE.len())];
            let longest = if rng.below(4) == 0 { 40 } else { 3 };
            let run = 1 + rng.below(longest);
            values.extend(std::iter::repeat_n(v, run.min(n - values.len())));
        }
        values
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The indexed classify selects exactly the cells and cases of a
        /// full-grid sweep: x-cell counts below, at and across the
        /// segment width; fields with NaN, ±Inf and constant runs;
        /// isovalues drawn from the field itself, plus ±0; at 1, 4 and
        /// 16 threads. The 24 × 25 grids' rows are cut into several
        /// chunks at 4 and 16 threads.
        #[test]
        fn indexed_classify_matches_a_full_grid_sweep(
            cx in 0usize..6,
            cy in 0usize..3,
            cz in 0usize..3,
            seed in 0u64..1_000_000,
            picks in prop::collection::vec(0usize..100_000, 1..5),
        ) {
            let cells = [[1, 15, 16, 17, 33, 37][cx], [1, 3, 24][cy], [1, 2, 25][cz]];
            let grid = UniformGrid::new(
                cells.map(|c| c + 1),
                Vec3::new(0.25, -1.0, 3.0),
                Vec3::new(0.1, 0.3, 0.7),
            );
            let values = palette_field(grid.num_points(), seed);
            let mut isovalues: Vec<f64> = picks.iter().map(|&p| values[p % values.len()]).collect();
            isovalues.extend([0.0, -0.0]);
            for threads in [1, 4, 16] {
                par::with_threads(threads, || {
                    let index = SegmentIndex::of_field(&grid, &values);
                    for &iso in &isovalues {
                        let expect = full_grid_classify(&grid, &values, iso);
                        let got = classify(&grid, &values, &index, iso);
                        prop_assert_eq!(got, expect, "iso {} at {} threads", iso, threads);
                    }
                });
            }
        }
    }

    fn sphere_field(grid: &UniformGrid) -> Vec<f64> {
        let c = grid.bounds().center();
        (0..grid.num_points())
            .map(|id| grid.point_coord_id(id).distance(c))
            .collect()
    }

    #[test]
    fn table_case_0_and_255_are_empty() {
        let t = triangle_table();
        assert!(t[0].is_empty());
        assert!(t[255].is_empty());
    }

    #[test]
    fn table_single_corner_cases_are_one_triangle() {
        let t = triangle_table();
        for c in 0..8 {
            assert_eq!(t[1usize << c].len(), 1, "corner {c}");
            assert_eq!(t[255 ^ (1usize << c)].len(), 1, "complement of corner {c}");
        }
    }

    #[test]
    fn table_uses_only_crossing_edges() {
        let t = triangle_table();
        for config in 0..256usize {
            let inside = |c: usize| config >> c & 1 == 1;
            for tri in &t[config] {
                for &e in tri {
                    let (a, b) = EDGES[e as usize];
                    assert_ne!(
                        inside(a),
                        inside(b),
                        "config {config:#010b} uses non-crossing edge {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn table_covers_every_crossing_edge() {
        let t = triangle_table();
        for config in 1..255usize {
            let inside = |c: usize| config >> c & 1 == 1;
            let mut used = [false; 12];
            for tri in &t[config] {
                for &e in tri {
                    used[e as usize] = true;
                }
            }
            for e in 0..12 {
                let (a, b) = EDGES[e];
                if inside(a) != inside(b) {
                    assert!(used[e], "config {config:#010b} missing crossing edge {e}");
                }
            }
        }
    }

    #[test]
    fn table_complement_uses_same_edges() {
        let t = triangle_table();
        for config in 0..256usize {
            let edges = |c: usize| {
                let mut v: Vec<u8> = t[c].iter().flatten().copied().collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            assert_eq!(edges(config), edges(255 - config));
        }
    }

    #[test]
    fn vertices_interpolate_to_isovalue() {
        let grid = UniformGrid::cube_cells(6);
        let values = sphere_field(&grid);
        let iso = 0.4;
        let mc = marching_cubes(&grid, &values, &SegmentIndex::of_field(&grid, &values), iso);
        assert!(!mc.points.is_empty());
        // Sample the (smooth) field at each vertex: should be near iso.
        let c = grid.bounds().center();
        for p in &mc.points {
            let v = p.distance(c);
            assert!(
                (v - iso).abs() < 0.05,
                "vertex {p:?} has field value {v}, isovalue {iso}"
            );
        }
    }

    /// The watertightness check that validates the generated table: every
    /// triangle edge must be shared by exactly two triangles unless it
    /// lies on the domain boundary.
    #[test]
    fn surface_is_watertight_in_interior() {
        let grid = UniformGrid::cube_cells(5);
        // A wavy field exercising many configurations, including
        // ambiguous ones.
        let values: Vec<f64> = (0..grid.num_points())
            .map(|id| {
                let p = grid.point_coord_id(id);
                (7.0 * p.x).sin() + (5.0 * p.y).cos() * (3.0 * p.z).sin()
            })
            .collect();
        for iso in [-0.6, -0.1, 0.0, 0.2, 0.7] {
            let mc = marching_cubes(&grid, &values, &SegmentIndex::of_field(&grid, &values), iso);
            let mut edge_count: HashMap<(u32, u32), u32> = HashMap::new();
            for c in 0..mc.triangles.num_cells() {
                let t = mc.triangles.cell_points(c);
                for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                    let key = (a.min(b), a.max(b));
                    *edge_count.entry(key).or_insert(0) += 1;
                }
            }
            let on_boundary = |p: Vec3| {
                let eps = 1e-9;
                p.x < eps
                    || p.y < eps
                    || p.z < eps
                    || p.x > 1.0 - eps
                    || p.y > 1.0 - eps
                    || p.z > 1.0 - eps
            };
            for ((a, b), count) in &edge_count {
                assert!(*count <= 2, "edge shared by {count} > 2 triangles");
                if *count == 1 {
                    let pa = mc.points[*a as usize];
                    let pb = mc.points[*b as usize];
                    assert!(
                        on_boundary(pa) && on_boundary(pb),
                        "open interior edge {pa:?} - {pb:?} at iso {iso}"
                    );
                }
            }
        }
    }

    #[test]
    fn sphere_surface_area_is_close() {
        // Contour of a distance field at radius r inside the unit cube:
        // area ≈ 4πr² when the sphere fits inside.
        let grid = UniformGrid::cube_cells(24);
        let values = sphere_field(&grid);
        let r = 0.35;
        let mc = marching_cubes(&grid, &values, &SegmentIndex::of_field(&grid, &values), r);
        let mut area = 0.0;
        for c in 0..mc.triangles.num_cells() {
            let t = mc.triangles.cell_points(c);
            let (a, b, cc) = (
                mc.points[t[0] as usize],
                mc.points[t[1] as usize],
                mc.points[t[2] as usize],
            );
            area += 0.5 * (b - a).cross(cc - a).length();
        }
        let expect = 4.0 * std::f64::consts::PI * r * r;
        assert!(
            (area - expect).abs() / expect < 0.05,
            "area {area} vs {expect}"
        );
    }

    #[test]
    fn triangles_oriented_outward_for_sphere_interior() {
        // Field = distance from center; inside = above isovalue means
        // *outside* the ball, so normals should point toward the center.
        // Check consistency: all signed volumes have the same sign.
        let grid = UniformGrid::cube_cells(10);
        let values = sphere_field(&grid);
        let mc = marching_cubes(
            &grid,
            &values,
            &SegmentIndex::of_field(&grid, &values),
            0.35,
        );
        let center = grid.bounds().center();
        let mut pos = 0;
        let mut neg = 0;
        for c in 0..mc.triangles.num_cells() {
            let t = mc.triangles.cell_points(c);
            let (a, b, cc) = (
                mc.points[t[0] as usize],
                mc.points[t[1] as usize],
                mc.points[t[2] as usize],
            );
            let n = (b - a).cross(cc - a);
            let to_center = center - (a + b + cc) / 3.0;
            if n.dot(to_center) > 0.0 {
                pos += 1;
            } else {
                neg += 1;
            }
        }
        assert!(
            pos == 0 || neg == 0,
            "inconsistent orientation: {pos} inward vs {neg} outward"
        );
    }

    #[test]
    fn empty_when_isovalue_outside_range() {
        let grid = UniformGrid::cube_cells(4);
        let values = sphere_field(&grid);
        let mc = marching_cubes(
            &grid,
            &values,
            &SegmentIndex::of_field(&grid, &values),
            100.0,
        );
        assert!(mc.points.is_empty());
        assert_eq!(mc.triangles.num_cells(), 0);
        // Classification still visited every cell.
        assert_eq!(mc.classify_work.items, grid.num_cells() as u64);
    }

    #[test]
    fn contour_filter_multiple_isovalues() {
        let grid = UniformGrid::cube_cells(8);
        let values = sphere_field(&grid);
        let n = grid.num_points();
        let ds = DataSet::uniform(grid).with_field(Field::scalar("d", Association::Points, values));
        let _ = n;
        let filter = Contour::new("d", vec![0.3, 0.4]);
        let out = filter.execute(&ds);
        let result = out.dataset.unwrap();
        assert!(result.num_cells() > 0);
        assert_eq!(out.kernels.len(), 2);
        assert_eq!(out.kernels[0].class, KernelClass::CaseTable);
        // Two isovalues → classification visited every cell twice.
        assert_eq!(out.kernels[0].work.items, 2 * 8 * 8 * 8);
    }

    #[test]
    fn spanning_picks_interior_isovalues() {
        let grid = UniformGrid::cube_cells(4);
        let values = sphere_field(&grid);
        let ds = DataSet::uniform(grid).with_field(Field::scalar("d", Association::Points, values));
        let c = Contour::spanning("d", &ds, 10);
        assert_eq!(c.isovalues.len(), 10);
        let (lo, hi) = ds.field("d").unwrap().scalar_range().unwrap();
        for &v in &c.isovalues {
            assert!(v > lo && v < hi);
        }
    }
}
