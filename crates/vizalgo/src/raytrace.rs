//! Ray tracing (§III-B7): render the dataset's external surface.
//!
//! Mirrors the three steps the paper identifies inside VTK-m's ray
//! tracer: (1) *gather triangles / find external faces* — the
//! data-intensive part that dominates its runtime profile, (2) *build a
//! spatial acceleration structure* (a BVH), and (3) *trace the rays*.
//! Output is an image database rendered from cameras orbiting the data
//! set (50 per visualization cycle in the paper).
//!
//! Model charge and host walk differ in step 1 on purpose. VTK-m finds
//! external faces by visiting every cell, and that all-cell visit is
//! what the `rt-gather-faces` counters charge, because it is what the
//! paper measured. The host knows a uniform grid's boundary cells by
//! position and touches only that shell. Comparing this kernel's model
//! to a stopwatch therefore compares against counted work, not against
//! the host's gather time.
//!
//! In situ, where only the field changes between cycles, a scene holds
//! a [`RayRecord`] and calls [`RayTracer::render`]: it runs all three
//! steps only when the record was made from another grid or image size,
//! and otherwise just colours the recorded hits. The model still
//! charges all three every cycle from the replayed counters. `execute`
//! traces and colours each pixel at once, buffering no hits.

use crate::colormap::ColorMap;
use crate::filter::{self, Filter, FilterOutput, KernelClass, KernelReport};
use vizmesh::{par, Aabb, DataSet, Image, Ray, Vec3, WorkCounters};

/// A shading-ready triangle: positions plus per-vertex scalar.
#[derive(Debug, Clone, Copy)]
pub struct Triangle {
    pub p: [Vec3; 3],
    pub scalar: [f64; 3],
}

impl Triangle {
    pub(crate) fn centroid(&self) -> Vec3 {
        (self.p[0] + self.p[1] + self.p[2]) / 3.0
    }

    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(self.p.iter().copied())
    }

    pub fn normal(&self) -> Vec3 {
        (self.p[1] - self.p[0])
            .cross(self.p[2] - self.p[0])
            .normalized()
    }

    /// Möller–Trumbore. Returns `(t, u, v)` of the nearest forward hit.
    pub fn intersect(&self, ray: &Ray) -> Option<(f64, f64, f64)> {
        const EPS: f64 = 1e-12;
        let e1 = self.p[1] - self.p[0];
        let e2 = self.p[2] - self.p[0];
        let h = ray.direction.cross(e2);
        let det = e1.dot(h);
        if det.abs() < EPS {
            return None;
        }
        let inv = 1.0 / det;
        let s = ray.origin - self.p[0];
        let u = s.dot(h) * inv;
        if !(0.0..=1.0).contains(&u) {
            return None;
        }
        let q = s.cross(e1);
        let v = ray.direction.dot(q) * inv;
        if v < 0.0 || u + v > 1.0 {
            return None;
        }
        let t = e2.dot(q) * inv;
        if t > EPS {
            Some((t, u, v))
        } else {
            None
        }
    }
}

/// Faces of a cell as corner-slot quads matching `GridCell::point_ids` order,
/// with the side of the cell each lies on: its axis, and whether it is
/// the high end of that axis.
const CELL_FACES: [([usize; 4], usize, bool); 6] = [
    ([0, 3, 2, 1], 2, false),
    ([4, 5, 6, 7], 2, true),
    ([0, 1, 5, 4], 1, false),
    ([1, 2, 6, 5], 0, true),
    ([2, 3, 7, 6], 1, true),
    ([3, 0, 4, 7], 0, false),
];

/// Extract the external faces of a structured dataset as triangles with
/// the point scalar attached, in cell order. For a uniform grid the
/// external faces are the six domain boundary faces, so the walk is over
/// rows: a row on a `j` or `k` boundary emits every cell, any other row
/// its first and last. The counters still charge one visit per cell —
/// VTK-m's all-cell face-parity pass, which is what makes this step
/// data-intensive in the paper — while the host touches only the shell.
/// Each triangle's corner point ids go to `corners` as it is emitted.
pub fn external_face_triangles(
    input: &DataSet,
    field: &str,
    mut corners: impl FnMut([u32; 3]),
) -> (Vec<Triangle>, WorkCounters) {
    let grid = filter::structured(input, "Ray Tracing");
    let values = filter::point_scalars(input, "Ray Tracing", field);
    let dims = grid.cell_dims();
    let [cx, cy, cz] = dims;
    // Exactly 2 boundary quads per face-pair slab, 2 triangles per quad.
    let quads = 2 * (cx * cy + cy * cz + cz * cx);
    let mut tris = Vec::with_capacity(2 * quads);
    let mut work = WorkCounters::new();
    work.tally(grid.num_cells() as u64, 22, 0, 64, 0);

    let mut cell = grid.cell_at(0);
    let mut emit = |id: usize| {
        cell.seek(id);
        let ijk = cell.ijk();
        let ids = cell.point_ids();
        let points = cell.corners();
        for (slots, axis, high) in CELL_FACES {
            let face = if high { dims[axis] - 1 } else { 0 };
            if ijk[axis] != face {
                continue;
            }
            let quad_p: [Vec3; 4] = slots.map(|s| points[s]);
            let quad_i: [usize; 4] = slots.map(|s| ids[s]);
            let quad_v: [f64; 4] = quad_i.map(|p| values[p]);
            tris.push(Triangle {
                p: [quad_p[0], quad_p[1], quad_p[2]],
                scalar: [quad_v[0], quad_v[1], quad_v[2]],
            });
            corners([quad_i[0], quad_i[1], quad_i[2]].map(|p| p as u32));
            tris.push(Triangle {
                p: [quad_p[0], quad_p[2], quad_p[3]],
                scalar: [quad_v[0], quad_v[2], quad_v[3]],
            });
            corners([quad_i[0], quad_i[2], quad_i[3]].map(|p| p as u32));
            work.tally(2, 48, 6, 128, 144);
        }
    };
    for k in 0..cz {
        for j in 0..cy {
            let row = cx * (j + cy * k);
            if j == 0 || j == cy - 1 || k == 0 || k == cz - 1 {
                (row..row + cx).for_each(&mut emit);
            } else {
                emit(row);
                if cx > 1 {
                    emit(row + cx - 1);
                }
            }
        }
    }
    work.working_set_bytes = (tris.len() * std::mem::size_of::<Triangle>()) as u64;
    (tris, work)
}

/// A node of the BVH: either internal (child indices) or a leaf (triangle
/// range in the reordered index array).
#[derive(Debug, Clone, Copy)]
struct BvhNode {
    bounds: Aabb,
    /// Left child index, or triangle range start for leaves.
    a: u32,
    /// Right child index, or triangle range end for leaves.
    b: u32,
    leaf: bool,
}

/// A median-split bounding volume hierarchy over triangles, stored as a
/// flat preorder node array and traversed with a fixed-size explicit
/// stack (no recursion, no per-ray allocation).
pub struct Bvh {
    nodes: Vec<BvhNode>,
    /// Triangle indices reordered so each leaf is a contiguous range.
    order: Vec<u32>,
}

const LEAF_SIZE: usize = 4;

/// Traversal stack depth. Median splits halve ranges, so tree depth is
/// ≤ ⌈log₂(n / LEAF_SIZE)⌉ + 1 (≤ 33 even at u32::MAX triangles), and
/// the stack holds at most depth + 1 entries.
const MAX_DEPTH: usize = 64;

/// The longest range one build task takes whole; a longer one is split
/// on the calling thread first. A property of the range, never of the
/// thread count, so the task list is the same at every count.
const BUILD_TASK_LEN: usize = 4096;

/// Nodes in the tree over `n` triangles: `1 + node_count(n / 2) +
/// node_count(n - n / 2)` above [`LEAF_SIZE`], in closed form. Halving
/// `d` times leaves `2^d` ranges of `n >> d` or one more triangles;
/// at the first depth where `n >> d` fits a leaf, only ranges of exactly
/// `LEAF_SIZE + 1` split once more.
fn node_count(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let mut d = 0;
    while n >> d > LEAF_SIZE {
        d += 1;
    }
    let one_over = if n >> d == LEAF_SIZE {
        n & ((1 << d) - 1)
    } else {
        0
    };
    (2 << d) - 1 + 2 * one_over
}

/// What the build moves around: a triangle's id with the key every
/// split sorts it by, so each per-node pass reads one contiguous range.
#[derive(Clone, Copy)]
struct BuildItem {
    centroid: Vec3,
    id: u32,
}

/// A range of the item array with the node slots of the subtree over
/// it: `node_count(items.len())` of them, the root first, at absolute
/// positions `first_item` and `first_node` of the whole arrays.
#[derive(Default)]
struct Subtree<'a> {
    items: &'a mut [BuildItem],
    nodes: &'a mut [BvhNode],
    first_item: usize,
    first_node: usize,
}

impl<'a> Subtree<'a> {
    /// Write this subtree's root. A range that fits a leaf gets its
    /// bounds now (its items are in their final order); a longer one is
    /// split at the median of its longest centroid axis and hands back
    /// its two halves, bounds left for [`Bvh::build`]'s bottom-up pass.
    fn split(self, tris: &[Triangle], work: &mut WorkCounters) -> Option<[Subtree<'a>; 2]> {
        let Subtree {
            items,
            nodes,
            first_item,
            first_node,
        } = self;
        let n = items.len();
        let (root, below) = nodes.split_first_mut()?;
        work.tally(n as u64, 30, 18, 72, 8);
        if n <= LEAF_SIZE {
            let mut bounds = Aabb::empty();
            for item in items.iter() {
                bounds.union(&tris[item.id as usize].bounds());
            }
            *root = BvhNode {
                bounds,
                a: first_item as u32,
                b: (first_item + n) as u32,
                leaf: true,
            };
            return None;
        }
        let mut cb = Aabb::empty();
        for item in items.iter() {
            cb.grow(item.centroid);
        }
        let axis = cb.longest_axis();
        items.select_nth_unstable_by(n / 2, |x, y| x.centroid[axis].total_cmp(&y.centroid[axis]));
        work.tally(n as u64, 16, 4, 28, 4);
        let left_nodes = node_count(n / 2);
        *root = BvhNode {
            bounds: Aabb::empty(),
            a: (first_node + 1) as u32,
            b: (first_node + 1 + left_nodes) as u32,
            leaf: false,
        };
        let (left_items, right_items) = items.split_at_mut(n / 2);
        let (left_slots, right_slots) = below.split_at_mut(left_nodes);
        Some([
            Subtree {
                items: left_items,
                nodes: left_slots,
                first_item,
                first_node: first_node + 1,
            },
            Subtree {
                items: right_items,
                nodes: right_slots,
                first_item: first_item + n / 2,
                first_node: first_node + 1 + left_nodes,
            },
        ])
    }

    /// Split all the way down, on the calling thread.
    fn finish(self, tris: &[Triangle], work: &mut WorkCounters) {
        let mut pending = Vec::with_capacity(MAX_DEPTH);
        pending.push(self);
        while let Some(subtree) = pending.pop() {
            if let Some(halves) = subtree.split(tris, work) {
                pending.extend(halves);
            }
        }
    }
}

impl Bvh {
    /// Build over `tris`. Returns the structure and the build work.
    ///
    /// Nodes lie in DFS preorder (parent, left subtree, right subtree),
    /// which fixes traversal order and with it the visit/test statistics
    /// feeding the power model. `node_count` gives every subtree's
    /// slot range before it is built, so ranges longer than
    /// `BUILD_TASK_LEN` are split here and the disjoint subtrees below
    /// them are built in parallel, each in its own slices of the item
    /// and node arrays.
    pub fn build(tris: &[Triangle]) -> (Bvh, WorkCounters) {
        let mut work = WorkCounters::new();
        let mut items = par::map(tris.len(), crate::CELL_MIN_LEN, |t| BuildItem {
            centroid: tris[t].centroid(),
            id: t as u32,
        });
        let unbuilt = BvhNode {
            bounds: Aabb::empty(),
            a: 0,
            b: 0,
            leaf: true,
        };
        let mut nodes = vec![unbuilt; node_count(tris.len())];

        let mut tasks = Vec::with_capacity(tris.len() / BUILD_TASK_LEN * 2 + 1);
        let mut pending = Vec::with_capacity(MAX_DEPTH);
        pending.push(Subtree {
            items: &mut items,
            nodes: &mut nodes,
            first_item: 0,
            first_node: 0,
        });
        while let Some(subtree) = pending.pop() {
            if subtree.items.len() <= BUILD_TASK_LEN {
                tasks.push((subtree, WorkCounters::new()));
            } else if let Some(halves) = subtree.split(tris, &mut work) {
                pending.extend(halves);
            }
        }
        par::for_each_mut(&mut tasks, 1, |_, (subtree, work)| {
            std::mem::take(subtree).finish(tris, work);
        });
        for (_, task_work) in &tasks {
            work += *task_work;
        }
        drop(tasks);

        // Children follow their parent in preorder, so walking backwards
        // meets both before it; `min`/`max` are exact, so the union of
        // two child boxes is the union of the triangles below them.
        for n in (0..nodes.len()).rev() {
            if !nodes[n].leaf {
                let mut bounds = nodes[nodes[n].a as usize].bounds;
                bounds.union(&nodes[nodes[n].b as usize].bounds);
                nodes[n].bounds = bounds;
            }
        }
        work.working_set_bytes =
            (nodes.len() * std::mem::size_of::<BvhNode>() + tris.len() * 4) as u64;
        let order = items.iter().map(|item| item.id).collect();
        (Bvh { nodes, order }, work)
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Nearest hit: `(t, triangle index, u, v)`. Also counts the nodes
    /// visited and triangles tested into `stats = (nodes, tests)`.
    pub fn intersect(
        &self,
        tris: &[Triangle],
        ray: &Ray,
        stats: &mut (u64, u64),
    ) -> Option<(f64, u32, f64, f64)> {
        if self.nodes.is_empty() {
            return None;
        }
        let inv = ray.inv_direction();
        let mut best: Option<(f64, u32, f64, f64)> = None;
        let mut t_max = f64::INFINITY;
        // Fixed-size stack on the caller's stack frame: this runs once
        // per ray, and a heap-backed Vec here was the hottest allocation
        // in the whole trace step.
        let mut stack = [0u32; MAX_DEPTH];
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let ni = stack[top];
            let node = &self.nodes[ni as usize];
            stats.0 += 1;
            if node
                .bounds
                .intersect_ray(ray.origin, inv, 0.0, t_max)
                .is_none()
            {
                continue;
            }
            if node.leaf {
                for &ti in &self.order[node.a as usize..node.b as usize] {
                    stats.1 += 1;
                    if let Some((t, u, v)) = tris[ti as usize].intersect(ray) {
                        if t < t_max {
                            t_max = t;
                            best = Some((t, ti, u, v));
                        }
                    }
                }
            } else {
                debug_assert!(top + 2 <= MAX_DEPTH, "BVH deeper than MAX_DEPTH");
                stack[top] = node.a;
                stack[top + 1] = node.b;
                top += 2;
            }
        }
        best
    }
}

/// What one ray sees of the mesh: everything its pixel needs except the
/// field. Only a recorded hit fills in `pixel`, its row-major index.
#[derive(Clone, Copy)]
struct Hit {
    pixel: u32,
    tri: u32,
    u: f64,
    v: f64,
    depth: f32,
    shade: f32,
}

/// The nearest hit of `ray` on the mesh, with its headlight Lambert
/// shade. Counts into `stats` as [`Bvh::intersect`] does.
fn trace(bvh: &Bvh, tris: &[Triangle], ray: &Ray, stats: &mut (u64, u64)) -> Option<Hit> {
    let (t, tri, u, v) = bvh.intersect(tris, ray, stats)?;
    let ndl = tris[tri as usize].normal().dot(-ray.direction).abs();
    Some(Hit {
        pixel: 0,
        tri,
        u,
        v,
        depth: t as f32,
        shade: (0.35 + 0.65 * ndl) as f32,
    })
}

/// `hit`'s colour: the field interpolated at its `(u, v)` from `values`,
/// its triangle's corner values, mapped over `[lo, hi]` and shaded.
fn colour(hit: &Hit, values: [f64; 3], cmap: &ColorMap, lo: f64, hi: f64) -> [f32; 4] {
    let s = values[0] * (1.0 - hit.u - hit.v) + values[1] * hit.u + values[2] * hit.v;
    let mut c = cmap.sample_range(s, lo, hi);
    c[..3].iter_mut().for_each(|c| *c *= hit.shade);
    c
}

/// What a tracer traced on one grid, for [`RayTracer::render`] to colour
/// from any field on it: only the hit pixels, 32 B each, each
/// triangle's corner point ids and the work, with what it was made from.
pub struct RayRecord {
    /// The grid's point dims, its origin and spacing by their bits, and
    /// the image width, height and count. Not the field: no hit reads it.
    made_from: ([usize; 3], [u64; 6], [usize; 3]),
    /// Per image, its hits in row-major pixel order.
    hits: Vec<Vec<Hit>>,
    /// Each triangle's corner point ids, in gather order.
    corners: Vec<[u32; 3]>,
    /// The three steps' reports, as `execute` gives them.
    kernels: Vec<KernelReport>,
}

/// The ray-tracing filter: external faces → BVH → image database.
#[derive(Debug, Clone)]
pub struct RayTracer {
    pub(crate) field: String,
    pub(crate) width: usize,
    pub(crate) height: usize,
    pub(crate) num_cameras: usize,
}

impl RayTracer {
    pub fn new(field: impl Into<String>, width: usize, height: usize, num_cameras: usize) -> Self {
        assert!(width > 0 && height > 0 && num_cameras > 0);
        RayTracer {
            field: field.into(),
            width,
            height,
            num_cameras,
        }
    }

    /// What [`execute`](Filter::execute) returns on `input`, colouring
    /// `held` if it was made from `input`'s grid and this image size and
    /// count, else a record traced now, which is left in `held`.
    pub fn render(&self, held: &mut Option<RayRecord>, input: &DataSet) -> FilterOutput {
        let grid = filter::structured(input, "Ray Tracing");
        let (o, s) = (grid.origin(), grid.spacing());
        let bits = [o.x, o.y, o.z, s.x, s.y, s.z].map(f64::to_bits);
        let size = [self.width, self.height, self.num_cameras];
        let made_from = (grid.point_dims(), bits, size);
        let record = match held {
            Some(record) if record.made_from == made_from => record,
            slot => slot.insert(self.record(input, made_from)),
        };
        self.colour(record, input)
    }

    /// Steps 1–3 on `input`'s grid, with the colour left out: every
    /// camera's hits and the work `execute` reports.
    fn record(&self, input: &DataSet, made_from: ([usize; 3], [u64; 6], [usize; 3])) -> RayRecord {
        let points = filter::structured(input, "Ray Tracing").num_points();
        assert!(
            points.max(self.width * self.height) <= u32::MAX as usize,
            "u32 ids"
        );
        let mut corners = Vec::new();
        let (tris, gather) = external_face_triangles(input, &self.field, |ids| corners.push(ids));
        let (bvh, build) = Bvh::build(&tris);
        let (mut hits, mut stats) = (Vec::new(), Vec::new());
        let size = (self.width, self.height);
        let see = |ray: &Ray, s: &mut (u64, u64)| trace(&bvh, &tris, ray, s);
        filter::orbit_rows(&input.bounds(), self.num_cameras, size, see, |rows| {
            // Rows are `width` long, so a pixel's place in them is its index.
            let pixels = || rows.iter().flat_map(|(row, _)| row);
            let at = |(p, hit): (usize, &Option<Hit>)| {
                hit.map(|h| Hit {
                    pixel: p as u32,
                    ..h
                })
            };
            let mut image = Vec::with_capacity(pixels().flatten().count());
            image.extend(pixels().enumerate().filter_map(at));
            hits.push(image);
            stats.push(rows.iter().fold((0, 0), |a, (_, s)| (a.0 + s.0, a.1 + s.1)));
        });
        let kernels = self.reports([gather, build], &stats, &bvh);
        RayRecord {
            made_from,
            hits,
            corners,
            kernels,
        }
    }

    /// Each of `record`'s hits coloured from `input`'s field, one image
    /// per `par` task.
    fn colour(&self, record: &RayRecord, input: &DataSet) -> FilterOutput {
        let values = filter::point_scalars(input, "Ray Tracing", &self.field);
        let (lo, hi) = filter::scalar_range(input, &self.field);
        let cmap = ColorMap::cool_to_warm();
        let images = par::map(record.hits.len(), 1, |i| {
            let mut img = Image::new(self.width, self.height);
            for hit in &record.hits[i] {
                let corners = record.corners[hit.tri as usize].map(|p| values[p as usize]);
                let rgba = colour(hit, corners, &cmap, lo, hi);
                let p = hit.pixel as usize;
                img.set_if_closer(p % self.width, p / self.width, hit.depth, rgba);
            }
            img
        });
        FilterOutput::rendered(images, record.kernels.clone())
    }

    /// The three steps' reports, in the paper's order. Step 3's work
    /// comes from each image's `(nodes visited, triangles tested)`, and
    /// its working set is the triangles and the tree.
    fn reports(
        &self,
        [gather, build]: [WorkCounters; 2],
        stats: &[(u64, u64)],
        bvh: &Bvh,
    ) -> Vec<KernelReport> {
        let mut trace = WorkCounters::new();
        let rays = (self.width * self.height) as u64;
        for &(nodes_visited, tri_tests) in stats {
            trace.tally(rays, 60, 24, 48, 16);
            trace.tally(nodes_visited, 28, 10, 32, 0);
            trace.tally(tri_tests, 52, 38, 80, 0);
        }
        trace.working_set_bytes = gather
            .working_set_bytes
            .saturating_add((bvh.num_nodes() * std::mem::size_of::<BvhNode>()) as u64);
        vec![
            KernelReport::new("rt-gather-faces", KernelClass::GatherScatter, gather),
            KernelReport::new("rt-bvh-build", KernelClass::BvhBuild, build),
            KernelReport::new("rt-trace", KernelClass::RayTraverse, trace),
        ]
    }
}

impl Filter for RayTracer {
    fn name(&self) -> &'static str {
        "Ray Tracing"
    }

    fn execute(&self, input: &DataSet) -> FilterOutput {
        // Step 1: gather triangles / find external faces.
        let (tris, gather) = external_face_triangles(input, &self.field, |_| {});

        // Step 2: build the BVH.
        let (bvh, build) = Bvh::build(&tris);

        // Step 3: trace rays from each orbit camera, colouring each hit.
        let (lo, hi) = filter::scalar_range(input, &self.field);
        let cmap = ColorMap::cool_to_warm();
        let pixel = |ray: &Ray, stats: &mut (u64, u64)| {
            let hit = trace(&bvh, &tris, ray, stats)?;
            let rgba = colour(&hit, tris[hit.tri as usize].scalar, &cmap, lo, hi);
            Some((rgba, hit.depth))
        };
        let size = (self.width, self.height);
        let sum = |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1);
        let rendered = filter::orbit_images(&input.bounds(), self.num_cameras, size, pixel, sum);
        let (images, stats): (Vec<Image>, Vec<_>) = rendered.into_iter().unzip();
        FilterOutput::rendered(images, self.reports([gather, build], &stats, &bvh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizmesh::{Association, Camera, Field, UniformGrid, XorShift};

    fn dataset(n: usize) -> DataSet {
        let grid = UniformGrid::cube_cells(n);
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| grid.point_coord_id(p).x)
            .collect();
        DataSet::uniform(grid).with_field(Field::scalar("f", Association::Points, vals))
    }

    /// The per-cell gather the row walk replaced: every cell visited
    /// and decoded, every face tested.
    fn reference_face_triangles(input: &DataSet, field: &str) -> (Vec<Triangle>, WorkCounters) {
        let grid = input.as_uniform().unwrap();
        let values = input.point_scalars(field).unwrap();
        let dims = grid.cell_dims();
        let mut tris = Vec::new();
        let mut work = WorkCounters::new();
        for c in 0..grid.num_cells() {
            let cell = grid.cell_at(c);
            let ijk = cell.ijk();
            work.tally(1, 22, 0, 64, 0);
            for (slots, axis, high) in CELL_FACES {
                let face = if high { dims[axis] - 1 } else { 0 };
                if ijk[axis] != face {
                    continue;
                }
                let (ids, corners) = (cell.point_ids(), cell.corners());
                let quad_p: [Vec3; 4] = slots.map(|s| corners[s]);
                let quad_v: [f64; 4] = slots.map(|s| values[ids[s]]);
                tris.push(Triangle {
                    p: [quad_p[0], quad_p[1], quad_p[2]],
                    scalar: [quad_v[0], quad_v[1], quad_v[2]],
                });
                tris.push(Triangle {
                    p: [quad_p[0], quad_p[2], quad_p[3]],
                    scalar: [quad_v[0], quad_v[2], quad_v[3]],
                });
                work.tally(2, 48, 6, 128, 144);
            }
        }
        work.working_set_bytes = (tris.len() * std::mem::size_of::<Triangle>()) as u64;
        (tris, work)
    }

    /// The top-down build the in-place one replaced: `u32` ids selected
    /// through a comparator that looks each centroid up, node bounds
    /// from every triangle of the range at every level.
    fn reference_build(tris: &[Triangle]) -> (Bvh, WorkCounters) {
        let mut work = WorkCounters::new();
        let mut order: Vec<u32> = (0..tris.len() as u32).collect();
        let mut nodes: Vec<BvhNode> = Vec::new();
        let mut pending: Vec<(usize, usize, u32, bool)> = Vec::new();
        if !tris.is_empty() {
            pending.push((0, tris.len(), u32::MAX, false));
        }
        while let Some((lo, hi, parent, is_left)) = pending.pop() {
            let mut bounds = Aabb::empty();
            for &t in &order[lo..hi] {
                bounds.union(&tris[t as usize].bounds());
            }
            work.tally((hi - lo) as u64, 30, 18, 72, 8);
            let me = nodes.len() as u32;
            nodes.push(BvhNode {
                bounds,
                a: lo as u32,
                b: hi as u32,
                leaf: true,
            });
            if parent != u32::MAX {
                let p = &mut nodes[parent as usize];
                if is_left {
                    p.a = me;
                } else {
                    p.b = me;
                }
                p.leaf = false;
            }
            if hi - lo <= LEAF_SIZE {
                continue;
            }
            let mut cb = Aabb::empty();
            for &t in &order[lo..hi] {
                cb.grow(tris[t as usize].centroid());
            }
            let axis = cb.longest_axis();
            let mid = (lo + hi) / 2;
            order[lo..hi].select_nth_unstable_by((hi - lo) / 2, |&x, &y| {
                tris[x as usize].centroid()[axis].total_cmp(&tris[y as usize].centroid()[axis])
            });
            work.tally((hi - lo) as u64, 16, 4, 28, 4);
            pending.push((mid, hi, me, false));
            pending.push((lo, mid, me, true));
        }
        work.working_set_bytes =
            (nodes.len() * std::mem::size_of::<BvhNode>() + tris.len() * 4) as u64;
        (Bvh { nodes, order }, work)
    }

    fn bits(v: Vec3) -> [u64; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    fn assert_same_tree(got: &(Bvh, WorkCounters), want: &(Bvh, WorkCounters), what: &str) {
        assert_eq!(got.0.order, want.0.order, "{what}: order");
        assert_eq!(got.0.nodes.len(), want.0.nodes.len(), "{what}: node count");
        for (n, (g, w)) in got.0.nodes.iter().zip(&want.0.nodes).enumerate() {
            assert_eq!(
                (g.a, g.b, g.leaf, bits(g.bounds.min), bits(g.bounds.max)),
                (w.a, w.b, w.leaf, bits(w.bounds.min), bits(w.bounds.max)),
                "{what}: node {n}"
            );
        }
        assert_eq!(got.1, want.1, "{what}: build work");
    }

    /// The build at 1, 4 and 16 threads against the reference.
    fn assert_build_matches_reference(tris: &[Triangle], what: &str) {
        let want = reference_build(tris);
        for threads in [1, 4, 16] {
            let got = par::with_threads(threads, || Bvh::build(tris));
            assert_same_tree(&got, &want, &format!("{what}, {threads} threads"));
        }
    }

    /// `[cx, cy, cz]` cells off the origin with unequal spacings and a
    /// point field that differs at every point.
    fn shell(cell_dims: [usize; 3]) -> DataSet {
        let grid = UniformGrid::from_cell_dims(
            cell_dims,
            Aabb::new(Vec3::new(-0.5, 0.25, 1.0), Vec3::new(1.5, 1.0, 1.75)),
        );
        let vals: Vec<f64> = (0..grid.num_points())
            .map(|p| (p as f64 * 0.37).sin())
            .collect();
        DataSet::uniform(grid).with_field(Field::scalar("f", Association::Points, vals))
    }

    /// The seeded soup of 400 small triangles.
    fn soup(rng: &mut XorShift) -> Vec<Triangle> {
        let mut v3 = |r: f64| Vec3::new(rng.range(-r, r), rng.range(-r, r), rng.range(-r, r));
        (0..400)
            .map(|_| {
                let base = v3(1.0);
                Triangle {
                    p: [base, base + v3(0.2), base + v3(0.2)],
                    scalar: [0.0; 3],
                }
            })
            .collect()
    }

    /// Every pixel's colour and depth, by their bits.
    fn image_bits(img: &Image) -> Vec<[u32; 5]> {
        let (w, h) = (img.width(), img.height());
        let px = |p: usize| {
            let (x, y) = (p % w, p / w);
            let [r, g, b, a] = img.get(x, y).map(f32::to_bits);
            [r, g, b, a, img.depth_at(x, y).to_bits()]
        };
        (0..w * h).map(px).collect()
    }

    /// `shell`'s grid with the point field `f` set to `value(point id)`.
    fn refielded(ds: &DataSet, value: impl Fn(usize) -> f64) -> DataSet {
        let grid = ds.as_uniform().unwrap().clone();
        let vals = (0..grid.num_points()).map(value).collect();
        DataSet::uniform(grid).with_field(Field::scalar("f", Association::Points, vals))
    }

    /// `rt.render(held, data)` against `rt.execute(data)`: the kernel
    /// reports, and every pixel and depth by its bits.
    fn assert_renders_as_execute(
        rt: &RayTracer,
        held: &mut Option<RayRecord>,
        data: &DataSet,
        what: &str,
    ) {
        let (got, want) = (rt.render(held, data), rt.execute(data));
        assert_eq!(got.kernels, want.kernels, "{what}: kernel reports");
        assert!(got.dataset.is_none() && got.primitives.is_empty(), "{what}");
        assert_eq!(got.images.len(), want.images.len(), "{what}");
        for (i, (g, w)) in got.images.iter().zip(&want.images).enumerate() {
            assert!(w.coverage() > 0.1, "{what}: image {i} shows too little");
            assert!(image_bits(g) == image_bits(w), "{what}: image {i}");
        }
    }

    /// Where `held`'s hits live: a render that traces again moves them,
    /// because the old record is alive while the new one is made.
    fn hits_at(held: &Option<RayRecord>) -> *const Vec<Hit> {
        held.as_ref().map_or(std::ptr::null(), |r| r.hits.as_ptr())
    }

    #[test]
    fn a_record_coloured_from_another_field_is_execute_on_that_field() {
        let a = shell([12, 9, 7]);
        let b = refielded(&a, |p| 3.0 * (p as f64 * 0.11).cos() + 1.0);
        let bad = refielded(&a, |p| match p % 7 {
            0 => f64::NAN,
            1 if p % 3 == 0 => f64::INFINITY,
            2 if p % 3 == 0 => f64::NEG_INFINITY,
            _ => (p as f64 * 0.23).sin(),
        });
        // What `RayRecord`'s doc promises a hit pixel costs.
        assert_eq!(std::mem::size_of::<Hit>(), 32);
        // 48 px rows: six rows per `par` chunk, so seven chunks a frame.
        let rt = RayTracer::new("f", 48, 40, 3);
        for threads in [1, 4, 16] {
            par::with_threads(threads, || {
                let mut held = None;
                rt.render(&mut held, &a);
                let recorded = hits_at(&held);
                for (name, field) in [("B", &b), ("non-finite B", &bad)] {
                    let what = format!("{name}, {threads} threads");
                    assert_renders_as_execute(&rt, &mut held, field, &what);
                    assert!(hits_at(&held) == recorded, "{what}: traced again");
                }
            });
        }
    }

    #[test]
    fn render_traces_again_only_for_another_grid_or_image_size() {
        let (origin, spacing) = (Vec3::new(0.0, 0.25, -0.5), Vec3::new(0.125, 0.1, 0.2));
        let on = |dims, origin, spacing, field: &str| {
            let grid = UniformGrid::new(dims, origin, spacing);
            let vals = (0..grid.num_points()).map(|p| (p as f64 * 0.37).sin());
            let field = Field::scalar(field, Association::Points, vals.collect());
            DataSet::uniform(grid).with_field(field)
        };
        let dims = [13, 10, 8];
        let base = on(dims, origin, spacing, "f");
        let rt = RayTracer::new("f", 48, 40, 3);
        // Each changes one input from `base` under `rt`; `true` where the
        // hits depend on it.
        let cases = [
            ("dims", &rt, on([13, 11, 8], origin, spacing, "f"), true),
            (
                "origin",
                &rt,
                on(dims, origin + Vec3::Z, spacing, "f"),
                true,
            ),
            (
                "origin 0.0 → -0.0",
                &rt,
                on(dims, Vec3::new(-0.0, 0.25, -0.5), spacing, "f"),
                true,
            ),
            ("spacing", &rt, on(dims, origin, spacing * 1.5, "f"), true),
            ("width", &RayTracer::new("f", 47, 40, 3), base.clone(), true),
            (
                "height",
                &RayTracer::new("f", 48, 41, 3),
                base.clone(),
                true,
            ),
            (
                "image count",
                &RayTracer::new("f", 48, 40, 2),
                base.clone(),
                true,
            ),
            (
                "field values",
                &rt,
                refielded(&base, |p| (p as f64 * 0.11).cos()),
                false,
            ),
            (
                "field name",
                &RayTracer::new("g", 48, 40, 3),
                on(dims, origin, spacing, "g"),
                false,
            ),
        ];
        for threads in [1, 16] {
            par::with_threads(threads, || {
                for (what, tracer, data, traces) in &cases {
                    let what = format!("{what}, {threads} threads");
                    let mut held = None;
                    assert_renders_as_execute(&rt, &mut held, &base, &what);
                    let recorded = hits_at(&held);
                    assert_renders_as_execute(tracer, &mut held, data, &what);
                    assert_eq!(hits_at(&held) != recorded, *traces, "{what}: traced again");
                }
            });
        }
    }

    #[test]
    fn row_walk_gathers_the_per_cell_triangle_list() {
        for dims in [[1, 1, 1], [1, 5, 3], [4, 1, 6], [5, 7, 9], [24, 24, 24]] {
            let ds = shell(dims);
            let (got, got_work) = external_face_triangles(&ds, "f", |_| {});
            let (want, want_work) = reference_face_triangles(&ds, "f");
            assert_eq!(got.len(), want.len(), "{dims:?}");
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.p.map(bits), w.p.map(bits), "{dims:?}: triangle {t}");
                assert_eq!(
                    g.scalar.map(f64::to_bits),
                    w.scalar.map(f64::to_bits),
                    "{dims:?}: triangle {t}"
                );
            }
            assert_eq!(got_work, want_work, "{dims:?}");
        }
    }

    #[test]
    fn in_place_build_is_the_top_down_build_on_grid_shells() {
        // 24³ is 6912 triangles: the only one here longer than a build
        // task, so the one whose halves are built apart.
        for dims in [[1, 1, 1], [1, 5, 3], [4, 1, 6], [5, 7, 9], [24, 24, 24]] {
            let (tris, _) = external_face_triangles(&shell(dims), "f", |_| {});
            assert_build_matches_reference(&tris, &format!("{dims:?}"));
        }
    }

    #[test]
    fn in_place_build_is_the_top_down_build_on_soups_and_ties() {
        let mut rng = XorShift::from_seed(0x5eed);
        let soup = soup(&mut rng);
        assert_build_matches_reference(&soup, "soup");
        for n in 0..=9 {
            assert_build_matches_reference(&soup[..n], &format!("{n} triangles"));
        }
        // The permutation among equal keys is `select_nth_unstable_by`'s;
        // moving 32-byte items instead of `u32` ids must not change it.
        let identical = vec![soup[0]; 300];
        assert_build_matches_reference(&identical, "identical triangles");
        // Centroids on a line along y: x and z tie everywhere, and y
        // takes each of 11 values some 27 times. Enough of them (9000)
        // to be cut into tasks.
        let line: Vec<Triangle> = (0..9000)
            .map(|i| {
                let base = Vec3::new(0.25, (i % 11) as f64, -1.0);
                Triangle {
                    p: [base, base + Vec3::X, base + Vec3::Z],
                    scalar: [0.0; 3],
                }
            })
            .collect();
        assert_build_matches_reference(&line, "tied centroids");
    }

    #[test]
    fn node_count_is_the_recurrence_and_the_built_length() {
        fn recurrence(n: usize) -> usize {
            match n {
                0 => 0,
                n if n <= LEAF_SIZE => 1,
                n => 1 + recurrence(n / 2) + recurrence(n - n / 2),
            }
        }
        let tri = Triangle {
            p: [Vec3::ZERO, Vec3::X, Vec3::Y],
            scalar: [0.0; 3],
        };
        let tris = vec![tri; 4096];
        for n in 0..=4096 {
            assert_eq!(node_count(n), recurrence(n), "n = {n}");
        }
        for n in (0..=64).chain([100, 1000, 4095, 4096]) {
            assert_eq!(
                Bvh::build(&tris[..n]).0.num_nodes(),
                node_count(n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn external_faces_count_for_cube() {
        let ds = dataset(4);
        let (tris, work) = external_face_triangles(&ds, "f", |_| {});
        // 6 faces × 4×4 cells × 2 triangles.
        assert_eq!(tris.len(), 6 * 16 * 2);
        assert_eq!(work.items, 64 + tris.len() as u64);
    }

    #[test]
    fn moller_trumbore_hit_and_miss() {
        let tri = Triangle {
            p: [Vec3::ZERO, Vec3::X, Vec3::Y],
            scalar: [0.0; 3],
        };
        let hit = tri.intersect(&Ray::new(Vec3::new(0.2, 0.2, 1.0), -Vec3::Z));
        let (t, u, v) = hit.unwrap();
        assert!((t - 1.0).abs() < 1e-12);
        assert!((u - 0.2).abs() < 1e-12 && (v - 0.2).abs() < 1e-12);
        // Miss: outside the triangle.
        assert!(tri
            .intersect(&Ray::new(Vec3::new(0.9, 0.9, 1.0), -Vec3::Z))
            .is_none());
        // Miss: parallel ray.
        assert!(tri
            .intersect(&Ray::new(Vec3::new(0.2, 0.2, 1.0), Vec3::X))
            .is_none());
        // Miss: behind the origin.
        assert!(tri
            .intersect(&Ray::new(Vec3::new(0.2, 0.2, -1.0), -Vec3::Z))
            .is_none());
    }

    #[test]
    fn bvh_finds_same_hit_as_brute_force() {
        let ds = dataset(5);
        let (tris, _) = external_face_triangles(&ds, "f", |_| {});
        let (bvh, _) = Bvh::build(&tris);
        let cam = Camera::framing(&ds.bounds());
        for (x, y) in [(0, 0), (16, 16), (31, 7), (9, 28)] {
            let ray = cam.view(32, 32).ray(x, y);
            let mut stats = (0, 0);
            let fast = bvh.intersect(&tris, &ray, &mut stats).map(|(t, ..)| t);
            let brute = tris
                .iter()
                .filter_map(|tr| tr.intersect(&ray).map(|(t, ..)| t))
                .min_by(f64::total_cmp);
            match (fast, brute) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
                (None, None) => {}
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn bvh_visits_fewer_nodes_than_triangles() {
        let ds = dataset(8);
        let (tris, _) = external_face_triangles(&ds, "f", |_| {});
        let (bvh, _) = Bvh::build(&tris);
        let cam = Camera::framing(&ds.bounds());
        let ray = cam.view(32, 32).ray(16, 16);
        let mut stats = (0u64, 0u64);
        bvh.intersect(&tris, &ray, &mut stats).unwrap();
        assert!(
            stats.1 < tris.len() as u64 / 4,
            "tested {} of {} triangles",
            stats.1,
            tris.len()
        );
    }

    #[test]
    fn render_covers_center_of_image() {
        let ds = dataset(4);
        let rt = RayTracer::new("f", 32, 32, 2);
        let out = rt.execute(&ds);
        assert_eq!(out.images.len(), 2);
        for img in &out.images {
            // The cube fills the middle of the frame.
            assert!(img.get(16, 16)[3] > 0.0, "center pixel empty");
            assert!(img.coverage() > 0.1 && img.coverage() < 0.9);
        }
    }

    #[test]
    fn kernel_order_matches_paper_steps() {
        let ds = dataset(3);
        let out = RayTracer::new("f", 8, 8, 1).execute(&ds);
        let classes: Vec<_> = out.kernels.iter().map(|k| k.class).collect();
        assert_eq!(
            classes,
            vec![
                KernelClass::GatherScatter,
                KernelClass::BvhBuild,
                KernelClass::RayTraverse
            ]
        );
    }

    #[test]
    fn empty_bvh_misses_everything() {
        let (bvh, _) = Bvh::build(&[]);
        let mut stats = (0, 0);
        assert!(bvh
            .intersect(&[], &Ray::new(Vec3::ZERO, Vec3::X), &mut stats)
            .is_none());
    }

    #[test]
    fn iterative_bvh_matches_brute_force_on_random_scene() {
        // A seeded soup of 400 small triangles: enough to force several
        // levels of median splits and exercise the explicit-stack
        // traversal against the O(n) oracle.
        let mut rng = XorShift::from_seed(0x5eed);
        let tris = soup(&mut rng);
        let (bvh, _) = Bvh::build(&tris);
        let mut rays_hit = 0;
        for i in 0..64 {
            let origin = Vec3::new(rng.range(-2.0, 2.0), rng.range(-2.0, 2.0), 2.0);
            let target = Vec3::new(
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
            );
            let ray = Ray::new(origin, (target - origin).normalized());
            let mut stats = (0, 0);
            let fast = bvh.intersect(&tris, &ray, &mut stats);
            let brute = tris
                .iter()
                .enumerate()
                .filter_map(|(ti, tr)| tr.intersect(&ray).map(|(t, u, v)| (t, ti as u32, u, v)))
                .min_by(|a, b| a.0.total_cmp(&b.0));
            match (fast, brute) {
                (Some((ta, ia, ..)), Some((tb, ib, ..))) => {
                    assert!((ta - tb).abs() < 1e-12, "ray {i}: t {ta} vs {tb}");
                    assert_eq!(ia, ib, "ray {i}: different nearest triangle");
                    rays_hit += 1;
                }
                (None, None) => {}
                other => panic!("ray {i} mismatch: {other:?}"),
            }
        }
        assert!(rays_hit > 10, "only {rays_hit} rays hit — scene too sparse");
    }
}
