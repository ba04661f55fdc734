//! Chord extraction: tracing one ray through a collection of boxes.
//!
//! Given the fin boxes of an SRAM array and a particle ray, [`trace_boxes`]
//! returns every crossing ordered by entry parameter. The transport layer
//! then walks these crossings in order, degrading the particle energy and
//! depositing charge fin by fin — exactly the "simple 3-D analysis" of the
//! paper's Section 5.1. [`BoxIndex`] returns the same crossings from a
//! uniform xy bucket grid, testing only the boxes near the ray: each box is
//! listed once, in the bin of its min corner, and a query reads one slice
//! of boxes per grid row of the ray's bounding rectangle, widened on its
//! low side by the largest box extent. Min-corner binning plus that
//! widening, with a monotone bin lookup, covers every box whose footprint
//! meets the padded rectangle, so the crossings are exact.

use crate::{Aabb, Ray, RayHit, SlabRay};
use finrad_units::Length;
use std::ops::RangeInclusive;

/// One ray/box crossing, tagged with the index of the box that was hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// Index of the box in the traced collection.
    pub index: usize,
    /// Parametric interval of the crossing.
    pub hit: RayHit,
}

impl Crossing {
    /// Chord length through the box, as a typed length.
    pub fn chord(&self) -> Length {
        Length::from_meters(self.hit.chord_length())
    }
}

/// Traces `ray` through `boxes`, returning all crossings sorted by entry
/// parameter (ties broken by box index, so the result is deterministic).
///
/// This is a linear scan that slab-tests every box. It is the reference
/// [`BoxIndex::trace`] is pinned against. The paper's 9×9 array has 486
/// fin boxes, and a strike ray crosses only a handful of them. The
/// bucketed index traces the same rays with bit-identical crossings,
/// testing only the few boxes near the ray (see docs/performance.md).
///
/// # Examples
///
/// ```
/// use finrad_geometry::{Aabb, Ray, Vec3};
/// use finrad_geometry::trace::trace_boxes;
///
/// let boxes = vec![
///     Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0)),
///     Aabb::new(Vec3::new(2.0, 0.0, 0.0), Vec3::new(3.0, 1.0, 1.0)),
/// ];
/// let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
/// let crossings = trace_boxes(&ray, &boxes);
/// assert_eq!(crossings.len(), 2);
/// assert_eq!(crossings[0].index, 0);
/// assert_eq!(crossings[1].index, 1);
/// ```
pub fn trace_boxes(ray: &Ray, boxes: &[Aabb]) -> Vec<Crossing> {
    let mut out = Vec::new();
    crossings_into(&SlabRay::new(ray), boxes.iter().enumerate(), &mut out);
    out
}

/// The one crossing routine: slab-tests each `(index, box)` candidate
/// against the prepared ray and leaves the hits in `out`, ordered by
/// `(t_enter, index)`. The indices must be distinct, which makes that key
/// a strict order: the in-place unstable sort then has one possible
/// result.
fn crossings_into<'b>(
    ray: &SlabRay,
    candidates: impl Iterator<Item = (usize, &'b Aabb)>,
    out: &mut Vec<Crossing>,
) {
    out.clear();
    out.extend(candidates.filter_map(|(index, b)| {
        b.intersect_slabs(ray)
            .and_then(|hit| (hit.chord_length() > 0.0).then_some(Crossing { index, hit }))
    }));
    out.sort_unstable_by(|a, b| {
        a.hit
            .t_enter
            .total_cmp(&b.hit.t_enter)
            .then(a.index.cmp(&b.index))
    });
}

/// Total chord length the ray cuts through all boxes.
pub fn total_chord(ray: &Ray, boxes: &[Aabb]) -> Length {
    trace_boxes(ray, boxes).iter().map(Crossing::chord).sum()
}

/// Padding, relative to the coordinate magnitudes in play, added to every
/// xy range before it is mapped to bins. Rounding in the slab test and in
/// `Ray::at` is ~1e-16 relative, so 1e-9 keeps every bin lookup
/// conservative while widening a bin by a negligible sliver.
const PAD_REL: f64 = 1.0e-9;

/// Caller-owned storage for [`BoxIndex::trace_into`]: the candidate boxes
/// and the crossings of the last traced ray. Keeping one per worker makes
/// tracing allocation-free once the buffers have grown to the largest ray
/// seen; each trace overwrites both, so what a previous ray left behind
/// never reaches the result.
#[derive(Debug, Clone, Default)]
pub struct TraceScratch {
    candidates: Vec<usize>,
    crossings: Vec<Crossing>,
}

/// A fixed box set under a uniform xy bucket grid: the production ray
/// tracer.
///
/// The grid spans the union of the boxes with `⌈√n⌉` bins per axis, and
/// each box is listed once, in the bin holding its min corner. A query
/// clips the ray to the union box and takes the xy bounding rectangle of
/// the clipped segment, widened on its low side by the largest box extent
/// in each axis and padded on both sides. Each grid row of that rectangle
/// is one contiguous run of the row-major bin lists; the boxes there are
/// slab-tested through the same routine as [`trace_boxes`].
///
/// Exactness: clipping is exact — a box's slab interval always lies
/// inside the union's, bit for bit — so a box the ray crosses meets the
/// clipped segment, and its footprint meets the segment's rectangle. Its
/// min corner then lies at most one largest extent below that rectangle,
/// inside the widened one; the padding absorbs the rounding, and the bin
/// lookup is monotone, so its bin is in the queried range. Extra
/// candidates only cost a slab test, so [`BoxIndex::trace`] returns
/// exactly `trace_boxes(ray, boxes)`.
///
/// # Examples
///
/// ```
/// use finrad_geometry::{Aabb, Ray, Vec3};
/// use finrad_geometry::trace::{trace_boxes, BoxIndex, TraceScratch};
///
/// let boxes: Vec<Aabb> = (0..50)
///     .map(|i| Aabb::from_min_size(Vec3::new(i as f64 * 2.0, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0)))
///     .collect();
/// let index = BoxIndex::new(boxes.clone());
/// let ray = Ray::new(Vec3::new(10.5, 0.5, 2.0), Vec3::new(0.3, 0.0, -1.0));
/// assert_eq!(index.trace(&ray), trace_boxes(&ray, &boxes));
///
/// let mut scratch = TraceScratch::default();
/// assert_eq!(index.trace_into(&ray, &mut scratch), &trace_boxes(&ray, &boxes)[..]);
/// ```
#[derive(Debug, Clone)]
pub struct BoxIndex {
    boxes: Vec<Aabb>,
    /// Union of all boxes; `None` for an empty set.
    bounds: Option<Aabb>,
    /// The union's largest xy coordinate magnitude (0 for an empty set).
    magnitude: f64,
    x: Axis,
    y: Axis,
    /// The largest box extent in x and in y.
    extent: (f64, f64),
    /// Bin `row * x.bins + col` lists `items[start[bin]..start[bin + 1]]`.
    start: Vec<usize>,
    items: Vec<usize>,
}

impl BoxIndex {
    /// Builds the grid over `boxes`; the resolution follows from the box
    /// count and their union.
    pub fn new(boxes: Vec<Aabb>) -> Self {
        let bounds = boxes.iter().copied().reduce(|a, b| a.union(&b));
        let per_axis = (boxes.len() as f64).sqrt().ceil() as usize;
        let (x, y) = match bounds {
            Some(u) => (
                Axis::new(u.min.x, u.max.x, per_axis),
                Axis::new(u.min.y, u.max.y, per_axis),
            ),
            None => (Axis::new(0.0, 0.0, 1), Axis::new(0.0, 0.0, 1)),
        };
        let magnitude = bounds.map_or(0.0, |u| xy_magnitude(&u));
        let extent = boxes.iter().fold((0.0f64, 0.0f64), |(ex, ey), b| {
            (ex.max(b.max.x - b.min.x), ey.max(b.max.y - b.min.y))
        });
        let bin_of = |b: &Aabb| y.bin(b.min.y) * x.bins + x.bin(b.min.x);

        // Counting sort, one entry per box: count, prefix-sum, fill.
        let mut start = vec![0usize; x.bins * y.bins + 1];
        for b in &boxes {
            start[bin_of(b) + 1] += 1;
        }
        for bin in 1..start.len() {
            start[bin] += start[bin - 1];
        }
        let mut fill = start.clone();
        let mut items = vec![0usize; boxes.len()];
        for (index, b) in boxes.iter().enumerate() {
            let slot = &mut fill[bin_of(b)];
            items[*slot] = index;
            *slot += 1;
        }
        Self {
            boxes,
            bounds,
            magnitude,
            x,
            y,
            extent,
            start,
            items,
        }
    }

    /// Traces `ray` through the boxes: the same crossings, in the same
    /// order and to the bit, as [`trace_boxes`] over the boxes the index
    /// was built from. Allocates fresh buffers; hot loops keep a
    /// [`TraceScratch`] and call [`BoxIndex::trace_into`].
    pub fn trace(&self, ray: &Ray) -> Vec<Crossing> {
        let mut scratch = TraceScratch::default();
        self.trace_into(ray, &mut scratch);
        scratch.crossings
    }

    /// [`BoxIndex::trace`] into caller-owned buffers: the crossings are
    /// returned from, and left in, `scratch`. The ray's reciprocal
    /// direction is computed once and shared by the union clip and every
    /// candidate's slab test.
    pub fn trace_into<'s>(&self, ray: &Ray, scratch: &'s mut TraceScratch) -> &'s [Crossing] {
        let slabs = SlabRay::new(ray);
        self.candidates_into(ray, &slabs, &mut scratch.candidates);
        crossings_into(
            &slabs,
            scratch.candidates.iter().map(|&i| (i, &self.boxes[i])),
            &mut scratch.crossings,
        );
        &scratch.crossings
    }

    /// Fills `out` with the indices of the boxes whose min corner lies in
    /// the widened bounding rectangle of the ray's xy segment through the
    /// union box, one grid row at a time. Every box is listed in one bin
    /// and every bin is visited once, so no index repeats; the crossing
    /// sort fixes the final order.
    fn candidates_into(&self, ray: &Ray, slabs: &SlabRay, out: &mut Vec<usize>) {
        out.clear();
        let Some(hit) = self.bounds.and_then(|u| u.intersect_slabs(slabs)) else {
            return;
        };
        let (p0, p1) = (ray.at(hit.t_enter), ray.at(hit.t_exit));
        // Positions along the ray round relative to the origin's and the
        // travelled distance's magnitude as well as the grid's.
        let o = ray.origin();
        let reach = self.magnitude.max(o.x.abs().max(o.y.abs())).max(hit.t_exit);
        let pad = PAD_REL * reach;

        let (ex, ey) = self.extent;
        let cols = self.x.bins_over(p0.x.min(p1.x) - ex, p0.x.max(p1.x), pad);
        let rows = self.y.bins_over(p0.y.min(p1.y) - ey, p0.y.max(p1.y), pad);
        for row in rows {
            let bin = row * self.x.bins;
            let run = self.start[bin + cols.start()]..self.start[bin + cols.end() + 1];
            out.extend_from_slice(&self.items[run]);
        }
    }
}

/// One axis of the bucket grid: `bins` equal bins from `min`.
#[derive(Debug, Clone, Copy)]
struct Axis {
    min: f64,
    /// `1 / bin size`, or 0 for a degenerate (zero-extent) axis with one
    /// bin.
    inv_size: f64,
    bins: usize,
}

impl Axis {
    fn new(min: f64, max: f64, bins: usize) -> Self {
        let extent = max - min;
        if extent > 0.0 && bins > 1 {
            Self {
                min,
                inv_size: bins as f64 / extent,
                bins,
            }
        } else {
            Self {
                min,
                inv_size: 0.0,
                bins: 1,
            }
        }
    }

    /// The bin holding coordinate `v`, clamped into the grid. The
    /// saturating cast truncates, which equals `floor` on `[0, bins - 1)`,
    /// and sends NaN and everything below 0 to bin 0 and everything from
    /// `bins - 1` up (+∞ included) to the last bin: the same bin as
    /// clamping `floor` for every input.
    fn bin(&self, v: f64) -> usize {
        (((v - self.min) * self.inv_size) as usize).min(self.bins - 1)
    }

    /// The bins overlapping `[lo - pad, hi + pad]`.
    fn bins_over(&self, lo: f64, hi: f64, pad: f64) -> RangeInclusive<usize> {
        self.bin(lo - pad)..=self.bin(hi + pad)
    }
}

/// The largest xy coordinate magnitude of `b`: the scale rounding in
/// positions near the box is relative to.
fn xy_magnitude(b: &Aabb) -> f64 {
    b.min
        .x
        .abs()
        .max(b.max.x.abs())
        .max(b.min.y.abs())
        .max(b.max.y.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sampling, Vec3};
    use finrad_numerics::rng::{Rng, Xoshiro256pp};

    fn row_of_boxes(n: usize, pitch: f64, size: f64) -> Vec<Aabb> {
        (0..n)
            .map(|i| {
                Aabb::from_min_size(
                    Vec3::new(i as f64 * pitch, 0.0, 0.0),
                    Vec3::new(size, 1.0, 1.0),
                )
            })
            .collect()
    }

    /// The paper's 9×9 fin layout: 192 nm × 140 nm cells of six 8 nm ×
    /// 20 nm × 30 nm fin segments, mirrored on odd rows and columns.
    fn fin_layout() -> Vec<Aabb> {
        let (fp, gp, w, l, h) = (48e-9, 70e-9, 8e-9, 20e-9, 30e-9);
        let (cell_w, cell_d) = (4.0 * fp, 2.0 * gp);
        let sites = [(0, 0), (0, 1), (1, 0), (2, 1), (3, 1), (3, 0)];
        let mut boxes = Vec::new();
        for row in 0..9 {
            for col in 0..9 {
                for &(fin, gate) in &sites {
                    let mut x = (fin as f64 + 0.5) * fp - 0.5 * w;
                    let mut y = (gate as f64 + 0.5) * gp - 0.5 * l;
                    if col % 2 == 1 {
                        x = cell_w - x - w;
                    }
                    if row % 2 == 1 {
                        y = cell_d - y - l;
                    }
                    boxes.push(Aabb::from_min_size(
                        Vec3::new(col as f64 * cell_w + x, row as f64 * cell_d + y, 0.0),
                        Vec3::new(w, l, h),
                    ));
                }
            }
        }
        boxes
    }

    fn union(boxes: &[Aabb]) -> Aabb {
        boxes.iter().copied().reduce(|a, b| a.union(&b)).unwrap()
    }

    /// Asserts `got` is `want` bit for bit: same boxes in the same order,
    /// and the same `t_enter`/`t_exit` bits (`==` would let `-0.0` pass
    /// for `0.0`).
    fn assert_same_bits(got: &[Crossing], want: &[Crossing], ray: &Ray) {
        let bits = |c: &[Crossing]| -> Vec<(usize, u64, u64)> {
            c.iter()
                .map(|c| (c.index, c.hit.t_enter.to_bits(), c.hit.t_exit.to_bits()))
                .collect()
        };
        assert_eq!(bits(got), bits(want), "{ray:?}");
    }

    /// Asserts the indexed trace equals the linear scan for `n` rays drawn
    /// by `ray`, returning the mean candidate count per ray. Both index
    /// paths are checked: the allocating `trace`, and `trace_into` with one
    /// scratch reused across all `n` rays, so anything a ray leaves behind
    /// in the buffers would show up in the next ray's crossings. Each
    /// candidate list must hold every index at most once: the index lists
    /// a box in one bin and visits each bin once, and nothing filters.
    fn assert_matches_scan(
        boxes: &[Aabb],
        n: usize,
        seed: u64,
        mut ray: impl FnMut(&mut Xoshiro256pp) -> Ray,
    ) -> f64 {
        let index = BoxIndex::new(boxes.to_vec());
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut scratch = TraceScratch::default();
        let mut candidates = 0;
        for _ in 0..n {
            let r = ray(&mut rng);
            let want = trace_boxes(&r, boxes);
            assert_same_bits(index.trace_into(&r, &mut scratch), &want, &r);
            assert_same_bits(&index.trace(&r), &want, &r);
            let mut distinct = scratch.candidates.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), scratch.candidates.len(), "{r:?}");
            candidates += scratch.candidates.len();
        }
        candidates as f64 / n as f64
    }

    /// The candidate list `trace_into` leaves for `ray`.
    fn candidates(index: &BoxIndex, ray: &Ray) -> Vec<usize> {
        let mut scratch = TraceScratch::default();
        index.trace_into(ray, &mut scratch);
        scratch.candidates
    }

    fn pick_index(rng: &mut Xoshiro256pp, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    const RAYS_PER_SHAPE: usize = 100_000;

    #[test]
    fn index_matches_scan_cosine_rays_from_top_face() {
        let boxes = fin_layout();
        let top = union(&boxes);
        let mean = assert_matches_scan(&boxes, RAYS_PER_SHAPE, 1, |rng| {
            let launch = sampling::point_on_top_face(rng, &top);
            Ray::new(launch, sampling::cosine_law_hemisphere(rng))
        });
        // The point of the index: a handful of candidates, not 486.
        assert!(mean < 10.0, "mean candidates per ray {mean}");
    }

    /// A downward isotropic ray launched from the top face of `top`.
    fn downward_isotropic(rng: &mut Xoshiro256pp, top: &Aabb) -> Ray {
        let launch = sampling::point_on_top_face(rng, top);
        let mut d = sampling::isotropic_direction(rng);
        d.z = -d.z.abs().max(1e-6);
        Ray::new(launch, d)
    }

    #[test]
    fn index_matches_scan_downward_isotropic_rays() {
        let boxes = fin_layout();
        let top = union(&boxes);
        let mean = assert_matches_scan(&boxes, RAYS_PER_SHAPE, 2, |rng| {
            downward_isotropic(rng, &top)
        });
        // Grazing rays widen the query rectangle the most; ~6 candidates
        // on average, far from gathering the whole array.
        assert!(mean < 10.0, "mean candidates per ray {mean}");
    }

    #[test]
    fn index_matches_scan_with_one_box_covering_the_grid() {
        // One thin plate spans the whole grid among small boxes: the
        // largest extent is the grid itself, so every query widens to the
        // grid's low edge.
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut boxes: Vec<Aabb> = (0..150)
            .map(|_| {
                let min = Vec3::new(
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..0.2),
                );
                Aabb::from_min_size(min, Vec3::new(0.02, 0.03, 0.05))
            })
            .collect();
        boxes.insert(
            60,
            Aabb::new(Vec3::new(-0.5, -0.5, 0.1), Vec3::new(1.5, 1.5, 0.11)),
        );
        let u = union(&boxes);
        assert_matches_scan(&boxes, 20_000, 8, |rng| downward_isotropic(rng, &u));
        assert_matches_scan(&boxes, 20_000, 9, |rng| {
            Ray::new(
                sampling::point_in_box(rng, &u),
                sampling::isotropic_direction(rng),
            )
        });
    }

    #[test]
    fn index_matches_scan_on_boxes_wider_than_a_bin_in_one_axis() {
        // Strips long in x and thin in y, strips long in y and thin in x,
        // and small cubes: ~11 bins per axis, so a 0.6-long strip spans
        // several bins along one axis and lies inside one along the other.
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let boxes: Vec<Aabb> = (0..120)
            .map(|i| {
                let min = Vec3::new(
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..0.2),
                );
                let size = match i % 3 {
                    0 => Vec3::new(0.6, 0.004, 0.05),
                    1 => Vec3::new(0.004, 0.6, 0.05),
                    _ => Vec3::new(0.01, 0.01, 0.05),
                };
                Aabb::from_min_size(min, size)
            })
            .collect();
        let u = union(&boxes);
        assert_matches_scan(&boxes, 30_000, 12, |rng| downward_isotropic(rng, &u));
        assert_matches_scan(&boxes, 30_000, 13, |rng| {
            Ray::new(
                sampling::point_in_box(rng, &u),
                sampling::isotropic_direction(rng),
            )
        });
    }

    #[test]
    fn index_matches_scan_on_fins_at_negative_coordinates() {
        // The fin layout moved wholly below zero in x, y and z: the grid
        // origin is negative and every bin lookup subtracts it.
        let shift = Vec3::new(-5e-6, -4e-6, -1e-7);
        let boxes: Vec<Aabb> = fin_layout()
            .iter()
            .map(|b| Aabb::new(b.min_corner() + shift, b.max_corner() + shift))
            .collect();
        let top = union(&boxes);
        assert!(top.max.x < 0.0 && top.max.y < 0.0);
        let mean = assert_matches_scan(&boxes, 50_000, 14, |rng| {
            let launch = sampling::point_on_top_face(rng, &top);
            Ray::new(launch, sampling::cosine_law_hemisphere(rng))
        });
        assert!(mean < 10.0, "mean candidates per ray {mean}");
        assert_matches_scan(&boxes, 50_000, 15, |rng| downward_isotropic(rng, &top));
    }

    #[test]
    fn index_matches_scan_with_two_identical_boxes() {
        // A fin listed twice: both copies land in the same bin, both are
        // crossed, and the index tie-break orders them.
        let mut boxes = fin_layout();
        let twin = boxes[40];
        boxes.push(twin);
        let top = union(&boxes);
        assert_matches_scan(&boxes, 50_000, 16, |rng| {
            let launch = sampling::point_on_top_face(rng, &top);
            Ray::new(launch, sampling::cosine_law_hemisphere(rng))
        });
        let c = twin.center();
        let down = Ray::new(Vec3::new(c.x, c.y, top.max.z), Vec3::new(0.0, 0.0, -1.0));
        let order: Vec<usize> = BoxIndex::new(boxes.clone())
            .trace(&down)
            .iter()
            .map(|c| c.index)
            .collect();
        assert_eq!(order, vec![40, boxes.len() - 1]);
    }

    #[test]
    fn index_matches_scan_isotropic_rays_from_interior_origins() {
        // `trace` accepts any origin: rays born anywhere in a volume around
        // the array, including inside fins, flying in any direction.
        let boxes = fin_layout();
        let u = union(&boxes);
        let volume = Aabb::new(
            u.min_corner() - Vec3::new(2e-6, 2e-6, 0.0),
            u.max_corner() + Vec3::new(2e-6, 2e-6, 1e-6),
        );
        assert_matches_scan(&boxes, RAYS_PER_SHAPE, 3, |rng| {
            let origin = if rng.gen_range(0.0..1.0) < 0.5 {
                sampling::point_in_box(rng, &u)
            } else {
                sampling::point_in_box(rng, &volume)
            };
            Ray::new(origin, sampling::isotropic_direction(rng))
        });
    }

    #[test]
    fn index_matches_scan_axis_parallel_rays_on_faces_and_edges() {
        // Origins on box faces, edges and corners, directions along ±x,
        // ±y, ±z: the slab test's boundary and parallel cases.
        let boxes = fin_layout();
        let u = union(&boxes);
        let axes = [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, -1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(0.0, 0.0, -1.0),
        ];
        let pick =
            |rng: &mut Xoshiro256pp, lo: f64, hi: f64, span: (f64, f64)| match rng.next_u64() % 4 {
                0 => lo,
                1 => hi,
                2 => 0.5 * (lo + hi),
                _ => rng.gen_range(span.0..span.1),
            };
        assert_matches_scan(&boxes, RAYS_PER_SHAPE, 4, |rng| {
            let b = boxes[pick_index(rng, boxes.len())];
            let (lo, hi) = (b.min_corner(), b.max_corner());
            let mut o = Vec3::new(
                pick(rng, lo.x, hi.x, (u.min.x, u.max.x)),
                pick(rng, lo.y, hi.y, (u.min.y, u.max.y)),
                pick(rng, lo.z, hi.z, (u.min.z, u.max.z)),
            );
            let d = axes[pick_index(rng, axes.len())];
            // Start outside the union along the travel axis half the time.
            if rng.gen_range(0.0..1.0) < 0.5 {
                o = o - d * 3e-6;
            }
            Ray::new(o, d)
        });
    }

    #[test]
    fn index_matches_scan_on_rays_that_miss() {
        // Outside starts: beside the array pointing away, above it pointing
        // up, and below the fins pointing down.
        let boxes = fin_layout();
        let u = union(&boxes);
        let index = BoxIndex::new(boxes.clone());
        let c = u.center();
        let rays = [
            Ray::new(
                Vec3::new(u.min.x - 1e-7, c.y, c.z),
                Vec3::new(-1.0, 0.2, 0.0),
            ),
            Ray::new(
                Vec3::new(c.x, c.y, u.max.z + 1e-7),
                Vec3::new(0.1, 0.1, 1.0),
            ),
            Ray::new(
                Vec3::new(c.x, c.y, u.min.z - 1e-9),
                Vec3::new(0.0, 0.3, -1.0),
            ),
            Ray::new(Vec3::new(-1.0, -1.0, 1.0), Vec3::new(0.0, 0.0, -1.0)),
        ];
        for r in &rays {
            assert!(trace_boxes(r, &boxes).is_empty());
            assert!(index.trace(r).is_empty());
            assert!(candidates(&index, r).is_empty(), "{r:?}");
        }
    }

    #[test]
    fn index_matches_scan_on_overlapping_and_degenerate_boxes() {
        // Random overlapping boxes of very different sizes, plus zero-
        // thickness plates in each axis.
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut boxes: Vec<Aabb> = (0..200)
            .map(|_| {
                let min = Vec3::new(
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..0.2),
                );
                let s = 10f64.powf(rng.gen_range(-3.0..-0.5));
                Aabb::from_min_size(min, Vec3::new(s, s * rng.gen_range(0.2..5.0), s))
            })
            .collect();
        boxes.push(Aabb::from_min_size(
            Vec3::new(0.3, 0.3, 0.1),
            Vec3::new(0.0, 0.2, 0.1),
        ));
        boxes.push(Aabb::from_min_size(
            Vec3::new(0.5, 0.5, 0.1),
            Vec3::new(0.2, 0.0, 0.1),
        ));
        boxes.push(Aabb::from_min_size(
            Vec3::new(0.6, 0.1, 0.05),
            Vec3::new(0.2, 0.2, 0.0),
        ));
        let u = union(&boxes);
        assert_matches_scan(&boxes, 20_000, 6, |rng| {
            Ray::new(
                sampling::point_in_box(rng, &u),
                sampling::isotropic_direction(rng),
            )
        });
        // A ray lying in the zero-thickness plate's plane crosses it.
        let plate = Ray::new(Vec3::new(0.3, 0.0, 0.15), Vec3::new(0.0, 1.0, 0.0));
        let index = BoxIndex::new(boxes.clone());
        assert!(index.trace(&plate).iter().any(|c| c.index == 200));
        assert_eq!(index.trace(&plate), trace_boxes(&plate, &boxes));
    }

    #[test]
    fn index_of_no_boxes_traces_nothing() {
        let index = BoxIndex::new(Vec::new());
        let ray = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        assert!(index.trace(&ray).is_empty());
        assert!(candidates(&index, &ray).is_empty());
    }

    #[test]
    fn index_of_one_flat_box_at_the_origin() {
        // Zero extent in x and y: a one-bin grid and a zero padding.
        let boxes = vec![Aabb::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0))];
        let index = BoxIndex::new(boxes.clone());
        let ray = Ray::new(Vec3::new(0.0, 0.0, 2.0), Vec3::new(0.0, 0.0, -1.0));
        assert_eq!(index.trace(&ray).len(), 1);
        assert_eq!(index.trace(&ray), trace_boxes(&ray, &boxes));
    }

    #[test]
    fn bin_truncation_matches_clamped_floor() {
        // The bin lookup casts instead of flooring. Reference: the floor
        // lookup it replaced, on grids of 1 (degenerate), 1 and 23 bins,
        // across integers and their neighbouring floats, signed zeros,
        // subnormals, huge values, infinities and NaN.
        fn floor_bin(axis: &Axis, v: f64) -> usize {
            let f = ((v - axis.min) * axis.inv_size).floor();
            if f >= (axis.bins - 1) as f64 {
                axis.bins - 1
            } else if f > 0.0 {
                f as usize
            } else {
                0
            }
        }
        let axes = [
            Axis::new(0.0, 0.0, 1),
            Axis::new(-1.0, 3.0, 1),
            Axis::new(0.0, 23.0, 23),
            Axis::new(-1.7e-6, 2.3e-6, 23),
        ];
        let mut values = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e30,
            -1e30,
        ];
        for axis in &axes {
            let size = if axis.inv_size > 0.0 {
                1.0 / axis.inv_size
            } else {
                0.0
            };
            for k in -3..=(axis.bins as i64 + 3) {
                let v = axis.min + k as f64 * size;
                values.extend([v, v.next_down(), v.next_up()]);
                let u = k as f64;
                values.extend([u, u.next_down(), u.next_up()]);
            }
        }
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        values.extend((0..10_000).map(|_| rng.gen_range(-30.0..30.0)));
        values.extend((0..10_000).map(|_| rng.gen_range(-3e-6..3e-6)));
        for axis in &axes {
            for &v in &values {
                assert_eq!(axis.bin(v), floor_bin(axis, v), "{axis:?} at {v:e}");
            }
        }
    }

    #[test]
    fn crossings_sorted_by_entry() {
        let boxes = row_of_boxes(5, 2.0, 1.0);
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
        let crossings = trace_boxes(&ray, &boxes);
        assert_eq!(crossings.len(), 5);
        for (i, c) in crossings.iter().enumerate() {
            assert_eq!(c.index, i);
            assert!((c.chord().meters() - 1.0).abs() < 1e-12);
        }
        assert!(crossings
            .windows(2)
            .all(|w| w[0].hit.t_enter <= w[1].hit.t_enter));
    }

    #[test]
    fn reverse_ray_reverses_order() {
        let boxes = row_of_boxes(3, 2.0, 1.0);
        let ray = Ray::new(Vec3::new(10.0, 0.5, 0.5), Vec3::new(-1.0, 0.0, 0.0));
        let crossings = trace_boxes(&ray, &boxes);
        let order: Vec<usize> = crossings.iter().map(|c| c.index).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn miss_everything() {
        let boxes = row_of_boxes(4, 2.0, 1.0);
        let ray = Ray::new(Vec3::new(0.0, 5.0, 0.5), Vec3::new(1.0, 0.0, 0.0));
        assert!(trace_boxes(&ray, &boxes).is_empty());
        assert_eq!(total_chord(&ray, &boxes).meters(), 0.0);
    }

    #[test]
    fn partial_hits() {
        let boxes = row_of_boxes(4, 2.0, 1.0);
        // Steep diagonal ray that only clips the first two boxes.
        let ray = Ray::new(Vec3::new(0.5, 0.5, 2.0), Vec3::new(1.0, 0.0, -1.0));
        let crossings = trace_boxes(&ray, &boxes);
        assert!(!crossings.is_empty() && crossings.len() < 4);
    }

    #[test]
    fn total_chord_sums() {
        let boxes = row_of_boxes(3, 3.0, 2.0);
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
        assert!((total_chord(&ray, &boxes).meters() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_boxes_both_reported() {
        let boxes = vec![
            Aabb::from_min_size(Vec3::ZERO, Vec3::new(2.0, 1.0, 1.0)),
            Aabb::from_min_size(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0)),
        ];
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
        let crossings = trace_boxes(&ray, &boxes);
        assert_eq!(crossings.len(), 2);
    }

    #[test]
    fn empty_collection() {
        let ray = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        assert!(trace_boxes(&ray, &[]).is_empty());
    }
}
