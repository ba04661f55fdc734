//! The 3-D SRAM memory-array model.
//!
//! Tiles the single-cell layout of `finrad-sram` into a rows×cols array
//! (the paper evaluates 9×9 — "large enough to obtain a realistic ratio
//! for MBU vs. SEU"), mirroring alternate rows and columns the way real
//! SRAM floorplans do (shared wells and contacts). Each cell holds a data
//! value from the configured pattern; each of its six gated fin segments
//! is a sensitive box tagged with the strike target it realizes (or none,
//! for ON devices).

use finrad_finfet::Technology;
use finrad_geometry::trace::{BoxIndex, Crossing, TraceScratch};
use finrad_geometry::{Aabb, Ray, Vec3};
use finrad_sram::layout::CellLayout;
use finrad_sram::{CellState, StrikeTarget, TransistorRole};
use finrad_units::Area;

/// The data pattern stored in the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataPattern {
    /// Alternating 0/1 in both directions (the physical-design default for
    /// SER testing).
    #[default]
    Checkerboard,
    /// Every cell holds 1.
    AllOnes,
    /// Every cell holds 0.
    AllZeros,
}

impl DataPattern {
    /// The state of the cell at `(row, col)`.
    pub fn state(self, row: usize, col: usize) -> CellState {
        match self {
            DataPattern::Checkerboard => {
                if (row + col).is_multiple_of(2) {
                    CellState::One
                } else {
                    CellState::Zero
                }
            }
            DataPattern::AllOnes => CellState::One,
            DataPattern::AllZeros => CellState::Zero,
        }
    }
}

/// One sensitive fin segment placed in array coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitiveFin {
    /// The box in array coordinates (metres).
    pub aabb: Aabb,
    /// Index of the owning cell (`row * cols + col`).
    pub cell: usize,
    /// Which transistor this segment belongs to.
    pub role: TransistorRole,
    /// The strike target it realizes given the cell's stored state, or
    /// `None` if the device is not radiation-sensitive in that state.
    pub target: Option<StrikeTarget>,
}

/// A tiled rows×cols SRAM array.
///
/// # Examples
///
/// ```
/// use finrad_core::array::{DataPattern, MemoryArray};
/// use finrad_finfet::Technology;
///
/// let array = MemoryArray::build(&Technology::soi_finfet_14nm(), 9, 9, DataPattern::Checkerboard);
/// assert_eq!(array.cell_count(), 81);
/// assert_eq!(array.fins().len(), 81 * 6);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryArray {
    rows: usize,
    cols: usize,
    pattern: DataPattern,
    states: Vec<CellState>,
    fins: Vec<SensitiveFin>,
    /// The fin boxes, aligned with `fins`, under the ray tracer's grid.
    index: BoxIndex,
    bounds: Aabb,
}

impl MemoryArray {
    /// Builds the array for `tech` with the paper's Fig. 5(b) cell layout.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn build(tech: &Technology, rows: usize, cols: usize, pattern: DataPattern) -> Self {
        Self::build_with_layout(&CellLayout::paper_fig5b(tech), rows, cols, pattern)
    }

    /// Builds the array from an explicit cell layout.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn build_with_layout(
        layout: &CellLayout,
        rows: usize,
        cols: usize,
        pattern: DataPattern,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        let w = layout.width.meters();
        let d = layout.depth.meters();
        let h = layout.fin_height.meters();

        let mut states = Vec::with_capacity(rows * cols);
        let mut fins = Vec::with_capacity(rows * cols * 6);
        for row in 0..rows {
            for col in 0..cols {
                let cell = row * cols + col;
                let state = pattern.state(row, col);
                states.push(state);
                let mirror_x = col % 2 == 1;
                let mirror_y = row % 2 == 1;
                let offset = Vec3::new(col as f64 * w, row as f64 * d, 0.0);
                for &(role, device_box) in layout.boxes() {
                    let placed = place_box(device_box, w, d, mirror_x, mirror_y).translated(offset);
                    fins.push(SensitiveFin {
                        aabb: placed,
                        cell,
                        role,
                        target: StrikeTarget::from_role(role, state),
                    });
                }
            }
        }
        let bounds =
            Aabb::from_min_size(Vec3::ZERO, Vec3::new(cols as f64 * w, rows as f64 * d, h));
        let index = BoxIndex::new(fins.iter().map(|f| f.aabb).collect());
        Self {
            rows,
            cols,
            pattern,
            states,
            fins,
            index,
            bounds,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols
    }

    /// The configured data pattern.
    pub fn pattern(&self) -> DataPattern {
        self.pattern
    }

    /// Stored state of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn cell_state(&self, index: usize) -> CellState {
        self.states[index]
    }

    /// All sensitive fin boxes in array coordinates.
    pub fn fins(&self) -> &[SensitiveFin] {
        &self.fins
    }

    /// Every fin crossing of `ray`, ordered by entry parameter; each
    /// [`Crossing::index`] points into [`MemoryArray::fins`]. Bit-identical
    /// to a linear [`trace_boxes`](finrad_geometry::trace::trace_boxes)
    /// scan over the fin boxes, but tests only the fins near the ray.
    pub fn trace(&self, ray: &Ray) -> Vec<Crossing> {
        self.index.trace(ray)
    }

    /// [`MemoryArray::trace`] into caller-owned buffers, without
    /// allocating once they have grown: the strike loops' tracer.
    pub fn trace_into<'s>(&self, ray: &Ray, scratch: &'s mut TraceScratch) -> &'s [Crossing] {
        self.index.trace_into(ray, scratch)
    }

    /// The array's bounding box (footprint × fin height).
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The die area the array presents to the particle flux (`Lx · Ly` of
    /// the paper's Eq. 7/8).
    pub fn footprint(&self) -> Area {
        let s = self.bounds.size();
        Area::from_square_meters(s.x * s.y)
    }
}

/// Clamps a per-cell probability of failure to `[0, 1]`.
///
/// The array-level Monte-Carlo combines cell POFs multiplicatively
/// (`1 - Π(1 - pᵢ)`), so a value outside the unit interval — even by a
/// rounding ulp — would silently corrupt the SEU/MBU split. Debug builds
/// assert the input was already a probability up to floating-point noise;
/// release builds clamp.
pub fn clamp_pof(p: f64) -> f64 {
    debug_assert!(
        p.is_finite() && (-1e-12..=1.0 + 1e-12).contains(&p),
        "cell POF {p} outside [0, 1]"
    );
    p.clamp(0.0, 1.0)
}

/// Mirrors a cell-local box per the tiling parity, keeping it inside the
/// cell frame.
fn place_box(b: Aabb, cell_w: f64, cell_d: f64, mirror_x: bool, mirror_y: bool) -> Aabb {
    let (mut min, mut max) = (b.min_corner(), b.max_corner());
    if mirror_x {
        let (lo, hi) = (cell_w - max.x, cell_w - min.x);
        min.x = lo;
        max.x = hi;
    }
    if mirror_y {
        let (lo, hi) = (cell_d - max.y, cell_d - min.y);
        min.y = lo;
        max.y = hi;
    }
    Aabb::new(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> MemoryArray {
        MemoryArray::build(
            &Technology::soi_finfet_14nm(),
            9,
            9,
            DataPattern::Checkerboard,
        )
    }

    #[test]
    fn paper_array_shape() {
        let a = array();
        assert_eq!(a.rows(), 9);
        assert_eq!(a.cols(), 9);
        assert_eq!(a.cell_count(), 81);
        assert_eq!(a.fins().len(), 486);
        assert_eq!(a.pattern(), DataPattern::Checkerboard);
    }

    #[test]
    fn clamp_pof_absorbs_rounding_noise() {
        assert_eq!(clamp_pof(1.0 + 1.0e-13), 1.0);
        assert_eq!(clamp_pof(-1.0e-13), 0.0);
        assert_eq!(clamp_pof(0.5), 0.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside [0, 1]")]
    fn clamp_pof_rejects_non_probability() {
        let _ = clamp_pof(1.5);
    }

    #[test]
    fn trace_matches_linear_scan_over_the_fins() {
        use finrad_geometry::sampling;
        use finrad_geometry::trace::trace_boxes;
        use finrad_numerics::rng::{Rng, Xoshiro256pp};
        let a = array();
        let boxes: Vec<Aabb> = a.fins().iter().map(|f| f.aabb).collect();
        let bits = |c: &[Crossing]| -> Vec<(usize, u64, u64)> {
            c.iter()
                .map(|c| (c.index, c.hit.t_enter.to_bits(), c.hit.t_exit.to_bits()))
                .collect()
        };
        let axes = [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, -1.0, 0.0),
            Vec3::new(0.0, 0.0, -1.0),
        ];
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        // One scratch across every ray: a crossing left over from the
        // previous ray would fail the next comparison.
        let mut scratch = TraceScratch::default();
        let mut crossed = 0;
        for k in 0..30_000 {
            let ray = if k % 3 == 2 {
                // Axis-parallel, from a fin's face, edge or corner.
                let f = a.fins()[(rng.next_u64() % a.fins().len() as u64) as usize];
                let (lo, hi) = (f.aabb.min_corner(), f.aabb.max_corner());
                let mut pick = |lo: f64, hi: f64| match rng.next_u64() % 3 {
                    0 => lo,
                    1 => hi,
                    _ => 0.5 * (lo + hi),
                };
                let o = Vec3::new(pick(lo.x, hi.x), pick(lo.y, hi.y), pick(lo.z, hi.z));
                let d = axes[(rng.next_u64() % axes.len() as u64) as usize];
                Ray::new(o - d * 1e-7, d)
            } else {
                let launch = sampling::point_on_top_face(&mut rng, &a.bounds());
                Ray::new(launch, sampling::cosine_law_hemisphere(&mut rng))
            };
            let want = bits(&trace_boxes(&ray, &boxes));
            assert_eq!(bits(&a.trace(&ray)), want, "{ray:?}");
            assert_eq!(bits(a.trace_into(&ray, &mut scratch)), want, "{ray:?}");
            crossed += want.len();
        }
        assert!(crossed > 0);
    }

    #[test]
    fn checkerboard_states() {
        let a = array();
        assert_eq!(a.cell_state(0), CellState::One);
        assert_eq!(a.cell_state(1), CellState::Zero);
        assert_eq!(a.cell_state(9), CellState::Zero); // next row starts flipped
        assert_eq!(a.cell_state(10), CellState::One);
    }

    #[test]
    fn every_fin_inside_bounds() {
        let a = array();
        let bounds = a.bounds();
        for f in a.fins() {
            assert!(bounds.contains(f.aabb.min_corner()), "{:?}", f.role);
            assert!(bounds.contains(f.aabb.max_corner()), "{:?}", f.role);
        }
    }

    #[test]
    fn three_sensitive_targets_per_cell() {
        let a = array();
        for cell in 0..a.cell_count() {
            let sensitive: Vec<StrikeTarget> = a
                .fins()
                .iter()
                .filter(|f| f.cell == cell)
                .filter_map(|f| f.target)
                .collect();
            assert_eq!(sensitive.len(), 3, "cell {cell}");
            // All three distinct targets present.
            for t in StrikeTarget::ALL {
                assert!(sensitive.contains(&t), "cell {cell} missing {t}");
            }
        }
    }

    #[test]
    fn pattern_state_logic() {
        assert_eq!(DataPattern::AllOnes.state(3, 4), CellState::One);
        assert_eq!(DataPattern::AllZeros.state(0, 0), CellState::Zero);
        assert_eq!(DataPattern::Checkerboard.state(2, 2), CellState::One);
        assert_eq!(DataPattern::Checkerboard.state(2, 3), CellState::Zero);
    }

    #[test]
    fn mirrored_tiling_keeps_boxes_in_their_cell() {
        let a = array();
        let layout = CellLayout::paper_fig5b(&Technology::soi_finfet_14nm());
        let (w, d) = (layout.width.meters(), layout.depth.meters());
        for f in a.fins() {
            let col = f.cell % 9;
            let row = f.cell / 9;
            let cell_box = Aabb::new(
                Vec3::new(col as f64 * w, row as f64 * d, 0.0),
                Vec3::new(
                    (col + 1) as f64 * w,
                    (row + 1) as f64 * d,
                    layout.fin_height.meters(),
                ),
            );
            assert!(cell_box.contains(f.aabb.min_corner()));
            assert!(cell_box.contains(f.aabb.max_corner()));
        }
    }

    #[test]
    fn mirroring_changes_positions() {
        // Cell (0,0) and cell (0,1) are x-mirrored: the PD-L box of the
        // second cell sits at the mirrored x position.
        let a = array();
        let layout = CellLayout::paper_fig5b(&Technology::soi_finfet_14nm());
        let w = layout.width.meters();
        let pd0 = a
            .fins()
            .iter()
            .find(|f| f.cell == 0 && f.role == TransistorRole::PullDownLeft)
            .unwrap();
        let pd1 = a
            .fins()
            .iter()
            .find(|f| f.cell == 1 && f.role == TransistorRole::PullDownLeft)
            .unwrap();
        let local0 = pd0.aabb.min_corner().x;
        let local1 = pd1.aabb.min_corner().x - w;
        assert!(
            (local0 - local1).abs() > 1.0e-9 * w,
            "mirroring had no effect"
        );
    }

    #[test]
    fn footprint_area() {
        let a = array();
        let s = a.bounds().size();
        let expect = s.x * s.y;
        assert!((a.footprint().square_meters() - expect).abs() < 1e-24);
        // 9 cells of 192 nm and 9 of 140 nm: ~1.7 µm x 1.3 µm.
        assert!((a.footprint().square_micrometers() - 1.728 * 1.26).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn rejects_empty_array() {
        let _ = MemoryArray::build(
            &Technology::soi_finfet_14nm(),
            0,
            4,
            DataPattern::Checkerboard,
        );
    }
}
