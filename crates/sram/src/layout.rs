//! The physical 6T cell layout of the paper's Fig. 5(b).
//!
//! The classic FinFET 6T floorplan: four vertical fins (outer NMOS fins
//! shared by a pull-down and a pass gate; two inner PMOS fins in the
//! n-well), crossed by two horizontal gate lines (each gate line forms one
//! inverter's common gate plus the opposite side's pass gate). Each
//! transistor's *sensitive volume* — the gated fin segment where deposited
//! charge is collected by source/drain drift — is modelled as an axis-
//! aligned box of `w_fin × l_gate × h_fin`, sitting on the buried oxide
//! (`z = 0`). Charge deposited outside the gated segments is not collected
//! (no field; and the BOX suppresses substrate diffusion in SOI — the
//! paper's Section 3.3).

use crate::cell::TransistorRole;
use finrad_finfet::Technology;
use finrad_geometry::{Aabb, Vec3};
use finrad_units::Length;

/// Fin and gate placement of one 6T cell, in cell-local coordinates
/// (metres; origin at the cell's lower-left corner, z = 0 at the BOX top).
///
/// # Examples
///
/// ```
/// use finrad_finfet::Technology;
/// use finrad_sram::layout::CellLayout;
/// use finrad_sram::TransistorRole;
///
/// let layout = CellLayout::paper_fig5b(&Technology::soi_finfet_14nm());
/// assert_eq!(layout.boxes().len(), 6);
/// let pd = layout.device_box(TransistorRole::PullDownLeft).unwrap();
/// assert!(pd.volume() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellLayout {
    /// Cell footprint in x (bit-line direction).
    pub width: Length,
    /// Cell footprint in y (word-line direction).
    pub depth: Length,
    /// Fin height (z extent of the sensitive boxes).
    pub fin_height: Length,
    boxes: Vec<(TransistorRole, Aabb)>,
}

impl CellLayout {
    /// Builds the Fig. 5(b) floorplan from technology dimensions, with
    /// 48 nm fin pitch and 70 nm gate pitch (14 nm-node class).
    pub fn paper_fig5b(tech: &Technology) -> Self {
        Self::with_pitches(tech, Length::from_nm(48.0), Length::from_nm(70.0))
    }

    /// Builds the floorplan with explicit fin and gate pitches.
    ///
    /// # Panics
    ///
    /// Panics if a pitch is not larger than the corresponding device
    /// dimension.
    pub fn with_pitches(tech: &Technology, fin_pitch: Length, gate_pitch: Length) -> Self {
        assert!(
            fin_pitch.meters() > tech.w_fin.meters(),
            "fin pitch must exceed fin width"
        );
        assert!(
            gate_pitch.meters() > tech.l_gate.meters(),
            "gate pitch must exceed gate length"
        );
        let fp = fin_pitch.meters();
        let gp = gate_pitch.meters();
        let w = tech.w_fin.meters();
        let l = tech.l_gate.meters();
        let h = tech.h_fin.meters();

        // Four fins at half-pitch offsets; two gate lines at half-pitch.
        let fin_x = [0.5 * fp, 1.5 * fp, 2.5 * fp, 3.5 * fp];
        let gate_y = [0.5 * gp, 1.5 * gp];

        let device = |fin: usize, gate: usize| {
            Aabb::from_min_size(
                Vec3::new(fin_x[fin] - 0.5 * w, gate_y[gate] - 0.5 * l, 0.0),
                Vec3::new(w, l, h),
            )
        };

        // Gate line 0 (y low): left-inverter gate (PD-L, PU-L) + PASS-R.
        // Gate line 1 (y high): right-inverter gate (PU-R, PD-R) + PASS-L.
        let boxes = vec![
            (TransistorRole::PullDownLeft, device(0, 0)),
            (TransistorRole::PassLeft, device(0, 1)),
            (TransistorRole::PullUpLeft, device(1, 0)),
            (TransistorRole::PullUpRight, device(2, 1)),
            (TransistorRole::PullDownRight, device(3, 1)),
            (TransistorRole::PassRight, device(3, 0)),
        ];

        Self {
            width: Length::from_meters(4.0 * fp),
            depth: Length::from_meters(2.0 * gp),
            fin_height: tech.h_fin,
            boxes,
        }
    }

    /// All six sensitive boxes with their roles.
    pub fn boxes(&self) -> &[(TransistorRole, Aabb)] {
        &self.boxes
    }

    /// The sensitive box of one transistor, or `None` if the role is
    /// absent (constructed layouts always place all six roles, but
    /// deserialized ones are not trusted to).
    pub fn device_box(&self, role: TransistorRole) -> Option<Aabb> {
        self.boxes.iter().find(|(r, _)| *r == role).map(|(_, b)| *b)
    }

    /// The cell's bounding box (full footprint, fin height in z).
    pub fn cell_box(&self) -> Aabb {
        Aabb::from_min_size(
            Vec3::ZERO,
            Vec3::new(
                self.width.meters(),
                self.depth.meters(),
                self.fin_height.meters(),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> CellLayout {
        CellLayout::paper_fig5b(&Technology::soi_finfet_14nm())
    }

    #[test]
    fn six_devices_inside_cell() {
        let lay = layout();
        let cell = lay.cell_box();
        assert_eq!(lay.boxes().len(), 6);
        for (role, b) in lay.boxes() {
            assert!(
                cell.contains(b.min_corner()) && cell.contains(b.max_corner()),
                "{role} outside cell"
            );
        }
    }

    #[test]
    fn devices_do_not_overlap() {
        let lay = layout();
        let boxes = lay.boxes();
        for i in 0..boxes.len() {
            for j in (i + 1)..boxes.len() {
                let (_, a) = boxes[i];
                let (_, b) = boxes[j];
                let overlap_x =
                    a.min_corner().x < b.max_corner().x && b.min_corner().x < a.max_corner().x;
                let overlap_y =
                    a.min_corner().y < b.max_corner().y && b.min_corner().y < a.max_corner().y;
                assert!(
                    !(overlap_x && overlap_y),
                    "{:?} overlaps {:?}",
                    boxes[i].0,
                    boxes[j].0
                );
            }
        }
    }

    #[test]
    fn device_dimensions_match_technology() {
        let tech = Technology::soi_finfet_14nm();
        let lay = layout();
        for (_, b) in lay.boxes() {
            let s = b.size();
            assert!((s.x - tech.w_fin.meters()).abs() < 1e-18);
            assert!((s.y - tech.l_gate.meters()).abs() < 1e-18);
            assert!((s.z - tech.h_fin.meters()).abs() < 1e-18);
        }
    }

    #[test]
    fn fig5b_topology() {
        // PD-L and PASS-L share the leftmost fin (same x extent);
        // PD-R and PASS-R share the rightmost; PU fins are interior.
        let lay = layout();
        let pdl = lay.device_box(TransistorRole::PullDownLeft).unwrap();
        let passl = lay.device_box(TransistorRole::PassLeft).unwrap();
        assert_eq!(pdl.min_corner().x, passl.min_corner().x);
        assert_ne!(pdl.min_corner().y, passl.min_corner().y);

        let pdr = lay.device_box(TransistorRole::PullDownRight).unwrap();
        let passr = lay.device_box(TransistorRole::PassRight).unwrap();
        assert_eq!(pdr.min_corner().x, passr.min_corner().x);

        let pul = lay.device_box(TransistorRole::PullUpLeft).unwrap();
        let pur = lay.device_box(TransistorRole::PullUpRight).unwrap();
        assert!(pul.min_corner().x > pdl.max_corner().x);
        assert!(pur.max_corner().x < pdr.min_corner().x);
        assert!(pul.min_corner().x < pur.min_corner().x);
    }

    #[test]
    fn cell_footprint() {
        let lay = layout();
        assert!((lay.width.nanometers() - 192.0).abs() < 1e-9);
        assert!((lay.depth.nanometers() - 140.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fin pitch must exceed")]
    fn rejects_undersized_pitch() {
        let tech = Technology::soi_finfet_14nm();
        let _ = CellLayout::with_pitches(&tech, Length::from_nm(5.0), Length::from_nm(70.0));
    }
}
