//! Correctness checks on every pass.
//!
//! An operation fails when its call returned an error, when any of its FIT
//! rates is non-finite or negative, when a service report lacks complete
//! spectrum coverage, when its total FIT misses the stored per-seed
//! reference by more than [`REL_TOL`], or when it is not bit-identical to
//! the same operation in the run's first pass. On `pv_sweep`, a species
//! whose FIT at 0.7 V does not exceed its FIT at 1.1 V fails both
//! operations.

use crate::workload::{Op, Scale, Workload};
use finrad_units::Particle;
use std::collections::BTreeMap;

/// The stored reference results: one line per operation,
/// `<workload> <variant> <label> <total FIT>`.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// Relative tolerance of the reference comparison.
///
/// Same seed and same build give bit-identical FIT (the determinism
/// contract of `docs/performance.md`), so on the commit that wrote the
/// reference every result matches exactly. A change that keeps that
/// document's accuracy contract may still move a critical charge by up to
/// `bisect_rel_tol` (2 %). FIT falls with critical charge at an
/// elasticity of up to about 6 over 0.7–1.1 V (proton FIT drops ~13×
/// while Vdd, and with it Q_crit, rises 1.57×: ln 13 / ln 1.57 ≈ 5.7),
/// so a 2 % shift moves FIT by up to ~12 %; the tolerance doubles that.
///
/// The tolerance does not cover Monte Carlo sampling error. The stored
/// results of one label differ across variants, which differ only in
/// their seed, by as much as the tolerance (the low-count LUT-mode alpha
/// jobs by up to ~25 %). A change that draws a different random stream
/// while staying correct, such as a new per-bin seed formula, must
/// regenerate `reference.txt` rather than rely on this tolerance.
pub const REL_TOL: f64 = 0.25;

/// Parsed reference results.
#[derive(Debug, Default)]
pub struct Reference {
    entries: BTreeMap<(String, u64, String), f64>,
}

impl Reference {
    /// Parses the reference text; `#` starts a comment line.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields[..] {
                [key, variant, label, fit] => variant
                    .parse::<u64>()
                    .ok()
                    .zip(fit.parse::<f64>().ok())
                    .map(|(v, f)| ((key.to_owned(), v, label.to_owned()), f)),
                _ => None,
            };
            let (k, fit) = parsed.ok_or_else(|| format!("reference line {}: {line:?}", n + 1))?;
            entries.insert(k, fit);
        }
        Ok(Self { entries })
    }

    /// The stored total FIT of one operation.
    pub fn get(&self, key: &str, variant: u64, label: &str) -> Option<f64> {
        self.entries
            .get(&(key.to_owned(), variant, label.to_owned()))
            .copied()
    }
}

/// The reference-file key of a workload at a scale.
pub fn reference_key(workload: Workload, scale: Scale) -> String {
    match scale {
        Scale::Bench => workload.name().to_owned(),
        Scale::Smoke => format!("{}.smoke", workload.name()),
    }
}

/// Whether `value` matches `reference` within [`REL_TOL`]; a reference of
/// exactly 0 (LUT-mode protons above 0.8 V, a known artifact) demands 0.
pub fn matches_reference(value: f64, reference: f64) -> bool {
    (value - reference).abs() <= REL_TOL * reference.abs()
}

/// The verdict on one pass.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Why each failed operation failed, keyed by its index in the pass.
    pub failures: BTreeMap<usize, Vec<String>>,
    /// Operations whose total FIT equals the reference bit for bit.
    pub exact: usize,
}

impl Verdict {
    /// Operations that failed at least one check.
    pub fn failed_ops(&self) -> usize {
        self.failures.len()
    }

    fn fail(&mut self, index: usize, why: String) {
        self.failures.entry(index).or_default().push(why);
    }
}

/// What a pass is checked against.
pub struct Expectation<'a> {
    /// The workload the pass ran.
    pub workload: Workload,
    /// Its scale.
    pub scale: Scale,
    /// Its seed's variant.
    pub variant: u64,
    /// The stored reference.
    pub reference: &'a Reference,
    /// The run's first pass, which every later pass must repeat bit for
    /// bit (`None` for the first pass itself).
    pub first: Option<&'a [Op]>,
}

/// Checks one pass's operations.
pub fn check_pass(ops: &[Op], expect: &Expectation<'_>) -> Verdict {
    let mut verdict = Verdict::default();
    let key = reference_key(expect.workload, expect.scale);
    for (i, op) in ops.iter().enumerate() {
        let fit = match &op.fit {
            Ok(fit) => fit,
            Err(e) => {
                verdict.fail(i, format!("{}: {e}", op.label));
                continue;
            }
        };
        if [fit.total, fit.seu, fit.mbu]
            .iter()
            .any(|v| !v.is_finite() || *v < 0.0)
        {
            verdict.fail(i, format!("{}: FIT not finite and >= 0: {fit:?}", op.label));
        }
        if !op.complete {
            verdict.fail(i, format!("{}: incomplete spectrum coverage", op.label));
        }
        match expect.reference.get(&key, expect.variant, &op.label) {
            None => verdict.fail(i, format!("{}: no reference result", op.label)),
            Some(r) if !matches_reference(fit.total, r) => verdict.fail(
                i,
                format!("{}: FIT {} vs reference {r}", op.label, fit.total),
            ),
            Some(r) => verdict.exact += usize::from(fit.total.to_bits() == r.to_bits()),
        }
        if let Some(first) = expect.first {
            let same = first.get(i).is_some_and(|f| {
                f.label == op.label && f.fit.as_ref().is_ok_and(|f| f.same_bits(fit))
            });
            if !same {
                verdict.fail(i, format!("{}: differs from the first pass", op.label));
            }
        }
    }
    if expect.workload == Workload::PvSweep {
        for particle in [Particle::Proton, Particle::Alpha] {
            check_falls_with_vdd(ops, particle, &mut verdict);
        }
    }
    verdict
}

/// Fig. 9's trend: FIT at the lowest supply exceeds FIT at the highest.
fn check_falls_with_vdd(ops: &[Op], particle: Particle, verdict: &mut Verdict) {
    let series = || (0..ops.len()).filter(|&i| ops[i].particle == particle);
    let low = series().min_by(|&a, &b| ops[a].vdd.total_cmp(&ops[b].vdd));
    let high = series().max_by(|&a, &b| ops[a].vdd.total_cmp(&ops[b].vdd));
    let (Some(low), Some(high)) = (low, high) else {
        return;
    };
    let total = |i: usize| ops[i].fit.as_ref().map_or(f64::NAN, |f| f.total);
    // Written so that a NaN on either side fails the check.
    let falls = total(low) > total(high);
    if low != high && !falls {
        let why = format!(
            "{particle} FIT at {:.2} V ({}) does not exceed FIT at {:.2} V ({})",
            ops[low].vdd,
            total(low),
            ops[high].vdd,
            total(high)
        );
        verdict.fail(low, why.clone());
        verdict.fail(high, why);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Fit;

    fn op(label: &str, particle: Particle, vdd: f64, total: f64) -> Op {
        Op {
            label: label.to_owned(),
            particle,
            vdd,
            fit: Ok(Fit {
                total,
                seu: total,
                mbu: 0.0,
            }),
            complete: true,
        }
    }

    #[test]
    fn stored_reference_parses() {
        let reference = Reference::parse(REFERENCE).expect("reference.txt parses");
        assert!(reference.get("pv_sweep", 0, "proton@0.70V").is_some());
    }

    #[test]
    fn malformed_reference_lines_are_rejected() {
        assert!(Reference::parse("pv_sweep 0 alpha@0.70V").is_err());
        assert!(Reference::parse("pv_sweep x alpha@0.70V 1.0").is_err());
        let r = Reference::parse("# comment\n\npv_sweep 3 alpha@0.70V 2.5e-4\n").unwrap();
        assert_eq!(r.get("pv_sweep", 3, "alpha@0.70V"), Some(2.5e-4));
        assert_eq!(r.get("pv_sweep", 4, "alpha@0.70V"), None);
    }

    #[test]
    fn tolerance_and_exact_zero() {
        assert!(matches_reference(1.2, 1.0));
        assert!(!matches_reference(1.3, 1.0));
        assert!(matches_reference(0.0, 0.0));
        assert!(!matches_reference(1e-12, 0.0));
    }

    #[test]
    fn each_check_fails_its_operation() {
        let reference = Reference::parse(
            "pv_sweep 0 proton@0.70V 2.0\npv_sweep 0 proton@1.10V 1.0\n\
             pv_sweep 0 alpha@0.70V 1.0\npv_sweep 0 alpha@1.10V 2.0\n",
        )
        .unwrap();
        let ops = vec![
            op("proton@0.70V", Particle::Proton, 0.7, 2.0),
            op("proton@1.10V", Particle::Proton, 1.1, 1.0),
            op("alpha@0.70V", Particle::Alpha, 0.7, 1.0),
            op("alpha@1.10V", Particle::Alpha, 1.1, 2.0),
        ];
        let expect = Expectation {
            workload: Workload::PvSweep,
            scale: Scale::Bench,
            variant: 0,
            reference: &reference,
            first: None,
        };
        let v = check_pass(&ops, &expect);
        // Alpha does not fall with Vdd: both alpha operations fail.
        assert_eq!(v.failures.keys().copied().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(v.exact, 4);

        let mut changed = ops.clone();
        changed[0].fit = Ok(Fit {
            total: 2.0 + 1e-9,
            seu: 2.0,
            mbu: 0.0,
        });
        changed[1].complete = false;
        let v = check_pass(
            &changed,
            &Expectation {
                first: Some(&ops),
                ..expect
            },
        );
        assert!(v.failures[&0][0].contains("differs from the first pass"));
        assert!(v.failures[&1][0].contains("incomplete"));
        assert_eq!(v.failed_ops(), 4);

        let mut broken = ops.clone();
        broken[0].fit = Err("characterization failed".into());
        broken[1].fit = Ok(Fit {
            total: f64::NAN,
            seu: 0.0,
            mbu: 0.0,
        });
        broken[1].label = "proton@0.90V".into();
        let v = check_pass(&broken, &expect);
        assert!(v.failures[&0][0].contains("characterization failed"));
        assert!(v.failures[&1].iter().any(|w| w.contains("not finite")));
        assert!(v.failures[&1].iter().any(|w| w.contains("no reference")));
    }
}
