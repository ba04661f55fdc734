//! Versioned on-disk campaign checkpoints.
//!
//! A checkpoint snapshots the per-energy-bin POF tallies of a running
//! campaign so an interrupted run can resume and produce a FIT rate that
//! is bit-identical to an uninterrupted one. The format is deliberately
//! boring: a line-based text file with every `f64` stored as the 16-digit
//! hex encoding of its IEEE-754 bit pattern (exact round-trip, no decimal
//! formatting loss), a config fingerprint binding the file to the
//! producing configuration, and an FNV-1a checksum over the body.
//!
//! ```text
//! finradckpt 1
//! fingerprint <16 hex>
//! particle <Proton|Alpha>
//! vdd <16 hex f64 bits>
//! bins <total bin count>
//! bin <k> ok <pof_total> <pof_seu> <pof_mbu> <quarantined> <energy> <flux>
//! bin <k> failed <escaped error message>
//! checksum <16 hex FNV-1a over all preceding lines>
//! ```
//!
//! Parsing validates in a fixed order so each failure mode maps to one
//! typed error: version header first ([`CheckpointError::VersionMismatch`]),
//! then checksum-line presence ([`CheckpointError::Truncated`]), then the
//! checksum itself and the field grammar ([`CheckpointError::Corrupt`]).
//! See `docs/robustness.md` for the full contract.

use crate::pipeline::PipelineConfig;
use finrad_units::{Particle, Voltage};
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

/// The single supported checkpoint format version.
///
/// The test `golden_bytes_pin_the_format` pins the exact encoding of one
/// checkpoint, this version's header line included, and that parsing
/// those bytes gives the checkpoint back. An encoder or parser change
/// fails it; after a deliberate format change, bump this version and
/// re-pin the golden text.
pub const CHECKPOINT_VERSION: u32 = 1;

const MAGIC: &str = "finradckpt";

/// Errors raised while loading or saving a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem-level failure (message carries the underlying error).
    Io(String),
    /// The file declares a format version this build does not understand.
    VersionMismatch {
        /// The version number found in the header.
        found: u32,
    },
    /// The file ends before its checksum line: the writer was interrupted
    /// or the tail was cut off.
    Truncated,
    /// The file is structurally present but fails validation (checksum
    /// mismatch or malformed field).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::VersionMismatch { found } => write!(
                f,
                "checkpoint version mismatch: found v{found}, this build reads v{CHECKPOINT_VERSION}"
            ),
            CheckpointError::Truncated => {
                write!(f, "checkpoint truncated: file ends before its checksum line")
            }
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
        }
    }
}

impl Error for CheckpointError {}

/// One completed (or failed) energy bin in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum BinRecord {
    /// The bin's Monte Carlo completed; POFs are stored bit-exactly.
    Ok {
        /// Energy-bin index within the campaign's spectrum grid.
        index: usize,
        /// Mean POF_tot per arriving particle.
        pof_total: f64,
        /// Mean POF_SEU.
        pof_seu: f64,
        /// Mean POF_MBU.
        pof_mbu: f64,
        /// Iterations quarantined by the NaN guard at the accumulator.
        quarantined: u64,
        /// Representative bin energy, joules (informational).
        energy_joules: f64,
        /// Integral bin flux, particles/(m²·s) (informational).
        flux_per_m2_s: f64,
    },
    /// The bin failed; the error is recorded and the bin is excluded from
    /// the FIT integration with degraded-coverage reporting.
    Failed {
        /// Energy-bin index within the campaign's spectrum grid.
        index: usize,
        /// Human-readable description of the failure.
        error: String,
    },
}

impl BinRecord {
    /// The bin index this record describes.
    pub fn index(&self) -> usize {
        match self {
            BinRecord::Ok { index, .. } | BinRecord::Failed { index, .. } => *index,
        }
    }
}

/// An in-memory checkpoint: campaign identity plus per-bin records.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the producing configuration (see
    /// [`config_fingerprint`]).
    pub fingerprint: u64,
    /// Particle species of the campaign.
    pub particle: Particle,
    /// Supply voltage, stored as raw f64 bits for exact round-trip.
    pub vdd_bits: u64,
    /// Total number of energy bins in the campaign.
    pub total_bins: usize,
    /// Records for the bins computed so far, in completion order.
    pub bins: Vec<BinRecord>,
}

impl Checkpoint {
    /// Serializes the checkpoint to its on-disk text form.
    pub fn to_text(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("{MAGIC} {CHECKPOINT_VERSION}\n"));
        body.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        body.push_str(&format!("particle {}\n", particle_name(self.particle)));
        body.push_str(&format!("vdd {:016x}\n", self.vdd_bits));
        body.push_str(&format!("bins {}\n", self.total_bins));
        for rec in &self.bins {
            match rec {
                BinRecord::Ok {
                    index,
                    pof_total,
                    pof_seu,
                    pof_mbu,
                    quarantined,
                    energy_joules,
                    flux_per_m2_s,
                } => {
                    body.push_str(&format!(
                        "bin {index} ok {} {} {} {quarantined} {} {}\n",
                        hex(*pof_total),
                        hex(*pof_seu),
                        hex(*pof_mbu),
                        hex(*energy_joules),
                        hex(*flux_per_m2_s),
                    ));
                }
                BinRecord::Failed { index, error } => {
                    body.push_str(&format!("bin {index} failed {}\n", escape(error)));
                }
            }
        }
        let sum = fnv1a64(body.as_bytes());
        format!("{body}checksum {sum:016x}\n")
    }

    /// Parses a checkpoint from its on-disk text form.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::VersionMismatch`] on an unknown format version,
    /// [`CheckpointError::Truncated`] when the checksum line is missing or
    /// cut off, [`CheckpointError::Corrupt`] on a checksum mismatch or a
    /// malformed field.
    pub fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
        let lines: Vec<&str> = text.lines().collect();
        // 1. Version header — checked before anything else so that a
        //    future-format file reports VersionMismatch, not Corrupt.
        let header = lines.first().ok_or(CheckpointError::Truncated)?;
        let version = header
            .strip_prefix(MAGIC)
            .and_then(|rest| rest.trim().parse::<u32>().ok())
            .ok_or_else(|| CheckpointError::Corrupt(format!("bad header line: {header:?}")))?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch { found: version });
        }
        // 2. The last line must be a complete checksum line; anything else
        //    means the writer was cut off mid-file.
        if lines.len() < 2 {
            return Err(CheckpointError::Truncated);
        }
        let last = lines[lines.len() - 1];
        let stored_sum = match last.strip_prefix("checksum ") {
            // A partial hex value still means the tail was cut off, so
            // anything but exactly 16 hex digits reads as truncation.
            Some(hexsum) if hexsum.len() == 16 => {
                u64::from_str_radix(hexsum, 16).map_err(|_| CheckpointError::Truncated)?
            }
            _ => return Err(CheckpointError::Truncated),
        };
        // 3. Verify the checksum over the body exactly as it was written.
        let mut body = lines[..lines.len() - 1].join("\n");
        body.push('\n');
        let actual = fnv1a64(body.as_bytes());
        if actual != stored_sum {
            return Err(CheckpointError::Corrupt(format!(
                "checksum mismatch: stored {stored_sum:016x}, computed {actual:016x}"
            )));
        }
        // 4. Field grammar.
        let mut fingerprint = None;
        let mut particle = None;
        let mut vdd_bits = None;
        let mut total_bins = None;
        let mut bins = Vec::new();
        for line in &lines[1..lines.len() - 1] {
            let mut parts = line.splitn(2, ' ');
            let key = parts.next().unwrap_or("");
            let rest = parts.next().unwrap_or("");
            match key {
                "fingerprint" => fingerprint = Some(parse_hex_u64(rest, "fingerprint")?),
                "particle" => particle = Some(parse_particle(rest)?),
                "vdd" => vdd_bits = Some(parse_hex_u64(rest, "vdd")?),
                "bins" => {
                    total_bins = Some(rest.trim().parse::<usize>().map_err(|_| {
                        CheckpointError::Corrupt(format!("bad bin count: {rest:?}"))
                    })?)
                }
                "bin" => bins.push(parse_bin(rest)?),
                other => {
                    return Err(CheckpointError::Corrupt(format!(
                        "unknown field: {other:?}"
                    )))
                }
            }
        }
        let missing = |name: &str| CheckpointError::Corrupt(format!("missing field: {name}"));
        Ok(Checkpoint {
            fingerprint: fingerprint.ok_or_else(|| missing("fingerprint"))?,
            particle: particle.ok_or_else(|| missing("particle"))?,
            vdd_bits: vdd_bits.ok_or_else(|| missing("vdd"))?,
            total_bins: total_bins.ok_or_else(|| missing("bins"))?,
            bins,
        })
    }

    /// Loads a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read, plus every
    /// error [`Checkpoint::parse`] can produce.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Checkpoint::parse(&text)
    }

    /// Atomically saves the checkpoint to `path`: the text is written to a
    /// sibling temp file and renamed into place, so a crash mid-save never
    /// leaves a half-written checkpoint under the real name.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", path.display()));
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        fs::write(&tmp, self.to_text()).map_err(io)?;
        fs::rename(&tmp, path).map_err(io)
    }
}

/// Fingerprint binding a checkpoint to its producing configuration:
/// FNV-1a over the config's debug form plus the (particle, V_dd) point.
/// Any config change — seed, bin count, iteration budget, technology —
/// changes the fingerprint, and resume refuses the stale file.
pub fn config_fingerprint(config: &PipelineConfig, particle: Particle, vdd: Voltage) -> u64 {
    let vdd_bits = vdd.volts().to_bits();
    fnv1a64(format!("{config:?}|{particle:?}|{vdd_bits:016x}").as_bytes())
}

/// FNV-1a 64-bit hash (dependency-free, stable across platforms).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_hex_u64(s: &str, field: &str) -> Result<u64, CheckpointError> {
    u64::from_str_radix(s.trim(), 16)
        .map_err(|_| CheckpointError::Corrupt(format!("bad {field} value: {s:?}")))
}

fn parse_hex_f64(s: &str, field: &str) -> Result<f64, CheckpointError> {
    parse_hex_u64(s, field).map(f64::from_bits)
}

fn particle_name(p: Particle) -> &'static str {
    match p {
        Particle::Proton => "Proton",
        Particle::Alpha => "Alpha",
    }
}

fn parse_particle(s: &str) -> Result<Particle, CheckpointError> {
    match s.trim() {
        "Proton" => Ok(Particle::Proton),
        "Alpha" => Ok(Particle::Alpha),
        other => Err(CheckpointError::Corrupt(format!(
            "unknown particle: {other:?}"
        ))),
    }
}

fn parse_bin(rest: &str) -> Result<BinRecord, CheckpointError> {
    let bad = |msg: &str| CheckpointError::Corrupt(format!("bad bin record ({msg}): {rest:?}"));
    let mut parts = rest.splitn(3, ' ');
    let index = parts
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or_else(|| bad("index"))?;
    let kind = parts.next().ok_or_else(|| bad("kind"))?;
    let tail = parts.next().unwrap_or("");
    match kind {
        "ok" => {
            let fields: Vec<&str> = tail.split(' ').collect();
            if fields.len() != 6 {
                return Err(bad("field count"));
            }
            Ok(BinRecord::Ok {
                index,
                pof_total: parse_hex_f64(fields[0], "pof_total")?,
                pof_seu: parse_hex_f64(fields[1], "pof_seu")?,
                pof_mbu: parse_hex_f64(fields[2], "pof_mbu")?,
                quarantined: fields[3]
                    .parse::<u64>()
                    .map_err(|_| bad("quarantined count"))?,
                energy_joules: parse_hex_f64(fields[4], "energy")?,
                flux_per_m2_s: parse_hex_f64(fields[5], "flux")?,
            })
        }
        "failed" => Ok(BinRecord::Failed {
            index,
            error: unescape(tail),
        }),
        _ => Err(bad("kind")),
    }
}

/// Escapes an error message to a single physical line.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            particle: Particle::Alpha,
            vdd_bits: 0.8f64.to_bits(),
            total_bins: 3,
            bins: vec![
                BinRecord::Ok {
                    index: 0,
                    pof_total: 0.125,
                    pof_seu: 0.1,
                    pof_mbu: 0.025,
                    quarantined: 2,
                    energy_joules: 1.5e-13,
                    flux_per_m2_s: 3.2e-4,
                },
                BinRecord::Failed {
                    index: 1,
                    error: "newton failed\nat t = 1e-12".into(),
                },
            ],
        }
    }

    /// `sample()` on disk. Resume is only safe if a checkpoint written by
    /// one build reads back bit-exactly in the next, so these bytes are
    /// the format.
    const GOLDEN: &str = "finradckpt 1\n\
        fingerprint deadbeef01234567\n\
        particle Alpha\n\
        vdd 3fe999999999999a\n\
        bins 3\n\
        bin 0 ok 3fc0000000000000 3fb999999999999a 3f9999999999999a 2 3d451c51ce3718e1 3f34f8b588e368f1\n\
        bin 1 failed newton failed\\nat t = 1e-12\n\
        checksum 64c722b309ce0c58\n";

    #[test]
    fn golden_bytes_pin_the_format() {
        assert_eq!(
            sample().to_text(),
            GOLDEN,
            "the checkpoint encoding changed: bump CHECKPOINT_VERSION and re-pin GOLDEN"
        );
        assert_eq!(
            Checkpoint::parse(GOLDEN),
            Ok(sample()),
            "the checkpoint parser changed: bump CHECKPOINT_VERSION and re-pin GOLDEN"
        );
    }

    #[test]
    fn round_trip_is_exact() {
        let ck = sample();
        let parsed = Checkpoint::parse(&ck.to_text()).unwrap();
        assert_eq!(parsed, ck);
    }

    #[test]
    fn truncation_is_typed() {
        let text = sample().to_text();
        // Cut anywhere before the final checksum digit: every prefix that
        // still has a valid header must parse as Truncated or Corrupt,
        // never panic.
        let cut = text.len() - 5;
        assert_eq!(
            Checkpoint::parse(&text[..cut]),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn version_mismatch_takes_priority_over_checksum() {
        let text = sample()
            .to_text()
            .replacen("finradckpt 1", "finradckpt 99", 1);
        assert_eq!(
            Checkpoint::parse(&text),
            Err(CheckpointError::VersionMismatch { found: 99 })
        );
    }

    #[test]
    fn bit_flip_is_corrupt() {
        let text = sample().to_text();
        let flipped = text.replacen("fingerprint dead", "fingerprint dfad", 1);
        assert_ne!(flipped, text);
        assert!(matches!(
            Checkpoint::parse(&flipped),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn fingerprint_tracks_config_changes() {
        let a = PipelineConfig::smoke_test();
        let mut b = a.clone();
        b.seed ^= 1;
        let vdd = Voltage::from_volts(0.8);
        assert_ne!(
            config_fingerprint(&a, Particle::Alpha, vdd),
            config_fingerprint(&b, Particle::Alpha, vdd)
        );
        assert_ne!(
            config_fingerprint(&a, Particle::Alpha, vdd),
            config_fingerprint(&a, Particle::Proton, vdd)
        );
    }
}
