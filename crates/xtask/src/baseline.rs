//! The pinned checkpoint schema fingerprint.
//!
//! The pin lives at `xtask/lint-baseline.toml` in the repo root, in a
//! single `[checkpoint-schema]` table holding the FNV-1a 64 fingerprint of
//! the checkpoint codec's non-test token stream together with the
//! `CHECKPOINT_VERSION` it was recorded at; the `checkpoint-schema-drift`
//! lint fails when the fingerprint moves without a version bump.
//!
//! The file is a deliberately restricted TOML dialect (scalar keys inside
//! the one `[checkpoint-schema]` table) so it can be parsed with no
//! dependencies. Anything else — in particular a retired `[[entry]]`
//! violation budget — is a load error naming the line: every lint family
//! is zero-tolerance, so there is nothing left to budget.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Where the pin lives, relative to the repo root.
pub const BASELINE_PATH: &str = "xtask/lint-baseline.toml";

/// The recorded checkpoint schema pin.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// `(fingerprint, format-version)` recorded by `--fix-allowlist`.
    checkpoint_schema: Option<(u64, u32)>,
}

impl Baseline {
    /// Loads the pin at `root/xtask/lint-baseline.toml`; a missing file
    /// records no pin.
    pub fn load(root: &Path) -> io::Result<Self> {
        let path = root.join(BASELINE_PATH);
        if !path.exists() {
            return Ok(Self::default());
        }
        let text = std::fs::read_to_string(&path)?;
        Self::parse(&text).map_err(|msg| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {msg}", path.display()),
            )
        })
    }

    /// Parses the restricted-TOML pin format.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut in_table = false;
        let mut fingerprint: Option<u64> = None;
        let mut version: Option<u32> = None;
        for (no, raw) in text.lines().enumerate() {
            let no = no + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[checkpoint-schema]" && !in_table {
                in_table = true;
                continue;
            }
            if line.starts_with('[') {
                return Err(format!(
                    "line {no}: unexpected table `{line}`; the file holds only one \
                     [checkpoint-schema] table (violation budgets are retired: fix the \
                     site or allow() it)"
                ));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {no}: expected `key = value`"));
            };
            if !in_table {
                return Err(format!("line {no}: key outside [checkpoint-schema]"));
            }
            match key.trim() {
                "fingerprint" => {
                    let hex = unquote(value).map_err(|e| format!("line {no}: {e}"))?;
                    fingerprint = Some(
                        u64::from_str_radix(&hex, 16)
                            .map_err(|e| format!("line {no}: bad fingerprint `{hex}`: {e}"))?,
                    );
                }
                "format-version" => {
                    version = Some(
                        value
                            .trim()
                            .parse::<u32>()
                            .map_err(|e| format!("line {no}: bad format-version: {e}"))?,
                    );
                }
                other => return Err(format!("line {no}: unknown key `{other}`")),
            }
        }
        let checkpoint_schema = match (fingerprint, version) {
            (Some(fp), Some(ver)) => Some((fp, ver)),
            (None, None) => None,
            _ => {
                return Err(
                    "[checkpoint-schema] needs both `fingerprint` and `format-version`".to_string(),
                )
            }
        };
        Ok(Self { checkpoint_schema })
    }

    /// The recorded `(fingerprint, format-version)` pin, if any.
    pub fn checkpoint_schema(&self) -> Option<(u64, u32)> {
        self.checkpoint_schema
    }

    /// Records the checkpoint schema pin (used by `--fix-allowlist`).
    pub fn set_checkpoint_schema(&mut self, fingerprint: u64, version: u32) {
        self.checkpoint_schema = Some((fingerprint, version));
    }

    /// Serializes back to the restricted TOML dialect.
    pub fn to_toml(&self) -> String {
        let mut out = String::from(
            "# finrad lint pin — the checkpoint schema fingerprint.\n\
             # Regenerate with `cargo xtask lint --fix-allowlist` after a\n\
             # CHECKPOINT_VERSION bump.\n",
        );
        if let Some((fp, ver)) = self.checkpoint_schema {
            let _ = write!(
                out,
                "\n[checkpoint-schema]\nfingerprint = \"{fp:016x}\"\nformat-version = {ver}\n"
            );
        }
        out
    }

    /// Writes the pin under `root`.
    pub fn store(&self, root: &Path) -> io::Result<()> {
        let path = root.join(BASELINE_PATH);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_toml())
    }
}

fn unquote(value: &str) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("expected quoted string, got `{v}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        assert_eq!(
            Baseline::parse(&Baseline::default().to_toml()),
            Ok(Baseline::default())
        );
        let mut b = Baseline::default();
        b.set_checkpoint_schema(0xdead_beef_0000_0001, 3);
        let parsed = Baseline::parse(&b.to_toml()).unwrap();
        assert_eq!(b, parsed);
        assert_eq!(parsed.checkpoint_schema(), Some((0xdead_beef_0000_0001, 3)));
    }

    #[test]
    fn rejects_malformed() {
        let pin = "[checkpoint-schema]\nfingerprint = \"ff\"\nformat-version = 1\n";
        let budget = "[[entry]]\nid = \"panic-freedom\"\nfile = \"a.rs\"\ncount = 1\n";
        for (text, expected) in [
            ("fingerprint = \"ff\"\n".to_string(), "line 1: key outside"),
            (pin.replace("format-version = 1\n", ""), "needs both"),
            (pin.replace("\"ff\"", "\"zz\""), "line 2: bad fingerprint"),
            (pin.replace("\"ff\"", "ff"), "line 2: expected quoted"),
            (pin.replace("= 1", "= one"), "line 3: bad format-version"),
            (format!("{pin}count = 3\n"), "line 4: unknown key `count`"),
            // A retired violation budget fails to load, naming its line,
            // wherever it sits relative to the pin.
            (
                format!("# header\n\n{budget}"),
                "line 3: unexpected table `[[entry]]`",
            ),
            (
                format!("{pin}\n{budget}"),
                "line 5: unexpected table `[[entry]]`",
            ),
            (format!("{pin}{pin}"), "line 4: unexpected table"),
            (
                "[other]\nkey = 1\n".to_string(),
                "line 1: unexpected table `[other]`",
            ),
        ] {
            let err = Baseline::parse(&text).unwrap_err();
            assert!(err.contains(expected), "{text:?}: {err}");
        }
    }
}
