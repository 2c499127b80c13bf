//! Run provenance: enough context to reproduce a result record.
//!
//! Every benchmark JSON record embeds a [`Provenance`] block so a number
//! in `results/` can always be traced back to the exact code revision,
//! experiment scale, RNG seed, and SIMD backend that produced it.

use serde::{Deserialize, Serialize};
use std::path::Path;

/// Where a result came from.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Git commit the binary was run from (short sha), `"unknown"` when
    /// no repository is discoverable.
    pub git_sha: String,
    /// Active SIMD backend (`gw2v_util::simd::backend_name`).
    pub backend: String,
    /// Experiment scale label (e.g. `"Small"`).
    pub scale: String,
    /// Base RNG seed of the run.
    pub seed: u64,
}

/// Builds a [`Provenance`] for the current process.
pub fn provenance(scale: &str, seed: u64) -> Provenance {
    Provenance {
        git_sha: git_sha(),
        backend: gw2v_util::simd::backend_name().to_owned(),
        scale: scale.to_owned(),
        seed,
    }
}

/// Short git sha of `HEAD`, resolved by reading `.git` directly (no
/// subprocess): walks up from the working directory, follows the
/// `ref:` indirection in `HEAD`, and falls back to `packed-refs`.
/// `GW2V_GIT_SHA` overrides discovery; `"unknown"` when neither works.
pub(crate) fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GW2V_GIT_SHA") {
        if !sha.trim().is_empty() {
            return shorten(sha.trim());
        }
    }
    let mut dir = match std::env::current_dir() {
        Ok(d) => d,
        Err(_) => return "unknown".to_owned(),
    };
    for _ in 0..16 {
        let git = dir.join(".git");
        if git.is_dir() {
            return read_head(&git).unwrap_or_else(|| "unknown".to_owned());
        }
        if !dir.pop() {
            break;
        }
    }
    "unknown".to_owned()
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        if let Ok(sha) = std::fs::read_to_string(git.join(refname)) {
            return Some(shorten(sha.trim()));
        }
        // Ref may only exist packed.
        if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
            for line in packed.lines() {
                if let Some((sha, name)) = line.split_once(' ') {
                    if name.trim() == refname {
                        return Some(shorten(sha.trim()));
                    }
                }
            }
        }
        None
    } else {
        // Detached HEAD holds the sha directly.
        Some(shorten(head))
    }
}

fn shorten(sha: &str) -> String {
    sha.chars().take(12).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_fields_populated() {
        let p = provenance("Small", 42);
        assert_eq!(p.scale, "Small");
        assert_eq!(p.seed, 42);
        assert!(!p.backend.is_empty());
        // In this repo a real sha resolves; elsewhere "unknown" is fine.
        assert!(!p.git_sha.is_empty());
        assert!(p.git_sha.len() <= 12);
    }

    #[test]
    fn provenance_serializes() {
        let p = provenance("Tiny", 7);
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("\"git_sha\""), "{json}");
        assert!(json.contains("\"backend\""), "{json}");
        assert!(json.contains("\"seed\":7"), "{json}");
    }
}
