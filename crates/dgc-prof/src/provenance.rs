//! Run provenance: who measured this, and what exactly was measured.
//!
//! Every perf artifact that outlives its run — a row of the
//! `dgc-insight` ledger — stamps two fields from here: the git revision
//! the code was built from and a fingerprint of the workload
//! configuration. The rev answers "which code", the
//! fingerprint answers "which experiment": trend analysis must never
//! compare rates across different workloads, and the hash makes that
//! check mechanical.

use std::process::Command;

/// Abbreviated git revision of the working tree, or `"unknown"` when
/// not in a git checkout (or git is unavailable). A dirty tree gets a
/// `+` suffix so a ledger entry from uncommitted code is identifiable.
pub fn git_rev() -> String {
    let rev = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    let Some(rev) = rev else {
        return "unknown".into();
    };
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false);
    if dirty {
        format!("{rev}+")
    } else {
        rev
    }
}

/// Deterministic 64-bit FNV-1a fingerprint over the configuration's
/// parts (section names, instance counts, device strings — whatever
/// defines the experiment), rendered as 16 hex digits. Parts are
/// NUL-separated so `["ab","c"]` and `["a","bc"]` hash differently.
pub fn config_fingerprint<I, S>(parts: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for part in parts {
        for &b in part.as_ref().as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        // NUL separator byte: the XOR with 0 is a no-op, so only the
        // multiply advances the state.
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_deterministic_and_separator_sensitive() {
        let a = config_fingerprint(["figure6_smoke_tl32", "1,2,4,8"]);
        assert_eq!(a, config_fingerprint(["figure6_smoke_tl32", "1,2,4,8"]));
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        // Different splits of the same bytes hash differently.
        assert_ne!(
            config_fingerprint(["ab", "c"]),
            config_fingerprint(["a", "bc"])
        );
        assert_ne!(a, config_fingerprint(["figure6_smoke_tl32"]));
    }

    #[test]
    fn git_rev_is_nonempty() {
        // In this repo it is a hex rev (possibly `+`-suffixed); outside
        // any checkout it is "unknown". Either way: non-empty, no
        // whitespace.
        let rev = git_rev();
        assert!(!rev.is_empty());
        assert!(!rev.contains(char::is_whitespace));
    }
}
