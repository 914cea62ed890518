//! Output checks: device checksums against the apps' host references, and
//! a digest over every simulated number a pass produces.

use dgc_apps::{amgmk, pagerank, rsbench, xsbench};

/// The host reference checksum of `app` run with argument `line`.
pub fn reference(app: &str, line: &[String]) -> Result<f64, String> {
    Ok(match app {
        "xsbench" => xsbench::reference_checksum(&xsbench::XsParams::parse(line)),
        "rsbench" => rsbench::reference_checksum(&rsbench::RsParams::parse(line)),
        "amgmk" => amgmk::reference_checksum(&amgmk::AmgParams::parse(line)),
        "pagerank" => pagerank::reference_checksum(&pagerank::PrParams::parse(line)),
        other => return Err(format!("no host reference for app `{other}`")),
    })
}

/// Whether an instance's stdout carries a `Verification checksum` line
/// equal to `expected` (printed with `%.10e`, so equal to 1e-9 relative).
pub fn checksum_ok(stdout: &str, expected: f64) -> bool {
    stdout
        .lines()
        .find(|l| l.starts_with("Verification checksum"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .is_some_and(|printed| (printed - expected).abs() <= expected.abs() * 1e-9)
}

/// FNV-1a over 64-bit words: the digest of a pass's simulated numbers.
/// Floats enter by their bit patterns, so any change to a simulated value
/// changes the digest.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
