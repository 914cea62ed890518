//! Seeded input generation.
//!
//! `--seed` selects one of [`VARIANTS`] input variants (`seed % VARIANTS`),
//! and a splitmix64 stream keyed by the workload name and the variant
//! generates every argument file, fault plan and job stream from it. The
//! program only ever sees the generated files, parsed by its own parsers.
//! The simulated digest and per-layer counts of every variant are recorded
//! in `baseline.json`, so any seed can be checked against a recorded run.

use std::path::Path;

/// Input variants a seed selects among.
pub const VARIANTS: u64 = 16;

/// splitmix64: small, full-period and dependency-free.
pub struct Rng(u64);

impl Rng {
    /// The stream for `workload`'s input `variant`.
    pub fn new(workload: &str, variant: u64) -> Rng {
        let salt = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(salt ^ variant.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Write a generated input file and read it back, so the program parses
/// exactly the bytes a user would hand it.
pub fn through_file(path: &Path, text: &str) -> Result<String, String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Parse an argument file with the loader's own parser (`ensemble-cli -f`).
pub fn parse_arg_file(path: &Path, text: &str) -> Result<Vec<Vec<String>>, String> {
    let read = through_file(path, text)?;
    dgc_core::expand_arg_script(&read).map_err(|e| format!("{}: {e}", path.display()))
}
