//! Shared provenance metadata for the machine-readable bench bins.
//!
//! Every `BENCH_*.json` file embeds one `"meta"` object recording the
//! SIMD tier the binary was compiled for, the f64 lane width that tier
//! implies, the host-thread budget in effect (after `TREESVD_THREADS`),
//! and the RNG seed of the run — without these, numbers from two machines
//! (or two thread caps) are not comparable.

use std::fmt::Write as _;

/// The widest f64 SIMD tier this binary was compiled with
/// (`-C target-cpu` at build time decides; runtime dispatch never
/// exceeds it).
#[must_use]
pub fn simd_tier() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "avx") {
        "avx"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else {
        "scalar"
    }
}

/// f64 lanes per register at the compiled SIMD tier.
#[must_use]
pub fn lane_width() -> usize {
    if cfg!(target_feature = "avx512f") {
        8
    } else if cfg!(target_feature = "avx") {
        4
    } else if cfg!(target_feature = "sse2") {
        2
    } else {
        1
    }
}

/// The `"meta"` JSON object (no trailing comma/newline) for a run with
/// the given RNG seed.
#[must_use]
pub fn meta_json(seed: u64) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"target_arch\": \"{}\", \"simd_tier\": \"{}\", \"f64_lanes\": {}, \
         \"threads\": {}, \"seed\": {seed}}}",
        std::env::consts::ARCH,
        simd_tier(),
        lane_width(),
        treesvd_sim::par::num_threads(),
    );
    s
}

/// Parse `--seed N` from the process arguments (default 42), so every
/// bench bin records and honors an explicit seed.
///
/// # Panics
/// Panics with a usage message when the value is missing or malformed.
#[must_use]
pub fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--seed") {
        Some(pos) => args
            .get(pos + 1)
            .unwrap_or_else(|| panic!("--seed needs a value"))
            .parse()
            .unwrap_or_else(|e| panic!("--seed: {e}")),
        None => 42,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_and_width_are_consistent() {
        let tier = simd_tier();
        let width = lane_width();
        match tier {
            "avx512f" => assert_eq!(width, 8),
            "avx2" | "avx" => assert_eq!(width, 4),
            "sse2" => assert_eq!(width, 2),
            _ => assert_eq!(width, 1),
        }
    }

    #[test]
    fn meta_json_mentions_every_field() {
        let m = meta_json(7);
        for key in ["target_arch", "simd_tier", "f64_lanes", "threads", "\"seed\": 7"] {
            assert!(m.contains(key), "missing {key} in {m}");
        }
    }
}
