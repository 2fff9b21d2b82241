//! `treesvd` — command-line SVD on simulated tree architectures.
//!
//! ```text
//! treesvd svd <matrix-file> [--ordering NAME] [--topology NAME] [--no-vectors]
//!             [--distributed] [--processors P] [--sigma-out FILE]
//! treesvd analyze [--ordering NAME] [--n N] [--topology NAME] [--groups M]
//!                 [--words W]
//! treesvd batch --order N --count K [--rows M] [--seed S] [--lanes L] [--scalar]
//! treesvd lstsq <matrix-file> <rhs-file> [--rcond X]
//! treesvd cond <matrix-file>
//! treesvd info
//! ```
//!
//! Matrix files are plain text: one row per line, whitespace- or
//! comma-separated, `#` comments allowed. `analyze` runs the
//! `treesvd-analyze` schedule verifier on a built-in ordering without
//! touching any matrix data, exiting non-zero when a check fails.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod args;
mod io;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::run(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("treesvd: {msg}");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
