//! Argument parsing and command dispatch (hand-rolled; no external deps).

use crate::io;
use std::path::PathBuf;
use treesvd_core::{
    blocked_svd, BlockKernel, BlockedOptions, HestenesSvd, HierBlocking, OrderingKind, SvdOptions,
    TopologyKind,
};

/// Usage text shown on errors.
pub const USAGE: &str = "\
usage:
  treesvd svd <matrix-file> [--auto] [--ordering NAME] [--topology NAME]
              [--no-vectors]
              [--distributed] [--processors P]
              [--block-kernel NAME] [--threads N]
              [--no-qr-frontend] [--hier-block auto|off|W]
              [--sigma-out FILE] [--u-out FILE] [--v-out FILE]
  treesvd analyze [--ordering NAME] [--n N] [--topology NAME]
                  [--groups M] [--words W]
  treesvd batch --order N --count K [--rows M] [--seed S] [--lanes L]
                [--scalar] [--threads T] [--no-vectors] [--max-sweeps S]
  treesvd lstsq <matrix-file> <rhs-file> [--rcond X]
  treesvd cond <matrix-file>
  treesvd info

orderings:  ring | round-robin | fat-tree | new-ring | modified-ring |
            llb-fat-tree | hybrid          (default: fat-tree)
topologies: perfect | fat-tree | cm5 | binary | skinny-above-K
            (default: perfect for svd; none for analyze)
block kernels (with --processors): pairwise | gram   (default: gram)
--auto lets the calibrated cost model pick the whole execution config
            (driver, ordering, kernel, block width, threads, hierarchical
            blocking); combine only with the problem
            statement — --topology and --processors as a parallelism
            budget (--no-vectors is accepted; both factors come back
            either way, as on every front-end solve). Pinning a config
            flag (--ordering, --block-kernel, --threads, …) alongside
            --auto is an error
--threads N caps the host worker lanes (default: machine parallelism,
            or the TREESVD_THREADS environment variable)
--no-qr-frontend sweeps A itself, as the paper does. By default every
            solve sorts A's columns by norm, factors A·P = QR and then
            Rᵀ = Q₂R₂ with the TSQR tree, sweeps the small n×n factor
            R₂ᵀ, and back-transforms U and V through the trees (never
            forming Q)
--hier-block auto|off|W controls cache-level blocking of the blocked
            driver's meetings: auto (default) probes L2 (TREESVD_L2
            override honored), off is flat, W splits unions wider than
            W columns
batch:      synthetic throughput run of the batched small-SVD engine —
            K random M×N problems (M defaults to N, N ≤ 64 is the
            intended regime) solved in SoA lanes; --lanes picks the
            group width (4 | 8 | 16, default 8), --scalar forces the
            portable kernel path (bitwise-identical results)";

fn parse_ordering(name: &str) -> Result<OrderingKind, String> {
    OrderingKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown ordering {name:?}"))
}

fn parse_topology(name: &str) -> Result<TopologyKind, String> {
    if let Some(cut) = name.strip_prefix("skinny-above-") {
        let cut: u32 = cut.parse().map_err(|e| format!("bad cut level in {name:?}: {e}"))?;
        return Ok(TopologyKind::SkinnyAbove(cut));
    }
    match name {
        "perfect" | "perfect-fat-tree" | "fat-tree" => Ok(TopologyKind::PerfectFatTree),
        "cm5" | "cm5-tree" => Ok(TopologyKind::Cm5),
        "binary" | "binary-tree" => Ok(TopologyKind::BinaryTree),
        _ => Err(format!("unknown topology {name:?}")),
    }
}

/// Run the CLI on `argv`, returning the stdout text.
///
/// # Errors
/// A human-readable message for any usage or runtime failure.
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some(cmd) = argv.first() else {
        return Err("missing command".to_string());
    };
    match cmd.as_str() {
        "svd" => cmd_svd(&argv[1..]),
        "analyze" => cmd_analyze(&argv[1..]),
        "batch" => cmd_batch(&argv[1..]),
        "lstsq" => cmd_lstsq(&argv[1..]),
        "cond" => cmd_cond(&argv[1..]),
        "info" => Ok(cmd_info()),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Pull `--flag value` out of a mutable arg list; returns the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Name the first flag-like argument (`-…`) left after a command took its
/// own flags: a mistyped or unsupported flag is reported as such, never
/// mistaken for a file or a missing operand.
fn reject_unknown(cmd: &str, args: &[String]) -> Result<(), String> {
    match args.iter().find(|a| a.starts_with('-')) {
        Some(a) => Err(format!("{cmd}: unexpected argument {a:?}")),
        None => Ok(()),
    }
}

/// Pull a boolean `--flag` out of a mutable arg list.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn cmd_svd(rest: &[String]) -> Result<String, String> {
    let mut args = rest.to_vec();
    let auto = take_switch(&mut args, "--auto");
    let ordering_flag = take_flag(&mut args, "--ordering")?;
    let ordering = match ordering_flag.as_deref() {
        Some(name) => parse_ordering(name)?,
        None => OrderingKind::FatTree,
    };
    let topology = match take_flag(&mut args, "--topology")? {
        Some(name) => parse_topology(&name)?,
        None => TopologyKind::PerfectFatTree,
    };
    let sigma_out = take_flag(&mut args, "--sigma-out")?.map(PathBuf::from);
    let u_out = take_flag(&mut args, "--u-out")?.map(PathBuf::from);
    let v_out = take_flag(&mut args, "--v-out")?.map(PathBuf::from);
    let processors = take_flag(&mut args, "--processors")?
        .map(|p| p.parse::<usize>().map_err(|e| format!("--processors: {e}")))
        .transpose()?;
    let block_kernel_flag = take_flag(&mut args, "--block-kernel")?;
    let block_kernel = match block_kernel_flag.as_deref() {
        None => BlockKernel::Gram,
        Some("gram") => BlockKernel::Gram,
        Some("pairwise") => BlockKernel::Pairwise,
        Some(other) => return Err(format!("unknown block kernel {other:?}")),
    };
    let threads = take_flag(&mut args, "--threads")?
        .map(|t| t.parse::<usize>().map_err(|e| format!("--threads: {e}")))
        .transpose()?;
    if threads == Some(0) {
        return Err("--threads must be at least 1".to_string());
    }
    let no_qr_frontend = take_switch(&mut args, "--no-qr-frontend");
    let hier_flag = take_flag(&mut args, "--hier-block")?;
    let hier = match hier_flag.as_deref() {
        None | Some("auto") => HierBlocking::Auto,
        Some("off") => HierBlocking::Off,
        Some(w) => HierBlocking::Cols(
            w.parse::<usize>()
                .map_err(|_| format!("--hier-block: auto, off, or a width, got {w:?}"))?,
        ),
    };
    let no_vectors = take_switch(&mut args, "--no-vectors");
    let distributed = take_switch(&mut args, "--distributed");
    reject_unknown("svd", &args)?;
    if auto {
        // --auto delegates the whole execution config to the tuner; only
        // the problem statement (matrix, --topology, --processors budget),
        // --no-vectors (a no-op behind the front-end) and output flags may
        // accompany it.
        let pinned = [
            ("--ordering", ordering_flag.is_some()),
            ("--block-kernel", block_kernel_flag.is_some()),
            ("--threads", threads.is_some()),
            ("--no-qr-frontend", no_qr_frontend),
            ("--hier-block", hier_flag.is_some()),
            ("--distributed", distributed),
        ];
        if let Some((flag, _)) = pinned.iter().find(|(_, set)| *set) {
            return Err(format!(
                "--auto selects the full execution config, but {flag} pins part of it by hand; \
                 drop {flag} to let the tuner decide, or drop --auto to keep your explicit config"
            ));
        }
    }
    let [path] = args.as_slice() else {
        return Err("svd needs exactly one matrix file".to_string());
    };

    let a = io::read_matrix(&PathBuf::from(path))?;
    let opts = SvdOptions::default()
        .with_ordering(ordering)
        .with_topology(topology)
        .with_vectors(!no_vectors)
        .with_block_kernel(block_kernel)
        .with_threads(threads)
        .with_qr_frontend(!no_qr_frontend)
        .with_hier_blocking(hier);

    let mut out = String::new();
    let fe_tag = |engaged: bool| if engaged { ", qr front-end" } else { "" };
    let (svd, sweeps, ordering_name, extra) = if auto {
        let mut problem =
            treesvd_core::TuneProblem::new(a.rows(), a.cols()).with_topology(topology);
        if let Some(p) = processors {
            problem = problem.with_processors(p);
        }
        let run = treesvd_core::auto_svd_for(&a, &problem).map_err(|e| e.to_string())?;
        let plan = run.plan;
        let kernel = match plan.kernel {
            treesvd_core::KernelSel::Gram => "gram",
            treesvd_core::KernelSel::Pairwise => "pairwise",
        };
        let extra = format!(
            "auto plan: {} driver, {kernel} kernel, {} thread(s), predicted {:.3e} ns{}",
            plan.driver.name(),
            plan.threads,
            plan.predicted_ns,
            fe_tag(run.qr_frontend)
        );
        (run.svd, run.sweeps, plan.ordering.name(), extra)
    } else if let Some(p) = processors {
        let run = blocked_svd(&a, &BlockedOptions { processors: p, svd: opts })
            .map_err(|e| e.to_string())?;
        (
            run.svd,
            run.sweeps,
            ordering.name(),
            format!("block size {}{}", run.block_size, fe_tag(run.qr_frontend)),
        )
    } else if distributed {
        let run = HestenesSvd::new(opts).compute_distributed(&a).map_err(|e| e.to_string())?;
        let extra = format!("distributed executor{}", fe_tag(run.qr_frontend));
        (run.svd, run.sweeps, ordering.name(), extra)
    } else {
        let run = HestenesSvd::new(opts).compute(&a).map_err(|e| e.to_string())?;
        (
            run.svd,
            run.sweeps,
            ordering.name(),
            format!(
                "simulated time {:.3e} on {topology}{}",
                run.simulated_time,
                fe_tag(run.qr_frontend)
            ),
        )
    };
    let sigma = svd.sigma.clone();

    out.push_str(&format!(
        "# {}x{} matrix, ordering {ordering_name}, {sweeps} sweeps, {extra}\n",
        a.rows(),
        a.cols(),
    ));
    out.push_str("# singular values (descending):\n");
    out.push_str(&io::format_vector(&sigma));
    if let Some(p) = sigma_out {
        std::fs::write(&p, io::format_vector(&sigma))
            .map_err(|e| format!("{}: {e}", p.display()))?;
        out.push_str(&format!("# sigma written to {}\n", p.display()));
    }
    if let Some(p) = u_out {
        std::fs::write(&p, io::format_matrix(&svd.u))
            .map_err(|e| format!("{}: {e}", p.display()))?;
        out.push_str(&format!("# U written to {}\n", p.display()));
    }
    if let Some(p) = v_out {
        std::fs::write(&p, io::format_matrix(&svd.v))
            .map_err(|e| format!("{}: {e}", p.display()))?;
        out.push_str(&format!("# V written to {}\n", p.display()));
    }
    Ok(out)
}

fn cmd_analyze(rest: &[String]) -> Result<String, String> {
    let mut args = rest.to_vec();
    let ordering = match take_flag(&mut args, "--ordering")? {
        Some(name) => parse_ordering(&name)?,
        None => OrderingKind::FatTree,
    };
    let n = take_flag(&mut args, "--n")?
        .map_or(Ok(32), |v| v.parse::<usize>().map_err(|e| format!("--n: {e}")))?;
    let topology = take_flag(&mut args, "--topology")?.map(|t| parse_topology(&t)).transpose()?;
    let groups = take_flag(&mut args, "--groups")?
        .map(|v| v.parse::<usize>().map_err(|e| format!("--groups: {e}")))
        .transpose()?;
    let words = take_flag(&mut args, "--words")?
        .map_or(Ok(1), |v| v.parse::<u64>().map_err(|e| format!("--words: {e}")))?;
    if !args.is_empty() {
        return Err(format!("analyze: unexpected argument {:?}", args[0]));
    }

    let ord: Box<dyn treesvd_orderings::JacobiOrdering> = match groups {
        Some(m) => {
            if ordering != OrderingKind::Hybrid {
                return Err("--groups only applies to the hybrid ordering".to_string());
            }
            Box::new(treesvd_orderings::HybridOrdering::new(n, m).map_err(|e| e.to_string())?)
        }
        None => ordering.build(n).map_err(|e| e.to_string())?,
    };

    let opts = treesvd_analyze::AnalysisOptions {
        topology: topology.map(|kind| treesvd_net::Topology::new(kind, n / 2)),
        words_per_column: words,
    };

    let report = treesvd_analyze::analyze_ordering(ord.as_ref(), &opts);
    if !report.is_verified() {
        return Err(format!("schedule verification failed\n{report}"));
    }
    Ok(report.to_string())
}

fn cmd_batch(rest: &[String]) -> Result<String, String> {
    let mut args = rest.to_vec();
    let order = take_flag(&mut args, "--order")?
        .ok_or_else(|| "batch needs --order N".to_string())?
        .parse::<usize>()
        .map_err(|e| format!("--order: {e}"))?;
    let count = take_flag(&mut args, "--count")?
        .ok_or_else(|| "batch needs --count K".to_string())?
        .parse::<usize>()
        .map_err(|e| format!("--count: {e}"))?;
    let rows = take_flag(&mut args, "--rows")?
        .map_or(Ok(order), |v| v.parse::<usize>().map_err(|e| format!("--rows: {e}")))?;
    let seed = take_flag(&mut args, "--seed")?
        .map_or(Ok(42), |v| v.parse::<u64>().map_err(|e| format!("--seed: {e}")))?;
    let lanes = take_flag(&mut args, "--lanes")?.map_or(Ok(treesvd_batch::LANES), |v| {
        v.parse::<usize>().map_err(|e| format!("--lanes: {e}"))
    })?;
    let threads = take_flag(&mut args, "--threads")?
        .map(|t| t.parse::<usize>().map_err(|e| format!("--threads: {e}")))
        .transpose()?;
    if threads == Some(0) {
        return Err("--threads must be at least 1".to_string());
    }
    let max_sweeps = take_flag(&mut args, "--max-sweeps")?
        .map_or(Ok(60), |v| v.parse::<usize>().map_err(|e| format!("--max-sweeps: {e}")))?;
    let scalar = take_switch(&mut args, "--scalar");
    let no_vectors = take_switch(&mut args, "--no-vectors");
    if !args.is_empty() {
        return Err(format!("batch: unexpected argument {:?}", args[0]));
    }

    // fill the SoA batch one problem at a time so peak memory stays at
    // one dense matrix plus the batch itself
    let mut batch = treesvd_batch::BatchSoA::new(rows, order, count, lanes)
        .map_err(|e| format!("batch setup: {e}"))?;
    for i in 0..count {
        let m = treesvd_matrix::generate::random_uniform(rows, order, seed.wrapping_add(i as u64));
        batch.set_problem(i, &m).map_err(|e| format!("batch setup: {e}"))?;
    }

    let path = if scalar { treesvd_batch::LanePath::Scalar } else { treesvd_batch::LanePath::Auto };
    let opts = treesvd_batch::BatchOptions::default()
        .with_path(path)
        .with_vectors(!no_vectors)
        .with_max_sweeps(max_sweeps)
        .with_threads(threads);
    let start = std::time::Instant::now();
    let out = treesvd_batch::batch_svd(&mut batch, &opts).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();

    let stats = out.stats;
    let mut text = format!(
        "# batched svd: {count} problems of {rows}x{order}, lanes {}, path {}, seed {seed}\n",
        stats.lanes,
        if scalar { "scalar" } else { "auto" },
    );
    text.push_str(&format!(
        "# {} lane groups, max {} sweeps, {} alloc events\n",
        stats.groups, stats.max_sweeps_used, stats.alloc_events
    ));
    text.push_str(&format!(
        "# solved in {elapsed:.6} s — {:.0} problems/s\n",
        count as f64 / elapsed.max(1e-12)
    ));
    text.push_str("# singular values of problem 0 (descending):\n");
    text.push_str(&io::format_vector(out.sigma(0)));
    Ok(text)
}

fn cmd_lstsq(rest: &[String]) -> Result<String, String> {
    let mut args = rest.to_vec();
    let rcond = take_flag(&mut args, "--rcond")?
        .map(|x| x.parse::<f64>().map_err(|e| format!("--rcond: {e}")))
        .transpose()?;
    reject_unknown("lstsq", &args)?;
    let [a_path, b_path] = args.as_slice() else {
        return Err("lstsq needs a matrix file and a rhs file".to_string());
    };
    let a = io::read_matrix(&PathBuf::from(a_path))?;
    let b_mat = io::read_matrix(&PathBuf::from(b_path))?;
    if b_mat.cols() != 1 {
        return Err(format!("rhs must be a single column, got {} columns", b_mat.cols()));
    }
    let b: Vec<f64> = b_mat.col(0).to_vec();
    if b.len() != a.rows() {
        return Err(format!("rhs has {} rows, matrix has {}", b.len(), a.rows()));
    }
    let sol = treesvd_apps::lstsq(&a, &b, rcond).map_err(|e| e.to_string())?;
    let mut out = format!(
        "# effective rank {}, residual norm {:.6e}\n# solution:\n",
        sol.effective_rank, sol.residual_norm
    );
    out.push_str(&io::format_vector(&sol.x));
    Ok(out)
}

fn cmd_cond(rest: &[String]) -> Result<String, String> {
    reject_unknown("cond", rest)?;
    let [path] = rest else {
        return Err("cond needs exactly one matrix file".to_string());
    };
    let a = io::read_matrix(&PathBuf::from(path))?;
    let kappa = treesvd_apps::condition_number(&a).map_err(|e| e.to_string())?;
    Ok(format!("{kappa:.6e}\n"))
}

fn cmd_info() -> String {
    let mut out = String::from("treesvd — Zhou & Brent (ICPP 1993) reproduction\n\norderings:\n");
    for kind in OrderingKind::ALL {
        out.push_str(&format!("  {}\n", kind.name()));
    }
    out.push_str(
        "\ntopologies:\n  perfect (binary fat-tree)\n  cm5 (skinny, ×√2 capacity per level)\n  binary (capacity 1 everywhere)\n  skinny-above-K (perfect up to level K, frozen above)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn write_temp(name: &str, content: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("treesvd-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p
    }

    #[test]
    fn auto_runs_and_reports_its_plan() {
        let p = write_temp("auto.txt", "3 0\n0 4\n1 1\n");
        let out = run(&argv(&["svd", p.to_str().unwrap(), "--auto"])).unwrap();
        assert!(out.contains("auto plan:"), "{out}");
        assert!(out.contains("driver"), "{out}");
        // the tuner changes how, never what: spectrum matches the default path
        let base = run(&argv(&["svd", p.to_str().unwrap()])).unwrap();
        let sigmas = |s: &str| -> Vec<f64> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.trim().parse::<f64>().ok())
                .collect()
        };
        for (a, b) in sigmas(&base).iter().zip(sigmas(&out).iter()) {
            assert!((a - b).abs() < 1e-9 * a.max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn auto_accepts_the_problem_statement_flags() {
        let p = write_temp("auto_ps.txt", "2 0 0\n0 3 0\n0 0 5\n1 1 1\n");
        let out = run(&argv(&[
            "svd",
            p.to_str().unwrap(),
            "--auto",
            "--no-vectors",
            "--processors",
            "2",
            "--topology",
            "cm5",
        ]))
        .unwrap();
        assert!(out.contains("auto plan:"), "{out}");
    }

    #[test]
    fn auto_rejects_hand_pinned_config_flags() {
        let p = write_temp("auto_conflict.txt", "1 0\n0 2\n");
        for flags in [
            &["--ordering", "ring"][..],
            &["--block-kernel", "gram"],
            &["--threads", "2"],
            &["--no-qr-frontend"],
            &["--hier-block", "off"],
            &["--distributed"],
        ] {
            let mut a = argv(&["svd", p.to_str().unwrap(), "--auto"]);
            a.extend(flags.iter().map(|s| s.to_string()));
            let err = run(&a).unwrap_err();
            assert!(err.contains("--auto"), "{flags:?}: {err}");
            assert!(err.contains(flags[0]), "{flags:?}: {err}");
        }
    }

    #[test]
    fn info_lists_all_orderings() {
        let out = run(&argv(&["info"])).unwrap();
        for k in OrderingKind::ALL {
            assert!(out.contains(k.name()), "missing {}", k.name());
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn svd_on_a_small_file() {
        let p = write_temp("a.txt", "3 0\n0 4\n0 0\n");
        let out = run(&argv(&["svd", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("2 sweeps") || out.contains("sweeps"));
        // sigma descending: 4 then 3
        let nums: Vec<f64> = out
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.trim().parse::<f64>().ok())
            .collect();
        assert!((nums[0] - 4.0).abs() < 1e-12);
        assert!((nums[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn svd_screens_extreme_and_non_finite_input() {
        // σ of [[1,2],[3,4],[5,6]], recovered at 1e±200 (squares of those
        // entries overflow or underflow without the entry screen)
        let exact = [9.525518091565107, 0.5143005806586441];
        for scale in [1e200, 1e-200] {
            let rows: String =
                [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]].iter().fold(String::new(), |acc, r| {
                    acc + &format!("{:e} {:e}\n", r[0] * scale, r[1] * scale)
                });
            let p = write_temp("extreme.txt", &rows);
            let out = run(&argv(&["svd", p.to_str().unwrap()])).unwrap();
            let nums: Vec<f64> = out
                .lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.trim().parse::<f64>().ok())
                .collect();
            for (c, e) in nums.iter().zip(exact) {
                assert!((c / scale - e).abs() < 1e-14 * e, "scale {scale:e}: {c:e} vs {e}");
            }
        }
        let p = write_temp("nan.txt", "1 2\n3 NaN\n5 6\n");
        let err = run(&argv(&["svd", p.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("(1, 1)") && err.contains("not finite"), "{err}");
    }

    #[test]
    fn svd_flags_parse() {
        let p = write_temp("b.txt", "1 0\n0 2\n1 1\n");
        let out = run(&argv(&[
            "svd",
            p.to_str().unwrap(),
            "--ordering",
            "new-ring",
            "--topology",
            "cm5",
            "--no-vectors",
        ]))
        .unwrap();
        assert!(out.contains("new-ring"));
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--ordering", "nope"])).is_err());
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--topology", "nope"])).is_err());
        let out =
            run(&argv(&["svd", p.to_str().unwrap(), "--topology", "skinny-above-2"])).unwrap();
        assert!(out.contains("skinny-above-2"));
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--topology", "skinny-above-x"])).is_err());
    }

    #[test]
    fn svd_distributed_and_blocked_paths() {
        let p = write_temp("c.txt", "2 0 0 0\n0 3 0 0\n0 0 1 0\n0 0 0 4\n1 1 1 1\n");
        let out = run(&argv(&["svd", p.to_str().unwrap(), "--distributed"])).unwrap();
        assert!(out.contains("distributed"));
        let out = run(&argv(&["svd", p.to_str().unwrap(), "--processors", "2"])).unwrap();
        assert!(out.contains("block size"));
        // zero processors is a typed error, not a panic
        let err = run(&argv(&["svd", p.to_str().unwrap(), "--processors", "0"])).unwrap_err();
        assert!(err.contains("at least one processor"), "{err}");
    }

    #[test]
    fn svd_block_kernel_and_threads_flags() {
        let p = write_temp("k.txt", "2 0 0 0\n0 3 0 0\n0 0 1 0\n0 0 0 4\n1 1 1 1\n");
        for kernel in ["pairwise", "gram"] {
            let out = run(&argv(&[
                "svd",
                p.to_str().unwrap(),
                "--processors",
                "2",
                "--block-kernel",
                kernel,
                "--threads",
                "1",
            ]))
            .unwrap();
            assert!(out.contains("block size"), "{out}");
        }
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--block-kernel", "nope"])).is_err());
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--threads", "0"])).is_err());
    }

    #[test]
    fn qr_frontend_flags_engage_and_validate() {
        // a 12×2 matrix: every driver takes the front-end unless it is
        // switched off, and both paths find the same spectrum
        let rows: String = (0..12).map(|i| format!("{} {}\n", i + 1, (i % 3) as f64)).collect();
        let p = write_temp("tall.txt", &rows);
        let fe = run(&argv(&["svd", p.to_str().unwrap()])).unwrap();
        assert!(fe.contains("qr front-end"), "{fe}");
        let direct = run(&argv(&["svd", p.to_str().unwrap(), "--no-qr-frontend"])).unwrap();
        assert!(!direct.contains("qr front-end"), "{direct}");
        let sigmas = |s: &str| -> Vec<f64> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.trim().parse::<f64>().ok())
                .collect()
        };
        for (a, b) in sigmas(&direct).iter().zip(sigmas(&fe).iter()) {
            assert!((a - b).abs() < 1e-9 * a.max(1.0), "{a} vs {b}");
        }
        // the blocked and distributed drivers report it too
        for flags in [&["--processors", "1"][..], &["--distributed"]] {
            let mut a = argv(&["svd", p.to_str().unwrap()]);
            a.extend(flags.iter().map(|s| s.to_string()));
            let on = run(&a).unwrap();
            assert!(on.contains("qr front-end"), "{flags:?}: {on}");
            a.push("--no-qr-frontend".to_string());
            let off = run(&a).unwrap();
            assert!(!off.contains("qr front-end"), "{flags:?}: {off}");
        }
        // the opt-in flag and the crossover knob are gone
        for gone in [&["--qr-frontend"][..], &["--qr-crossover", "4"]] {
            let mut a = argv(&["svd", p.to_str().unwrap()]);
            a.extend(gone.iter().map(|s| s.to_string()));
            let err = run(&a).unwrap_err();
            assert!(err.contains("unexpected argument") && err.contains(gone[0]), "{err}");
        }
    }

    #[test]
    fn hier_block_flag_parses_and_matches_flat() {
        let p = write_temp("hier.txt", "2 0 0 0\n0 3 0 0\n0 0 1 0\n0 0 0 4\n1 1 1 1\n");
        let sigmas = |s: &str| -> Vec<f64> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.trim().parse::<f64>().ok())
                .collect()
        };
        let base = run(&argv(&["svd", p.to_str().unwrap(), "--processors", "1"])).unwrap();
        for mode in ["auto", "off", "4"] {
            let out = run(&argv(&[
                "svd",
                p.to_str().unwrap(),
                "--processors",
                "1",
                "--hier-block",
                mode,
            ]))
            .unwrap();
            for (a, b) in sigmas(&base).iter().zip(sigmas(&out).iter()) {
                assert!((a - b).abs() < 1e-9 * a.max(1.0), "mode {mode}: {a} vs {b}");
            }
        }
        assert!(run(&argv(&["svd", p.to_str().unwrap(), "--hier-block", "sideways"])).is_err());
    }

    #[test]
    fn unknown_arguments_are_named() {
        let m = write_temp("unknown_m.txt", "1 0\n0 2\n");
        let b = write_temp("unknown_b.txt", "1\n2\n");
        let (m, b) = (m.to_str().unwrap(), b.to_str().unwrap());
        for (args, flag) in [
            (&["svd", m, "--chaos", "3"][..], "--chaos"),
            (&["svd", m, "--distributed", "--chaos", "3"], "--chaos"),
            (&["svd", m, "--recv-timeout", "50"], "--recv-timeout"),
            (&["svd", m, "--max-retries", "3"], "--max-retries"),
            (&["svd", m, "--bogus", "1"], "--bogus"),
            (&["cond", m, "--bogus"], "--bogus"),
            (&["lstsq", m, b, "--bogus"], "--bogus"),
        ] {
            let err = run(&argv(args)).unwrap_err();
            let cmd = args[0];
            assert_eq!(err, format!("{cmd}: unexpected argument {flag:?}"), "{args:?}");
        }
    }

    #[test]
    fn analyze_acceptance_command_proves_zero_contention() {
        // the headline check: hybrid at n = 64 on the perfect fat-tree
        let out =
            run(&argv(&["analyze", "--ordering", "hybrid", "--n", "64", "--topology", "fat-tree"]))
                .unwrap();
        assert!(out.contains("zero contention"), "{out}");
        for check in ["permutation-safety", "coverage/restore", "contention", "deadlock-freedom"] {
            assert!(out.contains(check), "missing {check} in {out}");
        }
        assert!(!out.contains("FAIL"), "{out}");
    }

    #[test]
    fn analyze_defaults_and_flags() {
        // defaults: fat-tree ordering, n = 32, no topology
        let out = run(&argv(&["analyze"])).unwrap();
        assert!(out.contains("n = 32"), "{out}");
        assert!(out.contains("not checked"), "{out}");
        // explicit groups for the hybrid
        let out = run(&argv(&[
            "analyze",
            "--ordering",
            "hybrid",
            "--n",
            "32",
            "--groups",
            "8",
            "--topology",
            "cm5",
        ]))
        .unwrap();
        assert!(out.contains("OK"), "{out}");
        assert!(run(&argv(&["analyze", "--ordering", "ring", "--groups", "4"])).is_err());
        assert!(run(&argv(&["analyze", "--n", "seven"])).is_err());
        assert!(run(&argv(&["analyze", "stray"])).is_err());
    }

    #[test]
    fn analyze_reports_contention_where_the_paper_predicts_it() {
        // the fat-tree ordering overloads a plain binary tree (§5)
        let err =
            run(&argv(&["analyze", "--ordering", "fat-tree", "--n", "32", "--topology", "binary"]))
                .unwrap_err();
        assert!(err.contains("FAIL"), "{err}");
        assert!(err.contains("contention"), "{err}");
    }

    #[test]
    fn batch_runs_and_reports_throughput() {
        let out = run(&argv(&["batch", "--order", "6", "--count", "37", "--seed", "7"])).unwrap();
        assert!(out.contains("37 problems of 6x6"), "{out}");
        assert!(out.contains("problems/s"), "{out}");
        // 37 problems over 8 lanes → 5 groups
        assert!(out.contains("5 lane groups"), "{out}");
    }

    #[test]
    fn batch_scalar_path_is_bitwise_identical() {
        let base = argv(&["batch", "--order", "5", "--count", "13", "--rows", "9"]);
        let auto = run(&base).unwrap();
        let mut scalar_args = base.clone();
        scalar_args.push("--scalar".to_string());
        let scalar = run(&scalar_args).unwrap();
        let sigmas = |s: &str| -> Vec<String> {
            s.lines().filter(|l| !l.starts_with('#')).map(str::to_string).collect()
        };
        assert_eq!(sigmas(&auto), sigmas(&scalar), "kernel paths must agree bitwise");
    }

    #[test]
    fn batch_flags_validate() {
        assert!(run(&argv(&["batch", "--count", "4"])).is_err(), "missing --order");
        assert!(run(&argv(&["batch", "--order", "4"])).is_err(), "missing --count");
        assert!(run(&argv(&["batch", "--order", "4", "--count", "4", "--lanes", "5"])).is_err());
        assert!(run(&argv(&["batch", "--order", "4", "--count", "4", "--rows", "2"])).is_err());
        assert!(run(&argv(&["batch", "--order", "4", "--count", "4", "--threads", "0"])).is_err());
        assert!(run(&argv(&["batch", "--order", "4", "--count", "4", "stray"])).is_err());
        // lanes 4 and 16, thread caps, and --no-vectors all parse and run
        for extra in [&["--lanes", "4"][..], &["--lanes", "16"], &["--threads", "2"]] {
            let mut a = argv(&["batch", "--order", "3", "--count", "9", "--no-vectors"]);
            a.extend(extra.iter().map(|s| s.to_string()));
            assert!(run(&a).is_ok(), "{extra:?}");
        }
    }

    #[test]
    fn lstsq_solves() {
        let a = write_temp("lsq_a.txt", "1 0\n0 1\n1 1\n");
        let b = write_temp("lsq_b.txt", "1\n2\n3\n");
        let out = run(&argv(&["lstsq", a.to_str().unwrap(), b.to_str().unwrap()])).unwrap();
        assert!(out.contains("effective rank 2"));
    }

    #[test]
    fn lstsq_shape_errors() {
        let a = write_temp("lsq_a2.txt", "1 0\n0 1\n");
        let b = write_temp("lsq_b2.txt", "1\n2\n3\n");
        assert!(run(&argv(&["lstsq", a.to_str().unwrap(), b.to_str().unwrap()])).is_err());
        let b2 = write_temp("lsq_b3.txt", "1 2\n3 4\n");
        assert!(run(&argv(&["lstsq", a.to_str().unwrap(), b2.to_str().unwrap()])).is_err());
    }

    #[test]
    fn cond_of_identity_is_one() {
        let p = write_temp("id.txt", "1 0\n0 1\n");
        let out = run(&argv(&["cond", p.to_str().unwrap()])).unwrap();
        let k: f64 = out.trim().parse().unwrap();
        assert!((k - 1.0).abs() < 1e-10);
    }

    #[test]
    fn u_v_out_write_orthogonal_factors() {
        let p = write_temp("uv.txt", "3 0\n0 4\n1 1\n");
        let dir = std::env::temp_dir().join("treesvd-cli-tests");
        let up = dir.join("u.txt");
        let vp = dir.join("v.txt");
        run(&argv(&[
            "svd",
            p.to_str().unwrap(),
            "--u-out",
            up.to_str().unwrap(),
            "--v-out",
            vp.to_str().unwrap(),
        ]))
        .unwrap();
        let u = crate::io::read_matrix(&up).unwrap();
        let v = crate::io::read_matrix(&vp).unwrap();
        assert_eq!(u.shape(), (3, 2));
        assert_eq!(v.shape(), (2, 2));
        assert!(treesvd_matrix::checks::orthogonality_residual(&v) < 1e-10);
        assert!(treesvd_matrix::checks::orthogonality_residual(&u) < 1e-10);
    }

    #[test]
    fn sigma_out_writes_file() {
        let p = write_temp("d.txt", "5 0\n0 12\n");
        let outfile = std::env::temp_dir().join("treesvd-cli-tests").join("sigma.txt");
        let _ = std::fs::remove_file(&outfile);
        run(&argv(&["svd", p.to_str().unwrap(), "--sigma-out", outfile.to_str().unwrap()]))
            .unwrap();
        let text = std::fs::read_to_string(&outfile).unwrap();
        let first: f64 = text.lines().next().unwrap().parse().unwrap();
        assert!((first - 12.0).abs() < 1e-10);
    }
}
