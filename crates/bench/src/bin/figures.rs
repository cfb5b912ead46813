//! Regenerate every figure and scenario of the QR2 paper.
//!
//! ```sh
//! cargo run --release -p qr2-bench --bin figures            # everything
//! cargo run --release -p qr2-bench --bin figures -- --small # everything, small scale
//! cargo run --release -p qr2-bench --bin figures -- --fig2a # one artifact
//! cargo run --release -p qr2-bench --bin figures -- --smoke # BENCH_pr*.json
//! ```
//!
//! Text tables go to stdout; CSVs to `target/figures/`.

use std::time::Duration;

use qr2_bench::report::{run_suite, workspace_root, write_csv, Scenario};
use qr2_bench::workloads::Scale;
use qr2_bench::{
    ablation_dense_delta, ablation_parallel_fanout, ablation_session_cache, ablation_split_policy,
    ablation_system_k, e1, e2, e3, e4, fig2, fig4,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `--smoke`: the seven smoke scenarios. Each rewrites its committed
    // `BENCH_pr*.json` at the workspace root; the run fails on any failing
    // contract or any deterministic value that drifted from the committed
    // file.
    if args.iter().any(|a| a == "--smoke") {
        let scenarios: [Scenario; 7] = [
            ("BENCH_pr3.json", qr2_bench::run_smoke),
            ("BENCH_pr4.json", qr2_bench::run_cache_smoke),
            ("BENCH_pr5.json", || {
                qr2_bench::run_perf_smoke(&qr2_bench::PerfSmokeConfig::default())
            }),
            ("BENCH_pr7.json", qr2_bench::run_sched_smoke),
            ("BENCH_pr8.json", || {
                qr2_bench::run_recon_smoke(&qr2_bench::ReconSmokeConfig::default())
            }),
            ("BENCH_pr9.json", || {
                qr2_bench::run_obs_smoke(&qr2_bench::ObsSmokeConfig::default())
            }),
            ("BENCH_pr10.json", || {
                qr2_bench::run_fault_smoke(&qr2_bench::FaultSmokeConfig::default())
            }),
        ];
        if !run_suite(&workspace_root(), &scenarios) {
            eprintln!("smoke run failed: see the FAIL lines above");
            std::process::exit(1);
        }
        return;
    }

    // No artifact flag (only a scale flag, or nothing) means everything.
    let all = args.iter().all(|a| a == "--small") || args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);
    let scale = if args.iter().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Full
    };

    println!("QR2 figure regeneration (scale: {scale:?})");
    println!("CSV output: target/figures/\n");

    if want("--fig2a") {
        let (table, s) = fig2(scale, 3, 40);
        println!("{}", table.render());
        println!(
            "summary: {} queries over {} iterations; {} queries ({:.1}%) issued in parallel rounds",
            s.total_queries,
            s.iterations,
            s.parallel_queries,
            100.0 * s.parallel_fraction
        );
        println!("paper:   \"more than 90% of queries were submitted in parallel\" (3D)\n");
        write_csv("fig2a", &table);
    }

    if want("--fig2b") {
        let (table, s) = fig2(scale, 2, 40);
        println!("{}", table.render());
        println!(
            "summary: {} queries over {} iterations; {} queries ({:.1}%) issued in parallel rounds",
            s.total_queries,
            s.iterations,
            s.parallel_queries,
            100.0 * s.parallel_fraction
        );
        println!("paper:   \"only one out of 45 queries issued sequentially\" (~97%, 2D)\n");
        write_csv("fig2b", &table);
    }

    if want("--fig4") {
        // The live-site latency regime: ~1.2 s per query reproduces the
        // paper's 27-queries / 33-seconds anecdote's scale.
        let latency = if scale == Scale::Full {
            Some(Duration::from_millis(1200))
        } else {
            Some(Duration::from_millis(50))
        };
        let (table, s) = fig4(scale, latency, 10);
        println!("{}", table.render());
        println!(
            "summary: {} queries, {:.1}s — paper's panel: 27 queries, 33 seconds\n",
            s.queries,
            s.wall.as_secs_f64()
        );
        write_csv("fig4", &table);
    }

    if want("--e1") {
        let table = e1(scale);
        println!("{}", table.render());
        write_csv("e1_oned", &table);
    }

    if want("--e2") {
        let table = e2(scale);
        println!("{}", table.render());
        write_csv("e2_md", &table);
    }

    if want("--e3") {
        let table = e3(scale, 6);
        println!("{}", table.render());
        write_csv("e3_amortization", &table);
    }

    if want("--e4") {
        let table = e4(scale);
        println!("{}", table.render());
        write_csv("e4_best_worst", &table);
    }

    if want("--ablations") {
        let table = ablation_dense_delta(scale, 300);
        println!("{}", table.render());
        write_csv("ablation_dense_delta", &table);

        let table = ablation_split_policy(scale);
        println!("{}", table.render());
        write_csv("ablation_split_policy", &table);

        let table = ablation_parallel_fanout(scale, Duration::from_millis(25));
        println!("{}", table.render());
        write_csv("ablation_parallel_fanout", &table);

        let table = ablation_system_k(scale);
        println!("{}", table.render());
        write_csv("ablation_system_k", &table);

        let table = ablation_session_cache(scale, 25);
        println!("{}", table.render());
        write_csv("ablation_session_cache", &table);
    }

    println!("done.");
}
