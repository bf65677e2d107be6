//! Regenerates the **§6.4 "Other Metrics"** ablation: KL divergence vs.
//! the symmetric JS divergence and JS distance, across the nine
//! benchmarks that need behavioral analysis.
//!
//! The paper: "These other metrics performed poorly compared to the DKL
//! metric we used. This is most likely because these are symmetric
//! methods while our problem is inherently asymmetric."
//!
//! ```text
//! cargo run -p rock-bench --bin metric_ablation
//! ```

use rock_bench::run_benchmark;
use rock_core::suite::all_benchmarks;
use rock_core::RockConfig;
use rock_slm::Metric;

fn main() {
    let benches: Vec<_> =
        all_benchmarks().into_iter().filter(|b| !b.structurally_resolvable).collect();

    println!(
        "{:<18} | {:>13} | {:>13} | {:>13}",
        "benchmark", "KL (m/a)", "JS-div (m/a)", "JS-dist (m/a)"
    );
    println!("{}", "-".repeat(70));

    let mut totals = vec![(0.0, 0.0); Metric::ALL.len()];
    for bench in &benches {
        let mut cells = Vec::new();
        for (mi, metric) in Metric::ALL.iter().enumerate() {
            let eval = run_benchmark(bench, RockConfig::with_metric(*metric));
            totals[mi].0 += eval.with_slm.avg_missing;
            totals[mi].1 += eval.with_slm.avg_added;
            cells.push(format!(
                "{:>5.2}/{:<5.2}",
                eval.with_slm.avg_missing, eval.with_slm.avg_added
            ));
        }
        println!("{:<18} | {} | {} | {}", bench.name, cells[0], cells[1], cells[2]);
    }
    println!("{}", "-".repeat(70));
    let n = benches.len() as f64;
    print!("{:<18} |", "mean");
    for (m, a) in &totals {
        print!(" {:>5.2}/{:<5.2} |", m / n, a / n);
    }
    println!();

    let kl_err = totals[0].0 + totals[0].1;
    let js_err = totals[1].0 + totals[1].1;
    let jsd_err = totals[2].0 + totals[2].1;
    println!("\ntotal error: KL {kl_err:.2}, JS-divergence {js_err:.2}, JS-distance {jsd_err:.2}");
    if kl_err <= js_err && kl_err <= jsd_err {
        println!("KL (asymmetric) wins — matches the paper's §6.4 observation.");
    } else {
        println!("WARNING: a symmetric metric won; the paper's observation did not hold.");
    }
}
