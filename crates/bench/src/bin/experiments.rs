//! Experiment runner regenerating the paper's tables and figures.

use aegis_bench::experiments;
use aegis_bench::ExpConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        let n = args
            .get(pos + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                eprintln!("error: --threads needs a positive integer");
                std::process::exit(2);
            });
        aegis::par::set_threads(n);
    }
    let mut skip_value = false;
    let ids: Vec<&String> = args
        .iter()
        .filter(|a| {
            if skip_value {
                skip_value = false;
                return false;
            }
            if *a == "--threads" {
                skip_value = true;
                return false;
            }
            !a.starts_with("--")
        })
        .collect();
    let cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };

    if ids.is_empty() || ids[0] == "list" {
        println!("Usage: experiments <id ...|all> [--quick] [--threads N]\n\nExperiments:");
        for (id, desc) in experiments::EXPERIMENTS {
            println!("  {id:<10} {desc}");
        }
        return;
    }
    eprintln!("[worker threads: {}]", aegis::par::get_threads());
    let started = std::time::Instant::now();
    if ids[0] == "all" {
        experiments::run_all(&cfg);
    } else {
        for id in ids {
            experiments::run(id, &cfg);
        }
    }
    eprintln!(
        "\n[experiments completed in {:.1}s]",
        started.elapsed().as_secs_f64()
    );

    // End-of-run observability summary: spans (including one per
    // experiment id from run_all), counters, and histograms. The `[obs] `
    // prefix keeps the lines filterable from stdout-determinism diffs.
    if aegis::obs::enabled() {
        aegis::obs::flush();
        for line in aegis::obs::render_summary(&aegis::obs::snapshot()).lines() {
            eprintln!("[obs] {line}");
        }
    }
}
