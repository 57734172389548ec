//! CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p lazydp_bench --bin figures -- list
//! cargo run --release -p lazydp_bench --bin figures -- fig10
//! cargo run --release -p lazydp_bench --bin figures -- all
//! cargo run --release -p lazydp_bench --bin figures -- report > report.md
//! cargo run --release -p lazydp_bench --bin figures -- csv fig10
//! cargo run --release -p lazydp_bench --bin figures -- json adafest
//! ```

use lazydp_bench::{experiment_ids, full_report, run_experiment};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") => {
            eprintln!("usage: figures <list|all|report|csv <id>|json <id>|ID...>");
            eprintln!("experiments:");
            for (id, desc) in experiment_ids() {
                eprintln!("  {id:8} {desc}");
            }
        }
        Some("list") => {
            for (id, desc) in experiment_ids() {
                println!("{id:8} {desc}");
            }
        }
        Some("all") => {
            for (id, _) in experiment_ids() {
                let table = run_experiment(id).expect("registered id");
                println!("{}", table.markdown());
            }
        }
        Some("report") => {
            println!("{}", full_report());
        }
        Some("csv") => {
            let id = args.get(1).map(String::as_str).unwrap_or_default();
            match run_experiment(id) {
                Some(t) => println!("{}", t.csv()),
                None => {
                    eprintln!("unknown experiment: {id}");
                    std::process::exit(2);
                }
            }
        }
        Some("json") => {
            let id = args.get(1).map(String::as_str).unwrap_or_default();
            match run_experiment(id) {
                Some(t) => println!("{}", t.json()),
                None => {
                    eprintln!("unknown experiment: {id}");
                    std::process::exit(2);
                }
            }
        }
        _ => {
            let mut failed = false;
            for id in &args {
                match run_experiment(id) {
                    Some(t) => println!("{}", t.markdown()),
                    None => {
                        eprintln!("unknown experiment: {id} (try `figures list`)");
                        failed = true;
                    }
                }
            }
            if failed {
                std::process::exit(2);
            }
        }
    }
}
