//! `repro` — regenerate every table and figure of the DC-MBQC paper.
//!
//! ```text
//! Usage: repro [--quick] [--csv] <experiment>...
//!
//! Experiments: table1 figure1 table2 table3 table4 table5 table6
//!              figure7 figure8 figure9 figure10 all
//!
//! --quick   restrict each experiment to its smallest sizes
//! --csv     emit CSV instead of aligned text
//! ```

use mbqc_bench::{experiments, Scale};
use mbqc_util::TextTable;

fn usage() -> ! {
    eprintln!(
        "Usage: repro [--quick] [--csv] <experiment>...\n\
         Experiments: table1 figure1 table2 table3 table4 table5 table6\n\
         \x20            figure7 figure8 figure9 figure10 all"
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::Full;
    let mut csv = false;
    let mut selected: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--csv" => csv = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        usage();
    }
    if selected.iter().any(|s| s == "all") {
        selected = [
            "table1", "figure1", "table2", "table3", "table4", "table5", "table6", "figure7",
            "figure8", "figure9", "figure10",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
    }

    let render = |t: &TextTable| {
        if csv {
            print!("{}", t.render_csv());
        } else {
            println!("{}", t.render());
        }
    };
    for name in &selected {
        let started = std::time::Instant::now();
        let table = match name.as_str() {
            "table1" => experiments::table1(),
            "figure1" => experiments::figure1(),
            "table2" => experiments::table2(scale),
            "table3" => experiments::table3(scale),
            "table4" => experiments::table4(scale),
            "table5" => experiments::table5(scale),
            "table6" => experiments::table6(scale),
            "figure7" => experiments::figure7(scale),
            "figure8" => experiments::figure8(scale),
            "figure9" => experiments::figure9(scale),
            "figure10" => experiments::figure10(scale),
            other => {
                eprintln!("unknown experiment: {other}");
                usage();
            }
        };
        render(&table);
        if !csv {
            println!("[{name} generated in {:.1?}]\n", started.elapsed());
        }
    }
}
