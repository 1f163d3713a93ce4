//! Prints one paper exhibit, or every one in order.
//!
//! ```sh
//! cargo run --release -p sellkit-bench --bin exhibit -- <name|all> [--no-measure]
//! ```
//!
//! `--no-measure` prints only the modeled sections.  An unknown name exits
//! 2 and lists the known ones.

use sellkit_bench::figures::EXHIBITS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let measure = !args.iter().any(|a| a == "--no-measure");
    let picked: Vec<_> = match args.iter().find(|a| *a != "--no-measure") {
        Some(name) if name == "all" => EXHIBITS.iter().collect(),
        Some(name) => EXHIBITS.iter().filter(|(e, _)| e == name).collect(),
        None => Vec::new(),
    };
    if picked.is_empty() {
        let names: Vec<&str> = EXHIBITS.iter().map(|(e, _)| *e).collect();
        eprintln!(
            "usage: exhibit <name|all> [--no-measure]\nnames: {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let divider = "\n".to_string() + &"=".repeat(78) + "\n\n";
    let sections: Vec<String> = picked.iter().map(|(_, f)| f(measure)).collect();
    print!("{}", sections.join(&divider));
}
