//! Prints one paper exhibit, or every one in order.
//!
//! ```sh
//! cargo run --release -p sellkit-bench --bin exhibit -- <name|all>
//! ```
//!
//! An unknown name exits 2 and lists the known ones.

use sellkit_bench::figures::EXHIBITS;

fn main() {
    let picked: Vec<_> = match std::env::args().nth(1) {
        Some(name) if name == "all" => EXHIBITS.iter().collect(),
        Some(name) => EXHIBITS.iter().filter(|(e, _)| *e == name).collect(),
        None => Vec::new(),
    };
    if picked.is_empty() {
        let names: Vec<&str> = EXHIBITS.iter().map(|(e, _)| *e).collect();
        eprintln!("usage: exhibit <name|all>\nnames: {}", names.join(" "));
        std::process::exit(2);
    }
    let divider = "\n".to_string() + &"=".repeat(78) + "\n\n";
    let sections: Vec<String> = picked.iter().map(|(_, f)| f()).collect();
    print!("{}", sections.join(&divider));
}
