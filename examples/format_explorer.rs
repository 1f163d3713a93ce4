//! Format explorer: how padding and storage respond to matrix structure
//! across every format in the library (the §2.5/§5.1 trade-off study).
//!
//! ```sh
//! cargo run --release --example format_explorer
//! ```

use sellkit::core::{stats::FormatStats, Baij, MatShape, Sell, Sell8, SellEsb, SellSigma8};
use sellkit::workloads::generators;

fn main() {
    let cases = [
        ("5-pt stencil 128x128", generators::stencil5(128)),
        ("9-pt stencil 96x96", generators::stencil9(96)),
        ("3D 7-pt stencil 24^3", generators::stencil7_3d(24)),
        ("banded n=16k band=3", generators::banded(16_384, 3, 1)),
        (
            "random uniform 9/row",
            generators::random_uniform(10_000, 9, 2),
        ),
        (
            "power-law rows",
            generators::power_law(10_000, 2, 256, 1.2, 3),
        ),
        ("diagonal", generators::diagonal(10_000, 4)),
    ];

    for (name, a) in &cases {
        println!(
            "== {name}  ({} x {}, nnz {})",
            a.nrows(),
            a.ncols(),
            a.nnz()
        );
        println!("  {}", FormatStats::for_csr(a));
        let sell = Sell8::from_csr(a);
        println!("  {}", FormatStats::for_sell(&sell));
        println!("  {}", FormatStats::for_sell_esb(&SellEsb::from_csr(a)));
        // §2.5: unsliced ELLPACK would pad every row to the longest one.
        println!(
            "  unsliced ELLPACK would be {:.2}% padding",
            100.0 * (1.0 - a.nnz() as f64 / (a.nrows() * a.max_row_len()) as f64)
        );
        if a.nrows() % 2 == 0 {
            println!("  {}", FormatStats::for_baij(&Baij::from_csr(a, 2)));
        }
        // σ-sorting: how much padding does SELL-C-σ recover?
        let sigma = SellSigma8::from_csr_sigma(a, a.nrows());
        println!(
            "  SELL sigma=global: padding {:.2}% (vs {:.2}% unsorted)",
            sigma.padding_ratio() * 100.0,
            sell.padding_ratio() * 100.0
        );
        // Slice-height sweep (§5.1: lower C, less padding).
        let p1 = Sell::<1>::from_csr(a).padding_ratio();
        let p4 = Sell::<4>::from_csr(a).padding_ratio();
        let p16 = Sell::<16>::from_csr(a).padding_ratio();
        println!(
            "  padding by slice height: C=1 {:.2}%  C=4 {:.2}%  C=8 {:.2}%  C=16 {:.2}%\n",
            p1 * 100.0,
            p4 * 100.0,
            Sell8::from_csr(a).padding_ratio() * 100.0,
            p16 * 100.0
        );
    }
}
