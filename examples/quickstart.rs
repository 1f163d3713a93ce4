//! Quickstart: assemble a sparse matrix, convert it between formats, run
//! vectorized SpMV, and inspect the §6 traffic model.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sellkit::core::{
    stats::FormatStats, traffic, Apply, CooBuilder, ExecCtx, Isa, MatShape, Operator, Sell8,
    SellEsb,
};

fn main() {
    // 1. Assemble a 1D Laplacian with the COO builder (PETSc MatSetValues
    //    style: push entries, duplicates accumulate).
    let n = 64;
    let mut coo = CooBuilder::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0);
        if i > 0 {
            coo.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
        }
    }
    let csr = coo.to_csr();

    // 2. Convert to the paper's sliced ELLPACK (slice height 8).
    let sell = Sell8::from_csr(&csr);
    println!(
        "SELL-8: {} slices, padding ratio {:.2}%",
        sell.nslices(),
        sell.padding_ratio() * 100.0
    );

    // 3. SpMV. The widest ISA on this CPU is picked automatically; you can
    //    force a tier to compare (the Figure 8 experiment in miniature).
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    sell.apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
    println!(
        "y[0..4] = {:?}   (detected ISA: {})",
        &y[0..4],
        Isa::detect()
    );

    for isa in Isa::available_tiers() {
        let mut yi = vec![0.0; n];
        sell.spmv_isa(isa, &x, &mut yi);
        assert_eq!(y, yi, "all ISA tiers agree bit-for-bit on this matrix");
    }

    // 4. Compare storage across every format in the crate.
    println!("\nstorage comparison:");
    println!("  {}", FormatStats::for_csr(&csr));
    println!("  {}", FormatStats::for_sell(&sell));
    println!("  {}", FormatStats::for_sell_esb(&SellEsb::from_csr(&csr)));
    // §2.5: unsliced ELLPACK would pad every row to the longest one.
    println!(
        "  unsliced ELLPACK would be {:.2}% padding",
        100.0 * (1.0 - csr.nnz() as f64 / (csr.nrows() * csr.max_row_len()) as f64)
    );

    // 5. Minimum traffic: the paper's §6 model for CSR, and for SELL the
    // stream its kernel moves (2-byte column offsets where a slice allows;
    // `traffic::sell_traffic` is the paper's 12 B/nnz formula).
    let tc = traffic::for_csr(&csr);
    let ts = traffic::for_sell(&sell);
    println!(
        "\ntraffic per SpMV:  CSR {} B (AI {:.3})   SELL {} B (AI {:.3})",
        tc.bytes,
        tc.arithmetic_intensity(),
        ts.bytes,
        ts.arithmetic_intensity()
    );
}
