//! **Figure 13**: full-accelerator area and power (standard cells + SRAM
//! macros) at 200 MHz / 0.9 V, for 8×8, 16×16 and 32×32 arrays across all
//! five datapaths, with the component breakdown.
//!
//! Reproduction target: Posit8 ≈ 30% smaller / 26% lower power than BF16,
//! FP8 ≈ 34% / 32%; FP8 keeps a small edge over Posit8 overall while the
//! Posit8 vector unit is the smaller of the two.

use qt_accel::{Accelerator, Datapath, SynthesisPoint, Tech40};
use qt_bench::{Opts, Table};

fn main() {
    let opts = Opts::parse();
    let tech = Tech40::default();
    let pt = SynthesisPoint::nominal();

    let mut table = Table::new(
        "Figure 13: accelerator area (mm2) / power (mW) at 200 MHz, 0.9 V",
        &[
            "Size",
            "Datapath",
            "Array",
            "Vector",
            "Codecs",
            "SRAM",
            "Total area",
            "Total power",
            "vs BF16",
        ],
    );
    for n in [8u32, 16, 32] {
        let bf_total = Accelerator::new(n, Datapath::Bf16).synth(&tech, pt).total();
        for d in Datapath::ALL {
            let r = Accelerator::new(n, d).synth(&tech, pt);
            let t = r.total();
            table.row(&[
                format!("{n}x{n}"),
                d.name().into(),
                format!("{:.3}", r.array.area_mm2),
                format!("{:.3}", r.vector.area_mm2),
                format!("{:.3}", r.codecs.area_mm2),
                format!("{:.3}", r.sram.area_mm2),
                format!("{:.3}", t.area_mm2),
                format!("{:.1}", t.power_mw),
                format!("{:+.1}%", 100.0 * (t.area_mm2 / bf_total.area_mm2 - 1.0)),
            ]);
        }
    }
    table.print();

    // headline averages
    let mut p8a = 0.0;
    let mut p8p = 0.0;
    let mut f8a = 0.0;
    let mut f8p = 0.0;
    for n in [8u32, 16, 32] {
        let bf = Accelerator::new(n, Datapath::Bf16).synth(&tech, pt).total();
        let p8 = Accelerator::new(n, Datapath::Posit8)
            .synth(&tech, pt)
            .total();
        let f8 = Accelerator::new(n, Datapath::HybridFp8)
            .synth(&tech, pt)
            .total();
        p8a += 1.0 - p8.area_mm2 / bf.area_mm2;
        p8p += 1.0 - p8.power_mw / bf.power_mw;
        f8a += 1.0 - f8.area_mm2 / bf.area_mm2;
        f8p += 1.0 - f8.power_mw / bf.power_mw;
    }
    println!(
        "average vs BF16: Posit8 area -{:.0}% power -{:.0}% (paper 30/26); FP8 area -{:.0}% power -{:.0}% (paper 34/32)",
        100.0 * p8a / 3.0,
        100.0 * p8p / 3.0,
        100.0 * f8a / 3.0,
        100.0 * f8p / 3.0
    );
    table
        .write_json(&opts.out_dir, "fig13_accel_area_power")
        .expect("write results");
}
