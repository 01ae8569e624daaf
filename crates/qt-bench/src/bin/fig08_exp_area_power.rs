//! **Figure 8**: exponential-unit area and post-synthesis power vs target
//! frequency (0.9 V), for BF16/FP16 exact units and posit8/posit16
//! approximate units.
//!
//! Reproduction target: at 200 MHz the posit16 approximate unit is
//! substantially (paper: 62%) smaller and lower power (44%) than BF16, and
//! all curves grow with frequency.

use qt_accel::{ExpUnit, SynthesisPoint, Tech40};
use qt_bench::{Opts, Table};

fn main() {
    let opts = Opts::parse();
    let tech = Tech40::default();
    let units: [(&str, ExpUnit); 4] = [
        ("BF16 exact", ExpUnit::bf16_exact()),
        ("FP16 exact", ExpUnit::fp16_exact()),
        ("Posit16 approx", ExpUnit::posit16_approx()),
        ("Posit8 approx", ExpUnit::posit8_approx()),
    ];

    let mut table = Table::new(
        "Figure 8: exponential unit area (um2) / power (uW) vs frequency",
        &["Freq (MHz)", "BF16", "FP16", "Posit16~", "Posit8~"],
    );
    for f in [100.0, 200.0, 300.0, 400.0, 500.0] {
        let pt = SynthesisPoint {
            freq_mhz: f,
            fmax_mhz: 800.0,
        };
        let mut cells = vec![format!("{f}")];
        for (_, u) in &units {
            let ap = u.synth(&tech, pt);
            cells.push(format!("{:.0}/{:.1}", ap.area_mm2 * 1e6, ap.power_mw * 1e3));
        }
        table.row(&cells);
    }
    table.print();

    let pt = SynthesisPoint::nominal();
    let bf = ExpUnit::bf16_exact().synth(&tech, pt);
    let p16 = ExpUnit::posit16_approx().synth(&tech, pt);
    println!(
        "at 200 MHz: posit16 approx is {:.0}% smaller, {:.0}% lower power than BF16 (paper: 62%, 44%)",
        100.0 * (1.0 - p16.area_mm2 / bf.area_mm2),
        100.0 * (1.0 - p16.power_mw / bf.power_mw)
    );
    table
        .write_json(&opts.out_dir, "fig08_exp_area_power")
        .expect("write results");
}
