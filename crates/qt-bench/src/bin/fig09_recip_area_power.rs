//! **Figure 9**: reciprocal-unit area and power vs target frequency —
//! float dividers vs the posit NOT-gate reciprocal.
//!
//! Reproduction target: at 200 MHz the posit16 approximate reciprocal is
//! ~85% smaller and ~75% lower power than the BF16 divider.

use qt_accel::{RecipUnit, SynthesisPoint, Tech40};
use qt_bench::{Opts, Table};

fn main() {
    let opts = Opts::parse();
    let tech = Tech40::default();
    let units: [(&str, RecipUnit); 4] = [
        ("BF16 divider", RecipUnit::bf16_divider()),
        ("FP16 divider", RecipUnit::fp16_divider()),
        ("Posit16 approx", RecipUnit::posit16_approx()),
        ("Posit8 approx", RecipUnit::posit8_approx()),
    ];

    let mut table = Table::new(
        "Figure 9: reciprocal unit area (um2) / power (uW) vs frequency",
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
            cells.push(format!("{:.0}/{:.2}", ap.area_mm2 * 1e6, ap.power_mw * 1e3));
        }
        table.row(&cells);
    }
    table.print();

    let pt = SynthesisPoint::nominal();
    let bf = RecipUnit::bf16_divider().synth(&tech, pt);
    let p16 = RecipUnit::posit16_approx().synth(&tech, pt);
    println!(
        "at 200 MHz: posit16 approx is {:.0}% smaller, {:.0}% lower power than the BF16 divider (paper: 85%, 75%)",
        100.0 * (1.0 - p16.area_mm2 / bf.area_mm2),
        100.0 * (1.0 - p16.power_mw / bf.power_mw)
    );
    table
        .write_json(&opts.out_dir, "fig09_recip_area_power")
        .expect("write results");
}
