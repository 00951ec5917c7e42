//! Why the required photon lifetime matters: translate compiled
//! lifetimes into physical loss probabilities at realistic clock rates
//! (the Figure 1 narrative of the paper), and show how distribution
//! moves programs back under the delay-line budget.
//!
//! Run with:
//! ```text
//! cargo run --release --example photon_lifetime_study
//! ```

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig};
use mbqc_circuit::bench;
use mbqc_hardware::loss;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_pattern::transpile::transpile;

fn main() {
    // Figure 1 headline: the same 5000-cycle storage is harmless at
    // 1 ns/cycle but fatal at 100 ns/cycle.
    println!("photon loss after 5000 stored cycles:");
    for ns in loss::FIGURE1_CLOCK_RATES_NS {
        println!(
            "  {:>5.0} ns/cycle -> {:>6.2}% loss",
            ns,
            100.0 * loss::loss_probability(5000, ns)
        );
    }
    println!(
        "  (experimental fusion failure reference: {:.0}%)\n",
        100.0 * loss::FUSION_FAILURE_RATE
    );

    // Compile QFT-36 monolithically and on 8 QPUs; compare the loss a
    // photon accrues over the *required lifetime* at each clock rate.
    let circuit = bench::qft(36);
    let pattern = transpile(&circuit);
    let hw = DistributedHardware::builder()
        .num_qpus(8)
        .grid_width(bench::grid_size_for(36))
        .resource_state(ResourceStateKind::FOUR_RING)
        .kmax(4)
        .build();
    let compiler = DcMbqcCompiler::new(DcMbqcConfig::new(hw));
    let baseline = compiler.compile_baseline_pattern(&pattern).unwrap();
    let distributed = compiler.compile_pattern(&pattern).unwrap();

    let b = baseline.required_photon_lifetime();
    let d = distributed.required_photon_lifetime();
    println!("QFT-36 required photon lifetime: {b} cycles monolithic, {d} cycles on 8 QPUs\n");
    println!("worst-photon loss probability at that lifetime:");
    println!("  rate        monolithic   8 QPUs");
    for ns in loss::FIGURE1_CLOCK_RATES_NS {
        println!(
            "  {:>5.0} ns     {:>8.4}%  {:>7.4}%",
            ns,
            100.0 * loss::loss_probability(b, ns),
            100.0 * loss::loss_probability(d, ns)
        );
    }

    // Delay-line budgeting: how long a program fits a 5%-loss line.
    println!("\ndelay-line budget check (5% loss):");
    for ns in loss::FIGURE1_CLOCK_RATES_NS {
        let budget = loss::max_cycles_for_loss(0.05, ns);
        println!(
            "  {:>5.0} ns/cycle: budget {:>6} cycles | monolithic fits: {:5} | 8 QPUs fits: {}",
            ns,
            budget,
            b <= budget,
            d <= budget
        );
    }
}
