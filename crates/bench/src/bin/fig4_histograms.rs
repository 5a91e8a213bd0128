//! Figure 4: histograms (200 bins) of the four continuous features without
//! joint clustering — time interval, CRC rate, set point and pressure
//! measurement — over normal traffic.
//!
//! The paper reads off that time interval and CRC rate form natural
//! clusters (hence k-means) while set point and pressure do not (hence even
//! intervals); the printed summaries verify the same shape.

use icsad_bench::{banner, sparkline, BenchScale, Histogram};

fn print_feature(name: &str, values: &[f64], bins: usize) {
    let hist = Histogram::from_values(values, bins).expect("non-empty feature values");
    let densities = hist.densities();
    println!("\n--- {name} ---");
    println!(
        "  n = {}, range = [{:.4}, {:.4}]",
        hist.total(),
        hist.lo(),
        hist.hi()
    );
    // Print the sparkline in 2 lines of 100 bins for terminal width.
    let half = densities.len() / 2;
    println!("  [{}]", sparkline(&densities[..half]));
    println!("  [{}]", sparkline(&densities[half..]));
    // Top-5 most populated bins: the "clusters" visible in Fig. 4.
    let mut order: Vec<usize> = (0..densities.len()).collect();
    order.sort_by(|&a, &b| densities[b].partial_cmp(&densities[a]).unwrap());
    println!("  heaviest bins:");
    for &b in order.iter().take(5) {
        if densities[b] > 0.0 {
            println!(
                "    center {:>10.4}  density {:.4}",
                hist.bin_center(b),
                densities[b]
            );
        }
    }
    // Occupancy: how many bins hold any mass (clustered features -> few).
    let occupied = densities.iter().filter(|&&d| d > 0.0).count();
    println!("  occupied bins: {occupied}/{bins}");
}

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Figure 4 — continuous feature histograms (200 bins)",
        &scale,
    );

    // Normal traffic only, as in the paper's training phase.
    let mut clean = scale.clone();
    clean.attack_probability = 0.0;
    let dataset = clean.dataset();
    let records = dataset.records();

    let time_intervals: Vec<f64> = records.iter().skip(1).map(|r| r.time_interval).collect();
    let crc_rates: Vec<f64> = records.iter().map(|r| r.crc_rate).collect();
    let setpoints: Vec<f64> = records.iter().filter_map(|r| r.setpoint).collect();
    let pressures: Vec<f64> = records.iter().filter_map(|r| r.pressure).collect();

    print_feature("time interval (s)", &time_intervals, 200);
    print_feature("crc rate", &crc_rates, 200);
    print_feature("setpoint (PSI)", &setpoints, 200);
    print_feature("pressure measurement (PSI)", &pressures, 200);

    println!(
        "\nreading: time interval + crc rate occupy few bins (natural clusters\n→ k-means); setpoint occupies one bin per legal operating point;\npressure spreads continuously (→ even-interval partition). Matches the\npaper's discretization choices in Table III."
    );
}
