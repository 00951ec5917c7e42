//! Table I: survey of distributed entangling generation (no
//! distillation) across hardware platforms.

/// One row of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformEntry {
    /// Platform name with citation index as in the paper.
    pub platform: &'static str,
    /// Remote entanglement fidelity (fraction, not percent).
    pub fidelity: f64,
    /// Whether the fidelity was estimated with post-selection (may be
    /// overestimated; the paper marks these with `*`).
    pub post_selected: bool,
    /// Human-readable clock speed.
    pub clock_speed: &'static str,
    /// Clock speed in Hz (order of magnitude for `~` entries).
    pub clock_hz: f64,
    /// Whether the capability was demonstrated experimentally.
    pub experimental: bool,
}

/// The paper's Table I rows, in order.
#[must_use]
pub fn table1_entries() -> Vec<PlatformEntry> {
    vec![
        PlatformEntry {
            platform: "Superconducting [33]",
            fidelity: 0.793,
            post_selected: false,
            clock_speed: "~MHz",
            clock_hz: 1e6,
            experimental: true,
        },
        PlatformEntry {
            platform: "Quantum dot [54]",
            fidelity: 0.616,
            post_selected: false,
            clock_speed: "7.3 kHz",
            clock_hz: 7.3e3,
            experimental: true,
        },
        PlatformEntry {
            platform: "Trapped ion [36]",
            fidelity: 0.861,
            post_selected: false,
            clock_speed: "9.7 Hz",
            clock_hz: 9.7,
            experimental: true,
        },
        PlatformEntry {
            platform: "Trapped ion [53]",
            fidelity: 0.940,
            post_selected: false,
            clock_speed: "182 Hz",
            clock_hz: 182.0,
            experimental: true,
        },
        PlatformEntry {
            platform: "Neutral atom [50]",
            fidelity: 0.987,
            post_selected: true,
            clock_speed: "30 Hz",
            clock_hz: 30.0,
            experimental: true,
        },
        PlatformEntry {
            platform: "Neutral atom [34]",
            fidelity: 0.999,
            post_selected: false,
            clock_speed: "~100 kHz",
            clock_hz: 1e5,
            experimental: false,
        },
        PlatformEntry {
            platform: "Photonic [47][1]",
            fidelity: 0.9972,
            post_selected: true,
            clock_speed: "~MHz",
            clock_hz: 1e6,
            experimental: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_seven_rows() {
        assert_eq!(table1_entries().len(), 7);
    }

    #[test]
    fn fidelities_are_fractions() {
        for e in table1_entries() {
            assert!((0.0..=1.0).contains(&e.fidelity), "{}", e.platform);
        }
    }

    #[test]
    fn only_photonics_meets_both_thresholds_experimentally() {
        // Section I's DQC viability thresholds (from Sinclair et al.):
        // remote entanglement fidelity of at least 90% and a MHz clock.
        let experimental: Vec<PlatformEntry> = table1_entries()
            .into_iter()
            .filter(|e| e.experimental && e.fidelity >= 0.90 && e.clock_hz >= 1e6)
            .collect();
        assert_eq!(experimental.len(), 1);
        assert!(experimental[0].platform.starts_with("Photonic"));
    }

    #[test]
    fn trapped_ion_has_highest_non_postselected_demonstrated_fidelity() {
        let best = table1_entries()
            .into_iter()
            .filter(|e| e.experimental && !e.post_selected)
            .max_by(|a, b| a.fidelity.total_cmp(&b.fidelity))
            .unwrap();
        assert!(best.platform.starts_with("Trapped ion"));
        assert!((best.fidelity - 0.94).abs() < 1e-9);
    }
}
