//! Tier-1 conformance gate: a pinned-seed slice of the hf-audit
//! differential layout sweep. Every sampled `(p,t,d) × regrouping ×
//! optimizer-sharding` configuration must reproduce the `1-1-1`
//! single-device reference byte for byte — weights, Adam moments,
//! logprobs, and generated token streams. The full ≥200-config sweep
//! runs as `hf-bench audit_sweep`; this slice keeps the invariant
//! under plain `cargo test`.

use hf_audit::{sample_configs, sweep};

#[test]
fn pinned_mini_sweep_matches_reference_bit_for_bit() {
    let configs = sample_configs(16, 4, 0xA0D17);
    let report = sweep(&configs, 1, |_, _| {});
    assert!(report.checked > 16, "reference runs must be counted too");
    assert!(
        report.clean(),
        "cross-layout divergences:\n{}",
        report
            .divergences
            .iter()
            .map(|d| {
                let min =
                    d.minimal.map(|m| format!(" (minimal: {})", m.label())).unwrap_or_default();
                format!("  {}: {}{min}", d.config.label(), d.detail)
            })
            .collect::<Vec<_>>()
            .join("\n")
    );
}
