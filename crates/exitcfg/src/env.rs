use serde::{Deserialize, Serialize};

/// Environment parameters for the exit-setting cost model: the average
/// capabilities the paper denotes `F^d_av`, `F^e_av`, `F^c` and the
/// device↔edge / edge↔cloud link characteristics (`B^e_av`, `L^e_av`,
/// `B^c_av`, `L^c_av`; Table I).
///
/// All compute rates are FLOPS, bandwidths bits/second, latencies seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvParams {
    /// Average available device FLOPS `F^d_av`.
    pub device_flops: f64,
    /// Average available edge FLOPS `F^e_av` (the share this device sees).
    pub edge_flops: f64,
    /// Cloud FLOPS `F^c`.
    pub cloud_flops: f64,
    /// Device→edge bandwidth `B^e_av` in bits/second.
    pub edge_bandwidth_bps: f64,
    /// Device→edge connection latency `L^e_av` in seconds.
    pub edge_latency_s: f64,
    /// Edge→cloud bandwidth `B^c_av` in bits/second.
    pub cloud_bandwidth_bps: f64,
    /// Edge→cloud connection latency `L^c_av` in seconds.
    pub cloud_latency_s: f64,
}

impl EnvParams {
    /// Validates that all rates are positive and latencies non-negative.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let pos = [
            ("device_flops", self.device_flops),
            ("edge_flops", self.edge_flops),
            ("cloud_flops", self.cloud_flops),
            ("edge_bandwidth_bps", self.edge_bandwidth_bps),
            ("cloud_bandwidth_bps", self.cloud_bandwidth_bps),
        ];
        for (name, v) in pos {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be finite and positive, got {v}"));
            }
        }
        let nonneg = [
            ("edge_latency_s", self.edge_latency_s),
            ("cloud_latency_s", self.cloud_latency_s),
        ];
        for (name, v) in nonneg {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        Ok(())
    }

    /// The paper's weak end device: a Raspberry Pi 3B+ behind WiFi, with
    /// the i7 edge and V100 cloud. Effective DNN throughputs (not peak
    /// datasheet FLOPS) chosen to reproduce the paper's reported ratios:
    /// Nano ≈ 8.2× Pi, edge desktop ≫ device, V100 cloud ≫ edge.
    pub fn raspberry_pi() -> Self {
        EnvParams {
            device_flops: 1.0e9,
            edge_flops: 12.0e9,
            cloud_flops: 5.0e12,
            edge_bandwidth_bps: 10.0e6,
            edge_latency_s: 0.02,
            cloud_bandwidth_bps: 100.0e6,
            cloud_latency_s: 0.05,
        }
    }

    /// The paper's strong end device: a Jetson Nano (8.2× the Pi on
    /// Inception v3 per §II-A).
    pub fn jetson_nano() -> Self {
        EnvParams {
            device_flops: 8.2e9,
            ..EnvParams::raspberry_pi()
        }
    }

    /// Returns a copy with the device→edge link changed (Fig. 7 sweeps).
    pub fn with_edge_link(mut self, bandwidth_bps: f64, latency_s: f64) -> Self {
        self.edge_bandwidth_bps = bandwidth_bps;
        self.edge_latency_s = latency_s;
        self
    }

    /// Returns a copy with the effective edge FLOPS scaled by `factor` —
    /// models edge load (Fig. 2b) or a per-device share `p_i · F^e`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn with_edge_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "edge scale must be positive, got {factor}");
        self.edge_flops *= factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(EnvParams::raspberry_pi().validate().is_ok());
        assert!(EnvParams::jetson_nano().validate().is_ok());
    }

    #[test]
    fn nano_is_8x_pi() {
        let ratio = EnvParams::jetson_nano().device_flops / EnvParams::raspberry_pi().device_flops;
        assert!((ratio - 8.2).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut e = EnvParams::raspberry_pi();
        e.edge_bandwidth_bps = 0.0;
        assert!(e.validate().is_err());
        let mut e = EnvParams::raspberry_pi();
        e.edge_latency_s = -1.0;
        assert!(e.validate().is_err());
        let mut e = EnvParams::raspberry_pi();
        e.device_flops = f64::NAN;
        assert!(e.validate().is_err());
        let mut e = EnvParams::raspberry_pi();
        e.cloud_latency_s = f64::INFINITY;
        assert_eq!(
            e.validate(),
            Err("cloud_latency_s must be finite and non-negative, got inf".to_string())
        );
    }

    #[test]
    fn builders_modify_copies() {
        let base = EnvParams::raspberry_pi();
        let tweaked = base.with_edge_link(1e6, 0.2).with_edge_scale(0.5);
        assert_eq!(tweaked.edge_bandwidth_bps.to_bits(), 1e6_f64.to_bits());
        assert_eq!(tweaked.edge_latency_s.to_bits(), 0.2_f64.to_bits());
        assert_eq!(
            tweaked.edge_flops.to_bits(),
            f64::to_bits(base.edge_flops * 0.5)
        );
        assert_eq!(base.edge_bandwidth_bps.to_bits(), 10e6_f64.to_bits()); // untouched
    }
}
