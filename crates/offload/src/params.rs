use serde::{Deserialize, Serialize};

/// System-wide parameters of the slotted offloading model.
///
/// Derived from the chosen ME-DNN partition (block FLOPs and boundary data
/// sizes) plus the edge capability and control constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedParams {
    /// Slot length `τ` in seconds.
    pub slot_len_s: f64,
    /// Lyapunov trade-off parameter `V` (larger = favour delay over queue
    /// backlog; `f64::INFINITY` selects the pure balance solver of
    /// §III-D4).
    pub v: f64,
    /// First-block FLOPs `μ_1` (device block incl. First-exit classifier).
    pub mu1: f64,
    /// Second-block FLOPs `μ_2` (edge block incl. Second-exit classifier).
    pub mu2: f64,
    /// First-exit cumulative exit rate `σ_1`.
    pub sigma1: f64,
    /// Raw input bytes `d_0`.
    pub d0_bytes: f64,
    /// First-exit intermediate activation bytes `d_1`.
    pub d1_bytes: f64,
    /// Total edge FLOPS `F^e`.
    pub edge_flops: f64,
}

impl SharedParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    // `!(x > 0)` deliberately rejects NaN as well as non-positive values.
    #[allow(clippy::neg_cmp_op_on_partial_ord, reason = "rejects NaN too")]
    pub fn validate(&self) -> Result<(), String> {
        if !(self.slot_len_s > 0.0) {
            return Err(format!(
                "slot_len_s must be positive, got {}",
                self.slot_len_s
            ));
        }
        if !(self.v > 0.0) {
            return Err(format!("v must be positive, got {}", self.v));
        }
        if !(self.mu1 > 0.0 && self.mu2 >= 0.0) {
            return Err(format!(
                "block FLOPs invalid: mu1 {} mu2 {}",
                self.mu1, self.mu2
            ));
        }
        if !(0.0..=1.0).contains(&self.sigma1) {
            return Err(format!("sigma1 {} outside [0, 1]", self.sigma1));
        }
        if !(self.d0_bytes > 0.0 && self.d1_bytes >= 0.0) {
            return Err(format!(
                "data sizes invalid: d0 {} d1 {}",
                self.d0_bytes, self.d1_bytes
            ));
        }
        if !(self.edge_flops > 0.0 && self.edge_flops.is_finite()) {
            return Err(format!("edge_flops invalid: {}", self.edge_flops));
        }
        Ok(())
    }
}

/// Per-device parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceParams {
    /// Device FLOPS `F_i^d`.
    pub flops: f64,
    /// Device→edge bandwidth `B_i^e` in bits/second.
    pub bandwidth_bps: f64,
    /// Device→edge connection latency `L_i^e` in seconds.
    pub latency_s: f64,
    /// Expected tasks per slot `k_i`.
    pub arrival_mean: f64,
}

impl DeviceParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.flops > 0.0 && self.flops.is_finite()) {
            return Err(format!("device flops invalid: {}", self.flops));
        }
        if !(self.bandwidth_bps > 0.0 && self.bandwidth_bps.is_finite()) {
            return Err(format!("bandwidth invalid: {}", self.bandwidth_bps));
        }
        if !(self.latency_s >= 0.0 && self.latency_s.is_finite()) {
            return Err(format!("latency invalid: {}", self.latency_s));
        }
        if !(self.arrival_mean >= 0.0 && self.arrival_mean.is_finite()) {
            return Err(format!("arrival mean invalid: {}", self.arrival_mean));
        }
        Ok(())
    }

    /// A Raspberry-Pi-like device on a 10 Mbps / 20 ms WiFi link.
    pub fn raspberry_pi(arrival_mean: f64) -> Self {
        DeviceParams {
            flops: 1.0e9,
            bandwidth_bps: 10.0e6,
            latency_s: 0.02,
            arrival_mean,
        }
    }

    /// A Jetson-Nano-like device (8.2× the Pi) on the same link.
    pub fn jetson_nano(arrival_mean: f64) -> Self {
        DeviceParams {
            flops: 8.2e9,
            ..DeviceParams::raspberry_pi(arrival_mean)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_values() {
        let mut sp = SharedParams {
            slot_len_s: 1.0,
            v: 100.0,
            mu1: 1e8,
            mu2: 1e8,
            sigma1: 0.5,
            d0_bytes: 1e4,
            d1_bytes: 1e4,
            edge_flops: 1e10,
        };
        assert!(sp.validate().is_ok());
        sp.sigma1 = 1.5;
        assert!(sp.validate().is_err());
        sp.sigma1 = 0.5;
        sp.mu1 = 0.0;
        assert!(sp.validate().is_err());
    }

    #[test]
    fn device_presets_valid() {
        assert!(DeviceParams::raspberry_pi(5.0).validate().is_ok());
        assert!(DeviceParams::jetson_nano(5.0).validate().is_ok());
        assert!(DeviceParams {
            flops: -1.0,
            ..DeviceParams::raspberry_pi(5.0)
        }
        .validate()
        .is_err());
    }
}
