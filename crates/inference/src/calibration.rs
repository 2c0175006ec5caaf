use crate::{train_exit_classifier, TrainConfig};
use leime_dnn::{DnnChain, ExitCombo, ExitRates};
use leime_invariant as invariant;
use leime_tensor::{Shape, Tensor};
use leime_workload::{FeatureCascade, Sample, SyntheticDataset};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Configuration of a full calibration run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Training-set size per exit classifier.
    pub train_samples: usize,
    /// Held-out set size for threshold search and rate/accuracy
    /// measurement.
    pub val_samples: usize,
    /// Per-classifier training hyper-parameters.
    pub train: TrainConfig,
    /// Exited-sample accuracy must reach this fraction of the final exit's
    /// accuracy for the threshold to be accepted (the paper "strictly sets
    /// the threshold … while guaranteeing inference accuracy").
    pub accuracy_target_ratio: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            train_samples: 512,
            val_samples: 512,
            train: TrainConfig::default(),
            accuracy_target_ratio: 0.98,
        }
    }
}

/// The output of a calibration run: confidence thresholds, measured
/// cumulative exit rates, and the held-out confidence/correctness
/// matrices from which any exit combo's ME-DNN accuracy can be computed
/// (Fig. 6).
#[derive(Debug, Clone)]
pub struct CalibrationResult {
    depth_fractions: Vec<f64>,
    thresholds: Vec<f64>,
    /// `conf[i][s]`: max softmax probability of val sample `s` at exit `i`.
    conf: Vec<Vec<f32>>,
    /// `correct[i][s]`: whether exit `i` classifies val sample `s` right.
    correct: Vec<Vec<bool>>,
    exit_rates: ExitRates,
    final_accuracy: f64,
}

impl CalibrationResult {
    /// Cumulative measured exit rates, directly usable by the exit-setting
    /// cost model.
    pub fn exit_rates(&self) -> &ExitRates {
        &self.exit_rates
    }

    /// Held-out accuracy of the *final* exit alone — the stand-in for the
    /// original single-exit DNN's accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.final_accuracy
    }

    /// Held-out accuracy of exit `i`'s classifier over *all* samples
    /// (no thresholding).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn exit_accuracy(&self, i: usize) -> f64 {
        let c = &self.correct[i];
        c.iter().filter(|&&x| x).count() as f64 / c.len() as f64
    }

    /// ME-DNN accuracy under early-exit inference with the given combo:
    /// each held-out sample exits at the first combo exit whose confidence
    /// clears its threshold (the Third-exit is unconditional).
    ///
    /// # Panics
    ///
    /// Panics if the combo indexes outside the calibrated exits.
    pub fn combo_accuracy(&self, combo: ExitCombo) -> f64 {
        let n = self.conf[0].len();
        let exits = [combo.first, combo.second, combo.third];
        let mut correct = 0usize;
        for s in 0..n {
            let mut used = combo.third;
            for &e in &exits[..2] {
                if f64::from(self.conf[e][s]) >= self.thresholds[e] {
                    used = e;
                    break;
                }
            }
            if self.correct[used][s] {
                correct += 1;
            }
        }
        correct as f64 / n as f64
    }

    /// Accuracy *loss* of the combo versus the original DNN (positive =
    /// worse than the single-exit network, negative = the ME-DNN is more
    /// accurate — the "overthinking" win of Fig. 6).
    pub fn combo_accuracy_loss(&self, combo: ExitCombo) -> f64 {
        self.final_accuracy - self.combo_accuracy(combo)
    }

    /// Average accuracy loss over every valid `(first, second)` combo —
    /// the per-model summary number the paper reports for Fig. 6.
    pub fn mean_accuracy_loss(&self) -> f64 {
        let m = self.conf.len();
        let mut total = 0.0;
        let mut count = 0usize;
        for first in 0..m - 2 {
            for second in first + 1..m - 1 {
                // Enumerated combos satisfy first < second < m-1, so
                // construction cannot fail; skip keeps the loop total.
                let Ok(combo) = ExitCombo::new(first, second, m - 1, m) else {
                    continue;
                };
                total += self.combo_accuracy_loss(combo);
                count += 1;
            }
        }
        total / count as f64
    }
}

/// A serialisable digest of a calibration run — the metadata a
/// deployment pipeline persists and a fleet controller ships around.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationSummary {
    /// Per-exit cumulative exit rates.
    pub exit_rates: Vec<f64>,
    /// Per-exit confidence thresholds.
    pub thresholds: Vec<f64>,
    /// Per-exit raw (unthresholded) held-out accuracy.
    pub exit_accuracy: Vec<f64>,
    /// Per-exit cumulative-FLOPs depth fractions.
    pub depth_fractions: Vec<f64>,
    /// Held-out accuracy of the final exit (the original DNN's stand-in).
    pub final_accuracy: f64,
}

impl CalibrationResult {
    /// Extracts the serialisable summary.
    pub fn summary(&self) -> CalibrationSummary {
        let m = self.conf.len();
        CalibrationSummary {
            exit_rates: self.exit_rates.as_slice().to_vec(),
            thresholds: self.thresholds.clone(),
            exit_accuracy: (0..m).map(|i| self.exit_accuracy(i)).collect(),
            depth_fractions: self.depth_fractions.clone(),
            final_accuracy: self.final_accuracy,
        }
    }
}

/// Runs the full calibration pipeline for a chain:
///
/// 1. trains one exit classifier per candidate exit at that exit's
///    cumulative-FLOPs depth fraction,
/// 2. measures held-out confidences and correctness,
/// 3. selects each exit's confidence threshold as the *loosest* one whose
///    exited-sample accuracy still reaches
///    `accuracy_target_ratio × final_accuracy`,
/// 4. derives cumulative exit rates.
///
/// # Panics
///
/// Panics if the chain and cascade disagree on the class count, or the
/// config requests zero samples.
pub fn calibrate(
    chain: &DnnChain,
    cascade: &FeatureCascade,
    dataset: &SyntheticDataset,
    config: CalibrationConfig,
    rng: &mut StdRng,
) -> CalibrationResult {
    assert_eq!(
        chain.num_classes(),
        cascade.num_classes(),
        "chain and cascade class counts differ"
    );
    assert!(
        config.train_samples > 0 && config.val_samples > 0,
        "calibration needs samples"
    );
    let m = chain.num_layers();
    let prefix = chain.flops_prefix();
    let total = chain.total_flops();
    let depth_fractions: Vec<f64> = (0..m).map(|i| prefix[i + 1] / total).collect();

    let train_set = dataset.draw_batch(config.train_samples, rng);
    let val_set: Vec<Sample> = dataset.draw_batch(config.val_samples, rng);

    let mut conf = Vec::with_capacity(m);
    let mut correct = Vec::with_capacity(m);

    for &delta in &depth_fractions {
        let mlp = train_exit_classifier(cascade, &train_set, delta, config.train, rng);
        let (mut conf_i, mut correct_i) = (
            Vec::with_capacity(val_set.len()),
            Vec::with_capacity(val_set.len()),
        );
        for &s in &val_set {
            let f = cascade.features(s, delta, rng);
            let row = f.reshape(Shape::d2(1, f.len())).unwrap_or_else(|e| {
                invariant::violation("inference.calibrate", &format!("feature reshape: {e}"))
            });
            let probs: Tensor = mlp.forward(&row).unwrap_or_else(|e| {
                invariant::violation("inference.calibrate", &format!("classifier forward: {e}"))
            });
            let (pred, c) = probs.argmax().unwrap_or_else(|| {
                invariant::violation("inference.calibrate", "softmax row is empty")
            });
            conf_i.push(c);
            correct_i.push(pred == s.class);
        }
        conf.push(conf_i);
        correct.push(correct_i);
    }

    let final_accuracy =
        correct[m - 1].iter().filter(|&&x| x).count() as f64 / correct[m - 1].len() as f64;
    let target = config.accuracy_target_ratio * final_accuracy;

    // Threshold search per exit: sort val confidences descending; take the
    // longest prefix whose accuracy still clears the target; the threshold
    // is that prefix's lowest confidence.
    let mut thresholds = vec![0.0f64; m];
    for i in 0..m - 1 {
        let mut order: Vec<usize> = (0..val_set.len()).collect();
        order.sort_by(|&a, &b| conf[i][b].total_cmp(&conf[i][a]));
        let mut best: Option<f64> = None;
        let mut hits = 0usize;
        for (taken, &s) in order.iter().enumerate() {
            if correct[i][s] {
                hits += 1;
            }
            let acc = hits as f64 / (taken + 1) as f64;
            if acc >= target {
                best = Some(f64::from(conf[i][s]));
            }
        }
        // No prefix qualifies -> threshold above 1: the exit never fires.
        thresholds[i] = best.unwrap_or(1.01);
    }
    thresholds[m - 1] = 0.0;

    // Cumulative exit rates over the held-out set.
    let n = val_set.len();
    let mut rates = Vec::with_capacity(m);
    let mut exited = vec![false; n];
    for i in 0..m {
        for (s, e) in exited.iter_mut().enumerate() {
            if !*e && f64::from(conf[i][s]) >= thresholds[i] {
                *e = true;
            }
        }
        rates.push(exited.iter().filter(|&&x| x).count() as f64 / n as f64);
    }
    rates[m - 1] = 1.0;
    let exit_rates = ExitRates::new(rates).unwrap_or_else(|e| {
        invariant::violation("inference.calibrate", &format!("measured exit rates: {e}"))
    });

    CalibrationResult {
        depth_fractions,
        thresholds,
        conf,
        correct,
        exit_rates,
        final_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leime_dnn::zoo;
    use leime_workload::CascadeParams;
    use rand::SeedableRng;

    fn small_config() -> CalibrationConfig {
        CalibrationConfig {
            train_samples: 192,
            val_samples: 256,
            train: TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
            accuracy_target_ratio: 0.95,
        }
    }

    fn run(seed: u64) -> CalibrationResult {
        let chain = zoo::squeezenet_1_0(64, 10);
        let cascade =
            FeatureCascade::new(10, CascadeParams::for_architecture("squeezenet_1_0"), seed);
        let ds = SyntheticDataset::cifar_like();
        let mut rng = StdRng::seed_from_u64(seed);
        calibrate(&chain, &cascade, &ds, small_config(), &mut rng)
    }

    #[test]
    fn rates_are_monotone_and_terminal() {
        let r = run(1);
        let rates = r.exit_rates().as_slice();
        for w in rates.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!((rates[rates.len() - 1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deeper_exits_are_more_accurate_on_average() {
        let r = run(2);
        let m = r.exit_rates().len();
        // Final exit beats the first exit on raw accuracy (hard samples
        // need depth; easy ones are fine anywhere).
        assert!(
            r.exit_accuracy(m - 1) > r.exit_accuracy(0),
            "final {} vs first {}",
            r.exit_accuracy(m - 1),
            r.exit_accuracy(0)
        );
        assert!(r.final_accuracy() > 0.5, "training failed entirely");
    }

    #[test]
    fn combo_accuracy_close_to_final() {
        // The paper's Fig. 6 headline: average accuracy loss is small
        // (≈0.4–1.6 percentage points across models).
        let r = run(3);
        let loss = r.mean_accuracy_loss();
        assert!(
            loss < 0.06,
            "mean accuracy loss {loss} too large for thresholded exits"
        );
    }

    #[test]
    fn thresholded_exits_fire_for_easy_data() {
        let r = run(4);
        // A CIFAR-like (easy-skewed) dataset must show meaningful early
        // exit mass before the final exit.
        let m = r.exit_rates().len();
        let penultimate = r.exit_rates().rate(m - 2).unwrap();
        assert!(
            penultimate > 0.2,
            "almost nothing exits early: {penultimate}"
        );
    }

    #[test]
    fn combo_accuracy_is_a_probability() {
        let r = run(5);
        let m = r.exit_rates().len();
        let combo = ExitCombo::new(0, m / 2, m - 1, m).unwrap();
        let acc = r.combo_accuracy(combo);
        assert!((0.0..=1.0).contains(&acc));
        let loss = r.combo_accuracy_loss(combo);
        assert!((-1.0..=1.0).contains(&loss));
    }

    #[test]
    fn summary_is_consistent_with_result() {
        let r = run(7);
        let s = r.summary();
        let m = r.exit_rates().len();
        assert_eq!(s.exit_rates.len(), m);
        assert_eq!(s.thresholds.len(), m);
        // Everything exits at the last exit.
        assert_eq!(s.thresholds[m - 1].to_bits(), 0f64.to_bits());
        assert_eq!(s.depth_fractions.len(), m);
        assert_eq!(s.final_accuracy.to_bits(), r.final_accuracy().to_bits());
        for i in 0..m {
            assert_eq!(s.exit_accuracy[i].to_bits(), r.exit_accuracy(i).to_bits());
        }
        // It round-trips structurally (clone + eq; wire format is covered
        // by the core crate's JSON tests).
        assert_eq!(s.clone(), s);
    }

    #[test]
    fn depth_fractions_are_monotone() {
        let r = run(6);
        let d = r.summary().depth_fractions;
        for w in d.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!((d[d.len() - 1] - 1.0).abs() < 1e-12);
    }
}
