//! Optimizers over named parameters.

use qt_ckpt::{CkptError, OptState, TensorBlob};
use qt_tensor::Tensor;
use qt_transformer::ParamStore;
use std::collections::BTreeMap;

/// An optimizer applying named gradients to a [`ParamStore`].
pub trait Optimizer {
    /// Apply one update step. Parameters without a gradient are untouched.
    fn step(&mut self, params: &mut ParamStore, grads: &BTreeMap<String, Tensor>);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Set the learning rate (for schedules).
    fn set_lr(&mut self, lr: f32);

    /// Bytes of optimizer state per trainable parameter element
    /// (used by the fine-tuning memory model, Figure 14).
    fn state_bytes_per_param(&self) -> usize;
}

/// Conversion between an optimizer and its serializable checkpoint form.
///
/// `export` and `import` must be exact inverses on the bit level: a
/// resumed run steps with the same moments (and the same `t`) as the
/// uninterrupted one, which is what makes resumption bitwise-identical.
pub trait CheckpointOptimizer: Optimizer + Sized {
    /// Export hyperparameters and moment tensors.
    fn export_state(&self) -> OptState;

    /// Rebuild an optimizer from exported state.
    ///
    /// # Errors
    ///
    /// [`CkptError::Malformed`] when the state's `kind` does not match
    /// this optimizer or a required field is missing.
    fn import_state(state: &OptState) -> Result<Self, CkptError>;
}

fn export_slot(map: &BTreeMap<String, Tensor>) -> Vec<TensorBlob> {
    // BTreeMap iterates in key order: the export is deterministic.
    map.iter()
        .map(|(name, t)| TensorBlob::from_f32(name.clone(), t.shape(), t.data()))
        .collect()
}

fn import_slot(blobs: &[TensorBlob]) -> BTreeMap<String, Tensor> {
    blobs
        .iter()
        .map(|b| {
            (
                b.name.clone(),
                Tensor::from_vec(b.to_f32(), &b.shape_usize()),
            )
        })
        .collect()
}

fn require_scalar(state: &OptState, name: &str) -> Result<u64, CkptError> {
    state
        .scalar(name)
        .ok_or_else(|| CkptError::Malformed(format!("optimizer state missing scalar {name:?}")))
}

fn require_scalar_f32(state: &OptState, name: &str) -> Result<f32, CkptError> {
    require_scalar(state, name).map(|v| f32::from_bits(v as u32))
}

/// Stochastic gradient descent with optional momentum.
///
/// The paper falls back to SGD for MobileBERT on SQuAD, where AdamW's
/// second-moment statistics diverge under 8-bit gradients (§6.3).
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: BTreeMap<String, Tensor>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: BTreeMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamStore, grads: &BTreeMap<String, Tensor>) {
        for (name, g) in grads {
            if !params.contains(name) {
                continue;
            }
            let update = if self.momentum > 0.0 {
                let v = self
                    .velocity
                    .entry(name.clone())
                    .or_insert_with(|| Tensor::zeros(g.shape()));
                *v = v.mul_scalar(self.momentum).add(g);
                v.clone()
            } else {
                g.clone()
            };
            let lr = self.lr;
            params.get_mut(name).zip_inplace(&update, |p, u| p - lr * u);
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state_bytes_per_param(&self) -> usize {
        if self.momentum > 0.0 {
            4
        } else {
            0
        }
    }
}

impl CheckpointOptimizer for Sgd {
    fn export_state(&self) -> OptState {
        OptState {
            kind: "sgd".into(),
            scalars: vec![
                ("lr".into(), self.lr.to_bits() as u64),
                ("momentum".into(), self.momentum.to_bits() as u64),
            ],
            slots: vec![("velocity".into(), export_slot(&self.velocity))],
        }
    }

    fn import_state(state: &OptState) -> Result<Self, CkptError> {
        if state.kind != "sgd" {
            return Err(CkptError::Malformed(format!(
                "expected sgd optimizer state, found {:?}",
                state.kind
            )));
        }
        Ok(Self {
            lr: require_scalar_f32(state, "lr")?,
            momentum: require_scalar_f32(state, "momentum")?,
            velocity: import_slot(state.slot("velocity").unwrap_or(&[])),
        })
    }
}

/// AdamW (decoupled weight decay), the paper's default fine-tuning
/// optimizer.
#[derive(Debug, Clone)]
pub struct AdamW {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: BTreeMap<String, Tensor>,
    v: BTreeMap<String, Tensor>,
}

impl AdamW {
    /// AdamW with standard betas (0.9, 0.999) and weight decay 0.01.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            t: 0,
            m: BTreeMap::new(),
            v: BTreeMap::new(),
        }
    }

    /// Override weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for AdamW {
    fn step(&mut self, params: &mut ParamStore, grads: &BTreeMap<String, Tensor>) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (name, g) in grads {
            if !params.contains(name) {
                continue;
            }
            let m = self
                .m
                .entry(name.clone())
                .or_insert_with(|| Tensor::zeros(g.shape()));
            *m = m
                .mul_scalar(self.beta1)
                .add(&g.mul_scalar(1.0 - self.beta1));
            let v = self
                .v
                .entry(name.clone())
                .or_insert_with(|| Tensor::zeros(g.shape()));
            *v = v
                .mul_scalar(self.beta2)
                .add(&g.mul(g).mul_scalar(1.0 - self.beta2));
            let mhat = m.mul_scalar(1.0 / bc1);
            let vhat = v.mul_scalar(1.0 / bc2);
            let (lr, eps, wd) = (self.lr, self.eps, self.weight_decay);
            let update = mhat.zip(&vhat, |mm, vv| mm / (vv.sqrt() + eps));
            let p = params.get_mut(name);
            // decoupled weight decay
            if wd > 0.0 {
                p.map_inplace(|x| x * (1.0 - lr * wd));
            }
            p.zip_inplace(&update, |x, u| x - lr * u);
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state_bytes_per_param(&self) -> usize {
        8 // two f32 moments
    }
}

impl CheckpointOptimizer for AdamW {
    fn export_state(&self) -> OptState {
        OptState {
            kind: "adamw".into(),
            scalars: vec![
                ("lr".into(), self.lr.to_bits() as u64),
                ("beta1".into(), self.beta1.to_bits() as u64),
                ("beta2".into(), self.beta2.to_bits() as u64),
                ("eps".into(), self.eps.to_bits() as u64),
                ("weight_decay".into(), self.weight_decay.to_bits() as u64),
                ("t".into(), self.t),
            ],
            slots: vec![
                ("m".into(), export_slot(&self.m)),
                ("v".into(), export_slot(&self.v)),
            ],
        }
    }

    fn import_state(state: &OptState) -> Result<Self, CkptError> {
        if state.kind != "adamw" {
            return Err(CkptError::Malformed(format!(
                "expected adamw optimizer state, found {:?}",
                state.kind
            )));
        }
        Ok(Self {
            lr: require_scalar_f32(state, "lr")?,
            beta1: require_scalar_f32(state, "beta1")?,
            beta2: require_scalar_f32(state, "beta2")?,
            eps: require_scalar_f32(state, "eps")?,
            weight_decay: require_scalar_f32(state, "weight_decay")?,
            t: require_scalar(state, "t")?,
            m: import_slot(state.slot("m").unwrap_or(&[])),
            v: import_slot(state.slot("v").unwrap_or(&[])),
        })
    }
}

/// Clip gradients to a global L2 norm; returns the pre-clip norm.
pub fn clip_global_norm(grads: &mut BTreeMap<String, Tensor>, max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    for g in grads.values() {
        sq += g
            .data()
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>();
    }
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        for g in grads.values_mut() {
            g.map_inplace(|x| x * s);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_setup() -> (ParamStore, Tensor) {
        let mut p = ParamStore::new();
        p.insert("x", Tensor::from_vec(vec![5.0, -3.0], &[2]));
        (p, Tensor::zeros(&[2]))
    }

    fn grad_of(p: &ParamStore) -> BTreeMap<String, Tensor> {
        // f = x², grad = 2x
        let mut g = BTreeMap::new();
        g.insert("x".to_string(), p.get("x").mul_scalar(2.0));
        g
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let (mut p, _) = quadratic_setup();
        let mut opt = Sgd::new(0.1);
        for _ in 0..50 {
            let g = grad_of(&p);
            opt.step(&mut p, &g);
        }
        assert!(p.get("x").amax() < 1e-3);
        assert_eq!(opt.state_bytes_per_param(), 0);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |mom: f32| {
            let (mut p, _) = quadratic_setup();
            let mut opt = Sgd::with_momentum(0.02, mom);
            for _ in 0..30 {
                let g = grad_of(&p);
                opt.step(&mut p, &g);
            }
            p.get("x").amax()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn adamw_converges_on_quadratic() {
        let (mut p, _) = quadratic_setup();
        let mut opt = AdamW::new(0.3).with_weight_decay(0.0);
        for _ in 0..200 {
            let g = grad_of(&p);
            opt.step(&mut p, &g);
        }
        assert!(p.get("x").amax() < 1e-2, "{}", p.get("x").amax());
        assert_eq!(opt.state_bytes_per_param(), 8);
    }

    #[test]
    fn weight_decay_shrinks_unused_params() {
        let mut p = ParamStore::new();
        p.insert("w", Tensor::from_vec(vec![1.0], &[1]));
        let mut opt = AdamW::new(0.1);
        let mut g = BTreeMap::new();
        g.insert("w".to_string(), Tensor::zeros(&[1]));
        for _ in 0..10 {
            opt.step(&mut p, &g);
        }
        assert!(p.get("w").data()[0] < 1.0);
    }

    #[test]
    fn unknown_grads_ignored() {
        let (mut p, _) = quadratic_setup();
        let mut g = BTreeMap::new();
        g.insert("ghost".to_string(), Tensor::ones(&[2]));
        Sgd::new(0.1).step(&mut p, &g);
        assert_eq!(p.get("x").data(), &[5.0, -3.0]);
    }

    #[test]
    fn optimizer_ckpt_roundtrip_continues_bitwise() {
        // Train a few steps, export/import, and verify both copies apply
        // bit-identical updates from there on.
        let (mut p, _) = quadratic_setup();
        let mut opt = AdamW::new(0.1);
        for _ in 0..5 {
            let g = grad_of(&p);
            opt.step(&mut p, &g);
        }
        let mut restored = AdamW::import_state(&opt.export_state()).unwrap();
        let mut p2 = p.clone();
        for _ in 0..5 {
            let g = grad_of(&p);
            opt.step(&mut p, &g);
            let g2 = grad_of(&p2);
            restored.step(&mut p2, &g2);
        }
        let (a, b) = (p.get("x").data(), p2.get("x").data());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        let mut sgd = Sgd::with_momentum(0.05, 0.9);
        let (mut q, _) = quadratic_setup();
        for _ in 0..3 {
            let g = grad_of(&q);
            sgd.step(&mut q, &g);
        }
        let back = Sgd::import_state(&sgd.export_state()).unwrap();
        assert_eq!(back.lr(), sgd.lr());
        assert_eq!(
            back.export_state(),
            sgd.export_state(),
            "export is a fixed point"
        );
    }

    #[test]
    fn optimizer_kind_mismatch_rejected() {
        let state = AdamW::new(0.1).export_state();
        assert!(Sgd::import_state(&state).is_err());
        let state = Sgd::new(0.1).export_state();
        assert!(AdamW::import_state(&state).is_err());
    }

    #[test]
    fn clipping() {
        let mut g = BTreeMap::new();
        g.insert("a".to_string(), Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let norm = clip_global_norm(&mut g, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let clipped: f32 = g["a"].data().iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((clipped - 1.0).abs() < 1e-5);
        // under the limit: untouched
        let norm2 = clip_global_norm(&mut g, 10.0);
        assert!((norm2 - 1.0).abs() < 1e-5);
    }
}
