//! Tape-based reverse-mode automatic differentiation over [`qt_tensor`].
//!
//! The paper fine-tunes Transformers with quantization inserted *between
//! every operation*, including custom gradients for the approximate posit
//! softmax (§5.2). That requires an AD engine where individual ops can carry
//! hand-written backward passes: this crate provides a classic Wengert tape.
//!
//! A [`Tape`] holds every intermediate [`qt_tensor::Tensor`] behind an
//! [`Arc`]; operations push nodes and return [`Var`] handles. Read-only
//! leaves can share storage with their owner through [`Tape::leaf_shared`]
//! (a model's frozen parameters, a decode cache), so entering the tape
//! costs a reference count, not a copy. [`Tape::backward`] walks the tape in
//! reverse and accumulates gradients, summing over broadcast axes so shapes
//! always match the forward operands.
//!
//! # Example
//!
//! ```
//! use qt_autograd::Tape;
//! use qt_tensor::Tensor;
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
//! let w = tape.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2]), true);
//! let y = tape.mul(x, w);
//! let loss = tape.sum_all(y); // d loss / dx = w
//! let grads = tape.backward(loss);
//! assert_eq!(grads.get(x).unwrap().data(), &[3.0, 4.0]);
//! assert_eq!(grads.get(w).unwrap().data(), &[1.0, 2.0]);
//! ```

#![warn(missing_docs)]

mod loss;
mod ops;

pub use loss::IGNORE_INDEX;

use qt_tensor::Tensor;
use std::sync::Arc;

/// Handle to a value on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The node index on the tape (stable for the tape's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Backward function: given the output gradient, the parents' values and the
/// node's own output value, produce one gradient per parent (already shaped
/// like the parent).
pub type BackwardFn = Box<dyn Fn(&Tensor, &[&Tensor], &Tensor) -> Vec<Tensor>>;

struct Node {
    value: Arc<Tensor>,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
    requires_grad: bool,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
#[derive(Debug, Default)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `var`, if it participated.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }

    /// Take ownership of a gradient, leaving `None`.
    pub fn take(&mut self, var: Var) -> Option<Tensor> {
        self.grads.get_mut(var.0).and_then(|g| g.take())
    }
}

/// A Wengert tape: records the forward computation, replays it backward.
///
/// Typical lifecycle: create per step, [`Tape::leaf`] the inputs and
/// [`Tape::leaf_shared`] the parameters, build the graph, call
/// [`Tape::backward`] on a scalar loss, read gradients, drop the tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Create an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Record a leaf value. Set `requires_grad` for parameters and for any
    /// input whose gradient you need.
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> Var {
        self.leaf_shared(Arc::new(value), requires_grad)
    }

    /// Record a leaf that shares `value`'s storage instead of copying it.
    /// The tape never writes node values, so the owner's tensor is read-only
    /// while the tape lives; gradients, if requested, are fresh tensors.
    pub fn leaf_shared(&mut self, value: Arc<Tensor>, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            parents: vec![],
            backward: None,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// The forward value of a variable.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    /// The forward value of a variable as a shared handle, for keeping it
    /// past the tape (or feeding it to another tape) without a copy.
    pub fn value_shared(&self, var: Var) -> Arc<Tensor> {
        Arc::clone(&self.nodes[var.0].value)
    }

    /// Record a custom operation with an arbitrary backward function.
    ///
    /// This is the extension point used for quantizers (straight-through
    /// estimators) and the approximate posit softmax.
    pub fn custom(&mut self, parents: Vec<Var>, value: Tensor, backward: BackwardFn) -> Var {
        let requires_grad = parents.iter().any(|p| self.nodes[p.0].requires_grad);
        self.nodes.push(Node {
            value: Arc::new(value),
            parents,
            backward: Some(backward),
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    pub(crate) fn unary(
        &mut self,
        a: Var,
        value: Tensor,
        back: impl Fn(&Tensor, &Tensor, &Tensor) -> Tensor + 'static,
    ) -> Var {
        self.custom(
            vec![a],
            value,
            Box::new(move |g, parents, out| vec![back(g, parents[0], out)]),
        )
    }

    /// Run reverse-mode accumulation from `loss` (must be scalar — shape
    /// `[]` or a single element).
    ///
    /// # Panics
    ///
    /// Panics if `loss` has more than one element.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(
            self.nodes[loss.0].value.len(),
            1,
            "backward requires a scalar loss (got shape {:?})",
            self.nodes[loss.0].value.shape()
        );
        self.backward_seeded(loss, Tensor::full(self.nodes[loss.0].value.shape(), 1.0))
    }

    /// Reverse-mode accumulation with an explicit seed gradient (must match
    /// the shape of `root`'s value).
    pub fn backward_seeded(&self, root: Var, seed: Tensor) -> Gradients {
        assert_eq!(
            seed.shape(),
            self.nodes[root.0].value.shape(),
            "seed gradient shape mismatch"
        );
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[root.0] = Some(seed);
        // Nodes are in topological order by construction; walk backwards.
        for i in (0..=root.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            let node = &self.nodes[i];
            if let Some(back) = &node.backward {
                let parent_values: Vec<&Tensor> = node
                    .parents
                    .iter()
                    .map(|p| &*self.nodes[p.0].value)
                    .collect();
                let parent_grads = back(&g, &parent_values, &node.value);
                assert_eq!(
                    parent_grads.len(),
                    node.parents.len(),
                    "backward fn returned wrong arity"
                );
                for (p, pg) in node.parents.iter().zip(parent_grads) {
                    if !self.nodes[p.0].requires_grad {
                        continue;
                    }
                    debug_assert_eq!(
                        pg.shape(),
                        self.nodes[p.0].value.shape(),
                        "gradient shape mismatch for parent {p:?}"
                    );
                    match &mut grads[p.0] {
                        Some(acc) => *acc = acc.add(&pg),
                        slot @ None => *slot = Some(pg),
                    }
                }
            }
            // keep leaf/root grads
            if node.backward.is_none() || i == root.0 {
                grads[i] = Some(g);
            }
        }
        Gradients { grads }
    }
}

/// Sum `grad` over axes that were broadcast when producing it from a parent
/// of shape `target`: collapses leading extra axes, then sums size-1 axes.
pub fn reduce_grad_to_shape(grad: &Tensor, target: &[usize]) -> Tensor {
    if grad.shape() == target {
        return grad.clone();
    }
    let mut g = grad.clone();
    while g.ndim() > target.len() {
        g = g.sum_axis(0);
    }
    for ax in 0..target.len() {
        if target[ax] == 1 && g.shape()[ax] != 1 {
            let mut shape = g.shape().to_vec();
            shape[ax] = 1;
            g = g.sum_axis(ax).reshape(&shape);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(f: impl Fn(f32) -> f32, x: f32) -> f32 {
        let eps = 1e-3;
        (f(x + eps) - f(x - eps)) / (2.0 * eps)
    }

    #[test]
    fn add_mul_chain() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::scalar(2.0), true);
        let b = t.leaf(Tensor::scalar(3.0), true);
        let c = t.add(a, b); // 5
        let d = t.mul(c, a); // 10
        let g = t.backward(d);
        // d = (a+b)*a → dd/da = 2a + b = 7, dd/db = a = 2
        assert_eq!(g.get(a).unwrap().data(), &[7.0]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0]);
    }

    #[test]
    fn no_grad_for_frozen_leaf() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::scalar(2.0), true);
        let w = t.leaf(Tensor::scalar(5.0), false);
        let y = t.mul(a, w);
        let g = t.backward(y);
        assert!(g.get(w).is_none());
        assert_eq!(g.get(a).unwrap().data(), &[5.0]);
    }

    #[test]
    fn shared_leaf_aliases_its_owner_and_still_gets_gradients() {
        let owner = Arc::new(Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let mut t = Tape::new();
        let w = t.leaf_shared(Arc::clone(&owner), true);
        assert!(Arc::ptr_eq(&t.value_shared(w), &owner), "no copy on entry");
        let x = t.leaf(Tensor::from_vec(vec![5.0, 7.0], &[2]), true);
        let y = t.mul(x, w);
        let l = t.sum_all(y);
        let g = t.backward(l);
        assert_eq!(g.get(w).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(g.get(x).unwrap().data(), &[2.0, 3.0]);
        drop(t);
        assert_eq!(Arc::strong_count(&owner), 1, "the tape released its share");
        assert_eq!(owner.data(), &[2.0, 3.0]);
    }

    #[test]
    fn broadcast_gradient_reduction() {
        // y = x (shape [2,3]) + b (shape [3]); dL/db sums over rows.
        let mut t = Tape::new();
        let x = t.leaf(Tensor::ones(&[2, 3]), true);
        let b = t.leaf(Tensor::zeros(&[3]), true);
        let y = t.add(x, b);
        let l = t.sum_all(y);
        let g = t.backward(l);
        assert_eq!(g.get(b).unwrap().shape(), &[3]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0, 2.0, 2.0]);
        assert_eq!(g.get(x).unwrap().shape(), &[2, 3]);
    }

    #[test]
    fn matmul_gradients_match_finite_difference() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let a0 = Tensor::randn(&[2, 3], &mut rng);
        let b0 = Tensor::randn(&[3, 4], &mut rng);

        let mut t = Tape::new();
        let a = t.leaf(a0.clone(), true);
        let b = t.leaf(b0.clone(), true);
        let y = t.matmul(a, b);
        let l = t.sum_all(y);
        let g = t.backward(l);
        let ga = g.get(a).unwrap().clone();
        let gb = g.get(b).unwrap().clone();

        for idx in 0..6 {
            let f = |v: f32| {
                let mut a1 = a0.clone();
                a1.data_mut()[idx] = v;
                a1.matmul(&b0).sum_all()
            };
            let fd = finite_diff(f, a0.data()[idx]);
            assert!((ga.data()[idx] - fd).abs() < 1e-2, "a[{idx}]");
        }
        for idx in 0..12 {
            let f = |v: f32| {
                let mut b1 = b0.clone();
                b1.data_mut()[idx] = v;
                a0.matmul(&b1).sum_all()
            };
            let fd = finite_diff(f, b0.data()[idx]);
            assert!((gb.data()[idx] - fd).abs() < 1e-2, "b[{idx}]");
        }
    }

    #[test]
    fn reuse_accumulates() {
        // y = x + x → dy/dx = 2
        let mut t = Tape::new();
        let x = t.leaf(Tensor::scalar(1.5), true);
        let y = t.add(x, x);
        let g = t.backward(y);
        assert_eq!(g.get(x).unwrap().data(), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn non_scalar_loss_panics() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::ones(&[2]), true);
        t.backward(x);
    }

    #[test]
    fn custom_op_straight_through() {
        // A fake-quantizer: forward rounds, backward passes through.
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec(vec![0.3, 1.7], &[2]), true);
        let xv = t.value(x).map(|v| v.round());
        let q = t.custom(vec![x], xv, Box::new(|g, _, _| vec![g.clone()]));
        assert_eq!(t.value(q).data(), &[0.0, 2.0]);
        let l = t.sum_all(q);
        let g = t.backward(l);
        assert_eq!(g.get(x).unwrap().data(), &[1.0, 1.0]);
    }
}
