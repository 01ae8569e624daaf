//! Named parameter storage shared by models, optimizers and checkpoints.

use qt_quant::{ElemFormat, FakeQuant, NonFinitePolicy, TensorHealth, UnderflowPolicy};
use qt_tensor::Tensor;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

/// An ordered map of named parameter tensors.
///
/// Ordering is deterministic (BTreeMap), which keeps optimizer state,
/// serialization and RNG consumption reproducible.
///
/// Each tensor sits behind an [`Arc`]: a forward pass enters it into its
/// tape with [`qt_autograd::Tape::leaf_shared`], and cloning the store (a
/// `Model` clone, a trainer snapshot) shares every tensor until one side
/// writes it — [`ParamStore::get_mut`] copies on write.
///
/// Each entry also memoizes its forward cuts, one per forward quantizer
/// ([`ParamStore::prepared`]). The memo belongs to the value: `get_mut`
/// and `insert` give the entry a fresh, empty memo, so a cut can never
/// outlive the value it was taken from, and a clone that writes a
/// parameter leaves the other side's memo alone (DESIGN.md §18).
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: BTreeMap<String, Param>,
}

/// One forward cut of a parameter, taken once per forward quantizer and
/// reused by every pass that reads the parameter frozen.
#[derive(Debug, Clone)]
pub struct PreparedCut {
    /// The post-cut value, shared by every tape that reads it.
    pub value: Arc<Tensor>,
    /// Health counters of the one quantization that produced `value`.
    pub health: TensorHealth,
    /// Amax of the parameter before the cut.
    pub amax: f32,
}

/// What a forward cut depends on besides the value: the quantizer's
/// format, underflow policy and non-finite policy.
type CutKey = (ElemFormat, UnderflowPolicy, NonFinitePolicy);

#[derive(Debug, Clone)]
struct Param {
    value: Arc<Tensor>,
    /// Cuts of `value`, shared with every clone that shares `value`.
    cuts: Arc<RwLock<Vec<(CutKey, PreparedCut)>>>,
}

impl Param {
    fn new(value: Tensor) -> Self {
        Self {
            value: Arc::new(value),
            cuts: Arc::default(),
        }
    }
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a parameter, with an empty cut memo.
    pub fn insert(&mut self, name: impl Into<String>, t: Tensor) {
        self.params.insert(name.into(), Param::new(t));
    }

    /// Insert a trunc-normal(0, std) initialised parameter.
    pub fn init_normal(
        &mut self,
        name: impl Into<String>,
        shape: &[usize],
        std: f32,
        rng: &mut impl Rng,
    ) {
        let t = Tensor::randn(shape, rng).map(|x| (x * std).clamp(-2.0 * std, 2.0 * std));
        self.insert(name, t);
    }

    /// Insert a zeros parameter.
    pub fn init_zeros(&mut self, name: impl Into<String>, shape: &[usize]) {
        self.insert(name, Tensor::zeros(shape));
    }

    /// Insert a ones parameter.
    pub fn init_ones(&mut self, name: impl Into<String>, shape: &[usize]) {
        self.insert(name, Tensor::ones(shape));
    }

    /// Borrow a parameter.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown (a wiring bug, not a runtime state).
    pub fn get(&self, name: &str) -> &Tensor {
        &self.param(name).value
    }

    /// A parameter as a shared handle, for
    /// [`qt_autograd::Tape::leaf_shared`].
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn shared(&self, name: &str) -> Arc<Tensor> {
        Arc::clone(&self.param(name).value)
    }

    /// Mutably borrow a parameter (for optimizer updates). Copies the
    /// tensor first if a clone of the store or a live tape still shares
    /// it, and drops the entry's cut memo.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn get_mut(&mut self, name: &str) -> &mut Tensor {
        let p = self
            .params
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown parameter {name:?}"));
        p.cuts = Arc::default();
        Arc::make_mut(&mut p.value)
    }

    /// The forward cut of parameter `name` under `fq`: taken on first use
    /// and memoized on the entry, so every later call with a quantizer of
    /// the same format and policies returns the same shared value, health
    /// and pre-cut amax. The cut is a pure function of value and
    /// quantizer, so a memoized cut is bitwise the one a fresh
    /// [`FakeQuant::quantize_with_health`] would take.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn prepared(&self, name: &str, fq: &FakeQuant) -> PreparedCut {
        let p = self.param(name);
        let key = (fq.format(), fq.policy(), fq.nonfinite_policy());
        let find = |cuts: &[(CutKey, PreparedCut)]| {
            cuts.iter().find(|(k, _)| *k == key).map(|(_, c)| c.clone())
        };
        // Hits take only a read lock, so concurrent serving workers never
        // wait on each other. A panic mid-fill pushes nothing, so a
        // poisoned memo is still sound.
        if let Some(cut) = find(&p.cuts.read().unwrap_or_else(PoisonError::into_inner)) {
            return cut;
        }
        let mut cuts = p.cuts.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(cut) = find(&cuts) {
            return cut; // another thread filled it meanwhile
        }
        let (value, health) = fq.quantize_with_health(&p.value);
        let cut = PreparedCut {
            value: Arc::new(value),
            health,
            amax: p.value.amax(),
        };
        cuts.push((key, cut.clone()));
        cut
    }

    fn param(&self, name: &str) -> &Param {
        self.params
            .get(name)
            .unwrap_or_else(|| panic!("unknown parameter {name:?}"))
    }

    /// Does a parameter exist?
    pub fn contains(&self, name: &str) -> bool {
        self.params.contains_key(name)
    }

    /// Iterate `(name, tensor)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.params.iter().map(|(k, p)| (k.as_str(), &*p.value))
    }

    /// Names in deterministic order.
    pub fn names(&self) -> Vec<String> {
        self.params.keys().cloned().collect()
    }

    /// Number of parameters (elements, not tensors).
    pub fn num_elements(&self) -> usize {
        self.params.values().map(|p| p.value.len()).sum()
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` if no parameters are stored.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Sum of elements over tensors whose name passes `filter` — convenient
    /// for counting trainable parameters.
    pub fn num_elements_matching(&self, filter: impl Fn(&str) -> bool) -> usize {
        self.params
            .iter()
            .filter(|(k, _)| filter(k))
            .map(|(_, p)| p.value.len())
            .sum()
    }
}

impl FromIterator<(String, Tensor)> for ParamStore {
    fn from_iter<I: IntoIterator<Item = (String, Tensor)>>(iter: I) -> Self {
        Self {
            params: iter
                .into_iter()
                .map(|(name, t)| (name, Param::new(t)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn insert_get_iterate() {
        let mut ps = ParamStore::new();
        ps.init_zeros("b.bias", &[4]);
        ps.init_ones("a.gamma", &[4]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.num_elements(), 8);
        // deterministic (sorted) order
        let names = ps.names();
        assert_eq!(names, vec!["a.gamma".to_string(), "b.bias".to_string()]);
        assert_eq!(ps.get("a.gamma").data(), &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn get_unknown_panics() {
        ParamStore::new().get("nope");
    }

    #[test]
    fn trunc_normal_is_bounded() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamStore::new();
        ps.init_normal("w", &[1000], 0.1, &mut rng);
        let amax = ps.get("w").amax();
        assert!(amax <= 0.2 + 1e-6, "{amax}");
        assert!(amax > 0.05);
    }

    #[test]
    fn filtered_count() {
        let mut ps = ParamStore::new();
        ps.init_zeros("layer0.lora_a", &[8]);
        ps.init_zeros("layer0.w", &[100]);
        assert_eq!(ps.num_elements_matching(|n| n.contains("lora")), 8);
    }
}
