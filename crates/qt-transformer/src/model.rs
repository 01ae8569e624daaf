//! The Transformer model: embeddings, attention blocks (with stacked-FFN
//! support), encoder/decoder/enc-dec assembly, task heads, and
//! quantization cuts at every operation boundary (Figure 5).

use crate::cancel::ForwardCancelled;
use crate::config::{ModelKind, TransformerConfig};
use crate::heads::TaskHead;
use crate::lora::LoraConfig;
use crate::params::ParamStore;
use crate::qctx::QuantCtx;
use qt_autograd::{Tape, Var};
use qt_quant::OpClass;
use qt_tensor::Tensor;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Additive mask value for padded/causally-hidden positions. Chosen so
/// that (a) it survives 8-bit quantization (well inside Posit8/FP8 range)
/// and (b) after max-subtraction it falls far below the approximate
/// exponential's threshold θ.
pub const MASK_NEG: f32 = -30.0;

/// A batch of token sequences with a validity mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBatch {
    /// Token ids, row-major `[batch, seq]`.
    pub ids: Vec<usize>,
    /// Batch size.
    pub batch: usize,
    /// Sequence length (padded).
    pub seq: usize,
    /// Per-position validity: `true` = real token, `false` = padding.
    pub valid: Vec<bool>,
}

impl TokenBatch {
    /// Batch where every position is valid.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != batch * seq`.
    pub fn dense(ids: Vec<usize>, batch: usize, seq: usize) -> Self {
        assert_eq!(ids.len(), batch * seq, "ids length mismatch");
        let valid = vec![true; ids.len()];
        Self {
            ids,
            batch,
            seq,
            valid,
        }
    }

    /// Batch with an explicit validity mask.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn with_mask(ids: Vec<usize>, batch: usize, seq: usize, valid: Vec<bool>) -> Self {
        assert_eq!(ids.len(), batch * seq, "ids length mismatch");
        assert_eq!(valid.len(), ids.len(), "mask length mismatch");
        Self {
            ids,
            batch,
            seq,
            valid,
        }
    }

    /// Additive padding mask of shape `[B, 1, 1, S]` (0 valid, `MASK_NEG`
    /// padded).
    pub fn padding_mask(&self) -> Tensor {
        let data: Vec<f32> = self
            .valid
            .iter()
            .map(|&v| if v { 0.0 } else { MASK_NEG })
            .collect();
        Tensor::from_vec(data, &[self.batch, 1, 1, self.seq])
    }
}

/// Which parameters are trainable this pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainMode {
    /// Inference: nothing trainable.
    Frozen,
    /// Full fine-tuning: every parameter trainable.
    Full,
    /// LoRA: only `*.lora_a` / `*.lora_b` and head parameters trainable.
    Lora,
}

impl TrainMode {
    fn trainable(self, name: &str) -> bool {
        match self {
            TrainMode::Frozen => false,
            TrainMode::Full => true,
            TrainMode::Lora => name.contains(".lora_") || name.starts_with(TaskHead::PREFIX),
        }
    }
}

/// Output of a forward pass.
#[derive(Debug)]
pub struct ModelOutput {
    /// Task logits: `[B, S, 2]` (span), `[B, classes]` (classify) or
    /// `[B, S, V]` (LM).
    pub logits: Var,
    /// Final hidden states `[B, S, H]` (decoder side for enc-dec).
    pub hidden: Var,
    /// Tape variables of every parameter touched this pass, by name.
    pub param_vars: BTreeMap<String, Var>,
}

/// Cut keys and values of one attention layer, kept across decode steps.
/// `k` holds the `scores.k` cut values, transposed (`[B, nh, dh, S]`), so
/// appending a position is a last-axis concat; `v` holds the `ctx.v` cut
/// values, `[B, nh, S, dh]`. Both already lie on the scheme's grid, and
/// each step's tape reads them as shared leaves.
#[derive(Debug, Clone, Default)]
struct KvCache {
    k: Option<Arc<Tensor>>,
    v: Option<Arc<Tensor>>,
}

/// Append `new` to `slot` along `axis`.
fn append(slot: &mut Option<Arc<Tensor>>, new: Arc<Tensor>, axis: usize) {
    *slot = Some(match slot.take() {
        None => new,
        Some(old) => {
            // Row-major: concat along `axis` is a last-axis concat of the
            // tensors flattened from `axis` on.
            let mut shape = old.shape().to_vec();
            shape[axis] += new.shape()[axis];
            let rows: usize = shape[..axis].iter().product();
            let a = Arc::unwrap_or_clone(old).reshape(&[rows, usize::MAX]);
            let b = Arc::unwrap_or_clone(new).reshape(&[rows, usize::MAX]);
            Arc::new(Tensor::concat_lastdim(&[&a, &b]).reshape(&shape))
        }
    });
}

/// Per-decoder-layer caches: self-attention grows one position per step,
/// cross-attention is filled once from the encoder output.
#[derive(Debug, Clone, Default)]
struct LayerCache {
    self_kv: KvCache,
    cross_kv: KvCache,
}

/// Incremental-decode state of an encoder-decoder model, from
/// [`Model::try_encode`]; advanced by [`Model::try_decode_step`].
#[derive(Debug)]
pub struct DecodeState {
    /// Encoder output, until the first step projects cross-attention K/V.
    memory: Option<Arc<Tensor>>,
    enc_mask: Arc<Tensor>,
    layers: Vec<LayerCache>,
    batch: usize,
    /// Decoder positions fed so far: the next step's position.
    pos: usize,
}

/// A Transformer model with named parameters and optional LoRA adapters.
#[derive(Debug, Clone)]
pub struct Model {
    /// Architecture.
    pub cfg: TransformerConfig,
    /// All parameters (including any LoRA factors and head weights).
    pub params: ParamStore,
    /// Task head.
    pub head: TaskHead,
    /// LoRA configuration, if adapters have been added.
    pub lora: Option<LoraConfig>,
}

impl Model {
    /// Initialise a model with random weights.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see
    /// [`TransformerConfig::validate`]).
    pub fn new(cfg: TransformerConfig, head: TaskHead, rng: &mut impl Rng) -> Self {
        cfg.validate().expect("invalid config");
        let mut p = ParamStore::new();
        let h = cfg.hidden;
        let std_h = 1.0 / (h as f32).sqrt();
        p.init_normal("embed.tok", &[cfg.vocab, h], 0.5 * std_h * 4.0, rng);
        p.init_normal("embed.pos", &[cfg.max_seq, h], 0.5 * std_h, rng);
        p.init_ones("embed.ln.gamma", &[h]);
        p.init_zeros("embed.ln.beta", &[h]);

        let prefixes: &[&str] = match cfg.kind {
            ModelKind::Encoder => &["enc"],
            ModelKind::Decoder => &["dec"],
            ModelKind::EncDec => &["enc", "dec"],
        };
        for prefix in prefixes {
            for l in 0..cfg.layers {
                init_block(&mut p, &cfg, &format!("{prefix}.{l}"), rng);
            }
        }
        if cfg.kind == ModelKind::EncDec {
            for l in 0..cfg.layers {
                init_attn(&mut p, &cfg, &format!("dec.{l}.xattn"), rng);
                p.init_ones(format!("dec.{l}.lnx.gamma"), &[h]);
                p.init_zeros(format!("dec.{l}.lnx.beta"), &[h]);
            }
        }

        match head {
            TaskHead::Span => {
                p.init_normal("head.span.w", &[h, 2], std_h, rng);
                p.init_zeros("head.span.b", &[2]);
            }
            TaskHead::Classify(k) => {
                p.init_normal("head.cls.w", &[h, k], std_h, rng);
                p.init_zeros("head.cls.b", &[k]);
            }
            TaskHead::LmTied => {}
        }

        Self {
            cfg,
            params: p,
            head,
            lora: None,
        }
    }

    /// Add LoRA adapters (and, per §5.3, quantize nothing here — the
    /// factors live in 16-bit master copies and are quantized on the fly
    /// at every forward).
    pub fn add_lora(&mut self, lora: LoraConfig, rng: &mut impl Rng) {
        let names = self.params.names();
        for name in names {
            if !lora.applies_to(&name) {
                continue;
            }
            let shape = self.params.get(&name).shape().to_vec();
            let (i, o) = (shape[0], shape[1]);
            let std_a = 1.0 / (lora.rank as f32).sqrt();
            self.params
                .init_normal(format!("{name}.lora_a"), &[i, lora.rank], std_a, rng);
            self.params
                .init_zeros(format!("{name}.lora_b"), &[lora.rank, o]);
        }
        self.lora = Some(lora);
    }

    /// Number of trainable parameters under `mode`.
    pub fn trainable_params(&self, mode: TrainMode) -> usize {
        self.params.num_elements_matching(|n| mode.trainable(n))
    }

    /// Run the forward pass on `tape`.
    ///
    /// For [`ModelKind::EncDec`], `dec_batch` supplies the decoder tokens;
    /// it is ignored otherwise.
    ///
    /// # Panics
    ///
    /// Panics if an enc-dec model is called without `dec_batch`, a
    /// sequence exceeds `cfg.max_seq`, or the context's cancellation
    /// token aborts the pass (use [`Model::try_forward`] to handle
    /// cancellation as a value).
    pub fn forward(
        &self,
        tape: &mut Tape,
        qctx: &QuantCtx,
        batch: &TokenBatch,
        dec_batch: Option<&TokenBatch>,
        mode: TrainMode,
    ) -> ModelOutput {
        self.try_forward(tape, qctx, batch, dec_batch, mode)
            .expect("forward pass cancelled; call try_forward to handle this")
    }

    /// [`Model::forward`] with cooperative cancellation: one block credit
    /// is charged against the context's [`crate::CancelToken`] before
    /// every transformer block (encoder and decoder alike), so a serving
    /// deadline can abort the pass mid-model. The pass either completes
    /// fully or returns [`ForwardCancelled`] — a partial or stale output
    /// never escapes. Without an attached token this never errors.
    ///
    /// # Errors
    ///
    /// [`ForwardCancelled`] when the attached token is cancelled or its
    /// block budget runs out before the remaining blocks are charged.
    ///
    /// # Panics
    ///
    /// Panics if an enc-dec model is called without `dec_batch`, or a
    /// sequence exceeds `cfg.max_seq`.
    pub fn try_forward(
        &self,
        tape: &mut Tape,
        qctx: &QuantCtx,
        batch: &TokenBatch,
        dec_batch: Option<&TokenBatch>,
        mode: TrainMode,
    ) -> Result<ModelOutput, ForwardCancelled> {
        assert!(batch.seq <= self.cfg.max_seq, "sequence too long");
        let mut b = Builder::new(tape, qctx, self, mode);
        let (hidden, head_batch) = match self.cfg.kind {
            ModelKind::Encoder => {
                let mask = Arc::new(batch.padding_mask());
                (b.stack("enc", batch, 0, &mask, None, None)?, batch)
            }
            ModelKind::Decoder => {
                let mask = Arc::new(causal_mask(batch));
                (b.stack("dec", batch, 0, &mask, None, None)?, batch)
            }
            ModelKind::EncDec => {
                let dec = dec_batch.expect("enc-dec model needs decoder batch");
                assert!(dec.seq <= self.cfg.max_seq, "decoder sequence too long");
                let enc_mask = Arc::new(batch.padding_mask());
                let m = b.stack("enc", batch, 0, &enc_mask, None, None)?;
                let self_mask = Arc::new(causal_mask(dec));
                let cross = Some((Some(m), &enc_mask));
                (b.stack("dec", dec, 0, &self_mask, cross, None)?, dec)
            }
        };
        let logits = b.apply_head(hidden, head_batch.batch, head_batch.seq);
        let vars = b.vars;
        Ok(ModelOutput {
            logits,
            hidden,
            param_vars: vars,
        })
    }

    /// Start an incremental decode of an encoder-decoder model: run the
    /// encoder stack over `enc` once (charging one block credit per
    /// encoder block) and return the state that
    /// [`Model::try_decode_step`] feeds one position at a time.
    ///
    /// # Errors
    ///
    /// [`ForwardCancelled`] when the attached token runs out during the
    /// encoder stack.
    ///
    /// # Panics
    ///
    /// Panics unless the model is an encoder-decoder, or if `enc` exceeds
    /// `cfg.max_seq`.
    pub fn try_encode(
        &self,
        qctx: &QuantCtx,
        enc: &TokenBatch,
    ) -> Result<DecodeState, ForwardCancelled> {
        assert_eq!(
            self.cfg.kind,
            ModelKind::EncDec,
            "incremental decode needs an enc-dec model"
        );
        assert!(enc.seq <= self.cfg.max_seq, "sequence too long");
        let mut tape = Tape::new();
        let mut b = Builder::new(&mut tape, qctx, self, TrainMode::Frozen);
        let enc_mask = Arc::new(enc.padding_mask());
        let m = b.stack("enc", enc, 0, &enc_mask, None, None)?;
        Ok(DecodeState {
            memory: Some(tape.value_shared(m)),
            enc_mask,
            layers: vec![LayerCache::default(); self.cfg.layers],
            batch: enc.batch,
            pos: 0,
        })
    }

    /// One incremental decoder step: feed `ids` (one token per row) at
    /// the state's next position and return that position's logits,
    /// `[B, 1, V]`. Self-attention attends over the cached keys/values of
    /// every position fed so far; cross-attention keys/values are
    /// projected from the encoder output on the first step and reused
    /// after. One block credit is charged per decoder block.
    ///
    /// The logits are bitwise those of the step's row in a teacher-forced
    /// [`Model::forward`] over the same tokens wherever the additive mask
    /// hides later positions exactly; where it leaks, this step is the
    /// causal one (DESIGN.md §17).
    ///
    /// # Errors
    ///
    /// [`ForwardCancelled`] when the attached token runs out; the state
    /// must not be stepped again after that.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len()` differs from the encoder batch or the
    /// position reaches `cfg.max_seq`.
    pub fn try_decode_step(
        &self,
        qctx: &QuantCtx,
        state: &mut DecodeState,
        ids: &[usize],
    ) -> Result<Tensor, ForwardCancelled> {
        let (batch, pos) = (state.batch, state.pos);
        assert_eq!(ids.len(), batch, "one token per encoder row");
        assert!(pos < self.cfg.max_seq, "decoder sequence too long");
        let tokens = TokenBatch::dense(ids.to_vec(), batch, 1);
        // Every cached position is a real token: the self mask is all zeros.
        let self_mask = Arc::new(Tensor::zeros(&[batch, 1, 1, pos + 1]));
        let mut tape = Tape::new();
        let mut b = Builder::new(&mut tape, qctx, self, TrainMode::Frozen);
        let memory = state.memory.take().map(|m| b.tape.leaf_shared(m, false));
        let cross = Some((memory, &state.enc_mask));
        let layers = Some(&mut state.layers[..]);
        let x = b.stack("dec", &tokens, pos, &self_mask, cross, layers)?;
        let logits = b.apply_head(x, batch, 1);
        state.pos += 1;
        Ok(tape.value(logits).clone())
    }

    /// Transformer blocks one full forward pass charges against a
    /// cancellation token: `layers` for single-stack models, `2 × layers`
    /// for encoder-decoders. Serving deadlines convert to block budgets
    /// with this.
    pub fn blocks_per_forward(&self) -> u64 {
        match self.cfg.kind {
            ModelKind::Encoder | ModelKind::Decoder => self.cfg.layers as u64,
            ModelKind::EncDec => 2 * self.cfg.layers as u64,
        }
    }
}

fn init_attn(p: &mut ParamStore, cfg: &TransformerConfig, prefix: &str, rng: &mut impl Rng) {
    let h = cfg.hidden;
    let std = 1.0 / (h as f32).sqrt();
    for w in ["wq", "wk", "wv", "wo"] {
        p.init_normal(format!("{prefix}.{w}"), &[h, h], std, rng);
    }
    for b in ["bq", "bk", "bv", "bo"] {
        p.init_zeros(format!("{prefix}.{b}"), &[h]);
    }
}

fn init_block(p: &mut ParamStore, cfg: &TransformerConfig, prefix: &str, rng: &mut impl Rng) {
    let h = cfg.hidden;
    init_attn(p, cfg, &format!("{prefix}.attn"), rng);
    p.init_ones(format!("{prefix}.ln1.gamma"), &[h]);
    p.init_zeros(format!("{prefix}.ln1.beta"), &[h]);
    p.init_ones(format!("{prefix}.ln2.gamma"), &[h]);
    p.init_zeros(format!("{prefix}.ln2.beta"), &[h]);
    let std_in = 1.0 / (h as f32).sqrt();
    let std_out = 1.0 / (cfg.ffn as f32).sqrt();
    for j in 0..cfg.stacked_ffn {
        p.init_normal(format!("{prefix}.ffn{j}.w1"), &[h, cfg.ffn], std_in, rng);
        p.init_zeros(format!("{prefix}.ffn{j}.b1"), &[cfg.ffn]);
        p.init_normal(format!("{prefix}.ffn{j}.w2"), &[cfg.ffn, h], std_out, rng);
        p.init_zeros(format!("{prefix}.ffn{j}.b2"), &[h]);
        if cfg.ln_between_ffn && cfg.stacked_ffn > 1 && j + 1 < cfg.stacked_ffn {
            p.init_ones(format!("{prefix}.lnf{j}.gamma"), &[h]);
            p.init_zeros(format!("{prefix}.lnf{j}.beta"), &[h]);
        }
    }
}

/// Causal + padding mask `[B, 1, S, S]`.
fn causal_mask(batch: &TokenBatch) -> Tensor {
    let (b, s) = (batch.batch, batch.seq);
    let mut t = Tensor::zeros(&[b, 1, s, s]);
    for bi in 0..b {
        for i in 0..s {
            for j in 0..s {
                let hidden_by_causality = j > i;
                let padded = !batch.valid[bi * s + j];
                if hidden_by_causality || padded {
                    t.set(&[bi, 0, i, j], MASK_NEG);
                }
            }
        }
    }
    t
}

/// Per-forward-pass graph builder.
struct Builder<'a> {
    tape: &'a mut Tape,
    qctx: &'a QuantCtx,
    model: &'a Model,
    mode: TrainMode,
    vars: BTreeMap<String, Var>,
}

impl<'a> Builder<'a> {
    fn new(tape: &'a mut Tape, qctx: &'a QuantCtx, model: &'a Model, mode: TrainMode) -> Self {
        Self {
            tape,
            qctx,
            model,
            mode,
            vars: BTreeMap::new(),
        }
    }

    /// Embed `tokens` at positions `start_pos..` and run the `prefix`
    /// stack of blocks over them, charging one block credit per block.
    /// `cross` is the decoder's cross-attention source: the encoder output
    /// (`None` once `caches` hold its projections) and its padding mask.
    /// `caches` switches self-attention to append-and-attend-over-cache.
    fn stack(
        &mut self,
        prefix: &str,
        tokens: &TokenBatch,
        start_pos: usize,
        mask: &Arc<Tensor>,
        cross: Option<(Option<Var>, &Arc<Tensor>)>,
        mut caches: Option<&mut [LayerCache]>,
    ) -> Result<Var, ForwardCancelled> {
        let mut x = self.embed(tokens, start_pos);
        for l in 0..self.model.cfg.layers {
            self.qctx.charge_block()?;
            let cache = caches.as_deref_mut().map(|c| &mut c[l]);
            x = self.block(x, cache, cross, mask, &format!("{prefix}.{l}"));
        }
        Ok(x)
    }

    /// Leaf-register (once) and return a parameter. The leaf shares the
    /// store's tensor; no copy is made.
    fn p(&mut self, name: &str) -> Var {
        if let Some(&v) = self.vars.get(name) {
            return v;
        }
        let trainable = self.mode.trainable(name);
        let v = self
            .tape
            .leaf_shared(self.model.params.shared(name), trainable);
        self.vars.insert(name.to_string(), v);
        v
    }

    /// GEMM-site cut of parameter `name` at `site`: a trainable parameter
    /// is cut on this tape, a frozen one comes from its memoized cut
    /// ([`QuantCtx::cut_frozen`]).
    fn cut_param(&mut self, name: &str, site: &str) -> Var {
        let w = self.p(name);
        if self.mode.trainable(name) {
            self.qctx.cut(self.tape, w, OpClass::Gemm, site)
        } else {
            self.qctx
                .cut_frozen(self.tape, w, &self.model.params, name, site)
        }
    }

    /// Effective weight for a dense layer: the cut parameter, or the
    /// quantized LoRA merge of Equation 7.
    fn weight(&mut self, name: &str) -> Var {
        let w0q = self.cut_param(name, name);
        let Some(lora) = self.model.lora else {
            return w0q;
        };
        if !lora.applies_to(name) || !self.model.params.contains(&format!("{name}.lora_a")) {
            return w0q;
        }
        // quant(W0^8 + (α/r)·quant(A)·quant(B))
        let a = self.p(&format!("{name}.lora_a"));
        let bb = self.p(&format!("{name}.lora_b"));
        let aq = self
            .qctx
            .cut(self.tape, a, OpClass::Gemm, &format!("{name}.lora_a"));
        let bq = self
            .qctx
            .cut(self.tape, bb, OpClass::Gemm, &format!("{name}.lora_b"));
        let ab = self.tape.matmul(aq, bq);
        let delta = self.tape.mul_scalar(ab, lora.scale());
        let merged = self.tape.add(w0q, delta);
        self.qctx
            .cut(self.tape, merged, OpClass::Gemm, &format!("{name}.merged"))
    }

    /// `x @ W + b` with GEMM-site quantization of both operands.
    fn linear(&mut self, x: Var, w_name: &str, b_name: &str, site: &str) -> Var {
        let xq = self
            .qctx
            .cut(self.tape, x, OpClass::Gemm, &format!("{site}.in"));
        let w = self.weight(w_name);
        let y = self.qctx.matmul_q(self.tape, xq, w, site);
        let b = self.p(b_name);
        self.tape.add(y, b)
    }

    /// Token + positional embeddings (positions `start_pos..`) with
    /// embedding layer norm.
    fn embed(&mut self, batch: &TokenBatch, start_pos: usize) -> Var {
        let span = self.qctx.span_begin("embed", "embed");
        let (b, s) = (batch.batch, batch.seq);
        let tok_table = self.p("embed.tok");
        let tok = self.tape.embedding(tok_table, &batch.ids, &[b, s]);
        let pos_ids: Vec<usize> = (0..b).flat_map(|_| start_pos..start_pos + s).collect();
        let pos_table = self.p("embed.pos");
        let pos = self.tape.embedding(pos_table, &pos_ids, &[b, s]);
        let sum = self.tape.add(tok, pos);
        let g = self.p("embed.ln.gamma");
        let be = self.p("embed.ln.beta");
        let ln_in = self
            .qctx
            .cut(self.tape, sum, OpClass::LayerNorm, "embed.ln.in");
        let out = self.tape.layernorm(ln_in, g, be, 1e-5);
        self.qctx.span_end(span);
        out
    }

    /// Multi-head attention with quantization at every site of Figure 5.
    /// Keys and values are projected from `kv_src` (`x` for
    /// self-attention, the encoder output for cross-attention). With a
    /// `cache`, the projected positions (if any) are appended to it and
    /// attention runs over everything cached; the cache holds K/V post-cut,
    /// so cached and freshly projected K/V meet the same core.
    fn attention(
        &mut self,
        x: Var,
        kv_src: Option<Var>,
        mut cache: Option<&mut KvCache>,
        mask: &Arc<Tensor>,
        prefix: &str,
    ) -> Var {
        let (batch, q_seq) = self.batch_seq(x);
        let cfg = &self.model.cfg;
        let (nh, dh, h) = (cfg.heads, cfg.head_dim(), cfg.hidden);
        let span = self.qctx.span_begin(prefix, "attn");

        let q = self.linear(
            x,
            &format!("{prefix}.wq"),
            &format!("{prefix}.bq"),
            &format!("{prefix}.q"),
        );
        let kv = kv_src.map(|src| {
            let k = self.linear(
                src,
                &format!("{prefix}.wk"),
                &format!("{prefix}.bk"),
                &format!("{prefix}.k"),
            );
            let v = self.linear(
                src,
                &format!("{prefix}.wv"),
                &format!("{prefix}.bv"),
                &format!("{prefix}.v"),
            );
            (self.batch_seq(src).1, k, v)
        });

        // [B, S, H] -> [B, nh, S, dh]
        let qh = self.heads_split(q, batch, q_seq, nh, dh);
        let kv_heads = kv.map(|(seq, k, v)| {
            (
                self.heads_split(k, batch, seq, nh, dh),
                self.heads_split(v, batch, seq, nh, dh),
            )
        });

        // raw scores: QKᵀ — the GEMM whose *output* feeds attention scaling
        let qq = self
            .qctx
            .cut(self.tape, qh, OpClass::Gemm, &format!("{prefix}.scores.q"));
        let kq = kv_heads.map(|(kh, _)| {
            let kt = self.tape.permute(kh, &[0, 1, 3, 2]);
            self.qctx
                .cut(self.tape, kt, OpClass::Gemm, &format!("{prefix}.scores.k"))
        });
        let kq = self.through_cache(kq, cache.as_deref_mut().map(|c| &mut c.k), 3);
        let raw = self
            .qctx
            .matmul_q(self.tape, qq, kq, &format!("{prefix}.scores"));

        // attention scaling site: the paper's most sensitive input (§4)
        let raw_q = self.qctx.cut(
            self.tape,
            raw,
            OpClass::AttnScaling,
            &format!("{prefix}.unscaled_attn"),
        );
        let scaled = self.tape.mul_scalar(raw_q, 1.0 / (dh as f32).sqrt());

        // mask, then softmax (activation site)
        let mask_leaf = self.tape.leaf_shared(Arc::clone(mask), false);
        let masked = self.tape.add(scaled, mask_leaf);
        let sm_in = self.qctx.cut(
            self.tape,
            masked,
            OpClass::Activation,
            &format!("{prefix}.softmax.in"),
        );
        let probs = self
            .qctx
            .softmax(self.tape, sm_in, &format!("{prefix}.softmax"));

        // context: probs @ V
        let pq = self
            .qctx
            .cut(self.tape, probs, OpClass::Gemm, &format!("{prefix}.ctx.p"));
        let vq = kv_heads.map(|(_, vh)| {
            self.qctx
                .cut(self.tape, vh, OpClass::Gemm, &format!("{prefix}.ctx.v"))
        });
        let vq = self.through_cache(vq, cache.map(|c| &mut c.v), 2);
        let ctx = self
            .qctx
            .matmul_q(self.tape, pq, vq, &format!("{prefix}.ctx"));

        // [B, nh, S, dh] -> [B, S, H], output projection
        let merged = self.tape.permute(ctx, &[0, 2, 1, 3]);
        let merged = self.tape.reshape(merged, &[batch, q_seq, h]);
        let out = self.linear(
            merged,
            &format!("{prefix}.wo"),
            &format!("{prefix}.bo"),
            &format!("{prefix}.o"),
        );
        self.qctx.span_end(span);
        out
    }

    /// A cut key/value tensor as the attention core consumes it: `fresh`
    /// itself without a cache; with one, `fresh` (if any) appended along
    /// `axis` and the whole cache returned as a constant.
    fn through_cache(
        &mut self,
        fresh: Option<Var>,
        slot: Option<&mut Option<Arc<Tensor>>>,
        axis: usize,
    ) -> Var {
        match (fresh, slot) {
            (Some(v), None) => v,
            (fresh, Some(slot)) => {
                if let Some(v) = fresh {
                    append(slot, self.tape.value_shared(v), axis);
                }
                let all = slot.clone().expect("cache filled on the first decode step");
                self.tape.leaf_shared(all, false)
            }
            (None, None) => unreachable!("attention needs a key/value source or a cache"),
        }
    }

    /// Leading `[B, S]` of a `[B, S, H]` activation.
    fn batch_seq(&self, x: Var) -> (usize, usize) {
        let shape = self.tape.value(x).shape();
        (shape[0], shape[1])
    }

    fn heads_split(&mut self, x: Var, b: usize, s: usize, nh: usize, dh: usize) -> Var {
        let r = self.tape.reshape(x, &[b, s, nh, dh]);
        self.tape.permute(r, &[0, 2, 1, 3])
    }

    /// Residual add with both inputs cut at the residual site, then LN.
    fn residual_ln(&mut self, x: Var, sub: Var, ln: &str, site: &str) -> Var {
        let xr = self
            .qctx
            .cut(self.tape, x, OpClass::Residual, &format!("{site}.res.x"));
        let sr = self
            .qctx
            .cut(self.tape, sub, OpClass::Residual, &format!("{site}.res.f"));
        let sum = self.tape.add(xr, sr);
        let g = self.p(&format!("{ln}.gamma"));
        let b = self.p(&format!("{ln}.beta"));
        let ln_in = self
            .qctx
            .cut(self.tape, sum, OpClass::LayerNorm, &format!("{site}.ln.in"));
        self.tape.layernorm(ln_in, g, b, 1e-5)
    }

    /// One FFN: `W2·gelu(W1·x + b1) + b2` with the GELU input cut at the
    /// activation site.
    fn ffn(&mut self, x: Var, prefix: &str) -> Var {
        let span = self.qctx.span_begin(prefix, "ffn");
        let h1 = self.linear(
            x,
            &format!("{prefix}.w1"),
            &format!("{prefix}.b1"),
            &format!("{prefix}.up"),
        );
        let act_in = self.qctx.cut(
            self.tape,
            h1,
            OpClass::Activation,
            &format!("{prefix}.gelu.in"),
        );
        let a = self.tape.gelu(act_in);
        let out = self.linear(
            a,
            &format!("{prefix}.w2"),
            &format!("{prefix}.b2"),
            &format!("{prefix}.down"),
        );
        self.qctx.span_end(span);
        out
    }

    /// A full block: self-attention (+ optional cross-attention) and the
    /// (possibly stacked) FFNs. With a `cache`, both attentions take their
    /// keys/values through it (see [`Builder::stack`]).
    fn block(
        &mut self,
        x: Var,
        cache: Option<&mut LayerCache>,
        cross: Option<(Option<Var>, &Arc<Tensor>)>,
        self_mask: &Arc<Tensor>,
        prefix: &str,
    ) -> Var {
        let span = self.qctx.span_begin(prefix, "block");
        let (self_cache, cross_cache) = match cache {
            Some(c) => (Some(&mut c.self_kv), Some(&mut c.cross_kv)),
            None => (None, None),
        };
        let site = format!("{prefix}.attn");
        let attn = self.attention(x, Some(x), self_cache, self_mask, &site);
        let mut x = self.residual_ln(x, attn, &format!("{prefix}.ln1"), &site);

        if let Some((memory, mem_mask)) = cross {
            let site = format!("{prefix}.xattn");
            let xa = self.attention(x, memory, cross_cache, mem_mask, &site);
            x = self.residual_ln(x, xa, &format!("{prefix}.lnx"), &site);
        }

        let cfg = &self.model.cfg;
        let stacked = cfg.stacked_ffn;
        for j in 0..stacked {
            let f = self.ffn(x, &format!("{prefix}.ffn{j}"));
            let last = j + 1 == stacked;
            if last {
                x = self.residual_ln(x, f, &format!("{prefix}.ln2"), &format!("{prefix}.ffn{j}"));
            } else if cfg.ln_between_ffn {
                x = self.residual_ln(
                    x,
                    f,
                    &format!("{prefix}.lnf{j}"),
                    &format!("{prefix}.ffn{j}"),
                );
            } else {
                // MobileBERT-style: bare residual accumulation, no norm —
                // this is what lets activations grow wide (Figure 6).
                let xr = self.qctx.cut(
                    self.tape,
                    x,
                    OpClass::Residual,
                    &format!("{prefix}.ffn{j}.res.x"),
                );
                let fr = self.qctx.cut(
                    self.tape,
                    f,
                    OpClass::Residual,
                    &format!("{prefix}.ffn{j}.res.f"),
                );
                x = self.tape.add(xr, fr);
            }
        }
        self.qctx.span_end(span);
        x
    }

    fn apply_head(&mut self, hidden: Var, batch: usize, seq: usize) -> Var {
        let span = self.qctx.span_begin("head", "head");
        let out = self.apply_head_inner(hidden, batch, seq);
        self.qctx.span_end(span);
        out
    }

    fn apply_head_inner(&mut self, hidden: Var, batch: usize, s: usize) -> Var {
        match self.model.head {
            TaskHead::Span => self.linear(hidden, "head.span.w", "head.span.b", "head.span"),
            TaskHead::Classify(_) => {
                // first-token pooling via a constant selector [1, S]
                let mut sel = Tensor::zeros(&[1, s]);
                sel.set(&[0, 0], 1.0);
                let selv = self.tape.leaf(sel, false);
                let pooled = self.tape.matmul(selv, hidden); // [B, 1, H]
                let h = self.model.cfg.hidden;
                let pooled = self.tape.reshape(pooled, &[batch, h]);
                let t = self.tape.tanh(pooled);
                self.linear(t, "head.cls.w", "head.cls.b", "head.cls")
            }
            TaskHead::LmTied => {
                let tq = self.cut_param("embed.tok", "embed.tok.lm");
                let wt = self.tape.transpose_last2(tq);
                let hq = self
                    .qctx
                    .cut(self.tape, hidden, OpClass::Gemm, "head.lm.in");
                self.qctx.matmul_q(self.tape, hq, wt, "head.lm")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_quant::QuantScheme;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_batch(cfg: &TransformerConfig, b: usize, s: usize, rng: &mut StdRng) -> TokenBatch {
        let ids: Vec<usize> = (0..b * s).map(|_| rng.gen_range(0..cfg.vocab)).collect();
        TokenBatch::dense(ids, b, s)
    }

    #[test]
    fn encoder_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = TransformerConfig::mobilebert_tiny_sim();
        let model = Model::new(cfg.clone(), TaskHead::Span, &mut rng);
        let batch = tiny_batch(&cfg, 2, 8, &mut rng);
        let mut tape = Tape::new();
        let qctx = QuantCtx::inference(QuantScheme::fp32());
        let out = model.forward(&mut tape, &qctx, &batch, None, TrainMode::Frozen);
        assert_eq!(tape.value(out.logits).shape(), &[2, 8, 2]);
        assert_eq!(tape.value(out.hidden).shape(), &[2, 8, cfg.hidden]);
    }

    #[test]
    fn classify_head_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = TransformerConfig::bert_base_sim();
        let model = Model::new(cfg.clone(), TaskHead::Classify(3), &mut rng);
        let batch = tiny_batch(&cfg, 4, 6, &mut rng);
        let mut tape = Tape::new();
        let qctx = QuantCtx::inference(QuantScheme::bf16());
        let out = model.forward(&mut tape, &qctx, &batch, None, TrainMode::Frozen);
        assert_eq!(tape.value(out.logits).shape(), &[4, 3]);
    }

    #[test]
    fn decoder_lm_shapes_and_causality() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TransformerConfig::gpt2_large_sim();
        let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
        let b = tiny_batch(&cfg, 1, 6, &mut rng);
        let qctx = QuantCtx::inference(QuantScheme::fp32());
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &qctx, &b, None, TrainMode::Frozen);
        assert_eq!(tape.value(out.logits).shape(), &[1, 6, cfg.vocab]);
        // causality: changing a later token must not change earlier logits
        let mut b2 = b.clone();
        b2.ids[5] = (b2.ids[5] + 1) % cfg.vocab;
        let mut tape2 = Tape::new();
        let out2 = model.forward(&mut tape2, &qctx, &b2, None, TrainMode::Frozen);
        let l1 = tape.value(out.logits);
        let l2 = tape2.value(out2.logits);
        for i in 0..5 * cfg.vocab {
            assert_eq!(l1.data()[i], l2.data()[i], "position {i} leaked");
        }
        assert_ne!(
            &l1.data()[5 * cfg.vocab..],
            &l2.data()[5 * cfg.vocab..],
            "last position should change"
        );
    }

    #[test]
    fn encdec_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = TransformerConfig::whisper_tiny_sim();
        let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
        let enc = tiny_batch(&cfg, 2, 10, &mut rng);
        let dec = tiny_batch(&cfg, 2, 5, &mut rng);
        let qctx = QuantCtx::inference(QuantScheme::fp32());
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &qctx, &enc, Some(&dec), TrainMode::Frozen);
        assert_eq!(tape.value(out.logits).shape(), &[2, 5, cfg.vocab]);
    }

    #[test]
    fn padding_is_ignored_by_encoder() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = TransformerConfig::bert_base_sim();
        let model = Model::new(cfg.clone(), TaskHead::Classify(2), &mut rng);
        let qctx = QuantCtx::inference(QuantScheme::fp32());
        // same content, different padding tokens
        let mut ids1 = vec![1usize, 2, 3, 4, 0, 0];
        let valid = vec![true, true, true, true, false, false];
        let b1 = TokenBatch::with_mask(ids1.clone(), 1, 6, valid.clone());
        ids1[4] = 7;
        ids1[5] = 9;
        let b2 = TokenBatch::with_mask(ids1, 1, 6, valid);
        let mut t1 = Tape::new();
        let o1 = model.forward(&mut t1, &qctx, &b1, None, TrainMode::Frozen);
        let mut t2 = Tape::new();
        let o2 = model.forward(&mut t2, &qctx, &b2, None, TrainMode::Frozen);
        let d1 = t1.value(o1.logits).data().to_vec();
        let d2 = t2.value(o2.logits).data().to_vec();
        for (a, b) in d1.iter().zip(&d2) {
            assert!((a - b).abs() < 2e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn lora_mode_trains_only_adapters_and_head() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = TransformerConfig::bert_base_sim();
        let mut model = Model::new(cfg.clone(), TaskHead::Classify(2), &mut rng);
        model.add_lora(LoraConfig::roberta_default(), &mut rng);
        let full = model.trainable_params(TrainMode::Full);
        let lora = model.trainable_params(TrainMode::Lora);
        assert!(lora < full / 10, "lora {lora} vs full {full}");
        assert!(lora > 0);
        // gradient check: backward must produce grads for adapters only
        let batch = tiny_batch(&cfg, 2, 4, &mut rng);
        let qctx = QuantCtx::training(QuantScheme::bf16());
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &qctx, &batch, None, TrainMode::Lora);
        let loss = tape.cross_entropy(out.logits, &[0, 1]);
        let grads = tape.backward(loss);
        let a_var = out.param_vars.get("enc.0.attn.wq.lora_a").unwrap();
        let w_var = out.param_vars.get("enc.0.attn.wq").unwrap();
        assert!(grads.get(*a_var).is_some(), "adapter should have grad");
        assert!(grads.get(*w_var).is_none(), "frozen base should not");
    }

    #[test]
    fn traced_forward_nests_gemms_inside_blocks() {
        use qt_trace::{CycleModel, GemmCost, RecordKind, TraceSession};
        use std::rc::Rc;

        struct FlatCost;
        impl CycleModel for FlatCost {
            fn gemm_cost(&self, m: u64, k: u64, n: u64) -> GemmCost {
                GemmCost {
                    cycles: m * k * n,
                    macs: m * k * n,
                    active_cycles: m * k * n,
                    sram_bytes: 0,
                }
            }
            fn softmax_cycles(&self, rows: u64, width: u64) -> u64 {
                rows * width
            }
        }

        let mut rng = StdRng::seed_from_u64(8);
        let cfg = TransformerConfig::mobilebert_tiny_sim();
        let model = Model::new(cfg.clone(), TaskHead::Span, &mut rng);
        let batch = tiny_batch(&cfg, 1, 4, &mut rng);
        let session = TraceSession::new("fwd").handle();
        let qctx = QuantCtx::inference(QuantScheme::posit8())
            .with_trace(Rc::clone(&session))
            .with_cycle_model(Rc::new(FlatCost));
        let mut tape = Tape::new();
        let _ = model.forward(&mut tape, &qctx, &batch, None, TrainMode::Frozen);

        let sess = session.borrow();
        assert!(sess.open_spans() == 0, "all spans closed");
        let records = sess.records();
        let block_idx = records
            .iter()
            .position(|r| r.cat == "block")
            .expect("block span");
        // GEMM spans nest (transitively) under the block span.
        let gemm = records.iter().find(|r| r.cat == "gemm").expect("gemm span");
        assert!(gemm.depth > records[block_idx].depth);
        // Cycle model costs rolled up into the block.
        assert!(records[block_idx].total_cycles() > 0);
        // Attention GEMMs and softmax vector work were attributed.
        assert!(sess.gemm_sites().keys().any(|k| k.ends_with(".scores")));
        assert!(sess.gemm_sites().keys().any(|k| k.ends_with(".ctx")));
        assert!(sess.vector_sites().keys().any(|k| k.ends_with(".softmax")));
        // Quant events were recorded per cut site.
        assert!(!sess.quant_sites().is_empty());
        assert!(records
            .iter()
            .any(|r| matches!(r.kind, RecordKind::Instant) && r.cat == "quant"));
        drop(sess);

        // The recorded (m, k, n) of each GEMM kind, for a full enc-dec
        // forward and for cached decode steps: `m` folds every leading axis
        // of the left operand, `k` is its last axis, `n` the right
        // operand's last.
        let cfg = TransformerConfig::whisper_tiny_sim();
        let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
        let (h, nh, dh, v) = (cfg.hidden, cfg.heads, cfg.head_dim(), cfg.vocab);
        let (b, se, sd) = (2usize, 5usize, 3usize);
        let enc = tiny_batch(&cfg, b, se, &mut rng);
        let dec = tiny_batch(&cfg, b, sd, &mut rng);
        let traced = || {
            let session = TraceSession::new("dims").handle();
            let qctx = QuantCtx::inference(QuantScheme::posit8())
                .with_trace(Rc::clone(&session))
                .with_cycle_model(Rc::new(FlatCost));
            (session, qctx)
        };
        // (m, k, n) of the last GEMM span recorded at `site`.
        let dims = |session: &qt_trace::TraceHandle, site: &str| {
            let sess = session.borrow();
            let r = sess
                .records()
                .iter()
                .rev()
                .find(|r| r.cat == "gemm" && r.name == site)
                .unwrap_or_else(|| panic!("no GEMM span at {site}"));
            let arg = |a: &str| r.args.iter().find(|(k, _)| k == a).unwrap().1 as usize;
            (arg("m"), arg("k"), arg("n"))
        };

        let (session, qctx) = traced();
        let mut tape = Tape::new();
        let _ = model.forward(&mut tape, &qctx, &enc, Some(&dec), TrainMode::Frozen);
        assert_eq!(dims(&session, "dec.0.attn.q"), (b * sd, h, h));
        assert_eq!(dims(&session, "dec.0.attn.scores"), (b * nh * sd, dh, sd));
        assert_eq!(dims(&session, "dec.0.xattn.scores"), (b * nh * sd, dh, se));
        assert_eq!(dims(&session, "dec.0.attn.ctx"), (b * nh * sd, sd, dh));
        assert_eq!(dims(&session, "dec.0.xattn.ctx"), (b * nh * sd, se, dh));
        assert_eq!(dims(&session, "head.lm"), (b * sd, h, v));

        let mut state = model
            .try_encode(&QuantCtx::inference(QuantScheme::posit8()), &enc)
            .unwrap();
        let ids = vec![1; b];
        for step in 0..2 {
            let (session, qctx) = traced();
            model.try_decode_step(&qctx, &mut state, &ids).unwrap();
            let kv = step + 1;
            assert_eq!(dims(&session, "dec.0.attn.q"), (b, h, h));
            assert_eq!(dims(&session, "dec.0.attn.scores"), (b * nh, dh, kv));
            assert_eq!(dims(&session, "dec.0.xattn.scores"), (b * nh, dh, se));
            assert_eq!(dims(&session, "dec.0.attn.ctx"), (b * nh, kv, dh));
            assert_eq!(dims(&session, "head.lm"), (b, h, v));
        }
    }

    #[test]
    fn budgeted_forward_completes_fully_or_not_at_all() {
        use crate::cancel::{CancelCause, CancelToken};
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = TransformerConfig::mobilebert_tiny_sim();
        let model = Model::new(cfg.clone(), TaskHead::Span, &mut rng);
        let batch = tiny_batch(&cfg, 1, 6, &mut rng);
        let blocks = model.blocks_per_forward();
        assert_eq!(blocks, cfg.layers as u64);

        // Reference: no token attached.
        let qctx = QuantCtx::inference(QuantScheme::posit8());
        let mut tape = Tape::new();
        let reference = model.forward(&mut tape, &qctx, &batch, None, TrainMode::Frozen);
        let ref_logits = tape.value(reference.logits).data().to_vec();

        // Exactly enough budget: completes, bitwise identical.
        let token = CancelToken::with_block_budget(blocks);
        let ctx = QuantCtx::inference(QuantScheme::posit8()).with_cancel(token.clone());
        let mut t2 = Tape::new();
        let out = model
            .try_forward(&mut t2, &ctx, &batch, None, TrainMode::Frozen)
            .expect("budget covers the full pass");
        assert_eq!(t2.value(out.logits).data(), &ref_logits[..]);
        assert_eq!(token.blocks_used(), blocks);

        // One credit short: aborts at the final block, no output.
        for budget in 0..blocks {
            let token = CancelToken::with_block_budget(budget);
            let ctx = QuantCtx::inference(QuantScheme::posit8()).with_cancel(token.clone());
            let mut t3 = Tape::new();
            let err = model
                .try_forward(&mut t3, &ctx, &batch, None, TrainMode::Frozen)
                .unwrap_err();
            assert_eq!(err.cause, CancelCause::BudgetExhausted);
            assert_eq!(err.blocks_completed, budget);
            assert_eq!(token.blocks_used(), budget);
        }

        // External cancel before the pass: aborts at the first block.
        let token = CancelToken::new();
        token.cancel();
        let ctx = QuantCtx::inference(QuantScheme::posit8()).with_cancel(token);
        let mut t4 = Tape::new();
        let err = model
            .try_forward(&mut t4, &ctx, &batch, None, TrainMode::Frozen)
            .unwrap_err();
        assert_eq!(err.cause, CancelCause::Cancelled);
        assert_eq!(err.blocks_completed, 0);
    }

    #[test]
    fn encdec_budget_counts_both_stacks() {
        use crate::cancel::CancelToken;
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = TransformerConfig::whisper_tiny_sim();
        let model = Model::new(cfg.clone(), TaskHead::LmTied, &mut rng);
        assert_eq!(model.blocks_per_forward(), 2 * cfg.layers as u64);
        let enc = tiny_batch(&cfg, 1, 6, &mut rng);
        let dec = tiny_batch(&cfg, 1, 3, &mut rng);
        let token = CancelToken::with_block_budget(model.blocks_per_forward());
        let ctx = QuantCtx::inference(QuantScheme::fp32()).with_cancel(token.clone());
        let mut tape = Tape::new();
        model
            .try_forward(&mut tape, &ctx, &enc, Some(&dec), TrainMode::Frozen)
            .expect("budget covers both stacks");
        assert_eq!(token.blocks_used(), 2 * cfg.layers as u64);
    }

    #[test]
    fn full_training_step_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = TransformerConfig::mobilebert_tiny_sim();
        let model_cfg = cfg.clone();
        let mut model = Model::new(model_cfg, TaskHead::Classify(2), &mut rng);
        let batch = tiny_batch(&cfg, 4, 6, &mut rng);
        let targets = [0usize, 1, 0, 1];
        let qctx = QuantCtx::training(QuantScheme::fp32());
        let mut last = f32::INFINITY;
        for _ in 0..12 {
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &qctx, &batch, None, TrainMode::Full);
            let loss = tape.cross_entropy(out.logits, &targets);
            let lv = tape.value(loss).data()[0];
            let grads = tape.backward(loss);
            for (name, var) in &out.param_vars {
                if let Some(g) = grads.get(*var) {
                    let lr = 0.2;
                    let g = g.clone();
                    model
                        .params
                        .get_mut(name)
                        .zip_inplace(&g, |p, gv| p - lr * gv);
                }
            }
            last = lv;
        }
        assert!(last < 0.35, "loss should fall with SGD, got {last}");
    }
}
