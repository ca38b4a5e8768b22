//! The stride-predictor state machine shared by the forward and inverse
//! transforms (§III-A, §III-B, §III-C).
//!
//! # Hot-path layout
//!
//! The paper's formulation scans the *full* stride set at every byte —
//! to predict, to update, and to check eviction — so a default config
//! (strides 1..=100) pays ~300 stride visits per byte even after
//! adaptation has narrowed the useful set to a few strides. That scan
//! is kept as [`ReferencePredictor`](super::reference::ReferencePredictor),
//! the oracle the property tests hold this implementation to: same
//! output bytes, same per-stride hit counts, runs and active flags.
//!
//! Here only the active strides are walked, in stride-list order, so the
//! "first strictly-better run wins" prediction tie-break and the
//! `max_by_key` selection tie-break are unchanged. Per-stride phase
//! counters replace `%`, the history ring is a power of two so a lookup
//! is a mask, and the next selection boundary is a stored byte count.
//! An eviction drops strides from the active list and a selection
//! inserts one at its place; only selection scans the full set, once per
//! cycle. Bytes then take one of two paths:
//!
//! * **Batch kernel** (`batch::<K>`, for 1 to 10 active strides once the
//!   history ring is full). The bytes between two events — a selection
//!   boundary, the end of a stride's warm-up, the byte a stride turns
//!   `2s` old, or a possible eviction — run over a fixed active set
//!   whose phases and miss budgets live in local arrays. Prediction and
//!   update share one load of each stride's history byte and sequence
//!   cell, and both the choice of prediction and the cell rewrite are
//!   branch-free. Hit and observation counts are derived from the
//!   misses when the batch ends, where eviction is tested exactly. An
//!   empty active set is a copy plus a history-ring update.
//! * **Per-byte path** (`predict` + `advance`): the warm-up, while some
//!   stride still reaches before byte 0, and active sets above 10.
//!
//! Measured by `bench_codec` on a 2-vCPU host: 8.4× forward and 9.4×
//! inverse over the reference on the Fig. 3 grid-key stream (8–9 active
//! strides; 38 and 42 MB/s), where the per-byte path alone measured
//! 4.27× and 4.75×; and 110 MB/s either way on the synthetic
//! sliding-median segment stream (3–4 active strides), where the
//! per-byte path ran at 35–40 MB/s.

/// Tuning knobs of the detector. Defaults are the paper's values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformConfig {
    /// The full set is every stride in `1..=max_stride` (paper: 100,
    /// with 1000 in the brute-force comparison).
    pub max_stride: usize,
    /// If set, the full set is exactly these strides instead (the
    /// "user specifies lengths" alternative of §III, used by the stride
    /// ablation experiment with a single stride of 12).
    pub explicit_strides: Option<Vec<usize>>,
    /// If false, every stride stays active forever — the brute-force
    /// detector §III-A compares against (4× slower at max stride 100,
    /// 17× at 1000).
    pub adaptive: bool,
    /// Bytes per selection cycle (paper: 256 — "large enough to reduce
    /// CPU overhead and small enough to quickly react to input changes").
    pub selection_cycle: usize,
    /// Hit-rate eviction threshold, as a fraction (paper: 5/6).
    pub hit_rate_num: u32,
    /// Denominator of the eviction threshold.
    pub hit_rate_den: u32,
    /// A prediction is emitted only when the best run length exceeds this
    /// (paper: 2).
    pub run_threshold: u32,
}

impl Default for TransformConfig {
    fn default() -> Self {
        TransformConfig {
            max_stride: 100,
            explicit_strides: None,
            adaptive: true,
            selection_cycle: 256,
            hit_rate_num: 5,
            hit_rate_den: 6,
            run_threshold: 2,
        }
    }
}

impl TransformConfig {
    /// The paper's adaptive detector with the given maximum stride.
    pub fn adaptive(max_stride: usize) -> Self {
        TransformConfig {
            max_stride,
            ..Default::default()
        }
    }

    /// The brute-force baseline: every stride considered at every byte.
    pub fn brute_force(max_stride: usize) -> Self {
        TransformConfig {
            max_stride,
            adaptive: false,
            ..Default::default()
        }
    }

    /// A fixed set of user-specified strides (no adaptation needed —
    /// nothing to evict when the user already chose).
    pub fn fixed(strides: Vec<usize>) -> Self {
        assert!(!strides.is_empty(), "need at least one stride");
        let max = *strides.iter().max().expect("non-empty");
        TransformConfig {
            max_stride: max,
            explicit_strides: Some(strides),
            adaptive: false,
            ..Default::default()
        }
    }

    pub(crate) fn stride_list(&self) -> Vec<usize> {
        let strides = match &self.explicit_strides {
            Some(v) => v.clone(),
            None => (1..=self.max_stride).collect(),
        };
        assert!(
            strides.iter().all(|&s| s >= 1 && s <= self.max_stride),
            "strides must lie in 1..=max_stride"
        );
        strides
    }
}

/// Per-stride diagnostic snapshot (see
/// [`StridePredictor::stride_reports`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideReport {
    /// The stride length.
    pub stride: usize,
    /// Whether it is currently in the active set.
    pub active: bool,
    /// Correct predictions since (re)activation.
    pub hits: u64,
    /// Counted observations since (re)activation.
    pub observations: u64,
    /// Longest current run among this stride's phases.
    pub best_run: u32,
}

impl StrideReport {
    /// Hit rate in [0, 1]; 0 when nothing was observed.
    pub fn hit_rate(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.hits as f64 / self.observations as f64
        }
    }
}

/// Order stride reports most-effective first: active strides, then by
/// hit rate, then by stride.
pub(crate) fn sort_reports(reports: &mut [StrideReport]) {
    reports.sort_by(|a, b| {
        b.active
            .cmp(&a.active)
            .then(b.hit_rate().total_cmp(&a.hit_rate()))
            .then(a.stride.cmp(&b.stride))
    });
}

/// One tracked sequence: a (stride, phase) cell of the sequence table.
#[derive(Debug, Clone, Copy, Default)]
struct Sequence {
    /// The difference δ of equation (1).
    delta: u8,
    /// "the number of times in a row that the sequence has predicted the
    /// correct value"
    run: u32,
}

/// Per-stride bookkeeping for the active-set policy.
#[derive(Debug, Clone)]
struct StrideState {
    stride: usize,
    /// Index into the flat sequence table where this stride's `stride`
    /// phases begin.
    table_offset: usize,
    active: bool,
    /// Current phase (`pos % stride`), maintained incrementally while
    /// the stride is active and recomputed on re-activation, so the hot
    /// loop never divides.
    phase: usize,
    /// Correct predictions since (re)activation.
    hits: u64,
    /// Total predictions since (re)activation.
    total: u64,
    /// Byte offset at which the stride was last activated.
    activated_at: u64,
    /// Observations still inside the post-activation warm-up window (one
    /// per phase): they update deltas and runs but do not count toward
    /// the hit rate, giving it "a chance to settle" (§III-A).
    warmup: u64,
    /// Selection cycle in which the stride was evicted (valid when
    /// inactive).
    removed_at_cycle: u64,
    /// Selection cycle in which the stride was last re-admitted.
    last_selected_cycle: u64,
}

/// How many more misses a counting stride with `hits` of `total` can
/// take before `hits·den < total·num` could first hold: the slack
/// `hits·den − total·num` over `num`. A hit adds `den − num ≥ 0` to the
/// slack, so only misses use it up. −1 (test after the next byte) when
/// `num > den` lets hits shrink the slack too, or when a product could
/// wrap within the next `span` bytes, where the per-byte test compares
/// wrapped products. `num` is nonzero.
fn miss_budget(hits: u64, total: u64, num: u64, den: u64, span: u64) -> i64 {
    let fits = |count: u64, factor: u64| count.saturating_add(span).checked_mul(factor).is_some();
    if num > den || !fits(hits, den) || !fits(total, num) {
        return -1;
    }
    // Non-negative: the test was false after the previous byte.
    let slack = (hits * den).saturating_sub(total * num);
    i64::try_from(slack / num).unwrap_or(i64::MAX)
}

/// The predictor: feed it bytes via [`StridePredictor::forward`] /
/// [`StridePredictor::inverse`]; both directions evolve identical state,
/// which is what makes the transform invertible without side information.
#[derive(Debug, Clone)]
pub struct StridePredictor {
    config: TransformConfig,
    strides: Vec<StrideState>,
    /// Indices of active strides, in stride-list order (the order the
    /// original implementation visited them, which the prediction and
    /// selection tie-breaks depend on).
    active_list: Vec<u32>,
    /// Flat sequence table; stride `s` with phase `φ` lives at
    /// `table_offset(s) + φ`.
    table: Vec<Sequence>,
    /// Ring buffer of the last `max_stride` original (reconstructed)
    /// bytes, power-of-two sized.
    history: Vec<u8>,
    /// `history.len() - 1`.
    hist_mask: usize,
    /// Total bytes processed.
    pos: u64,
    /// Current selection cycle number.
    cycle: u64,
    /// Byte count at which the next selection cycle ends.
    next_selection: u64,
}

impl StridePredictor {
    /// Fresh predictor state.
    pub fn new(config: TransformConfig) -> Self {
        let stride_list = config.stride_list();
        let mut table_len = 0usize;
        let strides: Vec<StrideState> = stride_list
            .iter()
            .map(|&s| {
                let st = StrideState {
                    stride: s,
                    table_offset: table_len,
                    active: true,
                    phase: 0,
                    hits: 0,
                    total: 0,
                    activated_at: 0,
                    warmup: s as u64,
                    removed_at_cycle: 0,
                    last_selected_cycle: 0,
                };
                table_len += s;
                st
            })
            .collect();
        let hist_len = config.max_stride.max(1).next_power_of_two();
        StridePredictor {
            active_list: (0..strides.len() as u32).collect(),
            history: vec![0u8; hist_len],
            hist_mask: hist_len - 1,
            // A zero-length cycle never ends (no byte count is a
            // multiple of 0), so selection never runs.
            next_selection: match config.selection_cycle {
                0 => u64::MAX,
                c => c as u64,
            },
            config,
            strides,
            table: vec![Sequence::default(); table_len],
            pos: 0,
            cycle: 0,
        }
    }

    /// The configuration this predictor runs.
    pub fn config(&self) -> &TransformConfig {
        &self.config
    }

    /// §III-B: the prediction for the next byte, if any sequence's run
    /// length exceeds the threshold. Walks only the active list; the
    /// first strictly-better run wins, as in the full-set scan.
    #[inline]
    fn predict(&self) -> Option<u8> {
        let pos = self.pos;
        let mut best_run = self.config.run_threshold;
        let mut best: Option<u8> = None;
        for &ai in &self.active_list {
            let st = &self.strides[ai as usize];
            if (st.stride as u64) > pos {
                continue;
            }
            let seq = &self.table[st.table_offset + st.phase];
            if seq.run > best_run {
                best_run = seq.run;
                let prev = self.history[(pos as usize - st.stride) & self.hist_mask];
                best = Some(prev.wrapping_add(seq.delta));
            }
        }
        best
    }

    /// Feed the actual byte `x` (original on the forward path,
    /// reconstructed on the inverse path) and evolve all state.
    ///
    /// One pass over the active list updates each stride's sequence cell
    /// *and* applies the eviction rule: an active stride's counters only
    /// change here and they change on every byte, so checking right
    /// after the update is the original per-byte check.
    fn advance(&mut self, x: u8) {
        let pos = self.pos;
        let new_pos = pos + 1;
        let adaptive = self.config.adaptive;
        let (num, den) = (
            self.config.hit_rate_num as u64,
            self.config.hit_rate_den as u64,
        );
        let mut evicted = false;
        for &ai in &self.active_list {
            let st = &mut self.strides[ai as usize];
            let s = st.stride;
            if (s as u64) <= pos {
                let prev = self.history[(pos as usize - s) & self.hist_mask];
                let seq = &mut self.table[st.table_offset + st.phase];
                let counted = if st.warmup > 0 {
                    st.warmup -= 1;
                    false
                } else {
                    st.total += 1;
                    true
                };
                if prev.wrapping_add(seq.delta) == x {
                    seq.run += 1;
                    if counted {
                        st.hits += 1;
                    }
                } else {
                    seq.delta = x.wrapping_sub(prev);
                    seq.run = 0;
                }
                // Eviction: active ≥ 2s bytes and hit rate below
                // threshold.
                if adaptive
                    && new_pos - st.activated_at >= 2 * s as u64
                    && st.total > 0
                    && st.hits * den < st.total * num
                {
                    st.active = false;
                    st.removed_at_cycle = self.cycle;
                    evicted = true;
                }
            }
            st.phase += 1;
            if st.phase >= s {
                st.phase = 0;
            }
        }

        // Record the byte.
        self.history[pos as usize & self.hist_mask] = x;
        self.pos = new_pos;
        self.after_byte(evicted);
    }

    /// The events that end a byte: drop evicted strides from the active
    /// list, and run selection at the end of a cycle.
    fn after_byte(&mut self, evicted: bool) {
        if !self.config.adaptive {
            return;
        }
        if evicted {
            let strides = &self.strides;
            self.active_list.retain(|&i| strides[i as usize].active);
        }

        // Selection: once per cycle, re-admit the eligible stride that has
        // been out of the active set the longest. This still scans the
        // full stride list, but only once per `selection_cycle` bytes,
        // and the `max_by_key` (last-max-wins) tie-break is untouched.
        if self.pos == self.next_selection {
            self.next_selection += self.config.selection_cycle as u64;
            self.cycle += 1;
            let (cycle, pos) = (self.cycle, self.pos);
            if let Some((id, st)) = self
                .strides
                .iter_mut()
                .enumerate()
                .filter(|(_, st)| !st.active && cycle - st.last_selected_cycle >= st.stride as u64)
                .max_by_key(|(_, st)| cycle - st.removed_at_cycle)
            {
                st.active = true;
                st.phase = (pos % st.stride as u64) as usize;
                st.hits = 0;
                st.total = 0;
                st.activated_at = pos;
                st.warmup = st.stride as u64;
                st.last_selected_cycle = cycle;
                let id = id as u32;
                let at = self.active_list.partition_point(|&i| i < id);
                self.active_list.insert(at, id);
            }
        }
    }

    /// Bytes the batch kernels may run before the next event they cannot
    /// see coming: the end of the input or of the selection cycle.
    fn batch_limit(&self, input_len: usize) -> usize {
        if self.config.adaptive {
            input_len.min((self.next_selection - self.pos) as usize)
        } else {
            input_len
        }
    }

    /// The empty active set: nothing predicts, so the output is the
    /// input and only the history ring moves.
    fn batch_idle(&mut self, input: &[u8], out: &mut [u8]) -> usize {
        let n = self.batch_limit(input.len());
        out[..n].copy_from_slice(&input[..n]);
        let first = n.saturating_sub(self.history.len());
        for (i, &x) in input[..n].iter().enumerate().skip(first) {
            self.history[(self.pos as usize + i) & self.hist_mask] = x;
        }
        self.pos += n as u64;
        self.after_byte(false);
        n
    }

    /// The steady-state kernel over a fixed active set of `K` strides.
    ///
    /// A batch ends at the first event that changes how a stride is
    /// treated: the end of the input or of the selection cycle, the end
    /// of a stride's warm-up, the byte where a stride's age reaches `2s`,
    /// or a stride that may have to be evicted. In between, each stride
    /// either warms up for the whole batch or counts every byte, so the
    /// loop keeps only each stride's phase and a miss budget in local
    /// arrays, and its hit and observation counts follow from the misses
    /// when the batch ends. Prediction and update share one load of the
    /// history byte and the sequence cell, and the cell is rewritten
    /// without branching (on a hit `x - prev` already equals δ). Returns
    /// the bytes consumed.
    ///
    /// Eviction needs `age ≥ 2s`, `total > 0` and `hits·den < total·num`.
    /// It is tested exactly after every batch, as the per-byte path tests
    /// it after every byte. Inside a batch, a counting stride that is
    /// already `2s` old gets a budget of misses it can take before the
    /// test could first fail (hits only raise the rate while `num ≤
    /// den`); the miss that exhausts it ends the batch. When the budget
    /// cannot be derived (`num > den`, or products that could wrap) it
    /// starts exhausted, so the batch is one byte long.
    fn batch<const K: usize, const FORWARD: bool>(
        &mut self,
        input: &[u8],
        out: &mut [u8],
    ) -> usize {
        let pos0 = self.pos;
        let adaptive = self.config.adaptive;
        let (num, den) = (
            u64::from(self.config.hit_rate_num),
            u64::from(self.config.hit_rate_den),
        );
        let threshold = self.config.run_threshold;
        let mut n = self.batch_limit(input.len());
        let span = n as u64;
        let mut ids = [0usize; K];
        let mut stride = [0usize; K];
        let mut base = [0usize; K];
        let mut phase = [0usize; K];
        let mut budget = [i64::MAX; K];
        let mut initial_budget = [i64::MAX; K];
        for k in 0..K {
            let id = self.active_list[k] as usize;
            let st = &self.strides[id];
            ids[k] = id;
            stride[k] = st.stride;
            base[k] = st.table_offset;
            phase[k] = st.phase;
            if st.warmup > 0 {
                n = n.min(st.warmup as usize);
            }
            if adaptive {
                let evict_from = st.activated_at + 2 * st.stride as u64;
                if evict_from > pos0 {
                    n = n.min((evict_from - pos0) as usize);
                } else if st.warmup == 0 && num > 0 {
                    budget[k] = miss_budget(st.hits, st.total, num, den, span);
                    initial_budget[k] = budget[k];
                }
            }
        }
        let mask = self.hist_mask;
        let history = &mut self.history[..=mask];
        let table = &mut self.table[..];
        let mut pos = pos0 as usize;
        let mut consumed = n;
        for (i, (&b, o)) in input[..n].iter().zip(&mut out[..n]).enumerate() {
            let mut prev = [0u8; K];
            let mut cell = [Sequence::default(); K];
            let mut best_run = threshold;
            let mut pred = 0u8;
            for k in 0..K {
                prev[k] = history[(pos - stride[k]) & mask];
                cell[k] = table[base[k] + phase[k]];
                // First strictly longer run wins, selected without a
                // branch.
                let longer = u8::from(cell[k].run > best_run).wrapping_neg();
                pred = (pred & !longer) | (prev[k].wrapping_add(cell[k].delta) & longer);
                best_run = best_run.max(cell[k].run);
            }
            let x = if FORWARD {
                *o = b.wrapping_sub(pred);
                b
            } else {
                *o = b.wrapping_add(pred);
                *o
            };
            // Sign bit set once any budget is exhausted.
            let mut exhausted = 0i64;
            for k in 0..K {
                let hit = prev[k].wrapping_add(cell[k].delta) == x;
                table[base[k] + phase[k]] = Sequence {
                    delta: x.wrapping_sub(prev[k]),
                    run: (cell[k].run + 1) & u32::from(hit).wrapping_neg(),
                };
                budget[k] -= i64::from(!hit);
                exhausted |= budget[k];
                phase[k] += 1;
                phase[k] = if phase[k] == stride[k] { 0 } else { phase[k] };
            }
            history[pos & mask] = x;
            pos += 1;
            if exhausted < 0 {
                consumed = i + 1;
                break;
            }
        }
        let (cycle, pos) = (self.cycle, pos as u64);
        let mut any_evicted = false;
        for k in 0..K {
            let st = &mut self.strides[ids[k]];
            st.phase = phase[k];
            if st.warmup > 0 {
                st.warmup -= consumed as u64;
                continue;
            }
            let misses = (initial_budget[k] - budget[k]) as u64;
            st.total += consumed as u64;
            st.hits += consumed as u64 - misses;
            if adaptive
                && pos - st.activated_at >= 2 * st.stride as u64
                && st.hits.wrapping_mul(den) < st.total.wrapping_mul(num)
            {
                st.active = false;
                st.removed_at_cycle = cycle;
                any_evicted = true;
            }
        }
        self.pos = pos;
        self.after_byte(any_evicted);
        consumed
    }

    /// One byte through [`predict`](Self::predict) and
    /// [`advance`](Self::advance).
    fn step<const FORWARD: bool>(&mut self, b: u8, out: &mut u8) -> usize {
        let p = self.predict().unwrap_or(0);
        let x = if FORWARD {
            *out = b.wrapping_sub(p);
            b
        } else {
            *out = b.wrapping_add(p);
            *out
        };
        self.advance(x);
        1
    }

    fn transform<const FORWARD: bool>(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; input.len()];
        let mut done = 0;
        while done < input.len() {
            let (rest, dst) = (&input[done..], &mut out[done..]);
            // The batch kernel takes up to 10 active strides (the Fig. 3
            // grid walk keeps 8–9, sliding-median segments 3–4). Warm-up,
            // while some stride still reaches before byte 0, and larger
            // sets go byte by byte.
            let k = if (self.pos as usize) < self.history.len() {
                usize::MAX
            } else {
                self.active_list.len()
            };
            done += match k {
                0 => self.batch_idle(rest, dst),
                1 => self.batch::<1, FORWARD>(rest, dst),
                2 => self.batch::<2, FORWARD>(rest, dst),
                3 => self.batch::<3, FORWARD>(rest, dst),
                4 => self.batch::<4, FORWARD>(rest, dst),
                5 => self.batch::<5, FORWARD>(rest, dst),
                6 => self.batch::<6, FORWARD>(rest, dst),
                7 => self.batch::<7, FORWARD>(rest, dst),
                8 => self.batch::<8, FORWARD>(rest, dst),
                9 => self.batch::<9, FORWARD>(rest, dst),
                10 => self.batch::<10, FORWARD>(rest, dst),
                _ => self.step::<FORWARD>(rest[0], &mut dst[0]),
            };
        }
        out
    }

    /// Forward transform (§III-B): returns the delta stream `y`.
    pub fn forward(&mut self, input: &[u8]) -> Vec<u8> {
        self.transform::<true>(input)
    }

    /// Inverse transform (§III-C): reconstructs `x` from the delta stream.
    pub fn inverse(&mut self, input: &[u8]) -> Vec<u8> {
        self.transform::<false>(input)
    }

    /// Number of currently active strides (observability for tests and
    /// the tuning bench).
    pub fn active_strides(&self) -> usize {
        self.active_list.len()
    }

    /// Per-stride diagnostics, most-effective strides first (by hit rate
    /// among active strides, then by stride). Lets tooling answer the
    /// §III-A question "which strides matter for this input" — typically
    /// "one or two linear sequences are enough".
    pub fn stride_reports(&self) -> Vec<StrideReport> {
        let mut out: Vec<StrideReport> = self
            .strides
            .iter()
            .map(|st| StrideReport {
                stride: st.stride,
                active: st.active,
                hits: st.hits,
                observations: st.total,
                best_run: (0..st.stride)
                    .map(|phi| self.table[st.table_offset + phi].run)
                    .max()
                    .unwrap_or(0),
            })
            .collect();
        sort_reports(&mut out);
        out
    }

    /// Fraction of input bytes that were emitted as zero deltas would be
    /// ideal; this instead reports the overall hit rate of currently
    /// active strides (diagnostic).
    pub fn mean_active_hit_rate(&self) -> f64 {
        let (hits, total) = self
            .strides
            .iter()
            .filter(|s| s.active)
            .fold((0u64, 0u64), |(h, t), s| (h + s.hits, t + s.total));
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::reference::ReferencePredictor;

    fn grid_stream(n: i32) -> Vec<u8> {
        let mut data = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    data.extend_from_slice(&x.to_be_bytes());
                    data.extend_from_slice(&y.to_be_bytes());
                    data.extend_from_slice(&z.to_be_bytes());
                }
            }
        }
        data
    }

    fn roundtrip(config: &TransformConfig, data: &[u8]) -> Vec<u8> {
        let t = StridePredictor::new(config.clone()).forward(data);
        let back = StridePredictor::new(config.clone()).inverse(&t);
        assert_eq!(back, data, "inverse(forward(x)) != x");
        t
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        let c = TransformConfig::default();
        roundtrip(&c, b"");
        roundtrip(&c, b"a");
        roundtrip(&c, b"ab");
        roundtrip(&c, &[0u8; 10]);
    }

    #[test]
    fn roundtrip_grid_stream() {
        let c = TransformConfig::default();
        roundtrip(&c, &grid_stream(12));
    }

    #[test]
    fn roundtrip_random_data() {
        let mut state = 5u64;
        let data: Vec<u8> = (0..30_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        roundtrip(&TransformConfig::default(), &data);
        roundtrip(&TransformConfig::brute_force(20), &data);
        roundtrip(&TransformConfig::fixed(vec![12]), &data);
    }

    #[test]
    fn grid_stream_becomes_mostly_zero() {
        // The whole point of the transform: on a regular grid walk, almost
        // every byte is predicted and the delta stream is almost all 0.
        let c = TransformConfig::default();
        let data = grid_stream(16); // records of 12 bytes
        let t = roundtrip(&c, &data);
        let zeros = t.iter().filter(|&&b| b == 0).count();
        // Wrap rows (the z coordinate resets every 16 records, a stride of
        // 192 > max_stride) stay unpredictable; everything else zeroes.
        assert!(
            zeros as f64 > 0.92 * t.len() as f64,
            "only {zeros}/{} zero bytes after transform",
            t.len()
        );
    }

    #[test]
    fn fixed_stride_matches_record_size_predicts_well() {
        let data = grid_stream(16);
        let c = TransformConfig::fixed(vec![12]);
        let t = roundtrip(&c, &data);
        let zeros = t.iter().filter(|&&b| b == 0).count();
        assert!(
            zeros as f64 > 0.9 * t.len() as f64,
            "stride-12 should predict a 12-byte-record stream: {zeros}/{}",
            t.len()
        );
    }

    #[test]
    fn wrong_fixed_stride_predicts_poorly() {
        let data = grid_stream(16);
        let good = TransformConfig::fixed(vec![12]);
        let bad = TransformConfig::fixed(vec![7]);
        let tg = roundtrip(&good, &data);
        let tb = roundtrip(&bad, &data);
        let zg = tg.iter().filter(|&&b| b == 0).count();
        let zb = tb.iter().filter(|&&b| b == 0).count();
        assert!(
            zg > zb,
            "stride 12 ({zg} zeros) must beat stride 7 ({zb} zeros)"
        );
    }

    #[test]
    fn adaptive_evicts_useless_strides() {
        let c = TransformConfig::adaptive(50);
        let mut p = StridePredictor::new(c);
        let data = grid_stream(12);
        let _ = p.forward(&data);
        // On a perfectly regular stream most strides mispredict (only
        // multiples of 12 survive); the active set must have shrunk.
        assert!(
            p.active_strides() < 50,
            "active set did not shrink: {}",
            p.active_strides()
        );
    }

    #[test]
    fn brute_force_never_evicts() {
        let c = TransformConfig::brute_force(50);
        let mut p = StridePredictor::new(c);
        let _ = p.forward(&grid_stream(10));
        assert_eq!(p.active_strides(), 50);
    }

    #[test]
    fn streaming_chunks_equal_one_shot() {
        // Feeding the data in chunks must produce the identical stream
        // (constant-size state, no lookahead — §III-D).
        let data = grid_stream(10);
        let c = TransformConfig::default();
        let one = StridePredictor::new(c.clone()).forward(&data);
        let mut p = StridePredictor::new(c);
        let mut chunked = Vec::new();
        for chunk in data.chunks(997) {
            chunked.extend_from_slice(&p.forward(chunk));
        }
        assert_eq!(one, chunked);
    }

    #[test]
    fn linear_counter_stream_is_predicted() {
        // A pure 32-bit counter: low byte advances by 1 with stride 4
        // (the Fig. 2 pattern with δ=1).
        let data: Vec<u8> = (0..4000u32).flat_map(|i| i.to_be_bytes()).collect();
        let c = TransformConfig::adaptive(16);
        let t = roundtrip(&c, &data);
        let zeros = t.iter().filter(|&&b| b == 0).count();
        assert!(
            zeros as f64 > 0.95 * t.len() as f64,
            "counter stream should be almost fully predicted: {zeros}/{}",
            t.len()
        );
    }

    #[test]
    #[should_panic(expected = "need at least one stride")]
    fn fixed_requires_strides() {
        let _ = TransformConfig::fixed(vec![]);
    }

    #[test]
    fn stride_reports_identify_the_record_size() {
        // §III-A: "one or two linear sequences are enough to achieve most
        // of the compression ... typically equal to, or a small multiple
        // of, the size of the serialized key/value pair." The top report
        // on a 12-byte-record stream must be a multiple of 12.
        let mut p = StridePredictor::new(TransformConfig::adaptive(50));
        let _ = p.forward(&grid_stream(12));
        let reports = p.stride_reports();
        let top = &reports[0];
        assert!(top.active);
        assert_eq!(top.stride % 12, 0, "top stride {}", top.stride);
        assert!(top.hit_rate() > 0.9, "hit rate {}", top.hit_rate());
        assert!(top.best_run > 100);
        // Reports cover the full stride universe.
        assert_eq!(reports.len(), 50);
    }

    #[test]
    fn adapts_across_multi_variable_streams() {
        // §III: "If multiple variables are output ... they may have
        // different stride lengths due to different shapes." A stream that
        // switches from 12-byte records (3-D keys) to 8-byte records
        // (2-D keys) defeats any single fixed stride, but the adaptive
        // detector re-tunes after the switch.
        let mut data = Vec::new();
        for x in 0..20i32 {
            for y in 0..20i32 {
                for z in 0..20i32 {
                    data.extend_from_slice(&x.to_be_bytes());
                    data.extend_from_slice(&y.to_be_bytes());
                    data.extend_from_slice(&z.to_be_bytes());
                }
            }
        }
        let switch = data.len();
        for x in 0..90i32 {
            for y in 0..90i32 {
                data.extend_from_slice(&x.to_be_bytes());
                data.extend_from_slice(&y.to_be_bytes());
            }
        }
        let adaptive = TransformConfig::default();
        let t = roundtrip(&adaptive, &data);
        // Both halves should end up mostly predicted (skip a re-learning
        // window after the switch).
        let head_zeros = t[..switch].iter().filter(|&&b| b == 0).count();
        let tail = &t[switch + 8192..];
        let tail_zeros = tail.iter().filter(|&&b| b == 0).count();
        assert!(
            head_zeros as f64 > 0.9 * switch as f64,
            "head {head_zeros}/{switch}"
        );
        assert!(
            tail_zeros as f64 > 0.9 * tail.len() as f64,
            "tail {tail_zeros}/{}",
            tail.len()
        );
        // A fixed stride tuned to the first variable does much worse on
        // the second half.
        let fixed = TransformConfig::fixed(vec![12]);
        let tf = roundtrip(&fixed, &data);
        let fixed_tail_zeros = tf[switch + 8192..].iter().filter(|&&b| b == 0).count();
        assert!(
            tail_zeros > fixed_tail_zeros,
            "adaptive tail {tail_zeros} must beat fixed-12 tail {fixed_tail_zeros}"
        );
    }

    #[test]
    fn delta_zero_counts_as_valid_prediction() {
        // §III-A: "a value of 0 for δ is still valid" — constant bytes
        // must be predicted too. All-constant stream → all zeros out
        // (after warm-up).
        let data = vec![0xABu8; 2000];
        let c = TransformConfig::adaptive(8);
        let t = roundtrip(&c, &data);
        let tail = &t[64..];
        assert!(
            tail.iter().all(|&b| b == 0),
            "constant stream not predicted"
        );
    }

    #[test]
    fn fast_path_matches_reference_byte_for_byte() {
        // The optimized batch loop must evolve exactly the same state as
        // the original full-set scan — same output bytes, same surviving
        // active set — across configs that exercise eviction, selection,
        // warm-up, and the fixed/brute-force modes.
        let mut mixed = grid_stream(14);
        let mut state = 99u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            mixed.push((state >> 33) as u8);
        }
        mixed.extend((0..3000u32).flat_map(|i| i.to_be_bytes()));
        for config in [
            TransformConfig::default(),
            TransformConfig::adaptive(17),
            TransformConfig::adaptive(1),
            TransformConfig::brute_force(33),
            TransformConfig::fixed(vec![12]),
            TransformConfig::fixed(vec![3, 7, 12, 100]),
            TransformConfig {
                selection_cycle: 64,
                hit_rate_num: 1,
                hit_rate_den: 2,
                run_threshold: 0,
                ..TransformConfig::adaptive(25)
            },
        ] {
            let fast = StridePredictor::new(config.clone());
            let slow = ReferencePredictor::new(config.clone());
            let mut fast_f = fast.clone();
            let mut slow_f = slow.clone();
            let f1 = fast_f.forward(&mixed);
            let f2 = slow_f.forward(&mixed);
            assert_eq!(f1, f2, "forward diverged for {config:?}");
            assert_eq!(
                fast_f.active_strides(),
                slow_f.active_strides(),
                "active set diverged for {config:?}"
            );
            let mut fast_i = fast.clone();
            let mut slow_i = slow.clone();
            assert_eq!(
                fast_i.inverse(&f1),
                slow_i.inverse(&f2),
                "inverse diverged for {config:?}"
            );
        }
    }
}
