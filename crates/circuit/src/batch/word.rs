//! The wide-word kernel core: one generic gate walk over any machine
//! word.
//!
//! Every bit-sliced kernel in this module family is the same algorithm —
//! gather probe patterns into per-line lanes, transpose, run the gate
//! cascade as lane-wide AND/XOR, transpose back, scatter — parameterized
//! over a [`Word`]: the machine word holding one 64-bit column set per
//! `u64` lane. [`W256`] (`[u64; 4]`, 256 probes per gate walk) implements
//! it here; the AVX2 module re-implements the `W256` shape on `__m256i`
//! so the identical generic loops compile to 256-bit vector
//! instructions. A single `u64` lane implements it too, as the per-lane
//! reference the tests check both wide words against.
//!
//! Two probe layouts share the loops:
//!
//! * **unpacked** — one pattern per `u64` lane slot; works to width 64;
//! * **half-word packed** (width ≤ 32) — two patterns per `u64` lane
//!   slot (pattern `2k` in the low 32 bits of packed word `k`, pattern
//!   `2k+1` in the high 32), so a single 64×64 transpose retires 128
//!   patterns per lane instead of 64 — the transpose cost of the common
//!   small-width traffic is halved.
//!
//! The dense-table compile path reuses the packed walk with one extra
//! trick: the sweep inputs are the consecutive integers `0..2^w`, whose
//! bit-sliced lanes are *known constants* (the classic transpose masks
//! for the low bits, all-zeros/all-ones block splats above), so table
//! compilation skips the input transpose entirely — one transpose per
//! block instead of two, on top of the packing and the wide lanes.

use crate::gate::Gate;

/// A kernel word: `LANES64` independent `u64` lanes evaluated in
/// lock-step. All shifts are **per-lane** (each lane is a column set of
/// its own 64×64 bit matrix), which is exactly the AVX2 `vpsllq`/`vpsrlq`
/// semantics.
pub(crate) trait Word: Copy {
    /// `u64` lanes per word; one gate walk retires `64 * LANES64`
    /// unpacked probes (twice that when half-word packed).
    const LANES64: usize;

    fn zero() -> Self;
    fn ones() -> Self;
    /// Broadcasts one 64-bit value into every lane.
    fn splat(x: u64) -> Self;
    fn and(self, other: Self) -> Self;
    fn xor(self, other: Self) -> Self;
    fn not(self) -> Self;
    /// Per-lane logical shift left.
    fn shl(self, k: u32) -> Self;
    /// Per-lane logical shift right.
    fn shr(self, k: u32) -> Self;
    /// Gathers lane `i` from `src[base + i * stride]`.
    fn gather(src: &[u64], base: usize, stride: usize) -> Self;
    /// Scatters lane `i` to `dst[base + i * stride]`.
    fn scatter(self, dst: &mut [u64], base: usize, stride: usize);
}

/// One `u64` lane: the per-lane test reference. Each lane of a wide
/// word must behave exactly like this word run on that lane alone.
#[cfg(test)]
impl Word for u64 {
    const LANES64: usize = 1;

    #[inline(always)]
    fn zero() -> Self {
        0
    }
    #[inline(always)]
    fn ones() -> Self {
        !0
    }
    #[inline(always)]
    fn splat(x: u64) -> Self {
        x
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline(always)]
    fn not(self) -> Self {
        !self
    }
    #[inline(always)]
    fn shl(self, k: u32) -> Self {
        self << k
    }
    #[inline(always)]
    fn shr(self, k: u32) -> Self {
        self >> k
    }
    #[inline(always)]
    fn gather(src: &[u64], base: usize, _stride: usize) -> Self {
        src[base]
    }
    #[inline(always)]
    fn scatter(self, dst: &mut [u64], base: usize, _stride: usize) {
        dst[base] = self;
    }
}

/// The portable 256-bit kernel word: four independent `u64` lanes.
///
/// This is the non-x86 implementation of the `Wide256` kernel and the
/// differential oracle for the AVX2 one — same lane layout, same loops,
/// plain array arithmetic.
#[derive(Clone, Copy)]
pub(crate) struct W256(pub [u64; 4]);

impl Word for W256 {
    const LANES64: usize = 4;

    #[inline(always)]
    fn zero() -> Self {
        W256([0; 4])
    }
    #[inline(always)]
    fn ones() -> Self {
        W256([!0; 4])
    }
    #[inline(always)]
    fn splat(x: u64) -> Self {
        W256([x; 4])
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        W256(std::array::from_fn(|i| self.0[i] & other.0[i]))
    }
    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        W256(std::array::from_fn(|i| self.0[i] ^ other.0[i]))
    }
    #[inline(always)]
    fn not(self) -> Self {
        W256(std::array::from_fn(|i| !self.0[i]))
    }
    #[inline(always)]
    fn shl(self, k: u32) -> Self {
        W256(std::array::from_fn(|i| self.0[i] << k))
    }
    #[inline(always)]
    fn shr(self, k: u32) -> Self {
        W256(std::array::from_fn(|i| self.0[i] >> k))
    }
    #[inline(always)]
    fn gather(src: &[u64], base: usize, stride: usize) -> Self {
        W256(std::array::from_fn(|i| src[base + i * stride]))
    }
    #[inline(always)]
    fn scatter(self, dst: &mut [u64], base: usize, stride: usize) {
        for (i, lane) in self.0.into_iter().enumerate() {
            dst[base + i * stride] = lane;
        }
    }
}

/// Widest circuit the half-word packed layout supports (two patterns
/// share one `u64` lane slot).
pub(crate) const PACK_MAX_WIDTH: usize = 32;

/// Largest `u64` scratch a single block can need across every kernel:
/// the `W256` layouts span `64 * LANES64 = 256` words per block (256
/// unpacked patterns, or 512 packed ones).
pub(crate) const MAX_BLOCK_WORDS: usize = 256;

/// Transposes `LANES64` independent 64×64 bit matrices held as 64 words,
/// in place (Hacker's Delight 7-3, lane-parallel).
///
/// Per lane the exchange is `bit b of word w ↔ bit (63−w) of word
/// (63−b)`; used twice it is the identity. Callers compensate for the
/// index reversal when addressing lanes (line `l` lives in lane
/// `63 − l`).
#[inline(always)]
pub(crate) fn transpose64_w<W: Word>(a: &mut [W; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mw = W::splat(m);
        let mut k = 0usize;
        while k < 64 {
            let t = a[k].xor(a[k | j].shr(j as u32)).and(mw);
            a[k] = a[k].xor(t);
            a[k | j] = a[k | j].xor(t.shl(j as u32));
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Runs a gate cascade over transposed lanes (unpacked layout): line `l`
/// lives in `lanes[63 - l]`, with pattern `j` of each lane's sub-block
/// at bit `63 - j`.
#[inline(always)]
fn eval_gates_on_lanes_w<W: Word>(gates: &[Gate], lanes: &mut [W; 64]) {
    for g in gates {
        let mut fire = W::ones();
        let mut controls = g.control_mask();
        let positives = g.positive_mask();
        while controls != 0 {
            let line = controls.trailing_zeros() as usize;
            let lane = lanes[63 - line];
            fire = fire.and(if positives >> line & 1 == 1 {
                lane
            } else {
                lane.not()
            });
            controls &= controls - 1;
        }
        lanes[63 - g.target()] = lanes[63 - g.target()].xor(fire);
    }
}

/// Runs a gate cascade over transposed **packed** lanes: line `l` of the
/// even patterns (low halves) lives in `lanes[63 - l]`, of the odd
/// patterns (high halves) in `lanes[31 - l]`. Width ≤ 32 keeps the two
/// banks disjoint.
#[inline(always)]
fn eval_gates_on_packed_lanes_w<W: Word>(gates: &[Gate], lanes: &mut [W; 64]) {
    for g in gates {
        let mut fire_even = W::ones();
        let mut fire_odd = W::ones();
        let mut controls = g.control_mask();
        let positives = g.positive_mask();
        while controls != 0 {
            let line = controls.trailing_zeros() as usize;
            let (even, odd) = (lanes[63 - line], lanes[31 - line]);
            if positives >> line & 1 == 1 {
                fire_even = fire_even.and(even);
                fire_odd = fire_odd.and(odd);
            } else {
                fire_even = fire_even.and(even.not());
                fire_odd = fire_odd.and(odd.not());
            }
            controls &= controls - 1;
        }
        let t = g.target();
        lanes[63 - t] = lanes[63 - t].xor(fire_even);
        lanes[31 - t] = lanes[31 - t].xor(fire_odd);
    }
}

/// One unpacked block: gather → transpose → gate walk → transpose →
/// scatter. `src`/`dst` hold exactly `64 * LANES64` patterns.
#[inline(always)]
fn wide_block_into<W: Word>(gates: &[Gate], src: &[u64], dst: &mut [u64]) {
    let mut lanes = [W::zero(); 64];
    for (k, lane) in lanes.iter_mut().enumerate() {
        *lane = W::gather(src, k, 64);
    }
    transpose64_w(&mut lanes);
    eval_gates_on_lanes_w(gates, &mut lanes);
    transpose64_w(&mut lanes);
    for (k, lane) in lanes.iter().enumerate() {
        lane.scatter(dst, k, 64);
    }
}

/// Evaluates `gates` on every pattern in `xs` with the unpacked wide
/// kernel, `64 * LANES64` probes per gate walk. Any width up to 64.
#[inline(always)]
pub(crate) fn apply_wide_into<W: Word>(gates: &[Gate], xs: &[u64], out: &mut [u64]) {
    debug_assert_eq!(xs.len(), out.len());
    let span = 64 * W::LANES64;
    let full = xs.len() / span * span;
    let mut base = 0;
    while base < full {
        wide_block_into::<W>(gates, &xs[base..base + span], &mut out[base..base + span]);
        base += span;
    }
    if base < xs.len() {
        // Tail block: zero-pad into scratch (the unused slots evaluate
        // the circuit on input 0 — harmless, discarded).
        let k = xs.len() - base;
        let mut src = [0u64; MAX_BLOCK_WORDS];
        let mut dst = [0u64; MAX_BLOCK_WORDS];
        src[..k].copy_from_slice(&xs[base..]);
        wide_block_into::<W>(gates, &src[..span], &mut dst[..span]);
        out[base..].copy_from_slice(&dst[..k]);
    }
}

/// Evaluates `gates` on every pattern in `xs` with the half-word packed
/// wide kernel: `128 * LANES64` probes per gate walk, width ≤ 32 only.
#[inline(always)]
pub(crate) fn apply_packed_into<W: Word>(gates: &[Gate], xs: &[u64], out: &mut [u64]) {
    debug_assert_eq!(xs.len(), out.len());
    let words = 64 * W::LANES64;
    let span = 2 * words;
    let mut packed = [0u64; MAX_BLOCK_WORDS];
    let mut result = [0u64; MAX_BLOCK_WORDS];
    let mut base = 0;
    while base < xs.len() {
        let n = (xs.len() - base).min(span);
        let chunk = &xs[base..base + n];
        for (w, slot) in packed[..words].iter_mut().enumerate() {
            let lo = chunk.get(2 * w).copied().unwrap_or(0);
            let hi = chunk.get(2 * w + 1).copied().unwrap_or(0);
            *slot = lo | (hi << 32);
        }
        {
            let src = &packed[..words];
            let dst = &mut result[..words];
            let mut lanes = [W::zero(); 64];
            for (k, lane) in lanes.iter_mut().enumerate() {
                *lane = W::gather(src, k, 64);
            }
            transpose64_w(&mut lanes);
            eval_gates_on_packed_lanes_w(gates, &mut lanes);
            transpose64_w(&mut lanes);
            for (k, lane) in lanes.iter().enumerate() {
                lane.scatter(dst, k, 64);
            }
        }
        for (i, o) in out[base..base + n].iter_mut().enumerate() {
            let w = result[i / 2];
            *o = if i & 1 == 0 { w & 0xFFFF_FFFF } else { w >> 32 };
        }
        base += n;
    }
}

/// Lane constants for consecutive integers: `LANE_CONST[j]` has bit
/// `63 - k` set exactly where bit `j` of `k` is set (`k` in `0..64`) —
/// the bit-sliced lane of bit `j` of a consecutive 64-entry block, in
/// the kernel's reversed bit order.
const LANE_CONST: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// Compiles one packed block of a dense table: entries
/// `base .. base + 128 * LANES64`, written to `dst` in entry order.
///
/// The sweep inputs are consecutive, so their packed transposed lanes
/// are constants — the input transpose disappears. Packed word `k` of
/// `u64` sub-lane `i` holds entries `base + 2(k + 64 i)` (low half) and
/// `base + 2(k + 64 i) + 1` (high half): bit `l ≥ 1` of either entry is
/// bit `l - 1` of `base/2 + k + 64 i`, bit 0 is the half parity itself.
#[inline(always)]
fn compile_block_into<W: Word>(gates: &[Gate], width: usize, base: u64, dst: &mut [u64]) {
    debug_assert_eq!(base % (128 * W::LANES64 as u64), 0);
    debug_assert_eq!(dst.len(), 128 * W::LANES64);
    let mut lanes = [W::zero(); 64];
    let mut sub = [0u64; 4];
    for l in 0..width {
        for (i, s) in sub.iter_mut().enumerate().take(W::LANES64) {
            *s = match l {
                0 => 0,
                1..=6 => LANE_CONST[l - 1],
                _ => {
                    let half_base = base / 2 + 64 * i as u64;
                    if half_base >> (l - 1) & 1 == 1 {
                        !0
                    } else {
                        0
                    }
                }
            };
        }
        let even = W::gather(&sub[..W::LANES64], 0, 1);
        lanes[63 - l] = even;
        // The odd bank differs only in bit 0 (the +1 of each pair).
        lanes[31 - l] = if l == 0 { W::ones() } else { even };
    }
    eval_gates_on_packed_lanes_w(gates, &mut lanes);
    transpose64_w(&mut lanes);
    let words = 64 * W::LANES64;
    let mut result = [0u64; MAX_BLOCK_WORDS];
    for (k, lane) in lanes.iter().enumerate() {
        lane.scatter(&mut result[..words], k, 64);
    }
    for (i, o) in dst.iter_mut().enumerate() {
        let w = result[i / 2];
        *o = if i & 1 == 0 { w & 0xFFFF_FFFF } else { w >> 32 };
    }
}

/// Fills a whole dense table (`table[x] = gates(x)`) with the packed
/// constant-init compile sweep: one transpose per block instead of the
/// sweep path's two, `128 * LANES64` entries per gate walk.
///
/// Requires `table.len() == 2^width` with `width` large enough for at
/// least one full block; callers fall back to
/// [`apply_gates_in_place`] below that.
#[inline(always)]
pub(crate) fn compile_packed_into<W: Word>(gates: &[Gate], width: usize, table: &mut [u64]) {
    let span = 128 * W::LANES64;
    debug_assert!(
        table.len().is_multiple_of(span),
        "table must be whole blocks"
    );
    let mut base = 0;
    while base < table.len() {
        compile_block_into::<W>(gates, width, base as u64, &mut table[base..base + span]);
        base += span;
    }
}

/// Entries processed per chunk by [`apply_gates_in_place`]: 8 KiB — the
/// whole chunk stays in L1 across the per-gate passes.
const IN_PLACE_CHUNK: usize = 1024;

/// Applies a gate cascade to every table entry in place: an MCT gate is
/// a control-masked XOR bit-flip, so one pass per gate suffices —
/// `entry ^= (ctrl-match(entry)) & target_bit` — with no transposes at
/// all. Chunked so each entry stays cache-hot across the gate passes.
///
/// This is the portable path; the AVX2 module carries an intrinsics
/// twin (`vpcmpeqq`-based) selected by the same dispatch as the probe
/// kernels.
pub(crate) fn apply_gates_in_place_portable(gates: &[Gate], table: &mut [u64]) {
    for chunk in table.chunks_mut(IN_PLACE_CHUNK) {
        for g in gates {
            let mask = g.control_mask();
            let value = g.positive_mask();
            let bit = 1u64 << g.target();
            for v in chunk.iter_mut() {
                // Branchless: all-ones where the controls match.
                let fire = (((*v & mask) == value) as u64).wrapping_neg();
                *v ^= fire & bit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::width_mask;
    use crate::random::{random_circuit, RandomCircuitSpec};
    use rand::{Rng, SeedableRng};

    fn scalar(gates: &[Gate], xs: &[u64]) -> Vec<u64> {
        xs.iter()
            .map(|&x| gates.iter().fold(x, |v, g| g.apply(v)))
            .collect()
    }

    #[test]
    fn wide_and_packed_loops_match_scalar_for_both_words() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for width in [1usize, 5, 12, 31, 32, 33, 64] {
            let c = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
            let mask = width_mask(width);
            for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 256, 300, 517] {
                let xs: Vec<u64> = (0..len).map(|_| rng.gen::<u64>() & mask).collect();
                let expect = scalar(c.gates(), &xs);
                let mut out = vec![0u64; len];
                apply_wide_into::<u64>(c.gates(), &xs, &mut out);
                assert_eq!(out, expect, "wide<u64> width={width} len={len}");
                apply_wide_into::<W256>(c.gates(), &xs, &mut out);
                assert_eq!(out, expect, "wide<W256> width={width} len={len}");
                if width <= PACK_MAX_WIDTH {
                    apply_packed_into::<u64>(c.gates(), &xs, &mut out);
                    assert_eq!(out, expect, "packed<u64> width={width} len={len}");
                    apply_packed_into::<W256>(c.gates(), &xs, &mut out);
                    assert_eq!(out, expect, "packed<W256> width={width} len={len}");
                }
            }
        }
    }

    #[test]
    fn compile_blocks_and_in_place_match_scalar_sweep() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for width in [7usize, 9, 10, 12] {
            let c = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
            let size = 1usize << width;
            let inputs: Vec<u64> = (0..size as u64).collect();
            let expect = scalar(c.gates(), &inputs);

            if size >= 128 {
                let mut table = vec![0u64; size];
                compile_packed_into::<u64>(c.gates(), width, &mut table);
                assert_eq!(table, expect, "compile<u64> width={width}");
            }
            if size >= 512 {
                let mut table = vec![0u64; size];
                compile_packed_into::<W256>(c.gates(), width, &mut table);
                assert_eq!(table, expect, "compile<W256> width={width}");
            }
            let mut table: Vec<u64> = inputs.clone();
            apply_gates_in_place_portable(c.gates(), &mut table);
            assert_eq!(table, expect, "in-place width={width}");
        }
    }

    #[test]
    fn generic_transpose_matches_u64_reference_per_lane() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let blocks: [[u64; 64]; 4] = std::array::from_fn(|_| std::array::from_fn(|_| rng.gen()));
        let mut wide: [W256; 64] =
            std::array::from_fn(|k| W256(std::array::from_fn(|i| blocks[i][k])));
        transpose64_w(&mut wide);
        for (i, block) in blocks.iter().enumerate() {
            let mut reference = *block;
            transpose64_w::<u64>(&mut reference);
            for k in 0..64 {
                assert_eq!(wide[k].0[i], reference[k], "lane {i} word {k}");
            }
        }
    }
}
