//! Batched, bit-sliced circuit evaluation with wide-word kernels.
//!
//! The matchers issue probes in well-structured groups (binary-code
//! rounds, one-hot scans, randomized signature rounds, collision
//! sweeps), but scalar [`Circuit::apply`] walks the whole gate cascade
//! once **per probe**. This module evaluates hundreds of probes per
//! gate walk instead:
//!
//! * **Bit slicing**: input patterns are transposed so that lane `i`
//!   holds line `i` of a whole block of patterns. An MCT gate then
//!   costs one word-AND per control plus one word-XOR for the target.
//!   The lane word is 256 bits wide (256 probes per walk): AVX2
//!   registers where the CPU has them, a portable `[u64; 4]` everywhere
//!   else. At width ≤ 32 the kernels also **half-word pack** two
//!   patterns per `u64` lane slot, halving the per-probe transpose
//!   cost.
//! * **Truth tables** ([`TruthTable::compile`]): the whole function
//!   as a `2^width` lookup table, making every later probe a single
//!   load. The compile picks its arm from the cascade's shape: an
//!   in-place control-masked XOR pass per gate (no transposes) for
//!   short cascades and small tables, a batched walk over `0..2^width`
//!   for long cascades on 64–511-entry tables, and otherwise a packed
//!   sweep whose consecutive inputs have constant transposed lanes, so
//!   only the output transpose remains.
//!
//! The entry points without a kernel argument ([`Circuit::apply_batch`],
//! [`TruthTable::compile`]) run [`Kernel::Wide256`]: AVX2 where
//! detected, portable wide words otherwise. Tests and benches pin a
//! kernel per call with [`apply_kernel`] and
//! [`TruthTable::compile_with`]. Every kernel is bit-for-bit equivalent
//! to the [`Kernel::Scalar`] reference — the differential suites in
//! this module and `tests/kernels.rs` hold them to that.

#[cfg(target_arch = "x86_64")]
mod avx2;
mod word;

use crate::bits::width_mask;
use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::truth_table::TruthTable;

use word::{
    apply_gates_in_place_portable, apply_packed_into, apply_wide_into, compile_packed_into,
    PACK_MAX_WIDTH, W256,
};

/// Widest circuit an oracle may compile or hold a [`TruthTable`] for
/// (an 8 MiB table). White-box builds go up to [`TruthTable::MAX_WIDTH`].
pub const DENSE_MAX_WIDTH: usize = 20;

/// The evaluation kernel: the scalar reference, or the bit-sliced fast
/// path on 256-bit lane words.
///
/// All kernels compute identical outputs — the choice is purely a
/// throughput knob. Entry points without a kernel argument run
/// [`Kernel::Wide256`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// One scalar gate-cascade walk per probe (the reference oracle).
    Scalar,
    /// 256-bit wide words as portable `[u64; 4]` lanes: 256 probes per
    /// walk (512 half-word packed at width ≤ 32). The non-x86 path and
    /// the differential oracle for the AVX2 path.
    Wide256Portable,
    /// 256-bit wide words, dispatched to AVX2 registers when
    /// `is_x86_feature_detected!("avx2")` holds and to the portable
    /// lanes otherwise. The default.
    Wide256,
}

impl Kernel {
    /// Every kernel, in escalation order.
    pub const ALL: [Kernel; 3] = [Kernel::Scalar, Kernel::Wide256Portable, Kernel::Wide256];

    /// The kernel's name (`scalar`, `wide256-portable`, `wide256`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Wide256Portable => "wide256-portable",
            Kernel::Wide256 => "wide256",
        }
    }

    /// The name of what actually runs, resolving [`Kernel::Wide256`]'s
    /// runtime dispatch: `wide256-avx2` on CPUs with AVX2,
    /// `wide256-portable` elsewhere.
    pub fn dispatch_name(self) -> &'static str {
        match self {
            Kernel::Wide256 if avx2_available() => "wide256-avx2",
            Kernel::Wide256 => "wide256-portable",
            other => other.name(),
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the 256-bit kernels will dispatch to AVX2 on this CPU.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The dispatch-resolved name of the kernel the entry points without a
/// kernel argument run (e.g. `wide256-avx2`); what serving metrics and
/// bench logs report.
pub fn active_kernel_name() -> &'static str {
    Kernel::Wide256.dispatch_name()
}

/// Evaluates `circuit` on every pattern in `xs` with an explicit
/// [`Kernel`].
///
/// # Panics
///
/// Panics in debug builds if any pattern has bits beyond the circuit
/// width.
pub fn apply_kernel(circuit: &Circuit, kernel: Kernel, xs: &[u64]) -> Vec<u64> {
    debug_assert!(
        xs.iter().all(|&x| x & !width_mask(circuit.width()) == 0),
        "input wider than circuit"
    );
    let mut out = vec![0u64; xs.len()];
    apply_kernel_into(kernel, circuit.gates(), circuit.width(), xs, &mut out);
    out
}

/// Kernel dispatch for a gate cascade over a probe slice.
pub(crate) fn apply_kernel_into(
    kernel: Kernel,
    gates: &[Gate],
    width: usize,
    xs: &[u64],
    out: &mut [u64],
) {
    debug_assert_eq!(xs.len(), out.len());
    match kernel {
        Kernel::Scalar => {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = gates.iter().fold(x, |v, g| g.apply(v));
            }
        }
        Kernel::Wide256Portable => wide256_portable_into(gates, width, xs, out),
        Kernel::Wide256 => {
            #[cfg(target_arch = "x86_64")]
            {
                let done = if width <= PACK_MAX_WIDTH {
                    avx2::apply_packed(gates, xs, out)
                } else {
                    avx2::apply_wide(gates, xs, out)
                };
                if done {
                    return;
                }
            }
            wide256_portable_into(gates, width, xs, out);
        }
    }
}

/// The portable 256-bit path: half-word packed when the width allows.
fn wide256_portable_into(gates: &[Gate], width: usize, xs: &[u64], out: &mut [u64]) {
    if width <= PACK_MAX_WIDTH {
        apply_packed_into::<W256>(gates, xs, out);
    } else {
        apply_wide_into::<W256>(gates, xs, out);
    }
}

/// Gate count at or below which a table compiles by the in-place pass
/// at any size: one masked-XOR vector op per 4 entries per gate
/// undercuts the packed sweep's ~4.5 vector ops per entry only for
/// short cascades.
const IN_PLACE_GATE_CUTOFF: usize = 16;

/// Smallest table the packed `W256` compile sweep can fill (one block
/// of 512 packed entries).
const PACKED_COMPILE_MIN_ENTRIES: usize = 512;

/// Tables below this many entries (w ≤ 5) always compile in place: the
/// batched walk pays about one 512-lane block per gate, and an in-place
/// pass over at most 32 entries per gate costs less at any gate count.
/// Measured ([`TruthTable::compile`], 2-vCPU AVX2 VM, 32 random
/// cascades with ≤ 2 controls, best of 7 batches of 20 passes, two
/// runs), walk → in-place: w4 × 1024 gates 20.3–21.3 → 11.4–11.8 µs,
/// w5 × 320 gates 6.6–6.9 → 3.7–4.3 µs, w5 × 512 gates 10.7–11.0 →
/// 4.5–6.8 µs.
const IN_PLACE_MIN_WALK_ENTRIES: usize = 64;

/// Largest `gates × 2^width` a table of [`IN_PLACE_MIN_WALK_ENTRIES`]
/// to [`PACKED_COMPILE_MIN_ENTRIES`] entries (w6–8) compiles in place;
/// above it the batched walk over `0..2^width` wins. Measured (2-vCPU
/// AVX2 VM, 32 random cascades with ≤ 2 controls per cell, medians of
/// 7 batches, three runs), in-place ÷ walk time at 6144 / 8192 / 10240:
/// w6 0.73–0.99 / 0.80–1.03 / 0.89–0.92, w7 0.77–0.83 / 1.07–1.24 /
/// 1.19–1.39, w8 0.82–0.89 / 0.62–0.96 / 1.25–1.45.
const IN_PLACE_MAX_WORK: usize = 8192;

/// Fills `table[x] = C(x)` for every `x < table.len() = 2^width`
/// ([`TruthTable::compile_with`]'s body): [`Kernel::Scalar`] walks the
/// cascade once per entry, and the wide kernels take the cheapest arm
/// for the cascade's shape (see the module docs).
pub(crate) fn compile_into(kernel: Kernel, gates: &[Gate], width: usize, table: &mut [u64]) {
    let size = table.len();
    debug_assert_eq!(size, 1 << width);
    if kernel == Kernel::Scalar {
        for (x, o) in table.iter_mut().enumerate() {
            *o = gates.iter().fold(x as u64, |v, g| g.apply(v));
        }
        return;
    }
    let avx = kernel == Kernel::Wide256;
    let _ = avx; // read only by the x86_64 arms
    let small = size < PACKED_COMPILE_MIN_ENTRIES;
    if gates.len() <= IN_PLACE_GATE_CUTOFF
        || size < IN_PLACE_MIN_WALK_ENTRIES
        || (small && gates.len() * size <= IN_PLACE_MAX_WORK)
    {
        for (x, o) in table.iter_mut().enumerate() {
            *o = x as u64;
        }
        #[cfg(target_arch = "x86_64")]
        if avx && avx2::apply_gates_in_place(gates, table) {
            return;
        }
        apply_gates_in_place_portable(gates, table);
    } else if small {
        let xs: Vec<u64> = (0..size as u64).collect();
        apply_kernel_into(kernel, gates, width, &xs, table);
    } else {
        #[cfg(target_arch = "x86_64")]
        if avx && avx2::compile_packed(gates, width, table) {
            return;
        }
        compile_packed_into::<W256>(gates, width, table);
    }
}

/// The dense table's former name. The benchmark's per-layer replay
/// (`benchmark/src/layers.rs`) still calls `DenseTable::compile`, and
/// files under `benchmark/` change only with the benchmark itself; the
/// next benchmark change moves that call to [`TruthTable::compile`] and
/// deletes this alias.
///
/// ```
/// use revmatch_circuit::{Circuit, DenseTable, Gate, TruthTable};
///
/// let c = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)])?;
/// let table: TruthTable = DenseTable::compile(&c)?;
/// assert_eq!(table.apply_batch(&[0b011, 0b101]), vec![0b111, 0b101]);
/// # Ok::<(), revmatch_circuit::CircuitError>(())
/// ```
pub type DenseTable = TruthTable;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_circuit, RandomCircuitSpec};
    use rand::{Rng, SeedableRng};

    #[test]
    fn transpose64_is_involutive_and_exchanges_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let original: [u64; 64] = std::array::from_fn(|_| rng.gen());
        let mut m = original;
        word::transpose64_w::<u64>(&mut m);
        for (w, &word) in m.iter().enumerate() {
            for b in 0..64 {
                assert_eq!(
                    word >> b & 1,
                    original[63 - b] >> (63 - w) & 1,
                    "w={w} b={b}"
                );
            }
        }
        word::transpose64_w::<u64>(&mut m);
        assert_eq!(m, original);
    }

    #[test]
    fn bitsliced_matches_scalar_on_blocks_and_tails() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for width in [1usize, 3, 7, 12, 20, 33, 64] {
            let c = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
            let mask = width_mask(width);
            for len in [0usize, 1, 5, 63, 64, 65, 200] {
                let xs: Vec<u64> = (0..len).map(|_| rng.gen::<u64>() & mask).collect();
                let batched = c.apply_batch(&xs);
                let scalar: Vec<u64> = xs.iter().map(|&x| c.apply(x)).collect();
                assert_eq!(batched, scalar, "width={width} len={len}");
            }
        }
    }

    #[test]
    fn every_kernel_matches_scalar() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for width in [1usize, 12, 32, 33, 64] {
            let c = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
            let mask = width_mask(width);
            for len in [0usize, 1, 63, 64, 65, 256, 300, 700] {
                let xs: Vec<u64> = (0..len).map(|_| rng.gen::<u64>() & mask).collect();
                let expect: Vec<u64> = xs.iter().map(|&x| c.apply(x)).collect();
                for kernel in Kernel::ALL {
                    assert_eq!(
                        apply_kernel(&c, kernel, &xs),
                        expect,
                        "{kernel} width={width} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_dispatch_names_resolve() {
        let resolved = Kernel::Wide256.dispatch_name();
        if avx2_available() {
            assert_eq!(resolved, "wide256-avx2");
        } else {
            assert_eq!(resolved, "wide256-portable");
        }
        assert_eq!(active_kernel_name(), resolved);
        for kernel in [Kernel::Scalar, Kernel::Wide256Portable] {
            assert_eq!(kernel.dispatch_name(), kernel.name());
        }
    }

    #[test]
    fn compile_kernels_yield_identical_tables() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        // Widths straddling the in-place/packed-sweep crossover and the
        // sub-block sizes.
        for width in [2usize, 6, 8, 9, 11, 13] {
            let c = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
            let reference = TruthTable::compile_with(&c, Kernel::Scalar).unwrap();
            for kernel in Kernel::ALL {
                let table = TruthTable::compile_with(&c, kernel).unwrap();
                assert_eq!(table, reference, "{kernel} width={width}");
            }
            assert_eq!(TruthTable::compile(&c).unwrap(), reference);
        }
    }

    #[test]
    fn short_cascades_compile_through_the_in_place_path() {
        // ≤ IN_PLACE_GATE_CUTOFF gates at a width big enough for the
        // packed sweep: exercises the in-place branch at size ≥ 512.
        let c = Circuit::from_gates(
            11,
            [
                Gate::toffoli(0, 1, 2),
                Gate::cnot(3, 4),
                Gate::not(10),
                Gate::toffoli(9, 2, 0),
            ],
        )
        .unwrap();
        assert!(c.len() <= IN_PLACE_GATE_CUTOFF);
        let reference = TruthTable::compile_with(&c, Kernel::Scalar).unwrap();
        for kernel in [Kernel::Wide256Portable, Kernel::Wide256] {
            assert_eq!(TruthTable::compile_with(&c, kernel).unwrap(), reference);
        }
    }

    #[test]
    fn dense_table_matches_scalar_exhaustively() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for width in 1..=10usize {
            let c = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
            let table = TruthTable::compile(&c).unwrap();
            for x in 0..1u64 << width {
                assert_eq!(table.apply(x), c.apply(x), "width={width} x={x}");
            }
        }
    }

    #[test]
    fn dense_table_rejects_wide_circuits() {
        let c = Circuit::new(TruthTable::MAX_WIDTH + 1);
        assert!(matches!(
            TruthTable::compile(&c),
            Err(crate::CircuitError::WidthTooLarge { .. })
        ));
    }

    #[test]
    fn empty_batch_is_fine() {
        let c = Circuit::new(5);
        assert!(c.apply_batch(&[]).is_empty());
        assert!(TruthTable::compile(&c).unwrap().apply_batch(&[]).is_empty());
    }
}
