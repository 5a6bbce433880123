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
//!   The lane word is a [`Kernel`] choice: plain `u64` (64 probes per
//!   walk, the original kernel) or a 256-bit wide word (256 probes —
//!   AVX2 registers where the CPU has them, a portable `[u64; 4]`
//!   everywhere else). At width ≤ 32 the wide kernels also **half-word
//!   pack** two patterns per `u64` lane slot, halving the per-probe
//!   transpose cost.
//! * **Dense tables** ([`DenseTable`]): for small widths the whole
//!   function is precompiled into a `2^width` lookup table, making
//!   every subsequent probe a single load. Compilation itself is
//!   kernel-accelerated: the sweep inputs are consecutive integers
//!   whose transposed lanes are known constants, so the wide compile
//!   skips the input transpose entirely; short cascades skip both
//!   transposes via an in-place control-masked XOR pass per gate.
//!
//! Kernel selection is automatic ([`Kernel::auto`]: AVX2 where
//! detected, portable wide words otherwise) and forcible for tests,
//! benches and the load generator via [`set_kernel_override`] or the
//! `REVMATCH_KERNEL` environment variable (`scalar`, `sliced64`,
//! `wide256`, `wide256-portable`). Every kernel is bit-for-bit
//! equivalent — the differential suites in this module and
//! `tests/kernels.rs` hold them to that.
//!
//! [`BatchEvaluator`] packages the sliced kernels and dense tables
//! behind an automatic backend choice; see [`EvalBackend::select`] for
//! the rule.

#[cfg(target_arch = "x86_64")]
mod avx2;
mod word;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::bits::width_mask;
use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::gate::Gate;

use word::{
    apply_gates_in_place_portable, apply_packed_into, apply_wide_into, compile_packed_into,
    transpose64_w, PACK_MAX_WIDTH, W256,
};

/// Widest circuit a [`DenseTable`] may be compiled for (an 8 MiB table).
pub const DENSE_MAX_WIDTH: usize = 20;

/// Widest circuit for which [`EvalBackend::select`] picks
/// [`EvalBackend::DenseTable`] automatically (a 512 KiB table, compiled
/// in one wide-word sweep).
pub const DENSE_AUTO_MAX_WIDTH: usize = 16;

/// The bit-sliced evaluation kernel: which machine word carries the
/// transposed lanes, and how many probes one gate walk retires.
///
/// All kernels compute identical outputs — the choice is purely a
/// throughput knob, resolved once per batch via [`Kernel::auto`] unless
/// a caller forces one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// One scalar gate-cascade walk per probe (the reference oracle).
    Scalar,
    /// Plain-`u64` lanes: 64 probes per gate walk (the original
    /// bit-sliced kernel).
    Sliced64,
    /// 256-bit wide words as portable `[u64; 4]` lanes: 256 probes per
    /// walk (512 half-word packed at width ≤ 32). The non-x86 path and
    /// the differential oracle for the AVX2 path.
    Wide256Portable,
    /// 256-bit wide words, dispatched to AVX2 registers when
    /// `is_x86_feature_detected!("avx2")` holds and to the portable
    /// lanes otherwise. The default.
    Wide256,
}

/// Packed override slot for [`set_kernel_override`]: 0 = none, else
/// `Kernel` position in [`Kernel::ALL`] plus 1.
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

impl Kernel {
    /// Every kernel, in escalation order.
    pub const ALL: [Kernel; 4] = [
        Kernel::Scalar,
        Kernel::Sliced64,
        Kernel::Wide256Portable,
        Kernel::Wide256,
    ];

    /// The kernel batch entry points use when none is forced: a
    /// process-wide [`set_kernel_override`] wins, then the
    /// `REVMATCH_KERNEL` environment variable (read once), then
    /// [`Kernel::Wide256`].
    pub fn auto() -> Kernel {
        match KERNEL_OVERRIDE.load(Ordering::Relaxed) {
            0 => env_kernel().unwrap_or(Kernel::Wide256),
            n => Kernel::ALL[usize::from(n) - 1],
        }
    }

    /// The kernel's forcing name (`scalar`, `sliced64`,
    /// `wide256-portable`, `wide256`), as parsed back by
    /// [`FromStr`](std::str::FromStr).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sliced64 => "sliced64",
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

impl std::str::FromStr for Kernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Kernel::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown kernel {s:?} (expected scalar | sliced64 | wide256-portable | wide256)"
                )
            })
    }
}

/// Forces every auto-selected batch evaluation in this process onto
/// `kernel` (`None` clears the override). Meant for benches, the load
/// generator's `--kernel` flag, and differential tests; outputs are
/// identical either way.
pub fn set_kernel_override(kernel: Option<Kernel>) {
    let slot = kernel.map_or(0, |k| {
        Kernel::ALL.iter().position(|&c| c == k).expect("in ALL") as u8 + 1
    });
    KERNEL_OVERRIDE.store(slot, Ordering::Relaxed);
}

fn env_kernel() -> Option<Kernel> {
    static ENV: OnceLock<Option<Kernel>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("REVMATCH_KERNEL") {
        Ok(s) => Some(s.parse().unwrap_or_else(|e| panic!("REVMATCH_KERNEL: {e}"))),
        Err(_) => None,
    })
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

/// The dispatch-resolved name of the kernel auto-selection currently in
/// effect (e.g. `wide256-avx2`); what serving metrics and bench logs
/// report.
pub fn active_kernel_name() -> &'static str {
    Kernel::auto().dispatch_name()
}

/// Transposes a 64×64 bit matrix held as 64 `u64` words, in place
/// (Hacker's Delight 7-3).
///
/// The exchange is `bit b of word w ↔ bit (63−w) of word (63−b)`; used
/// twice it is the identity, and the bit-sliced kernels compensate for
/// the index reversal when addressing lanes. The wide kernels run the
/// same network lane-parallel over 256-bit words.
pub fn transpose64(a: &mut [u64; 64]) {
    transpose64_w::<u64>(a);
}

/// Evaluates `circuit` on every pattern in `xs` with the plain-`u64`
/// bit-sliced kernel, 64 probes per gate walk.
///
/// Exposed for benchmarks and tests (it is [`Kernel::Sliced64`] by
/// name); [`Circuit::apply_batch`] is the ergonomic entry point and
/// uses [`Kernel::auto`].
///
/// # Panics
///
/// Panics in debug builds if any pattern has bits beyond the circuit
/// width.
pub fn apply_bitsliced(circuit: &Circuit, xs: &[u64]) -> Vec<u64> {
    apply_kernel(circuit, Kernel::Sliced64, xs)
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
        Kernel::Sliced64 => apply_wide_into::<u64>(gates, xs, out),
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

/// Gate-count ceiling below which [`DenseTable`] compiles via the
/// in-place per-entry pass instead of the lane sweep: one masked-XOR
/// vector op per 4 entries per gate undercuts the sweep's ~4.5 vector
/// ops per entry only for short cascades.
const IN_PLACE_GATE_CUTOFF: usize = 16;

/// Smallest table the packed `W256` compile sweep can fill (one block
/// of 512 packed entries).
const PACKED_COMPILE_MIN_ENTRIES: usize = 512;

/// A precompiled `2^width` lookup table for a reversible circuit.
///
/// Compilation costs one kernel-accelerated sweep over all `2^width`
/// inputs; afterwards every probe is a single indexed load. Worth it
/// when the expected probe volume exceeds roughly the sweep's block
/// count. The sweep exploits the inputs being consecutive integers —
/// their transposed lanes are known constants, so only the *output*
/// transpose remains — and drops to an in-place control-masked XOR pass
/// per gate for short cascades, with no transposes at all.
///
/// # Examples
///
/// ```
/// use revmatch_circuit::{Circuit, DenseTable, Gate};
///
/// let c = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)])?;
/// let table = DenseTable::compile(&c)?;
/// assert_eq!(table.apply(0b011), 0b111);
/// assert_eq!(table.apply_batch(&[0b011, 0b101]), vec![0b111, 0b101]);
/// # Ok::<(), revmatch_circuit::CircuitError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DenseTable {
    width: usize,
    table: Vec<u64>,
}

impl DenseTable {
    /// Compiles the circuit into a dense table with the auto-selected
    /// kernel ([`Kernel::auto`]).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthTooLarge`] beyond
    /// [`DENSE_MAX_WIDTH`].
    pub fn compile(circuit: &Circuit) -> Result<Self, CircuitError> {
        Self::compile_with(circuit, Kernel::auto())
    }

    /// Compiles with an explicit kernel. [`Kernel::Sliced64`] is the
    /// original transpose-sweep compile path, kept as the old-vs-new
    /// bench reference; every kernel yields bit-identical tables.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthTooLarge`] beyond
    /// [`DENSE_MAX_WIDTH`].
    pub fn compile_with(circuit: &Circuit, kernel: Kernel) -> Result<Self, CircuitError> {
        let width = circuit.width();
        if width > DENSE_MAX_WIDTH {
            return Err(CircuitError::WidthTooLarge {
                width,
                max: DENSE_MAX_WIDTH,
            });
        }
        let size = 1usize << width;
        let gates = circuit.gates();
        let mut table = vec![0u64; size];
        match kernel {
            Kernel::Scalar => {
                for (x, o) in table.iter_mut().enumerate() {
                    *o = gates.iter().fold(x as u64, |v, g| g.apply(v));
                }
            }
            Kernel::Sliced64 => {
                let inputs: Vec<u64> = (0..size as u64).collect();
                apply_wide_into::<u64>(gates, &inputs, &mut table);
            }
            Kernel::Wide256Portable | Kernel::Wide256 => {
                let avx = kernel == Kernel::Wide256;
                if gates.len() <= IN_PLACE_GATE_CUTOFF || size < PACKED_COMPILE_MIN_ENTRIES {
                    for (x, o) in table.iter_mut().enumerate() {
                        *o = x as u64;
                    }
                    #[cfg(target_arch = "x86_64")]
                    if avx && avx2::apply_gates_in_place(gates, &mut table) {
                        return Ok(Self { width, table });
                    }
                    let _ = avx;
                    apply_gates_in_place_portable(gates, &mut table);
                } else {
                    #[cfg(target_arch = "x86_64")]
                    if avx && avx2::compile_packed(gates, width, &mut table) {
                        return Ok(Self { width, table });
                    }
                    let _ = avx;
                    compile_packed_into::<W256>(gates, width, &mut table);
                }
            }
        }
        Ok(Self { width, table })
    }

    /// Number of lines.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Looks up one pattern.
    ///
    /// # Panics
    ///
    /// Panics if `x` has bits beyond the table width.
    #[inline]
    pub fn apply(&self, x: u64) -> u64 {
        debug_assert!(x & !width_mask(self.width) == 0, "input wider than circuit");
        self.table[x as usize]
    }

    /// Looks up every pattern in `xs`.
    ///
    /// # Panics
    ///
    /// Panics if any pattern has bits beyond the table width.
    pub fn apply_batch(&self, xs: &[u64]) -> Vec<u64> {
        debug_assert!(
            xs.iter().all(|&x| x & !width_mask(self.width) == 0),
            "input wider than circuit"
        );
        xs.iter().map(|&x| self.table[x as usize]).collect()
    }

    /// The raw table (`table[x] = C(x)`).
    pub fn entries(&self) -> &[u64] {
        &self.table
    }
}

impl std::fmt::Debug for DenseTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DenseTable(width={})", self.width)
    }
}

/// Which evaluation engine a [`BatchEvaluator`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalBackend {
    /// Transposed bit-sliced gate walks (kernel-dispatched); no
    /// precompute, any width up to 64.
    BitSliced,
    /// Precompiled `2^width` lookup (widths ≤ [`DENSE_MAX_WIDTH`]).
    DenseTable,
}

impl EvalBackend {
    /// The automatic backend rule, by width alone:
    /// [`EvalBackend::DenseTable`] when `width ≤ DENSE_AUTO_MAX_WIDTH`
    /// (table ≤ 512 KiB, compiled in one constant-init wide sweep),
    /// [`EvalBackend::BitSliced`] otherwise. The gate count is accepted
    /// but does not enter the rule.
    pub fn select(width: usize, _gate_count: usize) -> Self {
        if width <= DENSE_AUTO_MAX_WIDTH {
            Self::DenseTable
        } else {
            Self::BitSliced
        }
    }
}

/// A compiled batch evaluator for one circuit, with automatic backend
/// selection.
///
/// # Examples
///
/// ```
/// use revmatch_circuit::{random_circuit, BatchEvaluator, EvalBackend, RandomCircuitSpec};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let c = random_circuit(&RandomCircuitSpec::for_width(12), &mut rng);
/// let eval = BatchEvaluator::compile(&c);
/// assert_eq!(eval.backend(), EvalBackend::DenseTable); // width 12 ≤ 16
/// let xs: Vec<u64> = (0..256).collect();
/// assert_eq!(eval.apply_batch(&xs), c.apply_batch(&xs));
/// ```
#[derive(Debug, Clone)]
pub struct BatchEvaluator {
    width: usize,
    backend: BackendImpl,
}

#[derive(Debug, Clone)]
enum BackendImpl {
    Sliced(Vec<Gate>, Kernel),
    Dense(DenseTable),
}

impl BatchEvaluator {
    /// Compiles with the backend chosen by [`EvalBackend::select`] and
    /// the kernel chosen by [`Kernel::auto`].
    pub fn compile(circuit: &Circuit) -> Self {
        let backend = EvalBackend::select(circuit.width(), circuit.len());
        Self::with_backend(circuit, backend).expect("selected backend always fits")
    }

    /// Compiles with an explicit backend (kernel still auto-selected).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthTooLarge`] when
    /// [`EvalBackend::DenseTable`] is requested beyond
    /// [`DENSE_MAX_WIDTH`].
    pub fn with_backend(circuit: &Circuit, backend: EvalBackend) -> Result<Self, CircuitError> {
        let backend = match backend {
            EvalBackend::BitSliced => BackendImpl::Sliced(circuit.gates().to_vec(), Kernel::auto()),
            EvalBackend::DenseTable => BackendImpl::Dense(DenseTable::compile(circuit)?),
        };
        Ok(Self {
            width: circuit.width(),
            backend,
        })
    }

    /// A bit-sliced evaluator pinned to an explicit [`Kernel`]
    /// (differential tests and benches; no dense table involved).
    pub fn with_kernel(circuit: &Circuit, kernel: Kernel) -> Self {
        Self {
            width: circuit.width(),
            backend: BackendImpl::Sliced(circuit.gates().to_vec(), kernel),
        }
    }

    /// Number of lines.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The backend in use.
    pub fn backend(&self) -> EvalBackend {
        match self.backend {
            BackendImpl::Sliced(..) => EvalBackend::BitSliced,
            BackendImpl::Dense(_) => EvalBackend::DenseTable,
        }
    }

    /// The sliced backend's kernel; `None` for dense-table lookups
    /// (which have no gate walk left to vectorize).
    pub fn kernel(&self) -> Option<Kernel> {
        match self.backend {
            BackendImpl::Sliced(_, kernel) => Some(kernel),
            BackendImpl::Dense(_) => None,
        }
    }

    /// Evaluates one pattern.
    #[inline]
    pub fn apply(&self, x: u64) -> u64 {
        match &self.backend {
            BackendImpl::Sliced(gates, _) => gates.iter().fold(x, |v, g| g.apply(v)),
            BackendImpl::Dense(table) => table.apply(x),
        }
    }

    /// Evaluates every pattern in `xs`.
    pub fn apply_batch(&self, xs: &[u64]) -> Vec<u64> {
        match &self.backend {
            BackendImpl::Sliced(gates, kernel) => {
                let mut out = vec![0u64; xs.len()];
                apply_kernel_into(*kernel, gates, self.width, xs, &mut out);
                out
            }
            BackendImpl::Dense(table) => table.apply_batch(xs),
        }
    }
}

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
        transpose64(&mut m);
        for (w, &word) in m.iter().enumerate() {
            for b in 0..64 {
                assert_eq!(
                    word >> b & 1,
                    original[63 - b] >> (63 - w) & 1,
                    "w={w} b={b}"
                );
            }
        }
        transpose64(&mut m);
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
                let batched = apply_bitsliced(&c, &xs);
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
    fn kernel_names_round_trip_and_dispatch_resolves() {
        for kernel in Kernel::ALL {
            assert_eq!(kernel.name().parse::<Kernel>().unwrap(), kernel);
        }
        assert!("avx512".parse::<Kernel>().is_err());
        let resolved = Kernel::Wide256.dispatch_name();
        if avx2_available() {
            assert_eq!(resolved, "wide256-avx2");
        } else {
            assert_eq!(resolved, "wide256-portable");
        }
        assert_eq!(Kernel::Sliced64.dispatch_name(), "sliced64");
    }

    #[test]
    fn kernel_override_wins_over_default() {
        // Kernels are output-identical, so a racing reader in another
        // test only ever changes speed, never answers.
        set_kernel_override(Some(Kernel::Sliced64));
        assert_eq!(Kernel::auto(), Kernel::Sliced64);
        assert_eq!(active_kernel_name(), "sliced64");
        set_kernel_override(None);
        assert!(Kernel::ALL.contains(&Kernel::auto()));
    }

    #[test]
    fn compile_kernels_yield_identical_tables() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        // Widths straddling the in-place/packed-sweep crossover and the
        // sub-block sizes.
        for width in [2usize, 6, 8, 9, 11, 13] {
            let c = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
            let reference = DenseTable::compile_with(&c, Kernel::Scalar).unwrap();
            for kernel in Kernel::ALL {
                let table = DenseTable::compile_with(&c, kernel).unwrap();
                assert_eq!(table, reference, "{kernel} width={width}");
            }
            assert_eq!(DenseTable::compile(&c).unwrap(), reference);
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
        let reference = DenseTable::compile_with(&c, Kernel::Scalar).unwrap();
        for kernel in [Kernel::Wide256Portable, Kernel::Wide256] {
            assert_eq!(DenseTable::compile_with(&c, kernel).unwrap(), reference);
        }
    }

    #[test]
    fn dense_table_matches_scalar_exhaustively() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for width in 1..=10usize {
            let c = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
            let table = DenseTable::compile(&c).unwrap();
            for x in 0..1u64 << width {
                assert_eq!(table.apply(x), c.apply(x), "width={width} x={x}");
            }
        }
    }

    #[test]
    fn dense_table_rejects_wide_circuits() {
        let c = Circuit::new(DENSE_MAX_WIDTH + 1);
        assert!(matches!(
            DenseTable::compile(&c),
            Err(CircuitError::WidthTooLarge { .. })
        ));
    }

    #[test]
    fn backend_selection_rule() {
        assert_eq!(EvalBackend::select(4, 10), EvalBackend::DenseTable);
        assert_eq!(
            EvalBackend::select(DENSE_AUTO_MAX_WIDTH, 10),
            EvalBackend::DenseTable
        );
        assert_eq!(
            EvalBackend::select(DENSE_AUTO_MAX_WIDTH + 1, 10),
            EvalBackend::BitSliced
        );
        assert_eq!(EvalBackend::select(64, 10), EvalBackend::BitSliced);
    }

    #[test]
    fn evaluator_backends_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let c = random_circuit(&RandomCircuitSpec::for_width(9), &mut rng);
        let auto = BatchEvaluator::compile(&c);
        let sliced = BatchEvaluator::with_backend(&c, EvalBackend::BitSliced).unwrap();
        let dense = BatchEvaluator::with_backend(&c, EvalBackend::DenseTable).unwrap();
        assert_eq!(auto.backend(), EvalBackend::DenseTable);
        assert_eq!(auto.kernel(), None);
        assert!(sliced.kernel().is_some());
        let xs: Vec<u64> = (0..512).collect();
        let expect: Vec<u64> = xs.iter().map(|&x| c.apply(x)).collect();
        for (name, eval) in [("auto", &auto), ("sliced", &sliced), ("dense", &dense)] {
            assert_eq!(eval.apply_batch(&xs), expect, "{name}");
            assert_eq!(eval.apply(37), c.apply(37), "{name}");
            assert_eq!(eval.width(), 9, "{name}");
        }
    }

    #[test]
    fn evaluator_pinned_kernels_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let c = random_circuit(&RandomCircuitSpec::for_width(13), &mut rng);
        let xs: Vec<u64> = (0..400u64).map(|i| i * 17 % (1 << 13)).collect();
        let expect: Vec<u64> = xs.iter().map(|&x| c.apply(x)).collect();
        for kernel in Kernel::ALL {
            let eval = BatchEvaluator::with_kernel(&c, kernel);
            assert_eq!(eval.kernel(), Some(kernel));
            assert_eq!(eval.backend(), EvalBackend::BitSliced);
            assert_eq!(eval.apply_batch(&xs), expect, "{kernel}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let c = Circuit::new(5);
        assert!(apply_bitsliced(&c, &[]).is_empty());
        assert!(BatchEvaluator::compile(&c).apply_batch(&[]).is_empty());
    }
}
