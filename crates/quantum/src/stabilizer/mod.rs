//! CHP-style stabilizer simulation (Aaronson–Gottesman tableau).
//!
//! A stabilizer state over `n` qubits is represented not by `2^n`
//! amplitudes but by the `n` Pauli operators that stabilize it —
//! `O(n²)` bits total, updated in `O(n)` word operations per Clifford
//! gate. That asymptotic gap is what breaks the dense-state-vector
//! width wall for the Simon sampling path: the whole Simon round over a
//! reversible XOR oracle reduces to H/CNOT/X gates plus
//! computational-basis measurements, all of which a tableau handles
//! exactly, at widths where `2^(2n+1)` amplitudes could never be
//! allocated. The Simon matcher goes one step further and samples that
//! round's outcome in closed form; the tableau is the reference its
//! tests diff the closed form against, draw for draw.
//!
//! The implementation follows the CHP construction (Aaronson &
//! Gottesman, *Improved simulation of stabilizer circuits*, 2004):
//! `2n` generator rows (destabilizers then stabilizers) of bit-packed
//! X/Z bits on `u64` words — the same packing idiom as the batched
//! oracle kernels in `revmatch-circuit`'s `batch/word.rs` — plus a sign
//! bit per row and one scratch row for deterministic-measurement phase
//! accumulation. Only the Clifford fragment the Simon circuit needs is
//! exposed (H, CNOT, X, measurement); anything non-Clifford (the
//! swap-test's controlled-SWAP, arbitrary Toffoli cascades) must stay
//! on the dense state vector.

mod tableau;

pub use tableau::{Tableau, STABILIZER_MAX_QUBITS};
