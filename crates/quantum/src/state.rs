//! Quantum states: product-state descriptions and full state vectors.
//!
//! The paper's quantum algorithms prepare *product* inputs over the basis
//! `{|0⟩, |1⟩, |+⟩, |−⟩}` (Algorithm 1 and §4.6), feed them through
//! reversible circuits, and compare the outputs with the swap test.
//! [`ProductState`] captures the preparation; [`StateVector`] is the dense
//! amplitude vector the simulator operates on.

use std::fmt;

use rand::Rng;
use revmatch_circuit::Circuit;

use crate::complex::Complex;
use crate::error::QuantumError;

/// Largest qubit count for a dense state vector (2^20 amplitudes = 16 MiB).
pub const MAX_QUBITS: usize = 20;

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// A single-qubit preparation basis state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Qubit {
    /// `|0⟩`.
    Zero,
    /// `|1⟩`.
    One,
    /// `|+⟩ = (|0⟩ + |1⟩)/√2`.
    Plus,
    /// `|−⟩ = (|0⟩ − |1⟩)/√2`.
    Minus,
}

impl Qubit {
    /// Amplitudes `(⟨0|q⟩, ⟨1|q⟩)`.
    pub fn amplitudes(self) -> (Complex, Complex) {
        match self {
            Self::Zero => (Complex::ONE, Complex::ZERO),
            Self::One => (Complex::ZERO, Complex::ONE),
            Self::Plus => (Complex::real(FRAC_1_SQRT_2), Complex::real(FRAC_1_SQRT_2)),
            Self::Minus => (Complex::real(FRAC_1_SQRT_2), Complex::real(-FRAC_1_SQRT_2)),
        }
    }
}

/// A product state over `n` qubits, one [`Qubit`] per line.
///
/// This is the preparation language of the paper's algorithms: e.g.
/// Algorithm 1's iteration `i` uses `|0⟩` on line `i` and `|+⟩` elsewhere.
///
/// # Examples
///
/// ```
/// use revmatch_quantum::{ProductState, Qubit};
///
/// let p = ProductState::uniform(3, Qubit::Plus).with_qubit(0, Qubit::Zero);
/// let sv = p.to_state_vector();
/// assert_eq!(sv.num_qubits(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductState {
    qubits: Vec<Qubit>,
}

impl ProductState {
    /// All qubits in the same basis state.
    pub fn uniform(n: usize, q: Qubit) -> Self {
        Self { qubits: vec![q; n] }
    }

    /// The computational basis state `|x⟩` over `n` qubits.
    pub fn basis(x: u64, n: usize) -> Self {
        Self {
            qubits: (0..n)
                .map(|i| {
                    if (x >> i) & 1 == 1 {
                        Qubit::One
                    } else {
                        Qubit::Zero
                    }
                })
                .collect(),
        }
    }

    /// Creates a product state from per-line preparations.
    pub fn from_qubits(qubits: Vec<Qubit>) -> Self {
        Self { qubits }
    }

    /// Returns a copy with qubit `i` replaced.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn with_qubit(mut self, i: usize, q: Qubit) -> Self {
        self.qubits[i] = q;
        self
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// The preparations per line.
    pub fn qubits(&self) -> &[Qubit] {
        &self.qubits
    }

    /// Expands to a dense [`StateVector`], failing gracefully past the
    /// simulator limit — the serving path uses this so an oversized job
    /// becomes a clean error answer instead of a worker panic.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] if the state has more
    /// than [`MAX_QUBITS`] qubits.
    pub fn try_to_state_vector(&self) -> Result<StateVector, QuantumError> {
        let n = self.qubits.len();
        if n > MAX_QUBITS {
            return Err(QuantumError::TooManyQubits { n, max: MAX_QUBITS });
        }
        Ok(self.to_state_vector())
    }

    /// Expands to a dense [`StateVector`].
    ///
    /// # Panics
    ///
    /// Panics if the state has more than [`MAX_QUBITS`] qubits.
    pub fn to_state_vector(&self) -> StateVector {
        let n = self.qubits.len();
        assert!(n <= MAX_QUBITS, "{n} qubits exceeds MAX_QUBITS");
        let mut amps = vec![Complex::ZERO; 1 << n];
        for (x, amp) in amps.iter_mut().enumerate() {
            let mut a = Complex::ONE;
            for (i, q) in self.qubits.iter().enumerate() {
                let (a0, a1) = q.amplitudes();
                a *= if (x >> i) & 1 == 1 { a1 } else { a0 };
            }
            *amp = a;
        }
        StateVector { amps, n }
    }

    /// Analytic inner product `⟨self|other⟩` without expanding either state.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitCountMismatch`] if sizes differ.
    pub fn inner_product(&self, other: &Self) -> Result<Complex, QuantumError> {
        if self.num_qubits() != other.num_qubits() {
            return Err(QuantumError::QubitCountMismatch {
                left: self.num_qubits(),
                right: other.num_qubits(),
            });
        }
        let mut acc = Complex::ONE;
        for (a, b) in self.qubits.iter().zip(&other.qubits) {
            let (a0, a1) = a.amplitudes();
            let (b0, b1) = b.amplitudes();
            acc *= a0.conj() * b0 + a1.conj() * b1;
        }
        Ok(acc)
    }
}

/// A dense `n`-qubit state vector: `2^n` complex amplitudes, basis index
/// bit `i` = qubit `i`.
///
/// # Examples
///
/// ```
/// use revmatch_quantum::StateVector;
/// use revmatch_circuit::{Circuit, Gate};
///
/// // Toffoli acts as a permutation on basis states.
/// let c = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)])?;
/// let sv = StateVector::basis(0b011, 3).applied_circuit(&c, 0)?;
/// assert!((sv.probability(0b111) - 1.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct StateVector {
    amps: Vec<Complex>,
    n: usize,
}

impl StateVector {
    /// The computational basis state `|x⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_QUBITS` or `x >= 2^n`.
    pub fn basis(x: u64, n: usize) -> Self {
        assert!(n <= MAX_QUBITS);
        assert!((x as usize) < (1usize << n));
        let mut amps = vec![Complex::ZERO; 1 << n];
        amps[x as usize] = Complex::ONE;
        Self { amps, n }
    }

    /// Builds a state from raw amplitudes (length must be a power of two).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::InvalidAmplitudes`] if the length is not a
    /// power of two or the norm differs from 1 by more than `1e-6`.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Result<Self, QuantumError> {
        let len = amps.len();
        if !len.is_power_of_two() || len == 0 {
            return Err(QuantumError::InvalidAmplitudes {
                reason: format!("length {len} is not a power of two"),
            });
        }
        let n = len.trailing_zeros() as usize;
        if n > MAX_QUBITS {
            return Err(QuantumError::TooManyQubits { n, max: MAX_QUBITS });
        }
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if (norm - 1.0).abs() > 1e-6 {
            return Err(QuantumError::InvalidAmplitudes {
                reason: format!("norm² = {norm}, expected 1"),
            });
        }
        Ok(Self { amps, n })
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The amplitude of basis state `|x⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= 2^n`.
    #[inline]
    pub fn amplitude(&self, x: u64) -> Complex {
        self.amps[x as usize]
    }

    /// All amplitudes, basis order.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Born probability of measuring all qubits as `x`.
    pub fn probability(&self, x: u64) -> f64 {
        self.amps[x as usize].norm_sqr()
    }

    /// Total squared norm (1 for valid states).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitCountMismatch`] if sizes differ.
    pub fn inner_product(&self, other: &Self) -> Result<Complex, QuantumError> {
        if self.n != other.n {
            return Err(QuantumError::QubitCountMismatch {
                left: self.n,
                right: other.n,
            });
        }
        let mut acc = Complex::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        Ok(acc)
    }

    /// Tensor product `self ⊗ other`; `other`'s qubits become the high lines.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] if the result would exceed
    /// [`MAX_QUBITS`].
    pub fn tensor(&self, other: &Self) -> Result<Self, QuantumError> {
        let n = self.n + other.n;
        if n > MAX_QUBITS {
            return Err(QuantumError::TooManyQubits { n, max: MAX_QUBITS });
        }
        let mut amps = vec![Complex::ZERO; 1 << n];
        for (hi, &b) in other.amps.iter().enumerate() {
            if b == Complex::ZERO {
                continue;
            }
            let base = hi << self.n;
            for (lo, &a) in self.amps.iter().enumerate() {
                amps[base | lo] = a * b;
            }
        }
        Ok(Self { amps, n })
    }

    /// Applies the Hadamard gate to qubit `q`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if `q >= n`.
    pub fn apply_h(&mut self, q: usize) -> Result<(), QuantumError> {
        self.check_qubit(q)?;
        let bit = 1usize << q;
        for x in 0..self.amps.len() {
            if x & bit == 0 {
                let a0 = self.amps[x];
                let a1 = self.amps[x | bit];
                self.amps[x] = (a0 + a1).scale(FRAC_1_SQRT_2);
                self.amps[x | bit] = (a0 - a1).scale(FRAC_1_SQRT_2);
            }
        }
        Ok(())
    }

    /// Applies the Pauli-X (NOT) gate to qubit `q`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if `q >= n`.
    pub fn apply_x(&mut self, q: usize) -> Result<(), QuantumError> {
        self.check_qubit(q)?;
        let bit = 1usize << q;
        for x in 0..self.amps.len() {
            if x & bit == 0 {
                self.amps.swap(x, x | bit);
            }
        }
        Ok(())
    }

    /// Applies a controlled swap (Fredkin): swaps qubits `a` and `b` when
    /// control `c` is 1.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] on bad indices, or
    /// [`QuantumError::InvalidAmplitudes`] if the three qubits are not
    /// distinct.
    pub fn apply_cswap(&mut self, c: usize, a: usize, b: usize) -> Result<(), QuantumError> {
        self.check_qubit(c)?;
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        if c == a || c == b || a == b {
            return Err(QuantumError::InvalidAmplitudes {
                reason: "cswap qubits must be distinct".to_owned(),
            });
        }
        let (cb, ab, bb) = (1usize << c, 1usize << a, 1usize << b);
        for x in 0..self.amps.len() {
            // Visit each swapped pair once: control set, a=1, b=0.
            if x & cb != 0 && x & ab != 0 && x & bb == 0 {
                let y = (x & !ab) | bb;
                self.amps.swap(x, y);
            }
        }
        Ok(())
    }

    /// Applies a reversible circuit to qubits `[offset, offset + width)`.
    ///
    /// Basis states are permuted: amplitude of `|x⟩` moves to `|x'⟩` where
    /// the circuit maps the selected window of `x` to the window of `x'`.
    /// This is the oracle-execution primitive: "run `C` on a quantum input"
    /// (paper §4.5).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if the window does not fit.
    pub fn apply_circuit(&mut self, circuit: &Circuit, offset: usize) -> Result<(), QuantumError> {
        self.apply_window_permutation(|x| circuit.apply(x), circuit.width(), offset)
    }

    /// Applies any white-box bijection `f` over `width`-bit words to the
    /// window `[offset, offset + width)` — [`StateVector::apply_circuit`]
    /// for callers holding a lookup table instead of a gate cascade.
    /// `f` is evaluated once per nonzero amplitude.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if the window does not fit.
    pub fn apply_window_permutation(
        &mut self,
        f: impl Fn(u64) -> u64,
        width: usize,
        offset: usize,
    ) -> Result<(), QuantumError> {
        if offset + width > self.n {
            return Err(QuantumError::QubitOutOfRange {
                qubit: offset + width,
                n: self.n,
            });
        }
        let mask = revmatch_circuit::width_mask(width) as usize;
        let mut out = vec![Complex::ZERO; self.amps.len()];
        for (x, &a) in self.amps.iter().enumerate() {
            if a == Complex::ZERO {
                continue;
            }
            let window = (x >> offset) & mask;
            let mapped = f(window as u64) as usize & mask;
            let y = (x & !(mask << offset)) | (mapped << offset);
            out[y] = a;
        }
        self.amps = out;
        Ok(())
    }

    /// Convenience: returns a new state with the circuit applied.
    ///
    /// # Errors
    ///
    /// Same as [`StateVector::apply_circuit`].
    pub fn applied_circuit(
        mut self,
        circuit: &Circuit,
        offset: usize,
    ) -> Result<Self, QuantumError> {
        self.apply_circuit(circuit, offset)?;
        Ok(self)
    }

    /// Applies a **XOR oracle** `U_f : |x⟩|o⟩ ↦ |x⟩|o ⊕ f(x)⟩` for a
    /// bijection `f` over `width`-bit words, optionally controlled on a
    /// qubit value.
    ///
    /// The `x` window sits at `[x_offset, x_offset + width)` and the `o`
    /// window at `[out_offset, out_offset + width)`; they must not
    /// overlap. This is the standard quantum-oracle formulation used by
    /// Simon-style algorithms.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if a window or the
    /// control does not fit, or [`QuantumError::InvalidAmplitudes`] if the
    /// windows overlap.
    pub fn apply_xor_oracle(
        &mut self,
        f: impl Fn(u64) -> u64,
        x_offset: usize,
        width: usize,
        out_offset: usize,
        control: Option<(usize, bool)>,
    ) -> Result<(), QuantumError> {
        if x_offset + width > self.n || out_offset + width > self.n {
            return Err(QuantumError::QubitOutOfRange {
                qubit: (x_offset + width).max(out_offset + width),
                n: self.n,
            });
        }
        let mask = revmatch_circuit::width_mask(width) as usize;
        let x_window = mask << x_offset;
        let out_window = mask << out_offset;
        if x_window & out_window != 0 {
            return Err(QuantumError::InvalidAmplitudes {
                reason: "xor-oracle windows overlap".to_owned(),
            });
        }
        if let Some((c, _)) = control {
            self.check_qubit(c)?;
            if (1usize << c) & (x_window | out_window) != 0 {
                return Err(QuantumError::InvalidAmplitudes {
                    reason: "xor-oracle control inside a window".to_owned(),
                });
            }
        }
        let mut out = vec![Complex::ZERO; self.amps.len()];
        for (idx, &a) in self.amps.iter().enumerate() {
            if a == Complex::ZERO {
                continue;
            }
            let fire = match control {
                None => true,
                Some((c, value)) => ((idx >> c) & 1 == 1) == value,
            };
            let target = if fire {
                let x = (idx >> x_offset) & mask;
                let fx = f(x as u64) as usize & mask;
                idx ^ (fx << out_offset)
            } else {
                idx
            };
            out[target] += a;
        }
        self.amps = out;
        Ok(())
    }

    /// Applies a **phase oracle**: flips the sign of every basis
    /// amplitude whose index satisfies `predicate`.
    ///
    /// This is the diagonal `±1` unitary `|x⟩ ↦ (−1)^{p(x)}|x⟩` used by
    /// Grover-style amplitude amplification (equivalently: a bit oracle
    /// with its target prepared in `|−⟩`).
    pub fn apply_phase_oracle(&mut self, predicate: impl Fn(u64) -> bool) {
        for (idx, a) in self.amps.iter_mut().enumerate() {
            if predicate(idx as u64) {
                *a = -*a;
            }
        }
    }

    /// Measures the `width` qubits starting at `offset`, collapsing the
    /// state; returns the observed word (bit `i` = qubit `offset + i`).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if the window does not
    /// fit.
    pub fn measure_range(
        &mut self,
        offset: usize,
        width: usize,
        rng: &mut impl Rng,
    ) -> Result<u64, QuantumError> {
        let mut word = 0u64;
        for i in 0..width {
            if self.measure_qubit(offset + i, rng)? {
                word |= 1 << i;
            }
        }
        Ok(word)
    }

    /// Measures qubit `q` in the computational basis, collapsing the state.
    ///
    /// Returns the observed bit.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if `q >= n`.
    pub fn measure_qubit(&mut self, q: usize, rng: &mut impl Rng) -> Result<bool, QuantumError> {
        self.check_qubit(q)?;
        let bit = 1usize << q;
        let p1: f64 = self
            .amps
            .iter()
            .enumerate()
            .filter(|(x, _)| x & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
        let keep_prob = if outcome { p1 } else { 1.0 - p1 };
        let scale = if keep_prob > 0.0 {
            1.0 / keep_prob.sqrt()
        } else {
            0.0
        };
        for (x, a) in self.amps.iter_mut().enumerate() {
            if (x & bit != 0) == outcome {
                *a = a.scale(scale);
            } else {
                *a = Complex::ZERO;
            }
        }
        Ok(outcome)
    }

    fn check_qubit(&self, q: usize) -> Result<(), QuantumError> {
        if q >= self.n {
            Err(QuantumError::QubitOutOfRange {
                qubit: q,
                n: self.n,
            })
        } else {
            Ok(())
        }
    }
}

impl fmt::Debug for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StateVector({} qubits", self.n)?;
        if self.n <= 3 {
            write!(f, ", {:?}", self.amps)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use revmatch_circuit::Gate;

    const EPS: f64 = 1e-12;

    #[test]
    fn basis_state_is_one_hot() {
        let sv = StateVector::basis(0b10, 2);
        assert_eq!(sv.probability(0b10), 1.0);
        assert_eq!(sv.probability(0b01), 0.0);
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn product_state_plus_is_uniform() {
        let sv = ProductState::uniform(3, Qubit::Plus).to_state_vector();
        for x in 0..8 {
            assert!((sv.probability(x) - 0.125).abs() < EPS);
        }
    }

    #[test]
    fn product_minus_has_sign_structure() {
        let sv = ProductState::uniform(1, Qubit::Minus).to_state_vector();
        assert!(sv.amplitude(0).re > 0.0);
        assert!(sv.amplitude(1).re < 0.0);
    }

    #[test]
    fn product_inner_product_matches_dense() {
        let p1 = ProductState::from_qubits(vec![Qubit::Zero, Qubit::Plus, Qubit::Minus]);
        let p2 = ProductState::from_qubits(vec![Qubit::Plus, Qubit::Plus, Qubit::One]);
        let analytic = p1.inner_product(&p2).unwrap();
        let dense = p1
            .to_state_vector()
            .inner_product(&p2.to_state_vector())
            .unwrap();
        assert!(analytic.approx_eq(dense, EPS));
    }

    #[test]
    fn plus_minus_orthogonal() {
        let p = ProductState::uniform(1, Qubit::Plus);
        let m = ProductState::uniform(1, Qubit::Minus);
        assert!(p.inner_product(&m).unwrap().approx_eq(Complex::ZERO, EPS));
    }

    #[test]
    fn h_creates_plus() {
        let mut sv = StateVector::basis(0, 1);
        sv.apply_h(0).unwrap();
        let plus = ProductState::uniform(1, Qubit::Plus).to_state_vector();
        assert!(sv.inner_product(&plus).unwrap().norm() > 1.0 - EPS);
    }

    #[test]
    fn h_is_involution() {
        let mut sv = StateVector::basis(0b01, 2);
        sv.apply_h(1).unwrap();
        sv.apply_h(1).unwrap();
        assert!((sv.probability(0b01) - 1.0).abs() < EPS);
    }

    #[test]
    fn x_flips_basis() {
        let mut sv = StateVector::basis(0b00, 2);
        sv.apply_x(1).unwrap();
        assert_eq!(sv.probability(0b10), 1.0);
    }

    #[test]
    fn x_fixes_plus_and_negates_minus() {
        let mut plus = ProductState::uniform(1, Qubit::Plus).to_state_vector();
        let orig = plus.clone();
        plus.apply_x(0).unwrap();
        assert!(plus
            .inner_product(&orig)
            .unwrap()
            .approx_eq(Complex::ONE, EPS));

        let mut minus = ProductState::uniform(1, Qubit::Minus).to_state_vector();
        let orig = minus.clone();
        minus.apply_x(0).unwrap();
        // X|−⟩ = −|−⟩: inner product −1 (global phase).
        assert!(minus
            .inner_product(&orig)
            .unwrap()
            .approx_eq(Complex::real(-1.0), EPS));
    }

    #[test]
    fn cswap_swaps_when_control_set() {
        let mut sv = StateVector::basis(0b011, 3); // c=bit2=0 -> no swap
        sv.apply_cswap(2, 0, 1).unwrap();
        assert_eq!(sv.probability(0b011), 1.0);

        let mut sv = StateVector::basis(0b101, 3); // c=1, a=1, b=0 -> swap
        sv.apply_cswap(2, 0, 1).unwrap();
        assert_eq!(sv.probability(0b110), 1.0);
    }

    #[test]
    fn cswap_requires_distinct_qubits() {
        let mut sv = StateVector::basis(0, 3);
        assert!(sv.apply_cswap(0, 0, 1).is_err());
    }

    #[test]
    fn tensor_orders_high_qubits_second() {
        let a = StateVector::basis(0b1, 1);
        let b = StateVector::basis(0b0, 1);
        let ab = a.tensor(&b).unwrap();
        assert_eq!(ab.probability(0b01), 1.0); // a in low bit
    }

    #[test]
    fn apply_circuit_permutes_basis() {
        let c = revmatch_circuit::Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)]).unwrap();
        let mut sv = StateVector::basis(0b011, 3);
        sv.apply_circuit(&c, 0).unwrap();
        assert_eq!(sv.probability(0b111), 1.0);
    }

    #[test]
    fn apply_circuit_with_offset() {
        let c = revmatch_circuit::Circuit::from_gates(1, [Gate::not(0)]).unwrap();
        let mut sv = StateVector::basis(0b00, 2);
        sv.apply_circuit(&c, 1).unwrap();
        assert_eq!(sv.probability(0b10), 1.0);
    }

    #[test]
    fn apply_circuit_preserves_inner_products() {
        // Unitarity check (paper §2.2): permutation circuits preserve ⟨ψ1|ψ2⟩.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let circ = revmatch_circuit::random_circuit(
            &revmatch_circuit::RandomCircuitSpec::for_width(4),
            &mut rng,
        );
        let p1 =
            ProductState::from_qubits(vec![Qubit::Plus, Qubit::Zero, Qubit::Minus, Qubit::Plus]);
        let p2 = ProductState::from_qubits(vec![Qubit::Zero, Qubit::Plus, Qubit::Plus, Qubit::One]);
        let before = p1
            .to_state_vector()
            .inner_product(&p2.to_state_vector())
            .unwrap();
        let after = p1
            .to_state_vector()
            .applied_circuit(&circ, 0)
            .unwrap()
            .inner_product(&p2.to_state_vector().applied_circuit(&circ, 0).unwrap())
            .unwrap();
        assert!(before.approx_eq(after, 1e-10));
    }

    #[test]
    fn measurement_collapses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut sv = ProductState::uniform(1, Qubit::Plus).to_state_vector();
        let outcome = sv.measure_qubit(0, &mut rng).unwrap();
        assert!((sv.probability(u64::from(outcome)) - 1.0).abs() < EPS);
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn measurement_statistics_on_plus() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut ones = 0;
        let shots = 2000;
        for _ in 0..shots {
            let mut sv = ProductState::uniform(1, Qubit::Plus).to_state_vector();
            if sv.measure_qubit(0, &mut rng).unwrap() {
                ones += 1;
            }
        }
        let freq = f64::from(ones) / f64::from(shots);
        assert!((freq - 0.5).abs() < 0.05, "freq = {freq}");
    }

    #[test]
    fn from_amplitudes_validates() {
        assert!(StateVector::from_amplitudes(vec![Complex::ONE; 3]).is_err());
        assert!(StateVector::from_amplitudes(vec![Complex::ONE, Complex::ONE]).is_err());
        let valid = StateVector::from_amplitudes(vec![Complex::ONE, Complex::ZERO]);
        assert!(valid.is_ok());
    }

    #[test]
    fn errors_on_out_of_range() {
        let mut sv = StateVector::basis(0, 2);
        assert!(sv.apply_h(2).is_err());
        assert!(sv.apply_x(5).is_err());
        let c = revmatch_circuit::Circuit::new(3);
        assert!(sv.apply_circuit(&c, 0).is_err());
    }

    #[test]
    fn xor_oracle_on_basis_states() {
        // f(x) = x ^ 1 over 2 bits; register: x at 0..2, out at 2..4.
        let mut sv = StateVector::basis(0b00_10, 4);
        sv.apply_xor_oracle(|x| x ^ 1, 0, 2, 2, None).unwrap();
        // x = 10, f(x) = 11, out = 00 ^ 11 = 11.
        assert_eq!(sv.probability(0b11_10), 1.0);
        // Applying twice restores (XOR oracle is an involution).
        sv.apply_xor_oracle(|x| x ^ 1, 0, 2, 2, None).unwrap();
        assert_eq!(sv.probability(0b00_10), 1.0);
    }

    #[test]
    fn xor_oracle_controlled() {
        // Control on qubit 4: fires only when set.
        let f = |x: u64| x ^ 0b11;
        let mut sv = StateVector::basis(0b0_00_01, 5);
        sv.apply_xor_oracle(f, 0, 2, 2, Some((4, true))).unwrap();
        assert_eq!(sv.probability(0b0_00_01), 1.0, "control 0: no-op");
        let mut sv = StateVector::basis(0b1_00_01, 5);
        sv.apply_xor_oracle(f, 0, 2, 2, Some((4, true))).unwrap();
        assert_eq!(sv.probability(0b1_10_01), 1.0, "control 1: fires");
    }

    #[test]
    fn xor_oracle_preserves_superposition_norm() {
        let mut sv = ProductState::uniform(4, Qubit::Plus).to_state_vector();
        sv.apply_xor_oracle(|x| (x + 1) & 0b11, 0, 2, 2, None)
            .unwrap();
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn xor_oracle_rejects_overlap_and_bad_control() {
        let mut sv = StateVector::basis(0, 4);
        assert!(sv.apply_xor_oracle(|x| x, 0, 2, 1, None).is_err());
        assert!(sv
            .apply_xor_oracle(|x| x, 0, 2, 2, Some((1, true)))
            .is_err());
        assert!(sv.apply_xor_oracle(|x| x, 0, 3, 3, None).is_err());
    }

    #[test]
    fn phase_oracle_flips_signs() {
        let mut sv = ProductState::uniform(2, Qubit::Plus).to_state_vector();
        sv.apply_phase_oracle(|x| x == 0b11);
        assert!(sv.amplitude(0b11).re < 0.0);
        assert!(sv.amplitude(0b00).re > 0.0);
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
        // Double application is the identity.
        let orig = ProductState::uniform(2, Qubit::Plus).to_state_vector();
        sv.apply_phase_oracle(|x| x == 0b11);
        assert!(sv
            .inner_product(&orig)
            .unwrap()
            .approx_eq(Complex::ONE, EPS));
    }

    #[test]
    fn measure_range_collapses_word() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut sv = StateVector::basis(0b101, 3);
        let word = sv.measure_range(0, 3, &mut rng).unwrap();
        assert_eq!(word, 0b101);
        // Superposition: measured word is consistent with the collapse.
        let mut sv = ProductState::uniform(3, Qubit::Plus).to_state_vector();
        let word = sv.measure_range(0, 3, &mut rng).unwrap();
        assert!((sv.probability(word) - 1.0).abs() < EPS);
    }
}
