//! The bit-packed Aaronson–Gottesman tableau.

use rand::Rng;

use crate::error::QuantumError;

/// Largest register a [`Tableau`] supports, so `measure_range` outcomes
/// always fit one `u64` word.
pub const STABILIZER_MAX_QUBITS: usize = 63;

/// A stabilizer state over `n` qubits as a CHP tableau: `2n` generator
/// rows (destabilizers `0..n`, stabilizers `n..2n`) of bit-packed X/Z
/// bits plus a sign bit each, and a scratch row for measurement phase
/// arithmetic. Starts in `|0…0⟩` (stabilizers `Z_i`, destabilizers
/// `X_i`).
///
/// This is the reference simulator: the Simon matcher's stabilizer
/// round samples the same Clifford circuit in closed form, and its tests
/// hold that sampler to this tableau's outcomes and random draws.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use revmatch_quantum::Tableau;
///
/// // A 40-qubit GHZ state — far past the dense simulator's limit.
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut t = Tableau::new(40);
/// t.h(0)?;
/// for q in 1..40 {
///     t.cnot(0, q)?;
/// }
/// let word = t.measure_range(0, 40, &mut rng)?;
/// assert!(word == 0 || word == (1 << 40) - 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct Tableau {
    /// X bits, `(2n + 1) * words` u64s, row-major (row `2n` is scratch).
    xs: Vec<u64>,
    /// Z bits, same layout.
    zs: Vec<u64>,
    /// Sign bits per row (1 = negative phase).
    rs: Vec<u8>,
    /// Words per row.
    words: usize,
    n: usize,
}

impl Tableau {
    /// The `n`-qubit all-zeros state.
    ///
    /// # Panics
    ///
    /// Panics if `n > STABILIZER_MAX_QUBITS`.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= STABILIZER_MAX_QUBITS,
            "{n} qubits exceeds STABILIZER_MAX_QUBITS"
        );
        let words = n.div_ceil(64).max(1);
        let rows = 2 * n + 1;
        let mut t = Self {
            xs: vec![0; rows * words],
            zs: vec![0; rows * words],
            rs: vec![0; rows],
            words,
            n,
        };
        for i in 0..n {
            t.xs[i * words + i / 64] |= 1u64 << (i % 64); // destabilizer X_i
            t.zs[(n + i) * words + i / 64] |= 1u64 << (i % 64); // stabilizer Z_i
        }
        t
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Applies a Hadamard on qubit `q`: swaps each row's X/Z bits there,
    /// flipping the sign where both were set (H maps Y to −Y).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if `q >= n`.
    pub fn h(&mut self, q: usize) -> Result<(), QuantumError> {
        self.check_qubit(q)?;
        let (w, bit) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            let idx = row * self.words + w;
            let xb = self.xs[idx] & bit;
            let zb = self.zs[idx] & bit;
            self.rs[row] ^= u8::from(xb != 0 && zb != 0);
            if (xb != 0) != (zb != 0) {
                self.xs[idx] ^= bit;
                self.zs[idx] ^= bit;
            }
        }
        Ok(())
    }

    /// Applies a CNOT with control `c` and target `t`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] on a bad index or
    /// [`QuantumError::InvalidAmplitudes`] if `c == t`.
    pub fn cnot(&mut self, c: usize, t: usize) -> Result<(), QuantumError> {
        self.check_qubit(c)?;
        self.check_qubit(t)?;
        if c == t {
            return Err(QuantumError::InvalidAmplitudes {
                reason: "cnot control and target must be distinct".to_owned(),
            });
        }
        let (wc, bc) = (c / 64, 1u64 << (c % 64));
        let (wt, bt) = (t / 64, 1u64 << (t % 64));
        for row in 0..2 * self.n {
            let base = row * self.words;
            let xc = self.xs[base + wc] & bc != 0;
            let zc = self.zs[base + wc] & bc != 0;
            let xt = self.xs[base + wt] & bt != 0;
            let zt = self.zs[base + wt] & bt != 0;
            self.rs[row] ^= u8::from(xc && zt && (xt == zc));
            if xc {
                self.xs[base + wt] ^= bt;
            }
            if zt {
                self.zs[base + wc] ^= bc;
            }
        }
        Ok(())
    }

    /// Applies a Pauli-X on qubit `q` (sign flips where the row has Z).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if `q >= n`.
    pub fn x(&mut self, q: usize) -> Result<(), QuantumError> {
        self.check_qubit(q)?;
        let (w, bit) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            self.rs[row] ^= u8::from(self.zs[row * self.words + w] & bit != 0);
        }
        Ok(())
    }

    /// Measures qubit `q` in the computational basis, collapsing the
    /// state. The outcome is uniformly random (one `rng` draw) when some
    /// stabilizer anticommutes with `Z_q`, deterministic (no draw)
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if `q >= n`.
    pub fn measure(&mut self, q: usize, rng: &mut impl Rng) -> Result<bool, QuantumError> {
        self.check_qubit(q)?;
        let n = self.n;
        let (w, bit) = (q / 64, 1u64 << (q % 64));
        let x_at = |t: &Self, row: usize| t.xs[row * t.words + w] & bit != 0;
        match (n..2 * n).find(|&row| x_at(self, row)) {
            Some(p) => {
                // Random outcome: Z_q anticommutes with stabilizer p.
                for row in (0..2 * n).filter(|&r| r != p) {
                    if x_at(self, row) {
                        self.rowsum(row, p);
                    }
                }
                self.copy_row(p - n, p);
                self.zero_row(p);
                self.zs[p * self.words + w] |= bit;
                let outcome = rng.gen_bool(0.5);
                self.rs[p] = u8::from(outcome);
                Ok(outcome)
            }
            None => {
                // Deterministic: accumulate the stabilizer product whose
                // Z-part hits q into the scratch row; its sign is the
                // outcome.
                let scratch = 2 * n;
                self.zero_row(scratch);
                for i in 0..n {
                    if x_at(self, i) {
                        self.rowsum(scratch, i + n);
                    }
                }
                Ok(self.rs[scratch] == 1)
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
            if self.measure(offset + i, rng)? {
                word |= 1 << i;
            }
        }
        Ok(word)
    }

    /// Left-multiplies row `h` by row `i` with exact sign tracking
    /// (the Aaronson–Gottesman `rowsum`). The phase exponent is
    /// accumulated word-parallel: each word contributes
    /// `popcount(plus) − popcount(minus)` to the power of `i` (the
    /// imaginary unit) picked up by the Pauli product.
    fn rowsum(&mut self, h: usize, i: usize) {
        let (hb, ib) = (h * self.words, i * self.words);
        let mut e: i64 = 2 * i64::from(self.rs[h]) + 2 * i64::from(self.rs[i]);
        for j in 0..self.words {
            let (x1, z1) = (self.xs[ib + j], self.zs[ib + j]);
            let (x2, z2) = (self.xs[hb + j], self.zs[hb + j]);
            let plus = (x1 & z1 & z2 & !x2) | (x1 & !z1 & x2 & z2) | (!x1 & z1 & x2 & !z2);
            let minus = (x1 & z1 & x2 & !z2) | (x1 & !z1 & !x2 & z2) | (!x1 & z1 & x2 & z2);
            e += i64::from(plus.count_ones()) - i64::from(minus.count_ones());
            self.xs[hb + j] ^= x1;
            self.zs[hb + j] ^= z1;
        }
        debug_assert_eq!(e.rem_euclid(4) % 2, 0, "generator products are Hermitian");
        self.rs[h] = u8::from(e.rem_euclid(4) == 2);
    }

    fn copy_row(&mut self, dst: usize, src: usize) {
        let (db, sb) = (dst * self.words, src * self.words);
        for j in 0..self.words {
            self.xs[db + j] = self.xs[sb + j];
            self.zs[db + j] = self.zs[sb + j];
        }
        self.rs[dst] = self.rs[src];
    }

    fn zero_row(&mut self, row: usize) {
        let base = row * self.words;
        self.xs[base..base + self.words].fill(0);
        self.zs[base..base + self.words].fill(0);
        self.rs[row] = 0;
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

impl std::fmt::Debug for Tableau {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tableau({} qubits)", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn basis_measurements_are_deterministic() {
        let mut r = rng(1);
        let mut t = Tableau::new(3);
        t.x(1).unwrap();
        assert_eq!(t.measure_range(0, 3, &mut r).unwrap(), 0b010);
        // Collapse is stable: re-measurement repeats the outcome.
        assert_eq!(t.measure_range(0, 3, &mut r).unwrap(), 0b010);
    }

    #[test]
    fn double_hadamard_is_identity() {
        let mut r = rng(2);
        let mut t = Tableau::new(1);
        t.h(0).unwrap();
        t.h(0).unwrap();
        assert!(!t.measure(0, &mut r).unwrap());
    }

    #[test]
    fn hadamard_outcomes_are_uniform() {
        let mut r = rng(3);
        let mut ones = 0;
        for _ in 0..200 {
            let mut t = Tableau::new(1);
            t.h(0).unwrap();
            ones += u32::from(t.measure(0, &mut r).unwrap());
        }
        assert!((50..=150).contains(&ones), "got {ones}/200 ones");
    }

    #[test]
    fn bell_pair_is_correlated() {
        let mut r = rng(4);
        for _ in 0..50 {
            let mut t = Tableau::new(2);
            t.h(0).unwrap();
            t.cnot(0, 1).unwrap();
            let a = t.measure(0, &mut r).unwrap();
            let b = t.measure(1, &mut r).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn x_after_h_phase_tracks() {
        // H|0⟩=|+⟩, X|+⟩=|+⟩, H|+⟩=|0⟩: outcome 0 deterministically.
        let mut r = rng(5);
        let mut t = Tableau::new(1);
        t.h(0).unwrap();
        t.x(0).unwrap();
        t.h(0).unwrap();
        assert!(!t.measure(0, &mut r).unwrap());

        let mut t = Tableau::new(1);
        t.x(0).unwrap();
        t.h(0).unwrap();
        t.x(0).unwrap();
        t.h(0).unwrap();
        // |1⟩ → |−⟩ → −|−⟩ → −|1⟩: global phase, outcome 1.
        assert!(t.measure(0, &mut r).unwrap());
    }

    #[test]
    fn ghz_wide_register_collapses_jointly() {
        let mut r = rng(6);
        for _ in 0..20 {
            let mut t = Tableau::new(48);
            t.h(0).unwrap();
            for q in 1..48 {
                t.cnot(0, q).unwrap();
            }
            let word = t.measure_range(0, 48, &mut r).unwrap();
            assert!(word == 0 || word == (1u64 << 48) - 1);
        }
    }

    #[test]
    fn parity_coset_measurement() {
        // (|00⟩+|11⟩)/√2 then H⊗H: outcomes have even parity only.
        let mut r = rng(7);
        for _ in 0..40 {
            let mut t = Tableau::new(2);
            t.h(0).unwrap();
            t.cnot(0, 1).unwrap();
            t.h(0).unwrap();
            t.h(1).unwrap();
            let w = t.measure_range(0, 2, &mut r).unwrap();
            assert_eq!(w.count_ones() % 2, 0, "got odd-parity outcome {w:#b}");
        }
    }

    #[test]
    fn qubit_checks() {
        let mut t = Tableau::new(2);
        let mut r = rng(8);
        assert!(t.h(2).is_err());
        assert!(t.cnot(0, 0).is_err());
        assert!(t.measure(5, &mut r).is_err());
    }
}
