//! Truth tables: explicit bijections over `B^n`.
//!
//! A reversible function is a permutation of `{0, …, 2^n − 1}` (paper §2.1).
//! [`TruthTable`] stores it explicitly, which is the ground truth every
//! matcher and synthesis routine is validated against. It is also the
//! one dense table of a circuit: [`TruthTable::compile`] builds it with
//! the kernels of [`crate::batch`], [`Circuit::truth_table`] is that
//! compile, and an oracle that holds a table answers each probe with
//! one load from it.

use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::batch::{compile_into, Kernel};
use crate::circuit::Circuit;
use crate::error::CircuitError;

/// An explicit bijection `B^n -> B^n`.
///
/// # Examples
///
/// ```
/// use revmatch_circuit::TruthTable;
///
/// // A 1-bit NOT.
/// let tt = TruthTable::new(1, vec![1, 0])?;
/// assert_eq!(tt.apply(0), 1);
/// assert_eq!(tt.inverse().apply(1), 0);
/// # Ok::<(), revmatch_circuit::CircuitError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    width: usize,
    table: Vec<u64>,
}

impl TruthTable {
    /// Largest width for which explicit tables are allowed (2^24 `u64`s,
    /// 128 MiB). Oracles hold tables only up to
    /// [`crate::DENSE_MAX_WIDTH`].
    pub const MAX_WIDTH: usize = 24;

    fn check_width(width: usize) -> Result<(), CircuitError> {
        if width > Self::MAX_WIDTH {
            return Err(CircuitError::WidthTooLarge {
                width,
                max: Self::MAX_WIDTH,
            });
        }
        Ok(())
    }

    /// Creates a table from the output list `table[x] = f(x)`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotBijective`] if the outputs are not a
    /// permutation of `0..2^width`, or [`CircuitError::WidthTooLarge`] /
    /// [`CircuitError::WidthMismatch`] on size problems.
    pub fn new(width: usize, table: Vec<u64>) -> Result<Self, CircuitError> {
        Self::check_width(width)?;
        let size = 1usize << width;
        if table.len() != size {
            return Err(CircuitError::WidthMismatch {
                left: table.len(),
                right: size,
            });
        }
        if !is_permutation(&table) {
            return Err(CircuitError::NotBijective);
        }
        Ok(Self { width, table })
    }

    /// The circuit's table, `table[x] = C(x)`, compiled with
    /// [`Kernel::Wide256`] by the cheapest arm for the cascade's shape
    /// (see [`crate::batch`]). A cascade is a bijection by construction,
    /// so no bijectivity pass runs.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthTooLarge`] beyond
    /// [`TruthTable::MAX_WIDTH`].
    pub fn compile(circuit: &Circuit) -> Result<Self, CircuitError> {
        Self::compile_with(circuit, Kernel::Wide256)
    }

    /// [`TruthTable::compile`] with an explicit kernel; every kernel
    /// yields the table of the [`Kernel::Scalar`] reference.
    ///
    /// # Errors
    ///
    /// As [`TruthTable::compile`].
    pub fn compile_with(circuit: &Circuit, kernel: Kernel) -> Result<Self, CircuitError> {
        let width = circuit.width();
        Self::check_width(width)?;
        let mut table = vec![0u64; 1 << width];
        compile_into(kernel, circuit.gates(), width, &mut table);
        Ok(Self { width, table })
    }

    /// The identity function on `width` lines.
    ///
    /// # Panics
    ///
    /// Panics if `width > Self::MAX_WIDTH`.
    pub fn identity(width: usize) -> Self {
        assert!(width <= Self::MAX_WIDTH);
        Self {
            width,
            table: (0..1u64 << width).collect(),
        }
    }

    /// Builds a table by evaluating `f` on every input.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotBijective`] if `f` is not a bijection.
    pub fn from_fn(width: usize, mut f: impl FnMut(u64) -> u64) -> Result<Self, CircuitError> {
        Self::check_width(width)?;
        let table: Vec<u64> = (0..1u64 << width).map(&mut f).collect();
        Self::new(width, table)
    }

    /// A uniformly random permutation of `B^width` (Fisher–Yates).
    ///
    /// # Panics
    ///
    /// Panics if `width > Self::MAX_WIDTH`.
    pub fn random(width: usize, rng: &mut impl Rng) -> Self {
        assert!(width <= Self::MAX_WIDTH);
        let mut table: Vec<u64> = (0..1u64 << width).collect();
        table.shuffle(rng);
        Self { width, table }
    }

    /// Number of lines.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of entries (`2^width`).
    #[inline]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never true: width 0 still has one entry).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Evaluates the function.
    ///
    /// # Panics
    ///
    /// Panics if `x >= 2^width`.
    #[inline]
    pub fn apply(&self, x: u64) -> u64 {
        self.table[x as usize]
    }

    /// Evaluates the function on every pattern in `xs`.
    ///
    /// # Panics
    ///
    /// Panics if any pattern is `>= 2^width`.
    pub fn apply_batch(&self, xs: &[u64]) -> Vec<u64> {
        xs.iter().map(|&x| self.apply(x)).collect()
    }

    /// The output list (`entry[x] = f(x)`).
    #[inline]
    pub fn entries(&self) -> &[u64] {
        &self.table
    }

    /// The inverse bijection.
    #[must_use]
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0u64; self.table.len()];
        for (x, &y) in self.table.iter().enumerate() {
            inv[y as usize] = x as u64;
        }
        Self {
            width: self.width,
            table: inv,
        }
    }

    /// Function composition: applies `self` first, then `next`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthMismatch`] if widths differ.
    pub fn then(&self, next: &Self) -> Result<Self, CircuitError> {
        if self.width != next.width {
            return Err(CircuitError::WidthMismatch {
                left: self.width,
                right: next.width,
            });
        }
        Ok(Self {
            width: self.width,
            table: self.table.iter().map(|&y| next.apply(y)).collect(),
        })
    }

    /// Whether this is the identity function.
    pub fn is_identity(&self) -> bool {
        self.table.iter().enumerate().all(|(x, &y)| x as u64 == y)
    }

    /// Number of fixed points (`f(x) = x`).
    pub fn fixed_points(&self) -> usize {
        self.table
            .iter()
            .enumerate()
            .filter(|&(x, &y)| x as u64 == y)
            .count()
    }

    /// The cycle lengths of the permutation, sorted ascending (fixed
    /// points appear as 1-cycles).
    ///
    /// Cycle structure is a complete invariant under *conjugation*
    /// (`f ↦ t⁻¹ ∘ f ∘ t`), which makes it a quick sanity probe for
    /// same-transform equivalences.
    ///
    /// # Examples
    ///
    /// ```
    /// use revmatch_circuit::TruthTable;
    ///
    /// // A 3-cycle and a fixed point.
    /// let tt = TruthTable::new(2, vec![1, 2, 0, 3])?;
    /// assert_eq!(tt.cycle_lengths(), vec![1, 3]);
    /// # Ok::<(), revmatch_circuit::CircuitError>(())
    /// ```
    pub fn cycle_lengths(&self) -> Vec<usize> {
        let mut seen = vec![false; self.table.len()];
        let mut lengths = Vec::new();
        for start in 0..self.table.len() {
            if seen[start] {
                continue;
            }
            let mut len = 0;
            let mut cur = start;
            while !seen[cur] {
                seen[cur] = true;
                len += 1;
                cur = self.table[cur] as usize;
            }
            lengths.push(len);
        }
        lengths.sort_unstable();
        lengths
    }

    /// Whether the permutation is even (an element of the alternating
    /// group): the parity of `2^n − #cycles`.
    ///
    /// A classic fact this exposes: an MCT gate with `k` controls on `n`
    /// lines is a product of `2^{n−1−k}` transpositions, so every gate
    /// with `k ≤ n − 2` controls is even — cascades of such gates can
    /// never realize an odd permutation.
    pub fn is_even(&self) -> bool {
        let transpositions = self.table.len() - self.cycle_lengths().len();
        transpositions.is_multiple_of(2)
    }
}

/// Whether `table` is a permutation of `0..table.len()`.
fn is_permutation(table: &[u64]) -> bool {
    let mut seen = vec![false; table.len()];
    table.iter().all(|&y| {
        let y = y as usize;
        y < seen.len() && !std::mem::replace(&mut seen[y], true)
    })
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable(width={}", self.width)?;
        if self.width <= 4 {
            write!(f, ", {:?}", self.table)?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "x -> f(x)  (width {})", self.width)?;
        for (x, &y) in self.table.iter().enumerate() {
            writeln!(f, "{:0w$b} -> {:0w$b}", x, y, w = self.width.max(1))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn identity_table() {
        let t = TruthTable::identity(3);
        assert!(t.is_identity());
        assert_eq!(t.fixed_points(), 8);
        assert_eq!(t.apply(5), 5);
    }

    #[test]
    fn rejects_non_bijection() {
        assert_eq!(
            TruthTable::new(1, vec![0, 0]),
            Err(CircuitError::NotBijective)
        );
        assert_eq!(
            TruthTable::new(1, vec![0, 2]),
            Err(CircuitError::NotBijective)
        );
    }

    #[test]
    fn rejects_wrong_size() {
        assert!(matches!(
            TruthTable::new(2, vec![0, 1]),
            Err(CircuitError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn inverse_composes_to_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let t = TruthTable::random(4, &mut rng);
        assert!(t.then(&t.inverse()).unwrap().is_identity());
        assert!(t.inverse().then(&t).unwrap().is_identity());
    }

    #[test]
    fn composition_order() {
        // f = NOT bit0 on 1 line; g = identity. f then f = identity.
        let f = TruthTable::new(1, vec![1, 0]).unwrap();
        assert!(f.then(&f).unwrap().is_identity());
    }

    #[test]
    fn from_fn_xor_mask() {
        let t = TruthTable::from_fn(3, |x| x ^ 0b101).unwrap();
        assert_eq!(t.apply(0), 0b101);
        assert_eq!(t.apply(0b101), 0);
    }

    #[test]
    fn from_fn_rejects_constant() {
        assert_eq!(
            TruthTable::from_fn(2, |_| 0),
            Err(CircuitError::NotBijective)
        );
    }

    #[test]
    fn random_is_bijection() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..10 {
            let t = TruthTable::random(5, &mut rng);
            // Constructor invariant: re-validate through `new`.
            assert!(TruthTable::new(5, t.entries().to_vec()).is_ok());
        }
    }

    #[test]
    fn then_rejects_width_mismatch() {
        let a = TruthTable::identity(2);
        let b = TruthTable::identity(3);
        assert!(a.then(&b).is_err());
    }

    #[test]
    fn display_renders_rows() {
        let t = TruthTable::new(1, vec![1, 0]).unwrap();
        let s = t.to_string();
        assert!(s.contains("0 -> 1"));
        assert!(s.contains("1 -> 0"));
    }

    #[test]
    fn cycle_structure_basics() {
        assert_eq!(TruthTable::identity(2).cycle_lengths(), vec![1, 1, 1, 1]);
        // Full NOT on 1 line: one 2-cycle.
        let t = TruthTable::new(1, vec![1, 0]).unwrap();
        assert_eq!(t.cycle_lengths(), vec![2]);
        assert!(!t.is_even());
    }

    #[test]
    fn cycle_structure_invariant_under_conjugation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let f = TruthTable::random(4, &mut rng);
        let t = TruthTable::random(4, &mut rng);
        let conj = t.then(&f).unwrap().then(&t.inverse()).unwrap();
        assert_eq!(conj.cycle_lengths(), f.cycle_lengths());
        assert_eq!(conj.is_even(), f.is_even());
    }

    #[test]
    fn parity_multiplies_under_composition() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for _ in 0..10 {
            let f = TruthTable::random(3, &mut rng);
            let g = TruthTable::random(3, &mut rng);
            let fg = f.then(&g).unwrap();
            assert_eq!(fg.is_even(), f.is_even() == g.is_even());
        }
    }

    #[test]
    fn small_mct_gates_are_even_permutations() {
        use crate::gate::{Control, Gate};
        // k controls on n lines: even iff k <= n - 2; odd iff k = n - 1.
        let n = 4;
        for k in 0..n {
            let gate = Gate::new((0..k).map(Control::positive), n - 1).unwrap();
            let tt = TruthTable::compile(&Circuit::from_gates(n, [gate]).unwrap()).unwrap();
            assert_eq!(tt.is_even(), k <= n - 2, "k = {k}");
        }
    }
}
