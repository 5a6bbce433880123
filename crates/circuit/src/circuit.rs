//! Reversible circuits as cascades of MCT gates.

use std::fmt;

use crate::bits::{width_mask, Bits};
use crate::error::CircuitError;
use crate::gate::Gate;
use crate::truth_table::TruthTable;

/// A reversible circuit: `width` lines and an ordered cascade of [`Gate`]s.
///
/// Gates are applied **left to right**: `gates\[0\]` first. In the paper's
/// matrix notation a circuit `[g0, g1]` corresponds to the product
/// `G1 · G0`.
///
/// # Examples
///
/// Build the paper's Fig. 2 example (`o2 = i2 ⊕ i0·i1`):
///
/// ```
/// use revmatch_circuit::{Circuit, Gate};
///
/// let mut c = Circuit::new(3);
/// c.push(Gate::toffoli(0, 1, 2))?;
/// assert_eq!(c.apply(0b011), 0b111);
/// assert_eq!(c.apply(0b101), 0b101);
/// # Ok::<(), revmatch_circuit::CircuitError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Circuit {
    width: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty (identity) circuit on `width` lines.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn new(width: usize) -> Self {
        assert!(
            width <= crate::bits::MAX_WIDTH,
            "width {width} exceeds {}",
            crate::bits::MAX_WIDTH
        );
        Self {
            width,
            gates: Vec::new(),
        }
    }

    /// Creates a circuit from parts.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::LineOutOfRange`] if any gate uses a line
    /// `>= width`, or [`CircuitError::WidthTooLarge`] if `width > 64`.
    pub fn from_gates(
        width: usize,
        gates: impl IntoIterator<Item = Gate>,
    ) -> Result<Self, CircuitError> {
        if width > crate::bits::MAX_WIDTH {
            return Err(CircuitError::WidthTooLarge {
                width,
                max: crate::bits::MAX_WIDTH,
            });
        }
        let gates = gates.into_iter();
        let mut c = Self::new(width);
        c.gates.reserve(gates.size_hint().0);
        for g in gates {
            c.push(g)?;
        }
        Ok(c)
    }

    /// Creates a circuit from gates given as [`Gate::from_masks`]
    /// arguments, `(control_mask, positive_mask, target)`, checking each
    /// gate once with plain mask comparisons and collecting the gates
    /// straight into the circuit.
    ///
    /// The circuit it returns equals building each gate with
    /// [`Gate::from_masks`] and handing them to [`Circuit::from_gates`].
    ///
    /// # Errors
    ///
    /// [`CircuitError::WidthTooLarge`] if `width > 64`; otherwise the
    /// error [`Gate::from_masks`] or [`Circuit::push`] gives for the
    /// first gate that fails.
    pub fn from_gate_masks(
        width: usize,
        gates: impl IntoIterator<Item = (u64, u64, usize)>,
    ) -> Result<Self, CircuitError> {
        if width > crate::bits::MAX_WIDTH {
            return Err(CircuitError::WidthTooLarge {
                width,
                max: crate::bits::MAX_WIDTH,
            });
        }
        let lines = width_mask(width);
        let gates = gates.into_iter();
        let mut c = Self::new(width);
        c.gates.reserve(gates.size_hint().0);
        for (control_mask, positive_mask, target) in gates {
            let Some(gate) = Gate::from_masks_on(lines, control_mask, positive_mask, target) else {
                // A gate `from_masks` accepts fails the mask checks only
                // by a line past the width.
                let gate = Gate::from_masks(control_mask, positive_mask, target)?;
                return Err(CircuitError::LineOutOfRange {
                    line: gate.max_line(),
                    width,
                });
            };
            c.gates.push(gate);
        }
        Ok(c)
    }

    /// Number of lines.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the cascade contains no gates.
    ///
    /// Note this is a *structural* test; see [`Circuit::is_identity`] for the
    /// functional one.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in application order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a gate at the end (applied last).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::LineOutOfRange`] if the gate uses a line
    /// `>= width`.
    pub fn push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        if gate.max_line() >= self.width {
            return Err(CircuitError::LineOutOfRange {
                line: gate.max_line(),
                width: self.width,
            });
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Applies the circuit to an input pattern (low `width` bits of `x`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x` has bits beyond the circuit width.
    #[inline]
    pub fn apply(&self, x: u64) -> u64 {
        debug_assert_eq!(x & !width_mask(self.width), 0, "input wider than circuit");
        let mut v = x;
        for g in &self.gates {
            v = g.apply(v);
        }
        v
    }

    /// Applies the circuit to every pattern in `xs`, walking the gate
    /// cascade once per block of probes via the bit-sliced kernels
    /// (see [`crate::batch`]; the kernel is [`crate::batch::Kernel::Wide256`]).
    ///
    /// Output order matches input order; `apply_batch(&[x])[0]` equals
    /// [`Circuit::apply`]`(x)` for every `x`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any pattern has bits beyond the
    /// circuit width.
    pub fn apply_batch(&self, xs: &[u64]) -> Vec<u64> {
        crate::batch::apply_kernel(self, crate::batch::Kernel::Wide256, xs)
    }

    /// Applies the circuit to a [`Bits`] pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the circuit width.
    pub fn apply_bits(&self, x: Bits) -> Bits {
        assert_eq!(x.width(), self.width, "pattern width mismatch");
        Bits::new(self.apply(x.value()), self.width)
    }

    /// The inverse circuit: gates reversed (each MCT is self-inverse).
    ///
    /// # Examples
    ///
    /// ```
    /// use revmatch_circuit::{Circuit, Gate};
    ///
    /// let mut c = Circuit::new(2);
    /// c.push(Gate::not(0))?;
    /// c.push(Gate::cnot(0, 1))?;
    /// let inv = c.inverse();
    /// for x in 0..4 {
    ///     assert_eq!(inv.apply(c.apply(x)), x);
    /// }
    /// # Ok::<(), revmatch_circuit::CircuitError>(())
    /// ```
    #[must_use]
    pub fn inverse(&self) -> Self {
        Self {
            width: self.width,
            gates: self.gates.iter().rev().cloned().collect(),
        }
    }

    /// Concatenates `self` followed by `next` (apply `self` first).
    ///
    /// In the paper's matrix notation this is the product `next · self`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthMismatch`] if the widths differ.
    pub fn then(&self, next: &Self) -> Result<Self, CircuitError> {
        if self.width != next.width {
            return Err(CircuitError::WidthMismatch {
                left: self.width,
                right: next.width,
            });
        }
        let mut gates = self.gates.clone();
        gates.extend(next.gates.iter().cloned());
        Ok(Self {
            width: self.width,
            gates,
        })
    }

    /// The full truth table (all `2^width` input/output pairs):
    /// [`TruthTable::compile`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthTooLarge`] if `width > 24` (the table
    /// would not fit in memory comfortably).
    pub fn truth_table(&self) -> Result<TruthTable, CircuitError> {
        TruthTable::compile(self)
    }

    /// Whether the circuit computes the identity function.
    ///
    /// Exhaustive for `width <= 20`; for wider circuits a randomized check
    /// with `2^14` samples is used (false positives possible, no false
    /// negatives).
    pub fn is_identity(&self) -> bool {
        if self.width <= 20 {
            return self.truth_table().is_ok_and(|t| t.is_identity());
        }
        let inputs = self.samples(0x1d3_a11ce);
        self.apply_batch(&inputs) == inputs
    }

    /// Whether two circuits compute the same function (same caveats as
    /// [`Circuit::is_identity`] for large widths).
    pub fn functionally_eq(&self, other: &Self) -> bool {
        if self.width != other.width {
            return false;
        }
        if self.width <= 20 {
            return self.truth_table().ok() == other.truth_table().ok();
        }
        let inputs = self.samples(0xfeed_beef);
        self.apply_batch(&inputs) == other.apply_batch(&inputs)
    }

    /// `2^14` seeded random inputs, for the wide randomized checks.
    fn samples(&self, seed: u64) -> Vec<u64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..1 << 14)
            .map(|_| rng.gen::<u64>() & width_mask(self.width))
            .collect()
    }

    /// Gate-count statistics.
    pub fn stats(&self) -> CircuitStats {
        let mut by_controls = std::collections::BTreeMap::new();
        let mut negative_controls = 0usize;
        for g in &self.gates {
            *by_controls.entry(g.control_count() as usize).or_insert(0) += 1;
            negative_controls += (g.control_count() - g.positive_mask().count_ones()) as usize;
        }
        CircuitStats {
            width: self.width,
            gate_count: self.gates.len(),
            by_controls,
            negative_controls,
        }
    }
}

impl Extend<Gate> for Circuit {
    /// Appends gates, panicking on out-of-range lines.
    ///
    /// Use [`Circuit::push`] for fallible insertion.
    fn extend<I: IntoIterator<Item = Gate>>(&mut self, iter: I) {
        for g in iter {
            self.push(g).expect("gate line out of range in extend");
        }
    }
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Circuit(width={}, gates={})",
            self.width,
            self.gates.len()
        )
    }
}

/// Line-oriented textual form (one RevLib-style gate per line).
impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ".numvars {}", self.width)?;
        for g in &self.gates {
            writeln!(f, "{g}")?;
        }
        Ok(())
    }
}

/// Summary statistics of a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of lines.
    pub width: usize,
    /// Total gate count.
    pub gate_count: usize,
    /// Histogram: control count -> number of gates.
    pub by_controls: std::collections::BTreeMap<usize, usize>,
    /// Total number of negative controls over all gates.
    pub negative_controls: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Control;

    fn fig2() -> Circuit {
        // Paper Fig. 2: single Toffoli on 3 lines.
        Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)]).unwrap()
    }

    #[test]
    fn from_gate_masks_agrees_with_from_masks_and_from_gates() {
        let masks = [0, 0b001, 0b011, 0b101, 1 << 9, 1 << 63, u64::MAX];
        for width in [0, 1, 3, 5, 63, 64, 65] {
            for target in [0, 2, 4, 5, 62, 63, 64, 200, usize::MAX] {
                for control_mask in masks {
                    for positive_mask in masks {
                        let record = (control_mask, positive_mask, target);
                        let got = Circuit::from_gate_masks(width, [record]);
                        // The width is checked before any gate.
                        let want = if width > crate::bits::MAX_WIDTH {
                            Circuit::from_gates(width, [])
                        } else {
                            Gate::from_masks(control_mask, positive_mask, target)
                                .and_then(|g| Circuit::from_gates(width, [g]))
                        };
                        assert_eq!(got, want, "width {width}, gate {record:?}");
                    }
                }
            }
        }
        // The first failing gate names the error.
        let c = Circuit::from_gate_masks(5, [(0b1, 0b1, 2), (1 << 9, 0, 2), (0b1, 0b11, 2)]);
        assert_eq!(c, Err(CircuitError::LineOutOfRange { line: 9, width: 5 }));
        let c = Circuit::from_gate_masks(3, [(0b1, 0b1, 2), (0b110, 0b010, 0)]);
        let mixed = Gate::new([Control::positive(1), Control::negative(2)], 0).unwrap();
        assert_eq!(c, Circuit::from_gates(3, [Gate::cnot(0, 2), mixed]));
    }

    #[test]
    fn empty_circuit_is_identity() {
        let c = Circuit::new(4);
        assert!(c.is_empty());
        assert!(c.is_identity());
        for x in 0..16 {
            assert_eq!(c.apply(x), x);
        }
    }

    #[test]
    fn fig2_truth_table_matches_paper() {
        let c = fig2();
        // o2 = i2 xor (i0 and i1); o0 = i0; o1 = i1.
        for x in 0..8u64 {
            let (i0, i1, i2) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            let expect = i0 | (i1 << 1) | ((i2 ^ (i0 & i1)) << 2);
            assert_eq!(c.apply(x), expect);
        }
    }

    #[test]
    fn push_rejects_wide_gate() {
        let mut c = Circuit::new(2);
        assert_eq!(
            c.push(Gate::toffoli(0, 1, 2)),
            Err(CircuitError::LineOutOfRange { line: 2, width: 2 })
        );
    }

    #[test]
    fn inverse_round_trip() {
        let c = Circuit::from_gates(
            3,
            [
                Gate::not(0),
                Gate::cnot(0, 1),
                Gate::new([Control::negative(1), Control::positive(0)], 2).unwrap(),
            ],
        )
        .unwrap();
        let inv = c.inverse();
        for x in 0..8 {
            assert_eq!(inv.apply(c.apply(x)), x);
            assert_eq!(c.apply(inv.apply(x)), x);
        }
    }

    #[test]
    fn then_applies_left_first() {
        let a = Circuit::from_gates(2, [Gate::not(0)]).unwrap();
        let b = Circuit::from_gates(2, [Gate::cnot(0, 1)]).unwrap();
        let ab = a.then(&b).unwrap();
        // x=00 -> NOT0 -> 01 -> CNOT -> 11.
        assert_eq!(ab.apply(0b00), 0b11);
        let ba = b.then(&a).unwrap();
        // x=00 -> CNOT -> 00 -> NOT0 -> 01.
        assert_eq!(ba.apply(0b00), 0b01);
    }

    #[test]
    fn then_rejects_width_mismatch() {
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(matches!(
            a.then(&b),
            Err(CircuitError::WidthMismatch { left: 2, right: 3 })
        ));
    }

    #[test]
    fn truth_table_is_bijective() {
        let tt = fig2().truth_table().unwrap();
        let mut seen = [false; 8];
        for x in 0..8u64 {
            let y = tt.apply(x) as usize;
            assert!(!seen[y]);
            seen[y] = true;
        }
    }

    #[test]
    fn functional_equality_vs_structure() {
        // Two NOTs on the same line equal the empty circuit functionally.
        let c = Circuit::from_gates(2, [Gate::not(1), Gate::not(1)]).unwrap();
        assert!(!c.is_empty());
        assert!(c.is_identity());
        assert!(c.functionally_eq(&Circuit::new(2)));
        assert!(!c.functionally_eq(&Circuit::new(3)));
    }

    #[test]
    fn stats_counts_gates() {
        let c = Circuit::from_gates(
            3,
            [
                Gate::not(0),
                Gate::cnot(0, 1),
                Gate::new([Control::negative(0), Control::positive(1)], 2).unwrap(),
            ],
        )
        .unwrap();
        let s = c.stats();
        assert_eq!(s.gate_count, 3);
        assert_eq!(s.by_controls[&0], 1);
        assert_eq!(s.by_controls[&1], 1);
        assert_eq!(s.by_controls[&2], 1);
        assert_eq!(s.negative_controls, 1);
    }

    #[test]
    fn display_lists_gates() {
        let s = fig2().to_string();
        assert!(s.contains(".numvars 3"));
        assert!(s.contains("t3 x0 x1 x2"));
    }

    #[test]
    fn wide_circuit_randomized_identity() {
        let mut c = Circuit::new(32);
        c.push(Gate::not(31)).unwrap();
        c.push(Gate::not(31)).unwrap();
        assert!(c.is_identity());
        let mut d = Circuit::new(32);
        d.push(Gate::not(0)).unwrap();
        assert!(!d.is_identity());
    }
}
