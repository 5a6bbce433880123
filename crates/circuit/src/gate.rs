//! Multiple-controlled Toffoli (MCT) gates.
//!
//! An MCT gate (paper §2.1) has `k >= 0` control lines, each of positive or
//! negative polarity, and one target line. It flips the target exactly when
//! every positive control reads 1 and every negative control reads 0. The
//! special cases `k = 0` and `k = 1` are the NOT and CNOT gates.

use std::fmt;

use crate::error::CircuitError;

/// Polarity of a control line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Polarity {
    /// Fires when the line reads 1 (solid dot in circuit diagrams).
    Positive,
    /// Fires when the line reads 0 (empty circle in circuit diagrams).
    Negative,
}

impl Polarity {
    /// The opposite polarity.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Self::Positive => Self::Negative,
            Self::Negative => Self::Positive,
        }
    }
}

/// A single control: a line index plus a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Control {
    /// Controlled line (0-based).
    pub line: usize,
    /// Firing polarity.
    pub polarity: Polarity,
}

impl Control {
    /// A positive control on `line`.
    pub fn positive(line: usize) -> Self {
        Self {
            line,
            polarity: Polarity::Positive,
        }
    }

    /// A negative control on `line`.
    pub fn negative(line: usize) -> Self {
        Self {
            line,
            polarity: Polarity::Negative,
        }
    }
}

/// A multiple-controlled Toffoli gate.
///
/// Internally the controls are stored as two bit masks so that applying a
/// gate to a pattern is a couple of word operations: the gate fires on input
/// `x` iff `x & mask == value`, where `mask` covers all control lines and
/// `value` has the positive ones set.
///
/// # Examples
///
/// ```
/// use revmatch_circuit::{Control, Gate};
///
/// // The Toffoli gate of the paper's Fig. 2: o2 = i2 xor (i0 and i1).
/// let g = Gate::new([Control::positive(0), Control::positive(1)], 2)?;
/// assert_eq!(g.apply(0b011), 0b111);
/// assert_eq!(g.apply(0b001), 0b001);
/// # Ok::<(), revmatch_circuit::CircuitError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Gate {
    control_mask: u64,
    control_value: u64,
    target: usize,
}

impl Gate {
    /// Creates an MCT gate with the given controls and target.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::TargetIsControl`] if the target appears among
    /// the controls, [`CircuitError::DuplicateControl`] if a line is
    /// controlled twice, and [`CircuitError::LineOutOfRange`] if any line is
    /// `>= 64`.
    pub fn new(
        controls: impl IntoIterator<Item = Control>,
        target: usize,
    ) -> Result<Self, CircuitError> {
        if target >= crate::bits::MAX_WIDTH {
            return Err(CircuitError::LineOutOfRange {
                line: target,
                width: crate::bits::MAX_WIDTH,
            });
        }
        let mut control_mask = 0u64;
        let mut control_value = 0u64;
        for c in controls {
            if c.line >= crate::bits::MAX_WIDTH {
                return Err(CircuitError::LineOutOfRange {
                    line: c.line,
                    width: crate::bits::MAX_WIDTH,
                });
            }
            if c.line == target {
                return Err(CircuitError::TargetIsControl { line: c.line });
            }
            let bit = 1u64 << c.line;
            if control_mask & bit != 0 {
                return Err(CircuitError::DuplicateControl { line: c.line });
            }
            control_mask |= bit;
            if c.polarity == Polarity::Positive {
                control_value |= bit;
            }
        }
        Ok(Self {
            control_mask,
            control_value,
            target,
        })
    }

    /// A NOT gate (0-controlled MCT) on `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn not(line: usize) -> Self {
        Self::new([], line).expect("line checked by caller contract")
    }

    /// A CNOT gate with a positive control.
    ///
    /// # Panics
    ///
    /// Panics if the lines coincide or exceed 63.
    pub fn cnot(control: usize, target: usize) -> Self {
        Self::new([Control::positive(control)], target).expect("distinct lines required")
    }

    /// The standard 2-control Toffoli gate.
    ///
    /// # Panics
    ///
    /// Panics if lines are not distinct or exceed 63.
    pub fn toffoli(c0: usize, c1: usize, target: usize) -> Self {
        Self::new([Control::positive(c0), Control::positive(c1)], target)
            .expect("distinct lines required")
    }

    /// Builds a gate directly from control masks.
    ///
    /// `control_mask` selects the controlled lines; `positive_mask` (a subset
    /// of `control_mask`) selects those with positive polarity.
    ///
    /// # Errors
    ///
    /// Returns an error if `positive_mask` is not a subset of `control_mask`
    /// or the target collides with a control.
    pub fn from_masks(
        control_mask: u64,
        positive_mask: u64,
        target: usize,
    ) -> Result<Self, CircuitError> {
        if positive_mask & !control_mask != 0 {
            return Err(CircuitError::ParsePattern {
                input: format!("{positive_mask:#x}"),
                reason: "positive mask not a subset of control mask".to_owned(),
            });
        }
        if target >= crate::bits::MAX_WIDTH {
            return Err(CircuitError::LineOutOfRange {
                line: target,
                width: crate::bits::MAX_WIDTH,
            });
        }
        if control_mask >> target & 1 == 1 {
            return Err(CircuitError::TargetIsControl { line: target });
        }
        Ok(Self {
            control_mask,
            control_value: positive_mask,
            target,
        })
    }

    /// The gate [`Gate::from_masks`] builds, if it builds one whose lines
    /// all lie in `lines` (a [`crate::bits::width_mask`]); `None`
    /// otherwise. Four mask comparisons, no error to build.
    #[inline]
    pub(crate) fn from_masks_on(
        lines: u64,
        control_mask: u64,
        positive_mask: u64,
        target: usize,
    ) -> Option<Self> {
        let target_bit = 1u64.checked_shl(u32::try_from(target).ok()?)?;
        let fits = target_bit & lines != 0
            && control_mask & !lines == 0
            && positive_mask & !control_mask == 0
            && control_mask & target_bit == 0;
        fits.then_some(Self {
            control_mask,
            control_value: positive_mask,
            target,
        })
    }

    /// The target line.
    #[inline]
    pub fn target(&self) -> usize {
        self.target
    }

    /// Number of controls.
    #[inline]
    pub fn control_count(&self) -> u32 {
        self.control_mask.count_ones()
    }

    /// Mask of all controlled lines.
    #[inline]
    pub fn control_mask(&self) -> u64 {
        self.control_mask
    }

    /// Mask of positively controlled lines.
    #[inline]
    pub fn positive_mask(&self) -> u64 {
        self.control_value
    }

    /// Iterates over the controls in ascending line order.
    pub fn controls(&self) -> impl Iterator<Item = Control> + '_ {
        let mask = self.control_mask;
        let value = self.control_value;
        (0..crate::bits::MAX_WIDTH).filter_map(move |line| {
            let bit = 1u64 << line;
            if mask & bit == 0 {
                None
            } else {
                Some(Control {
                    line,
                    polarity: if value & bit != 0 {
                        Polarity::Positive
                    } else {
                        Polarity::Negative
                    },
                })
            }
        })
    }

    /// Highest line index used by the gate (target or control).
    pub fn max_line(&self) -> usize {
        let top_control = if self.control_mask == 0 {
            0
        } else {
            63 - self.control_mask.leading_zeros() as usize
        };
        self.target.max(top_control)
    }

    /// Whether the gate fires on input `x`.
    #[inline]
    pub fn fires(&self, x: u64) -> bool {
        x & self.control_mask == self.control_value
    }

    /// Applies the gate to a pattern: flips the target bit iff the gate fires.
    ///
    /// Every MCT gate is an involution, so `apply` is its own inverse.
    #[inline]
    pub fn apply(&self, x: u64) -> u64 {
        if self.fires(x) {
            x ^ (1u64 << self.target)
        } else {
            x
        }
    }

    /// Returns the gate with every control's line remapped by `f` and the
    /// target remapped likewise.
    ///
    /// # Errors
    ///
    /// Returns an error if the remapped lines collide or go out of range.
    pub fn map_lines(&self, mut f: impl FnMut(usize) -> usize) -> Result<Self, CircuitError> {
        let controls: Vec<Control> = self
            .controls()
            .map(|c| Control {
                line: f(c.line),
                polarity: c.polarity,
            })
            .collect();
        Self::new(controls, f(self.target))
    }

    /// Returns the gate with the polarity of the control on `line` flipped.
    ///
    /// Lines without a control are returned unchanged.
    #[must_use]
    pub fn with_flipped_polarity(&self, line: usize) -> Self {
        let bit = 1u64 << line;
        if self.control_mask & bit == 0 {
            self.clone()
        } else {
            Self {
                control_mask: self.control_mask,
                control_value: self.control_value ^ bit,
                target: self.target,
            }
        }
    }
}

impl fmt::Debug for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gate({self})")
    }
}

/// Formats in RevLib-like syntax: `t3 x0 -x1 x2` (negative controls carry a
/// leading `-`, the target is last).
impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.control_count() as usize + 1)?;
        for c in self.controls() {
            match c.polarity {
                Polarity::Positive => write!(f, " x{}", c.line)?,
                Polarity::Negative => write!(f, " -x{}", c.line)?,
            }
        }
        write!(f, " x{}", self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_gate_always_fires() {
        let g = Gate::not(1);
        assert_eq!(g.apply(0b000), 0b010);
        assert_eq!(g.apply(0b010), 0b000);
        assert_eq!(g.control_count(), 0);
    }

    #[test]
    fn cnot_fires_on_control() {
        let g = Gate::cnot(0, 2);
        assert_eq!(g.apply(0b001), 0b101);
        assert_eq!(g.apply(0b000), 0b000);
    }

    #[test]
    fn toffoli_needs_both_controls() {
        let g = Gate::toffoli(0, 1, 2);
        assert_eq!(g.apply(0b011), 0b111);
        assert_eq!(g.apply(0b010), 0b010);
        assert_eq!(g.apply(0b001), 0b001);
        assert_eq!(g.apply(0b111), 0b011);
    }

    #[test]
    fn negative_control_fires_on_zero() {
        let g = Gate::new([Control::negative(0)], 1).unwrap();
        assert_eq!(g.apply(0b00), 0b10);
        assert_eq!(g.apply(0b01), 0b01);
    }

    #[test]
    fn mixed_polarity_clause_encoder() {
        // Clause c = x0 or !x1 or x2 is FALSE iff x0=0, x1=1, x2=0; the
        // clause-encoding MCT (paper Fig. 5b) fires exactly then.
        let g = Gate::new(
            [
                Control::negative(0),
                Control::positive(1),
                Control::negative(2),
            ],
            3,
        )
        .unwrap();
        assert_eq!(g.apply(0b0010), 0b1010);
        assert_eq!(g.apply(0b0011), 0b0011);
    }

    #[test]
    fn apply_is_involution() {
        let g = Gate::new([Control::positive(3), Control::negative(1)], 0).unwrap();
        for x in 0..16u64 {
            assert_eq!(g.apply(g.apply(x)), x);
        }
    }

    #[test]
    fn rejects_target_as_control() {
        assert_eq!(
            Gate::new([Control::positive(2)], 2),
            Err(CircuitError::TargetIsControl { line: 2 })
        );
    }

    #[test]
    fn rejects_duplicate_control() {
        assert_eq!(
            Gate::new([Control::positive(1), Control::negative(1)], 0),
            Err(CircuitError::DuplicateControl { line: 1 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Gate::new([Control::positive(64)], 0).is_err());
        assert!(Gate::new([], 64).is_err());
    }

    #[test]
    fn controls_iterates_in_order() {
        let g = Gate::new([Control::negative(5), Control::positive(2)], 0).unwrap();
        let cs: Vec<Control> = g.controls().collect();
        assert_eq!(cs, vec![Control::positive(2), Control::negative(5)]);
    }

    #[test]
    fn from_masks_round_trip() {
        let g = Gate::new([Control::positive(0), Control::negative(2)], 1).unwrap();
        let g2 = Gate::from_masks(g.control_mask(), g.positive_mask(), g.target()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn from_masks_validates() {
        assert!(Gate::from_masks(0b001, 0b010, 2).is_err());
        assert!(Gate::from_masks(0b100, 0b100, 2).is_err());
    }

    #[test]
    fn map_lines_swaps() {
        let g = Gate::toffoli(0, 1, 2);
        let swapped = g.map_lines(|l| [2, 1, 0][l]).unwrap();
        assert_eq!(swapped.target(), 0);
        assert_eq!(swapped.apply(0b110), 0b111);
    }

    #[test]
    fn flipped_polarity() {
        let g = Gate::cnot(0, 1);
        let flipped = g.with_flipped_polarity(0);
        assert_eq!(flipped.apply(0b00), 0b10);
        assert_eq!(flipped.apply(0b01), 0b01);
        // Lines without a control are untouched.
        assert_eq!(g.with_flipped_polarity(5), g);
    }

    #[test]
    fn max_line_accounts_for_controls_and_target() {
        let g = Gate::new([Control::positive(7)], 3).unwrap();
        assert_eq!(g.max_line(), 7);
        let g = Gate::not(4);
        assert_eq!(g.max_line(), 4);
    }

    #[test]
    fn display_revlib_syntax() {
        let g = Gate::new([Control::positive(0), Control::negative(1)], 2).unwrap();
        assert_eq!(g.to_string(), "t3 x0 -x1 x2");
        assert_eq!(Gate::not(0).to_string(), "t1 x0");
    }
}
