//! Black-box oracles with query counting.
//!
//! The paper measures complexity in **oracle queries** (Problem 1). This
//! module enforces that discipline: matchers receive oracles, not circuits,
//! and every classical or quantum access increments a counter. The
//! experiment harness reads the counters to regenerate Table 1.
//!
//! Probes may be issued one at a time ([`ClassicalOracle::query`]) or in
//! groups ([`ClassicalOracle::query_batch`]). A batch of `k` probes
//! always counts **exactly `k` queries** — batching is an execution
//! optimization (the [`Oracle`] implementation runs
//! [`Circuit::apply_batch`], the `wide256` kernel of
//! `revmatch_circuit::batch`: 256 probes per gate walk, 512 half-word
//! packed at width ≤ 32), never an accounting discount.
//!
//! An oracle may also answer from its circuit's compiled `2^width`
//! [`TruthTable`], up to [`DENSE_MAX_WIDTH`] lines.
//! [`Oracle::on_demand`] decides per oracle whether that compile is
//! worth it, by the rent-or-buy rule (Karlin, Manasse, Rudolph &
//! Sleator, "Competitive snoopy caching", 1988): it keeps paying for
//! gate walks until they add up to the price of the table, then buys
//! the table. That charge is kept apart from the query counter, so the
//! choice of backend never moves the paper's accounting. White-box
//! readers in this crate (the identify walk) read a table an oracle
//! already holds instead of compiling another.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use revmatch_circuit::{Circuit, TruthTable, DENSE_MAX_WIDTH};
use revmatch_quantum::{ProductState, SparseStateVector, StateVector};

use crate::error::MatchError;

/// A classical black box: one output pattern per input query.
pub trait ClassicalOracle {
    /// Number of lines.
    fn width(&self) -> usize;

    /// Queries the box with input `x`, returning the output pattern.
    /// Each call counts as one oracle query.
    fn query(&self, x: u64) -> u64;

    /// Queries the box with every pattern in `xs`, returning the
    /// outputs in order. A batch of `k` probes counts exactly `k`
    /// queries.
    ///
    /// The default implementation falls back to per-probe [`query`]
    /// calls (identical results and identical accounting); concrete
    /// oracles override it with batched evaluation.
    ///
    /// [`query`]: ClassicalOracle::query
    fn query_batch(&self, xs: &[u64]) -> Vec<u64> {
        xs.iter().map(|&x| self.query(x)).collect()
    }
}

/// A quantum black box: executes the circuit on a product-state input and
/// returns the final state (paper §4.5: circuits "can take quantum states
/// as inputs").
pub trait QuantumOracle {
    /// Number of lines.
    fn width(&self) -> usize;

    /// Runs the box on a prepared product state. Each call consumes the
    /// input state and counts as one oracle query.
    ///
    /// # Errors
    ///
    /// Returns an error if the preparation size mismatches the oracle width
    /// or the state is too large to simulate.
    fn query_quantum(&self, input: &ProductState) -> Result<StateVector, MatchError>;

    /// Runs the box on a prepared product state using the sparse
    /// simulation substrate. Identical accounting and semantics to
    /// [`query_quantum`], but the result stores only nonzero
    /// amplitudes, so widths past the dense simulator limit stay
    /// reachable while the state is structurally sparse.
    ///
    /// The default implementation routes through the dense path (and
    /// thus inherits its width limit); [`Oracle`] overrides it with a
    /// genuinely sparse execution.
    ///
    /// # Errors
    ///
    /// Returns an error if the preparation size mismatches the oracle
    /// width or the state outgrows the sparse entry budget.
    ///
    /// [`query_quantum`]: QuantumOracle::query_quantum
    fn query_quantum_sparse(&self, input: &ProductState) -> Result<SparseStateVector, MatchError> {
        Ok(SparseStateVector::from_dense(&self.query_quantum(input)?))
    }
}

/// A counting black box wrapping a reversible circuit.
///
/// # Examples
///
/// ```
/// use revmatch::Oracle;
/// use revmatch::oracle::ClassicalOracle;
/// use revmatch_circuit::{Circuit, Gate};
///
/// let oracle = Oracle::new(Circuit::from_gates(2, [Gate::cnot(0, 1)])?);
/// assert_eq!(oracle.query(0b01), 0b11);
/// assert_eq!(oracle.queries(), 1);
/// # Ok::<(), revmatch_circuit::CircuitError>(())
/// ```
pub struct Oracle {
    circuit: Circuit,
    queries: AtomicU64,
    table: TableMode,
}

/// Where an oracle's dense lookup table comes from.
enum TableMode {
    /// Fixed at construction: none ([`Oracle::new`]), compiled eagerly
    /// ([`Oracle::precompiled`]) or handed in from a worker cache
    /// ([`Oracle::with_shared_table`]).
    Fixed(Option<Arc<TruthTable>>),
    /// Bought once the probes have paid for it ([`Oracle::on_demand`]).
    OnDemand(OnDemand),
}

/// The rent-or-buy state of an on-demand oracle. Charges are counted
/// in scalar gate walks: one scalar probe walks the cascade once, and
/// a batch is priced at one scalar walk per [`PROBES_PER_WALK`]
/// probes.
struct OnDemand {
    /// Buy price: `max(1, 2^width / 64)` walks. A compile costs about
    /// as much per table entry as a batched probe, and a scalar walk
    /// about as much as 64 of either.
    price: u64,
    /// Walks paid for so far.
    charge: AtomicU64,
    /// The table, once bought; compiled exactly once.
    compiled: OnceLock<CompiledTable>,
}

/// A table an on-demand oracle bought, with when its compile
/// started and how long it took.
pub(crate) struct CompiledTable {
    pub table: Arc<TruthTable>,
    pub started: Instant,
    pub took: Duration,
}

/// The price model's unit: one scalar gate walk costs about as much as
/// this many batched probes. It is not the kernel's block size —
/// `wide256` evaluates 256 probes per walk (512 packed) — and changing
/// it moves when tables are bought.
const PROBES_PER_WALK: u64 = 64;

/// The charge of a quantum window application: it evaluates every
/// basis state of the window, so it pays the whole buy price.
const WHOLE_WINDOW: u64 = u64::MAX;

impl OnDemand {
    /// Adds `walks` (capped at the price) to the charge. Returns the
    /// table to serve the request from: the one already bought, or a
    /// fresh compile when this request brings the charge to the price.
    fn pay(&self, walks: u64, circuit: &Circuit) -> Option<&TruthTable> {
        if let Some(bought) = self.compiled.get() {
            return Some(&bought.table);
        }
        let walks = walks.min(self.price);
        if self.charge.fetch_add(walks, Ordering::Relaxed) + walks < self.price {
            return None;
        }
        let bought = self.compiled.get_or_init(|| {
            let started = Instant::now();
            let table = TruthTable::compile(circuit).expect("on-demand widths fit a table");
            CompiledTable {
                table: Arc::new(table),
                started,
                took: started.elapsed(),
            }
        });
        Some(&bought.table)
    }
}

impl Oracle {
    fn with_mode(circuit: Circuit, table: TableMode) -> Self {
        Self {
            circuit,
            queries: AtomicU64::new(0),
            table,
        }
    }

    /// Wraps a circuit as a black box with a fresh query counter.
    ///
    /// Scalar probes walk the gate cascade; batched probes
    /// ([`ClassicalOracle::query_batch`]) use the bit-sliced engine.
    pub fn new(circuit: Circuit) -> Self {
        Self::with_mode(circuit, TableMode::Fixed(None))
    }

    /// Wraps a circuit and eagerly compiles its [`TruthTable`] backend
    /// when the width permits (≤ `DENSE_MAX_WIDTH`), falling back to
    /// [`Oracle::new`] otherwise.
    ///
    /// Worth it for high-traffic oracles (the compile sweep costs one
    /// bit-sliced pass over all `2^width` inputs); query accounting is
    /// unchanged — the compile is white-box instance setup, probes
    /// still count one each.
    pub fn precompiled(circuit: Circuit) -> Self {
        let table = (circuit.width() <= DENSE_MAX_WIDTH)
            .then(|| Arc::new(TruthTable::compile(&circuit).expect("oracle widths fit a table")));
        Self::with_mode(circuit, TableMode::Fixed(table))
    }

    /// Wraps a circuit that compiles its own [`TruthTable`] only once
    /// its probes have paid for it.
    ///
    /// Until then probes walk the gates, and each request adds to a
    /// charge counted in scalar gate walks: a scalar query adds 1, a
    /// batch of `k` adds `⌈k/64⌉`, and a quantum window application
    /// ([`Oracle::query_quantum_xor`], its sparse twin, and
    /// [`QuantumOracle::query_quantum_sparse`]) adds the whole price.
    /// The request that brings the charge to `max(1, 2^width / 64)`
    /// compiles the table, exactly once, and it and every later
    /// request are served from it. Widths above `DENSE_MAX_WIDTH` never
    /// compile. Answers and query accounting are those of
    /// [`Oracle::new`].
    pub fn on_demand(circuit: Circuit) -> Self {
        let width = circuit.width();
        if width > DENSE_MAX_WIDTH {
            return Self::new(circuit);
        }
        let price = ((1u64 << width) / PROBES_PER_WALK).max(1);
        let on_demand = OnDemand {
            price,
            charge: AtomicU64::new(0),
            compiled: OnceLock::new(),
        };
        Self::with_mode(circuit, TableMode::OnDemand(on_demand))
    }

    /// Wraps a circuit around an already-compiled (shared) truth table —
    /// the memoization path: a serving worker that has seen this circuit
    /// before hands the cached table in and skips the `2^width` compile
    /// sweep. Query accounting is identical to [`Oracle::precompiled`].
    ///
    /// # Panics
    ///
    /// Panics if the table width disagrees with the circuit width (a
    /// cache-keying bug).
    pub fn with_shared_table(circuit: Circuit, table: Arc<TruthTable>) -> Self {
        assert_eq!(
            table.width(),
            circuit.width(),
            "shared table width must match the circuit"
        );
        Self::with_mode(circuit, TableMode::Fixed(Some(table)))
    }

    /// Derives the inverse black box (`C⁻¹`), with its own counter.
    ///
    /// The paper's §3 variant problem supplies inverse circuits explicitly;
    /// this helper plays that role (legitimate because reversible circuits
    /// given as white boxes can always be inverted). The inverse keeps
    /// the table mode: a precompiled oracle yields a precompiled
    /// inverse, an on-demand one an on-demand inverse.
    pub fn inverse_oracle(&self) -> Oracle {
        let inverse = self.circuit.inverse();
        match &self.table {
            TableMode::Fixed(None) => Oracle::new(inverse),
            TableMode::Fixed(Some(_)) => Oracle::precompiled(inverse),
            TableMode::OnDemand(_) => Oracle::on_demand(inverse),
        }
    }

    /// Total queries made so far (classical + quantum).
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Resets the query counter.
    pub fn reset_queries(&self) {
        self.queries.store(0, Ordering::Relaxed);
    }

    /// White-box access to the underlying circuit.
    ///
    /// Intended for *verification and instance construction only* — a
    /// matcher that touches this defeats the query-counting model, so
    /// matchers in this crate never call it.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The table this oracle holds — handed in, precompiled or bought —
    /// if any. Never compiles and charges nothing.
    pub(crate) fn table(&self) -> Option<&TruthTable> {
        match &self.table {
            TableMode::Fixed(table) => table.as_deref(),
            TableMode::OnDemand(on_demand) => on_demand.compiled.get().map(|b| &*b.table),
        }
    }

    /// The table an on-demand oracle bought, once its probes reached
    /// the price (`None` before that and for every other table mode).
    pub(crate) fn compiled_on_demand(&self) -> Option<&CompiledTable> {
        match &self.table {
            TableMode::OnDemand(on_demand) => on_demand.compiled.get(),
            TableMode::Fixed(_) => None,
        }
    }

    fn count(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    fn count_many(&self, k: u64) {
        self.queries.fetch_add(k, Ordering::Relaxed);
    }

    /// Charges `k` oracle queries without executing anything — for
    /// in-crate matchers whose backend executes the box outside the
    /// state-vector path (the stabilizer Simon round evaluates the
    /// reduced Clifford circuit classically but still owes its two
    /// queries per round).
    pub(crate) fn charge_queries(&self, k: u64) {
        self.count_many(k);
    }

    /// The table to serve a request costing `walks` scalar gate walks
    /// from, if there is one (buying it when an on-demand oracle's
    /// charge reaches the price). No query accounting.
    fn table_for(&self, walks: u64) -> Option<&TruthTable> {
        match &self.table {
            TableMode::Fixed(table) => table.as_deref(),
            TableMode::OnDemand(on_demand) => on_demand.pay(walks, &self.circuit),
        }
    }

    /// The evaluator for one quantum window application, through the
    /// dense table when there is one. No query accounting.
    fn window_eval(&self) -> impl Fn(u64) -> u64 + '_ {
        let table = self.table_for(WHOLE_WINDOW);
        move |x| match table {
            Some(table) => table.apply(x),
            None => self.circuit.apply(x),
        }
    }

    /// Applies this box as a standard quantum **XOR oracle**
    /// `U_C : |x⟩|o⟩ ↦ |x⟩|o ⊕ C(x)⟩` to a (possibly entangled) register,
    /// optionally controlled on a qubit. Counts **one** query.
    ///
    /// This is the conventional quantum black-box formulation (used by
    /// the Simon-style matcher); for white-box circuits it is
    /// constructible from one use of `C` and one of `C⁻¹`.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::Quantum`] if the windows do not fit or
    /// overlap.
    pub fn query_quantum_xor(
        &self,
        state: &mut StateVector,
        x_offset: usize,
        out_offset: usize,
        control: Option<(usize, bool)>,
    ) -> Result<(), MatchError> {
        self.count();
        state.apply_xor_oracle(
            self.window_eval(),
            x_offset,
            self.circuit.width(),
            out_offset,
            control,
        )?;
        Ok(())
    }

    /// The sparse-substrate twin of [`Oracle::query_quantum_xor`]:
    /// applies `U_C` as a key permutation over the stored nonzeros.
    /// Counts **one** query, identical accounting to the dense path.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::Quantum`] if the windows do not fit or
    /// overlap.
    pub fn query_quantum_xor_sparse(
        &self,
        state: &mut SparseStateVector,
        x_offset: usize,
        out_offset: usize,
        control: Option<(usize, bool)>,
    ) -> Result<(), MatchError> {
        self.count();
        state.apply_xor_oracle(
            self.window_eval(),
            x_offset,
            self.circuit.width(),
            out_offset,
            control,
        )?;
        Ok(())
    }
}

impl ClassicalOracle for Oracle {
    fn width(&self) -> usize {
        self.circuit.width()
    }

    fn query(&self, x: u64) -> u64 {
        self.count();
        match self.table_for(1) {
            Some(table) => table.apply(x),
            None => self.circuit.apply(x),
        }
    }

    fn query_batch(&self, xs: &[u64]) -> Vec<u64> {
        let k = xs.len() as u64;
        self.count_many(k);
        match self.table_for(k.div_ceil(PROBES_PER_WALK)) {
            Some(table) => table.apply_batch(xs),
            None => self.circuit.apply_batch(xs),
        }
    }
}

impl QuantumOracle for Oracle {
    fn width(&self) -> usize {
        self.circuit.width()
    }

    fn query_quantum(&self, input: &ProductState) -> Result<StateVector, MatchError> {
        if input.num_qubits() != self.circuit.width() {
            return Err(MatchError::WidthMismatch {
                left: input.num_qubits(),
                right: self.circuit.width(),
            });
        }
        let sv = input.try_to_state_vector()?;
        self.count();
        Ok(sv.applied_circuit(&self.circuit, 0)?)
    }

    fn query_quantum_sparse(&self, input: &ProductState) -> Result<SparseStateVector, MatchError> {
        if input.num_qubits() != self.circuit.width() {
            return Err(MatchError::WidthMismatch {
                left: input.num_qubits(),
                right: self.circuit.width(),
            });
        }
        self.count();
        let mut sv = SparseStateVector::from_product(input)?;
        sv.apply_window_permutation(self.window_eval(), self.circuit.width(), 0)?;
        Ok(sv)
    }
}

impl fmt::Debug for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Oracle(width={}, queries={})",
            self.circuit.width(),
            self.queries()
        )
    }
}

/// An output-masked view of an oracle: `x ↦ oracle(x) ⊕ mask`.
///
/// Used by the P-N matcher (paper §4.7): once the output negation `ν` is
/// known, `C3 = C_ν C2` is realized as a *view* of the `C2` oracle — no
/// extra queries are charged beyond the underlying accesses.
pub struct XorOutputOracle<'a> {
    inner: &'a dyn ClassicalOracle,
    mask: u64,
}

impl<'a> XorOutputOracle<'a> {
    /// Wraps `inner` so every output is XOR-ed with `mask`.
    pub fn new(inner: &'a dyn ClassicalOracle, mask: u64) -> Self {
        Self { inner, mask }
    }
}

impl ClassicalOracle for XorOutputOracle<'_> {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn query(&self, x: u64) -> u64 {
        self.inner.query(x) ^ self.mask
    }

    fn query_batch(&self, xs: &[u64]) -> Vec<u64> {
        let mut out = self.inner.query_batch(xs);
        for y in &mut out {
            *y ^= self.mask;
        }
        out
    }
}

impl fmt::Debug for XorOutputOracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XorOutputOracle(mask={:#x})", self.mask)
    }
}

/// An input-masked view of an oracle: `x ↦ oracle(x ⊕ mask)`.
///
/// The inverse-side companion of [`XorOutputOracle`]: if `C3 = C_ν C2`,
/// then `C3⁻¹(y) = C2⁻¹(y ⊕ ν)` is an input-masked view of `C2⁻¹`.
pub struct XorInputOracle<'a> {
    inner: &'a dyn ClassicalOracle,
    mask: u64,
}

impl<'a> XorInputOracle<'a> {
    /// Wraps `inner` so every input is XOR-ed with `mask` first.
    pub fn new(inner: &'a dyn ClassicalOracle, mask: u64) -> Self {
        Self { inner, mask }
    }
}

impl ClassicalOracle for XorInputOracle<'_> {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn query(&self, x: u64) -> u64 {
        self.inner.query(x ^ self.mask)
    }

    fn query_batch(&self, xs: &[u64]) -> Vec<u64> {
        let masked: Vec<u64> = xs.iter().map(|&x| x ^ self.mask).collect();
        self.inner.query_batch(&masked)
    }
}

impl fmt::Debug for XorInputOracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XorInputOracle(mask={:#x})", self.mask)
    }
}

/// A composed view `x ↦ second(first(x))`, charging one query to each
/// underlying oracle per access.
///
/// Realizes the paper's concatenations like `C = C1 C2⁻¹` used by the
/// inverse-assisted matchers.
pub struct ComposedOracle<'a> {
    first: &'a dyn ClassicalOracle,
    second: &'a dyn ClassicalOracle,
}

impl<'a> ComposedOracle<'a> {
    /// Composes two oracles: `first` is applied first.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::WidthMismatch`] if widths differ.
    pub fn new(
        first: &'a dyn ClassicalOracle,
        second: &'a dyn ClassicalOracle,
    ) -> Result<Self, MatchError> {
        if first.width() != second.width() {
            return Err(MatchError::WidthMismatch {
                left: first.width(),
                right: second.width(),
            });
        }
        Ok(Self { first, second })
    }
}

impl ClassicalOracle for ComposedOracle<'_> {
    fn width(&self) -> usize {
        self.first.width()
    }

    fn query(&self, x: u64) -> u64 {
        self.second.query(self.first.query(x))
    }

    fn query_batch(&self, xs: &[u64]) -> Vec<u64> {
        self.second.query_batch(&self.first.query_batch(xs))
    }
}

impl fmt::Debug for ComposedOracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ComposedOracle(width={})", self.width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmatch_circuit::Gate;
    use revmatch_quantum::Qubit;

    fn not0(width: usize) -> Oracle {
        Oracle::new(Circuit::from_gates(width, [Gate::not(0)]).unwrap())
    }

    #[test]
    fn classical_queries_count() {
        let o = not0(2);
        assert_eq!(o.queries(), 0);
        assert_eq!(o.query(0b00), 0b01);
        assert_eq!(o.query(0b01), 0b00);
        assert_eq!(o.queries(), 2);
        o.reset_queries();
        assert_eq!(o.queries(), 0);
    }

    #[test]
    fn quantum_queries_count_and_apply() {
        let o = not0(1);
        let out = o
            .query_quantum(&ProductState::uniform(1, Qubit::Zero))
            .unwrap();
        assert!((out.probability(1) - 1.0).abs() < 1e-12);
        assert_eq!(o.queries(), 1);
    }

    #[test]
    fn quantum_rejects_wrong_size() {
        let o = not0(2);
        assert!(matches!(
            o.query_quantum(&ProductState::uniform(3, Qubit::Zero)),
            Err(MatchError::WidthMismatch { .. })
        ));
        // Failed call does not count.
        assert_eq!(o.queries(), 0);
    }

    #[test]
    fn inverse_oracle_inverts() {
        let c = Circuit::from_gates(3, [Gate::not(0), Gate::cnot(0, 2)]).unwrap();
        let o = Oracle::new(c);
        let inv = o.inverse_oracle();
        for x in 0..8 {
            assert_eq!(inv.query(o.query(x)), x);
        }
        assert_eq!(o.queries(), 8);
        assert_eq!(inv.queries(), 8);
    }

    #[test]
    fn xor_output_view() {
        let o = not0(2);
        let masked = XorOutputOracle::new(&o, 0b10);
        assert_eq!(masked.query(0b00), 0b11);
        // Charged to the underlying oracle.
        assert_eq!(o.queries(), 1);
    }

    #[test]
    fn composed_view_charges_both() {
        let a = not0(2);
        let b = Oracle::new(Circuit::from_gates(2, [Gate::cnot(0, 1)]).unwrap());
        let c = ComposedOracle::new(&a, &b).unwrap();
        // x=00 -> NOT0 -> 01 -> CNOT -> 11.
        assert_eq!(c.query(0b00), 0b11);
        assert_eq!(a.queries(), 1);
        assert_eq!(b.queries(), 1);
    }

    #[test]
    fn composed_rejects_width_mismatch() {
        let a = not0(2);
        let b = not0(3);
        assert!(ComposedOracle::new(&a, &b).is_err());
    }

    #[test]
    fn xor_oracle_access_counts_one_query() {
        let o = not0(2);
        // Register: x at 0..2, out at 2..4.
        let mut sv = StateVector::basis(0b00_01, 4);
        o.query_quantum_xor(&mut sv, 0, 2, None).unwrap();
        // f(01) = 00; out ^= 00 — state unchanged... use a nontrivial x.
        assert_eq!(o.queries(), 1, "one oracle application = one query");
        let mut sv = StateVector::basis(0b00_10, 4);
        o.query_quantum_xor(&mut sv, 0, 2, None).unwrap();
        // f(10) = 11: out = 11.
        assert!((sv.probability(0b11_10) - 1.0).abs() < 1e-12);
        assert_eq!(o.queries(), 2);
    }

    #[test]
    fn xor_oracle_controlled_access() {
        let o = not0(1);
        // Register: x at 0, out at 1, control at 2 (value 0 ⇒ no fire).
        let mut sv = StateVector::basis(0b0_0_0, 3);
        o.query_quantum_xor(&mut sv, 0, 1, Some((2, true))).unwrap();
        assert!((sv.probability(0b0_0_0) - 1.0).abs() < 1e-12);
        // Even a non-firing application counts as a query (the box ran).
        assert_eq!(o.queries(), 1);
    }

    #[test]
    fn batch_counts_exactly_len_on_every_wrapper() {
        let base = Circuit::from_gates(3, [Gate::not(0), Gate::cnot(0, 2)]).unwrap();
        let xs: Vec<u64> = (0..7).collect();

        // Plain oracle.
        let o = Oracle::new(base.clone());
        let batched = o.query_batch(&xs);
        assert_eq!(o.queries(), 7);
        let scalar: Vec<u64> = xs.iter().map(|&x| o.query(x)).collect();
        assert_eq!(batched, scalar);
        assert_eq!(o.queries(), 14);

        // Precompiled oracle: identical answers, identical accounting.
        let p = Oracle::precompiled(base.clone());
        assert_eq!(p.query_batch(&xs), batched);
        assert_eq!(p.queries(), 7);

        // Output-masked view: charged to the inner oracle.
        let o = Oracle::new(base.clone());
        let masked = XorOutputOracle::new(&o, 0b101);
        let got = masked.query_batch(&xs);
        assert_eq!(o.queries(), 7);
        assert_eq!(got, batched.iter().map(|&y| y ^ 0b101).collect::<Vec<_>>());

        // Input-masked view.
        let o = Oracle::new(base.clone());
        let masked = XorInputOracle::new(&o, 0b011);
        let got = masked.query_batch(&xs);
        assert_eq!(o.queries(), 7);
        let expect: Vec<u64> = xs.iter().map(|&x| base.apply(x ^ 0b011)).collect();
        assert_eq!(got, expect);

        // Composition: one query to each side per probe.
        let a = Oracle::new(base.clone());
        let b = Oracle::new(base.inverse());
        let composed = ComposedOracle::new(&a, &b).unwrap();
        let got = composed.query_batch(&xs);
        assert_eq!(a.queries(), 7);
        assert_eq!(b.queries(), 7);
        assert_eq!(got, xs);
    }

    #[test]
    fn default_query_batch_matches_scalar_accounting() {
        // A minimal hand-rolled oracle exercising the trait's default
        // batched path: k probes = k scalar queries.
        struct Probe(std::cell::Cell<u64>);
        impl ClassicalOracle for Probe {
            fn width(&self) -> usize {
                4
            }
            fn query(&self, x: u64) -> u64 {
                self.0.set(self.0.get() + 1);
                x ^ 0b1001
            }
        }
        let p = Probe(std::cell::Cell::new(0));
        let xs: Vec<u64> = (0..9).collect();
        let out = p.query_batch(&xs);
        assert_eq!(p.0.get(), 9);
        assert_eq!(out, xs.iter().map(|&x| x ^ 0b1001).collect::<Vec<_>>());
    }

    #[test]
    fn precompiled_falls_back_beyond_dense_width() {
        let mut c = Circuit::new(DENSE_MAX_WIDTH + 4);
        c.push(Gate::not(2)).unwrap();
        let o = Oracle::precompiled(c);
        assert_eq!(o.query(0), 0b100);
        assert_eq!(o.query_batch(&[0, 0b100]), vec![0b100, 0]);
        assert_eq!(o.queries(), 3);
    }

    #[test]
    fn precompiled_inverse_stays_precompiled_and_inverts() {
        let c = Circuit::from_gates(4, [Gate::toffoli(0, 1, 3), Gate::not(2)]).unwrap();
        let o = Oracle::precompiled(c);
        let inv = o.inverse_oracle();
        let xs: Vec<u64> = (0..16).collect();
        assert_eq!(inv.query_batch(&o.query_batch(&xs)), xs);
    }

    #[test]
    fn sparse_xor_matches_dense_and_counts_one_query() {
        let o = not0(2);
        let mut dense = StateVector::basis(0b00_10, 4);
        let mut sparse = SparseStateVector::from_dense(&dense);
        o.query_quantum_xor(&mut dense, 0, 2, None).unwrap();
        o.query_quantum_xor_sparse(&mut sparse, 0, 2, None).unwrap();
        assert_eq!(o.queries(), 2);
        for x in 0..16u64 {
            assert!(sparse.amplitude(x).approx_eq(dense.amplitude(x), 1e-12));
        }
    }

    #[test]
    fn sparse_quantum_query_scales_past_dense_limit() {
        // Width 24 — query_quantum fails cleanly, the sparse path runs.
        let width = 24;
        let o = Oracle::new(Circuit::from_gates(width, [Gate::cnot(0, 23)]).unwrap());
        let input = ProductState::uniform(width, Qubit::Zero).with_qubit(0, Qubit::One);
        assert!(matches!(
            o.query_quantum(&input),
            Err(MatchError::Quantum(
                revmatch_quantum::QuantumError::TooManyQubits { .. }
            ))
        ));
        let out = o.query_quantum_sparse(&input).unwrap();
        assert!((out.probability(1 | (1 << 23)) - 1.0).abs() < 1e-12);
        // The failed dense call does not count; the sparse query does.
        assert_eq!(o.queries(), 1);
    }

    #[test]
    fn sparse_quantum_query_matches_dense_on_superpositions() {
        let c = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2), Gate::not(1)]).unwrap();
        let o = Oracle::precompiled(c);
        let input = ProductState::from_qubits(vec![Qubit::Plus, Qubit::One, Qubit::Minus]);
        let dense = o.query_quantum(&input).unwrap();
        let sparse = o.query_quantum_sparse(&input).unwrap();
        for x in 0..8u64 {
            assert!(sparse.amplitude(x).approx_eq(dense.amplitude(x), 1e-12));
        }
        assert_eq!(o.queries(), 2);
    }

    fn random_circuit(width: usize, seed: u64) -> Circuit {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        revmatch_circuit::random_circuit(
            &revmatch_circuit::RandomCircuitSpec::for_width(width),
            &mut rng,
        )
    }

    /// Walks charged so far by an on-demand oracle.
    fn charge(o: &Oracle) -> u64 {
        match &o.table {
            TableMode::OnDemand(on_demand) => on_demand.charge.load(Ordering::Relaxed),
            TableMode::Fixed(_) => panic!("not an on-demand oracle"),
        }
    }

    #[test]
    fn on_demand_scalar_probes_below_the_price_compile_nothing() {
        // Width 16: the price is 2^16 / 64 = 1024 walks.
        let c = random_circuit(16, 1);
        let lazy = Oracle::on_demand(c.clone());
        let plain = Oracle::new(c);
        for x in (0..100u64).map(|i| i * 613) {
            assert_eq!(lazy.query(x), plain.query(x));
        }
        assert!(lazy.compiled_on_demand().is_none());
        assert_eq!(charge(&lazy), 100);
        assert_eq!(lazy.queries(), plain.queries());
    }

    #[test]
    fn on_demand_compiles_exactly_once_at_the_price() {
        // Width 12: the price is 64 walks.
        let c = random_circuit(12, 2);
        let lazy = Oracle::on_demand(c.clone());
        for x in 0..63u64 {
            assert_eq!(lazy.query(x), c.apply(x));
        }
        assert!(lazy.compiled_on_demand().is_none(), "63 walks < 64");
        assert_eq!(lazy.query(63), c.apply(63));
        let first = lazy.compiled_on_demand().expect("64th walk buys the table");
        let (table, started) = (Arc::clone(&first.table), first.started);
        let xs: Vec<u64> = (0..4096).collect();
        assert_eq!(lazy.query_batch(&xs), c.apply_batch(&xs));
        for x in [0, 1, 4095] {
            assert_eq!(lazy.query(x), c.apply(x));
        }
        let again = lazy.compiled_on_demand().unwrap();
        assert!(Arc::ptr_eq(&again.table, &table), "no second compile");
        assert_eq!(again.started, started);
        assert_eq!(charge(&lazy), 64, "a bought table charges nothing more");
        assert_eq!(lazy.queries(), 64 + 4096 + 3);
    }

    #[test]
    fn on_demand_batch_of_k_charges_ceil_k_over_64() {
        let c = random_circuit(12, 3);
        let lazy = Oracle::on_demand(c.clone());
        let xs: Vec<u64> = (0..65).collect();
        assert_eq!(lazy.query_batch(&xs), c.apply_batch(&xs));
        assert_eq!(charge(&lazy), 2);
        assert_eq!(lazy.queries(), 65);
        assert!(lazy.query_batch(&[]).is_empty());
        assert_eq!(charge(&lazy), 2, "an empty batch walks nothing");
        let xs: Vec<u64> = (0..62 * 64).collect();
        assert_eq!(lazy.query_batch(&xs), c.apply_batch(&xs));
        assert!(lazy.compiled_on_demand().is_some(), "2 + 62 walks = price");
    }

    #[test]
    fn one_quantum_window_application_compiles_at_once() {
        // Width 8: price 4, paid in full by one XOR application.
        let c = random_circuit(8, 4);
        let lazy = Oracle::on_demand(c.clone());
        let plain = Oracle::new(c.clone());
        let mut a = StateVector::basis(0x5A, 16);
        let mut b = a.clone();
        lazy.query_quantum_xor(&mut a, 0, 8, None).unwrap();
        plain.query_quantum_xor(&mut b, 0, 8, None).unwrap();
        assert!(lazy.compiled_on_demand().is_some());
        assert!((a.probability(0x5A | (c.apply(0x5A) << 8)) - 1.0).abs() < 1e-12);
        assert!((b.probability(0x5A | (c.apply(0x5A) << 8)) - 1.0).abs() < 1e-12);
        assert_eq!(lazy.queries(), 1);

        for sparse_first in [true, false] {
            let lazy = Oracle::on_demand(c.clone());
            if sparse_first {
                let mut sv = SparseStateVector::basis(0x33, 16);
                lazy.query_quantum_xor_sparse(&mut sv, 0, 8, None).unwrap();
                assert!((sv.probability(0x33 | (c.apply(0x33) << 8)) - 1.0).abs() < 1e-12);
            } else {
                let input = ProductState::uniform(8, Qubit::Plus);
                let out = lazy.query_quantum_sparse(&input).unwrap();
                let expect = plain.query_quantum_sparse(&input).unwrap();
                for x in 0..256u64 {
                    assert!(out.amplitude(x).approx_eq(expect.amplitude(x), 1e-12));
                }
            }
            assert!(lazy.compiled_on_demand().is_some());
            assert_eq!(lazy.queries(), 1);
        }
    }

    #[test]
    fn on_demand_never_compiles_past_dense_width() {
        let width = DENSE_MAX_WIDTH + 1;
        let c = Circuit::from_gates(width, [Gate::cnot(0, width - 1)]).unwrap();
        let lazy = Oracle::on_demand(c.clone());
        let xs: Vec<u64> = (0..4096).collect();
        assert_eq!(lazy.query_batch(&xs), c.apply_batch(&xs));
        let input = ProductState::uniform(width, Qubit::Zero).with_qubit(0, Qubit::One);
        let out = lazy.query_quantum_sparse(&input).unwrap();
        assert!((out.probability(1 | (1 << (width - 1))) - 1.0).abs() < 1e-12);
        assert!(lazy.compiled_on_demand().is_none());
        assert!(lazy.inverse_oracle().compiled_on_demand().is_none());
        assert_eq!(lazy.queries(), 4097);
    }

    #[test]
    fn on_demand_inverse_is_on_demand_and_inverts() {
        let c = random_circuit(10, 5);
        let lazy = Oracle::on_demand(c);
        let inv = lazy.inverse_oracle();
        assert!(matches!(inv.table, TableMode::OnDemand(_)));
        assert_eq!(charge(&inv), 0, "the inverse keeps its own charge");
        let xs: Vec<u64> = (0..1024).collect();
        assert_eq!(inv.query_batch(&lazy.query_batch(&xs)), xs);
        assert!(
            inv.compiled_on_demand().is_some(),
            "16 walks = price at w10"
        );
        assert_eq!(inv.queries(), 1024);
    }

    #[test]
    fn xor_oracle_rejects_bad_windows() {
        let o = not0(2);
        let mut sv = StateVector::basis(0, 3);
        // Out window does not fit.
        assert!(o.query_quantum_xor(&mut sv, 0, 2, None).is_err());
        // Overlapping windows.
        let mut sv = StateVector::basis(0, 4);
        assert!(o.query_quantum_xor(&mut sv, 0, 1, None).is_err());
    }
}
