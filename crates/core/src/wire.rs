//! The `revmatch-server` wire protocol: length-prefixed binary frames.
//!
//! Every frame is `[u32 len (LE)][u8 opcode][body]`, where `len` counts
//! the opcode byte plus the body. Integers are little-endian; `usize`
//! quantities travel as `u64`. Frames larger than [`MAX_FRAME_LEN`] are
//! rejected before allocation, so a corrupt or hostile length prefix
//! cannot balloon server memory.
//!
//! Client → server ([`ClientFrame`]):
//!
//! | opcode | frame | body |
//! |--------|-------|------|
//! | `0x01` | `Submit` | `client_id: u64`, `seed: Option<u64>`, [`JobSpec`] |
//! | `0x02` | `MetricsRequest` | empty |
//!
//! Server → client ([`ServerFrame`]):
//!
//! | opcode | frame | body |
//! |--------|-------|------|
//! | `0x81` | `Report` | `client_id: u64`, [`JobReport`] |
//! | `0x82` | `MetricsText` | Prometheus exposition text |
//!
//! `client_id` is an opaque correlation token: the server echoes it on
//! the matching report, so a connection may pipeline submits and match
//! responses arriving in any order. `seed` carries an explicit per-job
//! seed ([`crate::MatchService::submit_seeded`]); absent, the server
//! derives seeds from its own accept indices. Because job outcomes
//! depend only on `(job, seed)`, a seeded submit over the wire is
//! bit-identical to the same in-process call — the protocol round-trips
//! every [`JobSpec`] and [`JobReport`] field losslessly, including
//! structural [`MatchError`] / [`CircuitError`] / [`QuantumError`]
//! payloads and the [`JobTiming`] breakdown.

use std::io::{self, Read, Write};

use revmatch_circuit::{Circuit, CircuitError, Gate, LinePermutation, NegationMask, NpTransform};
use revmatch_quantum::QuantumError;

use crate::enumerate::WitnessFamily;
use crate::equivalence::{Equivalence, Side};
use crate::error::MatchError;
use crate::miter::MiterVerdict;
use crate::observe::JobTiming;
use crate::service::job::{
    EngineJob, EnumerateJob, IdentifyJob, JobKind, JobReport, JobSpec, QuantumAlgorithm,
    QuantumPathJob, SatEquivalenceJob,
};
use crate::witness::MatchWitness;

/// Hard cap on one frame's payload (opcode + body): 16 MiB, orders of
/// magnitude above any legal job (a width-64 circuit with hundreds of
/// thousands of gates), small enough that a bogus length prefix cannot
/// exhaust server memory.
pub const MAX_FRAME_LEN: usize = 16 << 20;

const OP_SUBMIT: u8 = 0x01;
const OP_METRICS_REQUEST: u8 = 0x02;
const OP_REPORT: u8 = 0x81;
const OP_METRICS_TEXT: u8 = 0x82;

/// A decode-side protocol failure.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (including mid-frame EOF).
    Io(io::Error),
    /// The peer sent a frame longer than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Advertised payload length.
        len: usize,
    },
    /// The frame decoded to something structurally invalid.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wire i/o error: {e}"),
            Self::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_LEN} cap")
            }
            Self::Malformed(reason) => write!(f, "malformed frame: {reason}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

fn malformed(reason: impl Into<String>) -> WireError {
    WireError::Malformed(reason.into())
}

/// A frame sent by a client.
#[derive(Debug, Clone)]
pub enum ClientFrame {
    /// Submit one job; the matching [`ServerFrame::Report`] echoes
    /// `client_id`.
    Submit {
        /// Opaque correlation token chosen by the client.
        client_id: u64,
        /// Explicit per-job seed; `None` lets the server derive one.
        seed: Option<u64>,
        /// The job itself.
        job: JobSpec,
    },
    /// Request one [`ServerFrame::MetricsText`] snapshot.
    MetricsRequest,
}

/// A frame sent by the server.
#[derive(Debug, Clone)]
pub enum ServerFrame {
    /// The completed report for the submit carrying the same
    /// `client_id`.
    Report {
        /// The client's correlation token, echoed.
        client_id: u64,
        /// The job's report, timing included.
        report: JobReport,
    },
    /// One Prometheus-text metrics snapshot.
    MetricsText(String),
}

// ---------------------------------------------------------------------
// Encoder: append-to-Vec primitives.
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_side(out: &mut Vec<u8>, side: Side) {
    put_u8(
        out,
        match side {
            Side::I => 0,
            Side::N => 1,
            Side::P => 2,
            Side::Np => 3,
        },
    );
}

fn put_equivalence(out: &mut Vec<u8>, e: Equivalence) {
    put_side(out, e.x);
    put_side(out, e.y);
}

fn put_circuit(out: &mut Vec<u8>, c: &Circuit) {
    put_u8(out, c.width() as u8);
    put_u32(out, c.gates().len() as u32);
    for gate in c.gates() {
        put_u64(out, gate.control_mask());
        put_u64(out, gate.positive_mask());
        put_u8(out, gate.target() as u8);
    }
}

fn put_transform(out: &mut Vec<u8>, t: &NpTransform) {
    put_u8(out, t.width() as u8);
    put_u64(out, t.negation().mask());
    for &line in t.permutation().as_slice() {
        put_u8(out, line as u8);
    }
}

fn put_witness(out: &mut Vec<u8>, w: &MatchWitness) {
    put_transform(out, &w.input);
    put_transform(out, &w.output);
}

fn put_circuit_error(out: &mut Vec<u8>, e: &CircuitError) {
    match e {
        CircuitError::LineOutOfRange { line, width } => {
            put_u8(out, 0);
            put_u64(out, *line as u64);
            put_u64(out, *width as u64);
        }
        CircuitError::WidthMismatch { left, right } => {
            put_u8(out, 1);
            put_u64(out, *left as u64);
            put_u64(out, *right as u64);
        }
        CircuitError::TargetIsControl { line } => {
            put_u8(out, 2);
            put_u64(out, *line as u64);
        }
        CircuitError::DuplicateControl { line } => {
            put_u8(out, 3);
            put_u64(out, *line as u64);
        }
        CircuitError::NotBijective => put_u8(out, 4),
        CircuitError::NotAPermutation => put_u8(out, 5),
        CircuitError::ParsePattern { input, reason } => {
            put_u8(out, 6);
            put_string(out, input);
            put_string(out, reason);
        }
        CircuitError::ParseReal { line_no, reason } => {
            put_u8(out, 7);
            put_u64(out, *line_no as u64);
            put_string(out, reason);
        }
        CircuitError::WidthTooLarge { width, max } => {
            put_u8(out, 8);
            put_u64(out, *width as u64);
            put_u64(out, *max as u64);
        }
        // `CircuitError` is non_exhaustive; an unknown future variant
        // degrades to its rendered message rather than failing to send.
        other => {
            put_u8(out, 6);
            put_string(out, "");
            put_string(out, &other.to_string());
        }
    }
}

fn put_quantum_error(out: &mut Vec<u8>, e: &QuantumError) {
    match e {
        QuantumError::QubitOutOfRange { qubit, n } => {
            put_u8(out, 0);
            put_u64(out, *qubit as u64);
            put_u64(out, *n as u64);
        }
        QuantumError::QubitCountMismatch { left, right } => {
            put_u8(out, 1);
            put_u64(out, *left as u64);
            put_u64(out, *right as u64);
        }
        QuantumError::TooManyQubits { n, max } => {
            put_u8(out, 2);
            put_u64(out, *n as u64);
            put_u64(out, *max as u64);
        }
        QuantumError::InvalidAmplitudes { reason } => {
            put_u8(out, 3);
            put_string(out, reason);
        }
        QuantumError::StateTooLarge { entries, max } => {
            put_u8(out, 4);
            put_u64(out, *entries as u64);
            put_u64(out, *max as u64);
        }
        // `QuantumError` is non_exhaustive; degrade unknown variants to
        // their rendered message.
        other => {
            put_u8(out, 3);
            put_string(out, &other.to_string());
        }
    }
}

fn put_match_error(out: &mut Vec<u8>, e: &MatchError) {
    match e {
        MatchError::WidthMismatch { left, right } => {
            put_u8(out, 0);
            put_u64(out, *left as u64);
            put_u64(out, *right as u64);
        }
        MatchError::InverseRequired => put_u8(out, 1),
        MatchError::RandomizedFailure { reason } => {
            put_u8(out, 2);
            put_string(out, reason);
        }
        MatchError::Intractable { equivalence } => {
            put_u8(out, 3);
            put_string(out, equivalence);
        }
        MatchError::PromiseViolated => put_u8(out, 4),
        MatchError::BruteForceTooWide { width, max } => {
            put_u8(out, 5);
            put_u64(out, *width as u64);
            put_u64(out, *max as u64);
        }
        MatchError::OpenProblem { case } => {
            put_u8(out, 6);
            put_string(out, case);
        }
        MatchError::Inconclusive => put_u8(out, 7),
        MatchError::EnumerationTooWide { width, max } => {
            put_u8(out, 8);
            put_u64(out, *width as u64);
            put_u64(out, *max as u64);
        }
        MatchError::FamilyMismatch => put_u8(out, 9),
        MatchError::NoEquivalence => put_u8(out, 10),
        MatchError::Parse { reason } => {
            put_u8(out, 11);
            put_string(out, reason);
        }
        MatchError::WorkerLost => put_u8(out, 12),
        MatchError::Overloaded => put_u8(out, 13),
        MatchError::Circuit(ce) => {
            put_u8(out, 14);
            put_circuit_error(out, ce);
        }
        MatchError::Quantum(qe) => {
            put_u8(out, 15);
            put_quantum_error(out, qe);
        }
    }
}

fn put_kind(out: &mut Vec<u8>, kind: JobKind) {
    put_u8(
        out,
        match kind {
            JobKind::Promise => 0,
            JobKind::Identify => 1,
            JobKind::Quantum => 2,
            JobKind::Sat => 3,
            JobKind::Enumerate => 4,
        },
    );
}

fn put_family(out: &mut Vec<u8>, family: WitnessFamily) {
    put_u8(
        out,
        match family {
            WitnessFamily::InputNegation => 0,
            WitnessFamily::OutputNegation => 1,
            WitnessFamily::BothNegations => 2,
            WitnessFamily::InputPermutation => 3,
            WitnessFamily::OutputPermutation => 4,
        },
    );
}

fn put_job(out: &mut Vec<u8>, job: &JobSpec) {
    match job {
        JobSpec::Promise(j) => {
            put_u8(out, 0);
            put_equivalence(out, j.equivalence);
            put_circuit(out, &j.c1);
            put_circuit(out, &j.c2);
            put_bool(out, j.with_inverses);
            put_bool(out, j.sat_verify);
        }
        JobSpec::Identify(j) => {
            put_u8(out, 1);
            put_circuit(out, &j.c1);
            put_circuit(out, &j.c2);
            put_bool(out, j.allow_brute_force);
        }
        JobSpec::QuantumPath(j) => {
            put_u8(out, 2);
            put_equivalence(out, j.equivalence);
            put_circuit(out, &j.c1);
            put_circuit(out, &j.c2);
            put_u8(
                out,
                match j.algorithm {
                    QuantumAlgorithm::SwapTest => 0,
                    QuantumAlgorithm::Simon => 1,
                },
            );
        }
        JobSpec::SatEquivalence(j) => {
            put_u8(out, 3);
            put_circuit(out, &j.c1);
            put_circuit(out, &j.c2);
            match &j.witness {
                Some(w) => {
                    put_bool(out, true);
                    put_witness(out, w);
                }
                None => put_bool(out, false),
            }
        }
        JobSpec::Enumerate(j) => {
            put_u8(out, 4);
            put_circuit(out, &j.c1);
            put_circuit(out, &j.c2);
            put_family(out, j.family);
        }
    }
}

fn put_verdict(out: &mut Vec<u8>, verdict: &MiterVerdict) {
    match verdict {
        MiterVerdict::Equivalent => put_u8(out, 0),
        MiterVerdict::Counterexample { input } => {
            put_u8(out, 1);
            put_u64(out, *input);
        }
        MiterVerdict::Unknown {
            decisions,
            conflicts,
        } => {
            put_u8(out, 2);
            put_u64(out, *decisions as u64);
            put_u64(out, *conflicts as u64);
        }
    }
}

fn put_report(out: &mut Vec<u8>, report: &JobReport) {
    put_kind(out, report.kind);
    match &report.witness {
        Ok(w) => {
            put_bool(out, true);
            put_witness(out, w);
        }
        Err(e) => {
            put_bool(out, false);
            put_match_error(out, e);
        }
    }
    put_u64(out, report.queries);
    put_u64(out, report.charged_queries);
    put_u64(out, report.rounds);
    match report.identified {
        Some(e) => {
            put_bool(out, true);
            put_equivalence(out, e);
        }
        None => put_bool(out, false),
    }
    match report.witness_count {
        Some(c) => {
            put_bool(out, true);
            put_u64(out, c);
        }
        None => put_bool(out, false),
    }
    match &report.miter {
        Some(v) => {
            put_bool(out, true);
            put_verdict(out, v);
        }
        None => put_bool(out, false),
    }
    put_u64(out, report.timing.queue_wait_us);
    put_u64(out, report.timing.exec_us);
    put_bool(out, report.timing.cache_hit);
}

// ---------------------------------------------------------------------
// Decoder: a cursor over one frame's payload.
// ---------------------------------------------------------------------

struct Buf<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Buf<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| malformed("truncated frame"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("bad bool byte {b:#x}"))),
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("string is not UTF-8"))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(malformed(format!(
                "{} trailing bytes after frame body",
                self.data.len() - self.pos
            )))
        }
    }
}

fn get_side(buf: &mut Buf<'_>) -> Result<Side, WireError> {
    match buf.u8()? {
        0 => Ok(Side::I),
        1 => Ok(Side::N),
        2 => Ok(Side::P),
        3 => Ok(Side::Np),
        b => Err(malformed(format!("bad side tag {b:#x}"))),
    }
}

fn get_equivalence(buf: &mut Buf<'_>) -> Result<Equivalence, WireError> {
    Ok(Equivalence::new(get_side(buf)?, get_side(buf)?))
}

fn get_circuit(buf: &mut Buf<'_>) -> Result<Circuit, WireError> {
    let width = buf.u8()? as usize;
    let count = buf.u32()? as usize;
    let mut gates = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let control_mask = buf.u64()?;
        let positive_mask = buf.u64()?;
        let target = buf.u8()? as usize;
        gates.push(
            Gate::from_masks(control_mask, positive_mask, target)
                .map_err(|e| malformed(format!("bad gate: {e}")))?,
        );
    }
    Circuit::from_gates(width, gates).map_err(|e| malformed(format!("bad circuit: {e}")))
}

fn get_transform(buf: &mut Buf<'_>) -> Result<NpTransform, WireError> {
    let width = buf.u8()? as usize;
    let mask = buf.u64()?;
    let nu = NegationMask::new(mask, width).map_err(|e| malformed(format!("bad negation: {e}")))?;
    let mut map = Vec::with_capacity(width);
    for _ in 0..width {
        map.push(buf.u8()? as usize);
    }
    let pi = LinePermutation::new(map).map_err(|e| malformed(format!("bad permutation: {e}")))?;
    NpTransform::new(nu, pi).map_err(|e| malformed(format!("bad transform: {e}")))
}

fn get_witness(buf: &mut Buf<'_>) -> Result<MatchWitness, WireError> {
    let input = get_transform(buf)?;
    let output = get_transform(buf)?;
    MatchWitness::new(input, output).map_err(|e| malformed(format!("bad witness: {e}")))
}

fn get_circuit_error(buf: &mut Buf<'_>) -> Result<CircuitError, WireError> {
    Ok(match buf.u8()? {
        0 => CircuitError::LineOutOfRange {
            line: buf.u64()? as usize,
            width: buf.u64()? as usize,
        },
        1 => CircuitError::WidthMismatch {
            left: buf.u64()? as usize,
            right: buf.u64()? as usize,
        },
        2 => CircuitError::TargetIsControl {
            line: buf.u64()? as usize,
        },
        3 => CircuitError::DuplicateControl {
            line: buf.u64()? as usize,
        },
        4 => CircuitError::NotBijective,
        5 => CircuitError::NotAPermutation,
        6 => CircuitError::ParsePattern {
            input: buf.string()?,
            reason: buf.string()?,
        },
        7 => CircuitError::ParseReal {
            line_no: buf.u64()? as usize,
            reason: buf.string()?,
        },
        8 => CircuitError::WidthTooLarge {
            width: buf.u64()? as usize,
            max: buf.u64()? as usize,
        },
        b => return Err(malformed(format!("bad circuit-error tag {b:#x}"))),
    })
}

fn get_quantum_error(buf: &mut Buf<'_>) -> Result<QuantumError, WireError> {
    Ok(match buf.u8()? {
        0 => QuantumError::QubitOutOfRange {
            qubit: buf.u64()? as usize,
            n: buf.u64()? as usize,
        },
        1 => QuantumError::QubitCountMismatch {
            left: buf.u64()? as usize,
            right: buf.u64()? as usize,
        },
        2 => QuantumError::TooManyQubits {
            n: buf.u64()? as usize,
            max: buf.u64()? as usize,
        },
        3 => QuantumError::InvalidAmplitudes {
            reason: buf.string()?,
        },
        4 => QuantumError::StateTooLarge {
            entries: buf.u64()? as usize,
            max: buf.u64()? as usize,
        },
        b => return Err(malformed(format!("bad quantum-error tag {b:#x}"))),
    })
}

fn get_match_error(buf: &mut Buf<'_>) -> Result<MatchError, WireError> {
    Ok(match buf.u8()? {
        0 => MatchError::WidthMismatch {
            left: buf.u64()? as usize,
            right: buf.u64()? as usize,
        },
        1 => MatchError::InverseRequired,
        2 => MatchError::RandomizedFailure {
            reason: buf.string()?,
        },
        3 => MatchError::Intractable {
            equivalence: buf.string()?,
        },
        4 => MatchError::PromiseViolated,
        5 => MatchError::BruteForceTooWide {
            width: buf.u64()? as usize,
            max: buf.u64()? as usize,
        },
        6 => MatchError::OpenProblem {
            case: buf.string()?,
        },
        7 => MatchError::Inconclusive,
        8 => MatchError::EnumerationTooWide {
            width: buf.u64()? as usize,
            max: buf.u64()? as usize,
        },
        9 => MatchError::FamilyMismatch,
        10 => MatchError::NoEquivalence,
        11 => MatchError::Parse {
            reason: buf.string()?,
        },
        12 => MatchError::WorkerLost,
        13 => MatchError::Overloaded,
        14 => MatchError::Circuit(get_circuit_error(buf)?),
        15 => MatchError::Quantum(get_quantum_error(buf)?),
        b => return Err(malformed(format!("bad match-error tag {b:#x}"))),
    })
}

fn get_kind(buf: &mut Buf<'_>) -> Result<JobKind, WireError> {
    match buf.u8()? {
        0 => Ok(JobKind::Promise),
        1 => Ok(JobKind::Identify),
        2 => Ok(JobKind::Quantum),
        3 => Ok(JobKind::Sat),
        4 => Ok(JobKind::Enumerate),
        b => Err(malformed(format!("bad job-kind tag {b:#x}"))),
    }
}

fn get_family(buf: &mut Buf<'_>) -> Result<WitnessFamily, WireError> {
    match buf.u8()? {
        0 => Ok(WitnessFamily::InputNegation),
        1 => Ok(WitnessFamily::OutputNegation),
        2 => Ok(WitnessFamily::BothNegations),
        3 => Ok(WitnessFamily::InputPermutation),
        4 => Ok(WitnessFamily::OutputPermutation),
        b => Err(malformed(format!("bad family tag {b:#x}"))),
    }
}

fn get_job(buf: &mut Buf<'_>) -> Result<JobSpec, WireError> {
    Ok(match buf.u8()? {
        0 => JobSpec::Promise(EngineJob {
            equivalence: get_equivalence(buf)?,
            c1: get_circuit(buf)?,
            c2: get_circuit(buf)?,
            with_inverses: buf.bool()?,
            sat_verify: buf.bool()?,
        }),
        1 => JobSpec::Identify(IdentifyJob {
            c1: get_circuit(buf)?,
            c2: get_circuit(buf)?,
            allow_brute_force: buf.bool()?,
        }),
        2 => JobSpec::QuantumPath(QuantumPathJob {
            equivalence: get_equivalence(buf)?,
            c1: get_circuit(buf)?,
            c2: get_circuit(buf)?,
            algorithm: match buf.u8()? {
                0 => QuantumAlgorithm::SwapTest,
                1 => QuantumAlgorithm::Simon,
                b => return Err(malformed(format!("bad algorithm tag {b:#x}"))),
            },
        }),
        3 => JobSpec::SatEquivalence(SatEquivalenceJob {
            c1: get_circuit(buf)?,
            c2: get_circuit(buf)?,
            witness: if buf.bool()? {
                Some(get_witness(buf)?)
            } else {
                None
            },
        }),
        4 => JobSpec::Enumerate(EnumerateJob {
            c1: get_circuit(buf)?,
            c2: get_circuit(buf)?,
            family: get_family(buf)?,
        }),
        b => return Err(malformed(format!("bad job tag {b:#x}"))),
    })
}

fn get_verdict(buf: &mut Buf<'_>) -> Result<MiterVerdict, WireError> {
    Ok(match buf.u8()? {
        0 => MiterVerdict::Equivalent,
        1 => MiterVerdict::Counterexample { input: buf.u64()? },
        2 => MiterVerdict::Unknown {
            decisions: buf.u64()? as usize,
            conflicts: buf.u64()? as usize,
        },
        b => return Err(malformed(format!("bad verdict tag {b:#x}"))),
    })
}

fn get_report(buf: &mut Buf<'_>) -> Result<JobReport, WireError> {
    let kind = get_kind(buf)?;
    let witness = if buf.bool()? {
        Ok(get_witness(buf)?)
    } else {
        Err(get_match_error(buf)?)
    };
    let queries = buf.u64()?;
    let charged_queries = buf.u64()?;
    let rounds = buf.u64()?;
    let identified = if buf.bool()? {
        Some(get_equivalence(buf)?)
    } else {
        None
    };
    let witness_count = if buf.bool()? { Some(buf.u64()?) } else { None };
    let miter = if buf.bool()? {
        Some(get_verdict(buf)?)
    } else {
        None
    };
    let timing = JobTiming {
        queue_wait_us: buf.u64()?,
        exec_us: buf.u64()?,
        cache_hit: buf.bool()?,
    };
    Ok(JobReport {
        kind,
        witness,
        queries,
        charged_queries,
        rounds,
        identified,
        witness_count,
        miter,
        timing,
    })
}

// ---------------------------------------------------------------------
// Framed transport.
// ---------------------------------------------------------------------

fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Initial capacity of a frame body buffer. Small frames take one
/// allocation; larger ones grow only as their bytes arrive, so a peer
/// that declares a big length and then stalls pins at most this much.
const INITIAL_BODY_CAPACITY: usize = 64 << 10;

/// Reads one length-prefixed payload. `Ok(None)` is a clean EOF at a
/// frame boundary (the peer closed between frames); EOF mid-frame is an
/// error.
fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_bytes = [0u8; 4];
    // Hand-rolled read_exact that distinguishes "no frame at all" from
    // "frame cut short".
    let mut filled = 0;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(malformed("EOF inside frame length prefix")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 {
        return Err(malformed("zero-length frame"));
    }
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len });
    }
    let mut payload = Vec::with_capacity(len.min(INITIAL_BODY_CAPACITY));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside frame body").into());
    }
    Ok(Some(payload))
}

/// Serializes one client frame onto `w` (unbuffered: wrap `w` in a
/// `BufWriter` and flush per frame for interactive use).
pub fn write_client_frame<W: Write>(w: &mut W, frame: &ClientFrame) -> io::Result<()> {
    let mut payload = Vec::new();
    match frame {
        ClientFrame::Submit {
            client_id,
            seed,
            job,
        } => {
            put_u8(&mut payload, OP_SUBMIT);
            put_u64(&mut payload, *client_id);
            match seed {
                Some(s) => {
                    put_bool(&mut payload, true);
                    put_u64(&mut payload, *s);
                }
                None => put_bool(&mut payload, false),
            }
            put_job(&mut payload, job);
        }
        ClientFrame::MetricsRequest => put_u8(&mut payload, OP_METRICS_REQUEST),
    }
    write_frame(w, &payload)
}

/// Reads one client frame from `r`; `Ok(None)` is a clean close.
pub fn read_client_frame<R: Read>(r: &mut R) -> Result<Option<ClientFrame>, WireError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let mut buf = Buf::new(&payload);
    let frame = match buf.u8()? {
        OP_SUBMIT => {
            let client_id = buf.u64()?;
            let seed = if buf.bool()? { Some(buf.u64()?) } else { None };
            let job = get_job(&mut buf)?;
            ClientFrame::Submit {
                client_id,
                seed,
                job,
            }
        }
        OP_METRICS_REQUEST => ClientFrame::MetricsRequest,
        op => return Err(malformed(format!("unknown client opcode {op:#x}"))),
    };
    buf.finish()?;
    Ok(Some(frame))
}

/// Serializes one server frame onto `w`.
pub fn write_server_frame<W: Write>(w: &mut W, frame: &ServerFrame) -> io::Result<()> {
    let mut payload = Vec::new();
    match frame {
        ServerFrame::Report { client_id, report } => {
            put_u8(&mut payload, OP_REPORT);
            put_u64(&mut payload, *client_id);
            put_report(&mut payload, report);
        }
        ServerFrame::MetricsText(text) => {
            put_u8(&mut payload, OP_METRICS_TEXT);
            put_string(&mut payload, text);
        }
    }
    write_frame(w, &payload)
}

/// Reads one server frame from `r`; `Ok(None)` is a clean close.
pub fn read_server_frame<R: Read>(r: &mut R) -> Result<Option<ServerFrame>, WireError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let mut buf = Buf::new(&payload);
    let frame = match buf.u8()? {
        OP_REPORT => ServerFrame::Report {
            client_id: buf.u64()?,
            report: get_report(&mut buf)?,
        },
        OP_METRICS_TEXT => ServerFrame::MetricsText(buf.string()?),
        op => return Err(malformed(format!("unknown server opcode {op:#x}"))),
    };
    buf.finish()?;
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_circuits(width: usize) -> (Circuit, Circuit) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let inst =
            crate::promise::random_instance(Equivalence::new(Side::N, Side::I), width, &mut rng);
        (inst.c1, inst.c2)
    }

    fn sample_jobs() -> Vec<JobSpec> {
        let (c1, c2) = sample_circuits(5);
        let witness = MatchWitness::identity(5);
        vec![
            JobSpec::Promise(EngineJob {
                equivalence: Equivalence::new(Side::N, Side::I),
                c1: c1.clone(),
                c2: c2.clone(),
                with_inverses: true,
                sat_verify: true,
            }),
            JobSpec::Identify(IdentifyJob {
                c1: c1.clone(),
                c2: c2.clone(),
                allow_brute_force: false,
            }),
            JobSpec::QuantumPath(QuantumPathJob {
                equivalence: Equivalence::new(Side::N, Side::I),
                c1: c1.clone(),
                c2: c2.clone(),
                algorithm: QuantumAlgorithm::Simon,
            }),
            JobSpec::SatEquivalence(SatEquivalenceJob {
                c1: c1.clone(),
                c2: c2.clone(),
                witness: Some(witness),
            }),
            JobSpec::Enumerate(EnumerateJob {
                c1,
                c2,
                family: WitnessFamily::InputNegation,
            }),
        ]
    }

    fn round_trip_client(frame: &ClientFrame) -> ClientFrame {
        let mut bytes = Vec::new();
        write_client_frame(&mut bytes, frame).unwrap();
        let mut cursor = bytes.as_slice();
        let decoded = read_client_frame(&mut cursor).unwrap().unwrap();
        assert!(cursor.is_empty(), "frame fully consumed");
        decoded
    }

    fn round_trip_report(report: &JobReport) -> JobReport {
        let mut bytes = Vec::new();
        write_server_frame(
            &mut bytes,
            &ServerFrame::Report {
                client_id: 42,
                report: report.clone(),
            },
        )
        .unwrap();
        let mut cursor = bytes.as_slice();
        match read_server_frame(&mut cursor).unwrap().unwrap() {
            ServerFrame::Report { client_id, report } => {
                assert_eq!(client_id, 42);
                report
            }
            other => panic!("expected a report frame, got {other:?}"),
        }
    }

    #[test]
    fn every_job_kind_round_trips() {
        for job in sample_jobs() {
            let frame = ClientFrame::Submit {
                client_id: 0xDEAD_BEEF,
                seed: Some(17),
                job: job.clone(),
            };
            let ClientFrame::Submit {
                client_id,
                seed,
                job: decoded,
            } = round_trip_client(&frame)
            else {
                panic!("expected a submit frame");
            };
            assert_eq!(client_id, 0xDEAD_BEEF);
            assert_eq!(seed, Some(17));
            assert_eq!(format!("{decoded:?}"), format!("{job:?}"));
        }
    }

    #[test]
    fn reports_round_trip_bit_identically() {
        let base = JobReport {
            kind: JobKind::Promise,
            witness: Ok(MatchWitness::identity(6)),
            queries: 12,
            charged_queries: 10,
            rounds: 3,
            identified: Some(Equivalence::new(Side::N, Side::Np)),
            witness_count: Some(4),
            miter: Some(MiterVerdict::Unknown {
                decisions: 100,
                conflicts: 7,
            }),
            timing: JobTiming {
                queue_wait_us: 55,
                exec_us: 1234,
                cache_hit: true,
            },
        };
        let decoded = round_trip_report(&base);
        assert_eq!(format!("{decoded:?}"), format!("{base:?}"));
        // Every structural error variant survives the wire.
        let errors = vec![
            MatchError::WidthMismatch { left: 3, right: 4 },
            MatchError::InverseRequired,
            MatchError::RandomizedFailure {
                reason: "collision".into(),
            },
            MatchError::Intractable {
                equivalence: "P-P".into(),
            },
            MatchError::PromiseViolated,
            MatchError::BruteForceTooWide { width: 20, max: 6 },
            MatchError::OpenProblem { case: "P-I".into() },
            MatchError::Inconclusive,
            MatchError::EnumerationTooWide { width: 30, max: 12 },
            MatchError::FamilyMismatch,
            MatchError::NoEquivalence,
            MatchError::Parse {
                reason: "bad kind".into(),
            },
            MatchError::WorkerLost,
            MatchError::Overloaded,
            MatchError::Circuit(CircuitError::NotBijective),
            MatchError::Circuit(CircuitError::ParsePattern {
                input: "x1".into(),
                reason: "nope".into(),
            }),
            MatchError::Quantum(QuantumError::TooManyQubits { n: 80, max: 63 }),
        ];
        for err in errors {
            let report = JobReport {
                witness: Err(err.clone()),
                miter: None,
                identified: None,
                witness_count: None,
                ..base.clone()
            };
            let decoded = round_trip_report(&report);
            assert_eq!(decoded.witness, Err(err));
        }
    }

    #[test]
    fn metrics_frames_round_trip() {
        let mut bytes = Vec::new();
        write_client_frame(&mut bytes, &ClientFrame::MetricsRequest).unwrap();
        let mut cursor = bytes.as_slice();
        assert!(matches!(
            read_client_frame(&mut cursor).unwrap().unwrap(),
            ClientFrame::MetricsRequest
        ));
        let text = "revmatch_jobs_submitted_total 5\n".to_string();
        let mut bytes = Vec::new();
        write_server_frame(&mut bytes, &ServerFrame::MetricsText(text.clone())).unwrap();
        let mut cursor = bytes.as_slice();
        match read_server_frame(&mut cursor).unwrap().unwrap() {
            ServerFrame::MetricsText(got) => assert_eq!(got, text),
            other => panic!("expected metrics text, got {other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_an_error() {
        let mut empty: &[u8] = &[];
        assert!(read_client_frame(&mut empty).unwrap().is_none());
        // Truncated length prefix.
        let mut partial: &[u8] = &[1, 0];
        assert!(matches!(
            read_client_frame(&mut partial),
            Err(WireError::Malformed(_))
        ));
        // Oversized length prefix is rejected before allocation.
        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut cursor: &[u8] = &huge;
        assert!(matches!(
            read_client_frame(&mut cursor),
            Err(WireError::FrameTooLarge { .. })
        ));
        // A maximal length prefix followed by EOF is a truncated body.
        let max = (MAX_FRAME_LEN as u32).to_le_bytes();
        let mut cursor: &[u8] = &max;
        assert!(matches!(
            read_client_frame(&mut cursor),
            Err(WireError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
        // Unknown opcode.
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &[0x7F]).unwrap();
        let mut cursor = bytes.as_slice();
        assert!(matches!(
            read_client_frame(&mut cursor),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage after a valid body.
        let mut payload = vec![OP_METRICS_REQUEST, 0xFF];
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &payload).unwrap();
        payload.clear();
        let mut cursor = bytes.as_slice();
        assert!(matches!(
            read_client_frame(&mut cursor),
            Err(WireError::Malformed(_))
        ));
    }
}
