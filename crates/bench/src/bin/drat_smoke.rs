//! `drat_smoke` — end-to-end checked-UNSAT miter smoke for CI.
//!
//! Builds a planted-equivalent circuit pair, folds the planted witness
//! into a miter (UNSAT by construction: the miter asks for an input
//! where the matched circuits *differ*), solves it with DRAT proof
//! logging on, verifies the proof with the in-tree checker, and writes
//! `miter.cnf` / `miter.drat` to the output directory so the
//! `dratcheck` binary (or any external DRAT checker) can re-verify the
//! exact same artifacts. Exits non-zero on any mismatch: a SAT verdict,
//! a missing proof, or a rejected refutation.
//!
//! ```text
//! drat_smoke [--width N] [--seed N] [--out DIR]
//! ```

use std::process::ExitCode;

use rand::SeedableRng;
use revmatch::{random_instance, Equivalence, MiterEncoding, Side};
use revmatch_bench::Flags;
use revmatch_sat::{check_drat_unsat, CdclSolver, Solve};

const USAGE: &str = "usage: drat_smoke [--width N] [--seed N] [--out DIR]";
const KNOWN_FLAGS: [&str; 3] = ["width", "seed", "out"];

fn main() -> ExitCode {
    let flags = Flags::parse(&KNOWN_FLAGS, USAGE);
    let width = flags.get_u64("width", 8) as usize;
    let seed = flags.get_u64("seed", 0xD8A7);
    let out_dir = flags.get_str("out", ".");

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let inst = random_instance(Equivalence::new(Side::Np, Side::I), width, &mut rng);
    let miter = MiterEncoding::build(&inst.c1, &inst.c2, &inst.witness)
        .expect("planted circuits share a width");

    let mut solver = CdclSolver::new(&miter.cnf)
        .with_proof()
        .with_branch_hint(miter.input_hint());
    let verdict = solver.solve();
    if verdict != Solve::Unsat {
        eprintln!("drat_smoke: planted miter must be UNSAT, got {verdict:?}");
        return ExitCode::FAILURE;
    }
    let Some(proof) = solver.proof_drat() else {
        eprintln!("drat_smoke: proof recording was requested but no proof was kept");
        return ExitCode::FAILURE;
    };
    let report = match check_drat_unsat(&miter.cnf, &proof) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("drat_smoke: in-tree checker rejected the proof: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cnf_path = format!("{out_dir}/miter.cnf");
    let drat_path = format!("{out_dir}/miter.drat");
    if let Err(e) = std::fs::write(&cnf_path, miter.cnf.to_dimacs()) {
        eprintln!("drat_smoke: cannot write {cnf_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&drat_path, &proof) {
        eprintln!("drat_smoke: cannot write {drat_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "drat_smoke: width-{width} miter UNSAT, proof verified \
         ({} additions, {} deletions, {} conflicts) -> {cnf_path} {drat_path}",
        report.additions,
        report.deletions,
        solver.conflicts(),
    );
    ExitCode::SUCCESS
}
