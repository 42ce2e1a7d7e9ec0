//! Conformance driver binary.
//!
//! Modes:
//!
//! * `conformance_check` — random differential sweep: sample layer specs,
//!   run every engine path against the scalar oracle (the planned integer
//!   paths once more per kernel body the CPU supports, named in the
//!   output), and on failure print a minimized reproducer. `--cases N` controls the sample count
//!   (default 32), `--seed S` the sampling stream.
//! * `conformance_check --verify-fixtures` — recompute the committed
//!   goldens under `tests/fixtures/` and fail on any drift (the CI gate).
//! * `conformance_check --regen` — rewrite the committed goldens from the
//!   current oracle. Only do this when an output change is intended.

use std::process::ExitCode;

use odq_conformance::fixtures::{fixtures_dir, regenerate_into, verify_against};
use odq_conformance::{minimize, run_layer_diff, LayerSpecStrategy};
use odq_tensor::gemm::Kernel;
use proptest::prelude::{Strategy, TestRng};

fn usage() -> ExitCode {
    eprintln!("usage: conformance_check [--regen | --verify-fixtures] [--cases N] [--seed S]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut regen = false;
    let mut verify = false;
    let mut cases: usize = 32;
    let mut seed: u64 = 0x0D9_C0DE;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--regen" => regen = true,
            "--verify-fixtures" => verify = true,
            "--cases" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cases = n,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let dir = fixtures_dir();
    if regen {
        match regenerate_into(&dir) {
            Ok(paths) => {
                for p in paths {
                    println!("wrote {}", p.display());
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("fixture regeneration failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if verify {
        return match verify_against(&dir) {
            Ok(()) => {
                println!("fixtures clean ({})", dir.display());
                ExitCode::SUCCESS
            }
            Err(drift) => {
                eprintln!("fixture drift detected:");
                for d in drift {
                    eprintln!("  {d}");
                }
                eprintln!(
                    "if the change is intentional, run `conformance_check --regen` and \
                     commit the updated fixtures with an explanation"
                );
                ExitCode::FAILURE
            }
        };
    }

    // Default mode: random differential sweep. The planned static, ODQ
    // and DRQ paths also run once per kernel body this CPU supports.
    let bodies: Vec<&str> = Kernel::supported().into_iter().map(Kernel::name).collect();
    println!("kernel bodies: {} (drivers run {})", bodies.join(", "), Kernel::detected().name());
    let mut rng = TestRng::new(seed);
    let strategy = LayerSpecStrategy::default();
    let mut failed = 0usize;
    for i in 0..cases {
        let spec = strategy.sample(&mut rng);
        let report = run_layer_diff(&spec);
        if report.ok() {
            println!("case {i:>3}: ok    {spec:?}");
        } else {
            failed += 1;
            println!("case {i:>3}: FAIL  {spec:?}");
            let min = minimize(&spec);
            let min_report = run_layer_diff(&min);
            println!("--- minimized reproducer ---");
            println!("{}", min_report.render());
        }
    }
    if failed == 0 {
        println!("{cases} cases, all engine paths conformant");
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed}/{cases} cases diverged from the scalar oracle");
        ExitCode::FAILURE
    }
}
