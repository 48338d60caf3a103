//! Property tests for corruption tolerance: the `.tlt` reader never
//! panics on mangled bytes, and `Dataset::sanitize` always yields a
//! data set that passes full validation, idempotently — no matter what
//! the fault injector did to the input.

use proptest::prelude::*;
use tracelens::model::textio::ReadError;
use tracelens::prelude::*;

fn small_dataset(seed: u64) -> Dataset {
    DatasetBuilder::new(seed)
        .traces(6)
        .mix(ScenarioMix::Selected)
        .build()
}

fn bytes(ds: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    ds.write_text(&mut buf).expect("serialize");
    buf
}

proptest! {
    /// Reading a byte-mutated valid `.tlt` file must return `Ok` or a
    /// structured error — never panic. A parse error must name a
    /// plausible 1-based line number.
    #[test]
    fn byte_mutated_tlt_never_panics(
        seed in 0u64..4,
        mutations in proptest::collection::vec((0usize..1_000_000, 0u8..=255u8), 1..8)
    ) {
        let mut buf = bytes(&small_dataset(seed));
        let len = buf.len();
        prop_assert!(len > 0);
        for &(pos, byte) in &mutations {
            buf[pos % len] = byte;
        }
        let line_count = buf.iter().filter(|&&b| b == b'\n').count() + 1;
        match Dataset::read_text(&buf[..]) {
            Ok(_) => {}
            Err(ReadError::Parse { line, message }) => {
                prop_assert!(line >= 1, "line numbers are 1-based");
                prop_assert!(
                    line <= line_count,
                    "line {line} out of range (file has {line_count} lines)"
                );
                prop_assert!(!message.is_empty());
            }
            Err(ReadError::Io(_)) => {} // e.g. invalid UTF-8 from the mutation
        }
    }

    /// Whatever structural damage the fault injector causes, sanitize
    /// repairs or quarantines it: the output always passes validation,
    /// and sanitizing twice changes nothing.
    #[test]
    fn sanitize_output_always_validates(
        seed in 0u64..4,
        fault_seed in 0u64..1000,
        rate_milli in 0u64..150
    ) {
        let ds = small_dataset(seed);
        let (corrupt, _) = FaultInjector::new(fault_seed)
            .with_all(rate_milli as f64 / 1000.0)
            .inject(&ds);
        let (clean, report) = corrupt.sanitize();
        prop_assert!(clean.validate().is_ok(), "sanitize output must validate");
        prop_assert!(report.quarantined_instances <= report.input_instances);
        prop_assert!(report.quarantined_traces <= report.input_traces);

        let (again, second) = clean.clone().sanitize();
        prop_assert!(second.is_clean(), "sanitize must be idempotent: {second}");
        prop_assert_eq!(bytes(&again), bytes(&clean));
    }

    /// A mutated file that still *parses* feeds the sanitize → analyze
    /// path without panicking: the end of the "hostile bytes in, bounded
    /// answers out" contract.
    #[test]
    fn parsed_mutants_analyze_after_sanitize(
        seed in 0u64..3,
        mutations in proptest::collection::vec((0usize..1_000_000, b'0'..=b'9'), 1..5)
    ) {
        let mut buf = bytes(&small_dataset(seed));
        let len = buf.len();
        for &(pos, byte) in &mutations {
            buf[pos % len] = byte;
        }
        if let Ok(ds) = Dataset::read_text(&buf[..]) {
            let (clean, _) = ds.sanitize();
            prop_assert!(clean.validate().is_ok());
            let report = ImpactAnalyzer::new(ComponentFilter::suffix(".sys")).analyze(&clean);
            prop_assert!(report.ia_wait().is_finite());
        }
    }
}
