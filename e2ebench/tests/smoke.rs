//! A smoke-sized pass of each workload, untraced and traced, passes the
//! benchmark's correctness check against the stored smoke references.

use finrad_e2ebench::check::{check_pass, Expectation, Reference, REFERENCE};
use finrad_e2ebench::measure::unaccounted_seconds;
use finrad_e2ebench::workload::{run_pass, Plan, Scale, Workload};

#[test]
fn smoke_passes_meet_the_correctness_check() {
    let reference = Reference::parse(REFERENCE).expect("reference.txt parses");
    for workload in Workload::ALL {
        let untraced = run_pass(&Plan::set_up(workload, 0, Scale::Smoke), false);
        let traced = run_pass(&Plan::set_up(workload, 0, Scale::Smoke), true);
        for (pass, first) in [(&untraced, None), (&traced, Some(untraced.ops.as_slice()))] {
            let verdict = check_pass(
                &pass.ops,
                &Expectation {
                    workload,
                    scale: Scale::Smoke,
                    variant: 0,
                    reference: &reference,
                    first,
                },
            );
            assert!(
                verdict.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                verdict.failures
            );
        }
        assert!(untraced.spans.is_empty());
        assert!(!traced.spans.is_empty());
        let gap = unaccounted_seconds(traced.wall_s, &traced.spans);
        assert!(
            (0.0..traced.wall_s).contains(&gap),
            "{}: stage spans must lie within the traced pass",
            workload.name()
        );
    }
}
