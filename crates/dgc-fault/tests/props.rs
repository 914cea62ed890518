//! Property tests for the executor's recovery: seed-for-seed
//! determinism. (Its empty-plan bit-identity with the drivers it
//! replaced is pinned by `results/driver_oracle.jsonl`; see `oracle.rs`.)

mod common;

use common::*;
use dgc_fault::{run_ensemble_sharded_resilient_mem_aware, FaultPlan, RecoveryPolicy};
use dgc_obs::Recorder;
use dgc_sched::Placement;
use proptest::prelude::*;

fn lines() -> Vec<Vec<String>> {
    dgc_core::parse_arg_file("-n 60\n-n 120\n-n 40\n").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed, same plan ⇒ identical retry schedule, outcomes, and
    /// metrics — recovery is replayable.
    #[test]
    fn scattered_faults_recover_deterministically(seed in any::<u64>(), batch in 0u32..4) {
        let plan = FaultPlan::scatter_traps(seed, 6, 2);
        prop_assert_eq!(plan.faults.len(), 2);
        let run = || {
            let mut fleet = one_a100();
            run_ensemble_sharded_resilient_mem_aware(&mut fleet, &app(), &lines(), &opts(6), batch, Placement::RoundRobin, &plan, &RecoveryPolicy::default(), &mut Recorder::disabled(), false)
            .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.ensemble.instances, &b.ensemble.instances);
        prop_assert_eq!(&a.ensemble.metrics, &b.ensemble.metrics);
        prop_assert_eq!(a.ensemble.kernel_time_s, b.ensemble.kernel_time_s);
        prop_assert_eq!(a.ensemble.total_time_s, b.ensemble.total_time_s);
        prop_assert_eq!(&a.recovery, &b.recovery);
        // Both scattered first-attempt traps recover on the retry.
        prop_assert!(a.all_succeeded());
        prop_assert_eq!(a.recovery.recovered, 2);
        prop_assert_eq!(a.recovery.retried, 2);
    }
}
