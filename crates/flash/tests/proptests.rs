//! Property-based tests for the flash model: calibration monotonicity and
//! the error model's plateau structure.

use proptest::prelude::*;
use rr_flash::calibration::{Calibration, OperatingCondition, Reductions, ECC_CAPABILITY_PER_KIB};
use rr_flash::error_model::{reductions_of, ErrorModel, PageId};
use rr_flash::timing::SensePhases;

proptest! {
    #[test]
    fn m_err_monotone_in_all_three_axes(
        pec in 0f64..1900.0,
        months in 0f64..11.0,
        temp in 31.0f64..85.0,
    ) {
        let cal = Calibration::asplos21();
        let here = cal.m_err(OperatingCondition::new(pec, months, temp));
        let more_pec = cal.m_err(OperatingCondition::new(pec + 100.0, months, temp));
        let more_ret = cal.m_err(OperatingCondition::new(pec, months + 1.0, temp));
        let colder = cal.m_err(OperatingCondition::new(pec, months, temp - 1.0));
        prop_assert!(more_pec >= here);
        prop_assert!(more_ret >= here);
        prop_assert!(colder >= here);
    }

    #[test]
    fn delta_m_err_superadditive_in_pre_disch(
        pec in 0f64..2000.0,
        months in 0f64..12.0,
        pre in 0.01f64..0.5,
        disch in 0.01f64..0.35,
    ) {
        let cal = Calibration::asplos21();
        let cond = OperatingCondition::new(pec, months, 85.0);
        let joint = cal.delta_m_err(cond, pre, 0.0, disch);
        let separate =
            cal.delta_m_err(cond, pre, 0.0, 0.0) + cal.delta_m_err(cond, 0.0, 0.0, disch);
        prop_assert!(joint >= separate - 1e-9, "joint {joint} < sum {separate}");
    }

    #[test]
    fn required_steps_within_table_and_plateau_holds(
        block in any::<u64>(),
        page in 0u32..1152,
        pec in prop::sample::select(vec![0.0, 500.0, 1000.0, 1500.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 1.0, 3.0, 6.0, 9.0, 12.0]),
    ) {
        let model = ErrorModel::new(77);
        let cond = OperatingCondition::new(pec, months, 30.0);
        let id = PageId::new(block, page);
        let n = model.required_step_index(id, cond);
        prop_assert!(n <= 40, "steps within the retry table");
        let default = SensePhases::table1();
        // All steps strictly before N fail; N succeeds.
        if n > 0 {
            prop_assert!(!model.read_succeeds(id, cond, n - 1, &default));
        }
        prop_assert!(model.read_succeeds(id, cond, n, &default));
    }

    #[test]
    fn resolved_read_inputs_match_errors_at_step(
        seed in any::<u64>(),
        block in any::<u64>(),
        page in 0u32..1152,
        pec in prop::sample::select(vec![0.0, 500.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![3.0, 6.0, 12.0]),
        cold in any::<bool>(),
        fresh in (any::<bool>(), 0f64..15.0, 0f64..0.012),
        temp in 30f64..=85.0,
        outliers in any::<bool>(),
        rpt_pre in 0.40f64..0.54,
        reduction in (0f64..0.6, 0f64..0.3, 0f64..0.4),
    ) {
        // A simulated read resolves its condition once per run and its page
        // once per read, then senses many steps under whatever phases its
        // die holds; every part must equal the one-shot definitions. Fresh
        // data has zero retention age; a barely used, barely aged block has
        // a mean retry count at or below the 0.05 cut-off.
        let model = ErrorModel::new(seed).with_outlier_rate(if outliers { 1.0 } else { 0.0 });
        let (fresh, fresh_pec, fresh_months) = fresh;
        let cond = if fresh {
            OperatingCondition::new(fresh_pec, fresh_months, temp)
        } else {
            OperatingCondition::new(pec, if cold { months } else { 0.0 }, temp)
        };
        if fresh {
            prop_assert!(model.calibration().mean_retry_steps(cond) <= 0.05);
        }
        let id = PageId::new(block, page);
        let inputs = model.read_inputs(id, &model.condition_inputs(cond));
        prop_assert_eq!(inputs.profile.required_step, model.required_step_index(id, cond));
        prop_assert_eq!(inputs.profile.final_errors, model.final_step_errors(id, cond));
        prop_assert_eq!(inputs.profile.outlier, model.is_outlier(id));
        prop_assert_eq!(inputs.profile.outlier, outliers);
        prop_assert_eq!(inputs.profile, model.page_profile(id, cond));
        let table1 = SensePhases::table1();
        let (pre, eval, disch) = reduction;
        let phases = [
            table1,
            table1.with_reduction(rpt_pre, 0.0, 0.0),
            table1.with_reduction(pre, eval, disch),
        ];
        for step in 0..=model.retry_table().max_steps() {
            for ph in &phases {
                prop_assert_eq!(
                    model.sense_errors(&inputs, step, &reductions_of(ph)),
                    model.errors_at_step(id, cond, step, ph),
                    "step {}, phases {:?}", step, ph
                );
            }
        }
    }

    #[test]
    fn read_inputs_from_a_supplied_variation_match_the_direct_draw(
        seed in any::<u64>(),
        block in any::<u64>(),
        page in 0u32..1152,
        pec in prop::sample::select(vec![0.0, 500.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 3.0, 6.0, 12.0]),
        fresh in (any::<bool>(), 0f64..15.0, 0f64..0.012),
        temp in 30f64..=85.0,
        outliers in any::<bool>(),
    ) {
        // The simulator draws a page's variation once per seed and geometry
        // and supplies it to every later read of the page, under any
        // condition and outlier rate: the inputs must be the direct ones,
        // bit for bit, and a condition that needs no variation (a mean
        // retry count at or below 0.05) must not ask for it.
        let model = ErrorModel::new(seed).with_outlier_rate(if outliers { 1.0 } else { 0.0 });
        let (fresh, fresh_pec, fresh_months) = fresh;
        let cond = if fresh {
            OperatingCondition::new(fresh_pec, fresh_months, temp)
        } else {
            OperatingCondition::new(pec, months, temp)
        };
        let id = PageId::new(block, page);
        let drawer = ErrorModel::new(seed);
        let z = drawer.page_variation(id, drawer.block_variation(block));
        prop_assert!((-2.0..=2.0).contains(&z));
        let cond_inputs = model.condition_inputs(cond);
        let asked = std::cell::Cell::new(false);
        let supplied = model.read_inputs_with(id, &cond_inputs, || {
            asked.set(true);
            z
        });
        prop_assert_eq!(supplied, model.read_inputs(id, &cond_inputs));
        let needs_variation = model.calibration().mean_retry_steps(cond) > 0.05;
        prop_assert_eq!(asked.get(), needs_variation);
        if fresh {
            prop_assert!(!needs_variation);
        }
    }

    #[test]
    fn decodes_matches_the_error_count(
        seed in any::<u64>(),
        block in any::<u64>(),
        page in 0u32..1152,
        pec in prop::sample::select(vec![0.0, 500.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 3.0, 6.0, 12.0]),
        temp in 30.0f64..85.0,
        outliers in any::<bool>(),
        rpt_pre in 0.40f64..0.54,
        reduction in (0f64..0.9, 0f64..0.9, 0f64..0.9),
    ) {
        // A simulated sense asks only for the verdict; it must be the error
        // count's verdict at every step, including outlier pages and
        // reductions past the hard-fail bounds.
        let model = ErrorModel::new(seed).with_outlier_rate(if outliers { 1.0 } else { 0.0 });
        let cond = OperatingCondition::new(pec, months, temp);
        let inputs = model.read_inputs(PageId::new(block, page), &model.condition_inputs(cond));
        let (pre, eval, disch) = reduction;
        let fixed = [
            Reductions::new(0.0, 0.0, 0.0),
            Reductions::new(rpt_pre, 0.0, 0.0),
            Reductions::new(pre, eval, disch),
        ];
        let every_step = (0..=model.retry_table().max_steps())
            .flat_map(|step| fixed.iter().map(move |r| (step, *r)));
        // The plateau under tPRE cuts fine enough for the count to land on
        // the capability itself.
        let n = inputs.profile.required_step;
        let boundary = (0..120).flat_map(|k| {
            let r = Reductions::new(k as f64 * 0.005, 0.0, 0.0);
            (n..=n + 3).map(move |step| (step, r))
        });
        for (step, r) in every_step.chain(boundary) {
            prop_assert_eq!(
                model.decodes(&inputs, step, &r),
                model.sense_errors(&inputs, step, &r) <= ECC_CAPABILITY_PER_KIB,
                "step {}, reductions {:?}", step, r
            );
        }
    }

    #[test]
    fn rpt_style_reduction_never_breaks_final_step(
        block in any::<u64>(),
        page in 0u32..1152,
        pec in prop::sample::select(vec![0.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 3.0, 6.0, 12.0]),
        temp in prop::sample::select(vec![30.0, 55.0, 85.0]),
    ) {
        // 40 % is the Fig. 11 worst-case-safe reduction; it must hold for
        // every page at every condition (that is the whole AR² contract).
        let model = ErrorModel::new(99);
        let cond = OperatingCondition::new(pec, months, temp);
        let id = PageId::new(block, page);
        let n = model.required_step_index(id, cond);
        let reduced = SensePhases::table1().with_reduction(0.40, 0.0, 0.0);
        prop_assert!(model.read_succeeds(id, cond, n, &reduced));
    }

    #[test]
    fn final_errors_never_exceed_capability_at_default_timing(
        block in any::<u64>(),
        page in 0u32..1152,
        pec in 0f64..2000.0,
        months in 0f64..12.0,
        temp in prop::sample::select(vec![30.0, 55.0, 85.0]),
    ) {
        // The invariant behind "read-retry eventually succeeds": every page's
        // final-step error count fits the ECC capability with default timing.
        let model = ErrorModel::new(123);
        let cond = OperatingCondition::new(pec, months, temp);
        let e = model.final_step_errors(PageId::new(block, page), cond);
        prop_assert!(e <= ECC_CAPABILITY_PER_KIB);
    }
}
