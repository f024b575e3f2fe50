//! Table 2: passing rates on the multicore exam questions.
//!
//! The paper reports, for the multicore questions: midterm 17% passing
//! among all students and 33% among students who finished the course with
//! C or better; final exam 22% and 80% respectively — "both passing rates
//! indicated improvements from the students along the progress of the
//! course" (§III.C). The model: exam performance follows the same IRT
//! scheme, with a learning gain added before the final; the course grade
//! (C-or-up) is driven by lab performance plus exams, which induces the
//! strong final-exam/course-pass correlation the paper shows.

use crate::cohort::{Cohort, StudentOutcome};
use crate::stats::calibrate_difficulty;
use rng::SplitMix64;

/// Calibration targets from the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExamTargets {
    /// Midterm passing rate among all students.
    pub midterm_all: f64,
    /// Final passing rate among all students.
    pub final_all: f64,
}

impl Default for ExamTargets {
    fn default() -> Self {
        ExamTargets {
            midterm_all: 0.17,
            final_all: 0.22,
        }
    }
}

/// Simulated exam outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct ExamResults {
    /// Per-student midterm multicore-question pass.
    pub midterm: Vec<bool>,
    /// Per-student final multicore-question pass.
    pub final_exam: Vec<bool>,
    /// Per-student course pass (C or up).
    pub course_pass: Vec<bool>,
}

impl ExamResults {
    /// Passing rate 1 (all students) for the midterm.
    pub fn midterm_rate_all(&self) -> f64 {
        rate(&self.midterm)
    }

    /// Passing rate 1 (all students) for the final.
    pub(crate) fn final_rate_all(&self) -> f64 {
        rate(&self.final_exam)
    }

    /// Passing rate 2 (among course passers) for the midterm.
    pub(crate) fn midterm_rate_passers(&self) -> f64 {
        rate_among(&self.midterm, &self.course_pass)
    }

    /// Passing rate 2 (among course passers) for the final.
    pub fn final_rate_passers(&self) -> f64 {
        rate_among(&self.final_exam, &self.course_pass)
    }
}

fn rate(xs: &[bool]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|x| **x).count() as f64 / xs.len() as f64
}

fn rate_among(xs: &[bool], among: &[bool]) -> f64 {
    let picked: Vec<bool> = xs
        .iter()
        .zip(among)
        .filter(|(_, a)| **a)
        .map(|(x, _)| *x)
        .collect();
    rate(&picked)
}

/// The exam simulator.
///
/// Note the arithmetic the paper's Table 2 implies: 22% of 19 students is
/// ~4 final-question passes, and if 80% of course passers passed that
/// question, the course-passing group must be ~5 students (~28% of the
/// class) — so the C-or-up cut sits near the 70th percentile, and the
/// final exam must discriminate sharply (top students pass, others do
/// not). `final_discrimination` is that IRT slope.
#[derive(Debug)]
pub struct ExamModel {
    targets: ExamTargets,
    /// Ability gained between midterm and final — the "improvement along
    /// the progress of the course". Applied more strongly to students who
    /// engage with the labs (pass count), which is what concentrates final-
    /// exam passes among course passers.
    pub learning_gain: f64,
    /// IRT discrimination (slope) of the final's multicore questions.
    pub final_discrimination: f64,
}

impl Default for ExamModel {
    fn default() -> Self {
        ExamModel {
            targets: ExamTargets::default(),
            learning_gain: 1.2,
            final_discrimination: 3.0,
        }
    }
}

impl ExamModel {
    /// A model with explicit targets.
    pub fn new(targets: ExamTargets, learning_gain: f64) -> ExamModel {
        ExamModel {
            targets,
            learning_gain,
            final_discrimination: 3.0,
        }
    }

    /// Simulate both exams and course outcomes for a cohort whose lab
    /// results are `outcomes`.
    pub fn run(&self, cohort: &Cohort, outcomes: &[StudentOutcome], seed: u64) -> ExamResults {
        let mut rng = SplitMix64::seed_from_u64(seed.wrapping_add(0xe4a6));
        let abilities = cohort.abilities();
        let n = abilities.len();
        // Engagement: fraction of labs passed, in [0, 1].
        let engagement: Vec<f64> = outcomes
            .iter()
            .map(|o| {
                o.lab_passed.iter().filter(|p| **p).count() as f64
                    / o.lab_passed.len().max(1) as f64
            })
            .collect();
        // Midterm: raw abilities against a difficulty hit hitting 17%.
        let d_mid = calibrate_difficulty(abilities, self.targets.midterm_all);
        let midterm: Vec<bool> = abilities
            .iter()
            .map(|a| rng.gen_bool(crate::stats::sigmoid(a - d_mid).clamp(0.0, 1.0)))
            .collect();
        // Final: ability plus engagement-weighted learning gain, with a
        // steep discrimination slope, calibrated (on the scaled boosted
        // abilities) to 22%.
        let k = self.final_discrimination.max(0.1);
        let boosted: Vec<f64> = abilities
            .iter()
            .zip(&engagement)
            .map(|(a, e)| k * (a + self.learning_gain * e))
            .collect();
        let d_fin = calibrate_difficulty(&boosted, self.targets.final_all);
        let final_exam: Vec<bool> = boosted
            .iter()
            .map(|a| rng.gen_bool(crate::stats::sigmoid(a - d_fin).clamp(0.0, 1.0)))
            .collect();
        // Course grade: labs 50%, exams 50% (final weighted heavier). The
        // C-or-up cut sits at the ~70th percentile — see the struct docs
        // for why Table 2's numbers force a small passing group.
        let course_score: Vec<f64> = (0..n)
            .map(|i| {
                0.5 * engagement[i]
                    + 0.2 * (midterm[i] as u8 as f64)
                    + 0.3 * (final_exam[i] as u8 as f64)
            })
            .collect();
        let mut sorted = course_score.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let cut = sorted[(n * 7) / 10];
        let course_pass: Vec<bool> = course_score.iter().map(|s| *s >= cut).collect();
        ExamResults {
            midterm,
            final_exam,
            course_pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_results(reps: u64) -> (f64, f64, f64, f64) {
        let mut sums = (0.0, 0.0, 0.0, 0.0);
        for seed in 0..reps {
            let cohort = Cohort::new(seed);
            let outcomes = cohort.run_labs();
            let r = ExamModel::default().run(&cohort, &outcomes, seed);
            sums.0 += r.midterm_rate_all();
            sums.1 += r.final_rate_all();
            sums.2 += r.midterm_rate_passers();
            sums.3 += r.final_rate_passers();
        }
        (
            sums.0 / reps as f64,
            sums.1 / reps as f64,
            sums.2 / reps as f64,
            sums.3 / reps as f64,
        )
    }

    #[test]
    fn all_student_rates_match_calibration() {
        let (mid_all, fin_all, _, _) = mean_results(8);
        assert!((mid_all - 0.17).abs() < 0.10, "midterm {mid_all}");
        assert!((fin_all - 0.22).abs() < 0.10, "final {fin_all}");
    }

    #[test]
    fn passer_rates_exceed_all_rates() {
        // The paper's key qualitative shape: among course passers the rates
        // are much higher, and the final shows the larger jump (33% -> 80%).
        let (mid_all, fin_all, mid_pass, fin_pass) = mean_results(8);
        assert!(mid_pass > mid_all, "midterm {mid_pass} !> {mid_all}");
        assert!(fin_pass > fin_all, "final {fin_pass} !> {fin_all}");
        assert!(
            fin_pass - fin_all > mid_pass - mid_all,
            "final gap ({fin_pass}-{fin_all}) should exceed midterm gap ({mid_pass}-{mid_all})"
        );
        assert!(
            fin_pass > 0.5,
            "final-among-passers {fin_pass} too low (paper: 0.80)"
        );
    }

    #[test]
    fn results_deterministic_per_seed() {
        let cohort = Cohort::new(3);
        let outcomes = cohort.run_labs();
        let a = ExamModel::default().run(&cohort, &outcomes, 9);
        let b = ExamModel::default().run(&cohort, &outcomes, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn rate_helpers() {
        let r = ExamResults {
            midterm: vec![true, false, false, false],
            final_exam: vec![true, true, false, false],
            course_pass: vec![true, true, false, false],
        };
        assert_eq!(r.midterm_rate_all(), 0.25);
        assert_eq!(r.final_rate_all(), 0.5);
        assert_eq!(r.midterm_rate_passers(), 0.5);
        assert_eq!(r.final_rate_passers(), 1.0);
    }
}
