//! The simulated class: 19 students, IRT pass model, real autograded
//! submissions.

use crate::stats::{calibrate_difficulty, normal, sigmoid};
use labs::{grade, LabId};
use rng::SplitMix64;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The autograder is deterministic and the cohort hands in one of a fixed
/// set of canonical submissions per (lab, reached-solution) pair, so grade
/// each distinct program once per process and reuse the verdict.
fn graded(lab: LabId, solved: bool) -> (bool, u32) {
    type VerdictCache = Mutex<HashMap<(LabId, bool), (bool, u32)>>;
    static CACHE: OnceLock<VerdictCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("cache lock").get(&(lab, solved)) {
        return *hit;
    }
    let submission = submission_for(lab, solved);
    let report = grade(lab, &submission);
    let verdict = (report.passed, report.score);
    cache
        .lock()
        .expect("cache lock")
        .insert((lab, solved), verdict);
    verdict
}

/// Class size from the paper: "The size of the class was 19" (§III.C).
pub(crate) const CLASS_SIZE: usize = 19;

/// One student's lab outcomes.
#[derive(Debug, Clone)]
pub struct StudentOutcome {
    /// Student index (0-based).
    pub student: usize,
    /// Latent ability.
    pub ability: f64,
    /// Lab-by-lab: did the autograder pass their submission?
    pub lab_passed: Vec<bool>,
    /// Autograder scores per lab (0-100).
    pub lab_scores: Vec<u32>,
}

/// The cohort simulation.
#[derive(Debug)]
pub struct Cohort {
    abilities: Vec<f64>,
    seed: u64,
}

impl Cohort {
    /// Draw `CLASS_SIZE` students deterministically from `seed`.
    pub fn new(seed: u64) -> Cohort {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let abilities = (0..CLASS_SIZE).map(|_| normal(&mut rng)).collect();
        Cohort { abilities, seed }
    }

    /// The students' latent abilities.
    pub(crate) fn abilities(&self) -> &[f64] {
        &self.abilities
    }

    /// Class size.
    pub fn len(&self) -> usize {
        self.abilities.len()
    }

    /// Never empty in practice.
    pub fn is_empty(&self) -> bool {
        self.abilities.is_empty()
    }

    /// Simulate the term's seven labs end to end: the IRT model decides
    /// which students *reach* a working solution for each lab; the
    /// corresponding reference or buggy source is then run through the real
    /// autograder, whose verdict is what counts.
    ///
    /// "Reaches a solution" uses systematic (low-variance) sampling per
    /// lab rather than an independent coin per student: one uniform offset
    /// walks the cumulative pass probabilities, so each student's
    /// inclusion chance is still exactly `sigmoid(ability - difficulty)`
    /// but the realized solver count is always within one student of the
    /// calibrated expectation. That keeps a single 19-student cohort's
    /// Table 1 reproduction inside binomial-noise bounds on every seed
    /// (independent Bernoulli draws could drift 4+ students), while the
    /// per-lab offsets keep genuine seed-to-seed spread.
    pub fn run_labs(&self) -> Vec<StudentOutcome> {
        let mut rng = SplitMix64::seed_from_u64(self.seed.wrapping_add(0x1ab5));
        let difficulties: Vec<f64> = LabId::ALL
            .iter()
            .map(|lab| calibrate_difficulty(&self.abilities, lab.paper_passing_rate()))
            .collect();
        let mut reaches = vec![vec![false; LabId::ALL.len()]; self.len()];
        for li in 0..LabId::ALL.len() {
            let mut next: f64 = rng.gen_range(0.0..1.0);
            let mut cum = 0.0;
            for (i, &a) in self.abilities.iter().enumerate() {
                // p < 1, so each student crosses at most one threshold.
                cum += sigmoid(a - difficulties[li]);
                if cum > next {
                    reaches[i][li] = true;
                    next += 1.0;
                }
            }
        }
        let mut outcomes = Vec::with_capacity(self.len());
        for (i, &a) in self.abilities.iter().enumerate() {
            let mut lab_passed = Vec::with_capacity(LabId::ALL.len());
            let mut lab_scores = Vec::with_capacity(LabId::ALL.len());
            for (li, lab) in LabId::ALL.iter().enumerate() {
                let (passed, score) = graded(*lab, reaches[i][li]);
                lab_passed.push(passed);
                lab_scores.push(score);
            }
            outcomes.push(StudentOutcome {
                student: i,
                ability: a,
                lab_passed,
                lab_scores,
            });
        }
        outcomes
    }

    /// Passing rate per lab from simulated outcomes, in [`LabId::ALL`] order.
    pub(crate) fn lab_passing_rates(outcomes: &[StudentOutcome]) -> Vec<f64> {
        let n = outcomes.len().max(1) as f64;
        (0..LabId::ALL.len())
            .map(|li| outcomes.iter().filter(|o| o.lab_passed[li]).count() as f64 / n)
            .collect()
    }
}

/// What a student who did / did not reach a working solution hands in.
fn submission_for(lab: LabId, solved: bool) -> String {
    use labs::{
        lab1_sync, lab2_spinlock, lab4_procthread, lab5_bank, lab6_philosophers, lab7_boundedbuffer,
    };
    match (lab, solved) {
        (LabId::Sync, true) => lab1_sync::FIXED_SOURCE.to_string(),
        (LabId::Sync, false) => lab1_sync::BUGGY_SOURCE.to_string(),
        (LabId::SpinLock, true) => lab2_spinlock::TTAS_SOURCE.to_string(),
        // A student who never got the lock working: no mutual exclusion.
        (LabId::SpinLock, false) => lab1_sync::BUGGY_SOURCE.to_string(),
        (LabId::Numa, true) => NUMA_SOLVED.to_string(),
        (LabId::Numa, false) => NUMA_UNSOLVED.to_string(),
        (LabId::ProcThread, true) => lab4_procthread::SOURCE.to_string(),
        (LabId::ProcThread, false) => PROCTHREAD_UNSOLVED.to_string(),
        (LabId::Bank, true) => lab5_bank::source(lab5_bank::BankStep::ConcurrentLocked),
        (LabId::Bank, false) => lab5_bank::source(lab5_bank::BankStep::ConcurrentRacy),
        (LabId::Philosophers, true) => lab6_philosophers::ordered_source(5),
        (LabId::Philosophers, false) => lab6_philosophers::naive_source(10),
        (LabId::BoundedBuffer, true) => lab7_boundedbuffer::semaphore_source(),
        (LabId::BoundedBuffer, false) => lab7_boundedbuffer::buggy_source(),
    }
}

/// A working NUMA measurement submission (prints both figures).
const NUMA_SOLVED: &str = r#"
fn main() {
    // Measured with the portal's memory system; figures echoed here.
    println("UMA local read mean: 80 ns");
    println("NUMA remote read mean: 130 ns");
}
"#;

/// A typical failing NUMA submission: only measured the local case.
const NUMA_UNSOLVED: &str = r#"
fn main() {
    println("local read mean: 80 ns");
}
"#;

/// A failing process/thread submission: copies but drops the ordering
/// synchronization (writer may run ahead) — single-threaded shortcut.
const PROCTHREAD_UNSOLVED: &str = r#"
fn main() {
    // Never spawned the second thread; copies nothing.
    var text = read_file("input.txt");
    println("read ", len(text), " bytes");
}
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_is_deterministic() {
        let a = Cohort::new(42);
        let b = Cohort::new(42);
        assert_eq!(a.abilities(), b.abilities());
        assert_eq!(a.len(), CLASS_SIZE);
        let c = Cohort::new(43);
        assert_ne!(a.abilities(), c.abilities());
    }

    #[test]
    fn pass_probability_monotone_in_ability() {
        let c = Cohort::new(1);
        let mut sorted: Vec<f64> = c.abilities().to_vec();
        sorted.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
        let lo = sorted[0];
        let hi = sorted[sorted.len() - 1];
        let d = 0.0;
        assert!(sigmoid(lo - d) < sigmoid(hi - d));
    }

    #[test]
    fn simulated_rates_track_paper() {
        // Average over several cohort seeds: each lab's simulated passing
        // rate should land near the paper's value (binomial noise over 19
        // students is ~11%, so allow a generous band).
        let mut sums = vec![0.0; LabId::ALL.len()];
        let reps = 6;
        for seed in 0..reps {
            let cohort = Cohort::new(seed);
            let outcomes = cohort.run_labs();
            for (i, r) in Cohort::lab_passing_rates(&outcomes).iter().enumerate() {
                sums[i] += r;
            }
        }
        for (i, lab) in LabId::ALL.iter().enumerate() {
            let mean_rate = sums[i] / reps as f64;
            let paper = lab.paper_passing_rate();
            assert!(
                (mean_rate - paper).abs() < 0.15,
                "{}: simulated {mean_rate:.2} vs paper {paper:.2}",
                lab.title()
            );
        }
    }

    #[test]
    fn outcomes_have_full_shape() {
        let outcomes = Cohort::new(5).run_labs();
        assert_eq!(outcomes.len(), CLASS_SIZE);
        for o in &outcomes {
            assert_eq!(o.lab_passed.len(), 7);
            assert_eq!(o.lab_scores.len(), 7);
            for (p, s) in o.lab_passed.iter().zip(&o.lab_scores) {
                assert_eq!(*p, *s >= 70, "pass flag must match score threshold");
            }
        }
    }
}
