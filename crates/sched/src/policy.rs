//! Queueing policies: which pending job runs next, and where.
//!
//! Policies answer two questions given the queue and the cluster state:
//! pick the next job to try, and (optionally) constrain placement. Backfill
//! additionally lets short jobs jump the queue when they cannot delay the
//! head job's earliest possible start.

use crate::job::JobRecord;
use cluster::Cluster;

/// The available policies (`examples/ablations.rs` sweeps them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicyKind {
    /// Strict first-in first-out: the head job blocks everything behind it.
    Fifo,
    /// FIFO order, but placement rotates across segments to spread load.
    RoundRobinSegments,
    /// Pick the queued job whose core request best fits the free cores
    /// (smallest non-negative slack), FIFO among ties.
    BestFit,
    /// FIFO head job reserved; shorter jobs may backfill into the gap if
    /// their estimate fits before the head's earliest start (EASY backfill).
    Backfill,
}

impl SchedPolicyKind {
    /// All policies, for sweeps.
    pub const ALL: [SchedPolicyKind; 4] = [
        SchedPolicyKind::Fifo,
        SchedPolicyKind::RoundRobinSegments,
        SchedPolicyKind::BestFit,
        SchedPolicyKind::Backfill,
    ];

    /// Short name for report rows.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicyKind::Fifo => "fifo",
            SchedPolicyKind::RoundRobinSegments => "rr-segments",
            SchedPolicyKind::BestFit => "best-fit",
            SchedPolicyKind::Backfill => "backfill",
        }
    }

    /// Choose the indices (into `pending`, which is FIFO-ordered) of jobs to
    /// attempt to start now, in order. `free` is the currently free core
    /// count; `now` the clock; `running_release` the (tick, cores) release
    /// schedule of running jobs (for backfill's reservation math).
    pub fn pick(
        self,
        pending: &[&JobRecord],
        free: u32,
        now: u64,
        running_release: &[(u64, u32)],
    ) -> Vec<usize> {
        match self {
            SchedPolicyKind::Fifo | SchedPolicyKind::RoundRobinSegments => {
                // Start as many head-of-queue jobs as fit, in order; stop at
                // the first that does not fit (no skipping).
                let mut out = Vec::new();
                let mut budget = free;
                for (i, j) in pending.iter().enumerate() {
                    let need = j.spec.cores_needed();
                    if need <= budget {
                        out.push(i);
                        budget -= need;
                    } else {
                        break;
                    }
                }
                out
            }
            SchedPolicyKind::BestFit => {
                // Repeatedly pick the job minimizing (free - need) >= 0.
                let mut out = Vec::new();
                let mut budget = free;
                let mut remaining: Vec<usize> = (0..pending.len()).collect();
                loop {
                    let mut best: Option<(u32, usize)> = None; // (slack, idx-in-remaining)
                    for (ri, &pi) in remaining.iter().enumerate() {
                        let need = pending[pi].spec.cores_needed();
                        if need <= budget {
                            let slack = budget - need;
                            if best.map(|(s, _)| slack < s).unwrap_or(true) {
                                best = Some((slack, ri));
                            }
                        }
                    }
                    match best {
                        Some((_, ri)) => {
                            let pi = remaining.remove(ri);
                            budget -= pending[pi].spec.cores_needed();
                            out.push(pi);
                        }
                        None => break,
                    }
                }
                out
            }
            SchedPolicyKind::Backfill => {
                let mut out = Vec::new();
                let mut budget = free;
                // Start head jobs FIFO while they fit.
                let mut i = 0;
                while i < pending.len() {
                    let need = pending[i].spec.cores_needed();
                    if need <= budget {
                        out.push(i);
                        budget -= need;
                        i += 1;
                    } else {
                        break;
                    }
                }
                if i >= pending.len() {
                    return out;
                }
                // Head job `i` does not fit: compute its earliest start by
                // walking the release schedule.
                let head_need = pending[i].spec.cores_needed();
                let mut avail = budget;
                let mut shadow_time = u64::MAX;
                let mut releases: Vec<(u64, u32)> = running_release.to_vec();
                releases.sort_unstable();
                for &(t, c) in &releases {
                    avail += c;
                    if avail >= head_need {
                        shadow_time = t;
                        break;
                    }
                }
                // Backfill candidates behind the head: must fit in current
                // budget AND finish (by estimate) before the shadow time.
                for (k, j) in pending.iter().enumerate().skip(i + 1) {
                    let need = j.spec.cores_needed();
                    let fits_now = need <= budget;
                    let ends_by = now.saturating_add(j.spec.estimated_ticks);
                    if fits_now && ends_by <= shadow_time {
                        out.push(k);
                        budget -= need;
                    }
                }
                out
            }
        }
    }

    /// Placement hint: for [`SchedPolicyKind::RoundRobinSegments`], which
    /// segment to prefer for the `n`-th dispatch.
    pub(crate) fn preferred_segment(self, dispatch_count: u64, cluster: &Cluster) -> Option<usize> {
        match self {
            SchedPolicyKind::RoundRobinSegments => {
                let segs = cluster.spec().segment_count();
                if segs == 0 {
                    None
                } else {
                    Some((dispatch_count % segs as u64) as usize)
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobRecord, JobSpec, JobState, StdStreams};

    fn rec(id: u64, cores: u32, est: u64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            spec: JobSpec::parallel("u", "x", cores, est),
            state: JobState::Pending,
            submitted_at: 0,
            allocation: None,
            started_at: None,
            streams: StdStreams::default(),
            attempt: 0,
            last_failure: None,
            node_losses: 0,
            requeued_at: None,
            recovery_wait_ticks: 0,
        }
    }

    #[test]
    fn fifo_stops_at_first_blocker() {
        let jobs = [rec(1, 4, 10), rec(2, 16, 10), rec(3, 1, 10)];
        let refs: Vec<&JobRecord> = jobs.iter().collect();
        let picked = SchedPolicyKind::Fifo.pick(&refs, 8, 0, &[]);
        // Job 1 fits (4), job 2 (16) blocks; job 3 must NOT jump the queue.
        assert_eq!(picked, vec![0]);
    }

    #[test]
    fn best_fit_minimizes_slack() {
        let jobs = [rec(1, 3, 10), rec(2, 8, 10), rec(3, 7, 10)];
        let refs: Vec<&JobRecord> = jobs.iter().collect();
        let picked = SchedPolicyKind::BestFit.pick(&refs, 8, 0, &[]);
        // 8 free: job 2 (8 cores) has zero slack and goes first; nothing
        // else fits afterwards.
        assert_eq!(picked, vec![1]);
    }

    #[test]
    fn best_fit_packs_multiple() {
        let jobs = [rec(1, 5, 10), rec(2, 2, 10), rec(3, 3, 10)];
        let refs: Vec<&JobRecord> = jobs.iter().collect();
        let picked = SchedPolicyKind::BestFit.pick(&refs, 8, 0, &[]);
        // 8 free: best fit is 5 (slack 3)? No: slacks are 3,6,5 -> picks 5-core
        // job (idx 0, slack 3); 3 left -> picks 3-core (idx 2, slack 0); 0 left.
        assert_eq!(picked, vec![0, 2]);
    }

    #[test]
    fn backfill_lets_short_jobs_through() {
        // Head needs 8 cores, frees at t=100 (one running job releasing 8).
        // A 1-core job estimated at 50 ticks fits before then; one at 200
        // does not.
        let jobs = [rec(1, 8, 100), rec(2, 1, 200), rec(3, 1, 50)];
        let refs: Vec<&JobRecord> = jobs.iter().collect();
        let picked = SchedPolicyKind::Backfill.pick(&refs, 4, 0, &[(100, 8)]);
        assert_eq!(picked, vec![2]);
    }

    #[test]
    fn backfill_respects_shadow_time() {
        let jobs = [rec(1, 8, 100), rec(2, 1, 101)];
        let refs: Vec<&JobRecord> = jobs.iter().collect();
        // Head can start at t=100; the 101-tick job would push it back.
        let picked = SchedPolicyKind::Backfill.pick(&refs, 4, 0, &[(100, 8)]);
        assert!(picked.is_empty());
    }

    #[test]
    fn backfill_behaves_like_fifo_when_everything_fits() {
        let jobs = [rec(1, 2, 10), rec(2, 2, 10)];
        let refs: Vec<&JobRecord> = jobs.iter().collect();
        assert_eq!(SchedPolicyKind::Backfill.pick(&refs, 8, 0, &[]), vec![0, 1]);
    }

    #[test]
    fn policy_names() {
        for p in SchedPolicyKind::ALL {
            assert!(!p.name().is_empty());
        }
    }
}
