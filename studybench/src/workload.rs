//! The three workloads and the reduced world they share.

use dangling_core::ScenarioConfig;
use simcore::SimTime;

/// What one benchmark run drives through the `Scenario` entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch study: parallel crawl, batch retro at the horizon, no
    /// persistence, no daemon during the run.
    WeeklyStudy,
    /// `repro --serve --persist`: incremental retro, storelog recording and
    /// a serve daemon answering a closed-loop client while rounds commit.
    LiveDaemon,
    /// `repro --serve --resume` over a complete recorded state dir: the log
    /// replaces the crawl; the same client queries the republished rounds.
    RestartReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WeeklyStudy,
        Workload::LiveDaemon,
        Workload::RestartReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WeeklyStudy => "weekly-study",
            Workload::LiveDaemon => "live-daemon",
            Workload::RestartReplay => "restart-replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pipeline threads. Only the batch study, which runs no client thread,
    /// takes every core; the serve workloads keep one core for the client so
    /// no workload runs more threads than `nproc`.
    pub fn threads(self) -> usize {
        match self {
            Workload::WeeklyStudy => nproc(),
            Workload::LiveDaemon | Workload::RestartReplay => 1,
        }
    }

    /// A serve daemon publishes every committed round during the run, which
    /// (as in `repro --serve`) implies the streaming retro pass.
    pub fn serves_live(self) -> bool {
        self != Workload::WeeklyStudy
    }

    /// About how long one repetition takes on a 2-vCPU host.
    fn nominal_rep_seconds(self) -> f64 {
        match self {
            Workload::WeeklyStudy => 10.0,
            Workload::LiveDaemon => 25.0,
            Workload::RestartReplay => 5.0,
        }
    }

    /// Repetitions in a run of `seconds`: the odd count (at least one)
    /// nearest to what fits, rounding up on a tie. Fixed by the arguments
    /// rather than by the clock, so every run takes the median of the same
    /// number of samples however fast the host is at the time.
    pub fn reps(self, seconds: f64) -> usize {
        let n = (seconds / self.nominal_rep_seconds()).round() as usize;
        n.max(1) | 1
    }
}

/// Available cores, capped so a large host does not change the workload's
/// shape beyond recognition.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// The reduced world every workload runs: a scale denominator plus cut-down
/// Fortune 1000 / Global 500 org counts. All monitoring rounds are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    pub scale: u32,
    pub fortune: u32,
    pub global: u32,
}

/// The benchmark's world.
pub const STUDY: Sizing = Sizing {
    scale: 200,
    fortune: 60,
    global: 30,
};

/// A small world for the benchmark's own smoke test.
pub const TINY: Sizing = Sizing {
    scale: 800,
    fortune: 60,
    global: 30,
};

impl Sizing {
    pub fn config(&self, seed: u64, threads: usize) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::at_scale(self.scale);
        cfg.world.n_fortune1000 = self.fortune;
        cfg.world.n_global500 = self.global;
        cfg.seed = seed;
        cfg.crawl_threads = threads;
        cfg
    }

    /// Cache-key fragment naming this world.
    pub fn tag(&self) -> String {
        format!("s{}-f{}-g{}", self.scale, self.fortune, self.global)
    }
}

/// Monitoring rounds a complete run commits (one `MonitorWeek` per
/// interval from the monitoring start through the horizon).
pub fn expected_rounds(cfg: &ScenarioConfig) -> u64 {
    let horizon = SimTime::monitor_end();
    let mut t = SimTime::monitor_start();
    let mut rounds = 0;
    while t <= horizon {
        rounds += 1;
        t += cfg.monitor_interval_days;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn repetition_counts_are_odd_and_fixed() {
        assert_eq!(Workload::WeeklyStudy.reps(10.0), 1);
        assert_eq!(Workload::LiveDaemon.reps(10.0), 1);
        assert_eq!(Workload::RestartReplay.reps(10.0), 3);
        assert_eq!(Workload::RestartReplay.reps(1.0), 1);
        assert_eq!(Workload::WeeklyStudy.reps(30.0), 3);
    }

    #[test]
    fn full_study_has_183_rounds() {
        assert_eq!(expected_rounds(&STUDY.config(1, 1)), 183);
    }
}
