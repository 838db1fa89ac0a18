//! Collection stage — Algorithm 1 (§3.1) applied incrementally.
//!
//! Every monitoring round the stage pulls the feed entries that became
//! visible since the last round, classifies them (cloud-pointing or not),
//! and grows the canonical monitored list. It also keeps the monthly
//! monitored-set series (Figure 4's substrate).
//!
//! Classification is the expensive per-candidate step (a full resolution
//! per FQDN), so it fans out through [`ShardedExecutor::map`] under the
//! standard contract: verdicts re-assembled in feed order, and the admission
//! loop — the part that mutates the canonical monitored list — stays serial
//! over that ordered zip, so the monitored order is identical for any thread
//! count.

use super::{RunState, ShardedExecutor, Stage};
use crate::collect::{CloudPointer, Collector};
use dns::{Name, Resolver};
use simcore::SimTime;
use std::collections::HashSet;

/// The Algorithm-1 collection stage (see module docs).
pub struct CollectStage {
    collector: Collector,
    exec: ShardedExecutor,
    /// Membership-only (never iterated): hash order cannot escape.
    monitored_set: HashSet<Name>,
    pending_candidates: Vec<Name>,
    last_feed_check: SimTime,
}

impl CollectStage {
    pub fn new(rs: &RunState, threads: usize) -> Self {
        CollectStage {
            collector: Collector::new(),
            exec: ShardedExecutor::new(threads, crate::exec_metric_names!("collect")),
            monitored_set: HashSet::new(),
            pending_candidates: Vec::new(),
            last_feed_check: rs.monitor_start - 1,
        }
    }
}

impl Stage for CollectStage {
    fn name(&self) -> &'static str {
        "collect"
    }

    fn weekly(&mut self, rs: &mut RunState, now: SimTime) {
        // Grow the monitored set from the feed via Algorithm 1.
        self.pending_candidates.extend(
            rs.feed
                .discovered_between(self.last_feed_check, now)
                .cloned(),
        );
        self.last_feed_check = now;
        if !self.pending_candidates.is_empty() {
            obs::counter("collect.candidates").add(self.pending_candidates.len() as u64);
            let admitted_before = rs.monitored.len();
            let candidates = std::mem::take(&mut self.pending_candidates);
            // Classify in parallel (read-only: resolver per worker, shared
            // collector tables), verdicts back in feed order.
            let world = &rs.world;
            let collector = &self.collector;
            let verdicts: Vec<CloudPointer> = self.exec.map(
                &candidates,
                || Resolver::new(world.dns()),
                |resolver, _i, fqdn| collector.classify(fqdn, resolver, now),
            );
            // Serial admission over the ordered zip: the canonical monitored
            // order is the feed order of first cloud-pointing classification.
            let mut still_pending = Vec::new();
            for (fqdn, verdict) in candidates.into_iter().zip(verdicts) {
                match verdict {
                    CloudPointer::NotCloud => {
                        // Non-cloud entries are retried a couple of times then
                        // dropped (cheap heuristic for the paper's periodic
                        // re-checks).
                        still_pending.push((fqdn, 1u8));
                    }
                    ptr => {
                        if self.monitored_set.insert(fqdn.clone()) {
                            rs.monitored.push(fqdn);
                            if let Some(s) = ptr.service() {
                                *rs.monitored_by_service.entry(s).or_insert(0) += 1;
                            }
                        }
                    }
                }
            }
            // Single retry round for not-cloud outcomes.
            self.pending_candidates.extend(
                still_pending
                    .into_iter()
                    .filter(|(_, tries)| *tries == 0)
                    .map(|(f, _)| f),
            );
            obs::counter("collect.admitted").add((rs.monitored.len() - admitted_before) as u64);
        }
        // Monthly monitored-set bookkeeping (Figure 4).
        rs.monitored_monthly.add(
            now.month_index(),
            0.0, // touch the bucket; set below
        );
        let m = now.month_index();
        let current = rs.monitored.len() as f64;
        // Record the max within the month (overwrites upward).
        if rs.monitored_monthly.get(m) < current {
            let delta = current - rs.monitored_monthly.get(m);
            rs.monitored_monthly.add(m, delta);
        }
    }
}
