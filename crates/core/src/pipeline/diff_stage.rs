//! Diff/record stage: commits a replayed round.
//!
//! A live round never reaches this stage with work: the crawl commits each
//! snapshot in place into the store shard its worker owns and appends the
//! round's changes to the change log itself (see [`super::CrawlStage`]). A
//! resumed run's replayed round has no crawl, so
//! [`super::PersistStage::replay_round`] installs the logged observations
//! as [`RunState::crawl_batch`] — in canonical monitored order — and this
//! stage appends their changes to the change log and commits each snapshot
//! into the store shard its record was read from.
//!
//! The change log is append-only: records are pushed with strictly
//! increasing days (one round, one day) and never mutated afterwards. The
//! streaming retro pass ([`super::IncrementalRetro`]) depends on exactly
//! that — it consumes each round's new suffix of `rs.changes` right after
//! this stage runs and indexes into the log by position forever after.

use super::{RunState, Stage};
use crate::diff::ChangeRecord;
use crate::snapshot::Snapshot;
use simcore::SimTime;

/// One logged observation as replay installs it: the snapshot a recorded
/// crawl produced and, when there was a previous one, the diff against it.
#[derive(Debug, Clone)]
pub struct CrawlOutcome {
    /// The store shard the record was read from. Its replay cursor checked
    /// that the name belongs there, so the commit need not hash it again.
    pub shard: usize,
    pub snap: Snapshot,
    pub change: Option<ChangeRecord>,
}

/// The diff/record stage (see module docs).
pub struct DiffStage;

impl Stage for DiffStage {
    fn name(&self) -> &'static str {
        "diff"
    }

    fn weekly(&mut self, rs: &mut RunState, _now: SimTime) {
        let mut changes: u64 = 0;
        let mut snapshots: u64 = 0;
        for out in rs.crawl_batch.drain(..) {
            if let Some(rec) = out.change {
                rs.changes.push(rec);
                changes += 1;
            }
            debug_assert_eq!(out.shard, rs.store.shard_of(&out.snap.fqdn));
            rs.store.shards_mut()[out.shard].insert(out.snap.fqdn.clone(), out.snap);
            snapshots += 1;
        }
        obs::counter("diff.changes").add(changes);
        obs::counter("diff.snapshots").add(snapshots);
    }
}
