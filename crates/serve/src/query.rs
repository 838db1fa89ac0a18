//! The typed in-process query API.
//!
//! A [`Query`] is answered from exactly one loaded [`LiveView`] — every
//! field of the [`Reply`], including the embedded [`ViewStamp`], is read
//! from the same snapshot, which is what makes replies single-round by
//! construction. [`Reply::consistent`] re-derives the body's counts against
//! the stamp so tests (and paranoid clients) can verify it.
//!
//! ## Provisional verdicts
//!
//! Every data-bearing reply carries `provisional: true` while the run is
//! live: the payloads come from the incremental pass's *advisory* per-round
//! validation (`retro.incr.provisional_abuse` / `retro.incr.valid_signatures`,
//! here promoted into structured form). The final authoritative pass only
//! exists once the run finalizes — clients must never treat a served
//! verdict as final, and the flag makes that impossible to miss.

use crate::view::{ClusterEntry, FqdnVerdict, Health, LiveView, SignatureEntry, ViewStamp};
use serde::{Deserialize, Serialize};

/// One query against the published view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// Round/coverage summary.
    Status,
    /// The `retro.incr.*` health payload.
    Health,
    /// The current signature catalog with advisory validity.
    Signatures,
    /// Identical-change clusters and their registrar rule-out state.
    Clusters,
    /// Current advisory verdict for one FQDN.
    Verdict { fqdn: String },
}

/// The [`Query::Status`] payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusBody {
    pub monitored: u64,
    pub changes: u64,
    pub verdicts: u64,
    pub abused: u64,
    pub signatures: u64,
    pub valid_signatures: u64,
    pub clusters: u64,
}

/// Query-specific payload of a [`Reply`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ReplyBody {
    Status(StatusBody),
    Health(Health),
    Signatures(Vec<SignatureEntry>),
    Clusters(Vec<ClusterEntry>),
    Verdict(FqdnVerdict),
    /// The FQDN has produced no suspicious change so far — implicitly
    /// benign *as of this round* (still provisional: it may turn).
    NoVerdict {
        fqdn: String,
    },
}

/// An answer, stamped with the single round version it was read from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Reply {
    /// Publication sequence of the view answering this query.
    pub seq: u64,
    /// The one round version every field of this reply belongs to.
    pub round: u64,
    pub day: i64,
    /// Advisory-state marker; see the module docs.
    pub provisional: bool,
    /// The answering view's build-time stamp (torn-read witness).
    pub stamp: ViewStamp,
    pub body: ReplyBody,
}

impl Reply {
    /// Answer `q` from one loaded view. Single-round by construction: no
    /// state outside `view` is consulted.
    pub fn answer(view: &LiveView, q: &Query) -> Reply {
        let body = match q {
            Query::Status => ReplyBody::Status(StatusBody {
                monitored: view.monitored,
                changes: view.changes,
                verdicts: view.stamp.verdicts,
                abused: view.stamp.abused,
                signatures: view.stamp.signatures,
                valid_signatures: view.stamp.valid_signatures,
                clusters: view.stamp.clusters,
            }),
            Query::Health => ReplyBody::Health(view.health.clone()),
            Query::Signatures => ReplyBody::Signatures(view.signatures.clone()),
            Query::Clusters => ReplyBody::Clusters(view.clusters.clone()),
            Query::Verdict { fqdn } => match view.verdicts.get(fqdn) {
                Some(v) => ReplyBody::Verdict(v.clone()),
                None => ReplyBody::NoVerdict { fqdn: fqdn.clone() },
            },
        };
        Reply {
            seq: view.seq,
            round: view.round,
            day: view.day,
            provisional: view.provisional,
            stamp: view.stamp,
            body,
        }
    }

    /// Is this reply internally consistent — one round version throughout,
    /// body counts agreeing with the stamp? A torn read would fail here.
    pub fn consistent(&self) -> bool {
        if self.seq != self.stamp.seq || self.round != self.stamp.round {
            return false;
        }
        match &self.body {
            ReplyBody::Status(s) => {
                s.verdicts == self.stamp.verdicts
                    && s.abused == self.stamp.abused
                    && s.signatures == self.stamp.signatures
                    && s.valid_signatures == self.stamp.valid_signatures
                    && s.clusters == self.stamp.clusters
            }
            ReplyBody::Health(h) => h.rounds == self.round && h.day == self.day,
            ReplyBody::Signatures(sigs) => {
                sigs.len() as u64 == self.stamp.signatures
                    && sigs.iter().filter(|s| s.valid).count() as u64 == self.stamp.valid_signatures
            }
            ReplyBody::Clusters(cs) => cs.len() as u64 == self.stamp.clusters,
            ReplyBody::Verdict(v) => v.provisional == self.provisional,
            ReplyBody::NoVerdict { .. } => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_carry_one_round_version() {
        let view = LiveView::synthetic(6, 32);
        let some_fqdn = view.verdicts.keys().next().unwrap().clone();
        for q in [
            Query::Status,
            Query::Health,
            Query::Signatures,
            Query::Clusters,
            Query::Verdict { fqdn: some_fqdn },
            Query::Verdict {
                fqdn: "nowhere.example".into(),
            },
        ] {
            let r = Reply::answer(&view, &q);
            assert_eq!(r.round, 6);
            assert!(r.provisional, "served verdicts are always advisory");
            assert!(r.consistent(), "reply to {q:?} must be self-consistent");
            // The JSON envelope a client receives carries the same witness.
            let v: serde_json::Value =
                serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
            for key in ["seq", "round", "day", "provisional", "stamp", "body"] {
                assert!(v.get(key).is_some(), "reply to {q:?} lacks `{key}`");
            }
            assert_eq!(v["provisional"].as_bool(), Some(true), "{q:?}");
            assert_eq!(v["stamp"]["round"], v["round"], "{q:?}");
            assert_eq!(v["stamp"]["seq"], v["seq"], "{q:?}");
        }
    }

    #[test]
    fn a_cross_round_mix_is_detected() {
        let a = Reply::answer(&LiveView::synthetic(2, 16), &Query::Status);
        let b = Reply::answer(&LiveView::synthetic(3, 24), &Query::Status);
        let torn = Reply { body: b.body, ..a };
        assert!(!torn.consistent());
    }

    #[test]
    fn queries_round_trip_through_json() {
        for q in [
            Query::Status,
            Query::Signatures,
            Query::Verdict {
                fqdn: "a.b.example".into(),
            },
        ] {
            let s = serde_json::to_string(&q).unwrap();
            let back: Query = serde_json::from_str(&s).unwrap();
            assert_eq!(back, q, "round-trip of {s}");
        }
    }
}
