//! # simcore — deterministic simulation kernel
//!
//! Foundation for the dangling-resource-abuse reproduction: simulated time,
//! reproducible random-number streams, a discrete-event queue, and the
//! statistical distributions the world generator and attacker models draw
//! from.
//!
//! Everything in the workspace that involves chance goes through
//! [`rng::RngTree`], which derives independent, *named* child streams from a
//! single world seed. Re-running any experiment with the same seed reproduces
//! every table and figure bit-for-bit, regardless of how unrelated parts of
//! the simulation are reordered.
//!
//! Time is measured in whole days ([`time::SimTime`]) because the paper's
//! methodology samples weekly and reasons in days/months/years. Calendar
//! conversions use the proleptic Gregorian calendar.

pub mod dist;
pub mod events;
pub mod net;
pub mod rng;
pub mod scale;
pub mod time;

pub use dist::{LogNormal, Pareto, Poisson, WeightedIndex, Zipf};
pub use events::EventQueue;
pub use net::{LatencyModel, LatencyProfile, QueryClass, QueryFate};
pub use rng::RngTree;
pub use scale::Scale;
pub use time::{Date, SimTime};

/// FNV-1a over `bytes`: the workspace's stable, non-cryptographic byte hash
/// (site bodies, resource names, the RNG-cursor checkpoint digest, the
/// golden `StudyResults` digests). The multiplier is `0x1000_0000_01b3`, not
/// the published 64-bit FNV prime `0x100_0000_01b3`. The RNG tree's seed
/// derivation, the FQDN shard hash and `storelog::frame::fnv64` (storelog
/// does not depend on simcore) inline the same multiplier; `serve`'s
/// `ViewStamp` checksum and `obs` causal trace ids use the published prime.
/// Its values are compared across runs and written into checkpoints, so the
/// function must never change.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn fnv1a_is_frozen() {
        // Pin values: body hashes and checkpoint digests compare these
        // across runs. (The published 64-bit FNV-1a of "a" would be
        // 0xaf63dc4c8601ec8c; the workspace multiplier differs.)
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0xf8ac_2471_f739_67e8);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
