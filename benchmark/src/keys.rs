//! Pinned key streams for the socket workloads.
//!
//! Keys are derived from the generator's constants (attacker and pool
//! addresses by zipf rank, the store's slot span), never read back from an
//! index, so a key stream is a pure function of the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandwich_query::QueryRequest;

use crate::gen::{self, Zipf};

/// Hot keys of the keep-alive workload.
pub const HOT_KEYS: usize = 16;
/// Distinct cold keys: four times the service's default 8 × 128 cache, and
/// four times the router's, so a cyclic walk never hits under LRU.
pub const COLD_KEYS: usize = 4_096;

/// One request: the HTTP path and its typed form (for the reference body).
#[derive(Clone, Debug)]
pub struct Key {
    /// Path and query string as sent on the wire.
    pub path: String,
    /// The same request, typed, for `Engine::evaluate`.
    pub request: QueryRequest,
}

fn window(i: usize, of: usize) -> Key {
    let total = gen::DAYS * gen::SLOTS_PER_DAY;
    let from_slot = i as u64 * total / of as u64;
    let to_slot = (i as u64 + 1) * total / of as u64 - 1;
    Key {
        path: format!("/api/sandwiches?from_slot={from_slot}&to_slot={to_slot}&limit=100"),
        request: QueryRequest::Sandwiches {
            from_slot,
            to_slot,
            limit: 100,
            after: 0,
        },
    }
}

fn attacker_detail(rank: usize) -> Key {
    let pubkey = gen::attacker(rank);
    Key {
        path: format!("/api/attacker/{pubkey}"),
        request: QueryRequest::Attacker { pubkey },
    }
}

fn pool_detail(rank: usize) -> Key {
    let mint = gen::pool(rank);
    Key {
        path: format!("/api/pool/{mint}"),
        request: QueryRequest::Pool { mint },
    }
}

fn attackers_page(limit: usize, after: usize) -> Key {
    Key {
        path: format!("/api/attackers?limit={limit}&after={after}"),
        request: QueryRequest::Attackers { limit, after },
    }
}

fn validators_page(limit: usize, after: usize) -> Key {
    Key {
        path: format!("/api/validators?limit={limit}&after={after}"),
        request: QueryRequest::Validators { limit, after },
    }
}

/// The 16 hot keys a dashboard front page asks for, heaviest first.
pub fn hot_keys() -> Vec<Key> {
    let mut keys = vec![
        Key {
            path: "/api/summary".into(),
            request: QueryRequest::Summary,
        },
        Key {
            path: "/api/days".into(),
            request: QueryRequest::Days,
        },
        attackers_page(20, 0),
        validators_page(20, 0),
    ];
    keys.extend((0..6).map(attacker_detail));
    keys.extend((0..6).map(pool_detail));
    debug_assert_eq!(keys.len(), HOT_KEYS);
    keys
}

/// [`COLD_KEYS`] distinct slot windows tiling the store's span.
pub fn cold_windows() -> Vec<Key> {
    (0..COLD_KEYS).map(|i| window(i, COLD_KEYS)).collect()
}

/// [`COLD_KEYS`] distinct keys over every family the router merges: 3 456
/// slot windows, all 512 pools, all 64 attackers, 32 attacker-leaderboard
/// pages and 32 validator-leaderboard pages, shuffled by `seed`.
pub fn merged_family_keys(seed: u64) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..3_456).map(|i| window(i, 3_456)).collect();
    keys.extend((0..gen::POOLS).map(pool_detail));
    keys.extend((0..gen::ATTACKERS).map(attacker_detail));
    keys.extend((0..32).map(|i| attackers_page(5 + i, i)));
    keys.extend((0..32).map(|i| validators_page(1 + i % 8, i / 8 * 3)));
    debug_assert_eq!(keys.len(), COLD_KEYS);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..i + 1));
    }
    keys
}

/// The keep-alive mix of one client: 80 % zipf(1) over the hot keys, 20 %
/// the next key of a cyclic walk over the cold windows.
pub struct KeepaliveStream {
    rng: StdRng,
    zipf: Zipf,
    cold_cursor: usize,
}

impl KeepaliveStream {
    /// The stream of client `client` (of `clients`) under `seed`; clients
    /// start their cold walks evenly spaced so they never share a cold key.
    pub fn new(seed: u64, client: usize, clients: usize) -> KeepaliveStream {
        KeepaliveStream {
            rng: StdRng::seed_from_u64(seed ^ ((client as u64 + 1) << 40)),
            zipf: Zipf::new(HOT_KEYS),
            cold_cursor: client * COLD_KEYS / clients.max(1),
        }
    }

    /// Index of the next key: `< HOT_KEYS` is hot, otherwise
    /// `HOT_KEYS + cold index`.
    pub fn next_index(&mut self) -> usize {
        if self.rng.gen_bool(0.8) {
            self.zipf.sample(&mut self.rng)
        } else {
            let i = self.cold_cursor;
            self.cold_cursor = (self.cold_cursor + 1) % COLD_KEYS;
            HOT_KEYS + i
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn key_sets_are_distinct_and_sized() {
        assert_eq!(hot_keys().len(), HOT_KEYS);
        let cold: BTreeSet<String> = cold_windows().into_iter().map(|k| k.path).collect();
        assert_eq!(cold.len(), COLD_KEYS);
        let merged: BTreeSet<String> = merged_family_keys(7).into_iter().map(|k| k.path).collect();
        assert_eq!(merged.len(), COLD_KEYS);
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut s = KeepaliveStream::new(seed, 0, 2);
            (0..64).map(|_| s.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let order = |seed| {
            merged_family_keys(seed)
                .into_iter()
                .take(64)
                .map(|k| k.path)
                .collect::<Vec<_>>()
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
    }
}
