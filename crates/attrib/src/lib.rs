//! Validator attribution: who led the slot a bundle landed in.
//!
//! The paper measures *how much* sandwiching flows through Jito but never
//! names the validators whose blocks carry it. The community leaderboards
//! referenced in SNIPPETS.md go that extra step: join every sandwich to its
//! slot leader and rank validators by stake-weighted sandwiches per leader
//! block. This crate supplies the deterministic machinery for that join:
//!
//! * a seeded, stake-weighted **validator identity set** ([`ValidatorSpec`]
//!   → [`LeaderSchedule::validators`]) with per-validator stake and a
//!   stake-pool assignment;
//! * an epoch-based **leader schedule** ([`LeaderSchedule`]) mapping any
//!   slot to its leader, rotating every [`LEADER_GROUP_SLOTS`] slots within
//!   [`EPOCH_SLOTS`]-slot epochs exactly like Solana's 4-slot leader groups
//!   inside 432,000-slot epochs;
//! * sim-side **colluder selection** ([`colluder_flags`]) — the ground-truth
//!   subset of leaders that forward their mempool view to the private
//!   channel. The flags never travel with the measured data; attribution
//!   must *rediscover* colluders from sandwich counts alone.
//!
//! Everything is a pure function of the spec, so the leader of a slot never
//! needs to be persisted: the store manifest carries only the tiny
//! [`ValidatorSpec`] and every consumer recomputes the schedule on demand.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

use sandwich_types::{Hash, Keypair, OneBlock, Pubkey, Slot};

/// Slots per leader-schedule epoch (Solana's 432,000 ≈ 2 days at 400 ms).
pub const EPOCH_SLOTS: u64 = 432_000;

/// Consecutive slots each scheduled leader produces (Solana's 4-slot group).
pub const LEADER_GROUP_SLOTS: u64 = 4;
const _: () = assert!(EPOCH_SLOTS.is_multiple_of(LEADER_GROUP_SLOTS));

/// A leader draw hashes this tag, the spec's seed, the epoch and the group
/// within it, each `u64` little-endian: 39 bytes, one SHA-256 block.
const DRAW_TAG: &[u8] = b"leader-schedule";
const DRAW_EPOCH_AT: usize = DRAW_TAG.len() + 8;

/// Stake pools validators are assigned to, with selection weights in
/// percent. The split loosely mirrors the mainnet pool landscape the
/// SNIPPETS leaderboards roll up by.
const STAKE_POOLS: [(&str, u64); 5] = [
    ("jito", 35),
    ("marinade", 25),
    ("blaze", 15),
    ("jpool", 10),
    ("solo", 15),
];

/// The public, persistable description of a validator set.
///
/// Two fields fully determine identities, stakes, pools, and the leader of
/// every slot — this is what the store manifest records, and recomputing
/// the schedule from it is how the index build attributes sandwiches
/// without any per-slot leader data on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidatorSpec {
    /// Seed the identity set and schedule derive from.
    pub seed: u64,
    /// Number of validators in the set.
    pub count: u32,
}

impl ValidatorSpec {
    /// Spec with the given seed and validator count.
    pub fn new(seed: u64, count: u32) -> ValidatorSpec {
        ValidatorSpec {
            seed,
            count: count.max(1),
        }
    }
}

/// One validator in the derived identity set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Validator {
    /// The validator's identity address.
    pub pubkey: Pubkey,
    /// Activated stake in lamports (heavy-tailed, hash-derived).
    pub stake_lamports: u64,
    /// The stake pool this validator's stake is delegated through.
    pub stake_pool: &'static str,
}

fn hash_u64(parts: &[&[u8]]) -> u64 {
    first_u64(&Hash::digest_parts(parts))
}

/// The draw a digest carries: its first eight bytes, little-endian.
fn first_u64(h: &Hash) -> u64 {
    u64::from_le_bytes(h.0[..8].try_into().expect("a digest has 32 bytes"))
}

/// The signing identity of validator `index` in the set — used by the sim
/// to stand up banks and sign; the measured side only ever sees pubkeys.
pub fn validator_keypair(spec: &ValidatorSpec, index: u32) -> Keypair {
    Keypair::from_label(&format!("validator-{}-{}", spec.seed, index))
}

fn derive_validator(spec: &ValidatorSpec, index: u32) -> Validator {
    let seed = spec.seed.to_le_bytes();
    let idx = index.to_le_bytes();
    let h = hash_u64(&[b"validator-stake", &seed, &idx]);
    // Heavy-tailed stakes: a uniform base of 5k–50k SOL with a power-of-two
    // whale multiplier drawn from the top bits, so a few validators carry
    // several times the median stake and the schedule is visibly uneven.
    let base_sol = 5_000 + h % 45_000;
    let whale = 1u64 << ((h >> 60) % 4); // 1, 2, 4, or 8
    let stake_lamports = base_sol * whale * 1_000_000_000;
    let p = hash_u64(&[b"validator-pool", &seed, &idx]) % 100;
    let mut acc = 0u64;
    let mut stake_pool = STAKE_POOLS[0].0;
    for (name, weight) in STAKE_POOLS {
        acc += weight;
        if p < acc {
            stake_pool = name;
            break;
        }
    }
    Validator {
        pubkey: validator_keypair(spec, index).pubkey(),
        stake_lamports,
        stake_pool,
    }
}

/// A materialized leader schedule: the validator set plus the draw
/// thresholds used for stake-weighted leader draws.
#[derive(Clone, Debug)]
pub struct LeaderSchedule {
    spec: ValidatorSpec,
    validators: Vec<Validator>,
    /// `thresholds[i]`: the least 64-bit draw that picks a validator past
    /// `i`, one per validator but the last (see [`draw_threshold`]).
    thresholds: Vec<u64>,
    /// The draw message with this spec's seed; epoch and group unset.
    draw: OneBlock,
}

/// Slots led per validator over `[0, through]`: the prefix sum
/// [`LeaderSchedule::advance`] extends, so a keeper pays only for new slots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotsLed {
    /// Indexed like [`LeaderSchedule::validators`]; sums to `through + 1`.
    pub counts: Vec<u64>,
    /// Last slot counted, `None` before the first advance.
    pub through: Option<u64>,
}

impl LeaderSchedule {
    /// Derive the full schedule machinery from a spec.
    pub fn new(spec: &ValidatorSpec) -> LeaderSchedule {
        let validators: Vec<Validator> = (0..spec.count.max(1))
            .map(|i| derive_validator(spec, i))
            .collect();
        let stakes = validators.iter().map(|v| u128::from(v.stake_lamports));
        let total: u128 = stakes.clone().sum();
        let thresholds = stakes
            .scan(0, |below, stake| {
                *below += stake;
                Some(draw_threshold(*below, total))
            })
            .take(validators.len() - 1)
            .collect();
        LeaderSchedule {
            spec: *spec,
            validators,
            thresholds,
            draw: OneBlock::new(&[DRAW_TAG, &spec.seed.to_le_bytes(), &[0; 16]]),
        }
    }

    /// The spec this schedule was derived from.
    pub fn spec(&self) -> &ValidatorSpec {
        &self.spec
    }

    /// The derived validator set, in index order.
    pub fn validators(&self) -> &[Validator] {
        &self.validators
    }

    /// Index (into [`Self::validators`]) of the leader of `slot`.
    ///
    /// Each epoch draws an independent stake-weighted rotation; within an
    /// epoch the leader changes every [`LEADER_GROUP_SLOTS`] slots.
    pub fn leader_index_at(&self, slot: Slot) -> usize {
        let [digest] = OneBlock::digests(&[self.draw_block(slot.0 / LEADER_GROUP_SLOTS)]);
        self.leader_of_draw(first_u64(&digest))
    }

    /// The draw message of leader group `group`, counted from slot 0.
    fn draw_block(&self, group: u64) -> OneBlock {
        let groups_per_epoch = EPOCH_SLOTS / LEADER_GROUP_SLOTS;
        let mut block = self.draw;
        block.set(DRAW_EPOCH_AT, &(group / groups_per_epoch).to_le_bytes());
        block.set(DRAW_EPOCH_AT + 8, &(group % groups_per_epoch).to_le_bytes());
        block
    }

    /// The validator a 64-bit draw picks.
    fn leader_of_draw(&self, draw: u64) -> usize {
        self.thresholds.partition_point(|&t| t <= draw)
    }

    /// The leader of `slot`.
    pub fn leader_at(&self, slot: Slot) -> Pubkey {
        self.validators[self.leader_index_at(slot)].pubkey
    }

    /// Extend `led` to cover `[0, max_slot]`, hashing only the leader groups
    /// past `led.through` (first finishing one it stopped inside). Returns
    /// how many it hashed: none for a `max_slot` the prefix already covers.
    /// The groups are hashed two at a time ([`OneBlock::digests`]).
    pub fn advance(&self, led: &mut SlotsLed, max_slot: u64) -> u64 {
        led.counts.resize(self.validators.len(), 0);
        let first = led.through.map_or(0, |through| through + 1);
        if first > max_slot {
            return 0;
        }
        let (first_group, last_group) = (first / LEADER_GROUP_SLOTS, max_slot / LEADER_GROUP_SLOTS);
        for batch in (first_group..=last_group).step_by(2) {
            // A short last batch repeats its group in the spare lane.
            let groups = [batch, (batch + 1).min(last_group)];
            let digests = OneBlock::digests(&groups.map(|g| self.draw_block(g)));
            let fresh = if batch < last_group { 2 } else { 1 };
            for (g, digest) in groups.into_iter().zip(digests).take(fresh) {
                let start = (g * LEADER_GROUP_SLOTS).max(first);
                let end = (g * LEADER_GROUP_SLOTS + LEADER_GROUP_SLOTS - 1).min(max_slot);
                led.counts[self.leader_of_draw(first_u64(&digest))] += end - start + 1;
            }
        }
        led.through = Some(max_slot);
        last_group - first_group + 1
    }

    /// Slots led per validator over `[0, max_slot]`, indexed like
    /// [`Self::validators`]: [`Self::advance`] from the empty prefix.
    ///
    /// This is the leaderboard denominator ("blocks led"). It is monotone
    /// non-decreasing in `max_slot` for every validator, which is what lets
    /// shards compute it locally and a router take the element-wise max.
    pub fn slots_led_through(&self, max_slot: u64) -> Vec<u64> {
        let mut led = SlotsLed::default();
        self.advance(&mut led, max_slot);
        led.counts
    }
}

/// `⌈below · 2⁶⁴ / total⌉` for `below < total`, by long division: a draw
/// `h` scaled onto the stake line without modulo bias, `⌊h · total / 2⁶⁴⌋`,
/// reaches `below` exactly when `h` reaches this threshold.
fn draw_threshold(below: u128, total: u128) -> u64 {
    let (mut quotient, mut rem) = (0u64, below);
    for _ in 0..64 {
        rem <<= 1;
        quotient <<= 1;
        if rem >= total {
            rem -= total;
            quotient |= 1;
        }
    }
    // Saturates only past 2⁶⁴ lamports of stake, where the draw scale is coarser.
    quotient.saturating_add(u64::from(rem != 0))
}

/// Ground-truth colluder selection: which validators forward their mempool
/// view to the private channel.
///
/// Picks `round(count × fraction)` validators (at least one when the
/// fraction is positive) by ranking a per-validator hash, so the choice is
/// deterministic in the spec and uncorrelated with stake. Returns one flag
/// per validator index. **Sim-side only**: the flags are recorded in the
/// label book, never in the manifest — the measured system has to surface
/// colluders from attribution counts, not read them off a list.
pub fn colluder_flags(spec: &ValidatorSpec, fraction: f64) -> Vec<bool> {
    let count = spec.count.max(1) as usize;
    let k = if fraction <= 0.0 {
        0
    } else {
        (((count as f64) * fraction).round() as usize).clamp(1, count)
    };
    let seed = spec.seed.to_le_bytes();
    let mut ranked: Vec<(u64, usize)> = (0..count)
        .map(|i| {
            let idx = (i as u32).to_le_bytes();
            (hash_u64(&[b"colluder-pick", &seed, &idx]), i)
        })
        .collect();
    ranked.sort_unstable();
    let mut flags = vec![false; count];
    for &(_, i) in ranked.iter().take(k) {
        flags[i] = true;
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ValidatorSpec {
        ValidatorSpec::new(20250209, 24)
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = LeaderSchedule::new(&spec());
        let b = LeaderSchedule::new(&spec());
        for s in [0u64, 1, 3, 4, 5, 431_999, 432_000, 1_000_000] {
            assert_eq!(a.leader_at(Slot(s)), b.leader_at(Slot(s)));
        }
        assert_eq!(a.validators(), b.validators());
    }

    #[test]
    fn leader_groups_are_four_slots_wide() {
        let sched = LeaderSchedule::new(&spec());
        for group in 0..200u64 {
            let base = group * LEADER_GROUP_SLOTS;
            let leader = sched.leader_at(Slot(base));
            for off in 1..LEADER_GROUP_SLOTS {
                assert_eq!(sched.leader_at(Slot(base + off)), leader);
            }
        }
    }

    #[test]
    fn different_seeds_change_the_rotation() {
        let a = LeaderSchedule::new(&ValidatorSpec::new(1, 24));
        let b = LeaderSchedule::new(&ValidatorSpec::new(2, 24));
        let differs =
            (0..100u64).any(|g| a.leader_index_at(Slot(g * 4)) != b.leader_index_at(Slot(g * 4)));
        assert!(differs);
    }

    #[test]
    fn slots_led_matches_leader_at_and_sums_to_the_range() {
        let sched = LeaderSchedule::new(&ValidatorSpec::new(7, 8));
        let max_slot = 4_001u64; // deliberately mid-group
        let counts = sched.slots_led_through(max_slot);
        assert_eq!(counts.iter().sum::<u64>(), max_slot + 1);
        let mut expect = vec![0u64; 8];
        for s in 0..=max_slot {
            expect[sched.leader_index_at(Slot(s))] += 1;
        }
        assert_eq!(counts, expect);
    }

    #[test]
    fn slots_led_is_monotone_in_max_slot() {
        // The property the shard router's max-merge of `blocks_led` rests on.
        let sched = LeaderSchedule::new(&ValidatorSpec::new(3, 6));
        let mut prev = vec![0u64; 6];
        for max_slot in [0u64, 3, 4, 17, 100, 1_000, 5_000] {
            let counts = sched.slots_led_through(max_slot);
            for (c, p) in counts.iter().zip(&prev) {
                assert!(c >= p, "blocks_led regressed at max_slot {max_slot}");
            }
            prev = counts;
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The carried prefix sum: stopping anywhere — mid-group, on either
        /// side of an epoch boundary, twice at the same slot — and going on
        /// counts exactly what one walk from slot 0 counts, and re-hashes at
        /// most the one group each stop split.
        #[test]
        fn advancing_in_steps_equals_one_walk_from_empty(
            seed in any::<u64>(),
            count in 1u32..40,
            epochs in 0u64..3,
            edge in 0u8..3,
            jitter in 0u64..10_000,
            a_pick in any::<u64>(),
            tail in 0u64..5_000,
        ) {
            let sched = LeaderSchedule::new(&ValidatorSpec::new(seed, count));
            let b = match (epochs, edge) {
                (0, _) | (_, 2) => epochs * EPOCH_SLOTS + jitter,
                (_, 0) => epochs * EPOCH_SLOTS - 1,
                _ => epochs * EPOCH_SLOTS,
            };
            let a = if a_pick % 4 == 0 { b } else { a_pick % (b + 1) };
            let c = b + tail;

            let mut led = SlotsLed::default();
            let mut hashed = 0;
            for stop in [a, b, c] {
                hashed += sched.advance(&mut led, stop);
                prop_assert_eq!(led.through, Some(stop));
                prop_assert_eq!(led.counts.iter().sum::<u64>(), stop + 1);
            }
            prop_assert_eq!(&led.counts, &sched.slots_led_through(c));
            prop_assert!(hashed <= c / LEADER_GROUP_SLOTS + 3, "{hashed} groups for {c} slots");

            // A slot the prefix already covers costs nothing and moves nothing.
            let before = led.clone();
            prop_assert_eq!(sched.advance(&mut led, a), 0);
            prop_assert_eq!(led, before);
        }
    }

    /// The walk before batching: one [`LeaderSchedule::leader_index_at`]
    /// per group, the oracle the batched [`LeaderSchedule::advance`] must
    /// equal.
    fn advance_per_group(sched: &LeaderSchedule, led: &mut SlotsLed, max_slot: u64) -> u64 {
        led.counts.resize(sched.validators().len(), 0);
        let mut next = led.through.map_or(0, |through| through + 1);
        let mut hashed = 0;
        while next <= max_slot {
            let end = (next - next % LEADER_GROUP_SLOTS + LEADER_GROUP_SLOTS - 1).min(max_slot);
            led.counts[sched.leader_index_at(Slot(next))] += end - next + 1;
            led.through = Some(end);
            hashed += 1;
            next = end + 1;
        }
        hashed
    }

    #[test]
    fn batched_advance_equals_the_per_group_fold() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1ead);
        for case in 0..40 {
            let sched =
                LeaderSchedule::new(&ValidatorSpec::new(rng.gen(), rng.gen_range(1u32..40)));
            let (mut batched, mut folded) = (SlotsLed::default(), SlotsLed::default());
            // Stops on and around epoch edges, mid-group, repeated, and
            // one or two slots apart, so every lane count and offset shows.
            let mut stop: u64 = rng.gen_range(0..EPOCH_SLOTS);
            for _ in 0..12 {
                stop = match rng.gen_range(0u8..4) {
                    0 => (stop / EPOCH_SLOTS + 1) * EPOCH_SLOTS - rng.gen_range(0u64..6),
                    1 => stop + rng.gen_range(0u64..3),
                    2 => stop + rng.gen_range(0..EPOCH_SLOTS),
                    _ => (stop / EPOCH_SLOTS + 1) * EPOCH_SLOTS + rng.gen_range(0u64..6),
                };
                let hashed = sched.advance(&mut batched, stop);
                assert_eq!(
                    hashed,
                    advance_per_group(&sched, &mut folded, stop),
                    "case {case}"
                );
                assert_eq!(batched, folded, "case {case}, stop {stop}");
            }
        }
    }

    #[test]
    fn advance_hashes_only_the_groups_past_the_prefix() {
        let sched = LeaderSchedule::new(&spec());
        let mut led = SlotsLed::default();
        assert_eq!(sched.advance(&mut led, 4_001), 1_001, "groups 0..=1000");
        // 4_001 is mid-group: finishing group 1000 is one hash, then 25 more.
        assert_eq!(sched.advance(&mut led, 4_103), 26);
        assert_eq!(sched.advance(&mut led, 4_103), 0);
        assert_eq!(led.counts, sched.slots_led_through(4_103));
    }

    /// The thresholds pick exactly what the 128-bit scaling of the draw
    /// onto the cumulative stake table picks, at random draws and at one
    /// step either side of every threshold.
    #[test]
    fn thresholds_pick_what_the_stake_table_picks() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7e5);
        for count in (1u32..40).chain([200, 1_000]) {
            let sched = LeaderSchedule::new(&ValidatorSpec::new(rng.gen(), count));
            let stakes = sched
                .validators()
                .iter()
                .map(|v| u128::from(v.stake_lamports));
            let cumulative: Vec<u128> = stakes
                .scan(0, |sum, stake| {
                    *sum += stake;
                    Some(*sum)
                })
                .collect();
            let total = *cumulative.last().unwrap();
            let by_table =
                |h: u64| cumulative.partition_point(|&c| c <= (u128::from(h) * total) >> 64);
            let edges = sched
                .thresholds
                .iter()
                .flat_map(|&t| [t.saturating_sub(1), t, t.saturating_add(1)]);
            let random = (0..2_000).map(|_| rng.gen::<u64>());
            for h in edges.chain(random).chain([0, u64::MAX]) {
                assert_eq!(
                    sched.leader_of_draw(h),
                    by_table(h),
                    "count {count}, draw {h:#x}"
                );
            }
        }
    }

    #[test]
    fn stake_weighting_favors_whales() {
        let sched = LeaderSchedule::new(&ValidatorSpec::new(11, 12));
        let counts = sched.slots_led_through(EPOCH_SLOTS - 1);
        let (heavy, _) = sched
            .validators()
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| v.stake_lamports)
            .map(|(i, v)| (i, v.stake_lamports))
            .unwrap();
        let (light, _) = sched
            .validators()
            .iter()
            .enumerate()
            .min_by_key(|(_, v)| v.stake_lamports)
            .map(|(i, v)| (i, v.stake_lamports))
            .unwrap();
        assert!(
            counts[heavy] > counts[light],
            "heaviest validator led {} slots, lightest {}",
            counts[heavy],
            counts[light]
        );
    }

    #[test]
    fn colluder_flags_are_deterministic_and_sized() {
        let flags = colluder_flags(&spec(), 0.25);
        assert_eq!(flags, colluder_flags(&spec(), 0.25));
        assert_eq!(flags.iter().filter(|&&f| f).count(), 6);
        assert!(colluder_flags(&spec(), 0.0).iter().all(|&f| !f));
        // A positive fraction always selects at least one colluder.
        assert_eq!(
            colluder_flags(&ValidatorSpec::new(5, 40), 0.001)
                .iter()
                .filter(|&&f| f)
                .count(),
            1
        );
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: ValidatorSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn validator_identities_are_stable_signing_keys() {
        let sched = LeaderSchedule::new(&spec());
        let kp = validator_keypair(&spec(), 0);
        assert_eq!(kp.pubkey(), sched.validators()[0].pubkey);
        let sig = kp.sign(b"vote");
        assert!(kp.pubkey().verify(b"vote", &sig));
    }
}
