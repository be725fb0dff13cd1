//! Pinned inputs: the synthetic store generator and the live-tail segments.
//!
//! `generate` is a copy of `crates/bench/src/scale.rs` (which lives outside
//! the benchmark's own directory and may change): seeded RNG, zipf-skewed
//! attacker and pool populations, planted sandwiches and near misses, records
//! shaped like collector output. The copy keeps the benchmark's inputs fixed
//! while the repository's generator evolves. Everything is a pure function of
//! [`ScaleConfig`]: one seed, one store, byte for byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandwich_jito::{bundle_id_of, tip_account};
use sandwich_ledger::{SolDelta, TokenDelta, TransactionMeta};
use sandwich_store::{CollectedBundle, CollectedDetail, StoreWriter};
use sandwich_types::{Hash, LamportDelta, Lamports, Pubkey, Signature, Slot};

/// Slots per measurement day (matches `SlotClock`'s default cadence).
pub const SLOTS_PER_DAY: u64 = 216_000;
/// Days the generated store spans.
pub const DAYS: u64 = 8;
/// Size of the zipf-skewed attacker population.
pub const ATTACKERS: usize = 64;
/// Size of the zipf-skewed pool (mint) population.
pub const POOLS: usize = 512;
/// Validators stamped into the manifest so the attribution join runs.
pub const VALIDATORS: u32 = 24;
/// Plain bundles in one live-tail segment (plus one planted sandwich).
pub const LIVE_FILL: u64 = 256;
/// Slots reserved per live-tail segment, all past the generated store's tip.
const LIVE_STRIDE: u64 = 1_024;

/// Parameters of a synthetic store.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Total bundles to synthesize.
    pub bundles: u64,
    /// Bundles per sealed segment.
    pub segment_bundles: usize,
    /// Fraction of bundles that are detectable length-3 sandwiches.
    pub sandwich_density: f64,
    /// Fraction of bundles that are length-3 near misses.
    pub near_miss_density: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ScaleConfig {
    /// The benchmark's store shape at `bundles` bundles: 8 192-bundle
    /// segments, 2 % planted sandwiches, 2 % near misses.
    pub fn new(seed: u64, bundles: u64) -> ScaleConfig {
        ScaleConfig {
            bundles,
            segment_bundles: 8_192,
            sandwich_density: 0.02,
            near_miss_density: 0.02,
            seed,
        }
    }
}

/// What `generate` planted.
#[derive(Clone, Debug)]
pub struct ScaleStats {
    /// Bundles written.
    pub bundles: u64,
    /// Detectable sandwiches planted.
    pub sandwiches: u64,
    /// Segments sealed.
    pub segments: u64,
}

/// Zipf(s=1) sampler over ranks `0..n`; rank 0 is the heaviest.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build the sampler for a population of `n` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut cumulative = Vec::with_capacity(n.max(1));
        let mut acc = 0.0;
        for i in 0..n.max(1) {
            acc += 1.0 / (i + 1) as f64;
            cumulative.push(acc);
        }
        Zipf { cumulative }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen::<f64>() * self.cumulative.last().copied().unwrap_or(1.0);
        self.cumulative.partition_point(|&c| c < u)
    }
}

/// Address of the attacker at zipf rank `rank`.
pub fn attacker(rank: usize) -> Pubkey {
    Pubkey::derive(&format!("scale:attacker:{rank}"))
}

/// Mint of the pool at zipf rank `rank`.
pub fn pool(rank: usize) -> Pubkey {
    Pubkey::derive(&format!("scale:pool:{rank}"))
}

fn fab_signature(rng: &mut StdRng) -> Signature {
    let mut bytes = [0u8; 64];
    rng.fill(&mut bytes);
    Signature(bytes)
}

fn fab_pubkey(rng: &mut StdRng) -> Pubkey {
    let mut bytes = [0u8; 32];
    rng.fill(&mut bytes);
    Pubkey(bytes)
}

/// A swap-shaped meta: the signer's SOL delta nets the trade against fee
/// and tip (the shape trade extraction expects), plus one token leg.
fn swap_meta(
    tx_id: Signature,
    signer: Pubkey,
    mint: Pubkey,
    sol_delta_trade: i64,
    tokens: i128,
    tip: u64,
) -> TransactionMeta {
    let fee = 5_000i64;
    let mut sol_deltas = vec![SolDelta {
        account: signer,
        delta: LamportDelta(sol_delta_trade - fee - tip as i64),
    }];
    if tip > 0 {
        sol_deltas.push(SolDelta {
            account: tip_account(0),
            delta: LamportDelta(tip as i64),
        });
    }
    TransactionMeta {
        tx_id,
        signer,
        fee: Lamports(fee as u64),
        priority_fee: Lamports::ZERO,
        success: true,
        error: None,
        sol_deltas,
        token_deltas: vec![TokenDelta {
            owner: signer,
            mint,
            delta: tokens,
        }],
    }
}

enum Shape {
    Plain(usize),
    Sandwich,
    NearMiss,
}

/// Synthesize the whole store into `writer`, one segment at a time.
pub fn generate(writer: &mut StoreWriter, config: &ScaleConfig) -> std::io::Result<ScaleStats> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let attacker_zipf = Zipf::new(ATTACKERS);
    let pool_zipf = Zipf::new(POOLS);
    let attackers: Vec<Pubkey> = (0..ATTACKERS).map(attacker).collect();
    let pools: Vec<Pubkey> = (0..POOLS).map(pool).collect();

    let total_slots = DAYS * SLOTS_PER_DAY;
    let mut stats = ScaleStats {
        bundles: 0,
        sandwiches: 0,
        segments: 0,
    };

    let mut bundles = Vec::with_capacity(config.segment_bundles);
    let mut details = Vec::new();
    let mut n: u64 = 0;
    while n < config.bundles {
        let slot = Slot(n * total_slots / config.bundles.max(1));
        let timestamp_ms = slot.0 * 400;
        // Bundle-length mix, roughly the paper's: length 1 dominates.
        let u: f64 = rng.gen();
        let shape = if u < config.sandwich_density {
            Shape::Sandwich
        } else if u < config.sandwich_density + config.near_miss_density {
            Shape::NearMiss
        } else {
            let v: f64 = rng.gen();
            Shape::Plain(if v < 0.78 {
                1
            } else if v < 0.84 {
                2
            } else if v < 0.94 {
                3
            } else if v < 0.98 {
                4
            } else {
                5
            })
        };

        match shape {
            Shape::Plain(len) => {
                let tx_ids: Vec<Signature> = (0..len).map(|_| fab_signature(&mut rng)).collect();
                // Length-1 tips: ~85% at or under the defensive threshold.
                let tip = if len == 1 {
                    if rng.gen_bool(0.85) {
                        rng.gen_range(1_000u64..100_001)
                    } else {
                        rng.gen_range(100_001u64..10_000_000)
                    }
                } else {
                    rng.gen_range(10_000u64..5_000_000)
                };
                bundles.push(CollectedBundle {
                    bundle_id: bundle_id_of(&tx_ids),
                    slot,
                    timestamp_ms,
                    tip: Lamports(tip),
                    tx_ids,
                });
            }
            Shape::Sandwich | Shape::NearMiss => {
                let attacker = attackers[attacker_zipf.sample(&mut rng)];
                let mint = pools[pool_zipf.sample(&mut rng)];
                let victim = fab_pubkey(&mut rng);
                let tx_ids: Vec<Signature> = (0..3).map(|_| fab_signature(&mut rng)).collect();
                let tip = rng.gen_range(100_000u64..20_000_000);
                let sol_in = rng.gen_range(1_000_000_000i64..100_000_000_000);
                let tokens = rng.gen_range(1_000i64..1_000_000) as i128;
                let victim_sol = sol_in + rng.gen_range(sol_in / 10..sol_in / 2);
                let profit = rng.gen_range(sol_in / 100..sol_in / 10);
                let near_miss = matches!(shape, Shape::NearMiss);
                // A near miss alternates between a criterion-1 failure (a
                // third signer closes the trio, so the columnar fast path
                // skips it) and a criterion-3 failure (attacker sells first,
                // so the fast path must decode and let the detector say no).
                let c1_miss = near_miss && rng.gen_bool(0.5);
                let c3_miss = near_miss && !c1_miss;
                let back_signer = if c1_miss {
                    fab_pubkey(&mut rng)
                } else {
                    attacker
                };
                let (front_sol, front_tok, back_sol, back_tok) = if c3_miss {
                    (sol_in, -tokens, -(sol_in - profit), tokens)
                } else {
                    (-sol_in, tokens, sol_in + profit, -tokens)
                };
                let front = swap_meta(tx_ids[0], attacker, mint, front_sol, front_tok, 0);
                let mid = swap_meta(tx_ids[1], victim, mint, -victim_sol, tokens, 0);
                let back = swap_meta(tx_ids[2], back_signer, mint, back_sol, back_tok, tip);
                let bundle_id = bundle_id_of(&tx_ids);
                for meta in [front, mid, back] {
                    details.push(CollectedDetail {
                        bundle_id,
                        slot,
                        meta,
                    });
                }
                if !near_miss {
                    stats.sandwiches += 1;
                }
                bundles.push(CollectedBundle {
                    bundle_id,
                    slot,
                    timestamp_ms,
                    tip: Lamports(tip),
                    tx_ids,
                });
            }
        }

        n += 1;
        stats.bundles += 1;
        if bundles.len() >= config.segment_bundles || n == config.bundles {
            writer.seal_segment(
                std::mem::take(&mut bundles),
                std::mem::take(&mut details),
                Vec::new(),
            )?;
            stats.segments += 1;
            bundles.reserve(config.segment_bundles);
        }
    }
    Ok(stats)
}

/// One live-tail segment: records plus where its planted sandwich sits.
pub struct LiveSegment {
    /// [`LIVE_FILL`] plain bundles and the planted sandwich (last by slot).
    pub bundles: Vec<CollectedBundle>,
    /// The planted sandwich's three details.
    pub details: Vec<CollectedDetail>,
    /// The planted sandwich's bundle id.
    pub planted_id: Hash,
    /// The planted sandwich's slot, the highest in the segment.
    pub planted_slot: u64,
}

/// First slot of live-tail segment `n`; every slot of the segment lies in
/// `[live_base_slot(n), live_base_slot(n + 1))`, past the generated store.
pub fn live_base_slot(n: u64) -> u64 {
    DAYS * SLOTS_PER_DAY + (n + 1) * LIVE_STRIDE
}

/// The `n`-th live-tail segment for `seed`: [`LIVE_FILL`] plain bundles and
/// one detectable sandwich past everything sealed before it.
pub fn live_segment(seed: u64, n: u64) -> LiveSegment {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11fe_7a11 ^ (n << 32));
    let base = live_base_slot(n);
    let mut bundles: Vec<CollectedBundle> = (0..LIVE_FILL)
        .map(|i| {
            let tx_ids = vec![fab_signature(&mut rng)];
            let slot = Slot(base + i * 2);
            CollectedBundle {
                bundle_id: bundle_id_of(&tx_ids),
                slot,
                timestamp_ms: slot.0 * 400,
                tip: Lamports(25_000 + i),
                tx_ids,
            }
        })
        .collect();
    let attacker = attacker(rng.gen_range(0..ATTACKERS));
    let mint = pool(rng.gen_range(0..POOLS));
    let victim = fab_pubkey(&mut rng);
    let tx_ids: Vec<Signature> = (0..3).map(|_| fab_signature(&mut rng)).collect();
    let (sol_in, tokens, tip) = (2_000_000_000i64, 10_000i128, 1_000_000u64);
    let front = swap_meta(tx_ids[0], attacker, mint, -sol_in, tokens, 0);
    let mid = swap_meta(tx_ids[1], victim, mint, -(sol_in + 600_000_000), tokens, 0);
    let back = swap_meta(
        tx_ids[2],
        attacker,
        mint,
        sol_in + 150_000_000,
        -tokens,
        tip,
    );
    let planted_id = bundle_id_of(&tx_ids);
    let planted_slot = base + LIVE_FILL * 2;
    let details = [front, mid, back]
        .into_iter()
        .map(|meta| CollectedDetail {
            bundle_id: planted_id,
            slot: Slot(planted_slot),
            meta,
        })
        .collect();
    bundles.push(CollectedBundle {
        bundle_id: planted_id,
        slot: Slot(planted_slot),
        timestamp_ms: planted_slot * 400,
        tip: Lamports(tip),
        tx_ids,
    });
    LiveSegment {
        bundles,
        details,
        planted_id,
        planted_slot,
    }
}
