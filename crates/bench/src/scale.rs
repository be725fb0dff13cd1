//! `scale_gen`: deterministic synthesis of mainnet-scale bundle stores.
//!
//! The simulator pipeline tops out around tens of thousands of bundles per
//! minute of wall clock because it simulates the chain, the explorer HTTP
//! API, and the collector faithfully. Benchmarking the *scan* at the
//! paper's scale (~14.8M bundles/day) needs stores three orders of
//! magnitude larger, so this module fabricates segments directly: seeded
//! RNG, zipfian attacker/pool skew, configurable sandwich density, records
//! shaped exactly like collector output (tips, swap-shaped balance deltas,
//! derived bundle ids) but with fabricated signatures.
//!
//! Everything is a pure function of [`ScaleConfig`], so two runs with the
//! same config produce byte-identical stores — the property that lets
//! tests, `scan_bench` and the benchmark's vendored copy compare scan routes
//! against a count planted at generation time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandwich_jito::{bundle_id_of, tip_account};
use sandwich_ledger::{SolDelta, TokenDelta, TransactionMeta};
use sandwich_store::{CollectedBundle, CollectedDetail, StoreWriter};
use sandwich_types::{LamportDelta, Lamports, Pubkey, Signature, Slot};

/// Slots per measurement day (matches `SlotClock`'s default cadence).
pub const SLOTS_PER_DAY: u64 = 216_000;

/// Parameters of a synthetic store. Every field participates in the
/// deterministic stream — change one and the whole store changes.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Total bundles to synthesize.
    pub bundles: u64,
    /// Bundles per sealed segment.
    pub segment_bundles: usize,
    /// Fraction of all bundles that are detectable length-3 sandwiches
    /// (with their three details stored).
    pub sandwich_density: f64,
    /// Fraction of all bundles that are length-3 *near misses*: details
    /// present, but the trio fails a detector criterion.
    pub near_miss_density: f64,
    /// RNG seed.
    pub seed: u64,
    /// Size of the zipf-skewed attacker population.
    pub attackers: usize,
    /// Size of the zipf-skewed pool (mint) population.
    pub pools: usize,
    /// Measurement days the slots span.
    pub days: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            bundles: 1_000_000,
            segment_bundles: 8_192,
            sandwich_density: 0.02,
            near_miss_density: 0.02,
            seed: 20_250_209,
            attackers: 64,
            pools: 512,
            days: 8,
        }
    }
}

/// What `generate` reports back.
#[derive(Clone, Debug)]
pub struct ScaleStats {
    /// Bundles written.
    pub bundles: u64,
    /// Detail records written.
    pub details: u64,
    /// Detectable sandwiches planted.
    pub sandwiches: u64,
    /// Near-miss trios planted (details present, detector must reject).
    pub near_misses: u64,
    /// Segments sealed.
    pub segments: u64,
}

/// Zipf(s=1) sampler over ranks `0..n`: cumulative harmonic weights,
/// binary-searched per draw. Rank 0 is the heaviest.
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

/// Synthesize the whole store into `writer`, one segment at a time (the
/// resident set never exceeds one segment's records).
pub fn generate(writer: &mut StoreWriter, config: &ScaleConfig) -> std::io::Result<ScaleStats> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let attacker_zipf = Zipf::new(config.attackers);
    let pool_zipf = Zipf::new(config.pools);
    let attackers: Vec<Pubkey> = (0..config.attackers.max(1))
        .map(|i| Pubkey::derive(&format!("scale:attacker:{i}")))
        .collect();
    let pools: Vec<Pubkey> = (0..config.pools.max(1))
        .map(|i| Pubkey::derive(&format!("scale:pool:{i}")))
        .collect();

    // Slots advance so the store spans exactly `days` measurement days.
    let total_slots = config.days.max(1) * SLOTS_PER_DAY;
    let mut stats = ScaleStats {
        bundles: 0,
        details: 0,
        sandwiches: 0,
        near_misses: 0,
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
                // Length-1 tips: ~85% at or under the defensive threshold,
                // the rest priority-sized — reproduces the paper's
                // defensive fraction at scale.
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
                // third signer closes the trio — the columnar C1 bit stays
                // clear, so the fast path skips it) and a criterion-3
                // failure (attacker sells first — every column bit is set,
                // so the fast path must decode and let the detector say no).
                let c1_miss = near_miss && rng.gen_bool(0.5);
                let c3_miss = near_miss && !c1_miss;
                let back_signer = if c1_miss {
                    fab_pubkey(&mut rng)
                } else {
                    attacker
                };
                let (front_sol, front_tok, back_sol, back_tok) = if c3_miss {
                    // Attacker sells first, re-buys after: rate improves
                    // for the victim, criterion 3 rejects.
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
                    stats.details += 1;
                }
                if near_miss {
                    stats.near_misses += 1;
                } else {
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

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_core::{scan_store, scan_store_materializing, AnalysisConfig};
    use sandwich_types::SlotClock;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scale-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small() -> ScaleConfig {
        ScaleConfig {
            bundles: 4_000,
            segment_bundles: 512,
            days: 2,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, b) = (tmp("det-a"), tmp("det-b"));
        for dir in [&a, &b] {
            let mut w = StoreWriter::create(dir).unwrap();
            generate(&mut w, &small()).unwrap();
        }
        let sums = |dir: &std::path::Path| {
            sandwich_store::BundleStore::open(dir)
                .unwrap()
                .segments()
                .iter()
                .map(|m| m.checksum.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(sums(&a), sums(&b));
        assert!(!sums(&a).is_empty());
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn planted_sandwiches_are_found_and_near_misses_rejected() {
        let dir = tmp("planted");
        let mut w = StoreWriter::create(&dir).unwrap();
        let config = small();
        let stats = generate(&mut w, &config).unwrap();
        assert!(stats.sandwiches > 0 && stats.near_misses > 0);
        let store = w.into_reader();
        let clock = SlotClock::default();
        let cfg = AnalysisConfig::paper_defaults(config.days);
        let report = scan_store(&store, &clock, &cfg, 2).unwrap();
        assert_eq!(
            report.findings.len() as u64,
            stats.sandwiches,
            "every planted sandwich detected, every near miss rejected"
        );
        // The zero-copy scan above equals a forced full decode.
        let materialized = scan_store_materializing(&store, &clock, &cfg, 2).unwrap();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&materialized).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The report's JSON over a fixed store, pinned by length and FNV-1a 64
    /// as the byte-at-a-time base58 encoder and the `to_string` number
    /// printing wrote it: a drift in how keys or numbers print fails here.
    #[test]
    fn report_bytes_are_pinned() {
        let dir = tmp("pinned");
        let mut w = StoreWriter::create(&dir).unwrap();
        let config = small();
        generate(&mut w, &config).unwrap();
        let store = w.into_reader();
        let cfg = AnalysisConfig::paper_defaults(config.days);
        let report = scan_store(&store, &SlotClock::default(), &cfg, 1).unwrap();
        let bytes = serde_json::to_vec(&report).unwrap();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (67_208, 0x6749_cc4b_bd52_b7a1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The index sink fed from the columnar views and from a full decode of
    /// the same segments must agree byte for byte — planted sandwiches,
    /// c1/c3 near misses and the leader join included.
    #[test]
    fn index_from_columns_equals_index_from_full_decode() {
        use sandwich_query::{build_index, build_index_materializing, QueryConfig};
        let dir = tmp("index-routes");
        let mut w = StoreWriter::create(&dir).unwrap();
        w.set_validators(sandwich_store::ValidatorSpec::new(7, 6))
            .unwrap();
        let stats = generate(&mut w, &small()).unwrap();
        assert!(stats.sandwiches > 0 && stats.near_misses > 0);
        let store = w.into_reader();
        let config = QueryConfig::default();
        let columnar = build_index(&store, &config).unwrap();
        assert_eq!(columnar.totals.sandwiches, stats.sandwiches);
        assert!(columnar.refs.iter().all(|r| r.leader.is_some()));
        let decoded = build_index_materializing(&store, &config).unwrap();
        assert_eq!(
            serde_json::to_string(&columnar).unwrap(),
            serde_json::to_string(&decoded).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(16);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 16];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[8] && counts[8] > 0);
    }
}
