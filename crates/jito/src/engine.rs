//! The block engine: Jito's per-slot tip auction and atomic execution.
//!
//! Semantics reproduced from the paper (§2.3, §3.3):
//!
//! * bundles are ordered by declared tip — the tip is the bid;
//! * an accepted bundle's transactions execute atomically and in order;
//! * if any transaction in a bundle fails, the whole bundle is dropped and
//!   nothing lands (this is what removes the attacker's financial risk);
//! * a bundle conflicting with an already-landed transaction is dropped —
//!   which is why rival attackers outbid each other on tips (Figure 4);
//! * bundles cannot be nested: a transaction already landed via a bundle
//!   cannot be re-included, making length-1 self-bundling a defense.

use std::collections::HashSet;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use sandwich_attrib::LeaderSchedule;
use sandwich_ledger::{Bank, Block, Transaction, TransactionMeta};
use sandwich_types::{Hash, Lamports, Pubkey, Slot, MIN_JITO_TIP};

use crate::bundle::{Bundle, BundleError, BundleId};
use crate::tips::realized_tip;

/// A bundle that landed in a block.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LandedBundle {
    /// The bundle id.
    pub bundle_id: BundleId,
    /// The slot it landed in.
    pub slot: Slot,
    /// Realized tip: lamports actually credited to tip accounts.
    pub tip: Lamports,
    /// Execution metadata per transaction, in bundle order.
    pub metas: Vec<TransactionMeta>,
}

impl LandedBundle {
    /// Number of transactions in the bundle.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Bundles never land empty.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }
}

/// Why a submitted bundle did not land.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// Failed structural validation or minimum tip.
    Invalid(BundleError),
    /// Contained a transaction that already landed this slot (lost the
    /// auction to a higher-tipping bundle).
    Conflict,
    /// A transaction inside the bundle failed; atomicity dropped it all.
    ExecutionFailed {
        /// Index of the failing transaction.
        index: usize,
        /// Failure description.
        error: String,
    },
}

/// A dropped bundle with its reason.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DroppedBundle {
    /// The bundle id.
    pub bundle_id: BundleId,
    /// Why it was dropped.
    pub reason: DropReason,
}

/// Everything produced for one slot.
#[derive(Clone, Debug)]
pub struct SlotResult {
    /// The block.
    pub block: Block,
    /// Bundles that landed, in auction order.
    pub bundles: Vec<LandedBundle>,
    /// Regular (non-bundled) transactions that landed, with metas.
    pub regular: Vec<TransactionMeta>,
    /// Bundles that did not land.
    pub dropped: Vec<DroppedBundle>,
}

/// Cached metric handles for the auction hot path.
struct EngineMetrics {
    auction_size: Arc<sandwich_obs::Histogram>,
    landed: Arc<sandwich_obs::Counter>,
    dropped_invalid: Arc<sandwich_obs::Counter>,
    dropped_conflict: Arc<sandwich_obs::Counter>,
    dropped_exec_failed: Arc<sandwich_obs::Counter>,
    tip_lamports: Arc<sandwich_obs::Histogram>,
}

/// Realized-tip bucket bounds in lamports: the 1,000 minimum up through
/// whale tips, roughly one decade per bucket with a mid-decade step.
const TIP_BUCKETS: [f64; 10] = [1e3, 1e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8, 1e9];

impl EngineMetrics {
    fn new(registry: &sandwich_obs::Registry) -> Self {
        EngineMetrics {
            auction_size: registry.histogram_with_buckets(
                "engine.auction_size",
                &[1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0],
            ),
            landed: registry.counter("engine.bundles_landed"),
            dropped_invalid: registry.counter("engine.bundles_dropped_invalid"),
            dropped_conflict: registry.counter("engine.bundles_dropped_conflict"),
            dropped_exec_failed: registry.counter("engine.bundles_dropped_exec_failed"),
            tip_lamports: registry.histogram_with_buckets("engine.tip_lamports", &TIP_BUCKETS),
        }
    }
}

/// The per-validator block engine.
pub struct BlockEngine {
    bank: Arc<Bank>,
    parent_hash: Hash,
    min_tip: Lamports,
    schedule: Option<Arc<LeaderSchedule>>,
    metrics: Option<EngineMetrics>,
}

impl BlockEngine {
    /// An engine over `bank` with the standard 1,000-lamport minimum tip.
    pub fn new(bank: Arc<Bank>) -> Self {
        let parent_hash = bank.latest_blockhash();
        BlockEngine {
            bank,
            parent_hash,
            min_tip: MIN_JITO_TIP,
            schedule: None,
            metrics: None,
        }
    }

    /// Stamp each produced block with the leader the schedule assigns to
    /// its slot. Without a schedule the bank's validator leads every slot
    /// (the single-validator legacy behavior).
    pub fn with_schedule(mut self, schedule: Arc<LeaderSchedule>) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// The validator that leads `slot` under this engine's schedule.
    pub fn leader_at(&self, slot: Slot) -> Pubkey {
        match &self.schedule {
            Some(schedule) => schedule.leader_at(slot),
            None => self.bank.validator(),
        }
    }

    /// Record auction outcomes (sizes, landed/dropped bundles, realized tip
    /// distribution) into `registry` under the `engine.` prefix.
    pub fn attach_metrics(&mut self, registry: &sandwich_obs::Registry) {
        self.metrics = Some(EngineMetrics::new(registry));
    }

    /// The underlying bank.
    pub fn bank(&self) -> &Arc<Bank> {
        &self.bank
    }

    /// Run the auction and produce the block for `slot`.
    ///
    /// `bundles` are submitted bids; `regular` are native transactions from
    /// the leader's queue (executed after bundles, ordered by priority fee).
    pub fn produce_slot(
        &mut self,
        slot: Slot,
        bundles: Vec<Bundle>,
        regular: Vec<Transaction>,
    ) -> SlotResult {
        if let Some(m) = &self.metrics {
            m.auction_size.observe(bundles.len() as f64);
        }
        let mut landed: Vec<LandedBundle> = Vec::new();
        let mut dropped: Vec<DroppedBundle> = Vec::new();
        let mut landed_ids: HashSet<_> = HashSet::new();

        // Validate, then auction: highest declared tip first (bundle id as
        // a deterministic tie-break).
        let mut valid: Vec<Bundle> = Vec::with_capacity(bundles.len());
        for bundle in bundles {
            match self.validate(&bundle) {
                Ok(()) => valid.push(bundle),
                Err(e) => dropped.push(DroppedBundle {
                    bundle_id: bundle.id(),
                    reason: DropReason::Invalid(e),
                }),
            }
        }
        valid.sort_by(|a, b| {
            b.declared_tip()
                .cmp(&a.declared_tip())
                .then_with(|| a.id().cmp(&b.id()))
        });

        for bundle in valid {
            let bundle_id = bundle.id();
            if bundle
                .transactions
                .iter()
                .any(|t| landed_ids.contains(&t.id()))
            {
                dropped.push(DroppedBundle {
                    bundle_id,
                    reason: DropReason::Conflict,
                });
                continue;
            }
            match self.bank.execute_batch_atomic(&bundle.transactions) {
                Ok(metas) => {
                    for m in &metas {
                        landed_ids.insert(m.tx_id);
                    }
                    let tip = metas.iter().map(realized_tip).sum();
                    landed.push(LandedBundle {
                        bundle_id,
                        slot,
                        tip,
                        metas,
                    });
                }
                Err(failure) => dropped.push(DroppedBundle {
                    bundle_id,
                    reason: DropReason::ExecutionFailed {
                        index: failure.index,
                        error: failure.error.to_string(),
                    },
                }),
            }
        }

        // Regular transactions: priority fee ordering, skip anything that
        // already landed inside a bundle, land failures with fee charged.
        let mut regular_sorted = regular;
        regular_sorted.sort_by(|a, b| {
            b.message
                .priority_fee
                .cmp(&a.message.priority_fee)
                .then_with(|| a.id().cmp(&b.id()))
        });
        let mut regular_metas = Vec::new();
        for tx in regular_sorted {
            if landed_ids.contains(&tx.id()) {
                continue;
            }
            if let Ok(meta) = self.bank.execute_transaction(&tx) {
                landed_ids.insert(meta.tx_id);
                regular_metas.push(meta);
            }
            // Rejected transactions (bad signature / unfunded fee) leave no
            // trace, as on Solana.
        }

        let all_metas: Vec<TransactionMeta> = landed
            .iter()
            .flat_map(|b| b.metas.iter().cloned())
            .chain(regular_metas.iter().cloned())
            .collect();
        let block = Block::derive(slot, self.leader_at(slot), self.parent_hash, &all_metas);
        self.parent_hash = block.blockhash;
        self.bank.set_latest_blockhash(block.blockhash);

        if let Some(m) = &self.metrics {
            m.landed.add(landed.len() as u64);
            for lb in &landed {
                m.tip_lamports.observe(lb.tip.0 as f64);
            }
            for d in &dropped {
                match d.reason {
                    DropReason::Invalid(_) => m.dropped_invalid.inc(),
                    DropReason::Conflict => m.dropped_conflict.inc(),
                    DropReason::ExecutionFailed { .. } => m.dropped_exec_failed.inc(),
                }
            }
        }

        SlotResult {
            block,
            bundles: landed,
            regular: regular_metas,
            dropped,
        }
    }

    fn validate(&self, bundle: &Bundle) -> Result<(), BundleError> {
        // Structure was enforced at construction, but re-check defensively
        // since Bundle is deserializable.
        let revalidated = Bundle::new(bundle.transactions.clone())?;
        let declared = revalidated.declared_tip();
        if declared < self.min_tip {
            return Err(BundleError::TipTooLow {
                declared,
                minimum: self.min_tip,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tips::{tip_accounts, tip_ix};
    use sandwich_ledger::TransactionBuilder;
    use sandwich_types::{Keypair, BASE_FEE};

    fn engine() -> (BlockEngine, Keypair, Keypair) {
        let bank = Arc::new(Bank::new(Keypair::from_label("validator").pubkey()));
        let a = Keypair::from_label("searcher-a");
        let b = Keypair::from_label("searcher-b");
        bank.airdrop(a.pubkey(), Lamports::from_sol(100.0));
        bank.airdrop(b.pubkey(), Lamports::from_sol(100.0));
        (BlockEngine::new(bank), a, b)
    }

    fn tipping_tx(kp: &Keypair, tip: u64, nonce: u64) -> Transaction {
        TransactionBuilder::new(*kp)
            .nonce(nonce)
            .instruction(tip_ix(Lamports(tip), nonce))
            .build()
    }

    #[test]
    fn bundle_lands_with_realized_tip() {
        let (mut engine, a, _) = engine();
        let bundle = Bundle::new(vec![tipping_tx(&a, 50_000, 1)]).unwrap();
        let result = engine.produce_slot(Slot(1), vec![bundle.clone()], vec![]);
        assert_eq!(result.bundles.len(), 1);
        assert_eq!(result.bundles[0].tip, Lamports(50_000));
        assert_eq!(result.bundles[0].bundle_id, bundle.id());
        assert!(result.dropped.is_empty());
        let tip_total: Lamports = tip_accounts()
            .iter()
            .map(|t| engine.bank().lamports(t))
            .sum();
        assert_eq!(tip_total, Lamports(50_000));
    }

    #[test]
    fn low_tip_bundle_rejected() {
        let (mut engine, a, _) = engine();
        let bundle = Bundle::new(vec![tipping_tx(&a, 500, 1)]).unwrap(); // below 1,000 minimum
        let result = engine.produce_slot(Slot(1), vec![bundle], vec![]);
        assert!(result.bundles.is_empty());
        assert!(matches!(
            result.dropped[0].reason,
            DropReason::Invalid(BundleError::TipTooLow { .. })
        ));
    }

    #[test]
    fn auction_resolves_conflicts_by_tip() {
        let (mut engine, a, b) = engine();
        // Both searchers bundle the same victim transaction; higher tip wins.
        let victim = Keypair::from_label("victim");
        engine
            .bank()
            .airdrop(victim.pubkey(), Lamports::from_sol(1.0));
        let victim_tx = TransactionBuilder::new(victim).nonce(1).build();

        let low = Bundle::new(vec![tipping_tx(&a, 10_000, 1), victim_tx.clone()]).unwrap();
        let high = Bundle::new(vec![tipping_tx(&b, 2_000_000, 1), victim_tx.clone()]).unwrap();
        let result = engine.produce_slot(Slot(1), vec![low.clone(), high.clone()], vec![]);

        assert_eq!(result.bundles.len(), 1);
        assert_eq!(result.bundles[0].bundle_id, high.id());
        assert_eq!(result.dropped.len(), 1);
        assert_eq!(result.dropped[0].bundle_id, low.id());
        assert_eq!(result.dropped[0].reason, DropReason::Conflict);
    }

    #[test]
    fn failing_transaction_drops_whole_bundle() {
        let (mut engine, a, _) = engine();
        let broke = Keypair::from_label("broke");
        engine
            .bank()
            .airdrop(broke.pubkey(), Lamports::from_sol(1.0));
        // Second transaction tries to move more than it has → fails → atomic drop.
        let bad = TransactionBuilder::new(broke)
            .transfer(a.pubkey(), Lamports::from_sol(50.0))
            .build();
        let bundle = Bundle::new(vec![tipping_tx(&a, 10_000, 1), bad]).unwrap();
        let before = engine.bank().lamports(&a.pubkey());
        let result = engine.produce_slot(Slot(1), vec![bundle], vec![]);
        assert!(result.bundles.is_empty());
        assert!(matches!(
            &result.dropped[0].reason,
            DropReason::ExecutionFailed { index: 1, .. }
        ));
        // The attacker's tip transaction never landed either — zero risk.
        assert_eq!(engine.bank().lamports(&a.pubkey()), before);
    }

    #[test]
    fn bundled_transaction_not_reexecuted_as_regular() {
        let (mut engine, a, _) = engine();
        let tx = tipping_tx(&a, 5_000, 1);
        let bundle = Bundle::new(vec![tx.clone()]).unwrap();
        // The same tx is also in the regular queue (leader saw it natively).
        let result = engine.produce_slot(Slot(1), vec![bundle], vec![tx]);
        assert_eq!(result.bundles.len(), 1);
        assert!(result.regular.is_empty());
    }

    #[test]
    fn regular_transactions_ordered_by_priority_fee() {
        let (mut engine, a, b) = engine();
        let t_low = TransactionBuilder::new(a)
            .nonce(1)
            .priority_fee(Lamports(10))
            .build();
        let t_high = TransactionBuilder::new(b)
            .nonce(1)
            .priority_fee(Lamports(10_000))
            .build();
        let result = engine.produce_slot(Slot(1), vec![], vec![t_low.clone(), t_high.clone()]);
        assert_eq!(result.regular.len(), 2);
        assert_eq!(result.regular[0].tx_id, t_high.id());
        assert_eq!(result.regular[1].tx_id, t_low.id());
        assert_eq!(result.regular[0].fee, BASE_FEE + Lamports(10_000));
    }

    #[test]
    fn metrics_record_auction_outcomes() {
        let (mut engine, a, _) = engine();
        let registry = sandwich_obs::Registry::new();
        engine.attach_metrics(&registry);
        let good = Bundle::new(vec![tipping_tx(&a, 50_000, 1)]).unwrap();
        let low = Bundle::new(vec![tipping_tx(&a, 500, 2)]).unwrap();
        engine.produce_slot(Slot(1), vec![good, low], vec![]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.bundles_landed"), Some(1));
        assert_eq!(snap.counter("engine.bundles_dropped_invalid"), Some(1));
        assert_eq!(snap.histogram("engine.auction_size").unwrap().count, 1);
        let tips = snap.histogram("engine.tip_lamports").unwrap();
        assert_eq!(tips.count, 1);
        assert!((tips.sum - 50_000.0).abs() < 1e-9);
    }

    #[test]
    fn blocks_carry_the_scheduled_leader() {
        let (engine, a, _) = engine();
        let spec = sandwich_attrib::ValidatorSpec::new(9, 8);
        let schedule = Arc::new(LeaderSchedule::new(&spec));
        let mut engine = engine.with_schedule(schedule.clone());
        for slot in [Slot(1), Slot(4), Slot(431_999), Slot(432_004)] {
            let result = engine.produce_slot(
                slot,
                vec![Bundle::new(vec![tipping_tx(&a, 5_000, slot.0)]).unwrap()],
                vec![],
            );
            assert_eq!(result.block.leader, schedule.leader_at(slot));
        }
    }

    #[test]
    fn unscheduled_engine_blocks_led_by_bank_validator() {
        let (mut engine, _, _) = engine();
        let result = engine.produce_slot(Slot(1), vec![], vec![]);
        assert_eq!(result.block.leader, engine.bank().validator());
    }

    #[test]
    fn blockhash_chains_across_slots() {
        let (mut engine, a, _) = engine();
        let r1 = engine.produce_slot(
            Slot(1),
            vec![Bundle::new(vec![tipping_tx(&a, 5_000, 1)]).unwrap()],
            vec![],
        );
        let r2 = engine.produce_slot(Slot(2), vec![], vec![]);
        assert_eq!(r2.block.parent_hash, r1.block.blockhash);
        assert_eq!(engine.bank().latest_blockhash(), r2.block.blockhash);
    }
}
