//! The scenario driver: generates the 120-day bundle stream.
//!
//! Each tick builds the period-appropriate mix of bundles — defensive
//! self-bundles, priority bundles, app bundles, decoy length-3 bundles, and
//! genuine sandwich attacks planned with the DEX math — and lands them
//! through the Jito block engine. Ground truth is recorded per day so the
//! detector's precision/recall can be validated, something the paper could
//! not do against mainnet.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sandwich_dex::{plan_optimal, swap_ix, victim_min_out, PoolState};
use sandwich_jito::{tip_ix, BlockEngine, Bundle, BundleId, SlotResult};
use sandwich_ledger::{native_sol_mint, Transaction, TransactionBuilder};
use sandwich_types::{Lamports, Pubkey, SlotClock};

use crate::config::{lognormal_clamped, poisson, weighted_choice, ScenarioConfig};
use crate::labels::{
    BenignKind, BundleLabel, BundleProvenance, LabelBook, NearMissFamily, SandwichLabel,
};
use crate::population::Population;
use crate::universe::{PoolRef, Universe};

/// Ground truth for one day.
#[derive(Clone, Debug, Default)]
pub struct DayTruth {
    /// Landed bundles by length (index 0 = length 1).
    pub bundles_by_len: [u64; 5],
    /// Landed sandwich bundles.
    pub sandwiches: u64,
    /// Landed sandwiches with no SOL leg.
    pub non_sol_sandwiches: u64,
    /// Landed sandwiches disguised as length-4 bundles.
    pub disguised_sandwiches: u64,
    /// Landed defensive length-1 bundles.
    pub defensive: u64,
    /// Lamports spent on defensive tips.
    pub defensive_tips_lamports: u64,
    /// Victim losses (SOL-legged sandwiches only), lamports.
    pub victim_loss_lamports: u64,
    /// Attacker gains after tips (SOL-legged only), lamports.
    pub attacker_gain_lamports: i128,
    /// Bundles dropped by the engine (conflicts, failures).
    pub dropped: u64,
}

impl DayTruth {
    /// Total landed bundles.
    pub fn total_bundles(&self) -> u64 {
        self.bundles_by_len.iter().sum()
    }
}

/// Ground truth for the whole run.
#[derive(Default)]
pub struct GroundTruth {
    /// Per-day aggregates.
    pub per_day: Vec<DayTruth>,
    /// Bundle ids of every landed sandwich.
    pub sandwich_ids: HashSet<BundleId>,
    /// Subset of `sandwich_ids` with no SOL leg.
    pub non_sol_sandwich_ids: HashSet<BundleId>,
    /// Bundle ids of every landed defensive bundle.
    pub defensive_ids: HashSet<BundleId>,
    /// Bundle ids of landed disguised (length-4) sandwiches.
    pub disguised_sandwich_ids: HashSet<BundleId>,
}

impl GroundTruth {
    /// Landed sandwiches across all days.
    pub fn total_sandwiches(&self) -> u64 {
        self.per_day.iter().map(|d| d.sandwiches).sum()
    }

    /// Landed defensive bundles across all days.
    pub fn total_defensive(&self) -> u64 {
        self.per_day.iter().map(|d| d.defensive).sum()
    }

    /// Total victim losses in lamports (SOL-legged only).
    pub fn total_victim_loss_lamports(&self) -> u64 {
        self.per_day.iter().map(|d| d.victim_loss_lamports).sum()
    }
}

/// Output of one simulation tick.
pub struct TickOutcome {
    /// Day index.
    pub day: u64,
    /// Tick within the day.
    pub tick: u64,
    /// Everything the engine produced for the tick's slot.
    pub result: SlotResult,
}

/// Cached metric handles for the tick loop.
struct SimMetrics {
    ticks: Arc<sandwich_obs::Counter>,
    slots_produced: Arc<sandwich_obs::Counter>,
    bundles_submitted: Arc<sandwich_obs::Counter>,
    tick_seconds: Arc<sandwich_obs::Histogram>,
}

impl SimMetrics {
    fn new(registry: &sandwich_obs::Registry) -> Self {
        SimMetrics {
            ticks: registry.counter("sim.ticks"),
            slots_produced: registry.counter("sim.slots_produced"),
            bundles_submitted: registry.counter("sim.bundles_submitted"),
            tick_seconds: registry.histogram("sim.tick_seconds"),
        }
    }
}

/// The running simulation.
pub struct Simulation {
    config: ScenarioConfig,
    universe: Universe,
    population: Population,
    engine: BlockEngine,
    rng: StdRng,
    clock: SlotClock,
    tick: u64,
    metrics: Option<SimMetrics>,
    pub(crate) truth: GroundTruth,
    labels: LabelBook,
    colluder_flags: Vec<bool>,
    colluder_ticks_today: u64,
}

impl Simulation {
    /// Build the universe, provision agents, and stand ready to step.
    pub fn new(config: ScenarioConfig) -> Simulation {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut universe = Universe::setup(&config, &mut rng);
        let population = Population::provision(
            &mut universe,
            config.trader_count,
            config.attacker_count,
            config.defender_count,
        );
        let engine =
            BlockEngine::new(universe.bank.clone()).with_schedule(universe.schedule.clone());
        let truth = GroundTruth {
            per_day: vec![DayTruth::default(); config.days as usize],
            ..Default::default()
        };
        let colluder_flags = config.colluder_flags();
        Simulation {
            config,
            universe,
            population,
            engine,
            rng,
            clock: SlotClock::default(),
            tick: 0,
            metrics: None,
            truth,
            labels: LabelBook::new(),
            colluder_flags,
            colluder_ticks_today: 0,
        }
    }

    /// Record driver progress (ticks, slots, submitted bundles, wall-clock
    /// tick durations) into `registry` under the `sim.` prefix, and wire
    /// the block engine (`engine.`) and bank (`bank.`) into the same
    /// registry so one snapshot covers the whole producing side.
    pub fn attach_registry(&mut self, registry: &sandwich_obs::Registry) {
        self.metrics = Some(SimMetrics::new(registry));
        self.engine.attach_metrics(registry);
        self.universe.bank.attach_metrics(registry);
    }

    /// The scenario configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The slot↔wall-clock mapping used by this run.
    pub fn clock(&self) -> SlotClock {
        self.clock
    }

    /// Ground truth accumulated so far.
    pub fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Per-bundle labels of every *landed* bundle so far. The labels never
    /// travel through the explorer/collector path — the measured system is
    /// blind to them; consumers join on the bundle id after analysis.
    pub fn labels(&self) -> &LabelBook {
        &self.labels
    }

    /// Advance one tick; `None` once the measurement period is complete.
    pub fn step(&mut self) -> Option<TickOutcome> {
        let day = self.tick / self.config.ticks_per_day;
        if day >= self.config.days {
            return None;
        }
        let tick_in_day = self.tick % self.config.ticks_per_day;
        if tick_in_day == 0 {
            self.population.top_up(&self.universe);
            // How many of today's slots a colluder leads — the day's
            // sandwich budget is spread over exactly these ticks.
            self.colluder_ticks_today = (0..self.config.ticks_per_day)
                .filter(|&t| {
                    let s = self.config.slot_for(day, t);
                    self.colluder_flags[self.universe.schedule.leader_index_at(s)]
                })
                .count() as u64;
        }

        let slot = self.config.slot_for(day, tick_in_day);
        let leader_index = self.universe.schedule.leader_index_at(slot);
        let leader_is_colluder = self.colluder_flags[leader_index];

        let tpd = self.config.ticks_per_day as f64;
        let mut bundles: Vec<Bundle> = Vec::new();
        let mut pending: HashMap<BundleId, BundleLabel> = HashMap::new();
        let regular: Vec<Transaction> = Vec::new();

        // Sandwiches (they are length-3 bundles; decoys fill the rest).
        // Attackers can only front-run what they can see: sandwiches land
        // exclusively in slots whose leader forwards its mempool view to
        // the private channel. The day's budget is divided over colluder
        // ticks so the expected daily totals match the calibration even
        // though the attacks are concentrated in colluder blocks.
        let sandwich_rate = if leader_is_colluder && self.colluder_ticks_today > 0 {
            self.config.sandwiches_on_day(day) / self.colluder_ticks_today as f64
        } else {
            0.0
        };
        let n_sandwich = poisson(&mut self.rng, sandwich_rate);
        // Concentrating the day's budget into colluder ticks makes
        // multi-sandwich ticks common; each pool is attacked at most once
        // per slot, since a second plan against the same pool would be
        // stale the moment the first bundle executes.
        let mut attacked_pools: HashSet<(Pubkey, Pubkey)> = HashSet::new();
        for _ in 0..n_sandwich {
            self.build_sandwich(&mut bundles, &mut pending, &mut attacked_pools);
        }

        // Length-1: defensive vs priority.
        let n1 = poisson(
            &mut self.rng,
            self.config.bundles_of_length_per_day(1) / tpd,
        );
        let defensive_frac = self.config.defensive_fraction_on_day(day);
        for _ in 0..n1 {
            if self.rng.gen::<f64>() < defensive_frac {
                self.build_defensive(&mut bundles, &mut pending);
            } else {
                self.build_priority(&mut bundles, &mut pending);
            }
        }

        // Length-2 app bundles.
        let n2 = poisson(
            &mut self.rng,
            self.config.bundles_of_length_per_day(2) / tpd,
        );
        for _ in 0..n2 {
            self.build_len2(&mut bundles, &mut pending);
        }

        // Length-3 decoys (length-3 volume minus the sandwich rate).
        let decoy_rate = (self.config.bundles_of_length_per_day(3) / tpd - sandwich_rate).max(0.0);
        let n3 = poisson(&mut self.rng, decoy_rate);
        for _ in 0..n3 {
            self.build_len3_decoy(&mut bundles, &mut pending);
        }

        // Lengths 4 and 5.
        for len in [4usize, 5] {
            let n = poisson(
                &mut self.rng,
                self.config.bundles_of_length_per_day(len) / tpd,
            );
            for _ in 0..n {
                self.build_batch(len, &mut bundles, &mut pending);
            }
        }

        let tick_started = std::time::Instant::now();
        let submitted = bundles.len() as u64;
        let result = self.engine.produce_slot(slot, bundles, regular);
        let provenance = BundleProvenance {
            leader: result.block.leader,
            colluder: leader_is_colluder,
        };
        self.account_truth(day, &pending, &result, provenance);
        if let Some(m) = &self.metrics {
            m.ticks.inc();
            m.slots_produced.inc();
            m.bundles_submitted.add(submitted);
            m.tick_seconds.observe(tick_started.elapsed().as_secs_f64());
        }

        self.tick += 1;
        Some(TickOutcome {
            day,
            tick: tick_in_day,
            result,
        })
    }

    /// Run to completion, feeding every tick to `sink`.
    pub fn run_to_completion<F: FnMut(&TickOutcome)>(&mut self, mut sink: F) {
        while let Some(outcome) = self.step() {
            sink(&outcome);
        }
    }

    fn account_truth(
        &mut self,
        day: u64,
        pending: &HashMap<BundleId, BundleLabel>,
        result: &SlotResult,
        provenance: BundleProvenance,
    ) {
        let truth = &mut self.truth.per_day[day as usize];
        truth.dropped += result.dropped.len() as u64;
        for lb in &result.bundles {
            let len = lb.len().min(5);
            truth.bundles_by_len[len - 1] += 1;
            let label = pending
                .get(&lb.bundle_id)
                .cloned()
                .unwrap_or(BundleLabel::Benign(BenignKind::Batch));
            match &label {
                BundleLabel::Sandwich(intent) => {
                    truth.sandwiches += 1;
                    self.truth.sandwich_ids.insert(lb.bundle_id);
                    if intent.disguised {
                        truth.disguised_sandwiches += 1;
                        self.truth.disguised_sandwich_ids.insert(lb.bundle_id);
                    }
                    if intent.sol_legged {
                        truth.victim_loss_lamports += intent.expected_loss_lamports;
                        truth.attacker_gain_lamports += intent.expected_gain_lamports;
                    } else {
                        truth.non_sol_sandwiches += 1;
                        self.truth.non_sol_sandwich_ids.insert(lb.bundle_id);
                    }
                }
                BundleLabel::Defensive => {
                    truth.defensive += 1;
                    truth.defensive_tips_lamports += lb.tip.0;
                    self.truth.defensive_ids.insert(lb.bundle_id);
                }
                BundleLabel::Benign(_) | BundleLabel::NearMiss(_) => {}
            }
            self.labels.insert(lb.bundle_id, label);
            self.labels.insert_provenance(lb.bundle_id, provenance);
        }
    }

    // ----- agent picks and samplers -------------------------------------

    fn pick(rng: &mut StdRng, agents: &[crate::population::Agent]) -> usize {
        rng.gen_range(0..agents.len())
    }

    fn slippage_bps(&mut self) -> u32 {
        *weighted_choice(
            &mut self.rng,
            &[
                (50u32, 0.22),
                (100, 0.36),
                (200, 0.26),
                (500, 0.13),
                (1_000, 0.03),
            ],
        )
    }

    // ----- bundle builders ----------------------------------------------

    /// Build a sandwich bundle (and occasionally a rival's competing one).
    ///
    /// Not every sampled victim is profitably attackable (tight slippage,
    /// deep pool, small trade) — exactly as on mainnet — so this retries
    /// with fresh samples a few times before giving the event up.
    fn build_sandwich(
        &mut self,
        bundles: &mut Vec<Bundle>,
        pending: &mut HashMap<BundleId, BundleLabel>,
        attacked_pools: &mut HashSet<(Pubkey, Pubkey)>,
    ) {
        // Decide the pool class once so retries cannot skew the SOL /
        // non-SOL mix (SOL plans fail more often than token plans).
        let non_sol = self.rng.gen::<f64>() < self.config.non_sol_sandwich_fraction;
        for _ in 0..8 {
            if self.try_build_sandwich(non_sol, bundles, pending, attacked_pools) {
                return;
            }
        }
    }

    fn try_build_sandwich(
        &mut self,
        non_sol: bool,
        bundles: &mut Vec<Bundle>,
        pending: &mut HashMap<BundleId, BundleLabel>,
        attacked_pools: &mut HashSet<(Pubkey, Pubkey)>,
    ) -> bool {
        let pool_ref: PoolRef = if non_sol && !self.universe.token_pools.is_empty() {
            let i = self.rng.gen_range(0..self.universe.token_pools.len());
            self.universe.token_pools[i].clone()
        } else {
            let i = self.rng.gen_range(0..self.universe.sol_pools.len());
            self.universe.sol_pools[i].clone()
        };
        if attacked_pools.contains(&(pool_ref.mint_a, pool_ref.mint_b)) {
            return false; // already attacked this slot; retry resamples
        }
        let pool = self.universe.pool(&pool_ref);
        let (mint_in, mint_out) = if pool_ref.has_sol_leg {
            (native_sol_mint(), pool_ref.token_of_sol_pool())
        } else if self.rng.gen::<bool>() {
            (pool.mint_x, pool.mint_y)
        } else {
            (pool.mint_y, pool.mint_x)
        };
        let (r_in, _) = match pool.reserves_for(&mint_in) {
            Some(r) => r,
            None => return false,
        };

        let victim_idx = Self::pick(&mut self.rng, &self.population.traders);
        let victim_pk = self.population.traders[victim_idx].pubkey();
        let victim_in = if pool_ref.has_sol_leg {
            // Log-normal sizes, capped at 5% of the reserve and at what
            // the victim can afford. Trades below the pool's profitability
            // threshold (~0.6% of the reserve with a 30 bps LP fee) simply
            // fail planning and the retry loop resamples — attackers skip
            // unattractive victims rather than inflating their size.
            let sol = lognormal_clamped(&mut self.rng, 0.35, 1.6, 0.02, 300.0);
            let affordable = self.universe.bank.lamports(&victim_pk).0 / 2;
            ((sol * 1e9) as u64)
                .min(r_in / 12)
                .min(affordable)
                .max(1_000_000)
        } else {
            let frac = lognormal_clamped(&mut self.rng, 0.012, 0.8, 0.002, 0.04);
            let affordable = self.universe.bank.token_balance(&victim_pk, &mint_in) / 2;
            let amount = ((r_in as f64 * frac) as u64).min(affordable);
            if amount < 1_000 {
                return false;
            }
            amount
        };
        let slippage = self.slippage_bps();
        let min_out = match victim_min_out(&pool, &mint_in, victim_in, slippage) {
            Some(m) if m > 0 => m,
            _ => return false,
        };

        let attacker_idx = Self::pick(&mut self.rng, &self.population.attackers);

        let victim_nonce = self.population.traders[victim_idx].next_nonce();
        let victim_tx = TransactionBuilder::new(self.population.traders[victim_idx].keypair)
            .nonce(victim_nonce)
            .recent_blockhash(self.universe.bank.latest_blockhash())
            .instruction(swap_ix(mint_in, mint_out, victim_in, min_out))
            .build();

        let primary = self.plan_attack(
            &pool,
            &pool_ref,
            mint_in,
            mint_out,
            victim_in,
            min_out,
            &victim_tx,
            attacker_idx,
            1.0,
        );
        let Some((bundle, mut intent)) = primary else {
            return false;
        };
        // Occasionally disguise the attack behind an appended unrelated
        // transaction — a length-4 bundle the paper's length-3 methodology
        // cannot see (its counts are explicitly a lower bound, §3.2).
        let bundle = if self.rng.gen::<f64>() < self.config.disguised_sandwich_probability {
            let from = Self::pick(&mut self.rng, &self.population.traders);
            let to = Self::pick(&mut self.rng, &self.population.traders);
            let to_pk = self.population.traders[to].pubkey();
            let blockhash = self.universe.bank.latest_blockhash();
            let agent = &mut self.population.traders[from];
            let nonce = agent.next_nonce();
            let extra = TransactionBuilder::new(agent.keypair)
                .nonce(nonce)
                .recent_blockhash(blockhash)
                .transfer(to_pk, Lamports(2_000_000))
                .build();
            let mut txs = bundle.transactions.clone();
            txs.push(extra);
            match Bundle::new(txs) {
                Ok(disguised) => {
                    intent.disguised = true;
                    disguised
                }
                Err(_) => bundle,
            }
        } else {
            bundle
        };
        pending.insert(bundle.id(), BundleLabel::Sandwich(intent));
        bundles.push(bundle);
        attacked_pools.insert((pool_ref.mint_a, pool_ref.mint_b));

        // Occasionally a rival contends for the same victim with a smaller
        // bankroll and its own tip — only one can land.
        if self.rng.gen::<f64>() < self.config.rival_attacker_probability
            && self.population.attackers.len() > 1
        {
            let mut rival_idx = Self::pick(&mut self.rng, &self.population.attackers);
            if rival_idx == attacker_idx {
                rival_idx = (rival_idx + 1) % self.population.attackers.len();
            }
            if let Some((bundle, intent)) = self.plan_attack(
                &pool, &pool_ref, mint_in, mint_out, victim_in, min_out, &victim_tx, rival_idx,
                0.25,
            ) {
                pending.insert(bundle.id(), BundleLabel::Sandwich(intent));
                bundles.push(bundle);
            }
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn plan_attack(
        &mut self,
        pool: &PoolState,
        pool_ref: &PoolRef,
        mint_in: Pubkey,
        mint_out: Pubkey,
        victim_in: u64,
        min_out: u64,
        victim_tx: &Transaction,
        attacker_idx: usize,
        bankroll_fraction: f64,
    ) -> Option<(Bundle, SandwichLabel)> {
        let attacker_pk = self.population.attackers[attacker_idx].pubkey();
        let bankroll_full = if mint_in == native_sol_mint() {
            self.universe
                .bank
                .lamports(&attacker_pk)
                .saturating_sub(Lamports::from_sol(10.0))
                .0
        } else {
            self.universe.bank.token_balance(&attacker_pk, &mint_in)
        };
        let bankroll = (bankroll_full as f64 * bankroll_fraction) as u64;
        let min_profit: i128 = if pool_ref.has_sol_leg { 100_000 } else { 1 };
        let plan = plan_optimal(pool, &mint_in, victim_in, min_out, bankroll, min_profit)?;

        // Tip: a share of expected profit for SOL pools (bid shading); a
        // heavy log-normal for unpriceable token pools. This is what makes
        // sandwich tips sit orders of magnitude above app-bundle tips
        // (Figure 4).
        let tip = if pool_ref.has_sol_leg {
            let share = 0.08 + self.rng.gen::<f64>() * 0.22;
            let t = (plan.gross_profit as f64 * share) as u64;
            t.clamp(
                150_000,
                (plan.gross_profit as u64)
                    .saturating_sub(50_000)
                    .max(150_000),
            )
        } else {
            lognormal_clamped(&mut self.rng, 2_200_000.0, 0.8, 300_000.0, 60_000_000.0) as u64
        };

        // Some attackers dump extra inventory in the back-run, selling more
        // than the front-run bought (the paper's footnote 7). That is why
        // mainnet attacker gains exceed victim losses in aggregate.
        let mut back_sell = plan.front_run_out;
        let mut gross_gain = plan.gross_profit;
        if pool_ref.has_sol_leg && self.rng.gen::<f64>() < 0.10 {
            let extra_frac = 0.05 + self.rng.gen::<f64>() * 0.3;
            let extra = ((plan.front_run_out as f64 * extra_frac) as u64)
                .min(self.universe.bank.token_balance(&attacker_pk, &mint_out) / 2);
            if extra > 0 {
                let mut p2 = pool.clone();
                p2.apply(&mint_in, plan.front_run_in, plan.front_run_out);
                p2.apply(&mint_in, victim_in, plan.victim_out);
                if let Some(total_out) = p2.quote(&mint_out, plan.front_run_out + extra) {
                    back_sell = plan.front_run_out + extra;
                    gross_gain = total_out as i128 - plan.front_run_in as i128;
                }
            }
        }

        let blockhash = self.universe.bank.latest_blockhash();
        let attacker = &mut self.population.attackers[attacker_idx];
        let front = TransactionBuilder::new(attacker.keypair)
            .nonce(attacker.next_nonce())
            .recent_blockhash(blockhash)
            .instruction(swap_ix(mint_in, mint_out, plan.front_run_in, 0))
            .build();
        let back_nonce = attacker.next_nonce();
        let back = TransactionBuilder::new(attacker.keypair)
            .nonce(back_nonce)
            .recent_blockhash(blockhash)
            .instruction(swap_ix(mint_out, mint_in, back_sell, 0))
            .instruction(tip_ix(Lamports(tip), back_nonce))
            .build();

        let victim_pk = victim_tx.signer();
        let bundle = Bundle::new(vec![front, victim_tx.clone(), back]).ok()?;
        let intent = if pool_ref.has_sol_leg {
            // Same methodology as the paper's quantification (§4.1): the
            // attacker's realized rate times the victim's volume is the
            // price the victim would have paid unsandwiched.
            let rate_a = plan.front_run_in as f64 / plan.front_run_out.max(1) as f64;
            let loss = (victim_in as f64 - rate_a * plan.victim_out as f64).max(0.0);
            SandwichLabel {
                attacker: attacker_pk,
                victim: victim_pk,
                sol_legged: true,
                disguised: false,
                expected_loss_lamports: loss as u64,
                expected_gain_lamports: gross_gain - tip as i128,
            }
        } else {
            SandwichLabel {
                attacker: attacker_pk,
                victim: victim_pk,
                sol_legged: false,
                disguised: false,
                expected_loss_lamports: 0,
                expected_gain_lamports: 0,
            }
        };
        Some((bundle, intent))
    }

    /// A defensive self-bundle: one transaction, tiny tip (≤ 100k lamports).
    fn build_defensive(
        &mut self,
        bundles: &mut Vec<Bundle>,
        pending: &mut HashMap<BundleId, BundleLabel>,
    ) {
        let idx = Self::pick(&mut self.rng, &self.population.defenders);
        let tip = lognormal_clamped(&mut self.rng, 7_000.0, 1.0, 1_000.0, 100_000.0) as u64;
        let do_swap = self.rng.gen::<f64>() < 0.3;
        let blockhash = self.universe.bank.latest_blockhash();

        let (swap_instr, transfer_to) = if do_swap {
            let p = &self.universe.sol_pools[self.rng.gen_range(0..self.universe.sol_pools.len())];
            let amount = (lognormal_clamped(&mut self.rng, 0.05, 1.0, 0.001, 2.0) * 1e9) as u64;
            (
                Some(swap_ix(native_sol_mint(), p.token_of_sol_pool(), amount, 0)),
                None,
            )
        } else {
            let other = Self::pick(&mut self.rng, &self.population.defenders);
            let amount = (lognormal_clamped(&mut self.rng, 0.01, 1.0, 0.0005, 0.5) * 1e9) as u64;
            (
                None,
                Some((self.population.defenders[other].pubkey(), amount)),
            )
        };

        let agent = &mut self.population.defenders[idx];
        let nonce = agent.next_nonce();
        let mut b = TransactionBuilder::new(agent.keypair)
            .nonce(nonce)
            .recent_blockhash(blockhash);
        if let Some(ix) = swap_instr {
            b = b.instruction(ix);
        }
        if let Some((to, amount)) = transfer_to {
            b = b.transfer(to, Lamports(amount));
        }
        let tx = b.instruction(tip_ix(Lamports(tip), nonce)).build();
        if let Ok(bundle) = Bundle::new(vec![tx]) {
            pending.insert(bundle.id(), BundleLabel::Defensive);
            bundles.push(bundle);
        }
    }

    /// A priority length-1 bundle: real tip above the defensive threshold.
    fn build_priority(
        &mut self,
        bundles: &mut Vec<Bundle>,
        pending: &mut HashMap<BundleId, BundleLabel>,
    ) {
        let idx = Self::pick(&mut self.rng, &self.population.traders);
        let tip = lognormal_clamped(&mut self.rng, 500_000.0, 1.2, 100_001.0, 30_000_000.0) as u64;
        let p = &self.universe.sol_pools[self.rng.gen_range(0..self.universe.sol_pools.len())];
        let token = p.token_of_sol_pool();
        let amount = (lognormal_clamped(&mut self.rng, 0.5, 1.2, 0.01, 50.0) * 1e9) as u64;
        let blockhash = self.universe.bank.latest_blockhash();
        let agent = &mut self.population.traders[idx];
        let nonce = agent.next_nonce();
        let tx = TransactionBuilder::new(agent.keypair)
            .nonce(nonce)
            .recent_blockhash(blockhash)
            .instruction(swap_ix(native_sol_mint(), token, amount, 0))
            .instruction(tip_ix(Lamports(tip), nonce))
            .build();
        if let Ok(bundle) = Bundle::new(vec![tx]) {
            pending.insert(bundle.id(), BundleLabel::Benign(BenignKind::Priority));
            bundles.push(bundle);
        }
    }

    /// A length-2 app bundle: user action plus a separate tip transaction.
    fn build_len2(
        &mut self,
        bundles: &mut Vec<Bundle>,
        pending: &mut HashMap<BundleId, BundleLabel>,
    ) {
        let idx = Self::pick(&mut self.rng, &self.population.traders);
        let p = &self.universe.sol_pools[self.rng.gen_range(0..self.universe.sol_pools.len())];
        let token = p.token_of_sol_pool();
        let amount = (lognormal_clamped(&mut self.rng, 0.2, 1.0, 0.005, 20.0) * 1e9) as u64;
        let tip = lognormal_clamped(&mut self.rng, 1_500.0, 0.8, 1_000.0, 20_000.0) as u64;
        let blockhash = self.universe.bank.latest_blockhash();
        let agent = &mut self.population.traders[idx];
        let n1 = agent.next_nonce();
        let n2 = agent.next_nonce();
        let swap_tx = TransactionBuilder::new(agent.keypair)
            .nonce(n1)
            .recent_blockhash(blockhash)
            .instruction(swap_ix(native_sol_mint(), token, amount, 0))
            .build();
        let tip_tx = TransactionBuilder::new(agent.keypair)
            .nonce(n2)
            .recent_blockhash(blockhash)
            .instruction(tip_ix(Lamports(tip), n2))
            .build();
        if let Ok(bundle) = Bundle::new(vec![swap_tx, tip_tx]) {
            pending.insert(bundle.id(), BundleLabel::Benign(BenignKind::AppPair));
            bundles.push(bundle);
        }
    }

    /// Length-3 bundles that are *not* sandwiches, in the proportions that
    /// exercise each detection criterion (DESIGN.md §4 ablation).
    fn build_len3_decoy(
        &mut self,
        bundles: &mut Vec<Bundle>,
        pending: &mut HashMap<BundleId, BundleLabel>,
    ) {
        let kind = *weighted_choice(
            &mut self.rng,
            &[
                ("swap_swap_tip", 0.40),
                ("three_unrelated", 0.22),
                ("unprofitable_exit", 0.12),
                ("disjoint_exit", 0.10),
                ("third_party_backrun", 0.08),
                ("rate_for_victim", 0.08),
            ],
        );
        let blockhash = self.universe.bank.latest_blockhash();
        let tip = lognormal_clamped(&mut self.rng, 900.0, 0.6, 1_000.0, 10_000.0) as u64;
        let pool_count = self.universe.sol_pools.len();

        let swap_tx =
            |sim: &mut Self, trader_idx: usize, pool_idx: usize, buy: bool, amount_sol: f64| {
                let p = &sim.universe.sol_pools[pool_idx];
                let token = p.token_of_sol_pool();
                let agent = &mut sim.population.traders[trader_idx];
                let nonce = agent.next_nonce();
                let ix = if buy {
                    swap_ix(native_sol_mint(), token, (amount_sol * 1e9) as u64, 0)
                } else {
                    // Sell a small stock of the token.
                    let held = sim
                        .universe
                        .bank
                        .token_balance(&agent.keypair.pubkey(), &token);
                    swap_ix(token, native_sol_mint(), (held / 1_000).max(1_000), 0)
                };
                TransactionBuilder::new(agent.keypair)
                    .nonce(nonce)
                    .recent_blockhash(blockhash)
                    .instruction(ix)
                    .build()
            };

        let (txs, label) = match kind {
            "swap_swap_tip" => {
                // Two swaps by different users; final transaction is ONLY a
                // tip — criterion 5 must exclude this.
                let t1 = Self::pick(&mut self.rng, &self.population.traders);
                let mut t2 = Self::pick(&mut self.rng, &self.population.traders);
                if t2 == t1 {
                    t2 = (t2 + 1) % self.population.traders.len();
                }
                let p1 = self.rng.gen_range(0..pool_count);
                let a = swap_tx(self, t1, p1, true, 0.1);
                let b = swap_tx(self, t2, p1, true, 0.05);
                let agent = &mut self.population.traders[t1];
                let nonce = agent.next_nonce();
                let c = TransactionBuilder::new(agent.keypair)
                    .nonce(nonce)
                    .recent_blockhash(blockhash)
                    .instruction(tip_ix(Lamports(tip), nonce))
                    .build();
                (
                    vec![a, b, c],
                    BundleLabel::NearMiss(NearMissFamily::TipOnlyFinal),
                )
            }
            "three_unrelated" => {
                // Three different signers, three different pools — fails
                // criterion 1 (and 2). Tip rides on the last swap.
                let mut txs = Vec::new();
                for k in 0..3 {
                    let t = Self::pick(&mut self.rng, &self.population.traders);
                    let p = self.rng.gen_range(0..pool_count);
                    let mut tx = swap_tx(self, t, p, true, 0.05 + 0.01 * k as f64);
                    if k == 2 {
                        // Rebuild with tip appended.
                        let agent_idx = self
                            .population
                            .traders
                            .iter()
                            .position(|a| a.pubkey() == tx.signer())
                            .unwrap();
                        let agent = &mut self.population.traders[agent_idx];
                        let nonce = agent.next_nonce();
                        tx = TransactionBuilder::new(agent.keypair)
                            .nonce(nonce)
                            .recent_blockhash(blockhash)
                            .instruction(tx.message.instructions[0].clone())
                            .instruction(tip_ix(Lamports(tip), nonce))
                            .build();
                    }
                    txs.push(tx);
                }
                (txs, BundleLabel::Benign(BenignKind::UnrelatedSwaps))
            }
            "disjoint_exit" => {
                // A buys pool 1, B buys pool 1 at a worse rate, then A exits
                // by selling a *different* pool's token for more SOL than the
                // entry cost. Signers match, the rate moved against B, and
                // the exit is profitable — only the traded-currency-set
                // criterion (2) rejects it.
                let t_a = Self::pick(&mut self.rng, &self.population.traders);
                let mut t_b = Self::pick(&mut self.rng, &self.population.traders);
                if t_b == t_a {
                    t_b = (t_b + 1) % self.population.traders.len();
                }
                let p1 = self.rng.gen_range(0..pool_count);
                let mut p2 = self.rng.gen_range(0..pool_count);
                if p2 == p1 {
                    p2 = (p2 + 1) % pool_count;
                }
                let entry = 20_000_000u64; // 0.02 SOL
                let a1 = swap_tx(self, t_a, p1, true, entry as f64 / 1e9);
                let b = swap_tx(self, t_b, p1, true, 0.05);
                let sol = native_sol_mint();
                let token2 = self.universe.sol_pools[p2].token_of_sol_pool();
                let pool2 = self.universe.pool(&self.universe.sol_pools[p2].clone());
                let agent = &mut self.population.traders[t_a];
                let held = self
                    .universe
                    .bank
                    .token_balance(&agent.keypair.pubkey(), &token2);
                // Size the sell so SOL proceeds comfortably clear the entry
                // cost plus fees and tip; quote is monotone, so double until
                // it does (bounded by half the held stock).
                let needed = entry + tip + 20_000;
                let (r_sol2, r_tok2) = pool2.reserves_for(&sol).unwrap_or((1, 1));
                let mut sell =
                    ((needed as f64 * 3.0) * r_tok2 as f64 / r_sol2.max(1) as f64) as u64;
                sell = sell.clamp(1_000, (held / 2).max(1_000));
                for _ in 0..4 {
                    match pool2.quote(&token2, sell) {
                        Some(q) if q >= needed * 2 => break,
                        _ => sell = sell.saturating_mul(2).min((held / 2).max(1_000)),
                    }
                }
                let nonce = agent.next_nonce();
                let a2 = TransactionBuilder::new(agent.keypair)
                    .nonce(nonce)
                    .recent_blockhash(blockhash)
                    .instruction(swap_ix(token2, sol, sell, 0))
                    .instruction(tip_ix(Lamports(tip), nonce))
                    .build();
                (
                    vec![a1, b, a2],
                    BundleLabel::NearMiss(NearMissFamily::DisjointCurrencies),
                )
            }
            "third_party_backrun" => {
                // Two different buyers followed by an unrelated profit-
                // taking seller — sandwich-shaped price action with three
                // distinct signers. Only criterion 1 rejects it.
                let t1 = Self::pick(&mut self.rng, &self.population.traders);
                let mut t2 = Self::pick(&mut self.rng, &self.population.traders);
                if t2 == t1 {
                    t2 = (t2 + 1) % self.population.traders.len();
                }
                let mut t3 = Self::pick(&mut self.rng, &self.population.traders);
                while t3 == t1 || t3 == t2 {
                    t3 = (t3 + 1) % self.population.traders.len();
                }
                let p1 = self.rng.gen_range(0..pool_count);
                let pool = self.universe.pool(&self.universe.sol_pools[p1].clone());
                let sol = native_sol_mint();
                let (r_sol, _) = pool.reserves_for(&sol).unwrap();
                let a1 = (r_sol / 500).max(1_000_000); // small first buy
                let q1 = pool.quote(&sol, a1).unwrap_or(1_000);
                let a2 = r_sol / 10; // big middle buy pumps the price

                let token = self.universe.sol_pools[p1].token_of_sol_pool();
                let tx1 = {
                    let agent = &mut self.population.traders[t1];
                    let nonce = agent.next_nonce();
                    TransactionBuilder::new(agent.keypair)
                        .nonce(nonce)
                        .recent_blockhash(blockhash)
                        .instruction(swap_ix(sol, token, a1, 0))
                        .build()
                };
                let tx2 = {
                    let agent = &mut self.population.traders[t2];
                    let nonce = agent.next_nonce();
                    TransactionBuilder::new(agent.keypair)
                        .nonce(nonce)
                        .recent_blockhash(blockhash)
                        .instruction(swap_ix(sol, token, a2, 0))
                        .build()
                };
                let tx3 = {
                    let agent = &mut self.population.traders[t3];
                    let held = self
                        .universe
                        .bank
                        .token_balance(&agent.keypair.pubkey(), &token);
                    let sell = ((q1 as f64 * 0.9) as u64).min(held / 2).max(1_000);
                    let nonce = agent.next_nonce();
                    TransactionBuilder::new(agent.keypair)
                        .nonce(nonce)
                        .recent_blockhash(blockhash)
                        .instruction(swap_ix(token, sol, sell, 0))
                        .instruction(tip_ix(Lamports(tip), nonce))
                        .build()
                };
                (
                    vec![tx1, tx2, tx3],
                    BundleLabel::NearMiss(NearMissFamily::DifferentOuterSigner),
                )
            }
            "rate_for_victim" => {
                // A *sells* first — improving B's subsequent buy rate — then
                // B buys, then A re-buys more tokens than it sold. A ends the
                // bundle inventory-positive (profitable by the proceeds
                // branch), so only the rate-direction criterion (3) rejects
                // it: the first trade moved the rate *for* the victim.
                let t_a = Self::pick(&mut self.rng, &self.population.traders);
                let mut t_b = Self::pick(&mut self.rng, &self.population.traders);
                if t_b == t_a {
                    t_b = (t_b + 1) % self.population.traders.len();
                }
                let p1 = self.rng.gen_range(0..pool_count);
                let sol = native_sol_mint();
                let token = self.universe.sol_pools[p1].token_of_sol_pool();
                let pool = self.universe.pool(&self.universe.sol_pools[p1].clone());
                let (r_sol, r_tok) = pool.reserves_for(&sol).unwrap_or((1, 1));
                let agent_pk = self.population.traders[t_a].pubkey();
                let held = self.universe.bank.token_balance(&agent_pk, &token);
                let sold = (r_tok / 2_000).clamp(1_000, (held / 2).max(1_000));
                // Spend enough SOL to re-buy strictly more than was sold,
                // with headroom for the LP fee and B's price push.
                let mut spend = ((sold as f64 * 1.3) * r_sol as f64 / r_tok.max(1) as f64) as u64;
                spend = spend.clamp(1_000_000, 20_000_000_000);
                for _ in 0..4 {
                    match pool.quote(&sol, spend) {
                        Some(q) if q > sold + sold / 10 => break,
                        _ => spend = spend.saturating_mul(2).min(20_000_000_000),
                    }
                }
                let a1 = {
                    let agent = &mut self.population.traders[t_a];
                    let nonce = agent.next_nonce();
                    TransactionBuilder::new(agent.keypair)
                        .nonce(nonce)
                        .recent_blockhash(blockhash)
                        .instruction(swap_ix(token, sol, sold, 0))
                        .build()
                };
                let b = swap_tx(self, t_b, p1, true, 0.05);
                let agent = &mut self.population.traders[t_a];
                let nonce = agent.next_nonce();
                let a2 = TransactionBuilder::new(agent.keypair)
                    .nonce(nonce)
                    .recent_blockhash(blockhash)
                    .instruction(swap_ix(sol, token, spend, 0))
                    .instruction(tip_ix(Lamports(tip), nonce))
                    .build();
                (
                    vec![a1, b, a2],
                    BundleLabel::NearMiss(NearMissFamily::RateMovedForVictim),
                )
            }
            _ => {
                // "unprofitable_exit": sandwich-shaped — A buys, B buys at a
                // worse rate, A sells — but A dumps only a third of the
                // acquired inventory, so the SOL proceeds sit far below the
                // entry cost. Both profit branches of criterion 4 fail;
                // everything else holds.
                let t_a = Self::pick(&mut self.rng, &self.population.traders);
                let mut t_b = Self::pick(&mut self.rng, &self.population.traders);
                if t_b == t_a {
                    t_b = (t_b + 1) % self.population.traders.len();
                }
                let p1 = self.rng.gen_range(0..pool_count);
                let sol = native_sol_mint();
                let token = self.universe.sol_pools[p1].token_of_sol_pool();
                let pool = self.universe.pool(&self.universe.sol_pools[p1].clone());
                let entry = 60_000_000u64; // 0.06 SOL
                let q_est = pool.quote(&sol, entry).unwrap_or(3_000);
                let a1 = swap_tx(self, t_a, p1, true, entry as f64 / 1e9);
                let b = swap_tx(self, t_b, p1, true, 0.05);
                let agent = &mut self.population.traders[t_a];
                let nonce = agent.next_nonce();
                let a2 = TransactionBuilder::new(agent.keypair)
                    .nonce(nonce)
                    .recent_blockhash(blockhash)
                    .instruction(swap_ix(token, sol, (q_est / 3).max(1_000), 0))
                    .instruction(tip_ix(Lamports(tip), nonce))
                    .build();
                (
                    vec![a1, b, a2],
                    BundleLabel::NearMiss(NearMissFamily::UnprofitableAttacker),
                )
            }
        };

        if let Ok(bundle) = Bundle::new(txs) {
            pending.insert(bundle.id(), label);
            bundles.push(bundle);
        }
    }

    /// Length-4/5 app batches: transfers plus a tip on the first move.
    fn build_batch(
        &mut self,
        len: usize,
        bundles: &mut Vec<Bundle>,
        pending: &mut HashMap<BundleId, BundleLabel>,
    ) {
        let tip = lognormal_clamped(&mut self.rng, 2_000.0, 0.8, 1_000.0, 50_000.0) as u64;
        let blockhash = self.universe.bank.latest_blockhash();
        let mut txs = Vec::with_capacity(len);
        for k in 0..len {
            let from = Self::pick(&mut self.rng, &self.population.traders);
            let to = Self::pick(&mut self.rng, &self.population.traders);
            let to_pk = self.population.traders[to].pubkey();
            let agent = &mut self.population.traders[from];
            let nonce = agent.next_nonce();
            let mut b = TransactionBuilder::new(agent.keypair)
                .nonce(nonce)
                .recent_blockhash(blockhash)
                .transfer(to_pk, Lamports(1_000_000 + nonce % 1_000));
            if k == 0 {
                b = b.instruction(tip_ix(Lamports(tip), nonce));
            }
            txs.push(b.build());
        }
        if let Ok(bundle) = Bundle::new(txs) {
            pending.insert(bundle.id(), BundleLabel::Benign(BenignKind::Batch));
            bundles.push(bundle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_runs_and_produces_everything() {
        let config = ScenarioConfig::tiny();
        let days = config.days;
        let mut sim = Simulation::new(config);
        let mut ticks = 0u64;
        let mut landed_bundles = 0u64;
        sim.run_to_completion(|o| {
            ticks += 1;
            landed_bundles += o.result.bundles.len() as u64;
        });
        assert_eq!(ticks, days * sim.config().ticks_per_day);

        let truth = sim.truth();
        assert_eq!(truth.per_day.len(), days as usize);
        let total: u64 = truth.per_day.iter().map(|d| d.total_bundles()).sum();
        assert_eq!(total, landed_bundles);
        assert!(truth.total_sandwiches() > 0, "some sandwiches landed");
        assert!(truth.total_defensive() > 0, "some defensive bundles landed");
        assert!(truth.total_victim_loss_lamports() > 0);

        // Length-1 dominates, as in Figure 1.
        let by_len: [u64; 5] = truth.per_day.iter().fold([0; 5], |mut acc, d| {
            for (slot, count) in acc.iter_mut().zip(d.bundles_by_len) {
                *slot += count;
            }
            acc
        });
        assert!(by_len[0] > total / 2, "len-1 majority: {by_len:?}");
        // Length-3 present, includes sandwiches and decoys.
        assert!(by_len[2] >= truth.total_sandwiches());
    }

    #[test]
    fn sandwich_rate_decays_across_days() {
        let mut config = ScenarioConfig::tiny();
        config.days = 2;
        config.volume_scale = 1.0 / 1_000.0;
        config.sandwiches_day_first = 12_000.0;
        config.sandwiches_day_last = 1_000.0;
        let mut sim = Simulation::new(config);
        sim.run_to_completion(|_| {});
        let truth = sim.truth();
        assert!(
            truth.per_day[0].sandwiches > truth.per_day[1].sandwiches,
            "day0={} day1={}",
            truth.per_day[0].sandwiches,
            truth.per_day[1].sandwiches
        );
    }

    #[test]
    fn sandwiches_only_land_in_colluder_led_slots() {
        let config = ScenarioConfig::tiny();
        let flags = config.colluder_flags();
        let mut sim = Simulation::new(config);
        let mut sandwich_slots: Vec<sandwich_types::Slot> = Vec::new();
        let mut colluder_blocks = 0u64;
        let mut honest_blocks = 0u64;
        let schedule = sim.universe.schedule.clone();
        while let Some(outcome) = sim.step() {
            let slot = outcome.result.block.slot;
            if flags[schedule.leader_index_at(slot)] {
                colluder_blocks += 1;
            } else {
                honest_blocks += 1;
            }
            for lb in &outcome.result.bundles {
                if sim.labels().get(&lb.bundle_id).unwrap().is_sandwich() {
                    sandwich_slots.push(slot);
                }
            }
        }
        assert!(
            colluder_blocks > 0 && honest_blocks > 0,
            "both leader kinds produced"
        );
        assert!(!sandwich_slots.is_empty(), "some sandwiches landed");
        for slot in sandwich_slots {
            assert!(
                flags[schedule.leader_index_at(slot)],
                "sandwich landed in honest-led {slot}"
            );
        }
        // Provenance is recorded for every landed sandwich and names the
        // scheduled leader of its slot.
        for id in sim.truth().sandwich_ids.iter() {
            let prov = sim.labels().provenance(id).expect("provenance recorded");
            assert!(prov.colluder);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut config = ScenarioConfig::tiny();
            config.days = 1;
            config.seed = seed;
            let mut sim = Simulation::new(config);
            sim.run_to_completion(|_| {});
            (
                sim.truth().total_sandwiches(),
                sim.truth().total_defensive(),
                sim.truth().total_victim_loss_lamports(),
            )
        };
        assert_eq!(run(42), run(42));
    }
}
