//! Rendering integration: every figure renderer produces structurally
//! correct output from a real (tiny) measurement run.

use sandwich_core::{report, AnalysisConfig, CollectorConfig, PipelineConfig};
use sandwich_sim::{ScenarioConfig, Simulation};

async fn tiny_report() -> (
    sandwich_core::AnalysisReport,
    sandwich_types::SlotClock,
    ScenarioConfig,
) {
    let scenario = ScenarioConfig::tiny();
    let days = scenario.days;
    let pipeline = PipelineConfig {
        collector: CollectorConfig {
            page_limit: sandwich_core::scaled_page_limit(&scenario, 1),
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sim = Simulation::new(scenario.clone());
    let run = sandwich_core::run_measurement(&mut sim, pipeline)
        .await
        .unwrap();
    (
        run.analyze(&AnalysisConfig::paper_defaults(days)),
        run.clock,
        scenario,
    )
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn all_figures_render_consistently() {
    let (report_data, clock, scenario) = tiny_report().await;

    // Figure 1: one row per day, downtime marked.
    let fig1 = report::figure1(&report_data, &clock, &scenario.downtime_days);
    let body_rows = fig1.lines().count() - 2; // header + separator
    assert_eq!(body_rows as u64, scenario.days);
    assert!(fig1.contains("DOWN"), "downtime day marked:\n{fig1}");
    assert!(fig1.contains("len1") && fig1.contains("len5"));

    // Figure 2: one row per day, SOL columns present.
    let fig2 = report::figure2(&report_data, &clock);
    assert_eq!(fig2.lines().count() as u64 - 2, scenario.days);
    assert!(fig2.contains("victim loss (SOL)"));

    // Figure 3: quantile rows with dollar values.
    let fig3 = report::figure3(&report_data);
    assert!(fig3.contains("50%"));
    assert!(fig3.contains('$'));

    // Figure 4: a row per grid point, fractions within [0, 1].
    let fig4 = report::figure4(&report_data);
    assert!(fig4.contains("100000"));
    for line in fig4.lines().skip(2) {
        for cell in line.split('|').skip(1) {
            let v: f64 = cell.trim().parse().unwrap();
            assert!((0.0..=1.0).contains(&v), "fraction {v} out of range");
        }
    }

    // Table 1 renders a worked example when sandwiches exist.
    let table1 = report::table1(&report_data);
    assert!(table1.contains("ATTACKER"), "{table1}");
    assert!(table1.contains("BUY") && table1.contains("SELL"));

    // Headline includes every metric row.
    let headline = report::headline(&report_data, scenario.volume_scale);
    for metric in [
        "sandwich attacks",
        "victim losses",
        "attacker gains",
        "defensive spend",
        "mean defensive tip",
        "successive-poll overlap",
    ] {
        assert!(headline.contains(metric), "missing {metric}");
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn figure4_orders_tip_populations_correctly() {
    let (report_data, _, _) = tiny_report().await;
    // At 100k lamports: most len-1 bundles are below (defensive mass),
    // while almost no sandwich bundle is.
    let len1_at_100k = report_data.tip_cdf_len1.fraction_at_or_below(100_000.0);
    let sandwich_at_100k = report_data.tip_cdf_sandwich.fraction_at_or_below(100_000.0);
    assert!(len1_at_100k > 0.7, "len-1 at 100k = {len1_at_100k}");
    assert!(
        sandwich_at_100k < 0.2,
        "sandwich at 100k = {sandwich_at_100k}"
    );
    // Median sandwich tip dwarfs median len-3 tip (three orders on mainnet).
    let med3 = report_data.tip_cdf_len3.median().unwrap();
    let med_s = report_data.tip_cdf_sandwich.median().unwrap();
    assert!(
        med_s > med3 * 100.0,
        "sandwich median {med_s} vs len-3 median {med3}"
    );
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn counterfactuals_run_on_real_data() {
    let (report_data, _, _) = tiny_report().await;
    let oracle = sandwich_dex::SolUsdOracle::default();
    let cf = sandwich_core::defensive_counterfactual(
        &report_data,
        sandwich_types::Lamports(11_570),
        &oracle,
    );
    assert!(cf.victims > 0);
    assert!(
        cf.net_saving_usd > 0.0,
        "defense pays for actual victims: {cf:?}"
    );
    let econ = sandwich_core::defense_economics(&report_data);
    assert!(econ.attack_probability > 0.0 && econ.attack_probability < 0.05);
    assert!(econ.p95_loss_usd >= econ.mean_loss_usd * 0.5);
    let slip = sandwich_core::slippage_counterfactual(&report_data, 50, 200, &oracle);
    assert!(slip.avoided_usd >= 0.0);
    assert!(slip.capped_loss_usd <= slip.realized_loss_usd);
}
