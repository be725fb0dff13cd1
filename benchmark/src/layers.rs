//! The per-layer metrics: name, unit, and the end-to-end cell each should
//! move. `bench-trace` measures them; `BENCHMARK.json` lists the same names
//! (a test below keeps the two in step).

/// One per-layer metric.
pub struct Layer {
    /// Name: `<crate or module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better (counts and shares that should not
    /// move are listed as lower-is-better).
    pub higher_is_better: bool,
    /// The end-to-end metric and workload this should move.
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
        moves,
    }
}

const COLLECT: &str = "collect_1d/work_per_s, nothing else";
const ANALYZE: &str = "analyze_250k/work_per_s";
const KEEPALIVE_P50: &str = "serve_keepalive/op_p50_ms";
const SHARD_P50: &str = "shard2_cold/op_p50_ms";
const LIVE_P50: &str = "live_tail/op_p50_ms";

/// Every per-layer metric, in table order.
pub const PER_LAYER: [Layer; 58] = [
    layer("sim.step_us", "us", COLLECT),
    layer("explorer.record_us", "us", COLLECT),
    layer("explorer.requests", "count", COLLECT),
    layer("collector.poll_ms", "ms", COLLECT),
    layer("collector.detail_ms", "ms", COLLECT),
    layer("collector.attempts", "count", COLLECT),
    layer("collector.polls_failed", "count", COLLECT),
    layer("store.open_ms", "ms", "setup_s of the serving workloads"),
    layer("store.view_us_per_seg", "us", ANALYZE),
    layer(
        "store.seal_ms",
        "ms",
        "live_tail/op_p50_ms and collect_1d/work_per_s",
    ),
    layer(
        "store.seal_bytes_per_bundle",
        "B",
        "disk_bytes_per_bundle everywhere",
    ),
    layer("scan.segment_ms", "ms", ANALYZE),
    layer(
        "scan.store_ms",
        "ms",
        "analyze_250k/work_per_s (about 30 % of a pass)",
    ),
    layer("scan.finalize_ms", "ms", ANALYZE),
    layer("scan.findings", "count", "none: a correctness count"),
    layer("index.segment_ms", "ms", ANALYZE),
    layer(
        "index.build_ms",
        "ms",
        "analyze_250k/work_per_s (about 65 %); setup_s of the serving workloads",
    ),
    layer("index.merge_ms", "ms", LIVE_P50),
    layer(
        "index.save_ms",
        "ms",
        "live_tail/op_p50_ms, analyze_250k/work_per_s",
    ),
    layer("index.load_ms", "ms", "setup_s of the serving workloads"),
    layer(
        "index.frame_bytes",
        "B",
        "peak_rss_mb and disk_bytes_per_bundle",
    ),
    layer("index.build_over_scan", "ratio", ANALYZE),
    layer("index.folds", "count", "none: one fold per live seal"),
    layer("index.full_rebuilds", "count", "none: must stay 0"),
    layer("attrib.schedule_ms", "ms", ANALYZE),
    layer(
        "attrib.leader_at_ns",
        "ns",
        "analyze_250k/work_per_s, live_tail/op_p50_ms",
    ),
    layer("attrib.join_share", "ratio", "analyze_250k/work_per_s only"),
    layer("engine.hot_us", "us", KEEPALIVE_P50),
    layer(
        "engine.cold_us",
        "us",
        "serve_keepalive/op_tail_ms, shard2_cold/op_p50_ms",
    ),
    layer("cache.hit_us", "us", KEEPALIVE_P50),
    layer("cache.miss_us", "us", "serve_keepalive/op_tail_ms"),
    Layer {
        higher_is_better: true,
        ..layer("cache.hit_ratio", "ratio", KEEPALIVE_P50)
    },
    layer("cache.evictions", "count", "serve_keepalive/op_tail_ms"),
    layer(
        "net.ping_keepalive_ms",
        "ms",
        "serve_keepalive/op_p50_ms (about 100 % today)",
    ),
    layer(
        "net.ping_close_ms",
        "ms",
        "shard2_cold/op_p50_ms, collect_1d/work_per_s",
    ),
    layer(
        "net.client_get_ms",
        "ms",
        "shard2_cold/op_p50_ms (each leg), collect_1d/work_per_s",
    ),
    layer("service.hot_keepalive_ms", "ms", KEEPALIVE_P50),
    layer(
        "service.cold_keepalive_ms",
        "ms",
        "serve_keepalive/op_tail_ms",
    ),
    layer(
        "service.hot_close_ms",
        "ms",
        "live_tail/op_p50_ms (the tail GET)",
    ),
    layer("service.self_ms", "ms", KEEPALIVE_P50),
    layer("service.shed", "count", "none: must stay 0"),
    layer("shard.leg_ms", "ms", SHARD_P50),
    layer("router.query_ms", "ms", SHARD_P50),
    layer(
        "router.single_ms",
        "ms",
        "none: the base of router.overhead_ratio",
    ),
    layer(
        "router.fanout_ms",
        "ms",
        "shard2_cold/op_p50_ms (the router waits for the slower leg)",
    ),
    layer("router.self_ms", "ms", SHARD_P50),
    layer("router.overhead_ratio", "ratio", SHARD_P50),
    layer("router.fanout_width", "count", SHARD_P50),
    layer("router.fanout_failures", "count", "none: must stay 0"),
    layer(
        "router.cache_hit_ratio",
        "ratio",
        "none: expected 0 on distinct keys",
    ),
    layer("merge.decode_us", "us", SHARD_P50),
    layer("merge.range_us", "us", SHARD_P50),
    layer("live.seal_ms", "ms", LIVE_P50),
    layer(
        "live.reload_ms",
        "ms",
        "live_tail/op_p50_ms (most of the op)",
    ),
    layer("live.get_ms", "ms", LIVE_P50),
    layer(
        "process.cpu_ms_per_op",
        "ms",
        "work_per_s of the traced workload",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        "none: traced over untraced op_p50_ms",
    ),
    Layer {
        higher_is_better: true,
        ..layer(
            "path.coverage_ratio",
            "ratio",
            "none: blocking-path layers over the traced op_p50_ms",
        )
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::END_TO_END;
    use crate::workload::Workload;

    /// `BENCHMARK.json` sits one level above the package.
    fn benchmark_json() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// The `"name": "…"` values of the JSON array under `key`, in order.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').unwrap();
        let close = open + json[open..].find(']').unwrap();
        json[open..close]
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_names() {
        let json = benchmark_json();
        let want: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        assert_eq!(names_under(&json, "per_layer"), want);
        for layer in &PER_LAYER {
            let cell = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                layer.name,
                layer.unit,
                if layer.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
            );
            assert!(json.contains(&cell), "BENCHMARK.json lacks {cell}");
        }
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names_under(&json, "end_to_end"), want);
        let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names_under(&json, "workloads"), want);
        for metric in &END_TO_END {
            let cell = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}",
                metric.name,
                metric.unit,
                if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                metric.bound
            );
            assert!(json.contains(&cell), "BENCHMARK.json lacks {cell}");
        }
    }
}
