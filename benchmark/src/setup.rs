//! Set-up: build one workload's inputs and reference outputs, once.
//!
//! Everything a workload needs lands under its own directory: the store at
//! `store/`, the references beside it. The slices (child processes) only
//! read it — `live_tail` copies the store first, because it appends.

use std::io;
use std::path::{Path, PathBuf};

use sandwich_obs::Registry;
use sandwich_query::{QueryService, QueryServiceConfig};
use sandwich_shard::{ClusterConfig, ServingCluster};
use sandwich_store::Manifest;

use crate::checks::CollectOutcome;
use crate::keys::{self, KeepaliveStream};
use crate::ops;
use crate::spans::Tracer;
use crate::stats::{fnv1a64, FNV_OFFSET};
use crate::workload::Workload;

/// Seal → reload cycles `live_tail`'s set-up runs, untimed, so every slice
/// starts from a store whose index frame has already been folded forward.
pub const LIVE_SETUP_SEALS: u64 = 2;

/// Shards behind the router: two, because the box has two cores.
pub const SHARDS: usize = 2;

/// What set-up leaves for the slices and the report.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Reference {
    /// The seed every input was generated from.
    pub seed: u64,
    /// Bundles in the store's manifest at the end of set-up.
    pub bundles: u64,
    /// All bytes under the store directory at the end of set-up.
    pub disk_bytes: u64,
    /// FNV-1a 64 over the manifest's segment checksums and the first 64
    /// keys, in hex: two runs with one seed must print the same value.
    pub input_fingerprint: String,
    /// Sandwiches the generator planted (0 for `collect_1d`).
    pub planted: u64,
    /// What the set-up run of `collect_1d` collected.
    pub collect: Option<CollectOutcome>,
}

/// The store of the workload set up under `dir`.
pub fn store_dir(dir: &Path) -> PathBuf {
    dir.join("store")
}

const REFERENCE_FILE: &str = "reference.json";
/// The set-up pass's report, `analyze_250k`'s reference.
pub const REPORT_FILE: &str = "reference-report.json";
/// The set-up pass's index frame, `analyze_250k`'s reference.
pub const FRAME_FILE: &str = "reference-index.bin";

impl Reference {
    /// Read the reference set-up wrote under `dir`.
    pub fn load(dir: &Path) -> io::Result<Reference> {
        serde_json::from_slice(&std::fs::read(dir.join(REFERENCE_FILE))?).map_err(io::Error::other)
    }

    /// Bytes on disk per bundle, the sixth end-to-end metric.
    pub fn disk_bytes_per_bundle(&self) -> f64 {
        self.disk_bytes as f64 / self.bundles.max(1) as f64
    }
}

/// The first 64 request paths a slice of `workload` sends.
fn first_keys(workload: Workload, seed: u64) -> Vec<String> {
    match workload {
        Workload::ServeKeepalive => {
            let mut all = keys::hot_keys();
            all.extend(keys::cold_windows());
            let mut stream = KeepaliveStream::new(seed, 0, 2);
            (0..64)
                .map(|_| all[stream.next_index()].path.clone())
                .collect()
        }
        Workload::Shard2Cold => keys::merged_family_keys(seed)
            .into_iter()
            .take(64)
            .map(|k| k.path)
            .collect(),
        _ => Vec::new(),
    }
}

fn fingerprint(store: &Path, workload: Workload, seed: u64) -> io::Result<String> {
    let mut h = FNV_OFFSET;
    for segment in &Manifest::load(store)?.segments {
        h = fnv1a64(h, segment.checksum.as_bytes());
    }
    for key in first_keys(workload, seed) {
        h = fnv1a64(h, key.as_bytes());
    }
    Ok(format!("{h:016x}"))
}

/// Build `workload`'s inputs and references under `dir` (which must not
/// exist) from `seed`; the generated store, if it uses one, gets
/// `store_bundles` bundles.
pub fn set_up(
    workload: Workload,
    dir: &Path,
    seed: u64,
    store_bundles: u64,
) -> io::Result<Reference> {
    std::fs::create_dir_all(dir)?;
    let store = store_dir(dir);
    let tracer = Tracer::new(false);
    let mut planted = 0;
    let mut collect = None;

    if workload.uses_generated_store() {
        planted = ops::generate_store(&store, seed, store_bundles)?.sandwiches;
    }
    match workload {
        Workload::Collect1d => {
            let (_, outcome) = ops::collect_once(&ops::runtime(), seed, &store, &tracer, 0)?;
            collect = Some(outcome);
        }
        Workload::Analyze250k => {
            let pass = ops::analysis_pass(&store, &tracer, 0, None)?;
            std::fs::write(dir.join(REPORT_FILE), &pass.report)?;
            std::fs::write(dir.join(FRAME_FILE), ops::index_frame(&store)?)?;
        }
        Workload::ServeKeepalive => ops::index_store(&store)?,
        Workload::Shard2Cold => {
            // The whole-store index is the byte reference; serving once
            // plans the shard map and persists both shard indexes, so the
            // slices load instead of building.
            ops::index_store(&store)?;
            ops::runtime().block_on(async {
                let mut config = ClusterConfig::new(&store, SHARDS);
                config.query = ops::query_config();
                ServingCluster::serve(config, Registry::new())
                    .await?
                    .shutdown()
                    .await;
                io::Result::Ok(())
            })?;
        }
        Workload::LiveTail => {
            ops::index_store(&store)?;
            let service = QueryService::open(service_config(&store), Registry::new())?;
            for n in 0..LIVE_SETUP_SEALS {
                ops::seal_live(&store, seed, n)?;
                service.reload()?;
            }
        }
    }

    let reference = Reference {
        seed,
        bundles: Manifest::load(&store)?.total_bundles(),
        disk_bytes: ops::disk_bytes(&store)?,
        input_fingerprint: fingerprint(&store, workload, seed)?,
        planted,
        collect,
    };
    let json = serde_json::to_vec(&reference).map_err(io::Error::other)?;
    std::fs::write(dir.join(REFERENCE_FILE), json)?;
    Ok(reference)
}

/// The service configuration the serving workloads open: the defaults (an
/// 8 × 128-entry cache), with any index (re)build on one thread.
pub fn service_config(store: &Path) -> QueryServiceConfig {
    let mut config = QueryServiceConfig::new(store);
    config.query = ops::query_config();
    config
}
