//! One slice: one workload, measured for a few seconds in a fresh process.
//!
//! A slice opens the store set-up built, starts its in-process servers,
//! discards a short warm-up, runs ops in a closed loop for the slice length,
//! checks every op's output against the reference, shuts its servers down
//! and reports: the whole window, and each of the consecutive blocks it was
//! cut into. The parent runs each slice as a child process so that no idle
//! server of one workload — the tokio shim's tasks re-poll every 250 µs —
//! steals CPU from another, and so that `VmHWM` is the slice's own.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

use sandwich_net::Server;
use sandwich_obs::{names, Registry};
use sandwich_query::{CachedResponse, QueryService};
use sandwich_shard::{ClusterConfig, ServingCluster};
use sandwich_types::Hash;

use crate::checks;
use crate::gen;
use crate::http::{self, Conn};
use crate::keys::{self, KeepaliveStream, Key};
use crate::ops;
use crate::setup::{self, Reference, LIVE_SETUP_SEALS, SHARDS};
use crate::spans::{self, Tracer};
use crate::stats;
use crate::workload::Workload;

/// Warm-up discarded at the start of every slice, seconds. An op longer
/// than this is run once.
pub const WARMUP_SECONDS: f64 = 0.3;

/// The quantile `op_tail_ms` reports of a block's ops. Not 0.95: five to
/// eight in a hundred `shard2_cold` requests take 7 ms instead of 1.3 ms, so
/// a p95 sits on the edge of that second mode and reads 3 ms or 7 ms by how
/// many of them a block happened to hold; the p99 lies inside it.
pub const TAIL_QUANTILE: f64 = 0.99;

/// Client threads of `serve_keepalive`; `shard2_cold` uses one. Never more
/// than the box has cores.
pub const KEEPALIVE_CLIENTS: usize = 2;

/// What to run.
#[derive(Clone, Debug)]
pub struct SliceArgs {
    /// The workload.
    pub workload: Workload,
    /// The directory set-up built for it.
    pub dir: PathBuf,
    /// Round number, for scratch names.
    pub round: u64,
    /// Measured length, seconds.
    pub seconds: f64,
    /// Length of the consecutive blocks the measured window is cut into,
    /// seconds; every block is reported on its own. `0` leaves it whole
    /// (`bench-trace` reads only the whole).
    pub block_seconds: f64,
    /// Write spans here on exit; `None` runs untraced.
    pub spans: Option<PathBuf>,
}

/// The timings of one window: a block, or the whole slice.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Timings {
    /// Length of the window.
    pub window_s: f64,
    /// Work units completed per second of the window.
    pub work_per_s: f64,
    /// Latency samples (successful ops in the window).
    pub samples: u64,
    /// Median op latency, ms.
    pub op_p50_ms: f64,
    /// Nearest-rank [`TAIL_QUANTILE`] op latency, ms (the slowest under 100
    /// samples).
    pub op_tail_ms: f64,
}

/// What one slice measured.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct SliceResult {
    /// Store open, index load, server bind, reference evaluation: the time
    /// from process start to the first warm-up op.
    pub startup_s: f64,
    /// Ops attempted in the window.
    pub attempted: u64,
    /// Ops that errored or failed their check.
    pub failed: u64,
    /// The whole measured window.
    pub whole: Timings,
    /// Its blocks, in order; a block no op ended in is left out.
    pub blocks: Vec<Timings>,
    /// `VmHWM` at exit, MiB: servers, clients and references together.
    pub peak_rss_mb: f64,
    /// CPU ms (user + system, all threads) per op, warm-up included.
    pub cpu_ms_per_op: f64,
    /// The first failure's message, if any op failed.
    pub first_error: Option<String>,
}

/// Ops of one block of one client thread.
#[derive(Default)]
struct Meter {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    units: u64,
    window_s: f64,
    first_error: Option<String>,
}

impl Meter {
    /// Take over the ops of `next`, the block that followed this one.
    fn absorb(&mut self, next: Meter) {
        self.latencies_ms.extend(next.latencies_ms);
        self.attempted += next.attempted;
        self.failed += next.failed;
        self.units += next.units;
        self.window_s += next.window_s;
        self.first_error = self.first_error.take().or(next.first_error);
    }
}

/// Everything one client thread ran: a meter per block, and the op count
/// with the warm-up.
struct Client {
    blocks: Vec<Meter>,
    ops_run: u64,
}

/// Run `op` in a closed loop: discard [`WARMUP_SECONDS`] of ops, then
/// measure until `seconds` have passed. The window is cut into consecutive
/// blocks: a block ends with the first op that ends past the next multiple
/// of `block_seconds` (`0`: never), so an op that outlasts a block is a block
/// of its own; less than half a block left at the end joins the block before.
/// `op` gets a sequence number and returns its latency in ms and the work
/// units it completed.
fn drive(
    seconds: f64,
    block_seconds: f64,
    mut op: impl FnMut(u64) -> Result<(f64, u64), String>,
) -> Client {
    let mut ops_run = 0;
    let warmup = Instant::now();
    loop {
        let _ = op(ops_run);
        ops_run += 1;
        if warmup.elapsed().as_secs_f64() >= WARMUP_SECONDS {
            break;
        }
    }
    let block_seconds = if block_seconds > 0.0 {
        block_seconds
    } else {
        f64::INFINITY
    };
    let mut blocks = vec![Meter::default()];
    let (mut block_started, mut block_ends) = (0.0, block_seconds);
    let window = Instant::now();
    loop {
        let meter = blocks.last_mut().expect("never empty");
        meter.attempted += 1;
        match op(ops_run) {
            Ok((ms, units)) => {
                meter.latencies_ms.push(ms);
                meter.units += units;
            }
            Err(e) => {
                meter.failed += 1;
                meter.first_error.get_or_insert(e);
            }
        }
        ops_run += 1;
        let elapsed = window.elapsed().as_secs_f64();
        meter.window_s = elapsed - block_started;
        if elapsed >= seconds {
            break;
        }
        if elapsed >= block_ends {
            blocks.push(Meter::default());
            block_started = elapsed;
            block_ends = ((elapsed / block_seconds).floor() + 1.0) * block_seconds;
        }
    }
    if let [.., before, last] = &mut blocks[..] {
        if last.window_s < block_seconds / 2.0 {
            before.absorb(std::mem::take(last));
            blocks.pop();
        }
    }
    Client { blocks, ops_run }
}

/// Evaluate every key once on `engine`: the byte references of a slice.
fn references(service: &QueryService, keys: &[Key]) -> Vec<CachedResponse> {
    let engine = service.engine_snapshot();
    keys.iter().map(|k| engine.evaluate(&k.request)).collect()
}

fn bind(runtime: &tokio::runtime::Runtime, service: &QueryService) -> io::Result<Server> {
    runtime.block_on(Server::bind("127.0.0.1:0", service.router()))
}

fn collect_1d(
    args: &SliceArgs,
    reference: &Reference,
    tracer: &Tracer,
    started: Instant,
) -> io::Result<(f64, Vec<Client>)> {
    let want = reference
        .collect
        .clone()
        .ok_or_else(|| io::Error::other("reference has no collect outcome"))?;
    let runtime = ops::runtime();
    let scratch = args.dir.join(format!("round-{}", args.round));
    let startup_s = started.elapsed().as_secs_f64();
    let client = drive(args.seconds, args.block_seconds, |op| {
        let _ = std::fs::remove_dir_all(&scratch);
        let (ms, got) = ops::collect_once(&runtime, reference.seed, &scratch, tracer, op)
            .map_err(|e| e.to_string())?;
        checks::collect_matches(&got, &want)?;
        Ok((ms, got.sealed))
    });
    let _ = std::fs::remove_dir_all(&scratch);
    Ok((startup_s, vec![client]))
}

fn analyze_250k(
    args: &SliceArgs,
    reference: &Reference,
    tracer: &Tracer,
    started: Instant,
) -> io::Result<(f64, Vec<Client>)> {
    let store = setup::store_dir(&args.dir);
    let want_report = std::fs::read(args.dir.join(setup::REPORT_FILE))?;
    let want_frame = std::fs::read(args.dir.join(setup::FRAME_FILE))?;
    let startup_s = started.elapsed().as_secs_f64();
    let client = drive(args.seconds, args.block_seconds, |op| {
        let root = tracer.start("analyze.pass", op, None);
        let pass =
            ops::analysis_pass(&store, tracer, op, Some(&root)).map_err(|e| e.to_string())?;
        let ms = root.elapsed_ms();
        drop(root);
        // Reading the frame back is the check's work, not the op's.
        let frame = ops::index_frame(&store).map_err(|e| e.to_string())?;
        checks::analysis_matches(
            pass.findings,
            reference.planted,
            &pass.report,
            &want_report,
            &frame,
            &want_frame,
        )?;
        Ok((ms, reference.bundles))
    });
    Ok((startup_s, vec![client]))
}

fn serve_keepalive(
    args: &SliceArgs,
    reference: &Reference,
    tracer: &Tracer,
    started: Instant,
) -> io::Result<(f64, Vec<Client>)> {
    let runtime = ops::runtime();
    let store = setup::store_dir(&args.dir);
    let service = QueryService::open(setup::service_config(&store), Registry::new())?;
    let mut all = keys::hot_keys();
    all.extend(keys::cold_windows());
    let want = references(&service, &all);
    let server = bind(&runtime, &service)?;
    let addr = server.local_addr();
    let startup_s = started.elapsed().as_secs_f64();

    let clients = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..KEEPALIVE_CLIENTS)
            .map(|client| {
                let (all, want) = (&all, &want);
                scope.spawn(move || {
                    let mut stream =
                        KeepaliveStream::new(reference.seed, client, KEEPALIVE_CLIENTS);
                    let mut conn = None;
                    drive(args.seconds, args.block_seconds, |i| {
                        let index = stream.next_index();
                        let op = i * KEEPALIVE_CLIENTS as u64 + client as u64;
                        let root = tracer.start("client.request", op, None);
                        let reply = keepalive_get(&mut conn, addr, &all[index].path);
                        let ms = root.elapsed_ms();
                        drop(root);
                        let reply = reply.map_err(|e| e.to_string())?;
                        checks::body_matches(&reply, want[index].status, &want[index].body)?;
                        Ok((ms, 1))
                    })
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    runtime.block_on(server.shutdown());
    Ok((startup_s, clients))
}

/// One request on the client's persistent connection, (re)connecting first
/// if there is none; an I/O error drops the connection.
fn keepalive_get(conn: &mut Option<Conn>, addr: SocketAddr, path: &str) -> io::Result<http::Reply> {
    if conn.is_none() {
        *conn = Some(Conn::open(addr)?);
    }
    let result = conn.as_mut().expect("just connected").get(path, false);
    if result.is_err() {
        *conn = None;
    }
    result
}

fn shard2_cold(
    args: &SliceArgs,
    reference: &Reference,
    tracer: &Tracer,
    started: Instant,
) -> io::Result<(f64, Vec<Client>)> {
    let runtime = ops::runtime();
    let store = setup::store_dir(&args.dir);
    let cycle = keys::merged_family_keys(reference.seed);
    // The byte reference is a single engine over the whole store.
    let want = references(
        &QueryService::open(setup::service_config(&store), Registry::new())?,
        &cycle,
    );
    let mut config = ClusterConfig::new(&store, SHARDS);
    config.query = ops::query_config();
    let cluster = runtime.block_on(ServingCluster::serve(config, Registry::new()))?;
    let addr = cluster.router_addr();
    let startup_s = started.elapsed().as_secs_f64();

    let client = drive(args.seconds, args.block_seconds, |op| {
        let index = op as usize % cycle.len();
        let root = tracer.start("client.request", op, None);
        let reply = http::get_close(addr, &cycle[index].path);
        let ms = root.elapsed_ms();
        drop(root);
        let reply = reply.map_err(|e| e.to_string())?;
        checks::body_matches(&reply, want[index].status, &want[index].body)?;
        Ok((ms, 1))
    });
    runtime.block_on(cluster.shutdown());
    Ok((startup_s, vec![client]))
}

fn live_tail(
    args: &SliceArgs,
    reference: &Reference,
    tracer: &Tracer,
    started: Instant,
) -> io::Result<(f64, Vec<Client>)> {
    let runtime = ops::runtime();
    // Every round appends to its own copy, so rounds do identical work.
    let store = args.dir.join(format!("round-{}", args.round));
    let _ = std::fs::remove_dir_all(&store);
    ops::copy_store(&setup::store_dir(&args.dir), &store)?;
    let service = QueryService::open(setup::service_config(&store), Registry::new())?;
    let server = bind(&runtime, &service)?;
    let addr = server.local_addr();
    // Just before the first segment this slice seals: everything set-up
    // sealed lies below, everything the slice seals above.
    let mut cursor = format!(
        "v1.{:016x}.{:016x}.{}",
        0,
        gen::live_base_slot(LIVE_SETUP_SEALS) - 1,
        Hash([0u8; 32])
    );
    let startup_s = started.elapsed().as_secs_f64();

    let client = drive(args.seconds, args.block_seconds, |op| {
        let root = tracer.start("live.op", op, None);
        let segment = {
            let _s = tracer.start("live.seal", op, Some(&root));
            ops::seal_live(&store, reference.seed, LIVE_SETUP_SEALS + op)
                .map_err(|e| e.to_string())?
        };
        let advanced = {
            let _s = tracer.start("live.reload", op, Some(&root));
            service.reload().map_err(|e| e.to_string())?
        };
        let reply = {
            let _s = tracer.start("live.get", op, Some(&root));
            http::get_close(
                addr,
                &format!("/api/live?cursor={cursor}&limit=64&wait_ms=100"),
            )
        };
        let ms = root.elapsed_ms();
        drop(root);
        if !advanced {
            return Err("reload did not advance the generation".into());
        }
        let reply = reply.map_err(|e| e.to_string())?;
        cursor = checks::live_page_ok(
            &reply,
            &segment.planted_id.to_string(),
            segment.planted_slot,
            &cursor,
        )?;
        let rebuilds = service
            .registry()
            .snapshot()
            .counter(names::QUERY_INDEX_FULL_REBUILDS)
            .unwrap_or(0);
        if rebuilds != 0 {
            return Err(format!(
                "{rebuilds} full index rebuilds; every reload must fold"
            ));
        }
        Ok((ms, 1))
    });
    runtime.block_on(server.shutdown());
    let _ = std::fs::remove_dir_all(&store);
    Ok((startup_s, vec![client]))
}

/// Run one slice in this process.
pub fn run_slice(args: &SliceArgs) -> io::Result<SliceResult> {
    let started = Instant::now();
    let reference = Reference::load(&args.dir)?;
    let tracer = Tracer::new(args.spans.is_some());
    let cpu_before = stats::cpu_ms();
    let workload = match args.workload {
        Workload::Collect1d => collect_1d,
        Workload::Analyze250k => analyze_250k,
        Workload::ServeKeepalive => serve_keepalive,
        Workload::Shard2Cold => shard2_cold,
        Workload::LiveTail => live_tail,
    };
    let (startup_s, clients) = workload(args, &reference, &tracer, started)?;
    let cpu_ms = stats::cpu_ms() - cpu_before;
    if let Some(path) = &args.spans {
        spans::append_jsonl(path, args.workload.name(), &tracer.take())?;
    }
    Ok(summarize(clients, startup_s, cpu_ms))
}

/// The timings of the window `meters` cover, one meter (or one run of
/// consecutive meters) per client; `None` if no op succeeded in it.
fn timings(per_client: &[&[Meter]]) -> Option<Timings> {
    let mut latencies: Vec<f64> = per_client
        .iter()
        .flat_map(|meters| meters.iter())
        .flat_map(|m| m.latencies_ms.iter().copied())
        .collect();
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_by(f64::total_cmp);
    let windows: Vec<f64> = per_client
        .iter()
        .map(|meters| meters.iter().map(|m| m.window_s).sum())
        .collect();
    Some(Timings {
        window_s: windows.iter().copied().fold(0.0, f64::max),
        // Each client's rate over its own window; clients add up.
        work_per_s: per_client
            .iter()
            .zip(&windows)
            .map(|(meters, window)| {
                meters.iter().map(|m| m.units).sum::<u64>() as f64 / window.max(1e-9)
            })
            .sum(),
        samples: latencies.len() as u64,
        op_p50_ms: stats::percentile(&latencies, 0.50),
        op_tail_ms: stats::percentile(&latencies, TAIL_QUANTILE),
    })
}

fn summarize(clients: Vec<Client>, startup_s: f64, cpu_ms: f64) -> SliceResult {
    let all: Vec<&[Meter]> = clients.iter().map(|c| &c.blocks[..]).collect();
    let count = all.iter().map(|meters| meters.len()).max().unwrap_or(0);
    let meters = || clients.iter().flat_map(|c| c.blocks.iter());
    let ops_run: u64 = clients.iter().map(|c| c.ops_run).sum();
    SliceResult {
        startup_s,
        attempted: meters().map(|m| m.attempted).sum(),
        failed: meters().map(|m| m.failed).sum(),
        whole: timings(&all).unwrap_or_default(),
        blocks: (0..count)
            .filter_map(|b| {
                // A client that ended up with fewer blocks sits this one out.
                let block: Vec<&[Meter]> =
                    all.iter().filter_map(|meters| meters.get(b..=b)).collect();
                timings(&block)
            })
            .collect(),
        peak_rss_mb: stats::peak_rss_mb(),
        cpu_ms_per_op: cpu_ms / ops_run.max(1) as f64,
        first_error: meters().find_map(|m| m.first_error.clone()),
    }
}

/// Parse the arguments after `--slice`: `<workload> <dir> <round> <seconds>
/// <block seconds> [<spans file>]`, the form [`run_slice_in_child`] writes.
pub fn parse_slice_args(rest: &[String]) -> Result<SliceArgs, String> {
    let usage = "--slice <workload> <dir> <round> <seconds> <block seconds> [<spans file>]";
    let [workload, dir, round, seconds, block_seconds, spans @ ..] = rest else {
        return Err(usage.into());
    };
    Ok(SliceArgs {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        dir: PathBuf::from(dir),
        round: round.parse().map_err(|_| usage.to_string())?,
        seconds: seconds.parse().map_err(|_| usage.to_string())?,
        block_seconds: block_seconds.parse().map_err(|_| usage.to_string())?,
        spans: spans.first().map(PathBuf::from),
    })
}

/// Run `args` as a child of this executable (which must accept `--slice`),
/// wait for it, and parse the one JSON line it prints.
pub fn run_slice_in_child(args: &SliceArgs) -> io::Result<SliceResult> {
    let mut command = std::process::Command::new(std::env::current_exe()?);
    command
        .arg("--slice")
        .arg(args.workload.name())
        .arg(&args.dir)
        .arg(args.round.to_string())
        .arg(args.seconds.to_string())
        .arg(args.block_seconds.to_string());
    if let Some(spans) = &args.spans {
        command.arg(spans);
    }
    // `output` waits for the child to end; stderr passes through.
    let output = command.stderr(std::process::Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(io::Error::other(format!(
            "slice {} exited with {}: {line}",
            args.workload.name(),
            output.status
        )));
    }
    serde_json::from_str(line).map_err(io::Error::other)
}

/// The child side of [`run_slice_in_child`]: run the slice, print its result
/// as one JSON line. Both binaries route `--slice` here.
pub fn slice_main(rest: &[String]) -> Result<(), String> {
    let args = parse_slice_args(rest)?;
    let result = run_slice(&args).map_err(|e| format!("slice {}: {e}", args.workload.name()))?;
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleeping_op(ms: u64) -> impl FnMut(u64) -> Result<(f64, u64), String> {
        move |_| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok((ms as f64, 1))
        }
    }

    #[test]
    fn every_measured_op_lands_in_one_block() {
        // 30 ms ops against 100 ms blocks: four ops pass the 100 ms mark.
        let client = drive(0.5, 0.1, sleeping_op(30));
        assert!(
            (3..=5).contains(&client.blocks.len()),
            "{} blocks",
            client.blocks.len()
        );
        for block in &client.blocks {
            assert!(block.attempted >= 2, "{} ops", block.attempted);
            assert_eq!(block.latencies_ms.len() as u64, block.attempted);
            assert!(
                block.window_s >= 0.05,
                "a short rest joins the block before"
            );
        }
        let measured: u64 = client.blocks.iter().map(|b| b.attempted).sum();
        assert!(measured < client.ops_run, "the warm-up is not measured");
        let window: f64 = client.blocks.iter().map(|b| b.window_s).sum();
        assert!((0.5..0.7).contains(&window), "window {window}");
    }

    #[test]
    fn an_op_longer_than_a_block_is_a_block_of_its_own() {
        let client = drive(0.3, 0.02, sleeping_op(30));
        assert!(client.blocks.len() >= 5, "{} blocks", client.blocks.len());
        assert!(client.blocks.iter().all(|b| b.attempted == 1));
    }

    #[test]
    fn a_zero_block_length_leaves_the_window_whole() {
        let client = drive(0.1, 0.0, sleeping_op(5));
        assert_eq!(client.blocks.len(), 1);
        assert!(client.blocks[0].attempted >= 10);
    }

    #[test]
    fn summary_reports_each_block_and_the_whole() {
        let block = |ms: &[f64]| Meter {
            latencies_ms: ms.to_vec(),
            attempted: ms.len() as u64,
            units: ms.len() as u64,
            window_s: 1.0,
            ..Meter::default()
        };
        let clients = vec![
            Client {
                blocks: vec![block(&[1.0, 3.0]), block(&[5.0, 7.0])],
                ops_run: 5,
            },
            Client {
                blocks: vec![block(&[2.0, 4.0])],
                ops_run: 3,
            },
        ];
        let result = summarize(clients, 0.1, 80.0);
        assert_eq!((result.attempted, result.failed), (6, 0));
        assert_eq!(result.blocks.len(), 2);
        // Block 0 merges both clients, block 1 has the first alone.
        assert_eq!(result.blocks[0].samples, 4);
        assert_eq!(result.blocks[0].work_per_s, 4.0);
        assert_eq!(result.blocks[0].op_p50_ms, 2.0);
        assert_eq!(result.blocks[1].op_tail_ms, 7.0);
        assert_eq!(result.whole.samples, 6);
        assert_eq!(result.whole.work_per_s, 4.0 / 2.0 + 2.0 / 1.0);
        assert_eq!(result.cpu_ms_per_op, 10.0);
    }
}
