//! The five workloads: names, work units, and why each is here.

/// One set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One day simulated, served by the explorer, polled, sealed.
    Collect1d,
    /// Scan, report, index and save over a 250 k-bundle store.
    Analyze250k,
    /// A dashboard's hot/cold mix over keep-alive connections.
    ServeKeepalive,
    /// Distinct keys through a two-shard router, a connection each.
    Shard2Cold,
    /// Seal, fold and tail a growing store.
    LiveTail,
}

impl Workload {
    /// Every workload, in the order a round runs them.
    pub const ALL: [Workload; 5] = [
        Workload::Collect1d,
        Workload::Analyze250k,
        Workload::ServeKeepalive,
        Workload::Shard2Cold,
        Workload::LiveTail,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Collect1d => "collect_1d",
            Workload::Analyze250k => "analyze_250k",
            Workload::ServeKeepalive => "serve_keepalive",
            Workload::Shard2Cold => "shard2_cold",
            Workload::LiveTail => "live_tail",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `work_per_s` counts on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::Collect1d => "bundles sealed",
            Workload::Analyze250k => "bundles analysed",
            Workload::ServeKeepalive | Workload::Shard2Cold => "requests",
            Workload::LiveTail => "seals",
        }
    }

    /// Slice length of one round in the full five-workload run, seconds.
    /// Long ops get longer slices so a round still holds several.
    pub fn slice_seconds(self) -> f64 {
        match self {
            Workload::Collect1d => 4.0,
            Workload::Analyze250k => 5.0,
            _ => 3.0,
        }
    }

    /// How many of `blocks` timing blocks count as lucky and are set aside
    /// before the best one is reported. An op of `analyze_250k` or
    /// `live_tail` is a fixed amount of computation on one thread and a
    /// block is one op, so nothing but interference separates two of them:
    /// none. The three others wait on sockets and on the shim's 250 µs parks
    /// with more threads than cores, and the two request workloads draw
    /// other keys in every block, so a block also comes out fast by how the
    /// wake-ups and the keys fell: the best tenth, at least one. (Measured,
    /// quartile spread of ten runs in a noisy phase, best / after the lucky
    /// tenth: `analyze_250k` 7 % / 13 %, `live_tail` 4 % / 13 %,
    /// `collect_1d` 11 % / 6 %, `shard2_cold` 10 % / 5 %.)
    pub fn lucky_blocks(self, blocks: usize) -> usize {
        match self {
            Workload::Analyze250k | Workload::LiveTail => 0,
            _ => blocks.div_ceil(10),
        }
    }

    /// Whether the workload serves from the generated 250 k-bundle store.
    pub fn uses_generated_store(self) -> bool {
        self != Workload::Collect1d
    }
}

/// Bundles in the generated store.
pub const STORE_BUNDLES: u64 = 250_000;
/// Bundles in the generated store of the reviewer's smoke run; nothing else
/// shrinks it.
pub const SMOKE_STORE_BUNDLES: u64 = 20_000;
