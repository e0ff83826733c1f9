//! The four workloads, their configurations, serial references and output
//! checks. Every configuration is built here from the repetition's seed; none
//! is read from the environment.

use munin_apps::{matmul, sor, tsp, RunMeasurement};
use munin_core::{AccessMode, CopysetStrategy, SharingAnnotation};
use munin_sim::{CostModel, EngineConfig};

/// Consistency-unit size of every workload (the prototype's 8 KB pages).
pub const PAGE_SIZE: usize = 8192;
/// Per-node flight-recorder capacity: the runtime's default, which
/// `tsp::run_munin` cannot override.
pub const FLIGHT_EVENTS: usize = munin_core::config::DEFAULT_FLIGHT_EVENTS;
/// The largest SOR element error the repository's tests accept.
pub const SOR_MAX_ERR: f64 = 1e-9;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 3: Matrix Multiply, 400×400, 8 procs.
    Matmul8,
    /// Table 5: SOR, 1024×512, 20 iterations, 16 procs, `producer_consumer`.
    Sor16,
    /// Table 6: the same SOR with every variable forced `conventional`.
    SorConv16,
    /// Branch-and-bound TSP, 10 cities, 8 procs.
    Tsp8,
}

/// The program output a repetition is checked on.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// The product matrix, read from the root.
    Matmul(Vec<i32>),
    /// The final grid.
    Sor(Vec<f64>),
    /// The best tour length.
    Tsp(i64),
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Matmul8,
        Workload::Sor16,
        Workload::SorConv16,
        Workload::Tsp8,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Matmul8 => "matmul-8",
            Workload::Sor16 => "sor-16",
            Workload::SorConv16 => "sor-conv-16",
            Workload::Tsp8 => "tsp-8",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the untraced and traced runs must agree exactly on
    /// messages and bytes (TSP's counts depend on lock races).
    pub fn counts_are_deterministic(self) -> bool {
        self != Workload::Tsp8
    }

    /// The serial reference output (this also generates the inputs).
    pub fn reference(self, size: Size) -> Output {
        match self {
            Workload::Matmul8 => Output::Matmul(matmul::serial(size.matmul_n())),
            Workload::Sor16 | Workload::SorConv16 => {
                let (rows, cols, iterations) = size.sor_shape();
                Output::Sor(sor::serial(rows, cols, iterations))
            }
            Workload::Tsp8 => Output::Tsp(tsp::serial(size.tsp_cities()).best_len),
        }
    }

    /// One untraced repetition through the app's public `run_munin`.
    pub fn run_untraced(
        self,
        size: Size,
        seed: u64,
    ) -> munin_core::Result<(RunMeasurement, Output)> {
        match self {
            Workload::Matmul8 => matmul::run_munin(matmul_params(size, seed), size.cost())
                .map(|(m, c)| (m, Output::Matmul(c))),
            Workload::Sor16 | Workload::SorConv16 => {
                sor::run_munin(sor_params(self, size, seed), size.cost())
                    .map(|(m, g)| (m, Output::Sor(g)))
            }
            Workload::Tsp8 => tsp::run_munin(tsp_params(size, seed), size.cost())
                .map(|(m, r)| (m, Output::Tsp(r.best_len))),
        }
    }
}

/// Whether `out` matches the serial reference: matmul and TSP exactly, SOR
/// within [`SOR_MAX_ERR`] per element.
pub fn output_matches(out: &Output, reference: &Output) -> bool {
    match (out, reference) {
        (Output::Sor(a), Output::Sor(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < SOR_MAX_ERR)
        }
        _ => out == reference,
    }
}

/// Problem sizes: the paper's for the benchmark, tiny ones for self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmarked instances on the 1991 SUN/Ethernet cost model.
    Paper,
    /// `MatmulParams::small`/`SorParams::small`-sized instances on
    /// `CostModel::fast_test`.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Size {
    /// The cost model of the simulated machine.
    pub fn cost(self) -> CostModel {
        match self {
            Size::Paper => CostModel::sun_ethernet_1991(),
            Size::Tiny => CostModel::fast_test(),
        }
    }

    /// Matrix dimension.
    pub fn matmul_n(self) -> usize {
        match self {
            Size::Paper => 400,
            Size::Tiny => 24,
        }
    }

    /// Grid rows, columns and iterations.
    pub fn sor_shape(self) -> (usize, usize, usize) {
        match self {
            Size::Paper => (1024, 512, 20),
            Size::Tiny => (32, 16, 4),
        }
    }

    /// Number of TSP cities.
    pub fn tsp_cities(self) -> usize {
        match self {
            Size::Paper => 10,
            Size::Tiny => 7,
        }
    }

    /// Processors of `w`.
    pub fn procs(self, w: Workload) -> usize {
        match (self, w) {
            (Size::Paper, Workload::Sor16 | Workload::SorConv16) => 16,
            (Size::Paper, _) => 8,
            (Size::Tiny, _) => 4,
        }
    }

    /// Consistency-unit size.
    pub fn page_size(self) -> usize {
        match self {
            Size::Paper => PAGE_SIZE,
            Size::Tiny => 512,
        }
    }
}

/// Matrix Multiply parameters, every field explicit.
pub fn matmul_params(size: Size, seed: u64) -> matmul::MatmulParams {
    matmul::MatmulParams {
        n: size.matmul_n(),
        procs: size.procs(Workload::Matmul8),
        single_object_input: false,
        annotation_override: None,
        page_size: size.page_size(),
        engine: EngineConfig::seeded(seed),
        access_mode: AccessMode::Explicit,
        piggyback: true,
        reliability: None,
        retransmit_pacing: None,
        watchdog: None,
        flight_events: Some(FLIGHT_EVENTS),
        detect: None,
    }
}

/// SOR parameters, every field explicit; `SorConv16` forces `conventional`.
pub fn sor_params(w: Workload, size: Size, seed: u64) -> sor::SorParams {
    let (rows, cols, iterations) = size.sor_shape();
    sor::SorParams {
        rows,
        cols,
        iterations,
        procs: size.procs(w),
        annotation_override: (w == Workload::SorConv16).then_some(SharingAnnotation::Conventional),
        copyset_strategy: CopysetStrategy::Broadcast,
        page_size: size.page_size(),
        engine: EngineConfig::seeded(seed),
        access_mode: AccessMode::Explicit,
        piggyback: true,
        reliability: None,
        retransmit_pacing: None,
        watchdog: None,
        flight_events: Some(FLIGHT_EVENTS),
        detect: None,
        relay_max_bytes: None,
        barrier_fanout: None,
    }
}

/// TSP parameters, every field explicit.
pub fn tsp_params(size: Size, seed: u64) -> tsp::TspParams {
    tsp::TspParams {
        cities: size.tsp_cities(),
        procs: size.procs(Workload::Tsp8),
        engine: EngineConfig::seeded(seed),
        access_mode: AccessMode::Explicit,
        piggyback: true,
    }
}

/// The engine seed of repetition `rep` of a run seeded with `seed`
/// (SplitMix64, so neighbouring seeds give unrelated schedules).
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rep.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
